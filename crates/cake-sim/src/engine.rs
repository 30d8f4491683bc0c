//! Discrete-event timing engine for CB-block schedules.
//!
//! Models what the paper's SystemC simulator models (Section 6.2): the
//! timings between external memory, local memory, and cores. The engine
//! works in two passes:
//!
//! 1. **Lowering** ([`lower_cake`] / [`lower_goto`]): walk the *real*
//!    schedule (the executor's [`Schedule`], or GOTO's `jc/pc/ic` loop
//!    nest) and emit one [`StepLoad`] per CB block / parallel round, with
//!    its exact resource demands: MACs, active cores, DRAM read/write
//!    bytes (CAKE's from `cake_core::traffic::walk`: adjacency-shared A/B,
//!    one final C write per completed panel with the write-allocate
//!    factor, outer-tile spills), and internal LLC<->core bytes. This
//!    pass is pure traffic accounting: the report's DRAM and internal
//!    byte totals are the sums over the loads, u64-exactly.
//! 2. **Event execution** ([`crate::machine`]): play the loads through a
//!    component machine — shared DRAM channel and LLC port on their own
//!    clock dividers ([`CpuConfig::dram_clock_ghz`] /
//!    [`CpuConfig::llc_clock_ghz`]), a per-stream pack unit enforcing the
//!    Section 4.3 double-buffer look-ahead, per-core compute units, and a
//!    rotation barrier — driven by a min-heap of `(tick, seq, component)`
//!    events. IO/compute overlap is event causality, not a closed-form
//!    `max()`: a step stalls on DRAM only if its read physically hasn't
//!    landed when the cores go idle.
//!
//! Same-tick event ordering is governed by [`SimOptions::tie_break`]:
//! FIFO (deterministic, the reference ordering) or a seeded permutation
//! ([`TieBreak::Fuzzed`]) under which all traffic/result counters must be
//! invariant — [`check_ordering_invariance`] sweeps seeds and reports any
//! divergence with the event trace as a witness.

use cake_core::schedule::Schedule;
use cake_core::shape::CbBlockShape;
use cake_core::traffic::{self, CResidency, TrafficParams};
use cake_core::tune;
use cake_goto::params::GotoParams;

use crate::config::CpuConfig;
use crate::event::{Clock, TieBreak, TraceEvent};
use crate::machine::{Machine, MachineParams, PortSpec, StepLoad, StreamSpec, StreamStats};
use crate::report::SimReport;

/// Inputs for one simulated GEMM.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Problem extents.
    pub m: usize,
    /// Reduction extent.
    pub k: usize,
    /// Column extent.
    pub n: usize,
    /// Cores to use.
    pub p: usize,
    /// Element size in bytes (4 for the paper's f32 experiments).
    pub elem_bytes: usize,
    /// CB-block aspect factor; `None` = auto-select from DRAM bandwidth
    /// (Section 3.2). Ignored by GOTO.
    pub alpha: Option<f64>,
    /// Override the measured internal-bandwidth curve (used for the
    /// paper's dashed "extrapolated" series, which assume internal
    /// bandwidth keeps growing linearly with cores).
    pub internal_bw_gbs_override: Option<f64>,
    /// Override the LLC size (the extrapolations also assume local memory
    /// grows quadratically with core count).
    pub llc_bytes_override: Option<usize>,
}

impl SimParams {
    /// Square `n x n x n` problem on `p` cores, f32.
    pub fn square(n: usize, p: usize) -> Self {
        Self::new(n, n, n, p)
    }

    /// General `m x k x n` problem on `p` cores, f32.
    pub fn new(m: usize, k: usize, n: usize, p: usize) -> Self {
        Self {
            m,
            k,
            n,
            p,
            elem_bytes: 4,
            alpha: None,
            internal_bw_gbs_override: None,
            llc_bytes_override: None,
        }
    }

    fn llc_bytes(&self, cpu: &CpuConfig) -> usize {
        self.llc_bytes_override.unwrap_or(cpu.llc_bytes)
    }

    fn internal_bw_gbs(&self, cpu: &CpuConfig) -> f64 {
        self.internal_bw_gbs_override
            .unwrap_or_else(|| cpu.internal_bw_gbs(self.p))
    }
}

/// Which schedule to lower and simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// CAKE's K-first CB-block schedule.
    Cake,
    /// The GOTO `jc/pc/ic` loop nest (vendor-library stand-in).
    Goto,
}

impl Algo {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Cake => "CAKE",
            Algo::Goto => "GOTO",
        }
    }
}

/// Knobs of one engine run that are not part of the problem.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Same-tick event ordering policy.
    pub tie_break: TieBreak,
    /// Keep a bounded event trace (returned in panics/witnesses).
    pub trace: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self { tie_break: TieBreak::Fifo, trace: false }
    }
}

/// Resolve the CB shape the CAKE library would use on this CPU, clamped to
/// the problem so small matrices still spread across all cores.
pub fn resolve_cake_shape(cpu: &CpuConfig, sp: &SimParams) -> CbBlockShape {
    let macs = cpu.macs_per_cycle_f32;
    let llc = sp.llc_bytes(cpu);
    let probe = CbBlockShape::derive(sp.p, 1.0, cpu.l2_bytes, llc, sp.elem_bytes, cpu.mr, cpu.nr);
    let alpha = sp.alpha.unwrap_or_else(|| {
        tune::select_alpha(cpu.dram_bw_gbs, probe.mc, macs, sp.elem_bytes, cpu.freq_ghz)
    });
    CbBlockShape::derive(sp.p, alpha, cpu.l2_bytes, llc, sp.elem_bytes, cpu.mr, cpu.nr)
        .clamp_to_problem(sp.m, sp.k, sp.n, cpu.mr, cpu.nr)
}

/// Resolve the GOTO blocking for this CPU.
pub fn resolve_goto_params(cpu: &CpuConfig, sp: &SimParams) -> GotoParams {
    let g = GotoParams::derive(
        sp.p,
        cpu.l2_bytes,
        sp.llc_bytes(cpu),
        sp.elem_bytes,
        cpu.mr,
        cpu.nr,
    );
    // Clamp like the library would for small problems.
    let mc = g.mc.min(sp.m.div_ceil(cpu.mr).max(1) * cpu.mr);
    let kc = g.kc.min(sp.k.max(1));
    let nc = g.nc.min(sp.n.div_ceil(cpu.nr).max(1) * cpu.nr).max(cpu.nr);
    GotoParams::fixed(sp.p, mc.max(cpu.mr), kc, nc)
}

/// Lower a CAKE run to per-block [`StepLoad`]s along the executor's
/// schedule for `shape` (outer tiles included). DRAM bytes come from the
/// traffic walk with adjacency-shared B: partial C stays in the LLC and a
/// completed `(m, n)` panel is written once (with the write-allocate
/// factor); outer K tiles add partial spills and read-backs. Internal
/// traffic follows Eq. 3 / Eq. 6.
pub fn lower_cake(cpu: &CpuConfig, sp: &SimParams, shape: &CbBlockShape) -> Vec<StepLoad> {
    let (m, k, n) = (sp.m, sp.k, sp.n);
    if m == 0 || k == 0 || n == 0 {
        return Vec::new();
    }
    let schedule = Schedule::for_shape(m, k, n, shape);
    let (bm, bk, bn) = (shape.m_block(), shape.k_block(), shape.n_block());
    let tp = TrafficParams { m, k, n, bm, bk, bn };
    let eb = sp.elem_bytes as u64;
    let wa = if cpu.write_allocate { 2 } else { 1 };

    let mut loads = Vec::with_capacity(schedule.len());
    traffic::walk(schedule, tp, CResidency::HoldInLlc, 1, |c, t| {
        let (ml, kl, nl) = tp.extents(c);
        loads.push(StepLoad {
            macs: (ml * kl * nl) as u64,
            active: ml.div_ceil(shape.mc).min(shape.p),
            ext_read_bytes: (t.a_loads + t.b_loads + t.c_partial_reads) * eb,
            ext_write_bytes: (t.c_final_writes * wa + t.c_partial_writes) * eb,
            // Internal traffic: read A + B once, read + write the partial
            // C panel (Eq. 3 / Eq. 6).
            int_bytes: ((ml * kl) + (kl * nl) + 2 * (ml * nl)) as u64 * eb,
        });
    });
    loads
}

/// Lower a GOTO run to per-round [`StepLoad`]s: B packed once per
/// `(jc, pc)` panel, partial C streamed to DRAM every round (read back
/// after the first K panel).
pub fn lower_goto(cpu: &CpuConfig, sp: &SimParams, g: &GotoParams) -> Vec<StepLoad> {
    let (m, k, n) = (sp.m, sp.k, sp.n);
    if m == 0 || k == 0 || n == 0 {
        return Vec::new();
    }
    let eb = sp.elem_bytes as u64;
    let wa = if cpu.write_allocate { 2 } else { 1 };
    let (mc, kc, nc, p) = (g.mc, g.kc, g.nc, g.p);
    let kb = k.div_ceil(kc);

    let mut loads = Vec::new();
    let mut jc = 0;
    while jc < n {
        let nl = nc.min(n - jc);
        for pc_idx in 0..kb {
            let kl = kc.min(k - pc_idx * kc);
            let mut b_pending = (kl * nl) as u64 * eb; // B packed once per (jc, pc)
            // Parallel rounds over ic strips.
            let mut ic = 0;
            while ic < m {
                let round_m = (p * mc).min(m - ic);
                let active = round_m.div_ceil(mc);
                let a_bytes = (round_m * kl) as u64 * eb;
                let c_panel = (round_m * nl) as u64 * eb;
                // C streams: read previous partials (after the first k
                // panel), write partials/finals every round.
                let c_reads = if pc_idx > 0 { c_panel } else { 0 };
                let c_writes = c_panel * wa;
                loads.push(StepLoad {
                    macs: (round_m * kl * nl) as u64,
                    active,
                    ext_read_bytes: a_bytes + b_pending + c_reads,
                    ext_write_bytes: c_writes,
                    int_bytes: a_bytes + (kl * nl) as u64 * eb + 2 * c_panel,
                });
                b_pending = 0;
                ic += p * mc;
            }
        }
        jc += nc;
    }
    loads
}

/// Machine characteristics for one run: ports sized from the CPU's
/// bandwidth figures, clock dividers from its Table-2 clock domains.
fn machine_params(cpu: &CpuConfig, sp: &SimParams) -> MachineParams {
    MachineParams {
        freq_ghz: cpu.freq_ghz,
        macs_per_cycle: cpu.macs_per_cycle_f32,
        dram: PortSpec::from_bandwidth(
            cpu.usable_dram_bw_gbs(),
            cpu.freq_ghz,
            Clock::from_ratio(cpu.freq_ghz, cpu.dram_clock_ghz),
        ),
        llc: PortSpec::from_bandwidth(
            sp.internal_bw_gbs(cpu),
            cpu.freq_ghz,
            Clock::from_ratio(cpu.freq_ghz, cpu.llc_clock_ghz),
        ),
        pack_clock: Clock::new(1),
    }
}

fn report_from_stats(
    cpu: &CpuConfig,
    sp: &SimParams,
    algo: Algo,
    stats: &StreamStats,
    seconds_ticks: u64,
    events: u64,
) -> SimReport {
    let freq_hz = cpu.freq_ghz * 1e9;
    let seconds = seconds_ticks as f64 / freq_hz;
    let flops = 2.0 * sp.m as f64 * sp.k as f64 * sp.n as f64;
    let dram_bytes = stats.dram_bytes();
    SimReport {
        cpu: cpu.name.clone(),
        algo: algo.name().into(),
        p: sp.p,
        m: sp.m,
        k: sp.k,
        n: sp.n,
        seconds,
        gflops: if seconds > 0.0 { flops / seconds / 1e9 } else { 0.0 },
        dram_bytes,
        avg_dram_bw_gbs: if seconds > 0.0 { dram_bytes as f64 / seconds / 1e9 } else { 0.0 },
        dram_stall_seconds: stats.dram_wait_ticks as f64 / freq_hz,
        internal_stall_seconds: stats.int_excess_ticks as f64 / freq_hz,
        steps: stats.steps,
        macs: stats.macs,
        int_bytes: stats.int_bytes,
        events,
    }
}

/// Run one lowered schedule on the event machine.
fn run_single(cpu: &CpuConfig, sp: &SimParams, algo: Algo, loads: Vec<StepLoad>, opts: SimOptions) -> SimReport {
    let machine = Machine::new(
        machine_params(cpu, sp),
        vec![StreamSpec { loads, cores: sp.p.max(1) }],
        opts.tie_break,
        opts.trace,
    );
    let run = machine.run();
    report_from_stats(cpu, sp, algo, &run.streams[0], run.ticks, run.events)
}

/// Simulate a CAKE GEMM on `cpu`.
// audit: cold offline simulation tool, never on the GEMM warm path
pub fn simulate_cake(cpu: &CpuConfig, sp: &SimParams) -> SimReport {
    let shape = resolve_cake_shape(cpu, sp);
    simulate_cake_with_shape(cpu, sp, &shape)
}

/// Simulate a CAKE GEMM with an explicit CB shape (ablations).
pub fn simulate_cake_with_shape(cpu: &CpuConfig, sp: &SimParams, shape: &CbBlockShape) -> SimReport {
    simulate_cake_with_shape_opts(cpu, sp, shape, SimOptions::default())
}

/// [`simulate_cake_with_shape`] with explicit engine options.
pub fn simulate_cake_with_shape_opts(
    cpu: &CpuConfig,
    sp: &SimParams,
    shape: &CbBlockShape,
    opts: SimOptions,
) -> SimReport {
    run_single(cpu, sp, Algo::Cake, lower_cake(cpu, sp, shape), opts)
}

/// Simulate a GOTO GEMM on `cpu`.
pub fn simulate_goto(cpu: &CpuConfig, sp: &SimParams) -> SimReport {
    let params = resolve_goto_params(cpu, sp);
    simulate_goto_with_params(cpu, sp, &params)
}

/// Simulate a GOTO GEMM with explicit blocking (ablations).
pub fn simulate_goto_with_params(cpu: &CpuConfig, sp: &SimParams, g: &GotoParams) -> SimReport {
    simulate_goto_with_params_opts(cpu, sp, g, SimOptions::default())
}

/// [`simulate_goto_with_params`] with explicit engine options.
pub fn simulate_goto_with_params_opts(
    cpu: &CpuConfig,
    sp: &SimParams,
    g: &GotoParams,
    opts: SimOptions,
) -> SimReport {
    run_single(cpu, sp, Algo::Goto, lower_goto(cpu, sp, g), opts)
}

/// Simulate `algo` with the auto-resolved blocking and explicit options.
pub fn simulate_opts(cpu: &CpuConfig, sp: &SimParams, algo: Algo, opts: SimOptions) -> SimReport {
    match algo {
        Algo::Cake => {
            let shape = resolve_cake_shape(cpu, sp);
            simulate_cake_with_shape_opts(cpu, sp, &shape, opts)
        }
        Algo::Goto => {
            let g = resolve_goto_params(cpu, sp);
            simulate_goto_with_params_opts(cpu, sp, &g, opts)
        }
    }
}

/// Like [`simulate_opts`] but with tracing forced on, returning the
/// bounded event trace alongside the report (`cakectl sim --trace`).
pub fn simulate_traced(
    cpu: &CpuConfig,
    sp: &SimParams,
    algo: Algo,
    opts: SimOptions,
) -> (SimReport, Vec<TraceEvent>) {
    let loads = match algo {
        Algo::Cake => {
            let shape = resolve_cake_shape(cpu, sp);
            lower_cake(cpu, sp, &shape)
        }
        Algo::Goto => {
            let g = resolve_goto_params(cpu, sp);
            lower_goto(cpu, sp, &g)
        }
    };
    let run = Machine::new(
        machine_params(cpu, sp),
        vec![StreamSpec { loads, cores: sp.p.max(1) }],
        opts.tie_break,
        true,
    )
    .run();
    let rep = report_from_stats(cpu, sp, algo, &run.streams[0], run.ticks, run.events);
    (rep, run.trace)
}

/// Outcome of a shared-LLC contention run: two (or more) concurrent GEMMs
/// interleaving on one memory hierarchy.
#[derive(Debug, Clone)]
pub struct SharedLlcReport {
    /// Per-tenant reports; `seconds` is each tenant's own finish time.
    pub tenants: Vec<SimReport>,
    /// Time until the whole machine drained, seconds.
    pub makespan_seconds: f64,
    /// Events processed by the shared machine.
    pub events: u64,
}

/// Simulate concurrent CAKE GEMMs sharing one LLC and DRAM channel.
///
/// Each tenant gets its own core set (`sp.p`) and an even share of the LLC
/// for shape resolution (unless it already overrides `llc_bytes`), but the
/// DRAM channel and LLC port are *one component each* — tenants' IO jobs
/// queue against each other, which is exactly the contention a per-step
/// `max(compute, IO)` cost cannot express.
pub fn simulate_shared_llc(cpu: &CpuConfig, tenants: &[SimParams], opts: SimOptions) -> SharedLlcReport {
    assert!(!tenants.is_empty(), "shared-LLC scenario needs at least one tenant");
    let share = (cpu.llc_bytes / tenants.len()).max(1);
    let resolved: Vec<SimParams> = tenants
        .iter()
        .map(|sp| {
            let mut sp = sp.clone();
            sp.llc_bytes_override = Some(sp.llc_bytes_override.unwrap_or(share));
            sp
        })
        .collect();
    // Port bandwidths come from the total active core count.
    let total_p: usize = resolved.iter().map(|sp| sp.p).sum();
    let mut bw_sp = resolved[0].clone();
    bw_sp.p = total_p;
    let params = machine_params(cpu, &bw_sp);

    let specs: Vec<StreamSpec> = resolved
        .iter()
        .map(|sp| {
            let shape = resolve_cake_shape(cpu, sp);
            StreamSpec { loads: lower_cake(cpu, sp, &shape), cores: sp.p.max(1) }
        })
        .collect();
    let run = Machine::new(params, specs, opts.tie_break, opts.trace).run();
    let tenants_out = resolved
        .iter()
        .zip(&run.streams)
        .map(|(sp, st)| report_from_stats(cpu, sp, Algo::Cake, st, st.finish_tick, run.events))
        .collect();
    SharedLlcReport {
        tenants: tenants_out,
        makespan_seconds: run.ticks as f64 / (cpu.freq_ghz * 1e9),
        events: run.events,
    }
}

/// A schedule race caught by the fuzzed-ordering sweep: a counter that
/// should be ordering-invariant diverged under some same-tick permutation.
#[derive(Debug, Clone)]
pub struct OrderingDivergence {
    /// Seed of the permutation that diverged.
    pub seed: u64,
    /// Which counter diverged.
    pub field: &'static str,
    /// Counter value under the FIFO reference ordering.
    pub baseline: u64,
    /// Counter value under the fuzzed ordering.
    pub fuzzed: u64,
    /// Event trace of the diverging run (the witness).
    pub witness: Vec<TraceEvent>,
}

impl std::fmt::Display for OrderingDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ordering divergence under seed {}: {} = {} (fifo) vs {} (fuzzed); witness:",
            self.seed, self.field, self.baseline, self.fuzzed
        )?;
        for ev in &self.witness {
            writeln!(f, "  {ev}")?;
        }
        Ok(())
    }
}

fn counter_fields(rep: &SimReport) -> [(&'static str, u64); 4] {
    [
        ("dram_bytes", rep.dram_bytes),
        ("int_bytes", rep.int_bytes),
        ("macs", rep.macs),
        ("steps", rep.steps as u64),
    ]
}

/// Sweep `seeds` fuzzed same-tick orderings of one simulation and check
/// every traffic/result counter against the FIFO reference. Returns the
/// number of orderings checked, or the first divergence (with the event
/// trace of a traced re-run as witness) — which would demonstrate a
/// schedule race in the engine.
pub fn check_ordering_invariance(
    cpu: &CpuConfig,
    sp: &SimParams,
    algo: Algo,
    seeds: u64,
) -> Result<u64, Box<OrderingDivergence>> {
    let base = simulate_opts(cpu, sp, algo, SimOptions::default());
    for seed in 0..seeds {
        let opts = SimOptions { tie_break: TieBreak::Fuzzed { seed }, trace: false };
        let fz = simulate_opts(cpu, sp, algo, opts);
        for ((field, b), (_, f)) in counter_fields(&base).iter().zip(counter_fields(&fz).iter()) {
            if b != f {
                // Re-run the diverging seed with tracing for the witness.
                return Err(Box::new(OrderingDivergence {
                    seed,
                    field,
                    baseline: *b,
                    fuzzed: *f,
                    witness: trace_of(cpu, sp, algo, seed),
                }));
            }
        }
    }
    Ok(seeds)
}

/// Event trace of one fuzzed run (used for divergence witnesses).
fn trace_of(cpu: &CpuConfig, sp: &SimParams, algo: Algo, seed: u64) -> Vec<TraceEvent> {
    let opts = SimOptions { tie_break: TieBreak::Fuzzed { seed }, trace: true };
    simulate_traced(cpu, sp, algo, opts).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intel() -> CpuConfig {
        CpuConfig::intel_i9_10900k()
    }
    fn arm() -> CpuConfig {
        CpuConfig::arm_cortex_a53()
    }

    #[test]
    fn cake_dram_bw_flat_in_cores_fig10a() {
        let cpu = intel();
        let bw: Vec<f64> = (1..=10)
            .map(|p| simulate_cake(&cpu, &SimParams::square(4608, p)).avg_dram_bw_gbs)
            .collect();
        // CAKE's average DRAM bandwidth must stay in a narrow band while
        // core count grows 10x (paper: "does not need to increase DRAM
        // bandwidth to utilize more cores").
        let lo = bw.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = bw.iter().cloned().fold(0.0, f64::max);
        assert!(hi / lo < 2.0, "CAKE BW varied too much: {bw:?}");
        // And stays far below the 40 GB/s the machine offers.
        assert!(hi < 20.0, "CAKE BW should be modest, got {hi}");
    }

    #[test]
    fn goto_dram_bw_grows_with_cores_fig10a() {
        let cpu = intel();
        let bw1 = simulate_goto(&cpu, &SimParams::square(4608, 1)).avg_dram_bw_gbs;
        let bw10 = simulate_goto(&cpu, &SimParams::square(4608, 10)).avg_dram_bw_gbs;
        assert!(
            bw10 > 3.0 * bw1,
            "GOTO BW must grow with p: {bw1:.2} -> {bw10:.2}"
        );
    }

    #[test]
    fn cake_and_goto_throughput_comparable_on_intel_fig10b() {
        // Paper: CAKE within ~3-10% of MKL on the Intel part for large MM.
        let cpu = intel();
        let c = simulate_cake(&cpu, &SimParams::square(4608, 10));
        let g = simulate_goto(&cpu, &SimParams::square(4608, 10));
        let ratio = c.gflops / g.gflops;
        assert!(
            (0.8..=1.6).contains(&ratio),
            "CAKE/GOTO = {ratio:.2} (cake {:.0}, goto {:.0})",
            c.gflops,
            g.gflops
        );
    }

    #[test]
    fn arm_goto_is_bandwidth_starved_fig11() {
        // Paper: on the ARM part ARMPL cannot scale - DRAM BW (2 GB/s) is
        // the binding constraint - while CAKE keeps scaling.
        let cpu = arm();
        let c4 = simulate_cake(&cpu, &SimParams::square(3000, 4));
        let g4 = simulate_goto(&cpu, &SimParams::square(3000, 4));
        assert!(
            c4.gflops > 1.3 * g4.gflops,
            "CAKE {:.2} should clearly beat GOTO {:.2} on ARM",
            c4.gflops,
            g4.gflops
        );
        // GOTO is DRAM-stalled a significant fraction of the time.
        assert!(g4.dram_stall_fraction() > 0.25, "{}", g4.dram_stall_fraction());
    }

    #[test]
    fn cake_speedup_scales_on_arm_fig9b() {
        let cpu = arm();
        let t1 = simulate_cake(&cpu, &SimParams::square(3000, 1)).gflops;
        let t4 = simulate_cake(&cpu, &SimParams::square(3000, 4)).gflops;
        let speedup = t4 / t1;
        assert!(speedup > 2.2, "CAKE ARM speedup {speedup:.2}");
        // GOTO's speedup must be visibly worse.
        let g1 = simulate_goto(&cpu, &SimParams::square(3000, 1)).gflops;
        let g4 = simulate_goto(&cpu, &SimParams::square(3000, 4)).gflops;
        assert!(t4 / t1 > g4 / g1, "cake {speedup:.2} vs goto {:.2}", g4 / g1);
    }

    #[test]
    fn internal_bw_override_extends_scaling() {
        // With the measured (saturating) curve, Intel CAKE throughput at
        // 10 cores trails the idealized linear-internal-bandwidth case.
        let cpu = intel();
        let measured = simulate_cake(&cpu, &SimParams::square(4608, 10));
        let mut sp = SimParams::square(4608, 10);
        sp.internal_bw_gbs_override = Some(cpu.internal_bw.extrapolated(10));
        let ideal = simulate_cake(&cpu, &sp);
        assert!(ideal.gflops >= measured.gflops);
    }

    #[test]
    fn traffic_roughly_matches_analytic_model() {
        // Engine DRAM traffic vs cake_core::traffic for the same shape.
        use cake_core::traffic::dram_traffic;
        let cpu = intel();
        let sp = SimParams::square(2304, 4);
        let shape = resolve_cake_shape(&cpu, &sp);
        let rep = simulate_cake_with_shape(&cpu, &sp, &shape);

        let tp = TrafficParams {
            m: sp.m,
            k: sp.k,
            n: sp.n,
            bm: shape.m_block(),
            bk: shape.k_block(),
            bn: shape.n_block(),
        };
        let schedule = Schedule::k_first(tp.grid(), sp.m, sp.n);
        let t = dram_traffic(schedule, tp, CResidency::HoldInLlc, 1);
        let analytic = t.total_bytes(4);
        let ratio = rep.dram_bytes as f64 / analytic as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "engine {} vs analytic {analytic} (ratio {ratio:.3})",
            rep.dram_bytes
        );
    }

    #[test]
    fn traffic_exactly_matches_analytic_model_on_kfirst_schedules() {
        // Stronger than the ratio check above: for K-first schedules the
        // lowering's per-block accounting (adjacency-shared A/B, one final
        // C write per completed panel, write-allocate factor) is the *same
        // function* as cake_core::traffic — so the byte totals must be
        // u64-equal, ragged edges and all, on both write-allocate settings.
        use cake_core::traffic::dram_traffic;
        for cpu in [intel(), arm()] {
            let wa: u64 = if cpu.write_allocate { 2 } else { 1 };
            for (m, k, n, p, mc, kc, nc) in
                [(48, 24, 48, 4, 4, 8, 16), (50, 23, 41, 2, 8, 8, 24), (16, 64, 16, 1, 16, 16, 16)]
            {
                let sp = SimParams::new(m, k, n, p);
                let shape = cake_core::shape::CbBlockShape::fixed(p, mc, kc, nc);
                let rep = simulate_cake_with_shape(&cpu, &sp, &shape);

                let tp = TrafficParams {
                    m,
                    k,
                    n,
                    bm: shape.m_block(),
                    bk: shape.k_block(),
                    bn: shape.n_block(),
                };
                let schedule = Schedule::k_first(tp.grid(), m, n);
                let t = dram_traffic(schedule, tp, CResidency::HoldInLlc, 1);
                let analytic = (t.a_loads + t.b_loads + t.c_final_writes * wa)
                    * sp.elem_bytes as u64;
                assert_eq!(
                    rep.dram_bytes, analytic,
                    "{}: {m}x{k}x{n} p={p} engine bytes != analytic (wa={wa})",
                    cpu.name
                );
            }
        }
    }

    #[test]
    fn lowering_follows_the_shapes_outer_tiles() {
        // A two-level shape lowers along its tiled order: outer K tiles
        // add partial-C spills and read-backs, byte-exact with the walk.
        use cake_core::traffic::dram_traffic;
        let cpu = arm(); // write_allocate = true
        let (m, k, n, p) = (48, 32, 48, 2);
        let sp = SimParams::new(m, k, n, p);
        let shape = cake_core::shape::CbBlockShape::fixed(p, 8, 8, 16).with_outer_tiles(2, 2);
        let tp = TrafficParams { m, k, n, bm: 16, bk: 8, bn: 16 };
        let t = dram_traffic(Schedule::for_shape(m, k, n, &shape), tp, CResidency::HoldInLlc, 1);
        assert!(t.c_partial_writes > 0, "ko = 2 < kb = 4 must spill");
        let expect = (t.a_loads + t.b_loads + t.c_partial_reads + t.c_partial_writes)
            * sp.elem_bytes as u64
            + t.c_final_writes * 2 * sp.elem_bytes as u64;
        assert_eq!(simulate_cake_with_shape(&cpu, &sp, &shape).dram_bytes, expect);
    }

    #[test]
    fn zero_problem_reports_zero() {
        let cpu = intel();
        let r = simulate_cake(&cpu, &SimParams::new(0, 128, 128, 2));
        assert_eq!(r.dram_bytes, 0);
        assert_eq!(r.seconds, 0.0);
        assert_eq!(r.events, 0);
    }

    #[test]
    fn higher_alpha_cuts_cake_bandwidth_at_fixed_mc() {
        // Eq. 4 at constant mc: BW scales with (alpha+1)/alpha. Hold mc
        // fixed (the L2-bound regime with LLC headroom, AMD's 64 MiB LLC)
        // and widen only nc.
        let cpu = CpuConfig::amd_ryzen_9_5950x();
        let sp = SimParams::square(4608, 8);
        let s1 = cake_core::shape::CbBlockShape::fixed(8, 96, 96, 8 * 96);
        let s4 = cake_core::shape::CbBlockShape::fixed(8, 96, 96, 4 * 8 * 96);
        let b1 = simulate_cake_with_shape(&cpu, &sp, &s1).avg_dram_bw_gbs;
        let b4 = simulate_cake_with_shape(&cpu, &sp, &s4).avg_dram_bw_gbs;
        assert!(b4 < b1, "alpha=4 BW {b4:.2} should be below alpha=1 BW {b1:.2}");
        // Quantitatively: ratio approaches (5/4) / 2 = 0.625 from above.
        assert!((0.55..0.9).contains(&(b4 / b1)), "ratio {}", b4 / b1);
    }

    #[test]
    fn auto_alpha_keeps_cake_within_usable_bandwidth() {
        // The shaping must pick an alpha whose demand fits the machine even
        // on the bandwidth-starved ARM part.
        let cpu = arm();
        let sp = SimParams::square(3000, 4);
        let shape = resolve_cake_shape(&cpu, &sp);
        let rep = simulate_cake_with_shape(&cpu, &sp, &shape);
        assert!(
            rep.avg_dram_bw_gbs <= cpu.usable_dram_bw_gbs() * 1.05,
            "CAKE demands {:.2} GB/s of usable {:.2}",
            rep.avg_dram_bw_gbs,
            cpu.usable_dram_bw_gbs()
        );
    }

    #[test]
    fn fuzzed_orderings_leave_counters_invariant() {
        // The engine-level race check on a ragged multi-core problem.
        let cpu = intel();
        let sp = SimParams::new(300, 200, 280, 4);
        for algo in [Algo::Cake, Algo::Goto] {
            let checked = check_ordering_invariance(&cpu, &sp, algo, 16)
                .unwrap_or_else(|d| panic!("{algo:?}: {d}"));
            assert_eq!(checked, 16);
        }
    }

    #[test]
    fn same_options_give_bit_identical_reports() {
        let cpu = arm();
        let sp = SimParams::square(500, 4);
        let a = simulate_opts(&cpu, &sp, Algo::Cake, SimOptions::default());
        let b = simulate_opts(&cpu, &sp, Algo::Cake, SimOptions::default());
        assert_eq!(a, b);
        let opts = SimOptions { tie_break: TieBreak::Fuzzed { seed: 7 }, trace: false };
        let f1 = simulate_opts(&cpu, &sp, Algo::Cake, opts);
        let f2 = simulate_opts(&cpu, &sp, Algo::Cake, opts);
        assert_eq!(f1, f2);
    }

    #[test]
    fn shared_llc_contention_slows_tenants_but_keeps_traffic() {
        let cpu = intel();
        let sp = SimParams::square(768, 4);
        // Solo run with the same half-LLC shape a tenant would get.
        let solo = simulate_shared_llc(&cpu, std::slice::from_ref(&sp), SimOptions::default());
        let both = simulate_shared_llc(&cpu, &[sp.clone(), sp], SimOptions::default());
        assert_eq!(solo.tenants[0].dram_bytes, both.tenants[0].dram_bytes);
        assert_eq!(solo.tenants[0].dram_bytes, both.tenants[1].dram_bytes);
        // Two tenants on one channel cannot finish faster than one.
        assert!(both.makespan_seconds >= solo.makespan_seconds);
        assert!(both.events > solo.events);
    }
}
