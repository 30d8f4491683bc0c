//! Model-conformance oracle: measured traffic == analytic traffic == paper.
//!
//! Three layers, each tying two independently implemented layers of the
//! repo together across `p ∈ {1, 2, 4, 8}`:
//!
//! 1. **Executor vs `traffic.rs`, element-exact.** The pipelined executor
//!    runs with the `traffic-counters` feature and its measured element
//!    counters are reconciled with [`cake_core::traffic::dram_traffic`]
//!    (A and final C under the adjacency rule, B through the literal
//!    panel-ring replay) as `u64` equalities — no tolerance — on the
//!    one-level schedule and again with 2x2 outer tiles. The block *grid*
//!    is held fixed (`bm = p·mc` constant by shrinking `mc` as `p` grows),
//!    so the schedule and therefore every counter must be identical across
//!    `p`: measured CAKE DRAM traffic is `p`-invariant.
//! 2. **`model.rs` closed forms.** Under the paper's scaling (`mc`, `kc`,
//!    `alpha` fixed; the block grows with `p`), Eq. 4 external bandwidth is
//!    `p`-invariant while GOTO's grows ~linearly; Eq. 5 local memory is
//!    superlinear in `p`; the derived shape respects the Section 4.3 LRU
//!    rule.
//! 3. **`cake-sim` replay.** The packet simulator's `dram_bytes` for the
//!    same problem equals the analytic tally exactly (its per-block
//!    accounting is the same adjacency rule), and its *average bandwidth*
//!    on an uncapped machine stays flat for CAKE under paper scaling while
//!    GOTO's grows with `p` — the Figure 10a/5a story, reproduced from the
//!    timing engine rather than the closed forms.

use cake_core::executor::execute_with_stats_in;
use cake_core::model::CakeModel;
use cake_core::panel::ring_depth;
use cake_core::pool::ThreadPool;
use cake_core::schedule::Schedule;
use cake_core::shape::CbBlockShape;
use cake_core::traffic::{dram_traffic, CResidency, TrafficParams};
use cake_core::workspace::GemmWorkspace;
use cake_goto::model::GotoModel;
use cake_goto::naive::naive_gemm_views;
use cake_goto::params::GotoParams;
use cake_kernels::portable_kernel;
use cake_matrix::{init, Matrix};
use cake_sim::config::InternalBwCurve;
use cake_sim::engine::{simulate_cake_with_shape, simulate_goto_with_params};
use cake_sim::{CpuConfig, SimParams};

/// Core counts every layer is checked across.
pub const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Outcome of a clean conformance run.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// One line per proven property.
    pub lines: Vec<String>,
}

impl ConformanceReport {
    /// Human-readable summary for the CLI.
    pub fn summary_lines(&self) -> Vec<String> {
        self.lines.clone()
    }
}

fn fail(layer: &str, msg: String) -> String {
    format!("conformance [{layer}]: {msg}")
}

/// Layer 1: measured executor counters vs the traffic walk, element-exact,
/// identical across `p` at a fixed block grid. Runs once on the one-level
/// schedule and once with 2x2 outer (MOMMS-style) tiles, which permute
/// the blocks and pay partial-C spill round trips on K-tile changes: the
/// counters differ between the two, but executor and walk must agree as
/// `u64` equalities at every `p` in both.
fn check_measured_traffic(report: &mut ConformanceReport) -> Result<(), String> {
    let (m, k, n) = (48usize, 24usize, 48usize);
    let (bm, bk, bn) = (16usize, 8usize, 16usize);
    let params = TrafficParams { m, k, n, bm, bk, bn };
    let kb = params.grid().kb;
    let schedule = Schedule::k_first(params.grid(), m, n);
    let one_level = dram_traffic(schedule, params, CResidency::HoldInLlc, 1);

    let a = init::random::<f32>(m, k, 11);
    let b = init::random::<f32>(k, n, 12);
    let mut expected = Matrix::<f32>::zeros(m, n);
    naive_gemm_views(&a.view(), &b.view(), &mut expected.view_mut());
    let ukr = portable_kernel::<f32>();

    for (ko, no) in [(0usize, 0usize), (2, 2)] {
        let label = match (ko, no) {
            (0, 0) => "one-level".to_string(),
            _ => format!("two-level {ko}x{no}"),
        };
        let err = |msg: String| fail("measured", format!("{label}: {msg}"));
        let tiled = schedule.with_outer_tiles(ko, no);
        let adj = dram_traffic(tiled, params, CResidency::HoldInLlc, 1);
        let ring = dram_traffic(tiled, params, CResidency::HoldInLlc, ring_depth(kb));
        if ring.b_loads > adj.b_loads {
            return Err(err(format!(
                "panel ring must never fetch more B than adjacency sharing: {} > {}",
                ring.b_loads, adj.b_loads
            )));
        }
        if adj.total() < one_level.total() || adj.c_final_writes != (m * n) as u64 {
            return Err(err(format!(
                "outer tiling can only add traffic on this grid and C completes once: \
                 total {} < one-level {}, or final writes {} != m*n",
                adj.total(),
                one_level.total(),
                adj.c_final_writes
            )));
        }

        let mut measured: Vec<(u64, u64, u64)> = Vec::new();
        for &p in &CORE_COUNTS {
            // Same bm = p * mc for every p: identical grid, schedule, traffic.
            let shape = CbBlockShape::fixed(p, bm / p, bk, bn).with_outer_tiles(ko, no);
            let pool = ThreadPool::new(p);
            let mut ws = GemmWorkspace::new();
            let mut c = Matrix::<f32>::zeros(m, n);
            let stats = execute_with_stats_in(
                &a.view(),
                &b.view(),
                &mut c.view_mut(),
                &shape,
                &ukr,
                &pool,
                &mut ws,
            );

            let tol = cake_matrix::compare::gemm_tolerance::<f32>(k);
            if !cake_matrix::approx_eq(&c, &expected, tol) {
                return Err(err(format!("p={p}: executor result diverged from naive")));
            }
            if stats.a_elems_loaded != adj.a_loads {
                return Err(err(format!(
                    "p={p}: A elements loaded {} != analytic adjacency {}",
                    stats.a_elems_loaded, adj.a_loads
                )));
            }
            if stats.b_elems_loaded != ring.b_loads {
                return Err(err(format!(
                    "p={p}: B elements loaded {} != panel-ring replay {}",
                    stats.b_elems_loaded, ring.b_loads
                )));
            }
            // Outer tiles permute the same grid, so C still takes exactly
            // kb accumulation passes over every element.
            let c_expect = (kb * m * n) as u64;
            if stats.c_elems_updated != c_expect {
                return Err(err(format!(
                    "p={p}: C elements updated {} != kb*m*n = {c_expect}",
                    stats.c_elems_updated
                )));
            }
            measured.push((stats.a_elems_loaded, stats.b_elems_loaded, stats.c_elems_updated));
        }
        if measured.windows(2).any(|w| w[0] != w[1]) {
            return Err(err(format!("counters changed with p at a fixed block grid: {measured:?}")));
        }
        let (ea, eb, ec) = measured[0];
        report.lines.push(format!(
            "{label}: measured == analytic, element-exact, p-invariant over p={CORE_COUNTS:?}: \
             A {ea}, B {eb} (ring; adjacency bound {}), C-updates {ec} (one-level total floor {})",
            adj.b_loads,
            one_level.total()
        ));
    }
    Ok(())
}

/// Layer 2: the closed forms of `model.rs` under the paper's scaling.
fn check_closed_forms(report: &mut ConformanceReport) -> Result<(), String> {
    let cake_bw: Vec<f64> = CORE_COUNTS
        .iter()
        .map(|&p| {
            // Paper scaling: mc, kc, alpha fixed; block grows with p
            // (bm = 8p, nc = alpha * p * mc with alpha = 1).
            CakeModel::new(CbBlockShape::fixed(p, 8, 8, 8 * p), 8, 8, 4, 3.0).ext_bw_gbs()
        })
        .collect();
    for (i, &bw) in cake_bw.iter().enumerate() {
        let rel = (bw - cake_bw[0]).abs() / cake_bw[0];
        if rel > 1e-9 {
            return Err(fail(
                "model",
                format!(
                    "Eq. 4 must be p-invariant: p={} gives {bw} GB/s vs p=1's {} (rel {rel:e})",
                    CORE_COUNTS[i], cake_bw[0]
                ),
            ));
        }
    }

    let goto_bw: Vec<f64> = CORE_COUNTS
        .iter()
        .map(|&p| GotoModel::new(GotoParams::fixed(p, 8, 8, 64), 8, 8, 4, 3.0).ext_bw_gbs())
        .collect();
    if goto_bw.windows(2).any(|w| w[1] <= w[0]) {
        return Err(fail("model", format!("GOTO bandwidth must grow with p: {goto_bw:?}")));
    }
    let goto_growth = goto_bw[3] / goto_bw[0];
    if goto_growth < 4.0 {
        return Err(fail(
            "model",
            format!("GOTO p=8 should need >= 4x the p=1 bandwidth, got {goto_growth:.2}x"),
        ));
    }

    // Eq. 5: local memory superlinear in p (the price of Eq. 4's flatness).
    for &p in &CORE_COUNTS[..3] {
        let mem = |pp: usize| {
            CakeModel::new(CbBlockShape::fixed(pp, 8, 8, 8 * pp), 8, 8, 4, 3.0).local_mem_elems()
        };
        if mem(2 * p) <= 2.0 * mem(p) {
            return Err(fail(
                "model",
                format!("Eq. 5 must be superlinear: mem({}) <= 2*mem({p})", 2 * p),
            ));
        }
    }

    // Section 4.3: the derived shape honors its own LRU sizing rule.
    let derived = CbBlockShape::derive(8, 1.0, 256 * 1024, 20 * 1024 * 1024, 4, 6, 16);
    if !derived.fits_llc_lru(20 * 1024 * 1024, 4) {
        return Err(fail("model", format!("derived shape {derived} violates C + 2(A+B) <= S")));
    }

    report.lines.push(format!(
        "Eq. 4 flat at {:.2} GB/s over p={CORE_COUNTS:?}; GOTO grows {:.2}x by p=8; \
         Eq. 5 superlinear; derived shape fits the Section 4.3 LRU rule",
        cake_bw[0], goto_growth
    ));
    Ok(())
}

/// A machine with effectively infinite DRAM and internal bandwidth, so the
/// simulator's average-bandwidth output reflects pure *demand* rather than
/// a saturated link.
fn uncapped_cpu() -> CpuConfig {
    let mut cpu = CpuConfig::intel_i9_10900k();
    cpu.name = "uncapped".into();
    cpu.dram_bw_gbs = 1.0e6;
    cpu.dram_efficiency = 1.0;
    cpu.internal_bw = InternalBwCurve::Linear { gbs_per_core: 1.0e6 };
    cpu
}

/// Layer 3: the packet simulator agrees with the analytic tally exactly and
/// reproduces flat-vs-growing bandwidth from timing alone.
fn check_simulator(report: &mut ConformanceReport) -> Result<(), String> {
    // Exact replay: same fixed-grid problem as layer 1, real Intel part
    // (write_allocate = false, so a completed C panel costs one write).
    let cpu = CpuConfig::intel_i9_10900k();
    let wa: u64 = if cpu.write_allocate { 2 } else { 1 };
    let (m, k, n) = (48usize, 24usize, 48usize);
    let (bm, bk, bn) = (16usize, 8usize, 16usize);
    let params = TrafficParams { m, k, n, bm, bk, bn };
    let schedule = Schedule::k_first(params.grid(), m, n);
    let adj = dram_traffic(schedule, params, CResidency::HoldInLlc, 1);
    let analytic_bytes = (adj.a_loads + adj.b_loads + adj.c_final_writes * wa) * 4;
    for &p in &CORE_COUNTS {
        let sp = SimParams::new(m, k, n, p);
        let rep = simulate_cake_with_shape(&cpu, &sp, &CbBlockShape::fixed(p, bm / p, bk, bn));
        if rep.dram_bytes != analytic_bytes {
            return Err(fail(
                "sim",
                format!(
                    "p={p}: simulator DRAM bytes {} != analytic {analytic_bytes}",
                    rep.dram_bytes
                ),
            ));
        }
    }

    // Demand curves on the uncapped machine: CAKE flat under paper scaling,
    // GOTO growing at fixed blocking.
    let open = uncapped_cpu();
    let (gm, gk, gn) = (384usize, 384usize, 384usize);
    let mut cake_bw = Vec::new();
    let mut goto_bw = Vec::new();
    for &p in &CORE_COUNTS {
        let sp = SimParams::new(gm, gk, gn, p);
        cake_bw.push(
            simulate_cake_with_shape(&open, &sp, &CbBlockShape::fixed(p, 8, 8, 8 * p))
                .avg_dram_bw_gbs,
        );
        goto_bw.push(
            simulate_goto_with_params(&open, &sp, &GotoParams::fixed(p, 64, 64, 512))
                .avg_dram_bw_gbs,
        );
    }
    let cake_ratio = cake_bw[3] / cake_bw[0];
    let goto_ratio = goto_bw[3] / goto_bw[0];
    if cake_ratio > 1.3 {
        return Err(fail(
            "sim",
            format!("CAKE simulated bandwidth should stay flat in p, grew {cake_ratio:.2}x: {cake_bw:?}"),
        ));
    }
    if goto_ratio < 3.0 {
        return Err(fail(
            "sim",
            format!("GOTO simulated bandwidth should grow with p, only {goto_ratio:.2}x: {goto_bw:?}"),
        ));
    }

    report.lines.push(format!(
        "simulator DRAM bytes == analytic ({analytic_bytes} B, p-invariant); \
         uncapped-demand bandwidth p8/p1: CAKE {cake_ratio:.2}x (flat), GOTO {goto_ratio:.2}x"
    ));
    Ok(())
}

/// Run all conformance layers.
pub fn run() -> Result<ConformanceReport, String> {
    let mut report = ConformanceReport::default();
    check_measured_traffic(&mut report)?;
    check_closed_forms(&mut report)?;
    check_simulator(&mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_conformance_suite_passes() {
        let rep = run().expect("conformance oracle must pass");
        assert_eq!(rep.lines.len(), 4);
    }

    #[test]
    fn measured_layer_is_element_exact() {
        let mut rep = ConformanceReport::default();
        check_measured_traffic(&mut rep).unwrap();
        assert!(rep.lines[0].contains("element-exact"));
    }

    #[test]
    fn uncapped_cpu_never_saturates() {
        let cpu = uncapped_cpu();
        assert!(cpu.dram_bw_gbs >= 1.0e6);
    }
}
