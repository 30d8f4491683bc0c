//! Model-conformance oracle: measured traffic == analytic traffic == paper.
//!
//! Three layers, each tying two independently implemented layers of the
//! repo together across `p ∈ {1, 2, 4, 8}`:
//!
//! 1. **Executor vs `traffic.rs`, element-exact.** The pipelined
//!    executor's measured element counters are reconciled with
//!    [`cake_core::traffic::dram_traffic`] (A and final C under the
//!    adjacency rule, B through the literal panel-ring replay) as `u64`
//!    equalities — no tolerance — on the one-level schedule and again with
//!    2x2 outer tiles, on two grids (the second with a partial last
//!    k-block), and on a third whose B also runs read in place (a
//!    [`TiledB`]: the AMX kernel loads its tiles where they are, every
//!    other kernel packs it). Every kernel tier of every dtype (f32, f64,
//!    bf16, int8) runs: the counters tally live elements, a property of the block
//!    schedule, never of a kernel's register tile or of the K padding its
//!    packed layout adds (Section 3). The block *grid* is held fixed
//!    (`bm = p·mc` constant by shrinking `mc` as `p` grows), so the
//!    schedule and therefore every counter must be identical across `p`:
//!    measured CAKE DRAM traffic is `p`-invariant.
//! 2. **`model.rs` closed forms.** Under the paper's scaling (`mc`, `kc`,
//!    `alpha` fixed; the block grows with `p`), Eq. 4 external bandwidth is
//!    `p`-invariant while GOTO's grows ~linearly; Eq. 5 local memory is
//!    superlinear in `p`; the derived shape respects the Section 4.3 LRU
//!    rule.
//! 3. **`cake-sim` replay.** The event simulator's `dram_bytes` equals
//!    the analytic tally exactly on layer 1's grid at every `p` and on
//!    three more small grids (its per-block accounting is the same
//!    adjacency rule), and its *average bandwidth*
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
use cake_goto::naive::naive_gemm_views_acc;
use cake_goto::params::GotoParams;
use cake_kernels::pack::{PackB, TiledB};
use cake_kernels::{available_tiers, tier_kernel};
use cake_matrix::compare::{approx_eq, gemm_tolerance};
use cake_matrix::{Bf16, Matrix};
use cake_sim::config::InternalBwCurve;
use cake_sim::engine::{simulate_cake_with_shape, simulate_goto_with_params};
use cake_sim::{CpuConfig, SimParams};

use crate::RandomOperand;

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

/// Layer 1's problems as `(m, k, n, bm, bk, bn)`: three whole k-blocks,
/// then three k-blocks of which the last is partial (200 = 72 + 72 + 56),
/// deep enough that the AMX tile layout pads every block, then three
/// whole 64-deep k-blocks over two 32-column n-blocks, whose B also runs
/// as a [`TiledB`] (48 rows leave the AMX kernel's second row tile
/// partial).
const MEASURED_GRIDS: [(usize, usize, usize, usize, usize, usize); 3] =
    [(48, 24, 48, 16, 8, 16), (48, 200, 48, 16, 72, 16), (48, 192, 64, 16, 64, 32)];

/// `b` (`K x N`, `K` a multiple of 64) k-interleaved, `[K/4][N][4]`, as a
/// [`TiledB`] reads it: one segment of `N` columns, tile rows `4N` apart,
/// k-step `s` from row `16s`. `None` when `b` does not have that shape.
fn interleaved<T: cake_matrix::Element>(b: &Matrix<T>) -> Option<(Vec<T>, Vec<usize>)> {
    let (k, n) = (b.rows(), b.cols());
    if k % 64 != 0 || n % 32 != 0 {
        return None;
    }
    let mut src = vec![T::ZERO; k * n];
    for kk in 0..k {
        for j in 0..n {
            src[kk / 4 * 4 * n + j * 4 + kk % 4] = b.get(kk, j);
        }
    }
    Some((src, (0..k / 64).map(|s| s * 16 * 4 * n).collect()))
}

/// One executor call on a fresh workspace.
fn execute<T: RandomOperand>(
    a: &Matrix<T>,
    b: &impl PackB<T>,
    c: &mut Matrix<T::Acc>,
    shape: &CbBlockShape,
    ukr: &cake_kernels::Ukr<T>,
    pool: &ThreadPool,
) -> cake_core::executor::ExecStats {
    execute_with_stats_in(a, b, &mut c.view_mut(), shape, ukr, pool, &mut GemmWorkspace::new())
}

/// Run `T`'s GEMM on every kernel tier the host has, at every `p` of
/// [`CORE_COUNTS`] under the `ko x no` outer tiles, and hold each run's
/// `(A, B, C)` element counters to `want` and its C to the naive
/// reference. Each kernel that ran is added to `kernels`.
fn measure_dtype<T: RandomOperand>(
    params: TrafficParams,
    (ko, no): (usize, usize),
    want: (u64, u64, u64),
    pools: &[ThreadPool],
    kernels: &mut Vec<&'static str>,
) -> Result<(), String> {
    let TrafficParams { m, k, n, bm, bk, bn } = params;
    let a = T::gen(m, k, 11);
    let b = T::gen(k, n, 12);
    let mut expected = Matrix::<T::Acc>::zeros(m, n);
    naive_gemm_views_acc(&a.view(), &b.view(), &mut expected.view_mut());
    let tol = gemm_tolerance::<T::Acc>(k);
    let tiled_src = interleaved(&b);
    let tiled = tiled_src.as_ref().and_then(|(src, steps)| TiledB::new(src, n, (n, 4 * n), 4 * n, steps));
    for ukr in available_tiers().into_iter().filter_map(tier_kernel::<T>) {
        for (&p, pool) in CORE_COUNTS.iter().zip(pools) {
            // Same bm = p * mc for every p: identical grid, schedule, traffic.
            let shape = CbBlockShape::fixed(p, bm / p, bk, bn).with_outer_tiles(ko, no);
            let mut c = Matrix::<T::Acc>::zeros(m, n);
            let plain = execute(&a, &b, &mut c, &shape, &ukr, pool);
            let mut runs = vec![(c, plain, "")];
            if let Some(tiled) = &tiled {
                let mut c = Matrix::<T::Acc>::zeros(m, n);
                let stats = execute(&a, tiled, &mut c, &shape, &ukr, pool);
                runs.push((c, stats, " with B read in place"));
            }
            for (c, stats, kind) in runs {
                let at = format!("{} on {} at p={p}{kind}", T::NAME, ukr.name());
                if !approx_eq(&c, &expected, tol) {
                    return Err(format!("{at}: executor result diverged from naive"));
                }
                let got = (stats.a_elems_loaded, stats.b_elems_loaded, stats.c_elems_updated);
                if got != want {
                    return Err(format!(
                        "{at}: measured (A, B, C) elements {got:?} != traffic walk {want:?} \
                         (A by adjacency, B by the panel-ring replay, C = kb*m*n)"
                    ));
                }
            }
        }
        if !kernels.contains(&ukr.name()) {
            kernels.push(ukr.name());
        }
    }
    Ok(())
}

/// Layer 1: measured executor counters vs the traffic walk, element-exact,
/// on every kernel tier of every dtype and identical across `p` at a fixed
/// block grid. Runs each grid of [`MEASURED_GRIDS`] once on the one-level
/// schedule and once with 2x2 outer (MOMMS-style) tiles, which permute
/// the blocks and pay partial-C spill round trips on K-tile changes: the
/// counters differ between the two, but executor and walk must agree as
/// `u64` equalities at every `p` in both.
fn check_measured_traffic(report: &mut ConformanceReport) -> Result<(), String> {
    let pools: Vec<ThreadPool> = CORE_COUNTS.iter().map(|&p| ThreadPool::new(p)).collect();
    let mut kernels = Vec::new();
    for (gi, (m, k, n, bm, bk, bn)) in MEASURED_GRIDS.into_iter().enumerate() {
        let params = TrafficParams { m, k, n, bm, bk, bn };
        let kb = params.grid().kb;
        let schedule = Schedule::k_first(params.grid(), m, n);
        let one_level = dram_traffic(schedule, params, CResidency::HoldInLlc, 1);

        for (ko, no) in [(0usize, 0usize), (2, 2)] {
            let tiling = match (ko, no) {
                (0, 0) => "one-level".to_string(),
                _ => format!("two-level {ko}x{no}"),
            };
            let label = format!("{m}x{k}x{n} in {bm}x{bk}x{bn} blocks, {tiling}");
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
            // On the first grid outer tiling can only add traffic (K-tile
            // departures spill partial C); on the deeper one the tiled
            // order saves more A and B loads than its spills cost. C
            // completes once on both.
            let adds = gi > 0 || adj.total() >= one_level.total();
            if !adds || adj.c_final_writes != (m * n) as u64 {
                return Err(err(format!(
                    "outer tiling can only add traffic on this grid and C completes once: \
                     total {} < one-level {}, or final writes {} != m*n",
                    adj.total(),
                    one_level.total(),
                    adj.c_final_writes
                )));
            }

            // Outer tiles permute the same grid, so C still takes exactly
            // kb accumulation passes over every element.
            let want = (adj.a_loads, ring.b_loads, (kb * m * n) as u64);
            let tiles = (ko, no);
            measure_dtype::<f32>(params, tiles, want, &pools, &mut kernels).map_err(err)?;
            measure_dtype::<f64>(params, tiles, want, &pools, &mut kernels).map_err(err)?;
            measure_dtype::<Bf16>(params, tiles, want, &pools, &mut kernels).map_err(err)?;
            measure_dtype::<i8>(params, tiles, want, &pools, &mut kernels).map_err(err)?;
            let in_place = if k % 64 == 0 && n % 32 == 0 { ", B also read in place" } else { "" };
            report.lines.push(format!(
                "{label}: measured == analytic, element-exact, p-invariant over \
                 p={CORE_COUNTS:?} on every kernel{in_place}: A {}, B {} (ring; adjacency bound {}), \
                 C-updates {} (walk total {}, one-level {})",
                want.0,
                want.1,
                adj.b_loads,
                want.2,
                adj.total(),
                one_level.total()
            ));
        }
    }
    report.lines.push(format!(
        "measured layer ran {} kernels of f32, f64, bf16 and int8: {}",
        kernels.len(),
        kernels.join(", ")
    ));
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

/// Layer 3: the event simulator agrees with the analytic tally exactly and
/// reproduces flat-vs-growing bandwidth from timing alone.
fn check_simulator(report: &mut ConformanceReport) -> Result<(), String> {
    // Exact replay on the real Intel part (write_allocate = false, so a
    // completed C panel costs one write): layer 1's grid at every p, then
    // three more grids, one with a ragged N edge, as (p, m, k, n, bm, bk, bn).
    let cpu = CpuConfig::intel_i9_10900k();
    let wa: u64 = if cpu.write_allocate { 2 } else { 1 };
    let layer1 = CORE_COUNTS.iter().map(|&p| (p, 48, 24, 48, 16, 8, 16));
    let more = [(2, 32, 24, 40, 8, 4, 8), (2, 20, 16, 28, 4, 2, 8), (4, 48, 27, 72, 12, 3, 24)];
    let mut replayed = Vec::new();
    for (p, m, k, n, bm, bk, bn) in layer1.chain(more) {
        let params = TrafficParams { m, k, n, bm, bk, bn };
        let schedule = Schedule::k_first(params.grid(), m, n);
        let adj = dram_traffic(schedule, params, CResidency::HoldInLlc, 1);
        let analytic_bytes = (adj.a_loads + adj.b_loads + adj.c_final_writes * wa) * 4;
        let sp = SimParams::new(m, k, n, p);
        let rep = simulate_cake_with_shape(&cpu, &sp, &CbBlockShape::fixed(p, bm / p, bk, bn));
        if rep.dram_bytes != analytic_bytes {
            return Err(fail(
                "sim",
                format!(
                    "p={p} {m}x{k}x{n} in {bm}x{bk}x{bn} blocks: simulator DRAM bytes {} != \
                     analytic {analytic_bytes}",
                    rep.dram_bytes
                ),
            ));
        }
        replayed.push(analytic_bytes);
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
        "simulator DRAM bytes == analytic on {} replays ({} B on layer 1's grid, \
         p-invariant); uncapped-demand bandwidth p8/p1: CAKE {cake_ratio:.2}x (flat), \
         GOTO {goto_ratio:.2}x",
        replayed.len(),
        replayed[0]
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
        assert_eq!(rep.lines.len(), 9);
        assert!(rep.lines.iter().any(|l| l.contains("B also read in place")));
    }

    #[test]
    fn measured_layer_is_element_exact() {
        let mut rep = ConformanceReport::default();
        check_measured_traffic(&mut rep).unwrap();
        assert!(rep.lines[0].contains("element-exact"));
    }

    #[test]
    fn measured_layer_runs_every_kernel_of_every_dtype() {
        fn count<T: RandomOperand>() -> usize {
            available_tiers().into_iter().filter_map(tier_kernel::<T>).count()
        }
        let mut rep = ConformanceReport::default();
        check_measured_traffic(&mut rep).unwrap();
        let kernels = count::<f32>() + count::<f64>() + count::<Bf16>() + count::<i8>();
        let last = rep.lines.last().unwrap();
        assert!(last.contains(&format!("ran {kernels} kernels")), "{last}");
    }

    #[test]
    fn uncapped_cpu_never_saturates() {
        let cpu = uncapped_cpu();
        assert!(cpu.dram_bw_gbs >= 1.0e6);
    }
}
