//! Multicore p-sweep: strong-scaling measurement over a fixed block grid.
//!
//! The paper's Figure 13 argument is that CAKE's computation-shaped blocks
//! let throughput scale with cores while DRAM traffic stays constant. This
//! module measures both halves on the real executor: sweep `p` over the
//! same problem, record GFLOP/s, speedup over `p = 1`, and scaling
//! efficiency (`speedup / p`), and capture the measured pack-element
//! counters — which must be **identical across `p`** (the work moved per
//! element is a property of the block schedule, not of how many workers
//! split it).
//!
//! To make the counter comparison exact the sweep holds the *block grid*
//! fixed: `CbBlockShape::fixed(p, bm / p, bk, bn)` keeps `p * mc = bm`
//! constant, so every `p` runs the identical K-first snake over identical
//! blocks and only the intra-block partition changes. `bm` is chosen
//! divisible by every swept `p` (8 covers the default `{1, 2, 4, 8}`).
//!
//! Used by `cakectl gemm --threads`, whose `--check-counters` mode turns
//! [`counters_invariant`] into a CI gate (`ci.sh --scale-smoke`).

use cake_core::executor::execute_with_stats_in;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::topology;
use cake_core::workspace::GemmWorkspace;
use cake_matrix::{init, Matrix};

use crate::best_of;

/// One `p` of a strong-scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Requested worker count (drives the block shape and the model).
    pub p: usize,
    /// Workers actually spawned after the topology clamp: `min(p, cores)`.
    /// Honest-reporting field — a speedup of 1.0 at `effective_p = 1` is a
    /// clamped run, not a scaling failure.
    pub effective_p: usize,
    /// Barrier mode the executor selected (`"spin"` or `"park"`).
    pub barrier_mode: &'static str,
    /// Best-of-iters throughput.
    pub gflops: f64,
    /// `gflops / gflops(p = 1)`; 1.0 at the baseline.
    pub speedup: f64,
    /// `speedup / p` — 1.0 is perfect strong scaling.
    pub efficiency: f64,
    /// A elements packed.
    pub a_elems: u64,
    /// B elements packed.
    pub b_elems: u64,
    /// C elements updated.
    pub c_elems: u64,
    /// Slowest single worker's total barrier wait.
    pub barrier_wait_ns_max: u64,
    /// Per-worker compute imbalance (`max * p / sum`; 1.0 = perfectly even).
    pub imbalance: f64,
    /// Microkernel that produced this point (from [`ExecStats::kernel`];
    /// all points of one sweep share it).
    ///
    /// [`ExecStats::kernel`]: cake_core::executor::ExecStats::kernel
    pub kernel: &'static str,
}

/// Block dimensions for a grid-invariant sweep: `bm` is a multiple of
/// `p_lcm` (so `bm / p` is exact for every swept `p`) and every dimension
/// is clamped to the problem so tiny shapes still sweep.
pub fn fixed_grid_dims(m: usize, k: usize, n: usize, p_lcm: usize) -> (usize, usize, usize) {
    let bm = ((m.min(96) / p_lcm).max(1)) * p_lcm;
    let bk = k.clamp(1, 96);
    let bn = n.clamp(1, 192);
    (bm, bk, bn)
}

/// Sweep `threads` over one `m x k x n` f32 GEMM, best-of-`iters` per
/// point. `pin` requests core affinity for each pool (best-effort).
///
/// # Panics
/// Panics if `threads` is empty or any entry does not divide the chosen
/// `bm` (use counts from `{1, 2, 4, 8}`, whose lcm 8 is the default).
pub fn sweep_shape(
    m: usize,
    k: usize,
    n: usize,
    threads: &[usize],
    iters: usize,
    pin: bool,
) -> Vec<ScalePoint> {
    assert!(!threads.is_empty(), "sweep needs at least one thread count");
    let p_lcm = threads.iter().fold(1, |l, &p| lcm(l, p.max(1)));
    let (bm, bk, bn) = fixed_grid_dims(m, k, n, p_lcm);
    let iters = iters.max(1);

    let a = init::random::<f32>(m, k, 1);
    let b = init::random::<f32>(k, n, 2);
    let ukr = cake_kernels::best_kernel::<f32>();

    let mut points = Vec::with_capacity(threads.len());
    let mut base_gflops = None;
    for &p in threads {
        assert!(p > 0 && bm % p == 0, "p = {p} must divide bm = {bm}");
        let shape = CbBlockShape::fixed(p, bm / p, bk, bn);
        // The shape (and thus the block grid and the element counters)
        // follows the *requested* p; the pool is clamped to the host so an
        // oversubscribed sweep measures real parallelism, not timeslicing.
        let pool = ThreadPool::with_affinity(topology::effective_p(p), pin);
        let mut ws = GemmWorkspace::<f32>::new();
        let mut c = Matrix::<f32>::zeros(m, n);
        // Warmup sizes the workspace; timed iters then run allocation-free.
        let mut stats =
            execute_with_stats_in(&a.view(), &b.view(), &mut c.view_mut(), &shape, &ukr, &pool, &mut ws);
        let best = best_of(iters, || {
            stats = execute_with_stats_in(
                &a.view(),
                &b.view(),
                &mut c.view_mut(),
                &shape,
                &ukr,
                &pool,
                &mut ws,
            );
        });
        let gflops = 2.0 * m as f64 * k as f64 * n as f64 / best / 1e9;
        let base = *base_gflops.get_or_insert(gflops);
        let speedup = gflops / base;
        points.push(ScalePoint {
            p,
            effective_p: stats.workers,
            barrier_mode: stats.barrier_mode.as_str(),
            gflops,
            speedup,
            efficiency: speedup / p as f64,
            a_elems: stats.a_elems_loaded,
            b_elems: stats.b_elems_loaded,
            c_elems: stats.c_elems_updated,
            barrier_wait_ns_max: stats.barrier_wait_ns_max,
            imbalance: stats.compute_imbalance(),
            kernel: stats.kernel,
        });
    }
    points
}

/// The CB-block bandwidth claim as a checkable predicate: every swept `p`
/// must have packed/updated exactly the same element counts. `Err` carries
/// a human-readable diff.
pub fn counters_invariant(points: &[ScalePoint]) -> Result<(), String> {
    let Some(first) = points.first() else {
        return Ok(());
    };
    for pt in &points[1..] {
        if (pt.a_elems, pt.b_elems, pt.c_elems) != (first.a_elems, first.b_elems, first.c_elems) {
            return Err(format!(
                "pack counters diverge: p={} moved (A {}, B {}, C {}) but p={} moved \
                 (A {}, B {}, C {})",
                first.p,
                first.a_elems,
                first.b_elems,
                first.c_elems,
                pt.p,
                pt.a_elems,
                pt.b_elems,
                pt.c_elems
            ));
        }
    }
    Ok(())
}

/// Same-host sanity gate for a sweep: whenever the host has comfortable
/// headroom (`cores >= 2 * p`) a multicore point must actually beat the
/// single-core baseline (`speedup > 1.0`). Points the topology clamp cut
/// down (`effective_p < p`) and hosts without headroom are exempt — a
/// 1-core CI box records `effective_p = 1` everywhere and passes
/// vacuously, while a real 16-core host cannot ship a p=2 slowdown.
pub fn scaling_sane(points: &[ScalePoint], cores: usize) -> Result<(), String> {
    for pt in points {
        if pt.p > 1 && pt.effective_p == pt.p && cores >= 2 * pt.p && pt.speedup <= 1.0 {
            return Err(format!(
                "p={} ran at {:.2}x on a {cores}-core host (effective_p={}, barrier={}) — \
                 multicore must win when cores >= 2p",
                pt.p, pt.speedup, pt.effective_p, pt.barrier_mode
            ));
        }
    }
    Ok(())
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 { a } else { gcd(b, a % b) }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_grid_dims_divisible_and_clamped() {
        let (bm, bk, bn) = fixed_grid_dims(512, 512, 512, 8);
        assert_eq!((bm % 8, bm <= 96, bk <= 96, bn <= 192), (0, true, true, true));
        // Tiny problems still produce a nonzero grid.
        let (bm, bk, bn) = fixed_grid_dims(5, 3, 2, 8);
        assert!(bm >= 8 && bk == 3 && bn == 2, "got {bm} {bk} {bn}");
    }

    #[test]
    fn sweep_reports_baseline_speedup_of_one_and_invariant_counters() {
        let points = sweep_shape(64, 48, 64, &[1, 2, 4], 1, false);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].p, 1);
        assert!((points[0].speedup - 1.0).abs() < 1e-12);
        assert!((points[0].efficiency - 1.0).abs() < 1e-12);
        for pt in &points {
            assert!(pt.gflops > 0.0);
            assert!(pt.imbalance >= 1.0, "imbalance {} below floor", pt.imbalance);
        }
        // The bandwidth claim: identical element movement at every p.
        assert!(points[0].a_elems > 0, "counters are always on");
        counters_invariant(&points).expect("fixed-grid sweep must move identical elements");
    }

    #[test]
    fn divergent_counters_are_reported() {
        let mut points = sweep_shape(32, 32, 32, &[1, 2], 1, false);
        points[1].b_elems += 1;
        let err = counters_invariant(&points).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
    }

    #[test]
    fn sweep_records_the_topology_clamp() {
        let cores = cake_core::topology::available_cores();
        let points = sweep_shape(32, 32, 32, &[1, 2, 8], 1, false);
        for pt in &points {
            assert_eq!(pt.effective_p, pt.p.min(cores), "p={}", pt.p);
            // api-independent pools: park exactly when oversubscribed.
            let expect = if pt.effective_p > cores { "park" } else { "spin" };
            assert_eq!(pt.barrier_mode, expect, "p={}", pt.p);
        }
    }

    fn gate_point(p: usize, effective_p: usize, speedup: f64) -> ScalePoint {
        ScalePoint {
            p,
            effective_p,
            barrier_mode: "spin",
            gflops: speedup,
            speedup,
            efficiency: speedup / p as f64,
            a_elems: 0,
            b_elems: 0,
            c_elems: 0,
            barrier_wait_ns_max: 0,
            imbalance: 1.0,
            kernel: "",
        }
    }

    #[test]
    fn sanity_gate_requires_speedup_only_with_headroom() {
        let slow = [gate_point(1, 1, 1.0), gate_point(2, 2, 0.8)];
        // Plenty of cores: a p=2 slowdown is a failure.
        let err = scaling_sane(&slow, 16).unwrap_err();
        assert!(err.contains("p=2"), "{err}");
        // No headroom (cores < 2p): exempt.
        scaling_sane(&slow, 3).expect("no-headroom host must pass");
        // Clamped points are exempt regardless of host size.
        let clamped = [gate_point(1, 1, 1.0), gate_point(8, 2, 0.5)];
        scaling_sane(&clamped, 64).expect("clamped point must be exempt");
        // A winning sweep passes everywhere.
        let good = [gate_point(1, 1, 1.0), gate_point(2, 2, 1.7)];
        scaling_sane(&good, 16).expect("speedup > 1 must pass");
    }
}
