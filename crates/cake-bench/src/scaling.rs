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
//! Used by `bench_snapshot` (the `scaling` section of `BENCH_gemm.json`)
//! and by `cakectl gemm --threads`, whose `--check-counters` mode turns
//! [`counters_invariant`] into a CI gate (`ci.sh --scale-smoke`).

use std::time::Instant;

use cake_core::executor::execute_with_stats_in;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::topology;
use cake_core::workspace::GemmWorkspace;
use cake_matrix::{init, Element, Matrix};

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
    /// A elements packed (0 unless `traffic-counters` is enabled).
    pub a_elems: u64,
    /// B elements packed.
    pub b_elems: u64,
    /// C elements updated.
    pub c_elems: u64,
    /// Slowest single worker's total barrier wait.
    pub barrier_wait_ns_max: u64,
    /// Barrier wait summed over workers.
    pub barrier_wait_ns_sum: u64,
    /// Per-worker compute imbalance (`max * p / sum`; 1.0 = perfectly even).
    pub imbalance: f64,
    /// Microkernel that produced this point (from [`ExecStats::kernel`];
    /// all points of one sweep share it — recorded so `BENCH_gemm.json`
    /// attributes every number to its dispatch tier).
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
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            stats = execute_with_stats_in(
                &a.view(),
                &b.view(),
                &mut c.view_mut(),
                &shape,
                &ukr,
                &pool,
                &mut ws,
            );
            best = best.min(t0.elapsed().as_secs_f64());
        }
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
            barrier_wait_ns_sum: stats.barrier_wait_ns,
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

/// One kernel tier of a tier sweep (`cakectl gemm --kernel-smoke`).
#[derive(Debug, Clone, Copy)]
pub struct KernelPoint {
    /// The dispatch tier this point ran on.
    pub tier: cake_kernels::KernelTier,
    /// The tier's kernel name as reported by the executor.
    pub kernel: &'static str,
    /// Register-tile shape of that kernel.
    pub mr: usize,
    /// Register-tile shape of that kernel.
    pub nr: usize,
    /// Best-of-iters throughput.
    pub gflops: f64,
    /// A elements packed (0 unless `traffic-counters` is enabled).
    pub a_elems: u64,
    /// B elements packed.
    pub b_elems: u64,
    /// C elements updated.
    pub c_elems: u64,
    /// FNV-1a hash of C's bytes after the call, for dtypes every tier
    /// computes exactly (int8); `None` for float dtypes, whose tiers sum
    /// in different orders.
    pub c_hash: Option<u64>,
}

/// Run one single-threaded f32 GEMM per kernel tier the host supports
/// that has an f32 kernel, on one fixed block grid. The traffic counters
/// tally live elements packed from the source views — a property of the
/// block schedule, not of the kernel's register tile or packed layout — so
/// they must be identical across tiers ([`kernel_counters_invariant`], the
/// `ci.sh --kernel-smoke` gate).
pub fn sweep_kernels(m: usize, k: usize, n: usize, iters: usize) -> Vec<KernelPoint> {
    sweep_tiers(m, k, n, iters, init::random::<f32>)
}

/// [`sweep_kernels`] for int8, over every int8 tier the host has (AMX,
/// VNNI, AVX2, portable): besides the counters, C must come out
/// bit-identical on every tier, since i32 accumulation is exact.
pub fn sweep_kernels_i8(m: usize, k: usize, n: usize, iters: usize) -> Vec<KernelPoint> {
    sweep_tiers(m, k, n, iters, init::random_i8)
}

fn sweep_tiers<T: cake_kernels::select::KernelSelect>(
    m: usize,
    k: usize,
    n: usize,
    iters: usize,
    gen: impl Fn(usize, usize, u64) -> Matrix<T>,
) -> Vec<KernelPoint> {
    // i32 accumulation is exact: every int8 tier must agree bit for bit.
    let exact = T::NAME == "int8";
    let (bm, bk, bn) = fixed_grid_dims(m, k, n, 1);
    let shape = CbBlockShape::fixed(1, bm, bk, bn);
    let iters = iters.max(1);
    let a = gen(m, k, 1);
    let b = gen(k, n, 2);

    let mut points = Vec::new();
    for tier in cake_kernels::available_tiers() {
        let Some(ukr) = cake_kernels::tier_kernel::<T>(tier) else {
            continue;
        };
        let pool = ThreadPool::with_affinity(1, false);
        let mut ws = GemmWorkspace::<T>::new();
        let mut c = Matrix::<T::Acc>::zeros(m, n);
        let mut stats =
            execute_with_stats_in(&a.view(), &b.view(), &mut c.view_mut(), &shape, &ukr, &pool, &mut ws);
        let c_hash = exact.then(|| fnv1a(c.as_slice().iter().flat_map(|x| x.to_f64().to_bits().to_le_bytes())));
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            stats = execute_with_stats_in(
                &a.view(),
                &b.view(),
                &mut c.view_mut(),
                &shape,
                &ukr,
                &pool,
                &mut ws,
            );
            best = best.min(t0.elapsed().as_secs_f64());
        }
        points.push(KernelPoint {
            tier,
            kernel: stats.kernel,
            mr: ukr.mr(),
            nr: ukr.nr(),
            gflops: 2.0 * m as f64 * k as f64 * n as f64 / best / 1e9,
            a_elems: stats.a_elems_loaded,
            b_elems: stats.b_elems_loaded,
            c_elems: stats.c_elems_updated,
            c_hash,
        });
    }
    points
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The tier-invariance gate: on a fixed block grid every kernel tier must
/// have packed/updated exactly the same element counts — wider register
/// tiles and other packed layouts change how a block is carved, never how
/// many live elements move — and, where the dtype is exact, produced the
/// same C bit for bit.
pub fn kernel_counters_invariant(points: &[KernelPoint]) -> Result<(), String> {
    let Some(first) = points.first() else {
        return Ok(());
    };
    for pt in &points[1..] {
        if (pt.a_elems, pt.b_elems, pt.c_elems) != (first.a_elems, first.b_elems, first.c_elems) {
            return Err(format!(
                "tier counters diverge: {} moved (A {}, B {}, C {}) but {} moved \
                 (A {}, B {}, C {})",
                first.kernel,
                first.a_elems,
                first.b_elems,
                first.c_elems,
                pt.kernel,
                pt.a_elems,
                pt.b_elems,
                pt.c_elems
            ));
        }
        if pt.c_hash != first.c_hash {
            return Err(format!(
                "tier results diverge: {} and {} computed different C",
                first.kernel, pt.kernel
            ));
        }
    }
    Ok(())
}

/// One dtype of a narrow-dtype sweep (`cakectl gemm --dtype-smoke`, the
/// `dtypes` section of `BENCH_gemm.json`).
#[derive(Debug, Clone, Copy)]
pub struct DtypePoint {
    /// Operand dtype name (`"f32"`, `"f64"`, `"bf16"`, `"int8"`).
    pub dtype: &'static str,
    /// Dispatched microkernel name as reported by the executor.
    pub kernel: &'static str,
    /// Best-of-iters throughput in GOP/s (`2mkn` ops regardless of dtype,
    /// so the column directly shows the narrow-dtype speedup).
    pub gops: f64,
    /// Workspace allocations summed over the timed (post-warmup) iters.
    /// Must be 0: the zero-alloc warm path is dtype-independent.
    pub allocs_after_warmup: u64,
    /// A elements packed (0 unless `traffic-counters` is enabled).
    pub a_elems: u64,
    /// B elements packed.
    pub b_elems: u64,
    /// C elements updated.
    pub c_elems: u64,
    /// `size_of` one operand element.
    pub elem_bytes: usize,
    /// `size_of` one accumulator element.
    pub acc_bytes: usize,
}

fn dtype_point<T: cake_kernels::select::KernelSelect>(
    m: usize,
    k: usize,
    n: usize,
    iters: usize,
    shape: &CbBlockShape,
    gen: impl Fn(usize, usize, u64) -> Matrix<T>,
) -> DtypePoint {
    let a = gen(m, k, 1);
    let b = gen(k, n, 2);
    let ukr = cake_kernels::best_kernel::<T>();
    let pool = ThreadPool::with_affinity(1, false);
    let mut ws = GemmWorkspace::<T>::new();
    let mut c = Matrix::<T::Acc>::zeros(m, n);
    let mut stats =
        execute_with_stats_in(&a.view(), &b.view(), &mut c.view_mut(), shape, &ukr, &pool, &mut ws);
    let mut best = f64::INFINITY;
    let mut warm_allocs = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        stats = execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            shape,
            &ukr,
            &pool,
            &mut ws,
        );
        best = best.min(t0.elapsed().as_secs_f64());
        warm_allocs += stats.allocations as u64;
    }
    DtypePoint {
        dtype: T::NAME,
        kernel: stats.kernel,
        gops: 2.0 * m as f64 * k as f64 * n as f64 / best / 1e9,
        allocs_after_warmup: warm_allocs,
        a_elems: stats.a_elems_loaded,
        b_elems: stats.b_elems_loaded,
        c_elems: stats.c_elems_updated,
        elem_bytes: std::mem::size_of::<T>(),
        acc_bytes: std::mem::size_of::<T::Acc>(),
    }
}

/// Run one single-threaded GEMM per supported dtype (f32, f64, bf16, int8)
/// on one fixed block grid, each through its own best-tier kernel. Like
/// the tier sweep, the *element* counters tally live source elements — a
/// property of the block schedule, never of the element width — so they
/// must be identical across dtypes ([`dtype_counters_invariant`]); only
/// the byte traffic (`elem_bytes * elems`) shrinks with the dtype.
pub fn sweep_dtypes(m: usize, k: usize, n: usize, iters: usize) -> Vec<DtypePoint> {
    use cake_matrix::Bf16;
    let (bm, bk, bn) = fixed_grid_dims(m, k, n, 1);
    let shape = CbBlockShape::fixed(1, bm, bk, bn);
    let iters = iters.max(1);
    vec![
        dtype_point::<f32>(m, k, n, iters, &shape, init::random::<f32>),
        dtype_point::<f64>(m, k, n, iters, &shape, init::random::<f64>),
        dtype_point::<Bf16>(m, k, n, iters, &shape, |r, c, s| {
            let f = init::random::<f32>(r, c, s);
            Matrix::from_fn(r, c, |i, j| Bf16::from_f32(f.get(i, j)))
        }),
        dtype_point::<i8>(m, k, n, iters, &shape, init::random_i8),
    ]
}

/// The dtype-invariance gate: on a fixed block grid every dtype must have
/// packed/updated exactly the same element counts (element movement is a
/// schedule property; only bytes-per-element changes), and every dtype's
/// warm path must be allocation-free. `Err` carries a human-readable diff.
pub fn dtype_counters_invariant(points: &[DtypePoint]) -> Result<(), String> {
    let Some(first) = points.first() else {
        return Ok(());
    };
    for pt in points {
        if pt.allocs_after_warmup != 0 {
            return Err(format!(
                "dtype {} allocated {} time(s) after warmup — the zero-alloc warm \
                 path must hold for every dtype",
                pt.dtype, pt.allocs_after_warmup
            ));
        }
    }
    for pt in &points[1..] {
        if (pt.a_elems, pt.b_elems, pt.c_elems) != (first.a_elems, first.b_elems, first.c_elems) {
            return Err(format!(
                "dtype counters diverge: {} moved (A {}, B {}, C {}) but {} moved \
                 (A {}, B {}, C {})",
                first.dtype,
                first.a_elems,
                first.b_elems,
                first.c_elems,
                pt.dtype,
                pt.a_elems,
                pt.b_elems,
                pt.c_elems
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
            assert!(pt.barrier_wait_ns_max <= pt.barrier_wait_ns_sum);
        }
        // The bandwidth claim: identical element movement at every p. The
        // counters are live here (cake-verify enables traffic-counters).
        assert!(points[0].a_elems > 0, "counters should be compiled in");
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
            barrier_wait_ns_sum: 0,
            imbalance: 1.0,
            kernel: "",
        }
    }

    #[test]
    fn kernel_sweep_covers_available_tiers_with_invariant_counters() {
        let points = sweep_kernels(48, 40, 56, 1);
        // Every available rung but amx (int8 only) has an f32 kernel.
        let tiers: Vec<_> =
            cake_kernels::available_tiers().into_iter().filter(|&t| t < cake_kernels::KernelTier::Amx).collect();
        assert_eq!(points.len(), tiers.len());
        for (pt, tier) in points.iter().zip(tiers) {
            assert_eq!(pt.tier, tier);
            assert!(pt.kernel.starts_with(tier.name()), "{} vs {}", pt.kernel, tier);
            assert!(pt.gflops > 0.0 && pt.mr >= 1 && pt.nr >= 1);
        }
        assert!(points[0].a_elems > 0, "counters should be compiled in");
        kernel_counters_invariant(&points).expect("fixed grid must move identical elements");
        // The sweep's points all record their own kernel name.
        let mut seen: Vec<&str> = points.iter().map(|p| p.kernel).collect();
        seen.dedup();
        assert_eq!(seen.len(), points.len(), "each tier reports a distinct kernel");
    }

    #[test]
    fn int8_sweep_covers_every_int8_tier_with_identical_c() {
        // K = 70 crosses the tile layout's 64-deep step; N = 56 leaves
        // an edge sliver for every kernel width.
        let points = sweep_kernels_i8(48, 70, 56, 1);
        let tiers: Vec<_> = cake_kernels::available_tiers()
            .into_iter()
            .filter(|&t| cake_kernels::tier_kernel::<i8>(t).is_some())
            .collect();
        assert_eq!(points.iter().map(|p| p.tier).collect::<Vec<_>>(), tiers);
        assert!(points.iter().all(|p| p.c_hash.is_some()), "int8 points carry a C hash");
        kernel_counters_invariant(&points).expect("int8 tiers must agree bit for bit");
        if let Some(amx) = cake_kernels::tier_kernel::<i8>(cake_kernels::KernelTier::Amx) {
            assert!(points.iter().any(|p| p.kernel == amx.name()), "the AMX tier must run");
        }
    }

    #[test]
    fn divergent_int8_results_are_reported() {
        let mut points = sweep_kernels_i8(24, 24, 24, 1);
        if points.len() < 2 {
            return;
        }
        points[1].c_hash = points[1].c_hash.map(|h| h ^ 1);
        let err = kernel_counters_invariant(&points).unwrap_err();
        assert!(err.contains("different C"), "{err}");
    }

    #[test]
    fn divergent_kernel_counters_are_reported() {
        let mut points = sweep_kernels(24, 24, 24, 1);
        if points.len() < 2 {
            return; // single-tier host: nothing to diverge
        }
        points[1].c_elems += 7;
        let err = kernel_counters_invariant(&points).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
    }

    #[test]
    fn dtype_sweep_covers_all_four_dtypes_with_invariant_counters() {
        let points = sweep_dtypes(48, 40, 56, 1);
        let names: Vec<&str> = points.iter().map(|p| p.dtype).collect();
        assert_eq!(names, ["f32", "f64", "bf16", "int8"]);
        for pt in &points {
            assert!(pt.gops > 0.0, "{}: no throughput", pt.dtype);
            assert!(!pt.kernel.is_empty(), "{}: kernel unrecorded", pt.dtype);
            assert_eq!(pt.allocs_after_warmup, 0, "{}: warm path allocated", pt.dtype);
        }
        // Byte widths are the dtype's, not hardcoded f32's.
        assert_eq!(points[3].elem_bytes, 1);
        assert_eq!(points[3].acc_bytes, 4);
        assert_eq!(points[2].elem_bytes, 2);
        assert!(points[0].a_elems > 0, "counters should be compiled in");
        dtype_counters_invariant(&points).expect("fixed grid must move identical elements");
    }

    #[test]
    fn divergent_dtype_counters_and_warm_allocs_are_reported() {
        let mut points = sweep_dtypes(24, 24, 24, 1);
        points[1].a_elems += 3;
        let err = dtype_counters_invariant(&points).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
        points[1].a_elems -= 3;
        points[2].allocs_after_warmup = 2;
        let err = dtype_counters_invariant(&points).unwrap_err();
        assert!(err.contains("allocated"), "{err}");
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
