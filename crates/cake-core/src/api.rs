//! Drop-in GEMM entry points.
//!
//! The paper positions the CAKE library as "a drop-in replacement for MM
//! calls used by existing frameworks that does not require manual tuning".
//! [`cake_sgemm`] / [`cake_dgemm`] mirror that: pass matrices and a
//! [`CakeConfig`] (all fields defaulted) and the CB block shape, schedule,
//! kernel, and thread count are chosen automatically.
//!
//! Semantics are `C += A * B` (BLAS `alpha = 1`, `beta = 1`). Zero `C`
//! first for the `beta = 0` convention.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Mutex;

use cake_kernels::select::KernelSelect;
use cake_matrix::{Bf16, Element, Matrix, MatrixView, MatrixViewMut};

use crate::executor::{execute, execute_with_stats_in, ExecStats};
use crate::pool::ThreadPool;
use crate::shape::CbBlockShape;
use crate::sync::BarrierMode;
use crate::topology;
use crate::tune::{self, AlphaSource, TuneDecision};
use crate::workspace::GemmWorkspace;

/// Configuration for a CAKE GEMM call. `Default` gives a sensible fully
/// automatic setup.
#[derive(Debug, Clone)]
pub struct CakeConfig {
    /// Worker threads (`p`). `None` = all available cores.
    pub threads: Option<usize>,
    /// CB-block aspect factor. `None` = derive from `dram_bw_gbs` when
    /// given (Section 3.2), else 1.0.
    pub alpha: Option<f64>,
    /// Available DRAM bandwidth in GB/s, if known; drives `alpha`
    /// auto-selection.
    pub dram_bw_gbs: Option<f64>,
    /// Per-core private (L2) cache size in bytes.
    pub l2_bytes: usize,
    /// Shared last-level cache size in bytes.
    pub llc_bytes: usize,
    /// Core clock in GHz (only used for `alpha` auto-selection).
    pub freq_ghz: f64,
    /// Force the portable kernel (skip SIMD dispatch) — for debugging and
    /// baseline measurements.
    pub force_portable_kernel: bool,
    /// Pin worker `i` to core `i % cores` (Linux `sched_setaffinity`;
    /// no-op elsewhere). Off by default: pinning helps dedicated-machine
    /// benchmarks but hurts co-tenant workloads.
    pub pin_cores: bool,
    /// Pin the kernel tier (set by [`autotuned_for`](Self::autotuned_for)
    /// from a cached [`tune::TunedEntry`]). Falls back down the dispatch
    /// ladder when this host cannot run the pinned tier for a dtype.
    pub kernel_tier: Option<cake_kernels::KernelTier>,
    /// Use this block shape instead of the analytic derivation (still
    /// clamped to each problem's extents). Set by
    /// [`autotuned_for`](Self::autotuned_for) from the autotune cache.
    pub fixed_shape: Option<CbBlockShape>,
}

impl Default for CakeConfig {
    fn default() -> Self {
        Self {
            threads: None,
            alpha: None,
            dram_bw_gbs: None,
            // Conservative desktop-class defaults; override per Table 2
            // configs for the paper experiments.
            l2_bytes: 256 * 1024,
            llc_bytes: 16 * 1024 * 1024,
            freq_ghz: 3.0,
            force_portable_kernel: false,
            pin_cores: false,
            kernel_tier: None,
            fixed_shape: None,
        }
    }
}

impl CakeConfig {
    /// Config pinned to `p` threads.
    pub fn with_threads(p: usize) -> Self {
        Self {
            threads: Some(p),
            ..Self::default()
        }
    }

    /// The paper's auto-tuner entry point: a config for `p` cores over an
    /// LLC of `llc_bytes`. The block's M-extent grows linearly with `p`
    /// (Section 3: `m = p*k`) because [`CbBlockShape::derive`] builds
    /// `p * mc` row blocks, while `mc` itself is bounded by the Section
    /// 4.3 LRU fit `C + 2(A + B) <= S` over the given LLC — see
    /// [`CbBlockShape::mc_bounds`]. All other knobs stay automatic
    /// (`alpha` from the LLC-fill rule, effective worker count clamped to
    /// host topology at pool construction).
    pub fn tuned_for(p: usize, llc_bytes: usize) -> Self {
        Self {
            threads: Some(p),
            llc_bytes,
            ..Self::default()
        }
    }

    /// [`tuned_for`](Self::tuned_for), upgraded by the autotune cache: when
    /// `target/cake-tune.json` (or `$CAKE_TUNE_CACHE`) holds a winner for
    /// exactly `(m, k, n, dtype, p)` — recorded by `cakectl tune` or the
    /// `cake-bench` tuner — the returned config pins that winner's block
    /// shape and kernel tier. With no cache hit this is `tuned_for`
    /// unchanged, so the call can never do worse than the closed form it
    /// replaces. `dtype` is an element NAME: `"f32"`/`"f64"`/`"int8"`/
    /// `"bf16"`.
    pub fn autotuned_for(m: usize, k: usize, n: usize, dtype: &str, p: usize) -> Self {
        let mut cfg = Self::tuned_for(p, Self::default().llc_bytes);
        // audit: cold one cache probe per config construction, no GEMM yet
        if let Some(e) = tune::TuneTable::load_default()
            .and_then(|t| t.lookup(m, k, n, dtype, p).cloned())
        {
            cfg.fixed_shape = Some(CbBlockShape::fixed(p.max(1), e.mc, e.kc, e.nc));
            cfg.kernel_tier = cake_kernels::KernelTier::parse(&e.tier);
        }
        cfg
    }

    /// Resolve the thread count.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    }

    /// Resolve the CB block shape for a problem of the given extents and a
    /// kernel of shape `mr x nr` over elements of `elem_bytes`.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_shape(
        &self,
        m: usize,
        k: usize,
        n: usize,
        mr: usize,
        nr: usize,
        elem_bytes: usize,
        macs_per_cycle: f64,
    ) -> CbBlockShape {
        self.explain_shape(m, k, n, mr, nr, elem_bytes, macs_per_cycle)
            .shape
    }

    /// [`resolve_shape`](Self::resolve_shape) with its full paper trail:
    /// every bound the tuner consulted, the chosen `alpha` and why, the
    /// topology clamp, and the barrier mode the run will use — rendered by
    /// `cakectl gemm --explain`.
    #[allow(clippy::too_many_arguments)]
    pub fn explain_shape(
        &self,
        m: usize,
        k: usize,
        n: usize,
        mr: usize,
        nr: usize,
        elem_bytes: usize,
        macs_per_cycle: f64,
    ) -> TuneDecision {
        let p = self.resolved_threads();
        // Provisional shape at alpha = 1 to learn the cache-constrained mc.
        let probe = CbBlockShape::derive(p, 1.0, self.l2_bytes, self.llc_bytes, elem_bytes, mr, nr);
        let (alpha, alpha_source, analytic) = if let Some(fx) = self.fixed_shape {
            // Autotune-cache shape: re-key to the resolved p (the cache
            // stores the tuned p, which matches when the config came from
            // `autotuned_for`) and skip the analytic derivation.
            let fx = CbBlockShape::fixed(p, fx.mc, fx.kc, fx.nc)
                .with_outer_tiles(fx.ko_blocks, fx.no_blocks);
            (fx.alpha(), AlphaSource::Autotuned, fx)
        } else {
            let (alpha, alpha_source) = match self.alpha {
                Some(a) => (a, AlphaSource::Explicit),
                None => match self.dram_bw_gbs {
                    Some(bw) => (
                        tune::select_alpha(bw, probe.mc, macs_per_cycle, elem_bytes, self.freq_ghz),
                        AlphaSource::BandwidthModel,
                    ),
                    // No bandwidth hint: widen the block to use the spare
                    // LLC — a larger alpha only lowers the Eq. 2 demand.
                    None => (
                        tune::alpha_fill_llc(p, probe.mc.max(1), self.llc_bytes / elem_bytes),
                        AlphaSource::LlcFill,
                    ),
                },
            };
            let analytic =
                CbBlockShape::derive(p, alpha, self.l2_bytes, self.llc_bytes, elem_bytes, mr, nr);
            (alpha, alpha_source, analytic)
        };
        let shape = analytic.clamp_to_problem(m, k, n, mr, nr);
        let (mc_llc, mc_l2) =
            CbBlockShape::mc_bounds(p, alpha.max(1.0), self.l2_bytes, self.llc_bytes, elem_bytes);
        let host_cores = topology::available_cores();
        let effective_p = topology::effective_p(p);
        TuneDecision {
            requested_p: p,
            effective_p,
            host_cores,
            barrier_mode: BarrierMode::auto(effective_p, host_cores),
            alpha,
            alpha_source,
            mc_l2,
            mc_llc,
            analytic,
            shape,
            lru_ok: shape.fits_llc_lru(self.llc_bytes, elem_bytes),
            kernel: "",
        }
    }

    /// The microkernel a GEMM through this config dispatches to for element
    /// type `T`: the portable tier when `force_portable_kernel` is set,
    /// else a pinned [`kernel_tier`](Self::kernel_tier) the host can run,
    /// otherwise the tier ladder's pick (honoring the `CAKE_KERNEL` cap).
    pub fn selected_kernel<T: KernelSelect>(&self) -> cake_kernels::Ukr<T> {
        if self.force_portable_kernel {
            return cake_kernels::portable_kernel::<T>();
        }
        if let Some(tier) = self.kernel_tier {
            if let Some(ukr) = cake_kernels::tier_kernel::<T>(tier) {
                return ukr;
            }
        }
        cake_kernels::best_kernel::<T>()
    }

    /// [`explain_shape`](Self::explain_shape) driven by the kernel this
    /// config actually dispatches to for `T`: the block geometry derives
    /// from the *selected* kernel's `(mr, nr)` and the decision records the
    /// kernel's name.
    pub fn explain_shape_for<T: KernelSelect>(
        &self,
        m: usize,
        k: usize,
        n: usize,
    ) -> TuneDecision {
        let ukr = self.selected_kernel::<T>();
        let mut d = self.explain_shape(
            m,
            k,
            n,
            ukr.mr(),
            ukr.nr(),
            T::BYTES,
            (ukr.mr() * ukr.nr()) as f64,
        );
        d.kernel = ukr.name();
        d
    }
}

/// Generic `C += A * B` with automatic CB-block configuration.
///
/// `C` is over the accumulator type `T::Acc` — identical to `T` for
/// f32/f64, widened for the narrow-dtype tier (`i8 -> i32`,
/// `Bf16 -> f32`), so int8 reductions are exact and bf16 reductions keep
/// f32 precision regardless of `K`.
///
/// # Panics
/// Panics on dimension mismatch (`A: MxK`, `B: KxN`, `C: MxN`).
pub fn cake_gemm<T: KernelSelect>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T::Acc>,
    cfg: &CakeConfig,
) {
    let (av, bv) = (a.view(), b.view());
    let mut cv = c.view_mut();
    cake_gemm_views(&av, &bv, &mut cv, cfg);
}

/// View-level entry point (strided / transposed operands welcome).
pub fn cake_gemm_views<T: KernelSelect>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    c: &mut MatrixViewMut<'_, T::Acc>,
    cfg: &CakeConfig,
) {
    let ukr = cfg.selected_kernel::<T>();
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let shape = cfg.resolve_shape(
        m,
        k,
        n,
        ukr.mr(),
        ukr.nr(),
        T::BYTES,
        (ukr.mr() * ukr.nr()) as f64,
    );
    // Requested p shaped the block; the spawned pool is clamped to the
    // cores this process can actually run on (topology::effective_p).
    let pool = ThreadPool::with_affinity(topology::effective_p(shape.p), cfg.pin_cores);
    execute(a, b, c, &shape, &ukr, &pool);
}

/// Single-precision drop-in GEMM: `C += A * B`.
pub fn cake_sgemm(a: &Matrix<f32>, b: &Matrix<f32>, c: &mut Matrix<f32>, cfg: &CakeConfig) {
    cake_gemm(a, b, c, cfg);
}

/// Double-precision drop-in GEMM: `C += A * B`.
pub fn cake_dgemm(a: &Matrix<f64>, b: &Matrix<f64>, c: &mut Matrix<f64>, cfg: &CakeConfig) {
    cake_gemm(a, b, c, cfg);
}

/// int8 GEMM with exact i32 accumulation: `C += A * B`. Dispatches to the
/// VNNI tier when the host has it, the AVX2 sign-extend kernel or the
/// portable kernel otherwise — bit-identical results on every tier.
pub fn cake_gemm_i8(a: &Matrix<i8>, b: &Matrix<i8>, c: &mut Matrix<i32>, cfg: &CakeConfig) {
    cake_gemm(a, b, c, cfg);
}

/// bf16 GEMM with f32 accumulation: `C += A * B`.
pub fn cake_gemm_bf16(a: &Matrix<Bf16>, b: &Matrix<Bf16>, c: &mut Matrix<f32>, cfg: &CakeConfig) {
    cake_gemm(a, b, c, cfg);
}

/// A reusable GEMM context: keeps the worker pool **and** one packed-operand
/// [`GemmWorkspace`] per element type alive across calls (e.g. one call per
/// DNN layer), so a steady stream of GEMMs performs zero heap allocations
/// after the first call per shape class.
pub struct CakeGemm {
    cfg: CakeConfig,
    pool: ThreadPool,
    /// `TypeId::of::<T>() -> GemmWorkspace<T>`; interior mutability so the
    /// hot call path stays `&self`.
    workspaces: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
    last_stats: Mutex<ExecStats>,
}

impl CakeGemm {
    /// Build a context; spawns the worker pool once, clamped to the cores
    /// the host actually exposes (the requested p keeps shaping blocks).
    pub fn new(cfg: CakeConfig) -> Self {
        let p = topology::effective_p(cfg.resolved_threads());
        let pool = ThreadPool::with_affinity(p, cfg.pin_cores);
        Self {
            cfg,
            pool,
            workspaces: Mutex::new(HashMap::new()),
            last_stats: Mutex::new(ExecStats::default()),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CakeConfig {
        &self.cfg
    }

    /// Stats of the most recent [`gemm`](Self::gemm) call through this
    /// context (all-zero before the first call or after a zero-dim call).
    pub fn last_stats(&self) -> ExecStats {
        *self.last_stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// [`last_stats`](Self::last_stats), resetting the record to all-zero —
    /// lets a caller attribute GEMM work to a code region (e.g. one DNN
    /// layer): take a reading after the region and any zero result means no
    /// GEMM ran there.
    pub fn take_stats(&self) -> ExecStats {
        std::mem::take(&mut *self.last_stats.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// `C += A * B` reusing this context's pool and workspace (`C` over
    /// the accumulator type, as in [`cake_gemm`]).
    pub fn gemm<T: KernelSelect>(&self, a: &Matrix<T>, b: &Matrix<T>, c: &mut Matrix<T::Acc>) {
        let _ = self.gemm_with_stats(a, b, c);
    }

    /// [`gemm`](Self::gemm), returning the call's measured [`ExecStats`].
    pub fn gemm_with_stats<T: KernelSelect>(
        &self,
        a: &Matrix<T>,
        b: &Matrix<T>,
        c: &mut Matrix<T::Acc>,
    ) -> ExecStats {
        let ukr = self.cfg.selected_kernel::<T>();
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        if m == 0 || k == 0 || n == 0 {
            return ExecStats::default();
        }
        let shape = self.cfg.resolve_shape(
            m,
            k,
            n,
            ukr.mr(),
            ukr.nr(),
            T::BYTES,
            (ukr.mr() * ukr.nr()) as f64,
        );
        let (av, bv) = (a.view(), b.view());
        let mut cv = c.view_mut();
        let mut map = self.workspaces.lock().unwrap_or_else(|p| p.into_inner());
        let ws = map
            .entry(TypeId::of::<T>())
            // audit: cold first-use workspace creation, memoized per dtype
            .or_insert_with(|| Box::new(GemmWorkspace::<T>::new()) as Box<dyn Any + Send>)
            .downcast_mut::<GemmWorkspace<T>>()
            .expect("workspace map is keyed by element TypeId");
        let stats = execute_with_stats_in(&av, &bv, &mut cv, &shape, &ukr, &self.pool, ws);
        drop(map);
        *self.last_stats.lock().unwrap_or_else(|p| p.into_inner()) = stats;
        stats
    }
}

/// Operand orientation for [`cake_gemm_op`] (BLAS `trans` flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the operand transposed (free: only view strides change).
    Trans,
}

/// `C += op_a(A) * op_b(B)` — BLAS-style transpose flags, zero-copy.
pub fn cake_gemm_op<T: KernelSelect>(
    op_a: Op,
    a: &Matrix<T>,
    op_b: Op,
    b: &Matrix<T>,
    c: &mut Matrix<T::Acc>,
    cfg: &CakeConfig,
) {
    let av = a.view();
    let bv = b.view();
    let av = if op_a == Op::Trans { av.t() } else { av };
    let bv = if op_b == Op::Trans { bv.t() } else { bv };
    let mut cv = c.view_mut();
    cake_gemm_views(&av, &bv, &mut cv, cfg);
}

/// Full BLAS-semantics GEMM: `C = alpha * A * B + beta * C`.
///
/// `alpha`/`beta` here are the BLAS scalars, unrelated to the CB block's
/// aspect factor (`CakeConfig::alpha`). Fast paths: `beta = 1` skips the
/// C pre-scale, `alpha = 1` avoids the temporary product buffer. Limited
/// to dtypes that accumulate in their own type (`Acc = T`): the BLAS
/// scalar convention has no widened-C analogue.
pub fn cake_gemm_scaled<T: Element + KernelSelect<Acc = T>>(
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
    cfg: &CakeConfig,
) {
    if beta != T::ONE {
        for v in c.as_mut_slice() {
            *v = *v * beta;
        }
    }
    if alpha == T::ZERO {
        return;
    }
    if alpha == T::ONE {
        cake_gemm(a, b, c, cfg);
        return;
    }
    // General case: accumulate into a zero temporary, then fold in scaled.
    let mut t = Matrix::<T>::zeros(c.rows(), c.cols());
    cake_gemm(a, b, &mut t, cfg);
    for (dst, &src) in c.as_mut_slice().iter_mut().zip(t.as_slice()) {
        *dst += alpha * src;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_matrix::compare::assert_gemm_eq;
    use cake_matrix::init;

    fn naive<T: Element>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let mut c = Matrix::<T>::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f64;
                for kk in 0..a.cols() {
                    s += a.get(i, kk).to_f64() * b.get(kk, j).to_f64();
                }
                c.set(i, j, T::from_f64(s));
            }
        }
        c
    }

    #[test]
    fn sgemm_matches_reference_default_config() {
        let (m, k, n) = (70, 55, 90);
        let a = init::random::<f32>(m, k, 1);
        let b = init::random::<f32>(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        cake_sgemm(&a, &b, &mut c, &CakeConfig::default());
        assert_gemm_eq(&c, &naive(&a, &b), k);
    }

    #[test]
    fn dgemm_matches_reference() {
        let (m, k, n) = (33, 47, 29);
        let a = init::random::<f64>(m, k, 3);
        let b = init::random::<f64>(k, n, 4);
        let mut c = Matrix::<f64>::zeros(m, n);
        cake_dgemm(&a, &b, &mut c, &CakeConfig::with_threads(2));
        assert_gemm_eq(&c, &naive(&a, &b), k);
    }

    #[test]
    fn portable_kernel_path_matches() {
        let (m, k, n) = (25, 31, 17);
        let a = init::random::<f32>(m, k, 5);
        let b = init::random::<f32>(k, n, 6);
        let mut c = Matrix::<f32>::zeros(m, n);
        let cfg = CakeConfig {
            force_portable_kernel: true,
            threads: Some(2),
            ..CakeConfig::default()
        };
        cake_sgemm(&a, &b, &mut c, &cfg);
        assert_gemm_eq(&c, &naive(&a, &b), k);
    }

    #[test]
    fn explicit_alpha_and_bw_paths() {
        let (m, k, n) = (48, 48, 48);
        let a = init::random::<f32>(m, k, 7);
        let b = init::random::<f32>(k, n, 8);
        let expected = naive(&a, &b);

        for cfg in [
            CakeConfig {
                alpha: Some(2.0),
                threads: Some(2),
                ..CakeConfig::default()
            },
            CakeConfig {
                dram_bw_gbs: Some(2.0), // scarce: drives alpha up
                threads: Some(2),
                ..CakeConfig::default()
            },
        ] {
            let mut c = Matrix::<f32>::zeros(m, n);
            cake_sgemm(&a, &b, &mut c, &cfg);
            assert_gemm_eq(&c, &expected, k);
        }
    }

    #[test]
    fn context_reuse_across_layers() {
        let ctx = CakeGemm::new(CakeConfig::with_threads(2));
        let mut x = init::random::<f32>(16, 16, 9);
        for layer in 0..4 {
            let w = init::random::<f32>(16, 16, 100 + layer);
            let mut y = Matrix::<f32>::zeros(16, 16);
            ctx.gemm(&w, &x, &mut y);
            assert_gemm_eq(&y, &naive(&w, &x), 16);
            x = y;
        }
    }

    #[test]
    fn context_warm_calls_do_not_allocate() {
        let ctx = CakeGemm::new(CakeConfig::with_threads(2));
        let a = init::random::<f32>(48, 32, 41);
        let b = init::random::<f32>(32, 40, 42);
        let expected = naive(&a, &b);
        for call in 0..10 {
            let mut c = Matrix::<f32>::zeros(48, 40);
            let stats = ctx.gemm_with_stats(&a, &b, &mut c);
            if call == 0 {
                assert!(stats.allocations > 0, "cold call sizes the workspace");
            } else {
                assert_eq!(stats.allocations, 0, "warm call {call} allocated");
            }
            assert_eq!(ctx.last_stats(), stats);
            assert_gemm_eq(&c, &expected, 32);
        }
        // A second element type gets its own workspace without disturbing
        // the f32 one.
        let ad = init::random::<f64>(16, 16, 43);
        let bd = init::random::<f64>(16, 16, 44);
        let mut cd = Matrix::<f64>::zeros(16, 16);
        assert!(ctx.gemm_with_stats(&ad, &bd, &mut cd).allocations > 0);
        let mut c = Matrix::<f32>::zeros(48, 40);
        assert_eq!(ctx.gemm_with_stats(&a, &b, &mut c).allocations, 0);
    }

    #[test]
    fn i8_gemm_is_exact_and_warm_calls_do_not_allocate() {
        let (m, k, n) = (48, 40, 56);
        let a = init::random_i8(m, k, 61);
        let b = init::random_i8(k, n, 62);
        let mut expected = Matrix::<i32>::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i32;
                for kk in 0..k {
                    s += a.get(i, kk) as i32 * b.get(kk, j) as i32;
                }
                expected.set(i, j, s);
            }
        }
        // One-shot wrapper.
        let mut c = Matrix::<i32>::zeros(m, n);
        cake_gemm_i8(&a, &b, &mut c, &CakeConfig::with_threads(2));
        assert_eq!(c.as_slice(), expected.as_slice());
        // Context path: the int8 workspace pools like any other dtype —
        // zero heap allocations once warm.
        let ctx = CakeGemm::new(CakeConfig::with_threads(2));
        for call in 0..4 {
            let mut c = Matrix::<i32>::zeros(m, n);
            let stats = ctx.gemm_with_stats(&a, &b, &mut c);
            if call == 0 {
                assert!(stats.allocations > 0, "cold call sizes the workspace");
            } else {
                assert_eq!(stats.allocations, 0, "warm int8 call {call} allocated");
            }
            assert_eq!(c.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn bf16_gemm_matches_oracle_and_warm_calls_do_not_allocate() {
        let (m, k, n) = (32, 24, 40);
        let af = init::random::<f32>(m, k, 63);
        let bf = init::random::<f32>(k, n, 64);
        let a = Matrix::from_fn(m, k, |i, j| Bf16::from_f32(af.get(i, j)));
        let b = Matrix::from_fn(k, n, |i, j| Bf16::from_f32(bf.get(i, j)));
        let mut expected = Matrix::<f32>::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    s += a.get(i, kk).to_f32() as f64 * b.get(kk, j).to_f32() as f64;
                }
                expected.set(i, j, s as f32);
            }
        }
        let mut c = Matrix::<f32>::zeros(m, n);
        cake_gemm_bf16(&a, &b, &mut c, &CakeConfig::with_threads(2));
        assert_gemm_eq(&c, &expected, k);
        let ctx = CakeGemm::new(CakeConfig::with_threads(2));
        for call in 0..4 {
            let mut c = Matrix::<f32>::zeros(m, n);
            let stats = ctx.gemm_with_stats(&a, &b, &mut c);
            if call == 0 {
                assert!(stats.allocations > 0, "cold call sizes the workspace");
            } else {
                assert_eq!(stats.allocations, 0, "warm bf16 call {call} allocated");
            }
            assert_gemm_eq(&c, &expected, k);
        }
    }

    #[test]
    fn shape_clamp_keeps_all_workers_busy() {
        let cfg = CakeConfig::with_threads(4);
        // Small M: strip must shrink so all 4 workers see rows.
        let s = cfg.resolve_shape(40, 512, 512, 6, 16, 4, 96.0);
        assert!(s.mc * 4 >= 40, "strips must cover M");
        assert!(s.mc <= 12, "mc should shrink to ~M/p rounded to mr, got {}", s.mc);
    }

    #[test]
    fn pinned_config_still_computes_correctly() {
        let cfg = CakeConfig {
            pin_cores: true,
            threads: Some(2),
            ..CakeConfig::default()
        };
        let a = init::random::<f32>(32, 24, 51);
        let b = init::random::<f32>(24, 40, 52);
        let expected = naive(&a, &b);
        // One-shot path.
        let mut c = Matrix::<f32>::zeros(32, 40);
        cake_sgemm(&a, &b, &mut c, &cfg);
        assert_gemm_eq(&c, &expected, 24);
        // Context path: stats must report the clamped worker count and
        // remember what was requested.
        let ctx = CakeGemm::new(cfg);
        let mut c2 = Matrix::<f32>::zeros(32, 40);
        let stats = ctx.gemm_with_stats(&a, &b, &mut c2);
        assert_gemm_eq(&c2, &expected, 24);
        assert_eq!(stats.workers, crate::topology::effective_p(2));
        assert_eq!(stats.requested_workers, 2);
    }

    #[test]
    fn tuned_for_derives_paper_shape_growth() {
        // Section 3: the block's M-extent grows linearly with p. Use an
        // oversized L2 so the LLC LRU rule is the binding constraint and
        // the shrink of mc with p is visible too.
        let big = CakeConfig {
            l2_bytes: 64 * 1024 * 1024,
            ..CakeConfig::tuned_for(1, 20 * 1024 * 1024)
        };
        let s1 = big.resolve_shape(4096, 4096, 4096, 6, 16, 4, 96.0);
        let big4 = CakeConfig {
            l2_bytes: 64 * 1024 * 1024,
            ..CakeConfig::tuned_for(4, 20 * 1024 * 1024)
        };
        let s4 = big4.resolve_shape(4096, 4096, 4096, 6, 16, 4, 96.0);
        assert_eq!(s1.p, 1);
        assert_eq!(s4.p, 4);
        assert_eq!(s4.m_block(), 4 * s4.mc, "m = p * k growth");
        assert!(s4.mc < s1.mc, "LLC-bound mc must shrink with p");
        // Both shapes obey the Section 4.3 LRU fit for the tuned LLC.
        assert!(s1.fits_llc_lru(20 * 1024 * 1024, 4));
        assert!(s4.fits_llc_lru(20 * 1024 * 1024, 4));
    }

    #[test]
    fn explain_shape_records_the_decision() {
        let cfg = CakeConfig::tuned_for(2, 16 * 1024 * 1024);
        let d = cfg.explain_shape(256, 256, 256, 6, 16, 4, 96.0);
        assert_eq!(d.requested_p, 2);
        assert_eq!(d.effective_p, crate::topology::effective_p(2));
        assert_eq!(d.host_cores, crate::topology::available_cores());
        assert_eq!(d.shape, cfg.resolve_shape(256, 256, 256, 6, 16, 4, 96.0));
        assert_eq!(d.alpha_source, crate::tune::AlphaSource::LlcFill);
        assert!(d.alpha >= 1.0);
        assert!(d.mc_l2 > 0 && d.mc_llc > 0);
        assert!(d.lru_ok, "tuned shape must satisfy the LRU rule");
        assert!(!d.render().is_empty());
        // Explicit alpha changes the recorded source.
        let cfg2 = CakeConfig {
            alpha: Some(2.0),
            ..cfg
        };
        let d2 = cfg2.explain_shape(256, 256, 256, 6, 16, 4, 96.0);
        assert_eq!(d2.alpha_source, crate::tune::AlphaSource::Explicit);
        assert_eq!(d2.alpha, 2.0);
        let cfg3 = CakeConfig {
            dram_bw_gbs: Some(8.0),
            ..CakeConfig::tuned_for(2, 16 * 1024 * 1024)
        };
        let d3 = cfg3.explain_shape(256, 256, 256, 6, 16, 4, 96.0);
        assert_eq!(d3.alpha_source, crate::tune::AlphaSource::BandwidthModel);
    }

    #[test]
    fn explain_shape_for_records_selected_kernel() {
        let cfg = CakeConfig::tuned_for(1, 16 * 1024 * 1024);
        let ukr = cfg.selected_kernel::<f32>();
        let d = cfg.explain_shape_for::<f32>(256, 256, 256);
        assert_eq!(d.kernel, ukr.name());
        assert_eq!(
            d.shape,
            cfg.resolve_shape(
                256,
                256,
                256,
                ukr.mr(),
                ukr.nr(),
                4,
                (ukr.mr() * ukr.nr()) as f64
            )
        );
        assert!(d.render().contains(d.kernel));
        // Forcing the portable tier is reflected in the decision.
        let portable = CakeConfig {
            force_portable_kernel: true,
            ..cfg
        };
        assert!(portable
            .explain_shape_for::<f32>(64, 64, 64)
            .kernel
            .starts_with("portable"));
    }

    #[test]
    fn fixed_shape_bypasses_derivation_but_still_clamps() {
        let tuned = CbBlockShape::fixed(2, 48, 192, 320);
        let cfg = CakeConfig {
            fixed_shape: Some(tuned),
            ..CakeConfig::with_threads(2)
        };
        // Roomy problem: the pinned shape comes through verbatim.
        let d = cfg.explain_shape(512, 512, 512, 6, 16, 4, 96.0);
        assert_eq!(d.alpha_source, AlphaSource::Autotuned);
        assert_eq!(d.shape, tuned);
        // Tiny problem: extents still clamp the pinned shape.
        let small = cfg.explain_shape(24, 32, 32, 6, 16, 4, 96.0);
        assert!(small.shape.kc <= 32);
        assert!(small.shape.mc < 48);
        // And the GEMM it drives stays correct.
        let a = init::random::<f32>(60, 70, 91);
        let b = init::random::<f32>(70, 50, 92);
        let mut c = Matrix::<f32>::zeros(60, 50);
        cake_sgemm(&a, &b, &mut c, &cfg);
        assert_gemm_eq(&c, &naive(&a, &b), 70);
    }

    #[test]
    fn autotuned_for_reads_the_cache_and_falls_back() {
        use crate::tune::{TuneTable, TunedEntry};
        let dir = std::env::temp_dir().join("cake-autotuned-for-test");
        let path = dir.join("cake-tune.json");
        let mut t = TuneTable::default();
        t.insert(TunedEntry {
            m: 96, k: 96, n: 96, dtype: "f32".into(), p: 2,
            mc: 24, kc: 96, nc: 96, tier: "portable".into(), gflops: 1.0,
        });
        t.save(&path).expect("save");
        std::env::set_var("CAKE_TUNE_CACHE", &path);
        let hit = CakeConfig::autotuned_for(96, 96, 96, "f32", 2);
        let miss = CakeConfig::autotuned_for(97, 96, 96, "f32", 2);
        std::env::remove_var("CAKE_TUNE_CACHE");
        assert_eq!(hit.fixed_shape, Some(CbBlockShape::fixed(2, 24, 96, 96)));
        assert_eq!(hit.kernel_tier, Some(cake_kernels::KernelTier::Portable));
        assert!(hit.selected_kernel::<f32>().name().starts_with("portable"));
        // Cache miss degrades to plain `tuned_for`.
        assert_eq!(miss.fixed_shape, None);
        assert_eq!(miss.kernel_tier, None);
        assert_eq!(miss.threads, Some(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_dimension_noop() {
        let a = Matrix::<f32>::zeros(0, 8);
        let b = Matrix::<f32>::zeros(8, 8);
        let mut c = Matrix::<f32>::zeros(0, 8);
        cake_sgemm(&a, &b, &mut c, &CakeConfig::default()); // must not panic
    }

    #[test]
    fn transposed_view_input() {
        // Compute C += A^T * B via the view API.
        let at = init::random::<f32>(20, 30, 11); // A^T stored, A = 30x20
        let b = init::random::<f32>(30, 10, 12);
        let mut c = Matrix::<f32>::zeros(20, 10);

        let av = at.view(); // 20x30 = (A^T)^T^T... we want rows=20? A^T is 20x30?
        // We want C(20x10) += X(20x30) * B(30x10) where X = at viewed as is.
        let bv = b.view();
        let mut cv = c.view_mut();
        cake_gemm_views(&av, &bv, &mut cv, &CakeConfig::with_threads(1));

        let expected = naive(&at, &b);
        assert_gemm_eq(&c, &expected, 30);

        // Now the genuinely transposed case: C2 += at^T * b2.
        let b2 = init::random::<f32>(20, 10, 13);
        let mut c2 = Matrix::<f32>::zeros(30, 10);
        let av_t = at.view().t(); // 30x20, strided
        let b2v = b2.view();
        let mut c2v = c2.view_mut();
        cake_gemm_views(&av_t, &b2v, &mut c2v, &CakeConfig::with_threads(1));
        let expected2 = naive(&at.transposed(), &b2);
        assert_gemm_eq(&c2, &expected2, 20);
    }

    #[test]
    fn gemm_op_transpose_flags() {
        use super::Op;
        let a = init::random::<f32>(20, 30, 21); // stored 20x30
        let b = init::random::<f32>(10, 30, 22); // stored 10x30
        // C (20x10) += A * B^T.
        let mut c = Matrix::<f32>::zeros(20, 10);
        cake_gemm_op(Op::NoTrans, &a, Op::Trans, &b, &mut c, &CakeConfig::with_threads(2));
        let expected = naive(&a, &b.transposed());
        assert_gemm_eq(&c, &expected, 30);

        // C2 (30x30) += A^T * ... pick A^T (30x20) * B2 (20x30).
        let b2 = init::random::<f32>(20, 30, 23);
        let mut c2 = Matrix::<f32>::zeros(30, 30);
        cake_gemm_op(Op::Trans, &a, Op::NoTrans, &b2, &mut c2, &CakeConfig::with_threads(2));
        let expected2 = naive(&a.transposed(), &b2);
        assert_gemm_eq(&c2, &expected2, 20);
    }

    #[test]
    fn gemm_scaled_blas_semantics() {
        let (m, k, n) = (17, 13, 19);
        let a = init::random::<f32>(m, k, 31);
        let b = init::random::<f32>(k, n, 32);
        let c0 = init::random::<f32>(m, n, 33);
        let cfg = CakeConfig::with_threads(1);

        // Reference: C = 2.5*A*B - 0.5*C0.
        let ab = naive(&a, &b);
        let expected = Matrix::from_fn(m, n, |i, j| 2.5 * ab.get(i, j) - 0.5 * c0.get(i, j));

        let mut c = c0.clone();
        cake_gemm_scaled(2.5f32, &a, &b, -0.5, &mut c, &cfg);
        assert_gemm_eq(&c, &expected, k);

        // beta = 0 zeroes out prior contents even with NaN-free guarantees.
        let mut c = c0.clone();
        cake_gemm_scaled(1.0f32, &a, &b, 0.0, &mut c, &cfg);
        assert_gemm_eq(&c, &ab, k);

        // alpha = 0 leaves beta*C only.
        let mut c = c0.clone();
        cake_gemm_scaled(0.0f32, &a, &b, 2.0, &mut c, &cfg);
        let doubled = Matrix::from_fn(m, n, |i, j| 2.0 * c0.get(i, j));
        assert_gemm_eq(&c, &doubled, 1);
    }
}
