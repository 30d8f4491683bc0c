//! The drop-in GEMM context.
//!
//! The paper positions the CAKE library as "a drop-in replacement for MM
//! calls used by existing frameworks that does not require manual tuning".
//! [`CakeGemm`] mirrors that: build it from a [`CakeConfig`] (all fields
//! defaulted) and call [`CakeGemm::gemm`]; the CB block shape, schedule,
//! kernel, and thread count are chosen automatically. The context keeps its
//! worker pool and packed-operand workspaces across calls; a one-shot call
//! is `CakeGemm::new(cfg).gemm(&a, &b, &mut c)`. Strided or transposed
//! views, and a caller-chosen block, go straight to the executor entry
//! [`execute_with_stats_in`].
//!
//! An A that many calls share — a DNN layer's weights — can be packed
//! once with [`CakeGemm::prepack`] and passed instead of the matrix: the
//! executor then reads each worker's strip in place on every call. A B
//! whose memory already has the AMX kernel's tile layout
//! ([`TiledB`](cake_kernels::pack::TiledB)) is read in place too; its
//! blocks are shaped without a B panel to fit, and on a kernel that reads
//! B tiles [`CakeGemm::prepack`] packs A at that depth.
//!
//! Semantics are `C += A * B` (BLAS `alpha = 1`, `beta = 1`). Zero `C`
//! first for the `beta = 0` convention, or use [`cake_gemm_scaled`].

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Mutex;

use cake_kernels::pack::{PackB, TILE_K};
use cake_kernels::select::KernelSelect;
use cake_kernels::Ukr;
use cake_matrix::{Element, Matrix};

use crate::executor::{assert_dims, execute_with_stats_in, ExecStats};
use crate::operand::{AsOperandA, OperandA, PackedA};
use crate::pool::ThreadPool;
use crate::shape::CbBlockShape;
use crate::sync::BarrierMode;
use crate::topology;
use crate::tune::{self, AlphaSource, TuneDecision};
use crate::workspace::GemmWorkspace;

/// Configuration for a CAKE GEMM call. `Default` gives a sensible fully
/// automatic setup. Every field is an input to the closed-form CB block
/// shaping ([`CakeConfig::explain_shape_for`]) or to the pool; nothing here
/// pins a block or a kernel. The kernel is the tier ladder's pick, capped
/// process-wide by `CAKE_KERNEL`.
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
    /// Pin worker `i` to core `i % cores` (Linux `sched_setaffinity`;
    /// no-op elsewhere). Off by default: pinning helps dedicated-machine
    /// benchmarks but hurts co-tenant workloads.
    pub pin_cores: bool,
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
            pin_cores: false,
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

    /// The closed-form shaping's entry point: a config for `p` cores over an
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

    /// Resolve the thread count.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    }

    /// The closed-form CB block for a problem of the given extents and a
    /// kernel of shape `mr x nr` over elements of `elem_bytes`, before any
    /// cut to the kernel layout's k-step
    /// ([`explain_shape_with`](Self::explain_shape_with) makes it). The
    /// bandwidth model rates the kernel at `mr * nr` MACs per cycle.
    fn explain_shape(
        &self,
        m: usize,
        k: usize,
        n: usize,
        mr: usize,
        nr: usize,
        elem_bytes: usize,
    ) -> TuneDecision {
        let p = self.resolved_threads();
        // Provisional shape at alpha = 1 to learn the cache-constrained mc.
        let probe = CbBlockShape::derive(p, 1.0, self.l2_bytes, self.llc_bytes, elem_bytes, mr, nr);
        let (alpha, alpha_source) = match self.alpha {
            Some(a) => (a, AlphaSource::Explicit),
            None => match self.dram_bw_gbs {
                Some(bw) => (
                    tune::select_alpha(bw, probe.mc, (mr * nr) as f64, elem_bytes, self.freq_ghz),
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
        let analytic = CbBlockShape::derive(p, alpha, self.l2_bytes, self.llc_bytes, elem_bytes, mr, nr);
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
            k_step: 1,
        }
    }

    /// The CB block a GEMM of these extents over `T` runs, with its full
    /// paper trail: every bound the shaping consulted, the chosen `alpha`
    /// and why, the kernel and its k-step, the topology clamp, and the
    /// barrier mode the run will use — rendered by `cakectl gemm
    /// --explain`. The kernel is the tier ladder's pick for depth `k`,
    /// under the `CAKE_KERNEL` cap
    /// ([`cake_kernels::best_kernel_for_depth`]); this is the block
    /// [`CakeGemm::gemm`] runs on a row-major A.
    pub fn explain_shape_for<T: KernelSelect>(&self, m: usize, k: usize, n: usize) -> TuneDecision {
        self.explain_shape_with(m, k, n, &cake_kernels::best_kernel_for_depth::<T>(k), false)
    }

    /// The one shaping [`CakeGemm`] runs, packs for and explains: the
    /// block derives from `ukr`'s `(mr, nr)`, the decision records its
    /// name, and a `kc` short of K is cut to whole steps of its packed
    /// layout's depth (at least one), so no k-block but the last pads K.
    /// Only the AMX tile layout has a step above 1 (64 bytes deep).
    ///
    /// With `b_tiles` (a B read in place, where the kernel reads B tiles),
    /// there is no B panel to fit, so `kc` is bounded by the A strip alone: the worker's `mc x
    /// kc` strip keeps the L2 half that bounds the square block
    /// ([`CbBlockShape::mc_bounds`]), so `kc` grows to `L2 / (2 * mc)`
    /// elements, cut to whole tile steps and to K. A short-fat
    /// convolution's K then fits one k-block and C is swept once.
    fn explain_shape_with<T: KernelSelect>(
        &self,
        m: usize,
        k: usize,
        n: usize,
        ukr: &Ukr<T>,
        b_tiles: bool,
    ) -> TuneDecision {
        let mut d = self.explain_shape(m, k, n, ukr.mr(), ukr.nr(), T::BYTES);
        let step = ukr.pack_layout().k_step();
        if b_tiles && ukr.reads_b_tiles() {
            let strip = self.l2_bytes / 2 / T::BYTES / d.shape.mc.max(1);
            d.shape.kc = d.shape.kc.max(strip / TILE_K * TILE_K).min(k);
        }
        if d.shape.kc < k {
            d.shape.kc = ((d.shape.kc / step).max(1) * step).min(k);
        }
        d.lru_ok = d.shape.fits_llc_lru(self.llc_bytes, T::BYTES);
        d.kernel = ukr.name();
        d.k_step = step;
        d
    }
}

/// A reusable GEMM context: keeps the worker pool **and** one packed-operand
/// [`GemmWorkspace`] per element type alive across calls (e.g. one call per
/// DNN layer), so a steady stream of GEMMs performs zero heap allocations
/// after the first call per shape class. It is the one place a
/// [`CakeConfig`] becomes a kernel and a CB block.
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

    /// Stats of the most recent GEMM through this context, resetting the
    /// record to all-zero (it is all-zero before the first call and after
    /// a call with a zero extent). Lets a caller attribute GEMM work to a
    /// code region (e.g. one DNN layer): take a reading after the region
    /// and any zero result means no GEMM ran there.
    pub fn take_stats(&self) -> ExecStats {
        std::mem::take(&mut *self.last_stats.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// `C += A * B` reusing this context's pool and workspace. `A` is a
    /// [`Matrix`], or a [`PackedA`] from [`prepack`](Self::prepack), which
    /// runs with the kernel and block depth it was packed for. `B` is a
    /// [`Matrix`] or any other [`PackB`] operand, such as a convolution's
    /// patch matrix lowered as it is packed, or its input already in the
    /// AMX kernel's tile layout ([`TiledB`](cake_kernels::pack::TiledB)),
    /// which that kernel reads in place.
    ///
    /// `C` is over the accumulator type `T::Acc` — identical to `T` for
    /// f32/f64, widened for the narrow-dtype tier (`i8 -> i32`,
    /// `Bf16 -> f32`), so int8 reductions are exact and bf16 reductions
    /// keep f32 precision regardless of `K`.
    ///
    /// # Panics
    /// Panics on dimension mismatch (`A: MxK`, `B: KxN`, `C: MxN`), zero
    /// extents included.
    pub fn gemm<T: KernelSelect>(&self, a: &impl AsOperandA<T>, b: &impl PackB<T>, c: &mut Matrix<T::Acc>) {
        let _ = self.gemm_with_stats(a, b, c);
    }

    /// [`gemm`](Self::gemm), returning the call's measured [`ExecStats`]
    /// (all-zero when an extent is zero), which
    /// [`take_stats`](Self::take_stats) also returns until the next call.
    pub fn gemm_with_stats<T: KernelSelect>(
        &self,
        a: &impl AsOperandA<T>,
        b: &impl PackB<T>,
        c: &mut Matrix<T::Acc>,
    ) -> ExecStats {
        let a = a.as_operand_a();
        let ((m, k), n) = (a.dims(), b.cols());
        assert_dims((m, k), (b.rows(), n), (c.rows(), c.cols()));
        let stats = if m == 0 || k == 0 || n == 0 {
            ExecStats::default()
        } else {
            // A pre-packed A runs with the kernel and the block depth it
            // records, so packing under one context and running under
            // another stays correct. The shape's `mc` is a multiple of
            // that kernel's `mr` (`clamp_to_problem`), so every strip
            // starts on a sliver of the packed A.
            let (ukr, packed_kc) = match a {
                OperandA::Packed(pa) => (*pa.kernel(), Some(pa.kc())),
                OperandA::Matrix(_) => (cake_kernels::best_kernel_for_depth::<T>(k), None),
            };
            let mut shape = self.cfg.explain_shape_with(m, k, n, &ukr, b.tiled_b().is_some()).shape;
            if let Some(kc) = packed_kc {
                shape.kc = kc;
            }
            let mut map = self.workspaces.lock().unwrap_or_else(|p| p.into_inner());
            let ws = map
                .entry(TypeId::of::<T>())
                // audit: cold first-use workspace creation, memoized per dtype
                .or_insert_with(|| Box::new(GemmWorkspace::<T>::new()) as Box<dyn Any + Send>)
                .downcast_mut::<GemmWorkspace<T>>()
                .expect("workspace map is keyed by element TypeId");
            execute_with_stats_in(&a, b, &mut c.view_mut(), &shape, &ukr, &self.pool, ws)
        };
        *self.last_stats.lock().unwrap_or_else(|p| p.into_inner()) = stats;
        stats
    }

    /// Pack `a` once for the GEMMs this context runs it in: in the layout
    /// of the kernel [`gemm`](Self::gemm) would pick for `a`'s depth, one
    /// block at the depth `kc` its blocks would have. That depth is
    /// `min(analytic kc, K)`, cut to whole k-steps of the layout, which
    /// does not depend on `N`, so the packed A serves every call. On a
    /// kernel that reads B tiles in place (AMX) it is the depth of a call
    /// whose B is read in place, bounded by the A strip alone, so that
    /// call sweeps C once for a short-fat convolution's K; a call whose B
    /// is packed runs at that depth too.
    /// Passing the result as `A` skips the per-call pack of every strip.
    // audit: cold one-time weight pack, before any GEMM reads it
    pub fn prepack<T: KernelSelect>(&self, a: &Matrix<T>) -> PackedA<T> {
        let (m, k) = (a.rows(), a.cols());
        let ukr = cake_kernels::best_kernel_for_depth::<T>(k);
        let kc = self.cfg.explain_shape_with(m, k, 1, &ukr, true).shape.kc;
        PackedA::new(&a.view(), ukr, kc)
    }
}

/// Full BLAS-semantics GEMM: `C = alpha * A * B + beta * C`.
///
/// `alpha`/`beta` here are the BLAS scalars, unrelated to the CB block's
/// aspect factor (`CakeConfig::alpha`). Fast paths: `beta = 1` skips the
/// C pre-scale, `alpha = 1` avoids the temporary product buffer. Limited
/// to dtypes that accumulate in their own type (`Acc = T`): the BLAS
/// scalar convention has no widened-C analogue. The product runs through
/// one [`CakeGemm`] built from `cfg`.
///
/// # Panics
/// Panics on dimension mismatch before touching `C`, even when
/// `alpha = 0` skips the product.
pub fn cake_gemm_scaled<T: Element + KernelSelect<Acc = T>>(
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
    cfg: &CakeConfig,
) {
    assert_dims((a.rows(), a.cols()), (b.rows(), b.cols()), (c.rows(), c.cols()));
    // BLAS reads no C when `beta = 0`: overwrite instead of scaling, so a
    // NaN or Inf already in C does not survive as `NaN * 0`.
    if beta == T::ZERO {
        c.as_mut_slice().fill(T::ZERO);
    } else if beta != T::ONE {
        for v in c.as_mut_slice() {
            *v = *v * beta;
        }
    }
    if alpha == T::ZERO {
        return;
    }
    let ctx = CakeGemm::new(cfg.clone());
    if alpha == T::ONE {
        ctx.gemm(a, b, c);
        return;
    }
    // General case: accumulate into a zero temporary, then fold in scaled.
    let mut t = Matrix::<T>::zeros(c.rows(), c.cols());
    ctx.gemm(a, b, &mut t);
    for (dst, &src) in c.as_mut_slice().iter_mut().zip(t.as_slice()) {
        *dst += alpha * src;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_matrix::compare::assert_gemm_eq;
    use cake_matrix::{init, Bf16, MatrixView, MatrixViewMut};

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

    /// An f32 GEMM over strided or transposed views at `p` workers: the
    /// block the context would pick, through the executor entry.
    fn gemm_views(
        a: &MatrixView<'_, f32>,
        b: &MatrixView<'_, f32>,
        c: &mut MatrixViewMut<'_, f32>,
        p: usize,
    ) {
        let cfg = CakeConfig::with_threads(p);
        let ukr = cake_kernels::best_kernel_for_depth::<f32>(a.cols());
        let shape = cfg.explain_shape(a.rows(), a.cols(), b.cols(), ukr.mr(), ukr.nr(), 4).shape;
        let pool = ThreadPool::new(topology::effective_p(p));
        execute_with_stats_in(a, b, c, &shape, &ukr, &pool, &mut GemmWorkspace::new());
    }

    #[test]
    fn sgemm_matches_reference_default_config() {
        let (m, k, n) = (70, 55, 90);
        let a = init::random::<f32>(m, k, 1);
        let b = init::random::<f32>(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        CakeGemm::new(CakeConfig::default()).gemm(&a, &b, &mut c);
        assert_gemm_eq(&c, &naive(&a, &b), k);
    }

    #[test]
    fn dgemm_matches_reference() {
        let (m, k, n) = (33, 47, 29);
        let a = init::random::<f64>(m, k, 3);
        let b = init::random::<f64>(k, n, 4);
        let mut c = Matrix::<f64>::zeros(m, n);
        CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c);
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
            CakeGemm::new(cfg).gemm(&a, &b, &mut c);
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
            assert_eq!(ctx.take_stats(), stats);
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
        // One-shot context.
        let mut c = Matrix::<i32>::zeros(m, n);
        CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c);
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
        CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c);
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
    fn prepacked_a_runs_through_the_context() {
        // K = 500 spans several k-blocks of the default depth, the last
        // one partial; M = 61 is off every kernel's sliver height.
        let ctx = CakeGemm::new(CakeConfig::with_threads(2));
        let a = init::random::<f32>(61, 500, 1);
        let b = init::random::<f32>(500, 37, 2);
        let packed = ctx.prepack(&a);
        assert!(packed.kc() < 500, "several k-blocks");
        let mut c_rows = Matrix::<f32>::zeros(61, 37);
        let s_rows = ctx.gemm_with_stats(&a, &b, &mut c_rows);
        let mut c_packed = Matrix::<f32>::zeros(61, 37);
        let s_packed = ctx.gemm_with_stats(&packed, &b, &mut c_packed);
        let bits = |c: &Matrix<f32>| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c_rows), bits(&c_packed));
        assert_eq!((s_packed.kernel, s_packed.blocks), (s_rows.kernel, s_rows.blocks));
        assert_eq!(s_packed.pack_a_ns, 0);
        assert_eq!(ctx.take_stats(), s_packed);

        // Packed under another context (a smaller L2, so a shallower kc):
        // the context runs it at the depth it was packed for.
        let small = CakeGemm::new(CakeConfig { l2_bytes: 16 * 1024, ..CakeConfig::with_threads(1) });
        let packed_small = small.prepack(&a);
        assert!(packed_small.kc() < packed.kc());
        let mut c = Matrix::<f32>::zeros(61, 37);
        ctx.gemm(&packed_small, &b, &mut c);
        assert_gemm_eq(&c, &naive(&a, &b), 500);

        // int8 is exact either way, on the kernel the context picks.
        let ai = init::random_i8(45, 700, 3);
        let bi = init::random_i8(700, 29, 4);
        let mut want = Matrix::<i32>::zeros(45, 29);
        ctx.gemm(&ai, &bi, &mut want);
        for packer in [&ctx, &small] {
            let mut c = Matrix::<i32>::zeros(45, 29);
            ctx.gemm(&packer.prepack(&ai), &bi, &mut c);
            assert_eq!(c.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn b_read_in_place_keeps_a_short_fat_k_in_one_block() {
        // The group-order convs of the benchmark net: conv2 and conv3 at K
        // 384, conv4 at 576. With a B panel to fit they split at 320; read
        // in place, the A strip alone bounds kc and K is one block.
        let cfg = CakeConfig::with_threads(1);
        let Some(amx) = cake_kernels::tier_kernel::<i8>(cake_kernels::KernelTier::Amx) else {
            return;
        };
        for (m, k, n) in [(32, 384, 4096), (64, 384, 1024), (128, 576, 256)] {
            let packed = cfg.explain_shape_with(m, k, n, &amx, false);
            let tiled = cfg.explain_shape_with(m, k, n, &amx, true);
            assert!(packed.shape.kc < k && packed.shape.kc.is_multiple_of(64), "{m}x{k}x{n}: {}", packed.shape);
            assert_eq!(tiled.shape.kc, k, "{m}x{k}x{n}");
            assert_eq!((tiled.shape.mc, tiled.shape.nc), (packed.shape.mc, packed.shape.nc));
        }
        // The weights of such a call pack at its depth.
        let ctx = CakeGemm::new(cfg.clone());
        for (m, k) in [(32, 384), (64, 384), (128, 576)] {
            assert_eq!(ctx.prepack(&init::random_i8(m, k, 5)).kc(), k, "{m}x{k}");
        }
        // A deeper K stops at the strip's bound, in whole k-steps; a kernel
        // that does not read B tiles keeps the packed depth.
        let deep = cfg.explain_shape_with(256, 4096, 64, &amx, true).shape;
        assert_eq!(deep.kc, cfg.l2_bytes / 2 / deep.mc / 64 * 64);
        let vnni = cake_kernels::tier_kernel::<i8>(cake_kernels::KernelTier::Avx512).expect("AVX-512 under AMX");
        assert_eq!(cfg.explain_shape_with(32, 384, 4096, &vnni, true).shape, cfg.explain_shape_with(32, 384, 4096, &vnni, false).shape);
    }

    #[test]
    fn kc_short_of_k_is_whole_k_steps_of_the_layout() {
        // The benchmark net's int8 conv4 and conv5 weights (M x K): the
        // closed form's int8 kc (352 at the default L2) is short of K, and
        // on the AMX tile layout a kc off its 64-deep step would pad every
        // k-block. Cut to whole steps, the weights pack to exactly their
        // row-major bytes on every int8 layout (M is a multiple of every
        // int8 kernel's mr), and the pack and the explanation of the calls
        // it serves agree on kc. On a kernel that reads B tiles those are
        // calls whose B is read in place, at the A strip's depth: conv4's
        // K then fits one block, and conv5's is cut to whole steps.
        let ctx = CakeGemm::new(CakeConfig::with_threads(1));
        for (m, k, kib) in [(128, 576, 72), (256, 1152, 288)] {
            let packed = ctx.prepack(&init::random_i8(m, k, 9));
            let step = packed.kernel().pack_layout().k_step();
            let d = ctx.cfg.explain_shape_with(m, k, 64, packed.kernel(), true);
            if !packed.kernel().reads_b_tiles() {
                assert_eq!(d.shape, ctx.cfg.explain_shape_for::<i8>(m, k, 64).shape);
            }
            if packed.kernel().reads_b_tiles() && k == 576 {
                assert_eq!(packed.kc(), k);
            } else {
                assert!(
                    packed.kc() < k && packed.kc().is_multiple_of(step),
                    "kc {} step {step}",
                    packed.kc()
                );
            }
            assert_eq!(
                (d.shape.kc, d.k_step, d.kernel),
                (packed.kc(), step, packed.kernel().name())
            );
            assert_eq!(packed.bytes(), kib * 1024, "{m}x{k} on {}", d.kernel);
        }
        // A kc that already spans K is never cut.
        assert_eq!(ctx.cfg.explain_shape_for::<i8>(64, 288, 64).shape.kc, 288);
    }

    #[test]
    fn shape_clamp_keeps_all_workers_busy() {
        let cfg = CakeConfig::with_threads(4);
        // Small M: strip must shrink so all 4 workers see rows.
        let s = cfg.explain_shape(40, 512, 512, 6, 16, 4).shape;
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
        // One-shot context.
        let mut c = Matrix::<f32>::zeros(32, 40);
        CakeGemm::new(cfg.clone()).gemm(&a, &b, &mut c);
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
        let s1 = big.explain_shape(4096, 4096, 4096, 6, 16, 4).shape;
        let big4 = CakeConfig {
            l2_bytes: 64 * 1024 * 1024,
            ..CakeConfig::tuned_for(4, 20 * 1024 * 1024)
        };
        let s4 = big4.explain_shape(4096, 4096, 4096, 6, 16, 4).shape;
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
        let d = cfg.explain_shape(256, 256, 256, 6, 16, 4);
        assert_eq!(d.requested_p, 2);
        assert_eq!(d.effective_p, crate::topology::effective_p(2));
        assert_eq!(d.host_cores, crate::topology::available_cores());
        assert_eq!(d.shape, d.analytic.clamp_to_problem(256, 256, 256, 6, 16));
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
        let d2 = cfg2.explain_shape(256, 256, 256, 6, 16, 4);
        assert_eq!(d2.alpha_source, crate::tune::AlphaSource::Explicit);
        assert_eq!(d2.alpha, 2.0);
        let cfg3 = CakeConfig {
            dram_bw_gbs: Some(8.0),
            ..CakeConfig::tuned_for(2, 16 * 1024 * 1024)
        };
        let d3 = cfg3.explain_shape(256, 256, 256, 6, 16, 4);
        assert_eq!(d3.alpha_source, crate::tune::AlphaSource::BandwidthModel);
    }

    #[test]
    fn explain_shape_for_records_selected_kernel() {
        let cfg = CakeConfig::tuned_for(1, 16 * 1024 * 1024);
        let ukr = cake_kernels::best_kernel_for_depth::<f32>(256);
        let d = cfg.explain_shape_for::<f32>(256, 256, 256);
        assert_eq!(d.kernel, ukr.name());
        // Every f32 layout is k-major: the closed form's kc stands.
        assert_eq!(d.k_step, 1);
        assert_eq!(d.shape, cfg.explain_shape(256, 256, 256, ukr.mr(), ukr.nr(), 4).shape);
        assert!(d.render().contains(d.kernel));
    }

    #[test]
    fn zero_dimension_noop() {
        let a = Matrix::<f32>::zeros(0, 8);
        let b = Matrix::<f32>::zeros(8, 8);
        let mut c = Matrix::<f32>::zeros(0, 8);
        CakeGemm::new(CakeConfig::default()).gemm(&a, &b, &mut c); // must not panic
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
        gemm_views(&av, &bv, &mut cv, 1);

        let expected = naive(&at, &b);
        assert_gemm_eq(&c, &expected, 30);

        // Now the genuinely transposed case: C2 += at^T * b2.
        let b2 = init::random::<f32>(20, 10, 13);
        let mut c2 = Matrix::<f32>::zeros(30, 10);
        let av_t = at.view().t(); // 30x20, strided
        let b2v = b2.view();
        let mut c2v = c2.view_mut();
        gemm_views(&av_t, &b2v, &mut c2v, 1);
        let expected2 = naive(&at.transposed(), &b2);
        assert_gemm_eq(&c2, &expected2, 20);
    }

    #[test]
    fn transposed_operand_views() {
        let a = init::random::<f32>(20, 30, 21); // stored 20x30
        let b = init::random::<f32>(10, 30, 22); // stored 10x30
        // C (20x10) += A * B^T.
        let mut c = Matrix::<f32>::zeros(20, 10);
        gemm_views(&a.view(), &b.view().t(), &mut c.view_mut(), 2);
        let expected = naive(&a, &b.transposed());
        assert_gemm_eq(&c, &expected, 30);

        // C2 (30x30) += A^T * ... pick A^T (30x20) * B2 (20x30).
        let b2 = init::random::<f32>(20, 30, 23);
        let mut c2 = Matrix::<f32>::zeros(30, 30);
        gemm_views(&a.view().t(), &b2.view(), &mut c2.view_mut(), 2);
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

        // beta = 0 replaces prior contents with A*B.
        let mut c = c0.clone();
        cake_gemm_scaled(1.0f32, &a, &b, 0.0, &mut c, &cfg);
        assert_gemm_eq(&c, &ab, k);

        // alpha = 0 leaves beta*C only.
        let mut c = c0.clone();
        cake_gemm_scaled(0.0f32, &a, &b, 2.0, &mut c, &cfg);
        let doubled = Matrix::from_fn(m, n, |i, j| 2.0 * c0.get(i, j));
        assert_gemm_eq(&c, &doubled, 1);
    }

    /// `beta = 0` must not read C: a C filled with NaN or Inf comes back as
    /// exactly `alpha * A * B`, for both float dtypes and both the
    /// `alpha = 1` and the general path.
    fn beta_zero_ignores_c<T: Element + KernelSelect<Acc = T> + From<f32>>() {
        let (m, k, n) = (9, 7, 11);
        let a = init::random::<T>(m, k, 41);
        let b = init::random::<T>(k, n, 42);
        let cfg = CakeConfig::with_threads(1);
        let ab = naive(&a, &b);
        for alpha in [1.0f32, 2.5] {
            let alpha = T::from(alpha);
            let expected = Matrix::from_fn(m, n, |i, j| alpha * ab.get(i, j));
            for fill in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut c = Matrix::from_fn(m, n, |_, _| T::from(fill));
                cake_gemm_scaled(alpha, &a, &b, T::ZERO, &mut c, &cfg);
                assert_gemm_eq(&c, &expected, k);
            }
        }
    }

    #[test]
    #[should_panic(expected = "A is 4x5 but B has 6 rows")]
    fn gemm_scaled_checks_shapes_even_when_alpha_is_zero() {
        let mut c = Matrix::<f32>::zeros(3, 3);
        let (a, b) = (Matrix::<f32>::zeros(4, 5), Matrix::<f32>::zeros(6, 4));
        cake_gemm_scaled(0.0f32, &a, &b, 2.0, &mut c, &CakeConfig::with_threads(1));
    }

    #[test]
    fn gemm_scaled_beta_zero_ignores_nan_and_inf_in_c() {
        beta_zero_ignores_c::<f32>();
        beta_zero_ignores_c::<f64>();
    }
}
