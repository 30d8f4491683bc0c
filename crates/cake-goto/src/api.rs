//! Drop-in GOTO GEMM entry point, mirroring `cake_core::api`.

use cake_core::pool::ThreadPool;
use cake_kernels::select::KernelSelect;
use cake_matrix::{Matrix, MatrixView, MatrixViewMut};

use crate::loops5::execute;
use crate::params::GotoParams;

/// Configuration for a GOTO GEMM call.
#[derive(Debug, Clone)]
pub struct GotoConfig {
    /// Worker threads (`p`). `None` = all available cores.
    pub threads: Option<usize>,
    /// Per-core private (L2) cache size in bytes.
    pub l2_bytes: usize,
    /// Shared last-level cache size in bytes.
    pub llc_bytes: usize,
    /// Force the portable kernel.
    pub force_portable_kernel: bool,
}

impl Default for GotoConfig {
    fn default() -> Self {
        Self {
            threads: None,
            l2_bytes: 256 * 1024,
            llc_bytes: 16 * 1024 * 1024,
            force_portable_kernel: false,
        }
    }
}

impl GotoConfig {
    /// Config pinned to `p` threads.
    pub fn with_threads(p: usize) -> Self {
        Self {
            threads: Some(p),
            ..Self::default()
        }
    }

    /// Resolve the thread count.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    }

    /// Resolve blocking parameters for a kernel shape / element size.
    pub fn resolve_params(&self, mr: usize, nr: usize, elem_bytes: usize) -> GotoParams {
        GotoParams::derive(
            self.resolved_threads(),
            self.l2_bytes,
            self.llc_bytes,
            elem_bytes,
            mr,
            nr,
        )
    }
}

/// `C += A * B` with the GOTO algorithm (generic; `C` over `T::Acc`).
pub fn goto_gemm<T: KernelSelect>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T::Acc>,
    cfg: &GotoConfig,
) {
    let (av, bv) = (a.view(), b.view());
    let mut cv = c.view_mut();
    goto_gemm_views(&av, &bv, &mut cv, cfg);
}

/// View-level GOTO GEMM.
pub fn goto_gemm_views<T: KernelSelect>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    c: &mut MatrixViewMut<'_, T::Acc>,
    cfg: &GotoConfig,
) {
    if a.rows() == 0 || a.cols() == 0 || b.cols() == 0 {
        return;
    }
    let ukr = if cfg.force_portable_kernel {
        cake_kernels::portable_kernel::<T>()
    } else {
        cake_kernels::best_kernel::<T>()
    };
    let params = cfg.resolve_params(ukr.mr(), ukr.nr(), T::BYTES);
    let pool = ThreadPool::new(params.p);
    execute(a, b, c, &params, &ukr, &pool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_gemm;
    use cake_matrix::compare::assert_gemm_eq;
    use cake_matrix::init;

    #[test]
    fn goto_gemm_matches_naive() {
        let (m, k, n) = (65, 43, 77);
        let a = init::random::<f32>(m, k, 41);
        let b = init::random::<f32>(k, n, 42);
        let mut c = Matrix::<f32>::zeros(m, n);
        let mut expected = Matrix::<f32>::zeros(m, n);
        goto_gemm(&a, &b, &mut c, &GotoConfig::with_threads(2));
        naive_gemm(&a, &b, &mut expected);
        assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn goto_and_cake_agree() {
        let (m, k, n) = (50, 60, 40);
        let a = init::random::<f32>(m, k, 43);
        let b = init::random::<f32>(k, n, 44);
        let mut c_goto = Matrix::<f32>::zeros(m, n);
        let mut c_cake = Matrix::<f32>::zeros(m, n);
        goto_gemm(&a, &b, &mut c_goto, &GotoConfig::with_threads(2));
        cake_core::api::CakeGemm::new(cake_core::api::CakeConfig::with_threads(2))
            .gemm(&a, &b, &mut c_cake);
        assert_gemm_eq(&c_goto, &c_cake, k);
    }

    #[test]
    fn f64_and_portable_kernel() {
        let (m, k, n) = (31, 29, 37);
        let a = init::random::<f64>(m, k, 45);
        let b = init::random::<f64>(k, n, 46);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut expected = Matrix::<f64>::zeros(m, n);
        let cfg = GotoConfig {
            threads: Some(1),
            force_portable_kernel: true,
            ..GotoConfig::default()
        };
        goto_gemm(&a, &b, &mut c, &cfg);
        naive_gemm(&a, &b, &mut expected);
        assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn zero_dims_noop() {
        let a = Matrix::<f32>::zeros(4, 0);
        let b = Matrix::<f32>::zeros(0, 4);
        let mut c = init::ones::<f32>(4, 4);
        goto_gemm(&a, &b, &mut c, &GotoConfig::default());
        assert_eq!(c.sum_f64(), 16.0);
    }
}
