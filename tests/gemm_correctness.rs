//! Cross-implementation correctness: CAKE and GOTO against the naive
//! reference over shapes, dtypes, thread counts, and layouts.

use cake::matrix::compare::assert_gemm_eq;
use cake::matrix::{init, Layout, Matrix};
use cake::prelude::*;
use proptest::prelude::*;

fn naive<T: cake::matrix::Element>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::<T>::zeros(a.rows(), b.cols());
    cake::goto::naive::naive_gemm_views(&a.view(), &b.view(), &mut c.view_mut());
    c
}

#[test]
fn cake_matches_naive_across_shape_grid() {
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (2, 3, 4),
        (16, 16, 16),
        (17, 19, 23),
        (64, 8, 64),
        (8, 64, 8),
        (100, 100, 100),
        (128, 1, 128),
        (1, 128, 1),
        (96, 192, 48),
    ] {
        let a = init::random::<f32>(m, k, 1);
        let b = init::random::<f32>(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c);
        assert_gemm_eq(&c, &naive(&a, &b), k);
    }
}

#[test]
fn goto_matches_naive_across_shape_grid() {
    for &(m, k, n) in &[(1usize, 1usize, 1usize), (17, 19, 23), (100, 100, 100), (64, 8, 64)] {
        let a = init::random::<f32>(m, k, 3);
        let b = init::random::<f32>(k, n, 4);
        let mut c = Matrix::<f32>::zeros(m, n);
        goto_gemm(&a, &b, &mut c, &GotoConfig::with_threads(2));
        assert_gemm_eq(&c, &naive(&a, &b), k);
    }
}

#[test]
fn thread_counts_agree() {
    let (m, k, n) = (73, 61, 89);
    let a = init::random::<f32>(m, k, 5);
    let b = init::random::<f32>(k, n, 6);
    let reference = naive(&a, &b);
    for p in [1usize, 2, 3, 4, 7] {
        let mut c = Matrix::<f32>::zeros(m, n);
        CakeGemm::new(CakeConfig::with_threads(p)).gemm(&a, &b, &mut c);
        assert_gemm_eq(&c, &reference, k);
    }
}

#[test]
fn integer_matrices_are_exact() {
    // Small-integer entries with K <= 64: every product is exactly
    // representable, so all implementations must agree bit-for-bit.
    let (m, k, n) = (48, 32, 56);
    let a = init::random_ints::<f32>(m, k, 7);
    let b = init::random_ints::<f32>(k, n, 8);
    let reference = naive(&a, &b);
    let mut c1 = Matrix::<f32>::zeros(m, n);
    let mut c2 = Matrix::<f32>::zeros(m, n);
    CakeGemm::new(CakeConfig::with_threads(3)).gemm(&a, &b, &mut c1);
    goto_gemm(&a, &b, &mut c2, &GotoConfig::with_threads(3));
    assert_eq!(c1.as_slice(), reference.as_slice());
    assert_eq!(c2.as_slice(), reference.as_slice());
}

#[test]
fn f64_agrees_between_algorithms() {
    let (m, k, n) = (45, 52, 38);
    let a = init::random::<f64>(m, k, 9);
    let b = init::random::<f64>(k, n, 10);
    let mut c1 = Matrix::<f64>::zeros(m, n);
    let mut c2 = Matrix::<f64>::zeros(m, n);
    CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c1);
    goto_gemm(&a, &b, &mut c2, &GotoConfig::with_threads(2));
    assert_gemm_eq(&c1, &c2, k);
}

#[test]
fn column_major_operands() {
    let (m, k, n) = (30, 40, 20);
    let a = init::random::<f32>(m, k, 11).to_layout(Layout::ColMajor);
    let b = init::random::<f32>(k, n, 12).to_layout(Layout::ColMajor);
    let mut c = Matrix::<f32>::zeros_with_layout(m, n, Layout::ColMajor);
    CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c);
    let expected = naive(&a, &b);
    assert_gemm_eq(&c.to_layout(Layout::RowMajor), &expected, k);
}

#[test]
fn repeated_accumulation_is_linear() {
    // Running GEMM twice must equal one GEMM with doubled A.
    let (m, k, n) = (24, 24, 24);
    let a = init::random::<f32>(m, k, 13);
    let b = init::random::<f32>(k, n, 14);
    let a2 = Matrix::from_fn(m, k, |i, j| 2.0 * a.get(i, j));

    let cfg = CakeConfig::with_threads(2);
    let mut c_twice = Matrix::<f32>::zeros(m, n);
    CakeGemm::new(cfg.clone()).gemm(&a, &b, &mut c_twice);
    CakeGemm::new(cfg.clone()).gemm(&a, &b, &mut c_twice);

    let mut c_double = Matrix::<f32>::zeros(m, n);
    CakeGemm::new(cfg).gemm(&a2, &b, &mut c_double);
    assert_gemm_eq(&c_twice, &c_double, 2 * k);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cake_matches_naive_random_shapes(
        m in 1usize..80,
        k in 1usize..80,
        n in 1usize..80,
        p in 1usize..4,
        seed in 0u64..1000,
    ) {
        let a = init::random::<f32>(m, k, seed);
        let b = init::random::<f32>(k, n, seed + 1);
        let mut c = Matrix::<f32>::zeros(m, n);
        CakeGemm::new(CakeConfig::with_threads(p)).gemm(&a, &b, &mut c);
        let expected = naive(&a, &b);
        let tol = cake::matrix::compare::gemm_tolerance::<f32>(k);
        prop_assert!(cake::matrix::approx_eq(&c, &expected, tol));
    }

    #[test]
    fn goto_matches_cake_random_shapes(
        m in 1usize..60,
        k in 1usize..60,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        let a = init::random::<f32>(m, k, seed);
        let b = init::random::<f32>(k, n, seed + 1);
        let mut c1 = Matrix::<f32>::zeros(m, n);
        let mut c2 = Matrix::<f32>::zeros(m, n);
        CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c1);
        goto_gemm(&a, &b, &mut c2, &GotoConfig::with_threads(2));
        let tol = cake::matrix::compare::gemm_tolerance::<f32>(k);
        prop_assert!(cake::matrix::approx_eq(&c1, &c2, tol));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The low-level executor with arbitrary CB shapes (not just the
    /// config-derived ones) must stay correct: random block geometry,
    /// random worker counts, ragged everything.
    #[test]
    fn executor_correct_for_random_cb_shapes(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        p in 1usize..4,
        mc in 4usize..24,
        kc in 4usize..24,
        nc in 8usize..40,
        seed in 0u64..1000,
    ) {
        use cake::core::executor::execute_with_stats_in;
        use cake::core::pool::ThreadPool;
        use cake::core::shape::CbBlockShape;
        use cake::core::workspace::GemmWorkspace;

        let a = init::random::<f32>(m, k, seed);
        let b = init::random::<f32>(k, n, seed + 1);
        let mut c = Matrix::<f32>::zeros(m, n);
        let shape = CbBlockShape::fixed(p, mc, kc, nc);
        let pool = ThreadPool::new(p);
        let ukr = cake::kernels::best_kernel::<f32>();
        let mut ws = GemmWorkspace::new();
        execute_with_stats_in(&a.view(), &b.view(), &mut c.view_mut(), &shape, &ukr, &pool, &mut ws);

        let expected = naive(&a, &b);
        let tol = cake::matrix::compare::gemm_tolerance::<f32>(k);
        prop_assert!(cake::matrix::approx_eq(&c, &expected, tol));
    }
}
