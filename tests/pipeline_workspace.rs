//! The pipelined executor and the reusable workspace, exercised the way a
//! framework would use them: one long-lived [`GemmWorkspace`] fed arbitrary
//! problems — strided views, transposed operands, column-major storage,
//! shrinking and growing shapes — with the double-buffered packing path
//! checked against the naive reference every time.

use cake::core::executor::execute_with_stats_in;
use cake::core::pool::ThreadPool;
use cake::core::shape::CbBlockShape;
use cake::core::workspace::GemmWorkspace;
use cake::matrix::{init, Layout, Matrix};
use proptest::prelude::*;

fn naive(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    let mut c = Matrix::<f32>::zeros(a.rows(), b.cols());
    cake::goto::naive::naive_gemm_views(&a.view(), &b.view(), &mut c.view_mut());
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pipelined executor vs naive for arbitrary problem and CB-block
    /// geometry, with every operand presented as a *strided* view: A
    /// transposed (column-major access), B a sub-view of a larger parent,
    /// C column-major. The double-buffered pack paths must handle all of
    /// them — the fast `copy_from_slice` routes only fire where strides
    /// permit, and must agree with the element-wise fallback elsewhere.
    #[test]
    fn pipelined_executor_matches_naive_on_strided_views(
        m in 1usize..60,
        k in 1usize..60,
        n in 1usize..60,
        p in 1usize..4,
        mc in 4usize..20,
        kc in 4usize..20,
        nc in 8usize..36,
        seed in 0u64..1000,
    ) {
        // A stored transposed (k x m), used through .t(): row stride 1
        // becomes column stride 1 — pack_a's contiguous_col fast path.
        let at = init::random::<f32>(k, m, seed);
        // B embedded in a larger parent, used through .sub(): strided rows.
        let b_parent = init::random::<f32>(k + 3, n + 5, seed + 1);
        let a_dense = Matrix::from_fn(m, k, |i, j| at.get(j, i));
        let b_dense = Matrix::from_fn(k, n, |i, j| b_parent.get(i + 2, j + 4));
        let expected = naive(&a_dense, &b_dense);

        let shape = CbBlockShape::fixed(p, mc, kc, nc);
        let pool = ThreadPool::new(p);
        let ukr = cake::kernels::best_kernel::<f32>();
        let mut ws = GemmWorkspace::new();

        // Row-major C through the shared workspace.
        let mut c = Matrix::<f32>::zeros(m, n);
        let av = at.view().t();
        let bv = b_parent.view().sub(2, 4, k, n);
        execute_with_stats_in(&av, &bv, &mut c.view_mut(), &shape, &ukr, &pool, &mut ws);
        let tol = cake::matrix::compare::gemm_tolerance::<f32>(k);
        prop_assert!(cake::matrix::approx_eq(&c, &expected, tol));

        // Column-major C, reusing the same (now warm) workspace.
        let mut cc = Matrix::<f32>::zeros_with_layout(m, n, Layout::ColMajor);
        let stats = execute_with_stats_in(
            &av, &bv, &mut cc.view_mut(), &shape, &ukr, &pool, &mut ws,
        );
        prop_assert_eq!(stats.allocations, 0, "second call through the workspace allocated");
        prop_assert!(cake::matrix::approx_eq(&cc.to_layout(Layout::RowMajor), &expected, tol));
    }
}

/// At least 100 back-to-back GEMMs of cycling shapes through ONE workspace:
/// after the largest shape class has been seen once, every later call must
/// be allocation-free, and every result must stay correct (stale panel data
/// from earlier calls must never leak through the never-zeroed buffers).
#[test]
fn hundred_gemms_share_one_workspace() {
    let p = 2;
    let shape = CbBlockShape::fixed(p, 8, 12, 16);
    let pool = ThreadPool::new(p);
    let ukr = cake::kernels::best_kernel::<f32>();
    let mut ws = GemmWorkspace::new();

    // Shape cycle: grows then shrinks, ragged on purpose.
    let dims = [(24usize, 24usize, 24usize), (17, 31, 9), (40, 12, 33), (5, 5, 48)];
    let mut calls = 0;
    let mut allocs_after_warmup = 0;
    for round in 0..25 {
        for (ci, &(m, k, n)) in dims.iter().enumerate() {
            let seed = (round * dims.len() + ci) as u64;
            let a = init::random::<f32>(m, k, seed);
            let b = init::random::<f32>(k, n, seed + 7777);
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
            calls += 1;
            if round > 0 {
                allocs_after_warmup += stats.allocations;
            }
            assert_eq!(stats.barriers, stats.blocks, "one rotation barrier per block");
            let expected = naive(&a, &b);
            let tol = cake::matrix::compare::gemm_tolerance::<f32>(k);
            assert!(
                cake::matrix::approx_eq(&c, &expected, tol),
                "call {calls} ({m}x{k}x{n}) diverged from reference"
            );
        }
    }
    assert!(calls >= 100, "stress test must run >= 100 GEMMs, ran {calls}");
    assert_eq!(
        allocs_after_warmup, 0,
        "workspace must be allocation-free after the first round"
    );
    // The single fixed block shape needs one A-strip sizing plus the B
    // panel ring: two panels up front, and a third once the k = 31 problem
    // (three k-blocks at bk = 12) deepens the ring.
    assert_eq!(ws.allocations(), 4);
}

/// 100 back-to-back GEMMs with *shrinking* shapes — problem extents AND
/// CB-block geometry both monotonically non-increasing — through one
/// workspace. The first (largest) call sizes every buffer; all 99 later
/// calls must be allocation-free, and each result must be byte-identical
/// to the same GEMM run through a fresh workspace: shrinking `pa_stride`
/// and panel sizes over buffers still holding larger stale panels must
/// never leak a single stale bit into the output.
#[test]
fn shrinking_shapes_are_alloc_free_and_byte_identical() {
    let p = 2;
    let pool = ThreadPool::new(p);
    let ukr = cake::kernels::best_kernel::<f32>();
    let mut warm = GemmWorkspace::new();

    for call in 0..100usize {
        // 64 down to 8, never increasing; block geometry shrinks with it.
        let s = 64 - (call * 56) / 99;
        let (m, k, n) = (s, s.max(9) - 1, s + 3);
        let shape = CbBlockShape::fixed(p, (s / 8).max(2), (s / 8).max(2), (s / 4).max(4));

        let a = init::random::<f32>(m, k, call as u64);
        let b = init::random::<f32>(k, n, call as u64 + 5000);
        let mut c = Matrix::<f32>::zeros(m, n);
        let stats = execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &ukr,
            &pool,
            &mut warm,
        );
        if call == 0 {
            assert!(stats.allocations > 0, "largest-first call must size the workspace");
        } else {
            assert_eq!(
                stats.allocations, 0,
                "call {call} ({m}x{k}x{n}, {shape}) allocated on a shrinking shape"
            );
        }

        let mut fresh = GemmWorkspace::new();
        let mut c_fresh = Matrix::<f32>::zeros(m, n);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c_fresh.view_mut(),
            &shape,
            &ukr,
            &pool,
            &mut fresh,
        );
        let warm_bits: Vec<u32> = c.as_slice().iter().map(|v| v.to_bits()).collect();
        let fresh_bits: Vec<u32> = c_fresh.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            warm_bits, fresh_bits,
            "call {call} ({m}x{k}x{n}): reused workspace changed the result bits"
        );
    }
}
