//! Failure injection and degenerate inputs: the library must fail loudly
//! on misuse and behave sanely at the edges.

use cake::kernels::pack::{PackB, PackLayout};
use cake::matrix::{init, Matrix};
use cake::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
    catch_unwind(f).is_err()
}

#[test]
fn dimension_mismatches_panic() {
    // A: 4x5, B: 4x4 (should be 5 rows).
    assert!(panics(|| {
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(4, 4);
        let mut c = Matrix::<f32>::zeros(4, 4);
        CakeGemm::new(CakeConfig::with_threads(1)).gemm(&a, &b, &mut c);
    }));
    // C has wrong shape.
    assert!(panics(|| {
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(5, 4);
        let mut c = Matrix::<f32>::zeros(3, 4);
        CakeGemm::new(CakeConfig::with_threads(1)).gemm(&a, &b, &mut c);
    }));
    // Same for GOTO.
    assert!(panics(|| {
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(6, 4);
        let mut c = Matrix::<f32>::zeros(4, 4);
        goto_gemm(&a, &b, &mut c, &GotoConfig::with_threads(1));
    }));
}

#[test]
fn worker_panic_does_not_poison_future_calls() {
    use cake::core::pool::ThreadPool;
    let pool = ThreadPool::new(3);
    let blew_up = catch_unwind(AssertUnwindSafe(|| {
        pool.broadcast(|id| {
            if id == 2 {
                panic!("injected");
            }
        });
    }))
    .is_err();
    assert!(blew_up);
    // The pool still works and a real GEMM through a fresh pool is fine.
    pool.broadcast(|_| {});
    let a = init::random::<f32>(16, 16, 1);
    let b = init::random::<f32>(16, 16, 2);
    let mut c = Matrix::<f32>::zeros(16, 16);
    CakeGemm::new(CakeConfig::with_threads(3)).gemm(&a, &b, &mut c);
    assert!(c.as_slice().iter().all(|x| x.is_finite()));
}

/// A B operand that packs like the matrix it wraps, except that it panics
/// on any block `panics_at(k0, n0)` selects.
struct PanickyB {
    b: Matrix<f32>,
    panics_at: fn(usize, usize) -> bool,
}

impl PackB<f32> for PanickyB {
    fn rows(&self) -> usize {
        self.b.rows()
    }

    fn cols(&self) -> usize {
        self.b.cols()
    }

    fn pack_block(&self, k0: usize, n0: usize, kl: usize, nl: usize, dst: &mut [f32], layout: &PackLayout) {
        if (self.panics_at)(k0, n0) {
            panic!("injected pack failure at k0 = {k0}, n0 = {n0}");
        }
        self.b.pack_block(k0, n0, kl, nl, dst, layout);
    }
}

/// Run `f` on a fresh thread and wait at most a second: `Some(true)` when
/// it panicked, `Some(false)` when it returned, `None` when it hung (the
/// thread is then left behind).
fn within_a_second(f: impl FnOnce() + Send + 'static) -> Option<bool> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let panicked = catch_unwind(AssertUnwindSafe(f)).is_err();
        let _ = tx.send(panicked);
    });
    rx.recv_timeout(Duration::from_secs(1)).ok()
}

fn assert_matches_naive(a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) {
    let mut want = Matrix::<f32>::zeros(a.rows(), b.cols());
    cake::goto::naive::naive_gemm(a, b, &mut want);
    assert!(approx_eq(c, &want, 1e-3), "GEMM after the panic is wrong");
}

/// A worker whose `PackB` panics must not leave its peers at the rotation
/// barrier: at p = 2 and p = 3 the call returns the panic within a
/// second — whether the panic hits the prologue (column 0 of the first
/// block) or a block deep in the snake (the last k-block) — and the same
/// context (or pool) then computes a correct GEMM.
#[test]
fn panicking_pack_b_returns_within_a_second_and_the_pool_recovers() {
    use cake::core::api::CakeGemm;
    use cake::core::executor::execute_with_stats_in;
    use cake::core::pool::ThreadPool;
    use cake::core::workspace::GemmWorkspace;
    use std::sync::Arc;

    let (m, k, n) = (64, 48, 96);
    let a = init::random::<f32>(m, k, 1);
    let b = init::random::<f32>(k, n, 2);
    let triggers: [fn(usize, usize) -> bool; 2] = [|_, n0| n0 == 0, |k0, _| k0 + 16 >= 48];
    for p in [2, 3] {
        // Through a context (whose pool the host's core count may clamp).
        let ctx = Arc::new(CakeGemm::new(CakeConfig::with_threads(p)));
        let (ctx2, a2, bad) = (ctx.clone(), a.clone(), PanickyB { b: b.clone(), panics_at: triggers[0] });
        let panicked = within_a_second(move || {
            let mut c = Matrix::<f32>::zeros(m, n);
            ctx2.gemm(&a2, &bad, &mut c);
        });
        assert_eq!(panicked, Some(true), "context p = {p}: must return a panic within 1 s");
        let mut c = Matrix::<f32>::zeros(m, n);
        ctx.gemm(&a, &b, &mut c);
        assert_matches_naive(&a, &b, &c);

        for panics_at in triggers {
            // Through the executor on a pool of exactly p workers, over a
            // block grid of 3 k-blocks and 3 n-blocks.
            let pool = Arc::new(ThreadPool::new(p));
            let shape = CbBlockShape::fixed(p, 8, 16, 32);
            let (pool2, a2, bad) = (pool.clone(), a.clone(), PanickyB { b: b.clone(), panics_at });
            let panicked = within_a_second(move || {
                let mut c = Matrix::<f32>::zeros(m, n);
                let ukr = cake::kernels::best_kernel::<f32>();
                let mut ws = GemmWorkspace::new();
                execute_with_stats_in(&a2.view(), &bad, &mut c.view_mut(), &shape, &ukr, &pool2, &mut ws);
            });
            assert_eq!(panicked, Some(true), "pool p = {p}: must return a panic within 1 s");
            let mut c = Matrix::<f32>::zeros(m, n);
            let ukr = cake::kernels::best_kernel::<f32>();
            execute_with_stats_in(&a.view(), &b, &mut c.view_mut(), &shape, &ukr, &pool, &mut GemmWorkspace::new());
            assert_matches_naive(&a, &b, &c);
        }
    }
}

#[test]
fn zero_dimensions_are_quiet_noops() {
    let cfg = CakeConfig::with_threads(2);
    for (m, k, n) in [(0usize, 8usize, 8usize), (8, 0, 8), (8, 8, 0), (0, 0, 0)] {
        let a = Matrix::<f32>::zeros(m, k);
        let b = Matrix::<f32>::zeros(k, n);
        let mut c = init::ones::<f32>(m, n);
        let before = c.sum_f64();
        CakeGemm::new(cfg.clone()).gemm(&a, &b, &mut c);
        assert_eq!(c.sum_f64(), before, "({m},{k},{n})");
    }
}

/// A call with a zero extent still checks all three shape equalities, with
/// the executor's messages, and records all-zero stats rather than keeping
/// the previous call's.
#[test]
fn zero_extent_calls_check_shapes_and_reset_stats() {
    use cake::core::ExecStats;
    let ctx = CakeGemm::new(CakeConfig::with_threads(1));
    let message = |(ar, ac): (usize, usize), (br, bc): (usize, usize), (cr, cc): (usize, usize)| {
        let (a, b) = (Matrix::<f32>::zeros(ar, ac), Matrix::<f32>::zeros(br, bc));
        let mut c = Matrix::<f32>::zeros(cr, cc);
        let err = catch_unwind(AssertUnwindSafe(|| ctx.gemm(&a, &b, &mut c)))
            .expect_err("a shape mismatch must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    let msg = message((0, 8), (5, 3), (0, 3));
    assert!(msg.contains("A is 0x8 but B has 5 rows"), "{msg}");
    let msg = message((4, 8), (8, 0), (7, 5));
    assert!(msg.contains("C must have 4 rows, has 7"), "{msg}");
    let msg = message((4, 0), (0, 5), (4, 6));
    assert!(msg.contains("C must have 5 cols, has 6"), "{msg}");

    let a = init::random::<f32>(32, 16, 1);
    let b = init::random::<f32>(16, 24, 2);
    let mut c = Matrix::<f32>::zeros(32, 24);
    assert_ne!(ctx.gemm_with_stats(&a, &b, &mut c), ExecStats::default());
    let mut c0 = Matrix::<f32>::zeros(32, 0);
    let stats = ctx.gemm_with_stats(&a, &Matrix::<f32>::zeros(16, 0), &mut c0);
    assert_eq!(stats, ExecStats::default());
    assert_eq!(ctx.take_stats(), ExecStats::default(), "a zero-extent call left stale stats");
}

#[test]
fn degenerate_configs_still_compute_correctly() {
    let a = init::random::<f32>(33, 29, 1);
    let b = init::random::<f32>(29, 31, 2);
    let mut reference = Matrix::<f32>::zeros(33, 31);
    cake::goto::naive::naive_gemm(&a, &b, &mut reference);

    // Pathologically small caches.
    let tiny = CakeConfig {
        threads: Some(2),
        l2_bytes: 64,
        llc_bytes: 256,
        ..CakeConfig::default()
    };
    // Extreme alpha.
    let wide = CakeConfig {
        threads: Some(2),
        alpha: Some(16.0),
        ..CakeConfig::default()
    };
    // Starved DRAM hint.
    let starved = CakeConfig {
        threads: Some(2),
        dram_bw_gbs: Some(0.1),
        ..CakeConfig::default()
    };
    for cfg in [tiny, wide, starved] {
        let mut c = Matrix::<f32>::zeros(33, 31);
        CakeGemm::new(cfg).gemm(&a, &b, &mut c);
        cake::matrix::compare::assert_gemm_eq(&c, &reference, 29);
    }
}

#[test]
fn more_threads_than_rows() {
    let a = init::random::<f32>(3, 20, 1);
    let b = init::random::<f32>(20, 5, 2);
    let mut c = Matrix::<f32>::zeros(3, 5);
    CakeGemm::new(CakeConfig::with_threads(8)).gemm(&a, &b, &mut c);
    let mut reference = Matrix::<f32>::zeros(3, 5);
    cake::goto::naive::naive_gemm(&a, &b, &mut reference);
    cake::matrix::compare::assert_gemm_eq(&c, &reference, 20);
}

#[test]
fn nan_inputs_propagate_not_hang() {
    let mut a = init::random::<f32>(8, 8, 1);
    a.set(3, 3, f32::NAN);
    let b = init::random::<f32>(8, 8, 2);
    let mut c = Matrix::<f32>::zeros(8, 8);
    CakeGemm::new(CakeConfig::with_threads(2)).gemm(&a, &b, &mut c);
    // Row 3 is poisoned, other rows are finite.
    assert!((0..8).any(|j| c.get(3, j).is_nan()));
    assert!((0..8).all(|j| c.get(0, j).is_finite()));
}

#[test]
fn simulator_rejects_nothing_but_handles_extremes() {
    use cake::sim::config::CpuConfig;
    use cake::sim::engine::{simulate_cake, SimParams};
    let cpu = CpuConfig::arm_cortex_a53();
    // 1x1x1 problem.
    let r = simulate_cake(&cpu, &SimParams::new(1, 1, 1, 4));
    assert!(r.seconds > 0.0);
    assert!(r.gflops > 0.0);
    // Extremely skewed problem.
    let r = simulate_cake(&cpu, &SimParams::new(1, 10000, 1, 2));
    assert!(r.seconds.is_finite());
}
