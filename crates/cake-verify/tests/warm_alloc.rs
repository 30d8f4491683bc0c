//! Runtime cross-check of `cake-audit`'s static alloc-freedom pass.
//!
//! The static pass proves, by call-graph traversal from the
//! `// audit: warm` roots, that no reachable line allocates. Its known
//! holes are name-based: `std` internals that allocate without a
//! deny-listed token, and function-pointer dispatch (`Ukr::call`). This
//! test closes them at runtime: a counting `#[global_allocator]`
//! (`counting_alloc`) wraps the system allocator, and after two warmup
//! iterations (workspace growth is declared cold) a steady-state
//! `execute_with_stats_in` call must perform **zero** fresh allocations —
//! for all four dtypes, on a shape with edge tails in every dimension.
//!
//! The claim is made for the `p = 1` inline pool: a size-1 [`ThreadPool`]
//! runs the job on the caller thread with no cross-thread channel traffic
//! (multi-worker pools heap-allocate one channel node per broadcast, which
//! is pool bookkeeping, not GEMM warm-path work).

mod counting_alloc;

use cake_core::executor::execute_with_stats_in;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::workspace::GemmWorkspace;
use cake_kernels::select::{portable_kernel, KernelSelect};
use cake_matrix::{init, Bf16, Matrix};

use counting_alloc::allocs;

/// Allocations performed by one steady-state executor call for dtype `T`.
fn steady_state_allocs<T: KernelSelect>(a: Matrix<T>, b: Matrix<T>) -> u64 {
    let (m, n) = (a.rows(), b.cols());
    // mc/kc/nc chosen so every dimension has a partial edge block AND a
    // partial register tile — the paths most likely to hide an allocation.
    let shape = CbBlockShape::fixed(1, 40, 24, 56);
    let pool = ThreadPool::new(1);
    let ukr = portable_kernel::<T>();
    let mut ws = GemmWorkspace::new();
    let mut c = Matrix::<T::Acc>::zeros(m, n);

    // Two warmup calls: the first grows the workspace (declared
    // `// audit: cold`), the second confirms the shape is steady.
    for _ in 0..2 {
        execute_with_stats_in(&a.view(), &b.view(), &mut c.view_mut(), &shape, &ukr, &pool, &mut ws);
    }

    let before = allocs();
    let stats = execute_with_stats_in(
        &a.view(),
        &b.view(),
        &mut c.view_mut(),
        &shape,
        &ukr,
        &pool,
        &mut ws,
    );
    let delta = allocs() - before;
    assert_eq!(stats.allocations, 0, "workspace must be steady after warmup");
    delta
}

const M: usize = 93;
const K: usize = 61;
const N: usize = 87;

#[test]
fn warm_path_performs_zero_allocations_f32() {
    let delta =
        steady_state_allocs::<f32>(init::random(M, K, 21), init::random(K, N, 22));
    assert_eq!(delta, 0, "f32 steady-state GEMM allocated {delta} time(s)");
}

#[test]
fn warm_path_performs_zero_allocations_f64() {
    let delta =
        steady_state_allocs::<f64>(init::random(M, K, 23), init::random(K, N, 24));
    assert_eq!(delta, 0, "f64 steady-state GEMM allocated {delta} time(s)");
}

#[test]
fn warm_path_performs_zero_allocations_i8() {
    let delta =
        steady_state_allocs::<i8>(init::random_i8(M, K, 25), init::random_i8(K, N, 26));
    assert_eq!(delta, 0, "i8 steady-state GEMM allocated {delta} time(s)");
}

#[test]
fn warm_path_performs_zero_allocations_bf16() {
    let delta =
        steady_state_allocs::<Bf16>(init::random(M, K, 27), init::random(K, N, 28));
    assert_eq!(delta, 0, "bf16 steady-state GEMM allocated {delta} time(s)");
}

/// The counter itself must observe ordinary allocations — otherwise the
/// four zero-assertions above would pass vacuously.
#[test]
fn counting_allocator_observes_allocations() {
    let before = allocs();
    let v: Vec<u64> = Vec::with_capacity(64);
    let after = allocs();
    drop(v);
    assert!(after > before, "Vec::with_capacity(64) must hit the global allocator");
}
