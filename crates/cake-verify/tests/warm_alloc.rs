//! Runtime cross-check of `cake-audit`'s static alloc-freedom pass.
//!
//! The static pass proves, by call-graph traversal from the
//! `// audit: warm` roots, that no reachable line allocates. Its known
//! holes are name-based: `std` internals that allocate without a
//! deny-listed token, and function-pointer dispatch (`Ukr::call`). This
//! test closes them at runtime: a counting `#[global_allocator]` wraps the
//! system allocator, and after two warmup iterations (workspace growth is
//! declared cold) a steady-state `execute_with_stats_in` call must perform
//! **zero** fresh allocations — for all four dtypes, on a shape with edge
//! tails in every dimension.
//!
//! The claim is made for the `p = 1` inline pool: a size-1 [`ThreadPool`]
//! runs the job on the caller thread with no cross-thread channel traffic
//! (multi-worker pools heap-allocate one channel node per broadcast, which
//! is pool bookkeeping, not GEMM warm-path work).
//!
//! The counter is per thread: the test harness runs these tests on
//! parallel threads, and a process-global count would charge one test
//! with another's allocations. Because the inline pool runs the whole
//! GEMM on the calling thread, the per-thread count sees every allocation
//! the call makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cake_core::executor::execute_with_stats_in;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::workspace::GemmWorkspace;
use cake_kernels::select::{portable_kernel, KernelSelect};
use cake_matrix::{init, Bf16, Matrix};

/// Counts every allocation path (`alloc`, `alloc_zeroed`, `realloc`)
/// through the global allocator; frees are not counted — the property
/// under test is "no fresh allocation", not "no traffic".
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialised with no
    /// destructor, so touching it never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` keeps a late allocation during thread teardown from
    // panicking inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates every operation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

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
