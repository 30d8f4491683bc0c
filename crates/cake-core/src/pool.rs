//! A persistent broadcast worker pool.
//!
//! CAKE's parallelization is a *static* partition: core `c` always owns the
//! `c`-th `mc`-row strip of the current CB block (one `A` sub-matrix per
//! core, paper Section 3). There is no work stealing; every block is a
//! broadcast of the same closure to all workers, each picking its strip by
//! worker index. This pool implements exactly that primitive:
//! [`ThreadPool::broadcast`] runs `f(worker_id)` on every worker and blocks
//! until all complete, propagating panics.
//!
//! Workers are long-lived so repeated GEMM calls (e.g. a DNN forward pass)
//! pay thread-spawn cost once. Because the strip assignment is static, the
//! pool optionally pins worker `i` to core `i % cores`
//! ([`ThreadPool::pinned`], Linux `sched_setaffinity`, no-op elsewhere):
//! an unpinned worker migrating between blocks drags its L2-resident A
//! strip across cores, which is exactly the traffic CAKE's partition is
//! designed to avoid.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Opt-in worker-to-core affinity pinning.
///
/// CAKE's partition is static — worker `c` always owns strip `c` — so its
/// L2-resident A strip is only warm if the worker stays on one core.
/// Without pinning, the OS scheduler is free to migrate workers between
/// barrier episodes, turning every migration into a full strip refetch.
/// On Linux, [`affinity::pin_current_thread`] binds the calling thread to one core
/// via a raw `sched_setaffinity` syscall binding (the build container has
/// no `libc` crate; `std` already links the platform libc, so a direct
/// `extern "C"` declaration suffices). Elsewhere it is a no-op returning
/// `false`.
pub mod affinity {
    // Miri has no sched_* shims — under it the module is compiled out and
    // pinning degrades to the portable no-op path.
    #[cfg(all(target_os = "linux", not(miri)))]
    mod sys {
        // Mirrors <sched.h>: cpu_set_t is a fixed bitmask; 16 u64 words
        // cover 1024 CPUs, the glibc default CPU_SETSIZE.
        const MASK_WORDS: usize = 16;

        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        }

        pub fn pin(core: usize) -> bool {
            if core >= MASK_WORDS * 64 {
                return false;
            }
            let mut mask = [0u64; MASK_WORDS];
            mask[core / 64] |= 1u64 << (core % 64);
            // SAFETY: pid 0 = the calling thread; the mask is a live, fully
            // initialized MASK_WORDS*8-byte buffer matching cpusetsize.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
        }

        pub fn allowed_cores() -> Option<usize> {
            let mut mask = [0u64; MASK_WORDS];
            // SAFETY: pid 0 = the calling thread; the kernel writes at most
            // cpusetsize bytes into the live mask buffer.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            (rc == 0).then(|| mask.iter().map(|w| w.count_ones() as usize).sum())
        }
    }

    /// Pin the calling thread to `core` (mod the machine's core count is
    /// the *caller's* job). Returns `true` on success, `false` when
    /// unsupported or rejected by the OS.
    pub fn pin_current_thread(core: usize) -> bool {
        #[cfg(all(target_os = "linux", not(miri)))]
        {
            sys::pin(core)
        }
        #[cfg(not(all(target_os = "linux", not(miri))))]
        {
            let _ = core;
            false
        }
    }

    /// Number of cores the calling thread may currently run on (`None`
    /// when the platform cannot report it). After a successful pin this
    /// is exactly 1.
    pub fn allowed_cores() -> Option<usize> {
        #[cfg(all(target_os = "linux", not(miri)))]
        {
            sys::allowed_cores()
        }
        #[cfg(not(all(target_os = "linux", not(miri))))]
        {
            None
        }
    }

    /// Cores available to this process (the pin target space).
    pub fn available_cores() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Type-erased pointer to a caller-owned `Fn(usize) + Sync` job.
///
/// The pointee is only dereferenced between `broadcast` sending it and the
/// worker acknowledging completion, and `broadcast` blocks until every
/// acknowledgement arrives — so the pointee outlives every dereference.
/// Erasure uses a data pointer plus a monomorphized call shim rather than a
/// `dyn` pointer, sidestepping trait-object lifetime defaults.
#[derive(Clone, Copy)]
struct JobPtr {
    data: *const (),
    // SAFETY: callers of `call` must pass the matching `data` while the
    // pointee is still alive (broadcast's blocking protocol guarantees it).
    call: unsafe fn(*const (), usize),
}
// SAFETY: the raw pointer is only used under the blocking protocol above,
// and the pointee is `Sync` (enforced by `broadcast`'s bound).
unsafe impl Send for JobPtr {}

unsafe fn call_shim<F: Fn(usize) + Sync>(data: *const (), id: usize) {
    // SAFETY: `data` was created from a live `&F` in `broadcast`, which
    // blocks until this call completes.
    unsafe { (*(data as *const F))(id) }
}

enum Msg {
    Run(JobPtr),
    Exit,
}

/// A fixed-size pool of worker threads supporting blocking broadcasts.
pub struct ThreadPool {
    txs: Vec<Sender<Msg>>,
    // `mpsc::Receiver` is `!Sync`; the mutex restores `ThreadPool: Sync` so
    // a pool can be shared behind `&` (e.g. a `CakeGemm` context). Only the
    // broadcasting thread ever locks it, so there is no contention.
    done_rx: Mutex<Receiver<Result<(), String>>>,
    handles: Vec<JoinHandle<()>>,
    size: usize,
    pinned: bool,
}

impl ThreadPool {
    /// Spawn a pool of `size` workers with no core affinity.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        Self::with_affinity(size, false)
    }

    /// Spawn a pool of `size` workers, pinning worker `i` to core
    /// `i % available_cores`. Pinning is best-effort: on non-Linux
    /// platforms (or if the OS rejects the mask) workers run unpinned and
    /// [`is_pinned`](Self::is_pinned) reports `false`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn pinned(size: usize) -> Self {
        Self::with_affinity(size, true)
    }

    /// [`new`](Self::new) or [`pinned`](Self::pinned) by flag — for callers
    /// that thread a `pin_cores` config bit through.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn with_affinity(size: usize, pin: bool) -> Self {
        assert!(size > 0, "pool needs at least one worker");
        let (done_tx, done_rx) = channel::<Result<(), String>>();
        let mut txs = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        let cores = affinity::available_cores();
        // A single-worker pool runs jobs inline on the caller; spawning a
        // thread would only add latency to small GEMMs. The caller's
        // affinity is its own business, so a size-1 pool never pins.
        let spawn_count = if size == 1 { 0 } else { size };
        let (pin_tx, pin_rx) = channel::<bool>();
        for id in 0..spawn_count {
            let (tx, rx) = channel::<Msg>();
            let done = done_tx.clone();
            let pin_done = pin_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("cake-worker-{id}"))
                .spawn(move || {
                    let ok = pin && affinity::pin_current_thread(id % cores);
                    let _ = pin_done.send(ok);
                    worker_loop(id, rx, done)
                })
                .expect("failed to spawn worker thread");
            txs.push(tx);
            handles.push(handle);
        }
        drop(pin_tx);
        // Collect each worker's pin outcome so `is_pinned` is truthful by
        // the time `new` returns (the pin runs before the worker's loop).
        let pinned = spawn_count > 0 && pin && pin_rx.iter().take(spawn_count).all(|ok| ok);
        Self {
            txs,
            done_rx: Mutex::new(done_rx),
            handles,
            size,
            pinned,
        }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// `true` when every worker thread was successfully pinned to a core.
    /// Always `false` for size-1 pools (inline execution) and on
    /// platforms without affinity support.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Run `f(worker_id)` on every worker; return when all have finished.
    ///
    /// # Panics
    /// Re-panics on the calling thread if any worker job panicked (with the
    /// collected messages).
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: F) {
        // Single-worker fast path: run inline, no cross-thread traffic.
        if self.size == 1 {
            f(0);
            return;
        }
        let job = JobPtr {
            data: &f as *const F as *const (),
            call: call_shim::<F>,
        };
        for tx in &self.txs {
            // audit: cold send fails only when a worker thread has died,
            // which a healthy pool never does before Drop — error path
            tx.send(Msg::Run(job)).expect("worker channel closed unexpectedly");
        }
        let mut errors = Vec::new();
        {
            // A previous broadcast may have poisoned the mutex by panicking
            // (propagating a worker panic) with the lock held; the receiver
            // itself is still valid, so recover it.
            let done_rx = self
                .done_rx
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for _ in 0..self.size {
                // audit: checked recv fails only if every worker dropped
                // the done sender, which only happens at pool Drop
                match done_rx.recv().expect("done channel closed") {
                    Ok(()) => {}
                    // audit: cold worker-panic collection, error path only
                    Err(e) => errors.push(e),
                }
            }
        }
        // `f` is only dropped after every worker acknowledged: safe.
        if !errors.is_empty() {
            // audit: cold worker-panic propagation, error path only
            panic!("{} worker(s) panicked: {}", errors.len(), errors.join("; "));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.txs {
            let _ = tx.send(Msg::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(id: usize, rx: Receiver<Msg>, done: Sender<Result<(), String>>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Exit => break,
            Msg::Run(job) => {
                // SAFETY: `broadcast` keeps the job alive until we ack below.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, id) }));
                let report = result.map_err(|e| {
                    e.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| format!("worker {id} panicked"))
                });
                if done.send(report).is_err() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn broadcast_runs_every_worker_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.broadcast(|id| {
            hits[id].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = ThreadPool::new(1);
        let main_thread = std::thread::current().id();
        // Inline execution implies no cross-thread hop; record whether the
        // job observed the caller's thread id.
        let captured = std::sync::atomic::AtomicU64::new(0);
        pool.broadcast(|id| {
            assert_eq!(id, 0);
            let same = std::thread::current().id() == main_thread;
            captured.store(u64::from(same), Ordering::SeqCst);
        });
        assert_eq!(captured.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_is_reusable_across_broadcasts() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn workers_can_synchronize_with_a_barrier() {
        let p = 4;
        let pool = ThreadPool::new(p);
        let barrier = Barrier::new(p);
        let pre = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        pool.broadcast(|_| {
            pre.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            // After the barrier, every worker must observe all p pre-counts.
            if pre.load(Ordering::SeqCst) != p {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|id| {
                if id == 1 {
                    panic!("injected failure");
                }
            });
        }));
        let err = result.expect_err("broadcast should propagate panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected failure"), "got: {msg}");
        // Pool survives a panicked job.
        let ok = AtomicUsize::new(0);
        pool.broadcast(|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_size_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn unpinned_pool_reports_unpinned() {
        assert!(!ThreadPool::new(4).is_pinned());
        // Size-1 pools run inline on the caller and never pin.
        assert!(!ThreadPool::pinned(1).is_pinned());
    }

    #[test]
    fn pinned_pool_executes_and_constrains_workers() {
        let pool = ThreadPool::pinned(2);
        let total = AtomicUsize::new(0);
        let over_constrained = AtomicUsize::new(0);
        pool.broadcast(|_| {
            total.fetch_add(1, Ordering::SeqCst);
            if pool.is_pinned() {
                // A pinned worker may run on exactly one core.
                if affinity::allowed_cores() != Some(1) {
                    over_constrained.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 2);
        assert_eq!(over_constrained.load(Ordering::SeqCst), 0);
        #[cfg(all(target_os = "linux", not(miri)))]
        assert!(pool.is_pinned(), "Linux must support sched_setaffinity");
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn affinity_pin_round_trips_on_a_scratch_thread() {
        std::thread::spawn(|| {
            assert!(affinity::pin_current_thread(0));
            assert_eq!(affinity::allowed_cores(), Some(1));
        })
        .join()
        .unwrap();
    }
}
