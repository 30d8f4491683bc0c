//! The multithreaded, software-pipelined CB-block GEMM engine.
//!
//! Executes the K-first snake schedule over constant-bandwidth blocks
//! (paper Figure 6):
//!
//! * Each of the `p` workers owns one tile of the current block's A×C
//!   surface under a **2D worker grid** ([`worker_grid`]): `pm` row groups
//!   times `pn` column groups with `pm * pn == p`. When the block has at
//!   least `p` row tiles the grid degenerates to the balanced M-partition
//!   ([`worker_rows`]) — `p` contiguous runs differing by at most one tile
//!   — and when it has fewer (small-m edge blocks that used to idle
//!   workers), the surplus parallelism folds into N: workers in the same
//!   row group split the block's B slivers. A packed per call, each
//!   packs a private copy of the shared row strip (strips are repacked
//!   after the owner's *own* compute, so sharing one packed strip across
//!   a row group would race with a peer still computing the previous
//!   block); a pre-packed A is never written, so the row group shares
//!   its strip read-only.
//! * A is an [`OperandA`]: a matrix view, whose strips each worker packs
//!   into the workspace block by block on every call, or a [`PackedA`] —
//!   weights packed once, one `kc`-deep k-block at a time in the kernel's
//!   layout — whose strips are read in place. A strip of a pre-packed A
//!   starts at [`PackLayout::a_kblock_base`] of its block plus
//!   [`PackLayout::a_offset`] of its first sliver, which is one contiguous
//!   run because every block's row extent and every worker's first row
//!   are multiples of `mr`. A pre-packed A is read only with the layout
//!   and block depth it was packed for; the entry checks both, with the
//!   shapes, before any loop. It is never packed, so `pack_a_ns` reads 0,
//!   while `a_elems_loaded` still tallies every strip a block visit
//!   reads: pre-packing removes pack work, not modelled traffic.
//! * `p` here is the **effective** worker count — the pool's size, clamped
//!   by [`crate::topology::effective_p`] at pool construction. `shape.p`
//!   (the requested p that shaped the block) may be larger; the executor
//!   partitions any block across any pool and reports both in
//!   [`ExecStats`].
//! * B is any [`PackB`] operand, read one of two ways. A B whose memory
//!   already has the kernel's tile layout ([`PackB::tiled_b`], a
//!   [`TiledB`](cake_kernels::pack::TiledB)) is read in place when the
//!   kernel [reads B tiles](Ukr::reads_b_tiles) and every k-block starts
//!   on a whole tile step: each worker's kernel loads its slivers' tiles
//!   of every block where they are, nothing is packed, and the workspace
//!   reserves no B panel. The panel ring's bookkeeping still runs, so
//!   `b_elems_loaded` tallies the share of every block a pack would have
//!   loaded (`kl x cols`), as it does for a pre-packed A, and the traffic
//!   reconciliation keeps its meaning; `pack_b_ns` reads 0.
//! * Any other B's `kc x nc` panel is packed cooperatively into one shared buffer
//!   — the LLC-resident surface that is "broadcast" to all cores. Each
//!   worker packs a balanced *contiguous* run of `nr`-column slivers,
//!   split by actual sliver count, with one [`PackB::pack_block`] call,
//!   which walks the run's slivers a block of k-rows at a time. B is any
//!   [`PackB`] operand: a matrix view packs through `pack_b`, and a
//!   convolution's patch matrix is lowered from its feature map straight
//!   into the panel, never materialized.
//! * Partial C results are accumulated **in place** in the output matrix
//!   across the whole K run — never written early and re-read, which is
//!   precisely the IO the paper eliminates relative to GOTO.
//! * Surface sharing between consecutive blocks (same `(m,k)` => keep
//!   packed A; same `(k,n)` => keep packed B) skips redundant packing,
//!   mirroring the DRAM-level reuse the schedule was designed for.
//!
//! # The pipeline
//!
//! The B panel is **double-buffered**: after computing on block `i`'s
//! panel, a worker immediately packs its share of block `i+1`'s B slivers
//! into the *alternate* panel and then waits at a single rotation barrier.
//! Workers that finish computing early therefore pack the next panel while
//! slower workers are still computing — the packing IO hides under compute
//! exactly as the paper's constant-bandwidth model assumes (Section 3,
//! Figure 4), and the old two-barriers-per-block lockstep collapses to
//! **one barrier per block**:
//!
//! ```text
//!            panel 0            panel 1            panel 0
//! block i:   compute(i) ──► pack B(i+1) ──► barrier
//! block i+1:                     compute(i+1) ──► pack B(i+2) ──► barrier
//! ```
//!
//! When consecutive blocks share their B surface (an M-step in the snake),
//! no pack is issued and the panel does **not** rotate, so the reuse-skip
//! accounting is unchanged from the serial executor. The double buffer
//! additionally generalizes to a small **panel ring** — `min(k-blocks,
//! MAX_B_PANELS)` panels, never fewer than two — managed as an LRU cache of
//! `(k, n)` surfaces: at a snake reversal the ring usually still holds the
//! surface the next block needs, and the rotation happens without any
//! packing at all ([`ExecStats::b_panel_hits`]). With the ring as deep as
//! the problem's k-block count, B is packed exactly once per distinct
//! surface — the same pack volume as the GOTO loop nest — while keeping
//! CAKE's accumulate-in-LLC C traffic. A worker's private A strip has a
//! single buffer; it is repacked after the worker's own compute finishes
//! (no other worker reads it), which keeps it off the barrier's critical
//! path as well.
//!
//! The rotation barrier is a cache-line-padded sense-reversing
//! spin-then-yield-then-park barrier ([`crate::sync::SpinBarrier`]), not
//! `std::sync::Barrier`: with one barrier per block on the critical path,
//! a futex park/wake per episode would cost microseconds per block, while
//! the user-space spin release is observed in tens of nanoseconds. The
//! barrier mode is chosen per call ([`crate::sync::BarrierMode::auto`]):
//! pure spin-then-yield when the pool fits the host's cores, parking when
//! it is oversubscribed — so co-tenant runs stop burning whole timeslices
//! per rotation.
//!
//! Packed buffers live in a caller-provided [`GemmWorkspace`] so repeated
//! GEMMs reuse them without touching the allocator; a one-shot caller
//! passes a fresh one. [`execute_with_stats_in`] is the only entry, and
//! [`crate::api::CakeGemm`] is the config-driven path onto it. For
//! multicore runs, pair the executor with a core-pinned pool
//! ([`crate::pool::ThreadPool::pinned`]) so each worker's L2-resident A
//! strip survives between blocks.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use cake_kernels::edge::run_tile;
use cake_kernels::pack::{split_range, PackB, PackLayout, TILE_K, TILE_MAX_NR};
use cake_kernels::ukernel::BTiles;
use cake_kernels::Ukr;
use cake_matrix::{Dtype, MatrixViewMut};

use crate::counters::Tally;
use crate::operand::{AsOperandA, OperandA, PackedA};
use crate::panel::{ring_depth, PanelAction, PanelCache};
use crate::pool::ThreadPool;
use crate::schedule::{worker_grid, Schedule};
use crate::shape::CbBlockShape;
use crate::shared::OutPtr;
use crate::sync::{BarrierMode, SpinBarrier};
use crate::topology;
use crate::workspace::GemmWorkspace;

/// Execution statistics for one CAKE GEMM call — observable evidence of
/// the schedule's surface reuse and the pipeline's pack/compute overlap on
/// the *real* executor (the simulator measures the same quantities on the
/// model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// CB blocks executed.
    pub blocks: usize,
    /// Blocks whose shared B panel was reused from the previous block
    /// (an M-step in the snake: same `(k, n)`).
    pub b_packs_skipped: usize,
    /// Additional B packs avoided because *another* ring panel still held
    /// the needed `(k, n)` surface — the pipeline panels double as an LRU
    /// panel cache, which pays off at every snake reversal.
    pub b_panel_hits: usize,
    /// Blocks whose per-worker A strips were reused (an N-step: same
    /// `(m, k)`).
    pub a_packs_skipped: usize,
    /// Barrier waits actually performed by worker 0 — one rotation barrier
    /// per block in the pipelined executor (measured, not derived).
    pub barriers: usize,
    /// Workers that participated in this call — the *effective* worker
    /// count (`pool.size()`), which topology clamping may have reduced
    /// below [`requested_workers`].
    ///
    /// [`requested_workers`]: Self::requested_workers
    pub workers: usize,
    /// The p the caller asked for (`shape.p`) — what shaped the CB block
    /// and drives the analytic model. When this exceeds [`workers`], the
    /// run was clamped to host topology.
    ///
    /// [`workers`]: Self::workers
    pub requested_workers: usize,
    /// Cores available to this process ([`crate::topology::available_cores`])
    /// when the call ran — context for interpreting any clamp.
    pub host_cores: usize,
    /// Rotation-barrier wait strategy the call selected
    /// ([`crate::sync::BarrierMode::auto`]): spin-then-yield on a
    /// well-fitted host, parking when workers outnumber cores.
    pub barrier_mode: BarrierMode,
    /// Nanoseconds spent packing A strips and B panels, summed over all
    /// workers: always [`pack_a_ns`] + [`pack_b_ns`].
    ///
    /// [`pack_a_ns`]: Self::pack_a_ns
    /// [`pack_b_ns`]: Self::pack_b_ns
    pub pack_ns: u64,
    /// Nanoseconds spent packing A strips, summed over all workers; 0 for
    /// a pre-packed A ([`PackedA`]), which is read in place.
    pub pack_a_ns: u64,
    /// Nanoseconds spent packing B panels (including any lowering a
    /// [`PackB`] operand does as it packs), summed over all workers.
    pub pack_b_ns: u64,
    /// Largest single-worker pack time — together with [`pack_ns`] this
    /// separates "packing is cheap" from "packing is cheap on average but
    /// one worker does it all".
    ///
    /// [`pack_ns`]: Self::pack_ns
    pub pack_ns_max: u64,
    /// Nanoseconds spent in microkernel compute, summed over all workers.
    pub compute_ns: u64,
    /// Largest single-worker compute time (the critical-path worker).
    pub compute_ns_max: u64,
    /// Smallest single-worker compute time. `compute_ns_max -
    /// compute_ns_min` is the partition's raw load imbalance.
    pub compute_ns_min: u64,
    /// Nanoseconds spent waiting at the rotation barrier, summed over all
    /// workers — the pipeline's residual synchronization cost. A large sum
    /// with a small [`barrier_wait_ns_max`] means everyone waits a little
    /// (barrier overhead); a sum dominated by the max means one slow
    /// worker stalls the rest (imbalance).
    ///
    /// [`barrier_wait_ns_max`]: Self::barrier_wait_ns_max
    pub barrier_wait_ns: u64,
    /// Largest single-worker barrier wait.
    pub barrier_wait_ns_max: u64,
    /// Workspace footprint in bytes (packed-A strips + the B panel ring).
    pub workspace_bytes: usize,
    /// Heap allocations performed by this call (0 once the workspace is
    /// warm).
    pub allocations: usize,
    /// A elements actually packed from the source view — the executor's
    /// measured external A traffic. A pre-packed A counts the same strips,
    /// read in place, so the count does not depend on the operand kind.
    pub a_elems_loaded: u64,
    /// B elements actually packed from the source view (measured external
    /// B traffic). For a B lowered as it is packed (a convolution's patch
    /// matrix) this counts the patch elements packed, not the feature-map
    /// elements read.
    pub b_elems_loaded: u64,
    /// C elements updated in place (one per microkernel-accumulated output
    /// element per block visit: `kb * M * N` over a full GEMM) — the
    /// executor's measured local-memory C traffic, of which exactly
    /// `1 / kb` reaches DRAM as final writes.
    pub c_elems_updated: u64,
    /// Name of the microkernel that produced this call's numbers
    /// (e.g. `"avx512_f32_14x32"`) — records the dispatch tier per run so
    /// benchmark output can attribute each measurement. Empty on a
    /// default-constructed (never-ran) record.
    pub kernel: &'static str,
}

impl ExecStats {
    /// Fraction of total busy time spent packing: `pack / (pack + compute)`.
    /// Low values mean packing is effectively hidden under compute.
    pub fn pack_fraction(&self) -> f64 {
        let busy = self.pack_ns + self.compute_ns;
        if busy == 0 {
            return 0.0;
        }
        self.pack_ns as f64 / busy as f64
    }

    /// Compute-load imbalance factor: the critical-path worker's compute
    /// time over the per-worker average (`max * p / sum`). `1.0` is a
    /// perfectly balanced partition; the whole GEMM runs at the speed of
    /// the max, so every 0.1 above 1.0 is ~10% of the parallel speedup
    /// lost to imbalance. `1.0` when nothing was measured.
    pub fn compute_imbalance(&self) -> f64 {
        if self.compute_ns == 0 || self.workers == 0 {
            return 1.0;
        }
        self.compute_ns_max as f64 * self.workers as f64 / self.compute_ns as f64
    }
}

/// The rows of an `ml`-row CB block owned by worker `wid` of `p` under the
/// balanced M-partition: the block's `ceil(ml / mr)` kernel tile rows are
/// split into `p` contiguous runs whose lengths differ by at most one
/// tile ([`split_range`]), so tail blocks spread across all workers
/// instead of serializing on whichever owned the fixed strip.
///
/// Returns `Some((first_row, row_count))`, or `None` when the worker owns
/// no tiles (`p > ceil(ml / mr)` leaves trailing workers idle). The
/// returned ranges tile `[0, ml)` exactly: disjoint, in worker order,
/// covering every row once.
pub fn worker_rows(ml: usize, mr: usize, p: usize, wid: usize) -> Option<(usize, usize)> {
    let tiles = ml.div_ceil(mr);
    let r = split_range(tiles, p, wid);
    if r.is_empty() {
        return None;
    }
    let row0 = r.start * mr;
    let rows = (r.end * mr).min(ml) - row0;
    Some((row0, rows))
}

/// Per-block geometry: origin and live extents within the operand views.
#[derive(Clone, Copy)]
struct Blk {
    m0: usize,
    k0: usize,
    n0: usize,
    ml: usize,
    kl: usize,
    nl: usize,
}

/// The operand-shape contract of a GEMM: `A` is `m x k`, `B` is `k x n`
/// and `C` is `m x n`, each operand given as `(rows, cols)`. The executor
/// and [`crate::api::CakeGemm`] both check it first, so a mismatch panics
/// with the same message on either path, zero extents included.
pub(crate) fn assert_dims(a: (usize, usize), b: (usize, usize), c: (usize, usize)) {
    let ((m, k), (b_rows, n), (c_rows, c_cols)) = (a, b, c);
    // audit: cold entry shape validation, once per call before any loop
    assert_eq!(b_rows, k, "A is {m}x{k} but B has {b_rows} rows");
    // audit: cold entry shape validation, once per call before any loop
    assert_eq!(c_rows, m, "C must have {m} rows, has {c_rows}");
    // audit: cold entry shape validation, once per call before any loop
    assert_eq!(c_cols, n, "C must have {n} cols, has {c_cols}");
}

/// The pre-packed-operand contract: a [`PackedA`] is read only with the
/// kernel layout and the block depth it was packed for, and only under
/// blocks whose row extent `shape.m_block()` is a multiple of `mr`, so
/// every worker's strip starts on a sliver boundary of the packed buffer.
/// The executor checks it next to [`assert_dims`], before any loop, so a
/// mismatch panics with C untouched.
// audit: cold entry operand validation, once per call before any loop
fn assert_packed_for<T: Dtype>(a: &PackedA<T>, layout: &PackLayout, shape: &CbBlockShape) {
    let packed = a.kernel().pack_layout();
    assert!(
        packed == *layout && a.kc() == shape.k_block() && shape.m_block().is_multiple_of(layout.mr()),
        "A packed for {packed:?} at kc = {} cannot run with {layout:?} under {shape}",
        a.kc()
    );
}

/// Execute `C += A * B` with the CAKE CB-block schedule — the one
/// executor entry. Packs into and computes from `ws`, returning measured
/// [`ExecStats`].
///
/// * `a` — the `M x K` A: a view or a matrix, packed strip by strip into
///   `ws` on every call, or a [`PackedA`], read in place (see
///   [`AsOperandA`]); `b` — any `K x N` [`PackB`] operand (a view, a
///   matrix, or a B that is lowered as it is packed); `c` — `M x N`
///   mutable view over the **accumulator** type (`T::Acc` — the same `T`
///   for f32/f64, `i32` for int8, `f32` for bf16).
/// * `shape` — the CB block (`p`, `mc`, `kc`, `nc`); the partition follows
///   `pool.size()`, which may differ from `shape.p`.
/// * `ukr` — microkernel; `shape.mc` need not be a multiple of `mr` but
///   performance is best when it is (and a pre-packed A needs
///   `shape.m_block()` to be one).
/// * `ws` — the packed-operand buffers, reused across calls; a one-shot
///   caller passes `&mut GemmWorkspace::new()`.
///
/// # Panics
/// Panics on dimension mismatch, on a pre-packed A whose layout or block
/// depth differs from `ukr`'s layout and `shape.kc`, or whose block row
/// extent is not a multiple of `mr` — all before any loop, with C
/// untouched — and re-panics (through the pool) when a
/// worker panics, for instance inside `b`'s [`PackB::pack_block`]. The
/// call still returns at any `p`: the panicking worker keeps meeting its
/// peers at the rotation barrier until the block loop ends. C's contents
/// are unspecified after such a panic.
///
/// This is the warm-path root: after the one `ws.prepare(..)` staging
/// call (cold — it only allocates on first use or shape growth) the
/// whole call tree below here must neither allocate nor panic, which
/// `cake-audit`'s alloc-freedom and panic-freedom passes prove
/// statically from these anchors.
// audit: warm
// audit: hot
#[allow(clippy::too_many_arguments)]
pub fn execute_with_stats_in<T: Dtype>(
    a: &impl AsOperandA<T>,
    b: &impl PackB<T>,
    c: &mut MatrixViewMut<'_, T::Acc>,
    shape: &CbBlockShape,
    ukr: &Ukr<T>,
    pool: &ThreadPool,
    ws: &mut GemmWorkspace<T>,
) -> ExecStats {
    let a = a.as_operand_a();
    let (m, k) = a.dims();
    let n = b.cols();
    assert_dims((m, k), (b.rows(), n), (c.rows(), c.cols()));
    let layout = ukr.pack_layout();
    if let OperandA::Packed(pa) = a {
        assert_packed_for(pa, &layout, shape);
    }
    let packs_a = matches!(a, OperandA::Matrix(_));
    // A B in the tile layout is read in place by a kernel that reads B
    // tiles, when every k-block starts on a whole step of its layout and
    // every sliver on a whole tile sliver: any other block width puts a
    // sliver across two tiles (or two segments), and such a B packs.
    let tiled = b.tiled_b().filter(|_| {
        ukr.reads_b_tiles()
            && (shape.k_block().is_multiple_of(layout.k_step()) || shape.k_block() >= k)
            && layout.nr() == TILE_MAX_NR
            && shape.n_block().is_multiple_of(TILE_MAX_NR)
    });
    if m == 0 || n == 0 || k == 0 {
        return ExecStats::default();
    }

    // Partition across the workers that actually exist. `shape.p` (the
    // requested p) keeps shaping the block; a topology-clamped pool simply
    // runs the same blocks with fewer workers.
    let p = pool.size();
    let (mr, nr) = (layout.mr(), layout.nr());
    let (bm, bk, bn) = (shape.m_block(), shape.k_block(), shape.n_block());

    // The K-first snake, tiled by the shape's outer extents (if any).
    let schedule = Schedule::for_shape(m, k, n, shape);
    let grid = schedule.grid();
    let nblocks = schedule.len();

    // B panel ring: two panels are the pipelining floor; a ring as deep as
    // the k-block count makes every snake reversal a cache hit (B packed
    // once per distinct surface), capped so the LLC footprint stays small.
    // A B read in place keeps the ring's bookkeeping but gets no panels.
    let ring = ring_depth(grid.kb);
    let n_panels = if tiled.is_some() { 0 } else { ring };
    let allocations = ws.prepare(shape, p, &layout, n_panels, packs_a);
    let pa_stride = ws.pa_stride;
    let packed_a = &ws.packed_a;
    // audit: checked prepare() above just grew packed_b to >= n_panels
    let panels = &ws.packed_b[..n_panels];
    let pb_len = panels.first().map_or(0, |pb| pb.len());

    let host_cores = topology::available_cores();
    let barrier_mode = BarrierMode::auto(p, host_cores);
    let barrier = SpinBarrier::with_mode(p, barrier_mode);
    // SAFETY: the pointer lives as long as `c`; workers write disjoint
    // row x column tiles of the output (2D worker grid).
    let out = unsafe { OutPtr::new(c.ptr_at_mut(0, 0)) };
    let (rsc, csc) = (c.row_stride(), c.col_stride());

    // Cross-worker stat sinks (each worker accumulates locally and folds in
    // once at the end, so the hot loop touches no shared cache lines).
    let pack_a_total = AtomicU64::new(0);
    let pack_b_total = AtomicU64::new(0);
    let pack_max = AtomicU64::new(0);
    let compute_total = AtomicU64::new(0);
    let compute_max = AtomicU64::new(0);
    let compute_min = AtomicU64::new(u64::MAX);
    let wait_total = AtomicU64::new(0);
    let wait_max = AtomicU64::new(0);
    let barrier_count = AtomicUsize::new(0);
    // Measured element traffic.
    let tally = Tally::new();

    pool.broadcast(|wid| {
        // Per-worker private schedule copy (plain `Copy`: pure arithmetic,
        // no heap, no sharing).
        let sched = schedule;

        let blk = |bi: usize| {
            let coord = sched.coord_at(bi);
            let (m0, k0, n0) = (coord.m * bm, coord.k * bk, coord.n * bn);
            Blk {
                m0,
                k0,
                n0,
                ml: bm.min(m - m0),
                kl: bk.min(k - k0),
                nl: bn.min(n - n0),
            }
        };

        // Cooperatively pack this worker's contiguous share of block `g`'s
        // B slivers into ring panel `slot`, with one
        // [`PackB::pack_block`] call over the share's columns. The share is
        // balanced by *actual* sliver count ([`split_range`]): a tail block
        // with few slivers still spreads across all workers instead of
        // landing on whichever indices happen to be below the count. A
        // share starts on a sliver boundary, so packing its columns as a
        // panel of their own yields exactly the panel's slivers
        // `start..end`, which sit at the layout's sliver offset
        // `start * nr * kp` (`kp` the block depth padded as the kernel's
        // layout pads it); one call lets the packer walk all of them a
        // block of k-rows at a time.
        // Workers carve disjoint raw sub-slices out of the shared buffer:
        // no two `&mut` regions ever overlap. Pack ownership stays
        // 1D over all `p` workers regardless of the 2D compute grid, so the
        // audit pack protocol and the pack counters are partition-invariant.
        // A B read in place has no panel to pack; its share only counts as
        // loaded.
        let pack_b_coop = |g: &Blk, slot: usize| {
            let share = split_range(g.nl.div_ceil(nr), p, wid);
            if share.is_empty() {
                return;
            }
            let col0 = share.start * nr;
            let cols = (share.end * nr).min(g.nl) - col0;
            if let Some(panel) = panels.get(slot) {
                // Mirrors the `exec_pb_sliver_write` interval proof in
                // cake-audit: the share's end never passes the panel end.
                debug_assert!(layout.b_offset(share.end, g.kl) <= pb_len);
                // SAFETY: the share's slivers occupy
                // [start*nr*kp, end*nr*kp), within capacity since
                // end <= ceil(nl/nr) <= bn/nr and kp <= the padded bk; the
                // shares of distinct workers are disjoint ranges of sliver
                // indices.
                let dst: &mut [T] = unsafe {
                    std::slice::from_raw_parts_mut(
                        panel.base_ptr().add(layout.b_offset(share.start, g.kl)),
                        layout.b_offset(share.len(), g.kl),
                    )
                };
                b.pack_block(g.k0, g.n0 + col0, g.kl, cols, dst, &layout);
            }
            tally.add_b(g.kl * cols);
        };

        // This worker's cell of block `g` under the 2D worker grid
        // ([`worker_grid`]). The grid is a pure function of the block's
        // row-tile count, so every worker derives the same `(pm, pn)` and
        // they tile the block exactly: worker `wid` sits at row group
        // `wm = wid / pn`, column group `wn = wid % pn`; its rows come
        // from the balanced partition over the `pm` row groups, its
        // compute columns from the contiguous sliver split over `pn`.
        let my_cell = |g: &Blk| {
            let (pm, pn) = worker_grid(p, g.ml.div_ceil(mr));
            let (wm, wn) = (wid / pn, wid % pn);
            (worker_rows(g.ml, mr, pm, wm), wn, pn)
        };

        // Pack this worker's private A strip for block `g` (`mr`-row
        // slivers in the kernel's layout, over the strip sub-view). Workers
        // in the same row group (`wn > 0` peers) pack identical *private*
        // copies: a shared strip would race, because strips are repacked
        // for block `i+1` right after the owner's own compute while a peer
        // may still be computing block `i` from it. A pre-packed A has
        // nothing to pack; its strip only counts as loaded.
        let pack_a_own = |g: &Blk| {
            let (cell_rows, wn, _pn) = my_cell(g);
            let Some((row0, rows)) = cell_rows else {
                return;
            };
            let OperandA::Matrix(a) = a else {
                if wn == 0 {
                    tally.add_a(rows * g.kl);
                }
                return;
            };
            // Mirrors `exec_pa_strip` / `exec_pa_pack` in cake-audit: the
            // strip fits the shared buffer and the packed strip fits it.
            debug_assert!((wid + 1) * pa_stride <= packed_a.len());
            debug_assert!(layout.a_size(rows, g.kl) <= pa_stride);
            // SAFETY: each worker owns the disjoint range
            // [wid*pa_stride, (wid+1)*pa_stride) of the shared buffer.
            let pa: &mut [T] = unsafe {
                std::slice::from_raw_parts_mut(
                    packed_a.base_ptr().add(wid * pa_stride),
                    pa_stride,
                )
            };
            layout.pack_a(&a.sub(g.m0 + row0, g.k0, rows, g.kl), pa);
            // Count the surface load once per row group, not once per
            // duplicated private copy, so `a_elems` is partition-invariant.
            if wn == 0 {
                tally.add_a(rows * g.kl);
            }
        };

        // Compute this worker's strip x its column-group slivers, B-sliver
        // stationary: the strip (<= mc x kc) is L2-resident by construction
        // (the paper's per-core A region), so sweeping it per B sliver
        // reads every LLC-resident panel element exactly once while all A
        // traffic stays in L2. Under the degenerate (p, 1) grid the sliver
        // range is the whole panel — identical to the 1D executor. A B
        // read in place hands the kernel each sliver's tiles instead of a
        // panel sliver.
        let compute = |g: &Blk, slot: usize| {
            let (cell_rows, wn, pn) = my_cell(g);
            let Some((row0, rows)) = cell_rows else {
                return; // empty block
            };
            let a_slivers = rows.div_ceil(mr);
            // Read-only phase: raw pointers, no outstanding `&mut`. The
            // strip is this worker's packed copy, or its run of slivers in
            // the pre-packed A, `strip_len` elements long either way.
            let (pa_ptr, strip_len) = match a {
                OperandA::Matrix(_) => {
                    // SAFETY: wid*pa_stride is within the buffer
                    // (exec_pa_strip proof) and no `&mut` to it is live
                    // during the compute phase.
                    let ptr = unsafe { packed_a.base_ptr().add(wid * pa_stride) as *const T };
                    (ptr, pa_stride)
                }
                OperandA::Packed(pa) => {
                    let packed = pa.as_slice();
                    // The block's k-block, then the strip's first sliver:
                    // g.m0 + row0 is a multiple of mr (checked m_block,
                    // worker_rows), and g.k0 of bk (the packed kc).
                    let kblock = layout.a_kblock_base(m, g.k0, bk);
                    let block_end = kblock + layout.a_size(m, g.kl);
                    let at = kblock + layout.a_offset((g.m0 + row0) / mr, g.kl);
                    // Mirrors `exec_pa_prepacked` in cake-audit: the
                    // strip's slivers end inside their own k-block, and
                    // that block inside the packed buffer.
                    debug_assert!(at + layout.a_offset(a_slivers, g.kl) <= block_end);
                    debug_assert!(block_end <= packed.len());
                    // SAFETY: `at` is at most the end of its k-block, which
                    // is at most the buffer length (exec_pa_prepacked
                    // proof), and a pre-packed A is never written while a
                    // GEMM reads it.
                    let ptr = unsafe { packed.as_ptr().add(at) };
                    (ptr, block_end - at)
                }
            };
            let pb_base = panels.get(slot).map_or(std::ptr::null(), |pb| pb.base_ptr() as *const T);
            let b_slivers = g.nl.div_ceil(nr);
            let mut owned_cols = 0usize;
            for t in split_range(b_slivers, pn, wn) {
                let ncols = nr.min(g.nl - t * nr);
                let col = g.n0 + t * nr;
                owned_cols += ncols;
                // Mirrors `exec_pb_sliver_read` in cake-audit; a B read in
                // place names its tiles instead (`amx_b_tile_in_place`).
                debug_assert!(tiled.is_some() || layout.b_offset(t + 1, g.kl) <= pb_len);
                let b_tiles: Option<BTiles<'_, T>> = tiled.map(|tb| tb.sliver(col, g.k0, g.kl));
                // The filter above keeps `col` and the block on whole tile
                // slivers and steps, so the sliver names every k-step.
                debug_assert!(b_tiles.is_none_or(|bt| bt.steps.len() * TILE_K == g.kl));
                for s in 0..a_slivers {
                    let mrows = mr.min(rows - s * mr);
                    let row = g.m0 + row0 + s * mr;
                    // Mirrors `exec_pa_read` (or `exec_pa_prepacked`) and
                    // `exec_c_tile` in cake-audit.
                    debug_assert!(layout.a_offset(s + 1, g.kl) <= strip_len);
                    debug_assert!(row + mrows <= m && col + ncols <= n);
                    // SAFETY: packed slivers are zero-padded full tiles, and
                    // a B read in place names only rows its `TiledB` checked
                    // (`TiledB::sliver` names no step off a whole sliver);
                    // C indices (row, col) + (mrows, ncols) are in bounds;
                    // each worker's (rows x sliver-columns) cell is
                    // disjoint from all others' under the 2D grid.
                    unsafe {
                        let cptr = out.get().add(row * rsc + col * csc);
                        let a_sliver = pa_ptr.add(layout.a_offset(s, g.kl));
                        match b_tiles {
                            Some(bt) => ukr.call_b_tiles(a_sliver, bt, cptr, (rsc, csc), (mrows, ncols)),
                            None => run_tile(
                                ukr,
                                g.kl,
                                a_sliver,
                                pb_base.add(layout.b_offset(t, g.kl)),
                                cptr,
                                rsc,
                                csc,
                                mrows,
                                ncols,
                            ),
                        }
                    }
                }
            }
            tally.add_c(rows * owned_cols);
        };

        let (mut pack_a_ns, mut pack_b_ns) = (0u64, 0u64);
        let (mut compute_ns, mut wait_ns) = (0u64, 0u64);
        let mut waits = 0usize;
        let mut bsense = barrier.waiter();
        let nanos = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;

        // The block loop runs under `catch_unwind`: a panic (say, in a
        // `PackB` implementation) must not leave the peers spinning at a
        // rotation barrier this worker never reaches. Every worker waits
        // exactly `nblocks` times (the prologue barrier plus one per block
        // transition), so a worker that panicked performs the waits it has
        // left, in step with its peers, and then resumes the panic, which
        // the pool reports to the caller. The barrier protocol is
        // unchanged; what the other workers compute from a panel the
        // panicking worker did not finish is unspecified, and so is C.
        let run = catch_unwind(AssertUnwindSafe(|| {
            // The ring state evolves as a pure function of the schedule, so
            // every worker tracks an identical copy and all agree on which
            // panel is live and which gets packed.
            let mut cache = PanelCache::new(ring);

            for bi in 0..nblocks {
                let g = blk(bi);

                if bi == 0 {
                    // Prologue: fill panel 0 and our A strip for block 0.
                    // The single barrier separates these writes from all
                    // reads.
                    let c0 = sched.coord_at(0);
                    cache.seed((c0.k, c0.n));
                    let t0 = Instant::now();
                    pack_b_coop(&g, 0);
                    let t1 = Instant::now();
                    pack_a_own(&g);
                    let t2 = Instant::now();
                    if tiled.is_none() {
                        pack_b_ns += nanos(t0, t1);
                    }
                    if packs_a {
                        pack_a_ns += nanos(t1, t2);
                    }
                    barrier.wait(&mut bsense);
                    wait_ns += nanos(t2, Instant::now());
                    waits += 1;
                }

                let t0 = Instant::now();
                compute(&g, cache.cur());
                let t1 = Instant::now();
                compute_ns += nanos(t0, t1);

                if bi + 1 < nblocks {
                    // Pipeline: pack block bi+1's surfaces while other
                    // workers may still be computing block bi. A miss fills
                    // an idle ring panel (the LRU victim is never the one
                    // still being read); the private A strip is safe to
                    // overwrite after our own compute.
                    let cn = sched.coord_at(bi + 1);
                    let cp = sched.coord_at(bi);
                    let share_a = cp.m == cn.m && cp.k == cn.k;

                    let gn = blk(bi + 1);
                    if let PanelAction::Pack(next) = cache.advance((cn.k, cn.n)) {
                        pack_b_coop(&gn, next);
                    }
                    let t2 = Instant::now();
                    if !share_a {
                        pack_a_own(&gn);
                    }
                    let t3 = Instant::now();
                    if tiled.is_none() {
                        pack_b_ns += nanos(t1, t2);
                    }
                    if packs_a {
                        pack_a_ns += nanos(t2, t3);
                    }

                    // Rotation barrier: block bi's reads are done
                    // everywhere, block bi+1's panel is complete everywhere.
                    barrier.wait(&mut bsense);
                    wait_ns += nanos(t3, Instant::now());
                    waits += 1;
                }
            }
        }));
        if let Err(panic) = run {
            while waits < nblocks {
                barrier.wait(&mut bsense);
                waits += 1;
            }
            resume_unwind(panic);
        }

        let pack_ns = pack_a_ns + pack_b_ns;
        pack_a_total.fetch_add(pack_a_ns, Ordering::Relaxed);
        pack_b_total.fetch_add(pack_b_ns, Ordering::Relaxed);
        pack_max.fetch_max(pack_ns, Ordering::Relaxed);
        compute_total.fetch_add(compute_ns, Ordering::Relaxed);
        compute_max.fetch_max(compute_ns, Ordering::Relaxed);
        compute_min.fetch_min(compute_ns, Ordering::Relaxed);
        wait_total.fetch_add(wait_ns, Ordering::Relaxed);
        wait_max.fetch_max(wait_ns, Ordering::Relaxed);
        if wid == 0 {
            barrier_count.store(waits, Ordering::Relaxed);
        }
    });

    // Reuse-skip counts are a pure function of the schedule; tally once.
    let (a_elems_loaded, b_elems_loaded, c_elems_updated) = tally.snapshot();
    let mut stats = ExecStats {
        blocks: nblocks,
        barriers: barrier_count.load(Ordering::Relaxed),
        workers: p,
        requested_workers: shape.p,
        host_cores,
        barrier_mode,
        pack_ns: pack_a_total.load(Ordering::Relaxed) + pack_b_total.load(Ordering::Relaxed),
        pack_a_ns: pack_a_total.load(Ordering::Relaxed),
        pack_b_ns: pack_b_total.load(Ordering::Relaxed),
        pack_ns_max: pack_max.load(Ordering::Relaxed),
        compute_ns: compute_total.load(Ordering::Relaxed),
        compute_ns_max: compute_max.load(Ordering::Relaxed),
        compute_ns_min: match compute_min.load(Ordering::Relaxed) {
            u64::MAX => 0,
            v => v,
        },
        barrier_wait_ns: wait_total.load(Ordering::Relaxed),
        barrier_wait_ns_max: wait_max.load(Ordering::Relaxed),
        workspace_bytes: ws.bytes(),
        allocations,
        a_elems_loaded,
        b_elems_loaded,
        c_elems_updated,
        kernel: ukr.name(),
        ..ExecStats::default()
    };
    // Replay the panel ring the workers ran (same pure function of the
    // schedule) to attribute each avoided B pack to adjacency sharing vs a
    // panel-cache hit.
    let mut sprev: Option<crate::schedule::BlockCoord> = None;
    let mut cache = PanelCache::new(ring);
    for bi in 0..nblocks {
        let coord = schedule.coord_at(bi);
        let want = (coord.k, coord.n);
        if bi == 0 {
            cache.seed(want);
        } else {
            match cache.advance(want) {
                PanelAction::Keep => stats.b_packs_skipped += 1,
                PanelAction::Rotate(_) => stats.b_panel_hits += 1,
                PanelAction::Pack(_) => {}
            }
        }
        if let Some(pc) = sprev {
            if pc.m == coord.m && pc.k == coord.k {
                stats.a_packs_skipped += 1;
            }
        }
        sprev = Some(coord);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_kernels::select::best_kernel;
    use cake_matrix::compare::assert_gemm_eq;
    use cake_matrix::{init, Matrix};

    fn reference(a: &Matrix<f32>, b: &Matrix<f32>, c: &mut Matrix<f32>) {
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = c.get(i, j) as f64;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) as f64 * b.get(kk, j) as f64;
                }
                c.set(i, j, s as f32);
            }
        }
    }

    fn run_case(m: usize, k: usize, n: usize, p: usize, mc: usize, kc: usize, nc: usize) {
        let a = init::random::<f32>(m, k, 1);
        let b = init::random::<f32>(k, n, 2);
        let mut c = init::random::<f32>(m, n, 3);
        let mut expected = c.clone();

        let shape = CbBlockShape::fixed(p, mc, kc, nc);
        let ukr = best_kernel::<f32>();
        let pool = ThreadPool::new(p);
        let mut ws = GemmWorkspace::new();
        execute_with_stats_in(&a.view(), &b.view(), &mut c.view_mut(), &shape, &ukr, &pool, &mut ws);

        reference(&a, &b, &mut expected);
        assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn single_core_exact_block_fit() {
        run_case(32, 32, 32, 1, 32, 32, 32);
    }

    #[test]
    fn single_core_many_blocks() {
        run_case(64, 48, 80, 1, 16, 16, 16);
    }

    #[test]
    fn multi_core_divisible() {
        run_case(64, 32, 64, 4, 16, 16, 32);
    }

    #[test]
    fn multi_core_ragged_edges() {
        run_case(61, 37, 53, 4, 16, 16, 32);
    }

    #[test]
    fn more_cores_than_rows_in_edge_blocks() {
        // Last M block has fewer rows than p*mc: some workers idle.
        run_case(20, 24, 24, 4, 8, 8, 16);
    }

    #[test]
    fn tall_skinny_and_wide_shapes() {
        run_case(128, 8, 16, 2, 16, 16, 16);
        run_case(16, 8, 128, 2, 16, 16, 16);
        run_case(8, 128, 8, 2, 16, 16, 16);
    }

    #[test]
    fn tiny_problems() {
        run_case(1, 1, 1, 1, 8, 8, 8);
        run_case(3, 2, 5, 2, 8, 8, 8);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = init::eye::<f32>(8, 8);
        let b = init::sequential::<f32>(8, 8);
        let mut c = init::ones::<f32>(8, 8);
        let shape = CbBlockShape::fixed(1, 8, 8, 8);
        let pool = ThreadPool::new(1);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f32>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
        // C = 1 + I*B = 1 + B.
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(c.get(i, j), 1.0 + b.get(i, j));
            }
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let a = Matrix::<f32>::zeros(0, 4);
        let b = Matrix::<f32>::zeros(4, 4);
        let mut c = Matrix::<f32>::zeros(0, 4);
        let shape = CbBlockShape::fixed(2, 8, 8, 8);
        let pool = ThreadPool::new(2);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f32>(),
            &pool,
            &mut GemmWorkspace::new(),
        );

        // K = 0: C unchanged.
        let a = init::random::<f32>(4, 0, 1);
        let b = init::random::<f32>(0, 4, 2);
        let mut c = init::ones::<f32>(4, 4);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f32>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
        assert_eq!(c.sum_f64(), 16.0);
    }

    #[test]
    fn pool_decoupled_from_shape_p() {
        // Topology clamping can hand the executor a pool smaller (or, via
        // an explicit pool, larger) than shape.p: the partition follows
        // the pool, the block geometry follows the shape, and the result
        // is exact either way.
        for pool_size in [1, 2, 3, 5] {
            let a = init::random::<f32>(40, 24, 11);
            let b = init::random::<f32>(24, 40, 12);
            let mut c = init::random::<f32>(40, 40, 13);
            let mut expected = c.clone();
            let shape = CbBlockShape::fixed(2, 8, 8, 16); // requested p = 2
            let pool = ThreadPool::new(pool_size);
            let stats = execute_with_stats_in(
                &a.view(),
                &b.view(),
                &mut c.view_mut(),
                &shape,
                &best_kernel::<f32>(),
                &pool,
                &mut GemmWorkspace::new(),
            );
            assert_eq!(stats.workers, pool_size, "stats report the pool, not the shape");
            assert_eq!(stats.requested_workers, 2);
            reference(&a, &b, &mut expected);
            assert_gemm_eq(&c, &expected, 24);
        }
    }

    #[test]
    fn small_m_blocks_fold_workers_into_n() {
        // m < p * mr: the old M-only strips idled workers; the 2D grid
        // folds them into N. Sweep p in {2, 3, 8} with one row tile.
        let ukr = best_kernel::<f32>();
        let mr = ukr.mr();
        for p in [2usize, 3, 8] {
            let m = mr - 1; // fewer rows than one tile, far below p * mr
            run_case(m, 24, 48, p, 8, 8, 16);
            run_case(mr + 1, 24, 48, p, 8, 8, 16); // two tiles, still < p
            run_case(m, 5, 7, p, 8, 8, 16); // ragged K/N edges too
        }
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(4, 4); // should be 5 rows
        let mut c = Matrix::<f32>::zeros(4, 4);
        let shape = CbBlockShape::fixed(1, 8, 8, 8);
        let pool = ThreadPool::new(1);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f32>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
    }

    #[test]
    fn f64_path_works() {
        let (m, k, n) = (40, 30, 50);
        let a = init::random::<f64>(m, k, 4);
        let b = init::random::<f64>(k, n, 5);
        let mut c = Matrix::<f64>::zeros(m, n);
        let shape = CbBlockShape::fixed(2, 12, 12, 24);
        let pool = ThreadPool::new(2);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f64>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
        let mut expected = Matrix::<f64>::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                expected.set(i, j, s);
            }
        }
        assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn i8_path_is_bit_exact_end_to_end() {
        // Full-range int8 operands through the whole pipelined executor
        // (packing, panel ring, 2D grid, edge tiles): the i32 result must
        // equal the scalar widening product exactly on every tier.
        let (m, k, n) = (61, 37, 53);
        let a = init::random_i8(m, k, 14);
        let b = init::random_i8(k, n, 15);
        let mut c = Matrix::<i32>::zeros(m, n);
        let shape = CbBlockShape::fixed(2, 16, 16, 32);
        let pool = ThreadPool::new(2);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<i8>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i32;
                for kk in 0..k {
                    s += a.get(i, kk) as i32 * b.get(kk, j) as i32;
                }
                assert_eq!(c.get(i, j), s, "({i},{j})");
            }
        }
    }

    #[test]
    fn i8_is_exact_on_every_tier_at_every_depth_and_p() {
        // Depths around the tile layout's 64-deep step and across several
        // k-blocks (kc = 100), p = 1, 2, 3, through every int8 kernel the
        // host has — the AMX tile layout included. C is pre-filled.
        let (m, n) = (45, 70);
        let tiers: Vec<_> = cake_kernels::available_tiers()
            .into_iter()
            .filter_map(cake_kernels::tier_kernel::<i8>)
            .collect();
        for k in [1, 27, 63, 64, 65, 288, 577] {
            let a = init::random_i8(m, k, k as u64);
            let b = init::random_i8(k, n, k as u64 + 1);
            let want = Matrix::from_fn(m, n, |i, j| {
                (0..k).map(|kk| a.get(i, kk) as i32 * b.get(kk, j) as i32).sum::<i32>() - 5
            });
            for p in [1, 2, 3] {
                let pool = ThreadPool::new(p);
                let shape = CbBlockShape::fixed(p, 16, 100, 64);
                for ukr in &tiers {
                    let mut c = Matrix::from_fn(m, n, |_, _| -5i32);
                    let mut ws = GemmWorkspace::new();
                    execute_with_stats_in(
                        &a.view(),
                        &b.view(),
                        &mut c.view_mut(),
                        &shape,
                        ukr,
                        &pool,
                        &mut ws,
                    );
                    assert_eq!(c.as_slice(), want.as_slice(), "{} k={k} p={p}", ukr.name());
                }
            }
        }
    }

    #[test]
    fn bf16_path_matches_f32_oracle() {
        use cake_matrix::Bf16;
        let (m, k, n) = (40, 30, 50);
        let af = init::random::<f32>(m, k, 16);
        let bf = init::random::<f32>(k, n, 17);
        // Round the operands to bf16 first so the oracle sees the same
        // values the kernel does.
        let a = Matrix::from_fn(m, k, |i, j| Bf16::from_f32(af.get(i, j)));
        let b = Matrix::from_fn(k, n, |i, j| Bf16::from_f32(bf.get(i, j)));
        let mut c = Matrix::<f32>::zeros(m, n);
        let shape = CbBlockShape::fixed(2, 16, 16, 32);
        let pool = ThreadPool::new(2);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<Bf16>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
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
        assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn column_major_output() {
        use cake_matrix::Layout;
        let (m, k, n) = (24, 16, 24);
        let a = init::random::<f32>(m, k, 6);
        let b = init::random::<f32>(k, n, 7);
        let mut c = Matrix::<f32>::zeros_with_layout(m, n, Layout::ColMajor);
        let shape = CbBlockShape::fixed(2, 8, 8, 16);
        let pool = ThreadPool::new(2);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f32>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
        let mut expected = Matrix::<f32>::zeros(m, n);
        reference(&a, &b, &mut expected);
        assert_gemm_eq(&c.to_layout(Layout::RowMajor), &expected, k);
    }

    #[test]
    fn b_read_in_place_packs_no_b_and_reserves_no_panel() {
        // An int8 B k-interleaved, [K/4][N][4], as a TiledB: on a kernel
        // that reads B tiles it runs in place at p = 1, 2 and 3 with C and
        // every counter equal to the packed run's; on any other kernel it
        // packs.
        use cake_kernels::pack::TiledB;
        let (m, k, n) = (40, 192, 96);
        let a = init::random_i8(m, k, 1);
        let b = init::random_i8(k, n, 2);
        let mut src = vec![0i8; k * n];
        for kk in 0..k {
            for j in 0..n {
                src[kk / 4 * 4 * n + j * 4 + kk % 4] = b.get(kk, j);
            }
        }
        let steps: Vec<usize> = (0..k / 64).map(|s| s * 64 * n).collect();
        let tiled = TiledB::new(&src, n, (n, 4 * n), 4 * n, &steps).expect("admitted");
        for ukr in cake_kernels::available_tiers().into_iter().filter_map(cake_kernels::tier_kernel::<i8>) {
            for p in 1..=3 {
                let shape = CbBlockShape::fixed(p, 32, 64, 64);
                let pool = ThreadPool::new(p);
                let run = |b: &dyn Fn(&mut Matrix<i32>, &mut GemmWorkspace<i8>) -> ExecStats| {
                    let mut c = Matrix::<i32>::zeros(m, n);
                    let stats = b(&mut c, &mut GemmWorkspace::new());
                    (c, stats)
                };
                let (c_packed, s_packed) = run(&|c, ws| execute_with_stats_in(&a, &b, &mut c.view_mut(), &shape, &ukr, &pool, ws));
                let (c_tiled, s_tiled) = run(&|c, ws| execute_with_stats_in(&a, &tiled, &mut c.view_mut(), &shape, &ukr, &pool, ws));
                let at = format!("{} at p = {p}", ukr.name());
                assert_eq!(c_tiled.as_slice(), c_packed.as_slice(), "{at}");
                let counts = |s: &ExecStats| (s.blocks, s.b_packs_skipped, s.b_panel_hits, s.a_elems_loaded, s.b_elems_loaded, s.c_elems_updated);
                assert_eq!(counts(&s_tiled), counts(&s_packed), "{at}");
                if ukr.reads_b_tiles() {
                    assert_eq!(s_tiled.pack_b_ns, 0, "{at}");
                    assert!(s_tiled.workspace_bytes < s_packed.workspace_bytes, "{at}: no B panel");
                }
            }
        }
    }

    #[test]
    fn b_read_in_place_only_where_blocks_are_whole_tile_slivers() {
        // A block width off 32 columns starts slivers off a tile boundary:
        // one 64-column segment under nc = 48 (a sliver from column 48
        // would read its second tile past the source), and 16-column
        // segments, a convolution's output rows, under nc = 40 (a tile
        // would span two segments). Such a TiledB packs, at p = 1 and 2,
        // and C equals the matrix B's; under nc = 64 it is read in place.
        use cake_kernels::pack::TiledB;
        let (m, k, n) = (40, 128, 64);
        let a = init::random_i8(m, k, 3);
        let b = init::random_i8(k, n, 4);
        for seg in [64, 16] {
            // Segment j / seg at j / seg * pitch, its k-groups rs apart.
            let rs = 4 * seg + 8;
            let pitch = k / 4 * rs;
            let mut src = vec![0i8; n / seg * pitch];
            for kk in 0..k {
                for j in 0..n {
                    src[j / seg * pitch + kk / 4 * rs + j % seg * 4 + kk % 4] = b.get(kk, j);
                }
            }
            let steps: Vec<usize> = (0..k / 64).map(|s| s * 16 * rs).collect();
            let tiled = TiledB::new(&src, n, (seg, pitch), rs, &steps).expect("admitted");
            for ukr in cake_kernels::available_tiers().into_iter().filter_map(cake_kernels::tier_kernel::<i8>) {
                for (p, nc) in [(1, 48), (2, 48), (1, 40), (2, 40), (1, 64)] {
                    let shape = CbBlockShape::fixed(p, 32, 64, nc);
                    let pool = ThreadPool::new(p);
                    fn run(a: &Matrix<i8>, b: &impl PackB<i8>, shape: &CbBlockShape, ukr: &Ukr<i8>, pool: &ThreadPool) -> (Matrix<i32>, ExecStats) {
                        let mut c = Matrix::<i32>::zeros(a.rows(), b.cols());
                        let stats = execute_with_stats_in(a, b, &mut c.view_mut(), shape, ukr, pool, &mut GemmWorkspace::new());
                        (c, stats)
                    }
                    let (c_packed, s_packed) = run(&a, &b, &shape, &ukr, &pool);
                    let (c_tiled, s_tiled) = run(&a, &tiled, &shape, &ukr, &pool);
                    let at = format!("{} seg {seg} nc {nc} at p = {p}", ukr.name());
                    assert_eq!(c_tiled.as_slice(), c_packed.as_slice(), "{at}");
                    let in_place = ukr.reads_b_tiles() && nc % 32 == 0;
                    assert_eq!(s_tiled.workspace_bytes < s_packed.workspace_bytes, in_place, "{at}");
                }
            }
        }
    }

    #[test]
    fn mismatched_prepacked_a_is_rejected_before_any_loop() {
        let tiers: Vec<_> = cake_kernels::available_tiers()
            .into_iter()
            .filter_map(cake_kernels::tier_kernel::<f32>)
            .collect();
        let ukr = best_kernel::<f32>();
        let (m, k, n) = (2 * ukr.mr() + 3, 40, 20);
        let a = init::random::<f32>(m, k, 3);
        let b = init::random::<f32>(k, n, 4);
        let packed = PackedA::new(&a.view(), ukr, 16);
        let pool = ThreadPool::new(1);
        // C keeps its contents: the rejection comes before any loop.
        let rejected = |shape: CbBlockShape, run_ukr: &Ukr<f32>| {
            let mut c = Matrix::from_fn(m, n, |i, j| (i * n + j) as f32);
            let before = c.clone();
            let r = catch_unwind(AssertUnwindSafe(|| {
                execute_with_stats_in(&packed, &b, &mut c.view_mut(), &shape, run_ukr, &pool, &mut GemmWorkspace::new())
            }));
            assert!(r.is_err(), "{shape} on {} ran", run_ukr.name());
            assert_eq!(c.as_slice(), before.as_slice(), "{shape} on {} touched C", run_ukr.name());
        };
        // Another block depth.
        rejected(CbBlockShape::fixed(1, ukr.mr(), 8, 16), &ukr);
        // A block row extent off the sliver height.
        rejected(CbBlockShape::fixed(1, ukr.mr() + 1, 16, 16), &ukr);
        // Another kernel layout, where the host has one.
        for other in tiers.iter().filter(|t| t.pack_layout() != ukr.pack_layout()) {
            let shape = CbBlockShape::fixed(1, other.mr() * ukr.mr(), 16, 16);
            rejected(shape, other);
        }
        // The matching shape runs.
        let mut c = Matrix::<f32>::zeros(m, n);
        let shape = CbBlockShape::fixed(1, ukr.mr(), 16, 16);
        execute_with_stats_in(&packed, &b, &mut c.view_mut(), &shape, &ukr, &pool, &mut GemmWorkspace::new());
        let mut want = Matrix::<f32>::zeros(m, n);
        reference(&a, &b, &mut want);
        assert_gemm_eq(&c, &want, k);
    }

    #[test]
    fn workspace_reuse_is_allocation_free_and_correct() {
        let shape = CbBlockShape::fixed(2, 8, 8, 16);
        let pool = ThreadPool::new(2);
        let ukr = best_kernel::<f32>();
        let mut ws = GemmWorkspace::new();
        for round in 0..5 {
            let a = init::random::<f32>(24, 24, 10 + round);
            let b = init::random::<f32>(24, 24, 20 + round);
            let mut c = Matrix::<f32>::zeros(24, 24);
            let stats = execute_with_stats_in(
                &a.view(),
                &b.view(),
                &mut c.view_mut(),
                &shape,
                &ukr,
                &pool,
                &mut ws,
            );
            if round == 0 {
                assert!(stats.allocations > 0, "first call must allocate");
            } else {
                assert_eq!(stats.allocations, 0, "warm calls must not allocate");
            }
            let mut expected = Matrix::<f32>::zeros(24, 24);
            reference(&a, &b, &mut expected);
            assert_gemm_eq(&c, &expected, 24);
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use cake_kernels::select::best_kernel;
    use cake_matrix::{init, Matrix};

    fn run_stats(m: usize, k: usize, n: usize, p: usize, mc: usize, kc: usize, nc: usize) -> ExecStats {
        let a = init::random::<f32>(m, k, 1);
        let b = init::random::<f32>(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        let shape = CbBlockShape::fixed(p, mc, kc, nc);
        let pool = ThreadPool::new(p);
        execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f32>(),
            &pool,
            &mut GemmWorkspace::new(),
        )
    }

    #[test]
    fn stats_count_blocks_and_barriers() {
        // 2x3x2 block grid = 12 blocks. The pipelined executor pays ONE
        // rotation barrier per block (the old lockstep paid two).
        let s = run_stats(32, 48, 32, 1, 16, 16, 16);
        assert_eq!(s.blocks, 12);
        assert_eq!(s.barriers, 12);
    }

    #[test]
    fn phase_timings_are_measured() {
        let s = run_stats(32, 48, 32, 2, 16, 16, 16);
        assert!(s.compute_ns > 0, "compute time must be measured");
        assert!(s.pack_ns > 0, "pack time must be measured");
        assert!(s.workspace_bytes > 0);
        assert!(s.allocations > 0, "fresh workspace allocates");
        let f = s.pack_fraction();
        assert!((0.0..=1.0).contains(&f), "pack fraction {f} out of range");
    }

    #[test]
    fn per_worker_extrema_bound_the_sums() {
        let s = run_stats(48, 48, 48, 2, 16, 16, 16);
        assert_eq!(s.workers, 2);
        assert!(s.compute_ns_max > 0, "per-worker compute max must be measured");
        // max <= sum <= p * max, and min <= max.
        assert!(s.compute_ns_max <= s.compute_ns);
        assert!(s.compute_ns <= s.compute_ns_max * s.workers as u64);
        assert!(s.compute_ns_min <= s.compute_ns_max);
        assert!(s.pack_ns_max <= s.pack_ns);
        assert!(s.barrier_wait_ns_max <= s.barrier_wait_ns);
        let imb = s.compute_imbalance();
        assert!((1.0..=s.workers as f64).contains(&imb), "imbalance {imb} out of range");
    }

    #[test]
    fn snake_reuse_shows_up_in_skip_counts() {
        // Grid (mb=2, kb=3, nb=2), N-outer: transitions = 11 total.
        // M-steps (same k,n): 2 (one per n stripe) -> B skipped twice.
        // N-steps (same m,k): 1 -> A skipped once.
        // The panel ring is as deep as the k-block count (3), so every
        // revisited surface is still resident: the remaining non-pack
        // transitions are all cache hits, and B is packed exactly once per
        // distinct (k, n) surface — 3 k-blocks x 2 n-stripes = 6 packs out
        // of 12 blocks.
        let s = run_stats(32, 48, 32, 1, 16, 16, 16);
        assert_eq!(s.b_packs_skipped, 2);
        assert_eq!(s.a_packs_skipped, 1);
        assert_eq!(s.b_panel_hits, 4);
        let b_packs = s.blocks - s.b_packs_skipped - s.b_panel_hits;
        assert_eq!(b_packs, 6, "one B pack per distinct surface");
    }

    #[test]
    fn single_block_has_no_skips() {
        let s = run_stats(16, 16, 16, 1, 16, 16, 16);
        assert_eq!(s.blocks, 1);
        assert_eq!(s.barriers, 1, "single block: just the prologue barrier");
        assert_eq!(s.a_packs_skipped + s.b_packs_skipped + s.b_panel_hits, 0);
    }

    #[test]
    fn empty_problem_zero_stats() {
        let a = Matrix::<f32>::zeros(0, 4);
        let b = Matrix::<f32>::zeros(4, 4);
        let mut c = Matrix::<f32>::zeros(0, 4);
        let shape = CbBlockShape::fixed(1, 8, 8, 8);
        let pool = ThreadPool::new(1);
        let s = execute_with_stats_in(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &shape,
            &best_kernel::<f32>(),
            &pool,
            &mut GemmWorkspace::new(),
        );
        assert_eq!(s, ExecStats::default());
    }

    #[test]
    fn every_transition_skips_at_most_one_pack_kind() {
        let s = run_stats(48, 48, 48, 2, 8, 16, 16);
        // Each of the blocks-1 transitions shares exactly one surface; C
        // shares (K-steps) skip neither pack.
        assert!(s.a_packs_skipped + s.b_packs_skipped < s.blocks);
    }
}

#[cfg(test)]
mod partition_tests {
    use super::worker_rows;
    use proptest::prelude::*;

    /// Check the balanced M-partition invariants for one `(ml, mr, p)`:
    /// worker row ranges tile `[0, ml)` exactly once, in order, and tile
    /// counts differ by at most one across workers.
    fn check_partition(ml: usize, mr: usize, p: usize) {
        let mut next = 0usize;
        let mut tile_counts = Vec::with_capacity(p);
        for wid in 0..p {
            match worker_rows(ml, mr, p, wid) {
                Some((row0, rows)) => {
                    assert!(rows > 0, "ml={ml} mr={mr} p={p} wid={wid}: empty Some");
                    assert_eq!(row0, next, "ml={ml} mr={mr} p={p} wid={wid}: gap or overlap");
                    assert!(
                        row0.is_multiple_of(mr),
                        "ml={ml} mr={mr} p={p} wid={wid}: strip not tile-aligned"
                    );
                    next = row0 + rows;
                    tile_counts.push(rows.div_ceil(mr));
                }
                None => tile_counts.push(0),
            }
        }
        assert_eq!(next, ml, "ml={ml} mr={mr} p={p}: rows not fully covered");
        // Idle workers only appear when there are fewer tiles than workers;
        // among non-idle workers the spread is at most one tile.
        let busy: Vec<usize> = tile_counts.iter().copied().filter(|&t| t > 0).collect();
        if let (Some(&hi), Some(&lo)) = (busy.iter().max(), busy.iter().min()) {
            assert!(hi - lo <= 1, "ml={ml} mr={mr} p={p}: tile spread {tile_counts:?}");
            assert_eq!(busy.len(), ml.div_ceil(mr).min(p), "idle workers with work left");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Satellite: the balanced M-partition covers `[0, ml)` exactly
        /// once for arbitrary `(ml, mr, p)` — including `p` greater than
        /// the tile count, where trailing workers must idle cleanly.
        #[test]
        fn balanced_partition_tiles_every_row_exactly_once(
            ml in 0usize..400,
            mr in 1usize..17,
            p in 1usize..24,
        ) {
            check_partition(ml, mr, p);
        }
    }

    /// Check the 2D M x N strip grid for one `(ml, nl, mr, nr, p)`:
    /// every output element of the `ml x nl` block is covered by exactly
    /// one worker's (rows x sliver-columns) cell, and within each grid
    /// dimension busy workers' tile counts differ by at most one.
    fn check_partition_2d(ml: usize, nl: usize, mr: usize, nr: usize, p: usize) {
        use crate::schedule::worker_grid;
        use cake_kernels::pack::split_range;

        let (pm, pn) = worker_grid(p, ml.div_ceil(mr));
        assert_eq!(pm * pn, p);
        let b_slivers = nl.div_ceil(nr);

        let mut cover = vec![0u32; ml * nl];
        let mut row_tiles = Vec::new();
        let mut col_tiles = Vec::new();
        for wid in 0..p {
            let (wm, wn) = (wid / pn, wid % pn);
            let Some((row0, rows)) = super::worker_rows(ml, mr, pm, wm) else {
                continue;
            };
            row_tiles.push(rows.div_ceil(mr));
            let slivers = split_range(b_slivers, pn, wn);
            col_tiles.push(slivers.len());
            for t in slivers {
                let col0 = t * nr;
                let ncols = nr.min(nl - col0);
                for r in row0..row0 + rows {
                    for c in col0..col0 + ncols {
                        cover[r * nl + c] += 1;
                    }
                }
            }
        }
        for (i, &hits) in cover.iter().enumerate() {
            assert_eq!(
                hits, 1,
                "ml={ml} nl={nl} mr={mr} nr={nr} p={p}: cell {i} covered {hits} times"
            );
        }
        for counts in [&row_tiles, &col_tiles] {
            let busy: Vec<usize> = counts.iter().copied().filter(|&t| t > 0).collect();
            if let (Some(&hi), Some(&lo)) = (busy.iter().max(), busy.iter().min()) {
                assert!(hi - lo <= 1, "ml={ml} nl={nl} p={p}: tile spread {counts:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Satellite: the 2D M x N strip grid tiles every block exactly —
        /// no overlap, full cover, and at most one remainder tile per
        /// worker in each dimension — including the small-m blocks whose
        /// surplus workers fold into N.
        #[test]
        fn worker_grid_tiles_every_cell_exactly_once(
            ml in 1usize..60,
            nl in 1usize..60,
            mr in 1usize..9,
            nr in 1usize..9,
            p in 1usize..13,
        ) {
            check_partition_2d(ml, nl, mr, nr, p);
        }
    }

    #[test]
    fn partition_2d_edge_cases_pinned() {
        // One row tile, p = 4: pure N split.
        check_partition_2d(3, 40, 8, 8, 4);
        // Two row tiles, p = 8: (2, 4) grid.
        check_partition_2d(10, 33, 8, 8, 8);
        // Prime p with fewer tiles than workers: (1, p) grid.
        check_partition_2d(5, 17, 8, 8, 7);
        // Plenty of tiles: degenerates to pure M strips.
        check_partition_2d(64, 16, 8, 8, 4);
    }

    #[test]
    fn partition_edge_cases_pinned() {
        // More workers than tiles: first `tiles` workers get one tile each.
        check_partition(20, 8, 4); // 3 tiles, 4 workers
        assert_eq!(worker_rows(20, 8, 4, 0), Some((0, 8)));
        assert_eq!(worker_rows(20, 8, 4, 2), Some((16, 4)), "last tile is the ragged one");
        assert_eq!(worker_rows(20, 8, 4, 3), None);
        // Empty block: everyone idles.
        assert_eq!(worker_rows(0, 8, 4, 0), None);
        // Remainder spread: 7 tiles over 4 workers -> 2,2,2,1.
        check_partition(56, 8, 4);
        assert_eq!(worker_rows(56, 8, 4, 0), Some((0, 16)));
        assert_eq!(worker_rows(56, 8, 4, 3), Some((48, 8)));
        // The old fixed-strip scheme would give w0 two tiles and w1 one
        // for ml=24, p=4, mc=16; balanced gives every worker one.
        check_partition(24, 8, 4);
        for wid in 0..3 {
            assert_eq!(worker_rows(24, 8, 4, wid), Some((wid * 8, 8)));
        }
    }
}
