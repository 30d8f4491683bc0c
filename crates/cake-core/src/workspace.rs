//! Reusable GEMM workspace: packed-A strips plus the pipeline's B panels.
//!
//! The A strips are reserved only for calls that pack A: a pre-packed A
//! ([`PackedA`](crate::operand::PackedA)) is read in place, so its calls
//! need the B panels alone.
//!
//! The pipelined executor double-buffers the shared B panel (pack block
//! `i+1` while computing on block `i`), and generalizes the pair into a
//! small *panel ring*: up to [`MAX_B_PANELS`] panels sized for the largest
//! `kc x nc` block seen so far, plus one packed-A strip per worker. With
//! `min(k-blocks, MAX_B_PANELS)` panels resident, the K-first snake's
//! reversals find their B surface still packed and skip the pack entirely —
//! for the common case of a few `kc` panels per problem, B is packed the
//! GOTO-minimal once-per-surface. Buffers grow geometrically via
//! [`SharedBuf::reserve`] and are never zeroed on reuse — the packing
//! routines overwrite every element they later read, including the zero
//! padding of edge slivers.
//!
//! Create one workspace per [`ThreadPool`](crate::pool::ThreadPool) (or let
//! [`CakeGemm`](crate::api::CakeGemm) keep one per element type) and thread
//! it through repeated calls: after warmup, a steady-shape GEMM stream
//! performs **zero** heap allocations.

use cake_kernels::pack::PackLayout;
use cake_matrix::Element;

use crate::shape::CbBlockShape;
use crate::shared::SharedBuf;

/// Upper bound on the B-panel ring. Two panels are the pipelining floor
/// (compute one, pack the other); extra panels are pure cache, and each
/// costs `kc * nc` elements of LLC-resident footprint, so the ring stays
/// small.
pub const MAX_B_PANELS: usize = 4;

/// Most row tiles any one worker can own when `total_tiles` tiles are
/// partitioned by the 2D grid ([`worker_grid`](crate::schedule::worker_grid)
/// + balanced contiguous strips) across `workers` workers:
///
/// `max(1, min(T, ceil(T / workers) + workers - 1))`
///
/// Why this dominates every per-block split `t <= T`:
///
/// * `t >= workers`: the grid degenerates to `(workers, 1)` and a strip
///   holds `ceil(t / workers) <= ceil(T / workers)` tiles;
/// * `t < workers`: the row-group count `pm <= t`, so a strip holds at
///   most `t <= min(T, workers - 1)` tiles.
///
/// Both branches sit under the closed form, which is also nondecreasing in
/// `T` — so sizing the packed-A stride for the *largest* block covers every
/// partial edge block. The same expression is proven symbolically against
/// the executor's pack sites by `cake-audit`.
pub fn worker_tile_bound(total_tiles: usize, workers: usize) -> usize {
    assert!(workers > 0, "tile bound needs at least one worker");
    total_tiles
        .min(total_tiles.div_ceil(workers) + workers - 1)
        .max(1)
}

/// Packed-operand buffers reused across GEMM calls.
pub struct GemmWorkspace<T> {
    /// One packed-A strip per worker, in a single allocation of
    /// `p * pa_stride` elements.
    pub(crate) packed_a: SharedBuf<T>,
    /// The B-panel ring of the software pipeline (>= 2 entries once
    /// prepared; grown on demand up to [`MAX_B_PANELS`]).
    pub(crate) packed_b: Vec<SharedBuf<T>>,
    /// Per-worker packed-A stride the buffers were last prepared for.
    pub(crate) pa_stride: usize,
    /// Heap allocations performed over the workspace's lifetime.
    allocations: usize,
}

impl<T: Element> GemmWorkspace<T> {
    /// An empty workspace; buffers are allocated lazily by [`prepare`].
    ///
    /// [`prepare`]: Self::prepare
    pub fn new() -> Self {
        Self {
            packed_a: SharedBuf::empty(),
            packed_b: Vec::new(),
            pa_stride: 0,
            allocations: 0,
        }
    }

    /// Size the buffers for one CB-block shape and kernel layout (its
    /// `mr x nr` tile and any K padding) run by `workers` pool threads,
    /// with an `n_panels`-entry B ring (at least two; none when
    /// `n_panels` is 0, for a B read in place), growing only when the
    /// current capacity is insufficient. `packs_a` reserves one A strip per worker;
    /// a call that reads a pre-packed A passes `false` and gets none
    /// (`pa_stride` 0). Returns the number of fresh allocations this call
    /// performed (0 after warmup).
    ///
    /// `workers` is the *effective* pool size, which may differ from
    /// `shape.p` (the shape keeps the requested p for the analytic model;
    /// the executor partitions across whatever the pool actually has).
    // audit: cold staging call before the block loop; allocates only on
    // first use or shape growth, and the warm-alloc runtime test pins the
    // steady state at zero fresh allocations
    pub fn prepare(
        &mut self,
        shape: &CbBlockShape,
        workers: usize,
        layout: &PackLayout,
        n_panels: usize,
        packs_a: bool,
    ) -> usize {
        let mr = layout.mr();
        // A call whose B is read in place asks for no panels.
        let n_panels = if n_panels == 0 { 0 } else { n_panels.clamp(2, MAX_B_PANELS) };
        // 2D-partition bound (see `worker_tile_bound`): the block's
        // ceil(bm / mr) tiles are split by the worker grid, and no worker
        // ever owns more than the closed-form bound — never more than the
        // old fixed-strip ceil(mc / mr) when the grid is pure M-strips.
        let max_tiles = worker_tile_bound(shape.m_block().div_ceil(mr), workers);
        let pa_stride = if packs_a { layout.a_size(max_tiles * mr, shape.k_block()) } else { 0 };
        let pb_len = layout.b_size(shape.k_block(), shape.n_block());
        let mut fresh = 0;
        fresh += usize::from(self.packed_a.reserve(pa_stride * workers));
        while self.packed_b.len() < n_panels {
            self.packed_b.push(SharedBuf::empty());
        }
        for panel in self.packed_b.iter_mut().take(n_panels) {
            fresh += usize::from(panel.reserve(pb_len));
        }
        self.pa_stride = pa_stride;
        self.allocations += fresh;
        fresh
    }

    /// Total heap allocations performed since construction.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Current workspace footprint in bytes.
    pub fn bytes(&self) -> usize {
        let panels: usize = self.packed_b.iter().map(|b| b.len()).sum();
        (self.packed_a.len() + panels) * std::mem::size_of::<T>()
    }
}

impl<T: Element> Default for GemmWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_kernels::pack::{packed_a_size, packed_b_size};

    #[test]
    fn prepare_allocates_once_per_shape_class() {
        let mut ws = GemmWorkspace::<f32>::new();
        let shape = CbBlockShape::fixed(2, 16, 16, 32);
        let first = ws.prepare(&shape, 2, &PackLayout::k_major(6, 16), 2, true);
        assert_eq!(first, 3, "A strips + two B panels");
        // Same shape again: fully warm.
        assert_eq!(ws.prepare(&shape, 2, &PackLayout::k_major(6, 16), 2, true), 0);
        // Smaller shape fits in existing capacity.
        let small = CbBlockShape::fixed(2, 8, 8, 16);
        assert_eq!(ws.prepare(&small, 2, &PackLayout::k_major(6, 16), 2, true), 0);
        assert_eq!(ws.allocations(), 3);
        assert!(ws.bytes() > 0);
    }

    #[test]
    fn calls_that_read_a_prepacked_a_reserve_no_a_strips() {
        let mut ws = GemmWorkspace::<f32>::new();
        let shape = CbBlockShape::fixed(2, 16, 16, 32);
        assert_eq!(ws.prepare(&shape, 2, &PackLayout::k_major(6, 16), 2, false), 2, "two B panels only");
        assert_eq!((ws.pa_stride, ws.packed_a.len()), (0, 0));
        assert_eq!(ws.bytes(), 2 * packed_b_size(16, 32, 16) * 4);
        // A later call that packs A reserves the strips then.
        assert_eq!(ws.prepare(&shape, 2, &PackLayout::k_major(6, 16), 2, true), 1);
        assert!(ws.pa_stride > 0);
        assert!(ws.bytes() > 2 * packed_b_size(16, 32, 16) * 4);
    }

    #[test]
    fn prepare_grows_for_larger_shapes() {
        let mut ws = GemmWorkspace::<f64>::new();
        let small = CbBlockShape::fixed(1, 8, 8, 8);
        let big = CbBlockShape::fixed(1, 64, 64, 128);
        assert!(ws.prepare(&small, 1, &PackLayout::k_major(4, 8), 2, true) > 0);
        let before = ws.bytes();
        assert!(ws.prepare(&big, 1, &PackLayout::k_major(4, 8), 2, true) > 0);
        assert!(ws.bytes() > before);
        // And shrinking back performs no work.
        assert_eq!(ws.prepare(&small, 1, &PackLayout::k_major(4, 8), 2, true), 0);
    }

    #[test]
    fn panel_ring_grows_on_demand_and_is_capped() {
        let mut ws = GemmWorkspace::<f32>::new();
        let shape = CbBlockShape::fixed(1, 8, 8, 16);
        assert_eq!(ws.prepare(&shape, 1, &PackLayout::k_major(6, 16), 2, true), 3, "A + 2 panels");
        // A deeper ring for the same shape only allocates the new panels.
        assert_eq!(ws.prepare(&shape, 1, &PackLayout::k_major(6, 16), 4, true), 2, "2 more panels");
        assert_eq!(ws.prepare(&shape, 1, &PackLayout::k_major(6, 16), 4, true), 0);
        // Requests beyond MAX_B_PANELS (and below 2) are clamped.
        assert_eq!(ws.prepare(&shape, 1, &PackLayout::k_major(6, 16), 99, true), 0);
        assert_eq!(ws.packed_b.len(), MAX_B_PANELS);
        assert_eq!(ws.prepare(&shape, 1, &PackLayout::k_major(6, 16), 0, true), 0);
    }

    #[test]
    fn pa_stride_tracks_last_prepared_shape() {
        let mut ws = GemmWorkspace::<f32>::new();
        let shape = CbBlockShape::fixed(3, 12, 16, 32);
        ws.prepare(&shape, 3, &PackLayout::k_major(6, 16), 2, true);
        // bm = 36, mr = 6: T = 6 tiles; bound = min(6, ceil(6/3) + 2) = 4
        // tiles = 24 rows (the + p - 1 slack covers small partial blocks
        // whose worker grid folds into N).
        assert_eq!(ws.pa_stride, packed_a_size(worker_tile_bound(6, 3) * 6, 16, 6));
        assert_eq!(ws.pa_stride, packed_a_size(24, 16, 6));
        // A layout that pads K sizes for the padded depth: 16 -> 64.
        let mut ws = GemmWorkspace::<i8>::new();
        ws.prepare(&shape, 3, &PackLayout::tiles(32, 32), 2, true);
        assert_eq!(ws.pa_stride, packed_a_size(worker_tile_bound(2, 3) * 32, 64, 32));
        assert_eq!(ws.bytes(), 3 * ws.pa_stride + 2 * packed_b_size(64, 32, 32));
    }

    #[test]
    fn tile_bound_pins_and_edges() {
        // Single worker owns everything.
        for t in 0..10 {
            assert_eq!(worker_tile_bound(t, 1), t.max(1));
        }
        // Plenty of tiles: balanced strip plus the small-block slack.
        assert_eq!(worker_tile_bound(6, 3), 4);
        assert_eq!(worker_tile_bound(4, 3), 4, "capped by T itself");
        assert_eq!(worker_tile_bound(0, 4), 1, "empty blocks still get a tile slot");
        // More workers than tiles: T wins the min.
        assert_eq!(worker_tile_bound(3, 8), 3);
    }

    #[test]
    fn tile_bound_dominates_every_2d_split() {
        use crate::schedule::worker_grid;
        // For every block size t up to the sizing maximum T, no worker's
        // strip under the real grid exceeds the closed-form bound for T.
        for workers in 1..=9usize {
            for total in 0..=24usize {
                let bound = worker_tile_bound(total, workers);
                // Monotone in T: sizing for the largest block covers all.
                assert!(bound <= worker_tile_bound(total + 1, workers));
                for t in 0..=total {
                    let (pm, _pn) = worker_grid(workers, t);
                    let per_worker = t.div_ceil(pm.max(1));
                    assert!(
                        per_worker <= bound,
                        "t={t} of T={total}, workers={workers}: strip {per_worker} > bound {bound}"
                    );
                }
            }
        }
    }
}
