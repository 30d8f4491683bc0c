//! The CB-block schedule (paper Section 2.2, Algorithm 2), with an
//! optional MOMMS-style outer level.
//!
//! The `M x K x N` computation space is partitioned into a grid of
//! `Mb x Kb x Nb` CB blocks. Blocks are executed sequentially; to minimize
//! DRAM IO, consecutive blocks must *share an IO surface* (be adjacent in
//! the grid). CAKE's order, [`Schedule::k_first`]:
//!
//! * the innermost loop runs along **K** so the partial-C surface — the
//!   largest and the only one whose spill costs double IO — is reused until
//!   its reduction completes;
//! * the middle loop runs along **M** (when `N >= M`) so the B surface is
//!   reused across M-steps;
//! * the outer loop runs along **N**. When `M > N` the outer two loops swap
//!   so the larger A surface is reused before B.
//!
//! Every loop is *boustrophedon* (snake): its direction flips each time the
//! enclosing loop advances. Algorithm 2 in the paper expresses the flip via
//! the parity of the enclosing indices, which is equivalent to the
//! formulation here (parity of the number of completed inner traversals)
//! when the grid extents are even, and remains adjacency-correct for odd
//! extents as well.
//!
//! [`Schedule`] is the one schedule type. Its loop order is a parameter
//! ([`Schedule::new`] takes any permutation, for the reuse-priority
//! ablation), and so is the outer level ([`Schedule::with_outer_tiles`]):
//! constant-bandwidth blocking applied once more at the LLC. The K/N face
//! of the grid is cut into outer tiles of `ko x no` blocks, visited with N
//! tiles outermost and the K-tile loop snaking on N-tile parity; the inner
//! snake runs over each tile's blocks, spanning all `mb` block rows. Each
//! tile's partial K-products complete before the schedule moves on, so the
//! live partial-C working set is bounded by one tile's C surface. A single
//! outer tile is exactly the one-level order.

use crate::shape::CbBlockShape;

/// Index of one CB block within the block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockCoord {
    /// M-dimension block index.
    pub m: usize,
    /// K-dimension (reduction) block index.
    pub k: usize,
    /// N-dimension block index.
    pub n: usize,
}

/// The extents of the block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGrid {
    /// Number of blocks along M.
    pub mb: usize,
    /// Number of blocks along K.
    pub kb: usize,
    /// Number of blocks along N.
    pub nb: usize,
}

impl BlockGrid {
    /// Grid covering an `m x k x n` problem with the given block extents
    /// (ceiling division; edge blocks are partial).
    pub fn for_problem(m: usize, k: usize, n: usize, bm: usize, bk: usize, bn: usize) -> Self {
        Self {
            mb: cake_matrix::block_count(m, bm),
            kb: cake_matrix::block_count(k, bk),
            nb: cake_matrix::block_count(n, bn),
        }
    }

    /// Total number of blocks.
    pub fn len(&self) -> usize {
        self.mb * self.kb * self.nb
    }

    /// `true` when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks along `d`.
    fn extent(&self, d: Dim) -> usize {
        match d {
            Dim::M => self.mb,
            Dim::K => self.kb,
            Dim::N => self.nb,
        }
    }
}

/// An IO surface of a block (paper Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// Input surface from matrix A (`m x k` face).
    A,
    /// Input surface from matrix B (`k x n` face).
    B,
    /// Result surface of C (`m x n` face), partial until the K run ends.
    C,
}

/// One dimension of the block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Row-block dimension.
    M,
    /// Reduction-block dimension.
    K,
    /// Column-block dimension.
    N,
}

/// The block schedule: an iterator over [`BlockCoord`]s in execution
/// order.
///
/// The innermost loop decides which surface is reused on every step:
/// inner `K` reuses the partial-C surface (the paper's choice), inner `M`
/// reuses B, inner `N` reuses A. K-first is optimal exactly when the
/// C-sharing saving (`2 * bm * bn`, partials spill twice) dominates the
/// A- or B-sharing saving — which holds for the paper's wide CB blocks
/// but *reverses* for tall-K blocks (`bk > 2 * max(bm, bn)`), a crossover
/// the tests pin down.
///
/// `Copy` on purpose: each executor worker grabs a private copy with a
/// plain assignment, so replaying the schedule never touches the heap or
/// a shared cache line.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    grid: BlockGrid,
    /// Loop order, outermost first.
    order: [Dim; 3],
    /// Outer tile extent along K, in blocks (in `[1, max(kb, 1)]`).
    ko: usize,
    /// Outer tile extent along N, in blocks (in `[1, max(nb, 1)]`).
    no: usize,
    pos: usize,
}

impl Schedule {
    /// CAKE's K-first snake over `grid` for an `m x _ x n` problem: N
    /// outermost when `n >= m`, else M (Section 2.2). One outer tile.
    pub fn k_first(grid: BlockGrid, m: usize, n: usize) -> Self {
        let order = if n >= m { [Dim::N, Dim::M, Dim::K] } else { [Dim::M, Dim::N, Dim::K] };
        Self { grid, order, ko: grid.kb.max(1), no: grid.nb.max(1), pos: 0 }
    }

    /// The schedule the executor runs for `shape` on an `m x k x n`
    /// problem: [`Schedule::k_first`] over the shape's block grid, tiled
    /// by the shape's outer extents.
    pub fn for_shape(m: usize, k: usize, n: usize, shape: &CbBlockShape) -> Self {
        let grid =
            BlockGrid::for_problem(m, k, n, shape.m_block(), shape.k_block(), shape.n_block());
        Self::k_first(grid, m, n).with_outer_tiles(shape.ko_blocks, shape.no_blocks)
    }

    /// Snake over `grid` with an arbitrary loop order (outermost first).
    /// One outer tile.
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of {M, K, N}.
    pub fn new(grid: BlockGrid, order: [Dim; 3]) -> Self {
        let [a, b, c] = order;
        assert!(a != b && b != c && a != c, "loop order must be a permutation, got {order:?}");
        Self { order, ..Self::k_first(grid, 0, 0) }
    }

    /// The same order cut into outer tiles of `ko_blocks x no_blocks`
    /// blocks on the K/N face. `0` in either extent means the whole
    /// dimension; extents past the grid clamp to it.
    pub fn with_outer_tiles(self, ko_blocks: usize, no_blocks: usize) -> Self {
        let cap = |want: usize, ext: usize| (if want == 0 { ext } else { want.min(ext) }).max(1);
        Self { ko: cap(ko_blocks, self.grid.kb), no: cap(no_blocks, self.grid.nb), ..self }
    }

    /// The underlying grid.
    pub fn grid(&self) -> BlockGrid {
        self.grid
    }

    /// Total number of blocks in the schedule.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// `true` when the schedule contains no blocks.
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Outer tile counts `(k_tiles, n_tiles)`.
    fn outer_tiles(&self) -> (usize, usize) {
        (self.grid.kb.div_ceil(self.ko), self.grid.nb.div_ceil(self.no))
    }

    /// Block at linear position `idx` (0-based) in execution order.
    ///
    /// Heap-free and panic-free: this sits on the executor's warm path.
    /// An out-of-range `idx` (never produced by the executor, which guards
    /// with `bi < len`) clamps to the last grid corner.
    pub fn coord_at(&self, idx: usize) -> BlockCoord {
        let g = self.grid;
        let (kt, nt) = self.outer_tiles();
        let mut rem = idx;
        for tn in 0..nt {
            for step in 0..kt {
                // Outer-level snake: the K tile loop reverses on every N
                // tile advance, so consecutive tiles stay adjacent.
                let tk = if tn.is_multiple_of(2) { step } else { kt - 1 - step };
                let (k0, n0) = (tk * self.ko, tn * self.no);
                let (kb, nb) = (self.ko.min(g.kb - k0), self.no.min(g.nb - n0));
                let tile = BlockGrid { mb: g.mb, kb, nb };
                if rem < tile.len() {
                    let c = snake_coord(tile, self.order, rem);
                    return BlockCoord { m: c.m, k: k0 + c.k, n: n0 + c.n };
                }
                rem -= tile.len();
            }
        }
        BlockCoord {
            m: g.mb.saturating_sub(1),
            k: g.kb.saturating_sub(1),
            n: g.nb.saturating_sub(1),
        }
    }
}

/// Position `idx < grid.len()` of the boustrophedon over `grid` in loop
/// `order`: the middle loop snakes on the outer index's parity, the inner
/// loop on the parity of completed (outer, middle) pairs.
fn snake_coord(grid: BlockGrid, order: [Dim; 3], idx: usize) -> BlockCoord {
    let [outer_dim, mid_dim, inner_dim] = order;
    let (me, ie) = (grid.extent(mid_dim), grid.extent(inner_dim));
    let outer = idx / (me * ie);
    let mid_step = idx % (me * ie) / ie;
    let inner_step = idx % ie;
    let mid = if outer.is_multiple_of(2) { mid_step } else { me - 1 - mid_step };
    let pair = outer * me + mid_step;
    let inner = if pair.is_multiple_of(2) { inner_step } else { ie - 1 - inner_step };
    let mut c = BlockCoord { m: 0, k: 0, n: 0 };
    for (d, v) in [(outer_dim, outer), (mid_dim, mid), (inner_dim, inner)] {
        match d {
            Dim::M => c.m = v,
            Dim::K => c.k = v,
            Dim::N => c.n = v,
        }
    }
    c
}

impl Iterator for Schedule {
    type Item = BlockCoord;

    fn next(&mut self) -> Option<BlockCoord> {
        // NB: call through the grid explicitly — on `&mut self`, plain
        // `self.len()` resolves to `ExactSizeIterator::len`, which already
        // subtracts `pos`.
        if self.pos >= self.grid.len() {
            return None;
        }
        let c = self.coord_at(self.pos);
        self.pos += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.grid.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Schedule {}

/// The surfaces two consecutively executed blocks share.
///
/// Blocks share A when they agree in `(m, k)`, B when they agree in
/// `(k, n)`, and C when they agree in `(m, n)`. Adjacent snake-schedule
/// blocks always share exactly one surface; non-adjacent blocks share none.
pub fn shared_surfaces(prev: BlockCoord, next: BlockCoord) -> Vec<Surface> {
    let mut out = Vec::with_capacity(1);
    if prev.m == next.m && prev.k == next.k {
        out.push(Surface::A);
    }
    if prev.k == next.k && prev.n == next.n {
        out.push(Surface::B);
    }
    if prev.m == next.m && prev.n == next.n {
        out.push(Surface::C);
    }
    out
}

/// 2D worker grid `(pm, pn)` for partitioning one CB block across `p`
/// workers: `pm` row groups times `pn` column groups, with `pm * pn == p`.
///
/// `pm` is the **largest divisor of `p` that is at most `m_tiles`** (the
/// block's row-tile count), so:
///
/// * when `m_tiles >= p` the grid degenerates to `(p, 1)` — the classic
///   balanced M-strip partition, unchanged from the 1D executor;
/// * when `m_tiles < p` (small-m blocks that used to idle `p - m_tiles`
///   workers) the surplus parallelism folds into the N dimension, each of
///   the `pn` column groups taking a contiguous sliver range via
///   [`split_range`](cake_kernels::pack::split_range).
///
/// `m_tiles == 0` is treated as 1 so empty blocks still yield a valid
/// (degenerate) grid.
pub fn worker_grid(p: usize, m_tiles: usize) -> (usize, usize) {
    // audit: cold grid-shaping precondition, once per GEMM call
    assert!(p > 0, "worker grid needs at least one worker");
    let cap = m_tiles.max(1);
    let mut pm = 1;
    for d in 1..=p {
        if p.is_multiple_of(d) && d <= cap && d > pm {
            pm = d;
        }
    }
    (pm, p / pm)
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{dram_traffic, CResidency, TrafficParams};
    use proptest::prelude::*;
    use std::collections::HashSet;

    const ORDERS: [[Dim; 3]; 6] = [
        [Dim::M, Dim::K, Dim::N],
        [Dim::M, Dim::N, Dim::K],
        [Dim::K, Dim::M, Dim::N],
        [Dim::K, Dim::N, Dim::M],
        [Dim::N, Dim::M, Dim::K],
        [Dim::N, Dim::K, Dim::M],
    ];

    fn grid(mb: usize, kb: usize, nb: usize) -> BlockGrid {
        BlockGrid { mb, kb, nb }
    }

    fn manhattan(a: BlockCoord, b: BlockCoord) -> usize {
        a.m.abs_diff(b.m) + a.k.abs_diff(b.k) + a.n.abs_diff(b.n)
    }

    /// Panics unless `coords` visits every block of `g` exactly once.
    fn assert_permutation(coords: &[BlockCoord], g: BlockGrid) {
        assert_eq!(coords.len(), g.len());
        let seen: HashSet<_> = coords.iter().copied().collect();
        assert_eq!(seen.len(), g.len(), "schedule must be a permutation");
        assert!(coords.iter().all(|c| c.m < g.mb && c.k < g.kb && c.n < g.nb));
    }

    /// Panics if the schedule re-enters an outer tile it has left.
    fn assert_tiles_contiguous(coords: &[BlockCoord], ko: usize, no: usize) {
        let mut seen_tiles: HashSet<(usize, usize)> = HashSet::new();
        let mut cur = None;
        for c in coords {
            let t = (c.k / ko, c.n / no);
            if cur != Some(t) {
                assert!(seen_tiles.insert(t), "tile {t:?} re-entered");
                cur = Some(t);
            }
        }
    }

    #[test]
    fn k_runs_first_then_m_steps_reverse_k() {
        // First kb blocks of an N-outer schedule share (m=0, n=0) and
        // sweep k = 0..kb; the m step keeps n and k at the far end.
        let sched: Vec<_> = Schedule::k_first(grid(2, 3, 2), 1, 1).collect();
        for (i, c) in sched.iter().take(3).enumerate() {
            assert_eq!((c.m, c.k, c.n), (0, i, 0));
        }
        assert_eq!((sched[3].m, sched[3].k, sched[3].n), (1, 2, 0), "k must snake back");
    }

    #[test]
    fn k_first_orientation_follows_shape_and_ties_go_to_n_outer() {
        let g = grid(2, 2, 3);
        let order = |m, n| Schedule::k_first(g, m, n).collect::<Vec<_>>();
        let n_outer: Vec<_> = Schedule::new(g, [Dim::N, Dim::M, Dim::K]).collect();
        let m_outer: Vec<_> = Schedule::new(g, [Dim::M, Dim::N, Dim::K]).collect();
        assert_ne!(n_outer, m_outer);
        assert_eq!(order(100, 200), n_outer);
        assert_eq!(order(200, 100), m_outer);
        assert_eq!(order(100, 100), n_outer);
    }

    #[test]
    fn steps_share_the_surface_of_the_dims_they_keep() {
        // K steps share C, M steps share B, N steps share A: adjacent
        // blocks share exactly one surface.
        let sched: Vec<_> = Schedule::k_first(grid(3, 3, 3), 1, 1).collect();
        for w in sched.windows(2) {
            let shared = shared_surfaces(w[0], w[1]);
            let want = if w[0].k != w[1].k {
                Surface::C
            } else if w[0].m != w[1].m {
                Surface::B
            } else {
                Surface::A
            };
            assert_eq!(shared, vec![want], "{:?} -> {:?}", w[0], w[1]);
        }
        // A self-pair shares all three; a one-block schedule has no pairs.
        let c = BlockCoord { m: 0, k: 0, n: 0 };
        assert_eq!(shared_surfaces(c, c), vec![Surface::A, Surface::B, Surface::C]);
    }

    #[test]
    fn plain_nested_loops_lose_adjacency() {
        // The non-snaking counter-example: at the first m advance k jumps
        // from 2 back to 0, so consecutive blocks share no surface.
        let plain: Vec<_> = (0..2)
            .flat_map(|m| (0..3).map(move |k| BlockCoord { m, k, n: 0 }))
            .collect();
        assert!(shared_surfaces(plain[2], plain[3]).is_empty());
        let snake: Vec<_> = Schedule::k_first(grid(2, 3, 1), 1, 1).collect();
        assert_eq!(shared_surfaces(snake[2], snake[3]), vec![Surface::B]);
    }

    #[test]
    fn grid_for_problem_uses_ceiling_division() {
        let g = BlockGrid::for_problem(100, 50, 70, 30, 30, 30);
        assert_eq!((g.mb, g.kb, g.nb), (4, 2, 3));
        assert_eq!(g.len(), 24);
        assert_eq!((g.extent(Dim::M), g.extent(Dim::K), g.extent(Dim::N)), (4, 2, 3));
    }

    #[test]
    fn empty_grids_yield_nothing() {
        let g = BlockGrid::for_problem(0, 10, 10, 4, 4, 4);
        assert!(g.is_empty());
        assert_eq!(Schedule::k_first(g, 0, 10).count(), 0);
        let tiled = Schedule::k_first(grid(0, 4, 4), 0, 16).with_outer_tiles(2, 2);
        assert!(tiled.is_empty());
        assert_eq!(tiled.count(), 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut s = Schedule::k_first(grid(2, 3, 4), 1, 1).with_outer_tiles(2, 3);
        assert_eq!(s.size_hint(), (24, Some(24)));
        s.next();
        assert_eq!(s.size_hint(), (23, Some(23)));
        assert_eq!(s.len(), 24, "len counts the whole schedule");
    }

    #[test]
    fn degenerate_outer_tiles_equal_the_untiled_order() {
        for (mb, kb, nb, m, n) in
            [(3, 4, 5, 10, 20), (2, 3, 2, 30, 10), (1, 1, 1, 4, 4), (4, 1, 6, 7, 7)]
        {
            let g = grid(mb, kb, nb);
            let one: Vec<_> = Schedule::k_first(g, m, n).collect();
            for (ko, no) in [(0, 0), (kb, nb), (kb + 3, nb + 1), (0, nb)] {
                let s = Schedule::k_first(g, m, n).with_outer_tiles(ko, no);
                assert_eq!(s.outer_tiles(), (1, 1));
                assert_eq!(s.collect::<Vec<_>>(), one, "ko={ko} no={no} must degenerate");
            }
        }
    }

    #[test]
    fn coord_at_is_total_on_out_of_range_indices() {
        let s = Schedule::k_first(grid(3, 4, 5), 9, 9).with_outer_tiles(3, 2);
        assert_eq!(s.coord_at(s.len()), BlockCoord { m: 2, k: 3, n: 4 });
        assert_eq!(s.coord_at(usize::MAX), BlockCoord { m: 2, k: 3, n: 4 });
        let empty = Schedule::k_first(grid(0, 2, 2), 0, 1);
        assert_eq!(empty.coord_at(0), BlockCoord { m: 0, k: 1, n: 1 });
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn repeated_dims_rejected() {
        let _ = Schedule::new(grid(1, 1, 1), [Dim::M, Dim::M, Dim::K]);
    }

    #[test]
    fn k_first_wins_for_wide_blocks() {
        // Sharing C (worth 2*bm*bn) beats sharing A or B on cubic blocks.
        let tp = TrafficParams { m: 128, k: 128, n: 128, bm: 32, bk: 32, bn: 32 };
        let g = BlockGrid::for_problem(tp.m, tp.k, tp.n, tp.bm, tp.bk, tp.bn);
        let total =
            |order| dram_traffic(Schedule::new(g, order), tp, CResidency::HoldInLlc, 1).total();
        let k_inner = total([Dim::N, Dim::M, Dim::K]);
        assert!(k_inner < total([Dim::K, Dim::M, Dim::N]));
        assert!(k_inner < total([Dim::K, Dim::N, Dim::M]));
    }

    #[test]
    fn reuse_priority_crossover_for_tall_k_blocks() {
        // Tall-K blocks: bk = 64 >> bm = bn = 8. Sharing A per step saves
        // bm*bk = 512 while sharing C saves only 2*bm*bn = 128: the
        // N-inner (A-reusing) order must beat the paper's K-first.
        let tp = TrafficParams { m: 32, k: 256, n: 32, bm: 8, bk: 64, bn: 8 };
        let g = BlockGrid::for_problem(tp.m, tp.k, tp.n, tp.bm, tp.bk, tp.bn);
        let total =
            |order| dram_traffic(Schedule::new(g, order), tp, CResidency::HoldInLlc, 1).total();
        let (k_inner, n_inner) = (total([Dim::N, Dim::M, Dim::K]), total([Dim::K, Dim::M, Dim::N]));
        assert!(n_inner < k_inner, "n_inner {n_inner} vs k_inner {k_inner}");
    }

    #[test]
    fn worker_grid_degenerates_to_m_strips_when_tiles_suffice() {
        for p in 1..=8 {
            assert_eq!(worker_grid(p, p), (p, 1));
            assert_eq!(worker_grid(p, p + 3), (p, 1));
        }
    }

    #[test]
    fn worker_grid_folds_surplus_workers_into_n() {
        assert_eq!(worker_grid(4, 2), (2, 2));
        assert_eq!(worker_grid(4, 1), (1, 4));
        assert_eq!(worker_grid(8, 3), (2, 4), "largest divisor of 8 <= 3 is 2");
        assert_eq!(worker_grid(6, 3), (3, 2));
        assert_eq!(worker_grid(5, 3), (1, 5), "prime p has no middle divisor");
        assert_eq!(worker_grid(1, 0), (1, 1));
        assert_eq!(worker_grid(3, 0), (1, 3), "empty block still grids");
    }

    proptest! {
        #[test]
        fn every_order_is_an_adjacent_permutation(
            mb in 1usize..8, kb in 1usize..8, nb in 1usize..8, perm in 0usize..6,
        ) {
            let g = grid(mb, kb, nb);
            let sched: Vec<_> = Schedule::new(g, ORDERS[perm]).collect();
            assert_permutation(&sched, g);
            for w in sched.windows(2) {
                prop_assert_eq!(manhattan(w[0], w[1]), 1, "{:?}", ORDERS[perm]);
            }
        }

        #[test]
        fn outer_tiles_are_contiguous_permutations(
            mb in 1usize..6, kb in 1usize..7, nb in 1usize..7,
            ko in 1usize..8, no in 1usize..8, perm in 0usize..6,
        ) {
            let g = grid(mb, kb, nb);
            let s = Schedule::new(g, ORDERS[perm]).with_outer_tiles(ko, no);
            let coords: Vec<_> = s.collect();
            assert_permutation(&coords, g);
            assert_tiles_contiguous(&coords, ko.min(kb), no.min(nb));
            // coord_at replays iteration exactly.
            for (i, c) in coords.iter().enumerate() {
                prop_assert_eq!(s.coord_at(i), *c);
            }
        }

        #[test]
        fn grid_is_exact_and_maximal(p in 1usize..33, m_tiles in 0usize..40) {
            let (pm, pn) = worker_grid(p, m_tiles);
            prop_assert_eq!(pm * pn, p, "grid must use every worker");
            prop_assert!(pm <= m_tiles.max(1), "row groups never exceed row tiles");
            // Maximality: no larger divisor of p fits under the tile count.
            for d in (pm + 1)..=m_tiles.max(1).min(p) {
                prop_assert!(!p.is_multiple_of(d), "pm = {} not maximal, {} fits", pm, d);
            }
        }
    }
}
