//! Exact DRAM traffic accounting for block schedules.
//!
//! [`walk`] steps through a block schedule and counts external-memory
//! element transfers under the paper's reuse rules:
//!
//! * An **A surface** is fetched unless the previous block had the same
//!   `(m, k)` coordinates (the LLC keeps the previous block's inputs —
//!   that is what the factor 2 in the Section 4.3 sizing rule buys).
//! * A **B surface** is fetched unless a B panel still holds its `(k, n)`.
//!   With one panel that is the paper's adjacency rule (the previous block
//!   had the same `(k, n)`); with [`ring_depth`](crate::panel::ring_depth)
//!   panels the walk replays the executor's LRU [`PanelCache`], so B loads
//!   equal the executor's measured [`crate::ExecStats::b_elems_loaded`]
//!   exactly. The executor's A
//!   strips are single-buffered per worker and C accumulates in place, so
//!   A and C accounting does not depend on the panel count.
//! * The **C surface** policy is configurable:
//!   - [`CResidency::HoldInLlc`] (CAKE): the partial panel for the current
//!     `(m, n)` stays in local memory. Leaving an `(m, n)` before its
//!     reduction completes spills it (write now + read on return); a
//!     completed panel is written exactly once. The one-level K-first
//!     schedule never spills; outer K tiles spill each panel once per
//!     departure — the MOMMS trade of a bounded C working set for partial
//!     round trips.
//!   - [`CResidency::StreamToDram`] (GOTO-style): every block visit reads
//!     the partial panel from DRAM (except the first visit) and writes it
//!     back (paper Section 4.1: partial results of C are streamed to DRAM).
//!
//! Edge blocks at the matrix boundary are accounted with their true
//! (smaller) surface sizes.

use crate::panel::{PanelAction, PanelCache};
use crate::schedule::{BlockCoord, BlockGrid};

/// Problem and block extents needed to size surfaces.
#[derive(Debug, Clone, Copy)]
pub struct TrafficParams {
    /// Full problem extents.
    pub m: usize,
    /// Reduction extent.
    pub k: usize,
    /// Column extent.
    pub n: usize,
    /// Block extent along M.
    pub bm: usize,
    /// Block extent along K.
    pub bk: usize,
    /// Block extent along N.
    pub bn: usize,
}

impl TrafficParams {
    /// The block grid these extents cut the problem into.
    pub fn grid(&self) -> BlockGrid {
        BlockGrid::for_problem(self.m, self.k, self.n, self.bm, self.bk, self.bn)
    }

    /// True `(m, k, n)` extents of block `c`; edge blocks are partial.
    pub fn extents(&self, c: BlockCoord) -> (usize, usize, usize) {
        (
            self.bm.min(self.m - c.m * self.bm),
            self.bk.min(self.k - c.k * self.bk),
            self.bn.min(self.n - c.n * self.bn),
        )
    }
}

/// What happens to partial C panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CResidency {
    /// Partial panels held in local memory until complete (CAKE).
    HoldInLlc,
    /// Partial panels streamed to/from DRAM every visit (GOTO).
    StreamToDram,
}

/// DRAM traffic tally, in elements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Elements of A fetched from DRAM.
    pub a_loads: u64,
    /// Elements of B fetched from DRAM.
    pub b_loads: u64,
    /// Elements of completed C written to DRAM (exactly `M * N` when the
    /// whole product is computed).
    pub c_final_writes: u64,
    /// Elements of *partial* C written to DRAM (spills / streaming).
    pub c_partial_writes: u64,
    /// Elements of partial C read back from DRAM.
    pub c_partial_reads: u64,
}

impl Traffic {
    /// Total elements moved between DRAM and local memory.
    pub fn total(&self) -> u64 {
        self.a_loads + self.b_loads + self.c_final_writes + self.c_partial_writes + self.c_partial_reads
    }

    /// Total bytes for a uniform element size (`T::Acc = T` dtypes).
    pub fn total_bytes(&self, elem_bytes: usize) -> u64 {
        self.total() * elem_bytes as u64
    }

    /// Operand (A + B) bytes at the given element size.
    pub fn input_bytes(&self, elem_bytes: usize) -> u64 {
        (self.a_loads + self.b_loads) * elem_bytes as u64
    }

    /// Total bytes with distinct operand and accumulator element sizes:
    /// A/B surfaces move at `elem_bytes`, every C surface at `acc_bytes` —
    /// the narrow-dtype tier streams i8/bf16 inputs but i32/f32 outputs.
    pub fn total_bytes_split(&self, elem_bytes: usize, acc_bytes: usize) -> u64 {
        self.input_bytes(elem_bytes) + self.c_total() * acc_bytes as u64
    }

    /// Typed-byte total for dtype `T`: operands at `size_of::<T>()`, C at
    /// `size_of::<T::Acc>()`. Equals [`Traffic::total_bytes`] whenever
    /// `T::Acc = T`.
    pub fn total_bytes_for<T: cake_matrix::Dtype>(&self) -> u64 {
        self.total_bytes_split(std::mem::size_of::<T>(), std::mem::size_of::<T::Acc>())
    }

    /// All C-related traffic.
    pub fn c_total(&self) -> u64 {
        self.c_final_writes + self.c_partial_writes + self.c_partial_reads
    }
}

impl std::ops::AddAssign for Traffic {
    fn add_assign(&mut self, t: Traffic) {
        self.a_loads += t.a_loads;
        self.b_loads += t.b_loads;
        self.c_final_writes += t.c_final_writes;
        self.c_partial_writes += t.c_partial_writes;
        self.c_partial_reads += t.c_partial_reads;
    }
}

/// Walk `schedule`, call `on_block` with each block and the elements it
/// moves, and return the total.
///
/// B surfaces are served by a ring of `b_panels` panels: `1` is the
/// paper's adjacency rule, `ring_depth(kb)` is the executor's ring (see
/// the module docs). A spill of the panel being left is charged to the
/// block that leaves it; a trailing spill (truncated schedules only) is in
/// the total but reported for no block.
///
/// # Panics
/// Panics when `b_panels` is neither 1 nor a valid [`PanelCache`] depth.
pub fn walk(
    schedule: impl IntoIterator<Item = BlockCoord>,
    params: TrafficParams,
    c_policy: CResidency,
    b_panels: usize,
    mut on_block: impl FnMut(BlockCoord, Traffic),
) -> Traffic {
    let grid = params.grid();
    let panel = |c: BlockCoord| c.m * grid.nb + c.n;
    let c_size = |c: BlockCoord| {
        let (ml, _, nl) = params.extents(c);
        (ml * nl) as u64
    };
    let hold = c_policy == CResidency::HoldInLlc;
    // K blocks still to accumulate per (m, n) panel; 0 = untouched or done.
    let mut remaining = vec![0usize; grid.mb * grid.nb];
    let mut ring = (b_panels != 1).then(|| PanelCache::new(b_panels));
    let mut total = Traffic::default();
    let mut prev: Option<BlockCoord> = None;

    for c in schedule {
        let (ml, kl, nl) = params.extents(c);
        let mut t = Traffic::default();
        if !prev.is_some_and(|p| p.m == c.m && p.k == c.k) {
            t.a_loads = (ml * kl) as u64;
        }
        let fetch_b = match (ring.as_mut(), prev) {
            (None, p) => !p.is_some_and(|p| p.k == c.k && p.n == c.n),
            (Some(pc), None) => {
                pc.seed((c.k, c.n));
                true
            }
            (Some(pc), Some(_)) => matches!(pc.advance((c.k, c.n)), PanelAction::Pack(_)),
        };
        if fetch_b {
            t.b_loads = (kl * nl) as u64;
        }

        let resident = prev.is_some_and(|p| p.m == c.m && p.n == c.n);
        if let Some(p) = prev.filter(|p| hold && !resident && remaining[panel(*p)] > 0) {
            // Leaving an incomplete panel spills it.
            t.c_partial_writes += c_size(p);
        }
        let left = &mut remaining[panel(c)];
        let first_visit = *left == 0;
        if first_visit {
            *left = grid.kb;
        }
        // A return visit reads the partial panel back unless it never left.
        let nothing_to_read = first_visit || (hold && resident);
        if !nothing_to_read {
            t.c_partial_reads += c_size(c);
        }
        *left -= 1;
        if *left == 0 {
            t.c_final_writes += c_size(c);
        } else if !hold {
            t.c_partial_writes += c_size(c);
        }

        total += t;
        on_block(c, t);
        prev = Some(c);
    }

    // A trailing incomplete panel (truncated schedules only) spills too.
    if let Some(p) = prev.filter(|p| hold && remaining[panel(*p)] > 0) {
        total.c_partial_writes += c_size(p);
    }
    total
}

/// Total DRAM traffic of `schedule`: [`walk`] without the per-block report.
pub fn dram_traffic(
    schedule: impl IntoIterator<Item = BlockCoord>,
    params: TrafficParams,
    c_policy: CResidency,
    b_panels: usize,
) -> Traffic {
    walk(schedule, params, c_policy, b_panels, |_, _| {})
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::panel::ring_depth;
    use crate::schedule::Schedule;

    fn params(m: usize, k: usize, n: usize, b: usize) -> TrafficParams {
        TrafficParams { m, k, n, bm: b, bk: b, bn: b }
    }

    fn kfirst(p: TrafficParams) -> Schedule {
        Schedule::k_first(p.grid(), p.m, p.n)
    }

    fn tiled(p: TrafficParams, ko: usize, no: usize) -> Schedule {
        kfirst(p).with_outer_tiles(ko, no)
    }

    #[test]
    fn kfirst_schedule_never_spills_partials() {
        let p = params(8, 12, 16, 4);
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        assert_eq!(t.c_partial_writes, 0);
        assert_eq!(t.c_partial_reads, 0);
        assert_eq!(t.c_final_writes, (8 * 16) as u64);
    }

    #[test]
    fn c_final_writes_equal_output_size_regardless_of_policy() {
        let p = params(10, 9, 7, 4); // deliberately non-divisible
        for policy in [CResidency::HoldInLlc, CResidency::StreamToDram] {
            let t = dram_traffic(kfirst(p), p, policy, 1);
            assert_eq!(t.c_final_writes, 70, "{policy:?}");
        }
    }

    #[test]
    fn streaming_pays_partial_round_trips() {
        let p = params(8, 12, 8, 4); // kb = 3
        let hold = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        let stream = dram_traffic(kfirst(p), p, CResidency::StreamToDram, 1);
        assert!(stream.total() > hold.total());
        // Each (m, n) panel: kb-1 partial writes and kb-1 partial reads.
        let panels = 2 * 2; // (8/4) * (8/4)
        let per_panel = (4 * 4) as u64;
        assert_eq!(stream.c_partial_writes, panels as u64 * 2 * per_panel);
        assert_eq!(stream.c_partial_reads, panels as u64 * 2 * per_panel);
    }

    #[test]
    fn snake_reuse_reduces_input_loads() {
        // Snaking reuses one A or B surface at every loop boundary; plain
        // nested loops (k restarts at 0 on every m step) fetch strictly
        // more input data.
        let p = params(16, 16, 16, 4);
        let snake = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        let plain = (0..4).flat_map(|n| {
            (0..4).flat_map(move |m| (0..4).map(move |k| BlockCoord { m, k, n }))
        });
        let naive = dram_traffic(plain, p, CResidency::HoldInLlc, 1);
        assert!(naive.a_loads + naive.b_loads > snake.a_loads + snake.b_loads);
    }

    #[test]
    fn b_reused_across_m_steps() {
        // One K block, so the schedule is a pure (n, m) sweep: B loaded
        // once per n column, A loaded for every block.
        let p = params(12, 4, 12, 4);
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        assert_eq!(t.b_loads, (4 * 12) as u64); // 3 n-blocks x (4x4) each
        // A is fetched for every block except the two n-boundary snake
        // transitions, where (m, k) is unchanged: 9 - 2 = 7 fetches.
        assert_eq!(t.a_loads, (7 * 16) as u64);
    }

    #[test]
    fn worst_case_schedule_spills_every_panel_switch() {
        // A K-outer schedule (k, m, n ordering) revisits each (m, n) panel
        // kb times with departures in between: HoldInLlc must spill.
        let p = params(8, 8, 8, 4);
        let mut order = Vec::new();
        for k in 0..2 {
            for m in 0..2 {
                for n in 0..2 {
                    order.push(BlockCoord { m, k, n });
                }
            }
        }
        let t = dram_traffic(order, p, CResidency::HoldInLlc, 1);
        // Every panel is left once while incomplete: 4 panels spilled and
        // read back once each.
        assert_eq!(t.c_partial_writes, 4 * 16);
        assert_eq!(t.c_partial_reads, 4 * 16);
        assert_eq!(t.c_final_writes, 64);
    }

    #[test]
    fn truncated_schedule_spills_its_trailing_panel() {
        // Stopping mid-reduction leaves the last panel partial: it is
        // written out once, in the total but charged to no block.
        let p = params(4, 8, 4, 4); // kb = 2, one panel
        let mut reported = Traffic::default();
        let t = walk(kfirst(p).take(1), p, CResidency::HoldInLlc, 1, |_, b| reported += b);
        assert_eq!(t.c_partial_writes, 16);
        assert_eq!(reported.c_partial_writes, 0);
        assert_eq!(t.c_final_writes, 0);
    }

    #[test]
    fn empty_schedule_moves_nothing() {
        let p = params(0, 4, 4, 4);
        for panels in [1, 2] {
            let t = dram_traffic(std::iter::empty(), p, CResidency::HoldInLlc, panels);
            assert_eq!(t.total(), 0);
        }
    }

    #[test]
    fn totals_add_up() {
        let p = params(8, 8, 8, 4);
        let t = dram_traffic(kfirst(p), p, CResidency::StreamToDram, 1);
        assert_eq!(t.total(), t.a_loads + t.b_loads + t.c_total());
        assert_eq!(t.total_bytes(4), t.total() * 4);
    }

    #[test]
    fn per_block_reports_sum_to_the_total() {
        let p = params(10, 24, 13, 4);
        let kb = p.grid().kb;
        for (ko, no) in [(0, 0), (2, 2), (1, 3)] {
            for policy in [CResidency::HoldInLlc, CResidency::StreamToDram] {
                for panels in [1, ring_depth(kb)] {
                    let (mut sum, mut blocks) = (Traffic::default(), 0);
                    let t = walk(tiled(p, ko, no), p, policy, panels, |_, b| {
                        sum += b;
                        blocks += 1;
                    });
                    assert_eq!(sum, t, "ko={ko} no={no} {policy:?} panels={panels}");
                    assert_eq!(blocks, p.grid().len());
                }
            }
        }
    }

    #[test]
    fn int8_operand_bytes_are_exactly_one_quarter_of_f32() {
        use std::mem::size_of;
        let p = params(64, 48, 56, 16);
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        // Same schedule, same element counts: the predicted operand bytes
        // scale exactly with the element size, so int8 is one quarter of
        // f32 — u64-exact, no rounding anywhere.
        assert_eq!(t.input_bytes(size_of::<i8>()) * 4, t.input_bytes(size_of::<f32>()));
        // The C surfaces stay accumulator-width: i8 widens to i32 (4 B),
        // bf16 to f32 (4 B), so only the input side narrows.
        assert_eq!(t.total_bytes_for::<i8>(), t.input_bytes(1) + t.c_total() * 4);
        assert_eq!(
            t.total_bytes_for::<cake_matrix::Bf16>(),
            t.input_bytes(2) + t.c_total() * 4
        );
        // Uniform dtypes collapse to the legacy uniform-size total.
        assert_eq!(t.total_bytes_for::<f32>(), t.total_bytes(4));
        assert_eq!(t.total_bytes_for::<f64>(), t.total_bytes(8));
    }

    // ----- edge-block regressions (m/k/n not divisible by bm/bk/bn) -----

    #[test]
    fn non_divisible_extents_tally_exact_edge_sizes() {
        // 5x3x5 with 4x4x4 blocks: grid 2x1x2, kb = 1, N-outer snake
        // (m0,n0) (m1,n0) (m1,n1) (m0,n1). Edge blocks are 1 wide/tall.
        let p = TrafficParams { m: 5, k: 3, n: 5, bm: 4, bk: 4, bn: 4 };
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        // B: loaded once per n stripe (shared across the m step):
        // 3*4 + 3*1 elements.
        assert_eq!(t.b_loads, 15);
        // A: every block except the n-boundary share (m1 stays):
        // 4*3 + 1*3 + 0 + 4*3.
        assert_eq!(t.a_loads, 27);
        assert_eq!(t.c_final_writes, 25);
        assert_eq!(t.c_partial_writes + t.c_partial_reads, 0);
    }

    #[test]
    fn non_divisible_full_input_coverage_lower_bound() {
        // Whatever the sharing pattern, each input element is fetched at
        // least once and C completes exactly once per element.
        for (m, k, n, b) in [(10, 9, 7, 4), (7, 7, 7, 3), (13, 5, 11, 8), (5, 5, 5, 4)] {
            let p = params(m, k, n, b);
            let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
            assert!(t.a_loads >= (m * k) as u64, "{m}x{k}x{n}/{b}");
            assert!(t.b_loads >= (k * n) as u64, "{m}x{k}x{n}/{b}");
            assert_eq!(t.c_final_writes, (m * n) as u64, "{m}x{k}x{n}/{b}");
        }
    }

    #[test]
    fn single_block_grid_loads_everything_exactly_once() {
        // mb = kb = nb = 1: one block, no transitions, no reuse to find.
        let p = params(5, 6, 7, 8);
        assert_eq!(p.grid().len(), 1);
        for policy in [CResidency::HoldInLlc, CResidency::StreamToDram] {
            let t = dram_traffic(kfirst(p), p, policy, 1);
            assert_eq!(t.a_loads, 30, "{policy:?}");
            assert_eq!(t.b_loads, 42, "{policy:?}");
            assert_eq!(t.c_final_writes, 35, "{policy:?}");
            assert_eq!(t.c_partial_writes + t.c_partial_reads, 0, "{policy:?}");
        }
    }

    // ----- outer (two-level) tiles -----

    #[test]
    fn k_tiling_pays_exactly_one_spill_round_trip_per_panel_per_extra_tile() {
        // kb = 4 tiled at ko = 2: every (m, n) panel's reduction is
        // interrupted once, costing one partial write + one partial read.
        let p = params(8, 16, 8, 4); // mb = 2, kb = 4, nb = 2
        let t = dram_traffic(tiled(p, 2, 0), p, CResidency::HoldInLlc, 1);
        let panel = (4 * 4) as u64;
        let panels = 2 * 2;
        assert_eq!(t.c_partial_writes, panels * panel);
        assert_eq!(t.c_partial_reads, panels * panel);
        assert_eq!(t.c_final_writes, (8 * 8) as u64);
        // The one-level schedule never spills; the two-level C total is
        // higher by exactly the round trips.
        let one = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        assert_eq!(one.c_partial_writes + one.c_partial_reads, 0);
        assert_eq!(t.c_total(), one.c_total() + 2 * panels * panel);
    }

    #[test]
    fn n_only_tiling_never_spills_partials() {
        let p = params(8, 16, 32, 4);
        let t = dram_traffic(tiled(p, 0, 2), p, CResidency::HoldInLlc, 1);
        assert_eq!(t.c_partial_writes, 0);
        assert_eq!(t.c_partial_reads, 0);
        assert_eq!(t.c_final_writes, (8 * 32) as u64);
    }

    #[test]
    fn one_level_total_is_the_floor_for_these_grids() {
        // The K-first boustrophedon is the paper's IO-minimal order; any
        // outer tiling trades C round trips (K tiles) or input reloads
        // (tile edges) and can only move more data in total. C finals are
        // invariant: every output element is written exactly once.
        let p = params(16, 16, 16, 4);
        let one = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        for (ko, no) in [(2, 0), (0, 2), (2, 2), (1, 1)] {
            let t = dram_traffic(tiled(p, ko, no), p, CResidency::HoldInLlc, 1);
            assert!(t.total() >= one.total(), "ko={ko} no={no}");
            assert_eq!(t.c_final_writes, one.c_final_writes);
        }
    }

    // ----- B panel ring (the executor's replay) -----

    #[test]
    fn ring_b_loads_never_exceed_adjacency_b_loads() {
        for (m, k, n, b) in [(16, 16, 16, 4), (10, 9, 7, 4), (32, 48, 32, 16), (8, 16, 16, 4)] {
            let p = params(m, k, n, b);
            for (ko, no) in [(0, 0), (2, 2)] {
                let adj = dram_traffic(tiled(p, ko, no), p, CResidency::HoldInLlc, 1);
                for depth in 2..=crate::workspace::MAX_B_PANELS {
                    let ring = dram_traffic(tiled(p, ko, no), p, CResidency::HoldInLlc, depth);
                    let at = format!("{m}x{k}x{n}/{b} tiles {ko}x{no} depth {depth}");
                    assert!(ring.b_loads <= adj.b_loads, "{at}");
                    // A and every C field are untouched by the ring.
                    assert_eq!(Traffic { b_loads: adj.b_loads, ..ring }, adj, "{at}");
                }
            }
        }
    }

    #[test]
    fn deep_ring_packs_each_b_surface_exactly_once() {
        // Ring at least as deep as the k-block count: every revisit hits,
        // so B DRAM traffic collapses to exactly k*n elements.
        let p = params(32, 48, 32, 16); // kb = 3 <= depth 3
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 3);
        assert_eq!(t.b_loads, (48 * 32) as u64);
    }

    #[test]
    fn shallow_ring_repays_at_snake_reversals_only() {
        // kb = 3 with only 2 panels: some reversal surfaces were already
        // evicted, so a shallow ring saves less than a kb-deep one but
        // still at least matches plain adjacency sharing.
        let p = params(32, 48, 32, 16);
        let adj = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 1);
        let shallow = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 2);
        let deep = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 3);
        assert!(deep.b_loads < shallow.b_loads);
        assert!(shallow.b_loads <= adj.b_loads);
    }

    #[test]
    #[should_panic(expected = "outside 2..=")]
    fn zero_panels_are_rejected() {
        let p = params(8, 8, 8, 4);
        let _ = dram_traffic(kfirst(p), p, CResidency::HoldInLlc, 0);
    }
}
