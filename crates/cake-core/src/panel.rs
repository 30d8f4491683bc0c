//! The B-panel ring: a deterministic LRU cache of `(k, n)` block surfaces.
//!
//! The pipelined executor double-buffers the LLC-resident B panel and
//! generalizes the pair to a small **ring** of `ring_depth(kb)` panels.
//! Which panel is live, which gets packed, and which rotation is a cache
//! hit is decided by [`PanelCache`] — a pure function of the block
//! schedule, so every worker replays an identical copy and all agree
//! without communicating.
//!
//! The module is public so external verifiers (the `cake-verify` crate)
//! can replay the *exact* state machine the executor runs: the traffic
//! walk ([`crate::traffic::walk`], given `ring_depth(kb)` panels) and the
//! deterministic interleaving harness both consume it directly rather
//! than re-deriving an approximation that could drift from the real code.

/// B panels in the executor's ring for a problem with `kb` k-blocks:
/// `kb` panels — enough to make every snake reversal a cache hit — but
/// never fewer than two (the pipelining floor) and capped at
/// [`crate::workspace::MAX_B_PANELS`] so the LLC footprint stays small.
pub fn ring_depth(kb: usize) -> usize {
    kb.clamp(2, crate::workspace::MAX_B_PANELS)
}

/// What the B-panel ring does for the next block's `(k, n)` surface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PanelAction {
    /// The live panel already holds it (adjacency share): no rotation.
    Keep,
    /// Another ring panel holds it (cache hit): rotate to it, no pack.
    Rotate(usize),
    /// Nowhere resident (miss): pack into this panel and rotate to it.
    Pack(usize),
}

/// Deterministic LRU cache over the B panel ring, keyed by `(k, n)` block
/// surface. Every worker advances an identical copy (the state is a pure
/// function of the schedule), so all workers agree on which panel to read,
/// which to fill, and — crucially for safety — the pack target is never the
/// panel currently being computed from.
///
/// The ring state is inline fixed-size storage (the ring is capped at
/// [`MAX_B_PANELS`](crate::workspace::MAX_B_PANELS) anyway), so creating a
/// `PanelCache` per worker per GEMM call performs **no heap allocation** —
/// the executor's warm path stays allocation-free, which `cake-audit`'s
/// alloc-freedom pass proves statically.
#[derive(Clone, Copy, Debug)]
pub struct PanelCache {
    /// Which `(k, n)` surface each panel holds.
    tags: [Option<(usize, usize)>; crate::workspace::MAX_B_PANELS],
    /// Logical time of each panel's last use (0 = never touched).
    last_use: [u32; crate::workspace::MAX_B_PANELS],
    /// Panels actually in use (`2..=MAX_B_PANELS`).
    depth: usize,
    /// The live panel: the one the current block computes from.
    cur: usize,
    clock: u32,
}

impl PanelCache {
    /// An empty ring of `n_panels` panels (at least 2 for evictions to
    /// have a victim distinct from the live panel, at most
    /// [`MAX_B_PANELS`](crate::workspace::MAX_B_PANELS)).
    ///
    /// # Panics
    /// Panics when `n_panels` is outside `2..=MAX_B_PANELS`.
    pub fn new(n_panels: usize) -> Self {
        // audit: cold constructor precondition, outside the block loop;
        // every executor call site passes ring_depth(..) which clamps into
        // range
        assert!(
            (2..=crate::workspace::MAX_B_PANELS).contains(&n_panels),
            "panel ring depth {n_panels} outside 2..={}",
            crate::workspace::MAX_B_PANELS
        );
        Self {
            tags: [None; crate::workspace::MAX_B_PANELS],
            last_use: [0; crate::workspace::MAX_B_PANELS],
            depth: n_panels,
            cur: 0,
            clock: 0,
        }
    }

    /// Seed the ring with block 0's surface in panel 0 (the prologue pack).
    pub fn seed(&mut self, want: (usize, usize)) {
        self.clock += 1;
        // audit: checked index 0 of a ring whose depth is always >= 2
        self.tags[0] = Some(want);
        // audit: checked same in-range slot as the tag write above
        self.last_use[0] = self.clock;
        self.cur = 0;
    }

    /// Decide how the next block's surface is served and rotate the ring.
    pub fn advance(&mut self, want: (usize, usize)) -> PanelAction {
        self.clock += 1;
        // audit: checked cur is always a prior in-range slot (< depth)
        if self.tags[self.cur] == Some(want) {
            // audit: checked same in-range cur slot as the tag probe above
            self.last_use[self.cur] = self.clock;
            return PanelAction::Keep;
        }
        // audit: checked slice bounded by depth <= MAX_B_PANELS (ctor assert)
        if let Some(j) = self.tags[..self.depth].iter().position(|t| *t == Some(want)) {
            // audit: checked j is a position within tags[..depth]
            self.last_use[j] = self.clock;
            self.cur = j;
            return PanelAction::Rotate(j);
        }
        // Evict the least-recently-used panel that is NOT the live one —
        // workers may still be computing from `cur` while this pack runs.
        // audit: checked the filter over 0..depth with depth >= 2 always
        // leaves at least one candidate, so min_by_key is never None
        let victim = (0..self.depth)
            .filter(|&j| j != self.cur)
            // audit: checked j drawn from 0..depth
            .min_by_key(|&j| self.last_use[j])
            // audit: checked the j != cur filter with depth >= 2 leaves a candidate
            .expect("ring has >= 2 panels");
        // audit: checked victim drawn from 0..depth
        self.tags[victim] = Some(want);
        // audit: checked victim drawn from 0..depth
        self.last_use[victim] = self.clock;
        self.cur = victim;
        PanelAction::Pack(victim)
    }

    /// Index of the live panel (the one the current block computes from).
    pub fn cur(&self) -> usize {
        self.cur
    }

    /// Number of panels in the ring.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The `(k, n)` surface currently held by panel `j`, if any.
    pub fn tag(&self, j: usize) -> Option<(usize, usize)> {
        self.tags[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_depth_is_clamped() {
        assert_eq!(ring_depth(0), 2);
        assert_eq!(ring_depth(1), 2);
        assert_eq!(ring_depth(2), 2);
        assert_eq!(ring_depth(3), 3);
        assert_eq!(ring_depth(4), 4);
        assert_eq!(ring_depth(100), crate::workspace::MAX_B_PANELS);
    }

    #[test]
    fn adjacency_share_keeps_live_panel() {
        let mut c = PanelCache::new(2);
        c.seed((0, 0));
        assert_eq!(c.advance((0, 0)), PanelAction::Keep);
        assert_eq!(c.cur(), 0);
    }

    #[test]
    fn miss_packs_a_non_live_panel() {
        let mut c = PanelCache::new(3);
        c.seed((0, 0));
        let PanelAction::Pack(v) = c.advance((1, 0)) else {
            panic!("distinct surface must miss");
        };
        assert_ne!(v, 0, "victim must not be the panel being read");
        assert_eq!(c.cur(), v);
    }

    #[test]
    fn snake_reversal_hits_the_ring() {
        // k = 0, 1, 1, 0: the reversal back to k=0 finds panel 0 resident.
        let mut c = PanelCache::new(2);
        c.seed((0, 0));
        assert!(matches!(c.advance((1, 0)), PanelAction::Pack(_)));
        assert_eq!(c.advance((1, 0)), PanelAction::Keep);
        assert_eq!(c.advance((0, 0)), PanelAction::Rotate(0));
    }

    #[test]
    fn lru_evicts_oldest_among_non_live() {
        let mut c = PanelCache::new(3);
        c.seed((0, 0)); // panel 0
        assert!(matches!(c.advance((1, 0)), PanelAction::Pack(1)));
        assert!(matches!(c.advance((2, 0)), PanelAction::Pack(2)));
        // All panels full; live = 2. LRU among {0, 1} is 0.
        assert!(matches!(c.advance((3, 0)), PanelAction::Pack(0)));
        assert_eq!(c.tag(0), Some((3, 0)));
        assert_eq!(c.tag(1), Some((1, 0)));
    }

    #[test]
    fn pack_victim_is_never_live_under_any_workload() {
        // Pseudo-random surface stream: the invariant the interleaving
        // harness depends on must hold unconditionally.
        let mut c = PanelCache::new(3);
        c.seed((0, 0));
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let before = c.cur();
            if let PanelAction::Pack(v) = c.advance(((x % 5) as usize, ((x >> 8) % 5) as usize)) {
                assert_ne!(v, before, "pack target may never be the panel being read");
            }
        }
    }
}
