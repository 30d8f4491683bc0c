//! Measured element-traffic counters for the executor.
//!
//! The executor tallies every element it actually packs (A strips, B
//! panel slivers) and every C element it updates, and publishes the totals
//! through [`crate::ExecStats`]. The `cake-verify` conformance oracle
//! compares these *measured* quantities against the analytical accounting
//! in [`crate::traffic`] and the closed forms of [`crate::model`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Cross-worker element-count sinks. Workers add per-pack totals (one
/// atomic add per pack or compute call, not per element), so the cost is
/// negligible.
#[derive(Default)]
pub(crate) struct Tally {
    a_elems: AtomicU64,
    b_elems: AtomicU64,
    c_elems: AtomicU64,
}

impl Tally {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record `elems` A elements packed from the source view.
    #[inline]
    pub(crate) fn add_a(&self, elems: usize) {
        self.a_elems.fetch_add(elems as u64, Ordering::Relaxed);
    }

    /// Record `elems` B elements packed from the source view.
    #[inline]
    pub(crate) fn add_b(&self, elems: usize) {
        self.b_elems.fetch_add(elems as u64, Ordering::Relaxed);
    }

    /// Record `elems` C elements updated in place.
    #[inline]
    pub(crate) fn add_c(&self, elems: usize) {
        self.c_elems.fetch_add(elems as u64, Ordering::Relaxed);
    }

    /// `(a_elems, b_elems, c_elems)` totals.
    pub(crate) fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.a_elems.load(Ordering::Relaxed),
            self.b_elems.load(Ordering::Relaxed),
            self.c_elems.load(Ordering::Relaxed),
        )
    }
}
