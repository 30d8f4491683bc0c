//! Deterministic interleaving harness for the executor's panel-ring
//! protocol — a loom-style model checker, in-tree and dependency-free.
//!
//! The pipelined executor's concurrency skeleton (see
//! `cake_core::executor`) is small: `p` workers walk the same K-first
//! schedule in lockstep; each block's B panel lives in a ring slot chosen
//! by the shared [`PanelCache`] replay; workers cooperatively pack the
//! *next* block's panel (each owning a contiguous `split_range` run of
//! its slivers) while others may still be computing the current one; a
//! single rotation barrier per block separates "everyone done reading
//! block `i`" from "block `i+1`'s panel is complete". The real barrier is
//! the sense-reversing `cake_core::sync::SpinBarrier`; the model's
//! `Barrier` step has the same contract — nobody advances past episode
//! `e` until all `p` workers arrive at it — which is exactly what sense
//! reversal guarantees (release-on-last-arrival, immediately reusable).
//! Its safety rests on two claims:
//!
//! 1. no worker begins computing from a panel sliver before the pack of
//!    that sliver (for that block's surface) has completed, and
//! 2. no worker packs into a panel another worker is still reading — which
//!    holds because the LRU victim is never the panel live for the
//!    *current* block.
//!
//! This module re-expresses each worker as a short program of atomic steps
//! (`PackB` / `Barrier` / `BeginCompute` / `EndCompute`) over a shared
//! machine state, then runs a DFS over **all** interleavings (deduplicated
//! by state, bounded by `max_states`), flagging any schedule that violates
//! either claim — plus deadlocks. Per-worker A strips are private by
//! construction and are not modeled.
//!
//! Two executor generalizations are modeled directly:
//!
//! * **Parking barrier** ([`BarrierModel::Park`]): a waiting worker may
//!   nondeterministically block (its spin budget expired) instead of
//!   spinning; the releasing arrival must wake it. The DFS covers every
//!   park-vs-last-arrival ordering, which is exactly the race the SC-fence
//!   handshake in `cake_core::sync` exists to close.
//! * **2D worker grid** ([`InterleaveSpec::pn`]): workers in different
//!   column groups compute from disjoint sliver ranges of the same panel,
//!   while B-pack ownership stays 1D across all `p` workers — the
//!   executor's small-block partitioning.
//!
//! Four seeded **mutants** prove the checker has teeth: removing the
//! barriers ([`Mutant::SkipBarriers`]), evicting the live panel on a ring
//! miss ([`Mutant::EvictLive`]), a barrier that fails to reverse its
//! sense so every other episode passes straight through on the stale flag
//! ([`Mutant::StaleSense`]), and a parking barrier whose release misses
//! blocked waiters ([`Mutant::ParkLostWakeup`]) must each produce
//! violations.

use std::collections::HashSet;

use cake_core::panel::{PanelAction, PanelCache};
use cake_kernels::pack::split_range;
use cake_core::schedule::{BlockCoord, BlockGrid, Schedule};

/// Protocol mutation injected into the generated programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutant {
    /// The faithful protocol.
    None,
    /// Drop every barrier (prologue and rotation).
    SkipBarriers,
    /// On a ring miss, evict the panel live for the *previous* block
    /// instead of the LRU non-live slot.
    EvictLive,
    /// A barrier that does not reverse its sense: waiters test a stale
    /// flag value and fall straight through every *other* episode (modeled
    /// by dropping the odd-indexed barriers from every program).
    StaleSense,
    /// A parking barrier whose release notify never reaches waiters that
    /// already blocked: a parked worker stays blocked forever (the lost
    /// wakeup the SC fences in `cake_core::sync::SpinBarrier` rule out).
    ParkLostWakeup,
}

/// Barrier semantics used by the interleaving engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierModel {
    /// Pure spin: waiters stay runnable until released.
    Spin,
    /// Waiters may nondeterministically park; the release wakes them.
    Park,
    /// Waiters may park, but the release misses parked waiters (mutant).
    ParkLostWakeup,
}

/// One model-checking scenario.
#[derive(Clone, Copy, Debug)]
pub struct InterleaveSpec {
    /// Worker (virtual thread) count.
    pub p: usize,
    /// Block order the workers run.
    pub schedule: Schedule,
    /// B-panel slivers per panel (cooperative pack granularity; worker `w`
    /// owns the contiguous `split_range(slivers, p, w)` run, mirroring the
    /// executor).
    pub slivers: usize,
    /// Panel-ring depth (>= 2).
    pub ring: usize,
    /// Column groups of the executor's 2D worker grid: worker `w` computes
    /// only from the sliver range `split_range(slivers, pn, w % pn)` while
    /// pack ownership stays 1D across all `p` workers. `1` models pure
    /// M-strip partitioning (every worker reads the whole panel).
    pub pn: usize,
    /// Model the parking barrier (waiters may block; release must wake).
    pub park: bool,
    /// Protocol mutation, if any.
    pub mutant: Mutant,
    /// State-count bound; exploration past it reports `complete = false`.
    pub max_states: usize,
}

/// Result of exploring one spec's interleaving space.
#[derive(Debug)]
pub struct InterleaveReport {
    /// Distinct machine states visited.
    pub states: usize,
    /// Whether the state space was exhausted within `max_states`.
    pub complete: bool,
    /// Protocol violations found (empty for a correct protocol).
    pub violations: Vec<String>,
    /// Snake reversals served by ring rotation (no repack) in the replay.
    pub rotate_hits: usize,
    /// B-panel packs after the prologue in the replay.
    pub b_packs: usize,
}

/// What one block needs from the ring.
#[derive(Clone, Copy, Debug)]
struct BlockInfo {
    /// Ring slot read during compute.
    panel: usize,
    /// Surface id expected in that slot.
    surface: u16,
    /// Ring slot to pack *for this block* (None: already resident).
    pack: Option<usize>,
}

/// One atomic step of a worker program.
///
/// Public so that external analyses (notably `cake-audit`'s atomics
/// checker) can feed their own programs through the same DFS via
/// [`explore_programs`] instead of re-implementing the protocol semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Write `surface` into `panel`'s `sliver` (shared-buffer write).
    PackB { panel: u8, sliver: u8, surface: u16 },
    /// Sense-reversing rotation barrier: nobody passes until all arrive.
    Barrier,
    /// Start reading slivers `lo..hi` of `panel`, expecting `surface`
    /// in each (a column group of the 2D grid reads a sub-range; pure
    /// M-strip workers read the whole panel).
    BeginCompute { panel: u8, surface: u16, lo: u8, hi: u8 },
    /// Stop reading `panel`.
    EndCompute { panel: u8 },
}

/// Shared machine state, hashable for DFS deduplication.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MachState {
    /// Per-worker program counter.
    pc: Vec<u16>,
    /// Per-worker "arrived at barrier, waiting" flag.
    at_barrier: Vec<bool>,
    /// Per-worker "blocked on the barrier condvar" flag (parking model).
    parked: Vec<bool>,
    /// `tags[panel][sliver]`: surface id last packed into the sliver.
    tags: Vec<Vec<Option<u16>>>,
    /// Active computes reading each panel.
    readers: Vec<u8>,
}

/// Replay the ring decision sequence for a schedule (the executor computes
/// the identical pure function on every worker).
fn ring_decisions(
    coords: &[BlockCoord],
    ring: usize,
    evict_live: bool,
) -> (Vec<BlockInfo>, usize, usize) {
    let mut surfaces: Vec<(usize, usize)> = Vec::new();
    let mut surface_id = |want: (usize, usize)| -> u16 {
        if let Some(i) = surfaces.iter().position(|&s| s == want) {
            return i as u16;
        }
        surfaces.push(want);
        (surfaces.len() - 1) as u16
    };

    let mut info = Vec::with_capacity(coords.len());
    let (mut rotate_hits, mut b_packs) = (0usize, 0usize);

    if evict_live {
        // Local replay: identical to PanelCache except the miss victim is
        // the live panel (the bug the real cache is designed to rule out —
        // PanelCache itself forbids it, so the mutant lives here).
        let mut tags: Vec<Option<(usize, usize)>> = vec![None; ring];
        let mut cur = 0usize;
        for (bi, c) in coords.iter().enumerate() {
            let want = (c.k, c.n);
            let sid = surface_id(want);
            if bi == 0 {
                tags[0] = Some(want);
                info.push(BlockInfo { panel: 0, surface: sid, pack: Some(0) });
                continue;
            }
            if tags[cur] == Some(want) {
                info.push(BlockInfo { panel: cur, surface: sid, pack: None });
            } else if let Some(j) = tags.iter().position(|&t| t == Some(want)) {
                cur = j;
                rotate_hits += 1;
                info.push(BlockInfo { panel: cur, surface: sid, pack: None });
            } else {
                tags[cur] = Some(want); // victim = live panel: the injected bug
                b_packs += 1;
                info.push(BlockInfo { panel: cur, surface: sid, pack: Some(cur) });
            }
        }
    } else {
        let mut cache = PanelCache::new(ring);
        for (bi, c) in coords.iter().enumerate() {
            let want = (c.k, c.n);
            let sid = surface_id(want);
            if bi == 0 {
                cache.seed(want);
                info.push(BlockInfo { panel: cache.cur(), surface: sid, pack: Some(cache.cur()) });
                continue;
            }
            match cache.advance(want) {
                PanelAction::Keep => {
                    info.push(BlockInfo { panel: cache.cur(), surface: sid, pack: None });
                }
                PanelAction::Rotate(j) => {
                    rotate_hits += 1;
                    info.push(BlockInfo { panel: j, surface: sid, pack: None });
                }
                PanelAction::Pack(v) => {
                    b_packs += 1;
                    info.push(BlockInfo { panel: v, surface: sid, pack: Some(v) });
                }
            }
        }
    }
    (info, rotate_hits, b_packs)
}

/// Build each worker's step program, mirroring the executor's loop:
/// prologue pack of block 0's panel + barrier, then per block
/// compute-then-pack-next-then-barrier.
fn build_programs(spec: &InterleaveSpec, info: &[BlockInfo]) -> Vec<Vec<Step>> {
    (0..spec.p)
        .map(|w| {
            let mut prog = Vec::new();
            let owned: Vec<usize> = split_range(spec.slivers, spec.p, w).collect();
            let pack_all = |prog: &mut Vec<Step>, panel: usize, surface: u16| {
                for &t in &owned {
                    prog.push(Step::PackB { panel: panel as u8, sliver: t as u8, surface });
                }
            };
            // Barrier emission under mutation. Every worker sees the same
            // episode index at the same program point, so a dropped episode
            // is dropped consistently — exactly what a stale-sense
            // fall-through looks like to the protocol.
            let mut episode = 0usize;
            let mut barrier = |prog: &mut Vec<Step>| {
                let keep = match spec.mutant {
                    Mutant::SkipBarriers => false,
                    Mutant::StaleSense => episode.is_multiple_of(2),
                    _ => true,
                };
                episode += 1;
                if keep {
                    prog.push(Step::Barrier);
                }
            };

            // 2D column group: this worker computes only from its owned
            // sliver range (the whole panel when pn == 1).
            let reads = split_range(spec.slivers, spec.pn, w % spec.pn);
            if let Some(first) = info.first() {
                pack_all(&mut prog, first.pack.expect("block 0 always packs"), first.surface);
                barrier(&mut prog);
            }
            for (bi, b) in info.iter().enumerate() {
                prog.push(Step::BeginCompute {
                    panel: b.panel as u8,
                    surface: b.surface,
                    lo: reads.start as u8,
                    hi: reads.end as u8,
                });
                prog.push(Step::EndCompute { panel: b.panel as u8 });
                if bi + 1 < info.len() {
                    let next = &info[bi + 1];
                    if let Some(target) = next.pack {
                        pack_all(&mut prog, target, next.surface);
                    }
                    barrier(&mut prog);
                }
            }
            prog
        })
        .collect()
}

/// Execute worker `w`'s next step on a copy of `st`; `Err` is a violation.
fn apply(
    st: &MachState,
    w: usize,
    progs: &[Vec<Step>],
    barrier: BarrierModel,
) -> Result<MachState, String> {
    let mut st = st.clone();
    match progs[w][st.pc[w] as usize] {
        Step::PackB { panel, sliver, surface } => {
            let p = panel as usize;
            if st.readers[p] > 0 {
                return Err(format!(
                    "worker {w} packed surface {surface} into panel {p} (sliver {sliver}) \
                     while {} worker(s) were still computing from it",
                    st.readers[p]
                ));
            }
            st.tags[p][sliver as usize] = Some(surface);
            st.pc[w] += 1;
        }
        Step::Barrier => {
            st.at_barrier[w] = true;
            // A real barrier releases only when all p workers arrive; a
            // finished worker never will (that is a deadlock, and the
            // empty-enabled check below reports it).
            let releasable = (0..progs.len()).all(|v| st.at_barrier[v]);
            if releasable {
                for v in 0..progs.len() {
                    if st.at_barrier[v] {
                        if barrier == BarrierModel::ParkLostWakeup && st.parked[v] {
                            // The release's notify never reaches a waiter
                            // that already blocked: it stays parked forever.
                            continue;
                        }
                        st.at_barrier[v] = false;
                        st.parked[v] = false;
                        st.pc[v] += 1;
                    }
                }
            }
        }
        Step::BeginCompute { panel, surface, lo, hi } => {
            let p = panel as usize;
            for t in lo as usize..hi as usize {
                let tag = st.tags[p][t];
                if tag != Some(surface) {
                    return Err(format!(
                        "worker {w} began computing surface {surface} from panel {p}, \
                         but sliver {t} holds {tag:?} — read before pack completed"
                    ));
                }
            }
            st.readers[p] += 1;
            st.pc[w] += 1;
        }
        Step::EndCompute { panel } => {
            st.readers[panel as usize] -= 1;
            st.pc[w] += 1;
        }
    }
    Ok(st)
}

/// Explore every interleaving of an explicit set of worker programs over a
/// ring of `ring` panels with `slivers` slivers each.
///
/// This is the raw engine behind [`explore`]; it accepts programs built by
/// any front end (the scenario builder here, or `cake-audit`'s
/// annotation-derived programs) and returns the same report, with
/// `rotate_hits`/`b_packs` left at zero (those are replay statistics the
/// caller may not have).
// audit: cold model-checking exploration, test-only tool
pub fn explore_programs(progs: &[Vec<Step>], ring: usize, slivers: usize, max_states: usize) -> InterleaveReport {
    explore_programs_with(progs, ring, slivers, max_states, BarrierModel::Spin)
}

/// [`explore_programs`] with explicit barrier semantics. Under
/// [`BarrierModel::Park`] (and its lost-wakeup mutant) every waiting worker
/// gains a nondeterministic "park" move, so the DFS covers each ordering of
/// spin-budget expiry against the releasing arrival.
pub fn explore_programs_with(
    progs: &[Vec<Step>],
    ring: usize,
    slivers: usize,
    max_states: usize,
    barrier: BarrierModel,
) -> InterleaveReport {
    assert!(!progs.is_empty() && ring >= 1 && slivers >= 1);
    let p = progs.len();
    let initial = MachState {
        pc: vec![0; p],
        at_barrier: vec![false; p],
        parked: vec![false; p],
        tags: vec![vec![None; slivers]; ring],
        readers: vec![0; ring],
    };

    let mut seen: HashSet<MachState> = HashSet::new();
    let mut stack = vec![initial.clone()];
    seen.insert(initial);
    let mut violations: Vec<String> = Vec::new();
    let mut complete = true;

    while let Some(st) = stack.pop() {
        if seen.len() > max_states {
            complete = false;
            break;
        }
        if barrier != BarrierModel::Spin {
            // Parking move: a waiter's spin budget may expire at any time
            // before the release reaches it.
            for w in 0..p {
                if st.at_barrier[w] && !st.parked[w] {
                    let mut next = st.clone();
                    next.parked[w] = true;
                    if seen.insert(next.clone()) {
                        stack.push(next);
                    }
                }
            }
        }
        let enabled: Vec<usize> = (0..p)
            .filter(|&w| (st.pc[w] as usize) < progs[w].len() && !st.at_barrier[w])
            .collect();
        if enabled.is_empty() {
            if (0..p).any(|w| (st.pc[w] as usize) < progs[w].len()) {
                let msg = "deadlock: live workers with no enabled step".to_string();
                if !violations.contains(&msg) {
                    violations.push(msg);
                }
            }
            continue;
        }
        for w in enabled {
            match apply(&st, w, progs, barrier) {
                Ok(next) => {
                    if seen.insert(next.clone()) {
                        stack.push(next);
                    }
                }
                Err(v) => {
                    if violations.len() < 16 && !violations.contains(&v) {
                        violations.push(v);
                    }
                }
            }
        }
    }

    InterleaveReport { states: seen.len(), complete, violations, rotate_hits: 0, b_packs: 0 }
}

/// Explore every interleaving of the spec's worker programs.
pub fn explore(spec: &InterleaveSpec) -> InterleaveReport {
    assert!(spec.p >= 1 && spec.ring >= 2 && spec.slivers >= 1 && spec.pn >= 1);
    let coords: Vec<BlockCoord> = spec.schedule.collect();
    let (info, rotate_hits, b_packs) =
        ring_decisions(&coords, spec.ring, spec.mutant == Mutant::EvictLive);
    let progs = build_programs(spec, &info);
    let barrier = match spec.mutant {
        Mutant::ParkLostWakeup => BarrierModel::ParkLostWakeup,
        _ if spec.park => BarrierModel::Park,
        _ => BarrierModel::Spin,
    };
    let mut report = explore_programs_with(&progs, spec.ring, spec.slivers, spec.max_states, barrier);
    report.rotate_hits = rotate_hits;
    report.b_packs = b_packs;
    report
}

/// Outcome of the default scenario suite.
#[derive(Debug, Default)]
pub struct SuiteReport {
    /// One line per scenario.
    pub lines: Vec<String>,
}

impl SuiteReport {
    /// Human-readable summary for the CLI.
    pub fn summary_lines(&self) -> Vec<String> {
        self.lines.clone()
    }
}

/// Faithful-protocol spec over the executor's order on `grid`, read as a
/// problem of unit blocks (`m = mb`, `n = nb`).
fn base_spec(p: usize, grid: BlockGrid) -> InterleaveSpec {
    InterleaveSpec {
        p,
        schedule: Schedule::k_first(grid, grid.mb, grid.nb),
        slivers: p.max(2),
        ring: 2,
        pn: 1,
        park: false,
        mutant: Mutant::None,
        max_states: 400_000,
    }
}

/// The standing scenario suite: the faithful protocol must exhaust its
/// interleaving space violation-free (including a snake-reversal rotate
/// hit), and both mutants must be caught.
pub fn run_default_suite() -> Result<SuiteReport, String> {
    let mut report = SuiteReport::default();

    // Snake reversal over K: (m0: k0,k1), (m1: k1,k0) — the k0 panel must
    // still be resident on the reversal (a Rotate, not a repack).
    let reversal = base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 });
    let r = explore(&reversal);
    if !r.complete || !r.violations.is_empty() {
        return Err(format!(
            "interleave [reversal]: complete={} violations={:?}",
            r.complete, r.violations
        ));
    }
    if r.rotate_hits == 0 {
        return Err("interleave [reversal]: snake reversal never hit the ring".into());
    }
    report.lines.push(format!(
        "p=2 2x2x1 exhausted: {} states, 0 violations, {} ring rotate hit(s)",
        r.states, r.rotate_hits
    ));

    // N-dimension movement at kb > 1: keeps + packs mix.
    let nwalk = base_spec(2, BlockGrid { mb: 1, kb: 2, nb: 2 });
    let r = explore(&nwalk);
    if !r.complete || !r.violations.is_empty() {
        return Err(format!(
            "interleave [n-walk]: complete={} violations={:?}",
            r.complete, r.violations
        ));
    }
    report.lines.push(format!(
        "p=2 1x2x2 exhausted: {} states, 0 violations, {} pack(s) after prologue",
        r.states, r.b_packs
    ));

    // Three workers: wider interleaving space, bounded exploration allowed.
    let wide = InterleaveSpec { max_states: 600_000, ..base_spec(3, BlockGrid { mb: 2, kb: 2, nb: 1 }) };
    let r = explore(&wide);
    if !r.violations.is_empty() {
        return Err(format!("interleave [p=3]: violations={:?}", r.violations));
    }
    report.lines.push(format!(
        "p=3 2x2x1: {} states ({}), 0 violations",
        r.states,
        if r.complete { "exhausted" } else { "bounded" }
    ));

    // Parking barrier: same protocol, but waiters may block on the condvar
    // at any point before the release. Exhausts clean because the release
    // wakes parked waiters (the SC-fence handshake in cake-core's sync.rs).
    let park = InterleaveSpec { park: true, ..reversal };
    let r = explore(&park);
    if !r.complete || !r.violations.is_empty() {
        return Err(format!(
            "interleave [park]: complete={} violations={:?}",
            r.complete, r.violations
        ));
    }
    report
        .lines
        .push(format!("p=2 2x2x1 parking barrier exhausted: {} states, 0 violations", r.states));

    // 2D worker grid: both workers share the row group and read disjoint
    // column halves of every panel; pack ownership stays 1D.
    let grid2d = InterleaveSpec { pn: 2, slivers: 4, ..reversal };
    let r = explore(&grid2d);
    if !r.complete || !r.violations.is_empty() {
        return Err(format!(
            "interleave [2d-grid]: complete={} violations={:?}",
            r.complete, r.violations
        ));
    }
    report
        .lines
        .push(format!("p=2 2x2x1 2D grid (pn=2) exhausted: {} states, 0 violations", r.states));

    // Mutant self-validation: the checker must catch a barrier-free
    // protocol and a live-panel eviction, or its green runs mean nothing.
    let no_barriers = InterleaveSpec { mutant: Mutant::SkipBarriers, ..reversal };
    let r = explore(&no_barriers);
    if r.violations.is_empty() {
        return Err("interleave [mutant]: removing barriers went undetected".into());
    }
    let evict_grid = BlockGrid { mb: 1, kb: 1, nb: 3 };
    let clean = explore(&base_spec(2, evict_grid));
    if !clean.complete || !clean.violations.is_empty() {
        return Err(format!(
            "interleave [evict-baseline]: complete={} violations={:?}",
            clean.complete, clean.violations
        ));
    }
    let evict = InterleaveSpec { mutant: Mutant::EvictLive, ..base_spec(2, evict_grid) };
    let r = explore(&evict);
    if r.violations.is_empty() {
        return Err("interleave [mutant]: evicting the live panel went undetected".into());
    }
    let stale = InterleaveSpec { mutant: Mutant::StaleSense, ..reversal };
    let r = explore(&stale);
    if r.violations.is_empty() {
        return Err("interleave [mutant]: a stale-sense barrier went undetected".into());
    }
    let lost = InterleaveSpec { park: true, mutant: Mutant::ParkLostWakeup, ..reversal };
    let r = explore(&lost);
    if !r.violations.iter().any(|v| v.contains("deadlock")) {
        return Err("interleave [mutant]: a lost park wakeup went undetected".into());
    }
    report.lines.push(
        "mutants caught: SkipBarriers, EvictLive, StaleSense, ParkLostWakeup (baselines clean)"
            .into(),
    );

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_suite_passes() {
        let rep = run_default_suite().expect("interleaving suite must pass");
        assert_eq!(rep.lines.len(), 6);
    }

    #[test]
    fn parking_barrier_is_violation_free_and_exhaustive() {
        let spec = InterleaveSpec { park: true, ..base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 }) };
        let r = explore(&spec);
        assert!(r.complete, "park model must stay exhaustible");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // The park move genuinely enlarges the state space.
        let spin = explore(&base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 }));
        assert!(r.states > spin.states, "park states {} <= spin states {}", r.states, spin.states);
    }

    #[test]
    fn park_lost_wakeup_mutant_deadlocks() {
        let spec = InterleaveSpec {
            park: true,
            mutant: Mutant::ParkLostWakeup,
            ..base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 })
        };
        let r = explore(&spec);
        assert!(
            r.violations.iter().any(|v| v.contains("deadlock")),
            "expected a deadlock from the lost wakeup, got {:?}",
            r.violations
        );
    }

    #[test]
    fn two_d_column_groups_are_violation_free() {
        // pn=2 over 4 slivers: worker 0 reads slivers 0..2, worker 1 reads
        // 2..4, and each packs its 1D-owned half.
        let spec =
            InterleaveSpec { pn: 2, slivers: 4, ..base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 }) };
        let r = explore(&spec);
        assert!(r.complete);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn two_d_grid_still_catches_missing_barriers() {
        // Partial reads must not blind the checker: a barrier-free protocol
        // with column-group ownership is still a read-before-pack race.
        let spec = InterleaveSpec {
            pn: 2,
            slivers: 4,
            mutant: Mutant::SkipBarriers,
            ..base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 })
        };
        let r = explore(&spec);
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("read before pack") || v.contains("still computing")),
            "expected a pack/read race, got {:?}",
            r.violations
        );
    }

    #[test]
    fn faithful_protocol_is_violation_free_and_exhaustive() {
        let r = explore(&base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 }));
        assert!(r.complete, "tiny spec must be exhaustible");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.states > 10, "trivial state space suggests a broken model");
    }

    #[test]
    fn skip_barriers_mutant_is_caught() {
        let spec = InterleaveSpec {
            mutant: Mutant::SkipBarriers,
            ..base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 })
        };
        let r = explore(&spec);
        assert!(
            r.violations.iter().any(|v| v.contains("read before pack")),
            "expected a read-before-pack violation, got {:?}",
            r.violations
        );
    }

    #[test]
    fn evict_live_mutant_is_caught() {
        let spec = InterleaveSpec {
            mutant: Mutant::EvictLive,
            ..base_spec(2, BlockGrid { mb: 1, kb: 1, nb: 3 })
        };
        let r = explore(&spec);
        assert!(
            r.violations.iter().any(|v| v.contains("still computing")),
            "expected a pack-into-live-panel violation, got {:?}",
            r.violations
        );
    }

    #[test]
    fn stale_sense_mutant_is_caught() {
        // Only every other episode synchronizes: a worker can race past a
        // dropped rotation barrier and read a panel sliver mid-pack.
        let spec = InterleaveSpec {
            mutant: Mutant::StaleSense,
            ..base_spec(2, BlockGrid { mb: 2, kb: 2, nb: 1 })
        };
        let r = explore(&spec);
        assert!(
            r.violations.iter().any(|v| v.contains("read before pack")),
            "expected a read-before-pack violation, got {:?}",
            r.violations
        );
    }

    #[test]
    fn oversubscribed_worker_ownership_covers_all_slivers() {
        // p > slivers: trailing workers own nothing but still hit every
        // barrier; the protocol must stay violation-free and complete.
        let spec = InterleaveSpec { slivers: 2, ..base_spec(3, BlockGrid { mb: 2, kb: 2, nb: 1 }) };
        let r = explore(&spec);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn replay_rotate_hits_match_the_real_executor() {
        use cake_core::executor::execute_with_stats_in;
        use cake_core::pool::ThreadPool;
        use cake_core::shape::CbBlockShape;
        use cake_core::workspace::GemmWorkspace;
        use cake_matrix::{init, Matrix};

        // 16x16x8 with block 8x8x8: grid 2x2x1, the reversal spec's
        // geometry. 16x32x8 with 2x1 outer tiles: grid 2x4x1 cut into two
        // K tiles, each a snake reversal of its own. The model's replay of
        // the executor's schedule and the executor's measured panel-cache
        // hits must agree.
        let shape = CbBlockShape::fixed(2, 4, 8, 8);
        let cases =
            [((16usize, 16usize, 8usize), shape), ((16, 32, 8), shape.with_outer_tiles(2, 1))];
        for ((m, k, n), shape) in cases {
            let a = init::random::<f32>(m, k, 1);
            let b = init::random::<f32>(k, n, 2);
            let mut c = Matrix::<f32>::zeros(m, n);
            let pool = ThreadPool::new(2);
            let ukr = cake_kernels::best_kernel::<f32>();
            let mut ws = GemmWorkspace::new();
            let stats = execute_with_stats_in(
                &a.view(),
                &b.view(),
                &mut c.view_mut(),
                &shape,
                &ukr,
                &pool,
                &mut ws,
            );

            let schedule = Schedule::for_shape(m, k, n, &shape);
            let coords: Vec<BlockCoord> = schedule.collect();
            let ring = cake_core::ring_depth(schedule.grid().kb);
            let (_, rotate_hits, _) = ring_decisions(&coords, ring, false);
            assert_eq!(rotate_hits, stats.b_panel_hits, "{shape}: model replay diverged");
            assert!(rotate_hits >= 1, "{shape}");
        }
    }

    #[test]
    fn deadlock_detection_fires_on_unbalanced_barriers() {
        // Hand-built programs: worker 0 has a barrier, worker 1 does not —
        // worker 0 waits forever once worker 1 finishes.
        let progs = vec![vec![Step::Barrier], vec![]];
        let initial = MachState {
            pc: vec![0; 2],
            at_barrier: vec![false; 2],
            parked: vec![false; 2],
            tags: vec![vec![None; 1]; 2],
            readers: vec![0; 2],
        };
        // Inline mini-DFS over the two-step space.
        let mut stack = vec![initial];
        let mut deadlocked = false;
        while let Some(st) = stack.pop() {
            let enabled: Vec<usize> = (0..2)
                .filter(|&w| (st.pc[w] as usize) < progs[w].len() && !st.at_barrier[w])
                .collect();
            if enabled.is_empty() {
                if (0..2).any(|w| (st.pc[w] as usize) < progs[w].len()) {
                    deadlocked = true;
                }
                continue;
            }
            for w in enabled {
                if let Ok(next) = apply(&st, w, &progs, BarrierModel::Spin) {
                    stack.push(next);
                }
            }
        }
        assert!(deadlocked, "lone barrier must deadlock");
    }
}
