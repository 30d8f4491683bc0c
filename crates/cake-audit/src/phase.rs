//! Phase/dominance checker for the executor's shared-buffer protocol.
//!
//! The pipelined executor (cake-core/src/executor.rs) annotates each
//! protocol-relevant statement with a machine-readable comment:
//!
//! ```text
//! // audit: step prologue pack_b slot=first
//! // audit: step block compute slot=cur
//! // audit: step block pack_b slot=next cond=ring-miss
//! // audit: step block barrier cond=has-next
//! ```
//!
//! This module parses those annotations *in source order*, validates the
//! protocol skeleton structurally (every shared-buffer write phase-separated
//! from cross-worker reads by a barrier), then compiles the annotations into
//! per-worker step programs — resolving ring slots with the **same**
//! [`cake_verify::interleave::ring_decisions`] replay the dynamic checker
//! uses — and exhausts every interleaving through
//! [`cake_verify::interleave::explore_programs`]. A missing barrier
//! annotation, a pack aimed at the live slot (`slot=cur`), or a reordered
//! phase all surface as concrete protocol violations.
//!
//! The sense-reversing barrier itself is axiomatized by the model's
//! `Barrier` step; the four code facts that justify the axiom
//! (sense reversal, AcqRel arrival, Release publish, Acquire spin) are
//! pinned by `// audit: fact <name>` annotations in cake-core/src/sync.rs,
//! each checked against the adjacent line of code.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use cake_core::schedule::{BlockCoord, BlockGrid, Schedule};
use cake_kernels::pack::split_range;
use cake_verify::interleave::{explore_programs, ring_decisions, BlockInfo, Step};

/// One parsed `// audit: step ...` annotation.
#[derive(Clone, Debug)]
pub struct StepAnn {
    /// 1-based source line of the annotation.
    pub line: usize,
    /// `prologue` or `block`.
    pub phase: String,
    /// `pack_b`, `pack_a`, `compute`, or `barrier`.
    pub op: String,
    /// `key=value` attributes (`slot=`, `cond=`).
    pub attrs: BTreeMap<String, String>,
}

/// Result of the phase check.
#[derive(Debug, Default)]
pub struct PhaseReport {
    /// One line per explored scenario.
    pub scenarios: Vec<String>,
    /// Structural, fact, or interleaving violations.
    pub violations: Vec<String>,
}

impl PhaseReport {
    /// `true` when the protocol passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Extract `// audit: step ...` annotations in source order.
pub fn parse_step_annotations(src: &str) -> Vec<StepAnn> {
    let mut out = Vec::new();
    for (li, line) in src.lines().enumerate() {
        let Some(pos) = line.find("// audit: step ") else { continue };
        let rest = &line[pos + "// audit: step ".len()..];
        let mut words = rest.split_whitespace();
        let (Some(phase), Some(op)) = (words.next(), words.next()) else { continue };
        let mut attrs = BTreeMap::new();
        for w in words {
            if let Some((k, vv)) = w.split_once('=') {
                attrs.insert(k.to_string(), vv.to_string());
            }
        }
        out.push(StepAnn { line: li + 1, phase: phase.to_string(), op: op.to_string(), attrs });
    }
    out
}

/// The barrier code facts required in sync.rs: annotation name and the
/// pattern the adjacent code line must contain.
const SYNC_FACTS: &[(&str, &str)] = &[
    ("sense-reversal", "= !"),
    ("arrive-acqrel", "fetch_add(1, Ordering::AcqRel)"),
    ("publish-release", "Ordering::Release"),
    ("spin-acquire", "load(Ordering::Acquire)"),
    ("counter-reset-relaxed", "store(0, Ordering::Relaxed)"),
    ("park-advertise-seqcst", "fence(Ordering::SeqCst)"),
    ("leader-fence-seqcst", "fence(Ordering::SeqCst)"),
];

/// Check the `// audit: fact <name>` annotations in sync.rs: each required
/// fact must be present exactly once and sit directly above a code line
/// matching its pattern.
fn check_sync_facts(sync_src: &str, violations: &mut Vec<String>) {
    let lines: Vec<&str> = sync_src.lines().collect();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (li, line) in lines.iter().enumerate() {
        let Some(pos) = line.find("// audit: fact ") else { continue };
        let name = line[pos + "// audit: fact ".len()..].trim().to_string();
        let Some(&(_, pattern)) = SYNC_FACTS.iter().find(|(n, _)| *n == name) else {
            violations.push(format!("sync.rs:{}: unknown barrier fact `{name}`", li + 1));
            continue;
        };
        *seen.entry(name.clone()).or_insert(0) += 1;
        // The fact must describe the immediately following code (allowing
        // blank/comment lines between).
        let mut matched = false;
        for follow in lines.iter().skip(li + 1).take(3) {
            let t = follow.trim();
            if t.is_empty() || t.starts_with("//") {
                continue;
            }
            matched = t.contains(pattern);
            break;
        }
        if !matched {
            violations.push(format!(
                "sync.rs:{}: fact `{name}` not backed by code matching `{pattern}`",
                li + 1
            ));
        }
    }
    for (name, _) in SYNC_FACTS {
        match seen.get(*name) {
            None => violations.push(format!(
                "sync.rs: missing barrier fact `{name}` — the barrier axiom is unjustified"
            )),
            Some(1) => {}
            Some(k) => violations.push(format!("sync.rs: barrier fact `{name}` annotated {k} times")),
        }
    }
}

/// Structural validation of the executor's step annotations: both phases
/// present, every cross-worker B-panel write separated from reads by a
/// barrier of the right position, the live slot never a pack target.
fn check_structure(anns: &[StepAnn], violations: &mut Vec<String>) {
    let pro: Vec<&StepAnn> = anns.iter().filter(|a| a.phase == "prologue").collect();
    let blk: Vec<&StepAnn> = anns.iter().filter(|a| a.phase == "block").collect();
    for a in anns {
        if a.phase != "prologue" && a.phase != "block" {
            violations.push(format!("executor.rs:{}: unknown phase `{}`", a.line, a.phase));
        }
    }

    let pos = |steps: &[&StepAnn], op: &str| steps.iter().position(|a| a.op == op);
    match (pos(&pro, "pack_b"), pos(&pro, "barrier")) {
        (Some(pb), Some(bar)) => {
            if bar < pb {
                violations.push(
                    "executor.rs: prologue barrier precedes the prologue pack_b — \
                     block 0 could be computed from an unpacked panel"
                        .to_string(),
                );
            }
        }
        (None, _) => violations.push("executor.rs: missing `prologue pack_b` annotation".into()),
        (_, None) => violations.push(
            "executor.rs: missing `prologue barrier` annotation — the prologue pack \
             is not separated from block 0's reads"
                .to_string(),
        ),
    }

    let compute = pos(&blk, "compute");
    if compute.is_none() {
        violations.push("executor.rs: missing `block compute` annotation".into());
    }
    match pos(&blk, "barrier") {
        None => violations.push(
            "executor.rs: missing `block barrier` annotation — the next-panel pack \
             is not separated from the next block's reads"
                .to_string(),
        ),
        Some(bar) => {
            if let Some(pb) = pos(&blk, "pack_b") {
                if bar < pb {
                    violations.push(
                        "executor.rs: block barrier precedes the next-panel pack_b".to_string(),
                    );
                }
                if let Some(cp) = compute {
                    if pb < cp {
                        violations.push(
                            "executor.rs: next-panel pack_b precedes the current compute"
                                .to_string(),
                        );
                    }
                }
            }
        }
    }
}

/// Compile the annotations into per-worker programs for one schedule replay
/// and exhaust the interleavings.
fn explore_annotations(
    anns: &[StepAnn],
    info: &[BlockInfo],
    p: usize,
    slivers: usize,
    ring: usize,
    max_states: usize,
) -> cake_verify::interleave::InterleaveReport {
    let resolve = |slot: Option<&String>, bi: usize, target: Option<usize>| -> Option<usize> {
        match slot.map(String::as_str) {
            // The faithful executor packs into the replay's chosen victim.
            None | Some("first") | Some("next") => target,
            // Mutant semantics: aim at the slot live for the current block.
            Some("cur") => Some(info[bi].panel),
            Some(_) => target,
        }
    };

    let progs: Vec<Vec<Step>> = (0..p)
        .map(|w| {
            let owned: Vec<usize> = split_range(slivers, p, w).collect();
            let mut prog = Vec::new();
            let pack_all = |prog: &mut Vec<Step>, panel: usize, surface: u16| {
                for &t in &owned {
                    prog.push(Step::PackB { panel: panel as u8, sliver: t as u8, surface });
                }
            };
            for a in anns.iter().filter(|a| a.phase == "prologue") {
                match a.op.as_str() {
                    "pack_b" => {
                        if let Some(target) = resolve(a.attrs.get("slot"), 0, info[0].pack) {
                            pack_all(&mut prog, target, info[0].surface);
                        }
                    }
                    "barrier" => prog.push(Step::Barrier),
                    _ => {} // pack_a is worker-private: not a shared-buffer step
                }
            }
            for (bi, b) in info.iter().enumerate() {
                for a in anns.iter().filter(|a| a.phase == "block") {
                    match a.op.as_str() {
                        "compute" => {
                            // Annotation programs model the pure M-strip
                            // view: every worker reads the whole panel
                            // (the strongest read-before-pack check).
                            prog.push(Step::BeginCompute {
                                panel: b.panel as u8,
                                surface: b.surface,
                                lo: 0,
                                hi: slivers as u8,
                            });
                            prog.push(Step::EndCompute { panel: b.panel as u8 });
                        }
                        "pack_b" if bi + 1 < info.len() => {
                            let next = &info[bi + 1];
                            // cond=ring-miss: the executor only packs when
                            // the replay demands it.
                            if next.pack.is_some() {
                                if let Some(target) = resolve(a.attrs.get("slot"), bi, next.pack) {
                                    pack_all(&mut prog, target, next.surface);
                                }
                            }
                        }
                        "barrier" if bi + 1 < info.len() => prog.push(Step::Barrier),
                        _ => {}
                    }
                }
            }
            prog
        })
        .collect();

    explore_programs(&progs, ring, slivers, max_states)
}

/// Run the full phase check against the two source strings (separated out so
/// tests can feed doctored sources).
pub fn check_with_sources(executor_src: &str, sync_src: &str) -> PhaseReport {
    let mut report = PhaseReport::default();
    let anns = parse_step_annotations(executor_src);
    if anns.is_empty() {
        report
            .violations
            .push("executor.rs: no `// audit: step` annotations found — protocol unmodeled".into());
        return report;
    }
    check_structure(&anns, &mut report.violations);
    check_sync_facts(sync_src, &mut report.violations);

    // Model-check the annotated protocol over the standing scenarios, with
    // slot resolution shared with cake-verify's replay.
    let scenarios: [(usize, BlockGrid, usize); 3] = [
        (2, BlockGrid { mb: 2, kb: 2, nb: 1 }, 400_000),
        (2, BlockGrid { mb: 1, kb: 2, nb: 2 }, 400_000),
        (3, BlockGrid { mb: 2, kb: 2, nb: 1 }, 600_000),
    ];
    for (p, grid, max_states) in scenarios {
        let ring = 2;
        let slivers = p.max(2);
        // The executor's order on the grid, read as a problem of unit blocks.
        let coords: Vec<BlockCoord> = Schedule::k_first(grid, grid.mb, grid.nb).collect();
        let (info, _, _) = ring_decisions(&coords, ring, false);
        let r = explore_annotations(&anns, &info, p, slivers, ring, max_states);
        for vi in &r.violations {
            report
                .violations
                .push(format!("p={p} {}x{}x{}: {vi}", grid.mb, grid.kb, grid.nb));
        }
        if p == 2 && !r.complete {
            report.violations.push(format!(
                "p={p} {}x{}x{}: state space not exhausted within {max_states}",
                grid.mb, grid.kb, grid.nb
            ));
        }
        report.scenarios.push(format!(
            "p={p} {}x{}x{}: {} states ({}), {} violation(s)",
            grid.mb,
            grid.kb,
            grid.nb,
            r.states,
            if r.complete { "exhausted" } else { "bounded" },
            r.violations.len()
        ));
    }
    report
}

/// Phase-check the real tree rooted at `root`.
pub fn check(root: &Path) -> io::Result<PhaseReport> {
    let executor = fs::read_to_string(root.join("crates/cake-core/src/executor.rs"))?;
    let sync = fs::read_to_string(root.join("crates/cake-core/src/sync.rs"))?;
    Ok(check_with_sources(&executor, &sync))
}

/// Doctor a source string for mutant self-checks: drop every line whose
/// text contains `needle`.
pub fn drop_lines(src: &str, needle: &str) -> String {
    src.lines().filter(|l| !l.contains(needle)).map(|l| format!("{l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A faithful miniature of the executor's annotation set.
    pub const FAITHFUL_EXECUTOR: &str = "\
        // audit: step prologue pack_b slot=first\n\
        // audit: step prologue pack_a\n\
        // audit: step prologue barrier\n\
        // audit: step block compute slot=cur\n\
        // audit: step block pack_b slot=next cond=ring-miss\n\
        // audit: step block pack_a cond=!share_a\n\
        // audit: step block barrier cond=has-next\n";

    /// A faithful miniature of sync.rs's fact set.
    pub const FAITHFUL_SYNC: &str = "\
        // audit: fact sense-reversal\n\
        ws.sense = !my_sense;\n\
        // audit: fact arrive-acqrel\n\
        if self.arrived.0.fetch_add(1, Ordering::AcqRel) + 1 == self.p {\n\
        // audit: fact counter-reset-relaxed\n\
        self.arrived.0.store(0, Ordering::Relaxed);\n\
        // audit: fact publish-release\n\
        self.sense.0.store(my_sense, Ordering::Release);\n\
        // audit: fact spin-acquire\n\
        while self.sense.0.load(Ordering::Acquire) != my_sense {\n\
        // audit: fact park-advertise-seqcst\n\
        fence(Ordering::SeqCst);\n\
        // audit: fact leader-fence-seqcst\n\
        fence(Ordering::SeqCst);\n";

    #[test]
    fn faithful_annotations_pass() {
        let r = check_with_sources(FAITHFUL_EXECUTOR, FAITHFUL_SYNC);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.scenarios.len(), 3);
    }

    #[test]
    fn missing_block_barrier_annotation_is_caught() {
        let doctored = drop_lines(FAITHFUL_EXECUTOR, "block barrier");
        let r = check_with_sources(&doctored, FAITHFUL_SYNC);
        assert!(
            r.violations.iter().any(|v| v.contains("missing `block barrier`")),
            "{:?}",
            r.violations
        );
        // The model agrees: without the rotation barrier the pack races
        // the readers.
        assert!(
            r.violations.iter().any(|v| v.contains("read before pack") || v.contains("still computing")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn missing_prologue_barrier_annotation_is_caught() {
        let doctored = drop_lines(FAITHFUL_EXECUTOR, "prologue barrier");
        let r = check_with_sources(&doctored, FAITHFUL_SYNC);
        assert!(!r.ok());
    }

    #[test]
    fn pack_into_live_slot_is_caught_by_the_model() {
        let doctored = FAITHFUL_EXECUTOR.replace("pack_b slot=next", "pack_b slot=cur");
        let r = check_with_sources(&doctored, FAITHFUL_SYNC);
        assert!(
            r.violations.iter().any(|v| v.contains("still computing")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn missing_sync_fact_is_caught() {
        let doctored = drop_lines(FAITHFUL_SYNC, "fact publish-release");
        let r = check_with_sources(FAITHFUL_EXECUTOR, &doctored);
        assert!(
            r.violations.iter().any(|v| v.contains("missing barrier fact `publish-release`")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn fact_with_wrong_adjacent_code_is_caught() {
        let doctored = FAITHFUL_SYNC.replace("Ordering::Release", "Ordering::Relaxed");
        let r = check_with_sources(FAITHFUL_EXECUTOR, &doctored);
        assert!(
            r.violations.iter().any(|v| v.contains("not backed by code")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn unannotated_executor_is_rejected() {
        let r = check_with_sources("fn main() {}\n", FAITHFUL_SYNC);
        assert!(!r.ok());
    }
}
