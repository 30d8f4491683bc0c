//! Atomics-ordering checker for the barrier/pool protocol.
//!
//! **The defect only this pass catches:** an atomic ordering weaker than
//! the barrier protocol needs, or barrier code its safety argument rests
//! on deleted (a SeqCst fence, the sense flip). On x86 a demoted ordering
//! compiles to the same instructions, and a missing park fence shows only
//! as a rare lost wakeup, so no runtime test can be relied on to fail.
//!
//! Extracts every atomic load/store/RMW/fence in the workspace's
//! non-test sources together with its `Ordering`, then checks the
//! inventory against the **declared happens-before protocol** of the
//! sense-reversing barrier (cake-core/src/sync.rs):
//!
//! * `sense` — the release edge: every store `Release`, every load
//!   `Acquire`, and the two must both exist (a Release store with no
//!   Acquire observer, or vice versa, is a broken pairing);
//! * `arrived` — arrivals are `AcqRel` RMWs (each arrival publishes the
//!   worker's writes and the leader's arrival acquires them all); the
//!   leader's counter reset may be `Relaxed` *only* under the
//!   `counter-reset-relaxed` fact anchor that argues why;
//! * `parked` — the Dekker half of the park handshake: every access
//!   `SeqCst`, fences `SeqCst` and each pinned by a named
//!   `// audit: fact` anchor (the SC-order argument lives in the module
//!   docs; the anchor keeps code and argument from drifting apart);
//! * everything else (stats counters, traffic tallies) must be
//!   `Relaxed`-only — a stronger ordering on a non-protocol atomic means
//!   either an undeclared protocol or cargo-culted synchronization.
//!
//! The **barrier facts** ([`SYNC_FACTS`]) pin the code under each of
//! sync.rs's seven `// audit: fact <name>` anchors: every fact must be
//! anchored exactly once, directly above a code line that matches its
//! pattern. Deleting a fence, the sense flip or an anchor fails the pass.
//!
//! The static spec is then **cross-validated against cake-verify's
//! interleave step machine**: the happens-before edge the `sense`
//! Release/Acquire pairing provides is exactly the model's `Barrier`
//! step, so the machine must (a) find the faithful barrier program
//! race-free, (b) exhibit a race when the edge is removed (what a
//! `Relaxed` demotion would do), and (c) catch the lost wakeup that the
//! `parked` SeqCst fences exclude (via the `ParkLostWakeup` barrier
//! model). A model that cannot show the failure modes would make the
//! ordering rules unfalsifiable, so that too fails the audit.
//!
//! Extraction is line-based on the lexer's code channel (strings and
//! comments never match) and assumes the workspace style of one atomic
//! op per line with its `Ordering::` argument on the same line — ops
//! without an `Ordering::` token on the line (e.g. `slice.swap(i, j)`)
//! are not atomic ops and are ignored.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{self, SourceFile};
use crate::scan::{lex, LexedLine};
use cake_verify::interleave::{explore_programs, explore_programs_with, BarrierModel, Step};

/// Method names that make a line an atomic operation when followed by an
/// `Ordering::` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One extracted atomic operation (or fence).
#[derive(Clone, Debug)]
pub struct AtomicOp {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Field name of the atomic (`sense`, `arrived`, `pack_total`, ...);
    /// `<fence>` for fences.
    pub receiver: String,
    /// `load` / `store` / `fetch_add` / ... / `fence`.
    pub op: String,
    /// First `Ordering::` argument on the line.
    pub ordering: String,
    /// `// audit: fact <name>` anchors covering the line.
    pub facts: Vec<String>,
}

impl AtomicOp {
    /// `true` for read-modify-write operations.
    fn is_rmw(&self) -> bool {
        matches!(
            self.op.as_str(),
            "swap"
                | "fetch_add"
                | "fetch_sub"
                | "fetch_and"
                | "fetch_or"
                | "fetch_xor"
                | "fetch_max"
                | "fetch_min"
                | "compare_exchange"
                | "compare_exchange_weak"
        )
    }
}

/// Operation class a protocol rule constrains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Plain `store`.
    Store,
    /// Plain `load`.
    Load,
    /// Any read-modify-write.
    Rmw,
}

/// One rule of the declared happens-before protocol.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolRule {
    /// Atomic field name the rule constrains.
    pub atomic: &'static str,
    /// Which operations it applies to.
    pub class: OpClass,
    /// The required ordering.
    pub ordering: &'static str,
    /// Fact anchor that must cover the line (Relaxed-on-protocol needs a
    /// recorded argument).
    pub fact: Option<&'static str>,
}

/// The barrier protocol: which orderings each protocol atomic may use.
/// An operation class with no rule here (e.g. a `load` of `arrived`) is a
/// protocol violation outright — the spec is exhaustive by design.
pub const PROTOCOL: &[ProtocolRule] = &[
    ProtocolRule { atomic: "sense", class: OpClass::Store, ordering: "Release", fact: None },
    ProtocolRule { atomic: "sense", class: OpClass::Load, ordering: "Acquire", fact: None },
    ProtocolRule { atomic: "arrived", class: OpClass::Rmw, ordering: "AcqRel", fact: None },
    ProtocolRule {
        atomic: "arrived",
        class: OpClass::Store,
        ordering: "Relaxed",
        fact: Some("counter-reset-relaxed"),
    },
    ProtocolRule { atomic: "parked", class: OpClass::Rmw, ordering: "SeqCst", fact: None },
    ProtocolRule { atomic: "parked", class: OpClass::Load, ordering: "SeqCst", fact: None },
];

/// The barrier facts sync.rs must pin: each `// audit: fact <name>`
/// anchor and the pattern the code line under it must contain.
pub const SYNC_FACTS: &[(&str, &str)] = &[
    ("sense-reversal", "= !"),
    ("arrive-acqrel", "fetch_add(1, Ordering::AcqRel)"),
    ("publish-release", "Ordering::Release"),
    ("spin-acquire", "load(Ordering::Acquire)"),
    ("counter-reset-relaxed", "store(0, Ordering::Relaxed)"),
    ("park-advertise-seqcst", "fence(Ordering::SeqCst)"),
    ("leader-fence-seqcst", "fence(Ordering::SeqCst)"),
];

/// Result of the atomics pass.
#[derive(Debug, Default)]
pub struct AtomicsReport {
    /// Rendered inventory (`file:line receiver.op Ordering`).
    pub ops: Vec<String>,
    /// Per-protocol-atomic summaries.
    pub protocol: Vec<String>,
    /// Barrier facts found backed by their code (`file:line name`).
    pub facts: Vec<String>,
    /// Model cross-validation scenario lines.
    pub scenarios: Vec<String>,
    /// Violations (non-empty fails the audit).
    pub violations: Vec<String>,
}

impl AtomicsReport {
    /// `true` when the inventory matches the protocol and the model
    /// confirms both the guarantee and its failure modes.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Extract the atomic-field name left of the `.` at `dot`: walk back over
/// the receiver path (`self.arrived.0`) and return the last non-numeric,
/// non-`self` segment.
fn receiver_name(code: &str, dot: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = dot;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || c == '_' || c == '.' {
            start -= 1;
        } else {
            break;
        }
    }
    code[start..dot]
        .split('.')
        .rfind(|s| !s.is_empty() && *s != "self" && !s.chars().all(|c| c.is_ascii_digit()))
        .unwrap_or("?")
        .to_string()
}

/// First `Ordering::<word>` at or after `from` on the code channel.
fn ordering_after(code: &str, from: usize) -> Option<String> {
    let pos = code[from..].find("Ordering::")? + from + "Ordering::".len();
    let word: String =
        code[pos..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!word.is_empty()).then_some(word)
}

/// `// audit: fact <name>` anchors covering line `li`.
fn facts_for_line(lexed: &[LexedLine], li: usize) -> Vec<String> {
    let mut out = Vec::new();
    for c in callgraph::audit_comments_for_line(lexed, li) {
        let Some(p) = c.find("audit:") else { continue };
        let mut words = c[p + 6..].split_whitespace();
        if words.next() == Some("fact") {
            if let Some(name) = words.next() {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Extract every atomic op and fence from the non-test regions of `files`
/// (pre-filtered to [`callgraph::graph_files`] by the caller or here).
pub fn extract_ops(files: &[SourceFile]) -> Vec<AtomicOp> {
    let mut out = Vec::new();
    for f in files {
        if !callgraph::in_graph(&f.path) {
            continue;
        }
        let lexed = lex(&f.src);
        let mut depth: i64 = 0;
        // Depth at which a `#[cfg(test)] mod` opened; lines inside are
        // skipped (test atomics deliberately use blunt SeqCst).
        let mut skip_above: Option<i64> = None;
        let mut pending_test_attr = false;
        for (li, ll) in lexed.iter().enumerate() {
            let code = ll.code.as_str();
            let trimmed = code.trim();
            if trimmed.contains("#[cfg(test)]") {
                pending_test_attr = true;
            }
            let is_mod = trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ");
            if skip_above.is_none() && pending_test_attr && is_mod && trimmed.contains('{') {
                skip_above = Some(depth);
            }
            if !trimmed.is_empty() && !trimmed.starts_with("#[") && !trimmed.starts_with("#!") && !is_mod
            {
                pending_test_attr = false;
            }

            if skip_above.is_none() {
                for m in ATOMIC_METHODS {
                    let needle = format!(".{m}(");
                    let mut from = 0usize;
                    while let Some(rel) = code[from..].find(&needle) {
                        let at = from + rel;
                        if let Some(ordering) = ordering_after(code, at + needle.len()) {
                            out.push(AtomicOp {
                                file: f.path.clone(),
                                line: li + 1,
                                receiver: receiver_name(code, at),
                                op: (*m).to_string(),
                                ordering,
                                facts: facts_for_line(&lexed, li),
                            });
                        }
                        from = at + needle.len();
                    }
                }
                let mut from = 0usize;
                while let Some(rel) = code[from..].find("fence(") {
                    let at = from + rel;
                    let boundary = at == 0
                        || !code[..at]
                            .chars()
                            .next_back()
                            .is_some_and(|c| c.is_alphanumeric() || c == '_');
                    if boundary {
                        if let Some(ordering) = ordering_after(code, at) {
                            out.push(AtomicOp {
                                file: f.path.clone(),
                                line: li + 1,
                                receiver: "<fence>".to_string(),
                                op: "fence".to_string(),
                                ordering,
                                facts: facts_for_line(&lexed, li),
                            });
                        }
                    }
                    from = at + "fence(".len();
                }
            }

            for ch in code.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if skip_above.is_some_and(|d| depth <= d) {
                            skip_above = None;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Check an extracted inventory against [`PROTOCOL`].
pub fn check_ops(ops: &[AtomicOp], report: &mut AtomicsReport) {
    let protocol_atomics: BTreeSet<&str> = PROTOCOL.iter().map(|r| r.atomic).collect();
    let mut by_receiver: BTreeMap<&str, Vec<&AtomicOp>> = BTreeMap::new();
    for op in ops {
        report
            .ops
            .push(format!("{}:{} {}.{} {}", op.file, op.line, op.receiver, op.op, op.ordering));
        by_receiver.entry(op.receiver.as_str()).or_default().push(op);
    }

    // Protocol atomics: every op must match an explicit rule.
    for name in &protocol_atomics {
        let Some(ops) = by_receiver.get(*name) else {
            report.violations.push(format!(
                "protocol atomic `{name}` never seen — the declared protocol has drifted \
                 from the sources"
            ));
            continue;
        };
        for op in ops {
            let class = if op.is_rmw() {
                OpClass::Rmw
            } else if op.op == "store" {
                OpClass::Store
            } else {
                OpClass::Load
            };
            let Some(rule) =
                PROTOCOL.iter().find(|r| r.atomic == *name && r.class == class)
            else {
                report.violations.push(format!(
                    "{}:{}: `{name}.{}` has no rule in the declared protocol — extend the \
                     spec or remove the operation",
                    op.file, op.line, op.op
                ));
                continue;
            };
            if op.ordering != rule.ordering {
                report.violations.push(format!(
                    "{}:{}: `{name}.{}` uses Ordering::{} but the protocol requires {} — \
                     a demoted ordering breaks the barrier's happens-before contract",
                    op.file, op.line, op.op, op.ordering, rule.ordering
                ));
            }
            if op.ordering == "Relaxed" && !op.facts.iter().any(|f| Some(f.as_str()) == rule.fact)
            {
                report.violations.push(format!(
                    "{}:{}: Relaxed on protocol atomic `{name}` without the justifying \
                     `// audit: fact {}` anchor",
                    op.file,
                    op.line,
                    rule.fact.unwrap_or("<name>")
                ));
            }
        }
        report.protocol.push(format!("{name}: {} op(s) match the declared rules", ops.len()));
    }

    // Pairing: a Release store needs an Acquire observer and vice versa.
    for (name, ops) in &by_receiver {
        if *name == "<fence>" {
            continue;
        }
        let rel_store = ops.iter().any(|o| o.op == "store" && o.ordering == "Release");
        let acq_load =
            ops.iter().any(|o| o.op == "load" && matches!(o.ordering.as_str(), "Acquire" | "SeqCst"));
        let publishes = ops.iter().any(|o| {
            matches!(o.ordering.as_str(), "Release" | "AcqRel" | "SeqCst")
                && (o.op == "store" || o.is_rmw())
        });
        if rel_store && !acq_load {
            report.violations.push(format!(
                "`{name}`: Release store with no Acquire load on the same atomic — \
                 the release publishes to nobody"
            ));
        }
        if acq_load && !publishes {
            report.violations.push(format!(
                "`{name}`: Acquire load with no Release/AcqRel publisher on the same atomic"
            ));
        }
    }

    // Fences: SeqCst only, each pinned by a fact anchor.
    for op in ops.iter().filter(|o| o.op == "fence") {
        if op.ordering != "SeqCst" {
            report.violations.push(format!(
                "{}:{}: fence(Ordering::{}) — the park handshake's Dekker argument needs \
                 SeqCst fences",
                op.file, op.line, op.ordering
            ));
        }
        if op.facts.is_empty() {
            report.violations.push(format!(
                "{}:{}: fence without a `// audit: fact` anchor naming its SC argument",
                op.file, op.line
            ));
        }
    }

    // Non-protocol atomics must be Relaxed-only: anything stronger is an
    // undeclared protocol.
    for (name, ops) in &by_receiver {
        if protocol_atomics.contains(*name) || *name == "<fence>" {
            continue;
        }
        for op in ops.iter() {
            if op.ordering != "Relaxed" {
                report.violations.push(format!(
                    "{}:{}: non-protocol atomic `{name}` uses Ordering::{} — stats and \
                     counters are Relaxed by contract; declare a protocol rule if this \
                     atomic now synchronizes",
                    op.file, op.line, op.ordering
                ));
            }
        }
    }
}

/// Check the `// audit: fact <name>` anchors of `files` against
/// [`SYNC_FACTS`]: each fact must be anchored exactly once, and the first
/// code line under its anchor (blank and comment lines skipped, at most
/// three lines down) must contain the fact's pattern.
fn check_sync_facts(files: &[SourceFile], report: &mut AtomicsReport) {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for f in files.iter().filter(|f| callgraph::in_graph(&f.path)) {
        let lexed = lex(&f.src);
        for (li, ll) in lexed.iter().enumerate() {
            let Some(name) = ll.comment.trim().strip_prefix("audit: fact ") else { continue };
            let name = name.trim();
            let Some(&(fact, pattern)) = SYNC_FACTS.iter().find(|(n, _)| *n == name) else {
                let at = format!("{}:{}", f.path, li + 1);
                report.violations.push(format!("{at}: unknown barrier fact `{name}`"));
                continue;
            };
            *seen.entry(fact).or_default() += 1;
            let backed = lexed[li + 1..]
                .iter()
                .take(3)
                .find(|l| !l.code.trim().is_empty())
                .is_some_and(|l| l.code.contains(pattern));
            if backed {
                report.facts.push(format!("{}:{} {fact}", f.path, li + 1));
            } else {
                report.violations.push(format!(
                    "{}:{}: fact `{fact}` not backed by code matching `{pattern}`",
                    f.path,
                    li + 1
                ));
            }
        }
    }
    for (fact, _) in SYNC_FACTS {
        match seen.get(fact) {
            None => report.violations.push(format!(
                "missing barrier fact `{fact}` — the barrier axiom is unjustified"
            )),
            Some(1) => {}
            Some(k) => report.violations.push(format!("barrier fact `{fact}` anchored {k} times")),
        }
    }
}

/// `src` without the first code line under the `// audit: fact <fact>`
/// anchor (and without the anchor too when `with_anchor`): the barrier
/// code a fact mutant deletes. Unchanged when the anchor is absent.
fn drop_code_under(src: &str, fact: &str, with_anchor: bool) -> String {
    let anchor = format!("// audit: fact {fact}");
    let lines: Vec<&str> = src.lines().collect();
    let Some(at) = lines.iter().position(|l| l.trim() == anchor) else {
        return src.to_string();
    };
    let code = lines[at + 1..]
        .iter()
        .position(|l| !l.trim().is_empty() && !l.trim().starts_with("//"))
        .map(|i| at + 1 + i);
    lines
        .iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != code && !(with_anchor && i == at))
        .map(|(_, l)| format!("{l}\n"))
        .collect()
}

/// The fact mutants the audit's self-check seeds into sync.rs, each a
/// deletion that only the fact check catches: `(what the mutant does,
/// doctored source)`.
pub(crate) fn fact_mutants(sync_src: &str) -> Vec<(&'static str, String)> {
    vec![
        ("deleting the leader's fence", drop_code_under(sync_src, "leader-fence-seqcst", false)),
        (
            "deleting the leader's fence and its fact",
            drop_code_under(sync_src, "leader-fence-seqcst", true),
        ),
        ("deleting the advertise fence", drop_code_under(sync_src, "park-advertise-seqcst", false)),
        ("deleting the sense flip", drop_code_under(sync_src, "sense-reversal", false)),
        (
            "deleting every fact anchor",
            sync_src
                .lines()
                .filter(|l| !l.contains("audit: fact"))
                .map(|l| format!("{l}\n"))
                .collect(),
        ),
    ]
}

/// Cross-validate the static ordering rules against the interleave step
/// machine: the model must confirm the guarantee *and* exhibit the failure
/// mode each rule excludes.
pub fn model_cross_check(report: &mut AtomicsReport) {
    let program = |with_barrier: bool| -> Vec<Vec<Step>> {
        (0..2u8)
            .map(|w| {
                let mut prog = vec![Step::PackB { panel: 0, sliver: w, surface: 1 }];
                if with_barrier {
                    prog.push(Step::Barrier);
                }
                prog.push(Step::BeginCompute { panel: 0, surface: 1, lo: 0, hi: 2 });
                prog.push(Step::EndCompute { panel: 0 });
                prog
            })
            .collect()
    };

    // (a) With the edge (sense Release store -> Acquire load, modeled as
    // the Barrier step) the cooperative pack/compute program is race-free.
    let kept = explore_programs(&program(true), 1, 2, 100_000);
    if !kept.violations.is_empty() {
        report.violations.push(format!(
            "model: the faithful barrier program races: {}",
            kept.violations[0]
        ));
    }
    report.scenarios.push(format!(
        "release-acquire edge kept: {} states, {} violation(s)",
        kept.states,
        kept.violations.len()
    ));

    // (b) Without it (what a Relaxed demotion of `sense` would permit) the
    // model must find the read-before-pack race — otherwise the ordering
    // rules are unfalsifiable and a green check means nothing.
    let dropped = explore_programs(&program(false), 1, 2, 100_000);
    if dropped.violations.is_empty() {
        report.violations.push(
            "model: removing the release-acquire edge exhibits no race — the step machine \
             cannot falsify the ordering rules"
                .to_string(),
        );
    }
    report.scenarios.push(format!(
        "release-acquire edge dropped: {} states, {} violation(s)",
        dropped.states,
        dropped.violations.len()
    ));

    // (c) The park handshake: parking waiters are woken under the faithful
    // model, and the lost-wakeup mutant (what losing the `parked` SeqCst
    // fence pairing would permit) must deadlock.
    let parked = explore_programs_with(&program(true), 1, 2, 100_000, BarrierModel::Park);
    if !parked.violations.is_empty() {
        report.violations.push(format!(
            "model: the park-mode barrier program fails: {}",
            parked.violations[0]
        ));
    }
    let lost = explore_programs_with(&program(true), 1, 2, 100_000, BarrierModel::ParkLostWakeup);
    if !lost.violations.iter().any(|v| v.contains("deadlock")) {
        report.violations.push(
            "model: the lost-wakeup mutant does not deadlock — the step machine cannot \
             falsify the park-fence rules"
                .to_string(),
        );
    }
    report.scenarios.push(format!(
        "park handshake: faithful {} violation(s), lost-wakeup mutant {} (deadlock expected)",
        parked.violations.len(),
        lost.violations.len()
    ));
}

/// Run the full pass over `files`.
pub fn check(files: &[SourceFile]) -> AtomicsReport {
    let mut report = AtomicsReport::default();
    let ops = extract_ops(files);
    check_ops(&ops, &mut report);
    check_sync_facts(files, &mut report);
    model_cross_check(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A faithful miniature of sync.rs's atomics and barrier facts.
    const FAITHFUL: &str = "\
        fn wait(&self, ws: &mut WaiterSense) -> bool {\n\
            let my_sense = ws.sense;\n\
            // audit: fact sense-reversal\n\
            ws.sense = !my_sense;\n\
            // audit: fact arrive-acqrel\n\
            if self.arrived.0.fetch_add(1, Ordering::AcqRel) + 1 == self.p {\n\
                // audit: fact counter-reset-relaxed\n\
                self.arrived.0.store(0, Ordering::Relaxed);\n\
                // audit: fact publish-release\n\
                self.sense.0.store(my_sense, Ordering::Release);\n\
                return true;\n\
            }\n\
            // audit: fact spin-acquire\n\
            while self.sense.0.load(Ordering::Acquire) != my_sense {}\n\
            false\n\
        }\n\
        fn park_until(&self) {\n\
            self.parked.fetch_add(1, Ordering::SeqCst);\n\
            // audit: fact park-advertise-seqcst\n\
            fence(Ordering::SeqCst);\n\
            self.parked.fetch_sub(1, Ordering::SeqCst);\n\
        }\n\
        fn wake_parked(&self) {\n\
            // audit: fact leader-fence-seqcst\n\
            fence(Ordering::SeqCst);\n\
            self.parked.load(Ordering::SeqCst);\n\
            stats.fetch_add(1, Ordering::Relaxed);\n\
        }\n";

    fn run_src(src: &str) -> AtomicsReport {
        check(&[SourceFile { path: "crates/x/src/sync.rs".into(), src: src.into() }])
    }

    fn assert_caught(r: &AtomicsReport, needle: &str) {
        assert!(r.violations.iter().any(|v| v.contains(needle)), "{needle}: {:?}", r.violations);
    }

    #[test]
    fn faithful_protocol_passes() {
        let r = run_src(FAITHFUL);
        assert!(r.ok(), "{:?}", r.violations);
        assert!(r.ops.len() >= 8, "{:?}", r.ops);
        assert_eq!(r.facts.len(), SYNC_FACTS.len(), "{:?}", r.facts);
        assert_eq!(r.scenarios.len(), 3);
    }

    #[test]
    fn missing_sync_fact_is_caught() {
        let r = run_src(&FAITHFUL.replace("// audit: fact publish-release\n", ""));
        assert_caught(&r, "missing barrier fact `publish-release`");
    }

    #[test]
    fn fact_with_wrong_adjacent_code_is_caught() {
        let r = run_src(&FAITHFUL.replace("Ordering::Release", "Ordering::Relaxed"));
        assert_caught(&r, "not backed by code");
    }

    #[test]
    fn deleted_leader_fence_under_its_fact_is_caught() {
        let doctored = drop_code_under(FAITHFUL, "leader-fence-seqcst", false);
        assert!(doctored.contains("// audit: fact leader-fence-seqcst"));
        assert_caught(&run_src(&doctored), "fact `leader-fence-seqcst` not backed");
    }

    #[test]
    fn deleted_leader_fence_and_fact_are_caught() {
        let doctored = drop_code_under(FAITHFUL, "leader-fence-seqcst", true);
        assert!(!doctored.contains("leader-fence-seqcst"));
        assert_caught(&run_src(&doctored), "missing barrier fact `leader-fence-seqcst`");
    }

    #[test]
    fn deleted_advertise_fence_is_caught() {
        let doctored = drop_code_under(FAITHFUL, "park-advertise-seqcst", false);
        assert_eq!(doctored.matches("fence(").count(), 1);
        assert_caught(&run_src(&doctored), "fact `park-advertise-seqcst` not backed");
    }

    #[test]
    fn deleted_sense_flip_is_caught() {
        let doctored = drop_code_under(FAITHFUL, "sense-reversal", false);
        assert!(!doctored.contains("ws.sense = !my_sense"));
        assert_caught(&run_src(&doctored), "fact `sense-reversal` not backed");
    }

    #[test]
    fn acqrel_demotion_is_caught() {
        let r = run_src(&FAITHFUL.replace("Ordering::AcqRel", "Ordering::Relaxed"));
        assert!(
            r.violations.iter().any(|v| v.contains("requires AcqRel")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn release_demotion_breaks_both_rule_and_pairing() {
        let r = run_src(&FAITHFUL.replace("Ordering::Release", "Ordering::Relaxed"));
        assert!(
            r.violations.iter().any(|v| v.contains("requires Release")),
            "{:?}",
            r.violations
        );
        assert!(
            r.violations.iter().any(|v| v.contains("no Release/AcqRel publisher")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn relaxed_reset_needs_its_fact_anchor() {
        let r = run_src(&FAITHFUL.replace("// audit: fact counter-reset-relaxed\n", ""));
        assert!(
            r.violations.iter().any(|v| v.contains("counter-reset-relaxed")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn seqcst_park_demotion_and_unfenced_fence_are_caught() {
        let demoted = run_src(&FAITHFUL.replace(
            ".fetch_add(1, Ordering::SeqCst)",
            ".fetch_add(1, Ordering::Relaxed)",
        ));
        assert!(
            demoted.violations.iter().any(|v| v.contains("requires SeqCst")),
            "{:?}",
            demoted.violations
        );

        let unfenced = run_src(&FAITHFUL.replace("// audit: fact park-advertise-seqcst\n", ""));
        assert!(
            unfenced.violations.iter().any(|v| v.contains("fence without")),
            "{:?}",
            unfenced.violations
        );

        let weak = run_src(&FAITHFUL.replace("fence(Ordering::SeqCst)", "fence(Ordering::Release)"));
        assert!(
            weak.violations.iter().any(|v| v.contains("SeqCst fences")),
            "{:?}",
            weak.violations
        );
    }

    #[test]
    fn strong_ordering_on_a_stats_counter_is_flagged() {
        let r = run_src(&FAITHFUL.replace(
            "stats.fetch_add(1, Ordering::Relaxed)",
            "stats.fetch_add(1, Ordering::SeqCst)",
        ));
        assert!(
            r.violations.iter().any(|v| v.contains("non-protocol atomic `stats`")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn missing_protocol_atomic_is_spec_drift() {
        let r = run_src("fn f() { x.store(1, Ordering::Relaxed); }\n");
        assert!(
            r.violations.iter().any(|v| v.contains("`sense` never seen")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn test_module_atomics_are_ignored() {
        let src = format!(
            "{FAITHFUL}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ pre.fetch_add(1, Ordering::SeqCst); }}\n}}\n"
        );
        let r = run_src(&src);
        assert!(r.ok(), "{:?}", r.violations);
        assert!(!r.ops.iter().any(|o| o.contains("pre.")), "{:?}", r.ops);
    }

    #[test]
    fn non_atomic_swap_without_ordering_is_ignored() {
        let src = format!("{FAITHFUL}\nfn s(v: &mut [u8]) {{ v.swap(0, 1); }}\n");
        let r = run_src(&src);
        assert!(r.ok(), "{:?}", r.violations);
        assert!(!r.ops.iter().any(|o| o.contains("v.swap")), "{:?}", r.ops);
    }

    #[test]
    fn receiver_names_strip_self_and_tuple_fields() {
        assert_eq!(receiver_name("self.arrived.0", "self.arrived.0".len()), "arrived");
        assert_eq!(receiver_name("pack_total", "pack_total".len()), "pack_total");
        assert_eq!(receiver_name("b.sense.0", "b.sense.0".len()), "sense");
    }

    #[test]
    fn real_sync_sources_satisfy_the_protocol() {
        let root = crate::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let files = callgraph::read_tree(&root).expect("read tree");
        let r = check(&files);
        assert!(r.ok(), "{:?}", r.violations);
        // The whole barrier inventory: arrive, reset, publish, 2 spins,
        // 3 parked ops, 2 fences, plus Relaxed stats.
        assert!(r.ops.len() >= 10, "{:?}", r.ops);
        // Every barrier fact is pinned in sync.rs itself.
        assert_eq!(r.facts.len(), SYNC_FACTS.len(), "{:?}", r.facts);
        let in_sync = |f: &String| f.starts_with("crates/cake-core/src/sync.rs:");
        assert!(r.facts.iter().all(in_sync), "{:?}", r.facts);
    }
}
