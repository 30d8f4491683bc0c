//! Kernel/executor panic-freedom pass.
//!
//! From every fn anchored `// audit: hot` (the K-loop hot paths: pack
//! routines, edge-tile execution, microkernel dispatch, the executor
//! compute phase), walk the [`crate::callgraph`] closure and flag every
//! construct that can panic at runtime:
//!
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//! * `.unwrap()` / `.expect(..)`
//! * non-debug `assert!` / `assert_eq!` / `assert_ne!`
//!   (`debug_assert*` is allowed — compiled out of release kernels)
//! * slice indexing `x[i]` / `x[a..b]`
//!
//! Escapes keep every residual panic site justified in-line:
//! * `// audit: cold <reason>` — the check is a pre-loop precondition or
//!   error path, not inside the K loop;
//! * `// audit: checked <reason>` — an `unwrap`/`expect` dominated by a
//!   guard that makes it infallible (the reason must say which guard);
//! * `// audit: bounds <site> [<site>..]` — indexing covered by a named
//!   [`crate::bounds`] proof; the pass cross-validates that every named
//!   site exists in the live bounds report *and was actually proven*, so
//!   a stale annotation fails the audit rather than silently licensing
//!   the access.

use std::collections::{BTreeSet, VecDeque};

use crate::callgraph::{self, CallGraph, SourceFile};
use crate::scan::{count_word, LexedLine};

/// Panic-capable macros (matched as whole words followed by `!`).
const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Result of the panic-freedom pass.
#[derive(Debug, Default)]
pub struct PanicReport {
    /// Hot roots found (`file:line qual`).
    pub roots: Vec<String>,
    /// Number of fns in the hot closure.
    pub reachable: usize,
    /// Escapes honored (cold + checked + bounds).
    pub escapes: usize,
    /// Violations (non-empty fails the audit).
    pub violations: Vec<String>,
}

impl PanicReport {
    /// `true` when every reachable panic site is escaped/justified.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Find a panic-capable token in a code channel.
fn panic_hit(code: &str) -> Option<String> {
    for m in PANIC_MACROS {
        // Whole word followed by `!` — `debug_assert!` must not match
        // `assert!`, which the word-boundary check guarantees.
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(m) {
            let at = from + rel;
            let before_ok = at == 0
                || !code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = code[at + m.len()..].chars().next();
            if before_ok && after == Some('!') {
                return Some(format!("{m}!"));
            }
            from = at + 1;
        }
    }
    if code.contains(".unwrap(") {
        return Some(".unwrap()".into());
    }
    if code.contains(".expect(") {
        return Some(".expect(..)".into());
    }
    None
}

/// Does this code channel contain slice indexing? A `[` directly preceded
/// by an identifier char, `]`, or `)` is an index expression; `[T; N]`
/// types, attribute lines, and array literals are not.
fn has_indexing(code: &str) -> bool {
    let t = code.trim_start();
    if t.starts_with("#[") || t.starts_with("#!") {
        return false;
    }
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '[' && i > 0 {
            let p = chars[i - 1];
            if p.is_alphanumeric() || p == '_' || p == ']' || p == ')' {
                return true;
            }
        }
    }
    false
}

/// Bounds-proof site names claimed by `// audit: bounds a b c` comments
/// covering this line.
fn claimed_bounds_sites(lexed: &[LexedLine], li: usize) -> Vec<String> {
    let mut out = Vec::new();
    for c in callgraph::audit_comments_for_line(lexed, li) {
        let Some(p) = c.find("audit:") else { continue };
        let mut words = c[p + 6..].split_whitespace();
        if words.next() == Some("bounds") {
            out.extend(words.map(str::to_string));
        }
    }
    out
}

/// Run the pass over an extracted graph. `proven_sites` is the set of
/// bounds-checker site names that currently hold (method assigned).
pub fn check_graph(g: &CallGraph, proven_sites: &BTreeSet<String>) -> PanicReport {
    let mut report = PanicReport::default();

    let mut queue = VecDeque::new();
    let mut visited = vec![false; g.fns.len()];
    for (i, f) in g.fns.iter().enumerate() {
        if f.anchors.contains("hot") {
            report.roots.push(format!("{}:{} {}", f.file, f.line, f.qual));
            queue.push_back(i);
            visited[i] = true;
        }
    }
    if report.roots.is_empty() {
        report
            .violations
            .push("no `// audit: hot` roots found — the hot closure is vacuous".to_string());
        return report;
    }

    while let Some(idx) = queue.pop_front() {
        report.reachable += 1;
        let fun = &g.fns[idx];
        let Some(lexed) = g.lexed.get(&fun.file) else { continue };
        if let Some((s, e)) = fun.body {
            for li in s..=e.min(lexed.len().saturating_sub(1)) {
                let code = &lexed[li].code;
                let escaped = callgraph::line_escape(lexed, li, "cold")
                    || callgraph::line_escape(lexed, li, "checked");
                if let Some(tok) = panic_hit(code) {
                    // `debug_assert*` never counts; `count_word` keeps
                    // `debug_assert_eq!` from hiding a real `assert!`
                    // on the same line.
                    let only_debug = tok.starts_with("assert")
                        && count_word(code, tok.trim_end_matches('!')) == 0;
                    if !only_debug {
                        if escaped {
                            report.escapes += 1;
                        } else {
                            report.violations.push(format!(
                                "{}:{}: `{}` in hot fn `{}` — move it out of the K loop \
                                 (// audit: cold) or justify the dominating guard (// audit: checked)",
                                fun.file,
                                li + 1,
                                tok,
                                fun.qual
                            ));
                        }
                    }
                }
                if has_indexing(code) {
                    let claimed = claimed_bounds_sites(lexed, li);
                    if !claimed.is_empty() {
                        // Cross-validate every named site against the
                        // live bounds report.
                        let mut all_proven = true;
                        for site in &claimed {
                            if !proven_sites.contains(site) {
                                all_proven = false;
                                report.violations.push(format!(
                                    "{}:{}: `// audit: bounds {site}` names a bounds site that is \
                                     not proven by the current bounds report — stale annotation",
                                    fun.file,
                                    li + 1
                                ));
                            }
                        }
                        if all_proven {
                            report.escapes += 1;
                        }
                    } else if escaped {
                        report.escapes += 1;
                    } else {
                        report.violations.push(format!(
                            "{}:{}: unproven slice indexing in hot fn `{}` — name the covering \
                             proof (// audit: bounds <site>) or justify it (// audit: checked)",
                            fun.file,
                            li + 1,
                            fun.qual
                        ));
                    }
                }
            }
        }
        for call in &fun.calls {
            let li = call.line - 1;
            if li < lexed.len() && callgraph::line_escape(lexed, li, "cold") {
                continue;
            }
            for t in g.resolve(fun, call) {
                if visited[t] || g.fns[t].anchors.contains("cold") {
                    continue;
                }
                visited[t] = true;
                queue.push_back(t);
            }
        }
    }
    report
}

/// Extract the graph from `files` and run the pass.
pub fn check(files: &[SourceFile], proven_sites: &BTreeSet<String>) -> PanicReport {
    check_graph(&callgraph::extract(files), proven_sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, proven: &[&str]) -> PanicReport {
        let sites: BTreeSet<String> = proven.iter().map(|s| s.to_string()).collect();
        check(&[SourceFile { path: "crates/x/src/lib.rs".into(), src: src.into() }], &sites)
    }

    #[test]
    fn clean_hot_fn_passes() {
        let r = run(
            "// audit: hot\n\
             fn kernel(a: &[f32], out: &mut f32) {\n\
                 for v in a.iter() { *out += *v; }\n\
                 debug_assert!(out.is_finite());\n\
             }\n",
            &[],
        );
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn unwrap_and_asserts_are_flagged() {
        for (line, tok) in [
            ("let x = maybe().unwrap();", ".unwrap()"),
            ("let x = maybe().expect(\"set\");", ".expect(..)"),
            ("assert!(k > 0);", "assert!"),
            ("assert_eq!(a, b);", "assert_eq!"),
            ("panic!(\"bad\");", "panic!"),
        ] {
            let r = run(&format!("// audit: hot\nfn kernel() {{ {line} }}\nfn maybe() -> Option<u8> {{ None }}\n"), &[]);
            assert_eq!(r.violations.len(), 1, "{line}: {:?}", r.violations);
            assert!(r.violations[0].contains(tok), "{line}: {:?}", r.violations);
        }
    }

    #[test]
    fn checked_escape_licenses_a_guarded_unwrap() {
        let r = run(
            "// audit: hot\n\
             fn kernel(v: &[u8]) -> u8 {\n\
                 if v.is_empty() { return 0; }\n\
                 // audit: checked guarded by the is_empty early-return above\n\
                 *v.last().unwrap()\n\
             }\n",
            &[],
        );
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.escapes, 1);
    }

    #[test]
    fn indexing_needs_a_proven_bounds_site() {
        let flagged = run("// audit: hot\nfn kernel(v: &[u8], i: usize) -> u8 { v[i] }\n", &[]);
        assert_eq!(flagged.violations.len(), 1, "{:?}", flagged.violations);
        assert!(flagged.violations[0].contains("unproven slice indexing"));

        let proven = run(
            "// audit: hot\n\
             fn kernel(v: &[u8], i: usize) -> u8 {\n\
                 // audit: bounds kernel_read\n\
                 v[i]\n\
             }\n",
            &["kernel_read"],
        );
        assert!(proven.ok(), "{:?}", proven.violations);

        let stale = run(
            "// audit: hot\n\
             fn kernel(v: &[u8], i: usize) -> u8 {\n\
                 // audit: bounds kernel_read\n\
                 v[i]\n\
             }\n",
            &[],
        );
        assert_eq!(stale.violations.len(), 1, "{:?}", stale.violations);
        assert!(stale.violations[0].contains("stale annotation"), "{:?}", stale.violations);
    }

    #[test]
    fn hot_closure_descends_through_helpers_but_not_cold_fns() {
        let r = run(
            "// audit: hot\n\
             fn kernel() { helper(); precondition(); }\n\
             fn helper() { let x = maybe().unwrap(); drop(x); }\n\
             // audit: cold entry validation, outside the K loop\n\
             fn precondition() { assert!(true); }\n\
             fn maybe() -> Option<u8> { None }\n",
            &[],
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("helper"), "{:?}", r.violations);
    }

    #[test]
    fn attribute_lines_and_array_types_are_not_indexing() {
        let r = run(
            "// audit: hot\n\
             #[inline]\n\
             fn kernel() -> [u8; 4] { let a: [u8; 4] = [0; 4]; a }\n",
            &[],
        );
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn real_hot_paths_are_panic_free() {
        let root = crate::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let files = callgraph::read_tree(&root).expect("read tree");
        let proven: BTreeSet<String> = crate::bounds::check()
            .proofs
            .iter()
            .filter(|p| p.method.is_some())
            .map(|p| p.name.to_string())
            .collect();
        let r = check(&files, &proven);
        assert!(r.ok(), "{}", r.violations.join("\n"));
        assert!(!r.roots.is_empty(), "hot roots must exist in the real tree");
        assert!(r.reachable >= 10, "hot closure too small: {}", r.reachable);
        // The executor, and the lowered conv B packer it reaches only
        // through the `PackB` trait, outside the call graph's crate edges.
        for want in ["execute_with_stats_in", "LoweredConv::pack_block"] {
            assert!(
                r.roots.iter().any(|root| root.contains(want)),
                "expected a hot root matching {want}; roots: {:?}",
                r.roots
            );
        }
    }

    #[test]
    fn debug_assert_eq_does_not_mask_detection() {
        let r = run(
            "// audit: hot\n\
             fn kernel(a: usize, b: usize) { debug_assert_eq!(a, b); assert_eq!(a, b); }\n",
            &[],
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }
}
