//! Static warm-path allocation-freedom pass.
//!
//! From every fn anchored `// audit: warm` (executor run loop, pack
//! routines, microkernels, the cake-dnn forward/quant GEMM paths), walk
//! the [`crate::callgraph`] closure and prove that no reachable line uses
//! an allocation-capable construct. This turns the runtime
//! `ExecStats.allocations == 0` counter — which only covers the shapes we
//! happen to run — into a for-all-shapes static guarantee, the property
//! ROADMAP item 1 (`cake-serve`) needs before a serving layer can sit on
//! the warm path.
//!
//! Escape hatches are explicit and auditable:
//! * fn-level `// audit: cold` — the fn is setup/error-path code by
//!   contract (e.g. `GemmWorkspace::prepare`'s guarded growth, staging
//!   helpers in cake-dnn); traversal does not descend into it;
//! * line-level `// audit: cold <reason>` — the allocation (or the call
//!   leading to one) on that line cannot run on the warm path, with the
//!   reason recorded next to the code.
//!
//! Known holes of the name-based analysis, covered by the runtime
//! counting-allocator cross-check in `cake-verify/tests/warm_alloc.rs`:
//! `std` internals that allocate without a deny-listed token (channel
//! `send` heap-allocates a node — the p=1 inline pool path is the one the
//! zero-alloc claim is made for), and function-pointer dispatch
//! (`Ukr::call`) whose targets are raw-pointer microkernels.

use std::collections::{BTreeMap, VecDeque};

use crate::callgraph::{self, CallGraph, SourceFile};

/// Allocation-capable constructs. Method patterns (leading `.`) match
/// verbatim; word patterns additionally require a non-identifier char
/// before the match (so `buf.push(` matches `.push(` but `unpushed` never
/// matches).
pub const DENY: &[&str] = &[
    ".push(",
    ".push_str(",
    ".extend(",
    ".reserve(",
    ".reserve_exact(",
    ".collect(",
    ".collect::<",
    ".to_vec(",
    ".to_string(",
    ".to_owned(",
    "with_capacity",
    "Box::new",
    "Arc::new",
    "Rc::new",
    "String::from",
    "format!",
    "vec!",
    "alloc::alloc",
    "alloc_zeroed",
];

/// Does this code channel hit a deny pattern? Returns the pattern.
fn deny_hit(code: &str) -> Option<&'static str> {
    for pat in DENY {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(pat) {
            let at = from + rel;
            let boundary_ok = if pat.starts_with('.') {
                true
            } else {
                at == 0
                    || !code[..at]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            };
            if boundary_ok {
                return Some(pat);
            }
            from = at + 1;
        }
    }
    None
}

/// Result of the alloc-freedom pass.
#[derive(Debug, Default)]
pub struct AllocReport {
    /// Warm roots found (`file:line qual`).
    pub roots: Vec<String>,
    /// Number of fns in the warm closure.
    pub reachable: usize,
    /// Cold fn-level cutoffs taken during traversal.
    pub cold_fn_skips: usize,
    /// Line-level cold escapes honored.
    pub cold_line_escapes: usize,
    /// Violations (non-empty fails the audit).
    pub violations: Vec<String>,
}

impl AllocReport {
    /// `true` when the warm closure is allocation-free.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Render a short root->..->fn chain for a violation message.
fn chain(g: &CallGraph, parents: &BTreeMap<usize, usize>, mut idx: usize) -> String {
    let mut names = vec![g.fns[idx].qual.clone()];
    while let Some(&p) = parents.get(&idx) {
        names.push(g.fns[p].qual.clone());
        idx = p;
    }
    names.reverse();
    names.join(" -> ")
}

/// Run the pass over an extracted graph.
pub fn check_graph(g: &CallGraph) -> AllocReport {
    let mut report = AllocReport::default();

    let mut queue = VecDeque::new();
    let mut visited = vec![false; g.fns.len()];
    let mut parents: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        if f.anchors.contains("warm") {
            report.roots.push(format!("{}:{} {}", f.file, f.line, f.qual));
            if f.anchors.contains("cold") {
                report
                    .violations
                    .push(format!("{}:{}: `{}` is anchored both warm and cold", f.file, f.line, f.qual));
            }
            queue.push_back(i);
            visited[i] = true;
        }
    }
    if report.roots.is_empty() {
        report
            .violations
            .push("no `// audit: warm` roots found — the warm closure is vacuous".to_string());
        return report;
    }

    while let Some(idx) = queue.pop_front() {
        report.reachable += 1;
        let fun = &g.fns[idx];
        let Some(lexed) = g.lexed.get(&fun.file) else { continue };
        if let Some((s, e)) = fun.body {
            for li in s..=e.min(lexed.len().saturating_sub(1)) {
                if let Some(pat) = deny_hit(&lexed[li].code) {
                    if callgraph::line_escape(lexed, li, "cold") {
                        report.cold_line_escapes += 1;
                    } else {
                        report.violations.push(format!(
                            "{}:{}: allocation-capable `{}` on the warm path (in `{}`, reached via {})",
                            fun.file,
                            li + 1,
                            pat,
                            fun.qual,
                            chain(g, &parents, idx)
                        ));
                    }
                }
            }
        }
        for call in &fun.calls {
            let li = call.line - 1;
            if li < lexed.len() && callgraph::line_escape(lexed, li, "cold") {
                report.cold_line_escapes += 1;
                continue;
            }
            for t in g.resolve(fun, call) {
                if visited[t] {
                    continue;
                }
                if g.fns[t].anchors.contains("cold") {
                    report.cold_fn_skips += 1;
                    continue;
                }
                visited[t] = true;
                parents.insert(t, idx);
                queue.push_back(t);
            }
        }
    }
    report
}

/// Extract the graph from `files` (pre-filtered to [`callgraph::graph_files`])
/// and run the pass.
pub fn check(files: &[SourceFile]) -> AllocReport {
    check_graph(&callgraph::extract(files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> AllocReport {
        check(&[SourceFile { path: "crates/x/src/lib.rs".into(), src: src.into() }])
    }

    #[test]
    fn clean_warm_closure_passes() {
        let r = run(
            "// audit: warm\n\
             fn hot_loop(buf: &mut [f32]) { inner(buf); }\n\
             fn inner(buf: &mut [f32]) { for v in buf.iter_mut() { *v += 1.0; } }\n",
        );
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.reachable, 2);
    }

    #[test]
    fn reachable_allocation_is_flagged_with_a_chain() {
        let r = run(
            "// audit: warm\n\
             fn hot_loop() { helper(); }\n\
             fn helper() { stage(); }\n\
             fn stage() { let mut v = Vec::new(); v.push(1); }\n",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains(".push("), "{:?}", r.violations);
        assert!(r.violations[0].contains("hot_loop -> helper -> stage"), "{:?}", r.violations);
    }

    #[test]
    fn cold_fn_anchor_cuts_traversal() {
        let r = run(
            "// audit: warm\n\
             fn hot_loop() { prepare(); }\n\
             // audit: cold guarded growth, no-op after warmup\n\
             fn prepare() { let mut v = Vec::with_capacity(4); v.push(1); }\n",
        );
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.cold_fn_skips, 1);
    }

    #[test]
    fn cold_line_escape_exempts_the_call_site() {
        let r = run(
            "// audit: warm\n\
             fn forward() {\n\
                 // audit: cold output tensor, allocated per layer by contract\n\
                 let y = make_output();\n\
                 use_output(y);\n\
             }\n\
             fn make_output() -> usize { let v = vec![0u8; 4]; v.len() }\n\
             fn use_output(_y: usize) {}\n",
        );
        assert!(r.ok(), "{:?}", r.violations);
        assert!(r.cold_line_escapes >= 1);
    }

    #[test]
    fn direct_denied_tokens_in_a_warm_body_are_flagged() {
        for (src_line, pat) in [
            ("let s = format!(\"x{}\", 1);", "format!"),
            ("let b = Box::new(3usize);", "Box::new"),
            ("let v = data.to_vec();", ".to_vec("),
            ("let v: Vec<u32> = it.collect();", ".collect("),
            ("let mut v = Vec::with_capacity(8);", "with_capacity"),
        ] {
            let r = run(&format!("// audit: warm\nfn hot(data: &[u32]) {{ {src_line} }}\n"));
            assert_eq!(r.violations.len(), 1, "{src_line}: {:?}", r.violations);
            assert!(r.violations[0].contains(pat), "{src_line}: {:?}", r.violations);
        }
    }

    #[test]
    fn word_boundaries_prevent_false_positives() {
        let r = run(
            "// audit: warm\n\
             fn hot(unpushed_vec_count: usize) -> usize { unpushed_vec_count + 1 }\n",
        );
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn no_roots_is_a_vacuity_violation() {
        let r = run("fn plain() { let v = vec![1]; drop(v); }\n");
        assert!(!r.ok());
        assert!(r.violations[0].contains("vacuous"));
    }

    #[test]
    fn real_warm_paths_are_allocation_free() {
        let root = crate::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let files = callgraph::read_tree(&root).expect("read tree");
        let r = check(&files);
        assert!(r.ok(), "{}", r.violations.join("\n"));
        assert!(!r.roots.is_empty(), "warm roots must exist in the real tree");
        assert!(r.reachable >= 10, "warm closure too small: {}", r.reachable);
        // The anchored entry points of every crate with a warm path: the
        // CAKE executor, the GOTO comparison loop, the dnn forward /
        // quantized-forward paths, and the lowered conv B packer, which the
        // executor reaches only through the `PackB` trait (the call graph
        // never follows cake-core into cake-dnn).
        for want in [
            "execute_with_stats_in",
            "loops5.rs",
            "Conv2d::forward",
            "quant_gemm_requant",
            "LoweredConv::pack_block",
        ] {
            assert!(
                r.roots.iter().any(|root| root.contains(want)),
                "expected a warm root matching {want}; roots: {:?}",
                r.roots
            );
        }
    }

    #[test]
    fn macro_generated_fns_participate() {
        let r = run(
            "macro_rules! make {\n\
                 ($name:ident) => { pub fn $name() { let mut v = Vec::new(); v.push(1); } };\n\
             }\n\
             make!(gen_alloc);\n\
             // audit: warm\n\
             fn hot() { gen_alloc(); }\n",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains(".push("), "{:?}", r.violations);
    }
}
