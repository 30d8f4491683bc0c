//! cake-audit: in-tree, dependency-free static analysis for the CAKE
//! workspace.
//!
//! Five analyses, wired into `cakectl audit` and `./ci.sh --audit`. Each
//! catches a class of defect that no other check in the workspace catches
//! (its module doc names the class):
//!
//! 1. **Unsafe auditor** ([`scan`]): lexes every `.rs` file, inventories
//!    `unsafe` sites, enforces `// SAFETY:` annotations, confines unsafe to
//!    the allowlist in the committed `unsafe-ratchet.toml`, ratchets
//!    per-file unsafe and `transmute` counts (they may fall, never silently
//!    rise), and forbids `static mut` workspace-wide.
//! 2. **Symbolic bounds checker** ([`bounds`]): models every pack /
//!    microkernel / executor / goto raw-pointer offset site as
//!    `need <= cap` over the tuning variables and proves it for the whole
//!    tuning space (polynomial equality or dominance certificates, plus
//!    exhaustive small-extent model checking).
//! 3. **Alloc-freedom** ([`allocfree`]): from every `// audit: warm` root,
//!    walks the whole-workspace call graph ([`callgraph`]) and proves no
//!    reachable line allocates, except through declared `// audit: cold`
//!    escapes.
//! 4. **Panic-freedom** ([`panicfree`]): from every `// audit: hot` root,
//!    flags panics, unwraps, non-debug asserts, and slice indexing not
//!    covered by a [`bounds`] proof or a justified escape.
//! 5. **Atomics ordering** ([`atomics`]): inventories every atomic op with
//!    its `Ordering`, checks the inventory against the declared
//!    happens-before protocol, pins the barrier code under sync.rs's
//!    `// audit: fact` anchors, and cross-validates the protocol against
//!    cake-verify's interleave step machine.
//!
//! Every run also executes a **self-check**: for each pass, seeded mutants
//! of the real sources that only that pass catches (uncommented unsafe,
//! off-by-one offsets, an allocation on a worker thread other than the
//! caller's, a hot-path unwrap that no test makes fail, an ordering
//! demotion and deleted barrier code) must be caught, or the audit fails —
//! a green audit from a toothless checker is worse than no audit.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod allocfree;
pub mod atomics;
pub mod bounds;
pub mod callgraph;
pub mod interval;
pub mod panicfree;
pub mod scan;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use callgraph::SourceFile;

/// Audit invocation parameters.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Workspace root (the directory holding the workspace `Cargo.toml`).
    pub root: PathBuf,
    /// Regenerate `unsafe-ratchet.toml` from the current tree before
    /// checking against it.
    pub bless: bool,
}

/// Aggregated audit result.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Unsafe auditor result.
    pub scan: scan::ScanReport,
    /// Bounds prover result.
    pub bounds: bounds::BoundsReport,
    /// Alloc-freedom result.
    pub alloc: allocfree::AllocReport,
    /// Panic-freedom result.
    pub panic: panicfree::PanicReport,
    /// Atomics-ordering result.
    pub atomics: atomics::AtomicsReport,
    /// Self-check failures (seeded mutants that were *not* caught).
    pub self_check: Vec<String>,
    /// Whether a fresh ratchet was written this run.
    pub blessed: bool,
}

impl AuditOutcome {
    /// `true` when every analysis and the self-check passed.
    pub fn ok(&self) -> bool {
        self.scan.violations.is_empty()
            && self.bounds.ok()
            && self.alloc.ok()
            && self.panic.ok()
            && self.atomics.ok()
            && self.self_check.is_empty()
    }

    /// Human-readable report for the CLI: one `PASS`/`FAIL` verdict line
    /// per pass (with `VIOLATION` detail lines under failures) and a final
    /// aggregate verdict.
    pub fn summary_lines(&self) -> Vec<String> {
        fn verdict(ok: bool) -> &'static str {
            if ok {
                "PASS"
            } else {
                "FAIL"
            }
        }
        let mut out = Vec::new();
        let r = &self.scan;
        out.push(format!(
            "scan: {} — {} unsafe site(s) across {} file(s), {} violation(s){}",
            verdict(r.violations.is_empty()),
            r.total_sites,
            r.files.len(),
            r.violations.len(),
            if self.blessed { " [ratchet re-blessed]" } else { "" }
        ));
        for vi in &r.violations {
            out.push(format!("  VIOLATION {vi}"));
        }
        for note in &r.notes {
            out.push(format!("  note: {note}"));
        }

        let r = &self.bounds;
        let proven = r.proofs.iter().filter(|p| p.method.is_some()).count();
        out.push(format!(
            "bounds: {} — {proven}/{} offset sites proven, {} code lemma(s) held",
            verdict(r.ok()),
            r.proofs.len(),
            r.lemmas.len()
        ));
        for p in &r.proofs {
            match p.method {
                Some(m) => out.push(format!(
                    "  {} [{}] checked {} assignment(s): {}",
                    p.name,
                    m.name(),
                    p.checked,
                    p.place
                )),
                None => out.push(format!(
                    "  VIOLATION {} unproven: {}",
                    p.name,
                    p.witness.as_deref().unwrap_or("no witness")
                )),
            }
        }
        for f in &r.lemma_failures {
            out.push(format!("  VIOLATION lemma: {f}"));
        }

        let r = &self.alloc;
        out.push(format!(
            "alloc: {} — {} warm root(s), {} fn(s) reachable, {} cold fn cutoff(s), \
             {} cold line escape(s), {} violation(s)",
            verdict(r.ok()),
            r.roots.len(),
            r.reachable,
            r.cold_fn_skips,
            r.cold_line_escapes,
            r.violations.len()
        ));
        for vi in &r.violations {
            out.push(format!("  VIOLATION {vi}"));
        }

        let r = &self.panic;
        out.push(format!(
            "panic: {} — {} hot root(s), {} fn(s) reachable, {} escape(s) honored, \
             {} violation(s)",
            verdict(r.ok()),
            r.roots.len(),
            r.reachable,
            r.escapes,
            r.violations.len()
        ));
        for vi in &r.violations {
            out.push(format!("  VIOLATION {vi}"));
        }

        let r = &self.atomics;
        out.push(format!(
            "atomics: {} — {} atomic op(s) inventoried, {} protocol rule(s), \
             {} barrier fact(s) pinned, {} model scenario(s), {} violation(s)",
            verdict(r.ok()),
            r.ops.len(),
            r.protocol.len(),
            r.facts.len(),
            r.scenarios.len(),
            r.violations.len()
        ));
        for s in &r.scenarios {
            out.push(format!("  {s}"));
        }
        for vi in &r.violations {
            out.push(format!("  VIOLATION {vi}"));
        }

        if self.self_check.is_empty() {
            out.push("self-check: PASS — all seeded mutant classes caught".to_string());
        } else {
            out.push(format!("self-check: FAIL — {} mutant(s) escaped", self.self_check.len()));
            for f in &self.self_check {
                out.push(format!("  VIOLATION self-check: {f}"));
            }
        }
        out.push(format!("audit: {}", if self.ok() { "PASS" } else { "FAIL" }));
        out
    }
}

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Swap the source of `path` in a copy of `files` (self-check helper).
fn with_mutated(files: &[SourceFile], path: &str, src: String) -> Vec<SourceFile> {
    files
        .iter()
        .map(|f| {
            if f.path == path {
                SourceFile { path: f.path.clone(), src: src.clone() }
            } else {
                f.clone()
            }
        })
        .collect()
}

const EXECUTOR: &str = "crates/cake-core/src/executor.rs";
const SYNC: &str = "crates/cake-core/src/sync.rs";
const PACK: &str = "crates/cake-kernels/src/pack.rs";

/// The source of `path` in `files`.
fn source<'a>(files: &'a [SourceFile], path: &str) -> Option<&'a str> {
    files.iter().find(|f| f.path == path).map(|f| f.src.as_str())
}

/// `src` with `line` inserted after the first line containing `marker`,
/// or `None` when no line contains it.
fn insert_after(src: &str, marker: &str, line: &str) -> Option<String> {
    let at = src.find(marker)?;
    let eol = src[at..].find('\n').map_or(src.len(), |i| at + i);
    Some(format!("{}\n{line}{}", &src[..eol], &src[eol..]))
}

/// Seeded mutants of the *real* sources: each pass must catch a mutant
/// that no other check in the workspace catches, or the returned list
/// names the toothless checker.
fn self_check(files: &[SourceFile], proven_sites: &BTreeSet<String>) -> Vec<String> {
    let mut failures = Vec::new();
    let (Some(executor), Some(sync), Some(pack)) =
        (source(files, EXECUTOR), source(files, SYNC), source(files, PACK))
    else {
        return vec![format!("{EXECUTOR}, {SYNC} or {PACK} is not in the file set")];
    };

    // scan — uncommented unsafe: strip every SAFETY token from the real
    // executor source; the scanner must flag at least one site.
    let stripped = executor.replace("SAFETY", "NOTE").replace("Safety", "Note");
    if scan::scan_source(EXECUTOR, &stripped).sites.iter().all(|s| s.annotated) {
        failures.push("scan: executor.rs without its SAFETY comments went undetected".into());
    }

    // bounds — off-by-one offsets: every seeded bounds mutant must be
    // refuted with a concrete witness.
    for m in bounds::mutant_sites() {
        let proof = bounds::prove_site(&m);
        if proof.method.is_some() || proof.witness.is_none() {
            failures.push(format!("bounds: mutant {} was not refuted", m.name));
        }
    }

    // alloc — an allocation made only by workers other than worker 0, in
    // the executor's per-worker closure. The runtime allocation tests run
    // at p = 1 and count per thread, so none of them sees it.
    let marker = "let mut bsense = barrier.waiter();";
    let probe = "if wid > 0 { std::hint::black_box(vec![0u8; 64]); }";
    match insert_after(executor, marker, probe) {
        None => failures.push("alloc: per-worker marker missing from executor.rs".into()),
        Some(doctored) => {
            if allocfree::check(&with_mutated(files, EXECUTOR, doctored)).ok() {
                failures.push("alloc: an allocation seeded on workers > 0 went undetected".into());
            }
        }
    }

    // panic — an unwrap in the real pack_a fast path that no test input
    // makes fail; panic-freedom must flag it.
    match insert_after(pack, "if src.row_stride() == 1 {", "let _ = dst.first().unwrap();") {
        None => failures.push("panic: pack_a fast-path marker missing from pack.rs".into()),
        Some(doctored) => {
            if panicfree::check(&with_mutated(files, PACK, doctored), proven_sites).ok() {
                failures.push("panic: an unwrap in pack_a's fast path went undetected".into());
            }
        }
    }

    // atomics — on sync.rs alone, which holds the whole barrier protocol
    // and must pass by itself: demote the AcqRel arrival to Relaxed (x86
    // runs both the same), then delete each piece of barrier code a fact
    // pins.
    let sync_passes = |src: &str| {
        atomics::check(&[SourceFile { path: SYNC.into(), src: src.into() }]).ok()
    };
    if !sync_passes(sync) {
        failures.push("atomics: sync.rs fails the pass on its own".into());
    }
    let mut mutants = vec![("demoting AcqRel to Relaxed", sync.replace("AcqRel", "Relaxed"))];
    mutants.extend(atomics::fact_mutants(sync));
    for (what, doctored) in mutants {
        if doctored == sync {
            failures.push(format!("atomics: sync.rs left unchanged by {what}"));
        } else if sync_passes(&doctored) {
            failures.push(format!("atomics: {what} in sync.rs went undetected"));
        }
    }

    failures
}

/// Run every audit pass over the tree rooted at `cfg.root`.
pub fn run(cfg: &AuditConfig) -> io::Result<AuditOutcome> {
    let files = callgraph::read_tree(&cfg.root)?;

    let scans = scan::scan_tree(&cfg.root)?;
    let ratchet_path = cfg.root.join(scan::RATCHET_FILE);
    if cfg.bless {
        fs::write(&ratchet_path, scan::render_ratchet(&scans))?;
    }
    let ratchet_text = fs::read_to_string(&ratchet_path).ok();
    let scan = scan::audit_scans(&scans, ratchet_text.as_deref());

    // The proven-site names are what `// audit: bounds <site>` escapes of
    // the panic pass cite.
    let bounds = bounds::check();
    let proven_sites: BTreeSet<String> = bounds
        .proofs
        .iter()
        .filter(|p| p.method.is_some())
        .map(|p| p.name.to_string())
        .collect();

    Ok(AuditOutcome {
        scan,
        bounds,
        alloc: allocfree::check(&files),
        panic: panicfree::check(&files, &proven_sites),
        atomics: atomics::check(&files),
        self_check: self_check(&files, &proven_sites),
        blessed: cfg.bless,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
    }

    #[test]
    fn full_audit_passes_on_this_tree() {
        let outcome = run(&AuditConfig { root: repo_root(), bless: false }).expect("audit runs");
        assert!(outcome.ok(), "audit failed:\n{}", outcome.summary_lines().join("\n"));
        assert!(outcome.scan.total_sites > 0, "the workspace certainly contains unsafe");
        assert!(outcome.bounds.proofs.len() >= 12);
        assert!(!outcome.alloc.roots.is_empty());
        assert!(!outcome.panic.roots.is_empty());
        assert!(!outcome.atomics.ops.is_empty());
        assert_eq!(outcome.atomics.facts.len(), atomics::SYNC_FACTS.len());
    }

    #[test]
    fn self_check_catches_all_mutant_classes_on_real_sources() {
        let files = callgraph::read_tree(&repo_root()).unwrap();
        let proven: BTreeSet<String> = bounds::check()
            .proofs
            .iter()
            .filter(|p| p.method.is_some())
            .map(|p| p.name.to_string())
            .collect();
        let failures = self_check(&files, &proven);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn insert_after_lands_on_the_line_below_the_marker() {
        assert_eq!(insert_after("a\nb {\nc\n", "b {", "x").as_deref(), Some("a\nb {\nx\nc\n"));
        assert_eq!(insert_after("a\n", "zz", "x"), None);
    }
}
