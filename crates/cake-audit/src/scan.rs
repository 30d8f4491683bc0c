//! Unsafe auditor: lexes every `.rs` file in the workspace, inventories
//! `unsafe` sites, enforces `// SAFETY:` annotations, confines unsafe to an
//! allowlist, and ratchets per-file counts against a committed
//! `unsafe-ratchet.toml` (counts may fall, never silently rise).
//!
//! **The defect only this pass catches:** an `unsafe` site without the
//! argument for its soundness, or a new one slipped past the ratchet. No
//! runtime test reads comments or counts sites; the self-check strips
//! every `SAFETY` comment from executor.rs and must see it flagged.
//!
//! The scanner is a real little lexer, not a regex: it tracks line and
//! nested block comments, ordinary/byte/raw string literals with escapes,
//! and the char-literal-versus-lifetime ambiguity, so `"unsafe"` inside a
//! string or a doc example never counts and `// SAFETY:` inside a string
//! never annotates.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Committed ratchet file name, at the workspace root.
pub const RATCHET_FILE: &str = "unsafe-ratchet.toml";

/// Flavor of an `unsafe` occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// `unsafe { ... }` block.
    Block,
    /// `unsafe fn` (declaration or pointer type).
    Fn,
    /// `unsafe impl`.
    Impl,
    /// `unsafe trait`.
    Trait,
    /// `unsafe extern` block or ABI.
    Extern,
}

impl SiteKind {
    fn name(self) -> &'static str {
        match self {
            SiteKind::Block => "block",
            SiteKind::Fn => "fn",
            SiteKind::Impl => "impl",
            SiteKind::Trait => "trait",
            SiteKind::Extern => "extern",
        }
    }
}

/// One `unsafe` occurrence in a file.
#[derive(Clone, Debug)]
pub struct UnsafeSite {
    /// 1-based source line.
    pub line: usize,
    /// Site flavor.
    pub kind: SiteKind,
    /// Whether a SAFETY comment (or `# Safety` doc section) covers it.
    pub annotated: bool,
}

/// All `unsafe` sites found in one file.
#[derive(Clone, Debug)]
pub struct FileScan {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Sites in source order.
    pub sites: Vec<UnsafeSite>,
    /// 1-based lines of `transmute` calls (ratcheted like unsafe counts).
    pub transmutes: Vec<usize>,
    /// 1-based lines of `static mut` items (forbidden workspace-wide
    /// unless the path is explicitly allowlisted in the ratchet).
    pub static_muts: Vec<usize>,
    /// 1-based lines of `asm!` invocations with no `// SAFETY:` comment on
    /// or just above them: every inline-assembly block must state its own
    /// contract, even inside an annotated `unsafe` block.
    pub unannotated_asm: Vec<usize>,
}

/// One source line split into its code and comment channels by the lexer.
/// String-literal contents are blanked from `code`, so token searches over
/// `code` never match inside literals, and `comment` never contains code.
#[derive(Default, Clone, Debug)]
pub struct LexedLine {
    /// Code with comments and literal contents blanked out.
    pub code: String,
    /// Comment text on the line (line + block comments).
    pub comment: String,
}

/// Lex `src` into per-line code/comment channels.
///
/// This is the shared front end for every textual pass in this crate: the
/// unsafe scanner, the call-graph extractor, and the alloc/panic/atomics
/// dataflow passes all consume these channels instead of raw source, so
/// they inherit the same string/comment/char-literal discipline.
pub fn lex(src: &str) -> Vec<LexedLine> {
    enum Mode {
        Code,
        Line,
        Block(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<LexedLine> = vec![LexedLine::default()];
    let mut mode = Mode::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let ch = chars[i];
        if ch == '\n' {
            if matches!(mode, Mode::Line) {
                mode = Mode::Code;
            }
            lines.push(LexedLine::default());
            i += 1;
            continue;
        }
        let cur = lines.len() - 1;
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if ch == '/' && next == Some('/') {
                    mode = Mode::Line;
                    i += 2;
                } else if ch == '/' && next == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                } else if ch == '"' {
                    mode = Mode::Str;
                    lines[cur].code.push(' ');
                    i += 1;
                } else if ch == 'r' && matches!(next, Some('"') | Some('#')) {
                    // Possible raw string r"..." / r#"..."# (b-prefixed raw
                    // strings reach here via the same 'r'). Count hashes.
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        mode = Mode::RawStr(hashes);
                        lines[cur].code.push(' ');
                        i = j + 1;
                    } else {
                        lines[cur].code.push(ch);
                        i += 1;
                    }
                } else if ch == '\'' {
                    // Char literal vs lifetime: a backslash or a
                    // closing-quote two ahead means char literal.
                    if next == Some('\\') {
                        mode = Mode::Char;
                        lines[cur].code.push(' ');
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        lines[cur].code.push(' ');
                        i += 3; // 'x'
                    } else {
                        lines[cur].code.push(ch); // lifetime tick
                        i += 1;
                    }
                } else {
                    lines[cur].code.push(ch);
                    i += 1;
                }
            }
            Mode::Line => {
                lines[cur].comment.push(ch);
                i += 1;
            }
            Mode::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if ch == '*' && next == Some('/') {
                    mode = if depth == 1 { Mode::Code } else { Mode::Block(depth - 1) };
                    i += 2;
                } else if ch == '/' && next == Some('*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else {
                    lines[cur].comment.push(ch);
                    i += 1;
                }
            }
            Mode::Str => {
                if ch == '\\' {
                    // An escaped newline is a string continuation: the
                    // physical line still ends here, and dropping it would
                    // shift every later line number in the file.
                    if chars.get(i + 1) == Some(&'\n') {
                        lines.push(LexedLine::default());
                    }
                    i += 2;
                } else {
                    if ch == '"' {
                        mode = Mode::Code;
                    }
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if ch == '"' {
                    let closed = (0..hashes).all(|h| chars.get(i + 1 + h) == Some(&'#'));
                    if closed {
                        mode = Mode::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
            Mode::Char => {
                if ch == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        lines.push(LexedLine::default());
                    }
                    i += 2;
                } else {
                    if ch == '\'' {
                        mode = Mode::Code;
                    }
                    i += 1;
                }
            }
        }
    }
    lines
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// First code token at or after `(line, col)`, skipping whitespace.
fn next_token(lines: &[LexedLine], mut line: usize, mut col: usize) -> Option<String> {
    while line < lines.len() {
        let code: Vec<char> = lines[line].code.chars().collect();
        while col < code.len() && code[col].is_whitespace() {
            col += 1;
        }
        if col < code.len() {
            let ch = code[col];
            if is_word_char(ch) {
                let mut word = String::new();
                while col < code.len() && is_word_char(code[col]) {
                    word.push(code[col]);
                    col += 1;
                }
                return Some(word);
            }
            return Some(ch.to_string());
        }
        line += 1;
        col = 0;
    }
    None
}

fn has_safety(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    lower.contains("safety")
}

/// A line that carries no code except possibly an attribute — the kind of
/// line a doc/attr block above an `unsafe fn` is made of.
fn is_doc_or_attr_line(info: &LexedLine) -> bool {
    let t = info.code.trim();
    t.is_empty() || t.starts_with("#[") || t.starts_with("#!")
}

/// Is the site at `line` (0-based) covered by a SAFETY annotation?
fn annotated(lines: &[LexedLine], line: usize, kind: SiteKind) -> bool {
    if has_safety(&lines[line].comment) {
        return true;
    }
    // Nearby preceding comments (covers `// SAFETY: ...` one to a few lines
    // above, possibly separated by a guard assert or an attribute).
    for back in 1..=6 {
        let Some(prev) = line.checked_sub(back) else { break };
        if has_safety(&lines[prev].comment) {
            return true;
        }
    }
    // A comment block of any length that ends directly above the site and
    // has a line starting with `SAFETY:`.
    let mut cur = line;
    while let Some(prev) = cur.checked_sub(1) {
        let info = &lines[prev];
        if !info.code.trim().is_empty() || info.comment.trim().is_empty() {
            break;
        }
        if info.comment.trim_start().starts_with("SAFETY:") {
            return true;
        }
        cur = prev;
    }
    // For declarations, a `/// # Safety` section anywhere in the contiguous
    // doc/attribute block above also counts.
    if matches!(kind, SiteKind::Fn | SiteKind::Trait) {
        let mut cur = line;
        for _ in 0..40 {
            let Some(prev) = cur.checked_sub(1) else { break };
            if !is_doc_or_attr_line(&lines[prev]) {
                break;
            }
            if has_safety(&lines[prev].comment) {
                return true;
            }
            cur = prev;
        }
    }
    false
}

/// Count whole-word occurrences of `word` in a code channel.
pub fn count_word(code: &str, word: &str) -> usize {
    let chars: Vec<char> = code.chars().collect();
    let w: Vec<char> = word.chars().collect();
    let mut n = 0usize;
    let mut col = 0usize;
    while col + w.len() <= chars.len() {
        let before_ok = col == 0 || !is_word_char(chars[col - 1]);
        let after_ok = chars.get(col + w.len()).is_none_or(|&c| !is_word_char(c));
        if before_ok && after_ok && chars[col..col + w.len()] == w[..] {
            n += 1;
            col += w.len();
        } else {
            col += 1;
        }
    }
    n
}

/// Scan one source string (the path is only a label).
pub fn scan_source(path: &str, src: &str) -> FileScan {
    let lines = lex(src);
    let mut sites = Vec::new();
    let mut transmutes = Vec::new();
    let mut static_muts = Vec::new();
    let mut unannotated_asm = Vec::new();
    for (li, info) in lines.iter().enumerate() {
        let code: Vec<char> = info.code.chars().collect();
        let mut col = 0usize;
        while col + 6 <= code.len() {
            let word: String = code[col..col + 6].iter().collect();
            let before_ok = col == 0 || !is_word_char(code[col - 1]);
            let after_ok = code.get(col + 6).is_none_or(|&c| !is_word_char(c));
            if word == "unsafe" && before_ok && after_ok {
                let kind = match next_token(&lines, li, col + 6).as_deref() {
                    Some("fn") => SiteKind::Fn,
                    Some("impl") => SiteKind::Impl,
                    Some("trait") => SiteKind::Trait,
                    Some("extern") => SiteKind::Extern,
                    _ => SiteKind::Block,
                };
                sites.push(UnsafeSite { line: li + 1, kind, annotated: annotated(&lines, li, kind) });
                col += 6;
            } else {
                col += 1;
            }
        }
        for _ in 0..count_word(&info.code, "transmute") {
            transmutes.push(li + 1);
        }
        let asm = info.code.match_indices("asm!").any(|(at, _)| {
            at == 0 || !info.code[..at].chars().next_back().is_some_and(is_word_char)
        });
        if asm && !annotated(&lines, li, SiteKind::Block) {
            unannotated_asm.push(li + 1);
        }
        // `static mut FOO` — a whole-word `static` (not the `'static`
        // lifetime) whose next token is `mut`. `&'static mut T` must not
        // count; a `static mut` item must.
        let mut col = 0usize;
        while col + 6 <= code.len() {
            let word: String = code[col..col + 6].iter().collect();
            let before_ok = col == 0 || (!is_word_char(code[col - 1]) && code[col - 1] != '\'');
            let after_ok = code.get(col + 6).is_none_or(|&c| !is_word_char(c));
            if word == "static"
                && before_ok
                && after_ok
                && next_token(&lines, li, col + 6).as_deref() == Some("mut")
            {
                static_muts.push(li + 1);
                col += 6;
            } else {
                col += 1;
            }
        }
    }
    FileScan { path: path.to_string(), sites, transmutes, static_muts, unannotated_asm }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every `.rs` file under `root` (skipping `target/` and dot dirs).
/// Paths in the result are `root`-relative with `/` separators, sorted.
pub fn scan_tree(root: &Path) -> io::Result<Vec<FileScan>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut scans = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .components()
            .map(|cp| cp.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&f)?;
        scans.push(scan_source(&rel, &src));
    }
    Ok(scans)
}

/// Parsed `unsafe-ratchet.toml`.
#[derive(Debug, Default)]
pub struct Ratchet {
    /// Files allowed to contain unsafe at all.
    pub allow: BTreeSet<String>,
    /// Committed per-file site counts.
    pub counts: BTreeMap<String, usize>,
    /// Committed per-file `transmute` call counts (may fall, never rise).
    pub transmutes: BTreeMap<String, usize>,
    /// Files allowed to contain `static mut` at all (the workspace has
    /// none; any entry here must be a deliberate, blessed exception).
    pub static_mut_allow: BTreeSet<String>,
}

/// Parse the minimal TOML subset the ratchet uses (`[allow]` /
/// `[static_mut]` with a string array, `[counts]` / `[transmute]` with
/// `"path" = N` entries).
pub fn parse_ratchet(text: &str) -> Result<Ratchet, String> {
    let mut r = Ratchet::default();
    let mut section = "";
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[allow]" => "allow",
                "[counts]" => "counts",
                "[transmute]" => "transmute",
                "[static_mut]" => "static_mut",
                other => return Err(format!("line {}: unknown section {other}", ln + 1)),
            };
            continue;
        }
        match section {
            "allow" | "static_mut" => {
                // `paths = [`, `"...",`, `]` — harvest quoted strings.
                let set = if section == "allow" { &mut r.allow } else { &mut r.static_mut_allow };
                let mut rest = line;
                while let Some(start) = rest.find('"') {
                    let Some(len) = rest[start + 1..].find('"') else {
                        return Err(format!("line {}: unterminated string", ln + 1));
                    };
                    set.insert(rest[start + 1..start + 1 + len].to_string());
                    rest = &rest[start + 2 + len..];
                }
            }
            "counts" | "transmute" => {
                let Some((key, val)) = line.split_once('=') else {
                    return Err(format!("line {}: expected `\"path\" = N`", ln + 1));
                };
                let map = if section == "counts" { &mut r.counts } else { &mut r.transmutes };
                let key = key.trim().trim_matches('"').to_string();
                let val: usize = val
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad count {val}", ln + 1))?;
                map.insert(key, val);
            }
            _ => return Err(format!("line {}: entry outside any section", ln + 1)),
        }
    }
    Ok(r)
}

/// Render the ratchet file for the current tree (`--bless`).
pub fn render_ratchet(scans: &[FileScan]) -> String {
    let mut s = String::from(
        "# Unsafe ratchet: per-file `unsafe` site counts, committed so CI can\n\
         # detect any new unsafe. Counts may only fall; to bless a change run\n\
         # `cakectl audit --bless` and commit the result.\n\
         #\n\
         # [transmute] ratchets `transmute` calls the same way, and\n\
         # [static_mut] allowlists files permitted to declare `static mut`\n\
         # (none today — new `static mut` is forbidden workspace-wide).\n\n[allow]\npaths = [\n",
    );
    for f in scans.iter().filter(|f| !f.sites.is_empty()) {
        s.push_str(&format!("  \"{}\",\n", f.path));
    }
    s.push_str("]\n\n[counts]\n");
    for f in scans.iter().filter(|f| !f.sites.is_empty()) {
        s.push_str(&format!("\"{}\" = {}\n", f.path, f.sites.len()));
    }
    s.push_str("\n[transmute]\n");
    for f in scans.iter().filter(|f| !f.transmutes.is_empty()) {
        s.push_str(&format!("\"{}\" = {}\n", f.path, f.transmutes.len()));
    }
    s.push_str("\n[static_mut]\npaths = [\n");
    for f in scans.iter().filter(|f| !f.static_muts.is_empty()) {
        s.push_str(&format!("  \"{}\",\n", f.path));
    }
    s.push_str("]\n");
    s
}

/// Result of the full unsafe audit.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Files containing unsafe, in path order.
    pub files: Vec<FileScan>,
    /// Total unsafe sites.
    pub total_sites: usize,
    /// Policy violations (non-empty fails the audit).
    pub violations: Vec<String>,
    /// Benign observations (count decreases, stale ratchet entries).
    pub notes: Vec<String>,
}

/// Check scans against the committed ratchet.
pub fn audit_scans(scans: &[FileScan], ratchet_text: Option<&str>) -> ScanReport {
    let mut report = ScanReport::default();
    let ratchet = match ratchet_text {
        None => {
            report
                .violations
                .push(format!("missing {RATCHET_FILE} — run `cakectl audit --bless` and commit it"));
            Ratchet::default()
        }
        Some(text) => match parse_ratchet(text) {
            Ok(r) => r,
            Err(e) => {
                report.violations.push(format!("unparsable {RATCHET_FILE}: {e}"));
                Ratchet::default()
            }
        },
    };

    let have_ratchet = ratchet_text.is_some();
    for scan in scans {
        // Transmute ratchet and static-mut ban are independent of the
        // unsafe-site inventory (a `static mut` needs no `unsafe` token).
        if have_ratchet && !scan.transmutes.is_empty() {
            match ratchet.transmutes.get(&scan.path) {
                None => report.violations.push(format!(
                    "{}: {} transmute call(s) with no ratcheted count — bless deliberately",
                    scan.path,
                    scan.transmutes.len()
                )),
                Some(&committed) if scan.transmutes.len() > committed => {
                    report.violations.push(format!(
                        "{}: transmute count rose {} -> {} — new transmutes must be blessed",
                        scan.path,
                        committed,
                        scan.transmutes.len()
                    ));
                }
                Some(&committed) if scan.transmutes.len() < committed => {
                    report.notes.push(format!(
                        "{}: transmute count fell {} -> {} (re-bless to tighten the ratchet)",
                        scan.path,
                        committed,
                        scan.transmutes.len()
                    ));
                }
                Some(_) => {}
            }
        }
        if !scan.static_muts.is_empty() && !ratchet.static_mut_allow.contains(&scan.path) {
            for &line in &scan.static_muts {
                report.violations.push(format!(
                    "{}:{}: `static mut` is forbidden workspace-wide (use an atomic or \
                     interior mutability; allowlist in [static_mut] only as a last resort)",
                    scan.path, line
                ));
            }
        }
        for &line in &scan.unannotated_asm {
            report.violations.push(format!("{}:{line}: asm! without a SAFETY comment", scan.path));
        }
        if scan.sites.is_empty() {
            continue;
        }
        report.total_sites += scan.sites.len();
        for site in &scan.sites {
            if !site.annotated {
                report.violations.push(format!(
                    "{}:{}: unsafe {} without a SAFETY comment",
                    scan.path,
                    site.line,
                    site.kind.name()
                ));
            }
        }
        if have_ratchet {
            if !ratchet.allow.contains(&scan.path) {
                report.violations.push(format!(
                    "{}: unsafe outside the allowlist ({} site(s)) — bless deliberately",
                    scan.path,
                    scan.sites.len()
                ));
            }
            match ratchet.counts.get(&scan.path) {
                None => report
                    .violations
                    .push(format!("{}: no ratcheted count committed", scan.path)),
                Some(&committed) if scan.sites.len() > committed => {
                    report.violations.push(format!(
                        "{}: unsafe count rose {} -> {} — new unsafe must be blessed",
                        scan.path,
                        committed,
                        scan.sites.len()
                    ));
                }
                Some(&committed) if scan.sites.len() < committed => {
                    report.notes.push(format!(
                        "{}: unsafe count fell {} -> {} (re-bless to tighten the ratchet)",
                        scan.path,
                        committed,
                        scan.sites.len()
                    ));
                }
                Some(_) => {}
            }
        }
        report.files.push(scan.clone());
    }
    for path in ratchet.counts.keys() {
        if !scans.iter().any(|sc| &sc.path == path && !sc.sites.is_empty()) {
            report
                .notes
                .push(format!("{path}: ratchet entry is stale (file clean or gone) — re-bless"));
        }
    }
    for path in ratchet.transmutes.keys() {
        if !scans.iter().any(|sc| &sc.path == path && !sc.transmutes.is_empty()) {
            report
                .notes
                .push(format!("{path}: transmute ratchet entry is stale (file clean or gone) — re-bless"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANNOTATED: &str = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid.
    unsafe { *p }
}

/// Reads a byte.
///
/// # Safety
/// `p` must be valid for reads.
#[inline]
pub unsafe fn g(p: *const u8) -> u8 {
    // SAFETY: forwarded from caller.
    unsafe { *p }
}

// SAFETY: no shared state.
unsafe impl Send for S {}
"#;

    #[test]
    fn annotated_sources_scan_clean() {
        let scan = scan_source("a.rs", ANNOTATED);
        assert_eq!(scan.sites.len(), 4, "{:?}", scan.sites);
        assert!(scan.sites.iter().all(|s| s.annotated), "{:?}", scan.sites);
        let kinds: Vec<SiteKind> = scan.sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SiteKind::Block, SiteKind::Fn, SiteKind::Block, SiteKind::Impl]);
    }

    #[test]
    fn a_long_safety_block_directly_above_its_site_counts() {
        // Nine comment lines, the first one `SAFETY:`, ending right above
        // the block: the six-line window alone would miss it.
        let long = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid for one read:\n    // line 2\n    // line 3\n    // line 4\n    // line 5\n    // line 6\n    // line 7\n    // line 8\n    // line 9\n    unsafe { *p }\n}\n";
        let scan = scan_source("a.rs", long);
        assert_eq!(scan.sites.len(), 1);
        assert!(scan.sites[0].annotated, "{:?}", scan.sites);
        // The same block with a blank line before the site does not end
        // directly above it.
        let gap = long.replace("    // line 9\n", "    // line 9\n\n");
        assert!(!scan_source("b.rs", &gap).sites[0].annotated);
        // A comment block without a `SAFETY:` line does not count.
        let other = long.replace("SAFETY: p", "Note: p");
        assert!(!scan_source("c.rs", &other).sites[0].annotated);
    }

    #[test]
    fn a_safety_comment_beyond_the_window_of_code_lines_stays_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid.\n    let a = 1;\n    let b = 2;\n    let c = 3;\n    let d = 4;\n    let e = 5;\n    let g = 6;\n    unsafe { *p }\n}\n";
        let scan = scan_source("d.rs", src);
        assert_eq!(scan.sites.len(), 1);
        assert!(!scan.sites[0].annotated, "{:?}", scan.sites);
        // Within six lines it still counts, as before.
        let near = src.replace("    let g = 6;\n", "");
        assert!(scan_source("e.rs", &near).sites[0].annotated);
    }

    #[test]
    fn uncommented_unsafe_is_flagged() {
        let scan = scan_source("b.rs", "fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        assert_eq!(scan.sites.len(), 1);
        assert!(!scan.sites[0].annotated);
        let report = audit_scans(&[scan], Some("[allow]\npaths = [\"b.rs\"]\n[counts]\n\"b.rs\" = 1\n"));
        assert!(report.violations.iter().any(|v| v.contains("without a SAFETY")));
    }

    #[test]
    fn strings_comments_chars_and_lifetimes_do_not_confuse_the_lexer() {
        let src = r##"
// unsafe in a line comment
/* unsafe in a /* nested */ block comment */
fn f<'a>(x: &'a str) -> &'a str { x }
const S: &str = "unsafe { not_code() } // SAFETY: fake";
const R: &str = r#"unsafe"#;
const C: char = '"';
const D: char = '\'';
"##;
        let scan = scan_source("c.rs", src);
        assert!(scan.sites.is_empty(), "{:?}", scan.sites);
    }

    #[test]
    fn string_continuation_escapes_keep_physical_line_numbers() {
        // A backslash-newline inside a string literal continues the
        // literal but still ends the physical line; every downstream
        // pass reports `lexed index + 1` as the file line, so the lexer
        // must emit one entry per physical line.
        let src = "let s = \"a \\\n     b\";\nfn after() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.len(), src.lines().count() + 1, "one entry per line plus trailing");
        assert!(lexed[2].code.contains("fn after"), "{:?}", lexed[2].code);
    }

    #[test]
    fn safety_inside_a_string_does_not_annotate() {
        let src = "fn f(p: *const u8) -> u8 {\n    let _m = \"SAFETY: lies\";\n    unsafe { *p }\n}\n";
        let scan = scan_source("d.rs", src);
        assert_eq!(scan.sites.len(), 1);
        assert!(!scan.sites[0].annotated);
    }

    #[test]
    fn ratchet_round_trips_and_detects_rises() {
        let scan = scan_source("e.rs", "// SAFETY: x\nunsafe fn a() {}\n// SAFETY: y\nunsafe fn b() {}\n");
        let blessed = render_ratchet(std::slice::from_ref(&scan));
        let clean = audit_scans(std::slice::from_ref(&scan), Some(&blessed));
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);

        let mut grown = scan;
        grown.sites.push(UnsafeSite { line: 99, kind: SiteKind::Block, annotated: true });
        let report = audit_scans(&[grown], Some(&blessed));
        assert!(report.violations.iter().any(|vi| vi.contains("rose 2 -> 3")), "{:?}", report.violations);
    }

    #[test]
    fn count_decreases_are_notes_not_violations() {
        let two = scan_source("f.rs", "// SAFETY: x\nunsafe fn a() {}\n// SAFETY: y\nunsafe fn b() {}\n");
        let blessed = render_ratchet(&[two]);
        let one = scan_source("f.rs", "// SAFETY: x\nunsafe fn a() {}\n");
        let report = audit_scans(&[one], Some(&blessed));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.notes.iter().any(|n| n.contains("fell 2 -> 1")));
    }

    #[test]
    fn files_outside_allowlist_are_violations() {
        let scan = scan_source("sneaky.rs", "// SAFETY: x\nunsafe fn a() {}\n");
        let report = audit_scans(&[scan], Some("[allow]\npaths = []\n[counts]\n"));
        assert!(report.violations.iter().any(|v| v.contains("outside the allowlist")));
    }

    #[test]
    fn missing_ratchet_is_a_violation() {
        let report = audit_scans(&[], None);
        assert!(report.violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn transmute_count_is_ratcheted() {
        let src = "// SAFETY: bit pattern is valid for both types.\n\
                   unsafe fn f(x: u32) -> f32 { unsafe { core::mem::transmute(x) } }\n";
        let scan = scan_source("t.rs", src);
        assert_eq!(scan.transmutes, vec![2]);
        let blessed = render_ratchet(std::slice::from_ref(&scan));
        assert!(blessed.contains("[transmute]\n\"t.rs\" = 1"), "{blessed}");
        let clean = audit_scans(std::slice::from_ref(&scan), Some(&blessed));
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);

        let two = scan_source(
            "t.rs",
            &format!("{src}// SAFETY: same.\nunsafe fn g(x: u32) -> f32 {{ unsafe {{ core::mem::transmute(x) }} }}\n"),
        );
        let report = audit_scans(&[two], Some(&blessed));
        assert!(
            report.violations.iter().any(|v| v.contains("transmute count rose 1 -> 2")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn unratcheted_transmute_is_a_violation() {
        let scan = scan_source(
            "t.rs",
            "// SAFETY: ok.\nunsafe fn f(x: u32) -> f32 { unsafe { core::mem::transmute(x) } }\n",
        );
        let report =
            audit_scans(&[scan], Some("[allow]\npaths = [\"t.rs\"]\n[counts]\n\"t.rs\" = 2\n"));
        assert!(
            report.violations.iter().any(|v| v.contains("no ratcheted count")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn every_asm_block_needs_its_own_safety_comment() {
        let bare = "// SAFETY: the block's contract.\nunsafe {\n    let x = 1;\n    let y = 2;\n    let z = 3;\n    let w = 4;\n    let v = 5;\n    asm!(\"nop\");\n}\n";
        let scan = scan_source("a.rs", bare);
        assert_eq!(scan.unannotated_asm, vec![8]);
        let report = audit_scans(std::slice::from_ref(&scan), None);
        assert!(report.violations.iter().any(|v| v.contains("asm! without a SAFETY")), "{:?}", report.violations);
        let ok = scan_source("b.rs", "unsafe {\n    // SAFETY: nop touches nothing.\n    asm!(\"nop\");\n}\n");
        assert!(ok.unannotated_asm.is_empty());
        // `core::arch::asm!` counts too; a word merely ending in `asm!` does not.
        assert_eq!(scan_source("c.rs", "fn f() { core::arch::asm!(\"nop\") }\n").unannotated_asm, vec![1]);
        assert!(scan_source("d.rs", "fn f() { wasm!(x) }\n").unannotated_asm.is_empty());
    }

    #[test]
    fn static_mut_is_forbidden_unless_allowlisted() {
        let scan = scan_source("s.rs", "static mut COUNTER: u32 = 0;\n");
        assert_eq!(scan.static_muts, vec![1]);
        let report =
            audit_scans(std::slice::from_ref(&scan), Some("[allow]\npaths = []\n[counts]\n"));
        assert!(
            report.violations.iter().any(|v| v.contains("`static mut` is forbidden")),
            "{:?}",
            report.violations
        );
        let allowed = audit_scans(
            &[scan],
            Some("[allow]\npaths = []\n[counts]\n[static_mut]\npaths = [\"s.rs\"]\n"),
        );
        assert!(allowed.violations.is_empty(), "{:?}", allowed.violations);
    }

    #[test]
    fn static_lifetime_references_are_not_static_mut() {
        let scan = scan_source(
            "l.rs",
            "fn f(x: &'static mut u32) -> &'static u32 { &*x }\nstatic OK: u32 = 0;\n",
        );
        assert!(scan.static_muts.is_empty(), "{:?}", scan.static_muts);
    }
}
