//! Exit codes and output of the `cakectl` binary, run as a subprocess.

use std::path::Path;
use std::process::{Command, Output};

fn cakectl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cakectl")).args(args).output().expect("cakectl runs")
}

fn traffic_args<'a>(bm: &'a str, bk: &'a str, bn: &'a str) -> Vec<&'a str> {
    vec!["traffic", "--m", "8", "--k", "8", "--n", "8", "--bm", bm, "--bk", bk, "--bn", bn]
}

#[test]
fn traffic_rejects_a_zero_block_extent_with_exit_2() {
    for (bm, bk, bn) in [("0", "4", "4"), ("4", "0", "4"), ("4", "4", "0")] {
        let args = traffic_args(bm, bk, bn);
        let out = cakectl(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("must be at least 1"), "{args:?}: {stderr}");
    }
}

#[test]
fn traffic_prints_the_k_first_tally() {
    // 8x8x8 in 4x4x4 blocks: the K-first snake never spills, and every
    // element of C is written exactly once.
    let out = cakectl(&traffic_args("4", "4", "4"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("over 2x2x2 blocks"), "{stdout}");
    assert!(stdout.contains("C final writes   :             64 elements"), "{stdout}");
    assert!(stdout.contains("C partial writes :              0 elements"), "{stdout}");
}

#[test]
fn zero_workers_and_sub_unit_alpha_exit_2() {
    let cases: [(&[&str], &str); 5] = [
        (&["shape", "--p", "0"], "--p must be at least 1"),
        (&["gemm", "--m", "8", "--k", "8", "--n", "8", "--p", "0"], "--p must be at least 1"),
        (&["sim", "--p", "0", "--m", "64", "--k", "64", "--n", "64"], "--p must be at least 1"),
        (&["search", "--p", "0", "--n", "64"], "--p must be at least 1"),
        (&["shape", "--alpha", "0.5"], "--alpha must be at least 1"),
    ];
    for (args, msg) in cases {
        let out = cakectl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
    }
}

#[test]
fn invalid_option_values_exit_2() {
    let cases: [(&[&str], &str); 10] = [
        (&["shape", "--p", "two"], "invalid --p 'two'"),
        (
            &["gemm", "--m", "64", "--k", "64", "--n", "64", "--iters", "x", "--p", "zz"],
            "invalid --iters 'x'",
        ),
        (&["gemm", "--m", "64", "--k", "64", "--n", "64", "--p", "zz"], "invalid --p 'zz'"),
        (
            &["sim", "--m", "64", "--k", "64", "--n", "64", "--fuzz-orderings", "many"],
            "invalid --fuzz-orderings 'many'",
        ),
        (&["shape", "--alpha", "wide"], "invalid --alpha 'wide'"),
        (
            &["fig", "fig13"],
            "unknown figure 'fig13' (expected table2|fig7|fig8|fig9|fig10|fig11|fig12|sim|all)",
        ),
        (&["fig", "fig9", "--part", "c"], "unknown --part 'c' for fig9 (expected a, b or ab)"),
        (&["fig", "fig7", "--part", "z"], "unknown --part 'z' for fig7"),
        (&["fig", "fig10", "--n", "big"], "invalid --n 'big'"),
        (&["fig", "fig10", "--part", "a"], "--part applies to fig7, fig9 only"),
    ];
    for (args, msg) in cases {
        let out = cakectl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
    }
    let mut args = traffic_args("4", "4", "4");
    args.extend(["--policy", "spill"]);
    let out = cakectl(&args);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn every_subcommand_rejects_a_flag_it_does_not_read() {
    // A misspelled or retired flag (the deleted `--kernel-smoke` gate) must
    // fail the script that passes it, before any work is done.
    let cases: [(&[&str], &str); 10] = [
        (&["shape", "--bogus"], "--bogus"),
        (&["sim", "--m", "64", "--k", "64", "--n", "64", "--nope"], "--nope"),
        (&["simulate", "--m", "64", "--k", "64", "--n", "64", "--nope"], "--nope"),
        (&["search", "--n", "64", "--bogus"], "--bogus"),
        (&["traffic", "--m", "8", "--k", "8", "--n", "8", "--bm", "8", "--bk", "8", "--bn", "8", "--nope", "1"], "--nope"),
        (&["gemm", "--m", "8", "--k", "8", "--n", "8", "--bogus"], "--bogus"),
        (&["gemm", "--m", "8", "--k", "8", "--n", "8", "--kernel-smoke"], "--kernel-smoke"),
        (&["verify", "--cases", "1", "--bogus"], "--bogus"),
        (&["audit", "--bogus"], "--bogus"),
        (&["fig", "table2", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        let out = cakectl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag '{flag}'")), "{args:?}: {stderr}");
        let sub = if args[0] == "simulate" { "sim" } else { args[0] };
        assert!(stderr.contains(&format!("usage: cakectl {sub} ")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting its flags");
    }
}

#[test]
fn fig_reproduces_the_committed_results_byte_for_byte() {
    // Every id but fig7 (about 12 s in release; CI diffs it through
    // `cakectl fig all`). The simulator involves no wall clock, so any
    // difference means the model or a figure changed: regenerate
    // `results/` with `cakectl fig all` and say why in the change.
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let fresh = std::env::temp_dir().join(format!("cakectl-fig-{}", std::process::id()));
    std::fs::remove_dir_all(&fresh).ok();
    for id in ["table2", "fig8", "fig9", "fig10", "fig11", "fig12", "sim"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cakectl"))
            .args(["fig", id])
            .env("CAKE_RESULTS_DIR", &fresh)
            .output()
            .expect("cakectl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "fig {id}: {stderr}");
    }
    let mut names: Vec<String> = std::fs::read_dir(&fresh)
        .expect("fig wrote its CSVs")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 11, "{names:?}");
    for name in &names {
        let got = std::fs::read(fresh.join(name)).expect("fresh CSV");
        let want = std::fs::read(committed.join(name)).unwrap_or_default();
        assert!(got == want, "results/{name} differs from `cakectl fig` output");
    }
    std::fs::remove_dir_all(&fresh).ok();
}
