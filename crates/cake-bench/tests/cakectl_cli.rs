//! Exit codes and output of the `cakectl` binary, run as a subprocess.

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
    let cases: [(&[&str], &str); 6] = [
        (&["shape", "--p", "0"], "--p must be at least 1"),
        (&["gemm", "--m", "8", "--k", "8", "--n", "8", "--p", "0"], "--p must be at least 1"),
        (&["sim", "--p", "0", "--m", "64", "--k", "64", "--n", "64"], "--p must be at least 1"),
        (&["search", "--p", "0", "--n", "64"], "--p must be at least 1"),
        (&["tune", "--m", "64", "--k", "64", "--n", "64", "--p", "0"], "--p must be at least 1"),
        (&["shape", "--alpha", "0.5"], "--alpha must be at least 1"),
    ];
    for (args, msg) in cases {
        let out = cakectl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
    }
}
