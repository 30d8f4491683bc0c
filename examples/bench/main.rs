//! Benchmark of record for the CAKE reproduction.
//!
//! ```sh
//! cargo run --release --example bench -- \
//!     [--workload all|gemm_stream|cnn_f32|cnn_int8] [--seed N] \
//!     [--seconds S] [--trace 0|1]
//! ```
//!
//! Makes every input from the seed, then measures each workload for
//! `--seconds` seconds in rounds: each round builds the `p = 1` context or
//! network fresh once (timed, for `setup_s`) and then runs warm ops; with
//! several workloads every round visits each of them. Every output is
//! checked, and each metric is printed by name and unit. With `--trace 1` a
//! traced phase follows and prints the per-layer metrics. The last line of
//! standard output is one JSON object, and the exit code is 1 when an output
//! check failed; `<target>/bench/result.json` and, when traced,
//! `<target>/bench/trace.json` hold the details, where `<target>` is
//! `$CARGO_TARGET_DIR` or `target`.

mod check;
mod ladder;
mod report;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Metric, Section};
use stats::{fastest, median, quantile, PartMins};
use trace::Tracer;
use workloads::{Workload, NAMES, P};

const USAGE: &str = "usage: bench [--workload all|gemm_stream|cnn_f32|cnn_int8] \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Warm ops after set-up before the memory peak is read.
const MEM_OPS: usize = 3;
/// Rounds the measured time is split into, and so the number of timed
/// set-ups. The host's slow spells last seconds, so one set-up per round
/// (rather than all back to back) and, with several workloads, visiting
/// each in every round keeps a spell from landing on one workload or one
/// run of set-ups. A set-up is mostly its cold op, whose time is as spread
/// as the warm ops', so the median needs about 30 samples; more would take
/// time from the ops and gain little, as the rest of its spread is drift
/// between runs.
const ROUNDS: usize = 30;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: NAMES.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: true,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = NAMES.to_vec(),
            "--workload" => {
                let name = NAMES.iter().find(|&&n| n == value);
                args.workloads = vec![*name.ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What the end-to-end phase measured for one workload.
pub struct E2e {
    pub mem_mb: f64,
    pub setup_s: Vec<f64>,
    /// Warm op times, in seconds.
    pub op_s: Vec<f64>,
    /// The fastest time of each part of the warm ops.
    pub part_mins: PartMins,
    pub tally: check::Tally,
}

/// Kernel-reported memory counters of this process, in KiB.
fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The memory peak of the first set-up plus a few warm ops.
fn set_up(w: &mut dyn Workload) -> E2e {
    let mut tally = check::Tally::default();
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("warning: cannot reset the memory peak; mem_mb may include input generation");
    }
    let base = proc_status_kib("VmRSS:");
    tally.count(w.setup().1);
    let mut parts = Vec::new();
    for _ in 0..MEM_OPS {
        tally.count(w.op(&mut parts).1);
    }
    let mem_mb = match (base, proc_status_kib("VmHWM:")) {
        (Some(base), Some(peak)) => (peak - base) / 1024.0,
        _ => {
            eprintln!("warning: /proc/self/status unreadable; mem_mb reported as 0");
            0.0
        }
    };
    E2e {
        mem_mb,
        setup_s: Vec::new(),
        op_s: Vec::new(),
        part_mins: PartMins::default(),
        tally,
    }
}

/// The measured phase: `seconds` per workload, split into rounds. In each
/// round every workload gets its share: one timed fresh set-up, then warm
/// ops. Shares end on a fixed schedule, so an op that runs past the end of
/// one shortens the next instead of lengthening the run.
fn measure(ws: &mut [Box<dyn Workload>], runs: &mut [E2e], seconds: f64) {
    let share = Duration::from_secs_f64(seconds / ROUNDS as f64);
    // Room for every workload's parts, so no op grows it inside its timing.
    let mut parts = Vec::with_capacity(256);
    let mut until = Instant::now();
    for _ in 0..ROUNDS {
        for (w, run) in ws.iter_mut().zip(runs.iter_mut()) {
            until += share;
            let (secs, ok) = w.setup();
            run.setup_s.push(secs);
            run.tally.count(ok);
            loop {
                let (secs, ok) = w.op(&mut parts);
                run.op_s.push(secs);
                run.part_mins.add(secs, &parts);
                run.tally.count(ok);
                if Instant::now() >= until {
                    break;
                }
            }
        }
    }
}

fn e2e_metrics(w: &dyn Workload, run: &E2e) -> Vec<Metric> {
    let (s, ops) = (&run.setup_s, &run.op_s);
    let gops = |t: f64| w.flops() / t / 1e9;
    vec![
        Metric::new("gops", "GOP/s", gops(run.part_mins.op_secs())).with_note(format!(
            "fastest of each of {} parts, summed, p = {P}; fastest op {:.2}, p10 {:.2}, \
             median {:.2}, p90 {:.2} GOP/s; n = {}",
            run.part_mins.parts(),
            gops(fastest(ops)),
            gops(quantile(ops, 0.1)),
            gops(median(ops)),
            gops(quantile(ops, 0.9)),
            ops.len()
        )),
        Metric::new("setup_s", "s", median(s)).with_note(format!(
            "median of {} fresh p = {P} constructions + cold op; min {:.4}, max {:.4}",
            s.len(),
            quantile(s, 0.0),
            quantile(s, 1.0)
        )),
        Metric::new("mem_mb", "MiB", run.mem_mb).with_note(format!(
            "VmHWM after set-up + {MEM_OPS} warm ops - VmRSS with inputs made"
        )),
    ]
}

fn self_time_table(spans: &[trace::Span]) {
    let table = trace::self_times(spans);
    let total: u64 = table.values().map(|v| v.2).sum();
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|&(_, (_, _, own))| std::cmp::Reverse(own));
    println!("\nself time by span name (all traced spans):");
    println!(
        "  {:<22} {:>7} {:>12} {:>12} {:>7}",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for (name, (calls, tot, own)) in rows {
        println!(
            "  {:<22} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            calls,
            tot as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / total.max(1) as f64
        );
    }
}

fn write_out(dir: &PathBuf, file: &str, body: &str) {
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench: workloads {:?}, seed {}, {} s measured, trace {}, {threads} hardware threads",
        args.workloads, args.seed, args.seconds, args.trace as u8
    );

    let mut ws: Vec<Box<dyn Workload>> = args
        .workloads
        .iter()
        .map(|n| workloads::build(n, args.seed).expect("names come from NAMES"))
        .collect();
    let mut runs: Vec<E2e> = ws.iter_mut().map(|w| set_up(w.as_mut())).collect();
    measure(&mut ws, &mut runs, args.seconds);

    let e2e_sections: Vec<Section> = ws
        .iter()
        .zip(&runs)
        .map(|(w, run)| Section {
            workload: w.name(),
            metrics: e2e_metrics(w.as_ref(), run),
        })
        .collect();
    for s in &e2e_sections {
        report::print_section("end-to-end", s);
    }
    let (mut attempted, mut failed): (u64, u64) = runs.iter().fold((0, 0), |(a, f), r| {
        (a + r.tally.attempted, f + r.tally.failed)
    });
    let mut trace_ok = true;

    let out_dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("bench");
    let mut layer_sections = Vec::new();
    if args.trace {
        // Room for the largest traced phase (20 ops of 65 spans plus the
        // CNN passes) per workload, so recording never reallocates.
        let mut tr = Tracer::with_capacity(4096 * ws.len());
        for (w, run) in ws.iter_mut().zip(&runs) {
            let mut tally = check::Tally::default();
            let metrics = ladder::run(w.as_mut(), run, args.seed, &mut tr, &mut tally);
            attempted += tally.attempted;
            failed += tally.failed;
            layer_sections.push(Section {
                workload: w.name(),
                metrics,
            });
        }
        for s in &layer_sections {
            report::print_section("per-layer (traced)", s);
        }
        self_time_table(tr.spans());
        let overfull = trace::overfull(tr.spans());
        if !overfull.is_empty() {
            eprintln!(
                "error: {} spans are shorter than their children",
                overfull.len()
            );
            trace_ok = false;
        }
        write_out(&out_dir, "trace.json", &trace::chrome_json(tr.spans()));
    }

    let correct = failed == 0 && trace_ok;
    println!(
        "\nchecks: {attempted} ops checked, {failed} failed{}",
        if correct {
            ""
        } else {
            " -- OUTPUT CHECKS FAILED"
        }
    );
    // The result line carries the end-to-end metrics, or the per-layer ones
    // of a traced run; result.json carries both.
    let reported = if args.trace {
        &layer_sections
    } else {
        &e2e_sections
    };
    let line = report::result_line(correct, attempted, failed, reported);
    let file = report::result_file(
        args.seed,
        args.seconds,
        &line,
        &e2e_sections,
        &layer_sections,
    );
    write_out(&out_dir, "result.json", &file);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
