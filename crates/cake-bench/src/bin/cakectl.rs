//! `cakectl` — command-line front end to the CAKE analysis tools.
//!
//! ```text
//! cakectl shape    --cpu intel|amd|arm --p P [--m M --k K --n N] [--alpha A]
//! cakectl sim      --cpu intel|amd|arm --p P --m M --k K --n N [--algo cake|goto]
//!                  [--fuzz-orderings N] [--trace] (`simulate` is an alias)
//! cakectl search   --cpu intel|amd|arm --p P --n N [--steps S]
//! cakectl tune     --m M --k K --n N [--p P] [--dtype f32|f64|bf16|int8]
//!                  [--top-k K] [--reps R] [--l2-kib KIB] [--llc-mib MIB]
//!                  [--cache PATH] [--no-save] [--check]
//! cakectl traffic  --m M --k K --n N --bm BM --bk BK --bn BN [--policy hold|stream]
//!                  [--dtype f32|f64|bf16|int8]
//! cakectl gemm     --m M --k K --n N [--p P] [--iters I] [--stats] [--pin]
//!                  [--explain] [--llc-mib MIB] [--kernel portable|avx2|avx512]
//!                  [--dtype f32|f64|bf16|int8]
//!                  [--threads P | --threads P1,P2,...] [--check-counters]
//!                  [--kernel-smoke] [--dtype-smoke]
//! cakectl verify   [--cases C] [--seed S]
//! cakectl audit    [--bless] [--root DIR] [--only-scan] [--only-bounds]
//!                  [--only-phase] [--only-alloc] [--only-panic] [--only-atomics]
//! ```
//!
//! Everything the paper derives analytically, queryable from the shell —
//! plus `gemm`, which runs the *real* pipelined executor and (with
//! `--stats`) prints its measured [`ExecStats`]: per-phase pack / compute /
//! barrier-wait time (sum and slowest-worker max), compute imbalance,
//! requested vs effective worker count, host cores, barrier mode,
//! workspace footprint, allocations, and reuse skips. `--pin` pins workers
//! to cores (Linux; best-effort elsewhere). `--explain` prints the
//! auto-tuner's full paper trail before running: the chosen `(mc, kc, nc)`,
//! `alpha` and its source, the L2/LLC-LRU bounds that clamped `mc`, the
//! topology clamp from requested to effective `p`, and the barrier mode —
//! each with the reason it was chosen.
//!
//! `--kernel TIER` caps the dispatch tier (`portable`, `avx2`, `avx512`)
//! by setting `CAKE_KERNEL` before any selection happens — the A/B lever
//! for comparing tiers on one host. A tier the host lacks falls down the
//! ladder (avx512 → avx2 → portable) rather than failing.
//!
//! `--dtype` selects the GEMM element type: `f32` (default), `f64`, or the
//! narrow tier — `int8` (i8 operands, i32 accumulate) and `bf16` (bf16
//! operands, f32 accumulate). The result line, `--stats`, and `--explain`
//! all surface the dtype and the per-dtype kernel the ladder dispatched.
//! For `traffic`, `--dtype` sizes the byte totals (operands at the element
//! width, C surfaces at the accumulator width).
//!
//! `--threads` switches `gemm` into a strong-scaling sweep on a fixed
//! block grid (one `p` per comma-separated entry — a single entry is a
//! one-row sweep): per-`p` GFLOP/s, speedup over the first entry, scaling
//! efficiency, effective worker count after the topology clamp, and
//! pack-element counters. `--check-counters` exits 1 if the counters
//! differ across `p`, or if a point with real core headroom
//! (`cores >= 2p`, unclamped) fails to beat the single-core baseline —
//! the CB-block bandwidth and scaling claims as a CI gate
//! (`ci.sh --scale-smoke`).
//!
//! `--kernel-smoke` runs one single-threaded GEMM per kernel tier the host
//! supports on one fixed block grid and exits 1 unless the traffic
//! counters are identical across tiers — live element movement is a
//! property of the block schedule, never of the register tile
//! (`ci.sh --kernel-smoke`).
//!
//! `--dtype-smoke` is the dtype counterpart: one single-threaded GEMM per
//! supported dtype (f32, f64, bf16, int8) on one fixed block grid, each
//! through its own best-tier kernel. Exits 1 unless (a) the *element*
//! counters are identical across dtypes — element movement is a schedule
//! property; only bytes-per-element changes — and (b) every dtype's timed
//! iterations ran allocation-free, the zero-alloc warm-path guarantee
//! extended to the narrow tier (`ci.sh --dtype-smoke`).
//!
//! `tune` runs the full autotuning loop for one `(m, k, n, dtype, p)`
//! point: a deterministic candidate grid per kernel tier
//! (`cake_core::tune::candidate_points`), ranked by the event-driven
//! simulator on a host-shaped CPU config
//! (`cake_sim::search::autotune` over `CpuConfig::detected_host`), with
//! the top-K leaders re-measured by short on-host GEMM runs alongside the
//! closed-form default. The measured winner — never slower than the
//! default, which always competes — is cached in `target/cake-tune.json`
//! (or `--cache` / `$CAKE_TUNE_CACHE`), where
//! `CakeConfig::autotuned_for(m, k, n, dtype, p)` picks it up. `--check`
//! exits 1 unless the winner is at least the default AND the cache
//! round-trips through `autotuned_for` (`ci.sh --tune-smoke`).
//!
//! `verify` runs the full `cake-verify` harness: the differential fuzzer
//! (default 256 cases; `--seed` or `CAKE_TEST_SEED` perturbs the stream),
//! the model-conformance oracle, and the deterministic interleaving
//! checker. Exit status 1 on any failure.
//!
//! `audit` runs the in-tree static analyses (`cake-audit`): the unsafe
//! inventory against the committed `unsafe-ratchet.toml` (with transmute
//! and `static mut` ratchets), the symbolic bounds prover over every
//! raw-pointer offset site (proof report written to
//! `target/cake-audit/bounds.json`), the executor phase checker, and the
//! call-graph dataflow passes — warm-path alloc-freedom, hot-path
//! panic-freedom, and the atomics-ordering checker (aggregate report
//! written to `target/cake-audit/audit.json`). Each pass prints its own
//! `PASS`/`FAIL` verdict line; the exit status is computed over every
//! selected pass (no short-circuiting), 1 on any violation.
//!
//! `--only-scan`, `--only-bounds`, `--only-phase`, `--only-alloc`,
//! `--only-panic`, `--only-atomics` restrict the run to the named passes
//! (repeatable; default is all six). `--bless` regenerates the ratchet
//! from the current tree before checking.

use cake_bench::output::{arg_value, has_flag, render_table};
use cake_bench::scaling::{
    counters_invariant, dtype_counters_invariant, kernel_counters_invariant, scaling_sane,
    sweep_dtypes, sweep_kernels, sweep_shape,
};
use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::executor::ExecStats;
use cake_core::model::CakeModel;
use cake_core::schedule::Schedule;
use cake_core::traffic::{dram_traffic, CResidency, TrafficParams};
use cake_sim::config::CpuConfig;
use cake_sim::engine::{resolve_cake_shape, simulate_cake, simulate_goto, SimParams};
use cake_sim::search::{analytic_point, grid_search};

fn cpu_by_name(name: &str) -> CpuConfig {
    CpuConfig::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "unknown cpu '{name}' (expected {})",
            CpuConfig::table2_names().join("|")
        );
        std::process::exit(2);
    })
}

fn req_usize(key: &str) -> usize {
    match arg_value(key).and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("missing or invalid {key}");
            std::process::exit(2);
        }
    }
}

fn opt_usize(key: &str, default: usize) -> usize {
    arg_value(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn cmd_shape() {
    let cpu = cpu_by_name(&arg_value("--cpu").unwrap_or_else(|| "intel".into()));
    let p = opt_usize("--p", cpu.cores);
    let mut sp = SimParams::new(
        opt_usize("--m", 1 << 20),
        opt_usize("--k", 1 << 20),
        opt_usize("--n", 1 << 20),
        p,
    );
    sp.alpha = arg_value("--alpha").and_then(|v| v.parse().ok());
    let shape = resolve_cake_shape(&cpu, &sp);
    let model = CakeModel::with_mac_rate(
        shape,
        cpu.mr,
        cpu.nr,
        sp.elem_bytes,
        cpu.freq_ghz,
        cpu.macs_per_cycle_f32,
    );
    println!("CPU: {} ({} cores used)", cpu.name, p);
    println!("CB block: {shape}");
    println!("  A surface: {:>12} elements", shape.a_surface());
    println!("  B surface: {:>12} elements", shape.b_surface());
    println!("  C surface: {:>12} elements", shape.c_surface());
    println!("  fits LRU rule (C + 2(A+B) <= LLC): {}", shape.fits_llc_lru(cpu.llc_bytes, 4));
    println!("Model (Eqs. 4/5/6):");
    println!("  required DRAM bandwidth: {:>8.2} GB/s (constant in p)", model.ext_bw_gbs());
    println!("  local memory footprint : {:>8.2} MiB", model.local_mem_bytes() / 1048576.0);
    println!("  internal bandwidth     : {:>8.2} GB/s", model.int_bw_gbs());
    println!("  peak throughput        : {:>8.2} GFLOP/s", model.peak_gflops());
}

fn cmd_sim() {
    use cake_sim::engine::{check_ordering_invariance, simulate_traced, Algo, SimOptions};
    let cpu = cpu_by_name(&arg_value("--cpu").unwrap_or_else(|| "intel".into()));
    let p = opt_usize("--p", cpu.cores);
    let sp = SimParams::new(req_usize("--m"), req_usize("--k"), req_usize("--n"), p);
    let algo = match arg_value("--algo").unwrap_or_else(|| "cake".into()).as_str() {
        "cake" => Algo::Cake,
        "goto" => Algo::Goto,
        other => {
            eprintln!("unknown algo '{other}' (expected cake|goto)");
            std::process::exit(2);
        }
    };
    let rep = match algo {
        Algo::Cake => simulate_cake(&cpu, &sp),
        Algo::Goto => simulate_goto(&cpu, &sp),
    };
    println!("{}", cpu.name);
    println!("{rep}");
    println!("  simulated time : {:.4} ms", rep.seconds * 1e3);
    println!("  DRAM traffic   : {:.1} MiB", rep.dram_bytes as f64 / 1048576.0);
    println!("  steps / events : {} / {}", rep.steps, rep.events);

    if has_flag("--trace") {
        let (_, trace) = simulate_traced(&cpu, &sp, algo, SimOptions::default());
        println!("event trace (last {} events retained):", trace.len());
        for ev in &trace {
            println!("  {ev}");
        }
    }

    if let Some(n) = arg_value("--fuzz-orderings") {
        let seeds: u64 = n.parse().unwrap_or(64);
        match check_ordering_invariance(&cpu, &sp, algo, seeds) {
            Ok(checked) => {
                println!(
                    "ordering invariance: {checked} fuzzed same-tick orderings, \
                     all traffic/result counters bit-identical"
                );
            }
            Err(div) => {
                eprintln!("ORDERING DIVERGENCE (schedule race):\n{div}");
                std::process::exit(1);
            }
        }
    }
}

fn cmd_search() {
    let cpu = cpu_by_name(&arg_value("--cpu").unwrap_or_else(|| "intel".into()));
    let p = opt_usize("--p", cpu.cores);
    let n = req_usize("--n");
    let steps = opt_usize("--steps", 5);
    if steps < 2 {
        eprintln!(
            "--steps must be >= 2 (got {steps}): the search grid needs at least two \
             points per axis\nusage: cakectl search --cpu intel|amd|arm --p P --n N [--steps S]"
        );
        std::process::exit(2);
    }
    let res = grid_search(&cpu, n, p, steps);
    let analytic = analytic_point(&cpu, n, p);

    let mut rows: Vec<Vec<String>> = res
        .points
        .iter()
        .enumerate()
        .map(|(i, pt)| {
            vec![
                format!("{}", pt.shape),
                format!("{:.3}", pt.seconds * 1e3),
                format!("{:.2}", pt.gflops),
                format!("{:.2}", pt.dram_bw_gbs),
                if pt.fits_llc { "yes" } else { "NO" }.into(),
                if i == res.best { "<= best" } else { "" }.into(),
            ]
        })
        .collect();
    rows.push(vec![
        format!("{} (analytic)", analytic.shape),
        format!("{:.3}", analytic.seconds * 1e3),
        format!("{:.2}", analytic.gflops),
        format!("{:.2}", analytic.dram_bw_gbs),
        if analytic.fits_llc { "yes" } else { "NO" }.into(),
        "closed-form".into(),
    ]);
    println!(
        "Design search on {} ({} cores, {n}^3): {} evaluations\n",
        cpu.name,
        p,
        res.evaluations()
    );
    println!(
        "{}",
        render_table(
            &["shape", "sim ms", "GFLOP/s", "DRAM GB/s", "fits", ""],
            &rows
        )
    );
    println!(
        "analytic vs searched-best time: x{:.3}",
        analytic.seconds / res.best_point().seconds
    );
}

fn cmd_tune() {
    use cake_bench::tune::{autotune_into_table, TuneOptions, TuneOutcome};
    use cake_core::tune::TuneTable;

    let (m, k, n) = (req_usize("--m"), req_usize("--k"), req_usize("--n"));
    if m == 0 || k == 0 || n == 0 {
        eprintln!(
            "--m/--k/--n must be >= 1 (got {m}x{k}x{n}): there is nothing to tune on an \
             empty problem\n\
             usage: cakectl tune --m M --k K --n N [--dtype f32|f64|bf16|int8] [--p P] \
             [--top-k K] [--reps R] [--l2-kib KIB] [--llc-mib MIB] [--cache PATH] \
             [--no-save] [--check]"
        );
        std::process::exit(2);
    }
    let p = opt_usize("--p", 1);
    let dtype = arg_value("--dtype").unwrap_or_else(|| "f32".into());
    let opts = TuneOptions {
        top_k: opt_usize("--top-k", 4),
        reps: opt_usize("--reps", 3).max(1),
        l2_bytes: opt_usize("--l2-kib", CakeConfig::default().l2_bytes >> 10) << 10,
        llc_bytes: opt_usize("--llc-mib", CakeConfig::default().llc_bytes >> 20) << 20,
    };
    let cache = arg_value("--cache")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(TuneTable::default_path);

    let mut table = TuneTable::load(&cache).unwrap_or_default();
    let out: TuneOutcome = match dtype.as_str() {
        "f32" => autotune_into_table::<f32>(&mut table, m, k, n, p, opts),
        "f64" => autotune_into_table::<f64>(&mut table, m, k, n, p, opts),
        "int8" => autotune_into_table::<i8>(&mut table, m, k, n, p, opts),
        "bf16" => autotune_into_table::<cake_matrix::Bf16>(&mut table, m, k, n, p, opts),
        other => {
            eprintln!("unknown --dtype '{other}' (expected f32|f64|bf16|int8)");
            std::process::exit(2);
        }
    };

    let rows: Vec<Vec<String>> = out
        .candidates
        .iter()
        .map(|c| {
            let marker = match (c.shape == out.entry.shape() && c.tier.name() == out.entry.tier,
                                c.is_default) {
                (true, true) => "<= winner (default held)",
                (true, false) => "<= winner",
                (false, true) => "closed-form default",
                _ => "",
            };
            vec![
                format!("{}", c.shape),
                c.tier.name().into(),
                if c.sim_gflops > 0.0 { format!("{:.2}", c.sim_gflops) } else { "-".into() },
                format!("{:.2}", c.gflops),
                marker.into(),
            ]
        })
        .collect();
    println!(
        "Autotune {m}x{k}x{n} dtype {dtype} p={p}: {} simulator evaluations, \
         {} measured (best of {} reps)\n",
        out.sim_evaluations,
        out.candidates.len(),
        opts.reps
    );
    println!(
        "{}",
        render_table(&["shape", "tier", "sim GF/s", "meas GF/s", ""], &rows)
    );
    println!(
        "winner: mc={} kc={} nc={} tier={} at {:.2} GFLOP/s \
         (default {:.2}, x{:.3})",
        out.entry.mc, out.entry.kc, out.entry.nc,
        out.entry.tier, out.entry.gflops, out.default_gflops, out.speedup()
    );

    if !has_flag("--no-save") {
        if let Err(e) = table.save(&cache) {
            eprintln!("failed to save tune cache {}: {e}", cache.display());
            std::process::exit(1);
        }
        println!("cached -> {}", cache.display());
    }

    if has_flag("--check") {
        // CI gate: tuned >= default, and the cache round-trips through
        // the public `autotuned_for` loader.
        if out.entry.gflops + 1e-9 < out.default_gflops {
            eprintln!(
                "tune check FAILED: winner {:.2} GFLOP/s below default {:.2}",
                out.entry.gflops, out.default_gflops
            );
            std::process::exit(1);
        }
        std::env::set_var("CAKE_TUNE_CACHE", &cache);
        let cfg = CakeConfig::autotuned_for(m, k, n, &dtype, p);
        std::env::remove_var("CAKE_TUNE_CACHE");
        if cfg.fixed_shape != Some(out.entry.shape()) {
            eprintln!(
                "tune check FAILED: cache round trip resolved {:?}, expected {}",
                cfg.fixed_shape,
                out.entry.shape()
            );
            std::process::exit(1);
        }
        println!("tune check: winner >= default and cache round-trips through autotuned_for: OK");
    }
}

fn cmd_traffic() {
    let tp = TrafficParams {
        m: req_usize("--m"),
        k: req_usize("--k"),
        n: req_usize("--n"),
        bm: req_usize("--bm"),
        bk: req_usize("--bk"),
        bn: req_usize("--bn"),
    };
    if tp.bm == 0 || tp.bk == 0 || tp.bn == 0 {
        eprintln!("--bm, --bk and --bn must be at least 1");
        std::process::exit(2);
    }
    let policy = match arg_value("--policy").as_deref() {
        Some("stream") => CResidency::StreamToDram,
        _ => CResidency::HoldInLlc,
    };
    let grid = tp.grid();
    let t = dram_traffic(Schedule::k_first(grid, tp.m, tp.n), tp, policy, 1);
    let dtype = arg_value("--dtype").unwrap_or_else(|| "f32".into());
    let bytes = match dtype.as_str() {
        "f32" => t.total_bytes_for::<f32>(),
        "f64" => t.total_bytes_for::<f64>(),
        "int8" => t.total_bytes_for::<i8>(),
        "bf16" => t.total_bytes_for::<cake_matrix::Bf16>(),
        other => {
            eprintln!("unknown --dtype '{other}' (expected f32|f64|bf16|int8)");
            std::process::exit(2);
        }
    };
    println!("K-first snake schedule over {}x{}x{} blocks ({policy:?})", grid.mb, grid.kb, grid.nb);
    println!("  A loads          : {:>14} elements", t.a_loads);
    println!("  B loads          : {:>14} elements", t.b_loads);
    println!("  C final writes   : {:>14} elements", t.c_final_writes);
    println!("  C partial writes : {:>14} elements", t.c_partial_writes);
    println!("  C partial reads  : {:>14} elements", t.c_partial_reads);
    println!(
        "  total            : {:>14} elements ({:.1} MiB as {dtype})",
        t.total(),
        bytes as f64 / 1048576.0
    );
}

fn print_exec_stats(s: &ExecStats) {
    let busy = (s.pack_ns + s.compute_ns + s.barrier_wait_ns).max(1) as f64;
    println!("Executor stats (pipelined, measured):");
    println!("  kernel           : {:>12}  (dispatch tier for this run)", s.kernel);
    println!("  CB blocks        : {:>12}", s.blocks);
    println!(
        "  workers          : {:>12}  (requested {}, host has {} core(s))",
        s.workers, s.requested_workers, s.host_cores
    );
    println!(
        "  barrier mode     : {:>12}  (park iff workers > cores)",
        s.barrier_mode.as_str()
    );
    println!("  barrier waits    : {:>12}  (1 rotation barrier per block)", s.barriers);
    println!("  A packs skipped  : {:>12}", s.a_packs_skipped);
    println!("  B packs skipped  : {:>12}", s.b_packs_skipped);
    println!("  B panel hits     : {:>12}  (ring held a revisited surface)", s.b_panel_hits);
    println!(
        "  pack time        : {:>9.3} ms  ({:>5.1}% of busy, worker max {:.3} ms)",
        s.pack_ns as f64 / 1e6,
        s.pack_ns as f64 / busy * 100.0,
        s.pack_ns_max as f64 / 1e6
    );
    println!(
        "  compute time     : {:>9.3} ms  ({:>5.1}% of busy, worker max {:.3} / min {:.3} ms)",
        s.compute_ns as f64 / 1e6,
        s.compute_ns as f64 / busy * 100.0,
        s.compute_ns_max as f64 / 1e6,
        s.compute_ns_min as f64 / 1e6
    );
    println!(
        "  barrier wait sum : {:>9.3} ms  ({:>5.1}% of busy)",
        s.barrier_wait_ns as f64 / 1e6,
        s.barrier_wait_ns as f64 / busy * 100.0
    );
    println!(
        "  barrier wait max : {:>9.3} ms  (slowest single worker)",
        s.barrier_wait_ns_max as f64 / 1e6
    );
    println!(
        "  compute imbalance: {:>10.3}  (max * workers / sum; 1.0 = even)",
        s.compute_imbalance()
    );
    println!(
        "  overlap efficiency: {:>10.3}  (1.0 = packing fully hidden)",
        cake_core::tune::overlap_efficiency(s.pack_ns, s.compute_ns)
    );
    println!("  workspace        : {:>9.1} KiB", s.workspace_bytes as f64 / 1024.0);
    println!("  allocations      : {:>12}  (this call)", s.allocations);
    // Element counters are live only with cake-core's `traffic-counters`
    // feature (enabled here transitively through cake-verify).
    if s.a_elems_loaded + s.b_elems_loaded + s.c_elems_updated > 0 {
        println!("  A elems loaded   : {:>12}", s.a_elems_loaded);
        println!("  B elems loaded   : {:>12}", s.b_elems_loaded);
        println!("  C elems updated  : {:>12}", s.c_elems_updated);
    }
}

fn cmd_verify() {
    let cases = opt_usize("--cases", 256) as u32;
    let seed = arg_value("--seed").and_then(|v| v.parse::<u64>().ok());
    println!("cake-verify: {cases} fuzz cases, conformance oracle, interleaving checker");
    match cake_verify::verify_all(cases, seed) {
        Ok(outcomes) => {
            for o in outcomes {
                println!("[{}] PASS", o.name);
                for line in o.lines {
                    println!("    {line}");
                }
            }
            println!("verification suite passed");
        }
        Err(msg) => {
            eprintln!("verification FAILED:\n{msg}");
            std::process::exit(1);
        }
    }
}

fn cmd_audit() {
    let root = match arg_value("--root").map(std::path::PathBuf::from) {
        Some(dir) => dir,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
            match cake_audit::find_root(&cwd) {
                Some(dir) => dir,
                None => {
                    eprintln!("no workspace Cargo.toml above {}; pass --root", cwd.display());
                    std::process::exit(2);
                }
            }
        }
    };
    // `--only-<pass>` flags are additive over an empty selection; with no
    // flag every pass runs.
    type PassFlag = (&'static str, fn(&mut cake_audit::PassSelection));
    let only: &[PassFlag] = &[
        ("--only-scan", |p| p.scan = true),
        ("--only-bounds", |p| p.bounds = true),
        ("--only-phase", |p| p.phase = true),
        ("--only-alloc", |p| p.alloc = true),
        ("--only-panic", |p| p.panic = true),
        ("--only-atomics", |p| p.atomics = true),
    ];
    let mut passes = cake_audit::PassSelection::none();
    for (flag, enable) in only {
        if has_flag(flag) {
            enable(&mut passes);
        }
    }
    if !passes.any() {
        passes = cake_audit::PassSelection::all();
    }
    let cfg = cake_audit::AuditConfig {
        root: root.clone(),
        bless: has_flag("--bless"),
        passes,
    };
    let outcome = match cake_audit::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("audit failed to run: {e}");
            std::process::exit(2);
        }
    };
    // Machine-readable reports for tooling; failures here are not audit
    // violations (the summary already carries the verdict).
    let report_dir = root.join("target/cake-audit");
    if std::fs::create_dir_all(&report_dir).is_ok() {
        if let Some(bounds) = &outcome.bounds {
            let _ = std::fs::write(report_dir.join("bounds.json"), bounds.to_json());
        }
        let _ = std::fs::write(report_dir.join("audit.json"), outcome.to_json());
    }
    for line in outcome.summary_lines() {
        println!("{line}");
    }
    // Aggregate the exit status over every selected pass explicitly —
    // each report was fully computed above, so one failing pass never
    // masks another's output, and the verdict covers them all.
    let pass_results = [
        outcome.scan.as_ref().map(|r| r.violations.is_empty()),
        outcome.bounds.as_ref().map(|r| r.ok()),
        outcome.phase.as_ref().map(|r| r.ok()),
        outcome.alloc.as_ref().map(|r| r.ok()),
        outcome.panic.as_ref().map(|r| r.ok()),
        outcome.atomics.as_ref().map(|r| r.ok()),
    ];
    let all_ok = pass_results.iter().all(|r| r.unwrap_or(true)) && outcome.self_check.is_empty();
    if !all_ok {
        std::process::exit(1);
    }
}

fn cmd_gemm() {
    let (m, k, n) = (req_usize("--m"), req_usize("--k"), req_usize("--n"));
    let iters = opt_usize("--iters", 3).max(1);
    let pin = has_flag("--pin");

    // Tier cap for A/B runs: exported before any kernel selection so every
    // best_kernel call below (and in the sweeps) honors it.
    if let Some(tier) = arg_value("--kernel") {
        if cake_kernels::KernelTier::parse(&tier).is_none() {
            eprintln!("unknown --kernel '{tier}' (expected portable|avx2|avx512)");
            std::process::exit(2);
        }
        std::env::set_var("CAKE_KERNEL", &tier);
    }

    if has_flag("--kernel-smoke") {
        let points = sweep_kernels(m, k, n, iters);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|pt| {
                vec![
                    pt.tier.name().into(),
                    pt.kernel.into(),
                    format!("{}x{}", pt.mr, pt.nr),
                    format!("{:.2}", pt.gflops),
                    pt.a_elems.to_string(),
                    pt.b_elems.to_string(),
                    pt.c_elems.to_string(),
                ]
            })
            .collect();
        println!("GEMM {m}x{k}x{n} kernel-tier smoke (fixed block grid, p = 1, best of {iters}):\n");
        println!(
            "{}",
            render_table(
                &["tier", "kernel", "mr x nr", "GFLOP/s", "A elems", "B elems", "C elems"],
                &rows
            )
        );
        match kernel_counters_invariant(&points) {
            Ok(()) => println!("pack counters invariant across kernel tiers: OK"),
            Err(msg) => {
                eprintln!("kernel-tier counter invariance FAILED: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    if has_flag("--dtype-smoke") {
        let points = sweep_dtypes(m, k, n, iters);
        let f32_gops = points.iter().find(|pt| pt.dtype == "f32").map_or(0.0, |pt| pt.gops);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|pt| {
                vec![
                    pt.dtype.into(),
                    pt.kernel.into(),
                    format!("{}B/{}B", pt.elem_bytes, pt.acc_bytes),
                    format!("{:.2}", pt.gops),
                    format!("{:.2}x", pt.gops / f32_gops.max(1e-12)),
                    pt.allocs_after_warmup.to_string(),
                    pt.a_elems.to_string(),
                    pt.b_elems.to_string(),
                    pt.c_elems.to_string(),
                ]
            })
            .collect();
        println!("GEMM {m}x{k}x{n} dtype smoke (fixed block grid, p = 1, best of {iters}):\n");
        println!(
            "{}",
            render_table(
                &[
                    "dtype", "kernel", "op/acc B", "GOP/s", "vs f32", "warm allocs", "A elems",
                    "B elems", "C elems"
                ],
                &rows
            )
        );
        match dtype_counters_invariant(&points) {
            Ok(()) => {
                println!("element counters invariant + zero-alloc warm path across dtypes: OK")
            }
            Err(msg) => {
                eprintln!("dtype smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(list) = arg_value("--threads") {
        let threads: Vec<usize> = list
            .split(',')
            .map(|t| match t.trim().parse::<usize>() {
                Ok(p) if p > 0 => p,
                _ => {
                    eprintln!("invalid --threads entry '{t}' (want positive integers)");
                    std::process::exit(2);
                }
            })
            .collect();
        let points = sweep_shape(m, k, n, &threads, iters, pin);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|pt| {
                vec![
                    pt.p.to_string(),
                    pt.effective_p.to_string(),
                    pt.barrier_mode.to_string(),
                    format!("{:.2}", pt.gflops),
                    format!("{:.2}", pt.speedup),
                    format!("{:.2}", pt.efficiency),
                    format!("{:.3}", pt.imbalance),
                    format!("{:.3}", pt.barrier_wait_ns_max as f64 / 1e6),
                    pt.a_elems.to_string(),
                    pt.b_elems.to_string(),
                ]
            })
            .collect();
        let cores = cake_core::topology::available_cores();
        let kernel = points.first().map_or("", |pt| pt.kernel);
        println!(
            "GEMM {m}x{k}x{n} strong-scaling sweep (fixed block grid, kernel {kernel}, \
             best of {iters}, host has {cores} core(s)):\n"
        );
        println!(
            "{}",
            render_table(
                &[
                    "p", "eff p", "barrier", "GFLOP/s", "speedup", "effic.", "imbal.",
                    "bar max ms", "A elems", "B elems"
                ],
                &rows
            )
        );
        if has_flag("--check-counters") {
            match counters_invariant(&points) {
                Ok(()) => println!("pack counters invariant across p: OK"),
                Err(msg) => {
                    eprintln!("counter invariance FAILED: {msg}");
                    std::process::exit(1);
                }
            }
            match scaling_sane(&points, cores) {
                Ok(()) => println!("same-host scaling sanity (cores >= 2p => speedup > 1): OK"),
                Err(msg) => {
                    eprintln!("scaling sanity FAILED: {msg}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    let p = opt_usize("--p", 1);
    // Per-p tuned shape (paper Section 3 + the Section 4.3 LRU fit): the
    // block's M-extent grows with p, mc bounded by the cache budget.
    let llc_bytes = arg_value("--llc-mib")
        .and_then(|v| v.parse::<usize>().ok())
        .map(|mib| mib << 20)
        .unwrap_or(CakeConfig::default().llc_bytes);
    let cfg = CakeConfig {
        pin_cores: pin,
        ..CakeConfig::tuned_for(p, llc_bytes)
    };
    let dtype = arg_value("--dtype").unwrap_or_else(|| "f32".into());
    match dtype.as_str() {
        "f32" => run_typed_gemm::<f32>(m, k, n, p, iters, cfg, |r, c, s| {
            cake_matrix::init::random::<f32>(r, c, s)
        }),
        "f64" => run_typed_gemm::<f64>(m, k, n, p, iters, cfg, |r, c, s| {
            cake_matrix::init::random::<f64>(r, c, s)
        }),
        "int8" => run_typed_gemm::<i8>(m, k, n, p, iters, cfg, cake_matrix::init::random_i8),
        "bf16" => run_typed_gemm::<cake_matrix::Bf16>(m, k, n, p, iters, cfg, |r, c, s| {
            let f = cake_matrix::init::random::<f32>(r, c, s);
            cake_matrix::Matrix::from_fn(r, c, |i, j| cake_matrix::Bf16::from_f32(f.get(i, j)))
        }),
        other => {
            eprintln!("unknown --dtype '{other}' (expected f32|f64|bf16|int8)");
            std::process::exit(2);
        }
    }
}

/// One timed GEMM at dtype `T`: warmup sizes the pools, then `iters` warm
/// runs keep the best wall time. The result line carries the dtype and the
/// dispatched kernel; `--explain` and `--stats` are dtype-aware too.
fn run_typed_gemm<T>(
    m: usize,
    k: usize,
    n: usize,
    p: usize,
    iters: usize,
    cfg: CakeConfig,
    gen: impl Fn(usize, usize, u64) -> cake_matrix::Matrix<T>,
) where
    T: cake_kernels::select::KernelSelect,
{
    if has_flag("--explain") {
        // Kernel-aware: the decision derives from (and records) the kernel
        // this run will actually dispatch to for this dtype.
        println!("{}", cfg.explain_shape_for::<T>(m, k, n));
    }
    let ctx = CakeGemm::new(cfg);
    let a = gen(m, k, 1);
    let b = gen(k, n, 2);
    let mut c = cake_matrix::Matrix::<T::Acc>::zeros(m, n);

    ctx.gemm(&a, &b, &mut c); // warmup: sizes pool + workspace
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        ctx.gemm(&a, &b, &mut c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    // GOP/s: multiply-accumulate ops regardless of dtype (FLOPs for the
    // float dtypes, integer MACs for int8).
    let gops = 2.0 * (m as f64) * (k as f64) * (n as f64) / best / 1e9;
    println!(
        "GEMM {m}x{k}x{n}, p = {p}, dtype {}, kernel {}: {:.3} ms best of {iters} ({gops:.2} GOP/s)",
        T::NAME,
        ctx.last_stats().kernel,
        best * 1e3
    );
    if has_flag("--stats") {
        println!(
            "  dtype            : {:>12}  ({} B operands, {} B accumulator)",
            T::NAME,
            std::mem::size_of::<T>(),
            std::mem::size_of::<T::Acc>()
        );
        print_exec_stats(&ctx.last_stats());
    }
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    match cmd.as_str() {
        "shape" => cmd_shape(),
        "sim" | "simulate" => cmd_sim(),
        "search" => cmd_search(),
        "tune" => cmd_tune(),
        "traffic" => cmd_traffic(),
        "gemm" => cmd_gemm(),
        "verify" => cmd_verify(),
        "audit" => cmd_audit(),
        _ => {
            eprintln!(
                "usage: cakectl <shape|sim|search|tune|traffic|gemm|verify|audit> [options]\n\
                 see module docs (crates/cake-bench/src/bin/cakectl.rs) for flags"
            );
            std::process::exit(2);
        }
    }
}
