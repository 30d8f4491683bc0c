//! Figure and table runners, each producing the series the corresponding
//! paper artifact plots, and the printers behind `cakectl fig <id>`, which
//! render them as text and write `results/<name>.csv`.

use std::collections::BTreeSet;
use std::io;

use cake_core::model::CakeModel;
use cake_sim::config::CpuConfig;
use cake_sim::engine::{
    resolve_cake_shape, simulate_cake, simulate_goto, SimParams,
};
use cake_sim::trace::{run_cake_trace, run_goto_trace, stall_breakdown_cycles};

use crate::output::{ascii_chart, f1, f2, render_table, results_dir, write_csv};

/// Vendor-library stand-in name per CPU (the library the paper compared
/// against on that machine; all are GOTO-algorithm implementations).
pub fn vendor_name(cpu: &CpuConfig) -> &'static str {
    if cpu.name.contains("Intel") {
        "MKL(GOTO)"
    } else if cpu.name.contains("AMD") {
        "OpenBLAS(GOTO)"
    } else {
        "ARMPL(GOTO)"
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — memory-level stall / access distribution.
// ---------------------------------------------------------------------------

/// One bar pair of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Memory level / counter name.
    pub level: String,
    /// CAKE's value.
    pub cake: f64,
    /// Vendor (GOTO) value.
    pub vendor: f64,
}

/// Figure 7a: clock ticks stalled per memory level, CAKE vs MKL on the
/// Intel CPU (paper: 10000^3; pass a smaller `n` for quick runs — the
/// distribution is size-stable once working sets exceed the LLC).
pub fn fig7a(n: usize) -> Vec<Fig7Row> {
    let cpu = CpuConfig::intel_i9_10900k();
    let sp = SimParams::square(n, cpu.cores);
    let cake = stall_breakdown_cycles(&run_cake_trace(&cpu, &sp), &cpu);
    let goto = stall_breakdown_cycles(&run_goto_trace(&cpu, &sp), &cpu);
    ["L1", "L2", "L3", "Main Memory"]
        .iter()
        .enumerate()
        .map(|(i, lvl)| Fig7Row {
            level: (*lvl).to_string(),
            cake: cake[i],
            vendor: goto[i],
        })
        .collect()
}

/// Figure 7b: cache hits and DRAM accesses, CAKE vs ARMPL on the ARM CPU
/// (paper: 3000^3).
pub fn fig7b(n: usize) -> Vec<Fig7Row> {
    let cpu = CpuConfig::arm_cortex_a53();
    let sp = SimParams::square(n, cpu.cores);
    let cake = run_cake_trace(&cpu, &sp);
    let goto = run_goto_trace(&cpu, &sp);
    vec![
        Fig7Row {
            level: "L1 Hits".into(),
            cake: cake.l1_hits as f64,
            vendor: goto.l1_hits as f64,
        },
        Fig7Row {
            level: "L2 Hits".into(),
            // The A53's shared L2 is the LLC in our hierarchy.
            cake: (cake.l2_hits + cake.llc_hits) as f64,
            vendor: (goto.l2_hits + goto.llc_hits) as f64,
        },
        Fig7Row {
            level: "DRAM Requests".into(),
            cake: cake.dram_accesses as f64,
            vendor: goto.dram_accesses as f64,
        },
    ]
}

// ---------------------------------------------------------------------------
// Figure 8 — relative throughput contours over (M, K).
// ---------------------------------------------------------------------------

/// One grid point of Figure 8.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Point {
    /// Row extent (`M`; the x-axis value, with `N = M / ratio`).
    pub m: usize,
    /// Reduction extent (y axis).
    pub k: usize,
    /// CAKE throughput / vendor throughput.
    pub ratio: f64,
}

/// Figure 8 panel for `M = ratio * N` (ratio in {1, 2, 4, 8}): relative
/// CAKE/MKL throughput on the Intel CPU over the (M, K) grid in `sizes`.
pub fn fig8_panel(ratio_mn: usize, sizes: &[usize]) -> Vec<Fig8Point> {
    assert!(ratio_mn >= 1);
    let cpu = CpuConfig::intel_i9_10900k();
    let mut out = Vec::with_capacity(sizes.len() * sizes.len());
    for &m in sizes {
        let n = (m / ratio_mn).max(1);
        for &k in sizes {
            let mut sp = SimParams::new(m, k, n, cpu.cores);
            sp.elem_bytes = 4;
            let c = simulate_cake(&cpu, &sp);
            let g = simulate_goto(&cpu, &sp);
            out.push(Fig8Point {
                m,
                k,
                ratio: c.gflops / g.gflops.max(1e-12),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9 — speedup vs cores for square matrices.
// ---------------------------------------------------------------------------

/// One point of a Figure 9 speedup curve.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupRow {
    /// Matrix side (`M = N = K`).
    pub size: usize,
    /// Cores used.
    pub p: usize,
    /// CAKE speedup over its own single-core run.
    pub cake: f64,
    /// Vendor (GOTO) speedup over its own single-core run.
    pub vendor: f64,
}

/// Figure 9 speedup curves (`t_p / t_1` per algorithm) on `cpu` for the
/// given square sizes.
pub fn fig9(cpu: &CpuConfig, sizes: &[usize]) -> Vec<SpeedupRow> {
    let mut out = Vec::new();
    for &size in sizes {
        let c1 = simulate_cake(cpu, &SimParams::square(size, 1)).gflops;
        let g1 = simulate_goto(cpu, &SimParams::square(size, 1)).gflops;
        for p in 1..=cpu.cores {
            let cp = simulate_cake(cpu, &SimParams::square(size, p)).gflops;
            let gp = simulate_goto(cpu, &SimParams::square(size, p)).gflops;
            out.push(SpeedupRow {
                size,
                p,
                cake: cp / c1,
                vendor: gp / g1,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 10 / 11 / 12 — the three-panel scaling studies.
// ---------------------------------------------------------------------------

/// One core-count row of a scaling study (panels a, b, c of Figures
/// 10/11/12).
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Cores used.
    pub p: usize,
    /// `true` for the dashed extrapolated region (`p` beyond the physical
    /// core count, assuming linear internal BW + quadratic local memory).
    pub extrapolated: bool,
    /// Panel (a): CAKE observed average DRAM bandwidth, GB/s.
    pub cake_dram_bw: f64,
    /// Panel (a): vendor observed average DRAM bandwidth, GB/s.
    pub vendor_dram_bw: f64,
    /// Panel (a): CAKE theoretically optimal DRAM bandwidth (Eq. 4), GB/s.
    pub cake_optimal_bw: f64,
    /// Panel (b): CAKE throughput, GFLOP/s.
    pub cake_gflops: f64,
    /// Panel (b): vendor throughput, GFLOP/s.
    pub vendor_gflops: f64,
    /// Panel (c): internal bandwidth (measured curve inside the physical
    /// range, linear extrapolation beyond), GB/s.
    pub internal_bw: f64,
}

/// Run the three-panel scaling study on `cpu` for an `n^3` problem,
/// measuring `p = 1..=cpu.cores` and extrapolating to `p_max`.
pub fn scaling_study(cpu: &CpuConfig, n: usize, p_max: usize) -> Vec<ScalingRow> {
    let mut out = Vec::new();
    for p in 1..=p_max {
        let extrapolated = p > cpu.cores;
        let mut sp = SimParams::square(n, p);
        if extrapolated {
            // Paper's extrapolation assumptions: internal BW keeps growing
            // linearly per core, local memory grows quadratically, DRAM
            // bandwidth stays fixed.
            sp.internal_bw_gbs_override = Some(cpu.internal_bw.extrapolated(p));
            let scale = (p as f64 / cpu.cores as f64).powi(2);
            sp.llc_bytes_override = Some((cpu.llc_bytes as f64 * scale) as usize);
        }
        let cake = simulate_cake(cpu, &sp);
        let goto = simulate_goto(cpu, &sp);

        let shape = resolve_cake_shape(cpu, &sp);
        let model = CakeModel::with_mac_rate(
            shape,
            cpu.mr,
            cpu.nr,
            sp.elem_bytes,
            cpu.freq_ghz,
            cpu.macs_per_cycle_f32,
        );

        out.push(ScalingRow {
            p,
            extrapolated,
            cake_dram_bw: cake.avg_dram_bw_gbs,
            vendor_dram_bw: goto.avg_dram_bw_gbs,
            cake_optimal_bw: model.ext_bw_gbs(),
            cake_gflops: cake.gflops,
            vendor_gflops: goto.gflops,
            internal_bw: if extrapolated {
                cpu.internal_bw.extrapolated(p)
            } else {
                cpu.internal_bw_gbs(p)
            },
        });
    }
    out
}

// ---------------------------------------------------------------------------
// `sim` — the p-sweeps of Figures 9–12 as one table.
// ---------------------------------------------------------------------------

/// One simulated core count of the `sim` sweep: both schedules on one
/// Table-2 CPU.
#[derive(Debug, Clone)]
pub struct SimSweepRow {
    /// Table-2 CPU name.
    pub cpu: String,
    /// Square problem side.
    pub n: usize,
    /// Simulated core count.
    pub p: usize,
    /// CAKE throughput, GFLOP/s.
    pub cake_gflops: f64,
    /// CAKE average DRAM bandwidth, GB/s.
    pub cake_dram_gbs: f64,
    /// GOTO throughput, GFLOP/s.
    pub goto_gflops: f64,
    /// GOTO average DRAM bandwidth, GB/s.
    pub goto_dram_gbs: f64,
    /// CAKE DRAM traffic, bytes (equal to the `cake_core::traffic` tally).
    pub cake_dram_bytes: u64,
    /// GOTO DRAM traffic, bytes.
    pub goto_dram_bytes: u64,
    /// Discrete events of the two runs combined.
    pub events: u64,
}

/// CAKE vs GOTO on each Table-2 CPU at `p` in `{1, cores/4, cores/2,
/// cores}`, on a square problem sized to the part (3000, 4608 or 9216).
/// No wall clock is involved, so the rows are identical on every host.
pub fn sim_sweep() -> Vec<SimSweepRow> {
    let mut out = Vec::new();
    for cpu in CpuConfig::table2() {
        let n = match cpu.cores {
            0..=4 => 3000,
            5..=10 => 4608,
            _ => 9216,
        };
        let ps: BTreeSet<usize> =
            [1, cpu.cores / 4, cpu.cores / 2, cpu.cores].into_iter().filter(|&p| p >= 1).collect();
        for p in ps {
            let sp = SimParams::square(n, p);
            let c = simulate_cake(&cpu, &sp);
            let g = simulate_goto(&cpu, &sp);
            out.push(SimSweepRow {
                cpu: cpu.name.clone(),
                n,
                p,
                cake_gflops: c.gflops,
                cake_dram_gbs: c.avg_dram_bw_gbs,
                goto_gflops: g.gflops,
                goto_dram_gbs: g.avg_dram_bw_gbs,
                cake_dram_bytes: c.dram_bytes,
                goto_dram_bytes: g.dram_bytes,
                events: c.events + g.events,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// `cakectl fig` — printers and CSV writers.
// ---------------------------------------------------------------------------

/// Figure ids `cakectl fig` accepts besides `all`, in the order `all`
/// runs them.
pub const FIGURE_IDS: [&str; 8] =
    ["table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "sim"];

/// Options of one `cakectl fig` run; `None` / `false` keeps the default.
#[derive(Debug, Clone, Default)]
pub struct FigOptions {
    /// Panels of `fig7` / `fig9` to run: any of `a` and `b` (default both).
    pub part: Option<String>,
    /// Problem side of `fig10` (default 23040), `fig11` (3000) or `fig12`
    /// (23040).
    pub n: Option<usize>,
    /// `fig7` at the paper's sizes (10000 / 3000) instead of 3072 / 1200.
    pub full: bool,
    /// `fig8`'s grid step (default 1000; at least 125).
    pub step: Option<usize>,
}

/// Check `id` and `opts` before anything runs. `Err` names the valid
/// figure ids, part letters, or the figures an option applies to.
pub fn check_figure_args(id: &str, opts: &FigOptions) -> Result<(), String> {
    if id != "all" && !FIGURE_IDS.contains(&id) {
        return Err(format!("unknown figure '{id}' (expected {}|all)", FIGURE_IDS.join("|")));
    }
    let applies = |given: bool, ids: &[&str], flag: &str| {
        if given && !ids.contains(&id) {
            Err(format!("{flag} applies to {} only, not {id}", ids.join(", ")))
        } else {
            Ok(())
        }
    };
    applies(opts.part.is_some(), &["fig7", "fig9"], "--part")?;
    applies(opts.n.is_some(), &["fig10", "fig11", "fig12"], "--n")?;
    applies(opts.full, &["fig7"], "--full")?;
    applies(opts.step.is_some(), &["fig8"], "--step")?;
    match opts.part.as_deref() {
        Some(part) if part.is_empty() || part.chars().any(|c| c != 'a' && c != 'b') => {
            Err(format!("unknown --part '{part}' for {id} (expected a, b or ab)"))
        }
        _ => Ok(()),
    }
}

/// Print figure `id` (or every figure, for `all`) and write its CSVs to
/// [`crate::output::results_dir`]. Call [`check_figure_args`] first.
pub fn print_figure(id: &str, opts: &FigOptions) -> io::Result<()> {
    let part = opts.part.as_deref().unwrap_or("ab");
    match id {
        "all" => FIGURE_IDS.iter().try_for_each(|id| print_figure(id, &FigOptions::default())),
        "table2" => print_table2(),
        "fig7" => print_fig7(part, opts.full),
        "fig8" => print_fig8(opts.step.unwrap_or(1000)),
        "fig9" => print_fig9(part),
        "fig10" => print_scaling(10, &CpuConfig::intel_i9_10900k(), opts.n.unwrap_or(23040)),
        "fig11" => print_scaling(11, &CpuConfig::arm_cortex_a53(), opts.n.unwrap_or(3000)),
        "fig12" => print_scaling(12, &CpuConfig::amd_ryzen_9_5950x(), opts.n.unwrap_or(23040)),
        "sim" => print_sim(),
        _ => Err(io::Error::new(io::ErrorKind::InvalidInput, format!("unknown figure '{id}'"))),
    }
}

/// Write `<results dir>/<name>.csv` and say where it went.
fn save(name: &str, header: &str, rows: &[String]) -> io::Result<()> {
    let path = write_csv(&results_dir(), name, header, rows)?;
    println!("wrote {}\n", path.display());
    Ok(())
}

fn print_table2() -> io::Result<()> {
    let header = [
        "CPU", "L1", "L2", "L3", "DRAM", "Cores", "DRAM BW (GB/s)", "Freq (GHz)",
    ];
    let rows: Vec<Vec<String>> = CpuConfig::table2()
        .iter()
        .map(|c| {
            // The A53 has no L3: its shared 512 KiB L2 is the LLC (Table 2
            // prints it in the L2 column with L3 = N/A).
            let (l2, l3) = if c.name.contains("ARM") {
                (format!("{} KiB", c.llc_bytes / 1024), "N/A".to_string())
            } else {
                (format!("{} KiB", c.l2_bytes / 1024), format!("{} MiB", c.llc_bytes / 1024 / 1024))
            };
            vec![
                c.name.clone(),
                format!("{} KiB", c.l1_bytes / 1024),
                l2,
                l3,
                format!("{} GB", c.dram_bytes / 1024 / 1024 / 1024),
                c.cores.to_string(),
                f1(c.dram_bw_gbs),
                f1(c.freq_ghz),
            ]
        })
        .collect();
    println!("Table 2: CPUs used in CAKE evaluation\n");
    println!("{}", render_table(&header, &rows));
    let csv: Vec<String> = rows.iter().map(|r| r.join(",")).collect();
    save("table2", &header.join(","), &csv)
}

fn print_fig7(part: &str, full: bool) -> io::Result<()> {
    let panels = [
        ('a', if full { 10000 } else { 3072 }),
        ('b', if full { 3000 } else { 1200 }),
    ];
    for (panel, n) in panels.into_iter().filter(|(panel, _)| part.contains(*panel)) {
        let (rows, header, csv_header) = if panel == 'a' {
            println!("Figure 7a: memory request stalls on Intel i9 ({n}x{n}, 10 cores)\n");
            (
                fig7a(n),
                ["level", "CAKE (stall cycles)", "MKL (stall cycles)"],
                "level,cake_stall_cycles,mkl_stall_cycles",
            )
        } else {
            println!("Figure 7b: cache and DRAM accesses on ARM ({n}x{n}, 4 cores)\n");
            (fig7b(n), ["counter", "CAKE", "ARMPL"], "counter,cake,armpl")
        };
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.level.clone(), format!("{:.3e}", r.cake), format!("{:.3e}", r.vendor)])
            .collect();
        println!("{}", render_table(&header, &table));
        let csv: Vec<String> =
            rows.iter().map(|r| format!("{},{},{}", r.level, r.cake, r.vendor)).collect();
        save(&format!("fig7{panel}"), csv_header, &csv)?;
    }
    Ok(())
}

fn print_fig8(step: usize) -> io::Result<()> {
    let sizes: Vec<usize> = (1..=8).map(|i| i * step.max(125)).collect();
    for ratio in [1usize, 2, 4, 8] {
        println!("Figure 8: relative throughput for M = {ratio}N (Intel i9, 10 cores)");
        let pts = fig8_panel(ratio, &sizes);
        // The contour grid as text: rows = K (descending), cols = M.
        let mut grid = format!("{:>8} |", "K \\ M");
        for &m in &sizes {
            grid.push_str(&format!("{m:>7}"));
        }
        grid.push_str(&format!("\n{}\n", "-".repeat(10 + 7 * sizes.len())));
        for &k in sizes.iter().rev() {
            grid.push_str(&format!("{k:>8} |"));
            for pt in sizes.iter().filter_map(|&m| pts.iter().find(|p| p.m == m && p.k == k)) {
                grid.push_str(&format!("{:>7.2}", pt.ratio));
            }
            grid.push('\n');
        }
        print!("{grid}");
        // Contour legend matching the paper's shading levels.
        let count = |lo: f64| pts.iter().filter(|p| p.ratio >= lo).count();
        println!(
            "points >= 1.00x: {}   >= 1.25x: {}   >= 1.50x: {}   >= 2.00x: {}\n",
            count(1.0),
            count(1.25),
            count(1.5),
            count(2.0)
        );
        let csv: Vec<String> =
            pts.iter().map(|p| format!("{},{},{:.4}", p.m, p.k, p.ratio)).collect();
        save(&format!("fig8_m{ratio}n"), "m,k,cake_over_mkl", &csv)?;
    }
    Ok(())
}

fn print_fig9(part: &str) -> io::Result<()> {
    let sizes = [1000usize, 2000, 3000];
    let panels = [('a', CpuConfig::intel_i9_10900k()), ('b', CpuConfig::arm_cortex_a53())];
    for (panel, cpu) in panels.into_iter().filter(|(panel, _)| part.contains(*panel)) {
        println!(
            "Figure 9{panel}: speedup for square matrices, CAKE vs {} on {}\n",
            vendor_name(&cpu),
            cpu.name
        );
        let rows = fig9(&cpu, &sizes);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.size.to_string(), r.p.to_string(), f2(r.cake), f2(r.vendor)])
            .collect();
        println!(
            "{}",
            render_table(&["M=N=K", "cores", "CAKE speedup", "vendor speedup"], &table)
        );
        let csv: Vec<String> = rows
            .iter()
            .map(|r| format!("{},{},{:.4},{:.4}", r.size, r.p, r.cake, r.vendor))
            .collect();
        save(&format!("fig9{panel}"), "size,p,cake_speedup,vendor_speedup", &csv)?;
    }
    Ok(())
}

/// Figures 10–12: one printer for the three CPUs. Figure 12 (AMD) plots
/// no Eq. 4 optimal series, so its table and CSV omit that column.
fn print_scaling(figure: usize, cpu: &CpuConfig, n: usize) -> io::Result<()> {
    let vendor = vendor_name(cpu).trim_end_matches("(GOTO)");
    let optimal = !cpu.name.contains("AMD");
    println!("Figure {figure}: CAKE vs {vendor} on {}, {n}x{n}x{n} MM\n", cpu.name);
    let rows = scaling_study(cpu, n, 2 * cpu.cores);
    // Panel (a)'s bandwidth columns; panel (b) and (c) follow.
    let bandwidths = |r: &ScalingRow| {
        let mut bws = vec![r.cake_dram_bw, r.vendor_dram_bw];
        bws.extend(optimal.then_some(r.cake_optimal_bw));
        bws
    };

    let mut header = vec![
        "p".to_string(),
        "extrap".into(),
        "CAKE DRAM GB/s".into(),
        format!("{vendor} DRAM GB/s"),
    ];
    header.extend(optimal.then(|| "CAKE optimal GB/s".to_string()));
    header.extend(["CAKE GFLOP/s".into(), format!("{vendor} GFLOP/s"), "internal GB/s".into()]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.p.to_string(), if r.extrapolated { "yes" } else { "" }.into()];
            row.extend(bandwidths(r).into_iter().map(f2));
            row.extend([r.cake_gflops, r.vendor_gflops, r.internal_bw].map(f2));
            row
        })
        .collect();
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header, &table));

    // Terminal plots of panels (a) and (b).
    let pts = |f: fn(&ScalingRow) -> f64| -> Vec<(f64, f64)> {
        rows.iter().map(|r| (r.p as f64, f(r))).collect()
    };
    println!(
        "{}",
        ascii_chart(
            "Panel (a): avg DRAM bandwidth (GB/s) vs cores",
            &[("CAKE", pts(|r| r.cake_dram_bw)), (vendor, pts(|r| r.vendor_dram_bw))],
            12
        )
    );
    println!(
        "{}",
        ascii_chart(
            "Panel (b): computation throughput (GFLOP/s) vs cores",
            &[("CAKE", pts(|r| r.cake_gflops)), (vendor, pts(|r| r.vendor_gflops))],
            12
        )
    );

    let v = vendor.to_lowercase();
    let optimal_col = if optimal { ",cake_optimal_gbs" } else { "" };
    let csv_header = format!(
        "p,extrapolated,cake_dram_gbs,{v}_dram_gbs{optimal_col},cake_gflops,{v}_gflops,internal_gbs"
    );
    let csv: Vec<String> = rows
        .iter()
        .map(|r| {
            let bws: Vec<String> = bandwidths(r).iter().map(|x| format!("{x:.3}")).collect();
            format!(
                "{},{},{},{:.2},{:.2},{:.1}",
                r.p,
                r.extrapolated,
                bws.join(","),
                r.cake_gflops,
                r.vendor_gflops,
                r.internal_bw
            )
        })
        .collect();
    save(&format!("fig{figure}"), &csv_header, &csv)
}

fn print_sim() -> io::Result<()> {
    println!("Simulated p-sweeps, CAKE vs GOTO on the Table-2 CPUs (discrete-event engine)\n");
    let rows = sim_sweep();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cpu.clone(),
                r.n.to_string(),
                r.p.to_string(),
                f2(r.cake_gflops),
                f2(r.cake_dram_gbs),
                f2(r.goto_gflops),
                f2(r.goto_dram_gbs),
                r.events.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "CPU", "n", "p", "CAKE GFLOP/s", "CAKE DRAM GB/s", "GOTO GFLOP/s", "GOTO DRAM GB/s",
                "events"
            ],
            &table
        )
    );
    let csv: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{:.3},{:.3},{:.3},{:.3},{},{},{}",
                r.cpu,
                r.n,
                r.p,
                r.cake_gflops,
                r.cake_dram_gbs,
                r.goto_gflops,
                r.goto_dram_gbs,
                r.cake_dram_bytes,
                r.goto_dram_bytes,
                r.events
            )
        })
        .collect();
    save(
        "sim",
        "cpu,n,p,cake_gflops,cake_dram_gbs,goto_gflops,goto_dram_gbs,cake_dram_bytes,\
         goto_dram_bytes,events",
        &csv,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_shape_cake_less_dram_stall() {
        let rows = fig7a(2304);
        assert_eq!(rows.len(), 4);
        let dram = rows.iter().find(|r| r.level == "Main Memory").unwrap();
        assert!(dram.cake < dram.vendor, "cake {} vendor {}", dram.cake, dram.vendor);
    }

    #[test]
    fn fig7b_shape_vendor_more_dram_requests() {
        let rows = fig7b(1000);
        let dram = rows.iter().find(|r| r.level == "DRAM Requests").unwrap();
        assert!(dram.vendor > 1.5 * dram.cake);
        let l1 = &rows[0];
        assert!(l1.cake > 0.0 && l1.vendor > 0.0);
    }

    #[test]
    fn fig8_small_m_favors_cake() {
        // GOTO leaves cores idle when M < p * mc; CAKE shrinks its strips.
        let pts = fig8_panel(1, &[1000, 4000]);
        let small = pts.iter().find(|p| p.m == 1000 && p.k == 1000).unwrap();
        let large = pts.iter().find(|p| p.m == 4000 && p.k == 4000).unwrap();
        assert!(small.ratio > 1.2, "small-size ratio {}", small.ratio);
        assert!(small.ratio > large.ratio);
        // At large sizes the two are comparable (within ~25%).
        assert!((0.75..1.35).contains(&large.ratio), "large {}", large.ratio);
    }

    #[test]
    fn fig9_speedups_monotone_and_cake_wins_on_arm() {
        let cpu = CpuConfig::arm_cortex_a53();
        let rows = fig9(&cpu, &[2000]);
        assert_eq!(rows.len(), 4);
        assert!((rows[0].cake - 1.0).abs() < 1e-9);
        for w in rows.windows(2) {
            assert!(w[1].cake >= w[0].cake * 0.99);
        }
        let last = rows.last().unwrap();
        assert!(last.cake > last.vendor, "cake {} vendor {}", last.cake, last.vendor);
    }

    #[test]
    fn fig10_cake_bw_flat_and_below_vendor() {
        let rows = scaling_study(&CpuConfig::intel_i9_10900k(), 4608, 20);
        let measured: Vec<&ScalingRow> = rows.iter().filter(|r| !r.extrapolated).collect();
        assert_eq!(measured.len(), 10);
        // Panel (a): CAKE flat; vendor grows.
        let c1 = measured[0].cake_dram_bw;
        let c10 = measured[9].cake_dram_bw;
        assert!(c10 / c1 < 2.0);
        assert!(measured[9].vendor_dram_bw > 2.0 * measured[9].cake_dram_bw);
        // Optimal curve is p-independent.
        let o: Vec<f64> = measured.iter().map(|r| r.cake_optimal_bw).collect();
        assert!(o.iter().all(|&x| (x - o[0]).abs() / o[0] < 0.25), "{o:?}");
        // Panel (b): throughput grows with cores.
        assert!(measured[9].cake_gflops > 5.0 * measured[0].cake_gflops);
    }

    #[test]
    fn fig11_arm_vendor_plateaus() {
        let rows = scaling_study(&CpuConfig::arm_cortex_a53(), 3000, 8);
        let measured: Vec<&ScalingRow> = rows.iter().filter(|r| !r.extrapolated).collect();
        let v1 = measured[0].vendor_gflops;
        let v4 = measured[3].vendor_gflops;
        let c4 = measured[3].cake_gflops;
        // Vendor scales sub-linearly (DRAM starved), CAKE clearly better.
        assert!(v4 / v1 < 3.2, "vendor speedup {}", v4 / v1);
        assert!(c4 > 1.2 * v4, "cake {c4} vendor {v4}");
    }

    #[test]
    fn extrapolated_rows_marked_and_scaling() {
        let rows = scaling_study(&CpuConfig::arm_cortex_a53(), 1500, 8);
        assert_eq!(rows.len(), 8);
        assert!(rows[4..].iter().all(|r| r.extrapolated));
        assert!(rows[..4].iter().all(|r| !r.extrapolated));
        // Extrapolated internal BW is linear in p across the dashed region.
        let slope = rows[5].internal_bw - rows[4].internal_bw;
        assert!((rows[7].internal_bw - rows[4].internal_bw - 3.0 * slope).abs() < 1e-9);
        assert!(slope > 0.0);
    }

    #[test]
    fn vendor_names() {
        assert_eq!(vendor_name(&CpuConfig::intel_i9_10900k()), "MKL(GOTO)");
        assert_eq!(vendor_name(&CpuConfig::amd_ryzen_9_5950x()), "OpenBLAS(GOTO)");
        assert_eq!(vendor_name(&CpuConfig::arm_cortex_a53()), "ARMPL(GOTO)");
    }
}
