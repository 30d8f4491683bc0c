//! Golden figure-reproduction tests: the discrete-event simulator's
//! p-sweeps on the three Table-2 CPUs must reproduce the *shapes* of the
//! paper's Figures 9–12 and the Eq. 4 flat-vs-growing separation.
//!
//! Every assertion is against a closed form — `cake_core::traffic`'s exact
//! schedule tally or the Eq. 4/5 models — never a hard-coded GFLOP/s or
//! GB/s number, so the gates survive retuning of CPU constants.

use cake::core::model::CakeModel;
use cake::core::schedule::Schedule;
use cake::core::traffic::{dram_traffic, CResidency, TrafficParams};
use cake::goto::model::GotoModel;
use cake::goto::params::GotoParams;
use cake::sim::config::CpuConfig;
use cake::sim::engine::{
    resolve_cake_shape, resolve_goto_params, simulate_cake, simulate_goto, SimParams,
};
use cake::sim::SimReport;

/// One figure-scale problem per Table-2 CPU (the paper used 4608 / 23040 /
/// 3000; the event count scales with the block count, not bytes, so the
/// sweeps stay cheap). The problem must tile the blocks many times over on
/// every p or edge blocks drown the constant-bandwidth signal.
fn problem_of(cpu: &CpuConfig) -> usize {
    match cpu.cores {
        0..=4 => 3000,  // ARM Cortex-A53
        5..=10 => 4608, // Intel i9-10900K
        _ => 9216,      // AMD Ryzen 9 5950X
    }
}

fn p_sweep(cpu: &CpuConfig) -> Vec<usize> {
    (1..=cpu.cores).filter(|p| *p == 1 || *p == cpu.cores || p % 2 == 0).collect()
}

fn cake_sweep(cpu: &CpuConfig) -> Vec<SimReport> {
    let n = problem_of(cpu);
    p_sweep(cpu).iter().map(|&p| simulate_cake(cpu, &SimParams::square(n, p))).collect()
}

fn goto_sweep(cpu: &CpuConfig) -> Vec<SimReport> {
    let n = problem_of(cpu);
    p_sweep(cpu).iter().map(|&p| simulate_goto(cpu, &SimParams::square(n, p))).collect()
}

/// Figures 9b/10a/11a/12a, CAKE series: average DRAM bandwidth stays in a
/// narrow band while p grows to the full part, and tracks the Eq. 4
/// closed form of the resolved shape.
#[test]
fn cake_dram_bandwidth_flat_and_tracks_eq4_on_all_table2_cpus() {
    for cpu in CpuConfig::table2() {
        let n = problem_of(&cpu);
        let reps = cake_sweep(&cpu);
        let bws: Vec<f64> = reps.iter().map(|r| r.avg_dram_bw_gbs).collect();
        let lo = bws.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = bws.iter().cloned().fold(0.0_f64, f64::max);
        assert!(hi / lo < 2.0, "{}: CAKE BW not flat across p: {bws:?}", cpu.name);

        for (rep, &p) in reps.iter().zip(p_sweep(&cpu).iter()) {
            let shape = resolve_cake_shape(&cpu, &SimParams::square(n, p));
            let eq4 = CakeModel::with_mac_rate(
                shape,
                cpu.mr,
                cpu.nr,
                4,
                cpu.freq_ghz,
                cpu.macs_per_cycle_f32,
            )
            .ext_bw_gbs();
            let ratio = rep.avg_dram_bw_gbs / eq4;
            assert!(
                (0.5..=1.6).contains(&ratio),
                "{} p={p}: engine {:.2} GB/s vs Eq.4 {eq4:.2} (x{ratio:.2})",
                cpu.name,
                rep.avg_dram_bw_gbs
            );
        }
    }
}

/// The Eq. 4 separation, engine-observed: GOTO's bandwidth demand grows
/// with p on every part while CAKE's stays flat — and the growth is
/// capped only by the machine's usable DRAM bandwidth (the knee).
#[test]
fn eq4_separation_goto_grows_cake_flat_on_all_table2_cpus() {
    for cpu in CpuConfig::table2() {
        let cake: Vec<f64> = cake_sweep(&cpu).iter().map(|r| r.avg_dram_bw_gbs).collect();
        let goto: Vec<f64> = goto_sweep(&cpu).iter().map(|r| r.avg_dram_bw_gbs).collect();
        let cake_growth = cake.last().unwrap() / cake[0];
        let goto_growth = goto.last().unwrap() / goto[0];
        // GOTO must grow visibly faster than CAKE (separation), unless the
        // machine's knee capped it — in which case it must be *at* the cap.
        let capped = *goto.last().unwrap() > cpu.usable_dram_bw_gbs() * 0.9;
        assert!(
            goto_growth > 1.8 * cake_growth || capped,
            "{}: GOTO x{goto_growth:.2} vs CAKE x{cake_growth:.2}, not separated \
             (goto {goto:?}, cake {cake:?})",
            cpu.name
        );
        // CAKE never saturates the link on any part (the constant-bandwidth
        // property that lets it scale where GOTO starves).
        assert!(
            cake.iter().all(|bw| *bw < cpu.usable_dram_bw_gbs() * 1.05),
            "{}: CAKE saturated DRAM: {cake:?}",
            cpu.name
        );
    }
}

/// Figures 9a/9b: CAKE's speedup is monotone in p (within jitter) on every
/// part; GOTO's speedup is monotone only until the modeled Eq. 5 demand
/// crosses the usable bandwidth — the knee — and degrades past it on the
/// bandwidth-starved ARM part.
#[test]
fn speedup_monotone_until_bandwidth_knee_on_all_table2_cpus() {
    for cpu in CpuConfig::table2() {
        let ps = p_sweep(&cpu);
        let n = problem_of(&cpu);
        let cake: Vec<f64> = cake_sweep(&cpu).iter().map(|r| r.gflops).collect();
        for w in cake.windows(2) {
            assert!(w[1] >= w[0] * 0.98, "{}: CAKE speedup regressed: {cake:?}", cpu.name);
        }

        let goto: Vec<f64> = goto_sweep(&cpu).iter().map(|r| r.gflops).collect();
        for (i, w) in goto.windows(2).enumerate() {
            let p_next = ps[i + 1];
            let params = resolve_goto_params(&cpu, &SimParams::square(n, p_next));
            let demand = GotoModel::with_mac_rate(
                params,
                cpu.mr,
                cpu.nr,
                4,
                cpu.freq_ghz,
                cpu.macs_per_cycle_f32,
            )
            .ext_bw_gbs();
            if demand <= cpu.usable_dram_bw_gbs() {
                // Below the knee GOTO still scales.
                assert!(
                    w[1] >= w[0] * 0.95,
                    "{}: GOTO regressed below its knee (p={p_next}, demand {demand:.1} \
                     of {:.1} GB/s): {goto:?}",
                    cpu.name,
                    cpu.usable_dram_bw_gbs()
                );
            }
        }
        // On the ARM part the knee bites inside the sweep: the last point
        // must fall short of linear scaling by a wide margin while CAKE
        // keeps scaling past it (Figure 9b / 11b).
        if cpu.cores <= 4 {
            let goto_speedup = goto.last().unwrap() / goto[0];
            let cake_speedup = cake.last().unwrap() / cake[0];
            assert!(
                cake_speedup > goto_speedup + 0.5,
                "{}: CAKE x{cake_speedup:.2} should outscale GOTO x{goto_speedup:.2}",
                cpu.name
            );
        }
    }
}

/// The engine's DRAM byte totals equal `cake_core::traffic`'s exact
/// schedule tally for the auto-resolved shape at every swept p — the
/// figure series are the closed forms, u64-exactly, not approximations.
#[test]
fn sweep_traffic_equals_closed_form_tally_on_all_table2_cpus() {
    for cpu in CpuConfig::table2() {
        let n = problem_of(&cpu);
        let wa: u64 = if cpu.write_allocate { 2 } else { 1 };
        for p in p_sweep(&cpu) {
            let sp = SimParams::square(n, p);
            let shape = resolve_cake_shape(&cpu, &sp);
            let rep = simulate_cake(&cpu, &sp);
            let tp = TrafficParams {
                m: n,
                k: n,
                n,
                bm: shape.m_block(),
                bk: shape.k_block(),
                bn: shape.n_block(),
            };
            let t = dram_traffic(Schedule::k_first(tp.grid(), n, n), tp, CResidency::HoldInLlc, 1);
            let closed = (t.a_loads + t.b_loads + t.c_final_writes * wa) * 4;
            assert_eq!(
                rep.dram_bytes, closed,
                "{} p={p}: engine bytes != traffic.rs tally",
                cpu.name
            );
        }
    }
}

/// GOTO's blocking never beats CAKE on the starved part, and the two stay
/// comparable on the desktop parts at full core count (Figures 10b/11b/12b).
#[test]
fn throughput_endpoints_match_figure_stories() {
    for cpu in CpuConfig::table2() {
        let n = problem_of(&cpu);
        let p = cpu.cores;
        let c = simulate_cake(&cpu, &SimParams::square(n, p));
        let g = simulate_goto(&cpu, &SimParams::square(n, p));
        let ratio = c.gflops / g.gflops;
        if cpu.cores <= 4 {
            assert!(ratio > 1.25, "{}: CAKE/GOTO = {ratio:.2}, expected clear win", cpu.name);
        } else {
            assert!((0.8..=1.7).contains(&ratio), "{}: CAKE/GOTO = {ratio:.2}", cpu.name);
        }
        let _ = GotoParams::derive(p, cpu.l2_bytes, cpu.llc_bytes, 4, cpu.mr, cpu.nr);
    }
}
