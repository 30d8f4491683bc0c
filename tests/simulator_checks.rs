//! End-to-end simulator checks: engine vs analytical model vs paper claims.

use cake::core::model::{cb_min_ext_bw_tiles, CakeModel};
use cake::core::shape::CbBlockShape;
use cake::goto::model::GotoModel;
use cake::goto::params::GotoParams;
use cake::sim::config::CpuConfig;
use cake::sim::engine::{
    lower_cake, lower_goto, resolve_cake_shape, resolve_goto_params, simulate_cake,
    simulate_cake_with_shape, simulate_goto, SimParams,
};
use cake::sim::machine::StepLoad;
use cake::sim::SimReport;

#[test]
fn cake_dram_bw_tracks_eq4_within_20_percent() {
    // The engine's observed average bandwidth for a large compute-bound
    // run must sit near the Eq. 4 closed form (it can only differ through
    // edge blocks and the final C writes Eq. 4 ignores).
    let cpu = CpuConfig::intel_i9_10900k();
    for p in [2usize, 4, 8] {
        let sp = SimParams::square(4608, p);
        let shape = resolve_cake_shape(&cpu, &sp);
        let rep = simulate_cake_with_shape(&cpu, &sp, &shape);
        let model = CakeModel::with_mac_rate(shape, cpu.mr, cpu.nr, 4, cpu.freq_ghz, cpu.macs_per_cycle_f32);
        let ratio = rep.avg_dram_bw_gbs / model.ext_bw_gbs();
        assert!(
            (0.8..=1.25).contains(&ratio),
            "p={p}: engine {:.2} vs Eq.4 {:.2}",
            rep.avg_dram_bw_gbs,
            model.ext_bw_gbs()
        );
    }
}

#[test]
fn goto_bw_model_grows_and_engine_agrees_in_trend() {
    let cpu = CpuConfig::intel_i9_10900k();
    let mut last_model = 0.0;
    let mut last_engine = 0.0;
    for p in [2usize, 4, 8] {
        let params = GotoParams::derive(p, cpu.l2_bytes, cpu.llc_bytes, 4, cpu.mr, cpu.nr);
        let model = GotoModel::with_mac_rate(params, cpu.mr, cpu.nr, 4, cpu.freq_ghz, cpu.macs_per_cycle_f32);
        let engine = simulate_goto(&cpu, &SimParams::square(4608, p));
        assert!(model.ext_bw_gbs() > last_model);
        assert!(engine.avg_dram_bw_gbs > last_engine);
        last_model = model.ext_bw_gbs();
        last_engine = engine.avg_dram_bw_gbs;
    }
}

#[test]
fn section3_claim_bw_constant_while_volume_grows() {
    // Figure 4's message: doubling p doubles block volume and compute
    // throughput at identical minimum external bandwidth (tile units).
    let k = 4;
    let bw16 = cb_min_ext_bw_tiles(k, 1.0);
    let bw32 = cb_min_ext_bw_tiles(k, 1.0); // independent of p by formula
    assert_eq!(bw16, bw32);
    // Volume p^2*k^3 quadruples when p doubles (Figure 4's (b) -> (c)).
    let vol = |p: usize| CbBlockShape::fixed(p, k, k, p * k).block_macs();
    assert_eq!(vol(32), 4 * vol(16));
}

#[test]
fn paper_headline_arm_throughput_shape() {
    // Figure 11b: CAKE ~2.8 GFLOP/s at 1 core scaling to ~10.5-11 at 4;
    // ARMPL stuck near 7-8.
    let cpu = CpuConfig::arm_cortex_a53();
    let c1 = simulate_cake(&cpu, &SimParams::square(3000, 1));
    let c4 = simulate_cake(&cpu, &SimParams::square(3000, 4));
    let g4 = simulate_goto(&cpu, &SimParams::square(3000, 4));
    assert!((2.0..3.5).contains(&c1.gflops), "c1 = {}", c1.gflops);
    assert!((9.0..11.5).contains(&c4.gflops), "c4 = {}", c4.gflops);
    assert!(c4.gflops / g4.gflops > 1.25, "ratio {}", c4.gflops / g4.gflops);
}

#[test]
fn paper_headline_intel_parity_at_scale() {
    // Figure 10b: CAKE within a few percent of MKL at 10 cores for the
    // large square problem, with far lower DRAM bandwidth (10a).
    let cpu = CpuConfig::intel_i9_10900k();
    let c = simulate_cake(&cpu, &SimParams::square(11520, 10));
    let g = simulate_goto(&cpu, &SimParams::square(11520, 10));
    let tput_ratio = c.gflops / g.gflops;
    assert!((0.9..=1.15).contains(&tput_ratio), "throughput ratio {tput_ratio:.3}");
    assert!(
        g.avg_dram_bw_gbs > 5.0 * c.avg_dram_bw_gbs,
        "MKL {:.1} GB/s vs CAKE {:.1} GB/s",
        g.avg_dram_bw_gbs,
        c.avg_dram_bw_gbs
    );
}

#[test]
fn speedup_definition_matches_figure9() {
    // Speedup is throughput_p / throughput_1 == t_1 / t_p for fixed work.
    let cpu = CpuConfig::arm_cortex_a53();
    let r1 = simulate_cake(&cpu, &SimParams::square(2000, 1));
    let r2 = simulate_cake(&cpu, &SimParams::square(2000, 2));
    let by_gflops = r2.gflops / r1.gflops;
    let by_time = r1.seconds / r2.seconds;
    assert!((by_gflops - by_time).abs() < 1e-9);
    assert!(by_gflops > 1.5);
}

#[test]
fn simulator_results_are_deterministic() {
    let cpu = CpuConfig::amd_ryzen_9_5950x();
    let a = simulate_cake(&cpu, &SimParams::square(3072, 8));
    let b = simulate_cake(&cpu, &SimParams::square(3072, 8));
    assert_eq!(a.seconds, b.seconds);
    assert_eq!(a.dram_bytes, b.dram_bytes);
}

#[test]
fn llc_override_scales_block_and_cuts_traffic() {
    let cpu = CpuConfig::intel_i9_10900k();
    let mut small = SimParams::square(4608, 8);
    small.llc_bytes_override = Some(cpu.llc_bytes / 4);
    let mut large = SimParams::square(4608, 8);
    large.llc_bytes_override = Some(cpu.llc_bytes * 4);
    let shape_small = resolve_cake_shape(&cpu, &small);
    let shape_large = resolve_cake_shape(&cpu, &large);
    // Bigger LLC -> taller/wider CB block (until the L2 bound).
    assert!(shape_large.local_footprint() >= shape_small.local_footprint());
    let t_small = simulate_cake(&cpu, &small).dram_bytes;
    let t_large = simulate_cake(&cpu, &large).dram_bytes;
    assert!(t_large <= t_small);
}

// ---------------------------------------------------------------------------
// Differential checks: discrete-event engine vs a closed-form oracle over
// the per-step loads the event machine plays out.
// ---------------------------------------------------------------------------

/// Every `SimParams` case exercised above, as (cpu, params) pairs.
fn all_cases() -> Vec<(CpuConfig, SimParams)> {
    let intel = CpuConfig::intel_i9_10900k();
    let amd = CpuConfig::amd_ryzen_9_5950x();
    let arm = CpuConfig::arm_cortex_a53();
    let mut cases = vec![
        (intel.clone(), SimParams::square(4608, 2)),
        (intel.clone(), SimParams::square(4608, 4)),
        (intel.clone(), SimParams::square(4608, 8)),
        (intel.clone(), SimParams::square(11520, 10)),
        (arm.clone(), SimParams::square(3000, 1)),
        (arm.clone(), SimParams::square(3000, 4)),
        (arm.clone(), SimParams::square(2000, 1)),
        (arm, SimParams::square(2000, 2)),
        (amd, SimParams::square(3072, 8)),
    ];
    let mut small = SimParams::square(4608, 8);
    small.llc_bytes_override = Some(intel.llc_bytes / 4);
    let mut large = SimParams::square(4608, 8);
    large.llc_bytes_override = Some(intel.llc_bytes * 4);
    cases.push((intel.clone(), small));
    cases.push((intel, large));
    cases
}

/// The closed-form oracle over one lowered step stream: each step costs
/// the slowest of its compute, DRAM and internal times (double buffering
/// applied as arithmetic instead of event causality), and every counter
/// is the sum over the steps. `roofline` is the busiest resource's total,
/// a physical lower bound no schedule of these loads can beat.
struct ClosedForm {
    seconds: f64,
    roofline: f64,
    dram_bytes: u64,
    int_bytes: u64,
    macs: u64,
    steps: usize,
}

fn closed_form(cpu: &CpuConfig, sp: &SimParams, loads: &[StepLoad]) -> ClosedForm {
    let mac_rate = cpu.macs_per_cycle_f32 * cpu.freq_ghz * 1e9;
    let dram_bw = cpu.usable_dram_bw_gbs() * 1e9;
    let int_bw = sp.internal_bw_gbs_override.unwrap_or_else(|| cpu.internal_bw_gbs(sp.p)) * 1e9;
    let (mut seconds, mut compute, mut dram, mut internal) = (0.0, 0.0, 0.0, 0.0);
    for ld in loads {
        let t_compute = ld.macs as f64 / (ld.active.max(1) as f64 * mac_rate);
        let t_dram = (ld.ext_read_bytes + ld.ext_write_bytes) as f64 / dram_bw;
        let t_internal = ld.int_bytes as f64 / int_bw;
        seconds += t_compute.max(t_dram).max(t_internal);
        compute += t_compute;
        dram += t_dram;
        internal += t_internal;
    }
    ClosedForm {
        seconds,
        roofline: f64::max(compute, dram.max(internal)),
        dram_bytes: loads.iter().map(|l| l.ext_read_bytes + l.ext_write_bytes).sum(),
        int_bytes: loads.iter().map(|l| l.int_bytes).sum(),
        macs: loads.iter().map(|l| l.macs).sum(),
        steps: loads.len(),
    }
}

/// The event engine's report next to the closed-form oracle over the
/// same lowering, for both schedules.
fn event_and_oracle(cpu: &CpuConfig, sp: &SimParams) -> [(SimReport, ClosedForm); 2] {
    let cake_loads = lower_cake(cpu, sp, &resolve_cake_shape(cpu, sp));
    let goto_loads = lower_goto(cpu, sp, &resolve_goto_params(cpu, sp));
    [
        (simulate_cake(cpu, sp), closed_form(cpu, sp, &cake_loads)),
        (simulate_goto(cpu, sp), closed_form(cpu, sp, &goto_loads)),
    ]
}

#[test]
fn event_engine_traffic_equals_closed_form_oracle_u64_exactly() {
    // The event machine plays out the same lowered `StepLoad` stream the
    // oracle sums, so every traffic and work counter must agree
    // bit-for-bit on every case this file exercises, for both schedules.
    for (cpu, sp) in all_cases() {
        for (ev, cf) in event_and_oracle(&cpu, &sp) {
            let case = format!("{} {} {sp:?}", cpu.name, ev.algo);
            assert_eq!(ev.dram_bytes, cf.dram_bytes, "{case}: dram bytes");
            assert_eq!(ev.int_bytes, cf.int_bytes, "{case}: int bytes");
            assert_eq!(ev.macs, cf.macs, "{case}: macs");
            assert_eq!(ev.steps, cf.steps, "{case}: steps");
        }
    }
}

#[test]
fn event_engine_cycle_counts_near_closed_form_oracle() {
    // Timing is where the engine and the oracle legitimately differ: the
    // oracle takes a per-step max(compute, dram, internal) while the event
    // core plays out causality (read-ahead, posted writes, barrier edges,
    // clock-divider rounding). The documented differential tolerance is
    // 30% (see DESIGN.md §11). The event time also cannot beat the
    // busiest resource's total: a machine that moves bytes faster than
    // the configured channel trips that bound even inside the 30% band.
    for (cpu, sp) in all_cases() {
        for (ev, cf) in event_and_oracle(&cpu, &sp) {
            let case = format!("{} {} {sp:?}", cpu.name, ev.algo);
            let ratio = ev.seconds / cf.seconds;
            assert!(
                (0.70..=1.30).contains(&ratio),
                "{case}: event {:.6}s vs closed-form {:.6}s (x{ratio:.3})",
                ev.seconds,
                cf.seconds
            );
            assert!(
                cf.roofline <= ev.seconds,
                "{case}: event {:.6}s below the roofline {:.6}s",
                ev.seconds,
                cf.roofline
            );
        }
    }
}
