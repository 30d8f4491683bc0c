//! Tile-granular memory-access traces through the cache hierarchy.
//!
//! Reproduces the mechanism behind Figure 7: play the exact access
//! sequence each algorithm's inner loops generate — packed A/B slivers and
//! C register tiles — through the LRU [`crate::cache::Hierarchy`], and
//! count where requests are served. CAKE's K-first, LLC-resident-partials
//! schedule shifts requests from DRAM into local memory; GOTO's streamed
//! partial C panels push them out to DRAM.
//!
//! Objects and their cache keys:
//!
//! * `A` sliver — `(mr x kc)` at k-block granularity.
//! * `B` sliver — `(kc x nr)`.
//! * `C` tile — `(mr x nr)`, accessed read-modify-write.

use cake_core::schedule::Schedule;

use crate::cache::{Hierarchy, HierStats};
use crate::config::CpuConfig;
use crate::engine::{resolve_cake_shape, resolve_goto_params, SimParams};

const MAT_A: u64 = 1;
const MAT_B: u64 = 2;
const MAT_C: u64 = 3;

#[inline]
fn key(mat: u64, i: u64, j: u64) -> u64 {
    debug_assert!(i < (1 << 26) && j < (1 << 26));
    (mat << 56) | (i << 26) | j
}

/// Build the hierarchy for a CPU.
fn hierarchy(cpu: &CpuConfig, p: usize) -> Hierarchy {
    Hierarchy::new(
        p,
        cpu.l1_bytes as u64,
        cpu.l2_bytes as u64,
        cpu.llc_bytes as u64,
    )
}

/// Play a CAKE GEMM's access trace; returns per-level hit statistics.
///
/// Trace volume is `O(M*K*N / (mr*kc*nr))` requests — use problem sizes of
/// a few thousand at most and scale counts by volume when comparing with
/// the paper's 10000^3 run (relative distribution is size-stable once the
/// working sets exceed the caches).
pub fn run_cake_trace(cpu: &CpuConfig, sp: &SimParams) -> HierStats {
    let shape = resolve_cake_shape(cpu, sp);
    let (m, k, n) = (sp.m, sp.k, sp.n);
    let mut h = hierarchy(cpu, sp.p);
    if m == 0 || k == 0 || n == 0 {
        return h.stats;
    }
    let eb = sp.elem_bytes as u64;
    let (mr, nr) = (cpu.mr, cpu.nr);
    let (bm, bk, bn) = (shape.m_block(), shape.k_block(), shape.n_block());

    for c in Schedule::for_shape(m, k, n, &shape) {
        let (m0, k0, n0) = (c.m * bm, c.k * bk, c.n * bn);
        let ml = bm.min(m - m0);
        let kl = bk.min(k - k0);
        let nl = bn.min(n - n0);
        let a_bytes = (mr * kl) as u64 * eb;
        let b_bytes = (nr * kl) as u64 * eb;
        let c_bytes = (mr * nr) as u64 * eb;

        let n_slivers = nl.div_ceil(nr) as u64;
        let max_s = shape.mc.div_ceil(mr);

        // Cores run strip-parallel; interleave them at (s, t) granularity
        // to approximate concurrency, with each core's A sliver pinned
        // (A-stationary inner loop, s outer / t inner).
        for s in 0..max_s {
            for t in 0..n_slivers {
                for core in 0..shape.p {
                    let strip0 = core * shape.mc;
                    if strip0 >= ml {
                        continue;
                    }
                    let strip_len = shape.mc.min(ml - strip0);
                    if s * mr >= strip_len {
                        continue;
                    }
                    let gs = ((m0 + strip0) / mr + s) as u64;
                    let gt = (n0 / nr) as u64 + t;
                    h.access(core, key(MAT_A, gs, c.k as u64), a_bytes, false);
                    h.access(core, key(MAT_B, gt, c.k as u64), b_bytes, false);
                    h.access(core, key(MAT_C, gs, gt), c_bytes, true);
                }
            }
        }
    }
    h.flush();
    h.stats
}

/// Play a GOTO GEMM's access trace; returns per-level hit statistics.
pub fn run_goto_trace(cpu: &CpuConfig, sp: &SimParams) -> HierStats {
    let g = resolve_goto_params(cpu, sp);
    let (m, k, n) = (sp.m, sp.k, sp.n);
    let mut h = hierarchy(cpu, sp.p);
    if m == 0 || k == 0 || n == 0 {
        return h.stats;
    }
    let eb = sp.elem_bytes as u64;
    let (mr, nr) = (cpu.mr, cpu.nr);
    let (mc, kc, nc, p) = (g.mc, g.kc, g.nc, g.p);

    let mut jc = 0;
    while jc < n {
        let nl = nc.min(n - jc);
        let n_slivers = nl.div_ceil(nr) as u64;
        let mut pc = 0;
        while pc < k {
            let kl = kc.min(k - pc);
            let a_bytes = (mr * kl) as u64 * eb;
            let b_bytes = (nr * kl) as u64 * eb;
            let c_bytes = (mr * nr) as u64 * eb;
            let kb_idx = (pc / kc) as u64;

            // Rounds of p parallel mc-strips.
            let mut ic = 0;
            while ic < m {
                let round_m = (p * mc).min(m - ic);
                let strips = round_m.div_ceil(mc);
                let max_s = mc.div_ceil(mr);
                // GOTO inner loops: jr (t) outer, ir (s) inner — B sliver
                // reused across the A panel.
                for t in 0..n_slivers {
                    for s in 0..max_s {
                        for core in 0..strips {
                            let strip0 = ic + core * mc;
                            let strip_len = mc.min(m - strip0);
                            if s * mr >= strip_len {
                                continue;
                            }
                            let gs = (strip0 / mr + s) as u64;
                            let gt = (jc / nr) as u64 + t;
                            h.access(core, key(MAT_A, gs, kb_idx), a_bytes, false);
                            h.access(core, key(MAT_B, gt, kb_idx), b_bytes, false);
                            // Partial C streams: read-modify-write every
                            // k panel.
                            h.access(core, key(MAT_C, gs, gt), c_bytes, true);
                        }
                    }
                }
                ic += p * mc;
            }
            pc += kc;
        }
        jc += nc;
    }
    h.flush();
    h.stats
}

/// Convert hit counts into the Figure 7a stall-time breakdown: requests
/// served at each level weighted by that level's latency (cycles). Index
/// 0..=3 = L1, L2, LLC, DRAM.
pub fn stall_breakdown_cycles(stats: &HierStats, cpu: &CpuConfig) -> [f64; 4] {
    [
        stats.l1_hits as f64 * cpu.latency_cycles[0],
        stats.l2_hits as f64 * cpu.latency_cycles[1],
        stats.llc_hits as f64 * cpu.latency_cycles[2],
        stats.dram_accesses as f64 * cpu.latency_cycles[3],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(n: usize, p: usize) -> SimParams {
        SimParams::square(n, p)
    }

    #[test]
    fn cake_shifts_traffic_from_dram_to_local_fig7() {
        // The working set (600^3 f32 = 1.4 MB/matrix... use 1200 to exceed
        // the ARM LLC comfortably) must exceed local memory.
        let cpu = CpuConfig::arm_cortex_a53();
        let cake = run_cake_trace(&cpu, &sp(1200, 4));
        let goto = run_goto_trace(&cpu, &sp(1200, 4));

        assert!(
            cake.dram_accesses < goto.dram_accesses,
            "CAKE DRAM {} !< GOTO DRAM {}",
            cake.dram_accesses,
            goto.dram_accesses
        );
        let cake_local = cake.local_hits() as f64 / cake.accesses as f64;
        let goto_local = goto.local_hits() as f64 / goto.accesses as f64;
        assert!(
            cake_local > goto_local,
            "local-hit fraction: cake {cake_local:.4} goto {goto_local:.4}"
        );
    }

    #[test]
    fn paper_reports_25x_dram_gap_on_arm_fig7b() {
        // Paper: ARMPL performs ~2.5x more DRAM requests than CAKE for
        // 3000^3. Require a clear gap (>1.5x) at our reduced size.
        let cpu = CpuConfig::arm_cortex_a53();
        let cake = run_cake_trace(&cpu, &sp(1200, 4));
        let goto = run_goto_trace(&cpu, &sp(1200, 4));
        let ratio = goto.dram_accesses as f64 / cake.dram_accesses.max(1) as f64;
        assert!(ratio > 1.5, "DRAM request ratio {ratio:.2}");
    }

    #[test]
    fn intel_stall_distribution_matches_fig7a_shape() {
        // Working set must exceed the 20 MiB LLC for the streamed-partials
        // difference to reach DRAM: 3072^2 f32 = 37 MiB per matrix.
        let cpu = CpuConfig::intel_i9_10900k();
        let cake = run_cake_trace(&cpu, &sp(3072, 10));
        let goto = run_goto_trace(&cpu, &sp(3072, 10));
        let cake_stalls = stall_breakdown_cycles(&cake, &cpu);
        let goto_stalls = stall_breakdown_cycles(&goto, &cpu);
        // CAKE spends less stall time on main memory than GOTO...
        assert!(cake_stalls[3] < goto_stalls[3]);
        // ...and (relatively) more of its stall time on local levels.
        let cake_frac = cake_stalls[3] / cake_stalls.iter().sum::<f64>();
        let goto_frac = goto_stalls[3] / goto_stalls.iter().sum::<f64>();
        assert!(cake_frac < goto_frac, "cake {cake_frac:.3} goto {goto_frac:.3}");
    }

    #[test]
    fn all_requests_accounted() {
        let cpu = CpuConfig::arm_cortex_a53();
        let s = run_cake_trace(&cpu, &sp(400, 2));
        assert_eq!(s.local_hits() + s.dram_accesses, s.accesses);
        assert!(s.accesses > 0);
    }

    #[test]
    fn empty_problem_produces_empty_trace() {
        let cpu = CpuConfig::arm_cortex_a53();
        let s = run_cake_trace(&cpu, &SimParams::new(0, 64, 64, 2));
        assert_eq!(s.accesses, 0);
    }

    #[test]
    fn trace_volumes_match_between_algorithms() {
        // Same tile work => same number of requests (distribution differs).
        let cpu = CpuConfig::intel_i9_10900k();
        let a = run_cake_trace(&cpu, &sp(768, 4));
        let b = run_goto_trace(&cpu, &sp(768, 4));
        let ratio = a.accesses as f64 / b.accesses as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "request volume mismatch: cake {} goto {}",
            a.accesses,
            b.accesses
        );
    }
}
