//! Schedule and traffic invariants across crates (paper Sections 2.2, 4.1).

use cake::core::schedule::{shared_surfaces, BlockCoord, BlockGrid, Dim, Schedule};
use cake::core::shape::CbBlockShape;
use cake::core::traffic::{dram_traffic, CResidency, TrafficParams};
use cake::goto::model::goto_dram_traffic;
use cake::goto::params::GotoParams;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every K-first snake schedule visits each block exactly once and
    /// every pair of consecutive blocks shares exactly one IO surface.
    #[test]
    fn schedule_covers_once_and_shares_one_surface(
        mb in 1usize..7, kb in 1usize..7, nb in 1usize..7, m_outer in any::<bool>(),
    ) {
        // M outer when m > n, N outer otherwise.
        let (m, n) = if m_outer { (2, 1) } else { (1, 1) };
        let grid = BlockGrid { mb, kb, nb };
        let blocks: Vec<_> = Schedule::k_first(grid, m, n).collect();
        prop_assert_eq!(blocks.len(), mb * kb * nb);
        let unique: HashSet<_> = blocks.iter().copied().collect();
        prop_assert_eq!(unique.len(), blocks.len());
        for w in blocks.windows(2) {
            prop_assert_eq!(shared_surfaces(w[0], w[1]).len(), 1);
        }
    }

    /// The K-first schedule with LLC-resident partials never spills, and
    /// its total C traffic is exactly the output size.
    #[test]
    fn kfirst_c_traffic_is_exactly_output(
        m in 1usize..200, k in 1usize..200, n in 1usize..200,
        bm in prop::sample::select(vec![8usize, 16, 32]),
        bk in prop::sample::select(vec![8usize, 16, 32]),
        bn in prop::sample::select(vec![8usize, 16, 32]),
    ) {
        let tp = TrafficParams { m, k, n, bm, bk, bn };
        let t = dram_traffic(Schedule::k_first(tp.grid(), m, n), tp, CResidency::HoldInLlc, 1);
        prop_assert_eq!(t.c_partial_writes, 0);
        prop_assert_eq!(t.c_partial_reads, 0);
        prop_assert_eq!(t.c_final_writes, (m * n) as u64);
        // Inputs are each loaded at least once.
        prop_assert!(t.a_loads >= (m * k) as u64);
        prop_assert!(t.b_loads >= (k * n) as u64);
    }

    /// CAKE's total DRAM traffic never exceeds GOTO's for matched blocking.
    #[test]
    fn cake_traffic_le_goto_traffic(
        m in 32usize..300, k in 32usize..300, n in 32usize..300,
        p in 1usize..8,
    ) {
        let mc = 16usize;
        let goto = goto_dram_traffic(m, k, n, &GotoParams::fixed(p, mc, mc, 4 * mc));
        let tp = TrafficParams { m, k, n, bm: p * mc, bk: mc, bn: 4 * mc };
        let cake = dram_traffic(Schedule::k_first(tp.grid(), m, n), tp, CResidency::HoldInLlc, 1);
        prop_assert!(
            cake.total() <= goto.total(),
            "cake {} > goto {}", cake.total(), goto.total()
        );
    }

    /// Streaming partials costs exactly 2*(kb-1)*M*N extra C elements.
    #[test]
    fn streaming_cost_closed_form(
        m in 1usize..100, k in 1usize..150, n in 1usize..100,
    ) {
        let (bm, bk, bn) = (16usize, 16usize, 16usize);
        let tp = TrafficParams { m, k, n, bm, bk, bn };
        let schedule = Schedule::k_first(tp.grid(), m, n);
        let hold = dram_traffic(schedule, tp, CResidency::HoldInLlc, 1);
        let stream = dram_traffic(schedule, tp, CResidency::StreamToDram, 1);
        let kb = k.div_ceil(bk) as u64;
        prop_assert_eq!(
            stream.c_total() - hold.c_total(),
            2 * (kb - 1) * (m * n) as u64
        );
    }

    /// Snaking (Algorithm 2) never loads more input data than plain nested
    /// loops, and strictly less when a flip boundary exists.
    #[test]
    fn snaking_dominates_naive_traversal(
        mb in 1usize..6, kb in 2usize..6, nb in 2usize..6,
    ) {
        let (b, m, k, n) = (16usize, mb * 16, kb * 16, nb * 16);
        let tp = TrafficParams { m, k, n, bm: b, bk: b, bn: b };
        let order = [Dim::N, Dim::M, Dim::K];
        let snake = dram_traffic(Schedule::new(tp.grid(), order), tp, CResidency::HoldInLlc, 1);
        // Same block set and loop order, every loop restarting at 0.
        let plain = (0..nb).flat_map(|n| {
            (0..mb).flat_map(move |m| (0..kb).map(move |k| BlockCoord { m, k, n }))
        });
        let naive = dram_traffic(plain, tp, CResidency::HoldInLlc, 1);
        let s_in = snake.a_loads + snake.b_loads;
        let n_in = naive.a_loads + naive.b_loads;
        prop_assert!(s_in <= n_in);
        if mb > 1 {
            prop_assert!(s_in < n_in, "expected strict win with mb={mb}");
        }
    }
}

#[test]
fn derived_shapes_respect_lru_rule_on_all_table2_cpus() {
    use cake::sim::config::CpuConfig;
    for cpu in CpuConfig::table2() {
        for p in 1..=cpu.cores {
            let s = CbBlockShape::derive(p, 1.0, cpu.l2_bytes, cpu.llc_bytes, 4, cpu.mr, cpu.nr);
            assert!(
                s.fits_llc_lru(cpu.llc_bytes, 4),
                "{} p={p}: {s} violates C + 2(A+B) <= S",
                cpu.name
            );
        }
    }
}

#[test]
fn block_counts_match_grid_dimensions() {
    let grid = BlockGrid::for_problem(100, 90, 80, 32, 16, 24);
    assert_eq!(grid.mb, 4);
    assert_eq!(grid.kb, 6);
    assert_eq!(grid.nb, 4);
    assert_eq!(Schedule::k_first(grid, 100, 80).count(), 96);
}
