//! Ablations over CAKE's design choices (DESIGN.md section 5).
//!
//! * `alpha`: CB aspect factor sweep — wall time should be flat on a
//!   compute-bound machine while the simulator shows the DRAM trade.
//! * `snake_vs_naive`: Algorithm 2's direction flipping vs plain nested
//!   loops, measured as DRAM-traffic accounting over the two orders.
//! * `lru_sizing`: blocks sized by the Section 4.3 rule vs blocks that
//!   ignore it (fill the whole LLC) — real wall time, real caches.
//! * `reuse_priority`: K-first vs the M-first/N-first generalization.

use cake_bench::harness::{BenchmarkId, Criterion};
use cake_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use cake_core::api::{cake_sgemm, CakeConfig};
use cake_core::schedule::{BlockCoord, Dim, Schedule};
use cake_core::traffic::{dram_traffic, CResidency, TrafficParams};
use cake_matrix::{init, Matrix};

fn ablate_alpha(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_alpha");
    let n = 384;
    let a = init::random::<f32>(n, n, 1);
    let b = init::random::<f32>(n, n, 2);
    for &alpha in &[1.0f64, 2.0, 4.0, 8.0] {
        let cfg = CakeConfig {
            threads: Some(1),
            alpha: Some(alpha),
            ..CakeConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(alpha), &alpha, |bch, _| {
            bch.iter(|| {
                let mut out = Matrix::<f32>::zeros(n, n);
                cake_sgemm(black_box(&a), black_box(&b), &mut out, &cfg);
                black_box(out.get(0, 0))
            })
        });
    }
    group.finish();
}

fn ablate_snake(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_snake_traffic");
    let tp = TrafficParams { m: 2048, k: 2048, n: 2048, bm: 128, bk: 128, bn: 128 };
    let grid = tp.grid();
    group.bench_function("snake", |bch| {
        bch.iter(|| {
            let t = dram_traffic(
                Schedule::k_first(grid, tp.m, tp.n),
                black_box(tp),
                CResidency::HoldInLlc,
                1,
            );
            black_box(t.total())
        })
    });
    // Same block set, every loop restarting at index 0 (N outer, K inner).
    let plain = move || {
        (0..grid.nb).flat_map(move |n| {
            (0..grid.mb).flat_map(move |m| (0..grid.kb).map(move |k| BlockCoord { m, k, n }))
        })
    };
    group.bench_function("no_snake", |bch| {
        bch.iter(|| {
            let t = dram_traffic(plain(), black_box(tp), CResidency::HoldInLlc, 1);
            black_box(t.total())
        })
    });
    group.finish();
}

fn ablate_lru_sizing(c: &mut Criterion) {
    // Real hardware effect: blocks obeying C + 2(A+B) <= S vs blocks that
    // pretend the LLC is 4x larger (over-sized working set thrashes).
    let mut group = c.benchmark_group("ablation_lru_sizing");
    let n = 512;
    let a = init::random::<f32>(n, n, 3);
    let b = init::random::<f32>(k_of(n), n, 4);
    fn k_of(n: usize) -> usize {
        n
    }
    let honest = CakeConfig {
        threads: Some(1),
        ..CakeConfig::default()
    };
    let oversized = CakeConfig {
        threads: Some(1),
        llc_bytes: 64 * 1024 * 1024, // larger than this machine's LLC
        l2_bytes: 4 * 1024 * 1024,
        ..CakeConfig::default()
    };
    for (name, cfg) in [("rule_sized", &honest), ("oversized", &oversized)] {
        group.bench_function(name, |bch| {
            bch.iter(|| {
                let mut out = Matrix::<f32>::zeros(n, n);
                cake_sgemm(black_box(&a), black_box(&b), &mut out, cfg);
                black_box(out.get(0, 0))
            })
        });
    }
    group.finish();
}

fn ablate_reuse_priority(c: &mut Criterion) {
    // Which surface to reuse on every step: inner K (paper, partial-C),
    // inner N (A), inner M (B) — traffic accounting over the generalized
    // snake schedule shows why the paper picks reduction-first for CB
    // blocks, and the outer-loop choice from Section 2.2.
    let mut group = c.benchmark_group("ablation_reuse_priority");
    let tp = TrafficParams { m: 1024, k: 4096, n: 1024, bm: 128, bk: 128, bn: 128 };
    let grid = tp.grid();
    // `inner_k` is also the N-outer K-first order; `m_outer` is its mirror.
    let orders: [(&str, [Dim; 3]); 4] = [
        ("inner_k", [Dim::N, Dim::M, Dim::K]),
        ("inner_n", [Dim::K, Dim::M, Dim::N]),
        ("inner_m", [Dim::K, Dim::N, Dim::M]),
        ("m_outer", [Dim::M, Dim::N, Dim::K]),
    ];
    for (name, order) in orders {
        group.bench_function(name, |bch| {
            bch.iter(|| {
                let t = dram_traffic(
                    Schedule::new(grid, order),
                    black_box(tp),
                    CResidency::HoldInLlc,
                    1,
                );
                black_box(t.total())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablate_alpha, ablate_snake, ablate_lru_sizing, ablate_reuse_priority
}
criterion_main!(benches);
