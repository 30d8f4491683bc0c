//! Scheduling machinery benchmarks: iteration, traffic accounting, shape
//! derivation — the "no design search" cost CAKE replaces grid search with.

use cake_bench::harness::{BenchmarkId, Criterion, Throughput};
use cake_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use cake_core::schedule::{BlockGrid, Schedule};
use cake_core::shape::CbBlockShape;
use cake_core::traffic::{dram_traffic, CResidency, TrafficParams};

fn bench_schedule_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_iteration");
    for &side in &[16usize, 48] {
        let grid = BlockGrid { mb: side, kb: side, nb: side };
        group.throughput(Throughput::Elements(grid.len() as u64));
        group.bench_with_input(BenchmarkId::new("snake", side), &side, |bch, _| {
            bch.iter(|| {
                let mut acc = 0usize;
                for coord in Schedule::k_first(grid, side, side) {
                    acc = acc.wrapping_add(coord.m ^ coord.k ^ coord.n);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_traffic_accounting(c: &mut Criterion) {
    let mut group = c.benchmark_group("traffic_accounting");
    let tp = TrafficParams { m: 4096, k: 4096, n: 4096, bm: 256, bk: 128, bn: 256 };
    let grid = tp.grid();
    group.throughput(Throughput::Elements(grid.len() as u64));
    for policy in [CResidency::HoldInLlc, CResidency::StreamToDram] {
        group.bench_function(format!("{policy:?}"), |bch| {
            bch.iter(|| {
                let t = dram_traffic(Schedule::k_first(grid, tp.m, tp.n), black_box(tp), policy, 1);
                black_box(t.total())
            })
        });
    }
    group.finish();
}

fn bench_shape_derivation(c: &mut Criterion) {
    // The entire "design search" CAKE needs: closed-form, microseconds —
    // contrast with the grid searches the paper's intro criticizes.
    let mut group = c.benchmark_group("shape_derivation");
    group.bench_function("derive_intel_10c", |bch| {
        bch.iter(|| {
            let s = CbBlockShape::derive(
                black_box(10),
                black_box(1.0),
                256 * 1024,
                20 * 1024 * 1024,
                4,
                6,
                16,
            );
            black_box(s.nc)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_schedule_iteration, bench_traffic_accounting, bench_shape_derivation
}
criterion_main!(benches);
