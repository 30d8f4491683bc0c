//! The traced phase: per-layer metrics for one workload, each timed around
//! a call into a public library function or read from the `ExecStats` a
//! public call returns.

use std::hint::black_box;
use std::time::Instant;

use crate::check::Tally;
use crate::report::Metric;
use crate::stats::{fastest, median, quantile, ratio};
use crate::surface::{
    best_kernel, cake, goto_gemm, pack_a, pack_b, packed_a_size, packed_b_size,
    quantize_activations, random, Element, GotoConfig, KernelSelect, Layout, Matrix, ThreadPool,
};
use crate::trace::Tracer;
use crate::workloads::{sub_seed, Cnn, DnnTimes, ExecSum, Gemms, Workload, P, WIDE_P};
use crate::E2e;

/// Traced ops of the workload itself.
const TRACED_OPS: usize = 20;
/// Traced passes of the f32 CNN for the `dnn.*` metrics of GEMM workloads.
const DNN_PASSES: usize = 5;
/// Interleaved rounds of CAKE at `p = 1`, CAKE at `p = 2` and GOTO at
/// `p = 2`, at 2048³.
const REF_ROUNDS: usize = 5;
const PACK_CALLS: usize = 200;
const TINY_CALLS: usize = 2000;

/// Seconds per call of `f`, after `n / 10` untimed warm-up calls.
fn time_calls(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..n / 10 {
        f();
    }
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn p10(xs: &[f64]) -> f64 {
    quantile(xs, 0.1)
}

/// GB/s of the source block packed per call, at the p10 call time.
fn pack_gbs<T: Element>(src: &Matrix<T>, packed_len: usize, pack: impl Fn(&mut [T])) -> f64 {
    let mut buf = vec![T::ZERO; packed_len];
    let xs = time_calls(PACK_CALLS, || pack(&mut buf));
    black_box(&buf);
    ratio(
        (src.rows() * src.cols() * std::mem::size_of::<T>()) as f64,
        p10(&xs),
    ) / 1e9
}

/// Packed into the tile of the kernel a GEMM over `T` dispatches to.
fn pack_a_gbs<T: KernelSelect>(src: &Matrix<T>) -> f64 {
    let (mr, view) = (best_kernel::<T>().mr(), src.view());
    pack_gbs(src, packed_a_size(src.rows(), src.cols(), mr), |buf| {
        pack_a(&view, buf, mr)
    })
}

fn pack_b_gbs<T: KernelSelect>(src: &Matrix<T>) -> f64 {
    let (nr, view) = (best_kernel::<T>().nr(), src.view());
    pack_gbs(src, packed_b_size(src.rows(), src.cols(), nr), |buf| {
        pack_b(&view, buf, nr)
    })
}

/// Run the traced phase for `w` and return its per-layer metrics.
pub fn run(
    w: &mut dyn Workload,
    e2e: &E2e,
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut op = tr.spans().iter().map(|s| s.op + 1).max().unwrap_or(0);
    let mut next_op = || {
        op += 1;
        op - 1
    };

    // The workload's own ops, traced.
    let mut traced_s = Vec::with_capacity(TRACED_OPS);
    let mut gemm = ExecSum::default();
    let mut dnn: Vec<DnnTimes> = Vec::new();
    for _ in 0..TRACED_OPS {
        let t = w.traced_op(tr, next_op(), &mut gemm);
        tally.count(t.ok);
        traced_s.push(t.seconds);
        dnn.extend(t.dnn);
    }
    // GEMM workloads have no CNN layers of their own: trace the f32 net,
    // keeping its GEMMs out of the workload's kernel and executor sums.
    if dnn.is_empty() {
        let mut cnn = Cnn::new(seed, false);
        tally.count(cnn.setup().1);
        for _ in 0..DNN_PASSES {
            let t = cnn.traced_op(tr, next_op(), &mut ExecSum::default());
            tally.count(t.ok);
            dnn.extend(t.dnn);
        }
    }

    // The multi-core path, CAKE and the GOTO baseline at p = 2, interleaved
    // with CAKE at p = 1 on the same 2048³ inputs. The p = 2 calls also give
    // the executor's barrier and balance numbers, which are trivial at p = 1.
    let mut reference = Gemms::large(seed);
    tally.count(reference.setup().1);
    let wide = cake(WIDE_P);
    let goto = GotoConfig::with_threads(WIDE_P);
    let mut wide_gemm = ExecSum::default();
    let (mut cake_s, mut wide_s, mut goto_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REF_ROUNDS {
        let (s, ok) = reference.op(&mut Vec::new());
        tally.count(ok);
        cake_s.push(s);
        let (s, ok) = reference.pass_with(|a, b, c| wide_gemm.add(&wide.gemm_with_stats(a, b, c)));
        tally.count(ok);
        wide_s.push(s);
        let (s, ok) = reference.pass_with(|a, b, c| goto_gemm(a, b, c, &goto));
        tally.count(ok);
        goto_s.push(s);
    }
    drop(wide);

    // Pack bandwidth on fixed blocks, f32 and int8.
    let (a, b) = reference.pack_sources();
    let a_col = a.to_layout(Layout::ColMajor);
    let (a_i8, _) = quantize_activations(&a);
    let (b_i8, _) = quantize_activations(&b);
    drop(reference);

    // Fixed per-call costs: an empty pool broadcast and a tiny warm GEMM.
    let pool = ThreadPool::new(WIDE_P);
    let broadcast_s = time_calls(TINY_CALLS, || pool.broadcast(|_| {}));
    drop(pool);
    let ctx = cake(P);
    let (ta, tb) = (
        random::<f32>(8, 8, sub_seed(seed, 800)),
        random::<f32>(8, 8, sub_seed(seed, 801)),
    );
    let mut tc = Matrix::<f32>::zeros(8, 8);
    let call_s = time_calls(TINY_CALLS, || ctx.gemm(&ta, &tb, &mut tc));
    drop(ctx);

    // Op rates use the fastest op, as the end-to-end `gops` does.
    let flops = w.flops();
    let n = traced_s.len() as f64;
    let gops_traced = flops / fastest(&traced_s) / 1e9;
    let per_core = ratio(flops * n, gemm.compute_ns as f64);
    let e2e_gops = flops / fastest(&e2e.op_s) / 1e9;
    let e2e_p10 = p10(&e2e.op_s);
    let slow = e2e.op_s.iter().filter(|&&s| s > 1.25 * e2e_p10).count();
    let dnn_ms = |f: fn(&DnnTimes) -> f64| median(&dnn.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let big = 2.0 * 2048f64.powi(3);
    let traced_note = format!("{n} traced ops; {:.2} GOP/s traced", gops_traced);

    vec![
        Metric::new("kernel.gops_per_core", "GOP/s", per_core).with_note(format!(
            "ops / summed ExecStats.compute_ns; {}",
            traced_note
        )),
        Metric::new(
            "kernel.eff",
            "ratio",
            ratio(gops_traced, gemm.workers as f64 * per_core),
        )
        .with_note(format!(
            "traced GOP/s / ({} workers x per-core GOP/s)",
            gemm.workers
        )),
        Metric::new("pack.a_gbs", "GB/s", pack_a_gbs(&a))
            .with_note("f32 192x256 row-major A".into()),
        Metric::new("pack.a_colmajor_gbs", "GB/s", pack_a_gbs(&a_col))
            .with_note("f32 192x256 column-major A".into()),
        Metric::new("pack.b_gbs", "GB/s", pack_b_gbs(&b)).with_note("f32 256x512 B panel".into()),
        Metric::new("pack.a_i8_gbs", "GB/s", pack_a_gbs(&a_i8)).with_note("int8 192x256 A".into()),
        Metric::new("pack.b_i8_gbs", "GB/s", pack_b_gbs(&b_i8)).with_note("int8 256x512 B".into()),
        Metric::new(
            "executor.pack_frac",
            "ratio",
            ratio(gemm.pack_ns as f64, (gemm.pack_ns + gemm.compute_ns) as f64),
        )
        .with_note("pack / (pack + compute)".into()),
        Metric::new(
            "executor.barrier_frac",
            "ratio",
            ratio(wide_gemm.barrier_ns as f64, wide_gemm.compute_ns as f64),
        )
        .with_note(format!(
            "barrier wait / compute, CAKE 2048^3 at p = {WIDE_P}"
        )),
        Metric::new(
            "executor.imbalance",
            "ratio",
            ratio(
                wide_gemm.compute_max_ns as f64 * wide_gemm.workers as f64,
                wide_gemm.compute_ns as f64,
            ),
        )
        .with_note(format!(
            "slowest worker's compute x {} workers / total compute, 2048^3",
            wide_gemm.workers
        )),
        Metric::new("executor.blocks", "count", gemm.blocks as f64 / n)
            .with_note("CB blocks per op".into()),
        Metric::new(
            "executor.b_panel_hits",
            "count",
            gemm.b_panel_hits as f64 / n,
        )
        .with_note("B panels reused from the ring, per op".into()),
        Metric::new("executor.warm_allocs", "count", gemm.allocations as f64).with_note(format!(
            "heap allocations over {} warm GEMM calls",
            gemm.calls
        )),
        Metric::new("pool.broadcast_us", "us", p10(&broadcast_s) * 1e6).with_note(format!(
            "p10 of {TINY_CALLS} empty broadcasts at {WIDE_P} workers"
        )),
        Metric::new("api.min_call_us", "us", p10(&call_s) * 1e6).with_note(format!(
            "p10 of {TINY_CALLS} warm 8x8x8 CakeGemm::gemm calls, p = {P}"
        )),
        Metric::new("dnn.conv_ms", "ms", dnn_ms(|d| d.conv))
            .with_note(format!("median over {} traced passes", dnn.len())),
        Metric::new("dnn.eltwise_ms", "ms", dnn_ms(|d| d.eltwise))
            .with_note("relu + maxpool + gap".into()),
        Metric::new("dnn.fc_ms", "ms", dnn_ms(|d| d.fc)),
        Metric::new("dnn.im2col_ms", "ms", dnn_ms(|d| d.im2col))
            .with_note("on every conv input".into()),
        Metric::new("dnn.quant_ms", "ms", dnn_ms(|d| d.quant))
            .with_note("quantize_activations on every conv's patches".into()),
        Metric::new(
            "dnn.gemm_frac",
            "ratio",
            median(
                &dnn.iter()
                    .map(|d| ratio(d.conv_busy, d.conv))
                    .collect::<Vec<_>>(),
            ),
        )
        .with_note("GEMM busy time per worker / conv layer time".into()),
        Metric::new("ref.goto_gops", "GOP/s", big / fastest(&goto_s) / 1e9).with_note(format!(
            "goto_gemm 2048^3, p = {WIDE_P}, fastest of {REF_ROUNDS}"
        )),
        Metric::new(
            "ref.cake_over_goto",
            "ratio",
            ratio(fastest(&goto_s), fastest(&wide_s)),
        )
        .with_note(format!("both at p = {WIDE_P}, on the same inputs")),
        Metric::new("ref.cake_p2_gops", "GOP/s", big / fastest(&wide_s) / 1e9).with_note(format!(
            "CAKE 2048^3, p = {WIDE_P}, fastest of {REF_ROUNDS}; x{:.2} over p = {P} ({:.2} GOP/s)",
            ratio(fastest(&cake_s), fastest(&wide_s)),
            big / fastest(&cake_s) / 1e9
        )),
        Metric::new("call.p50_ms", "ms", median(&e2e.op_s) * 1e3)
            .with_note(format!("e2e p = {P} op time")),
        Metric::new("call.p90_ms", "ms", quantile(&e2e.op_s, 0.9) * 1e3),
        Metric::new("call.n", "count", e2e.op_s.len() as f64),
        Metric::new(
            "host.slow_frac",
            "ratio",
            ratio(slow as f64, e2e.op_s.len() as f64),
        )
        .with_note("share of e2e ops slower than 1.25 x p10".into()),
        Metric::new(
            "trace.overhead",
            "ratio",
            1.0 - ratio(gops_traced, e2e_gops),
        )
        .with_note(format!("1 - traced GOP/s / e2e {e2e_gops:.2} GOP/s")),
    ]
}
