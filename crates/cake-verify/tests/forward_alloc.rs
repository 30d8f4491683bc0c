//! Allocations of a warm `Sequential::forward` pass, pinned.
//!
//! `warm_alloc.rs` proves a warm GEMM allocates nothing; the forward pass
//! around the GEMMs still allocates per layer: each layer's output, the
//! int8 layers' quantized inputs and accumulators, the flattened
//! classifier input and the reports. This test counts them for the
//! benchmark's 5-conv net (3x64x64, `p = 1`) in f32 and in int8, and
//! fails if a pass allocates more often than the counts recorded here,
//! so a change can lower them (toward a forward pass that allocates
//! nothing) but never raise them unnoticed.
//!
//! At `p = 1` the pool runs every GEMM on the calling thread, so the
//! per-thread counter sees the whole pass.

mod counting_alloc;

use cake_core::api::CakeConfig;
use cake_dnn::im2col::ConvGeom;
use cake_dnn::{
    Conv2d, GlobalAvgPool, Linear, MaxPool2d, QuantConv2d, QuantLinear, ReLU, Sequential, Tensor,
};
use cake_matrix::{init, Matrix};

use counting_alloc::allocs;

/// The most allocations a warm f32 pass may make, as measured: the report
/// vector, each of the 15 reports' name, an output per conv, pool and
/// global-average-pool layer (9), and the classifier's flattened input and
/// output. A ReLU folded into the layer before it allocates nothing, and
/// the first layer reads the caller's input without a copy.
const F32_PASS_ALLOCS: u64 = 27;
/// The same plus one int8 input per GEMM layer (6); each int8 GEMM's i32
/// accumulator becomes its f32 output.
const INT8_PASS_ALLOCS: u64 = 33;

/// The benchmark's net: five 3x3 convs (32, 32, 64, 128, 256 channels)
/// each followed by a ReLU, a 2x2 max-pool after conv2 to conv4, global
/// average pooling and a 10-way classifier.
fn net(int8: bool) -> Sequential {
    const CONVS: [(usize, usize); 5] = [(3, 32), (32, 32), (32, 64), (64, 128), (128, 256)];
    let mut net = Sequential::new(CakeConfig::with_threads(1));
    for (i, &(cin, cout)) in CONVS.iter().enumerate() {
        let w = init::random::<f32>(cout, cin * 9, 1 + i as u64);
        let w = Matrix::from_fn(cout, cin * 9, |r, c| w.get(r, c) * (2.0 / (cin * 9) as f32).sqrt());
        let bias = vec![0.01; cout];
        net = if int8 {
            net.push(QuantConv2d::from_f32("conv", cin, cout, ConvGeom::same(3), &w, bias))
        } else {
            net.push(Conv2d::new("conv", cin, cout, ConvGeom::same(3), w, bias))
        }
        .push(ReLU);
        if (1..4).contains(&i) {
            net = net.push(MaxPool2d);
        }
    }
    let fc = init::random::<f32>(10, 256, 6);
    net = net.push(GlobalAvgPool);
    if int8 {
        net.push(QuantLinear::from_f32("fc", &fc, vec![0.0; 10]))
    } else {
        net.push(Linear::new("fc", fc, vec![0.0; 10]))
    }
}

/// Allocations of each of three warm passes, after two that size the
/// GEMM workspace.
fn warm_pass_allocs(int8: bool) -> [u64; 3] {
    let net = net(int8);
    let input = Tensor::from_matrix(init::random::<f32>(3, 64 * 64, 42), 64, 64);
    for _ in 0..2 {
        let _ = net.forward(&input);
    }
    std::array::from_fn(|_| {
        let before = allocs();
        let (out, reports) = net.forward(&input);
        let n = allocs() - before;
        assert_eq!(out.len(), 10);
        assert!(reports.iter().all(|r| r.gemm.allocations == 0), "a warm GEMM grew its workspace");
        n
    })
}

#[test]
fn warm_f32_forward_allocations_stay_pinned() {
    let n = warm_pass_allocs(false);
    assert!(
        n.iter().all(|&n| n <= F32_PASS_ALLOCS),
        "f32 warm passes allocated {n:?} times, pinned at {F32_PASS_ALLOCS}"
    );
}

#[test]
fn warm_int8_forward_allocations_stay_pinned() {
    let n = warm_pass_allocs(true);
    assert!(
        n.iter().all(|&n| n <= INT8_PASS_ALLOCS),
        "int8 warm passes allocated {n:?} times, pinned at {INT8_PASS_ALLOCS}"
    );
}
