//! DNN forward pass as a sequence of GEMMs (the paper's motivating
//! workload: "most computations in the forward pass of a convolutional
//! neural network consist of one matrix multiplication per convolutional
//! layer"), built on the `cake-dnn` substrate crate.
//!
//! ```sh
//! cargo run --release --example dnn_inference [-- PASSES]
//! ```
//!
//! Builds the benchmark's 5-conv net on a 3x64x64 image, once in f32 and
//! once quantized to int8, runs each for `PASSES` (default 50) warm passes
//! at p = 1, and prints per layer the fastest time over the passes split
//! into its GEMM's pack-A, pack-B and compute time (from
//! `LayerReport::gemm`) and the time outside the GEMM (quantize,
//! requantize, allocation, pooling, and the ReLU the layer writes its
//! output through). Each column is its own minimum over the passes, so a
//! parent-vs-change run sizes a change to one phase without a separate
//! probe. A ReLU folded into the layer before it has no time of its own;
//! its row reads "folded".

use cake::core::api::CakeConfig;
use cake::dnn::im2col::ConvGeom;
use cake::dnn::network::LayerReport;
use cake::dnn::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, QuantConv2d, QuantLinear, ReLU, Sequential, Tensor};
use cake::matrix::{init, Matrix};

/// `(name, c_in, c_out)` of each conv layer; a 2x2 max-pool follows
/// conv2, conv3 and conv4, as in the benchmark's net.
const CONVS: [(&str, usize, usize); 5] =
    [("conv1", 3, 32), ("conv2", 32, 32), ("conv3", 32, 64), ("conv4", 64, 128), ("conv5", 128, 256)];
const IMAGE: (usize, usize, usize) = (3, 64, 64);

/// The net with He-scaled seeded weights, f32 or int8.
fn net(int8: bool) -> Sequential {
    let mut net = Sequential::new(CakeConfig::with_threads(1));
    for (i, &(name, cin, cout)) in CONVS.iter().enumerate() {
        let scale = (2.0 / (cin * 9) as f32).sqrt();
        let w = init::random::<f32>(cout, cin * 9, 1 + i as u64);
        let w = Matrix::from_fn(cout, cin * 9, |r, c| w.get(r, c) * scale);
        let bias = vec![0.01; cout];
        net = if int8 {
            net.push(QuantConv2d::from_f32(name, cin, cout, ConvGeom::same(3), &w, bias))
        } else {
            net.push(Conv2d::new(name, cin, cout, ConvGeom::same(3), w, bias))
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

/// One layer's phases in ns: total, pack A, pack B, compute, outside the
/// GEMM (the layer's time less its GEMM's pack, compute and barrier time).
fn phases(r: &LayerReport) -> [u64; 5] {
    let g = &r.gemm;
    let total = (r.seconds * 1e9) as u64;
    let gemm = (g.pack_ns + g.compute_ns + g.barrier_wait_ns) / g.workers.max(1) as u64;
    [total, g.pack_a_ns, g.pack_b_ns, g.compute_ns, total.saturating_sub(gemm)]
}

fn main() {
    let passes: usize = match std::env::args().nth(1) {
        None => 50,
        Some(a) => a.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("usage: dnn_inference [PASSES >= 1], not '{a}'");
            std::process::exit(2);
        }),
    };
    let (c, h, w) = IMAGE;
    let input = Tensor::from_matrix(init::random::<f32>(c, h * w, 42), h, w);
    for (label, int8) in [("f32", false), ("int8", true)] {
        let net = net(int8);
        println!(
            "{label} net: {} layers, {:.1} MFLOP per pass; fastest of {passes} warm passes at p = 1 (µs)",
            net.len(),
            net.total_flops(c, h, w) as f64 / 1e6
        );
        let (_, cold) = net.forward(&input); // sizes the workspace
        let mut best = vec![[u64::MAX; 5]; cold.len()];
        let mut best_pass = f64::INFINITY;
        for _ in 0..passes {
            let t0 = std::time::Instant::now();
            let (_, reports) = net.forward(&input);
            best_pass = best_pass.min(t0.elapsed().as_secs_f64());
            for (b, r) in best.iter_mut().zip(&reports) {
                let p = phases(r);
                *b = std::array::from_fn(|i| b[i].min(p[i]));
            }
        }
        println!(
            "{:<9} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9}  kernel",
            "layer", "out shape", "total", "pack A", "pack B", "compute", "outside"
        );
        for (r, b) in cold.iter().zip(&best) {
            let ((oc, oh, ow), us) = (r.out_shape, b.map(|ns| ns as f64 / 1e3));
            if r.folded {
                println!("{:<9} {:>12} {:>9}", r.name, format!("{oc}x{oh}x{ow}"), "folded");
                continue;
            }
            println!(
                "{:<9} {:>12} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}  {}",
                r.name,
                format!("{oc}x{oh}x{ow}"),
                us[0],
                us[1],
                us[2],
                us[3],
                us[4],
                r.gemm.kernel
            );
        }
        let sum: [f64; 5] = std::array::from_fn(|i| best.iter().map(|b| b[i] as f64 / 1e3).sum());
        println!(
            "{:<9} {:>12} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            "sum", "", sum[0], sum[1], sum[2], sum[3], sum[4]
        );
        println!("fastest whole pass: {:.1} µs\n", best_pass * 1e6);
    }
}
