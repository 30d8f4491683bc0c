//! Quickstart: drop-in CAKE GEMM.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cake::prelude::*;
use cake_matrix::init;

fn main() {
    // C (m x n) += A (m x k) * B (k x n), single precision.
    let (m, k, n) = (512, 384, 640);
    let a = init::random::<f32>(m, k, 1);
    let b = init::random::<f32>(k, n, 2);
    let mut c = Matrix::<f32>::zeros(m, n);

    // Fully automatic configuration: thread count, CB block shape, and
    // kernel are chosen from the machine.
    let cfg = CakeConfig::default();
    let ctx = CakeGemm::new(cfg.clone());

    // The first call is cold: it spawns the worker pool, sizes the
    // workspace and first-touches C. Warm calls on the same context, each
    // into the same re-zeroed C, give the GEMM's rate (best of three, as
    // `cakectl gemm` keeps the best of its warm calls).
    let t0 = std::time::Instant::now();
    ctx.gemm(&a, &b, &mut c);
    let cold = t0.elapsed().as_secs_f64();
    let mut warm = f64::INFINITY;
    for _ in 0..3 {
        c.as_mut_slice().fill(0.0);
        let t0 = std::time::Instant::now();
        ctx.gemm(&a, &b, &mut c);
        warm = warm.min(t0.elapsed().as_secs_f64());
    }
    let stats = ctx.take_stats();

    let gflops = 2.0 * (m * k * n) as f64 / warm / 1e9;
    println!(
        "CAKE sgemm {m}x{k}x{n} on {}: {:.2} ms warm, best of 3 ({gflops:.2} GFLOP/s); first call {:.2} ms cold",
        stats.kernel,
        warm * 1e3,
        cold * 1e3
    );

    // Verify against the naive reference.
    let mut reference = Matrix::<f32>::zeros(m, n);
    cake::goto::naive::naive_gemm(&a, &b, &mut reference);
    assert!(
        cake::matrix::approx_eq(&c, &reference, cake::matrix::compare::gemm_tolerance::<f32>(k)),
        "CAKE result does not match the reference!"
    );
    println!("verified against naive reference ✓");

    // The analytical side: the CB block this GEMM ran, shaped for the
    // kernel it dispatched, and what the model promises for it (paper
    // Section 3).
    let decision = cfg.explain_shape_for::<f32>(m, k, n);
    assert_eq!(decision.kernel, stats.kernel, "the block is shaped for the kernel that ran");
    let ukr = cake::kernels::best_kernel_for_depth::<f32>(k);
    let model = CakeModel::new(decision.shape, ukr.mr(), ukr.nr(), 4, cfg.freq_ghz);
    println!("\nCB block: {} on {}", decision.shape, decision.kernel);
    println!("  required DRAM bandwidth (Eq. 4): {:.2} GB/s (constant in p)", model.ext_bw_gbs());
    println!("  local memory footprint  (Eq. 5): {:.2} MiB", model.local_mem_bytes() / 1048576.0);
    println!("  internal bandwidth      (Eq. 6): {:.2} GB/s", model.int_bw_gbs());
}
