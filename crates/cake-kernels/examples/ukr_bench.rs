//! Microkernel-only throughput probe: times each best-tier kernel, and
//! every int8 tier the host has (AMX against VNNI), on hot packed panels
//! (no executor, no packing) to isolate register-tile performance. Each
//! kernel's panels are sized for the packed layout it declares. Kernels are
//! measured in interleaved rounds with the per-kernel best kept, so slow
//! clock drift on a noisy host biases every kernel equally instead of
//! whichever ran last. Run with
//! `cargo run --release -p cake-kernels --example ukr_bench [kc] [rounds]`.

use std::time::Instant;

struct Probe {
    name: &'static str,
    dims: (usize, usize),
    best: f64, // seconds per burst
    run: Box<dyn FnMut()>,
}

fn probe<T: cake_kernels::select::KernelSelect>(kc: usize, burst: usize) -> Probe {
    probe_kernel(cake_kernels::best_kernel::<T>(), kc, burst)
}

fn probe_kernel<T: cake_kernels::select::KernelSelect>(ukr: cake_kernels::Ukr<T>, kc: usize, burst: usize) -> Probe {
    let (mr, nr, layout) = (ukr.mr(), ukr.nr(), ukr.pack_layout());
    let a = vec![T::default(); layout.a_size(mr, kc)];
    let b = vec![T::default(); layout.b_size(kc, nr)];
    let mut c = vec![<T as cake_matrix::Dtype>::Acc::default(); mr * nr];
    Probe {
        name: ukr.name(),
        dims: (mr, nr),
        best: f64::INFINITY,
        run: Box::new(move || {
            for _ in 0..burst {
                // SAFETY: a/b are one packed sliver each of the kernel's
                // own layout for kc, c is mr*nr, all outlive the closure;
                // rsc = nr with csc = 1 is the packed row-major C layout.
                unsafe { ukr.call(kc, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), nr, 1) };
            }
        }),
    }
}

fn main() {
    let kc: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(256);
    let rounds: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(30);
    let burst = 2000usize;
    let mut probes = vec![
        probe::<f32>(kc, burst),
        probe::<f64>(kc, burst),
        probe::<cake_matrix::Bf16>(kc, burst),
    ];
    // Every int8 tier from avx512 up, so the AMX and VNNI kernels are timed
    // in the same rounds.
    for tier in cake_kernels::available_tiers() {
        if tier >= cake_kernels::KernelTier::Avx512 {
            if let Some(ukr) = cake_kernels::tier_kernel::<i8>(tier) {
                probes.push(probe_kernel(ukr, kc, burst));
            }
        }
    }
    for p in probes.iter_mut() {
        (p.run)(); // warmup
    }
    for _ in 0..rounds {
        for p in probes.iter_mut() {
            let t0 = Instant::now();
            (p.run)();
            p.best = p.best.min(t0.elapsed().as_secs_f64());
        }
    }
    let f32_gops = {
        let p = &probes[0];
        2.0 * (p.dims.0 * p.dims.1 * kc * burst) as f64 / p.best / 1e9
    };
    for p in &probes {
        let gops = 2.0 * (p.dims.0 * p.dims.1 * kc * burst) as f64 / p.best / 1e9;
        println!(
            "{:<24} {}x{} kc={kc}: {:8.2} GOP/s  ({:.2}x f32)",
            p.name, p.dims.0, p.dims.1, gops, gops / f32_gops
        );
    }
}
