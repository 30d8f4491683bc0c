//! Microkernel-only throughput probe: times each best-tier kernel, and
//! every int8 tier the host has (AMX against VNNI), on hot packed panels
//! (no executor, no packing) to isolate register-tile performance. Each
//! kernel's panels are sized for the packed layout it declares. Then the
//! best f32 kernel's partial tiles through `edge::run_tile`, at the
//! benchmark nets' tails (2, 4 and 8 rows of a 32-column tile, 4 and 17
//! columns of a 14-row one), per call next to the full tile. Probes are
//! measured in interleaved rounds with the per-probe best kept, so slow
//! clock drift on a noisy host biases every probe equally instead of
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

/// The best f32 kernel through `edge::run_tile` on a live `rows x cols`
/// region of its tile (clamped to the tile): what a partial tile costs.
fn probe_edge(kc: usize, burst: usize, rows: usize, cols: usize) -> Probe {
    let ukr = cake_kernels::best_kernel::<f32>();
    let (mr, nr, layout) = (ukr.mr(), ukr.nr(), ukr.pack_layout());
    let (rows, cols) = (rows.min(mr), cols.min(nr));
    let a = vec![0.0f32; layout.a_size(mr, kc)];
    let b = vec![0.0f32; layout.b_size(kc, nr)];
    let mut c = vec![0.0f32; mr * nr];
    Probe {
        name: ukr.name(),
        dims: (rows, cols),
        best: f64::INFINITY,
        run: Box::new(move || {
            for _ in 0..burst {
                // SAFETY: a/b are one full packed sliver each of the
                // kernel's layout for kc; c is a dense mr x nr tile (rsc =
                // nr, csc = 1) that holds the rows x cols region.
                unsafe {
                    cake_kernels::edge::run_tile(&ukr, kc, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), nr, 1, rows, cols)
                };
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
    // The full tile first: the edge rows are printed against it.
    let mut edges: Vec<Probe> = [(14, 32), (2, 32), (4, 32), (8, 32), (14, 4), (14, 17)]
        .into_iter()
        .map(|(rows, cols)| probe_edge(kc, burst, rows, cols))
        .collect();
    for p in probes.iter_mut().chain(edges.iter_mut()) {
        (p.run)(); // warmup
    }
    for _ in 0..rounds {
        for p in probes.iter_mut().chain(edges.iter_mut()) {
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
    let per_call_ns = |p: &Probe| p.best / burst as f64 * 1e9;
    let full_ns = per_call_ns(&edges[0]);
    println!("\n{} tiles through edge::run_tile, kc={kc}, per call:", edges[0].name);
    for p in &edges {
        let ns = per_call_ns(p);
        println!("  {:>2}x{:<2} {:10.1} ns  ({:.2}x the full tile)", p.dims.0, p.dims.1, ns, ns / full_ns);
    }
}
