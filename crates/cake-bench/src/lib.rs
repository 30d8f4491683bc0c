//! The library behind `cakectl`, the workspace's one command-line tool.
//!
//! `cakectl fig <id>` regenerates the paper's evaluation from the
//! discrete-event simulator and writes `results/<name>.csv`:
//!
//! | Id       | Paper artifact | Content |
//! |----------|----------------|---------|
//! | `table2` | Table 2        | CPU configurations |
//! | `fig7`   | Figure 7a/7b   | stalls / cache + DRAM accesses, CAKE vs vendor |
//! | `fig8`   | Figure 8a–d    | relative-throughput contours over (M, K) |
//! | `fig9`   | Figure 9a/9b   | speedup vs cores, square matrices |
//! | `fig10`  | Figure 10a–c   | Intel: DRAM BW / throughput / internal BW |
//! | `fig11`  | Figure 11a–c   | ARM: same three panels |
//! | `fig12`  | Figure 12a–c   | AMD: same three panels |
//! | `sim`    | Figures 9–12   | CAKE vs GOTO p-sweeps on the three Table-2 CPUs |
//!
//! [`figures`] holds the runners and printers, [`output`] the table, chart
//! and CSV helpers. [`scaling`] holds the measured multicore sweep behind
//! `cakectl gemm --threads` and its scale-smoke gate, and [`best_of`] is
//! the one wall-clock timing loop `cakectl gemm` and the sweep share.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod figures;
pub mod output;
pub mod scaling;

use std::time::Instant;

/// Best wall time of `iters` calls to `f`, in seconds (infinite when
/// `iters` is 0). Callers warm up before timing.
pub fn best_of(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}
