//! The three workloads. Each makes its inputs from the run seed, builds its
//! context or network fresh (`setup`), runs one timed op (`op`) and reports
//! the time of each of its parts, checks every output outside the timed
//! window, and can run a traced op whose spans and `ExecStats` feed the
//! per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

use crate::check::{rel_err, same_bits, Freivalds};
use crate::surface::{
    cake, direct_conv, im2col, quantize_activations, random, CakeConfig, CakeGemm, Conv2d,
    ConvGeom, ExecStats, GlobalAvgPool, Layout, Linear, Matrix, MaxPool2d, QuantConv2d,
    QuantLinear, ReLU, Sequential, Tensor,
};
use crate::trace::Tracer;

pub const NAMES: [&str; 3] = ["gemm_stream", "cnn_f32", "cnn_int8"];

/// Workers of every measured op. The host is a shared 2-vCPU VM: at `p = 2`
/// an op waits for the slower vCPU, and its run-to-run spread was two to
/// four times that at `p = 1` (README). The `p = 2` path is measured in the
/// traced phase, at [`WIDE_P`].
pub const P: usize = 1;

/// Workers of the traced phase's multi-core rungs: every vCPU of the host.
pub const WIDE_P: usize = 2;

/// Independent sub-seed `k` of the run seed.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)
}

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "gemm_stream" => Box::new(Gemms::stream(seed)),
        "cnn_f32" => Box::new(Cnn::new(seed, false)),
        "cnn_int8" => Box::new(Cnn::new(seed, true)),
        _ => return None,
    })
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Arithmetic ops in one op: `2·M·K·N` summed over its GEMMs, or the
    /// network's `total_flops`.
    fn flops(&self) -> f64;
    /// Build the context or network fresh and run its first, cold op.
    /// Returns (seconds for both, output correct).
    fn setup(&mut self) -> (f64, bool);
    /// One warm op. Returns (timed seconds, output correct) and leaves in
    /// `parts` the time of each of the op's parts, in a fixed order: every
    /// GEMM call, or every layer.
    fn op(&mut self, parts: &mut Vec<f64>) -> (f64, bool);
    /// One warm op with a span around every library call, adding the
    /// `ExecStats` of its GEMMs to `gemm`.
    fn traced_op(&mut self, tr: &mut Tracer, op: u32, gemm: &mut ExecSum) -> Traced;
}

/// `ExecStats` summed over the GEMM calls of traced ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecSum {
    pub calls: u64,
    pub blocks: u64,
    pub b_panel_hits: u64,
    pub allocations: u64,
    pub pack_ns: u64,
    pub compute_ns: u64,
    pub compute_max_ns: u64,
    pub barrier_ns: u64,
    pub workers: usize,
}

impl ExecSum {
    pub fn add(&mut self, s: &ExecStats) {
        if s.blocks == 0 {
            return;
        }
        self.calls += 1;
        self.blocks += s.blocks as u64;
        self.b_panel_hits += s.b_panel_hits as u64;
        self.allocations += s.allocations as u64;
        self.pack_ns += s.pack_ns;
        self.compute_ns += s.compute_ns;
        self.compute_max_ns += s.compute_ns_max;
        self.barrier_ns += s.barrier_wait_ns;
        self.workers = self.workers.max(s.workers);
    }
}

/// Per-layer times of one traced CNN pass, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct DnnTimes {
    pub conv: f64,
    pub eltwise: f64,
    pub fc: f64,
    pub im2col: f64,
    pub quant: f64,
    /// GEMM busy time per worker inside the conv layers.
    pub conv_busy: f64,
}

pub struct Traced {
    pub seconds: f64,
    pub ok: bool,
    pub dnn: Option<DnnTimes>,
}

// ---------------------------------------------------------------- GEMMs

struct Case {
    a: usize,
    b: usize,
    c: Matrix<f32>,
    check: Freivalds,
}

/// A fixed list of f32 GEMMs run back to back through one warm `CakeGemm`:
/// 64 DNN-shaped ones (`gemm_stream`), or one 2048³ product for the traced
/// phase's reference rung.
pub struct Gemms {
    name: &'static str,
    a: Vec<Matrix<f32>>,
    b: Vec<Matrix<f32>>,
    cases: Vec<Case>,
    flops: f64,
    ctx: Option<CakeGemm>,
}

impl Gemms {
    pub fn large(seed: u64) -> Self {
        const N: usize = 2048;
        let a = random::<f32>(N, N, sub_seed(seed, 1));
        let b = random::<f32>(N, N, sub_seed(seed, 2));
        Self::new("large", vec![a], vec![b], vec![(0, 0)], seed)
    }

    /// Every `(M, K, N)` of the grid below once, in one fixed shuffled
    /// order; the seed only draws the data. The order stays fixed because
    /// the workspace grows geometrically, so its final size (and `mem_mb`)
    /// depends on the order shapes arrive in. A is column-major for half the
    /// `(M, K)` pairs, which sends `pack_a` down its transpose path.
    pub fn stream(seed: u64) -> Self {
        const MS: [usize; 4] = [32, 64, 128, 256];
        const KS: [usize; 4] = [27, 288, 576, 1152];
        const NS: [usize; 4] = [49, 196, 576, 1024];
        let a = (0..16)
            .map(|i| {
                let (im, ik) = (i / 4, i % 4);
                let m = random::<f32>(MS[im], KS[ik], sub_seed(seed, 100 + i as u64));
                if (im + ik) % 2 == 1 {
                    m.to_layout(Layout::ColMajor)
                } else {
                    m
                }
            })
            .collect();
        let b = (0..16)
            .map(|i| random::<f32>(KS[i / 4], NS[i % 4], sub_seed(seed, 200 + i as u64)))
            .collect();
        // Case i is (MS[i / 16], KS[i / 4 % 4], NS[i % 4]): A index
        // m * 4 + k, B index k * 4 + n.
        let grid: Vec<(usize, usize)> = (0..64)
            .map(|i| ((i / 16) * 4 + (i / 4) % 4, ((i / 4) % 4) * 4 + i % 4))
            .collect();
        let keys = random::<f64>(1, grid.len(), 300);
        let mut order: Vec<usize> = (0..grid.len()).collect();
        order.sort_by(|&x, &y| keys.as_slice()[x].total_cmp(&keys.as_slice()[y]));
        let pairs = order.iter().map(|&i| grid[i]).collect();
        Self::new("gemm_stream", a, b, pairs, seed)
    }

    fn new(
        name: &'static str,
        a: Vec<Matrix<f32>>,
        b: Vec<Matrix<f32>>,
        pairs: Vec<(usize, usize)>,
        seed: u64,
    ) -> Self {
        let cases: Vec<Case> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (ai, bi))| Case {
                a: ai,
                b: bi,
                c: Matrix::zeros(a[ai].rows(), b[bi].cols()),
                check: Freivalds::new(&a[ai], &b[bi], sub_seed(seed, 400 + i as u64)),
            })
            .collect();
        let flops = cases
            .iter()
            .map(|c| 2.0 * (a[c.a].rows() * a[c.a].cols() * b[c.b].cols()) as f64)
            .sum();
        Self {
            name,
            a,
            b,
            cases,
            flops,
            ctx: None,
        }
    }

    fn zero_c(&mut self) {
        for case in &mut self.cases {
            case.c.fill(0.0);
        }
    }

    fn checked(&self) -> bool {
        self.cases.iter().all(|c| c.check.holds(&c.c))
    }

    /// C is zeroed before the clock starts and checked after it stops; each
    /// call is timed into `parts`. A fresh pass builds the context inside
    /// the timed window.
    fn timed_pass(&mut self, fresh: bool, parts: &mut Vec<f64>) -> (f64, bool) {
        if fresh {
            self.ctx = None;
        }
        self.zero_c();
        parts.clear();
        let t0 = Instant::now();
        let ctx = self.ctx.get_or_insert_with(|| cake(P));
        for case in &mut self.cases {
            let t = Instant::now();
            ctx.gemm(&self.a[case.a], &self.b[case.b], &mut case.c);
            parts.push(t.elapsed().as_secs_f64());
        }
        let secs = t0.elapsed().as_secs_f64();
        (secs, self.checked())
    }

    /// The same GEMMs through another entry point (the GOTO baseline, or a
    /// context with other settings), timed and checked like an op.
    pub fn pass_with(
        &mut self,
        mut gemm: impl FnMut(&Matrix<f32>, &Matrix<f32>, &mut Matrix<f32>),
    ) -> (f64, bool) {
        self.zero_c();
        let t0 = Instant::now();
        for case in &mut self.cases {
            gemm(&self.a[case.a], &self.b[case.b], &mut case.c);
        }
        let secs = t0.elapsed().as_secs_f64();
        (secs, self.checked())
    }

    /// A 192x256 block of the first A and a 256x512 panel of the first B, as
    /// row-major copies.
    pub fn pack_sources(&self) -> (Matrix<f32>, Matrix<f32>) {
        let (a, b) = (&self.a[0], &self.b[0]);
        (
            Matrix::from_fn(192, 256, |i, j| a.get(i, j)),
            Matrix::from_fn(256, 512, |i, j| b.get(i, j)),
        )
    }
}

impl Workload for Gemms {
    fn name(&self) -> &'static str {
        self.name
    }

    fn flops(&self) -> f64 {
        self.flops
    }

    fn setup(&mut self) -> (f64, bool) {
        self.timed_pass(true, &mut Vec::with_capacity(self.cases.len()))
    }

    fn op(&mut self, parts: &mut Vec<f64>) -> (f64, bool) {
        self.timed_pass(false, parts)
    }

    fn traced_op(&mut self, tr: &mut Tracer, op: u32, gemm: &mut ExecSum) -> Traced {
        self.zero_c();
        let ctx = self.ctx.as_ref().expect("set up before tracing");
        let root = tr.begin("op", None, op);
        for case in &mut self.cases {
            let s = tr.begin("gemm_with_stats", Some(root), op);
            let stats = ctx.gemm_with_stats(&self.a[case.a], &self.b[case.b], &mut case.c);
            tr.end(s);
            gemm.add(&stats);
        }
        tr.end(root);
        Traced {
            seconds: tr.secs(root),
            ok: self.checked(),
            dnn: None,
        }
    }
}

// ---------------------------------------------------------------- CNN

#[derive(Debug, Clone, Copy)]
enum Kind {
    Conv(usize, usize),
    Relu,
    Pool,
    Gap,
    Fc(usize, usize),
}

/// A 5-conv VGG-style net on a 3x64x64 image (195.8 MFLOP): conv GEMMs
/// from 32x27x4096 (short and fat) to 256x1152x64, then GAP and a 10-way
/// classifier. The image is small enough that the longest layer, conv2,
/// takes about 14 ms (f32) or 26 ms (int8) at `p = 1`, short enough to find
/// a quiet moment of the host in every run (see `PartMins`).
const NET: [(&str, Kind); 15] = [
    ("conv1", Kind::Conv(3, 32)),
    ("relu", Kind::Relu),
    ("conv2", Kind::Conv(32, 32)),
    ("relu", Kind::Relu),
    ("maxpool2", Kind::Pool),
    ("conv3", Kind::Conv(32, 64)),
    ("relu", Kind::Relu),
    ("maxpool2", Kind::Pool),
    ("conv4", Kind::Conv(64, 128)),
    ("relu", Kind::Relu),
    ("maxpool2", Kind::Pool),
    ("conv5", Kind::Conv(128, 256)),
    ("relu", Kind::Relu),
    ("gap", Kind::Gap),
    ("fc", Kind::Fc(256, 10)),
];
const IMAGE: (usize, usize, usize) = (3, 64, 64);

fn geom() -> ConvGeom {
    ConvGeom::same(3)
}

/// Largest relative error of the first output against the f64
/// direct-convolution reference. f32 measures at most 5.1e-7 over seeds
/// 1-10. int8 rounds weights and activations at every layer and measures
/// 0.37-0.80% over the same seeds, so 5% leaves room without hiding a
/// broken kernel.
const F32_BOUND: f64 = 1e-3;
const INT8_BOUND: f64 = 5e-2;

type Weights = Vec<Option<(Matrix<f32>, Vec<f32>)>>;

/// The net built from the pre-generated f32 weights; the int8 net quantizes
/// them here, so quantization is part of set-up.
fn build_net(weights: &Weights, int8: bool) -> Sequential {
    let mut net = Sequential::new(CakeConfig::with_threads(P));
    for (&(name, kind), w) in NET.iter().zip(weights) {
        net = match (kind, w) {
            (Kind::Conv(cin, cout), Some((w, b))) if int8 => {
                net.push(QuantConv2d::from_f32(name, cin, cout, geom(), w, b.clone()))
            }
            (Kind::Conv(cin, cout), Some((w, b))) => {
                net.push(Conv2d::new(name, cin, cout, geom(), w.clone(), b.clone()))
            }
            (Kind::Fc(..), Some((w, b))) if int8 => {
                net.push(QuantLinear::from_f32(name, w, b.clone()))
            }
            (Kind::Fc(..), Some((w, b))) => net.push(Linear::new(name, w.clone(), b.clone())),
            (Kind::Relu, _) => net.push(ReLU),
            (Kind::Pool, _) => net.push(MaxPool2d),
            (Kind::Gap, _) => net.push(GlobalAvgPool),
            _ => unreachable!("conv and fc layers always have weights"),
        };
    }
    net
}

/// The same net in f64 with `direct_conv` and plain loops. Returns the
/// output and every conv layer's input.
fn reference_forward(weights: &Weights, input: &Tensor) -> (Vec<f32>, Vec<Tensor>) {
    let mut x = input.clone();
    let mut conv_inputs = Vec::new();
    for (&(_, kind), w) in NET.iter().zip(weights) {
        let (c, h, wd) = (x.channels(), x.height(), x.width());
        x = match (kind, w) {
            (Kind::Conv(..), Some((w, b))) => {
                let y = direct_conv(&x, w, &geom());
                conv_inputs.push(x);
                Tensor::from_fn(y.channels(), y.height(), y.width(), |o, i, j| {
                    y.get(o, i, j) + b[o]
                })
            }
            (Kind::Relu, _) => Tensor::from_fn(c, h, wd, |o, i, j| x.get(o, i, j).max(0.0)),
            (Kind::Pool, _) => Tensor::from_fn(c, h / 2, wd / 2, |o, i, j| {
                let v = |di, dj| x.get(o, 2 * i + di, 2 * j + dj);
                v(0, 0).max(v(0, 1)).max(v(1, 0)).max(v(1, 1))
            }),
            (Kind::Gap, _) => Tensor::from_fn(c, 1, 1, |o, _, _| {
                let mut s = 0.0f64;
                for i in 0..h {
                    for j in 0..wd {
                        s += x.get(o, i, j) as f64;
                    }
                }
                (s / (h * wd) as f64) as f32
            }),
            (Kind::Fc(..), Some((w, b))) => Tensor::from_fn(w.rows(), 1, 1, |o, _, _| {
                let s: f64 = (0..w.cols())
                    .map(|k| w.get(o, k) as f64 * x.get(k, 0, 0) as f64)
                    .sum();
                s as f32 + b[o]
            }),
            _ => unreachable!("conv and fc layers always have weights"),
        };
    }
    (x.as_matrix().as_slice().to_vec(), conv_inputs)
}

/// `Sequential::forward` of the net above, f32 or int8.
pub struct Cnn {
    name: &'static str,
    int8: bool,
    weights: Weights,
    input: Tensor,
    reference: Vec<f32>,
    /// Each conv layer's input in the reference pass, for the `im2col` and
    /// `quantize_activations` probes of a traced op.
    conv_inputs: Vec<Tensor>,
    flops: f64,
    net: Option<Sequential>,
    /// The first output that matched the reference; every later output
    /// must equal it bit for bit.
    first: Option<Vec<f32>>,
}

impl Cnn {
    pub fn new(seed: u64, int8: bool) -> Self {
        let weights: Weights = NET
            .iter()
            .enumerate()
            .map(|(i, &(_, kind))| {
                let (rows, cols, cols_per_unit) = match kind {
                    Kind::Conv(cin, cout) => (cout, cin * 9, cin * 9),
                    Kind::Fc(fin, fout) => (fout, fin, fin),
                    _ => return None,
                };
                // He-scaled weights keep activations O(1) through the net.
                let scale = (2.0 / cols_per_unit as f32).sqrt();
                let w = random::<f32>(rows, cols, sub_seed(seed, 500 + i as u64));
                let w = Matrix::from_fn(rows, cols, |r, c| w.get(r, c) * scale);
                let b = random::<f32>(1, rows, sub_seed(seed, 600 + i as u64));
                Some((w, b.as_slice().iter().map(|v| v * 0.1).collect()))
            })
            .collect();
        let (c, h, w) = IMAGE;
        let input = Tensor::from_matrix(random::<f32>(c, h * w, sub_seed(seed, 700)), h, w);
        let (reference, conv_inputs) = reference_forward(&weights, &input);
        let flops = build_net(&weights, int8).total_flops(c, h, w) as f64;
        Self {
            name: if int8 { "cnn_int8" } else { "cnn_f32" },
            int8,
            weights,
            input,
            reference,
            conv_inputs,
            flops,
            net: None,
            first: None,
        }
    }

    fn accept(&mut self, out: &[f32]) -> bool {
        if let Some(first) = &self.first {
            return same_bits(out, first);
        }
        let bound = if self.int8 { INT8_BOUND } else { F32_BOUND };
        let ok = rel_err(out, &self.reference) <= bound;
        if ok {
            self.first = Some(out.to_vec());
        }
        ok
    }

    /// The layer times come from the `LayerReport`s the forward pass
    /// returns, and go into `parts` after the clock stops.
    fn timed_forward(&mut self, fresh: bool, parts: &mut Vec<f64>) -> (f64, bool) {
        if fresh {
            self.net = None;
        }
        let t0 = Instant::now();
        let net = self
            .net
            .get_or_insert_with(|| build_net(&self.weights, self.int8));
        let (out, reports) = net.forward(&self.input);
        let secs = t0.elapsed().as_secs_f64();
        parts.clear();
        parts.extend(reports.iter().map(|r| r.seconds));
        (secs, self.accept(out.as_matrix().as_slice()))
    }
}

impl Workload for Cnn {
    fn name(&self) -> &'static str {
        self.name
    }

    fn flops(&self) -> f64 {
        self.flops
    }

    fn setup(&mut self) -> (f64, bool) {
        self.timed_forward(true, &mut Vec::new())
    }

    fn op(&mut self, parts: &mut Vec<f64>) -> (f64, bool) {
        self.timed_forward(false, parts)
    }

    /// `Sequential::forward` inside an op span, with one child span per
    /// layer from the `LayerReport`s it returns (each report's measured
    /// time, placed back to back from the op's start). Then, outside the op,
    /// `im2col` and `quantize_activations` on every conv layer's input.
    fn traced_op(&mut self, tr: &mut Tracer, op: u32, gemm: &mut ExecSum) -> Traced {
        let net = self.net.as_ref().expect("set up before tracing");
        let root = tr.begin("op", None, op);
        let (out, reports) = net.forward(&self.input);
        tr.end(root);
        let mut d = DnnTimes::default();
        let mut at = tr.spans()[root].start_ns;
        for (r, &(name, kind)) in reports.iter().zip(&NET) {
            // Truncated to whole nanoseconds, so the children never add up
            // to more than the op.
            let dur = (r.seconds * 1e9) as u64;
            tr.record(name, root, op, at, at + dur);
            at += dur;
            gemm.add(&r.gemm);
            match kind {
                Kind::Conv(..) => {
                    d.conv += r.seconds;
                    d.conv_busy += (r.gemm.pack_ns + r.gemm.compute_ns) as f64 * 1e-9
                        / r.gemm.workers.max(1) as f64;
                }
                Kind::Fc(..) => d.fc += r.seconds,
                Kind::Relu | Kind::Pool | Kind::Gap => d.eltwise += r.seconds,
            }
        }
        let probe = tr.begin("probe", None, op);
        for input in &self.conv_inputs {
            let s = tr.begin("im2col", Some(probe), op);
            let patches = im2col(input, &geom());
            tr.end(s);
            d.im2col += tr.secs(s);
            let s = tr.begin("quantize_activations", Some(probe), op);
            black_box(quantize_activations(&patches));
            tr.end(s);
            d.quant += tr.secs(s);
        }
        tr.end(probe);
        let ok = self.accept(out.as_matrix().as_slice());
        Traced {
            seconds: tr.secs(root),
            ok,
            dnn: Some(d),
        }
    }
}
