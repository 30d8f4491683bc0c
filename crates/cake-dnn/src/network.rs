//! Sequential networks with per-layer accounting.
//!
//! A ReLU that follows another layer runs inside that layer's write-out
//! ([`Layer::forward_relu`]): the layer before it writes its output
//! already clamped, so the ReLU allocates nothing and makes no pass of its
//! own. Its [`LayerReport`] stays, marked [`LayerReport::folded`].

use std::any::Any;
use std::time::Instant;

use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::executor::ExecStats;

use crate::layers::{Layer, ReLU};
use crate::tensor::Tensor;

/// Per-layer forward-pass record.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Output shape `(c, h, w)`.
    pub out_shape: (usize, usize, usize),
    /// FLOPs performed.
    pub flops: u64,
    /// Wall time, seconds; 0 for a folded ReLU, whose time is in the
    /// report of the layer before it.
    pub seconds: f64,
    /// Stats of the layer's GEMM call (the last one, for layers that issue
    /// several); all-zero for GEMM-free layers like pooling and ReLU. After
    /// the first forward pass `gemm.allocations` is 0 for every layer — the
    /// context's workspace is warm.
    pub gemm: ExecStats,
    /// `true` for a ReLU that ran folded into the write-out of the layer
    /// before it ([`Layer::forward_relu`]); its `seconds` are 0 and its
    /// `gemm` is the default.
    pub folded: bool,
}

/// A feed-forward stack of layers sharing one CAKE GEMM context.
pub struct Sequential {
    /// Each layer, and whether it is a ReLU folded into the layer before.
    layers: Vec<(Box<dyn Layer>, bool)>,
    ctx: CakeGemm,
}

impl Sequential {
    /// Empty network with a given GEMM configuration.
    pub fn new(cfg: CakeConfig) -> Self {
        Self {
            layers: Vec::new(),
            ctx: CakeGemm::new(cfg),
        }
    }

    /// Append a layer (builder style). A [`ReLU`] appended after another
    /// layer is folded into it when the network runs.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        let folded = (&layer as &dyn Any).is::<ReLU>() && !self.layers.is_empty();
        self.layers.push((Box::new(layer), folded));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Propagate an input shape through every layer; validates layer
    /// compatibility without running any arithmetic.
    ///
    /// # Panics
    /// Panics (inside the offending layer) on shape mismatch.
    pub fn shapes(&self, mut c: usize, mut h: usize, mut w: usize) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::with_capacity(self.layers.len());
        for (layer, _) in &self.layers {
            let (nc, nh, nw) = layer.out_shape(c, h, w);
            out.push((nc, nh, nw));
            (c, h, w) = (nc, nh, nw);
        }
        out
    }

    /// Total FLOPs for an input shape.
    pub fn total_flops(&self, mut c: usize, mut h: usize, mut w: usize) -> u64 {
        let mut total = 0;
        for (layer, _) in &self.layers {
            total += layer.flops(c, h, w);
            (c, h, w) = layer.out_shape(c, h, w);
        }
        total
    }

    /// Run the forward pass, returning the output and one report per
    /// layer. The first layer reads `input` itself; a layer followed by a
    /// folded ReLU runs [`Layer::forward_relu`], which clamps its output as
    /// it writes it, bit for bit what the ReLU's own pass would give.
    pub fn forward(&self, input: &Tensor) -> (Tensor, Vec<LayerReport>) {
        let mut out: Option<Tensor> = None;
        let mut reports = Vec::with_capacity(self.layers.len());
        for (i, (layer, folded)) in self.layers.iter().enumerate() {
            let x = out.as_ref().unwrap_or(input);
            let (c, h, w) = (x.channels(), x.height(), x.width());
            let flops = layer.flops(c, h, w);
            if *folded {
                // Its clamp ran in the previous layer's write-out.
                reports.push(LayerReport {
                    name: layer.name().to_string(),
                    out_shape: (c, h, w),
                    flops,
                    seconds: 0.0,
                    gemm: ExecStats::default(),
                    folded: true,
                });
                continue;
            }
            let clamp = self.layers.get(i + 1).is_some_and(|&(_, f)| f);
            let _ = self.ctx.take_stats(); // attribute GEMMs to this layer
            let t0 = Instant::now();
            let y = if clamp {
                layer.forward_relu(&self.ctx, x)
            } else {
                layer.forward(&self.ctx, x)
            };
            reports.push(LayerReport {
                name: layer.name().to_string(),
                out_shape: (y.channels(), y.height(), y.width()),
                flops,
                seconds: t0.elapsed().as_secs_f64(),
                gemm: self.ctx.take_stats(),
                folded: false,
            });
            out = Some(y);
        }
        // Only a network without layers returns its input.
        (out.unwrap_or_else(|| input.clone()), reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::ConvGeom;
    use crate::layers::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU};

    fn tiny_net() -> Sequential {
        Sequential::new(CakeConfig::with_threads(1))
            .push(Conv2d::random("conv1", 3, 8, ConvGeom::same(3), 1))
            .push(ReLU)
            .push(MaxPool2d)
            .push(Conv2d::random("conv2", 8, 16, ConvGeom::same(3), 2))
            .push(ReLU)
            .push(GlobalAvgPool)
            .push(Linear::random("fc", 16, 10, 3))
    }

    #[test]
    fn shapes_propagate() {
        let net = tiny_net();
        let shapes = net.shapes(3, 16, 16);
        assert_eq!(shapes[0], (8, 16, 16)); // conv1
        assert_eq!(shapes[2], (8, 8, 8)); // maxpool
        assert_eq!(shapes[3], (16, 8, 8)); // conv2
        assert_eq!(shapes[5], (16, 1, 1)); // gap
        assert_eq!(shapes[6], (10, 1, 1)); // fc
    }

    #[test]
    fn forward_produces_logits_and_reports() {
        let net = tiny_net();
        let input = Tensor::from_matrix(cake_matrix::init::random::<f32>(3, 256, 9), 16, 16);
        let (out, reports) = net.forward(&input);
        assert_eq!((out.channels(), out.height(), out.width()), (10, 1, 1));
        assert_eq!(reports.len(), 7);
        assert!(out.as_matrix().as_slice().iter().all(|x| x.is_finite()));
        // Conv layers dominate FLOPs.
        let conv_flops: u64 = reports
            .iter()
            .filter(|r| r.name.starts_with("conv"))
            .map(|r| r.flops)
            .sum();
        assert!(conv_flops > 9 * reports.iter().map(|r| r.flops).sum::<u64>() / 10);
    }

    #[test]
    fn total_flops_matches_reports() {
        let net = tiny_net();
        let input = Tensor::<f32>::zeros(3, 16, 16);
        let (_, reports) = net.forward(&input);
        let total: u64 = reports.iter().map(|r| r.flops).sum();
        assert_eq!(total, net.total_flops(3, 16, 16));
        assert!(total > 0);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = tiny_net();
        let input = Tensor::from_matrix(cake_matrix::init::random::<f32>(3, 256, 10), 16, 16);
        let (a, _) = net.forward(&input);
        let (b, _) = net.forward(&input);
        assert_eq!(a.as_matrix().as_slice(), b.as_matrix().as_slice());
    }

    #[test]
    fn layer_reports_attribute_gemm_stats() {
        let net = tiny_net();
        let input = Tensor::from_matrix(cake_matrix::init::random::<f32>(3, 256, 11), 16, 16);
        let (_, cold) = net.forward(&input);
        for r in &cold {
            if r.name.starts_with("conv") || r.name == "fc" {
                assert!(r.gemm.blocks > 0, "{} ran a GEMM", r.name);
            } else {
                assert_eq!(r.gemm, cake_core::ExecStats::default(), "{}", r.name);
            }
        }
        // First pass sizes the shared workspace; a second pass over the same
        // shapes must be allocation-free in every layer.
        assert!(cold.iter().any(|r| r.gemm.allocations > 0));
        let (_, warm) = net.forward(&input);
        for r in &warm {
            assert_eq!(r.gemm.allocations, 0, "layer {} allocated when warm", r.name);
        }
    }

    /// A layer of the fold test's nets; `Conv` and `Fc` are f32 or int8.
    #[derive(Clone, Copy)]
    enum Spec {
        Relu,
        Pool,
        Gap,
        Conv { cin: usize, cout: usize, bias: bool },
        Fc { fin: usize, fout: usize },
    }

    /// A ReLU first and a ReLU after it; a conv with a bias, then ReLU (it
    /// sees the input's NaNs); a conv without one, then ReLU; a conv, then
    /// max-pool (whose input has negatives) and two ReLUs; two classifiers
    /// each followed by a ReLU, the last one ending the net.
    const FOLD_NET: [Spec; 15] = [
        Spec::Relu,
        Spec::Relu,
        Spec::Conv { cin: 3, cout: 8, bias: true },
        Spec::Relu,
        Spec::Conv { cin: 8, cout: 8, bias: false },
        Spec::Relu,
        Spec::Conv { cin: 8, cout: 16, bias: true },
        Spec::Pool,
        Spec::Relu,
        Spec::Relu,
        Spec::Gap,
        Spec::Fc { fin: 16, fout: 12 },
        Spec::Relu,
        Spec::Fc { fin: 12, fout: 10 },
        Spec::Relu,
    ];

    fn fold_net(specs: &[Spec], int8: bool, p: usize) -> Sequential {
        use crate::quant::{QuantConv2d, QuantLinear};
        let mut net = Sequential::new(CakeConfig::with_threads(p));
        for (i, &spec) in specs.iter().enumerate() {
            let seed = 40 + i as u64;
            let bias = |n: usize| -> Vec<f32> {
                let b = cake_matrix::init::random::<f32>(1, n, seed + 100);
                b.as_slice().iter().map(|v| v * 0.2).collect()
            };
            net = match spec {
                Spec::Relu => net.push(ReLU),
                Spec::Pool => net.push(MaxPool2d),
                Spec::Gap => net.push(GlobalAvgPool),
                Spec::Conv { cin, cout, bias: b } => {
                    let w = cake_matrix::init::random::<f32>(cout, cin * 9, seed);
                    let b = if b { bias(cout) } else { Vec::new() };
                    if int8 {
                        net.push(QuantConv2d::from_f32("qconv", cin, cout, ConvGeom::same(3), &w, b))
                    } else {
                        net.push(Conv2d::new("conv", cin, cout, ConvGeom::same(3), w, b))
                    }
                }
                Spec::Fc { fin, fout } => {
                    let w = cake_matrix::init::random::<f32>(fout, fin, seed);
                    if int8 {
                        net.push(QuantLinear::from_f32("qfc", &w, bias(fout)))
                    } else {
                        net.push(Linear::new("fc", w, bias(fout)))
                    }
                }
            };
        }
        net
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn folding_relus_changes_no_bit() {
        // One input with NaNs, -0.0s and exact zeros planted among random
        // values, one with only the signed zeros, so the later layers see
        // finite values too.
        let plant = |nan: bool| {
            let r = cake_matrix::init::random::<f32>(3, 12 * 12, 5);
            Tensor::from_fn(3, 12, 12, |c, y, x| match (c + 3 * y + 7 * x) % 11 {
                0 if nan => f32::NAN,
                1 | 2 => -0.0,
                3 => 0.0,
                _ => r.get(c, 12 * y + x),
            })
        };
        for input in [plant(true), plant(false)] {
            for (int8, p) in [(false, 1), (false, 2), (true, 1), (true, 2)] {
                // Each layer's standalone forward, in order.
                let whole = fold_net(&FOLD_NET, int8, p);
                let mut want: Vec<Tensor> = Vec::new();
                for (layer, _) in &whole.layers {
                    let y = layer.forward(&whole.ctx, want.last().unwrap_or(&input));
                    want.push(y);
                }
                // The leading ReLU passes NaN and -0.0 through, so the
                // folded clamps below must too.
                for (v, r) in input.as_slice().iter().zip(want[0].as_slice()) {
                    if v.is_nan() || *v == 0.0 {
                        assert_eq!(v.to_bits(), r.to_bits());
                    }
                }
                // Sequential::forward of every prefix, so every layer's
                // output is compared, folded or not.
                for k in 1..=FOLD_NET.len() {
                    let net = fold_net(&FOLD_NET[..k], int8, p);
                    let (out, reports) = net.forward(&input);
                    let at = format!("int8 = {int8}, p = {p}, {k} layers");
                    assert_eq!(bits(&out), bits(&want[k - 1]), "{at}");
                    assert_eq!(reports.len(), k, "{at}");
                    for (i, r) in reports.iter().enumerate() {
                        let folded = i > 0 && matches!(FOLD_NET[i], Spec::Relu);
                        assert_eq!(r.folded, folded, "{at}: layer {i}");
                        let w = &want[i];
                        assert_eq!(r.out_shape, (w.channels(), w.height(), w.width()), "{at}: layer {i}");
                        if folded {
                            let before = &want[i - 1];
                            assert_eq!(r.out_shape, (before.channels(), before.height(), before.width()));
                            assert_eq!((r.seconds, r.gemm), (0.0, ExecStats::default()), "{at}: layer {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_network_is_identity() {
        let net = Sequential::new(CakeConfig::with_threads(1));
        assert!(net.is_empty());
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| (y + x) as f32);
        let (out, reports) = net.forward(&input);
        assert!(reports.is_empty());
        assert_eq!(out.get(0, 1, 1), 2.0);
    }
}
