//! Quantized (int8) inference path over the narrow-dtype kernel tier.
//!
//! Weights are quantized **per output channel** with symmetric scales
//! (`w ≈ s_w[o] * wq`, `wq` in `[-127, 127]`); activations **per tensor**
//! with an affine scale + zero-point (`x ≈ s_x * (xq - z_x)`). The GEMM
//! itself runs entirely in int8 operands with i32 accumulation through the
//! same [`CakeGemm`] context — and therefore the same persistent
//! [`GemmWorkspace`](cake_core::workspace::GemmWorkspace) pools — as the
//! f32 layers, so a warm quantized GEMM is allocation-free. The layer
//! buffers around it (int8 input, i32 accumulator, f32 output) are
//! allocated per layer on every pass, as in the f32 layers.
//!
//! [`QuantConv2d`] runs three steps, each one pass over its data:
//!
//! 1. quantize the `C_in x H x W` input tensor once
//!    ([`quantize_activations`]; the range is taken over the whole
//!    tensor, which equals the range over the patch matrix whenever every
//!    input pixel is read by some patch);
//! 2. the int8 GEMM into an i32 accumulator, with B the int8 tensor's
//!    patch matrix lowered as it is packed ([`LoweredConv`]) and the
//!    zero-point in the padding taps — a zero quantizes to exactly the
//!    zero-point, so this equals quantizing the f32 patch matrix, at 1/4
//!    of the bytes and 1/(KH*KW) of the quantizer work;
//! 3. requantize and add the bias in one row-wise pass, with the row's
//!    scale and zero-point correction hoisted:
//!
//! ```text
//! y[o][j] = s_w[o] * s_x * (acc[o][j] - z_x * rowsum(wq[o])) + bias[o]
//! ```
//!
//! where `acc` is the raw i32 GEMM output and `rowsum(wq[o])` is
//! precomputed at quantization time. The correction is algebraically exact
//! (i32 arithmetic admits no rounding), so the only error versus f32 is
//! the input/weight rounding itself.

use cake_core::api::CakeGemm;
use cake_kernels::pack::PackB;
use cake_kernels::quant::{quantize_into, zero_inclusive_range};
use cake_matrix::Matrix;

use crate::im2col::{ConvGeom, LoweredConv};
use crate::layers::Layer;
use crate::tensor::Tensor;

/// Per-output-channel symmetrically quantized weights.
pub struct QuantizedWeights {
    /// int8 weight matrix, same shape as the f32 original.
    pub q: Matrix<i8>,
    /// Per-row (output channel) dequantization scales.
    pub scales: Vec<f32>,
    /// Per-row sums of `q` — the zero-point correction term.
    pub row_sums: Vec<i32>,
}

impl QuantizedWeights {
    /// Quantize an f32 weight matrix row-by-row: `scale[o]` maps the row's
    /// max-magnitude weight onto ±127, and every entry rounds to nearest.
    /// All-zero rows get scale 1.0 (and an all-zero quantized row).
    pub fn from_f32(w: &Matrix<f32>) -> Self {
        let (m, k) = (w.rows(), w.cols());
        let mut scales = vec![1.0f32; m];
        for (o, scale) in scales.iter_mut().enumerate() {
            let mut amax = 0.0f32;
            for i in 0..k {
                amax = amax.max(w.get(o, i).abs());
            }
            if amax > 0.0 {
                *scale = amax / 127.0;
            }
        }
        let q = Matrix::from_fn(m, k, |o, i| {
            let v = (w.get(o, i) / scales[o]).round();
            v.clamp(-127.0, 127.0) as i8
        });
        let row_sums = (0..m)
            .map(|o| (0..k).map(|i| q.get(o, i) as i32).sum())
            .collect();
        Self { q, scales, row_sums }
    }
}

/// Per-tensor affine activation quantization parameters.
#[derive(Debug, Clone, Copy)]
pub struct ActQuant {
    /// Dequantization scale.
    pub scale: f32,
    /// Zero point, in the i8 domain: `x ≈ scale * (xq - zero_point)`.
    pub zero_point: i32,
}

/// Quantize an f32 activation matrix to int8 with a per-tensor affine
/// mapping of `[min(x, 0), max(x, 0)]` onto `[-128, 127]` (NaN entries are
/// left out of the range and quantize to 0). Including zero in the range
/// guarantees zero is exactly representable — padding and post-ReLU zeros
/// survive quantization bit-exactly. The result has the layout of `x`.
/// The range and quantize loops run at AVX-512 width when the host has it
/// ([`cake_kernels::quant`]), with bit-identical results either way.
// audit: cold activation quantization staging, allocates the int8 activation buffer
pub fn quantize_activations(x: &Matrix<f32>) -> (Matrix<i8>, ActQuant) {
    let (lo, hi) = zero_inclusive_range(x.as_slice());
    let mut q = Matrix::zeros_with_layout(x.rows(), x.cols(), x.layout());
    let range = hi - lo;
    if range == 0.0 {
        return (q, ActQuant { scale: 1.0, zero_point: 0 });
    }
    let scale = range / 255.0;
    let zero_point = (-128.0 - lo / scale).round().clamp(-128.0, 127.0) as i32;
    quantize_into(x.as_slice(), q.as_mut_slice(), scale, zero_point);
    (q, ActQuant { scale, zero_point })
}

/// Run `wq * xq` in int8 through the shared context and requantize to f32
/// with the exact zero-point correction; `xq` is a matrix or a lowered
/// conv input, and `bias` may be empty.
// audit: warm
fn quant_gemm_requant(
    ctx: &CakeGemm,
    wq: &QuantizedWeights,
    xq: &impl PackB<i8>,
    aq: ActQuant,
    bias: &[f32],
) -> Matrix<f32> {
    let (m, n) = (wq.q.rows(), xq.cols());
    // audit: cold int32 accumulator, allocated per layer by contract
    let mut acc = Matrix::<i32>::zeros(m, n);
    ctx.gemm(&wq.q, xq, &mut acc);
    // audit: cold requantized output matrix, allocated per layer by contract
    let mut y = Matrix::<f32>::zeros(m, n);
    let rows = y.as_mut_slice().chunks_exact_mut(n).zip(acc.as_slice().chunks_exact(n));
    for (o, (y_row, acc_row)) in rows.enumerate() {
        let scale = wq.scales[o] * aq.scale;
        let correction = aq.zero_point * wq.row_sums[o];
        let b = bias.get(o).copied().unwrap_or(0.0);
        for (y, &a) in y_row.iter_mut().zip(acc_row) {
            *y = scale * (a - correction) as f32 + b;
        }
    }
    y
}

/// Int8-quantized 2D convolution: quantize the input, int8 CAKE GEMM on
/// its patch matrix lowered as it is packed (the zero-point as padding),
/// fused requantize.
pub struct QuantConv2d {
    name: String,
    weights: QuantizedWeights,
    bias: Vec<f32>,
    geom: ConvGeom,
    in_ch: usize,
    out_ch: usize,
}

impl QuantConv2d {
    /// Quantize an f32 conv layer; `weights` is `out_ch x (in_ch*kh*kw)`.
    ///
    /// # Panics
    /// Panics if the weight shape does not match the geometry.
    pub fn from_f32(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        geom: ConvGeom,
        weights: &Matrix<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(weights.rows(), out_ch, "weight rows must equal out_ch");
        assert_eq!(weights.cols(), in_ch * geom.kh * geom.kw, "weight cols must equal in_ch*kh*kw");
        assert!(bias.is_empty() || bias.len() == out_ch, "bias length mismatch");
        Self {
            name: name.into(),
            weights: QuantizedWeights::from_f32(weights),
            bias,
            geom,
            in_ch,
            out_ch,
        }
    }
}

impl Layer for QuantConv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        assert_eq!(c, self.in_ch, "{}: channel mismatch", self.name);
        let (oh, ow) = self.geom.out_dims(h, w);
        (self.out_ch, oh, ow)
    }

    // audit: warm
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        assert_eq!(input.channels(), self.in_ch, "{}: channel mismatch", self.name);
        let (h, w) = (input.height(), input.width());
        let (xq, aq) = quantize_activations(input.as_matrix());
        // audit: cold quantized input tensor wrap, allocated per layer by contract
        let xq = Tensor::from_matrix(xq, h, w);
        // zero_point is clamped to [-128, 127], so the cast is exact.
        let patches = LoweredConv::new(&xq, &self.geom, aq.zero_point as i8);
        let (oh, ow) = self.geom.out_dims(h, w);
        let y = quant_gemm_requant(ctx, &self.weights, &patches, aq, &self.bias);
        // audit: cold output tensor wrap, allocated per layer by contract
        Tensor::from_matrix(y, oh, ow)
    }

    fn flops(&self, _c: usize, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.geom.out_dims(h, w);
        2 * (self.out_ch * self.in_ch * self.geom.kh * self.geom.kw * oh * ow) as u64
    }
}

/// Int8-quantized fully connected layer.
pub struct QuantLinear {
    name: String,
    weights: QuantizedWeights,
    bias: Vec<f32>,
    in_features: usize,
}

impl QuantLinear {
    /// Quantize an f32 linear layer; `weights` is
    /// `out_features x in_features`.
    pub fn from_f32(name: impl Into<String>, weights: &Matrix<f32>, bias: Vec<f32>) -> Self {
        assert!(bias.is_empty() || bias.len() == weights.rows(), "bias length mismatch");
        Self {
            name: name.into(),
            in_features: weights.cols(),
            weights: QuantizedWeights::from_f32(weights),
            bias,
        }
    }
}

impl Layer for QuantLinear {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        assert_eq!(c * h * w, self.in_features, "{}: feature count mismatch", self.name);
        (self.weights.q.rows(), 1, 1)
    }

    // audit: warm
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        // audit: cold flattened feature staging, allocated per layer by contract
        let x = input.flatten();
        assert_eq!(x.rows(), self.in_features, "{}: feature count mismatch", self.name);
        let (xq, aq) = quantize_activations(&x);
        let y = quant_gemm_requant(ctx, &self.weights, &xq, aq, &self.bias);
        // audit: cold output tensor wrap, allocated per layer by contract
        Tensor::from_matrix(y, 1, 1)
    }

    fn flops(&self, _c: usize, _h: usize, _w: usize) -> u64 {
        2 * (self.weights.q.rows() * self.weights.q.cols()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear};
    use crate::network::Sequential;
    use cake_core::api::CakeConfig;
    use cake_matrix::init;

    fn ctx() -> CakeGemm {
        CakeGemm::new(CakeConfig::with_threads(1))
    }

    /// Max |a - b| relative to the max |b|, over whole tensors.
    fn rel_err(a: &Matrix<f32>, b: &Matrix<f32>) -> f32 {
        let mut max_diff = 0.0f32;
        let mut max_mag = 0.0f32;
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            max_diff = max_diff.max((x - y).abs());
            max_mag = max_mag.max(y.abs());
        }
        if max_mag == 0.0 { max_diff } else { max_diff / max_mag }
    }

    #[test]
    fn weight_quantization_round_trips_within_half_step() {
        let w = init::random::<f32>(6, 20, 7);
        let qw = QuantizedWeights::from_f32(&w);
        for o in 0..6 {
            for i in 0..20 {
                let back = qw.q.get(o, i) as f32 * qw.scales[o];
                assert!(
                    (back - w.get(o, i)).abs() <= qw.scales[o] * 0.5 + 1e-6,
                    "({o},{i}): {back} vs {}",
                    w.get(o, i)
                );
            }
            let s: i32 = (0..20).map(|i| qw.q.get(o, i) as i32).sum();
            assert_eq!(s, qw.row_sums[o]);
        }
    }

    #[test]
    fn activation_quantization_represents_zero_exactly() {
        // All-positive data: without the zero-point, zero would round to
        // the range minimum instead of an exact grid point.
        let x = Matrix::from_fn(3, 5, |i, j| 1.0 + (i * 5 + j) as f32);
        let (q, aq) = quantize_activations(&x);
        assert!(aq.zero_point >= -128 && aq.zero_point <= 127);
        let zero_back = aq.scale * (0 - aq.zero_point + aq.zero_point) as f32;
        assert_eq!(zero_back, 0.0);
        // Every value round-trips within half a quantization step.
        for i in 0..3 {
            for j in 0..5 {
                let back = aq.scale * (q.get(i, j) as i32 - aq.zero_point) as f32;
                assert!((back - x.get(i, j)).abs() <= aq.scale * 0.5 + 1e-5);
            }
        }
    }

    #[test]
    fn constant_activations_quantize_to_zero_without_dividing_by_zero() {
        let x = Matrix::<f32>::zeros(4, 4);
        let (q, aq) = quantize_activations(&x);
        assert!(q.as_slice().iter().all(|&v| v == 0));
        assert_eq!(aq.zero_point, 0);
    }

    #[test]
    fn requantization_matches_scalar_i32_reference_exactly() {
        // The i32 accumulate + zero-point correction admits no rounding:
        // the context's GEMM output must requantize to bit-identical f32
        // versus a naive scalar i32 pipeline.
        let w = init::random::<f32>(9, 31, 11);
        let x = Matrix::from_fn(31, 13, |i, j| ((i * 13 + j) % 17) as f32 * 0.25 - 1.0);
        let qw = QuantizedWeights::from_f32(&w);
        let (xq, aq) = quantize_activations(&x);
        let y = quant_gemm_requant(&ctx(), &qw, &xq, aq, &[]);
        for o in 0..9 {
            for j in 0..13 {
                let mut acc = 0i32;
                for k in 0..31 {
                    acc += qw.q.get(o, k) as i32 * xq.get(k, j) as i32;
                }
                let expect = qw.scales[o] * aq.scale * (acc - aq.zero_point * qw.row_sums[o]) as f32;
                assert_eq!(y.get(o, j), expect, "({o},{j})");
            }
        }
    }

    #[test]
    fn quant_linear_tracks_f32_linear() {
        let w = init::random::<f32>(10, 64, 3);
        let bias: Vec<f32> = (0..10).map(|i| i as f32 * 0.1).collect();
        let f32_layer = Linear::new("fc", w.clone(), bias.clone());
        let q_layer = QuantLinear::from_f32("fcq", &w, bias);
        let input = Tensor::from_matrix(init::random::<f32>(64, 1, 4), 1, 1);
        let exact = f32_layer.forward(&ctx(), &input);
        let quant = q_layer.forward(&ctx(), &input);
        assert_eq!(q_layer.out_shape(64, 1, 1), (10, 1, 1));
        let err = rel_err(quant.as_matrix(), exact.as_matrix());
        assert!(err < 0.05, "relative error {err} too large for int8");
    }

    #[test]
    fn quant_conv_tracks_f32_conv() {
        let geom = ConvGeom::same(3);
        let w = {
            let raw = init::random::<f32>(8, 3 * 9, 5);
            Matrix::from_fn(8, 27, |i, j| raw.get(i, j) * 0.2)
        };
        let f32_layer = Conv2d::new("c", 3, 8, geom, w.clone(), vec![0.0; 8]);
        let q_layer = QuantConv2d::from_f32("cq", 3, 8, geom, &w, vec![0.0; 8]);
        let input = Tensor::from_matrix(init::random::<f32>(3, 100, 6), 10, 10);
        let exact = f32_layer.forward(&ctx(), &input);
        let quant = q_layer.forward(&ctx(), &input);
        assert_eq!(q_layer.out_shape(3, 10, 10), (8, 10, 10));
        let err = rel_err(quant.as_matrix(), exact.as_matrix());
        assert!(err < 0.05, "relative error {err} too large for int8");
    }

    #[test]
    fn quantized_network_is_warm_alloc_free() {
        // Mixed f32 + int8 layers share one context: after the first pass
        // has sized both dtype pools, every layer — including the int8
        // GEMMs — must run allocation-free.
        let wq = init::random::<f32>(10, 16, 21);
        let net = Sequential::new(CakeConfig::with_threads(1))
            .push(Conv2d::random("conv", 3, 8, ConvGeom::same(3), 1))
            .push(QuantConv2d::from_f32(
                "qconv",
                8,
                16,
                ConvGeom::same(3),
                &init::random::<f32>(16, 72, 20),
                vec![0.0; 16],
            ))
            .push(crate::layers::GlobalAvgPool)
            .push(QuantLinear::from_f32("qfc", &wq, vec![0.0; 10]));
        let input = Tensor::from_matrix(init::random::<f32>(3, 64, 22), 8, 8);
        let (_, cold) = net.forward(&input);
        assert!(cold.iter().any(|r| r.gemm.allocations > 0), "cold pass must size pools");
        let (out, warm) = net.forward(&input);
        assert_eq!((out.channels(), out.height(), out.width()), (10, 1, 1));
        for r in &warm {
            assert_eq!(r.gemm.allocations, 0, "layer {} allocated when warm", r.name);
        }
    }
}
