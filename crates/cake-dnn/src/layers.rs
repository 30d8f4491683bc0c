//! Network layers, all GEMMs routed through a shared CAKE context.
//!
//! Because every [`Conv2d`] and [`Linear`] GEMM goes through the same
//! [`CakeGemm`] context, they share its persistent [`GemmWorkspace`]
//! (packed-A strips + the B panel ring): after the first forward pass has
//! sized the workspace for the largest layer, subsequent passes run the
//! pipelined executor with **zero** heap allocations — see
//! `LayerReport::gemm` for the per-layer evidence.
//!
//! [`GemmWorkspace`]: cake_core::workspace::GemmWorkspace

use cake_core::api::CakeGemm;
use cake_matrix::Matrix;

use crate::im2col::{ConvGeom, LoweredConv};
use crate::tensor::Tensor;

/// A forward-pass layer over f32 feature maps.
pub trait Layer {
    /// Layer name for reporting.
    fn name(&self) -> &str;

    /// Output shape `(c, h, w)` for an input shape.
    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize);

    /// Forward pass; `ctx` provides the GEMM engine.
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor;

    /// FLOPs for an input shape (0 for elementwise layers by convention).
    fn flops(&self, c: usize, h: usize, w: usize) -> u64;
}

/// 2D convolution as one CAKE GEMM whose B, the input's patch matrix, is
/// lowered from the feature map as it is packed ([`LoweredConv`]).
pub struct Conv2d {
    name: String,
    weights: Matrix<f32>,
    bias: Vec<f32>,
    geom: ConvGeom,
    in_ch: usize,
    out_ch: usize,
}

impl Conv2d {
    /// Build a conv layer; `weights` is `out_ch x (in_ch*kh*kw)`.
    ///
    /// # Panics
    /// Panics if the weight shape does not match the geometry.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        geom: ConvGeom,
        weights: Matrix<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(weights.rows(), out_ch, "weight rows must equal out_ch");
        assert_eq!(
            weights.cols(),
            in_ch * geom.kh * geom.kw,
            "weight cols must equal in_ch*kh*kw"
        );
        assert!(bias.is_empty() || bias.len() == out_ch, "bias length mismatch");
        Self {
            name: name.into(),
            weights,
            bias,
            geom,
            in_ch,
            out_ch,
        }
    }

    /// Random-weight conv layer (for benchmarks and examples).
    pub fn random(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        geom: ConvGeom,
        seed: u64,
    ) -> Self {
        let fan_in = (in_ch * geom.kh * geom.kw) as f64;
        let scale = (2.0 / fan_in).sqrt(); // He initialization
        let w = cake_matrix::init::random::<f32>(out_ch, in_ch * geom.kh * geom.kw, seed);
        let w = Matrix::from_fn(w.rows(), w.cols(), |i, j| w.get(i, j) * scale as f32);
        Self::new(name, in_ch, out_ch, geom, w, vec![0.0; out_ch])
    }
}

impl Layer for Conv2d {
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
        let patches = LoweredConv::new(input, &self.geom, 0.0);
        let (oh, ow) = self.geom.out_dims(input.height(), input.width());
        // audit: cold output accumulator, allocated per layer by contract
        let mut y = Matrix::<f32>::zeros(self.out_ch, oh * ow);
        ctx.gemm(&self.weights, &patches, &mut y);
        // out_dims guarantees oh, ow >= 1, so the chunks are non-empty.
        for (row, &b) in y.as_mut_slice().chunks_exact_mut(oh * ow).zip(&self.bias) {
            for v in row {
                *v += b;
            }
        }
        // audit: cold output tensor wrap, allocated per layer by contract
        Tensor::from_matrix(y, oh, ow)
    }

    fn flops(&self, _c: usize, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.geom.out_dims(h, w);
        2 * (self.out_ch * self.in_ch * self.geom.kh * self.geom.kw * oh * ow) as u64
    }
}

/// Elementwise rectified linear unit.
pub struct ReLU;

impl Layer for ReLU {
    fn name(&self) -> &str {
        "relu"
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        (c, h, w)
    }

    fn forward(&self, _ctx: &CakeGemm, input: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(input.channels(), input.height(), input.width());
        let dst = out.as_mut_slice();
        for (d, &v) in dst.iter_mut().zip(input.as_slice()) {
            // NaN and -0.0 pass through unchanged.
            *d = if v < 0.0 { 0.0 } else { v };
        }
        out
    }

    fn flops(&self, _c: usize, _h: usize, _w: usize) -> u64 {
        0
    }
}

/// 2x2 max pooling with stride 2 (floor semantics).
pub struct MaxPool2d;

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool2"
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        (c, h / 2, w / 2)
    }

    fn forward(&self, _ctx: &CakeGemm, input: &Tensor) -> Tensor {
        let (c, h, w) = (input.channels(), input.height(), input.width());
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Tensor::zeros(c, oh, ow);
        if out.is_empty() {
            return out;
        }
        let planes = input.as_slice().chunks_exact(h * w);
        let out_planes = out.as_mut_slice().chunks_exact_mut(oh * ow);
        for (plane, out_plane) in planes.zip(out_planes) {
            for (y, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
                // Row pair 2y, 2y+1, cut to the 2*ow columns a window reads.
                let top = plane[2 * y * w..][..2 * ow].chunks_exact(2);
                let bottom = plane[(2 * y + 1) * w..][..2 * ow].chunks_exact(2);
                for (o, (t, b)) in out_row.iter_mut().zip(top.zip(bottom)) {
                    *o = f32::NEG_INFINITY.max(t[0]).max(t[1]).max(b[0]).max(b[1]);
                }
            }
        }
        out
    }

    fn flops(&self, _c: usize, _h: usize, _w: usize) -> u64 {
        0
    }
}

/// Global average pooling: `c x h x w -> c x 1 x 1`.
pub struct GlobalAvgPool;

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        "gap"
    }

    fn out_shape(&self, c: usize, _h: usize, _w: usize) -> (usize, usize, usize) {
        (c, 1, 1)
    }

    fn forward(&self, _ctx: &CakeGemm, input: &Tensor) -> Tensor {
        let area = (input.height() * input.width()) as f64;
        Tensor::from_fn(input.channels(), 1, 1, |c, _, _| {
            let mut s = 0.0f64;
            for y in 0..input.height() {
                for x in 0..input.width() {
                    s += input.get(c, y, x) as f64;
                }
            }
            (s / area) as f32
        })
    }

    fn flops(&self, c: usize, h: usize, w: usize) -> u64 {
        (c * h * w) as u64
    }
}

/// Fully connected layer on flattened features (expects `c x 1 x 1` input
/// or flattens larger maps channel-major).
pub struct Linear {
    name: String,
    weights: Matrix<f32>,
    bias: Vec<f32>,
}

impl Linear {
    /// `weights` is `out_features x in_features`.
    pub fn new(name: impl Into<String>, weights: Matrix<f32>, bias: Vec<f32>) -> Self {
        assert!(bias.is_empty() || bias.len() == weights.rows(), "bias length mismatch");
        Self {
            name: name.into(),
            weights,
            bias,
        }
    }

    /// Random-weight linear layer.
    pub fn random(name: impl Into<String>, in_features: usize, out_features: usize, seed: u64) -> Self {
        let w = cake_matrix::init::random::<f32>(out_features, in_features, seed);
        Self::new(name, w, vec![0.0; out_features])
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        assert_eq!(c * h * w, self.weights.cols(), "{}: feature count mismatch", self.name);
        (self.weights.rows(), 1, 1)
    }

    // audit: warm
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        // audit: cold flattened feature staging, allocated per layer by contract
        let x = input.flatten();
        assert_eq!(x.rows(), self.weights.cols(), "{}: feature count mismatch", self.name);
        // audit: cold output accumulator, allocated per layer by contract
        let mut y = Matrix::<f32>::zeros(self.weights.rows(), 1);
        ctx.gemm(&self.weights, &x, &mut y);
        for (i, b) in self.bias.iter().enumerate() {
            y.set(i, 0, y.get(i, 0) + b);
        }
        // audit: cold output tensor wrap, allocated per layer by contract
        Tensor::from_matrix(y, 1, 1)
    }

    fn flops(&self, _c: usize, _h: usize, _w: usize) -> u64 {
        2 * (self.weights.rows() * self.weights.cols()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_core::api::CakeConfig;
    use cake_matrix::init;

    fn ctx() -> CakeGemm {
        CakeGemm::new(CakeConfig::with_threads(1))
    }

    #[test]
    fn conv_forward_matches_direct() {
        let layer = Conv2d::random("c", 3, 6, ConvGeom::same(3), 1);
        let input = Tensor::from_matrix(init::random::<f32>(3, 8 * 8, 2), 8, 8);
        let out = layer.forward(&ctx(), &input);
        let direct = crate::im2col::direct_conv(&input, &layer.weights, &layer.geom);
        cake_matrix::compare::assert_gemm_eq(out.as_matrix(), direct.as_matrix(), 27);
        assert_eq!(layer.out_shape(3, 8, 8), (6, 8, 8));
    }

    #[test]
    fn conv_bias_adds_per_channel() {
        let geom = ConvGeom::square(1, 1, 0);
        let weights = init::eye::<f32>(2, 2);
        let layer = Conv2d::new("b", 2, 2, geom, weights, vec![10.0, 20.0]);
        let input = Tensor::from_fn(2, 2, 2, |c, _, _| c as f32);
        let out = layer.forward(&ctx(), &input);
        assert_eq!(out.get(0, 0, 0), 10.0);
        assert_eq!(out.get(1, 1, 1), 21.0);
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| if (y + x) % 2 == 0 { -1.0 } else { 2.0 });
        let out = ReLU.forward(&ctx(), &input);
        assert_eq!(out.get(0, 0, 0), 0.0);
        assert_eq!(out.get(0, 0, 1), 2.0);
    }

    #[test]
    fn maxpool_takes_window_max() {
        let input = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let out = MaxPool2d.forward(&ctx(), &input);
        assert_eq!(out.height(), 2);
        assert_eq!(out.get(0, 0, 0), 5.0);
        assert_eq!(out.get(0, 1, 1), 15.0);
    }

    #[test]
    fn gap_averages() {
        let input = Tensor::from_fn(2, 2, 2, |c, y, x| (c * 4 + y * 2 + x) as f32);
        let out = GlobalAvgPool.forward(&ctx(), &input);
        assert_eq!(out.get(0, 0, 0), 1.5);
        assert_eq!(out.get(1, 0, 0), 5.5);
    }

    #[test]
    fn linear_matches_manual_product() {
        let w = init::sequential::<f32>(2, 3);
        let layer = Linear::new("fc", w, vec![1.0, -1.0]);
        let input = Tensor::from_fn(3, 1, 1, |c, _, _| (c + 1) as f32);
        let out = layer.forward(&ctx(), &input);
        // row0: 0*1+1*2+2*3 = 8 + 1 = 9; row1: 3+8+15 = 26 - 1 = 25.
        assert_eq!(out.get(0, 0, 0), 9.0);
        assert_eq!(out.get(1, 0, 0), 25.0);
    }

    #[test]
    fn flops_formulas() {
        let conv = Conv2d::random("c", 3, 8, ConvGeom::same(3), 1);
        assert_eq!(conv.flops(3, 10, 10), 2 * 8 * 27 * 100);
        let lin = Linear::random("l", 16, 4, 2);
        assert_eq!(lin.flops(16, 1, 1), 2 * 4 * 16);
        assert_eq!(ReLU.flops(8, 8, 8), 0);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_wrong_channels() {
        let layer = Conv2d::random("c", 3, 4, ConvGeom::same(3), 1);
        let input = Tensor::<f32>::zeros(2, 4, 4);
        let _ = layer.forward(&ctx(), &input);
    }
}
