//! im2col lowering: convolution as matrix multiplication.
//!
//! A convolution of a `C_in x H x W` input with `C_out` kernels of size
//! `C_in x KH x KW` (stride `s`, zero padding `p`) equals the GEMM
//!
//! ```text
//! W (C_out x C_in*KH*KW)  x  patches (C_in*KH*KW x OH*OW)  =  Y (C_out x OH*OW)
//! ```
//!
//! which is the per-layer MM the paper's intro refers to. [`im2col`]
//! builds the patch matrix ([`im2col_padded`] with a chosen padding
//! value); [`direct_conv`] is the quadruple-loop reference the tests
//! verify the GEMM path against.

use cake_matrix::{Element, Matrix};

use crate::tensor::Tensor;

/// Convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
}

impl ConvGeom {
    /// Square-kernel geometry.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Self { kh: k, kw: k, stride, pad }
    }

    /// `k x k` kernel, stride 1, "same" padding (odd `k`).
    pub fn same(k: usize) -> Self {
        assert!(k % 2 == 1, "'same' padding requires an odd kernel");
        Self::square(k, 1, k / 2)
    }

    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    /// Panics if the kernel does not fit the padded input.
    pub fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(self.stride > 0, "stride must be positive");
        let ph = h + 2 * self.pad;
        let pw = w + 2 * self.pad;
        assert!(ph >= self.kh && pw >= self.kw, "kernel larger than padded input");
        ((ph - self.kh) / self.stride + 1, (pw - self.kw) / self.stride + 1)
    }
}

/// Build the `(C_in*KH*KW) x (OH*OW)` patch matrix for `input`, with
/// zeros in the padding taps.
pub fn im2col<T: Element>(input: &Tensor<T>, geom: &ConvGeom) -> Matrix<T> {
    im2col_padded(input, geom, T::ZERO)
}

/// Build the patch matrix of [`im2col`] with `pad` in the padding taps.
///
/// Row `(c, dy, dx)` of the patch matrix is, for each output row `oy`,
/// one run of `OW` taps along input row `oy*stride + dy - pad` of channel
/// `c`. Each run is copied in one go from the channel-major input: its
/// in-bounds middle is a contiguous copy at stride 1 and a strided
/// gather otherwise, and the taps left and right of it, or the whole run
/// when the input row falls in the padding, are filled with `pad`. The
/// quantized path passes the activation zero-point, which is what a zero
/// quantizes to.
pub fn im2col_padded<T: Element>(input: &Tensor<T>, geom: &ConvGeom, pad: T) -> Matrix<T> {
    let (h, w) = (input.height(), input.width());
    let (oh, ow) = geom.out_dims(h, w);
    let (kh, kw, s, p) = (geom.kh, geom.kw, geom.stride, geom.pad);
    let src = input.as_slice();
    let mut out = Matrix::zeros(input.channels() * kh * kw, oh * ow);
    for (r, tap) in out.as_mut_slice().chunks_exact_mut(oh * ow).enumerate() {
        let (c, dy, dx) = (r / (kh * kw), (r / kw) % kh, r % kw);
        let plane = &src[c * h * w..(c + 1) * h * w];
        // Output columns whose input column `ox*s + dx - p` lies in
        // `[0, w)`: from ceil((p - dx) / s) up to ceil((w + p - dx) / s).
        let x1 = (w + p).saturating_sub(dx).div_ceil(s).min(ow);
        let x0 = p.saturating_sub(dx).div_ceil(s).min(x1);
        for (oy, run) in tap.chunks_exact_mut(ow).enumerate() {
            let Some(iy) = (oy * s + dy).checked_sub(p).filter(|&iy| iy < h) else {
                run.fill(pad);
                continue;
            };
            let (left, rest) = run.split_at_mut(x0);
            let (mid, right) = rest.split_at_mut(x1 - x0);
            left.fill(pad);
            right.fill(pad);
            if mid.is_empty() {
                continue;
            }
            // x0 is unclamped here, so x0*s + dx >= p.
            let row = &plane[iy * w + x0 * s + dx - p..(iy + 1) * w];
            if s == 1 {
                mid.copy_from_slice(&row[..mid.len()]);
            } else {
                for (d, &v) in mid.iter_mut().zip(row.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
    out
}

/// Direct (quadruple-loop) convolution reference:
/// `weights` is `C_out x (C_in*KH*KW)` in the same row layout as
/// [`im2col`] rows; returns the `C_out x OH x OW` output.
pub fn direct_conv<T: Element>(
    input: &Tensor<T>,
    weights: &Matrix<T>,
    geom: &ConvGeom,
) -> Tensor<T> {
    let (cin, h, w) = (input.channels(), input.height(), input.width());
    assert_eq!(
        weights.cols(),
        cin * geom.kh * geom.kw,
        "weight columns must equal C_in*KH*KW"
    );
    let (oh, ow) = geom.out_dims(h, w);
    let cout = weights.rows();
    let mut out = Tensor::zeros(cout, oh, ow);
    for co in 0..cout {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f64;
                for c in 0..cin {
                    for dy in 0..geom.kh {
                        for dx in 0..geom.kw {
                            let iy = (oy * geom.stride + dy) as isize - geom.pad as isize;
                            let ix = (ox * geom.stride + dx) as isize - geom.pad as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            let wv = weights.get(co, c * geom.kh * geom.kw + dy * geom.kw + dx);
                            acc += wv.to_f64()
                                * input.get(c, iy as usize, ix as usize).to_f64();
                        }
                    }
                }
                out.set(co, oy, ox, T::from_f64(acc));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_matrix::init;
    use proptest::prelude::*;

    fn gemm_conv(input: &Tensor<f32>, weights: &Matrix<f32>, geom: &ConvGeom) -> Tensor<f32> {
        let patches = im2col(input, geom);
        let (oh, ow) = geom.out_dims(input.height(), input.width());
        let mut y = Matrix::<f32>::zeros(weights.rows(), oh * ow);
        cake_core::api::cake_sgemm(
            weights,
            &patches,
            &mut y,
            &cake_core::api::CakeConfig::with_threads(1),
        );
        Tensor::from_matrix(y, oh, ow)
    }

    /// The per-element lowering `im2col_padded` replaces: every patch
    /// entry computed from its own `(row, col)` index.
    fn im2col_reference<T: Element>(input: &Tensor<T>, geom: &ConvGeom, pad: T) -> Matrix<T> {
        let (cin, h, w) = (input.channels(), input.height(), input.width());
        let (oh, ow) = geom.out_dims(h, w);
        Matrix::from_fn(cin * geom.kh * geom.kw, oh * ow, |r, col| {
            let c = r / (geom.kh * geom.kw);
            let dy = (r / geom.kw) % geom.kh;
            let dx = r % geom.kw;
            let iy = ((col / ow) * geom.stride + dy) as isize - geom.pad as isize;
            let ix = ((col % ow) * geom.stride + dx) as isize - geom.pad as isize;
            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                pad
            } else {
                input.get(c, iy as usize, ix as usize)
            }
        })
    }

    #[test]
    fn out_dims_follow_formula() {
        assert_eq!(ConvGeom::same(3).out_dims(8, 8), (8, 8));
        assert_eq!(ConvGeom::square(3, 1, 0).out_dims(8, 8), (6, 6));
        assert_eq!(ConvGeom::square(2, 2, 0).out_dims(8, 8), (4, 4));
        assert_eq!(ConvGeom::square(3, 2, 1).out_dims(7, 7), (4, 4));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel, identity weights: conv == input.
        let input = Tensor::<f32>::from_fn(3, 4, 4, |c, y, x| (c * 16 + y * 4 + x) as f32);
        let weights = init::eye::<f32>(3, 3);
        let geom = ConvGeom::square(1, 1, 0);
        let out = gemm_conv(&input, &weights, &geom);
        for c in 0..3 {
            for y in 0..4 {
                for x in 0..4 {
                    assert_eq!(out.get(c, y, x), input.get(c, y, x));
                }
            }
        }
    }

    #[test]
    fn gemm_conv_matches_direct_conv() {
        let input = Tensor::<f32>::from_fn(3, 9, 7, |c, y, x| ((c + 2 * y + 3 * x) % 5) as f32 - 2.0);
        let geom = ConvGeom::same(3);
        let weights = init::random::<f32>(8, 3 * 9, 42);
        let fast = gemm_conv(&input, &weights, &geom);
        let slow = direct_conv(&input, &weights, &geom);
        cake_matrix::compare::assert_gemm_eq(fast.as_matrix(), slow.as_matrix(), 27);
    }

    #[test]
    fn strided_and_padded_variants_match() {
        let input = Tensor::<f32>::from_fn(2, 8, 8, |c, y, x| ((c * y) as f32 - x as f32) * 0.1);
        for geom in [
            ConvGeom::square(3, 2, 1),
            ConvGeom::square(5, 1, 2),
            ConvGeom::square(2, 2, 0),
            ConvGeom::square(1, 3, 0),
        ] {
            let weights = init::random::<f32>(4, 2 * geom.kh * geom.kw, 7);
            let fast = gemm_conv(&input, &weights, &geom);
            let slow = direct_conv(&input, &weights, &geom);
            cake_matrix::compare::assert_gemm_eq(
                fast.as_matrix(),
                slow.as_matrix(),
                2 * geom.kh * geom.kw,
            );
        }
    }

    #[test]
    fn padding_region_is_zero() {
        // All-ones input and all-ones 3x3 kernel: corner outputs see only
        // 4 of 9 taps.
        let input = Tensor::<f32>::from_fn(1, 4, 4, |_, _, _| 1.0);
        let weights = init::ones::<f32>(1, 9);
        let out = gemm_conv(&input, &weights, &ConvGeom::same(3));
        assert_eq!(out.get(0, 0, 0), 4.0);
        assert_eq!(out.get(0, 0, 1), 6.0);
        assert_eq!(out.get(0, 1, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "larger than padded")]
    fn oversized_kernel_rejected() {
        let _ = ConvGeom::square(9, 1, 0).out_dims(4, 4);
    }

    proptest! {
        #[test]
        fn row_runs_match_per_element_lowering(
            cin in 1usize..4,
            h in 1usize..12,
            w in 1usize..12,
            kh in 1usize..6,
            kw in 1usize..6,
            stride in 1usize..5,
            pad in 0usize..4,
            seed in 0u64..500,
        ) {
            // Kernels wider than the padded input are rejected by
            // out_dims, so only lower geometries that fit.
            let geom = ConvGeom { kh, kw, stride, pad };
            if h + 2 * pad >= kh && w + 2 * pad >= kw {
                let input = Tensor::from_matrix(init::random::<f32>(cin, h * w, seed), h, w);
                let fast = im2col_padded(&input, &geom, -7.5);
                let slow = im2col_reference(&input, &geom, -7.5);
                prop_assert_eq!(fast.as_slice(), slow.as_slice());
                let input8 = Tensor::from_matrix(init::random_i8(cin, h * w, seed), h, w);
                let fast8 = im2col_padded(&input8, &geom, 3);
                prop_assert_eq!(fast8.as_slice(), im2col_reference(&input8, &geom, 3).as_slice());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn conv_equivalence_random(
            cin in 1usize..4,
            cout in 1usize..5,
            h in 3usize..9,
            w in 3usize..9,
            k in prop::sample::select(vec![1usize, 3]),
            stride in 1usize..3,
            seed in 0u64..500,
        ) {
            let geom = ConvGeom::square(k, stride, k / 2);
            let input = Tensor::from_matrix(init::random::<f32>(cin, h * w, seed), h, w);
            let weights = init::random::<f32>(cout, cin * k * k, seed + 1);
            let fast = gemm_conv(&input, &weights, &geom);
            let slow = direct_conv(&input, &weights, &geom);
            let tol = cake_matrix::compare::gemm_tolerance::<f32>(cin * k * k);
            prop_assert!(cake_matrix::approx_eq(fast.as_matrix(), slow.as_matrix(), tol));
        }
    }
}
