//! Integration tests for the DNN substrate and the beyond-the-paper
//! extensions (design search, packet machine, executor stats) at the
//! facade-crate level.

use cake::core::api::{CakeConfig, CakeGemm};
use cake::dnn::im2col::{direct_conv, im2col, ConvGeom};
use cake::dnn::quant::{quantize_activations, QuantizedWeights};
use cake::dnn::{
    Conv2d, GlobalAvgPool, Layer, Linear, MaxPool2d, QuantConv2d, ReLU, Sequential, Tensor,
};
use cake::matrix::{init, Element, Matrix};

#[test]
fn cnn_forward_pass_end_to_end() {
    let net = Sequential::new(CakeConfig::with_threads(2))
        .push(Conv2d::random("c1", 3, 16, ConvGeom::same(3), 1))
        .push(ReLU)
        .push(MaxPool2d)
        .push(Conv2d::random("c2", 16, 32, ConvGeom::same(3), 2))
        .push(ReLU)
        .push(GlobalAvgPool)
        .push(Linear::random("fc", 32, 10, 3));

    let input = Tensor::from_matrix(init::random::<f32>(3, 24 * 24, 7), 24, 24);
    let (out, reports) = net.forward(&input);
    assert_eq!(out.channels(), 10);
    assert_eq!(reports.len(), 7);
    assert!(out.as_matrix().as_slice().iter().all(|x| x.is_finite()));
    // Shape propagation agrees with the dry-run API.
    let shapes = net.shapes(3, 24, 24);
    assert_eq!(shapes.last().copied().unwrap(), (10, 1, 1));
}

#[test]
fn conv_as_gemm_equals_direct_convolution_through_facade() {
    let input = Tensor::from_matrix(init::random::<f32>(4, 10 * 12, 11), 10, 12);
    let geom = ConvGeom::square(3, 2, 1);
    let weights = init::random::<f32>(6, 4 * 9, 12);

    let patches = im2col(&input, &geom);
    let (oh, ow) = geom.out_dims(10, 12);
    let mut y = Matrix::<f32>::zeros(6, oh * ow);
    cake::core::api::cake_sgemm(&weights, &patches, &mut y, &CakeConfig::with_threads(2));

    let direct = direct_conv(&input, &weights, &geom);
    cake::matrix::compare::assert_gemm_eq(&y, direct.as_matrix(), 36);
}

#[test]
fn packet_machine_agrees_with_real_gemm() {
    // The Section 6.2 validation path: the packet machine's product must
    // equal the threaded library's product.
    use cake::sim::packet::{simulate_packets, PacketSimConfig};
    let (m, k, n) = (20, 16, 28);
    let a = init::random::<f64>(m, k, 21);
    let b = init::random::<f64>(k, n, 22);

    let cfg = PacketSimConfig::balanced(2, 2, 2, 4.0);
    let (c_packets, res) = simulate_packets(&a, &b, &cfg).unwrap();
    assert_eq!(res.macs, (m * k * n) as u64);

    let mut c_lib = Matrix::<f64>::zeros(m, n);
    cake::core::api::cake_dgemm(&a, &b, &mut c_lib, &CakeConfig::with_threads(2));
    cake::matrix::compare::assert_gemm_eq(&c_packets, &c_lib, k);
}

#[test]
fn design_search_confirms_analytic_shape() {
    use cake::sim::config::CpuConfig;
    use cake::sim::search::{analytic_point, grid_search};
    let cpu = CpuConfig::intel_i9_10900k();
    let searched = grid_search(&cpu, 2304, 4, 4);
    let analytic = analytic_point(&cpu, 2304, 4);
    assert!(analytic.fits_llc);
    assert!(analytic.seconds <= searched.best_point().seconds * 1.12);
}

#[test]
fn executor_stats_reflect_snake_reuse() {
    use cake::core::executor::execute_with_stats;
    use cake::core::pool::ThreadPool;
    use cake::core::shape::CbBlockShape;

    let a = init::random::<f32>(64, 96, 1);
    let b = init::random::<f32>(96, 64, 2);
    let mut c = Matrix::<f32>::zeros(64, 64);
    let shape = CbBlockShape::fixed(2, 16, 32, 32);
    let pool = ThreadPool::new(2);
    let ukr = cake::kernels::best_kernel::<f32>();
    let stats = execute_with_stats(&a.view(), &b.view(), &mut c.view_mut(), &shape, &ukr, &pool);

    // Grid: mb = 2, kb = 3, nb = 2 -> 12 blocks, 11 transitions.
    assert_eq!(stats.blocks, 12);
    // N-outer K-first: B skipped at each m-advance (2), A at each n-advance (1).
    assert_eq!(stats.b_packs_skipped, 2);
    assert_eq!(stats.a_packs_skipped, 1);

    // And the result is still right.
    let mut expected = Matrix::<f32>::zeros(64, 64);
    cake::goto::naive::naive_gemm(&a, &b, &mut expected);
    cake::matrix::compare::assert_gemm_eq(&c, &expected, 96);
}

#[test]
fn blas_scalars_via_facade() {
    use cake::core::api::cake_gemm_scaled;
    let a = init::random::<f32>(12, 8, 31);
    let b = init::random::<f32>(8, 9, 32);
    let c0 = init::ones::<f32>(12, 9);
    let mut c = c0.clone();
    cake_gemm_scaled(3.0f32, &a, &b, 0.5, &mut c, &CakeConfig::with_threads(1));

    let mut ab = Matrix::<f32>::zeros(12, 9);
    cake::goto::naive::naive_gemm(&a, &b, &mut ab);
    let expected = Matrix::from_fn(12, 9, |i, j| 3.0 * ab.get(i, j) + 0.5);
    cake::matrix::compare::assert_gemm_eq(&c, &expected, 8);
}

/// The geometries the bit-identity tests run, each on a 9x12 input that
/// every patch set reads in full: same-3, 5x5 pad 2, 1x1, 3x3 stride 2
/// pad 1, pad > k/2, and 3x3 stride 3.
const GEOMS: [ConvGeom; 6] = [
    ConvGeom { kh: 3, kw: 3, stride: 1, pad: 1 },
    ConvGeom { kh: 5, kw: 5, stride: 1, pad: 2 },
    ConvGeom { kh: 1, kw: 1, stride: 1, pad: 0 },
    ConvGeom { kh: 3, kw: 3, stride: 2, pad: 1 },
    ConvGeom { kh: 3, kw: 3, stride: 1, pad: 2 },
    ConvGeom { kh: 3, kw: 3, stride: 3, pad: 0 },
];

/// A `3 x 9 x 12` input on the grid `k/8` for `k` in `-254..=256`, so the
/// activation range is `[-31.75, 32]`, the scale exactly `63.75/255 = 1/4`
/// and every odd multiple of `1/8` an exact `.5` tie of the quantizer; plus
/// `-0.0` and NaN entries.
fn tie_input(seed: u64) -> Tensor {
    let r = init::random::<f32>(3, 9 * 12, seed);
    let mut x = Matrix::from_fn(3, 9 * 12, |c, i| match (c * 5 + i) % 13 {
        0 => -0.0,
        1 => f32::NAN,
        _ => (r.get(c, i) * 254.0).round() / 8.0,
    });
    x.set(0, 14, -31.75);
    x.set(2, 50, 32.0);
    Tensor::from_matrix(x, 9, 12)
}

fn same_bits(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// im2col as a per-element formula: every patch entry from its own
/// `(row, col)` index.
fn im2col_per_element<T: Element>(input: &Tensor<T>, g: &ConvGeom) -> Matrix<T> {
    let (h, w) = (input.height(), input.width());
    let (oh, ow) = g.out_dims(h, w);
    Matrix::from_fn(input.channels() * g.kh * g.kw, oh * ow, |r, col| {
        let (c, dy, dx) = (r / (g.kh * g.kw), (r / g.kw) % g.kh, r % g.kw);
        let iy = ((col / ow) * g.stride + dy) as isize - g.pad as isize;
        let ix = ((col % ow) * g.stride + dx) as isize - g.pad as isize;
        if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
            T::ZERO
        } else {
            input.get(c, iy as usize, ix as usize)
        }
    })
}

#[test]
fn conv_relu_pool_equal_per_element_formulas() {
    // At p > 1 each worker packs a share of every B panel, starting
    // mid-panel and, on these 9x12 maps, mid-output-row.
    for p in 1..=3 {
        let ctx = CakeGemm::new(CakeConfig::with_threads(p));
        for (gi, g) in GEOMS.iter().enumerate() {
            let x = tie_input(gi as u64);
            let w = init::random::<f32>(5, 3 * g.kh * g.kw, 40 + gi as u64);
            let bias: Vec<f32> = (0..5).map(|o| o as f32 * 0.25 - 0.5).collect();
            let conv = Conv2d::new("c", 3, 5, *g, w.clone(), bias.clone());
            let y = conv.forward(&ctx, &x);
            let r = ReLU.forward(&ctx, &y);
            let pool = MaxPool2d.forward(&ctx, &r);

            // The same chain, element by element, on the same GEMM.
            let patches = im2col_per_element(&x, g);
            assert!(same_bits(&im2col(&x, g), &patches), "p {p}, geom {gi}: im2col");
            let (oh, ow) = g.out_dims(9, 12);
            let mut y_ref = Matrix::<f32>::zeros(5, oh * ow);
            ctx.gemm(&w, &patches, &mut y_ref);
            for (o, b) in bias.iter().enumerate() {
                for i in 0..oh * ow {
                    y_ref.set(o, i, y_ref.get(o, i) + b);
                }
            }
            let mut r_ref = y_ref.clone();
            for v in r_ref.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            let r_t = Tensor::from_matrix(r_ref.clone(), oh, ow);
            let p_ref = Tensor::from_fn(5, oh / 2, ow / 2, |c, i, j| {
                let mut m = f32::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        m = m.max(r_t.get(c, 2 * i + dy, 2 * j + dx));
                    }
                }
                m
            });
            assert!(same_bits(y.as_matrix(), &y_ref), "p {p}, geom {gi}: conv");
            assert!(same_bits(r.as_matrix(), &r_ref), "p {p}, geom {gi}: relu");
            assert!(same_bits(pool.as_matrix(), p_ref.as_matrix()), "p {p}, geom {gi}: maxpool");
        }
    }
}

/// `quantize_activations(patches)` -> naive i32 GEMM -> requantize, the
/// quantized conv spelled out step by step. The quantized patches must
/// also equal the per-element formula: range `[min(x, 0), max(x, 0)]`
/// without NaN, then `clamp(round(x / scale) + zp) as i8`.
fn quant_conv_reference(
    qw: &QuantizedWeights,
    patches: &Matrix<f32>,
    bias: &[f32],
) -> Matrix<f32> {
    let (xq, aq) = quantize_activations(patches);
    let lo = patches.as_slice().iter().fold(0.0f32, |a, &v| a.min(v));
    let hi = patches.as_slice().iter().fold(0.0f32, |a, &v| a.max(v));
    assert_eq!(aq.scale, (hi - lo) / 255.0);
    assert_eq!(aq.zero_point, (-128.0 - lo / aq.scale).round().clamp(-128.0, 127.0) as i32);
    let per_element = Matrix::from_fn(patches.rows(), patches.cols(), |i, j| {
        let v = (patches.get(i, j) / aq.scale).round() + aq.zero_point as f32;
        v.clamp(-128.0, 127.0) as i8
    });
    assert_eq!(xq.as_slice(), per_element.as_slice(), "quantized patches");
    let (m, k) = (qw.q.rows(), qw.q.cols());
    Matrix::from_fn(m, patches.cols(), |o, j| {
        let acc: i32 = (0..k).map(|i| qw.q.get(o, i) as i32 * xq.get(i, j) as i32).sum();
        let y = qw.scales[o] * aq.scale * (acc - aq.zero_point * qw.row_sums[o]) as f32;
        y + bias.get(o).copied().unwrap_or(0.0)
    })
}

#[test]
fn quant_conv_equals_quantized_patches_through_naive_gemm() {
    for p in 1..=3 {
        let ctx = CakeGemm::new(CakeConfig::with_threads(p));
        for (gi, g) in GEOMS.iter().enumerate() {
            let x = tie_input(10 + gi as u64);
            let w = init::random::<f32>(5, 3 * g.kh * g.kw, 60 + gi as u64);
            for bias in [vec![], vec![0.5, -0.25, 0.0, 1.0, -1.0]] {
                let layer = QuantConv2d::from_f32("q", 3, 5, *g, &w, bias.clone());
                let y = layer.forward(&ctx, &x);
                let qw = QuantizedWeights::from_f32(&w);
                let expect = quant_conv_reference(&qw, &im2col(&x, g), &bias);
                assert!(same_bits(y.as_matrix(), &expect), "p {p}, geom {gi}, bias {bias:?}");
            }
        }
    }
}

#[test]
fn quant_conv_past_kernel_stride_uses_the_whole_tensor_range() {
    // A 1x1 stride-2 conv reads only even rows and columns. The outlier
    // sits on an odd pixel, so it sets the per-tensor range but no patch
    // reads it.
    let ctx = CakeGemm::new(CakeConfig::with_threads(1));
    let g = ConvGeom::square(1, 2, 0);
    let mut x = init::random::<f32>(4, 8 * 8, 3);
    x.set(1, 8 + 3, 3.0);
    let x = Tensor::from_matrix(x, 8, 8);
    let w = init::random::<f32>(6, 4, 4);
    let qw = QuantizedWeights::from_f32(&w);
    let y = QuantConv2d::from_f32("q", 4, 6, g, &w, vec![]).forward(&ctx, &x);

    // Quantize the whole input, then lower the int8 tensor.
    let (xq, aq) = quantize_activations(x.as_matrix());
    let patches = im2col(&Tensor::from_matrix(xq, 8, 8), &g);
    let whole = Matrix::from_fn(6, 16, |o, j| {
        let acc: i32 = (0..4).map(|i| qw.q.get(o, i) as i32 * patches.get(i, j) as i32).sum();
        qw.scales[o] * aq.scale * (acc - aq.zero_point * qw.row_sums[o]) as f32
    });
    assert!(same_bits(y.as_matrix(), &whole));
    let patch_range = quant_conv_reference(&qw, &im2col(&x, &g), &[]);
    assert!(!same_bits(y.as_matrix(), &patch_range), "the outlier must move the range");

    // Still an int8 approximation of the f32 conv.
    let exact = Conv2d::new("c", 4, 6, g, w, vec![]).forward(&ctx, &x);
    let max_mag = exact.as_matrix().as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
    for (q, e) in y.as_matrix().as_slice().iter().zip(exact.as_matrix().as_slice()) {
        assert!((q - e).abs() <= 0.05 * max_mag, "{q} vs {e}");
    }
}
