//! The int8 activation quantizer's two loops: the zero-inclusive range
//! reduction and the element-wise quantize.
//!
//! Both are written once as plain Rust that the compiler vectorizes, and
//! built twice: a portable copy at the target's baseline width (SSE2 on
//! x86_64), and on x86_64 a second copy under
//! `#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq")]`,
//! chosen at run time. The copies compile the same source with the same
//! float operations in the same order, so they return bit-identical
//! results; only the vector width differs.

/// Lanes of the range reduction: independent min/max chains the compiler
/// keeps in vector registers, instead of one serial dependency chain.
const LANES: usize = 16;

/// `1.5 * 2^23`: adding it to an `f32` of magnitude at most `2^22` rounds
/// that value to the nearest integer (ties to even), and the integer is
/// the difference of the sum's bits from this constant's bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `(min(x, 0), max(x, 0))` with NaN ignored, as a fold of `f32::min` /
/// `f32::max` from zero gives.
pub fn zero_inclusive_range(x: &[f32]) -> (f32, f32) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx512_available() {
        // SAFETY: the host supports every feature the copy is built for.
        return unsafe { range_avx512(x) };
    }
    range_body(x)
}

/// `q[i] = quantize(x[i], scale, zero_point)` over the common length of
/// `x` and `q`.
pub fn quantize_into(x: &[f32], q: &mut [i8], scale: f32, zero_point: i32) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx512_available() {
        // SAFETY: the host supports every feature the copy is built for.
        return unsafe { quantize_avx512(x, q, scale, zero_point) };
    }
    quantize_body(x, q, scale, zero_point)
}

/// Whether the AVX-512 copies may run: F, BW, VL and DQ all present.
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn avx512_available() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512dq")
}

/// # Safety
/// The host must support AVX-512 F, BW, VL and DQ.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq")]
unsafe fn range_avx512(x: &[f32]) -> (f32, f32) {
    range_body(x)
}

/// # Safety
/// The host must support AVX-512 F, BW, VL and DQ.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq")]
unsafe fn quantize_avx512(x: &[f32], q: &mut [i8], scale: f32, zero_point: i32) {
    quantize_body(x, q, scale, zero_point)
}

#[inline(always)]
fn range_body(x: &[f32]) -> (f32, f32) {
    let (mut lo, mut hi) = ([0.0f32; LANES], [0.0f32; LANES]);
    let mut chunks = x.chunks_exact(LANES);
    // A NaN compares false and leaves its lane unchanged.
    for chunk in &mut chunks {
        for i in 0..LANES {
            let v = chunk[i];
            lo[i] = if v < lo[i] { v } else { lo[i] };
            hi[i] = if v > hi[i] { v } else { hi[i] };
        }
    }
    for (i, &v) in chunks.remainder().iter().enumerate() {
        lo[i] = if v < lo[i] { v } else { lo[i] };
        hi[i] = if v > hi[i] { v } else { hi[i] };
    }
    let lo = lo.into_iter().fold(0.0, |a, v| if v < a { v } else { a });
    let hi = hi.into_iter().fold(0.0, |a, v| if v > a { v } else { a });
    (lo, hi)
}

#[inline(always)]
fn quantize_body(x: &[f32], q: &mut [i8], scale: f32, zero_point: i32) {
    for (d, &v) in q.iter_mut().zip(x) {
        *d = quantize(v, scale, zero_point);
    }
}

/// `clamp(round(v / scale) + zero_point, -128, 127)`, with `f32::round`'s
/// ties away from zero and NaN mapped to 0, as the `as i8` cast of the
/// f32 formula gives. Written with float adds, compares and bit casts
/// only — no branch, libm call or saturating conversion — so a loop over
/// it vectorizes.
#[inline(always)]
fn quantize(v: f32, scale: f32, zero_point: i32) -> i8 {
    let t = v / scale;
    let nan = t.is_nan();
    // Beyond ±256 the result saturates for every zero-point in
    // [-128, 127]; inside, the rounding below is exact.
    let c = if nan { 0.0 } else { t.clamp(-256.0, 256.0) };
    let biased = c + ROUND_MAGIC;
    let even = biased - ROUND_MAGIC;
    // `c - even` is exact; ±0.5 marks a tie that went to the even
    // neighbour toward zero, which rounding away from zero moves by one.
    let tie = c - even;
    let away = i32::from(tie == 0.5 && c > 0.0) - i32::from(tie == -0.5 && c < 0.0);
    let rounded = (biased.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32) + away;
    let q = (rounded + zero_point).clamp(-128, 127) as i8;
    if nan {
        0
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Range = fn(&[f32]) -> (f32, f32);
    type Quantize = fn(&[f32], &mut [i8], f32, i32);

    /// Both copies of each loop: the portable one, and the AVX-512 one
    /// when the host has it.
    fn copies() -> Vec<(&'static str, Range, Quantize)> {
        let portable: (&'static str, Range, Quantize) = ("portable", range_body, quantize_body);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if avx512_available() {
            // SAFETY: avx512_available() just held, for both closures.
            let avx512: (&'static str, Range, Quantize) =
                ("avx512", |x| unsafe { range_avx512(x) }, |x, q, s, z| unsafe { quantize_avx512(x, q, s, z) });
            return vec![portable, avx512];
        }
        vec![portable]
    }

    /// The per-element quantizer formula `quantize` replaces.
    fn quantize_reference(v: f32, scale: f32, zero_point: i32) -> i8 {
        let v = (v / scale).round() + zero_point as f32;
        v.clamp(-128.0, 127.0) as i8
    }

    #[test]
    fn quantizer_matches_round_formula_bit_for_bit() {
        // Every 9973rd bit pattern (all classes: NaN, ±inf, ±0,
        // subnormals, huge), then exact ties k + 0.5 and their neighbours
        // one ulp either side, through both copies of the loop.
        let mut values: Vec<f32> =
            (0..=u32::MAX / 9973).map(|i| f32::from_bits(i * 9973)).collect();
        for k in -300..300 {
            let tie = (k as f32 + 0.5) * 0.25;
            let (up, down) = (tie.to_bits() + 1, tie.to_bits() - 1);
            values.extend([tie, f32::from_bits(up), f32::from_bits(down)]);
        }
        values.extend([0.0, -0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        let mut q = vec![0i8; values.len()];
        for (name, _, quantize_loop) in copies() {
            for scale in [0.25f32, 7.3e-3, 1.0, 1e-30, 3e30] {
                for zp in [-128, -3, 0, 1, 127] {
                    quantize_loop(&values, &mut q, scale, zp);
                    for (&v, &got) in values.iter().zip(&q) {
                        assert_eq!(
                            got,
                            quantize_reference(v, scale, zp),
                            "{name}: v = {v:e} ({:#x}), scale = {scale:e}, zp = {zp}",
                            v.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_range_matches_serial_min_max_fold() {
        // Lengths around the lane count, NaN anywhere, ±0 and one-signed
        // data (the range always includes 0), through both copies.
        for (name, range, _) in copies() {
            for len in [0usize, 1, 15, 16, 17, 33, 100, 1000] {
                for shift in [-3.0f32, 0.5, 2.0] {
                    let x: Vec<f32> = (0..len)
                        .map(|i| match i % 11 {
                            3 => f32::NAN,
                            5 => -0.0,
                            _ => ((i * 37) % 23) as f32 * 0.5 + shift,
                        })
                        .collect();
                    let lo = x.iter().fold(0.0f32, |a, &v| a.min(v));
                    let hi = x.iter().fold(0.0f32, |a, &v| a.max(v));
                    assert_eq!(range(&x), (lo, hi), "{name}: len {len}, shift {shift}");
                    assert_eq!(zero_inclusive_range(&x), (lo, hi), "dispatch: len {len}");
                }
            }
        }
    }

    #[test]
    fn dispatch_equals_both_copies_on_random_data() {
        let x: Vec<f32> = (0..4099).map(|i| ((i * 7919) % 1000) as f32 * 0.013 - 4.0).collect();
        let mut want = vec![0i8; x.len()];
        quantize_body(&x, &mut want, 0.031, -7);
        for (name, range, quantize_loop) in copies() {
            let mut got = vec![0i8; x.len()];
            quantize_loop(&x, &mut got, 0.031, -7);
            assert_eq!(got, want, "{name}");
            assert_eq!(range(&x), range_body(&x), "{name}");
        }
        let mut got = vec![0i8; x.len()];
        quantize_into(&x, &mut got, 0.031, -7);
        assert_eq!(got, want);
    }
}
