//! im2col lowering: convolution as matrix multiplication.
//!
//! A convolution of a `C_in x H x W` input with `C_out` kernels of size
//! `C_in x KH x KW` (stride `s`, zero padding `p`) equals the GEMM
//!
//! ```text
//! W (C_out x C_in*KH*KW)  x  patches (C_in*KH*KW x OH*OW)  =  Y (C_out x OH*OW)
//! ```
//!
//! which is the per-layer MM the paper's intro refers to. The conv layers
//! never build the patch matrix: [`LoweredConv`] is the patch matrix as a
//! [`PackB`] operand, and the executor packs each worker's share of a B
//! panel straight from the `C x H x W` tensor. [`im2col`] materializes the
//! same patch matrix by running that packer over the whole matrix as one
//! sliver `OH*OW` wide, so the two lowerings cannot drift; [`direct_conv`]
//! is the quadruple-loop reference the tests verify the GEMM path against.

use cake_kernels::pack::{put_b_tile_rows, LayoutKind, PackB, PackLayout, B_KROWS, TILE_MAX_NR};
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

/// The patch matrix of [`im2col`] with `pad` in the padding taps: the
/// lowered packer run over the whole matrix with one sliver `OH*OW` wide,
/// whose packed layout is the row-major matrix.
fn im2col_padded<T: Element>(input: &Tensor<T>, geom: &ConvGeom, pad: T) -> Matrix<T> {
    let lowered = LoweredConv::new(input, geom, pad);
    let (k, n) = (lowered.rows(), lowered.cols());
    let mut out = Matrix::zeros(k, n);
    lowered.pack_block(0, 0, k, n, out.as_mut_slice(), &PackLayout::k_major(1, n));
    out
}

/// Where patch row `(c, dy, dx)` reads the input, worked out once per
/// block of k-rows and hoisted out of the sliver loop.
#[derive(Clone, Copy, Default)]
struct RowGeom {
    /// Output pixel `(oy, ox)` reads input element `base + s*(oy*w + ox)`,
    /// with `base = c*h*w + (dy - pad)*w + dx - pad` in wrapping
    /// arithmetic: `base` itself may be negative, an in-bounds tap's
    /// offset never is.
    base: usize,
    /// Output rows whose input row lies in the map: `y0..y1`.
    y0: usize,
    y1: usize,
    /// Output columns whose input column lies in the map: `x0..x1`.
    x0: usize,
    x1: usize,
}

/// The output positions `lo..hi` (of `out`) whose input position
/// `o*s + d - p` lies in `[0, len)`: from `ceil((p - d) / s)` up to
/// `ceil((len + p - d) / s)`, clamped to `out` and to `lo <= hi`. Stride 1
/// skips the divisions, which would otherwise dominate a layer with few
/// slivers per patch row.
fn in_map(len: usize, d: usize, p: usize, s: usize, out: usize) -> (usize, usize) {
    let ceil = |v: usize| if s == 1 { v } else { v.div_ceil(s) };
    let hi = ceil((len + p).saturating_sub(d)).min(out);
    (ceil(p.saturating_sub(d)).min(hi), hi)
}

/// `out.fill(pad)`, with the one- and two-tap edges of 3x3 and 5x5
/// kernels written directly: a fill of bytes, or of zeros, compiles to a
/// `memset` call, which would cost more than the copy of the window.
#[inline(always)]
fn fill_pad<T: Copy>(out: &mut [T], pad: T) {
    match out {
        [] => {}
        [a] => *a = pad,
        [a, b] => (*a, *b) = (pad, pad),
        _ => out.fill(pad),
    }
}

/// `src[start..start + len]`, or `None` when that leaves `src`.
#[inline(always)]
fn window<T>(src: &[T], start: usize, len: usize) -> Option<&[T]> {
    let (_, rest) = src.split_at_checked(start)?;
    Some(rest.split_at_checked(len)?.0)
}

/// A convolution's `(C_in*KH*KW) x (OH*OW)` patch matrix as a [`PackB`]
/// operand that is never materialized: each [`PackB::pack_block`] call
/// writes its packed slivers straight from the channel-major `C x H x W`
/// tensor, with `pad` in the padding taps (zero for [`im2col`], the
/// activation zero-point on the quantized path).
///
/// Patch row `(c, dy, dx)` at column `oy*OW + ox` is input pixel
/// `(c, oy*s + dy - p, ox*s + dx - p)`. At stride 1, a sliver's piece of
/// one patch row is one input window when the sliver lies in one output
/// row, or spans rows of an output as wide as the map: it is copied at a
/// fixed width and `pad` written over its taps outside the map. Any other
/// piece is walked as one run per output row it spans: `pad`, the in-map
/// taps (contiguous at stride 1, strided beyond), `pad`.
pub struct LoweredConv<'a, T> {
    src: &'a [T],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    geom: ConvGeom,
    rows: usize,
    pad: T,
}

impl<'a, T: Element> LoweredConv<'a, T> {
    /// The patch matrix of `input` under `geom`, with `pad` in the
    /// padding taps.
    ///
    /// # Panics
    /// Panics if the kernel does not fit the padded input.
    pub fn new(input: &'a Tensor<T>, geom: &ConvGeom, pad: T) -> Self {
        let (h, w) = (input.height(), input.width());
        let (oh, ow) = geom.out_dims(h, w);
        Self {
            src: input.as_slice(),
            h,
            w,
            oh,
            ow,
            geom: *geom,
            rows: input.channels() * geom.kh * geom.kw,
            pad,
        }
    }

    /// The input geometry of patch rows `r0..r0 + n`, `n <= B_KROWS`, in
    /// the first `n` entries: row `(c, dy, dx)` steps from `r0`'s like an
    /// odometer, and channel `c`'s plane starts at `c*h*w`.
    fn block_geom(&self, r0: usize, n: usize) -> [RowGeom; B_KROWS] {
        let ConvGeom { kh, kw, stride: s, pad: p } = self.geom;
        let (mut c, mut dy, mut dx) = (r0 / (kh * kw), (r0 / kw) % kh, r0 % kw);
        // `from_fn` fills the entries in index order.
        std::array::from_fn(|i| {
            if i >= n {
                return RowGeom::default();
            }
            let (y0, y1) = in_map(self.h, dy, p, s, self.oh);
            let (x0, x1) = in_map(self.w, dx, p, s, self.ow);
            let base = (c * self.h * self.w + dy * self.w + dx).wrapping_sub(p * self.w + p);
            dx += 1;
            if dx == kw {
                (dx, dy) = (0, dy + 1);
                if dy == kh {
                    (dy, c) = (0, c + 1);
                }
            }
            RowGeom { base, y0, y1, x0, x1 }
        })
    }

    /// [`PackB::pack_block`] with the sliver width `NR` a constant for
    /// the registered kernel widths (`NR = 0` takes it from the layout), so
    /// an interior piece is a fixed-width copy, and `TILES` whether the
    /// layout is [`LayoutKind::Tiles`].
    ///
    /// A k-major layout receives each sliver's pieces of a block of k-rows
    /// in place. The tile layout receives them in an L1 buffer, k-major,
    /// and [`put_b_tile_rows`] interleaves the buffer into the sliver; the
    /// walk then runs on through the padded depth, whose rows are zeros.
    fn pack_slivers<const NR: usize, const TILES: bool>(
        &self,
        k0: usize,
        n0: usize,
        kl: usize,
        nl: usize,
        dst: &mut [T],
        layout: &PackLayout,
    ) {
        let nr = if NR == 0 { layout.nr() } else { NR };
        let slivers = nl.div_ceil(nr);
        let mut staged = [T::ZERO; B_KROWS * TILE_MAX_NR];
        for kb in (0..layout.k_padded(kl)).step_by(B_KROWS) {
            let kn = B_KROWS.min(kl.saturating_sub(kb));
            let rows = self.block_geom(k0 + kb, kn);
            for t in 0..slivers {
                let col0 = n0 + t * nr;
                let live = nr.min(nl - t * nr);
                let (oy, ox) = (col0 / self.ow, col0 % self.ow);
                let block = if TILES {
                    // Rows past the block's last k-row stay zero.
                    let (rows_in, zeros) = staged.split_at_mut(kn * nr);
                    if kn < B_KROWS {
                        zeros.fill(T::ZERO);
                    }
                    rows_in
                } else {
                    let base = layout.b_offset(t, kl) + kb * nr;
                    // audit: bounds pack_b_krow_block
                    &mut dst[base..base + kn * nr]
                };
                let pieces = block.chunks_exact_mut(nr).zip(&rows);
                // At stride 1 a full sliver inside one output row reads one
                // input window per patch row, and so does one spanning
                // rows when the output is as wide as the map ("same"
                // padding): output row `oy` then starts `oy * w` in.
                if live == nr && self.geom.stride == 1 && (ox + nr <= self.ow || self.ow == self.w) {
                    let last = oy + (ox + nr - 1) / self.ow;
                    let off = oy * self.w + ox;
                    for (out, g) in pieces {
                        self.window_piece(out, g, (oy, ox, last), off);
                    }
                } else {
                    for (out, g) in pieces {
                        let (taps, tail) = out.split_at_mut(live);
                        self.each_run(taps, oy, ox, |run, y, x| self.run(run, g, y, x));
                        tail.fill(T::ZERO);
                    }
                }
                if TILES {
                    let at = layout.b_offset(t, kl);
                    // audit: bounds pack_b_tile_sliver
                    put_b_tile_rows(&staged, nr, &mut dst[at..at + layout.b_offset(1, kl)], kb);
                }
            }
        }
    }

    /// A full sliver's piece of patch row `g` from output pixel `(oy, ox)`
    /// through output row `last`, whose taps are the input window at
    /// `g.base + off`: one fixed-width copy, then `pad` over the taps whose
    /// input lies outside the map (none in an interior piece). A window
    /// that leaves the tensor is walked run by run instead.
    #[inline(always)]
    fn window_piece(&self, out: &mut [T], g: &RowGeom, (oy, ox, last): (usize, usize, usize), off: usize) {
        let Some(win) = window(self.src, g.base.wrapping_add(off), out.len()) else {
            self.each_run(out, oy, ox, |run, y, x| self.run(run, g, y, x));
            return;
        };
        out.copy_from_slice(win);
        // A piece spanning rows holds column 0 and column `ow - 1`.
        let cols_outside =
            if last == oy { g.x0 > ox || ox + out.len() > g.x1 } else { g.x0 > 0 || g.x1 < self.ow };
        if oy < g.y0 || last >= g.y1 || cols_outside {
            self.each_run(out, oy, ox, |run, y, x| {
                self.pad_run(run, g, y, x);
            });
        }
    }

    /// Split the taps of the output pixels from `(oy, ox)` on, in
    /// row-major order, into one run per output row, and call
    /// `f(run, row, first column)` on each.
    fn each_run(&self, mut out: &mut [T], mut oy: usize, mut ox: usize, mut f: impl FnMut(&mut [T], usize, usize)) {
        while !out.is_empty() {
            let len = (self.ow - ox).min(out.len());
            let (run, rest) = std::mem::take(&mut out).split_at_mut(len);
            f(run, oy, ox);
            (out, oy, ox) = (rest, oy + 1, 0);
        }
    }

    /// Write `pad` over the taps of patch row `g` at output pixels
    /// `(oy, ox..ox + run.len())` whose input lies outside the map. Returns
    /// the taps inside it and the input offset of the first, or `None`
    /// when the input row is outside the map.
    fn pad_run<'o>(&self, run: &'o mut [T], g: &RowGeom, oy: usize, ox: usize) -> Option<(&'o mut [T], usize)> {
        if oy < g.y0 || oy >= g.y1 {
            run.fill(self.pad);
            return None;
        }
        let a = g.x0.saturating_sub(ox).min(run.len());
        let b = g.x1.saturating_sub(ox).clamp(a, run.len());
        let (taps, right) = run.split_at_mut(b);
        let (left, mid) = taps.split_at_mut(a);
        fill_pad(left, self.pad);
        fill_pad(right, self.pad);
        Some((mid, g.base.wrapping_add(self.geom.stride * (oy * self.w + ox + a))))
    }

    /// Patch row `g`'s taps at output pixels `(oy, ox..ox + run.len())`,
    /// which lie in one output row: `pad`, the in-map taps (a copy at
    /// stride 1, a gather beyond), `pad`.
    fn run(&self, run: &mut [T], g: &RowGeom, oy: usize, ox: usize) {
        let Some((mid, start)) = self.pad_run(run, g, oy, ox) else {
            return;
        };
        let s = self.geom.stride;
        // The last in-map tap is `(mid.len() - 1) * s` past the first.
        let span = (mid.len() * s).saturating_sub(s - 1);
        if let Some(win) = window(self.src, start, span) {
            if s == 1 {
                mid.copy_from_slice(win);
            } else {
                for (d, &v) in mid.iter_mut().zip(win.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

impl<T: Element> PackB<T> for LoweredConv<'_, T> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Pack the block in blocks of [`B_KROWS`] k-rows, as `pack_b` walks
    /// a row-major B: the rows' input geometry once per block, then each
    /// sliver's piece of every row, `B_KROWS * nr` contiguous elements
    /// (k-major), or interleaved into the sliver's tiles (the AMX layout).
    // audit: warm
    // audit: hot
    fn pack_block(&self, k0: usize, n0: usize, kl: usize, nl: usize, dst: &mut [T], layout: &PackLayout) {
        let need = layout.b_size(kl, nl);
        // audit: cold buffer-size precondition, once per pack call before the sliver loop
        assert!(dst.len() >= need, "packed B buffer too small: {} < {need}", dst.len());
        // audit: cold block-extent precondition, once per pack call before the sliver loop
        assert!(k0 + kl <= self.rows && n0 + nl <= self.cols(), "block outside the patch matrix");
        // audit: cold layout precondition, once per pack call before the sliver loop
        assert!(layout.kind() == LayoutKind::KMajor || layout.nr() <= TILE_MAX_NR, "tile slivers are at most two tiles wide");
        match (layout.kind(), layout.nr()) {
            (LayoutKind::KMajor, 8) => self.pack_slivers::<8, false>(k0, n0, kl, nl, dst, layout),
            (LayoutKind::KMajor, 16) => self.pack_slivers::<16, false>(k0, n0, kl, nl, dst, layout),
            (LayoutKind::KMajor, 32) => self.pack_slivers::<32, false>(k0, n0, kl, nl, dst, layout),
            (LayoutKind::KMajor, _) => self.pack_slivers::<0, false>(k0, n0, kl, nl, dst, layout),
            (LayoutKind::Tiles, 32) => self.pack_slivers::<32, true>(k0, n0, kl, nl, dst, layout),
            (LayoutKind::Tiles, _) => self.pack_slivers::<0, true>(k0, n0, kl, nl, dst, layout),
        }
    }
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

    /// The patch matrix per element: every entry computed from its own
    /// `(row, col)` index.
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

    /// The lowered view's `pack_block` and the layout's `pack_b` over the
    /// same block of the per-element patch matrix, each into a buffer of
    /// `sentinel` one sliver longer than the packed block, as f64 bit
    /// patterns: every packed element (the tile layout's zero K padding
    /// included) must be written, and nothing past it.
    fn lowered_and_materialized<T: Element>(
        input: &Tensor<T>,
        geom: &ConvGeom,
        pad: T,
        sentinel: T,
        (k0, kl, n0, nl): (usize, usize, usize, usize),
        layout: &PackLayout,
    ) -> (Vec<u64>, Vec<u64>) {
        let len = layout.b_size(kl, nl) + layout.nr();
        let patches = im2col_reference(input, geom, pad);
        let mut want = vec![sentinel; len];
        layout.pack_b(&patches.view().sub(k0, n0, kl, nl), &mut want);
        let mut got = vec![sentinel; len];
        LoweredConv::new(input, geom, pad).pack_block(k0, n0, kl, nl, &mut got, layout);
        let bits = |v: Vec<T>| v.into_iter().map(|x| x.to_f64().to_bits()).collect();
        (bits(got), bits(want))
    }

    proptest! {
        #[test]
        fn lowered_pack_block_equals_pack_b_of_the_patch_matrix(
            cin in 1usize..4,
            h in 1usize..12,
            w in 1usize..12,
            kh in 1usize..=5,
            kw in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=6,
            same in any::<bool>(),
            nr in prop::sample::select(vec![8usize, 16, 32, 5]),
            tiled in any::<bool>(),
            pick in 0u64..1 << 40,
            seed in 0u64..500,
        ) {
            // Half the odd-width kernels get "same" padding at stride 1,
            // whose slivers spanning output rows take the window path.
            let (stride, pad) = if same && kw % 2 == 1 { (1, kw / 2) } else { (stride, pad) };
            // Kernels wider than the padded input are rejected by
            // out_dims, so only lower geometries that fit.
            let geom = ConvGeom { kh, kw, stride, pad };
            if h + 2 * pad >= kh && w + 2 * pad >= kw {
                let (oh, ow) = geom.out_dims(h, w);
                let (k, n) = (cin * kh * kw, oh * ow);
                // Any k-row range; columns from a sliver boundary (where the
                // executor's shares start, mid-output-row whenever `ow` is
                // not a multiple of `nr`) or, every other case, anywhere.
                let pick = pick as usize;
                let k0 = pick % k;
                let kl = 1 + (pick >> 8) % (k - k0);
                let n0 = if pick & (1 << 20) == 0 {
                    (pick >> 21) % n.div_ceil(nr) * nr
                } else {
                    (pick >> 21) % n
                };
                let nl = 1 + (pick >> 30) % (n - n0);
                let block = (k0, kl, n0, nl);
                // The layout is one more input: k-major at any width, or
                // the AMX tiles at one or two 16-column tiles.
                let layout = if tiled {
                    PackLayout::tiles(32, if nr == 32 { 32 } else { 16 })
                } else {
                    PackLayout::k_major(1, nr)
                };
                let x = Tensor::from_matrix(init::random::<f32>(cin, h * w, seed), h, w);
                let (got, want) = lowered_and_materialized(&x, &geom, -7.5, f32::NAN, block, &layout);
                prop_assert_eq!(got, want, "f32 {:?} block {:?} {:?}", geom, block, layout);
                let x8 = Tensor::from_matrix(init::random_i8(cin, h * w, seed), h, w);
                let (got, want) = lowered_and_materialized(&x8, &geom, 3i8, 99i8, block, &layout);
                prop_assert_eq!(got, want, "i8 {:?} block {:?} {:?}", geom, block, layout);
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
