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
//!
//! The lowering is one algorithm at vector width. Its unit is a lane
//! group: up to [`LANES`] consecutive patch columns (whole slivers, or a
//! piece of `im2col`'s one sliver) over a pass of [`TILE_K`] patch rows.
//! A pass's row table (each row's input offset and its `dy` and `dx`) is
//! built once per `pack_block` call and shared by every group. A patch row
//! `(c, dy, dx)` reads the input inside the map on the lanes whose output
//! row is valid for `dy` and whose output column is valid for `dx`, so each
//! row's lane mask is the AND of two small tables built by shifts: one mask
//! per `dy` and one per `dx` of the pass. The masks depend on a group only
//! through its first output column, its live lanes and its per-`dy` row
//! ranges, so an interior group reuses the last group's masks and moves the
//! rows by its input offset alone. The other lanes take the pad value, or
//! zero past the last column. Where a row's lanes are contiguous in the
//! input (stride 1, "same" padding or a group inside one output row) the
//! row is one masked read at one offset, which [`LaneCopy`] performs with
//! AVX-512 masked loads (or a portable copy) straight into the kernel's
//! packed layout, AMX tiles included; other groups gather their lanes
//! through the same masks. The crate has no `unsafe`: the lane copy checks
//! each group's reach, the span of every lane its rows load, against the
//! tensor.

use cake_kernels::pack::{
    low_lanes, LaneCopy, LaneRows, LayoutKind, PackB, PackLayout, RowPlace, B_KROWS, LANES, TILE_K, TILE_MAX_NR,
};
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

/// Lanes `lo..hi` of a group, clamped to [`LANES`].
fn span(lo: usize, hi: usize) -> u64 {
    low_lanes(hi) & !low_lanes(lo)
}

/// The lanes `l` of a group whose output column `(ox0 + l) % ow` lies in
/// `x0..x1`, for `ox0 < ow`. An output at least a group wide puts at most
/// two output rows in the group; a narrower one repeats its row pattern
/// every `ow` lanes, built by doubling in 128 bits.
fn col_lanes(ow: usize, ox0: usize, (x0, x1): (usize, usize)) -> u64 {
    if x0 >= x1 {
        return 0;
    }
    if ow >= LANES {
        let next = ow - ox0;
        return span(x0.saturating_sub(ox0), x1.saturating_sub(ox0)) | span(next + x0, next + x1);
    }
    let mut pattern = u128::from(span(x0, x1));
    let mut period = ow;
    while period < 128 {
        pattern |= pattern << period;
        period *= 2;
    }
    (pattern >> ox0) as u64
}

/// Where one pass of up to [`TILE_K`] patch rows reads the input, worked
/// out once per pass and shared by every lane group.
///
/// Patch rows step like an odometer, `dx` fastest: row `i` of a pass
/// starting at `(c, dy0, dx0)` has `dx = (dx0 + i) % kw` and `dy = (dy0 +
/// (dx0 + i) / kw) % kh`. So `i % kw` and `(dx0 + i) / kw % kh` number the
/// pass's distinct `dx` and `dy` values from 0: a group's lane masks are
/// two fixed tables of at most [`TILE_K`] entries each, whatever the
/// kernel size.
struct Block {
    /// Rows in the pass, and `dy` and `dx` slots in use.
    n: usize,
    ny: usize,
    nx: usize,
    /// Row `i`'s input offset at output pixel `(0, 0)`: `c*h*w + (dy -
    /// p)*w + dx - p` in wrapping arithmetic (negative in the padding;
    /// an in-map tap's offset never is).
    base: [usize; TILE_K],
    /// Row `i`'s `dy` and `dx` slots.
    slot: [(usize, usize); TILE_K],
    /// Per `dy` slot, the output rows `y0..y1` whose input row is in the map.
    ys: [(usize, usize); TILE_K],
    /// Per `dx` slot, the output columns `x0..x1` whose input column is in
    /// the map.
    xs: [(usize, usize); TILE_K],
}

/// A convolution's `(C_in*KH*KW) x (OH*OW)` patch matrix as a [`PackB`]
/// operand that is never materialized: each [`PackB::pack_block`] call
/// writes its packed slivers straight from the channel-major `C x H x W`
/// tensor, with `pad` in the padding taps (zero for [`im2col`], the
/// activation zero-point on the quantized path).
///
/// Patch row `(c, dy, dx)` at column `oy*OW + ox` is input pixel
/// `(c, oy*s + dy - p, ox*s + dx - p)`. The packer walks passes of
/// [`TILE_K`] patch rows (one tile step) and, in each, lane groups of at
/// most [`LANES`] columns: whole slivers, or a piece of `im2col`'s one wide
/// sliver. A group's row is in the map on the lanes of its row mask (by
/// `dy`) and its column mask (by `dx`); the other live lanes get `pad`, the
/// lanes past the last column zero. At stride 1 a group inside one output
/// row, or spanning rows of an output as wide as its map ("same" padding),
/// reads each row's lanes at one input offset, and [`LaneCopy`] moves
/// them with masked loads. Any other group gathers its lanes through the
/// same masks into a dense block first.
pub struct LoweredConv<'a, T> {
    src: &'a [T],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    geom: ConvGeom,
    rows: usize,
    pad: T,
    copy: LaneCopy,
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
            copy: LaneCopy::detect(),
        }
    }

    /// The same operand packing through `copy`.
    #[cfg(test)]
    fn with_copy(self, copy: LaneCopy) -> Self {
        Self { copy, ..self }
    }

    /// The input geometry of patch rows `r0..r0 + n`, `n <= TILE_K`.
    fn block(&self, r0: usize, n: usize) -> Block {
        let ConvGeom { kh, kw, stride: s, pad: p } = self.geom;
        let (c0, dy0, dx0) = (r0 / (kh * kw), (r0 / kw) % kh, r0 % kw);
        let mut blk = Block {
            n,
            ny: if n == 0 { 0 } else { kh.min((dx0 + n - 1) / kw + 1) },
            nx: kw.min(n),
            base: [0; TILE_K],
            slot: [(0, 0); TILE_K],
            ys: [(0, 0); TILE_K],
            xs: [(0, 0); TILE_K],
        };
        for (q, y) in blk.ys.iter_mut().enumerate().take(blk.ny) {
            *y = in_map(self.h, (dy0 + q) % kh, p, s, self.oh);
        }
        for (q, x) in blk.xs.iter_mut().enumerate().take(blk.nx) {
            *x = in_map(self.w, (dx0 + q) % kw, p, s, self.ow);
        }
        let (mut c, mut dy, mut dx, mut sy) = (c0, dy0, dx0, 0);
        for (i, (base, slot)) in blk.base.iter_mut().zip(&mut blk.slot).enumerate().take(n) {
            *base = (c * self.h * self.w + dy * self.w + dx).wrapping_sub(p * self.w + p);
            *slot = (sy, i % kw);
            dx += 1;
            if dx == kw {
                (dx, dy, sy) = (0, dy + 1, if sy + 1 == kh { 0 } else { sy + 1 });
                if dy == kh {
                    (dy, c) = (0, c + 1);
                }
            }
        }
        blk
    }

    /// Per `dy` slot of `blk`, the lanes of the group from output column
    /// `j0 = oy*OW + ox` on whose output row reads inside the map, of its
    /// first `live` lanes.
    fn row_lanes(&self, blk: &Block, j0: usize, live: usize) -> [u64; TILE_K] {
        let mut rows_in = [0; TILE_K];
        for (m, &(y0, y1)) in rows_in.iter_mut().zip(&blk.ys).take(blk.ny) {
            *m = span((y0 * self.ow).saturating_sub(j0), (y1 * self.ow).saturating_sub(j0).min(live));
        }
        rows_in
    }

    /// The lane masks of `blk`'s rows over a group whose first lane is at
    /// output column `ox` and whose rows by `dy` slot are `rows_in`: lane
    /// `l` of row `i` is set when its input row (by `dy`) and column (by
    /// `dx`) lie in the map.
    fn masks(&self, blk: &Block, ox: usize, rows_in: &[u64; TILE_K]) -> [u64; TILE_K] {
        let (mut cols_in, mut mask) = ([0u64; TILE_K], [0u64; TILE_K]);
        for (m, &x) in cols_in.iter_mut().zip(&blk.xs).take(blk.nx) {
            *m = col_lanes(self.ow, ox, x);
        }
        for (m, &(sy, sx)) in mask.iter_mut().zip(&blk.slot).take(blk.n) {
            // audit: checked slots are masked to the table size
            *m = rows_in[sy % TILE_K] & cols_in[sx % TILE_K];
        }
        mask
    }

    /// Gather rows `i0 .. i0 + B_KROWS` of `blk` over the lane group from
    /// output pixel `(oy, ox)` on through their `mask`s into `staged`,
    /// `width` lanes per row of which the first `live` are columns: the
    /// group's lanes are not contiguous in the input. Lane `l` at output
    /// pixel `(y, x)` reads `base + s*(y*w + x)`.
    fn gather<'s>(
        &self,
        (blk, i0): (&Block, usize),
        (oy, ox): (usize, usize),
        (width, live): (usize, usize),
        mask: &[u64; TILE_K],
        staged: &'s mut [T; B_KROWS * LANES],
    ) -> LaneRows<'s, T> {
        let s = self.geom.stride;
        let mut pix = [0usize; LANES];
        let (mut y, mut x) = (oy, ox);
        for p in pix.iter_mut().take(live) {
            *p = s * (y * self.w + x);
            x += 1;
            if x == self.ow {
                (y, x) = (y + 1, 0);
            }
        }
        let n = blk.n.saturating_sub(i0).min(B_KROWS);
        let rows = blk.base.iter().zip(mask).skip(i0).take(n);
        for (row, (&base, &m)) in staged.chunks_exact_mut(width.max(1)).zip(rows) {
            for (l, (d, &p)) in row.iter_mut().zip(&pix).enumerate() {
                *d = if m >> l & 1 == 1 {
                    self.src.get(base.wrapping_add(p)).copied().unwrap_or(self.pad)
                } else if l < live {
                    self.pad
                } else {
                    T::ZERO
                };
            }
        }
        LaneRows::dense(staged.as_slice(), width, n)
    }
}

impl<T: Element> PackB<T> for LoweredConv<'_, T> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Pack the block one pass of patch rows at a time: the rows' input
    /// geometry once per pass, then per lane group its row offset and,
    /// when they differ from the last group's, its lane masks, written
    /// k-major or into the slivers' tiles (the AMX layout) by
    /// [`LaneCopy::detect`]'s copy.
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
        let (nr, tiles) = (layout.nr(), layout.kind() == LayoutKind::Tiles);
        let (slivers, sliver_len) = (nl.div_ceil(nr), layout.b_offset(1, kl));
        // A lane group is `per` whole slivers, or a piece of one sliver
        // wider than a group (`im2col`'s).
        let per = (LANES / nr).max(1);
        let mut staged = [T::ZERO; B_KROWS * LANES];
        let mut direct = LaneRows::new(self.src, self.pad);
        // When a lane group holds whole slivers, a pass is one tile step of
        // TILE_K rows, and each group writes its rows of the pass before the
        // next group: each sliver then receives TILE_K contiguous rows.
        // Pieces of a wider sliver take B_KROWS rows a pass, so consecutive
        // groups write each k-major row front to back.
        let (kp, pass) = (layout.k_padded(kl), if nr <= LANES { TILE_K } else { B_KROWS });
        for kb in (0..kp).step_by(pass) {
            let depth = pass.min(kp - kb);
            let blk = self.block(k0 + kb, depth.min(kl.saturating_sub(kb)));
            // A group's masks depend on it only through its first output
            // column, its live lanes and its lanes per `dy` slot: an
            // interior group reuses the last group's masks and rows.
            let (mut mask, mut built) = ([0u64; TILE_K], None);
            // The output pixel of the group's first lane, stepped group by
            // group without a division.
            let (mut oy, mut ox) = (n0 / self.ow, n0 % self.ow);
            for t in (0..slivers).step_by(per) {
                let count = per.min(slivers - t);
                let at = layout.b_offset(t, kl);
                for lane0 in (0..nr).step_by(LANES) {
                    let width = LANES.min(count * nr - lane0);
                    let live = width.min(nl.saturating_sub(t * nr + lane0));
                    let rows_in = self.row_lanes(&blk, oy * self.ow + ox, live);
                    if built != Some((ox, live, rows_in)) {
                        mask = self.masks(&blk, ox, &rows_in);
                        direct.set_rows(live, blk.base.iter().copied().zip(mask).take(blk.n));
                        built = Some((ox, live, rows_in));
                    }
                    // At stride 1, lane `l` reads `base + (oy*w + ox) + l`
                    // when the group lies in one output row, and also across
                    // rows when output row `oy` starts `oy * w` into the
                    // input.
                    let contiguous = self.geom.stride == 1 && (ox + live <= self.ow || self.ow == self.w);
                    let off = oy * self.w + ox;
                    if tiles {
                        // audit: bounds pack_b_tile_group
                        let group = &mut dst[at..at + count * sliver_len];
                        if contiguous {
                            self.copy.write_tiles(&direct, off, group, (nr, sliver_len), (kb, depth));
                        } else {
                            for i0 in (0..depth).step_by(B_KROWS) {
                                let rows = self.gather((&blk, i0), (oy, ox), (width, live), &mask, &mut staged);
                                self.copy.write_tiles(&rows, 0, group, (nr, sliver_len), (kb + i0, B_KROWS));
                            }
                        }
                    } else if blk.n > 0 {
                        let at = at + kb * nr + lane0;
                        let place = RowPlace { width, stride: nr, piece: nr.min(width), piece_stride: sliver_len };
                        // audit: bounds pack_b_lane_group
                        let group = &mut dst[at..at + (count - 1) * sliver_len + (blk.n - 1) * nr + nr.min(width)];
                        if contiguous {
                            self.copy.write_k_major(&direct, off, group, place);
                        } else {
                            for i0 in (0..blk.n).step_by(B_KROWS) {
                                let rows = self.gather((&blk, i0), (oy, ox), (width, live), &mask, &mut staged);
                                let out = group.get_mut(i0 * nr..).unwrap_or_default();
                                self.copy.write_k_major(&rows, 0, out, place);
                            }
                        }
                    }
                    ox += width;
                    while ox >= self.ow {
                        (oy, ox) = (oy + 1, ox - self.ow);
                    }
                }
            }
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
    use cake_matrix::{init, Bf16};
    use proptest::prelude::*;

    fn gemm_conv(input: &Tensor<f32>, weights: &Matrix<f32>, geom: &ConvGeom) -> Tensor<f32> {
        let patches = im2col(input, geom);
        let (oh, ow) = geom.out_dims(input.height(), input.width());
        let mut y = Matrix::<f32>::zeros(weights.rows(), oh * ow);
        cake_core::api::CakeGemm::new(cake_core::api::CakeConfig::with_threads(1))
            .gemm(weights, &patches, &mut y);
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
        fn im2col_matches_per_element_lowering(
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

    /// Both lane copies: the portable one, and the one this host
    /// dispatches when it differs.
    fn copies() -> Vec<LaneCopy> {
        let mut copies = vec![LaneCopy::PORTABLE];
        if LaneCopy::detect() != LaneCopy::PORTABLE {
            copies.push(LaneCopy::detect());
        }
        copies
    }

    /// Every packed-B layout a registered `dtype` kernel reads: k-major
    /// slivers at each kernel's `(mr, nr)`, AMX tiles for the amx kernel.
    /// The tile layout also packs one-tile slivers, which int8 covers too.
    fn registered_layouts(dtype: &str) -> Vec<PackLayout> {
        let token = format!("_{}_", if dtype == "int8" { "i8" } else { dtype });
        let mut layouts: Vec<PackLayout> = cake_kernels::select::REGISTERED_SHAPES
            .into_iter()
            .filter(|(name, _, _)| name.contains(&token))
            .map(|(name, mr, nr)| {
                if name.starts_with("amx_") {
                    PackLayout::tiles(mr, nr)
                } else {
                    PackLayout::k_major(mr, nr)
                }
            })
            .collect();
        if dtype == "int8" {
            layouts.push(PackLayout::tiles(32, 16));
        }
        layouts
    }

    /// The lowered view's `pack_block`, through each lane copy, against
    /// `layout`'s `pack_b` over the same block of `patches`, the per-element
    /// patch matrix, each into a buffer of `sentinel` one sliver longer than
    /// the packed block, as f64 bit patterns: every packed element (the tile
    /// layout's zero K padding included) must be written, and nothing past
    /// it.
    fn check_lowering<T: cake_matrix::Dtype>(
        (input, geom, patches): (&Tensor<T>, &ConvGeom, &Matrix<T>),
        (pad, sentinel): (T, T),
        (k0, kl, n0, nl): (usize, usize, usize, usize),
        layout: &PackLayout,
    ) {
        let len = layout.b_size(kl, nl) + layout.nr();
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        let mut want = vec![sentinel; len];
        layout.pack_b(&patches.view().sub(k0, n0, kl, nl), &mut want);
        for copy in copies() {
            let mut got = vec![sentinel; len];
            LoweredConv::new(input, geom, pad).with_copy(copy).pack_block(k0, n0, kl, nl, &mut got, layout);
            prop_assert_eq!(bits(&got), bits(&want), "{} {:?} block {:?} {:?} {:?}", T::NAME, geom, (k0, kl, n0, nl), layout, copy);
        }
    }

    /// [`check_lowering`] on the block of registered layout `layout` (an
    /// index into the layouts of `T`'s dtype).
    fn check_layout<T: cake_matrix::Dtype>(
        input: &Tensor<T>,
        geom: &ConvGeom,
        pads: (T, T),
        block: (usize, usize, usize, usize),
        layout: usize,
    ) {
        let layouts = registered_layouts(T::NAME);
        let patches = im2col_reference(input, geom, pads.0);
        check_lowering((input, geom, &patches), pads, block, &layouts[layout % layouts.len()]);
    }

    /// Every registered layout of `T`'s dtype lowers `input` exactly: the
    /// whole panel, its blocks of the depth the executor gives a tile-layout
    /// GEMM of this K, and the executor's worker shares at p = 2 and 3
    /// (`split_range` over slivers, so a share can start on an odd sliver
    /// and end with a single one).
    fn check_benchmark_layer<T: cake_matrix::Dtype>(input: &Tensor<T>, pads: (T, T)) {
        let geom = ConvGeom::same(3);
        let patches = im2col_reference(input, &geom, pads.0);
        let (k, n) = (patches.rows(), patches.cols());
        for layout in registered_layouts(T::NAME) {
            let nr = layout.nr();
            let mut blocks = vec![(0, k, 0, n)];
            blocks.extend((320..k).step_by(320).map(|k0| (k0, 320.min(k - k0), 0, n)));
            for p in [2, 3] {
                let shares = (0..p).map(|wid| cake_kernels::pack::split_range(n.div_ceil(nr), p, wid));
                blocks.extend(shares.filter(|s| !s.is_empty()).map(|s| (0, k, s.start * nr, (s.end * nr).min(n) - s.start * nr)));
            }
            for block in blocks {
                check_lowering((input, &geom, &patches), pads, block, &layout);
            }
        }
    }

    #[test]
    fn benchmark_net_layers_lower_exactly_at_every_worker_share() {
        // The benchmark net's conv layers: 3x3 "same" on C_in x H x W of
        // 3x64x64, 32x64x64, 32x32x32, 64x16x16 and 128x8x8, with a nonzero
        // pad value (the int8 zero-point's role).
        for (seed, (cin, hw)) in [(3usize, 64usize), (32, 64), (32, 32), (64, 16), (128, 8)].into_iter().enumerate() {
            let x = Tensor::from_matrix(init::random_i8(cin, hw * hw, seed as u64), hw, hw);
            check_benchmark_layer(&x, (3i8, 99i8));
            let x = Tensor::from_matrix(init::random::<f32>(cin, hw * hw, seed as u64), hw, hw);
            check_benchmark_layer(&x, (-7.5f32, f32::NAN));
        }
    }

    proptest! {
        #[test]
        fn lowered_pack_block_equals_pack_b_of_the_patch_matrix(
            cin in 1usize..4,
            h in 1usize..12,
            w in 1usize..12,
            wide in prop::sample::select(vec![0usize, 0, 0, 53, 58, 118]),
            kh in 1usize..=5,
            kw in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=6,
            same in any::<bool>(),
            layout in 0usize..8,
            whole in 0usize..4,
            pick in 0u64..1 << 40,
            seed in 0u64..500,
        ) {
            // Half the odd-width kernels get "same" padding at stride 1,
            // whose lane groups spanning output rows read one window. One
            // map in three is about a lane group wide or wider.
            let (stride, pad) = if same && kw % 2 == 1 { (1, kw / 2) } else { (stride, pad) };
            let w = w + wide;
            // Kernels wider than the padded input are rejected by
            // out_dims, so only lower geometries that fit.
            let geom = ConvGeom { kh, kw, stride, pad };
            if h + 2 * pad >= kh && w + 2 * pad >= kw {
                let (oh, ow) = geom.out_dims(h, w);
                let (k, n) = (cin * kh * kw, oh * ow);
                // Any k-row range; columns from a multiple of 16 (where the
                // executor's shares start for every registered width
                // from 16 on, mid-output-row whenever `ow` is not a
                // multiple of it) or, every other case, anywhere. One case
                // in four is the whole matrix, whose in-map taps include the
                // tensor's first and last elements.
                let pick = pick as usize;
                let block = if whole == 0 {
                    (0, k, 0, n)
                } else {
                    let k0 = pick % k;
                    let kl = 1 + (pick >> 8) % (k - k0);
                    let n0 = if pick & (1 << 20) == 0 { (pick >> 21) % n.div_ceil(16) * 16 } else { (pick >> 21) % n };
                    let n0 = n0.min(n - 1);
                    (k0, kl, n0, 1 + (pick >> 30) % (n - n0))
                };
                let x = Tensor::from_matrix(init::random::<f32>(cin, h * w, seed), h, w);
                check_layout(&x, &geom, (-7.5, f32::NAN), block, layout);
                let x = Tensor::from_matrix(init::random::<f64>(cin, h * w, seed), h, w);
                check_layout(&x, &geom, (-7.5, f64::NAN), block, layout);
                let x = Tensor::from_matrix(init::random::<Bf16>(cin, h * w, seed), h, w);
                let (pad_bf16, nan_bf16) = (Bf16::from_f64(-7.5), Bf16::from_f64(f64::NAN));
                check_layout(&x, &geom, (pad_bf16, nan_bf16), block, layout);
                let x = Tensor::from_matrix(init::random_i8(cin, h * w, seed), h, w);
                check_layout(&x, &geom, (3i8, 99i8), block, layout);
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
