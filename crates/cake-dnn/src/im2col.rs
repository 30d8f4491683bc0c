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
//!
//! The patch rows come in one of two orders ([`KOrder`]). [`im2col`]'s is
//! `(c, dy, dx)`. The other, [`KOrder::Groups`], is the order in which the
//! AMX kernel reads an int8 convolution's B in place from its input stored
//! as 4-channel groups (`cake_dnn::quant`): `(dx, dy·G + c/4, c % 4)`,
//! padded per `dx` to whole 16s of `dy·G + c/4`. A layer whose weights
//! take that order, but whose output does not tile into whole slivers,
//! lowers through [`LoweredConv`] in the same order: its row table maps
//! each row to its tap, or to a padding row (zero weights, the pad value),
//! so `LoweredConv` stays the only lowering.

use cake_kernels::pack::{
    low_lanes, LaneCopy, LaneRows, LayoutKind, PackB, PackLayout, RowPlace, TiledB, B_KROWS, LANES, MAX_B_STEPS,
    TILE_K, TILE_KGROUP, TILE_MAX_NR, TILE_ROWS,
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

/// The order of a convolution's patch rows, its GEMM's `K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KOrder {
    /// `(c, dy, dx)`, `dx` fastest: row `(c*KH + dy)*KW + dx`, so `K =
    /// C_in*KH*KW`. The weights' row-major columns and [`im2col`]'s rows.
    Channels,
    /// Over 4-channel groups (`C_in` a multiple of 4), the order the AMX
    /// kernel reads B tiles in place: row `(dx*T + t)*4 + c % 4` with `t =
    /// dy*G + c/4`, `G = C_in/4`, and `T` = `KH*G` rounded up to a multiple
    /// of 16, so `K = KW*T*4`. Rows with `t >= KH*G` are padding rows, with
    /// zero weights. Each 64-row k-step is one `dx` and 16 consecutive `t`:
    /// 16 consecutive `(dy, c/4)` pairs, one tile row each.
    Groups,
}

impl KOrder {
    /// `T`, the group rows per `dx` of [`KOrder::Groups`].
    fn group_rows(cin: usize, geom: &ConvGeom) -> usize {
        (geom.kh * (cin / TILE_KGROUP)).next_multiple_of(TILE_ROWS)
    }

    /// Patch rows (`K`) of a `cin`-channel input under `geom`.
    pub fn rows(self, cin: usize, geom: &ConvGeom) -> usize {
        match self {
            KOrder::Channels => cin * geom.kh * geom.kw,
            KOrder::Groups => geom.kw * Self::group_rows(cin, geom) * TILE_KGROUP,
        }
    }

    /// The tap `(c, dy, dx)` patch row `r` reads, or `None` for a padding
    /// row.
    pub fn tap(self, r: usize, cin: usize, geom: &ConvGeom) -> Option<(usize, usize, usize)> {
        self.taps(r, cin, geom).next().flatten()
    }

    /// The taps of patch rows `r0, r0 + 1, ..`, the first divided out of
    /// `r0` and each next one stepped from the last.
    fn taps(self, r0: usize, cin: usize, geom: &ConvGeom) -> Taps {
        let (kh, kw) = (geom.kh, geom.kw);
        let (groups, group_rows) = (cin / TILE_KGROUP, Self::group_rows(cin, geom));
        let mut at = Taps { order: self, kh, kw, groups, group_rows, c: 0, dy: 0, dx: 0, t: 0, g: 0 };
        match self {
            KOrder::Channels => (at.c, at.dy, at.dx) = (r0 / (kh * kw), r0 / kw % kh, r0 % kw),
            KOrder::Groups => {
                let t = r0 / TILE_KGROUP % group_rows;
                (at.c, at.t, at.dx) = (r0 % TILE_KGROUP, t, r0 / TILE_KGROUP / group_rows);
                (at.g, at.dy) = (t % groups, t / groups);
            }
        }
        at
    }

    /// Weights `w`, `C_out x C_in*KH*KW` in [`KOrder::Channels`], with
    /// their columns in this order: a padding row's column is zero.
    pub fn reorder<T: Element>(self, w: &Matrix<T>, cin: usize, geom: &ConvGeom) -> Matrix<T> {
        let (kh, kw) = (geom.kh, geom.kw);
        Matrix::from_fn(w.rows(), self.rows(cin, geom), |o, r| {
            self.tap(r, cin, geom).map_or(T::ZERO, |(c, dy, dx)| w.get(o, (c * kh + dy) * kw + dx))
        })
    }
}

/// The taps of consecutive patch rows in one [`KOrder`], stepped like an
/// odometer: in [`KOrder::Channels`] `dx` fastest, then `dy`, then `c`; in
/// [`KOrder::Groups`] `c % 4` fastest, then `t` (its `c / 4` and `dy`
/// beside it), then `dx`, a row with `dy >= KH` padding (`None`).
#[derive(Clone, Copy, Debug)]
struct Taps {
    order: KOrder,
    kh: usize,
    kw: usize,
    /// `G` and `T` of [`KOrder::Groups`].
    groups: usize,
    group_rows: usize,
    /// The next row's `c`, `dy` and `dx`; in [`KOrder::Groups`] `c` is
    /// `c % 4`, beside `t` and `g = c / 4`.
    c: usize,
    dy: usize,
    dx: usize,
    t: usize,
    g: usize,
}

impl Iterator for Taps {
    type Item = Option<(usize, usize, usize)>;

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        Some(match self.order {
            KOrder::Channels => {
                let tap = (self.c, self.dy, self.dx);
                self.dx += 1;
                if self.dx == self.kw {
                    (self.dx, self.dy) = (0, self.dy + 1);
                    if self.dy == self.kh {
                        (self.dy, self.c) = (0, self.c + 1);
                    }
                }
                Some(tap)
            }
            KOrder::Groups => {
                let tap = (self.dy < self.kh).then_some((self.g * TILE_KGROUP + self.c, self.dy, self.dx));
                self.c += 1;
                if self.c == TILE_KGROUP {
                    (self.c, self.t, self.g) = (0, self.t + 1, self.g + 1);
                    if self.g == self.groups {
                        (self.g, self.dy) = (0, self.dy + 1);
                    }
                    if self.t == self.group_rows {
                        (self.t, self.g, self.dy, self.dx) = (0, 0, 0, self.dx + 1);
                    }
                }
                tap
            }
        })
    }
}

/// A convolution input stored as 4-channel groups, halo-padded, whose
/// [`KOrder::Groups`] patch matrix the AMX kernel reads in place: the
/// layout `[H + 2p + e][C_in/4][W + 2p][4]`, where a dword holds one
/// pixel's 4 channels of a group and `e` spare rows cover the padding rows
/// of the last output row.
///
/// Output pixel `(oy, ox)` at group row `t = dy*G + c/4` and column `dx`
/// reads the dword at `((oy*G + t)*(W + 2p) + ox + dx)*4`: layout row `oy*G
/// + t` is image row `oy + t/G`, group `t % G`. So the 16 tile rows of one
/// B tile (16 output pixels of one output row, 16 consecutive `t`) are
/// `(W + 2p)*4` elements apart, and its k-step `(dx, t/16)` starts
/// `(t/16)*16*(W + 2p)*4 + dx*4` after the tile's first pixel
/// ([`TiledB`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupedInput {
    rows: usize,
    groups: usize,
    wp: usize,
    cols: usize,
    ow: usize,
    kw: usize,
    per_dx: usize,
}

impl GroupedInput {
    /// The layout of a `cin x h x w` input under `geom`, when its patch
    /// matrix can be read in place: stride 1, `cin` a positive multiple of
    /// 4, an output that tiles into whole slivers (`OW % 16 == 0`, `OH*OW %
    /// 32 == 0`) and k-steps that fit a [`TiledB`]; `None` otherwise.
    pub fn new(cin: usize, (h, w): (usize, usize), geom: &ConvGeom) -> Option<Self> {
        let (oh, ow) = geom.out_dims(h, w);
        let groups = cin / TILE_KGROUP;
        let t = KOrder::Groups.rows(cin, geom) / TILE_KGROUP / geom.kw.max(1);
        let per_dx = t / TILE_ROWS;
        let fits = geom.stride == 1
            && groups > 0
            && cin.is_multiple_of(TILE_KGROUP)
            && ow.is_multiple_of(TILE_ROWS)
            && (oh * ow).is_multiple_of(TILE_MAX_NR)
            && geom.kw * per_dx <= MAX_B_STEPS;
        // The last output row's group row T - 1 is image row oh - 1 + (T -
        // 1) / G, up to e rows past the bottom halo.
        let spare = t.div_ceil(groups.max(1)).saturating_sub(geom.kh);
        fits.then_some(Self {
            rows: h + 2 * geom.pad + spare,
            groups,
            wp: w + 2 * geom.pad,
            cols: oh * ow,
            ow,
            kw: geom.kw,
            per_dx,
        })
    }

    /// Rows of the layout, the halo and the spare rows included.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements of the layout.
    pub fn len(&self) -> usize {
        self.rows * self.groups * self.wp * TILE_KGROUP
    }

    /// Whether the layout holds no element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The [`KOrder::Groups`] patch matrix of the input stored in `src` in
    /// this layout, read in place; `None` when `src` is shorter than the
    /// layout.
    pub fn patches<'a, T: Element>(&self, src: &'a [T]) -> Option<TiledB<'a, T>> {
        let row = self.wp * TILE_KGROUP;
        let mut steps = [0usize; MAX_B_STEPS];
        for (s, at) in steps.iter_mut().enumerate().take(self.kw * self.per_dx) {
            *at = s % self.per_dx * TILE_ROWS * row + s / self.per_dx * TILE_KGROUP;
        }
        let steps = steps.get(..self.kw * self.per_dx)?;
        TiledB::new(src.get(..self.len())?, self.cols, (self.ow, self.groups * row), row, steps)
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

/// Slot of value `v` in a pass whose first value is `v0`: `(v - v0) mod
/// period`, for `v, v0 < period`.
fn slot_of(v: usize, v0: usize, period: usize) -> usize {
    if v >= v0 {
        v - v0
    } else {
        v + period - v0
    }
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
/// A row reads tap `(c, dy, dx)`. In either [`KOrder`] a pass's `dy`
/// values run cyclically from its first tap's `dy0`: up by one and from
/// `KH - 1` back to 0 (in [`KOrder::Channels`] at each wrap of `dx`, in
/// [`KOrder::Groups`] where `dx` moves on). So `(dy - dy0) mod KH` numbers
/// the pass's distinct `dy` values from 0 as they first appear, and
/// `(dx - dx0) mod KW` its `dx` values: a group's lane masks are two
/// fixed tables of at most [`TILE_K`] entries each, whatever the kernel
/// size.
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
///
/// The rows are in [`KOrder::Channels`] order, or in another [`KOrder`]
/// ([`with_order`](Self::with_order)).
pub struct LoweredConv<'a, T> {
    src: &'a [T],
    cin: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    geom: ConvGeom,
    order: KOrder,
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
            cin: input.channels(),
            h,
            w,
            oh,
            ow,
            geom: *geom,
            order: KOrder::Channels,
            rows: input.channels() * geom.kh * geom.kw,
            pad,
            copy: LaneCopy::detect(),
        }
    }

    /// The same patch matrix with its rows in `order`.
    pub fn with_order(self, order: KOrder) -> Self {
        Self { order, rows: order.rows(self.cin, &self.geom), ..self }
    }

    /// The same operand packing through `copy`.
    #[cfg(test)]
    fn with_copy(self, copy: LaneCopy) -> Self {
        Self { copy, ..self }
    }

    /// The input geometry of patch rows `r0..r0 + n`, `n <= TILE_K`, row by
    /// row from the order's taps ([`KOrder::tap`]); a padding row reads
    /// nothing.
    fn block(&self, r0: usize, n: usize) -> Block {
        let ConvGeom { kh, kw, stride: s, pad: p } = self.geom;
        let mut blk = Block {
            n,
            ny: 0,
            nx: 0,
            base: [0; TILE_K],
            slot: [(0, 0); TILE_K],
            ys: [(0, 0); TILE_K],
            xs: [(0, 0); TILE_K],
        };
        let mut taps = self.order.taps(r0, self.cin, &self.geom);
        // The pass's first `dy` and `dx`, and the slots in use (kept out of
        // `blk` while its rows are written).
        let (mut first, mut ys, mut xs) = (None, 0u64, 0u64);
        for (base, slot) in blk.base.iter_mut().zip(&mut blk.slot).take(n) {
            let Some(Some((c, dy, dx))) = taps.next() else {
                // A padding row takes the last `dy` slot, which a pass with
                // a padding row never fills (it has fewer than TILE_K
                // taps), so its lane masks stay empty.
                *slot = (TILE_K - 1, 0);
                continue;
            };
            let &mut (dy0, dx0) = first.get_or_insert((dy, dx));
            let (sy, sx) = (slot_of(dy, dy0, kh), slot_of(dx, dx0, kw));
            *slot = (sy, sx);
            *base = (c * self.h * self.w + dy * self.w + dx).wrapping_sub(p * self.w + p);
            (ys, xs) = (ys | 1 << (sy % TILE_K), xs | 1 << (sx % TILE_K));
        }
        // Slots are numbered from 0 as values first appear.
        let (dy0, dx0) = first.unwrap_or_default();
        (blk.ny, blk.nx) = (ys.count_ones() as usize, xs.count_ones() as usize);
        for (q, y) in blk.ys.iter_mut().enumerate().take(blk.ny) {
            *y = in_map(self.h, (dy0 + q) % kh, p, s, self.oh);
        }
        for (q, x) in blk.xs.iter_mut().enumerate().take(blk.nx) {
            *x = in_map(self.w, (dx0 + q) % kw, p, s, self.ow);
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
        reference_in(KOrder::Channels, input, geom, pad)
    }

    /// [`im2col_reference`] with the rows in `order`: a padding row holds
    /// `pad`.
    fn reference_in<T: Element>(order: KOrder, input: &Tensor<T>, geom: &ConvGeom, pad: T) -> Matrix<T> {
        let (cin, h, w) = (input.channels(), input.height(), input.width());
        let (oh, ow) = geom.out_dims(h, w);
        Matrix::from_fn(order.rows(cin, geom), oh * ow, |r, col| {
            let Some((c, dy, dx)) = order.tap(r, cin, geom) else {
                return pad;
            };
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
        check_lowering_in(KOrder::Channels, (input, geom, patches), (pad, sentinel), (k0, kl, n0, nl), layout)
    }

    /// [`check_lowering`] with the rows in `order`.
    fn check_lowering_in<T: cake_matrix::Dtype>(
        order: KOrder,
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
            LoweredConv::new(input, geom, pad).with_order(order).with_copy(copy).pack_block(k0, n0, kl, nl, &mut got, layout);
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

    #[test]
    fn group_order_lowers_exactly_at_every_worker_share() {
        // Group order over 4-channel groups: C_in 4 (T = 16, a padding row
        // run per dx), 8 (T = 16) and 32 (T = 32, K 384: conv2's), kernel
        // sizes 1, 3 and 5, maps that do and do not fill a lane group, and
        // blocks starting at every 64-row step and mid-step.
        for (seed, (cin, h, w, k)) in [(4usize, 5usize, 9usize, 3usize), (8, 8, 8, 3), (32, 6, 20, 3), (4, 3, 16, 5), (8, 4, 70, 1)]
            .into_iter()
            .enumerate()
        {
            let geom = ConvGeom::same(k);
            let x = Tensor::from_matrix(init::random_i8(cin, h * w, seed as u64), h, w);
            let patches = reference_in(KOrder::Groups, &x, &geom, 3i8);
            let (rows, n) = (patches.rows(), patches.cols());
            assert_eq!(rows % 64, 0, "group order pads every dx to whole 16s of t");
            for layout in registered_layouts("int8") {
                let nr = layout.nr();
                let mut blocks = vec![(0, rows, 0, n), (64, rows - 64, 0, n), (36, 100.min(rows - 36), 0, n)];
                for p in [2, 3] {
                    let shares = (0..p).map(|wid| cake_kernels::pack::split_range(n.div_ceil(nr), p, wid));
                    blocks.extend(shares.filter(|s| !s.is_empty()).map(|s| (0, rows, s.start * nr, (s.end * nr).min(n) - s.start * nr)));
                }
                for block in blocks {
                    check_lowering_in(KOrder::Groups, (&x, &geom, &patches), (3i8, 99i8), block, &layout);
                }
            }
            let xf = Tensor::from_matrix(init::random::<f32>(cin, h * w, seed as u64), h, w);
            let patches = reference_in(KOrder::Groups, &xf, &geom, -7.5f32);
            for layout in registered_layouts("f32") {
                check_lowering_in(KOrder::Groups, (&xf, &geom, &patches), (-7.5, f32::NAN), (0, rows, 0, n), &layout);
            }
        }
    }

    #[test]
    fn taps_step_as_each_order_numbers_its_rows() {
        // The stepped taps from any start row against each order's row
        // formula: (c, dy, dx) with dx fastest, and (dx*T + t)*4 + c % 4
        // with t = dy*G + c/4, t >= KH*G a padding row.
        for (cin, kh, kw) in [(4, 3, 3), (8, 1, 1), (12, 5, 2), (32, 3, 3), (4, 1, 5), (64, 2, 1)] {
            let geom = ConvGeom { kh, kw, stride: 1, pad: 0 };
            let (g, t_rows) = (cin / 4, (kh * cin / 4).next_multiple_of(16));
            let channels = |r: usize| Some((r / (kh * kw), r / kw % kh, r % kw));
            let groups = |r: usize| {
                let (dx, t) = (r / 4 / t_rows, r / 4 % t_rows);
                (t < kh * g).then_some((t % g * 4 + r % 4, t / g, dx))
            };
            for (order, want) in [(KOrder::Channels, &channels as &dyn Fn(usize) -> _), (KOrder::Groups, &groups)] {
                let rows = order.rows(cin, &geom);
                for r0 in (0..rows).step_by(7).chain([rows - 1]) {
                    let got: Vec<_> = order.taps(r0, cin, &geom).take(rows - r0).collect();
                    let want: Vec<_> = (r0..rows).map(want).collect();
                    assert_eq!(got, want, "{order:?} cin {cin} {kh}x{kw} from row {r0}");
                }
            }
        }
    }

    #[test]
    fn group_order_reorders_weights_to_the_same_products() {
        // Every tap's weight moves to its row; padding rows' weights are 0.
        let (cin, geom) = (8, ConvGeom::same(3));
        let w = init::random::<f32>(5, cin * 9, 3);
        let g = KOrder::Groups.reorder(&w, cin, &geom);
        assert_eq!((g.rows(), g.cols()), (5, KOrder::Groups.rows(cin, &geom)));
        assert_eq!(KOrder::Groups.rows(cin, &geom), 3 * 16 * 4);
        for r in 0..g.cols() {
            for o in 0..5 {
                let want = KOrder::Groups.tap(r, cin, &geom).map_or(0.0, |(c, dy, dx)| w.get(o, (c * 3 + dy) * 3 + dx));
                assert_eq!(g.get(o, r), want);
            }
        }
        let taps = (0..g.cols()).filter_map(|r| KOrder::Groups.tap(r, cin, &geom)).count();
        assert_eq!(taps, cin * 9, "every tap once");
        assert_eq!(KOrder::Channels.reorder(&w, cin, &geom).as_slice(), w.as_slice());
    }

    #[test]
    fn grouped_input_exists_where_the_output_tiles() {
        let geom = ConvGeom::same(3);
        let layout = GroupedInput::new(32, (64, 64), &geom).expect("conv2's input");
        // T = 32 group rows per dx reach one row past the bottom halo.
        assert_eq!((layout.rows(), layout.len()), (67, 67 * 8 * 66 * 4));
        assert!(GroupedInput::new(64, (16, 16), &geom).is_some_and(|l| l.rows() == 18));
        assert!(GroupedInput::new(128, (8, 8), &geom).is_none(), "8-wide rows are half a tile");
        assert!(GroupedInput::new(3, (64, 64), &geom).is_none(), "C_in off 4");
        assert!(GroupedInput::new(32, (3, 16), &geom).is_none(), "48 columns are a sliver and a half");
        assert!(GroupedInput::new(32, (64, 64), &ConvGeom::square(3, 2, 1)).is_none(), "stride 2");
        let src = vec![0i8; layout.len()];
        assert!(layout.patches(&src).is_some());
        assert!(layout.patches(&src[1..]).is_none());
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
