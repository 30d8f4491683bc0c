//! Packing of operand blocks into micro-panel format.
//!
//! Both CAKE and GOTO copy the operand blocks they are about to compute on
//! into contiguous buffers (paper Section 5.2.1): packing minimizes cache
//! evictions and self-interference, and puts data in the exact streaming
//! order the microkernel consumes.
//!
//! Formats (BLIS-compatible):
//!
//! * **Packed `A`** (an `mc x kc` block): split into `ceil(mc/mr)` slivers
//!   of `mr` rows. Each sliver is stored k-major: for `k = 0..kc` the `mr`
//!   column elements `A[s*mr .. s*mr+mr, k]` are contiguous. Edge slivers
//!   are zero-padded to `mr` rows.
//! * **Packed `B`** (a `kc x nc` block): split into `ceil(nc/nr)` slivers
//!   of `nr` columns, each stored k-major with `nr` contiguous row elements
//!   per `k`, zero-padded to `nr` columns.
//!
//! Zero padding lets the hot loop always run full `mr x nr` kernels for the
//! interior; only the `C`-side write needs edge masking.
//!
//! Those are the k-major formats, and [`pack_a`] / [`pack_b`] always write
//! them. Each kernel declares the layout it reads as a [`PackLayout`]:
//! every kernel but the AMX one reads k-major slivers, and the AMX int8
//! kernel reads [`LayoutKind::Tiles`] slivers, whose K is zero-padded to a
//! multiple of [`TILE_K`]. The executor packs through
//! [`PackLayout::pack_a`] / [`PackLayout::pack_b`] and [`PackB`], which
//! follow the layout.
//!
//! [`LaneCopy`] writes B slivers straight from the rows they come from: a
//! lowered convolution's (`cake_dnn::im2col::LoweredConv`) and a row-major
//! B's in the tile layout. A [`LaneRows`] block holds up to 64 rows of a
//! lane group of 64 columns, each an offset and a lane mask, and is
//! admitted to the AVX-512 masked loads by one comparison of its reach
//! with the source. The copy writes it k-major, or, for int8 tiles, with
//! one `vpermt2b` writer for a group's one to four 16-column tiles.

use cake_matrix::{Element, Matrix, MatrixView};

/// How many source columns/rows ahead the packing loops prefetch. Packing
/// streams are short (one sliver column is `mr <= 14` elements), so a small
/// distance keeps the next line in flight without outrunning L1.
const PF_DIST: usize = 4;

/// Hint the CPU to pull `src[idx]`'s cache line into L1. No-op on
/// non-x86_64 targets and for out-of-range `idx`, so callers can pass
/// speculative indices unguarded.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch_read<T: Element>(src: &[T], idx: usize) {
    if idx < src.len() {
        // SAFETY: idx < src.len(), so the offset pointer stays inside the
        // slice allocation; `_mm_prefetch` is a hint with no validity
        // requirements beyond the pointer computation and never faults.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                src.as_ptr().add(idx).cast::<i8>(),
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch_read<T: Element>(_src: &[T], _idx: usize) {}

/// Prefetch the head and tail lines of a short contiguous run (a packing
/// sliver column/row spans at most a couple of cache lines).
#[inline(always)]
fn prefetch_run<T: Element>(src: &[T]) {
    prefetch_read(src, 0);
    if std::mem::size_of_val(src) > 64 {
        prefetch_read(src, src.len() - 1);
    }
}

/// SSE2 16x16 byte-tile transpose for the row-major A fast path. The
/// scalar transpose-scatter costs ~2 scalar ops per element regardless of
/// element width, so for 1-byte dtypes packing time rivals the (4x
/// faster) VNNI compute it feeds. This tile kernel retires 256 elements
/// with 16 loads + 64 unpacks + 16 stores. SSE2 is baseline on x86_64 —
/// no runtime detection needed.
#[cfg(target_arch = "x86_64")]
mod bytetile {
    use core::arch::x86_64::*;

    /// Position `j` of the unpack network ends up holding column
    /// `BITREV4[j]`: each of the four lo/hi stages splits by one more
    /// address bit, low bit first, so the output order is bit-reversed.
    const BITREV4: [usize; 16] = [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15];

    /// Transpose one 16x16 byte tile: `rows[i]` holds source bytes
    /// `k0..k0+16` of logical row `i`; afterwards `dst[k * 16 + i]` holds
    /// `rows[i][k]` for `k, i < 16`.
    ///
    /// # Safety
    /// Each `rows[i]` must be readable for 16 bytes and `dst` writable
    /// for 256 bytes; ranges may not overlap.
    #[inline]
    pub unsafe fn transpose_16x16(rows: &[*const u8; 16], dst: *mut u8) {
        // SAFETY: the caller guarantees 16 readable bytes per row pointer
        // and 256 writable bytes at dst; loadu/storeu are alignment-free.
        unsafe {
            let mut v: [__m128i; 16] = [_mm_setzero_si128(); 16];
            for i in 0..16 {
                v[i] = _mm_loadu_si128(rows[i].cast());
            }
            // Four lo/hi unpack stages: bytes -> words -> dwords -> qwords
            // -> full 16-byte columns.
            let mut w = [_mm_setzero_si128(); 16];
            for i in 0..8 {
                w[i] = _mm_unpacklo_epi8(v[2 * i], v[2 * i + 1]);
                w[i + 8] = _mm_unpackhi_epi8(v[2 * i], v[2 * i + 1]);
            }
            for i in 0..8 {
                v[i] = _mm_unpacklo_epi16(w[2 * i], w[2 * i + 1]);
                v[i + 8] = _mm_unpackhi_epi16(w[2 * i], w[2 * i + 1]);
            }
            for i in 0..8 {
                w[i] = _mm_unpacklo_epi32(v[2 * i], v[2 * i + 1]);
                w[i + 8] = _mm_unpackhi_epi32(v[2 * i], v[2 * i + 1]);
            }
            for i in 0..8 {
                v[i] = _mm_unpacklo_epi64(w[2 * i], w[2 * i + 1]);
                v[i + 8] = _mm_unpackhi_epi64(w[2 * i], w[2 * i + 1]);
            }
            for (j, col) in v.iter().enumerate() {
                _mm_storeu_si128(dst.add(BITREV4[j] * 16).cast(), *col);
            }
        }
    }
}

/// AVX-512 masked-load lane copies behind [`LaneCopy`]: each 64-byte piece
/// of a row is one masked load, so the lanes a row does not read (padding
/// taps, columns past the block) take their fill value without a branch
/// and without touching memory. A tile-layout lane group of 1-byte
/// elements goes from one full-width load per row straight into the
/// two-source byte shuffle (`vpermt2b`, AVX-512 VBMI, which every AMX host
/// has) that interleaves it into up to four B tiles. Selected at run time
/// ([`LaneCopy::detect`]); compiled out under Miri.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod lanecopy {
    use core::arch::x86_64::*;

    use super::{low_lanes, TILE_K};

    /// Stage 1 of [`tile_group`]: byte `2c + t` takes lane `32h + c` of
    /// source `t` (index bit 6 picks the second), so two rows' lanes `32h ..
    /// 32h + 32` come out interleaved byte by byte.
    const fn pairs(h: usize) -> [u8; 64] {
        let mut idx = [0u8; 64];
        let mut c = 0;
        while c < 32 {
            idx[2 * c] = (32 * h + c) as u8;
            idx[2 * c + 1] = (64 + 32 * h + c) as u8;
            c += 1;
        }
        idx
    }

    /// Stage 2 of [`tile_group`]: from the pairs of rows 0-1 (first source)
    /// and rows 2-3 (second) of one 32-lane half, byte `4c + t` takes row
    /// `t` at column `16h + c` of the half, so the register is that column
    /// tile's tile row.
    const fn quads(h: usize) -> [u8; 64] {
        let mut idx = [0u8; 64];
        let mut c = 0;
        while c < 16 {
            let mut t = 0;
            while t < 4 {
                idx[4 * c + t] = ((t / 2) * 64 + 2 * (16 * h + c) + t % 2) as u8;
                t += 1;
            }
            c += 1;
        }
        idx
    }

    static INDEX: [[u8; 64]; 4] = [pairs(0), pairs(1), quads(0), quads(1)];

    /// A register of `S`-byte lanes: lane `l` loaded from `p + l*S` where
    /// bit `l` of `k` is set, taken from `fill` where it is clear.
    ///
    /// # Safety
    /// The host must support AVX-512 F and BW; `S` is 1, 2, 4 or 8; `p +
    /// l*S` must be readable for `S` bytes at every set bit `l` of `k`
    /// below `64 / S` (clear lanes are not accessed).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn load<const S: usize>(fill: __m512i, k: u64, p: *const u8) -> __m512i {
        // SAFETY: the caller guarantees the features and that every lane
        // the mask loads is readable; a masked load suppresses faults on
        // the clear lanes and reads nothing there.
        unsafe {
            match S {
                1 => _mm512_mask_loadu_epi8(fill, k, p.cast()),
                2 => _mm512_mask_loadu_epi16(fill, k as __mmask32, p.cast()),
                4 => _mm512_mask_loadu_epi32(fill, k as __mmask16, p.cast()),
                _ => _mm512_mask_loadu_epi64(fill, k as __mmask8, p.cast()),
            }
        }
    }

    /// Store lane `l` of `v` to `p + l*S` where bit `l` of `k` is set.
    ///
    /// # Safety
    /// The host must support AVX-512 F and BW; `S` is 1, 2, 4 or 8; `p +
    /// l*S` must be writable for `S` bytes at every set bit `l` of `k`
    /// below `64 / S` (clear lanes are not written).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn store<const S: usize>(p: *mut u8, k: u64, v: __m512i) {
        // SAFETY: the caller guarantees the features and that every lane
        // the mask stores is writable; clear lanes are not written.
        unsafe {
            match S {
                1 => _mm512_mask_storeu_epi8(p.cast(), k, v),
                2 => _mm512_mask_storeu_epi16(p.cast(), k as __mmask32, v),
                4 => _mm512_mask_storeu_epi32(p.cast(), k as __mmask16, v),
                _ => _mm512_mask_storeu_epi64(p.cast(), k as __mmask8, v),
            }
        }
    }

    /// `v` with the lanes of `S` bytes whose bit of `k` is clear zeroed.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn keep_lanes<const S: usize>(k: u64, v: __m512i) -> __m512i {
        match S {
            1 => _mm512_maskz_mov_epi8(k, v),
            2 => _mm512_maskz_mov_epi16(k as __mmask32, v),
            4 => _mm512_maskz_mov_epi32(k as __mmask16, v),
            _ => _mm512_maskz_mov_epi64(k as __mmask8, v),
        }
    }

    /// Rows `i < n` of a lane group, `S`-byte lanes: lane `l < width` of
    /// row `i` is `src[at[i] + l]` where bit `l` of `mask[i]` is set, else
    /// `*pad` below `live` and zero from it on, stored to element `(l /
    /// piece)*piece_stride + i*stride + l % piece` of `dst`. Mask bits from
    /// `width` on are ignored.
    ///
    /// # Safety
    /// The host must support AVX-512 F and BW; `S` is 1, 2, 4 or 8, `n <=
    /// TILE_K`, `width <= 64` and `piece >= 1`; `pad` must be readable for
    /// `S` bytes; for every row `i < n` and set bit `l < width` of
    /// `mask[i]`, `src + (at[i] + l)*S` must be readable for `S` bytes;
    /// every element a lane `l < width` of a row `i < n` goes to must be
    /// writable in `dst`, which overlaps neither.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn rows<const S: usize>(
        src: *const u8,
        at: &[usize; TILE_K],
        mask: &[u64; TILE_K],
        n: usize,
        (pad, live): (*const u8, usize),
        dst: *mut u8,
        place: super::RowPlace,
    ) {
        let super::RowPlace { width, stride, piece, piece_stride } = place;
        let lanes = 64 / S;
        // SAFETY: `pad` is read for `S` bytes. Chunk `j` of piece `p` of
        // row `i` is lanes `l0 + j .. l0 + j + len`, `l0 = p*piece`, all
        // below `width`: its masked load reads only the row's set lanes
        // among them, readable by the contract (`at[i]` wraps, so only
        // those lanes' addresses must be in bounds), and its store writes
        // them to elements `p*piece_stride + i*stride + j ..` of `dst`.
        unsafe {
            let pad = match S {
                1 => _mm512_set1_epi8(pad.cast::<i8>().read()),
                2 => _mm512_set1_epi16(pad.cast::<i16>().read_unaligned()),
                4 => _mm512_set1_epi32(pad.cast::<i32>().read_unaligned()),
                _ => _mm512_set1_epi64(pad.cast::<i64>().read_unaligned()),
            };
            for (p, l0) in (0..width).step_by(piece).enumerate() {
                let len = piece.min(width - l0);
                let mut fill = [_mm512_setzero_si512(); 8];
                for (j, f) in fill.iter_mut().enumerate().take(len.div_ceil(lanes)) {
                    let k = low_lanes((len - j * lanes).min(lanes));
                    *f = keep_lanes::<S>(low_lanes(live.saturating_sub(l0 + j * lanes)) & k, pad);
                }
                let piece_out = dst.wrapping_add(p * piece_stride * S);
                for (i, (&at, &m)) in at.iter().zip(mask).enumerate().take(n) {
                    let m = (m & low_lanes(width)) >> l0;
                    let row = src.wrapping_add(at.wrapping_add(l0).wrapping_mul(S));
                    let out = piece_out.wrapping_add(i * stride * S);
                    for (j, &f) in fill.iter().enumerate().take(len.div_ceil(lanes)) {
                        let first = j * lanes;
                        let k = low_lanes((len - first).min(lanes));
                        let x = load::<S>(f, m >> first & k, row.wrapping_add(first * S));
                        store::<S>(out.wrapping_add(first * S), k, x);
                    }
                }
            }
        }
    }

    /// Tile rows `g < groups` of the first `tiles <= 4` 16-column B tiles
    /// of a lane group of 1-byte lanes, `per` tiles to a sliver: byte `64g +
    /// 4c + t` of `out[ct]` is row `4g + t`, lane `16ct + c`. Row `i < n` is
    /// lane `l` of `src[at[i] + l]` where bit `l` of `mask[i]` is set, else
    /// `pad` below `live` and zero from it on; rows from `n` on are zero.
    ///
    /// It writes one sliver at a time, so the stores run through one
    /// sliver's tiles before the next sliver's. For each four rows of a
    /// sliver: four full-width masked loads, two `vpermt2b` that interleave
    /// the byte pairs of rows 0-1 and of rows 2-3 over the sliver's 32-lane
    /// half, and one `vpermt2b` per column tile that makes its tile row
    /// from the two pair registers. A group of two 32-wide slivers takes
    /// eight `vpermt2b` per 256 bytes.
    ///
    /// # Safety
    /// The host must support AVX-512 F, BW and VBMI; `tiles <= 4`, `per`
    /// is 1 or 2 and `groups <= 16`; for every row `i < n` and set bit `l`
    /// of `mask[i]`, `src + at[i] + l` must be readable (other rows are
    /// ignored); `out[ct]` must be writable for `64 * groups` bytes for each
    /// `ct < tiles`, and no output range may overlap the source.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub unsafe fn tile_group(
        src: *const u8,
        (at, mask, n): (&[usize; TILE_K], &[u64; TILE_K], usize),
        (pad, live): (i8, usize),
        out: [*mut u8; 4],
        (tiles, per, groups): (usize, usize, usize),
    ) {
        let pad = _mm512_maskz_mov_epi8(low_lanes(live), _mm512_set1_epi8(pad));
        let zero = _mm512_setzero_si512();
        // SAFETY: each index row is 64 readable bytes. Row `i`'s masked
        // load reads only its set lanes, readable by the contract; rows
        // from `n` on load nothing. Tile row `g` of column tile `ct < tiles`
        // is one store of 64 bytes at `out[ct] + 64g`, inside its writable
        // range since `g < groups`.
        unsafe {
            let [p0, p1, q0, q1] = INDEX.map(|ix| _mm512_loadu_si512(ix.as_ptr().cast()));
            let per = per.clamp(1, 2);
            for ct0 in (0..tiles.min(4)).step_by(per) {
                let sliver = out.iter().skip(ct0).take(per);
                let pairs = if ct0 < 2 { p0 } else { p1 };
                let quads = if ct0 % 2 == 0 { [q0, q1] } else { [q1, q0] };
                let load = |m: u64, a: usize| _mm512_mask_loadu_epi8(pad, m, src.wrapping_add(a).cast());
                let rows = at.chunks_exact(4).zip(mask.chunks_exact(4));
                for (g, rows) in rows.take(groups).enumerate() {
                    // Four rows below `n` in one go; a group past `n`, or
                    // the one `n` ends in, row by row.
                    let r = match rows {
                        (&[a0, a1, a2, a3], &[m0, m1, m2, m3]) if 4 * g + 4 <= n => {
                            [load(m0, a0), load(m1, a1), load(m2, a2), load(m3, a3)]
                        }
                        (at, mask) => {
                            let mut r = [zero; 4];
                            let rows = at.iter().zip(mask).take(n.saturating_sub(4 * g));
                            for (v, (&a, &m)) in r.iter_mut().zip(rows) {
                                *v = load(m, a);
                            }
                            r
                        }
                    };
                    for (&o, v) in sliver.clone().zip(quad_rows(r, pairs, quads)) {
                        _mm512_storeu_si512(o.add(64 * g).cast(), v);
                    }
                }
            }
        }
    }

    /// Four rows of a lane group as one tile row of each of the two column
    /// tiles of a 32-lane half: `pairs` interleaves the half's lanes of rows
    /// 0-1 and of rows 2-3 byte by byte, and each of `quads` takes a column
    /// tile's four-byte groups from the two.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    fn quad_rows([r0, r1, r2, r3]: [__m512i; 4], pairs: __m512i, [qa, qb]: [__m512i; 2]) -> [__m512i; 2] {
        let (a, b) = (_mm512_permutex2var_epi8(r0, pairs, r1), _mm512_permutex2var_epi8(r2, pairs, r3));
        [_mm512_permutex2var_epi8(a, qa, b), _mm512_permutex2var_epi8(a, qb, b)]
    }
}

/// AVX-512 16x16 transpose of 4-byte elements for the row-major A path.
/// The scalar transpose-scatter stores one element per op, so f32 A packed
/// at about half the host's copy rate; this tile retires 256 elements
/// with 16 loads, 64 shuffles and 16 stores. Selected at run time from
/// `avx512f` ([`dword_tile_available`]); compiled out under Miri, which
/// does not model these intrinsics.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod dwordtile {
    use core::arch::x86_64::*;

    /// Transpose one 16x16 tile of 4-byte elements into `mr`-wide packed
    /// columns: `rows[i]` holds elements `k0..k0+16` of logical row `i`;
    /// afterwards `dst[k * mr + i]` holds `rows[i][k]` for `k < 16` and
    /// `i < live`, and 0 for `live <= i < mr`. Each column is one store
    /// masked to its `mr` lanes, so nothing outside `dst[..16 * mr]` is
    /// written.
    ///
    /// # Safety
    /// The host must support AVX-512F. `live <= mr <= 16`; each `rows[i]`
    /// with `i < live` must be readable for 16 elements of 4 bytes (the
    /// rest are not read); `dst` must be writable for `16 * mr` elements
    /// of 4 bytes and not overlap any row.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn transpose_16x16(rows: &[*const i32; 16], live: usize, dst: *mut i32, mr: usize) {
        // SAFETY: the caller guarantees AVX-512F, 16 readable elements per
        // live row and 16 * mr writable elements at dst; loadu/storeu are
        // alignment-free and the masked store touches only its mr lanes.
        unsafe {
            let mut r = [_mm512_setzero_si512(); 16];
            for (i, v) in r.iter_mut().enumerate().take(live) {
                *v = _mm512_loadu_si512(rows[i].cast());
            }
            // Within each 128-bit lane: pairs of rows interleave to 2x2
            // blocks, then pairs of those to 4x4 blocks, so u[4g + j]
            // holds, in lane L, column 4L + j of rows 4g..4g+4.
            let mut u = [_mm512_setzero_si512(); 16];
            for g in 0..4 {
                let (a, b, c, d) = (r[4 * g], r[4 * g + 1], r[4 * g + 2], r[4 * g + 3]);
                let (ab_lo, ab_hi) = (_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b));
                let (cd_lo, cd_hi) = (_mm512_unpacklo_epi32(c, d), _mm512_unpackhi_epi32(c, d));
                u[4 * g] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
                u[4 * g + 1] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
                u[4 * g + 2] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
                u[4 * g + 3] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
            }
            // Two 128-bit lane shuffles gather column j's four row
            // quarters: 0x88 takes lanes 0 and 2 of each source, 0xdd
            // lanes 1 and 3.
            let mask: __mmask16 = ((1u32 << mr) - 1) as __mmask16;
            for j in 0..4 {
                let lo_top = _mm512_shuffle_i32x4::<0x88>(u[j], u[4 + j]);
                let hi_top = _mm512_shuffle_i32x4::<0xdd>(u[j], u[4 + j]);
                let lo_bot = _mm512_shuffle_i32x4::<0x88>(u[8 + j], u[12 + j]);
                let hi_bot = _mm512_shuffle_i32x4::<0xdd>(u[8 + j], u[12 + j]);
                let cols = [
                    (j, _mm512_shuffle_i32x4::<0x88>(lo_top, lo_bot)),
                    (j + 4, _mm512_shuffle_i32x4::<0x88>(hi_top, hi_bot)),
                    (j + 8, _mm512_shuffle_i32x4::<0xdd>(lo_top, lo_bot)),
                    (j + 12, _mm512_shuffle_i32x4::<0xdd>(hi_top, hi_bot)),
                ];
                for (k, col) in cols {
                    _mm512_mask_storeu_epi32(dst.add(k * mr), mask, col);
                }
            }
        }
    }
}

/// Whether the row-major A path may use the AVX-512 dword tile: 4-byte
/// elements, slivers of at most 16 rows, and an `avx512f` host.
#[inline]
fn dword_tile_available<T: Element>(mr: usize) -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::mem::size_of::<T>() == 4 && mr <= 16 {
        return is_x86_feature_detected!("avx512f");
    }
    let _ = mr;
    false
}

/// Elements needed to pack an `mc x kc` block of `A` with sliver height `mr`.
pub fn packed_a_size(mc: usize, kc: usize, mr: usize) -> usize {
    if mc == 0 || kc == 0 {
        return 0;
    }
    mc.div_ceil(mr) * mr * kc
}

/// Elements needed to pack a `kc x nc` block of `B` with sliver width `nr`.
pub fn packed_b_size(kc: usize, nc: usize, nr: usize) -> usize {
    if kc == 0 || nc == 0 {
        return 0;
    }
    nc.div_ceil(nr) * nr * kc
}

/// The `idx`-th of `parts` balanced contiguous sub-ranges of `[0, total)`.
///
/// The partition rule for all cooperative work splitting in the executor
/// (B-sliver packing shares, per-worker M-tile strips): the first
/// `total % parts` ranges hold `ceil(total / parts)` items, the rest
/// `floor(total / parts)` — so no range is more than one item longer than
/// any other, ranges are contiguous (consecutive memory => streaming packs),
/// and the union covers `[0, total)` exactly once. Ranges with index past
/// the work (`parts > total`) come back empty.
///
/// # Panics
/// Panics if `parts == 0` or `idx >= parts`.
#[inline]
pub fn split_range(total: usize, parts: usize, idx: usize) -> std::ops::Range<usize> {
    // audit: checked executor passes parts = pool size >= 1 (ThreadPool contract)
    assert!(parts > 0, "cannot split into zero parts");
    // audit: checked executor passes idx = worker id < parts
    assert!(idx < parts, "part index {idx} out of range for {parts} parts");
    let base = total / parts;
    let extra = total % parts;
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    start..start + len
}

/// Offset of A sliver `s` within a packed-A buffer.
#[inline]
pub fn a_sliver_offset(s: usize, kc: usize, mr: usize) -> usize {
    s * mr * kc
}

/// Offset of B sliver `t` within a packed-B buffer.
#[inline]
pub fn b_sliver_offset(t: usize, kc: usize, nr: usize) -> usize {
    t * nr * kc
}

/// K extent of one AMX tile step: one 64-byte row of an A tile.
pub const TILE_K: usize = 64;
/// Rows of one AMX tile: 16 A rows, 16 B k-groups, 16 C rows.
pub const TILE_ROWS: usize = 16;
/// k values interleaved per column in one row of a B tile.
pub const TILE_KGROUP: usize = 4;
/// Widest B sliver the tile layout packs: two 16-column tiles.
pub const TILE_MAX_NR: usize = 32;

/// Element order inside a packed sliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutKind {
    /// BLIS k-major slivers, as [`pack_a`] and [`pack_b`] write them: for
    /// each k, the sliver's `mr` (A) or `nr` (B) elements are contiguous.
    KMajor,
    /// AMX int8 tiles. K is zero-padded to `kp`, a multiple of [`TILE_K`],
    /// and a sliver holds `kp / 64` k-steps back to back. One k-step of an
    /// A sliver is `mr` rows of 64 k values, so rows `16t .. 16t + 16` form
    /// a row-major 16 x 64-byte tile. One k-step of a B sliver is `nr / 16`
    /// tiles of 16 columns, each 16 rows of 64 elements: row `g` holds
    /// k-group `g` (4 k values) of every column, a column's 4 values
    /// adjacent. `mr` and `nr` are multiples of 16.
    Tiles,
}

/// The packed layout a microkernel reads: the A sliver height `mr`, the B
/// sliver width `nr`, and the element order within a sliver. Slivers sit
/// back to back, `mr * k_padded(kc)` (A) or `nr * k_padded(kc)` (B)
/// elements apart, and edge slivers are zero-padded as in the k-major
/// formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackLayout {
    mr: usize,
    nr: usize,
    kind: LayoutKind,
}

impl PackLayout {
    /// k-major slivers of `mr` rows and `nr` columns.
    pub const fn k_major(mr: usize, nr: usize) -> Self {
        Self { mr, nr, kind: LayoutKind::KMajor }
    }

    /// AMX tile slivers of `mr` rows and `nr` columns.
    ///
    /// # Panics
    /// Panics unless `mr` and `nr` are multiples of 16 and `nr` is at most
    /// [`TILE_MAX_NR`].
    pub const fn tiles(mr: usize, nr: usize) -> Self {
        assert!(mr > 0 && mr.is_multiple_of(TILE_ROWS), "tile slivers are whole 16-row tiles");
        assert!(nr > 0 && nr.is_multiple_of(TILE_ROWS) && nr <= TILE_MAX_NR, "tile slivers are one or two 16-column tiles");
        Self { mr, nr, kind: LayoutKind::Tiles }
    }

    /// A sliver height (the kernel's register-tile rows).
    #[inline]
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// B sliver width (the kernel's register-tile columns).
    #[inline]
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Element order within a sliver.
    #[inline]
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// The K granularity of the layout: 1 (k-major), or [`TILE_K`] (tiles,
    /// which pad K to whole steps).
    #[inline]
    pub fn k_step(&self) -> usize {
        match self.kind {
            LayoutKind::KMajor => 1,
            LayoutKind::Tiles => TILE_K,
        }
    }

    /// The packed depth of a `kc`-deep block: `kc`, or `kc` rounded up to
    /// a whole tile step.
    #[inline]
    pub fn k_padded(&self, kc: usize) -> usize {
        match self.kind {
            LayoutKind::KMajor => kc,
            LayoutKind::Tiles => kc.next_multiple_of(TILE_K),
        }
    }

    /// Elements needed to pack an `mc x kc` block of A.
    #[inline]
    pub fn a_size(&self, mc: usize, kc: usize) -> usize {
        packed_a_size(mc, self.k_padded(kc), self.mr)
    }

    /// Elements needed to pack a `kc x nc` block of B.
    #[inline]
    pub fn b_size(&self, kc: usize, nc: usize) -> usize {
        packed_b_size(self.k_padded(kc), nc, self.nr)
    }

    /// Offset of A sliver `s` of a `kc`-deep packed block.
    #[inline]
    pub fn a_offset(&self, s: usize, kc: usize) -> usize {
        a_sliver_offset(s, self.k_padded(kc), self.mr)
    }

    /// The k-block order of a whole `m x K` A packed ahead of time, one
    /// `kc`-deep block at a time: block `k0 / kc` is
    /// [`pack_a`](Self::pack_a) of the `m x min(kc, K - k0)` block at
    /// depth `k0`, and the blocks sit back to back. Every block before the
    /// one at `k0` is a full `kc`-deep block, so it starts at
    /// `k0 / kc * a_size(m, kc)`, and sliver `s` of that `kl`-deep block
    /// starts at `a_kblock_base(m, k0, kc) + a_offset(s, kl)`. `k0` is a
    /// multiple of `kc`; at `k0 = K` this is where a last, partial block
    /// starts (see [`a_blocked_size`](Self::a_blocked_size)).
    #[inline]
    pub fn a_kblock_base(&self, m: usize, k0: usize, kc: usize) -> usize {
        k0 / kc * self.a_size(m, kc)
    }

    /// Elements of a whole `m x k` A packed one `kc`-deep block at a time
    /// ([`a_kblock_base`](Self::a_kblock_base)): the full blocks, then the
    /// last, partial one at its own padded depth.
    #[inline]
    pub fn a_blocked_size(&self, m: usize, k: usize, kc: usize) -> usize {
        self.a_kblock_base(m, k, kc) + self.a_size(m, k % kc)
    }

    /// Offset of B sliver `t` of a `kc`-deep packed block.
    #[inline]
    pub fn b_offset(&self, t: usize, kc: usize) -> usize {
        b_sliver_offset(t, self.k_padded(kc), self.nr)
    }

    /// Where `A[i][k]` of a `kc`-deep block lands in the packed buffer.
    pub fn a_index(&self, i: usize, k: usize, kc: usize) -> usize {
        let (s, r) = (i / self.mr, i % self.mr);
        self.a_offset(s, kc)
            + match self.kind {
                LayoutKind::KMajor => k * self.mr + r,
                LayoutKind::Tiles => k / TILE_K * self.mr * TILE_K + r * TILE_K + k % TILE_K,
            }
    }

    /// Where `B[k][j]` of a `kc`-deep block lands in the packed buffer.
    pub fn b_index(&self, k: usize, j: usize, kc: usize) -> usize {
        let (t, c) = (j / self.nr, j % self.nr);
        self.b_offset(t, kc)
            + match self.kind {
                LayoutKind::KMajor => k * self.nr + c,
                LayoutKind::Tiles => {
                    k / TILE_K * self.nr * TILE_K
                        + c / TILE_ROWS * TILE_ROWS * TILE_K
                        + k % TILE_K / TILE_KGROUP * TILE_K
                        + c % TILE_ROWS * TILE_KGROUP
                        + k % TILE_KGROUP
                }
            }
    }

    /// Pack an `mc x kc` view of A into `dst` in this layout.
    ///
    /// # Panics
    /// Panics if `dst` is shorter than [`a_size`](Self::a_size).
    pub fn pack_a<T: Element>(&self, src: &MatrixView<'_, T>, dst: &mut [T]) {
        match self.kind {
            LayoutKind::KMajor => pack_a(src, dst, self.mr),
            LayoutKind::Tiles => pack_a_tiles(src, dst, self.mr),
        }
    }

    /// Pack a `kc x nc` view of B into `dst` in this layout.
    ///
    /// # Panics
    /// Panics if `dst` is shorter than [`b_size`](Self::b_size).
    pub fn pack_b<T: Element>(&self, src: &MatrixView<'_, T>, dst: &mut [T]) {
        match self.kind {
            LayoutKind::KMajor => pack_b(src, dst, self.nr),
            LayoutKind::Tiles => pack_b_tiles(src, dst, self.nr),
        }
    }

    /// Unpack a packed `mc x kc` A block back into row-major order (test
    /// helper).
    pub fn unpack_a<T: Element>(&self, packed: &[T], mc: usize, kc: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(mc * kc);
        for i in 0..mc {
            out.extend((0..kc).map(|k| packed[self.a_index(i, k, kc)]));
        }
        out
    }

    /// Unpack a packed `kc x nc` B block back into row-major order (test
    /// helper).
    pub fn unpack_b<T: Element>(&self, packed: &[T], kc: usize, nc: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(kc * nc);
        for k in 0..kc {
            out.extend((0..nc).map(|j| packed[self.b_index(k, j, kc)]));
        }
        out
    }
}

/// Pack an `mc x kc` view of `A` into `dst`.
///
/// # Panics
/// Panics if `dst` is shorter than [`packed_a_size`].
pub fn pack_a<T: Element>(src: &MatrixView<'_, T>, dst: &mut [T], mr: usize) {
    let mc = src.rows();
    let kc = src.cols();
    let need = packed_a_size(mc, kc, mr);
    // audit: cold buffer-size precondition, once per pack call before the sliver loop
    assert!(dst.len() >= need, "packed A buffer too small: {} < {need}", dst.len());
    let slivers = if mc == 0 { 0 } else { mc.div_ceil(mr) };
    let dword_tile = dword_tile_available::<T>(mr);
    for s in 0..slivers {
        let row0 = s * mr;
        let live = mr.min(mc - row0);
        let base = a_sliver_offset(s, kc, mr);
        // audit: bounds pack_a_sliver_tail
        let sliv = &mut dst[base..base + mr * kc];
        if src.row_stride() == 1 {
            // Column-major A: the `mr` rows of one k are contiguous —
            // exactly one packed-A sliver column, a straight memcpy.
            for k in 0..kc {
                // Pull the column PF_DIST k's ahead while this one copies.
                if let Some(ahead) = src.contiguous_col((k + PF_DIST).min(kc - 1), row0, live) {
                    prefetch_run(ahead);
                }
                // audit: checked k < kc keeps the sliver column inside mr*kc
                let out = &mut sliv[k * mr..(k + 1) * mr];
                // audit: checked guarded by the row_stride == 1 branch above
                let col = src.contiguous_col(k, row0, live).expect("unit row stride");
                // audit: checked live <= mr bounds the live prefix
                out[..live].copy_from_slice(col);
                // Edge tail handled once per k, outside the element loop.
                // audit: checked live <= mr bounds the zero tail
                out[live..].fill(T::ZERO);
            }
        } else if src.col_stride() == 1 {
            // Row-major A: each source row is contiguous along k, so the
            // sliver is an `live x kc` transpose: SIMD tiles for the whole
            // 16-column steps, the scalar scatter for the rest.
            let tiled = transpose_tiles(src, sliv, row0, live, mr, dword_tile);
            scatter_rows(src, sliv, row0, live, mr, tiled);
        } else {
            // General strided view: element-wise gather.
            for k in 0..kc {
                // audit: checked k < kc keeps the sliver column inside mr*kc
                let out = &mut sliv[k * mr..(k + 1) * mr];
                // audit: checked live <= mr bounds the live prefix
                for (i, o) in out[..live].iter_mut().enumerate() {
                    *o = src.get(row0 + i, k);
                }
                // audit: checked live <= mr bounds the zero tail
                out[live..].fill(T::ZERO);
            }
        }
    }
}

/// Transpose the leading whole 16-column steps of a row-major A sliver
/// (rows `row0..row0 + live` of `src`) into `sliv` with a SIMD tile, and
/// return how many k columns were packed: `kc` rounded down to 16, or 0
/// when no tile applies. Two tiles exist on x86_64: the SSE2 byte tile
/// for full 16-row slivers of 1-byte dtypes, and, when `dword_tile` is
/// set ([`dword_tile_available`]), the AVX-512 tile for 4-byte dtypes,
/// which also writes the zero rows of an edge sliver.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(unused_variables))]
fn transpose_tiles<T: Element>(
    src: &MatrixView<'_, T>,
    sliv: &mut [T],
    row0: usize,
    live: usize,
    mr: usize,
    dword_tile: bool,
) -> usize {
    let kc = src.cols();
    let ktiles = kc / 16;
    // One slice per sliver row; rows past `live` stay empty and are never
    // read. The tiles' pointer arithmetic rests on the checks below, so a
    // source without unit column stride, a short sliver or a sliver
    // taller than a tile falls back to the scalar scatter.
    let rows: [&[T]; 16] = std::array::from_fn(|i| {
        if i < live {
            src.contiguous_row(row0 + i, 0, kc).unwrap_or(&[])
        } else {
            &[]
        }
    });
    if ktiles == 0
        || live > mr
        || mr > 16
        || sliv.len() < mr * kc
        || rows.iter().take(live).any(|r| r.len() != kc)
    {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    if std::mem::size_of::<T>() == 1 && mr == 16 && live == 16 {
        let (dst8, rows) = (sliv.as_mut_ptr().cast::<u8>(), rows.map(|r| r.as_ptr().cast::<u8>()));
        for kt in 0..ktiles {
            let tile = rows.map(|r| r.wrapping_add(kt * 16));
            // SAFETY: all 16 rows are live and hold kc >= kt*16 + 16
            // bytes; the destination tile dst8[kt*256..][..256] is inside
            // the sliver (mr = 16, kt*16 + 16 <= kc columns of 16 bytes,
            // sliv.len() >= mr*kc); `sliv` and `src` never alias (distinct
            // allocations).
            unsafe { bytetile::transpose_16x16(&tile, dst8.add(kt * 256)) };
        }
        return ktiles * 16;
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if dword_tile {
        let (dst32, rows) = (sliv.as_mut_ptr().cast::<i32>(), rows.map(|r| r.as_ptr().cast::<i32>()));
        for kt in 0..ktiles {
            let tile = rows.map(|r| r.wrapping_add(kt * 16));
            // SAFETY: `dword_tile` implies avx512f and 4-byte `T`, and
            // live <= mr <= 16; each live row holds kc >= kt*16 + 16
            // elements (empty rows are never read); the 16 packed columns
            // dst32[kt*16*mr..][..16*mr] lie in the sliver (sliv.len() >=
            // mr*kc), which never aliases `src` (distinct allocations).
            unsafe { dwordtile::transpose_16x16(&tile, live, dst32.add(kt * 16 * mr), mr) };
        }
        return ktiles * 16;
    }
    0
}

/// The scalar transpose-scatter of a row-major A sliver from column `k0`
/// on: stream each of the `live` source rows once with an `mr`-strided
/// scatter, then zero the padding rows of an edge sliver. Packs the
/// `kc % 16` tail after a SIMD tile, and whole slivers where no tile
/// applies.
fn scatter_rows<T: Element>(
    src: &MatrixView<'_, T>,
    sliv: &mut [T],
    row0: usize,
    live: usize,
    mr: usize,
    k0: usize,
) {
    let kc = src.cols();
    if k0 == kc {
        return;
    }
    for i in 0..live {
        // Pull the head of the next source row while this one streams.
        if i + 1 < live {
            if let Some(ahead) = src.contiguous_row(row0 + i + 1, k0, kc - k0) {
                prefetch_read(ahead, 0);
            }
        }
        // audit: checked callers take this path only for col_stride == 1
        let row = src.contiguous_row(row0 + i, k0, kc - k0).expect("unit col stride");
        for (k, &v) in (k0..kc).zip(row) {
            // audit: checked k < kc and i < live <= mr stay inside the mr*kc sliver
            sliv[k * mr + i] = v;
        }
    }
    if live < mr {
        for k in k0..kc {
            // audit: checked live < mr branch keeps k*mr+live..(k+1)*mr inside the sliver
            sliv[k * mr + live..(k + 1) * mr].fill(T::ZERO);
        }
    }
}

/// k-rows per block of the row-major B pack order, and of any [`PackB`]
/// packer that writes the panel the same way. A block reads `B_KROWS`
/// source rows across every full sliver while their lines stay in L1, and
/// writes `B_KROWS * nr` contiguous elements per sliver. Blocks of eight
/// rows measured slower on int8 patch matrices, whose rows are 4096 B
/// apart and so share one L1 set.
pub const B_KROWS: usize = 16;

/// Pack the full slivers of a row-major (`col_stride == 1`) `B` view in
/// blocks of [`B_KROWS`] k-rows: for each block, visit every full sliver
/// and copy its `nr`-wide piece of each of the block's rows. `NR` is `nr`
/// as a constant for the registered kernel widths, so each copy is a
/// fixed-width move instead of a `memcpy` call; `NR = 0` takes the width
/// from `nr`. Returns the number of full slivers packed; the tail sliver
/// is left to the caller.
///
/// The order keeps both sides streaming. Front to back per sliver, a
/// sliver reads `nr` elements from each of `kc` source rows, so it
/// touches `kc` pages, and the next sliver fetches the same source lines
/// again. One k-row across all slivers sends every write of a narrow
/// dtype to one L1 set: the slivers are `nr * kc` elements apart, exactly
/// 4 KiB for int8 at `kc = 256`. A block of rows reads each source line
/// once while it is in L1 and writes `B_KROWS * nr` contiguous elements
/// per sliver.
fn pack_b_full_slivers<T: Element, const NR: usize>(
    src: &MatrixView<'_, T>,
    dst: &mut [T],
    nr: usize,
) -> usize {
    let nr = if NR == 0 { nr } else { NR };
    let (kc, full) = (src.rows(), src.cols() / nr);
    if full == 0 {
        return 0;
    }
    let width = full * nr;
    for k0 in (0..kc).step_by(B_KROWS) {
        let kn = B_KROWS.min(kc - k0);
        let rows: [&[T]; B_KROWS] = std::array::from_fn(|k| {
            if k < kn {
                src.contiguous_row(k0 + k, 0, width).unwrap_or(&[])
            } else {
                &[]
            }
        });
        for t in 0..full {
            let base = b_sliver_offset(t, kc, nr) + k0 * nr;
            // audit: bounds pack_b_krow_block
            let block = &mut dst[base..base + kn * nr];
            for (out, row) in block.chunks_exact_mut(nr).zip(&rows) {
                if let Some(piece) = row.get(t * nr..(t + 1) * nr) {
                    out.copy_from_slice(piece);
                }
            }
        }
    }
    full
}

/// Pack a `kc x nc` view of `B` into `dst`.
///
/// # Panics
/// Panics if `dst` is shorter than [`packed_b_size`].
pub fn pack_b<T: Element>(src: &MatrixView<'_, T>, dst: &mut [T], nr: usize) {
    let kc = src.rows();
    let nc = src.cols();
    let need = packed_b_size(kc, nc, nr);
    // audit: cold buffer-size precondition, once per pack call before the sliver loop
    assert!(dst.len() >= need, "packed B buffer too small: {} < {need}", dst.len());
    let slivers = if nc == 0 { 0 } else { nc.div_ceil(nr) };
    // Row-major B: full slivers with the registered kernel widths as
    // constants.
    let full = match (src.col_stride(), nr) {
        (1, 8) => pack_b_full_slivers::<T, 8>(src, dst, nr),
        (1, 16) => pack_b_full_slivers::<T, 16>(src, dst, nr),
        (1, 32) => pack_b_full_slivers::<T, 32>(src, dst, nr),
        (1, _) => pack_b_full_slivers::<T, 0>(src, dst, nr),
        _ => 0,
    };
    for t in full..slivers {
        let col0 = t * nr;
        let live = nr.min(nc - col0);
        let base = b_sliver_offset(t, kc, nr);
        // audit: bounds pack_b_sliver_tail
        let sliv = &mut dst[base..base + nr * kc];
        if src.col_stride() == 1 {
            // Row-major B tail sliver: the `live` columns of one k are
            // contiguous — one packed-B sliver row, a straight memcpy.
            for k in 0..kc {
                // Pull the row PF_DIST k's ahead while this one copies.
                if let Some(ahead) = src.contiguous_row((k + PF_DIST).min(kc - 1), col0, live) {
                    prefetch_run(ahead);
                }
                // audit: checked k < kc keeps the sliver row inside nr*kc
                let out = &mut sliv[k * nr..(k + 1) * nr];
                // audit: checked guarded by the col_stride == 1 branch above
                let row = src.contiguous_row(k, col0, live).expect("unit col stride");
                // audit: checked live <= nr bounds the live prefix
                out[..live].copy_from_slice(row);
                // audit: checked live <= nr bounds the zero tail
                out[live..].fill(T::ZERO);
            }
        } else if src.row_stride() == 1 {
            // Column-major B: each source column is contiguous along k —
            // stream each column once with an `nr`-strided scatter.
            for j in 0..live {
                // Pull the head of the next source column while this one
                // streams.
                if j + 1 < live {
                    if let Some(ahead) = src.contiguous_col(col0 + j + 1, 0, kc) {
                        prefetch_read(ahead, 0);
                    }
                }
                // audit: checked guarded by the row_stride == 1 branch above
                let col = src.contiguous_col(col0 + j, 0, kc).expect("unit row stride");
                for (k, &v) in col.iter().enumerate() {
                    // audit: checked k < kc and j < live <= nr stay inside the nr*kc sliver
                    sliv[k * nr + j] = v;
                }
            }
            if live < nr {
                for k in 0..kc {
                    // audit: checked live < nr branch keeps k*nr+live..(k+1)*nr inside the sliver
                    sliv[k * nr + live..(k + 1) * nr].fill(T::ZERO);
                }
            }
        } else {
            // General strided view: element-wise gather.
            for k in 0..kc {
                // audit: checked k < kc keeps the sliver row inside nr*kc
                let out = &mut sliv[k * nr..(k + 1) * nr];
                // audit: checked live <= nr bounds the live prefix
                for (j, o) in out[..live].iter_mut().enumerate() {
                    *o = src.get(k, col0 + j);
                }
                // audit: checked live <= nr bounds the zero tail
                out[live..].fill(T::ZERO);
            }
        }
    }
}

/// Pack an `mc x kc` view of A into `dst` as [`LayoutKind::Tiles`] slivers
/// of height `mr`: per sliver and k-step, `mr` rows of 64 k values, zeros
/// past `kc` and below the last live row.
fn pack_a_tiles<T: Element>(src: &MatrixView<'_, T>, dst: &mut [T], mr: usize) {
    let (mc, kc) = (src.rows(), src.cols());
    let kp = kc.next_multiple_of(TILE_K);
    let need = packed_a_size(mc, kp, mr);
    // audit: cold buffer-size precondition, once per pack call before the sliver loop
    assert!(dst.len() >= need, "packed A buffer too small: {} < {need}", dst.len());
    let slivers = if need == 0 { 0 } else { mc.div_ceil(mr) };
    for s in 0..slivers {
        let (row0, live) = (s * mr, mr.min(mc - s * mr));
        let base = a_sliver_offset(s, kp, mr);
        // audit: bounds pack_a_tile_rows
        let sliv = &mut dst[base..base + mr * kp];
        for (step, slab) in sliv.chunks_exact_mut(mr * TILE_K).enumerate() {
            let k0 = step * TILE_K;
            let kn = TILE_K.min(kc - k0);
            for (i, row) in slab.chunks_exact_mut(TILE_K).enumerate() {
                let (taps, pad) = row.split_at_mut(kn);
                if i >= live {
                    taps.fill(T::ZERO);
                } else if let Some(run) = src.contiguous_row(row0 + i, k0, kn) {
                    taps.copy_from_slice(run);
                } else {
                    for (kk, t) in taps.iter_mut().enumerate() {
                        *t = src.get(row0 + i, k0 + kk);
                    }
                }
                pad.fill(T::ZERO);
            }
        }
    }
}

/// Pack a `kc x nc` view of B into `dst` as [`LayoutKind::Tiles`] slivers
/// of width `nr`, one [`TILE_K`]-deep k-step at a time. A row-major B is a
/// [`LaneRows`] block over its own rows: each lane group of `LANES / nr`
/// slivers goes to [`LaneCopy::write_tiles`] with the group's column as
/// the offset, and the last group's lanes past `nc` are masked off. Any
/// other B is staged: [`pack_b`] writes each sliver's piece of a k-step
/// k-major into an L1 buffer, whose rows then go to the same writer.
fn pack_b_tiles<T: Element>(src: &MatrixView<'_, T>, dst: &mut [T], nr: usize) {
    let (kc, nc) = (src.rows(), src.cols());
    let kp = kc.next_multiple_of(TILE_K);
    let need = packed_b_size(kp, nc, nr);
    // audit: cold buffer-size precondition, once per pack call before the sliver loop
    assert!(dst.len() >= need, "packed B buffer too small: {} < {need}", dst.len());
    // audit: cold layout precondition, once per pack call before the sliver loop
    assert!(nr.is_multiple_of(TILE_ROWS) && nr <= TILE_MAX_NR, "tile slivers are one or two 16-column tiles, not {nr}");
    let slivers = if kc == 0 { 0 } else { nc.div_ceil(nr) };
    let (copy, sliver_len, per) = (LaneCopy::detect(), nr * kp, LANES / nr);
    if src.col_stride() == 1 {
        let mut rows = LaneRows::new(src.as_slice(), T::ZERO);
        for kb in (0..kp).step_by(TILE_K) {
            let n = TILE_K.min(kc - kb);
            for t in (0..slivers).step_by(per) {
                let count = per.min(slivers - t);
                let live = (count * nr).min(nc - t * nr);
                // Every group but a narrower last one reads the same rows.
                if t == 0 || live < LANES {
                    rows.set_rows(live, (kb..kb + n).map(|k| (k * src.row_stride(), low_lanes(live))));
                }
                let at = b_sliver_offset(t, kp, nr);
                // audit: bounds pack_b_tile_group
                copy.write_tiles(&rows, t * nr, &mut dst[at..at + count * sliver_len], (nr, sliver_len), (kb, TILE_K));
            }
        }
        return;
    }
    let mut staged = [T::ZERO; TILE_K * TILE_MAX_NR];
    for kb in (0..kp).step_by(TILE_K) {
        let kn = TILE_K.min(kc - kb);
        for t in 0..slivers {
            let (col0, live) = (t * nr, nr.min(nc - t * nr));
            pack_b(&src.sub(kb, col0, kn, live), staged.split_at_mut(kn * nr).0, nr);
            let base = b_sliver_offset(t, kp, nr);
            // audit: bounds pack_b_tile_sliver
            let sliv = &mut dst[base..base + sliver_len];
            copy.write_tiles(&LaneRows::dense(&staged, nr, kn), 0, sliv, (nr, sliver_len), (kb, TILE_K));
        }
    }
}

/// Lanes of one lane group: the widest piece of a row one [`LaneCopy`]
/// call writes, one bit each of a `u64` mask. A sliver wider than this
/// (`im2col`'s, `OH*OW` lanes) is copied one group at a time.
pub const LANES: usize = 64;

/// A `u64` with the low `n` lanes set: all 64 from `n = LANES` on.
#[inline]
pub fn low_lanes(n: usize) -> u64 {
    if n >= LANES {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Up to [`TILE_K`] rows of one lane group, as a lowering reads them from
/// one source slice at an offset `off` the writer is given: lane `l` of row
/// `i < rows` is `src[off + at[i] + l]` where bit `l` of `mask[i]` is set;
/// where it is clear, the lane is `pad` below `live` and zero from `live`
/// on. `off + at[i] + l` wraps: `at[i]` may point before the slice, as long
/// as every set lane lies inside it.
///
/// The rows are set together ([`set_rows`](Self::set_rows)), which works
/// out their reach, the lowest and highest `at[i] + l` over every set
/// lane. So a lowering builds the rows once and moves them along its lane
/// groups by `off` alone, and the writer admits a group to the vector copy
/// with one comparison ([`in_bounds`](Self::in_bounds)).
#[derive(Clone, Copy, Debug)]
pub struct LaneRows<'a, T> {
    src: &'a [T],
    at: [usize; TILE_K],
    mask: [u64; TILE_K],
    rows: usize,
    live: usize,
    pad: T,
    /// The lowest and highest `at[i] + l` over the set lanes, as signed
    /// offsets (`at[i]` taken as two's complement); empty when `lo > hi`.
    reach: (i128, i128),
}

impl<'a, T: Element> LaneRows<'a, T> {
    /// No rows yet: the rows [`set_rows`](Self::set_rows) later sets read
    /// from `src`, with `pad` in the live lanes they do not read.
    pub fn new(src: &'a [T], pad: T) -> Self {
        Self { src, at: [0; TILE_K], mask: [0; TILE_K], rows: 0, live: 0, pad, reach: (i128::MAX, i128::MIN) }
    }

    /// `rows` rows of `width <= LANES` lanes stored back to back in `src`,
    /// every lane read.
    pub fn dense(src: &'a [T], width: usize, rows: usize) -> Self {
        let mut dense = Self::new(src, T::ZERO);
        dense.set_rows(width, (0..rows).map(|i| (i * width, low_lanes(width))));
        dense
    }

    /// Set the block to the first [`TILE_K`] rows of `rows`, each `(at[i],
    /// mask[i])`, of which `live` lanes hold data, and work out their
    /// reach.
    pub fn set_rows(&mut self, live: usize, rows: impl IntoIterator<Item = (usize, u64)>) {
        let (mut n, mut lo, mut hi) = (0, i128::MAX, i128::MIN);
        for ((at, mask), row) in self.at.iter_mut().zip(&mut self.mask).zip(rows) {
            (*at, *mask) = row;
            n += 1;
            if *mask != 0 {
                let at = *at as isize as i128;
                lo = lo.min(at + i128::from(mask.trailing_zeros()));
                hi = hi.max(at + i128::from(LANES as u32 - 1 - mask.leading_zeros()));
            }
        }
        (self.rows, self.live, self.reach) = (n, live, (lo, hi));
    }

    /// Whether, at offset `off`, every set lane of every row lies inside
    /// `src`: the check that admits a block to the vector copy, and the
    /// only one, whatever the rows. The reach bounds each set lane `l` of
    /// row `i` by `lo <= at[i] + l <= hi`, so `0 <= off + lo` and `off + hi
    /// < len` put every lane the copy loads inside the slice.
    pub fn in_bounds(&self, off: usize) -> bool {
        let (lo, hi) = self.reach;
        let (off, len) = (off as i128, self.src.len() as i128);
        lo > hi || (off + lo >= 0 && off + hi < len)
    }

    /// The portable copy of lanes `l0 .. l0 + out.len()` (at most
    /// [`LANES`]) of the row at `at` (`off + at[i]`) into `out`: each run
    /// of set lanes is one copy from `src`, each run of clear lanes one
    /// fill.
    fn copy_row(&self, at: usize, mask: u64, l0: usize, out: &mut [T]) {
        let (mut rest, mut l) = (out, l0);
        while !rest.is_empty() {
            let set = mask >> l & 1 == 1;
            let same = if set { mask >> l } else { !(mask >> l) };
            let n = (same.trailing_ones() as usize).min(rest.len());
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(n);
            if set {
                match self.src.get(at.wrapping_add(l)..).and_then(|s| s.get(..n)) {
                    Some(lanes) => run.copy_from_slice(lanes),
                    None => run.fill(self.pad),
                }
            } else {
                let (pad, zero) = run.split_at_mut(self.live.saturating_sub(l).min(n));
                pad.fill(self.pad);
                zero.fill(T::ZERO);
            }
            (rest, l) = (tail, l + n);
        }
    }

    /// The portable [`LaneCopy::write_tiles`]: tile rows `g < groups` of
    /// the `count` slivers `nr` wide in `slivers`, from element `rows_at`
    /// of each, one element at a time.
    fn tiles_portable(
        &self,
        off: usize,
        slivers: &mut [T],
        (nr, sliver_len, count): (usize, usize, usize),
        (rows_at, groups): (usize, usize),
    ) {
        let mut lanes = [T::ZERO; LANES];
        let row = lanes.split_at_mut((count * nr).min(LANES)).0;
        for (r, (&at, &mask)) in self.at.iter().zip(&self.mask).enumerate().take(groups * TILE_KGROUP) {
            if r < self.rows {
                self.copy_row(off.wrapping_add(at), mask, 0, row);
            } else {
                row.fill(T::ZERO);
            }
            for (l, &v) in row.iter().enumerate() {
                let c = l % nr;
                let at = l / nr * sliver_len
                    + rows_at
                    + c / TILE_ROWS * TILE_ROWS * TILE_K
                    + r / TILE_KGROUP * TILE_K
                    + c % TILE_ROWS * TILE_KGROUP
                    + r % TILE_KGROUP;
                if let Some(o) = slivers.get_mut(at) {
                    *o = v;
                }
            }
        }
    }
}

/// Where [`LaneCopy::write_k_major`] writes a block: lane `l < width` of row `i`
/// goes to `dst[(l / piece) * piece_stride + i * stride + l % piece]`. A
/// lane group of k-major slivers `nr` wide and `kl` deep has `piece =
/// stride = nr` and `piece_stride = nr * kl`: each piece is one sliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowPlace {
    /// Lanes written per row, at most [`LANES`].
    pub width: usize,
    /// Elements from one row to the next within a piece.
    pub stride: usize,
    /// Lanes per piece.
    pub piece: usize,
    /// Elements from one piece to the next.
    pub piece_stride: usize,
}

impl RowPlace {
    /// One past the last element rows `..n` can reach, or `None` on
    /// overflow.
    fn end(&self, n: usize) -> Option<usize> {
        let pieces = self.width.div_ceil(self.piece);
        (pieces.checked_sub(1)?.checked_mul(self.piece_stride))?
            .checked_add(n.checked_sub(1)?.checked_mul(self.stride)?)?
            .checked_add(self.piece.min(self.width))
    }
}

/// The copy that writes a [`LaneRows`] block into a packed B layout: the
/// AVX-512 masked-load copy where the host has AVX-512 F and BW, and the
/// portable one (a copy or a fill per run of lanes) elsewhere. Both write
/// the same elements. The vector copy is safe to call with any block: it
/// checks that every lane it loads lies inside the source slice, and that
/// its stores end inside the destination, and leaves a block that fails
/// either check to the portable copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneCopy {
    vector: bool,
    vbmi: bool,
}

impl LaneCopy {
    /// The portable copy, on every host.
    pub const PORTABLE: LaneCopy = LaneCopy { vector: false, vbmi: false };

    /// The fastest copy this host runs.
    pub fn detect() -> Self {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
            return Self { vector: true, vbmi: is_x86_feature_detected!("avx512vbmi") };
        }
        Self::PORTABLE
    }

    /// Write the block's rows, at offset `off`, to `dst` as `place` says. Lanes that would land past `dst` are not written,
    /// and a row is cut to `stride` lanes of each piece.
    pub fn write_k_major<T: Element>(self, rows: &LaneRows<'_, T>, off: usize, dst: &mut [T], place: RowPlace) {
        let place = RowPlace { width: place.width.min(LANES), piece: place.piece.max(1), ..place };
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if self.vector && rows.rows > 0 && place.stride >= place.piece.min(place.width) {
            let n = rows.rows;
            if place.end(n).is_some_and(|e| e <= dst.len()) && rows.in_bounds(off) {
                let pad = [rows.pad];
                let src = rows.src.as_ptr().wrapping_add(off).cast::<u8>();
                let (pad, out) = ((pad.as_ptr().cast::<u8>(), rows.live), dst.as_mut_ptr().cast::<u8>());
                // audit: bounds lane_copy_load lane_copy_store
                // SAFETY: AVX-512 F and BW (`self.vector`); every `Element`
                // is 1, 2, 4 or 8 bytes. `in_bounds(off)` put every set lane
                // of rows `i < n` inside `src` at offset `off`; the copy
                // loads no other lane. Every lane lands below `end(n)`.
                unsafe {
                    match std::mem::size_of::<T>() {
                        1 => lanecopy::rows::<1>(src, &rows.at, &rows.mask, n, pad, out, place),
                        2 => lanecopy::rows::<2>(src, &rows.at, &rows.mask, n, pad, out, place),
                        4 => lanecopy::rows::<4>(src, &rows.at, &rows.mask, n, pad, out, place),
                        _ => lanecopy::rows::<8>(src, &rows.at, &rows.mask, n, pad, out, place),
                    }
                }
                return;
            }
        }
        let RowPlace { width, stride, piece, piece_stride } = place;
        for l0 in (0..width).step_by(piece) {
            let len = piece.min(width - l0);
            let base = l0 / piece * piece_stride;
            let pieces = dst.get_mut(base..).unwrap_or_default().chunks_mut(stride.max(1));
            for ((out, &at), &mask) in pieces.zip(&rows.at).zip(&rows.mask).take(rows.rows) {
                let len = len.min(out.len());
                rows.copy_row(off.wrapping_add(at), mask & low_lanes(width), l0, out.split_at_mut(len).0);
            }
        }
    }

    /// Write rows `kb .. kb + depth` of the [`LayoutKind::Tiles`] B slivers
    /// `nr` wide in `slivers` (back to back, `sliver_len` elements each)
    /// from the block at offset `off`: sliver `p` takes lanes `p*nr ..
    /// (p+1)*nr` of the block's rows, then zeros. Each 16-column tile
    /// receives the rows as its tile rows from `kb % 64 / 4` on. `kb` and
    /// `depth` are multiples of 4 with `kb % 64 + depth <= 64`, below the
    /// slivers' padded depth, and `nr` a multiple of 16 of at most
    /// [`TILE_MAX_NR`]: a group of 64 lanes is two 32-wide slivers or four
    /// 16-wide ones, and a group of fewer slivers takes fewer lanes.
    pub fn write_tiles<T: Element>(
        self,
        rows: &LaneRows<'_, T>,
        off: usize,
        slivers: &mut [T],
        (nr, sliver_len): (usize, usize),
        (kb, depth): (usize, usize),
    ) {
        let (nr, sliver_len) = (nr.max(1), sliver_len.max(1));
        let rows_at = kb / TILE_K * nr * TILE_K + kb % TILE_K / TILE_KGROUP * TILE_K;
        let groups = depth.min(TILE_K - kb % TILE_K) / TILE_KGROUP;
        // The whole slivers in `slivers`, at most a lane group's.
        let mut count = 0;
        while (count + 1) * nr <= LANES && (count + 1).checked_mul(sliver_len).is_some_and(|end| end <= slivers.len()) {
            count += 1;
        }
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if self.vbmi && std::mem::size_of::<T>() == 1 && (nr == TILE_ROWS || nr == TILE_MAX_NR) && count > 0 && rows.in_bounds(off) {
            const TILE: usize = TILE_ROWS * TILE_K;
            let (per, tiles) = (nr / TILE_ROWS, count * nr / TILE_ROWS);
            // Column tile `ct` is tile `ct % per` (`per` is 1 or 2) of
            // sliver `ct / per`. The last one takes the last of both, so
            // its rows end past every other tile's, at `end`.
            let tile_at = |ct: usize| (ct >> (per - 1)) * sliver_len + rows_at + (ct & (per - 1)) * TILE;
            let end = ((count - 1) * sliver_len).checked_add(rows_at).and_then(|at| at.checked_add((per - 1) * TILE + groups * TILE_K));
            if end.is_some_and(|end| end <= slivers.len()) {
                let base = slivers.as_mut_ptr().cast::<u8>();
                let out = [0, 1, 2, 3].map(|ct| base.wrapping_add(tile_at(ct.min(tiles - 1))));
                let src = rows.src.as_ptr().wrapping_add(off).cast::<u8>();
                // A 1-byte `Element` is `i8`, which `to_f64` returns exactly.
                let pad = (rows.pad.to_f64() as i8, rows.live);
                // audit: bounds lane_copy_load lane_tile_store pack_b_tile_rows
                // SAFETY: 1-byte lanes, AVX-512 F/BW/VBMI (`self.vbmi`
                // implies `self.vector`), `tiles <= LANES / 16 = 4`.
                // `in_bounds(off)` put every set lane of the rows inside
                // `src` at offset `off`; the copy loads no other lane. Tile
                // `ct < tiles` gets `groups * 64` bytes from `tile_at(ct)`,
                // which end by `end <= slivers.len()`.
                unsafe { lanecopy::tile_group(src, (&rows.at, &rows.mask, rows.rows), pad, out, (tiles, per, groups)) };
                return;
            }
        }
        rows.tiles_portable(off, slivers, (nr, sliver_len, count), (rows_at, groups));
    }
}

/// A `K x N` B operand as the executor consumes it: one block at a time,
/// packed straight into the kernel's packed-B layout.
///
/// A matrix or view packs through [`PackLayout::pack_b`] over the block's
/// sub-view. Other operands need never exist as a matrix: a convolution's
/// patch matrix is lowered from its feature map as each block is packed
/// (`cake_dnn::im2col::LoweredConv`). Packing only moves bytes, so an
/// implementation must write exactly what [`PackLayout::pack_b`] writes
/// for the same block of the materialized operand, padding included.
pub trait PackB<T: Element>: Sync {
    /// Rows (`K`).
    fn rows(&self) -> usize;

    /// Columns (`N`).
    fn cols(&self) -> usize;

    /// Pack the `kl x nl` block at row `k0`, column `n0` into `dst` in
    /// `layout`, as [`PackLayout::pack_b`] packs it.
    ///
    /// # Panics
    /// Panics if `dst` is shorter than [`PackLayout::b_size`] or the block
    /// leaves the operand.
    fn pack_block(&self, k0: usize, n0: usize, kl: usize, nl: usize, dst: &mut [T], layout: &PackLayout);

    /// This B's tiles in memory, when it has the AMX kernel's B tile
    /// layout already ([`TiledB`]): a kernel that reads B tiles in place
    /// ([`Ukr::reads_b_tiles`](crate::Ukr::reads_b_tiles)) then loads them
    /// where they are, and the operand is never packed. `None` (the
    /// default) for every B that must be packed.
    fn tiled_b(&self) -> Option<&TiledB<'_, T>> {
        None
    }
}

/// Most k-steps of [`TILE_K`] a [`TiledB`] spans: its K is at most
/// `64 * MAX_B_STEPS`.
pub const MAX_B_STEPS: usize = 64;

/// A `K x N` B whose memory already has the AMX kernel's B tile layout, at
/// any row stride: the 16 columns from `j` (a multiple of 16) of k-step `s`
/// are a B tile, 16 rows of [`TILE_K`] elements with each column's 4 k
/// values adjacent, at
///
/// ```text
/// src[tile_at(j) + steps[s] + r * row_stride ..][..64],  r < 16,
/// tile_at(j) = j / seg * seg_pitch + j % seg * 4
/// ```
///
/// So the columns come in segments of `seg` (one output row of a
/// convolution), `seg_pitch` elements apart, and each k-step names where
/// its rows start. `K = 64 * steps.len()`, and `N` is whole 32-column
/// slivers. A kernel that reads B tiles loads each of them in place
/// ([`TiledB::sliver`]); any other kernel packs it like any [`PackB`].
///
/// [`TiledB::new`] checks the reach of every tile row once, as
/// [`LaneRows::in_bounds`] admits a lane group: the highest row ends inside
/// `src`, so the pointers [`TiledB::sliver`] computes need no further check.
#[derive(Clone, Copy, Debug)]
pub struct TiledB<'a, T> {
    src: &'a [T],
    cols: usize,
    seg: usize,
    seg_pitch: usize,
    row_stride: usize,
    steps: [usize; MAX_B_STEPS],
    nsteps: usize,
}

impl<'a, T: Element> TiledB<'a, T> {
    /// The B over `src` with `cols` columns in segments `(seg, seg_pitch)`,
    /// tile rows `row_stride` apart and one offset per k-step in `steps`.
    /// `None` unless `steps` holds 1 to [`MAX_B_STEPS`] offsets, `cols` is
    /// a positive multiple of 32, `seg` one of 16 with `seg_pitch >= 4 *
    /// seg` (so `tile_at` never falls as `j` grows), and the highest tile
    /// row, `tile_at(cols - 16) + max(steps) + 15 * row_stride`, ends inside
    /// `src`.
    pub fn new(src: &'a [T], cols: usize, (seg, seg_pitch): (usize, usize), row_stride: usize, steps: &[usize]) -> Option<Self> {
        let shaped = (1..=MAX_B_STEPS).contains(&steps.len())
            && cols > 0
            && cols.is_multiple_of(TILE_MAX_NR)
            && seg > 0
            && seg.is_multiple_of(TILE_ROWS)
            && seg.checked_mul(TILE_KGROUP).is_some_and(|w| seg_pitch >= w);
        if !shaped {
            return None;
        }
        let mut b = Self { src, cols, seg, seg_pitch, row_stride, steps: [0; MAX_B_STEPS], nsteps: steps.len() };
        b.steps[..steps.len()].copy_from_slice(steps);
        let last = cols - TILE_ROWS;
        let highest = (last / seg)
            .checked_mul(seg_pitch)?
            .checked_add(last % seg * TILE_KGROUP)?
            .checked_add(*steps.iter().max()?)?
            .checked_add((TILE_ROWS - 1).checked_mul(row_stride)?)?
            .checked_add(TILE_K)?;
        (highest <= src.len()).then_some(b)
    }

    /// Where the 16-column tile from column `j` starts, before the step
    /// offset.
    #[inline]
    pub fn tile_at(&self, j: usize) -> usize {
        j / self.seg * self.seg_pitch + j % self.seg * TILE_KGROUP
    }

    /// The tiles of the 32-column sliver from column `col` over the
    /// k-block of `kl` rows from `k0`: the block's k-steps when `col` is a
    /// multiple of 32 inside B and the block is whole k-steps of B, and no
    /// step otherwise (a sliver off a tile boundary straddles two tiles,
    /// or two segments). The pointers are only computed; [`TiledB::new`]
    /// checked that every row a step names lies in `src`, for every
    /// aligned sliver.
    #[inline]
    pub fn sliver(&self, col: usize, k0: usize, kl: usize) -> crate::ukernel::BTiles<'_, T> {
        let whole = col.is_multiple_of(TILE_MAX_NR)
            && col < self.cols
            && k0.is_multiple_of(TILE_K)
            && kl.is_multiple_of(TILE_K);
        let (s0, n) = (k0 / TILE_K, kl / TILE_K);
        let steps = self.steps.get(..self.nsteps).and_then(|all| all.get(s0..s0.saturating_add(n)));
        let steps = steps.filter(|_| whole).unwrap_or_default();
        let base = self.src.as_ptr();
        crate::ukernel::BTiles {
            tiles: [base.wrapping_add(self.tile_at(col)), base.wrapping_add(self.tile_at(col + TILE_ROWS))],
            steps,
            row_stride: self.row_stride,
        }
    }

    /// `B[k][j]`, or zero outside B.
    fn get(&self, k: usize, j: usize) -> T {
        let step = self.steps.get(k / TILE_K).copied().unwrap_or_default();
        let at = self.tile_at(j - j % TILE_ROWS) + step + k % TILE_K / TILE_KGROUP * self.row_stride;
        self.src.get(at + j % TILE_ROWS * TILE_KGROUP + k % TILE_KGROUP).copied().unwrap_or(T::ZERO)
    }
}

impl<T: Element> PackB<T> for TiledB<'_, T> {
    fn rows(&self) -> usize {
        self.nsteps * TILE_K
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// For a kernel that does not read B tiles: one element at a time into
    /// the zeroed block.
    fn pack_block(&self, k0: usize, n0: usize, kl: usize, nl: usize, dst: &mut [T], layout: &PackLayout) {
        let need = layout.b_size(kl, nl);
        // audit: cold buffer-size precondition, once per pack call before the sliver loop
        assert!(dst.len() >= need, "packed B buffer too small: {} < {need}", dst.len());
        // audit: cold block-extent precondition, once per pack call before the sliver loop
        assert!(k0 + kl <= self.rows() && n0 + nl <= self.cols, "block outside the tiled B");
        dst.iter_mut().take(need).for_each(|d| *d = T::ZERO);
        for k in 0..kl {
            for j in 0..nl {
                if let Some(d) = dst.get_mut(layout.b_index(k, j, kl)) {
                    *d = self.get(k0 + k, n0 + j);
                }
            }
        }
    }

    fn tiled_b(&self) -> Option<&TiledB<'_, T>> {
        Some(self)
    }
}

impl<T: Element> PackB<T> for MatrixView<'_, T> {
    fn rows(&self) -> usize {
        MatrixView::rows(self)
    }

    fn cols(&self) -> usize {
        MatrixView::cols(self)
    }

    fn pack_block(&self, k0: usize, n0: usize, kl: usize, nl: usize, dst: &mut [T], layout: &PackLayout) {
        layout.pack_b(&self.sub(k0, n0, kl, nl), dst);
    }
}

impl<T: Element> PackB<T> for Matrix<T> {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    fn pack_block(&self, k0: usize, n0: usize, kl: usize, nl: usize, dst: &mut [T], layout: &PackLayout) {
        // audit: cold whole-matrix view, its extent check runs once per pack call before the sliver loop
        let view = self.view();
        view.pack_block(k0, n0, kl, nl, dst, layout);
    }
}

/// Unpack a k-major packed-A buffer back into row-major order (test
/// helper).
pub fn unpack_a<T: Element>(packed: &[T], mc: usize, kc: usize, mr: usize) -> Vec<T> {
    PackLayout::k_major(mr, 1).unpack_a(packed, mc, kc)
}

/// Unpack a k-major packed-B buffer back into row-major order (test
/// helper).
pub fn unpack_b<T: Element>(packed: &[T], kc: usize, nc: usize, nr: usize) -> Vec<T> {
    PackLayout::k_major(1, nr).unpack_b(packed, kc, nc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_matrix::{init, Matrix};
    use proptest::prelude::*;

    #[test]
    fn split_range_partitions_exactly_with_max_one_extra() {
        for total in 0..60usize {
            for parts in 1..12usize {
                let mut next = 0usize;
                let mut sizes = Vec::new();
                for idx in 0..parts {
                    let r = split_range(total, parts, idx);
                    assert_eq!(r.start, next, "ranges must tile [0, total)");
                    next = r.end;
                    sizes.push(r.len());
                }
                assert_eq!(next, total, "union must cover all items");
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "imbalance > 1: {sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn split_range_rejects_zero_parts() {
        let _ = split_range(4, 0, 0);
    }

    #[test]
    fn pack_a_round_trips() {
        let m = init::sequential::<f32>(10, 7);
        let mr = 4;
        let mut buf = vec![0.0; packed_a_size(10, 7, mr)];
        pack_a(&m.view(), &mut buf, mr);
        assert_eq!(unpack_a(&buf, 10, 7, mr), m.as_slice());
    }

    #[test]
    fn pack_b_round_trips() {
        let m = init::sequential::<f64>(5, 13);
        let nr = 8;
        let mut buf = vec![0.0; packed_b_size(5, 13, nr)];
        pack_b(&m.view(), &mut buf, nr);
        assert_eq!(unpack_b(&buf, 5, 13, nr), m.as_slice());
    }

    #[test]
    fn edge_slivers_are_zero_padded() {
        // 5 rows with mr=4: second sliver has 1 live + 3 padded rows.
        let m = init::ones::<f32>(5, 3);
        let mut buf = vec![-1.0; packed_a_size(5, 3, 4)];
        pack_a(&m.view(), &mut buf, 4);
        // Second sliver: entries at rows 1..4 of every k must be zero.
        let base = a_sliver_offset(1, 3, 4);
        for k in 0..3 {
            assert_eq!(buf[base + k * 4], 1.0);
            assert_eq!(&buf[base + k * 4 + 1..base + k * 4 + 4], &[0.0; 3]);
        }
    }

    #[test]
    fn packed_a_layout_is_k_major() {
        // 2x2 with mr=2: layout must be [a00, a10, a01, a11].
        let m = Matrix::from_rows(2, 2, &[1.0f32, 2.0, 3.0, 4.0]);
        let mut buf = vec![0.0; 4];
        pack_a(&m.view(), &mut buf, 2);
        assert_eq!(buf, vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn packed_b_layout_is_k_major() {
        // 2x2 with nr=2: layout must be [b00, b01, b10, b11].
        let m = Matrix::from_rows(2, 2, &[1.0f32, 2.0, 3.0, 4.0]);
        let mut buf = vec![0.0; 4];
        pack_b(&m.view(), &mut buf, 2);
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pack_from_column_major_source() {
        let rm = init::sequential::<f64>(6, 5);
        let cm = rm.to_layout(cake_matrix::Layout::ColMajor);
        let (mut b1, mut b2) = (
            vec![0.0; packed_a_size(6, 5, 4)],
            vec![0.0; packed_a_size(6, 5, 4)],
        );
        pack_a(&rm.view(), &mut b1, 4);
        pack_a(&cm.view(), &mut b2, 4);
        assert_eq!(b1, b2);
    }

    #[test]
    fn zero_sized_blocks() {
        assert_eq!(packed_a_size(0, 5, 4), 0);
        assert_eq!(packed_b_size(5, 0, 8), 0);
        let m = Matrix::<f32>::zeros(0, 5);
        let mut buf: Vec<f32> = vec![];
        pack_a(&m.view(), &mut buf, 4); // must not panic
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_buffer_panics() {
        let m = init::ones::<f32>(8, 8);
        let mut buf = vec![0.0; 10];
        pack_a(&m.view(), &mut buf, 4);
    }

    #[test]
    fn pack_a_fast_path_matches_strided_paths() {
        // Same logical matrix through three source layouts: row-major
        // (row-transpose path: the AVX-512 tile where available for
        // kc >= 16, else the scalar scatter), column-major (contiguous_col
        // memcpy path), and a transposed row-major view (also unit row
        // stride). mr reaches the production heights 14 and 16.
        for (mc, kc) in [(13, 9), (30, 40), (14, 64), (33, 17)] {
            let rm = init::random::<f32>(mc, kc, 5);
            let cm = rm.to_layout(cake_matrix::Layout::ColMajor);
            let tr = rm.transposed(); // kc x mc row-major; .t() view is mc x kc
            for mr in 1usize..=16 {
                let size = packed_a_size(mc, kc, mr);
                let (mut slow, mut fast, mut trans) =
                    (vec![-1.0; size], vec![-1.0; size], vec![-1.0; size]);
                pack_a(&rm.view(), &mut slow, mr);
                pack_a(&cm.view(), &mut fast, mr);
                pack_a(&tr.view().t(), &mut trans, mr);
                assert_eq!(slow, fast, "{mc}x{kc} mr={mr}: col-major fast path diverged");
                assert_eq!(slow, trans, "{mc}x{kc} mr={mr}: transposed-view path diverged");
            }
        }
    }

    #[test]
    fn dword_tile_matches_scalar_scatter() {
        // The AVX-512 tile against the scalar scatter it replaces, on one
        // sliver: every height mr <= 16, every live row count (edge
        // slivers get their zero rows from the tile), k extents with and
        // without a tail. The sliver is exactly mr*kc long with NaN
        // sentinels behind it, so a store past its last packed column (an
        // unmasked 16-lane store at mr < 16) shows up. On a host without
        // AVX-512 the tile reports 0 columns and both sides are scalar.
        const PAD: usize = 32;
        let tiles = dword_tile_available::<f32>(16);
        for mr in 1usize..=16 {
            for live in 1..=mr {
                for kc in [16usize, 17, 31, 32, 48, 57] {
                    let a = init::random::<f32>(live, kc, (mr * 1000 + live * 100 + kc) as u64);
                    let v = a.view();
                    let len = mr * kc;
                    let (mut tile, mut scalar) = (vec![f32::NAN; len + PAD], vec![f32::NAN; len + PAD]);
                    let tiled = transpose_tiles(&v, &mut tile[..len], 0, live, mr, tiles);
                    assert_eq!(tiled, if tiles { kc / 16 * 16 } else { 0 }, "mr={mr} kc={kc}");
                    scatter_rows(&v, &mut tile[..len], 0, live, mr, tiled);
                    scatter_rows(&v, &mut scalar[..len], 0, live, mr, 0);
                    let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&tile), bits(&scalar), "mr={mr} live={live} kc={kc}");
                }
            }
        }
    }

    #[test]
    fn pack_a_i8_byte_tile_matches_column_major_path() {
        // mr = 16 with a 1-byte dtype takes the SIMD 16x16 byte-tile
        // transpose on x86_64. Cover: kc % 16 tails (scalar k loop), a
        // kc < 16 block (tile loop runs zero times), an edge sliver
        // (live < 16 falls back to the scalar scatter), and exact
        // multiples. The column-major source packs the same logical
        // matrix through the memcpy path as the reference.
        for (mc, kc) in [(16, 16), (16, 37), (48, 80), (35, 15), (32, 100), (16, 1)] {
            let rm = init::random_i8(mc, kc, 7);
            let cm = rm.to_layout(cake_matrix::Layout::ColMajor);
            let size = packed_a_size(mc, kc, 16);
            let (mut tile, mut refr) = (vec![0i8; size], vec![0i8; size]);
            pack_a(&rm.view(), &mut tile, 16);
            pack_a(&cm.view(), &mut refr, 16);
            assert_eq!(tile, refr, "mc={mc} kc={kc}: byte-tile transpose diverged");
        }
    }

    /// `m` placed at row 1, column 3 of a larger matrix `ld >= cols + 3`
    /// wide: the returned matrix's `.view().sub(1, 3, rows, cols)` is `m`
    /// with row stride `ld`, the way the executor hands over B panels.
    fn embedded<T: Element>(m: &Matrix<T>, ld: usize) -> Matrix<T> {
        let (rows, cols) = (m.rows(), m.cols());
        Matrix::from_fn(rows + 2, ld, |i, j| {
            if (1..=rows).contains(&i) && (3..cols + 3).contains(&j) {
                m.get(i - 1, j - 3)
            } else {
                T::ONE
            }
        })
    }

    /// Pack `rm` row-major (full-sliver path plus the tail sliver), as a
    /// strided sub-view (same paths, row stride past the width) and
    /// column-major (strided element path); all three must agree and
    /// unpack back to `rm`.
    fn check_pack_b_paths<T: Element>(rm: &Matrix<T>, nr: usize) {
        let (kc, nc) = (rm.rows(), rm.cols());
        let cm = rm.to_layout(cake_matrix::Layout::ColMajor);
        let wide = embedded(rm, nc + 5);
        let size = packed_b_size(kc, nc, nr);
        let (mut fast, mut sub, mut slow) =
            (vec![-T::ONE; size], vec![-T::ONE; size], vec![-T::ONE; size]);
        pack_b(&rm.view(), &mut fast, nr);
        pack_b(&wide.view().sub(1, 3, kc, nc), &mut sub, nr);
        pack_b(&cm.view(), &mut slow, nr);
        assert_eq!(fast, slow, "{kc}x{nc} nr={nr}: B fast path diverged");
        assert_eq!(sub, slow, "{kc}x{nc} nr={nr}: B sub-view path diverged");
        assert_eq!(unpack_b(&fast, kc, nc, nr), rm.as_slice(), "{kc}x{nc} nr={nr}");
    }

    #[test]
    fn pack_b_fast_path_matches_strided_paths() {
        // nr covers the registered widths (8/16/32, fixed-width copies)
        // and others (1, 4); nc % nr != 0 adds a tail sliver.
        for (kc, nc) in [(7, 21), (300, 70), (1, 32), (33, 16)] {
            for nr in [1usize, 4, 8, 16, 32] {
                check_pack_b_paths(&init::random::<f64>(kc, nc, 6), nr);
                check_pack_b_paths(&init::random::<f32>(kc, nc, 7), nr);
            }
            check_pack_b_paths(&init::random_i8(kc, nc, 8), 16);
        }
    }

    /// Pack an `nl`-column panel whole, then again as `p` contiguous sliver
    /// shares ([`split_range`]), each into its offset sub-slice with the
    /// executor's arithmetic: columns `start*nr .. min(end*nr, nl)` at
    /// element `start*nr*kl`. Both must agree for p = 1..=4.
    fn check_pack_b_shares<T: Element>(m: &Matrix<T>, nr: usize, ld: usize) {
        let (kl, nl) = (m.rows(), m.cols());
        let wide = embedded(m, ld);
        let src = wide.view().sub(1, 3, kl, nl);
        let size = packed_b_size(kl, nl, nr);
        let mut whole = vec![-T::ONE; size];
        pack_b(&src, &mut whole, nr);
        assert_eq!(unpack_b(&whole, kl, nl, nr), m.as_slice(), "{kl}x{nl} nr={nr}");
        for p in 1..=4 {
            let mut shares = vec![-T::ONE; size];
            for wid in 0..p {
                let share = split_range(nl.div_ceil(nr), p, wid);
                if share.is_empty() {
                    continue;
                }
                let col0 = share.start * nr;
                let cols = (share.end * nr).min(nl) - col0;
                let dst = &mut shares[col0 * kl..share.end * nr * kl];
                pack_b(&src.sub(0, col0, kl, cols), dst, nr);
            }
            assert_eq!(shares, whole, "{kl}x{nl} nr={nr} p={p}: shares diverged");
        }
    }

    #[test]
    fn pack_b_shares_equal_the_whole_panel() {
        // The executor packs each worker's sliver share with one call.
        // Row strides of 4096 bytes, k extents past several 16-row blocks
        // with a partial last block, and a tail sliver in every panel.
        for kl in [1usize, 16, 40, 70] {
            check_pack_b_shares(&init::random::<f32>(kl, 5 * 32 + 7, 11), 32, 1024);
            check_pack_b_shares(&init::random_i8(kl, 5 * 16 + 9, 12), 16, 4096);
        }
    }

    #[test]
    fn pack_a_fast_path_on_subview() {
        // The executor packs strips via sub-views; offsets must be honoured
        // by the contiguous_col path.
        let cm = init::sequential::<f32>(16, 12).to_layout(cake_matrix::Layout::ColMajor);
        let sub = cm.view().sub(3, 2, 10, 7);
        let rm_sub = init::sequential::<f32>(16, 12);
        let sub_rm = rm_sub.view().sub(3, 2, 10, 7);
        let size = packed_a_size(10, 7, 4);
        let (mut a, mut b) = (vec![0.0; size], vec![0.0; size]);
        pack_a(&sub, &mut a, 4);
        pack_a(&sub_rm, &mut b, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn k_major_layout_packs_exactly_what_pack_a_and_pack_b_pack() {
        // Every kernel but AMX reads k-major slivers; packing through the
        // layout must not change one byte of them.
        for (mc, kc, nc, r) in [(13, 9, 21, 4), (30, 40, 70, 16), (14, 64, 32, 14)] {
            let layout = PackLayout::k_major(r, r);
            let a = init::random::<f32>(mc, kc, 1);
            let b = init::random::<f32>(kc, nc, 2);
            let (mut x, mut y) = (vec![-1.0; packed_a_size(mc, kc, r)], vec![-1.0; layout.a_size(mc, kc)]);
            pack_a(&a.view(), &mut x, r);
            layout.pack_a(&a.view(), &mut y);
            assert_eq!(x, y);
            let (mut x, mut y) = (vec![-1.0; packed_b_size(kc, nc, r)], vec![-1.0; layout.b_size(kc, nc)]);
            pack_b(&b.view(), &mut x, r);
            layout.pack_b(&b.view(), &mut y);
            assert_eq!(x, y);
            assert_eq!(layout.unpack_b(&y, kc, nc), unpack_b(&x, kc, nc, r));
        }
    }

    #[test]
    fn tile_layout_element_positions_pinned() {
        // A: per 64-deep step, mr rows of 64 k values.
        let l = PackLayout::tiles(32, 32);
        assert_eq!(l.k_padded(1), 64);
        assert_eq!(l.k_padded(64), 64);
        assert_eq!(l.k_padded(65), 128);
        assert_eq!(l.a_index(0, 0, 100), 0);
        assert_eq!(l.a_index(1, 0, 100), 64);
        assert_eq!(l.a_index(17, 3, 100), 17 * 64 + 3);
        assert_eq!(l.a_index(0, 64, 100), 32 * 64);
        assert_eq!(l.a_index(32, 0, 100), 32 * 128, "second sliver");
        // B: per step, two 16-column tiles of 16 k-group rows; a column's
        // four k values adjacent.
        assert_eq!(l.b_index(1, 0, 100), 1);
        assert_eq!(l.b_index(0, 1, 100), 4);
        assert_eq!(l.b_index(4, 0, 100), 64);
        assert_eq!(l.b_index(0, 16, 100), 1024);
        assert_eq!(l.b_index(64, 0, 100), 32 * 64);
        assert_eq!(l.b_index(0, 32, 100), 32 * 128, "second sliver");
    }

    /// Pack `a` (`ml x kl`) and `b` (`kl x nl`) in `layout` into buffers of
    /// `SENT` with `PAD` sentinels past the packed size, from row-major,
    /// column-major or strided sub-view sources; they must unpack to the
    /// sources, hold zeros everywhere else inside the packed size (edge
    /// rows and columns, and the K padding), and leave the sentinels.
    fn check_tile_round_trip(layout: &PackLayout, a: &Matrix<i8>, b: &Matrix<i8>, source: usize) {
        const SENT: i8 = 0x5a;
        const PAD: usize = 100;
        let (ml, kl, nl) = (a.rows(), a.cols(), b.cols());
        let (a_cm, b_cm) = (a.to_layout(cake_matrix::Layout::ColMajor), b.to_layout(cake_matrix::Layout::ColMajor));
        let (a_wide, b_wide) = (embedded(a, kl + 5), embedded(b, nl + 5));
        let (av, bv) = match source {
            0 => (a.view(), b.view()),
            1 => (a_cm.view(), b_cm.view()),
            _ => (a_wide.view().sub(1, 3, ml, kl), b_wide.view().sub(1, 3, kl, nl)),
        };
        let need = layout.a_size(ml, kl);
        let mut pa = vec![SENT; need + PAD];
        layout.pack_a(&av, &mut pa);
        assert_eq!(layout.unpack_a(&pa, ml, kl), a.as_slice(), "{layout:?} A {ml}x{kl}");
        let mut live = vec![false; need];
        for i in 0..ml {
            for k in 0..kl {
                live[layout.a_index(i, k, kl)] = true;
            }
        }
        assert!(pa[..need].iter().zip(&live).all(|(&x, &l)| l || x == 0), "A padding not zero");
        assert!(pa[need..].iter().all(|&x| x == SENT), "A written past its packed size");

        let need = layout.b_size(kl, nl);
        let mut pb = vec![SENT; need + PAD];
        layout.pack_b(&bv, &mut pb);
        assert_eq!(layout.unpack_b(&pb, kl, nl), b.as_slice(), "{layout:?} B {kl}x{nl}");
        let mut live = vec![false; need];
        for k in 0..kl {
            for j in 0..nl {
                live[layout.b_index(k, j, kl)] = true;
            }
        }
        assert!(pb[..need].iter().zip(&live).all(|(&x, &l)| l || x == 0), "B padding not zero");
        assert!(pb[need..].iter().all(|&x| x == SENT), "B written past its packed size");
    }

    #[test]
    fn tile_round_trip_pinned_depths() {
        for kl in [1usize, 15, 16, 17, 63, 64, 65, 127, 128, 129, 288] {
            for (mr, nr) in [(32, 32), (16, 16), (48, 16)] {
                let layout = PackLayout::tiles(mr, nr);
                let a = init::random_i8(mr + 3, kl, kl as u64);
                let b = init::random_i8(kl, 2 * nr + 5, kl as u64 + 1);
                for source in 0..3 {
                    check_tile_round_trip(&layout, &a, &b, source);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn tile_pack_unpack_identity(
            ml in 1usize..70,
            kl in 1usize..200,
            nl in 1usize..70,
            mr in prop::sample::select(vec![16usize, 32, 48]),
            nr in prop::sample::select(vec![16usize, 32]),
            source in 0usize..3,
            seed in 0u64..1000,
        ) {
            let layout = PackLayout::tiles(mr, nr);
            let a = init::random_i8(ml, kl, seed);
            let b = init::random_i8(kl, nl, seed + 1);
            check_tile_round_trip(&layout, &a, &b, source);
        }

        #[test]
        fn pack_unpack_identity(
            mc in 1usize..40,
            kc in 1usize..70,
            mr in 1usize..=16,
            layout in 0usize..3,
        ) {
            // Row-major, column-major and a strided sub-view source.
            let m = init::random::<f32>(mc, kc, 99);
            let (cm, wide) = (m.to_layout(cake_matrix::Layout::ColMajor), embedded(&m, kc + 5));
            let src = match layout {
                0 => m.view(),
                1 => cm.view(),
                _ => wide.view().sub(1, 3, mc, kc),
            };
            let mut buf = vec![0.0; packed_a_size(mc, kc, mr)];
            pack_a(&src, &mut buf, mr);
            prop_assert_eq!(unpack_a(&buf, mc, kc, mr), m.as_slice().to_vec());
        }

        #[test]
        fn pack_b_unpack_identity(
            kc in 1usize..300,
            nc in 1usize..80,
            nr in prop::sample::select(vec![1usize, 4, 8, 16, 32]),
            sub in any::<bool>(),
        ) {
            let m = init::random::<f64>(kc, nc, 7);
            let wide = embedded(&m, nc + 5);
            let src = if sub { wide.view().sub(1, 3, kc, nc) } else { m.view() };
            let mut buf = vec![0.0; packed_b_size(kc, nc, nr)];
            pack_b(&src, &mut buf, nr);
            prop_assert_eq!(unpack_b(&buf, kc, nc, nr), m.as_slice().to_vec());

            let m8 = init::random_i8(kc, nc, 7);
            let wide8 = embedded(&m8, nc + 5);
            let src8 = if sub { wide8.view().sub(1, 3, kc, nc) } else { m8.view() };
            let mut buf8 = vec![0i8; packed_b_size(kc, nc, 16)];
            pack_b(&src8, &mut buf8, 16);
            prop_assert_eq!(unpack_b(&buf8, kc, nc, 16), m8.as_slice().to_vec());
        }
    }

    /// `b` (`K x N`, `K` a multiple of 64) k-interleaved, `[K/4][N][4]`:
    /// a [`TiledB`] with one segment, tile rows `4N` apart.
    fn interleaved(b: &Matrix<i8>) -> (Vec<i8>, Vec<usize>) {
        let (k, n) = (b.rows(), b.cols());
        let mut src = vec![0i8; k * n];
        for kk in 0..k {
            for j in 0..n {
                src[kk / 4 * 4 * n + j * 4 + kk % 4] = b.get(kk, j);
            }
        }
        (src, (0..k / 64).map(|s| s * 64 * n).collect())
    }

    #[test]
    fn tiled_b_admits_only_what_its_tiles_can_read() {
        let (src, steps) = interleaved(&cake_matrix::init::random_i8(128, 64, 1));
        let ok = |src: &[i8], cols, seg: (usize, usize), rs, steps: &[usize]| TiledB::new(src, cols, seg, rs, steps).is_some();
        assert!(ok(&src, 64, (64, 256), 256, &steps));
        assert!(!ok(&src[1..], 64, (64, 256), 256, &steps), "one byte short");
        assert!(!ok(&src, 64, (64, 256), 256, &[]), "no k-step");
        assert!(!ok(&src, 64, (64, 256), 256, &[0; MAX_B_STEPS + 1]), "too many k-steps");
        assert!(!ok(&src, 48, (48, 256), 256, &steps), "a sliver and a half");
        assert!(!ok(&src, 64, (24, 256), 256, &steps), "segments off 16 columns");
        assert!(!ok(&src, 64, (32, 127), 256, &steps), "segments overlapping");
        let b = TiledB::new(&src, 64, (64, 256), 256, &steps).expect("admitted");
        assert_eq!((b.rows(), b.cols()), (128, 64));
        let bt = b.sliver(32, 64, 64);
        assert_eq!((bt.steps, bt.row_stride), (&steps[1..2], 256));
        assert_eq!(bt.tiles.map(|t| t as usize - src.as_ptr() as usize), [128, 192]);
        assert!(b.sliver(0, 128, 64).steps.is_empty(), "a block past K names no step");
        assert!(b.sliver(0, 64, 128).steps.is_empty(), "a block leaving K names no step");
        assert_eq!(b.sliver(0, 0, 128).steps, &steps[..]);
        for (col, k0, kl) in [(16, 0, 64), (48, 0, 64), (8, 64, 64), (64, 0, 64), (0, 32, 64), (0, 0, 96)] {
            assert!(b.sliver(col, k0, kl).steps.is_empty(), "sliver {col} of block {k0}+{kl} is not whole tiles");
        }
    }

    #[test]
    fn tiled_b_packs_like_the_matrix_it_holds() {
        // A kernel that does not read B tiles packs a TiledB: every layout,
        // blocks at and off the tile steps, two segments of 32 columns.
        let b = cake_matrix::init::random_i8(192, 64, 2);
        let (src, steps) = interleaved(&b);
        let tiled = TiledB::new(&src, 64, (64, 256), 256, &steps).expect("admitted");
        let two_segs = {
            // The same columns as two 32-wide segments, each its 48 rows of
            // 128 bytes, 6188 bytes apart.
            let mut s2 = vec![7i8; 6188 + 48 * 128];
            for r in 0..48 {
                for seg in 0..2 {
                    let from = r * 256 + seg * 128;
                    let to = seg * 6188 + r * 128;
                    s2[to..to + 128].copy_from_slice(&src[from..from + 128]);
                }
            }
            s2
        };
        let steps2: Vec<usize> = (0..3).map(|s| s * 16 * 128).collect();
        let segmented = TiledB::new(&two_segs, 64, (32, 6188), 128, &steps2).expect("admitted");
        for layout in [PackLayout::k_major(16, 16), PackLayout::k_major(6, 32), PackLayout::tiles(32, 32), PackLayout::tiles(32, 16)] {
            for (k0, kl, n0, nl) in [(0, 192, 0, 64), (64, 64, 32, 32), (5, 100, 3, 40)] {
                let mut want = vec![9i8; layout.b_size(kl, nl)];
                layout.pack_b(&b.view().sub(k0, n0, kl, nl), &mut want);
                for t in [&tiled, &segmented] {
                    let mut got = vec![9i8; want.len()];
                    t.pack_block(k0, n0, kl, nl, &mut got, &layout);
                    assert_eq!(got, want, "{layout:?} block {:?}", (k0, kl, n0, nl));
                }
            }
        }
    }
}
