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

/// AVX-512 VBMI interleave of a 16-row, 32-byte-wide k-major block into the
/// B-tile rows of its two 16-column tiles: one two-source byte shuffle
/// (`vpermt2b`) per 64-byte tile row. Every host with AMX has VBMI, so the
/// AMX kernel's B packs take this path; the scalar loop of
/// [`interleave_k4`] serves other widths and hosts. Selected at run time
/// ([`vbmi_tile_available`]); compiled out under Miri.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod vbmitile {
    use core::arch::x86_64::*;

    /// Byte `4c + t` of a tile row of column tile `ct` takes row `t` of the
    /// group's four rows at column `16ct + c`: rows 0-1 are the first
    /// source register (64 bytes), rows 2-3 the second (index bit 6).
    const fn index(ct: usize) -> [u8; 64] {
        let mut idx = [0u8; 64];
        let mut c = 0;
        while c < 16 {
            let mut t = 0;
            while t < 4 {
                idx[4 * c + t] = ((t / 2) * 64 + (t % 2) * 32 + ct * 16 + c) as u8;
                t += 1;
            }
            c += 1;
        }
        idx
    }

    static INDEX: [[u8; 64]; 2] = [index(0), index(1)];

    /// `dst[ct][(r / 4) * 64 + c * 4 + r % 4] = src[r * 32 + 16 * ct + c]`
    /// for `r, c < 16` and `ct < 2`.
    ///
    /// # Safety
    /// The host must support AVX-512 F, BW and VBMI; `src` must be
    /// readable for 512 bytes, and `dst[0]` and `dst[1]` writable for 256
    /// bytes each; no range may overlap another.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub unsafe fn interleave_k4_x2(src: *const u8, dst: [*mut u8; 2]) {
        // SAFETY: the caller guarantees the features, 512 readable bytes at
        // src and 256 writable bytes at each dst; loadu/storeu are
        // alignment-free, and each load or store stays in its range.
        unsafe {
            let idx = [0, 1].map(|ct| _mm512_loadu_si512(INDEX[ct].as_ptr().cast()));
            for g in 0..4 {
                let lo = _mm512_loadu_si512(src.add(g * 128).cast());
                let hi = _mm512_loadu_si512(src.add(g * 128 + 64).cast());
                for (out, i) in dst.iter().zip(&idx) {
                    _mm512_storeu_si512(out.add(g * 64).cast(), _mm512_permutex2var_epi8(lo, *i, hi));
                }
            }
        }
    }
}

/// Whether the tile-layout B pack may use the VBMI interleave: 1-byte
/// elements, slivers of two tiles, and an AVX-512 VBMI host.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn vbmi_tile_available<T: Element>(nr: usize) -> bool {
    std::mem::size_of::<T>() == 1
        && nr == 2 * TILE_ROWS
        && is_x86_feature_detected!("avx512vbmi")
        && is_x86_feature_detected!("avx512bw")
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
/// of width `nr`. Like [`pack_b`] on a row-major B, it walks blocks of
/// [`B_KROWS`] k-rows across every sliver: [`pack_b`] writes each sliver's
/// piece of the block k-major into an L1 buffer, zeros below the last
/// k-row, and [`put_b_tile_rows`] interleaves it into the sliver.
fn pack_b_tiles<T: Element>(src: &MatrixView<'_, T>, dst: &mut [T], nr: usize) {
    let (kc, nc) = (src.rows(), src.cols());
    let kp = kc.next_multiple_of(TILE_K);
    let need = packed_b_size(kp, nc, nr);
    // audit: cold buffer-size precondition, once per pack call before the sliver loop
    assert!(dst.len() >= need, "packed B buffer too small: {} < {need}", dst.len());
    // audit: cold layout precondition, once per pack call before the sliver loop
    assert!(nr.is_multiple_of(TILE_ROWS) && nr <= TILE_MAX_NR, "tile slivers are one or two 16-column tiles, not {nr}");
    let slivers = if kc == 0 { 0 } else { nc.div_ceil(nr) };
    let mut staged = [T::ZERO; B_KROWS * TILE_MAX_NR];
    for kb in (0..kp).step_by(B_KROWS) {
        let kn = B_KROWS.min(kc.saturating_sub(kb));
        for t in 0..slivers {
            let (col0, live) = (t * nr, nr.min(nc - t * nr));
            // Rows past the block's last k-row stay zero.
            let (rows, zeros) = staged.split_at_mut(kn * nr);
            if kn > 0 {
                pack_b(&src.sub(kb, col0, kn, live), rows, nr);
            }
            if kn < B_KROWS {
                zeros.fill(T::ZERO);
            }
            let base = b_sliver_offset(t, kp, nr);
            // audit: bounds pack_b_tile_sliver
            put_b_tile_rows(&staged, nr, &mut dst[base..base + nr * kp], kb);
        }
    }
}

/// Write rows `kb .. kb + 16` of a [`LayoutKind::Tiles`] B sliver `nr`
/// wide: `block` holds them k-major (16 rows at row stride `nr`, zeros
/// wherever the sliver has no data), and each 16-column tile receives
/// them as its 4 tile rows from `kb % 64 / 4` on. `kb` is a multiple of
/// [`B_KROWS`] below the sliver's padded depth, and `nr` a multiple of 16
/// of at most [`TILE_MAX_NR`]: `sliv` holds `nr * kp` elements.
pub fn put_b_tile_rows<T: Element>(block: &[T], nr: usize, sliv: &mut [T], kb: usize) {
    let rows_at = kb / TILE_K * nr * TILE_K + kb % TILE_K / TILE_KGROUP * TILE_K;
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if vbmi_tile_available::<T>(nr) && block.len() >= B_KROWS * nr {
        const TILE: usize = TILE_ROWS * TILE_K;
        // audit: bounds pack_b_tile_rows
        let out = &mut sliv[rows_at..rows_at + TILE + B_KROWS * TILE_ROWS];
        let (first, second) = out.split_at_mut(TILE);
        let dst = [first.as_mut_ptr().cast::<u8>(), second.as_mut_ptr().cast::<u8>()];
        // SAFETY: 1-byte elements, nr = 32 and VBMI by the check above;
        // block holds 16*32 = 512 bytes; `first` holds the 1024 bytes of
        // column tile 0 from this block's rows on and `second` the 256 of
        // column tile 1, disjoint halves of `sliv`, which does not overlap
        // `block` (distinct borrows).
        unsafe { vbmitile::interleave_k4_x2(block.as_ptr().cast::<u8>(), dst) };
        return;
    }
    for ct in 0..nr / TILE_ROWS {
        let off = rows_at + ct * TILE_ROWS * TILE_K;
        // audit: bounds pack_b_tile_rows
        let out = &mut sliv[off..off + B_KROWS * TILE_ROWS];
        interleave_k4(block.get(ct * TILE_ROWS..).unwrap_or(&[]), nr, out);
    }
}

/// `out[(r / 4) * 64 + c * 4 + r % 4] = src[r * stride + c]` for `r, c <
/// 16`: 16 k-major rows of 16 columns as the 4 rows of a B tile that hold
/// them (writing what fits when `src` or `out` is short).
fn interleave_k4<T: Element>(src: &[T], stride: usize, out: &mut [T]) {
    const N: usize = TILE_ROWS;
    for (r, row) in src.chunks(stride.max(1)).take(N).enumerate() {
        for (c, &v) in row.iter().take(N).enumerate() {
            if let Some(o) = out.get_mut(r / TILE_KGROUP * TILE_K + c * TILE_KGROUP + r % TILE_KGROUP) {
                *o = v;
            }
        }
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
}
