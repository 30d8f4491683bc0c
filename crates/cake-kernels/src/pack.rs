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

use cake_matrix::{Element, MatrixView};

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
            // sliver is an `live x kc` transpose.
            #[cfg(target_arch = "x86_64")]
            if std::mem::size_of::<T>() == 1 && mr == 16 && live == 16 {
                // Full sliver of a 1-byte dtype: 16x16 SIMD byte-tile
                // transpose, scalar loop only for the kc % 16 tail.
                let rows: [*const u8; 16] = std::array::from_fn(|i| {
                    src.contiguous_row(row0 + i, 0, kc)
                        // audit: checked guarded by the col_stride == 1 branch above
                        .expect("unit col stride")
                        .as_ptr()
                        .cast()
                });
                let dst8 = sliv.as_mut_ptr().cast::<u8>();
                let ktiles = kc / 16;
                for kt in 0..ktiles {
                    // SAFETY: every row has kc >= kt*16 + 16 readable
                    // bytes; the destination tile dst8[kt*256..][..256] is
                    // inside the mr*kc sliver (kt*16 + 16 <= kc columns of
                    // 16 bytes); `sliv` and `src` never alias (distinct
                    // allocations).
                    unsafe {
                        // audit: checked from_fn gives i < 16 = rows.len()
                        let tile: [*const u8; 16] = std::array::from_fn(|i| rows[i].add(kt * 16));
                        bytetile::transpose_16x16(&tile, dst8.add(kt * 256));
                    }
                }
                for k in ktiles * 16..kc {
                    for (i, &row) in rows.iter().enumerate() {
                        // SAFETY: k < kc bounds the row read; the write
                        // lands at element k*16 + i < kc*16 of the sliver.
                        unsafe { *dst8.add(k * 16 + i) = *row.add(k) };
                    }
                }
                continue;
            }
            // Stream each row once with an `mr`-strided scatter instead
            // of per-element 2-D indexing.
            for i in 0..live {
                // Pull the head of the next source row while this one streams.
                if i + 1 < live {
                    if let Some(ahead) = src.contiguous_row(row0 + i + 1, 0, kc) {
                        prefetch_read(ahead, 0);
                    }
                }
                // audit: checked guarded by the col_stride == 1 branch above
                let row = src.contiguous_row(row0 + i, 0, kc).expect("unit col stride");
                for (k, &v) in row.iter().enumerate() {
                    // audit: checked k < kc and i < live <= mr stay inside the mr*kc sliver
                    sliv[k * mr + i] = v;
                }
            }
            if live < mr {
                for k in 0..kc {
                    // audit: checked live < mr branch keeps k*mr+live..(k+1)*mr inside the sliver
                    sliv[k * mr + live..(k + 1) * mr].fill(T::ZERO);
                }
            }
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

/// Pack the full slivers of a row-major (`col_stride == 1`) `B` view,
/// sliver by sliver: each sliver is written front to back, one `nr`-wide
/// copy per k-row. `NR` is `nr` as a constant for the registered kernel
/// widths, so each copy is a fixed-width move instead of a `memcpy` call;
/// `NR = 0` takes the width from `nr`. Returns the number of full slivers
/// packed; the tail sliver is left to the caller.
///
/// Writing each sliver contiguously matters for narrow dtypes: a packed
/// k-row of an int8 sliver is only 16 bytes, and the slivers of a panel
/// are `nr * kc` elements apart — exactly 4 KiB at `kc = 256` — so a
/// k-row-major order across slivers sends every write to the same L1 set.
fn pack_b_full_slivers<T: Element, const NR: usize>(
    src: &MatrixView<'_, T>,
    dst: &mut [T],
    nr: usize,
) -> usize {
    let nr = if NR == 0 { nr } else { NR };
    let (kc, full) = (src.rows(), src.cols() / nr);
    for t in 0..full {
        let base = b_sliver_offset(t, kc, nr);
        // audit: bounds pack_b_sliver_tail
        let sliver = &mut dst[base..base + nr * kc];
        for (k, out) in sliver.chunks_exact_mut(nr).enumerate() {
            if let Some(row) = src.contiguous_row(k, t * nr, nr) {
                out.copy_from_slice(row);
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

/// Unpack a packed-A buffer back into row-major order (test helper).
pub fn unpack_a<T: Element>(packed: &[T], mc: usize, kc: usize, mr: usize) -> Vec<T> {
    let mut out = vec![T::ZERO; mc * kc];
    for i in 0..mc {
        let s = i / mr;
        let r = i % mr;
        for k in 0..kc {
            out[i * kc + k] = packed[a_sliver_offset(s, kc, mr) + k * mr + r];
        }
    }
    out
}

/// Unpack a packed-B buffer back into row-major order (test helper).
pub fn unpack_b<T: Element>(packed: &[T], kc: usize, nc: usize, nr: usize) -> Vec<T> {
    let mut out = vec![T::ZERO; kc * nc];
    for k in 0..kc {
        for j in 0..nc {
            let t = j / nr;
            let c = j % nr;
            out[k * nc + j] = packed[b_sliver_offset(t, kc, nr) + k * nr + c];
        }
    }
    out
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
        // (row-transpose path), column-major (contiguous_col memcpy path),
        // and a transposed row-major view (also unit row stride).
        let rm = init::random::<f32>(13, 9, 5);
        let cm = rm.to_layout(cake_matrix::Layout::ColMajor);
        let tr = rm.transposed(); // 9x13 row-major; .t() view is 13x9
        for mr in [1usize, 2, 4, 6, 8] {
            let size = packed_a_size(13, 9, mr);
            let (mut slow, mut fast, mut trans) =
                (vec![-1.0; size], vec![-1.0; size], vec![-1.0; size]);
            pack_a(&rm.view(), &mut slow, mr);
            pack_a(&cm.view(), &mut fast, mr);
            pack_a(&tr.view().t(), &mut trans, mr);
            assert_eq!(slow, fast, "mr={mr}: col-major fast path diverged");
            assert_eq!(slow, trans, "mr={mr}: transposed-view path diverged");
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

    /// `m` placed at row 1, column 3 of a larger matrix: the returned
    /// matrix's `.view().sub(1, 3, rows, cols)` is `m` with a row stride
    /// past its width, the way the executor hands over B panels.
    fn embedded<T: Element>(m: &Matrix<T>) -> Matrix<T> {
        let (rows, cols) = (m.rows(), m.cols());
        Matrix::from_fn(rows + 2, cols + 5, |i, j| {
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
        let wide = embedded(rm);
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

    proptest! {
        #[test]
        fn pack_unpack_identity(
            mc in 1usize..40,
            kc in 1usize..40,
            mr in prop::sample::select(vec![1usize, 2, 4, 6, 8]),
        ) {
            let m = init::random::<f32>(mc, kc, 99);
            let mut buf = vec![0.0; packed_a_size(mc, kc, mr)];
            pack_a(&m.view(), &mut buf, mr);
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
            let wide = embedded(&m);
            let src = if sub { wide.view().sub(1, 3, kc, nc) } else { m.view() };
            let mut buf = vec![0.0; packed_b_size(kc, nc, nr)];
            pack_b(&src, &mut buf, nr);
            prop_assert_eq!(unpack_b(&buf, kc, nc, nr), m.as_slice().to_vec());

            let m8 = init::random_i8(kc, nc, 7);
            let wide8 = embedded(&m8);
            let src8 = if sub { wide8.view().sub(1, 3, kc, nc) } else { m8.view() };
            let mut buf8 = vec![0i8; packed_b_size(kc, nc, 16)];
            pack_b(&src8, &mut buf8, 16);
            prop_assert_eq!(unpack_b(&buf8, kc, nc, 16), m8.as_slice().to_vec());
        }
    }
}
