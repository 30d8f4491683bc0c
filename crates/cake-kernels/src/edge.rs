//! Edge-tile execution.
//!
//! Packed slivers are always zero-padded to full `mr`/`nr`, so the kernel
//! can run at full width; but the `C` tile at a block edge is smaller than
//! `mr x nr` and must not be written outside its bounds. [`run_tile`]
//! computes the full padded tile into a stack scratch buffer and then
//! accumulates only the live `mrows x ncols` region into `C`.

use std::mem::MaybeUninit;

use cake_matrix::{Dtype, Element};

use crate::ukernel::Ukr;

/// Upper bound on `mr * nr` across all kernels in this crate: the AMX
/// int8 tile `32x32` = 1024 (then the AVX-512 f32/bf16 `14x32` = 448, the
/// int8 VNNI `16x16` = 256, AVX2 f32 `6x16` = 96, portable `8x8` = 64).
/// Sized exactly to the largest registered tile. The scratch is
/// accumulator-typed and only its `mr * nr` prefix is ever initialized, so
/// a smaller kernel's edge tile does no more work than its own tile needs.
pub const MAX_TILE: usize = 1024;

/// Run one microkernel invocation with edge masking.
///
/// For a full tile this is a direct kernel call (no overhead). For a partial
/// tile the kernel writes into a zeroed stack scratch and the live region is
/// accumulated into `C` scalar-wise.
///
/// # Safety
/// * `a`/`b` must point to full zero-padded packed slivers of length
///   `kc * mr` / `kc * nr`.
/// * `c[i*rsc + j*csc]` must be valid for `i < mrows`, `j < ncols`.
/// * `mrows <= mr`, `ncols <= nr`.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS ukernel signature
pub unsafe fn run_tile<T: Dtype>(
    ukr: &Ukr<T>,
    kc: usize,
    a: *const T,
    b: *const T,
    c: *mut T::Acc,
    rsc: usize,
    csc: usize,
    mrows: usize,
    ncols: usize,
) {
    let mr = ukr.mr();
    let nr = ukr.nr();
    debug_assert!(mrows <= mr && ncols <= nr, "tile region exceeds kernel shape");
    if mrows == 0 || ncols == 0 {
        return;
    }
    if mrows == mr && ncols == nr {
        // SAFETY: forwarded from caller.
        unsafe { ukr.call(kc, a, b, c, rsc, csc) };
        return;
    }
    // audit: checked every registered kernel satisfies mr*nr <= MAX_TILE (registry tests pin this)
    assert!(mr * nr <= MAX_TILE, "kernel tile exceeds scratch capacity");
    // Zero only the kernel's own mr x nr prefix: the rest of the scratch
    // stays uninitialized and is never read.
    let mut scratch = [MaybeUninit::<T::Acc>::uninit(); MAX_TILE];
    // audit: bounds edge_scratch_tile
    let tile = &mut scratch[..mr * nr];
    for x in tile.iter_mut() {
        x.write(<T::Acc>::ZERO);
    }
    // SAFETY: tile is mr*nr contiguous initialized elements (row stride
    // nr), and the kernel writes exactly that region; a/b contracts
    // forwarded from caller.
    unsafe { ukr.call(kc, a, b, tile.as_mut_ptr().cast::<T::Acc>(), nr, 1) };
    for i in 0..mrows {
        for j in 0..ncols {
            // SAFETY: caller guarantees c indexing validity for i<mrows,
            // j<ncols; every tile element was initialized above.
            unsafe {
                let p = c.add(i * rsc + j * csc);
                // audit: bounds edge_scratch_tile
                *p += tile[i * nr + j].assume_init();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_a, pack_b, packed_a_size, packed_b_size};
    use crate::ukernel::portable_f32_8x8;
    use cake_matrix::{init, Matrix};

    /// Multiply an arbitrary (m x k) by (k x n) with a single sliver pair
    /// (m <= mr, n <= nr) and compare with the naive product.
    fn run_small(m: usize, k: usize, n: usize) {
        let ukr = portable_f32_8x8();
        let a = init::random::<f32>(m, k, 1);
        let b = init::random::<f32>(k, n, 2);

        let mut pa = vec![0.0f32; packed_a_size(m, k, ukr.mr())];
        let mut pb = vec![0.0f32; packed_b_size(k, n, ukr.nr())];
        pack_a(&a.view(), &mut pa, ukr.mr());
        pack_b(&b.view(), &mut pb, ukr.nr());

        let mut c = Matrix::<f32>::zeros(m, n);
        let ld = c.cols();
        // SAFETY: pa/pb are full ceil-padded slivers from pack_a/pack_b, and
        // c is a dense m x n matrix with rsc=ld=n, csc=1.
        unsafe {
            run_tile(
                &ukr,
                k,
                pa.as_ptr(),
                pb.as_ptr(),
                c.as_mut_slice().as_mut_ptr(),
                ld,
                1,
                m,
                n,
            );
        }

        let mut expected = Matrix::<f32>::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    s += a.get(i, kk) as f64 * b.get(kk, j) as f64;
                }
                expected.set(i, j, s as f32);
            }
        }
        cake_matrix::compare::assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn full_tile_uses_direct_path() {
        run_small(8, 10, 8);
    }

    #[test]
    fn partial_rows() {
        run_small(3, 10, 8);
    }

    #[test]
    fn partial_cols() {
        run_small(8, 10, 5);
    }

    #[test]
    fn partial_both_and_tiny() {
        run_small(1, 1, 1);
        run_small(2, 7, 3);
        run_small(7, 64, 7);
    }

    /// Exhaustive tail sweep for one kernel: every `(m_tail, n_tail)` in
    /// `1..=mr x 1..=nr` (the full tile included as the final pair) against
    /// the naive f64-accumulating reference, at a couple of depths so both
    /// short and long K runs cross the scratch-tile path.
    fn sweep_tails<T: Dtype>(ukr: &crate::Ukr<T>) {
        let (mr, nr) = (ukr.mr(), ukr.nr());
        for k in [1usize, 9] {
            for m in 1..=mr {
                for n in 1..=nr {
                    let a = init::random::<T>(m, k, (m * 31 + n) as u64);
                    let b = init::random::<T>(k, n, (m * 37 + n + 1) as u64);
                    let layout = ukr.pack_layout();
                    let mut pa = vec![T::ZERO; layout.a_size(m, k)];
                    let mut pb = vec![T::ZERO; layout.b_size(k, n)];
                    layout.pack_a(&a.view(), &mut pa);
                    layout.pack_b(&b.view(), &mut pb);

                    let mut c = Matrix::<T::Acc>::zeros(m, n);
                    let ld = c.cols();
                    // SAFETY: pa/pb are ceil-padded packed slivers and c is
                    // a dense m x n tile with rsc=ld=n, csc=1.
                    unsafe {
                        run_tile(
                            ukr,
                            k,
                            pa.as_ptr(),
                            pb.as_ptr(),
                            c.as_mut_slice().as_mut_ptr(),
                            ld,
                            1,
                            m,
                            n,
                        );
                    }

                    let mut expected = Matrix::<T::Acc>::zeros(m, n);
                    for i in 0..m {
                        for j in 0..n {
                            let mut s = 0.0f64;
                            for kk in 0..k {
                                s += a.get(i, kk).to_f64() * b.get(kk, j).to_f64();
                            }
                            expected.set(i, j, <T::Acc>::from_f64(s));
                        }
                    }
                    cake_matrix::compare::assert_gemm_eq(&c, &expected, k);
                }
            }
        }
    }

    /// Exhaustive tail sweep for an int8 kernel: full-range operands,
    /// bit-exact i32 comparison against a widening scalar reference.
    fn sweep_tails_i8(ukr: &crate::Ukr<i8>) {
        let (mr, nr) = (ukr.mr(), ukr.nr());
        for k in [1usize, 3, 9, 70] {
            for m in 1..=mr {
                for n in 1..=nr {
                    let a = init::random_i8(m, k, (m * 41 + n) as u64);
                    let b = init::random_i8(k, n, (m * 43 + n + 1) as u64);
                    // Packed in the layout the kernel declares (tiles for
                    // AMX, k-major for the rest).
                    let layout = ukr.pack_layout();
                    let mut pa = vec![0i8; layout.a_size(m, k)];
                    let mut pb = vec![0i8; layout.b_size(k, n)];
                    layout.pack_a(&a.view(), &mut pa);
                    layout.pack_b(&b.view(), &mut pb);

                    let mut c = Matrix::<i32>::zeros(m, n);
                    let ld = c.cols();
                    // SAFETY: pa/pb are ceil-padded packed slivers and c is
                    // a dense m x n i32 tile with rsc=ld=n, csc=1.
                    unsafe {
                        run_tile(
                            ukr,
                            k,
                            pa.as_ptr(),
                            pb.as_ptr(),
                            c.as_mut_slice().as_mut_ptr(),
                            ld,
                            1,
                            m,
                            n,
                        );
                    }

                    for i in 0..m {
                        for j in 0..n {
                            let mut s = 0i32;
                            for kk in 0..k {
                                s += a.get(i, kk) as i32 * b.get(kk, j) as i32;
                            }
                            assert_eq!(
                                c.get(i, j),
                                s,
                                "{} ({m}x{k}x{n}) at ({i},{j})",
                                ukr.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_tail_sweep_f32_portable() {
        sweep_tails(&crate::select::portable_kernel::<f32>());
    }

    #[test]
    fn exhaustive_tail_sweep_f32_best() {
        sweep_tails(&crate::select::best_kernel::<f32>());
    }

    #[test]
    fn exhaustive_tail_sweep_f64_portable() {
        sweep_tails(&crate::select::portable_kernel::<f64>());
    }

    #[test]
    fn exhaustive_tail_sweep_f64_best() {
        sweep_tails(&crate::select::best_kernel::<f64>());
    }

    #[test]
    fn exhaustive_tail_sweep_i8_portable() {
        sweep_tails_i8(&crate::select::portable_kernel::<i8>());
    }

    #[test]
    fn exhaustive_tail_sweep_i8_best() {
        sweep_tails_i8(&crate::select::best_kernel::<i8>());
    }

    #[test]
    fn exhaustive_tail_sweep_bf16_portable() {
        sweep_tails(&crate::select::portable_kernel::<cake_matrix::Bf16>());
    }

    #[test]
    fn exhaustive_tail_sweep_bf16_best() {
        sweep_tails(&crate::select::best_kernel::<cake_matrix::Bf16>());
    }

    #[test]
    fn zero_region_is_noop() {
        let ukr = portable_f32_8x8();
        let mut c = [5.0f32; 4];
        // SAFETY: k=0 with a 0x0 region reads nothing from the null sliver
        // pointers and writes nothing to c.
        unsafe {
            run_tile(
                &ukr,
                0,
                std::ptr::null(),
                std::ptr::null(),
                c.as_mut_ptr(),
                2,
                1,
                0,
                0,
            );
        }
        assert_eq!(c, [5.0; 4]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn edge_path_does_not_touch_outside_region() {
        let ukr = portable_f32_8x8();
        let k = 4;
        let a = init::ones::<f32>(2, k);
        let b = init::ones::<f32>(k, 2);
        let mut pa = vec![0.0f32; packed_a_size(2, k, 8)];
        let mut pb = vec![0.0f32; packed_b_size(k, 2, 8)];
        pack_a(&a.view(), &mut pa, 8);
        pack_b(&b.view(), &mut pb, 8);

        // Canary buffer: a 4x4 C where only the top-left 2x2 may change.
        let mut c = [[-9.0f32; 4]; 4];
        // SAFETY: pa/pb are ceil-padded packed slivers; the 2x2 edge region
        // with rsc=4, csc=1 stays inside the 4x4 canary buffer.
        unsafe {
            run_tile(&ukr, k, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr().cast(), 4, 1, 2, 2);
        }
        for i in 0..4 {
            for j in 0..4 {
                if i < 2 && j < 2 {
                    assert_eq!(c[i][j], -9.0 + k as f32);
                } else {
                    assert_eq!(c[i][j], -9.0, "canary clobbered at ({i},{j})");
                }
            }
        }
    }
}
