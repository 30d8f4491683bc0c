//! Edge-tile execution.
//!
//! Packed slivers are always zero-padded to full `mr`/`nr`, so the kernel
//! can run at full width; but the `C` tile at a block edge is smaller than
//! `mr x nr` and must not be written outside its bounds. [`run_tile`]
//! writes a partial tile one of two ways:
//!
//! * **Directly**, for a kernel with partial-tile instances: today only
//!   the AVX-512 f32 `14x32` kernel, whose const-generic body has one
//!   instance per live row count (1..=14) and number of live 16-column
//!   vectors (1 or 2). The instance adds into the live `mrows x ncols`
//!   region of `C` (masked loads and stores at unit column stride, a lane
//!   spill of the live columns otherwise), so the tile costs the rows and
//!   column vectors that are live.
//! * **Through a scratch tile**, for every other kernel (AMX, VNNI, bf16,
//!   f64, AVX2 and portable): the full padded tile is computed into a
//!   zeroed stack buffer and only the live region is added into `C`,
//!   element by element. The tile costs a full one.
//!
//! The two ways agree bit for bit except in the sign of one zero: the
//! direct way adds `C + acc`, the scratch `C + (0.0 + acc)`, so a `-0.0`
//! sum added to a `-0.0` in `C` stays `-0.0` directly and becomes `+0.0`
//! through the scratch.

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
/// For a full tile this is a direct kernel call (no overhead). A partial
/// tile runs the kernel's instance for its live shape when the kernel has
/// one, and otherwise goes through the scratch tile (see the module docs).
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
    debug_assert!(mrows <= ukr.mr() && ncols <= ukr.nr(), "tile region exceeds kernel shape");
    if mrows == 0 || ncols == 0 {
        return;
    }
    if mrows == ukr.mr() && ncols == ukr.nr() {
        // SAFETY: forwarded from caller.
        unsafe { ukr.call(kc, a, b, c, rsc, csc) };
        return;
    }
    if let Some(tile) = ukr.edge(mrows, ncols) {
        // SAFETY: the kernel looked this instance up for exactly mrows rows
        // and ncols columns, so it touches only c[i*rsc + j*csc] for
        // i < mrows, j < ncols, which the caller guarantees valid; the a/b
        // sliver contracts are forwarded from the caller.
        unsafe { tile(kc, a, b, c, rsc, csc, ncols) };
        return;
    }
    // SAFETY: forwarded from caller.
    unsafe { scratch_tile(ukr, kc, a, b, c, rsc, csc, mrows, ncols) }
}

/// A partial tile through the scratch: the kernel computes its full
/// padded tile into a zeroed stack buffer, then the live `mrows x ncols`
/// region is added into `C` element by element.
///
/// # Safety
/// [`run_tile`]'s contract.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS ukernel signature
pub(crate) unsafe fn scratch_tile<T: Dtype>(
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
        // The portable kernel goes through the scratch; the best f32 kernel
        // (AVX-512 on a host that has it) writes the region directly. The
        // slivers are all ones, padding rows and columns included, so a
        // write to any cell outside the region changes its value.
        for ukr in [portable_f32_8x8(), crate::select::best_kernel::<f32>()] {
            let k = 4;
            let (mr, nr) = (ukr.mr(), ukr.nr());
            let a = init::ones::<f32>(mr, k);
            let b = init::ones::<f32>(k, nr);
            let layout = ukr.pack_layout();
            let mut pa = vec![0.0f32; layout.a_size(mr, k)];
            let mut pb = vec![0.0f32; layout.b_size(k, nr)];
            layout.pack_a(&a.view(), &mut pa);
            layout.pack_b(&b.view(), &mut pb);

            // Canary buffer: a 4x4 C where only the top-left 2x2 may change.
            let mut c = [[-9.0f32; 4]; 4];
            // SAFETY: pa/pb are ceil-padded packed slivers; the 2x2 edge
            // region with rsc=4, csc=1 stays inside the 4x4 canary buffer.
            unsafe {
                run_tile(&ukr, k, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr().cast(), 4, 1, 2, 2);
            }
            for i in 0..4 {
                for j in 0..4 {
                    if i < 2 && j < 2 {
                        assert_eq!(c[i][j], -9.0 + k as f32, "{}", ukr.name());
                    } else {
                        assert_eq!(c[i][j], -9.0, "{}: canary clobbered at ({i},{j})", ukr.name());
                    }
                }
            }
        }
    }

    /// A C cell's seed: small integers, `+0.0` among them, never `-0.0`.
    fn seed(idx: usize) -> f32 {
        ((idx * 7) % 13) as f32 - 6.0
    }

    /// Every tile shape of the best f32 kernel, `run_tile` (the direct
    /// instance, on a kernel that has one) against the scratch path, bit
    /// for bit, at kc 1, 9 and 288, on row-major C with `rsc > ncols` and on
    /// column-major C, each inside a frame of canary cells that must not
    /// change. C is seeded without `-0.0`: the scratch path adds
    /// `0.0 + acc` into C, which turns a `-0.0` sum into `+0.0`, so on a
    /// `-0.0` C element the direct `C + acc` keeps a sign that the scratch
    /// path loses.
    #[test]
    fn best_f32_direct_path_equals_scratch_path_bit_for_bit() {
        let ukr = crate::select::best_kernel::<f32>();
        if ukr.name() == "avx512_f32_14x32" {
            assert!(ukr.edge(4, 32).is_some(), "the AVX-512 f32 kernel writes partial tiles directly");
        }
        let (mr, nr) = (ukr.mr(), ukr.nr());
        let layout = ukr.pack_layout();
        for kc in [1usize, 9, 288] {
            let a = init::random::<f32>(mr, kc, kc as u64);
            let b = init::random::<f32>(kc, nr, kc as u64 + 1);
            let mut pa = vec![0.0f32; layout.a_size(mr, kc)];
            let mut pb = vec![0.0f32; layout.b_size(kc, nr)];
            layout.pack_a(&a.view(), &mut pa);
            layout.pack_b(&b.view(), &mut pb);
            for mrows in 1..=mr {
                for ncols in 1..=nr {
                    for col_major in [false, true] {
                        // The live region sits at frame cell (1, 1), with one
                        // canary row and column before it and at least one
                        // after it; the leading dimension leaves two after.
                        let (rows, cols) = if col_major { (mrows + 3, ncols + 2) } else { (mrows + 2, ncols + 3) };
                        let (rsc, csc) = if col_major { (1, rows) } else { (cols, 1) };
                        let at = |i: usize, j: usize| i * rsc + j * csc;
                        let mut direct: Vec<f32> = (0..rows * cols).map(seed).collect();
                        let mut scratch = direct.clone();
                        // SAFETY: pa/pb are full packed slivers, and cells
                        // (1 + i, 1 + j) for i < mrows, j < ncols lie inside
                        // the rows x cols frame under either stride order.
                        unsafe {
                            let (pa, pb) = (pa.as_ptr(), pb.as_ptr());
                            run_tile(&ukr, kc, pa, pb, direct.as_mut_ptr().add(at(1, 1)), rsc, csc, mrows, ncols);
                            scratch_tile(&ukr, kc, pa, pb, scratch.as_mut_ptr().add(at(1, 1)), rsc, csc, mrows, ncols);
                        }
                        for i in 0..rows {
                            for j in 0..cols {
                                let (d, s) = (direct[at(i, j)], scratch[at(i, j)]);
                                let live = (1..=mrows).contains(&i) && (1..=ncols).contains(&j);
                                let want = if live { s } else { seed(at(i, j)) };
                                assert!(
                                    d.to_bits() == s.to_bits() && d.to_bits() == want.to_bits(),
                                    "{mrows}x{ncols} kc={kc} col_major={col_major} cell ({i},{j}), live {live}: \
                                     direct {d}, scratch {s}, seed {}",
                                    seed(at(i, j))
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
