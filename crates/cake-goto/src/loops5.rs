//! The five-loop GOTO GEMM (paper Figure 5).
//!
//! ```text
//! loop 5: jc over N in steps of nc      // B panel selection
//!   loop 4: pc over K in steps of kc    // pack B(kc x nc) into LLC
//!     loop 3: ic over M in steps of mc  // pack A(mc x kc) into each L2
//!       loop 2: jr over nc in steps of nr
//!         loop 1: ir over mc in steps of mr
//!           microkernel: C(mr x nr) += A_sliver * B_sliver
//! ```
//!
//! Parallelization follows the paper's Section 4.1 analysis: the `ic` loop
//! is split across the `p` cores (GOTO grows the M extent covered per
//! round by using more cores; each core owns an independent `mc x nc` C
//! panel, no inter-core accumulation).
//!
//! The crucial contrast with CAKE: C is touched (read-modified-written)
//! on *every* `pc` iteration — in DRAM terms, partial results stream out
//! and back instead of being held in the LLC. On a real machine that
//! traffic is implicit in writing `C` each round; the simulator and the
//! traffic model in [`crate::model`] account for it explicitly.

use std::sync::Barrier;

use cake_core::pool::ThreadPool;
use cake_core::shared::{OutPtr, SharedBuf};
use cake_kernels::edge::run_tile;
use cake_kernels::Ukr;
use cake_matrix::{Dtype, MatrixView, MatrixViewMut};

use crate::params::GotoParams;

/// Execute `C += A * B` with the GOTO algorithm. `C` is over the
/// accumulator type `T::Acc` (the same `T` for f32/f64, widened for the
/// narrow dtypes), matching the CAKE executor's convention.
///
/// # Panics
/// Panics on dimension mismatch or `pool.size() != params.p`.
// audit: warm
pub fn execute<T: Dtype>(
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    c: &mut MatrixViewMut<'_, T::Acc>,
    params: &GotoParams,
    ukr: &Ukr<T>,
    pool: &ThreadPool,
) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(b.rows(), k, "A is {m}x{k} but B has {} rows", b.rows());
    assert_eq!(c.rows(), m, "C must have {m} rows, has {}", c.rows());
    assert_eq!(c.cols(), n, "C must have {n} cols, has {}", c.cols());
    assert_eq!(
        pool.size(),
        params.p,
        "pool size {} != params.p {}",
        pool.size(),
        params.p
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let p = params.p;
    let layout = ukr.pack_layout();
    let (mr, nr) = (layout.mr(), layout.nr());
    let (mc, kc, nc) = (params.mc, params.kc, params.nc);

    // Buffers sized for the smaller of the blocking and the problem, so a
    // small GEMM does not pay for an LLC-scale allocation.
    let kc_eff = kc.min(k);
    let nc_eff = nc.min(n.div_ceil(nr) * nr);
    let mc_eff = mc.min(m.div_ceil(mr) * mr);
    // audit: cold pre-loop packing buffer, sized once per call
    let packed_b = SharedBuf::<T>::zeroed(layout.b_size(kc_eff, nc_eff));
    let pa_stride = layout.a_size(mc_eff, kc_eff);
    // audit: cold pre-loop packing buffer, sized once per call
    let packed_a = SharedBuf::<T>::zeroed(pa_stride * p);

    let barrier = Barrier::new(p);
    // SAFETY: pointer valid for the whole call; workers write disjoint rows.
    let out = unsafe { OutPtr::new(c.ptr_at_mut(0, 0)) };
    let (rsc, csc) = (c.row_stride(), c.col_stride());

    let mb = m.div_ceil(mc);

    pool.broadcast(|wid| {
        let mut jc = 0;
        while jc < n {
            let nl = nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kl = kc.min(k - pc);

                // All workers finished the previous panel's compute.
                barrier.wait();

                // Cooperatively pack B(kl x nl) into the shared LLC panel.
                let pb_base = packed_b.base_ptr();
                let nslivers = nl.div_ceil(nr);
                let mut t = wid;
                while t < nslivers {
                    let col0 = jc + t * nr;
                    let live = nr.min(jc + nl - col0);
                    // Mirrors `goto_pb_sliver` in cake-audit.
                    debug_assert!(layout.b_offset(t + 1, kl) <= packed_b.len());
                    // SAFETY: sliver ranges [t*nr*kp, (t+1)*nr*kp) (kp the
                    // depth as the layout pads it) are disjoint per t;
                    // each t has exactly one owner.
                    let sliver: &mut [T] = unsafe {
                        std::slice::from_raw_parts_mut(pb_base.add(layout.b_offset(t, kl)), layout.b_offset(1, kl))
                    };
                    layout.pack_b(&b.sub(pc, col0, kl, live), sliver);
                    t += p;
                }

                barrier.wait();

                // Loop 3: this worker handles ic strips wid, wid+p, ...
                let mut ic_idx = wid;
                while ic_idx < mb {
                    let ic = ic_idx * mc;
                    let ml = mc.min(m - ic);

                    // Pack A(ml x kl) into this worker's private panel.
                    // Mirrors `goto_pa_strip` / `goto_pa_pack` in cake-audit.
                    debug_assert!((wid + 1) * pa_stride <= packed_a.len());
                    debug_assert!(layout.a_size(ml, kl) <= pa_stride);
                    // SAFETY: range [wid*pa_stride, (wid+1)*pa_stride) is
                    // owned exclusively by this worker.
                    let pa: &mut [T] = unsafe {
                        std::slice::from_raw_parts_mut(
                            packed_a.base_ptr().add(wid * pa_stride),
                            pa_stride,
                        )
                    };
                    let a_slivers = ml.div_ceil(mr);
                    layout.pack_a(&a.sub(ic, pc, ml, kl), pa);
                    let pa_ptr = pa.as_ptr();

                    // Loops 2 & 1: register tiles. GOTO iterates jr outer /
                    // ir inner (B sliver reused across the A panel).
                    for t2 in 0..nslivers {
                        let ncols = nr.min(nl - t2 * nr);
                        let col = jc + t2 * nr;
                        for s in 0..a_slivers {
                            let mrows = mr.min(ml - s * mr);
                            let row = ic + s * mr;
                            // Mirrors `goto_c_tile` in cake-audit.
                            debug_assert!(row + mrows <= m && col + ncols <= n);
                            // SAFETY: packed slivers are full zero-padded
                            // tiles; C tile in bounds; rows disjoint across
                            // workers (distinct ic strips).
                            unsafe {
                                let cptr = out.get().add(row * rsc + col * csc);
                                run_tile(
                                    ukr,
                                    kl,
                                    pa_ptr.add(layout.a_offset(s, kl)),
                                    (pb_base as *const T).add(layout.b_offset(t2, kl)),
                                    cptr,
                                    rsc,
                                    csc,
                                    mrows,
                                    ncols,
                                );
                            }
                        }
                    }

                    ic_idx += p;
                }

                pc += kc;
            }
            jc += nc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_gemm;
    use cake_kernels::select::best_kernel;
    use cake_matrix::compare::assert_gemm_eq;
    use cake_matrix::{init, Matrix};

    fn run_case(m: usize, k: usize, n: usize, p: usize, mc: usize, kc: usize, nc: usize) {
        let a = init::random::<f32>(m, k, 21);
        let b = init::random::<f32>(k, n, 22);
        let mut c = init::random::<f32>(m, n, 23);
        let mut expected = c.clone();

        let params = GotoParams::fixed(p, mc, kc, nc);
        let pool = ThreadPool::new(p);
        execute(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &params,
            &best_kernel::<f32>(),
            &pool,
        );
        naive_gemm(&a, &b, &mut expected);
        assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn single_core_exact_fit() {
        run_case(32, 32, 32, 1, 32, 32, 32);
    }

    #[test]
    fn single_core_many_panels() {
        run_case(70, 50, 90, 1, 16, 16, 32);
    }

    #[test]
    fn multi_core_divisible() {
        run_case(64, 32, 64, 4, 16, 16, 32);
    }

    #[test]
    fn multi_core_ragged() {
        run_case(61, 37, 53, 4, 16, 16, 32);
        run_case(13, 5, 7, 2, 8, 8, 16);
    }

    #[test]
    fn strip_count_less_than_cores() {
        // mb = 2 strips but p = 4: two workers idle, still correct.
        run_case(30, 24, 24, 4, 16, 16, 16);
    }

    #[test]
    fn f64_path() {
        let (m, k, n) = (40, 33, 27);
        let a = init::random::<f64>(m, k, 31);
        let b = init::random::<f64>(k, n, 32);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut expected = Matrix::<f64>::zeros(m, n);
        let params = GotoParams::fixed(2, 12, 12, 16);
        let pool = ThreadPool::new(2);
        execute(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &params,
            &best_kernel::<f64>(),
            &pool,
        );
        naive_gemm(&a, &b, &mut expected);
        assert_gemm_eq(&c, &expected, k);
    }

    #[test]
    fn zero_dims_noop() {
        let a = Matrix::<f32>::zeros(4, 0);
        let b = Matrix::<f32>::zeros(0, 4);
        let mut c = init::ones::<f32>(4, 4);
        let params = GotoParams::fixed(1, 8, 8, 8);
        let pool = ThreadPool::new(1);
        execute(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &params,
            &best_kernel::<f32>(),
            &pool,
        );
        assert_eq!(c.sum_f64(), 16.0);
    }

    #[test]
    #[should_panic(expected = "pool size")]
    fn pool_mismatch_panics() {
        let a = Matrix::<f32>::zeros(4, 4);
        let b = Matrix::<f32>::zeros(4, 4);
        let mut c = Matrix::<f32>::zeros(4, 4);
        let params = GotoParams::fixed(2, 8, 8, 8);
        let pool = ThreadPool::new(1);
        execute(
            &a.view(),
            &b.view(),
            &mut c.view_mut(),
            &params,
            &best_kernel::<f32>(),
            &pool,
        );
    }
}
