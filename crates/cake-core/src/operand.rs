//! The A operand of a GEMM: a matrix packed on every call, or weights
//! packed once. (B's counterpart, a B read in place, is
//! [`TiledB`](cake_kernels::pack::TiledB): a [`PackB`] operand whose
//! memory already has the AMX kernel's tile layout.)
//!
//! The paper's CPU CB block gives each core an `mc x kc` A surface, packed
//! and held in its L2 while the B panel streams past (Section 4.2). In a
//! DNN layer that A is the weight matrix, identical on every pass, so
//! packing it on every call only repeats work. [`PackedA`] packs a whole A
//! once, one `kc`-deep block at a time in a kernel's layout; the executor
//! then reads each worker's strip of each block in place.
//!
//! Why an in-place read works for every `N` and every `p`: a block's row
//! extent `p * mc` is a multiple of `mr` (every shape
//! [`crate::api::CakeGemm`] runs has `mc` cut to whole slivers by
//! [`crate::shape::CbBlockShape::clamp_to_problem`], and the executor
//! checks it), every
//! worker's first row within a block is a multiple of `mr`
//! ([`crate::executor::worker_rows`]), and the block depth
//! `kc = min(analytic kc, K)` does not depend on `M` or `N`. So a worker's
//! strip of any block is one contiguous run of slivers, padding included,
//! starting at [`PackLayout::a_kblock_base`] of the block plus
//! [`PackLayout::a_offset`] of the strip's first sliver.
//!
//! [`PackLayout::a_kblock_base`]: cake_kernels::pack::PackLayout::a_kblock_base
//! [`PackLayout::a_offset`]: cake_kernels::pack::PackLayout::a_offset
//!
//! [`OperandA`] is what the executor reads: either kind of A.
//! [`AsOperandA`] lets every GEMM entry take a [`Matrix`], a
//! [`MatrixView`] or a [`PackedA`] alike.
//!
//! The B operand is any [`PackB`]. The executor packs it block by block
//! into the workspace's panel ring, unless it is a
//! [`TiledB`](cake_kernels::pack::TiledB) ([`PackB::tiled_b`]) and the
//! kernel [reads B tiles](Ukr::reads_b_tiles) at the call's block depth:
//! then each worker's kernel loads every B tile of every block in place,
//! and no panel is packed or reserved. A packed panel pays only through
//! reuse, and a convolution's is read by one block, so its pack bought
//! nothing but the kernel's layout.
//!
//! [`PackB`]: cake_kernels::pack::PackB
//! [`PackB::tiled_b`]: cake_kernels::pack::PackB::tiled_b

use cake_kernels::Ukr;
use cake_matrix::{AlignedBuf, Dtype, Matrix, MatrixView};

/// A whole `rows x cols` A operand packed once, in the layout of the
/// kernel it was packed for, one `kc`-deep k-block at a time: block
/// `k0 / kc` is [`PackLayout::pack_a`] of the `rows x min(kc, cols - k0)`
/// block at depth `k0` over all rows, edge slivers zero-padded, and the
/// blocks sit back to back in one 64-byte-aligned buffer
/// ([`PackLayout::a_kblock_base`]).
///
/// [`PackLayout::pack_a`]: cake_kernels::pack::PackLayout::pack_a
/// [`PackLayout::a_kblock_base`]: cake_kernels::pack::PackLayout::a_kblock_base
///
/// The executor reads it only with the layout and the `kc` it records;
/// [`crate::api::CakeGemm`] runs it with the kernel it records.
pub struct PackedA<T: Dtype> {
    buf: AlignedBuf<T>,
    rows: usize,
    cols: usize,
    kc: usize,
    ukr: Ukr<T>,
}

impl<T: Dtype> PackedA<T> {
    /// Pack `a` for `ukr`'s layout at block depth `kc`. Pass the `kc` the
    /// GEMM will run with; [`crate::api::CakeGemm::prepack`] picks the
    /// kernel and the depth its context would.
    ///
    /// # Panics
    /// Panics if `kc` is 0.
    pub fn new(a: &MatrixView<'_, T>, ukr: Ukr<T>, kc: usize) -> Self {
        assert!(kc > 0, "a packed A needs a block depth of at least 1");
        let layout = ukr.pack_layout();
        let (m, k) = (a.rows(), a.cols());
        let mut buf = AlignedBuf::zeroed(layout.a_blocked_size(m, k, kc));
        for k0 in (0..k).step_by(kc) {
            let kl = kc.min(k - k0);
            let base = layout.a_kblock_base(m, k0, kc);
            layout.pack_a(&a.sub(0, k0, m, kl), &mut buf[base..base + layout.a_size(m, kl)]);
        }
        Self { buf, rows: m, cols: k, kc, ukr }
    }

    /// Rows of A (`M`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of A (`K`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The block depth A was packed at.
    #[inline]
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// The kernel A was packed for; its [`Ukr::pack_layout`] is the layout
    /// of the buffer.
    #[inline]
    pub fn kernel(&self) -> &Ukr<T> {
        &self.ukr
    }

    /// The packed elements, k-block after k-block.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Bytes of the packed buffer, padding included.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val::<[T]>(&self.buf)
    }
}

/// The A operand of a GEMM, as the executor reads it.
#[derive(Clone, Copy)]
pub enum OperandA<'a, T: Dtype> {
    /// A view of A: each worker packs its strip of every block into the
    /// workspace on every call.
    Matrix(MatrixView<'a, T>),
    /// A packed once ahead of time: each worker reads its strip of every
    /// block in place, and workers in one row group share it read-only.
    Packed(&'a PackedA<T>),
}

impl<T: Dtype> OperandA<'_, T> {
    /// `(rows, cols)` of A: `(M, K)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        match self {
            OperandA::Matrix(v) => (v.rows(), v.cols()),
            OperandA::Packed(p) => (p.rows, p.cols),
        }
    }
}

/// Anything a GEMM takes as its A: a [`Matrix`] or a [`MatrixView`],
/// packed per call, or a [`PackedA`], read in place.
pub trait AsOperandA<T: Dtype> {
    /// This A as the executor reads it.
    fn as_operand_a(&self) -> OperandA<'_, T>;
}

impl<T: Dtype> AsOperandA<T> for MatrixView<'_, T> {
    #[inline]
    fn as_operand_a(&self) -> OperandA<'_, T> {
        OperandA::Matrix(*self)
    }
}

impl<T: Dtype> AsOperandA<T> for Matrix<T> {
    // audit: cold whole-matrix view, built once per call before any loop
    // (its extent check runs there)
    #[inline]
    fn as_operand_a(&self) -> OperandA<'_, T> {
        OperandA::Matrix(self.view())
    }
}

impl<T: Dtype> AsOperandA<T> for PackedA<T> {
    #[inline]
    fn as_operand_a(&self) -> OperandA<'_, T> {
        OperandA::Packed(self)
    }
}

impl<T: Dtype> AsOperandA<T> for OperandA<'_, T> {
    #[inline]
    fn as_operand_a(&self) -> OperandA<'_, T> {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_kernels::select::best_kernel;
    use cake_matrix::init;

    /// Every block of a packed A is `pack_a` of that block alone, at the
    /// offset the k-block order gives it, for every kernel layout the host
    /// runs (the AMX tile layout pads each block's depth on its own).
    fn check_blocks<T: Dtype + cake_kernels::select::KernelSelect>(a: &Matrix<T>) {
        let tiers: Vec<Ukr<T>> = cake_kernels::available_tiers()
            .into_iter()
            .filter_map(cake_kernels::tier_kernel::<T>)
            .collect();
        let (m, k) = (a.rows(), a.cols());
        for ukr in tiers.iter().copied().chain([best_kernel::<T>()]) {
            let layout = ukr.pack_layout();
            for kc in [1, 7, 16, 64, 100, k.max(1)] {
                let pa = PackedA::new(&a.view(), ukr, kc);
                assert_eq!(pa.as_slice().len(), layout.a_blocked_size(m, k, kc));
                assert_eq!((pa.rows(), pa.cols(), pa.kc()), (m, k, kc));
                let mut at = 0;
                for k0 in (0..k).step_by(kc) {
                    let kl = kc.min(k - k0);
                    let mut want = vec![T::default(); layout.a_size(m, kl)];
                    layout.pack_a(&a.view().sub(0, k0, m, kl), &mut want);
                    assert_eq!(layout.a_kblock_base(m, k0, kc), at, "{} kc={kc} k0={k0}", ukr.name());
                    assert!(pa.as_slice()[at..at + want.len()] == want[..], "{} kc={kc} k0={k0}", ukr.name());
                    at += want.len();
                }
                assert_eq!(at, pa.as_slice().len());
            }
        }
    }

    #[test]
    fn packed_blocks_equal_per_block_packs() {
        check_blocks::<f32>(&init::random(45, 130, 1));
        check_blocks::<f64>(&init::random(9, 33, 2));
        check_blocks::<i8>(&init::random_i8(70, 200, 3));
        check_blocks::<i8>(&init::random_i8(0, 5, 4));
        check_blocks::<f32>(&init::random(3, 0, 5));
    }

    #[test]
    fn operands_report_their_dims() {
        let a = init::random::<f32>(5, 7, 1);
        let pa = PackedA::new(&a.view(), best_kernel::<f32>(), 4);
        assert_eq!(a.as_operand_a().dims(), (5, 7));
        assert_eq!(a.view().as_operand_a().dims(), (5, 7));
        assert_eq!(pa.as_operand_a().dims(), (5, 7));
        assert_eq!(pa.as_operand_a().as_operand_a().dims(), (5, 7));
        assert!(pa.bytes() >= 5 * 7 * 4);
    }
}
