//! The microkernel contract and portable implementations.
//!
//! A microkernel computes, for packed slivers `a` (`mr x kc`) and `b`
//! (`kc x nr`) in the layout it declares ([`Ukr::pack_layout`]; k-major for all
//! but the AMX kernel), the update
//!
//! ```text
//! C[0..mr, 0..nr] += sum_k a[k*mr + i] * b[k*nr + j]
//! ```
//!
//! writing through raw pointers with arbitrary row/column strides so the
//! same kernel serves row-major, column-major, and packed-intermediate `C`
//! tiles. One kernel invocation is the paper's "tile multiplication per
//! unit time" primitive (Section 3).
//!
//! A kernel may also read its B sliver in place ([`Ukr::reads_b_tiles`]):
//! the AMX kernel takes each k-step's B tiles from wherever they already
//! sit in memory ([`BTiles`]: a base per 16-column tile, an offset per
//! k-step and one row stride), so a B stored in its tile layout needs no
//! pack.

use cake_matrix::{Bf16, Dtype, Element};

use crate::pack::PackLayout;

/// Signature of a raw microkernel.
///
/// Operands are `T`; the C tile is `T::Acc` — identical types for the
/// classic f32/f64 paths, widened for the narrow-dtype tier (`i8 -> i32`,
/// `Bf16 -> f32`) so K-long reductions neither overflow nor lose
/// precision.
///
/// # Safety contract
/// * `a` points to one packed A sliver of the kernel's layout: at least
///   `mr * layout.k_padded(kc)` elements ([`PackLayout::a_size`] of an
///   `mr x kc` block).
/// * `b` points to one packed B sliver: at least `nr * layout.k_padded(kc)`
///   elements.
/// * `c` points to a tile where `c[i*rsc + j*csc]` is valid for all
///   `i < mr`, `j < nr`, and does not alias `a` or `b`.
pub type UkrFn<T> = unsafe fn(
    kc: usize,
    a: *const T,
    b: *const T,
    c: *mut <T as Dtype>::Acc,
    rsc: usize,
    csc: usize,
);

/// One partial-tile instance of a kernel: [`UkrFn`]'s update restricted to
/// the live `rows x ncols` corner of the tile, where the instance fixes
/// `rows` and `ncols` is its last argument. No element of `C` outside that
/// corner is read or written.
///
/// # Safety contract
/// [`UkrFn`]'s, except that `c[i*rsc + j*csc]` need be valid only for
/// `i < rows`, `j < ncols`, and `ncols` must lie in the column range the
/// instance was looked up for (see [`EdgeLookup`]).
pub(crate) type EdgeFn<T> = unsafe fn(
    kc: usize,
    a: *const T,
    b: *const T,
    c: *mut <T as Dtype>::Acc,
    rsc: usize,
    csc: usize,
    ncols: usize,
);

/// Where one `32`-column B sliver's tiles sit when a kernel reads them in
/// place: k-step `s` of column tile `t` is the 16 tile rows at `tiles[t] +
/// steps[s] + r * row_stride`, `r < 16`, each [`TILE_K`](crate::pack::TILE_K)
/// elements long (16 columns of 4 k values, as
/// [`LayoutKind::Tiles`](crate::pack::LayoutKind::Tiles) packs them). The
/// sliver is `64 * steps.len()` deep.
#[derive(Clone, Copy, Debug)]
pub struct BTiles<'s, T> {
    /// Row 0 of k-step 0 of each 16-column tile, before the step offset.
    pub tiles: [*const T; 2],
    /// Per k-step, the elements from `tiles[t]` to the step's first row.
    pub steps: &'s [usize],
    /// Elements from one tile row to the next.
    pub row_stride: usize,
}

/// A kernel's in-place B entry: [`UkrFn`]'s update with B read from
/// [`BTiles`], over the live `mrows x ncols` corner of C only.
///
/// # Safety contract
/// * `a` is one packed A sliver of the kernel's layout, `64 *
///   b.steps.len()` deep;
/// * every tile row [`BTiles`] names is readable for 64 elements;
/// * `c[i*rsc + j*csc]` is valid for `i < mrows <= mr`, `j < ncols <= nr`,
///   and aliases neither operand.
pub type BTilesFn<T> = unsafe fn(
    a: *const T,
    b: BTiles<'_, T>,
    c: *mut <T as Dtype>::Acc,
    strides: (usize, usize),
    live: (usize, usize),
);

/// Finds a kernel's [`EdgeFn`] instance for a live `mrows x ncols` region,
/// or `None` when it has none for that shape.
pub(crate) type EdgeLookup<T> = fn(mrows: usize, ncols: usize) -> Option<EdgeFn<T>>;

/// A microkernel: its packed layout (which carries the register-tile
/// shape) plus the raw function, and for some kernels the partial-tile
/// instances that [`crate::edge::run_tile`] runs on a tile's live region.
#[derive(Clone, Copy)]
pub struct Ukr<T: Dtype> {
    layout: PackLayout,
    name: &'static str,
    func: UkrFn<T>,
    edge: Option<EdgeLookup<T>>,
    b_tiles: Option<BTilesFn<T>>,
}

impl<T: Dtype> Ukr<T> {
    /// Construct a kernel descriptor that reads k-major slivers
    /// (crate-internal; users obtain kernels from [`crate::select`]).
    pub(crate) fn new(mr: usize, nr: usize, name: &'static str, func: UkrFn<T>) -> Self {
        Self::with_layout(PackLayout::k_major(mr, nr), name, func)
    }

    /// Construct a kernel descriptor that reads `layout`.
    pub(crate) fn with_layout(layout: PackLayout, name: &'static str, func: UkrFn<T>) -> Self {
        Self { layout, name, func, edge: None, b_tiles: None }
    }

    /// The same kernel with partial-tile instances: `lookup` maps a live
    /// `(mrows, ncols)` region to the instance that writes it directly.
    pub(crate) fn with_edge(self, lookup: EdgeLookup<T>) -> Self {
        Self { edge: Some(lookup), ..self }
    }

    /// The same kernel with an in-place B entry ([`BTilesFn`]).
    pub(crate) fn with_b_tiles(self, entry: BTilesFn<T>) -> Self {
        Self { b_tiles: Some(entry), ..self }
    }

    /// The instance that writes a live `mrows x ncols` region straight
    /// into `C`, if this kernel has one for that shape.
    #[inline]
    pub(crate) fn edge(&self, mrows: usize, ncols: usize) -> Option<EdgeFn<T>> {
        match self.edge {
            Some(lookup) => lookup(mrows, ncols),
            None => None,
        }
    }

    /// Register-tile rows.
    #[inline]
    pub fn mr(&self) -> usize {
        self.layout.mr()
    }

    /// Register-tile columns.
    #[inline]
    pub fn nr(&self) -> usize {
        self.layout.nr()
    }

    /// The packed layout this kernel reads. Packing for it goes through
    /// [`PackLayout::pack_a`] / [`PackLayout::pack_b`] (or
    /// [`crate::pack::PackB`]), never the k-major
    /// [`pack_a`](crate::pack::pack_a) / [`pack_b`](crate::pack::pack_b)
    /// directly.
    #[inline]
    pub fn pack_layout(&self) -> PackLayout {
        self.layout
    }

    /// Human-readable kernel name (e.g. `"avx2_f32_6x16"`).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// FLOPs performed by one invocation with reduction depth `kc`.
    #[inline]
    pub fn flops(&self, kc: usize) -> usize {
        2 * self.mr() * self.nr() * kc
    }

    /// Invoke the kernel on a full `mr x nr` tile.
    ///
    /// # Safety
    /// See [`UkrFn`]'s safety contract.
    #[inline]
    pub unsafe fn call(
        &self,
        kc: usize,
        a: *const T,
        b: *const T,
        c: *mut T::Acc,
        rsc: usize,
        csc: usize,
    ) {
        // SAFETY: the caller upholds UkrFn's contract (sliver lengths and a
        // valid, non-aliasing C tile), which is exactly what `func` requires.
        unsafe { (self.func)(kc, a, b, c, rsc, csc) }
    }

    /// Whether this kernel reads a B sliver in place from [`BTiles`]
    /// ([`call_b_tiles`](Self::call_b_tiles)); only the AMX kernel does.
    #[inline]
    pub fn reads_b_tiles(&self) -> bool {
        self.b_tiles.is_some()
    }

    /// `C[0..mrows][0..ncols] += A * B` with B read in place from `b`; a
    /// kernel that does not [read B tiles](Self::reads_b_tiles) writes
    /// nothing.
    ///
    /// # Safety
    /// See [`BTilesFn`]'s safety contract.
    #[inline]
    pub unsafe fn call_b_tiles(&self, a: *const T, b: BTiles<'_, T>, c: *mut T::Acc, strides: (usize, usize), live: (usize, usize)) {
        if let Some(entry) = self.b_tiles {
            // SAFETY: the caller upholds BTilesFn's contract.
            unsafe { entry(a, b, c, strides, live) }
        }
    }
}

impl<T: Dtype> std::fmt::Debug for Ukr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ukr({} {}x{})", self.name, self.mr(), self.nr())
    }
}

/// Portable register-blocked kernel, monomorphized per tile shape.
///
/// The accumulator lives in a `[[T::Acc; NR]; MR]` array; with
/// `opt-level >= 2` LLVM keeps it in vector registers and auto-vectorizes
/// the inner loop. Operands are widened ([`Dtype::widen`]) before the
/// multiply — a no-op for f32/f64, a sign-extend for i8, a mantissa
/// zero-fill for bf16 — so narrow products accumulate exactly. Plain
/// `mul + add` is used rather than `mul_add`: on targets without a native
/// FMA the latter lowers to a libm call, which is catastrophically slow,
/// and the accuracy difference is absorbed by the GEMM tolerance.
///
/// # Safety
/// [`UkrFn`]'s contract with `mr = MR`, `nr = NR`.
#[allow(clippy::needless_range_loop)] // index form keeps the accumulator tile explicit for LLVM
pub(crate) unsafe fn generic_ukr<T: Dtype, const MR: usize, const NR: usize>(
    kc: usize,
    a: *const T,
    b: *const T,
    c: *mut T::Acc,
    rsc: usize,
    csc: usize,
) {
    let mut acc = [[<T::Acc>::ZERO; NR]; MR];
    // SAFETY: per UkrFn's contract `a` holds kc*MR elements and `b` holds
    // kc*NR, so k*MR + i < kc*MR and k*NR + j < kc*NR for k < kc, i < MR,
    // j < NR; the C writes touch c[i*rsc + j*csc] for i < MR, j < NR, which
    // the caller guarantees are in-bounds and non-aliasing.
    unsafe {
        for k in 0..kc {
            let ak = a.add(k * MR);
            let bk = b.add(k * NR);
            for i in 0..MR {
                let ai = (*ak.add(i)).widen();
                for j in 0..NR {
                    acc[i][j] += ai * (*bk.add(j)).widen();
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let p = c.add(i * rsc + j * csc);
                *p += v;
            }
        }
    }
}

/// Scalar reference kernel used to validate all other kernels in tests.
/// Widens each operand before multiplying, exactly like the portable
/// `generic_ukr` kernel.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub fn reference_ukr<T: Dtype>(
    kc: usize,
    mr: usize,
    nr: usize,
    a: &[T],
    b: &[T],
    c: &mut [T::Acc],
    rsc: usize,
    csc: usize,
) {
    assert!(a.len() >= kc * mr, "A sliver too short");
    assert!(b.len() >= kc * nr, "B sliver too short");
    for k in 0..kc {
        for i in 0..mr {
            for j in 0..nr {
                c[i * rsc + j * csc] += a[k * mr + i].widen() * b[k * nr + j].widen();
            }
        }
    }
}

macro_rules! portable {
    ($name:ident, $t:ty, $mr:literal, $nr:literal, $label:literal) => {
        /// Portable kernel instantiation.
        pub fn $name() -> Ukr<$t> {
            Ukr::new($mr, $nr, $label, generic_ukr::<$t, $mr, $nr>)
        }
    };
}

portable!(portable_f32_8x8, f32, 8, 8, "portable_f32_8x8");
portable!(portable_f32_4x4, f32, 4, 4, "portable_f32_4x4");
portable!(portable_f64_4x8, f64, 4, 8, "portable_f64_4x8");
portable!(portable_f64_4x4, f64, 4, 4, "portable_f64_4x4");
portable!(portable_i8_8x8, i8, 8, 8, "portable_i8_8x8");
portable!(portable_bf16_8x8, Bf16, 8, 8, "portable_bf16_8x8");

#[cfg(test)]
mod tests {
    use super::*;
    use cake_matrix::init;

    fn check_against_reference<T: Dtype>(ukr: &Ukr<T>, kc: usize) {
        let mr = ukr.mr();
        let nr = ukr.nr();
        let a = init::random::<T>(kc, mr, 11);
        let b = init::random::<T>(kc, nr, 22);
        // C with a row-major stride wider than nr to catch stride bugs.
        let ld = nr + 3;
        let mut c_test = vec![<T::Acc>::ZERO; mr * ld];
        let mut c_ref = vec![<T::Acc>::ZERO; mr * ld];
        // Pre-fill with a pattern: kernels must accumulate, not overwrite.
        for (i, x) in c_test.iter_mut().enumerate() {
            *x = <T::Acc>::from_f64((i % 5) as f64);
        }
        c_ref.copy_from_slice(&c_test);

        // SAFETY: a/b are kc*mr- and kc*nr-element slices from init::random,
        // and c_test holds mr*ld elements with rsc=ld, csc=1 so every
        // c[i*ld + j] for i < mr, j < nr is in-bounds.
        unsafe {
            ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c_test.as_mut_ptr(), ld, 1);
        }
        reference_ukr(kc, mr, nr, a.as_slice(), b.as_slice(), &mut c_ref, ld, 1);

        for (i, (x, y)) in c_test.iter().zip(&c_ref).enumerate() {
            let d = (x.to_f64() - y.to_f64()).abs();
            assert!(
                d <= 1e-4 * (1.0 + y.to_f64().abs()),
                "{} idx {i}: {x} vs {y}",
                ukr.name()
            );
        }
    }

    #[test]
    fn portable_f32_matches_reference() {
        for kc in [1, 2, 7, 64] {
            check_against_reference(&portable_f32_8x8(), kc);
            check_against_reference(&portable_f32_4x4(), kc);
        }
    }

    #[test]
    fn portable_f64_matches_reference() {
        for kc in [1, 3, 17, 128] {
            check_against_reference(&portable_f64_4x8(), kc);
            check_against_reference(&portable_f64_4x4(), kc);
        }
    }

    #[test]
    fn portable_i8_matches_reference_exactly() {
        // Full-range operands, i32 accumulate: results must be bit-exact.
        for kc in [1, 2, 7, 64, 333] {
            let ukr = portable_i8_8x8();
            let (mr, nr) = (ukr.mr(), ukr.nr());
            let a = init::random_i8(kc, mr, 5);
            let b = init::random_i8(kc, nr, 6);
            let ld = nr + 2;
            let mut c_test = vec![7i32; mr * ld];
            let mut c_ref = c_test.clone();
            // SAFETY: a/b are kc*mr- and kc*nr-element slices; c_test holds
            // mr*ld i32 with rsc=ld, csc=1 so every write is in-bounds.
            unsafe {
                ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c_test.as_mut_ptr(), ld, 1);
            }
            reference_ukr(kc, mr, nr, a.as_slice(), b.as_slice(), &mut c_ref, ld, 1);
            assert_eq!(c_test, c_ref, "kc={kc}");
        }
    }

    #[test]
    fn portable_bf16_matches_reference_exactly() {
        // Identical widen-then-multiply order on both sides. The kernel sums
        // the k-products into a local accumulator and adds the prior C value
        // last, so the reference sums into a zeroed buffer and adds the init
        // afterwards — same association, hence bit-exact.
        for kc in [1, 3, 17, 128] {
            let ukr = portable_bf16_8x8();
            let (mr, nr) = (ukr.mr(), ukr.nr());
            let a = init::random::<Bf16>(kc, mr, 8);
            let b = init::random::<Bf16>(kc, nr, 9);
            let ld = nr + 1;
            let mut c_test = vec![0.5f32; mr * ld];
            let mut c_ref = vec![0.0f32; mr * ld];
            // SAFETY: a/b are kc*mr- and kc*nr-element slices; c_test holds
            // mr*ld f32 with rsc=ld, csc=1 so every write is in-bounds.
            unsafe {
                ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c_test.as_mut_ptr(), ld, 1);
            }
            reference_ukr(kc, mr, nr, a.as_slice(), b.as_slice(), &mut c_ref, ld, 1);
            for x in c_ref.iter_mut() {
                *x += 0.5;
            }
            assert_eq!(c_test, c_ref, "kc={kc}");
        }
    }

    #[test]
    fn kc_zero_is_identity() {
        let ukr = portable_f32_8x8();
        let a: Vec<f32> = vec![];
        let b: Vec<f32> = vec![];
        let mut c = vec![3.0f32; 64];
        // SAFETY: kc=0 means the kernel reads nothing from a/b, and c holds
        // a full 8x8 tile (64 elements) for the accumulate-zero writes.
        unsafe { ukr.call(0, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), 8, 1) };
        assert!(c.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn flops_counts_macs_times_two() {
        let ukr = portable_f32_8x8();
        assert_eq!(ukr.flops(10), 2 * 8 * 8 * 10);
    }

    #[test]
    fn column_major_c_strides() {
        let ukr = portable_f64_4x4();
        let kc = 5;
        let a = init::random::<f64>(kc, 4, 3);
        let b = init::random::<f64>(kc, 4, 4);
        let mut c_cm = vec![0.0f64; 16];
        let mut c_rm = vec![0.0f64; 16];
        // SAFETY: a/b are kc*4-element slivers; both C buffers hold 16
        // elements, covering the 4x4 tile under either stride order.
        unsafe {
            // column-major: rsc=1, csc=4
            ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c_cm.as_mut_ptr(), 1, 4);
            ukr.call(kc, a.as_slice().as_ptr(), b.as_slice().as_ptr(), c_rm.as_mut_ptr(), 4, 1);
        }
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c_cm[j * 4 + i], c_rm[i * 4 + j]);
            }
        }
    }
}
