//! Owned dense matrices.

use crate::alloc::AlignedBuf;
use crate::element::Element;
use crate::layout::Layout;
use crate::view::{MatrixView, MatrixViewMut};

/// An owned dense `rows x cols` matrix backed by a 64-byte-aligned buffer.
///
/// The leading dimension always equals the minimum for the layout (no
/// internal padding); callers that need padded panels use the packing
/// buffers in `cake-kernels` instead.
pub struct Matrix<T> {
    buf: AlignedBuf<T>,
    rows: usize,
    cols: usize,
    layout: Layout,
}

impl<T: Element> Matrix<T> {
    /// A zero-filled row-major matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::zeros_with_layout(rows, cols, Layout::RowMajor)
    }

    /// A zero-filled matrix with the given layout.
    pub fn zeros_with_layout(rows: usize, cols: usize, layout: Layout) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self {
            buf: AlignedBuf::zeroed(len),
            rows,
            cols,
            layout,
        }
    }

    /// Build a row-major matrix from a generator function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Build a row-major matrix from a flat slice in row-major order.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        let mut m = Self::zeros(rows, cols);
        m.buf.copy_from_slice(data);
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Leading dimension (elements between consecutive rows or columns).
    #[inline]
    pub fn ld(&self) -> usize {
        self.layout.min_ld(self.rows, self.cols)
    }

    /// Flat backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Mutable flat backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        // audit: checked extent contract; callers index within the matrix by construction
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        // audit: checked dominated by the extent assert above; layout offsets stay inside buf
        self.buf[self.layout.offset(i, j, self.ld())]
    }

    /// Set element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        // audit: checked extent contract; callers index within the matrix by construction
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        let off = self.layout.offset(i, j, self.ld());
        // audit: checked dominated by the extent assert above
        self.buf[off] = v;
    }

    /// Immutable view of the whole matrix (strided, layout-aware).
    pub fn view(&self) -> MatrixView<'_, T> {
        let ld = self.ld();
        match self.layout {
            Layout::RowMajor => MatrixView::new(&self.buf, self.rows, self.cols, ld, 1),
            Layout::ColMajor => MatrixView::new(&self.buf, self.rows, self.cols, 1, ld),
        }
    }

    /// Mutable view of the whole matrix.
    pub fn view_mut(&mut self) -> MatrixViewMut<'_, T> {
        let ld = self.ld();
        let (rows, cols) = (self.rows, self.cols);
        match self.layout {
            Layout::RowMajor => MatrixViewMut::new(&mut self.buf, rows, cols, ld, 1),
            Layout::ColMajor => MatrixViewMut::new(&mut self.buf, rows, cols, 1, ld),
        }
    }

    /// Copy into the opposite layout (physically transposing storage, not
    /// the logical matrix).
    pub fn to_layout(&self, layout: Layout) -> Matrix<T> {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Matrix::zeros_with_layout(self.rows, self.cols, layout);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(i, j, self.get(i, j));
            }
        }
        out
    }

    /// The logical transpose as a new owned matrix.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: T) {
        for x in self.buf.iter_mut() {
            *x = v;
        }
    }

    /// Sum of all elements widened to `f64` (test/diagnostic helper).
    pub fn sum_f64(&self) -> f64 {
        self.buf.iter().map(|x| x.to_f64()).sum()
    }
}

impl Matrix<i32> {
    /// This matrix's allocation handed on as a `Matrix<f32>` of the same
    /// shape and layout, each element's bits unchanged (read one back as
    /// `v.to_bits() as i32`). A caller converting i32 results to f32 writes
    /// each one over its own element instead of allocating a second matrix.
    pub fn into_f32_bits(self) -> Matrix<f32> {
        Matrix {
            buf: self.buf.into_f32_bits(),
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
        }
    }
}

impl<T: Element> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Self {
            buf: self.buf.clone(),
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
        }
    }
}

impl<T: Element> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} ({:?})", self.rows, self.cols, self.layout)?;
        let show_r = self.rows.min(6);
        let show_c = self.cols.min(6);
        for i in 0..show_r {
            write!(f, "  [")?;
            for j in 0..show_c {
                write!(f, " {:>10.4}", self.get(i, j))?;
            }
            if show_c < self.cols {
                write!(f, " ...")?;
            }
            writeln!(f, " ]")?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let mut m = Matrix::<f32>::zeros(3, 4);
        assert_eq!(m.get(2, 3), 0.0);
        m.set(2, 3, 5.0);
        assert_eq!(m.get(2, 3), 5.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn from_fn_and_from_rows_agree() {
        let a = Matrix::<f64>::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let flat: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let b = Matrix::from_rows(3, 4, &flat);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(a.get(i, j), b.get(i, j));
            }
        }
    }

    #[test]
    fn layout_conversion_preserves_logical_values() {
        let a = Matrix::<f32>::from_fn(5, 3, |i, j| (i * 10 + j) as f32);
        let c = a.to_layout(Layout::ColMajor);
        assert_eq!(c.layout(), Layout::ColMajor);
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), c.get(i, j));
            }
        }
        // Physical order differs.
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn transpose_swaps_dims_and_values() {
        let a = Matrix::<f64>::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        let t = a.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn views_alias_storage() {
        let mut m = Matrix::<f32>::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        {
            let mut v = m.view_mut();
            v.set(0, 1, -1.0);
        }
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.view().get(3, 3), 15.0);
    }

    #[test]
    fn col_major_view_strides() {
        let m = Matrix::<f64>::from_fn(3, 2, |i, j| (i * 2 + j) as f64).to_layout(Layout::ColMajor);
        let v = m.view();
        assert_eq!(v.row_stride(), 1);
        assert_eq!(v.col_stride(), 3);
        assert_eq!(v.get(2, 1), 5.0);
    }

    #[test]
    fn zero_sized_matrices() {
        let m = Matrix::<f32>::zeros(0, 5);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.as_slice().len(), 0);
        let n = Matrix::<f32>::zeros(5, 0);
        assert_eq!(n.sum_f64(), 0.0);
    }

    #[test]
    fn i32_matrix_hands_its_storage_to_f32_bits() {
        let m = Matrix::<i32>::from_fn(3, 4, |i, j| (i * 4 + j) as i32 - 5).to_layout(Layout::ColMajor);
        let ptr = m.as_slice().as_ptr() as usize;
        let f = m.into_f32_bits();
        assert_eq!((f.rows(), f.cols(), f.layout()), (3, 4, Layout::ColMajor));
        assert_eq!(f.as_slice().as_ptr() as usize, ptr);
        assert_eq!(f.get(2, 1).to_bits() as i32, 4);
        assert_eq!(f.get(0, 0).to_bits() as i32, -5);
        assert!(Matrix::<i32>::zeros(0, 3).into_f32_bits().as_slice().is_empty());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_rows_rejects_wrong_length() {
        let _ = Matrix::<f32>::from_rows(2, 2, &[1.0, 2.0, 3.0]);
    }
}
