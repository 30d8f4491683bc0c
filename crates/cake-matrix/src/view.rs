//! Borrowed strided sub-matrix views.
//!
//! Views are the currency between the schedulers, packing routines, and
//! microkernels: a scheduler selects a block of the computation space, takes
//! a view of the corresponding operand region, and hands it to a packer.
//!
//! A view is always *logically row-major*: `(i, j)` maps to
//! `i * row_stride + j * col_stride`. A column-major matrix is simply a view
//! with `col_stride > 1` and `row_stride == 1`, so transposition is free.

use crate::element::Element;

/// Immutable strided view over a region of a matrix.
#[derive(Clone, Copy)]
pub struct MatrixView<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

/// Mutable strided view over a region of a matrix.
pub struct MatrixViewMut<'a, T> {
    data: &'a mut [T],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

fn check_bounds(
    len: usize,
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    let max = (rows - 1) * row_stride + (cols - 1) * col_stride;
    assert!(
        max < len,
        "view out of bounds: max offset {max} >= slice len {len} \
         (rows={rows}, cols={cols}, rs={row_stride}, cs={col_stride})"
    );
}

impl<'a, T: Element> MatrixView<'a, T> {
    /// Create a view over `data` with explicit strides.
    ///
    /// # Panics
    /// Panics if the addressed region does not fit inside `data`.
    pub fn new(
        data: &'a [T],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        check_bounds(data.len(), rows, cols, row_stride, col_stride);
        Self {
            data,
            rows,
            cols,
            row_stride,
            col_stride,
        }
    }

    /// A contiguous row-major view (`col_stride == 1`).
    pub fn row_major(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        Self::new(data, rows, cols, ld, 1)
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

    /// Distance in elements between vertically adjacent elements.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Distance in elements between horizontally adjacent elements.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// The slice the view reads, from element `(0, 0)` on: element `(i,
    /// j)` is at `i * row_stride + j * col_stride`.
    #[inline]
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }

    /// Element at `(i, j)`, bounds-checked.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        // audit: checked extent contract; pack-loop callers index within the view by construction
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        // audit: checked dominated by the extent assert above
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// Element at `(i, j)` without bounds checks.
    ///
    /// # Safety
    /// `i < rows` and `j < cols` must hold.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: i < rows and j < cols (caller contract), and the view
        // constructor checked that (rows-1)*rs + (cols-1)*cs < data.len().
        unsafe {
            *self
                .data
                .get_unchecked(i * self.row_stride + j * self.col_stride)
        }
    }

    /// Sub-view of `nrows x ncols` starting at `(i0, j0)`.
    pub fn sub(&self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> MatrixView<'a, T> {
        // audit: checked sub-views are tile ranges clipped to the extents by the scheduler
        assert!(i0 + nrows <= self.rows, "row range out of bounds");
        // audit: checked sub-views are tile ranges clipped to the extents by the scheduler
        assert!(j0 + ncols <= self.cols, "col range out of bounds");
        let offset = i0 * self.row_stride + j0 * self.col_stride;
        MatrixView {
            // audit: checked start clamped to data.len(); extents validated by the asserts above
            data: &self.data[offset.min(self.data.len())..],
            rows: nrows,
            cols: ncols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// A contiguous slice of row `i` starting at column `j0`, when the
    /// view has unit column stride (the common row-major fast path used by
    /// the packing loops). `None` for strided columns.
    pub fn contiguous_row(&self, i: usize, j0: usize, len: usize) -> Option<&'a [T]> {
        if self.col_stride != 1 {
            return None;
        }
        // audit: checked pack callers request rows inside the view by construction
        assert!(i < self.rows && j0 + len <= self.cols, "row slice out of bounds");
        let start = i * self.row_stride + j0;
        // audit: checked within the constructor-validated max offset (col stride 1)
        Some(&self.data[start..start + len])
    }

    /// A contiguous slice of column `j` starting at row `i0`, when the
    /// view has unit row stride (a column-major source — the packed-A fast
    /// path, symmetric to [`Self::contiguous_row`]). `None` for strided
    /// rows.
    pub fn contiguous_col(&self, j: usize, i0: usize, len: usize) -> Option<&'a [T]> {
        if self.row_stride != 1 {
            return None;
        }
        // audit: checked pack callers request columns inside the view by construction
        assert!(j < self.cols && i0 + len <= self.rows, "col slice out of bounds");
        let start = j * self.col_stride + i0;
        // audit: checked within the constructor-validated max offset (row stride 1)
        Some(&self.data[start..start + len])
    }

    /// The transposed view (free: swaps dims and strides).
    pub fn t(&self) -> MatrixView<'a, T> {
        MatrixView {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// Copy the view into a fresh row-major `Vec` (test/debug helper).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.push(self.get(i, j));
            }
        }
        out
    }
}

impl<'a, T: Element> MatrixViewMut<'a, T> {
    /// Create a mutable view over `data` with explicit strides.
    ///
    /// # Panics
    /// Panics if the addressed region does not fit inside `data`, or if the
    /// strides could alias distinct logical elements (either stride zero with
    /// a dimension > 1).
    pub fn new(
        data: &'a mut [T],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        check_bounds(data.len(), rows, cols, row_stride, col_stride);
        // An empty view addresses no elements; aliasing is only possible
        // when both dimensions are populated.
        if rows > 0 && cols > 0 {
            assert!(
                (row_stride > 0 || rows <= 1) && (col_stride > 0 || cols <= 1),
                "mutable views must not alias (zero stride with dim > 1)"
            );
        }
        Self {
            data,
            rows,
            cols,
            row_stride,
            col_stride,
        }
    }

    /// A contiguous row-major mutable view.
    pub fn row_major(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        Self::new(data, rows, cols, ld, 1)
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

    /// Distance in elements between vertically adjacent elements.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Distance in elements between horizontally adjacent elements.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Element at `(i, j)`, bounds-checked.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        // audit: checked extent contract; tile writers index within the view by construction
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        // audit: checked dominated by the extent assert above
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// Set element at `(i, j)`, bounds-checked.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        // audit: checked extent contract; tile writers index within the view by construction
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        // audit: checked dominated by the extent assert above
        self.data[i * self.row_stride + j * self.col_stride] = v;
    }

    /// Accumulate `v` into element `(i, j)`.
    #[inline]
    pub fn add_assign(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.row_stride + j * self.col_stride] += v;
    }

    /// Raw mutable pointer to element `(i, j)`.
    ///
    /// Used by the kernels to write `mr x nr` tiles directly.
    #[inline]
    pub fn ptr_at_mut(&mut self, i: usize, j: usize) -> *mut T {
        // audit: checked extent contract; kernels take tile corners within the view
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        // SAFETY: the view constructor checked that the largest reachable
        // offset (rows-1)*rs + (cols-1)*cs is within data, and (i, j) was
        // just asserted in range.
        unsafe {
            self.data
                .as_mut_ptr()
                .add(i * self.row_stride + j * self.col_stride)
        }
    }

    /// Immutable snapshot of this view.
    pub fn as_view(&self) -> MatrixView<'_, T> {
        MatrixView {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// Reborrow a mutable sub-view of `nrows x ncols` at `(i0, j0)`.
    pub fn sub_mut(
        &mut self,
        i0: usize,
        j0: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatrixViewMut<'_, T> {
        assert!(i0 + nrows <= self.rows, "row range out of bounds");
        assert!(j0 + ncols <= self.cols, "col range out of bounds");
        let offset = i0 * self.row_stride + j0 * self.col_stride;
        // `offset` can only reach `data.len()` for an empty sub-view; clamp so
        // the slice below never panics in that degenerate case.
        let offset = offset.min(self.data.len());
        MatrixViewMut {
            data: &mut self.data[offset..],
            rows: nrows,
            cols: ncols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// Fill the viewed region with a value.
    pub fn fill(&mut self, v: T) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.set(i, j, v);
            }
        }
    }
}

impl<T: Element> std::fmt::Debug for MatrixView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MatrixView {}x{} (rs={}, cs={})",
            self.rows, self.cols, self.row_stride, self.col_stride
        )
    }
}

impl<T: Element> std::fmt::Debug for MatrixViewMut<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MatrixViewMut {}x{} (rs={}, cs={})",
            self.rows, self.cols, self.row_stride, self.col_stride
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn row_major_view_indexes_correctly() {
        let data = seq(12);
        let v = MatrixView::row_major(&data, 3, 4, 4);
        assert_eq!(v.get(0, 0), 0.0);
        assert_eq!(v.get(1, 2), 6.0);
        assert_eq!(v.get(2, 3), 11.0);
    }

    #[test]
    fn contiguous_col_mirrors_contiguous_row_on_transpose() {
        let data = seq(12);
        let v = MatrixView::row_major(&data, 3, 4, 4);
        // Row-major: rows are contiguous, columns are not.
        assert_eq!(v.contiguous_row(1, 1, 3), Some(&data[5..8]));
        assert_eq!(v.contiguous_col(1, 0, 3), None);
        // The transpose flips which axis is contiguous.
        let t = v.t();
        assert_eq!(t.contiguous_row(0, 0, 2), None);
        assert_eq!(t.contiguous_col(1, 1, 3), Some(&data[5..8]));
    }

    #[test]
    fn transpose_swaps_indices() {
        let data = seq(12);
        let v = MatrixView::row_major(&data, 3, 4, 4);
        let t = v.t();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(v.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn sub_view_offsets() {
        let data = seq(20);
        let v = MatrixView::row_major(&data, 4, 5, 5);
        let s = v.sub(1, 2, 2, 3);
        assert_eq!(s.get(0, 0), 7.0);
        assert_eq!(s.get(1, 2), 14.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_rejects_oversized_region() {
        let data = seq(10);
        let _ = MatrixView::row_major(&data, 3, 4, 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_rejects_out_of_range() {
        let data = seq(12);
        let v = MatrixView::row_major(&data, 3, 4, 4);
        let _ = v.get(3, 0);
    }

    #[test]
    fn mutable_view_writes_through() {
        let mut data = seq(12);
        {
            let mut v = MatrixViewMut::row_major(&mut data, 3, 4, 4);
            v.set(1, 1, 99.0);
            v.add_assign(1, 1, 1.0);
        }
        assert_eq!(data[5], 100.0);
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn mutable_view_rejects_zero_stride() {
        let mut data = seq(12);
        let _ = MatrixViewMut::new(&mut data, 3, 4, 0, 1);
    }

    #[test]
    fn fill_covers_only_view_region() {
        let mut data = vec![0.0f64; 25];
        {
            let mut v = MatrixViewMut::row_major(&mut data, 5, 5, 5);
            let mut s = v.sub_mut(1, 1, 3, 3);
            s.fill(7.0);
        }
        let filled = data.iter().filter(|&&x| x == 7.0).count();
        assert_eq!(filled, 9);
        assert_eq!(data[0], 0.0);
        assert_eq!(data[6], 7.0);
    }

    #[test]
    fn zero_dim_views_are_legal() {
        let data: Vec<f32> = vec![];
        let v = MatrixView::row_major(&data, 0, 0, 0);
        assert_eq!(v.rows(), 0);
        assert_eq!(v.to_vec(), Vec::<f32>::new());
    }

    #[test]
    fn col_major_as_strided_view() {
        // 3x2 column-major data: columns [0,1,2], [3,4,5].
        let data = seq(6);
        let v = MatrixView::new(&data, 3, 2, 1, 3);
        assert_eq!(v.get(0, 0), 0.0);
        assert_eq!(v.get(1, 0), 1.0);
        assert_eq!(v.get(0, 1), 3.0);
        assert_eq!(v.get(2, 1), 5.0);
    }
}
