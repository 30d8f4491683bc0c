//! A minimal `C x H x W` feature-map tensor.
//!
//! Backed by a `channels x (h*w)` row-major matrix — exactly the layout
//! im2col and the GEMM layers consume, so no reshapes ever copy data.

use cake_matrix::{Element, Layout, Matrix};

/// A 3D feature map stored as `channels x (h * w)`.
pub struct Tensor<T = f32> {
    data: Matrix<T>,
    h: usize,
    w: usize,
}

impl<T: Element> Tensor<T> {
    /// A zero tensor of shape `c x h x w`.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        Self {
            data: Matrix::zeros(c, h * w),
            h,
            w,
        }
    }

    /// Build from a generator `f(c, y, x)`.
    pub fn from_fn(c: usize, h: usize, w: usize, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let data = Matrix::from_fn(c, h * w, |ch, idx| f(ch, idx / w, idx % w));
        Self { data, h, w }
    }

    /// Wrap an existing `c x (h*w)` matrix. A column-major matrix is
    /// copied to row-major, so the elements are always channel-major
    /// (see [`Self::as_slice`]).
    ///
    /// # Panics
    /// Panics if `matrix.cols() != h * w`.
    pub fn from_matrix(matrix: Matrix<T>, h: usize, w: usize) -> Self {
        assert_eq!(matrix.cols(), h * w, "matrix cols must equal h*w");
        let data = match matrix.layout() {
            Layout::RowMajor => matrix,
            Layout::ColMajor => matrix.to_layout(Layout::RowMajor),
        };
        Self { data, h, w }
    }

    /// Channels.
    pub fn channels(&self) -> usize {
        self.data.rows()
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.channels() * self.h * self.w
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element at `(c, y, x)`.
    pub fn get(&self, c: usize, y: usize, x: usize) -> T {
        assert!(y < self.h && x < self.w, "spatial index out of bounds");
        self.data.get(c, y * self.w + x)
    }

    /// Set element at `(c, y, x)`.
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: T) {
        assert!(y < self.h && x < self.w, "spatial index out of bounds");
        self.data.set(c, y * self.w + x, v);
    }

    /// The elements in channel-major order: channel `c` is the
    /// contiguous row-major `h x w` plane `[c*h*w, (c+1)*h*w)`.
    ///
    /// # Panics
    /// Panics if the backing matrix was replaced through
    /// [`Self::as_matrix_mut`] by a column-major one.
    pub fn as_slice(&self) -> &[T] {
        assert_eq!(self.data.layout(), Layout::RowMajor, "tensor storage must be row-major");
        self.data.as_slice()
    }

    /// The backing `channels x (h*w)` matrix.
    pub fn as_matrix(&self) -> &Matrix<T> {
        &self.data
    }

    /// Mutable backing matrix.
    pub fn as_matrix_mut(&mut self) -> &mut Matrix<T> {
        &mut self.data
    }

    /// Consume into the backing matrix.
    pub fn into_matrix(self) -> Matrix<T> {
        self.data
    }

    /// Flatten to a `len x 1` column matrix (for classifier heads).
    pub fn flatten(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.len(), 1);
        for c in 0..self.channels() {
            for i in 0..self.h * self.w {
                out.set(c * self.h * self.w + i, 0, self.data.get(c, i));
            }
        }
        out
    }
}

impl<T: Element> Clone for Tensor<T> {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            h: self.h,
            w: self.w,
        }
    }
}

impl<T: Element> std::fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor {}x{}x{}", self.channels(), self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get_set() {
        let mut t = Tensor::<f32>::from_fn(2, 3, 4, |c, y, x| (c * 100 + y * 10 + x) as f32);
        assert_eq!(t.get(1, 2, 3), 123.0);
        t.set(0, 0, 0, -1.0);
        assert_eq!(t.get(0, 0, 0), -1.0);
        assert_eq!(t.channels(), 2);
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn matrix_round_trip() {
        let t = Tensor::<f32>::from_fn(3, 2, 2, |c, y, x| (c + y + x) as f32);
        let m = t.clone().into_matrix();
        let back = Tensor::from_matrix(m, 2, 2);
        assert_eq!(back.get(2, 1, 1), 4.0);
    }

    #[test]
    fn column_major_matrix_is_stored_channel_major() {
        let rm = cake_matrix::init::sequential::<f32>(2, 6);
        let t = Tensor::from_matrix(rm.to_layout(Layout::ColMajor), 2, 3);
        assert_eq!(t.as_slice(), rm.as_slice());
        assert_eq!(t.get(1, 1, 2), rm.get(1, 5));
    }

    #[test]
    fn flatten_orders_channel_major() {
        let t = Tensor::<f32>::from_fn(2, 1, 2, |c, _, x| (10 * c + x) as f32);
        let f = t.flatten();
        assert_eq!(f.rows(), 4);
        assert_eq!(
            (0..4).map(|i| f.get(i, 0)).collect::<Vec<_>>(),
            vec![0.0, 1.0, 10.0, 11.0]
        );
    }

    #[test]
    #[should_panic(expected = "h*w")]
    fn wrong_spatial_shape_rejected() {
        let m = cake_matrix::Matrix::<f32>::zeros(2, 5);
        let _ = Tensor::from_matrix(m, 2, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn spatial_bounds_checked() {
        let t = Tensor::<f32>::zeros(1, 2, 2);
        let _ = t.get(0, 2, 0);
    }
}
