//! Owned, column-major dense matrices.

use crate::error::{MatrixError, Result};
use crate::types::Uplo;
use crate::view::{MatrixView, MatrixViewMut};
use std::ops::{Index, IndexMut};

/// An owned, heap-allocated, column-major matrix of `f64` values.
///
/// The storage is always contiguous with leading dimension equal to the number
/// of rows, i.e. element `(i, j)` lives at `data[i + j * rows]`.
///
/// # Examples
///
/// ```
/// use lamb_matrix::Matrix;
///
/// let a = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
/// assert_eq!(a[(1, 2)], 21.0);
/// assert_eq!(a.shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Create a matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Create a matrix where every element equals `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Create an `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i + i * n] = 1.0;
        }
        m
    }

    /// Create a matrix from a column-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DataLengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::DataLengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Create a `rows x cols` matrix on the allocation of `storage`, for a
    /// caller that overwrites every element next: the elements are whatever
    /// `storage` held, and only those past its old length are written
    /// (zeros). A buffer with capacity for `rows * cols` elements is never
    /// reallocated.
    #[must_use]
    pub fn from_storage(rows: usize, cols: usize, mut storage: Vec<f64>) -> Self {
        storage.truncate(rows * cols);
        storage.resize(rows * cols, 0.0);
        Matrix {
            data: storage,
            rows,
            cols,
        }
    }

    /// A `rows x cols` matrix whose storage is allocated but holds no
    /// element yet: only for [`Matrix::overwrite`] to fill before the matrix
    /// is used.
    pub(crate) fn unfilled(rows: usize, cols: usize) -> Self {
        Matrix {
            data: Vec::with_capacity(rows * cols),
            rows,
            cols,
        }
    }

    /// Rewrite every element by pushing them, in column-major order, onto the
    /// emptied storage: each element is written once, and the allocation is
    /// kept.
    ///
    /// # Panics
    ///
    /// Panics if `push` does not push exactly `rows * cols` elements.
    pub(crate) fn overwrite(&mut self, push: impl FnOnce(&mut Vec<f64>)) {
        self.data.clear();
        push(&mut self.data);
        assert_eq!(
            self.data.len(),
            self.rows * self.cols,
            "every element pushed once"
        );
    }

    /// Create a matrix by evaluating `f(i, j)` for every element.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { data, rows, cols }
    }

    /// Create a matrix from row-major data (convenience for tests and examples).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DataLengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::DataLengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix::from_fn(rows, cols, |i, j| data[i * cols + j]))
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Number of elements the storage holds room for: [`Matrix::len`] unless
    /// the matrix was built [from a larger buffer](Matrix::from_storage).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Whether the matrix has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Leading dimension of the storage (always equal to `rows` for owned matrices).
    #[must_use]
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// Borrow the underlying column-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying column-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its column-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Checked element access.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i + j * self.rows])
        } else {
            None
        }
    }

    /// Checked element assignment.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] when the index is invalid.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i < self.rows && j < self.cols {
            self.data[i + j * self.rows] = value;
            Ok(())
        } else {
            Err(MatrixError::IndexOutOfBounds {
                row: i,
                col: j,
                rows: self.rows,
                cols: self.cols,
            })
        }
    }

    /// Borrow column `j` as a contiguous slice of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    #[must_use]
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        &self.data[j * self.rows..j * self.rows + self.rows]
    }

    /// Mutably borrow column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        &mut self.data[j * self.rows..j * self.rows + self.rows]
    }

    /// Immutable view covering the whole matrix.
    #[must_use]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(&self.data, self.rows, self.cols, self.rows)
            .expect("owned matrix storage is always consistent")
    }

    /// Mutable view covering the whole matrix.
    pub fn view_mut(&mut self) -> MatrixViewMut<'_> {
        MatrixViewMut::new(&mut self.data, self.rows, self.cols, self.rows)
            .expect("owned matrix storage is always consistent")
    }

    /// Immutable view of the `nr x nc` window whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit inside the matrix.
    #[must_use]
    pub fn subview(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixView<'_> {
        self.view().subview(r0, c0, nr, nc)
    }

    /// Return the explicit transpose as a new matrix.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.data[j + i * self.rows])
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Copy the `uplo` triangle into the opposite triangle, making the matrix
    /// numerically symmetric. This mirrors the explicit "extend the triangle
    /// computed by SYRK to a full matrix" step of Algorithm 2 for `A·Aᵀ·B`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for rectangular matrices.
    pub fn symmetrize_from(&mut self, uplo: Uplo) -> Result<()> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        for j in 0..n {
            for i in (j + 1)..n {
                match uplo {
                    Uplo::Lower => {
                        let v = self.data[i + j * n];
                        self.data[j + i * n] = v;
                    }
                    Uplo::Upper => {
                        let v = self.data[j + i * n];
                        self.data[i + j * n] = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Copy only the `uplo` triangle of `src` into `self`, leaving the other
    /// triangle untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ or the matrices are not square.
    pub fn copy_triangle(&mut self, src: &Matrix, uplo: Uplo) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "copy_triangle",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        for j in 0..n {
            for i in 0..n {
                if uplo.contains(i, j) {
                    self.data[i + j * n] = src.data[i + j * n];
                }
            }
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i + j * self.rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_empty());
        assert!(!m.is_square());
    }

    #[test]
    fn identity_is_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
        assert!(m.is_square());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::DataLengthMismatch { len: 3, .. }
        ));
    }

    #[test]
    fn from_fn_is_column_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn from_rows_matches_row_major_input() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn get_and_set_are_bounds_checked() {
        let mut m = Matrix::zeros(2, 2);
        assert_eq!(m.get(1, 1), Some(0.0));
        assert_eq!(m.get(2, 0), None);
        assert!(m.set(1, 0, 5.0).is_ok());
        assert_eq!(m[(1, 0)], 5.0);
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn col_returns_contiguous_column() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.col(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "column index")]
    fn col_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.col(2);
    }

    #[test]
    fn transpose_swaps_shape_and_elements() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let m = Matrix::from_fn(4, 5, |i, j| (i * 17 + j * 3) as f64);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn symmetrize_from_lower() {
        let mut m = Matrix::from_fn(
            3,
            3,
            |i, j| if i >= j { (i * 3 + j + 1) as f64 } else { -1.0 },
        );
        m.symmetrize_from(Uplo::Lower).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], m[(j, i)]);
                assert!(m[(i, j)] >= 0.0, "upper triangle was not overwritten");
            }
        }
    }

    #[test]
    fn symmetrize_from_upper() {
        let mut m = Matrix::from_fn(
            3,
            3,
            |i, j| if i <= j { (i + 3 * j + 1) as f64 } else { -1.0 },
        );
        m.symmetrize_from(Uplo::Upper).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], m[(j, i)]);
                assert!(m[(i, j)] >= 0.0);
            }
        }
    }

    #[test]
    fn symmetrize_rejects_rectangular() {
        let mut m = Matrix::zeros(2, 3);
        assert!(matches!(
            m.symmetrize_from(Uplo::Lower),
            Err(MatrixError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn copy_triangle_only_touches_requested_triangle() {
        let src = Matrix::filled(3, 3, 7.0);
        let mut dst = Matrix::filled(3, 3, 1.0);
        dst.copy_triangle(&src, Uplo::Lower).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i >= j { 7.0 } else { 1.0 };
                assert_eq!(dst[(i, j)], expected);
            }
        }
    }

    #[test]
    fn copy_triangle_shape_mismatch() {
        let src = Matrix::zeros(2, 2);
        let mut dst = Matrix::zeros(3, 3);
        assert!(dst.copy_triangle(&src, Uplo::Upper).is_err());
    }

    #[test]
    fn subview_reads_expected_window() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 10 + j) as f64);
        let v = m.subview(1, 2, 2, 2);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.at(0, 0), m[(1, 2)]);
        assert_eq!(v.at(1, 1), m[(2, 3)]);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        let t = m.transposed();
        assert_eq!(t.shape(), (5, 0));
    }

    #[test]
    fn fill_overwrites_everything() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        m.fill(2.5);
        assert!(m.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn into_vec_round_trips() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + 2 * j) as f64);
        let v = m.clone().into_vec();
        let m2 = Matrix::from_vec(2, 2, v).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn from_storage_keeps_the_allocation_and_writes_only_new_elements() {
        let mut big = vec![7.0; 12];
        big.reserve(8);
        let cap = big.capacity();
        let ptr = big.as_ptr();
        let m = Matrix::from_storage(2, 3, big);
        assert_eq!((m.shape(), m.len(), m.capacity()), ((2, 3), 6, cap));
        assert!(
            m.as_slice().iter().all(|&x| x == 7.0),
            "stale contents stay"
        );
        let grown = Matrix::from_storage(4, 4, m.into_vec());
        assert_eq!(
            grown.as_slice().as_ptr(),
            ptr,
            "no reallocation within capacity"
        );
        assert_eq!(&grown.as_slice()[..6], &[7.0; 6]);
        assert!(grown.as_slice()[6..].iter().all(|&x| x == 0.0));
        assert_eq!(Matrix::zeros(3, 5).capacity(), 15);
    }
}
