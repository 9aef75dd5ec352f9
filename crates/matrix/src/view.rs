//! Borrowed matrix windows with an explicit leading dimension.
//!
//! Views are the interface between the matrix substrate and the BLAS-3
//! kernels: a kernel only ever sees a `(&[f64], rows, cols, ld)` quadruple,
//! exactly like a FORTRAN BLAS routine sees `(A, M, N, LDA)`.

use crate::error::{MatrixError, Result};

/// Minimum buffer length required for a `rows x cols` window with leading
/// dimension `ld`.
fn required_len(rows: usize, cols: usize, ld: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (cols - 1) * ld + rows
    }
}

/// The range of a parent buffer that an `nr x nc` window at `(r0, c0)`
/// covers. A window without elements covers nothing, wherever it sits: its
/// nominal start `r0 + c0 * ld` may lie past the end of the buffer, which
/// only has to reach the last row of the parent's last column.
fn window_range(r0: usize, c0: usize, nr: usize, nc: usize, ld: usize) -> std::ops::Range<usize> {
    if nr == 0 || nc == 0 {
        return 0..0;
    }
    let start = r0 + c0 * ld;
    start..start + required_len(nr, nc, ld)
}

/// An immutable, column-major matrix window.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> MatrixView<'a> {
    /// Create a view over `data` interpreted as a `rows x cols` column-major
    /// window with leading dimension `ld`.
    ///
    /// # Errors
    ///
    /// Returns an error if `ld < rows` or the buffer is too short.
    pub fn new(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Result<Self> {
        if ld < rows {
            return Err(MatrixError::InvalidLeadingDimension { ld, rows });
        }
        let need = required_len(rows, cols, ld);
        if data.len() < need {
            return Err(MatrixError::DataLengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(MatrixView {
            data,
            rows,
            cols,
            ld,
        })
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

    /// Leading dimension (column stride).
    #[must_use]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// The raw backing slice.
    #[must_use]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "view index out of bounds");
        self.data[i + j * self.ld]
    }

    /// Column `j` as a contiguous slice of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    #[must_use]
    pub fn col(&self, j: usize) -> &'a [f64] {
        assert!(j < self.cols, "view column out of bounds");
        if self.rows == 0 {
            // A window without rows owns no part of the buffer.
            return &[];
        }
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Sub-window of size `nr x nc` starting at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit.
    #[must_use]
    pub fn subview(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixView<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "subview out of bounds"
        );
        let window = window_range(r0, c0, nr, nc, self.ld);
        MatrixView {
            data: &self.data[window],
            rows: nr,
            cols: nc,
            ld: self.ld,
        }
    }

    /// Copy the window into an owned column-major `Vec` with `ld == rows`.
    #[must_use]
    pub fn to_compact_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for j in 0..self.cols {
            out.extend_from_slice(self.col(j));
        }
        out
    }
}

/// A mutable, column-major matrix window.
#[derive(Debug)]
pub struct MatrixViewMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> MatrixViewMut<'a> {
    /// Create a mutable view; see [`MatrixView::new`] for the shape rules.
    ///
    /// # Errors
    ///
    /// Returns an error if `ld < rows` or the buffer is too short.
    pub fn new(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Result<Self> {
        if ld < rows {
            return Err(MatrixError::InvalidLeadingDimension { ld, rows });
        }
        let need = required_len(rows, cols, ld);
        if data.len() < need {
            return Err(MatrixError::DataLengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(MatrixViewMut {
            data,
            rows,
            cols,
            ld,
        })
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

    /// Leading dimension (column stride).
    #[must_use]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// The raw backing slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        self.data
    }

    /// The raw backing slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data
    }

    /// Element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "view index out of bounds");
        self.data[i + j * self.ld]
    }

    /// Mutable reference to element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "view index out of bounds");
        &mut self.data[i + j * self.ld]
    }

    /// Column `j`, mutably, as a contiguous slice of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "view column out of bounds");
        if self.rows == 0 {
            // A window without rows owns no part of the buffer.
            return &mut [];
        }
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Reborrow as an immutable view.
    #[must_use]
    pub fn as_view(&self) -> MatrixView<'_> {
        MatrixView {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Fill the whole window with `value` (respecting the leading dimension).
    pub fn fill(&mut self, value: f64) {
        for j in 0..self.cols {
            self.col_mut(j).fill(value);
        }
    }

    /// Mutable sub-window of size `nr x nc` starting at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit.
    pub fn subview_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixViewMut<'_> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "subview out of bounds"
        );
        let window = window_range(r0, c0, nr, nc, self.ld);
        MatrixViewMut {
            data: &mut self.data[window],
            rows: nr,
            cols: nc,
            ld: self.ld,
        }
    }

    /// Split the view into two disjoint mutable views at column `j`:
    /// the left view holds columns `[0, j)`, the right view columns `[j, cols)`.
    ///
    /// The split is safe because column panels occupy disjoint ranges of the
    /// backing buffer whenever `ld >= rows`.
    ///
    /// # Panics
    ///
    /// Panics if `j > cols`.
    pub fn split_at_col_mut(self, j: usize) -> (MatrixViewMut<'a>, MatrixViewMut<'a>) {
        assert!(j <= self.cols, "split column out of bounds");
        let left_cols = j;
        let right_cols = self.cols - j;
        let split_point = j * self.ld;
        // When the right side is empty the split point may exceed the buffer
        // (the buffer only needs to cover the last column's rows), so clamp.
        let split_point = split_point.min(self.data.len());
        let (left, right) = self.data.split_at_mut(split_point);
        let left_view = MatrixViewMut {
            data: left,
            rows: self.rows,
            cols: left_cols,
            ld: self.ld,
        };
        let right_view = MatrixViewMut {
            data: right,
            rows: self.rows,
            cols: right_cols,
            ld: self.ld,
        };
        (left_view, right_view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;

    #[test]
    fn view_rejects_bad_ld() {
        let buf = vec![0.0; 10];
        assert!(MatrixView::new(&buf, 5, 2, 4).is_err());
        assert!(MatrixView::new(&buf, 5, 2, 5).is_ok());
    }

    #[test]
    fn view_rejects_short_buffer() {
        let buf = vec![0.0; 9];
        assert!(MatrixView::new(&buf, 5, 2, 5).is_err());
    }

    #[test]
    fn view_with_larger_ld_reads_strided_columns() {
        // 3x2 window inside a buffer with ld = 4.
        let buf: Vec<f64> = (0..8).map(|x| x as f64).collect();
        let v = MatrixView::new(&buf, 3, 2, 4).unwrap();
        assert_eq!(v.at(0, 0), 0.0);
        assert_eq!(v.at(2, 0), 2.0);
        assert_eq!(v.at(0, 1), 4.0);
        assert_eq!(v.at(2, 1), 6.0);
        assert_eq!(v.col(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn empty_view_is_allowed() {
        let buf: Vec<f64> = vec![];
        let v = MatrixView::new(&buf, 0, 3, 0).unwrap();
        assert_eq!(v.rows(), 0);
        assert_eq!(v.cols(), 3);
        let v2 = MatrixView::new(&buf, 4, 0, 4).unwrap();
        assert_eq!(v2.cols(), 0);
    }

    #[test]
    fn subview_of_view() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 10 + j) as f64);
        let v = m.view();
        let s = v.subview(2, 1, 3, 2);
        assert_eq!(s.at(0, 0), m[(2, 1)]);
        assert_eq!(s.at(2, 1), m[(4, 2)]);
        assert_eq!(s.ld(), 5);
    }

    #[test]
    fn to_compact_vec_drops_the_gap() {
        let buf: Vec<f64> = (0..8).map(|x| x as f64).collect();
        let v = MatrixView::new(&buf, 3, 2, 4).unwrap();
        assert_eq!(v.to_compact_vec(), vec![0.0, 1.0, 2.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn view_mut_write_through() {
        let mut m = Matrix::zeros(3, 3);
        {
            let mut v = m.view_mut();
            *v.at_mut(1, 2) = 9.0;
            v.col_mut(0)[2] = 4.0;
        }
        assert_eq!(m[(1, 2)], 9.0);
        assert_eq!(m[(2, 0)], 4.0);
    }

    #[test]
    fn view_mut_fill_respects_ld() {
        // A 2x2 window with ld 3 must not touch the third row of each column.
        let mut buf = vec![0.0; 6];
        {
            let mut v = MatrixViewMut::new(&mut buf[..5], 2, 2, 3).unwrap();
            v.fill(1.0);
        }
        assert_eq!(buf, vec![1.0, 1.0, 0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn split_at_col_mut_partitions_columns() {
        let mut m = Matrix::zeros(2, 4);
        {
            let v = m.view_mut();
            let (mut left, mut right) = v.split_at_col_mut(1);
            assert_eq!(left.cols(), 1);
            assert_eq!(right.cols(), 3);
            left.fill(1.0);
            right.fill(2.0);
        }
        assert_eq!(m.col(0), &[1.0, 1.0]);
        for j in 1..4 {
            assert_eq!(m.col(j), &[2.0, 2.0]);
        }
    }

    #[test]
    fn split_at_col_mut_edges() {
        let mut m = Matrix::zeros(2, 3);
        {
            let v = m.view_mut();
            let (left, right) = v.split_at_col_mut(0);
            assert_eq!(left.cols(), 0);
            assert_eq!(right.cols(), 3);
        }
        {
            let v = m.view_mut();
            let (left, right) = v.split_at_col_mut(3);
            assert_eq!(left.cols(), 3);
            assert_eq!(right.cols(), 0);
        }
    }

    #[test]
    fn subview_mut_writes_through_window() {
        let mut m = Matrix::zeros(4, 4);
        {
            let mut v = m.view_mut();
            let mut s = v.subview_mut(1, 1, 2, 2);
            s.fill(3.0);
        }
        let mut count = 0;
        for i in 0..4 {
            for j in 0..4 {
                if (1..3).contains(&i) && (1..3).contains(&j) {
                    assert_eq!(m[(i, j)], 3.0);
                    count += 1;
                } else {
                    assert_eq!(m[(i, j)], 0.0);
                }
            }
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn empty_windows_are_allowed_at_every_corner() {
        // A 3x4 view with ld 5 over the shortest buffer that holds it: the
        // nominal start of a window at the far corners lies past its end.
        let (rows, cols, ld) = (3, 4, 5);
        let mut buf = vec![1.0; (cols - 1) * ld + rows];
        for (r0, c0) in [(0, 0), (rows, 0), (0, cols), (rows, cols)] {
            for (nr, nc) in [(0, cols - c0), (rows - r0, 0), (0, 0)] {
                let v = MatrixView::new(&buf, rows, cols, ld).unwrap();
                let s = v.subview(r0, c0, nr, nc);
                assert_eq!((s.rows(), s.cols(), s.ld()), (nr, nc, ld));
                assert!(s.to_compact_vec().is_empty());
                let mut v = MatrixViewMut::new(&mut buf, rows, cols, ld).unwrap();
                let mut s = v.subview_mut(r0, c0, nr, nc);
                assert_eq!((s.rows(), s.cols(), s.ld()), (nr, nc, ld));
                s.fill(9.0);
                // An owned matrix windows through the same rule.
                let owned = Matrix::zeros(rows, cols);
                assert!(owned.subview(r0, c0, nr, nc).to_compact_vec().is_empty());
            }
        }
        assert!(buf.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn as_view_round_trip() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let vm = m.view_mut();
        let v = vm.as_view();
        assert_eq!(v.at(2, 1), 3.0);
    }
}
