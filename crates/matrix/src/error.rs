//! Error types for matrix construction and shape-checked operations.

use std::fmt;

/// Errors produced by matrix constructors and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The requested dimensions are inconsistent with the provided data length.
    DataLengthMismatch {
        /// Number of rows requested.
        rows: usize,
        /// Number of columns requested.
        cols: usize,
        /// Length of the provided buffer.
        len: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A kernel call was given the wrong number of input operands.
    ArityMismatch {
        /// Mnemonic of the kernel operation.
        op: &'static str,
        /// Number of input operands the operation takes.
        expected: usize,
        /// Number of input operands it was given.
        got: usize,
    },
    /// An operation that requires a square matrix was given a rectangular one.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// Row index requested.
        row: usize,
        /// Column index requested.
        col: usize,
        /// Number of rows of the matrix.
        rows: usize,
        /// Number of columns of the matrix.
        cols: usize,
    },
    /// A view was requested with a leading dimension smaller than its row count.
    InvalidLeadingDimension {
        /// Leading dimension requested.
        ld: usize,
        /// Number of rows requested.
        rows: usize,
    },
    /// A triangular solve encountered a zero on the diagonal: the triangular
    /// operand is singular and `op(L)⁻¹·B` does not exist.
    SingularDiagonal {
        /// Index of the zero diagonal element.
        index: usize,
    },
    /// A Cholesky factorisation encountered a non-positive pivot: the operand
    /// is not positive definite and `A = L·Lᵀ` does not exist.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        index: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DataLengthMismatch { rows, cols, len } => write!(
                f,
                "data length {len} does not match {rows}x{cols} = {} elements",
                rows * cols
            ),
            MatrixError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::ArityMismatch { op, expected, got } => {
                write!(f, "{op} takes {expected} input operand(s), got {got}")
            }
            MatrixError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            MatrixError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for a {rows}x{cols} matrix"
            ),
            MatrixError::InvalidLeadingDimension { ld, rows } => write!(
                f,
                "leading dimension {ld} is smaller than the number of rows {rows}"
            ),
            MatrixError::SingularDiagonal { index } => write!(
                f,
                "triangular operand is singular: zero diagonal element at index {index}"
            ),
            MatrixError::NotPositiveDefinite { index } => write!(
                f,
                "operand is not positive definite: non-positive pivot at index {index}"
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MatrixError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_data_length_mismatch() {
        let e = MatrixError::DataLengthMismatch {
            rows: 2,
            cols: 3,
            len: 5,
        };
        let s = e.to_string();
        assert!(s.contains("5"));
        assert!(s.contains("2x3"));
        assert!(s.contains("6"));
    }

    #[test]
    fn display_dimension_mismatch() {
        let e = MatrixError::DimensionMismatch {
            op: "gemm",
            lhs: (4, 5),
            rhs: (6, 7),
        };
        let s = e.to_string();
        assert!(s.contains("gemm"));
        assert!(s.contains("4x5"));
        assert!(s.contains("6x7"));
    }

    #[test]
    fn display_not_square() {
        let e = MatrixError::NotSquare { rows: 3, cols: 4 };
        assert!(e.to_string().contains("3x4"));
    }

    #[test]
    fn display_index_out_of_bounds() {
        let e = MatrixError::IndexOutOfBounds {
            row: 9,
            col: 1,
            rows: 3,
            cols: 2,
        };
        let s = e.to_string();
        assert!(s.contains("(9, 1)"));
        assert!(s.contains("3x2"));
    }

    #[test]
    fn display_invalid_ld() {
        let e = MatrixError::InvalidLeadingDimension { ld: 2, rows: 5 };
        let s = e.to_string();
        assert!(s.contains("2"));
        assert!(s.contains("5"));
    }

    #[test]
    fn display_singular_diagonal() {
        let e = MatrixError::SingularDiagonal { index: 4 };
        let s = e.to_string();
        assert!(s.contains("singular"));
        assert!(s.contains('4'));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = MatrixError::NotPositiveDefinite { index: 2 };
        let s = e.to_string();
        assert!(s.contains("positive definite"));
        assert!(s.contains('2'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&MatrixError::NotSquare { rows: 1, cols: 2 });
    }
}
