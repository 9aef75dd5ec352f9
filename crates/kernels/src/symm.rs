//! Symmetric matrix–matrix multiplication: `C := alpha * A·B + beta * C`
//! (`side == Left`) or `C := alpha * B·A + beta * C` (`side == Right`) where
//! `A` is symmetric and only its [`Uplo`] triangle is referenced.
//!
//! The implementation reuses the packed GEMM core: the symmetric operand is
//! read through a mirroring accessor during packing, so the unreferenced
//! triangle of `A` never needs to be materialised — exactly the property that
//! lets the paper's Algorithm 1 for `A·Aᵀ·B` feed the SYRK triangle directly
//! into SYMM.

use crate::config::BlockConfig;
use crate::driver::{scale_inplace, BlockedDriver};
use crate::pack::Strided;
use lamb_matrix::{MatrixError, MatrixView, MatrixViewMut, Result, Side, Trans, Uplo};

/// `C := alpha * A·B + beta * C` (Left) or `C := alpha * B·A + beta * C`
/// (Right), with `A` symmetric and only its `uplo` triangle referenced.
///
/// The FLOP count attributed to this kernel by the paper (Left side, `A` of
/// size `m x m`, `B` of size `m x n`) is `2·m²·n`
/// (see [`crate::flops::symm_flops`]).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] or [`MatrixError::NotSquare`]
/// when the operand shapes are inconsistent.
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn symm(
    side: Side,
    uplo: Uplo,
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let m = c.rows();
    let n = c.cols();
    if a.rows() != a.cols() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let expected_a = match side {
        Side::Left => m,
        Side::Right => n,
    };
    if a.rows() != expected_a {
        return Err(MatrixError::DimensionMismatch {
            op: "symm symmetric operand shape",
            lhs: (a.rows(), a.cols()),
            rhs: (expected_a, expected_a),
        });
    }
    if b.rows() != m || b.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "symm rectangular operand shape",
            lhs: (b.rows(), b.cols()),
            rhs: (m, n),
        });
    }

    scale_inplace(beta, c);
    if m == 0 || n == 0 || alpha == 0.0 {
        return Ok(());
    }

    let a_data = a.as_slice();
    let lda = a.ld();
    let op_b = Strided::new(b, Trans::No);
    // Element (i, j) of the full symmetric matrix, read from the stored triangle.
    let sym = move |i: usize, j: usize| {
        if uplo.contains(i, j) {
            a_data[i + j * lda]
        } else {
            a_data[j + i * lda]
        }
    };

    let driver = BlockedDriver::new(cfg);
    match side {
        Side::Left => {
            // C(m x n) += alpha * Asym(m x m) * B(m x n); inner dimension m.
            driver.accumulate(m, n, m, alpha, &sym, &op_b, c);
        }
        Side::Right => {
            // C(m x n) += alpha * B(m x n) * Asym(n x n); inner dimension n.
            driver.accumulate(m, n, n, alpha, &op_b, &sym, c);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::ops::{full_from_triangle, max_abs_diff, zero_opposite_triangle};
    use lamb_matrix::random::{random_seeded, random_symmetric};
    use lamb_matrix::{Matrix, Trans};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build a symmetric matrix plus its triangle-only representation where the
    /// unreferenced triangle is poisoned with garbage.
    fn sym_with_garbage(n: usize, uplo: Uplo, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let full = random_symmetric(n, &mut rng);
        let mut stored = full.clone();
        zero_opposite_triangle(&mut stored, uplo).unwrap();
        // Poison the zeroed triangle so accidental reads are caught.
        for i in 0..n {
            for j in 0..n {
                if i != j && !uplo.contains(i, j) {
                    stored[(i, j)] = 1.0e300;
                }
            }
        }
        (full, stored)
    }

    fn check(side: Side, uplo: Uplo, m: usize, n: usize, alpha: f64, beta: f64, cfg: &BlockConfig) {
        let asize = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let (full, stored) = sym_with_garbage(asize, uplo, 3 + m as u64 + n as u64);
        let b = random_seeded(m, n, 77);
        let c0 = random_seeded(m, n, 88);

        let mut c_fast = c0.clone();
        symm(
            side,
            uplo,
            alpha,
            &stored.view(),
            &b.view(),
            beta,
            &mut c_fast.view_mut(),
            cfg,
        )
        .unwrap();

        let mut c_ref = c0;
        match side {
            Side::Left => gemm_naive(
                Trans::No,
                Trans::No,
                alpha,
                &full.view(),
                &b.view(),
                beta,
                &mut c_ref.view_mut(),
            )
            .unwrap(),
            Side::Right => gemm_naive(
                Trans::No,
                Trans::No,
                alpha,
                &b.view(),
                &full.view(),
                beta,
                &mut c_ref.view_mut(),
            )
            .unwrap(),
        }
        let diff = max_abs_diff(&c_fast, &c_ref).unwrap();
        assert!(
            diff < 1e-10 * (asize as f64),
            "side {:?} uplo {:?} {m}x{n}: diff {diff}",
            side,
            uplo
        );
    }

    #[test]
    fn left_side_matches_reference_both_triangles() {
        let cfg = BlockConfig::serial();
        check(Side::Left, Uplo::Lower, 19, 11, 1.0, 0.0, &cfg);
        check(Side::Left, Uplo::Upper, 19, 11, 1.0, 0.0, &cfg);
        check(Side::Left, Uplo::Lower, 33, 47, 2.0, -1.0, &cfg);
    }

    #[test]
    fn right_side_matches_reference_both_triangles() {
        let cfg = BlockConfig::serial();
        check(Side::Right, Uplo::Lower, 13, 21, 1.0, 0.0, &cfg);
        check(Side::Right, Uplo::Upper, 13, 21, 0.5, 2.0, &cfg);
    }

    #[test]
    fn parallel_path_matches_reference() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        check(Side::Left, Uplo::Lower, 96, 80, 1.0, 0.0, &cfg);
        check(Side::Left, Uplo::Upper, 64, 120, 1.0, 1.0, &cfg);
    }

    #[test]
    fn tiny_blocking_exercises_partial_tiles() {
        let cfg = BlockConfig::tiny();
        check(Side::Left, Uplo::Lower, 11, 9, 1.0, 0.0, &cfg);
        check(Side::Right, Uplo::Upper, 9, 11, 1.0, 0.0, &cfg);
    }

    #[test]
    fn stored_triangle_consistency() {
        // SYMM with the lower triangle of a symmetric matrix must equal SYMM
        // with its upper triangle.
        let cfg = BlockConfig::serial();
        let mut rng = StdRng::seed_from_u64(4);
        let full = random_symmetric(20, &mut rng);
        let lower = {
            let mut s = full.clone();
            zero_opposite_triangle(&mut s, Uplo::Lower).unwrap();
            s
        };
        let upper = {
            let mut s = full.clone();
            zero_opposite_triangle(&mut s, Uplo::Upper).unwrap();
            s
        };
        // Sanity: rebuilding from either triangle gives the same matrix.
        assert_eq!(
            full_from_triangle(&lower, Uplo::Lower).unwrap(),
            full_from_triangle(&upper, Uplo::Upper).unwrap()
        );
        let b = random_seeded(20, 7, 5);
        let mut c1 = Matrix::zeros(20, 7);
        let mut c2 = Matrix::zeros(20, 7);
        symm(
            Side::Left,
            Uplo::Lower,
            1.0,
            &lower.view(),
            &b.view(),
            0.0,
            &mut c1.view_mut(),
            &cfg,
        )
        .unwrap();
        symm(
            Side::Left,
            Uplo::Upper,
            1.0,
            &upper.view(),
            &b.view(),
            0.0,
            &mut c2.view_mut(),
            &cfg,
        )
        .unwrap();
        assert!(max_abs_diff(&c1, &c2).unwrap() < 1e-12);
    }

    #[test]
    fn shape_errors_are_detected() {
        let cfg = BlockConfig::default();
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(4, 3);
        let mut c = Matrix::zeros(4, 3);
        assert!(symm(
            Side::Left,
            Uplo::Lower,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &cfg
        )
        .is_err());
        let a_sq = Matrix::zeros(5, 5);
        assert!(symm(
            Side::Left,
            Uplo::Lower,
            1.0,
            &a_sq.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &cfg
        )
        .is_err());
        let a_ok = Matrix::zeros(4, 4);
        let b_bad = Matrix::zeros(5, 3);
        assert!(symm(
            Side::Left,
            Uplo::Lower,
            1.0,
            &a_ok.view(),
            &b_bad.view(),
            0.0,
            &mut c.view_mut(),
            &cfg
        )
        .is_err());
    }
}
