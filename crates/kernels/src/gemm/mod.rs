//! General matrix–matrix multiplication: `C := alpha * op(A) * op(B) + beta * C`.
//!
//! The public entry point is [`gemm`]; it validates shapes, applies `beta`,
//! and hands `op(A)` and `op(B)` as [`Strided`] windows to the shared
//! [`BlockedDriver`], which blocks, packs and parallelises.

pub mod naive;

use crate::config::BlockConfig;
use crate::driver::{scale_inplace, BlockedDriver};
use crate::pack::Strided;
use lamb_matrix::{MatrixError, MatrixView, MatrixViewMut, Result, Trans};

/// `C := alpha * op(A) * op(B) + beta * C`.
///
/// `op(X)` is `X` or `Xᵀ` according to the corresponding [`Trans`] flag. The
/// FLOP count attributed to this kernel by the paper is `2·m·n·k` (see
/// [`crate::flops::gemm_flops`]).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when the operand shapes are
/// inconsistent with the output shape.
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn gemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (m, ka) = transa.apply((a.rows(), a.cols()));
    let (kb, n) = transb.apply((b.rows(), b.cols()));
    if ka != kb {
        return Err(MatrixError::DimensionMismatch {
            op: "gemm inner dimension",
            lhs: (m, ka),
            rhs: (kb, n),
        });
    }
    if c.rows() != m || c.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "gemm output shape",
            lhs: (c.rows(), c.cols()),
            rhs: (m, n),
        });
    }
    let k = ka;

    scale_inplace(beta, c);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return Ok(());
    }

    let (op_a, op_b) = (Strided::new(a, transa), Strided::new(b, transb));
    BlockedDriver::new(cfg).accumulate(m, n, k, alpha, &op_a, &op_b, c);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::random_seeded;
    use lamb_matrix::Matrix;

    #[allow(clippy::too_many_arguments)] // mirrors the BLAS-style signature under test
    fn check_against_naive(
        transa: Trans,
        transb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        cfg: &BlockConfig,
    ) {
        let (ar, ac) = transa.apply((m, k));
        let (br, bc) = transb.apply((k, n));
        let a = random_seeded(ar, ac, 10 + m as u64);
        let b = random_seeded(br, bc, 20 + n as u64);
        let c0 = random_seeded(m, n, 30 + k as u64);
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        gemm(
            transa,
            transb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut c_fast.view_mut(),
            cfg,
        )
        .unwrap();
        gemm_naive(
            transa,
            transb,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut c_ref.view_mut(),
        )
        .unwrap();
        let diff = max_abs_diff(&c_fast, &c_ref).unwrap();
        assert!(
            diff < 1e-10 * (k as f64).max(1.0),
            "trans {:?}/{:?} {m}x{n}x{k} alpha={alpha} beta={beta}: diff {diff}",
            transa,
            transb
        );
    }

    #[test]
    fn all_transpose_combinations_match_naive() {
        let cfg = BlockConfig::serial();
        for &transa in &[Trans::No, Trans::Yes] {
            for &transb in &[Trans::No, Trans::Yes] {
                check_against_naive(transa, transb, 23, 17, 31, 1.0, 0.0, &cfg);
                check_against_naive(transa, transb, 9, 40, 5, -0.5, 2.0, &cfg);
            }
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1, // force the parallel path
            ..BlockConfig::default()
        };
        check_against_naive(Trans::No, Trans::No, 120, 90, 75, 1.0, 0.0, &cfg);
        check_against_naive(Trans::Yes, Trans::No, 64, 200, 33, 2.0, 1.0, &cfg);
        check_against_naive(Trans::No, Trans::Yes, 150, 150, 150, 1.0, 0.5, &cfg);
    }

    #[test]
    fn skinny_and_degenerate_shapes() {
        let cfg = BlockConfig::default();
        check_against_naive(Trans::No, Trans::No, 1, 200, 3, 1.0, 0.0, &cfg);
        check_against_naive(Trans::No, Trans::No, 200, 1, 3, 1.0, 0.0, &cfg);
        check_against_naive(Trans::No, Trans::No, 5, 5, 1, 1.0, 0.0, &cfg);
        // k = 0 leaves beta*C.
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::filled(4, 4, 3.0);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.view(),
            &b.view(),
            2.0,
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|&x| x == 6.0));
    }

    #[test]
    fn shape_errors_are_detected() {
        let cfg = BlockConfig::default();
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let mut c = Matrix::zeros(3, 2);
        assert!(gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &cfg
        )
        .is_err());
        // Transposing B fixes the inner dimension but breaks the output shape.
        let b2 = Matrix::zeros(2, 4);
        let mut c_bad = Matrix::zeros(3, 5);
        assert!(gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            &a.view(),
            &b2.view(),
            0.0,
            &mut c_bad.view_mut(),
            &cfg
        )
        .is_err());
    }

    #[test]
    fn matrix_product_associativity_holds_numerically() {
        // (A B) C == A (B C) within round-off — the identity behind the matrix
        // chain expression having many equivalent algorithms.
        let cfg = BlockConfig::serial();
        let a = random_seeded(20, 30, 1);
        let b = random_seeded(30, 10, 2);
        let c = random_seeded(10, 25, 3);
        let mut ab = Matrix::zeros(20, 10);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut ab.view_mut(),
            &cfg,
        )
        .unwrap();
        let mut ab_c = Matrix::zeros(20, 25);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &ab.view(),
            &c.view(),
            0.0,
            &mut ab_c.view_mut(),
            &cfg,
        )
        .unwrap();
        let mut bc = Matrix::zeros(30, 25);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &b.view(),
            &c.view(),
            0.0,
            &mut bc.view_mut(),
            &cfg,
        )
        .unwrap();
        let mut a_bc = Matrix::zeros(20, 25);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.view(),
            &bc.view(),
            0.0,
            &mut a_bc.view_mut(),
            &cfg,
        )
        .unwrap();
        assert!(max_abs_diff(&ab_c, &a_bc).unwrap() < 1e-10);
    }
}
