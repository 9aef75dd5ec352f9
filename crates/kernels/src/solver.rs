//! The [`Solver`] trait: one object-safe interface over the three
//! factorisation-backed solve pipelines — Cholesky (SPD), partially pivoted
//! LU (general square) and Householder QR (general tall / least squares) —
//! so structure dispatch is a single match instead of a cross-cutting change
//! per factorisation.
//!
//! Every solver factors into an owned [`Matrix`] in the same packed form its
//! kernel-call IR realisation produces (an explicitly triangular Cholesky
//! factor; the `n x (n+1)` LU-plus-pivots and `m x (n+1)` QR-plus-taus packed
//! operands), so a cached factor from one world is directly reusable in the
//! other. [`solver_for`] is the structure-dispatch match
//! (`Spd → Cholesky`, square `General → LU`, tall `General → QR`) and
//! [`solve_auto`] is the convenience entry point over it.
//!
//! The same organisation as diffsol's `LinearSolver`/`DefaultSolver`
//! associations: the factorisation is chosen once, per operand structure, and
//! everything downstream programs against the trait.

use crate::backend::{Backend, NativeBackend};
use crate::config::BlockConfig;
use crate::op::KernelOp;
use lamb_matrix::{Matrix, MatrixError, Result, Side, Structure, Trans, Uplo};

/// `X := op(T)⁻¹·B` for a triangular `T` — the left-side TRSM every solve
/// pipeline ends in.
fn trsm_left(
    uplo: Uplo,
    trans: Trans,
    t: &Matrix,
    b: &Matrix,
    cfg: &BlockConfig,
) -> Result<Matrix> {
    let op = KernelOp::Trsm {
        side: Side::Left,
        uplo,
        trans,
        m: b.rows(),
        n: b.cols(),
    };
    NativeBackend.run_new(&op, &[t, b], cfg)
}

/// `T := tri(F)`: the explicit `uplo` triangle of a packed factor.
fn factor_tri(uplo: Uplo, f: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    let n = f.cols().saturating_sub(1);
    NativeBackend.run_new(&KernelOp::FactorTri { uplo, n }, &[f], cfg)
}

/// A factorisation-backed linear solver: factor once, solve many.
///
/// Implementations must be pure with respect to their inputs (the operand is
/// never modified) and must produce, for square nonsingular systems, an `X`
/// with `‖A·X - B‖ <= ~1e-10·‖B‖`; the QR solver generalises this to the
/// least-squares normal-equations residual `AᵀA·X = Aᵀ·B`.
pub trait Solver {
    /// Short human-readable name (`"cholesky"`, `"lu"`, `"qr"`).
    fn name(&self) -> &'static str;

    /// Mnemonic of the factorisation kernel this solver executes — the same
    /// string the kernel-call IR uses, so factor-cache identities built from
    /// it can never collide across factorisation kinds.
    fn factor_mnemonic(&self) -> &'static str;

    /// Whether this solver accepts an operand of the given declared
    /// structure and shape.
    fn handles(&self, structure: Structure, shape: (usize, usize)) -> bool;

    /// Shape of the factor operand produced for an `a` of shape `shape`.
    fn factor_shape(&self, shape: (usize, usize)) -> (usize, usize);

    /// Factor `a` out of place.
    ///
    /// # Errors
    ///
    /// Shape errors, plus the factorisation's own failure mode
    /// ([`MatrixError::NotPositiveDefinite`] for Cholesky,
    /// [`MatrixError::SingularDiagonal`] for LU).
    fn factor(&self, a: &Matrix, cfg: &BlockConfig) -> Result<Matrix>;

    /// Solve against a previously computed factor.
    ///
    /// # Errors
    ///
    /// Shape errors, plus [`MatrixError::SingularDiagonal`] when a
    /// triangular-solve pivot is zero (rank-deficient QR).
    fn solve_factored(&self, factor: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix>;

    /// Factor and solve in one call.
    ///
    /// # Errors
    ///
    /// Union of [`Solver::factor`] and [`Solver::solve_factored`].
    fn solve(&self, a: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        let f = self.factor(a, cfg)?;
        self.solve_factored(&f, b, cfg)
    }
}

/// Cholesky solver for SPD operands: `POTRF; TRSM(L); TRSM(Lᵀ)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CholeskySolver;

impl Solver for CholeskySolver {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn factor_mnemonic(&self) -> &'static str {
        "potrf"
    }

    fn handles(&self, structure: Structure, shape: (usize, usize)) -> bool {
        structure.is_spd() && shape.0 == shape.1
    }

    fn factor_shape(&self, shape: (usize, usize)) -> (usize, usize) {
        shape
    }

    fn factor(&self, a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        let op = KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: a.rows(),
        };
        NativeBackend.run_new(&op, &[a], cfg)
    }

    fn solve_factored(&self, factor: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        let y = trsm_left(Uplo::Lower, Trans::No, factor, b, cfg)?;
        trsm_left(Uplo::Lower, Trans::Yes, factor, &y, cfg)
    }
}

/// Partially pivoted LU solver for general square operands:
/// `GETRF; P·B; TRSM(L); TRSM(U)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LuSolver;

impl Solver for LuSolver {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn factor_mnemonic(&self) -> &'static str {
        "getrf"
    }

    fn handles(&self, structure: Structure, shape: (usize, usize)) -> bool {
        structure == Structure::General && shape.0 == shape.1
    }

    fn factor_shape(&self, shape: (usize, usize)) -> (usize, usize) {
        (shape.0, shape.0 + 1)
    }

    fn factor(&self, a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        NativeBackend.run_new(&KernelOp::Getrf { n: a.rows() }, &[a], cfg)
    }

    fn solve_factored(&self, factor: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        let pivot = KernelOp::PivotApply {
            side: Side::Left,
            m: b.rows(),
            n: b.cols(),
        };
        let bp = NativeBackend.run_new(&pivot, &[factor, b], cfg)?;
        let l = factor_tri(Uplo::Lower, factor, cfg)?;
        let u = factor_tri(Uplo::Upper, factor, cfg)?;
        let y = trsm_left(Uplo::Lower, Trans::No, &l, &bp, cfg)?;
        trsm_left(Uplo::Upper, Trans::No, &u, &y, cfg)
    }
}

/// Householder QR solver for general tall operands (least squares):
/// `QR; ORMQR; TRSM(R)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct QrSolver;

impl Solver for QrSolver {
    fn name(&self) -> &'static str {
        "qr"
    }

    fn factor_mnemonic(&self) -> &'static str {
        "qr"
    }

    fn handles(&self, structure: Structure, shape: (usize, usize)) -> bool {
        structure == Structure::General && shape.0 >= shape.1
    }

    fn factor_shape(&self, shape: (usize, usize)) -> (usize, usize) {
        (shape.0, shape.1 + 1)
    }

    fn factor(&self, a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        let op = KernelOp::Qr {
            m: a.rows(),
            n: a.cols(),
        };
        NativeBackend.run_new(&op, &[a], cfg)
    }

    fn solve_factored(&self, factor: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
        let reflect = KernelOp::Ormqr {
            m: factor.rows(),
            n: factor.cols().saturating_sub(1),
            k: b.cols(),
        };
        let c = NativeBackend.run_new(&reflect, &[factor, b], cfg)?;
        let r = factor_tri(Uplo::Upper, factor, cfg)?;
        trsm_left(Uplo::Upper, Trans::No, &r, &c, cfg)
    }
}

/// The structure-dispatch match: pick the solver for a declared operand
/// structure and shape. `Spd → Cholesky`, square `General → LU`, tall
/// rectangular `General → QR`; triangular operands solve directly through
/// TRSM and wide rectangles have no realisation, so both return `None`.
#[must_use]
pub fn solver_for(structure: Structure, shape: (usize, usize)) -> Option<&'static dyn Solver> {
    match structure {
        Structure::Spd => Some(&CholeskySolver),
        Structure::General if shape.0 == shape.1 => Some(&LuSolver),
        Structure::General if shape.0 > shape.1 => Some(&QrSolver),
        _ => None,
    }
}

/// Solve `A·X = B` (or its least-squares generalisation for tall `A`) by
/// dispatching on `a`'s declared structure through [`solver_for`].
///
/// # Errors
///
/// [`MatrixError::DimensionMismatch`] when no solver handles the
/// structure/shape combination, otherwise whatever the chosen solver's
/// [`Solver::solve`] reports.
pub fn solve_auto(
    structure: Structure,
    a: &Matrix,
    b: &Matrix,
    cfg: &BlockConfig,
) -> Result<Matrix> {
    match solver_for(structure, a.shape()) {
        Some(solver) => solver.solve(a, b, cfg),
        None => Err(MatrixError::DimensionMismatch {
            op: "solve_auto (no solver handles this structure/shape)",
            lhs: a.shape(),
            rhs: b.shape(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::ops::{max_abs, max_abs_diff};
    use lamb_matrix::random::{random_seeded, random_spd};

    fn residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
        let mut ax = Matrix::zeros(b.rows(), b.cols());
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &a.view(),
            &x.view(),
            0.0,
            &mut ax.view_mut(),
        )
        .unwrap();
        max_abs_diff(&ax, b).unwrap()
    }

    #[test]
    fn each_solver_solves_its_structure() {
        let cfg = BlockConfig::default();
        let n = 26;
        let b = random_seeded(n, 5, 2);

        let spd = random_spd(n, 1);
        let x = CholeskySolver.solve(&spd, &b, &cfg).unwrap();
        assert!(residual(&spd, &x, &b) < 1e-10 * n as f64);

        let gen = random_seeded(n, n, 3);
        let x = LuSolver.solve(&gen, &b, &cfg).unwrap();
        assert!(residual(&gen, &x, &b) < 1e-10 * n as f64);

        // QR on a square system agrees with LU.
        let xq = QrSolver.solve(&gen, &b, &cfg).unwrap();
        assert!(max_abs_diff(&x, &xq).unwrap() < 1e-8);

        // QR on a tall system minimises the normal-equations residual.
        let tall = random_seeded(n, 9, 4);
        let xt = QrSolver.solve(&tall, &b, &cfg).unwrap();
        let mut resid = Matrix::zeros(n, 5);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &tall.view(),
            &xt.view(),
            0.0,
            &mut resid.view_mut(),
        )
        .unwrap();
        for j in 0..5 {
            for i in 0..n {
                resid[(i, j)] -= b[(i, j)];
            }
        }
        let mut normal = Matrix::zeros(9, 5);
        gemm_naive(
            Trans::Yes,
            Trans::No,
            1.0,
            &tall.view(),
            &resid.view(),
            0.0,
            &mut normal.view_mut(),
        )
        .unwrap();
        assert!(max_abs(&normal) < 1e-10 * n as f64);
    }

    #[test]
    fn solver_for_is_the_structure_dispatch_match() {
        assert_eq!(
            solver_for(Structure::Spd, (8, 8)).unwrap().name(),
            "cholesky"
        );
        assert_eq!(solver_for(Structure::General, (8, 8)).unwrap().name(), "lu");
        assert_eq!(
            solver_for(Structure::General, (12, 8)).unwrap().name(),
            "qr"
        );
        assert!(solver_for(Structure::General, (3, 9)).is_none());
        assert!(solver_for(Structure::Triangular(Uplo::Lower), (8, 8)).is_none());
    }

    #[test]
    fn factor_mnemonics_are_distinct_across_kinds() {
        // The factor-cache identity embeds the mnemonic; collisions across
        // factorisation kinds would alias incompatible cached factors.
        let names = [
            CholeskySolver.factor_mnemonic(),
            LuSolver.factor_mnemonic(),
            QrSolver.factor_mnemonic(),
        ];
        assert_eq!(
            names.len(),
            names.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    #[test]
    fn solve_auto_dispatches_and_rejects_unhandled_shapes() {
        let cfg = BlockConfig::default();
        let a = random_spd(10, 7);
        let b = random_seeded(10, 2, 8);
        let x = solve_auto(Structure::Spd, &a, &b, &cfg).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
        assert!(solve_auto(Structure::General, &random_seeded(2, 6, 1), &b, &cfg).is_err());
    }

    #[test]
    fn factor_shapes_match_factor_outputs() {
        let cfg = BlockConfig::default();
        let spd = random_spd(7, 11);
        let gen = random_seeded(7, 7, 12);
        let tall = random_seeded(9, 4, 13);
        for (solver, a) in [
            (&CholeskySolver as &dyn Solver, &spd),
            (&LuSolver as &dyn Solver, &gen),
            (&QrSolver as &dyn Solver, &tall),
        ] {
            let f = solver.factor(a, &cfg).unwrap();
            assert_eq!(
                f.shape(),
                solver.factor_shape(a.shape()),
                "{}",
                solver.name()
            );
        }
    }
}
