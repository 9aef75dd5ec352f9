//! A small symbolic expression AST for matrix products.
//!
//! An expression tree such as `A * Aᵀ * B` or `L⁻¹ * B` with `L` triangular
//! is what [`TreeExpression::bind`](crate::parse::TreeExpression::bind)
//! builds from a parsed text and a dimension tuple, and what
//! [`enumerate_expr_algorithms`](crate::enumerate::enumerate_expr_algorithms)
//! turns into the candidate algorithm set.

use lamb_matrix::{Structure, Trans, Uplo};
use std::fmt;

/// Errors produced by shape inference over expression trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// Two factors cannot be multiplied because the inner dimensions differ.
    IncompatibleProduct {
        /// Shape of the left factor.
        left: (usize, usize),
        /// Shape of the right factor.
        right: (usize, usize),
    },
    /// An inverse was applied to a non-square sub-expression.
    InverseNotSquare {
        /// Shape of the inverted sub-expression.
        shape: (usize, usize),
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::IncompatibleProduct { left, right } => write!(
                f,
                "cannot multiply a {}x{} matrix by a {}x{} matrix",
                left.0, left.1, right.0, right.1
            ),
            ShapeError::InverseNotSquare { shape } => write!(
                f,
                "cannot invert a non-square {}x{} matrix",
                shape.0, shape.1
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// A condition on the sizes of a tree that [`Expr::shape`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShapeCheck {
    /// The inner dimensions of a product agree.
    Product {
        left: (usize, usize),
        right: (usize, usize),
    },
    /// An inverted operand is square.
    Square { shape: (usize, usize) },
}

impl ShapeCheck {
    /// The same condition with every size `s` read as `size(s)`.
    pub(crate) fn at(self, size: impl Fn(usize) -> usize) -> ShapeCheck {
        let pair = |(r, c): (usize, usize)| (size(r), size(c));
        match self {
            ShapeCheck::Product { left, right } => ShapeCheck::Product {
                left: pair(left),
                right: pair(right),
            },
            ShapeCheck::Square { shape } => ShapeCheck::Square { shape: pair(shape) },
        }
    }

    /// The condition as a verdict: `Ok` when it holds.
    pub(crate) fn verdict(self) -> Result<(), ShapeError> {
        match self {
            ShapeCheck::Product { left, right } if left.1 != right.0 => {
                Err(ShapeError::IncompatibleProduct { left, right })
            }
            ShapeCheck::Square { shape } if shape.0 != shape.1 => {
                Err(ShapeError::InverseNotSquare { shape })
            }
            _ => Ok(()),
        }
    }
}

/// A named symbolic matrix operand with a concrete shape and (optionally)
/// known structure — triangular or symmetric positive definite.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Var {
    /// Operand name, e.g. `"A"`.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Declared structure of the operand: [`Structure::Triangular`] operands
    /// store one triangle (the opposite one is structurally zero) and unlock
    /// TRMM/TRSM; [`Structure::Spd`] operands are symmetric positive
    /// definite, stored in full, and unlock SYMM and the Cholesky (POTRF)
    /// realisation of their inverses. Structured operands are necessarily
    /// square.
    pub structure: Structure,
}

impl Var {
    /// The stored triangle when the operand is triangular.
    #[must_use]
    pub fn triangle(&self) -> Option<Uplo> {
        self.structure.triangle()
    }
}

/// One factor of a flattened product: a leaf with its accumulated
/// transposition, inversion and pseudo-inversion flags (see
/// [`Expr::factors`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factor {
    /// The leaf operand.
    pub var: Var,
    /// Whether the leaf is used transposed.
    pub trans: bool,
    /// Whether the leaf is used inverted: triangular leaves lower to TRSM,
    /// SPD leaves to POTRF plus two TRSMs, and general square leaves to the
    /// pivoted LU realisation (GETRF, pivot application, two TRSMs).
    pub inv: bool,
    /// Whether the leaf is used pseudo-inverted (`A⁺`, the least-squares
    /// solve operator); realised through the QR factorisation for tall
    /// (`rows >= cols`) leaves.
    pub pinv: bool,
}

impl Factor {
    /// The triangle the factor effectively occupies after transposition
    /// (`None` for general and SPD leaves). Inversion preserves
    /// triangularity, so `L⁻¹` of a lower-triangular `L` is still effectively
    /// lower.
    #[must_use]
    pub fn effective_triangle(&self) -> Option<Uplo> {
        let trans = if self.trans { Trans::Yes } else { Trans::No };
        self.var.triangle().map(|u| u.under(trans))
    }
}

/// A symbolic matrix expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A leaf operand.
    Operand(Var),
    /// The transpose of a sub-expression.
    Transpose(Box<Expr>),
    /// The inverse of a sub-expression (realisable by kernels when it lands
    /// on a leaf: TRSM for triangular leaves, a Cholesky factorisation plus
    /// two TRSMs for SPD leaves, and a pivoted LU factorisation for general
    /// square leaves).
    Inverse(Box<Expr>),
    /// The Moore–Penrose pseudo-inverse of a sub-expression: `A⁺·b` is the
    /// least-squares solution `argmin‖A·x − b‖₂`, realised through a
    /// Householder QR factorisation when it lands on a tall leaf.
    PseudoInverse(Box<Expr>),
    /// The product of two sub-expressions.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Create a leaf operand.
    #[must_use]
    pub fn var(name: &str, rows: usize, cols: usize) -> Expr {
        Expr::Operand(Var {
            name: name.to_string(),
            rows,
            cols,
            structure: Structure::General,
        })
    }

    /// Create a square, triangular leaf operand storing the `uplo` triangle.
    #[must_use]
    pub fn tri_var(name: &str, n: usize, uplo: Uplo) -> Expr {
        Expr::Operand(Var {
            name: name.to_string(),
            rows: n,
            cols: n,
            structure: Structure::Triangular(uplo),
        })
    }

    /// Create a square, symmetric positive-definite leaf operand (stored in
    /// full). SPD structure unlocks the SYMM rewrite for plain products and
    /// the Cholesky realisation (`POTRF` + two `TRSM`s) of `S⁻¹·B`.
    #[must_use]
    pub fn spd_var(name: &str, n: usize) -> Expr {
        Expr::Operand(Var {
            name: name.to_string(),
            rows: n,
            cols: n,
            structure: Structure::Spd,
        })
    }

    /// Transpose this expression.
    #[must_use]
    pub fn t(self) -> Expr {
        Expr::Transpose(Box::new(self))
    }

    /// Invert this expression.
    #[must_use]
    pub fn inv(self) -> Expr {
        Expr::Inverse(Box::new(self))
    }

    /// Pseudo-invert this expression (the least-squares solve operator).
    #[must_use]
    pub fn pinv(self) -> Expr {
        Expr::PseudoInverse(Box::new(self))
    }

    /// Multiply this expression by `rhs`.
    // Not `std::ops::Mul`: builders chain more readably as `a.mul(b).mul(c)`
    // and the operator form would force reference gymnastics on `Box`ed trees.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Build the product of a sequence of expressions, left to right.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty.
    #[must_use]
    pub fn product(factors: Vec<Expr>) -> Expr {
        let mut it = factors.into_iter();
        let first = it.next().expect("product of at least one factor");
        it.fold(first, |acc, x| acc.mul(x))
    }

    /// Infer the shape of the expression.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a product has mismatched inner dimensions.
    pub fn shape(&self) -> Result<(usize, usize), ShapeError> {
        self.shape_checked(&mut |check| check.verdict())
    }

    /// The shape of the expression, putting every [`ShapeCheck`] to `check`
    /// in the order [`Expr::shape`] meets them (children before their node,
    /// left before right) and stopping at the first error it returns. The
    /// shape of a node follows from its children's whether or not its own
    /// check holds.
    pub(crate) fn shape_checked<E>(
        &self,
        check: &mut impl FnMut(ShapeCheck) -> Result<(), E>,
    ) -> Result<(usize, usize), E> {
        match self {
            Expr::Operand(v) => Ok((v.rows, v.cols)),
            // A⁺ of an m×n matrix is n×m; no squareness requirement
            // (tallness is a realisability question, not a shape one).
            Expr::Transpose(inner) | Expr::PseudoInverse(inner) => {
                let (r, c) = inner.shape_checked(check)?;
                Ok((c, r))
            }
            Expr::Inverse(inner) => {
                let shape = inner.shape_checked(check)?;
                check(ShapeCheck::Square { shape })?;
                Ok(shape)
            }
            Expr::Mul(l, r) => {
                let left = l.shape_checked(check)?;
                let right = r.shape_checked(check)?;
                check(ShapeCheck::Product { left, right })?;
                Ok((left.0, right.1))
            }
        }
    }

    /// Flatten the expression into an ordered list of product [`Factor`]s,
    /// pushing transposes, inverses and pseudo-inverses down to the leaves
    /// where possible: `(X·Y)ᵀ = Yᵀ·Xᵀ`, `(X·Y)⁻¹ = Y⁻¹·X⁻¹` and
    /// `(X·Y)⁺ = Y⁺·X⁺` (the latter under the full-rank assumptions the
    /// whole vocabulary already makes) all reverse the factor order, so the
    /// reversal happens exactly when an odd number of the accumulated flags
    /// is outstanding; nested applications cancel pairwise and commute.
    #[must_use]
    pub fn factors(&self) -> Vec<Factor> {
        fn go(e: &Expr, trans: bool, inv: bool, pinv: bool, out: &mut Vec<Factor>) {
            match e {
                Expr::Operand(v) => out.push(Factor {
                    var: v.clone(),
                    trans,
                    inv,
                    pinv,
                }),
                Expr::Transpose(inner) => go(inner, !trans, inv, pinv, out),
                Expr::Inverse(inner) => go(inner, trans, !inv, pinv, out),
                Expr::PseudoInverse(inner) => go(inner, trans, inv, !pinv, out),
                Expr::Mul(l, r) => {
                    if trans ^ inv ^ pinv {
                        // (L·R)^T = R^T·L^T, (L·R)^-1 = R^-1·L^-1 and
                        // (L·R)^+ = R^+·L^+: an odd number of pending order
                        // reversals is outstanding.
                        go(r, trans, inv, pinv, out);
                        go(l, trans, inv, pinv, out);
                    } else {
                        go(l, trans, inv, pinv, out);
                        go(r, trans, inv, pinv, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, false, false, false, &mut out);
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Operand(v) => write!(f, "{}", v.name),
            Expr::Transpose(inner) => write!(f, "{inner}^T"),
            Expr::Inverse(inner) => write!(f, "{inner}^-1"),
            Expr::PseudoInverse(inner) => write!(f, "{inner}^+"),
            Expr::Mul(l, r) => write!(f, "({l} {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_inference_for_products_and_transposes() {
        let a = Expr::var("A", 3, 4);
        let b = Expr::var("B", 4, 5);
        let ab = a.clone().mul(b);
        assert_eq!(ab.shape().unwrap(), (3, 5));
        assert_eq!(a.clone().t().shape().unwrap(), (4, 3));
        let aat = a.clone().mul(a.t());
        assert_eq!(aat.shape().unwrap(), (3, 3));
    }

    #[test]
    fn incompatible_product_is_an_error() {
        let a = Expr::var("A", 3, 4);
        let b = Expr::var("B", 5, 6);
        let err = a.mul(b).shape().unwrap_err();
        assert!(err.to_string().contains("3x4"));
        assert!(err.to_string().contains("5x6"));
    }

    #[test]
    fn product_builder_associates_left() {
        let factors = vec![
            Expr::var("A", 2, 3),
            Expr::var("B", 3, 4),
            Expr::var("C", 4, 5),
        ];
        let p = Expr::product(factors);
        assert_eq!(p.shape().unwrap(), (2, 5));
        assert_eq!(p.to_string(), "((A B) C)");
    }

    #[test]
    fn factors_flatten_plain_chain() {
        let p = Expr::product(vec![
            Expr::var("A", 2, 3),
            Expr::var("B", 3, 4),
            Expr::var("C", 4, 5),
        ]);
        let fs = p.factors();
        let names: Vec<_> = fs.iter().map(|f| (f.var.name.as_str(), f.trans)).collect();
        assert_eq!(names, vec![("A", false), ("B", false), ("C", false)]);
        assert!(fs.iter().all(|f| !f.inv));
    }

    #[test]
    fn factors_push_transpose_to_leaves() {
        // (A B)^T = B^T A^T.
        let a = Expr::var("A", 2, 3);
        let b = Expr::var("B", 3, 4);
        let expr = a.mul(b).t();
        let fs = expr.factors();
        let names: Vec<_> = fs.iter().map(|f| (f.var.name.as_str(), f.trans)).collect();
        assert_eq!(names, vec![("B", true), ("A", true)]);
    }

    #[test]
    fn double_transpose_cancels_in_factors() {
        let a = Expr::var("A", 2, 3);
        let expr = a.t().t();
        let fs = expr.factors();
        assert_eq!(fs.len(), 1);
        assert!(!fs[0].trans);
    }

    #[test]
    fn factors_push_inverse_to_leaves() {
        use lamb_matrix::Uplo;
        // (L U)^-1 = U^-1 L^-1.
        let l = Expr::tri_var("L", 4, Uplo::Lower);
        let u = Expr::tri_var("U", 4, Uplo::Upper);
        let fs = l.clone().mul(u.clone()).inv().factors();
        let names: Vec<_> = fs.iter().map(|f| (f.var.name.as_str(), f.inv)).collect();
        assert_eq!(names, vec![("U", true), ("L", true)]);
        // ((L U)^T)^-1 = L^-T U^-T: both reversals cancel.
        let fs2 = l.clone().mul(u).t().inv().factors();
        let names2: Vec<_> = fs2
            .iter()
            .map(|f| (f.var.name.as_str(), f.trans, f.inv))
            .collect();
        assert_eq!(names2, vec![("L", true, true), ("U", true, true)]);
        // Double inverse cancels.
        let fs3 = l.inv().inv().factors();
        assert!(!fs3[0].inv);
    }

    #[test]
    fn effective_triangle_follows_transposition() {
        use lamb_matrix::Uplo;
        let fs = Expr::tri_var("L", 3, Uplo::Lower).t().factors();
        assert_eq!(fs[0].effective_triangle(), Some(Uplo::Upper));
        assert_eq!(fs[0].var.triangle(), Some(Uplo::Lower));
        let plain = Expr::var("A", 3, 3).factors();
        assert_eq!(plain[0].effective_triangle(), None);
    }

    #[test]
    fn spd_vars_are_square_symmetric_and_transpose_invariant() {
        let s = Expr::spd_var("S", 6);
        assert_eq!(s.shape().unwrap(), (6, 6));
        let fs = s.clone().factors();
        assert_eq!(fs[0].var.structure, Structure::Spd);
        assert_eq!(fs[0].effective_triangle(), None, "SPD is not triangular");
        // The transpose of an SPD operand is still SPD (and still square).
        let ft = s.clone().t().factors();
        assert_eq!(ft[0].var.structure.under(Trans::Yes), Structure::Spd);
        // S^-1 keeps the structure on the flattened factor.
        let fi = s.inv().factors();
        assert!(fi[0].inv);
        assert_eq!(fi[0].var.structure, Structure::Spd);
    }

    #[test]
    fn inverse_shape_requires_square() {
        use lamb_matrix::Uplo;
        let l = Expr::tri_var("L", 5, Uplo::Lower);
        assert_eq!(l.clone().inv().shape().unwrap(), (5, 5));
        let a = Expr::var("A", 3, 4);
        let err = a.inv().shape().unwrap_err();
        assert!(err.to_string().contains("3x4"));
    }

    #[test]
    fn pseudo_inverse_swaps_the_shape_and_flattens_to_a_flag() {
        let a = Expr::var("A", 7, 3);
        assert_eq!(a.clone().pinv().shape().unwrap(), (3, 7));
        let b = Expr::var("b", 7, 1);
        let expr = a.clone().pinv().mul(b);
        assert_eq!(expr.shape().unwrap(), (3, 1));
        let fs = expr.factors();
        assert!(fs[0].pinv && !fs[0].inv && !fs[0].trans);
        assert!(!fs[1].pinv);
        // (A^T)^+ swaps twice; (A^+)^+ cancels (full-rank assumption).
        let ft = a.clone().t().pinv().factors();
        assert!(ft[0].pinv && ft[0].trans);
        let fc = a.clone().pinv().pinv().factors();
        assert!(!fc[0].pinv);
        // (X·Y)^+ reverses the factor order like transpose and inverse.
        let x = Expr::var("X", 5, 4);
        let y = Expr::var("Y", 4, 2);
        let fm = x.mul(y).pinv().factors();
        let names: Vec<_> = fm.iter().map(|f| (f.var.name.as_str(), f.pinv)).collect();
        assert_eq!(names, vec![("Y", true), ("X", true)]);
        assert_eq!(a.pinv().to_string(), "A^+");
    }

    #[test]
    fn display_is_parenthesised() {
        let a = Expr::var("A", 2, 3);
        let b = Expr::var("B", 3, 2);
        assert_eq!(a.clone().mul(b).t().to_string(), "(A B)^T");
        assert_eq!(
            Expr::tri_var("L", 2, lamb_matrix::Uplo::Lower)
                .inv()
                .to_string(),
            "L^-1"
        );
    }
}
