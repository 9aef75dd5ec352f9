//! The [`Expression`] abstraction used by the planner and experiment drivers.
//!
//! An expression defines a *problem-instance space*: every instance is a
//! tuple of dimension sizes, and for each instance the expression enumerates
//! its set of mathematically equivalent algorithms. This is exactly the
//! structure the paper's three experiments operate on. The implementation
//! in this crate is the parsed [`TreeExpression`](crate::parse::TreeExpression),
//! which derives its text's algorithm set once, as a template over the
//! dimension tuple, and instantiates it per instance — what
//! [`enumerate_expr_algorithms`](crate::enumerate::enumerate_expr_algorithms)
//! returns for the bound [`Expr`](crate::expr::Expr) tree; the paper's two
//! expressions are the texts `"A*B*C*D"` and `"A*A^T*B"`.

use crate::algorithm::Algorithm;
use crate::cse::shared_forms;
use crate::enumerate::GenerateError;

/// A linear-algebra expression whose instances are dimension-size tuples.
pub trait Expression: Send + Sync {
    /// Human-readable name, e.g. `"A*A^T*B"`.
    fn name(&self) -> String;

    /// Number of dimension sizes that specify one instance
    /// (5 for `A·B·C·D`: `d0..d4`; 3 for `A·Aᵀ·B`: `d0..d2`).
    fn num_dims(&self) -> usize;

    /// Enumerate at most `top_k` algorithms for the instance `dims` (whose
    /// length must equal [`Expression::num_dims`]), keeping the cheapest;
    /// `None` enumerates everything in the expression's natural order.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError`] when the instance admits no valid
    /// enumeration (shape inconsistency, no kernel realisation, ...).
    fn algorithms_pruned(
        &self,
        dims: &[usize],
        top_k: Option<usize>,
    ) -> Result<Vec<Algorithm>, GenerateError>;

    /// Enumerate every algorithm for the instance `dims`.
    ///
    /// # Errors
    ///
    /// See [`Expression::algorithms_pruned`].
    fn algorithms(&self, dims: &[usize]) -> Result<Vec<Algorithm>, GenerateError> {
        self.algorithms_pruned(dims, None)
    }

    /// The candidates a planner scores: [`Expression::algorithms_pruned`],
    /// each algorithm in its shared form (every distinct computation once,
    /// see [`eliminate_shared_calls`](crate::cse::eliminate_shared_calls))
    /// when `shared`.
    ///
    /// # Errors
    ///
    /// See [`Expression::algorithms_pruned`].
    fn candidates(
        &self,
        dims: &[usize],
        top_k: Option<usize>,
        shared: bool,
    ) -> Result<Vec<Algorithm>, GenerateError> {
        let algorithms = self.algorithms_pruned(dims, top_k)?;
        Ok(if shared {
            shared_forms(algorithms)
        } else {
            algorithms
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::TreeExpression;

    #[test]
    fn expressions_are_object_safe() {
        struct Broken;
        impl Expression for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn num_dims(&self) -> usize {
                1
            }
            fn algorithms_pruned(
                &self,
                _dims: &[usize],
                _top_k: Option<usize>,
            ) -> Result<Vec<Algorithm>, GenerateError> {
                Err(GenerateError::Empty)
            }
        }
        let exprs: Vec<Box<dyn Expression>> = vec![
            Box::new(TreeExpression::parse("A*B*C*D").unwrap()),
            Box::new(TreeExpression::parse("A*A^T*B").unwrap()),
            Box::new(Broken),
        ];
        let counts: Vec<Result<usize, GenerateError>> = exprs
            .iter()
            .map(|e| Ok(e.algorithms(&vec![16; e.num_dims()])?.len()))
            .collect();
        assert_eq!(counts, vec![Ok(6), Ok(5), Err(GenerateError::Empty)]);
    }
}
