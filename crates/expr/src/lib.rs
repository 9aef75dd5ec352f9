//! # lamb-expr
//!
//! The symbolic layer of the `lamb` workspace: linear-algebra expressions,
//! the kernel-call intermediate representation, and the enumeration of all
//! mathematically equivalent algorithms for arbitrary products of (possibly
//! transposed, possibly repeated) matrices.
//!
//! The heart of the crate is the **general enumerator**
//! ([`enumerate`]): a recursive merge search over the flattened factor list
//! of an [`Expr`] tree composed with the rewrite rules of
//! [`rewrite`] (transpose pushing, SYRK for Gram products `X·Xᵀ`, SYMM and
//! triangle copies for symmetric intermediates). The two expressions studied
//! in the ICPP'22 paper fall out as special cases:
//!
//! * the **matrix chain** `X := A·B·C·D` (Section 3.2.1), whose six
//!   algorithms use only GEMM, and
//! * the expression `X := A·Aᵀ·B` (Section 3.2.2), whose five algorithms mix
//!   GEMM, SYRK and SYMM (plus an explicit triangle-to-full copy).
//!
//! Both are parsed texts, `"A*B*C*D"` and `"A*A^T*B"`: [`parse`] turns any
//! such text into a dimension-parameterised [`TreeExpression`], the one
//! [`Expression`] the crate implements. The paper's tables (Figure 5, the
//! closed-form FLOP counts of Section 3.2, the chain DP optimum) are test
//! fixtures the engine is checked against.
//!
//! An [`Algorithm`] is a sequence of
//! [`KernelCall`]s over symbolic operands; its FLOP
//! count is the sum of the per-kernel FLOP models of Section 3.1. Executors
//! in `lamb-perfmodel` turn these symbolic sequences into measured or
//! simulated execution times.
//!
//! ```
//! use lamb_expr::{Expression, TreeExpression};
//!
//! let chain = TreeExpression::parse("A*B*C*D").unwrap();
//! let algs = chain.algorithms(&[100, 90, 80, 70, 60]).unwrap();
//! assert_eq!(algs.len(), 6); // 3! orderings of the three multiplications
//! let cheapest = algs.iter().map(|a| a.flops()).min().unwrap();
//! assert!(cheapest > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algorithm;
pub mod cse;
pub mod enumerate;
pub mod expr;
pub mod expression;
pub mod kernel_call;
pub mod operand;
pub mod parse;
pub mod rewrite;
pub mod shared_str;
mod template;

pub use algorithm::{Algorithm, OperandInfo, OperandRole};
pub use cse::{
    cacheable_identities, eliminate_common_subexpressions, eliminate_shared_calls, is_cacheable_op,
    node_identities, shared_flops, CseOutcome,
};
pub use enumerate::{enumerate_expr_algorithms, GenerateError};
pub use expr::{Expr, Factor, ShapeError, Var};
pub use expression::Expression;
pub use kernel_call::{CallInputs, KernelCall, KernelOp};
pub use operand::OperandId;
pub use parse::{ParseError, TreeExpression};
pub use shared_str::SharedStr;
