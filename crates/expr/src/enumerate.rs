//! The algorithm enumerator: from an [`Expr`] tree to the set of
//! mathematically equivalent kernel-call algorithms.
//!
//! This is the engine behind every [`Expression`](crate::Expression) in the
//! workspace, the paper's two included: `A·B·C·D` and `A·Aᵀ·B` are parsed
//! texts like any other.
//!
//! 1. the tree is flattened into a list of (possibly transposed) leaf
//!    factors, pushing transposes down with `(A·B)ᵀ = Bᵀ·Aᵀ`;
//! 2. a recursive merge search enumerates every *order* in which adjacent
//!    factors can be multiplied — `(p-1)!` orders for `p` factors, exactly
//!    the algorithm set of the paper's Section 3.2.1;
//! 3. at each merge the rewrite rules of [`crate::rewrite`] contribute the
//!    kernel variants (SYRK for Gram products `X·Xᵀ`, SYMM and triangle
//!    copies for symmetric intermediates), which is how the five `A·Aᵀ·B`
//!    algorithms of Section 3.2.2 fall out of the same engine.
//!
//! A memoized parenthesization lower bound (the generalisation of the
//! matrix chain DP) powers the optional **top-k FLOPs pruning**: with a
//! `top_k`, branches that provably cannot reach the k cheapest algorithms
//! are cut, which keeps planning tractable for chains of length 8–10 where
//! full enumeration is factorial.
//!
//! A parsed text does not run this search per request: its
//! [`TreeExpression`](crate::TreeExpression) runs it once, untruncated, over
//! dimension codes and keeps the completions as a template each request
//! instantiates, ranks and cuts (the crate-private `template` module). The
//! dimension-dependent conditions (shape checks, a pseudo-inverted operand
//! being tall) are met in one place, `validate`, which either decides
//! them at the bound sizes or defers them for the template's requests. The
//! search stays the engine a template is derived from, the oracle the
//! template parity tests hold it to, and the per-request path for texts
//! whose completion count passes the template cap (the factorial chains of
//! eight and more factors) or that the memo has no room for.
//!
//! The search moves operand ids, dimensions and kernel ops, never strings:
//! a branch is a stack of calls whose labels stay as pieces (a literal, an
//! operand, a node of the merge tree), and the `M{k}` names, parenthesised
//! texts and labels are rendered once, for each algorithm returned. With
//! `top_k`, a completion is ranked from its call stack by `(shared FLOPs,
//! FLOPs, enumeration order)` and copied only if it enters the bounded top-k
//! set; only the final survivors become [`Algorithm`]s.
//!
//! ```
//! use lamb_expr::enumerate::enumerate_expr_algorithms;
//! use lamb_expr::expr::Expr;
//!
//! let a = Expr::var("A", 80, 514);
//! let b = Expr::var("B", 80, 768);
//! let aatb = a.clone().mul(a.t()).mul(b);
//! let algorithms = enumerate_expr_algorithms(&aatb, None).unwrap();
//! assert_eq!(algorithms.len(), 5); // the paper's five A*A^T*B algorithms
//! ```

use crate::algorithm::{saturating_sum, Algorithm, OperandInfo, OperandRole};
use crate::cse::{CallView, ValueNumbering};
use crate::expr::{Expr, Factor, ShapeCheck, ShapeError};
use crate::kernel_call::{KernelCall, KernelOp};
use crate::operand::OperandId;
use crate::rewrite::{variants, MergeKind, MergeOperand, Storage};
use crate::shared_str::SharedStr;
use lamb_matrix::{Side, Structure, Trans, Uplo};
use std::collections::HashMap;
use std::fmt::{self, Write};

/// Errors produced while generating algorithms from an expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The expression tree contains a shape inconsistency.
    Shape(ShapeError),
    /// The expression has no factors (cannot happen with the public builders).
    Empty,
    /// The same operand name is used with two different shapes.
    InconsistentOperand {
        /// The offending operand name.
        name: String,
    },
    /// The expression is a single transposed operand, which no kernel in the
    /// paper's set can realise (there is no standalone transpose kernel).
    BareTranspose {
        /// The transposed operand's name.
        name: String,
    },
    /// The expression is a single inverted operand; a solve has no
    /// right-hand side to apply the inverse to.
    BareInverse {
        /// The inverted operand's name.
        name: String,
    },
    /// The expression is a single pseudo-inverted operand; a least-squares
    /// solve has no right-hand side to apply the pseudo-inverse to.
    BarePseudoInverse {
        /// The pseudo-inverted operand's name.
        name: String,
    },
    /// A pseudo-inverse was applied to a wide operand; the QR realisation
    /// requires the operand (as used, after transposition) to be tall or
    /// square (`rows >= cols`).
    PseudoInverseWide {
        /// The pseudo-inverted operand's name.
        name: String,
    },
    /// An operand is used as both an inverse and a pseudo-inverse in the
    /// same factor (e.g. `(A^+)^-1`), which no kernel sequence realises.
    InversePseudoInverseMix {
        /// The offending operand's name.
        name: String,
    },
    /// No merge order of the expression reaches a complete kernel sequence.
    /// Inverses realise from either side (left- and right-side solves), so
    /// this now means: a solve's rectangular partner is transposed or
    /// triangle-stored in every order (as in `L^-1 * B^T`), two inverses
    /// meet in every merge (`L^-1 * M^-1`), a general inverse is transposed
    /// (`A^-T` — GETRF carries no transposition flag), or a pseudo-inverse
    /// sits on the right of every split (`b * A^+` — ORMQR applies `Q₁ᵀ`
    /// from the left only).
    NoRealisation {
        /// Display form of the unrealisable expression.
        expression: String,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::Shape(e) => write!(f, "shape error: {e}"),
            GenerateError::Empty => write!(f, "expression has no factors"),
            GenerateError::InconsistentOperand { name } => {
                write!(f, "operand `{name}` is used with two different shapes")
            }
            GenerateError::BareTranspose { name } => {
                write!(
                    f,
                    "`{name}^T` alone has no kernel realisation (no standalone transpose kernel)"
                )
            }
            GenerateError::BareInverse { name } => {
                write!(
                    f,
                    "`{name}^-1` alone has no kernel realisation (a triangular solve \
                     needs a right-hand side to apply the inverse to)"
                )
            }
            GenerateError::BarePseudoInverse { name } => {
                write!(
                    f,
                    "`{name}^+` alone has no kernel realisation (a least-squares solve \
                     needs a right-hand side to apply the pseudo-inverse to)"
                )
            }
            GenerateError::PseudoInverseWide { name } => {
                write!(
                    f,
                    "`{name}^+` has no kernel realisation: the QR-based least-squares \
                     solve requires `{name}` (as used) to have at least as many rows \
                     as columns"
                )
            }
            GenerateError::InversePseudoInverseMix { name } => {
                write!(
                    f,
                    "`{name}` is used under both an inverse and a pseudo-inverse, \
                     which no kernel sequence realises"
                )
            }
            GenerateError::NoRealisation { expression } => {
                write!(
                    f,
                    "no kernel sequence realises `{expression}`: in every multiplication \
                     order a solve lacks a legal position — solves run from either side \
                     but need an untransposed, fully-stored rectangular partner (and a \
                     pseudo-inverse applies from the left only)"
                )
            }
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<ShapeError> for GenerateError {
    fn from(e: ShapeError) -> Self {
        GenerateError::Shape(e)
    }
}

/// One factor of the partially evaluated product: an original (possibly
/// transposed, possibly inverse-marked) leaf or an intermediate, covering
/// the factor range `[start, end)` of the flattened expression.
#[derive(Debug, Clone, Copy)]
struct Segment {
    id: OperandId,
    /// Logical number of rows (after leaf transposition).
    rows: usize,
    /// Logical number of columns (after leaf transposition).
    cols: usize,
    /// Leaf transposition; `Trans::No` for intermediates.
    trans: Trans,
    /// Index of the distinct leaf (for Gram-pair detection).
    leaf: Option<usize>,
    storage: Storage,
    /// The *stored* triangle when the segment is known triangular
    /// (`trans` still applies on top of it for leaves).
    tri: Option<Uplo>,
    /// Whether the segment is a symmetric positive-definite leaf.
    spd: bool,
    /// Whether the segment is inverse-marked (a leaf used as `L⁻¹`, `S⁻¹`
    /// or general `A⁻¹`); intermediates are never inverse-marked.
    inv: bool,
    /// Whether the segment is pseudo-inverse-marked (a leaf used as `A⁺`);
    /// intermediates are never pseudo-inverse-marked.
    pinv: bool,
    /// First flattened-factor index covered by this segment.
    start: usize,
    /// One past the last flattened-factor index covered.
    end: usize,
    /// The segment's node in the merge tree: its factor position for a
    /// leaf, `factors + d` for the result of the merge at recursion depth
    /// `d`. The parenthesised text (`"(A B)"`) is rendered from the tree,
    /// and only for an algorithm that is built.
    node: usize,
}

impl Segment {
    /// The triangle this segment's values effectively occupy (transposition
    /// applied).
    fn effective_tri(&self) -> Option<Uplo> {
        self.tri.map(|u| u.under(self.trans))
    }

    fn merge_operand(&self) -> MergeOperand {
        MergeOperand {
            leaf: self.leaf,
            trans: self.trans,
            storage: self.storage,
            tri: self.effective_tri(),
            spd: self.spd,
            inv: self.inv,
            pinv: self.pinv,
        }
    }
}

/// One piece of a call label. The search keeps a label as pieces and renders
/// it only for an algorithm that is built.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// Literal text.
    Lit(&'static str),
    /// The parenthesised text of a merge-tree node, e.g. `(A B)`.
    Text(usize),
    /// An operand's name: the leaf's own, or `M{k}` for the k-th
    /// intermediate (the output is `M{k}` in labels too).
    Name(OperandId),
}

use Piece::{Lit, Name, Text};

/// The right-hand side of a call label `M := rhs`.
type Rhs = [Piece; 4];

/// `pieces`, padded to an [`Rhs`].
fn rhs<const N: usize>(pieces: [Piece; N]) -> Rhs {
    let mut out = [Lit(""); 4];
    out[..N].copy_from_slice(&pieces);
    out
}

/// One call of the branch being searched: a [`KernelCall`] with its inputs
/// inline and its label still in pieces.
#[derive(Debug, Clone)]
struct Step {
    op: KernelOp,
    inputs: [OperandId; 2],
    arity: usize,
    output: OperandId,
    rhs: Rhs,
}

impl CallView for Step {
    fn op(&self) -> &KernelOp {
        &self.op
    }

    fn inputs(&self) -> &[OperandId] {
        &self.inputs[..self.arity]
    }

    fn output(&self) -> OperandId {
        self.output
    }
}

/// An intermediate the branch defines. Its id (inputs first, then the
/// intermediates in definition order) and its name follow from its position.
#[derive(Debug, Clone, Copy)]
struct Intermediate {
    rows: usize,
    cols: usize,
    structure: Structure,
}

/// Enumerate the algorithms for `expr`. With `top_k`, keep only the `k`
/// cheapest, pruning provably-too-expensive branches during the search;
/// the survivors are returned sorted by `(shared FLOPs, FLOPs)`, ties in
/// enumeration order, and only they are ever built. `None` returns every
/// algorithm in enumeration order.
///
/// # Errors
///
/// Returns [`GenerateError`] if the expression is shape-inconsistent, has no
/// factors, reuses an operand name with two different shapes, or has no
/// kernel realisation.
pub fn enumerate_expr_algorithms(
    expr: &Expr,
    top_k: Option<usize>,
) -> Result<Vec<Algorithm>, GenerateError> {
    let factors = expr.factors();
    let completions = complete(expr, &factors, &mut Conditions::Decide, top_k, usize::MAX)?;
    Ok(completions
        .unwrap_or_default()
        .into_iter()
        .enumerate()
        .map(|(i, (mut alg, suffix))| {
            alg.name = algorithm_name(i + 1, &suffix);
            alg
        })
        .collect())
}

/// The name of the `number`-th algorithm whose name after its number is
/// `suffix`: `Algorithm 2: ((A A^T) B) [syrk,symm]`.
pub(crate) fn algorithm_name(number: usize, suffix: &str) -> SharedStr {
    let mut name = String::with_capacity(32 + suffix.len());
    let _ = write!(name, "Algorithm {number}{suffix}");
    name.into()
}

/// What a template is derived from: the search of a tree whose sizes are
/// dimension codes, with every dimension-dependent condition deferred.
pub(crate) struct Derivation {
    /// The flattened factors (a [`Check::Tall`] names one of them).
    pub(crate) factors: Vec<Factor>,
    /// The conditions some instance may fail, in the order enumeration meets
    /// them.
    pub(crate) checks: Vec<Check>,
    /// Every completion in enumeration order — the algorithm without its
    /// name, and the name after `Algorithm {number}` — or the error of every
    /// instance that meets `checks`.
    pub(crate) outcome: Result<Vec<(Algorithm, String)>, GenerateError>,
}

/// The untruncated enumeration of `expr`, whose sizes are dimension codes;
/// `None` when it has more than `limit` completions.
pub(crate) fn derive(expr: &Expr, limit: usize) -> Option<Derivation> {
    let factors = expr.factors();
    let mut checks = Vec::new();
    let outcome = complete(
        expr,
        &factors,
        &mut Conditions::Defer(&mut checks),
        None,
        limit,
    )
    .transpose()?;
    Some(Derivation {
        factors,
        checks,
        outcome,
    })
}

/// A condition on the dimension sizes that enumeration meets before its
/// search; the first that fails is the instance's error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Check {
    /// A shape condition of the tree, or the squareness of an inverted leaf.
    Shape(ShapeCheck),
    /// Pseudo-inverted factor `factor`, whose shape as used is `shape`, is
    /// tall or square.
    Tall {
        shape: (usize, usize),
        factor: usize,
    },
}

impl Check {
    /// Whether the check holds at every instance when its sizes are
    /// dimension codes: both of its sides name the same code.
    fn holds_everywhere(self) -> bool {
        match self {
            Check::Shape(check) => check.verdict().is_ok(),
            Check::Tall { shape, .. } => shape.0 == shape.1,
        }
    }

    /// The check at the sizes `size` reads its own through; `factors` are
    /// the flattened factors it was met among.
    pub(crate) fn verdict(
        self,
        size: impl Fn(usize) -> usize,
        factors: &[Factor],
    ) -> Result<(), GenerateError> {
        match self {
            Check::Shape(check) => Ok(check.at(size).verdict()?),
            Check::Tall { shape, factor } if size(shape.0) < size(shape.1) => {
                Err(GenerateError::PseudoInverseWide {
                    name: factors[factor].var.name.clone(),
                })
            }
            Check::Tall { .. } => Ok(()),
        }
    }
}

/// What enumeration does with a [`Check`].
enum Conditions<'a> {
    /// Decide it at the sizes bound into the tree.
    Decide,
    /// The sizes are dimension codes: keep every check some instance may
    /// fail, for the instance to decide.
    Defer(&'a mut Vec<Check>),
}

impl Conditions<'_> {
    fn meet(&mut self, check: Check, factors: &[Factor]) -> Result<(), GenerateError> {
        match self {
            Conditions::Decide => check.verdict(|size| size, factors),
            Conditions::Defer(kept) => {
                if !check.holds_everywhere() {
                    kept.push(check);
                }
                Ok(())
            }
        }
    }
}

/// Put every condition of `expr`, whose flattened factors are `factors`, to
/// `conditions`, and reject the flag combinations no kernel realises.
fn validate(
    expr: &Expr,
    factors: &[Factor],
    conditions: &mut Conditions<'_>,
) -> Result<(), GenerateError> {
    expr.shape_checked(&mut |check| conditions.meet(Check::Shape(check), factors))?;
    if factors.is_empty() {
        return Err(GenerateError::Empty);
    }
    // Every inverse now has a realisation — TRSM for triangular leaves,
    // POTRF + two TRSMs for SPD leaves, GETRF + pivot + two TRSMs for
    // general square leaves — but a handful of flag combinations remain
    // unrealisable and are diagnosed up front.
    for (i, f) in factors.iter().enumerate() {
        if f.inv && f.pinv {
            // e.g. `(A^+)^-1`: the leaf's values are neither A nor A⁻¹.
            return Err(GenerateError::InversePseudoInverseMix {
                name: f.var.name.clone(),
            });
        }
        if f.inv {
            // Flattening `(A·B)⁻¹` can push an inverse onto a non-square
            // leaf even when the product itself is square.
            let shape = (f.var.rows, f.var.cols);
            conditions.meet(Check::Shape(ShapeCheck::Square { shape }), factors)?;
        }
        if f.pinv {
            // The QR realisation factors the operand as used (after
            // transposition), which must be tall or square.
            let shape = if f.trans {
                (f.var.cols, f.var.rows)
            } else {
                (f.var.rows, f.var.cols)
            };
            conditions.meet(Check::Tall { shape, factor: i }, factors)?;
        }
    }
    Ok(())
}

/// Validate `expr`, whose flattened factors are `factors`, under
/// `conditions`, and search it: the kept completions — each algorithm
/// without its name, and the name after its number — the `top_k` best in
/// rank order, else every one in enumeration order; `None` once more than
/// `limit` are reached.
fn complete(
    expr: &Expr,
    factors: &[Factor],
    conditions: &mut Conditions<'_>,
    top_k: Option<usize>,
    limit: usize,
) -> Result<Option<Vec<(Algorithm, String)>>, GenerateError> {
    validate(expr, factors, conditions)?;
    let inputs = distinct_inputs(factors)?;
    if factors.len() == 1 {
        return lone_factor(&factors[0], inputs).map(|lone| Some(vec![lone]));
    }
    let mut segments: Vec<Segment> = factors
        .iter()
        .enumerate()
        .map(|(pos, f)| {
            let leaf = inputs
                .iter()
                .position(|info| info.name == f.var.name)
                .expect("every factor's leaf is an input");
            // Transposition and pseudo-inversion each swap the logical
            // shape; applied together they cancel ((Aᵀ)⁺ is m×n again).
            let (rows, cols) = if f.trans != f.pinv {
                (f.var.cols, f.var.rows)
            } else {
                (f.var.rows, f.var.cols)
            };
            Segment {
                id: inputs[leaf].id,
                rows,
                cols,
                trans: if f.trans { Trans::Yes } else { Trans::No },
                leaf: Some(leaf),
                // SPD leaves are symmetric values stored in full, which
                // is what unlocks the SYMM variants for plain products.
                storage: if f.var.structure.is_spd() {
                    Storage::SymmetricFull
                } else {
                    Storage::General
                },
                tri: f.var.triangle(),
                spd: f.var.structure.is_spd(),
                inv: f.inv,
                pinv: f.pinv,
                start: pos,
                end: pos + 1,
                node: pos,
            }
        })
        .collect();

    // How often the most-repeated leaf appears. With repeated leaves the
    // same subcomputation can occur up to this many times in one
    // algorithm, so CSE can shrink an algorithm's *shared* cost by at
    // most this factor — the scaling that keeps branch-and-bound pruning
    // admissible below.
    let max_leaf_multiplicity = factors
        .iter()
        .map(|f| factors.iter().filter(|g| g.var.name == f.var.name).count())
        .max()
        .unwrap_or(1) as u64;

    let mut ctx = Ctx {
        top_k,
        limit,
        factors,
        inputs,
        max_leaf_multiplicity,
        branch: Branch::default(),
        numbering: ValueNumbering::default(),
        lb_memo: HashMap::new(),
        lb_cost: Vec::new(),
        completions: 0,
        survivors: Vec::new(),
    };
    recurse(&mut ctx, &mut segments, 0);
    if ctx.completions > limit {
        return Ok(None);
    }
    if ctx.survivors.is_empty() {
        // Every merge order hit a variant-free merge. Inverses realise
        // from either side now (left- and right-side TRSM/Cholesky/LU
        // lowerings), so the remaining dead ends are: a solve whose
        // rectangular partner is transposed or triangle-stored in every
        // order (`L^-1 * B^T`), two inverses meeting in one merge
        // (`L^-1 * M^-1`), a transposed general inverse (`A^-T` — GETRF
        // carries no transposition flag), or a pseudo-inverse on the
        // right of every split (`b * A^+` — ORMQR applies Q₁ᵀ from the
        // left only).
        return Err(GenerateError::NoRealisation {
            expression: expr.to_string(),
        });
    }
    let mut text = String::new();
    Ok(Some(
        ctx.survivors
            .iter()
            .map(|(_, branch)| {
                let alg = ctx.build(branch, &mut text);
                text.clear();
                ctx.write_suffix(branch, &mut text);
                (alg, text.as_str().into())
            })
            .collect(),
    ))
}

/// A product of one leaf: a call-free algorithm whose output is the operand
/// itself. A single *inverted* leaf cannot be represented (a solve needs a
/// right-hand side), and neither can a single *transposed* one (no kernel
/// performs a standalone transpose) — each is rejected with its own
/// diagnosis rather than silently returning the plain operand.
fn lone_factor(f: &Factor, inputs: Vec<OperandInfo>) -> Result<(Algorithm, String), GenerateError> {
    if f.inv {
        return Err(GenerateError::BareInverse {
            name: f.var.name.clone(),
        });
    }
    if f.pinv {
        return Err(GenerateError::BarePseudoInverse {
            name: f.var.name.clone(),
        });
    }
    if f.trans {
        return Err(GenerateError::BareTranspose {
            name: f.var.name.clone(),
        });
    }
    let mut operands = inputs;
    operands[0].role = OperandRole::Output;
    let alg = Algorithm {
        name: SharedStr::default(),
        operands,
        calls: Vec::new(),
    };
    Ok((alg, format!(": {}", f.var.name)))
}

/// Build the deduplicated input-operand table (one entry per distinct leaf
/// name, in order of first appearance). Reuse must be consistent in both
/// shape and declared triangular structure.
fn distinct_inputs(factors: &[Factor]) -> Result<Vec<OperandInfo>, GenerateError> {
    let mut inputs: Vec<OperandInfo> = Vec::new();
    for f in factors {
        let v = &f.var;
        if let Some(existing) = inputs.iter().find(|i| i.name == v.name) {
            if (existing.rows, existing.cols) != (v.rows, v.cols)
                || existing.structure != v.structure
            {
                return Err(GenerateError::InconsistentOperand {
                    name: v.name.clone(),
                });
            }
        } else {
            inputs.push(OperandInfo {
                id: OperandId(inputs.len()),
                rows: v.rows,
                cols: v.cols,
                role: OperandRole::Input,
                structure: v.structure,
                name: v.name.as_str().into(),
            });
        }
    }
    Ok(inputs)
}

/// One branch of the search: its calls, the intermediates they define, and
/// its merge tree (the `(left, right)` nodes of the merge at each depth).
#[derive(Debug, Clone, Default)]
struct Branch {
    steps: Vec<Step>,
    intermediates: Vec<Intermediate>,
    merges: Vec<(usize, usize)>,
}

/// A completion's rank: `(shared FLOPs, FLOPs, enumeration order)`.
type Rank = (u64, u64, usize);

/// The search state. The branch being explored is pushed before a recursion
/// and popped after it, so an edge of the search moves ids, dims and ops and
/// allocates nothing; names, texts and labels are rendered only for the
/// algorithms returned.
struct Ctx<'a> {
    /// Keep only the `k` cheapest completions (`None`: keep all).
    top_k: Option<usize>,
    /// Stop once more completions than this are reached.
    limit: usize,
    factors: &'a [Factor],
    inputs: Vec<OperandInfo>,
    /// Multiplicity of the most-repeated leaf (1 for all-distinct leaves).
    max_leaf_multiplicity: u64,
    branch: Branch,
    /// Reused to rank completions by their shared (CSE) FLOPs.
    numbering: ValueNumbering,
    /// Lower-bound memo keyed by the partition of the factors into
    /// segments (the set of segment starts), and the DP's scratch table.
    lb_memo: HashMap<u128, u64>,
    lb_cost: Vec<u64>,
    /// Completions reached so far: the enumeration order.
    completions: usize,
    /// Copies of the completed branches that will be returned: every one in
    /// enumeration order without `top_k`, else the best `k` by rank,
    /// ascending. A branch that drops out hands its buffers to the next one
    /// that enters.
    survivors: Vec<(Rank, Branch)>,
}

/// Rendering: what a returned algorithm is built from, once each.
impl Ctx<'_> {
    /// Completed `branch` as an algorithm without a name, with the last
    /// intermediate as the output `X`. Every string is rendered into `text`
    /// and copied out at its exact length.
    fn build(&self, branch: &Branch, text: &mut String) -> Algorithm {
        let n = self.inputs.len();
        let last = branch.intermediates.len() - 1;
        let mut operands = Vec::with_capacity(n + branch.intermediates.len());
        operands.extend_from_slice(&self.inputs);
        operands.extend(branch.intermediates.iter().enumerate().map(|(i, m)| {
            let output = i == last;
            OperandInfo {
                id: OperandId(n + i),
                rows: m.rows,
                cols: m.cols,
                role: if output {
                    OperandRole::Output
                } else {
                    OperandRole::Intermediate
                },
                name: if output {
                    "X".into()
                } else {
                    format!("M{}", i + 1).into()
                },
                structure: m.structure,
            }
        }));
        let calls = branch
            .steps
            .iter()
            .map(|step| {
                text.clear();
                self.write_name(text, step.output);
                text.push_str(" := ");
                for piece in step.rhs {
                    match piece {
                        Lit(lit) => text.push_str(lit),
                        Text(node) => self.write_text(branch, text, node),
                        Name(id) => self.write_name(text, id),
                    }
                }
                KernelCall {
                    op: step.op.clone(),
                    inputs: step.inputs().into(),
                    output: step.output,
                    label: text.as_str().into(),
                }
            })
            .collect();
        Algorithm {
            name: SharedStr::default(),
            operands,
            calls,
        }
    }

    /// What follows the number in the name of completed `branch`: its
    /// parenthesization and kernel composition (which disambiguates rewrite
    /// variants that share a parenthesization, e.g. syrk,symm vs gemm,gemm
    /// for (A A^T) B), as in `: ((A A^T) B) [syrk,symm]`.
    fn write_suffix(&self, branch: &Branch, out: &mut String) {
        out.push_str(": ");
        self.write_text(branch, out, self.factors.len() + branch.merges.len() - 1);
        out.push_str(" [");
        for (i, step) in branch.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(step.op.mnemonic());
        }
        out.push(']');
    }

    fn write_name(&self, out: &mut String, id: OperandId) {
        match self.inputs.get(id.index()) {
            Some(leaf) => out.push_str(&leaf.name),
            None => {
                let _ = write!(out, "M{}", id.index() - self.inputs.len() + 1);
            }
        }
    }

    /// The parenthesised text of merge-tree node `node` of `branch`: `A^T`
    /// for a leaf, `(left right)` for a merge.
    fn write_text(&self, branch: &Branch, out: &mut String, node: usize) {
        match self.factors.get(node) {
            Some(f) => {
                out.push_str(&f.var.name);
                for (on, suffix) in [(f.trans, "^T"), (f.inv, "^-1"), (f.pinv, "^+")] {
                    if on {
                        out.push_str(suffix);
                    }
                }
            }
            None => {
                let (left, right) = branch.merges[node - self.factors.len()];
                out.push('(');
                self.write_text(branch, out, left);
                out.push(' ');
                self.write_text(branch, out, right);
                out.push(')');
            }
        }
    }
}

fn recurse(ctx: &mut Ctx<'_>, segments: &mut Vec<Segment>, partial_flops: u64) {
    if ctx.completions > ctx.limit {
        return;
    }
    if segments.len() == 1 {
        ctx.complete(partial_flops);
        return;
    }
    if let Some(bar) = ctx.entry_bar() {
        // With repeated leaves, CSE can shrink a completion's shared cost to
        // as little as 1/m of its raw total (m = multiplicity of the
        // most-repeated leaf), so the raw lower bound must be scaled down by
        // m to stay admissible against the shared-cost ranking. For m == 1
        // this is exactly the classic FLOP bound.
        let bound =
            partial_flops.saturating_add(lower_bound(&mut ctx.lb_memo, &mut ctx.lb_cost, segments))
                / ctx.max_leaf_multiplicity;
        if bound >= bar {
            return;
        }
    }
    let node = ctx.factors.len() + ctx.branch.merges.len();
    for i in 0..segments.len() - 1 {
        let (left, right) = (segments[i], segments[i + 1]);
        let variants = variants(
            &left.merge_operand(),
            &right.merge_operand(),
            segments.len() == 2,
        );
        for &kind in variants.iter() {
            let steps_before = ctx.branch.steps.len();
            let inters_before = ctx.branch.intermediates.len();
            let merged = build_merge(
                &mut ctx.emitter(),
                &left,
                &right,
                kind,
                variants.len() > 1,
                node,
            );
            let added_flops = saturating_sum(
                ctx.branch.steps[steps_before..]
                    .iter()
                    .map(|s| s.op.flops()),
            );
            // The merged segment stands in for the pair during the recursion;
            // the pair, the branch's calls, intermediates and merge are
            // restored after it.
            ctx.branch.merges.push((left.node, right.node));
            segments[i] = merged;
            segments.remove(i + 1);
            recurse(ctx, segments, partial_flops.saturating_add(added_flops));
            segments.insert(i + 1, right);
            segments[i] = left;
            ctx.branch.merges.pop();
            ctx.branch.steps.truncate(steps_before);
            ctx.branch.intermediates.truncate(inters_before);
        }
    }
}

/// The search-time half of the state: everything below `recurse` moves
/// ids, dims and ops only.
impl Ctx<'_> {
    fn emitter(&mut self) -> Emitter<'_> {
        Emitter {
            inputs: self.inputs.len(),
            steps: &mut self.branch.steps,
            intermediates: &mut self.branch.intermediates,
        }
    }

    /// The shared FLOPs a completion must stay under to enter a full top-k
    /// set (`None` while the set has room or without `top_k`).
    fn entry_bar(&self) -> Option<u64> {
        let k = self.top_k?.max(1);
        (self.survivors.len() >= k).then(|| self.survivors[k - 1].0 .0)
    }

    /// The branch is a complete algorithm costing `flops`: keep a copy if
    /// it survives.
    fn complete(&mut self, flops: u64) {
        let order = self.completions;
        self.completions += 1;
        if self.completions > self.limit {
            return;
        }
        let (at, rank) = match self.top_k {
            // Without `top_k` every completion is kept in order; its rank is
            // never compared.
            None => (self.survivors.len(), (flops, flops, order)),
            Some(k) => {
                // Ranked by what the algorithm costs under sharing — its
                // CSE-deduplicated FLOP total — with the raw total and then
                // enumeration order as tie-breaks, so the survivors are the
                // stable sort of every completion, truncated.
                let rank = (self.shared_flops(flops), flops, order);
                let at = self.survivors.partition_point(|(kept, _)| *kept < rank);
                if at >= k.max(1) {
                    return;
                }
                (at, rank)
            }
        };
        let full = self.entry_bar().is_some();
        let mut branch = if full {
            self.survivors.pop().expect("a full set is not empty").1
        } else {
            Branch::default()
        };
        branch.steps.clone_from(&self.branch.steps);
        branch.intermediates.clone_from(&self.branch.intermediates);
        branch.merges.clone_from(&self.branch.merges);
        self.survivors.insert(at, (rank, branch));
    }

    /// The shared FLOPs of the branch, whose raw total is `flops`. For
    /// all-distinct leaves nothing is shared and no numbering runs.
    fn shared_flops(&mut self, flops: u64) -> u64 {
        if self.max_leaf_multiplicity == 1 {
            debug_assert_eq!(self.eliminated_flops(), 0, "distinct leaves share nothing");
            return flops;
        }
        flops.saturating_sub(self.eliminated_flops())
    }

    fn eliminated_flops(&mut self) -> u64 {
        let output = OperandId(self.inputs.len() + self.branch.intermediates.len() - 1);
        self.numbering.run(&self.branch.steps, |id| id == output);
        self.numbering.eliminated_flops
    }
}

/// Pushes the kernel calls of one merge variant, and the intermediates those
/// calls define, onto the branch, numbering the intermediates from the next
/// free operand id.
struct Emitter<'a> {
    /// Number of input operands: the first intermediate's id.
    inputs: usize,
    steps: &'a mut Vec<Step>,
    intermediates: &'a mut Vec<Intermediate>,
}

impl Emitter<'_> {
    /// Emit `M := rhs` as a call of `op` on `inputs` into a fresh
    /// intermediate `M`, whose shape and structure are the op's own, and
    /// return its id.
    fn emit(&mut self, op: KernelOp, inputs: &[OperandId], rhs: Rhs) -> OperandId {
        let id = OperandId(self.inputs + self.intermediates.len());
        let (rows, cols) = op.output_shape();
        self.intermediates.push(Intermediate {
            rows,
            cols,
            structure: op.output_structure(),
        });
        self.push(op, inputs, id, rhs);
        id
    }

    /// Emit the in-place triangle-to-full copy of the order-`n` operand `id`.
    fn emit_copy(&mut self, id: OperandId, n: usize) {
        let op = KernelOp::CopyTriangle {
            uplo: Uplo::Lower,
            n,
        };
        let label = rhs([Lit("full("), Name(id), Lit(") (copy triangle)")]);
        self.push(op, &[id], id, label);
    }

    fn push(&mut self, op: KernelOp, inputs: &[OperandId], output: OperandId, rhs: Rhs) {
        let mut ids = [OperandId(0); 2];
        ids[..inputs.len()].copy_from_slice(inputs);
        self.steps.push(Step {
            op,
            inputs: ids,
            arity: inputs.len(),
            output,
            rhs,
        });
    }
}

/// Emit the kernel calls of one merge variant and return the merged segment
/// (merge-tree node `node`). Most variants introduce exactly one
/// intermediate (the merge result); the Cholesky realisation of an SPD
/// inverse introduces three, the QR realisation of a pseudo-inverse four,
/// and the pivoted LU realisation of a general inverse six. The *last*
/// intermediate emitted is always the merge result — the output of the
/// algorithm when the merge is the final one.
fn build_merge(
    e: &mut Emitter<'_>,
    left: &Segment,
    right: &Segment,
    kind: MergeKind,
    ambiguous: bool,
    node: usize,
) -> Segment {
    debug_assert_eq!(left.cols, right.rows, "validated by Expr::shape");
    match kind {
        MergeKind::CholeskySolve => build_cholesky_solve(e, left, right),
        MergeKind::CholeskySolveRight => build_cholesky_solve_right(e, left, right),
        MergeKind::LuSolve => build_lu_solve(e, left, right),
        MergeKind::LuSolveRight => build_lu_solve_right(e, left, right),
        MergeKind::QrSolve => build_qr_solve(e, left, right),
        _ => build_product(e, left, right, kind, ambiguous),
    }
    let id = OperandId(e.inputs + e.intermediates.len() - 1);
    let result = e
        .intermediates
        .last_mut()
        .expect("every merge variant defines its result last");
    // Triangularity is closed under same-triangle products and solves: the
    // intermediate then carries the structure forward (e.g. chained TRMMs in
    // `L1[lower]*L2[lower]*B`).
    if kind.preserves_triangle() {
        if let (Some(a), Some(b)) = (left.effective_tri(), right.effective_tri()) {
            if a == b {
                result.structure = Structure::Triangular(a);
            }
        }
    }
    Segment {
        id,
        rows: result.rows,
        cols: result.cols,
        trans: Trans::No,
        leaf: None,
        storage: kind.result_storage(),
        tri: result.structure.triangle(),
        spd: false,
        inv: false,
        pinv: false,
        start: left.start,
        end: right.end,
        node,
    }
}

/// Emit the single-kernel product variants (GEMM, SYRK, SYMM, TRMM, TRSM,
/// with their triangle copies) of `left·right`.
fn build_product(
    e: &mut Emitter<'_>,
    left: &Segment,
    right: &Segment,
    kind: MergeKind,
    ambiguous: bool,
) {
    let uplo = Uplo::Lower;
    let (m, k, n) = (left.rows, left.cols, right.cols);
    // `left*right`, tagged with the kernel when the merge has variants.
    let product = |kernel: &'static str| {
        let tag = if ambiguous { kernel } else { "" };
        rhs([Text(left.node), Lit("*"), Text(right.node), Lit(tag)])
    };
    let gemm = |e: &mut Emitter, transa: Trans, transb: Trans| {
        let op = KernelOp::Gemm {
            transa,
            transb,
            m,
            n,
            k,
        };
        e.emit(op, &[left.id, right.id], product(" (gemm)"));
    };
    // The structured operand leads the input list for both sides, matching
    // the kernel argument order (triangle or symmetric operand, then the
    // rectangular one).
    let sided = |side: Side| match side {
        Side::Left => (left, right),
        Side::Right => (right, left),
    };
    let symm = |e: &mut Emitter, side: Side| {
        let (sym, rect) = sided(side);
        let op = KernelOp::Symm { side, uplo, m, n };
        e.emit(op, &[sym.id, rect.id], product(" (symm)"));
    };
    let syrk = |e: &mut Emitter| {
        let op = KernelOp::Syrk {
            uplo,
            trans: left.trans,
            n: m,
            k,
        };
        e.emit(op, &[left.id], product(" (syrk)"))
    };
    let triangular = |e: &mut Emitter, side: Side, solve: bool| {
        let (tri, rect) = sided(side);
        let uplo = tri.tri.expect("TRMM/TRSM require a triangular operand");
        let trans = tri.trans;
        let (op, kernel) = if solve {
            (trsm_op(side, uplo, trans, m, n), " (trsm)")
        } else {
            let trmm = KernelOp::Trmm {
                side,
                uplo,
                trans,
                m,
                n,
            };
            (trmm, " (trmm)")
        };
        e.emit(op, &[tri.id, rect.id], product(kernel));
    };
    let copy = |e: &mut Emitter, seg: &Segment| e.emit_copy(seg.id, seg.rows);
    match kind {
        MergeKind::Gemm | MergeKind::GemmSymmetric => gemm(e, left.trans, right.trans),
        MergeKind::SyrkTriangle => {
            syrk(e);
        }
        MergeKind::SyrkThenCopy => {
            let out = syrk(e);
            e.emit_copy(out, m);
        }
        MergeKind::SymmLeft => symm(e, Side::Left),
        MergeKind::SymmRight => symm(e, Side::Right),
        MergeKind::CopyLeftThenGemm => {
            copy(e, left);
            gemm(e, Trans::No, right.trans);
        }
        MergeKind::CopyRightThenGemm => {
            copy(e, right);
            gemm(e, left.trans, Trans::No);
        }
        MergeKind::CopyBothThenGemm => {
            copy(e, left);
            copy(e, right);
            gemm(e, Trans::No, Trans::No);
        }
        MergeKind::CopyRightThenSymmLeft => {
            copy(e, right);
            symm(e, Side::Left);
        }
        MergeKind::CopyLeftThenSymmRight => {
            copy(e, left);
            symm(e, Side::Right);
        }
        MergeKind::Trmm => triangular(e, Side::Left, false),
        MergeKind::TrmmRight => triangular(e, Side::Right, false),
        MergeKind::Trsm => triangular(e, Side::Left, true),
        MergeKind::TrsmRight => triangular(e, Side::Right, true),
        MergeKind::CholeskySolve
        | MergeKind::CholeskySolveRight
        | MergeKind::LuSolve
        | MergeKind::LuSolveRight
        | MergeKind::QrSolve => unreachable!("realised by the solve pipelines"),
    }
}

/// The TRSM with an `m×n` result — what every solve realisation ends in.
fn trsm_op(side: Side, uplo: Uplo, trans: Trans, m: usize, n: usize) -> KernelOp {
    KernelOp::Trsm {
        side,
        uplo,
        trans,
        m,
        n,
    }
}

/// Emit the three-call Cholesky realisation of an SPD inverse merge
/// `S⁻¹·B`: `L := POTRF(S)`, `Y := L⁻¹·B`, `X := L⁻ᵀ·Y`. Introduces three
/// intermediates (the explicitly triangular factor, the half-solved
/// right-hand side, and the result — in that order, result last).
fn build_cholesky_solve(e: &mut Emitter<'_>, left: &Segment, right: &Segment) {
    let (m, n) = (left.rows, right.cols);
    debug_assert_eq!(left.rows, left.cols, "SPD operands are square");
    let (side, uplo) = (Side::Left, Uplo::Lower);
    let potrf = KernelOp::Potrf { uplo, n: m };
    let l = e.emit(
        potrf,
        &[left.id],
        rhs([Lit("chol("), Name(left.id), Lit(") (potrf)")]),
    );
    let y = e.emit(
        trsm_op(side, uplo, Trans::No, m, n),
        &[l, right.id],
        rhs([Name(l), Lit("^-1*"), Text(right.node), Lit(" (trsm)")]),
    );
    e.emit(
        trsm_op(side, uplo, Trans::Yes, m, n),
        &[l, y],
        rhs([Name(l), Lit("^-T*"), Name(y), Lit(" (trsm)")]),
    );
}

/// Emit the six-call pivoted LU realisation of a general inverse merge
/// `A⁻¹·B`: `F := GETRF(A)` (the packed `L\U` factor with the pivot column),
/// `L := tril(F)` and `U := triu(F)` (zero-FLOP triangle extractions),
/// `Bₚ := P·B` (the pivot application), `Y := L⁻¹·Bₚ`, `X := U⁻¹·Y`.
/// Introduces six intermediates, result last.
fn build_lu_solve(e: &mut Emitter<'_>, left: &Segment, right: &Segment) {
    let (m, n) = (left.rows, right.cols);
    debug_assert_eq!(left.rows, left.cols, "general inverses are square");
    let side = Side::Left;
    let (f, l, u) = emit_lu_factors(e, left, m);
    let pivot = KernelOp::PivotApply { side, m, n };
    let bp = e.emit(
        pivot,
        &[f, right.id],
        rhs([Lit("P*"), Text(right.node), Lit(" (laswp)")]),
    );
    let y = e.emit(
        trsm_op(side, Uplo::Lower, Trans::No, m, n),
        &[l, bp],
        rhs([Name(l), Lit("^-1*"), Name(bp), Lit(" (trsm)")]),
    );
    e.emit(
        trsm_op(side, Uplo::Upper, Trans::No, m, n),
        &[u, y],
        rhs([Name(u), Lit("^-1*"), Name(y), Lit(" (trsm)")]),
    );
}

/// Emit `F := GETRF(A)`, `L := tril(F)`, `U := triu(F)` for the order-`n`
/// general operand `a` — the head both LU realisations share — and return the
/// three intermediates' ids.
fn emit_lu_factors(
    e: &mut Emitter<'_>,
    a: &Segment,
    n: usize,
) -> (OperandId, OperandId, OperandId) {
    let f = e.emit(
        KernelOp::Getrf { n },
        &[a.id],
        rhs([Lit("lu("), Name(a.id), Lit(") (getrf)")]),
    );
    let lower = KernelOp::FactorTri {
        uplo: Uplo::Lower,
        n,
    };
    let l = e.emit(
        lower,
        &[f],
        rhs([Lit("tril("), Name(f), Lit(") (factortri)")]),
    );
    let upper = KernelOp::FactorTri {
        uplo: Uplo::Upper,
        n,
    };
    let u = e.emit(
        upper,
        &[f],
        rhs([Lit("triu("), Name(f), Lit(") (factortri)")]),
    );
    (f, l, u)
}

/// Emit the three-call Cholesky realisation of a *right-side* SPD inverse
/// merge `B·S⁻¹`: `L := POTRF(S)`, `Y := B·L⁻ᵀ`, `X := Y·L⁻¹` (from
/// `S⁻¹ = L⁻ᵀ·L⁻¹`) — both solves right-side TRSMs, never a transpose
/// round-trip. Introduces three intermediates, result last.
fn build_cholesky_solve_right(e: &mut Emitter<'_>, left: &Segment, right: &Segment) {
    let (m, n) = (left.rows, right.cols);
    debug_assert_eq!(right.rows, right.cols, "SPD operands are square");
    let (side, uplo) = (Side::Right, Uplo::Lower);
    let potrf = KernelOp::Potrf { uplo, n };
    let l = e.emit(
        potrf,
        &[right.id],
        rhs([Lit("chol("), Name(right.id), Lit(") (potrf)")]),
    );
    let y = e.emit(
        trsm_op(side, uplo, Trans::Yes, m, n),
        &[l, left.id],
        rhs([Text(left.node), Lit("*"), Name(l), Lit("^-T (trsm)")]),
    );
    e.emit(
        trsm_op(side, uplo, Trans::No, m, n),
        &[l, y],
        rhs([Name(y), Lit("*"), Name(l), Lit("^-1 (trsm)")]),
    );
}

/// Emit the six-call pivoted LU realisation of a *right-side* general
/// inverse merge `B·A⁻¹`: from `P·A = L·U` follows
/// `A⁻¹ = U⁻¹·L⁻¹·P`, so `F := GETRF(A)`, `L := tril(F)`, `U := triu(F)`,
/// `Y := B·U⁻¹`, `Z := Y·L⁻¹` (both right-side TRSMs), and last
/// `X := Z·P` — the pivot application as *column* swaps. Introduces six
/// intermediates, result last.
fn build_lu_solve_right(e: &mut Emitter<'_>, left: &Segment, right: &Segment) {
    let (m, n) = (left.rows, right.cols);
    debug_assert_eq!(right.rows, right.cols, "general inverses are square");
    let side = Side::Right;
    let (f, l, u) = emit_lu_factors(e, right, n);
    let y = e.emit(
        trsm_op(side, Uplo::Upper, Trans::No, m, n),
        &[u, left.id],
        rhs([Text(left.node), Lit("*"), Name(u), Lit("^-1 (trsm)")]),
    );
    let z = e.emit(
        trsm_op(side, Uplo::Lower, Trans::No, m, n),
        &[l, y],
        rhs([Name(y), Lit("*"), Name(l), Lit("^-1 (trsm)")]),
    );
    e.emit(
        KernelOp::PivotApply { side, m, n },
        &[f, z],
        rhs([Name(z), Lit("*P (laswp)")]),
    );
}

/// Emit the four-call QR realisation of a pseudo-inverse merge `A⁺·B` (the
/// least-squares solve `argmin‖A·X − B‖₂` for a tall `A`): `F := QR(A)` (the
/// packed Householder factor with the tau column), `R := triu(F)` (zero-FLOP
/// triangle extraction), `C := Q₁ᵀ·B` (ORMQR), `X := R⁻¹·C`. Introduces four
/// intermediates, result last.
fn build_qr_solve(e: &mut Emitter<'_>, left: &Segment, right: &Segment) {
    // The pinv-marked segment's logical shape is A⁺'s (cols × rows of the
    // stored operand): the factored matrix A itself is `mm × nn`.
    let (nn, mm, k) = (left.rows, left.cols, right.cols);
    let qr = KernelOp::Qr { m: mm, n: nn };
    let f = e.emit(
        qr,
        &[left.id],
        rhs([Lit("qr("), Name(left.id), Lit(") (qr)")]),
    );
    let upper = KernelOp::FactorTri {
        uplo: Uplo::Upper,
        n: nn,
    };
    let r = e.emit(
        upper,
        &[f],
        rhs([Lit("triu("), Name(f), Lit(") (factortri)")]),
    );
    let ormqr = KernelOp::Ormqr { m: mm, n: nn, k };
    let c = e.emit(
        ormqr,
        &[f, right.id],
        rhs([Lit("Q^T*"), Text(right.node), Lit(" (ormqr)")]),
    );
    e.emit(
        trsm_op(Side::Left, Uplo::Upper, Trans::No, nn, k),
        &[r, c],
        rhs([Name(r), Lit("^-1*"), Name(c), Lit(" (trsm)")]),
    );
}

/// A memoized lower bound on the FLOPs still needed to merge `segments` into
/// one result: the classic parenthesization DP over the current segment
/// list, costing each product `2·m·n·k` except
///
/// * adjacent Gram leaf pairs, which may use the cheaper SYRK count
///   `(n+1)·n·k`, and
/// * merges whose left span starts — or whose right span ends — with a
///   triangular or inverse-marked segment, which may reach the sided
///   TRMM/TRSM count `m·n·k` (half of GEMM).
///
/// The triangular discount is applied whenever the *leftmost* segment of the
/// left span is structured — a necessary condition for the merged left side
/// to be structured — or, symmetrically, whenever the *rightmost* segment of
/// the right span is structured (necessary for the merged right side to
/// drive a right-side TRMM/TRSM), so the bound never overestimates; triangle
/// copies cost 0 FLOPs and SYMM ties GEMM, so no completion can beat this
/// bound. The Cholesky realisation of an SPD inverse costs
/// `m³/3 + 2·m²·n ≥ m·n·k` (SPD operands are square, `k = m`), so the same
/// `m·n·k` discount remains a valid lower bound for inverse-marked SPD
/// segments on either side. The LU realisation of a general inverse costs
/// `2·m³/3 + 2·m²·n ≥ m·n·k` and the QR realisation of a pseudo-inverse
/// costs at least `2·nn·mm·k ≥ nn·mm·k` (ORMQR alone), so the discount stays
/// admissible for those too.
///
/// The search's segments always cover the factors `0..p` in order, so the
/// set of segment starts names the state; it keys the memo as a bit set
/// (products of more than 128 factors are not memoized). `cost` is the DP's
/// table, reused across calls.
fn lower_bound(memo: &mut HashMap<u128, u64>, cost: &mut Vec<u64>, segments: &[Segment]) -> u64 {
    let t = segments.len();
    if t <= 1 {
        return 0;
    }
    let key = segments
        .iter()
        .try_fold(0u128, |key, s| (s.start < 128).then(|| key | 1 << s.start));
    if let Some(&cached) = key.and_then(|key| memo.get(&key)) {
        return cached;
    }
    // `d[i]` of the chain DP: the row count of segment `i`, or the column
    // count of segment `i - 1`.
    let d = |i: usize| {
        if i == 0 {
            segments[0].rows as u64
        } else {
            segments[i - 1].cols as u64
        }
    };
    let structured = |i: usize| {
        let s = &segments[i];
        s.tri.is_some() || s.inv || s.pinv
    };
    let gram = |i: usize| {
        crate::rewrite::is_gram_pair(
            &segments[i].merge_operand(),
            &segments[i + 1].merge_operand(),
        )
    };
    cost.clear();
    cost.resize(t * t, 0);
    for len in 2..=t {
        for i in 0..=t - len {
            let j = i + len - 1;
            let mut best = u64::MAX;
            for s in i..j {
                // The sided structured discount: a structured merged left
                // side needs structured[i], a structured merged right side
                // needs structured[j] — either way the cost can halve, and
                // both discounts share the `d[i]·d[s+1]·d[j+1]` form
                // (triangular operands are square, so order²·other equals
                // the dimension product on whichever side the triangle is).
                let merge = if structured(i) || structured(j) {
                    product(&[d(i), d(s + 1), d(j + 1)])
                } else if len == 2 && gram(i) {
                    product(&[d(i).saturating_add(1), d(i), d(i + 1)])
                } else {
                    product(&[2, d(i), d(s + 1), d(j + 1)])
                };
                let split =
                    saturating_sum([cost[i * t + s], cost[(s + 1) * t + j], merge].into_iter());
                best = best.min(split);
            }
            cost[i * t + j] = best;
        }
    }
    let bound = cost[t - 1];
    if let Some(key) = key {
        memo.insert(key, bound);
    }
    bound
}

/// The product of `factors`, saturating at `u64::MAX` like the FLOP counts.
fn product(factors: &[u64]) -> u64 {
    factors.iter().fold(1, |acc, &f| acc.saturating_mul(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_expr(dims: &[usize]) -> Expr {
        let factors: Vec<Expr> = (0..dims.len() - 1)
            .map(|i| {
                Expr::var(
                    &char::from(b'A' + u8::try_from(i).unwrap()).to_string(),
                    dims[i],
                    dims[i + 1],
                )
            })
            .collect();
        Expr::product(factors)
    }

    #[test]
    fn transposed_factors_are_enumerated_with_all_orders() {
        // X := A^T * B * A has two multiplication orders, both plain GEMM.
        let a = Expr::var("A", 10, 6);
        let b = Expr::var("B", 10, 10);
        let algs = enumerate_expr_algorithms(&a.clone().t().mul(b).mul(a), None).unwrap();
        assert_eq!(algs.len(), 2);
        for alg in &algs {
            assert!(alg.is_well_formed());
            assert_eq!(alg.kernel_summary(), "gemm,gemm");
            let out = alg.output().unwrap();
            assert_eq!((out.rows, out.cols), (6, 6));
        }
        // The two orders contract the dimensions differently. Left to right:
        // A^T (6x10) * B (10x10), then M1 (6x10) * A (10x6).
        assert_ne!(algs[0].calls[0].op, algs[1].calls[0].op);
        assert_eq!(algs[0].flops(), 2 * 6 * 10 * 10 + 2 * 6 * 6 * 10);
    }

    #[test]
    fn final_gram_product_is_completed_to_full_storage() {
        let a = Expr::var("A", 6, 9);
        let algs = enumerate_expr_algorithms(&a.clone().mul(a.t()), None).unwrap();
        assert_eq!(algs.len(), 2);
        assert_eq!(algs[0].kernel_summary(), "syrk,copy");
        assert_eq!(algs[1].kernel_summary(), "gemm");
        assert!(algs.iter().all(Algorithm::is_well_formed));
    }

    #[test]
    fn double_gram_expression_mixes_symm_and_copies() {
        // X := A*A^T*B*B^T with A 8x5 and B 8x6.
        let a = Expr::var("A", 8, 5);
        let b = Expr::var("B", 8, 6);
        let expr = a.clone().mul(a.t()).mul(b.clone()).mul(b.t());
        let algs = enumerate_expr_algorithms(&expr, None).unwrap();
        assert!(algs.len() > 5, "got {}", algs.len());
        assert!(algs.iter().all(Algorithm::is_well_formed));
        assert!(algs.iter().any(|a| a.kernel_summary().contains("syrk")));
        assert!(algs.iter().any(|a| a.kernel_summary().contains("symm")));
        for alg in &algs {
            let out = alg.output().unwrap();
            assert_eq!((out.rows, out.cols), (8, 8));
        }
    }

    #[test]
    fn top_k_pruning_returns_the_cheapest_algorithms_sorted() {
        let dims = [40, 20, 30, 10, 30, 25];
        let expr = chain_expr(&dims);
        let full = enumerate_expr_algorithms(&expr, None).unwrap();
        assert_eq!(full.len(), 24);
        let mut cheapest: Vec<u64> = full.iter().map(Algorithm::flops).collect();
        cheapest.sort_unstable();
        for k in [1, 3, 24, 100] {
            let pruned = enumerate_expr_algorithms(&expr, Some(k)).unwrap();
            assert_eq!(pruned.len(), k.min(24));
            let got: Vec<u64> = pruned.iter().map(Algorithm::flops).collect();
            assert_eq!(got, cheapest[..k.min(24)].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn top_k_pruning_agrees_with_full_enumeration_on_gram_expressions() {
        let a = Expr::var("A", 30, 7);
        let b = Expr::var("B", 30, 11);
        let expr = a.clone().mul(a.t()).mul(b);
        let full = enumerate_expr_algorithms(&expr, None).unwrap();
        let mut flops: Vec<u64> = full.iter().map(Algorithm::flops).collect();
        flops.sort_unstable();
        let pruned = enumerate_expr_algorithms(&expr, Some(2)).unwrap();
        let got: Vec<u64> = pruned.iter().map(Algorithm::flops).collect();
        assert_eq!(got, flops[..2].to_vec());
    }

    #[test]
    fn top_k_pruning_stays_admissible_under_sharing_with_repeated_leaves() {
        // (A A^T)(A A^T) B: some orderings compute the Gram product twice,
        // and CSE collapses the repeat — so ranking and pruning must use the
        // *shared* FLOP count, and the bound must not prune a completion
        // whose shared cost beats the raw-FLOP frontrunners.
        let a = Expr::var("A", 12, 5);
        let b = Expr::var("B", 12, 9);
        let expr = a
            .clone()
            .mul(a.clone().t())
            .mul(a.clone())
            .mul(a.t())
            .mul(b);
        let full = enumerate_expr_algorithms(&expr, None).unwrap();
        assert!(
            full.iter().any(|alg| alg.shared_flops() < alg.flops()),
            "at least one ordering repeats a subcomputation"
        );
        let mut keys: Vec<(u64, u64)> = full
            .iter()
            .map(|alg| (alg.shared_flops(), alg.flops()))
            .collect();
        keys.sort_unstable();
        for k in [1, 2, 4, 8] {
            let pruned = enumerate_expr_algorithms(&expr, Some(k)).unwrap();
            let got: Vec<(u64, u64)> = pruned
                .iter()
                .map(|alg| (alg.shared_flops(), alg.flops()))
                .collect();
            assert_eq!(got, keys[..k.min(keys.len())].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn single_leaf_expressions_lower_to_a_call_free_algorithm() {
        let algs = enumerate_expr_algorithms(&Expr::var("A", 3, 4), None).unwrap();
        assert_eq!(algs.len(), 1);
        assert!(algs[0].calls.is_empty());
        assert_eq!(algs[0].flops(), 0);
        assert_eq!(algs[0].output().unwrap().name, "A");
    }

    #[test]
    fn a_lone_transposed_leaf_is_rejected() {
        // No kernel performs a standalone transpose; returning the stored
        // operand would silently compute A instead of A^T.
        let err = enumerate_expr_algorithms(&Expr::var("A", 3, 4).t(), None).unwrap_err();
        assert_eq!(err, GenerateError::BareTranspose { name: "A".into() });
        assert!(err.to_string().contains("transpose"));
        // A cancelled double transpose is fine.
        let algs = enumerate_expr_algorithms(&Expr::var("A", 3, 4).t().t(), None).unwrap();
        assert_eq!(algs.len(), 1);
    }

    #[test]
    fn inconsistent_operand_reuse_is_an_error() {
        // "A" used with two different shapes (but shape-consistent as a
        // product: 2x3 times 3x4).
        let expr = Expr::var("A", 2, 3).mul(Expr::var("A", 3, 4));
        let err = enumerate_expr_algorithms(&expr, None).unwrap_err();
        assert_eq!(err, GenerateError::InconsistentOperand { name: "A".into() });
        assert!(err.to_string().contains("`A`"));
        assert!(GenerateError::Empty.to_string().contains("no factors"));
    }

    #[test]
    fn shape_errors_propagate() {
        let expr = Expr::var("A", 2, 3).mul(Expr::var("B", 4, 5));
        assert!(matches!(
            enumerate_expr_algorithms(&expr, None),
            Err(GenerateError::Shape(_))
        ));
    }

    #[test]
    fn repeated_same_orientation_operand_is_a_plain_product() {
        let a = Expr::var("A", 8, 8);
        let algs = enumerate_expr_algorithms(&a.clone().mul(a), None).unwrap();
        assert_eq!(algs.len(), 1, "A*A is not a Gram product");
        assert_eq!(algs[0].kernel_summary(), "gemm");
        assert_eq!(algs[0].flops(), 2 * 8 * 8 * 8);
        // The single input operand is referenced twice by the call.
        assert_eq!(*algs[0].calls[0].inputs, [OperandId(0), OperandId(0)]);
        assert_eq!(algs[0].inputs().count(), 1);
    }

    #[test]
    fn triangular_left_operand_enumerates_trmm_and_gemm() {
        let l = Expr::tri_var("L", 10, Uplo::Lower);
        let b = Expr::var("B", 10, 7);
        let algs = enumerate_expr_algorithms(&l.mul(b), None).unwrap();
        assert_eq!(algs.len(), 2);
        assert_eq!(algs[0].kernel_summary(), "trmm");
        assert_eq!(algs[1].kernel_summary(), "gemm");
        assert!(algs.iter().all(Algorithm::is_well_formed));
        // TRMM performs exactly half the FLOPs of the GEMM variant.
        assert_eq!(algs[0].flops() * 2, algs[1].flops());
        // The triangular input is declared in the operand table.
        let l_info = algs[0].inputs().find(|o| o.name == "L").unwrap();
        assert_eq!(l_info.triangle(), Some(Uplo::Lower));
    }

    #[test]
    fn transposed_triangular_operand_keeps_its_stored_uplo_in_the_call() {
        let l = Expr::tri_var("L", 8, Uplo::Lower);
        let b = Expr::var("B", 8, 5);
        let algs = enumerate_expr_algorithms(&l.t().mul(b), None).unwrap();
        let trmm = algs
            .iter()
            .find(|a| a.kernel_summary() == "trmm")
            .expect("TRMM variant exists for L^T*B");
        match trmm.calls[0].op {
            KernelOp::Trmm {
                side,
                uplo,
                trans,
                m,
                n,
            } => {
                assert_eq!(side, Side::Left);
                assert_eq!(uplo, Uplo::Lower, "the call records the stored triangle");
                assert_eq!(trans, Trans::Yes);
                assert_eq!((m, n), (8, 5));
            }
            ref other => panic!("expected TRMM, got {other}"),
        }
    }

    #[test]
    fn triangular_chain_mixes_trmm_into_every_order() {
        // L*A*B: two merge orders, each with a TRMM and a GEMM realisation of
        // the structured product.
        let l = Expr::tri_var("L", 12, Uplo::Lower);
        let a = Expr::var("A", 12, 9);
        let b = Expr::var("B", 9, 6);
        let algs = enumerate_expr_algorithms(&l.mul(a).mul(b), None).unwrap();
        assert_eq!(algs.len(), 4);
        let summaries: Vec<String> = algs.iter().map(Algorithm::kernel_summary).collect();
        assert!(summaries.iter().any(|s| s == "trmm,gemm"));
        assert!(summaries.iter().any(|s| s == "gemm,trmm"));
        assert!(summaries.iter().any(|s| s == "gemm,gemm"));
        assert!(algs.iter().all(Algorithm::is_well_formed));
    }

    #[test]
    fn same_triangle_products_propagate_structure() {
        // L1*L2*B with both lower triangular: the intermediate L1·L2 is
        // itself lower triangular, so the final merge still offers TRMM —
        // including the all-TRMM algorithm.
        let l1 = Expr::tri_var("L1", 10, Uplo::Lower);
        let l2 = Expr::tri_var("L2", 10, Uplo::Lower);
        let b = Expr::var("B", 10, 4);
        let algs = enumerate_expr_algorithms(&l1.mul(l2).mul(b), None).unwrap();
        let summaries: Vec<String> = algs.iter().map(Algorithm::kernel_summary).collect();
        assert!(
            summaries.iter().any(|s| s == "trmm,trmm"),
            "expected an all-TRMM algorithm, got {summaries:?}"
        );
        // The propagated TRMM reads the *intermediate* as its triangular
        // operand: its first call is the square 10x10 product.
        let propagated = algs
            .iter()
            .find(|a| a.kernel_summary() == "trmm,trmm")
            .unwrap();
        assert!(matches!(
            propagated.calls[0].op,
            KernelOp::Trmm { m: 10, n: 10, .. }
        ));
        let m1 = propagated.operand(propagated.calls[1].inputs[0]).unwrap();
        assert_eq!(m1.name, "M1");
        assert_eq!(m1.triangle(), Some(Uplo::Lower));

        // Opposite triangles (L·U) do not stay triangular: the merge order
        // that forms the square L·U product first loses the structure, so
        // its second step cannot be a TRMM reading the intermediate.
        let u = Expr::tri_var("U", 10, Uplo::Upper);
        let l1b = Expr::tri_var("L1", 10, Uplo::Lower);
        let algs_lu =
            enumerate_expr_algorithms(&l1b.mul(u).mul(Expr::var("B", 10, 4)), None).unwrap();
        for alg in &algs_lu {
            if alg.kernel_summary() == "trmm,trmm" {
                // Legal only as U*B first (n = 4), then L*(U B): both TRMMs
                // read leaf operands, never the square L·U intermediate.
                assert!(matches!(alg.calls[0].op, KernelOp::Trmm { n: 4, .. }));
            }
            let mixed = alg
                .operands
                .iter()
                .find(|o| o.name == "M1" && o.rows == 10 && o.cols == 10);
            if let Some(m1) = mixed {
                assert_eq!(m1.triangle(), None, "L·U must not be marked triangular");
            }
        }
    }

    #[test]
    fn triangular_inverse_lowers_to_trsm() {
        let l = Expr::tri_var("L", 9, Uplo::Lower);
        let b = Expr::var("B", 9, 5);
        let algs = enumerate_expr_algorithms(&l.inv().mul(b), None).unwrap();
        assert_eq!(algs.len(), 1, "a solve has exactly one realisation");
        assert_eq!(algs[0].kernel_summary(), "trsm");
        match algs[0].calls[0].op {
            KernelOp::Trsm {
                side,
                uplo,
                trans,
                m,
                n,
            } => {
                assert_eq!(side, Side::Left);
                assert_eq!(uplo, Uplo::Lower);
                assert_eq!(trans, Trans::No);
                assert_eq!((m, n), (9, 5));
            }
            ref other => panic!("expected TRSM, got {other}"),
        }
    }

    #[test]
    fn triangular_right_operand_enumerates_right_trmm_and_gemm() {
        // B*L: the triangle on the right multiplies through the sided TRMM.
        let b = Expr::var("B", 7, 10);
        let l = Expr::tri_var("L", 10, Uplo::Lower);
        let algs = enumerate_expr_algorithms(&b.mul(l), None).unwrap();
        assert_eq!(algs.len(), 2);
        assert_eq!(algs[0].kernel_summary(), "trmm");
        assert_eq!(algs[1].kernel_summary(), "gemm");
        match algs[0].calls[0].op {
            KernelOp::Trmm {
                side,
                uplo,
                trans,
                m,
                n,
            } => {
                assert_eq!(side, Side::Right);
                assert_eq!(uplo, Uplo::Lower);
                assert_eq!(trans, Trans::No);
                assert_eq!((m, n), (7, 10));
            }
            ref other => panic!("expected right-side TRMM, got {other}"),
        }
        // The triangle leads the input list (kernel argument order).
        let l_info = algs[0].inputs().find(|o| o.name == "L").unwrap();
        assert_eq!(algs[0].calls[0].inputs[0], l_info.id);
        // n²·m FLOPs: half the GEMM variant.
        assert_eq!(algs[0].flops() * 2, algs[1].flops());
    }

    #[test]
    fn triangular_right_inverse_lowers_to_right_trsm() {
        // B*L^-1 realises directly as one right-side TRSM — never via a
        // transpose round-trip.
        let b = Expr::var("B", 7, 9);
        let l = Expr::tri_var("L", 9, Uplo::Lower);
        let algs = enumerate_expr_algorithms(&b.mul(l.inv()), None).unwrap();
        assert_eq!(algs.len(), 1, "a right solve has exactly one realisation");
        assert_eq!(algs[0].kernel_summary(), "trsm");
        match algs[0].calls[0].op {
            KernelOp::Trsm {
                side,
                uplo,
                trans,
                m,
                n,
            } => {
                assert_eq!(side, Side::Right);
                assert_eq!(uplo, Uplo::Lower);
                assert_eq!(trans, Trans::No);
                assert_eq!((m, n), (7, 9));
            }
            ref other => panic!("expected right-side TRSM, got {other}"),
        }
        assert!(algs[0].is_well_formed());
        assert_eq!(algs[0].flops(), 9 * 9 * 7);
    }

    #[test]
    fn spd_right_inverse_lowers_to_potrf_and_two_right_trsms() {
        let b = Expr::var("B", 5, 12);
        let s = Expr::spd_var("S", 12);
        let algs = enumerate_expr_algorithms(&b.mul(s.inv()), None).unwrap();
        assert_eq!(algs.len(), 1);
        assert_eq!(algs[0].kernel_summary(), "potrf,trsm,trsm");
        assert!(algs[0].is_well_formed());
        // B·S⁻¹ = (B·L⁻ᵀ)·L⁻¹: transposed solve first, then plain.
        match (&algs[0].calls[1].op, &algs[0].calls[2].op) {
            (
                KernelOp::Trsm {
                    side: Side::Right,
                    trans: Trans::Yes,
                    ..
                },
                KernelOp::Trsm {
                    side: Side::Right,
                    trans: Trans::No,
                    ..
                },
            ) => {}
            other => panic!("expected two right-side TRSMs, got {other:?}"),
        }
        // Same FLOP model as the left-side solve: n³/3 + 2·n²·m.
        assert_eq!(algs[0].flops(), 12u64.pow(3) / 3 + 2 * 12 * 12 * 5);
        assert_eq!(algs[0].output().unwrap().name, "X");
    }

    #[test]
    fn general_right_inverse_lowers_to_the_mirrored_lu_realisation() {
        let b = Expr::var("B", 5, 12);
        let a = Expr::var("A", 12, 12);
        let algs = enumerate_expr_algorithms(&b.mul(a.inv()), None).unwrap();
        assert_eq!(algs.len(), 1);
        assert_eq!(
            algs[0].kernel_summary(),
            "getrf,factortri,factortri,trsm,trsm,laswp"
        );
        assert!(algs[0].is_well_formed());
        // B·A⁻¹ = ((B·U⁻¹)·L⁻¹)·P: upper solve, lower solve, column pivots
        // last.
        match (&algs[0].calls[3].op, &algs[0].calls[4].op) {
            (
                KernelOp::Trsm {
                    side: Side::Right,
                    uplo: Uplo::Upper,
                    ..
                },
                KernelOp::Trsm {
                    side: Side::Right,
                    uplo: Uplo::Lower,
                    ..
                },
            ) => {}
            other => panic!("expected upper then lower right TRSM, got {other:?}"),
        }
        match algs[0].calls[5].op {
            KernelOp::PivotApply { side, m, n } => {
                assert_eq!(side, Side::Right);
                assert_eq!((m, n), (5, 12));
            }
            ref other => panic!("expected right-side pivot application, got {other}"),
        }
        assert_eq!(algs[0].flops(), 2 * 12u64.pow(3) / 3 + 2 * 12 * 12 * 5);
        assert_eq!(algs[0].output().unwrap().name, "X");
    }

    #[test]
    fn right_solve_chains_enumerate_competing_orders() {
        // A*B*L^-1: multiply-then-solve versus solve-then-multiply, the
        // right-side mirror of the left solve chain test.
        let a = Expr::var("A", 6, 8);
        let b = Expr::var("B", 8, 10);
        let l = Expr::tri_var("L", 10, Uplo::Upper);
        let algs = enumerate_expr_algorithms(&a.mul(b).mul(l.inv()), None).unwrap();
        let summaries: Vec<String> = algs.iter().map(Algorithm::kernel_summary).collect();
        assert!(summaries.iter().any(|s| s == "gemm,trsm"));
        assert!(summaries.iter().any(|s| s == "trsm,gemm"));
        assert!(algs.iter().all(Algorithm::is_well_formed));
    }

    #[test]
    fn top_k_pruning_agrees_with_full_enumeration_on_right_side_chains() {
        // The admissibility of the rightmost-segment structured discount:
        // pruned enumeration must return exactly the cheapest algorithms.
        let a = Expr::var("A", 18, 14);
        let b = Expr::var("B", 14, 40);
        let l = Expr::tri_var("L", 40, Uplo::Lower);
        let expr = a.mul(b).mul(l.inv());
        let full = enumerate_expr_algorithms(&expr, None).unwrap();
        let mut flops: Vec<u64> = full.iter().map(Algorithm::flops).collect();
        flops.sort_unstable();
        for k in [1, 2, 3] {
            let pruned = enumerate_expr_algorithms(&expr, Some(k)).unwrap();
            let got: Vec<u64> = pruned.iter().map(Algorithm::flops).collect();
            assert_eq!(got, flops[..k.min(flops.len())].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn inverse_in_longer_products_enumerates_both_orders() {
        // L^-1*A*B: solve-then-multiply or multiply-then-solve.
        let l = Expr::tri_var("L", 10, Uplo::Lower);
        let a = Expr::var("A", 10, 8);
        let b = Expr::var("B", 8, 3);
        let algs = enumerate_expr_algorithms(&l.inv().mul(a).mul(b), None).unwrap();
        let summaries: Vec<String> = algs.iter().map(Algorithm::kernel_summary).collect();
        assert!(summaries.iter().any(|s| s == "trsm,gemm"));
        assert!(summaries.iter().any(|s| s == "gemm,trsm"));
        assert!(algs.iter().all(Algorithm::is_well_formed));
    }

    #[test]
    fn unrealisable_inverses_are_rejected() {
        // Inverse of a general square operand now realises through LU.
        let a = Expr::var("A", 5, 5);
        let b = Expr::var("B", 5, 3);
        assert!(enumerate_expr_algorithms(&a.clone().inv().mul(b.clone()), None).is_ok());
        // An inverse on the right of every split realises too, through the
        // right-side TRSM — no longer a dead end.
        let l = Expr::tri_var("L", 3, Uplo::Lower);
        let c = Expr::var("C", 5, 3);
        assert!(enumerate_expr_algorithms(&c.mul(l.clone().inv()), None).is_ok());
        // A solve whose rectangular partner is transposed everywhere still
        // has no realisation (the sided TRSMs read their rectangular operand
        // as stored).
        let bt = Expr::var("B", 5, 3);
        let err = enumerate_expr_algorithms(&l.clone().inv().mul(bt.t()), None).unwrap_err();
        assert!(matches!(err, GenerateError::NoRealisation { .. }));
        assert!(err.to_string().contains("solve"));
        // Two inverses meeting in one merge have no realisation either: each
        // solve needs a plain rectangular partner.
        let l5 = Expr::tri_var("L5", 5, Uplo::Lower);
        let m5 = Expr::tri_var("M5", 5, Uplo::Upper);
        assert!(matches!(
            enumerate_expr_algorithms(&l5.inv().mul(m5.inv()), None),
            Err(GenerateError::NoRealisation { .. })
        ));
        // A bare inverse gets its own diagnosis (not the transpose message).
        let bare = enumerate_expr_algorithms(&l.inv(), None).unwrap_err();
        assert!(matches!(bare, GenerateError::BareInverse { .. }));
        assert!(bare.to_string().contains("right-hand side"));
    }

    #[test]
    fn general_inverse_lowers_to_getrf_pivot_and_two_trsms() {
        let a = Expr::var("A", 12, 12);
        let b = Expr::var("B", 12, 5);
        let algs = enumerate_expr_algorithms(&a.inv().mul(b), None).unwrap();
        assert_eq!(algs.len(), 1, "a general solve has exactly one realisation");
        assert_eq!(
            algs[0].kernel_summary(),
            "getrf,factortri,factortri,laswp,trsm,trsm"
        );
        assert!(algs[0].is_well_formed());
        match algs[0].calls[0].op {
            KernelOp::Getrf { n } => assert_eq!(n, 12),
            ref other => panic!("expected GETRF, got {other}"),
        }
        // The packed factor feeds both triangle extractions and the pivot
        // application; the extracted triangles feed the two solves.
        let f = algs[0].operand(algs[0].calls[0].output).unwrap();
        assert_eq!((f.rows, f.cols), (12, 13), "packed L\\U with pivot column");
        assert!(algs[0].calls[1].reads(f.id));
        assert!(algs[0].calls[2].reads(f.id));
        assert!(algs[0].calls[3].reads(f.id));
        let l = algs[0].operand(algs[0].calls[1].output).unwrap();
        let u = algs[0].operand(algs[0].calls[2].output).unwrap();
        assert_eq!(l.triangle(), Some(Uplo::Lower));
        assert_eq!(u.triangle(), Some(Uplo::Upper));
        match (&algs[0].calls[4].op, &algs[0].calls[5].op) {
            (
                KernelOp::Trsm {
                    uplo: Uplo::Lower,
                    trans: Trans::No,
                    ..
                },
                KernelOp::Trsm {
                    uplo: Uplo::Upper,
                    trans: Trans::No,
                    ..
                },
            ) => {}
            other => panic!("expected lower then upper TRSM, got {other:?}"),
        }
        // FLOPs follow the 2·n³/3 + 2·n²·m model (triangle extraction and
        // pivot application are zero-FLOP data movement).
        assert_eq!(
            algs[0].flops(),
            2 * 12u64.pow(3) / 3 + 2 * 12 * 12 * 5,
            "{}",
            algs[0].name
        );
        assert_eq!(algs[0].output().unwrap().name, "X");
    }

    #[test]
    fn pseudo_inverse_lowers_to_qr_ormqr_and_a_trsm() {
        let a = Expr::var("A", 15, 6);
        let b = Expr::var("b", 15, 2);
        let algs = enumerate_expr_algorithms(&a.pinv().mul(b), None).unwrap();
        assert_eq!(
            algs.len(),
            1,
            "a least-squares solve has exactly one realisation"
        );
        assert_eq!(algs[0].kernel_summary(), "qr,factortri,ormqr,trsm");
        assert!(algs[0].is_well_formed());
        match algs[0].calls[0].op {
            KernelOp::Qr { m, n } => assert_eq!((m, n), (15, 6)),
            ref other => panic!("expected QR, got {other}"),
        }
        let f = algs[0].operand(algs[0].calls[0].output).unwrap();
        assert_eq!((f.rows, f.cols), (15, 7), "packed V\\R with tau column");
        let r = algs[0].operand(algs[0].calls[1].output).unwrap();
        assert_eq!((r.rows, r.cols), (6, 6));
        assert_eq!(r.triangle(), Some(Uplo::Upper));
        match algs[0].calls[2].op {
            KernelOp::Ormqr { m, n, k } => assert_eq!((m, n, k), (15, 6, 2)),
            ref other => panic!("expected ORMQR, got {other}"),
        }
        let out = algs[0].output().unwrap();
        assert_eq!((out.rows, out.cols), (6, 2));
        assert_eq!(out.name, "X");
    }

    #[test]
    fn unrealisable_pseudo_inverses_are_diagnosed() {
        // Wide operands cannot take the QR realisation.
        let wide = Expr::var("A", 3, 8);
        let b = Expr::var("b", 3, 1);
        let err = enumerate_expr_algorithms(&wide.pinv().mul(b.clone()), None).unwrap_err();
        assert!(matches!(err, GenerateError::PseudoInverseWide { .. }));
        assert!(err.to_string().contains("rows"));
        // A bare pseudo-inverse has no right-hand side.
        let a = Expr::var("A", 8, 3);
        let bare = enumerate_expr_algorithms(&a.clone().pinv(), None).unwrap_err();
        assert!(matches!(bare, GenerateError::BarePseudoInverse { .. }));
        // A transposed pseudo-inverse has no kernel (QR carries no
        // transposition flag): (A^T)^+ for a tall A is a wide pinv...
        let tall_t =
            enumerate_expr_algorithms(&a.clone().t().pinv().mul(Expr::var("c", 3, 1)), None);
        assert!(matches!(
            tall_t,
            Err(GenerateError::PseudoInverseWide { .. })
        ));
        // ...while (A^+)^-1 mixes the two solve flavours.
        let sq = Expr::var("S", 4, 4);
        let mixed = enumerate_expr_algorithms(&sq.pinv().inv().mul(Expr::var("d", 4, 1)), None);
        assert!(matches!(
            mixed,
            Err(GenerateError::InversePseudoInverseMix { .. })
        ));
        // A pseudo-inverse on the right of every split has no realisation.
        let c = Expr::var("C", 2, 3);
        assert!(matches!(
            enumerate_expr_algorithms(&c.mul(Expr::var("A", 8, 3).pinv()), None),
            Err(GenerateError::NoRealisation { .. })
        ));
    }

    #[test]
    fn general_solve_chains_enumerate_competing_orders() {
        // A^-1*B*C: solve-then-multiply versus multiply-then-solve, the LU
        // mirror of the SPD chain test.
        let a = Expr::var("A", 10, 10);
        let b = Expr::var("B", 10, 8);
        let c = Expr::var("C", 8, 3);
        let algs = enumerate_expr_algorithms(&a.inv().mul(b).mul(c), None).unwrap();
        let summaries: Vec<String> = algs.iter().map(Algorithm::kernel_summary).collect();
        assert!(
            summaries
                .iter()
                .any(|s| s == "getrf,factortri,factortri,laswp,trsm,trsm,gemm"),
            "solve first: {summaries:?}"
        );
        assert!(
            summaries
                .iter()
                .any(|s| s == "gemm,getrf,factortri,factortri,laswp,trsm,trsm"),
            "multiply first: {summaries:?}"
        );
        assert!(algs.iter().all(Algorithm::is_well_formed));
        let flops: Vec<u64> = algs.iter().map(Algorithm::flops).collect();
        assert_ne!(flops[0], flops[1]);
    }

    #[test]
    fn non_square_leaf_under_a_distributed_inverse_is_rejected() {
        // (A·B)^-1 is square as a product, but flattening pushes the inverse
        // onto the non-square leaves — which no factorisation kernel takes.
        let a = Expr::var("A", 4, 7);
        let b = Expr::var("B", 7, 4);
        let rhs = Expr::var("C", 4, 2);
        assert!(matches!(
            enumerate_expr_algorithms(&a.mul(b).inv().mul(rhs), None),
            Err(GenerateError::Shape(ShapeError::InverseNotSquare { .. }))
        ));
    }

    #[test]
    fn spd_inverse_lowers_to_potrf_and_two_trsms() {
        let s = Expr::spd_var("S", 12);
        let b = Expr::var("B", 12, 5);
        let algs = enumerate_expr_algorithms(&s.inv().mul(b), None).unwrap();
        assert_eq!(algs.len(), 1, "an SPD solve has exactly one realisation");
        assert_eq!(algs[0].kernel_summary(), "potrf,trsm,trsm");
        assert!(algs[0].is_well_formed());
        // The call sequence: factor S, forward solve, backward solve.
        match algs[0].calls[0].op {
            KernelOp::Potrf { uplo, n } => {
                assert_eq!(uplo, Uplo::Lower);
                assert_eq!(n, 12);
            }
            ref other => panic!("expected POTRF, got {other}"),
        }
        match (&algs[0].calls[1].op, &algs[0].calls[2].op) {
            (
                KernelOp::Trsm {
                    trans: Trans::No, ..
                },
                KernelOp::Trsm {
                    trans: Trans::Yes, ..
                },
            ) => {}
            other => panic!("expected forward then backward TRSM, got {other:?}"),
        }
        // The factor intermediate is declared triangular, and both solves
        // read it.
        let l = algs[0].operand(algs[0].calls[0].output).unwrap();
        assert_eq!(l.triangle(), Some(Uplo::Lower));
        assert!(algs[0].calls[1].reads(l.id));
        assert!(algs[0].calls[2].reads(l.id));
        // FLOPs follow the n³/3 + 2·n²·m model.
        assert_eq!(algs[0].flops(), 12u64.pow(3) / 3 + 2 * 12 * 12 * 5);
        // The output is the last intermediate, named X.
        assert_eq!(algs[0].output().unwrap().name, "X");
    }

    #[test]
    fn spd_solve_chains_enumerate_competing_orders() {
        // S^-1*B*C: solve-then-multiply versus multiply-then-solve — the
        // competing realisations the SPD family contributes.
        let s = Expr::spd_var("S", 10);
        let b = Expr::var("B", 10, 8);
        let c = Expr::var("C", 8, 3);
        let algs = enumerate_expr_algorithms(&s.inv().mul(b).mul(c), None).unwrap();
        let summaries: Vec<String> = algs.iter().map(Algorithm::kernel_summary).collect();
        assert!(
            summaries.iter().any(|s| s == "potrf,trsm,trsm,gemm"),
            "solve first: {summaries:?}"
        );
        assert!(
            summaries.iter().any(|s| s == "gemm,potrf,trsm,trsm"),
            "multiply first: {summaries:?}"
        );
        assert!(algs.iter().all(Algorithm::is_well_formed));
        // The two orders have different FLOP counts (3 versus 8 right-hand
        // sides for the solve), so FLOP-based selection has a real choice.
        let flops: Vec<u64> = algs.iter().map(Algorithm::flops).collect();
        assert_ne!(flops[0], flops[1]);
    }

    #[test]
    fn plain_spd_products_offer_symm_and_gemm() {
        let s = Expr::spd_var("S", 9);
        let b = Expr::var("B", 9, 4);
        let algs = enumerate_expr_algorithms(&s.mul(b), None).unwrap();
        let summaries: Vec<String> = algs.iter().map(Algorithm::kernel_summary).collect();
        assert_eq!(summaries, vec!["symm", "gemm"]);
        // Equal FLOPs: SYMM on a full-stored symmetric operand saves time at
        // large orders, not operations.
        assert_eq!(algs[0].flops(), algs[1].flops());
        // The SPD input is declared in the operand table.
        let s_info = algs[0].inputs().find(|o| o.name == "S").unwrap();
        assert!(s_info.structure.is_spd());
    }

    #[test]
    fn spd_inverse_without_right_hand_side_is_rejected() {
        let s = Expr::spd_var("S", 6);
        // Bare inverse.
        assert!(matches!(
            enumerate_expr_algorithms(&s.clone().inv(), None),
            Err(GenerateError::BareInverse { .. })
        ));
        // An SPD inverse on the right of every split realises now, through
        // POTRF and two right-side TRSMs.
        let a = Expr::var("A", 4, 6);
        let algs = enumerate_expr_algorithms(&a.mul(s.inv()), None).unwrap();
        assert_eq!(algs.len(), 1);
        assert_eq!(algs[0].kernel_summary(), "potrf,trsm,trsm");
    }

    #[test]
    fn top_k_pruning_agrees_with_full_enumeration_on_spd_solve_chains() {
        let s = Expr::spd_var("S", 30);
        let b = Expr::var("B", 30, 14);
        let c = Expr::var("C", 14, 22);
        let expr = s.inv().mul(b).mul(c);
        let full = enumerate_expr_algorithms(&expr, None).unwrap();
        let mut flops: Vec<u64> = full.iter().map(Algorithm::flops).collect();
        flops.sort_unstable();
        for k in [1, 2] {
            let pruned = enumerate_expr_algorithms(&expr, Some(k)).unwrap();
            let got: Vec<u64> = pruned.iter().map(Algorithm::flops).collect();
            assert_eq!(got, flops[..k].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn cholesky_gram_product_stays_on_syrk() {
        // L*L^T (the Cholesky reconstruction) enumerates through the Gram
        // rule: SYRK-based first, GEMM second — not through TRMM.
        let l = Expr::tri_var("L", 7, Uplo::Lower);
        let algs = enumerate_expr_algorithms(&l.clone().mul(l.t()), None).unwrap();
        assert_eq!(algs[0].kernel_summary(), "syrk,copy");
        assert_eq!(algs[1].kernel_summary(), "gemm");
    }

    #[test]
    fn top_k_pruning_agrees_with_full_enumeration_on_triangular_chains() {
        let l = Expr::tri_var("L", 40, Uplo::Lower);
        let a = Expr::var("A", 40, 12);
        let b = Expr::var("B", 12, 30);
        let expr = l.mul(a).mul(b);
        let full = enumerate_expr_algorithms(&expr, None).unwrap();
        let mut flops: Vec<u64> = full.iter().map(Algorithm::flops).collect();
        flops.sort_unstable();
        for k in [1, 2, 3] {
            let pruned = enumerate_expr_algorithms(&expr, Some(k)).unwrap();
            let got: Vec<u64> = pruned.iter().map(Algorithm::flops).collect();
            assert_eq!(got, flops[..k].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn lower_bound_matches_the_chain_dp_on_plain_chains() {
        // The textbook (CLRS) instance: 15125 multiplications at the optimum,
        // `((A (B C)) ((D E) F))`, doubled by the GEMM FLOP model.
        let dims = [30, 35, 15, 5, 10, 20, 25];
        let expr = chain_expr(&dims);
        let factors = expr.factors();
        let segments: Vec<Segment> = factors
            .iter()
            .enumerate()
            .map(|(pos, f)| Segment {
                id: OperandId(pos),
                rows: f.var.rows,
                cols: f.var.cols,
                trans: Trans::No,
                leaf: Some(pos),
                storage: Storage::General,
                tri: None,
                spd: false,
                inv: false,
                pinv: false,
                start: pos,
                end: pos + 1,
                node: pos,
            })
            .collect();
        let mut memo = HashMap::new();
        let lb = lower_bound(&mut memo, &mut Vec::new(), &segments);
        assert_eq!(lb, 2 * 15125);
        // The memo caches the full-range entry.
        assert!(memo.len() == 1);
    }
}
