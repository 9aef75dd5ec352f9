//! Per-text work, once per text: the algorithm set of a parsed expression
//! as a template over its dimension tuple.
//!
//! What the enumerator derives from a text depends on the dimension sizes
//! only through a few comparisons. The merge orders, the rewrite variants
//! ([`crate::rewrite`] reads storage, structure and leaf identity), the
//! operand numbering (intermediates are named by position), the labels and
//! the calls common-subexpression elimination removes (value numbering
//! merges calls by exact operation over the same inputs) are all structural.
//! So the search runs once per text, untruncated, over a tree whose sizes
//! are *dimension codes* — dimension `i` is the size `(i + 1)·CODE`, and a
//! size the search derives from one is that code plus a small offset (the
//! `n × (n+1)` of a packed LU or QR factor). Its completions, in enumeration
//! order, become the template: each algorithm with its sizes as codes,
//! rendered labels and the name after its number left open, beside its
//! shared (CSE) form and the calls that form drops.
//!
//! A request then
//!
//! 1. decides the conditions the dimension sizes must meet, in the order the
//!    enumerator meets them — the tree's shape checks that codes do not
//!    settle, a pseudo-inverted operand being tall — the first failure being
//!    the request's error;
//! 2. instantiates each completion's [`KernelOp`](crate::KernelOp)s (plain
//!    values: no allocation) and sums their FLOPs into the rank
//!    `(shared FLOPs, FLOPs, enumeration order)`, keeping the stable top k;
//! 3. renders only the survivors, in tree or shared form, numbered by
//!    position.
//!
//! That is exactly what the branch-and-bound search returns for the bound
//! tree: its survivors are the full enumeration sorted by the same rank and
//! cut.
//!
//! The templates live in one process-wide memo keyed by the normalised text
//! ([`TreeExpression::text`], annotations included), so every caller — a
//! planner built per request, a batch that re-parses every line, `lamb
//! paper` — shares them without holding anything. A parsed tree looks its
//! template up once and keeps it, so the requests of a text parsed from the
//! parse memo neither lock nor hash to find it. A text past the memo's
//! bound of [`MEMO_TEXTS`] texts, a text with more than [`MAX_COMPLETIONS`]
//! completions (chains of eight and more factors), and a tree that groups
//! unlike the one its text's template was derived from (`A*(B*C)` versus
//! `(A*B)*C`, whose shape errors may differ) are searched per request.

use crate::algorithm::{Algorithm, OperandInfo};
use crate::cse::{eliminate_shared_calls, eliminated_calls, shared_forms};
use crate::enumerate::{algorithm_name, derive, enumerate_expr_algorithms, Check, GenerateError};
use crate::expr::Factor;
use crate::expression::Expression;
use crate::kernel_call::{KernelCall, KernelOp};
use crate::parse::{Node, TreeExpression};
use crate::shared_str::SharedStr;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// The size dimension `i` of a template stands for is `(i + 1)·CODE`; the
/// offsets the search adds (at most one) stay far below it.
const CODE: usize = 1 << 16;

/// The most texts the memo holds. A template under the cap below takes at
/// most ~1.3 MB (the seven-factor chain: 720 completions at ~1.8 KB each),
/// so the memo stays under ~85 MB whatever a process is asked to plan; the
/// 33 scenario texts take 0.36 MB together.
pub(crate) const MEMO_TEXTS: usize = 64;

/// Texts with more completions keep the per-request search. A request ranks
/// every completion of its template (~10 ns each, its operations priced
/// once), where the pruned search visits only what its bound cannot cut.
/// Measured at `top_k` 1 / 8 on a shared 2-vCPU x86-64 virtual machine: 120
/// completions (the six-factor chain) 2.0 / 9.5 µs against the search's
/// 10 / 33 µs, 720 (seven factors) 6.6 / 18 µs against 16 / 52 µs, 5040
/// (eight factors) 68 / 74 µs against 35 / 85 µs. Ranking stops beating the
/// search between 720 and 5040 completions at `top_k` 1, and the memory
/// bound above is priced at 720: the factorial chains of eight and more
/// factors are searched.
pub(crate) const MAX_COMPLETIONS: usize = 720;

/// One completion of a template.
#[derive(Debug)]
struct Completion {
    /// The algorithm, sizes as codes, without a name.
    tree: Algorithm,
    /// Its shared form, when value numbering merges a call.
    shared: Option<Algorithm>,
    /// Per call of `tree`: the index of its operation in
    /// [`Completions::ops`], and whether the shared form drops the call.
    priced: Vec<(usize, bool)>,
    /// The name after `Algorithm {number}`.
    suffix: String,
}

/// The completions of a template, in enumeration order, and the distinct
/// operations their calls perform: a request prices each operation once.
#[derive(Debug)]
struct Completions {
    list: Vec<Completion>,
    /// Sizes as codes.
    ops: Vec<KernelOp>,
}

impl Completions {
    fn new(derived: Vec<(Algorithm, String)>) -> Self {
        let mut index: HashMap<KernelOp, usize> = HashMap::new();
        let mut ops = Vec::new();
        let list = derived
            .into_iter()
            .map(|(tree, suffix)| {
                let dropped = eliminated_calls(&tree);
                let priced = tree
                    .calls
                    .iter()
                    .enumerate()
                    .map(|(i, call)| {
                        let op = *index.entry(call.op.clone()).or_insert_with(|| {
                            ops.push(call.op.clone());
                            ops.len() - 1
                        });
                        (op, dropped.contains(&i))
                    })
                    .collect();
                Completion {
                    shared: eliminate_shared_calls(&tree).map(|cse| cse.algorithm),
                    priced,
                    tree,
                    suffix,
                }
            })
            .collect();
        Completions { list, ops }
    }
}

/// What a text's requests are instantiated from.
#[derive(Debug)]
struct Instantiable {
    /// The flattened factors (a [`Check::Tall`] names one of them).
    factors: Vec<Factor>,
    /// The conditions a request may fail, in order.
    checks: Vec<Check>,
    /// Every completion, or the error of every request that meets `checks`.
    outcome: Result<Completions, GenerateError>,
}

/// The memo's entry for a text.
#[derive(Debug)]
pub(crate) struct Template {
    /// The tree the template was derived from.
    nodes: Vec<Node>,
    /// `None` for a text over [`MAX_COMPLETIONS`].
    instantiable: Option<Instantiable>,
}

impl Template {
    fn derive(expr: &TreeExpression) -> Self {
        let codes: Option<Vec<usize>> =
            (1..=expr.num_dims()).map(|i| i.checked_mul(CODE)).collect();
        let instantiable = codes
            .and_then(|codes| derive(&expr.bind(&codes), MAX_COMPLETIONS))
            .map(|derivation| Instantiable {
                factors: derivation.factors,
                checks: derivation.checks,
                outcome: derivation.outcome.map(Completions::new),
            });
        Template {
            nodes: expr.nodes().to_vec(),
            instantiable,
        }
    }
}

/// The memo. Its one update is a single insert, so a lock poisoned by a
/// panicking thread still guards a valid map and is taken as it is.
type Memo = RwLock<HashMap<String, Arc<Template>>>;

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(Memo::default)
}

/// The template `expr`'s requests are instantiated from: its text's,
/// derived on the text's first use. `None` when the memo is full and holds
/// no template for the text, or when `expr` groups unlike the tree the
/// template was derived from.
pub(crate) fn of(expr: &TreeExpression) -> Option<Arc<Template>> {
    memoised_for(expr).filter(|t| t.nodes == expr.nodes())
}

/// The memo's template for `expr`'s text, derived on the text's first use.
fn memoised_for(expr: &TreeExpression) -> Option<Arc<Template>> {
    let memo = memo();
    {
        let held = memo.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(template) = held.get(expr.text()) {
            return Some(Arc::clone(template));
        }
        if held.len() >= MEMO_TEXTS {
            return None;
        }
    }
    // Derived outside the lock: concurrent first uses of one text derive
    // the same template, and the first to arrive is kept.
    let derived = Arc::new(Template::derive(expr));
    let mut held = memo.write().unwrap_or_else(PoisonError::into_inner);
    if held.len() >= MEMO_TEXTS {
        return Some(derived);
    }
    Some(Arc::clone(
        held.entry(expr.text().to_string()).or_insert(derived),
    ))
}

/// Whether the memo holds a template for `text`, and whether that template
/// is instantiable (`Some(false)`: over [`MAX_COMPLETIONS`]).
#[cfg(test)]
pub(crate) fn memoised(text: &str) -> Option<bool> {
    let held = memo().read().unwrap_or_else(PoisonError::into_inner);
    held.get(text).map(|t| t.instantiable.is_some())
}

/// The algorithms of `expr` at `dims` — what
/// [`enumerate_expr_algorithms`] returns for the bound tree — each in its
/// shared form when `shared`.
///
/// # Panics
///
/// Panics if `dims.len()` differs from the expression's dimension count,
/// like [`TreeExpression::bind`].
pub(crate) fn algorithms(
    expr: &TreeExpression,
    dims: &[usize],
    top_k: Option<usize>,
    shared: bool,
) -> Result<Vec<Algorithm>, GenerateError> {
    expr.check_arity(dims);
    if let Some(instantiable) = expr.template().and_then(|t| t.instantiable.as_ref()) {
        return instantiable.instantiate(dims, top_k, shared);
    }
    let algorithms = enumerate_expr_algorithms(&expr.bind(dims), top_k)?;
    Ok(if shared {
        shared_forms(algorithms)
    } else {
        algorithms
    })
}

impl Instantiable {
    fn instantiate(
        &self,
        dims: &[usize],
        top_k: Option<usize>,
        shared: bool,
    ) -> Result<Vec<Algorithm>, GenerateError> {
        let size = |code: usize| dims[code / CODE - 1].saturating_add(code % CODE);
        for check in &self.checks {
            check.verdict(size, &self.factors)?;
        }
        let completions = self.outcome.as_ref().map_err(Clone::clone)?;
        let render = |(number, completion): (usize, &Completion)| {
            let form = match (&completion.shared, shared) {
                (Some(cse), true) => cse,
                _ => &completion.tree,
            };
            with_sizes(form, algorithm_name(number + 1, &completion.suffix), size)
        };
        let Some(k) = top_k else {
            return Ok(completions.list.iter().enumerate().map(render).collect());
        };
        // The stable top k by (shared FLOPs, FLOPs, enumeration order).
        let k = k.max(1);
        let op_flops: Vec<u64> = completions
            .ops
            .iter()
            .map(|op| op.map_dims(size).flops())
            .collect();
        let mut best: Vec<((u64, u64, usize), usize)> =
            Vec::with_capacity(k.min(completions.list.len()) + 1);
        for (order, completion) in completions.list.iter().enumerate() {
            let (mut flops, mut dropped) = (0u64, 0u64);
            for &(op, drops) in &completion.priced {
                flops = flops.saturating_add(op_flops[op]);
                if drops {
                    dropped = dropped.saturating_add(op_flops[op]);
                }
            }
            let rank = (flops.saturating_sub(dropped), flops, order);
            let at = best.partition_point(|(kept, _)| *kept < rank);
            if at < k {
                if best.len() == k {
                    best.pop();
                }
                best.insert(at, (rank, order));
            }
        }
        Ok(best
            .iter()
            .map(|&(_, order)| &completions.list[order])
            .enumerate()
            .map(render)
            .collect())
    }
}

/// `alg`, whose sizes are codes, named `name` at the sizes `size` reads.
fn with_sizes(alg: &Algorithm, name: SharedStr, size: impl Fn(usize) -> usize) -> Algorithm {
    Algorithm {
        name,
        operands: alg
            .operands
            .iter()
            .map(|o| OperandInfo {
                rows: size(o.rows),
                cols: size(o.cols),
                ..o.clone()
            })
            .collect(),
        calls: alg
            .calls
            .iter()
            .map(|call| KernelCall {
                op: call.op.map_dims(&size),
                inputs: call.inputs,
                output: call.output,
                label: call.label.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> TreeExpression {
        TreeExpression::parse(text).unwrap()
    }

    /// The search's answer for `expr` at `dims`.
    fn searched(expr: &TreeExpression, dims: &[usize], top_k: Option<usize>) -> String {
        format!("{:#?}", enumerate_expr_algorithms(&expr.bind(dims), top_k))
    }

    #[test]
    fn the_memo_holds_templates_up_to_its_bounds() {
        // Within the completion cap a text's first use memoises an
        // instantiable template; past it, the memo remembers to search.
        let chain = parse("A*B*C*D*E*F*G");
        let _ = chain.algorithms_pruned(&[5, 6, 7, 8, 9, 10, 11, 12], Some(8));
        assert_eq!(memoised(chain.text()), Some(true));
        let long = parse("A*B*C*D*E*F*G*H");
        let dims = [5, 6, 7, 8, 9, 10, 11, 12, 13];
        assert_eq!(
            format!("{:#?}", long.algorithms_pruned(&dims, Some(3))),
            searched(&long, &dims, Some(3))
        );
        assert_eq!(memoised(long.text()), Some(false));

        // Past the memo's bound of texts, a new text is searched and not
        // memoised.
        for i in 0..MEMO_TEXTS {
            let _ = parse(&format!("X{i}*Y")).algorithms(&[2, 3, 4]);
        }
        let late = parse("Late*Text^T");
        let dims = [4, 3, 4];
        assert_eq!(
            format!("{:#?}", late.algorithms_pruned(&dims, None)),
            searched(&late, &dims, None)
        );
        assert_eq!(memoised(late.text()), None);
        assert!(memo().read().unwrap().len() <= MEMO_TEXTS);
    }

    #[test]
    fn texts_grouped_unlike_their_template_keep_their_own_errors() {
        // Both normalise to `C*(A*B^-1)^-1*D`; a template derived from one
        // grouping must not answer for the other.
        let left = parse("(C*(A*B^-1)^-1)*D");
        let right = parse("C*((A*B^-1)^-1*D)");
        assert_eq!(left.text(), right.text());
        assert_ne!(left, right);
        for dims in [[3, 4, 5, 6, 7], [3, 3, 3, 3, 3], [2, 5, 2, 5, 2]] {
            let dims = &dims[..left.num_dims()];
            for expr in [&left, &right] {
                assert_eq!(
                    format!("{:#?}", expr.algorithms(dims)),
                    searched(expr, dims, None)
                );
            }
        }
    }
}
