//! Common-subexpression elimination over the kernel-call IR.
//!
//! The enumerator emits *tree-shaped* algorithms: every occurrence of a
//! subcomputation gets its own kernel call, even when two occurrences are
//! mathematically identical — the same POTRF of one SPD operand, the same
//! SYRK Gram product, the same TRSM half-solve. This module turns the call
//! sequence into a DAG by value numbering: identical `(operation, inputs)`
//! pairs are computed once, later occurrences are rewritten to read the first
//! result, and the eliminated calls (and their FLOPs) are reported.
//!
//! Three IR-specific rules keep the transform sound:
//!
//! * The **in-place triangle copy** (`inputs == [x]`, `output == x`) *updates*
//!   its operand rather than defining a new value. A second completion of the
//!   same representative operand is dropped (it would re-write bytes that are
//!   already there); a completion of a merged-away operand is redirected to
//!   the surviving representative.
//! * A duplicate call that writes the **output operand** is kept (and its
//!   FLOPs stay charged): the IR contract — relied on by every executor and
//!   by the def-use pass — is that the final call materialises the output
//!   operand. Sharing it away would leave the output unproduced.
//! * Operands merged away are removed from the operand table, so the result
//!   verifies cleanly (no dead intermediates).
//!
//! [`shared_flops`] is the DAG-aware cost model derived from the same value
//! numbering: the FLOP total an algorithm costs when each distinct value is
//! charged once. For a CSE-transformed algorithm it coincides with
//! [`Algorithm::flops`].
//!
//! The rules are written once, in one value numbering over a call list. An
//! algorithm has a handful of calls, so its tables are short vectors searched
//! linearly. [`eliminate_common_subexpressions`] builds the transformed
//! algorithm from it, [`eliminate_shared_calls`] — the planner's step —
//! builds one only when a call merges, [`shared_flops`] only counts, and the
//! enumerator runs the same numbering over its search stack to rank
//! completions by what they cost under sharing.
//!
//! [`factor_keys`] gives every cacheable value — a factor or Gram product,
//! never a value that reads a right-hand side ([`is_cacheable_op`]) — the
//! *structural key* the cross-request factor cache files it under, stable
//! across algorithms and requests: a leaf is keyed on its name, raw id
//! (executors seed input contents from it), shape and structure, a call's
//! result on its operation (kernel, flags, logical dimensions) and its
//! inputs' keys, and an in-place triangle copy re-keys its operand. Equal
//! keys mean bit-identical contents under the deterministic executors. A key
//! is 128 bits from two process-keyed standard hashers, so no text can be
//! crafted to collide, and two of 2³² distinct values collide with
//! probability about 2⁻⁶⁵. Keys are derived on demand, never stored on an
//! [`Algorithm`].

use crate::algorithm::{Algorithm, OperandInfo, OperandRole};
use crate::kernel_call::{CallInputs, KernelCall, KernelOp};
use crate::operand::OperandId;
use std::cell::Cell;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::OnceLock;

/// The result of [`eliminate_common_subexpressions`].
#[derive(Debug, Clone)]
pub struct CseOutcome {
    /// The transformed algorithm, with duplicate calls removed and their
    /// readers rewired to the surviving representative.
    pub algorithm: Algorithm,
    /// Number of kernel calls eliminated.
    pub eliminated_calls: usize,
    /// FLOPs of the eliminated calls (the saving over the tree-shaped form).
    pub eliminated_flops: u64,
}

/// A kernel call as the value numbering reads it: an operation, the operands
/// it reads and the operand it writes. The enumerator numbers its search
/// stack through this without building [`KernelCall`]s.
pub(crate) trait CallView {
    fn op(&self) -> &KernelOp;
    fn inputs(&self) -> &[OperandId];
    fn output(&self) -> OperandId;
}

impl CallView for KernelCall {
    fn op(&self) -> &KernelOp {
        &self.op
    }

    fn inputs(&self) -> &[OperandId] {
        &self.inputs
    }

    fn output(&self) -> OperandId {
        self.output
    }
}

/// A call the value numbering keeps: its index in the call list, the range of
/// its representative inputs in [`ValueNumbering::resolved`] and the operand
/// it writes (an in-place copy is redirected to the representative).
#[derive(Debug, Clone, Copy)]
struct Kept {
    call: usize,
    inputs: (usize, usize),
    output: OperandId,
}

/// The CSE rules, written once: forward value numbering over a call list.
///
/// A value is an `(operation, representative inputs)` pair. An algorithm has
/// a handful of calls, so every table is a short vector searched linearly,
/// and one numbering can be reused across call lists without allocating
/// again.
#[derive(Debug, Default)]
pub(crate) struct ValueNumbering {
    /// Merged-away operand → the surviving representative that replaces it.
    repr: Vec<(OperandId, OperandId)>,
    /// The calls that survive, in call order.
    kept: Vec<Kept>,
    /// Indices into `kept` of the calls that define a value (the table).
    values: Vec<usize>,
    /// The representative inputs of the kept calls, back to back.
    resolved: Vec<OperandId>,
    /// Number of calls eliminated.
    pub(crate) eliminated_calls: usize,
    /// FLOPs of the eliminated calls.
    pub(crate) eliminated_flops: u64,
}

impl ValueNumbering {
    /// Number `calls`; `is_output(id)` says whether `id` is the algorithm's
    /// output operand.
    pub(crate) fn run<C: CallView>(&mut self, calls: &[C], is_output: impl Fn(OperandId) -> bool) {
        self.repr.clear();
        self.kept.clear();
        self.values.clear();
        self.resolved.clear();
        self.eliminated_calls = 0;
        self.eliminated_flops = 0;
        for (index, call) in calls.iter().enumerate() {
            let start = self.resolved.len();
            // The in-place triangle copy (`inputs == [x]`, `output == x`)
            // *updates* its operand rather than defining a new value: it is
            // redirected to the surviving representative, and dropped when
            // that representative has already been completed by an identical
            // copy (zero FLOPs — only the call count moves).
            let in_place = matches!(call.op(), KernelOp::CopyTriangle { .. })
                && call.inputs().first() == Some(&call.output());
            if in_place {
                let target = self.resolve(call.output());
                self.resolved.push(target);
            } else {
                for &id in call.inputs() {
                    let id = self.resolve(id);
                    self.resolved.push(id);
                }
            }
            let existing = self.lookup(calls, call.op(), start);
            if in_place {
                if existing.is_some() {
                    self.resolved.truncate(start);
                    self.eliminated_calls += 1;
                } else {
                    let target = self.resolved[start];
                    self.keep(index, start, target, true);
                }
                continue;
            }
            match existing {
                // A duplicate definition of a value already held: drop the
                // call and remember the representative. A duplicate that
                // writes the output operand stays (and stays charged): the
                // IR contract, relied on by every executor and by the
                // def-use pass, is that the final call materialises it.
                Some(value) if !is_output(call.output()) => {
                    self.resolved.truncate(start);
                    match self
                        .repr
                        .iter_mut()
                        .find(|(from, _)| *from == call.output())
                    {
                        Some(entry) => entry.1 = value,
                        None => self.repr.push((call.output(), value)),
                    }
                    self.eliminated_calls += 1;
                    self.eliminated_flops = self.eliminated_flops.saturating_add(call.op().flops());
                }
                _ => self.keep(index, start, call.output(), existing.is_none()),
            }
        }
    }

    /// Resolve `id` through the representative map (one level deep is
    /// enough: the map always points at surviving operands).
    fn resolve(&self, id: OperandId) -> OperandId {
        self.repr
            .iter()
            .find(|(from, _)| *from == id)
            .map_or(id, |&(_, to)| to)
    }

    /// The operand holding the value `(op, resolved[start..])`, if any.
    fn lookup<C: CallView>(&self, calls: &[C], op: &KernelOp, start: usize) -> Option<OperandId> {
        let key = &self.resolved[start..];
        self.values.iter().map(|&v| &self.kept[v]).find_map(|k| {
            let inputs = &self.resolved[k.inputs.0..k.inputs.0 + k.inputs.1];
            (calls[k.call].op() == op && inputs == key).then_some(k.output)
        })
    }

    /// Keep call `index`, whose representative inputs start at `start`;
    /// `defines` enters its value into the table.
    fn keep(&mut self, index: usize, start: usize, output: OperandId, defines: bool) {
        self.kept.push(Kept {
            call: index,
            inputs: (start, self.resolved.len() - start),
            output,
        });
        if defines {
            self.values.push(self.kept.len() - 1);
        }
    }

    /// The CSE of `alg`, which must be the call list last numbered: the kept
    /// calls in their original order, rewired to representatives, and the
    /// operand table without the merged-away operands — renumbered, so its
    /// ids stay dense (operand `i` has id `i`). Merged-away operands are
    /// computed ones, and the enumerator lists every leaf first, so the
    /// leaves keep their ids (and the contents seeded from them).
    fn outcome(&self, alg: &Algorithm) -> CseOutcome {
        let merged = |id: OperandId| self.repr.iter().any(|(from, _)| *from == id);
        // The new id of a surviving operand: its position among survivors.
        let renumber = |id: OperandId| {
            OperandId(id.index() - (self.repr.iter()).filter(|(from, _)| *from < id).count())
        };
        let calls = self
            .kept
            .iter()
            .map(|k| {
                let call = &alg.calls[k.call];
                let inputs = &self.resolved[k.inputs.0..k.inputs.0 + k.inputs.1];
                KernelCall {
                    op: call.op.clone(),
                    inputs: inputs.iter().map(|&id| renumber(id)).collect(),
                    output: renumber(k.output),
                    label: call.label.clone(),
                }
            })
            .collect();
        let operands = alg
            .operands
            .iter()
            .filter(|o| !merged(o.id))
            .map(|o| {
                debug_assert!(
                    o.role != OperandRole::Input || renumber(o.id) == o.id,
                    "leaf {} listed after a computed operand",
                    o.id
                );
                OperandInfo {
                    id: renumber(o.id),
                    ..o.clone()
                }
            })
            .collect();
        CseOutcome {
            algorithm: Algorithm {
                name: alg.name.clone(),
                operands,
                calls,
            },
            eliminated_calls: self.eliminated_calls,
            eliminated_flops: self.eliminated_flops,
        }
    }
}

/// The value numbering of `alg`'s calls.
fn number(alg: &Algorithm) -> ValueNumbering {
    let mut numbering = ValueNumbering::default();
    numbering.run(&alg.calls, |id| {
        alg.operand(id).map(|o| o.role) == Some(OperandRole::Output)
    });
    numbering
}

/// Eliminate common subexpressions from `alg` by forward value numbering.
///
/// Call order is preserved (the kept calls appear in their original order),
/// so def-use discipline is preserved too. The transform is idempotent:
/// running it on its own result eliminates nothing further.
#[must_use]
pub fn eliminate_common_subexpressions(alg: &Algorithm) -> CseOutcome {
    number(alg).outcome(alg)
}

/// [`eliminate_common_subexpressions`] when it finds a duplicate, `None` when
/// it eliminates no call — without building a copy of an algorithm that has
/// nothing to merge. This is the planner's CSE step: a candidate is rewritten
/// only when sharing changes it.
#[must_use]
pub fn eliminate_shared_calls(alg: &Algorithm) -> Option<CseOutcome> {
    let numbering = number(alg);
    (numbering.eliminated_calls > 0).then(|| numbering.outcome(alg))
}

/// The DAG-aware FLOP count of `alg`: each distinct `(operation, inputs)`
/// value is charged once, with the same rules as
/// [`eliminate_common_subexpressions`] (duplicate productions of the output
/// operand stay charged). Always `<= alg.flops()`, and equal for algorithms
/// with no common subexpressions. Counted without building the transformed
/// algorithm.
#[must_use]
pub fn shared_flops(alg: &Algorithm) -> u64 {
    alg.flops().saturating_sub(number(alg).eliminated_flops)
}

/// The indices of the calls of `alg` that [`eliminate_shared_calls`]
/// removes, ascending.
pub(crate) fn eliminated_calls(alg: &Algorithm) -> Vec<usize> {
    let numbering = number(alg);
    let mut kept = numbering.kept.iter().map(|k| k.call).peekable();
    (0..alg.calls.len())
        .filter(|&i| kept.next_if_eq(&i).is_none())
        .collect()
}

/// Each of `algorithms` in its shared form: what [`eliminate_shared_calls`]
/// builds when it finds a duplicate, the algorithm itself otherwise.
pub(crate) fn shared_forms(mut algorithms: Vec<Algorithm>) -> Vec<Algorithm> {
    for alg in &mut algorithms {
        if let Some(shared) = eliminate_shared_calls(alg) {
            *alg = shared.algorithm;
        }
    }
    algorithms
}

impl Algorithm {
    /// The DAG-aware FLOP count: see [`shared_flops`].
    #[must_use]
    pub fn shared_flops(&self) -> u64 {
        shared_flops(self)
    }
}

/// Whether a kernel operation produces a *reusable factor*: a value worth
/// holding across requests because later algorithms can skip recomputing it.
/// That is exactly a call that reads **one** operand and writes a fresh one
/// (the in-place triangle copy updates its operand instead): the Cholesky,
/// LU and QR factors, Gram products and the triangles extracted from a
/// packed factor — the factor-once values of the paper's solve pipelines.
/// A call that also reads a right-hand side (TRSM, ORMQR, the pivot
/// application, GEMM, ...) is recomputed every time: its result is as
/// unique as that right-hand side, so holding it would only grow the cache.
#[must_use]
pub fn is_cacheable_op(op: &KernelOp) -> bool {
    op.input_shapes().count() == 1 && !matches!(op, KernelOp::CopyTriangle { .. })
}

/// The structural key of a value an algorithm computes (see the module
/// documentation): equal keys mean bit-identical contents, across
/// algorithms and requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactorKey(u128);

impl FactorKey {
    /// The key of `value`: two 64-bit halves from two standard hashers keyed
    /// once per process, like a timing key's.
    fn of(value: &impl Hash) -> Self {
        static KEYS: OnceLock<[RandomState; 2]> = OnceLock::new();
        let [high, low] = KEYS.get_or_init(Default::default).each_ref();
        FactorKey(u128::from(high.hash_one(value)) << 64 | u128::from(low.hash_one(value)))
    }
}

thread_local! {
    /// The operand-key table [`factor_keys`] derives into, kept per thread
    /// between derivations.
    static OPERANDS: Cell<Vec<FactorKey>> = const { Cell::new(Vec::new()) };
}

/// `(call index, key of its result)` for every [cacheable](is_cacheable_op)
/// call of `alg`, in call order, each derived when the stream reaches it.
/// The key is the result's at production time: a later in-place triangle
/// copy re-keys the operand, so a snapshot filed under the pre-copy key
/// stays correct. The table of operand keys is kept per thread between
/// streams, so a warm derivation allocates nothing.
pub fn factor_keys(alg: &Algorithm) -> impl Iterator<Item = (usize, FactorKey)> + '_ {
    let mut stream = FactorKeys {
        calls: alg.calls.iter().enumerate(),
        keys: OPERANDS.take(),
    };
    stream.keys.clear();
    for o in alg.inputs() {
        let leaf = (0u8, &o.name, o.id.index(), o.rows, o.cols, o.structure);
        FactorKeys::define(&mut stream.keys, o.id, FactorKey::of(&leaf));
    }
    stream
}

/// The stream [`factor_keys`] returns: the calls still to key, and every
/// operand's current key by id. Dropping it hands the table back to the
/// thread.
struct FactorKeys<'a> {
    calls: std::iter::Enumerate<std::slice::Iter<'a, KernelCall>>,
    keys: Vec<FactorKey>,
}

impl FactorKeys<'_> {
    /// Until something defines it (only in a malformed algorithm), an
    /// operand is keyed on its raw id.
    fn raw(id: usize) -> FactorKey {
        FactorKey(id as u128)
    }

    fn define(keys: &mut Vec<FactorKey>, id: OperandId, key: FactorKey) {
        keys.extend((keys.len()..=id.index()).map(Self::raw));
        keys[id.index()] = key;
    }
}

impl Iterator for FactorKeys<'_> {
    type Item = (usize, FactorKey);

    fn next(&mut self) -> Option<(usize, FactorKey)> {
        let keys = &mut self.keys;
        self.calls.find_map(|(index, call)| {
            let inputs: [Option<FactorKey>; CallInputs::CAPACITY] = std::array::from_fn(|i| {
                let id = call.inputs.get(i)?.index();
                Some(keys.get(id).copied().unwrap_or_else(|| Self::raw(id)))
            });
            let key = FactorKey::of(&(1u8, &call.op, inputs));
            Self::define(keys, call.output, key);
            is_cacheable_op(&call.op).then_some((index, key))
        })
    }
}

impl Drop for FactorKeys<'_> {
    fn drop(&mut self) {
        OPERANDS.set(std::mem::take(&mut self.keys));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::OperandInfo;
    use lamb_matrix::{Side, Structure, Trans, Uplo};

    fn op_gemm(m: usize, n: usize, k: usize) -> KernelOp {
        KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m,
            n,
            k,
        }
    }

    fn operand(id: usize, rows: usize, cols: usize, role: OperandRole, name: &str) -> OperandInfo {
        OperandInfo {
            id: OperandId(id),
            rows,
            cols,
            role,
            name: name.into(),
            structure: Structure::General,
        }
    }

    /// `X := (A·B) + nothing`-style doubled product: M1 := A·B, M2 := A·B,
    /// X := M1·M2 — the classic duplicate pair.
    fn doubled_product() -> Algorithm {
        Algorithm {
            name: "doubled".into(),
            operands: vec![
                operand(0, 8, 8, OperandRole::Input, "A"),
                operand(1, 8, 8, OperandRole::Input, "B"),
                operand(2, 8, 8, OperandRole::Intermediate, "M1"),
                operand(3, 8, 8, OperandRole::Intermediate, "M2"),
                operand(4, 8, 8, OperandRole::Output, "X"),
            ],
            calls: vec![
                KernelCall {
                    op: op_gemm(8, 8, 8),
                    inputs: [OperandId(0), OperandId(1)].into(),
                    output: OperandId(2),
                    label: "M1 := A*B".into(),
                },
                KernelCall {
                    op: op_gemm(8, 8, 8),
                    inputs: [OperandId(0), OperandId(1)].into(),
                    output: OperandId(3),
                    label: "M2 := A*B".into(),
                },
                KernelCall {
                    op: op_gemm(8, 8, 8),
                    inputs: [OperandId(2), OperandId(3)].into(),
                    output: OperandId(4),
                    label: "X := M1*M2".into(),
                },
            ],
        }
    }

    #[test]
    fn duplicate_definitions_are_merged() {
        let outcome = eliminate_common_subexpressions(&doubled_product());
        assert_eq!(outcome.eliminated_calls, 1);
        assert_eq!(outcome.eliminated_flops, 2 * 8 * 8 * 8);
        let alg = &outcome.algorithm;
        assert_eq!(alg.calls.len(), 2);
        // The final call now reads the surviving representative twice.
        assert_eq!(*alg.calls[1].inputs, [OperandId(2), OperandId(2)], "{alg}");
        // The merged-away operand left the table, and the output moved up
        // into its id so the ids stay dense; the algorithm verifies as a DAG.
        assert_eq!(alg.operands.len(), doubled_product().operands.len() - 1);
        assert_eq!(alg.output().unwrap().id, OperandId(3));
        assert_eq!(alg.calls[1].output, OperandId(3));
        assert!(alg.is_well_formed());
        assert_eq!(alg.flops(), doubled_product().shared_flops());
    }

    #[test]
    fn cse_is_idempotent() {
        let once = eliminate_common_subexpressions(&doubled_product()).algorithm;
        let twice = eliminate_common_subexpressions(&once);
        assert_eq!(twice.eliminated_calls, 0);
        assert_eq!(twice.algorithm, once);
    }

    #[test]
    fn algorithms_without_duplicates_are_untouched() {
        let alg = Algorithm {
            name: "plain".into(),
            operands: vec![
                operand(0, 4, 4, OperandRole::Input, "A"),
                operand(1, 4, 4, OperandRole::Input, "B"),
                operand(2, 4, 4, OperandRole::Output, "X"),
            ],
            calls: vec![KernelCall {
                op: op_gemm(4, 4, 4),
                inputs: [OperandId(0), OperandId(1)].into(),
                output: OperandId(2),
                label: "X := A*B".into(),
            }],
        };
        let outcome = eliminate_common_subexpressions(&alg);
        assert_eq!(outcome.eliminated_calls, 0);
        assert_eq!(outcome.eliminated_flops, 0);
        assert_eq!(outcome.algorithm, alg);
        assert_eq!(alg.shared_flops(), alg.flops());
    }

    #[test]
    fn duplicate_output_production_is_kept_and_charged() {
        // M1 := A·B, X := A·B — the second call writes the output, so it must
        // survive (the output is produced by the final call) and stay charged.
        let alg = Algorithm {
            name: "dup-out".into(),
            operands: vec![
                operand(0, 4, 4, OperandRole::Input, "A"),
                operand(1, 4, 4, OperandRole::Input, "B"),
                operand(2, 4, 4, OperandRole::Intermediate, "M1"),
                operand(3, 4, 4, OperandRole::Output, "X"),
            ],
            calls: vec![
                KernelCall {
                    op: op_gemm(4, 4, 4),
                    inputs: [OperandId(0), OperandId(1)].into(),
                    output: OperandId(2),
                    label: "M1 := A*B".into(),
                },
                KernelCall {
                    op: op_gemm(4, 4, 4),
                    inputs: [OperandId(2), OperandId(2)].into(),
                    output: OperandId(3),
                    label: "X := M1*M1".into(),
                },
            ],
        };
        // No duplicates here, but force the boundary: a direct duplicate of
        // the output write.
        let mut dup = alg.clone();
        dup.calls.push(dup.calls[1].clone());
        let outcome = eliminate_common_subexpressions(&dup);
        assert_eq!(outcome.algorithm.calls.len(), 3);
        assert_eq!(outcome.eliminated_flops, 0);
        assert_eq!(
            outcome.algorithm.calls.last().unwrap().output,
            OperandId(3),
            "the output stays produced last"
        );
    }

    #[test]
    fn in_place_copies_are_deduplicated_via_their_representative() {
        // SYRK → M1 (triangle), complete M1; SYRK → M2 (same value),
        // complete M2; X := M1·M2. CSE merges the SYRKs *and* the copies.
        let syrk = KernelOp::Syrk {
            uplo: Uplo::Lower,
            trans: Trans::No,
            n: 6,
            k: 3,
        };
        let copy = KernelOp::CopyTriangle {
            uplo: Uplo::Lower,
            n: 6,
        };
        let alg = Algorithm {
            name: "gram-twice".into(),
            operands: vec![
                operand(0, 6, 3, OperandRole::Input, "A"),
                operand(1, 6, 6, OperandRole::Intermediate, "M1"),
                operand(2, 6, 6, OperandRole::Intermediate, "M2"),
                operand(3, 6, 6, OperandRole::Output, "X"),
            ],
            calls: vec![
                KernelCall {
                    op: syrk.clone(),
                    inputs: [OperandId(0)].into(),
                    output: OperandId(1),
                    label: "M1 := A*A^T".into(),
                },
                KernelCall {
                    op: copy.clone(),
                    inputs: [OperandId(1)].into(),
                    output: OperandId(1),
                    label: "M1 full".into(),
                },
                KernelCall {
                    op: syrk.clone(),
                    inputs: [OperandId(0)].into(),
                    output: OperandId(2),
                    label: "M2 := A*A^T".into(),
                },
                KernelCall {
                    op: copy.clone(),
                    inputs: [OperandId(2)].into(),
                    output: OperandId(2),
                    label: "M2 full".into(),
                },
                KernelCall {
                    op: op_gemm(6, 6, 6),
                    inputs: [OperandId(1), OperandId(2)].into(),
                    output: OperandId(3),
                    label: "X := M1*M2".into(),
                },
            ],
        };
        let outcome = eliminate_common_subexpressions(&alg);
        assert_eq!(outcome.eliminated_calls, 2, "{}", outcome.algorithm);
        assert_eq!(outcome.eliminated_flops, syrk.flops());
        assert_eq!(outcome.algorithm.calls.len(), 3);
        assert!(outcome.algorithm.is_well_formed());
        assert_eq!(
            *outcome.algorithm.calls[2].inputs,
            [OperandId(1), OperandId(1)]
        );
    }

    /// The keys [`factor_keys`] streams for `alg`.
    fn keys_of(alg: &Algorithm) -> Vec<(usize, FactorKey)> {
        factor_keys(alg).collect()
    }

    #[test]
    fn factor_keys_match_duplicates_distinguish_leaves_and_advance_on_copy() {
        let syrk = KernelOp::Syrk {
            uplo: Uplo::Lower,
            trans: Trans::No,
            n: 4,
            k: 2,
        };
        let copy = KernelOp::CopyTriangle {
            uplo: Uplo::Lower,
            n: 4,
        };
        let potrf = KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 4,
        };
        let call = |op: &KernelOp, input: usize, output: usize| KernelCall {
            op: op.clone(),
            inputs: [OperandId(input)].into(),
            output: OperandId(output),
            label: "".into(),
        };
        // M1 := A*A^T, M2 := A*A^T, M3 := B*B^T, L := chol(full(M1)).
        let alg = Algorithm {
            name: "grams".into(),
            operands: vec![
                operand(0, 4, 2, OperandRole::Input, "A"),
                operand(1, 4, 2, OperandRole::Input, "B"),
                operand(2, 4, 4, OperandRole::Intermediate, "M1"),
                operand(3, 4, 4, OperandRole::Intermediate, "M2"),
                operand(4, 4, 4, OperandRole::Intermediate, "M3"),
                operand(5, 4, 4, OperandRole::Output, "L"),
            ],
            calls: vec![
                call(&syrk, 0, 2),
                call(&syrk, 0, 3),
                call(&syrk, 1, 4),
                call(&copy, 2, 2),
                call(&potrf, 2, 5),
            ],
        };
        let keys = keys_of(&alg);
        let indices: Vec<usize> = keys.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, [0, 1, 2, 4], "the copy is not cacheable");
        // Duplicate computations share a key; different leaves never do.
        assert_eq!(keys[0].1, keys[1].1);
        assert_ne!(keys[0].1, keys[2].1);
        // The in-place copy re-keys its operand: a factorisation of the
        // completed Gram matrix is not one of the one-triangle value.
        let mut uncopied = alg.clone();
        uncopied.calls.remove(3);
        assert_ne!(keys_of(&uncopied)[3].1, keys[3].1);
        // The key is a function of the algorithm alone.
        assert_eq!(keys_of(&alg.clone()), keys);
    }

    #[test]
    fn factor_keys_report_factor_producing_calls() {
        let potrf = KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 5,
        };
        let trsm = KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 5,
            n: 2,
        };
        let alg = Algorithm {
            name: "solve".into(),
            operands: vec![
                OperandInfo {
                    id: OperandId(0),
                    rows: 5,
                    cols: 5,
                    role: OperandRole::Input,
                    name: "S".into(),
                    structure: Structure::Spd,
                },
                operand(1, 5, 2, OperandRole::Input, "B"),
                OperandInfo {
                    id: OperandId(2),
                    rows: 5,
                    cols: 5,
                    role: OperandRole::Intermediate,
                    name: "L".into(),
                    structure: Structure::Triangular(Uplo::Lower),
                },
                operand(3, 5, 2, OperandRole::Output, "X"),
            ],
            calls: vec![
                KernelCall {
                    op: potrf,
                    inputs: [OperandId(0)].into(),
                    output: OperandId(2),
                    label: "L := chol(S)".into(),
                },
                KernelCall {
                    op: trsm,
                    inputs: [OperandId(2), OperandId(1)].into(),
                    output: OperandId(3),
                    label: "X := L\\B".into(),
                },
            ],
        };
        // The TRSM reads a right-hand side, so only the POTRF is yielded.
        let cacheable = keys_of(&alg);
        assert_eq!(cacheable.len(), 1);
        assert_eq!(cacheable[0].0, 0);
        // Keys are whole-subtree canonical: another right-hand side leaves
        // the POTRF's key alone.
        let mut other = alg.clone();
        other.operands[1].id = OperandId(4);
        other.calls[1].inputs = [OperandId(2), OperandId(4)].into();
        assert_eq!(keys_of(&other), cacheable);
        // GEMM is not a factor-producing op.
        assert!(!is_cacheable_op(&op_gemm(3, 3, 3)));
    }

    #[test]
    fn cacheable_ops_are_the_one_input_ops_that_write_a_fresh_operand() {
        let cacheable: Vec<&str> = KernelOp::examples(4)
            .iter()
            .filter(|op| is_cacheable_op(op))
            .map(KernelOp::mnemonic)
            .collect();
        assert_eq!(cacheable, ["syrk", "potrf", "getrf", "qr", "factortri"]);
    }
}
