//! Algorithms: ordered sequences of kernel calls over symbolic operands.

use crate::kernel_call::KernelCall;
use crate::operand::OperandId;
use crate::shared_str::SharedStr;
use lamb_matrix::{Structure, Uplo};
use std::collections::HashSet;
use std::fmt;

/// The role an operand plays inside an algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandRole {
    /// An input matrix of the expression (`A`, `B`, ...).
    Input,
    /// An intermediate result produced by one call and consumed by another.
    Intermediate,
    /// The final result of the expression.
    Output,
}

/// Shape and bookkeeping information for one symbolic operand.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OperandInfo {
    /// Identifier used by the kernel calls.
    pub id: OperandId,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Whether the operand is an input, an intermediate, or the output.
    pub role: OperandRole,
    /// Human-readable name (`"A"`, `"M1"`, ...).
    pub name: SharedStr,
    /// The operand's known structure: triangular (elements outside the
    /// stored triangle are structurally zero), symmetric positive definite
    /// (stored in full), or general. Executors use this to materialise
    /// structured inputs consistently across every algorithm variant of an
    /// expression — a TRMM that reads only the triangle, a SYMM that reads
    /// one triangle of an SPD operand and a GEMM that reads the whole matrix
    /// must all see the same mathematical operand.
    pub structure: Structure,
}

impl OperandInfo {
    /// The stored triangle when the operand is triangular.
    #[must_use]
    pub fn triangle(&self) -> Option<Uplo> {
        self.structure.triangle()
    }

    /// Number of elements of the operand.
    #[must_use]
    pub fn elements(&self) -> u64 {
        (self.rows as u64).saturating_mul(self.cols as u64)
    }

    /// Size in bytes assuming `f64` storage.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.elements().saturating_mul(8)
    }
}

/// A mathematically complete evaluation strategy for an expression instance:
/// an ordered sequence of kernel calls plus the operand table they reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Algorithm {
    /// Human-readable name, e.g. `"Chain alg 1: ((AB)C)D"`.
    pub name: SharedStr,
    /// All operands referenced by the calls.
    pub operands: Vec<OperandInfo>,
    /// The kernel calls in execution order.
    pub calls: Vec<KernelCall>,
}

impl Algorithm {
    /// Total FLOP count: the sum of the per-call FLOP models (Section 3.1 of
    /// the paper), saturating at `u64::MAX` like each of them.
    #[must_use]
    pub fn flops(&self) -> u64 {
        saturating_sum(self.calls.iter().map(KernelCall::flops))
    }

    /// Look up an operand by id.
    #[must_use]
    pub fn operand(&self, id: OperandId) -> Option<&OperandInfo> {
        self.operands.get(id.index()).filter(|o| o.id == id)
    }

    /// The operands that are inputs of the expression.
    pub fn inputs(&self) -> impl Iterator<Item = &OperandInfo> {
        self.operands
            .iter()
            .filter(|o| o.role == OperandRole::Input)
    }

    /// The operand holding the final result.
    #[must_use]
    pub fn output(&self) -> Option<&OperandInfo> {
        self.operands.iter().find(|o| o.role == OperandRole::Output)
    }

    /// Comma-separated list of kernel mnemonics, e.g. `"syrk,symm"`. This is
    /// the notation used in the per-algorithm rows of the paper's Figure 11.
    #[must_use]
    pub fn kernel_summary(&self) -> String {
        self.calls
            .iter()
            .map(|c| c.op.mnemonic())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Total number of elements written across all calls (a crude proxy for
    /// memory traffic, used by some time models).
    #[must_use]
    pub fn output_traffic_elements(&self) -> u64 {
        saturating_sum(self.calls.iter().map(|c| c.op.output_elements()))
    }

    /// Validate internal consistency: the operand ids are dense (operand `i`
    /// of the table has id `i`, which is what lets [`Algorithm::operand`] and
    /// the executors index by id), every call's inputs must be produced by an
    /// earlier call or be expression inputs, every call's output must be in
    /// the operand table, and exactly one operand must be the output.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        let dense = (self.operands.iter().enumerate()).all(|(i, o)| o.id == OperandId(i));
        if !dense {
            return false;
        }
        let mut produced: HashSet<OperandId> = self
            .operands
            .iter()
            .filter(|o| o.role == OperandRole::Input)
            .map(|o| o.id)
            .collect();
        for call in &self.calls {
            if self.operand(call.output).is_none() {
                return false;
            }
            for input in &call.inputs {
                if !produced.contains(input) {
                    return false;
                }
            }
            produced.insert(call.output);
        }
        let outputs = self
            .operands
            .iter()
            .filter(|o| o.role == OperandRole::Output)
            .count();
        outputs == 1
    }
}

/// The sum of `counts`, saturating at `u64::MAX`.
pub(crate) fn saturating_sum(counts: impl Iterator<Item = u64>) -> u64 {
    counts.fold(0, u64::saturating_add)
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} FLOPs)", self.name, self.flops())?;
        for call in &self.calls {
            writeln!(f, "  {call}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_call::KernelOp;
    use lamb_matrix::Trans;

    fn toy_algorithm() -> Algorithm {
        // M1 := A*B ; X := M1*C for A(2x3), B(3x4), C(4x5).
        Algorithm {
            name: "toy".into(),
            operands: vec![
                OperandInfo {
                    id: OperandId(0),
                    rows: 2,
                    cols: 3,
                    role: OperandRole::Input,
                    structure: lamb_matrix::Structure::General,
                    name: "A".into(),
                },
                OperandInfo {
                    id: OperandId(1),
                    rows: 3,
                    cols: 4,
                    role: OperandRole::Input,
                    structure: lamb_matrix::Structure::General,
                    name: "B".into(),
                },
                OperandInfo {
                    id: OperandId(2),
                    rows: 4,
                    cols: 5,
                    role: OperandRole::Input,
                    structure: lamb_matrix::Structure::General,
                    name: "C".into(),
                },
                OperandInfo {
                    id: OperandId(3),
                    rows: 2,
                    cols: 4,
                    role: OperandRole::Intermediate,
                    structure: lamb_matrix::Structure::General,
                    name: "M1".into(),
                },
                OperandInfo {
                    id: OperandId(4),
                    rows: 2,
                    cols: 5,
                    role: OperandRole::Output,
                    structure: lamb_matrix::Structure::General,
                    name: "X".into(),
                },
            ],
            calls: vec![
                KernelCall {
                    op: KernelOp::Gemm {
                        transa: Trans::No,
                        transb: Trans::No,
                        m: 2,
                        n: 4,
                        k: 3,
                    },
                    inputs: [OperandId(0), OperandId(1)].into(),
                    output: OperandId(3),
                    label: "M1 := A*B".into(),
                },
                KernelCall {
                    op: KernelOp::Gemm {
                        transa: Trans::No,
                        transb: Trans::No,
                        m: 2,
                        n: 5,
                        k: 4,
                    },
                    inputs: [OperandId(3), OperandId(2)].into(),
                    output: OperandId(4),
                    label: "X := M1*C".into(),
                },
            ],
        }
    }

    #[test]
    fn flops_sum_over_calls() {
        let alg = toy_algorithm();
        assert_eq!(alg.flops(), 2 * 2 * 4 * 3 + 2 * 2 * 5 * 4);
    }

    #[test]
    fn operand_lookup_and_roles() {
        let alg = toy_algorithm();
        assert_eq!(alg.operand(OperandId(3)).unwrap().name, "M1");
        assert_eq!(alg.inputs().count(), 3);
        assert_eq!(alg.output().unwrap().name, "X");
        assert_eq!(alg.operand(OperandId(3)).unwrap().elements(), 8);
        assert_eq!(alg.operand(OperandId(3)).unwrap().bytes(), 64);
    }

    #[test]
    fn well_formedness_checks_dataflow() {
        let mut alg = toy_algorithm();
        assert!(alg.is_well_formed());
        // Reading an operand that is never produced breaks well-formedness.
        alg.calls[0].inputs[0] = OperandId(99);
        assert!(!alg.is_well_formed());
    }

    #[test]
    fn well_formedness_requires_dense_operand_ids() {
        // Renumbering M1 from #3 to #7 keeps the dataflow intact but leaves
        // a hole in the ids: the table can no longer be indexed by id.
        let mut alg = toy_algorithm();
        alg.operands[3].id = OperandId(7);
        alg.calls[0].output = OperandId(7);
        alg.calls[1].inputs[0] = OperandId(7);
        assert!(!alg.is_well_formed());
        assert!(alg.operand(OperandId(3)).is_none());
        assert!(
            alg.operand(OperandId(7)).is_none(),
            "the slot holds a different id"
        );
        // Out of table order is sparse too: ids must match positions.
        let mut swapped = toy_algorithm();
        swapped.operands.swap(0, 1);
        assert!(!swapped.is_well_formed());
        assert!(swapped.operand(OperandId(0)).is_none());
    }

    #[test]
    fn well_formedness_requires_single_output() {
        let mut alg = toy_algorithm();
        alg.operands[3].role = OperandRole::Output;
        assert!(!alg.is_well_formed());
    }

    #[test]
    fn kernel_summary_and_display() {
        let alg = toy_algorithm();
        assert_eq!(alg.kernel_summary(), "gemm,gemm");
        let text = alg.to_string();
        assert!(text.contains("toy"));
        assert!(text.contains("M1 := A*B"));
    }

    #[test]
    fn output_traffic_counts_written_elements() {
        let alg = toy_algorithm();
        assert_eq!(alg.output_traffic_elements(), 8 + 10);
    }
}
