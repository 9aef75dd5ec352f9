//! The kernel-call intermediate representation.
//!
//! A [`KernelCall`] is one invocation of a [`KernelOp`] — a BLAS-3 kernel, a
//! factorisation, or a zero-FLOP data mover such as the triangle-to-full copy
//! that Algorithm 2 of `A·Aᵀ·B` needs — on symbolic operands. The vocabulary
//! itself lives beside the kernels in [`lamb_kernels::op`]; this crate
//! re-exports it.

use crate::operand::OperandId;
pub use lamb_kernels::op::KernelOp;
use std::fmt;

/// One kernel invocation on symbolic operands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelCall {
    /// The operation and its dimensions.
    pub op: KernelOp,
    /// Operands read by the call, in kernel argument order.
    pub inputs: Vec<OperandId>,
    /// Operand written by the call.
    pub output: OperandId,
    /// Human-readable description, e.g. `"M1 := A*B"`.
    pub label: String,
}

impl KernelCall {
    /// FLOP count of this call.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.op.flops()
    }

    /// Whether `operand` is read by this call.
    #[must_use]
    pub fn reads(&self, operand: OperandId) -> bool {
        self.inputs.contains(&operand)
    }
}

impl fmt::Display for KernelCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.label, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_matrix::Trans;

    #[test]
    fn call_reads_tracks_inputs() {
        let call = KernelCall {
            op: KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: 2,
                n: 2,
                k: 2,
            },
            inputs: vec![OperandId(0), OperandId(1)],
            output: OperandId(4),
            label: "M1 := A*B".into(),
        };
        assert!(call.reads(OperandId(0)));
        assert!(!call.reads(OperandId(4)));
        assert_eq!(call.flops(), 16);
        assert!(call.to_string().contains("M1 := A*B"));
    }
}
