//! The kernel-call intermediate representation.
//!
//! A [`KernelCall`] is one invocation of a [`KernelOp`] — a BLAS-3 kernel, a
//! factorisation, or a zero-FLOP data mover such as the triangle-to-full copy
//! that Algorithm 2 of `A·Aᵀ·B` needs — on symbolic operands. The vocabulary
//! itself lives beside the kernels in [`lamb_kernels::op`]; this crate
//! re-exports it.

use crate::operand::OperandId;
use crate::shared_str::SharedStr;
pub use lamb_kernels::op::KernelOp;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The operands a call reads, in kernel argument order: at most
/// [`CallInputs::CAPACITY`] (every kernel takes one or two), held inline, so
/// building, cloning and comparing a call allocates nothing. It reads as a
/// slice and prints like a `Vec`.
#[derive(Clone, Copy)]
pub struct CallInputs {
    ids: [OperandId; CallInputs::CAPACITY],
    len: usize,
}

impl CallInputs {
    /// The most operands a call reads.
    pub const CAPACITY: usize = 2;

    /// The inputs `ids`.
    ///
    /// # Panics
    ///
    /// Panics if `ids` holds more than [`CallInputs::CAPACITY`] operands.
    #[must_use]
    pub fn new(ids: &[OperandId]) -> Self {
        assert!(
            ids.len() <= Self::CAPACITY,
            "a kernel call reads at most {} operands, not {}",
            Self::CAPACITY,
            ids.len()
        );
        let mut inputs = CallInputs {
            ids: [OperandId(0); Self::CAPACITY],
            len: ids.len(),
        };
        inputs.ids[..ids.len()].copy_from_slice(ids);
        inputs
    }
}

impl Deref for CallInputs {
    type Target = [OperandId];

    fn deref(&self) -> &[OperandId] {
        &self.ids[..self.len]
    }
}

impl DerefMut for CallInputs {
    fn deref_mut(&mut self) -> &mut [OperandId] {
        &mut self.ids[..self.len]
    }
}

impl PartialEq for CallInputs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CallInputs {}

impl Hash for CallInputs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for CallInputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<&[OperandId]> for CallInputs {
    fn from(ids: &[OperandId]) -> Self {
        CallInputs::new(ids)
    }
}

impl<const N: usize> From<[OperandId; N]> for CallInputs {
    fn from(ids: [OperandId; N]) -> Self {
        CallInputs::new(&ids)
    }
}

impl FromIterator<OperandId> for CallInputs {
    fn from_iter<I: IntoIterator<Item = OperandId>>(ids: I) -> Self {
        let mut inputs = CallInputs::new(&[]);
        for id in ids {
            assert!(
                inputs.len < Self::CAPACITY,
                "a kernel call reads at most {} operands",
                Self::CAPACITY
            );
            inputs.ids[inputs.len] = id;
            inputs.len += 1;
        }
        inputs
    }
}

impl<'a> IntoIterator for &'a CallInputs {
    type Item = &'a OperandId;
    type IntoIter = std::slice::Iter<'a, OperandId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut CallInputs {
    type Item = &'a mut OperandId;
    type IntoIter = std::slice::IterMut<'a, OperandId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// One kernel invocation on symbolic operands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelCall {
    /// The operation and its dimensions.
    pub op: KernelOp,
    /// Operands read by the call, in kernel argument order.
    pub inputs: CallInputs,
    /// Operand written by the call.
    pub output: OperandId,
    /// Human-readable description, e.g. `"M1 := A*B"`.
    pub label: SharedStr,
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
            inputs: [OperandId(0), OperandId(1)].into(),
            output: OperandId(4),
            label: "M1 := A*B".into(),
        };
        assert!(call.reads(OperandId(0)));
        assert!(!call.reads(OperandId(4)));
        assert_eq!(call.flops(), 16);
        assert!(call.to_string().contains("M1 := A*B"));
    }
}
