//! Pass-based static analyser for the lamb kernel-call IR.
//!
//! Every ranking the planner produces rests on the kernel-call algorithms the
//! enumerator emits being *sound*: operands defined before use, shapes
//! conforming, structural claims (triangular, SPD, symmetric) true along the
//! call sequence, FLOP/traffic models consistent with the operand table, and
//! no kernel reading an operand it writes. This crate checks all of that
//! statically — no numerics, no execution — and reports findings as
//! structured [`Diagnostic`]s.
//!
//! # Passes
//!
//! [`verify_algorithm`] runs five passes in order:
//!
//! 1. **def-use** ([`PassId::DefUse`]) — SSA discipline over the call
//!    sequence: intermediates produced exactly once, read only after
//!    production, never dead; the output is produced last.
//! 2. **shape-flow** ([`PassId::ShapeFlow`]) — operand dimensions recomputed
//!    from the operand table conform per kernel op, degenerate 0/1
//!    dimensions included.
//! 3. **structure-flow** ([`PassId::StructureFlow`]) — triangular/SPD
//!    declarations and triangle-only storage states are sound: TRMM/TRSM get
//!    a matching declared triangle, POTRF gets SPD, SYMM's symmetric operand
//!    is provably symmetric, triangle-only SYRK results are only read in
//!    triangle-tolerant ways.
//! 4. **cost-audit** ([`PassId::CostAudit`]) — claimed logical dimensions,
//!    FLOPs and written elements diffed against an independent recomputation;
//!    every timing key is a canonicalisation fixpoint.
//! 5. **alias-safety** ([`PassId::AliasSafety`]) — no compute kernel reads
//!    the operand it writes; the in-place triangle copy is the one sanctioned
//!    exception.
//!
//! # Example
//!
//! ```
//! use lamb_expr::{enumerate_expr_algorithms, Expr};
//! use lamb_verify::VerifyExt;
//!
//! let a = Expr::var("A", 60, 40);
//! let b = Expr::var("B", 40, 50);
//! let c = Expr::var("C", 50, 30);
//! for alg in enumerate_expr_algorithms(&a.mul(b).mul(c), None).unwrap() {
//!     let report = alg.verify();
//!     assert!(report.is_clean(), "{report}");
//! }
//! ```
//!
//! Timing-table hygiene has its own entry points: [`verify_call_table`] and
//! [`verify_timing_keys`] check that every key of a [`CallTimeTable`] is
//! canonical under [`KernelOp::timing_key`], the invariant whose violation
//! silently splits one benchmark entry into several (the planner then ranks
//! on stale or missing times). [`verify_shared_flop_claim`] audits the CSE
//! pass's deduplicated (shared) FLOP totals against an independent
//! value-numbering re-derivation, catching claims that double-charge a
//! merged call or skip a distinct one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod diagnostic;
mod passes;

pub use diagnostic::{Diagnostic, PassId, Report, Severity};
pub use passes::cost_audit::{verify_call_table, verify_shared_flop_claim, verify_timing_keys};

use lamb_expr::Algorithm;
#[cfg(doc)]
use lamb_expr::KernelOp;
#[cfg(doc)]
use lamb_perfmodel::CallTimeTable;

/// Run all five analysis passes over `alg` and collect their findings.
///
/// The report is *clean* ([`Report::is_clean`]) when no pass found an
/// [`Severity::Error`]; warnings (unused inputs, redundant copies) do not
/// make a report unclean.
#[must_use]
pub fn verify_algorithm(alg: &Algorithm) -> Report {
    let mut report = Report::new();
    passes::def_use::run(alg, &mut report);
    let shape_failed = passes::shape_flow::run(alg, &mut report);
    passes::structure_flow::run(alg, &mut report);
    passes::cost_audit::run(alg, &shape_failed, &mut report);
    passes::alias::run(alg, &mut report);
    report
}

/// Extension trait hanging [`verify_algorithm`] off [`Algorithm`] itself.
///
/// Lives here rather than on `Algorithm` directly because `lamb-verify`
/// depends on `lamb-expr` (it reads the IR); the inherent method would
/// invert that edge.
pub trait VerifyExt {
    /// Run the full verification pipeline; see [`verify_algorithm`].
    fn verify(&self) -> Report;
}

impl VerifyExt for Algorithm {
    fn verify(&self) -> Report {
        verify_algorithm(self)
    }
}

/// Debug-build gate: panic with the full report if `alg` does not verify
/// cleanly. Compiled to a no-op in release builds, so the planner and
/// enumerator can call it on every candidate without perturbing timings.
///
/// # Panics
///
/// In debug builds, when [`verify_algorithm`] reports any error.
pub fn debug_assert_verified(alg: &Algorithm) {
    if cfg!(debug_assertions) {
        let report = verify_algorithm(alg);
        assert!(
            report.is_clean(),
            "algorithm `{}` failed verification:\n{report}",
            alg.name
        );
    }
}
