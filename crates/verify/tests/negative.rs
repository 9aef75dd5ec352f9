//! Negative-path coverage: one seeded mutation per analysis pass, each
//! asserting that the *intended* pass rejects it, anchored to the mutated
//! call. Mutations are applied to algorithms the real enumerators produced,
//! so everything else about the IR stays legitimate.

use lamb_expr::{
    enumerate_expr_algorithms, Algorithm, Expr, Expression, KernelOp, OperandId, OperandInfo,
    OperandRole, TreeExpression,
};
use lamb_matrix::{Side, Structure, Trans, Uplo};
use lamb_perfmodel::calibrate::single_call_algorithm;
use lamb_perfmodel::CallTimeTable;
use lamb_verify::{verify_algorithm, verify_call_table, verify_timing_keys, PassId};

/// A four-matrix chain algorithm — pure GEMM, structurally trivial, ideal
/// for mutations that should trip exactly one pass.
fn chain_algorithm() -> Algorithm {
    let chain = TreeExpression::parse("A*B*C*D").unwrap();
    chain.algorithms(&[60, 50, 40, 30, 20]).unwrap().remove(0)
}

#[test]
fn def_use_rejects_reordered_calls() {
    let mut alg = chain_algorithm();
    assert!(verify_algorithm(&alg).is_clean());
    // Swap the first two calls: call #0 now reads an intermediate produced
    // only by call #1.
    alg.calls.swap(0, 1);
    let report = verify_algorithm(&alg);
    let finding = report
        .errors_from(PassId::DefUse)
        .next()
        .expect("def-use must reject the reordered calls");
    assert_eq!(finding.call_index, Some(0));
    assert!(finding.message.contains("before any call produces it"));
}

#[test]
fn def_use_rejects_dead_intermediate() {
    let mut alg = chain_algorithm();
    // Redirect the final call's intermediate read to an expression input:
    // the intermediate it used to read becomes dead.
    let last = alg.calls.len() - 1;
    let dead = alg.calls[last]
        .inputs
        .iter()
        .copied()
        .find(|&id| {
            alg.operand(id)
                .is_some_and(|o| o.role == OperandRole::Intermediate)
        })
        .expect("final chain call reads an intermediate");
    let input = alg
        .operands
        .iter()
        .find(|o| o.role == OperandRole::Input && o.rows == alg.operand(dead).unwrap().rows)
        .map(|o| o.id);
    // Shapes may no longer conform — that is fine, this test pins the
    // def-use finding specifically.
    let replacement = input.unwrap_or(OperandId(0));
    for slot in &mut alg.calls[last].inputs {
        if *slot == dead {
            *slot = replacement;
        }
    }
    let report = verify_algorithm(&alg);
    let finding = report
        .errors_from(PassId::DefUse)
        .find(|d| d.operand == Some(dead))
        .expect("def-use must report the dead intermediate");
    assert!(finding.message.contains("dead intermediate"));
}

#[test]
fn shape_flow_rejects_swapped_gemm_inputs() {
    let mut alg = chain_algorithm();
    // Swapping a GEMM's factors breaks inner-dimension conformance (the
    // chain dimensions are strictly decreasing, so no pair commutes).
    alg.calls[0].inputs.swap(0, 1);
    let report = verify_algorithm(&alg);
    let finding = report
        .errors_from(PassId::ShapeFlow)
        .next()
        .expect("shape-flow must reject swapped gemm inputs");
    assert_eq!(finding.call_index, Some(0));
    assert!(finding.message.contains("do not conform"));
    // The cost audit skips shape-failed calls: the defect is attributed to
    // shape-flow alone.
    assert_eq!(report.errors_from(PassId::CostAudit).count(), 0);
}

#[test]
fn structure_flow_rejects_wrong_trsm_uplo() {
    // A Cholesky solve: potrf, then two triangular solves against the factor.
    let expr = Expr::spd_var("S", 40).inv().mul(Expr::var("B", 40, 25));
    let algs = enumerate_expr_algorithms(&expr, None).unwrap();
    let mut alg = algs
        .into_iter()
        .find(|a| {
            a.calls
                .iter()
                .any(|c| matches!(c.op, KernelOp::Potrf { .. }))
        })
        .expect("an SPD solve must offer a Cholesky algorithm");
    assert!(verify_algorithm(&alg).is_clean());
    let (i, call) = alg
        .calls
        .iter_mut()
        .enumerate()
        .find(|(_, c)| matches!(c.op, KernelOp::Trsm { .. }))
        .expect("cholesky solve contains a trsm");
    // Flip the solve's stored-triangle flag: it now claims to read the
    // upper triangle of a factor declared lower-triangular.
    if let KernelOp::Trsm { ref mut uplo, .. } = call.op {
        *uplo = uplo.flip();
    }
    let report = verify_algorithm(&alg);
    let finding = report
        .errors_from(PassId::StructureFlow)
        .next()
        .expect("structure-flow must reject the flipped trsm uplo");
    assert_eq!(finding.call_index, Some(i));
    assert!(finding.message.contains("triangle"));
}

#[test]
fn structure_flow_rejects_symm_on_undeclared_symmetry() {
    // Regression for the calibration-fixture defect this analyser surfaced:
    // `single_call_algorithm` used to declare SYMM's symmetric operand
    // `Structure::General`, claiming symmetry the operand table does not
    // back. The fixed fixture is clean; the old spelling is rejected.
    let op = KernelOp::Symm {
        side: Side::Left,
        uplo: Uplo::Lower,
        m: 12,
        n: 9,
    };
    let fixed = single_call_algorithm(op.clone());
    assert!(verify_algorithm(&fixed).is_clean());

    let mut old = fixed;
    old.operands[0].structure = Structure::General;
    let report = verify_algorithm(&old);
    let finding = report
        .errors_from(PassId::StructureFlow)
        .next()
        .expect("structure-flow must reject an undeclared-symmetric symm operand");
    assert_eq!(finding.call_index, Some(0));
    assert!(finding.message.contains("not known symmetric"));
}

#[test]
fn structure_flow_rejects_general_potrf_factor() {
    // Companion regression: the POTRF fixture's factor must be declared
    // triangular, as the enumerator declares it everywhere else in the IR.
    let fixed = single_call_algorithm(KernelOp::Potrf {
        uplo: Uplo::Lower,
        n: 15,
    });
    assert!(verify_algorithm(&fixed).is_clean());
    let mut old = fixed;
    let out = old
        .operands
        .iter()
        .position(|o| o.role == OperandRole::Output)
        .unwrap();
    old.operands[out].structure = Structure::General;
    let report = verify_algorithm(&old);
    let finding = report
        .errors_from(PassId::StructureFlow)
        .next()
        .expect("structure-flow must require a triangular potrf factor");
    assert_eq!(finding.call_index, Some(0));
    assert!(finding.message.contains("potrf factor"));
}

#[test]
fn structure_flow_rejects_missing_triangle_copy() {
    // AATB algorithm 2 computes M := A·Aᵀ by SYRK (lower triangle only),
    // completes it with an in-place copy, then GEMMs. Deleting the copy
    // leaves GEMM reading a half-written matrix.
    let aatb = TreeExpression::parse("A*A^T*B").unwrap();
    let algs = aatb.algorithms(&[100, 80, 60]).unwrap();
    let mut alg = algs
        .into_iter()
        .find(|a| {
            a.calls
                .iter()
                .any(|c| matches!(c.op, KernelOp::CopyTriangle { .. }))
                && a.calls
                    .iter()
                    .any(|c| matches!(c.op, KernelOp::Gemm { .. }))
        })
        .expect("aatb offers a syrk+copy+gemm algorithm");
    assert!(verify_algorithm(&alg).is_clean());
    let copy_index = alg
        .calls
        .iter()
        .position(|c| matches!(c.op, KernelOp::CopyTriangle { .. }))
        .unwrap();
    alg.calls.remove(copy_index);
    let report = verify_algorithm(&alg);
    let finding = report
        .errors_from(PassId::StructureFlow)
        .next()
        .expect("structure-flow must reject the missing triangle copy");
    assert!(finding.message.contains("missing triangle copy"));
}

#[test]
fn cost_audit_rejects_forged_gemm_dimensions() {
    let mut alg = chain_algorithm();
    // Bump the contracted dimension: operands still conform among
    // themselves, so shape-flow stays silent — only the cost audit can see
    // the claimed k (and hence the FLOP count) is forged.
    if let KernelOp::Gemm { ref mut k, .. } = alg.calls[0].op {
        *k += 1;
    } else {
        panic!("chain call 0 is a gemm");
    }
    let report = verify_algorithm(&alg);
    assert_eq!(report.errors_from(PassId::ShapeFlow).count(), 0);
    let findings: Vec<_> = report.errors_from(PassId::CostAudit).collect();
    assert!(
        findings
            .iter()
            .any(|d| d.call_index == Some(0) && d.message.contains("claims logical dimensions")),
        "cost audit must flag the forged dimensions:\n{report}"
    );
    assert!(
        findings
            .iter()
            .any(|d| d.call_index == Some(0) && d.message.contains("FLOPs")),
        "cost audit must flag the forged FLOP count:\n{report}"
    );
}

#[test]
fn alias_safety_rejects_in_place_gemm() {
    let mut alg = chain_algorithm();
    // Make the final GEMM read the operand it writes.
    let last = alg.calls.len() - 1;
    let out = alg.calls[last].output;
    alg.calls[last].inputs[1] = out;
    let report = verify_algorithm(&alg);
    let finding = report
        .errors_from(PassId::AliasSafety)
        .next()
        .expect("alias-safety must reject the self-aliasing gemm");
    assert_eq!(finding.call_index, Some(last));
    assert_eq!(finding.operand, Some(out));
    assert!(finding.message.contains("in-place aliasing"));
}

#[test]
fn timing_key_lint_rejects_non_canonical_table_keys() {
    // The PR-5 cache-poisoning class: a transposed GEMM used directly as a
    // table key splits one benchmark entry into two.
    let non_canonical = KernelOp::Gemm {
        transa: Trans::Yes,
        transb: Trans::No,
        m: 64,
        n: 48,
        k: 32,
    };
    let report = verify_timing_keys([&non_canonical]);
    let finding = report
        .errors_from(PassId::CostAudit)
        .next()
        .expect("a non-canonical table key must be rejected");
    assert!(finding.message.contains("not canonical"));

    let canonical = non_canonical.timing_key();
    assert!(verify_timing_keys([&canonical]).is_clean());

    // `CallTimeTable` canonicalises on every ingest path, so any table built
    // through the public API passes — even from non-canonical entries.
    let table = CallTimeTable::from_entries(vec![(non_canonical, 1.5e-3)]);
    assert!(verify_call_table(&table).is_clean());
}

#[test]
fn verify_call_table_rejects_non_finite_times() {
    let table = CallTimeTable::from_entries(vec![(
        KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 8,
            n: 8,
            k: 8,
        },
        f64::NAN,
    )]);
    let report = verify_call_table(&table);
    assert!(report
        .errors_from(PassId::CostAudit)
        .any(|d| d.message.contains("unusable time")));
}

/// The LU pipeline of `A^-1*B`: getrf, two triangle extractions, the pivot
/// application, two solves.
fn lu_solve_algorithm() -> Algorithm {
    let expr = Expr::var("A", 12, 12).inv().mul(Expr::var("B", 12, 5));
    enumerate_expr_algorithms(&expr, None)
        .unwrap()
        .into_iter()
        .find(|a| {
            a.calls
                .iter()
                .any(|c| matches!(c.op, KernelOp::Getrf { .. }))
        })
        .expect("a general solve must offer an LU algorithm")
}

#[test]
fn structure_flow_rejects_a_forged_pivot_vector() {
    // GETRF packs pivot row indices into the factor's trailing column; QR
    // packs Householder taus into the same column of an identically-shaped
    // factor. Forging the producer from GETRF into a square QR keeps every
    // shape conformant and every cost claim true — only the provenance
    // tracking can see LASWP would now permute by tau values.
    let mut alg = lu_solve_algorithm();
    assert!(verify_algorithm(&alg).is_clean());
    let getrf_index = alg
        .calls
        .iter()
        .position(|c| matches!(c.op, KernelOp::Getrf { .. }))
        .unwrap();
    let KernelOp::Getrf { n } = alg.calls[getrf_index].op else {
        unreachable!()
    };
    alg.calls[getrf_index].op = KernelOp::Qr { m: n, n };
    let laswp_index = alg
        .calls
        .iter()
        .position(|c| matches!(c.op, KernelOp::PivotApply { .. }))
        .unwrap();
    let report = verify_algorithm(&alg);
    // The mutation is invisible to every dimensional pass.
    assert_eq!(report.errors_from(PassId::ShapeFlow).count(), 0);
    assert_eq!(report.errors_from(PassId::CostAudit).count(), 0);
    let finding = report
        .errors_from(PassId::StructureFlow)
        .find(|d| d.call_index == Some(laswp_index))
        .expect("structure-flow must reject the forged pivot vector");
    assert!(finding.message.contains("pivot indices cannot be trusted"));
    // The companion defect is caught too: extracting a unit-lower triangle
    // from a factor whose sub-diagonal holds Householder vectors.
    assert!(report
        .errors_from(PassId::StructureFlow)
        .any(|d| d.message.contains("Householder")));
}

#[test]
fn shape_flow_rejects_getrf_of_the_right_hand_side() {
    // Repoint the GETRF at the (non-square) right-hand side: the swapped
    // input breaks squareness, and only squareness.
    let mut alg = lu_solve_algorithm();
    let getrf_index = alg
        .calls
        .iter()
        .position(|c| matches!(c.op, KernelOp::Getrf { .. }))
        .unwrap();
    let rhs = alg
        .operands
        .iter()
        .find(|o| o.role == OperandRole::Input && o.rows != o.cols)
        .expect("the right-hand side is rectangular")
        .id;
    alg.calls[getrf_index].inputs[0] = rhs;
    let report = verify_algorithm(&alg);
    let finding = report
        .errors_from(PassId::ShapeFlow)
        .next()
        .expect("shape-flow must reject a rectangular getrf operand");
    assert_eq!(finding.call_index, Some(getrf_index));
    assert!(finding.message.contains("getrf operand must be square"));
}

#[test]
fn cost_audit_rejects_forged_qr_dimensions() {
    // The QR least-squares pipeline of `A^+*b`. Bump the QR's claimed
    // column count: the operand table still conforms among itself, so
    // shape-flow stays silent — the cost audit sees the forged dimensions,
    // the forged FLOP count, and the forged written-element count.
    let expr = Expr::var("A", 34, 9).pinv().mul(Expr::var("b", 34, 2));
    let mut alg = enumerate_expr_algorithms(&expr, None)
        .unwrap()
        .into_iter()
        .find(|a| a.calls.iter().any(|c| matches!(c.op, KernelOp::Qr { .. })))
        .expect("a least-squares solve must offer a QR algorithm");
    assert!(verify_algorithm(&alg).is_clean());
    let qr_index = alg
        .calls
        .iter()
        .position(|c| matches!(c.op, KernelOp::Qr { .. }))
        .unwrap();
    if let KernelOp::Qr { ref mut n, .. } = alg.calls[qr_index].op {
        *n += 2;
    }
    let report = verify_algorithm(&alg);
    assert_eq!(report.errors_from(PassId::ShapeFlow).count(), 0);
    let findings: Vec<_> = report.errors_from(PassId::CostAudit).collect();
    for needle in ["claims logical dimensions", "FLOPs", "written elements"] {
        assert!(
            findings
                .iter()
                .any(|d| d.call_index == Some(qr_index) && d.message.contains(needle)),
            "cost audit must flag the forged `{needle}` claim:\n{report}"
        );
    }
}

#[test]
fn forged_output_shape_is_attributed_to_shape_flow() {
    let mut alg = chain_algorithm();
    // Corrupt the output operand's declared rows: the inputs imply a
    // different shape.
    let out = alg
        .operands
        .iter()
        .position(|o| o.role == OperandRole::Output)
        .unwrap();
    let OperandInfo { rows, .. } = alg.operands[out];
    alg.operands[out].rows = rows + 3;
    let report = verify_algorithm(&alg);
    assert!(
        report
            .errors_from(PassId::ShapeFlow)
            .any(|d| d.message.contains("input operands imply")),
        "shape-flow must reject the forged output shape:\n{report}"
    );
}
