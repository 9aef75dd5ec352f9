//! Positive-path coverage: every algorithm the repo's enumerator emits — the
//! paper's two expressions, representative expression trees, and the
//! isolated-call calibration fixtures — verifies clean.

use lamb_expr::{enumerate_expr_algorithms, Expr, Expression, KernelOp, TreeExpression};
use lamb_matrix::{Side, Trans, Uplo};
use lamb_perfmodel::calibrate::single_call_algorithm;
use lamb_verify::{verify_algorithm, VerifyExt};

fn assert_all_clean(algs: &[lamb_expr::Algorithm], what: &str) {
    assert!(!algs.is_empty(), "{what}: no algorithms enumerated");
    for alg in algs {
        let report = verify_algorithm(alg);
        assert!(
            report.is_clean(),
            "{what}: algorithm `{}` failed verification:\n{report}",
            alg.name
        );
    }
}

#[test]
fn the_paper_chain_verifies_clean() {
    // Section 3.2.1: the six algorithms of X := A·B·C·D.
    let chain = TreeExpression::parse("A*B*C*D").unwrap();
    let algs = chain.algorithms(&[100, 90, 80, 70, 60]).unwrap();
    assert_eq!(algs.len(), 6);
    assert_all_clean(&algs, "A*B*C*D");
}

#[test]
fn the_paper_gram_expression_verifies_clean() {
    // Section 3.2.2: the five algorithms of X := A·Aᵀ·B, mixing GEMM, SYRK,
    // SYMM and the triangle copy (both its in-place uses).
    let aatb = TreeExpression::parse("A*A^T*B").unwrap();
    let algs = aatb.algorithms(&[1000, 800, 600]).unwrap();
    assert_eq!(algs.len(), 5);
    assert_all_clean(&algs, "A*A^T*B");
}

#[test]
fn general_enumerator_output_verifies_clean() {
    let cases: Vec<(&str, Expr)> = vec![
        (
            "chain4",
            Expr::var("A", 60, 50)
                .mul(Expr::var("B", 50, 40))
                .mul(Expr::var("C", 40, 30))
                .mul(Expr::var("D", 30, 20)),
        ),
        (
            "aatb",
            Expr::var("A", 50, 30)
                .mul(Expr::var("A", 50, 30).t())
                .mul(Expr::var("B", 50, 20)),
        ),
        (
            "gram2",
            Expr::var("A", 40, 25)
                .mul(Expr::var("A", 40, 25).t())
                .mul(Expr::var("B", 40, 35))
                .mul(Expr::var("B", 40, 35).t()),
        ),
        (
            "sandwich",
            Expr::var("A", 45, 30)
                .t()
                .mul(Expr::var("B", 45, 45))
                .mul(Expr::var("A", 45, 30)),
        ),
        (
            "trmm chain",
            Expr::tri_var("L", 40, Uplo::Lower)
                .mul(Expr::var("A", 40, 30))
                .mul(Expr::var("B", 30, 20)),
        ),
        (
            "upper transposed",
            Expr::tri_var("U", 35, Uplo::Upper)
                .t()
                .mul(Expr::var("A", 35, 25))
                .mul(Expr::var("B", 25, 15)),
        ),
        (
            "cholesky gram",
            Expr::tri_var("L", 30, Uplo::Lower)
                .mul(Expr::tri_var("L", 30, Uplo::Lower).t())
                .mul(Expr::var("B", 30, 22)),
        ),
        (
            "trsm",
            Expr::tri_var("L", 28, Uplo::Lower)
                .inv()
                .mul(Expr::var("B", 28, 18)),
        ),
        (
            "spd product",
            Expr::spd_var("S", 32).mul(Expr::var("B", 32, 24)),
        ),
        (
            "spd solve chain",
            Expr::spd_var("S", 26)
                .inv()
                .mul(Expr::var("A", 26, 20))
                .mul(Expr::var("B", 20, 14)),
        ),
        (
            "spd gram",
            Expr::spd_var("S", 24)
                .mul(Expr::var("A", 24, 16))
                .mul(Expr::var("A", 24, 16).t()),
        ),
        ("single leaf", Expr::var("A", 10, 12)),
        // Degenerate dimensions flow through every pass without underflow.
        (
            "degenerate",
            Expr::var("A", 0, 1)
                .mul(Expr::var("B", 1, 1))
                .mul(Expr::var("C", 1, 5)),
        ),
    ];
    for (what, expr) in cases {
        let algs = enumerate_expr_algorithms(&expr, None).expect(what);
        assert_all_clean(&algs, what);
    }
}

#[test]
fn calibration_fixtures_verify_clean() {
    // The isolated-call benchmark fixtures are legal IR too — including the
    // out-of-place triangle copy (workspace output) and the bare SYRK whose
    // triangle-only output is a warning, not an error.
    let ops = [
        KernelOp::Gemm {
            transa: Trans::Yes,
            transb: Trans::No,
            m: 5,
            n: 6,
            k: 7,
        },
        KernelOp::Syrk {
            uplo: Uplo::Lower,
            trans: Trans::Yes,
            n: 8,
            k: 3,
        },
        KernelOp::Symm {
            side: Side::Right,
            uplo: Uplo::Upper,
            m: 4,
            n: 9,
        },
        KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Trans::Yes,
            m: 7,
            n: 4,
        },
        KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 6,
            n: 5,
        },
        KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 4,
            n: 7,
        },
        KernelOp::Trsm {
            side: Side::Right,
            uplo: Uplo::Upper,
            trans: Trans::Yes,
            m: 5,
            n: 6,
        },
        KernelOp::Potrf {
            uplo: Uplo::Upper,
            n: 7,
        },
        KernelOp::CopyTriangle {
            uplo: Uplo::Lower,
            n: 9,
        },
    ];
    for op in ops {
        let alg = single_call_algorithm(op.clone());
        let report = alg.verify();
        assert!(
            report.is_clean(),
            "fixture for `{op}` failed verification:\n{report}"
        );
    }
}
