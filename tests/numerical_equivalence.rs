//! Cross-crate numerical validation: every enumerated algorithm, when
//! executed with the real kernels, computes the same matrix — the
//! "mathematically equivalent" premise of the paper — and the symbolic FLOP
//! counts match the closed-form formulas of Section 3.2.
//!
//! The interpreter here is written independently of the `MeasuredExecutor`
//! (it walks the kernel-call IR directly), so it also cross-checks the IR's
//! operand bookkeeping; it seeds inputs as the executor does
//! ([`seeded_input`]). The solve realisations are held to identity texts
//! through the executor's own walk (`MeasuredExecutor::compute_result`).

mod paper;

use lamb::matrix::ops::max_abs_diff;
use lamb::matrix::random::{random_seeded, random_spd, random_triangular};
use lamb::matrix::Structure;
use lamb::prelude::*;
use paper::{aatb_flop_formulas, abcd_flop_formulas, algorithms_of, AATB, ABCD};
use std::collections::HashMap;

/// Execute an algorithm on concrete operands by interpreting its kernel-call
/// sequence, returning the final result matrix.
fn interpret(alg: &Algorithm, seed: u64) -> Matrix {
    let cfg = BlockConfig::default();
    let mut store: HashMap<usize, Matrix> = HashMap::new();
    for info in &alg.operands {
        let m = match (info.role, info.structure) {
            (lamb::expr::OperandRole::Input, Structure::Triangular(uplo)) => {
                random_triangular(info.rows, uplo, seed ^ info.id.index() as u64)
            }
            (lamb::expr::OperandRole::Input, Structure::Spd) => {
                random_spd(info.rows, seed ^ info.id.index() as u64)
            }
            (lamb::expr::OperandRole::Input, Structure::General) => {
                random_seeded(info.rows, info.cols, seed ^ info.id.index() as u64)
            }
            _ => Matrix::zeros(info.rows, info.cols),
        };
        store.insert(info.id.index(), m);
    }
    for call in &alg.calls {
        let mut out = store
            .remove(&call.output.index())
            .expect("output allocated");
        // The in-place triangle copy names its output as its input; that
        // operand reaches the backend through `out`.
        let inputs: Vec<&Matrix> = call
            .inputs
            .iter()
            .filter(|id| **id != call.output)
            .map(|id| &store[&id.index()])
            .collect();
        NativeBackend
            .run_into(&call.op, &inputs, &mut out, &cfg)
            .unwrap();
        store.insert(call.output.index(), out);
    }
    let out_id = alg.output().expect("single output").id.index();
    store.remove(&out_id).expect("output computed")
}

#[test]
fn all_six_chain_algorithms_compute_the_same_matrix() {
    let dims = [45, 28, 37, 22, 31];
    let algorithms = algorithms_of(ABCD, &dims);
    assert_eq!(algorithms.len(), 6);
    let results: Vec<Matrix> = algorithms.iter().map(|a| interpret(a, 77)).collect();
    for (i, r) in results.iter().enumerate().skip(1) {
        let diff = max_abs_diff(&results[0], r).unwrap();
        assert!(diff < 1e-9, "algorithm {} differs by {diff}", i + 1);
    }
    // And they match a direct naive evaluation ((AB)C)D performed elsewhere:
    // the first algorithm IS ((AB)C)D, so transitivity covers it.
}

#[test]
fn all_five_aatb_algorithms_compute_the_same_matrix() {
    let (d0, d1, d2) = (33, 26, 41);
    let algorithms = algorithms_of(AATB, &[d0, d1, d2]);
    assert_eq!(algorithms.len(), 5);
    let results: Vec<Matrix> = algorithms.iter().map(|a| interpret(a, 13)).collect();
    for (i, r) in results.iter().enumerate().skip(1) {
        let diff = max_abs_diff(&results[0], r).unwrap();
        assert!(diff < 1e-9, "algorithm {} differs by {diff}", i + 1);
    }
    assert_eq!(results[0].shape(), (d0, d2));
}

#[test]
fn the_paper_gram_expression_matches_a_naive_evaluation() {
    // Every A*A^T*B algorithm against (A*A^T)*B by the naive GEMM, on the
    // operands `interpret` seeds (A is operand 0, B operand 1).
    use lamb::kernels::gemm_naive;
    use lamb::matrix::Trans;
    let (d0, d1, d2, seed) = (24, 19, 29, 5);
    let a = random_seeded(d0, d1, seed);
    let b = random_seeded(d0, d2, seed ^ 1);
    let (mut gram, mut expected) = (Matrix::zeros(d0, d0), Matrix::zeros(d0, d2));
    gemm_naive(
        Trans::No,
        Trans::Yes,
        1.0,
        &a.view(),
        &a.view(),
        0.0,
        &mut gram.view_mut(),
    )
    .unwrap();
    gemm_naive(
        Trans::No,
        Trans::No,
        1.0,
        &gram.view(),
        &b.view(),
        0.0,
        &mut expected.view_mut(),
    )
    .unwrap();
    for alg in algorithms_of(AATB, &[d0, d1, d2]) {
        let diff = max_abs_diff(&interpret(&alg, seed), &expected).unwrap();
        assert!(diff < 1e-10 * d1 as f64, "{} differs by {diff}", alg.name);
    }
}

#[test]
fn triangular_algorithm_variants_compute_the_same_matrix() {
    // The TRMM/TRSM extension family: every enumerated algorithm of a
    // triangular expression agrees numerically with every other, across the
    // structured and GEMM-based realisations and across merge orders.
    for (text, dims) in [
        ("L[lower]*B", vec![37, 23]),
        ("U[upper]^T*A*B", vec![30, 21, 17]),
        ("L[lower]*L^T*B", vec![26, 19]),
        ("L[lower]^-1*A*B", vec![28, 22, 15]),
        ("L1[lower]*L2[lower]*B", vec![25, 12]),
    ] {
        let expr = TreeExpression::parse(text).unwrap();
        let algorithms = expr.algorithms(&dims).unwrap();
        assert!(!algorithms.is_empty(), "{text}");
        let results: Vec<Matrix> = algorithms.iter().map(|a| interpret(a, 91)).collect();
        for (alg, r) in algorithms.iter().zip(&results).skip(1) {
            let diff = max_abs_diff(&results[0], r).unwrap();
            assert!(diff < 1e-9, "{text}: `{}` differs by {diff}", alg.name);
        }
    }
}

#[test]
fn general_solve_and_least_squares_interpret_correctly() {
    use lamb::matrix::ops::{axpy, max_abs};
    use lamb::matrix::Trans;
    // `op(A)·X` on the native backend.
    let product = |transa: Trans, a: &Matrix, x: &Matrix| {
        let (m, k) = transa.apply(a.shape());
        let op = KernelOp::Gemm {
            transa,
            transb: Trans::No,
            m,
            n: x.cols(),
            k,
        };
        NativeBackend
            .run_new(&op, &[a, x], &BlockConfig::default())
            .unwrap()
    };

    // A^-1*B lowers to the LU pipeline and solves the system it claims to.
    let expr = TreeExpression::parse("A^-1*B").unwrap();
    let algorithms = expr.algorithms(&[26, 7]).unwrap();
    assert_eq!(algorithms.len(), 1);
    let x = interpret(&algorithms[0], 17);
    let a = seeded_input(&algorithms[0], "A", 17);
    let b = seeded_input(&algorithms[0], "B", 17);
    let mut resid = product(Trans::No, &a, &x);
    axpy(-1.0, &b, &mut resid).unwrap();
    assert!(
        max_abs(&resid) < 1e-10 * 26.0,
        "A*X != B: {}",
        max_abs(&resid)
    );

    // A^+*b lowers to the QR pipeline; the result satisfies the normal
    // equations A^T(A*x - b) = 0 of the least-squares problem.
    let expr = TreeExpression::parse("A^+*b").unwrap();
    let algorithms = expr.algorithms(&[9, 34, 2]).unwrap();
    assert_eq!(algorithms.len(), 1);
    let x = interpret(&algorithms[0], 23);
    let a = seeded_input(&algorithms[0], "A", 23);
    let b = seeded_input(&algorithms[0], "b", 23);
    assert_eq!(a.shape(), (34, 9));
    assert_eq!(x.shape(), (9, 2));
    let mut resid = product(Trans::No, &a, &x);
    axpy(-1.0, &b, &mut resid).unwrap();
    let normal = product(Trans::Yes, &a, &resid);
    assert!(
        max_abs(&normal) < 1e-10 * 34.0,
        "normal equations violated: {}",
        max_abs(&normal)
    );

    // A^-1*B*C enumerates both merge orders; they agree numerically.
    let expr = TreeExpression::parse("A^-1*B*C").unwrap();
    let algorithms = expr.algorithms(&[20, 14, 11]).unwrap();
    assert!(algorithms.len() >= 2, "expected both merge orders");
    let results: Vec<Matrix> = algorithms.iter().map(|alg| interpret(alg, 41)).collect();
    for (alg, r) in algorithms.iter().zip(&results).skip(1) {
        let diff = max_abs_diff(&results[0], r).unwrap();
        assert!(diff < 1e-9, "`{}` differs by {diff}", alg.name);
    }
}

/// The solve realisations (POTRF, GETRF and QR lowerings of `^-1` / `^+`)
/// held to one contract as data. Each text is an identity, so every
/// enumerated algorithm must hand back the named input as the measured
/// executor seeded it: a solve that cancels its own operand from either
/// side, and `A*A^+*A = A` (Moore–Penrose reconstruction) for a tall `A`.
/// At order 20 that holds to rounding, at zero sizes exactly; a second
/// executor with the same seed reproduces every bit; and each algorithm's
/// factorisation carries a factor key that no other cacheable call of it
/// shares and that a second enumeration reproduces.
#[test]
fn solve_realisations_return_what_their_identity_texts_leave() {
    use lamb::expr::{factor_keys, FactorKey};
    use lamb::matrix::ops::max_abs;
    // (text, dims at order n with k right-hand sides, the input it returns,
    // the factorisation, the number of algorithms at order 20)
    type Dims = fn(usize, usize) -> Vec<usize>;
    let square: Dims = |n, k| vec![n, k];
    let mirror: Dims = |n, k| vec![k, n];
    let rows: [(&str, Dims, &str, &str, usize); 8] = [
        ("S[spd]^-1*S*X", square, "X", "potrf", 3),
        ("A^-1*A*X", square, "X", "getrf", 2),
        ("A^+*A*X", |n, k| vec![n, n + 3, k], "X", "qr", 2),
        ("X*S[spd]*S^-1", mirror, "X", "potrf", 3),
        ("X*S[spd]^-1*S", mirror, "X", "potrf", 3),
        ("X*A*A^-1", mirror, "X", "getrf", 2),
        ("X*A^-1*A", mirror, "X", "getrf", 2),
        ("A*A^+*A", |n, _| vec![n + 3, n], "A", "qr", 1),
    ];
    let seed = 29;
    for (text, dims_at, returns, factor, count) in rows {
        for (n, k) in [(20, 4), (1, 1), (0, 2), (2, 0)] {
            let dims = dims_at(n, k);
            let expr = TreeExpression::parse(text).unwrap();
            let algorithms = expr.algorithms(&dims).unwrap();
            if n == 20 {
                assert_eq!(algorithms.len(), count, "{text} at {dims:?}");
            }
            for alg in &algorithms {
                let at = format!("{text} at {dims:?}: `{}`", alg.name);
                let expected = seeded_input(alg, returns, seed);
                let result = MeasuredExecutor::quick()
                    .with_seed(seed)
                    .compute_result(alg);
                assert_eq!(result.shape(), expected.shape(), "{at}");
                let diff = max_abs_diff(&result, &expected).unwrap();
                // Exact at order zero, where every operand is empty.
                let tol = 1e-13 * (n as f64) * max_abs(&expected).max(1.0);
                assert!(diff <= tol, "{at} is off by {diff} (tol {tol})");
                let again = MeasuredExecutor::quick()
                    .with_seed(seed)
                    .compute_result(alg);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&result), bits(&again), "{at} is not deterministic");
            }
            // The factor-cache key is a function of the text, and the
            // factorisation's kind is part of it, so kinds can never alias.
            // Each algorithm's keys, split by whether `factor` produces them.
            let keys = |alg: &Algorithm| -> (Vec<FactorKey>, Vec<FactorKey>) {
                let mut split = (Vec::new(), Vec::new());
                for (i, key) in factor_keys(alg) {
                    if alg.calls[i].op.mnemonic() == factor {
                        split.0.push(key);
                    } else {
                        split.1.push(key);
                    }
                }
                split
            };
            let identities = |algorithms: &[Algorithm]| -> Vec<Vec<FactorKey>> {
                algorithms.iter().map(|alg| keys(alg).0).collect()
            };
            let first = identities(&algorithms);
            for alg in &algorithms {
                let (ids, others) = keys(alg);
                assert!(!ids.is_empty(), "{text}: `{}` caches no {factor}", alg.name);
                assert!(ids.iter().all(|id| !others.contains(id)), "{text}");
            }
            let reparsed = TreeExpression::parse(text).unwrap();
            assert_eq!(
                first,
                identities(&reparsed.algorithms(&dims).unwrap()),
                "{text}"
            );
        }
    }
}

/// An input operand of `alg` exactly as the measured executor seeds it.
fn seeded_input(alg: &Algorithm, name: &str, seed: u64) -> Matrix {
    let info = alg.operands.iter().find(|o| o.name == name).unwrap();
    let s = seed ^ info.id.index() as u64;
    match info.structure {
        Structure::Triangular(uplo) => random_triangular(info.rows, uplo, s),
        Structure::Spd => random_spd(info.rows, s),
        Structure::General => random_seeded(info.rows, info.cols, s),
    }
}

#[test]
fn right_side_expressions_plan_and_execute_against_naive_references() {
    // The right-side regression: `B*L^-1` (a TRSM from the right) and `A*S`
    // (a SYMM from the right) run the FULL pipeline — parse -> enumerate ->
    // plan -> execute with the real kernels — and the executed result agrees
    // with an independent naive evaluation to <= 1e-10 * n.
    use lamb::kernels::{gemm_naive, trsm_naive};
    use lamb::matrix::ops::max_abs;
    use lamb::matrix::{Side, Trans, Uplo};
    let seed = 7u64;
    let operand = |alg: &Algorithm, name: &str| seeded_input(alg, name, seed);
    let plan_and_execute = |text: &str, dims: &[usize], kernel: &str| -> (Algorithm, Matrix) {
        let expr = TreeExpression::parse(text).unwrap();
        let plan = Planner::for_expression(&expr)
            .policy(MinFlops)
            .plan(dims)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let chosen = plan.chosen_algorithm().clone();
        // The structured right-side realisation is in the enumerated set
        // (the chosen one may be a FLOP-tied GEMM realisation).
        assert!(
            plan.scores.iter().any(|s| s.name.contains(kernel)),
            "{text}: no enumerated algorithm uses {kernel}"
        );
        let exec = MeasuredExecutor::quick().with_seed(seed);
        let result = exec.compute_result(&chosen);
        (chosen, result)
    };

    // B*L^-1: the right-side triangular solve X = B * L^-1, i.e. X*L = B.
    let (m, n) = (18, 26);
    let (alg, x) = plan_and_execute("B*L[lower]^-1", &[m, n], "trsm");
    let l = operand(&alg, "L");
    let b = operand(&alg, "B");
    let mut x_ref = Matrix::zeros(m, n);
    trsm_naive(
        Side::Right,
        Uplo::Lower,
        Trans::No,
        1.0,
        &l.view(),
        &b.view(),
        &mut x_ref.view_mut(),
    )
    .unwrap();
    let diff = max_abs_diff(&x, &x_ref).unwrap();
    let tol = 1e-10 * (n as f64).max(max_abs(&x_ref));
    assert!(diff <= tol, "B*L^-1 differs from naive by {diff}");

    // A*S: the symmetric operand applied from the right (SYMM, side=Right).
    let (m, n) = (21, 17);
    let (alg, y) = plan_and_execute("A*S[spd]", &[m, n], "symm");
    let a = operand(&alg, "A");
    let s = operand(&alg, "S");
    let mut y_ref = Matrix::zeros(m, n);
    gemm_naive(
        Trans::No,
        Trans::No,
        1.0,
        &a.view(),
        &s.view(),
        0.0,
        &mut y_ref.view_mut(),
    )
    .unwrap();
    let diff = max_abs_diff(&y, &y_ref).unwrap();
    let tol = 1e-10 * (n as f64).max(max_abs(&y_ref));
    assert!(diff <= tol, "A*S differs from naive by {diff}");
    // The interpreter agrees too (independent of the measured executor).
    let interpreted = interpret(&alg, seed);
    assert!(max_abs_diff(&interpreted, &y_ref).unwrap() <= tol);
}

#[test]
fn chain_flop_counts_match_section_321_formulas() {
    let dims = [331, 279, 338, 854, 427];
    let algorithms = algorithms_of(ABCD, &dims);
    let formulas = abcd_flop_formulas(&dims);
    for (alg, expected) in algorithms.iter().zip(formulas) {
        assert_eq!(alg.flops(), expected, "{}", alg.name);
    }
}

#[test]
fn aatb_flop_counts_match_section_322_formulas() {
    for (d0, d1, d2) in [
        (227, 260, 549),
        (80, 514, 768),
        (110, 301, 938),
        (1200, 20, 20),
    ] {
        let algorithms = algorithms_of(AATB, &[d0, d1, d2]);
        let formulas = aatb_flop_formulas(&[d0, d1, d2]);
        for (alg, expected) in algorithms.iter().zip(formulas) {
            assert_eq!(alg.flops(), expected, "{} at ({d0},{d1},{d2})", alg.name);
        }
    }
}

#[test]
fn measured_executor_classification_agrees_with_itself_on_repeat() {
    // The measured executor is noisy, but the FLOP side of the classification
    // and the structural invariants must be stable.
    let expr = TreeExpression::parse(AATB).unwrap();
    let mut exec = MeasuredExecutor::quick();
    let c = Planner::for_expression(&expr)
        .score_predictions(false)
        .plan_with(&[48, 40, 56], &mut exec)
        .unwrap()
        .execute_with(&mut exec)
        .verdict;
    // Algorithms 1 and 2 share the minimum FLOP count on every instance.
    assert!(c.cheapest.contains(&0));
    assert!(c.cheapest.contains(&1));
    assert!(!c.fastest.is_empty());
    assert!(c.time_score >= 0.0 && c.time_score <= 1.0);
    assert!(c.flop_score >= 0.0 && c.flop_score <= 1.0);
}
