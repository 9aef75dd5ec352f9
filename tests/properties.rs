//! Cross-crate property-based tests: invariants of the algorithm enumerators,
//! the simulated time model, and the anomaly classification, over randomly
//! drawn instances.

mod grammar;
mod paper;

use lamb::matrix::ops::{max_abs, max_abs_diff};
use lamb::prelude::*;
use paper::{algorithms_of, chain_text, optimal_chain_flops, AATB, ABCD};
use proptest::prelude::*;

fn dims5() -> impl Strategy<Value = [usize; 5]> {
    [
        20usize..1200,
        20usize..1200,
        20usize..1200,
        20usize..1200,
        20usize..1200,
    ]
}

fn dims3() -> impl Strategy<Value = [usize; 3]> {
    [20usize..1200, 20usize..1200, 20usize..1200]
}

fn small_dims7() -> impl Strategy<Value = [usize; 7]> {
    [
        2usize..=12,
        2usize..=12,
        2usize..=12,
        2usize..=12,
        2usize..=12,
        2usize..=12,
        2usize..=12,
    ]
}

/// A dimension that is degenerate with high probability: zero or one half of
/// the time, otherwise tiny.
fn degenerate_dim() -> impl Strategy<Value = usize> {
    0usize..=3
}

fn degenerate_dims4() -> impl Strategy<Value = [usize; 4]> {
    [
        degenerate_dim(),
        degenerate_dim(),
        degenerate_dim(),
        degenerate_dim(),
    ]
}

/// The scenario texts whose union of kernel lowerings covers the full kernel
/// vocabulary: GEMM, SYRK, SYMM (+ the triangle copy), TRMM, TRSM, POTRF,
/// and the general-solve tier (GETRF, QR, ORMQR, FACTORTRI, LASWP).
const DEGENERATE_SCENARIOS: [&str; 12] = [
    "A*B*C",         // gemm
    "A*A^T*B",       // syrk, symm, copy, gemm
    "A*A^T",         // syrk + copy as the final merge
    "L[lower]*A*B",  // trmm (left)
    "L[lower]^-1*B", // trsm (left)
    "S[spd]^-1*B*C", // potrf + trsm (+ gemm order competition)
    "S[spd]*B",      // symm on a full-stored SPD operand (left)
    "A^-1*B",        // getrf + factortri + laswp + trsm (left pipeline)
    "A^+*b",         // qr + factortri + ormqr + trsm
    "B*L[lower]",    // trmm (right)
    "B*L[lower]^-1", // trsm (right)
    "A*S[spd]",      // symm (right)
];

/// Massage a drawn instance so the scenario is realisable: the QR-based
/// least-squares solve needs its operand at least as tall as it is wide
/// (dims are in flattened logical order, so `A^+` puts cols before rows).
fn realisable(text: &str, dims: &[usize]) -> Vec<usize> {
    let mut instance = dims.to_vec();
    if text.contains("^+") && instance[0] > instance[1] {
        instance.swap(0, 1);
    }
    instance
}

/// Execute every algorithm with the real kernels (via the measured executor)
/// and check well-formedness plus numerical identity of the results within
/// `1e-10 · ‖X‖`.
fn assert_numerically_identical(
    algorithms: &[Algorithm],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let executor =
        MeasuredExecutor::new(MachineModel::generic_laptop(), BlockConfig::default(), 1, 0)
            .with_seed(20220829);
    let mut reference: Option<lamb::matrix::Matrix> = None;
    for alg in algorithms {
        prop_assert!(alg.is_well_formed(), "{} is malformed", alg.name);
        let result = executor.compute_result(alg);
        match &reference {
            None => reference = Some(result),
            Some(expected) => {
                let tolerance = 1e-10 * max_abs(expected).max(1.0);
                let diff = max_abs_diff(expected, &result).expect("matching shapes");
                prop_assert!(
                    diff <= tolerance,
                    "{} differs by {diff} (tolerance {tolerance})",
                    alg.name
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chain_enumeration_invariants(dims in dims5()) {
        let algorithms = algorithms_of(ABCD, &dims);
        prop_assert_eq!(algorithms.len(), 6);
        let dp_flops = optimal_chain_flops(&dims);
        let min = algorithms.iter().map(|a| a.flops()).min().unwrap();
        prop_assert_eq!(dp_flops, min, "DP optimum must equal the cheapest enumerated algorithm");
        for alg in &algorithms {
            prop_assert!(alg.is_well_formed());
            prop_assert_eq!(alg.calls.len(), 3);
            let out = alg.output().unwrap();
            prop_assert_eq!((out.rows, out.cols), (dims[0], dims[4]));
        }
        // Algorithms 2 and 5 always tie in FLOPs (paper Section 3.2.1).
        prop_assert_eq!(algorithms[1].flops(), algorithms[4].flops());
    }

    #[test]
    fn aatb_enumeration_invariants(dims in dims3()) {
        let [d0, d1, d2] = dims;
        let algorithms = algorithms_of(AATB, &[d0, d1, d2]);
        prop_assert_eq!(algorithms.len(), 5);
        for alg in &algorithms {
            prop_assert!(alg.is_well_formed());
            let out = alg.output().unwrap();
            prop_assert_eq!((out.rows, out.cols), (d0, d2));
        }
        // FLOP tie structure of Section 3.2.2.
        prop_assert_eq!(algorithms[0].flops(), algorithms[1].flops());
        prop_assert_eq!(algorithms[2].flops(), algorithms[3].flops());
        prop_assert!(algorithms[0].flops() <= algorithms[2].flops());
    }

    #[test]
    fn simulated_times_are_positive_finite_and_flop_monotone(dims in dims3()) {
        let [d0, d1, d2] = dims;
        let mut exec = SimulatedExecutor::paper_like();
        let algorithms = algorithms_of(AATB, &[d0, d1, d2]);
        for alg in &algorithms {
            let t = exec.execute_algorithm(alg);
            prop_assert!(t.seconds.is_finite() && t.seconds > 0.0);
            prop_assert_eq!(t.per_call.len(), alg.calls.len());
        }
        // Doubling every dimension increases the work and the time.
        let bigger = algorithms_of(AATB, &[d0 * 2, d1 * 2, d2 * 2]);
        let tb = exec.execute_algorithm(&bigger[0]);
        prop_assert!(tb.seconds > exec.execute_algorithm(&algorithms[0]).seconds);
    }

    #[test]
    fn classification_invariants_hold(dims in dims3(), threshold in 0.0f64..0.3) {
        let expr = TreeExpression::parse(AATB).unwrap();
        let timings = Planner::for_expression(&expr)
            .plan(&dims)
            .unwrap()
            .execute()
            .timings;
        let rows = timings.iter().map(|t| (t.flops, t.seconds));
        let c = classify(rows.clone(), threshold);
        prop_assert!(!c.cheapest.is_empty());
        prop_assert!(!c.fastest.is_empty());
        prop_assert!((0.0..=1.0).contains(&c.time_score));
        prop_assert!((0.0..=1.0).contains(&c.flop_score));
        let disjoint = !c.cheapest.iter().any(|i| c.fastest.contains(i));
        if c.is_anomaly {
            prop_assert!(disjoint, "anomalies require disjoint cheapest/fastest sets");
            prop_assert!(c.time_score > threshold);
        }
        if !disjoint {
            prop_assert!(!c.is_anomaly);
            prop_assert!(c.time_score == 0.0);
        }
        // Raising the threshold can only remove anomalies.
        let stricter = classify(rows, threshold + 0.2);
        if stricter.is_anomaly {
            prop_assert!(c.is_anomaly);
        }
    }

    #[test]
    fn isolated_prediction_is_close_to_sequence_time(dims in dims3()) {
        // The predictor of Experiment 3 ignores inter-kernel cache effects and
        // uses different noise, but it must stay within a modest band of the
        // sequence time — this is why it predicts most anomalies.
        let [d0, d1, d2] = dims;
        let mut exec = SimulatedExecutor::paper_like();
        for alg in algorithms_of(AATB, &[d0, d1, d2]) {
            let seq = exec.execute_algorithm(&alg).seconds;
            let pred = exec.predict_from_isolated_calls(&alg).seconds;
            let ratio = pred / seq;
            prop_assert!((0.85..=1.25).contains(&ratio), "ratio {ratio} for {}", alg.name);
        }
    }

    #[test]
    fn enumerated_chain_algorithms_execute_to_identical_matrices(
        dims in small_dims7(),
        p in 2usize..=6,
    ) {
        // Every multiplication order of a random chain, executed with the
        // real kernels through the measured executor, computes the same
        // matrix to within 1e-10 of its magnitude.
        let algorithms = algorithms_of(&chain_text(p), &dims[..=p]);
        prop_assert_eq!(algorithms.len(), (1..p).product::<usize>());
        assert_numerically_identical(&algorithms)?;
    }

    #[test]
    fn enumerated_mixed_transpose_algorithms_execute_to_identical_matrices(
        dims in small_dims7(),
        scenario in 0usize..6,
    ) {
        // Same property over expressions that exercise the rewrite rules
        // (SYRK, SYMM, triangle copies, transposed factors).
        let texts = [
            "A*A^T*B",
            "A^T*A*B",
            "A*B*B^T",
            "A^T*B*A",
            "A*A^T*B*B^T",
            "(A*B)^T*C",
        ];
        let expr = TreeExpression::parse(texts[scenario]).expect("scenario parses");
        let instance = &dims[..expr.num_dims()];
        let algorithms = expr.algorithms(instance).expect("valid instance");
        prop_assert!(!algorithms.is_empty());
        assert_numerically_identical(&algorithms)?;
    }

    #[test]
    fn zero_and_unit_dimension_expressions_plan_and_execute(
        dims in degenerate_dims4(),
        scenario in 0usize..DEGENERATE_SCENARIOS.len(),
    ) {
        // The degenerate-dimension audit, end to end: parse -> enumerate ->
        // plan -> measured execution must neither panic (the pre-fix
        // CopyTriangle element count underflowed at n == 0) nor produce
        // numerically divergent results, for instances containing zero and
        // unit dimensions, across expressions that jointly reach all seven
        // kernel ops.
        let text = DEGENERATE_SCENARIOS[scenario];
        let expr = TreeExpression::parse(text).expect("scenario parses");
        let instance = &realisable(text, &dims[..expr.num_dims()]);
        let algorithms = expr.algorithms(instance).expect("degenerate instance enumerates");
        prop_assert!(!algorithms.is_empty());
        for alg in &algorithms {
            prop_assert!(alg.is_well_formed(), "{} is malformed", alg.name);
            // The degenerate-dimension FLOP/traffic audit: no underflow, no
            // wraparound-sized counts.
            prop_assert!(alg.flops() < u64::MAX / 2);
            prop_assert!(alg.output_traffic_elements() < u64::MAX / 2);
        }

        // Plan through the unified pipeline with the real (measured) kernels.
        let mut executor =
            MeasuredExecutor::new(MachineModel::generic_laptop(), BlockConfig::default(), 1, 0)
                .with_seed(20260728);
        let plan = Planner::for_expression(&expr)
            .policy(MinFlops)
            .plan_with(instance, &mut executor)
            .expect("degenerate instance plans");
        let out = plan.chosen_algorithm().output().expect("output declared");
        let (rows, cols) = expr.bind(instance).shape().expect("consistent shape");
        prop_assert_eq!((out.rows, out.cols), (rows, cols));

        // Every algorithm executes to the same matrix — including the empty
        // one, whose comparison is exact.
        assert_numerically_identical(&algorithms)?;
    }

    #[test]
    fn general_solve_pipelines_plan_verify_and_execute(
        dims in small_dims7(),
        zeros in degenerate_dims4(),
        scenario in 0usize..4,
        degenerate in 0usize..2,
    ) {
        // The general-solve tier end to end: random general-inverse and
        // least-squares expressions go through parse -> enumerate -> verify
        // -> plan -> measured execution, at ordinary and at zero/unit
        // dimensions. Every enumerated algorithm must verify clean (the LU
        // and QR pipelines carry packed factors the analyser tracks), and
        // all algorithms of an instance must agree numerically.
        let texts = ["A^-1*B", "A^-1*B*C", "A^+*b", "A^+*B*C"];
        let text = texts[scenario];
        let expr = TreeExpression::parse(text).expect("scenario parses");
        let drawn: &[usize] = if degenerate == 1 { &zeros } else { &dims };
        let instance = realisable(text, &drawn[..expr.num_dims()]);
        let algorithms = expr.algorithms(&instance).expect("solve instance enumerates");
        prop_assert!(!algorithms.is_empty());
        for alg in &algorithms {
            prop_assert!(alg.is_well_formed(), "{} is malformed", alg.name);
            let report = lamb::verify::verify_algorithm(alg);
            prop_assert!(
                !report.has_errors(),
                "`{text}` {instance:?} algorithm `{}` failed verification:\n{report}",
                alg.name
            );
        }
        let mut executor =
            MeasuredExecutor::new(MachineModel::generic_laptop(), BlockConfig::default(), 1, 0)
                .with_seed(20220829);
        let plan = Planner::for_expression(&expr)
            .policy(MinFlops)
            .plan_with(&instance, &mut executor)
            .expect("solve instance plans");
        let out = plan.chosen_algorithm().output().expect("output declared");
        let (rows, cols) = expr.bind(&instance).shape().expect("consistent shape");
        prop_assert_eq!((out.rows, out.cols), (rows, cols));
        assert_numerically_identical(&algorithms)?;
    }

    #[test]
    fn right_side_structured_algorithms_execute_to_identical_matrices(
        dims in small_dims7(),
        scenario in 0usize..6,
    ) {
        // The right-side extension family: structured operands applied from
        // the right (TRMM/TRSM/SYMM with side = Right), alone and inside
        // chains where left- and right-side realisations compete across
        // merge orders. Every enumerated algorithm computes the same matrix.
        let texts = [
            "B*L[lower]",
            "B*U[upper]^T",
            "B*L[lower]^-1",
            "A*S[spd]",
            "A*S[spd]*B",
            "A*B*L[lower]",
        ];
        let expr = TreeExpression::parse(texts[scenario]).expect("scenario parses");
        let instance = &dims[..expr.num_dims()];
        let algorithms = expr.algorithms(instance).expect("valid right-side instance");
        prop_assert!(!algorithms.is_empty());
        assert_numerically_identical(&algorithms)?;
    }

    #[test]
    fn oracle_strategy_is_never_beaten(dims in dims3()) {
        let expr = TreeExpression::parse(AATB).unwrap();
        let execute = |policy: Box<dyn SelectionPolicy>| {
            Planner::for_expression(&expr).policy(policy).plan(&dims).unwrap().execute()
        };
        let oracle = execute(Box::new(Oracle));
        prop_assert!(oracle.regret() < 1e-9);
        let others: [Box<dyn SelectionPolicy>; 3] =
            [Box::new(MinFlops), Box::new(MinPredictedTime), Box::new(Hybrid { flop_margin: 0.5 })];
        for policy in others {
            let outcome = execute(policy);
            prop_assert!(outcome.chosen_seconds() + 1e-15 >= oracle.chosen_seconds());
        }
    }
}

#[test]
fn degenerate_scenarios_jointly_cover_every_kernel_op() {
    // The proptest above samples scenarios; this deterministic companion
    // pins the coverage claim: at unit dimensions (and at zero dimensions)
    // the scenario set reaches every kernel op in the vocabulary, and every
    // reached algorithm executes.
    let executor =
        MeasuredExecutor::new(MachineModel::generic_laptop(), BlockConfig::default(), 1, 0)
            .with_seed(11);
    for unit in [1usize, 0] {
        let mut reached: std::collections::BTreeSet<&'static str> =
            std::collections::BTreeSet::new();
        for text in DEGENERATE_SCENARIOS {
            let expr = TreeExpression::parse(text).unwrap();
            let dims = vec![unit; expr.num_dims()];
            for alg in expr.algorithms(&dims).unwrap() {
                for call in &alg.calls {
                    reached.insert(call.op.mnemonic());
                }
                let result = executor.compute_result(&alg);
                let out = alg.output().unwrap();
                assert_eq!((result.rows(), result.cols()), (out.rows, out.cols));
            }
        }
        assert_eq!(
            reached.into_iter().collect::<Vec<_>>(),
            vec![
                "copy",
                "factortri",
                "gemm",
                "getrf",
                "laswp",
                "ormqr",
                "potrf",
                "qr",
                "symm",
                "syrk",
                "trmm",
                "trsm"
            ],
            "unit = {unit}: the scenario set must reach every kernel op"
        );
    }
}

/// The relations between the value numbering's three faces, for one
/// algorithm: `shared_flops` counts what `eliminate_common_subexpressions`
/// builds, `eliminate_shared_calls` answers "found a duplicate" exactly when
/// a call is eliminated, the planner's CSE step (keep the candidate unless a
/// duplicate is found) equals the full transform under `{:#?}`, and the
/// transform is idempotent. Returns whether anything merged.
fn check_cse_relations(alg: &Algorithm) -> Result<bool, proptest::test_runner::TestCaseError> {
    use lamb::expr::{eliminate_common_subexpressions, eliminate_shared_calls, shared_flops};
    let outcome = eliminate_common_subexpressions(alg);
    prop_assert_eq!(shared_flops(alg), outcome.algorithm.flops(), "{}", alg.name);
    let found = eliminate_shared_calls(alg);
    prop_assert_eq!(
        found.is_some(),
        outcome.eliminated_calls > 0,
        "{}",
        alg.name
    );
    let planner_step = found.map_or_else(|| alg.clone(), |shared| shared.algorithm);
    prop_assert_eq!(
        format!("{planner_step:#?}"),
        format!("{:#?}", outcome.algorithm),
        "{}",
        alg.name
    );
    let twice = eliminate_common_subexpressions(&outcome.algorithm);
    prop_assert_eq!(twice.eliminated_calls, 0, "{}", alg.name);
    prop_assert_eq!(&twice.algorithm, &outcome.algorithm);
    prop_assert!(eliminate_shared_calls(&outcome.algorithm).is_none());
    Ok(outcome.eliminated_calls > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_numbering_agrees_with_the_cse_transform(
        (len, picks, dims) in (2usize..=5, [0usize..12, 0usize..12, 0usize..12, 0usize..12, 0usize..12], small_dims7())
    ) {
        let text = grammar::product_text(&picks[..len]);
        // Draws whose dimensions cannot unify, or that have no realisation,
        // are not expressions of interest here.
        let Ok(expr) = TreeExpression::parse(&text) else { return Ok(()) };
        let Ok(algorithms) = expr.algorithms(&dims[..expr.num_dims()]) else { return Ok(()) };
        for alg in &algorithms {
            check_cse_relations(alg)?;
        }
    }
}

#[test]
fn value_numbering_relations_hold_where_sharing_happens() {
    // The deterministic companion of the property above: texts that are
    // known to repeat a subcomputation, so the relations are exercised on
    // algorithms that actually merge.
    let mut merged = 0;
    for text in [
        "A*A^T*A*A^T*B",
        "S[spd]^-1*S^-1*B",
        "L[lower]^-1*L^-1*B",
        "A^T*A*A^T*A",
        "C^-1*C^-1*B",
        "A*A^T*B*B^T",
    ] {
        let expr = TreeExpression::parse(text).unwrap();
        let dims: Vec<usize> = (0..expr.num_dims()).map(|i| 9 + 4 * i).collect();
        for alg in expr.algorithms(&dims).unwrap() {
            if check_cse_relations(&alg).unwrap_or_else(|e| panic!("{text}: {e}")) {
                merged += 1;
            }
        }
    }
    assert!(merged >= 10, "only {merged} algorithms merged a duplicate");
}

/// The string identities factor keys replaced, kept as the reference the
/// keys are held to: `(call index, identity)` of every cacheable call of
/// `alg`. A leaf renders as `leaf:{name}#{raw id}:{rows}x{cols}:{structure}`,
/// a call's result as `{op}({input identities})`, and an operand read before
/// anything defines it as `raw:{id}`.
fn rendered_identities(alg: &Algorithm) -> Vec<(usize, String)> {
    use std::collections::HashMap;
    let mut ids: HashMap<lamb::expr::OperandId, String> = alg
        .inputs()
        .map(|o| {
            let (name, id, rows, cols) = (&o.name, o.id.index(), o.rows, o.cols);
            (
                o.id,
                format!("leaf:{name}#{id}:{rows}x{cols}:{:?}", o.structure),
            )
        })
        .collect();
    let mut out = Vec::new();
    for (i, call) in alg.calls.iter().enumerate() {
        let inputs: Vec<String> = (call.inputs.iter())
            .map(|id| (ids.get(id).cloned()).unwrap_or_else(|| format!("raw:{}", id.index())))
            .collect();
        let identity = format!("{}({})", call.op, inputs.join(","));
        ids.insert(call.output, identity.clone());
        if lamb::expr::is_cacheable_op(&call.op) {
            out.push((i, identity));
        }
    }
    out
}

#[test]
fn factor_keys_are_equal_exactly_when_the_rendered_identities_are() {
    use lamb::expr::{eliminate_common_subexpressions, factor_keys, FactorKey};
    use std::collections::HashMap;
    // Every cacheable value of every scenario family at two dimension
    // tuples, in tree and in shared form, within and across algorithms.
    let (mut by_text, mut by_key) = (HashMap::new(), HashMap::<FactorKey, String>::new());
    let mut values = 0;
    for scenario in lamb::experiments::all_scenarios() {
        let expr = &scenario.expression;
        let mut planned = 0;
        for (start, step) in [(61, 7), (19, 5)] {
            let dims: Vec<usize> = (0..expr.num_dims()).map(|i| start + step * i).collect();
            let Ok(algorithms) = expr.algorithms(&dims) else {
                continue;
            };
            planned += 1;
            for tree in algorithms {
                let shared = eliminate_common_subexpressions(&tree).algorithm;
                for alg in [tree, shared] {
                    let keys: Vec<_> = factor_keys(&alg).collect();
                    let texts = rendered_identities(&alg);
                    assert_eq!(keys.len(), texts.len(), "{}", alg.name);
                    for ((i, key), (j, text)) in keys.into_iter().zip(texts) {
                        assert_eq!(i, j, "{}", alg.name);
                        let known = by_text.entry(text.clone()).or_insert(key);
                        assert_eq!(*known, key, "one identity, two keys: {text}");
                        let known = by_key.entry(key).or_insert_with(|| text.clone());
                        assert_eq!(*known, text, "one key, two identities");
                        values += 1;
                    }
                }
            }
        }
        assert!(planned > 0, "{} plans at neither tuple", scenario.name);
    }
    // Values repeat (the tree forms duplicate what the shared forms merge),
    // so the equivalence is tested in both directions.
    assert!(
        by_key.len() >= 50,
        "{} distinct values of {values}",
        by_key.len()
    );
    assert!(values > 2 * by_key.len(), "{values} values");
}

/// The calls of `alg` whose cacheable result `factors` holds, ascending:
/// the reference the residency pass of scoring and prediction is held to
/// (what a cache-side `resident_calls` collected before each consumer
/// asked residency in its own call loop).
fn resident_calls(factors: &lamb::plan::FactorCache, alg: &Algorithm) -> Vec<usize> {
    (lamb::expr::factor_keys(alg))
        .filter(|(_, key)| factors.contains(key))
        .map(|(index, _)| index)
        .collect()
}

#[test]
fn factor_aware_scores_price_exactly_the_resident_calls_at_zero() {
    use lamb::plan::FactorCache;
    use std::sync::Arc;
    // One factor cache across every scenario family, warmed by noting each
    // plan's chosen factors, as a serving loop does.
    let factors = Arc::new(FactorCache::new());
    let predictions = Arc::new(PredictionCache::new());
    let tuples = [(61, 7), (19, 5)];
    let scenarios = lamb::experiments::all_scenarios();
    // A planner over the shared prediction cache, and over the factor
    // cache too when `factored` is set.
    fn planner<'e>(
        expr: &'e TreeExpression,
        predictions: &Arc<PredictionCache>,
        factors: Option<&Arc<FactorCache>>,
    ) -> Planner<'e> {
        let planner = (Planner::for_expression(expr))
            .policy(MinPredictedTime)
            .shared_cache(Arc::clone(predictions));
        match factors {
            Some(factors) => planner.factor_cache(Arc::clone(factors)),
            None => planner,
        }
    }
    let planner = |expr, factored: bool| planner(expr, &predictions, factored.then_some(&factors));
    let dims_of = |expr: &TreeExpression, (start, step): (usize, usize)| -> Vec<usize> {
        (0..expr.num_dims()).map(|i| start + step * i).collect()
    };
    for scenario in &scenarios {
        for tuple in tuples {
            let _ = planner(&scenario.expression, true).plan(&dims_of(&scenario.expression, tuple));
        }
    }
    assert!(!factors.is_empty());
    let mut sim = SimulatedExecutor::paper_like();
    let (mut candidates, mut partly_resident) = (0, 0);
    for scenario in &scenarios {
        let expr = &scenario.expression;
        for tuple in tuples {
            let dims = dims_of(expr, tuple);
            let Ok(plain) = planner(expr, false).plan(&dims) else {
                continue;
            };
            // Residency as the warm plan's scoring sees it: the plan notes
            // its own choice only after scoring.
            let resident: Vec<Vec<usize>> = (plain.algorithms.iter())
                .map(|alg| resident_calls(&factors, alg))
                .collect();
            let plan = planner(expr, true).plan(&dims).unwrap();
            assert_eq!(plan.algorithms, plain.algorithms, "{}", scenario.name);
            for ((alg, score), resident) in plan.algorithms.iter().zip(&plan.scores).zip(&resident)
            {
                let at = format!("{} at {dims:?}: `{}`", scenario.name, alg.name);
                let saved: u64 = resident.iter().map(|&i| alg.calls[i].flops()).sum();
                assert_eq!(score.flops, alg.flops() - saved, "{at}");
                let folded = (0..alg.calls.len()).fold(0.0, |total, i| {
                    let seconds = if resident.contains(&i) {
                        0.0
                    } else {
                        sim.time_isolated_call(alg, i)
                    };
                    total + seconds
                });
                let predicted = score.predicted_seconds.unwrap();
                assert_eq!(predicted.to_bits(), folded.to_bits(), "{at}");
                candidates += 1;
                if !resident.is_empty() && resident.len() < alg.calls.len() {
                    partly_resident += 1;
                }
            }
            // The adapter's three prices agree bit for bit on the warm cache.
            let mut caching =
                CachingExecutor::new(&mut sim, &predictions).with_factor_cache(Some(&factors));
            for alg in &plan.algorithms {
                let timing = caching.predict_from_isolated_calls(alg);
                let seconds = caching.predicted_seconds(alg);
                assert_eq!(seconds.to_bits(), timing.seconds.to_bits(), "{}", alg.name);
                for call in &timing.per_call {
                    let isolated = caching.time_isolated_call(alg, call.index);
                    assert_eq!(isolated.to_bits(), call.seconds.to_bits(), "{}", alg.name);
                }
            }
        }
    }
    assert!(candidates >= 100, "{candidates} candidates");
    assert!(
        partly_resident >= 10,
        "{partly_resident} of {candidates} partly resident"
    );
}
