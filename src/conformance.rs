//! The factorisation conformance test-kit.
//!
//! [`solver_conformance_suite!`](crate::solver_conformance_suite) generates
//! one test module per [`Solver`](crate::kernels::Solver) implementation, so
//! every factorisation-backed solve pipeline — present and future — is held
//! to the same contract:
//!
//! * **dispatch & purity** — the solver claims the operand it is given, its
//!   factor has the declared shape, and factoring never mutates the operand;
//! * **reconstruction** — `A·(A⁺·A) = A` (the first Moore–Penrose
//!   condition; for square solvers `A⁺·A` is the identity);
//! * **residual** — `‖A·X − B‖` (square) or the normal-equations residual
//!   `‖Aᵀ(A·X − B)‖` (tall) is at the backward-stability scale;
//! * **round-trip & determinism** — a consistent system recovers its known
//!   solution, and re-solving is bit-identical;
//! * **degenerate dimensions** — zero and unit orders and empty right-hand
//!   sides factor and solve without panicking;
//! * **poison inputs** — a singular operand yields a structured error,
//!   never a panic or silent garbage;
//! * **verifier cleanliness** — the kernel-call IR realisation of the
//!   solver's pipeline passes the `lamb-verify` analyser with zero errors;
//! * **factor-cache identity stability** — the cacheable identity of the
//!   factorisation call embeds the factor mnemonic (so kinds can never
//!   collide) and is reproducible across independent enumerations.
//!
//! The suite is macro-generated rather than trait-object-driven so each
//! property is its own `#[test]` with a precise failure location. See
//! `tests/solver_conformance.rs` for the three stock instantiations.

/// Generate the conformance suite for one `Solver` implementation.
///
/// ```ignore
/// lamb::solver_conformance_suite! {
///     mod lu_solver {
///         solver: lamb::kernels::LuSolver,
///         structure: lamb::matrix::Structure::General,
///         shape: |n| (n, n),
///         operand: |rows, cols, seed| lamb::matrix::random::random_seeded(rows, cols, seed),
///         expression: "A^-1*B",
///         dims: [20, 4],
///     }
/// }
/// ```
///
/// * `shape` maps a nominal order `n` to the operand shape the solver
///   handles (square solvers: `(n, n)`; the QR solver: a tall rectangle).
/// * `operand` builds a deterministic, well-conditioned operand of that
///   shape (SPD for Cholesky, general otherwise).
/// * `expression`/`dims` name a planner expression whose enumeration
///   contains this solver's kernel pipeline, for the verifier-cleanliness
///   and cache-identity tests.
#[macro_export]
macro_rules! solver_conformance_suite {
    (
        mod $name:ident {
            solver: $solver:expr,
            structure: $structure:expr,
            shape: $shape:expr,
            operand: $operand:expr,
            expression: $text:expr,
            dims: $dims:expr,
        }
    ) => {
        mod $name {
            use $crate::expr::Expression as _;
            use $crate::kernels::Backend as _;
            use $crate::kernels::Solver as _;
            use $crate::matrix::ops::{max_abs, max_abs_diff};
            use $crate::matrix::random::random_seeded;
            use $crate::matrix::Matrix;

            fn cfg() -> $crate::kernels::BlockConfig {
                $crate::kernels::BlockConfig::default()
            }

            /// `op(A)·B` on the native backend.
            fn gemm_t(transa: $crate::matrix::Trans, a: &Matrix, b: &Matrix) -> Matrix {
                let (m, k) = transa.apply(a.shape());
                let op = $crate::kernels::KernelOp::Gemm {
                    transa,
                    transb: $crate::matrix::Trans::No,
                    m,
                    n: b.cols(),
                    k,
                };
                $crate::kernels::NativeBackend
                    .run_new(&op, &[a, b], &cfg())
                    .unwrap()
            }

            fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
                gemm_t($crate::matrix::Trans::No, a, b)
            }

            #[test]
            fn handled_operands_factor_to_the_declared_shape_without_mutation() {
                let solver = $solver;
                let (rows, cols) = ($shape)(16usize);
                let a = ($operand)(rows, cols, 11u64);
                assert!(solver.handles($structure, a.shape()));
                let before = a.clone();
                let f = solver.factor(&a, &cfg()).unwrap();
                assert_eq!(f.shape(), solver.factor_shape(a.shape()));
                assert_eq!(
                    max_abs_diff(&a, &before).unwrap(),
                    0.0,
                    "factoring must not mutate the operand"
                );
            }

            #[test]
            fn solving_against_the_operand_reconstructs_it() {
                // First Moore–Penrose condition: A·(A⁺·A) = A. For the
                // square solvers A⁺·A is the identity, so this doubles as a
                // factor-reconstruction check.
                let solver = $solver;
                let (rows, cols) = ($shape)(18usize);
                let a = ($operand)(rows, cols, 3u64);
                let f = solver.factor(&a, &cfg()).unwrap();
                let pinv_a = solver.solve_factored(&f, &a, &cfg()).unwrap();
                assert_eq!(pinv_a.shape(), (cols, cols));
                let back = gemm(&a, &pinv_a);
                let tol = 1e-9 * (rows as f64) * max_abs(&a).max(1.0);
                let diff = max_abs_diff(&back, &a).unwrap();
                assert!(diff <= tol, "reconstruction off by {diff} (tol {tol})");
            }

            #[test]
            fn residual_is_at_backward_stability_scale() {
                let solver = $solver;
                let (rows, cols) = ($shape)(22usize);
                let a = ($operand)(rows, cols, 5u64);
                let b = random_seeded(rows, 5, 6);
                let x = solver.solve(&a, &b, &cfg()).unwrap();
                assert_eq!(x.shape(), (cols, 5));
                let ax = gemm(&a, &x);
                let mut resid = ax;
                for j in 0..5 {
                    for i in 0..rows {
                        resid[(i, j)] -= b[(i, j)];
                    }
                }
                let measured = if rows == cols {
                    max_abs(&resid)
                } else {
                    // Least squares: only the normal-equations residual
                    // Aᵀ(A·X − B) vanishes.
                    max_abs(&gemm_t($crate::matrix::Trans::Yes, &a, &resid))
                };
                let tol = 1e-10 * (rows as f64).max(1.0) * max_abs(&b).max(1.0);
                assert!(measured <= tol, "residual {measured} exceeds {tol}");
            }

            #[test]
            fn a_consistent_system_round_trips_its_solution_deterministically() {
                let solver = $solver;
                let (rows, cols) = ($shape)(20usize);
                let a = ($operand)(rows, cols, 7u64);
                let x0 = random_seeded(cols, 4, 9);
                let b = gemm(&a, &x0);
                let x = solver.solve(&a, &b, &cfg()).unwrap();
                let tol = 1e-7 * (rows as f64) * max_abs(&x0).max(1.0);
                let diff = max_abs_diff(&x, &x0).unwrap();
                assert!(diff <= tol, "round-trip off by {diff} (tol {tol})");
                // Same inputs, same bits: the pipeline is deterministic.
                let again = solver.solve(&a, &b, &cfg()).unwrap();
                assert_eq!(max_abs_diff(&x, &again).unwrap(), 0.0);
            }

            #[test]
            fn degenerate_dimensions_factor_and_solve() {
                let solver = $solver;
                for n in [0usize, 1] {
                    let (rows, cols) = ($shape)(n);
                    let a = ($operand)(rows, cols, 13u64);
                    let f = solver.factor(&a, &cfg()).unwrap();
                    assert_eq!(f.shape(), solver.factor_shape((rows, cols)));
                    for k in [0usize, 2] {
                        let b = random_seeded(rows, k, 14);
                        let x = solver.solve_factored(&f, &b, &cfg()).unwrap();
                        assert_eq!(x.shape(), (cols, k), "order {n}, rhs {k}");
                    }
                }
            }

            #[test]
            fn singular_inputs_error_instead_of_panicking() {
                let solver = $solver;
                let (rows, cols) = ($shape)(12usize);
                let poison = Matrix::zeros(rows, cols);
                let b = random_seeded(rows, 3, 15);
                assert!(
                    solver.solve(&poison, &b, &cfg()).is_err(),
                    "a zero operand must yield a structured error"
                );
            }

            #[test]
            fn the_planner_realisation_verifies_clean() {
                let solver = $solver;
                let expr = $crate::expr::TreeExpression::parse($text).unwrap();
                let algorithms = expr.algorithms(&$dims).unwrap();
                let alg = algorithms
                    .iter()
                    .find(|a| a.kernel_summary().contains(solver.factor_mnemonic()))
                    .expect("the expression reaches this solver's pipeline");
                let report = $crate::verify::verify_algorithm(alg);
                assert!(
                    !report.has_errors(),
                    "`{}` realisation of `{}` fails verification:\n{report}",
                    solver.name(),
                    $text
                );
            }

            #[test]
            fn factor_cache_identity_is_stable_and_kind_tagged() {
                let solver = $solver;
                let mnemonic = solver.factor_mnemonic();
                let expr = $crate::expr::TreeExpression::parse($text).unwrap();
                let identities = |algorithms: &[$crate::expr::Algorithm]| -> Vec<String> {
                    let alg = algorithms
                        .iter()
                        .find(|a| a.kernel_summary().contains(mnemonic))
                        .expect("the expression reaches this solver's pipeline");
                    $crate::expr::cacheable_identities(alg)
                        .into_iter()
                        .filter(|(i, _, _)| alg.calls[*i].op.mnemonic() == mnemonic)
                        .map(|(_, _, identity)| identity)
                        .collect()
                };
                let first = identities(&expr.algorithms(&$dims).unwrap());
                assert!(!first.is_empty(), "the factorisation call is cacheable");
                for identity in &first {
                    assert!(
                        identity.starts_with(&format!("{mnemonic}(")),
                        "identity `{identity}` must be tagged with the factor kind"
                    );
                }
                // Reproducible across independent enumerations: the cache
                // key is a function of the expression, not of the run.
                let second = identities(&expr.algorithms(&$dims).unwrap());
                assert_eq!(first, second);
            }
        }
    };
}
