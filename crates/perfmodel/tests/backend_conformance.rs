//! Backend conformance suite: both [`Backend`]s — the native kernels every
//! plan runs on and the reference oracle they are checked against — must
//! agree numerically, execute degenerate shapes and every op of the
//! calibration sweep, and be bit-deterministic. The
//! `backend_conformance_suite!` macro stamps the whole suite out once per
//! backend.

use lamb_expr::KernelOp;
use lamb_matrix::ops::max_abs_diff;
use lamb_matrix::{Side, Trans, Uplo};
use lamb_perfmodel::calibrate::{single_call_algorithm, square_ops};
use lamb_perfmodel::{Backend, MeasuredExecutor, NativeBackend, ReferenceBackend};
use std::sync::Arc;

/// The sided multiplication-family ops plus every factorisation, at
/// non-square shapes that expose row/column confusions.
fn conformance_ops() -> Vec<KernelOp> {
    vec![
        KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::Yes,
            m: 13,
            n: 9,
            k: 17,
        },
        KernelOp::Syrk {
            uplo: Uplo::Lower,
            trans: Trans::No,
            n: 11,
            k: 7,
        },
        KernelOp::Symm {
            side: Side::Left,
            uplo: Uplo::Lower,
            m: 12,
            n: 8,
        },
        KernelOp::Symm {
            side: Side::Right,
            uplo: Uplo::Lower,
            m: 8,
            n: 12,
        },
        KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 10,
            n: 14,
        },
        KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Upper,
            trans: Trans::Yes,
            m: 14,
            n: 10,
        },
        KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 9,
            n: 13,
        },
        KernelOp::Trsm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 13,
            n: 9,
        },
        KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 15,
        },
        KernelOp::Getrf { n: 15 },
        KernelOp::Qr { m: 18, n: 6 },
    ]
}

/// Degenerate shapes: single rows/columns and 1x1 operands must execute
/// (they exercise every loop boundary at once).
fn degenerate_ops() -> Vec<KernelOp> {
    vec![
        KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 1,
            n: 1,
            k: 1,
        },
        KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 1,
            n: 3,
        },
        KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 1,
            n: 4,
        },
        KernelOp::Symm {
            side: Side::Right,
            uplo: Uplo::Lower,
            m: 4,
            n: 1,
        },
        KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 1,
        },
    ]
}

fn executor_with(backend: Arc<dyn Backend>) -> MeasuredExecutor {
    MeasuredExecutor::quick()
        .with_seed(11)
        .with_backend(backend)
}

macro_rules! backend_conformance_suite {
    ($suite:ident, $backend:expr) => {
        mod $suite {
            use super::*;

            #[test]
            fn agrees_with_the_native_backend_numerically() {
                let native = executor_with(Arc::new(NativeBackend));
                let tested = executor_with(Arc::new($backend));
                for op in conformance_ops() {
                    let alg = single_call_algorithm(op.clone());
                    let expected = native.compute_result(&alg);
                    let got = tested.compute_result(&alg);
                    let diff = max_abs_diff(&expected, &got).unwrap();
                    assert!(diff < 1e-9, "{}: differs by {diff}", op.mnemonic());
                }
            }

            #[test]
            fn executes_degenerate_shapes() {
                let exec = executor_with(Arc::new($backend));
                for op in degenerate_ops() {
                    let alg = single_call_algorithm(op.clone());
                    let out = exec.compute_result(&alg);
                    assert_eq!(out.shape(), op.output_shape(), "{}", op.mnemonic());
                }
            }

            #[test]
            fn supports_is_honest_over_the_sweep() {
                // Every op of the calibration sweep, and every conformance
                // shape, runs to the op's declared output shape.
                let exec = executor_with(Arc::new($backend));
                for op in square_ops(12).into_iter().chain(conformance_ops()) {
                    let alg = single_call_algorithm(op.clone());
                    let out = exec.compute_result(&alg);
                    assert_eq!(out.shape(), op.output_shape(), "{}", op.mnemonic());
                }
            }

            #[test]
            fn repeated_execution_is_bit_deterministic() {
                let exec = executor_with(Arc::new($backend));
                for op in conformance_ops() {
                    let alg = single_call_algorithm(op.clone());
                    let first = exec.compute_result(&alg);
                    let second = exec.compute_result(&alg);
                    assert_eq!(
                        max_abs_diff(&first, &second).unwrap(),
                        0.0,
                        "{}: nondeterministic",
                        op.mnemonic()
                    );
                }
            }
        }
    };
}

backend_conformance_suite!(native, NativeBackend);
backend_conformance_suite!(reference, ReferenceBackend);
