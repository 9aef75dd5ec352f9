//! # lamb-kernels
//!
//! Pure-Rust, blocked, packed, Rayon-parallel BLAS-3 kernels — GEMM, SYRK,
//! SYMM, TRMM and TRSM — plus the blocked factorisations POTRF (Cholesky),
//! GETRF (partially pivoted LU) and QR (Householder): the kernel vocabulary
//! from which the algorithms studied in the paper *"FLOPs as a Discriminant
//! for Dense Linear Algebra Algorithms"* (ICPP'22) and its triangular, SPD and
//! general-solve extensions are built — together with their FLOP-count
//! models, cache-flushing and median-of-N timing utilities. A solve is not a
//! routine here: `lamb-expr` lowers each inverse into a sequence of these
//! kernel calls ([`op::KernelOp`]).
//!
//! Every kernel is a thin specialisation of one engine, the
//! [`driver::BlockedDriver`], in the classic GotoBLAS/BLIS structure: the
//! operands are packed into contiguous panels (`MR`-row panels of `op(A)`,
//! `NR`-column panels of `op(B)`) and a register-blocked micro-kernel
//! accumulates `MR x NR` tiles of `C`. Per-kernel code reduces to its
//! [`pack::Operand`]s — strided windows of storage (plain, transposed,
//! offset) or element accessors (symmetric-mirrored, triangle-masked) — and
//! a panel policy. Parallelism is extracted over disjoint column panels of `C`,
//! which keeps the implementation free of `unsafe`.
//!
//! TRSM takes its triangle a block of [`BlockConfig::kc`] unknowns at a
//! time, packed in `MR`-row panels, and solves `MR x NR` tiles of the
//! right-hand sides in order: one micro-kernel call per tile for its update
//! from the block, then a substitution against the diagonal block in
//! registers (BLIS's fused solve); then it folds the solved block into the
//! later panels [`BlockConfig::mc`] rows at a time, one more call per tile.
//! Right-hand-side panels share each block's packed panels. The rest of
//! the factorisation tier — POTRF, GETRF and QR — is recursive: a range of
//! coupled unknowns splits off one [`BlockConfig::tri_block`] while it is
//! wider than that and in half below, the first part is solved and folded
//! into the rest on the packed engine, and the recursion ends at the
//! small-call rule. QR's trailing update and [`ormqr`] share one compact-WY
//! block reflector, `C -= V·Tᵀ·(Vᵀ·C)`, which reads the reflectors as
//! storage (a materialised unit-lower top block, a strided window of the
//! factor below it) and forms `VᵀV` and `VᵀC` in one product, so `T` costs
//! one product plus a `kb³` recurrence.
//!
//! A call whose operands fit a few register tiles — no extent above six
//! tiles along the tile's longer side, one `kc` block, or 48 — takes the
//! small tier behind that one rule (the private `leaf` module): products
//! run straight from storage with no thread-local scratch and no parallel
//! check, reading `op(A)`'s `MR`-row slivers in place and copying `op(B)`
//! one `NR`-column sliver at a time; TRSM substitutes against its triangle
//! where it is stored; ORMQR applies its reflectors one by one without
//! forming `T`; POTRF, GETRF and QR factor in place on contiguous column
//! slices, with no copies and no per-level scratch matrices.
//!
//! The kernel *vocabulary* lives here too: [`op::KernelOp`] names every
//! operation with its logical dimensions and knows its arity, operand
//! shapes, output structure and FLOP closed form, and a
//! [`backend::Backend`] executes one on owned matrices —
//! [`backend::NativeBackend`] is the single `match` from an op to the
//! view-level kernels above, [`backend::ReferenceBackend`] the naive-loop
//! oracle. The symbolic and model layers (`lamb-expr`, `lamb-perfmodel`)
//! re-export both rather than spelling the op set again.
//!
//! This crate substitutes for the Intel MKL used in the paper's experimental
//! setup; `ARCHITECTURE.md` at the workspace root describes the engine.
//!
//! ## Quick example
//!
//! ```
//! use lamb_kernels::{gemm, BlockConfig};
//! use lamb_matrix::{Matrix, Trans};
//!
//! let a = Matrix::from_fn(3, 4, |i, j| (i + j) as f64);
//! let b = Matrix::from_fn(4, 2, |i, j| (i * j + 1) as f64);
//! let mut c = Matrix::zeros(3, 2);
//! gemm(
//!     Trans::No,
//!     Trans::No,
//!     1.0,
//!     &a.view(),
//!     &b.view(),
//!     0.0,
//!     &mut c.view_mut(),
//!     &BlockConfig::default(),
//! )
//! .unwrap();
//! assert!((c[(0, 0)] - (0.0 + 1.0 + 2.0 + 3.0)).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod driver;
pub mod flops;
pub mod gemm;
pub mod getrf;
mod leaf;
pub mod microkernel;
pub mod op;
pub mod pack;
pub mod potrf;
pub mod qr;
pub mod symm;
pub mod syrk;
pub mod timing;
pub mod trmm;
pub mod trsm;

pub use backend::{Backend, NativeBackend, ReferenceBackend};
pub use cache::CacheFlusher;
pub use config::{BlockConfig, TileVariant, MAX_TILE_ACC};
pub use driver::{pack_buffer_growth_events, BlockedDriver};
pub use gemm::gemm;
pub use gemm::naive::gemm_naive;
pub use getrf::{
    factor_triangle, getrf, getrf_naive, getrf_packed, getrf_packed_into, pivot_apply,
    pivot_apply_right,
};
pub use microkernel::{microkernel, microkernel_dyn};
pub use op::{FieldValue, KernelOp, OpField};
pub use potrf::{potrf, potrf_naive};
pub use qr::{ormqr, ormqr_naive, qr, qr_naive, qr_packed, qr_packed_into};
pub use symm::symm;
pub use syrk::syrk;
pub use timing::{time_once, MedianTimer, TimingResult};
pub use trmm::{trmm, trmm_naive};
pub use trsm::{trsm, trsm_naive};
