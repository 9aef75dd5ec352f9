//! The kernel vocabulary: which operations exist, their arity, operand
//! shapes, output structure and FLOP closed forms.
//!
//! A [`KernelOp`] names one BLAS-3 kernel, factorisation or zero-FLOP data
//! mover together with its logical dimensions. Every layer above shares this
//! one declaration: the symbolic IR in `lamb-expr` wraps it in a kernel call
//! on operand ids, the [`crate::backend::Backend`]s execute it on matrices,
//! and the performance models price it. FLOP counts follow Section 3.1 of
//! the paper exactly (closed forms in [`crate::flops`]).

use crate::flops;
use lamb_matrix::{Side, Structure, Trans, Uplo};
use std::fmt;

/// Shape and structure of one operand: `(rows, cols, structure)`.
pub type OperandShape = (usize, usize, Structure);

/// The operation performed by one kernel call, with its logical dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KernelOp {
    /// `C := op(A)·op(B)` with `op(A) ∈ R^{m×k}`, `op(B) ∈ R^{k×n}`.
    Gemm {
        /// Transposition of the left operand.
        transa: Trans,
        /// Transposition of the right operand.
        transb: Trans,
        /// Rows of the result.
        m: usize,
        /// Columns of the result.
        n: usize,
        /// Inner (contracted) dimension.
        k: usize,
    },
    /// One triangle of `op(A)·op(A)ᵀ` with `op(A) ∈ R^{n×k}`.
    Syrk {
        /// Which triangle of the result is computed.
        uplo: Uplo,
        /// Transposition of the operand.
        trans: Trans,
        /// Order of the (square) result.
        n: usize,
        /// Inner (contracted) dimension.
        k: usize,
    },
    /// `C := A_sym·B` (Left) or `C := B·A_sym` (Right) with `C ∈ R^{m×n}`.
    Symm {
        /// Side from which the symmetric operand multiplies.
        side: Side,
        /// Stored triangle of the symmetric operand.
        uplo: Uplo,
        /// Rows of the result.
        m: usize,
        /// Columns of the result.
        n: usize,
    },
    /// `C := op(L)·B` (Left, `L ∈ R^{m×m}`) or `C := B·op(L)` (Right,
    /// `L ∈ R^{n×n}`) with `L` triangular (stored `uplo` triangle) and the
    /// result `C ∈ R^{m×n}`.
    Trmm {
        /// Side from which the triangular operand multiplies.
        side: Side,
        /// Stored triangle of the triangular operand.
        uplo: Uplo,
        /// Transposition of the triangular operand.
        trans: Trans,
        /// Rows of the result (= order of the triangle when `side = Left`).
        m: usize,
        /// Columns of the result (= order of the triangle when `side = Right`).
        n: usize,
    },
    /// `X := op(L)⁻¹·B` (Left, `L ∈ R^{m×m}`) or `X := B·op(L)⁻¹` (Right,
    /// `L ∈ R^{n×n}`) with `L` triangular (stored `uplo` triangle) and the
    /// result `X ∈ R^{m×n}`.
    Trsm {
        /// Side from which the triangular operand divides.
        side: Side,
        /// Stored triangle of the triangular operand.
        uplo: Uplo,
        /// Transposition of the triangular operand.
        trans: Trans,
        /// Rows of the result (= order of the triangle when `side = Left`).
        m: usize,
        /// Columns of the result (= order of the triangle when `side = Right`).
        n: usize,
    },
    /// `L := chol(A)`: the Cholesky factorisation of an `n×n` SPD operand
    /// into an explicitly triangular factor (`A = L·Lᵀ` for `uplo = Lower`).
    Potrf {
        /// Triangle the factor is computed in.
        uplo: Uplo,
        /// Order of the square operand.
        n: usize,
    },
    /// Copy the `uplo` triangle of an `n×n` matrix into the other triangle,
    /// making it explicitly full (zero FLOPs, but it moves data and costs time).
    CopyTriangle {
        /// Triangle that holds the data.
        uplo: Uplo,
        /// Order of the square matrix.
        n: usize,
    },
    /// `F := lu(A)`: the partially pivoted LU factorisation of an `n×n`
    /// general operand into the packed `n×(n+1)` form — unit-lower `L`
    /// strictly below the diagonal, `U` on and above, and the pivot row
    /// indices (as `f64`) in column `n`. Single-output by construction: the
    /// pivot vector rides inside the factor operand.
    Getrf {
        /// Order of the square operand.
        n: usize,
    },
    /// `F := qr(A)`: the Householder QR factorisation of an `m×n` (`m >= n`)
    /// operand into the packed `m×(n+1)` form — reflector vectors strictly
    /// below the diagonal, `R` on and above, and the `tau` coefficients in
    /// the first `n` rows of column `n`.
    Qr {
        /// Rows of the operand.
        m: usize,
        /// Columns of the operand.
        n: usize,
    },
    /// `C := (Qᵀ·B)[0..n, :]`: apply `Qᵀ` from a packed `m×(n+1)` QR factor
    /// to `m×k` right-hand sides, keeping the top `n` rows — the
    /// least-squares reduction consumed by the final TRSM against `R`.
    Ormqr {
        /// Rows of the factor and right-hand sides.
        m: usize,
        /// Reflector count (columns of the factored operand).
        n: usize,
        /// Columns of the right-hand sides.
        k: usize,
    },
    /// `T := tri(F)`: extract an explicitly triangular `n×n` factor from a
    /// packed `r×(n+1)` factor operand (`Lower`: LU's unit-lower `L`;
    /// `Upper`: LU's `U` or QR's `R`). Zero FLOPs, but it moves data and
    /// costs time — the pivoted-factor analogue of the triangle copy.
    FactorTri {
        /// Which triangular factor is extracted.
        uplo: Uplo,
        /// Order of the extracted triangle.
        n: usize,
    },
    /// `Bp := P·B` (Left) or `Bp := B·P` (Right): apply the permutation
    /// recorded in a packed LU factor's pivot column to the rows (Left,
    /// factor order `m`) or columns (Right, factor order `n`) of an `m×n`
    /// operand. Zero FLOPs.
    PivotApply {
        /// Side from which the permutation applies: `Left` permutes rows
        /// (swaps in recorded order), `Right` permutes columns (swaps in
        /// reverse order, realising the right-multiplication by `P`).
        side: Side,
        /// Rows of the operand (= order of the LU factor when `side = Left`).
        m: usize,
        /// Columns of the operand (= order of the LU factor when
        /// `side = Right`).
        n: usize,
    },
}

/// The value of one [`KernelOp`] field: a BLAS-style flag by its tag
/// (`Side::tag`, `Uplo::tag`, `Trans::tag`) or a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// A `side` / `uplo` / `trans…` flag, as its one-character tag.
    Flag(char),
    /// A dimension.
    Dim(usize),
}

/// One field of a [`KernelOp`], as [`KernelOp::fields`] walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpField {
    /// The field's name in the variant's declaration.
    pub name: &'static str,
    /// Its value.
    pub value: FieldValue,
    /// Whether [`KernelOp::timing_key`] keeps the field; `false` for the
    /// transposition flags every key resets, which timing tables and the
    /// calibration store therefore never need to spell.
    pub keyed: bool,
}

/// A field type of the op enum: how it becomes a [`FieldValue`] and back,
/// and what [`KernelOp::map_dims`] does to it (flags stay as they are).
trait Field: Copy {
    fn to_value(self) -> FieldValue;
    fn from_value(value: FieldValue) -> Option<Self>;

    fn map_dim(self, _f: &impl Fn(usize) -> usize) -> Self {
        self
    }

    fn read(name: &str, value: Option<FieldValue>) -> Result<Self, String> {
        value
            .and_then(Self::from_value)
            .ok_or_else(|| format!("missing or malformed field `{name}`"))
    }
}

impl Field for usize {
    fn to_value(self) -> FieldValue {
        FieldValue::Dim(self)
    }
    fn from_value(value: FieldValue) -> Option<Self> {
        match value {
            FieldValue::Dim(dim) => Some(dim),
            FieldValue::Flag(_) => None,
        }
    }
    fn map_dim(self, f: &impl Fn(usize) -> usize) -> Self {
        f(self)
    }
}

macro_rules! flag_fields {
    ($($flag:ty),*) => {$(
        impl Field for $flag {
            fn to_value(self) -> FieldValue {
                FieldValue::Flag(self.tag())
            }
            fn from_value(value: FieldValue) -> Option<Self> {
                match value {
                    FieldValue::Flag(tag) => <$flag>::from_tag(tag),
                    FieldValue::Dim(_) => None,
                }
            }
        }
    )*};
}
flag_fields!(Side, Uplo, Trans);

/// The structural view of [`KernelOp`], written once: each variant's
/// mnemonic and its fields by name in declaration order, `= value` marking a
/// flag [`KernelOp::timing_key`] always resets to `value`. The patterns name
/// every field and the matches every variant, so a variant or a field
/// missing from the table does not compile.
macro_rules! kernel_op_table {
    (@keyed) => { true };
    (@keyed $cleared:expr) => { false };
    ($($variant:ident $mnemonic:literal { $($field:ident $(= $cleared:expr)?),* })*) => {
        impl KernelOp {
            /// Every variant's [mnemonic](KernelOp::mnemonic), in declaration
            /// order: [`KernelOp::ordinal`] is a position in it.
            pub const MNEMONICS: &'static [&'static str] = &[$($mnemonic),*];

            /// Short BLAS/LAPACK-style mnemonic (`gemm`, `syrk`, `symm`,
            /// `trmm`, `trsm`, `potrf`, `copy`, `getrf`, `qr`, `ormqr`,
            /// `factortri`, `laswp`).
            #[must_use]
            pub fn mnemonic(&self) -> &'static str {
                match self {
                    $(KernelOp::$variant { .. } => $mnemonic,)*
                }
            }

            /// The position of this op's variant in declaration order:
            /// `KernelOp::MNEMONICS[op.ordinal()] == op.mnemonic()`.
            #[must_use]
            pub fn ordinal(&self) -> usize {
                enum Variant { $($variant),* }
                match self {
                    $(KernelOp::$variant { .. } => Variant::$variant as usize,)*
                }
            }

            /// Every flag and dimension of this operation by field name, in
            /// declaration order — with [`KernelOp::mnemonic`], everything
            /// [`KernelOp::from_fields`] needs to rebuild it.
            #[must_use]
            pub fn fields(&self) -> Vec<OpField> {
                match *self {
                    $(KernelOp::$variant { $($field),* } => vec![$(OpField {
                        name: stringify!($field),
                        value: $field.to_value(),
                        keyed: kernel_op_table!(@keyed $($cleared)?),
                    }),*],)*
                }
            }

            /// The operation with mnemonic `mnemonic` whose fields are what
            /// `get` returns for their names: the inverse of
            /// [`KernelOp::fields`]. A flag `timing_key()` always resets may
            /// be absent and then takes its reset value.
            ///
            /// # Errors
            ///
            /// A message naming the unknown mnemonic, or the first field
            /// that is absent, of the wrong kind, or an unknown flag tag.
            pub fn from_fields(
                mnemonic: &str,
                get: impl Fn(&'static str) -> Option<FieldValue>,
            ) -> Result<KernelOp, String> {
                match mnemonic {
                    $($mnemonic => Ok(KernelOp::$variant {
                        $($field: Field::read(
                            stringify!($field),
                            get(stringify!($field))$(.or(Some($cleared.to_value())))?,
                        )?,)*
                    }),)*
                    other => Err(format!("unknown kernel op `{other}`")),
                }
            }

            /// The same operation with every dimension `d` replaced by
            /// `f(d)`, every flag kept.
            #[must_use]
            pub fn map_dims(&self, f: impl Fn(usize) -> usize) -> KernelOp {
                match *self {
                    $(KernelOp::$variant { $($field),* } => KernelOp::$variant {
                        $($field: $field.map_dim(&f),)*
                    },)*
                }
            }

            /// Reset the flags the timing key does not keep.
            #[allow(unused_variables)]
            fn clear_unkeyed(&mut self) {
                match self {
                    $(KernelOp::$variant { $($field),* } => {
                        $($(*$field = $cleared;)?)*
                    })*
                }
            }
        }
    };
}

kernel_op_table! {
    Gemm "gemm" { transa = Trans::No, transb = Trans::No, m, n, k }
    Syrk "syrk" { uplo, trans, n, k }
    Symm "symm" { side, uplo, m, n }
    Trmm "trmm" { side, uplo, trans = Trans::No, m, n }
    Trsm "trsm" { side, uplo, trans = Trans::No, m, n }
    Potrf "potrf" { uplo, n }
    CopyTriangle "copy" { uplo, n }
    Getrf "getrf" { n }
    Qr "qr" { m, n }
    Ormqr "ormqr" { m, n, k }
    FactorTri "factortri" { uplo, n }
    PivotApply "laswp" { side, m, n }
}

impl KernelOp {
    /// The side flag of the sided ops (SYMM, TRMM, TRSM, PivotApply).
    #[must_use]
    pub fn side(&self) -> Option<Side> {
        match *self {
            KernelOp::Symm { side, .. }
            | KernelOp::Trmm { side, .. }
            | KernelOp::Trsm { side, .. }
            | KernelOp::PivotApply { side, .. } => Some(side),
            _ => None,
        }
    }

    /// `(order, other)` of a sided op: the order of its structured operand
    /// (symmetric, triangular, packed LU factor) and the remaining dimension
    /// of the `m×n` rectangular one — `(m, n)` on the left, `(n, m)` on the
    /// right. The one place the side flag is turned into dimensions: FLOP
    /// counts, operand shapes and the efficiency surfaces all read it.
    #[must_use]
    pub fn structured_dims(&self) -> Option<(usize, usize)> {
        let (m, n) = self.output_shape();
        self.side().map(|side| match side {
            Side::Left => (m, n),
            Side::Right => (n, m),
        })
    }

    /// FLOP count of this operation according to the paper's Section 3.1
    /// (closed forms in [`crate::flops`]). The sided kernels count
    /// `order²·other` over their [`KernelOp::structured_dims`].
    #[must_use]
    pub fn flops(&self) -> u64 {
        let (order, other) = self.structured_dims().unwrap_or_default();
        match *self {
            KernelOp::Gemm { m, n, k, .. } => flops::gemm_flops(m, n, k),
            KernelOp::Syrk { n, k, .. } => flops::syrk_flops(n, k),
            KernelOp::Symm { .. } => flops::symm_flops(order, other),
            KernelOp::Trmm { .. } => flops::trmm_flops(order, other),
            KernelOp::Trsm { .. } => flops::trsm_flops(order, other),
            KernelOp::Potrf { n, .. } => flops::potrf_flops(n),
            KernelOp::CopyTriangle { n, .. } => flops::copy_triangle_flops(n),
            KernelOp::Getrf { n } => flops::getrf_flops(n),
            KernelOp::Qr { m, n } => flops::qr_flops(m, n),
            KernelOp::Ormqr { m, n, k } => flops::ormqr_flops(m, n, k),
            KernelOp::FactorTri { n, .. } => flops::factor_triangle_flops(n),
            KernelOp::PivotApply { m, n, .. } => flops::pivot_apply_flops(m, n),
        }
    }

    /// Shape `(rows, cols)` of the output of this operation.
    #[must_use]
    pub fn output_shape(&self) -> (usize, usize) {
        match *self {
            KernelOp::Gemm { m, n, .. } => (m, n),
            KernelOp::Syrk { n, .. } => (n, n),
            KernelOp::Symm { m, n, .. }
            | KernelOp::Trmm { m, n, .. }
            | KernelOp::Trsm { m, n, .. } => (m, n),
            KernelOp::Potrf { n, .. } | KernelOp::CopyTriangle { n, .. } => (n, n),
            KernelOp::Getrf { n } => (n, n.saturating_add(1)),
            KernelOp::Qr { m, n } => (m, n.saturating_add(1)),
            KernelOp::Ormqr { n, k, .. } => (n, k),
            KernelOp::FactorTri { n, .. } => (n, n),
            KernelOp::PivotApply { m, n, .. } => (m, n),
        }
    }

    /// Number of `f64` elements written by this operation (used by
    /// memory-traffic-aware time models): the full output for the rectangular
    /// results and packed factors, the populated triangle for SYRK, POTRF and
    /// FactorTri, the mirrored strict triangle for the copy. Total across
    /// every kernel: safe at degenerate dimensions.
    #[must_use]
    pub fn output_elements(&self) -> u64 {
        match *self {
            KernelOp::Syrk { n, .. }
            | KernelOp::Potrf { n, .. }
            | KernelOp::FactorTri { n, .. } => flops::factor_triangle_elements(n),
            KernelOp::CopyTriangle { n, .. } => flops::copy_triangle_elements(n),
            _ => {
                let (rows, cols) = self.output_shape();
                (rows as u64).saturating_mul(cols as u64)
            }
        }
    }

    /// Shape and structure of every input operand, in kernel argument order
    /// (the structured operand — triangle, symmetric operand, packed factor —
    /// first, then the rectangular one); the number of items is the op's
    /// arity. The structure is what a well-formed operand must at least
    /// have: `Triangular(uplo)` for TRMM/TRSM's triangle, `Spd` for SYMM's
    /// symmetric operand and POTRF's, `General` otherwise. The packed
    /// factors (`r×(n+1)`) are general; FactorTri's is listed at its
    /// smallest shape — a QR factor is taller than the triangle it holds.
    pub fn input_shapes(&self) -> impl Iterator<Item = OperandShape> {
        let g = Structure::General;
        let (order, _) = self.structured_dims().unwrap_or_default();
        let (first, second) = match *self {
            KernelOp::Gemm {
                transa,
                transb,
                m,
                n,
                k,
            } => {
                let (ar, ac) = transa.apply((m, k));
                let (br, bc) = transb.apply((k, n));
                ((ar, ac, g), Some((br, bc, g)))
            }
            KernelOp::Syrk { trans, n, k, .. } => {
                let (ar, ac) = trans.apply((n, k));
                ((ar, ac, g), None)
            }
            KernelOp::Symm { m, n, .. } => ((order, order, Structure::Spd), Some((m, n, g))),
            KernelOp::Trmm { uplo, m, n, .. } | KernelOp::Trsm { uplo, m, n, .. } => {
                ((order, order, Structure::Triangular(uplo)), Some((m, n, g)))
            }
            KernelOp::Potrf { n, .. } => ((n, n, Structure::Spd), None),
            KernelOp::CopyTriangle { n, .. } | KernelOp::Getrf { n } => ((n, n, g), None),
            KernelOp::Qr { m, n } => ((m, n, g), None),
            KernelOp::Ormqr { m, n, k } => ((m, n.saturating_add(1), g), Some((m, k, g))),
            KernelOp::FactorTri { n, .. } => ((n, n.saturating_add(1), g), None),
            KernelOp::PivotApply { m, n, .. } => {
                ((order, order.saturating_add(1), g), Some((m, n, g)))
            }
        };
        std::iter::once(first).chain(second)
    }

    /// Structure of the output operand: POTRF's factor and FactorTri's
    /// extraction are explicitly triangular (exact zeros outside `uplo`);
    /// everything else — SYRK's one-triangle result included, which the IR
    /// tracks as a storage state rather than a structure — is general.
    #[must_use]
    pub fn output_structure(&self) -> Structure {
        match *self {
            KernelOp::Potrf { uplo, .. } | KernelOp::FactorTri { uplo, .. } => {
                Structure::Triangular(uplo)
            }
            _ => Structure::General,
        }
    }

    /// One square instance of every variant at order `size` (lower triangle,
    /// no transposition, a single right-hand side for ORMQR), both sides
    /// where the op is sided: the list the calibration sweep draws its
    /// kernels from and the vocabulary-completeness test iterates.
    #[must_use]
    pub fn examples(size: usize) -> Vec<KernelOp> {
        let (uplo, trans, m, n) = (Uplo::Lower, Trans::No, size, size);
        let mut ops = vec![
            KernelOp::Gemm {
                transa: trans,
                transb: trans,
                m,
                n,
                k: size,
            },
            KernelOp::Syrk {
                uplo,
                trans,
                n,
                k: size,
            },
            KernelOp::Potrf { uplo, n },
            KernelOp::CopyTriangle { uplo, n },
            KernelOp::Getrf { n },
            KernelOp::Qr { m, n },
            KernelOp::Ormqr { m, n, k: 1 },
            KernelOp::FactorTri { uplo, n },
        ];
        for side in [Side::Left, Side::Right] {
            ops.extend([
                KernelOp::Symm { side, uplo, m, n },
                KernelOp::Trmm {
                    side,
                    uplo,
                    trans,
                    m,
                    n,
                },
                KernelOp::Trsm {
                    side,
                    uplo,
                    trans,
                    m,
                    n,
                },
                KernelOp::PivotApply { side, m, n },
            ]);
        }
        ops
    }

    /// Whether this operation performs floating-point work.
    #[must_use]
    pub fn is_compute(&self) -> bool {
        !matches!(
            self,
            KernelOp::CopyTriangle { .. }
                | KernelOp::FactorTri { .. }
                | KernelOp::PivotApply { .. }
        )
    }

    /// The canonical form of this operation under the *isolated-call timing
    /// model*: GEMM's transposition flags are cleared, because a GEMM with
    /// logical dimensions `m×n×k` performs the same work — and, under the
    /// isolated-call benchmark protocol, takes the same time — regardless of
    /// how its operands are stored. Two operations with equal timing keys are
    /// interchangeable for timing memoisation (the planner's prediction
    /// cache, `CallTimeTable`, the calibration store); they are *not*
    /// interchangeable for execution, which still needs the real flags.
    ///
    /// SYRK/SYMM keep their flags: their `uplo`/`trans`/`side` choices change
    /// which triangle is touched and how memory is walked, and the timing
    /// layer makes no invariance claim for them.
    ///
    /// TRMM/TRSM canonicalise the `(uplo, trans)` pair to the *effective*
    /// triangle with the transposition cleared: `op(L)` for a stored-lower
    /// `L` with `trans = T` occupies the upper triangle, walks memory like a
    /// stored-upper untransposed operand, and performs identical work — so
    /// `(Lower, T)` and `(Upper, N)` share one benchmark entry. The `side`
    /// flag is *kept*: multiplying (or solving) from the right walks memory
    /// column-block-wise rather than row-block-wise and parallelises
    /// differently, so left and right variants are separate benchmark
    /// entries even at equal FLOP counts.
    ///
    /// POTRF keeps its `uplo`: factoring into the lower versus the upper
    /// triangle walks memory differently, and the timing layer makes no
    /// invariance claim for it (like SYRK/SYMM).
    ///
    /// The pivoted-factorisation family (GETRF, QR, ORMQR, FactorTri,
    /// PivotApply) is already canonical: none carries a transposition flag,
    /// and FactorTri keeps its `uplo` for the same reason POTRF does.
    #[must_use]
    pub fn timing_key(&self) -> KernelOp {
        let mut key = self.clone();
        if let KernelOp::Trmm { uplo, trans, .. } | KernelOp::Trsm { uplo, trans, .. } = &mut key {
            *uplo = uplo.under(*trans);
        }
        key.clear_unkeyed();
        key
    }
}

impl fmt::Display for KernelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KernelOp::Gemm {
                transa,
                transb,
                m,
                n,
                k,
            } => write!(
                f,
                "gemm({}{} {}x{}x{})",
                transa.tag(),
                transb.tag(),
                m,
                n,
                k
            ),
            KernelOp::Syrk { uplo, trans, n, k } => {
                write!(f, "syrk({}{} {}x{})", uplo.tag(), trans.tag(), n, k)
            }
            KernelOp::Symm { side, uplo, m, n } => {
                write!(f, "symm({}{} {}x{})", side.tag(), uplo.tag(), m, n)
            }
            KernelOp::Trmm {
                side,
                uplo,
                trans,
                m,
                n,
            } => {
                write!(
                    f,
                    "trmm({}{}{} {}x{})",
                    side.tag(),
                    uplo.tag(),
                    trans.tag(),
                    m,
                    n
                )
            }
            KernelOp::Trsm {
                side,
                uplo,
                trans,
                m,
                n,
            } => {
                write!(
                    f,
                    "trsm({}{}{} {}x{})",
                    side.tag(),
                    uplo.tag(),
                    trans.tag(),
                    m,
                    n
                )
            }
            KernelOp::Potrf { uplo, n } => {
                write!(f, "potrf({} {}x{})", uplo.tag(), n, n)
            }
            KernelOp::CopyTriangle { uplo, n } => {
                write!(f, "copy({} {0}x{0} tri {1})", n, uplo.tag())
            }
            KernelOp::Getrf { n } => write!(f, "getrf({n}x{n})"),
            KernelOp::Qr { m, n } => write!(f, "qr({m}x{n})"),
            KernelOp::Ormqr { m, n, k } => write!(f, "ormqr({m}x{n} rhs {k})"),
            KernelOp::FactorTri { uplo, n } => {
                write!(f, "factortri({} {}x{})", uplo.tag(), n, n)
            }
            KernelOp::PivotApply { side, m, n } => {
                write!(f, "laswp({} {m}x{n})", side.tag())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_follow_paper() {
        let op = KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 10,
            n: 20,
            k: 30,
        };
        assert_eq!(op.flops(), 2 * 10 * 20 * 30);
        assert_eq!(op.output_shape(), (10, 20));
        assert_eq!(op.output_elements(), 200);
        assert!(op.is_compute());
    }

    #[test]
    fn syrk_flops_follow_paper() {
        let op = KernelOp::Syrk {
            uplo: Uplo::Lower,
            trans: Trans::No,
            n: 7,
            k: 5,
        };
        assert_eq!(op.flops(), 8 * 7 * 5);
        assert_eq!(op.output_shape(), (7, 7));
        assert_eq!(op.output_elements(), 28);
    }

    #[test]
    fn symm_flops_follow_paper_for_both_sides() {
        let left = KernelOp::Symm {
            side: Side::Left,
            uplo: Uplo::Lower,
            m: 6,
            n: 9,
        };
        assert_eq!(left.flops(), 2 * 36 * 9);
        let right = KernelOp::Symm {
            side: Side::Right,
            uplo: Uplo::Upper,
            m: 6,
            n: 9,
        };
        assert_eq!(right.flops(), 2 * 81 * 6);
    }

    #[test]
    fn copy_triangle_is_zero_flops_but_not_compute() {
        let op = KernelOp::CopyTriangle {
            uplo: Uplo::Lower,
            n: 100,
        };
        assert_eq!(op.flops(), 0);
        assert!(!op.is_compute());
        assert_eq!(op.output_elements(), 100 * 99 / 2);
    }

    #[test]
    fn map_dims_maps_every_dimension_and_keeps_every_flag() {
        for op in KernelOp::examples(6) {
            assert_eq!(op.map_dims(|d| d), op);
            let doubled = op.map_dims(|d| 2 * d);
            assert_eq!(doubled.mnemonic(), op.mnemonic());
            for (before, after) in op.fields().iter().zip(doubled.fields()) {
                let want = match before.value {
                    FieldValue::Dim(d) => FieldValue::Dim(2 * d),
                    flag => flag,
                };
                assert_eq!(after.value, want, "{op} field {}", before.name);
            }
        }
    }

    #[test]
    fn packed_factor_shapes_saturate_at_the_largest_order() {
        let getrf = KernelOp::Getrf { n: usize::MAX };
        assert_eq!(getrf.output_shape(), (usize::MAX, usize::MAX));
        assert_eq!(getrf.output_elements(), u64::MAX);
        assert_eq!(getrf.flops(), u64::MAX);
    }

    #[test]
    fn timing_key_clears_gemm_transposition_only() {
        let transposed = KernelOp::Gemm {
            transa: Trans::Yes,
            transb: Trans::No,
            m: 10,
            n: 20,
            k: 30,
        };
        let plain = KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 10,
            n: 20,
            k: 30,
        };
        assert_eq!(transposed.timing_key(), plain);
        assert_eq!(plain.timing_key(), plain);
        // Different logical dimensions stay distinct.
        let other = KernelOp::Gemm {
            transa: Trans::Yes,
            transb: Trans::No,
            m: 10,
            n: 20,
            k: 31,
        };
        assert_ne!(other.timing_key(), plain);
        // Non-GEMM operations are their own timing keys.
        let syrk = KernelOp::Syrk {
            uplo: Uplo::Upper,
            trans: Trans::Yes,
            n: 5,
            k: 6,
        };
        assert_eq!(syrk.timing_key(), syrk);
    }

    #[test]
    fn triangular_ops_follow_the_half_gemm_model() {
        let trmm = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 10,
            n: 7,
        };
        let trsm = KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Trans::Yes,
            m: 10,
            n: 7,
        };
        assert_eq!(trmm.flops(), 10 * 10 * 7);
        assert_eq!(trsm.flops(), trmm.flops());
        // On the right the triangle's order is n, so the count flips to n²·m.
        let trmm_r = KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 10,
            n: 7,
        };
        let trsm_r = KernelOp::Trsm {
            side: Side::Right,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 10,
            n: 7,
        };
        assert_eq!(trmm_r.flops(), 7 * 7 * 10);
        assert_eq!(trsm_r.flops(), trmm_r.flops());
        assert_eq!(trmm_r.output_shape(), (10, 7));
        assert_eq!(trmm.output_shape(), (10, 7));
        assert_eq!(trmm.output_elements(), 70);
        assert!(trmm.is_compute());
        assert_eq!(trmm.mnemonic(), "trmm");
        assert_eq!(trsm.mnemonic(), "trsm");
        let gemm = KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 10,
            n: 7,
            k: 10,
        };
        assert_eq!(trmm.flops() * 2, gemm.flops());
    }

    #[test]
    fn triangular_timing_keys_canonicalise_to_the_effective_triangle() {
        // (Lower, T) and (Upper, N) walk the same effective triangle.
        let stored_lower_t = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::Yes,
            m: 64,
            n: 32,
        };
        let stored_upper_n = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 64,
            n: 32,
        };
        assert_eq!(stored_lower_t.timing_key(), stored_upper_n.timing_key());
        // But opposite effective triangles stay distinct.
        let stored_lower_n = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::No,
            m: 64,
            n: 32,
        };
        assert_ne!(stored_lower_n.timing_key(), stored_upper_n.timing_key());
        // Same canonicalisation for the solve, and the two ops never collide.
        let trsm = KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::Yes,
            m: 64,
            n: 32,
        };
        assert_eq!(
            trsm.timing_key(),
            KernelOp::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Trans::No,
                m: 64,
                n: 32,
            }
        );
        assert_ne!(trsm.timing_key(), stored_lower_t.timing_key());
    }

    #[test]
    fn triangular_timing_keys_keep_the_side_flag() {
        // Left and right variants never share a benchmark entry, even at
        // equal logical dimensions and FLOP counts — but within one side the
        // effective-triangle canonicalisation still folds (Lower, T) onto
        // (Upper, N).
        let right_lower_t = KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::Yes,
            m: 64,
            n: 64,
        };
        let right_upper_n = KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 64,
            n: 64,
        };
        let left_upper_n = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 64,
            n: 64,
        };
        assert_eq!(right_lower_t.timing_key(), right_upper_n.timing_key());
        assert_ne!(right_upper_n.timing_key(), left_upper_n.timing_key());
        assert_eq!(right_lower_t.flops(), left_upper_n.flops());
        let trsm_r = KernelOp::Trsm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Trans::Yes,
            m: 40,
            n: 24,
        };
        assert_eq!(
            trsm_r.timing_key(),
            KernelOp::Trsm {
                side: Side::Right,
                uplo: Uplo::Upper,
                trans: Trans::No,
                m: 40,
                n: 24,
            }
        );
        // Display distinguishes the sides.
        assert!(right_upper_n.to_string().contains("trmm(RU"));
        assert!(left_upper_n.to_string().contains("trmm(LU"));
    }

    #[test]
    fn potrf_follows_the_cubed_over_three_model() {
        let op = KernelOp::Potrf {
            uplo: Uplo::Lower,
            n: 90,
        };
        assert_eq!(op.flops(), 90u64.pow(3) / 3);
        assert_eq!(op.output_shape(), (90, 90));
        assert_eq!(op.output_elements(), 90 * 91 / 2);
        assert!(op.is_compute());
        assert_eq!(op.mnemonic(), "potrf");
        let s = op.to_string();
        assert!(s.contains("potrf") && s.contains('L'));
        // POTRF keeps its uplo in the timing key; the two triangles are
        // distinct benchmark entries.
        assert_eq!(op.timing_key(), op);
        let upper = KernelOp::Potrf {
            uplo: Uplo::Upper,
            n: 90,
        };
        assert_ne!(op.timing_key(), upper.timing_key());
        // One sixth of the equal-order GEMM, leading order.
        let gemm = KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::No,
            m: 90,
            n: 90,
            k: 90,
        };
        assert!(op.flops() * 6 <= gemm.flops());
    }

    #[test]
    fn degenerate_dimensions_never_underflow() {
        // Regression for the `n == 0` CopyTriangle underflow (debug panic /
        // release wraparound pre-fix), plus an audit of every kernel op at
        // zero and unit dimensions.
        let ops = [
            KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: 0,
                n: 0,
                k: 0,
            },
            KernelOp::Syrk {
                uplo: Uplo::Lower,
                trans: Trans::No,
                n: 0,
                k: 0,
            },
            KernelOp::Symm {
                side: Side::Left,
                uplo: Uplo::Lower,
                m: 0,
                n: 0,
            },
            KernelOp::Trmm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: Trans::No,
                m: 0,
                n: 0,
            },
            KernelOp::Trsm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: Trans::No,
                m: 0,
                n: 0,
            },
            KernelOp::Potrf {
                uplo: Uplo::Lower,
                n: 0,
            },
            KernelOp::CopyTriangle {
                uplo: Uplo::Lower,
                n: 0,
            },
        ];
        for op in &ops {
            assert_eq!(op.flops(), 0, "{op}");
            assert_eq!(op.output_elements(), 0, "{op}");
            assert_eq!(op.output_shape(), (0, 0), "{op}");
        }
        // Unit dimensions are tiny but well defined.
        assert_eq!(
            KernelOp::CopyTriangle {
                uplo: Uplo::Upper,
                n: 1
            }
            .output_elements(),
            0
        );
        assert_eq!(
            KernelOp::Syrk {
                uplo: Uplo::Lower,
                trans: Trans::No,
                n: 1,
                k: 1
            }
            .flops(),
            2
        );
    }

    #[test]
    fn pivoted_factorisation_ops_follow_their_flop_models() {
        let getrf = KernelOp::Getrf { n: 90 };
        assert_eq!(getrf.flops(), 2 * 90u64.pow(3) / 3);
        assert_eq!(getrf.output_shape(), (90, 91));
        assert_eq!(getrf.output_elements(), 90 * 91);
        assert!(getrf.is_compute());
        assert_eq!(getrf.mnemonic(), "getrf");
        // Twice POTRF (both triangles), a third of the equal-order GEMM.
        assert_eq!(
            getrf.flops(),
            2 * KernelOp::Potrf {
                uplo: Uplo::Lower,
                n: 90
            }
            .flops()
        );

        let qr = KernelOp::Qr { m: 120, n: 40 };
        assert_eq!(qr.flops(), 2 * 40 * 40 * (3 * 120 - 40) / 3);
        assert_eq!(qr.output_shape(), (120, 41));
        assert_eq!(qr.output_elements(), 120 * 41);
        assert_eq!(qr.mnemonic(), "qr");
        // Square QR is double GETRF: 4n³/3 vs 2n³/3.
        let sq = KernelOp::Qr { m: 90, n: 90 };
        assert_eq!(sq.flops(), 2 * getrf.flops());

        let ormqr = KernelOp::Ormqr {
            m: 120,
            n: 40,
            k: 7,
        };
        assert_eq!(ormqr.flops(), 2 * 40 * 7 * (2 * 120 - 40));
        assert_eq!(ormqr.output_shape(), (40, 7));
        assert_eq!(ormqr.output_elements(), 40 * 7);
        assert_eq!(ormqr.mnemonic(), "ormqr");

        let tri = KernelOp::FactorTri {
            uplo: Uplo::Upper,
            n: 40,
        };
        assert_eq!(tri.flops(), 0);
        assert!(!tri.is_compute());
        assert_eq!(tri.output_shape(), (40, 40));
        assert_eq!(tri.output_elements(), 40 * 41 / 2);
        assert_eq!(tri.mnemonic(), "factortri");

        let piv = KernelOp::PivotApply {
            side: Side::Left,
            m: 90,
            n: 7,
        };
        assert_eq!(piv.flops(), 0);
        assert!(!piv.is_compute());
        assert_eq!(piv.output_shape(), (90, 7));
        assert_eq!(piv.output_elements(), 90 * 7);
        assert_eq!(piv.mnemonic(), "laswp");

        // All five are their own timing keys, and FactorTri keeps its uplo.
        for op in [&getrf, &qr, &ormqr, &tri, &piv] {
            assert_eq!(&op.timing_key(), op, "{op}");
        }
        assert_ne!(
            tri.timing_key(),
            KernelOp::FactorTri {
                uplo: Uplo::Lower,
                n: 40
            }
            .timing_key()
        );
    }

    #[test]
    fn pivoted_ops_never_underflow_at_degenerate_dimensions() {
        // The packed factor keeps its pivot/tau column even at order zero, so
        // output shapes are (0, 1) rather than (0, 0) — but FLOPs, elements
        // and saturating wide shapes must all stay at zero.
        let getrf = KernelOp::Getrf { n: 0 };
        assert_eq!(getrf.flops(), 0);
        assert_eq!(getrf.output_shape(), (0, 1));
        assert_eq!(getrf.output_elements(), 0);
        let qr = KernelOp::Qr { m: 0, n: 0 };
        assert_eq!(qr.flops(), 0);
        assert_eq!(qr.output_shape(), (0, 1));
        assert_eq!(qr.output_elements(), 0);
        // Wide (malformed) QR saturates instead of underflowing.
        assert_eq!(KernelOp::Qr { m: 1, n: 5 }.flops(), 0);
        assert_eq!(KernelOp::Ormqr { m: 2, n: 10, k: 5 }.flops(), 0);
        for op in [
            KernelOp::Ormqr { m: 0, n: 0, k: 0 },
            KernelOp::FactorTri {
                uplo: Uplo::Lower,
                n: 0,
            },
            KernelOp::PivotApply {
                side: Side::Left,
                m: 0,
                n: 0,
            },
        ] {
            assert_eq!(op.flops(), 0, "{op}");
            assert_eq!(op.output_elements(), 0, "{op}");
            assert_eq!(op.output_shape(), (0, 0), "{op}");
        }
        // Unit dimensions are tiny but well defined.
        assert_eq!(KernelOp::Getrf { n: 1 }.flops(), 0); // 2/3 floors to 0
        assert_eq!(KernelOp::Qr { m: 1, n: 1 }.flops(), 2 * (3 - 1) / 3);
        assert_eq!(KernelOp::Ormqr { m: 1, n: 1, k: 1 }.flops(), 2);
    }

    #[test]
    fn mnemonics_and_display_are_informative() {
        let op = KernelOp::Syrk {
            uplo: Uplo::Upper,
            trans: Trans::Yes,
            n: 3,
            k: 4,
        };
        assert_eq!(op.mnemonic(), "syrk");
        let s = op.to_string();
        assert!(s.contains("syrk"));
        assert!(s.contains('U'));
        assert!(s.contains('T'));
        // Every variant has its own ordinal, the position of its mnemonic.
        let mut seen = vec![false; KernelOp::MNEMONICS.len()];
        for op in KernelOp::examples(4) {
            assert_eq!(KernelOp::MNEMONICS[op.ordinal()], op.mnemonic());
            seen[op.ordinal()] = true;
        }
        assert!(seen.iter().all(|&s| s), "examples cover every variant");
    }
}
