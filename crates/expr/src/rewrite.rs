//! The rewrite-rule layer of the general enumerator: structural opportunities
//! that let one product step be computed by different (sets of) kernels.
//!
//! The enumerator in [`crate::enumerate`] walks an expression tree as a list
//! of factors and repeatedly merges two adjacent sub-results `L·R`. For each
//! merge this module reports the set of *variants* — kernel sequences that
//! compute the same product. Three families of rewrites are recognised:
//!
//! * **Transpose pushing** `(A·B)ᵀ → Bᵀ·Aᵀ` happens before enumeration, when
//!   the tree is flattened by [`crate::expr::Expr::factors`]: transposes are
//!   moved onto the leaves (cancelling double transposes), so every merge is
//!   a plain product of possibly-transposed leaves or intermediates.
//! * **Gram products** `X·Xᵀ` (the same leaf on both sides, one transposed)
//!   can be computed by SYRK — writing one triangle of the symmetric result —
//!   instead of GEMM. The SYRK variant stores the result as a triangle; the
//!   GEMM variant stores it fully but the engine still remembers that the
//!   *values* are symmetric. This is what derives the paper's `A·Aᵀ·B`
//!   algorithms 1/2 (SYRK-based) versus 3/4 (GEMM-based).
//! * **Symmetric-operand products**: when one side of a merge is a known
//!   symmetric intermediate it can multiply through SYMM (reading only the
//!   stored triangle) instead of GEMM; a triangle-stored operand can instead
//!   be completed into a full matrix by a triangle copy first and then fed to
//!   GEMM. These derive algorithm 1 (SYMM) versus 2 (copy + GEMM).
//!
//! * **Triangular products**: a side whose values are known triangular (a
//!   triangular leaf, possibly transposed — transposition flips the
//!   triangle — or a product of same-triangle factors) can multiply through
//!   TRMM, reading only its triangle and performing `m²·n` FLOPs instead of
//!   GEMM's `2·m²·n`. Cholesky-style Gram products `L·Lᵀ` stay on the SYRK
//!   rewrite: the Gram rule fires first and the SYRK/GEMM pair already
//!   captures the paper's algorithm set for them.
//! * **Triangular inverses**: an inverse-marked triangular side `L⁻¹·B`
//!   lowers to a left-side TRSM and `B·L⁻¹` to a right-side TRSM — the only
//!   realisations, since no kernel materialises an explicit inverse. Both
//!   sides lower *directly*: a right-side solve is one sided kernel call,
//!   never a transpose round-trip.
//! * **SPD operands**: a symmetric positive-definite side is symmetric and
//!   stored in full, so plain products through it pick up the SYMM-versus-
//!   GEMM variant pair of any full-stored symmetric operand. An
//!   inverse-marked SPD side `S⁻¹·B` lowers to the **Cholesky realisation**
//!   `POTRF(S) = L; TRSM(L,·); TRSM(Lᵀ,·)` — the only realisation of an SPD
//!   inverse, turning expressions that previously died with
//!   `NoRealisation` into planable algorithm sets. The mirrored `B·S⁻¹`
//!   lowers to the same POTRF followed by two *right-side* TRSMs.
//! * **General inverses**: an inverse-marked general square side `A⁻¹·B`
//!   lowers to the **pivoted LU realisation** `F := GETRF(A)`;
//!   `Bₚ := P·B`; `Y := L⁻¹·Bₚ`; `X := U⁻¹·Y` — the only realisation of a
//!   general inverse (no kernel materialises an explicit inverse). The
//!   mirrored `B·A⁻¹ = ((B·U⁻¹)·L⁻¹)·P` runs the right-side solves first and
//!   applies the pivots as *column* swaps last.
//! * **Pseudo-inverses**: a pseudo-inverse-marked tall side `A⁺·b` (the
//!   least-squares solve `argmin‖A·x − b‖₂`) lowers to the **QR
//!   realisation** `F := QR(A)`; `C := Q₁ᵀ·b`; `x := R⁻¹·C`.
//!
//! The variant *order* within each merge follows the paper's presentation
//! (SYRK before GEMM, SYMM before copy+GEMM, and analogously the structured
//! TRMM before GEMM), which is how the engine reproduces the paper's
//! algorithm numbering for `A·Aᵀ·B`.

use lamb_matrix::{Trans, Uplo};

/// How the values of a sub-result are stored, as tracked by the enumerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// A general dense matrix with no known structure.
    General,
    /// A symmetric matrix stored in full (every element explicit), e.g. the
    /// result of computing `X·Xᵀ` with GEMM.
    SymmetricFull,
    /// A symmetric matrix with only the lower triangle stored, e.g. the
    /// result of SYRK. Reading it as a general matrix is invalid until a
    /// triangle copy completes the other half.
    SymmetricTriangle,
}

impl Storage {
    /// Whether the values are known to be symmetric (regardless of storage).
    #[must_use]
    pub fn is_symmetric(self) -> bool {
        !matches!(self, Storage::General)
    }
}

/// The enumerator's view of one side of a merge, as far as the rewrite rules
/// are concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOperand {
    /// Index of the distinct leaf this side is (None for intermediates).
    pub leaf: Option<usize>,
    /// Leaf transposition (always [`Trans::No`] for intermediates).
    pub trans: Trans,
    /// How the side's values are stored.
    pub storage: Storage,
    /// The triangle the side's values *effectively* occupy (transposition
    /// already applied), when the side is known triangular. Triangular sides
    /// are stored fully with explicit zeros, so `storage` stays
    /// [`Storage::General`].
    pub tri: Option<Uplo>,
    /// Whether the side is a symmetric positive-definite leaf. SPD sides are
    /// symmetric and stored in full, so they also carry
    /// [`Storage::SymmetricFull`]; the flag additionally unlocks the Cholesky
    /// realisation when the side is inverse-marked.
    pub spd: bool,
    /// Whether the side is inverse-marked: a triangular inverse lowers to
    /// TRSM, an SPD inverse to POTRF + two TRSMs, and a *general* square
    /// inverse to the pivoted LU realisation GETRF + pivot + two TRSMs.
    pub inv: bool,
    /// Whether the side is pseudo-inverse-marked (`A⁺·b`, the least-squares
    /// solve): lowered to the QR realisation QR + ORMQR + TRSM. Only tall
    /// (`rows >= cols`) operands are realisable.
    pub pinv: bool,
}

impl MergeOperand {
    /// The view of a leaf factor.
    #[must_use]
    pub fn leaf(index: usize, trans: Trans) -> Self {
        MergeOperand {
            leaf: Some(index),
            trans,
            storage: Storage::General,
            tri: None,
            spd: false,
            inv: false,
            pinv: false,
        }
    }

    /// The view of a general leaf factor whose use is inverse-marked
    /// (`A⁻¹·B` for square, unstructured `A`): lowered to the pivoted LU
    /// realisation.
    #[must_use]
    pub fn inv_leaf(index: usize, trans: Trans) -> Self {
        MergeOperand {
            leaf: Some(index),
            trans,
            storage: Storage::General,
            tri: None,
            spd: false,
            inv: true,
            pinv: false,
        }
    }

    /// The view of a general leaf factor whose use is pseudo-inverse-marked
    /// (`A⁺·b`, the least-squares solve): lowered to the QR realisation.
    #[must_use]
    pub fn pinv_leaf(index: usize, trans: Trans) -> Self {
        MergeOperand {
            leaf: Some(index),
            trans,
            storage: Storage::General,
            tri: None,
            spd: false,
            inv: false,
            pinv: true,
        }
    }

    /// The view of a triangular leaf factor; `tri` is the triangle the
    /// factor effectively occupies after `trans`.
    #[must_use]
    pub fn tri_leaf(index: usize, trans: Trans, tri: Uplo, inv: bool) -> Self {
        MergeOperand {
            leaf: Some(index),
            trans,
            storage: Storage::General,
            tri: Some(tri),
            spd: false,
            inv,
            pinv: false,
        }
    }

    /// The view of a symmetric positive-definite leaf factor. SPD operands
    /// are symmetric values stored in full, so plain uses carry
    /// [`Storage::SymmetricFull`] (unlocking the SYMM variants); an
    /// inverse-marked use lowers to the Cholesky realisation instead.
    #[must_use]
    pub fn spd_leaf(index: usize, trans: Trans, inv: bool) -> Self {
        MergeOperand {
            leaf: Some(index),
            trans,
            storage: Storage::SymmetricFull,
            tri: None,
            spd: true,
            inv,
            pinv: false,
        }
    }

    /// The view of an intermediate with the given storage.
    #[must_use]
    pub fn intermediate(storage: Storage) -> Self {
        MergeOperand {
            leaf: None,
            trans: Trans::No,
            storage,
            tri: None,
            spd: false,
            inv: false,
            pinv: false,
        }
    }

    /// The view of a triangular intermediate (e.g. a product of two
    /// same-triangle factors).
    #[must_use]
    pub fn tri_intermediate(tri: Uplo) -> Self {
        MergeOperand {
            leaf: None,
            trans: Trans::No,
            storage: Storage::General,
            tri: Some(tri),
            spd: false,
            inv: false,
            pinv: false,
        }
    }
}

/// One way of computing a merge `L·R`, possibly with preparatory calls
/// (triangle copies) on the operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// Plain GEMM.
    Gemm,
    /// `X·Xᵀ` via SYRK; the result is stored as a (lower) triangle.
    SyrkTriangle,
    /// `X·Xᵀ` via SYRK followed by a triangle copy that completes the full
    /// matrix (used when the Gram product is the final result, which must be
    /// stored in full).
    SyrkThenCopy,
    /// `X·Xᵀ` via GEMM; the result is stored in full but known symmetric.
    GemmSymmetric,
    /// SYMM with the left operand as the symmetric one.
    SymmLeft,
    /// SYMM with the right operand as the symmetric one.
    SymmRight,
    /// Triangle-copy the left operand to full storage, then GEMM.
    CopyLeftThenGemm,
    /// Triangle-copy the right operand to full storage, then GEMM.
    CopyRightThenGemm,
    /// Triangle-copy both operands, then GEMM (both sides triangle-stored).
    CopyBothThenGemm,
    /// Triangle-copy the right operand, then SYMM on the (triangle-stored)
    /// left operand.
    CopyRightThenSymmLeft,
    /// Triangle-copy the left operand, then SYMM on the (triangle-stored)
    /// right operand.
    CopyLeftThenSymmRight,
    /// The left operand is triangular: multiply through TRMM, reading only
    /// its effective triangle (`m²·n` FLOPs versus GEMM's `2·m²·n`).
    Trmm,
    /// The *right* operand is triangular (`B·L`): multiply through a
    /// right-side TRMM, reading only its effective triangle (`n²·m` FLOPs
    /// versus GEMM's `2·n²·m`).
    TrmmRight,
    /// The left operand is an inverse-marked triangular: solve through TRSM
    /// (`m²·n` FLOPs). The only realisation of a triangular inverse.
    Trsm,
    /// The *right* operand is an inverse-marked triangular (`B·L⁻¹`): solve
    /// through a right-side TRSM (`n²·m` FLOPs) — realised directly as one
    /// sided kernel call, never via a transpose round-trip. The only
    /// realisation of a right-side triangular inverse.
    TrsmRight,
    /// The left operand is an inverse-marked SPD matrix `S⁻¹`: realise the
    /// solve through a Cholesky factorisation and two triangular solves —
    /// `L := POTRF(S)`, `Y := L⁻¹·B`, `X := L⁻ᵀ·Y` — for `m³/3 + 2·m²·n`
    /// FLOPs. The only realisation of an SPD inverse (no kernel materialises
    /// an explicit inverse).
    CholeskySolve,
    /// The *right* operand is an inverse-marked SPD matrix (`B·S⁻¹`):
    /// realise the solve through a Cholesky factorisation and two
    /// *right-side* triangular solves — `L := POTRF(S)`, `Y := B·L⁻ᵀ`,
    /// `X := Y·L⁻¹` — for `n³/3 + 2·n²·m` FLOPs. The only realisation of a
    /// right-side SPD inverse.
    CholeskySolveRight,
    /// The left operand is an inverse-marked *general* square matrix `A⁻¹`:
    /// realise the solve through a pivoted LU factorisation — `F := GETRF(A)`
    /// (packed `L\U` with the pivot column), extract `L` and `U`, apply the
    /// row permutation to the right-hand side, and finish with two
    /// triangular solves — for `2·m³/3 + 2·m²·n` FLOPs. The only realisation
    /// of a general inverse.
    LuSolve,
    /// The *right* operand is an inverse-marked *general* square matrix
    /// (`B·A⁻¹`): realise the solve through the same pivoted LU
    /// factorisation mirrored — `F := GETRF(A)`, extract `U` and `L`, solve
    /// `Y := B·U⁻¹` and `Z := Y·L⁻¹` from the right, and apply the recorded
    /// pivots as *column* swaps last (`X := Z·P`) — for `2·n³/3 + 2·n²·m`
    /// FLOPs. The only realisation of a right-side general inverse.
    LuSolveRight,
    /// The left operand is a pseudo-inverse-marked tall matrix `A⁺`: realise
    /// the least-squares solve `argmin‖A·x − b‖₂` through a Householder QR
    /// factorisation — `F := QR(A)`, extract `R`, form `C := Q₁ᵀ·b` with
    /// ORMQR, and finish with one triangular solve `x := R⁻¹·C`. The only
    /// realisation of a pseudo-inverse.
    QrSolve,
}

impl MergeKind {
    /// How the result of this merge variant is stored.
    #[must_use]
    pub fn result_storage(self) -> Storage {
        match self {
            MergeKind::SyrkTriangle => Storage::SymmetricTriangle,
            MergeKind::GemmSymmetric => Storage::SymmetricFull,
            _ => Storage::General,
        }
    }

    /// Whether the result of this merge variant stays triangular when both
    /// sides effectively occupy the triangle `uplo` (the product of two
    /// same-triangle matrices — and the solve `L⁻¹·B` against a same-triangle
    /// `B` — is again triangular, with *exact* zeros in the opposite
    /// triangle even through GEMM, which only ever sums explicit zeros
    /// there).
    #[must_use]
    pub fn preserves_triangle(self) -> bool {
        matches!(
            self,
            MergeKind::Trmm
                | MergeKind::TrmmRight
                | MergeKind::Trsm
                | MergeKind::TrsmRight
                | MergeKind::Gemm
        )
    }
}

/// Whether two merge operands form a Gram product `X·Xᵀ` (or `Xᵀ·X`): the
/// same leaf on both sides with opposite transposition and neither side
/// inverse-marked (`L⁻¹·L⁻ᵀ` is an inverse Gram product, which the kernel
/// vocabulary cannot realise as a single SYRK).
#[must_use]
pub fn is_gram_pair(left: &MergeOperand, right: &MergeOperand) -> bool {
    if left.inv || right.inv || left.pinv || right.pinv {
        return false;
    }
    match (left.leaf, right.leaf) {
        (Some(l), Some(r)) => l == r && left.trans != right.trans,
        _ => false,
    }
}

/// At most four merge variants, held inline: the enumerator asks once per
/// edge of its search, without a heap allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Variants {
    kinds: [MergeKind; 4],
    len: usize,
}

impl Variants {
    fn of(kinds: &[MergeKind]) -> Self {
        let mut out = Variants {
            kinds: [MergeKind::Gemm; 4],
            len: kinds.len(),
        };
        out.kinds[..kinds.len()].copy_from_slice(kinds);
        out
    }

    /// The same list with `first` in front (the structured variant leads).
    fn led_by(self, first: MergeKind) -> Self {
        let mut out = Variants::of(&[first]);
        out.kinds[1..=self.len].copy_from_slice(&self);
        out.len = self.len + 1;
        out
    }
}

impl std::ops::Deref for Variants {
    type Target = [MergeKind];

    fn deref(&self) -> &[MergeKind] {
        &self.kinds[..self.len]
    }
}

/// The set of variants for the merge `left·right`, in the paper's
/// presentation order.
///
/// `is_final` marks the merge that produces the expression's result, which
/// must be stored in full (a SYRK-produced triangle is completed by a copy).
///
/// Inverse-marked sides realise from *either* side: `L⁻¹·B` lowers to a
/// left-side TRSM and `B·L⁻¹` to a right-side TRSM (likewise the Cholesky
/// and LU realisations mirror for `B·S⁻¹` and `B·A⁻¹`). The only remaining
/// dead end in the inverse family is the pseudo-inverse on the right
/// (`b·A⁺`): ORMQR applies `Q₁ᵀ` from the left only, so no kernel sequence
/// realises it and the enumerator abandons such merge orders.
pub(crate) fn variants(left: &MergeOperand, right: &MergeOperand, is_final: bool) -> Variants {
    // The sided kernels read their rectangular operand as stored: a
    // transposed or triangle-stored partner side rules the structured
    // lowering out.
    let right_plain = right.trans == Trans::No && right.storage != Storage::SymmetricTriangle;
    let left_plain = left.trans == Trans::No && left.storage != Storage::SymmetricTriangle;
    if right.pinv {
        // `b·A⁺` stays unrealisable: ORMQR only applies Q₁ᵀ from the left.
        return Variants::of(&[]);
    }
    if right.inv {
        // Right-side inverse realisations mirror the left-side family. Two
        // inverses in one merge (`L⁻¹·M⁻¹`) stay unrealisable: each solve
        // needs a plain rectangular partner.
        if !left_plain || left.inv || left.pinv {
            return Variants::of(&[]);
        }
        return if right.spd {
            // S⁻ᵀ = S⁻¹ for symmetric S, so transposition is immaterial.
            Variants::of(&[MergeKind::CholeskySolveRight])
        } else if right.tri.is_some() {
            // Right TRSM carries a transposition flag, so B·L⁻ᵀ realises.
            Variants::of(&[MergeKind::TrsmRight])
        } else if right.trans == Trans::No {
            // GETRF carries no transposition flag: only the untransposed
            // general inverse realises.
            Variants::of(&[MergeKind::LuSolveRight])
        } else {
            Variants::of(&[])
        };
    }
    if left.inv {
        // The structure of the inverted operand picks the factorisation:
        // triangular solves directly through TRSM, SPD goes through
        // Cholesky, and a general square operand through pivoted LU.
        if !right_plain {
            return Variants::of(&[]);
        }
        return if left.spd {
            // S⁻ᵀ = S⁻¹ for symmetric S, so transposition is immaterial.
            Variants::of(&[MergeKind::CholeskySolve])
        } else if left.tri.is_some() {
            // TRSM carries a transposition flag, so L⁻ᵀ·B also realises.
            Variants::of(&[MergeKind::Trsm])
        } else if left.trans == Trans::No {
            // GETRF carries no transposition flag: only the untransposed
            // general inverse realises.
            Variants::of(&[MergeKind::LuSolve])
        } else {
            Variants::of(&[])
        };
    }
    if left.pinv {
        // The pseudo-inverse has exactly one realisation: the QR-based
        // least-squares solve. QR carries no transposition flag, so only
        // the untransposed pseudo-inverse realises.
        return if right_plain && left.trans == Trans::No {
            Variants::of(&[MergeKind::QrSolve])
        } else {
            Variants::of(&[])
        };
    }
    if is_gram_pair(left, right) {
        // Cholesky-style Gram products of a triangular leaf (L·Lᵀ) stay on
        // the SYRK rewrite, exactly like their dense counterparts.
        return if is_final {
            Variants::of(&[MergeKind::SyrkThenCopy, MergeKind::Gemm])
        } else {
            Variants::of(&[MergeKind::SyrkTriangle, MergeKind::GemmSymmetric])
        };
    }
    use Storage::{General, SymmetricFull, SymmetricTriangle};
    // SYMM carries no transposition flags, so the rectangular (general) side
    // of a SYMM must be an untransposed operand; transposed leaves fall back
    // to the GEMM-based variants (GEMM does carry transposition flags).
    let left_symm_partner = left.trans == Trans::No;
    let right_symm_partner = right.trans == Trans::No;
    let variants = Variants::of(match (left.storage, right.storage) {
        (SymmetricTriangle, SymmetricTriangle) => &[
            MergeKind::CopyRightThenSymmLeft,
            MergeKind::CopyLeftThenSymmRight,
            MergeKind::CopyBothThenGemm,
        ],
        (SymmetricTriangle, SymmetricFull) => &[
            MergeKind::SymmLeft,
            MergeKind::CopyLeftThenSymmRight,
            MergeKind::CopyLeftThenGemm,
        ],
        (SymmetricTriangle, General) => {
            if right_symm_partner {
                &[MergeKind::SymmLeft, MergeKind::CopyLeftThenGemm]
            } else {
                &[MergeKind::CopyLeftThenGemm]
            }
        }
        (SymmetricFull, SymmetricTriangle) => &[
            MergeKind::SymmRight,
            MergeKind::CopyRightThenSymmLeft,
            MergeKind::CopyRightThenGemm,
        ],
        (SymmetricFull, SymmetricFull) => {
            &[MergeKind::SymmLeft, MergeKind::SymmRight, MergeKind::Gemm]
        }
        (SymmetricFull, General) => {
            if right_symm_partner {
                &[MergeKind::SymmLeft, MergeKind::Gemm]
            } else {
                &[MergeKind::Gemm]
            }
        }
        (General, SymmetricTriangle) => {
            if left_symm_partner {
                &[MergeKind::SymmRight, MergeKind::CopyRightThenGemm]
            } else {
                &[MergeKind::CopyRightThenGemm]
            }
        }
        (General, SymmetricFull) => {
            if left_symm_partner {
                &[MergeKind::SymmRight, MergeKind::Gemm]
            } else {
                &[MergeKind::Gemm]
            }
        }
        (General, General) => &[MergeKind::Gemm],
    });
    if left.tri.is_some() && right_plain {
        // A triangular left side multiplies through TRMM, reading only its
        // effective triangle — the structured variant leads, like SYRK/SYMM.
        variants.led_by(MergeKind::Trmm)
    } else if right.tri.is_some() && left_plain {
        // A triangular *right* side multiplies through a right-side TRMM —
        // realised directly as one sided kernel, never a transpose
        // round-trip. (When both sides are triangular the left-side TRMM
        // above already leads; one structured variant per merge suffices.)
        variants.led_by(MergeKind::TrmmRight)
    } else {
        variants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_pairs_require_same_leaf_and_opposite_transposition() {
        let a = MergeOperand::leaf(0, Trans::No);
        let at = MergeOperand::leaf(0, Trans::Yes);
        let b = MergeOperand::leaf(1, Trans::No);
        let m = MergeOperand::intermediate(Storage::SymmetricFull);
        assert!(is_gram_pair(&a, &at));
        assert!(is_gram_pair(&at, &a));
        assert!(!is_gram_pair(&a, &a), "A*A is not a Gram product");
        assert!(!is_gram_pair(&a, &b));
        assert!(!is_gram_pair(&m, &m), "intermediates are never Gram pairs");
    }

    #[test]
    fn gram_merges_offer_syrk_then_gemm_in_paper_order() {
        let a = MergeOperand::leaf(0, Trans::No);
        let at = MergeOperand::leaf(0, Trans::Yes);
        assert_eq!(
            *variants(&a, &at, false),
            [MergeKind::SyrkTriangle, MergeKind::GemmSymmetric]
        );
        // As the final result the triangle must be completed by a copy.
        assert_eq!(
            *variants(&a, &at, true),
            [MergeKind::SyrkThenCopy, MergeKind::Gemm]
        );
    }

    #[test]
    fn symmetric_left_operand_offers_symm_before_copy_gemm() {
        let tri = MergeOperand::intermediate(Storage::SymmetricTriangle);
        let full = MergeOperand::intermediate(Storage::SymmetricFull);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(
            *variants(&tri, &b, true),
            [MergeKind::SymmLeft, MergeKind::CopyLeftThenGemm]
        );
        assert_eq!(
            *variants(&full, &b, true),
            [MergeKind::SymmLeft, MergeKind::Gemm]
        );
    }

    #[test]
    fn symmetric_right_operand_mirrors_the_left_rules() {
        let tri = MergeOperand::intermediate(Storage::SymmetricTriangle);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(
            *variants(&b, &tri, true),
            [MergeKind::SymmRight, MergeKind::CopyRightThenGemm]
        );
    }

    #[test]
    fn transposed_rectangular_sides_exclude_symm() {
        // SYMM has no transposition flags: M_sym * B^T cannot be a SYMM.
        let tri = MergeOperand::intermediate(Storage::SymmetricTriangle);
        let full = MergeOperand::intermediate(Storage::SymmetricFull);
        let bt = MergeOperand::leaf(1, Trans::Yes);
        assert_eq!(*variants(&tri, &bt, true), [MergeKind::CopyLeftThenGemm]);
        assert_eq!(*variants(&full, &bt, true), [MergeKind::Gemm]);
        assert_eq!(*variants(&bt, &tri, true), [MergeKind::CopyRightThenGemm]);
        assert_eq!(*variants(&bt, &full, true), [MergeKind::Gemm]);
    }

    #[test]
    fn two_triangles_require_at_least_one_copy() {
        let tri = MergeOperand::intermediate(Storage::SymmetricTriangle);
        let kinds = variants(&tri, &tri, true);
        assert_eq!(kinds.len(), 3);
        assert!(!kinds.contains(&MergeKind::Gemm));
        assert!(!kinds.contains(&MergeKind::SymmLeft));
    }

    #[test]
    fn triangular_left_side_offers_trmm_before_gemm() {
        let l = MergeOperand::tri_leaf(0, Trans::No, Uplo::Lower, false);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(*variants(&l, &b, true), [MergeKind::Trmm, MergeKind::Gemm]);
        // A transposed triangular leaf still multiplies through TRMM (the
        // kernel carries the transposition flag)...
        let lt = MergeOperand::tri_leaf(0, Trans::Yes, Uplo::Upper, false);
        assert_eq!(
            *variants(&lt, &b, false),
            [MergeKind::Trmm, MergeKind::Gemm]
        );
        // ...but a transposed *right* side rules TRMM out (no transb flag),
        // while a triangular right side goes through the right-side TRMM.
        let bt = MergeOperand::leaf(1, Trans::Yes);
        assert_eq!(*variants(&l, &bt, true), [MergeKind::Gemm]);
        assert_eq!(
            *variants(&b, &l, true),
            [MergeKind::TrmmRight, MergeKind::Gemm]
        );
        // The triangular intermediate (a product of same-triangle factors)
        // behaves like the leaf.
        let tri_m = MergeOperand::tri_intermediate(Uplo::Lower);
        assert_eq!(
            *variants(&tri_m, &b, true),
            [MergeKind::Trmm, MergeKind::Gemm]
        );
    }

    #[test]
    fn triangular_gram_products_stay_on_syrk() {
        // L·Lᵀ is a Gram pair first: the Cholesky-style product keeps the
        // paper's SYRK/GEMM variant pair.
        let l = MergeOperand::tri_leaf(0, Trans::No, Uplo::Lower, false);
        let lt = MergeOperand::tri_leaf(0, Trans::Yes, Uplo::Upper, false);
        assert!(is_gram_pair(&l, &lt));
        assert_eq!(
            *variants(&l, &lt, false),
            [MergeKind::SyrkTriangle, MergeKind::GemmSymmetric]
        );
        assert_eq!(
            *variants(&l, &lt, true),
            [MergeKind::SyrkThenCopy, MergeKind::Gemm]
        );
    }

    #[test]
    fn inverse_left_side_lowers_to_trsm_only() {
        let linv = MergeOperand::tri_leaf(0, Trans::No, Uplo::Lower, true);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(*variants(&linv, &b, true), [MergeKind::Trsm]);
        // A transposed right side has no kernel.
        let bt = MergeOperand::leaf(1, Trans::Yes);
        assert!(variants(&linv, &bt, true).is_empty());
        // Inverses never form Gram pairs.
        let linv_t = MergeOperand::tri_leaf(0, Trans::Yes, Uplo::Upper, true);
        assert!(!is_gram_pair(&linv, &linv_t));
    }

    #[test]
    fn inverse_right_side_lowers_to_the_right_trsm_only() {
        let linv = MergeOperand::tri_leaf(0, Trans::No, Uplo::Lower, true);
        let b = MergeOperand::leaf(1, Trans::No);
        // B·L⁻¹ realises directly as one right-side TRSM — no transpose
        // round-trip.
        assert_eq!(*variants(&b, &linv, true), [MergeKind::TrsmRight]);
        // B·L⁻ᵀ realises too: the right TRSM carries the transposition flag.
        let linv_t = MergeOperand::tri_leaf(0, Trans::Yes, Uplo::Upper, true);
        assert_eq!(*variants(&b, &linv_t, true), [MergeKind::TrsmRight]);
        // A transposed or triangle-stored *left* partner has no kernel, and
        // two inverses in one merge stay unrealisable.
        let bt = MergeOperand::leaf(1, Trans::Yes);
        assert!(variants(&bt, &linv, true).is_empty());
        assert!(variants(&linv, &linv_t, true).is_empty());
    }

    #[test]
    fn inverse_right_spd_and_general_sides_mirror_the_left_realisations() {
        let b = MergeOperand::leaf(1, Trans::No);
        let sinv = MergeOperand::spd_leaf(0, Trans::No, true);
        assert_eq!(*variants(&b, &sinv, true), [MergeKind::CholeskySolveRight]);
        let ainv = MergeOperand::inv_leaf(0, Trans::No);
        assert_eq!(*variants(&b, &ainv, true), [MergeKind::LuSolveRight]);
        // GETRF carries no transposition flag: A⁻ᵀ on the right stays dead.
        let ainv_t = MergeOperand::inv_leaf(0, Trans::Yes);
        assert!(variants(&b, &ainv_t, true).is_empty());
        // The pseudo-inverse on the right stays unrealisable (ORMQR applies
        // Q₁ᵀ from the left only).
        let apinv = MergeOperand::pinv_leaf(0, Trans::No);
        assert!(variants(&b, &apinv, true).is_empty());
    }

    #[test]
    fn inverse_general_left_side_lowers_to_the_lu_realisation_only() {
        let ainv = MergeOperand::inv_leaf(0, Trans::No);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(*variants(&ainv, &b, true), [MergeKind::LuSolve]);
        // A transposed right-hand side has no kernel.
        let bt = MergeOperand::leaf(1, Trans::Yes);
        assert!(variants(&ainv, &bt, true).is_empty());
        // Inverses never form Gram pairs.
        let ainv_t = MergeOperand::inv_leaf(0, Trans::Yes);
        assert!(!is_gram_pair(&ainv, &ainv_t));
    }

    #[test]
    fn pseudo_inverse_left_side_lowers_to_the_qr_realisation_only() {
        let apinv = MergeOperand::pinv_leaf(0, Trans::No);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(*variants(&apinv, &b, true), [MergeKind::QrSolve]);
        // A transposed right-hand side has no kernel; a pseudo-inverse on
        // the right is a dead end; pseudo-inverses never form Gram pairs.
        let bt = MergeOperand::leaf(1, Trans::Yes);
        assert!(variants(&apinv, &bt, true).is_empty());
        assert!(variants(&b, &apinv, true).is_empty());
        let apinv_t = MergeOperand::pinv_leaf(0, Trans::Yes);
        assert!(!is_gram_pair(&apinv, &apinv_t));
    }

    #[test]
    fn inverse_spd_left_side_lowers_to_the_cholesky_realisation_only() {
        let sinv = MergeOperand::spd_leaf(0, Trans::No, true);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(*variants(&sinv, &b, true), [MergeKind::CholeskySolve]);
        // A transposed right-hand side has no kernel.
        let bt = MergeOperand::leaf(1, Trans::Yes);
        assert!(variants(&sinv, &bt, true).is_empty());
    }

    #[test]
    fn plain_spd_sides_pick_up_the_symm_variants() {
        // A non-inverted SPD operand is a full-stored symmetric matrix, so
        // the existing SYMM-versus-GEMM machinery applies unchanged.
        let s = MergeOperand::spd_leaf(0, Trans::No, false);
        let b = MergeOperand::leaf(1, Trans::No);
        assert_eq!(
            *variants(&s, &b, true),
            [MergeKind::SymmLeft, MergeKind::Gemm]
        );
        assert_eq!(
            *variants(&b, &s, true),
            [MergeKind::SymmRight, MergeKind::Gemm]
        );
    }

    #[test]
    fn triangle_preservation_covers_the_closed_variants() {
        assert!(MergeKind::Trmm.preserves_triangle());
        assert!(MergeKind::Trsm.preserves_triangle());
        assert!(MergeKind::Gemm.preserves_triangle());
        assert!(!MergeKind::SymmLeft.preserves_triangle());
        assert!(!MergeKind::SyrkTriangle.preserves_triangle());
    }

    #[test]
    fn result_storage_tracks_the_variant() {
        assert_eq!(
            MergeKind::SyrkTriangle.result_storage(),
            Storage::SymmetricTriangle
        );
        assert_eq!(
            MergeKind::GemmSymmetric.result_storage(),
            Storage::SymmetricFull
        );
        assert_eq!(MergeKind::SymmLeft.result_storage(), Storage::General);
        assert!(Storage::SymmetricTriangle.is_symmetric());
        assert!(!Storage::General.is_symmetric());
    }
}
