//! Small BLAS-style enumerations shared between the matrix and kernel crates.

/// Which triangle of a symmetric matrix is stored / referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Uplo {
    /// The lower triangle (including the diagonal).
    Lower,
    /// The upper triangle (including the diagonal).
    Upper,
}

impl Uplo {
    /// The opposite triangle.
    #[must_use]
    pub fn flip(self) -> Self {
        match self {
            Uplo::Lower => Uplo::Upper,
            Uplo::Upper => Uplo::Lower,
        }
    }

    /// Whether element `(i, j)` belongs to this triangle (diagonal included).
    #[must_use]
    pub fn contains(self, i: usize, j: usize) -> bool {
        match self {
            Uplo::Lower => i >= j,
            Uplo::Upper => i <= j,
        }
    }

    /// BLAS-style single character tag (`'L'` / `'U'`).
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            Uplo::Lower => 'L',
            Uplo::Upper => 'U',
        }
    }

    /// The triangle a [`Uplo::tag`] names, if it names one.
    #[must_use]
    pub fn from_tag(tag: char) -> Option<Self> {
        [Uplo::Lower, Uplo::Upper]
            .into_iter()
            .find(|u| u.tag() == tag)
    }

    /// The triangle this triangle becomes under a transposition: `op(L)` of
    /// a stored-lower `L` with `trans = T` effectively occupies the upper
    /// triangle. This is the single definition every kernel and the
    /// enumerator share for "which triangle does `op(L)` live in".
    #[must_use]
    pub fn under(self, trans: Trans) -> Uplo {
        match trans {
            Trans::No => self,
            Trans::Yes => self.flip(),
        }
    }
}

/// Known structure of a matrix operand, as declared at the expression level
/// and threaded through planning, execution and calibration.
///
/// Structure is what unlocks structured kernels: a [`Structure::Triangular`]
/// operand can multiply through TRMM and (inverse-marked) solve through TRSM,
/// while a [`Structure::Spd`] operand is symmetric (so it can multiply
/// through SYMM) and positive definite (so its inverse is realisable by a
/// Cholesky factorisation, POTRF, followed by two triangular solves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// A general dense matrix with no declared structure.
    General,
    /// A triangular matrix storing the given triangle; the opposite triangle
    /// is structurally zero. Necessarily square.
    Triangular(Uplo),
    /// A symmetric positive-definite matrix, stored in full (both triangles
    /// explicit, exactly symmetric). Necessarily square.
    Spd,
}

impl Structure {
    /// The stored triangle when the structure is triangular.
    #[must_use]
    pub fn triangle(self) -> Option<Uplo> {
        match self {
            Structure::Triangular(uplo) => Some(uplo),
            _ => None,
        }
    }

    /// Whether the structure is symmetric positive definite.
    #[must_use]
    pub fn is_spd(self) -> bool {
        matches!(self, Structure::Spd)
    }

    /// Whether the structure forces the operand to be square.
    #[must_use]
    pub fn is_square(self) -> bool {
        !matches!(self, Structure::General)
    }

    /// The structure of the transposed operand: transposition flips a
    /// triangle and preserves both generality and (by symmetry) SPD-ness.
    #[must_use]
    pub fn under(self, trans: Trans) -> Structure {
        match self {
            Structure::Triangular(uplo) => Structure::Triangular(uplo.under(trans)),
            other => other,
        }
    }
}

/// Whether an operand is used as-is or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    /// The opposite setting.
    #[must_use]
    pub fn flip(self) -> Self {
        match self {
            Trans::No => Trans::Yes,
            Trans::Yes => Trans::No,
        }
    }

    /// BLAS-style single character tag (`'N'` / `'T'`).
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            Trans::No => 'N',
            Trans::Yes => 'T',
        }
    }

    /// The setting a [`Trans::tag`] names, if it names one.
    #[must_use]
    pub fn from_tag(tag: char) -> Option<Self> {
        [Trans::No, Trans::Yes].into_iter().find(|t| t.tag() == tag)
    }

    /// Apply the transposition to a `(rows, cols)` shape.
    #[must_use]
    pub fn apply(self, shape: (usize, usize)) -> (usize, usize) {
        match self {
            Trans::No => shape,
            Trans::Yes => (shape.1, shape.0),
        }
    }
}

/// Which side a symmetric operand multiplies from in SYMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// `C := A * B` with `A` symmetric.
    Left,
    /// `C := B * A` with `A` symmetric.
    Right,
}

impl Side {
    /// BLAS-style single character tag (`'L'` / `'R'`).
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            Side::Left => 'L',
            Side::Right => 'R',
        }
    }

    /// The side a [`Side::tag`] names, if it names one.
    #[must_use]
    pub fn from_tag(tag: char) -> Option<Self> {
        [Side::Left, Side::Right]
            .into_iter()
            .find(|s| s.tag() == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplo_flip_is_involution() {
        assert_eq!(Uplo::Lower.flip(), Uplo::Upper);
        assert_eq!(Uplo::Upper.flip(), Uplo::Lower);
        assert_eq!(Uplo::Lower.flip().flip(), Uplo::Lower);
    }

    #[test]
    fn uplo_contains_diagonal() {
        for u in [Uplo::Lower, Uplo::Upper] {
            for d in 0..5 {
                assert!(u.contains(d, d));
            }
        }
    }

    #[test]
    fn uplo_contains_off_diagonal() {
        assert!(Uplo::Lower.contains(3, 1));
        assert!(!Uplo::Lower.contains(1, 3));
        assert!(Uplo::Upper.contains(1, 3));
        assert!(!Uplo::Upper.contains(3, 1));
    }

    #[test]
    fn uplo_partition_is_exact() {
        // Every off-diagonal element belongs to exactly one triangle.
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    assert_ne!(Uplo::Lower.contains(i, j), Uplo::Upper.contains(i, j));
                }
            }
        }
    }

    #[test]
    fn uplo_under_transposition() {
        assert_eq!(Uplo::Lower.under(Trans::No), Uplo::Lower);
        assert_eq!(Uplo::Lower.under(Trans::Yes), Uplo::Upper);
        assert_eq!(Uplo::Upper.under(Trans::Yes), Uplo::Lower);
    }

    #[test]
    fn trans_flip_and_apply() {
        assert_eq!(Trans::No.flip(), Trans::Yes);
        assert_eq!(Trans::Yes.apply((2, 7)), (7, 2));
        assert_eq!(Trans::No.apply((2, 7)), (2, 7));
        assert_eq!(Trans::Yes.flip().apply((2, 7)), (2, 7));
    }

    #[test]
    fn structure_helpers_cover_all_variants() {
        assert_eq!(Structure::General.triangle(), None);
        assert_eq!(
            Structure::Triangular(Uplo::Lower).triangle(),
            Some(Uplo::Lower)
        );
        assert_eq!(Structure::Spd.triangle(), None);
        assert!(Structure::Spd.is_spd());
        assert!(!Structure::General.is_spd());
        assert!(Structure::Spd.is_square());
        assert!(Structure::Triangular(Uplo::Upper).is_square());
        assert!(!Structure::General.is_square());
        // Transposition flips a triangle and fixes everything else.
        assert_eq!(
            Structure::Triangular(Uplo::Lower).under(Trans::Yes),
            Structure::Triangular(Uplo::Upper)
        );
        assert_eq!(Structure::Spd.under(Trans::Yes), Structure::Spd);
        assert_eq!(Structure::General.under(Trans::Yes), Structure::General);
    }

    #[test]
    fn tags_match_blas_convention() {
        assert_eq!(Uplo::Lower.tag(), 'L');
        assert_eq!(Uplo::Upper.tag(), 'U');
        assert_eq!(Trans::No.tag(), 'N');
        assert_eq!(Trans::Yes.tag(), 'T');
        assert_eq!(Side::Left.tag(), 'L');
        assert_eq!(Side::Right.tag(), 'R');
        // `from_tag` inverts `tag` and refuses everything else.
        assert_eq!(Uplo::from_tag('U'), Some(Uplo::Upper));
        assert_eq!(Trans::from_tag('N'), Some(Trans::No));
        assert_eq!(Side::from_tag('R'), Some(Side::Right));
        assert_eq!(Side::from_tag('U'), None);
        assert_eq!(Uplo::from_tag('R'), None);
        assert_eq!(Trans::from_tag('L'), None);
    }
}
