//! Text front end: parse expressions such as `"A*B*C*D"`, `"A*A^T*B"` or
//! `"L[lower]*B"` into a dimension-parameterised [`Expression`] whose sizes
//! are bound later (at the CLI, from a `--dims` tuple).
//!
//! # Grammar
//!
//! ```text
//! expr    := factor ( "*" factor )*
//! factor  := primary ( "^T" | "'" | "^-1" | "^+" )*
//! primary := IDENT annot? | "(" expr ")"
//! annot   := "[" ("lower" | "upper" | "spd") "]"
//! IDENT   := [A-Za-z][A-Za-z0-9_]*
//! ```
//!
//! Whitespace is ignored. `^T` and the postfix apostrophe both denote
//! transposition; `(A*B)^T` is accepted and rewritten to `B^T*A^T` during
//! enumeration. Reusing a name (as in `A*A^T*B`) reuses the operand.
//!
//! A structure annotation declares the operand structured (and therefore
//! square): `[lower]`/`[upper]` for triangular operands, `[spd]` for
//! symmetric positive-definite ones. The annotation attaches to the *name*,
//! so a later unannotated reuse (`L[lower]*L^T`) still refers to the
//! structured operand, while conflicting annotations are rejected.
//! Triangular operands unlock the TRMM rewrite (`L[lower]*B`); SPD operands
//! unlock the SYMM variants for plain products (`S[spd]*B`). The postfix
//! `^-1` lowers to TRSM for triangular operands (`L[lower]^-1*B` solves
//! `L·X = B`), to the Cholesky realisation `POTRF + TRSM + TRSM` for SPD
//! operands (`S[spd]^-1*B` solves `S·X = B`), and to the pivoted LU
//! realisation `GETRF + LASWP + TRSM + TRSM` for general (unannotated,
//! square) operands (`A^-1*B` solves `A·X = B`). The postfix `^+` is the
//! Moore–Penrose pseudo-inverse: `A^+*b` is the least-squares solve
//! `argmin‖A·x − b‖₂`, lowered to the QR realisation
//! `QR + ORMQR + TRSM` for tall `A`. Pseudo-inverted operands are *not*
//! forced square (`^-1` operands are).
//!
//! # Dimension parameters
//!
//! The parser assigns dimension indices `d0, d1, ...` by walking the
//! flattened factor list and unifying sizes that products, operand reuse and
//! squareness (from structure annotations) force to be equal. For
//! `"A*B*C*D"` this yields the paper's 5-tuple (`A ∈ d0×d1`, ...,
//! `D ∈ d3×d4`); for `"A*A^T*B"` it yields the 3-tuple (`A ∈ d0×d1`,
//! `B ∈ d0×d2`); for `"L[lower]*B"` the square `L` leaves the 2-tuple
//! (`L ∈ d0×d0`, `B ∈ d0×d1`). [`TreeExpression::num_dims`] reports the
//! count; binding a tuple produces a concrete [`Expr`] for the enumerator.
//!
//! ```
//! use lamb_expr::parse::TreeExpression;
//! use lamb_expr::Expression;
//!
//! let aatb = TreeExpression::parse("A*A^T*B").unwrap();
//! assert_eq!(aatb.num_dims(), 3);
//! let algorithms = aatb.algorithms(&[80, 514, 768]).unwrap();
//! assert_eq!(algorithms.len(), 5);
//!
//! let tri = TreeExpression::parse("L[lower]*A*B").unwrap();
//! assert_eq!(tri.num_dims(), 3);
//! let algorithms = tri.algorithms(&[120, 80, 60]).unwrap();
//! assert!(algorithms.iter().any(|a| a.kernel_summary().contains("trmm")));
//! ```

use crate::algorithm::Algorithm;
use crate::enumerate::{enumerate_expr_algorithms, GenerateError};
use crate::expr::Expr;
use crate::expression::Expression;
use lamb_matrix::{Structure, Uplo};
use std::collections::HashMap;
use std::fmt;

/// Errors produced while parsing an expression text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input contained no expression.
    Empty,
    /// An unexpected character at `position`.
    UnexpectedChar {
        /// Byte offset into the input.
        position: usize,
        /// The offending character.
        found: char,
    },
    /// The input ended where a factor or `)` was expected.
    UnexpectedEnd,
    /// A `^` not followed by `T`/`t`/`-1`/`+` at `position`.
    BadTranspose {
        /// Byte offset into the input.
        position: usize,
    },
    /// A `[` not followed by `lower]`, `upper]` or `spd]` at `position`.
    BadStructure {
        /// Byte offset into the input.
        position: usize,
    },
    /// The same operand name carries two different structure annotations
    /// (e.g. `L[lower] * L[upper]`).
    ConflictingStructure {
        /// The offending operand name.
        name: String,
    },
    /// An operand name is reused in a way that forces contradictory shapes
    /// (cannot happen with products alone; reserved for future operators).
    InconsistentShapes {
        /// The offending operand name.
        name: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty expression"),
            ParseError::UnexpectedChar { position, found } => {
                write!(f, "unexpected character `{found}` at position {position}")
            }
            ParseError::UnexpectedEnd => write!(f, "unexpected end of expression"),
            ParseError::BadTranspose { position } => {
                write!(
                    f,
                    "`^` must be followed by `T`, `-1` or `+` (position {position})"
                )
            }
            ParseError::BadStructure { position } => {
                write!(
                    f,
                    "`[` must be followed by `lower]`, `upper]` or `spd]` (position {position})"
                )
            }
            ParseError::ConflictingStructure { name } => {
                write!(
                    f,
                    "operand `{name}` carries conflicting structure annotations"
                )
            }
            ParseError::InconsistentShapes { name } => {
                write!(f, "operand `{name}` is used with contradictory shapes")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A shape-less expression AST (shapes are bound later from a dims tuple).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ast {
    Var(String, Option<Structure>),
    Transpose(Box<Ast>),
    Inverse(Box<Ast>),
    PseudoInverse(Box<Ast>),
    Mul(Box<Ast>, Box<Ast>),
}

impl Ast {
    /// Flatten into `(name, swapped)` factors, pushing transposes, inverses
    /// and pseudo-inverses to the leaves: `(A·B)ᵀ = Bᵀ·Aᵀ`,
    /// `(A·B)⁻¹ = B⁻¹·A⁻¹` and `(A·B)⁺ = B⁺·A⁺` all reverse the factor
    /// order, so the order flips exactly when an odd number of accumulated
    /// flags is outstanding (mirroring [`Expr::factors`]). Inversion does
    /// not change a factor's logical shape; transposition and
    /// pseudo-inversion each swap it, so the `swapped` flag used for
    /// dimension walking is their XOR.
    fn factors(&self) -> Vec<(String, bool)> {
        fn go(ast: &Ast, trans: bool, inv: bool, pinv: bool, out: &mut Vec<(String, bool)>) {
            match ast {
                Ast::Var(name, _) => out.push((name.clone(), trans != pinv)),
                Ast::Transpose(inner) => go(inner, !trans, inv, pinv, out),
                Ast::Inverse(inner) => go(inner, trans, !inv, pinv, out),
                Ast::PseudoInverse(inner) => go(inner, trans, inv, !pinv, out),
                Ast::Mul(l, r) => {
                    if trans ^ inv ^ pinv {
                        go(r, trans, inv, pinv, out);
                        go(l, trans, inv, pinv, out);
                    } else {
                        go(l, trans, inv, pinv, out);
                        go(r, trans, inv, pinv, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, false, false, false, &mut out);
        out
    }

    fn display(&self) -> String {
        match self {
            Ast::Var(name, None) => name.clone(),
            Ast::Var(name, Some(Structure::Triangular(Uplo::Lower))) => format!("{name}[lower]"),
            Ast::Var(name, Some(Structure::Triangular(Uplo::Upper))) => format!("{name}[upper]"),
            Ast::Var(name, Some(Structure::Spd)) => format!("{name}[spd]"),
            Ast::Var(name, Some(Structure::General)) => name.clone(),
            Ast::Transpose(inner) => match inner.as_ref() {
                Ast::Mul(..) => format!("({})^T", inner.display()),
                _ => format!("{}^T", inner.display()),
            },
            Ast::Inverse(inner) => match inner.as_ref() {
                Ast::Mul(..) => format!("({})^-1", inner.display()),
                _ => format!("{}^-1", inner.display()),
            },
            Ast::PseudoInverse(inner) => match inner.as_ref() {
                Ast::Mul(..) => format!("({})^+", inner.display()),
                _ => format!("{}^+", inner.display()),
            },
            Ast::Mul(l, r) => format!("{}*{}", l.display(), r.display()),
        }
    }
}

/// A parsed, dimension-parameterised expression: the tree of a text such as
/// `"A*A^T*B"` plus the mapping from operand shapes to the dimension tuple
/// `d0..d{n-1}`. Implements [`Expression`], so it plugs directly into the
/// `Planner` and the experiment drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeExpression {
    text: String,
    ast: Ast,
    /// Per distinct operand name: `(name, row dim index, col dim index)` in
    /// stored (untransposed) orientation, in order of first appearance.
    var_dims: Vec<(String, usize, usize)>,
    /// Structure annotations per operand name (triangular or SPD operands).
    structures: HashMap<String, Structure>,
    num_dims: usize,
}

/// Union-find over dimension symbols.
fn find(parent: &mut Vec<usize>, x: usize) -> usize {
    if parent[x] != x {
        let root = find(parent, parent[x]);
        parent[x] = root;
    }
    parent[x]
}

fn union(parent: &mut Vec<usize>, a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[rb] = ra;
    }
}

impl TreeExpression {
    /// Parse `text` into a dimension-parameterised expression.
    ///
    /// The grammar (whitespace is ignored):
    ///
    /// ```text
    /// expr    := factor ( "*" factor )*
    /// factor  := primary ( "^T" | "'" )*
    /// primary := IDENT | "(" expr ")"
    /// IDENT   := [A-Za-z][A-Za-z0-9_]*
    /// ```
    ///
    /// Reusing a name (as in `A*A^T*B`) reuses the operand; dimension
    /// indices `d0, d1, ...` are inferred by unifying the sizes that
    /// products and operand reuse force to be equal.
    ///
    /// ```
    /// use lamb_expr::{Expression, TreeExpression};
    ///
    /// // The paper's matrix chain: 4 matrices, the 5-tuple (d0..d4), and
    /// // 3! = 6 multiplication orders.
    /// let chain = TreeExpression::parse("A*B*C*D").unwrap();
    /// assert_eq!(chain.num_dims(), 5);
    /// assert_eq!(chain.algorithms(&[100, 90, 80, 70, 60]).unwrap().len(), 6);
    ///
    /// // The paper's Gram product: reusing `A` ties the dimensions together,
    /// // leaving the 3-tuple (d0, d1, d2), and the SYRK/SYMM rewrites yield
    /// // the 5 algorithms of Section 3.2.2.
    /// let aatb = TreeExpression::parse("A*A^T*B").unwrap();
    /// assert_eq!(aatb.num_dims(), 3);
    /// assert_eq!(aatb.algorithms(&[80, 514, 768]).unwrap().len(), 5);
    ///
    /// // Parenthesised transposes distribute: (B^T * A)^T == A^T * B, and a
    /// // postfix apostrophe means the same as ^T.
    /// let t = TreeExpression::parse("(B^T * A)^T").unwrap();
    /// assert_eq!(t.num_dims(), TreeExpression::parse("A' * B").unwrap().num_dims());
    ///
    /// // Malformed input is rejected with a position.
    /// assert!(TreeExpression::parse("A*(B").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let ast = Parser::new(text).parse()?;
        let factors = ast.factors();
        let structures = collect_annotations(&ast)?;

        // Two symbols (stored rows, stored cols) per distinct name.
        let mut sym_of: HashMap<String, (usize, usize)> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut next = 0;
        for (name, _) in &factors {
            sym_of.entry(name.clone()).or_insert_with(|| {
                order.push(name.clone());
                let pair = (next, next + 1);
                next += 2;
                pair
            });
        }
        let mut parent: Vec<usize> = (0..next).collect();
        // Structured (triangular or SPD) and inverted operands are square:
        // their row and column sizes unify.
        for name in structures.keys().chain(collect_inverted_names(&ast).iter()) {
            let (r, c) = sym_of[name];
            union(&mut parent, r, c);
        }
        let logical = |sym_of: &HashMap<String, (usize, usize)>, name: &str, t: bool| {
            let (r, c) = sym_of[name];
            if t {
                (c, r)
            } else {
                (r, c)
            }
        };
        for pair in factors.windows(2) {
            let (_, lc) = logical(&sym_of, &pair[0].0, pair[0].1);
            let (rr, _) = logical(&sym_of, &pair[1].0, pair[1].1);
            union(&mut parent, lc, rr);
        }

        // Assign dimension indices in boundary-walk order: rows of the first
        // factor, then the columns of each factor in turn.
        let mut index_of_root: HashMap<usize, usize> = HashMap::new();
        let mut assign = |parent: &mut Vec<usize>, sym: usize| {
            let root = find(parent, sym);
            let n = index_of_root.len();
            *index_of_root.entry(root).or_insert(n)
        };
        let (first_row, _) = logical(&sym_of, &factors[0].0, factors[0].1);
        let _ = assign(&mut parent, first_row);
        for (name, t) in &factors {
            let (_, c) = logical(&sym_of, name, *t);
            let _ = assign(&mut parent, c);
        }
        let num_dims = index_of_root.len();
        let var_dims = order
            .iter()
            .map(|name| {
                let (r, c) = sym_of[name];
                (
                    name.clone(),
                    index_of_root[&find(&mut parent, r)],
                    index_of_root[&find(&mut parent, c)],
                )
            })
            .collect();
        Ok(TreeExpression {
            text: ast.display(),
            ast,
            var_dims,
            structures,
            num_dims,
        })
    }

    /// Bind the dimension tuple and build the concrete [`Expr`] tree.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from [`TreeExpression::num_dims`]
    /// (callers such as the `Planner` validate the tuple first).
    #[must_use]
    pub fn bind(&self, dims: &[usize]) -> Expr {
        assert_eq!(
            dims.len(),
            self.num_dims,
            "dimension tuple length mismatch for `{}`",
            self.text
        );
        let shapes: HashMap<&str, (usize, usize)> = self
            .var_dims
            .iter()
            .map(|(name, r, c)| (name.as_str(), (dims[*r], dims[*c])))
            .collect();
        fn build(
            ast: &Ast,
            shapes: &HashMap<&str, (usize, usize)>,
            structures: &HashMap<String, Structure>,
        ) -> Expr {
            match ast {
                Ast::Var(name, _) => {
                    let (r, c) = shapes[name.as_str()];
                    // The annotation attaches to the name, so an unannotated
                    // reuse still builds the structured operand.
                    match structures.get(name) {
                        Some(&Structure::Triangular(uplo)) => Expr::tri_var(name, r, uplo),
                        Some(&Structure::Spd) => Expr::spd_var(name, r),
                        _ => Expr::var(name, r, c),
                    }
                }
                Ast::Transpose(inner) => build(inner, shapes, structures).t(),
                Ast::Inverse(inner) => build(inner, shapes, structures).inv(),
                Ast::PseudoInverse(inner) => build(inner, shapes, structures).pinv(),
                Ast::Mul(l, r) => build(l, shapes, structures).mul(build(r, shapes, structures)),
            }
        }
        build(&self.ast, &shapes, &self.structures)
    }

    /// The normalized expression text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The `(name, row dim index, col dim index)` of every distinct operand,
    /// in order of first appearance.
    #[must_use]
    pub fn operand_dims(&self) -> &[(String, usize, usize)] {
        &self.var_dims
    }

    /// The declared triangle of `name`, if the expression annotates it as
    /// triangular.
    #[must_use]
    pub fn triangle_of(&self, name: &str) -> Option<Uplo> {
        self.structure_of(name).triangle()
    }

    /// The declared structure of `name` ([`Structure::General`] when the
    /// expression carries no annotation for it).
    #[must_use]
    pub fn structure_of(&self, name: &str) -> Structure {
        self.structures
            .get(name)
            .copied()
            .unwrap_or(Structure::General)
    }
}

/// Names of operands that appear under an (uncancelled) inverse; inversion
/// forces squareness during dimension unification.
fn collect_inverted_names(ast: &Ast) -> Vec<String> {
    fn go(ast: &Ast, inv: bool, out: &mut Vec<String>) {
        match ast {
            Ast::Var(name, _) => {
                if inv && !out.contains(name) {
                    out.push(name.clone());
                }
            }
            Ast::Transpose(inner) => go(inner, inv, out),
            Ast::Inverse(inner) => go(inner, !inv, out),
            // Pseudo-inversion does NOT force squareness: `A^+` of a tall
            // `A` is exactly the point of the least-squares form.
            Ast::PseudoInverse(inner) => go(inner, inv, out),
            Ast::Mul(l, r) => {
                go(l, inv, out);
                go(r, inv, out);
            }
        }
    }
    let mut out = Vec::new();
    go(ast, false, &mut out);
    out
}

/// Collect the structure annotations of every `Var` occurrence, rejecting
/// names annotated with two different structures.
fn collect_annotations(ast: &Ast) -> Result<HashMap<String, Structure>, ParseError> {
    fn go(ast: &Ast, out: &mut HashMap<String, Structure>) -> Result<(), ParseError> {
        match ast {
            Ast::Var(_, None) => Ok(()),
            Ast::Var(name, Some(structure)) => match out.insert(name.clone(), *structure) {
                Some(prev) if prev != *structure => {
                    Err(ParseError::ConflictingStructure { name: name.clone() })
                }
                _ => Ok(()),
            },
            Ast::Transpose(inner) | Ast::Inverse(inner) | Ast::PseudoInverse(inner) => {
                go(inner, out)
            }
            Ast::Mul(l, r) => {
                go(l, out)?;
                go(r, out)
            }
        }
    }
    let mut out = HashMap::new();
    go(ast, &mut out)?;
    Ok(out)
}

impl fmt::Display for TreeExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

impl Expression for TreeExpression {
    fn name(&self) -> String {
        self.text.clone()
    }

    fn num_dims(&self) -> usize {
        self.num_dims
    }

    fn algorithms_pruned(
        &self,
        dims: &[usize],
        top_k: Option<usize>,
    ) -> Result<Vec<Algorithm>, GenerateError> {
        enumerate_expr_algorithms(&self.bind(dims), top_k)
    }
}

/// Recursive-descent parser over the byte positions of the input.
struct Parser<'a> {
    text: &'a str,
    chars: Vec<(usize, char)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            chars: text.char_indices().collect(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.get(self.pos), Some((_, c)) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<(usize, char)> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn parse(mut self) -> Result<Ast, ParseError> {
        if self.peek().is_none() {
            return Err(ParseError::Empty);
        }
        let ast = self.expr()?;
        match self.peek() {
            None => Ok(ast),
            Some((position, found)) => Err(ParseError::UnexpectedChar { position, found }),
        }
    }

    fn expr(&mut self) -> Result<Ast, ParseError> {
        let mut lhs = self.factor()?;
        while let Some((_, '*')) = self.peek() {
            self.pos += 1;
            let rhs = self.factor()?;
            lhs = Ast::Mul(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Ast, ParseError> {
        let mut ast = self.primary()?;
        loop {
            match self.peek() {
                Some((_, '\'')) => {
                    self.pos += 1;
                    ast = Ast::Transpose(Box::new(ast));
                }
                Some((position, '^')) => {
                    self.pos += 1;
                    match self.peek() {
                        Some((_, 'T' | 't')) => {
                            self.pos += 1;
                            ast = Ast::Transpose(Box::new(ast));
                        }
                        Some((_, '-')) => {
                            self.pos += 1;
                            match self.peek() {
                                Some((_, '1')) => {
                                    self.pos += 1;
                                    ast = Ast::Inverse(Box::new(ast));
                                }
                                _ => return Err(ParseError::BadTranspose { position }),
                            }
                        }
                        Some((_, '+')) => {
                            self.pos += 1;
                            ast = Ast::PseudoInverse(Box::new(ast));
                        }
                        _ => return Err(ParseError::BadTranspose { position }),
                    }
                }
                _ => return Ok(ast),
            }
        }
    }

    fn primary(&mut self) -> Result<Ast, ParseError> {
        match self.peek() {
            None => Err(ParseError::UnexpectedEnd),
            Some((_, '(')) => {
                self.pos += 1;
                let inner = self.expr()?;
                match self.peek() {
                    Some((_, ')')) => {
                        self.pos += 1;
                        Ok(inner)
                    }
                    Some((position, found)) => Err(ParseError::UnexpectedChar { position, found }),
                    None => Err(ParseError::UnexpectedEnd),
                }
            }
            Some((start, c)) if c.is_ascii_alphabetic() => {
                let mut end = self.pos + 1;
                while matches!(self.chars.get(end), Some((_, c)) if c.is_ascii_alphanumeric() || *c == '_')
                {
                    end += 1;
                }
                let stop = self
                    .chars
                    .get(end)
                    .map_or(self.text.len(), |(offset, _)| *offset);
                self.pos = end;
                let name = self.text[start..stop].to_string();
                let uplo = self.structure_annotation()?;
                Ok(Ast::Var(name, uplo))
            }
            Some((position, found)) => Err(ParseError::UnexpectedChar { position, found }),
        }
    }

    /// Parse an optional `[lower]` / `[upper]` / `[spd]` structure
    /// annotation.
    fn structure_annotation(&mut self) -> Result<Option<Structure>, ParseError> {
        let Some((position, '[')) = self.peek() else {
            return Ok(None);
        };
        self.pos += 1;
        let mut word = String::new();
        while let Some((_, c)) = self.peek() {
            if c.is_ascii_alphabetic() {
                word.push(c.to_ascii_lowercase());
                self.pos += 1;
            } else {
                break;
            }
        }
        match self.peek() {
            Some((_, ']')) => self.pos += 1,
            _ => return Err(ParseError::BadStructure { position }),
        }
        match word.as_str() {
            "lower" => Ok(Some(Structure::Triangular(Uplo::Lower))),
            "upper" => Ok(Some(Structure::Triangular(Uplo::Upper))),
            "spd" => Ok(Some(Structure::Spd)),
            _ => Err(ParseError::BadStructure { position }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_chain_gets_the_paper_dimension_tuple() {
        let chain = TreeExpression::parse("A*B*C*D").unwrap();
        assert_eq!(chain.num_dims(), 5);
        assert_eq!(chain.name(), "A*B*C*D");
        assert_eq!(
            chain.operand_dims(),
            &[
                ("A".into(), 0, 1),
                ("B".into(), 1, 2),
                ("C".into(), 2, 3),
                ("D".into(), 3, 4)
            ]
        );
        let algs = chain.algorithms(&[10, 20, 30, 40, 50]).unwrap();
        assert_eq!(algs.len(), 6);
    }

    #[test]
    fn aatb_reuses_the_operand_and_has_three_dims() {
        let aatb = TreeExpression::parse("A*A^T*B").unwrap();
        assert_eq!(aatb.num_dims(), 3);
        assert_eq!(
            aatb.operand_dims(),
            &[("A".into(), 0, 1), ("B".into(), 0, 2)]
        );
        let algs = aatb.algorithms(&[80, 514, 768]).unwrap();
        assert_eq!(algs.len(), 5);
    }

    #[test]
    fn sandwich_expression_unifies_to_two_dims() {
        // A^T*B*A forces B to be square of A's row size: with the tuple
        // (d0, d1), A is d1 x d0 and B is d1 x d1.
        let e = TreeExpression::parse("A^T*B*A").unwrap();
        assert_eq!(e.num_dims(), 2);
        let expr = e.bind(&[10, 6]);
        assert_eq!(expr.shape().unwrap(), (10, 10));
    }

    #[test]
    fn transposed_products_and_apostrophes_parse() {
        let e = TreeExpression::parse("(A*B)'").unwrap();
        assert_eq!(e.name(), "(A*B)^T");
        assert_eq!(e.num_dims(), 3);
        // (A*B)^T = B^T*A^T: two factors, one algorithm. Dimension indices
        // follow the flattened order, so B^T is d0 x d1 and A^T is d1 x d2.
        let algs = e.algorithms(&[4, 5, 6]).unwrap();
        assert_eq!(algs.len(), 1);
        let out = algs[0].output().unwrap();
        assert_eq!((out.rows, out.cols), (4, 6));
    }

    #[test]
    fn double_transpose_cancels() {
        let e = TreeExpression::parse("A^T^T*B").unwrap();
        assert_eq!(e.num_dims(), 3);
        let algs = e.algorithms(&[3, 4, 5]).unwrap();
        assert_eq!(algs[0].output().unwrap().rows, 3);
    }

    #[test]
    fn whitespace_and_long_names_are_accepted() {
        let e = TreeExpression::parse("  Input1 * Weights_2^T ").unwrap();
        assert_eq!(e.num_dims(), 3);
        assert_eq!(e.operand_dims()[1].0, "Weights_2");
        // Whitespace is ignored everywhere, including between `^` and `T`.
        let spaced = TreeExpression::parse("A ^ T * B").unwrap();
        assert_eq!(spaced.name(), "A^T*B");
        assert_eq!(spaced.num_dims(), 3);
    }

    #[test]
    fn squares_unify_dimensions() {
        let e = TreeExpression::parse("A*A").unwrap();
        assert_eq!(e.num_dims(), 1, "A*A forces A to be square");
        let algs = e.algorithms(&[8]).unwrap();
        assert_eq!(algs[0].flops(), 2 * 8 * 8 * 8);
    }

    #[test]
    fn parse_errors_are_reported_with_positions() {
        assert_eq!(TreeExpression::parse(""), Err(ParseError::Empty));
        assert_eq!(TreeExpression::parse("   "), Err(ParseError::Empty));
        assert_eq!(TreeExpression::parse("A*"), Err(ParseError::UnexpectedEnd));
        assert_eq!(
            TreeExpression::parse("A^"),
            Err(ParseError::BadTranspose { position: 1 })
        );
        assert_eq!(
            TreeExpression::parse("(A*B"),
            Err(ParseError::UnexpectedEnd)
        );
        assert!(matches!(
            TreeExpression::parse("A*B)"),
            Err(ParseError::UnexpectedChar { found: ')', .. })
        ));
        assert!(matches!(
            TreeExpression::parse("2A"),
            Err(ParseError::UnexpectedChar { found: '2', .. })
        ));
        let err = ParseError::UnexpectedChar {
            position: 3,
            found: '?',
        };
        assert!(err.to_string().contains("position 3"));
    }

    #[test]
    fn structure_annotations_parse_and_square_the_operand() {
        let e = TreeExpression::parse("L[lower]*B").unwrap();
        assert_eq!(e.name(), "L[lower]*B");
        assert_eq!(e.num_dims(), 2, "L is square, so only (d0, d1) remain");
        assert_eq!(e.triangle_of("L"), Some(lamb_matrix::Uplo::Lower));
        assert_eq!(e.triangle_of("B"), None);
        let algs = e.algorithms(&[50, 20]).unwrap();
        assert_eq!(algs.len(), 2);
        assert!(algs.iter().any(|a| a.kernel_summary() == "trmm"));
        // Upper annotation and case-insensitivity.
        let u = TreeExpression::parse("U[UPPER]*B").unwrap();
        assert_eq!(u.triangle_of("U"), Some(lamb_matrix::Uplo::Upper));
        assert_eq!(u.name(), "U[upper]*B");
    }

    #[test]
    fn annotations_attach_to_the_name_across_reuses() {
        // The unannotated second occurrence still refers to the triangular
        // operand; L*L^T is the Cholesky-style Gram product.
        let e = TreeExpression::parse("L[lower]*L^T").unwrap();
        assert_eq!(e.num_dims(), 1);
        let algs = e.algorithms(&[30]).unwrap();
        assert_eq!(algs[0].kernel_summary(), "syrk,copy");
    }

    #[test]
    fn inverse_parses_and_lowers_to_trsm() {
        let e = TreeExpression::parse("L[lower]^-1 * B").unwrap();
        assert_eq!(e.name(), "L[lower]^-1*B");
        assert_eq!(e.num_dims(), 2);
        let algs = e.algorithms(&[40, 10]).unwrap();
        assert_eq!(algs.len(), 1);
        assert_eq!(algs[0].kernel_summary(), "trsm");
        // A transposed solve: (L^T)^-1.
        let t = TreeExpression::parse("L[lower]^T^-1*B").unwrap();
        let algs_t = t.algorithms(&[40, 10]).unwrap();
        assert_eq!(algs_t[0].kernel_summary(), "trsm");
    }

    #[test]
    fn spd_annotations_parse_square_the_operand_and_reach_the_cholesky_rewrite() {
        let e = TreeExpression::parse("S[spd]^-1 * B").unwrap();
        assert_eq!(e.name(), "S[spd]^-1*B");
        assert_eq!(e.num_dims(), 2, "S is square, so only (d0, d1) remain");
        assert_eq!(e.structure_of("S"), Structure::Spd);
        assert_eq!(e.structure_of("B"), Structure::General);
        assert_eq!(e.triangle_of("S"), None);
        let algs = e.algorithms(&[40, 10]).unwrap();
        assert_eq!(algs.len(), 1, "an SPD solve has exactly one realisation");
        assert_eq!(algs[0].kernel_summary(), "potrf,trsm,trsm");
        // A plain SPD product gets the SYMM-versus-GEMM pair, and the
        // annotation is case-insensitive.
        let p = TreeExpression::parse("S[SPD]*B").unwrap();
        assert_eq!(p.name(), "S[spd]*B");
        let algs_p = p.algorithms(&[30, 12]).unwrap();
        let summaries: Vec<String> = algs_p.iter().map(|a| a.kernel_summary()).collect();
        assert!(summaries.contains(&"symm".to_string()), "{summaries:?}");
        assert!(summaries.contains(&"gemm".to_string()), "{summaries:?}");
        // Conflicting structure annotations are rejected across kinds too.
        assert!(matches!(
            TreeExpression::parse("S[spd]*S[lower]"),
            Err(ParseError::ConflictingStructure { .. })
        ));
    }

    #[test]
    fn triangular_parse_errors_are_informative() {
        assert!(matches!(
            TreeExpression::parse("L[diag]*B"),
            Err(ParseError::BadStructure { .. })
        ));
        assert!(matches!(
            TreeExpression::parse("L[lower*B"),
            Err(ParseError::BadStructure { .. })
        ));
        assert!(matches!(
            TreeExpression::parse("L[lower]*L[upper]"),
            Err(ParseError::ConflictingStructure { .. })
        ));
        assert!(matches!(
            TreeExpression::parse("A^-2"),
            Err(ParseError::BadTranspose { .. })
        ));
        let err = ParseError::ConflictingStructure { name: "L".into() };
        assert!(err.to_string().contains("conflicting"));
        // An inverse of an unannotated operand now enumerates through the
        // pivoted LU realisation.
        let e = TreeExpression::parse("A^-1*B").unwrap();
        let algs = e.algorithms(&[5, 3]).unwrap();
        assert_eq!(algs.len(), 1);
        assert!(algs[0].kernel_summary().starts_with("getrf"));
    }

    #[test]
    fn general_inverse_parses_squares_the_operand_and_reaches_the_lu_rewrite() {
        let e = TreeExpression::parse("A^-1 * B").unwrap();
        assert_eq!(e.name(), "A^-1*B");
        assert_eq!(e.num_dims(), 2, "A is square, so only (d0, d1) remain");
        let algs = e.algorithms(&[24, 7]).unwrap();
        assert_eq!(algs.len(), 1, "a general solve has exactly one realisation");
        assert_eq!(
            algs[0].kernel_summary(),
            "getrf,factortri,factortri,laswp,trsm,trsm"
        );
    }

    #[test]
    fn pseudo_inverse_parses_without_squaring_and_reaches_the_qr_rewrite() {
        let e = TreeExpression::parse("A^+ * b").unwrap();
        assert_eq!(e.name(), "A^+*b");
        // A stays rectangular. Dimension indices follow the flattened
        // logical order (A^+ first), so A is d1 x d0 and b is d1 x d2.
        assert_eq!(e.num_dims(), 3);
        let algs = e.algorithms(&[12, 40, 1]).unwrap();
        assert_eq!(
            algs.len(),
            1,
            "a least-squares solve has exactly one realisation"
        );
        assert_eq!(algs[0].kernel_summary(), "qr,factortri,ormqr,trsm");
        let out = algs[0].output().unwrap();
        assert_eq!((out.rows, out.cols), (12, 1));
        // A wide binding is diagnosed at enumeration time, not parse time.
        assert!(e.algorithms(&[40, 12, 1]).is_err());
        // `^` followed by junk is still rejected.
        assert!(matches!(
            TreeExpression::parse("A^*b"),
            Err(ParseError::BadTranspose { .. })
        ));
    }

    #[test]
    fn planner_accepts_a_parsed_expression() {
        use lamb_matrix::Trans;
        let e = TreeExpression::parse("A^T*B*C").unwrap();
        assert_eq!(e.num_dims(), 4);
        let algs = e.algorithms(&[7, 9, 11, 13]).unwrap();
        assert_eq!(algs.len(), 2);
        for alg in &algs {
            assert!(alg.is_well_formed());
        }
        // The A^T leaf keeps its transposition in the GEMM flags.
        let first = &algs[0].calls[0];
        match first.op {
            crate::kernel_call::KernelOp::Gemm { transa, .. } => {
                assert_eq!(transa, Trans::Yes);
            }
            _ => panic!("expected GEMM"),
        }
    }
}
