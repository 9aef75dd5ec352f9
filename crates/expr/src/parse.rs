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
//! # Cost
//!
//! The parser indexes names as spans of the input and looks them up in a
//! short list, keeps the tree as one list of nodes whose children are
//! indices, and renders the normalised text into one buffer: a parse
//! allocates a handful of buffers and one string per distinct operand name,
//! not a string per token. What a text's requests enumerate is derived once
//! per text, not per parse: [`Expression::algorithms_pruned`] instantiates
//! the text's memoised template (see the crate-private `template` module),
//! which a fresh `TreeExpression` of the same text finds without the caller
//! keeping anything.
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
use crate::enumerate::GenerateError;
use crate::expr::Expr;
use crate::expression::Expression;
use crate::template;
use lamb_matrix::{Structure, Uplo};
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

/// A node of the shape-less tree (shapes are bound later from a dims
/// tuple). Children are indices into the node list; every child precedes
/// its parent, so the root is the last node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    /// Operand `i` of [`TreeExpression::operand_dims`], with the annotation
    /// this occurrence carries.
    Var(usize, Option<Structure>),
    Transpose(usize),
    Inverse(usize),
    PseudoInverse(usize),
    Mul(usize, usize),
}

/// A parsed, dimension-parameterised expression: the tree of a text such as
/// `"A*A^T*B"` plus the mapping from operand shapes to the dimension tuple
/// `d0..d{n-1}`. Implements [`Expression`], so it plugs directly into the
/// `Planner` and the experiment drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeExpression {
    text: String,
    nodes: Vec<Node>,
    /// Per distinct operand name: `(name, row dim index, col dim index)` in
    /// stored (untransposed) orientation, in order of first appearance in
    /// the flattened factor list.
    var_dims: Vec<(String, usize, usize)>,
    /// The declared structure of each operand of `var_dims` (`General`
    /// where the text annotates none).
    structures: Vec<Structure>,
    num_dims: usize,
}

/// Union-find over dimension symbols.
fn find(parent: &mut [usize], x: usize) -> usize {
    if parent[x] != x {
        let root = find(parent, parent[x]);
        parent[x] = root;
    }
    parent[x]
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[rb] = ra;
    }
}

/// One leaf of the flattened product: its operand, whether its logical
/// shape is the stored one swapped, and whether it sits under an
/// uncancelled inverse.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    operand: usize,
    swapped: bool,
    inverted: bool,
}

/// Flatten the tree below `node` into `out`, pushing transposes, inverses
/// and pseudo-inverses to the leaves: `(A·B)ᵀ = Bᵀ·Aᵀ`, `(A·B)⁻¹ = B⁻¹·A⁻¹`
/// and `(A·B)⁺ = B⁺·A⁺` all reverse the factor order, so the order flips
/// exactly when an odd number of accumulated flags is outstanding
/// (mirroring [`Expr::factors`]). Inversion does not change a factor's
/// logical shape; transposition and pseudo-inversion each swap it, so
/// `swapped` is their XOR.
fn flatten(nodes: &[Node], node: usize, flags: (bool, bool, bool), out: &mut Vec<Leaf>) {
    let (trans, inv, pinv) = flags;
    match nodes[node] {
        Node::Var(operand, _) => out.push(Leaf {
            operand,
            swapped: trans != pinv,
            inverted: inv,
        }),
        Node::Transpose(inner) => flatten(nodes, inner, (!trans, inv, pinv), out),
        Node::Inverse(inner) => flatten(nodes, inner, (trans, !inv, pinv), out),
        Node::PseudoInverse(inner) => flatten(nodes, inner, (trans, inv, !pinv), out),
        Node::Mul(l, r) => {
            let (first, second) = if trans ^ inv ^ pinv { (r, l) } else { (l, r) };
            flatten(nodes, first, flags, out);
            flatten(nodes, second, flags, out);
        }
    }
}

/// Append the normalized text of the tree below `node` to `out`; `operands`
/// names the operands the `Var` nodes index.
fn write_text(nodes: &[Node], operands: &[(String, usize, usize)], node: usize, out: &mut String) {
    let postfix = |inner: usize, op: &str, out: &mut String| {
        if let Node::Mul(..) = nodes[inner] {
            out.push('(');
            write_text(nodes, operands, inner, out);
            out.push(')');
        } else {
            write_text(nodes, operands, inner, out);
        }
        out.push_str(op);
    };
    match nodes[node] {
        Node::Var(operand, structure) => {
            out.push_str(&operands[operand].0);
            out.push_str(match structure {
                Some(Structure::Triangular(Uplo::Lower)) => "[lower]",
                Some(Structure::Triangular(Uplo::Upper)) => "[upper]",
                Some(Structure::Spd) => "[spd]",
                Some(Structure::General) | None => "",
            });
        }
        Node::Transpose(inner) => postfix(inner, "^T", out),
        Node::Inverse(inner) => postfix(inner, "^-1", out),
        Node::PseudoInverse(inner) => postfix(inner, "^+", out),
        Node::Mul(l, r) => {
            write_text(nodes, operands, l, out);
            out.push('*');
            write_text(nodes, operands, r, out);
        }
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
        let Parsed {
            mut nodes,
            names,
            conflict,
        } = Parser::new(text).parse()?;
        if let Some(name) = conflict {
            return Err(ParseError::ConflictingStructure {
                name: text[names[name].span.0..names[name].span.1].to_string(),
            });
        }
        let mut leaves = Vec::with_capacity(nodes.len());
        flatten(&nodes, nodes.len() - 1, (false, false, false), &mut leaves);

        // Operands are numbered in order of first appearance in the
        // flattened list, two symbols each (stored rows, stored cols).
        let mut order = vec![usize::MAX; names.len()];
        let mut count = 0;
        for leaf in &mut leaves {
            if order[leaf.operand] == usize::MAX {
                order[leaf.operand] = count;
                count += 1;
            }
            leaf.operand = order[leaf.operand];
        }
        let mut structures = vec![Structure::General; names.len()];
        for (name, &at) in names.iter().zip(&order) {
            structures[at] = name.structure.unwrap_or(Structure::General);
        }
        let mut parent: Vec<usize> = (0..2 * names.len()).collect();
        // Structured (triangular or SPD) and inverted operands are square:
        // their row and column sizes unify.
        for (operand, structure) in structures.iter().enumerate() {
            if *structure != Structure::General {
                union(&mut parent, 2 * operand, 2 * operand + 1);
            }
        }
        for leaf in leaves.iter().filter(|leaf| leaf.inverted) {
            union(&mut parent, 2 * leaf.operand, 2 * leaf.operand + 1);
        }
        let logical = |leaf: &Leaf| {
            let (r, c) = (2 * leaf.operand, 2 * leaf.operand + 1);
            if leaf.swapped {
                (c, r)
            } else {
                (r, c)
            }
        };
        for pair in leaves.windows(2) {
            union(&mut parent, logical(&pair[0]).1, logical(&pair[1]).0);
        }

        // Assign dimension indices in boundary-walk order: rows of the first
        // factor, then the columns of each factor in turn.
        let mut index_of_root = vec![usize::MAX; parent.len()];
        let mut num_dims = 0;
        let boundaries =
            std::iter::once(logical(&leaves[0]).0).chain(leaves.iter().map(|leaf| logical(leaf).1));
        for sym in boundaries {
            let root = find(&mut parent, sym);
            if index_of_root[root] == usize::MAX {
                index_of_root[root] = num_dims;
                num_dims += 1;
            }
        }
        let mut var_dims = vec![(String::new(), 0, 0); names.len()];
        for (name, &at) in names.iter().zip(&order) {
            let rows = index_of_root[find(&mut parent, 2 * at)];
            let cols = index_of_root[find(&mut parent, 2 * at + 1)];
            var_dims[at] = (text[name.span.0..name.span.1].to_string(), rows, cols);
        }
        for node in &mut nodes {
            if let Node::Var(operand, _) = node {
                *operand = order[*operand];
            }
        }
        let mut rendered = String::with_capacity(text.len());
        write_text(&nodes, &var_dims, nodes.len() - 1, &mut rendered);
        Ok(TreeExpression {
            text: rendered,
            nodes,
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
        self.check_arity(dims);
        self.build(self.nodes.len() - 1, dims)
    }

    /// Panic unless `dims` has one size per dimension.
    pub(crate) fn check_arity(&self, dims: &[usize]) {
        assert_eq!(
            dims.len(),
            self.num_dims,
            "dimension tuple length mismatch for `{}`",
            self.text
        );
    }

    fn build(&self, node: usize, dims: &[usize]) -> Expr {
        match self.nodes[node] {
            Node::Var(operand, _) => {
                let (name, r, c) = &self.var_dims[operand];
                let (r, c) = (dims[*r], dims[*c]);
                // The annotation attaches to the name, so an unannotated
                // reuse still builds the structured operand.
                match self.structures[operand] {
                    Structure::Triangular(uplo) => Expr::tri_var(name, r, uplo),
                    Structure::Spd => Expr::spd_var(name, r),
                    Structure::General => Expr::var(name, r, c),
                }
            }
            Node::Transpose(inner) => self.build(inner, dims).t(),
            Node::Inverse(inner) => self.build(inner, dims).inv(),
            Node::PseudoInverse(inner) => self.build(inner, dims).pinv(),
            Node::Mul(l, r) => self.build(l, dims).mul(self.build(r, dims)),
        }
    }

    /// The tree's nodes: texts that normalise alike but group differently
    /// (`A*(B*C)` and `(A*B)*C`) differ here.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
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
        self.var_dims
            .iter()
            .position(|(n, _, _)| n == name)
            .map_or(Structure::General, |i| self.structures[i])
    }
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
        self.candidates(dims, top_k, false)
    }

    /// Instantiated from the text's memoised template, or searched per
    /// request past the memo's bounds.
    fn candidates(
        &self,
        dims: &[usize],
        top_k: Option<usize>,
        shared: bool,
    ) -> Result<Vec<Algorithm>, GenerateError> {
        template::algorithms(self, dims, top_k, shared)
    }
}

/// A distinct operand name as the parser meets it: its span in the input
/// and the first structure annotation it carries.
#[derive(Debug, Clone, Copy)]
struct Name {
    span: (usize, usize),
    structure: Option<Structure>,
}

/// What the recursive descent produces.
struct Parsed {
    nodes: Vec<Node>,
    /// Distinct names in order of first appearance in the text; `Var`
    /// nodes index this list.
    names: Vec<Name>,
    /// The first name annotated unlike its first annotation, in text order.
    conflict: Option<usize>,
}

/// Recursive-descent parser over the byte positions of the input.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    out: Parsed,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            out: Parsed {
                // A node takes at least one character of the text.
                nodes: Vec::with_capacity(text.len().min(64)),
                names: Vec::new(),
                conflict: None,
            },
        }
    }

    /// The next character that is not whitespace, and its byte offset.
    fn peek(&mut self) -> Option<(usize, char)> {
        loop {
            let c = self.text[self.pos..].chars().next()?;
            if !c.is_whitespace() {
                return Some((self.pos, c));
            }
            self.pos += c.len_utf8();
        }
    }

    fn push(&mut self, node: Node) -> usize {
        self.out.nodes.push(node);
        self.out.nodes.len() - 1
    }

    fn parse(mut self) -> Result<Parsed, ParseError> {
        if self.peek().is_none() {
            return Err(ParseError::Empty);
        }
        self.expr()?;
        match self.peek() {
            None => Ok(self.out),
            Some((position, found)) => Err(ParseError::UnexpectedChar { position, found }),
        }
    }

    fn expr(&mut self) -> Result<usize, ParseError> {
        let mut lhs = self.factor()?;
        while let Some((_, '*')) = self.peek() {
            self.pos += 1;
            let rhs = self.factor()?;
            lhs = self.push(Node::Mul(lhs, rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<usize, ParseError> {
        let mut node = self.primary()?;
        loop {
            let wrap: fn(usize) -> Node = match self.peek() {
                Some((_, '\'')) => {
                    self.pos += 1;
                    Node::Transpose
                }
                Some((position, '^')) => {
                    self.pos += 1;
                    match self.peek() {
                        Some((_, 'T' | 't')) => {
                            self.pos += 1;
                            Node::Transpose
                        }
                        Some((_, '-')) => {
                            self.pos += 1;
                            match self.peek() {
                                Some((_, '1')) => {
                                    self.pos += 1;
                                    Node::Inverse
                                }
                                _ => return Err(ParseError::BadTranspose { position }),
                            }
                        }
                        Some((_, '+')) => {
                            self.pos += 1;
                            Node::PseudoInverse
                        }
                        _ => return Err(ParseError::BadTranspose { position }),
                    }
                }
                _ => return Ok(node),
            };
            node = self.push(wrap(node));
        }
    }

    fn primary(&mut self) -> Result<usize, ParseError> {
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
                let bytes = self.text.as_bytes();
                let mut end = start + 1;
                while bytes
                    .get(end)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    end += 1;
                }
                self.pos = end;
                let structure = self.structure_annotation()?;
                let text = self.text;
                let name = &text[start..end];
                let names = &mut self.out.names;
                let operand = match names.iter().position(|n| &text[n.span.0..n.span.1] == name) {
                    Some(i) => i,
                    None => {
                        names.push(Name {
                            span: (start, end),
                            structure: None,
                        });
                        names.len() - 1
                    }
                };
                if let Some(structure) = structure {
                    match names[operand].structure {
                        None => names[operand].structure = Some(structure),
                        Some(first) if first != structure => {
                            self.out.conflict = self.out.conflict.or(Some(operand));
                        }
                        Some(_) => {}
                    }
                }
                Ok(self.push(Node::Var(operand, structure)))
            }
            Some((position, found)) => Err(ParseError::UnexpectedChar { position, found }),
        }
    }

    /// Parse an optional `[lower]` / `[upper]` / `[spd]` structure
    /// annotation (letters case-insensitive, whitespace ignored).
    fn structure_annotation(&mut self) -> Result<Option<Structure>, ParseError> {
        let Some((position, '[')) = self.peek() else {
            return Ok(None);
        };
        self.pos += 1;
        // The word, lowercased; only its first five letters are kept, and
        // `letters` counts them all.
        let mut word = [0u8; 5];
        let mut letters = 0;
        while let Some((_, c)) = self.peek() {
            if !c.is_ascii_alphabetic() {
                break;
            }
            if let Some(slot) = word.get_mut(letters) {
                *slot = c.to_ascii_lowercase() as u8;
            }
            letters += 1;
            self.pos += 1;
        }
        match self.peek() {
            Some((_, ']')) => self.pos += 1,
            _ => return Err(ParseError::BadStructure { position }),
        }
        match word.get(..letters) {
            Some(b"lower") => Ok(Some(Structure::Triangular(Uplo::Lower))),
            Some(b"upper") => Ok(Some(Structure::Triangular(Uplo::Upper))),
            Some(b"spd") => Ok(Some(Structure::Spd)),
            _ => Err(ParseError::BadStructure { position }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_expr_algorithms;

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
    fn flop_counts_saturate_at_dimensions_near_the_maximum() {
        // `2·m·n·k` of a GEMM with m = usize::MAX used to wrap (release) or
        // overflow (debug); every count now saturates, and ranking with it
        // stays the search's ranking.
        let big = usize::MAX;
        let ab = TreeExpression::parse("A*B").unwrap();
        let algs = ab.algorithms(&[big, 2, 3]).unwrap();
        assert_eq!(algs[0].flops(), u64::MAX);
        assert_eq!(algs[0].shared_flops(), u64::MAX);
        for (text, dims) in [
            ("A*B*C*D", vec![big, 2, big - 1, 3, big]),
            ("A*A^T*B", vec![big, big, 7]),
            ("A^-1*B*C", vec![big, 5, big]),
            ("S[spd]^-1*S^-1*B", vec![big, 3]),
            ("A^+*B*C", vec![big / 2, big, 4, big]),
            ("L[lower]*A*B", vec![1 << 40, 1 << 30, big]),
        ] {
            let expr = TreeExpression::parse(text).unwrap();
            for top_k in [None, Some(1), Some(3)] {
                let got = expr.algorithms_pruned(&dims, top_k).unwrap();
                let want = enumerate_expr_algorithms(&expr.bind(&dims), top_k).unwrap();
                assert_eq!(got, want, "{text} top_k {top_k:?}");
                assert!(got.iter().all(|alg| alg.shared_flops() <= alg.flops()));
            }
        }
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
