//! Expression texts drawn from the grammar `TreeExpression::parse` accepts,
//! shared by the property, parser-pin and template-parity tests. Every draw
//! comes from a fixed SplitMix64 sequence, so a corpus is the same on every
//! run and on every commit.
#![allow(dead_code)]

/// Factor spellings the random products are drawn from: repeated and
/// transposed leaves (so Gram products recur), a triangular leaf, an SPD
/// leaf, inverses of all three kinds and a pseudo-inverse.
pub const FACTORS: [&str; 12] = [
    "A", "A^T", "A", "A^T", "B", "L[lower]", "L^T", "L^-1", "S[spd]", "S^-1", "C^-1", "D^+",
];

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` positive).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// One of `items`.
    pub fn pick<'a, T: ?Sized>(&mut self, items: &[&'a T]) -> &'a T {
        items[self.below(items.len())]
    }
}

/// The product of the [`FACTORS`] at `picks`.
pub fn product_text(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| FACTORS[i])
        .collect::<Vec<_>>()
        .join("*")
}

/// A product of one to five [`FACTORS`].
pub fn factor_product(rng: &mut Rng) -> String {
    let len = 1 + rng.below(5);
    let picks: Vec<usize> = (0..len).map(|_| rng.below(FACTORS.len())).collect();
    product_text(&picks)
}

/// Whitespace the parser skips, Unicode spaces included.
const SPACES: [&str; 6] = ["", "", "", " ", "\t", "\u{a0}"];
const NAMES: [&str; 7] = ["A", "B", "C", "L", "S", "x1", "W_2"];
const ANNOTATIONS: [&str; 6] = [
    "[lower]", "[upper]", "[spd]", "[LOWER]", "[ Spd ]", "[up per]",
];
const POSTFIX: [&str; 6] = ["^T", "'", "^-1", "^+", "^t", " ^ T"];

/// A text from the whole grammar: names with digits and underscores,
/// annotations in any case and spacing, every postfix operator, nested
/// parentheses and whitespace anywhere a token may be separated.
pub fn grammar_text(rng: &mut Rng) -> String {
    let mut out = String::new();
    expr(rng, 2, &mut out);
    out
}

fn expr(rng: &mut Rng, depth: usize, out: &mut String) {
    let factors = 1 + rng.below(if depth == 0 { 2 } else { 3 });
    for i in 0..factors {
        if i > 0 {
            out.push_str(rng.pick(&SPACES));
            out.push('*');
            out.push_str(rng.pick(&SPACES));
        }
        if depth > 0 && rng.below(4) == 0 {
            out.push('(');
            expr(rng, depth - 1, out);
            out.push(')');
        } else {
            out.push_str(rng.pick(&NAMES));
            if rng.below(4) == 0 {
                out.push_str(rng.pick(&ANNOTATIONS));
            }
        }
        for _ in 0..rng.below(3) {
            out.push_str(rng.pick(&POSTFIX));
        }
    }
}

/// Characters a malformed text is made of: grammar tokens in the wrong
/// place, digits, non-ASCII letters and Unicode spaces.
const JUNK: [&str; 16] = [
    "(", ")", "*", "^", "[", "]", "-", "+", "'", "2", "é", "×", "\u{2003}", "#", "T", "_",
];

/// `text` with one character inserted, replaced or cut off, at a character
/// boundary.
pub fn mutated(rng: &mut Rng, text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let at = rng.below(chars.len() + 1);
    let (head, tail): (String, String) =
        (chars[..at].iter().collect(), chars[at..].iter().collect());
    match rng.below(3) {
        0 => format!("{head}{}{tail}", rng.pick(&JUNK)),
        1 => format!(
            "{head}{}{}",
            rng.pick(&JUNK),
            tail.chars().skip(1).collect::<String>()
        ),
        _ => head,
    }
}
