//! Golden parser fixture: what `TreeExpression::parse` returns, pinned line
//! by line.
//!
//! The corpus is the 33 standing scenario texts, texts drawn from the whole
//! grammar (whitespace, parentheses, every postfix operator, annotations in
//! any case) and an error corpus (hand-written malformed texts and one-char
//! mutations of grammar texts). Each line holds, for one text, either the
//! normalised `text()`, `num_dims()`, `operand_dims()` with `structure_of`
//! of every name and the first corpus text whose parse is `==` to it, or the
//! `Display` and `Debug` of the `ParseError`. The fixture was recorded
//! before the parser was rewritten to index names as spans of the input.

mod grammar;

use grammar::{grammar_text, mutated, Rng};
use lamb::experiments::all_scenarios;
use lamb::prelude::*;

const MALFORMED: [&str; 24] = [
    "",
    "   ",
    "A*",
    "A^",
    "(A*B",
    "A*B)",
    "2A",
    "A^-2",
    "A^*b",
    "L[diag]*B",
    "L[lower*B",
    "L[lower]*L[upper]",
    "S[spd]*S[lower]",
    "L[lower]*L[upper]*(",
    "é*B",
    "A*é",
    "A^é",
    "L[é]*B",
    "A**B",
    "A*(B*C))",
    "()",
    "A B",
    "L[]*B",
    "S[spd]*A*S[SPD]*S[lower]",
];

fn corpus() -> Vec<String> {
    let mut texts: Vec<String> = all_scenarios()
        .iter()
        .map(|s| s.expression.name())
        .collect();
    let mut rng = Rng::new(0x5EED_0027);
    let drawn: Vec<String> = (0..400).map(|_| grammar_text(&mut rng)).collect();
    texts.extend(drawn.iter().cloned());
    texts.extend(MALFORMED.iter().map(|s| (*s).to_string()));
    texts.extend((0..300).map(|i| mutated(&mut rng, &drawn[i % drawn.len()])));
    texts
}

fn render() -> String {
    let texts = corpus();
    let parsed: Vec<Result<TreeExpression, ParseError>> =
        texts.iter().map(|t| TreeExpression::parse(t)).collect();
    let mut out = String::new();
    for (i, (text, result)) in texts.iter().zip(&parsed).enumerate() {
        match result {
            Ok(expr) => {
                let structures: Vec<String> = expr
                    .operand_dims()
                    .iter()
                    .map(|(name, _, _)| format!("{:?}", expr.structure_of(name)))
                    .collect();
                let first_equal = parsed
                    .iter()
                    .position(|p| p.as_ref().ok() == Some(expr))
                    .expect("a parse equals itself");
                out.push_str(&format!(
                    "{i} {text:?} ok text={:?} dims={} operands={:?} structures={structures:?} \
                     absent={:?} eq={first_equal}\n",
                    expr.text(),
                    expr.num_dims(),
                    expr.operand_dims(),
                    expr.structure_of("Zz"),
                ));
            }
            Err(e) => out.push_str(&format!("{i} {text:?} err {e} | {e:?}\n")),
        }
    }
    out
}

#[test]
fn parses_match_the_recorded_fixture() {
    let expected = include_str!("fixtures/parser_pin.txt");
    let actual = render();
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
