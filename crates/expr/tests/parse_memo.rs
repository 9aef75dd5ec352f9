//! The parse memo of `TreeExpression::parse`, seen from outside: a repeat
//! of a text shares the earlier parse (the same text buffer), a text spelt
//! differently is parsed afresh, errors are never kept, and past
//! `PARSE_MEMO_TEXTS` texts nothing new is kept.
//!
//! One test, in a binary of its own: the memo is process-wide, so the test
//! knows exactly which texts it holds, and fills it to its bound last.

use lamb_expr::parse::PARSE_MEMO_TEXTS;
use lamb_expr::{Expression, TreeExpression};

fn parse(text: &str) -> TreeExpression {
    TreeExpression::parse(text).unwrap()
}

/// Whether two handles share one parse.
fn shared(a: &TreeExpression, b: &TreeExpression) -> bool {
    std::ptr::eq(a.shared_text().as_str(), b.shared_text().as_str())
}

#[test]
fn the_parse_memo_keeps_successes_per_raw_text_up_to_its_bound() {
    let mut kept = 0;

    // A repeat is answered from the memo; a whitespace variant is a text of
    // its own, parsed afresh, and equal to it.
    let first = parse("A*A^T*B");
    let repeat = parse("A*A^T*B");
    let spaced = parse("A * A^T * B");
    kept += 2;
    assert!(shared(&first, &repeat), "a repeat shares the parse");
    assert!(!shared(&first, &spaced), "a variant is parsed afresh");
    assert!(shared(&spaced, &parse("A * A^T * B")));
    assert_eq!(repeat, spaced, "a memo hit equals a fresh parse");
    let dims = [80, 514, 768];
    assert_eq!(repeat.algorithms(&dims), spaced.algorithms(&dims));
    assert_eq!(
        repeat.algorithms_pruned(&dims, Some(2)),
        spaced.algorithms_pruned(&dims, Some(2))
    );

    // Groupings that normalise alike stay distinct, and plan as they parse.
    let left = parse("(A*B)*C");
    let right = parse("A*(B*C)");
    kept += 2;
    assert_eq!(left.text(), right.text());
    assert_ne!(left, right);
    assert!(shared(&left, &parse("(A*B)*C")));
    assert!(shared(&right, &parse("A*(B*C)")));

    // Errors are not kept: each repeat reports the same error again, and
    // takes no place in the memo (checked by the bound below).
    for bad in ["A*(B", "L[lower]*L[upper]", "", "A^2"] {
        let error = TreeExpression::parse(bad).unwrap_err();
        assert_eq!(TreeExpression::parse(bad).unwrap_err(), error, "{bad:?}");
    }

    // Fill the memo: every text up to the bound is kept ...
    let texts: Vec<String> = (0..=PARSE_MEMO_TEXTS - kept)
        .map(|i| format!("X{i}*Y^T"))
        .collect();
    let (within, past) = texts.split_at(PARSE_MEMO_TEXTS - kept);
    for text in within {
        let once = parse(text);
        assert!(shared(&once, &parse(text)), "{text} is kept");
    }
    // ... and past it a text is parsed on every call, to the same tree.
    let late = &past[0];
    let (a, b) = (parse(late), parse(late));
    assert!(!shared(&a, &b), "{late} is past the bound");
    assert_eq!(a, b);
    assert!(shared(&first, &parse("A*A^T*B")), "kept texts stay kept");
}
