//! The benchmark's JSON: the library's value type and parser
//! (`lamb::perfmodel::json`) plus a one-line writer. The driver reads a run's
//! result from the last line of its output, and the library only writes
//! indented documents.

use std::fmt::Write as _;

pub use lamb::perfmodel::json::Json as Value;

/// Constructors and the one-line writer the benchmark adds to [`Value`].
pub trait ValueExt {
    /// An object from `(key, value)` pairs, in that order.
    fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The members, if this is an object.
    fn as_obj(&self) -> Option<&[(String, Value)]>;

    /// Serialise on one line. Numbers keep all their digits (Rust's shortest
    /// round-trip formatting); non-finite numbers become `null`.
    fn to_json(&self) -> String;
}

impl ValueExt for Value {
    fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        write(self, &mut out);
        out
    }
}

fn write(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_one_line_writer_round_trips_through_the_parser() {
        let doc = Value::obj([
            ("name", Value::str("solve-small \"quoted\"\n\ttab\\\u{1}")),
            ("value", Value::Num(1.0 / 3.0)),
            ("tiny", Value::Num(1.5e-9)),
            ("count", Value::Num(1800.0)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "list",
                Value::Arr(vec![
                    Value::Num(-3.0),
                    Value::Arr(vec![]),
                    Value::obj::<String>([]),
                ]),
            ),
        ]);
        let text = doc.to_json();
        assert!(!text.contains('\n'), "one line");
        assert_eq!(Value::parse(&text).unwrap(), doc);
        // Integers print without a fraction; all digits of a float survive.
        assert!(text.contains("\"count\": 1800,"));
        assert!(text.contains("0.3333333333333333"));
        assert_eq!(doc.as_obj().map(<[_]>::len), Some(7));
        assert!(Value::Null.as_obj().is_none());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }
}
