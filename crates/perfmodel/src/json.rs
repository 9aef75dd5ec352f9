//! A minimal, dependency-free JSON reader/writer.
//!
//! The workspace is built offline against vendored stubs, so `serde` is not
//! available; the calibration store ([`crate::store`]) instead hand-rolls its
//! format on top of this module. The subset is deliberately small but
//! complete for the store's needs:
//!
//! * values: `null`, booleans, finite numbers, strings, arrays, objects;
//! * objects preserve insertion order, so serialisation is deterministic;
//! * numbers are written with Rust's shortest round-trip formatting
//!   (`f64` → text → `f64` is bit-identical for finite values), which is what
//!   lets a stored calibration table reproduce in-memory predictions exactly.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has one number type; integers survive the
    /// round-trip exactly up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when serialising.
    Obj(Vec<(String, Json)>),
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a JSON document (a single value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Serialise with two-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&format_number(*x)),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Field `key` of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Format a finite number; integers (up to 2⁵³) print without a decimal
/// point, everything else uses Rust's shortest round-trip representation.
fn format_number(x: f64) -> String {
    assert!(x.is_finite(), "JSON cannot represent NaN or infinity");
    if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting the parser follows. It recurses once per
/// level, so an unbounded document could overflow the stack — an abort no
/// caller can catch; the store nests four levels.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the store
                            // format; reject them rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run of plain characters up to the next
                    // quote or escape (both ASCII, so never inside a
                    // multi-byte character). Validating only the run keeps
                    // the parse linear: re-validating the rest of the
                    // document per character made it quadratic.
                    let rest = &self.bytes[start..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let text = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        let x: f64 = text
            .parse()
            .map_err(|_| self.error(&format!("invalid number `{text}`")))?;
        if !x.is_finite() {
            return Err(self.error("number overflows f64"));
        }
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("quoted \"name\"\n".into())),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "values".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(0.1), Json::Num(-2.5e-9)]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn finite_floats_round_trip_bit_identically() {
        for &x in &[
            0.0,
            1.0,
            -1.0,
            1.0 / 3.0,
            6.02e23,
            1.25e-13,
            f64::MAX,
            f64::MIN_POSITIVE,
            352.0e9,
            0.015625,
        ] {
            let text = Json::Num(x).pretty();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(1024.0).pretty().trim(), "1024");
        assert_eq!(Json::Num(-3.0).pretty().trim(), "-3");
        assert_eq!(Json::Num(352.0e9).pretty().trim(), "352000000000");
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2, 3]}, "s": "x", "n": 7}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        let inner = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(inner.as_array().unwrap().len(), 3);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn parse_errors_carry_positions() {
        for bad in ["{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "", "[1,]x"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad}: {err}");
            assert!(!err.message.is_empty());
        }
        // Nesting is bounded: a 100,000-deep document is an error at the
        // first level past the bound, not a stack overflow.
        let deep_array = "[".repeat(100_000) + &"]".repeat(100_000);
        let deep_object = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        for (bad, level_bytes) in [(deep_array, 1), (deep_object, 5)] {
            let err = Json::parse(&bad).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * level_bytes);
            assert!(err.message.contains("nesting"), "{err}");
        }
        let at_the_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_the_bound).is_ok());
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let original = Json::Str("tab\t newline\n quote\" back\\ é ∑ \u{1}".into());
        let text = original.pretty();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // Standard escape forms parse too.
        let parsed = Json::parse(r#""aA\/\b\f""#).unwrap();
        assert_eq!(parsed.as_str(), Some("aA/\u{8}\u{c}"));
    }

    #[test]
    fn strings_are_read_a_run_at_a_time() {
        // Runs of plain characters between quotes and escapes: empty runs,
        // back-to-back escapes, multi-byte characters up against a delimiter.
        for (text, expected) in [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""\n\n""#, "\n\n"),
            (r#""é\\∑""#, "é\\∑"),
            (r#""a\"∑""#, "a\"∑"),
            (r#""€""#, "€"),
        ] {
            assert_eq!(
                Json::parse(text).unwrap().as_str(),
                Some(expected),
                "{text}"
            );
        }
        // A run that reaches the end of the input is an unterminated string,
        // reported at the end.
        let err = Json::parse("\"open é").unwrap_err();
        assert_eq!(err.offset, "\"open é".len());
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    #[should_panic(expected = "NaN or infinity")]
    fn non_finite_numbers_are_rejected_at_write_time() {
        let _ = Json::Num(f64::NAN).pretty();
    }
}
