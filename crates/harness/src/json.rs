//! Minimal JSON support for the streaming result layer.
//!
//! The workspace is offline (no serde); the harness needs just enough JSON
//! to write and re-read its own JSONL records. Two properties matter more
//! than generality:
//!
//! * **lossless numbers** — [`JsonValue::Num`] keeps the raw token, so a
//!   `u64` seed or an `f64` metric round-trips bit-exactly (Rust's `{}`
//!   float formatting is shortest-round-trip); and
//! * **total functions on our own output** — the parser additionally
//!   accepts the bare tokens `NaN`, `Infinity` and `-Infinity`, which
//!   [`fmt_f64`] emits for non-finite values (standard JSON has no
//!   spelling for them).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token for lossless round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order (duplicate keys are kept).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts the non-finite tokens).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(raw) => match raw.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                t => t.parse().ok(),
            },
            _ => None,
        }
    }

    /// The value as a `u64` (exact; rejects floats out of range).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Self::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON document (adds no quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format an `f64` losslessly (shortest round-trip), with explicit tokens
/// for the non-finite values the metrics can produce.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "Infinity".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Infinity".to_string()
    } else {
        format!("{x}")
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a crafted line (a
/// `--resume` checkpoint, a `perf --check` baseline) overflow the stack;
/// every document this workspace writes nests at most a few levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in our own output.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or escape in
                    // one slice (linear in the string, not quadratic). Both
                    // delimiters are ASCII and the input is a &str, so the
                    // run always ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.bytes[self.pos..].starts_with(b"Infinity") {
            self.pos += "Infinity".len();
            return Ok(JsonValue::Num(
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii").to_string(),
            ));
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Validate by parsing; the raw token is what we keep.
        raw.parse::<f64>().map_err(|_| self.err("malformed number"))?;
        Ok(JsonValue::Num(raw.to_string()))
    }

    /// The array at `pos` (its nesting depth is accounted by the caller).
    fn array(&mut self) -> Result<JsonValue, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// The object at `pos` (its nesting depth is accounted by the caller).
    fn object(&mut self) -> Result<JsonValue, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", JsonValue::Null),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'N' => self.literal("NaN", JsonValue::Num("NaN".to_string())),
            b'I' => self.literal("Infinity", JsonValue::Num("Infinity".to_string())),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            _ => self.number(),
        }
    }
}

/// Parse one JSON document (a full line of a JSONL file).
///
/// # Errors
/// Returns a position-annotated message on malformed input, including
/// arrays and objects nested deeper than 128 levels.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e3}}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let arr = v.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(v.get("c").and_then(|c| c.get("d")).and_then(JsonValue::as_f64), Some(-2500.0));
    }

    #[test]
    fn numbers_round_trip_losslessly() {
        for x in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0, 12345.678901234567] {
            let v = parse(&fmt_f64(x)).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
        let v = parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn non_finite_tokens_round_trip() {
        assert!(parse("NaN").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(parse("Infinity").unwrap().as_f64(), Some(f64::INFINITY));
        assert_eq!(parse("-Infinity").unwrap().as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn escape_and_parse_are_inverse() {
        let ugly = "a\"b\\c\nd\te\u{1}π";
        let doc = format!("\"{}\"", escape(ugly));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(ugly));
    }

    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        // 1 MiB of mixed one- and two-byte scalars, then an escape: the
        // per-character re-validation this replaces took minutes here.
        let body = "ab\u{3c0}".repeat(1 << 18);
        assert_eq!(body.len(), 1 << 20);
        let doc = format!("{{\"k\":\"{body}\\n\"}}");
        let v = parse(&doc).unwrap();
        let s = v.get("k").and_then(JsonValue::as_str).unwrap();
        assert_eq!(s.len(), body.len() + 1);
        assert!(s.starts_with(&body) && s.ends_with('\n'));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for deep in [nest("[", "]", MAX_DEPTH + 1), nest("{\"a\":", "}", MAX_DEPTH + 1)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Adversarial input that overflowed the stack before the limit.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "12x", "{} junk", ""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
