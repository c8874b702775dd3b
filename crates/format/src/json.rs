//! A minimal JSON layer for the serving protocol and the batch CLI.
//!
//! The workspace is std-only (no serde), but the serving front-end speaks
//! newline-delimited JSON. This module provides the small subset needed:
//! a strict parser into a [`Value`] tree, a renderer that round-trips
//! values (used to echo request ids verbatim), and the primitives the
//! hand-rolled JSON writers share ([`escape`], [`num`] and its appending
//! form [`push_num`], [`push_uint`]).
//!
//! The parser is strict about structure: no trailing garbage, no
//! NaN/Infinity, no comments, no duplicate object keys, and string escapes
//! must be valid. Numbers delegate to Rust's `f64` parsing, which is
//! slightly more lenient than RFC 8259 (it accepts e.g. leading zeros and
//! `1.`). Nesting depth is capped at [`MAX_DEPTH`] so hostile input cannot
//! overflow the stack.

use std::fmt;

use crate::quote;

/// Maximum nesting depth [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
///
/// Objects preserve insertion order (they are small in this protocol);
/// duplicate keys are rejected at parse time.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object; `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    /// Renders the value as compact JSON (no whitespace); parses back to
    /// an equal value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(v) => f.write_str(&num(*v)),
            Value::Str(s) => write!(f, "\"{}\"", escape(s)),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{value}", escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal (without the
/// surrounding quotes).
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON-compatible rendering of a finite number (Rust's `Display` for `f64`
/// never produces exponents, infinities or NaN for the finite attribute
/// values this workspace handles).
pub fn num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

/// Appends [`num`]'s rendering of `v` to `out`: the bytes of `f64`'s
/// `Display`. Integral values below 2^53 in magnitude, the common case
/// for costs and damages, skip the float formatter; their `Display` is
/// the sign (kept for `-0`) and the integer's digits.
pub fn push_num(out: &mut String, v: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.fract() == 0.0 && v.abs() < EXACT {
        if v.is_sign_negative() {
            out.push('-');
        }
        // Truncation is exact: `v` is integral and below 2^53.
        push_uint(out, v.abs() as u64);
    } else {
        use fmt::Write as _;
        let _ = write!(out, "{v}");
    }
}

/// Appends the decimal digits of `n` to `out`.
pub fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset for syntax errors,
/// non-finite numbers, duplicate object keys, bad escapes and inputs
/// nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected character {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {}", quote(&key)));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote or escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("input was a str"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!("invalid escape \\{:?}", other as char));
                        }
                    }
                }
                Some(_) => return Err(format!("raw control character at byte {}", self.pos)),
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `\u` is already consumed),
    /// combining UTF-16 surrogate pairs. Surrogate errors carry the byte
    /// offset of the offending `\uXXXX` escape (protocol requests are one
    /// line, so the byte offset is the line position).
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos.saturating_sub(2); // offset of the escape's `\`
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(format!(
                        "invalid low surrogate \\u{second:04x} after high surrogate at byte {at}"
                    ));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else {
                return Err(format!("unpaired high surrogate \\u{first:04x} at byte {at}"));
            }
        } else if (0xDC00..0xE000).contains(&first) {
            return Err(format!("unpaired low surrogate \\u{first:04x} at byte {at}"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| format!("invalid unicode escape at byte {at}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated \\u escape")?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| format!("bad \\u escape {digits:?}"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("input was a str");
        let v: f64 =
            text.parse().map_err(|_| format!("invalid number {} at byte {start}", quote(text)))?;
        if !v.is_finite() {
            return Err(format!("number {} overflows f64", quote(text)));
        }
        Ok(Value::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"id":7,"tree":"or a\n","args":[1,2,[]],"deep":{"x":null}}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("tree").and_then(Value::as_str), Some("or a\n"));
        assert_eq!(
            v.get("args"),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(2.0), Value::Arr(vec![])]))
        );
        assert!(v.get("deep").unwrap().get("x").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ newline\n tab\t unicode\u{1F600} control\u{1}";
        let rendered = format!("\"{}\"", escape(original));
        assert_eq!(parse(&rendered).unwrap(), Value::Str(original.into()));
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(parse(r#""A😀""#).unwrap(), Value::Str("A\u{1F600}".into()));
    }

    #[test]
    fn display_round_trips() {
        let text = r#"{"a":[1,2.5,"x\ny",null,true],"b":{"c":false}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "nul",
            "1e999",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "1 2",
            "{\"a\":1}x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn surrogate_error_paths_report_positions() {
        // Lone high surrogate at end of string.
        let err = parse(r#""ab\ud800""#).unwrap_err();
        assert!(err.contains("unpaired high surrogate"), "{err}");
        assert!(err.contains("at byte 3"), "{err}");
        // High surrogate followed by a non-\uXXXX token.
        for tail in ["x", r"\n", " \\u0041"] {
            let text = format!("\"\\ud83d{tail}\"");
            let err = parse(&text).unwrap_err();
            assert!(err.contains("unpaired high surrogate \\ud83d"), "{text:?}: {err}");
            assert!(err.contains("at byte 1"), "{text:?}: {err}");
        }
        // High surrogate followed by a \uXXXX that is not a low surrogate.
        let err = parse(r#""\ud800\u0041""#).unwrap_err();
        assert!(err.contains("invalid low surrogate \\u0041"), "{err}");
        assert!(err.contains("at byte 1"), "{err}");
        // Unpaired low surrogate.
        let err = parse(r#""x\udc00y""#).unwrap_err();
        assert!(err.contains("unpaired low surrogate \\udc00"), "{err}");
        assert!(err.contains("at byte 2"), "{err}");
        // Valid pairs still parse (the happy path is untouched).
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("\u{1F600}".into()));
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn num_renders_plain_decimal() {
        assert_eq!(num(10.0), "10");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(-3.25), "-3.25");
    }

    #[test]
    fn num_keeps_the_bytes_of_display() {
        let exact = 9_007_199_254_740_992.0; // 2^53, the integral fast path's bound
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            99.0,
            100.0,
            0.1 + 0.2,
            2.5,
            1e15,
            1e16,
            1e21,
            1e22,
            -1e21,
            exact - 1.0,
            exact,
            exact + 2.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            u64::MAX as f64,
        ] {
            assert_eq!(num(v), format!("{v}"), "{v:e}");
        }
        let mut out = String::from("x");
        push_uint(&mut out, 0);
        push_uint(&mut out, u64::MAX);
        assert_eq!(out, format!("x0{}", u64::MAX));
    }
}
