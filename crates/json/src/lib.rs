//! A minimal hand-rolled JSON value type, writer and parser.
//!
//! The build environment is offline, so the workspace cannot depend on
//! `serde`; this crate implements exactly the JSON subset the workspace's
//! serialisation surfaces need — objects, arrays, strings, finite numbers,
//! booleans and `null` — in a few hundred lines. Objects preserve insertion
//! order so that emission is byte-deterministic, which both the batch
//! report's cross-thread-count byte comparisons and the HTTP server's
//! content-addressed result cache rely on.
//!
//! The crate started life as `qsdd-batch`'s private report serialiser and
//! was extracted once `qsdd-server` needed the same writer/parser for its
//! request and response bodies; `qsdd_batch::json` remains available as a
//! re-export.
//!
//! ```
//! use qsdd_json::{parse, Value};
//!
//! let value = Value::object(vec![
//!     ("name".to_string(), Value::String("ghz".to_string())),
//!     ("shots".to_string(), Value::from(1024u64)),
//! ]);
//! let text = value.to_string();
//! assert_eq!(text, r#"{"name":"ghz","shots":1024}"#);
//! let back = parse(&text).unwrap();
//! assert_eq!(back.get("shots").and_then(Value::as_u64), Some(1024));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact up to `u64::MAX` (measurement
    /// outcomes of 64-qubit circuits overflow an `f64`'s 53-bit mantissa).
    Uint(u64),
    /// Any other finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from ordered key/value pairs.
    pub fn object(pairs: Vec<(String, Value)>) -> Value {
        Value::Object(pairs)
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number (integers convert,
    /// possibly rounding above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Uint(n) => Some(*n as f64),
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer: exact for [`Value::Uint`], and for
    /// [`Value::Number`]s that are whole, non-negative and small enough to
    /// be exact in an `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Uint(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Uint(n as u64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl fmt::Display for Value {
    /// Writes compact JSON; use [`Value::write_pretty`] for indented output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Uint(n) => write!(f, "{n}"),
            Value::Number(n) => write_number(f, *n),
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Object(pairs) => {
                write!(f, "{{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl Value {
    /// Writes the value as indented, human-friendly JSON.
    pub fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&inner);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&inner);
                    out.push_str(&Value::String(key.clone()).to_string());
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }

    /// The value as an indented JSON document (with a trailing newline).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write!(f, "{}", n as i64)
    } else {
        // `{}` on f64 prints the shortest representation that round-trips.
        write!(f, "{n}")
    }
}

fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// A JSON parse error with a byte offset into the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting the parser accepts.
///
/// The parser is recursive-descent, so unbounded nesting would let a tiny
/// hostile document (`[[[[…`) overflow the thread stack — a fatal abort,
/// not a catchable panic. No legitimate workspace document nests deeper
/// than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`].
///
/// Accepts exactly the subset this module writes (no comments, no trailing
/// commas); numbers are parsed as `f64`. Containers may nest at most
/// [`MAX_DEPTH`] levels deep — beyond that the document is rejected with a
/// parse error instead of risking a stack overflow.
pub fn parse(source: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        source,
        bytes: source.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    source: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        // Plain non-negative integer tokens stay exact (outcome indices of
        // 64-qubit circuits exceed an f64's 53-bit mantissa).
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Uint(n));
            }
        }
        let n: f64 = text
            .parse()
            .map_err(|_| self.error(&format!("invalid number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.error("non-finite number"));
        }
        Ok(Value::Number(n))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not needed by our own writer.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run of plain characters up to the next quote or
                    // backslash, in one copy: both are ASCII, so the run
                    // ends on a character boundary of the source.
                    let rest = &self.bytes[self.pos..];
                    let run =
                        (rest.iter().position(|&b| b == b'"' || b == b'\\')).unwrap_or(rest.len());
                    out.push_str(&self.source[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let text = r#"{"a":[1,2.5,-3],"b":{"nested":true,"s":"he\"llo\n"},"c":null}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.to_string(), text);
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            value.get("b").unwrap().get("s").unwrap().as_str(),
            Some("he\"llo\n")
        );
        assert_eq!(value.get("c"), Some(&Value::Null));
    }

    #[test]
    fn pretty_output_parses_back() {
        let value = Value::object(vec![
            ("jobs".to_string(), Value::Array(vec![Value::from(1u64)])),
            ("empty".to_string(), Value::Array(Vec::new())),
        ]);
        let pretty = value.to_pretty_string();
        assert_eq!(parse(&pretty).unwrap(), value);
    }

    #[test]
    fn integers_are_written_without_fraction() {
        assert_eq!(Value::from(5u64).to_string(), "5");
        assert_eq!(Value::from(0.25f64).to_string(), "0.25");
        // Large magnitudes stay exact through a write/parse round trip.
        let big = Value::from(1e300);
        assert_eq!(parse(&big.to_string()).unwrap(), big);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"abc"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting_instead_of_overflowing_the_stack() {
        // A recursive-descent parser without a depth cap aborts the whole
        // process on `[[[[…` — fatal for a server parsing untrusted bodies.
        let deep = "[".repeat(4_000_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let mixed = format!("{}{}", "{\"k\":[".repeat(100), "]}".repeat(100));
        assert!(parse(&mixed).unwrap_err().message.contains("nesting"));
        // Reasonable nesting is untouched, and depth resets between
        // siblings (the counter decrements on container exit).
        let wide = format!("[{}]", vec!["[[[]]]"; 64].join(","));
        assert!(parse(&wide).is_ok());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn large_u64_integers_stay_exact_through_round_trips() {
        // A 64-qubit all-ones outcome exceeds the f64 mantissa; the Uint
        // variant must carry it bit-exactly through write + parse.
        for big in [u64::MAX, u64::MAX - 1, (1u64 << 60) - 1, 1u64 << 53] {
            let value = Value::from(big);
            assert_eq!(value.to_string(), big.to_string());
            let back = parse(&value.to_string()).unwrap();
            assert_eq!(back.as_u64(), Some(big));
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Number(3.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
        assert_eq!(Value::Bool(true).as_u64(), None);
    }
}
