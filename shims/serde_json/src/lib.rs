//! Offline API-compatible shim of the `serde_json` crate covering the
//! value-model subset the workspace consumes: [`from_str`] → [`Value`]
//! with `get`/`as_*` accessors, plus [`to_string`] /
//! [`to_string_pretty`] re-serialization. No `Serialize`/`Deserialize`
//! derive support — callers work with dynamic [`Value`]s.
//!
//! The parser is a strict recursive-descent JSON reader (RFC 8259
//! grammar: objects, arrays, strings with `\uXXXX` escapes, numbers,
//! booleans, null) with a depth limit instead of unbounded recursion.
//! Numbers are held as `f64`, matching what the workspace's golden
//! tests compare against.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Object representation: insertion order is not preserved (the real
/// crate's default feature set also sorts); golden tests must not
/// depend on key order.
pub type Map = BTreeMap<String, Value>;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Object member by key, or array element by decimal-string
    /// index; `None` on type or key mismatch.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            Value::Array(items) => key.parse::<usize>().ok().and_then(|i| items.get(i)),
            _ => None,
        }
    }

    /// `true` when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Borrow as a `u64` (numbers with no fractional part only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Borrow as an `i64` (numbers with no fractional part only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n)
                if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// Borrow as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow as an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Largest integer magnitude an `f64` (and hence a shim
    /// [`Value::Number`]) represents exactly: 2⁵³.
    pub const EXACT_INT_MAX: u64 = 1 << 53;

    /// Encodes a `u64` without loss: a [`Value::Number`] when the
    /// value fits `f64` exactly, a decimal [`Value::String`]
    /// otherwise. Paired with [`Value::as_u64_exact`]; workspace
    /// extension (the real crate keeps integers arbitrary-precision).
    pub fn from_u64_exact(v: u64) -> Value {
        if v <= Self::EXACT_INT_MAX {
            Value::Number(v as f64)
        } else {
            Value::String(v.to_string())
        }
    }

    /// Encodes an `i64` without loss; see [`Value::from_u64_exact`].
    pub fn from_i64_exact(v: i64) -> Value {
        if v.unsigned_abs() <= Self::EXACT_INT_MAX {
            Value::Number(v as f64)
        } else {
            Value::String(v.to_string())
        }
    }

    /// Encodes an `i128` without loss; see [`Value::from_u64_exact`].
    pub fn from_i128_exact(v: i128) -> Value {
        if v.unsigned_abs() <= u128::from(Self::EXACT_INT_MAX) {
            Value::Number(v as f64)
        } else {
            Value::String(v.to_string())
        }
    }

    /// Decodes a `u64` written by [`Value::from_u64_exact`]: accepts
    /// an integral number or a decimal string.
    pub fn as_u64_exact(&self) -> Option<u64> {
        match self {
            Value::String(s) => s.parse().ok(),
            _ => self.as_u64(),
        }
    }

    /// Decodes an `i64` written by [`Value::from_i64_exact`].
    pub fn as_i64_exact(&self) -> Option<i64> {
        match self {
            Value::String(s) => s.parse().ok(),
            _ => self.as_i64(),
        }
    }

    /// Decodes an `i128` written by [`Value::from_i128_exact`].
    pub fn as_i128_exact(&self) -> Option<i128> {
        match self {
            Value::String(s) => s.parse().ok(),
            _ => self.as_i64().map(i128::from),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

/// Parse or serialization error, with the byte offset where parsing
/// failed.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for Error {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error {
            msg: msg.to_owned(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or '}'");
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or ']'");
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote, escape or control byte
            // is copied in one piece: those are ASCII and the input is
            // a &str, so a run never splits a UTF-8 sequence.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            match std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(&[])) {
                Ok(run) => out.push_str(run),
                Err(_) => return self.err("invalid utf-8"),
            }
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired surrogate");
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return self.err("invalid low surrogate");
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return self.err("invalid unicode escape"),
                        }
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(_) => return self.err("control character in string"),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return self.err("invalid \\u escape"),
            };
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let first_digit = self.peek();
        let digits_from = self.pos;
        let mut integer = 0u64;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            integer = integer.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        // A plain integer of at most 15 digits is exact in an `f64`, so
        // it needs no text round trip. Anything the general path might
        // treat differently — a leading zero, `-0`, a bare `-` — goes
        // there.
        let digits = self.pos - digits_from;
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        let zero_led = first_digit == Some(b'0') && (digits > 1 || negative);
        if plain && (1..=15).contains(&digits) && !zero_led {
            let n = integer as f64;
            return Ok(Value::Number(if negative { -n } else { n }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(&[])).map_err(|_| {
                Error {
                    msg: "invalid utf-8 in number".to_owned(),
                    offset: start,
                }
            })?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => self.err("invalid number"),
        }
    }
}

/// Parses a complete JSON document (trailing garbage is an error,
/// matching the real crate).
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing characters");
    }
    Ok(value)
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    if s.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    // Writing into a `String` cannot fail.
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Appends `v` in decimal, digits built in a stack buffer.
fn push_integer(v: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

fn write_value(value: &Value, out: &mut String, indent: Option<usize>) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                push_integer(*n as i64, out);
            } else {
                out.push_str(&n.to_string());
            }
        }
        Value::String(s) => escape(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent.map(|d| d + 1));
                write_value(item, out, indent.map(|d| d + 1));
            }
            if !items.is_empty() {
                newline(out, indent);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent.map(|d| d + 1));
                escape(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent.map(|d| d + 1));
            }
            if !map.is_empty() {
                newline(out, indent);
            }
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth * 2 {
            out.push(' ');
        }
    }
}

/// Serializes a [`Value`] compactly.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(value, &mut out, None);
    Ok(out)
}

/// Serializes a [`Value`] with two-space indentation.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(value, &mut out, Some(0));
    Ok(out)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out, None);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\"\né"} "#;
        let v = from_str(doc).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("0")).and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("a").and_then(|a| a.get("1")).and_then(Value::as_f64),
            Some(2.5)
        );
        assert_eq!(
            v.get("a").and_then(|a| a.get("2")).and_then(Value::as_f64),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_bool),
            Some(true)
        );
        assert!(v.get("b").and_then(|b| b.get("d")).unwrap().is_null());
        assert_eq!(v.get("e").and_then(Value::as_str), Some("x\"\né"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn surrogate_pairs_and_unicode() {
        let v = from_str(r#""😀 ok""#).unwrap();
        assert_eq!(v.as_str(), Some("😀 ok"));
        assert!(from_str(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\u{1}\"",
            "nan",
            "",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn round_trips() {
        let doc = r#"{"a":[1,2.5],"b":{"c":true},"d":"x"}"#;
        let v = from_str(doc).unwrap();
        let compact = to_string(&v).unwrap();
        assert_eq!(from_str(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"a\": ["));
    }

    #[test]
    fn integer_accessors() {
        let v = from_str("[9007199254740991, -5, 1.5]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(9007199254740991));
        assert_eq!(items[1].as_i64(), Some(-5));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[2].as_i64(), None);
    }

    #[test]
    fn exact_integers_survive_past_2_53() {
        for v in [0u64, 7, Value::EXACT_INT_MAX, u64::MAX] {
            assert_eq!(Value::from_u64_exact(v).as_u64_exact(), Some(v));
        }
        for v in [0i64, -7, i64::MIN, i64::MAX] {
            assert_eq!(Value::from_i64_exact(v).as_i64_exact(), Some(v));
        }
        for v in [0i128, -1_700_000_000_000_000_000i128, i128::MIN, i128::MAX] {
            assert_eq!(Value::from_i128_exact(v).as_i128_exact(), Some(v));
        }
        // Small values stay plain JSON numbers; huge ones go through
        // strings, and both forms survive a text round trip.
        assert!(matches!(Value::from_u64_exact(42), Value::Number(_)));
        assert!(matches!(Value::from_u64_exact(u64::MAX), Value::String(_)));
        let v = Value::Array(vec![
            Value::from_i128_exact(i128::MAX),
            Value::from_u64_exact(3),
        ]);
        let back = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back.get("0").unwrap().as_i128_exact(), Some(i128::MAX));
        assert_eq!(back.get("1").unwrap().as_u64_exact(), Some(3));
    }

    /// The reader's and writer's fast paths (plain integers of ≤ 15
    /// digits, escape-free string runs, stack-buffer integers) against
    /// values recorded from the general paths: same accepted set, same
    /// values bit for bit, same text.
    #[test]
    fn fast_paths_match_the_general_paths() {
        let numbers: [(&str, Option<f64>); 16] = [
            ("0", Some(0.0)),
            ("7", Some(7.0)),
            ("-7", Some(-7.0)),
            ("01", Some(1.0)),
            ("-0", Some(-0.0)),
            ("-01", Some(-1.0)),
            ("-", None),
            ("1e400", None),
            ("999999999999999", Some(999_999_999_999_999.0)),
            ("-999999999999999", Some(-999_999_999_999_999.0)),
            ("1234567890123456", Some(1_234_567_890_123_456.0)),
            ("-1234567890123456", Some(-1_234_567_890_123_456.0)),
            ("9007199254740993", Some(9_007_199_254_740_992.0)),
            ("12e2", Some(1200.0)),
            ("1.5", Some(1.5)),
            ("1.", Some(1.0)),
        ];
        for (text, expect) in numbers {
            let got = from_str(text).ok().and_then(|v| v.as_f64());
            assert_eq!(got.map(f64::to_bits), expect.map(f64::to_bits), "{text}");
        }

        let strings = [
            (r#""plain""#, Some("plain")),
            (r#""""#, Some("")),
            (r#""a\u0041b""#, Some("aAb")),
            (r#""\u00e9t\u00E9""#, Some("été")),
            (r#""\ud83d\ude00 ok""#, Some("😀 ok")),
            (r#""é\"x\\y\/z""#, Some("é\"x\\y/z")),
            (r#""tab\there""#, Some("tab\there")),
            ("\"ctl\u{1}\"", None),
            (r#""\ud83d""#, None),
            (r#""\u12g4""#, None),
            (r#""open"#, None),
        ];
        for (text, expect) in strings {
            let got = from_str(text).ok();
            assert_eq!(got.as_ref().and_then(Value::as_str), expect, "{text}");
        }

        let v = Value::Array(vec![
            Value::from("plain é"),
            Value::from("q\"b\\n\nt\tc\u{1}"),
            Value::Number(0.0),
            Value::Number(-0.0),
            Value::Number(-1.0),
            Value::Number(999_999_999_999_999.0),
            Value::Number(-999_999_999_999_999.0),
            Value::Number(1e15),
            Value::Number(2.5),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"["plain é","q\"b\\n\nt\tc\u0001",0,0,-1,999999999999999,-999999999999999,1000000000000000,2.5]"#
        );
    }
}
