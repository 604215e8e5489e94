//! Offline API-compatible shim of the `serde_json` crate covering the
//! value-model subset the workspace consumes: [`from_str`] → [`Value`]
//! with `get`/`as_*` accessors, plus [`to_string`] /
//! [`to_string_pretty`] re-serialization. No `Serialize`/`Deserialize`
//! derive support — callers work with dynamic [`Value`]s, or walk a
//! document's tokens with a [`Reader`] and write one with [`escape`],
//! [`push_integer`], [`push_u64_exact`] and [`push_value`].
//!
//! The grammar lives once, in [`Reader`]: a strict pull reader (RFC
//! 8259: objects, arrays, strings with `\uXXXX` escapes, numbers,
//! booleans, null) with a depth limit instead of unbounded recursion,
//! which rejects repeated keys. [`from_str`] is a [`Reader`] building
//! a tree. Numbers are held as `f64`, matching what the workspace's
//! golden tests compare against.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
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
            Value::Number(n) => f64_as_u64(*n),
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

/// A number's `u64` value when it is integral and in range.
fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
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

/// Nesting cap: a value enclosed by more containers than this is an
/// error, so neither reader recurses without bound.
const MAX_DEPTH: usize = 128;

/// The first token of a JSON value, as [`Reader::token`] reads it.
/// Scalars arrive whole; a container is entered, and its members are
/// read with [`Reader::next_key`] or [`Reader::next_element`].
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, read exactly as [`from_str`] reads it.
    Number(f64),
    /// A string, borrowed from the input when it holds no escape.
    String(Cow<'a, str>),
    /// `{`: an object was entered.
    Object,
    /// `[`: an array was entered.
    Array,
}

impl Token<'_> {
    /// A `u64` by [`Value::as_u64_exact`]'s rules: an integral number
    /// or a decimal string.
    pub fn as_u64_exact(&self) -> Option<u64> {
        match self {
            Token::Number(n) => f64_as_u64(*n),
            Token::String(s) => s.parse().ok(),
            _ => None,
        }
    }
}

/// One open container: an array, or an object with the keys read so
/// far (a repeated key is an error).
struct Open<'a> {
    first: bool,
    keys: Option<BTreeSet<Cow<'a, str>>>,
}

/// Where a [`Reader`] stood; see [`Reader::mark`].
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pos: usize,
    depth: usize,
}

/// A pull reader over one JSON document: the shim's one grammar.
/// [`from_str`] builds [`Value`]s with it; a typed decoder walks the
/// same tokens without building a tree. Strict RFC 8259: objects,
/// arrays, strings with `\uXXXX` escapes and surrogate pairs, numbers,
/// `true`/`false`/`null`; control characters in strings, repeated
/// keys in one object, nesting past 128 containers and trailing
/// characters are errors, each with its byte offset.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    open: Vec<Open<'a>>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            open: Vec::new(),
        }
    }

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

    /// Reads the first token of the next value.
    pub fn token(&mut self) -> Result<Token<'a>, Error> {
        if self.open.len() > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.open.push(Open {
                    first: true,
                    keys: Some(BTreeSet::new()),
                });
                Ok(Token::Object)
            }
            Some(b'[') => {
                self.pos += 1;
                self.open.push(Open {
                    first: true,
                    keys: None,
                });
                Ok(Token::Array)
            }
            Some(b'"') => Ok(Token::String(self.string()?)),
            Some(b't') => self.keyword("true", Token::Bool(true)),
            Some(b'f') => self.keyword("false", Token::Bool(false)),
            Some(b'n') => self.keyword("null", Token::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Number(self.number()?)),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    /// Inside an object: reads the next member's key and its `:`, or
    /// the closing `}` (then `None`). The member's value is read next.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.separator(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let at = self.pos;
        let key = self.string()?;
        let fresh = match self.open.last_mut().and_then(|o| o.keys.as_mut()) {
            Some(keys) => keys.insert(key.clone()),
            None => return self.err("not in an object"),
        };
        if !fresh {
            return Err(Error {
                msg: format!("duplicate key {key:?}"),
                offset: at,
            });
        }
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Inside an array: `true` when another element follows (read it
    /// next), `false` at the closing `]`.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.separator(b']', "expected ',' or ']'")
    }

    /// Steps past the `,` before a member, or the container's closing
    /// bracket (then `false`, and the container is closed).
    fn separator(&mut self, close: u8, msg: &str) -> Result<bool, Error> {
        let first = match self.open.last_mut() {
            Some(open) => std::mem::replace(&mut open.first, false),
            None => return self.err("not in a container"),
        };
        self.skip_ws();
        let more = if first {
            if self.peek() == Some(close) {
                self.pos += 1;
                false
            } else {
                true
            }
        } else {
            match self.bump() {
                Some(b',') => true,
                Some(b) if b == close => false,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err(msg);
                }
            }
        };
        if !more {
            self.open.pop();
        }
        Ok(more)
    }

    /// Reads past the rest of the value `token` began: nothing more
    /// for a scalar, every member up to the closing bracket for a
    /// container. Checks the grammar all the way.
    pub fn skip(&mut self, token: &Token<'a>) -> Result<(), Error> {
        if !matches!(token, Token::Object | Token::Array) {
            return Ok(());
        }
        let outer = self.open.len().saturating_sub(1);
        while self.open.len() > outer {
            let in_object = self.open.last().is_some_and(|o| o.keys.is_some());
            let more = if in_object {
                self.next_key()?.is_some()
            } else {
                self.next_element()?
            };
            if more {
                // A nested container is entered and walked by this loop.
                self.token()?;
            }
        }
        Ok(())
    }

    /// Reads past the next value.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        let token = self.token()?;
        self.skip(&token)
    }

    /// Reads the next value as a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        Ok(match self.token()? {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Number(n) => Value::Number(n),
            Token::String(s) => Value::String(s.into_owned()),
            Token::Object => {
                let mut map = Map::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    map.insert(key.into_owned(), value);
                }
                Value::Object(map)
            }
            Token::Array => {
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
        })
    }

    /// Where the reader stands, to come back to with [`Reader::rewind`]
    /// — for a typed decoder that gives up on a value it cannot use
    /// and re-reads it with [`Reader::skip_value`].
    pub fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            depth: self.open.len(),
        }
    }

    /// Returns to `mark`, taken in the container the reader is in now.
    pub fn rewind(&mut self, mark: Mark) {
        self.pos = mark.pos;
        self.open.truncate(mark.depth);
    }

    /// Ends the document: the top-level value was read whole and only
    /// whitespace follows (trailing characters are an error, matching
    /// the real crate).
    pub fn finish(&mut self) -> Result<(), Error> {
        if !self.open.is_empty() {
            return self.err("unexpected end of value");
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing characters");
        }
        Ok(())
    }

    fn keyword(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, Error> {
        if self
            .bytes
            .get(self.pos..)
            .unwrap_or(&[])
            .starts_with(word.as_bytes())
        {
            self.pos += word.len();
            Ok(token)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            // Everything up to the next quote, escape or control byte
            // is taken in one piece: those are ASCII and the input is a
            // &str, so a run never splits a UTF-8 sequence.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = self.text.get(start..self.pos).unwrap_or("");
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    })
                }
                Some(b'\\') => {
                    let c = self.escape()?;
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(c);
                }
                Some(_) => return self.err("control character in string"),
            }
        }
    }

    /// The character an escape stands for; the `\` was just read.
    fn escape(&mut self) -> Result<char, Error> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return self.err("unpaired surrogate");
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.err("invalid low surrogate");
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return self.err("invalid unicode escape"),
                }
            }
            _ => return self.err("invalid escape"),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
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

    fn number(&mut self) -> Result<f64, Error> {
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
            return Ok(if negative { -n } else { n });
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
        // The number's bytes are ASCII, so the slice is on boundaries.
        match self.text.get(start..self.pos).map(str::parse::<f64>) {
            Some(Ok(n)) if n.is_finite() => Ok(n),
            _ => self.err("invalid number"),
        }
    }
}

/// Parses a complete JSON document (trailing garbage is an error,
/// matching the real crate).
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(s);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Appends `s` as a JSON string literal, quotes included: the writer's
/// one string encoding. Workspace extension, for typed encoders.
pub fn escape(s: &str, out: &mut String) {
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

/// Appends `v` in decimal, digits built in a stack buffer. Workspace
/// extension, for typed encoders.
pub fn push_integer(v: i64, out: &mut String) {
    push_digits(v.unsigned_abs(), v < 0, out);
}

/// Appends `v` exactly as [`to_string`] writes
/// [`Value::from_u64_exact`]`(v)`: a number up to 2⁵³, a decimal
/// string past it. Workspace extension, for typed encoders.
pub fn push_u64_exact(v: u64, out: &mut String) {
    if v <= Value::EXACT_INT_MAX {
        // Integral and below 2⁵³: `write_value` prints these digits
        // whether it takes its integer path or `f64` formatting.
        push_digits(v, false, out);
    } else {
        out.push('"');
        push_digits(v, false, out);
        out.push('"');
    }
}

fn push_digits(mut rest: u64, negative: bool, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `value` compactly, exactly as [`to_string`] writes it.
/// Workspace extension: lets a typed encoder embed a `Value` member
/// without a second buffer.
pub fn push_value(value: &Value, out: &mut String) {
    write_value(value, out, None);
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

    #[test]
    fn repeated_keys_are_rejected_at_the_repeat() {
        let err = from_str(r#"{"cmd":"submit","instance":1,"instance":2}"#).unwrap_err();
        assert_eq!(err.offset, 29, "{err}");
        assert!(err.to_string().contains("duplicate key"), "{err}");
        // The same key spelled with an escape is the same key.
        assert!(from_str(r#"{"a":1,"\u0061":2}"#).is_err());
        // Per object, not per document.
        let ok = from_str(r#"{"a":{"a":1},"b":[{"a":2},{"a":3}]}"#).unwrap();
        assert_eq!(
            ok.get("b")
                .and_then(|b| b.get("1"))
                .and_then(|o| o.get("a")),
            Some(&Value::Number(3.0))
        );
    }

    #[test]
    fn the_depth_cap_counts_enclosing_containers() {
        let nest = |depth: usize, inner: &str| {
            format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
        };
        assert!(from_str(&nest(MAX_DEPTH + 1, "")).is_ok());
        assert!(from_str(&nest(MAX_DEPTH, "1")).is_ok());
        let err = from_str(&nest(MAX_DEPTH + 1, "1")).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
        assert!(from_str(&nest(100_000, "")).is_err());
    }

    /// Walking tokens, skipping and re-reading after a rewind see the
    /// same grammar [`from_str`] does.
    #[test]
    fn a_reader_walks_skips_and_rewinds() {
        let doc = r#" {"skip": {"x": [1, {"y": "z\n"}], "w": null}, "take": [7, "8", 1e2], "s": "plain"} "#;
        let mut r = Reader::new(doc);
        assert_eq!(r.token().unwrap(), Token::Object);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("skip"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("take"));
        let mark = r.mark();
        assert_eq!(r.token().unwrap(), Token::Array);
        let mut got = Vec::new();
        while r.next_element().unwrap() {
            got.push(r.token().unwrap().as_u64_exact());
        }
        assert_eq!(got, [Some(7), Some(8), Some(100)]);
        r.rewind(mark);
        assert_eq!(r.value().unwrap(), from_str(r#"[7, "8", 100]"#).unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("s"));
        assert!(matches!(
            r.token().unwrap(),
            Token::String(Cow::Borrowed("plain"))
        ));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        // Skipping checks the grammar too, and trailing bytes are an
        // error after the value.
        let mut r = Reader::new(r#"[1, {"a": 1, "a": 2}]"#);
        assert!(r.skip_value().is_err());
        let mut r = Reader::new("[1] x");
        r.skip_value().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn typed_writers_match_the_value_writer() {
        for v in [
            0,
            1,
            999_999_999_999_999,
            1_000_000_000_000_000,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX,
        ] {
            let mut out = String::new();
            push_u64_exact(v, &mut out);
            assert_eq!(out, to_string(&Value::from_u64_exact(v)).unwrap(), "{v}");
        }
        for v in [0, -1, i64::MIN, i64::MAX, 42] {
            let mut out = String::new();
            push_integer(v, &mut out);
            assert_eq!(out, v.to_string());
        }
        let s = "q\"b\\ \u{1} é";
        let mut out = String::new();
        escape(s, &mut out);
        assert_eq!(out, to_string(&Value::from(s)).unwrap());
        let v = from_str(r#"{"b":[1,2.5,null],"a":{"c":"d"}}"#).unwrap();
        let mut out = String::new();
        push_value(&v, &mut out);
        assert_eq!(out, to_string(&v).unwrap());
    }
}
