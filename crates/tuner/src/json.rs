//! The workspace's one JSON tree: a [`Value`], [`parse`] and a
//! deterministic writer ([`Value`]'s `Display`).
//!
//! The build environment has no crates.io access, so instead of
//! `serde_json` the `BENCH_*.json` files are written and parsed through
//! this module.  It covers what those files hold —
//! `null`, numbers, strings, arrays, objects (no booleans) — and treats
//! every document as hostile: nesting is capped at `MAX_DEPTH` so a
//! tower of brackets is a [`JsonError`], not a stack overflow.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts (the repo's schemas need 4).
pub(crate) const MAX_DEPTH: usize = 32;

/// Error produced when a JSON document cannot be parsed, or does not hold
/// what its schema requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub(crate) String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// One JSON value.  Objects keep their fields in insertion order, so the
/// same tree always serialises to the same text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` — also what a non-finite [`Value::Number`] is written as.
    Null,
    /// Any number; integers are the integral values.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered `(key, value)` fields.
    Object(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Number(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl Value {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Self {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError(format!("missing field '{key}'"))),
            _ => Err(JsonError(format!("expected object for field '{key}'"))),
        }
    }

    /// A number; `null` reads back as NaN (the writer's spelling of a
    /// non-finite value, serde_json's convention).  Public for
    /// `crates/bench/tests/bench_json.rs`, which reads the committed
    /// `BENCH_gemm.json` back.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Number(n) => Ok(*n),
            Value::Null => Ok(f64::NAN),
            _ => Err(JsonError("expected number".into())),
        }
    }

    /// A count: finite, non-negative, integral and at most `u32::MAX` —
    /// anything else (`-3.7`, `2.9`, `null`) is an error, never a
    /// truncation.  Public for `crates/bench/tests/bench_json.rs`, which
    /// reads the committed `BENCH_gemm.json` back.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX) => {
                Ok(*n as usize)
            }
            _ => Err(JsonError("expected a non-negative integer".into())),
        }
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(JsonError("expected string".into())),
        }
    }

    /// The elements of an array.  Public for
    /// `crates/bench/tests/bench_json.rs`, which reads the committed
    /// `BENCH_gemm.json` back.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(JsonError("expected array".into())),
        }
    }

    /// Writes `self` at nesting level `depth`.  A container among the top
    /// two levels that holds containers gets one child per line; everything
    /// else stays on one line (one row of a table per line of the file).
    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Number(n) if n.is_finite() => return out.push_str(&n.to_string()),
            Value::Number(_) => return out.push_str("null"),
            Value::String(s) => return write_string(out, s),
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let broken = depth < 2
            && children
                .iter()
                .any(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)));
        let new_line = |out: &mut String, level: usize| {
            if broken {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
        };
        out.push(open);
        for (i, (key, child)) in children.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if broken { "," } else { ", " });
            }
            new_line(out, depth + 1);
            if let Some(key) = key {
                write_string(out, key);
                out.push_str(": ");
            }
            child.write(out, depth + 1);
        }
        new_line(out, depth);
        out.push(close);
    }
}

/// The deterministic writer: the same tree always gives the same text.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

/// JSON string literal with standard escaping (quotes, backslashes,
/// control characters); other characters — including non-ASCII — are
/// emitted verbatim, which JSON permits in UTF-8 documents.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses the first JSON value of `text`.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.value()
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, JsonError> {
        Err(JsonError(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", byte as char))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') if self.bytes[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(Value::Null)
            }
            Some(b'"') => self.string().map(Value::String),
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return self.err("nesting deeper than MAX_DEPTH");
                }
                self.depth += 1;
                let container = if open == b'[' {
                    self.children(b']', Self::value).map(Value::Array)
                } else {
                    let field = |p: &mut Self| {
                        let key = p.string()?;
                        p.expect(b':')?;
                        Ok((key, p.value()?))
                    };
                    self.children(b'}', field).map(Value::Object)
                };
                self.depth -= 1;
                container
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash verbatim: both
            // are ASCII, so the run is whole UTF-8 characters.
            let run = self.pos;
            while !matches!(self.bytes.get(self.pos), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let mut next = || {
                self.pos += 1;
                self.bytes.get(self.pos - 1).copied()
            };
            match next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(match next() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    Some(b'u') => self.unicode_escape()?,
                    _ => return self.err("unsupported escape"),
                }),
                _ => return self.err("unterminated string"),
            }
        }
    }

    /// Decodes the four hex digits after `\u`, combining UTF-16
    /// surrogate pairs (`😀`) into one scalar value.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return self.err("invalid low surrogate");
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else {
                return self.err("unpaired surrogate");
            }
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| JsonError(format!("invalid scalar U+{code:04X}")))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let Some(digits) = digits.filter(|t| t.bytes().all(|c| c.is_ascii_hexdigit())) else {
            return self.err("expected four hex digits after \\u");
        };
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("validated hex digits"))
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError(format!("bad number '{text}'")))
    }

    /// The comma-separated children of the container `value` is looking
    /// at, each parsed by `child`, up to and including the `close` bracket.
    fn children<T>(
        &mut self,
        close: u8,
        child: impl Fn(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(child(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.err(&format!("expected ',' or '{}'", close as char)),
            }
        }
    }
}
