//! A minimal line-delimited JSON reader/writer for the service
//! protocol. Hand-rolled (the build must succeed offline with no
//! registry crates); supports exactly the JSON subset the protocol
//! uses: objects, arrays, strings with the standard escapes,
//! numbers, booleans, and null.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Protocol requests
/// nest at most four levels; the cap keeps the recursive descent far
/// from the stack limit of the thread reading requests, whatever a
/// client sends.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the protocol only uses non-negative integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }
}

/// Parses one JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// A human-readable message with the byte offset of the problem,
/// including arrays and objects nested more than 64 levels deep.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Parses an array or object one nesting level down, refusing to
    /// go deeper than [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    format!("bad \\u escape at byte {}", self.pos)
                                })?;
                            // The protocol never emits surrogate pairs;
                            // lone surrogates map to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe_free_next_char(rest);
                    out.push_str(s);
                    self.pos += s.len();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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
}

/// The first UTF-8 scalar of `rest` as a subslice (no unsafe: uses the
/// str machinery on a validity-checked prefix).
fn unsafe_free_next_char(rest: &[u8]) -> &str {
    for n in 1..=4.min(rest.len()) {
        if let Ok(s) = std::str::from_utf8(&rest[..n]) {
            return s;
        }
    }
    "\u{fffd}" // unreachable for input derived from &str
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Builds one response object line member-by-member (insertion order is
/// emission order).
#[derive(Default)]
pub struct ObjBuilder {
    body: String,
}

impl ObjBuilder {
    /// An empty object.
    pub fn new() -> ObjBuilder {
        ObjBuilder::default()
    }

    fn sep(&mut self) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
    }

    /// Adds a string member.
    pub fn str(mut self, key: &str, value: &str) -> ObjBuilder {
        self.sep();
        let _ = write!(self.body, "\"{}\":\"{}\"", escape(key), escape(value));
        self
    }

    /// Adds an integer member.
    pub fn num(mut self, key: &str, value: usize) -> ObjBuilder {
        self.sep();
        let _ = write!(self.body, "\"{}\":{}", escape(key), value);
        self
    }

    /// Adds a boolean member.
    pub fn bool(mut self, key: &str, value: bool) -> ObjBuilder {
        self.sep();
        let _ = write!(self.body, "\"{}\":{}", escape(key), value);
        self
    }

    /// Adds a pre-serialized JSON value verbatim (e.g. a nested array
    /// of objects each built with its own [`ObjBuilder`]).
    pub fn raw(mut self, key: &str, json: &str) -> ObjBuilder {
        self.sep();
        let _ = write!(self.body, "\"{}\":{}", escape(key), json);
        self
    }

    /// Finishes the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(
            r#"{"id":"r1","op":"synthesize","problem":"mutex2","threads":2,
                "budget":{"max_states":100},"flags":[true,null,1.5]}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("threads").and_then(Value::as_usize), Some(2));
        assert_eq!(
            v.get("budget")
                .and_then(|b| b.get("max_states"))
                .and_then(Value::as_usize),
            Some(100)
        );
        match v.get("flags") {
            Some(Value::Arr(items)) => {
                assert_eq!(items[0], Value::Bool(true));
                assert_eq!(items[1], Value::Null);
                assert_eq!(items[2], Value::Num(1.5));
                assert_eq!(items[2].as_u64(), None, "1.5 is not an integer");
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1f}π";
        let doc = format!("{{\"k\":\"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(original));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":01x}").is_err());
    }

    #[test]
    fn nesting_is_capped_with_the_offending_offset() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        // Far past the cap, objects as well as arrays: an error, not a
        // stack overflow.
        let deep = format!("{}1", r#"{"k":["#.repeat(100_000));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn obj_builder_emits_parseable_lines() {
        let line = ObjBuilder::new()
            .str("id", "r\"1")
            .str("status", "solved")
            .num("states", 85)
            .bool("verified", true)
            .build();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r\"1"));
        assert_eq!(v.get("states").and_then(Value::as_usize), Some(85));
        assert_eq!(v.get("verified"), Some(&Value::Bool(true)));
    }
}
