//! A minimal hand-rolled JSON document builder, serializer, and parser.
//!
//! The build environment has no network access to crates.io, so the
//! observability layer cannot depend on `serde`; this module provides
//! the small subset we need: building a [`Json`] tree and rendering it
//! with deterministic field order (insertion order — objects are
//! ordered pairs, not maps), correct string escaping, and a stable
//! float format. [`Json::parse`] is the inverse, used by the compile
//! server's newline-delimited-JSON wire protocol (`docs/SERVER.md`).

use std::fmt::Write as _;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float, rendered with Rust's shortest-roundtrip `{:?}` format;
    /// non-finite values render as `null` (JSON has no NaN/Inf).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or appends — keys are not deduplicated) a field to an
    /// object, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Parses a JSON document (the whole input must be one value plus
    /// optional surrounding whitespace). Numbers without `.`/`e` parse
    /// as [`Json::Int`], everything else numeric as [`Json::Float`];
    /// duplicate object keys are kept in order (last-wins under
    /// [`Json::get`] would be surprising, so `get` returns the first).
    ///
    /// Arrays and objects may nest at most 256 deep, so a hostile line
    /// cannot overflow the stack of the recursive parser.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset and a short message
    /// on malformed or too deeply nested input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// The value of the first field named `key`, if `self` is an object
    /// that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if `self` is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` keeps a trailing `.0` on integral floats, so
                    // the value re-parses as a float everywhere.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, level + 1);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, level, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                });
            }
        }
    }
}

/// A JSON parse error: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Short description of the problem.
    pub message: &'static str,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Far above any wire request or metrics document, far below what
/// would overflow a worker thread's stack.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nested too deeply"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // consume `[`
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // consume `{`
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
            self.expect(b':', "expected ':' after object key")?;
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
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale; the input is valid UTF-8
            // by construction (`&str`), so any non-escape, non-quote
            // run is safe to append as-is.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("valid utf-8"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut n = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("expected four hex digits in \\u escape"))?;
            n = n * 16 + d;
            self.pos += 1;
        }
        Ok(n)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        // Surrogate pairs arrive as two consecutive \u escapes.
        if (0xD800..0xDC00).contains(&hi) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("valid utf-8");
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (level + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    /// Saturates at `i64::MAX` instead of wrapping: counter totals near
    /// the top of the `u64` range must never serialize negative.
    fn from(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    /// Saturates at `i64::MAX` instead of wrapping (see `From<u64>`).
    fn from(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(xs: Vec<T>) -> Json {
        Json::Arr(xs.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_shapes() {
        let j = Json::obj()
            .field("s", "a\"b\\c\nd\u{1}")
            .field("n", 42u64)
            .field("f", 1.5)
            .field("whole", 2.0)
            .field("neg", -7i64)
            .field("arr", vec![1u64, 2, 3])
            .field("nested", Json::obj().field("ok", true))
            .field("empty", Json::obj())
            .field("nan", f64::NAN);
        assert_eq!(
            j.to_string_compact(),
            r#"{"s":"a\"b\\c\nd\u0001","n":42,"f":1.5,"whole":2.0,"neg":-7,"arr":[1,2,3],"nested":{"ok":true},"empty":{},"nan":null}"#
        );
    }

    #[test]
    fn unsigned_conversions_saturate_instead_of_wrapping() {
        // `u64::MAX as i64` would be -1; counters must never serialize
        // negative, so the conversion saturates.
        assert_eq!(
            Json::from(u64::MAX).to_string_compact(),
            i64::MAX.to_string()
        );
        assert_eq!(
            Json::from(i64::MAX as u64 + 1).to_string_compact(),
            i64::MAX.to_string()
        );
        assert_eq!(
            Json::from(usize::MAX).to_string_compact(),
            i64::MAX.to_string()
        );
        assert_eq!(Json::from(42u64).to_string_compact(), "42");
    }

    #[test]
    fn parse_roundtrips_builder_output() {
        let j = Json::obj()
            .field("s", "a\"b\\c\nd\u{1}é")
            .field("n", 42u64)
            .field("f", 1.5)
            .field("neg", -7i64)
            .field("big", i64::MAX)
            .field("arr", vec![1u64, 2, 3])
            .field("nested", Json::obj().field("ok", true).field("no", false))
            .field("empty", Json::obj())
            .field("nothing", Json::Null);
        assert_eq!(Json::parse(&j.to_string_compact()).unwrap(), j);
        assert_eq!(Json::parse(&j.to_string_pretty()).unwrap(), j);
    }

    #[test]
    fn parse_accepts_standard_forms() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("2.5E-1").unwrap(), Json::Float(0.25));
        assert_eq!(
            Json::parse(r#""\u0041\/""#).unwrap(),
            Json::Str("A/".into())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{ }").unwrap(), Json::obj());
    }

    #[test]
    fn parse_rejects_malformed_input_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"ab",
            "{\"a\"1}",
            "1 2",
            "{\"a\":}",
            "\"\\q\"",
            "nullx",
            "\"\\ud800\"",
            "01a",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} wrongly accepted");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("at byte 4"));
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        let mut v = Json::parse(&nest(MAX_DEPTH, "[", "]")).unwrap();
        for _ in 0..MAX_DEPTH {
            v = match v {
                Json::Arr(mut items) => items.pop().unwrap(),
                other => panic!("expected an array, got {other:?}"),
            };
        }
        assert_eq!(v, Json::Int(0));
        assert!(Json::parse(&nest(MAX_DEPTH, "{\"k\":", "}")).is_ok());

        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let e = Json::parse(&nest(MAX_DEPTH + 1, open, close)).unwrap_err();
            assert_eq!(e.message, "arrays and objects nested too deeply");
            assert_eq!(e.offset, MAX_DEPTH * open.len());
        }
        // Far past the limit is the same typed error, not a stack
        // overflow.
        let e = Json::parse(&"[".repeat(1 << 20)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
    }

    #[test]
    fn get_and_scalar_accessors() {
        let j = Json::parse(r#"{"op":"compile","id":7,"run":true,"x":null}"#).unwrap();
        assert_eq!(j.get("op").and_then(Json::as_str), Some("compile"));
        assert_eq!(j.get("id").and_then(Json::as_i64), Some(7));
        assert_eq!(j.get("run").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("x"), Some(&Json::Null));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("op"), None);
    }

    #[test]
    fn pretty_is_indented_and_reparses_same_tokens() {
        let j = Json::obj().field("a", vec![1u64]).field("b", Json::Null);
        let pretty = j.to_string_pretty();
        assert_eq!(pretty, "{\n  \"a\": [\n    1\n  ],\n  \"b\": null\n}");
        // Stripping whitespace outside strings recovers the compact form.
        let stripped: String = pretty.chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(stripped, j.to_string_compact());
    }
}
