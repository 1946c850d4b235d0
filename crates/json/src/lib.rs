#![warn(missing_docs)]

//! Minimal JSON support with no external dependencies.
//!
//! The DIBS reproduction must build hermetically (no network, no vendored
//! third-party crates), so this crate supplies the small slice of
//! serde/serde_json the workspace actually needs: a [`Json`] value model, a
//! strict parser with positioned errors, compact and pretty printers, and
//! [`ToJson`]/[`FromJson`] conversion traits implemented manually by the
//! types that persist results or parse scenario files.
//!
//! # Examples
//!
//! ```
//! use dibs_json::Json;
//!
//! let v = Json::parse(r#"{ "k": [1, 2.5, true, null, "s"] }"#).unwrap();
//! assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 5);
//! assert_eq!(Json::parse(&v.render()).unwrap(), v);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Objects preserve insertion order (like `serde_json`'s default), which
/// keeps rendered reports stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; integers up to 2^53 round-trip
    /// exactly, which covers every counter the simulator serializes.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse or conversion error with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}
impl std::error::Error for JsonError {}

impl JsonError {
    /// Builds an error from anything printable.
    pub fn msg(m: impl fmt::Display) -> Self {
        JsonError(m.to_string())
    }
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with 2-space indentation, `serde_json`-pretty style.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                write_escaped(out, &fields[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                fields[i].1.write(out, indent, depth + 1);
            }),
        }
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a nonnegative integer, if it is one exactly.
    #[allow(clippy::cast_possible_truncation)] // guarded: integral and <= 2^53
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT_INT => Some(n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Largest magnitude at which every integer is representable in an `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

fn format_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no Inf/NaN; serialize as null like serde_json's lossy mode.
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT {
        #[allow(clippy::cast_possible_truncation)] // guarded: integral and |n| <= 2^53
        let int = n as i64;
        format!("{int}")
    } else {
        // Rust's `{}` never uses exponent notation; fall back to `{:e}`
        // when the plain expansion would be unreadably long.
        let s = format!("{n}");
        let s = if s.len() > 21 { format!("{n:e}") } else { s };
        debug_assert!(s.parse::<f64>().is_ok());
        s
    }
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: impl fmt::Display) -> JsonError {
        // Report 1-based line:column of the current position.
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = consumed.iter().filter(|&&b| b == b'\n').count() + 1;
        let col = consumed.iter().rev().take_while(|&&b| b != b'\n').count() + 1;
        JsonError(format!("{msg} at line {line} column {col}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
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
                        let cp = self.hex4()?;
                        // Surrogate pairs for astral characters.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(c) if c < 0x20 => {
                    return Err(self.error("control character in string"));
                }
                Some(c) => {
                    // Reassemble UTF-8 continuation bytes verbatim.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.error("truncated UTF-8 sequence"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.error("invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.error("invalid \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses the value, failing with a descriptive [`JsonError`].
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    /// Identity: lets already-built values (e.g. from [`ObjBuilder`]) nest
    /// inside another builder without a wrapper type.
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! num_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v
                    .as_f64()
                    .ok_or_else(|| JsonError::msg(format!("expected number, got {v:?}")))?;
                // Numbers are parsed into an `f64`, which holds every
                // integer below 2^53 exactly; at 2^53 and above the text
                // may already have been rounded, so refuse rather than
                // return a neighbouring value.
                if n.fract() != 0.0 || n.abs() >= MAX_EXACT_INT {
                    return Err(JsonError::msg(format!(
                        "number {n} is not an integer below 2^53"
                    )));
                }
                // A lossy cast is checked just below by round-tripping.
                #[allow(clippy::cast_possible_truncation)]
                let cast = n as $t;
                if cast as f64 != n {
                    return Err(JsonError::msg(format!(
                        "number {n} out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(cast)
            }
        }
    )*};
}
num_json!(u8, u16, u32, u64, usize, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}
impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::msg(format!("expected number, got {v:?}")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::msg(format!("expected bool, got {v:?}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}
impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg(format!("expected string, got {v:?}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::msg(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::msg(format!("expected array, got {v:?}")))?;
        if items.len() != N {
            return Err(JsonError::msg(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::msg(format!(
                "expected 2-element array, got {v:?}"
            ))),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}
impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::msg(format!("expected object, got {v:?}")))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

/// Strict object reader: fields are consumed by name and leftovers are
/// rejected, reproducing serde's `deny_unknown_fields` behavior.
pub struct ObjReader<'a> {
    fields: &'a [(String, Json)],
    taken: Vec<bool>,
    context: &'a str,
}

impl<'a> ObjReader<'a> {
    /// Wraps an object value; errors if `v` is not an object.
    pub fn new(v: &'a Json, context: &'a str) -> Result<Self, JsonError> {
        let fields = v
            .as_object()
            .ok_or_else(|| JsonError::msg(format!("{context}: expected object, got {v:?}")))?;
        Ok(ObjReader {
            fields,
            taken: vec![false; fields.len()],
            context,
        })
    }

    /// Consumes a field by key, if present.
    pub fn take(&mut self, key: &str) -> Option<&'a Json> {
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if k == key && !self.taken[i] {
                self.taken[i] = true;
                return Some(v);
            }
        }
        None
    }

    /// Consumes and converts a required field.
    pub fn required<T: FromJson>(&mut self, key: &str) -> Result<T, JsonError> {
        let context = self.context;
        let v = self
            .take(key)
            .ok_or_else(|| JsonError::msg(format!("{context}: missing field `{key}`")))?;
        T::from_json(v).map_err(|e| JsonError::msg(format!("{context}.{key}: {}", e.0)))
    }

    /// Consumes and converts an optional field, substituting a default.
    pub fn optional<T: FromJson>(&mut self, key: &str, default: T) -> Result<T, JsonError> {
        match self.take(key) {
            None => Ok(default),
            Some(Json::Null) => Ok(default),
            Some(v) => {
                let context = self.context;
                T::from_json(v).map_err(|e| JsonError::msg(format!("{context}.{key}: {}", e.0)))
            }
        }
    }

    /// Errors if any field was never consumed (unknown-field rejection).
    pub fn deny_unknown(self) -> Result<(), JsonError> {
        for (i, (k, _)) in self.fields.iter().enumerate() {
            if !self.taken[i] {
                return Err(JsonError::msg(format!(
                    "{}: unknown field `{k}`",
                    self.context
                )));
            }
        }
        Ok(())
    }
}

/// Builder for JSON objects in insertion order.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    fields: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        self.fields.push((key.to_string(), value.to_json()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
            "[01x]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn error_carries_position() {
        let err = Json::parse("{\n  \"a\": ?\n}").unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
    }

    #[test]
    fn roundtrips_compact_and_pretty() {
        let src = r#"{"s":"q\"uote","n":[1,2.5,-3],"b":true,"o":{"inner":null},"e":[],"eo":{}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
        assert_eq!(v.render(), src);
    }

    #[test]
    fn pretty_format_matches_expected_shape() {
        let v = Json::parse(r#"{"a":1,"b":[2,3]}"#).unwrap();
        assert_eq!(
            v.render_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}"
        );
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(1e300).render(), "1e300");
    }

    #[test]
    fn unicode_roundtrip() {
        let v = Json::parse(r#""héllo 😀 ✓""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo 😀 ✓"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn obj_reader_denies_unknown_fields() {
        let v = Json::parse(r#"{"x": 1, "bogus": 2}"#).unwrap();
        let mut r = ObjReader::new(&v, "test").unwrap();
        assert_eq!(r.required::<u64>("x").unwrap(), 1);
        let err = r.deny_unknown().unwrap_err();
        assert!(err.0.contains("bogus"), "{err}");
    }

    #[test]
    fn obj_reader_defaults_apply() {
        let v = Json::parse(r#"{"x": 1}"#).unwrap();
        let mut r = ObjReader::new(&v, "test").unwrap();
        assert_eq!(r.optional("y", 7u64).unwrap(), 7);
        assert_eq!(r.required::<u64>("x").unwrap(), 1);
        r.deny_unknown().unwrap();
    }

    #[test]
    fn conversion_traits_roundtrip() {
        let map: BTreeMap<String, f64> = [("a".to_string(), 1.5)].into_iter().collect();
        let v = map.to_json();
        assert_eq!(BTreeMap::<String, f64>::from_json(&v).unwrap(), map);

        let pair = (1.0f64, 2.0f64);
        assert_eq!(<(f64, f64)>::from_json(&pair.to_json()).unwrap(), pair);

        let arr = [3usize, 4];
        assert_eq!(<[usize; 2]>::from_json(&arr.to_json()).unwrap(), arr);
        assert!(<[usize; 2]>::from_json(&Json::parse("[1]").unwrap()).is_err());

        assert_eq!(Option::<u64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(u8::from_json(&Json::Num(300.0)).ok(), None);
    }

    #[test]
    fn integers_f64_cannot_hold_exactly_are_rejected() {
        let int = |text: &str| u64::from_json(&Json::parse(text).unwrap());
        assert_eq!(int("9007199254740991").unwrap(), (1 << 53) - 1);
        // 2^53 + 1 parses to the same f64 as 2^53, so both are refused.
        assert!(int("9007199254740992").is_err());
        assert!(int("9007199254740993").is_err());
        let err = int("12345678901234567891").unwrap_err();
        assert!(err.0.contains("2^53"), "{err}");
        assert!(i64::from_json(&Json::parse("-9007199254740993").unwrap()).is_err());
        assert!(u32::from_json(&Json::parse("1.5").unwrap()).is_err());
        assert!(u32::from_json(&Json::parse("4294967296").unwrap()).is_err());
        assert!(u64::from_json(&Json::parse("-1").unwrap()).is_err());
    }

    #[test]
    fn builder_preserves_order() {
        let v = ObjBuilder::new()
            .field("z", 1u64)
            .field("a", "text")
            .build();
        assert_eq!(v.render(), r#"{"z":1,"a":"text"}"#);
    }
}
