//! The workspace's one JSON implementation: a value type, a parser
//! with explicit limits, and a sorted-key writer.
//!
//! Three callers need JSON and nothing else does: reports and telemetry
//! snapshots are *written* (the byte-identity tests compare them, so
//! the output must be deterministic), checkpoints are written and *read
//! back*, and three detection plugins (Consul, Hadoop, Kubernetes)
//! parse response bodies that arrive from the network. The last one
//! sets the parser's posture: input is hostile, so nesting depth and
//! input length are bounded by named limits ([`MAX_DEPTH`],
//! [`MAX_INPUT_BYTES`]) and every malformed input is an error, never a
//! panic or unbounded recursion.
//!
//! Objects are `BTreeMap`s, so [`Value::write`] emits keys in sorted
//! order and write → parse → write is byte-stable. A **duplicate key
//! keeps the last value**, as the parser this module replaced did, so
//! the plugins see network bodies exactly as before.
//!
//! Conversions are hand-written: [`ToJson`] on everything that is
//! written, [`FromJson`] only on what a checkpoint stores. Impls for
//! types from `nokeys-apps` and `nokeys-http` live here rather than
//! beside the types, because those crates have no use for JSON.

use nokeys_apps::{AppId, ReleaseDate, Version};
use nokeys_http::ip::Cidr;
use nokeys_http::{Endpoint, Scheme};
use std::collections::BTreeMap;
use std::fmt;

/// Deepest nesting of arrays/objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;
/// Longest input [`parse`] accepts, in bytes. Checkpoints of a full
/// scan are a few MiB; HTTP bodies are capped at 4 MiB by the client.
pub const MAX_INPUT_BYTES: usize = 64 * 1024 * 1024;

/// A JSON value. Integers keep 64-bit precision (seeds and counters
/// must round-trip exactly); anything with a fraction or exponent is a
/// `Float`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

/// Why a parse or a conversion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input is longer than [`MAX_INPUT_BYTES`].
    TooLong { len: usize },
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep { offset: usize },
    /// The input ended inside a value.
    Truncated,
    /// A byte that cannot start or continue a value at `offset`.
    Syntax { offset: usize, what: &'static str },
    /// A well-formed value of the wrong shape for the requested type.
    Shape(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooLong { len } => {
                write!(f, "JSON input of {len} bytes exceeds {MAX_INPUT_BYTES}")
            }
            JsonError::TooDeep { offset } => {
                write!(f, "JSON nests deeper than {MAX_DEPTH} at byte {offset}")
            }
            JsonError::Truncated => write!(f, "JSON input ends inside a value"),
            JsonError::Syntax { offset, what } => write!(f, "bad JSON at byte {offset}: {what}"),
            JsonError::Shape(what) => write!(f, "unexpected JSON shape: {what}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document (surrounding whitespace allowed, nothing
/// else after it).
pub fn parse(input: &[u8]) -> Result<Value, JsonError> {
    if input.len() > MAX_INPUT_BYTES {
        return Err(JsonError::TooLong { len: input.len() });
    }
    let mut p = Parser { input, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.syntax("trailing bytes after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn syntax(&self, what: &'static str) -> JsonError {
        JsonError::Syntax {
            offset: self.pos,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, what: &'static str) -> Result<(), JsonError> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.syntax(what)),
            None => Err(JsonError::Truncated),
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Value) -> Result<Value, JsonError> {
        let rest = &self.input[self.pos..];
        if rest.starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else if word.starts_with(rest) {
            Err(JsonError::Truncated)
        } else {
            Err(self.syntax("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(JsonError::Truncated),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                if depth >= MAX_DEPTH {
                    return Err(JsonError::TooDeep { offset: self.pos });
                }
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        Some(_) => return Err(self.syntax("expected `,` or `]`")),
                        None => return Err(JsonError::Truncated),
                    }
                }
            }
            Some(b'{') => {
                if depth >= MAX_DEPTH {
                    return Err(JsonError::TooDeep { offset: self.pos });
                }
                self.pos += 1;
                let mut fields = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek().is_some_and(|b| b != b'"') {
                        return Err(self.syntax("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':', "expected `:` after a key")?;
                    let value = self.value(depth + 1)?;
                    // Duplicate keys: the last one wins.
                    fields.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        Some(_) => return Err(self.syntax("expected `,` or `}`")),
                        None => return Err(JsonError::Truncated),
                    }
                }
            }
            Some(_) => Err(self.syntax("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        let int_from = self.pos;
        match digits(self) {
            0 if self.peek().is_none() => return Err(JsonError::Truncated),
            0 => return Err(self.syntax("expected a digit")),
            n if n > 1 && self.input[int_from] == b'0' => {
                self.pos = int_from;
                return Err(self.syntax("leading zero"));
            }
            _ => {}
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if digits(self) == 0 {
                return Err(match self.peek() {
                    None => JsonError::Truncated,
                    Some(_) => self.syntax("expected a fraction digit"),
                });
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(match self.peek() {
                    None => JsonError::Truncated,
                    Some(_) => self.syntax("expected an exponent digit"),
                });
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .expect("number bytes are ASCII by construction");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        // Integers beyond 64 bits degrade to the nearest float, like
        // every JSON reader that keeps integers at all.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => {
                self.pos = start;
                Err(self.syntax("number out of range"))
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(hex) = self.input.get(self.pos..self.pos + 4) else {
            return Err(JsonError::Truncated);
        };
        // Checked first: `from_str_radix` would also accept a sign.
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.syntax("bad \\u escape"));
        }
        let text = std::str::from_utf8(hex).expect("hex digits are ASCII");
        let code = u32::from_str_radix(text, 16).expect("four hex digits fit u32");
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            let run_from = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.input[run_from..self.pos]).map_err(|e| {
                JsonError::Syntax {
                    offset: run_from + e.valid_up_to(),
                    what: "string is not UTF-8",
                }
            })?;
            out.push_str(run);
            match self.peek() {
                None => return Err(JsonError::Truncated),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::Truncated);
                    };
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
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code) {
                                // A high surrogate must pair with a low one.
                                if self.input.get(self.pos..self.pos + 2) == Some(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(self.syntax("unpaired surrogate"));
                                    }
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                } else if self.pos + 2 > self.input.len() {
                                    return Err(JsonError::Truncated);
                                } else {
                                    return Err(self.syntax("unpaired surrogate"));
                                }
                            }
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.syntax("unpaired surrogate")),
                            }
                        }
                        _ => {
                            self.pos -= 1;
                            return Err(self.syntax("unknown escape"));
                        }
                    }
                }
                Some(_) => return Err(self.syntax("raw control character in a string")),
            }
        }
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

impl Value {
    /// Compact JSON: sorted keys, no whitespace.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, None, 0);
        out
    }

    /// Indented JSON (two spaces), sorted keys.
    pub fn write_pretty(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, Some(2), 0);
        out
    }

    fn write_into(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let newline = |out: &mut String, level: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * level));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            // `{:?}` always keeps a `.0` or an exponent, so a float
            // reads back as a float; non-finite values have no JSON
            // spelling and are written as null.
            Value::Float(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Value::Float(_) => out.push_str("null"),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, level + 1);
                    item.write_into(out, indent, level + 1);
                }
                if !items.is_empty() {
                    newline(out, level);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, level + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write_into(out, indent, level + 1);
                }
                if !fields.is_empty() {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }

    /// Field `key` of an object; `None` for other values or a missing key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.get(key),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// Required field `key` of an object, converted.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| within(key, e)),
            None => Err(JsonError::Shape(format!("missing field `{key}`"))),
        }
    }
}

/// `e`, found inside the value at `key`: a shape error names the path.
fn within(key: &str, e: JsonError) -> JsonError {
    match e {
        JsonError::Shape(what) => JsonError::Shape(format!("{key}: {what}")),
        other => other,
    }
}

/// Build an object from `(key, value)` pairs.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn shape<T>(expected: &str, got: &Value) -> Result<T, JsonError> {
    let kind = match got {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::UInt(_) | Value::Int(_) | Value::Float(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    };
    Err(JsonError::Shape(format!("expected {expected}, got {kind}")))
}

/// Conversion into a [`Value`].
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Conversion back from a [`Value`]; implemented only by what a
/// checkpoint stores.
pub trait FromJson: Sized {
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

/// A value reads back as itself: how a checkpoint keeps the
/// fingerprint object it compares key by key.
impl FromJson for Value {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_bool()
            .map_or_else(|| shape("a boolean", value), Ok)
    }
}

macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self, JsonError> {
                match value.as_u64().map(<$t>::try_from) {
                    Some(Ok(n)) => Ok(n),
                    Some(Err(_)) => Err(JsonError::Shape(format!(
                        "{} does not fit {}",
                        value.write(),
                        stringify!($t)
                    ))),
                    None => shape("a non-negative integer", value),
                }
            }
        }
    )*};
}
unsigned_json!(u8, u16, u32, u64, usize);

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_array() {
            Some(items) => items.iter().map(T::from_json).collect(),
            None => shape("an array", value),
        }
    }
}

/// Maps are written as objects; non-string keys use their decimal or
/// display spelling (`{"80": …}`), which is what sorts them as text.
impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: std::str::FromStr + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let Value::Object(fields) = value else {
            return shape("an object", value);
        };
        fields
            .iter()
            .map(|(k, v)| {
                let key = k
                    .parse()
                    .map_err(|_| JsonError::Shape(format!("bad map key `{k}`")))?;
                Ok((key, V::from_json(v).map_err(|e| within(k, e))?))
            })
            .collect()
    }
}

impl ToJson for Scheme {
    fn to_json(&self) -> Value {
        self.as_str().to_json()
    }
}

impl FromJson for Scheme {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("http") => Ok(Scheme::Http),
            Some("https") => Ok(Scheme::Https),
            _ => shape("\"http\" or \"https\"", value),
        }
    }
}

/// Endpoints are written as `"ip:port"`.
impl ToJson for Endpoint {
    fn to_json(&self) -> Value {
        self.to_string().to_json()
    }
}

impl FromJson for Endpoint {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let parsed = value.as_str().and_then(|s| {
            let (ip, port) = s.rsplit_once(':')?;
            Some(Endpoint::new(ip.parse().ok()?, port.parse().ok()?))
        });
        parsed.map_or_else(|| shape("an \"ip:port\" string", value), Ok)
    }
}

/// CIDR blocks are written as `"a.b.c.d/len"`.
impl ToJson for Cidr {
    fn to_json(&self) -> Value {
        self.to_string().to_json()
    }
}

impl FromJson for Cidr {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let parsed = value.as_str().and_then(|s| s.parse().ok());
        parsed.map_or_else(|| shape("an \"a.b.c.d/len\" string", value), Ok)
    }
}

/// Applications are written by variant name (`"JupyterLab"`).
impl ToJson for AppId {
    fn to_json(&self) -> Value {
        format!("{self:?}").to_json()
    }
}

impl FromJson for AppId {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let found = value
            .as_str()
            .and_then(|name| AppId::all().find(|app| format!("{app:?}") == name));
        found.map_or_else(|| shape("an application name", value), Ok)
    }
}

impl ToJson for Version {
    fn to_json(&self) -> Value {
        object([
            ("major", self.major.to_json()),
            ("minor", self.minor.to_json()),
            ("patch", self.patch.to_json()),
            (
                "released",
                object([
                    ("year", self.released.year.to_json()),
                    ("month", self.released.month.to_json()),
                ]),
            ),
        ])
    }
}

impl FromJson for Version {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let released = value
            .get("released")
            .ok_or_else(|| JsonError::Shape("missing field `released`".into()))?;
        Ok(Version {
            major: value.field("major")?,
            minor: value.field("minor")?,
            patch: value.field("patch")?,
            released: ReleaseDate {
                year: released.field("year")?,
                month: released.field("month")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::cases::check;

    fn parse_str(s: &str) -> Result<Value, JsonError> {
        parse(s.as_bytes())
    }

    #[test]
    fn parses_every_kind_of_value() {
        let v = parse_str(
            r#" {"a": [1, -2, 3.5, 1e3, true, false, null], "s": "x\ny\u00e9\ud83d\ude00", "o": {}} "#,
        )
        .unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[
                Value::UInt(1),
                Value::Int(-2),
                Value::Float(3.5),
                Value::Float(1000.0),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null
            ]
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\nyé😀"));
        assert_eq!(v.get("o"), Some(&Value::Object(BTreeMap::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_keep_64_bit_precision() {
        let v = parse_str("[18446744073709551615, -9223372036854775808, 18446744073709551616]")
            .unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0], Value::UInt(u64::MAX));
        assert_eq!(items[1], Value::Int(i64::MIN));
        assert!(matches!(items[2], Value::Float(_)), "beyond 64 bits");
        assert_eq!(Value::UInt(u64::MAX).write(), "18446744073709551615");
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_str(&at_limit).is_ok());
        let past = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(
            parse_str(&past),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
        // A hostile body: a megabyte of open brackets, objects too.
        assert!(matches!(
            parse_str(&"[".repeat(1 << 20)),
            Err(JsonError::TooDeep { .. })
        ));
        assert!(matches!(
            parse_str(&"{\"k\":".repeat(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { .. })
        ));
    }

    #[test]
    fn input_past_the_length_limit_is_refused_before_parsing() {
        let long = vec![b' '; MAX_INPUT_BYTES + 1];
        assert_eq!(
            parse(&long),
            Err(JsonError::TooLong {
                len: MAX_INPUT_BYTES + 1
            })
        );
    }

    #[test]
    fn every_truncation_of_a_document_is_an_error() {
        let doc = r#"{"k": [1, 2.5e-3, "a\u00e9\\", true, null], "n": {"m": -7}}"#;
        assert!(parse_str(doc).is_ok());
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let err = parse_str(&doc[..cut]).expect_err("a proper prefix is never a document");
            assert_eq!(err, JsonError::Truncated, "cut at {cut}: {:?}", &doc[..cut]);
        }
    }

    #[test]
    fn malformed_input_is_a_syntax_error() {
        for bad in [
            "{\"a\" 1}",
            "[1,]",
            "{,}",
            "[1 2]",
            "01",
            "1.",
            "-",
            "\"\\x\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
            "\"raw\ttab\"",
            "nul",
            "truex",
            "{} {}",
            "{1: 2}",
            "\u{feff}{}",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(parse(b"\"\xff\"").is_err(), "invalid UTF-8 in a string");
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse_str(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::UInt(3)));
        assert_eq!(v.write(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn writer_sorts_keys_and_round_trips_byte_stably() {
        let v = object([
            ("zebra", Value::UInt(1)),
            (
                "aardvark",
                Value::Array(vec![Value::Int(-1), Value::Float(0.5)]),
            ),
            ("quote\"and\\slash", "line\nbreak\u{1}".to_json()),
            (
                "nested",
                object([("b", Value::Null), ("a", Value::Bool(true))]),
            ),
            ("whole", Value::Float(2.0)),
        ]);
        let once = v.write();
        assert!(once.find("aardvark").unwrap() < once.find("zebra").unwrap());
        assert!(once.contains("\"whole\":2.0"), "floats stay floats: {once}");
        let back = parse_str(&once).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.write(), once, "write → parse → write is byte-stable");
        // Pretty output parses back to the same value too.
        assert_eq!(parse_str(&v.write_pretty()).unwrap(), v);
        assert_eq!(
            object([("k", Value::Array(vec![Value::UInt(1)]))]).write_pretty(),
            "{\n  \"k\": [\n    1\n  ]\n}"
        );
    }

    /// Arbitrary bytes never panic the parser, and whatever it accepts
    /// survives a write → parse round trip unchanged.
    #[test]
    fn parser_never_panics_and_accepted_documents_round_trip() {
        check(512, |g| {
            let bytes = if g.bool() {
                g.bytes(0..200)
            } else {
                g.string("[]{}\":,\\ntruefalse0123456789.-eE u\t", 0..120)
                    .into_bytes()
            };
            if let Ok(value) = parse(&bytes) {
                let text = value.write();
                assert_eq!(parse_str(&text).unwrap().write(), text);
            }
        });
    }

    #[test]
    fn foreign_types_round_trip() {
        let ep = Endpoint::new(std::net::Ipv4Addr::new(20, 0, 0, 7), 8080);
        assert_eq!(ep.to_json().write(), "\"20.0.0.7:8080\"");
        assert_eq!(Endpoint::from_json(&ep.to_json()), Ok(ep));
        let cidr: Cidr = "20.0.0.0/16".parse().unwrap();
        assert_eq!(Cidr::from_json(&cidr.to_json()), Ok(cidr));
        for app in AppId::all() {
            assert_eq!(AppId::from_json(&app.to_json()), Ok(app));
            let version = nokeys_apps::release_history(app)[0];
            assert_eq!(Version::from_json(&version.to_json()), Ok(version));
        }
        assert_eq!(AppId::JupyterLab.to_json().write(), "\"JupyterLab\"");
        assert_eq!(
            Scheme::from_json(&Scheme::Https.to_json()),
            Ok(Scheme::Https)
        );
        let map: BTreeMap<u16, u64> = [(80, 1), (443, 2)].into_iter().collect();
        assert_eq!(map.to_json().write(), r#"{"443":2,"80":1}"#);
        assert_eq!(BTreeMap::<u16, u64>::from_json(&map.to_json()), Ok(map));
        assert!(u16::from_json(&Value::UInt(70_000)).is_err());
        assert!(Endpoint::from_json(&"nonsense".to_json()).is_err());
    }
}
