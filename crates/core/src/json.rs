//! A minimal, dependency-free JSON value type with a serializer and a
//! recursive-descent parser.
//!
//! The workspace builds offline with no external crates, so `serde` is
//! not an option; this module provides just enough JSON to round-trip
//! [`crate::Scenario`](crate::engine::Scenario) descriptions and to emit
//! machine-readable evaluation results. Numbers are kept as their literal
//! text so `u64` seeds survive the round trip without `f64` precision
//! loss.
//!
//! # Examples
//!
//! ```
//! use procrustes_core::json::Json;
//!
//! let v = Json::parse(r#"{"name": "VGG-S", "batch": 16, "ok": true}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("VGG-S"));
//! assert_eq!(v.get("batch").and_then(Json::as_u64), Some(16));
//! let text = v.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// A JSON value. Object keys keep insertion order (serialization is
/// deterministic); numbers keep their source text.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal text (e.g. `"16"`, `"0.45"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps a `u64` losslessly.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Wraps a `usize` losslessly.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// Wraps an `f64` with a round-trippable shortest representation.
    ///
    /// JSON cannot express NaN or infinities; non-finite values
    /// serialize as the documented sentinel [`Json::Null`] (the same
    /// convention as JavaScript's `JSON.stringify`), so a NaN leaking
    /// out of a cost model degrades a single field instead of panicking
    /// deep inside report serialization. Loaders see the missing number
    /// as an ordinary parse error (`as_f64` on `null` is `None`).
    pub fn f64(v: f64) -> Json {
        Json::try_f64(v).unwrap_or(Json::Null)
    }

    /// Wraps a finite `f64`, or reports why it cannot be represented.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending value when `v` is NaN or
    /// infinite.
    fn try_f64(v: f64) -> Result<Json, String> {
        if !v.is_finite() {
            return Err(format!("JSON cannot express {v}"));
        }
        // `{:?}` prints the shortest string that parses back to the same
        // f64 (and always includes a decimal point or exponent).
        Ok(Json::Num(format!("{v:?}")))
    }

    /// Wraps a string.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses the number as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Parses the number as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Parses the number as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Parses the number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Deepest container nesting [`Json::parse`] accepts. The parser is
    /// recursive-descent, so untrusted input must be depth-bounded or a
    /// line of repeated `[` overflows the thread stack and aborts the
    /// whole process (legitimate scenario/sweep documents nest < 10
    /// levels; 128 leaves an order-of-magnitude margin).
    pub const MAX_PARSE_DEPTH: usize = 128;

    /// Parses a JSON document.
    ///
    /// Supports the standard grammar (objects, arrays, strings with
    /// escapes, numbers, booleans, null); rejects trailing garbage.
    /// Safe on untrusted input: every failure — including container
    /// nesting beyond [`Json::MAX_PARSE_DEPTH`], which would otherwise
    /// overflow the stack — is an `Err`, never a panic or abort.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(s) => f.write_str(s),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Runs a container parse one nesting level down, erroring out (not
    /// recursing toward a stack overflow) past [`Json::MAX_PARSE_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= Json::MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {} levels at byte {}",
                Json::MAX_PARSE_DEPTH,
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let mut code = self.hex4()?;
                            // RFC 8259: non-BMP characters arrive as a
                            // UTF-16 surrogate pair of \u escapes.
                            if (0xD800..=0xDBFF).contains(&code) {
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err("unpaired high surrogate".into());
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8")?,
                    );
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor on the `u`),
    /// leaving the cursor on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
            .map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Validate by parsing; keep the literal text.
        text.parse::<f64>()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        Ok(Json::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let src = r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":[true,false]},"e":"x\"y\n"}"#;
        let v = Json::parse(src).unwrap();
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_seeds_survive() {
        let seed = u64::MAX - 7;
        let v = Json::u64(seed);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(seed));
    }

    #[test]
    fn f64_shortest_roundtrip() {
        for x in [0.1f64, 5.2, 1.0 / 3.0, 1e-12, 123456.789] {
            let v = Json::f64(x);
            assert_eq!(Json::parse(&v.to_string()).unwrap().as_f64(), Some(x));
            assert_eq!(Json::try_f64(x).unwrap(), v);
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null_not_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::f64(bad), Json::Null);
            assert!(Json::try_f64(bad).is_err(), "{bad}");
        }
        // A document holding the sentinel still parses; the number is
        // simply absent, which loaders surface as an ordinary error.
        let doc = Json::Obj(vec![("energy_j".into(), Json::f64(f64::NAN))]);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back.get("energy_j"), Some(&Json::Null));
        assert_eq!(back.get("energy_j").and_then(Json::as_f64), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing_the_stack() {
        // A line of repeated '[' must be a parse error, not a recursion
        // until the thread stack overflows and the process aborts.
        let bomb = "[".repeat(200_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = "{\"k\":".repeat(200_000);
        assert!(Json::parse(&objects).is_err());
        // Depth at the limit still parses; one past it does not.
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(Json::MAX_PARSE_DEPTH)).is_ok());
        assert!(Json::parse(&deep(Json::MAX_PARSE_DEPTH + 1)).is_err());
    }

    #[test]
    fn object_lookup_and_order() {
        let v = Json::Obj(vec![("z".into(), Json::u64(1)), ("a".into(), Json::u64(2))]);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse(r#""µJ — ok""#).unwrap();
        assert_eq!(v.as_str(), Some("µJ — ok"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn surrogate_pair_escapes() {
        // RFC 8259 non-BMP escape (what e.g. Python's ensure_ascii emits).
        let v = Json::parse(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} ok"));
        // Lone BMP escapes still work.
        assert_eq!(Json::parse(r#""\u00b5J""#).unwrap().as_str(), Some("µJ"));
        assert!(Json::parse(r#""\ud83d""#).is_err()); // unpaired high
        assert!(Json::parse(r#""\ud83dA""#).is_err()); // bad low
        assert!(Json::parse(r#""\ude00""#).is_err()); // lone low
    }
}
