//! A tiny hand-rolled JSON codec for experiment results.
//!
//! The workspace builds with zero external dependencies (no `serde`); this
//! module implements the serialization the stack needs: a [`Json`] value
//! tree with a deterministic renderer (insertion-ordered object keys,
//! RFC 8259 string escaping, shortest-roundtrip numbers), which writes the
//! trace journal, the JSONL export of observation journals, the delta feed
//! and the `BENCH_*.json` reports.
//!
//! No product path reads JSON back: observation journals are read from
//! their binary encoding only. The strict recursive-descent [`Json::parse`]
//! and the [`get`](Json::get), [`as_u64`](Json::as_u64) and
//! [`as_str`](Json::as_str) accessors remain for the benchmark package's
//! tests, which read its result lines and `BENCHMARK.json` with them.
//! Parsing time is linear in the input's length, strings included, and
//! nesting is capped, so even hostile input cannot exhaust the stack.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`; JSON has none).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for an array of strings.
    pub fn strings(items: impl IntoIterator<Item = impl Into<String>>) -> Json {
        Json::Arr(items.into_iter().map(|s| Json::Str(s.into())).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document. Strict: exactly one value, nothing but
    /// whitespace around it, no trailing commas, RFC 8259 escapes only.
    ///
    /// Everything [`render`](Json::render) emits parses back to an equal
    /// value (non-finite numbers render as `null`, so they round-trip to
    /// `Json::Null`), unless it nests arrays and objects more than 128
    /// levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a `u64`, when it is one exactly (integral, in range).
    ///
    /// Numbers pass through `f64`, so integers stay exact up to 2⁵³.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string behind `Json::Str`, if that's what this is.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` prints the shortest string that round-trips.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

/// Parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// The parser recurses once per level, so without a cap one line of a
/// million `[` overflows the stack. The documents it reads nest a few
/// levels; the cap leaves ample room above them.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if c == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
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
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
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
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the paired escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            s.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte at once. Those delimiters are ASCII, so
                    // they never fall inside a UTF-8 sequence and both ends
                    // of the run are char boundaries of `text`.
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    s.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // RFC 8259: no leading zeros in the integer part.
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Str("hi".into()).render(), "\"hi\"");
    }

    #[test]
    fn escaping_is_rfc8259() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn nested_structures_render_in_order() {
        let v = Json::obj([
            ("title", "demo".into()),
            ("rows", Json::Arr(vec![Json::strings(["1", "2"]), Json::strings(["3", "4"])])),
            ("n", Json::from(2u64)),
        ]);
        assert_eq!(
            v.render(),
            "{\"title\":\"demo\",\"rows\":[[\"1\",\"2\"],[\"3\",\"4\"]],\"n\":2}"
        );
    }

    #[test]
    fn parse_roundtrips_render() {
        let v = Json::obj([
            ("title", "dem\"o\n".into()),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::Num(0.1), Json::Num(-3.0), Json::Num(1e21)])),
            ("nested", Json::obj([("k", Json::from(42u64))])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , \"\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        let Some(Json::Arr(items)) = v.get("a") else {
            panic!("{v:?}")
        };
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_str(), Some("é😀"));
    }

    /// String parsing stays linear in the string's length, so a long
    /// hostile string cannot stall a reader.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let chunk = "plain ascii, é ü 日本語 😀, \"quoted\", back\\slash, \n\t\u{1} ";
        let mut text = String::new();
        while text.len() < 1 << 20 {
            text.push_str(chunk);
        }
        let doc = Json::obj([("tagged", Json::Str(text.clone()))]).render();
        let t0 = std::time::Instant::now();
        let back = Json::parse(&doc).expect("rendered JSON parses");
        let took = t0.elapsed();
        assert_eq!(back.get("tagged").and_then(Json::as_str), Some(text.as_str()));
        assert!(
            took < std::time::Duration::from_secs(2),
            "parsing a {} KiB string took {took:?}",
            doc.len() >> 10
        );
    }

    /// A line of nested brackets past `MAX_DEPTH` is an error, not a stack
    /// overflow.
    #[test]
    fn deep_nesting_is_an_error() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"\\x\"", "01", "--1",
            "{\"a\" 1}", "\"unterminated", "[1 2]", "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_pick_the_right_variant() {
        let v = Json::obj([("n", Json::Num(7.0)), ("s", "x".into())]);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn numbers_roundtrip_shortest() {
        assert_eq!(Json::Num(0.1).render(), "0.1");
        // Rust's `{}` prints large magnitudes in plain decimal (no exponent
        // form); what matters is that the text parses back to the same value.
        assert_eq!(
            Json::Num(1e21).render().parse::<f64>().unwrap(),
            1e21
        );
    }
}
