//! The workspace's one JSON codec: value type, strict parser, renderer and
//! string escaping.
//!
//! The workspace is dependency-free, so every JSON writer (the telemetry
//! exporters, the verify and repro reports, the service protocol) and
//! every reader (the JSONL protocol, the trace and access-log tools, the
//! tests that check exporter output) goes through this module. It is
//! deliberately strict and small:
//!
//! * full escape handling (`\uXXXX` incl. surrogate pairs) on input;
//! * numbers follow RFC 8259's grammar exactly (no `01`, `1.`, `-.5`,
//!   `1.e5`) and round-trip through `f64` — protocol fields are small
//!   integers (ids, budgets, clone levels), far inside the 2^53 exact
//!   range;
//! * a hard nesting-depth limit ([`MAX_DEPTH`]) so a hostile request like
//!   `[[[[…]]]]` cannot overflow the parser stack;
//! * objects preserve key order (stored as a `Vec`), which is what makes
//!   the hand-rendered responses byte-deterministic and testable.
//!
//! Parse errors carry a byte offset so the server can answer a structured
//! error instead of dropping the connection.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts. Protocol requests are flat
/// (depth 2–3); 64 leaves headroom without risking parser-stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their textual key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first occurrence wins, as in most decoders).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Render this value as compact JSON (no whitespace). Key order of
    /// objects is preserved, so rendering is deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
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
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Append `s` JSON-escaped onto `out` without an intermediate allocation;
/// the common all-clean case is a single `push_str`.
pub fn escape_into(s: &str, out: &mut String) {
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
        return;
    }
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
}

/// Parse one JSON document; trailing content (other than whitespace) is an
/// error. Errors carry the byte offset where parsing failed.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

/// A parse failure: message plus byte offset into the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
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
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of plain characters up to the next `"`,
                    // `\` or control byte. Those delimiters are ASCII, so
                    // they always fall on char boundaries.
                    let rest = &self.src[self.pos..];
                    let len = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..len]);
                    self.pos += len;
                }
            }
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
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
        let n: f64 = self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_object() {
        let j = parse(r#"{"id": 3, "kind": "ping", "deep": [1, 2.5, true, null]}"#).unwrap();
        assert_eq!(j.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("kind").unwrap().as_str(), Some("ping"));
        assert_eq!(j.get("deep").unwrap().as_array().unwrap().len(), 4);
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\"\nA","c":true,"d":null,"e":{}}"#).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(v.get("e"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn object_key_order_preserved_by_render() {
        let j = parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(j.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn escapes_round_trip() {
        let j = parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\ndAé😀"));
        let rendered = Json::Str("x\n\"\\\u{1}".into()).render();
        assert_eq!(rendered, "\"x\\n\\\"\\\\\\u0001\"");
        assert_eq!(parse(&rendered).unwrap().as_str(), Some("x\n\"\\\u{1}"));
        assert_eq!(escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn depth_limit_is_enforced_without_overflow() {
        let deep = "[".repeat(MAX_DEPTH + 10) + &"]".repeat(MAX_DEPTH + 10);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // And a monster that would overflow a recursive parser outright.
        let monster = "[".repeat(200_000);
        assert!(parse(&monster).is_err());
    }

    #[test]
    fn rejects_malformed_inputs_with_offsets() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "1e999",
            "\"\\ud800\"",
            "nullx",
            "{\"a\":1,}",
            "[1 2]",
            "01",
            "1.",
            "-.5",
            "1.e5",
            "-",
            "1e",
            "{\"id\":01,\"kind\":\"ping\"}",
            "{\"id\":1.,\"kind\":\"ping\"}",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.offset <= bad.len(), "{bad}: {e}");
        }
    }

    #[test]
    fn numbers_parse_exactly_in_protocol_range() {
        for (good, n) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-3e2", -300.0),
            ("1E+2", 100.0),
            ("2e-1", 0.2),
        ] {
            assert_eq!(parse(good), Ok(Json::Num(n)), "{good}");
        }
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None); // > 2^53
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
