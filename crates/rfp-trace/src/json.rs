//! The workspace's one JSON codec: a value model, a parser, a string
//! escaper and a number formatter. Every reader and writer in the tree goes
//! through it — problems, floorplans, scenarios, sim and sweep reports,
//! sweep grids, the serve protocol, the bench artefacts and this crate's
//! own trace documents. It lives here because `rfp-trace` has no
//! dependencies, so every other crate can use it
//! (`rfp_floorplan::jsonio` re-exports it).
//!
//! Three rules hold for every document:
//!
//! * **Bounded depth.** Arrays and objects nested deeper than
//!   [`MAX_DEPTH`] are rejected with an error, so a hostile line cannot
//!   overflow the parser's stack and take a whole service down.
//! * **Exact integers.** An unsigned integer lexeme (digits only) parses
//!   to [`JsonValue::Int`], an exact `u64`; [`JsonValue::as_u64`] never
//!   rounds through `f64`. A float lexeme such as `5.0` is accepted as an
//!   integer only while it is exact, i.e. integral and at most 2^53 − 1.
//!   An integer too large for `u64` parses as a float, which `as_u64`
//!   then rejects rather than saturates.
//! * **Positioned errors.** Every syntax error names its line, column and
//!   byte offset.
//!
//! The writers ([`escape`], [`num`]) are deterministic, so documents built
//! with them are byte-stable and usable as golden files.

use std::fmt;

/// How deeply arrays and objects may nest. The deepest document the tree
/// writes (a trace's span tree) stays far below it.
pub const MAX_DEPTH: usize = 128;

/// The largest integer a float lexeme may stand for: every integer up to
/// it is exact in `f64`.
const MAX_EXACT_FLOAT: f64 = 9_007_199_254_740_991.0;

/// A parsed JSON value (object keys keep their document order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer lexeme that fits `u64`, held exactly.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

/// Error raised by the parser or by a document reader.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl JsonValue {
    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    pub fn field(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key).ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match *self {
            JsonValue::Int(v) => Ok(v as f64),
            JsonValue::Num(v) => Ok(v),
            _ => err(format!("expected a number, found {self:?}")),
        }
    }

    /// The value as a non-negative integer, exactly.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match *self {
            JsonValue::Int(v) => Ok(v),
            JsonValue::Num(v) if (0.0..=MAX_EXACT_FLOAT).contains(&v) && v.fract() == 0.0 => {
                Ok(v as u64)
            }
            JsonValue::Num(v) => err(format!("expected a non-negative integer, found {v}")),
            _ => err(format!("expected a number, found {self:?}")),
        }
    }

    /// The value as a `u32`.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        let v = self.as_u64()?;
        u32::try_from(v).map_err(|_| JsonError(format!("integer {v} overflows u32")))
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(v) => Ok(*v),
            _ => err(format!("expected a boolean, found {self:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            _ => err(format!("expected a string, found {self:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            _ => err(format!("expected an array, found {self:?}")),
        }
    }

    /// The value as an object's fields, in document order.
    pub fn as_obj(&self) -> Result<&[(String, JsonValue)], JsonError> {
        match self {
            JsonValue::Obj(fields) => Ok(fields),
            _ => err(format!("expected an object, found {self:?}")),
        }
    }
}

/// Parses a JSON document.
///
/// The document must be exactly one JSON value: anything but whitespace
/// after it — a second value, a stray brace, shell output appended to a
/// report file — is rejected with a positioned error, so a corrupted
/// golden file never half-parses.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing characters after the document");
    }
    Ok(v)
}

/// Escapes a string for inclusion in a JSON document (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Deterministic shortest-form number formatting; non-finite values
/// (which JSON cannot represent) render as `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A syntax error at the current position.
    fn fail<T>(&self, what: impl fmt::Display) -> Result<T, JsonError> {
        self.fail_at(self.pos, what)
    }

    /// A syntax error at byte `pos`, rendered as `line L, column C
    /// (byte N)` (1-based, counting bytes within the line).
    fn fail_at<T>(&self, pos: usize, what: impl fmt::Display) -> Result<T, JsonError> {
        let before = &self.bytes[..pos];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + pos - before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        err(format!("{what} at line {line}, column {column} (byte {pos})"))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(format_args!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().expect("not at the end");
                self.fail(format_args!("unexpected `{c}`"))
            }
            None => self.fail("unexpected end of input"),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return self.fail(format_args!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.fail("invalid literal")
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|c| c.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            _ => self.fail_at(start, format_args!("invalid number `{text}`")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one go; all three are ASCII, so
            // the run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        None => return self.fail("unterminated escape"),
                        Some(_) => return self.fail("unknown escape"),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return self.fail("unescaped control character in a string"),
            }
        }
    }

    /// The character of a `\uXXXX` escape, with `pos` on the `u`; leaves
    /// `pos` on the last hex digit. Surrogates are not needed by any
    /// format here and are rejected.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let Some(hex) = self.bytes.get(self.pos + 1..self.pos + 5) else {
            return self.fail("truncated \\u escape");
        };
        let mut code = 0u32;
        for &h in hex {
            match (h as char).to_digit(16) {
                Some(d) => code = code * 16 + d,
                None => return self.fail("bad \\u escape"),
            }
        }
        match char::from_u32(code) {
            Some(c) => {
                self.pos += 4;
                Ok(c)
            }
            None => self.fail(format_args!("non-scalar \\u escape {code:04x}")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceDoc;

    #[test]
    fn rejects_foreign_documents() {
        assert!(TraceDoc::from_json("{}").is_err());
        let future = r#"{"format": "rfp-trace", "version": 2, "tracks": []}"#;
        assert!(TraceDoc::from_json(future).is_err());
        let other = r#"{"format": "other", "version": 1, "tracks": []}"#;
        assert!(TraceDoc::from_json(other).is_err());
        let err = TraceDoc::from_json("{\"format\": \"rfp-trace\"").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
        let extra = r#"{"format": "rfp-trace", "version": 1, "tracks": [], "x": 0}"#;
        assert!(TraceDoc::from_json(extra).unwrap_err().0.contains("unknown document field `x`"));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let text = r#"{"format": "rfp-trace", "version": 1, "tracks": [
            {"name": "mäin \"x\"\\", "spans": [], "counters": {"a": 7}, "histograms": {}}
        ]}"#;
        let doc = TraceDoc::from_json(text).expect("parses");
        assert_eq!(doc.tracks[0].name, "mäin \"x\"\\");
        assert_eq!(doc.tracks[0].counters, vec![("a".to_string(), 7)]);
        let v = parse(r#""\u00e9\/\b\f""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é/\u{8}\u{c}");
    }

    #[test]
    fn escaper_and_parser_agree_on_awkward_strings() {
        for value in ["plain", "with \"quotes\"", "tab\there", "null\u{0}byte", "emoji 🦀", ""] {
            let doc = format!("\"{}\"", escape(value));
            assert_eq!(parse(&doc).expect("parses").as_str().unwrap(), value);
        }
    }

    #[test]
    fn integers_are_exact_and_floats_only_while_exact() {
        for v in [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(parse(&v.to_string()).unwrap(), JsonValue::Int(v));
            assert_eq!(parse(&v.to_string()).unwrap().as_u64().unwrap(), v);
        }
        // One past u64::MAX is a float, and not an integer.
        let big = parse("18446744073709551616").unwrap();
        assert_eq!(big.as_f64().unwrap(), 18446744073709551616.0);
        assert!(big.as_u64().is_err());
        assert_eq!(parse("5.0").unwrap().as_u64().unwrap(), 5);
        assert_eq!(parse("1e3").unwrap().as_u64().unwrap(), 1000);
        assert!(parse("9007199254740993.0").unwrap().as_u64().is_err());
        assert!(parse("-1").unwrap().as_u64().is_err());
        assert!(parse("1.5").unwrap().as_u64().is_err());
        // Integers still read as the same floats the lexeme denotes.
        assert_eq!(parse("9007199254740993").unwrap().as_f64().unwrap(), 9007199254740992.0);
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = parse(&deep).unwrap_err();
        assert!(e.0.contains("nesting deeper than 128 levels"), "{e}");
        assert!(e.0.contains(&format!("(byte {MAX_DEPTH})")), "{e}");
        // Far past the cap, mixed objects and arrays, unterminated: still
        // an error, never a stack overflow.
        assert!(parse(&"{\"a\":[".repeat(200_000)).is_err());
    }

    #[test]
    fn every_syntax_error_names_its_position() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "42 43",
            "\"open",
            "\"esc\\",
            "\"\\u12",
            "\"\\u12g4\"",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"tab\there\"",
            "nulL",
            "-",
            "1e999",
            "{\"a\" 1}",
            "[1 2]",
            "@",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.0.contains("(byte "), "`{bad}`: {e}");
        }
        let e = parse("{\n  \"a\": 1\n}\n}").unwrap_err();
        assert!(e.0.contains("line 4, column 1 (byte 13)"), "{e}");
    }
}
