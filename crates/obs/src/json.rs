//! The workspace's one JSON module: a minimal hand-rolled writer for stats
//! objects and event lines, and the one reader, [`Json::parse`], which the
//! daemon uses for untrusted request lines and tests use to read emitted
//! text back — all without any external dependency.
//!
//! The reader handles objects, arrays, strings (with escapes, including
//! surrogate pairs), numbers, booleans and null, and is hardened for
//! untrusted input: a nesting-depth cap instead of unbounded recursion, and
//! every malformed byte is a `Result::Err` with an offset, never a panic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Incremental writer for a flat-or-nested JSON object.
///
/// Keys and string values are escaped; numbers are emitted verbatim. The
/// writer tracks comma placement so callers just push fields in order.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    /// Whether the object at each open nesting level already has a field.
    has_field: Vec<bool>,
}

impl JsonObject {
    /// Starts a fresh top-level object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            has_field: vec![false],
        }
    }

    fn key(&mut self, name: &str) {
        let depth = self.has_field.len() - 1;
        if self.has_field[depth] {
            self.buf.push(',');
        }
        self.has_field[depth] = true;
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
    }

    /// Adds an unsigned-integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field (`true`/`false` literals).
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a floating-point field (finite values only; non-finite values
    /// are emitted as `null`, which JSON requires).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a field whose value is pre-rendered JSON text, spliced in
    /// verbatim — the composition hook for nesting one emitter's output
    /// (e.g. a [`crate::Stats`] snapshot) inside another object. The caller
    /// is responsible for `raw` being well-formed; [`validate`] the final
    /// text in tests.
    pub fn field_raw(&mut self, name: &str, raw: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(raw);
        self
    }

    /// Adds a string field.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Opens a nested object field; close it with [`JsonObject::end_object`].
    pub fn begin_object(&mut self, name: &str) -> &mut Self {
        self.key(name);
        self.buf.push('{');
        self.has_field.push(false);
        self
    }

    /// Closes the innermost nested object.
    pub fn end_object(&mut self) -> &mut Self {
        assert!(self.has_field.len() > 1, "no nested object open");
        self.has_field.pop();
        self.buf.push('}');
        self
    }

    /// Closes the top-level object and returns the JSON text.
    pub fn finish(mut self) -> String {
        assert_eq!(self.has_field.len(), 1, "unclosed nested object");
        self.buf.push('}');
        self.buf
    }
}

/// Appends `s` to `buf` escaped for a JSON string literal (the quotes are
/// the caller's), for hand-built fragments like string arrays.
pub fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// Maximum nesting depth of arrays/objects the reader accepts. Deep enough
/// for any sane request or report; shallow enough that recursion cannot
/// blow the stack on `[[[[…`.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers above 2^53 lose precision; the protocol's
    /// budget fields saturate rather than reject).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is irrelevant to the protocol, so a sorted map
    /// keeps lookups simple.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON value spanning the whole input (surrounding
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other kinds or absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer
    /// (values beyond `u64::MAX` saturate).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(if *n >= u64::MAX as f64 {
                u64::MAX
            } else {
                *n as u64
            }),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.b.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:?} at {}", self.pos)),
            None => Err(format!("unexpected end of input at {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.b.get(self.pos) {
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
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
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
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow to form one scalar value.
                                if self.b.get(self.pos) == Some(&b'\\')
                                    && self.b.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err("unpaired surrogate escape".into());
                                    }
                                    let scalar = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(scalar)
                                } else {
                                    return Err("unpaired surrogate escape".into());
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err("invalid \\u escape".into()),
                            }
                            // hex4 advanced past the digits already.
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through verbatim (input was a
                    // &str, so it is valid UTF-8 already).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .b
                        .get(self.pos)
                        .is_some_and(|&c| c >= 0x80 && c & 0xc0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.b[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(format!("invalid UTF-8 at byte {start}")),
                    }
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .b
                .get(self.pos)
                .and_then(|&c| (c as char).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut digits = false;
        while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
            digits = true;
        }
        if !digits {
            return Err(format!("expected digits at byte {start}"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let from = self.pos;
            while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            if self.pos == from {
                return Err(format!("expected fraction digits at byte {start}"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let from = self.pos;
            while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            if self.pos == from {
                return Err(format!("expected exponent digits at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// Checks that `text` is one well-formed JSON value (with optional
/// surrounding whitespace). Returns `Err` describing the first violation,
/// with its byte offset where it has one.
pub fn validate(text: &str) -> Result<(), String> {
    Json::parse(text).map(|_| ())
}

/// The unsigned-integer value at the dotted `path` (e.g.
/// `"allsat.solutions"`) of the JSON object `text`. Returns `None` if the
/// text does not parse, the path is absent, or the value is not a
/// non-negative integer. Numbers are read as `f64`, so integers above
/// 2^53 lose precision.
pub fn extract_u64(text: &str, path: &str) -> Option<u64> {
    let root = Json::parse(text).ok()?;
    path.split('.')
        .try_fold(&root, |value, key| value.get(key))?
        .as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_json() {
        let mut o = JsonObject::new();
        o.field_str("engine", "sat-\"quoted\"\n")
            .field_u64("decisions", 42)
            .begin_object("nested")
            .field_u64("x", 1)
            .field_f64("ratio", 0.5)
            .end_object()
            .field_f64("nan", f64::NAN)
            .field_bool("complete", false)
            .field_bool("ok", true);
        let text = o.finish();
        validate(&text).unwrap();
        assert!(text.contains("\"decisions\":42"));
        assert!(text.contains("\"nested\":{\"x\":1"));
        assert!(text.contains("\"nan\":null"));
        assert!(text.contains("\"complete\":false"));
        assert!(text.contains("\"ok\":true"));
    }

    #[test]
    fn field_raw_splices_verbatim() {
        let mut inner = JsonObject::new();
        inner.field_u64("x", 7);
        let inner = inner.finish();
        let mut o = JsonObject::new();
        o.field_str("name", "n").field_raw("nested", &inner);
        let text = o.finish();
        validate(&text).unwrap();
        assert_eq!(text, "{\"name\":\"n\",\"nested\":{\"x\":7}}");
    }

    #[test]
    fn empty_object_is_valid() {
        let text = JsonObject::new().finish();
        assert_eq!(text, "{}");
        validate(&text).unwrap();
    }

    #[test]
    fn accepts_standard_values() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "[1, {\"a\": [null, \"x\\u00e9\"]}]",
            "  {\"k\": \"v\"}  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(
            r#" {"op":"allsat","project":3,"ok":true,"x":null,"a":[1,2.5,-3e2],"s":"hi\n"} "#,
        )
        .expect("valid JSON");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("allsat"));
        assert_eq!(v.get("project").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        match v.get("a") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi\n"));
    }

    #[test]
    fn rejects_malformed_inputs_without_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "01abc",
            "tru",
            "1.",
            "1e",
            "{\"a\" 1}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "{} extra",
            "{\"a\":1} extra",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn depth_cap_rejects_bombs() {
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).expect_err("must reject");
        assert!(err.contains("nesting"), "{err}");
        // The validator is the same reader, so it rejects the bomb too
        // instead of recursing until the stack overflows.
        assert!(validate(&bomb).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""\ud83d\ude00""#).expect("valid pair");
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn u64_accessor_wants_nonnegative_integers() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(1e30).as_u64(), Some(u64::MAX));
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\none \"two\" \\ three\ttab\u{1}";
        let mut quoted = String::from("\"");
        escape_into(&mut quoted, original);
        quoted.push('"');
        assert_eq!(
            Json::parse(&quoted).expect("valid").as_str(),
            Some(original)
        );
    }

    #[test]
    fn extract_u64_follows_dotted_paths() {
        let text = "{\"sat\":{\"decisions\":17},\"solutions\":4,\"preimage\":{\"solutions\":9}}";
        assert_eq!(extract_u64(text, "sat.decisions"), Some(17));
        assert_eq!(extract_u64(text, "solutions"), Some(4));
        assert_eq!(extract_u64(text, "preimage.solutions"), Some(9));
        assert_eq!(extract_u64(text, "decisions"), None, "no top-level key");
        assert_eq!(extract_u64(text, "missing"), None);
        assert_eq!(extract_u64(text, "sat"), None, "an object is no integer");
        assert_eq!(extract_u64("{\"a\":", "a"), None, "malformed text");
    }

    #[test]
    fn extract_u64_rejects_fractions() {
        assert_eq!(extract_u64("{\"ratio\":1.5}", "ratio"), None);
        assert_eq!(extract_u64("{\"n\":-3}", "n"), None);
    }
}
