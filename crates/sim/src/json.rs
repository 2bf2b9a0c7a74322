//! Minimal JSON tree, writer and recursive-descent parser.
//!
//! The workspace runs in fully offline environments (no crates.io
//! registry), so machine-readable stats export cannot lean on `serde`.
//! This module is the replacement: a tiny owned JSON value with exact
//! round-tripping for the numbers the simulator produces (u64 counters
//! below 2^53 and finite f64 metrics), used by the stats exporter in
//! `gtr-core` and the schema validator in `gtr-bench`.
//!
//! Only the JSON subset the workspace emits is guaranteed to
//! round-trip; exotic inputs (huge exponents, unpaired surrogate `\u`
//! escapes) parse on a best-effort basis. Parsing is linear in the
//! input length.
//!
//! # Example
//!
//! ```
//! use gtr_sim::json::Json;
//!
//! let j = Json::Obj(vec![
//!     ("cycles".into(), Json::from(1234u64)),
//!     ("app".into(), Json::from("GUPS")),
//! ]);
//! let text = j.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(1234));
//! assert_eq!(back.get("app").and_then(Json::as_str), Some("GUPS"));
//! ```

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`: integral counters are exact
    /// up to 2^53, far beyond anything the simulator counts.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list (insertion order is
    /// preserved so emitted files diff cleanly).
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl Json {
    /// Looks up a key in an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (must be a non-negative whole
    /// number).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object fields, if the value is an object.
    pub fn fields(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(f) => Some(f),
            _ => None,
        }
    }

    /// Parses a JSON document. Trailing garbage after the top-level
    /// value is an error; leading/inter-token whitespace is fine.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes compactly (no whitespace) into `out`. Reusing one
    /// `String` across calls keeps per-record emission allocation-free
    /// once the buffer has grown (the JSONL trace sink relies on this).
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes with two-space indentation (committed artifacts are
    /// meant to be read and diffed by humans).
    pub fn write_pretty(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=indent {
                        out.push_str(PAD);
                    }
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                for _ in 0..indent {
                    out.push_str(PAD);
                }
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=indent {
                        out.push_str(PAD);
                    }
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                for _ in 0..indent {
                    out.push_str(PAD);
                }
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        f.write_str(&out)
    }
}

fn write_num(n: f64, out: &mut String) {
    use std::fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 prints the shortest string that parses back to
        // the same bits — exact round-trips for free.
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    use std::fmt::Write;
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run of unescaped bytes up to the next quote or
        // backslash in one step. Both are ASCII, so a run never splits
        // a multi-byte sequence, and each byte is validated once:
        // parsing stays linear in the input.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |n| *pos + n);
        out.push_str(
            std::str::from_utf8(&bytes[*pos..run]).map_err(|_| "invalid UTF-8 in string")?,
        );
        *pos = run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate followed by an escaped low
                        // surrogate encodes one non-BMP scalar.
                        if (0xD800..0xDC00).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            if let Ok(low @ 0xDC00..=0xDFFF) = parse_hex4(bytes, *pos + 3) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    hex.iter()
        .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
        .ok_or_else(|| "bad \\u escape".into())
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-5", "123456789", "1.5"] {
            let v = Json::parse(text).unwrap();
            let mut out = String::new();
            v.write_compact(&mut out);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn float_round_trips_exactly() {
        let x = 0.123456789012345_f64;
        let v = Json::Num(x);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_f64(), Some(x));
    }

    #[test]
    fn nested_structure_round_trips() {
        let j = Json::Obj(vec![
            ("app".into(), Json::from("GUPS \"quoted\"\n")),
            ("cycles".into(), Json::from(3_977_625u64)),
            (
                "epochs".into(),
                Json::Arr(vec![Json::Obj(vec![("cycle".into(), Json::from(100u64))])]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
        ]);
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        let mut compact = String::new();
        j.write_compact(&mut compact);
        assert_eq!(Json::parse(&compact).unwrap(), j);
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"a": 1, "b": "x", "c": [1,2], "d": true}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("c").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(j.get("d").and_then(Json::as_bool), Some(true));
        assert!(j.get("missing").is_none());
        assert!(Json::Num(1.5).as_u64().is_none(), "fractional is not u64");
        assert!(Json::Num(-1.0).as_u64().is_none(), "negative is not u64");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for text in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", "{\"a\":}"] {
            assert!(Json::parse(text).is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn megabyte_string_parses() {
        // Parsing must be linear: re-validating the rest of the input
        // for every character would take minutes on this string.
        let long = "ab\u{e9}\u{1F600}".repeat(150_000);
        assert!(long.len() >= 1 << 20);
        let j = Json::Obj(vec![("s".into(), Json::Str(long.clone()))]);
        let mut text = String::new();
        j.write_compact(&mut text);
        assert_eq!(Json::parse(&text).unwrap().get("s").and_then(Json::as_str), Some(&*long));
    }

    #[test]
    fn every_escape_and_multibyte_scalar_round_trips() {
        // Every control character (escaped as `\uXXXX` or a short
        // escape by the writer), quote and backslash, and 2-, 3- and
        // 4-byte UTF-8 scalars written raw.
        let mut s: String = (0u32..0x20).filter_map(char::from_u32).collect();
        s.push_str("\"\\/ plain é ≈ 😀 \u{7f} end");
        let j = Json::Str(s.clone());
        let mut text = String::new();
        j.write_compact(&mut text);
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);

        // Escapes the writer never emits still decode.
        let parsed = Json::parse(r#""\b\f\/\u00e9\u00E9\u2248\ud83d\ude00\"\\""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{8}\u{c}/éé≈😀\"\\"));
        // A lone surrogate becomes the replacement character.
        assert_eq!(Json::parse(r#""\ud83dx""#).unwrap().as_str(), Some("\u{fffd}x"));
        for bad in [r#""\u12""#, r#""\u+123""#, r#""\u12g4""#, r#""\q""#, r#""abc\""#] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_and_escapes() {
        let j = Json::parse(r#""café \t\\""#).unwrap();
        assert_eq!(j.as_str(), Some("café \t\\"));
        let s = Json::Str("π ≈ 3".into());
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
    }
}
