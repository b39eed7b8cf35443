//! A minimal hand-rolled JSON value, parser and writer.
//!
//! The workspace takes no external dependencies, so this crate carries
//! its own JSON layer (shared downstream by the serve protocol, the
//! trace sink and the metrics snapshot), in the same spirit as
//! `isa-netlint`'s report emitter. Two properties matter more than
//! generality:
//!
//! * **deterministic rendering** — objects keep insertion order, numbers
//!   render through Rust's shortest-round-trip `f64` formatting (or as
//!   plain integers when they are integers), so the same value always
//!   produces the same bytes. The on-disk result store and the
//!   byte-identity guarantee of the service both lean on this.
//! * **strict parsing** — trailing garbage, unterminated strings, bad
//!   escapes and malformed numbers are errors, never best-effort values;
//!   a corrupt request should fail loudly at the protocol boundary.
//! * **bounded nesting** — arrays and objects nest at most [`MAX_DEPTH`]
//!   deep. The parser recurses once per level, so a hostile line of
//!   opening brackets is an error instead of a stack overflow, and no
//!   parsed value is deep enough for its recursive drop to overflow
//!   either.
//!
//! JSON has no encoding for infinities; callers encode `±inf` quality
//! figures as the strings `"inf"` / `"-inf"` (see
//! [`Json::from_db`](Json::from_db)).

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like browsers do).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (rendering is order-preserving).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Encodes a dB figure, mapping `±inf` to the strings `"inf"` /
    /// `"-inf"` (JSON has no infinity literal) and everything else to a
    /// number. NaN never arises from the quality metrics; it is mapped to
    /// `null` defensively.
    #[must_use]
    pub fn from_db(db: f64) -> Json {
        if db == f64::INFINITY {
            Json::Str("inf".to_owned())
        } else if db == f64::NEG_INFINITY {
            Json::Str("-inf".to_owned())
        } else if db.is_nan() {
            Json::Null
        } else {
            Json::Num(db)
        }
    }

    /// Decodes a dB figure encoded by [`Json::from_db`].
    #[must_use]
    pub fn to_db(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Str(s) if s == "inf" => Some(f64::INFINITY),
            Json::Str(s) if s == "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace), appending to
    /// `out`. Deterministic: object order is insertion order, numbers use
    /// shortest-round-trip formatting.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the value as a compact JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Parses one JSON value from the whole input (trailing non-whitespace
    /// is an error).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message pointing at the first offending
    /// byte offset, including the first bracket that nests deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Renders an `f64`, as an integer when it is one (so counts do not grow
/// a `.0` suffix and `u64`s round-trip up to 2^53).
fn render_num(n: f64, out: &mut String) {
    assert!(n.is_finite(), "non-finite numbers must use Json::from_db");
    #[allow(clippy::cast_possible_truncation)]
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends the JSON string literal for `s` (quotes included).
pub fn escape_into(s: &str, out: &mut String) {
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

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", char::from(b)))
    }
}

/// Parses one value whose enclosing containers are `depth` deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    let n: f64 = text
        .parse()
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
    if n.is_finite() {
        Ok(Json::Num(n))
    } else {
        Err(format!("non-finite number {text:?} at byte {start}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                        // Surrogate pairs are not needed by this protocol;
                        // lone surrogates map to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always on a boundary).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                if (c as u32) < 0x20 {
                    return Err(format!("raw control character at byte {pos}"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_value() {
        let text = r#"{"op":"quality","cpr":0.1,"ids":[1,2,3],"deep":{"b":true,"n":null,"s":"a\"b\\c\nd"}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(v.get("op").and_then(Json::as_str), Some("quality"));
        assert_eq!(v.get("cpr").and_then(Json::as_f64), Some(0.1));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(10000.0).render(), "10000");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn db_encoding_handles_infinities() {
        assert_eq!(Json::from_db(f64::INFINITY).render(), "\"inf\"");
        assert_eq!(Json::from_db(f64::NEG_INFINITY).render(), "\"-inf\"");
        assert_eq!(Json::from_db(42.5).to_db(), Some(42.5));
        assert_eq!(Json::parse("\"inf\"").unwrap().to_db(), Some(f64::INFINITY));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "01x",
            "{\"a\":1} trailing",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn control_characters_escape_and_parse() {
        let v = Json::Str("a\u{1}b".to_owned());
        assert_eq!(v.render(), "\"a\\u0001b\"");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Objects count toward the same cap.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        let mixed = format!(
            "{}{}",
            "{\"a\":[".repeat(MAX_DEPTH / 2),
            "]}".repeat(MAX_DEPTH / 2)
        );
        assert!(Json::parse(&mixed).is_ok());
    }

    #[test]
    fn a_bracket_bomb_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(200_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::Obj(vec![
            ("z".to_owned(), Json::Num(1.0)),
            ("a".to_owned(), Json::Num(2.0)),
        ]);
        assert_eq!(v.render(), "{\"z\":1,\"a\":2}");
    }
}
