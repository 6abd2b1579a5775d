//! A minimal JSON value type with an emitter and parser.
//!
//! The workspace has no serde; the Perfetto exporter needs to *write*
//! JSON and the `marp-trace validate` command needs to *read back* what
//! it wrote. This covers exactly the JSON subset those two produce:
//! objects, arrays, strings with basic escapes, finite numbers, bools,
//! and null.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How deep [`Json::parse`] lets arrays and objects nest. The documents
/// this crate writes nest 4 deep; the cap keeps a hostile file from
/// overflowing the recursive parser's stack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap), which also makes emitted
    /// JSON deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        if let Json::Obj(map) = self {
            map.get(key)
        } else {
            None
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        if let Json::Arr(items) = self {
            Some(items)
        } else {
            None
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        if let Json::Num(n) = self {
            Some(*n)
        } else {
            None
        }
    }

    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                // Integers print without a trailing ".0" (Perfetto wants
                // plain integer pids/tids); everything else as shortest f64.
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns an error message with a byte
    /// offset on malformed input or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Round `x` to `decimals` decimal places, so that it renders short and
/// byte-stable.
pub fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
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

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == what {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(what), *pos))
    }
}

/// Parse the value at `pos`, inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&first) = bytes.get(*pos) else {
        return Err(String::from("unexpected end of input"));
    };
    match first {
        b'{' | b'[' if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        b'{' => parse_obj(bytes, pos, depth + 1),
        b'[' => parse_arr(bytes, pos, depth + 1),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_keyword(bytes, pos, "null", Json::Null),
        other if other == b'-' || other.is_ascii_digit() => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected character '{}' at byte {}",
            char::from(other),
            *pos
        )),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes[*pos] == b'-' {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|err| format!("bad number '{text}' at byte {start}: {err}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(String::from("unterminated string"));
        };
        *pos += 1;
        match byte {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(String::from("unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| String::from("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|err| format!("bad \\u escape: {err}"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "unknown escape '\\{}' at byte {}",
                            char::from(other),
                            *pos
                        ))
                    }
                }
            }
            ascii if ascii < 0x80 => out.push(char::from(ascii)),
            lead => {
                // Multi-byte UTF-8: re-decode from the lead byte.
                let width = utf8_width(lead);
                let chunk = bytes
                    .get(*pos - 1..*pos - 1 + width)
                    .ok_or_else(|| String::from("truncated utf-8 sequence"))?;
                let s = std::str::from_utf8(chunk)
                    .map_err(|err| format!("invalid utf-8 in string: {err}"))?;
                out.push_str(s);
                *pos += width - 1;
            }
        }
    }
}

fn utf8_width(lead: u8) -> usize {
    if lead >= 0xf0 {
        4
    } else if lead >= 0xe0 {
        3
    } else {
        2
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {}, got {other:?}",
                    *pos
                ))
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {}, got {other:?}",
                    *pos
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = Json::obj([
            ("name", Json::Str(String::from("migrate \"hop\"\n"))),
            ("ts", Json::Num(1234.5)),
            ("pid", Json::Num(1.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "args",
                Json::Arr(vec![Json::Num(-3.0), Json::Str(String::from("µs"))]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(5.0).render(), "5");
        assert_eq!(Json::Num(5.25).render(), "5.25");
        assert_eq!(Json::Num(-2.0).render(), "-2");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{}{}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_naming_the_byte() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert_eq!(Json::parse(&at_cap).unwrap().render(), at_cap);
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
        assert!(Json::parse(&format!("[{objects}]")).is_err());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , \"x\\u0041\" ] } ").unwrap();
        assert_eq!(
            doc.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("xA")
        );
    }
}
