//! A minimal JSON value type with an emitter and parser.
//!
//! The workspace has no serde; the Perfetto exporter needs to *write*
//! JSON and the `marp-trace validate` command needs to *read back* what
//! it wrote. This covers exactly the JSON subset those two produce:
//! objects, arrays, strings with basic escapes, finite numbers, bools,
//! and null.
//!
//! A report declares each number of a row once, as a `Field`, for its
//! text `table` and its JSON `object`.

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
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
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

/// How a report shows one number. Its JSON document stores the number
/// (`null` when missing, a change of share to 6 decimals); its text
/// table prints [`Unit::text`].
#[derive(Clone, Copy)]
pub(crate) enum Unit {
    Count,
    Ns,
    Milli,
    Share,
    ShareChange,
    Exponent,
}

impl Unit {
    pub(crate) fn json(self, value: Option<f64>) -> Json {
        match (self, value) {
            (_, None) => Json::Null,
            (Unit::ShareChange, Some(v)) => Json::Num(round_to(v, 6)),
            (_, Some(v)) => Json::Num(v),
        }
    }

    /// The table cell: a count whole, nanoseconds as milliseconds and a
    /// value to 3 decimals, a share (0..=1) as a percentage, a change of
    /// share with its sign, an exponent to 4 decimals; `-` when missing.
    pub(crate) fn text(self, value: Option<f64>) -> String {
        let Some(v) = value else {
            return String::from("-");
        };
        match self {
            Unit::Count => format!("{v:.0}"),
            Unit::Ns => format!("{:.3}", v / 1e6),
            Unit::Milli => format!("{v:.3}"),
            Unit::Share => format!("{:.1}%", v * 100.0),
            Unit::ShareChange => format!("{:+.1}%", v * 100.0),
            Unit::Exponent => format!("{v:.4}"),
        }
    }
}

/// One number of a report row, declared once for both of the report's
/// forms: its JSON key, its table header and width, its unit and value.
pub(crate) type Field<T> = (
    &'static str,
    &'static str,
    usize,
    Unit,
    fn(&T) -> Option<f64>,
);

/// A text table: the header line, then one line per row, its label
/// left-aligned in the first column and each field right-aligned.
pub(crate) fn table<'a, T: 'a>(
    (label, label_width): (&str, usize),
    fields: &[Field<T>],
    rows: impl IntoIterator<Item = (impl std::fmt::Display, &'a T)>,
) -> String {
    let mut out = format!("{label:<label_width$}");
    for &(_, header, width, ..) in fields {
        let _ = write!(out, " {header:>width$}");
    }
    for (name, row) in rows {
        let _ = write!(out, "\n{name:<label_width$}");
        for &(_, _, width, unit, get) in fields {
            let _ = write!(out, " {:>width$}", unit.text(get(row)));
        }
    }
    out + "\n"
}

/// A row's fields as JSON, each under its key.
pub(crate) fn object<T>(fields: &[Field<T>], row: &T) -> BTreeMap<String, Json> {
    let field = |&(key, _, _, unit, get): &Field<T>| (String::from(key), unit.json(get(row)));
    fields.iter().map(field).collect()
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

/// A cursor over the document [`Json::parse`] reads.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, what: u8) -> Result<(), String> {
        if self.peek() != Some(what) {
            return Err(format!(
                "expected '{}' at byte {}",
                char::from(what),
                self.pos
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// Parse the value at the cursor, inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        let Some(first) = self.peek() else {
            return Err(String::from("unexpected end of input"));
        };
        match first {
            b'{' | b'[' if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            b'{' => {
                let mut map = BTreeMap::new();
                self.items(b'{', b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    map.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            b'[' => {
                let mut items = Vec::new();
                self.items(b'[', b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(other),
                self.pos
            )),
        }
    }

    /// The items of an array or object, `open` to `close`, each read by
    /// `item` and followed by a comma or the close.
    fn items(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(byte) if byte == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}, got {:?}",
                        char::from(close),
                        self.pos,
                        other
                    ))
                }
            }
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(format!("expected '{word}' at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|err| format!("bad number '{text}' at byte {start}: {err}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as
            // it stands: the input is a `&str`, so it is valid UTF-8.
            let run = self.text[self.pos..]
                .find(['"', '\\'])
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.text.as_bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(String::from("unterminated escape"));
            };
            self.pos += 1;
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
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|err| format!("bad \\u escape: {err}"))?;
                    self.pos += 4;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => {
                    return Err(format!(
                        "unknown escape '\\{}' at byte {}",
                        char::from(other),
                        self.pos
                    ))
                }
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
