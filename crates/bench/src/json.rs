//! A minimal JSON document model with a writer, a parser and a schema
//! validator.
//!
//! The workspace's `serde` is a façade without a JSON backend, so the bench
//! crate carries its own small implementation. Every JSON file it writes —
//! the [`crate::report`] document, `BENCH_kernels.json` and `BENCH_sim.json`
//! — is a [`Json`] value printed through its `Display` impl; the parser reads
//! them back, and [`validate`] checks a report against the checked-in schema
//! (`schema/report.schema.json`, a subset of JSON Schema: `type`,
//! `properties`, `required`, `items`).

use std::fmt;

/// A JSON value, as parsed or to be written.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// JSON type name, as JSON Schema spells it.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

impl Json {
    /// An object with `members` in the given order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// A number rounded to `decimals` places exactly as `{:.decimals$}`
    /// rounds it, so the document prints no more digits than the
    /// measurement resolves.
    pub fn rounded(x: f64, decimals: usize) -> Json {
        Json::Num(
            format!("{x:.decimals$}")
                .parse()
                .expect("a formatted f64 parses"),
        )
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// Prints the value as a document. One layout rule covers every file the
/// crate writes: the root object puts each member on its own line, arrays
/// directly inside the root put each element on its own line, and
/// everything else prints inline (`{"k": v, "k2": v2}`, `[a, b]`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0)
    }
}

fn write_value(f: &mut fmt::Formatter<'_>, value: &Json, depth: usize) -> fmt::Result {
    match value {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        // `f64`'s `Display` prints integral values without a fraction and
        // everything else as the shortest decimal that parses back exactly.
        Json::Num(n) if n.is_finite() => write!(f, "{n}"),
        Json::Num(_) => f.write_str("null"),
        Json::Str(s) => write_str(f, s),
        Json::Arr(items) => write_seq(f, "[]", depth, depth == 1, items, |f, item| {
            write_value(f, item, depth + 1)
        }),
        Json::Obj(members) => write_seq(f, "{}", depth, depth == 0, members, |f, (k, v)| {
            write_str(f, k)?;
            f.write_str(": ")?;
            write_value(f, v, depth + 1)
        }),
    }
}

/// Writes `items` between `brackets`, either inline or one item per line
/// indented one level deeper than `depth`.
fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    brackets: &str,
    depth: usize,
    one_per_line: bool,
    items: &[T],
    mut each: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    f.write_str(open)?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        if one_per_line {
            write!(f, "\n{:1$}", "", 2 * depth + 2)?;
        } else if i > 0 {
            f.write_str(" ")?;
        }
        each(f, item)?;
    }
    if one_per_line {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_str(close)
}

/// Writes `s` as a quoted, escaped JSON string.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
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

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// [`ParseError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the source slice.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("bad UTF-8"))?;
                    let ch = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Validates `value` against `schema` — the JSON Schema subset used by
/// `schema/report.schema.json`: `type`, `required`, `properties`, `items`.
///
/// # Errors
///
/// A human-readable path + reason for the first violation found.
pub fn validate(schema: &Json, value: &Json) -> Result<(), String> {
    validate_at(schema, value, "$")
}

fn validate_at(schema: &Json, value: &Json, path: &str) -> Result<(), String> {
    if let Some(Json::Str(ty)) = schema.get("type") {
        let ok = match ty.as_str() {
            "integer" => matches!(value, Json::Num(n) if n.fract() == 0.0),
            other => value.type_name() == other,
        };
        if !ok {
            return Err(format!("{path}: expected {ty}, got {}", value.type_name()));
        }
    }
    if let Some(Json::Arr(required)) = schema.get("required") {
        for name in required {
            let name = name
                .as_str()
                .ok_or_else(|| format!("{path}: schema 'required' entries must be strings"))?;
            if value.get(name).is_none() {
                return Err(format!("{path}: missing required member '{name}'"));
            }
        }
    }
    if let Some(Json::Obj(props)) = schema.get("properties") {
        for (name, subschema) in props {
            if let Some(member) = value.get(name) {
                validate_at(subschema, member, &format!("{path}.{name}"))?;
            }
        }
    }
    if let Some(items) = schema.get("items") {
        if let Json::Arr(elems) = value {
            for (i, elem) in elems.iter().enumerate() {
                validate_at(items, elem, &format!("{path}[{i}]"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\"y\n"} "#;
        let v = parse(doc).expect("parses");
        let arr = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_num(), Some(-300.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.get("e").and_then(Json::as_str), Some("x\"y\n"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nul").is_err());
    }

    /// Re-serializing a parsed document gives back an equal value with the
    /// same line count, so the writer keeps each file's layout.
    #[test]
    fn writer_roundtrips_every_document_the_crate_writes() {
        let report = crate::report::run_report(&crate::report::ReportConfig::quick()).to_json();
        let original = "line\nwith \"quotes\" and \\slashes\\ and \t tabs \u{1}";
        let escaped = Json::obj([("s", original.into())]).to_string();
        let v = parse(&escaped).expect("escaped string parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some(original));
        for source in [
            include_str!("../../../BENCH_sim.json"),
            include_str!("../../../BENCH_kernels.json"),
            &report,
            &escaped,
        ] {
            let doc = parse(source).expect("source parses");
            let written = doc.to_string();
            assert_eq!(parse(&written).as_ref(), Ok(&doc), "{written}");
            assert_eq!(written.lines().count(), source.lines().count(), "{written}");
        }
    }

    #[test]
    fn validates_types_required_and_items() {
        let schema = parse(
            r#"{
            "type": "object",
            "required": ["n", "rows"],
            "properties": {
                "n": {"type": "integer"},
                "rows": {"type": "array", "items": {
                    "type": "object", "required": ["name"],
                    "properties": {"name": {"type": "string"}}
                }}
            }
        }"#,
        )
        .expect("schema parses");
        let good = parse(r#"{"n": 3, "rows": [{"name": "x"}]}"#).expect("parses");
        assert_eq!(validate(&schema, &good), Ok(()));
        let missing = parse(r#"{"n": 3}"#).expect("parses");
        assert!(validate(&schema, &missing).unwrap_err().contains("rows"));
        let wrong_type = parse(r#"{"n": 3.5, "rows": []}"#).expect("parses");
        assert!(validate(&schema, &wrong_type)
            .unwrap_err()
            .contains("integer"));
        let bad_item = parse(r#"{"n": 3, "rows": [{"label": "x"}]}"#).expect("parses");
        assert!(validate(&schema, &bad_item).unwrap_err().contains("name"));
    }
}
