//! JSON parser and the `=>` path-mapping used by data sections.
//!
//! Figure 6 of the paper maps JSON paths in an API payload to columns
//! (`question => title`); figure 18 maps tweet document paths
//! (`location => user.location`). [`PathMapping`] implements that notation
//! over a hand-written recursive-descent JSON parser.

use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; integral values render without `.0`).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object (order-preserving via BTreeMap for deterministic output).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Navigate a dotted path (`user.location`). Array hops index with
    /// numeric segments (`items.0.name`).
    pub fn path(&self, path: &str) -> Option<&JsonValue> {
        let mut cur = self;
        for seg in path.split('.') {
            match cur {
                JsonValue::Object(map) => cur = map.get(seg)?,
                JsonValue::Array(items) => {
                    let idx: usize = seg.parse().ok()?;
                    cur = items.get(idx)?;
                }
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Convert a scalar JSON value to a tabular [`Value`]; containers
    /// stringify to their JSON text.
    pub fn to_value(&self) -> Value {
        match self {
            JsonValue::Null => Value::Null,
            JsonValue::Bool(b) => Value::Bool(*b),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 9.2e18 {
                    Value::Int(*n as i64)
                } else {
                    Value::Float(*n)
                }
            }
            JsonValue::String(s) => Value::Str(s.clone()),
            other => Value::Str(other.to_string()),
        }
    }

    /// Member access helper.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Array items, or empty.
    pub fn items(&self) -> &[JsonValue] {
        match self {
            JsonValue::Array(v) => v.as_slice(),
            _ => &[],
        }
    }

    /// String payload if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 9.2e18 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::String(s) => write!(f, "{}", quote_json(s)),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", quote_json(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// JSON-escape and quote a string.
pub fn quote_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_quoted(&mut out, s);
    out
}

/// Append `s`, JSON-escaped and quoted, to `out`. A run of characters that
/// need no escape is copied as one slice.
pub fn write_json_quoted(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a character boundary.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: &str) -> TabularError {
        TabularError::Format {
            format: "json",
            message: format!("{msg} at offset {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(JsonValue::String(self.parse_string()?)),
            b't' => self.parse_lit("true", JsonValue::Bool(true)),
            b'f' => self.parse_lit("false", JsonValue::Bool(false)),
            b'n' => self.parse_lit("null", JsonValue::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected {lit})")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    let hex2 = std::str::from_utf8(
                                        &self.bytes[self.pos + 2..self.pos + 6],
                                    )
                                    .map_err(|_| self.err("bad surrogate"))?;
                                    let lo = u32::from_str_radix(hex2, 16)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    self.pos += 6;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parse a complete JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// The `=>` mapping from a data section: output column name to JSON path.
///
/// ```text
/// ipl_tweets: [
///   postedTime => created_at,
///   body       => text,
///   location   => user.location,
/// ]
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathMapping {
    /// `(column, path)` pairs in declaration order.
    pub entries: Vec<(String, String)>,
}

impl PathMapping {
    /// Build from pairs.
    pub fn new(entries: Vec<(String, String)>) -> Self {
        PathMapping { entries }
    }

    /// Column names in order.
    pub fn columns(&self) -> Vec<&str> {
        self.entries.iter().map(|(c, _)| c.as_str()).collect()
    }
}

/// Read a stream of JSON records into a table using a path mapping.
///
/// Accepts three layouts, matching what real feeds provide:
/// 1. a JSON array of objects;
/// 2. newline-delimited JSON (one object per line — the Gnip tweet shape);
/// 3. an object with an `items` array (the Stack Exchange API shape).
pub fn read_json_records(text: &str, mapping: &PathMapping) -> Result<Table> {
    let trimmed = text.trim();
    let docs: Vec<JsonValue> = if trimmed.starts_with('[') {
        match parse_json(trimmed)? {
            JsonValue::Array(items) => items,
            _ => unreachable!(),
        }
    } else if trimmed.starts_with('{') && !trimmed.contains('\n') {
        let doc = parse_json(trimmed)?;
        match doc.get("items") {
            Some(JsonValue::Array(items)) => items.clone(),
            _ => vec![doc],
        }
    } else {
        // NDJSON. A single '{'-starting multi-line doc with items also
        // lands here if pretty-printed; handle that by trying whole-text
        // parse first.
        if trimmed.starts_with('{') {
            if let Ok(doc) = parse_json(trimmed) {
                match doc.get("items") {
                    Some(JsonValue::Array(items)) => items.clone(),
                    _ => vec![doc],
                }
            } else {
                parse_ndjson(trimmed)?
            }
        } else {
            parse_ndjson(trimmed)?
        }
    };

    let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(docs.len()); mapping.entries.len()];
    for doc in &docs {
        for (ci, (_, path)) in mapping.entries.iter().enumerate() {
            let v = doc.path(path).map(|j| j.to_value()).unwrap_or(Value::Null);
            columns[ci].push(v);
        }
    }
    let mut fields = Vec::with_capacity(mapping.entries.len());
    let mut cols = Vec::with_capacity(mapping.entries.len());
    for ((name, _), vals) in mapping.entries.iter().zip(&columns) {
        let col = Column::from_values(vals);
        fields.push(Field::new(name, col.data_type()));
        cols.push(col);
    }
    Table::new(Schema::new(fields)?, cols)
}

fn parse_ndjson(text: &str) -> Result<Vec<JsonValue>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(parse_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_containers_escapes() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-2.5e2").unwrap(), JsonValue::Number(-250.0));
        assert_eq!(
            parse_json(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".into())
        );
        let v = parse_json(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(v.path("a.1.b").unwrap().as_str(), Some("x"));
        assert_eq!(v.path("c"), Some(&JsonValue::Null));
        assert_eq!(v.path("a.5"), None);
    }

    #[test]
    fn surrogate_pairs() {
        let v = parse_json(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn display_roundtrips() {
        let src = r#"{"b":[1,2.5,"x"],"a":{"nested":true}}"#;
        let v = parse_json(src).unwrap();
        let printed = v.to_string();
        assert_eq!(parse_json(&printed).unwrap(), v);
    }

    #[test]
    fn tweet_path_mapping() {
        // The figure-18 shape: map tweet document paths to columns.
        let mapping = PathMapping::new(vec![
            ("postedTime".into(), "created_at".into()),
            ("body".into(), "text".into()),
            ("location".into(), "user.location".into()),
        ]);
        let ndjson = concat!(
            r#"{"created_at": "Thu May 02 19:30:05 +0530 2013", "text": "six!", "user": {"location": "Chennai"}}"#,
            "\n",
            r#"{"created_at": "Thu May 02 19:31:00 +0530 2013", "text": "four", "user": {}}"#,
            "\n"
        );
        let t = read_json_records(ndjson, &mapping).unwrap();
        assert_eq!(t.schema().names(), vec!["postedTime", "body", "location"]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, "location").unwrap().to_string(), "Chennai");
        assert!(
            t.value(1, "location").unwrap().is_null(),
            "missing path is null"
        );
    }

    #[test]
    fn array_and_items_layouts() {
        let mapping = PathMapping::new(vec![("q".into(), "title".into())]);
        let t = read_json_records(r#"[{"title": "a"}, {"title": "b"}]"#, &mapping).unwrap();
        assert_eq!(t.num_rows(), 2);
        // Stack Exchange API shape (figure 6).
        let t = read_json_records(
            r#"{"items": [{"title": "q1"}, {"title": "q2"}, {"title": "q3"}]}"#,
            &mapping,
        )
        .unwrap();
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn numbers_become_ints_when_integral() {
        let mapping = PathMapping::new(vec![("n".into(), "n".into())]);
        let t = read_json_records(r#"[{"n": 3}, {"n": 4}]"#, &mapping).unwrap();
        assert_eq!(
            t.schema().field("n").unwrap().data_type(),
            crate::datatype::DataType::Int64
        );
    }

    #[test]
    fn containers_stringify() {
        let mapping = PathMapping::new(vec![("tags".into(), "tags".into())]);
        let t = read_json_records(r#"[{"tags": ["a", "b"]}]"#, &mapping).unwrap();
        assert_eq!(t.value(0, "tags").unwrap().to_string(), r#"["a","b"]"#);
    }
}
