//! CSV reader/writer with RFC-4180 quoting and configurable separator
//! (the data section's `separator: ','` parameter, figure 4).

use crate::column::{ColumnBuilder, StrBuf};
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::io::cells::{write_csv_field, CellWriter, Dialect};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Inferred;

/// CSV parse/serialise options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Whether the first record is a header row (default true). When false
    /// the caller must pass explicit column names.
    pub has_header: bool,
    /// Explicit column names overriding/replacing the header — the flow
    /// file's schema declaration (`stack_summary: [project, question, ...]`)
    /// takes precedence over whatever the file says.
    pub column_names: Option<Vec<String>>,
    /// Infer cell types (default true); when false all columns are Utf8.
    pub infer_types: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: true,
            column_names: None,
            infer_types: true,
        }
    }
}

/// The fields of every record, back to back in one arena: `ends[r]` is
/// the count of fields up to and including record `r`.
#[derive(Default)]
struct Records {
    fields: StrBuf,
    ends: Vec<usize>,
}

impl Records {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The index of record `r`'s first field.
    fn start(&self, r: usize) -> usize {
        r.checked_sub(1).map_or(0, |p| self.ends[p])
    }

    /// Close the current record.
    fn end_record(&mut self) {
        self.ends.push(self.fields.len());
    }
}

/// What ended a field.
enum FieldEnd {
    /// A separator.
    Separator,
    /// A record end, this many bytes long (`\n`, `\r` or `\r\n`).
    Line(usize),
    /// The end of the input.
    Input,
}

/// Where the unquoted run of a field that starts at byte `from` ends, and
/// what ends it: a separator (`sep`, its UTF-8 bytes), a line end or the
/// input's end. A quote inside the run is a literal.
fn unquoted_end(bytes: &[u8], from: usize, sep: &[u8]) -> (usize, FieldEnd) {
    let mut at = from;
    while let Some(&b) = bytes.get(at) {
        match b {
            b'"' => {}
            _ if b == sep[0] && bytes[at..].starts_with(sep) => return (at, FieldEnd::Separator),
            b'\r' if bytes.get(at + 1) == Some(&b'\n') => return (at, FieldEnd::Line(2)),
            b'\r' | b'\n' => return (at, FieldEnd::Line(1)),
            _ => {}
        }
        at += 1;
    }
    (at, FieldEnd::Input)
}

/// Unescape the quoted run that starts after an opening quote at byte
/// `from` into `out` (`""` is one quote), and return the byte after its
/// closing quote.
fn quoted_into(content: &str, mut from: usize, out: &mut String) -> Result<usize> {
    let bytes = content.as_bytes();
    loop {
        let Some(quote) = bytes[from..].iter().position(|&b| b == b'"') else {
            return Err(TabularError::Format {
                format: "csv",
                message: "unterminated quoted field".into(),
            });
        };
        let quote = from + quote;
        out.push_str(&content[from..quote]);
        if bytes.get(quote + 1) != Some(&b'"') {
            return Ok(quote + 1);
        }
        out.push('"');
        from = quote + 2;
    }
}

/// Split CSV content into records of raw string fields, walking its
/// bytes. An unquoted field is pushed as a slice of `content`; one that
/// opens with a quote is unescaped into a scratch string, and whatever
/// follows its closing quote up to the field's end is kept as literal
/// text, as is a quote inside an unquoted field. A record ends at `\n`,
/// `\r\n` or a lone `\r`; fully empty trailing records are dropped.
fn parse_records(content: &str, sep: char) -> Result<Records> {
    let mut sep_utf8 = [0u8; 4];
    let sep = sep.encode_utf8(&mut sep_utf8).as_bytes();
    let bytes = content.as_bytes();
    let mut records = Records {
        fields: StrBuf::with_capacity(0, content.len()),
        ends: Vec::new(),
    };
    let mut quoted = String::new();
    let mut at = 0;
    // Whether the current record holds a field already.
    let mut in_record = false;
    while at < bytes.len() || in_record {
        let opens_quoted = bytes.get(at) == Some(&b'"');
        if opens_quoted {
            quoted.clear();
            at = quoted_into(content, at + 1, &mut quoted)?;
        }
        let (end, ended) = unquoted_end(bytes, at, sep);
        let field = if opens_quoted {
            quoted.push_str(&content[at..end]);
            quoted.as_str()
        } else {
            &content[at..end]
        };
        match ended {
            FieldEnd::Separator => {
                records.fields.push(field);
                in_record = true;
                at = end + sep.len();
            }
            FieldEnd::Line(len) => {
                records.fields.push(field);
                records.end_record();
                in_record = false;
                at = end + len;
            }
            FieldEnd::Input => {
                if !field.is_empty() || in_record {
                    records.fields.push(field);
                    records.end_record();
                }
                break;
            }
        }
    }
    // Drop fully empty trailing records (files ending in blank lines).
    while let Some(last) = records.len().checked_sub(1) {
        let first = records.start(last);
        if records.ends[last] - first != 1 || !records.fields[first].is_empty() {
            break;
        }
        records.ends.pop();
    }
    Ok(records)
}

/// Read CSV text into a table.
///
/// Cells are decoded straight into typed column builders: a first pass
/// infers every cell of a column from its borrowed text and unifies the
/// column's type, a second pushes the typed cells. A numeric-looking cell
/// in a column that widens to `Utf8` is stored as its *parsed* rendering
/// (`007` → `7`), as [`Column::from_values`](crate::Column::from_values)
/// over inferred values stores it.
pub fn read_csv(content: &str, opts: &CsvOptions) -> Result<Table> {
    let records = parse_records(content, opts.separator)?;
    let record = |r: usize| (records.start(r)..records.ends[r]).map(|i| &records.fields[i]);
    // The first data record, after the header when there is one.
    let mut first = 0;
    let names: Vec<String> = match (&opts.column_names, opts.has_header) {
        (Some(names), true) => {
            first = 1.min(records.len());
            names.clone()
        }
        (Some(names), false) => names.clone(),
        (None, true) => {
            if records.len() == 0 {
                return Err(TabularError::Format {
                    format: "csv",
                    message: "empty input with no explicit column names".into(),
                });
            }
            first = 1;
            record(0).map(|s| s.trim().to_string()).collect()
        }
        (None, false) => {
            let width = if records.len() == 0 {
                0
            } else {
                record(0).len()
            };
            (0..width).map(|i| format!("col{i}")).collect()
        }
    };

    let width = names.len();
    let rows = records.len() - first;
    for r in first..records.len() {
        let fields = records.ends[r] - records.start(r);
        if fields != width {
            return Err(TabularError::Format {
                format: "csv",
                message: format!(
                    "record {} has {fields} fields, expected {width}",
                    r - first + if opts.has_header { 2 } else { 1 },
                ),
            });
        }
    }

    // Every data record is `width` fields wide, so cell (r, ci) sits at a
    // fixed stride from the first data field.
    let base = records.start(first);
    let cell = |r: usize, ci: usize| &records.fields[base + r * width + ci];
    let mut columns = Vec::with_capacity(width);
    let mut fields = Vec::with_capacity(width);
    let mut inferred: Vec<Inferred<'_>> = Vec::with_capacity(rows);
    for (ci, name) in names.iter().enumerate() {
        inferred.clear();
        inferred.extend((0..rows).map(|r| {
            let raw = cell(r, ci);
            if opts.infer_types {
                Inferred::of(raw)
            } else if raw.is_empty() {
                Inferred::Null
            } else {
                Inferred::Str(raw)
            }
        }));
        let ty = inferred
            .iter()
            .fold(DataType::Null, |ty, c| ty.unify_lossy(c.data_type()));
        let mut b = ColumnBuilder::with_capacity(ty, rows);
        for &c in &inferred {
            b.push_inferred(c);
        }
        fields.push(crate::schema::Field::new(name, ty));
        columns.push(b.finish());
    }
    Table::new(Schema::new(fields)?, columns)
}

/// Serialise a table to CSV text with a header row.
pub fn write_csv(table: &Table, sep: char) -> String {
    let cells = CellWriter::new(table, Dialect::Csv(sep));
    let mut out = String::with_capacity(cells.size_hint(table.num_rows() + 1));
    for (i, name) in table.schema().names().iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        write_csv_field(&mut out, name, sep);
    }
    out.push('\n');
    let delimiter = sep.to_string();
    for r in 0..table.num_rows() {
        cells.write_row(&mut out, r, &delimiter);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Value;

    /// The record splitter this module had before it walked bytes, kept
    /// as the oracle: one `char` at a time, every field built in a
    /// `String`.
    fn parse_records_oracle(content: &str, sep: char) -> Result<Vec<Vec<String>>> {
        let mut records: Vec<Vec<String>> = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = content.chars().peekable();

        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => {
                        if field.is_empty() {
                            in_quotes = true;
                        } else {
                            // Quote inside unquoted field: keep literal.
                            field.push('"');
                        }
                    }
                    c if c == sep => record.push(std::mem::take(&mut field)),
                    '\r' | '\n' => {
                        if c == '\r' && chars.peek() == Some(&'\n') {
                            chars.next();
                        }
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    _ => field.push(c),
                }
            }
        }
        if in_quotes {
            return Err(TabularError::Format {
                format: "csv",
                message: "unterminated quoted field".into(),
            });
        }
        if !field.is_empty() || !record.is_empty() {
            record.push(field);
            records.push(record);
        }
        // Drop fully empty trailing records (files ending in blank lines).
        while records
            .last()
            .is_some_and(|r| r.len() == 1 && r[0].is_empty())
        {
            records.pop();
        }
        Ok(records)
    }

    /// The records [`parse_records`] split, as owned fields.
    fn split(content: &str, sep: char) -> Result<Vec<Vec<String>>> {
        let parsed = parse_records(content, sep)?;
        Ok((0..parsed.len())
            .map(|r| {
                (parsed.start(r)..parsed.ends[r])
                    .map(|i| parsed.fields[i].to_string())
                    .collect()
            })
            .collect())
    }

    /// The reader this module had before it decoded into typed builders,
    /// kept as the oracle: owned fields per record, a boxed [`Value`] per
    /// cell, [`Column::from_values`] per column.
    fn read_csv_oracle(content: &str, opts: &CsvOptions) -> Result<Table> {
        let mut records = parse_records_oracle(content, opts.separator)?;
        let names: Vec<String> = match (&opts.column_names, opts.has_header) {
            (Some(names), true) => {
                if !records.is_empty() {
                    records.remove(0);
                }
                names.clone()
            }
            (Some(names), false) => names.clone(),
            (None, true) => {
                if records.is_empty() {
                    return Err(TabularError::Format {
                        format: "csv",
                        message: "empty input with no explicit column names".into(),
                    });
                }
                records
                    .remove(0)
                    .into_iter()
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            (None, false) => {
                let width = records.first().map_or(0, |r| r.len());
                (0..width).map(|i| format!("col{i}")).collect()
            }
        };
        let width = names.len();
        for (li, r) in records.iter().enumerate() {
            if r.len() != width {
                return Err(TabularError::Format {
                    format: "csv",
                    message: format!(
                        "record {} has {} fields, expected {width}",
                        li + if opts.has_header { 2 } else { 1 },
                        r.len()
                    ),
                });
            }
        }
        let mut columns = Vec::with_capacity(width);
        let mut fields = Vec::with_capacity(width);
        for ci in 0..width {
            let vals: Vec<Value> = records
                .iter()
                .map(|r| {
                    if opts.infer_types {
                        Value::infer(&r[ci])
                    } else if r[ci].is_empty() {
                        Value::Null
                    } else {
                        Value::Str(r[ci].clone())
                    }
                })
                .collect();
            let col = Column::from_values(&vals);
            fields.push(crate::schema::Field::new(&names[ci], col.data_type()));
            columns.push(col);
        }
        Table::new(Schema::new(fields)?, columns)
    }

    /// Same outcome, down to the typed buffers: schema, every column's
    /// data and validity, or the same error text.
    fn assert_matches_oracle(content: &str, opts: &CsvOptions) {
        match (read_csv(content, opts), read_csv_oracle(content, opts)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.schema(), want.schema(), "{content:?}");
                assert_eq!(got.columns(), want.columns(), "{content:?}");
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!("{content:?}: {got:?} vs oracle {want:?}"),
        }
    }

    #[test]
    fn typed_decode_matches_the_value_wise_oracle() {
        let shapes = [
            CsvOptions::default(),
            CsvOptions {
                infer_types: false,
                ..Default::default()
            },
            CsvOptions {
                has_header: false,
                ..Default::default()
            },
            CsvOptions {
                column_names: Some(vec!["a".into(), "b".into(), "c".into()]),
                ..Default::default()
            },
            CsvOptions {
                has_header: false,
                column_names: Some(vec!["a".into(), "b".into(), "c".into()]),
                ..Default::default()
            },
        ];
        let fixed = [
            "",
            "\n",
            "a,b,c\n",
            "a,b,c\n\n\n",
            // The lossy quirk: numeric-looking cells of a column that
            // widens to Utf8 keep their parsed rendering.
            "a,b,c\n007,1e3,true\nx,y,z\n+5,-0.0,FALSE\n",
            "a,b,c\n1,2.5,\n,3, \n 4 ,,\n",
            "a,b,c\n\"\",\"q\"\"q\",\"multi\nline\"\r\nañ,日本,\n",
            "a,b,c\n1,2\n",
            "a,b,c\n1,2,3,4\n",
            "a,b,c\n\"open,1,2\n",
            "a,b,c\n1,2,3",
            "a,b,c\n9223372036854775807,9223372036854775808,1.2.3\n-1,.5,--\n",
        ];
        for opts in &shapes {
            for content in fixed {
                assert_matches_oracle(content, opts);
            }
        }
        // Seeded mixes of the token kinds, three columns wide, so every
        // pair of the lossy lattice meets in some column.
        let tokens = [
            "", " ", "0", "007", "-12", "2.5", "1e3", "3.0", "true", "False", "x", " pad ", "añ",
            "\"a,b\"", "\"\"", "1.2.3", "nan",
        ];
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..200 {
            let kinds = [next(5) + 1, next(5) + 1, next(tokens.len()) + 1];
            let mut content = String::from("a,b,c\n");
            for _ in 0..next(12) {
                let row: Vec<&str> = kinds
                    .iter()
                    .map(|&k| tokens[(next(k) * 3 + next(3)) % tokens.len()])
                    .collect();
                content.push_str(&row.join(","));
                content.push('\n');
            }
            for opts in &shapes {
                assert_matches_oracle(&content, opts);
            }
        }
    }

    #[test]
    fn records_split_as_the_char_loop_splits_them() {
        let fixed = [
            "",
            "\"\"",
            "a,\"\"",
            "\"ab\"cd,e\"f\n",
            "\"a\"\"\"\"b\"\r\"\"\"\",x",
            "a\r\rb\r\n\n\r",
            ",,\n,\n",
            "\"open",
            "x,\"y\nz",
        ];
        // Quotes, escaped quotes, every line end, empty fields, blank
        // lines and multi-byte text, cut by one-byte and multi-byte
        // separators.
        let tokens = [
            "",
            "a",
            "bc",
            "\"",
            "\"\"",
            "\"q\"",
            "\"x\"\"y\"",
            "\"a,b\"",
            "\"l\nm\"",
            "\n",
            "\r",
            "\r\n",
            "\n\n",
            ",",
            ";",
            "§",
            "日本",
            "ñ\"",
            " ",
        ];
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut cases: Vec<String> = fixed.iter().map(|s| s.to_string()).collect();
        for _ in 0..2000 {
            cases.push((0..next(24)).map(|_| tokens[next(tokens.len())]).collect());
        }
        for content in &cases {
            for sep in [',', ';', '§', '日'] {
                match (split(content, sep), parse_records_oracle(content, sep)) {
                    (Ok(got), Ok(want)) => assert_eq!(got, want, "{content:?} {sep:?}"),
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => panic!("{content:?} {sep:?}: {got:?} vs oracle {want:?}"),
                }
            }
        }
    }

    #[test]
    fn basic_read_with_header_and_inference() {
        let t = read_csv(
            "project,year,stars\npig,2013,4.5\nhive,2014,3\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.schema().names(), vec!["project", "year", "stars"]);
        assert_eq!(
            t.schema().field("year").unwrap().data_type(),
            DataType::Int64
        );
        assert_eq!(
            t.schema().field("stars").unwrap().data_type(),
            DataType::Float64
        );
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn explicit_names_override_header() {
        let opts = CsvOptions {
            column_names: Some(vec!["a".into(), "b".into()]),
            ..Default::default()
        };
        let t = read_csv("x,y\n1,2\n", &opts).unwrap();
        assert_eq!(t.schema().names(), vec!["a", "b"]);
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn headerless_with_names() {
        let opts = CsvOptions {
            has_header: false,
            column_names: Some(vec!["a".into(), "b".into()]),
            ..Default::default()
        };
        let t = read_csv("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn quoting_and_escapes() {
        let t = read_csv(
            "text,n\n\"hello, world\",1\n\"say \"\"hi\"\"\",2\n\"multi\nline\",3\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(0, "text").unwrap().to_string(), "hello, world");
        assert_eq!(t.value(1, "text").unwrap().to_string(), "say \"hi\"");
        assert_eq!(t.value(2, "text").unwrap().to_string(), "multi\nline");
    }

    #[test]
    fn custom_separator() {
        let opts = CsvOptions {
            separator: '|',
            ..Default::default()
        };
        let t = read_csv("a|b\n1|2\n", &opts).unwrap();
        assert_eq!(t.schema().names(), vec!["a", "b"]);
    }

    #[test]
    fn empty_cells_are_null() {
        let t = read_csv("a,b\n1,\n,2\n", &CsvOptions::default()).unwrap();
        assert!(t.value(0, "b").unwrap().is_null());
        assert!(t.value(1, "a").unwrap().is_null());
    }

    #[test]
    fn crlf_and_trailing_newlines() {
        let t = read_csv("a,b\r\n1,2\r\n\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn ragged_record_errors_with_line() {
        let err = read_csv("a,b\n1,2,3\n", &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("record 2"));
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(read_csv("a\n\"oops\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn roundtrip_via_writer() {
        let src = "text,n\n\"a,b\",1\nplain,2\n";
        let t = read_csv(src, &CsvOptions::default()).unwrap();
        let written = write_csv(&t, ',');
        let t2 = read_csv(&written, &CsvOptions::default()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn no_inference_keeps_strings() {
        let opts = CsvOptions {
            infer_types: false,
            ..Default::default()
        };
        let t = read_csv("a\n42\n", &opts).unwrap();
        assert_eq!(t.schema().field("a").unwrap().data_type(), DataType::Utf8);
    }
}
