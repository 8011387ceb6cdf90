//! JSON serialisation of tables for the data API.

use shareinsights_tabular::io::json::write_json_quoted;
use shareinsights_tabular::io::{CellWriter, Dialect};
use shareinsights_tabular::partition;
use shareinsights_tabular::Table;
use std::ops::Range;

/// JSON-escape and quote a string.
pub fn quote(s: &str) -> String {
    shareinsights_tabular::io::json::quote_json(s)
}

/// Serialise a table as `{"columns": [...], "rows": [[...]]}` — the payload
/// shape the figure-28 endpoint browse returns. Cells go from the typed
/// column buffers straight into the output through the JSON
/// [`CellWriter`]. From [`partition::WRITE_FLOOR`] rows, runs of rows are
/// rendered on the pool into buffers sized here and joined in order; the
/// string columns are scanned for escapes once, here.
pub fn table_to_json(table: &Table) -> String {
    let rows = table.num_rows();
    let cells = CellWriter::new(table, Dialect::Json);
    let hint = cells.size_hint(rows);
    let mut out = String::with_capacity(hint + 64);
    out.push_str("{\"columns\": [");
    for (i, name) in table.schema().names().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_quoted(&mut out, name);
    }
    out.push_str("], \"rows\": [");
    match partition::morsels(rows, partition::WRITE_FLOOR, None) {
        None => write_rows(&cells, &mut out, 0..rows),
        Some(morsels) => {
            // The first morsel — nearly always this thread's — writes
            // straight into the body; the others into buffers sized here.
            let rest = (1..morsels).map(|_| String::with_capacity(hint / morsels + 64));
            let parts = std::iter::once(out).chain(rest).collect();
            let table = table.clone();
            let clean = cells.clean();
            let mut parts = partition::map_into(parts, move |m, part| {
                let cells = CellWriter::with_clean(&table, Dialect::Json, &clean);
                write_rows(&cells, part, partition::range(rows, morsels, m));
            })
            .into_iter();
            out = parts.next().expect("the first morsel");
            parts.for_each(|part| out.push_str(&part));
        }
    }
    out.push_str("], \"total_rows\": ");
    out.push_str(&rows.to_string());
    out.push('}');
    out
}

/// Rows `rows` as JSON arrays, each but the table's first after `, `.
fn write_rows(cells: &CellWriter<'_>, out: &mut String, rows: Range<usize>) {
    for r in rows {
        if r > 0 {
            out.push_str(", ");
        }
        out.push('[');
        cells.write_row(out, r, ", ");
        out.push(']');
    }
}

/// Serialise a string list as a JSON array.
pub fn string_list(items: &[impl AsRef<str>]) -> String {
    let mut out = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(s.as_ref()));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::{row, Column, Value};

    #[test]
    fn table_serialises_and_reparses() {
        let t = Table::from_rows(
            &["name", "n", "f"],
            &[
                row!["a\"quote", 1i64, 2.5],
                row![Value::Null, 2i64, Value::Null],
            ],
        )
        .unwrap();
        let json = table_to_json(&t);
        let doc = shareinsights_tabular::io::json::parse_json(&json).unwrap();
        assert_eq!(doc.path("total_rows").unwrap().to_value().as_int(), Some(2));
        assert_eq!(doc.path("rows.0.0").unwrap().as_str(), Some("a\"quote"));
        assert_eq!(
            doc.path("rows.1.0"),
            Some(&shareinsights_tabular::io::json::JsonValue::Null)
        );
        assert_eq!(doc.path("columns.2").unwrap().as_str(), Some("f"));
    }

    /// The cell rendering `table_to_json` had when it boxed every cell.
    fn value_to_json(v: &Value) -> String {
        match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) if f.is_finite() => f.to_string(),
            Value::Float(_) => "null".to_string(),
            Value::Str(s) => quote(s),
            Value::Date(_) => quote(&v.to_string()),
        }
    }

    #[test]
    fn typed_cells_render_as_boxed_values_did() {
        use shareinsights_tabular::{Bitmap, DataType, Schema};
        let strings = [
            "",
            "plain",
            "q\"uo\\te",
            "tab\tnl\ncr\r",
            "\u{1}\u{1f}",
            "añ日本",
        ];
        let floats = [0.0, -0.0, 2.5, 1e21, 1e-7, f64::NAN, f64::INFINITY, 3.0];
        let n = 8;
        let mut validity = Bitmap::new_set(n);
        validity.clear(5);
        let t = Table::new(
            Schema::of(&[
                ("s", DataType::Utf8),
                ("f", DataType::Float64),
                ("i", DataType::Int64),
                ("b", DataType::Bool),
                ("d", DataType::Date),
                ("z", DataType::Utf8),
            ]),
            vec![
                Column::utf8((0..n).map(|i| strings[i % strings.len()])),
                Column::float(floats),
                Column::Int64 {
                    data: vec![0, -1, i64::MIN, i64::MAX, 7, 8, 9, 10],
                    validity: validity.clone(),
                },
                Column::bool((0..n).map(|i| i % 3 == 0)),
                Column::Date {
                    data: vec![0, -1, 16000, 1, 2, 3, 4, 5],
                    validity,
                },
                Column::Null { len: n },
            ],
        )
        .unwrap();
        let mut want =
            String::from("{\"columns\": [\"s\", \"f\", \"i\", \"b\", \"d\", \"z\"], \"rows\": [");
        for r in 0..n {
            let cells: Vec<String> = t
                .columns()
                .iter()
                .map(|c| value_to_json(&c.value(r)))
                .collect();
            want.push_str(&format!(
                "{}[{}]",
                if r > 0 { ", " } else { "" },
                cells.join(", ")
            ));
        }
        want.push_str(&format!("], \"total_rows\": {n}}}"));
        assert_eq!(table_to_json(&t), want);
        shareinsights_tabular::io::json::parse_json(&want).unwrap();
    }

    #[test]
    fn string_list_escapes() {
        assert_eq!(string_list(&["a", "b\"c"]), r#"["a", "b\"c"]"#);
        assert_eq!(string_list(&[] as &[&str]), "[]");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let t = Table::from_rows(&["f"], &[row![f64::NAN]]).unwrap();
        let json = table_to_json(&t);
        assert!(json.contains("null"));
        shareinsights_tabular::io::json::parse_json(&json).unwrap();
    }
}
