//! The typed write-path kernels — `concat_all` / `concat` / `union_all`,
//! `take`, `slice`, `cast` — against a row-wise oracle that boxes every
//! cell as a `Value` and coerces it through `ColumnBuilder::push_coerced`,
//! the way those kernels were written before they copied typed buffers.
//!
//! Equality is on the typed buffers themselves (`Column: PartialEq` —
//! data, string arena and validity words), not on rendered values.
//!
//! The cell writer behind `write_csv` and `table_to_json` is held to the
//! writers it replaced, kept here as oracles: every cell boxed and spelled
//! by `Display`. Its release case count is the full one; debug builds run
//! a thirtieth.

use shareinsights::datagen::SeededRng;
use shareinsights::server::table_to_json;
use shareinsights::tabular::datefmt::days_from_civil;
use shareinsights::tabular::io::csv::write_csv;
use shareinsights::tabular::io::json::quote_json;
use shareinsights::tabular::ops::union_all;
use shareinsights::tabular::{
    Bitmap, Column, ColumnBuilder, DataType, Field, Schema, Table, Value,
};
use std::sync::Arc;

const CASES: usize = 200;

/// The cell writer's cases: the full count in release, a thirtieth in debug.
const WRITER_CASES: usize = if cfg!(debug_assertions) { 60 } else { 2000 };

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Zero-length, padded-numeric, plain and multi-byte strings, so a cast of
/// a `Utf8` column to a number sometimes succeeds and sometimes does not.
fn gen_string(r: &mut SeededRng) -> String {
    match r.index(7) {
        0 => String::new(),
        1 => format!("{}", r.int_range(-99, 99)),
        2 => format!(" {}.5 ", r.index(9)),
        3 => "añb".to_string(),
        4 => format!("日本{}", r.index(4)),
        5 => "true".to_string(),
        _ => format!("k{}", r.index(12)),
    }
}

fn gen_value(r: &mut SeededRng, ty: DataType) -> Value {
    match ty {
        DataType::Null => Value::Null,
        DataType::Bool => Value::Bool(r.chance(0.5)),
        DataType::Int64 => Value::Int(r.int_range(-1_000, 1_000)),
        // Finite, and sometimes whole (a whole float casts to Int64).
        DataType::Float64 => Value::Float(r.int_range(-40, 40) as f64 / 4.0),
        DataType::Utf8 => Value::Str(gen_string(r)),
        DataType::Date => Value::Date(r.int_range(-400, 20_000) as i32),
    }
}

fn gen_column(r: &mut SeededRng, ty: DataType, rows: usize) -> Column {
    let nulls = *r.pick(&[0.0, 0.0, 0.3, 1.0]);
    let mut b = ColumnBuilder::new(ty);
    for _ in 0..rows {
        if r.chance(nulls) {
            b.push_null();
        } else {
            b.push_coerced(&gen_value(r, ty)).unwrap();
        }
    }
    b.finish()
}

fn gen_type(r: &mut SeededRng) -> DataType {
    *r.pick(&DataType::ALL)
}

/// A table of the given column types; 0 rows one time in six.
fn gen_table(r: &mut SeededRng, types: &[DataType]) -> Table {
    let rows = if r.chance(1.0 / 6.0) {
        0
    } else {
        1 + r.index(70)
    };
    table_of(types.iter().map(|&ty| gen_column(r, ty, rows)).collect())
}

fn table_of(columns: Vec<Column>) -> Table {
    let fields = columns
        .iter()
        .enumerate()
        .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
        .collect();
    Table::new(Schema::new(fields).unwrap(), columns).unwrap()
}

// ---------------------------------------------------------------------------
// The row-wise oracle
// ---------------------------------------------------------------------------

/// Every listed cell boxed and coerced, in order, into a column of `ty`.
fn oracle_column<'a>(
    ty: DataType,
    cells: impl Iterator<Item = (&'a Column, usize)>,
) -> Result<Column, String> {
    let mut b = ColumnBuilder::new(ty);
    for (col, row) in cells {
        b.push_coerced(&col.value(row)).map_err(|e| e.to_string())?;
    }
    Ok(b.finish())
}

fn oracle_concat(tables: &[Table]) -> Table {
    let schema = tables[1..].iter().fold(tables[0].schema().clone(), |s, t| {
        s.unify(t.schema()).unwrap()
    });
    let columns = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let cells = tables.iter().flat_map(|t| {
                let col: &Column = t.column_at(i);
                (0..t.num_rows()).map(move |row| (col, row))
            });
            oracle_column(f.data_type(), cells).unwrap()
        })
        .collect();
    Table::new(schema, columns).unwrap()
}

fn oracle_take(table: &Table, indices: &[usize]) -> Table {
    let columns = table
        .columns()
        .iter()
        .map(|c| oracle_column(c.data_type(), indices.iter().map(|&i| (c.as_ref(), i))).unwrap())
        .collect();
    Table::new(table.schema().clone(), columns).unwrap()
}

#[track_caller]
fn assert_identical(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.schema(), want.schema(), "{what}: schema");
    assert_eq!(got.num_rows(), want.num_rows(), "{what}: rows");
    assert_eq!(got.columns(), want.columns(), "{what}: typed buffers");
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Every ordered pair of the lossy lattice — Null→T, Int→Float, T→T,
/// mixed→Utf8 — with both sides empty, all-null and populated.
#[test]
fn concat_covers_every_type_pair() {
    let mut r = SeededRng::new(0xC0_11CA7);
    for &a in &DataType::ALL {
        for &b in &DataType::ALL {
            for (rows_a, rows_b) in [(0, 0), (0, 9), (9, 0), (1, 1), (70, 65), (64, 128)] {
                let left = table_of(vec![gen_column(&mut r, a, rows_a)]);
                let right = table_of(vec![gen_column(&mut r, b, rows_b)]);
                let what = format!("{a:?}[{rows_a}] ++ {b:?}[{rows_b}]");
                let want = oracle_concat(&[left.clone(), right.clone()]);
                assert_eq!(want.column_at(0).data_type(), a.unify_lossy(b), "{what}");
                assert_identical(&left.concat(&right).unwrap(), &want, &what);
                assert_identical(
                    &Table::concat_all(&[left.clone(), right.clone()]).unwrap(),
                    &want,
                    &what,
                );
                assert_identical(&union_all(&[left, right]).unwrap(), &want, &what);
            }
        }
    }
}

/// Runs of one to five three-column tables whose column types vary from
/// table to table.
#[test]
fn concat_all_and_union_all_match_the_oracle() {
    let mut r = SeededRng::new(0xA9_9E4D);
    for case in 0..CASES {
        let tables: Vec<Table> = (0..1 + r.index(5))
            .map(|_| {
                let types = [gen_type(&mut r), gen_type(&mut r), gen_type(&mut r)];
                gen_table(&mut r, &types)
            })
            .collect();
        let want = oracle_concat(&tables);
        let what = format!("case {case}");
        assert_identical(&Table::concat_all(&tables).unwrap(), &want, &what);
        assert_identical(&union_all(&tables).unwrap(), &want, &what);
    }
    // A lone input is shared, not copied.
    let one = gen_table(&mut r, &[DataType::Utf8]);
    let same = Table::concat_all(std::slice::from_ref(&one)).unwrap();
    assert!(Arc::ptr_eq(same.column_at(0), one.column_at(0)));
    // Mismatched shapes are still refused.
    let other = gen_table(&mut r, &[DataType::Utf8, DataType::Int64]);
    assert!(Table::concat_all(&[one.clone(), other.clone()]).is_err());
    assert!(union_all(&[one, other]).is_err());
}

#[test]
fn take_and_slice_match_the_oracle() {
    let mut r = SeededRng::new(0x7A_6E);
    for case in 0..CASES {
        let table = gen_table(&mut r, &DataType::ALL);
        let n = table.num_rows();
        // Repeats, reorderings and the empty selection.
        let indices: Vec<usize> = if n == 0 {
            Vec::new()
        } else {
            (0..r.index(2 * n + 1)).map(|_| r.index(n)).collect()
        };
        assert_identical(
            &table.take(&indices),
            &oracle_take(&table, &indices),
            &format!("case {case}: take {indices:?}"),
        );
        // Ranges inside, across and past the table; `usize::MAX` lengths.
        let offset = r.index(n + 3);
        let some = r.index(n + 3);
        let len = *r.pick(&[0, 1, some, usize::MAX]);
        let kept: Vec<usize> = (offset.min(n)..offset.saturating_add(len).min(n)).collect();
        assert_identical(
            &table.slice(offset, len),
            &oracle_take(&table, &kept),
            &format!("case {case}: slice({offset}, {len})"),
        );
    }
}

#[test]
fn cast_matches_the_oracle_for_every_source_and_target() {
    let mut r = SeededRng::new(0xCA_57);
    for &from in &DataType::ALL {
        for &to in &DataType::ALL {
            for _ in 0..12 {
                let rows = r.index(40);
                let col = Arc::new(gen_column(&mut r, from, rows));
                let want = oracle_column(to, (0..col.len()).map(|i| (col.as_ref(), i)));
                match (col.cast(to), want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(*got, want, "{from:?} -> {to:?}");
                        assert_eq!(
                            Arc::ptr_eq(&got, &col),
                            col.data_type() == to,
                            "a cast shares the column exactly when the type already matches"
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("{from:?} -> {to:?}: {got:?} vs oracle {want:?}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The cell writer against the writers it replaced
// ---------------------------------------------------------------------------

/// `write_csv` before the typed cell writer, verbatim: each cell boxed,
/// spelled by `Value`'s `Display`, quoted, collected and joined.
fn write_csv_oracle(table: &Table, sep: char) -> String {
    fn needs_quoting(s: &str, sep: char) -> bool {
        s.contains(sep) || s.contains('"') || s.contains('\n') || s.contains('\r')
    }
    let mut out = String::new();
    let quote = |s: &str| -> String {
        if needs_quoting(s, sep) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let header: Vec<String> = table.schema().names().iter().map(|n| quote(n)).collect();
    out.push_str(&header.join(&sep.to_string()));
    out.push('\n');
    for i in 0..table.num_rows() {
        let row: Vec<String> = table
            .columns()
            .iter()
            .map(|c| quote(&c.value(i).to_string()))
            .collect();
        out.push_str(&row.join(&sep.to_string()));
        out.push('\n');
    }
    out
}

/// `table_to_json` before the typed cell writer: each cell spelled by the
/// `Display` of its `f64`, `i64`, `bool` or `Value::Date`.
fn table_to_json_oracle(table: &Table) -> String {
    let cell = |col: &Column, r: usize| -> String {
        if !col.validity_ref().is_some_and(|v| v.get(r)) {
            return "null".into();
        }
        match col {
            Column::Bool { data, .. } => data[r].to_string(),
            Column::Int64 { data, .. } => data[r].to_string(),
            Column::Float64 { data, .. } if data[r].is_finite() => data[r].to_string(),
            Column::Float64 { .. } | Column::Null { .. } => "null".into(),
            Column::Utf8 { data, .. } => quote_json(&data[r]),
            Column::Date { data, .. } => quote_json(&Value::Date(data[r]).to_string()),
        }
    };
    let names: Vec<String> = table
        .schema()
        .names()
        .iter()
        .map(|n| quote_json(n))
        .collect();
    let rows: Vec<String> = (0..table.num_rows())
        .map(|r| {
            let cells: Vec<String> = table.columns().iter().map(|c| cell(c, r)).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    format!(
        "{{\"columns\": [{}], \"rows\": [{}], \"total_rows\": {}}}",
        names.join(", "),
        rows.join(", "),
        table.num_rows()
    )
}

/// Both writers equal their oracles on `table`; a mismatch names the
/// first row that differs and its cells.
#[track_caller]
fn assert_writers_match(table: &Table, sep: char, what: &str) {
    let json = table_to_json(table) == table_to_json_oracle(table);
    let csv = write_csv(table, sep) == write_csv_oracle(table, sep);
    if json && csv {
        return;
    }
    for r in 0..table.num_rows() {
        let row = table.slice(r, 1);
        assert_eq!(
            table_to_json(&row),
            table_to_json_oracle(&row),
            "{what}: JSON of row {r}"
        );
        assert_eq!(
            write_csv(&row, sep),
            write_csv_oracle(&row, sep),
            "{what}: CSV (sep {sep:?}) of row {r}"
        );
    }
    panic!("{what}: the writers differ from their oracles (json ok: {json}, csv ok: {csv})");
}

/// A float from one of the shapes the fast path must get right or hand
/// back: random bits, cents, `k`-digit decimals (`k` ≤ 8), their ±1-ulp
/// neighbours, subnormals, dyadic fractions and the range edges.
fn gen_float(r: &mut SeededRng) -> f64 {
    let sign = if r.chance(0.5) { -1.0 } else { 1.0 };
    let decimal = |r: &mut SeededRng| {
        let k = r.index(9) as i32;
        let width = 1 + r.index(12) as u32;
        let digits = r.int_range(1, 10_i64.pow(width));
        digits as f64 / 10f64.powi(k)
    };
    match r.index(8) {
        0 => f64::from_bits(r.next_u64()),
        1 => sign * r.int_range(0, 100_000_000) as f64 / 100.0,
        2 => sign * decimal(r),
        3 => {
            let x = sign * decimal(r);
            if r.chance(0.5) {
                x.next_up()
            } else {
                x.next_down()
            }
        }
        4 => sign * f64::from_bits(r.next_u64() & ((1 << 52) - 1)),
        5 => sign * r.int_range(1, 1 << 40) as f64 / (1u64 << r.index(40)) as f64,
        _ => {
            let edges = [
                0.0,
                -0.0,
                5e-324,
                f64::MIN_POSITIVE,
                1e-7,
                0.000001,
                1e9,
                1e9f64.next_up(),
                1e9f64.next_down(),
                999_999_999.999_999,
                1e15,
                1e15f64.next_down(),
                1e17,
                1e21,
                f64::MAX,
                f64::NAN,
                f64::INFINITY,
            ];
            sign * *r.pick(&edges)
        }
    }
}

fn gen_int(r: &mut SeededRng) -> i64 {
    match r.index(4) {
        0 => *r.pick(&[i64::MIN, i64::MAX, 0, -1, i64::MIN + 1, 10, -10]),
        1 => r.next_u64() as i64,
        _ => r.int_range(-100_000, 100_000),
    }
}

fn gen_date(r: &mut SeededRng) -> i32 {
    match r.index(4) {
        0 => {
            let year = *r.pick(&[-1, 0, 1, 1970, 9999, 10000, -10000]);
            let (m, d) = *r.pick(&[(1, 1), (12, 31), (2, 29), (6, 15)]);
            days_from_civil(year, m, d)
        }
        1 => r.next_u64() as i32,
        _ => r.int_range(-800_000, 3_000_000) as i32,
    }
}

/// Strings a separator, quote, line break, escape or non-ASCII byte can
/// land in.
fn gen_cell_string(r: &mut SeededRng) -> String {
    let parts = [
        "a", ",", ";", "\"", "\n", "\r", "\t", "\\", "\u{1}", "日", ".", "-", "1", " ",
    ];
    (0..r.index(5)).map(|_| *r.pick(&parts)).collect()
}

/// A column of `rows` cells of `ty` with no nulls, some, or only nulls.
fn gen_writer_column(r: &mut SeededRng, ty: DataType, rows: usize) -> Column {
    let nulls = *r.pick(&[0.0, 0.0, 0.3, 1.0]);
    let validity = Bitmap::from_fn(rows, |_| !r.chance(nulls));
    match ty {
        DataType::Null => Column::Null { len: rows },
        DataType::Bool => Column::Bool {
            data: (0..rows).map(|_| r.chance(0.5)).collect(),
            validity,
        },
        DataType::Int64 => Column::Int64 {
            data: (0..rows).map(|_| gen_int(r)).collect(),
            validity,
        },
        DataType::Float64 => Column::Float64 {
            data: (0..rows).map(|_| gen_float(r)).collect(),
            validity,
        },
        DataType::Utf8 => Column::Utf8 {
            data: (0..rows).map(|_| gen_cell_string(r)).collect(),
            validity,
        },
        DataType::Date => Column::Date {
            data: (0..rows).map(|_| gen_date(r)).collect(),
            validity,
        },
    }
}

/// Every cell type, one column at a time, against the `Display` its rule
/// replaces: floats of every shape, the integer and date edges, strings
/// with separators and escapes, and all-null and mixed-null columns.
#[test]
fn cell_writer_spells_each_type_as_display() {
    let mut r = SeededRng::new(0x6365_6C6C);
    for case in 0..WRITER_CASES {
        let ty = gen_type(&mut r);
        let rows = r.index(64);
        let table = table_of(vec![gen_writer_column(&mut r, ty, rows)]);
        let sep = *r.pick(&[',', ',', ';', '\t', '|']);
        assert_writers_match(&table, sep, &format!("case {case}: {ty:?}"));
    }
}

/// Whole generated tables — mixed types, nulls, zero rows, odd separators
/// (including ones a number or a date can hold) — render byte for byte as
/// the old writers did.
#[test]
fn write_csv_and_table_to_json_match_their_old_forms() {
    let mut r = SeededRng::new(0x6365_6C6D);
    for case in 0..WRITER_CASES {
        let types: Vec<DataType> = (0..1 + r.index(6)).map(|_| gen_type(&mut r)).collect();
        let rows = if r.chance(1.0 / 6.0) { 0 } else { r.index(40) };
        let table = table_of(
            types
                .iter()
                .map(|&ty| gen_writer_column(&mut r, ty, rows))
                .collect(),
        );
        let sep = *r.pick(&[',', ';', '\t', '.', '-', 'e', '1', 'a', '"']);
        assert_writers_match(&table, sep, &format!("case {case}: {types:?}"));
    }
}
