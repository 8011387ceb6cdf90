//! The typed write-path kernels — `concat_all` / `concat` / `union_all`,
//! `take`, `slice`, `cast` — against a row-wise oracle that boxes every
//! cell as a `Value` and coerces it through `ColumnBuilder::push_coerced`,
//! the way those kernels were written before they copied typed buffers.
//!
//! Equality is on the typed buffers themselves (`Column: PartialEq` —
//! data, string arena and validity words), not on rendered values.

use shareinsights::datagen::SeededRng;
use shareinsights::tabular::ops::union_all;
use shareinsights::tabular::{Column, ColumnBuilder, DataType, Field, Schema, Table, Value};
use std::sync::Arc;

const CASES: usize = 200;

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
