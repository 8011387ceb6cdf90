//! Test support shared by the differential suites: seeded table
//! generators, and [`assert_three_way`], which holds the two ad-hoc query
//! paths to the unfused reference. The oracle itself, [`reference_query`]
//! and the row kernels under it, is the engine's row-wise reference engine
//! in `shareinsights::engine::baseline`.

// Each integration test compiles its own copy and uses a subset.
#![allow(dead_code)]

use shareinsights::datagen::SeededRng;
use shareinsights::engine::baseline::reference_query;
use shareinsights::server::query::QueryOp;
use shareinsights::tabular::{Column, ColumnBuilder, DataType, Field, Schema, Table, Value};

/// Null probability for a column: mostly light, sometimes total (which
/// leaves a Utf8 column with an *empty dictionary*).
fn null_chance(r: &mut SeededRng) -> f64 {
    match r.weighted_index(&[4.0, 3.0, 1.0]) {
        0 => 0.0,
        1 => 0.25,
        _ => 1.0,
    }
}

fn utf8_col(r: &mut SeededRng, n: usize, pool: usize, nulls: f64) -> Column {
    let mut b = ColumnBuilder::new(DataType::Utf8);
    for _ in 0..n {
        if pool == 0 || r.chance(nulls) {
            b.push_null();
        } else {
            b.push_str(format!("k{}", r.index(pool)));
        }
    }
    b.finish()
}

fn int_col(r: &mut SeededRng, n: usize, nulls: f64) -> Column {
    let mut b = ColumnBuilder::new(DataType::Int64);
    for _ in 0..n {
        if r.chance(nulls) {
            b.push_null();
        } else {
            b.push_coerced(&Value::Int(r.int_range(-50, 49))).unwrap();
        }
    }
    b.finish()
}

/// A table shaped like endpoint data: a categorical, a second categorical
/// and a numeric measure. Row count includes 0 (empty table, empty
/// dictionaries); null chances include 1.0 (all-null columns).
pub fn gen_endpoint_table(r: &mut SeededRng) -> Table {
    let n = if r.chance(0.1) { 0 } else { 1 + r.index(40) };
    let pool = r.index(6); // 0 = every value null regardless of chance
    let schema = Schema::new(vec![
        Field::new("cat", DataType::Utf8),
        Field::new("cat2", DataType::Utf8),
        Field::new("num", DataType::Int64),
    ])
    .unwrap();
    let (nc1, nc2, nc3) = (null_chance(r), null_chance(r), null_chance(r));
    let columns = vec![
        utf8_col(r, n, pool, nc1),
        utf8_col(r, n, 3, nc2),
        int_col(r, n, nc3),
    ];
    Table::new(schema, columns).unwrap()
}

/// Endpoint-shaped data built to stress ordering and grouping: a
/// categorical with few values (heavy ties) and nulls, a second
/// categorical, a zone-indexed integer drawn from seven values, and a
/// float measure with nulls, signed zeros and the odd NaN. Zero-row tables
/// are in the distribution.
pub fn gen_tied_table(r: &mut SeededRng) -> Table {
    let n = if r.chance(0.08) { 0 } else { 1 + r.index(60) };
    let null_p = *r.pick(&[0.0, 0.0, 0.2, 0.5]);
    let mut cat = ColumnBuilder::new(DataType::Utf8);
    let mut cat2 = ColumnBuilder::new(DataType::Utf8);
    let mut num = ColumnBuilder::new(DataType::Int64);
    let mut f = ColumnBuilder::new(DataType::Float64);
    for _ in 0..n {
        if r.chance(null_p) {
            cat.push_null();
        } else {
            cat.push_str(format!("k{}", r.index(3)));
        }
        cat2.push_str(format!("g{}", r.index(2)));
        if r.chance(null_p) {
            num.push_null();
        } else {
            num.push_coerced(&Value::Int(r.int_range(-3, 3))).unwrap();
        }
        if r.chance(null_p) {
            f.push_null();
        } else {
            let v = match r.index(12) {
                0 => -0.0,
                1 => 0.0,
                2 => f64::NAN,
                _ => r.int_range(-40, 40) as f64 * 0.1,
            };
            f.push_coerced(&Value::Float(v)).unwrap();
        }
    }
    Table::new(
        Schema::new(vec![
            Field::new("cat", DataType::Utf8),
            Field::new("cat2", DataType::Utf8),
            Field::new("num", DataType::Int64),
            Field::new("f", DataType::Float64),
        ])
        .unwrap(),
        vec![cat.finish(), cat2.finish(), num.finish(), f.finish()],
    )
    .unwrap()
}

/// Assert the reference, `run_query` and `run_query_indexed` agree on
/// `ops` over `table`: the same JSON bytes, or the same error. Returns
/// whether the indexed path reported an index hit.
pub fn assert_three_way(table: &Table, ops: &[QueryOp], what: &str) -> bool {
    use shareinsights::server::query::{run_query, run_query_indexed};
    use shareinsights::server::table_to_json;
    use shareinsights::tabular::IndexedTable;
    let indexed = IndexedTable::new(table.clone());
    let reference = reference_query(table, ops).map(|t| table_to_json(&t));
    let scan = run_query(table, ops).map(|t| table_to_json(&t));
    assert_eq!(
        scan, reference,
        "{what}: run_query vs the unfused reference"
    );
    let fast = run_query_indexed(&indexed, ops);
    let hit = fast.as_ref().is_ok_and(|(_, hit)| *hit);
    assert_eq!(
        fast.map(|(t, _)| table_to_json(&t)),
        reference,
        "{what}: run_query_indexed vs the unfused reference"
    );
    hit
}
