//! Test support shared by the differential suites: the **unfused
//! reference evaluator**.
//!
//! `run_query` / `run_query_indexed` fuse `sort | limit` and
//! `filter | groupby`, evaluate predicates column-at-a-time and compare
//! sort keys through typed slices. The reference does none of that: it
//! applies the ops one at a time, builds predicate masks row by row
//! through [`Expr::eval_row`], and sorts by comparing boxed [`Value`]s —
//! the kernels the fused path replaced. The suites assert the two agree
//! byte for byte.

// Each integration test compiles its own copy and uses a subset.
#![allow(dead_code)]

use shareinsights::server::query::QueryOp;
use shareinsights::tabular::expr::Expr;
use shareinsights::tabular::ops::{
    distinct, filter_by_values, groupby, join, AggregateSpec, FilterByValues, GroupBy,
    JoinCondition, JoinSpec, SortKey, SortOrder,
};
use shareinsights::tabular::{Bitmap, Table, Value};
use std::cmp::Ordering;

/// Row-at-a-time predicate mask: every row evaluates the whole tree, each
/// column is looked up by name, each cell boxed.
pub fn rowwise_mask(expr: &Expr, table: &Table) -> Result<Bitmap, String> {
    for c in expr.referenced_columns() {
        table.schema().index_of(&c).map_err(|e| e.to_string())?;
    }
    let mut mask = Bitmap::new_cleared(table.num_rows());
    for i in 0..table.num_rows() {
        let lookup = |name: &str| -> Option<Value> {
            let ci = table.schema().index_of(name).ok()?;
            Some(table.column_at(ci).value(i))
        };
        let v = expr.eval_row(&lookup).map_err(|e| e.to_string())?;
        if matches!(v, Value::Bool(true)) {
            mask.set(i);
        }
    }
    Ok(mask)
}

/// Stable full sort comparing boxed values per comparison.
pub fn boxed_sort(table: &Table, keys: &[SortKey]) -> Result<Table, String> {
    let cols = keys
        .iter()
        .map(|k| table.column(&k.column).cloned().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let mut indices: Vec<usize> = (0..table.num_rows()).collect();
    indices.sort_by(|&a, &b| {
        for (key, col) in keys.iter().zip(&cols) {
            let ord = col.value(a).cmp(&col.value(b));
            let ord = match key.order {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(table.take(&indices))
}

/// Evaluate `ops` one at a time, materialising every intermediate table.
pub fn reference_query(table: &Table, ops: &[QueryOp]) -> Result<Table, String> {
    let mut current = table.clone();
    for op in ops {
        current = match op {
            QueryOp::GroupBy { key, agg, apply_on } => {
                let out = format!("{}_{}", agg.name(), apply_on);
                let cfg = GroupBy::with_aggregates(
                    &[key],
                    vec![AggregateSpec::new(*agg, apply_on.clone(), out)],
                );
                groupby(&current, &cfg).map_err(|e| e.to_string())?
            }
            QueryOp::GroupByMulti(cfg) => groupby(&current, cfg).map_err(|e| e.to_string())?,
            QueryOp::Filter { column, value } => {
                let spec = FilterByValues::single(column.clone(), vec![value.clone()]);
                filter_by_values(&current, &spec).map_err(|e| e.to_string())?
            }
            QueryOp::FilterExpr(e) => {
                let mask = rowwise_mask(e, &current)?;
                current.take(&mask.ones())
            }
            QueryOp::Sort { column, order } => boxed_sort(
                &current,
                &[SortKey {
                    column: column.clone(),
                    order: *order,
                }],
            )?,
            QueryOp::SortMulti(keys) => boxed_sort(&current, keys)?,
            QueryOp::Limit(n) => {
                let n = (*n).min(current.num_rows());
                current.take(&(0..n).collect::<Vec<_>>())
            }
            QueryOp::Offset(n) => {
                let start = (*n).min(current.num_rows());
                current.take(&(start..current.num_rows()).collect::<Vec<_>>())
            }
            QueryOp::Distinct(column) => {
                distinct(&current, std::slice::from_ref(column)).map_err(|e| e.to_string())?
            }
            QueryOp::DistinctRows(cols) => distinct(&current, cols).map_err(|e| e.to_string())?,
            QueryOp::Project(cols) => current.project(cols).map_err(|e| e.to_string())?,
            QueryOp::Join(j) => {
                let spec = JoinSpec {
                    left_keys: vec![j.left_on.clone()],
                    right_keys: vec![j.right_on.clone()],
                    condition: JoinCondition::Inner,
                    projection: Vec::new(),
                };
                join(&current, &j.right, &spec).map_err(|e| e.to_string())?
            }
            fused @ (QueryOp::TopN { .. } | QueryOp::FilteredGroupBy { .. }) => {
                return Err(format!("the reference takes unfused ops, got {fused:?}"))
            }
        };
    }
    Ok(current)
}

/// Endpoint-shaped data built to stress ordering and grouping: a
/// categorical with few values (heavy ties) and nulls, a second
/// categorical, a zone-indexed integer drawn from seven values, and a
/// float measure with nulls, signed zeros and the odd NaN. Zero-row tables
/// are in the distribution.
pub fn gen_tied_table(r: &mut shareinsights::datagen::SeededRng) -> Table {
    use shareinsights::tabular::{ColumnBuilder, DataType, Field, Schema};
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
