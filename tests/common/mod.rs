//! Test support shared by the differential suites: the **unfused
//! reference evaluator** and the **row-wise keyed kernels** under it.
//!
//! `run_query` / `run_query_indexed` fuse `sort | limit` and
//! `filter | groupby`, evaluate predicates column-at-a-time, compare sort
//! keys through typed slices and group, join and de-duplicate through
//! coded keys and typed accumulators. The reference does none of that:
//! it applies the ops one at a time, builds predicate masks row by row
//! through [`Expr::eval_row`], sorts by comparing boxed [`Value`]s, and
//! keys every group-by, join, distinct and top-n by a boxed [`Row`] per
//! input row, folding boxed cells into the row engine's
//! [`ModelAccumulator`] — the kernels the typed paths replaced, kept as
//! the oracle. The suites assert the two agree byte for byte.

// Each integration test compiles its own copy and uses a subset.
#![allow(dead_code)]

use shareinsights::engine::baseline::ModelAccumulator;
use shareinsights::server::query::QueryOp;
use shareinsights::tabular::agg::AggKind;
use shareinsights::tabular::expr::Expr;
use shareinsights::tabular::ops::{GroupBy, JoinCondition, JoinSpec, SortKey, SortOrder, TopN};
use shareinsights::tabular::{
    Bitmap, Column, ColumnBuilder, DataType, Field, Row, Schema, Table, Value,
};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
            QueryOp::GroupBy(cfg) => rowwise_groupby(&current, cfg, None)?,
            QueryOp::FilterExpr(e) => {
                let mask = rowwise_mask(e, &current)?;
                current.take(&mask.ones())
            }
            QueryOp::Sort(keys) => boxed_sort(&current, keys)?,
            QueryOp::Limit(n) => {
                let n = (*n).min(current.num_rows());
                current.take(&(0..n).collect::<Vec<_>>())
            }
            QueryOp::Offset(n) => {
                let start = (*n).min(current.num_rows());
                current.take(&(start..current.num_rows()).collect::<Vec<_>>())
            }
            QueryOp::Distinct(cols) => rowwise_distinct(&current, cols)?,
            QueryOp::Project(cols) => current.project(cols).map_err(|e| e.to_string())?,
            QueryOp::Join(j) => {
                let spec = JoinSpec {
                    left_keys: vec![j.left_on.clone()],
                    right_keys: vec![j.right_on.clone()],
                    condition: JoinCondition::Inner,
                    projection: Vec::new(),
                };
                rowwise_join(&current, &j.right, &spec)?
            }
            fused @ (QueryOp::TopN { .. } | QueryOp::FilteredGroupBy { .. }) => {
                return Err(format!("the reference takes unfused ops, got {fused:?}"))
            }
        };
    }
    Ok(current)
}

fn key_columns(table: &Table, names: &[impl AsRef<str>]) -> Result<Vec<Arc<Column>>, String> {
    names
        .iter()
        .map(|k| table.column(k.as_ref()).cloned().map_err(|e| e.to_string()))
        .collect()
}

fn boxed_key(cols: &[Arc<Column>], row: usize) -> Row {
    Row(cols.iter().map(|c| c.value(row)).collect())
}

/// Output columns from boxed cells the way the group-by always finished:
/// infer the column type from the cells, cast to the declared type where
/// that is lossless, and retype the schema from what came out.
fn columns_from_cells(declared: &Schema, cells: Vec<Vec<Value>>) -> Result<Table, String> {
    let columns: Vec<Arc<Column>> = cells
        .iter()
        .zip(declared.fields())
        .map(|(vals, f)| {
            let col = Arc::new(Column::from_values(vals));
            col.cast(f.data_type()).unwrap_or(col)
        })
        .collect();
    retyped(declared, columns)
}

fn retyped(declared: &Schema, columns: Vec<Arc<Column>>) -> Result<Table, String> {
    let fields: Vec<Field> = declared
        .fields()
        .iter()
        .zip(&columns)
        .map(|(f, c)| match c.data_type() {
            DataType::Null => f.clone(),
            ty => f.retyped(ty),
        })
        .collect();
    let schema = Schema::new(fields).map_err(|e| e.to_string())?;
    Table::from_refs(Arc::new(schema), columns).map_err(|e| e.to_string())
}

/// Group-by keyed by a boxed [`Row`] per input row, every aggregate input
/// boxed and fed to a [`ModelAccumulator`] row by row.
pub fn rowwise_groupby(
    table: &Table,
    cfg: &GroupBy,
    selection: Option<&Bitmap>,
) -> Result<Table, String> {
    rowwise_groupby_batches(&[(table, selection)], cfg)
}

/// [`rowwise_groupby`] over several batches in order, as one running
/// state: what a partial updated batch by batch, or partials merged in
/// order, must equal. The output schema derives from the first batch.
pub fn rowwise_groupby_batches(
    batches: &[(&Table, Option<&Bitmap>)],
    cfg: &GroupBy,
) -> Result<Table, String> {
    let aggs = cfg.effective_aggregates();
    let mut groups: HashMap<Row, usize> = HashMap::new();
    let mut key_rows: Vec<Row> = Vec::new();
    let mut accs: Vec<Vec<ModelAccumulator>> = Vec::new();
    for &(table, selection) in batches {
        if selection.is_some_and(|m| m.len() != table.num_rows()) {
            return Err("selection mask length".into());
        }
        let keys = key_columns(table, &cfg.keys)?;
        let inputs = aggs
            .iter()
            .map(|a| match a.operator {
                AggKind::CountAll => Ok(None),
                _ => table.column(&a.apply_on).cloned().map(Some),
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for i in (0..table.num_rows()).filter(|&i| selection.is_none_or(|m| m.get(i))) {
            let key = boxed_key(&keys, i);
            let g = *groups.entry(key.clone()).or_insert_with(|| {
                key_rows.push(key);
                accs.push(
                    aggs.iter()
                        .map(|a| ModelAccumulator::new(a.operator))
                        .collect(),
                );
                accs.len() - 1
            });
            for (acc, col) in accs[g].iter_mut().zip(&inputs) {
                acc.update(&col.as_ref().map_or(Value::Null, |c| c.value(i)))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let finished: Vec<Vec<Value>> = accs
        .into_iter()
        .map(|group| {
            group
                .into_iter()
                .zip(&aggs)
                .map(|(acc, a)| acc.finish(&a.apply_on).map_err(|e| e.to_string()))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let mut order: Vec<usize> = (0..key_rows.len()).collect();
    if cfg.orderby_aggregates {
        order.sort_by(|&a, &b| finished[b][0].cmp(&finished[a][0]));
    }
    let mut cells: Vec<Vec<Value>> = vec![Vec::new(); cfg.keys.len() + aggs.len()];
    for &g in &order {
        let row = key_rows[g].iter().chain(&finished[g]);
        for (column, v) in cells.iter_mut().zip(row) {
            column.push(v.clone());
        }
    }
    let first = batches.first().ok_or("no batch")?.0;
    let declared = cfg
        .output_schema(first.schema())
        .map_err(|e| e.to_string())?;
    columns_from_cells(&declared, cells)
}

/// Hash join keyed by a boxed [`Row`] per build and per probe row; output
/// cells are copied one boxed value at a time into builders of the source
/// columns' types.
pub fn rowwise_join(left: &Table, right: &Table, spec: &JoinSpec) -> Result<Table, String> {
    let declared = spec
        .output_schema(left.schema(), right.schema())
        .map_err(|e| e.to_string())?;
    let (lkeys, rkeys) = (
        key_columns(left, &spec.left_keys)?,
        key_columns(right, &spec.right_keys)?,
    );
    let has_null = |key: &Row| key.iter().any(Value::is_null);
    let mut build: HashMap<Row, Vec<usize>> = HashMap::new();
    for i in 0..right.num_rows() {
        let key = boxed_key(&rkeys, i);
        if !has_null(&key) {
            build.entry(key).or_default().push(i);
        }
    }
    let keep_left = matches!(
        spec.condition,
        JoinCondition::LeftOuter | JoinCondition::FullOuter
    );
    let mut pairs: Vec<(Option<usize>, Option<usize>)> = Vec::new();
    let mut right_matched = vec![false; right.num_rows()];
    for i in 0..left.num_rows() {
        let key = boxed_key(&lkeys, i);
        match build.get(&key).filter(|_| !has_null(&key)) {
            Some(matches) => {
                for &m in matches {
                    pairs.push((Some(i), Some(m)));
                    right_matched[m] = true;
                }
            }
            None if keep_left => pairs.push((Some(i), None)),
            None => {}
        }
    }
    if matches!(
        spec.condition,
        JoinCondition::RightOuter | JoinCondition::FullOuter
    ) {
        let unmatched = (0..right.num_rows()).filter(|&m| !right_matched[m]);
        pairs.extend(unmatched.map(|m| (None, Some(m))));
    }
    // The projection resolves names as the kernel documents: exact, then a
    // unique case-insensitive match.
    let resolve = |side: &Table, name: &str| -> Result<Arc<Column>, String> {
        if let Ok(c) = side.column(name) {
            return Ok(c.clone());
        }
        let mut found = side
            .schema()
            .fields()
            .iter()
            .filter(|f| f.name().eq_ignore_ascii_case(name));
        match (found.next(), found.next()) {
            (Some(f), None) => side.column(f.name()).cloned().map_err(|e| e.to_string()),
            _ => Err(format!("no column {name}")),
        }
    };
    let sources: Vec<(bool, Arc<Column>)> = if spec.projection.is_empty() {
        let left = left.columns().iter().map(|c| (true, c.clone()));
        left.chain(right.columns().iter().map(|c| (false, c.clone())))
            .collect()
    } else {
        spec.projection
            .iter()
            .map(|p| {
                let side = if p.from_left { left } else { right };
                Ok((p.from_left, resolve(side, &p.column)?))
            })
            .collect::<Result<_, String>>()?
    };
    let columns = sources
        .iter()
        .map(|(from_left, source)| {
            let mut b = ColumnBuilder::new(source.data_type());
            for &(l, r) in &pairs {
                let cell = if *from_left { l } else { r }.map_or(Value::Null, |i| source.value(i));
                b.push_coerced(&cell).map_err(|e| e.to_string())?;
            }
            Ok(Arc::new(b.finish()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    retyped(&declared, columns)
}

/// Distinct keyed by a boxed [`Row`] per input row.
pub fn rowwise_distinct(table: &Table, columns: &[impl AsRef<str>]) -> Result<Table, String> {
    let keys = if columns.is_empty() {
        table.columns().to_vec()
    } else {
        key_columns(table, columns)?
    };
    let mut seen: HashSet<Row> = HashSet::new();
    let keep: Vec<usize> = (0..table.num_rows())
        .filter(|&i| seen.insert(boxed_key(&keys, i)))
        .collect();
    Ok(table.take(&keep))
}

/// Top-n partitioned by a boxed [`Row`] per input row, every partition
/// fully and stably sorted by boxed comparisons, then cut.
pub fn rowwise_topn(table: &Table, cfg: &TopN) -> Result<Table, String> {
    let keys = key_columns(table, &cfg.groupby)?;
    let order_cols = key_columns(
        table,
        &cfg.order_by.iter().map(|k| &k.column).collect::<Vec<_>>(),
    )?;
    let mut partitions: HashMap<Row, usize> = HashMap::new();
    let mut rows_of: Vec<Vec<usize>> = Vec::new();
    for i in 0..table.num_rows() {
        let p = *partitions.entry(boxed_key(&keys, i)).or_insert_with(|| {
            rows_of.push(Vec::new());
            rows_of.len() - 1
        });
        rows_of[p].push(i);
    }
    let mut keep: Vec<usize> = Vec::new();
    for rows in &mut rows_of {
        rows.sort_by(|&a, &b| {
            for (key, col) in cfg.order_by.iter().zip(&order_cols) {
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
        keep.extend(rows.iter().take(cfg.limit));
    }
    Ok(table.take(&keep))
}

/// Endpoint-shaped data built to stress ordering and grouping: a
/// categorical with few values (heavy ties) and nulls, a second
/// categorical, a zone-indexed integer drawn from seven values, and a
/// float measure with nulls, signed zeros and the odd NaN. Zero-row tables
/// are in the distribution.
pub fn gen_tied_table(r: &mut shareinsights::datagen::SeededRng) -> Table {
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
