//! The row-at-a-time reference engine: the paper's ablation baseline and
//! the one row-wise oracle the kernel suites check against.
//!
//! [`execute_naive`] runs a compiled pipeline task by task, handing
//! [`Table`]s from one task to the next as the columnar executor does. It
//! stands in for the "traditional stack" in the engine ablation: no
//! parallelism, no coded keys, a nested-loop join. Filter, built-in
//! group-by, join, sort, distinct, top-n and limit run on the row kernels
//! below, each reading one boxed [`Value`] per cell: predicates through
//! [`Expr::eval_row`], sort keys compared as boxed values, every group-by,
//! distinct and top-n keyed by a boxed [`Row`] with groups in first-seen
//! order, aggregates folded into a [`ModelAccumulator`]. Maps, union,
//! project, parallel, selection filters, custom aggregates and custom
//! tasks go through [`TaskKind::execute`].
//!
//! The kernels use `tabular::ops` for its configuration types and
//! `output_schema` only, so the suites that hold the typed kernels to
//! them, and to [`reference_query`] (an ad-hoc op list evaluated one
//! unfused op at a time), check against code the kernels do not share.
//! Both executors give the same bytes, rows in the same order.

use crate::compile::CompiledPipeline;
use crate::error::{EngineError, Result};
use crate::exec::{ExecContext, ExecResult, ExecStats, TaskRunStat};
use crate::query::QueryOp;
use crate::task::{NamedTask, TaskKind, TaskRuntime};
use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::expr::Expr;
use shareinsights_tabular::ops::{GroupBy, JoinCondition, JoinSpec, SortKey, SortOrder, TopN};
use shareinsights_tabular::{
    Bitmap, Column, ColumnBuilder, DataType, Field, Row, Schema, Table, TabularError, Value,
};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Run a compiled pipeline with the naive row engine.
pub fn execute_naive(pipeline: &CompiledPipeline, ctx: &ExecContext) -> Result<ExecResult> {
    let start = Instant::now();
    let mut tables: BTreeMap<String, Table> = ctx.tables.clone();
    let mut stats = ExecStats::default();

    for f in &pipeline.flows {
        for i in &f.inputs {
            if let Some(cfg) = pipeline.sources.get(i) {
                if !tables.contains_key(i) {
                    let t = ctx.catalog.load(cfg).map_err(|e| EngineError::Source {
                        object: i.clone(),
                        message: e.to_string(),
                    })?;
                    stats.source_rows += t.num_rows();
                    tables.insert(i.clone(), t);
                }
            }
        }
    }

    for flow in &pipeline.flows {
        let mut current: Vec<(Option<&str>, Table)> = Vec::new();
        for i in &flow.inputs {
            let t = tables.get(i).ok_or_else(|| EngineError::UnresolvedData {
                object: i.clone(),
                context: format!("flow 'D.{}' (baseline)", flow.output),
            })?;
            current.push((Some(i), t.clone()));
        }
        for task in &flow.tasks {
            let t0 = Instant::now();
            let start_us = start.elapsed().as_micros() as u64;
            let rows_in = current.iter().map(|(_, t)| t.num_rows()).sum();
            let out = apply_naive(task, std::mem::take(&mut current), &tables, ctx)?;
            stats.task_runs.push(TaskRunStat {
                task: task.name.clone(),
                task_type: task.kind.type_name().to_string(),
                flow: flow.output.clone(),
                rows_in,
                rows_out: out.num_rows(),
                start_us,
                elapsed_us: t0.elapsed().as_micros() as u64,
                notes: Vec::new(),
            });
            current.push((None, out));
        }
        let [(_, table)] = <[_; 1]>::try_from(current).map_err(|c| EngineError::Execution {
            task: format!("flow D.{}", flow.output),
            message: format!("flow ended with {} unmerged inputs", c.len()),
        })?;
        stats.rows_out.insert(flow.output.clone(), table.num_rows());
        tables.insert(flow.output.clone(), table);
    }

    stats.total_micros = start.elapsed().as_micros();
    stats.endpoint_bytes = pipeline
        .endpoints
        .iter()
        .filter_map(|e| tables.get(e))
        .map(Table::approx_bytes)
        .sum();
    Ok(ExecResult {
        tables,
        endpoints: pipeline.endpoints.clone(),
        stats,
    })
}

/// One task over the flow's current tables: on a row kernel when the task
/// is one of the seven the baseline runs itself, through
/// [`TaskKind::execute`] otherwise (which also reports a wrong input
/// count). A join takes the side named like its left object first,
/// whatever order the flow lists the two in.
fn apply_naive(
    task: &NamedTask,
    current: Vec<(Option<&str>, Table)>,
    tables: &BTreeMap<String, Table>,
    ctx: &ExecContext,
) -> Result<Table> {
    let out = match (&task.kind, current.as_slice()) {
        (TaskKind::Join(j), [a, b]) => {
            let (left, right) = if b.0 == Some(j.left_name.as_str()) {
                (&b.1, &a.1)
            } else {
                (&a.1, &b.1)
            };
            rowwise_join(left, right, &j.spec)
        }
        (TaskKind::FilterExpr(e), [(_, t)]) => rowwise_mask(e, t).map(|m| t.take(&m.ones())),
        (TaskKind::GroupBy { builtin, custom }, [(_, t)]) if custom.is_empty() => {
            rowwise_groupby(t, builtin, None)
        }
        (TaskKind::Sort(keys), [(_, t)]) => boxed_sort(t, keys),
        (TaskKind::Distinct(columns), [(_, t)]) => rowwise_distinct(t, columns),
        (TaskKind::TopN(cfg), [(_, t)]) => rowwise_topn(t, cfg),
        (TaskKind::Limit(n), [(_, t)]) => Ok(first_rows(t, *n)),
        _ => {
            let inputs: Vec<Table> = current.into_iter().map(|(_, t)| t).collect();
            let lookup = |name: &str| tables.get(name).cloned();
            let rt = TaskRuntime {
                selections: ctx.selections.as_deref(),
                lookup_table: &lookup,
            };
            return task.kind.execute(&task.name, &inputs, &rt);
        }
    };
    out.map_err(|message| EngineError::Execution {
        task: task.name.clone(),
        message,
    })
}

// ---------------------------------------------------------------------------
// Row kernels
// ---------------------------------------------------------------------------

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
    let cols = key_columns(table, &keys.iter().map(|k| &k.column).collect::<Vec<_>>())?;
    let mut indices: Vec<usize> = (0..table.num_rows()).collect();
    indices.sort_by(|&a, &b| boxed_cmp(keys, &cols, a, b));
    Ok(table.take(&indices))
}

/// Rows `a` and `b` under `keys`, whose columns are `cols`, one boxed
/// comparison per key until one differs.
fn boxed_cmp(keys: &[SortKey], cols: &[Arc<Column>], a: usize, b: usize) -> Ordering {
    keys.iter()
        .zip(cols)
        .map(|(key, col)| {
            let ord = col.value(a).cmp(&col.value(b));
            match key.order {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            }
        })
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// The first `n` rows.
fn first_rows(table: &Table, n: usize) -> Table {
    table.take(&(0..n.min(table.num_rows())).collect::<Vec<_>>())
}

/// Evaluate `ops` one at a time, materialising every intermediate table:
/// the unfused reference the ad-hoc query paths are held to.
pub fn reference_query(table: &Table, ops: &[QueryOp]) -> Result<Table, String> {
    let mut current = table.clone();
    for op in ops {
        current = match op {
            QueryOp::GroupBy(cfg) => rowwise_groupby(&current, cfg, None)?,
            QueryOp::FilterExpr(e) => current.take(&rowwise_mask(e, &current)?.ones()),
            QueryOp::Sort(keys) => boxed_sort(&current, keys)?,
            QueryOp::Limit(n) => first_rows(&current, *n),
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

/// Output columns from boxed cells, finished as the group-by kernel states
/// its output: the column type inferred from the cells, cast to the
/// declared type where that is lossless, the schema retyped from what came
/// out.
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

/// Group-by keyed by a boxed [`Row`] per input row, groups in first-seen
/// order, every aggregate input boxed and fed to a [`ModelAccumulator`]
/// row by row.
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

/// Nested-loop join, O(n·m) and the whole point of the baseline: every
/// left row's boxed key is compared with every right row's, a null never
/// matching, and nothing is hashed. Output cells are copied one boxed
/// value at a time into builders of the source columns' types; a
/// projection name resolves to an exact match, else to one unique
/// case-insensitive match.
pub fn rowwise_join(left: &Table, right: &Table, spec: &JoinSpec) -> Result<Table, String> {
    let declared = spec
        .output_schema(left.schema(), right.schema())
        .map_err(|e| e.to_string())?;
    let boxed_keys = |side: &Table, names: &[String]| -> Result<Vec<Row>, String> {
        let cols = key_columns(side, names)?;
        Ok((0..side.num_rows()).map(|i| boxed_key(&cols, i)).collect())
    };
    let lkeys = boxed_keys(left, &spec.left_keys)?;
    let rkeys = boxed_keys(right, &spec.right_keys)?;
    let equal = |l: &Row, r: &Row| {
        l.iter()
            .zip(r.iter())
            .all(|(a, b)| !a.is_null() && !b.is_null() && a == b)
    };
    let keep_left = matches!(
        spec.condition,
        JoinCondition::LeftOuter | JoinCondition::FullOuter
    );
    let mut pairs: Vec<(Option<usize>, Option<usize>)> = Vec::new();
    let mut right_matched = vec![false; right.num_rows()];
    for (i, l) in lkeys.iter().enumerate() {
        let before = pairs.len();
        for (m, r) in rkeys.iter().enumerate() {
            if equal(l, r) {
                pairs.push((Some(i), Some(m)));
                right_matched[m] = true;
            }
        }
        if keep_left && pairs.len() == before {
            pairs.push((Some(i), None));
        }
    }
    if matches!(
        spec.condition,
        JoinCondition::RightOuter | JoinCondition::FullOuter
    ) {
        let unmatched = (0..right.num_rows()).filter(|&m| !right_matched[m]);
        pairs.extend(unmatched.map(|m| (None, Some(m))));
    }
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

/// Distinct keyed by a boxed [`Row`] per input row, the first occurrence
/// kept.
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

/// Top-n partitioned by a boxed [`Row`] per input row, partitions in
/// first-seen order, every partition fully and stably sorted by boxed
/// comparisons, then cut.
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
        rows.sort_by(|&a, &b| boxed_cmp(&cfg.order_by, &order_cols, a, b));
        keep.extend(rows.iter().take(cfg.limit));
    }
    Ok(table.take(&keep))
}

/// The row engine's aggregate state, and the row-wise test oracle's: one
/// struct carrying every kind's fields, fed one boxed [`Value`] at a time,
/// sharing no code with the group-by kernel's lanes. Integer inputs are
/// summed exactly (an integer `sum` outside `i64` is an error, an integer
/// `avg` is rounded once); a float sum starts at the first float input or
/// numeric string from the exact sum so far, rounded once, and adds every
/// later input in row order; `min`/`max` keep the first of equal values.
#[derive(Debug, Clone)]
pub struct ModelAccumulator {
    kind: AggKind,
    count: i64,
    sum_i: i128,
    sum_f: f64,
    saw_float: bool,
    /// The `min`/`max`/`first`/`last` value held.
    held: Option<Value>,
    distinct: HashSet<Value>,
    collected: Vec<String>,
}

impl ModelAccumulator {
    /// Empty state for `kind`.
    pub fn new(kind: AggKind) -> Self {
        ModelAccumulator {
            kind,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            saw_float: false,
            held: None,
            distinct: HashSet::new(),
            collected: Vec::new(),
        }
    }

    /// Fold the next input value; a `sum`/`avg` over a value that is not
    /// a number or numeric text is a type mismatch.
    pub fn update(&mut self, v: &Value) -> Result<(), TabularError> {
        if self.kind == AggKind::CountAll {
            self.count += 1;
            return Ok(());
        }
        if v.is_null() {
            return Ok(());
        }
        match self.kind {
            AggKind::Count => self.count += 1,
            AggKind::Sum | AggKind::Avg => {
                let f = match v {
                    Value::Int(i) => Some(*i as f64),
                    Value::Float(f) => Some(*f),
                    Value::Str(s) => s.trim().parse::<f64>().ok(),
                    _ => None,
                }
                .ok_or_else(|| TabularError::TypeMismatch {
                    expected: "numeric".into(),
                    actual: v.data_type().to_string(),
                    context: format!("{} aggregate", self.kind),
                })?;
                self.count += 1;
                match v {
                    Value::Int(i) => self.sum_i += i128::from(*i),
                    _ if !self.saw_float => {
                        self.saw_float = true;
                        self.sum_f = self.sum_i as f64;
                    }
                    _ => {}
                }
                if self.saw_float {
                    self.sum_f += f;
                }
            }
            AggKind::Min | AggKind::Max | AggKind::First | AggKind::Last => {
                let replaces = self.held.as_ref().is_none_or(|h| match self.kind {
                    AggKind::Min => v < h,
                    AggKind::Max => v > h,
                    _ => self.kind == AggKind::Last,
                });
                if replaces {
                    self.held = Some(v.clone());
                }
            }
            AggKind::CountDistinct => {
                self.distinct.insert(v.clone());
            }
            AggKind::Collect => self.collected.push(v.to_string()),
            AggKind::CountAll => unreachable!("counted above"),
        }
        Ok(())
    }

    /// The aggregate of input `column`.
    pub fn finish(self, column: &str) -> Result<Value, TabularError> {
        Ok(match self.kind {
            AggKind::Sum if self.count == 0 => Value::Null,
            AggKind::Sum if self.saw_float => Value::Float(self.sum_f),
            AggKind::Sum => {
                Value::Int(
                    i64::try_from(self.sum_i).map_err(|_| TabularError::Overflow {
                        aggregate: "sum",
                        column: column.to_string(),
                    })?,
                )
            }
            AggKind::Count | AggKind::CountAll => Value::Int(self.count),
            AggKind::Avg if self.count == 0 => Value::Null,
            AggKind::Avg if self.saw_float => Value::Float(self.sum_f / self.count as f64),
            AggKind::Avg => Value::Float(self.sum_i as f64 / self.count as f64),
            AggKind::Min | AggKind::Max | AggKind::First | AggKind::Last => {
                self.held.unwrap_or(Value::Null)
            }
            AggKind::CountDistinct => Value::Int(self.distinct.len() as i64),
            AggKind::Collect => Value::Str(self.collected.join(",")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileEnv};
    use crate::exec::Executor;
    use crate::ext::TaskRegistry;
    use shareinsights_connectors::Catalog;
    use shareinsights_flowfile::parse_flow_file;
    use shareinsights_tabular::io::record::write_records;
    use shareinsights_tabular::row;

    /// Run both engines on the same pipeline.
    fn both(src: &str, inject: Vec<(&str, Table)>) -> (ExecResult, ExecResult) {
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        let mut ctx = ExecContext::new(Catalog::new());
        for (name, table) in inject {
            ctx = ctx.with_table(name, table);
        }
        let columnar = Executor::default().execute(&pipeline, &ctx).unwrap();
        let naive = execute_naive(&pipeline, &ctx).unwrap();
        (columnar, naive)
    }

    /// The two executors' `out` tables have the same record bytes: schema,
    /// types and cells, rows in order.
    fn assert_same_out(columnar: &ExecResult, naive: &ExecResult, what: &str) {
        let bytes = |r: &ExecResult| write_records(r.table("out").unwrap());
        assert_eq!(bytes(columnar), bytes(naive), "{what}");
    }

    #[test]
    fn filter_and_groupby_agree() {
        let src = r#"
D:
  data: [k, v]
T:
  keep:
    type: filter_by
    filter_expression: v > 1
  agg:
    type: groupby
    groupby: [k]
    aggregates:
    - operator: sum
      apply_on: v
      out_field: total
F:
  +D.out: D.data | T.keep | T.agg
"#;
        let data = Table::from_rows(
            &["k", "v"],
            &[
                row!["a", 1i64],
                row!["a", 2i64],
                row!["b", 3i64],
                row!["b", 4i64],
            ],
        )
        .unwrap();
        let (col, naive) = both(src, vec![("data", data)]);
        assert_same_out(&col, &naive, "filter | groupby");
    }

    #[test]
    fn joins_agree_on_all_conditions() {
        for cond in ["inner", "left outer", "right outer", "full outer"] {
            let src = format!(
                r#"
D:
  l: [k, v]
  r: [k, w]
T:
  j:
    type: join
    left: l by k
    right: r by k
    join_condition: {cond}
F:
  +D.out: (D.l, D.r) | T.j
"#
            );
            let l = Table::from_rows(
                &["k", "v"],
                &[row!["x", 1i64], row!["y", 2i64], row![Value::Null, 3i64]],
            )
            .unwrap();
            let r = Table::from_rows(
                &["k", "w"],
                &[row!["x", 10i64], row!["x", 11i64], row!["z", 12i64]],
            )
            .unwrap();
            let (col, naive) = both(&src, vec![("l", l), ("r", r)]);
            assert_same_out(&col, &naive, cond);
        }
    }

    #[test]
    fn map_chain_agrees() {
        let src = r#"
D:
  tweets: [posted, body]
T:
  norm:
    type: map
    operator: date
    transform: posted
    input_format: yyyy-MM-dd
    output_format: 'dd/MM/yyyy'
    output: date
  words:
    type: map
    operator: extract_words
    transform: body
    output: word
  count:
    type: groupby
    groupby: [word]
F:
  +D.out: D.tweets | T.norm | T.words | T.count
"#;
        let tweets = Table::from_rows(
            &["posted", "body"],
            &[
                row!["2013-05-02", "great game tonight"],
                row!["2013-05-03", "great crowd"],
            ],
        )
        .unwrap();
        let (col, naive) = both(src, vec![("tweets", tweets)]);
        assert_same_out(&col, &naive, "map chain");
    }

    #[test]
    fn naive_is_slower_on_big_joins() {
        // Sanity check of the ablation premise: nested loop loses by a wide
        // margin at modest sizes.
        let n = 600;
        let rows_l: Vec<Row> = (0..n)
            .map(|i| row![format!("k{}", i % 50), i as i64])
            .collect();
        let rows_r: Vec<Row> = (0..n)
            .map(|i| row![format!("k{}", i % 50), (i * 2) as i64])
            .collect();
        let l = Table::from_rows(&["k", "v"], &rows_l).unwrap();
        let r = Table::from_rows(&["k", "w"], &rows_r).unwrap();
        let src = r#"
D:
  l: [k, v]
  r: [k, w]
T:
  j:
    type: join
    left: l by k
    right: r by k
F:
  +D.out: (D.l, D.r) | T.j
"#;
        let (col, naive) = both(src, vec![("l", l), ("r", r)]);
        assert_same_out(&col, &naive, "600 x 600 rows");
        // Not asserting on wall time (CI variance); the bench measures it.
        assert!(naive.stats.total_micros > 0 && col.stats.total_micros > 0);
    }
}
