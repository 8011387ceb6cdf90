//! The naive row-at-a-time baseline executor.
//!
//! Stands in for the "traditional stack" comparator in the PERF-ENGINE
//! bench: same compiled pipeline, same task semantics, but every operator
//! works on `Vec<Row>` with per-row dynamic dispatch — a nested-loop join,
//! a BTreeMap group-by, no parallelism, no columnar layout. The crossover
//! against the columnar executor is the shape the engine ablation reports.

use crate::compile::CompiledPipeline;
use crate::error::{EngineError, Result};
use crate::exec::{ExecContext, ExecResult, ExecStats};
use crate::task::{NamedTask, TaskKind, TaskRuntime};
use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::expr::Expr;
use shareinsights_tabular::ops::JoinCondition;
use shareinsights_tabular::{Row, Schema, Table, TabularError, Value};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Rows plus their schema — the baseline's working representation.
#[derive(Debug, Clone)]
struct RowSet {
    schema: Schema,
    rows: Vec<Row>,
}

impl RowSet {
    fn from_table(t: &Table) -> RowSet {
        RowSet {
            schema: t.schema().clone(),
            rows: t.to_rows(),
        }
    }

    fn into_table(self) -> Result<Table> {
        let names = self
            .schema
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>();
        Table::from_rows(&names, &self.rows).map_err(|e| EngineError::Internal(e.to_string()))
    }

    fn col(&self, name: &str) -> Result<usize> {
        self.schema
            .index_of(name)
            .map_err(|e| EngineError::Internal(e.to_string()))
    }
}

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
        let mut current: Vec<(Option<String>, RowSet)> = Vec::new();
        for i in &flow.inputs {
            let t = tables.get(i).ok_or_else(|| EngineError::UnresolvedData {
                object: i.clone(),
                context: format!("flow 'D.{}' (baseline)", flow.output),
            })?;
            current.push((Some(i.clone()), RowSet::from_table(t)));
        }
        for task in &flow.tasks {
            let t0 = Instant::now();
            let start_us = start.elapsed().as_micros() as u64;
            let in_rows: usize = current.iter().map(|(_, r)| r.rows.len()).sum();
            current = apply_naive(task, current, &tables, ctx)?;
            let out_rows: usize = current.iter().map(|(_, r)| r.rows.len()).sum();
            stats.task_runs.push(crate::exec::TaskRunStat {
                task: task.name.clone(),
                task_type: task.kind.type_name().to_string(),
                flow: flow.output.clone(),
                rows_in: in_rows,
                rows_out: out_rows,
                start_us,
                elapsed_us: t0.elapsed().as_micros() as u64,
                notes: Vec::new(),
            });
        }
        if current.len() != 1 {
            return Err(EngineError::Execution {
                task: format!("flow D.{}", flow.output),
                message: format!("flow ended with {} unmerged inputs", current.len()),
            });
        }
        let table = current.remove(0).1.into_table()?;
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

fn apply_naive(
    task: &NamedTask,
    mut current: Vec<(Option<String>, RowSet)>,
    tables: &BTreeMap<String, Table>,
    ctx: &ExecContext,
) -> Result<Vec<(Option<String>, RowSet)>> {
    match &task.kind {
        TaskKind::FilterExpr(e) => {
            let (_, rs) = take_single(task, &mut current)?;
            Ok(vec![(None, naive_filter(task, rs, e)?)])
        }
        TaskKind::GroupBy { builtin, custom } if custom.is_empty() => {
            let (_, rs) = take_single(task, &mut current)?;
            Ok(vec![(None, naive_groupby(task, rs, builtin)?)])
        }
        TaskKind::Join(j) => {
            if current.len() != 2 {
                return Err(EngineError::Execution {
                    task: task.name.clone(),
                    message: format!("join needs 2 inputs, found {}", current.len()),
                });
            }
            let left_idx = current
                .iter()
                .position(|(n, _)| n.as_deref() == Some(j.left_name.as_str()))
                .unwrap_or(0);
            let right = current.remove(1 - left_idx.min(1)).1;
            // After removal the left sits at index 0 regardless.
            let left = current.remove(0).1;
            let (left, right) = if left_idx == 0 {
                (left, right)
            } else {
                (right, left)
            };
            Ok(vec![(None, naive_join(task, left, right, j)?)])
        }
        // Everything else reuses the columnar kernels via a table
        // round-trip: the baseline's interesting divergences are the three
        // hot operators above.
        _ => {
            let inputs: Vec<Table> = current
                .drain(..)
                .map(|(_, rs)| rs.into_table())
                .collect::<Result<Vec<_>>>()?;
            let lookup = |name: &str| tables.get(name).cloned();
            let rt = TaskRuntime {
                selections: ctx.selections.as_deref(),
                lookup_table: &lookup,
            };
            let out = task.kind.execute(&task.name, &inputs, &rt)?;
            Ok(vec![(None, RowSet::from_table(&out))])
        }
    }
}

fn take_single(
    task: &NamedTask,
    current: &mut Vec<(Option<String>, RowSet)>,
) -> Result<(Option<String>, RowSet)> {
    if current.len() != 1 {
        return Err(EngineError::Execution {
            task: task.name.clone(),
            message: format!("task consumes one input, found {}", current.len()),
        });
    }
    Ok(current.remove(0))
}

fn naive_filter(task: &NamedTask, rs: RowSet, expr: &Expr) -> Result<RowSet> {
    let schema = rs.schema.clone();
    let mut out = Vec::new();
    for row in rs.rows {
        let lookup =
            |name: &str| -> Option<Value> { schema.index_of(name).ok().map(|i| row[i].clone()) };
        let keep = expr.eval_row(&lookup).map_err(|e| EngineError::Execution {
            task: task.name.clone(),
            message: e.to_string(),
        })?;
        if matches!(keep, Value::Bool(true)) {
            out.push(row);
        }
    }
    Ok(RowSet { schema, rows: out })
}

fn naive_groupby(
    task: &NamedTask,
    rs: RowSet,
    cfg: &shareinsights_tabular::ops::GroupBy,
) -> Result<RowSet> {
    let exec_err = |e: shareinsights_tabular::TabularError| EngineError::Execution {
        task: task.name.clone(),
        message: e.to_string(),
    };
    let key_idx: Vec<usize> = cfg
        .keys
        .iter()
        .map(|k| rs.col(k))
        .collect::<Result<Vec<_>>>()?;
    let aggs = cfg.effective_aggregates();
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| {
            if a.operator == AggKind::CountAll {
                Ok(None)
            } else {
                rs.col(&a.apply_on).map(Some)
            }
        })
        .collect::<Result<Vec<_>>>()?;

    // BTreeMap keeps deterministic (sorted) group order for the baseline.
    let mut groups: BTreeMap<Row, Vec<ModelAccumulator>> = BTreeMap::new();
    for row in &rs.rows {
        let key = row.project(&key_idx);
        let accs = groups.entry(key).or_insert_with(|| {
            aggs.iter()
                .map(|a| ModelAccumulator::new(a.operator))
                .collect()
        });
        for (ai, idx) in agg_idx.iter().enumerate() {
            let v = idx.map(|i| row[i].clone()).unwrap_or(Value::Null);
            accs[ai].update(&v).map_err(exec_err)?;
        }
    }
    let out_schema = cfg.output_schema(&rs.schema).map_err(exec_err)?;
    let mut rows = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut row = key;
        for (acc, a) in accs.into_iter().zip(&aggs) {
            row.push(acc.finish(&a.apply_on).map_err(exec_err)?);
        }
        rows.push(row);
    }
    Ok(RowSet {
        schema: out_schema,
        rows,
    })
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

/// Nested-loop join — O(n·m), the whole point of the baseline.
fn naive_join(
    task: &NamedTask,
    left: RowSet,
    right: RowSet,
    j: &crate::task::JoinTask,
) -> Result<RowSet> {
    let exec_err = |e: shareinsights_tabular::TabularError| EngineError::Execution {
        task: task.name.clone(),
        message: e.to_string(),
    };
    let spec = &j.spec;
    let out_schema = spec
        .output_schema(&left.schema, &right.schema)
        .map_err(exec_err)?;
    let lkeys: Vec<usize> = spec
        .left_keys
        .iter()
        .map(|k| left.col(k))
        .collect::<Result<Vec<_>>>()?;
    let rkeys: Vec<usize> = spec
        .right_keys
        .iter()
        .map(|k| right.col(k))
        .collect::<Result<Vec<_>>>()?;

    // Projection plan: (from_left, column index on that side).
    let proj: Vec<(bool, usize)> = if spec.projection.is_empty() {
        let mut p: Vec<(bool, usize)> = (0..left.schema.len()).map(|i| (true, i)).collect();
        p.extend((0..right.schema.len()).map(|i| (false, i)));
        p
    } else {
        spec.projection
            .iter()
            .map(|ps| {
                let side = if ps.from_left { &left } else { &right };
                // Same case-insensitive fallback the columnar join applies.
                let idx = side.col(&ps.column).or_else(|e| {
                    side.schema
                        .fields()
                        .iter()
                        .position(|f| f.name().eq_ignore_ascii_case(&ps.column))
                        .ok_or(e)
                })?;
                Ok((ps.from_left, idx))
            })
            .collect::<Result<Vec<_>>>()?
    };

    let emit = |l: Option<&Row>, r: Option<&Row>| -> Row {
        Row(proj
            .iter()
            .map(|(from_left, idx)| {
                let side = if *from_left { l } else { r };
                side.map(|row| row[*idx].clone()).unwrap_or(Value::Null)
            })
            .collect())
    };

    let keys_match = |l: &Row, r: &Row| -> bool {
        lkeys.iter().zip(&rkeys).all(|(&li, &ri)| {
            let (a, b) = (&l[li], &r[ri]);
            !a.is_null() && !b.is_null() && a == b
        })
    };

    let mut rows = Vec::new();
    let mut right_matched = vec![false; right.rows.len()];
    for l in &left.rows {
        let mut matched = false;
        for (ri, r) in right.rows.iter().enumerate() {
            if keys_match(l, r) {
                rows.push(emit(Some(l), Some(r)));
                right_matched[ri] = true;
                matched = true;
            }
        }
        if !matched
            && matches!(
                spec.condition,
                JoinCondition::LeftOuter | JoinCondition::FullOuter
            )
        {
            rows.push(emit(Some(l), None));
        }
    }
    if matches!(
        spec.condition,
        JoinCondition::RightOuter | JoinCondition::FullOuter
    ) {
        for (ri, m) in right_matched.iter().enumerate() {
            if !m {
                rows.push(emit(None, Some(&right.rows[ri])));
            }
        }
    }
    Ok(RowSet {
        schema: out_schema,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileEnv};
    use crate::exec::Executor;
    use crate::ext::TaskRegistry;
    use shareinsights_connectors::Catalog;
    use shareinsights_flowfile::parse_flow_file;
    use shareinsights_tabular::row;

    /// Run both engines on the same pipeline and compare row multisets.
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

    fn sorted_rows(t: &Table) -> Vec<Row> {
        let mut rows = t.to_rows();
        rows.sort();
        rows
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
        assert_eq!(
            sorted_rows(col.table("out").unwrap()),
            sorted_rows(naive.table("out").unwrap())
        );
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
            assert_eq!(
                sorted_rows(col.table("out").unwrap()),
                sorted_rows(naive.table("out").unwrap()),
                "condition {cond}"
            );
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
        assert_eq!(
            sorted_rows(col.table("out").unwrap()),
            sorted_rows(naive.table("out").unwrap())
        );
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
        assert_eq!(
            col.table("out").unwrap().num_rows(),
            naive.table("out").unwrap().num_rows()
        );
        // Not asserting on wall time (CI variance); the bench measures it.
        assert!(naive.stats.total_micros > 0 && col.stats.total_micros > 0);
    }
}
