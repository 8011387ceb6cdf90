//! Hash group-by with aggregates (the paper's `groupby` task, figures 8
//! and 23).

use crate::agg::AggKind;
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnRef};
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::row::Row;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One aggregate in a `groupby` task: `operator` applied to `apply_on`,
/// emitted as `out_field`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateSpec {
    /// Aggregate operator (`operator: sum`).
    pub operator: AggKind,
    /// Input column (`apply_on: noOfCheckins`). Ignored for `CountAll`.
    pub apply_on: String,
    /// Output column name (`out_field: total_checkins`).
    pub out_field: String,
}

impl AggregateSpec {
    /// Convenience constructor.
    pub fn new(
        operator: AggKind,
        apply_on: impl Into<String>,
        out_field: impl Into<String>,
    ) -> Self {
        AggregateSpec {
            operator,
            apply_on: apply_on.into(),
            out_field: out_field.into(),
        }
    }
}

/// Full `groupby` task configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBy {
    /// Grouping key columns (`groupby: [project, year]`).
    pub keys: Vec<String>,
    /// Aggregates; when empty a bare `count` column is produced, matching
    /// figure 23 where `players_count` groups by `[date, player]` and emits
    /// `count`.
    pub aggregates: Vec<AggregateSpec>,
    /// When true, order output rows by the aggregate value descending
    /// (`orderby_aggregates: true` in appendix A.2).
    pub orderby_aggregates: bool,
}

impl GroupBy {
    /// Group by keys with a default count aggregate.
    pub fn counting(keys: &[impl AsRef<str>]) -> Self {
        GroupBy {
            keys: keys.iter().map(|k| k.as_ref().to_string()).collect(),
            aggregates: Vec::new(),
            orderby_aggregates: false,
        }
    }

    /// Group by keys with explicit aggregates.
    pub fn with_aggregates(keys: &[impl AsRef<str>], aggregates: Vec<AggregateSpec>) -> Self {
        GroupBy {
            keys: keys.iter().map(|k| k.as_ref().to_string()).collect(),
            aggregates,
            orderby_aggregates: false,
        }
    }

    /// Effective aggregate list (the bare-count default when none given).
    pub fn effective_aggregates(&self) -> Vec<AggregateSpec> {
        if self.aggregates.is_empty() {
            vec![AggregateSpec::new(AggKind::CountAll, "", "count")]
        } else {
            self.aggregates.clone()
        }
    }

    /// Output schema for a given input schema: key columns (original types)
    /// followed by one column per aggregate.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        let mut fields = Vec::new();
        for k in &self.keys {
            fields.push(input.field(k)?.clone());
        }
        for a in self.effective_aggregates() {
            let in_ty = if a.operator == AggKind::CountAll {
                DataType::Null
            } else {
                input.field(&a.apply_on)?.data_type()
            };
            fields.push(Field::new(&a.out_field, a.operator.output_type(in_ty)));
        }
        Schema::new(fields)
    }
}

/// Execute a group-by. Output group order follows first occurrence of each
/// key in the input (deterministic), unless `orderby_aggregates` sorts by
/// the first aggregate descending.
pub fn groupby(table: &Table, cfg: &GroupBy) -> Result<Table> {
    groupby_selected(table, cfg, None)
}

/// [`groupby`] over only the rows set in `selection` (all rows when
/// `None`), without materialising them: byte-identical to
/// `groupby(&table.filter(selection), cfg)` because the selected rows are
/// folded in ascending row order — first-seen group order and float
/// `sum`/`avg` rounding depend on nothing else.
pub fn groupby_selected(table: &Table, cfg: &GroupBy, selection: Option<&Bitmap>) -> Result<Table> {
    if let Some(mask) = selection {
        if mask.len() != table.num_rows() {
            return Err(TabularError::LengthMismatch {
                left: table.num_rows(),
                right: mask.len(),
                context: "group-by selection mask".into(),
            });
        }
    }
    if let Some(fast) = try_groupby_fast(table, cfg, selection)? {
        return Ok(fast);
    }
    let mut partial = GroupByPartial::new(cfg.clone());
    partial.update_selected(table, selection)?;
    partial.into_table()
}

/// Call `f` on each selected row in ascending order (every row when
/// `selection` is `None`), stopping at the first error.
fn try_for_each_selected(
    rows: usize,
    selection: Option<&Bitmap>,
    f: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    match selection {
        Some(mask) => mask.iter_ones().try_for_each(f),
        None => (0..rows).try_for_each(f),
    }
}

/// Specialized kernel for the overwhelmingly common shape in the paper's
/// pipelines: one string key, aggregates that are `sum`/`count`/`count_all`
/// over integer columns. Avoids per-row `Row`/`Value` allocation — the
/// generic path's dominant cost. Returns `Ok(None)` when the shape doesn't
/// match (the generic path takes over).
fn try_groupby_fast(
    table: &Table,
    cfg: &GroupBy,
    selection: Option<&Bitmap>,
) -> Result<Option<Table>> {
    use crate::column::Column as C;
    if cfg.keys.len() != 1 {
        return Ok(None);
    }
    let aggs = cfg.effective_aggregates();
    let key_col = table.column(&cfg.keys[0])?;
    let C::Utf8 {
        data: key_data,
        validity: key_validity,
    } = key_col.as_ref()
    else {
        return Ok(None);
    };
    if key_validity.count_ones() != key_data.len() {
        return Ok(None); // null keys: generic path handles the grouping
    }

    // Resolve aggregate inputs: each must be CountAll, or Sum/Count over a
    // null-free Int64 column.
    enum FastAgg<'a> {
        Sum(&'a [i64]),
        // Count over a null-free column degenerates to CountAll, but keeping
        // the variant distinct documents which flow-file spelling produced it.
        Count,
        CountAll,
    }
    let mut fast_aggs: Vec<FastAgg<'_>> = Vec::with_capacity(aggs.len());
    for a in &aggs {
        match a.operator {
            AggKind::CountAll => fast_aggs.push(FastAgg::CountAll),
            AggKind::Sum | AggKind::Count => {
                let col = table.column(&a.apply_on)?;
                let C::Int64 { data, validity } = col.as_ref() else {
                    return Ok(None);
                };
                if validity.count_ones() != data.len() {
                    return Ok(None);
                }
                fast_aggs.push(match a.operator {
                    AggKind::Sum => FastAgg::Sum(data),
                    _ => FastAgg::Count,
                });
            }
            _ => return Ok(None),
        }
    }

    let mut index: HashMap<&str, usize> = HashMap::with_capacity(1024);
    let mut keys: Vec<&str> = Vec::new();
    let mut acc: Vec<Vec<i64>> = vec![Vec::new(); fast_aggs.len()];
    try_for_each_selected(key_data.len(), selection, |i| {
        let key = &key_data[i];
        let gid = match index.get(key) {
            Some(&g) => g,
            None => {
                let g = keys.len();
                index.insert(key, g);
                keys.push(key);
                for a in acc.iter_mut() {
                    a.push(0);
                }
                g
            }
        };
        for (ai, fa) in fast_aggs.iter().enumerate() {
            acc[ai][gid] += match fa {
                FastAgg::Sum(data) => data[i],
                FastAgg::Count | FastAgg::CountAll => 1,
            };
        }
        Ok(())
    })?;

    let mut order: Vec<usize> = (0..keys.len()).collect();
    if cfg.orderby_aggregates && !acc.is_empty() {
        order.sort_by(|&a, &b| acc[0][b].cmp(&acc[0][a]));
    }

    let key_out = Column::utf8(order.iter().map(|&g| keys[g]));
    let mut columns = vec![key_out];
    for a in &acc {
        columns.push(Column::int(order.iter().map(|&g| a[g])));
    }
    let mut fields = vec![table.schema().field(&cfg.keys[0])?.clone()];
    for a in &aggs {
        fields.push(Field::new(&a.out_field, DataType::Int64));
    }
    Ok(Some(Table::new(Schema::new(fields)?, columns)?))
}

/// Mergeable group-by state: the group index and accumulators of a
/// partial scan. One partial per partition (or per micro-batch stream),
/// merged **in partition order** so first-seen group order — and with it
/// order-sensitive aggregates like `first`/`collect` — match a single
/// pass over the concatenated input exactly. Both the batch kernel
/// ([`groupby`]'s generic path) and the scatter/gather and streaming
/// contexts finish through this one materialisation, which is what pins
/// their outputs byte-identical.
#[derive(Debug, Clone)]
pub struct GroupByPartial {
    cfg: GroupBy,
    /// Captured from the first batch; output schema derives from it.
    input_schema: Option<Schema>,
    groups: HashMap<Row, usize>,
    key_rows: Vec<Row>,
    accs: Vec<Vec<crate::agg::Accumulator>>,
}

impl GroupByPartial {
    /// Empty state for a group-by configuration.
    pub fn new(cfg: GroupBy) -> GroupByPartial {
        GroupByPartial {
            cfg,
            input_schema: None,
            groups: HashMap::new(),
            key_rows: Vec::new(),
            accs: Vec::new(),
        }
    }

    /// The configuration this partial accumulates for.
    pub fn config(&self) -> &GroupBy {
        &self.cfg
    }

    /// Distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.key_rows.len()
    }

    /// True before the first [`GroupByPartial::update`].
    pub fn is_empty_state(&self) -> bool {
        self.input_schema.is_none()
    }

    /// Fold one batch of input rows into the state.
    pub fn update(&mut self, batch: &Table) -> Result<()> {
        self.update_selected(batch, None)
    }

    /// Fold the rows of `batch` set in `selection` (all rows when `None`)
    /// into the state, in ascending row order.
    pub fn update_selected(&mut self, batch: &Table, selection: Option<&Bitmap>) -> Result<()> {
        if self.input_schema.is_none() {
            self.input_schema = Some(batch.schema().clone());
        }
        let aggs = self.cfg.effective_aggregates();
        // Resolve columns up front.
        let key_cols: Vec<_> = self
            .cfg
            .keys
            .iter()
            .map(|k| batch.column(k).cloned())
            .collect::<Result<Vec<_>>>()?;
        let agg_cols: Vec<Option<_>> = aggs
            .iter()
            .map(|a| {
                if a.operator == AggKind::CountAll {
                    Ok(None)
                } else {
                    batch.column(&a.apply_on).cloned().map(Some)
                }
            })
            .collect::<Result<Vec<_>>>()?;

        // A lone string key — the paper's common shape — resolves repeat
        // keys of this batch by borrowed `&str`, building the owned key row
        // once per distinct value instead of once per input row.
        let lone_key = match key_cols.as_slice() {
            [col] => match col.as_ref() {
                Column::Utf8 { data, validity } => Some((data, validity)),
                _ => None,
            },
            _ => None,
        };
        let mut seen: HashMap<&str, usize> = HashMap::new();

        try_for_each_selected(batch.num_rows(), selection, |i| {
            let memo = lone_key.and_then(|(data, validity)| validity.get(i).then(|| &data[i]));
            let gid = match memo.and_then(|s| seen.get(s).copied()) {
                Some(gid) => gid,
                None => {
                    let key = Row(key_cols.iter().map(|c| c.value(i)).collect());
                    let gid = match self.groups.get(&key) {
                        Some(&gid) => gid,
                        None => {
                            let gid = self.key_rows.len();
                            self.key_rows.push(key.clone());
                            self.groups.insert(key, gid);
                            self.accs
                                .push(aggs.iter().map(|a| a.operator.accumulator()).collect());
                            gid
                        }
                    };
                    if let Some(s) = memo {
                        seen.insert(s, gid);
                    }
                    gid
                }
            };
            for (ai, col) in agg_cols.iter().enumerate() {
                let v = match col {
                    Some(c) => c.value(i),
                    None => Value::Null, // CountAll ignores the value
                };
                self.accs[gid][ai].update(&v)?;
            }
            Ok(())
        })
    }

    /// Fold another partial into this one. `other` must cover rows that
    /// come after this partial's rows: groups first seen in `other` are
    /// appended in `other`'s order, reproducing global first-seen order.
    pub fn merge(&mut self, other: GroupByPartial) -> Result<()> {
        if self.cfg != other.cfg {
            return Err(TabularError::InvalidOperation(
                "group-by partial merge with mismatched configurations".into(),
            ));
        }
        if self.input_schema.is_none() {
            self.input_schema = other.input_schema;
        }
        let aggs = self.cfg.effective_aggregates();
        for (key, accs) in other.key_rows.into_iter().zip(other.accs) {
            let gid = *self.groups.entry(key.clone()).or_insert_with(|| {
                self.key_rows.push(key.clone());
                self.accs
                    .push(aggs.iter().map(|a| a.operator.accumulator()).collect());
                self.key_rows.len() - 1
            });
            for (ai, acc) in accs.into_iter().enumerate() {
                self.accs[gid][ai].merge(acc)?;
            }
        }
        Ok(())
    }

    /// Finish *clones* of the accumulators, leaving the running state
    /// intact — the streaming context snapshots per tick.
    pub fn snapshot(&self) -> Result<Table> {
        let finished: Vec<Vec<Value>> = self
            .accs
            .iter()
            .map(|group| group.iter().map(|a| a.clone().finish()).collect())
            .collect();
        self.materialize(finished)
    }

    /// Finish the state into the output table.
    pub fn into_table(mut self) -> Result<Table> {
        let finished: Vec<Vec<Value>> = std::mem::take(&mut self.accs)
            .into_iter()
            .map(|group| group.into_iter().map(|a| a.finish()).collect())
            .collect();
        self.materialize(finished)
    }

    /// Materialise output columns (shared by snapshot and finish).
    fn materialize(&self, mut finished: Vec<Vec<Value>>) -> Result<Table> {
        let Some(input_schema) = self.input_schema.as_ref() else {
            return Err(TabularError::InvalidOperation(
                "group-by finish before any input batch".into(),
            ));
        };
        let cfg = &self.cfg;
        let aggs = cfg.effective_aggregates();
        let n_groups = self.key_rows.len();
        let mut out_values: Vec<Vec<Value>> =
            vec![Vec::with_capacity(n_groups); cfg.keys.len() + aggs.len()];

        // Optional ordering by first aggregate, descending.
        let mut order: Vec<usize> = (0..n_groups).collect();
        if cfg.orderby_aggregates && !finished.is_empty() {
            order.sort_by(|&a, &b| finished[b][0].cmp(&finished[a][0]));
        }

        for &g in &order {
            for (ci, v) in self.key_rows[g].iter().enumerate() {
                out_values[ci].push(v.clone());
            }
            for (ai, v) in finished[g].drain(..).enumerate() {
                out_values[cfg.keys.len() + ai].push(v);
            }
        }

        let schema = cfg.output_schema(input_schema)?;
        let columns: Vec<ColumnRef> = out_values
            .iter()
            .zip(schema.fields())
            .map(|(vals, f)| {
                // Honour the declared output type where possible; fall back to
                // inference for heterogenous results.
                let col = Arc::new(Column::from_values(vals));
                col.cast(f.data_type()).unwrap_or(col)
            })
            .collect();
        // Schema types may have been adjusted by fallback; rebuild from columns.
        let fields: Vec<Field> = schema
            .fields()
            .iter()
            .zip(&columns)
            .map(|(f, c)| {
                if c.data_type() == DataType::Null {
                    f.clone()
                } else {
                    f.retyped(c.data_type())
                }
            })
            .collect();
        Table::from_refs(Arc::new(Schema::new(fields)?), columns)
    }
}

/// Accumulate one table into a fresh partial (the scatter side of a
/// partitioned group-by).
pub fn groupby_partial(table: &Table, cfg: &GroupBy) -> Result<GroupByPartial> {
    let mut partial = GroupByPartial::new(cfg.clone());
    partial.update(table)?;
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn svn_jira() -> Table {
        Table::from_rows(
            &["project", "year", "noOfBugs", "noOfCheckins"],
            &[
                row!["pig", 2013i64, 5i64, 100i64],
                row!["pig", 2013i64, 3i64, 50i64],
                row!["pig", 2014i64, 7i64, 80i64],
                row!["hive", 2013i64, 2i64, 30i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_figure8_composite_key_sums() {
        // figure 8: groupby [project, year] with sum aggregates.
        let cfg = GroupBy::with_aggregates(
            &["project", "year"],
            vec![
                AggregateSpec::new(AggKind::Sum, "noOfCheckins", "total_checkins"),
                AggregateSpec::new(AggKind::Sum, "noOfBugs", "total_jira"),
            ],
        );
        let out = groupby(&svn_jira(), &cfg).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(
            out.schema().names(),
            vec!["project", "year", "total_checkins", "total_jira"]
        );
        // First-seen order: (pig,2013), (pig,2014), (hive,2013)
        assert_eq!(out.value(0, "total_checkins").unwrap(), Value::Int(150));
        assert_eq!(out.value(0, "total_jira").unwrap(), Value::Int(8));
        assert_eq!(out.value(2, "total_checkins").unwrap(), Value::Int(30));
    }

    #[test]
    fn paper_figure23_bare_count_default() {
        // figure 23: groupby [date, player] with no aggregates -> count.
        let t = Table::from_rows(
            &["date", "player"],
            &[
                row!["d1", "dhoni"],
                row!["d1", "dhoni"],
                row!["d1", "kohli"],
                row!["d2", "dhoni"],
            ],
        )
        .unwrap();
        let out = groupby(&t, &GroupBy::counting(&["date", "player"])).unwrap();
        assert_eq!(out.schema().names(), vec!["date", "player", "count"]);
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "count").unwrap(), Value::Int(2));
    }

    #[test]
    fn orderby_aggregates_sorts_descending() {
        let t = Table::from_rows(
            &["word"],
            &[
                row!["a"],
                row!["b"],
                row!["b"],
                row!["b"],
                row!["c"],
                row!["c"],
            ],
        )
        .unwrap();
        let mut cfg = GroupBy::counting(&["word"]);
        cfg.orderby_aggregates = true;
        let out = groupby(&t, &cfg).unwrap();
        let counts: Vec<i64> = (0..3)
            .map(|i| out.value(i, "count").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(counts, vec![3, 2, 1]);
    }

    #[test]
    fn null_keys_group_together() {
        let t = Table::from_rows(
            &["k", "v"],
            &[
                row![Value::Null, 1i64],
                row![Value::Null, 2i64],
                row!["x", 3i64],
            ],
        )
        .unwrap();
        let cfg =
            GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(AggKind::Sum, "v", "s")]);
        let out = groupby(&t, &cfg).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "s").unwrap(), Value::Int(3));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let t = Table::from_rows(&["k", "v"], &[]).unwrap();
        let out = groupby(&t, &GroupBy::counting(&["k"])).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema().names(), vec!["k", "count"]);
    }

    #[test]
    fn missing_key_column_errors() {
        assert!(groupby(&svn_jira(), &GroupBy::counting(&["nope"])).is_err());
        let cfg = GroupBy::with_aggregates(
            &["project"],
            vec![AggregateSpec::new(AggKind::Sum, "nope", "s")],
        );
        assert!(groupby(&svn_jira(), &cfg).is_err());
    }

    #[test]
    fn avg_produces_float() {
        let cfg = GroupBy::with_aggregates(
            &["project"],
            vec![AggregateSpec::new(AggKind::Avg, "noOfBugs", "avg_bugs")],
        );
        let out = groupby(&svn_jira(), &cfg).unwrap();
        assert_eq!(
            out.schema().field("avg_bugs").unwrap().data_type(),
            DataType::Float64
        );
        assert_eq!(out.value(0, "avg_bugs").unwrap(), Value::Float(5.0));
    }

    #[test]
    fn fast_path_matches_generic_path() {
        // The single-key/int-sum specialization must be invisible: same
        // rows, same order, same schema as the generic kernel.
        let rows: Vec<Row> = (0..500)
            .map(|i| crate::row![format!("k{}", i % 37), (i % 11) as i64, (i % 7) as i64])
            .collect();
        let t = Table::from_rows(&["key", "a", "b"], &rows).unwrap();
        for orderby in [false, true] {
            let mut cfg = GroupBy::with_aggregates(
                &["key"],
                vec![
                    AggregateSpec::new(AggKind::Sum, "a", "sum_a"),
                    AggregateSpec::new(AggKind::Count, "b", "n_b"),
                    AggregateSpec::new(AggKind::CountAll, "", "n"),
                ],
            );
            cfg.orderby_aggregates = orderby;
            let fast = try_groupby_fast(&t, &cfg, None)
                .unwrap()
                .expect("shape matches");
            let generic = groupby_partial(&t, &cfg).unwrap().into_table().unwrap();
            assert_eq!(fast, generic, "orderby={orderby}");
            assert!(fast.schema().same_shape(generic.schema()));
        }
    }

    #[test]
    fn fast_path_declines_unsupported_shapes() {
        let t =
            Table::from_rows(&["k", "v"], &[crate::row!["a", 1.5], crate::row!["b", 2.5]]).unwrap();
        // Float aggregate column: decline.
        let cfg =
            GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(AggKind::Sum, "v", "s")]);
        assert!(try_groupby_fast(&t, &cfg, None).unwrap().is_none());
        // Multi-key: decline.
        let cfg = GroupBy::counting(&["k", "v"]);
        assert!(try_groupby_fast(&t, &cfg, None).unwrap().is_none());
        // Avg: decline.
        let cfg =
            GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(AggKind::Avg, "v", "m")]);
        assert!(try_groupby_fast(&t, &cfg, None).unwrap().is_none());
        // Null keys: decline (generic path groups them).
        let t = Table::from_rows(&["k", "v"], &[crate::row![Value::Null, 1i64]]).unwrap();
        let cfg = GroupBy::counting(&["k"]);
        assert!(try_groupby_fast(&t, &cfg, None).unwrap().is_none());
    }

    #[test]
    fn merged_partials_match_whole_table_groupby() {
        // Partition the input at every split point, accumulate each slice
        // into its own partial, merge in partition order, and require the
        // finished table to equal the single-pass group-by byte for byte —
        // including first-seen group order and orderby_aggregates ties.
        let rows: Vec<Row> = (0..120)
            .map(|i| {
                let v = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 9) as i64)
                };
                crate::row![format!("k{}", i % 17), v, (i % 5) as f64]
            })
            .collect();
        let t = Table::from_rows(&["key", "a", "f"], &rows).unwrap();
        for orderby in [false, true] {
            let mut cfg = GroupBy::with_aggregates(
                &["key"],
                vec![
                    AggregateSpec::new(AggKind::Sum, "a", "sum_a"),
                    AggregateSpec::new(AggKind::Avg, "a", "avg_a"),
                    AggregateSpec::new(AggKind::Min, "f", "min_f"),
                    AggregateSpec::new(AggKind::Max, "f", "max_f"),
                    AggregateSpec::new(AggKind::First, "key", "first_k"),
                    AggregateSpec::new(AggKind::Last, "key", "last_k"),
                    AggregateSpec::new(AggKind::CountDistinct, "a", "nd_a"),
                    AggregateSpec::new(AggKind::Collect, "a", "c_a"),
                ],
            );
            cfg.orderby_aggregates = orderby;
            let whole = groupby(&t, &cfg).unwrap();
            for splits in [vec![0], vec![40, 80], vec![1, 2, 119], vec![60]] {
                let mut bounds = vec![0];
                bounds.extend(&splits);
                bounds.push(t.num_rows());
                let mut merged = GroupByPartial::new(cfg.clone());
                for w in bounds.windows(2) {
                    let slice = t.slice(w[0], w[1] - w[0]);
                    merged
                        .merge(groupby_partial(&slice, &cfg).unwrap())
                        .unwrap();
                }
                let out = merged.into_table().unwrap();
                assert_eq!(out, whole, "orderby={orderby} splits={splits:?}");
                assert!(out.schema().same_shape(whole.schema()));
            }
        }
    }

    #[test]
    fn selection_groups_like_filter_then_group() {
        // Float sums are order-sensitive: folding the selected rows in
        // ascending order must reproduce filter-then-group bit for bit, on
        // the fast path (string key, int sum) and the generic one alike.
        let rows: Vec<Row> = (0..97)
            .map(|i| {
                let key = if i % 19 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("k{}", i % 5))
                };
                crate::row![key, format!("g{}", i % 3), 0.1 * i as f64, (i % 7) as i64]
            })
            .collect();
        let t = Table::from_rows(&["k", "g", "f", "n"], &rows).unwrap();
        let cfgs = [
            GroupBy::with_aggregates(
                &["k"],
                vec![
                    AggregateSpec::new(AggKind::Sum, "f", "sum_f"),
                    AggregateSpec::new(AggKind::Avg, "f", "avg_f"),
                    AggregateSpec::new(AggKind::CountAll, "", "rows"),
                ],
            ),
            GroupBy::with_aggregates(&["g"], vec![AggregateSpec::new(AggKind::Sum, "n", "s")]),
        ];
        for cfg in &cfgs {
            for keep in [|_: usize| false, |i: usize| i % 3 != 1, |_: usize| true] {
                let mask = Bitmap::from_fn(t.num_rows(), keep);
                let selected = groupby_selected(&t, cfg, Some(&mask)).unwrap();
                let filtered = groupby(&t.filter(&mask), cfg).unwrap();
                assert_eq!(selected, filtered, "{cfg:?}");
                assert!(selected.schema().same_shape(filtered.schema()));
            }
        }
        let short = Bitmap::new_set(3);
        assert!(groupby_selected(&t, &cfgs[0], Some(&short)).is_err());
    }

    #[test]
    fn partial_merge_rejects_mismatched_configs() {
        let mut a = GroupByPartial::new(GroupBy::counting(&["k"]));
        let b = GroupByPartial::new(GroupBy::counting(&["other"]));
        assert!(a.merge(b).is_err());
        // Finishing a never-updated partial has no schema to derive from.
        assert!(GroupByPartial::new(GroupBy::counting(&["k"]))
            .into_table()
            .is_err());
    }

    #[test]
    fn reduces_columns() {
        // §3.3: group operations reduce columns.
        let out = groupby(&svn_jira(), &GroupBy::counting(&["project"])).unwrap();
        assert_eq!(out.schema().len(), 2);
        assert!(out.schema().len() < svn_jira().schema().len());
    }
}
