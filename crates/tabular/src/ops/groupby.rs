//! Hash group-by with aggregates (the paper's `groupby` task, figures 8
//! and 23).

use crate::agg::{Accumulator, AggKind};
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnRef};
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::ops::keys::{group_ids, GroupIds, KeyColumn, RowSel, Word};
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
    let mut partial = GroupByPartial::new(cfg.clone());
    partial.update_selected(table, selection)?;
    partial.into_table()
}

/// Where a partial keeps its groups' keys.
#[derive(Debug, Clone)]
enum GroupKeys {
    /// Nothing folded yet.
    Unset,
    /// One batch folded: group `g`'s key is row `reps[g]` of that batch's
    /// key columns. Nothing is boxed; finishing gathers the rows.
    Batch {
        cols: Vec<ColumnRef>,
        reps: Vec<u32>,
    },
    /// Several batches or partials folded: keys boxed once per group, and
    /// indexed so the next batch's distinct keys find their groups — also
    /// across a key column that inferred another numeric type, which is
    /// why this index compares [`Value`]s and not typed cells.
    Boxed {
        index: HashMap<Row, u32>,
        rows: Vec<Row>,
    },
}

impl GroupKeys {
    fn len(&self) -> usize {
        match self {
            GroupKeys::Unset => 0,
            GroupKeys::Batch { reps, .. } => reps.len(),
            GroupKeys::Boxed { rows, .. } => rows.len(),
        }
    }

    /// The keys boxed, one [`Row`] per group.
    fn into_rows(self) -> Vec<Row> {
        match self {
            GroupKeys::Unset => Vec::new(),
            GroupKeys::Batch { cols, reps } => reps
                .iter()
                .map(|&rep| Row(cols.iter().map(|c| c.value(rep as usize)).collect()))
                .collect(),
            GroupKeys::Boxed { rows, .. } => rows,
        }
    }

    /// Box the keys held, then the global group of each of `keys` (the
    /// distinct keys of a later batch or partial, in its group order),
    /// appending those not seen before.
    fn resolve(&mut self, keys: impl Iterator<Item = Row>) -> Vec<u32> {
        if !matches!(self, GroupKeys::Boxed { .. }) {
            let rows = std::mem::replace(self, GroupKeys::Unset).into_rows();
            let index = rows.iter().cloned().zip(0..).collect();
            *self = GroupKeys::Boxed { index, rows };
        }
        let GroupKeys::Boxed { index, rows } = self else {
            unreachable!("boxed above")
        };
        keys.map(|key| {
            let next = rows.len() as u32;
            *index.entry(key).or_insert_with_key(|key| {
                rows.push(key.clone());
                next
            })
        })
        .collect()
    }
}

/// Mergeable group-by state: the groups' keys and, per aggregate, one typed
/// [`Accumulator`] per group. One partial per partition, merged **in
/// partition order** so first-seen group order — and with it
/// order-sensitive aggregates like `first`/`collect` — match a single pass
/// over the concatenated input exactly. The batch kernel ([`groupby`]), the
/// indexed kernel and the scatter/gather all fold and finish through this
/// one type, which is what pins their outputs byte-identical.
///
/// A batch is folded in two steps: [`group_ids`] codes its key columns
/// into dense ids in first-seen order; then each aggregate runs one typed
/// loop over `(row, group)` in ascending row order. The first batch's ids
/// are the groups, and its keys stay in its columns. A later batch's
/// *distinct* keys are each looked up once against the groups so far.
#[derive(Debug, Clone)]
pub struct GroupByPartial {
    cfg: GroupBy,
    aggs: Vec<AggregateSpec>,
    /// Captured from the first batch; output schema derives from it.
    input_schema: Option<Schema>,
    keys: GroupKeys,
    /// `accs[a][g]`: aggregate `a` of group `g`.
    accs: Vec<Vec<Accumulator>>,
}

impl GroupByPartial {
    /// Empty state for a group-by configuration.
    pub fn new(cfg: GroupBy) -> GroupByPartial {
        let aggs = cfg.effective_aggregates();
        GroupByPartial {
            accs: vec![Vec::new(); aggs.len()],
            aggs,
            cfg,
            input_schema: None,
            keys: GroupKeys::Unset,
        }
    }

    /// The configuration this partial accumulates for.
    pub fn config(&self) -> &GroupBy {
        &self.cfg
    }

    /// Distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
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
        let keys = self
            .cfg
            .keys
            .iter()
            .map(|k| Ok(KeyColumn::Cells(batch.column(k)?)))
            .collect::<Result<Vec<_>>>()?;
        self.update_keyed(batch, selection, &keys).map(drop)
    }

    /// [`update_selected`](GroupByPartial::update_selected) with the key
    /// columns as the caller holds them — `keys[k]` is the configuration's
    /// `k`-th key over `batch`, as typed cells or as the dictionary codes
    /// an index already built. Returns the group of every folded row, in
    /// ascending row order, for callers that keep further per-group state.
    pub fn update_keyed(
        &mut self,
        batch: &Table,
        selection: Option<&Bitmap>,
        keys: &[KeyColumn<'_>],
    ) -> Result<Vec<u32>> {
        if let Some(mask) = selection {
            if mask.len() != batch.num_rows() {
                return Err(TabularError::LengthMismatch {
                    left: batch.num_rows(),
                    right: mask.len(),
                    context: "group-by selection mask".into(),
                });
            }
        }
        let key_cols = self
            .cfg
            .keys
            .iter()
            .map(|k| batch.column(k).cloned())
            .collect::<Result<Vec<_>>>()?;
        let agg_cols: Vec<Option<&Column>> = self
            .aggs
            .iter()
            .map(|a| match a.operator {
                AggKind::CountAll => Ok(None),
                _ => batch.column(&a.apply_on).map(|c| Some(c.as_ref())),
            })
            .collect::<Result<Vec<_>>>()?;
        if self.input_schema.is_none() {
            self.input_schema = Some(batch.schema().clone());
        }

        let rows = RowSel::new(batch.num_rows(), selection);
        let GroupIds { mut ids, reps } = group_ids(keys, &rows);
        if matches!(self.keys, GroupKeys::Unset) {
            self.keys = GroupKeys::Batch {
                cols: key_cols,
                reps,
            };
        } else {
            let boxed = |&rep: &u32| Row(key_cols.iter().map(|c| c.value(rep as usize)).collect());
            let global = self.keys.resolve(reps.iter().map(boxed));
            for id in &mut ids {
                *id = global[*id as usize];
            }
        }
        for ((spec, col), accs) in self.aggs.iter().zip(agg_cols).zip(&mut self.accs) {
            accs.resize_with(self.keys.len(), || spec.operator.accumulator());
            fold_column(spec.operator, col, &rows, &ids, accs)?;
        }
        Ok(ids)
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
            *self = other;
            return Ok(());
        }
        let global = self.keys.resolve(other.keys.into_rows().into_iter());
        for ((spec, accs), theirs) in self.aggs.iter().zip(&mut self.accs).zip(other.accs) {
            accs.resize_with(self.keys.len(), || spec.operator.accumulator());
            for (acc, &g) in theirs.into_iter().zip(&global) {
                accs[g as usize].merge(acc)?;
            }
        }
        Ok(())
    }

    /// Finish the state into the output table.
    pub fn into_table(self) -> Result<Table> {
        let Some(input_schema) = self.input_schema.as_ref() else {
            return Err(TabularError::InvalidOperation(
                "group-by finish before any input batch".into(),
            ));
        };
        let mut finished: Vec<Vec<Value>> = self
            .accs
            .into_iter()
            .zip(&self.aggs)
            .map(|(accs, spec)| accs.into_iter().map(|a| a.finish(&spec.apply_on)).collect())
            .collect::<Result<_>>()?;

        // Optional ordering by first aggregate, descending.
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        if self.cfg.orderby_aggregates {
            if let Some(first) = finished.first() {
                order.sort_by(|&a, &b| first[b].cmp(&first[a]));
            }
        }
        let from_cells = |cells: Vec<Value>| Arc::new(Column::from_values(&cells));
        let key_columns: Vec<ColumnRef> = match &self.keys {
            GroupKeys::Unset => Vec::new(),
            // A typed gather of the representative rows.
            GroupKeys::Batch { cols, reps } => {
                let rows: Vec<u32> = order.iter().map(|&g| reps[g]).collect();
                cols.iter().map(|c| Arc::new(c.take(&rows))).collect()
            }
            GroupKeys::Boxed { rows, .. } => (0..self.cfg.keys.len())
                .map(|k| from_cells(order.iter().map(|&g| rows[g][k].clone()).collect()))
                .collect(),
        };
        let agg_columns = finished.iter_mut().map(|values| {
            let cells = order
                .iter()
                .map(|&g| std::mem::replace(&mut values[g], Value::Null));
            from_cells(cells.collect())
        });

        let schema = self.cfg.output_schema(input_schema)?;
        // Honour the declared output type where possible; keep the inferred
        // one for heterogenous results.
        let columns: Vec<ColumnRef> = key_columns
            .into_iter()
            .chain(agg_columns)
            .zip(schema.fields())
            .map(|(col, f)| col.cast(f.data_type()).unwrap_or(col))
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

/// Fold the selected cells of one aggregate's input column (`None` for
/// `count_all`) into `accs[ids[..]]`, in ascending row order. The
/// `(kind, column type)` pair picks the loop; nothing is dispatched per
/// row beyond the accumulator's own variant.
fn fold_column(
    kind: AggKind,
    col: Option<&Column>,
    rows: &RowSel,
    ids: &[u32],
    accs: &mut [Accumulator],
) -> Result<()> {
    let Some(col) = col else {
        ids.iter().for_each(|&g| accs[g as usize].bump());
        return Ok(());
    };
    let nulls = col.validity_ref().filter(|v| !v.all_set());
    let cells = || {
        rows.iter()
            .zip(ids)
            .filter(|(row, _)| nulls.is_none_or(|v| v.get(*row)))
            .map(|(row, &g)| (row, g as usize))
    };
    match (kind, col) {
        // Every cell is null: nothing but `count_all` sees it.
        (_, Column::Null { .. }) => {}
        (AggKind::Count, _) => cells().for_each(|(_, g)| accs[g].bump()),
        (AggKind::Sum | AggKind::Avg, Column::Int64 { data, .. }) => {
            cells().try_for_each(|(row, g)| accs[g].add_i64(data[row]))?
        }
        (AggKind::Sum | AggKind::Avg, Column::Float64 { data, .. }) => {
            cells().try_for_each(|(row, g)| accs[g].add_f64(data[row]))?
        }
        (
            AggKind::Min | AggKind::Max | AggKind::First | AggKind::Last,
            Column::Int64 { data, .. },
        ) => fold_extremes(kind, cells(), data, Value::Int, accs)?,
        (
            AggKind::Min | AggKind::Max | AggKind::First | AggKind::Last,
            Column::Float64 { data, .. },
        ) => fold_extremes(kind, cells(), data, Value::Float, accs)?,
        (
            AggKind::Min | AggKind::Max | AggKind::First | AggKind::Last,
            Column::Date { data, .. },
        ) => fold_extremes(kind, cells(), data, Value::Date, accs)?,
        (_, Column::Utf8 { data, .. }) => {
            cells().try_for_each(|(row, g)| accs[g].see_str(&data[row]))?
        }
        // What is left boxes a fixed-width cell, which allocates nothing:
        // `count_distinct`, `collect`, the extremes over a bool column, and
        // the `sum`/`avg` errors over dates and bools.
        _ => cells().try_for_each(|(row, g)| accs[g].update(&col.value(row)))?,
    }
    Ok(())
}

/// `min`/`max`/`first`/`last` of one batch over a fixed-width column: each
/// group's winner is kept typed, compared by its [`Word`] (the cell's place
/// in [`Value::cmp`]'s order), and folded into its accumulator once, through
/// [`Accumulator::update`]. A value held from an earlier batch or a merge,
/// of whatever type, so meets it under `Value` semantics, and a tie keeps
/// the earlier value — inside the batch too, where equal keys are equal
/// cells.
fn fold_extremes<T: Word>(
    kind: AggKind,
    cells: impl Iterator<Item = (usize, usize)>,
    data: &[T],
    boxed: impl Fn(T) -> Value,
    accs: &mut [Accumulator],
) -> Result<()> {
    fn scan<T: Copy>(
        cells: impl Iterator<Item = (usize, usize)>,
        data: &[T],
        best: &mut [Option<T>],
        replaces: impl Fn(T, T) -> bool,
    ) {
        for (row, g) in cells {
            let cell = data[row];
            match &mut best[g] {
                Some(held) if replaces(*held, cell) => *held = cell,
                Some(_) => {}
                slot @ None => *slot = Some(cell),
            }
        }
    }
    let mut best: Vec<Option<T>> = vec![None; accs.len()];
    match kind {
        AggKind::Min => scan(cells, data, &mut best, |held, cell| {
            cell.word() < held.word()
        }),
        AggKind::Max => scan(cells, data, &mut best, |held, cell| {
            cell.word() > held.word()
        }),
        AggKind::First => scan(cells, data, &mut best, |_, _| false),
        _ => scan(cells, data, &mut best, |_, _| true),
    }
    for (acc, cell) in accs.iter_mut().zip(best) {
        if let Some(cell) = cell {
            acc.update(&boxed(cell))?;
        }
    }
    Ok(())
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
    fn batches_merge_across_inferred_key_types() {
        // A key column that infers Int64 in one batch and Float64 in the
        // next still lands 2 and 2.0 in one group, as boxed `Value`s
        // compare; the output key column widens like `from_values` does.
        let ints = Table::from_rows(&["k", "v"], &[row![2i64, 1i64], row![3i64, 1i64]]).unwrap();
        let floats = Table::from_rows(&["k", "v"], &[row![2.0, 10i64], row![2.5, 10i64]]).unwrap();
        let cfg =
            GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(AggKind::Sum, "v", "s")]);
        let mut partial = GroupByPartial::new(cfg.clone());
        partial.update(&ints).unwrap();
        partial.update(&floats).unwrap();
        let mut merged = groupby_partial(&ints, &cfg).unwrap();
        merged
            .merge(groupby_partial(&floats, &cfg).unwrap())
            .unwrap();
        for out in [partial.into_table().unwrap(), merged.into_table().unwrap()] {
            assert_eq!(
                out.to_rows(),
                vec![row![2.0, 11i64], row![3.0, 1i64], row![2.5, 10i64]]
            );
        }
    }

    #[test]
    fn update_keyed_returns_the_group_of_every_folded_row() {
        let t = svn_jira();
        let mut partial = GroupByPartial::new(GroupBy::counting(&["project"]));
        let keys = [KeyColumn::Cells(t.column("project").unwrap())];
        let mask = Bitmap::from_bools(&[true, false, true, true]);
        assert_eq!(
            partial.update_keyed(&t, Some(&mask), &keys).unwrap(),
            [0, 0, 1]
        );
        // A second batch continues the global numbering.
        let more = Table::from_rows(
            &["project", "year", "noOfBugs", "noOfCheckins"],
            &[
                row!["hive", 2015i64, 1i64, 1i64],
                row!["tez", 2015i64, 1i64, 1i64],
            ],
        )
        .unwrap();
        let keys = [KeyColumn::Cells(more.column("project").unwrap())];
        assert_eq!(partial.update_keyed(&more, None, &keys).unwrap(), [1, 2]);
        assert_eq!(partial.num_groups(), 3);
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
        // ascending order must reproduce filter-then-group bit for bit.
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
