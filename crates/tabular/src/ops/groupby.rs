//! Hash group-by with aggregates (the paper's `groupby` task, figures 8
//! and 23).

use crate::agg::AggKind;
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnRef};
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::ops::keys::{group_ids, GroupIds, KeyColumn, RowSel, Word, NONE};
use crate::row::Row;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
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

/// Mergeable group-by state: the groups' keys and, per aggregate, one lane
/// holding that aggregate for every group, stored by column (an `i64`
/// count; an exact integer sum, its wrap count and a float sum in row
/// order; each group's `min`/`max`/`first`/`last` as a fixed-width word,
/// or as a [`Value`] where the input is not one fixed-width type; each
/// group's distinct values or collected text). The lanes are the one
/// statement of what each aggregate means. One partial per partition,
/// merged **in partition order** so first-seen group order —
/// and with it order-sensitive aggregates like `first`/`collect` — match a
/// single pass over the concatenated input exactly. The batch kernel
/// ([`groupby`]), the indexed kernel and the engine's task all fold and
/// finish through this one type, which is what pins their outputs
/// byte-identical.
///
/// A batch is folded in two steps: its selected rows are paired with their
/// groups, then each lane runs one typed loop over the pairs in ascending
/// row order, so float sums round exactly as a row-by-row fold does. The
/// pairs come from [`group_ids`], which codes the key columns into dense
/// ids in first-seen order — or, for one dictionary-coded key in a fresh
/// partial, from the selection mask's words a chunk at a time, each row's
/// code resolved to its group inline. The first batch's ids are the
/// groups, and its keys stay in its columns. A later batch's *distinct*
/// keys are each looked up once against the groups so far.
#[derive(Debug, Clone)]
pub struct GroupByPartial {
    cfg: GroupBy,
    aggs: Vec<AggregateSpec>,
    /// Captured from the first batch; output schema derives from it.
    input_schema: Option<Schema>,
    keys: GroupKeys,
    /// `lanes[a]`: aggregate `a` of every group; made by the first batch.
    lanes: Vec<Lane>,
}

impl GroupByPartial {
    /// Empty state for a group-by configuration.
    pub fn new(cfg: GroupBy) -> GroupByPartial {
        GroupByPartial {
            aggs: cfg.effective_aggregates(),
            cfg,
            input_schema: None,
            keys: GroupKeys::Unset,
            lanes: Vec::new(),
        }
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
        self.update_keyed(batch, selection, &keys)
    }

    /// [`update_selected`](GroupByPartial::update_selected) with the key
    /// columns as the caller holds them — `keys[k]` is the configuration's
    /// `k`-th key over `batch`, as typed cells or as the dictionary codes
    /// an index already built.
    pub fn update_keyed(
        &mut self,
        batch: &Table,
        selection: Option<&Bitmap>,
        keys: &[KeyColumn<'_>],
    ) -> Result<()> {
        let n = batch.num_rows();
        if let Some(mask) = selection {
            if mask.len() != n {
                return Err(TabularError::LengthMismatch {
                    left: n,
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
        let inputs = self
            .aggs
            .iter()
            .map(|a| match a.operator {
                AggKind::CountAll => Ok(Input::new(a.operator, None)),
                _ => Ok(Input::new(a.operator, Some(batch.column(&a.apply_on)?))),
            })
            .collect::<Result<Vec<_>>>()?;
        if self.input_schema.is_none() {
            self.input_schema = Some(batch.schema().clone());
            self.lanes = inputs.iter().map(Lane::new).collect();
        }
        for (lane, input) in self.lanes.iter_mut().zip(&inputs) {
            lane.meet(input.col);
        }

        match (keys, &self.keys) {
            // One coded key in a fresh partial: the code is the group's
            // identity, so each selected row finds its group inline.
            (&[KeyColumn::Coded { codes, cardinality }], GroupKeys::Unset) => {
                assert!(n < NONE as usize, "{n} rows do not fit u32 row ids");
                let reps = fold_coded(&mut self.lanes, &inputs, codes, cardinality, selection)?;
                self.keys = GroupKeys::Batch {
                    cols: key_cols,
                    reps,
                };
            }
            _ => {
                let rows = RowSel::new(n, selection);
                let GroupIds { mut ids, reps } = group_ids(keys, &rows);
                if matches!(self.keys, GroupKeys::Unset) {
                    self.keys = GroupKeys::Batch {
                        cols: key_cols,
                        reps,
                    };
                } else {
                    let boxed =
                        |&rep: &u32| Row(key_cols.iter().map(|c| c.value(rep as usize)).collect());
                    let global = self.keys.resolve(reps.iter().map(boxed));
                    for id in &mut ids {
                        *id = global[*id as usize];
                    }
                }
                let rows = match &rows {
                    RowSel::All(_) => Rows::From(0),
                    RowSel::Picked(rows) => Rows::Listed(rows),
                };
                fold_lanes(&mut self.lanes, &inputs, rows, &ids, self.keys.len())?;
            }
        }
        Ok(())
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
        if other.is_empty_state() {
            return Ok(());
        }
        if self.is_empty_state() {
            *self = other;
            return Ok(());
        }
        let global = self.keys.resolve(other.keys.into_rows().into_iter());
        let groups = self.keys.len();
        for ((lane, spec), theirs) in self.lanes.iter_mut().zip(&self.aggs).zip(other.lanes) {
            lane.grow(groups);
            lane.merge(spec.operator, theirs, &global);
        }
        Ok(())
    }

    /// Finish the state into the output table. Most lanes become their
    /// output column directly; a `Values` lane, a `collect` lane and a
    /// `sum`/`avg` lane that folded a float finish as [`Value`]s through
    /// [`Column::from_values`] and a cast to the declared type, so
    /// all-null and mixed-type results come out as they always did.
    pub fn into_table(self) -> Result<Table> {
        let Some(input_schema) = self.input_schema.as_ref() else {
            return Err(TabularError::InvalidOperation(
                "group-by finish before any input batch".into(),
            ));
        };
        let finished: Vec<Finished> = self
            .lanes
            .into_iter()
            .zip(&self.aggs)
            .map(|(lane, spec)| lane.finish(spec.operator, &spec.apply_on))
            .collect::<Result<_>>()?;

        // Optional ordering by first aggregate, descending.
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        let sorted = self.cfg.orderby_aggregates && !finished.is_empty();
        if sorted {
            order.sort_by(|&a, &b| finished[0].cmp(b, a));
        }
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
        let agg_columns = finished.into_iter().map(|f| match f {
            Finished::Typed(col) if sorted => Arc::new(col.take(&order)),
            Finished::Typed(col) => Arc::new(col),
            Finished::Boxed(mut values) => from_cells(
                order
                    .iter()
                    .map(|&g| std::mem::replace(&mut values[g], Value::Null))
                    .collect(),
            ),
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

/// A column inferred from boxed cells.
fn from_cells(cells: Vec<Value>) -> ColumnRef {
    Arc::new(Column::from_values(&cells))
}

/// Rows coded per chunk by [`fold_coded`]: a chunk's groups (and rows,
/// under a selection) are gathered into buffers that stay in L1, then each
/// lane runs one typed loop over them.
const CHUNK: usize = 1024;

/// The rows of a run of `(row, group)` pairs; the groups are a slice
/// beside it.
#[derive(Clone, Copy)]
enum Rows<'a> {
    /// `start`, `start + 1`, … — every row of a range.
    From(usize),
    /// The rows listed, ascending.
    Listed(&'a [u32]),
}

/// Fold the pairs of `rows` and `ids` into `lanes[a]` from `inputs[a]`,
/// the lanes grown to `groups` first.
fn fold_lanes(
    lanes: &mut [Lane],
    inputs: &[Input<'_>],
    rows: Rows<'_>,
    ids: &[u32],
    groups: usize,
) -> Result<()> {
    lanes.iter_mut().zip(inputs).try_for_each(|(lane, input)| {
        lane.grow(groups);
        lane.fold(input, rows, ids)
    })
}

/// Fold the rows of a fresh partial's one dictionary-coded key set in
/// `selection` (all when `None`) into `lanes`, a chunk at a time, each
/// code's group found inline through a dense `code → group` table.
/// Returns each group's first row.
fn fold_coded(
    lanes: &mut [Lane],
    inputs: &[Input<'_>],
    codes: &[u32],
    cardinality: usize,
    selection: Option<&Bitmap>,
) -> Result<Vec<u32>> {
    // A null's code is NONE; it groups in the last slot.
    let mut group_of = vec![NONE; cardinality + 1];
    let mut reps = Vec::new();
    let mut group = |row: usize, reps: &mut Vec<u32>| {
        let slot = (codes[row] as usize).min(cardinality);
        if group_of[slot] == NONE {
            group_of[slot] = reps.len() as u32;
            reps.push(row as u32);
        }
        group_of[slot]
    };
    let mut ids = [0u32; CHUNK];
    match selection {
        None => {
            for start in (0..codes.len()).step_by(CHUNK) {
                let ids = &mut ids[..CHUNK.min(codes.len() - start)];
                for (row, id) in (start..).zip(ids.iter_mut()) {
                    *id = group(row, &mut reps);
                }
                fold_lanes(lanes, inputs, Rows::From(start), ids, reps.len())?;
            }
        }
        Some(mask) => {
            // The set bits of each run of CHUNK / 64 words, ascending.
            let mut rows = [0u32; CHUNK];
            for (at, words) in mask.words().chunks(CHUNK / 64).enumerate() {
                let mut len = 0;
                for (w, &word) in words.iter().enumerate() {
                    let base = at * CHUNK + w * 64;
                    let mut bits = word;
                    while bits != 0 {
                        let row = base + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        rows[len] = row as u32;
                        ids[len] = group(row, &mut reps);
                        len += 1;
                    }
                }
                let (rows, ids) = (&rows[..len], &ids[..len]);
                fold_lanes(lanes, inputs, Rows::Listed(rows), ids, reps.len())?;
            }
        }
    }
    Ok(reps)
}

/// One aggregate's input over a batch: its column (`None` for
/// `count_all`), and the column's validity when it holds a null.
struct Input<'a> {
    kind: AggKind,
    col: Option<&'a Column>,
    nulls: Option<&'a Bitmap>,
}

impl<'a> Input<'a> {
    fn new(kind: AggKind, col: Option<&'a Column>) -> Input<'a> {
        let nulls = col.and_then(Column::validity_ref).filter(|v| !v.all_set());
        Input { kind, col, nulls }
    }
}

/// One aggregate's state for every group, stored by column: index `g` is
/// group `g`. The kind picks the lane; the first batch's column type
/// picks between `Best` and `Values`.
#[derive(Debug, Clone)]
enum Lane {
    /// `count` (non-null cells) and `count_all` (rows), over any column.
    Count(Vec<i64>),
    /// `sum`/`avg` over numbers and numeric text.
    Sum(Sums),
    /// `min`/`max`/`first`/`last` over a fixed-width column of type `ty`:
    /// each group's winner as its [`Word`], the cell's place in
    /// [`Value::cmp`]'s order. A tie keeps the earlier cell.
    Best {
        ty: DataType,
        best: Vec<Option<i64>>,
    },
    /// `min`/`max`/`first`/`last` over anything else — text, a first
    /// batch whose column is all null, a `Best` lane that met a second
    /// input type — each group's winner as a [`Value`], in [`Value`]'s
    /// order. A tie keeps the earlier value.
    Values(Vec<Option<Value>>),
    /// `count_distinct`: each group's distinct non-null values.
    Distinct(Vec<HashSet<Value>>),
    /// `collect`: each group's rendered non-null values in call order,
    /// joined by `,`; `None` before the first.
    Collect(Vec<Option<String>>),
}

impl Lane {
    /// An empty lane for `input`'s aggregate and column type.
    fn new(input: &Input<'_>) -> Lane {
        use AggKind::*;
        use DataType::{Bool, Date, Float64, Int64};
        match (input.kind, input.col.map(Column::data_type)) {
            (Count | CountAll, _) => Lane::Count(Vec::new()),
            (Sum | Avg, _) => Lane::Sum(Sums::default()),
            (Min | Max | First | Last, Some(ty @ (Int64 | Float64 | Date | Bool))) => Lane::Best {
                ty,
                best: Vec::new(),
            },
            (Min | Max | First | Last, _) => Lane::Values(Vec::new()),
            (CountDistinct, _) => Lane::Distinct(Vec::new()),
            (Collect, _) => Lane::Collect(Vec::new()),
        }
    }

    /// Ready to fold `col`: a `Best` lane that meets a second column type
    /// turns into a `Values` lane, each group's winner kept. A column of
    /// nulls adds nothing, so it meets every lane.
    fn meet(&mut self, col: Option<&Column>) {
        if let (Lane::Best { ty, .. }, Some(col)) = (&*self, col) {
            if col.data_type() != *ty && !matches!(col, Column::Null { .. }) {
                self.widen();
            }
        }
    }

    /// Turn a `Best` lane into a `Values` lane; any other is unchanged.
    fn widen(&mut self) {
        if let Lane::Best { ty, best } = self {
            let col = winners_column(*ty, std::mem::take(best));
            let held = (0..col.len()).map(|g| Some(col.value(g)).filter(|v| !v.is_null()));
            *self = Lane::Values(held.collect());
        }
    }

    /// Grow to `groups` groups, the new ones empty.
    fn grow(&mut self, groups: usize) {
        match self {
            Lane::Count(n) => to(n, groups, 0),
            Lane::Sum(sums) => sums.grow(groups),
            Lane::Best { best, .. } => to(best, groups, None),
            Lane::Values(held) => to(held, groups, None),
            Lane::Distinct(seen) => to(seen, groups, HashSet::new()),
            Lane::Collect(items) => to(items, groups, None),
        }
    }

    /// Fold the non-null cells of `input` at `rows` into groups `ids`, in
    /// the order given. The lane has [`met`](Lane::meet) the input.
    fn fold(&mut self, input: &Input<'_>, rows: Rows<'_>, ids: &[u32]) -> Result<()> {
        let Some(col) = input.col else {
            // `count_all`: every row.
            if let Lane::Count(n) = self {
                let n = n.as_mut_slice();
                ids.iter().for_each(|&g| n[g as usize] += 1);
            }
            return Ok(());
        };
        let groups = ids.iter().map(|&g| g as usize);
        let kind = input.kind;
        match (rows, input.nulls) {
            (Rows::From(start), None) => self.fold_cells(kind, col, (start..).zip(groups)),
            (Rows::From(start), Some(valid)) => {
                let cells = (start..).zip(groups).filter(|&(row, _)| valid.get(row));
                self.fold_cells(kind, col, cells)
            }
            (Rows::Listed(rows), None) => {
                self.fold_cells(kind, col, rows.iter().map(|&row| row as usize).zip(groups))
            }
            (Rows::Listed(rows), Some(valid)) => {
                let cells = rows.iter().map(|&row| row as usize).zip(groups);
                self.fold_cells(kind, col, cells.filter(|&(row, _)| valid.get(row)))
            }
        }
    }

    /// [`fold`](Lane::fold) of the `(row, group)` pairs `cells`, whose
    /// cells are not null.
    fn fold_cells(
        &mut self,
        kind: AggKind,
        col: &Column,
        mut cells: impl Iterator<Item = (usize, usize)>,
    ) -> Result<()> {
        // Each arm works on slices: a store into a lane cannot move a
        // slice's pointer, so nothing is reloaded per cell.
        match (self, col) {
            // Every cell is null: nothing but `count_all` sees it.
            (_, Column::Null { .. }) => {}
            (Lane::Count(n), _) => {
                let n = n.as_mut_slice();
                cells.for_each(|(_, g)| n[g] += 1)
            }
            (Lane::Sum(sums), Column::Int64 { data, .. }) => sums.fold_ints(data, cells),
            (Lane::Sum(sums), Column::Float64 { data, .. }) => {
                sums.fold_floats(cells.map(|(row, g)| (g, data[row])))
            }
            // Schema-light CSV columns are often text but numeric in
            // content: each cell is parsed, and counts as a float.
            (Lane::Sum(sums), Column::Utf8 { data, .. }) => {
                let mut parsed = true;
                sums.fold_floats(cells.map_while(|(row, g)| {
                    let x = data[row].trim().parse::<f64>().ok();
                    parsed = x.is_some();
                    Some((g, x?))
                }));
                if !parsed {
                    return Err(not_numeric(kind, DataType::Utf8));
                }
            }
            (Lane::Sum(_), col) => {
                if cells.next().is_some() {
                    return Err(not_numeric(kind, col.data_type()));
                }
            }
            (Lane::Best { best, .. }, Column::Int64 { data, .. }) => {
                pick(kind, best, words(data, cells))
            }
            (Lane::Best { best, .. }, Column::Float64 { data, .. }) => {
                pick(kind, best, words(data, cells))
            }
            (Lane::Best { best, .. }, Column::Date { data, .. }) => {
                pick(kind, best, words(data, cells))
            }
            (Lane::Best { best, .. }, Column::Bool { data, .. }) => {
                pick(kind, best, words(data, cells))
            }
            (Lane::Values(held), Column::Utf8 { data, .. }) => {
                cells.for_each(|(row, g)| keep_str(kind, &mut held[g], &data[row]))
            }
            // A fixed-width cell boxes without allocating.
            (Lane::Values(held), col) => {
                cells.for_each(|(row, g)| keep(kind, &mut held[g], col.value(row)))
            }
            (Lane::Distinct(seen), col) => cells.for_each(|(row, g)| {
                seen[g].insert(col.value(row));
            }),
            (Lane::Collect(items), Column::Utf8 { data, .. }) => {
                cells.for_each(|(row, g)| collect(&mut items[g], &data[row]))
            }
            (Lane::Collect(items), col) => {
                cells.for_each(|(row, g)| collect(&mut items[g], col.value(row)))
            }
            (lane, col) => unreachable!("{lane:?} folding a {} column", col.data_type()),
        }
        Ok(())
    }

    /// Fold `other` — a lane of the same aggregate over later rows, whose
    /// group `i` is this lane's group `global[i]` — into this one. Two
    /// `Best` lanes of different types, or a `Best` and a `Values` lane,
    /// meet as `Values` lanes.
    fn merge(&mut self, kind: AggKind, mut other: Lane, global: &[u32]) {
        let same_words = matches!(
            (&*self, &other),
            (Lane::Best { ty, .. }, Lane::Best { ty: theirs, .. }) if ty == theirs
        );
        if !same_words {
            self.widen();
            other.widen();
        }
        let at = global.iter().map(|&g| g as usize);
        match (self, other) {
            (Lane::Count(n), Lane::Count(more)) => at.zip(more).for_each(|(g, m)| n[g] += m),
            (Lane::Sum(sums), Lane::Sum(more)) => sums.merge(more, global),
            (Lane::Best { best, .. }, Lane::Best { best: more, .. }) => {
                let held = at.zip(more).filter_map(|(g, word)| Some((g, word?)));
                pick(kind, best, held)
            }
            (Lane::Values(held), Lane::Values(more)) => at
                .zip(more)
                .filter_map(|(g, v)| Some((g, v?)))
                .for_each(|(g, v)| keep(kind, &mut held[g], v)),
            (Lane::Distinct(seen), Lane::Distinct(more)) => {
                at.zip(more).for_each(|(g, more)| seen[g].extend(more))
            }
            (Lane::Collect(items), Lane::Collect(more)) => at
                .zip(more)
                .filter_map(|(g, item)| Some((g, item?)))
                .for_each(|(g, item)| collect(&mut items[g], item)),
            (lane, other) => unreachable!("{lane:?} merging {other:?}"),
        }
    }

    /// The finished value of every group; an integer `sum` past `i64` is
    /// a [`TabularError::Overflow`] on input `column`.
    fn finish(self, kind: AggKind, column: &str) -> Result<Finished> {
        Ok(match self {
            Lane::Count(n) => Finished::Typed(counts(n)),
            Lane::Sum(sums) => return sums.finish(kind, column),
            Lane::Best { ty, best } => Finished::Typed(winners_column(ty, best)),
            Lane::Values(held) => {
                Finished::Boxed(held.into_iter().map(|v| v.unwrap_or(Value::Null)).collect())
            }
            Lane::Distinct(seen) => Finished::Typed(counts(
                seen.iter().map(HashSet::len).map(|n| n as i64).collect(),
            )),
            Lane::Collect(items) => Finished::Boxed(
                items
                    .into_iter()
                    .map(|list| Value::Str(list.unwrap_or_default()))
                    .collect(),
            ),
        })
    }
}

/// Grow `lane` to `groups` entries, the new ones `empty`.
fn to<T: Clone>(lane: &mut Vec<T>, groups: usize, empty: T) {
    if lane.len() < groups {
        lane.resize(groups, empty);
    }
}

/// A count per group, as an `Int64` column with no null.
fn counts(n: Vec<i64>) -> Column {
    Column::Int64 {
        validity: Bitmap::new_set(n.len()),
        data: n,
    }
}

/// `sum`/`avg` of every group, under one rule whatever the input types:
/// integer cells are summed exactly, as `sum + wraps·2^64` (whatever the
/// fold order or partial split); from a group's first float cell on, a
/// float sum starts at that group's exact sum so far, rounded once, and
/// folds every later cell in call order. A numeric string is a float.
#[derive(Debug, Clone, Default)]
struct Sums {
    /// Integer cells folded.
    ints: Vec<i64>,
    /// Their exact sum, wrapped to `i64`.
    sum: Vec<i64>,
    /// Net times `sum` wrapped, upward positive.
    wraps: Vec<i64>,
    /// Float cells folded, and the float sum of each group with one;
    /// empty until some group folds a float, so an integer batch runs
    /// the integer loop alone until then. A group with no float cell
    /// holds its exact sum so far, rounded, where its first float starts.
    floats: Vec<i64>,
    float_sum: Vec<f64>,
}

impl Sums {
    fn grow(&mut self, groups: usize) {
        to(&mut self.ints, groups, 0);
        to(&mut self.sum, groups, 0);
        to(&mut self.wraps, groups, 0);
        if !self.floats.is_empty() {
            self.float_side();
        }
    }

    /// Store the float side for every group. Groups grown after it is
    /// stored start with no cell, at `0.0`.
    fn float_side(&mut self) {
        if self.float_sum.is_empty() {
            let starts = self.sum.iter().zip(&self.wraps);
            self.float_sum = starts.map(|(&sum, &wraps)| rounded(sum, wraps)).collect();
        }
        to(&mut self.floats, self.ints.len(), 0);
        to(&mut self.float_sum, self.ints.len(), 0.0);
    }

    /// Fold the `(row, group)` pairs `cells` of integer `data`.
    fn fold_ints(&mut self, data: &[i64], cells: impl Iterator<Item = (usize, usize)>) {
        if !self.floats.is_empty() {
            return self.fold_ints_mixed(data, cells);
        }
        let (ints, sum, wraps) = (&mut self.ints[..], &mut self.sum[..], &mut self.wraps[..]);
        // `add_exact` spelled out: `wraps[g]` is touched only on a wrap.
        cells.for_each(|(row, g)| {
            ints[g] += 1;
            let (total, over) = sum[g].overflowing_add(data[row]);
            sum[g] = total;
            if over {
                wraps[g] += if data[row] < 0 { -1 } else { 1 };
            }
        })
    }

    /// [`fold_ints`](Sums::fold_ints) once the float side is stored. Out
    /// of line: inlined there, it slowed the integer-only loop by ~8 %.
    #[inline(never)]
    fn fold_ints_mixed(&mut self, data: &[i64], cells: impl Iterator<Item = (usize, usize)>) {
        let (ints, sum, wraps) = (&mut self.ints[..], &mut self.sum[..], &mut self.wraps[..]);
        let (floats, float_sum) = (&self.floats[..], &mut self.float_sum[..]);
        cells.for_each(|(row, g)| {
            ints[g] += 1;
            add_exact(&mut sum[g], &mut wraps[g], data[row]);
            float_sum[g] = match floats[g] {
                0 => rounded(sum[g], wraps[g]),
                _ => float_sum[g] + data[row] as f64,
            };
        })
    }

    /// Fold `(group, float)` pairs, in row order.
    fn fold_floats(&mut self, cells: impl Iterator<Item = (usize, f64)>) {
        self.float_side();
        let (floats, float_sum) = (&mut self.floats[..], &mut self.float_sum[..]);
        cells.for_each(|(g, x)| {
            floats[g] += 1;
            float_sum[g] += x;
        })
    }

    /// Fold `other`, over later rows, whose group `i` is group `global[i]`.
    /// Integer sums merge exactly; a float sum merged is a sum of sums.
    fn merge(&mut self, mut other: Sums, global: &[u32]) {
        let floats = !(self.floats.is_empty() && other.floats.is_empty());
        if floats {
            self.float_side();
            other.float_side();
        }
        for (i, &g) in global.iter().enumerate() {
            let g = g as usize;
            self.ints[g] += other.ints[i];
            add_exact(&mut self.sum[g], &mut self.wraps[g], other.sum[i]);
            self.wraps[g] += other.wraps[i];
            if floats {
                self.floats[g] += other.floats[i];
                self.float_sum[g] = match self.floats[g] {
                    0 => rounded(self.sum[g], self.wraps[g]),
                    _ => self.float_sum[g] + other.float_sum[i],
                };
            }
        }
    }

    /// An integer-only `sum` is its exact total, an [`Overflow`] past
    /// `i64`; an integer-only `avg` is that total, rounded once, over the
    /// count, with no such limit. A group with a float cell has its float
    /// sum. A group with no cell is null. Every `avg`, and a `sum` no
    /// integer cell reached, is a typed `Float64` column; only a `sum`
    /// with integer-only and float groups side by side goes through
    /// values, where an integer-only group stays an integer.
    ///
    /// [`Overflow`]: TabularError::Overflow
    fn finish(self, kind: AggKind, column: &str) -> Result<Finished> {
        let overflow = || TabularError::Overflow {
            aggregate: kind.name(),
            column: column.to_string(),
        };
        let avg = kind == AggKind::Avg;
        let Sums {
            ints,
            sum,
            wraps,
            floats,
            float_sum,
        } = self;
        let groups = ints.len();
        if floats.is_empty() && !avg {
            // An integer `sum`: the typed column, a null over the zero of
            // a group with no cell (as `ColumnBuilder` leaves it).
            if wraps.iter().any(|&w| w != 0) {
                return Err(overflow());
            }
            return Ok(Finished::Typed(Column::Int64 {
                validity: Bitmap::from_fn(groups, |g| ints[g] > 0),
                data: sum,
            }));
        }
        let float_cells = |g: usize| floats.get(g).copied().unwrap_or(0);
        if avg || ints.iter().all(|&n| n == 0) {
            // Each group's float sum, which is its rounded exact sum where
            // it has no float cell (`0.0` where it has no cell at all).
            let count = |g: usize| ints[g] + float_cells(g);
            let mut data = if floats.is_empty() {
                (0..groups).map(|g| rounded(sum[g], wraps[g])).collect()
            } else {
                float_sum
            };
            if avg {
                let cells = (0..groups).map(count);
                data.iter_mut()
                    .zip(cells)
                    .filter(|&(_, n)| n > 0)
                    .for_each(|(x, n)| *x /= n as f64);
            }
            return Ok(Finished::Typed(Column::Float64 {
                validity: Bitmap::from_fn(groups, |g| count(g) > 0),
                data,
            }));
        }
        let value = |g: usize| {
            Ok(match (ints[g], float_cells(g)) {
                (0, 0) => Value::Null,
                (_, 0) if wraps[g] == 0 => Value::Int(sum[g]),
                (_, 0) => return Err(overflow()),
                _ => Value::Float(float_sum[g]),
            })
        };
        let values = (0..groups).map(value).collect::<Result<_>>()?;
        Ok(Finished::Boxed(values))
    }
}

/// The integer `sum + wraps·2^64`, rounded once to `f64`; without a wrap
/// that is `sum as f64`, which rounds the same.
#[inline]
fn rounded(sum: i64, wraps: i64) -> f64 {
    match wraps {
        0 => sum as f64,
        _ => (i128::from(sum) + (i128::from(wraps) << 64)) as f64,
    }
}

/// `sum += x` on the exact integer `sum + wraps·2^64`. The wrap branch is
/// never taken while sums stay in range.
#[inline]
fn add_exact(sum: &mut i64, wraps: &mut i64, x: i64) {
    let (wrapped, over) = sum.overflowing_add(x);
    *sum = wrapped;
    if over {
        *wraps += if x < 0 { -1 } else { 1 };
    }
}

fn not_numeric(kind: AggKind, actual: DataType) -> TabularError {
    TabularError::TypeMismatch {
        expected: "numeric".into(),
        actual: actual.to_string(),
        context: format!("{kind} aggregate"),
    }
}

/// Fold `v`, a later non-null value, into a group's `min`/`max`/`first`/
/// `last` winner `held`: a strictly smaller (larger) value, the first, the
/// last.
fn keep(kind: AggKind, held: &mut Option<Value>, v: Value) {
    let takes = match (&*held, kind) {
        (None, _) => true,
        (Some(h), AggKind::Min) => v < *h,
        (Some(h), AggKind::Max) => v > *h,
        (Some(_), AggKind::First) => false,
        (Some(_), _) => true,
    };
    if takes {
        *held = Some(v);
    }
}

/// [`keep`] of a string cell, allocating only when the winner changes to a
/// string where no string was held.
fn keep_str(kind: AggKind, held: &mut Option<Value>, s: &str) {
    let takes = match (&*held, kind) {
        (None, _) => true,
        (Some(Value::Str(h)), AggKind::Min) => s < h.as_str(),
        (Some(Value::Str(h)), AggKind::Max) => s > h.as_str(),
        // Strings rank above every other type.
        (Some(_), AggKind::Min) => false,
        (Some(_), AggKind::Max) => true,
        (Some(_), AggKind::First) => false,
        (Some(_), _) => true,
    };
    match held {
        Some(Value::Str(h)) if takes => {
            h.clear();
            h.push_str(s);
        }
        _ if takes => *held = Some(Value::Str(s.to_string())),
        _ => {}
    }
}

/// Append `item`, rendered, to a group's `collect` list.
fn collect(items: &mut Option<String>, item: impl std::fmt::Display) {
    use std::fmt::Write;
    // Writing to a `String` cannot fail.
    let _ = match items {
        Some(list) => write!(list, ",{item}"),
        None => write!(items.insert(String::new()), "{item}"),
    };
}

/// The `ty` column of each group's winner, a null over a zero where a
/// group has none.
fn winners_column(ty: DataType, best: Vec<Option<i64>>) -> Column {
    let validity = Bitmap::from_fn(best.len(), |g| best[g].is_some());
    let words = best.into_iter().map(|word| word.unwrap_or(0));
    match ty {
        DataType::Int64 => Column::Int64 {
            data: words.collect(),
            validity,
        },
        // `float_key` maps a float's bits to its word and a word back.
        DataType::Float64 => Column::Float64 {
            data: words
                .map(|w| f64::from_bits(Value::float_key(f64::from_bits(w as u64)) as u64))
                .collect(),
            validity,
        },
        DataType::Date => Column::Date {
            data: words.map(|w| w as i32).collect(),
            validity,
        },
        _ => Column::Bool {
            data: words.map(|w| w != 0).collect(),
            validity,
        },
    }
}

/// A finished lane, in group order.
enum Finished {
    /// A typed lane's output column, already of its declared type.
    Typed(Column),
    /// Each group's value, for [`from_cells`] and a cast.
    Boxed(Vec<Value>),
}

impl Finished {
    /// [`Value::cmp`] of groups `a` and `b`.
    fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            // Fixed-width cells: boxing allocates nothing.
            Finished::Typed(col) => col.value(a).cmp(&col.value(b)),
            Finished::Boxed(values) => values[a].cmp(&values[b]),
        }
    }
}

/// The `(group, word)` of each of `cells`, `(row, group)` pairs over `data`.
fn words<'a, T: Word>(
    data: &'a [T],
    cells: impl Iterator<Item = (usize, usize)> + 'a,
) -> impl Iterator<Item = (usize, i64)> + 'a {
    cells.map(|(row, g)| (g, data[row].word()))
}

/// Fold `(group, word)` pairs, in row order, into each group's winner for
/// `min`/`max`/`first`/`last`: a strictly smaller (larger) word, the first
/// cell, the last cell. A tie keeps the cell held.
fn pick(kind: AggKind, best: &mut [Option<i64>], cells: impl Iterator<Item = (usize, i64)>) {
    fn scan(
        best: &mut [Option<i64>],
        cells: impl Iterator<Item = (usize, i64)>,
        replaces: impl Fn(i64, i64) -> bool,
    ) {
        for (g, cell) in cells {
            match &mut best[g] {
                Some(held) if replaces(*held, cell) => *held = cell,
                Some(_) => {}
                slot @ None => *slot = Some(cell),
            }
        }
    }
    match kind {
        AggKind::Min => scan(best, cells, |held, cell| cell < held),
        AggKind::Max => scan(best, cells, |held, cell| cell > held),
        AggKind::First => scan(best, cells, |_, _| false),
        _ => scan(best, cells, |_, _| true),
    }
}

/// Accumulate one table into a fresh partial, one partition's side of a
/// [`GroupByPartial::merge`].
pub fn groupby_partial(table: &Table, cfg: &GroupBy) -> Result<GroupByPartial> {
    let mut partial = GroupByPartial::new(cfg.clone());
    partial.update(table)?;
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    /// `assert_eq!` of two outcomes and their types (see [`typed`]).
    macro_rules! assert_typed {
        ($got:expr, $want:expr $(, $($what:tt)+)?) => {
            assert_eq!(typed($got), typed($want) $(, $($what)+)?)
        };
    }

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
        let cells = [Value::Int(2), Value::Int(4), Value::Null];
        assert_typed!(one_group(AggKind::Avg, &cells), Ok(Value::Float(3.0)));
        assert_typed!(one_group(AggKind::Min, &cells), Ok(Value::Int(2)));
        assert_typed!(one_group(AggKind::Max, &cells), Ok(Value::Int(4)));
        // An integer `avg` rounds the exact sum once, whatever the split:
        // 2^53 + 3 rounds to 2^53 + 4, where a running float sum stays at
        // 2^53.
        let one = Value::Int(1);
        let cells = [Value::Int(1 << 53), one.clone(), one.clone(), one];
        let want = Value::Float(2251799813685249.0);
        assert_typed!(one_group(AggKind::Avg, &cells), Ok(want));
        // A float sum starts from the exact integer sum so far, 2^53 + 2,
        // rounded once (one pass only: merged float sums are a sum of
        // sums, rounded by the split).
        let mut mixed = cells;
        mixed[3] = Value::Float(0.0);
        let want = Value::Float(2251799813685248.5);
        assert_typed!(one_pass(AggKind::Avg, &mixed), Ok(want));
    }

    #[test]
    fn sums_stay_integer_over_ints_and_parse_numeric_text() {
        let sum = |cells: &[Value]| one_group(AggKind::Sum, cells);
        let ints = [Value::Int(1), Value::Int(2), Value::Null];
        assert_typed!(sum(&ints), Ok(Value::Int(3)));
        assert_eq!(
            sum(&[Value::Int(1), Value::Float(0.5)]),
            Ok(Value::Float(1.5))
        );
        let text = [Value::Str("10".into()), Value::Str(" 2.5 ".into())];
        assert_typed!(sum(&text), Ok(Value::Float(12.5)));
        // Text that is not a number, and a type that is not one, are
        // rejected, naming the aggregate.
        let err = sum(&[Value::Int(1), Value::Str("abc".into())]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch in sum aggregate: expected numeric, got utf8"
        );
        let err = one_group(AggKind::Avg, &[Value::Bool(true)]).unwrap_err();
        assert_eq!(
            err,
            TabularError::TypeMismatch {
                expected: "numeric".into(),
                actual: "bool".into(),
                context: "avg aggregate".into(),
            }
        );
    }

    #[test]
    fn every_kind_merges_at_every_split() {
        // Each cell is a batch of its own type, so every lane meets every
        // type, in `update` and in `merge`.
        let cells = [
            Value::Int(3),
            Value::Null,
            Value::Str("b".into()),
            Value::Str("a".into()),
            Value::Float(1.5),
            Value::Int(3),
        ];
        let s = |v: &str| Value::Str(v.into());
        for (kind, want) in [
            (AggKind::Count, Value::Int(5)),
            (AggKind::CountAll, Value::Int(6)),
            (AggKind::Min, Value::Float(1.5)),
            // Strings rank above every other type.
            (AggKind::Max, s("b")),
            (AggKind::First, Value::Int(3)),
            (AggKind::Last, Value::Int(3)),
            (AggKind::CountDistinct, Value::Int(4)),
            (AggKind::Collect, s("3,b,a,1.5,3")),
        ] {
            assert_typed!(one_group(kind, &cells), Ok(want), "{kind}");
        }
        let numbers = [Value::Int(3), Value::Null, Value::Float(1.5), Value::Int(3)];
        assert_typed!(one_group(AggKind::Sum, &numbers), Ok(Value::Float(7.5)));
        assert_typed!(one_group(AggKind::Avg, &numbers), Ok(Value::Float(2.5)));
        // Of two equal values the earlier is kept, in `update` and in
        // `merge`. (A first batch of nulls declares no type to cast the
        // winner back to.)
        let (two, two_f) = (Value::Int(2), Value::Float(2.0));
        for kind in [AggKind::Min, AggKind::Max] {
            let cells = [Value::Null, two.clone(), two_f.clone()];
            assert_typed!(one_group(kind, &cells), Ok(two.clone()), "{kind}");
            let cells = [Value::Null, two_f.clone(), two.clone()];
            assert_typed!(one_group(kind, &cells), Ok(two_f.clone()), "{kind}");
        }
        // Text all the way: first, last, distinct and collect.
        let text = [s("a"), Value::Null, s("b"), s("a")];
        assert_typed!(one_group(AggKind::First, &text), Ok(s("a")));
        assert_typed!(one_group(AggKind::Last, &text), Ok(s("a")));
        assert_typed!(one_group(AggKind::CountDistinct, &text), Ok(Value::Int(2)));
        assert_typed!(one_group(AggKind::Collect, &text), Ok(s("a,b,a")));
        // A group that folded no cell: null, or a zero count.
        for (kind, want) in [
            (AggKind::Sum, Value::Null),
            (AggKind::Avg, Value::Null),
            (AggKind::Count, Value::Int(0)),
            (AggKind::CountAll, Value::Int(1)),
            (AggKind::Min, Value::Null),
            (AggKind::CountDistinct, Value::Int(0)),
            (AggKind::Collect, s("")),
        ] {
            assert_typed!(one_group(kind, &[Value::Null]), Ok(want), "{kind}");
        }
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
    fn update_keyed_continues_the_groups_across_batches() {
        let t = svn_jira();
        let mut partial = GroupByPartial::new(GroupBy::counting(&["project"]));
        let keys = [KeyColumn::Cells(t.column("project").unwrap())];
        let mask = Bitmap::from_bools(&[true, false, true, true]);
        partial.update_keyed(&t, Some(&mask), &keys).unwrap();
        assert_eq!(partial.num_groups(), 2);
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
        partial.update_keyed(&more, None, &keys).unwrap();
        assert_eq!(partial.num_groups(), 3);
        assert_eq!(
            partial.into_table().unwrap().to_rows(),
            vec![row!["pig", 2i64], row!["hive", 2i64], row!["tez", 1i64]]
        );
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

    /// Every aggregate over `v`, then `count_all`.
    fn every_aggregate_of_v() -> GroupBy {
        let kinds = [
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
            AggKind::First,
            AggKind::Last,
            AggKind::CountDistinct,
            AggKind::Collect,
        ];
        let mut aggs: Vec<AggregateSpec> = kinds
            .iter()
            .map(|&kind| AggregateSpec::new(kind, "v", kind.name()))
            .collect();
        aggs.push(AggregateSpec::new(AggKind::CountAll, "", "rows"));
        GroupBy::with_aggregates(&["k"], aggs)
    }

    /// One partial for `kind` over `v` under one key, updated with each of
    /// `cells` as a one-row batch of its own type.
    fn fold_one_group(kind: AggKind, cells: &[Value]) -> Result<GroupByPartial> {
        let cfg = GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(kind, "v", "v")]);
        let mut partial = GroupByPartial::new(cfg);
        for cell in cells {
            partial.update(&Table::from_rows(&["k", "v"], &[row!["g", cell.clone()]])?)?;
        }
        Ok(partial)
    }

    fn finish(partial: GroupByPartial) -> Result<Value> {
        partial.into_table()?.value(0, "v")
    }

    /// [`fold_one_group`] finished.
    fn one_pass(kind: AggKind, cells: &[Value]) -> Result<Value> {
        fold_one_group(kind, cells).and_then(finish)
    }

    /// [`one_pass`], and at every split two partials merged: every way
    /// gives the outcome returned.
    fn one_group(kind: AggKind, cells: &[Value]) -> Result<Value> {
        let fold = |cells: &[Value]| fold_one_group(kind, cells);
        let whole = one_pass(kind, cells);
        for split in 0..=cells.len() {
            let merged = fold(&cells[..split]).and_then(|mut left| {
                left.merge(fold(&cells[split..])?)?;
                finish(left)
            });
            assert_typed!(merged, whole.clone(), "{kind} split at {split}");
        }
        whole
    }

    /// An outcome spelled with its type: `Value`'s own `==` takes `Int(2)`
    /// and `Float(2.0)` for equal.
    fn typed(outcome: Result<Value>) -> String {
        format!("{outcome:?}")
    }

    #[test]
    fn lanes_meet_a_second_input_type_under_value_semantics() {
        // `v` is Int64 in the first batch and Float64 in the second: a
        // `Best` lane turns into a `Values` lane, and every lane goes on
        // under `Value` semantics. The merged partials meet across types
        // the same way.
        let ints = Table::from_rows(
            &["k", "v"],
            &[row!["a", 3i64], row!["a", Value::Null], row!["b", 2i64]],
        )
        .unwrap();
        let floats = Table::from_rows(
            &["k", "v"],
            &[row!["a", 0.5], row!["b", 2.0], row!["c", -1.0]],
        )
        .unwrap();
        let cfg = every_aggregate_of_v();
        // A tie keeps the earlier value — `Int(2)` before `Float(2.0)` —
        // and the values build their column as they always did: the
        // `min` column widens to `Float64`, the `max` and `first` ones cast
        // back to the declared `Int64`.
        let want = vec![
            row!["a", 3.5, 1.75, 2i64, 0.5, 3i64, 3i64, 0.5, 2i64, "3,0.5", 3i64],
            row!["b", 4.0, 2.0, 2i64, 2.0, 2i64, 2i64, 2.0, 1i64, "2,2.0", 2i64],
            row!["c", -1.0, -1.0, 1i64, -1.0, -1i64, -1i64, -1.0, 1i64, "-1.0", 1i64],
        ];
        let mut updated = GroupByPartial::new(cfg.clone());
        updated.update(&ints).unwrap();
        updated.update(&floats).unwrap();
        assert_eq!(updated.into_table().unwrap().to_rows(), want);
        let mut merged = groupby_partial(&ints, &cfg).unwrap();
        merged
            .merge(groupby_partial(&floats, &cfg).unwrap())
            .unwrap();
        assert_eq!(merged.into_table().unwrap().to_rows(), want);

        // `sum`/`avg` after a first batch whose column is all null (so the
        // declared `sum` type is `Int64`), then the two above, then an
        // integer of `d` once other groups have floats, then numeric text,
        // which counts as floats: `d`'s float sum starts at its 3.
        let nulls = Table::from_rows(
            &["k", "v"],
            &[row!["a", Value::Null], row!["c", Value::Null]],
        )
        .unwrap();
        assert!(matches!(
            nulls.column("v").unwrap().as_ref(),
            Column::Null { .. }
        ));
        let late = Table::from_rows(&["k", "v"], &[row!["d", 3i64]]).unwrap();
        let text = Table::from_rows(
            &["k", "v"],
            &[row!["b", " 1.5 "], row!["c", "2"], row!["d", "0.25"]],
        )
        .unwrap();
        let cfg = GroupBy::with_aggregates(
            &["k"],
            vec![
                AggregateSpec::new(AggKind::Sum, "v", "s"),
                AggregateSpec::new(AggKind::Avg, "v", "m"),
            ],
        );
        let want = vec![
            row!["a", 3.5, 1.75],
            row!["c", 1.0, 0.5],
            row!["b", 5.5, 5.5 / 3.0],
            row!["d", 3.25, 1.625],
        ];
        let batches = [nulls, ints, floats, late, text];
        let mut updated = GroupByPartial::new(cfg.clone());
        let mut merged = GroupByPartial::new(cfg.clone());
        for batch in &batches {
            updated.update(batch).unwrap();
            merged.merge(groupby_partial(batch, &cfg).unwrap()).unwrap();
        }
        assert_eq!(updated.into_table().unwrap().to_rows(), want);
        assert_eq!(merged.into_table().unwrap().to_rows(), want);
    }

    #[test]
    fn typed_lanes_finish_like_boxed_cells() {
        // An all-null group and an all-null lane come out as the boxed
        // path's columns: nulls of the declared type.
        let t = Table::from_rows(
            &["k", "v", "d"],
            &[
                row!["a", 1i64, Value::Null],
                row!["b", Value::Null, Value::Null],
                row!["a", 5i64, Value::Null],
            ],
        )
        .unwrap();
        let t = t
            .with_column(
                "d",
                Column::Date {
                    data: vec![0; 3],
                    validity: Bitmap::new_cleared(3),
                },
            )
            .unwrap();
        let mut cfg = every_aggregate_of_v();
        cfg.aggregates
            .push(AggregateSpec::new(AggKind::Max, "d", "max_d"));
        for orderby in [false, true] {
            cfg.orderby_aggregates = orderby;
            let out = groupby(&t, &cfg).unwrap();
            let types: Vec<DataType> = out.columns().iter().map(|c| c.data_type()).collect();
            assert_eq!(
                types[1..4],
                [DataType::Int64, DataType::Float64, DataType::Int64]
            );
            assert_eq!(types[11], DataType::Date);
            // Group `a` leads either way: a null sorts last descending.
            assert_eq!(out.value(0, "sum").unwrap(), Value::Int(6));
            assert_eq!(out.value(0, "avg").unwrap(), Value::Float(3.0));
            assert_eq!(out.value(1, "sum").unwrap(), Value::Null);
            assert_eq!(out.value(1, "count").unwrap(), Value::Int(0));
            assert_eq!(out.value(1, "rows").unwrap(), Value::Int(1));
            assert_eq!(out.value(0, "max_d").unwrap(), Value::Null);
        }
    }

    #[test]
    fn an_integer_lane_keeps_its_wraps() {
        // The running sum leaves i64 and comes back: exact. Past i64 at
        // the end: the overflow error, whatever the split.
        let t = Table::from_rows(
            &["k", "v"],
            &[
                row!["a", i64::MAX],
                row!["a", 1i64],
                row!["a", -2i64],
                row!["b", i64::MAX],
            ],
        )
        .unwrap();
        let cfg =
            GroupBy::with_aggregates(&["k"], vec![AggregateSpec::new(AggKind::Sum, "v", "s")]);
        let out = groupby(&t, &cfg).unwrap();
        assert_eq!(out.value(0, "s").unwrap(), Value::Int(i64::MAX - 1));
        let over = t
            .with_column("v", Column::int([i64::MAX, 1, 0, 0]))
            .unwrap();
        for split in 0..=4 {
            let mut merged = groupby_partial(&over.slice(0, split), &cfg).unwrap();
            merged
                .merge(groupby_partial(&over.slice(split, 4 - split), &cfg).unwrap())
                .unwrap();
            assert!(
                matches!(merged.into_table(), Err(TabularError::Overflow { .. })),
                "split at {split}"
            );
        }
        // The same verdicts one cell per batch, at every split; `avg`
        // rounds the exact sum once, and a float makes `sum` a float that
        // no integer overflow stops.
        let over = [Value::Int(i64::MAX), Value::Int(1)];
        let err = TabularError::Overflow {
            aggregate: "sum",
            column: "v".into(),
        };
        assert_typed!(one_group(AggKind::Sum, &over), Err(err));
        let back = [Value::Int(i64::MAX), Value::Int(1), Value::Int(-2)];
        assert_typed!(one_group(AggKind::Sum, &back), Ok(Value::Int(i64::MAX - 1)));
        let mean = Value::Float((i64::MAX as f64 + 1.0) / 2.0);
        assert_typed!(one_group(AggKind::Avg, &over), Ok(mean));
        // Float first or integers first, the total 2^63 stays a float: it
        // does not fit the declared `Int64` and is not saturated into it.
        let want = Value::Float(i64::MAX as f64 + 1.0);
        let mixed = [Value::Float(0.5), Value::Int(i64::MAX), Value::Int(1)];
        assert_typed!(one_group(AggKind::Sum, &mixed), Ok(want.clone()));
        let mixed = [Value::Int(i64::MAX), Value::Int(1), Value::Float(0.5)];
        assert_typed!(one_group(AggKind::Sum, &mixed), Ok(want));
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
