//! Hash group-by with aggregates (the paper's `groupby` task, figures 8
//! and 23).

use crate::agg::{add_exact, exact, Accumulator, AggKind};
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnRef};
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::ops::keys::{group_ids, GroupIds, KeyColumn, RowSel, Word, NONE};
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

/// Mergeable group-by state: the groups' keys and, per aggregate, one lane
/// holding that aggregate for every group — typed per `(kind, input type)`
/// where it can be (an `i64` count; an exact `i64` sum and its wrap count;
/// an `f64` sum in row order; each group's `min`/`max`/`first`/`last` as a
/// fixed-width word), boxed [`Accumulator`]s where it cannot. One partial per
/// partition, merged **in partition order** so first-seen group order —
/// and with it order-sensitive aggregates like `first`/`collect` — match a
/// single pass over the concatenated input exactly. The batch kernel
/// ([`groupby`]), the indexed kernel, the engine's task and the
/// scatter/gather all fold and finish through this one type, which is what
/// pins their outputs byte-identical.
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
            if !lane.fits(input) {
                lane.box_up(input.kind);
            }
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
            lane.grow(spec.operator, groups);
            lane.merge(spec.operator, theirs, &global)?;
        }
        Ok(())
    }

    /// Finish the state into the output table. A typed lane becomes its
    /// output column directly; a boxed one goes through
    /// [`Column::from_values`] and a cast to the declared type, so the
    /// all-null and mixed-type fallbacks come out as they always did.
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
        lane.grow(input.kind, groups);
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

/// One aggregate's state for every group, typed by the `(kind, input
/// type)` pair of the first batch. Index `g` is group `g`.
#[derive(Debug, Clone)]
enum Lane {
    /// `count` (non-null cells) and `count_all` (rows), over any column.
    Count(Vec<i64>),
    /// `sum`/`avg` over `Int64`: cells folded, and their exact sum
    /// `sum + wraps·2^64`.
    Int {
        count: Vec<i64>,
        sum: Vec<i64>,
        wraps: Vec<i64>,
    },
    /// `sum`/`avg` over `Float64`: cells folded, and their sum in
    /// ascending row order.
    Float { count: Vec<i64>, sum: Vec<f64> },
    /// `min`/`max`/`first`/`last` over a fixed-width column of type `ty`:
    /// each group's winner as its [`Word`], the cell's place in
    /// [`Value::cmp`]'s order. A tie keeps the earlier cell.
    Best {
        ty: DataType,
        best: Vec<Option<i64>>,
    },
    /// Where no lane is typed — string measures, `count_distinct`,
    /// `collect`, a first batch whose column is all null, a lane that met
    /// a second input type — one boxed [`Accumulator`] per group.
    Boxed(Vec<Accumulator>),
}

impl Lane {
    /// An empty lane for `input`'s aggregate and column type.
    fn new(input: &Input<'_>) -> Lane {
        use AggKind::*;
        use DataType::{Bool, Date, Float64, Int64};
        match (input.kind, input.col.map(Column::data_type)) {
            (Count | CountAll, _) => Lane::Count(Vec::new()),
            (Sum | Avg, Some(Int64)) => Lane::Int {
                count: Vec::new(),
                sum: Vec::new(),
                wraps: Vec::new(),
            },
            (Sum | Avg, Some(Float64)) => Lane::Float {
                count: Vec::new(),
                sum: Vec::new(),
            },
            (Min | Max | First | Last, Some(ty @ (Int64 | Float64 | Date | Bool))) => Lane::Best {
                ty,
                best: Vec::new(),
            },
            _ => Lane::Boxed(Vec::new()),
        }
    }

    /// Whether this lane can fold `input`: a boxed lane folds anything, an
    /// all-null column adds nothing, and a typed lane folds the column
    /// type it was made for.
    fn fits(&self, input: &Input<'_>) -> bool {
        match (self, Lane::new(input)) {
            (Lane::Boxed(_), _) => true,
            _ if matches!(input.col, Some(Column::Null { .. })) => true,
            (Lane::Best { ty, .. }, Lane::Best { ty: fresh, .. }) => *ty == fresh,
            (lane, fresh) => std::mem::discriminant(lane) == std::mem::discriminant(&fresh),
        }
    }

    /// Grow to `groups` groups, the new ones empty.
    fn grow(&mut self, kind: AggKind, groups: usize) {
        fn to<T: Clone>(v: &mut Vec<T>, groups: usize, empty: T) {
            if v.len() < groups {
                v.resize(groups, empty);
            }
        }
        match self {
            Lane::Count(n) => to(n, groups, 0),
            Lane::Int { count, sum, wraps } => {
                to(count, groups, 0);
                to(sum, groups, 0);
                to(wraps, groups, 0);
            }
            Lane::Float { count, sum } => {
                to(count, groups, 0);
                to(sum, groups, 0.0);
            }
            Lane::Best { best, .. } => to(best, groups, None),
            Lane::Boxed(accs) if accs.len() < groups => {
                accs.resize_with(groups, || kind.accumulator())
            }
            Lane::Boxed(_) => {}
        }
    }

    /// Fold the non-null cells of `input` at `rows` into groups `ids`, in
    /// the order given. The lane [`fits`](Lane::fits) the input.
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
        cells: impl Iterator<Item = (usize, usize)>,
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
            (Lane::Int { count, sum, wraps }, Column::Int64 { data, .. }) => {
                let (count, sum, wraps) = (&mut count[..], &mut sum[..], &mut wraps[..]);
                let data = data.as_slice();
                cells.for_each(|(row, g)| {
                    count[g] += 1;
                    let (total, over) = sum[g].overflowing_add(data[row]);
                    sum[g] = total;
                    if over {
                        wraps[g] += if data[row] < 0 { -1 } else { 1 };
                    }
                })
            }
            (Lane::Float { count, sum }, Column::Float64 { data, .. }) => {
                let (count, sum, data) = (&mut count[..], &mut sum[..], data.as_slice());
                cells.for_each(|(row, g)| {
                    count[g] += 1;
                    sum[g] += data[row];
                })
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
            (Lane::Boxed(accs), Column::Utf8 { data, .. }) => {
                let mut cells = cells;
                cells.try_for_each(|(row, g)| accs[g].see_str(&data[row]))?
            }
            // A fixed-width cell boxes without allocating.
            (Lane::Boxed(accs), col) => {
                let mut cells = cells;
                cells.try_for_each(|(row, g)| accs[g].update(&col.value(row)))?
            }
            (lane, col) => unreachable!("{lane:?} folding a {} column", col.data_type()),
        }
        Ok(())
    }

    /// Turn into a boxed lane, each group's state unchanged.
    fn box_up(&mut self, kind: AggKind) {
        let lane = std::mem::replace(self, Lane::Count(Vec::new()));
        *self = Lane::Boxed(lane.into_boxed(kind));
    }

    /// One boxed accumulator per group holding what this lane holds.
    fn into_boxed(self, kind: AggKind) -> Vec<Accumulator> {
        let numeric = |count, sum_i, wraps, sum_f, saw_float| Accumulator::Numeric {
            kind,
            count,
            sum_i,
            wraps,
            sum_f,
            saw_float,
        };
        match self {
            Lane::Count(n) => n
                .into_iter()
                .map(|n| Accumulator::Count { kind, n })
                .collect(),
            Lane::Int { count, sum, wraps } => (count.into_iter().zip(sum).zip(wraps))
                .map(|((count, sum), wraps)| numeric(count, sum, wraps, 0.0, false))
                .collect(),
            Lane::Float { count, sum } => (count.into_iter().zip(sum))
                .map(|(count, sum)| numeric(count, 0, 0, sum, count > 0))
                .collect(),
            Lane::Best { ty, best } => {
                let col = winners_column(ty, best);
                (0..col.len())
                    .map(|g| {
                        let value = Some(col.value(g)).filter(|v| !v.is_null());
                        match kind {
                            AggKind::Min | AggKind::Max => {
                                Accumulator::Extreme { kind, best: value }
                            }
                            _ => Accumulator::Edge { kind, value },
                        }
                    })
                    .collect()
            }
            Lane::Boxed(accs) => accs,
        }
    }

    /// Fold `other` — a lane of the same aggregate over later rows, whose
    /// group `i` is this lane's group `global[i]` — into this one. Lanes
    /// of two types meet as boxed accumulators.
    fn merge(&mut self, kind: AggKind, other: Lane, global: &[u32]) -> Result<()> {
        let pairs = |n: usize| global.iter().map(|&g| g as usize).zip(0..n);
        match (&mut *self, other) {
            (Lane::Count(n), Lane::Count(m)) => pairs(m.len()).for_each(|(g, i)| n[g] += m[i]),
            (
                Lane::Int { count, sum, wraps },
                Lane::Int {
                    count: c,
                    sum: s,
                    wraps: w,
                },
            ) => pairs(c.len()).for_each(|(g, i)| {
                count[g] += c[i];
                add_exact(&mut sum[g], &mut wraps[g], s[i]);
                wraps[g] += w[i];
            }),
            (Lane::Float { count, sum }, Lane::Float { count: c, sum: s }) => pairs(c.len())
                .for_each(|(g, i)| {
                    count[g] += c[i];
                    sum[g] += s[i];
                }),
            (
                Lane::Best { ty, best },
                Lane::Best {
                    ty: theirs,
                    best: more,
                },
            ) if *ty == theirs => {
                let held = more.into_iter().zip(global);
                pick(
                    kind,
                    best,
                    held.filter_map(|(word, &g)| Some((g as usize, word?))),
                )
            }
            (_, other) => {
                self.box_up(kind);
                let Lane::Boxed(accs) = self else {
                    unreachable!("boxed above")
                };
                for (acc, &g) in other.into_boxed(kind).into_iter().zip(global) {
                    accs[g as usize].merge(acc)?;
                }
            }
        }
        Ok(())
    }

    /// The finished value of every group; an integer `sum` past `i64` is
    /// a [`TabularError::Overflow`] on input `column`.
    fn finish(self, kind: AggKind, column: &str) -> Result<Finished> {
        // A group that folded no cell is null, over the zero its sum
        // still holds (a null cell's zero, as `ColumnBuilder` leaves it).
        let seen = |count: &[i64]| Bitmap::from_fn(count.len(), |g| count[g] > 0);
        let mean = |count: &[i64], sum: &dyn Fn(usize) -> f64| -> Vec<f64> {
            let mean = |g: usize| {
                if count[g] > 0 {
                    sum(g) / count[g] as f64
                } else {
                    0.0
                }
            };
            (0..count.len()).map(mean).collect()
        };
        let avg = kind == AggKind::Avg;
        Ok(Finished::Typed(match self {
            Lane::Count(n) => Column::Int64 {
                validity: Bitmap::new_set(n.len()),
                data: n,
            },
            Lane::Int { count, sum, wraps } if avg => Column::Float64 {
                data: mean(&count, &|g| exact(sum[g], wraps[g]) as f64),
                validity: seen(&count),
            },
            Lane::Int { wraps, .. } if wraps.iter().any(|&w| w != 0) => {
                return Err(TabularError::Overflow {
                    aggregate: kind.name(),
                    column: column.to_string(),
                })
            }
            Lane::Int { count, sum, .. } => Column::Int64 {
                validity: seen(&count),
                data: sum,
            },
            Lane::Float { count, sum } if avg => Column::Float64 {
                data: mean(&count, &|g| sum[g]),
                validity: seen(&count),
            },
            Lane::Float { count, sum } => Column::Float64 {
                validity: seen(&count),
                data: sum,
            },
            Lane::Best { ty, best } => winners_column(ty, best),
            Lane::Boxed(accs) => {
                let values = accs.into_iter().map(|a| a.finish(column));
                return Ok(Finished::Boxed(values.collect::<Result<_>>()?));
            }
        }))
    }
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
    /// A boxed lane's values.
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

    #[test]
    fn lanes_meet_a_second_input_type_as_boxed_accumulators() {
        // `v` is Int64 in the first batch and Float64 in the second: each
        // typed lane turns boxed and goes on under `Value` semantics. The
        // merged partials meet across types the same way.
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
        // and the boxed values build their column as they always did: the
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
