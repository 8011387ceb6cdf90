//! [`Table`]: an immutable bundle of a schema and equally long columns.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder, ColumnRef, RowId};
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::row::Row;
use crate::schema::{Field, Schema, SchemaRef};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A table: a [`Schema`] plus one [`Column`] per field, all of equal
/// length. Columns are `Arc`-shared so projections and endpoint snapshots
/// are cheap; [`Table::append`] grows a column in place only when no
/// other handle shares it, so a snapshot never changes under its holder.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SchemaRef,
    columns: Vec<ColumnRef>,
    rows: usize,
}

impl Table {
    /// Build a table, validating column count and lengths against the
    /// schema.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        Table::from_refs(
            Arc::new(schema),
            columns.into_iter().map(Arc::new).collect(),
        )
    }

    /// Build from shared handles.
    pub fn from_refs(schema: SchemaRef, columns: Vec<ColumnRef>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(TabularError::LengthMismatch {
                left: schema.len(),
                right: columns.len(),
                context: "table construction (schema vs columns)".into(),
            });
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.len() != rows {
                return Err(TabularError::LengthMismatch {
                    left: rows,
                    right: c.len(),
                    context: format!("column '{}'", f.name()),
                });
            }
            // A column may be narrower (Null unifies with anything) but not
            // a different concrete type than its field declares.
            if c.data_type() != DataType::Null && c.data_type() != f.data_type() {
                return Err(TabularError::TypeMismatch {
                    expected: f.data_type().to_string(),
                    actual: c.data_type().to_string(),
                    context: format!("column '{}'", f.name()),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// A zero-row table with the given schema.
    pub fn empty(schema: Schema) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(ColumnBuilder::new(f.data_type()).finish()))
            .collect();
        Table {
            schema: Arc::new(schema),
            columns,
            rows: 0,
        }
    }

    /// Build a table from rows, inferring column types from the values.
    /// The schema supplies names; inferred types override its types.
    pub fn from_rows(names: &[impl AsRef<str>], rows: &[Row]) -> Result<Table> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != names.len() {
                return Err(TabularError::LengthMismatch {
                    left: names.len(),
                    right: r.len(),
                    context: format!("row {i}"),
                });
            }
        }
        let mut fields = Vec::with_capacity(names.len());
        let mut columns = Vec::with_capacity(names.len());
        for (ci, name) in names.iter().enumerate() {
            let vals: Vec<Value> = rows.iter().map(|r| r[ci].clone()).collect();
            let col = Column::from_values(&vals);
            fields.push(Field::new(name.as_ref(), col.data_type()));
            columns.push(col);
        }
        Table::new(Schema::new(fields)?, columns)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column handle by position.
    pub fn column_at(&self, i: usize) -> &ColumnRef {
        &self.columns[i]
    }

    /// Column handle by name.
    pub fn column(&self, name: &str) -> Result<&ColumnRef> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All column handles.
    pub fn columns(&self) -> &[ColumnRef] {
        &self.columns
    }

    /// Cell accessor.
    pub fn value(&self, row: usize, column: &str) -> Result<Value> {
        Ok(self.column(column)?.value(row))
    }

    /// Materialise row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Materialise every row (test/serialisation path — O(rows × cols)).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// True when both tables hold the very same column buffers under the
    /// same schema: what a copy-on-write store checks before it swaps in a
    /// table it derived from an earlier snapshot, and what lets a re-run
    /// that recomputed nothing leave caches alone.
    pub fn shares_columns_with(&self, other: &Table) -> bool {
        self.rows == other.rows
            && self.schema == other.schema
            && self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Zero-copy projection onto named columns in the given order.
    pub fn project(&self, names: &[impl AsRef<str>]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| Ok(Arc::clone(&self.columns[self.schema.index_of(n.as_ref())?])))
            .collect::<Result<Vec<_>>>()?;
        Table::from_refs(Arc::new(schema), columns)
    }

    /// New table with `column` appended (or replacing a same-named column).
    pub fn with_column(&self, name: &str, column: Column) -> Result<Table> {
        if column.len() != self.rows {
            return Err(TabularError::LengthMismatch {
                left: self.rows,
                right: column.len(),
                context: format!("with_column '{name}'"),
            });
        }
        let field = Field::new(name, column.data_type());
        let schema = self.schema.upsert_field(field);
        let mut columns = self.columns.clone();
        match self.schema.index_of(name) {
            Ok(i) => columns[i] = Arc::new(column),
            Err(_) => columns.push(Arc::new(column)),
        }
        Table::from_refs(Arc::new(schema), columns)
    }

    /// Gather rows by index into a new table.
    pub fn take<I: RowId>(&self, indices: &[I]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.take(indices)))
            .collect();
        Table {
            schema: Arc::clone(&self.schema),
            columns,
            rows: indices.len(),
        }
    }

    /// A table of this one's schema over `columns`, each `rows` long —
    /// what a gather made column by column assembles.
    pub(crate) fn with_columns(&self, columns: Vec<ColumnRef>, rows: usize) -> Table {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Table {
            schema: Arc::clone(&self.schema),
            columns,
            rows,
        }
    }

    /// Filter rows by a selection bitmap.
    pub fn filter(&self, mask: &Bitmap) -> Table {
        self.take(&mask.ones())
    }

    /// First `n` rows.
    pub fn limit(&self, n: usize) -> Table {
        self.slice(0, n)
    }

    /// Rows `[offset, offset+len)` clamped to the table: a range copy of
    /// each column's typed buffers. A range covering every row shares the
    /// columns instead of copying them.
    pub fn slice(&self, offset: usize, len: usize) -> Table {
        let start = offset.min(self.rows);
        let end = offset.saturating_add(len).min(self.rows);
        if start == 0 && end == self.rows {
            return self.clone();
        }
        Table {
            schema: Arc::clone(&self.schema),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.slice(start, end)))
                .collect(),
            rows: end - start,
        }
    }

    /// Vertical concatenation; schemas must have the same column names in
    /// order, types widen per the lossy lattice.
    pub fn concat(&self, other: &Table) -> Result<Table> {
        Table::concat_all(&[self.clone(), other.clone()])
    }

    /// Vertical concatenation of many tables in one pass — the one kernel
    /// behind [`Table::concat`], `ops::union_all` and `IndexedTable::append`.
    /// Schemas unify left-to-right, then each output column is built once
    /// over every input by [`Column::concat_as`]: typed buffers
    /// and validity words are extended, and only an input column whose type
    /// differs from the unified one is coerced cell by cell (each cell once,
    /// straight to the unified type). O(total bytes).
    pub fn concat_all(tables: &[Table]) -> Result<Table> {
        let Some((first, rest)) = tables.split_first() else {
            return Ok(Table::empty(Schema::empty()));
        };
        if rest.is_empty() {
            return Ok(first.clone());
        }
        let mut schema = first.schema().clone();
        for t in rest {
            schema = schema.unify(t.schema())?;
        }
        let mut columns = Vec::with_capacity(schema.len());
        for (i, f) in schema.fields().iter().enumerate() {
            let parts: Vec<&Column> = tables.iter().map(|t| t.columns[i].as_ref()).collect();
            columns.push(Arc::new(Column::concat_as(f.data_type(), &parts)?));
        }
        Table::from_refs(Arc::new(schema), columns)
    }

    /// Append `delta`'s rows to this table, growing each column's own
    /// buffers in place where it can: an O(delta) append, amortised by
    /// the buffers' doubling. A column grows in place when this table is
    /// its only holder (its `Arc` is unique) and its type is the unified
    /// one; any other column is copied whole by [`Column::concat_as`], as
    /// [`Table::concat`] would, so a reader holding an earlier snapshot
    /// keeps its rows. Returns `None` when every column grew, or why one
    /// was copied.
    ///
    /// Everything that can fail — unifying the schemas, coercing the
    /// delta's cells, building the copies — runs before any column is
    /// touched, so an error leaves the table as it was.
    pub fn append(&mut self, delta: &Table) -> Result<Option<CopyReason>> {
        let schema = self.schema.unify(delta.schema())?;
        // The delta's columns at the unified types (shared where they
        // already are): O(delta).
        let tails = schema
            .fields()
            .iter()
            .zip(delta.columns())
            .map(|(f, c)| c.cast(f.data_type()))
            .collect::<Result<Vec<_>>>()?;
        let mut copied = None;
        let mut copies = Vec::with_capacity(tails.len());
        for ((f, col), tail) in schema.fields().iter().zip(&mut self.columns).zip(&tails) {
            let reason = if col.data_type() != f.data_type() {
                Some(CopyReason::Widened)
            } else if Arc::get_mut(col).is_none() {
                Some(CopyReason::Shared)
            } else {
                None
            };
            copied = copied.max(reason);
            copies.push(match reason {
                Some(_) => Some(Column::concat_as(f.data_type(), &[&**col, &**tail])?),
                None => None,
            });
        }
        for ((col, tail), copy) in self.columns.iter_mut().zip(&tails).zip(copies) {
            match copy {
                Some(copy) => *col = Arc::new(copy),
                None => Arc::get_mut(col)
                    .expect("a column found unique above")
                    .extend(tail),
            }
        }
        self.schema = Arc::new(schema);
        self.rows += delta.rows;
        Ok(copied)
    }

    /// Render the first `max_rows` rows as an aligned text grid — the shape
    /// the paper's data explorer (§4.4, figure 29) shows for endpoint data.
    pub fn pretty(&self, max_rows: usize) -> String {
        let names = self.schema.names();
        let shown = self.rows.min(max_rows);
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.value(r).to_string())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let fmt_row = |vals: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (v, w) in vals.iter().zip(widths) {
                line.push_str(&format!(" {v:<w$} |"));
            }
            line.push('\n');
            line
        };
        let header: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        out.push_str(&fmt_row(&header, &widths));
        out.push_str(&format!(
            "|{}\n",
            widths
                .iter()
                .map(|w| format!("{:-<1$}|", "", w + 2))
                .collect::<String>()
        ));
        for row in &cells {
            out.push_str(&fmt_row(row, &widths));
        }
        if self.rows > shown {
            out.push_str(&format!("... {} more rows\n", self.rows - shown));
        }
        out
    }

    /// Approximate in-memory size in bytes: the metric the optimizer uses
    /// when minimising data transferred to the client (§6). O(columns).
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }
}

/// Why [`Table::append`] copied a column instead of growing it in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CopyReason {
    /// Another handle held the column: a reader's snapshot keeps it.
    Shared,
    /// The column's type widened to take the delta.
    Widened,
}

impl CopyReason {
    /// The reason's name, as spans and logs print it.
    pub fn as_str(self) -> &'static str {
        match self {
            CopyReason::Shared => "shared",
            CopyReason::Widened => "widened",
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty(20))
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema.same_shape(other.schema()) && self.to_rows() == other.to_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn sample() -> Table {
        Table::new(
            Schema::of(&[
                ("project", DataType::Utf8),
                ("year", DataType::Int64),
                ("commits", DataType::Int64),
            ]),
            vec![
                Column::utf8(["pig", "spark", "pig", "hive"]),
                Column::int([2013, 2013, 2014, 2014]),
                Column::int([120, 340, 95, 60]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_types() {
        let bad = Table::new(
            Schema::of(&[("a", DataType::Int64), ("b", DataType::Int64)]),
            vec![Column::int([1, 2]), Column::int([1])],
        );
        assert!(bad.is_err());
        let bad = Table::new(
            Schema::of(&[("a", DataType::Int64)]),
            vec![Column::utf8(["x"])],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn from_rows_infers_schema() {
        let t = Table::from_rows(
            &["name", "score"],
            &[row!["a", 1i64], row!["b", 2.5], row!["c", Value::Null]],
        )
        .unwrap();
        assert_eq!(
            t.schema().field("score").unwrap().data_type(),
            DataType::Float64
        );
        assert_eq!(t.num_rows(), 3);
        assert!(t.value(2, "score").unwrap().is_null());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Table::from_rows(&["a", "b"], &[row![1i64]]).is_err());
    }

    #[test]
    fn projection_is_zero_copy() {
        let t = sample();
        let p = t.project(&["commits", "project"]).unwrap();
        assert_eq!(p.schema().names(), vec!["commits", "project"]);
        assert!(Arc::ptr_eq(
            p.column("commits").unwrap(),
            t.column("commits").unwrap()
        ));
    }

    #[test]
    fn with_column_appends_and_replaces() {
        let t = sample();
        let t2 = t.with_column("stars", Column::int([1, 2, 3, 4])).unwrap();
        assert_eq!(t2.num_columns(), 4);
        let t3 = t2
            .with_column("stars", Column::float([0.1, 0.2, 0.3, 0.4]))
            .unwrap();
        assert_eq!(t3.num_columns(), 4);
        assert_eq!(
            t3.schema().field("stars").unwrap().data_type(),
            DataType::Float64
        );
        assert!(t.with_column("bad", Column::int([1])).is_err());
    }

    #[test]
    fn take_filter_limit_slice() {
        let t = sample();
        let taken = t.take(&[3usize, 0]);
        assert_eq!(
            taken.value(0, "project").unwrap(),
            Value::Str("hive".into())
        );
        let mask = Bitmap::from_bools(&[true, false, false, true]);
        assert_eq!(t.filter(&mask).num_rows(), 2);
        assert_eq!(t.limit(2).num_rows(), 2);
        assert_eq!(t.limit(99).num_rows(), 4);
        assert_eq!(t.slice(1, 2).num_rows(), 2);
        assert_eq!(t.slice(3, 5).num_rows(), 1);
        assert_eq!(t.slice(9, usize::MAX).num_rows(), 0);
    }

    #[test]
    fn full_range_slices_share_columns() {
        let t = sample();
        for whole in [
            t.limit(4),
            t.limit(99),
            t.slice(0, 4),
            t.slice(0, usize::MAX),
        ] {
            assert_eq!(whole.num_rows(), 4);
            for (a, b) in whole.columns().iter().zip(t.columns()) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
        assert!(!Arc::ptr_eq(t.limit(3).column_at(0), t.column_at(0)));
    }

    #[test]
    fn concat_unifies() {
        let a = Table::from_rows(&["x"], &[row![1i64]]).unwrap();
        let b = Table::from_rows(&["x"], &[row![2.5]]).unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.num_rows(), 2);
        assert_eq!(
            c.schema().field("x").unwrap().data_type(),
            DataType::Float64
        );
    }

    #[test]
    fn concat_all_matches_pairwise_folding() {
        let parts: Vec<Table> = (0..4)
            .map(|p| {
                Table::from_rows(
                    &["x", "y"],
                    &[row![p as i64, format!("s{p}")], row![p as i64 + 10, "t"]],
                )
                .unwrap()
            })
            .collect();
        let folded = parts[1..]
            .iter()
            .fold(parts[0].clone(), |acc, t| acc.concat(t).unwrap());
        let all = Table::concat_all(&parts).unwrap();
        assert_eq!(all, folded);
        // Widening across later segments unifies the whole run.
        let widen = vec![
            Table::from_rows(&["x"], &[row![1i64]]).unwrap(),
            Table::from_rows(&["x"], &[row![2.5]]).unwrap(),
            Table::from_rows(&["x"], &[row![3i64]]).unwrap(),
        ];
        let t = Table::concat_all(&widen).unwrap();
        assert_eq!(
            t.schema().field("x").unwrap().data_type(),
            DataType::Float64
        );
        assert_eq!(t.num_rows(), 3);
        // Degenerate shapes.
        assert_eq!(Table::concat_all(&[]).unwrap().num_rows(), 0);
        assert_eq!(Table::concat_all(&widen[..1]).unwrap(), widen[0]);
    }

    #[test]
    fn append_grows_sole_columns_in_place_and_copies_shared_ones() {
        let mut t = sample();
        let delta = Table::new(
            t.schema().clone(),
            vec![Column::utf8(["pig"]), Column::int([2015]), Column::int([7])],
        )
        .unwrap();
        // Sole holder: every column grows its own buffers.
        let commits = Arc::as_ptr(t.column("commits").unwrap());
        assert_eq!(t.append(&delta).unwrap(), None);
        assert_eq!(Arc::as_ptr(t.column("commits").unwrap()), commits);
        assert_eq!(t, sample().concat(&delta).unwrap());
        // A held snapshot keeps its rows; its columns are copied.
        let snapshot = t.clone();
        assert_eq!(t.append(&delta).unwrap(), Some(CopyReason::Shared));
        assert_eq!(snapshot.num_rows(), 5);
        assert_eq!(t.num_rows(), 6);
        assert_eq!(t, snapshot.concat(&delta).unwrap());
        // A column whose type widens is copied, the rest still grow.
        let floats = Table::new(
            Schema::of(&[
                ("project", DataType::Utf8),
                ("year", DataType::Int64),
                ("commits", DataType::Float64),
            ]),
            vec![
                Column::utf8(["hive"]),
                Column::int([2016]),
                Column::float([0.5]),
            ],
        )
        .unwrap();
        drop(snapshot);
        let expected = t.concat(&floats).unwrap();
        let year = Arc::as_ptr(t.column("year").unwrap());
        assert_eq!(t.append(&floats).unwrap(), Some(CopyReason::Widened));
        assert_eq!(Arc::as_ptr(t.column("year").unwrap()), year);
        assert_eq!(t, expected);
        assert_eq!(
            t.schema().field("commits").unwrap().data_type(),
            DataType::Float64
        );
        // A narrower delta column is cast to the column's type; it grows.
        let expected = t.concat(&delta).unwrap();
        let commits = Arc::as_ptr(t.column("commits").unwrap());
        assert_eq!(t.append(&delta).unwrap(), None);
        assert_eq!(Arc::as_ptr(t.column("commits").unwrap()), commits);
        assert_eq!(t, expected);
        // A delta that does not unify leaves the table as it was.
        let before = t.clone();
        let bad = Table::from_rows(&["other"], &[row![1i64]]).unwrap();
        assert!(t.append(&bad).is_err());
        assert!(t.shares_columns_with(&before));
    }

    #[test]
    fn pretty_prints_header_and_overflow() {
        let t = sample();
        let s = t.pretty(2);
        assert!(s.contains("project"));
        assert!(s.contains("... 2 more rows"));
    }

    #[test]
    fn approx_bytes_positive() {
        assert!(sample().approx_bytes() > 0);
        assert_eq!(Table::empty(Schema::empty()).approx_bytes(), 0);
    }
}
