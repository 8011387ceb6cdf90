//! Typed columnar storage with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::value::{Inferred, Value};
use std::fmt;
use std::sync::Arc;

/// The cells of a `Utf8` column in one arena: every cell's bytes back to
/// back in a single `String`, and the byte offset where each cell starts
/// (plus the end of the last). Copying a column is two `memcpy`s and
/// dropping it two `free`s, whatever the row count; a cell is a slice of
/// the arena, so reads never allocate.
#[derive(Clone, PartialEq)]
pub struct StrBuf {
    bytes: String,
    /// `len() + 1` ascending offsets into `bytes`, the first 0: cell `i`
    /// is `bytes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
}

impl StrBuf {
    /// An empty buffer.
    pub fn new() -> StrBuf {
        StrBuf::with_capacity(0, 0)
    }

    /// An empty buffer with room for `cells` cells of `bytes` bytes in all.
    pub fn with_capacity(cells: usize, bytes: usize) -> StrBuf {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        StrBuf {
            bytes: String::with_capacity(bytes),
            offsets,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of cell data.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Every cell's bytes, end to end.
    pub(crate) fn joined(&self) -> &str {
        &self.bytes
    }

    /// Cell `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Append one cell.
    pub fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.offsets.push(self.bytes.len());
    }

    /// Append one cell holding `v`'s `Display` rendering, written straight
    /// into the arena.
    pub fn push_display(&mut self, v: &impl fmt::Display) {
        use fmt::Write;
        write!(self.bytes, "{v}").expect("writing to a String cannot fail");
        self.offsets.push(self.bytes.len());
    }

    /// Append cells `[start, end)` of `other`: one byte copy plus an
    /// offset rebase.
    ///
    /// # Panics
    /// Panics when the range is inverted or reaches past `other.len()`.
    pub fn extend_from(&mut self, other: &StrBuf, start: usize, end: usize) {
        let (lo, hi) = (other.offsets[start], other.offsets[end]);
        let base = self.bytes.len();
        self.bytes.push_str(&other.bytes[lo..hi]);
        self.offsets
            .extend(other.offsets[start + 1..=end].iter().map(|o| o - lo + base));
    }

    /// Append `n` empty cells (the slots under null cells).
    fn extend_empty(&mut self, n: usize) {
        let end = self.bytes.len();
        self.offsets.resize(self.offsets.len() + n, end);
    }

    /// The cells at `indices`, in that order.
    fn gather<I: RowId>(&self, indices: &[I]) -> StrBuf {
        let bytes = indices
            .iter()
            .map(|i| self.offsets[i.row() + 1] - self.offsets[i.row()])
            .sum();
        let mut out = StrBuf::with_capacity(indices.len(), bytes);
        for i in indices {
            out.push(self.get(i.row()));
        }
        out
    }

    /// Every cell in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0]..w[1]])
    }
}

impl Default for StrBuf {
    fn default() -> Self {
        StrBuf::new()
    }
}

impl std::ops::Index<usize> for StrBuf {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrBuf {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> StrBuf {
        let iter = iter.into_iter();
        let mut out = StrBuf::with_capacity(iter.size_hint().0, 0);
        for s in iter {
            out.push(s.as_ref());
        }
        out
    }
}

impl fmt::Debug for StrBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A typed column of values with a validity bitmap tracking nulls.
///
/// Columns are immutable once built and shared via [`ColumnRef`]; kernels
/// that "modify" a table produce new columns (or reuse existing `Arc`s —
/// e.g. projection is zero-copy).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean column.
    Bool { data: Vec<bool>, validity: Bitmap },
    /// 64-bit integer column.
    Int64 { data: Vec<i64>, validity: Bitmap },
    /// 64-bit float column.
    Float64 { data: Vec<f64>, validity: Bitmap },
    /// UTF-8 string column.
    Utf8 { data: StrBuf, validity: Bitmap },
    /// Date column (days since epoch).
    Date { data: Vec<i32>, validity: Bitmap },
    /// All-null column of unknown type (e.g. an empty CSV column).
    Null { len: usize },
}

/// Shared column handle.
pub type ColumnRef = Arc<Column>;

/// "No row" in a `u32` row-id vector ([`Column::take_opt`] pads a null).
pub const NO_ROW: u32 = u32::MAX;

/// A row index as kernels hold them: `usize` where an index came from a
/// sort or a mask, `u32` where a keyed kernel produced it (half the
/// scratch memory, and gathers take either without widening).
pub trait RowId: Copy {
    /// The index as a `usize`.
    fn row(self) -> usize;
}
impl RowId for usize {
    #[inline]
    fn row(self) -> usize {
        self
    }
}
impl RowId for u32 {
    #[inline]
    fn row(self) -> usize {
        self as usize
    }
}

/// The values at `indices` with their validity bits.
fn gather<T: Copy, I: RowId>(data: &[T], validity: &Bitmap, indices: &[I]) -> (Vec<T>, Bitmap) {
    (
        indices.iter().map(|i| data[i.row()]).collect(),
        validity.gather(indices),
    )
}

impl Column {
    /// Logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool { .. } => DataType::Bool,
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Utf8 { .. } => DataType::Utf8,
            Column::Date { .. } => DataType::Date,
            Column::Null { .. } => DataType::Null,
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool { data, .. } => data.len(),
            Column::Int64 { data, .. } => data.len(),
            Column::Float64 { data, .. } => data.len(),
            Column::Utf8 { data, .. } => data.len(),
            Column::Date { data, .. } => data.len(),
            Column::Null { len } => *len,
        }
    }

    /// True when the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        match self.validity_ref() {
            Some(validity) => self.len() - validity.count_ones(),
            None => self.len(),
        }
    }

    /// Borrow the validity bitmap; `None` for [`Column::Null`], whose
    /// cells are all null.
    pub fn validity_ref(&self) -> Option<&Bitmap> {
        match self {
            Column::Bool { validity, .. }
            | Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Utf8 { validity, .. }
            | Column::Date { validity, .. } => Some(validity),
            Column::Null { .. } => None,
        }
    }

    /// Approximate in-memory size in bytes, without walking the cells (a
    /// string cell is charged its bytes plus a 24-byte header, as an owned
    /// `String` would cost).
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::Bool { data, .. } => data.len(),
            Column::Int64 { data, .. } => data.len() * 8,
            Column::Float64 { data, .. } => data.len() * 8,
            Column::Date { data, .. } => data.len() * 4,
            Column::Utf8 { data, .. } => data.byte_len() + data.len() * 24,
            Column::Null { .. } => 0,
        }
    }

    /// Cell accessor as a dynamic [`Value`].
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Bool { data, validity } => {
                if validity.get(i) {
                    Value::Bool(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Int64 { data, validity } => {
                if validity.get(i) {
                    Value::Int(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Float64 { data, validity } => {
                if validity.get(i) {
                    Value::Float(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Utf8 { data, validity } => {
                if validity.get(i) {
                    Value::Str(data[i].to_string())
                } else {
                    Value::Null
                }
            }
            Column::Date { data, validity } => {
                if validity.get(i) {
                    Value::Date(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Null { len } => {
                assert!(i < *len, "row {i} out of range {len}");
                Value::Null
            }
        }
    }

    /// Borrow the string at row `i` without cloning (None when null or not
    /// a string column).
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            Column::Utf8 { data, validity } if validity.get(i) => Some(&data[i]),
            _ => None,
        }
    }

    /// Build a column from dynamic values, inferring the narrowest type
    /// that holds them all (per [`DataType::unify_lossy`]).
    pub fn from_values(values: &[Value]) -> Column {
        let mut ty = DataType::Null;
        for v in values {
            ty = ty.unify_lossy(v.data_type());
        }
        let mut b = ColumnBuilder::with_capacity(ty, values.len());
        for v in values {
            b.push_lossy(v);
        }
        b.finish()
    }

    /// Gather rows by index, producing a new column. Indices may repeat and
    /// reorder freely (join/sort/filter all funnel through here).
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn take<I: RowId>(&self, indices: &[I]) -> Column {
        match self {
            Column::Bool { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Bool { data, validity }
            }
            Column::Int64 { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Int64 { data, validity }
            }
            Column::Float64 { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Float64 { data, validity }
            }
            Column::Utf8 { data, validity } => Column::Utf8 {
                data: data.gather(indices),
                validity: validity.gather(indices),
            },
            Column::Date { data, validity } => {
                let (data, validity) = gather(data, validity, indices);
                Column::Date { data, validity }
            }
            Column::Null { len } => {
                for i in indices {
                    assert!(i.row() < *len, "row {} out of range {len}", i.row());
                }
                Column::Null { len: indices.len() }
            }
        }
    }

    /// [`take`](Column::take) where an index of [`NO_ROW`] produces a null
    /// cell: how outer joins pad unmatched rows. The slot under a padded
    /// null holds the type's zero value.
    ///
    /// # Panics
    /// Panics when an index other than [`NO_ROW`] is out of range.
    pub fn take_opt(&self, indices: &[u32]) -> Column {
        if !indices.contains(&NO_ROW) {
            return self.take(indices);
        }
        fn pad<T: Copy + Default>(data: &[T], validity: &Bitmap, at: &[u32]) -> (Vec<T>, Bitmap) {
            let cell = |&i: &u32| {
                if i == NO_ROW {
                    T::default()
                } else {
                    data[i as usize]
                }
            };
            (
                at.iter().map(cell).collect(),
                Bitmap::from_fn(at.len(), |k| {
                    at[k] != NO_ROW && validity.get(at[k] as usize)
                }),
            )
        }
        match self {
            Column::Bool { data, validity } => {
                let (data, validity) = pad(data, validity, indices);
                Column::Bool { data, validity }
            }
            Column::Int64 { data, validity } => {
                let (data, validity) = pad(data, validity, indices);
                Column::Int64 { data, validity }
            }
            Column::Float64 { data, validity } => {
                let (data, validity) = pad(data, validity, indices);
                Column::Float64 { data, validity }
            }
            Column::Date { data, validity } => {
                let (data, validity) = pad(data, validity, indices);
                Column::Date { data, validity }
            }
            Column::Utf8 { data, validity } => {
                let mut out = StrBuf::with_capacity(indices.len(), 0);
                for &i in indices {
                    out.push(if i == NO_ROW {
                        ""
                    } else {
                        data.get(i as usize)
                    });
                }
                let present = |k: usize| indices[k] != NO_ROW && validity.get(indices[k] as usize);
                Column::Utf8 {
                    data: out,
                    validity: Bitmap::from_fn(indices.len(), present),
                }
            }
            Column::Null { len } => {
                for &i in indices.iter().filter(|&&i| i != NO_ROW) {
                    assert!((i as usize) < *len, "row {i} out of range {len}");
                }
                Column::Null { len: indices.len() }
            }
        }
    }

    /// Filter rows by a selection bitmap.
    ///
    /// # Panics
    /// Panics when the mask length differs from the column length.
    pub fn filter(&self, mask: &Bitmap) -> Column {
        assert_eq!(mask.len(), self.len(), "filter mask length mismatch");
        self.take(&mask.ones())
    }

    /// Rows `[start, end)` as a new column: a range copy of the typed
    /// buffers.
    ///
    /// # Panics
    /// Panics when the range is inverted or reaches past the column.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        let mut b = ColumnBuilder::with_capacity(self.data_type(), end - start);
        b.extend_from(self, start, end)
            .expect("a builder of the column's own type takes its cells");
        b.finish()
    }

    /// `parts` end to end as one column of type `ty`, the buffers sized
    /// once up front: the per-column half of `Table::concat_all`. See
    /// [`ColumnBuilder::extend_from`] for how each part is copied.
    pub fn concat_as(ty: DataType, parts: &[&Column]) -> Result<Column> {
        let rows = parts.iter().map(|c| c.len()).sum();
        let mut b = ColumnBuilder::with_capacity(ty, rows);
        if ty == DataType::Utf8 {
            let bytes = parts.iter().map(|c| match c {
                Column::Utf8 { data, .. } => data.byte_len(),
                _ => 0,
            });
            b.strs.bytes.reserve(bytes.sum());
        }
        for c in parts {
            b.extend_from(c, 0, c.len())?;
        }
        Ok(b.finish())
    }

    /// Append `tail`'s cells to this column's own buffers: the in-place
    /// half of `Table::append`. The typed buffer and the validity words
    /// grow through [`ColumnBuilder::extend_from`], amortised by the
    /// buffers' doubling, so the cost is the tail's, not the column's.
    ///
    /// # Panics
    /// Panics when `tail` is neither of this column's type nor all-null.
    pub fn extend(&mut self, tail: &Column) {
        let own = std::mem::replace(self, Column::Null { len: 0 });
        let mut b = ColumnBuilder::reopen(own);
        assert!(
            tail.data_type() == b.ty || tail.data_type() == DataType::Null,
            "extend a {} column with a {} one",
            b.ty,
            tail.data_type()
        );
        b.extend_from(tail, 0, tail.len())
            .expect("cells of the builder's own type append without coercion");
        *self = b.finish();
    }

    /// Cast to another type, erroring on lossy conversions. A column
    /// already of the target type is shared, not copied.
    pub fn cast(self: &Arc<Column>, target: DataType) -> Result<ColumnRef> {
        if self.data_type() == target {
            return Ok(Arc::clone(self));
        }
        Ok(Arc::new(Column::concat_as(target, &[self])?))
    }

    /// Iterator over all cells as dynamic values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }
}

/// Incremental builder for a [`Column`] of a fixed target type.
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: DataType,
    bools: Vec<bool>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    strs: StrBuf,
    dates: Vec<i32>,
    validity: Bitmap,
    len: usize,
}

impl ColumnBuilder {
    /// New builder producing a column of type `ty`.
    pub fn new(ty: DataType) -> Self {
        ColumnBuilder {
            ty,
            bools: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            strs: StrBuf::new(),
            dates: Vec::new(),
            validity: Bitmap::new_cleared(0),
            len: 0,
        }
    }

    /// New builder with row-count capacity hint.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        let mut b = ColumnBuilder::new(ty);
        match ty {
            DataType::Bool => b.bools.reserve(cap),
            DataType::Int64 => b.ints.reserve(cap),
            DataType::Float64 => b.floats.reserve(cap),
            DataType::Utf8 => b.strs.offsets.reserve(cap),
            DataType::Date => b.dates.reserve(cap),
            DataType::Null => {}
        }
        b
    }

    /// A builder that carries on where `col` ends, owning its buffers:
    /// [`ColumnBuilder::finish`] undone.
    fn reopen(col: Column) -> Self {
        let mut b = ColumnBuilder::new(col.data_type());
        b.len = col.len();
        match col {
            Column::Bool { data, validity } => (b.bools, b.validity) = (data, validity),
            Column::Int64 { data, validity } => (b.ints, b.validity) = (data, validity),
            Column::Float64 { data, validity } => (b.floats, b.validity) = (data, validity),
            Column::Utf8 { data, validity } => (b.strs, b.validity) = (data, validity),
            Column::Date { data, validity } => (b.dates, b.validity) = (data, validity),
            Column::Null { .. } => {}
        }
        b
    }

    /// Target type of the column being built.
    pub fn data_type(&self) -> DataType {
        self.ty
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a null cell.
    pub fn push_null(&mut self) {
        self.push_nulls(1);
    }

    /// Append `n` null cells.
    fn push_nulls(&mut self, n: usize) {
        let len = self.len + n;
        match self.ty {
            DataType::Bool => self.bools.resize(len, false),
            DataType::Int64 => self.ints.resize(len, 0),
            DataType::Float64 => self.floats.resize(len, 0.0),
            DataType::Utf8 => self.strs.extend_empty(n),
            DataType::Date => self.dates.resize(len, 0),
            DataType::Null => {}
        }
        self.validity.extend_with(false, n);
        self.len = len;
    }

    /// Append a value, coercing to the target type; errors propagate.
    pub fn push_coerced(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            self.push_null();
            return Ok(());
        }
        match self.ty {
            DataType::Utf8 => match v {
                Value::Str(s) => self.strs.push(s),
                other => self.strs.push_display(other),
            },
            // Target type Null only holds nulls; a non-null cell here is
            // a caller bug surfaced as a conversion error.
            DataType::Null => {
                return Err(TabularError::ValueConversion {
                    value: v.to_string(),
                    target: "null",
                })
            }
            ty => match v.coerce(ty)? {
                Value::Bool(b) => self.bools.push(b),
                Value::Int(i) => self.ints.push(i),
                Value::Float(f) => self.floats.push(f),
                Value::Date(d) => self.dates.push(d),
                Value::Str(_) | Value::Null => unreachable!("coerce returned mismatched type"),
            },
        }
        self.validity.push(true);
        self.len += 1;
        Ok(())
    }

    /// Append a value, stringifying anything that does not fit the target
    /// type instead of erroring (reader behaviour).
    pub fn push_lossy(&mut self, v: &Value) {
        if self.push_coerced(v).is_err() {
            // Only reachable for Utf8 targets with weird values or non-Utf8
            // targets receiving incompatible cells; degrade to null.
            self.push_null();
        }
    }

    /// Append a native string (Utf8 builders only).
    ///
    /// # Panics
    /// Panics when the target type is not `Utf8`.
    pub fn push_str(&mut self, s: impl AsRef<str>) {
        assert_eq!(self.ty, DataType::Utf8, "push_str on non-utf8 builder");
        self.strs.push(s.as_ref());
        self.validity.push(true);
        self.len += 1;
    }

    /// Append a cell a reader inferred from text, with [`push_lossy`]'s
    /// outcome for the equivalent [`Value`] and none of its allocations:
    /// a cell that does not fit the target type is stringified into a
    /// `Utf8` builder and becomes null in any other.
    ///
    /// [`push_lossy`]: ColumnBuilder::push_lossy
    pub fn push_inferred(&mut self, cell: Inferred<'_>) {
        match (self.ty, cell) {
            (DataType::Utf8, Inferred::Str(s)) => self.strs.push(s),
            (DataType::Utf8, Inferred::Null) | (DataType::Null, _) => return self.push_null(),
            (DataType::Utf8, other) => self.strs.push_display(&other),
            (DataType::Bool, Inferred::Bool(b)) => self.bools.push(b),
            (DataType::Int64, Inferred::Int(i)) => self.ints.push(i),
            (DataType::Float64, Inferred::Int(i)) => self.floats.push(i as f64),
            (DataType::Float64, Inferred::Float(f)) => self.floats.push(f),
            _ => return self.push_lossy(&cell.to_value()),
        }
        self.validity.push(true);
        self.len += 1;
    }

    /// Append rows `[start, end)` of `col`. A column of the builder's own
    /// type extends the typed buffer (a slice copy; for `Utf8` a byte copy
    /// plus an offset rebase) and the validity words; an all-null column
    /// extends with nulls; any other type is coerced cell by cell, and the
    /// first cell that does not fit is the error.
    ///
    /// # Panics
    /// Panics when the range is inverted or reaches past the column.
    pub fn extend_from(&mut self, col: &Column, start: usize, end: usize) -> Result<()> {
        assert!(
            start <= end && end <= col.len(),
            "rows {start}..{end} out of range {}",
            col.len()
        );
        let from = match (self.ty, col) {
            (_, Column::Null { .. }) => {
                self.push_nulls(end - start);
                return Ok(());
            }
            (DataType::Bool, Column::Bool { data, validity }) => {
                self.bools.extend_from_slice(&data[start..end]);
                validity
            }
            (DataType::Int64, Column::Int64 { data, validity }) => {
                self.ints.extend_from_slice(&data[start..end]);
                validity
            }
            (DataType::Float64, Column::Float64 { data, validity }) => {
                self.floats.extend_from_slice(&data[start..end]);
                validity
            }
            (DataType::Utf8, Column::Utf8 { data, validity }) => {
                self.strs.extend_from(data, start, end);
                validity
            }
            (DataType::Date, Column::Date { data, validity }) => {
                self.dates.extend_from_slice(&data[start..end]);
                validity
            }
            _ => {
                for i in start..end {
                    self.push_coerced(&col.value(i))?;
                }
                return Ok(());
            }
        };
        self.validity.extend_from_range(from, start, end);
        self.len += end - start;
        Ok(())
    }

    /// Finish the column.
    pub fn finish(self) -> Column {
        match self.ty {
            DataType::Bool => Column::Bool {
                data: self.bools,
                validity: self.validity,
            },
            DataType::Int64 => Column::Int64 {
                data: self.ints,
                validity: self.validity,
            },
            DataType::Float64 => Column::Float64 {
                data: self.floats,
                validity: self.validity,
            },
            DataType::Utf8 => Column::Utf8 {
                data: self.strs,
                validity: self.validity,
            },
            DataType::Date => Column::Date {
                data: self.dates,
                validity: self.validity,
            },
            DataType::Null => Column::Null { len: self.len },
        }
    }
}

/// Convenience constructors for literal columns in tests and generators.
impl Column {
    /// Int column from values (no nulls).
    pub fn int(values: impl IntoIterator<Item = i64>) -> Column {
        let data: Vec<i64> = values.into_iter().collect();
        let validity = Bitmap::new_set(data.len());
        Column::Int64 { data, validity }
    }

    /// Float column from values (no nulls).
    pub fn float(values: impl IntoIterator<Item = f64>) -> Column {
        let data: Vec<f64> = values.into_iter().collect();
        let validity = Bitmap::new_set(data.len());
        Column::Float64 { data, validity }
    }

    /// String column from values (no nulls).
    pub fn utf8<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Column {
        let data: StrBuf = values.into_iter().collect();
        let validity = Bitmap::new_set(data.len());
        Column::Utf8 { data, validity }
    }

    /// Bool column from values (no nulls).
    pub fn bool(values: impl IntoIterator<Item = bool>) -> Column {
        let data: Vec<bool> = values.into_iter().collect();
        let validity = Bitmap::new_set(data.len());
        Column::Bool { data, validity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_infers_types() {
        let c = Column::from_values(&[Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(1), Value::Null);

        let c = Column::from_values(&[Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.value(0), Value::Float(1.0));

        let c = Column::from_values(&[Value::Int(1), Value::Str("x".into())]);
        assert_eq!(c.data_type(), DataType::Utf8);
        assert_eq!(c.value(0), Value::Str("1".into()));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::utf8(["a", "b", "c"]);
        let t = c.take(&[2usize, 0, 0]);
        assert_eq!(t.value(0), Value::Str("c".into()));
        assert_eq!(t.value(1), Value::Str("a".into()));
        assert_eq!(t.value(2), Value::Str("a".into()));
    }

    #[test]
    fn take_opt_produces_nulls() {
        let c = Column::int([10, 20]);
        let t = c.take_opt(&[1, NO_ROW, 0]);
        assert_eq!(t.value(0), Value::Int(20));
        assert!(t.value(1).is_null());
        assert_eq!(t.value(2), Value::Int(10));
        let s = Column::utf8(["a", "b"]).take_opt(&[NO_ROW, 1, 1]);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [Value::Null, "b".into(), "b".into()]
        );
        // No padding: a plain gather.
        assert_eq!(c.take_opt(&[1, 1]), c.take(&[1u32, 1]));
    }

    #[test]
    fn filter_by_mask() {
        let c = Column::int([1, 2, 3, 4]);
        let mask = Bitmap::from_bools(&[true, false, true, false]);
        let f = c.filter(&mask);
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1), Value::Int(3));
    }

    #[test]
    fn cast_lossy_errors_and_same_type_shares() {
        let c = Arc::new(Column::utf8(["12", "x"]));
        assert!(c.cast(DataType::Int64).is_err());
        assert!(Arc::ptr_eq(&c.cast(DataType::Utf8).unwrap(), &c));
        let ok = Arc::new(Column::utf8(["12", "34"]))
            .cast(DataType::Int64)
            .unwrap();
        assert_eq!(ok.value(1), Value::Int(34));
    }

    #[test]
    fn str_buf_holds_empty_and_multibyte_cells() {
        let mut buf = StrBuf::new();
        assert!(buf.is_empty());
        for s in ["", "añb", "", "日本", "z"] {
            buf.push(s);
        }
        buf.push_display(&2.5);
        assert_eq!(buf.len(), 6);
        assert_eq!(
            buf.iter().collect::<Vec<_>>(),
            ["", "añb", "", "日本", "z", "2.5"]
        );
        assert_eq!(&buf[3], "日本");
        assert_eq!(buf.byte_len(), 4 + 6 + 1 + 3);

        let mut joined = StrBuf::from_iter(["head"]);
        joined.extend_from(&buf, 1, 4);
        joined.extend_from(&buf, 2, 2);
        joined.extend_from(&buf, 0, buf.len());
        let want = ["head", "añb", "", "日本", "", "añb", "", "日本", "z", "2.5"];
        assert_eq!(joined.iter().collect::<Vec<_>>(), want);
        assert_eq!(joined, StrBuf::from_iter(want));
        assert_eq!(
            buf.gather(&[3usize, 3, 0, 1]).iter().collect::<Vec<_>>(),
            ["日本", "日本", "", "añb"]
        );
    }

    #[test]
    fn builder_extends_from_typed_ranges() {
        let mut src = ColumnBuilder::new(DataType::Utf8);
        src.push_str("a");
        src.push_null();
        src.push_str("ccc");
        let src = src.finish();
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push_str("x");
        b.extend_from(&src, 1, 3).unwrap();
        b.extend_from(&Column::Null { len: 2 }, 0, 2).unwrap();
        b.extend_from(&Column::int([7]), 0, 1).unwrap();
        let c = b.finish();
        let cells: Vec<Value> = c.iter().collect();
        assert_eq!(
            cells,
            [
                "x".into(),
                Value::Null,
                "ccc".into(),
                Value::Null,
                Value::Null,
                "7".into()
            ]
        );
        assert_eq!(src.slice(1, 3).null_count(), 1);
        // A cell that does not fit the target type is the error.
        let mut b = ColumnBuilder::new(DataType::Int64);
        assert!(b.extend_from(&src, 0, 1).is_err());
    }

    #[test]
    fn null_column_behaviour() {
        let c = Column::Null { len: 3 };
        assert_eq!(c.null_count(), 3);
        assert!(c.value(2).is_null());
        let t = c.take(&[0u32, 0]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn builder_null_tracking() {
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push_str("a");
        b.push_null();
        b.push_str("b");
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.str_at(0), Some("a"));
        assert_eq!(c.str_at(1), None);
    }
}
