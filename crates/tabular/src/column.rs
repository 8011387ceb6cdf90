//! Typed columnar storage with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use crate::value::Value;
use std::sync::Arc;

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
    Utf8 { data: Vec<String>, validity: Bitmap },
    /// Date column (days since epoch).
    Date { data: Vec<i32>, validity: Bitmap },
    /// All-null column of unknown type (e.g. an empty CSV column).
    Null { len: usize },
}

/// Shared column handle.
pub type ColumnRef = Arc<Column>;

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
        match self {
            Column::Null { len } => *len,
            _ => self.len() - self.validity().count_ones(),
        }
    }

    /// The validity bitmap (all-clear for [`Column::Null`]).
    pub fn validity(&self) -> Bitmap {
        match self {
            Column::Bool { validity, .. }
            | Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Utf8 { validity, .. }
            | Column::Date { validity, .. } => validity.clone(),
            Column::Null { len } => Bitmap::new_cleared(*len),
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
                    Value::Str(data[i].clone())
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
            Column::Utf8 { data, validity } if validity.get(i) => Some(data[i].as_str()),
            _ => None,
        }
    }

    /// Integer at row `i` (None when null or non-integer column).
    pub fn int_at(&self, i: usize) -> Option<i64> {
        match self {
            Column::Int64 { data, validity } if validity.get(i) => Some(data[i]),
            _ => None,
        }
    }

    /// Float at row `i`, widening integers.
    pub fn float_at(&self, i: usize) -> Option<f64> {
        match self {
            Column::Float64 { data, validity } if validity.get(i) => Some(data[i]),
            Column::Int64 { data, validity } if validity.get(i) => Some(data[i] as f64),
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
        let mut b = ColumnBuilder::new(ty);
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
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Bool { data, validity } => {
                let mut v = Bitmap::new_cleared(indices.len());
                let mut out = Vec::with_capacity(indices.len());
                for (k, &i) in indices.iter().enumerate() {
                    out.push(data[i]);
                    if validity.get(i) {
                        v.set(k);
                    }
                }
                Column::Bool {
                    data: out,
                    validity: v,
                }
            }
            Column::Int64 { data, validity } => {
                let mut v = Bitmap::new_cleared(indices.len());
                let mut out = Vec::with_capacity(indices.len());
                for (k, &i) in indices.iter().enumerate() {
                    out.push(data[i]);
                    if validity.get(i) {
                        v.set(k);
                    }
                }
                Column::Int64 {
                    data: out,
                    validity: v,
                }
            }
            Column::Float64 { data, validity } => {
                let mut v = Bitmap::new_cleared(indices.len());
                let mut out = Vec::with_capacity(indices.len());
                for (k, &i) in indices.iter().enumerate() {
                    out.push(data[i]);
                    if validity.get(i) {
                        v.set(k);
                    }
                }
                Column::Float64 {
                    data: out,
                    validity: v,
                }
            }
            Column::Utf8 { data, validity } => {
                let mut v = Bitmap::new_cleared(indices.len());
                let mut out = Vec::with_capacity(indices.len());
                for (k, &i) in indices.iter().enumerate() {
                    out.push(data[i].clone());
                    if validity.get(i) {
                        v.set(k);
                    }
                }
                Column::Utf8 {
                    data: out,
                    validity: v,
                }
            }
            Column::Date { data, validity } => {
                let mut v = Bitmap::new_cleared(indices.len());
                let mut out = Vec::with_capacity(indices.len());
                for (k, &i) in indices.iter().enumerate() {
                    out.push(data[i]);
                    if validity.get(i) {
                        v.set(k);
                    }
                }
                Column::Date {
                    data: out,
                    validity: v,
                }
            }
            Column::Null { len } => {
                for &i in indices {
                    assert!(i < *len, "row {i} out of range {len}");
                }
                Column::Null { len: indices.len() }
            }
        }
    }

    /// Gather rows by optional index; `None` produces a null cell. Used by
    /// outer joins for unmatched rows.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        let mut b = ColumnBuilder::new(self.data_type());
        for &i in indices {
            match i {
                Some(i) => b.push_lossy(&self.value(i)),
                None => b.push_null(),
            }
        }
        b.finish()
    }

    /// Filter rows by a selection bitmap.
    ///
    /// # Panics
    /// Panics when the mask length differs from the column length.
    pub fn filter(&self, mask: &Bitmap) -> Column {
        assert_eq!(mask.len(), self.len(), "filter mask length mismatch");
        self.take(&mask.ones())
    }

    /// Concatenate with another column of compatible type. Types are
    /// widened per the lossy lattice (mixed ⇒ `Utf8`).
    pub fn concat(&self, other: &Column) -> Result<Column> {
        let ty = self.data_type().unify_lossy(other.data_type());
        let mut b = ColumnBuilder::new(ty);
        for i in 0..self.len() {
            b.push_coerced(&self.value(i))?;
        }
        for i in 0..other.len() {
            b.push_coerced(&other.value(i))?;
        }
        Ok(b.finish())
    }

    /// Cast to another type, erroring on lossy conversions.
    pub fn cast(&self, target: DataType) -> Result<Column> {
        if self.data_type() == target {
            return Ok(self.clone());
        }
        let mut b = ColumnBuilder::new(target);
        for i in 0..self.len() {
            b.push_coerced(&self.value(i))?;
        }
        Ok(b.finish())
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
    strs: Vec<String>,
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
            strs: Vec::new(),
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
            DataType::Utf8 => b.strs.reserve(cap),
            DataType::Date => b.dates.reserve(cap),
            DataType::Null => {}
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
        self.push_slot_default();
        self.validity.push(false);
        self.len += 1;
    }

    fn push_slot_default(&mut self) {
        match self.ty {
            DataType::Bool => self.bools.push(false),
            DataType::Int64 => self.ints.push(0),
            DataType::Float64 => self.floats.push(0.0),
            DataType::Utf8 => self.strs.push(String::new()),
            DataType::Date => self.dates.push(0),
            DataType::Null => {}
        }
    }

    /// Append a value, coercing to the target type; errors propagate.
    pub fn push_coerced(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            self.push_null();
            return Ok(());
        }
        let coerced = v.coerce(self.ty)?;
        match (&coerced, self.ty) {
            (Value::Bool(b), DataType::Bool) => self.bools.push(*b),
            (Value::Int(i), DataType::Int64) => self.ints.push(*i),
            (Value::Float(f), DataType::Float64) => self.floats.push(*f),
            (Value::Str(s), DataType::Utf8) => self.strs.push(s.clone()),
            (Value::Date(d), DataType::Date) => self.dates.push(*d),
            (_, DataType::Null) => {
                // Target type Null only holds nulls; a non-null cell here is
                // a caller bug surfaced as a conversion error.
                return Err(TabularError::ValueConversion {
                    value: v.to_string(),
                    target: "null",
                });
            }
            _ => unreachable!("coerce returned mismatched type"),
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
    pub fn push_str(&mut self, s: impl Into<String>) {
        assert_eq!(self.ty, DataType::Utf8, "push_str on non-utf8 builder");
        self.strs.push(s.into());
        self.validity.push(true);
        self.len += 1;
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
    pub fn utf8<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Column {
        let data: Vec<String> = values.into_iter().map(Into::into).collect();
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
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.value(0), Value::Str("c".into()));
        assert_eq!(t.value(1), Value::Str("a".into()));
        assert_eq!(t.value(2), Value::Str("a".into()));
    }

    #[test]
    fn take_opt_produces_nulls() {
        let c = Column::int([10, 20]);
        let t = c.take_opt(&[Some(1), None, Some(0)]);
        assert_eq!(t.value(0), Value::Int(20));
        assert!(t.value(1).is_null());
        assert_eq!(t.value(2), Value::Int(10));
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
    fn concat_widens() {
        let a = Column::int([1]);
        let b = Column::float([2.5]);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cast_lossy_errors() {
        let c = Column::utf8(["12", "x"]);
        assert!(c.cast(DataType::Int64).is_err());
        let ok = Column::utf8(["12", "34"]).cast(DataType::Int64).unwrap();
        assert_eq!(ok.value(1), Value::Int(34));
    }

    #[test]
    fn null_column_behaviour() {
        let c = Column::Null { len: 3 };
        assert_eq!(c.null_count(), 3);
        assert!(c.value(2).is_null());
        let t = c.take(&[0, 0]);
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
