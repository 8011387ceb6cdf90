//! Schemas: ordered, named, typed column lists.
//!
//! In the flow-file language the user declares data-object schemas as bare
//! column-name lists (§3.2 figure 5); types are inferred at load time. Tasks
//! are *context-typed* (§3.3): a task config names columns it consumes and
//! is valid only against schemas that contain them. [`Schema`] is the
//! structure that validation is performed against all the way up the stack.

use crate::datatype::DataType;
use crate::error::{Result, TabularError};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column logical type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Copy of this field with a different name (used by join projection
    /// renames such as `players_tweets_date: date`).
    pub fn renamed(&self, name: impl Into<String>) -> Field {
        Field::new(name, self.data_type)
    }

    /// Copy of this field with a different type.
    pub fn retyped(&self, data_type: DataType) -> Field {
        Field::new(self.name.clone(), data_type)
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.data_type)
    }
}

/// An ordered collection of uniquely named fields.
///
/// Cheap to clone (callers typically wrap it in [`SchemaRef`]); name lookup
/// is O(1) via an internal index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema from fields, rejecting duplicate names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i).is_some() {
                return Err(TabularError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields, index })
    }

    /// Empty schema.
    pub fn empty() -> Self {
        Schema {
            fields: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Convenience constructor from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate names — intended for statically known schemas in
    /// tests and generators.
    pub fn of(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("duplicate column in static schema")
    }

    /// Schema with every column typed `Utf8` — what a bare flow-file column
    /// list like `[project, question, answer, tags]` denotes before type
    /// inference.
    pub fn all_utf8(names: &[impl AsRef<str>]) -> Result<Self> {
        Schema::new(
            names
                .iter()
                .map(|n| Field::new(n.as_ref(), DataType::Utf8))
                .collect(),
        )
    }

    /// The fields, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Column names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| TabularError::column_not_found(name, &self.names()))
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// True when the schema has a column of the given name.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Verify every name in `required` is present; the error message names
    /// the first missing column.
    pub fn require(&self, required: &[impl AsRef<str>]) -> Result<()> {
        for r in required {
            self.index_of(r.as_ref())?;
        }
        Ok(())
    }

    /// New schema with `field` appended, rejecting duplicates.
    pub fn with_field(&self, field: Field) -> Result<Schema> {
        let mut fields = self.fields.clone();
        fields.push(field);
        Schema::new(fields)
    }

    /// New schema with `field` appended, replacing an existing same-named
    /// column in place (the behaviour of map operators whose `output`
    /// column already exists).
    pub fn upsert_field(&self, field: Field) -> Schema {
        let mut fields = self.fields.clone();
        match self.index.get(&field.name) {
            Some(&i) => fields[i] = field,
            None => fields.push(field),
        }
        Schema::new(fields).expect("upsert cannot introduce duplicates")
    }

    /// Projection onto a subset of columns, in the requested order.
    pub fn project(&self, names: &[impl AsRef<str>]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            fields.push(self.field(n.as_ref())?.clone());
        }
        Schema::new(fields)
    }

    /// True when `other` has identical names and types in the same order.
    pub fn same_shape(&self, other: &Schema) -> bool {
        self.fields == other.fields
    }

    /// Unify this schema with another having the same column names in the
    /// same order, widening types per [`DataType::unify_lossy`]. Used by
    /// `union` and multi-chunk readers.
    pub fn unify(&self, other: &Schema) -> Result<Schema> {
        if self.len() != other.len() {
            return Err(TabularError::LengthMismatch {
                left: self.len(),
                right: other.len(),
                context: "schema unify".into(),
            });
        }
        let mut fields = Vec::with_capacity(self.len());
        for (a, b) in self.fields.iter().zip(other.fields.iter()) {
            if a.name != b.name {
                return Err(TabularError::InvalidOperation(format!(
                    "schema unify: column name mismatch '{}' vs '{}'",
                    a.name, b.name
                )));
            }
            fields.push(Field::new(
                a.name.clone(),
                a.data_type.unify_lossy(b.data_type),
            ));
        }
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a", DataType::Utf8),
        ])
        .unwrap_err();
        assert!(matches!(err, TabularError::DuplicateColumn(_)));
    }

    #[test]
    fn lookup_and_projection() {
        let s = Schema::of(&[
            ("project", DataType::Utf8),
            ("year", DataType::Int64),
            ("total_wt", DataType::Float64),
        ]);
        assert_eq!(s.index_of("year").unwrap(), 1);
        assert!(s.contains("total_wt"));
        assert!(s.index_of("nope").is_err());
        let p = s.project(&["total_wt", "project"]).unwrap();
        assert_eq!(p.names(), vec!["total_wt", "project"]);
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let s = Schema::of(&[("a", DataType::Int64)]);
        assert!(s.require(&["a"]).is_ok());
        let err = s.require(&["a", "b"]).unwrap_err();
        assert!(err.to_string().contains("'b'"));
    }

    #[test]
    fn upsert_replaces_in_place() {
        let s = Schema::of(&[("a", DataType::Utf8), ("b", DataType::Utf8)]);
        let s2 = s.upsert_field(Field::new("a", DataType::Int64));
        assert_eq!(s2.names(), vec!["a", "b"]);
        assert_eq!(s2.field("a").unwrap().data_type(), DataType::Int64);
        let s3 = s.upsert_field(Field::new("c", DataType::Bool));
        assert_eq!(s3.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn unify_widens() {
        let a = Schema::of(&[("x", DataType::Int64), ("y", DataType::Null)]);
        let b = Schema::of(&[("x", DataType::Float64), ("y", DataType::Utf8)]);
        let u = a.unify(&b).unwrap();
        assert_eq!(u.field("x").unwrap().data_type(), DataType::Float64);
        assert_eq!(u.field("y").unwrap().data_type(), DataType::Utf8);
        let c = Schema::of(&[("z", DataType::Int64), ("y", DataType::Utf8)]);
        assert!(a.unify(&c).is_err(), "name mismatch");
    }

    #[test]
    fn all_utf8_matches_flowfile_declaration() {
        let s = Schema::all_utf8(&["project", "question", "answer", "tags"]).unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.fields().iter().all(|f| f.data_type() == DataType::Utf8));
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::of(&[("a", DataType::Int64)]);
        assert_eq!(s.to_string(), "[a: int64]");
    }
}
