//! Logical data types for columns and values.

use std::fmt;

/// The logical type of a column or scalar value.
///
/// The flow-file language of the paper is schema-light: data sections declare
/// column *names* (§3.2, figure 5) and types are inferred from payloads. The
/// engine therefore keeps the type lattice small and supports widening
/// coercions (`Int64 → Float64`, anything → `Utf8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Absent/unknown type; unifies with everything.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Calendar date stored as days since the Unix epoch.
    Date,
}

impl DataType {
    /// All concrete (non-null) types, useful for property tests.
    pub const ALL: [DataType; 6] = [
        DataType::Null,
        DataType::Bool,
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Date,
    ];

    /// The least upper bound of two types under the widening lattice, or
    /// `None` when the types are incompatible without stringification.
    ///
    /// `Null` unifies with everything; `Int64` widens to `Float64`; all
    /// other mixed pairs unify only at `Utf8` which callers must opt into
    /// via [`DataType::unify_lossy`].
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, t) | (t, Null) => Some(t),
            (Int64, Float64) | (Float64, Int64) => Some(Float64),
            _ => None,
        }
    }

    /// Like [`DataType::unify`] but falls back to `Utf8` for incompatible
    /// pairs — the behaviour payload readers use when a column holds mixed
    /// representations.
    pub fn unify_lossy(self, other: DataType) -> DataType {
        self.unify(other).unwrap_or(DataType::Utf8)
    }

    /// Canonical lowercase name used by diagnostics and the server API.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Null => "null",
            DataType::Bool => "bool",
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Utf8 => "utf8",
            DataType::Date => "date",
        }
    }

    /// Parse a type from its canonical name (used by flow-file `schema:`
    /// hints and the record binary format header).
    pub fn parse(name: &str) -> Option<DataType> {
        Some(match name {
            "null" => DataType::Null,
            "bool" | "boolean" => DataType::Bool,
            "int64" | "int" | "long" => DataType::Int64,
            "float64" | "float" | "double" => DataType::Float64,
            "utf8" | "string" | "chararray" => DataType::Utf8,
            "date" => DataType::Date,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_is_commutative_and_reflexive() {
        for &a in &DataType::ALL {
            assert_eq!(a.unify(a), Some(a));
            for &b in &DataType::ALL {
                assert_eq!(a.unify(b), b.unify(a));
            }
        }
    }

    #[test]
    fn null_unifies_with_everything() {
        for &t in &DataType::ALL {
            assert_eq!(DataType::Null.unify(t), Some(t));
        }
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(
            DataType::Int64.unify(DataType::Float64),
            Some(DataType::Float64)
        );
        assert_eq!(DataType::Utf8.unify(DataType::Int64), None);
        assert_eq!(DataType::Utf8.unify_lossy(DataType::Int64), DataType::Utf8);
    }

    #[test]
    fn name_parse_roundtrip() {
        for &t in &DataType::ALL {
            assert_eq!(DataType::parse(t.name()), Some(t));
        }
        assert_eq!(DataType::parse("chararray"), Some(DataType::Utf8));
        assert_eq!(DataType::parse("bogus"), None);
    }
}
