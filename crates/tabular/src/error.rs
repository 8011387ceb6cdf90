//! Error type shared by every tabular operation.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T, E = TabularError> = std::result::Result<T, E>;

/// Errors raised by the columnar engine.
///
/// Every variant carries enough context to be surfaced to a flow-file author
/// without leaking engine internals (the paper's §5.2.2 observation 7 notes
/// that leaking engine errors breaks the abstraction, so messages here speak
/// in terms of columns, schemas and tasks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TabularError {
    /// A referenced column does not exist in the schema.
    ColumnNotFound {
        /// Name of the missing column.
        column: String,
        /// Columns that are available, for the diagnostic.
        available: Vec<String>,
    },
    /// A column already exists where a new one would be created.
    DuplicateColumn(String),
    /// An operation received a column of an unexpected type.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it actually received.
        actual: String,
        /// Context, typically the column or expression involved.
        context: String,
    },
    /// Two tables/columns that must have equal row counts did not.
    LengthMismatch {
        /// First length observed.
        left: usize,
        /// Second length observed.
        right: usize,
        /// Context for the diagnostic.
        context: String,
    },
    /// An expression failed to parse.
    ExprParse {
        /// Human-readable description of the failure.
        message: String,
        /// Byte offset in the source text.
        offset: usize,
    },
    /// A date string did not match the supplied format pattern.
    DateParse {
        /// The input that failed to parse.
        input: String,
        /// The Java-style pattern it was matched against.
        pattern: String,
    },
    /// A date format pattern is itself invalid.
    BadDatePattern(String),
    /// A payload (CSV/JSON/XML/record) failed to decode.
    Format {
        /// Which format decoder raised the error.
        format: &'static str,
        /// Description, usually with a line or offset.
        message: String,
    },
    /// A value failed to convert to the requested type.
    ValueConversion {
        /// The offending value rendered as text.
        value: String,
        /// The destination type.
        target: &'static str,
    },
    /// An integer aggregate's exact result does not fit in 64 bits.
    Overflow {
        /// The aggregate (`sum`).
        aggregate: &'static str,
        /// Its input column.
        column: String,
    },
    /// Catch-all for invalid operator configuration.
    InvalidOperation(String),
}

impl TabularError {
    /// Construct a [`TabularError::ColumnNotFound`] with the available
    /// columns captured for the diagnostic.
    pub fn column_not_found(column: impl Into<String>, available: &[impl AsRef<str>]) -> Self {
        TabularError::ColumnNotFound {
            column: column.into(),
            available: available.iter().map(|s| s.as_ref().to_string()).collect(),
        }
    }
}

impl fmt::Display for TabularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TabularError::ColumnNotFound { column, available } => write!(
                f,
                "column '{column}' not found; available columns: [{}]",
                available.join(", ")
            ),
            TabularError::DuplicateColumn(c) => write!(f, "column '{c}' already exists"),
            TabularError::TypeMismatch {
                expected,
                actual,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, got {actual}"
            ),
            TabularError::LengthMismatch {
                left,
                right,
                context,
            } => write!(f, "length mismatch in {context}: {left} vs {right}"),
            TabularError::ExprParse { message, offset } => {
                write!(f, "expression parse error at offset {offset}: {message}")
            }
            TabularError::DateParse { input, pattern } => {
                write!(f, "date '{input}' does not match pattern '{pattern}'")
            }
            TabularError::BadDatePattern(p) => write!(f, "invalid date pattern '{p}'"),
            TabularError::Format { format, message } => {
                write!(f, "{format} decode error: {message}")
            }
            TabularError::ValueConversion { value, target } => {
                write!(f, "cannot convert value '{value}' to {target}")
            }
            TabularError::Overflow { aggregate, column } => write!(
                f,
                "integer overflow: {aggregate} of column '{column}' leaves the 64-bit range"
            ),
            TabularError::InvalidOperation(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for TabularError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_not_found_lists_available() {
        let err = TabularError::column_not_found("rating", &["a", "b"]);
        let msg = err.to_string();
        assert!(msg.contains("rating"));
        assert!(msg.contains("a, b"));
    }

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<TabularError> = vec![
            TabularError::DuplicateColumn("x".into()),
            TabularError::TypeMismatch {
                expected: "Int64".into(),
                actual: "Utf8".into(),
                context: "filter".into(),
            },
            TabularError::LengthMismatch {
                left: 1,
                right: 2,
                context: "union".into(),
            },
            TabularError::ExprParse {
                message: "unexpected token".into(),
                offset: 3,
            },
            TabularError::DateParse {
                input: "x".into(),
                pattern: "yyyy".into(),
            },
            TabularError::BadDatePattern("Q".into()),
            TabularError::Format {
                format: "csv",
                message: "bad quote".into(),
            },
            TabularError::ValueConversion {
                value: "abc".into(),
                target: "Int64",
            },
            TabularError::Overflow {
                aggregate: "sum",
                column: "v".into(),
            },
            TabularError::InvalidOperation("nope".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
