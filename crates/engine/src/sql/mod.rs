//! SQL frontend over the shared task DAG (the *DashQL* direction).
//!
//! One engine, two languages: this module parses a practical `SELECT`
//! subset and lowers it onto exactly the operators the flow-file and
//! path-segment query languages already execute — the optimizer, the
//! `IndexedTable` kernels, and the server's generation-stamped result
//! caches are shared for free because nothing new executes.
//!
//! ```text
//! SELECT [DISTINCT] item[, ...]      item := col | agg(col) | count(*)
//! FROM endpoint [JOIN other ON a = b]          (with optional AS alias
//! [WHERE predicate]                             on aggregates)
//! [GROUP BY col[, ...]]
//! [ORDER BY col [ASC|DESC][, ...]]
//! [LIMIT n] [OFFSET n]
//! ```
//!
//! The pipeline is `tokenize` → [`parse::parse_select`] → [`lower::lower`]
//! producing a [`lower::SqlPlan`]: the statement's joins plus the
//! engine's one ad-hoc op list, [`crate::query::QueryOp`]. The server
//! resolves the joins and keys a plan by its path segments when every op
//! has a path spelling, so equivalent SQL and path queries share cache
//! entries; the flow layer maps the ops onto [`crate::task::TaskKind`]s
//! for the `T.sql` task type.
//!
//! Everything is hand-rolled and dependency-free; diagnostics carry byte
//! offsets resolved to line/column, following `flowfile`'s `diag.rs`
//! conventions (`error (line N): message`, line 0 = whole input).

pub mod lex;
pub mod lower;
pub mod parse;

pub use lower::{lower, tasks_for_flow, SqlPlan};
pub use parse::{parse_select, ItemKind, JoinClause, SelectItem, SelectStmt};

use shareinsights_flowfile::diag::Diagnostic;
use std::fmt;

/// A spanned SQL diagnostic: what went wrong and where in the query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line (0 = position unknown / whole query).
    pub line: usize,
    /// 1-based column within the line (0 = unknown).
    pub column: usize,
    /// Byte offset into the query text.
    pub offset: usize,
}

impl SqlError {
    /// Build an error at a byte offset of `src`.
    pub fn at(src: &str, offset: usize, message: impl Into<String>) -> SqlError {
        let (line, column) = line_col(src, offset);
        SqlError {
            message: message.into(),
            line,
            column,
            offset,
        }
    }

    /// Build an error with no position (line 0 = whole query, matching the
    /// flow-file convention).
    pub fn whole(message: impl Into<String>) -> SqlError {
        SqlError {
            message: message.into(),
            line: 0,
            column: 0,
            offset: 0,
        }
    }

    /// Convert to a flow-file diagnostic (used by the `T.sql` task type).
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::error(self.line, self.message.clone())
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "error: {}", self.message)
        } else {
            write!(
                f,
                "error (line {}, column {}): {}",
                self.line, self.column, self.message
            )
        }
    }
}

impl std::error::Error for SqlError {}

/// Resolve a byte offset to a 1-based (line, column) pair. Columns count
/// characters, not bytes, so a caret under the column lands correctly in
/// UTF-8 text.
pub fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let before = &src[..floor_char_boundary(src, offset)];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = before
        .rsplit('\n')
        .next()
        .map(|l| l.chars().count())
        .unwrap_or(0)
        + 1;
    (line, col)
}

fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_is_one_based_and_counts_chars() {
        assert_eq!(line_col("abc", 0), (1, 1));
        assert_eq!(line_col("abc", 2), (1, 3));
        assert_eq!(line_col("a\nbc", 2), (2, 1));
        assert_eq!(line_col("a\nbc", 3), (2, 2));
        // Multi-byte char counts as one column.
        assert_eq!(line_col("é x", 3), (1, 3));
        // Past-the-end clamps.
        assert_eq!(line_col("ab", 99), (1, 3));
    }

    #[test]
    fn display_matches_diag_conventions() {
        let e = SqlError::at("select", 3, "boom");
        assert_eq!(e.to_string(), "error (line 1, column 4): boom");
        assert_eq!(SqlError::whole("boom").to_string(), "error: boom");
        assert_eq!(e.to_diagnostic().to_string(), "error (line 1): boom");
    }
}
