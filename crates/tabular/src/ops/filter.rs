//! Filter kernels: expression filters (`filter_expression: rating < 3`)
//! and value-set filters (the interaction-flow form configured with
//! `filter_by` / `filter_source` / `filter_val`, figure 15).

use crate::bitmap::Bitmap;
use crate::error::Result;
use crate::expr::Expr;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashSet;

/// Filter rows where `expr` evaluates to true. Column-preserving.
pub fn filter_by_expr(table: &Table, expr: &Expr) -> Result<Table> {
    let mask = expr.eval_mask(table)?;
    Ok(table.filter(&mask))
}

/// Configuration for filtering by allowed value sets on one or more columns.
///
/// In interaction flows the allowed values come from another widget's
/// selection (e.g. keep rows whose `team` is among the teams selected in the
/// `teams` list widget). Multiple columns AND together. An empty allowed set
/// for a column is treated as "no constraint" — matching the dashboards'
/// behaviour where an empty selection shows everything.
#[derive(Debug, Clone, Default)]
pub struct FilterByValues {
    /// `(column, allowed values)` pairs.
    pub constraints: Vec<(String, Vec<Value>)>,
}

impl FilterByValues {
    /// Single-column constraint.
    pub fn single(column: impl Into<String>, allowed: Vec<Value>) -> Self {
        FilterByValues {
            constraints: vec![(column.into(), allowed)],
        }
    }

    /// Add a constraint.
    pub fn and(mut self, column: impl Into<String>, allowed: Vec<Value>) -> Self {
        self.constraints.push((column.into(), allowed));
        self
    }

    /// A range constraint `[lo, hi]` on a column, as produced by slider
    /// widgets (`ipl_duration` date slider). Encoded as a two-element
    /// allowed list interpreted by [`filter_by_values`] as inclusive bounds.
    pub fn range(column: impl Into<String>, lo: Value, hi: Value) -> RangeFilter {
        RangeFilter {
            column: column.into(),
            lo,
            hi,
        }
    }
}

/// Inclusive range filter used by slider widgets.
#[derive(Debug, Clone)]
pub struct RangeFilter {
    /// Column to constrain.
    pub column: String,
    /// Inclusive lower bound.
    pub lo: Value,
    /// Inclusive upper bound.
    pub hi: Value,
}

/// Apply a range filter.
pub fn filter_by_range(table: &Table, range: &RangeFilter) -> Result<Table> {
    let col = table.column(&range.column)?;
    let n = table.num_rows();
    let mut mask = Bitmap::new_cleared(n);
    for i in 0..n {
        let v = col.value(i);
        if !v.is_null() && v >= range.lo && v <= range.hi {
            mask.set(i);
        }
    }
    Ok(table.filter(&mask))
}

/// Apply value-set constraints; all constraints AND together.
pub fn filter_by_values(table: &Table, spec: &FilterByValues) -> Result<Table> {
    Ok(table.filter(&values_mask(table, spec)?))
}

/// The selection [`filter_by_values`] keeps, as a row mask — for callers
/// that fold the selected rows without materialising them.
pub fn values_mask(table: &Table, spec: &FilterByValues) -> Result<Bitmap> {
    let n = table.num_rows();
    let mut mask = Bitmap::new_set(n);
    for (column, allowed) in &spec.constraints {
        if allowed.is_empty() {
            continue; // empty selection = no constraint
        }
        let col = table.column(column)?;
        let set: HashSet<&Value> = allowed.iter().collect();
        let mut m = Bitmap::new_cleared(n);
        for i in 0..n {
            if set.contains(&col.value(i)) {
                m.set(i);
            }
        }
        mask = mask.and(&m);
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;
    use crate::row;

    fn t() -> Table {
        Table::from_rows(
            &["team", "date", "n"],
            &[
                row!["CSK", "2013-05-02", 10i64],
                row!["MI", "2013-05-02", 20i64],
                row!["CSK", "2013-05-03", 30i64],
                row!["RCB", "2013-05-04", 40i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn expr_filter_preserves_columns() {
        let out = filter_by_expr(&t(), &parse_expr("n > 15").unwrap()).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema().names(), vec!["team", "date", "n"]);
    }

    #[test]
    fn value_set_filter() {
        let spec = FilterByValues::single("team", vec!["CSK".into(), "MI".into()]);
        let out = filter_by_values(&t(), &spec).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn multi_column_constraints_and_together() {
        let spec = FilterByValues::single("team", vec!["CSK".into()])
            .and("date", vec!["2013-05-03".into()]);
        let out = filter_by_values(&t(), &spec).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(30));
    }

    #[test]
    fn empty_selection_means_no_constraint() {
        let spec = FilterByValues::single("team", vec![]);
        let out = filter_by_values(&t(), &spec).unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn range_filter_inclusive() {
        let r = FilterByValues::range("date", "2013-05-02".into(), "2013-05-03".into());
        let out = filter_by_range(&t(), &r).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn missing_column_errors() {
        let spec = FilterByValues::single("nope", vec!["x".into()]);
        assert!(filter_by_values(&t(), &spec).is_err());
    }

    #[test]
    fn nulls_never_match_ranges() {
        let t = Table::from_rows(&["d"], &[row!["2013-01-01"], row![Value::Null]]).unwrap();
        let r = FilterByValues::range("d", "2000-01-01".into(), "2020-01-01".into());
        assert_eq!(filter_by_range(&t, &r).unwrap().num_rows(), 1);
    }
}
