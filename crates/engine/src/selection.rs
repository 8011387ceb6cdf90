//! Widget selection state as seen by the engine.
//!
//! Interaction flows filter by values "retrieved from widget X's widget
//! column property" (figure 15). The engine stays decoupled from the widget
//! crate through [`SelectionProvider`]: at execution time a `filter_by`
//! task with a `filter_source: W.<widget>` asks the provider for that
//! widget's current selection, and [`Selection::predicate`] lowers it into
//! the one predicate language every row filter runs on.

use parking_lot::RwLock;
use shareinsights_tabular::expr::{CmpOp, Expr};
use shareinsights_tabular::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A widget's current selection, keyed by widget column.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// Discrete selected values (list widgets, bubble selection).
    Values(Vec<Value>),
    /// An inclusive range (sliders).
    Range(Value, Value),
}

impl Selection {
    /// The row filter this selection puts on `column`: `Values(v)` is
    /// `column in v` and `Range(lo, hi)` is `column >= lo and column <= hi`,
    /// with [`Expr`]'s semantics — string↔number coercion, and a null
    /// bound compares false. An empty value list constrains nothing
    /// (`None`): a dashboard with nothing selected shows everything.
    pub fn predicate(&self, column: &str) -> Option<Expr> {
        let bound = |op, v: &Value| Expr::cmp(op, Expr::col(column), Expr::Literal(v.clone()));
        match self {
            Selection::Values(v) if v.is_empty() => None,
            Selection::Values(v) => Some(Expr::InList(Box::new(Expr::col(column)), v.clone())),
            Selection::Range(lo, hi) => Some(Expr::and(bound(CmpOp::Ge, lo), bound(CmpOp::Le, hi))),
        }
    }
}

/// Resolves `(widget, widget column)` to the current selection.
pub trait SelectionProvider: Send + Sync {
    /// The selection, or `None` when nothing is selected (no constraint).
    fn selection(&self, widget: &str, column: &str) -> Option<Selection>;
}

/// A simple map-backed provider used by tests, the server's headless mode
/// and the hackathon simulator.
#[derive(Debug, Clone, Default)]
pub struct StaticSelections {
    map: Arc<RwLock<HashMap<(String, String), Selection>>>,
}

impl StaticSelections {
    /// Empty provider (everything unconstrained).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a selection.
    pub fn set(&self, widget: &str, column: &str, selection: Selection) {
        self.map
            .write()
            .insert((widget.to_string(), column.to_string()), selection);
    }

    /// Clear a widget column's selection.
    pub fn clear(&self, widget: &str, column: &str) {
        self.map
            .write()
            .remove(&(widget.to_string(), column.to_string()));
    }
}

impl SelectionProvider for StaticSelections {
    fn selection(&self, widget: &str, column: &str) -> Option<Selection> {
        self.map
            .read()
            .get(&(widget.to_string(), column.to_string()))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::ops::filter_by_expr;
    use shareinsights_tabular::{row, Table};

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

    /// The rows `selection` keeps of [`t`] on `column`.
    fn kept(selection: Selection, column: &str) -> shareinsights_tabular::Result<usize> {
        match selection.predicate(column) {
            Some(e) => Ok(filter_by_expr(&t(), &e)?.num_rows()),
            None => Ok(t().num_rows()),
        }
    }

    #[test]
    fn value_selection_is_membership() {
        let teams = Selection::Values(vec!["CSK".into(), "MI".into()]);
        assert_eq!(kept(teams, "team").unwrap(), 3);
        // A string member meets a number as that number.
        assert_eq!(kept(Selection::Values(vec!["20".into()]), "n").unwrap(), 1);
    }

    #[test]
    fn empty_selection_means_no_constraint() {
        assert_eq!(Selection::Values(vec![]).predicate("team"), None);
        assert_eq!(kept(Selection::Values(vec![]), "nope").unwrap(), 4);
    }

    #[test]
    fn range_selection_is_inclusive() {
        let dates = Selection::Range("2013-05-02".into(), "2013-05-03".into());
        assert_eq!(kept(dates, "date").unwrap(), 3);
        // A slider's static bounds are strings; over numbers they coerce.
        assert_eq!(
            kept(Selection::Range("15".into(), "30".into()), "n").unwrap(),
            2
        );
        // A null bound compares false, as in SQL.
        assert_eq!(
            kept(Selection::Range(Value::Null, Value::Int(30)), "n").unwrap(),
            0
        );
    }

    #[test]
    fn missing_column_errors() {
        assert!(kept(Selection::Values(vec!["x".into()]), "nope").is_err());
    }

    #[test]
    fn nulls_never_match_ranges() {
        let t = Table::from_rows(&["d"], &[row!["2013-01-01"], row![Value::Null]]).unwrap();
        let range = Selection::Range("2000-01-01".into(), "2020-01-01".into());
        let out = filter_by_expr(&t, &range.predicate("d").unwrap()).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn set_get_clear() {
        let s = StaticSelections::new();
        assert!(s.selection("teams", "text").is_none());
        s.set("teams", "text", Selection::Values(vec!["CSK".into()]));
        assert_eq!(
            s.selection("teams", "text"),
            Some(Selection::Values(vec!["CSK".into()]))
        );
        s.set(
            "ipl_duration",
            "value",
            Selection::Range("2013-05-02".into(), "2013-05-10".into()),
        );
        assert!(matches!(
            s.selection("ipl_duration", "value"),
            Some(Selection::Range(_, _))
        ));
        s.clear("teams", "text");
        assert!(s.selection("teams", "text").is_none());
    }

    #[test]
    fn clones_share_state() {
        let a = StaticSelections::new();
        let b = a.clone();
        a.set("w", "c", Selection::Values(vec![Value::Int(1)]));
        assert!(b.selection("w", "c").is_some());
    }
}
