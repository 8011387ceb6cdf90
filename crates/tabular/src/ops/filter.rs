//! The row filter. Every filter the system runs — a flow's
//! `filter_expression: rating < 3`, a widget selection feeding `filter_by`
//! (figure 15), the data API's `filter/<col>/<value>` and a SQL `WHERE` —
//! is an [`Expr`] evaluated to a row mask (DESIGN.md decision 21).

use crate::error::Result;
use crate::expr::Expr;
use crate::table::Table;

/// Filter rows where `expr` evaluates to true. Column-preserving.
pub fn filter_by_expr(table: &Table, expr: &Expr) -> Result<Table> {
    let mask = expr.eval_mask(table)?;
    Ok(table.filter(&mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;
    use crate::row;

    #[test]
    fn expr_filter_preserves_columns() {
        let t = Table::from_rows(
            &["team", "n"],
            &[row!["CSK", 10i64], row!["MI", 20i64], row!["RCB", 40i64]],
        )
        .unwrap();
        let out = filter_by_expr(&t, &parse_expr("n > 15").unwrap()).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.schema().names(), vec!["team", "n"]);
    }
}
