//! AST → query-op lowering.
//!
//! [`lower`] turns a parsed [`SelectStmt`] into a [`SqlPlan`]: the
//! statement's joins, then a linear list of the engine's ad-hoc
//! [`QueryOp`]s in SQL's logical evaluation order —
//!
//! ```text
//! JOIN* → WHERE → GROUP BY+aggregates → ORDER BY → projection → DISTINCT
//!       → OFFSET → LIMIT
//! ```
//!
//! (`ORDER BY` runs before the projection so it may reference any
//! pre-projection column; projected output is unaffected because `take`
//! preserves row order.) The joins stay the parsed [`JoinClause`]s: only
//! the serving layer can resolve an endpoint name to a table, and it
//! prepends one `QueryOp::Join` each. [`tasks_for_flow`] maps the ops onto
//! [`TaskKind`]s for the `T.sql` flow task. Every consumer therefore
//! executes the exact operators the other query languages already
//! exercise — nothing in this module evaluates data.

use super::parse::{ItemKind, JoinClause, SelectStmt};
use super::SqlError;
use crate::memo::Key128;
use crate::query::QueryOp;
use crate::task::{NamedTask, TaskKind};
use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::ops::{AggregateSpec, GroupBy};

/// A lowered query: the driving endpoint, its joins and its op list.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlPlan {
    /// `FROM` endpoint name.
    pub table: String,
    /// `JOIN`s in statement order; they run before every op.
    pub joins: Vec<JoinClause>,
    /// The rest of the statement, in execution order.
    pub ops: Vec<QueryOp>,
}

/// Lower a parsed statement to its joins and op list. Errors are semantic
/// (non-grouped select column, `*` mixed with `GROUP BY`, …) and carry
/// the offending item's span.
pub fn lower(src: &str, stmt: &SelectStmt) -> Result<SqlPlan, SqlError> {
    let mut ops = Vec::new();
    if let Some(w) = &stmt.where_clause {
        ops.push(QueryOp::FilterExpr(w.clone()));
    }

    let has_aggregates = stmt
        .items
        .iter()
        .any(|i| matches!(i.kind, ItemKind::Aggregate { .. }));

    // Output column names in select-list order (None = `*`).
    let projection: Option<Vec<String>>;

    if has_aggregates || !stmt.group_by.is_empty() {
        let mut aggregates = Vec::new();
        let mut names = Vec::new();
        for item in &stmt.items {
            match &item.kind {
                ItemKind::Star => {
                    return Err(SqlError::at(
                        src,
                        item.offset,
                        "'*' cannot be combined with GROUP BY or aggregates",
                    ));
                }
                ItemKind::Column(c) => {
                    if !stmt.group_by.iter().any(|k| k == c) {
                        return Err(SqlError::at(
                            src,
                            item.offset,
                            format!("column '{c}' must appear in GROUP BY or inside an aggregate"),
                        ));
                    }
                    names.push(c.clone());
                }
                ItemKind::Aggregate { func, apply_on } => {
                    let out_field = item
                        .alias
                        .clone()
                        .unwrap_or_else(|| default_agg_name(*func, apply_on));
                    names.push(out_field.clone());
                    aggregates.push(AggregateSpec::new(*func, apply_on.clone(), out_field));
                }
            }
        }
        if aggregates.is_empty() {
            return Err(SqlError::at(
                src,
                stmt.items.first().map(|i| i.offset).unwrap_or(0),
                "GROUP BY needs at least one aggregate in the select list",
            ));
        }
        ops.push(QueryOp::GroupBy(GroupBy::with_aggregates(
            &stmt.group_by,
            aggregates.clone(),
        )));
        // The groupby kernel emits keys then aggregates; skip the
        // projection when the select list already reads that way.
        let natural: Vec<String> = stmt
            .group_by
            .iter()
            .cloned()
            .chain(aggregates.iter().map(|a| a.out_field.clone()))
            .collect();
        projection = if names == natural { None } else { Some(names) };
    } else {
        let mut names = Vec::new();
        let mut star = false;
        for item in &stmt.items {
            match &item.kind {
                ItemKind::Star => star = true,
                ItemKind::Column(c) => {
                    if item.alias.is_some() {
                        return Err(SqlError::at(
                            src,
                            item.offset,
                            "AS aliases are only supported on aggregates",
                        ));
                    }
                    names.push(c.clone());
                }
                ItemKind::Aggregate { .. } => unreachable!("has_aggregates is false"),
            }
        }
        if star {
            if !names.is_empty() {
                return Err(SqlError::at(
                    src,
                    stmt.items.first().map(|i| i.offset).unwrap_or(0),
                    "'*' cannot be mixed with named columns",
                ));
            }
            projection = None;
        } else {
            projection = Some(names);
        }
    }

    if !stmt.order_by.is_empty() {
        ops.push(QueryOp::Sort(stmt.order_by.clone()));
    }
    if let Some(cols) = projection {
        ops.push(QueryOp::Project(cols));
    }
    if stmt.distinct {
        ops.push(QueryOp::Distinct(Vec::new()));
    }
    if let Some(n) = stmt.offset_rows {
        ops.push(QueryOp::Offset(n));
    }
    if let Some(n) = stmt.limit {
        ops.push(QueryOp::Limit(n));
    }
    Ok(SqlPlan {
        table: stmt.table.clone(),
        joins: stmt.joins.clone(),
        ops,
    })
}

/// The default output column name for an aggregate, matching the
/// path-segment query convention (`sum_revenue`) so unaliased SQL
/// aggregates produce byte-identical results — and share cache entries —
/// with `groupby/<key>/<agg>/<col>`.
pub fn default_agg_name(func: AggKind, apply_on: &str) -> String {
    if apply_on.is_empty() {
        func.name().to_string()
    } else {
        format!("{}_{}", func.name(), apply_on)
    }
}

/// Parse + lower a query into a sequential task pipeline for the `T.sql`
/// flow task type. The `FROM` name is nominal — flow wiring decides the
/// actual input — and the shapes that only make sense against the serving
/// layer (`JOIN`, `OFFSET`) are rejected with a diagnostic pointing at
/// the flow-level alternative.
pub fn tasks_for_flow(task_name: &str, query: &str) -> Result<Vec<NamedTask>, SqlError> {
    let stmt = super::parse::parse_select(query)?;
    let plan = lower(query, &stmt)?;
    if !plan.joins.is_empty() {
        return Err(SqlError::whole(
            "JOIN is not supported inside T.sql tasks; use a flow-level join task",
        ));
    }
    let mut out = Vec::new();
    for (i, op) in plan.ops.into_iter().enumerate() {
        let (label, kind) = match op {
            QueryOp::Offset(_) => {
                return Err(SqlError::whole(
                    "OFFSET is not supported inside T.sql tasks; page via the serving API",
                ));
            }
            QueryOp::FilterExpr(e) => ("filter", TaskKind::FilterExpr(e)),
            QueryOp::GroupBy(builtin) => (
                "groupby",
                TaskKind::GroupBy {
                    builtin,
                    custom: Vec::new(),
                },
            ),
            QueryOp::Sort(keys) => ("sort", TaskKind::Sort(keys)),
            QueryOp::Project(cols) => ("project", TaskKind::Project(cols)),
            QueryOp::Distinct(cols) => ("distinct", TaskKind::Distinct(cols)),
            QueryOp::Limit(n) => ("limit", TaskKind::Limit(n)),
            QueryOp::Join(_) | QueryOp::TopN { .. } | QueryOp::FilteredGroupBy { .. } => {
                unreachable!("`lower` keeps joins apart and fuses nothing")
            }
        };
        // The query text decides every op, so it and the op's place
        // fingerprint the task.
        let fingerprint = Key128::new(b"sql").str(query).u64(i as u64).finish();
        out.push(NamedTask {
            name: format!("{task_name}:{i}.{label}"),
            kind,
            fingerprint: Some(fingerprint),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::parse::parse_select;
    use super::*;
    use shareinsights_tabular::ops::SortOrder;

    fn plan(src: &str) -> SqlPlan {
        lower(src, &parse_select(src).unwrap()).unwrap()
    }

    #[test]
    fn canonical_groupby_needs_no_projection() {
        let p = plan("select brand, sum(revenue) from sales group by brand");
        assert_eq!(p.table, "sales");
        assert_eq!(p.ops.len(), 1);
        match &p.ops[0] {
            QueryOp::GroupBy(g) => {
                assert_eq!(g.keys, vec!["brand"]);
                assert_eq!(g.aggregates.len(), 1);
                assert_eq!(g.aggregates[0].out_field, "sum_revenue");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reordered_select_list_adds_projection() {
        let p = plan("select sum(revenue), brand from sales group by brand");
        assert!(matches!(&p.ops[1], QueryOp::Project(c) if c == &["sum_revenue", "brand"]));
    }

    #[test]
    fn stage_order_follows_sql_semantics() {
        let p = plan(
            "select distinct region from sales where units > 1 \
             order by region desc limit 3 offset 1",
        );
        let kinds: Vec<&str> = p
            .ops
            .iter()
            .map(|op| match op {
                QueryOp::FilterExpr(_) => "filter",
                QueryOp::GroupBy(_) => "groupby",
                QueryOp::Sort(_) => "sort",
                QueryOp::Project(_) => "project",
                QueryOp::Distinct(_) => "distinct",
                QueryOp::Limit(_) => "limit",
                QueryOp::Offset(_) => "offset",
                other => panic!("`lower` emitted {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["filter", "sort", "project", "distinct", "offset", "limit"]
        );
        assert!(
            matches!(&p.ops[1], QueryOp::Sort(k) if k[0].order == SortOrder::Desc),
            "sort key direction survives"
        );
    }

    #[test]
    fn global_aggregate_groups_without_keys() {
        let p = plan("select count(*) from t");
        match &p.ops[0] {
            QueryOp::GroupBy(g) => {
                assert!(g.keys.is_empty());
                assert_eq!(g.aggregates[0].out_field, "count_all");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn semantic_errors_are_spanned() {
        let src = "select brand, units from sales group by brand";
        let e = lower(src, &parse_select(src).unwrap()).unwrap_err();
        assert!(e.message.contains("'units' must appear in GROUP BY"), "{e}");
        assert_eq!(e.line, 1);
        assert!(e.column > 1);

        let src = "select * from t group by a";
        assert!(lower(src, &parse_select(src).unwrap()).is_err());
        let src = "select a as b from t";
        assert!(lower(src, &parse_select(src).unwrap())
            .unwrap_err()
            .message
            .contains("aliases"));
    }

    #[test]
    fn flow_tasks_mirror_stages_and_reject_serving_only_shapes() {
        let tasks = tasks_for_flow(
            "t_sql",
            "select brand, sum(revenue) from s group by brand limit 2",
        )
        .unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].name, "t_sql:0.groupby");
        assert!(matches!(tasks[1].kind, TaskKind::Limit(2)));

        assert!(tasks_for_flow("t", "select * from a join b on x = y")
            .unwrap_err()
            .message
            .contains("flow-level join"));
        assert!(tasks_for_flow("t", "select * from a offset 3")
            .unwrap_err()
            .message
            .contains("OFFSET"));
    }
}
