//! AST → operator lowering.
//!
//! [`lower`] turns a parsed [`SelectStmt`] into a [`SqlPlan`]: a linear
//! list of stages in the tabular operator vocabulary, ordered by SQL's
//! logical evaluation order —
//!
//! ```text
//! JOIN* → WHERE → GROUP BY+aggregates → ORDER BY → projection → DISTINCT
//!       → LIMIT → OFFSET
//! ```
//!
//! (`ORDER BY` runs before the projection so it may reference any
//! pre-projection column; projected output is unaffected because `take`
//! preserves row order.) The server maps stages onto ad-hoc `QueryOp`s;
//! [`tasks_for_flow`] maps them onto [`TaskKind`]s for the `T.sql` flow
//! task. Both consumers therefore execute the exact operators the other
//! query languages already exercise — nothing in this module evaluates
//! data.

use super::parse::{ItemKind, SelectStmt};
use super::SqlError;
use crate::memo::Key128;
use crate::task::{NamedTask, TaskKind};
use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::expr::Expr;
use shareinsights_tabular::ops::{AggregateSpec, GroupBy, SortKey};

/// One lowered pipeline stage, in the shared operator vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStage {
    /// Inner equi-join against another endpoint.
    Join {
        /// Right-side endpoint name.
        table: String,
        /// Key column on the accumulated left side.
        left_on: String,
        /// Key column on the right side.
        right_on: String,
    },
    /// Row filter (`WHERE`).
    Filter(Expr),
    /// Grouped aggregation (keys + aggregates, including the global
    /// no-key case for `SELECT count(*) FROM t`).
    GroupBy(GroupBy),
    /// Multi-key sort (`ORDER BY`).
    Sort(Vec<SortKey>),
    /// Column selection, in select-list order.
    Project(Vec<String>),
    /// Whole-row deduplication (`SELECT DISTINCT`); runs post-projection.
    Distinct,
    /// `LIMIT n`.
    Limit(usize),
    /// `OFFSET n` (row skip; applied after `LIMIT` lowering keeps SQL's
    /// `LIMIT n OFFSET m` meaning because the stage order is
    /// offset-then-limit).
    Offset(usize),
}

/// A lowered query: the driving endpoint plus its stage pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlPlan {
    /// `FROM` endpoint name.
    pub table: String,
    /// Stages, in execution order.
    pub stages: Vec<SqlStage>,
}

/// Lower a parsed statement to a stage pipeline. Errors are semantic
/// (non-grouped select column, `*` mixed with `GROUP BY`, …) and carry
/// the offending item's span.
pub fn lower(src: &str, stmt: &SelectStmt) -> Result<SqlPlan, SqlError> {
    let mut stages = Vec::new();
    for j in &stmt.joins {
        stages.push(SqlStage::Join {
            table: j.table.clone(),
            left_on: j.left_on.clone(),
            right_on: j.right_on.clone(),
        });
    }
    if let Some(w) = &stmt.where_clause {
        stages.push(SqlStage::Filter(w.clone()));
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
        stages.push(SqlStage::GroupBy(GroupBy::with_aggregates(
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
        stages.push(SqlStage::Sort(stmt.order_by.clone()));
    }
    if let Some(cols) = projection {
        stages.push(SqlStage::Project(cols));
    }
    if stmt.distinct {
        stages.push(SqlStage::Distinct);
    }
    if let Some(n) = stmt.offset_rows {
        stages.push(SqlStage::Offset(n));
    }
    if let Some(n) = stmt.limit {
        stages.push(SqlStage::Limit(n));
    }
    Ok(SqlPlan {
        table: stmt.table.clone(),
        stages,
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
/// actual input — and stages that only make sense against the serving
/// layer (`JOIN`, `OFFSET`) are rejected with a diagnostic pointing at
/// the flow-level alternative.
pub fn tasks_for_flow(task_name: &str, query: &str) -> Result<Vec<NamedTask>, SqlError> {
    let stmt = super::parse::parse_select(query)?;
    let plan = lower(query, &stmt)?;
    let mut out = Vec::new();
    for (i, stage) in plan.stages.iter().enumerate() {
        let (label, kind) = match stage {
            SqlStage::Join { .. } => {
                return Err(SqlError::whole(
                    "JOIN is not supported inside T.sql tasks; use a flow-level join task",
                ));
            }
            SqlStage::Offset(_) => {
                return Err(SqlError::whole(
                    "OFFSET is not supported inside T.sql tasks; page via the serving API",
                ));
            }
            SqlStage::Filter(e) => ("filter", TaskKind::FilterExpr(e.clone())),
            SqlStage::GroupBy(g) => (
                "groupby",
                TaskKind::GroupBy {
                    builtin: g.clone(),
                    custom: Vec::new(),
                },
            ),
            SqlStage::Sort(keys) => ("sort", TaskKind::Sort(keys.clone())),
            SqlStage::Project(cols) => ("project", TaskKind::Project(cols.clone())),
            SqlStage::Distinct => ("distinct", TaskKind::Distinct(Vec::new())),
            SqlStage::Limit(n) => ("limit", TaskKind::Limit(*n)),
        };
        // The query text decides every stage, so it and the stage's place
        // fingerprint the stage.
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
        assert_eq!(p.stages.len(), 1);
        match &p.stages[0] {
            SqlStage::GroupBy(g) => {
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
        assert!(matches!(&p.stages[1], SqlStage::Project(c) if c == &["sum_revenue", "brand"]));
    }

    #[test]
    fn stage_order_follows_sql_semantics() {
        let p = plan(
            "select distinct region from sales where units > 1 \
             order by region desc limit 3 offset 1",
        );
        let kinds: Vec<&str> = p
            .stages
            .iter()
            .map(|s| match s {
                SqlStage::Join { .. } => "join",
                SqlStage::Filter(_) => "filter",
                SqlStage::GroupBy(_) => "groupby",
                SqlStage::Sort(_) => "sort",
                SqlStage::Project(_) => "project",
                SqlStage::Distinct => "distinct",
                SqlStage::Limit(_) => "limit",
                SqlStage::Offset(_) => "offset",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["filter", "sort", "project", "distinct", "offset", "limit"]
        );
        assert!(
            matches!(&p.stages[1], SqlStage::Sort(k) if k[0].order == SortOrder::Desc),
            "sort key direction survives"
        );
    }

    #[test]
    fn global_aggregate_groups_without_keys() {
        let p = plan("select count(*) from t");
        match &p.stages[0] {
            SqlStage::GroupBy(g) => {
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
