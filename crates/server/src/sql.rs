//! SQL-over-HTTP lowering: an engine [`SqlPlan`] → the ad-hoc
//! [`QueryOp`]s it runs, plus a cache path.
//!
//! The engine's lowering already emits the op list; this module resolves
//! the plan's `JOIN`s against endpoint snapshots, prepending one
//! [`QueryOp::Join`] each, and keys the result. The load-bearing property
//! is **canonicalisation**: when every op has a path spelling
//! ([`path_segments`], the inverse of [`crate::query::parse_ops`]), the
//! cache path is those exact segments — so the SQL route computes the
//! same `"{dashboard}/{dataset}/{segments}"` result key as the equivalent
//! `GET .../q/...` request, whose parser builds the same ops, and the two
//! *share result- and page-cache entries*. Richer shapes (boolean `WHERE`,
//! multi-agg `GROUP BY`, projections, joins, `OFFSET`, a literal whose
//! text reads back as another type) get a deterministic `sql:`-prefixed
//! key of their own.

use crate::http::{Response, Status};
use crate::query::{direction, path_segments, JoinOp, QueryOp};
use shareinsights_engine::sql::SqlPlan;
use shareinsights_tabular::ops::GroupBy;
use shareinsights_tabular::Table;

/// A plan lowered for the serving layer.
#[derive(Debug, Clone)]
pub struct LoweredSql {
    /// Ops for `run_query_indexed` / `run_query`.
    pub ops: Vec<QueryOp>,
    /// Cache path: canonical path segments when `shared`, a `sql:` key
    /// otherwise. Appended to `"{dashboard}/{dataset}/"` to form the
    /// result key.
    pub cache_path: String,
    /// Whether the plan canonicalised to path segments (and so shares
    /// cache entries with the path-segment route).
    pub shared: bool,
    /// Joined endpoint names (their publish generations must stamp the
    /// cache key's generation).
    pub join_tables: Vec<String>,
}

/// Resolve a plan's joins and key it. `resolve` materialises join tables
/// by endpoint name; it is only called for `JOIN`s.
pub fn lower_plan(
    plan: &SqlPlan,
    resolve: &mut dyn FnMut(&str) -> Result<Table, String>,
) -> Result<LoweredSql, String> {
    let mut ops = Vec::with_capacity(plan.joins.len() + plan.ops.len());
    for j in &plan.joins {
        ops.push(QueryOp::Join(JoinOp {
            right_name: j.table.clone(),
            right: resolve(&j.table)?,
            left_on: j.left_on.clone(),
            right_on: j.right_on.clone(),
        }));
    }
    ops.extend_from_slice(&plan.ops);
    let (cache_path, shared) = match ops.iter().map(path_segments).collect::<Option<Vec<_>>>() {
        Some(segments) => (segments.concat().join("/"), true),
        None => (format!("sql:{}", plan_text(&ops)), false),
    };
    Ok(LoweredSql {
        ops,
        cache_path,
        shared,
        join_tables: plan.joins.iter().map(|j| j.table.clone()).collect(),
    })
}

/// Deterministic per-op rendering: non-canonical cache keys, and the
/// `plan` attribute of a traced evaluation. A filter reads as its `Expr`;
/// any other op with a path spelling as its segments.
fn op_key(op: &QueryOp) -> String {
    if let QueryOp::FilterExpr(e) = op {
        return format!("where({e:?})");
    }
    if let Some(segments) = path_segments(op) {
        return segments.join("/");
    }
    match op {
        QueryOp::GroupBy(g) => group_key(g),
        QueryOp::Sort(keys) => format!(
            "sort({})",
            keys.iter()
                .map(|k| format!("{}:{}", k.column, direction(k.order)))
                .collect::<Vec<_>>()
                .join(",")
        ),
        QueryOp::Distinct(cols) => format!("distinct({cols:?})"),
        QueryOp::Project(cols) => format!("project({cols:?})"),
        QueryOp::Offset(n) => format!("offset({n})"),
        QueryOp::Join(j) => format!("join({};{};{})", j.right_name, j.left_on, j.right_on),
        // The fused forms never reach SQL lowering or cache keys (fusion
        // runs inside evaluation); they render for the trace only.
        QueryOp::TopN { keys, n } => format!(
            "topn([{}];{n})",
            keys.iter()
                .map(|k| format!("{} {}", k.column, direction(k.order)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        QueryOp::FilteredGroupBy { filter, group } => {
            format!("selected(where({filter:?});{})", group_key(group))
        }
        QueryOp::FilterExpr(_) | QueryOp::Limit(_) => unreachable!("rendered above"),
    }
}

fn group_key(g: &GroupBy) -> String {
    format!(
        "groupby({:?};{};{})",
        g.keys,
        g.aggregates
            .iter()
            .map(|a| format!("{}:{}:{}", a.operator.name(), a.apply_on, a.out_field))
            .collect::<Vec<_>>()
            .join(","),
        g.orderby_aggregates
    )
}

/// A pipeline rendered op by op — what the `query_eval` span reports as
/// the plan that ran, e.g. `topn([key desc];100)`.
pub fn plan_text(ops: &[QueryOp]) -> String {
    ops.iter().map(op_key).collect::<Vec<_>>().join("/")
}

/// The structured 400 body both query languages return for malformed
/// queries: `{"error": {"kind", "message", "line", "column"}}`. Line 0 /
/// column 0 mean "position unknown" (path-segment ops have no spans),
/// matching the flow-file diagnostic convention.
pub fn parse_error_response(kind: &str, message: &str, line: usize, column: usize) -> Response {
    Response {
        status: Status::BadRequest,
        body: format!(
            "{{\"error\": {{\"kind\": {}, \"message\": {}, \"line\": {line}, \"column\": {column}}}}}",
            crate::json::quote(kind),
            crate::json::quote(message),
        ),
        content_type: "application/json",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_ops;
    use shareinsights_engine::sql::{lower, parse_select};

    fn lowered(src: &str) -> LoweredSql {
        let stmt = parse_select(src).unwrap();
        let plan = lower(src, &stmt).unwrap();
        lower_plan(&plan, &mut |name| {
            Err(format!("no join table '{name}' in this test"))
        })
        .unwrap()
    }

    #[test]
    fn canonical_queries_share_the_path_grammar_exactly() {
        let cases = [
            (
                "select brand, sum(revenue) from sales group by brand",
                "groupby/brand/sum/revenue",
            ),
            (
                "select * from sales where region = 'east'",
                "filter/region/east",
            ),
            (
                "select * from sales where units = 3 order by revenue desc limit 5",
                "filter/units/3/sort/revenue/desc/limit/5",
            ),
            (
                "select brand, count(units) from sales where active = true \
                 group by brand order by count_units asc limit 2",
                "filter/active/true/groupby/brand/count/units/sort/count_units/asc/limit/2",
            ),
        ];
        for (sql, path) in cases {
            let l = lowered(sql);
            assert!(l.shared, "{sql} should canonicalise");
            assert_eq!(l.cache_path, path, "{sql}");
            // The ops are *equal* to what the path-segment parser builds —
            // identical evaluation, identical cache entries.
            let segs: Vec<&str> = path.split('/').collect();
            assert_eq!(l.ops, parse_ops(&segs).unwrap(), "{sql}");
        }
    }

    #[test]
    fn richer_shapes_key_as_sql() {
        for sql in [
            "select * from t where a > 1",
            "select * from t where a = 1 and b = 2",
            "select a, b from t",
            "select distinct region from t",
            "select r, sum(x) as total from t group by r",
            "select a, b, sum(x) from t group by a, b",
            "select * from t order by a, b desc",
            "select * from t limit 10 offset 5",
            "select count(*) from t",
        ] {
            let l = lowered(sql);
            assert!(!l.shared, "{sql} should not canonicalise");
            assert!(l.cache_path.starts_with("sql:"), "{sql} → {}", l.cache_path);
        }
        // Identical plans render identical keys; different plans differ.
        assert_eq!(
            lowered("select * from t where a > 1").cache_path,
            lowered("SELECT * FROM t WHERE a > 1").cache_path
        );
        assert_ne!(
            lowered("select * from t where a > 1").cache_path,
            lowered("select * from t where a > 2").cache_path
        );
    }

    #[test]
    fn non_roundtripping_filter_values_stay_expressions() {
        // A string that value-inference would re-type must not be pushed
        // through the `filter/<col>/<value>` spelling.
        let l = lowered("select * from t where name = '42'");
        assert!(!l.shared);
        assert!(matches!(&l.ops[0], QueryOp::FilterExpr(_)));
        // Slash-bearing values would corrupt the key path.
        let l = lowered("select * from t where name = 'a/b'");
        assert!(!l.shared);
    }

    #[test]
    fn joins_resolve_and_stamp_join_tables() {
        let stmt = parse_select("select * from a join b on x = y").unwrap();
        let plan = lower("q", &stmt).unwrap();
        let right = Table::from_rows(&["y"], &[]).unwrap();
        let l = lower_plan(&plan, &mut |name| {
            assert_eq!(name, "b");
            Ok(right.clone())
        })
        .unwrap();
        assert_eq!(l.join_tables, vec!["b"]);
        assert!(!l.shared);
        let err = lower_plan(&plan, &mut |n| Err(format!("missing {n}"))).unwrap_err();
        assert!(err.contains("missing b"));
    }

    #[test]
    fn parse_error_body_shape() {
        let r = parse_error_response("parse", "expected FROM", 1, 9);
        assert_eq!(r.status, Status::BadRequest);
        assert_eq!(
            r.body,
            "{\"error\": {\"kind\": \"parse\", \"message\": \"expected FROM\", \"line\": 1, \"column\": 9}}"
        );
    }
}
