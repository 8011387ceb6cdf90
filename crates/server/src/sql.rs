//! SQL-over-HTTP lowering: engine [`SqlPlan`] stages → ad-hoc
//! [`QueryOp`]s plus a cache path.
//!
//! The load-bearing property is **canonicalisation**: when every stage of
//! a plan is expressible in the path-segment query grammar, the lowering
//! emits the exact canonical segments — so the SQL route computes the
//! same `"{dashboard}/{dataset}/{segments}"` result key, evaluates the
//! same `Vec<QueryOp>`, and therefore *shares result- and page-cache
//! entries* with the equivalent `GET .../q/...` request. Richer shapes
//! (boolean `WHERE`, multi-agg `GROUP BY`, projections, joins, `OFFSET`)
//! get a deterministic `sql:`-prefixed key of their own.

use crate::http::{Response, Status};
use crate::query::{JoinOp, QueryOp};
use shareinsights_engine::sql::{SqlPlan, SqlStage};
use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::expr::Expr;
use shareinsights_tabular::ops::{GroupBy, SortOrder};
use shareinsights_tabular::{Table, Value};

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

/// Lower plan stages to query ops. `resolve` materialises join tables by
/// endpoint name; it is only called for `JOIN` stages.
pub fn lower_plan(
    plan: &SqlPlan,
    resolve: &mut dyn FnMut(&str) -> Result<Table, String>,
) -> Result<LoweredSql, String> {
    let mut ops = Vec::with_capacity(plan.stages.len());
    let mut join_tables = Vec::new();
    // `Some` while every stage so far has a canonical path-segment form.
    let mut segments: Option<Vec<String>> = Some(Vec::new());

    for stage in &plan.stages {
        let (op, segs) = lower_stage(stage, resolve)?;
        if let QueryOp::Join(j) = &op {
            join_tables.push(j.right_name.clone());
        }
        match (&mut segments, segs) {
            (Some(all), Some(mut s)) => all.append(&mut s),
            (slot, _) => *slot = None,
        }
        ops.push(op);
    }

    let (cache_path, shared) = match segments {
        Some(segs) => (segs.join("/"), true),
        None => (format!("sql:{}", plan_text(&ops)), false),
    };
    Ok(LoweredSql {
        ops,
        cache_path,
        shared,
        join_tables,
    })
}

/// Lower one stage: the op plus its canonical segments (None = this stage
/// has no path-segment spelling, the whole query keys as `sql:`).
fn lower_stage(
    stage: &SqlStage,
    resolve: &mut dyn FnMut(&str) -> Result<Table, String>,
) -> Result<(QueryOp, Option<Vec<String>>), String> {
    Ok(match stage {
        SqlStage::Filter(e) => match canonical_filter(e) {
            Some((column, value)) => {
                let op = crate::query::path_filter(&column, &value);
                (op, Some(vec!["filter".to_string(), column, value]))
            }
            None => (QueryOp::FilterExpr(e.clone()), None),
        },
        SqlStage::GroupBy(g) => {
            let canonical =
                g.keys.len() == 1 && g.aggregates.len() == 1 && !g.orderby_aggregates && {
                    let a = &g.aggregates[0];
                    a.operator != AggKind::CountAll
                        && !a.apply_on.is_empty()
                        && a.out_field == format!("{}_{}", a.operator.name(), a.apply_on)
                        && seg_ok(&g.keys[0])
                        && seg_ok(&a.apply_on)
                };
            if canonical {
                let a = &g.aggregates[0];
                let segs = vec![
                    "groupby".to_string(),
                    g.keys[0].clone(),
                    a.operator.name().to_string(),
                    a.apply_on.clone(),
                ];
                (
                    QueryOp::GroupBy {
                        key: g.keys[0].clone(),
                        agg: a.operator,
                        apply_on: a.apply_on.clone(),
                    },
                    Some(segs),
                )
            } else {
                (QueryOp::GroupByMulti(g.clone()), None)
            }
        }
        SqlStage::Sort(keys) => {
            if keys.len() == 1 && seg_ok(&keys[0].column) {
                let segs = vec![
                    "sort".to_string(),
                    keys[0].column.clone(),
                    direction(keys[0].order).to_string(),
                ];
                (
                    QueryOp::Sort {
                        column: keys[0].column.clone(),
                        order: keys[0].order,
                    },
                    Some(segs),
                )
            } else {
                (QueryOp::SortMulti(keys.clone()), None)
            }
        }
        SqlStage::Limit(n) => (
            QueryOp::Limit(*n),
            Some(vec!["limit".to_string(), n.to_string()]),
        ),
        SqlStage::Project(cols) => (QueryOp::Project(cols.clone()), None),
        SqlStage::Distinct => (QueryOp::DistinctRows(Vec::new()), None),
        SqlStage::Offset(n) => (QueryOp::Offset(*n), None),
        SqlStage::Join {
            table,
            left_on,
            right_on,
        } => {
            let right = resolve(table)?;
            (
                QueryOp::Join(JoinOp {
                    right_name: table.clone(),
                    right,
                    left_on: left_on.clone(),
                    right_on: right_on.clone(),
                }),
                None,
            )
        }
    })
}

/// `WHERE col = literal` with a round-trippable rendering is exactly the
/// path grammar's `filter/<col>/<value>` (whose value re-enters through
/// [`Value::infer`]): the column and the rendered value. Anything else
/// keys as `sql:`.
fn canonical_filter(e: &Expr) -> Option<(String, String)> {
    use shareinsights_tabular::expr::CmpOp;
    let (c, v) = match e {
        Expr::Cmp(CmpOp::Eq, lhs, rhs) => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) => (c, v),
            _ => return None,
        },
        _ => return None,
    };
    if !seg_ok(c) {
        return None;
    }
    let rendered = v.to_string();
    if seg_ok(&rendered) && Value::infer(&rendered) == *v {
        Some((c.clone(), rendered))
    } else {
        None
    }
}

/// Is this string safe as one path segment of a cache key?
fn seg_ok(s: &str) -> bool {
    !s.is_empty() && !s.contains('/') && !s.contains('?')
}

fn direction(order: SortOrder) -> &'static str {
    match order {
        SortOrder::Asc => "asc",
        SortOrder::Desc => "desc",
    }
}

/// Deterministic per-op rendering: non-canonical cache keys, and the
/// `plan` attribute of a traced evaluation.
fn op_key(op: &QueryOp) -> String {
    match op {
        QueryOp::GroupBy { key, agg, apply_on } => {
            format!("groupby/{key}/{}/{apply_on}", agg.name())
        }
        QueryOp::Sort { column, order } => format!("sort/{column}/{}", direction(*order)),
        QueryOp::Distinct(c) => format!("distinct/{c}"),
        QueryOp::Limit(n) => format!("limit/{n}"),
        QueryOp::FilterExpr(e) => format!("where({e:?})"),
        QueryOp::GroupByMulti(g) => group_key(g),
        QueryOp::SortMulti(keys) => format!(
            "sort({})",
            keys.iter()
                .map(|k| format!("{}:{}", k.column, direction(k.order)))
                .collect::<Vec<_>>()
                .join(",")
        ),
        QueryOp::DistinctRows(cols) => format!("distinct({cols:?})"),
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
