//! The ad-hoc query language over endpoint data (§4.4, figure 30).
//!
//! The paper's example URL is
//! `/ds/<dataset>/groupby/<column>/<aggregate-function>/<column>`. The
//! grammar here generalises that to a left-to-right pipeline of path
//! segments:
//!
//! ```text
//! ops      := op*
//! op       := 'groupby' '/' col '/' aggfn '/' col
//!           | 'filter' '/' col '/' value
//!           | 'sort' '/' col '/' ('asc'|'desc')
//!           | 'distinct' '/' col
//!           | 'limit' '/' n
//! ```
//!
//! [`parse_ops`] reads a path into the engine's one ad-hoc op list,
//! [`QueryOp`], and [`path_segments`] writes an op back: the inverse pair
//! that decides which SQL plans share the path route's cache entries. The
//! evaluator is the engine's too ([`run_query`], [`evaluate_indexed`]),
//! re-exported here with the op list.

use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::expr::{CmpOp, Expr};
use shareinsights_tabular::ops::{AggregateSpec, GroupBy, SortKey, SortOrder};
use shareinsights_tabular::Value;

pub use shareinsights_engine::query::{
    evaluate_indexed, fuse, run_query, run_query_indexed, Evaluated, JoinOp, QueryOp,
};

/// Parse the path segments following the dataset name.
pub fn parse_ops(segments: &[&str]) -> Result<Vec<QueryOp>, String> {
    let mut ops = Vec::new();
    let mut i = 0;
    while i < segments.len() {
        match segments[i] {
            "groupby" => {
                let Some(&[key, aggname, apply_on]) = segments.get(i + 1..i + 4) else {
                    return Err("groupby needs /groupby/<column>/<agg>/<column>".into());
                };
                let agg = AggKind::parse(aggname)
                    .ok_or_else(|| format!("unknown aggregate function '{aggname}'"))?;
                let out_field = format!("{}_{apply_on}", agg.name());
                ops.push(QueryOp::GroupBy(GroupBy::with_aggregates(
                    &[key],
                    vec![AggregateSpec::new(agg, apply_on, out_field)],
                )));
                i += 4;
            }
            "filter" => {
                let column = segments.get(i + 1).ok_or("filter missing column")?;
                let value = segments.get(i + 2).ok_or("filter missing value")?;
                ops.push(path_filter(column, value));
                i += 3;
            }
            "sort" => {
                let column = segments.get(i + 1).ok_or("sort missing column")?;
                let dir = segments.get(i + 2).ok_or("sort missing direction")?;
                let order =
                    SortOrder::parse(dir).ok_or_else(|| format!("bad sort direction '{dir}'"))?;
                ops.push(QueryOp::Sort(vec![SortKey {
                    column: column.to_string(),
                    order,
                }]));
                i += 3;
            }
            "distinct" => {
                let column = segments.get(i + 1).ok_or("distinct missing column")?;
                ops.push(QueryOp::Distinct(vec![column.to_string()]));
                i += 2;
            }
            "limit" => {
                let n = segments.get(i + 1).ok_or("limit missing count")?;
                let n: usize = n.parse().map_err(|_| format!("bad limit '{n}'"))?;
                ops.push(QueryOp::Limit(n));
                i += 2;
            }
            other => return Err(format!("unknown query operation '{other}'")),
        }
    }
    Ok(ops)
}

/// The path grammar's `filter/<column>/<value>`: `column == value`, the
/// value typed by [`Value::infer`].
pub fn path_filter(column: &str, value: &str) -> QueryOp {
    QueryOp::FilterExpr(Expr::cmp(
        CmpOp::Eq,
        Expr::col(column),
        Expr::Literal(Value::infer(value)),
    ))
}

/// The segments [`parse_ops`] rebuilds `op` from: its inverse, down to
/// each literal's type. `None` when `op` has no path spelling — several
/// keys, aggregates or sort keys; an aggregate not named `<agg>_<column>`,
/// or one that orders the groups; a filter other than `column = literal`,
/// or whose literal [`Value::infer`] reads back from its text as another
/// type or value (a float of 10^15 or more prints without a fraction); a
/// segment that is empty or holds `/` or `?`; and every op only SQL or
/// fusion builds.
pub fn path_segments(op: &QueryOp) -> Option<Vec<String>> {
    let segments = match op {
        QueryOp::FilterExpr(Expr::Cmp(CmpOp::Eq, lhs, rhs)) => {
            let (Expr::Column(column), Expr::Literal(value)) = (lhs.as_ref(), rhs.as_ref()) else {
                return None;
            };
            let text = value.to_string();
            // Type first: `Value`'s `==` compares across number types.
            let back = Value::infer(&text);
            if back.data_type() != value.data_type() || back != *value {
                return None;
            }
            vec!["filter".into(), column.clone(), text]
        }
        QueryOp::GroupBy(GroupBy {
            keys,
            aggregates,
            orderby_aggregates: false,
        }) => {
            let ([key], [agg]) = (keys.as_slice(), aggregates.as_slice()) else {
                return None;
            };
            let name = agg.operator.name();
            if agg.out_field != format!("{name}_{}", agg.apply_on) {
                return None;
            }
            vec![
                "groupby".into(),
                key.clone(),
                name.into(),
                agg.apply_on.clone(),
            ]
        }
        QueryOp::Sort(keys) => {
            let [key] = keys.as_slice() else {
                return None;
            };
            vec![
                "sort".into(),
                key.column.clone(),
                direction(key.order).into(),
            ]
        }
        QueryOp::Distinct(columns) => {
            let [column] = columns.as_slice() else {
                return None;
            };
            vec!["distinct".into(), column.clone()]
        }
        QueryOp::Limit(n) => vec!["limit".into(), n.to_string()],
        _ => return None,
    };
    let plain = |s: &String| !s.is_empty() && !s.contains('/') && !s.contains('?');
    segments.iter().all(plain).then_some(segments)
}

/// A sort direction as the path grammar spells it.
pub(crate) fn direction(order: SortOrder) -> &'static str {
    match order {
        SortOrder::Asc => "asc",
        SortOrder::Desc => "desc",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::{row, IndexedTable, Table};

    fn projects() -> Table {
        Table::from_rows(
            &["category", "project", "stars"],
            &[
                row!["big-data", "pig", 10i64],
                row!["big-data", "spark", 40i64],
                row!["web", "tomcat", 20i64],
                row!["web", "httpd", 15i64],
                row!["web", "struts", 5i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure30_groupby_count() {
        // /ds/projects/groupby/category/count/project
        let ops = parse_ops(&["groupby", "category", "count", "project"]).unwrap();
        let out = run_query(&projects(), &ops).unwrap();
        assert_eq!(out.schema().names(), vec!["category", "count_project"]);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "count_project").unwrap().as_int(), Some(2));
        assert_eq!(out.value(1, "count_project").unwrap().as_int(), Some(3));
    }

    #[test]
    fn chained_pipeline() {
        let ops = parse_ops(&[
            "filter", "category", "web", "groupby", "category", "sum", "stars", "limit", "1",
        ])
        .unwrap();
        let out = run_query(&projects(), &ops).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "sum_stars").unwrap().as_int(), Some(40));
    }

    #[test]
    fn sort_and_distinct() {
        let ops = parse_ops(&["sort", "stars", "desc", "limit", "2"]).unwrap();
        let out = run_query(&projects(), &ops).unwrap();
        assert_eq!(out.value(0, "project").unwrap().to_string(), "spark");

        let ops = parse_ops(&["distinct", "category"]).unwrap();
        let out = run_query(&projects(), &ops).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn numeric_filter_values_infer() {
        let ops = parse_ops(&["filter", "stars", "20"]).unwrap();
        let out = run_query(&projects(), &ops).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "project").unwrap().to_string(), "tomcat");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_ops(&["groupby", "a"]).is_err());
        assert!(parse_ops(&["groupby", "a", "bogus", "b"])
            .unwrap_err()
            .contains("unknown aggregate"));
        assert!(parse_ops(&["warp", "9"])
            .unwrap_err()
            .contains("unknown query operation"));
        assert!(parse_ops(&["limit", "abc"]).is_err());
        assert!(parse_ops(&["sort", "a", "sideways"]).is_err());
    }

    #[test]
    fn runtime_errors_name_columns() {
        let ops = parse_ops(&["groupby", "ghost", "count", "project"]).unwrap();
        let err = run_query(&projects(), &ops).unwrap_err();
        assert!(err.contains("ghost"));
    }

    #[test]
    fn empty_ops_is_identity() {
        let out = run_query(&projects(), &[]).unwrap();
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn indexed_pipeline_matches_scan_and_reports_hits() {
        let base = projects();
        let indexed = IndexedTable::new(base.clone());
        let covered = [
            vec!["groupby", "category", "sum", "stars"],
            vec!["filter", "category", "web"],
            vec!["sort", "category", "desc"],
            vec!["filter", "stars", "20"],
            vec![
                "filter", "category", "web", "groupby", "category", "sum", "stars",
            ],
        ];
        for segs in &covered {
            let ops = parse_ops(segs).unwrap();
            let scan = run_query(&base, &ops).unwrap();
            let (fast, hit) = run_query_indexed(&indexed, &ops).unwrap();
            assert_eq!(fast, scan, "{segs:?}");
            assert!(hit, "{segs:?} should take the indexed path");
        }
        // Uncovered shapes fall back but still agree.
        for segs in [
            vec!["distinct", "category"],
            vec!["limit", "2"],
            vec!["sort", "stars", "desc"],
        ] {
            let ops = parse_ops(&segs).unwrap();
            let scan = run_query(&base, &ops).unwrap();
            let (fast, hit) = run_query_indexed(&indexed, &ops).unwrap();
            assert_eq!(fast, scan, "{segs:?}");
            assert!(!hit, "{segs:?} should fall back to scan");
        }
    }

    #[test]
    fn fusion_rules() {
        use shareinsights_tabular::expr::parse_expr;
        let segs = [
            "filter",
            "category",
            "web",
            "groupby",
            "category",
            "sum",
            "stars",
            "sort",
            "sum_stars",
            "desc",
            "limit",
            "3",
        ];
        let fused = fuse(&parse_ops(&segs).unwrap());
        assert!(matches!(
            fused.as_slice(),
            [QueryOp::FilteredGroupBy { .. }, QueryOp::TopN { n: 3, .. }]
        ));
        assert_eq!(fuse(&fused), fused, "idempotent");

        // An offset between sort and limit widens the top-n and stays.
        let ops = vec![
            QueryOp::FilterExpr(parse_expr("stars > 5").unwrap()),
            QueryOp::Sort(vec![SortKey::desc("stars"), SortKey::asc("project")]),
            QueryOp::Offset(2),
            QueryOp::Limit(usize::MAX),
        ];
        let fused = fuse(&ops);
        assert!(matches!(
            fused.as_slice(),
            [
                QueryOp::FilterExpr(_),
                QueryOp::TopN { n: usize::MAX, .. },
                QueryOp::Offset(2)
            ]
        ));
        assert_eq!(
            run_query(&projects(), &ops).unwrap().num_rows(),
            2,
            "four rows pass the filter, two are skipped"
        );

        // Nothing else fuses: a limit before a sort, a sort feeding a
        // group-by, a lone filter.
        for segs in [
            vec!["limit", "2", "sort", "stars", "asc"],
            vec![
                "sort", "stars", "asc", "groupby", "category", "count", "project",
            ],
            vec!["filter", "category", "web", "distinct", "project"],
        ] {
            let ops = parse_ops(&segs).unwrap();
            assert_eq!(fuse(&ops), ops, "{segs:?}");
        }
    }

    #[test]
    fn indexed_topn_and_selected_groupby_report_hits() {
        use shareinsights_tabular::expr::parse_expr;
        let indexed = IndexedTable::new(projects());
        let topn = parse_ops(&["sort", "category", "desc", "limit", "2"]).unwrap();
        let done = evaluate_indexed(&indexed, &fuse(&topn)).unwrap();
        assert!(done.index_hit, "postings walk");
        assert_eq!(
            done.rows_materialised, 2,
            "only the two winners are gathered"
        );
        assert_eq!(done.table, run_query(&projects(), &topn).unwrap());

        // A dictionary-answered predicate feeding a group-by: no filtered
        // table, just the groups.
        let ops = vec![
            QueryOp::FilterExpr(parse_expr("category == 'web' and stars >= 10").unwrap()),
            QueryOp::GroupBy(GroupBy::with_aggregates(
                &["category"],
                vec![AggregateSpec::new(AggKind::Avg, "stars", "avg_stars")],
            )),
        ];
        let done = evaluate_indexed(&indexed, &fuse(&ops)).unwrap();
        assert!(done.index_hit);
        assert_eq!(done.rows_materialised, 1);
        assert_eq!(
            done.table.value(0, "avg_stars").unwrap(),
            Value::Float(17.5)
        );
        // A numeric sort key has no postings to walk.
        let numeric = parse_ops(&["sort", "stars", "desc", "limit", "2"]).unwrap();
        assert!(!run_query_indexed(&indexed, &numeric).unwrap().1);
    }

    #[test]
    fn indexed_pipeline_reproduces_scan_errors() {
        let indexed = IndexedTable::new(projects());
        let ops = parse_ops(&["groupby", "ghost", "count", "project"]).unwrap();
        let err = run_query_indexed(&indexed, &ops).unwrap_err();
        assert!(err.contains("ghost"));
    }
}
