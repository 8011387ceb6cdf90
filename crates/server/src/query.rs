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

use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::expr::{CmpOp, Expr};
use shareinsights_tabular::ops::{
    distinct, groupby, groupby_selected, join, sort, sort_limit, AggregateSpec, GroupBy,
    JoinCondition, JoinSpec, SortKey, SortOrder,
};
use shareinsights_tabular::{Bitmap, IndexedTable, Table, Value};

/// A parsed query operation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    /// `groupby/<col>/<agg>/<col>`
    GroupBy {
        /// Grouping column.
        key: String,
        /// Aggregate function.
        agg: AggKind,
        /// Aggregated column.
        apply_on: String,
    },
    /// `sort/<col>/<asc|desc>`
    Sort {
        /// Column.
        column: String,
        /// Direction.
        order: SortOrder,
    },
    /// `distinct/<col>`
    Distinct(String),
    /// `limit/<n>`
    Limit(usize),
    /// A row filter: `filter/<col>/<value>` (see [`path_filter`]) or a SQL
    /// `WHERE` predicate.
    FilterExpr(Expr),
    /// SQL `GROUP BY` with multiple keys and/or aggregates (or aliased /
    /// global aggregates). Unreachable from the path-segment grammar.
    GroupByMulti(GroupBy),
    /// SQL `ORDER BY` with multiple keys.
    SortMulti(Vec<SortKey>),
    /// SQL `SELECT DISTINCT`: whole-row dedup (empty) or key-subset.
    DistinctRows(Vec<String>),
    /// SQL projection: column selection in select-list order.
    Project(Vec<String>),
    /// SQL `OFFSET`: skip the first `n` rows.
    Offset(usize),
    /// SQL inner equi-join against a resolved right-side snapshot.
    Join(JoinOp),
    /// Fused `sort | limit`: the first `n` rows under `keys` (original row
    /// order breaking ties), selected without materialising the full
    /// order. Neither query language spells it; [`fuse`] produces it for
    /// every caller.
    TopN {
        /// Ordering keys.
        keys: Vec<SortKey>,
        /// Rows kept.
        n: usize,
    },
    /// Fused `filter | groupby`: the group-by folds the rows the filter
    /// selects straight from the input, so no filtered table is built.
    /// Produced by [`fuse`] only.
    FilteredGroupBy {
        /// The selecting predicate.
        filter: Expr,
        /// The grouping, in its general form.
        group: GroupBy,
    },
}

/// A resolved SQL join: the right table is materialised at lowering time
/// so the op pipeline stays a pure function of its inputs.
#[derive(Debug, Clone)]
pub struct JoinOp {
    /// Right-side endpoint name (identity for cache keys).
    pub right_name: String,
    /// Right-side snapshot.
    pub right: Table,
    /// Key column on the left.
    pub left_on: String,
    /// Key column on the right.
    pub right_on: String,
}

impl PartialEq for JoinOp {
    fn eq(&self, other: &Self) -> bool {
        // Snapshot identity is the endpoint name: the generation stamp on
        // every cache key already invalidates on data changes.
        self.right_name == other.right_name
            && self.left_on == other.left_on
            && self.right_on == other.right_on
    }
}

/// Parse the path segments following the dataset name.
pub fn parse_ops(segments: &[&str]) -> Result<Vec<QueryOp>, String> {
    let mut ops = Vec::new();
    let mut i = 0;
    while i < segments.len() {
        match segments[i] {
            "groupby" => {
                if i + 3 >= segments.len() && segments.len() < i + 4 {
                    return Err("groupby needs /groupby/<column>/<agg>/<column>".into());
                }
                let key = segments.get(i + 1).ok_or("groupby missing column")?;
                let aggname = segments.get(i + 2).ok_or("groupby missing aggregate")?;
                let apply_on = segments.get(i + 3).ok_or("groupby missing target column")?;
                let agg = AggKind::parse(aggname)
                    .ok_or_else(|| format!("unknown aggregate function '{aggname}'"))?;
                ops.push(QueryOp::GroupBy {
                    key: key.to_string(),
                    agg,
                    apply_on: apply_on.to_string(),
                });
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
                ops.push(QueryOp::Sort {
                    column: column.to_string(),
                    order,
                });
                i += 3;
            }
            "distinct" => {
                let column = segments.get(i + 1).ok_or("distinct missing column")?;
                ops.push(QueryOp::Distinct(column.to_string()));
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
/// value typed by [`Value::infer`]. Canonical SQL lowers `WHERE column =
/// value` to this same op.
pub fn path_filter(column: &str, value: &str) -> QueryOp {
    QueryOp::FilterExpr(Expr::cmp(
        CmpOp::Eq,
        Expr::col(column),
        Expr::Literal(Value::infer(value)),
    ))
}

pub(crate) fn groupby_config(key: &str, agg: AggKind, apply_on: &str) -> GroupBy {
    let out_field = format!("{}_{}", agg.name(), apply_on);
    GroupBy::with_aggregates(
        &[key],
        vec![AggregateSpec::new(agg, apply_on.to_string(), out_field)],
    )
}

fn sort_keys(op: &QueryOp) -> Option<Vec<SortKey>> {
    match op {
        QueryOp::Sort { column, order } => Some(vec![SortKey {
            column: column.clone(),
            order: *order,
        }]),
        QueryOp::SortMulti(keys) => Some(keys.clone()),
        _ => None,
    }
}

fn group_config(op: &QueryOp) -> Option<GroupBy> {
    match op {
        QueryOp::GroupBy { key, agg, apply_on } => Some(groupby_config(key, *agg, apply_on)),
        QueryOp::GroupByMulti(cfg) => Some(cfg.clone()),
        _ => None,
    }
}

/// The fusion pass every evaluation starts with — the one place that
/// decides these rewrites, whichever front end or planner built `ops`:
///
/// * `sort | limit n` → [`QueryOp::TopN`]; `sort | offset k | limit n` →
///   `TopN(k + n) | offset k`. Only the rows that can reach the output
///   are ever gathered.
/// * `filter | groupby` → [`QueryOp::FilteredGroupBy`]: the group-by is
///   handed the selection mask instead of a filtered table.
///
/// Both rewrites are byte-identical to running the ops one at a time, and
/// the pass is idempotent.
pub fn fuse(ops: &[QueryOp]) -> Vec<QueryOp> {
    let mut fused = Vec::with_capacity(ops.len());
    let mut rest = ops;
    while let [op, tail @ ..] = rest {
        rest = tail;
        match (sort_keys(op), tail) {
            (Some(keys), [QueryOp::Limit(n), after @ ..]) => {
                fused.push(QueryOp::TopN { keys, n: *n });
                rest = after;
                continue;
            }
            (Some(keys), [QueryOp::Offset(k), QueryOp::Limit(n), after @ ..]) => {
                let n = k.saturating_add(*n);
                fused.extend([QueryOp::TopN { keys, n }, QueryOp::Offset(*k)]);
                rest = after;
                continue;
            }
            _ => {}
        }
        if let (QueryOp::FilterExpr(filter), [next, after @ ..]) = (op, tail) {
            if let Some(group) = group_config(next) {
                fused.push(QueryOp::FilteredGroupBy {
                    filter: filter.clone(),
                    group,
                });
                rest = after;
                continue;
            }
        }
        fused.push(op.clone());
    }
    fused
}

/// The rows a filter selects, and whether an index answered (part of) it.
/// With `indexed`, leaves read dictionaries and zone maps; without, they
/// scan.
fn selection(
    table: &Table,
    indexed: Option<&IndexedTable>,
    filter: &Expr,
) -> Result<(Bitmap, bool), String> {
    match indexed {
        Some(ix) => filter.eval_mask_indexed(ix),
        None => filter.eval_mask(table).map(|mask| (mask, false)),
    }
    .map_err(|e| e.to_string())
}

/// Apply one operation via the scan kernels.
fn apply_op(current: &Table, op: &QueryOp) -> Result<Table, String> {
    Ok(match op {
        QueryOp::GroupBy { key, agg, apply_on } => {
            let cfg = groupby_config(key, *agg, apply_on);
            groupby(current, &cfg).map_err(|e| e.to_string())?
        }
        QueryOp::FilterExpr(filter) => current.filter(&selection(current, None, filter)?.0),
        QueryOp::Sort { .. } | QueryOp::SortMulti(_) => {
            let keys = sort_keys(op).expect("matched a sort");
            sort(current, &keys).map_err(|e| e.to_string())?
        }
        QueryOp::Distinct(column) => {
            distinct(current, std::slice::from_ref(column)).map_err(|e| e.to_string())?
        }
        QueryOp::Limit(n) => current.limit(*n),
        QueryOp::GroupByMulti(cfg) => groupby(current, cfg).map_err(|e| e.to_string())?,
        QueryOp::DistinctRows(cols) => distinct(current, cols).map_err(|e| e.to_string())?,
        QueryOp::Project(cols) => current.project(cols).map_err(|e| e.to_string())?,
        QueryOp::Offset(n) => current.slice(*n, current.num_rows().saturating_sub(*n)),
        QueryOp::Join(j) => {
            let spec = JoinSpec {
                left_keys: vec![j.left_on.clone()],
                right_keys: vec![j.right_on.clone()],
                condition: JoinCondition::Inner,
                projection: Vec::new(),
            };
            join(current, &j.right, &spec).map_err(|e| e.to_string())?
        }
        QueryOp::TopN { keys, n } => sort_limit(current, keys, *n).map_err(|e| e.to_string())?,
        QueryOp::FilteredGroupBy { filter, group } => {
            let (mask, _) = selection(current, None, filter)?;
            groupby_selected(current, group, Some(&mask)).map_err(|e| e.to_string())?
        }
    })
}

/// Run the pipeline's first operation against the indexed snapshot,
/// through an accelerated kernel when a per-column index covers it and the
/// scan kernel otherwise. Returns the result and whether an index was used.
fn apply_first_indexed(indexed: &IndexedTable, op: &QueryOp) -> Result<(Table, bool), String> {
    // The indexed kernels are decline-based: richer SQL shapes are offered
    // where an accelerated kernel exists and fall back to the scan path
    // (differentially pinned byte-identical) otherwise.
    let fast = match op {
        QueryOp::GroupBy { .. } | QueryOp::GroupByMulti(_) => {
            indexed.groupby(&group_config(op).expect("matched a group-by"))
        }
        QueryOp::Sort { .. } | QueryOp::SortMulti(_) => {
            indexed.sort(&sort_keys(op).expect("matched a sort"))
        }
        QueryOp::TopN { keys, n } => indexed.top_n(keys, *n),
        QueryOp::FilterExpr(filter) => {
            let (mask, hit) = selection(indexed.table(), Some(indexed), filter)?;
            return Ok((indexed.table().filter(&mask), hit));
        }
        QueryOp::FilteredGroupBy { filter, group } => {
            let (mask, hit) = selection(indexed.table(), Some(indexed), filter)?;
            // Dictionary-indexed keys group by their codes; a decline (no
            // such key, or an error to report) takes the scan kernel.
            let grouped = match indexed.groupby_selected(group, Some(&mask)) {
                Some(table) => table,
                None => groupby_selected(indexed.table(), group, Some(&mask))
                    .map_err(|e| e.to_string())?,
            };
            return Ok((grouped, hit));
        }
        QueryOp::Distinct(_)
        | QueryOp::Limit(_)
        | QueryOp::DistinctRows(_)
        | QueryOp::Project(_)
        | QueryOp::Offset(_)
        | QueryOp::Join(_) => None,
    };
    match fast {
        Some(table) => Ok((table, true)),
        None => Ok((apply_op(indexed.table(), op)?, false)),
    }
}

/// Evaluate a query pipeline against a dataset snapshot.
pub fn run_query(table: &Table, ops: &[QueryOp]) -> Result<Table, String> {
    let mut current = table.clone();
    for op in &fuse(ops) {
        current = apply_op(&current, op)?;
    }
    Ok(current)
}

/// What [`evaluate_indexed`] did, for the caller's trace.
#[derive(Debug)]
pub struct Evaluated {
    /// The result.
    pub table: Table,
    /// Whether the first operation was answered through an index.
    pub index_hit: bool,
    /// Rows gathered into tables along the way, the result included —
    /// what late materialisation keeps small.
    pub rows_materialised: usize,
}

/// Evaluate an already [`fuse`]d pipeline against an indexed snapshot: the
/// first operation runs through an accelerated kernel when a per-column
/// index covers it (subsequent operations see a derived table, which has
/// no index), falling back to the scan kernels otherwise.
pub fn evaluate_indexed(indexed: &IndexedTable, plan: &[QueryOp]) -> Result<Evaluated, String> {
    let mut current: Option<Table> = None;
    let mut index_hit = false;
    let mut rows_materialised = 0;
    for op in plan {
        let next = match &current {
            None => {
                let (table, hit) = apply_first_indexed(indexed, op)?;
                index_hit = hit;
                table
            }
            Some(table) => apply_op(table, op)?,
        };
        rows_materialised += next.num_rows();
        current = Some(next);
    }
    Ok(Evaluated {
        table: current.unwrap_or_else(|| indexed.table().clone()),
        index_hit,
        rows_materialised,
    })
}

/// [`fuse`] then [`evaluate_indexed`]. Returns the result and whether any
/// operation took the indexed path.
pub fn run_query_indexed(indexed: &IndexedTable, ops: &[QueryOp]) -> Result<(Table, bool), String> {
    let done = evaluate_indexed(indexed, &fuse(ops))?;
    Ok((done.table, done.index_hit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::row;

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
            QueryOp::SortMulti(vec![SortKey::desc("stars"), SortKey::asc("project")]),
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
            QueryOp::GroupBy {
                key: "category".into(),
                agg: AggKind::Avg,
                apply_on: "stars".into(),
            },
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
