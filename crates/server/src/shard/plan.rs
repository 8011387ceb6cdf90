//! The scatter/gather planner: splits a [`QueryOp`] pipeline into a
//! shard-local prefix and a router-side merge suffix.
//!
//! Correctness rests on *range* partitioning: every shard owns a contiguous
//! row range, and partials are always gathered in shard order, so
//! concatenating them reproduces the original row order exactly. Every
//! merge rule below is chosen so the sharded result is **byte-identical**
//! to single-shard execution:
//!
//! * **Row-local ops** (filters and projection) commute
//!   with partitioning — they run on each shard and the gathered
//!   concatenation equals the unsharded output.
//! * **Group-by** splits into a shard-local group-by plus a router-side
//!   merge group-by over the concatenated partials when every aggregate is
//!   re-aggregatable from its *finished* output column (`sum`/`count`/
//!   `count_all` re-sum; `min`/`max` re-extremize; `first`/`last` pick by
//!   shard order, which is row order). First-seen group order in the merge
//!   equals global first-seen order because partials concatenate in row
//!   order. Aggregates whose finished value loses information (`avg`,
//!   `count_distinct`, `collect`) instead ship whole accumulator state back
//!   via [`GroupByPartial`] — see [`ScatterPlan::accumulate`].
//! * **`sum`/`avg` are only pushed down over `Int64` columns**: integer
//!   addition is associative, so per-shard subtotals merge exactly.
//!   Float (and stringly-numeric) sums re-associate under partitioning and
//!   can differ in the last bit — those pipelines fall back to unsharded
//!   execution rather than risk byte drift.
//! * **[`QueryOp::TopN`]** (what the shared fusion pass,
//!   [`crate::query::fuse`], makes of `sort | limit`) runs shard-local —
//!   the classic local-top-k-before-exchange optimisation. Each shard's
//!   top `n` under (keys, row index) is a superset of its members of the
//!   global top `n`; the router's top-n over the concatenation breaks ties
//!   in shard order = row order, so its rows equal `sort | limit` over the
//!   whole table.
//! * Everything else (`distinct`, `limit`, `offset`, joins, full sorts)
//!   stays router-side in [`ScatterPlan::post`], operating on the gathered
//!   concatenation — which *is* the unsharded intermediate, so downstream
//!   bytes match by construction.
//!
//! [`GroupByPartial`]: shareinsights_tabular::ops::GroupByPartial

use crate::query::QueryOp;
use shareinsights_tabular::agg::AggKind;
use shareinsights_tabular::ops::{AggregateSpec, GroupBy};
use shareinsights_tabular::{DataType, Schema};

/// A query pipeline split for scatter/gather execution.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    /// Ops each shard runs over its slice (row-local prefix plus at most
    /// one pushed-down group-by or fused top-n).
    pub local: Vec<QueryOp>,
    /// When set, shards run `local` and then feed the result into a
    /// [`GroupByPartial`](shareinsights_tabular::ops::GroupByPartial) with
    /// this config, returning accumulator state instead of a table; the
    /// router merges the states in shard order and materialises once.
    pub accumulate: Option<GroupBy>,
    /// Ops the router runs over the gathered table.
    pub post: Vec<QueryOp>,
}

/// Is this op a pure per-row transformation (commutes with partitioning)?
fn is_row_local(op: &QueryOp) -> bool {
    matches!(op, QueryOp::FilterExpr(_) | QueryOp::Project(_))
}

/// The merge-side operator that re-aggregates a finished partial column,
/// or `None` when the finished value under-determines the merge.
fn merge_kind(op: AggKind) -> Option<AggKind> {
    match op {
        // Partial sums and counts re-sum; extremes re-extremize; first/last
        // pick across shard-ordered partials (= row order).
        AggKind::Sum | AggKind::Count | AggKind::CountAll => Some(AggKind::Sum),
        AggKind::Min => Some(AggKind::Min),
        AggKind::Max => Some(AggKind::Max),
        AggKind::First => Some(AggKind::First),
        AggKind::Last => Some(AggKind::Last),
        // A finished avg loses its weight, a distinct count its value set,
        // a collect its "no rows seen" distinction — accumulator state only.
        AggKind::Avg | AggKind::CountDistinct | AggKind::Collect => None,
    }
}

/// Split `ops` for scatter/gather over `schema`. `None` means the pipeline
/// gains nothing from sharding (or cannot be sharded byte-identically) and
/// must run unsharded.
pub fn plan(ops: &[QueryOp], schema: &Schema) -> Option<ScatterPlan> {
    let ops = crate::query::fuse(ops);
    let mut local: Vec<QueryOp> = Vec::new();
    let mut i = 0;
    while i < ops.len() && is_row_local(&ops[i]) {
        local.push(ops[i].clone());
        i += 1;
    }
    if i == ops.len() {
        // Purely row-local pipeline: shards do all the work, gather concats.
        return if local.is_empty() {
            None
        } else {
            Some(ScatterPlan {
                local,
                accumulate: None,
                post: Vec::new(),
            })
        };
    }
    match &ops[i] {
        QueryOp::GroupBy(cfg) => plan_groupby(local, cfg, &ops[i + 1..], schema),
        QueryOp::FilteredGroupBy { filter, group } => {
            // Splits back at the scatter point: the filter is row-local,
            // the group-by needs a merge. A shard's own evaluation fuses
            // the two again.
            local.push(QueryOp::FilterExpr(filter.clone()));
            plan_groupby(local, group, &ops[i + 1..], schema)
        }
        QueryOp::TopN { .. } => {
            // Shard-local top-n, then the same top-n over the gathered
            // candidates.
            local.push(ops[i].clone());
            Some(ScatterPlan {
                local,
                accumulate: None,
                post: ops[i..].to_vec(),
            })
        }
        _ => {
            // Distinct / limit / offset / join / a full sort at the scatter
            // point: nothing to push down beyond the row-local prefix (a
            // shard-local sort would be re-sorted on the router anyway).
            if local.is_empty() {
                return None;
            }
            Some(ScatterPlan {
                local,
                accumulate: None,
                post: ops[i..].to_vec(),
            })
        }
    }
}

fn plan_groupby(
    local: Vec<QueryOp>,
    cfg: &GroupBy,
    rest: &[QueryOp],
    schema: &Schema,
) -> Option<ScatterPlan> {
    let aggs = cfg.effective_aggregates();
    let mut mergeable = true;
    for a in &aggs {
        if matches!(a.operator, AggKind::Sum | AggKind::Avg) {
            // Only integer addition is associative; float or stringly
            // sums could drift in the last bit across shard boundaries.
            // (A column the schema doesn't know falls back too: the
            // unsharded path owns the error message.)
            let dt = schema.field(&a.apply_on).ok()?.data_type();
            if dt != DataType::Int64 {
                return None;
            }
        }
        if merge_kind(a.operator).is_none() {
            mergeable = false;
        }
    }
    if !mergeable {
        return Some(ScatterPlan {
            local,
            accumulate: Some(cfg.clone()),
            post: rest.to_vec(),
        });
    }
    let mut local = local;
    let mut local_cfg = cfg.clone();
    // Shard-local output order is merge input order, not response order:
    // the aggregate ordering applies once, over merged groups.
    local_cfg.orderby_aggregates = false;
    local_cfg.aggregates = aggs.clone();
    local.push(QueryOp::GroupBy(local_cfg));
    let merge_cfg = GroupBy {
        keys: cfg.keys.clone(),
        aggregates: aggs
            .iter()
            .map(|a| {
                let kind = merge_kind(a.operator).expect("checked mergeable");
                AggregateSpec::new(kind, a.out_field.clone(), a.out_field.clone())
            })
            .collect(),
        orderby_aggregates: cfg.orderby_aggregates,
    };
    let mut post = vec![QueryOp::GroupBy(merge_cfg)];
    post.extend(rest.iter().cloned());
    Some(ScatterPlan {
        local,
        accumulate: None,
        post,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::expr::parse_expr;
    use shareinsights_tabular::ops::SortKey;
    use shareinsights_tabular::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ])
        .unwrap()
    }

    fn gb(op: AggKind, apply_on: &str) -> QueryOp {
        QueryOp::GroupBy(GroupBy::with_aggregates(
            &["k"],
            vec![AggregateSpec::new(op, apply_on, "out")],
        ))
    }

    #[test]
    fn row_local_prefix_scatters_without_post() {
        let ops = vec![crate::query::path_filter("k", "a")];
        let p = plan(&ops, &schema()).unwrap();
        assert_eq!(p.local, ops);
        assert!(p.post.is_empty() && p.accumulate.is_none());
    }

    #[test]
    fn empty_and_unpushable_heads_fall_back() {
        assert!(plan(&[], &schema()).is_none());
        assert!(plan(&[QueryOp::Limit(3)], &schema()).is_none());
        assert!(plan(&[QueryOp::Distinct(vec!["k".into()])], &schema()).is_none());
        assert!(plan(&[QueryOp::Sort(vec![SortKey::asc("v")])], &schema()).is_none());
    }

    #[test]
    fn int_sum_groupby_splits_into_local_plus_merge() {
        let p = plan(&[gb(AggKind::Sum, "v")], &schema()).unwrap();
        assert!(p.accumulate.is_none());
        let QueryOp::GroupBy(local) = &p.local[0] else {
            panic!("local groupby expected");
        };
        assert!(!local.orderby_aggregates);
        let QueryOp::GroupBy(merge) = &p.post[0] else {
            panic!("merge groupby expected");
        };
        // The merge re-sums the finished partial column into itself.
        assert_eq!(merge.aggregates[0].operator, AggKind::Sum);
        assert_eq!(merge.aggregates[0].apply_on, "out");
        assert_eq!(merge.aggregates[0].out_field, "out");
    }

    #[test]
    fn count_merges_as_sum_and_bare_count_defaults() {
        let p = plan(&[gb(AggKind::CountAll, "")], &schema()).unwrap();
        let QueryOp::GroupBy(merge) = &p.post[0] else {
            panic!();
        };
        assert_eq!(merge.aggregates[0].operator, AggKind::Sum);

        let bare = QueryOp::GroupBy(GroupBy::counting(&["k"]));
        let p = plan(&[bare], &schema()).unwrap();
        let QueryOp::GroupBy(merge) = &p.post[0] else {
            panic!();
        };
        assert_eq!(merge.aggregates[0].apply_on, "count");
    }

    #[test]
    fn float_sum_and_unknown_column_fall_back() {
        assert!(plan(&[gb(AggKind::Sum, "f")], &schema()).is_none());
        assert!(plan(&[gb(AggKind::Avg, "f")], &schema()).is_none());
        assert!(plan(&[gb(AggKind::Sum, "ghost")], &schema()).is_none());
        // Float min is exact — still mergeable.
        assert!(plan(&[gb(AggKind::Min, "f")], &schema()).is_some());
    }

    #[test]
    fn lossy_aggregates_take_the_accumulator_path() {
        for kind in [AggKind::Avg, AggKind::CountDistinct, AggKind::Collect] {
            let target = if kind == AggKind::Avg { "v" } else { "f" };
            let p = plan(&[gb(kind, target)], &schema()).unwrap();
            assert!(p.accumulate.is_some(), "{kind:?}");
            assert!(p.local.is_empty());
        }
        // One lossy aggregate drags the whole groupby onto that path.
        let mixed = QueryOp::GroupBy(GroupBy::with_aggregates(
            &["k"],
            vec![
                AggregateSpec::new(AggKind::Sum, "v", "s"),
                AggregateSpec::new(AggKind::Collect, "k", "c"),
            ],
        ));
        assert!(plan(&[mixed], &schema()).unwrap().accumulate.is_some());
    }

    #[test]
    fn fused_topn_runs_shard_local_and_again_on_the_router() {
        let ops = vec![
            QueryOp::FilterExpr(parse_expr("v > 1").unwrap()),
            QueryOp::Sort(vec![SortKey::desc("v")]),
            QueryOp::Limit(5),
            QueryOp::Offset(1),
        ];
        let p = plan(&ops, &schema()).unwrap();
        assert_eq!(p.local.len(), 2);
        assert!(matches!(&p.local[1], QueryOp::TopN { n: 5, .. }));
        assert_eq!(p.post[0], p.local[1]);
        assert!(matches!(&p.post[1], QueryOp::Offset(1)));
        assert_eq!(p.post.len(), 2);
    }

    #[test]
    fn fused_filter_groupby_splits_at_the_scatter_point() {
        let ops = vec![
            QueryOp::FilterExpr(parse_expr("v > 1").unwrap()),
            gb(AggKind::Sum, "v"),
        ];
        let p = plan(&ops, &schema()).unwrap();
        assert!(matches!(&p.local[0], QueryOp::FilterExpr(_)));
        assert!(matches!(&p.local[1], QueryOp::GroupBy(_)));
        assert!(matches!(&p.post[0], QueryOp::GroupBy(_)));
    }

    #[test]
    fn groupby_tail_ops_stay_router_side() {
        let ops = vec![
            gb(AggKind::Sum, "v"),
            QueryOp::Sort(vec![SortKey::desc("out")]),
            QueryOp::Limit(2),
        ];
        let p = plan(&ops, &schema()).unwrap();
        assert_eq!(p.local.len(), 1);
        assert_eq!(p.post.len(), 2, "merge + fused top-n");
        assert!(matches!(&p.post[1], QueryOp::TopN { n: 2, .. }));
    }
}
