//! The ad-hoc query plan: one op list and the one evaluator over it.
//!
//! The paper's data API (§4.4, figure 30) and its interaction cube (§4.1)
//! ask for the same relational ops over one endpoint table. Every front
//! end lowers onto [`QueryOp`] — the server's path grammar
//! (`server::query::parse_ops`), SQL ([`crate::sql::lower()`]) and the data
//! cube's widget chains — and every evaluation starts with [`fuse`], then
//! runs through the scan kernels ([`run_query`]) or with its first op
//! against an indexed snapshot ([`evaluate_indexed`]).

use shareinsights_tabular::expr::Expr;
use shareinsights_tabular::ops::{
    distinct, groupby, groupby_selected, join, sort, sort_limit, GroupBy, JoinCondition, JoinSpec,
    SortKey,
};
use shareinsights_tabular::{Bitmap, IndexedTable, Table};

/// One ad-hoc query operation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    /// Grouped aggregation. The path grammar's `groupby/<col>/<agg>/<col>`
    /// is one key and one aggregate named `<agg>_<col>`; SQL's `GROUP BY`
    /// any number of each, aliases, and no key for `count(*)`.
    GroupBy(GroupBy),
    /// Stable sort. `sort/<col>/<asc|desc>` is one key; SQL's `ORDER BY`
    /// any number.
    Sort(Vec<SortKey>),
    /// Rows distinct over these columns, first occurrence kept.
    /// `distinct/<col>` is one column; SQL's `SELECT DISTINCT` none, which
    /// means whole rows.
    Distinct(Vec<String>),
    /// `limit/<n>`: the first `n` rows.
    Limit(usize),
    /// A row filter: `filter/<col>/<value>`, a SQL `WHERE`, or a widget
    /// selection.
    FilterExpr(Expr),
    /// SQL projection: column selection in select-list order.
    Project(Vec<String>),
    /// SQL `OFFSET`: skip the first `n` rows.
    Offset(usize),
    /// SQL inner equi-join against a resolved right-side snapshot.
    Join(JoinOp),
    /// Fused `sort | limit`: the first `n` rows under `keys` (original row
    /// order breaking ties), selected without materialising the full
    /// order. No front end spells it; [`fuse`] produces it for every
    /// caller.
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
        /// The grouping.
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
        match (op, tail) {
            (QueryOp::Sort(keys), [QueryOp::Limit(n), after @ ..]) => {
                let (keys, n) = (keys.clone(), *n);
                fused.push(QueryOp::TopN { keys, n });
                rest = after;
            }
            (QueryOp::Sort(keys), [QueryOp::Offset(k), QueryOp::Limit(n), after @ ..]) => {
                let (keys, n) = (keys.clone(), k.saturating_add(*n));
                fused.extend([QueryOp::TopN { keys, n }, QueryOp::Offset(*k)]);
                rest = after;
            }
            (QueryOp::FilterExpr(filter), [QueryOp::GroupBy(group), after @ ..]) => {
                fused.push(QueryOp::FilteredGroupBy {
                    filter: filter.clone(),
                    group: group.clone(),
                });
                rest = after;
            }
            _ => fused.push(op.clone()),
        }
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
        QueryOp::GroupBy(group) => groupby(current, group).map_err(|e| e.to_string())?,
        QueryOp::FilterExpr(filter) => current.filter(&selection(current, None, filter)?.0),
        QueryOp::Sort(keys) => sort(current, keys).map_err(|e| e.to_string())?,
        QueryOp::Distinct(cols) => distinct(current, cols).map_err(|e| e.to_string())?,
        QueryOp::Limit(n) => current.limit(*n),
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
    // The indexed kernels are decline-based: a shape is offered where an
    // accelerated kernel exists and falls back to the scan path
    // (differentially pinned byte-identical) otherwise.
    let fast = match op {
        QueryOp::GroupBy(group) => indexed.groupby(group),
        QueryOp::Sort(keys) => indexed.sort(keys),
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
/// no index), falling back to the scan kernels otherwise. This is the one
/// place that picks an index kernel for an op list.
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
