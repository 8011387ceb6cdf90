//! The interactive data cube.
//!
//! §4.1: the widget sections compile to "a data cube (in JavaScript) for
//! ad-hoc widget interaction (group, filter etc)". This is that component:
//! it holds an endpoint table in memory and evaluates interaction-flow task
//! chains against the *current selection state*, caching results per
//! selection fingerprint so repeated interactions are O(lookup).
//!
//! Two layers make cold interactions cheap and hot ones free:
//!
//! - The cube plans nothing of its own. The longest prefix of a chain the
//!   ad-hoc query language can say — a widget filter under the current
//!   selections, a row filter, a builtin-only group-by, a sort, limit,
//!   distinct or projection — lowers to the engine's [`QueryOp`]s and runs
//!   fused through [`evaluate_indexed`] over an [`IndexedTable`] of the
//!   snapshot, as a served query does: a widget filter feeding a group-by
//!   folds on dictionary codes. The engine's chain runner takes the rest,
//!   or the whole chain when the prefix fails, so an error names its task.
//! - Results are cached per selection fingerprint in the shared bounded
//!   [`Lru`] behind a single mutex, bounded by entries and by the
//!   results' approximate bytes, so a long interactive session cannot
//!   grow the cache without limit. The cube owns its snapshot, so entries
//!   are unstamped (stamp 0): a refreshed endpoint gets a new cube.

use crate::error::{Result, WidgetError};
use parking_lot::{Lru, Mutex};
use shareinsights_engine::query::{evaluate_indexed, fuse, QueryOp};
use shareinsights_engine::selection::SelectionProvider;
use shareinsights_engine::task::{run_chain, FilterSource, NamedTask, TaskKind, TaskRuntime};
use shareinsights_tabular::{IndexedTable, Table};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Bound on cached results per cube.
const CUBE_CACHE_ENTRIES: usize = 256;
/// Bound on the cached results' [`Table::approx_bytes`] per cube, so a
/// few hundred filtered copies of a wide endpoint cannot stay resident
/// (the result cache's and the flow memo's bound is the same size).
const CUBE_CACHE_BYTES: usize = 64 << 20;

/// A cube over one endpoint data object, with a task chain per widget.
pub struct DataCube {
    indexed: IndexedTable,
    /// Selection fingerprint → result.
    cache: Mutex<Lru<u64, Arc<Table>>>,
}

impl DataCube {
    /// Build over an endpoint snapshot.
    pub fn new(base: Table) -> Self {
        DataCube {
            indexed: IndexedTable::new(base),
            cache: Mutex::new(Lru::weighted(
                CUBE_CACHE_ENTRIES,
                CUBE_CACHE_BYTES,
                |_, table: &Arc<Table>| table.approx_bytes(),
            )),
        }
    }

    /// The underlying endpoint table.
    pub fn base(&self) -> &Table {
        self.indexed.table()
    }

    /// `(hits, misses)` so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        let stats = self.cache.lock().stats();
        (stats.hits, stats.misses)
    }

    /// Entries dropped to stay within the cache bound.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.lock().stats().evictions
    }

    /// `(index builds, total build time in µs)` for the wrapped snapshot.
    pub fn index_build_stats(&self) -> (u64, u64) {
        self.indexed.build_stats()
    }

    /// The widget/column pairs a task chain depends on — the selection
    /// *fingerprint domain*. Only these affect the result, so the cache key
    /// hashes only their current values.
    pub fn dependencies(tasks: &[NamedTask]) -> BTreeSet<(String, String)> {
        let mut deps = BTreeSet::new();
        for t in tasks {
            collect_deps(&t.kind, &mut deps);
        }
        deps
    }

    /// Evaluate a task chain under the given selections.
    pub fn eval(
        &self,
        widget: &str,
        tasks: &[NamedTask],
        selections: &dyn SelectionProvider,
    ) -> Result<Arc<Table>> {
        let key = fingerprint(widget, tasks, selections);
        if let Some(table) = self.cache.lock().get(&key, 0) {
            return Ok(table);
        }

        // Evaluate outside the lock: the query prefix through the indexed
        // evaluator, the rest through the engine's chain runner.
        let rt = TaskRuntime {
            selections: Some(selections),
            lookup_table: &|_| None,
        };
        let (covered, ops) = query_prefix(tasks, &rt);
        let (rest, input) = match evaluate_indexed(&self.indexed, &fuse(&ops)) {
            Ok(done) => (&tasks[covered..], done.table),
            // The runner re-runs a failing prefix, so the error names its
            // task.
            Err(_) => (tasks, self.indexed.table().clone()),
        };
        let chain = run_chain(
            widget,
            rest,
            vec![(None, input)],
            &rt,
            Instant::now(),
            &mut Vec::new(),
        );
        let arc = Arc::new(chain.map_err(|e| WidgetError::Flow {
            widget: widget.to_string(),
            message: e.to_string(),
        })?);

        self.cache.lock().put(key, 0, Arc::clone(&arc));
        Ok(arc)
    }
}

/// The longest prefix of `tasks` with an ad-hoc query form, lowered under
/// the current selections: how many tasks it covers, and their ops. A
/// widget filter is its selection predicate, or no op when no pair
/// constrains anything; a semijoin, a custom aggregate, a top-n (grouped,
/// unlike [`QueryOp::TopN`]) or any other task ends the prefix.
fn query_prefix(tasks: &[NamedTask], rt: &TaskRuntime<'_>) -> (usize, Vec<QueryOp>) {
    let mut ops = Vec::new();
    for (covered, task) in tasks.iter().enumerate() {
        let op = match &task.kind {
            TaskKind::FilterBySource {
                source: FilterSource::Widget(_),
                ..
            } => task.kind.widget_predicate(rt).map(QueryOp::FilterExpr),
            TaskKind::FilterExpr(e) => Some(QueryOp::FilterExpr(e.clone())),
            TaskKind::GroupBy { builtin, custom } if custom.is_empty() => {
                Some(QueryOp::GroupBy(builtin.clone()))
            }
            TaskKind::Sort(keys) => Some(QueryOp::Sort(keys.clone())),
            TaskKind::Limit(n) => Some(QueryOp::Limit(*n)),
            TaskKind::Distinct(cols) => Some(QueryOp::Distinct(cols.clone())),
            TaskKind::Project(cols) => Some(QueryOp::Project(cols.clone())),
            _ => return (covered, ops),
        };
        ops.extend(op);
    }
    (tasks.len(), ops)
}

fn collect_deps(kind: &TaskKind, deps: &mut BTreeSet<(String, String)>) {
    if let Some((widget, pairs)) = kind.widget_filter() {
        for (_, widget_column) in pairs {
            deps.insert((widget.to_string(), widget_column.to_string()));
        }
    }
    if let TaskKind::Parallel(subs) = kind {
        for s in subs {
            collect_deps(&s.kind, deps);
        }
    }
}

fn fingerprint(widget: &str, tasks: &[NamedTask], selections: &dyn SelectionProvider) -> u64 {
    let mut h = DefaultHasher::new();
    widget.hash(&mut h);
    for t in tasks {
        t.name.hash(&mut h);
    }
    for (w, c) in DataCube::dependencies(tasks) {
        w.hash(&mut h);
        c.hash(&mut h);
        match selections.selection(&w, &c) {
            Some(shareinsights_engine::Selection::Values(vals)) => {
                1u8.hash(&mut h);
                for v in vals {
                    v.hash(&mut h);
                }
            }
            Some(shareinsights_engine::Selection::Range(lo, hi)) => {
                2u8.hash(&mut h);
                lo.hash(&mut h);
                hi.hash(&mut h);
            }
            None => 0u8.hash(&mut h),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_engine::selection::{Selection, StaticSelections};
    use shareinsights_tabular::agg::AggKind;
    use shareinsights_tabular::ops::{AggregateSpec, GroupBy, SortKey, TopN};
    use shareinsights_tabular::{row, Value};

    fn team_tweets() -> Table {
        Table::from_rows(
            &["date", "team", "noOfTweets"],
            &[
                row!["2013-05-02", "CSK", 100i64],
                row!["2013-05-02", "MI", 80i64],
                row!["2013-05-03", "CSK", 60i64],
                row!["2013-05-10", "RCB", 40i64],
            ],
        )
        .unwrap()
    }

    fn filter_by_team() -> NamedTask {
        NamedTask {
            name: "filter_by_team".into(),
            kind: TaskKind::FilterBySource {
                columns: vec!["team".into()],
                source: FilterSource::Widget("teams".into()),
                source_columns: vec!["text".into()],
            },
            fingerprint: None,
        }
    }

    fn aggregate_by_team() -> NamedTask {
        NamedTask {
            name: "aggregate_by_team".into(),
            kind: TaskKind::GroupBy {
                builtin: GroupBy::with_aggregates(
                    &["team"],
                    vec![AggregateSpec::new(AggKind::Sum, "noOfTweets", "noOfTweets")],
                ),
                custom: vec![],
            },
            fingerprint: None,
        }
    }

    #[test]
    fn evaluates_interaction_flow() {
        let cube = DataCube::new(team_tweets());
        let sel = StaticSelections::new();
        let tasks = vec![filter_by_team(), aggregate_by_team()];

        // No selection: all teams aggregated.
        let out = cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(out.num_rows(), 3);

        // Select CSK: one row, 160 tweets.
        sel.set("teams", "text", Selection::Values(vec!["CSK".into()]));
        let out = cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "noOfTweets").unwrap().as_int(), Some(160));
        // The filter ran through the dictionary index on `team`.
        assert!(cube.index_build_stats().0 >= 1);
    }

    #[test]
    fn cache_hits_on_repeat_and_distinguishes_selections() {
        let cube = DataCube::new(team_tweets());
        let sel = StaticSelections::new();
        let tasks = vec![filter_by_team(), aggregate_by_team()];

        cube.eval("w", &tasks, &sel).unwrap();
        cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(cube.cache_stats(), (1, 1), "second call hits");

        sel.set("teams", "text", Selection::Values(vec!["MI".into()]));
        let out = cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(out.value(0, "team").unwrap().to_string(), "MI");
        assert_eq!(cube.cache_stats(), (1, 2), "new selection misses");
    }

    #[test]
    fn unrelated_selection_changes_still_hit() {
        // Changing a widget the chain doesn't depend on must not bust the
        // cache — the fingerprint only covers dependencies.
        let cube = DataCube::new(team_tweets());
        let sel = StaticSelections::new();
        let tasks = vec![filter_by_team()];
        cube.eval("w", &tasks, &sel).unwrap();
        sel.set("other_widget", "text", Selection::Values(vec!["x".into()]));
        cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(cube.cache_stats(), (1, 1));
    }

    #[test]
    fn dependencies_extracted() {
        let deps = DataCube::dependencies(&[filter_by_team(), aggregate_by_team()]);
        assert_eq!(deps.len(), 1);
        assert!(deps.contains(&("teams".to_string(), "text".to_string())));
    }

    #[test]
    fn cache_is_bounded_with_lru_eviction() {
        let cube = DataCube::new(team_tweets());
        let sel = StaticSelections::new();
        let tasks = vec![filter_by_team()];
        // One more distinct selection than the cache holds.
        for i in 0..=CUBE_CACHE_ENTRIES {
            sel.set(
                "teams",
                "text",
                Selection::Values(vec![format!("T{i}").into()]),
            );
            cube.eval("w", &tasks, &sel).unwrap();
        }
        assert_eq!(cube.cache_evictions(), 1, "one past the bound evicts");
        let misses = CUBE_CACHE_ENTRIES as u64 + 1;
        // The oldest fingerprint (T0) was evicted; re-evaluating it misses.
        sel.set("teams", "text", Selection::Values(vec!["T0".into()]));
        cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(cube.cache_stats(), (0, misses + 1));
        // The most recent is still cached.
        let last = format!("T{CUBE_CACHE_ENTRIES}");
        sel.set("teams", "text", Selection::Values(vec![last.into()]));
        cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(cube.cache_stats(), (1, misses + 1));
    }

    #[test]
    fn cache_is_bounded_by_result_bytes() {
        // Every row is CSK, so each selection that names CSK keeps the
        // whole endpoint: a few such results fill the byte budget long
        // before the entry bound.
        let rows: Vec<_> = (0..40_000i64)
            .map(|i| row!["2013-05-02", "CSK", i])
            .collect();
        let cube = DataCube::new(Table::from_rows(&["date", "team", "noOfTweets"], &rows).unwrap());
        let sel = StaticSelections::new();
        let tasks = vec![filter_by_team()];
        let mut bytes = 0;
        for i in 0..64 {
            let names = vec!["CSK".into(), format!("T{i}").into()];
            sel.set("teams", "text", Selection::Values(names));
            bytes += cube.eval("w", &tasks, &sel).unwrap().approx_bytes();
            if bytes > CUBE_CACHE_BYTES {
                break;
            }
        }
        assert!(bytes > CUBE_CACHE_BYTES, "the results outgrow the budget");
        assert!(cube.cache_evictions() > 0, "evicted by bytes");
        let (_, misses) = cube.cache_stats();
        assert!(misses < CUBE_CACHE_ENTRIES as u64 / 4, "{misses} results");
    }

    #[test]
    fn indexed_and_scan_chains_agree() {
        // The same chain evaluated through the cube (indexed first task)
        // and through the runner's scan kernels must be identical.
        let base = team_tweets();
        let cube = DataCube::new(base.clone());
        let sel = StaticSelections::new();
        sel.set(
            "teams",
            "text",
            Selection::Values(vec!["CSK".into(), "RCB".into()]),
        );
        let tasks = vec![filter_by_team(), aggregate_by_team()];
        let via_cube = cube.eval("w", &tasks, &sel).unwrap();
        let rt = TaskRuntime {
            selections: Some(&sel),
            lookup_table: &|_| None,
        };
        let scan = run_chain(
            "w",
            &tasks,
            vec![(None, base)],
            &rt,
            Instant::now(),
            &mut Vec::new(),
        );
        assert_eq!(*via_cube, scan.unwrap());
    }

    fn task(name: &str, kind: TaskKind) -> NamedTask {
        NamedTask {
            name: name.into(),
            kind,
            fingerprint: None,
        }
    }

    /// The prefix through the indexed evaluator plus the runner for the
    /// rest gives the table `run_chain` gives for the whole chain: a
    /// widget filter alone and before a group-by, a sort and limit (fused
    /// to a top-n), a grouped top-n, two AND-ed widget columns, a `limit`
    /// head no index covers — under selections and under none.
    #[test]
    fn prefix_evaluation_matches_run_chain() {
        let table = Table::from_rows(
            &["project", "n"],
            &[
                row!["pig", 1i64],
                row!["hive", 2i64],
                row!["pig", 3i64],
                row!["spark", 4i64],
            ],
        )
        .unwrap();
        let filter = || {
            task(
                "f",
                TaskKind::FilterBySource {
                    columns: vec!["project".into()],
                    source: FilterSource::Widget("bubble".into()),
                    source_columns: vec!["text".into()],
                },
            )
        };
        // A pair whose widget column has nothing selected constrains
        // nothing; the others AND together.
        let filter2 = || {
            task(
                "f2",
                TaskKind::FilterBySource {
                    columns: vec!["project".into(), "n".into(), "project".into()],
                    source: FilterSource::Widget("w".into()),
                    source_columns: vec!["text".into(), "value".into(), "other".into()],
                },
            )
        };
        let group = || {
            task(
                "g",
                TaskKind::GroupBy {
                    builtin: GroupBy::with_aggregates(
                        &["project"],
                        vec![AggregateSpec::new(AggKind::Sum, "n", "total")],
                    ),
                    custom: vec![],
                },
            )
        };
        let sort = || task("s", TaskKind::Sort(vec![SortKey::desc("project")]));
        let limit = || task("l", TaskKind::Limit(2));
        let top = || {
            task(
                "t",
                TaskKind::TopN(TopN {
                    groupby: vec!["project".into()],
                    order_by: vec![SortKey::desc("n")],
                    limit: 1,
                }),
            )
        };
        let chains = [
            vec![filter()],
            vec![group()],
            vec![sort()],
            vec![filter(), group()],
            vec![filter(), sort(), limit()],
            vec![filter(), top()],
            vec![filter2()],
            vec![limit(), filter(), group()],
        ];
        let selected = StaticSelections::new();
        let picked = || Selection::Values(vec!["pig".into(), "spark".into()]);
        selected.set("bubble", "text", picked());
        selected.set("w", "text", picked());
        selected.set("w", "value", Selection::Range(Value::Int(2), Value::Int(4)));
        let none = StaticSelections::new();
        for sel in [&selected, &none] {
            let rt = TaskRuntime {
                selections: Some(sel),
                lookup_table: &|_| None,
            };
            for tasks in &chains {
                let via_cube = DataCube::new(table.clone()).eval("w", tasks, sel).unwrap();
                let input = vec![(None, table.clone())];
                let chain = run_chain("w", tasks, input, &rt, Instant::now(), &mut Vec::new());
                assert_eq!(*via_cube, chain.unwrap(), "{tasks:?}");
            }
        }
        let and_ed = DataCube::new(table).eval("w", &[filter2()], &selected);
        assert_eq!(
            and_ed.unwrap().to_rows(),
            vec![row!["pig", 3i64], row!["spark", 4i64]]
        );
    }

    #[test]
    fn a_failing_prefix_reports_the_runner_error() {
        // The prefix fails inside the evaluator; the runner re-runs the
        // chain, so the message names the task that failed.
        let by_ghost = task(
            "by_ghost",
            TaskKind::GroupBy {
                builtin: GroupBy::with_aggregates(
                    &["ghost"],
                    vec![AggregateSpec::new(AggKind::Sum, "noOfTweets", "n")],
                ),
                custom: vec![],
            },
        );
        let sel = StaticSelections::new();
        sel.set("teams", "text", Selection::Values(vec!["CSK".into()]));
        let cube = DataCube::new(team_tweets());
        let err = cube.eval("w", &[filter_by_team(), by_ghost], &sel);
        assert_eq!(
            err.unwrap_err().to_string(),
            "widget 'w': interaction flow failed: executing 'T.by_ghost' failed: \
             column 'ghost' not found; available columns: [date, team, noOfTweets]"
        );
    }

    #[test]
    fn range_selection_on_dates() {
        let cube = DataCube::new(team_tweets());
        let sel = StaticSelections::new();
        let tasks = vec![NamedTask {
            name: "filter_by_date".into(),
            kind: TaskKind::FilterBySource {
                columns: vec!["date".into()],
                source: FilterSource::Widget("ipl_duration".into()),
                source_columns: vec!["date".into()],
            },
            fingerprint: None,
        }];
        sel.set(
            "ipl_duration",
            "date",
            Selection::Range("2013-05-02".into(), "2013-05-03".into()),
        );
        let out = cube.eval("w", &tasks, &sel).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn numeric_slider_selects_by_number() {
        // A slider with no range set selects its static bounds, which are
        // strings; over an Int64 column they compare as the numbers they
        // spell. A null bound compares false, as in SQL.
        let years = Table::from_rows(
            &["year", "n"],
            &[
                row![2008i64, 1i64],
                row![2010i64, 2i64],
                row![2014i64, 3i64],
            ],
        )
        .unwrap();
        let tasks = vec![NamedTask {
            name: "by_year".into(),
            kind: TaskKind::FilterBySource {
                columns: vec!["year".into()],
                source: FilterSource::Widget("years".into()),
                source_columns: vec!["value".into()],
            },
            fingerprint: None,
        }];
        let sel = StaticSelections::new();
        let rt = TaskRuntime {
            selections: Some(&sel),
            lookup_table: &|_| None,
        };
        let null_bound = Selection::Range(Value::Null, Value::Int(2013));
        for (range, want) in [
            (Selection::Range("2008".into(), "2013".into()), vec![1, 2]),
            (null_bound, vec![]),
        ] {
            sel.set("years", "value", range);
            let via_cube = DataCube::new(years.clone())
                .eval("w", &tasks, &sel)
                .unwrap();
            let input = vec![(None, years.clone())];
            let chain = run_chain("w", &tasks, input, &rt, Instant::now(), &mut Vec::new());
            assert_eq!(*via_cube, chain.unwrap());
            let kept: Vec<i64> = (0..via_cube.num_rows())
                .map(|i| via_cube.value(i, "n").unwrap().as_int().unwrap())
                .collect();
            assert_eq!(kept, want);
        }
    }
}
