//! The columnar batch executor — the Pig/Spark substitute.
//!
//! Executes a [`CompiledPipeline`] in dependency order. Flows in the same
//! DAG level have no dependencies and run on scoped threads; within a flow
//! every task runs its typed column kernel over the whole input. (Slicing
//! a row-local task's input across threads and re-unioning the parts was
//! measured to buy nothing end to end and was removed — DESIGN.md §5.14.)
//!
//! All intermediate data objects are cached, so a sink feeding three
//! downstream flows is computed once — the "efficient processing of raw
//! data sources" §4.5.3 point 3 attributes to shared flows.

use crate::compile::CompiledPipeline;
use crate::error::{EngineError, Result};
use crate::selection::SelectionProvider;
use crate::task::{NamedTask, TaskKind, TaskNotes, TaskRuntime};
use parking_lot::{Mutex, RwLock};
use shareinsights_connectors::Catalog;
use shareinsights_tabular::ops::union_all;
use shareinsights_tabular::Table;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Execution context: where sources load from and what feeds interaction
/// filters.
#[derive(Clone)]
pub struct ExecContext {
    /// Connector/format catalog (sources resolve through it).
    pub catalog: Catalog,
    /// Pre-materialised tables: shared/published objects from other
    /// dashboards, or direct injections in tests.
    pub tables: BTreeMap<String, Table>,
    /// Widget selections (interaction flows).
    pub selections: Option<Arc<dyn SelectionProvider>>,
}

impl ExecContext {
    /// Context over a catalog with no shared tables or selections.
    pub fn new(catalog: Catalog) -> Self {
        ExecContext {
            catalog,
            tables: BTreeMap::new(),
            selections: None,
        }
    }

    /// Add a pre-materialised table.
    pub fn with_table(mut self, name: impl Into<String>, table: Table) -> Self {
        self.tables.insert(name.into(), table);
        self
    }
}

/// One task execution inside a run: which operator ran where, how many
/// rows it consumed and emitted, and when (offsets from run start) — the
/// per-node record request traces and operator histograms are built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRunStat {
    /// Task name as written in the flow file (`T.get_count` → `get_count`).
    pub task: String,
    /// Operator type name (`groupby`, `filter_by`, `join`, …).
    pub task_type: String,
    /// The flow this execution belonged to, named by its output object.
    pub flow: String,
    /// Rows consumed (summed across fan-in inputs).
    pub rows_in: usize,
    /// Rows emitted.
    pub rows_out: usize,
    /// Start offset from run start, in microseconds.
    pub start_us: u64,
    /// Elapsed wall time, in microseconds.
    pub elapsed_us: u64,
    /// What the kernel reported beyond rows (see [`TaskNotes`]).
    pub notes: TaskNotes,
}

/// One source load inside a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceLoadStat {
    /// Data object name.
    pub source: String,
    /// Rows loaded.
    pub rows: usize,
    /// Start offset from run start, in microseconds.
    pub start_us: u64,
    /// Elapsed wall time, in microseconds.
    pub elapsed_us: u64,
    /// The version of the uploaded file the table was decoded from; `None`
    /// for a live source (HTTP, FTP, JDBC), which is fetched on every run.
    pub version: Option<u64>,
    /// The decoded table came from the catalog's memo (the file had not
    /// been re-uploaded since an earlier run decoded it).
    pub memo_hit: bool,
}

/// Per-run statistics (the execution-log data the hackathon dashboards of
/// §5.2.1 were built from).
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Rows read from sources.
    pub source_rows: usize,
    /// Rows produced per data object.
    pub rows_out: BTreeMap<String, usize>,
    /// Per-source load timings.
    pub source_loads: Vec<SourceLoadStat>,
    /// Per-task executions with rows and timing offsets.
    pub task_runs: Vec<TaskRunStat>,
    /// Total wall time in microseconds.
    pub total_micros: u128,
    /// Approximate bytes held by endpoint objects (what would ship to the
    /// browser — the §6 optimization metric).
    pub endpoint_bytes: usize,
}

/// Result of a pipeline run.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Every materialised data object (sources and sinks).
    pub tables: BTreeMap<String, Table>,
    /// Endpoint object names (subset of `tables`).
    pub endpoints: Vec<String>,
    /// Run statistics.
    pub stats: ExecStats,
}

impl ExecResult {
    /// Fetch a materialised table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }
}

/// The batch executor.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Run the independent flows of a DAG level on scoped threads.
    parallel_flows: bool,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            parallel_flows: true,
        }
    }
}

impl Executor {
    /// Single-threaded executor (deterministic timings for tests).
    pub fn sequential() -> Self {
        Executor {
            parallel_flows: false,
        }
    }

    /// Run a pipeline to completion.
    pub fn execute(&self, pipeline: &CompiledPipeline, ctx: &ExecContext) -> Result<ExecResult> {
        let start = Instant::now();
        let tables: Arc<RwLock<BTreeMap<String, Table>>> =
            Arc::new(RwLock::new(ctx.tables.clone()));
        let stats = Arc::new(Mutex::new(ExecStats::default()));

        // Load sources needed by surviving flows.
        let mut needed_sources: Vec<&str> = Vec::new();
        for f in &pipeline.flows {
            for i in &f.inputs {
                if pipeline.sources.contains_key(i)
                    && !tables.read().contains_key(i)
                    && !needed_sources.contains(&i.as_str())
                {
                    needed_sources.push(i);
                }
            }
        }
        for name in needed_sources {
            let cfg = &pipeline.sources[name];
            let load_start_us = start.elapsed().as_micros() as u64;
            let loaded = ctx
                .catalog
                .load_described(cfg)
                .map_err(|e| EngineError::Source {
                    object: name.to_string(),
                    message: e.to_string(),
                })?;
            {
                let mut s = stats.lock();
                s.source_rows += loaded.table.num_rows();
                s.source_loads.push(SourceLoadStat {
                    source: name.to_string(),
                    rows: loaded.table.num_rows(),
                    start_us: load_start_us,
                    elapsed_us: start.elapsed().as_micros() as u64 - load_start_us,
                    version: loaded.version,
                    memo_hit: loaded.memo_hit,
                });
            }
            tables.write().insert(name.to_string(), loaded.table);
        }

        // Execute flows level by level.
        let flows_by_output: BTreeMap<&str, &crate::compile::CompiledFlow> = pipeline
            .flows
            .iter()
            .map(|f| (f.output.as_str(), f))
            .collect();
        for level in pipeline.graph.levels() {
            let level_flows: Vec<&crate::compile::CompiledFlow> = level
                .iter()
                .filter_map(|o| flows_by_output.get(o.as_str()).copied())
                .collect();
            if level_flows.is_empty() {
                continue;
            }
            if self.parallel_flows && level_flows.len() > 1 {
                type FlowResult = (String, Result<(Table, Vec<TaskRunStat>)>);
                let results: Mutex<Vec<FlowResult>> = Mutex::new(Vec::new());
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    std::thread::scope(|scope| {
                        for flow in &level_flows {
                            let tables = Arc::clone(&tables);
                            let results = &results;
                            let ctx = ctx.clone();
                            scope.spawn(move || {
                                let r = self.run_flow(flow, &tables, &ctx, start);
                                results.lock().push((flow.output.clone(), r));
                            });
                        }
                    })
                }))
                .map_err(|_| EngineError::Internal("flow worker panicked".into()))?;
                for (output, result) in results.into_inner() {
                    let (table, task_stats) = result?;
                    stats.lock().task_runs.extend(task_stats);
                    stats
                        .lock()
                        .rows_out
                        .insert(output.clone(), table.num_rows());
                    tables.write().insert(output, table);
                }
            } else {
                for flow in level_flows {
                    let (table, task_stats) = self.run_flow(flow, &tables, ctx, start)?;
                    stats.lock().task_runs.extend(task_stats);
                    stats
                        .lock()
                        .rows_out
                        .insert(flow.output.clone(), table.num_rows());
                    tables.write().insert(flow.output.clone(), table);
                }
            }
        }

        let tables = Arc::try_unwrap(tables)
            .map_err(|_| EngineError::Internal("table cache still shared".into()))?
            .into_inner();
        let mut stats = Arc::try_unwrap(stats)
            .map_err(|_| EngineError::Internal("stats still shared".into()))?
            .into_inner();
        stats.total_micros = start.elapsed().as_micros();
        stats.endpoint_bytes = pipeline
            .endpoints
            .iter()
            .filter_map(|e| tables.get(e))
            .map(Table::approx_bytes)
            .sum();
        Ok(ExecResult {
            tables,
            endpoints: pipeline.endpoints.clone(),
            stats,
        })
    }

    fn run_flow(
        &self,
        flow: &crate::compile::CompiledFlow,
        tables: &RwLock<BTreeMap<String, Table>>,
        ctx: &ExecContext,
        run_start: Instant,
    ) -> Result<(Table, Vec<TaskRunStat>)> {
        // Gather inputs.
        let mut current: Vec<(Option<String>, Table)> = Vec::with_capacity(flow.inputs.len());
        for i in &flow.inputs {
            let t = tables
                .read()
                .get(i)
                .cloned()
                .ok_or_else(|| EngineError::UnresolvedData {
                    object: i.clone(),
                    context: format!("flow 'D.{}' at execution time", flow.output),
                })?;
            current.push((Some(i.clone()), t));
        }

        let selections = ctx.selections.clone();
        let mut task_stats = Vec::with_capacity(flow.tasks.len());
        for task in &flow.tasks {
            let t0 = Instant::now();
            let start_us = run_start.elapsed().as_micros() as u64;
            let in_rows: usize = current.iter().map(|(_, t)| t.num_rows()).sum();
            let mut notes = TaskNotes::new();
            current = self.apply_task(task, current, tables, selections.as_deref(), &mut notes)?;
            let out_rows: usize = current.iter().map(|(_, t)| t.num_rows()).sum();
            task_stats.push(TaskRunStat {
                task: task.name.clone(),
                task_type: task.kind.type_name().to_string(),
                flow: flow.output.clone(),
                rows_in: in_rows,
                rows_out: out_rows,
                start_us,
                elapsed_us: t0.elapsed().as_micros() as u64,
                notes,
            });
        }
        if current.len() != 1 {
            return Err(EngineError::Execution {
                task: format!("flow D.{}", flow.output),
                message: format!("flow ended with {} unmerged tables", current.len()),
            });
        }
        Ok((current.remove(0).1, task_stats))
    }

    fn apply_task(
        &self,
        task: &NamedTask,
        mut current: Vec<(Option<String>, Table)>,
        tables: &RwLock<BTreeMap<String, Table>>,
        selections: Option<&dyn SelectionProvider>,
        notes: &mut TaskNotes,
    ) -> Result<Vec<(Option<String>, Table)>> {
        let lookup = |name: &str| -> Option<Table> { tables.read().get(name).cloned() };
        let rt = TaskRuntime {
            selections,
            lookup_table: &lookup,
        };
        match &task.kind {
            TaskKind::Join(j) => {
                if current.len() != 2 {
                    return Err(EngineError::Execution {
                        task: task.name.clone(),
                        message: format!("join needs 2 inputs, found {}", current.len()),
                    });
                }
                let left_idx = current
                    .iter()
                    .position(|(n, _)| n.as_deref() == Some(j.left_name.as_str()))
                    .unwrap_or(0);
                let right_idx = 1 - left_idx;
                let inputs = [current[left_idx].1.clone(), current[right_idx].1.clone()];
                let out = task.kind.execute_noted(&task.name, &inputs, &rt, notes)?;
                Ok(vec![(None, out)])
            }
            TaskKind::Union => {
                let inputs: Vec<Table> = current.drain(..).map(|(_, t)| t).collect();
                let out = union_all(&inputs).map_err(|e| EngineError::Execution {
                    task: task.name.clone(),
                    message: e.to_string(),
                })?;
                Ok(vec![(None, out)])
            }
            _ => {
                if current.len() != 1 {
                    return Err(EngineError::Execution {
                        task: task.name.clone(),
                        message: format!(
                            "task consumes one input but found {} at this point",
                            current.len()
                        ),
                    });
                }
                let (_, input) = current.remove(0);
                let out = task.kind.execute_noted(
                    &task.name,
                    std::slice::from_ref(&input),
                    &rt,
                    notes,
                )?;
                Ok(vec![(None, out)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileEnv};
    use crate::ext::TaskRegistry;
    use shareinsights_flowfile::parse_flow_file;
    use shareinsights_tabular::{row, Value};

    fn run(src: &str, setup: impl Fn(&Catalog)) -> ExecResult {
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let env = CompileEnv::bare(&reg);
        let pipeline = compile(&ff, &env).unwrap();
        let catalog = Catalog::new();
        setup(&catalog);
        let ctx = ExecContext::new(catalog);
        Executor::default().execute(&pipeline, &ctx).unwrap()
    }

    const APACHE: &str = r#"
D:
  svn_jira_summary: [project, year, noOfBugs, noOfCheckins]
  checkin_jira: [project, year, total_checkins, total_jira]

D.svn_jira_summary:
  source: 'svn_jira.csv'
  format: csv

T:
  get_count:
    type: groupby
    groupby: [project, year]
    aggregates:
    - operator: sum
      apply_on: noOfCheckins
      out_field: total_checkins
    - operator: sum
      apply_on: noOfBugs
      out_field: total_jira

F:
  +D.checkin_jira: D.svn_jira_summary | T.get_count
"#;

    #[test]
    fn executes_figure8_end_to_end() {
        let result = run(APACHE, |cat| {
            cat.data_folder().put_text(
                "svn_jira.csv",
                "p,y,b,c\npig,2013,5,100\npig,2013,3,50\nhive,2014,2,30\n",
            );
        });
        let out = result.table("checkin_jira").unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "total_checkins").unwrap(), Value::Int(150));
        assert_eq!(result.endpoints, vec!["checkin_jira"]);
        assert!(result.stats.endpoint_bytes > 0);
        assert_eq!(result.stats.source_rows, 3);
        assert_eq!(result.stats.rows_out.get("checkin_jira"), Some(&2));
        // Optimizer inserts a pruning projection ahead of the groupby.
        assert_eq!(result.stats.task_runs.len(), 2);
        let group = result
            .stats
            .task_runs
            .iter()
            .find(|t| t.task == "get_count")
            .expect("groupby task recorded");
        assert_eq!(group.task_type, "groupby");
        assert_eq!(group.flow, "checkin_jira");
        assert_eq!(group.rows_in, 3);
        assert_eq!(group.rows_out, 2);
        assert!(
            u128::from(group.start_us + group.elapsed_us) <= result.stats.total_micros,
            "task timing fits inside the run window"
        );
        assert_eq!(result.stats.source_loads.len(), 1);
        let load = &result.stats.source_loads[0];
        assert_eq!(load.source, "svn_jira_summary");
        assert_eq!(load.rows, 3);
    }

    #[test]
    fn intermediate_sinks_feed_downstream_flows() {
        // figure 11: sinks as inputs to other flows.
        let src = r#"
D:
  raw: [k, v]
T:
  keep:
    type: filter_by
    filter_expression: v > 1
  count:
    type: groupby
    groupby: [k]
F:
  D.mid: D.raw | T.keep
  +D.final: D.mid | T.count
"#;
        // 'raw' has no source: inject via context.
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        let catalog = Catalog::new();
        let ctx = ExecContext::new(catalog).with_table(
            "raw",
            Table::from_rows(
                &["k", "v"],
                &[row!["a", 1i64], row!["a", 2i64], row!["b", 3i64]],
            )
            .unwrap(),
        );
        let result = Executor::default().execute(&pipeline, &ctx).unwrap();
        let final_t = result.table("final").unwrap();
        assert_eq!(final_t.num_rows(), 2);
        assert_eq!(result.table("mid").unwrap().num_rows(), 2);
    }

    #[test]
    fn fan_in_join_executes() {
        let src = r#"
D:
  left_data: [k, v]
  right_data: [k, w]
T:
  j:
    type: join
    left: left_data by k
    right: right_data by k
    join_condition: inner
F:
  +D.joined: (D.left_data, D.right_data) | T.j
"#;
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        let ctx = ExecContext::new(Catalog::new())
            .with_table(
                "left_data",
                Table::from_rows(&["k", "v"], &[row!["x", 1i64], row!["y", 2i64]]).unwrap(),
            )
            .with_table(
                "right_data",
                Table::from_rows(&["k", "w"], &[row!["x", 9i64]]).unwrap(),
            );
        let result = Executor::default().execute(&pipeline, &ctx).unwrap();
        assert_eq!(result.table("joined").unwrap().num_rows(), 1);
    }

    #[test]
    fn missing_source_errors_with_object_name() {
        let ff = parse_flow_file("t", APACHE).unwrap();
        let reg = TaskRegistry::new();
        let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        let ctx = ExecContext::new(Catalog::new()); // nothing in the folder
        let err = Executor::default().execute(&pipeline, &ctx).unwrap_err();
        assert!(err.to_string().contains("svn_jira_summary"), "{err}");
    }

    #[test]
    fn parallel_levels_execute_independent_flows() {
        let src = r#"
D:
  src_data: [a]
T:
  one:
    type: filter_by
    filter_expression: a > 0
  all:
    type: groupby
    groupby: [a]
F:
  +D.x: D.src_data | T.one
  +D.y: D.src_data | T.all
"#;
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        let ctx = ExecContext::new(Catalog::new()).with_table(
            "src_data",
            Table::from_rows(&["a"], &[row![1i64], row![2i64]]).unwrap(),
        );
        let result = Executor::default().execute(&pipeline, &ctx).unwrap();
        assert!(result.table("x").is_some() && result.table("y").is_some());
    }

    #[test]
    fn stats_say_which_path_each_step_took() {
        // A source load says whether its decode was a memo hit; keyed
        // operators note how many groups, build rows and distinct inputs
        // they saw, and whether a join handed the left columns through.
        let src = r#"
D:
  visits: [day, page]
  pages: [page, section]
D.visits:
  source: 'visits.csv'
  format: csv
D.pages:
  source: 'pages.csv'
  format: csv
T:
  to_month:
    type: map
    operator: date
    transform: day
    input_format: yyyy-MM-dd
    output_format: yyyy-MM
    output: month
  with_section:
    type: join
    left: dated by page
    right: pages by page
    join_condition: left outer
  per_section:
    type: groupby
    groupby: [section, month]
  busiest:
    type: topn
    groupby: [month]
    orderby_column: [count DESC]
    limit: 1
  sections:
    type: distinct
    columns: [section]
F:
  D.dated: D.visits | T.to_month
  D.placed: (D.dated, D.pages) | T.with_section
  +D.counts: D.placed | T.per_section
  +D.top: D.counts | T.busiest
  +D.names: D.counts | T.sections
"#;
        let ff = parse_flow_file("t", src).unwrap();
        let reg = TaskRegistry::new();
        let pipeline = compile(&ff, &CompileEnv::bare(&reg)).unwrap();
        let catalog = Catalog::new();
        catalog.data_folder().put_text(
            "visits.csv",
            "day,page\n2014-01-03,/a\n2014-01-03,/b\n2014-02-09,/a\n2014-01-03,/zz\n",
        );
        catalog
            .data_folder()
            .put_text("pages.csv", "page,section\n/a,docs\n/b,blog\n");
        let ctx = ExecContext::new(catalog);
        let first = Executor::sequential().execute(&pipeline, &ctx).unwrap();
        let hits = |r: &ExecResult| -> Vec<bool> {
            r.stats.source_loads.iter().map(|l| l.memo_hit).collect()
        };
        assert_eq!(hits(&first), [false, false]);
        assert!(first.stats.source_loads.iter().all(|l| l.version.is_some()));
        let again = Executor::sequential().execute(&pipeline, &ctx).unwrap();
        assert_eq!(hits(&again), [true, true]);
        assert_eq!(again.table("counts"), first.table("counts"));

        let notes = |task: &str| -> Vec<(&str, u64)> {
            let run = first.stats.task_runs.iter().find(|t| t.task == task);
            run.unwrap_or_else(|| panic!("no run of {task}"))
                .notes
                .clone()
        };
        assert_eq!(notes("to_month"), [("distinct_inputs", 2)]);
        assert_eq!(
            notes("with_section"),
            [("build_rows", 2), ("shared_left", 1)]
        );
        assert_eq!(notes("per_section"), [("groups", 4)]);
        assert_eq!(notes("busiest"), [("groups", 2)]);
        assert_eq!(notes("sections"), [("groups", 3)]);
    }
}
