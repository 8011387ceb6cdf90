//! The columnar batch executor — the Pig/Spark substitute.
//!
//! Executes a [`CompiledPipeline`] in dependency order. Flows in the same
//! DAG level have no dependencies and run as one job on the process-wide
//! pool (`parking_lot::Pool`), one flow per morsel; within a flow
//! every task runs its typed column kernel over the whole input. (Slicing
//! a row-local task's input across threads and re-unioning the parts was
//! measured to buy nothing end to end and was removed — DESIGN.md §5.14.)
//!
//! All intermediate data objects are cached, so a sink feeding three
//! downstream flows is computed once — the "efficient processing of raw
//! data sources" §4.5.3 point 3 attributes to shared flows. With a
//! [`FlowMemo`] attached, they are also kept *across* runs: a flow whose
//! key (see [`crate::memo`]) the memo holds is not executed at all, and
//! only the level's misses fan out to the pool.

use crate::compile::{CompiledFlow, CompiledPipeline};
use crate::error::{EngineError, Result};
use crate::memo::{FlowKey, FlowMemo, Key128, Stamp, Uncached};
use crate::selection::SelectionProvider;
use crate::task::{run_chain, TaskNotes, TaskRuntime};
use parking_lot::Pool;
use shareinsights_connectors::Catalog;
use shareinsights_tabular::Table;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Execution context: where sources load from, what feeds interaction
/// filters, and — for the platform's runs — the memo to consult.
#[derive(Clone)]
pub struct ExecContext {
    /// Connector/format catalog (sources resolve through it).
    pub catalog: Catalog,
    /// Pre-materialised tables: shared/published objects from other
    /// dashboards, or direct injections in tests.
    pub tables: BTreeMap<String, Table>,
    /// Widget selections (interaction flows).
    pub selections: Option<Arc<dyn SelectionProvider>>,
    /// The flow-output memo and the registration epoch its entries are
    /// stamped with; `None` computes every flow.
    memo: Option<(FlowMemo, u64)>,
    /// What each stamped entry of `tables` is keyed on in the memo.
    stamps: BTreeMap<String, Stamp>,
}

impl ExecContext {
    /// Context over a catalog with no shared tables, no selections and no
    /// memo: every flow is computed.
    pub fn new(catalog: Catalog) -> Self {
        ExecContext {
            catalog,
            tables: BTreeMap::new(),
            selections: None,
            memo: None,
            stamps: BTreeMap::new(),
        }
    }

    /// Add a pre-materialised table. Flows reading it are never memoised.
    pub fn with_table(mut self, name: impl Into<String>, table: Table) -> Self {
        let name = name.into();
        self.stamps.remove(&name);
        self.tables.insert(name, table);
        self
    }

    /// Add a pre-materialised table with a stamp that changes whenever its
    /// content does (the platform passes a shared object's publish
    /// generation, or a live source's version): flows reading it may be
    /// memoised under that stamp.
    pub fn with_stamped_table(
        mut self,
        name: impl Into<String>,
        table: Table,
        stamp: Stamp,
    ) -> Self {
        let name = name.into();
        self.stamps.insert(name.clone(), stamp);
        self.tables.insert(name, table);
        self
    }

    /// Consult `memo` before executing a flow and fill it after. `epoch`
    /// must move whenever a registration could change what a source
    /// decodes to (the platform counts connector, format and task
    /// registrations).
    pub fn with_memo(mut self, memo: FlowMemo, epoch: u64) -> Self {
        self.memo = Some((memo, epoch));
        self
    }

    /// Every flow's key, in the pipeline's (topological) order.
    fn flow_keys<'p>(
        &self,
        pipeline: &'p CompiledPipeline,
        versions: &BTreeMap<&str, Option<u64>>,
    ) -> BTreeMap<&'p str, FlowKey> {
        let mut keys = BTreeMap::new();
        for flow in &pipeline.flows {
            let key = self.flow_key(flow, pipeline, &keys, versions);
            keys.insert(flow.output.as_str(), key);
        }
        keys
    }

    /// A flow's key: its tasks' fingerprints in compiled order, then each
    /// input and each object a task looks up by name, with its name (a
    /// join binds its sides by input name) and key.
    fn flow_key(
        &self,
        flow: &CompiledFlow,
        pipeline: &CompiledPipeline,
        keys: &BTreeMap<&str, FlowKey>,
        versions: &BTreeMap<&str, Option<u64>>,
    ) -> FlowKey {
        let mut h = Key128::new(b"flow");
        h.u64(flow.tasks.len() as u64);
        let mut lookups = Vec::new();
        for task in &flow.tasks {
            let reason = || {
                task.kind
                    .uncached_reason()
                    .unwrap_or(Uncached::ExtensionTask)
            };
            h.u128(task.fingerprint.ok_or_else(reason)?);
            task.kind.data_lookups(&mut lookups);
        }
        h.u64((flow.inputs.len() + lookups.len()) as u64);
        for name in flow.inputs.iter().map(String::as_str).chain(lookups) {
            let key = self.object_key(name, pipeline, keys, versions)?;
            h.str(name).u128(key);
        }
        Ok(h.finish())
    }

    /// The key of one data object a flow reads: an earlier flow's, an
    /// injected table's stamp, or a source's configuration and version.
    fn object_key(
        &self,
        name: &str,
        pipeline: &CompiledPipeline,
        keys: &BTreeMap<&str, FlowKey>,
        versions: &BTreeMap<&str, Option<u64>>,
    ) -> FlowKey {
        if let Some(key) = keys.get(name) {
            return *key;
        }
        if self.tables.contains_key(name) {
            let stamp = self.stamps.get(name).ok_or(Uncached::UnstampedInput)?;
            return Ok(stamp.key());
        }
        match (pipeline.sources.get(name), versions.get(name)) {
            (Some(cfg), Some(Some(version))) => Ok(Key128::source(cfg, *version)),
            (Some(_), Some(None)) => Err(Uncached::LiveSource),
            _ => Err(Uncached::UnstampedInput),
        }
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

/// What the flow memo did for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoVerdict {
    /// The output came from the memo; no task ran.
    Hit,
    /// The memo did not hold the key: the flow ran and its output was
    /// memoised.
    Miss,
    /// The flow has no key and ran.
    Uncached(Uncached),
}

impl MemoVerdict {
    /// The span-attribute spelling: `hit`, `miss` or `uncached`.
    pub fn as_str(self) -> &'static str {
        match self {
            MemoVerdict::Hit => "hit",
            MemoVerdict::Miss => "miss",
            MemoVerdict::Uncached(_) => "uncached",
        }
    }
}

/// One flow of a run that had a memo attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRunStat {
    /// The flow, named by its output object.
    pub flow: String,
    /// What the memo did.
    pub memo: MemoVerdict,
    /// Start offset from run start, in microseconds.
    pub start_us: u64,
    /// Elapsed wall time, in microseconds.
    pub elapsed_us: u64,
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
    /// Per-task executions with rows and timing offsets — only the tasks
    /// that actually ran: a memo hit runs none.
    pub task_runs: Vec<TaskRunStat>,
    /// Flows whose output came from the memo.
    pub memo_hits: usize,
    /// Flows with a key the memo did not hold.
    pub memo_misses: usize,
    /// Every flow's memo verdict, in level order; empty when no memo was
    /// attached.
    pub flows: Vec<FlowRunStat>,
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
    /// Run the independent flows of a DAG level as one job on the pool.
    parallel_flows: bool,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            parallel_flows: true,
        }
    }
}

/// One executed flow.
struct FlowRun {
    table: Table,
    tasks: Vec<TaskRunStat>,
    start_us: u64,
    elapsed_us: u64,
}

fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

impl Executor {
    /// Single-threaded executor (deterministic timings for tests).
    pub fn sequential() -> Self {
        Executor {
            parallel_flows: false,
        }
    }

    /// Run a pipeline to completion.
    ///
    /// The result does not depend on whether `ctx` carries a memo: a hit
    /// stands in for the very table the flow would compute. Only
    /// `stats.task_runs` (what ran) and the memo counters differ.
    pub fn execute(&self, pipeline: &CompiledPipeline, ctx: &ExecContext) -> Result<ExecResult> {
        let start = Instant::now();
        let mut tables = ctx.tables.clone();
        let mut stats = ExecStats::default();

        // Load the sources surviving flows read, in first-use order.
        let mut versions: BTreeMap<&str, Option<u64>> = BTreeMap::new();
        for name in pipeline.flows.iter().flat_map(|f| &f.inputs) {
            let Some(cfg) = pipeline.sources.get(name) else {
                continue;
            };
            if tables.contains_key(name) {
                continue;
            }
            let load_start_us = micros_since(start);
            let loaded = ctx
                .catalog
                .load_described(cfg)
                .map_err(|e| EngineError::Source {
                    object: name.to_string(),
                    message: e.to_string(),
                })?;
            stats.source_rows += loaded.table.num_rows();
            stats.source_loads.push(SourceLoadStat {
                source: name.to_string(),
                rows: loaded.table.num_rows(),
                start_us: load_start_us,
                elapsed_us: micros_since(start) - load_start_us,
                version: loaded.version,
                memo_hit: loaded.memo_hit,
            });
            versions.insert(name, loaded.version);
            tables.insert(name.to_string(), loaded.table);
        }

        // Keys name definitions and upload versions, not data: all of them
        // are known before the first flow runs.
        let memo = ctx.memo.as_ref();
        let keys = match memo {
            Some(_) => ctx.flow_keys(pipeline, &versions),
            None => BTreeMap::new(),
        };

        // Execute flows level by level: hits first, then the misses.
        let flows_by_output: BTreeMap<&str, &CompiledFlow> = pipeline
            .flows
            .iter()
            .map(|f| (f.output.as_str(), f))
            .collect();
        for level in pipeline.graph.levels() {
            let mut misses: Vec<&CompiledFlow> = Vec::new();
            for flow in level.iter().filter_map(|o| flows_by_output.get(o.as_str())) {
                if let (Some((memo, epoch)), Some(Ok(key))) = (memo, keys.get(flow.output.as_str()))
                {
                    let start_us = micros_since(start);
                    if let Some(table) = memo.get(*key, *epoch) {
                        stats.memo_hits += 1;
                        stats.flows.push(FlowRunStat {
                            flow: flow.output.clone(),
                            memo: MemoVerdict::Hit,
                            start_us,
                            elapsed_us: micros_since(start) - start_us,
                        });
                        stats.rows_out.insert(flow.output.clone(), table.num_rows());
                        tables.insert(flow.output.clone(), table);
                        continue;
                    }
                }
                misses.push(flow);
            }
            if self.parallel_flows && misses.len() > 1 {
                // One morsel per flow on the pool: this thread runs flows
                // itself, and an idle helper takes the others.
                let job = Arc::new((
                    self.clone(),
                    misses.iter().map(|&flow| flow.clone()).collect::<Vec<_>>(),
                    tables.clone(),
                    ctx.clone(),
                ));
                let (runs, _) = Pool::global().map(misses.len(), move |i| {
                    let (executor, flows, tables, ctx) = job.as_ref();
                    catch_unwind(AssertUnwindSafe(|| {
                        executor.run_flow(&flows[i], tables, ctx, start)
                    }))
                    .unwrap_or_else(|_| Err(EngineError::Internal("flow worker panicked".into())))
                });
                for (flow, run) in misses.iter().zip(runs) {
                    finish_flow(flow, run?, &keys, memo, &mut stats, &mut tables);
                }
            } else {
                for flow in misses {
                    let run = self.run_flow(flow, &tables, ctx, start)?;
                    finish_flow(flow, run, &keys, memo, &mut stats, &mut tables);
                }
            }
        }

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
        flow: &CompiledFlow,
        tables: &BTreeMap<String, Table>,
        ctx: &ExecContext,
        run_start: Instant,
    ) -> Result<FlowRun> {
        let start_us = micros_since(run_start);
        let inputs = flow
            .inputs
            .iter()
            .map(|i| match tables.get(i) {
                Some(t) => Ok((Some(i.as_str()), t.clone())),
                None => Err(EngineError::UnresolvedData {
                    object: i.clone(),
                    context: format!("flow 'D.{}' at execution time", flow.output),
                }),
            })
            .collect::<Result<Vec<_>>>()?;
        let lookup = |name: &str| -> Option<Table> { tables.get(name).cloned() };
        let rt = TaskRuntime {
            selections: ctx.selections.as_deref(),
            lookup_table: &lookup,
        };
        let mut tasks = Vec::with_capacity(flow.tasks.len());
        let table = run_chain(
            &flow.output,
            &flow.tasks,
            inputs,
            &rt,
            run_start,
            &mut tasks,
        )?;
        Ok(FlowRun {
            table,
            tasks,
            start_us,
            elapsed_us: micros_since(run_start) - start_us,
        })
    }
}

/// Record an executed flow: its task runs, its rows, its memo verdict —
/// memoising its output when it has a key — and its table.
fn finish_flow(
    flow: &CompiledFlow,
    run: FlowRun,
    keys: &BTreeMap<&str, FlowKey>,
    memo: Option<&(FlowMemo, u64)>,
    stats: &mut ExecStats,
    tables: &mut BTreeMap<String, Table>,
) {
    stats.task_runs.extend(run.tasks);
    stats
        .rows_out
        .insert(flow.output.clone(), run.table.num_rows());
    if let (Some((memo, epoch)), Some(key)) = (memo, keys.get(flow.output.as_str())) {
        let verdict = match key {
            Ok(key) => {
                memo.put(*key, *epoch, run.table.clone());
                stats.memo_misses += 1;
                MemoVerdict::Miss
            }
            Err(reason) => MemoVerdict::Uncached(*reason),
        };
        stats.flows.push(FlowRunStat {
            flow: flow.output.clone(),
            memo: verdict,
            start_us: run.start_us,
            elapsed_us: run.elapsed_us,
        });
    }
    tables.insert(flow.output.clone(), run.table);
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
