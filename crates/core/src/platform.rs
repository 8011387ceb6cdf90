//! The [`Platform`]: figure 24's block diagram as one object.

use crate::dashboard::{Dashboard, RunReport};
use crate::error::{PlatformError, Result};
use crate::telemetry::{usage_of, ApiMetrics, RunEvent, RunKind, RunLog};
use crate::telemetry_history::TelemetryHistory;
use crate::trace::{Span, Tracer};
use parking_lot::{Mutex, RwLock};
use shareinsights_collab::PublishRegistry;
use shareinsights_connectors::Catalog;
use shareinsights_engine::compile::{compile, CompileEnv, CompiledPipeline};
use shareinsights_engine::exec::{ExecContext, Executor, MemoVerdict};
use shareinsights_engine::memo::{FlowMemo, Stamp};
use shareinsights_engine::{EngineError, TaskRegistry};
use shareinsights_flowfile::parser::parse_flow_file;
use shareinsights_flowfile::validate::ValidateOptions;
use shareinsights_flowfile::Severity;
use shareinsights_tabular::{Schema, Table};
use shareinsights_widgets::{DashboardRuntime, WidgetRegistry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows a live source retains: a push past this drops the oldest rows.
const STREAM_RETAIN_ROWS: usize = 100_000;

/// A streaming dashboard's live sources: every source of the flow file the
/// stream started on, with the rows it retains and the version that keys
/// them in the flow memo. A source with no declared columns is `None`
/// until its first push, and runs read it as a batch run would.
type LiveSources = BTreeMap<String, Option<(Table, u64)>>;

/// The declared (all-Utf8) schema of a flow-file data object, used as the
/// discovery fallback before a run has materialised real types.
pub(crate) fn declared_schema_of(obj: &shareinsights_flowfile::ast::DataObject) -> Option<Schema> {
    if obj.columns.is_empty() {
        None
    } else {
        Schema::all_utf8(&obj.column_names()).ok()
    }
}

/// The ShareInsights platform.
#[derive(Clone)]
pub struct Platform {
    catalog: Catalog,
    tasks: TaskRegistry,
    widgets: WidgetRegistry,
    publish: PublishRegistry,
    log: RunLog,
    api: ApiMetrics,
    history: TelemetryHistory,
    tracer: Tracer,
    dashboards: Arc<RwLock<BTreeMap<String, Dashboard>>>,
    /// dashboard -> endpoint-data generation, bumped whenever a run
    /// replaces the dashboard's endpoint tables. Serving-layer caches key
    /// their entries on this (plus the publish registry's per-object
    /// generation) to invalidate without coordination.
    data_gens: Arc<RwLock<BTreeMap<String, u64>>>,
    /// Each streaming dashboard's live sources, by dashboard name, behind
    /// a lock of their own that a push holds from append to install and a
    /// run for its duration. Created by [`Platform::stream_start`].
    streams: Arc<Mutex<BTreeMap<String, Arc<Mutex<LiveSources>>>>>,
    /// The last live-source version drawn, for every dashboard: no two
    /// live tables share a memo key.
    live_versions: Arc<AtomicU64>,
    /// Flow outputs of earlier runs, by what they were computed from: a
    /// run re-executes only the flows an edit or an upload changed.
    memo: FlowMemo,
    /// Executor used for batch runs.
    pub executor: Executor,
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform {
    /// A platform with built-in connectors, formats, tasks and widgets.
    pub fn new() -> Platform {
        Platform {
            catalog: Catalog::new(),
            tasks: TaskRegistry::new(),
            widgets: WidgetRegistry::new(),
            publish: PublishRegistry::new(),
            log: RunLog::new(),
            api: ApiMetrics::new(),
            history: TelemetryHistory::new(),
            tracer: Tracer::new(),
            dashboards: Arc::new(RwLock::new(BTreeMap::new())),
            data_gens: Arc::new(RwLock::new(BTreeMap::new())),
            streams: Arc::new(Mutex::new(BTreeMap::new())),
            live_versions: Arc::new(AtomicU64::new(0)),
            memo: FlowMemo::new(),
            executor: Executor::default(),
        }
    }

    // --- extension services (§4.2) -------------------------------------

    /// Connector/format catalog (register extensions, seed fixtures).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Task extension registry.
    pub fn tasks(&self) -> &TaskRegistry {
        &self.tasks
    }

    /// Widget extension registry.
    pub fn widgets(&self) -> &WidgetRegistry {
        &self.widgets
    }

    /// Shared-objects registry.
    pub fn publish_registry(&self) -> &PublishRegistry {
        &self.publish
    }

    /// Telemetry log.
    pub fn log(&self) -> &RunLog {
        &self.log
    }

    /// Serving-path metrics (per-route counters/latency, `/stats`).
    pub fn api_metrics(&self) -> &ApiMetrics {
        &self.api
    }

    /// The self-hosted telemetry time-series the serving layer scrapes
    /// [`ApiMetrics`] into — the backing store of the built-in `_system`
    /// dashboard's `telemetry` dataset.
    pub fn telemetry_history(&self) -> &TelemetryHistory {
        &self.history
    }

    /// Request/operator trace registry: completed traces land here, and
    /// the sampling knob lives on it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The endpoint-data generation of a dashboard: 0 until its first run,
    /// bumped by every completed run that changed what the dashboard
    /// serves or publishes. Combined with
    /// [`PublishRegistry::generation`] this stamps query-cache entries.
    pub fn data_generation(&self, dashboard: &str) -> u64 {
        self.data_gens.read().get(dashboard).copied().unwrap_or(0)
    }

    /// Bump a dashboard's endpoint-data generation (runs do this
    /// automatically; exposed for callers that mutate endpoint tables
    /// directly).
    pub fn bump_data_generation(&self, dashboard: &str) {
        *self
            .data_gens
            .write()
            .entry(dashboard.to_string())
            .or_insert(0) += 1;
    }

    // --- development services (§4.3) ------------------------------------

    /// Upload a file into a dashboard's data folder (the SFTP interface of
    /// §4.3.2). Data objects reference it by the bare relative path.
    pub fn upload_data(&self, dashboard: &str, path: &str, content: impl Into<String>) {
        self.catalog
            .data_folder()
            .put_text(format!("{dashboard}/{path}"), content);
    }

    /// Upload binary data.
    pub fn upload_bytes(&self, dashboard: &str, path: &str, content: Vec<u8>) {
        self.catalog
            .data_folder()
            .put_bytes(format!("{dashboard}/{path}"), content);
    }

    /// Create an empty dashboard (the `/dashboards/<name>/create` URL).
    pub fn create_dashboard(&self, name: &str) -> Result<()> {
        let mut dashboards = self.dashboards.write();
        if dashboards.contains_key(name) {
            return Err(PlatformError::Other(format!(
                "dashboard '{name}' already exists"
            )));
        }
        dashboards.insert(name.to_string(), Dashboard::new(name));
        Ok(())
    }

    /// Dashboard names.
    pub fn dashboard_names(&self) -> Vec<String> {
        self.dashboards.read().keys().cloned().collect()
    }

    /// A dashboard snapshot.
    pub fn dashboard(&self, name: &str) -> Result<Dashboard> {
        self.dashboards
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PlatformError::NoDashboard(name.to_string()))
    }

    /// Save (commit) flow-file text for a dashboard, parsing and validating
    /// it. Returns validation warnings; errors reject the save.
    pub fn save_flow(
        &self,
        name: &str,
        text: &str,
    ) -> Result<Vec<shareinsights_flowfile::Diagnostic>> {
        self.save_flow_as(name, text, "analyst")
    }

    /// Save with an author label (the hackathon simulator names teams).
    pub fn save_flow_as(
        &self,
        name: &str,
        text: &str,
        author: &str,
    ) -> Result<Vec<shareinsights_flowfile::Diagnostic>> {
        // Auto-create on first save — matching the create-by-URL workflow.
        if !self.dashboards.read().contains_key(name) {
            self.create_dashboard(name)?;
        }
        let parse_result = parse_flow_file(name, text);
        let ast = match parse_result {
            Ok(ast) => ast,
            Err(e) => {
                self.log.record(RunEvent {
                    dashboard: name.to_string(),
                    kind: RunKind::Save,
                    success: false,
                    error: Some(e.to_string()),
                    flow_bytes: text.len(),
                    operators: vec![],
                    widgets: vec![],
                    seq: 0,
                });
                return Err(e.into());
            }
        };
        let opts = ValidateOptions {
            extra_tasks: self.tasks.task_names(),
            shared_data: self.publish.names(),
        };
        let diags = shareinsights_flowfile::validate::validate_with(&ast, &opts);
        if diags.iter().any(|d| d.severity == Severity::Error) {
            self.log.record(RunEvent {
                dashboard: name.to_string(),
                kind: RunKind::Save,
                success: false,
                error: Some(
                    diags
                        .iter()
                        .filter(|d| d.severity == Severity::Error)
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join("; "),
                ),
                flow_bytes: text.len(),
                operators: vec![],
                widgets: vec![],
                seq: 0,
            });
            return Err(shareinsights_flowfile::FlowError::from_diagnostics(diags).into());
        }
        let (operators, widget_types) = usage_of(&ast);
        {
            let mut dashboards = self.dashboards.write();
            let d = dashboards.get_mut(name).expect("created above");
            d.repo.commit("main", author, "save", text);
            d.text = text.to_string();
            d.ast = ast;
        }
        self.log.record(RunEvent {
            dashboard: name.to_string(),
            kind: RunKind::Save,
            success: true,
            error: None,
            flow_bytes: text.len(),
            operators,
            widgets: widget_types,
            seq: 0,
        });
        Ok(diags)
    }

    /// Fork an existing dashboard under a new name (§5.2.2 obs. 3).
    pub fn fork_dashboard(&self, from: &str, to: &str, author: &str) -> Result<()> {
        let source = self.dashboard(from)?;
        if self.dashboards.read().contains_key(to) {
            return Err(PlatformError::Other(format!(
                "dashboard '{to}' already exists"
            )));
        }
        let repo = source
            .repo
            .fork(to, "main", author)
            .map_err(|e| PlatformError::Collab(e.to_string()))?;
        let ast = parse_flow_file(to, &source.text)?;
        // Forks also copy the source dashboard's data folder namespace.
        for path in self.catalog.data_folder().list() {
            if let Some(rest) = path.strip_prefix(&format!("{from}/")) {
                if let Some(bytes) = self.catalog.data_folder().get(&path) {
                    self.catalog
                        .data_folder()
                        .put_bytes(format!("{to}/{rest}"), bytes);
                }
            }
        }
        let dash = Dashboard {
            name: to.to_string(),
            repo,
            text: source.text.clone(),
            ast,
            endpoint_tables: BTreeMap::new(),
        };
        self.dashboards.write().insert(to.to_string(), dash);
        self.log.record(RunEvent {
            dashboard: to.to_string(),
            kind: RunKind::Fork,
            success: true,
            error: None,
            flow_bytes: source.text.len(),
            operators: vec![],
            widgets: vec![],
            seq: 0,
        });
        Ok(())
    }

    // --- compilation + execution (§4.1) ---------------------------------

    fn dict_loader(&self, dashboard: &str) -> impl Fn(&str) -> Option<String> + '_ {
        let dash = dashboard.to_string();
        move |path: &str| {
            let folder = self.catalog.data_folder();
            folder
                .get(&format!("{dash}/{path}"))
                .or_else(|| folder.get(path))
                .and_then(|b| String::from_utf8(b.to_vec()).ok())
        }
    }

    /// Shared schemas visible to a compiling dashboard.
    fn shared_schemas(&self) -> BTreeMap<String, Schema> {
        self.publish
            .names()
            .into_iter()
            .filter_map(|n| self.publish.get(&n).map(|o| (n, o.schema)))
            .collect()
    }

    /// Compile a dashboard's current flow file.
    pub fn compile_dashboard(&self, name: &str) -> Result<CompiledPipeline> {
        let dash = self.dashboard(name)?;
        let loader = self.dict_loader(name);
        let env = CompileEnv {
            registry: &self.tasks,
            load_text: &loader,
            shared_schemas: self.shared_schemas(),
        };
        let result = compile(&dash.ast, &env).map_err(PlatformError::Compile);
        self.log.record(RunEvent {
            dashboard: name.to_string(),
            kind: RunKind::Compile,
            success: result.is_ok(),
            error: result.as_ref().err().map(|e| e.to_string()),
            flow_bytes: dash.flow_bytes(),
            operators: vec![],
            widgets: vec![],
            seq: 0,
        });
        let mut pipeline = result?;
        // Rewrite source paths into the dashboard's data-folder namespace
        // when a namespaced file exists.
        for cfg in pipeline.sources.values_mut() {
            if let Some(src) = &cfg.source {
                let namespaced = format!("{name}/{src}");
                if self.catalog.data_folder().get(&namespaced).is_some() {
                    cfg.source = Some(namespaced);
                }
            }
        }
        Ok(pipeline)
    }

    /// Compile and run a dashboard's batch flows; publishes shared objects
    /// and stores endpoint tables for consumption.
    pub fn run_dashboard(&self, name: &str) -> Result<RunReport> {
        self.run_dashboard_traced(name, None)
    }

    /// The flow-output memo runs consult (shared by clones; bounded, never
    /// configured).
    pub fn flow_memo(&self) -> &FlowMemo {
        &self.memo
    }

    /// Like [`Platform::run_dashboard`], but additionally hangs child spans
    /// off `parent` — `compile`, `execute`, `publish` and `install` — and,
    /// under `execute`, one grandchild per source load, per flow (with the
    /// memo's verdict on it) and per executed DAG operator (grafted post
    /// hoc from [`shareinsights_engine::exec::ExecStats`], so engine spans
    /// and stats agree by construction). Per-operator latency histograms
    /// fold into [`ApiMetrics`] regardless of whether the run is traced.
    ///
    /// The run consults the platform's flow memo: a flow whose tasks,
    /// inputs and source uploads all match an earlier run's is not
    /// executed. A run whose endpoints and published objects come out as
    /// the very tables already installed leaves the data generation — and
    /// so every cache stamped with it — alone.
    ///
    /// While the dashboard streams, its live sources stand in for its
    /// sources, and the run holds their lock, so it cannot interleave with
    /// a push.
    pub fn run_dashboard_traced(&self, name: &str, parent: Option<&Span>) -> Result<RunReport> {
        let live = self.streams.lock().get(name).cloned();
        match live {
            Some(live) => self.run_over(name, parent, &live.lock()),
            None => self.run_over(name, parent, &LiveSources::new()),
        }
    }

    /// [`Platform::run_dashboard_traced`] over `live`, whose lock the
    /// caller holds.
    fn run_over(&self, name: &str, parent: Option<&Span>, live: &LiveSources) -> Result<RunReport> {
        let compile_span = parent.map(|s| s.child("compile"));
        let pipeline = self.compile_dashboard(name)?;
        if let Some(mut s) = compile_span {
            s.set_attr("flows", pipeline.flows.len());
            s.finish();
        }
        let dash = self.dashboard(name)?;

        // Attach the memo, inject the live sources stamped with their
        // version, and resolve shared inputs stamped with their publish
        // generation.
        let epoch = self.catalog.registrations() + self.tasks.registrations();
        let mut ctx = ExecContext::new(self.catalog.clone()).with_memo(self.memo.clone(), epoch);
        for (source, held) in live {
            if let Some((table, version)) = held {
                ctx = ctx.with_stamped_table(source, table.clone(), Stamp::Live(*version));
            }
        }
        for flow in &pipeline.flows {
            for input in &flow.inputs {
                if !pipeline.sources.contains_key(input)
                    && !pipeline.graph.is_produced(input)
                    && !ctx.tables.contains_key(input)
                {
                    if let Some(shared) = self.publish.resolve(input, name) {
                        if let Some(snapshot) = shared.snapshot {
                            ctx = ctx.with_stamped_table(
                                input,
                                snapshot,
                                Stamp::Published(shared.generation),
                            );
                        }
                    }
                }
            }
        }

        let exec_span = parent.map(|s| s.child("execute"));
        let exec_result = self.executor.execute(&pipeline, &ctx);
        if let Ok(r) = &exec_result {
            for t in &r.stats.task_runs {
                self.api.record_operator(
                    &t.task_type,
                    t.rows_in as u64,
                    t.rows_out as u64,
                    t.elapsed_us,
                );
            }
        }
        if let Some(mut s) = exec_span {
            if let Ok(r) = &exec_result {
                // Engine timings are offsets from run start; rebase them
                // onto this span's start so they nest inside the trace.
                let base = s.start_offset_us();
                for l in &r.stats.source_loads {
                    let mut attrs = vec![("op", "source".into()), ("rows_out", l.rows.into())];
                    // Which path the decode took: an uploaded file is
                    // decoded once per version, a live source every run.
                    attrs.push(match (l.version, l.memo_hit) {
                        (None, _) => ("decode", "live".into()),
                        (Some(_), true) => ("decode", "hit".into()),
                        (Some(_), false) => ("decode", "miss".into()),
                    });
                    if let Some(version) = l.version {
                        attrs.push(("version", version.into()));
                    }
                    s.child_at(&l.source, base + l.start_us, l.elapsed_us, attrs);
                }
                // Which flows ran, and why the others did not.
                for f in &r.stats.flows {
                    let mut attrs = vec![("op", "flow".into()), ("memo", f.memo.as_str().into())];
                    if let MemoVerdict::Uncached(reason) = f.memo {
                        attrs.push(("reason", reason.as_str().into()));
                    }
                    s.child_at(&f.flow, base + f.start_us, f.elapsed_us, attrs);
                }
                for t in &r.stats.task_runs {
                    let mut attrs = vec![
                        ("op", t.task_type.as_str().into()),
                        ("flow", t.flow.as_str().into()),
                        ("rows_in", t.rows_in.into()),
                        ("rows_out", t.rows_out.into()),
                    ];
                    attrs.extend(t.notes.iter().map(|&(name, n)| (name, n.into())));
                    s.child_at(&t.task, base + t.start_us, t.elapsed_us, attrs);
                }
                s.set_attr("source_rows", r.stats.source_rows);
                s.set_attr("tasks", r.stats.task_runs.len());
                s.set_attr("memo_hits", r.stats.memo_hits);
                s.set_attr("memo_misses", r.stats.memo_misses);
                s.set_attr("endpoint_bytes", r.stats.endpoint_bytes);
            }
            s.finish();
        }
        let (operators, widget_types) = usage_of(&dash.ast);
        self.log.record(RunEvent {
            dashboard: name.to_string(),
            kind: RunKind::Run,
            success: exec_result.is_ok(),
            error: exec_result.as_ref().err().map(|e| e.to_string()),
            flow_bytes: dash.flow_bytes(),
            operators,
            widgets: widget_types,
            seq: 0,
        });
        let result = exec_result.map_err(PlatformError::Execute)?;

        // Publish shared objects whose snapshot is not the very table the
        // registry already holds from this dashboard.
        let publish_span = parent.map(|s| s.child("publish"));
        let mut published = Vec::new();
        let mut republished = 0usize;
        for (local, publish_name) in &pipeline.published {
            if let Some(table) = result.table(local) {
                let held = self.publish.get(publish_name).is_some_and(|o| {
                    o.producer == name
                        && o.local_name == *local
                        && o.snapshot.is_some_and(|t| t.shares_columns_with(table))
                });
                if !held {
                    self.publish
                        .publish(
                            publish_name,
                            name,
                            local,
                            table.schema().clone(),
                            Some(table.clone()),
                        )
                        .map_err(PlatformError::Collab)?;
                    republished += 1;
                }
                published.push((publish_name.clone(), table.num_rows()));
            }
        }
        if let Some(mut s) = publish_span {
            s.set_attr("objects", published.len());
            s.set_attr("republished", republished);
            s.finish();
        }

        // Stash endpoint tables on the dashboard for widget consumption,
        // then move the data generation unless nothing served changed.
        let install_span = parent.map(|s| s.child("install"));
        let report = RunReport {
            result,
            published,
            warnings: vec![],
        };
        let endpoint_tables = report.endpoint_tables();
        let unchanged = match self.dashboards.write().get_mut(name) {
            Some(d) => {
                let installed = &d.endpoint_tables;
                let same = republished == 0
                    && installed.len() == endpoint_tables.len()
                    && endpoint_tables.iter().all(|(endpoint, table)| {
                        installed
                            .get(endpoint)
                            .is_some_and(|old| old.shares_columns_with(table))
                    });
                if !same {
                    d.endpoint_tables = endpoint_tables;
                }
                same
            }
            None => false,
        };
        if !unchanged {
            self.bump_data_generation(name);
        }
        if let Some(mut s) = install_span {
            s.set_attr("unchanged", u64::from(unchanged));
            s.set_attr("generation", self.data_generation(name));
            s.finish();
        }
        Ok(report)
    }

    // --- live flows ----------------------------------------------------

    /// Start (or restart) streaming a dashboard: give every source of its
    /// current flow file an empty live copy carrying its compiled schema.
    /// Batch endpoint tables stay visible until the first push's run
    /// replaces them; from then on a batch run reads the live copies too.
    pub fn stream_start(&self, name: &str) -> Result<StreamStartInfo> {
        let pipeline = self.compile_dashboard(name)?;
        let sources: Vec<String> = pipeline
            .graph
            .sources()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let live: LiveSources = sources
            .iter()
            .map(|s| {
                let empty = pipeline
                    .schemas
                    .get(s)
                    .map(|schema| Table::empty(schema.clone()));
                (s.clone(), empty.map(|t| (t, self.next_live_version())))
            })
            .collect();
        self.streams
            .lock()
            .insert(name.to_string(), Arc::new(Mutex::new(live)));
        Ok(StreamStartInfo {
            dashboard: name.to_string(),
            sources,
            endpoints: pipeline.endpoints,
        })
    }

    /// A live-source version no live table on the platform has had.
    fn next_live_version(&self) -> u64 {
        self.live_versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// True when the dashboard is streaming.
    pub fn stream_active(&self, name: &str) -> bool {
        self.streams.lock().contains_key(name)
    }

    /// Stop streaming a dashboard, if it was: its live sources go, and
    /// endpoint tables keep their last streamed snapshot.
    pub fn stream_stop(&self, name: &str) -> bool {
        self.streams.lock().remove(name).is_some()
    }

    /// Push one micro-batch (CSV rows) into a source of a streaming
    /// dashboard: append it to the source's live copy, keep the last
    /// `STREAM_RETAIN_ROWS` rows, and run the dashboard as
    /// [`Platform::run_dashboard_traced`] does, its spans under `parent`.
    /// Every endpoint is then the batch run over the rows its sources
    /// retain; flows that do not read the source are memo hits. The
    /// dashboard's live-source lock is held from the append to the
    /// install, so ticks install in the order they appended.
    ///
    /// When the source declares columns, the body is headerless CSV in
    /// declared-column order; otherwise the first record is the header.
    pub fn stream_push(
        &self,
        name: &str,
        source: &str,
        csv: &str,
        parent: Option<&Span>,
    ) -> Result<StreamPushReport> {
        let columns: Option<Vec<String>> =
            self.dashboard(name)?
                .ast
                .data_object(source)
                .and_then(|obj| {
                    let names = obj.column_names();
                    if names.is_empty() {
                        None
                    } else {
                        Some(names.iter().map(|s| s.to_string()).collect())
                    }
                });
        let opts = match columns {
            Some(cols) => shareinsights_tabular::io::csv::CsvOptions {
                has_header: false,
                column_names: Some(cols),
                ..Default::default()
            },
            None => shareinsights_tabular::io::csv::CsvOptions::default(),
        };
        let batch = shareinsights_tabular::io::csv::read_csv(csv, &opts)
            .map_err(|e| PlatformError::Other(format!("stream batch: {e}")))?;

        let live = self.streams.lock().get(name).cloned().ok_or_else(|| {
            PlatformError::Other(format!(
                "dashboard '{name}' has no active stream (POST /dashboards/{name}/stream/start first)"
            ))
        })?;
        let mut live = live.lock();
        let Some(held) = live.get(source) else {
            return Err(PlatformError::Execute(EngineError::UnresolvedData {
                object: source.to_string(),
                context: "stream push target must be a source data object".into(),
            }));
        };
        let rows_in = batch.num_rows();
        let grown = match held {
            Some((table, _)) if table.num_rows() > 0 => table
                .concat(&batch)
                .map_err(|e| PlatformError::Other(format!("stream append to '{source}': {e}")))?,
            _ => batch,
        };
        let evicted_rows = grown.num_rows().saturating_sub(STREAM_RETAIN_ROWS);
        let retained = grown.slice(evicted_rows, STREAM_RETAIN_ROWS);

        // A tick whose run fails leaves the source as it was.
        let mut next = live.clone();
        next.insert(
            source.to_string(),
            Some((retained, self.next_live_version())),
        );
        let installed = self.dashboard(name)?.endpoint_tables;
        let report = self.run_over(name, parent, &next)?;
        *live = next;
        let updated = report
            .endpoint_tables()
            .into_iter()
            .filter(|(e, t)| {
                !installed
                    .get(e)
                    .is_some_and(|old| old.shares_columns_with(t))
            })
            .map(|(e, t)| (e, t.num_rows()))
            .collect();
        self.api
            .record_stream_tick(rows_in as u64, evicted_rows as u64);
        Ok(StreamPushReport {
            dashboard: name.to_string(),
            source: source.to_string(),
            rows_in,
            evicted_rows,
            generation: self.data_generation(name),
            updated,
        })
    }

    /// Append already-decoded rows onto an endpoint dataset in place: the
    /// streamed-ingest counterpart of a full re-run. The dashboard's data
    /// generation advances so generation-stamped caches invalidate, but
    /// the serving layer can recognise the append and merge its warm
    /// `IndexedTable` instead of rebuilding.
    ///
    /// The stored table grows under the platform-wide write lock through
    /// [`Table::append`](shareinsights_tabular::Table::append): a column
    /// the store alone holds grows its buffers in place, at a cost
    /// amortised O(delta); one a reader still holds (a query's snapshot,
    /// an indexed wrapper) or whose type widens is copied whole, so every
    /// snapshot keeps its rows. [`AppendReport::copied`] says which.
    ///
    /// A dataset that does not exist yet is created from the delta, so
    /// ingest also bootstraps fresh endpoints. Schema mismatches surface
    /// as errors (tabular unifies compatible schemas and rejects the
    /// rest), and a rejected delta leaves the stored table as it was.
    pub fn append_endpoint(
        &self,
        name: &str,
        dataset: &str,
        delta: shareinsights_tabular::Table,
    ) -> Result<AppendReport> {
        let rows_appended = delta.num_rows();
        let (merged, copied) = {
            let mut dashboards = self.dashboards.write();
            let d = dashboards
                .get_mut(name)
                .ok_or_else(|| PlatformError::Other(format!("no dashboard '{name}'")))?;
            match d.endpoint_tables.get_mut(dataset) {
                Some(table) => {
                    let copied = table
                        .append(&delta)
                        .map_err(|e| PlatformError::Other(format!("append to '{dataset}': {e}")))?;
                    (table.clone(), copied.map(|reason| reason.as_str()))
                }
                None => {
                    d.endpoint_tables.insert(dataset.to_string(), delta.clone());
                    (delta, Some("created"))
                }
            }
        };
        let total_rows = merged.num_rows();
        self.bump_data_generation(name);
        Ok(AppendReport {
            dashboard: name.to_string(),
            dataset: dataset.to_string(),
            rows_appended,
            total_rows,
            generation: self.data_generation(name),
            merged,
            copied,
        })
    }

    /// Upload a stylesheet for a dashboard (§4.2 Styling / §4.3.2: the SFTP
    /// interface has "appropriately named folders for task, widgets etc" —
    /// stylesheets land beside the data).
    pub fn upload_stylesheet(&self, dashboard: &str, css: &str) -> Result<()> {
        // Validate at upload time so authors get immediate feedback.
        shareinsights_widgets::Stylesheet::parse(css)
            .map_err(|e| PlatformError::Other(e.to_string()))?;
        self.catalog
            .data_folder()
            .put_text(format!("{dashboard}/__style.css"), css);
        Ok(())
    }

    /// Open and render a dashboard, applying its uploaded stylesheet (when
    /// any) to the render tree.
    pub fn render_dashboard(
        &self,
        name: &str,
        max_items: usize,
    ) -> Result<shareinsights_widgets::RenderNode> {
        let runtime = self.open_dashboard(name)?;
        let mut tree = runtime.render(max_items)?;
        if let Some(css) = self
            .catalog
            .data_folder()
            .get(&format!("{name}/__style.css"))
            .and_then(|b| String::from_utf8(b.to_vec()).ok())
        {
            let sheet = shareinsights_widgets::Stylesheet::parse(&css)
                .map_err(|e| PlatformError::Other(e.to_string()))?;
            shareinsights_widgets::apply_styles(&mut tree, &sheet);
        }
        Ok(tree)
    }

    /// Run a dashboard and open its auto-constructed data-quality
    /// meta-dashboard (§6 future work): per-column statistics over every
    /// table the pipeline materialised, served as a real dashboard named
    /// `<name>__meta`.
    pub fn open_meta_dashboard(
        &self,
        name: &str,
    ) -> Result<(crate::meta::MetaDashboard, DashboardRuntime)> {
        let run = self.run_dashboard(name)?;
        let meta = crate::meta::build_meta_dashboard(&run);
        let meta_name = format!("{name}__meta");
        // (Re)save the generated flow file; re-saving an existing meta
        // dashboard just commits a new version.
        self.save_flow_as(&meta_name, &meta.flow_text, "platform")?;
        let mut endpoints = BTreeMap::new();
        endpoints.insert("column_profiles".to_string(), meta.profile.clone());
        if let Some(d) = self.dashboards.write().get_mut(&meta_name) {
            d.endpoint_tables = endpoints.clone();
        }
        let dash = self.dashboard(&meta_name)?;
        let runtime = DashboardRuntime::build(&dash.ast, &endpoints, &self.tasks, &self.widgets)?;
        Ok((meta, runtime))
    }

    /// Enrichment suggestions (§6 dataset discovery) for a data object of a
    /// dashboard: published shared objects joinable with its schema.
    pub fn suggest_enrichments(
        &self,
        dashboard: &str,
        object: &str,
    ) -> Result<Vec<crate::discovery::Enrichment>> {
        let dash = self.dashboard(dashboard)?;
        // Prefer the materialised schema (post-run types); fall back to the
        // declared column list.
        let schema = dash
            .endpoint_tables
            .get(object)
            .map(|t| t.schema().clone())
            .or_else(|| {
                dash.ast
                    .data_object(object)
                    .and_then(crate::platform::declared_schema_of)
            })
            .ok_or_else(|| {
                PlatformError::Other(format!(
                    "no data object 'D.{object}' on dashboard '{dashboard}' (run it first?)"
                ))
            })?;
        Ok(crate::discovery::suggest_enrichments(
            &schema,
            &self.publish,
            Some(dashboard),
        ))
    }

    /// Diagnose a platform error against a dashboard's current flow file
    /// (§6 error pin-pointing).
    pub fn diagnose(&self, dashboard: &str, error: &PlatformError) -> crate::doctor::Diagnosis {
        let ff = self.dashboard(dashboard).map(|d| d.ast).unwrap_or_default();
        crate::doctor::explain(error, &ff)
    }

    /// Open a dashboard interactively: build its widget runtime over local
    /// endpoint tables plus shared objects resolved by name (§3.7.2).
    pub fn open_dashboard(&self, name: &str) -> Result<DashboardRuntime> {
        let dash = self.dashboard(name)?;
        let mut endpoints = dash.endpoint_tables.clone();
        // Also make every run-produced table available: widgets may read
        // intermediate objects within the same dashboard.
        for (obj, t) in &dash.endpoint_tables {
            endpoints.entry(obj.clone()).or_insert_with(|| t.clone());
        }
        // Resolve widget sources against the shared registry.
        for w in &dash.ast.widgets {
            if let Some(shareinsights_flowfile::ast::WidgetSource::Flow { input, .. }) = &w.source {
                if !endpoints.contains_key(input) {
                    if let Some(shared) = self.publish.resolve(input, name) {
                        if let Some(snapshot) = shared.snapshot {
                            endpoints.insert(input.clone(), snapshot);
                        }
                    }
                }
            }
        }
        let runtime = DashboardRuntime::build(&dash.ast, &endpoints, &self.tasks, &self.widgets);
        let (operators, widget_types) = usage_of(&dash.ast);
        self.log.record(RunEvent {
            dashboard: name.to_string(),
            kind: RunKind::Open,
            success: runtime.is_ok(),
            error: runtime.as_ref().err().map(|e| e.to_string()),
            flow_bytes: dash.flow_bytes(),
            operators,
            widgets: widget_types,
            seq: 0,
        });
        Ok(runtime?)
    }
}

/// What a freshly started stream accepts and produces.
#[derive(Debug, Clone)]
pub struct StreamStartInfo {
    /// Dashboard the stream is attached to.
    pub dashboard: String,
    /// Source data objects accepting pushed micro-batches.
    pub sources: Vec<String>,
    /// Endpoint objects whose snapshots advance per tick.
    pub endpoints: Vec<String>,
}

/// Outcome of one streamed append onto an endpoint dataset.
#[derive(Debug, Clone)]
pub struct AppendReport {
    /// Dashboard the rows went to.
    pub dashboard: String,
    /// Endpoint dataset appended to.
    pub dataset: String,
    /// Rows in the delta.
    pub rows_appended: usize,
    /// Rows in the dataset after the append.
    pub total_rows: usize,
    /// The dashboard's endpoint-data generation after the append.
    pub generation: u64,
    /// The post-append endpoint table (column buffers shared with the
    /// stored copy): lets index maintenance reuse the rows this append
    /// already laid out instead of concatenating again.
    pub merged: shareinsights_tabular::Table,
    /// `None` when every column grew in place; otherwise why the stored
    /// table was copied: `shared` (a reader held a column), `widened` (a
    /// column's type changed) or `created` (the delta became the table).
    pub copied: Option<&'static str>,
}

/// Outcome of one pushed micro-batch.
#[derive(Debug, Clone)]
pub struct StreamPushReport {
    /// Dashboard the batch went to.
    pub dashboard: String,
    /// Source the batch was pushed into.
    pub source: String,
    /// Rows ingested.
    pub rows_in: usize,
    /// Rows the source's retention dropped to take the batch.
    pub evicted_rows: usize,
    /// The dashboard's endpoint-data generation after the tick.
    pub generation: u64,
    /// Endpoints the tick changed, with their new row counts.
    pub updated: Vec<(String, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROCESSING: &str = r#"
D:
  tweets: [date, player]
D.tweets:
  source: 'tweets.csv'
  format: csv
T:
  players_count:
    type: groupby
    groupby: [date, player]
F:
  D.players_tweets: D.tweets | T.players_count
  D.players_tweets:
    endpoint: true
    publish: players_tweets
"#;

    const CONSUMPTION: &str = r#"
W:
  cloud:
    type: WordCloud
    source: D.players_tweets | T.agg
    text: player
    size: total
T:
  agg:
    type: groupby
    groupby: [player]
    aggregates:
    - operator: sum
      apply_on: count
      out_field: total
"#;

    fn seeded() -> Platform {
        let p = Platform::new();
        p.upload_data(
            "ipl_processing",
            "tweets.csv",
            "date,player\nd1,dhoni\nd1,dhoni\nd1,kohli\nd2,dhoni\n",
        );
        p
    }

    #[test]
    fn full_processing_then_consumption_cycle() {
        // §3.7's two-dashboard data-sharing pattern, end to end.
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        let run = platform.run_dashboard("ipl_processing").unwrap();
        assert_eq!(run.published, vec![("players_tweets".to_string(), 3)]);

        platform.save_flow("ipl_dashboard", CONSUMPTION).unwrap();
        let dash = platform.open_dashboard("ipl_dashboard").unwrap();
        let node = dash.render_widget("cloud", 10).unwrap();
        assert_eq!(node.lines[0], "dhoni (3)");

        // The group formed (§4.5.3).
        assert_eq!(
            platform.publish_registry().group_of("players_tweets"),
            vec!["ipl_processing", "ipl_dashboard"]
        );
    }

    #[test]
    fn save_rejects_invalid_and_logs() {
        let platform = Platform::new();
        let err = platform
            .save_flow("bad", "F:\n  D.x: D.ghost | T.missing\n")
            .unwrap_err();
        assert!(err.to_string().contains("unknown task"));
        let events = platform.log().events();
        assert_eq!(events.len(), 1);
        assert!(!events[0].success);
        assert!(events[0].error.as_ref().unwrap().contains("T.missing"));
    }

    #[test]
    fn fork_copies_text_history_and_data() {
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        platform
            .fork_dashboard("ipl_processing", "team_7", "team7")
            .unwrap();
        let forked = platform.dashboard("team_7").unwrap();
        assert_eq!(forked.text, PROCESSING);
        assert!(forked.repo.forked_from().is_some());
        // The data folder namespace was copied, so the fork runs as-is.
        let run = platform.run_dashboard("team_7").unwrap();
        assert!(run.result.table("players_tweets").is_some());
        // Telemetry recorded the fork with the starting size.
        assert_eq!(platform.log().count("team_7", RunKind::Fork), 1);
        assert_eq!(
            platform.log().starting_sizes().get("team_7"),
            Some(&PROCESSING.len())
        );
    }

    #[test]
    fn duplicate_dashboard_rejected() {
        let platform = Platform::new();
        platform.create_dashboard("a").unwrap();
        assert!(platform.create_dashboard("a").is_err());
        assert!(platform.dashboard("ghost").is_err());
    }

    #[test]
    fn custom_task_extension_runs_in_flow() {
        // §5.2.2 obs. 2: a custom task looks identical in the flow file.
        use shareinsights_engine::ext::FnTask;
        let platform = Platform::new();
        platform.tasks().register_task(Arc::new(FnTask::new(
            "predict_resolution",
            |s: &shareinsights_tabular::Schema| {
                s.with_field(shareinsights_tabular::Field::new(
                    "predicted_days",
                    shareinsights_tabular::DataType::Int64,
                ))
                .map_err(|e| shareinsights_engine::EngineError::Internal(e.to_string()))
            },
            |t: &shareinsights_tabular::Table| {
                let col = t
                    .column("description")
                    .map_err(|e| shareinsights_engine::ext::exec_err("predict_resolution", e))?;
                let vals: Vec<shareinsights_tabular::Value> = (0..t.num_rows())
                    .map(|i| {
                        let d = col.str_at(i).unwrap_or("");
                        let days = if d.contains("backup") { 7 } else { 2 };
                        shareinsights_tabular::Value::Int(days)
                    })
                    .collect();
                t.with_column(
                    "predicted_days",
                    shareinsights_tabular::Column::from_values(&vals),
                )
                .map_err(|e| shareinsights_engine::ext::exec_err("predict_resolution", e))
            },
        )));
        platform.upload_data(
            "tickets",
            "tickets.csv",
            "id,description\n1,backup failed\n2,login broken\n",
        );
        let src = r#"
D:
  tickets: [id, description]
D.tickets:
  source: 'tickets.csv'
  format: csv
T:
  predictor:
    type: predict_resolution
F:
  +D.predictions: D.tickets | T.predictor
"#;
        platform.save_flow("tickets", src).unwrap();
        let run = platform.run_dashboard("tickets").unwrap();
        let out = run.result.table("predictions").unwrap();
        assert_eq!(out.value(0, "predicted_days").unwrap().as_int(), Some(7));
        assert_eq!(out.value(1, "predicted_days").unwrap().as_int(), Some(2));
    }

    #[test]
    fn stylesheet_applies_to_render_tree() {
        // §4.2 Styling: widget names as CSS targets.
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        platform.run_dashboard("ipl_processing").unwrap();
        platform.save_flow("ipl_dashboard", CONSUMPTION).unwrap();
        platform
            .upload_stylesheet(
                "ipl_dashboard",
                "cloud { color: gold; }\n.WordCloud { max-words: 30; }",
            )
            .unwrap();
        let tree = platform.render_dashboard("ipl_dashboard", 5).unwrap();
        let cloud = &tree.children[0];
        assert_eq!(cloud.name, "cloud");
        assert!(cloud.lines[0].contains("color=gold"), "{:?}", cloud.lines);
        assert!(cloud.lines[0].contains("max-words=30"));
        // Invalid CSS rejected at upload.
        assert!(platform.upload_stylesheet("ipl_dashboard", "x {").is_err());
    }

    #[test]
    fn default_selection_preselects_figure12_style() {
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        platform.run_dashboard("ipl_processing").unwrap();
        let src = r#"
W:
  picker:
    type: List
    source: D.players_tweets | T.names
    text: player
    default_selection: true
    default_selection_key: text
    default_selection_value: 'dhoni'
  detail:
    type: DataGrid
    source: D.players_tweets | T.filter_players
T:
  names:
    type: distinct
    columns: [player]
  filter_players:
    type: filter_by
    filter_by: [player]
    filter_source: W.picker
    filter_val: [text]
"#;
        platform.save_flow("viewer", src).unwrap();
        let dash = platform.open_dashboard("viewer").unwrap();
        // Without any user click, the detail grid is already filtered.
        let data = dash.data_of("detail").unwrap();
        assert!(data.num_rows() > 0);
        for i in 0..data.num_rows() {
            assert_eq!(data.value(i, "player").unwrap().to_string(), "dhoni");
        }
    }

    #[test]
    fn traced_run_grafts_operator_spans_and_folds_histograms() {
        use crate::trace::AttrValue;
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        let root = platform
            .tracer()
            .start_trace("POST /dashboards/:name/run", None)
            .unwrap();
        platform
            .run_dashboard_traced("ipl_processing", Some(&root))
            .unwrap();
        root.finish();

        let trace = platform.tracer().recent(1).remove(0);
        let root_span = trace.root().expect("root span recorded");
        let kids = trace.children_of(root_span.id);
        let names: Vec<&str> = kids.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"compile"), "{names:?}");
        assert!(names.contains(&"execute"), "{names:?}");
        let exec = kids.iter().find(|s| s.name == "execute").unwrap();
        assert_eq!(exec.attr("source_rows"), Some(&AttrValue::Int(4)));
        let ops = trace.children_of(exec.id);
        let group = ops
            .iter()
            .find(|s| s.attr("op") == Some(&AttrValue::Str("groupby".into())))
            .expect("groupby operator span");
        assert_eq!(group.name, "players_count");
        assert_eq!(group.attr("rows_in"), Some(&AttrValue::Int(4)));
        assert_eq!(group.attr("rows_out"), Some(&AttrValue::Int(3)));
        assert!(
            ops.iter()
                .any(|s| s.attr("op") == Some(&AttrValue::Str("source".into()))),
            "source load span present"
        );

        // Histograms fold in what ran, traced or not: an identical re-run
        // is a memo hit and runs no operator; a re-upload runs it again.
        let again = platform.run_dashboard("ipl_processing").unwrap();
        let stats = &again.result.stats;
        assert_eq!((stats.memo_hits, stats.task_runs.len()), (1, 0));
        assert_eq!(platform.api_metrics().operators()["groupby"].runs, 1);
        let tweets = platform
            .catalog()
            .data_folder()
            .get("ipl_processing/tweets.csv");
        platform.upload_bytes("ipl_processing", "tweets.csv", tweets.unwrap().to_vec());
        platform.run_dashboard("ipl_processing").unwrap();
        let operators = platform.api_metrics().operators();
        let g = &operators["groupby"];
        assert_eq!(g.runs, 2);
        assert_eq!(g.rows_in, 8);
        assert_eq!(g.rows_out, 6);
        assert_eq!(g.latency.count, 2);

        // Which path fired: the group count, and the first decode of the
        // uploaded file (a later traced run finds the table in the memo).
        assert_eq!(group.attr("groups"), Some(&AttrValue::Int(3)));
        let decode_of = |trace: &crate::trace::TraceRecord| {
            let source = trace
                .spans
                .iter()
                .find(|s| s.attr("op") == Some(&AttrValue::Str("source".into())))
                .expect("source load span");
            assert!(source.attr("version").is_some());
            source.attr("decode").cloned()
        };
        assert_eq!(decode_of(&trace), Some(AttrValue::Str("miss".into())));
        let root = platform.tracer().start_trace("again", None).unwrap();
        platform
            .run_dashboard_traced("ipl_processing", Some(&root))
            .unwrap();
        root.finish();
        let trace = platform.tracer().recent(1).remove(0);
        assert_eq!(decode_of(&trace), Some(AttrValue::Str("hit".into())));
    }

    #[test]
    fn stream_push_advances_endpoints_and_generation() {
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        platform.run_dashboard("ipl_processing").unwrap();
        let gen0 = platform.data_generation("ipl_processing");

        // Pushing without a stream is rejected.
        let err = platform
            .stream_push("ipl_processing", "tweets", "d9,dhoni\n", None)
            .unwrap_err();
        assert!(err.to_string().contains("no active stream"), "{err}");

        let info = platform.stream_start("ipl_processing").unwrap();
        assert_eq!(info.sources, vec!["tweets"]);
        assert_eq!(info.endpoints, vec!["players_tweets"]);
        assert!(platform.stream_active("ipl_processing"));

        // Declared columns [date, player] → headerless CSV bodies.
        let push = platform
            .stream_push(
                "ipl_processing",
                "tweets",
                "d9,dhoni\nd9,dhoni\nd9,kohli\n",
                None,
            )
            .unwrap();
        assert_eq!(push.rows_in, 3);
        assert_eq!(push.generation, gen0 + 1);
        assert_eq!(push.updated, vec![("players_tweets".to_string(), 2)]);

        let push2 = platform
            .stream_push("ipl_processing", "tweets", "d9,dhoni\n", None)
            .unwrap();
        assert_eq!(push2.generation, gen0 + 2);
        // COW snapshot swap: the endpoint table advanced in place.
        let dash = platform.dashboard("ipl_processing").unwrap();
        let t = dash.endpoint_tables.get("players_tweets").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, "count").unwrap().as_int(), Some(3));

        // Telemetry accumulated per tick.
        let s = platform.api_metrics().stream();
        assert_eq!(s.ticks, 2);
        assert_eq!(s.rows_in, 4);

        assert!(platform.stream_stop("ipl_processing"));
        assert!(!platform.stream_active("ipl_processing"));
    }

    /// The batch run over `tweets`, for the endpoint `players_tweets`.
    fn players_over(platform: &Platform, tweets: Table) -> Table {
        let pipeline = platform.compile_dashboard("ipl_processing").unwrap();
        let ctx = ExecContext::new(Catalog::new()).with_table("tweets", tweets);
        let batch = Executor::sequential().execute(&pipeline, &ctx).unwrap();
        batch.table("players_tweets").unwrap().clone()
    }

    #[test]
    fn a_join_waits_for_its_other_side_and_only_sources_take_pushes() {
        const SHOP: &str = r#"
D:
  orders: [sku, qty]
  products: [sku, label]
T:
  enrich:
    type: join
    left: orders by sku
    right: products by sku
    join_condition: inner
F:
  +D.labeled: (D.orders, D.products) | T.enrich
"#;
        let platform = Platform::new();
        platform.save_flow("shop", SHOP).unwrap();
        platform.stream_start("shop").unwrap();
        let push = |source: &str, csv: &str| platform.stream_push("shop", source, csv, None);
        let labeled = |rows: usize| vec![("labeled".to_string(), rows)];
        // The unpushed side is empty, carrying its declared columns.
        assert_eq!(push("orders", "a,1\n").unwrap().updated, labeled(0));
        push("products", "a,Alpha\nb,Beta\n").unwrap();
        assert_eq!(push("orders", "b,2\n").unwrap().updated, labeled(2));

        for target in ["ghost", "labeled"] {
            let err = push(target, "a,1\n").unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "execution error: data object 'D.{target}' used by stream push target \
                     must be a source data object has no source, no producing flow, and no \
                     shared match"
                )
            );
        }
        assert_eq!(
            platform.api_metrics().stream().ticks,
            3,
            "rejections tick nothing"
        );
    }

    #[test]
    fn retention_drops_the_oldest_rows_and_counts_them() {
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        platform.stream_start("ipl_processing").unwrap();
        let csv = |rows: std::ops::Range<usize>| -> String {
            rows.map(|i| format!("d{},p{}\n", i % 3, i % 11)).collect()
        };
        let first = platform
            .stream_push(
                "ipl_processing",
                "tweets",
                &csv(0..STREAM_RETAIN_ROWS),
                None,
            )
            .unwrap();
        assert_eq!(first.evicted_rows, 0);
        let edge = STREAM_RETAIN_ROWS + 3;
        let second = platform
            .stream_push(
                "ipl_processing",
                "tweets",
                &csv(STREAM_RETAIN_ROWS..edge),
                None,
            )
            .unwrap();
        assert_eq!(second.evicted_rows, 3);
        assert_eq!(platform.api_metrics().stream().evicted_rows, 3);

        // The endpoint is the batch run over the rows retained: the last
        // `STREAM_RETAIN_ROWS` pushed.
        let opts = shareinsights_tabular::io::csv::CsvOptions {
            has_header: false,
            column_names: Some(vec!["date".into(), "player".into()]),
            ..Default::default()
        };
        let kept = shareinsights_tabular::io::csv::read_csv(&csv(3..edge), &opts).unwrap();
        let installed = platform
            .dashboard("ipl_processing")
            .unwrap()
            .endpoint_tables;
        assert_eq!(installed["players_tweets"], players_over(&platform, kept));
    }

    #[test]
    fn racing_pushes_install_in_the_order_they_appended() {
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        platform.stream_start("ipl_processing").unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (platform, start) = (&platform, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut last = 0;
                    for i in 0..100 {
                        let csv = format!("d{t},p{}\n", i % 7);
                        let push = platform.stream_push("ipl_processing", "tweets", &csv, None);
                        let generation = push.unwrap().generation;
                        assert!(generation > last, "thread {t}: {generation} after {last}");
                        last = generation;
                    }
                });
            }
        });
        // A batch run reads the live source: its result holds the rows
        // retained, and the endpoints the last tick installed are the
        // batch run over them.
        let installed = platform
            .dashboard("ipl_processing")
            .unwrap()
            .endpoint_tables;
        let run = platform.run_dashboard("ipl_processing").unwrap();
        let retained = run.result.table("tweets").unwrap().clone();
        assert_eq!(retained.num_rows(), 400);
        assert_eq!(
            installed["players_tweets"],
            players_over(&platform, retained)
        );
    }

    #[test]
    fn usage_telemetry_accumulates() {
        let platform = seeded();
        platform.save_flow("ipl_processing", PROCESSING).unwrap();
        platform.run_dashboard("ipl_processing").unwrap();
        platform.run_dashboard("ipl_processing").unwrap();
        let usage = platform.log().usage();
        assert_eq!(usage.operators.get("groupby"), Some(&2));
        assert_eq!(platform.log().count("ipl_processing", RunKind::Run), 2);
    }

    #[test]
    fn append_endpoint_grows_the_sole_copy_and_spares_a_held_snapshot() {
        use shareinsights_tabular::{Column, DataType, Schema, Table};
        let p = Platform::new();
        p.create_dashboard("d").unwrap();
        let batch = |v: i64| {
            Table::new(
                Schema::of(&[("k", DataType::Utf8), ("v", DataType::Int64)]),
                vec![Column::utf8([format!("k{v}")]), Column::int([v])],
            )
            .unwrap()
        };
        let first = p.append_endpoint("d", "e", batch(1)).unwrap();
        assert_eq!(first.copied, Some("created"));
        drop(first);
        let second = p.append_endpoint("d", "e", batch(2)).unwrap();
        assert_eq!((second.copied, second.total_rows), (None, 2));
        // The report's table shares the stored columns, so the next
        // append copies them, and the report keeps its two rows.
        let third = p.append_endpoint("d", "e", batch(3)).unwrap();
        assert_eq!(third.copied, Some("shared"));
        assert_eq!(second.merged.num_rows(), 2);
        assert_eq!(third.merged.num_rows(), 3);
        drop((second, third));
        let generation = p.data_generation("d");
        let rejected = Table::new(
            Schema::of(&[("other", DataType::Utf8), ("v", DataType::Int64)]),
            vec![Column::utf8(["x"]), Column::int([4])],
        )
        .unwrap();
        assert!(p.append_endpoint("d", "e", rejected).is_err());
        assert_eq!(p.data_generation("d"), generation);
        let fourth = p.append_endpoint("d", "e", batch(4)).unwrap();
        assert_eq!((fourth.copied, fourth.total_rows), (None, 4));
        let stored = &p.dashboard("d").unwrap().endpoint_tables["e"];
        assert_eq!(stored.value(3, "k").unwrap().to_string(), "k4");
    }
}
