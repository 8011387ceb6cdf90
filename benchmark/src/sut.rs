//! The system under test, behind one adapter: every call into a
//! `shareinsights*` crate — starting the service, set-up, each timed public
//! function, the scan-path oracle — goes through this file, so an API
//! rename upstream is re-pointed here and nowhere else.

use crate::gen::{Facts, Op};
use shareinsights::core::Platform;
use shareinsights::engine::sql::{lower, parse_select};
use shareinsights::engine::{ExecContext, Executor};
use shareinsights::server::query::{parse_ops, run_query, run_query_indexed, QueryOp};
use shareinsights::server::sql::lower_plan;
use shareinsights::server::wire::{try_parse, Parsed};
use shareinsights::server::{
    serve, table_to_json, Method, Request, ResponseStream, ServeMode, ServeOptions, Server,
    ServiceHandle, WireLimits,
};
use shareinsights::tabular::io::csv::{read_csv, write_csv, CsvOptions};
use shareinsights::tabular::io::JsonValue;
use shareinsights::tabular::{Bitmap, Column, DataType, Field, IndexedTable, Schema, Value};
use std::net::SocketAddr;

pub type Table = shareinsights::tabular::Table;
pub type Indexed = IndexedTable;
pub type QueryOps = Vec<QueryOp>;
pub type Response = shareinsights::server::Response;
pub type InRequest = Request;
pub type FlowFile = shareinsights::flowfile::FlowFile;
pub type Pipeline = shareinsights::engine::CompiledPipeline;
pub type Runtime = shareinsights::widgets::DashboardRuntime;

/// Which serving core answers the TCP side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Reactor,
    Threads,
}

fn serve_options(mode: Mode) -> ServeOptions {
    ServeOptions {
        serve_mode: match mode {
            Mode::Reactor => ServeMode::Reactor,
            Mode::Threads => ServeMode::ThreadPerConnection,
        },
        ..ServeOptions::default()
    }
}

/// The `ServeOptions` every end-to-end number is measured under: the
/// program's defaults with the reactor selected.
pub fn describe_options() -> String {
    let o = serve_options(Mode::Reactor);
    format!(
        "serve_mode={:?} workers={} queue_depth={} deadline={:?} io_timeout={:?} idle_timeout={:?} \
         max_requests_per_connection={} chunk_budget={:?} scrape_interval={:?} shards={}",
        o.serve_mode,
        o.workers,
        o.queue_depth,
        o.deadline,
        o.io_timeout,
        o.idle_timeout,
        o.max_requests_per_connection,
        o.chunk_budget,
        o.scrape_interval,
        o.shards
    )
}

/// Counters read before and after a phase; ratios are computed on deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub page_hits: u64,
    pub page_misses: u64,
    pub page_evictions: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub index_covered: u64,
    pub index_fallback: u64,
    pub cold_rebuilds: u64,
    pub shard_scatters: u64,
    pub shard_fallbacks: u64,
}

impl Counters {
    /// The counts accumulated since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            page_hits: self.page_hits - before.page_hits,
            page_misses: self.page_misses - before.page_misses,
            page_evictions: self.page_evictions - before.page_evictions,
            result_hits: self.result_hits - before.result_hits,
            result_misses: self.result_misses - before.result_misses,
            index_covered: self.index_covered - before.index_covered,
            index_fallback: self.index_fallback - before.index_fallback,
            cold_rebuilds: self.cold_rebuilds - before.cold_rebuilds,
            shard_scatters: self.shard_scatters - before.shard_scatters,
            shard_fallbacks: self.shard_fallbacks - before.shard_fallbacks,
        }
    }

    fn share(part: u64, rest: u64) -> f64 {
        if part + rest == 0 {
            0.0
        } else {
            part as f64 / (part + rest) as f64
        }
    }

    pub fn page_hit_ratio(&self) -> f64 {
        Counters::share(self.page_hits, self.page_misses)
    }

    pub fn result_hit_ratio(&self) -> f64 {
        Counters::share(self.result_hits, self.result_misses)
    }

    pub fn index_hit_ratio(&self) -> f64 {
        Counters::share(self.index_covered, self.index_fallback)
    }

    pub fn shard_fallback_ratio(&self) -> f64 {
        Counters::share(self.shard_fallbacks, self.shard_scatters)
    }
}

/// Per-operator figures of one pipeline run, from the program's own
/// `RunReport`.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// `(task type, elapsed µs, rows in, rows out)` per executed task.
    pub tasks: Vec<(String, u64, usize, usize)>,
    pub endpoints: Vec<(String, Table)>,
}

/// A running service plus an in-process handle on the same state.
pub struct Sut {
    server: Server,
    handle: ServiceHandle,
}

impl Sut {
    /// Start the service on an ephemeral loopback port.
    pub fn start(mode: Mode) -> std::io::Result<Sut> {
        let server = Server::new(Platform::new());
        let handle = serve(server.clone(), "127.0.0.1:0", serve_options(mode))?;
        Ok(Sut { server, handle })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Stop the service and join its threads.
    pub fn shutdown(mut self) {
        self.handle.shutdown();
    }

    fn platform(&self) -> &Platform {
        self.server.platform()
    }

    // --- set-up -----------------------------------------------------------

    pub fn create_dashboard(&self, name: &str) {
        self.platform()
            .create_dashboard(name)
            .expect("fresh dashboard");
    }

    /// Publish `table` as the shared endpoint `dataset` of `dashboard`.
    pub fn publish(&self, dashboard: &str, dataset: &str, table: &Table) {
        publish_on(self.platform(), dashboard, dataset, table);
    }

    /// Put a source file into a dashboard's data folder.
    pub fn upload_source(&self, dashboard: &str, path: &str, text: &str) {
        self.platform().upload_data(dashboard, path, text);
    }

    pub fn endpoint(&self, dashboard: &str, dataset: &str) -> Option<Table> {
        let dash = self.platform().dashboard(dashboard).ok()?;
        dash.endpoint_tables.get(dataset).cloned()
    }

    pub fn counters(&self) -> Counters {
        let page = self.server.cache().stats();
        let result = self.server.result_cache().stats();
        let metrics = self.platform().api_metrics();
        let (index, ingest, shard) = (metrics.index(), metrics.ingest(), metrics.shard());
        Counters {
            page_hits: page.hits,
            page_misses: page.misses,
            page_evictions: page.evictions + result.evictions,
            result_hits: result.hits,
            result_misses: result.misses,
            index_covered: index.covered,
            index_fallback: index.fallback,
            cold_rebuilds: ingest.cold_rebuilds,
            shard_scatters: shard.scatters,
            shard_fallbacks: shard.fallbacks,
        }
    }

    // --- timed public functions --------------------------------------------

    /// `Server::handle` on the service's own state.
    pub fn handle(&self, request: &InRequest) -> Response {
        self.server.handle(request)
    }

    /// A second, width-2 sharded server over its own platform holding the
    /// same published table (attaching shards re-partitions the platform,
    /// so the service's own state is left alone).
    pub fn sharded_twin(dashboard: &str, dataset: &str, table: &Table) -> Sharded {
        let platform = Platform::new();
        platform
            .create_dashboard(dashboard)
            .expect("fresh dashboard");
        publish_on(&platform, dashboard, dataset, table);
        Sharded(Server::new(platform).with_shards(2))
    }

    /// `Platform::compile_dashboard`.
    pub fn compile(&self, dashboard: &str) -> Pipeline {
        self.platform()
            .compile_dashboard(dashboard)
            .expect("compile")
    }

    /// `Catalog::load` of every source the pipeline reads (the connector
    /// layer's CSV decode); returns the rows decoded.
    pub fn load_sources(&self, pipeline: &Pipeline) -> usize {
        pipeline
            .sources
            .values()
            .map(|cfg| {
                self.platform()
                    .catalog()
                    .load(cfg)
                    .expect("load")
                    .num_rows()
            })
            .sum()
    }

    /// `Executor::execute` on a compiled pipeline, default or sequential.
    pub fn execute(&self, pipeline: &Pipeline, sequential: bool) -> Vec<(String, Table)> {
        let executor = if sequential {
            Executor::sequential()
        } else {
            self.platform().executor.clone()
        };
        let ctx = ExecContext::new(self.platform().catalog().clone());
        let result = executor.execute(pipeline, &ctx).expect("execute");
        result
            .endpoints
            .iter()
            .filter_map(|e| result.table(e).map(|t| (e.clone(), t.clone())))
            .collect()
    }

    /// `Platform::run_dashboard`.
    pub fn run_dashboard(&self, dashboard: &str) -> RunStats {
        let report = self.platform().run_dashboard(dashboard).expect("run");
        RunStats {
            tasks: report
                .result
                .stats
                .task_runs
                .iter()
                .map(|t| (t.task_type.clone(), t.elapsed_us, t.rows_in, t.rows_out))
                .collect(),
            endpoints: report.endpoint_tables().into_iter().collect(),
        }
    }

    /// `Platform::open_dashboard`: the interactive widget runtime.
    pub fn open_dashboard(&self, dashboard: &str) -> Runtime {
        self.platform().open_dashboard(dashboard).expect("open")
    }
}

fn publish_on(platform: &Platform, dashboard: &str, dataset: &str, table: &Table) {
    platform
        .publish_registry()
        .publish(
            dataset,
            dashboard,
            dataset,
            table.schema().clone(),
            Some(table.clone()),
        )
        .expect("publish");
}

/// A bare platform holding one endpoint: what `Platform::append_endpoint`
/// is timed on, beside the service rather than through it, so the
/// service's warm index is never raced.
pub struct Store(Platform);

impl Store {
    pub fn with_endpoint(dashboard: &str, dataset: &str, table: Table) -> Store {
        let platform = Platform::new();
        platform
            .create_dashboard(dashboard)
            .expect("fresh dashboard");
        platform
            .append_endpoint(dashboard, dataset, table)
            .expect("first append creates the endpoint");
        Store(platform)
    }

    /// `Platform::append_endpoint`; returns the merged endpoint table.
    pub fn append_endpoint(&self, dashboard: &str, dataset: &str, delta: Table) -> Table {
        self.0
            .append_endpoint(dashboard, dataset, delta)
            .expect("append_endpoint")
            .merged
    }
}

/// A sharded in-process server (see [`Sut::sharded_twin`]).
pub struct Sharded(Server);

impl Sharded {
    pub fn handle(&self, request: &InRequest) -> Response {
        self.0.handle(request)
    }

    pub fn counters(&self) -> Counters {
        let s = self.0.platform().api_metrics().shard();
        Counters {
            shard_scatters: s.scatters,
            shard_fallbacks: s.fallbacks,
            ..Counters::default()
        }
    }
}

// --- data ------------------------------------------------------------------

/// The typed fact table: `key` and `region` Utf8, `qty` Int64, `price`
/// Float64 and, when `with_day`, `day` as a Date column.
pub fn fact_table(f: &Facts, with_day: bool) -> Table {
    let mut fields = vec![
        Field::new("key", DataType::Utf8),
        Field::new("region", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ];
    let mut columns = vec![
        Column::utf8(f.key.iter().cloned()),
        Column::utf8(f.region.iter().cloned()),
        Column::int(f.qty.iter().copied()),
        Column::float(f.price.iter().copied()),
    ];
    if with_day {
        fields.push(Field::new("day", DataType::Date));
        columns.push(Column::Date {
            data: f.day.clone(),
            validity: Bitmap::new_set(f.len()),
        });
    }
    Table::new(Schema::new(fields).expect("schema"), columns).expect("fact table")
}

/// The retail corpus of the program's own generator as two CSV sources:
/// `(sales.csv, products.csv)`.
pub fn retail_sources(seed: u64, transactions: usize) -> (String, String) {
    use shareinsights::datagen::retail;
    let corpus = retail::generate(&retail::RetailConfig {
        seed,
        transactions,
        ..Default::default()
    });
    (
        write_csv(&corpus.sales, ','),
        write_csv(&corpus.products, ','),
    )
}

pub fn rows(table: &Table) -> usize {
    table.num_rows()
}

// --- JSON --------------------------------------------------------------------

/// A parsed JSON document — span trees from `/trace/<id>`, ingest
/// acknowledgements, this benchmark's own result lines — read with the
/// program's reader.
pub type Json = JsonValue;

pub fn parse_json(text: &str) -> Option<Json> {
    shareinsights::tabular::io::parse_json(text).ok()
}

pub fn json_num(value: &Json) -> Option<f64> {
    match value {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

// --- serving layers ----------------------------------------------------------

/// `wire::try_parse` on one request's exact bytes.
pub fn wire_parse(bytes: &[u8]) -> InRequest {
    match try_parse(bytes, &WireLimits::default()) {
        Parsed::Complete(parsed) => parsed.request,
        other => panic!("benchmark request did not parse: {other:?}"),
    }
}

/// The in-process request an [`Op`] stands for.
pub fn request_of(op: &Op) -> InRequest {
    let method = Method::parse(op.method).expect("method");
    Request::new(method, &op.target).with_body(op.body.clone())
}

pub fn status_of(response: &Response) -> u16 {
    response.status.code()
}

/// `ResponseStream::new` + `next_wire` to completion; returns wire bytes.
pub fn wire_frame(response: Response) -> usize {
    let mut stream = ResponseStream::new(response, None, serve_options(Mode::Reactor).chunk_budget);
    let (mut out, mut total) = (Vec::new(), 0);
    while stream.next_wire(&mut out) {
        total += out.len();
    }
    total
}

// --- query layers ------------------------------------------------------------

/// The op segments after `/<dashboard>/ds/<dataset>` and the paging terms.
fn split_target(target: &str) -> (Vec<&str>, Option<usize>, usize) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).skip(3).collect();
    let term = |name: &str| {
        query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| v.parse::<usize>().ok())
    };
    (segments, term("limit"), term("offset").unwrap_or(0))
}

/// `query::parse_ops` on a path-grammar op.
pub fn path_ops(op: &Op) -> Result<QueryOps, String> {
    parse_ops(&split_target(&op.target).0)
}

/// `parse_select` + `lower` + `sql::lower_plan` on a SQL op's statement.
pub fn sql_ops(statement: &str) -> Result<QueryOps, String> {
    let stmt = parse_select(statement).map_err(|e| e.message)?;
    let plan = lower(statement, &stmt).map_err(|e| e.message)?;
    let mut no_joins = |name: &str| Err(format!("unexpected join on '{name}'"));
    Ok(lower_plan(&plan, &mut no_joins)?.ops)
}

/// The query ops of either spelling.
pub fn ops_of(op: &Op) -> Result<QueryOps, String> {
    if op.method == "POST" {
        sql_ops(&op.body)
    } else {
        path_ops(op)
    }
}

/// Cold `IndexedTable::new` plus the first touch of every column.
pub fn index_build(table: &Table) -> Indexed {
    let indexed = IndexedTable::new(table.clone());
    for name in table.schema().names() {
        std::hint::black_box(indexed.index(name));
    }
    indexed
}

/// `query::run_query_indexed`; the flag says whether an index served it.
pub fn run_indexed(indexed: &Indexed, ops: &QueryOps) -> (Table, bool) {
    run_query_indexed(indexed, ops).expect("indexed query")
}

/// `query::run_query`, the scan path.
pub fn run_scan(table: &Table, ops: &QueryOps) -> Table {
    run_query(table, ops).expect("scan query")
}

/// `table_to_json`.
pub fn to_json(table: &Table) -> String {
    table_to_json(table)
}

/// The reference body of a query op: the scan path over `table`, paged as
/// the request asks, rendered by `table_to_json`.
pub fn oracle_body(table: &Table, op: &Op) -> Result<String, String> {
    let result = run_query(table, &ops_of(op)?)?;
    let (_, limit, offset) = split_target(&op.target);
    Ok(table_to_json(
        &result.slice(offset, limit.unwrap_or(result.num_rows())),
    ))
}

/// The first `limit` rows of an endpoint table, rendered as served.
pub fn page_json(table: &Table, limit: usize) -> String {
    table_to_json(&table.slice(0, limit))
}

// --- ingest layers -----------------------------------------------------------

/// `tabular::io::csv::read_csv` with the ingest route's options.
pub fn decode_csv(text: &str) -> Table {
    read_csv(text, &CsvOptions::default()).expect("csv")
}

/// `Table::concat`.
pub fn concat(base: &Table, delta: &Table) -> Table {
    base.concat(delta).expect("concat")
}

/// `IndexedTable::append_merged` over the already-concatenated table.
pub fn append_merged(warm: &Indexed, merged: Table) -> Indexed {
    warm.append_merged(merged).expect("append_merged")
}

// --- pipeline layers -----------------------------------------------------------

/// `parse_flow_file`.
pub fn parse_flow(name: &str, text: &str) -> FlowFile {
    shareinsights::flowfile::parse_flow_file(name, text).expect("flow parses")
}

/// `validate`; returns the number of diagnostics.
pub fn validate_flow(flow: &FlowFile) -> usize {
    shareinsights::flowfile::validate(flow).len()
}

/// `DashboardRuntime::select` then `data_of`; returns the rows shown.
pub fn select_and_read(
    runtime: &Runtime,
    selector: &str,
    column: &str,
    value: &str,
    reader: &str,
) -> usize {
    runtime
        .select(selector, column, vec![Value::Str(value.to_string())])
        .expect("select");
    runtime.data_of(reader).expect("data_of").num_rows()
}
