//! The route table over a [`Platform`].

use crate::cache::{QueryCache, ResultCache};
use crate::http::{Method, Request, Response, Status};
use crate::json::{string_list, table_to_json};
use crate::metrics::{allowed_methods, prometheus_text, route_label, stats_json, ROUTE_PANIC};
use crate::query::{evaluate_indexed, fuse, parse_ops, QueryOp};
use crate::sql::{lower_plan, parse_error_response, LoweredSql};
use crate::stream::{StreamHub, Subscription};
use crate::traces::{trace_json, trace_list_json};
use crate::wire::sse_frame;
use parking_lot::{Lru, Mutex};
use shareinsights_core::telemetry::{Field, Kind};
use shareinsights_core::trace::{Span, TraceId};
use shareinsights_core::{EventLog, Family, Platform};
use shareinsights_tabular::{partition, BuiltIndexes, IndexedTable, PostingsGrowth, Table};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The reserved virtual dashboard: a read-only namespace the router
/// resolves from built-in stores instead of saved flows. No user
/// dashboard may be created, saved, or forked under this name.
pub const SYSTEM_DASHBOARD: &str = "_system";

/// The built-in telemetry time-series dataset under
/// [`SYSTEM_DASHBOARD`]: the history ring the scraper tick fills.
pub const TELEMETRY_DATASET: &str = "telemetry";

/// Rejects writes that would shadow the built-in [`SYSTEM_DASHBOARD`]
/// namespace: returns the 409 to send when `name` is reserved.
pub(crate) fn reserved_namespace(name: &str) -> Option<Response> {
    if name == SYSTEM_DASHBOARD {
        Some(Response::error(
            Status::Conflict,
            format!("'{SYSTEM_DASHBOARD}' is a reserved read-only namespace"),
        ))
    } else {
        None
    }
}

/// Outcome of [`Server::handle_traced`]: the response plus the request's
/// trace id (when the request was sampled) and handling latency — what the
/// serving loop needs for slow-request logging.
#[derive(Debug)]
pub struct Handled {
    /// The response to write.
    pub response: Response,
    /// Trace id of the request's root span, if one was recorded.
    pub trace_id: Option<TraceId>,
    /// Handling latency in microseconds.
    pub elapsed_us: u64,
    /// Set when the request subscribed to a live flow: instead of
    /// writing `response` and moving on, the serving loop must switch
    /// the connection into streaming mode and deliver this
    /// subscription's frames until it ends.
    pub stream: Option<Arc<Subscription>>,
}

/// How far [`Server::handle_reach`] may go to answer a request, and so
/// where it is served (the root span's `served_on`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    /// Answer anything: evaluate, run, ingest, subscribe (`in_process`:
    /// a direct [`Server::handle`] call).
    Any,
    /// Answer anything, on the reactor thread that parsed the request,
    /// the poll left for a follower to take meanwhile (`handoff`).
    Handoff,
    /// Answer anything, on the reactor thread that took the request off
    /// the pending queue (`queue`).
    Queue,
    /// Answer a page-cache hit and nothing else, on the reactor's
    /// polling thread (`loop`). Every step before the page-cache lookup
    /// leaves no trace, so a request that is not a hit answers `None`
    /// having changed nothing: no cache counter or recency, no route
    /// metric, no trace, no sampler tick.
    HitOnly,
}

impl Reach {
    fn served_on(self) -> &'static str {
        match self {
            Reach::Any => "in_process",
            Reach::Handoff => "handoff",
            Reach::Queue => "queue",
            Reach::HitOnly => "loop",
        }
    }
}

/// One endpoint's indexed snapshot, stamped with the data generation it
/// covers. The slot's lock is the endpoint's append lock as well: an
/// ingest commit holds it from before the table swap until the merged
/// index is installed and the delta frame sent, so a reader that wants
/// the index either finds the merged wrapper or waits for it, and never
/// builds a cold one beside an in-flight merge; a subscriber takes it too.
type IndexSlot = Arc<Mutex<Option<(u64, Arc<IndexedTable>)>>>;

#[cfg(test)]
thread_local! {
    /// While set, a commit on this thread panics once it has taken the
    /// warm index out of its slot: how the tests fail a commit.
    pub(crate) static COMMIT_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Index slots keyed `dashboard/dataset`.
type IndexRegistry = HashMap<String, IndexSlot>;

/// A warm index an ingest commit took out of its slot.
enum Carried {
    /// No reader held the wrapper: its table handle is gone, so the
    /// append may own the columns, and the indexes grow in place.
    Owned(BuiltIndexes),
    /// A reader holds the wrapper: it keeps its snapshot, and the append
    /// merges into copies.
    Shared(Arc<IndexedTable>),
}

/// The in-process REST server wrapping a platform instance.
///
/// Cloning is cheap and shares the platform state and the query cache, so
/// a worker pool can hold one clone per thread.
#[derive(Clone)]
pub struct Server {
    platform: Platform,
    cache: Arc<QueryCache>,
    results: Arc<ResultCache>,
    /// Lazily indexed endpoint snapshots — a run, publish or stream push
    /// that moves an endpoint's generation releases its stale wrapper at
    /// once, and the next query builds a fresh one.
    indexes: Arc<Mutex<IndexRegistry>>,
    /// Live-flow subscriber registry: stream pushes publish generation
    /// delta frames here, subscribe requests register here.
    hub: Arc<StreamHub>,
    /// Prepared-statement cache: SQL text → (`FROM` table, lowered plan),
    /// so hot statements skip the parse + lower frontend entirely while
    /// the route-matches-FROM check still runs on hits. Join-free plans
    /// only — joins embed resolved table snapshots at lower time.
    /// Unstamped (a statement's plan does not depend on the data);
    /// evictions surface as `sql.prepared_evictions`.
    prepared: Arc<Mutex<PreparedStatements>>,
    /// Per endpoint (dashboard → dataset), the highest generation a page
    /// was filled at: the hit-only probe's first test
    /// ([`Server::may_hit`]).
    filled: Arc<Mutex<HashMap<String, HashMap<String, u64>>>>,
    /// Structured sink for data-plane incidents the hot path would
    /// otherwise swallow (warm-index drops on appends). Defaults to
    /// standard error; [`Server::with_event_log`] redirects it.
    event_log: EventLog,
}

type PreparedStatements = Lru<String, (String, Arc<LoweredSql>)>;

/// Prepared-statement cache entry bound.
const PREPARED_CACHE_CAP: usize = 256;

/// Prepared-statement cache byte budget over [`prepared_cost`] — the
/// second bound that keeps a few huge generated statements from pinning
/// the whole cap.
const PREPARED_CACHE_BYTES: usize = 1 << 20;

/// Approximate heap cost of one prepared entry: the statement text, the
/// canonical cache path, and a flat per-op charge for the lowered plan.
fn prepared_cost(src: &str, lowered: &LoweredSql) -> usize {
    src.len() + lowered.cache_path.len() + lowered.ops.len() * 128 + 64
}

impl Server {
    /// Wrap a platform.
    pub fn new(platform: Platform) -> Server {
        Server {
            platform,
            cache: Arc::new(QueryCache::default()),
            results: Arc::new(ResultCache::default()),
            indexes: Arc::new(Mutex::new(HashMap::new())),
            hub: Arc::new(StreamHub::new()),
            prepared: Arc::new(Mutex::new(Lru::weighted(
                PREPARED_CACHE_CAP,
                PREPARED_CACHE_BYTES,
                |src, (_, lowered)| prepared_cost(src, lowered),
            ))),
            filled: Arc::default(),
            event_log: EventLog::stderr(),
        }
    }

    /// Inert: returns `self` unchanged for any `shards`. Kept only so the
    /// benchmark crate compiles until its next revision drops the call.
    pub fn with_shards(self, _shards: usize) -> Server {
        self
    }

    /// Route data-plane events (`ingest_cold_rebuild`, …) to `log`
    /// instead of standard error.
    pub fn with_event_log(mut self, log: EventLog) -> Server {
        self.event_log = log;
        self
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The query-result cache (serialized page bodies).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The unpaged query-result cache pages are sliced from.
    pub fn result_cache(&self) -> &ResultCache {
        &self.results
    }

    /// The live-flow subscriber hub (serve layers register notifiers and
    /// drain subscriptions through it).
    pub fn stream_hub(&self) -> &Arc<StreamHub> {
        &self.hub
    }

    /// One snapshot of every metric family — the platform registry plus
    /// the server-side caches. `/stats`, `/metrics` and the `_system`
    /// scrape all render this.
    pub(crate) fn metric_families(&self) -> Vec<Family> {
        let mut families = self
            .platform
            .api_metrics()
            .families(self.index_resident_bytes());
        families.push(crate::cache::family(
            "cache",
            "shareinsights_query_cache",
            self.cache.stats(),
        ));
        families.push(crate::cache::family(
            "result_cache",
            "shareinsights_result_cache",
            self.results.stats(),
        ));
        let pool = parking_lot::Pool::global().stats();
        families.push(Family::scalars(
            "pool",
            "shareinsights_pool",
            vec![
                Field::new(Kind::Counter, "jobs", "jobs_total", pool.jobs),
                Field::new(Kind::Counter, "morsels", "morsels_total", pool.morsels),
                Field::new(Kind::Counter, "helped", "helped_total", pool.helped),
                Field::new(Kind::Counter, "single", "single_total", pool.single),
            ],
        ));
        let pipelines = self.platform.flow_memo().pipeline_stats();
        families.push(Family::scalars(
            "pipeline_memo",
            "shareinsights_pipeline_memo",
            vec![
                Field::new(Kind::Gauge, "entries", "entries", pipelines.entries as u64),
                Field::new(Kind::Counter, "hits", "hits_total", pipelines.hits),
                Field::new(Kind::Counter, "misses", "misses_total", pipelines.misses),
                Field::new(
                    Kind::Counter,
                    "evictions",
                    "evictions_total",
                    pipelines.evictions,
                ),
            ],
        ));
        families
    }

    /// Heap bytes held by the indexes of every installed endpoint snapshot.
    fn index_resident_bytes(&self) -> u64 {
        // Slots are locked one at a time, after the registry's lock is
        // released; a slot held by an append in flight is waited for.
        let slots: Vec<IndexSlot> = self.indexes.lock().values().cloned().collect();
        slots
            .iter()
            .filter_map(|slot| Some(slot.lock().as_ref()?.1.index_bytes() as u64))
            .sum()
    }

    /// Drop every derived cache tier — page cache, result cache and
    /// indexed snapshots — without touching endpoint data. Bench harnesses
    /// call this to force cold evaluations without restarting the server.
    pub fn clear_derived_caches(&self) {
        self.cache.clear();
        self.results.clear();
        // Slots are emptied, not removed: an in-flight append keeps
        // installing into the slot readers will look in.
        for slot in self.indexes.lock().values() {
            *slot.lock() = None;
        }
    }

    /// Release every warm index of `dataset` that a re-run, publish or
    /// stream push has left behind its live generation, under whichever
    /// dashboard read it (a published object is read through its
    /// consumers). Reads never serve a stale wrapper, but until the next
    /// read it would keep the whole replaced table alive beside the new
    /// one. Each wrapper is dropped after its slot's lock is released.
    fn release_stale_indexes(&self, dataset: &str) {
        let suffix = format!("/{dataset}");
        let slots: Vec<(String, IndexSlot)> = self
            .indexes
            .lock()
            .iter()
            .filter(|(key, _)| key.ends_with(&suffix))
            .map(|(key, slot)| (key.clone(), Arc::clone(slot)))
            .collect();
        for (key, slot) in slots {
            let generation = self.live_generation(&key[..key.len() - suffix.len()], dataset);
            let stale = slot.lock().take_if(|(stamp, _)| *stamp != generation);
            drop(stale);
        }
    }

    /// Dispatch a request, recording per-route metrics. A subscribe
    /// request handled this way (no serving loop to stream frames into)
    /// is registered and immediately unsubscribed.
    pub fn handle(&self, request: &Request) -> Response {
        let handled = self.handle_traced(request);
        if let Some(sub) = handled.stream {
            sub.close();
            self.hub.unsubscribe(&sub);
            self.platform.api_metrics().record_stream_unsubscribe();
        }
        handled.response
    }

    /// Run `work` — a request that entered a worker thread — and answer a
    /// panic inside it with a 500 instead of unwinding the thread: the
    /// panic is metered under the `(panic)` pseudo-route and logged as an
    /// `error` event with the request's route (asked for only then) and
    /// the panic message, and the thread serves on.
    pub(crate) fn contain_panic<T>(
        &self,
        route: impl FnOnce() -> &'static str,
        work: impl FnOnce() -> T,
    ) -> Result<T, Response> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            self.platform.api_metrics().record(ROUTE_PANIC, false, 0);
            self.event_log.emit(
                "error",
                &[("route", route().into()), ("message", message.into())],
            );
            Response::error(Status::InternalServerError, "the request handler panicked")
        })
    }

    /// Dispatch a request with per-route metrics *and* tracing: a root
    /// span wraps router dispatch (with cache-lookup / query-eval /
    /// operator children hung off it), honoring a client-supplied
    /// `X-Trace-Id` header. Observability routes (`/stats`, `/metrics`,
    /// `/trace/*`) are never traced — scraping must not pollute the ring.
    pub fn handle_traced(&self, request: &Request) -> Handled {
        self.handle_reach(request, Reach::Any)
            .expect("Reach::Any answers every request")
    }

    /// [`Server::handle_traced`] within `reach`; the root's `served_on`
    /// attribute says where (see [`Reach`]). Under [`Reach::HitOnly`] a
    /// read that cannot be a hit ([`Server::may_hit`]) answers `None`
    /// before anything is built, and otherwise the root span is
    /// provisional until the page cache answers.
    pub(crate) fn handle_reach(&self, request: &Request, reach: Reach) -> Option<Handled> {
        let started = Instant::now();
        let label = {
            let segments = request.segments();
            if reach == Reach::HitOnly && !self.may_hit(&segments) {
                return None;
            }
            route_label(request.method, &segments)
        };
        let observability = matches!(
            label,
            "GET /stats" | "GET /metrics" | "GET /trace/recent" | "GET /trace/:id"
        );
        let root = if observability {
            None
        } else {
            let explicit = request.header("x-trace-id").and_then(TraceId::parse);
            let tracer = self.platform.tracer();
            match reach {
                Reach::HitOnly => tracer.start_provisional(label, explicit),
                _ => tracer.start_trace(label, explicit),
            }
        };
        let mut stream = None;
        let response = match &root {
            Some(r) => {
                let dispatch_span = r.child("dispatch");
                let response = self.dispatch(request, reach, Some(&dispatch_span), &mut stream);
                dispatch_span.finish();
                response
            }
            None => self.dispatch(request, reach, None, &mut stream),
        };
        let Some(response) = response else {
            if let Some(r) = root {
                r.abandon();
            }
            return None;
        };
        let elapsed_us = started.elapsed().as_micros() as u64;
        let root = root.and_then(Span::admit);
        let trace_id = root.as_ref().map(Span::trace_id);
        if let Some(mut r) = root {
            r.set_attr("path", request.path.as_str());
            r.set_attr("status", i64::from(response.status.code()));
            r.set_attr("served_on", reach.served_on());
            r.finish();
        }
        self.platform
            .api_metrics()
            .record(label, response.is_ok(), elapsed_us);
        Some(Handled {
            response,
            trace_id,
            elapsed_us,
            stream,
        })
    }

    /// The route table. Under [`Reach::HitOnly`] only the two ad-hoc query
    /// routes are tried, and each answers `None` (not a page-cache hit) at
    /// its first step that would do real work; every other route is `None`
    /// at once.
    fn dispatch(
        &self,
        request: &Request,
        reach: Reach,
        span: Option<&Span>,
        stream: &mut Option<Arc<Subscription>>,
    ) -> Option<Response> {
        let segments = request.segments();
        let response = match (request.method, segments.as_slice()) {
            // Every route above the query routes lives under `dashboards`
            // but the subscribe, which stops itself. `_system`'s ring
            // generation sits behind a lock a snapshot rebuild holds: the
            // loop never waits on it.
            (_, ["dashboards" | SYSTEM_DASHBOARD, ..]) if reach == Reach::HitOnly => return None,
            (Method::Get, ["dashboards"]) => {
                Response::json(string_list(&self.platform.dashboard_names()))
            }
            (Method::Post, ["dashboards", name, "create"]) => {
                if let Some(resp) = reserved_namespace(name) {
                    return Some(resp);
                }
                match self.platform.create_dashboard(name) {
                    Ok(()) => Response {
                        status: Status::Created,
                        body: format!("{{\"dashboard\": {}}}", crate::json::quote(name)),
                        content_type: "application/json",
                    },
                    Err(e) => Response::error(Status::Conflict, e.to_string()),
                }
            }
            (Method::Put, ["dashboards", name, "flow"]) => {
                if let Some(resp) = reserved_namespace(name) {
                    return Some(resp);
                }
                match self
                    .platform
                    .save_flow_traced(name, &request.body, "analyst", span)
                {
                    Ok(warnings) => {
                        let w: Vec<String> = warnings.iter().map(|d| d.to_string()).collect();
                        Response::json(format!(
                            "{{\"saved\": true, \"warnings\": {}}}",
                            string_list(&w)
                        ))
                    }
                    Err(e) => Response::error(Status::Unprocessable, e.to_string()),
                }
            }
            (Method::Get, ["dashboards", name, "flow"]) => match self.platform.dashboard(name) {
                Ok(d) => Response::text(&*d.text),
                Err(e) => Response::error(Status::NotFound, e.to_string()),
            },
            (Method::Post, ["dashboards", name, "run"]) => {
                match self.platform.run_dashboard_traced(name, span) {
                    Ok(report) => {
                        let endpoints: Vec<String> = report.result.endpoints.to_vec();
                        for e in &endpoints {
                            self.release_stale_indexes(e);
                        }
                        for (obj, _) in &report.published {
                            self.release_stale_indexes(obj);
                        }
                        Response::json(format!(
                            "{{\"endpoints\": {}, \"published\": {}, \"source_rows\": {}}}",
                            string_list(&endpoints),
                            string_list(
                                &report
                                    .published
                                    .iter()
                                    .map(|(n, r)| format!("{n}:{r}"))
                                    .collect::<Vec<_>>()
                            ),
                            report.result.stats.source_rows
                        ))
                    }
                    Err(e) => Response::error(Status::Unprocessable, e.to_string()),
                }
            }
            (Method::Post, ["dashboards", from, "fork", to]) => {
                if let Some(resp) = reserved_namespace(to) {
                    return Some(resp);
                }
                match self.platform.fork_dashboard(from, to, "api") {
                    Ok(()) => Response {
                        status: Status::Created,
                        body: format!("{{\"forked\": {}}}", crate::json::quote(to)),
                        content_type: "application/json",
                    },
                    Err(e) => Response::error(Status::Conflict, e.to_string()),
                }
            }
            (Method::Get, ["dashboards", name, "explore"]) => self.explore(name),
            (Method::Get, ["dashboards", name, "meta"]) => self.meta(name),
            (Method::Get, ["dashboards", name, "suggest", object]) => self.suggest(name, object),
            (Method::Get, ["dashboards", name, "log"]) => self.commit_log(name),
            // Continuous execution: start/stop a stream context, push
            // micro-batches into it.
            (Method::Post, ["dashboards", name, "stream", "start"]) => self.stream_start(name),
            (Method::Post, ["dashboards", name, "stream", "stop"]) => {
                let stopped = self.platform.stream_stop(name);
                Response::json(format!("{{\"stopped\": {stopped}}}"))
            }
            (Method::Post, ["dashboards", name, "stream", "push", source]) => {
                self.stream_push(name, source, &request.body, span)
            }
            // Bulk append: whole-body fallback for in-process callers;
            // the serve loops stream bodies into the same session
            // incrementally (see `crate::ingest`).
            (Method::Post, ["dashboards", name, "ds", dataset, "ingest"]) => {
                match crate::ingest::IngestSession::start(
                    self,
                    name,
                    dataset,
                    request.query.get("format").map(String::as_str),
                ) {
                    Ok(mut session) => {
                        session.push(request.body.as_bytes());
                        session.finish(span)
                    }
                    Err(resp) => resp,
                }
            }
            // Data API: /<dashboard>/ds[...]
            (Method::Get, [dashboard, "ds", dataset, "subscribe"]) => {
                if reach == Reach::HitOnly {
                    return None;
                }
                self.subscribe(dashboard, dataset, stream)
            }
            (Method::Post, [dashboard, "ds", dataset, "sql"]) => {
                return self.sql_query(request, dashboard, dataset, reach, span)
            }
            (Method::Get, [dashboard, "ds", rest @ ..]) if !rest.is_empty() => {
                return self.dataset(request, dashboard, rest[0], &rest[1..], reach, span)
            }
            _ if reach == Reach::HitOnly => return None,
            (Method::Get, ["stats"]) => Response::json(stats_json(&self.metric_families())),
            (Method::Get, ["metrics"]) => Response {
                status: Status::Ok,
                body: prometheus_text(&self.metric_families()),
                content_type: "text/plain; version=0.0.4",
            },
            (Method::Get, ["trace", "recent"]) => {
                let limit = request.query_usize("limit").unwrap_or(20);
                Response::json(trace_list_json(&self.platform.tracer().recent(limit)))
            }
            (Method::Get, ["trace", id]) => match TraceId::parse(id) {
                Some(tid) => match self.platform.tracer().find(tid) {
                    Some(trace) => Response::json(trace_json(&trace)),
                    None => Response::error(
                        Status::NotFound,
                        format!("no completed trace '{tid}' (evicted or never sampled?)"),
                    ),
                },
                None => Response::error(
                    Status::BadRequest,
                    format!("'{id}' is not a trace id (expected 1-16 hex digits)"),
                ),
            },
            (Method::Get, [dashboard, "ds"]) => self.list_endpoints(dashboard),
            _ => {
                let allowed = allowed_methods(&segments);
                if allowed.is_empty() || allowed.contains(&request.method) {
                    Response::error(
                        Status::NotFound,
                        format!("no route for {} {}", request.method, request.path),
                    )
                } else {
                    let allow: Vec<String> = allowed.iter().map(|m| m.to_string()).collect();
                    Response {
                        status: Status::MethodNotAllowed,
                        body: format!(
                            "{{\"error\": {}, \"allow\": {}}}",
                            crate::json::quote(&format!(
                                "{} not allowed for {}",
                                request.method, request.path
                            )),
                            crate::json::quote(&allow.join(", "))
                        ),
                        content_type: "application/json",
                    }
                }
            }
        };
        Some(response)
    }

    fn endpoint_table(&self, dashboard: &str, dataset: &str) -> Result<Table, Response> {
        // The `_system` dashboard is virtual: its datasets come from the
        // platform's telemetry history ring, not from any saved flow.
        // Intercepting here (plus in `live_generation`/`list_endpoints`)
        // is what lets the whole query stack — path grammar, SQL,
        // paging, caches, indexes, SSE — serve it unchanged.
        if dashboard == SYSTEM_DASHBOARD {
            return if dataset == TELEMETRY_DATASET {
                Ok(self.platform.telemetry_history().snapshot_table())
            } else {
                Err(Response::error(
                    Status::NotFound,
                    format!(
                        "no built-in dataset '{dataset}' under '{SYSTEM_DASHBOARD}' \
                         (only '{TELEMETRY_DATASET}')"
                    ),
                ))
            };
        }
        let table = self
            .platform
            .endpoint_table(dashboard, dataset)
            .map_err(|e| Response::error(Status::NotFound, e.to_string()))?;
        match table {
            Some(t) => Ok(t),
            None => {
                // Shared objects are also browsable by name.
                match self
                    .platform
                    .publish_registry()
                    .get(dataset)
                    .and_then(|o| o.snapshot)
                {
                    Some(t) => Ok(t),
                    None => Err(Response::error(
                        Status::NotFound,
                        format!("no endpoint data '{dataset}' on dashboard '{dashboard}' (run it first?)"),
                    )),
                }
            }
        }
    }

    /// The generation-stamp formula shared with the query caches:
    /// dashboard runs and stream ticks bump the platform side,
    /// publishes bump the registry side.
    fn live_generation(&self, dashboard: &str, dataset: &str) -> u64 {
        // `_system` data advances exactly once per scrape tick, so the
        // ring generation alone stamps its cache entries and SSE frames.
        if dashboard == SYSTEM_DASHBOARD {
            return self.platform.telemetry_history().generation();
        }
        self.platform.data_generation(dashboard)
            + self.platform.publish_registry().generation(dataset)
    }

    /// The hit-only probe's first test: only a query of an endpoint that
    /// had a page filled at its current generation can be a page-cache
    /// hit. The first page read after a run, publish or push moved the
    /// generation fails here, before a span, an op parse, a key or a
    /// cache lock is built. `_system` fails at once: its generation sits
    /// behind the telemetry ring's lock. A joined statement's page
    /// stamps above its endpoint's own generation; that only lets more
    /// probes through to the full test, and the route table still
    /// decides what may be answered.
    fn may_hit(&self, segments: &[&str]) -> bool {
        let [dashboard, "ds", dataset, ..] = segments else {
            return false;
        };
        if *dashboard == SYSTEM_DASHBOARD {
            return false;
        }
        let filled = (self.filled.lock())
            .get(*dashboard)
            .and_then(|datasets| datasets.get(*dataset))
            .copied();
        filled.is_some_and(|g| g >= self.live_generation(dashboard, dataset))
    }

    /// Record that a page of `dashboard/dataset` was filled at `generation`.
    fn stamp_filled(&self, dashboard: &str, dataset: &str, generation: u64) {
        let mut filled = self.filled.lock();
        let stamp = filled
            .entry(dashboard.to_string())
            .or_default()
            .entry(dataset.to_string())
            .or_default();
        *stamp = (*stamp).max(generation);
    }

    /// One telemetry scrape tick: sample every metric family (the same
    /// snapshot `/stats` and `/metrics` render) into the history ring,
    /// record the scrape's own cost as `selfscrape` meta-telemetry, and
    /// fan the delta out to `_system/telemetry` SSE subscribers. The
    /// serving layer calls this on its scraper tick
    /// ([`crate::serve::ServeOptions::scrape_interval`]); tests and
    /// embedders may call it directly.
    pub fn scrape_telemetry(&self) -> shareinsights_core::ScrapeOutcome {
        let started = Instant::now();
        let ts_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as i64)
            .unwrap_or(0);
        let metrics = self.platform.api_metrics();
        let outcome = self
            .platform
            .telemetry_history()
            .scrape(&self.metric_families(), ts_us);
        metrics.record_selfscrape(
            outcome.samples as u64,
            outcome.evicted as u64,
            outcome.retained as u64,
            started.elapsed().as_micros() as u64,
        );
        // Subscribers get just this tick's rows: a live widget appends
        // them, sparing the queues the full (budget-sized) snapshot.
        self.fan_out(
            SYSTEM_DASHBOARD,
            TELEMETRY_DATASET,
            outcome.generation,
            &outcome.delta,
        );
        outcome
    }

    /// Send `rows` as one frame at `generation` to every subscriber of
    /// `dashboard/dataset`, and count the frames and bytes that went out.
    /// Nothing is serialised when nobody listens: the scraper ticks
    /// forever, and a push or an append may update a large endpoint.
    /// Returns the frames delivered.
    fn fan_out(&self, dashboard: &str, dataset: &str, generation: u64, rows: &Table) -> u64 {
        if !self.hub.has_subscribers(dashboard, dataset) {
            return 0;
        }
        let frame: Arc<[u8]> = sse_frame(dataset, generation, &table_to_json(rows)).into();
        let delivered = self.hub.publish(dashboard, dataset, &frame).delivered;
        (self.platform.api_metrics())
            .record_stream_frames(delivered as u64, (delivered * frame.len()) as u64);
        delivered as u64
    }

    /// `POST /dashboards/:name/stream/start`: give the dashboard's sources
    /// live copies that pushes append to.
    fn stream_start(&self, name: &str) -> Response {
        match self.platform.stream_start(name) {
            Ok(info) => Response::json(format!(
                "{{\"dashboard\": {}, \"sources\": {}, \"endpoints\": {}}}",
                crate::json::quote(&info.dashboard),
                string_list(&info.sources),
                string_list(&info.endpoints),
            )),
            Err(e) => Response::error(Status::Unprocessable, e.to_string()),
        }
    }

    /// `POST /dashboards/:name/stream/push/:source`: one CSV micro-batch
    /// in, one run of the dashboard (its spans under `stream_push`), and
    /// the endpoints it changed out. Each updated endpoint is framed
    /// exactly once at the post-tick generation and the same bytes are
    /// fanned out to every subscriber — which is what makes the two serve
    /// modes byte-identical.
    fn stream_push(&self, name: &str, source: &str, csv: &str, span: Option<&Span>) -> Response {
        let mut tick_span = span.map(|s| s.child("stream_push"));
        let report = match self
            .platform
            .stream_push(name, source, csv, tick_span.as_ref())
        {
            Ok(r) => r,
            Err(e) => {
                if let Some(mut s) = tick_span.take() {
                    s.set_attr("error", true);
                    s.finish();
                }
                return Response::error(Status::Unprocessable, e.to_string());
            }
        };
        if let Some(s) = tick_span.as_mut() {
            s.set_attr("source", source);
            s.set_attr("rows_in", report.rows_in);
            s.set_attr("evicted_rows", report.evicted_rows);
            s.set_attr("generation", report.generation);
        }
        let mut frames = 0u64;
        for (dataset, _) in &report.updated {
            self.release_stale_indexes(dataset);
            let Ok(table) = self.endpoint_table(name, dataset) else {
                continue;
            };
            let generation = self.live_generation(name, dataset);
            frames += self.fan_out(name, dataset, generation, &table);
        }
        if let Some(mut s) = tick_span.take() {
            s.set_attr("frames", frames);
            s.finish();
        }
        let updated: Vec<String> = report
            .updated
            .iter()
            .map(|(n, r)| format!("{n}:{r}"))
            .collect();
        Response::json(format!(
            "{{\"source\": {}, \"rows_in\": {}, \"evicted_rows\": {}, \
             \"generation\": {}, \"updated\": {}}}",
            crate::json::quote(source),
            report.rows_in,
            report.evicted_rows,
            report.generation,
            string_list(&updated),
        ))
    }

    /// Commit one finished ingest: reassemble the decoded segment tables
    /// into the append delta, append it to the endpoint, bump the
    /// generation, and merge the warm [`IndexedTable`] instead of dropping
    /// it. Called by [`crate::ingest::IngestSession::finish`], on the
    /// thread that finished the request, after every segment decoded
    /// cleanly — a failed ingest never reaches this point, so the endpoint
    /// is all-or-nothing. `commit_span` is the caller's `ingest_commit`
    /// span.
    ///
    /// Under the slot lock the warm wrapper is taken out of its slot, and
    /// when no reader holds it, its table handle is dropped before the
    /// platform append: the platform's map is then the columns' only
    /// holder, so they grow in place, and the indexes grow in place after
    /// it ([`BuiltIndexes::append`]). A reader that still holds the
    /// wrapper or the table makes the append copy instead, and its
    /// snapshot keeps answering over the rows it had. The span's `table`
    /// attribute says `grown` or `copied`, and `reason` why; for the
    /// index, `index_merge_us`, `postings_grown`, `postings_rebuilt` and
    /// the `rebuild_reason` (`densified`, `thinned` or `shared`).
    pub(crate) fn commit_ingest(
        &self,
        dashboard: &str,
        dataset: &str,
        tables: &[Table],
        segments: u64,
        bytes_in: u64,
        mut commit_span: Option<Span>,
    ) -> Response {
        let metrics = self.platform.api_metrics().clone();
        let fail = |mut sp: Option<Span>, status: Status, msg: String| {
            metrics.record_ingest_abort();
            if let Some(s) = sp.as_mut() {
                s.set_attr("error", true);
            }
            if let Some(s) = sp.take() {
                s.finish();
            }
            Response::error(status, msg)
        };
        let delta = match Table::concat_all(tables) {
            Ok(t) => t,
            Err(e) => {
                return fail(
                    commit_span,
                    Status::BadRequest,
                    format!("ingest segments do not share a schema: {e}"),
                )
            }
        };
        if delta.num_rows() == 0 {
            return fail(
                commit_span,
                Status::BadRequest,
                "ingest body contained no records".to_string(),
            );
        }
        let key = format!("{dashboard}/{dataset}");
        let slot = self.index_slot(&key);
        let mut warm = slot.lock();
        let pre_generation = self.live_generation(dashboard, dataset);
        // Merge only a wrapper stamped at the exact pre-append generation —
        // the same guard the query path applies. A stale entry (a re-run
        // or publish bumped the generation without refreshing the slot) is
        // missing those intervening rows; merging it would stamp wrong
        // data at the live generation.
        let carried = warm
            .take()
            .filter(|(g, _)| *g == pre_generation)
            .map(|(_, ix)| match Arc::try_unwrap(ix) {
                Ok(owned) => Carried::Owned(owned.into_indexes()),
                Err(shared) => Carried::Shared(shared),
            });
        #[cfg(test)]
        assert!(!COMMIT_PANICS.get(), "the commit panicked");
        let report = match self
            .platform
            .append_endpoint(dashboard, dataset, delta.clone())
        {
            Ok(r) => r,
            Err(e) => {
                // The endpoint is unchanged: put the warm index back.
                *warm =
                    carried.and_then(|c| self.restore_index(c, dashboard, dataset, pre_generation));
                return fail(commit_span, Status::Unprocessable, e.to_string());
            }
        };
        let generation = self.live_generation(dashboard, dataset);
        let merge = carried.and_then(|carried| {
            self.merge_index_on_append(&mut warm, &key, carried, generation, &report)
        });
        // Live subscribers get just the appended rows as a delta frame at
        // the new generation, sent under the slot lock `subscribe` takes:
        // a subscriber holds this append in its snapshot or in this
        // frame, never in both and never in neither.
        self.fan_out(dashboard, dataset, generation, &delta);
        drop(warm);
        let index_merged = merge.is_some();
        let (merge_us, postings) = merge.unwrap_or_default();
        metrics.record_ingest_commit(
            report.rows_appended as u64,
            index_merged,
            merge_us,
            report.copied.is_none(),
        );
        metrics.record_ingest_postings(postings.grown, postings.rebuilt);
        if let Some(s) = commit_span.as_mut() {
            s.set_attr("dataset", format!("{dashboard}/{dataset}"));
            s.set_attr("segments", segments);
            s.set_attr("bytes", bytes_in);
            s.set_attr("rows_appended", report.rows_appended as u64);
            s.set_attr("index_merged", index_merged);
            if index_merged {
                s.set_attr("index_merge_us", merge_us);
                s.set_attr("postings_grown", postings.grown);
                s.set_attr("postings_rebuilt", postings.rebuilt);
            }
            if let Some(reason) = postings.reason {
                s.set_attr("rebuild_reason", reason.as_str());
            }
            match report.copied {
                None => s.set_attr("table", "grown"),
                Some(reason) => {
                    s.set_attr("table", "copied");
                    s.set_attr("reason", reason);
                }
            }
        }
        if let Some(s) = commit_span.take() {
            s.finish();
        }
        Response::json(format!(
            "{{\"dashboard\": {}, \"dataset\": {}, \"rows_appended\": {}, \
             \"total_rows\": {}, \"generation\": {}, \"segments\": {}, \"index\": {}}}",
            crate::json::quote(&report.dashboard),
            crate::json::quote(&report.dataset),
            report.rows_appended,
            report.total_rows,
            report.generation,
            segments,
            crate::json::quote(if index_merged { "merged" } else { "cold" }),
        ))
    }

    /// The warm index of an append the platform rejected, back over the
    /// unchanged endpoint table at `generation`; `None` (a lazy cold
    /// rebuild) if the endpoint moved meanwhile.
    fn restore_index(
        &self,
        carried: Carried,
        dashboard: &str,
        dataset: &str,
        generation: u64,
    ) -> Option<(u64, Arc<IndexedTable>)> {
        if self.live_generation(dashboard, dataset) != generation {
            return None;
        }
        let indexes = match carried {
            Carried::Shared(ix) => return Some((generation, ix)),
            Carried::Owned(indexes) => indexes,
        };
        let table = self.endpoint_table(dashboard, dataset).ok()?;
        if table.num_rows() != indexes.rows() {
            return None;
        }
        let ix = indexes.append(table).ok()?;
        Some((generation, Arc::new(ix)))
    }

    /// Incremental index maintenance: merge the appended rows into the
    /// warm index's dictionaries, postings and zone maps and re-stamp it
    /// at the new generation — instead of letting the generation bump drop
    /// it for a cold rebuild. The merge reuses the table the platform
    /// append already laid out
    /// ([`shareinsights_core::platform::AppendReport::merged`]), so its
    /// cost is proportional to the delta, not the endpoint: an index no
    /// reader holds grows in place, a held one is copied and grown.
    /// Returns the merge's microseconds and what it did to the postings,
    /// or `None` when the index was left to a cold rebuild. `slot` is the
    /// endpoint's locked index slot, held by the caller since before the
    /// append.
    fn merge_index_on_append(
        &self,
        slot: &mut Option<(u64, Arc<IndexedTable>)>,
        key: &str,
        carried: Carried,
        new_generation: u64,
        report: &shareinsights_core::platform::AppendReport,
    ) -> Option<(u64, PostingsGrowth)> {
        let indexed_rows = match &carried {
            Carried::Owned(indexes) => indexes.rows(),
            Carried::Shared(ix) => ix.table().num_rows(),
        };
        // The committed table must be exactly the indexed rows plus this
        // delta; anything else means a writer that is not an append (a
        // re-run, a stream tick) replaced the table under this one.
        if indexed_rows + report.rows_appended != report.total_rows {
            self.note_cold_rebuild(key, "writer_raced", report);
            return None;
        }
        let started = std::time::Instant::now();
        let merged = match carried {
            Carried::Owned(indexes) => indexes.append(report.merged.clone()),
            Carried::Shared(ix) => ix.append_merged(report.merged.clone()),
        };
        match merged {
            Ok(merged) if merged.table().num_rows() == report.total_rows => {
                let us = started.elapsed().as_micros() as u64;
                let postings = merged.postings_growth();
                *slot = Some((new_generation, Arc::new(merged)));
                Some((us, postings))
            }
            Ok(_) | Err(_) => {
                // Merge not possible (schema drift under the wrapper):
                // fall back to a lazy cold rebuild.
                self.note_cold_rebuild(key, "schema_drift", report);
                None
            }
        }
    }

    /// Surface a dropped warm index: the append could not be merged, so
    /// the next query pays a full rebuild. Until this counter and event
    /// existed the drop was silent — a schema-widening append would
    /// quietly turn every subsequent query cold with nothing in `/stats`
    /// or the logs explaining the latency cliff.
    fn note_cold_rebuild(
        &self,
        key: &str,
        reason: &str,
        report: &shareinsights_core::platform::AppendReport,
    ) {
        self.platform.api_metrics().record_ingest_cold_rebuild();
        self.event_log.emit(
            "ingest_cold_rebuild",
            &[
                ("dataset", key.into()),
                ("reason", reason.into()),
                ("rows_appended", (report.rows_appended as u64).into()),
                ("total_rows", (report.total_rows as u64).into()),
            ],
        );
    }

    /// `GET /:dashboard/ds/:dataset/subscribe`: register a live-flow
    /// subscriber. The subscription starts with a full snapshot frame at
    /// the current generation; later ticks append delta frames. The
    /// serving loop sees `Handled::stream` and switches the connection
    /// into SSE streaming mode. The snapshot is read and queued, and the
    /// subscriber registered, under the endpoint's slot lock, which an
    /// ingest commit holds from its append through its delta frame.
    fn subscribe(
        &self,
        dashboard: &str,
        dataset: &str,
        stream: &mut Option<Arc<Subscription>>,
    ) -> Response {
        let slot = self.index_slot(&format!("{dashboard}/{dataset}"));
        let _appends = slot.lock();
        let table = match self.endpoint_table(dashboard, dataset) {
            Ok(t) => t,
            Err(resp) => return resp,
        };
        let generation = self.live_generation(dashboard, dataset);
        let sub = self.hub.subscribe(dashboard, dataset);
        let frame: Arc<[u8]> = sse_frame(dataset, generation, &table_to_json(&table)).into();
        sub.offer(&frame);
        self.platform.api_metrics().record_stream_subscribe();
        self.platform
            .api_metrics()
            .record_stream_frames(1, frame.len() as u64);
        *stream = Some(sub);
        Response::json(format!(
            "{{\"subscribed\": {}, \"generation\": {generation}}}",
            crate::json::quote(&format!("{dashboard}/{dataset}")),
        ))
    }

    /// Figure 27: list endpoint data names.
    fn list_endpoints(&self, dashboard: &str) -> Response {
        if dashboard == SYSTEM_DASHBOARD {
            return Response::json(string_list(&[TELEMETRY_DATASET.to_string()]));
        }
        match self.platform.dashboard(dashboard) {
            Ok(d) => {
                let names: Vec<String> = d.endpoint_tables.keys().cloned().collect();
                Response::json(string_list(&names))
            }
            Err(e) => Response::error(Status::NotFound, e.to_string()),
        }
    }

    /// The index slot of `dashboard/dataset`, created empty on first use.
    fn index_slot(&self, key: &str) -> IndexSlot {
        let mut map = self.indexes.lock();
        match map.get(key) {
            Some(slot) => Arc::clone(slot),
            None => Arc::clone(map.entry(key.to_string()).or_default()),
        }
    }

    /// The indexed wrapper for an endpoint's live snapshot, rebuilt
    /// whenever the data generation moves. Waits for an append in flight
    /// on the endpoint, then reads the live generation and table under the
    /// slot's lock, so the wrapper returned may be newer than the
    /// generation the request started at — never older. Index build
    /// durations are fed into the platform's
    /// [`shareinsights_core::telemetry::ApiMetrics`].
    fn indexed_table(&self, dashboard: &str, dataset: &str) -> Result<Arc<IndexedTable>, Response> {
        let slot = self.index_slot(&format!("{dashboard}/{dataset}"));
        let mut warm = slot.lock();
        let generation = self.live_generation(dashboard, dataset);
        if let Some((_, ix)) = warm.as_ref().filter(|(g, _)| *g == generation) {
            return Ok(Arc::clone(ix));
        }
        let table = self.endpoint_table(dashboard, dataset)?;
        let metrics = self.platform.api_metrics().clone();
        let ix = Arc::new(IndexedTable::with_build_hook(
            table,
            Arc::new(move |us| metrics.record_index_build(us)),
        ));
        *warm = Some((generation, Arc::clone(&ix)));
        Ok(ix)
    }

    /// Figure 28 browse + figure 30 ad-hoc queries, behind the
    /// generation-stamped result caches: serialized page bodies in the
    /// [`QueryCache`], unpaged result tables in the [`ResultCache`] (so a
    /// new page slices the cached result instead of re-evaluating), and
    /// cold evaluations routed through the indexed snapshot when a
    /// per-column index covers the first operation.
    fn dataset(
        &self,
        request: &Request,
        dashboard: &str,
        dataset: &str,
        ops_segments: &[&str],
        reach: Reach,
        span: Option<&Span>,
    ) -> Option<Response> {
        let label = if ops_segments.is_empty() {
            "GET /:dashboard/ds/:dataset"
        } else {
            "GET /:dashboard/ds/:dataset/query"
        };
        // The live generation: dashboard runs bump the platform side,
        // publishes/refreshes bump the registry side. Both are monotonic,
        // so their sum changes whenever either source of the data does.
        let generation = self.live_generation(dashboard, dataset);
        let ops = match parse_ops(ops_segments) {
            Ok(ops) => ops,
            Err(_) if reach == Reach::HitOnly => return None,
            Err(e) => {
                self.platform.api_metrics().record_sql_parse_error();
                return Some(parse_error_response("parse", &e, 0, 0));
            }
        };
        let result_key = format!("{dashboard}/{dataset}/{}", ops_segments.join("/"));
        self.serve_query(
            request,
            label,
            dashboard,
            dataset,
            generation,
            &result_key,
            &ops,
            reach,
            span,
        )
    }

    /// `POST /:dashboard/ds/:dataset/sql`: the SQL spelling of the ad-hoc
    /// query API. The request body is one SELECT statement whose `FROM`
    /// must name the URL's dataset; it parses and lowers into the same
    /// [`QueryOp`]s the path grammar produces, so evaluation, index
    /// acceleration and the generation-stamped caches are all shared —
    /// canonical plans even share cache *entries* with the GET route.
    fn sql_query(
        &self,
        request: &Request,
        dashboard: &str,
        dataset: &str,
        reach: Reach,
        span: Option<&Span>,
    ) -> Option<Response> {
        let label = "POST /:dashboard/ds/:dataset/sql";
        let src = request.body.as_str();
        let parse_started = Instant::now();
        // Prepared-statement cache: hot statements skip parse + lower
        // entirely. Only the FROM-matches-dataset check re-runs, because
        // the same text can arrive on a different dataset's route. A
        // hit-only request peeks, and counts its hit once the page cache
        // has answered.
        let hit = match reach {
            Reach::HitOnly => self.prepared.lock().peek(src, 0),
            _ => self.prepared.lock().get(src, 0),
        };
        if let Some((table, lowered)) = hit {
            if table != dataset {
                if reach == Reach::HitOnly {
                    return None;
                }
                self.platform.api_metrics().record_sql_parse_error();
                return Some(parse_error_response(
                    "semantic",
                    &format!("FROM names '{table}' but this route serves dataset '{dataset}'"),
                    0,
                    0,
                ));
            }
            let parse_us = parse_started.elapsed().as_micros() as u64;
            if let Some(s) = span {
                let mut p = s.child("sql_prepared_hit");
                p.set_attr("bytes", src.len());
                p.finish();
            }
            let generation = self.live_generation(dashboard, dataset);
            let result_key = format!("{dashboard}/{dataset}/{}", lowered.cache_path);
            let response = self.serve_query(
                request,
                label,
                dashboard,
                dataset,
                generation,
                &result_key,
                &lowered.ops,
                reach,
                span,
            )?;
            if reach == Reach::HitOnly {
                self.prepared.lock().record_hit(src, 0);
            }
            let metrics = self.platform.api_metrics();
            metrics.record_sql_query(parse_us, lowered.shared);
            metrics.record_sql_prepared_hit();
            return Some(response);
        }
        if reach == Reach::HitOnly {
            return None;
        }
        // Text → spanned AST → logical plan, under its own span so parse
        // cost is visible separately from server-side lowering.
        let mut parse_span = span.map(|s| s.child("sql_parse"));
        if let Some(s) = parse_span.as_mut() {
            s.set_attr("bytes", src.len());
        }
        let plan = match shareinsights_engine::sql::parse_select(src)
            .and_then(|stmt| shareinsights_engine::sql::lower(src, &stmt))
        {
            Ok(p) => p,
            Err(e) => {
                if let Some(mut s) = parse_span.take() {
                    s.set_attr("error", true);
                    s.finish();
                }
                self.platform.api_metrics().record_sql_parse_error();
                return Some(parse_error_response("parse", &e.message, e.line, e.column));
            }
        };
        if let Some(s) = parse_span.take() {
            s.finish();
        }
        if plan.table != dataset {
            self.platform.api_metrics().record_sql_parse_error();
            return Some(parse_error_response(
                "semantic",
                &format!(
                    "FROM names '{}' but this route serves dataset '{dataset}'",
                    plan.table
                ),
                0,
                0,
            ));
        }
        // Logical plan → QueryOps (+ join resolution + canonical cache
        // path), the second half of the frontend.
        let mut lower_span = span.map(|s| s.child("sql_lower"));
        let lowered = match lower_plan(&plan, &mut |name| {
            self.endpoint_table(dashboard, name).map_err(|_| {
                format!(
                    "no endpoint data '{name}' on dashboard '{dashboard}' to join (run it first?)"
                )
            })
        }) {
            Ok(l) => l,
            Err(e) => {
                if let Some(mut s) = lower_span.take() {
                    s.set_attr("error", true);
                    s.finish();
                }
                self.platform.api_metrics().record_sql_parse_error();
                return Some(parse_error_response("semantic", &e, 0, 0));
            }
        };
        let parse_us = parse_started.elapsed().as_micros() as u64;
        self.platform
            .api_metrics()
            .record_sql_query(parse_us, lowered.shared);
        if let Some(mut s) = lower_span.take() {
            s.set_attr("path_shared", lowered.shared);
            s.set_attr("stages", lowered.ops.len());
            s.set_attr("joins", lowered.join_tables.len());
            s.finish();
        }
        // Cache the lowered plan for the next identical statement. Plans
        // with joins embed resolved table snapshots at lower time, so
        // they must re-lower to see fresh data and are never cached.
        if lowered.join_tables.is_empty() {
            let evicted = self.prepared.lock().put(
                src.to_string(),
                0,
                (plan.table.clone(), Arc::new(lowered.clone())),
            );
            if evicted > 0 {
                self.platform
                    .api_metrics()
                    .record_sql_prepared_evictions(evicted);
            }
        }
        // Joined datasets contribute their publish generations so a
        // republish of the right side invalidates joined results too.
        let mut generation = self.live_generation(dashboard, dataset);
        for t in &lowered.join_tables {
            generation += self.platform.publish_registry().generation(t);
        }
        // Canonical plans compute the exact result key the GET route
        // would, which is what makes the two languages share entries.
        let result_key = format!("{dashboard}/{dataset}/{}", lowered.cache_path);
        self.serve_query(
            request,
            label,
            dashboard,
            dataset,
            generation,
            &result_key,
            &lowered.ops,
            reach,
            span,
        )
    }

    /// The shared cache/evaluate/page tail of both ad-hoc query routes:
    /// page-cache lookup, result-cache lookup, indexed evaluation on a
    /// double miss, then paging + page-cache fill. Under
    /// [`Reach::HitOnly`] a page-cache miss answers `None` and leaves the
    /// page cache as it was.
    #[allow(clippy::too_many_arguments)]
    fn serve_query(
        &self,
        request: &Request,
        label: &'static str,
        dashboard: &str,
        dataset: &str,
        generation: u64,
        result_key: &str,
        ops: &[QueryOp],
        reach: Reach,
        span: Option<&Span>,
    ) -> Option<Response> {
        let offset = request.query_usize("offset").unwrap_or(0);
        let limit = request.query_usize("limit");
        let page_key = format!(
            "{result_key}?offset={offset}&limit={}",
            limit.map_or_else(|| "all".to_string(), |l| l.to_string()),
        );
        let cached = {
            let mut lookup_span = span.map(|s| s.child("cache_lookup"));
            let cached = match reach {
                Reach::HitOnly => self.cache.hit(&page_key, generation),
                _ => self.cache.get(&page_key, generation),
            };
            if let Some(s) = lookup_span.as_mut() {
                s.set_attr("hit", cached.is_some());
                s.set_attr("generation", generation);
            }
            cached
        };
        if let Some(body) = cached {
            self.platform.api_metrics().record_cache(label, true);
            return Some(Response::json(body));
        }
        if reach == Reach::HitOnly {
            return None;
        }
        self.platform.api_metrics().record_cache(label, false);

        let mut eval_span = span.map(|s| s.child("query_eval"));
        let result = match self.results.get(result_key, generation) {
            Some(result) => {
                if let Some(s) = eval_span.as_mut() {
                    s.set_attr("result_cache_hit", true);
                }
                result
            }
            None => {
                // Looked up before the index slot, so that an unknown
                // dataset answers 404 without leaving a slot behind.
                if let Err(resp) = self.endpoint_table(dashboard, dataset) {
                    return Some(resp);
                }
                let indexed = match self.indexed_table(dashboard, dataset) {
                    Ok(indexed) => indexed,
                    Err(resp) => return Some(resp),
                };
                let rows_in = indexed.table().num_rows();
                // The plan that runs, for the trace.
                let plan = fuse(ops);
                if let Some(s) = eval_span.as_mut() {
                    s.set_attr("plan", crate::sql::plan_text(&plan));
                }
                partition::take_verdict();
                let evaluated = evaluate_indexed(&indexed, &plan);
                let verdict = partition::take_verdict();
                let (result, index_hit) = match evaluated {
                    Ok(done) => {
                        if let Some(s) = eval_span.as_mut() {
                            s.set_attr("rows_materialised", done.rows_materialised);
                            set_verdict(s, verdict);
                        }
                        (done.table, done.index_hit)
                    }
                    Err(e) => return Some(Response::error(Status::BadRequest, e)),
                };
                self.platform.api_metrics().record_index_eval(index_hit);
                if let Some(s) = eval_span.as_mut() {
                    s.set_attr("result_cache_hit", false);
                    s.set_attr("index_hit", index_hit);
                    s.set_attr("rows_in", rows_in);
                }
                let result = Arc::new(result);
                self.results
                    .put(result_key, generation, Arc::clone(&result));
                result
            }
        };
        // Paging on the final result.
        let limit = limit.unwrap_or(result.num_rows());
        let page = result.slice(offset, limit);
        let mut serialise_span = eval_span.as_ref().map(|s| s.child("serialise"));
        partition::take_verdict();
        let body = table_to_json(&page);
        let verdict = partition::take_verdict();
        if let Some(mut s) = serialise_span.take() {
            s.set_attr("rows", page.num_rows());
            s.set_attr("bytes", body.len());
            set_verdict(&mut s, verdict);
            s.finish();
        }
        if let Some(mut s) = eval_span.take() {
            s.set_attr("rows_out", page.num_rows());
            s.set_attr("bytes", body.len());
            s.finish();
        }
        self.cache.put(&page_key, generation, body.clone());
        self.stamp_filled(dashboard, dataset, generation);
        Some(Response::json(body))
    }

    /// §6 meta-dashboard: run + profile every column, return the profile as
    /// JSON plus the data-quality warnings.
    fn meta(&self, dashboard: &str) -> Response {
        match self.platform.open_meta_dashboard(dashboard) {
            Ok((meta, _runtime)) => {
                let warnings = crate::json::string_list(&meta.warnings);
                Response::json(format!(
                    "{{\"profile\": {}, \"warnings\": {warnings}}}",
                    table_to_json(&meta.profile)
                ))
            }
            Err(e) => Response::error(Status::Unprocessable, e.to_string()),
        }
    }

    /// §6 dataset discovery: enrichment suggestions for one data object.
    fn suggest(&self, dashboard: &str, object: &str) -> Response {
        match self.platform.suggest_enrichments(dashboard, object) {
            Ok(suggestions) => {
                let items: Vec<String> = suggestions
                    .iter()
                    .map(|s| {
                        format!(
                            "{} via [{}] adds [{}]{}",
                            s.publish_name,
                            s.join_keys.join(","),
                            s.new_columns.join(","),
                            if s.key_is_unique { " (unique key)" } else { "" }
                        )
                    })
                    .collect();
                Response::json(crate::json::string_list(&items))
            }
            Err(e) => Response::error(Status::NotFound, e.to_string()),
        }
    }

    /// Commit history (§4.5.1: CRUD operations map to source commits).
    fn commit_log(&self, dashboard: &str) -> Response {
        match self.platform.dashboard(dashboard) {
            Ok(d) => match d.repo.log("main") {
                Ok(log) => {
                    let items: Vec<String> = log
                        .iter()
                        .map(|c| {
                            // The id's first 8 hex digits.
                            let short = c.id.0 >> 96;
                            format!("{} {short:08x} {}: {}", c.seq, c.author, c.message)
                        })
                        .collect();
                    Response::json(crate::json::string_list(&items))
                }
                Err(e) => Response::error(Status::NotFound, e.to_string()),
            },
            Err(e) => Response::error(Status::NotFound, e.to_string()),
        }
    }

    /// Figure 29: the data explorer runs the dashboard headless and shows
    /// every endpoint as a pretty table.
    fn explore(&self, dashboard: &str) -> Response {
        let d = match self.platform.dashboard(dashboard) {
            Ok(d) => d,
            Err(e) => return Response::error(Status::NotFound, e.to_string()),
        };
        if d.endpoint_tables.is_empty() {
            return Response::text(format!(
                "dashboard '{dashboard}' has no endpoint data yet; POST /dashboards/{dashboard}/run first"
            ));
        }
        let mut out = String::new();
        for (name, table) in &d.endpoint_tables {
            out.push_str(&format!("== {name} ({} rows) ==\n", table.num_rows()));
            out.push_str(&table.pretty(25));
            out.push('\n');
        }
        Response::text(out)
    }
}

/// Say on `span` which path the partitioned kernels that ran under it
/// took: `path = partitioned | single`, the `morsels` run and of them the
/// ones a pool helper `helped` with, and why a single pass stayed single.
fn set_verdict(span: &mut Span, verdict: Option<partition::Verdict>) {
    let verdict = verdict.unwrap_or_default();
    span.set_attr("path", verdict.path());
    span.set_attr("morsels", verdict.morsels);
    span.set_attr("helped", verdict.helped);
    if let (false, Some(reason)) = (verdict.partitioned, verdict.reason) {
        span.set_attr("reason", reason.name());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const FLOW: &str = r#"
D:
  sales: [region, brand, revenue]
D.sales:
  source: 'sales.csv'
  format: csv
T:
  by_brand:
    type: groupby
    groupby: [region, brand]
    aggregates:
    - operator: sum
      apply_on: revenue
      out_field: revenue
F:
  +D.brand_sales: D.sales | T.by_brand
"#;

    pub(crate) fn served() -> Server {
        let platform = Platform::new();
        platform.upload_data(
            "retail",
            "sales.csv",
            "region,brand,revenue\nnorth,acme,10\nnorth,acme,5\nsouth,zest,20\nnorth,zest,1\n",
        );
        let server = Server::new(platform);
        assert!(server
            .handle(&Request::new(Method::Put, "/dashboards/retail/flow").with_body(FLOW))
            .is_ok());
        assert!(server
            .handle(&Request::new(Method::Post, "/dashboards/retail/run"))
            .is_ok());
        server
    }

    /// Re-upload the sales file (the same bytes, a new version), so that
    /// the next run executes every flow again instead of hitting the memo.
    fn reupload(server: &Server) {
        let platform = server.platform();
        let sales = platform.catalog().data_folder().get("retail/sales.csv");
        platform.upload_bytes("retail", "sales.csv", sales.unwrap().to_vec());
    }

    /// What a request's side effects reach: both LRUs' counters and
    /// recency-bearing entries, the route and SQL counts, the trace ring.
    fn footprint(server: &Server) -> String {
        let routes: Vec<_> = server
            .platform
            .api_metrics()
            .routes()
            .into_iter()
            .map(|(r, s)| (r, s.count, s.errors, s.cache_hits, s.cache_misses))
            .collect();
        let sql = server.platform.api_metrics().sql();
        format!(
            "{:?} {:?} {routes:?} {:?} {}",
            server.cache.stats(),
            server.prepared.lock().stats(),
            (sql.queries, sql.parse_errors, sql.prepared_hits),
            server.platform.tracer().len(),
        )
    }

    #[test]
    fn a_hit_only_request_counts_a_hit_once_and_leaves_nothing_otherwise() {
        let get = Request::get("/retail/ds/brand_sales?limit=1");
        let sql = Request::new(Method::Post, "/retail/ds/brand_sales/sql")
            .with_body("select brand from brand_sales");
        let others = [
            Request::new(Method::Post, "/dashboards/retail/run"),
            Request::get("/retail/ds/nope"),
            Request::get("/retail/ds/brand_sales/warp/9"),
            Request::get("/stats"),
            Request::get("/_system/ds/telemetry"),
            Request::get("/retail/ds/brand_sales/subscribe"),
            Request::get("/dashboards/ds/flow"),
        ];
        let (by_worker, by_loop) = (served(), served());
        let probe_changes_nothing = |requests: &[&Request]| {
            let before = footprint(&by_loop);
            for r in requests {
                assert!(
                    by_loop.handle_reach(r, Reach::HitOnly).is_none(),
                    "{}",
                    r.path
                );
            }
            assert_eq!(footprint(&by_loop), before);
        };
        probe_changes_nothing(&[&get, &sql]);
        probe_changes_nothing(&others.iter().collect::<Vec<_>>());
        for server in [&by_worker, &by_loop] {
            server.handle(&get);
            server.handle(&sql);
        }
        for round in 0..2 {
            for r in [&get, &sql] {
                let want = by_worker.handle_reach(r, Reach::Any).unwrap();
                let got = by_loop.handle_reach(r, Reach::HitOnly).expect("a hit");
                assert_eq!(got.response.body, want.response.body);
                assert_eq!(footprint(&by_loop), footprint(&by_worker), "round {round}");
            }
        }
        // A re-run moves the generation: the stale pages fall through
        // untouched, and the worker's miss is the only one counted.
        for server in [&by_worker, &by_loop] {
            reupload(server);
            server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
        }
        probe_changes_nothing(&[&get, &sql]);
        for r in [&get, &sql] {
            assert_eq!(by_loop.handle(r).body, by_worker.handle(r).body);
        }
        assert_eq!(footprint(&by_loop), footprint(&by_worker));
        let trace = by_loop.platform.tracer().recent(1).remove(0);
        assert_eq!(
            trace.root().unwrap().attr("served_on"),
            Some(&"in_process".into())
        );
    }

    /// The first page read after a generation bump cannot be a hit: the
    /// stamp test turns the probe away before a root span, an op parse or
    /// a cache key is built, and the first page filled at the new
    /// generation lets the next probe through.
    #[test]
    fn a_hit_only_probe_stops_at_the_stamp_after_a_generation_bump() {
        let server = served();
        let get = Request::get("/retail/ds/brand_sales?limit=1");
        let may_hit = || server.may_hit(&get.segments());
        assert!(!may_hit(), "no page filled yet");
        server.handle(&get);
        assert!(may_hit());
        assert!(server.handle_reach(&get, Reach::HitOnly).is_some());
        reupload(&server);
        server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
        assert!(!may_hit());
        // A page the stamp does not know of is not even looked up: only
        // the stamp test stands between this probe and a cached body.
        let generation = server.live_generation("retail", "brand_sales");
        server.cache.put(
            "retail/brand_sales/?offset=0&limit=1",
            generation,
            "[]".into(),
        );
        let before = footprint(&server);
        assert!(server.handle_reach(&get, Reach::HitOnly).is_none());
        assert_eq!(footprint(&server), before);
        server.cache.clear();
        server.handle(&get);
        assert!(may_hit());
        let hit = server.handle_reach(&get, Reach::HitOnly).expect("a hit");
        assert_eq!(hit.response.body, server.handle(&get).body);
        // Shapes that are never a query of a stamped endpoint.
        for path in ["/retail/ds", "/_system/ds/telemetry", "/dashboards"] {
            assert!(!server.may_hit(&Request::get(path).segments()), "{path}");
        }
    }

    #[test]
    fn create_save_run_cycle_over_http() {
        let server = served();
        let r = server.handle(&Request::get("/dashboards"));
        assert!(r.body.contains("retail"));
        let r = server.handle(&Request::get("/retail/ds"));
        assert_eq!(r.body, "[\"brand_sales\"]");
    }

    #[test]
    fn browse_endpoint_with_paging() {
        let server = served();
        let r = server.handle(&Request::get("/retail/ds/brand_sales"));
        assert!(r.is_ok());
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("total_rows").unwrap().to_value().as_int(), Some(3));

        let r = server.handle(&Request::get("/retail/ds/brand_sales?limit=1&offset=1"));
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("total_rows").unwrap().to_value().as_int(), Some(1));
    }

    #[test]
    fn figure30_adhoc_query_url() {
        let server = served();
        let r = server.handle(&Request::get(
            "/retail/ds/brand_sales/groupby/region/count/brand",
        ));
        assert!(r.is_ok(), "{}", r.body);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("columns.1").unwrap().as_str(), Some("count_brand"));
        assert_eq!(doc.path("rows.0.1").unwrap().to_value().as_int(), Some(2));
    }

    #[test]
    fn chained_query_url() {
        let server = served();
        let r = server.handle(&Request::get(
            "/retail/ds/brand_sales/filter/region/north/sort/revenue/desc/limit/1",
        ));
        assert!(r.is_ok());
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("rows.0.1").unwrap().as_str(), Some("acme"));
    }

    #[test]
    fn explorer_headless_mode() {
        let server = served();
        let r = server.handle(&Request::get("/dashboards/retail/explore"));
        assert!(r.is_ok());
        assert!(r.body.contains("== brand_sales (3 rows) =="));
        assert!(r.body.contains("region"));
    }

    #[test]
    fn errors_have_useful_statuses() {
        let server = served();
        let r = server.handle(&Request::get("/ghost/ds"));
        assert_eq!(r.status, Status::NotFound);
        let r = server.handle(&Request::get("/retail/ds/ghost_data"));
        assert_eq!(r.status, Status::NotFound);
        assert!(r.body.contains("run it first"));
        assert!(server.indexes.lock().is_empty(), "a 404 left an index slot");
        let r = server.handle(&Request::get("/retail/ds/brand_sales/warp/9"));
        assert_eq!(r.status, Status::BadRequest);
        assert!(r.body.contains("unknown query operation"), "{}", r.body);
        let r = server.handle(&Request::get(
            "/retail/ds/brand_sales/groupby/region/bogus/brand",
        ));
        assert_eq!(r.status, Status::BadRequest);
        assert!(r.body.contains("unknown aggregate"), "{}", r.body);
        let r = server.handle(&Request::get("/retail/ds/brand_sales/limit/abc"));
        assert_eq!(r.status, Status::BadRequest, "non-numeric limit");
        let r = server
            .handle(&Request::new(Method::Put, "/dashboards/bad/flow").with_body("Q:\n  x: 1\n"));
        assert_eq!(r.status, Status::Unprocessable);
        let r = server.handle(&Request::new(Method::Post, "/dashboards/retail/create"));
        assert_eq!(r.status, Status::Conflict);
        let r = server.handle(&Request::get("/no/such/route/here"));
        assert_eq!(r.status, Status::NotFound);
    }

    #[test]
    fn wrong_method_is_405_with_allow_list() {
        let server = served();
        let r = server.handle(&Request::new(Method::Post, "/dashboards"));
        assert_eq!(r.status, Status::MethodNotAllowed);
        assert!(r.body.contains("\"allow\": \"GET\""), "{}", r.body);
        let r = server.handle(&Request::new(Method::Delete, "/dashboards/retail/flow"));
        assert_eq!(r.status, Status::MethodNotAllowed);
        assert!(r.body.contains("GET, PUT"), "{}", r.body);
        let r = server.handle(&Request::get("/dashboards/retail/run"));
        assert_eq!(r.status, Status::MethodNotAllowed);
        // Unknown shapes stay 404 even with a weird method.
        let r = server.handle(&Request::new(Method::Delete, "/no/such/route/here"));
        assert_eq!(r.status, Status::NotFound);
    }

    #[test]
    fn repeated_query_hits_cache_and_run_invalidates() {
        let server = served();
        let url = "/retail/ds/brand_sales/groupby/region/count/brand";
        let first = server.handle(&Request::get(url));
        assert!(first.is_ok());
        let second = server.handle(&Request::get(url));
        assert_eq!(second.body, first.body);
        let s = server.cache().stats();
        assert_eq!((s.hits, s.misses), (1, 1));

        // An unedited re-run installs the very tables it served: the
        // generation stays and the page is still a hit.
        let run = || server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
        let generation = server.platform().data_generation("retail");
        assert!(run().is_ok());
        assert_eq!(server.platform().data_generation("retail"), generation);
        assert_eq!(server.handle(&Request::get(url)).body, first.body);
        assert_eq!(server.cache().stats().hits, 2);

        // A re-run over a re-upload bumps the data generation → miss.
        reupload(&server);
        assert!(run().is_ok());
        assert!(server.handle(&Request::get(url)).is_ok());
        let s = server.cache().stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 2, 1));
    }

    #[test]
    fn paging_slices_cached_result_without_reevaluating() {
        let server = served();
        server.handle(&Request::get("/retail/ds/brand_sales?limit=1"));
        server.handle(&Request::get("/retail/ds/brand_sales?limit=1&offset=1"));
        server.handle(&Request::get("/retail/ds/brand_sales/limit/1"));
        // Distinct pages and ops are distinct serialized bodies...
        assert_eq!(server.cache().stats().entries, 3);
        assert_eq!(server.cache().stats().hits, 0);
        // ...but the second page sliced the unpaged result cached by the
        // first instead of re-evaluating the query; `limit/1` is a
        // different query, so it evaluated.
        let rs = server.result_cache().stats();
        assert_eq!((rs.hits, rs.misses), (1, 2));
        assert_eq!(rs.entries, 2);
    }

    #[test]
    fn paged_bodies_agree_with_unpaged_slices() {
        let server = served();
        let full = server.handle(&Request::get("/retail/ds/brand_sales"));
        let p0 = server.handle(&Request::get("/retail/ds/brand_sales?limit=2"));
        let p1 = server.handle(&Request::get("/retail/ds/brand_sales?limit=2&offset=2"));
        let full_doc = shareinsights_tabular::io::json::parse_json(&full.body).unwrap();
        let p0_doc = shareinsights_tabular::io::json::parse_json(&p0.body).unwrap();
        let p1_doc = shareinsights_tabular::io::json::parse_json(&p1.body).unwrap();
        assert_eq!(
            p0_doc.path("total_rows").unwrap().to_value().as_int(),
            Some(2)
        );
        assert_eq!(
            p1_doc.path("total_rows").unwrap().to_value().as_int(),
            Some(1)
        );
        assert_eq!(
            full_doc.path("rows.2").unwrap().to_string(),
            p1_doc.path("rows.0").unwrap().to_string(),
            "page 2 starts where the full result's third row is"
        );
    }

    #[test]
    fn stats_and_metrics_expose_index_counters() {
        let server = served();
        let resident = || {
            let stats = server.handle(&Request::get("/stats")).body;
            let doc = shareinsights_tabular::io::json::parse_json(&stats).unwrap();
            let bytes = doc.path("index.resident_bytes").unwrap().to_value();
            bytes.as_int().unwrap()
        };
        assert_eq!(resident(), 0, "nothing indexed yet");
        // A covered query: Utf8 key, sum over Int64 → indexed path.
        server.handle(&Request::get(
            "/retail/ds/brand_sales/groupby/region/sum/revenue",
        ));
        // An uncovered query shape → scan fallback.
        server.handle(&Request::get("/retail/ds/brand_sales/distinct/region"));
        let r = server.handle(&Request::get("/stats"));
        assert!(r.is_ok(), "{}", r.body);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        let builds = doc
            .path("index.builds")
            .unwrap()
            .to_value()
            .as_int()
            .unwrap();
        assert!(builds >= 1, "dictionary build on 'region': {builds}");
        assert_eq!(
            doc.path("index.covered").unwrap().to_value().as_int(),
            Some(1)
        );
        assert_eq!(
            doc.path("index.fallback").unwrap().to_value().as_int(),
            Some(1)
        );
        let build_us = doc
            .path("index.build_us")
            .unwrap()
            .to_value()
            .as_int()
            .unwrap();
        assert!(build_us >= 0);
        let m = server.handle(&Request::get("/metrics"));
        assert!(
            m.body.contains("shareinsights_index_builds_total"),
            "{}",
            m.body
        );
        assert!(
            m.body.contains("shareinsights_index_covered_evals_total 1"),
            "{}",
            m.body
        );
        assert!(
            m.body
                .contains("shareinsights_index_fallback_evals_total 1"),
            "{}",
            m.body
        );
        assert!(m.body.contains("shareinsights_index_build_seconds_total"));
        // The gauge is the installed snapshot's index bytes, and drops
        // with it.
        let held = server.indexed_table("retail", "brand_sales").unwrap();
        assert!(held.index_bytes() > 0);
        assert_eq!(resident(), held.index_bytes() as i64);
        let gauge = format!("shareinsights_index_resident_bytes {}", held.index_bytes());
        assert!(server
            .handle(&Request::get("/metrics"))
            .body
            .contains(&gauge));
        server.clear_derived_caches();
        assert_eq!(resident(), 0);
    }

    #[test]
    fn rerun_drops_stale_indexed_snapshot() {
        let server = served();
        let url = "/retail/ds/brand_sales/groupby/region/sum/revenue";
        assert!(server.handle(&Request::get(url)).is_ok());
        let builds_before = server.platform().api_metrics().index().builds;
        assert!(builds_before >= 1);
        // A re-run over a re-upload bumps the generation: the stale wrapper
        // is replaced and the index is rebuilt on the next cold query.
        reupload(&server);
        assert!(server
            .handle(&Request::new(Method::Post, "/dashboards/retail/run"))
            .is_ok());
        assert!(server.handle(&Request::get(url)).is_ok());
        let ix = server.platform().api_metrics().index();
        assert!(ix.builds > builds_before, "index rebuilt after run");
        assert_eq!(ix.covered, 2);
    }

    #[test]
    fn stats_route_reports_routes_and_cache() {
        let server = served();
        let url = "/retail/ds/brand_sales/groupby/region/count/brand";
        server.handle(&Request::get(url));
        server.handle(&Request::get(url));
        server.handle(&Request::get("/retail/ds/ghost_data"));
        let r = server.handle(&Request::get("/stats"));
        assert!(r.is_ok(), "{}", r.body);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        let q = "routes.GET /:dashboard/ds/:dataset/query";
        assert_eq!(
            doc.path(&format!("{q}.count")).unwrap().to_value().as_int(),
            Some(2)
        );
        assert_eq!(
            doc.path(&format!("{q}.cache_hits"))
                .unwrap()
                .to_value()
                .as_int(),
            Some(1)
        );
        // The ghost browse is an error under the browse label.
        assert_eq!(
            doc.path("routes.GET /:dashboard/ds/:dataset.errors")
                .unwrap()
                .to_value()
                .as_int(),
            Some(1)
        );
        assert_eq!(doc.path("cache.hits").unwrap().to_value().as_int(), Some(1));
        // Latency quantiles are present and sane.
        let p95 = doc
            .path(&format!("{q}.p95_us"))
            .unwrap()
            .to_value()
            .as_int()
            .unwrap();
        let max = doc
            .path(&format!("{q}.max_us"))
            .unwrap()
            .to_value()
            .as_int()
            .unwrap();
        assert!(p95 <= max.max(1), "p95 {p95} vs max {max}");
    }

    #[test]
    fn publish_refresh_invalidates_shared_object_cache() {
        let server = served();
        let with_publish = FLOW.replace(
            "F:\n  +D.brand_sales: D.sales | T.by_brand\n",
            "F:\n  +D.brand_sales: D.sales | T.by_brand\n  D.brand_sales:\n    publish: brand_sales\n",
        );
        server
            .handle(&Request::new(Method::Put, "/dashboards/retail/flow").with_body(&with_publish));
        server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
        server.handle(&Request::new(Method::Post, "/dashboards/viewer/create"));

        let url = "/viewer/ds/brand_sales";
        assert!(server.handle(&Request::get(url)).is_ok());
        assert!(server.handle(&Request::get(url)).is_ok());
        assert_eq!(server.cache().stats().hits, 1);

        // Re-running the producer over a re-upload refreshes the published
        // snapshot, which bumps the registry generation seen by the
        // consumer dashboard.
        reupload(&server);
        server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
        assert!(server.handle(&Request::get(url)).is_ok());
        let s = server.cache().stats();
        assert_eq!((s.hits, s.invalidations), (1, 1));
    }

    #[test]
    fn fork_route() {
        let server = served();
        let r = server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/fork/team_1",
        ));
        assert_eq!(r.status, Status::Created);
        let r = server.handle(&Request::get("/dashboards/team_1/flow"));
        assert!(r.body.contains("brand_sales"));
    }

    #[test]
    fn meta_route_profiles_columns() {
        let server = served();
        let r = server.handle(&Request::get("/dashboards/retail/meta"));
        assert!(r.is_ok(), "{}", r.body);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        // Profile covers sales (source) and brand_sales (sink) columns.
        let cols = doc.path("profile.columns").unwrap();
        assert!(cols.to_string().contains("nulls"));
        assert!(r.body.contains("brand_sales"));
        // The generated meta dashboard now exists.
        let r = server.handle(&Request::get("/dashboards/retail__meta/flow"));
        assert!(r.body.contains("Data Quality Meta-Dashboard"));
    }

    #[test]
    fn suggest_route_finds_joinable_shared_objects() {
        let server = served();
        // Publish a dimension from another dashboard sharing 'brand'.
        server
            .platform()
            .publish_registry()
            .publish(
                "brand_dim",
                "other_dash",
                "brands",
                shareinsights_tabular::Schema::of(&[
                    ("brand", shareinsights_tabular::DataType::Utf8),
                    ("owner", shareinsights_tabular::DataType::Utf8),
                ]),
                None,
            )
            .unwrap();
        let r = server.handle(&Request::get("/dashboards/retail/suggest/brand_sales"));
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("brand_dim"), "{}", r.body);
        assert!(r.body.contains("adds [owner]"), "{}", r.body);

        let r = server.handle(&Request::get("/dashboards/retail/suggest/ghost"));
        assert_eq!(r.status, Status::NotFound);
    }

    #[test]
    fn commit_log_route() {
        let server = served();
        server.handle(&Request::new(Method::Put, "/dashboards/retail/flow").with_body(FLOW));
        let r = server.handle(&Request::get("/dashboards/retail/log"));
        assert!(r.is_ok());
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert!(doc.items().len() >= 2, "{}", r.body);
        assert!(r.body.contains("save"));
    }

    #[test]
    fn metrics_route_exposes_prometheus_families() {
        let server = served();
        let url = "/retail/ds/brand_sales/groupby/region/count/brand";
        server.handle(&Request::get(url));
        server.handle(&Request::get(url));
        let r = server.handle(&Request::get("/metrics"));
        assert!(r.is_ok());
        assert_eq!(r.content_type, "text/plain; version=0.0.4");
        assert!(
            r.body
                .contains("shareinsights_requests_total{route=\"POST /dashboards/:name/run\"} 1"),
            "{}",
            r.body
        );
        assert!(r.body.contains(
            "shareinsights_route_cache_hits_total{route=\"GET /:dashboard/ds/:dataset/query\"} 1"
        ));
        // The dashboard run folded per-operator histograms into the registry.
        assert!(
            r.body
                .contains("shareinsights_operator_runs_total{operator=\"groupby\"} 1"),
            "{}",
            r.body
        );
        assert!(r
            .body
            .contains("# TYPE shareinsights_operator_duration_seconds histogram"));
        // Scraping /metrics does not record a trace.
        let before = server.platform().tracer().len();
        server.handle(&Request::get("/metrics"));
        server.handle(&Request::get("/stats"));
        server.handle(&Request::get("/trace/recent"));
        assert_eq!(server.platform().tracer().len(), before);
    }

    #[test]
    fn explicit_trace_id_is_honored_and_fetchable() {
        let server = served();
        let r = server.handle(
            &Request::get("/retail/ds/brand_sales/groupby/region/count/brand")
                .with_header("X-Trace-Id", "10adc0de00000001"),
        );
        assert!(r.is_ok());
        let r = server.handle(&Request::get("/trace/10adc0de00000001"));
        assert!(r.is_ok(), "{}", r.body);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(
            doc.path("trace_id").unwrap().to_value().as_str(),
            Some("10adc0de00000001")
        );
        assert_eq!(
            doc.path("root.name").unwrap().to_value().as_str(),
            Some("GET /:dashboard/ds/:dataset/query")
        );
        // Root → dispatch → {cache_lookup, query_eval}.
        assert_eq!(
            doc.path("root.children.0.name")
                .unwrap()
                .to_value()
                .as_str(),
            Some("dispatch")
        );
        let body = &r.body;
        assert!(body.contains("\"cache_lookup\""), "{body}");
        assert!(body.contains("\"query_eval\""), "{body}");
        assert!(body.contains("\"rows_in\": 3"), "{body}");
        // Cold evaluation spans say how the query routed.
        assert!(body.contains("\"index_hit\""), "{body}");
        assert!(body.contains("\"result_cache_hit\": 0"), "{body}");
        assert!(
            body.contains("\"plan\": \"groupby/region/count/brand\""),
            "{body}"
        );

        // ... and which plan ran: `sort | limit` is one fused top-n that
        // walks the key's postings and gathers only the winners.
        let r = server.handle(
            &Request::get("/retail/ds/brand_sales/sort/region/desc/limit/2")
                .with_header("X-Trace-Id", "10adc0de00000002"),
        );
        assert!(r.is_ok());
        let body = server.handle(&Request::get("/trace/10adc0de00000002")).body;
        assert!(
            body.contains("\"plan\": \"topn([region desc];2)\""),
            "{body}"
        );
        assert!(body.contains("\"rows_materialised\": 2"), "{body}");
        assert!(body.contains("\"index_hit\": 1"), "{body}");

        // Writing the page is its own child of `query_eval`, so the trace
        // separates evaluation from serialisation.
        let doc = shareinsights_tabular::io::json::parse_json(&body).unwrap();
        let dispatch = doc.path("root.children.0").unwrap();
        let eval = (0..)
            .map_while(|i| dispatch.path(&format!("children.{i}")))
            .find(|c| c.path("name").and_then(|n| n.as_str()) == Some("query_eval"))
            .expect("query_eval span");
        let serialise = eval.path("children.0").expect("serialise span");
        assert_eq!(serialise.path("name").unwrap().as_str(), Some("serialise"));
        let attr = |k: &str| serialise.path(&format!("attrs.{k}")).unwrap().to_value();
        assert_eq!(attr("rows").as_int(), Some(2));
        assert_eq!(attr("bytes").as_int(), Some(r.body.len() as i64));
    }

    #[test]
    fn run_trace_grafts_operator_spans() {
        let server = served();
        reupload(&server);
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/run").with_header("x-trace-id", "beef"),
        );
        assert!(r.is_ok());
        let r = server.handle(&Request::get("/trace/beef"));
        assert!(r.is_ok(), "{}", r.body);
        // compile + execute children under dispatch, operator span with row
        // counts under execute.
        assert!(r.body.contains("\"compile\""), "{}", r.body);
        assert!(r.body.contains("\"execute\""), "{}", r.body);
        assert!(r.body.contains("\"brand_sales\""), "{}", r.body);
        assert!(r.body.contains("\"op\": \"groupby\""), "{}", r.body);
        assert!(r.body.contains("\"rows_in\": 4"), "{}", r.body);
        assert!(r.body.contains("\"rows_out\": 3"), "{}", r.body);
        assert!(r.body.contains("\"op\": \"source\""), "{}", r.body);
        assert!(r.body.contains("\"memo\": \"miss\""), "{}", r.body);
        assert!(r.body.contains("\"publish\""), "{}", r.body);
        assert!(r.body.contains("\"install\""), "{}", r.body);

        // The same run again: every flow is a memo hit and no operator runs.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/run")
                .with_header("x-trace-id", "beef2"),
        );
        assert!(r.is_ok());
        let r = server.handle(&Request::get("/trace/beef2"));
        assert!(r.body.contains("\"memo\": \"hit\""), "{}", r.body);
        assert!(!r.body.contains("\"op\": \"groupby\""), "{}", r.body);
        assert!(r.body.contains("\"unchanged\": 1"), "{}", r.body);
    }

    /// The `memo` and `reason` attributes of the span named `name` under
    /// trace `id`'s dispatch span.
    fn memo_verdict(server: &Server, id: &str, name: &str) -> (String, Option<String>) {
        let body = server.handle(&Request::get(&format!("/trace/{id}"))).body;
        let doc = shareinsights_tabular::io::json::parse_json(&body).unwrap();
        let dispatch = doc.path("root.children.0").unwrap();
        let span = (0..)
            .map_while(|i| dispatch.path(&format!("children.{i}")))
            .find(|c| c.path("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("no {name} span: {body}"));
        let attr = |k: &str| {
            let value = span.path(&format!("attrs.{k}"))?;
            value.as_str().map(str::to_string)
        };
        (attr("memo").expect("memo attribute"), attr("reason"))
    }

    #[test]
    fn save_and_run_spans_say_why_the_pipeline_memo_missed() {
        let server = served();
        let (next, platform) = (std::cell::Cell::new(0), server.platform().clone());
        let send = |method: Method, path: &str, body: &str| {
            next.set(next.get() + 1);
            let id = format!("{:x}", next.get());
            let r = server.handle(
                &Request::new(method, path)
                    .with_body(body)
                    .with_header("x-trace-id", &id),
            );
            assert!(r.is_ok(), "{path}: {}", r.body);
            id
        };
        let save = |text: &str| send(Method::Put, "/dashboards/retail/flow", text);
        let hit = ("hit".to_string(), None);
        let miss = |reason: &str| ("miss".to_string(), Some(reason.to_string()));
        let variant = FLOW.replace("out_field: revenue", "out_field: total");

        // The text `served` saved and ran is known; a variant is not.
        assert_eq!(memo_verdict(&server, &save(FLOW), "parse"), hit);
        assert_eq!(
            memo_verdict(&server, &save(&variant), "parse"),
            miss("new_text")
        );
        let run = || send(Method::Post, "/dashboards/retail/run", "");
        assert_eq!(memo_verdict(&server, &run(), "compile"), miss("new_text"));
        assert_eq!(memo_verdict(&server, &run(), "compile"), hit);
        // Each input compile reads besides the text.
        reupload(&server);
        assert_eq!(
            memo_verdict(&server, &run(), "compile"),
            miss("data_folder")
        );
        let sales = shareinsights_tabular::Schema::all_utf8(&["region"]).unwrap();
        let shared = platform.publish_registry();
        shared
            .publish("sales", "other", "sales", sales, None)
            .unwrap();
        assert_eq!(
            memo_verdict(&server, &run(), "compile"),
            miss("shared_schema")
        );
        platform
            .tasks()
            .register_task(Arc::new(shareinsights_engine::ext::FnTask::new(
                "noop",
                |s: &shareinsights_tabular::Schema| Ok(s.clone()),
                |t: &Table| Ok(t.clone()),
            )));
        assert_eq!(memo_verdict(&server, &run(), "compile"), miss("epoch"));
        assert_eq!(memo_verdict(&server, &run(), "compile"), hit);

        // A text pushed out by more than the memo holds comes back as
        // evicted, not new.
        for i in 0..64 {
            let text = FLOW.replace("out_field: revenue", &format!("out_field: r{i}"));
            platform.save_flow("retail", &text).unwrap();
        }
        assert_eq!(memo_verdict(&server, &save(FLOW), "parse"), miss("evicted"));
        // 67 texts admitted into 64 entries.
        let stats = platform.flow_memo().pipeline_stats();
        assert_eq!((stats.entries, stats.evictions), (64, 3), "{stats:?}");
    }

    #[test]
    fn trace_recent_lists_newest_first_with_limit() {
        let server = served();
        for i in 0..3 {
            server.handle(
                &Request::get("/retail/ds/brand_sales")
                    .with_header("x-trace-id", format!("{:x}", 0xa0 + i)),
            );
        }
        let r = server.handle(&Request::get("/trace/recent?limit=2"));
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("traces").unwrap().items().len(), 2);
        assert_eq!(
            doc.path("traces.0.trace_id").unwrap().to_value().as_str(),
            Some("00000000000000a2")
        );
    }

    #[test]
    fn trace_errors_and_sampling_off() {
        let server = served();
        let r = server.handle(&Request::get("/trace/zzz"));
        assert_eq!(r.status, Status::BadRequest);
        assert!(r.body.contains("not a trace id"), "{}", r.body);
        let r = server.handle(&Request::get("/trace/deadbeef"));
        assert_eq!(r.status, Status::NotFound);

        // sampling 0 disables tracing entirely, even for explicit ids.
        server.platform().tracer().set_sample_one_in(0);
        let before = server.platform().tracer().len();
        server.handle(&Request::get("/retail/ds/brand_sales").with_header("x-trace-id", "77"));
        assert_eq!(server.platform().tracer().len(), before);
        let r = server.handle(&Request::get("/trace/77"));
        assert_eq!(r.status, Status::NotFound);
    }

    #[test]
    fn handle_traced_reports_id_and_latency() {
        let server = served();
        let h = server.handle_traced(
            &Request::get("/retail/ds/brand_sales").with_header("x-trace-id", "c0ffee"),
        );
        assert!(h.response.is_ok());
        assert_eq!(h.trace_id, Some(TraceId(0xc0ffee)));
        // Observability routes carry no trace id.
        let h = server.handle_traced(&Request::get("/stats"));
        assert!(h.response.is_ok());
        assert_eq!(h.trace_id, None);
    }

    #[test]
    fn stream_start_push_updates_endpoint_and_invalidates_cache() {
        let server = served();
        let url = "/retail/ds/brand_sales";
        assert!(server.handle(&Request::get(url)).is_ok());
        assert!(server.handle(&Request::get(url)).is_ok());
        assert_eq!(server.cache().stats().hits, 1);

        let r = server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/stream/start",
        ));
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"sources\": [\"sales\"]"), "{}", r.body);
        assert!(
            r.body.contains("\"endpoints\": [\"brand_sales\"]"),
            "{}",
            r.body
        );

        // Declared columns [region, brand, revenue] → headerless CSV.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/stream/push/sales")
                .with_body("west,acme,7\nwest,acme,3\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"rows_in\": 2"), "{}", r.body);
        assert!(r.body.contains("brand_sales:1"), "{}", r.body);

        // The stream tick bumped the generation: cached pages are stale.
        let r = server.handle(&Request::get(url));
        assert!(r.is_ok());
        assert!(r.body.contains("west"), "{}", r.body);
        let s = server.cache().stats();
        assert_eq!((s.hits, s.invalidations), (1, 1));

        // Pushing into a non-source or without a stream is rejected.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/stream/push/ghost")
                .with_body("a,b,1\n"),
        );
        assert_eq!(r.status, Status::Unprocessable);
        let r = server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/stream/stop",
        ));
        assert!(r.body.contains("\"stopped\": true"), "{}", r.body);
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/stream/push/sales")
                .with_body("a,b,1\n"),
        );
        assert_eq!(r.status, Status::Unprocessable);
        assert!(r.body.contains("no active stream"), "{}", r.body);
    }

    #[test]
    fn subscribe_returns_stream_with_snapshot_frame() {
        let server = served();
        let h = server.handle_traced(&Request::get("/retail/ds/brand_sales/subscribe"));
        assert!(h.response.is_ok(), "{}", h.response.body);
        let sub = h.stream.expect("subscription attached");
        let (frames, end) = sub.try_take();
        assert_eq!(frames.len(), 1, "initial snapshot frame");
        assert_eq!(end, crate::stream::SubscriptionEnd::Open);
        let mut parser = crate::wire::SseParser::new();
        let events = parser.feed(&frames[0]).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, "brand_sales");
        assert!(events[0].data.contains("total_rows"), "{}", events[0].data);
        let snapshot_generation = events[0].id;

        // A push delivers a delta frame with a larger generation.
        server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/stream/start",
        ));
        server.handle(
            &Request::new(Method::Post, "/dashboards/retail/stream/push/sales")
                .with_body("east,zest,9\n"),
        );
        let (frames, _) = sub.try_take();
        assert_eq!(frames.len(), 1);
        let events = parser.feed(&frames[0]).unwrap();
        assert!(events[0].id > snapshot_generation);
        assert!(events[0].data.contains("east"), "{}", events[0].data);

        // The serving loop's tidy-up: deregister and drop the gauge.
        server.stream_hub().unsubscribe(&sub);
        server.platform().api_metrics().record_stream_unsubscribe();
        assert_eq!(server.stream_hub().subscriber_count(), 0);

        // Subscribing to a dataset that doesn't exist is a 404; handle()
        // without a serving loop tidies its short-lived subscription.
        let r = server.handle(&Request::get("/retail/ds/ghost/subscribe"));
        assert_eq!(r.status, Status::NotFound);
        let r = server.handle(&Request::get("/retail/ds/brand_sales/subscribe"));
        assert!(r.is_ok());
        assert_eq!(server.stream_hub().subscriber_count(), 0);
        assert_eq!(server.platform().api_metrics().stream().subscribers, 0);
    }

    /// A weak handle on `retail/brand_sales`'s warm index, built by a cold
    /// query if the slot holds none at the live generation.
    fn warm_index(server: &Server) -> std::sync::Weak<IndexedTable> {
        let query = Request::get("/retail/ds/brand_sales/groupby/region/count/brand");
        assert!(server.handle(&query).is_ok());
        let slot = server.index_slot("retail/brand_sales");
        let warm = slot.lock();
        let (stamp, ix) = warm.as_ref().expect("a read warms the index");
        assert_eq!(*stamp, server.live_generation("retail", "brand_sales"));
        Arc::downgrade(ix)
    }

    #[test]
    fn a_rerun_or_stream_push_releases_the_stale_warm_index() {
        let server = served();
        let run = Request::new(Method::Post, "/dashboards/retail/run");
        let index = warm_index(&server);
        // A re-run the flow memo answers leaves the data, so the index stays.
        assert!(server.handle(&run).is_ok());
        assert!(
            index.upgrade().is_some(),
            "an unchanged endpoint lost its index"
        );
        reupload(&server);
        assert!(server.handle(&run).is_ok());
        assert!(index.upgrade().is_none(), "a re-run kept the stale index");

        let index = warm_index(&server);
        let start = Request::new(Method::Post, "/dashboards/retail/stream/start");
        assert!(server.handle(&start).is_ok());
        assert!(index.upgrade().is_some(), "starting a stream moves no data");
        let push = Request::new(Method::Post, "/dashboards/retail/stream/push/sales")
            .with_body("west,acme,7\n");
        assert!(server.handle(&push).is_ok());
        assert!(
            index.upgrade().is_none(),
            "a stream push kept the stale index"
        );
        // The next read builds the index over the pushed rows.
        let r = server.handle(&Request::get("/retail/ds/brand_sales/filter/region/west"));
        assert!(r.body.contains("acme"), "{}", r.body);
        assert!(warm_index(&server).upgrade().is_some());
    }

    #[test]
    fn a_producer_rerun_releases_a_consumers_stale_index() {
        let platform = Platform::new();
        platform.upload_data(
            "retail",
            "sales.csv",
            "region,brand,revenue\nnorth,acme,10\n",
        );
        let server = Server::new(platform);
        let flow = format!("{FLOW}  D.brand_sales:\n    publish: brand_sales\n");
        for request in [
            Request::new(Method::Put, "/dashboards/retail/flow").with_body(flow),
            Request::new(Method::Post, "/dashboards/retail/run"),
            Request::new(Method::Post, "/dashboards/other/create"),
            Request::get("/other/ds/brand_sales/filter/region/north"),
        ] {
            let r = server.handle(&request);
            assert!(r.is_ok(), "{}", r.body);
        }
        let index = {
            let slot = server.index_slot("other/brand_sales");
            let warm = slot.lock();
            Arc::downgrade(&warm.as_ref().expect("the consumer's read warms it").1)
        };
        reupload(&server);
        assert!(server
            .handle(&Request::new(Method::Post, "/dashboards/retail/run"))
            .is_ok());
        assert!(index.upgrade().is_none(), "the consumer kept a stale index");
    }

    #[test]
    fn stream_metrics_surface_in_stats_and_metrics() {
        let server = served();
        server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/stream/start",
        ));
        server.handle(
            &Request::new(Method::Post, "/dashboards/retail/stream/push/sales")
                .with_body("north,acme,2\n"),
        );
        let r = server.handle(&Request::get("/stats"));
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(
            doc.path("stream.ticks").unwrap().to_value().as_int(),
            Some(1)
        );
        assert_eq!(
            doc.path("stream.rows_in").unwrap().to_value().as_int(),
            Some(1)
        );
        let m = server.handle(&Request::get("/metrics"));
        assert!(
            m.body.contains("shareinsights_stream_ticks_total 1"),
            "{}",
            m.body
        );
        assert!(m.body.contains("shareinsights_stream_rows_in_total 1"));
        assert!(m
            .body
            .contains("# TYPE shareinsights_stream_subscribers gauge"));
    }

    fn post_sql(server: &Server, query: &str) -> Response {
        server.handle(&Request::new(Method::Post, "/retail/ds/brand_sales/sql").with_body(query))
    }

    #[test]
    fn sql_route_matches_path_route_byte_for_byte() {
        let server = served();
        let via_path = server.handle(&Request::get(
            "/retail/ds/brand_sales/groupby/region/sum/revenue",
        ));
        let via_sql = post_sql(
            &server,
            "select region, sum(revenue) from brand_sales group by region",
        );
        assert!(via_sql.is_ok(), "{}", via_sql.body);
        assert_eq!(via_path.body, via_sql.body);

        // A shape the path grammar can't spell still evaluates.
        let r = post_sql(
            &server,
            "select region, brand from brand_sales where revenue > 5 order by revenue desc",
        );
        assert!(r.is_ok(), "{}", r.body);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("columns.0").unwrap().as_str(), Some("region"));
        assert_eq!(doc.path("columns.1").unwrap().as_str(), Some("brand"));
    }

    #[test]
    fn canonical_sql_shares_cache_entries_with_path_route() {
        let server = served();
        server.handle(&Request::get(
            "/retail/ds/brand_sales/groupby/region/sum/revenue",
        ));
        let before = server.cache().stats();
        assert_eq!((before.hits, before.entries), (0, 1));
        // The equivalent SQL computes the same page key → a cache *hit*,
        // not a second entry.
        let r = post_sql(
            &server,
            "select region, sum(revenue) from brand_sales group by region",
        );
        assert!(r.is_ok());
        let after = server.cache().stats();
        assert_eq!((after.hits, after.entries), (1, 1));
        let sql = server.platform().api_metrics().sql();
        assert_eq!((sql.queries, sql.path_shared), (1, 1));
    }

    #[test]
    fn sql_results_cache_and_invalidate_on_generation() {
        let server = served();
        // Non-canonical shape: keyed under its own `sql:` result key.
        let q = "select region, brand from brand_sales where revenue > 5";
        assert!(post_sql(&server, q).is_ok());
        assert!(post_sql(&server, q).is_ok());
        let s = server.cache().stats();
        assert_eq!((s.hits, s.misses), (1, 1), "same text → page-cache hit");
        // A re-run over a re-upload bumps the generation: the cached entry
        // is stale.
        reupload(&server);
        assert!(server
            .handle(&Request::new(Method::Post, "/dashboards/retail/run"))
            .is_ok());
        assert!(post_sql(&server, q).is_ok());
        let s = server.cache().stats();
        assert_eq!((s.hits, s.misses), (1, 2), "new generation → miss");
        let sql = server.platform().api_metrics().sql();
        assert_eq!((sql.queries, sql.path_shared, sql.parse_errors), (3, 0, 0));
    }

    #[test]
    fn malformed_queries_return_the_same_structured_400_on_both_routes() {
        let server = served();
        // SQL route: spanned diagnostic.
        let r = post_sql(&server, "select from brand_sales");
        assert_eq!(r.status, Status::BadRequest);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("error.kind").unwrap().as_str(), Some("parse"));
        assert_eq!(doc.path("error.line").unwrap().to_value().as_int(), Some(1));
        assert_eq!(
            doc.path("error.column").unwrap().to_value().as_int(),
            Some(8)
        );
        assert!(doc.path("error.message").unwrap().as_str().is_some());
        // Path route: same shape, position unknown (line/column 0).
        let r = server.handle(&Request::get("/retail/ds/brand_sales/warp/9"));
        assert_eq!(r.status, Status::BadRequest);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("error.kind").unwrap().as_str(), Some("parse"));
        assert_eq!(doc.path("error.line").unwrap().to_value().as_int(), Some(0));
        assert!(doc
            .path("error.message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown query operation"));
        // Both rejections land on the shared counter.
        assert_eq!(server.platform().api_metrics().sql().parse_errors, 2);
    }

    #[test]
    fn sql_from_must_name_the_url_dataset() {
        let server = served();
        let r = post_sql(&server, "select * from other_table");
        assert_eq!(r.status, Status::BadRequest);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("error.kind").unwrap().as_str(), Some("semantic"));
        assert!(doc
            .path("error.message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("brand_sales"));
    }

    #[test]
    fn sql_join_resolves_sibling_endpoints() {
        let server = served();
        // Self-join on the grouping key: every row matches itself (and the
        // other rows sharing its region).
        let r = post_sql(
            &server,
            "select * from brand_sales join brand_sales on region = region limit 2",
        );
        assert!(r.is_ok(), "{}", r.body);
        // A join against a missing endpoint is a structured 400.
        let r = post_sql(&server, "select * from brand_sales join ghost on a = b");
        assert_eq!(r.status, Status::BadRequest);
        assert!(r.body.contains("no endpoint data 'ghost'"), "{}", r.body);
    }

    #[test]
    fn sql_counters_surface_in_stats_and_metrics() {
        let server = served();
        post_sql(
            &server,
            "select region, sum(revenue) from brand_sales group by region",
        );
        post_sql(&server, "not sql at all");
        let r = server.handle(&Request::get("/stats"));
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(
            doc.path("sql.queries").unwrap().to_value().as_int(),
            Some(1)
        );
        assert_eq!(
            doc.path("sql.parse_errors").unwrap().to_value().as_int(),
            Some(1)
        );
        assert_eq!(
            doc.path("sql.path_shared").unwrap().to_value().as_int(),
            Some(1)
        );
        let m = server.handle(&Request::get("/metrics"));
        assert!(m.body.contains("shareinsights_sql_queries_total 1"));
        assert!(m.body.contains("shareinsights_sql_parse_errors_total 1"));
        assert!(m.body.contains("shareinsights_sql_path_shared_total 1"));
        assert!(m.body.contains("shareinsights_sql_parse_seconds_total"));
        // The POST route meters under its own label.
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(
            doc.path("routes.POST /:dashboard/ds/:dataset/sql.count")
                .unwrap()
                .to_value()
                .as_int(),
            Some(2)
        );
    }

    #[test]
    fn shared_objects_browsable_from_consumers() {
        let server = served();
        // Publish from 'retail', then browse the shared name from another
        // dashboard.
        let with_publish = FLOW.replace(
            "F:\n  +D.brand_sales: D.sales | T.by_brand\n",
            "F:\n  +D.brand_sales: D.sales | T.by_brand\n  D.brand_sales:\n    publish: brand_sales\n",
        );
        server
            .handle(&Request::new(Method::Put, "/dashboards/retail/flow").with_body(&with_publish));
        server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
        server.handle(&Request::new(Method::Post, "/dashboards/viewer/create"));
        let r = server.handle(&Request::get("/viewer/ds/brand_sales"));
        assert!(r.is_ok(), "{}", r.body);
    }

    // -- _system self-observability -----------------------------------------

    #[test]
    fn system_dashboard_serves_scraped_history() {
        let server = served();
        // Empty until the first scrape; still a well-formed table.
        let r = server.handle(&Request::get("/_system/ds/telemetry"));
        assert!(r.is_ok(), "{}", r.body);
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(doc.path("total_rows").unwrap().to_value().as_int(), Some(0));

        // Generate some traffic, then scrape.
        server.handle(&Request::get("/retail/ds/brand_sales"));
        let outcome = server.scrape_telemetry();
        assert!(outcome.samples > 0, "registry flattened into samples");
        let r = server.handle(&Request::get("/_system/ds/telemetry"));
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        let rows = doc.path("total_rows").unwrap().to_value().as_int().unwrap();
        assert_eq!(rows, outcome.samples as i64);
        assert_eq!(doc.path("columns.0").unwrap().as_str(), Some("ts"));
        assert_eq!(doc.path("columns.1").unwrap().as_str(), Some("family"));
        assert_eq!(doc.path("columns.2").unwrap().as_str(), Some("label"));
        assert_eq!(doc.path("columns.3").unwrap().as_str(), Some("value"));
        // The dataset listing exposes the built-in name.
        let r = server.handle(&Request::get("/_system/ds"));
        assert_eq!(r.body, "[\"telemetry\"]");
        // Unknown datasets under _system are 404s, not user-data lookups.
        let r = server.handle(&Request::get("/_system/ds/ghost"));
        assert_eq!(r.status, Status::NotFound);
    }

    /// `_system/ds/telemetry` as `(family, label, value)` rows.
    fn telemetry_rows(server: &Server) -> Vec<(String, String, String)> {
        let r = server.handle(&Request::get("/_system/ds/telemetry"));
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        let mut cells = Vec::new();
        crate::metrics::tests::json_leaves(doc.path("rows").unwrap(), &[], &mut cells);
        cells
            .chunks(4)
            .map(|row| (row[1].1.clone(), row[2].1.clone(), row[3].1.clone()))
            .collect()
    }

    #[test]
    fn system_scrape_carries_every_stats_family_and_field() {
        // ROADMAP aim 4 bug: ingest, selfscrape, sql.prepared_* and
        // stream.peak_subscribers never reached `_system`. Walk the
        // `/stats` body, not a hand list.
        let server = served();
        let query = Request::get("/retail/ds/brand_sales/groupby/region/count/brand");
        server.handle(&query);
        server.handle(&query);
        post_sql(&server, "select region from brand_sales");
        post_sql(&server, "select region from brand_sales");
        let ingest = Request::new(Method::Post, "/dashboards/retail/ds/brand_sales/ingest")
            .with_body("region,brand,revenue\nwest,acme,3\n");
        assert!(server.handle(&ingest).is_ok());
        server.scrape_telemetry();
        let stats = server.handle(&Request::get("/stats"));
        let stats = shareinsights_tabular::io::json::parse_json(&stats.body).unwrap();
        let rows = telemetry_rows(&server);

        let families = server.metric_families();
        let mut leaves = Vec::new();
        crate::metrics::tests::json_leaves(&stats, &[], &mut leaves);
        let mut checked = std::collections::BTreeSet::new();
        let mut stats_only = 0;
        for (path, value) in &leaves {
            let (family, key) = (path[0].as_str(), path[path.len() - 1].as_str());
            let middle = path[1..path.len() - 1].join(".");
            if key.parse::<usize>().is_ok() {
                // A raw bucket count.
                stats_only += 1;
                continue;
            }
            let label = match middle.as_str() {
                "" => key.to_string(),
                series => format!("{series}|{key}"),
            };
            let row = rows
                .iter()
                .find(|(f, l, _)| f == family && *l == label)
                .unwrap_or_else(|| panic!("{family}|{label} is in /stats, not in _system"));
            // The scrape records itself, and the process and its one
            // morsel pool (which the other tests of this binary drive at
            // the same time) move on; every other series stands still
            // between the scrape and `/stats`.
            if !["selfscrape", "process", "pool"].contains(&family) {
                assert_eq!(&row.2, value, "{family}|{label}");
            }
            checked.insert(family);
        }
        let names: std::collections::BTreeSet<&str> = families.iter().map(|f| f.name).collect();
        assert_eq!(checked, names);
        assert_eq!(
            rows.len(),
            leaves.len() - stats_only,
            "no row without a leaf"
        );
        // The counters the old hand lists dropped are live, not just present.
        let value = |family: &str, label: &str| {
            let row = rows.iter().find(|(f, l, _)| f == family && l == label);
            row.unwrap().2.parse::<i64>().unwrap()
        };
        assert_eq!(value("sql", "prepared_hits"), 1);
        assert_eq!(value("ingest", "requests"), 1);
        assert!(value("result_cache", "misses") >= 1);
        assert!(value("cache", "hits") >= 1);
    }

    #[test]
    fn readme_lists_every_metric_family() {
        // The README table between the markers is the registry, rendered:
        // a family added or renamed without the doc fails here.
        let readme = include_str!("../../../README.md");
        let begin = readme
            .find("<!-- metric-families:begin")
            .expect("begin marker");
        let end = readme.find("<!-- metric-families:end").expect("end marker");
        let documented: Vec<&str> = readme[begin..end]
            .lines()
            .filter(|l| l.starts_with("| `"))
            .collect();
        let rendered: Vec<String> = Server::new(Platform::new())
            .metric_families()
            .iter()
            .map(|f| {
                let mut series = Vec::new();
                if !f.fields.is_empty() {
                    series.push(format!("`{}_*`", f.prom));
                }
                if let Some(b) = &f.buckets {
                    series.push(format!("`{}`", b.prom));
                }
                if let Some(set) = &f.series {
                    series.push(format!("`{}_*{{{}=…}}`", set.prom, set.label));
                }
                format!("| `{}` | {} |", f.name, series.join(", "))
            })
            .collect();
        assert_eq!(documented, rendered, "README family table is stale");
    }

    #[test]
    fn system_sql_and_path_queries_are_byte_identical() {
        let server = served();
        server.handle(&Request::get("/retail/ds/brand_sales"));
        server.scrape_telemetry();
        let via_path = server.handle(&Request::get(
            "/_system/ds/telemetry/groupby/family/max/value",
        ));
        assert!(via_path.is_ok(), "{}", via_path.body);
        let via_sql = server.handle(
            &Request::new(Method::Post, "/_system/ds/telemetry/sql")
                .with_body("select family, max(value) from telemetry group by family"),
        );
        assert!(via_sql.is_ok(), "{}", via_sql.body);
        assert_eq!(via_path.body, via_sql.body);
        // Live history: the route family the warm-up traffic hit is there.
        assert!(via_sql.body.contains("route"), "{}", via_sql.body);
    }

    #[test]
    fn system_queries_invalidate_on_each_scrape() {
        let server = served();
        server.scrape_telemetry();
        let q = "/_system/ds/telemetry/groupby/family/count/label";
        server.handle(&Request::get(q));
        server.handle(&Request::get(q));
        let s = server.cache().stats();
        assert_eq!((s.hits, s.misses), (1, 1), "second read hits the cache");
        // A new scrape bumps the ring generation → cached page is stale.
        server.scrape_telemetry();
        server.handle(&Request::get(q));
        let s = server.cache().stats();
        assert_eq!((s.hits, s.misses), (1, 2), "scrape invalidates");
    }

    #[test]
    fn system_subscribe_receives_scrape_delta_frames() {
        let server = served();
        server.scrape_telemetry();
        let h = server.handle_traced(&Request::get("/_system/ds/telemetry/subscribe"));
        assert!(h.response.is_ok(), "{}", h.response.body);
        let sub = h.stream.expect("subscription attached");
        let (frames, _) = sub.try_take();
        assert_eq!(frames.len(), 1, "initial snapshot frame");
        let mut parser = crate::wire::SseParser::new();
        let events = parser.feed(&frames[0]).unwrap();
        assert_eq!(events[0].event, "telemetry");
        let snapshot_generation = events[0].id;

        let outcome = server.scrape_telemetry();
        let (frames, _) = sub.try_take();
        assert_eq!(frames.len(), 1, "scrape publishes a delta frame");
        let events = parser.feed(&frames[0]).unwrap();
        assert_eq!(events[0].id, outcome.generation);
        assert!(events[0].id > snapshot_generation);
        // The delta frame carries only this tick's samples.
        let doc = shareinsights_tabular::io::json::parse_json(&events[0].data).unwrap();
        assert_eq!(
            doc.path("total_rows").unwrap().to_value().as_int(),
            Some(outcome.delta.num_rows() as i64)
        );
        server.stream_hub().unsubscribe(&sub);
        server.platform().api_metrics().record_stream_unsubscribe();
    }

    #[test]
    fn system_namespace_rejects_writes() {
        let server = served();
        let r = server.handle(&Request::new(Method::Post, "/dashboards/_system/create"));
        assert_eq!(r.status, Status::Conflict);
        assert!(r.body.contains("reserved"), "{}", r.body);
        let r =
            server.handle(&Request::new(Method::Put, "/dashboards/_system/flow").with_body(FLOW));
        assert_eq!(r.status, Status::Conflict);
        let r = server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/fork/_system",
        ));
        assert_eq!(r.status, Status::Conflict);
    }

    #[test]
    fn selfscrape_and_process_metrics_surface() {
        let server = served();
        server.scrape_telemetry();
        server.scrape_telemetry();
        let r = server.handle(&Request::get("/stats"));
        let doc = shareinsights_tabular::io::json::parse_json(&r.body).unwrap();
        assert_eq!(
            doc.path("selfscrape.scrapes").unwrap().to_value().as_int(),
            Some(2)
        );
        assert!(
            doc.path("selfscrape.samples")
                .unwrap()
                .to_value()
                .as_int()
                .unwrap()
                > 0
        );
        let retained = doc
            .path("selfscrape.retained")
            .unwrap()
            .to_value()
            .as_int()
            .unwrap();
        assert!(retained > 0, "retained gauge tracks the ring");
        // Process gauges are live on Linux (zeros elsewhere, still present).
        let rss = doc
            .path("process.rss_bytes")
            .unwrap()
            .to_value()
            .as_int()
            .unwrap();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "RSS read from /proc/self");
        }
        let m = server.handle(&Request::get("/metrics"));
        assert!(m.body.contains("shareinsights_selfscrape_scrapes_total 2"));
        assert!(
            m.body.contains("shareinsights_selfscrape_retained_samples"),
            "{}",
            m.body
        );
        assert!(m.body.contains("shareinsights_process_rss_bytes"));
        assert!(m.body.contains("shareinsights_process_uptime_seconds"));
    }

    #[test]
    fn sql_spans_nest_under_the_request_root() {
        let server = served();
        let r = server.handle(
            &Request::new(Method::Post, "/retail/ds/brand_sales/sql")
                .with_body("select region, sum(revenue) from brand_sales group by region")
                .with_header("x-trace-id", "beef"),
        );
        assert!(r.is_ok(), "{}", r.body);
        let trace = server
            .platform()
            .tracer()
            .find(shareinsights_core::TraceId(0xbeef))
            .expect("trace recorded");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"sql_parse"), "{names:?}");
        assert!(names.contains(&"sql_lower"), "{names:?}");
        // Both hang off the dispatch span inside the request's trace tree.
        let dispatch = trace
            .spans
            .iter()
            .find(|s| s.name == "dispatch")
            .expect("dispatch span");
        let kids = trace.children_of(dispatch.id);
        let kid_names: Vec<&str> = kids.iter().map(|s| s.name.as_str()).collect();
        assert!(
            kid_names.contains(&"sql_parse") && kid_names.contains(&"sql_lower"),
            "parse/lower hang off dispatch: {kid_names:?}"
        );
        let lower = kids.iter().find(|s| s.name == "sql_lower").unwrap();
        assert!(lower.attr("stages").is_some(), "lower span carries attrs");
    }

    #[test]
    fn ingest_creates_and_appends_endpoint_rows() {
        let server = served();
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/events/ingest")
                .with_body("region,brand,revenue\nwest,omni,7\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"rows_appended\": 1"), "{}", r.body);
        assert!(r.body.contains("\"total_rows\": 1"), "{}", r.body);
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/events/ingest")
                .with_body("region,brand,revenue\neast,omni,3\nwest,zest,2\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"rows_appended\": 2"), "{}", r.body);
        assert!(r.body.contains("\"total_rows\": 3"), "{}", r.body);
        // The appended endpoint serves through the normal data API.
        let r = server.handle(&Request::get("/retail/ds/events"));
        assert!(r.is_ok(), "{}", r.body);
        assert!(
            r.body.contains("omni") && r.body.contains("zest"),
            "{}",
            r.body
        );
        let stats = server.platform().api_metrics().ingest();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.rows, 3);
    }

    #[test]
    fn ingest_jsonl_derives_columns_from_first_record() {
        let server = served();
        let r = server.handle(
            &Request::new(
                Method::Post,
                "/dashboards/retail/ds/clicks/ingest?format=jsonl",
            )
            .with_body("{\"page\": \"home\", \"hits\": 3}\n{\"page\": \"docs\", \"hits\": 11}\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"rows_appended\": 2"), "{}", r.body);
        let r = server.handle(&Request::get("/retail/ds/clicks/sort/hits/desc"));
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("docs"), "{}", r.body);
    }

    #[test]
    fn ingest_merges_warm_index_instead_of_rebuilding() {
        let server = served();
        // Warm the endpoint's index with a filtered query.
        let r = server.handle(&Request::get("/retail/ds/brand_sales/filter/brand/acme"));
        assert!(r.is_ok(), "{}", r.body);
        let builds_before = server.platform().api_metrics().index().builds;
        assert!(builds_before > 0, "filter query warms the index");
        // Append matching-schema rows: the warm index merges in place.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/brand_sales/ingest")
                .with_body("region,brand,revenue\nwest,omni,40\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"index\": \"merged\""), "{}", r.body);
        assert_eq!(server.platform().api_metrics().ingest().index_merges, 1);
        // The re-query sees the appended row without a cold rebuild.
        let r = server.handle(&Request::get("/retail/ds/brand_sales/filter/brand/omni"));
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("omni"), "{}", r.body);
        assert_eq!(
            server.platform().api_metrics().index().builds,
            builds_before,
            "append kept the index warm (no rebuild)"
        );
    }

    #[test]
    fn ingest_that_does_not_unify_leaves_the_endpoint_and_its_warm_index_whole() {
        let server = served();
        let read = "/retail/ds/brand_sales/groupby/brand/sum/revenue";
        let warmed = server.handle(&Request::get(read));
        assert!(warmed.is_ok(), "{}", warmed.body);
        let rows = || {
            server
                .platform()
                .dashboard("retail")
                .unwrap()
                .endpoint_tables["brand_sales"]
                .num_rows()
        };
        let (rows_before, generation) = (rows(), server.live_generation("retail", "brand_sales"));
        let builds = server.platform().api_metrics().index().builds;
        assert!(builds > 0, "the read warmed an index");
        // The header names a column the endpoint lacks: no schema unifies.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/brand_sales/ingest")
                .with_body("region,brand,margin\nwest,omni,4\n"),
        );
        assert_eq!(r.status, Status::Unprocessable, "{}", r.body);
        assert_eq!(rows(), rows_before);
        assert_eq!(server.live_generation("retail", "brand_sales"), generation);
        // A read the page cache cannot answer finds the warm index back.
        let again = server.handle(&Request::get(&format!("{read}/limit/1000")));
        assert_eq!(again.body, warmed.body);
        assert_eq!(server.platform().api_metrics().index().builds, builds);
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/brand_sales/ingest")
                .with_body("region,brand,revenue\nwest,omni,40\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"index\": \"merged\""), "{}", r.body);
        assert_eq!(rows(), rows_before + 1);
        assert_eq!(server.platform().api_metrics().index().builds, builds);
    }

    #[test]
    fn ingest_skips_merge_when_warm_index_is_stale() {
        let server = served();
        // Warm the index, then bump the generation behind the registry's
        // back (a re-run replaces the endpoint table): the entry is now
        // stamped at an older generation.
        let r = server.handle(&Request::get("/retail/ds/brand_sales/filter/brand/acme"));
        assert!(r.is_ok(), "{}", r.body);
        reupload(&server);
        server.platform().run_dashboard("retail").unwrap();
        // The append must refuse to merge the stale wrapper — merging it
        // would stamp an index missing the re-run's rows at the live
        // generation — and fall back to a lazy cold rebuild.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/brand_sales/ingest")
                .with_body("region,brand,revenue\nwest,omni,40\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("\"index\": \"cold\""), "{}", r.body);
        assert_eq!(server.platform().api_metrics().ingest().index_merges, 0);
        // Queries after the append still serve correct, complete data.
        let r = server.handle(&Request::get("/retail/ds/brand_sales/filter/brand/omni"));
        assert!(r.is_ok(), "{}", r.body);
        assert!(r.body.contains("omni"), "{}", r.body);
        let r = server.handle(&Request::get("/retail/ds/brand_sales/filter/brand/acme"));
        assert!(r.is_ok() && r.body.contains("acme"), "{}", r.body);
    }

    #[test]
    fn ingest_rejects_bad_targets_and_bodies() {
        let server = served();
        // Reserved namespace.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/_system/ds/telemetry/ingest")
                .with_body("a\n1\n"),
        );
        assert_eq!(r.status, Status::Conflict);
        // Unknown dashboard.
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/nope/ds/x/ingest").with_body("a\n1\n"),
        );
        assert_eq!(r.status, Status::NotFound);
        // Unsupported format.
        let r = server.handle(
            &Request::new(
                Method::Post,
                "/dashboards/retail/ds/events/ingest?format=parquet",
            )
            .with_body("a\n1\n"),
        );
        assert_eq!(r.status, Status::BadRequest);
        // Empty body: no records, endpoint untouched.
        let r = server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/ds/events/ingest",
        ));
        assert_eq!(r.status, Status::BadRequest);
        let r = server.handle(&Request::get("/retail/ds"));
        assert!(!r.body.contains("events"), "failed ingest left no endpoint");
        assert!(server.platform().api_metrics().ingest().aborted >= 1);
        // GET on the ingest route is a 405 with an Allow-style catch.
        let r = server.handle(&Request::get("/dashboards/retail/ds/events/ingest"));
        assert_eq!(r.status, Status::MethodNotAllowed);
    }

    #[test]
    fn ingest_decode_error_leaves_endpoint_unchanged() {
        let server = served();
        let before = server.handle(&Request::get("/retail/ds"));
        let r = server.handle(
            &Request::new(
                Method::Post,
                "/dashboards/retail/ds/bad/ingest?format=jsonl",
            )
            .with_body("{\"a\": 1}\nnot json at all{{{\n"),
        );
        assert_eq!(r.status, Status::BadRequest, "{}", r.body);
        let after = server.handle(&Request::get("/retail/ds"));
        assert_eq!(before.body, after.body, "failed ingest is all-or-nothing");
    }

    #[test]
    fn prepared_sql_skips_parse_and_lower_on_repeat() {
        let server = served();
        let sql = "SELECT brand, revenue FROM brand_sales ORDER BY revenue DESC";
        let cold =
            server.handle(&Request::new(Method::Post, "/retail/ds/brand_sales/sql").with_body(sql));
        assert!(cold.is_ok(), "{}", cold.body);
        assert_eq!(server.platform().api_metrics().sql().prepared_hits, 0);
        let warm =
            server.handle(&Request::new(Method::Post, "/retail/ds/brand_sales/sql").with_body(sql));
        assert_eq!(cold.body, warm.body, "prepared plan serves identical bytes");
        let stats = server.platform().api_metrics().sql();
        assert_eq!(stats.prepared_hits, 1);
        assert_eq!(stats.queries, 2, "hits still count as SQL queries");
    }

    #[test]
    fn prepared_sql_still_checks_from_against_the_route() {
        let server = served();
        let sql = "SELECT brand FROM brand_sales";
        assert!(server
            .handle(&Request::new(Method::Post, "/retail/ds/brand_sales/sql").with_body(sql))
            .is_ok());
        // Same text on a different dataset's route must not reuse the plan.
        let r = server.handle(&Request::new(Method::Post, "/retail/ds/other/sql").with_body(sql));
        assert_eq!(r.status, Status::BadRequest);
        assert!(r.body.contains("FROM names"), "{}", r.body);
    }

    #[test]
    fn prepared_sql_sees_appended_rows() {
        // Generation-stamped caches must invalidate around the prepared
        // plan: the plan is reused, the result is not.
        let server = served();
        let sql = "SELECT brand, revenue FROM brand_sales WHERE brand = 'omni'";
        let before =
            server.handle(&Request::new(Method::Post, "/retail/ds/brand_sales/sql").with_body(sql));
        assert!(before.is_ok(), "{}", before.body);
        assert!(!before.body.contains("omni"), "{}", before.body);
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/brand_sales/ingest")
                .with_body("region,brand,revenue\nwest,omni,40\n"),
        );
        assert!(r.is_ok(), "{}", r.body);
        let after =
            server.handle(&Request::new(Method::Post, "/retail/ds/brand_sales/sql").with_body(sql));
        assert!(after.body.contains("omni"), "{}", after.body);
        assert_eq!(server.platform().api_metrics().sql().prepared_hits, 1);
    }

    #[test]
    fn stream_push_spans_parent_the_run_with_memo_verdicts() {
        use shareinsights_core::AttrValue;
        let server = served();
        server.handle(&Request::new(
            Method::Post,
            "/dashboards/retail/stream/start",
        ));
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/stream/push/sales")
                .with_body("east,zest,9\n")
                .with_header("x-trace-id", "feed"),
        );
        assert!(r.is_ok(), "{}", r.body);
        let trace = server
            .platform()
            .tracer()
            .find(shareinsights_core::TraceId(0xfeed))
            .expect("trace recorded");
        let tick = trace
            .spans
            .iter()
            .find(|s| s.name == "stream_push")
            .expect("stream_push span");
        assert_eq!(tick.attr("source"), Some(&AttrValue::Str("sales".into())));
        assert_eq!(tick.attr("rows_in"), Some(&AttrValue::Int(1)));
        // The tick is a run: its own phases hang under the push span.
        let phases = trace.children_of(tick.id);
        let names: Vec<&str> = phases.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["compile", "execute", "publish", "install"]);
        let flow = trace
            .children_of(phases[1].id)
            .into_iter()
            .find(|s| s.name == "brand_sales")
            .expect("flow span under execute");
        assert_eq!(flow.attr("op"), Some(&AttrValue::Str("flow".into())));
        assert_eq!(flow.attr("memo"), Some(&AttrValue::Str("miss".into())));
    }
}
