//! Platform telemetry: the application/execution logs the paper's §5.2.1
//! dashboards were built from ("the data generated during the competition —
//! application logs, flow file growth, error messages, execution logs —
//! were used to build dashboards … figure 31 highlights the popular
//! operators and widgets").
//!
//! Also hosts the serving-path observability ([`ApiMetrics`]): per-route
//! request counts, error counts, cache hit/miss tallies and latency
//! histograms, recorded by the data-API server and exposed at `/stats`.

use parking_lot::RwLock;
use shareinsights_flowfile::ast::FlowFile;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// What kind of platform operation an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// Flow file saved (a commit).
    Save,
    /// Compilation attempt.
    Compile,
    /// Batch execution (a "run" in figure 32's sense).
    Run,
    /// Dashboard opened / interaction session.
    Open,
    /// Fork of another dashboard.
    Fork,
}

/// One telemetry event.
#[derive(Debug, Clone)]
pub struct RunEvent {
    /// Dashboard name.
    pub dashboard: String,
    /// Operation.
    pub kind: RunKind,
    /// Success?
    pub success: bool,
    /// Error text when failed.
    pub error: Option<String>,
    /// Flow-file size in bytes at the time.
    pub flow_bytes: usize,
    /// Task types used (type name per task, with multiplicity).
    pub operators: Vec<String>,
    /// Widget types used (with multiplicity).
    pub widgets: Vec<String>,
    /// Monotonic sequence number.
    pub seq: u64,
}

/// Aggregated operator/widget usage — the figure-31 series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageCounts {
    /// operator (task type) -> occurrences.
    pub operators: BTreeMap<String, usize>,
    /// widget type -> occurrences.
    pub widgets: BTreeMap<String, usize>,
}

impl UsageCounts {
    /// Operators ranked by popularity (descending, name tiebreak).
    pub fn top_operators(&self) -> Vec<(&str, usize)> {
        let mut v: Vec<(&str, usize)> = self
            .operators
            .iter()
            .map(|(k, &c)| (k.as_str(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Widgets ranked by popularity.
    pub fn top_widgets(&self) -> Vec<(&str, usize)> {
        let mut v: Vec<(&str, usize)> =
            self.widgets.iter().map(|(k, &c)| (k.as_str(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

/// Extract the operator/widget usage of one flow file.
pub fn usage_of(ff: &FlowFile) -> (Vec<String>, Vec<String>) {
    let operators = ff.tasks.iter().map(|t| t.task_type.clone()).collect();
    let widgets = ff.widgets.iter().map(|w| w.widget_type.clone()).collect();
    (operators, widgets)
}

/// Events [`RunLog::events`] keeps, newest last. Older ones live on only
/// in the log's aggregates.
const RECENT_EVENTS: usize = 128;

/// What the log keeps: each event folded, as it is recorded, into the
/// aggregates its readers ask for, plus a bounded ring of recent events.
#[derive(Debug, Default)]
struct LogInner {
    /// Events recorded so far (the last one's `seq`).
    recorded: u64,
    recent: VecDeque<RunEvent>,
    /// dashboard -> events per [`RunKind`] (indexed by discriminant).
    counts: BTreeMap<String, [usize; 5]>,
    /// Operators and widgets of successful runs and opens.
    usage: UsageCounts,
    /// dashboard -> flow size at its first event.
    starting_sizes: BTreeMap<String, usize>,
    /// `(dashboard, message)` of every failed event, in order.
    errors: Vec<(String, String)>,
}

/// Add one occurrence of each name to `counts`, allocating a name only
/// the first time it is seen.
fn tally(counts: &mut BTreeMap<String, usize>, names: &[String]) {
    for name in names {
        match counts.get_mut(name) {
            Some(n) => *n += 1,
            None => {
                counts.insert(name.clone(), 1);
            }
        }
    }
}

/// The platform's event log. It grows with the number of dashboards,
/// operator and widget names and errors — not with the number of events.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    inner: Arc<RwLock<LogInner>>,
}

impl RunLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an event (sequence assigned).
    pub fn record(&self, mut event: RunEvent) {
        let mut inner = self.inner.write();
        inner.recorded += 1;
        event.seq = inner.recorded;
        match inner.counts.get_mut(&event.dashboard) {
            Some(counts) => counts[event.kind as usize] += 1,
            None => {
                let mut counts = [0; 5];
                counts[event.kind as usize] = 1;
                inner.counts.insert(event.dashboard.clone(), counts);
                inner
                    .starting_sizes
                    .insert(event.dashboard.clone(), event.flow_bytes);
            }
        }
        if event.success && matches!(event.kind, RunKind::Run | RunKind::Open) {
            tally(&mut inner.usage.operators, &event.operators);
            tally(&mut inner.usage.widgets, &event.widgets);
        }
        if let Some(message) = &event.error {
            inner
                .errors
                .push((event.dashboard.clone(), message.clone()));
        }
        if inner.recent.len() == RECENT_EVENTS {
            inner.recent.pop_front();
        }
        inner.recent.push_back(event);
    }

    /// The most recent events, oldest first (at most a fixed number; the
    /// aggregates below cover every event).
    pub fn events(&self) -> Vec<RunEvent> {
        self.inner.read().recent.iter().cloned().collect()
    }

    /// Number of events of a kind for a dashboard (figure 32's per-team run
    /// counts).
    pub fn count(&self, dashboard: &str, kind: RunKind) -> usize {
        self.inner
            .read()
            .counts
            .get(dashboard)
            .map_or(0, |counts| counts[kind as usize])
    }

    /// Usage aggregated over all successful run/open events —
    /// regenerates figure 31.
    pub fn usage(&self) -> UsageCounts {
        self.inner.read().usage.clone()
    }

    /// The flow-file byte sizes at each dashboard's *first* event — the
    /// figure-35 "fork to go" series when first events are forks.
    pub fn starting_sizes(&self) -> BTreeMap<String, usize> {
        self.inner.read().starting_sizes.clone()
    }

    /// Error messages of failed events (observation 7's debugging data).
    pub fn errors(&self) -> Vec<(String, String)> {
        self.inner.read().errors.clone()
    }
}

// ---------------------------------------------------------------------------
// Serving-path metrics (per-route request observability)
// ---------------------------------------------------------------------------

/// How a field's value reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic total.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Monotonic total of microseconds: `/stats` and `_system` keep µs,
    /// Prometheus gets a counter in seconds.
    Micros,
}

/// One scalar metric, declared once: its `/stats` key (also its label in
/// the `_system` scrape), its Prometheus name after the family prefix, its
/// kind, and the value read for this snapshot.
///
/// Every `*Stats` struct lists its fields once through `declare_fields!`,
/// which destructures the struct exhaustively, so a field added without a
/// declaration does not compile. The three renderers (`/stats`,
/// `/metrics`, the `_system` scrape) loop over [`Family`] values and know
/// the *shapes* below, never a metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// `/stats` key and `_system` label.
    pub key: &'static str,
    /// Prometheus name after the family prefix; empty when the value has
    /// no scalar series of its own (it is a histogram's `_sum`).
    pub prom: &'static str,
    /// A fixed extra Prometheus label (`direction="in"`) for fields that
    /// share one series name; empty otherwise.
    pub label: &'static str,
    /// Counter, gauge or microsecond total.
    pub kind: Kind,
    /// The value in this snapshot.
    pub value: u64,
}

impl Field {
    /// A field with no extra label.
    pub fn new(kind: Kind, key: &'static str, prom: &'static str, value: u64) -> Field {
        Field {
            key,
            prom,
            label: "",
            kind,
            value,
        }
    }
}

/// Declare a `*Stats` struct's metrics, one line each: `Kind field "name"`
/// (the `/stats` key is the field's own name; `"name"` is the Prometheus
/// name after the family prefix; an optional second literal is a fixed
/// extra label). Expands to an exhaustive destructure of `$value` — an
/// undeclared field is a compile error — and `let $fields: Vec<Field>`.
/// Members after `..` are bound for the caller (histograms, ids) and
/// declare no scalar.
macro_rules! declare_fields {
    ($fields:ident = $ty:ident {
        $($kind:ident $field:ident $prom:literal $($label:literal)?,)*
        $(.. $($rest:ident),+)?
    } = $value:expr) => {
        let $ty { $($field,)* $($($rest,)+)? } = $value;
        let $fields = vec![$(Field {
            label: concat!($($label)?),
            ..Field::new(Kind::$kind, stringify!($field), $prom, *$field)
        }),*];
    };
}

/// One labelled series of a [`SeriesSet`]: a route or an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// The label value (route label, operator name).
    pub label: String,
    /// The series' scalar fields.
    pub fields: Vec<Field>,
    /// Its latency distribution, when the set declares one.
    pub latency: Option<LatencyHistogram>,
}

/// The labelled series of a family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSet {
    /// The Prometheus label name (`route`, `operator`).
    pub label: &'static str,
    /// Prometheus prefix of the series' fields.
    pub prom: &'static str,
    /// Prometheus name (after `prom`) of the latency histogram; empty
    /// when the series have none.
    pub latency: &'static str,
    /// The series, in label order.
    pub series: Vec<Series>,
}

/// A bucketed count histogram (the one non-latency histogram:
/// requests per connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buckets {
    /// `/stats` key of the raw per-bucket counts.
    pub key: &'static str,
    /// Full Prometheus histogram name.
    pub prom: &'static str,
    /// Upper bounds; `counts` has one more, open-ended, bucket.
    pub bounds: &'static [u64],
    /// Per-bucket (not cumulative) counts.
    pub counts: Vec<u64>,
    /// The histogram's `_sum`.
    pub sum: u64,
    /// The histogram's `_count`.
    pub count: u64,
}

/// One metric family: a `/stats` block, a Prometheus prefix, a `family`
/// value in `_system/ds/telemetry`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// `/stats` block key and `_system` family.
    pub name: &'static str,
    /// Prometheus prefix of `fields`.
    pub prom: &'static str,
    /// Unlabelled scalar fields.
    pub fields: Vec<Field>,
    /// The family's bucketed histogram, if it has one.
    pub buckets: Option<Buckets>,
    /// The family's labelled series, if it has any.
    pub series: Option<SeriesSet>,
}

impl Family {
    /// A family of unlabelled scalars only.
    pub fn scalars(name: &'static str, prom: &'static str, fields: Vec<Field>) -> Family {
        Family {
            name,
            prom,
            fields,
            buckets: None,
            series: None,
        }
    }

    /// A family of labelled series only.
    fn labelled(name: &'static str, series: SeriesSet) -> Family {
        Family {
            series: Some(series),
            ..Family::scalars(name, "", Vec::new())
        }
    }
}

/// Upper bounds (in microseconds) of the latency histogram buckets; the
/// last bucket is open-ended.
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000,
];

/// A fixed-bucket latency histogram with exact max tracking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per bucket (one extra open-ended bucket at the end).
    pub buckets: [u64; LATENCY_BOUNDS_US.len() + 1],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (µs), for mean latency.
    pub total_us: u64,
    /// Largest single sample (µs).
    pub max_us: u64,
}

impl LatencyHistogram {
    /// Record one latency sample in microseconds.
    pub fn record(&mut self, us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the q-th sample, clamped to the observed max.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let bound = LATENCY_BOUNDS_US.get(i).copied().unwrap_or(self.max_us);
                return bound.min(self.max_us);
            }
        }
        self.max_us
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// The scalar summary `/stats` and the `_system` scrape show in place
    /// of the buckets.
    pub fn summary(&self) -> [(&'static str, u64); 4] {
        [
            ("p50_us", self.quantile_us(0.50)),
            ("p95_us", self.quantile_us(0.95)),
            ("max_us", self.max_us),
            ("mean_us", self.mean_us()),
        ]
    }
}

/// Per-route serving statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Requests dispatched to this route.
    pub count: u64,
    /// Non-2xx responses.
    pub errors: u64,
    /// Responses served from the query-result cache.
    pub cache_hits: u64,
    /// Cacheable requests that had to recompute.
    pub cache_misses: u64,
    /// Latency distribution.
    pub latency: LatencyHistogram,
}

impl RouteStats {
    /// The `routes` family: one series per route label.
    pub fn family(routes: &BTreeMap<String, RouteStats>) -> Family {
        let series = routes.iter().map(|(label, stats)| {
            declare_fields!(fields = RouteStats {
                Counter count "requests_total",
                Counter errors "request_errors_total",
                Counter cache_hits "route_cache_hits_total",
                Counter cache_misses "route_cache_misses_total",
                .. latency
            } = stats);
            Series {
                label: label.clone(),
                fields,
                latency: Some(latency.clone()),
            }
        });
        Family::labelled(
            "routes",
            SeriesSet {
                label: "route",
                prom: "shareinsights",
                latency: "request_duration_seconds",
                series: series.collect(),
            },
        )
    }
}

/// Upper bounds of the requests-per-connection histogram buckets; the last
/// bucket is open-ended. A connection that served ≤ 1 request paid full
/// connect/teardown cost per request; the higher buckets are where
/// keep-alive amortizes it away.
pub const CONN_REQUESTS_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Connection-level serving statistics (the keep-alive view of the world,
/// complementing the per-request [`RouteStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Connections handed to a worker.
    pub accepted: u64,
    /// Connections fully closed (their request counts are final).
    pub closed: u64,
    /// Closed connections that served two or more requests — i.e. where
    /// keep-alive actually saved a connect/teardown.
    pub reused: u64,
    /// Total requests served across closed connections.
    pub requests: u64,
    /// Connections closed because the client went quiet between requests.
    pub idle_timeouts: u64,
    /// Connections closed because the client stalled mid-request.
    pub io_timeouts: u64,
    /// Histogram of requests served per closed connection, bucketed by
    /// [`CONN_REQUESTS_BOUNDS`] (plus one open-ended bucket).
    pub requests_per_connection: [u64; CONN_REQUESTS_BOUNDS.len() + 1],
}

impl ConnectionStats {
    /// The `connections` family. `requests` has no scalar series: it is
    /// the requests-per-connection histogram's sum, as `closed` is its
    /// count.
    pub fn family(&self) -> Family {
        declare_fields!(fields = ConnectionStats {
            Counter accepted "accepted_total",
            Counter closed "closed_total",
            Counter reused "reused_total",
            Counter requests "",
            Counter idle_timeouts "idle_timeouts_total",
            Counter io_timeouts "io_timeouts_total",
            .. requests_per_connection
        } = self);
        Family {
            buckets: Some(Buckets {
                key: "requests_per_connection",
                prom: "shareinsights_requests_per_connection",
                bounds: &CONN_REQUESTS_BOUNDS,
                counts: requests_per_connection.to_vec(),
                sum: *requests,
                count: *closed,
            }),
            ..Family::scalars("connections", "shareinsights_connections", fields)
        }
    }

    /// Fraction of requests that rode an already-open connection — the
    /// loadgen "reuse rate": `(requests - closed) / requests`.
    pub fn reuse_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.requests.saturating_sub(self.closed)) as f64 / self.requests as f64
    }
}

/// Per-operator engine execution statistics: how often each DAG operator
/// type ran, how many rows flowed through it, and its latency
/// distribution — the engine-side companion to [`RouteStats`], folded in
/// by the platform after every dashboard run or ad-hoc query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Task executions of this operator type.
    pub runs: u64,
    /// Total rows consumed.
    pub rows_in: u64,
    /// Total rows emitted.
    pub rows_out: u64,
    /// Per-execution latency distribution.
    pub latency: LatencyHistogram,
}

impl OperatorStats {
    /// The `operators` family: one series per operator type. Rows in and
    /// out are one Prometheus series name told apart by `direction`.
    pub fn family(operators: &BTreeMap<String, OperatorStats>) -> Family {
        let series = operators.iter().map(|(label, stats)| {
            declare_fields!(fields = OperatorStats {
                Counter runs "runs_total",
                Counter rows_in "rows_total" "direction=\"in\"",
                Counter rows_out "rows_total" "direction=\"out\"",
                .. latency
            } = stats);
            Series {
                label: label.clone(),
                fields,
                latency: Some(latency.clone()),
            }
        });
        Family::labelled(
            "operators",
            SeriesSet {
                label: "operator",
                prom: "shareinsights_operator",
                latency: "duration_seconds",
                series: series.collect(),
            },
        )
    }
}

/// Index-acceleration statistics: how many per-column indexes were built
/// (and how long the builds took), how query evaluations routed —
/// through an accelerated kernel (`covered`) or the scan path
/// (`fallback`) — and how many bytes the built indexes hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Per-column index builds (lazy, first use per column).
    pub builds: u64,
    /// Total time spent building indexes, in microseconds.
    pub build_us: u64,
    /// Query evaluations that ran through an accelerated kernel.
    pub covered: u64,
    /// Query evaluations that fell back to the scan path.
    pub fallback: u64,
    /// Heap bytes of the indexes the server holds, summed over its
    /// installed index slots when a snapshot is rendered (gauge; always
    /// zero in [`ApiMetrics::index`]).
    pub resident_bytes: u64,
}

impl IndexStats {
    /// The `index` family.
    pub fn family(&self) -> Family {
        declare_fields!(fields = IndexStats {
            Counter builds "builds_total",
            Micros build_us "build_seconds_total",
            Counter covered "covered_evals_total",
            Counter fallback "fallback_evals_total",
            Gauge resident_bytes "resident_bytes",
        } = self);
        Family::scalars("index", "shareinsights_index", fields)
    }
}

/// Event-loop statistics from the epoll reactor: how many connections
/// the readiness loop is multiplexing, how often it wakes, how much
/// readiness each wakeup delivers, and how often socket-level write
/// backpressure forced an `EPOLLOUT` re-arm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections currently registered with the event loop (gauge).
    pub registered: u64,
    /// High-water mark of `registered` over the process lifetime.
    pub peak_registered: u64,
    /// `epoll_wait` returns that delivered at least one event.
    pub wakeups: u64,
    /// Total readiness events delivered across all wakeups (divide by
    /// `wakeups` for the batching factor — higher means each wakeup
    /// amortizes over more ready connections).
    pub ready_events: u64,
    /// Times a partial write re-armed the connection for `EPOLLOUT`
    /// instead of blocking a thread (write backpressure).
    pub epollout_rearms: u64,
    /// Ready requests that ran on a thread of their own: the leader's,
    /// with the poll left in the seat for a follower, or one that took
    /// them off the pending queue (one shed with 503 because the queue was full is
    /// not counted). Counted before the request runs.
    pub dispatched: u64,
    /// Of `dispatched`, the requests that found no follower waiting and
    /// waited on the pending queue.
    pub queued: u64,
    /// Page-cache hits answered by the polling thread itself.
    pub answered_inline: u64,
}

impl ReactorStats {
    /// The `reactor` family.
    pub fn family(&self) -> Family {
        declare_fields!(fields = ReactorStats {
            Gauge registered "registered_connections",
            Gauge peak_registered "peak_registered_connections",
            Counter wakeups "wakeups_total",
            Counter ready_events "ready_events_total",
            Counter epollout_rearms "epollout_rearms_total",
            Counter dispatched "dispatched_total",
            Counter queued "queued_total",
            Counter answered_inline "answered_inline_total",
        } = self);
        Family::scalars("reactor", "shareinsights_reactor", fields)
    }
}

/// Live flow statistics: micro-batch ticks pushed into streaming
/// dashboards' sources, generation-delta frames fanned out to SSE
/// subscribers, and the bounds that held — rows dropped by source
/// retention and subscribers dropped for not draining their frame queue.
/// All zeros until a dashboard starts streaming.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Micro-batches pushed into streaming dashboards' sources.
    pub ticks: u64,
    /// Source rows ingested across all ticks.
    pub rows_in: u64,
    /// Rows dropped by source retention.
    pub evicted_rows: u64,
    /// Generation-delta frames delivered to subscriber queues.
    pub frames_sent: u64,
    /// Total bytes of delivered frames (wire bytes, chunked framing
    /// included).
    pub frame_bytes: u64,
    /// Live SSE subscribers (gauge).
    pub subscribers: u64,
    /// High-water mark of `subscribers` over the process lifetime.
    pub peak_subscribers: u64,
    /// Subscribers dropped because their bounded frame queue overflowed
    /// (slow-reader backpressure).
    pub dropped_subscribers: u64,
}

impl StreamStats {
    /// The `stream` family.
    pub fn family(&self) -> Family {
        declare_fields!(fields = StreamStats {
            Counter ticks "ticks_total",
            Counter rows_in "rows_in_total",
            Counter evicted_rows "evicted_rows_total",
            Counter frames_sent "frames_sent_total",
            Counter frame_bytes "frame_bytes_total",
            Gauge subscribers "subscribers",
            Gauge peak_subscribers "peak_subscribers",
            Counter dropped_subscribers "dropped_subscribers_total",
        } = self);
        Family::scalars("stream", "shareinsights_stream", fields)
    }
}

/// SQL frontend statistics: parse/lower outcomes for the `POST
/// /:dashboard/ds/:dataset/sql` route and the malformed-query counter
/// both ad-hoc query languages share. All zeros until a SQL (or
/// malformed path) query arrives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SqlStats {
    /// Successfully parsed + lowered SQL queries.
    pub queries: u64,
    /// Queries rejected with a diagnostic — SQL texts that failed to
    /// parse/lower *and* malformed path-segment query ops (both routes
    /// return the same structured 400 body).
    pub parse_errors: u64,
    /// SQL queries whose plan canonicalised to path-grammar segments and
    /// therefore shared cache entries with the path-segment route.
    pub path_shared: u64,
    /// Total parse + lower time across all SQL queries, µs.
    pub parse_us: u64,
    /// Queries answered from the prepared-statement cache (parse + lower
    /// skipped entirely — the statement text was seen before).
    pub prepared_hits: u64,
    /// Prepared statements evicted to hold the cache's entry/byte budget.
    pub prepared_evictions: u64,
}

impl SqlStats {
    /// The `sql` family.
    pub fn family(&self) -> Family {
        declare_fields!(fields = SqlStats {
            Counter queries "queries_total",
            Counter parse_errors "parse_errors_total",
            Counter path_shared "path_shared_total",
            Micros parse_us "parse_seconds_total",
            Counter prepared_hits "prepared_hits_total",
            Counter prepared_evictions "prepared_evictions_total",
        } = self);
        Family::scalars("sql", "shareinsights_sql", fields)
    }
}

/// Streaming-ingestion statistics: the `POST /dashboards/:n/ds/:ds/ingest`
/// pipeline that reads request bodies in bounded windows, decodes segments
/// on parallel workers, and merges warm column indexes instead of
/// rebuilding them. All zeros until the first ingest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Completed ingest requests (rows committed).
    pub requests: u64,
    /// Rows appended across all completed ingests.
    pub rows: u64,
    /// Body bytes consumed across all ingests (including aborted ones).
    pub bytes: u64,
    /// Record-aligned segments handed to decode workers.
    pub segments: u64,
    /// Total segment decode time across all workers, µs.
    pub decode_us: u64,
    /// Warm `IndexedTable` merges performed on append (vs. dropped and
    /// rebuilt cold).
    pub index_merges: u64,
    /// Total index merge time, µs.
    pub index_merge_us: u64,
    /// Ingests aborted before commit — decode errors, over-cap bodies,
    /// mid-body client disconnects. The endpoint stays unchanged.
    pub aborted: u64,
    /// Appends where the warm index *declined* the in-place merge (writer
    /// race or schema drift, e.g. a widened column) and the endpoint fell
    /// back to a lazy cold rebuild. Each one also emits an
    /// `ingest_cold_rebuild` event-log record naming the cause.
    pub cold_rebuilds: u64,
    /// Committed ingests whose endpoint table grew its columns in place.
    pub grown_in_place: u64,
    /// Committed ingests that copied the endpoint table instead: a reader
    /// held it, a column's type widened, or the ingest created it.
    pub copied: u64,
    /// Row postings a merged index grew in place by the appended rows.
    pub postings_grown: u64,
    /// Row postings a merged index rebuilt instead: one crossed 1/32
    /// density either way, or a reader's index shared it.
    pub postings_rebuilt: u64,
}

impl IngestStats {
    /// The `ingest` family.
    pub fn family(&self) -> Family {
        declare_fields!(fields = IngestStats {
            Counter requests "requests_total",
            Counter rows "rows_total",
            Counter bytes "bytes_total",
            Counter segments "segments_total",
            Micros decode_us "decode_seconds_total",
            Counter index_merges "index_merges_total",
            Micros index_merge_us "index_merge_seconds_total",
            Counter aborted "aborted_total",
            Counter cold_rebuilds "cold_rebuilds_total",
            Counter grown_in_place "grown_in_place_total",
            Counter copied "copied_total",
            Counter postings_grown "postings_grown_total",
            Counter postings_rebuilt "postings_rebuilt_total",
        } = self);
        Family::scalars("ingest", "shareinsights_ingest", fields)
    }
}

/// Inert: every read is all zeros. Kept, with the two fields the
/// benchmark crate reads, only so that crate compiles until its next
/// revision drops the call; no family renders it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Always 0.
    pub scatters: u64,
    /// Always 0.
    pub fallbacks: u64,
}

/// Self-scrape statistics: the telemetry-history scraper observing
/// itself. How many ticks ran, how many samples they appended/evicted,
/// and the total time spent scraping — so the overhead of
/// self-observation is itself visible at `/stats` and `/metrics`
/// (`shareinsights_selfscrape_*`). All zeros until a scraper is enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelfScrapeStats {
    /// Scrape ticks completed.
    pub scrapes: u64,
    /// Samples appended across all ticks.
    pub samples: u64,
    /// Samples evicted to hold per-family retention budgets.
    pub evicted: u64,
    /// Samples currently retained in the history ring (gauge).
    pub retained: u64,
    /// Total time spent scraping, µs.
    pub elapsed_us: u64,
}

impl SelfScrapeStats {
    /// The `selfscrape` family.
    pub fn family(&self) -> Family {
        declare_fields!(fields = SelfScrapeStats {
            Counter scrapes "scrapes_total",
            Counter samples "samples_total",
            Counter evicted "evicted_samples_total",
            Gauge retained "retained_samples",
            Micros elapsed_us "seconds_total",
        } = self);
        Family::scalars("selfscrape", "shareinsights_selfscrape", fields)
    }
}

/// Process-level gauges sampled from `/proc/self` on Linux (zeros where
/// the platform offers no cheap equivalent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Resident set size in bytes.
    pub rss_bytes: u64,
    /// Open file descriptors.
    pub open_fds: u64,
    /// Live threads.
    pub threads: u64,
    /// Seconds since process telemetry came up.
    pub uptime_seconds: u64,
}

impl ProcessStats {
    /// The `process` family.
    pub fn family(&self) -> Family {
        declare_fields!(fields = ProcessStats {
            Gauge rss_bytes "rss_bytes",
            Gauge open_fds "open_fds",
            Gauge threads "threads",
            Gauge uptime_seconds "uptime_seconds",
        } = self);
        Family::scalars("process", "shareinsights_process", fields)
    }
}

/// The instant process telemetry first came up, for the uptime gauge.
/// Touched by [`ApiMetrics::new`] so servers report near-process uptime.
fn process_epoch() -> std::time::Instant {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

/// Sample the process-level gauges. On Linux these read `/proc/self`
/// (statm for RSS, the fd directory, status for the thread count); other
/// platforms degrade gracefully to zeros, keeping the exposition shape.
pub fn process_stats() -> ProcessStats {
    let uptime_seconds = process_epoch().elapsed().as_secs();
    let mut stats = ProcessStats {
        uptime_seconds,
        ..ProcessStats::default()
    };
    #[cfg(target_os = "linux")]
    {
        if let Ok(statm) = std::fs::read_to_string("/proc/self/statm") {
            // statm: size resident shared text lib data dt (pages).
            if let Some(resident) = statm.split_whitespace().nth(1) {
                if let Ok(pages) = resident.parse::<u64>() {
                    stats.rss_bytes = pages * 4096;
                }
            }
        }
        if let Ok(dir) = std::fs::read_dir("/proc/self/fd") {
            stats.open_fds = dir.count() as u64;
        }
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("Threads:") {
                    stats.threads = rest.trim().parse().unwrap_or(0);
                    break;
                }
            }
        }
    }
    stats
}

/// Thread-safe per-route metrics registry for the serving path.
#[derive(Debug, Clone, Default)]
pub struct ApiMetrics {
    routes: Arc<RwLock<BTreeMap<String, RouteStats>>>,
    connections: Arc<RwLock<ConnectionStats>>,
    operators: Arc<RwLock<BTreeMap<String, OperatorStats>>>,
    index: Arc<RwLock<IndexStats>>,
    reactor: Arc<RwLock<ReactorStats>>,
    stream: Arc<RwLock<StreamStats>>,
    sql: Arc<RwLock<SqlStats>>,
    selfscrape: Arc<RwLock<SelfScrapeStats>>,
    ingest: Arc<RwLock<IngestStats>>,
}

impl ApiMetrics {
    /// Empty registry. Anchors the process-uptime epoch as a side effect,
    /// so servers report uptime from construction, not first scrape.
    pub fn new() -> Self {
        process_epoch();
        Self::default()
    }

    /// Record one served request: normalized route label, whether the
    /// response was 2xx, and the handling latency.
    pub fn record(&self, route: &str, ok: bool, latency_us: u64) {
        let mut routes = self.routes.write();
        let stats = routes.entry(route.to_string()).or_default();
        stats.count += 1;
        if !ok {
            stats.errors += 1;
        }
        stats.latency.record(latency_us);
    }

    /// Record a query-cache outcome for a route.
    pub fn record_cache(&self, route: &str, hit: bool) {
        let mut routes = self.routes.write();
        let stats = routes.entry(route.to_string()).or_default();
        if hit {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
    }

    /// Record a connection handed to a worker.
    pub fn record_conn_accepted(&self) {
        self.connections.write().accepted += 1;
    }

    /// Record a connection closing after serving `requests` requests.
    pub fn record_conn_closed(&self, requests: u64) {
        let mut c = self.connections.write();
        c.closed += 1;
        c.requests += requests;
        if requests >= 2 {
            c.reused += 1;
        }
        let idx = CONN_REQUESTS_BOUNDS
            .iter()
            .position(|&b| requests <= b)
            .unwrap_or(CONN_REQUESTS_BOUNDS.len());
        c.requests_per_connection[idx] += 1;
    }

    /// Record a keep-alive connection closed for idling between requests.
    pub fn record_idle_timeout(&self) {
        self.connections.write().idle_timeouts += 1;
    }

    /// Record a connection closed for stalling mid-request.
    pub fn record_io_timeout(&self) {
        self.connections.write().io_timeouts += 1;
    }

    /// Snapshot of the connection-level counters.
    pub fn connections(&self) -> ConnectionStats {
        self.connections.read().clone()
    }

    /// Record one engine operator execution: operator type name, rows
    /// consumed/emitted, and elapsed time.
    pub fn record_operator(&self, operator: &str, rows_in: u64, rows_out: u64, elapsed_us: u64) {
        let mut operators = self.operators.write();
        let stats = operators.entry(operator.to_string()).or_default();
        stats.runs += 1;
        stats.rows_in += rows_in;
        stats.rows_out += rows_out;
        stats.latency.record(elapsed_us);
    }

    /// Snapshot of every operator type's stats.
    pub fn operators(&self) -> BTreeMap<String, OperatorStats> {
        self.operators.read().clone()
    }

    /// Record one lazy per-column index build taking `build_us`
    /// microseconds.
    pub fn record_index_build(&self, build_us: u64) {
        let mut ix = self.index.write();
        ix.builds += 1;
        ix.build_us += build_us;
    }

    /// Record how one query evaluation routed: accelerated (`covered`) or
    /// scan (`fallback`).
    pub fn record_index_eval(&self, covered: bool) {
        let mut ix = self.index.write();
        if covered {
            ix.covered += 1;
        } else {
            ix.fallback += 1;
        }
    }

    /// Snapshot of the index-acceleration counters.
    pub fn index(&self) -> IndexStats {
        self.index.read().clone()
    }

    /// Record a connection registered with the reactor's event loop.
    pub fn record_reactor_register(&self) {
        let mut r = self.reactor.write();
        r.registered += 1;
        r.peak_registered = r.peak_registered.max(r.registered);
    }

    /// Record a connection deregistered from the reactor's event loop.
    pub fn record_reactor_deregister(&self) {
        let mut r = self.reactor.write();
        r.registered = r.registered.saturating_sub(1);
    }

    /// Record one `epoll_wait` wakeup that delivered `ready` events.
    pub fn record_reactor_wakeup(&self, ready: u64) {
        let mut r = self.reactor.write();
        r.wakeups += 1;
        r.ready_events += ready;
    }

    /// Record a write-backpressure `EPOLLOUT` re-arm.
    pub fn record_reactor_rearm(&self) {
        self.reactor.write().epollout_rearms += 1;
    }

    /// Record a ready request the reactor gave a thread of its own,
    /// `queued` when it waits on the pending queue for one.
    pub fn record_reactor_dispatch(&self, queued: bool) {
        let mut r = self.reactor.write();
        r.dispatched += 1;
        r.queued += u64::from(queued);
    }

    /// Record a page-cache hit the reactor answered on its polling thread.
    pub fn record_reactor_inline(&self) {
        self.reactor.write().answered_inline += 1;
    }

    /// Snapshot of the reactor event-loop counters.
    pub fn reactor(&self) -> ReactorStats {
        self.reactor.read().clone()
    }

    /// Record one streaming micro-batch tick: source rows ingested and
    /// rows source retention dropped to take them.
    pub fn record_stream_tick(&self, rows_in: u64, evicted_rows: u64) {
        let mut s = self.stream.write();
        s.ticks += 1;
        s.rows_in += rows_in;
        s.evicted_rows += evicted_rows;
    }

    /// Record generation-delta frames delivered to subscriber queues.
    pub fn record_stream_frames(&self, frames: u64, bytes: u64) {
        let mut s = self.stream.write();
        s.frames_sent += frames;
        s.frame_bytes += bytes;
    }

    /// Record a new SSE subscriber.
    pub fn record_stream_subscribe(&self) {
        let mut s = self.stream.write();
        s.subscribers += 1;
        s.peak_subscribers = s.peak_subscribers.max(s.subscribers);
    }

    /// Record a subscriber going away (disconnect or drop).
    pub fn record_stream_unsubscribe(&self) {
        let mut s = self.stream.write();
        s.subscribers = s.subscribers.saturating_sub(1);
    }

    /// Record a subscriber dropped for slow-reader backpressure.
    pub fn record_stream_dropped(&self) {
        self.stream.write().dropped_subscribers += 1;
    }

    /// Snapshot of the live flow counters.
    pub fn stream(&self) -> StreamStats {
        self.stream.read().clone()
    }

    /// Record one successfully parsed + lowered SQL query.
    pub fn record_sql_query(&self, parse_us: u64, path_shared: bool) {
        let mut s = self.sql.write();
        s.queries += 1;
        s.parse_us += parse_us;
        if path_shared {
            s.path_shared += 1;
        }
    }

    /// Record a malformed ad-hoc query (either language) rejected with a
    /// structured parse diagnostic.
    pub fn record_sql_parse_error(&self) {
        self.sql.write().parse_errors += 1;
    }

    /// Record a SQL query answered from the prepared-statement cache.
    pub fn record_sql_prepared_hit(&self) {
        self.sql.write().prepared_hits += 1;
    }

    /// Record prepared statements evicted to hold the cache budget.
    pub fn record_sql_prepared_evictions(&self, evicted: u64) {
        self.sql.write().prepared_evictions += evicted;
    }

    /// Snapshot of the SQL frontend counters.
    pub fn sql(&self) -> SqlStats {
        self.sql.read().clone()
    }

    /// Record one record-aligned segment decoded by an ingest worker.
    pub fn record_ingest_segment(&self, bytes: u64, decode_us: u64) {
        let mut s = self.ingest.write();
        s.segments += 1;
        s.bytes += bytes;
        s.decode_us += decode_us;
    }

    /// Record a committed ingest: rows appended, whether the warm index
    /// was merged in place (with the merge time) or left cold, and whether
    /// the endpoint table grew in place or was copied.
    pub fn record_ingest_commit(&self, rows: u64, index_merged: bool, merge_us: u64, grown: bool) {
        let mut s = self.ingest.write();
        s.requests += 1;
        s.rows += rows;
        if grown {
            s.grown_in_place += 1;
        } else {
            s.copied += 1;
        }
        if index_merged {
            s.index_merges += 1;
            s.index_merge_us += merge_us;
        }
    }

    /// Record what a committed ingest's index merge did to the postings:
    /// how many grew in place and how many were rebuilt.
    pub fn record_ingest_postings(&self, grown: u64, rebuilt: u64) {
        let mut s = self.ingest.write();
        s.postings_grown += grown;
        s.postings_rebuilt += rebuilt;
    }

    /// Record an ingest aborted before commit (decode error, over-cap
    /// body, or mid-body disconnect) — the endpoint stays unchanged.
    pub fn record_ingest_abort(&self) {
        self.ingest.write().aborted += 1;
    }

    /// Record an append whose warm index declined the in-place merge and
    /// fell back to a lazy cold rebuild.
    pub fn record_ingest_cold_rebuild(&self) {
        self.ingest.write().cold_rebuilds += 1;
    }

    /// Snapshot of the streaming-ingestion counters.
    pub fn ingest(&self) -> IngestStats {
        self.ingest.read().clone()
    }

    /// Inert: always all zeros (see [`ShardStats`]).
    pub fn shard(&self) -> ShardStats {
        ShardStats::default()
    }

    /// Record one telemetry-history scrape tick: samples appended and
    /// evicted, samples now retained, and time spent scraping.
    pub fn record_selfscrape(&self, samples: u64, evicted: u64, retained: u64, elapsed_us: u64) {
        let mut s = self.selfscrape.write();
        s.scrapes += 1;
        s.samples += samples;
        s.evicted += evicted;
        s.retained = retained;
        s.elapsed_us += elapsed_us;
    }

    /// Snapshot of the self-scrape counters.
    pub fn selfscrape(&self) -> SelfScrapeStats {
        self.selfscrape.read().clone()
    }

    /// Snapshot of every route's stats.
    pub fn routes(&self) -> BTreeMap<String, RouteStats> {
        self.routes.read().clone()
    }

    /// One snapshot of every family, each registry read once — what the
    /// `/stats`, `/metrics` and `_system` renderers loop over. The indexes
    /// belong to the server, which hands in the bytes they hold.
    pub fn families(&self, index_resident_bytes: u64) -> Vec<Family> {
        vec![
            RouteStats::family(&self.routes.read()),
            self.connections.read().family(),
            OperatorStats::family(&self.operators.read()),
            IndexStats {
                resident_bytes: index_resident_bytes,
                ..self.index.read().clone()
            }
            .family(),
            self.reactor.read().family(),
            self.stream.read().family(),
            self.sql.read().family(),
            self.ingest.read().family(),
            self.selfscrape.read().family(),
            process_stats().family(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_flowfile::parse_flow_file;

    fn event(dash: &str, kind: RunKind, ops: &[&str], widgets: &[&str], bytes: usize) -> RunEvent {
        RunEvent {
            dashboard: dash.into(),
            kind,
            success: true,
            error: None,
            flow_bytes: bytes,
            operators: ops.iter().map(|s| s.to_string()).collect(),
            widgets: widgets.iter().map(|s| s.to_string()).collect(),
            seq: 0,
        }
    }

    #[test]
    fn usage_aggregates_runs_only() {
        let log = RunLog::new();
        log.record(event(
            "t1",
            RunKind::Run,
            &["groupby", "filter_by"],
            &["WordCloud"],
            100,
        ));
        log.record(event(
            "t2",
            RunKind::Run,
            &["groupby"],
            &["WordCloud", "Slider"],
            200,
        ));
        log.record(event("t2", RunKind::Save, &["join"], &[], 200)); // ignored
        let mut failed = event("t3", RunKind::Run, &["join"], &[], 50);
        failed.success = false;
        failed.error = Some("boom".into());
        log.record(failed); // ignored in usage, shows in errors

        let usage = log.usage();
        assert_eq!(usage.operators.get("groupby"), Some(&2));
        assert_eq!(usage.operators.get("join"), None);
        assert_eq!(usage.top_widgets()[0], ("WordCloud", 2));
        assert_eq!(log.errors(), vec![("t3".to_string(), "boom".to_string())]);
    }

    #[test]
    fn counts_and_starting_sizes() {
        let log = RunLog::new();
        log.record(event("team5", RunKind::Fork, &[], &[], 1500));
        log.record(event("team5", RunKind::Run, &[], &[], 1800));
        log.record(event("team5", RunKind::Run, &[], &[], 2500));
        assert_eq!(log.count("team5", RunKind::Run), 2);
        assert_eq!(log.count("team5", RunKind::Fork), 1);
        assert_eq!(log.starting_sizes().get("team5"), Some(&1500));
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.events()[2].seq, 3);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [40, 60, 90, 200, 400, 900, 2_000, 4_000, 9_000, 20_000] {
            h.record(us);
        }
        assert_eq!(h.count, 10);
        assert_eq!(h.max_us, 20_000);
        // p50 falls in the bucket holding the 5th sample (400 → ≤500).
        assert_eq!(h.quantile_us(0.5), 500);
        // p95+ land in the last occupied bucket, clamped to max.
        assert_eq!(h.quantile_us(0.95), 20_000);
        assert_eq!(h.quantile_us(1.0), 20_000);
        assert_eq!(h.mean_us(), 3_669);
        // One huge sample lands in the open-ended bucket.
        h.record(10_000_000);
        assert_eq!(h.quantile_us(1.0), 10_000_000);
    }

    #[test]
    fn api_metrics_accumulate_per_route() {
        let m = ApiMetrics::new();
        m.record("GET /:dashboard/ds/:dataset/query", true, 120);
        m.record("GET /:dashboard/ds/:dataset/query", false, 80);
        m.record("GET /dashboards", true, 30);
        m.record_cache("GET /:dashboard/ds/:dataset/query", true);
        m.record_cache("GET /:dashboard/ds/:dataset/query", false);
        let snap = m.routes();
        let q = &snap["GET /:dashboard/ds/:dataset/query"];
        assert_eq!(q.count, 2);
        assert_eq!(q.errors, 1);
        assert_eq!(q.cache_hits, 1);
        assert_eq!(q.cache_misses, 1);
        assert_eq!(snap["GET /dashboards"].count, 1);
    }

    #[test]
    fn operator_metrics_accumulate_per_type() {
        let m = ApiMetrics::new();
        m.record_operator("groupby", 1000, 10, 250);
        m.record_operator("groupby", 2000, 20, 750);
        m.record_operator("filter_by", 500, 400, 90);
        let ops = m.operators();
        assert_eq!(ops.len(), 2);
        let g = &ops["groupby"];
        assert_eq!(g.runs, 2);
        assert_eq!(g.rows_in, 3000);
        assert_eq!(g.rows_out, 30);
        assert_eq!(g.latency.count, 2);
        assert_eq!(g.latency.max_us, 750);
        assert_eq!(ops["filter_by"].runs, 1);
    }

    #[test]
    fn index_metrics_accumulate() {
        let m = ApiMetrics::new();
        assert_eq!(m.index(), IndexStats::default());
        m.record_index_build(120);
        m.record_index_build(80);
        m.record_index_eval(true);
        m.record_index_eval(true);
        m.record_index_eval(false);
        let ix = m.index();
        assert_eq!(ix.builds, 2);
        assert_eq!(ix.build_us, 200);
        assert_eq!(ix.covered, 2);
        assert_eq!(ix.fallback, 1);
    }

    #[test]
    fn reactor_metrics_accumulate() {
        let m = ApiMetrics::new();
        assert_eq!(m.reactor(), ReactorStats::default());
        m.record_reactor_register();
        m.record_reactor_register();
        m.record_reactor_register();
        m.record_reactor_deregister();
        m.record_reactor_wakeup(2);
        m.record_reactor_wakeup(5);
        m.record_reactor_rearm();
        m.record_reactor_dispatch(false);
        m.record_reactor_dispatch(true);
        m.record_reactor_inline();
        let r = m.reactor();
        assert_eq!(r.registered, 2);
        assert_eq!(r.peak_registered, 3);
        assert_eq!(r.wakeups, 2);
        assert_eq!(r.ready_events, 7);
        assert_eq!(r.epollout_rearms, 1);
        assert_eq!(r.dispatched, 2);
        assert_eq!(r.queued, 1);
        assert_eq!(r.answered_inline, 1);
        // Deregister never underflows.
        m.record_reactor_deregister();
        m.record_reactor_deregister();
        m.record_reactor_deregister();
        assert_eq!(m.reactor().registered, 0);
    }

    #[test]
    fn stream_metrics_accumulate() {
        let m = ApiMetrics::new();
        assert_eq!(m.stream(), StreamStats::default());
        m.record_stream_subscribe();
        m.record_stream_subscribe();
        m.record_stream_subscribe();
        m.record_stream_unsubscribe();
        m.record_stream_tick(100, 0);
        m.record_stream_tick(50, 25);
        m.record_stream_frames(2, 4096);
        m.record_stream_frames(1, 1024);
        m.record_stream_dropped();
        let s = m.stream();
        assert_eq!(s.subscribers, 2);
        assert_eq!(s.peak_subscribers, 3);
        assert_eq!(s.ticks, 2);
        assert_eq!(s.rows_in, 150);
        assert_eq!(s.evicted_rows, 25);
        assert_eq!(s.frames_sent, 3);
        assert_eq!(s.frame_bytes, 5120);
        assert_eq!(s.dropped_subscribers, 1);
        // Unsubscribe never underflows.
        m.record_stream_unsubscribe();
        m.record_stream_unsubscribe();
        m.record_stream_unsubscribe();
        assert_eq!(m.stream().subscribers, 0);
    }

    #[test]
    fn sql_metrics_accumulate() {
        let m = ApiMetrics::new();
        assert_eq!(m.sql(), SqlStats::default());
        m.record_sql_query(120, true);
        m.record_sql_query(80, false);
        m.record_sql_parse_error();
        m.record_sql_parse_error();
        m.record_sql_parse_error();
        let s = m.sql();
        assert_eq!(s.queries, 2);
        assert_eq!(s.parse_us, 200);
        assert_eq!(s.path_shared, 1);
        assert_eq!(s.parse_errors, 3);
    }

    #[test]
    fn ingest_metrics_accumulate() {
        let m = ApiMetrics::new();
        assert_eq!(m.ingest(), IngestStats::default());
        m.record_ingest_segment(1024, 50);
        m.record_ingest_segment(512, 30);
        m.record_ingest_commit(2000, true, 400, false);
        m.record_ingest_commit(10, false, 0, true);
        m.record_ingest_abort();
        m.record_ingest_postings(110, 2);
        m.record_sql_prepared_hit();
        let s = m.ingest();
        assert_eq!(s.segments, 2);
        assert_eq!(s.bytes, 1536);
        assert_eq!(s.decode_us, 80);
        assert_eq!(s.requests, 2);
        assert_eq!(s.rows, 2010);
        assert_eq!(s.index_merges, 1);
        assert_eq!(s.index_merge_us, 400);
        assert_eq!(s.aborted, 1);
        assert_eq!((s.grown_in_place, s.copied), (1, 1));
        assert_eq!((s.postings_grown, s.postings_rebuilt), (110, 2));
        assert_eq!(m.sql().prepared_hits, 1);
    }

    #[test]
    fn selfscrape_metrics_accumulate() {
        let m = ApiMetrics::new();
        assert_eq!(m.selfscrape(), SelfScrapeStats::default());
        m.record_selfscrape(40, 0, 40, 120);
        m.record_selfscrape(40, 10, 70, 80);
        let s = m.selfscrape();
        assert_eq!(s.scrapes, 2);
        assert_eq!(s.samples, 80);
        assert_eq!(s.evicted, 10);
        assert_eq!(s.retained, 70, "retained is a gauge, not a sum");
        assert_eq!(s.elapsed_us, 200);
    }

    #[test]
    fn process_stats_populated_on_linux() {
        let p = process_stats();
        if cfg!(target_os = "linux") {
            assert!(p.rss_bytes > 0, "{p:?}");
            assert!(p.open_fds > 0, "{p:?}");
            assert!(p.threads > 0, "{p:?}");
        }
    }

    #[test]
    fn connection_metrics_accumulate() {
        let m = ApiMetrics::new();
        assert_eq!(m.connections().reuse_rate(), 0.0, "no requests yet");
        m.record_conn_accepted();
        m.record_conn_accepted();
        m.record_conn_accepted();
        m.record_conn_closed(1);
        m.record_conn_closed(5);
        m.record_idle_timeout();
        m.record_conn_closed(200);
        m.record_io_timeout();
        let c = m.connections();
        assert_eq!(c.accepted, 3);
        assert_eq!(c.closed, 3);
        assert_eq!(c.reused, 2, "the 5- and 200-request connections");
        assert_eq!(c.requests, 206);
        assert_eq!(c.idle_timeouts, 1);
        assert_eq!(c.io_timeouts, 1);
        // 1 → bucket ≤1; 5 → bucket ≤8; 200 → open-ended bucket.
        assert_eq!(c.requests_per_connection[0], 1);
        assert_eq!(c.requests_per_connection[3], 1);
        assert_eq!(c.requests_per_connection[CONN_REQUESTS_BOUNDS.len()], 1);
        let rate = c.reuse_rate();
        assert!((rate - (206.0 - 3.0) / 206.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn usage_of_flowfile() {
        let ff = parse_flow_file(
            "t",
            "T:\n  a:\n    type: groupby\n    groupby: [x]\n  b:\n    type: filter_by\n    filter_expression: x > 1\nW:\n  w:\n    type: WordCloud\n    source: D.d\n    text: x\n    size: y\n",
        )
        .unwrap();
        let (ops, widgets) = usage_of(&ff);
        assert_eq!(ops, vec!["groupby", "filter_by"]);
        assert_eq!(widgets, vec!["WordCloud"]);
    }
}
