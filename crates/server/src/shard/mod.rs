//! Shared-nothing sharded data plane (scale-out §5 of the paper's "future
//! work": the reproduction's single-node data API, horizontally
//! partitioned).
//!
//! A [`ShardSet`] owns N worker threads. Each worker holds a disjoint
//! contiguous *row-range slice* of every sharded endpoint — its own
//! [`IndexedTable`], its own result cache, its own generation stamp —
//! shared-nothing: no worker ever touches another's state. The router
//! scatters a planned sub-query to every worker and gathers partials back
//! in shard order; [`plan`] guarantees the merged response is
//! byte-identical to unsharded execution.
//!
//! ## The internal framed channel
//!
//! Workers speak the same HTTP/1.1 request framing as the public surface:
//! every control message is a literal request (`POST /_shard/query`, …)
//! serialized to bytes and re-parsed by the worker through
//! [`wire::try_parse`]. Bulk payloads — table slices outbound, partial
//! tables or [`GroupByPartial`] accumulator state inbound — ride alongside
//! the frame in the same in-process message rather than being serialized,
//! which is exactly the piece a future multi-process split would replace
//! with a real socket and a columnar codec; the control plane would move
//! unchanged.
//!
//! ## Generations and staleness
//!
//! Every slice is stamped with the endpoint generation it was cut from,
//! and every query frame carries the generation the router expects. A
//! worker whose slice is missing or stale answers `409`; the router
//! reloads fresh slices and retries the scatter once (counted in
//! `shareinsights_shard_stale_retries_total`). Appends, publishes and
//! stream pushes fan an invalidation frame out to all workers, so slice
//! memory is reclaimed eagerly rather than on next touch.

pub mod plan;

use crate::cache::ResultCache;
use crate::query::{run_query, run_query_indexed, QueryOp};
use crate::wire::{self, Parsed, WireLimits};
use parking_lot::Mutex;
use plan::ScatterPlan;
use shareinsights_core::{ApiMetrics, Partitioning, ShardWorkerStats, Span};
use shareinsights_tabular::ops::{groupby_partial, union_all, GroupBy, GroupByPartial};
use shareinsights_tabular::{IndexedTable, Table};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Bulk payload riding beside a request frame (the part a multi-process
/// transport would serialize; everything else is already wire bytes).
enum Payload {
    /// `POST /_shard/load`: the worker's slice of an endpoint table.
    Slice(Table),
    /// `POST /_shard/query`: the shard-local pipeline, and the group-by
    /// config to accumulate into when the planner chose state shipping.
    Query {
        local: Vec<QueryOp>,
        accumulate: Option<GroupBy>,
    },
}

/// A worker's answer.
enum Reply {
    /// Partial result table (plus whether the slice index accelerated it).
    Table { table: Table, index_hit: bool },
    /// Group-by accumulator state (the planner's `accumulate` mode).
    Partial(Box<GroupByPartial>),
    /// Status-only answer: `200` acks, `400` query errors (the message is
    /// the same string the unsharded path produces), `409` stale slice.
    Status { code: u16, message: String },
    /// Worker counters for `GET /_shard/stats`.
    Stats(Box<ShardWorkerStats>),
}

/// One message over the internal channel: a framed HTTP request plus
/// optional bulk payload and the reply path.
struct Msg {
    frame: Vec<u8>,
    payload: Option<Payload>,
    reply: mpsc::Sender<Reply>,
}

/// One loaded endpoint slice inside a worker.
struct SliceEntry {
    generation: u64,
    indexed: Arc<IndexedTable>,
    results: ResultCache,
}

fn frame(method: &str, path: &str, headers: &[(&str, &str)]) -> Vec<u8> {
    let mut s = format!("{method} {path} HTTP/1.1\r\nHost: shard\r\n");
    for (k, v) in headers {
        s.push_str(k);
        s.push_str(": ");
        s.push_str(v);
        s.push_str("\r\n");
    }
    s.push_str("Content-Length: 0\r\n\r\n");
    s.into_bytes()
}

fn status(code: u16, message: impl Into<String>) -> Reply {
    Reply::Status {
        code,
        message: message.into(),
    }
}

fn worker_loop(shard: u64, rx: mpsc::Receiver<Msg>, metrics: ApiMetrics, limits: WireLimits) {
    let mut slices: HashMap<String, SliceEntry> = HashMap::new();
    let mut stats = ShardWorkerStats {
        shard,
        ..ShardWorkerStats::default()
    };
    while let Ok(msg) = rx.recv() {
        let started = Instant::now();
        let request = match wire::try_parse(&msg.frame, &limits) {
            Parsed::Complete(p) => p.request,
            _ => {
                let _ = msg.reply.send(status(400, "malformed shard frame"));
                continue;
            }
        };
        let key = request.header("x-shard-key").unwrap_or("").to_string();
        let generation: u64 = request
            .header("x-shard-generation")
            .and_then(|g| g.parse().ok())
            .unwrap_or(0);
        let reply = match request.path.as_str() {
            "/_shard/load" => match msg.payload {
                Some(Payload::Slice(table)) => {
                    let hook_metrics = metrics.clone();
                    let indexed = Arc::new(IndexedTable::with_build_hook(
                        table,
                        Arc::new(move |us| hook_metrics.record_index_build(us)),
                    ));
                    slices.insert(
                        key,
                        SliceEntry {
                            generation,
                            indexed,
                            results: ResultCache::default(),
                        },
                    );
                    status(200, "loaded")
                }
                _ => status(400, "load frame without slice payload"),
            },
            "/_shard/query" => {
                let result_key = request
                    .header("x-shard-result-key")
                    .unwrap_or("")
                    .to_string();
                let Some(Payload::Query { local, accumulate }) = msg.payload else {
                    let _ = msg
                        .reply
                        .send(status(400, "query frame without plan payload"));
                    stats.busy_us += started.elapsed().as_micros() as u64;
                    continue;
                };
                match slices.get(&key) {
                    Some(entry) if entry.generation == generation => {
                        stats.queries += 1;
                        match entry.results.get(&result_key, generation) {
                            Some(cached) if accumulate.is_none() => {
                                stats.result_hits += 1;
                                Reply::Table {
                                    table: (*cached).clone(),
                                    index_hit: false,
                                }
                            }
                            _ => match run_query_indexed(&entry.indexed, &local) {
                                Ok((table, index_hit)) => match accumulate {
                                    Some(cfg) => match groupby_partial(&table, &cfg) {
                                        Ok(partial) => Reply::Partial(Box::new(partial)),
                                        Err(e) => status(400, e.to_string()),
                                    },
                                    None => {
                                        entry.results.put(
                                            &result_key,
                                            generation,
                                            Arc::new(table.clone()),
                                        );
                                        Reply::Table { table, index_hit }
                                    }
                                },
                                Err(e) => status(400, e),
                            },
                        }
                    }
                    _ => {
                        stats.stale_rejects += 1;
                        status(409, "stale shard slice")
                    }
                }
            }
            "/_shard/invalidate" => {
                slices.remove(&key);
                status(200, "invalidated")
            }
            "/_shard/clear" => {
                for entry in slices.values_mut() {
                    entry.results.clear();
                }
                status(200, "cleared")
            }
            "/_shard/stats" => {
                stats.slices = slices.len() as u64;
                stats.rows = slices
                    .values()
                    .map(|e| e.indexed.table().num_rows() as u64)
                    .sum();
                Reply::Stats(Box::new(stats.clone()))
            }
            other => status(404, format!("unknown shard route {other}")),
        };
        stats.busy_us += started.elapsed().as_micros() as u64;
        let _ = msg.reply.send(reply);
    }
}

/// The router-side handle: worker channels plus the load registry.
pub struct ShardSet {
    txs: Vec<mpsc::Sender<Msg>>,
    /// endpoint key -> generation currently loaded into all workers.
    loaded: Mutex<HashMap<String, u64>>,
    partitioning: Partitioning,
    metrics: ApiMetrics,
}

impl ShardSet {
    /// Spawn `partitioning.shards` workers (callers guarantee ≥ 2; a
    /// 1-shard plane *is* the unsharded path and should not exist).
    pub fn new(partitioning: Partitioning, metrics: ApiMetrics) -> ShardSet {
        let limits = WireLimits::default();
        let txs = (0..partitioning.shards)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Msg>();
                let worker_metrics = metrics.clone();
                thread::Builder::new()
                    .name(format!("shard-{i}"))
                    .spawn(move || worker_loop(i as u64, rx, worker_metrics, limits))
                    .expect("spawn shard worker");
                tx
            })
            .collect();
        metrics.record_shard_workers(partitioning.shards as u64);
        ShardSet {
            txs,
            loaded: Mutex::new(HashMap::new()),
            partitioning,
            metrics,
        }
    }

    /// Number of shard workers.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    fn send(
        &self,
        shard: usize,
        frame: Vec<u8>,
        payload: Option<Payload>,
    ) -> mpsc::Receiver<Reply> {
        let (reply, rx) = mpsc::channel();
        let _ = self.txs[shard].send(Msg {
            frame,
            payload,
            reply,
        });
        rx
    }

    /// Cut fresh slices of `table` at `generation` and load them into all
    /// workers, if that exact generation isn't already resident.
    fn ensure_loaded(&self, key: &str, generation: u64, table: &Table) -> Result<(), String> {
        let mut loaded = self.loaded.lock();
        if loaded.get(key) == Some(&generation) {
            return Ok(());
        }
        let gen_header = generation.to_string();
        let ranges = self.partitioning.ranges(table.num_rows());
        let receivers: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| {
                self.send(
                    i,
                    frame(
                        "POST",
                        "/_shard/load",
                        &[("x-shard-key", key), ("x-shard-generation", &gen_header)],
                    ),
                    Some(Payload::Slice(table.slice(start, len))),
                )
            })
            .collect();
        for rx in receivers {
            match rx.recv() {
                Ok(Reply::Status { code: 200, .. }) => {}
                Ok(Reply::Status { message, .. }) => return Err(message),
                _ => return Err("shard worker unavailable during load".into()),
            }
        }
        loaded.insert(key.to_string(), generation);
        self.metrics
            .record_shard_load(self.txs.len() as u64, table.num_rows() as u64);
        Ok(())
    }

    /// Scatter the planned local pipeline; `Ok` partials arrive in shard
    /// order. `Err(Some(msg))` is a shard's query error; `Err(None)` means
    /// a stale/absent slice was hit.
    #[allow(clippy::type_complexity)]
    fn scatter(
        &self,
        key: &str,
        generation: u64,
        result_key: &str,
        sp: &ScatterPlan,
        span: Option<&mut Span>,
    ) -> Result<(Vec<Reply>, u64), Option<String>> {
        let gen_header = generation.to_string();
        let scatter_span = span.map(|s| s.child("shard_scatter"));
        let receivers: Vec<_> = (0..self.txs.len())
            .map(|i| {
                self.send(
                    i,
                    frame(
                        "POST",
                        "/_shard/query",
                        &[
                            ("x-shard-key", key),
                            ("x-shard-generation", &gen_header),
                            ("x-shard-result-key", result_key),
                        ],
                    ),
                    Some(Payload::Query {
                        local: sp.local.clone(),
                        accumulate: sp.accumulate.clone(),
                    }),
                )
            })
            .collect();
        let mut replies = Vec::with_capacity(receivers.len());
        let mut partial_rows = 0u64;
        let mut outcome: Result<(), Option<String>> = Ok(());
        for (i, rx) in receivers.into_iter().enumerate() {
            let mut shard_span = scatter_span.as_ref().map(|s| s.child("shard_partial"));
            let reply = rx
                .recv()
                .map_err(|_| Some("shard worker unavailable during scatter".to_string()))?;
            let rows = match &reply {
                Reply::Table { table, .. } => table.num_rows() as u64,
                Reply::Partial(p) => p.num_groups() as u64,
                Reply::Status { code: 409, .. } => {
                    if outcome.is_ok() {
                        outcome = Err(None);
                    }
                    0
                }
                Reply::Status { message, .. } => {
                    if !matches!(outcome, Err(Some(_))) {
                        outcome = Err(Some(message.clone()));
                    }
                    0
                }
                Reply::Stats(_) => 0,
            };
            if let Some(s) = shard_span.as_mut() {
                s.set_attr("shard", i as i64);
                s.set_attr("partial_rows", rows as i64);
            }
            if let Some(s) = shard_span {
                s.finish();
            }
            partial_rows += rows;
            replies.push(reply);
        }
        if let Some(mut s) = scatter_span {
            s.set_attr("shards", self.txs.len() as i64);
            s.set_attr("partial_rows", partial_rows as i64);
            s.finish();
        }
        outcome.map(|()| (replies, partial_rows))
    }

    /// Execute `ops` over `table` via scatter/gather. `None` means the
    /// query should run unsharded (plan not shardable, endpoint below the
    /// row floor, workers unavailable, or the query failed somewhere);
    /// `Some(result)` is the unsharded `run_query_indexed` result exactly.
    pub fn execute(
        &self,
        key: &str,
        generation: u64,
        result_key: &str,
        table: &Table,
        ops: &[QueryOp],
        mut span: Option<&mut Span>,
    ) -> Option<(Table, bool)> {
        if table.num_rows() < self.partitioning.min_rows {
            self.metrics.record_shard_fallback();
            return None;
        }
        let Some(sp) = plan::plan(ops, table.schema()) else {
            self.metrics.record_shard_fallback();
            return None;
        };
        if self.ensure_loaded(key, generation, table).is_err() {
            self.metrics.record_shard_fallback();
            return None;
        }
        let mut attempt = self.scatter(key, generation, result_key, &sp, span.as_deref_mut());
        if matches!(attempt, Err(None)) {
            // A worker lost its slice to a concurrent invalidation between
            // our load check and its dispatch: reload fresh slices once.
            self.loaded.lock().remove(key);
            if self.ensure_loaded(key, generation, table).is_err() {
                self.metrics.record_shard_fallback();
                return None;
            }
            self.metrics.record_shard_stale_retry();
            attempt = self.scatter(key, generation, result_key, &sp, span.as_deref_mut());
        }
        let (replies, partial_rows) = match attempt {
            Ok(ok) => ok,
            // A failing query runs again unsharded, which owns every error
            // message and decides whether there is one: a shard's partial
            // integer sum can leave `i64` where the whole sum does not.
            Err(failure) => return self.fall_back(span, failure),
        };
        let gather_started = Instant::now();
        let mut index_hit = false;
        let gathered: Result<Table, String> = if sp.accumulate.is_some() {
            let mut merged: Option<GroupByPartial> = None;
            let mut err = None;
            for reply in replies {
                let Reply::Partial(p) = reply else {
                    err = Some("shard reply shape mismatch".to_string());
                    break;
                };
                match merged.as_mut() {
                    None => merged = Some(*p),
                    Some(m) => {
                        if let Err(e) = m.merge(*p) {
                            err = Some(e.to_string());
                            break;
                        }
                    }
                }
            }
            match (err, merged) {
                (Some(e), _) => Err(e),
                (None, Some(m)) => m.into_table().map_err(|e| e.to_string()),
                (None, None) => Err("scatter returned no partials".to_string()),
            }
        } else {
            let mut partials = Vec::with_capacity(replies.len());
            let mut err = None;
            for reply in replies {
                match reply {
                    Reply::Table {
                        table,
                        index_hit: hit,
                    } => {
                        index_hit |= hit;
                        partials.push(table);
                    }
                    _ => {
                        err = Some("shard reply shape mismatch".to_string());
                        break;
                    }
                }
            }
            match err {
                Some(e) => Err(e),
                None => union_all(&partials).map_err(|e| e.to_string()),
            }
        };
        let result = gathered.and_then(|t| run_query(&t, &sp.post));
        self.metrics.record_shard_scatter(
            self.txs.len() as u64,
            partial_rows,
            gather_started.elapsed().as_micros() as u64,
        );
        // The same rule as a shard's error: a re-summed partial that
        // leaves `i64` would name the output column, where the unsharded
        // error names the input.
        let table = match result {
            Ok(table) => table,
            Err(message) => return self.fall_back(span, Some(message)),
        };
        if let Some(s) = span {
            s.set_attr("sharded", 1i64);
        }
        Some((table, index_hit))
    }

    /// Count a failed scatter as a fallback, note the error on the span
    /// (a stale slice has none), and hand the query to the unsharded path.
    fn fall_back(&self, span: Option<&mut Span>, error: Option<String>) -> Option<(Table, bool)> {
        self.metrics.record_shard_fallback();
        if let (Some(s), Some(error)) = (span, error) {
            s.set_attr("shard_error", error);
        }
        None
    }

    /// Drop every worker's slice of `key` (append/publish/stream-push
    /// fan-out); the next query reloads at the new generation.
    pub fn invalidate(&self, key: &str) {
        self.loaded.lock().remove(key);
        let head = frame("POST", "/_shard/invalidate", &[("x-shard-key", key)]);
        let receivers: Vec<_> = (0..self.txs.len())
            .map(|i| self.send(i, head.clone(), None))
            .collect();
        for rx in receivers {
            let _ = rx.recv();
        }
        self.metrics.record_shard_invalidation();
    }

    /// Clear every worker's result cache (slices stay resident). Bench
    /// harnesses use this to measure cold evaluations.
    pub fn clear_caches(&self) {
        let head = frame("POST", "/_shard/clear", &[]);
        let receivers: Vec<_> = (0..self.txs.len())
            .map(|i| self.send(i, head.clone(), None))
            .collect();
        for rx in receivers {
            let _ = rx.recv();
        }
    }

    /// Per-worker counters, in shard order (unresponsive workers omitted).
    pub fn worker_stats(&self) -> Vec<ShardWorkerStats> {
        let head = frame("GET", "/_shard/stats", &[]);
        let receivers: Vec<_> = (0..self.txs.len())
            .map(|i| self.send(i, head.clone(), None))
            .collect();
        receivers
            .into_iter()
            .filter_map(|rx| match rx.recv() {
                Ok(Reply::Stats(s)) => Some(*s),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_ops;
    use shareinsights_tabular::{Column, Field, Schema};

    fn metrics() -> ApiMetrics {
        ApiMetrics::default()
    }

    fn big_table(rows: usize) -> Table {
        let keys = Column::utf8((0..rows).map(|i| format!("k{}", i % 7)));
        let vals = Column::int((0..rows).map(|i| (i as i64 * 37) % 1000));
        Table::new(
            Schema::new(vec![
                Field::new("k", shareinsights_tabular::DataType::Utf8),
                Field::new("v", shareinsights_tabular::DataType::Int64),
            ])
            .unwrap(),
            vec![keys, vals],
        )
        .unwrap()
    }

    fn set(shards: usize) -> ShardSet {
        let mut p = Partitioning::even(shards);
        p.min_rows = 0;
        ShardSet::new(p, metrics())
    }

    fn run_both(s: &ShardSet, table: &Table, segs: &[&str]) {
        let ops = parse_ops(segs).unwrap();
        let expected = run_query(table, &ops).unwrap();
        let (got, _) = s
            .execute("t/d", 1, &segs.join("/"), table, &ops, None)
            .expect("sharded path");
        assert_eq!(got, expected, "{segs:?}");
    }

    #[test]
    fn scatter_gather_matches_unsharded() {
        let table = big_table(2000);
        for shards in [2, 3, 4] {
            let s = set(shards);
            run_both(&s, &table, &["filter", "k", "k3"]);
            run_both(&s, &table, &["groupby", "k", "sum", "v"]);
            run_both(&s, &table, &["groupby", "k", "avg", "v"]);
            run_both(&s, &table, &["sort", "v", "desc", "limit", "25"]);
            run_both(
                &s,
                &table,
                &["filter", "k", "k1", "groupby", "k", "count", "v"],
            );
        }
    }

    #[test]
    fn unshardable_pipeline_falls_back() {
        let s = set(2);
        let table = big_table(100);
        let ops = parse_ops(&["limit", "5"]).unwrap();
        assert!(s.execute("t/d", 1, "rk", &table, &ops, None).is_none());
        assert_eq!(s.metrics.shard().fallbacks, 1);
    }

    #[test]
    fn row_floor_falls_back() {
        let p = Partitioning::even(2); // min_rows = 1024
        let s = ShardSet::new(p, metrics());
        let table = big_table(100);
        let ops = parse_ops(&["filter", "k", "k1"]).unwrap();
        assert!(s.execute("t/d", 1, "rk", &table, &ops, None).is_none());
    }

    #[test]
    fn query_errors_run_unsharded() {
        let s = set(2);
        let table = big_table(1500);
        let ops = parse_ops(&["filter", "ghost", "x"]).unwrap();
        assert!(s.execute("t/d", 1, "rk", &table, &ops, None).is_none());
        assert_eq!(s.metrics.shard().fallbacks, 1);
    }

    #[test]
    fn generation_bump_reloads_and_invalidation_drops_slices() {
        let s = set(2);
        let table = big_table(1500);
        let ops = parse_ops(&["filter", "k", "k1"]).unwrap();
        s.execute("t/d", 1, "rk", &table, &ops, None).unwrap();
        assert_eq!(s.metrics.shard().loads, 2);
        // Same generation: slices reused.
        s.execute("t/d", 1, "rk", &table, &ops, None).unwrap();
        assert_eq!(s.metrics.shard().loads, 2);
        // New generation: reload.
        s.execute("t/d", 2, "rk", &table, &ops, None).unwrap();
        assert_eq!(s.metrics.shard().loads, 4);
        s.invalidate("t/d");
        let stats = s.worker_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|w| w.slices == 0));
        s.execute("t/d", 2, "rk", &table, &ops, None).unwrap();
        assert_eq!(s.metrics.shard().loads, 6);
    }

    #[test]
    fn worker_result_cache_hits_on_repeat() {
        let s = set(2);
        let table = big_table(1500);
        let ops = parse_ops(&["groupby", "k", "sum", "v"]).unwrap();
        s.execute("t/d", 1, "rk", &table, &ops, None).unwrap();
        s.execute("t/d", 1, "rk", &table, &ops, None).unwrap();
        let stats = s.worker_stats();
        assert!(stats.iter().all(|w| w.result_hits >= 1), "{stats:?}");
        s.clear_caches();
        s.execute("t/d", 1, "rk", &table, &ops, None).unwrap();
        let after = s.worker_stats();
        assert!(after.iter().all(|w| w.result_hits == 1), "{after:?}");
    }
}
