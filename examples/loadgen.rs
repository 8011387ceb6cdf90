//! Load-generate against the TCP data-API service over persistent
//! connections.
//!
//! Starts the service on an ephemeral port, fires N concurrent clients at a
//! small pool of ad-hoc query URLs — each client holding one keep-alive
//! connection and reconnecting only when the server closes it — verifies
//! that no response is lost or malformed, and reports client-side latency
//! percentiles plus the connection reuse rate and cache hit rate from
//! `/stats`. Every request carries an `X-Trace-Id` with a fixed
//! `10adc0de` prefix, so its server-side span tree is retrievable from
//! `/trace/recent`; after the run the tool verifies the correlation and
//! checks that `/metrics` renders parseable Prometheus exposition (every
//! `# TYPE` has samples; histogram buckets are cumulative with `+Inf` ==
//! `_count`). The CI smoke job runs this binary and relies on its asserts:
//! any lost/malformed response, a reuse rate at or below 0.9, a missing
//! trace, or a malformed exposition aborts with a non-zero exit.
//!
//! ```text
//! cargo run --example loadgen [clients] [requests-per-client] [--close] [--no-trace]
//!     [--serve-mode threads|reactor] [--idle-conns N]
//! cargo run --release --example loadgen -- --cold [rows] [iterations]
//! cargo run --release --example loadgen -- --concurrency-bench
//! cargo run --release --example loadgen -- --stream-bench [subscribers] [ticks]
//! cargo run --release --example loadgen -- --sql
//! cargo run --release --example loadgen -- --self-scrape
//! cargo run --release --example loadgen -- --ingest-bench [base-rows] [append-rows]
//! cargo run --release --example loadgen -- --shard-bench [rows] [iterations]
//! ```
//!
//! `--close` forces one connection per request (the pre-keep-alive
//! behaviour) for before/after comparisons; reuse-rate asserts are skipped
//! in that mode. `--no-trace` sets the tracer's sampling knob to 0 and
//! sends no `X-Trace-Id` — the baseline for measuring tracing overhead
//! (trace asserts are skipped).
//!
//! `--serve-mode reactor` serves through the epoll event loop instead of
//! the thread-per-connection pool. `--idle-conns N` opens N quiet
//! keep-alive connections before the load starts and holds them open for
//! the whole run — in reactor mode the load must be undisturbed (the CI
//! reactor smoke job runs exactly this and relies on the zero-5xx /
//! exposition asserts); in thread mode N idle connections pin the worker
//! pool, so expect the run to abort.
//!
//! `--concurrency-bench` measures that contrast instead of asserting it:
//! both serve modes × idle herds of 0/256/2048, each with 32 active
//! clients, reporting per-config p50/p95/p99 and 5xx counts as a JSON
//! document on stdout — the source of the committed
//! `BENCH_serve_concurrency.json` (progress goes to stderr).
//!
//! `--stream-bench` measures the live-flow path: the reactor serves a
//! streaming dashboard to a herd of idle SSE subscribers (default 500)
//! plus a handful of actively reading probes; micro-batches are pushed
//! through `POST .../stream/push/<source>` and the tick-to-push latency —
//! push initiated to frame received — is reported as p50/p95 in a JSON
//! document on stdout, the source of the committed
//! `BENCH_stream_latency.json`. The CI streaming smoke job runs this mode
//! and relies on its asserts: any 5xx, a non-monotonic generation
//! sequence on any subscriber, an evicted subscriber, or a malformed
//! `/metrics` exposition (which must include the `shareinsights_stream_*`
//! families) aborts with a non-zero exit.
//!
//! `--sql` switches to the SQL-frontend smoke: both serve modes get mixed
//! SQL (`POST /<dashboard>/ds/<dataset>/sql`) and path-segment traffic
//! over the same logical queries, asserting every SQL payload is
//! byte-identical to its path-grammar twin, that malformed SQL returns a
//! structured 400 (never a 5xx), and that the `shareinsights_sql_*`
//! counter families export on `/metrics`. The CI SQL smoke job runs this
//! mode and relies on those asserts.
//!
//! `--self-scrape` switches to the self-observability smoke: both serve
//! modes run with the telemetry scraper enabled
//! ([`ServeOptions::scrape_interval`]) while warm query traffic flows,
//! then assert that the built-in `_system/ds/telemetry` dashboard serves a
//! non-empty scraped history, that `SELECT family, max(value) FROM
//! telemetry GROUP BY family` over `POST /_system/ds/telemetry/sql` is
//! byte-identical to the path-grammar route, that writes into the
//! `_system` namespace are rejected with 409, and that the
//! `shareinsights_selfscrape_*` / `shareinsights_process_*` families
//! export on `/metrics`. The CI self-scrape smoke job runs this mode and
//! relies on those asserts.
//!
//! `--ingest-bench` measures the streaming ingestion pipeline: a bulk CSV
//! upload (default 1M rows) streams through the chunked ingest route with
//! RSS sampled throughout — the bounded-window claim shows up as a peak
//! RSS delta that stays a small multiple of the body size — then the
//! endpoint's index is warmed and a series of append batches must each
//! answer 200 with `"index": "merged"` (incremental maintenance, no cold
//! rebuild) and a strictly increasing generation. An in-process
//! append-vs-rebuild comparison times `IndexedTable::append` against a
//! cold rebuild over the concatenated table; the JSON document on stdout
//! is the source of the committed `BENCH_ingest.json`. The CI ingest
//! smoke job runs this mode on a smaller dataset and relies on its
//! asserts: any 5xx, a non-monotonic generation, a cold fallback on a
//! warm append, an ingest abort, or a malformed `/metrics` exposition
//! (which must carry the `shareinsights_ingest_*` families) aborts with a
//! non-zero exit.
//!
//! `--shard-bench` measures the shared-nothing sharded data plane: the
//! same ~1M-row synthetic dataset is queried cold (derived caches cleared
//! between iterations) through servers at 1, 2, and 4 shards over a
//! groupby + top-n workload, asserting every sharded response is
//! byte-identical to the single-shard answer and that the sharded servers
//! actually scattered. The JSON document on stdout — per-width cold
//! latencies, ok/s, `nproc`, and the `shard_scaling` ratios — is the
//! source of the committed `BENCH_shard_scaling.json`. The ratios are
//! reported, not gated: every width runs the same fused top-n, so they
//! say what scatter/gather buys on this many cores and nothing else. A served
//! smoke phase then fires the workload at both TCP serve modes with
//! `ServeOptions::shards = 4`, asserting zero 5xx, byte-identical bodies,
//! and the `shareinsights_shard_*` families in a valid `/metrics`
//! exposition. The CI shard smoke job runs a smaller config and relies on
//! those asserts.
//!
//! `--cold` switches to the cold-query benchmark: a ~1M-row synthetic
//! dataset (configurable) is queried through the scan kernels and through
//! the indexed path ([`shareinsights::tabular::IndexedTable`]), asserting
//! the two produce byte-identical JSON for every route, then reporting
//! cold (cache-bypassed, per-evaluation) and warm (served cache hit)
//! p50/p95 per route (and `nproc`) as a JSON document on stdout — the
//! source of the committed `BENCH_adhoc_query.json`. Progress goes to stderr, so
//! `--cold > BENCH_adhoc_query.json` captures just the document. The CI
//! bench-smoke job runs this mode on a smaller dataset and relies on the
//! differential asserts.

use shareinsights::server::{
    blocking_get, blocking_request, serve, ClientConnection, Request, ServeMode, ServeOptions,
    Server,
};
use shareinsights_core::Platform;
use shareinsights_tabular::io::json::JsonValue;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

/// The ad-hoc query pool every serving load cycles through.
const TARGETS: [&str; 5] = [
    "/retail/ds/brand_sales",
    "/retail/ds/brand_sales/groupby/region/count/brand",
    "/retail/ds/brand_sales/groupby/brand/sum/revenue",
    "/retail/ds/brand_sales/sort/revenue/desc/limit/5",
    "/retail/ds/brand_sales/filter/region/north/limit/10",
];

/// Remove `name <value>` from `args`, returning the value.
fn take_value_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        panic!("{name} needs a value");
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// The modest synthetic retail platform the serving loads run against.
fn retail_platform() -> Platform {
    let platform = Platform::new();
    let mut csv = String::from("region,brand,revenue\n");
    let regions = ["north", "south", "east", "west"];
    let brands = ["acme", "zest", "nova", "apex", "lumo"];
    for i in 0..2000 {
        csv.push_str(&format!(
            "{},{},{}\n",
            regions[i % regions.len()],
            brands[i % brands.len()],
            (i * 37) % 500
        ));
    }
    platform.upload_data("retail", "sales.csv", csv);
    platform.save_flow("retail", FLOW).expect("flow");
    platform.run_dashboard("retail").expect("run");
    platform
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let serve_mode = match take_value_flag(&mut args, "--serve-mode").as_deref() {
        None | Some("threads") => ServeMode::ThreadPerConnection,
        Some("reactor") => ServeMode::Reactor,
        Some(other) => panic!("unknown --serve-mode '{other}' (threads|reactor)"),
    };
    let idle_conns: usize = take_value_flag(&mut args, "--idle-conns")
        .map(|v| v.parse().expect("--idle-conns takes a count"))
        .unwrap_or(0);
    let close_mode = args.iter().any(|a| a == "--close");
    let no_trace = args.iter().any(|a| a == "--no-trace");
    let cold_mode = args.iter().any(|a| a == "--cold");
    if args.iter().any(|a| a == "--concurrency-bench") {
        serve_concurrency_benchmark();
        return;
    }
    if args.iter().any(|a| a == "--sql") {
        sql_smoke();
        return;
    }
    if args.iter().any(|a| a == "--self-scrape") {
        self_scrape_smoke();
        return;
    }
    let ingest_mode = args.iter().any(|a| a == "--ingest-bench");
    let stream_mode = args.iter().any(|a| a == "--stream-bench");
    let mut nums = args.iter().filter(|a| !a.starts_with("--"));
    if ingest_mode {
        let base_rows: usize = nums
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or(1_000_000);
        let append_rows: usize = nums.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
        ingest_benchmark(base_rows, append_rows);
        return;
    }
    if stream_mode {
        let subscribers: usize = nums.next().and_then(|a| a.parse().ok()).unwrap_or(500);
        let ticks: usize = nums.next().and_then(|a| a.parse().ok()).unwrap_or(20);
        stream_benchmark(subscribers, ticks);
        return;
    }
    if args.iter().any(|a| a == "--shard-bench") {
        let rows: usize = nums
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or(1_000_000);
        let iters: usize = nums.next().and_then(|a| a.parse().ok()).unwrap_or(5);
        shard_benchmark(rows, iters);
        return;
    }
    if cold_mode {
        let rows: usize = nums
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or(1_000_000);
        let iters: usize = nums.next().and_then(|a| a.parse().ok()).unwrap_or(8);
        cold_query_benchmark(rows, iters);
        return;
    }
    let clients: usize = nums.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let per_client: usize = nums.next().and_then(|a| a.parse().ok()).unwrap_or(50);

    let platform = retail_platform();
    if no_trace {
        // Sampling 0 disables tracing entirely (explicit ids included) —
        // the baseline for measuring the tracing subsystem's overhead.
        platform.tracer().set_sample_one_in(0);
    }

    let opts = ServeOptions {
        serve_mode,
        // The idle herd must outlive the measured load.
        idle_timeout: if idle_conns > 0 {
            Duration::from_secs(60)
        } else {
            ServeOptions::default().idle_timeout
        },
        ..ServeOptions::default()
    };
    let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).expect("bind ephemeral port");
    let addr = svc.local_addr();
    let mode = if close_mode {
        "one connection per request"
    } else {
        "keep-alive"
    };
    println!(
        "serving on http://{addr} ({serve_mode:?}) — {clients} clients x {per_client} requests ({mode})"
    );

    // The quiet herd: opened before the load, held for its whole
    // duration. In reactor mode these cost a connection-table entry each
    // and the load below must be completely undisturbed.
    let idle: Vec<TcpStream> = (0..idle_conns)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();
    if !idle.is_empty() {
        println!("holding {} idle keep-alive connections", idle.len());
        std::thread::sleep(Duration::from_millis(200));
    }

    let targets = TARGETS;

    let started = Instant::now();
    // Each client holds one persistent connection, reconnecting only when
    // the server closes it (Connection: close, idle timeout, or the
    // per-connection request bound). Every request carries an X-Trace-Id
    // with the 10adc0de prefix for /trace/recent correlation. Returns
    // (ok, connections used, per-request latencies in µs).
    let per_thread: Vec<(usize, usize, Vec<u64>)> = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                let targets = &targets;
                scope.spawn(move || {
                    let mut conn = ClientConnection::connect(addr).expect("connect");
                    let mut connections = 1;
                    let mut ok = 0;
                    let mut latencies_us = Vec::with_capacity(per_client);
                    for r in 0..per_client {
                        let target = targets[(c + r) % targets.len()];
                        if conn.server_closed() {
                            conn = ClientConnection::connect(addr).expect("reconnect");
                            connections += 1;
                        }
                        let trace_id = format!("10adc0de{:08x}", c * per_client + r);
                        let sent = Instant::now();
                        let outcome = if close_mode {
                            conn.request_close("GET", target, "")
                        } else if no_trace {
                            conn.request("GET", target, "")
                        } else {
                            conn.request_with_headers(
                                "GET",
                                target,
                                "",
                                &[("X-Trace-Id", &trace_id)],
                            )
                        };
                        latencies_us.push(sent.elapsed().as_micros() as u64);
                        match outcome {
                            Ok((200, body)) if body.starts_with('{') => ok += 1,
                            Ok((code, body)) => {
                                panic!("malformed/failed response {code} for {target}: {body}")
                            }
                            Err(e) => panic!("lost response for {target}: {e}"),
                        }
                    }
                    (ok, connections, latencies_us)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let total = clients * per_client;
    let ok: usize = per_thread.iter().map(|(ok, _, _)| ok).sum();
    let connections: usize = per_thread.iter().map(|(_, c, _)| c).sum();
    assert_eq!(ok, total, "every request must get a well-formed response");

    // Client-observed latency percentiles over every request.
    let mut latencies: Vec<u64> = per_thread
        .iter()
        .flat_map(|(_, _, l)| l.iter().copied())
        .collect();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = ((latencies.len() as f64 * p).ceil() as usize).max(1) - 1;
        latencies[idx.min(latencies.len() - 1)]
    };
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));

    // Reuse rate: the fraction of requests that rode an already-open
    // connection instead of paying connect/teardown.
    let reuse = (total - connections) as f64 / total as f64;
    assert!(
        close_mode || reuse > 0.9,
        "keep-alive must amortize connects: reuse {reuse:.3} over {connections} connections"
    );

    let (code, stats) = blocking_get(addr, "/stats").expect("/stats");
    assert_eq!(code, 200);
    let doc = shareinsights_tabular::io::json::parse_json(&stats).expect("stats json");
    let hits = doc.path("cache.hits").unwrap().to_value().as_int().unwrap();
    let misses = doc
        .path("cache.misses")
        .unwrap()
        .to_value()
        .as_int()
        .unwrap();
    let rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    let reused = doc
        .path("connections.reused")
        .unwrap()
        .to_value()
        .as_int()
        .unwrap();
    assert!(
        close_mode || reused > 0,
        "server must observe reused connections: {stats}"
    );

    // The load ran with explicit X-Trace-Ids; the server's ring must hold
    // span trees correlatable by the shared prefix.
    if !close_mode && !no_trace {
        let (code, recent) = blocking_get(addr, "/trace/recent?limit=5").expect("/trace/recent");
        assert_eq!(code, 200);
        assert!(
            recent.contains("10adc0de"),
            "recent traces must carry the loadgen X-Trace-Id prefix: {recent}"
        );
        assert!(
            recent.contains("query_eval") || recent.contains("cache_lookup"),
            "span trees must show dispatch children: {recent}"
        );
    }

    let (code, metrics) = blocking_get(addr, "/metrics").expect("/metrics");
    assert_eq!(code, 200);
    validate_exposition(&metrics);

    println!(
        "{total} requests in {:.2?} ({:.0} req/s), 0 lost, 0 malformed",
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    println!("client latency: p50 {p50}µs  p95 {p95}µs  p99 {p99}µs");
    println!(
        "connections: {connections} opened for {total} requests — reuse rate {:.1}%",
        100.0 * reuse
    );
    println!("cache: {hits} hits / {misses} misses — {rate:.1}% hit rate");
    println!("/metrics exposition OK ({} lines)", metrics.lines().count());

    if serve_mode == ServeMode::Reactor {
        // The whole herd (plus at least one active connection) must have
        // been registered with the event loop, and the reactor series
        // must export under their Prometheus names.
        let peak = doc
            .path("reactor.peak_registered")
            .unwrap()
            .to_value()
            .as_int()
            .unwrap();
        assert!(
            peak as usize > idle_conns,
            "reactor must register the idle herd: peak {peak} vs {idle_conns} idle"
        );
        assert!(
            metrics.contains("shareinsights_reactor_wakeups_total"),
            "reactor series missing from /metrics"
        );
        println!("reactor: peak {peak} registered connections, zero 5xx");
    }
    println!("--- /stats ---\n{stats}");

    drop(idle);
    svc.shutdown();
}

/// The `--concurrency-bench` mode: quantify what the reactor buys. Both
/// serve modes are loaded with 32 active keep-alive clients while a herd
/// of 0, 256, or 2048 idle connections sits on the same service; per
/// configuration the client-observed p50/p95/p99, 5xx count, and lost
/// count go to stdout as a JSON document — the source of the committed
/// `BENCH_serve_concurrency.json`. Thread mode is *expected* to shed or
/// starve under an idle herd (that is the point of the comparison), so
/// unlike the default load mode nothing here asserts zero failures.
fn serve_concurrency_benchmark() {
    use shareinsights_core::trace::EventLog;
    const ACTIVE_CLIENTS: usize = 32;
    const PER_CLIENT: usize = 25;
    const IDLE_LEVELS: [usize; 3] = [0, 256, 2048];

    let pct = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() as f64 * p).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    };

    let mut config_docs = Vec::new();
    for mode in [ServeMode::ThreadPerConnection, ServeMode::Reactor] {
        for idle_conns in IDLE_LEVELS {
            let mode_name = match mode {
                ServeMode::ThreadPerConnection => "threads",
                ServeMode::Reactor => "reactor",
            };
            eprintln!("{mode_name} with {idle_conns} idle connections…");
            let opts = ServeOptions {
                serve_mode: mode,
                // The herd must outlive the measured load, and the 5xx
                // storm thread mode produces should not spam stderr.
                idle_timeout: Duration::from_secs(120),
                event_log: EventLog::in_memory(),
                ..ServeOptions::default()
            };
            let mut svc = serve(Server::new(retail_platform()), "127.0.0.1:0", opts)
                .expect("bind ephemeral port");
            let addr = svc.local_addr();

            let idle: Vec<TcpStream> = (0..idle_conns)
                .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
                .collect();
            std::thread::sleep(Duration::from_millis(200));

            let started = Instant::now();
            // Each active client holds one keep-alive connection,
            // reconnecting whenever the server closes it (including after
            // every load-shedding 503). (ok, 5xx, lost, ok-latencies µs).
            let per_thread: Vec<(usize, usize, usize, Vec<u64>)> = std::thread::scope(|scope| {
                (0..ACTIVE_CLIENTS)
                    .map(|c| {
                        scope.spawn(move || {
                            let mut conn: Option<ClientConnection> = None;
                            let (mut ok, mut server_5xx, mut lost) = (0usize, 0usize, 0usize);
                            let mut latencies_us = Vec::with_capacity(PER_CLIENT);
                            for r in 0..PER_CLIENT {
                                let target = TARGETS[(c + r) % TARGETS.len()];
                                if conn.as_ref().is_none_or(|c| c.server_closed()) {
                                    match ClientConnection::connect(addr) {
                                        Ok(fresh) => conn = Some(fresh),
                                        Err(_) => {
                                            lost += 1;
                                            continue;
                                        }
                                    }
                                }
                                let sent = Instant::now();
                                match conn.as_mut().unwrap().get(target) {
                                    Ok((200, _)) => {
                                        ok += 1;
                                        latencies_us.push(sent.elapsed().as_micros() as u64);
                                    }
                                    Ok((code, _)) if code >= 500 => server_5xx += 1,
                                    Ok((code, body)) => {
                                        panic!("unexpected {code} for {target}: {body}")
                                    }
                                    Err(_) => {
                                        lost += 1;
                                        conn = None;
                                    }
                                }
                            }
                            (ok, server_5xx, lost, latencies_us)
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let elapsed = started.elapsed();
            drop(idle);

            let ok: usize = per_thread.iter().map(|(ok, _, _, _)| ok).sum();
            let server_5xx: usize = per_thread.iter().map(|(_, e, _, _)| e).sum();
            let lost: usize = per_thread.iter().map(|(_, _, l, _)| l).sum();
            let mut latencies: Vec<u64> = per_thread
                .iter()
                .flat_map(|(_, _, _, l)| l.iter().copied())
                .collect();
            latencies.sort_unstable();
            let (p50, p95, p99) = (
                pct(&latencies, 0.50),
                pct(&latencies, 0.95),
                pct(&latencies, 0.99),
            );
            let ok_per_sec = ok as f64 / elapsed.as_secs_f64();
            eprintln!(
                "  {ok}/{} ok, {server_5xx} 5xx, {lost} lost — \
                 p50 {p50}µs p95 {p95}µs p99 {p99}µs",
                ACTIVE_CLIENTS * PER_CLIENT
            );
            config_docs.push(format!(
                "    {{\"serve_mode\": \"{mode_name}\", \"idle_conns\": {idle_conns}, \
                 \"requests\": {}, \"ok\": {ok}, \"server_5xx\": {server_5xx}, \
                 \"lost\": {lost}, \"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}, \
                 \"elapsed_ms\": {}, \"ok_per_sec\": {ok_per_sec:.0}}}",
                ACTIVE_CLIENTS * PER_CLIENT,
                elapsed.as_millis()
            ));
            svc.shutdown();
        }
    }

    println!("{{");
    println!("  \"active_clients\": {ACTIVE_CLIENTS},");
    println!("  \"requests_per_client\": {PER_CLIENT},");
    println!("  \"idle_levels\": [0, 256, 2048],");
    println!("  \"configs\": [");
    println!("{}", config_docs.join(",\n"));
    println!("  ]");
    println!("}}");
}

/// The `--stream-bench` mode: quantify live-flow delivery. A reactor
/// service carries `subscribers` idle SSE subscriptions plus a handful of
/// actively reading probes while `ticks` micro-batches are pushed; the
/// probes timestamp every generation-delta frame against the instant its
/// push was initiated, and the resulting tick-to-push p50/p95 goes to
/// stdout as a JSON document — the source of the committed
/// `BENCH_stream_latency.json`. Asserts (the CI streaming smoke job
/// relies on them): zero 5xx, strictly increasing generations on every
/// subscriber — herd included — zero evictions, and a well-formed
/// `/metrics` exposition carrying the `shareinsights_stream_*` families.
fn stream_benchmark(subscribers: usize, ticks: usize) {
    use shareinsights_core::trace::EventLog;
    const PROBES: usize = 8;

    eprintln!(
        "stream benchmark: {subscribers} idle subscribers + {PROBES} probes, {ticks} ticks (reactor)"
    );
    let opts = ServeOptions {
        serve_mode: ServeMode::Reactor,
        // The herd must outlive the measured run.
        idle_timeout: Duration::from_secs(120),
        event_log: EventLog::in_memory(),
        ..ServeOptions::default()
    };
    let mut svc =
        serve(Server::new(retail_platform()), "127.0.0.1:0", opts).expect("bind ephemeral port");
    let addr = svc.local_addr();

    let (code, body) = blocking_request(addr, "POST", "/dashboards/retail/stream/start", "")
        .expect("stream start");
    assert_eq!(code, 200, "stream start must succeed: {body}");

    // The idle herd holds live subscriptions for the whole run without
    // reading; everything it is owed sits in kernel socket buffers until
    // the post-run drain checks it.
    let mut herd = Vec::with_capacity(subscribers);
    for i in 0..subscribers {
        let conn =
            ClientConnection::connect(addr).unwrap_or_else(|e| panic!("subscriber {i}: {e}"));
        let sub = conn
            .subscribe("/retail/ds/brand_sales/subscribe")
            .unwrap_or_else(|e| panic!("subscribe {i}: {e}"));
        herd.push(sub);
    }
    eprintln!("herd of {subscribers} subscribed");

    let pct = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() as f64 * p).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    };

    // Probes subscribe, swallow their snapshot, and rendezvous with the
    // pusher so no probe can subscribe mid-sequence and miss a tick.
    let barrier = std::sync::Barrier::new(PROBES + 1);
    let barrier = &barrier;
    let mut push_t0 = Vec::with_capacity(ticks);
    let probe_events: Vec<Vec<(u64, Instant)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PROBES)
            .map(|p| {
                scope.spawn(move || {
                    let conn = ClientConnection::connect(addr).expect("probe connect");
                    let mut sub = conn
                        .subscribe("/retail/ds/brand_sales/subscribe")
                        .expect("probe subscribe");
                    let mut snapshot = Vec::new();
                    while snapshot.is_empty() {
                        snapshot = sub
                            .next_events(Duration::from_millis(250))
                            .unwrap_or_else(|e| panic!("probe {p} snapshot: {e}"));
                    }
                    barrier.wait();
                    let mut deltas = Vec::with_capacity(ticks);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while deltas.len() < ticks && Instant::now() < deadline {
                        let batch = sub
                            .next_events(Duration::from_millis(250))
                            .unwrap_or_else(|e| panic!("probe {p}: {e}"));
                        let received = Instant::now();
                        deltas.extend(batch.into_iter().map(|ev| (ev.id, received)));
                    }
                    assert_eq!(deltas.len(), ticks, "probe {p} missed frames");
                    deltas
                })
            })
            .collect();

        barrier.wait();
        for t in 0..ticks {
            let body = format!(
                "north,streamed_{t},{}\nsouth,streamed_{t},{}\n",
                t + 1,
                t + 2
            );
            push_t0.push(Instant::now());
            let (code, resp) =
                blocking_request(addr, "POST", "/dashboards/retail/stream/push/sales", &body)
                    .expect("push");
            assert_eq!(code, 200, "push {t} must not 5xx: {resp}");
            // Pace the ticks apart so each frame's delivery is measured
            // on an otherwise quiet wire.
            std::thread::sleep(Duration::from_millis(10));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });

    // Tick-to-push latency: k-th delta frame against the k-th push.
    let mut latencies_us: Vec<u64> = Vec::with_capacity(PROBES * ticks);
    for (p, deltas) in probe_events.iter().enumerate() {
        let mut last = 0u64;
        for (k, (generation, received)) in deltas.iter().enumerate() {
            assert!(
                *generation > last,
                "probe {p}: generation {generation} after {last} — not monotonic"
            );
            last = *generation;
            latencies_us.push(received.duration_since(push_t0[k]).as_micros() as u64);
        }
    }
    latencies_us.sort_unstable();
    let (p50, p95, p99) = (
        pct(&latencies_us, 0.50),
        pct(&latencies_us, 0.95),
        pct(&latencies_us, 0.99),
    );
    eprintln!("tick-to-push: p50 {p50}µs  p95 {p95}µs  p99 {p99}µs");

    // Drain the herd: every subscriber is owed its snapshot plus one
    // frame per tick, in strictly increasing generation order.
    for (i, sub) in herd.iter_mut().enumerate() {
        let want = 1 + ticks;
        let mut got = Vec::with_capacity(want);
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < want && Instant::now() < deadline {
            got.extend(
                sub.next_events(Duration::from_millis(100))
                    .unwrap_or_else(|e| panic!("herd subscriber {i}: {e}")),
            );
        }
        assert_eq!(got.len(), want, "herd subscriber {i} missed frames");
        let mut last: Option<u64> = None;
        for ev in &got {
            assert!(
                last.is_none_or(|l| ev.id > l),
                "herd subscriber {i}: generation {} after {last:?}",
                ev.id
            );
            last = Some(ev.id);
        }
    }
    eprintln!(
        "herd drained: {} frames each, generations monotonic",
        1 + ticks
    );

    let (code, stats) = blocking_get(addr, "/stats").expect("/stats");
    assert_eq!(code, 200);
    let doc = shareinsights_tabular::io::json::parse_json(&stats).expect("stats json");
    let stream_stat = |key: &str| -> i64 {
        doc.path(&format!("stream.{key}"))
            .unwrap_or_else(|| panic!("no stream.{key} in {stats}"))
            .to_value()
            .as_int()
            .unwrap()
    };
    assert_eq!(
        stream_stat("ticks"),
        ticks as i64,
        "every push must be recorded as a tick"
    );
    assert_eq!(
        stream_stat("dropped_subscribers"),
        0,
        "no subscriber may be evicted during the paced run: {stats}"
    );
    let frames_sent = stream_stat("frames_sent");
    let peak = stream_stat("peak_subscribers");
    assert!(
        peak >= (subscribers + PROBES) as i64,
        "peak subscriber gauge must cover the herd: {peak}"
    );

    let (code, metrics) = blocking_get(addr, "/metrics").expect("/metrics");
    assert_eq!(code, 200);
    validate_exposition(&metrics);
    assert!(
        metrics.contains("shareinsights_stream_frames_sent_total"),
        "stream series missing from /metrics"
    );
    eprintln!("/metrics exposition OK ({} lines)", metrics.lines().count());

    println!("{{");
    println!("  \"subscribers\": {subscribers},");
    println!("  \"probes\": {PROBES},");
    println!("  \"ticks\": {ticks},");
    println!("  \"frames_sent\": {frames_sent},");
    println!("  \"evicted_subscribers\": 0,");
    println!("  \"tick_to_push\": {{\"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}}}");
    println!("}}");

    drop(herd);
    svc.shutdown();
}

/// The `--sql` mode: smoke the SQL frontend over the wire. Each serve
/// mode gets its own retail platform and several rounds of mixed traffic
/// where every `POST /retail/ds/brand_sales/sql` body is asserted
/// byte-identical to its path-grammar twin from `TARGETS`, a rich
/// SQL-only query must serve 200, and malformed SQL must come back as a
/// structured 400 (never a 5xx). Afterwards `/stats` must show the
/// canonical queries sharing the path route's cache entries
/// (`sql.path_shared` == matched pairs) and exactly one parse error, and
/// `/metrics` must export the `shareinsights_sql_*` families in a
/// well-formed exposition. The CI SQL smoke job relies on these asserts.
fn sql_smoke() {
    // Path targets and their canonical SQL twins: same ops, same cache
    // entry, byte-identical payload.
    let pairs: [(&str, &str); 5] = [
        ("/retail/ds/brand_sales", "select * from brand_sales"),
        (
            "/retail/ds/brand_sales/groupby/region/count/brand",
            "select region, count(brand) from brand_sales group by region",
        ),
        (
            "/retail/ds/brand_sales/groupby/brand/sum/revenue",
            "select brand, sum(revenue) from brand_sales group by brand",
        ),
        (
            "/retail/ds/brand_sales/sort/revenue/desc/limit/5",
            "select * from brand_sales order by revenue desc limit 5",
        ),
        (
            "/retail/ds/brand_sales/filter/region/north/limit/10",
            "select * from brand_sales where region = 'north' limit 10",
        ),
    ];
    // Beyond the path grammar: boolean WHERE, multi-agg GROUP BY with
    // aliases, multi-key ORDER BY. Must serve 200 without a path twin.
    let rich = "select brand, sum(revenue) as total, count(revenue) as orders \
                from brand_sales where region = 'north' or region = 'south' \
                group by brand order by total desc, brand asc limit 3";
    let malformed = "select from brand_sales where";
    let rounds = 8;

    for serve_mode in [ServeMode::ThreadPerConnection, ServeMode::Reactor] {
        let opts = ServeOptions {
            serve_mode,
            ..ServeOptions::default()
        };
        let mut svc =
            serve(Server::new(retail_platform()), "127.0.0.1:0", opts).expect("bind ephemeral");
        let addr = svc.local_addr();
        let mut conn = ClientConnection::connect(addr).expect("connect");

        let mut matched = 0usize;
        for round in 0..rounds {
            for (path, sql) in &pairs {
                let (path_code, path_body) = conn.request("GET", path, "").expect("path request");
                let (sql_code, sql_body) = conn
                    .request("POST", "/retail/ds/brand_sales/sql", sql)
                    .expect("sql request");
                assert_eq!(path_code, 200, "path route failed for {path}: {path_body}");
                assert_eq!(sql_code, 200, "sql route failed for {sql:?}: {sql_body}");
                assert_eq!(
                    path_body, sql_body,
                    "round {round}: SQL {sql:?} must serve the exact bytes of {path}"
                );
                matched += 1;
            }
        }
        let (code, body) = conn
            .request("POST", "/retail/ds/brand_sales/sql", rich)
            .expect("rich sql");
        assert_eq!(code, 200, "rich SQL must serve: {body}");
        assert!(
            body.contains("total") && body.contains("orders"),
            "rich SQL must carry its aliases: {body}"
        );
        let (code, body) = conn
            .request("POST", "/retail/ds/brand_sales/sql", malformed)
            .expect("malformed sql");
        assert_eq!(code, 400, "malformed SQL must be a client error: {body}");
        assert!(
            body.contains("\"kind\"") && body.contains("\"line\""),
            "malformed SQL must return the structured error body: {body}"
        );

        let (code, stats) = blocking_get(addr, "/stats").expect("/stats");
        assert_eq!(code, 200);
        let doc = shareinsights_tabular::io::json::parse_json(&stats).expect("stats json");
        let stat = |path: &str| doc.path(path).unwrap().to_value().as_int().unwrap() as usize;
        assert_eq!(
            stat("sql.queries"),
            matched + 1,
            "every accepted SQL query must be counted: {stats}"
        );
        assert_eq!(
            stat("sql.path_shared"),
            matched,
            "canonical SQL must share the path route's cache entries: {stats}"
        );
        assert_eq!(
            stat("sql.parse_errors"),
            1,
            "exactly one malformed query was sent: {stats}"
        );

        let (code, metrics) = blocking_get(addr, "/metrics").expect("/metrics");
        assert_eq!(code, 200);
        validate_exposition(&metrics);
        for family in [
            "shareinsights_sql_queries_total",
            "shareinsights_sql_parse_errors_total",
            "shareinsights_sql_path_shared_total",
            "shareinsights_sql_parse_seconds_total",
        ] {
            assert!(metrics.contains(family), "{family} missing from /metrics");
        }

        println!(
            "sql smoke ({serve_mode:?}): {matched} SQL/path pairs byte-identical, \
             rich query 200, malformed 400, counters consistent"
        );
        svc.shutdown();
    }
    println!("sql smoke OK: zero 5xx, all payloads byte-equal across both serve modes");
}

/// The `--self-scrape` mode: smoke the self-observability loop over the
/// wire. Each serve mode runs with the telemetry scraper enabled while
/// warm query traffic flows, then the built-in `_system` dashboard must
/// serve a non-empty scraped history, the canonical SQL over
/// `POST /_system/ds/telemetry/sql` must be byte-identical to its
/// path-grammar twin, writes into `_system` must 409, every family the
/// `/stats` body carries must have rows in `_system`, and the
/// `shareinsights_selfscrape_*` / `shareinsights_process_*` families
/// must export in a well-formed exposition. The CI self-scrape smoke job
/// relies on these asserts.
fn self_scrape_smoke() {
    let sql = "select family, max(value) from telemetry group by family";
    let path = "/_system/ds/telemetry/groupby/family/max/value";

    for serve_mode in [ServeMode::ThreadPerConnection, ServeMode::Reactor] {
        let opts = ServeOptions {
            serve_mode,
            scrape_interval: Some(Duration::from_millis(25)),
            ..ServeOptions::default()
        };
        let mut svc =
            serve(Server::new(retail_platform()), "127.0.0.1:0", opts).expect("bind ephemeral");
        let addr = svc.local_addr();
        let mut conn = ClientConnection::connect(addr).expect("connect");

        // Warm traffic so the scraper has route/cache/operator series to
        // sample.
        for round in 0..40 {
            let (code, body) = conn
                .request("GET", TARGETS[round % TARGETS.len()], "")
                .expect("warm request");
            assert_eq!(code, 200, "warm traffic failed: {body}");
            if conn.server_closed() {
                conn = ClientConnection::connect(addr).expect("reconnect");
            }
        }

        // Wait until the background scraper has actually filled the ring:
        // the `_system` dashboard must serve non-empty history.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut rows_seen = false;
        while Instant::now() < deadline {
            let (code, body) = blocking_get(addr, "/_system/ds/telemetry").expect("history");
            assert_eq!(code, 200, "_system history must serve: {body}");
            if !body.contains("\"total_rows\": 0") {
                rows_seen = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            rows_seen,
            "({serve_mode:?}) _system/ds/telemetry stayed empty after a warm run"
        );

        // The dataset listing exposes exactly the telemetry ring.
        let (code, body) = blocking_get(addr, "/_system/ds").expect("listing");
        assert_eq!(code, 200);
        assert!(
            body.contains("\"telemetry\""),
            "_system must list the telemetry dataset: {body}"
        );

        // SQL and path grammar must serve the exact same bytes. A scrape
        // landing between the two requests bumps the generation and
        // legitimately changes the payload, so retry the pair a few times
        // — it must match on some attempt (requests are ~µs apart, the
        // scraper ticks every 25ms).
        let mut identical = false;
        for _ in 0..20 {
            let (path_code, path_body) = conn.request("GET", path, "").expect("path request");
            let (sql_code, sql_body) = conn
                .request("POST", "/_system/ds/telemetry/sql", sql)
                .expect("sql request");
            assert_eq!(path_code, 200, "path route failed: {path_body}");
            assert_eq!(sql_code, 200, "sql route failed: {sql_body}");
            if path_body == sql_body {
                assert!(
                    path_body.contains("\"family\""),
                    "grouped history must carry the family column: {path_body}"
                );
                identical = true;
                break;
            }
            if conn.server_closed() {
                conn = ClientConnection::connect(addr).expect("reconnect");
            }
        }
        assert!(
            identical,
            "({serve_mode:?}) SQL over _system never matched the path route byte-for-byte"
        );

        // The namespace is read-only: provisioning anything under it must
        // be rejected, never silently shadowed.
        let (code, body) =
            blocking_request(addr, "POST", "/dashboards/_system/create", "").expect("create");
        assert_eq!(code, 409, "writes into _system must 409: {body}");
        assert!(
            body.contains("reserved"),
            "409 names the reservation: {body}"
        );

        // Meta-telemetry: the scraper reports on itself and the process
        // gauges ride along.
        let (code, stats) = blocking_get(addr, "/stats").expect("/stats");
        assert_eq!(code, 200);
        let doc = shareinsights_tabular::io::json::parse_json(&stats).expect("stats json");
        let stat = |path: &str| doc.path(path).unwrap().to_value().as_int().unwrap();
        assert!(
            stat("selfscrape.scrapes") >= 1,
            "scraper ticks must be counted: {stats}"
        );
        assert!(
            stat("selfscrape.retained") >= 1,
            "scraped samples must be retained: {stats}"
        );

        // Every family `/stats` carries is chartable from `_system`: the
        // scrape renders the same snapshot. (A labelled family with no
        // series yet has an empty block and no rows; a scrape has to
        // postdate the warm traffic for `routes` to show.)
        let JsonValue::Object(blocks) = &doc else {
            panic!("/stats is an object: {stats}");
        };
        let by_family = "/_system/ds/telemetry/groupby/family/count/label";
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (code, body) = blocking_get(addr, by_family).expect("families");
            assert_eq!(code, 200, "family roll-up failed: {body}");
            let missing: Vec<&String> = blocks
                .iter()
                .filter(|(_, block)| !matches!(block, JsonValue::Object(m) if m.is_empty()))
                .map(|(name, _)| name)
                .filter(|name| !body.contains(&format!("\"{name}\"")))
                .collect();
            if missing.is_empty() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "({serve_mode:?}) /stats families never scraped into _system: {missing:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        let (code, metrics) = blocking_get(addr, "/metrics").expect("/metrics");
        assert_eq!(code, 200);
        validate_exposition(&metrics);
        for family in [
            "shareinsights_selfscrape_scrapes_total",
            "shareinsights_selfscrape_retained_samples",
            "shareinsights_process_rss_bytes",
            "shareinsights_process_uptime_seconds",
        ] {
            assert!(metrics.contains(family), "{family} missing from /metrics");
        }

        println!(
            "self-scrape smoke ({serve_mode:?}): history non-empty, SQL/path byte-identical, \
             writes 409, all {} /stats families in _system",
            blocks.len()
        );
        svc.shutdown();
    }
    println!("self-scrape smoke OK: _system dashboard live across both serve modes");
}

/// The `--ingest-bench` mode: measure the streaming ingestion pipeline
/// end to end. A bulk CSV body streams through the chunked ingest route
/// with RSS sampled throughout (bounded-window check), the endpoint's
/// index is warmed, and append batches must each merge the warm index
/// (`"index": "merged"`) at a strictly increasing generation with zero
/// 5xx. An in-process micro-benchmark then times `IndexedTable::append`
/// against a cold rebuild over the concatenated table. The JSON document
/// on stdout is the source of the committed `BENCH_ingest.json`; the CI
/// ingest smoke job runs a smaller config and relies on the asserts.
fn ingest_benchmark(base_rows: usize, append_rows: usize) {
    use shareinsights::tabular::{Column, DataType, Field, IndexedTable, Schema, Table};
    use shareinsights_core::telemetry::process_stats;
    use shareinsights_core::trace::EventLog;
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const DISTINCT: usize = 1000;
    const BATCHES: usize = 5;
    const ITERS: usize = 5;

    let per_batch = (append_rows / BATCHES).max(1);
    eprintln!(
        "ingest benchmark: {base_rows}-row bulk upload, then {BATCHES} append \
         batches of {per_batch} rows (reactor)"
    );

    let platform = Platform::new();
    platform.create_dashboard("bench").expect("dashboard");
    let opts = ServeOptions {
        serve_mode: ServeMode::Reactor,
        idle_timeout: Duration::from_secs(120),
        event_log: EventLog::in_memory(),
        ..ServeOptions::default()
    };
    let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).expect("bind ephemeral port");
    let addr = svc.local_addr();

    // Deterministic CSV rows; `start` keeps every batch's rows distinct.
    let csv_rows = |start: usize, rows: usize| -> String {
        let mut body = String::with_capacity(rows * 24 + 16);
        body.push_str("key,value\n");
        for i in start..start + rows {
            body.push_str(&format!(
                "customer-{:04},{}\n",
                (i * 7919) % DISTINCT,
                (i * 37) % 1000
            ));
        }
        body
    };

    // Stream one chunked upload; returns (status, response body, elapsed).
    let stream_upload = |body: &str| -> (u32, String, Duration) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"POST /dashboards/bench/ds/events/ingest HTTP/1.1\r\n\
                  Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            )
            .expect("head");
        let started = Instant::now();
        for chunk in body.as_bytes().chunks(256 * 1024) {
            stream
                .write_all(format!("{:x}\r\n", chunk.len()).as_bytes())
                .expect("chunk size");
            stream.write_all(chunk).expect("chunk");
            stream.write_all(b"\r\n").expect("chunk end");
        }
        stream.write_all(b"0\r\n\r\n").expect("terminal chunk");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("response");
        let elapsed = started.elapsed();
        let code: u32 = out
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = out
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body, elapsed)
    };
    let resp_int = |body: &str, key: &str| -> i64 {
        shareinsights_tabular::io::json::parse_json(body)
            .expect("response json")
            .path(key)
            .unwrap_or_else(|| panic!("no {key} in {body}"))
            .to_value()
            .as_int()
            .unwrap()
    };

    // Bulk upload with RSS sampled throughout. The body is built (and
    // the baseline taken) before the upload starts, so the delta
    // reflects the server-side pipeline, not the client's body string.
    let body = csv_rows(0, base_rows);
    let body_bytes = body.len();
    let rss_baseline = process_stats().rss_bytes;
    let rss_peak = Arc::new(AtomicU64::new(rss_baseline));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (rss_peak, stop) = (Arc::clone(&rss_peak), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                rss_peak.fetch_max(process_stats().rss_bytes, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let (code, resp, elapsed) = stream_upload(&body);
    stop.store(true, Ordering::SeqCst);
    sampler.join().expect("rss sampler");
    assert_eq!(code, 200, "bulk upload must succeed: {resp}");
    assert_eq!(resp_int(&resp, "rows_appended"), base_rows as i64, "{resp}");
    let mut last_generation = resp_int(&resp, "generation");
    drop(body);
    let rss_peak = rss_peak.load(Ordering::SeqCst);
    let rss_delta = rss_peak.saturating_sub(rss_baseline);
    let rss_ratio = rss_delta as f64 / body_bytes.max(1) as f64;
    let mb_per_sec = body_bytes as f64 / 1e6 / elapsed.as_secs_f64();
    let upload_rows_per_sec = base_rows as f64 / elapsed.as_secs_f64();
    eprintln!(
        "bulk     {body_bytes} bytes in {elapsed:.2?} ({mb_per_sec:.0} MB/s, \
         {upload_rows_per_sec:.0} rows/s) — peak RSS +{rss_delta} bytes \
         ({rss_ratio:.1}x body)"
    );

    // Warm the endpoint's index, then every append batch must merge it
    // incrementally — `"index": "merged"` is the warm-index assertion.
    let (code, warm_body) =
        blocking_get(addr, "/bench/ds/events/groupby/key/sum/value").expect("warm query");
    assert_eq!(code, 200, "warm query must serve: {warm_body}");

    let pct = |sorted: &[u64], p: f64| -> u64 {
        let idx = ((sorted.len() as f64 * p).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    };
    let mut batch_us = Vec::with_capacity(BATCHES);
    let batches_started = Instant::now();
    for b in 0..BATCHES {
        let body = csv_rows(base_rows + b * per_batch, per_batch);
        let (code, resp, elapsed) = stream_upload(&body);
        assert!(code < 500, "batch {b} must not 5xx: {code} {resp}");
        assert_eq!(code, 200, "batch {b}: {resp}");
        assert!(
            resp.contains("\"index\": \"merged\""),
            "batch {b}: the warm index must merge, not fall back cold: {resp}"
        );
        assert_eq!(resp_int(&resp, "rows_appended"), per_batch as i64, "{resp}");
        let generation = resp_int(&resp, "generation");
        assert!(
            generation > last_generation,
            "batch {b}: generation must increase: {generation} after {last_generation}"
        );
        last_generation = generation;
        batch_us.push(elapsed.as_micros() as u64);
    }
    let batches_elapsed = batches_started.elapsed();
    batch_us.sort_unstable();
    let (batch_p50, batch_p95) = (pct(&batch_us, 0.50), pct(&batch_us, 0.95));
    let batch_rows_per_sec = (BATCHES * per_batch) as f64 / batches_elapsed.as_secs_f64();
    eprintln!(
        "append   {BATCHES} batches of {per_batch} rows: p50 {batch_p50}µs \
         p95 {batch_p95}µs ({batch_rows_per_sec:.0} rows/s), all merged"
    );

    // Server-side accounting must agree: every request counted, every
    // row landed, every batch merged, nothing aborted.
    let (code, stats) = blocking_get(addr, "/stats").expect("/stats");
    assert_eq!(code, 200);
    let doc = shareinsights_tabular::io::json::parse_json(&stats).expect("stats json");
    let stat = |path: &str| -> i64 {
        doc.path(path)
            .unwrap_or_else(|| panic!("no {path} in {stats}"))
            .to_value()
            .as_int()
            .unwrap()
    };
    assert_eq!(stat("ingest.requests"), 1 + BATCHES as i64, "{stats}");
    assert_eq!(
        stat("ingest.rows"),
        (base_rows + BATCHES * per_batch) as i64,
        "{stats}"
    );
    assert_eq!(stat("ingest.aborted"), 0, "{stats}");
    assert!(stat("ingest.index_merges") >= BATCHES as i64, "{stats}");
    let segments = stat("ingest.segments");

    let (code, metrics) = blocking_get(addr, "/metrics").expect("/metrics");
    assert_eq!(code, 200);
    validate_exposition(&metrics);
    for family in [
        "shareinsights_ingest_requests_total",
        "shareinsights_ingest_rows_total",
        "shareinsights_ingest_index_merges_total",
        "shareinsights_ingest_decode_seconds_total",
    ] {
        assert!(metrics.contains(family), "{family} missing from /metrics");
    }
    svc.shutdown();

    // Incremental index maintenance vs cold rebuild, in process. Both
    // sides start from the concatenated table the store's append already
    // produced (the server path hands it over via `AppendReport::merged`),
    // so the contrast is pure index work: merge-the-built-indexes against
    // rebuild-them-from-scratch.
    let make_table = |start: usize, rows: usize| -> Table {
        let keys: Vec<String> = (start..start + rows)
            .map(|i| format!("customer-{:04}", (i * 7919) % DISTINCT))
            .collect();
        let values: Vec<i64> = (start..start + rows)
            .map(|i| ((i * 37) % 1000) as i64)
            .collect();
        let schema = Schema::new(vec![
            Field::new("key", DataType::Utf8),
            Field::new("value", DataType::Int64),
        ])
        .expect("schema");
        Table::new(schema, vec![Column::utf8(keys), Column::int(values)]).expect("table")
    };
    let base = make_table(0, base_rows);
    let delta = make_table(base_rows, append_rows);
    let warm = IndexedTable::new(base.clone());
    warm.index("key");
    warm.index("value");
    let full = base.concat(&delta).expect("concat");
    let mut append_us = Vec::with_capacity(ITERS);
    let mut rebuild_us = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let t = Instant::now();
        // Table clones are Arc-per-column, so the timed region is the merge.
        let merged = warm.append_merged(full.clone()).expect("append_merged");
        append_us.push(t.elapsed().as_micros() as u64);
        assert_eq!(merged.table().num_rows(), base_rows + append_rows);
        let (merges, _) = merged.merge_stats();
        assert!(merges >= 1, "append must carry the built indexes forward");
        std::hint::black_box(merged);

        let t = Instant::now();
        let cold = IndexedTable::new(full.clone());
        cold.index("key");
        cold.index("value");
        rebuild_us.push(t.elapsed().as_micros() as u64);
        std::hint::black_box(cold);
    }
    append_us.sort_unstable();
    rebuild_us.sort_unstable();
    let (append_p50, append_p95) = (pct(&append_us, 0.50), pct(&append_us, 0.95));
    let (rebuild_p50, rebuild_p95) = (pct(&rebuild_us, 0.50), pct(&rebuild_us, 0.95));
    let speedup = rebuild_p50 as f64 / append_p50.max(1) as f64;
    eprintln!(
        "index    append {append_rows} rows onto {base_rows}: merge p50 \
         {append_p50}µs vs cold rebuild p50 {rebuild_p50}µs ({speedup:.1}x)"
    );
    println!("{{");
    println!("  \"nproc\": {},", nproc());
    println!(
        "  \"dataset\": {{\"base_rows\": {base_rows}, \"append_rows\": {append_rows}, \
         \"distinct_keys\": {DISTINCT}}},"
    );
    println!(
        "  \"streamed_upload\": {{\"body_bytes\": {body_bytes}, \"elapsed_ms\": {}, \
         \"mb_per_sec\": {mb_per_sec:.1}, \"rows_per_sec\": {upload_rows_per_sec:.0}, \
         \"segments\": {segments}, \"rss_baseline_bytes\": {rss_baseline}, \
         \"rss_peak_bytes\": {rss_peak}, \"rss_delta_bytes\": {rss_delta}, \
         \"rss_ratio\": {rss_ratio:.2}}},",
        elapsed.as_millis()
    );
    println!(
        "  \"append_batches\": {{\"batches\": {BATCHES}, \"rows_per_batch\": {per_batch}, \
         \"p50_us\": {batch_p50}, \"p95_us\": {batch_p95}, \
         \"rows_per_sec\": {batch_rows_per_sec:.0}}},"
    );
    println!(
        "  \"append_vs_rebuild\": {{\"iterations\": {ITERS}, \
         \"append_p50_us\": {append_p50}, \"append_p95_us\": {append_p95}, \
         \"rebuild_p50_us\": {rebuild_p50}, \"rebuild_p95_us\": {rebuild_p95}, \
         \"speedup_p50\": {speedup:.2}}}"
    );
    println!("}}");
}

/// Cores available to this process, recorded in the bench documents whose
/// numbers depend on it.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `--cold` mode: measure the scan-vs-indexed delta on cold (cache
/// bypassed) ad-hoc queries over a synthetic dataset, differential-checking
/// that both paths — and the served HTTP body — agree byte for byte.
fn cold_query_benchmark(rows: usize, iters: usize) {
    use shareinsights::engine::sql::{lower, parse_select};
    use shareinsights::server::query::{parse_ops, run_query, run_query_indexed};
    use shareinsights::server::sql::lower_plan;
    use shareinsights::server::{table_to_json, Method};
    use shareinsights::tabular::{Column, DataType, Field, IndexedTable, Schema, Table};

    let distinct = 1000usize;
    eprintln!("cold-query benchmark: {rows} rows, {distinct} distinct keys, {iters} iterations");
    let keys: Vec<String> = (0..rows)
        .map(|i| format!("customer-{:04}", (i * 7919) % distinct))
        .collect();
    let values: Vec<i64> = (0..rows).map(|i| ((i * 37) % 1000) as i64).collect();
    let schema = Schema::new(vec![
        Field::new("key", DataType::Utf8),
        Field::new("value", DataType::Int64),
    ])
    .expect("schema");
    let table = Table::new(schema, vec![Column::utf8(keys), Column::int(values)]).expect("table");

    // Serve the same dataset over the router (as a shared published
    // object) so warm numbers measure real cache-hit serving.
    let platform = Platform::new();
    platform.create_dashboard("bench").expect("dashboard");
    platform
        .publish_registry()
        .publish(
            "bench_data",
            "bench",
            "bench_data",
            table.schema().clone(),
            Some(table.clone()),
        )
        .expect("publish");
    let server = Server::new(platform);

    let routes: [(&str, Vec<&str>); 3] = [
        ("groupby", vec!["groupby", "key", "sum", "value"]),
        ("filter", vec!["filter", "key", "customer-0042"]),
        ("sort", vec!["sort", "key", "desc", "limit", "100"]),
    ];

    let indexed = IndexedTable::new(table.clone());
    let pct = |sorted: &[u64], p: f64| -> u64 {
        let idx = ((sorted.len() as f64 * p).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    };

    let mut route_docs = Vec::new();
    // Captured from the groupby route for the SQL-overhead comparison.
    let mut groupby_ix_p50 = 0u64;
    for (name, segs) in &routes {
        let ops = parse_ops(segs).expect("ops");
        // Warmup evaluations double as the differential check; the first
        // indexed evaluation also builds the lazy per-column indexes.
        let scan_result = run_query(&table, &ops).expect("scan");
        let (indexed_result, index_hit) = run_query_indexed(&indexed, &ops).expect("indexed");
        assert!(
            index_hit,
            "{name}: expected the indexed path to cover this query"
        );
        let scan_json = table_to_json(&scan_result);
        let indexed_json = table_to_json(&indexed_result);
        assert_eq!(
            scan_json, indexed_json,
            "{name}: indexed path disagrees with scan path"
        );
        // The served body must agree too (full-stack differential).
        let url = format!("/bench/ds/bench_data/{}", segs.join("/"));
        let cold_served = server.handle(&Request::get(&url));
        assert_eq!(cold_served.body, scan_json, "{name}: served body disagrees");

        let mut scan_us = Vec::with_capacity(iters);
        let mut indexed_us = Vec::with_capacity(iters);
        let mut warm_us = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            let r = run_query(&table, &ops).expect("scan");
            scan_us.push(t.elapsed().as_micros() as u64);
            std::hint::black_box(r);

            let t = Instant::now();
            let r = run_query_indexed(&indexed, &ops).expect("indexed");
            indexed_us.push(t.elapsed().as_micros() as u64);
            std::hint::black_box(r);

            let t = Instant::now();
            let r = server.handle(&Request::get(&url));
            warm_us.push(t.elapsed().as_micros() as u64);
            assert!(r.is_ok());
        }
        scan_us.sort_unstable();
        indexed_us.sort_unstable();
        warm_us.sort_unstable();
        let (scan_p50, scan_p95) = (pct(&scan_us, 0.50), pct(&scan_us, 0.95));
        let (ix_p50, ix_p95) = (pct(&indexed_us, 0.50), pct(&indexed_us, 0.95));
        if *name == "groupby" {
            groupby_ix_p50 = ix_p50;
        }
        let (warm_p50, warm_p95) = (pct(&warm_us, 0.50), pct(&warm_us, 0.95));
        let speedup = scan_p50 as f64 / ix_p50.max(1) as f64;
        eprintln!(
            "{name:8} cold scan p50 {scan_p50}µs  cold indexed p50 {ix_p50}µs \
             ({speedup:.1}x)  warm p50 {warm_p50}µs"
        );
        route_docs.push(format!(
            "    \"{name}\": {{\"cold_scan_p50_us\": {scan_p50}, \"cold_scan_p95_us\": {scan_p95}, \
             \"cold_indexed_p50_us\": {ix_p50}, \"cold_indexed_p95_us\": {ix_p95}, \
             \"warm_p50_us\": {warm_p50}, \"warm_p95_us\": {warm_p95}, \
             \"speedup_p50\": {speedup:.2}}}"
        ));
    }

    // SQL-frontend overhead: the same groupby expressed as SQL must
    // (a) canonicalise to the path route's segments, (b) serve the exact
    // bytes of the path route, and (c) parse+lower in a small fraction of
    // one cold indexed evaluation — the frontend can never be the
    // bottleneck. The committed BENCH doc carries the ratio and the bench
    // gate holds parse+lower p50 under 10% of the indexed eval p50.
    let sql = "select key, sum(value) from bench_data group by key";
    let mut no_joins = |name: &str| -> Result<Table, String> {
        Err(format!("unexpected join on '{name}' in the bench query"))
    };
    let stmt = parse_select(sql).expect("sql parse");
    let plan = lower(sql, &stmt).expect("sql lower");
    let lowered = lower_plan(&plan, &mut no_joins).expect("sql lower_plan");
    assert!(
        lowered.shared,
        "the bench groupby must canonicalise to path segments"
    );
    assert_eq!(lowered.cache_path, "groupby/key/sum/value");
    let sql_served = server
        .handle(&Request::new(Method::Post, "/bench/ds/bench_data/sql").with_body(sql.to_string()));
    let path_served = server.handle(&Request::get("/bench/ds/bench_data/groupby/key/sum/value"));
    assert!(sql_served.is_ok(), "sql route: {}", sql_served.body);
    assert_eq!(
        sql_served.body, path_served.body,
        "SQL route disagrees with the path route"
    );

    let reps = (iters * 32).max(256);
    let mut parse_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let stmt = parse_select(sql).expect("sql parse");
        let plan = lower(sql, &stmt).expect("sql lower");
        let lowered = lower_plan(&plan, &mut no_joins).expect("sql lower_plan");
        parse_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(lowered);
    }
    parse_ns.sort_unstable();
    let pl_p50_us = pct(&parse_ns, 0.50) as f64 / 1000.0;
    let pl_p95_us = pct(&parse_ns, 0.95) as f64 / 1000.0;
    let overhead_pct = 100.0 * pl_p50_us / groupby_ix_p50.max(1) as f64;
    eprintln!(
        "sql      parse+lower p50 {pl_p50_us:.1}µs vs cold indexed p50 {groupby_ix_p50}µs \
         ({overhead_pct:.2}% overhead)"
    );

    // Self-scrape overhead: warm served throughput with the telemetry
    // scraper ticking in the background vs without it, tracing disabled
    // on both sides (the `--no-trace` baseline). The scraper holds the
    // registry read locks and bumps the `_system` ring, so any cost it
    // imposes on the serving path shows up here; the bench gate holds the
    // regression under 2%.
    server.platform().tracer().set_sample_one_in(0);
    let warm_url = "/bench/ds/bench_data/groupby/key/sum/value";
    let t = Instant::now();
    for _ in 0..100 {
        std::hint::black_box(server.scrape_telemetry());
    }
    let tick_us = t.elapsed().as_micros() as u64 / 100;
    eprintln!("scraper  one tick ~{tick_us}µs (no subscribers)");
    let measure_rps = |scraping: bool| -> f64 {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // Trials must span many scrape intervals for a stable ratio —
        // warm hits are tens of µs, so 100k+ requests is still sub-second.
        let reqs = (iters * 20_000).max(100_000);
        let mut best = 0.0f64;
        for _ in 0..3 {
            let stop = Arc::new(AtomicBool::new(false));
            let scraper = scraping.then(|| {
                let server = server.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        server.scrape_telemetry();
                        std::thread::sleep(Duration::from_millis(10));
                    }
                })
            });
            let t = Instant::now();
            for _ in 0..reqs {
                let r = server.handle(&Request::get(warm_url));
                std::hint::black_box(r);
            }
            let rps = reqs as f64 / t.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            if let Some(h) = scraper {
                h.join().expect("scraper thread");
            }
            best = best.max(rps);
        }
        best
    };
    let baseline_rps = measure_rps(false);
    let scraping_rps = measure_rps(true);
    let selfscrape_pct = 100.0 * (baseline_rps - scraping_rps).max(0.0) / baseline_rps.max(1.0);
    eprintln!(
        "scraper  warm {baseline_rps:.0} req/s off vs {scraping_rps:.0} req/s on \
         ({selfscrape_pct:.2}% overhead)"
    );

    // The server routed each cold query through the indexed path and the
    // build hook fed the metrics registry.
    let ix_stats = server.platform().api_metrics().index();
    assert!(
        ix_stats.covered >= routes.len() as u64,
        "server must route covered queries through the index: {ix_stats:?}"
    );
    assert!(ix_stats.builds >= 1, "index builds must be recorded");
    let (builds, build_us) = indexed.build_stats();

    println!("{{");
    println!("  \"dataset\": {{\"rows\": {rows}, \"distinct_keys\": {distinct}}},");
    println!("  \"iterations\": {iters},");
    println!("  \"nproc\": {},", nproc());
    println!("  \"index\": {{\"builds\": {builds}, \"build_us\": {build_us}}},");
    println!("  \"routes\": {{");
    println!("{}", route_docs.join(",\n"));
    println!("  }},");
    println!(
        "  \"sql_overhead\": {{\"parse_lower_p50_us\": {pl_p50_us:.1}, \
         \"parse_lower_p95_us\": {pl_p95_us:.1}, \
         \"indexed_eval_p50_us\": {groupby_ix_p50}, \
         \"overhead_pct\": {overhead_pct:.2}}},"
    );
    println!(
        "  \"selfscrape_overhead\": {{\"baseline_rps\": {baseline_rps:.0}, \
         \"scraping_rps\": {scraping_rps:.0}, \"scrape_interval_ms\": 10, \
         \"overhead_pct\": {selfscrape_pct:.2}}}"
    );
    println!("}}");
    eprintln!(
        "differential checks passed: indexed == scan == served for all {} routes",
        routes.len()
    );
}

/// The `--shard-bench` mode: measure scatter/gather scaling of the
/// shared-nothing shard plane at 1, 2 and 4 shards over a cold
/// groupby + top-n workload, differential-checking that every sharded
/// body is byte-identical to the single-shard answer, then smoke the
/// workload through both TCP serve modes at 4 shards with zero 5xx.
///
/// Fairness: every iteration clears the derived caches on both sides
/// (router query/result caches, router `IndexedTable`s, worker result
/// caches). Worker slices stay resident by design — that resident state
/// *is* the shard plane — so an untimed prime query rebuilds the width-1
/// router index first and the timed numbers compare evaluation, not
/// index rebuilds. Every width runs the same plan — `sort | limit` is
/// fused into a bounded top-n before the shard planner sees it — so the
/// reported `s2_vs_s1`/`s4_vs_s1` compare like with like; `nproc` is
/// recorded beside them because that is what they depend on.
fn shard_benchmark(rows: usize, iters: usize) {
    use shareinsights::tabular::{Column, DataType, Field, Schema, Table};

    let distinct = 1000usize;
    eprintln!("shard benchmark: {rows} rows, {distinct} distinct keys, {iters} iterations");
    let keys: Vec<String> = (0..rows)
        .map(|i| format!("customer-{:04}", (i * 7919) % distinct))
        .collect();
    let values: Vec<i64> = (0..rows).map(|i| ((i * 37) % 1000) as i64).collect();
    let schema = Schema::new(vec![
        Field::new("key", DataType::Utf8),
        Field::new("value", DataType::Int64),
    ])
    .expect("schema");
    let table = Table::new(schema, vec![Column::utf8(keys), Column::int(values)]).expect("table");

    // Each width gets its own platform: the shard set pins the
    // platform-wide partitioning, and widths must not observe each
    // other's. Cloning the table is cheap (columns are shared).
    let make_server = |shards: usize| -> Server {
        let platform = Platform::new();
        platform.create_dashboard("bench").expect("dashboard");
        platform
            .publish_registry()
            .publish(
                "bench_data",
                "bench",
                "bench_data",
                table.schema().clone(),
                Some(table.clone()),
            )
            .expect("publish");
        Server::new(platform).with_shards(shards)
    };

    // The scatter/gather workload: a mergeable group-by and a top-n
    // (fused from `sort | limit` at every width).
    // The prime query rebuilds the same key index the group-by needs
    // without populating the result cache for either timed query.
    let prime_url = "/bench/ds/bench_data/groupby/key/count/value";
    let queries = [
        ("groupby", "/bench/ds/bench_data/groupby/key/sum/value"),
        ("topn", "/bench/ds/bench_data/sort/value/desc/limit/100"),
    ];
    let pct = |sorted: &[u64], p: f64| -> u64 {
        let idx = ((sorted.len() as f64 * p).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    };

    // Width-1 bodies are the byte-identity baseline for every width.
    let mut baselines: Vec<String> = Vec::new();
    let widths = [1usize, 2, 4];
    let mut width_docs = Vec::new();
    let mut ok_rates: Vec<f64> = Vec::new();
    for &width in &widths {
        let server = make_server(width);
        assert_eq!(
            server.shards().is_some(),
            width > 1,
            "width {width}: shard set attachment"
        );
        // Warmup doubles as the differential check and loads the shard
        // slices, so the timed loop measures steady-state evaluations.
        for (qi, (name, url)) in queries.iter().enumerate() {
            let r = server.handle(&Request::get(url));
            assert!(r.is_ok(), "{width} shards {name}: {}", r.body);
            if width == 1 {
                baselines.push(r.body);
            } else {
                assert_eq!(
                    r.body, baselines[qi],
                    "{width} shards {name}: body differs from single-shard"
                );
            }
        }
        let mut lat: Vec<Vec<u64>> = vec![Vec::with_capacity(iters); queries.len()];
        let mut timed_us = 0u64;
        for _ in 0..iters {
            server.clear_derived_caches();
            assert!(server.handle(&Request::get(prime_url)).is_ok());
            for (qi, (_, url)) in queries.iter().enumerate() {
                let t = Instant::now();
                let r = server.handle(&Request::get(url));
                let us = t.elapsed().as_micros() as u64;
                lat[qi].push(us);
                timed_us += us;
                assert!(r.is_ok());
                assert_eq!(r.body, baselines[qi], "{width} shards: cold body drifted");
            }
        }
        let ok_per_sec = (iters * queries.len()) as f64 / (timed_us.max(1) as f64 / 1e6);
        ok_rates.push(ok_per_sec);
        if width > 1 {
            let stats = server.platform().api_metrics().shard();
            assert!(stats.scatters > 0, "{width} shards: nothing scattered");
            assert_eq!(
                stats.fallbacks, 0,
                "{width} shards: the bench workload must shard in full"
            );
        }
        let mut parts = vec![format!("\"shards\": {width}")];
        for (qi, (name, _)) in queries.iter().enumerate() {
            lat[qi].sort_unstable();
            let (p50, p95) = (pct(&lat[qi], 0.50), pct(&lat[qi], 0.95));
            eprintln!("{width} shard(s) {name:8} cold p50 {p50}µs  p95 {p95}µs");
            parts.push(format!(
                "\"{name}_p50_us\": {p50}, \"{name}_p95_us\": {p95}"
            ));
        }
        eprintln!("{width} shard(s) workload {ok_per_sec:.1} ok/s");
        parts.push(format!("\"ok_per_sec\": {ok_per_sec:.1}"));
        width_docs.push(format!("    \"s{width}\": {{{}}}", parts.join(", ")));
    }
    let s2_vs_s1 = ok_rates[1] / ok_rates[0].max(f64::MIN_POSITIVE);
    let s4_vs_s1 = ok_rates[2] / ok_rates[0].max(f64::MIN_POSITIVE);
    eprintln!("scaling  s2/s1 {s2_vs_s1:.2}x  s4/s1 {s4_vs_s1:.2}x (reported, not gated)");

    // Served smoke: both TCP architectures, sharding attached through
    // `ServeOptions`, the full workload plus the observability routes —
    // byte-identical bodies and not a single 5xx.
    let mut smoke_requests = 0usize;
    for mode in [ServeMode::ThreadPerConnection, ServeMode::Reactor] {
        let opts = ServeOptions {
            serve_mode: mode,
            shards: 4,
            workers: 2,
            ..ServeOptions::default()
        };
        let mut svc = serve(make_server(1), "127.0.0.1:0", opts).expect("bind");
        let addr = svc.local_addr();
        for _ in 0..3 {
            for (qi, (name, url)) in queries.iter().enumerate() {
                let (code, body) = blocking_get(addr, url).expect("request");
                smoke_requests += 1;
                assert!(code < 500, "{mode:?} {name}: {code} {body}");
                assert_eq!(code, 200, "{mode:?} {name}: {code}");
                assert_eq!(body, baselines[qi], "{mode:?} {name}: served body drifted");
            }
        }
        let (code, stats) = blocking_get(addr, "/stats").expect("stats");
        smoke_requests += 1;
        assert_eq!(code, 200);
        assert!(stats.contains("\"shard\""), "{mode:?}: /stats shard block");
        let (code, metrics) = blocking_get(addr, "/metrics").expect("metrics");
        smoke_requests += 1;
        assert_eq!(code, 200);
        assert!(
            metrics.contains("shareinsights_shard_workers 4"),
            "{mode:?}: serve options did not attach the shard set"
        );
        assert!(metrics.contains("shareinsights_shard_scatters_total"));
        validate_exposition(&metrics);
        svc.shutdown();
        eprintln!("smoke    {mode:?}: ok");
    }

    println!("{{");
    println!("  \"dataset\": {{\"rows\": {rows}, \"distinct_keys\": {distinct}}},");
    println!("  \"iterations\": {iters},");
    println!("  \"nproc\": {},", nproc());
    println!("  \"widths\": {{");
    println!("{}", width_docs.join(",\n"));
    println!("  }},");
    println!("  \"shard_scaling\": {{\"s2_vs_s1\": {s2_vs_s1:.2}, \"s4_vs_s1\": {s4_vs_s1:.2}}},");
    println!(
        "  \"smoke\": {{\"serve_modes\": 2, \"requests\": {smoke_requests}, \"server_5xx\": 0}}"
    );
    println!("}}");
    eprintln!(
        "differential checks passed: sharded == single-shard bytes at widths 2 and 4, \
         in-process and over both serve modes"
    );
}

/// Assert the Prometheus text exposition is well-formed: every `# TYPE`
/// family has at least one sample, histogram buckets are cumulative and
/// monotone per series, and the `+Inf` bucket equals `_count`.
fn validate_exposition(text: &str) {
    use std::collections::BTreeMap;
    let mut families: Vec<(String, String)> = Vec::new();
    // (family name, labels-without-le) -> bucket values in order.
    let mut buckets: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut samples: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("family name").to_string();
            let kind = it.next().expect("family kind").to_string();
            families.push((name, kind));
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => (n.to_string(), l.trim_end_matches('}').to_string()),
            None => (series.to_string(), String::new()),
        };
        if let Some(hist) = name.strip_suffix("_bucket") {
            let non_le: Vec<&str> = labels
                .split(',')
                .filter(|p| !p.starts_with("le=") && !p.is_empty())
                .collect();
            buckets
                .entry((hist.to_string(), non_le.join(",")))
                .or_default()
                .push(value);
        } else if let Some(hist) = name.strip_suffix("_count") {
            counts.insert((hist.to_string(), labels.clone()), value);
        }
        samples.push(name);
    }
    assert!(!families.is_empty(), "no # TYPE families in exposition");
    for (name, kind) in &families {
        let has = samples
            .iter()
            .any(|s| s == name || (kind == "histogram" && s.starts_with(name)));
        assert!(has, "# TYPE {name} has no samples");
    }
    assert!(!buckets.is_empty(), "no histograms in exposition");
    for ((hist, labels), series) in &buckets {
        for w in series.windows(2) {
            assert!(
                w[0] <= w[1],
                "{hist}{{{labels}}} buckets must be cumulative: {series:?}"
            );
        }
        let count = counts
            .get(&(hist.clone(), labels.clone()))
            .unwrap_or_else(|| panic!("{hist}{{{labels}}} has buckets but no _count"));
        assert_eq!(
            *series.last().unwrap(),
            *count,
            "{hist}{{{labels}}}: +Inf bucket must equal _count"
        );
    }
}
