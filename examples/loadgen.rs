//! The serving benchmarks behind the committed `BENCH_*.json` documents
//! and the CI bench gate (`examples/bench_gate.rs`). Each mode starts the
//! service in process, prints progress to stderr and one JSON document to
//! stdout, and aborts on any failure that would make its numbers lie.
//!
//! ```text
//! cargo run --release --example loadgen -- --cold [rows] [iterations]
//! cargo run --release --example loadgen -- --concurrency-bench
//! cargo run --release --example loadgen -- --stream-bench [subscribers] [ticks]
//! cargo run --release --example loadgen -- --ingest-bench [base-rows] [append-rows]
//! ```
//!
//! `--cold` (`BENCH_adhoc_query.json`) queries a synthetic ~1M-row dataset
//! through the scan kernels and through the indexed path
//! ([`shareinsights::tabular::IndexedTable`]), asserting both produce
//! byte-identical JSON for every route, and reports cold (cache-bypassed)
//! and warm (served cache hit) p50/p95 per route, the SQL frontend's
//! parse+lower overhead and the self-scraper's serving-path overhead.
//!
//! `--concurrency-bench` (`BENCH_serve_concurrency.json`) loads the
//! service with 32 keep-alive clients behind idle herds of 0/256/2048
//! connections and reports p50/p95/p99 per herd; any 5xx or lost response
//! aborts it.
//!
//! `--stream-bench` (`BENCH_stream_latency.json`) holds a herd of idle SSE
//! subscribers (default 500) plus a handful of reading probes while
//! micro-batches are pushed through `POST .../stream/push/<source>`, and
//! reports tick-to-push latency (push initiated to frame received); every
//! push must answer 200 and every subscriber must receive every frame.
//!
//! `--ingest-bench` (`BENCH_ingest.json`) streams a bulk CSV upload
//! (default 1M rows) through the chunked ingest route with RSS sampled
//! throughout, then appends batches that must each answer 200 with
//! `"index": "merged"` at a strictly increasing generation, and times
//! `IndexedTable::append` against a cold rebuild in process.
//!
//! The correctness checks over the wire live in the test suites:
//! `tests/reactor_service.rs` (keep-alive load, idle herds, trace
//! correlation), `tests/http_service.rs` (SQL and the `_system` dashboard),
//! `tests/stream_service.rs` (subscriber herds) and `tests/common`'s
//! `validate_exposition` for `/metrics`.

use shareinsights::server::{
    blocking_get, blocking_request, serve, ClientConnection, Request, ServeOptions, Server,
};
use shareinsights_core::Platform;
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut counts = args.iter().skip(1).map(|a| {
        a.parse::<usize>()
            .unwrap_or_else(|_| panic!("{a:?} is not a count"))
    });
    let mut count = |default: usize| counts.next().unwrap_or(default);
    match args.first().map(String::as_str) {
        Some("--cold") => cold_query_benchmark(count(1_000_000), count(8)),
        Some("--concurrency-bench") => serve_concurrency_benchmark(),
        Some("--stream-bench") => stream_benchmark(count(500), count(20)),
        Some("--ingest-bench") => ingest_benchmark(count(1_000_000), count(100_000)),
        _ => {
            eprintln!(
                "usage: loadgen --cold [rows] [iterations] | --concurrency-bench | \
                 --stream-bench [subscribers] [ticks] | --ingest-bench [base-rows] [append-rows]"
            );
            std::process::exit(2);
        }
    }
}

/// The `--concurrency-bench` mode: latency under an idle herd. The
/// service is loaded with 32 active keep-alive clients while a herd of 0,
/// 256, or 2048 idle connections sits on it; per configuration the
/// client-observed p50/p95/p99, 5xx count, and lost count go to stdout as
/// a JSON document — the source of the committed
/// `BENCH_serve_concurrency.json`. An idle herd costs the reactor a table
/// entry per connection, so any 5xx or lost response aborts the run.
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
    // An unrecorded pass first: the first service a process starts pays
    // the process's warm-up (allocator, page faults), which would
    // otherwise land on the first configuration's tail.
    let passes = std::iter::once((0, false)).chain(IDLE_LEVELS.map(|idle| (idle, true)));
    for (idle_conns, recorded) in passes {
        let warm_up = if recorded {
            ""
        } else {
            " (warm-up, not recorded)"
        };
        eprintln!("{idle_conns} idle connections{warm_up}…");
        let opts = ServeOptions {
            // The herd must outlive the measured load.
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
        // a load-shedding 503). (ok, 5xx, lost, ok-latencies µs).
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
        assert_eq!(
            (server_5xx, lost),
            (0, 0),
            "5xx or lost responses behind {idle_conns} idle connections"
        );
        svc.shutdown();
        if !recorded {
            continue;
        }
        config_docs.push(format!(
            "    {{\"idle_conns\": {idle_conns}, \
             \"requests\": {}, \"ok\": {ok}, \"server_5xx\": {server_5xx}, \
             \"lost\": {lost}, \"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}, \
             \"elapsed_ms\": {}, \"ok_per_sec\": {ok_per_sec:.0}}}",
            ACTIVE_CLIENTS * PER_CLIENT,
            elapsed.as_millis()
        ));
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
/// `BENCH_stream_latency.json`. Every push must answer 200 and every
/// subscriber, herd included, must receive every frame; generation order
/// and eviction are `tests/stream_service.rs`'s to check.
fn stream_benchmark(subscribers: usize, ticks: usize) {
    use shareinsights_core::trace::EventLog;
    const PROBES: usize = 8;

    eprintln!(
        "stream benchmark: {subscribers} idle subscribers + {PROBES} probes, {ticks} ticks (reactor)"
    );
    let opts = ServeOptions {
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
    let probe_events: Vec<Vec<Instant>> = std::thread::scope(|scope| {
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
                        deltas.extend(batch.iter().map(|_| received));
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
    let mut latencies_us: Vec<u64> = (probe_events.iter())
        .flat_map(|deltas| deltas.iter().zip(&push_t0))
        .map(|(received, pushed)| received.duration_since(*pushed).as_micros() as u64)
        .collect();
    latencies_us.sort_unstable();
    let (p50, p95, p99) = (
        pct(&latencies_us, 0.50),
        pct(&latencies_us, 0.95),
        pct(&latencies_us, 0.99),
    );
    eprintln!("tick-to-push: p50 {p50}µs  p95 {p95}µs  p99 {p99}µs");

    // Drain the herd: every subscriber is owed its snapshot plus one
    // frame per tick.
    for (i, sub) in herd.iter_mut().enumerate() {
        let want = 1 + ticks;
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while got < want && Instant::now() < deadline {
            got += (sub.next_events(Duration::from_millis(100)))
                .unwrap_or_else(|e| panic!("herd subscriber {i}: {e}"))
                .len();
        }
        assert_eq!(got, want, "herd subscriber {i} missed frames");
    }
    eprintln!("herd drained: {} frames each", 1 + ticks);

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
    let frames_sent = stream_stat("frames_sent");
    let evicted = stream_stat("dropped_subscribers");

    println!("{{");
    println!("  \"subscribers\": {subscribers},");
    println!("  \"probes\": {PROBES},");
    println!("  \"ticks\": {ticks},");
    println!("  \"frames_sent\": {frames_sent},");
    println!("  \"evicted_subscribers\": {evicted},");
    println!("  \"tick_to_push\": {{\"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}}}");
    println!("}}");

    drop(herd);
    svc.shutdown();
}

/// The `--ingest-bench` mode: measure the streaming ingestion pipeline
/// end to end. A bulk CSV body streams through the chunked ingest route
/// with RSS sampled throughout (bounded-window check), the endpoint's
/// index is warmed, and append batches must each merge the warm index
/// (`"index": "merged"`) at a strictly increasing generation with zero
/// 5xx. An in-process micro-benchmark then times `IndexedTable::append`
/// against a cold rebuild over the concatenated table. The JSON document
/// on stdout is the source of the committed `BENCH_ingest.json`; the CI
/// bench job also runs a smaller shape and relies on the asserts.
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
