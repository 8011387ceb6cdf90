//! Conformance for the serving core, the epoll reactor.
//!
//! The wire-level behaviours come first — keep-alive negotiation,
//! pipelining, timeout classification, the 431 head cap, chunked response
//! streaming, streamed ingest; then what the reactor's design is for:
//! hits answered on the polling thread and counted exactly once, thousands
//! of idle connections multiplexed, `EPOLLOUT` write backpressure, the
//! pending queue's 503s, and the pool's scheduling of slow requests.

mod common;

use common::{stat, validate_exposition, FLOW};
use shareinsights::server::{
    blocking_get, dechunk, serve, ClientConnection, Method, Request, ServeOptions, Server,
    ServiceHandle, WireLimits,
};
use shareinsights_core::Platform;
use shareinsights_tabular::io::json::{parse_json, JsonValue};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A retail dashboard with `rows` sales rows (bigger rows ⇒ bigger
/// browse responses, which is what exercises chunking).
fn retail_platform(rows: usize) -> Platform {
    let platform = Platform::new();
    let mut csv = String::from("region,brand,revenue\n");
    for i in 0..rows {
        let region = if i % 2 == 0 { "north" } else { "south" };
        csv.push_str(&format!("{region},brand_number_{i},{}\n", i * 3 + 1));
    }
    platform.upload_data("retail", "sales.csv", &csv);
    platform.save_flow("retail", FLOW).unwrap();
    platform.run_dashboard("retail").unwrap();
    platform
}

fn retail_service(rows: usize, opts: ServeOptions) -> ServiceHandle {
    serve(Server::new(retail_platform(rows)), "127.0.0.1:0", opts).expect("bind ephemeral port")
}

#[test]
fn requests_and_keepalive_conform_in_both_modes() {
    let mut svc = retail_service(4, ServeOptions::default());
    let addr = svc.local_addr();

    let (code, body) = blocking_get(addr, "/dashboards").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, "[\"retail\"]");
    let (code, _) = blocking_get(addr, "/nope/nope/nope/nope").unwrap();
    assert_eq!(code, 404);

    // A persistent connection serves many requests, then honors an
    // explicit close.
    let mut conn = ClientConnection::connect(addr).unwrap();
    for i in 0..5 {
        let (code, body) = conn.get("/retail/ds/brand_sales").unwrap();
        assert_eq!(code, 200, "request {i}: {body}");
        assert!(!conn.server_closed());
    }
    let (code, _) = conn.request_close("GET", "/dashboards", "").unwrap();
    assert_eq!(code, 200);
    assert!(conn.server_closed());
    svc.shutdown();
}

#[test]
fn request_cap_per_connection_conforms_in_both_modes() {
    let opts = ServeOptions {
        max_requests_per_connection: 3,
        ..ServeOptions::default()
    };
    let mut svc = retail_service(4, opts);
    let mut conn = ClientConnection::connect(svc.local_addr()).unwrap();
    for i in 0..3 {
        let (code, _) = conn.get("/dashboards").unwrap();
        assert_eq!(code, 200, "request {i}");
    }
    assert!(conn.server_closed(), "3rd response must announce close");
    svc.shutdown();
}

#[test]
fn pipelined_requests_answered_in_order_in_both_modes() {
    let mut svc = retail_service(4, ServeOptions::default());
    let mut stream = TcpStream::connect(svc.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let batch = "GET /dashboards HTTP/1.1\r\nContent-Length: 0\r\n\r\n\
                 GET /nope/nope/nope/nope HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    stream.write_all(batch.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let first = out.find("HTTP/1.1 200 OK").expect("first response");
    let second = out.find("HTTP/1.1 404 Not Found").expect("second response");
    assert!(first < second, "in order: {out}");
    svc.shutdown();
}

#[test]
fn malformed_requests_get_400_in_both_modes() {
    let svc = retail_service(4, ServeOptions::default());
    let mut stream = TcpStream::connect(svc.local_addr()).unwrap();
    stream.write_all(b"NONSENSE /x SMTP/9\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");
}

/// A handler that panics costs its request a 500 and nothing more: the
/// worker that ran it serves on. With one panic more than there are
/// workers, a pool that lost a thread per panic would answer nothing.
#[test]
fn panicking_handlers_answer_500_and_keep_their_workers_in_both_modes() {
    use shareinsights::engine::ext::FnTask;
    use shareinsights_core::EventLog;
    const BOOM: &str = r#"
D:
  sales: [region, brand, revenue]
D.sales:
  source: 'sales.csv'
  format: csv
T:
  boom:
    type: boom
F:
  +D.out: D.sales | T.boom
"#;
    let platform = retail_platform(4);
    platform
        .tasks()
        .register_task(std::sync::Arc::new(FnTask::new(
            "boom",
            |schema| Ok(schema.clone()),
            |_| panic!("boom task"),
        )));
    platform.upload_data("boom", "sales.csv", "region,brand,revenue\nn,b,1\n");
    platform.save_flow("boom", BOOM).unwrap();
    let log = EventLog::in_memory();
    let opts = ServeOptions {
        event_log: log.clone(),
        ..ServeOptions::default()
    };
    let workers = opts.workers;
    let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    let mut conn = ClientConnection::connect(addr).unwrap();
    for i in 0..=workers {
        let (code, body) = conn.request("POST", "/dashboards/boom/run", "").unwrap();
        assert_eq!(code, 500, "run {i}: {body}");
    }
    drop(conn);
    let (code, body) = blocking_get(addr, "/retail/ds/brand_sales").unwrap();
    assert_eq!(code, 200, "{body}");
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "routes.(panic).errors"), workers as i64 + 1);
    svc.shutdown();
    let panics: Vec<String> = log
        .lines()
        .into_iter()
        .filter(|l| l.contains("\"message\": \"boom task\""))
        .collect();
    assert_eq!(panics.len(), workers + 1);
    assert!(
        panics[0].contains("POST /dashboards/:name/run"),
        "{}",
        panics[0]
    );
}

#[test]
fn oversized_heads_get_431_and_close_in_both_modes() {
    let opts = ServeOptions {
        limits: WireLimits {
            max_head_bytes: 512,
            ..WireLimits::default()
        },
        ..ServeOptions::default()
    };
    let mut svc = retail_service(4, opts);
    let addr = svc.local_addr();

    // A modest head sails through.
    let (code, _) = blocking_get(addr, "/dashboards").unwrap();
    assert_eq!(code, 200);

    // A head past the cap is answered 431 and the connection closes —
    // even though the head never completed (slow-drip shape).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut head = String::from("GET /dashboards HTTP/1.1\r\n");
    while head.len() <= 600 {
        head.push_str("X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    stream.write_all(head.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(
        out.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
        "{out}"
    );
    assert!(out.contains("Connection: close"), "{out}");

    // The rejection is metered under the (malformed) pseudo-route.
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "routes.(malformed).count"), 1);
    svc.shutdown();
}

#[test]
fn timeouts_classify_identically_in_both_modes() {
    let opts = ServeOptions {
        io_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_millis(400),
        ..ServeOptions::default()
    };
    let mut svc = retail_service(4, opts);
    let addr = svc.local_addr();

    // Stall mid-head: silent close (no parseable request to answer).
    let mut mid_head = TcpStream::connect(addr).unwrap();
    mid_head
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    mid_head.write_all(b"GET /dashboards HT").unwrap();
    let mut out = String::new();
    mid_head.read_to_string(&mut out).unwrap();
    assert!(out.is_empty(), "mid-head stall closes silently");

    // Stall mid-body: the head parsed, so the client is answered 408.
    let mut mid_body = TcpStream::connect(addr).unwrap();
    mid_body
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    mid_body
        .write_all(b"PUT /dashboards/retail/flow HTTP/1.1\r\nContent-Length: 50\r\n\r\npartial")
        .unwrap();
    let mut out = String::new();
    mid_body.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 408 Request Timeout"), "{out}");

    // Idle between requests: silent close, not an error on any route.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    idle.read_to_string(&mut out).unwrap();
    assert!(out.is_empty(), "idle close is silent");

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "routes.(timeout).count"), 2);
    assert_eq!(stat(&stats, "connections.io_timeouts"), 2);
    assert_eq!(stat(&stats, "connections.idle_timeouts"), 1);
    svc.shutdown();
}

/// A chunked CSV upload drip-fed in slices that straddle both chunk and
/// record boundaries: the ingest segmenter must reassemble records no
/// matter where the wire split them, and the connection must stay usable
/// for a pipelined request after the streamed body.
#[test]
fn streamed_ingest_conforms_in_both_modes() {
    let mut svc = retail_service(4, ServeOptions::default());
    let addr = svc.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"POST /dashboards/retail/ds/events/ingest HTTP/1.1\r\n\
              Transfer-Encoding: chunked\r\n\r\n",
        )
        .unwrap();
    // Chunk boundaries deliberately cut the CSV header and a data
    // record mid-field.
    let slices = [
        "region,brand,rev",
        "enue\neast,acme,5\neast,be",
        "ta,7\nwest,acme,9\n",
    ];
    for slice in slices {
        let framed = format!("{:x}\r\n{slice}\r\n", slice.len());
        stream.write_all(framed.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    // Terminal chunk plus a pipelined follow-up in the same write.
    stream
        .write_all(b"0\r\n\r\nGET /retail/ds/events HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert!(out.contains("\"rows_appended\": 3"), "{out}");
    let second = out.rfind("HTTP/1.1 200 OK").expect("pipelined response");
    assert!(second > 0, "expected two responses: {out}");
    assert!(
        out.contains("beta"),
        "appended rows must be readable: {out}"
    );

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "ingest.requests"), 1);
    assert_eq!(stat(&stats, "ingest.rows"), 3);
    let (_, metrics) = blocking_get(addr, "/metrics").unwrap();
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
}

/// A client that vanishes mid-body must leave the endpoint untouched and
/// be accounted as an ingest abort.
#[test]
fn streamed_ingest_disconnect_leaves_endpoint_unchanged_in_both_modes() {
    let mut svc = retail_service(4, ServeOptions::default());
    let addr = svc.local_addr();
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"POST /dashboards/retail/ds/events/ingest HTTP/1.1\r\n\
                  Content-Length: 4096\r\n\r\nregion,brand,revenue\neast,acme,5\n",
            )
            .unwrap();
        // Drop the socket with most of the announced body unsent.
    }
    // The abort lands when the serve loop notices the EOF — poll.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, stats) = blocking_get(addr, "/stats").unwrap();
        if stat(&stats, "ingest.aborted") >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no ingest abort recorded"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let (code, list) = blocking_get(addr, "/retail/ds").unwrap();
    assert_eq!(code, 200);
    assert!(
        !list.contains("events"),
        "aborted ingest must not create the endpoint: {list}"
    );
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "ingest.rows"), 0);
    svc.shutdown();
}

/// True 413 conformance: an announced over-cap body is refused before a
/// single body byte is read, and an unannounced (chunked) body that
/// crosses the cap mid-transfer is cut off with 413 plus a close.
#[test]
fn streamed_ingest_over_cap_gets_413_in_both_modes() {
    let opts = ServeOptions {
        limits: WireLimits {
            max_stream_body_bytes: 4096,
            ..WireLimits::default()
        },
        ..ServeOptions::default()
    };
    let mut svc = retail_service(4, opts);
    let addr = svc.local_addr();

    // Announced over-cap: rejected from the Content-Length alone.
    let mut announced = TcpStream::connect(addr).unwrap();
    announced
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    announced
        .write_all(
            b"POST /dashboards/retail/ds/events/ingest HTTP/1.1\r\n\
              Content-Length: 1048576\r\n\r\n",
        )
        .unwrap();
    let mut out = String::new();
    announced.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 413 Payload Too Large"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");

    // Chunked over-cap: the cap trips mid-transfer. Stop writing
    // right after crossing it so the server drains everything sent
    // (no unread bytes ⇒ clean close, the 413 is readable).
    let mut chunked = TcpStream::connect(addr).unwrap();
    chunked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    chunked
        .write_all(
            b"POST /dashboards/retail/ds/events/ingest HTTP/1.1\r\n\
              Transfer-Encoding: chunked\r\n\r\n",
        )
        .unwrap();
    let header = "region,brand,revenue\n";
    chunked
        .write_all(format!("{:x}\r\n{header}\r\n", header.len()).as_bytes())
        .unwrap();
    let record = "north,overflow_brand,1234567\n".repeat(20); // 580 bytes
    for _ in 0..8 {
        // 8 × 580 = 4640 payload bytes > the 4096 cap.
        let framed = format!("{:x}\r\n{record}\r\n", record.len());
        chunked.write_all(framed.as_bytes()).unwrap();
        chunked.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut out = String::new();
    chunked.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 413 Payload Too Large"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");

    // Neither attempt touched the platform.
    let (_, list) = blocking_get(addr, "/retail/ds").unwrap();
    assert!(!list.contains("events"), "{list}");
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "ingest.rows"), 0);
    assert!(stat(&stats, "ingest.aborted") >= 2);
    svc.shutdown();
}

/// The routes whose bodies are deterministic for a fixed fixture, so a
/// buffered and a chunked service can be compared byte for byte.
const IDENTITY_ROUTES: [&str; 6] = [
    "/dashboards",
    "/dashboards/retail/flow",
    "/retail/ds",
    "/retail/ds/brand_sales",
    "/retail/ds/brand_sales?limit=30&offset=5",
    "/retail/ds/brand_sales/groupby/region/sum/revenue",
];

#[test]
fn chunked_responses_are_byte_identical_to_buffered_in_both_modes() {
    // One service per framing over identically-prepared platforms.
    let rows = 120; // browse bodies far exceed the chunk budget
    let mut buffered = retail_service(rows, ServeOptions::default());
    let opts = ServeOptions {
        chunk_budget: Some(256),
        ..ServeOptions::default()
    };
    let mut chunked = retail_service(rows, opts);
    let mut want = ClientConnection::connect(buffered.local_addr()).unwrap();
    let mut got = ClientConnection::connect(chunked.local_addr()).unwrap();
    for route in IDENTITY_ROUTES {
        let (want_code, want_body) = want.get(route).unwrap();
        let (got_code, got_body) = got.get(route).unwrap();
        assert_eq!(want_code, got_code, "{route}");
        assert_eq!(want_body, got_body, "{route}");
    }
    // Confirm the big routes really were chunked on the wire.
    let mut raw = TcpStream::connect(chunked.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(
        b"GET /retail/ds/brand_sales HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut wire = String::new();
    raw.read_to_string(&mut wire).unwrap();
    assert!(
        wire.contains("Transfer-Encoding: chunked\r\n"),
        "{}",
        &wire[..wire.len().min(300)]
    );
    assert!(!wire.contains("Content-Length"));
    chunked.shutdown();
    buffered.shutdown();
}

#[test]
fn pipelined_chunked_responses_straddle_chunk_boundaries() {
    let rows = 120;
    let mut buffered = retail_service(rows, ServeOptions::default());
    let (_, want_body) = ClientConnection::connect(buffered.local_addr())
        .unwrap()
        .get("/retail/ds/brand_sales")
        .unwrap();
    buffered.shutdown();

    let opts = ServeOptions {
        chunk_budget: Some(256),
        ..ServeOptions::default()
    };
    let mut svc = retail_service(rows, opts);
    // Two pipelined requests in one write: both responses arrive
    // chunked, back to back, each response's chunk stream ending with
    // its own 0-terminator. The de-chunker must stop exactly at the
    // boundary so the second response parses from the leftover bytes.
    let mut stream = TcpStream::connect(svc.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let batch = "GET /retail/ds/brand_sales HTTP/1.1\r\nContent-Length: 0\r\n\r\n\
                 GET /retail/ds/brand_sales HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    stream.write_all(batch.as_bytes()).unwrap();
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire).unwrap();

    let mut rest = &wire[..];
    for i in 0..2 {
        let head_end = rest
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .unwrap_or_else(|| panic!("response {i} head"));
        let head = String::from_utf8_lossy(&rest[..head_end]);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        let (body, used) = dechunk(&rest[head_end + 4..])
            .unwrap_or_else(|| panic!("response {i} incomplete"))
            .unwrap_or_else(|e| panic!("response {i}: {e}"));
        assert_eq!(body, want_body, "response {i}");
        rest = &rest[head_end + 4 + used..];
    }
    assert!(rest.is_empty(), "no stray bytes after close");
    svc.shutdown();
}

/// The counts in `/stats` a request's side effects move — per-route
/// count, errors, cache hits and misses; the page cache; the SQL
/// counters — as `(path, value)` pairs. Latencies are left out.
fn accounting(stats_body: &str) -> Vec<(String, i64)> {
    let doc = parse_json(stats_body).unwrap();
    let mut paths: Vec<String> = Vec::new();
    for (block, fields) in [
        (
            "cache",
            &[
                "entries",
                "bytes",
                "hits",
                "misses",
                "evictions",
                "invalidations",
            ][..],
        ),
        (
            "sql",
            &[
                "queries",
                "parse_errors",
                "path_shared",
                "prepared_hits",
                "prepared_evictions",
            ],
        ),
    ] {
        paths.extend(fields.iter().map(|f| format!("{block}.{f}")));
    }
    let Some(JsonValue::Object(routes)) = doc.path("routes") else {
        panic!("no routes object in {stats_body}");
    };
    for route in routes.keys() {
        for field in ["count", "errors", "cache_hits", "cache_misses"] {
            paths.push(format!("routes.{route}.{field}"));
        }
    }
    paths
        .into_iter()
        .map(|path| {
            let value = stat(stats_body, &path);
            (path, value)
        })
        .collect()
}

/// Each trace in the ring, newest first: its id, root name, status, and
/// the names of its spans with each `cache_lookup`'s verdict.
fn trace_shapes(server: &Server) -> Vec<String> {
    server
        .platform()
        .tracer()
        .recent(usize::MAX)
        .iter()
        .map(|t| {
            let root = t.root().expect("root");
            let mut spans: Vec<String> = t
                .spans
                .iter()
                .map(|s| match s.attr("hit") {
                    Some(hit) => format!("{}(hit={hit:?})", s.name),
                    None => s.name.clone(),
                })
                .collect();
            spans.sort();
            format!(
                "{} {} {:?} {spans:?}",
                t.trace_id,
                root.name,
                root.attr("status")
            )
        })
        .collect()
}

/// One step of the accounting script: in process, then over the
/// connection, the body answered identically both ways.
enum Step {
    Get(&'static str),
    Sql(&'static str),
    Run,
    GetClose(&'static str),
}

#[test]
fn a_hit_answered_on_the_loop_counts_exactly_what_a_worker_counts() {
    let sql = "select brand, revenue from brand_sales where revenue > 3";
    let script = [
        Step::Get("/retail/ds/brand_sales"),
        Step::Get("/retail/ds/brand_sales"),
        Step::Get("/retail/ds/brand_sales?offset=1&limit=2"),
        Step::Sql(sql),
        Step::Sql(sql),
        Step::Run,
        Step::Get("/retail/ds/brand_sales"),
        Step::Get("/retail/ds/brand_sales"),
        Step::Get("/retail/ds/nope"),
        Step::GetClose("/retail/ds/brand_sales"),
    ];
    // Every setup the same; the sampler keeps one trace in two, so a tick
    // that a fall-through leaked would move which requests are traced.
    let server = || {
        let server = Server::new(retail_platform(6));
        server.platform().tracer().set_sample_one_in(2);
        server
    };
    let oracle = server();
    let served = server();
    let mut svc = serve(served.clone(), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut conn = ClientConnection::connect(svc.local_addr()).unwrap();
    let new_sales = "region,brand,revenue\nnorth,a,5\nsouth,b,7\nnorth,c,9\n";
    for (i, step) in script.iter().enumerate() {
        let request = match step {
            Step::Get(path) | Step::GetClose(path) => Request::get(path),
            Step::Sql(sql) => {
                Request::new(Method::Post, "/retail/ds/brand_sales/sql").with_body(*sql)
            }
            Step::Run => {
                for server in [&oracle, &served] {
                    server
                        .platform()
                        .upload_data("retail", "sales.csv", new_sales);
                }
                Request::new(Method::Post, "/dashboards/retail/run")
            }
        };
        let want = oracle.handle(&request);
        let want_stats = oracle.handle(&Request::get("/stats")).body;
        let (code, body) = match step {
            Step::Get(path) => conn.get(path),
            Step::Sql(sql) => conn.request("POST", "/retail/ds/brand_sales/sql", sql),
            Step::Run => conn.request("POST", "/dashboards/retail/run", ""),
            Step::GetClose(path) => conn.request_close("GET", path, ""),
        }
        .unwrap();
        assert_eq!(
            (code, body.as_str()),
            (want.status.code(), want.body.as_str()),
            "step {i}"
        );
        let (_, stats) = blocking_get(svc.local_addr(), "/stats").unwrap();
        assert_eq!(accounting(&stats), accounting(&want_stats), "step {i}");
        assert_eq!(trace_shapes(&served), trace_shapes(&oracle), "step {i}");
    }
    // Four hits: the repeated GET and SQL, the GET after the re-run's
    // miss, and the `Connection: close` one. The reactor answers them on
    // its loop, and a loop-answered root says so.
    let hits = stat(&oracle.handle(&Request::get("/stats")).body, "cache.hits");
    assert_eq!(hits, 4);
    let in_process = Some("in_process".into());
    for trace in oracle.platform().tracer().recent(usize::MAX) {
        assert_eq!(trace.root().unwrap().attr("served_on").cloned(), in_process);
    }
    assert!(conn.server_closed());
    let (_, stats) = blocking_get(svc.local_addr(), "/stats").unwrap();
    let inline = stat(&stats, "reactor.answered_inline");
    let served_on: Vec<_> = served
        .platform()
        .tracer()
        .recent(usize::MAX)
        .iter()
        .map(|t| t.root().unwrap().attr("served_on").cloned())
        .collect();
    let on = |path: &str| {
        (served_on.iter())
            .filter(|s| s.as_ref() == Some(&path.into()))
            .count()
    };
    let on_loop = on("loop");
    assert_eq!(inline, hits, "{stats}");
    assert!(on_loop > 0, "a sampled hit says it was served on the loop");
    // Everything else ran on a thread of its own: the one that parsed
    // it, or one that took it off the queue.
    let off_loop = on("handoff") + on("queue");
    assert_eq!(on_loop + off_loop, served_on.len(), "{served_on:?}");
    assert!(off_loop > 0, "{served_on:?}");
    svc.shutdown();
}

#[test]
fn a_long_pipelined_burst_of_hits_is_answered_in_order_and_the_loop_serves_on() {
    const BURST: usize = 20_000;
    let targets = [
        "/retail/ds/brand_sales",
        "/retail/ds/brand_sales?limit=1",
        "/retail/ds/brand_sales?offset=1&limit=2",
        "/retail/ds/brand_sales/sort/brand/desc",
    ];
    let server = Server::new(retail_platform(4));
    let want: Vec<String> = targets
        .iter()
        .map(|t| server.handle(&Request::get(t)).body)
        .collect();
    let opts = ServeOptions {
        max_requests_per_connection: BURST + 10,
        io_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(30),
        ..ServeOptions::default()
    };
    let mut svc = serve(server.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    // Warm every page, so the whole burst is hits.
    let mut warm = ClientConnection::connect(addr).unwrap();
    for t in &targets {
        assert_eq!(warm.get(t).unwrap().0, 200);
    }
    drop(warm);

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut burst = String::new();
    for i in 0..BURST {
        burst.push_str(&format!(
            "GET {} HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            targets[i % targets.len()]
        ));
    }
    let mut writer = stream.try_clone().unwrap();
    let progress = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let reader = {
        let progress = std::sync::Arc::clone(&progress);
        let want = want.clone();
        let mut stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut wire: Vec<u8> = Vec::new();
            let mut chunk = vec![0u8; 64 * 1024];
            for i in 0..BURST {
                let (status, body) = loop {
                    if let Some(reply) = take_reply(&mut wire) {
                        break reply;
                    }
                    let n = stream
                        .read(&mut chunk)
                        .expect("the burst's replies keep coming");
                    assert!(n > 0, "closed after {i} replies");
                    wire.extend_from_slice(&chunk[..n]);
                };
                assert_eq!(status, 200, "reply {i}");
                assert_eq!(body, want[i % want.len()], "reply {i} out of order");
                progress.store(i + 1, std::sync::atomic::Ordering::SeqCst);
            }
            assert!(wire.is_empty(), "no reply beyond the burst");
            stream
        })
    };
    let burst_writer = std::thread::spawn(move || writer.write_all(burst.as_bytes()).unwrap());
    while progress.load(std::sync::atomic::Ordering::SeqCst) < 100 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Another connection is served while the burst is still going out.
    let (code, body) = blocking_get(addr, "/retail/ds/brand_sales/sort/brand/desc").unwrap();
    let during = progress.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!((code, body.as_str()), (200, want[3].as_str()));
    assert!(during < BURST, "answered only after the whole burst");
    burst_writer.join().unwrap();
    let mut stream = reader.join().unwrap();

    // The connection serves on after the burst.
    stream
        .write_all(b"GET /retail/ds/brand_sales HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire).unwrap();
    let (status, body) = take_reply(&mut wire).expect("a reply after the burst");
    assert_eq!((status, body.as_str()), (200, want[0].as_str()));

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert!(
        stat(&stats, "reactor.answered_inline") >= BURST as i64 + 2,
        "{stats}"
    );
    svc.shutdown();
}

/// Split one `Content-Length` framed reply off the front of `wire`.
fn take_reply(wire: &mut Vec<u8>) -> Option<(u16, String)> {
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&wire[..head_end]).into_owned();
    let status = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("a Content-Length");
    let end = head_end + 4 + len;
    if wire.len() < end {
        return None;
    }
    let body = String::from_utf8(wire[head_end + 4..end].to_vec()).unwrap();
    wire.drain(..end);
    Some((status, body))
}

#[test]
fn reactor_multiplexes_hundreds_of_idle_connections() {
    let mut svc = retail_service(4, ServeOptions::default());
    let addr = svc.local_addr();

    // Far more open connections than pool threads: the reactor just
    // tables them.
    let idle: Vec<TcpStream> = (0..300)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();

    // Active traffic flows unimpeded past the idle herd.
    let mut conn = ClientConnection::connect(addr).unwrap();
    for i in 0..50 {
        let (code, body) = conn.get("/retail/ds/brand_sales").unwrap();
        assert_eq!(code, 200, "active request {i}: {body}");
    }

    let (code, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(code, 200);
    assert!(
        stat(&stats, "reactor.registered") >= 300,
        "all idle conns registered: {stats}"
    );
    assert!(stat(&stats, "reactor.peak_registered") >= 301, "{stats}");
    assert!(stat(&stats, "reactor.wakeups") > 0, "{stats}");
    assert!(stat(&stats, "reactor.ready_events") > 0, "{stats}");
    // The first browse and /stats go to the pool; the 49 repeats are
    // page-cache hits the loop answers itself.
    assert_eq!(stat(&stats, "reactor.answered_inline"), 49, "{stats}");
    assert!(stat(&stats, "reactor.dispatched") >= 2, "{stats}");
    // Zero shedding: no 5xx pseudo-routes were touched.
    assert!(!stats.contains("(rejected)"), "{stats}");
    assert!(!stats.contains("(deadline)"), "{stats}");

    // The same counters export under the Prometheus names.
    let (_, metrics) = blocking_get(addr, "/metrics").unwrap();
    assert!(
        metrics.contains("# TYPE shareinsights_reactor_registered_connections gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("shareinsights_reactor_wakeups_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("shareinsights_reactor_epollout_rearms_total"),
        "{metrics}"
    );

    drop(idle);
    svc.shutdown();
}

/// `clients` keep-alive clients send `per_client` requests each, cycling
/// through the ad-hoc queries, while `idle_conns` quiet connections sit on
/// the service. Each client reconnects only when the server closes its
/// connection, which it does every `max_requests_per_connection` (128)
/// requests. Every request carries an `X-Trace-Id` with the `10adc0de`
/// prefix. Asserts: every response is a well-formed 200, more than 90 % of
/// requests ride an open connection and the server saw reuse, the recent
/// traces carry the prefix and dispatch children, the reactor registered
/// the whole herd, and `/metrics` is well formed with the reactor series.
fn keepalive_load(clients: usize, per_client: usize, idle_conns: usize) {
    const TARGETS: [&str; 5] = [
        "/retail/ds/brand_sales",
        "/retail/ds/brand_sales/groupby/region/count/brand",
        "/retail/ds/brand_sales/groupby/brand/sum/revenue",
        "/retail/ds/brand_sales/sort/revenue/desc/limit/5",
        "/retail/ds/brand_sales/filter/region/north/limit/10",
    ];
    let opts = ServeOptions {
        // The idle herd must outlive the load.
        idle_timeout: Duration::from_secs(60),
        ..ServeOptions::default()
    };
    let mut svc = retail_service(200, opts);
    let addr = svc.local_addr();
    let idle: Vec<TcpStream> = (0..idle_conns)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();

    let connections: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = ClientConnection::connect(addr).expect("connect");
                    let mut connections = 1;
                    for r in 0..per_client {
                        if conn.server_closed() {
                            conn = ClientConnection::connect(addr).expect("reconnect");
                            connections += 1;
                        }
                        let target = TARGETS[(c + r) % TARGETS.len()];
                        let trace_id = format!("10adc0de{:08x}", c * per_client + r);
                        let headers = [("X-Trace-Id", trace_id.as_str())];
                        match conn.request_with_headers("GET", target, "", &headers) {
                            Ok((200, body)) if body.starts_with('{') => {}
                            Ok((code, body)) => {
                                panic!("malformed or failed response {code} for {target}: {body}")
                            }
                            Err(e) => panic!("lost response for {target}: {e}"),
                        }
                    }
                    connections
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let total = clients * per_client;
    let reuse = (total - connections) as f64 / total as f64;
    assert!(
        reuse > 0.9,
        "keep-alive must amortize connects: reuse {reuse:.3} over {connections} connections"
    );

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert!(stat(&stats, "connections.reused") > 0, "{stats}");
    let peak = stat(&stats, "reactor.peak_registered");
    assert!(
        peak as usize > idle_conns,
        "the reactor must register the idle herd: peak {peak} vs {idle_conns} idle"
    );
    let (code, recent) = blocking_get(addr, "/trace/recent?limit=5").unwrap();
    assert_eq!(code, 200);
    assert!(
        recent.contains("10adc0de"),
        "recent traces must carry the explicit X-Trace-Id prefix: {recent}"
    );
    assert!(
        recent.contains("query_eval") || recent.contains("cache_lookup"),
        "span trees must show dispatch children: {recent}"
    );
    let (code, metrics) = blocking_get(addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    validate_exposition(&metrics);
    assert!(
        metrics.contains("shareinsights_reactor_wakeups_total"),
        "reactor series missing from /metrics"
    );
    drop(idle);
    svc.shutdown();
}

#[test]
fn a_keepalive_load_is_lossless_traced_and_exported() {
    keepalive_load(4, 300, 0);
}

#[test]
#[ignore = "8 x 5,000 requests: CI runs it in release"]
fn a_long_keepalive_load_is_lossless_traced_and_exported() {
    keepalive_load(8, 5000, 0);
}

#[test]
#[ignore = "2,000 idle connections need `ulimit -n 8192`: CI runs it in release"]
fn a_keepalive_load_behind_two_thousand_idle_connections() {
    keepalive_load(8, 200, 2000);
}

#[test]
fn reactor_counts_only_the_dispatches_its_pool_accepts() {
    use std::sync::atomic::Ordering;
    let platform = retail_platform(4);
    let naps = add_nap(&platform, "nap", 500);
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 1,
        ..ServeOptions::default()
    };
    let server = Server::new(platform);
    let mut svc = serve(server.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    // One run on a thread, one waiting in the queue, then a third
    // request finds the queue full and is shed with 503.
    let metrics = server.platform().api_metrics();
    let run =
        b"POST /dashboards/nap/run HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    let wait_for = |what: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !what() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut running = vec![TcpStream::connect(addr).unwrap()];
    running[0].write_all(run).unwrap();
    wait_for(&|| naps.started.load(Ordering::SeqCst) == 1);
    running.push(TcpStream::connect(addr).unwrap());
    running[1].write_all(run).unwrap();
    wait_for(&|| metrics.reactor().dispatched == 2);
    let (code, body) = blocking_get(addr, "/dashboards").unwrap();
    assert_eq!(code, 503, "{body}");
    for mut stream in running {
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    }
    // A dispatch is counted before its request runs, so `/stats` reads
    // its own: the two runs and itself. The shed request is not one.
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "routes.(rejected).count"), 1, "{stats}");
    assert_eq!(stat(&stats, "reactor.dispatched"), 3, "{stats}");
    svc.shutdown();
}

/// A request that waits on the pending queue past the deadline is
/// answered 503 without being run: with `workers: 1`, a 300 ms run holds
/// the one thread that may run requests, so a second request waits on the
/// queue, and the run's thread takes it 250 ms past its 50 ms deadline.
/// The 503 closes the connection (a client asking for keep-alive is
/// answered `Connection: close`), is counted once under `(deadline)`, and
/// leaves the pool serving.
#[test]
fn a_request_queued_past_its_deadline_is_answered_503() {
    use std::sync::atomic::Ordering;
    let platform = retail_platform(4);
    let naps = add_nap(&platform, "nap", 300);
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 1,
        deadline: Duration::from_millis(50),
        ..ServeOptions::default()
    };
    let server = Server::new(platform);
    let mut svc = serve(server.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    let metrics = server.platform().api_metrics();
    // Let the second thread reach the lobby, so the run is not queued
    // (and held past the deadline) itself.
    assert_eq!(blocking_get(addr, "/dashboards").unwrap().0, 200);
    std::thread::sleep(Duration::from_millis(20));
    let mut run = TcpStream::connect(addr).unwrap();
    run.write_all(b"POST /dashboards/nap/run HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while naps.started.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "the nap never began");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut late = TcpStream::connect(addr).unwrap();
    late.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    late.write_all(b"GET /dashboards HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    late.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 503 Service Unavailable"), "{out}");
    assert!(out.contains("deadline exceeded in queue"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");
    assert!(!out.contains("Keep-Alive"), "{out}");
    assert!(metrics.reactor().queued >= 1);
    let mut ran = String::new();
    run.read_to_string(&mut ran).unwrap();
    assert!(ran.starts_with("HTTP/1.1 200"), "{ran}");

    // A fresh connection is served: the pool is not left wedged.
    let (code, body) = blocking_get(addr, "/dashboards").unwrap();
    assert_eq!(code, 200, "{body}");
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "routes.(deadline).count"), 1, "{stats}");
    assert!(!stats.contains("(rejected)"), "{stats}");
    svc.shutdown();
}

/// Register a task `nap` that sleeps `ms` and counts its starts and ends
/// (and times each nap), and save a dashboard `name` whose run naps once.
/// The task is one per platform: the last call's counts count every nap.
fn add_nap(platform: &Platform, name: &str, ms: u64) -> NapCounts {
    use shareinsights::engine::ext::FnTask;
    use std::sync::atomic::Ordering;
    const NAP: &str = r#"
D:
  sales: [region, brand, revenue]
D.sales:
  source: 'sales.csv'
  format: csv
T:
  nap:
    type: nap
F:
  +D.out: D.sales | T.nap
"#;
    let counts = NapCounts::default();
    let (started, ended) = (counts.started.clone(), counts.ended.clone());
    let spans = counts.spans.clone();
    platform
        .tasks()
        .register_task(std::sync::Arc::new(FnTask::new(
            "nap",
            |schema| Ok(schema.clone()),
            move |table| {
                let start = std::time::Instant::now();
                started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(ms));
                ended.fetch_add(1, Ordering::SeqCst);
                spans
                    .lock()
                    .unwrap()
                    .push((start, std::time::Instant::now()));
                Ok(table.clone())
            },
        )));
    platform.upload_data(name, "sales.csv", "region,brand,revenue\nn,b,1\n");
    platform.save_flow(name, NAP).unwrap();
    counts
}

#[derive(Default)]
struct NapCounts {
    started: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ended: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    spans: std::sync::Arc<std::sync::Mutex<Vec<(std::time::Instant, std::time::Instant)>>>,
}

/// A request that runs long never holds the poll: with `workers: 1`,
/// while connection A's run naps 500 ms, a new connection B is accepted
/// and its page-cache hit answered.
#[test]
fn a_slow_request_never_holds_the_poll() {
    use std::sync::atomic::Ordering;
    let platform = retail_platform(4);
    let naps = add_nap(&platform, "nap", 500);
    let server = Server::new(platform);
    let want = server.handle(&Request::get("/retail/ds/brand_sales")).body;
    let opts = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let mut svc = serve(server.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    let mut a = TcpStream::connect(addr).unwrap();
    a.write_all(b"POST /dashboards/nap/run HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while naps.started.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "the nap never began");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (code, body) = blocking_get(addr, "/retail/ds/brand_sales").unwrap();
    assert_eq!(
        naps.ended.load(Ordering::SeqCst),
        0,
        "answered after the nap"
    );
    assert_eq!((code, body.as_str()), (200, want.as_str()));
    let mut out = String::new();
    a.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    let metrics = server.platform().api_metrics().reactor();
    assert_eq!((metrics.answered_inline, metrics.dispatched), (1, 1));
    svc.shutdown();
}

/// Two misses that arrive together run together: with `workers: 2`, two
/// connections each ask for a 3 ms run at once, and the two naps overlap.
/// The second request wakes a follower as it arrives; a pool that left
/// the poll unattended for the first nap would run the two one after the
/// other. Tried up to 20 times, so a stalled scheduler cannot fail it.
#[test]
fn misses_that_arrive_together_run_together() {
    let platform = retail_platform(4);
    add_nap(&platform, "nap0", 3);
    let naps = add_nap(&platform, "nap1", 3);
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    let overlapped = (0..20).any(|_| {
        let mut pair: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, s) in pair.iter_mut().enumerate() {
            write!(
                s,
                "POST /dashboards/nap{i}/run HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
        }
        for mut s in pair {
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        }
        let spans = std::mem::take(&mut *naps.spans.lock().unwrap());
        let [(s0, e0), (s1, e1)] = spans[..] else {
            panic!("{} naps", spans.len());
        };
        s1 < e0 && s0 < e1
    });
    assert!(overlapped, "the two runs never ran at the same time");
    svc.shutdown();
}

/// A hit never waits for a short miss: with `workers: 1`, while
/// connection A's run naps 3 ms, a hit on a third, already open
/// connection is answered before the nap ends. Tried up to 20 times, so
/// a stalled scheduler cannot fail it; a pool that promoted a follower
/// only after a delay longer than the nap would fail every try.
#[test]
fn a_hit_is_answered_while_a_short_miss_runs() {
    use std::sync::atomic::Ordering;
    let platform = retail_platform(4);
    let naps = add_nap(&platform, "nap", 3);
    let opts = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    let mut reader = ClientConnection::connect(addr).unwrap();
    let page = "/retail/ds/brand_sales?limit=2";
    let (code, want) = reader.get(page).unwrap();
    assert_eq!(code, 200);
    let before_the_nap_ended = (0..20).any(|_| {
        let naps_before = naps.ended.load(Ordering::SeqCst);
        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all(b"POST /dashboards/nap/run HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        while naps.started.load(Ordering::SeqCst) == naps_before {
            std::thread::yield_now();
        }
        let (code, body) = reader.get(page).unwrap();
        let in_time = naps.ended.load(Ordering::SeqCst) == naps_before;
        assert_eq!((code, body.as_str()), (200, want.as_str()));
        let mut out = String::new();
        a.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        in_time
    });
    assert!(before_the_nap_ended, "every hit waited for the nap");
    svc.shutdown();
}

/// Bursts of three slow requests on two workers: the third finds no
/// follower waiting and waits on the pending queue, and a thread that
/// comes free always takes it, so every reply is 200 and none is 503.
#[test]
fn a_pending_request_is_never_stranded() {
    let platform = retail_platform(4);
    for name in ["nap0", "nap1", "nap2"] {
        add_nap(&platform, name, 20);
    }
    let server = Server::new(platform);
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    let mut svc = serve(server.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = svc.local_addr();
    for burst in 0..10 {
        let streams: Vec<TcpStream> = ["nap0", "nap1", "nap2"]
            .iter()
            .map(|name| {
                let mut s = TcpStream::connect(addr).unwrap();
                write!(
                    s,
                    "POST /dashboards/{name}/run HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                .unwrap();
                s
            })
            .collect();
        for mut s in streams {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.1 200"), "burst {burst}: {out}");
        }
    }
    let metrics = server.platform().api_metrics();
    assert_eq!(metrics.reactor().dispatched, 30);
    assert!(!metrics.routes().contains_key("(rejected)"));
    assert!(!metrics.routes().contains_key("(deadline)"));
    svc.shutdown();
}

/// Clamp a socket's kernel receive buffer so the peer's writes hit a
/// small advertised window. Raw `setsockopt` FFI, in the same
/// dependency-free style as the reactor's epoll wrapper.
fn clamp_rcvbuf(stream: &TcpStream, bytes: i32) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }
    let val = bytes.to_ne_bytes();
    // SAFETY: `val` is a valid 4-byte int the kernel copies during the call.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            val.as_ptr(),
            val.len() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[test]
fn reactor_write_backpressure_rearms_epollout() {
    // A big chunked response to a client that refuses to read: the kernel
    // buffers fill, the write blocks, and the reactor re-arms EPOLLOUT
    // instead of stalling — then finishes once the client drains.
    // The kernel send buffer autotunes up to tcp_wmem[2] (4MB here), so
    // the body must outgrow it before the write can ever block.
    let rows = 160_000; // browse body ≈ 6MB
    let opts = ServeOptions {
        chunk_budget: Some(4 * 1024),
        io_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(30),
        ..ServeOptions::default()
    };
    let mut svc = retail_service(rows, opts);
    let addr = svc.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    // A clamped receive window keeps the response from vanishing into
    // kernel buffers — the server must block mid-write. (Not too tiny:
    // a window of a few KB stalls the eventual drain behind zero-window
    // probe backoff.)
    clamp_rcvbuf(&stream, 64 * 1024);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /retail/ds/brand_sales HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
        .unwrap();
    // Let the server hit the full socket buffer before reading a byte.
    std::thread::sleep(Duration::from_millis(600));

    let mut wire = Vec::new();
    stream.read_to_end(&mut wire).unwrap();
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let (body, _) = dechunk(&wire[head_end + 4..])
        .expect("complete")
        .expect("well-formed");
    assert!(
        body.len() > 200_000,
        "a genuinely large body: {}",
        body.len()
    );

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert!(
        stat(&stats, "reactor.epollout_rearms") >= 1,
        "write backpressure must re-arm: {stats}"
    );
    svc.shutdown();
}
