//! End-to-end test of the TCP data-API service: concurrent clients, the
//! generation-stamped sharded query cache, keep-alive conformance, and
//! `/stats` observability.

mod common;

use common::{stat, validate_exposition, FLOW};
use shareinsights::server::{
    blocking_get, blocking_request, serve, ClientConnection, ServeOptions, Server,
};
use shareinsights_core::Platform;
use shareinsights_tabular::io::json::{parse_json, JsonValue};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn retail_service(opts: ServeOptions) -> shareinsights::server::ServiceHandle {
    let platform = Platform::new();
    platform.upload_data(
        "retail",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,10\nnorth,acme,5\nsouth,zest,20\nnorth,zest,1\n",
    );
    platform.save_flow("retail", FLOW).unwrap();
    platform.run_dashboard("retail").unwrap();
    serve(Server::new(platform), "127.0.0.1:0", opts).expect("bind ephemeral port")
}

#[test]
fn concurrent_clients_share_the_cache_and_publish_invalidates() {
    let platform = Platform::new();
    platform.upload_data(
        "retail",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,10\nnorth,acme,5\nsouth,zest,20\nnorth,zest,1\n",
    );
    platform.save_flow("retail", FLOW).unwrap();
    platform.run_dashboard("retail").unwrap();

    // Clones share state, so this handle can re-upload data mid-test
    // (the SFTP-upload path of §4.3.2 has no HTTP route).
    let uploader = platform.clone();
    let mut svc = serve(
        Server::new(platform),
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .expect("bind ephemeral port");
    let addr = svc.local_addr();
    let query = "/retail/ds/brand_sales/groupby/region/count/brand";

    // Two concurrent clients issue the same groupby query.
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let (code, body) = blocking_get(addr, query).expect("request");
                    assert_eq!(code, 200, "{body}");
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(bodies[0], bodies[1], "identical queries, identical results");

    // The first query filled the cache; this repeat is a guaranteed hit
    // (the concurrent pair may have raced, so allow 1 or 2 misses there).
    let (code, body) = blocking_get(addr, query).unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, bodies[0]);
    let (code, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(code, 200, "{stats}");
    let hits = stat(&stats, "cache.hits");
    let misses = stat(&stats, "cache.misses");
    assert_eq!(hits + misses, 3, "{stats}");
    assert!(hits >= 1, "a repeated query must hit the cache: {stats}");
    assert!(misses <= 2, "{stats}");
    let route = "routes.GET /:dashboard/ds/:dataset/query";
    assert_eq!(stat(&stats, &format!("{route}.count")), 3);
    assert_eq!(stat(&stats, &format!("{route}.cache_hits")), hits);
    assert_eq!(stat(&stats, &format!("{route}.errors")), 0);

    // A publish (the producer re-runs on new source data, refreshing its
    // published snapshot) bumps the dataset generation...
    uploader.upload_data(
        "retail",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,100\nsouth,zest,20\n",
    );
    let (code, body) = blocking_request(addr, "POST", "/dashboards/retail/run", "").unwrap();
    assert_eq!(code, 200, "{body}");

    // ...so the next query is a miss and sees fresh results.
    let (code, fresh) = blocking_get(addr, query).unwrap();
    assert_eq!(code, 200);
    assert_ne!(fresh, bodies[0], "fresh results after the publish");
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "cache.misses"), misses + 1, "{stats}");
    assert_eq!(stat(&stats, "cache.invalidations"), 1, "{stats}");

    svc.shutdown();
}

// ---------------------------------------------------------------------------
// Keep-alive conformance
// ---------------------------------------------------------------------------

/// N sequential requests over one connection get N correct responses, and
/// `/stats` sees the connection as reused.
#[test]
fn keepalive_sequential_requests_over_one_connection() {
    let mut svc = retail_service(ServeOptions::default());
    let addr = svc.local_addr();
    let mut conn = ClientConnection::connect(addr).unwrap();
    let n = 8;
    for i in 0..n {
        let target = if i % 2 == 0 {
            "/retail/ds/brand_sales"
        } else {
            "/retail/ds/brand_sales/groupby/region/count/brand"
        };
        let (code, body) = conn.request("GET", target, "").unwrap();
        assert_eq!(code, 200, "request {i}: {body}");
        assert!(body.starts_with('{'), "request {i} malformed: {body}");
        assert!(!conn.server_closed(), "closed early at request {i}");
    }
    drop(conn);
    // The per-connection request count only lands in /stats on close; the
    // drop above closes the socket, so poll briefly for the worker to see it.
    let mut reused = 0;
    for _ in 0..50 {
        let (_, stats) = blocking_get(addr, "/stats").unwrap();
        reused = stat(&stats, "connections.reused");
        if reused >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(reused >= 1, "the 8-request connection counts as reused");
    svc.shutdown();
}

/// `Connection: close` on request k terminates the connection after exactly
/// k responses.
#[test]
fn connection_close_on_request_k_terminates_after_k() {
    let mut svc = retail_service(ServeOptions::default());
    let mut conn = ClientConnection::connect(svc.local_addr()).unwrap();
    let (code, _) = conn.request("GET", "/retail/ds", "").unwrap();
    assert_eq!(code, 200);
    let (code, _) = conn.request("GET", "/retail/ds/brand_sales", "").unwrap();
    assert_eq!(code, 200);
    assert!(!conn.server_closed(), "still open after 2 keep-alives");
    let (code, body) = conn.request_close("GET", "/retail/ds", "").unwrap();
    assert_eq!(code, 200, "{body}");
    assert!(conn.server_closed(), "response 3 announced the close");
    assert!(
        conn.request("GET", "/retail/ds", "").is_err(),
        "request 4 must not be possible"
    );
    svc.shutdown();
}

/// A malformed second request closes the connection with a 400 — without
/// poisoning the first (well-formed) response.
#[test]
fn malformed_second_request_does_not_poison_first_response() {
    let mut svc = retail_service(ServeOptions::default());
    let mut stream = TcpStream::connect(svc.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /retail/ds HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    // Read the complete first response (framed by Content-Length).
    let first = read_one_response(&mut stream);
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    assert!(first.contains("brand_sales"), "{first}");
    // Now send garbage; the server answers 400 and closes.
    stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut rest = String::new();
    stream.read_to_string(&mut rest).unwrap();
    assert!(rest.starts_with("HTTP/1.1 400 Bad Request"), "{rest}");
    assert!(rest.contains("Connection: close"), "{rest}");
    svc.shutdown();
}

/// An idle keep-alive connection is closed quietly: EOF for the client, an
/// `idle_timeouts` tick in `/stats`, and no error on any route.
#[test]
fn idle_timeout_closes_quietly() {
    let opts = ServeOptions {
        idle_timeout: Duration::from_millis(150),
        ..ServeOptions::default()
    };
    let mut svc = retail_service(opts);
    let addr = svc.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /retail/ds HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let first = read_one_response(&mut stream);
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    // Go quiet past the idle window; the server closes with a clean EOF
    // (no 408, no error payload).
    std::thread::sleep(Duration::from_millis(400));
    let mut rest = String::new();
    stream.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "idle close sends nothing");
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert!(
        stat(&stats, "connections.idle_timeouts") >= 1,
        "idle close is accounted: {stats}"
    );
    let doc = parse_json(&stats).unwrap();
    assert!(
        doc.path("routes.(timeout)").is_none(),
        "an idle close is not a (timeout): {stats}"
    );
    assert_eq!(
        stat(&stats, "routes.GET /:dashboard/ds.errors"),
        0,
        "{stats}"
    );
    svc.shutdown();
}

/// Bugfix regression: a socket stall mid-request is accounted under the
/// `(timeout)` pseudo-route, and answered 408 when the head already parsed.
#[test]
fn mid_request_stall_is_counted_and_answered_408() {
    let opts = ServeOptions {
        io_timeout: Duration::from_millis(150),
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    };
    let mut svc = retail_service(opts);
    let addr = svc.local_addr();

    // Head fully parsed, body never arrives → 408 before the close.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"PUT /dashboards/retail/flow HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 408 Request Timeout"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");

    // Head never completes → counted, closed without a response.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /retail/ds HTTP/1.1\r\nHos").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert_eq!(out, "", "mid-head stall gets no response");

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "routes.(timeout).count"), 2, "{stats}");
    assert!(stat(&stats, "connections.io_timeouts") >= 2, "{stats}");
    svc.shutdown();
}

fn read_one_response(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).expect("response bytes");
        assert!(n > 0, "EOF before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.split_once(':')
                .filter(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        })
        .and_then(|(_, v)| v.trim().parse().ok())
        .expect("content-length");
    while buf.len() < head_end + 4 + len {
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).expect("body bytes");
        assert!(n > 0, "EOF mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8_lossy(&buf[..head_end + 4 + len]).into_owned()
}

// ---------------------------------------------------------------------------
// Tracing and the event log
// ---------------------------------------------------------------------------

/// Two pipelined requests on one keep-alive connection, each with its own
/// `X-Trace-Id`: both trace trees must be retrievable afterwards, each
/// labeled with its own request.
#[test]
fn trace_ids_propagate_through_pipelined_keepalive_requests() {
    let mut svc = retail_service(ServeOptions::default());
    let addr = svc.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let batch = "GET /retail/ds HTTP/1.1\r\nContent-Length: 0\r\nX-Trace-Id: aa01\r\n\r\n\
                 GET /retail/ds/brand_sales HTTP/1.1\r\nContent-Length: 0\r\nX-Trace-Id: aa02\r\nConnection: close\r\n\r\n";
    stream.write_all(batch.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert_eq!(
        out.matches("HTTP/1.1 200 OK").count(),
        2,
        "both pipelined responses answered: {out}"
    );

    let (code, body) = blocking_get(addr, "/trace/aa01").unwrap();
    assert_eq!(code, 200, "{body}");
    let doc = parse_json(&body).unwrap();
    assert_eq!(
        doc.path("root.name").unwrap().to_value().as_str(),
        Some("GET /:dashboard/ds")
    );
    assert_eq!(
        doc.path("root.attrs.path").unwrap().to_value().as_str(),
        Some("/retail/ds")
    );
    let (code, body) = blocking_get(addr, "/trace/aa02").unwrap();
    assert_eq!(code, 200, "{body}");
    let doc = parse_json(&body).unwrap();
    assert_eq!(
        doc.path("root.name").unwrap().to_value().as_str(),
        Some("GET /:dashboard/ds/:dataset")
    );
    assert_eq!(
        doc.path("root.attrs.status").unwrap().to_value().as_int(),
        Some(200)
    );
    svc.shutdown();
}

/// Concurrent traced requests must each assemble their own complete span
/// tree — no span leaks into another request's trace.
#[test]
fn span_trees_assemble_under_concurrent_requests() {
    let mut svc = retail_service(ServeOptions::default());
    let addr = svc.local_addr();
    let clients = 6;
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut conn = ClientConnection::connect(addr).unwrap();
                let id = format!("cc{c:02x}");
                let (code, body) = conn
                    .request_with_headers(
                        "GET",
                        "/retail/ds/brand_sales/groupby/region/count/brand",
                        "",
                        &[("X-Trace-Id", &id)],
                    )
                    .unwrap();
                assert_eq!(code, 200, "{body}");
            });
        }
    });
    for c in 0..clients {
        let (code, body) = blocking_get(addr, &format!("/trace/cc{c:02x}")).unwrap();
        assert_eq!(code, 200, "trace cc{c:02x}: {body}");
        let doc = parse_json(&body).unwrap();
        assert_eq!(
            doc.path("root.children.0.name")
                .unwrap()
                .to_value()
                .as_str(),
            Some("dispatch"),
            "{body}"
        );
        // Exactly one root per trace; the dispatch child carries either a
        // cache_lookup (hit path) or cache_lookup + query_eval (miss path).
        let dispatch_children = doc.path("root.children.0.children").unwrap().items().len();
        assert!(
            (1..=2).contains(&dispatch_children),
            "dispatch has {dispatch_children} children: {body}"
        );
        assert!(body.contains("cache_lookup"), "{body}");
    }
    svc.shutdown();
}

/// The serving loop writes slow-request events (threshold 0 = everything)
/// with trace ids into the configured event log.
#[test]
fn event_log_records_slow_requests_end_to_end() {
    let log = shareinsights_core::EventLog::in_memory();
    let opts = ServeOptions {
        slow_request_threshold: Some(Duration::ZERO),
        event_log: log.clone(),
        ..ServeOptions::default()
    };
    let mut svc = retail_service(opts);
    let addr = svc.local_addr();
    let mut conn = ClientConnection::connect(addr).unwrap();
    let (code, _) = conn
        .request_with_headers("GET", "/retail/ds", "", &[("X-Trace-Id", "ee55")])
        .unwrap();
    assert_eq!(code, 200);
    svc.shutdown();
    let lines = log.lines();
    assert!(!lines.is_empty(), "event log captured the request");
    let slow: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"event\": \"slow_request\""))
        .collect();
    assert!(!slow.is_empty(), "{lines:?}");
    let doc = parse_json(slow[0]).unwrap();
    assert_eq!(
        doc.path("trace_id").unwrap().to_value().as_str(),
        Some("000000000000ee55")
    );
    assert_eq!(
        doc.path("path").unwrap().to_value().as_str(),
        Some("/retail/ds")
    );
    assert!(doc
        .path("elapsed_us")
        .unwrap()
        .to_value()
        .as_int()
        .is_some());
}

/// `/metrics` over TCP: a well-formed exposition, per-operator histograms
/// from the dashboard run, and route counters from this very session.
#[test]
fn metrics_exposition_over_tcp() {
    let mut svc = retail_service(ServeOptions::default());
    let addr = svc.local_addr();
    blocking_get(addr, "/retail/ds/brand_sales").unwrap();
    let (code, body) = blocking_get(addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    validate_exposition(&body);
    assert!(body.contains("# TYPE shareinsights_requests_total counter"));
    assert!(
        body.contains("shareinsights_operator_runs_total{operator=\"groupby\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE shareinsights_request_duration_seconds histogram"),
        "{body}"
    );
    assert!(body.contains("shareinsights_connections_accepted_total"));
    svc.shutdown();
}

#[test]
fn loadgen_shape_no_lost_or_malformed_responses() {
    let platform = Platform::new();
    platform.upload_data(
        "retail",
        "sales.csv",
        "region,brand,revenue\nn,a,1\ns,b,2\n",
    );
    platform.save_flow("retail", FLOW).unwrap();
    platform.run_dashboard("retail").unwrap();

    let opts = ServeOptions {
        workers: 4,
        queue_depth: 256,
        ..ServeOptions::default()
    };
    let mut svc = serve(Server::new(platform), "127.0.0.1:0", opts).expect("bind");
    let addr = svc.local_addr();

    let clients = 8;
    let requests_per_client = 10;
    let oks: usize = std::thread::scope(|scope| {
        (0..clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut ok = 0;
                    for j in 0..requests_per_client {
                        let target = if (i + j) % 3 == 0 {
                            "/retail/ds/brand_sales".to_string()
                        } else {
                            format!("/retail/ds/brand_sales/limit/{}", 1 + (j % 2))
                        };
                        let (code, body) = blocking_get(addr, &target).expect("response");
                        assert_eq!(code, 200, "{body}");
                        assert!(body.starts_with('{'), "malformed body: {body}");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    assert_eq!(oks, clients * requests_per_client, "no lost responses");

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    let hits = stat(&stats, "cache.hits");
    let misses = stat(&stats, "cache.misses");
    let total = (clients * requests_per_client) as i64;
    assert_eq!(hits + misses, total);
    // Three distinct cache keys; concurrent first touches may each miss
    // once per in-flight worker, but the steady state is all hits.
    assert!(misses >= 3, "{stats}");
    assert!(hits >= total / 2, "cache should dominate: {stats}");
    svc.shutdown();
}

// ---------------------------------------------------------------------------
// The SQL spelling and the `_system` dashboard over the wire
// ---------------------------------------------------------------------------

/// Path routes and their canonical SQL twins: the same ops, so the same
/// cache entry and byte-identical payloads.
const SQL_TWINS: [(&str, &str); 5] = [
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

/// Mixed path and SQL traffic on one keep-alive connection: every SQL body
/// is byte-identical to its path twin, a statement past the path grammar
/// (boolean `WHERE`, aliased aggregates, two sort keys) serves 200, and
/// malformed SQL is a structured 400. `/stats` then shows the canonical
/// statements sharing the path routes' cache entries and exactly one parse
/// error, and the `shareinsights_sql_*` families export.
#[test]
fn sql_over_tcp_serves_the_bytes_of_its_path_twin() {
    let mut svc = retail_service(ServeOptions::default());
    let addr = svc.local_addr();
    let mut conn = ClientConnection::connect(addr).unwrap();
    let mut sql = |text: &str| {
        conn.request("POST", "/retail/ds/brand_sales/sql", text)
            .expect("sql request")
    };
    let mut matched = 0;
    for round in 0..8 {
        for (path, text) in SQL_TWINS {
            let (path_code, path_body) = blocking_get(addr, path).expect("path request");
            let (sql_code, sql_body) = sql(text);
            assert_eq!(path_code, 200, "path route failed for {path}: {path_body}");
            assert_eq!(sql_code, 200, "sql route failed for {text:?}: {sql_body}");
            assert_eq!(
                path_body, sql_body,
                "round {round}: SQL {text:?} must serve the exact bytes of {path}"
            );
            matched += 1;
        }
    }
    let (code, body) = sql(
        "select brand, sum(revenue) as total, count(revenue) as orders \
         from brand_sales where region = 'north' or region = 'south' \
         group by brand order by total desc, brand asc limit 3",
    );
    assert_eq!(code, 200, "rich SQL must serve: {body}");
    assert!(
        body.contains("total") && body.contains("orders"),
        "rich SQL must carry its aliases: {body}"
    );
    let (code, body) = sql("select from brand_sales where");
    assert_eq!(code, 400, "malformed SQL must be a client error: {body}");
    assert!(
        body.contains("\"kind\"") && body.contains("\"line\""),
        "malformed SQL must return the structured error body: {body}"
    );

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "sql.queries"), matched + 1, "{stats}");
    assert_eq!(
        stat(&stats, "sql.path_shared"),
        matched,
        "canonical SQL must share the path route's cache entries: {stats}"
    );
    assert_eq!(stat(&stats, "sql.parse_errors"), 1, "{stats}");
    let (code, metrics) = blocking_get(addr, "/metrics").unwrap();
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
    svc.shutdown();
}

/// The self-observability loop over the wire, with the scraper on: warm
/// traffic fills `_system/ds/telemetry`, SQL over it serves the bytes of
/// its path twin, the namespace refuses writes with 409, every family
/// `/stats` carries is scraped into it, and the `shareinsights_selfscrape_*`
/// and `shareinsights_process_*` families export.
#[test]
fn the_scraper_fills_the_system_dashboard_under_warm_traffic() {
    let mut svc = retail_service(ServeOptions {
        scrape_interval: Some(Duration::from_millis(25)),
        ..ServeOptions::default()
    });
    let addr = svc.local_addr();
    let mut conn = ClientConnection::connect(addr).unwrap();
    // Warm traffic gives the scraper route, cache and operator series.
    for round in 0..40 {
        let (path, _) = SQL_TWINS[round % SQL_TWINS.len()];
        let (code, body) = conn.get(path).expect("warm request");
        assert_eq!(code, 200, "warm traffic failed: {body}");
    }
    // Whether `done` holds within ten seconds of polling.
    let eventually = |done: &mut dyn FnMut() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    };
    let filled = eventually(&mut || {
        let (code, body) = blocking_get(addr, "/_system/ds/telemetry").unwrap();
        assert_eq!(code, 200, "_system history must serve: {body}");
        !body.contains("\"total_rows\": 0")
    });
    assert!(filled, "_system/ds/telemetry stayed empty after a warm run");
    let (code, body) = blocking_get(addr, "/_system/ds").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("\"telemetry\""), "{body}");

    // A scrape landing between the two requests bumps the generation and
    // changes the payload, so the pair only has to match on some attempt:
    // the requests are microseconds apart, the scraper ticks every 25 ms.
    let path = "/_system/ds/telemetry/groupby/family/max/value";
    let sql = "select family, max(value) from telemetry group by family";
    let identical = (0..20).any(|_| {
        let (path_code, path_body) = blocking_get(addr, path).unwrap();
        let (sql_code, sql_body) =
            blocking_request(addr, "POST", "/_system/ds/telemetry/sql", sql).unwrap();
        assert_eq!(path_code, 200, "path route failed: {path_body}");
        assert_eq!(sql_code, 200, "sql route failed: {sql_body}");
        assert!(path_body.contains("\"family\""), "{path_body}");
        path_body == sql_body
    });
    assert!(identical, "SQL over _system never matched its path route");

    let (code, body) = blocking_request(addr, "POST", "/dashboards/_system/create", "").unwrap();
    assert_eq!(code, 409, "writes into _system must 409: {body}");
    assert!(
        body.contains("reserved"),
        "409 names the reservation: {body}"
    );

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert!(stat(&stats, "selfscrape.scrapes") >= 1, "{stats}");
    assert!(stat(&stats, "selfscrape.retained") >= 1, "{stats}");
    // Every family `/stats` carries is chartable from `_system`. A labelled
    // family with no series yet is an empty block and has no rows.
    let JsonValue::Object(blocks) = parse_json(&stats).unwrap() else {
        panic!("/stats is an object: {stats}");
    };
    let by_family = "/_system/ds/telemetry/groupby/family/count/label";
    let mut missing = Vec::new();
    let scraped = eventually(&mut || {
        let (code, body) = blocking_get(addr, by_family).unwrap();
        assert_eq!(code, 200, "family roll-up failed: {body}");
        missing = (blocks.iter())
            .filter(|(_, block)| !matches!(block, JsonValue::Object(m) if m.is_empty()))
            .map(|(name, _)| name.clone())
            .filter(|name| !body.contains(&format!("\"{name}\"")))
            .collect();
        missing.is_empty()
    });
    assert!(
        scraped,
        "/stats families never scraped into _system: {missing:?}"
    );

    let (code, metrics) = blocking_get(addr, "/metrics").unwrap();
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
    svc.shutdown();
}

// ---------------------------------------------------------------------------
// Served aggregates over an identity endpoint
// ---------------------------------------------------------------------------

/// The identity flow: endpoint `sales_out` mirrors the uploaded CSV, so a
/// test controls the exact rows every query sees.
const IDENTITY_FLOW: &str = r#"
D:
  sales: [region, brand, revenue]
D.sales:
  source: 'sales.csv'
  format: csv
T:
  shape:
    type: sql
    query: "select region, brand, revenue from sales"
F:
  +D.sales_out: D.sales | T.shape
"#;

const SALES_ROWS: usize = 2000;

/// `SALES_ROWS` rows whose row `i` holds `special(i)` as `(brand, revenue)`,
/// or `("pad", i % 7)` where that is `None`.
fn sales_csv_with(special: impl Fn(usize) -> Option<(&'static str, i64)>) -> String {
    let mut csv = String::from("region,brand,revenue\n");
    for i in 0..SALES_ROWS {
        let (brand, revenue) = special(i).unwrap_or(("pad", (i % 7) as i64));
        csv.push_str(&format!("r{},{brand},{revenue}\n", i % 3));
    }
    csv
}

fn identity_platform(csv: String) -> Platform {
    let platform = Platform::new();
    platform.upload_data("retail", "sales.csv", csv);
    platform.save_flow("retail", IDENTITY_FLOW).unwrap();
    platform.run_dashboard("retail").unwrap();
    platform
}

fn sql_over_tcp(addr: std::net::SocketAddr, text: &str) -> (u16, String) {
    blocking_request(addr, "POST", "/retail/ds/sales_out/sql", text).expect("request")
}

/// An integer `sum` past `i64` is one 400 with one message on the path
/// route, and a sum whose running total leaves `i64` but whose whole fits
/// is answered. Brand `over` holds `i64::MAX` in the first row and `1` in
/// the last; brand `back` holds `2^62` twice at the front and `-2^62` at
/// the back, so its whole sum is `2^62`.
#[test]
fn integer_sum_overflow_is_one_400_on_path_and_sql() {
    let csv = sales_csv_with(|i| match i {
        0 => Some(("over", i64::MAX)),
        i if i == SALES_ROWS - 1 => Some(("over", 1)),
        1 | 2 => Some(("back", 1 << 62)),
        i if i == SALES_ROWS - 2 => Some(("back", -(1 << 62))),
        _ => None,
    });
    let mut svc = serve(
        Server::new(identity_platform(csv)),
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .expect("bind");
    let addr = svc.local_addr();
    let overflow = "integer overflow: sum of column 'revenue' leaves the 64-bit range";
    for path in [
        "/retail/ds/sales_out/groupby/brand/sum/revenue",
        "/retail/ds/sales_out/filter/brand/over/groupby/brand/sum/revenue",
    ] {
        let (code, body) = blocking_get(addr, path).unwrap();
        assert_eq!(code, 400, "{path}: {body}");
        assert!(body.contains(overflow), "{path}: {body}");
    }
    let back = (1i64 << 62).to_string();
    let (code, body) = blocking_get(
        addr,
        "/retail/ds/sales_out/filter/brand/back/groupby/brand/sum/revenue",
    )
    .unwrap();
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(&back), "{body}");
    let (code, body) = sql_over_tcp(
        addr,
        "select brand, sum(revenue) from sales_out where brand = 'back' group by brand",
    );
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(&back), "{body}");
    svc.shutdown();
}

/// An integer `avg` is the exact sum rounded once over the count. Brand
/// `big` holds `2^53` in the first row and `1` in the last three: a float
/// running sum would read `2251799813685248`, the exact mean rounds to
/// `2251799813685249`.
#[test]
fn integer_avg_is_one_rounding_on_the_served_path() {
    let csv = sales_csv_with(|i| match i {
        0 => Some(("big", 1 << 53)),
        i if i >= SALES_ROWS - 3 => Some(("big", 1)),
        _ => None,
    });
    let mut svc = serve(
        Server::new(identity_platform(csv)),
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .expect("bind");
    let (code, body) = blocking_get(
        svc.local_addr(),
        "/retail/ds/sales_out/filter/brand/big/groupby/brand/avg/revenue",
    )
    .unwrap();
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("2251799813685249"), "{body}");
    svc.shutdown();
}
