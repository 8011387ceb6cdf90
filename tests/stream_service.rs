//! Conformance for live streaming flows over the wire.
//!
//! A subscriber on a socket must observe exactly the stream the router
//! publishes: for the same tick sequence, the frames the reactor pushes
//! are byte-identical to those an in-process subscription drains. That
//! holds by construction — frames are built once, at publish time, in the
//! router — and these tests pin the construction down at the wire level.

use shareinsights::server::{
    blocking_get, blocking_request, serve, ClientConnection, Method, Request, ServeOptions, Server,
    ServiceHandle, SseParser, SseSubscriber,
};
use shareinsights_core::Platform;
use shareinsights_tabular::io::json::parse_json;
use std::time::Duration;

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
  D.brand_sales:
    publish: brand_sales
"#;

/// The tick sequence every test pushes — identical over the wire and in
/// process, so the resulting frames must be too.
const TICKS: [&str; 3] = [
    "north,stream_brand,5\nsouth,stream_brand,7\n",
    "north,stream_brand,11\n",
    "south,other_brand,2\nsouth,other_brand,3\n",
];

fn retail_platform() -> Platform {
    let platform = Platform::new();
    let mut csv = String::from("region,brand,revenue\n");
    for i in 0..4 {
        let region = if i % 2 == 0 { "north" } else { "south" };
        csv.push_str(&format!("{region},brand_number_{i},{}\n", i * 3 + 1));
    }
    platform.upload_data("retail", "sales.csv", &csv);
    platform.save_flow("retail", FLOW).unwrap();
    platform.run_dashboard("retail").unwrap();
    platform
}

fn retail_service() -> ServiceHandle {
    serve(
        Server::new(retail_platform()),
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .expect("bind ephemeral port")
}

/// The same start, subscribe and ticks in process: the raw events the
/// router queued on the subscription.
fn in_process_frames() -> Vec<Vec<u8>> {
    let server = Server::new(retail_platform());
    let post = |path: &str, body: &str| Request::new(Method::Post, path).with_body(body);
    assert!(server
        .handle(&post("/dashboards/retail/stream/start", ""))
        .is_ok());
    let handled = server.handle_traced(&Request::get("/retail/ds/brand_sales/subscribe"));
    let sub = handled.stream.expect("a subscription");
    for tick in TICKS {
        assert!(server
            .handle(&post("/dashboards/retail/stream/push/sales", tick))
            .is_ok());
    }
    let mut parser = SseParser::new();
    let (frames, _) = sub.try_take();
    (frames.iter())
        .flat_map(|frame| parser.feed(frame).unwrap())
        .map(|event| event.raw)
        .collect()
}

/// Drain events from `sub` until `want` have arrived (or time runs out).
fn collect(sub: &mut SseSubscriber, want: usize) -> Vec<shareinsights::server::SseEvent> {
    let mut events = Vec::new();
    for _ in 0..40 {
        if events.len() >= want {
            break;
        }
        match sub.next_events(Duration::from_millis(250)) {
            Ok(batch) => events.extend(batch),
            Err(e) => panic!("subscriber read failed: {e}"),
        }
        if sub.terminated() {
            break;
        }
    }
    events
}

fn stat(stats_body: &str, path: &str) -> i64 {
    parse_json(stats_body)
        .unwrap()
        .path(path)
        .unwrap_or_else(|| panic!("no {path} in {stats_body}"))
        .to_value()
        .as_int()
        .unwrap_or_else(|| panic!("{path} not an int in {stats_body}"))
}

#[test]
fn subscribers_receive_identical_frames_in_both_modes() {
    let mut svc = retail_service();
    let addr = svc.local_addr();

    let (code, body) =
        blocking_request(addr, "POST", "/dashboards/retail/stream/start", "").unwrap();
    assert_eq!(code, 200, "{body}");

    let conn = ClientConnection::connect(addr).unwrap();
    let mut sub = conn.subscribe("/retail/ds/brand_sales/subscribe").unwrap();

    // The initial snapshot frame arrives before any tick.
    let snapshot = collect(&mut sub, 1);
    assert_eq!(snapshot.len(), 1, "want one snapshot frame");
    assert_eq!(snapshot[0].event, "brand_sales");

    for tick in TICKS {
        let (code, body) =
            blocking_request(addr, "POST", "/dashboards/retail/stream/push/sales", tick).unwrap();
        assert_eq!(code, 200, "{body}");
    }

    let deltas = collect(&mut sub, TICKS.len());
    assert_eq!(deltas.len(), TICKS.len(), "one frame per tick");

    // Generations advance strictly — every frame supersedes the last.
    let mut last = snapshot[0].id;
    for event in &deltas {
        assert!(event.id > last, "generation {} after {last}", event.id);
        last = event.id;
    }

    let wire: Vec<Vec<u8>> = snapshot
        .iter()
        .chain(deltas.iter())
        .map(|e| e.raw.clone())
        .collect();
    svc.shutdown();

    // The acceptance bar: byte-identical frames, wire against router.
    assert_eq!(
        wire,
        in_process_frames(),
        "the wire subscriber and the in-process one diverged"
    );
}

#[test]
fn disconnecting_subscriber_is_reaped_in_both_modes() {
    let mut svc = retail_service();
    let addr = svc.local_addr();

    let (code, _) = blocking_request(addr, "POST", "/dashboards/retail/stream/start", "").unwrap();
    assert_eq!(code, 200);

    let conn = ClientConnection::connect(addr).unwrap();
    let mut sub = conn.subscribe("/retail/ds/brand_sales/subscribe").unwrap();
    assert_eq!(collect(&mut sub, 1).len(), 1);

    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert_eq!(stat(&stats, "stream.subscribers"), 1, "{stats}");

    // Hang up without unsubscribing; the serving loop must notice and
    // tidy the registration on its own.
    drop(sub);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, stats) = blocking_get(addr, "/stats").unwrap();
        if stat(&stats, "stream.subscribers") == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "subscriber gauge never returned to zero: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    svc.shutdown();
}
