//! Exposition under fire: `/metrics` scraped concurrently with stream
//! pushes, telemetry self-scrapes, and regular queries.
//!
//! The exposition must stay *well-formed* (every `# TYPE` family has
//! samples, every sample line parses with a numeric value) and counters
//! must stay *monotonic* from any single observer's point of view — a
//! scrape racing a publish may see the counter before or after the bump,
//! but never a smaller value than a previous scrape saw.

use shareinsights::server::{serve, ClientConnection, ServeOptions, Server};
use shareinsights_core::Platform;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

fn retail_platform() -> Platform {
    let platform = Platform::new();
    platform.upload_data(
        "retail",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,10\nsouth,zest,20\n",
    );
    platform.save_flow("retail", FLOW).unwrap();
    platform.run_dashboard("retail").unwrap();
    platform
}

/// Parse one exposition document: assert structural well-formedness and
/// return the counter samples as `name{labels} -> value`.
fn validate_exposition(text: &str) -> HashMap<String, f64> {
    let mut counters = HashMap::new();
    let mut current_type: Option<(String, String)> = None;
    let mut samples_for_current = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, _)) = &current_type {
                assert!(samples_for_current > 0, "TYPE {name} had no samples");
            }
            let mut it = rest.split_whitespace();
            let name = it.next().expect("metric name").to_string();
            let kind = it.next().expect("metric kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown kind in: {line}"
            );
            current_type = Some((name, kind));
            samples_for_current = 0;
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "only TYPE comments expected: {line}"
        );
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value: {line}"));
        assert!(value >= 0.0, "negative sample: {line}");
        let (name, kind) = current_type
            .as_ref()
            .unwrap_or_else(|| panic!("sample before any TYPE: {line}"));
        let base = series.split('{').next().unwrap();
        assert!(
            base.starts_with(name.as_str()),
            "sample {base} under TYPE {name}"
        );
        samples_for_current += 1;
        if kind == "counter" {
            counters.insert(series.to_string(), value);
        }
    }
    if let Some((name, _)) = &current_type {
        assert!(samples_for_current > 0, "TYPE {name} had no samples");
    }
    counters
}

#[test]
fn metrics_scrapes_race_pushes_and_stay_monotonic() {
    let opts = ServeOptions {
        workers: 6,
        scrape_interval: Some(Duration::from_millis(5)),
        ..ServeOptions::default()
    };
    let mut svc = serve(Server::new(retail_platform()), "127.0.0.1:0", opts).expect("bind");
    let addr = svc.local_addr();

    let mut conn = ClientConnection::connect(addr).unwrap();
    let (code, body) = conn
        .request("POST", "/dashboards/retail/stream/start", "")
        .unwrap();
    assert_eq!(code, 200, "{body}");

    let done = Arc::new(AtomicBool::new(false));

    // Two pushers ticking the live flow while scrapers read.
    let pushers: Vec<_> = (0..2)
        .map(|p| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut conn = ClientConnection::connect(addr).unwrap();
                let mut i = 0;
                while !done.load(Ordering::SeqCst) {
                    let row = format!("north,pusher_{p}_{i},1\n");
                    let (code, body) = conn
                        .request("POST", "/dashboards/retail/stream/push/sales", &row)
                        .unwrap();
                    assert_eq!(code, 200, "{body}");
                    i += 1;
                    if conn.server_closed() {
                        conn = ClientConnection::connect(addr).unwrap();
                    }
                }
            })
        })
        .collect();

    // A query thread keeps the cache and route counters moving too.
    let querier = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut conn = ClientConnection::connect(addr).unwrap();
            while !done.load(Ordering::SeqCst) {
                let (code, _) = conn
                    .get("/retail/ds/brand_sales/groupby/region/count/brand")
                    .unwrap();
                assert_eq!(code, 200);
                if conn.server_closed() {
                    conn = ClientConnection::connect(addr).unwrap();
                }
            }
        })
    };

    // Three concurrent scrapers, each validating every response and
    // checking its own view of the counters never goes backwards.
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = ClientConnection::connect(addr).unwrap();
                let mut last: HashMap<String, f64> = HashMap::new();
                for _ in 0..25 {
                    let (code, body) = conn.get("/metrics").unwrap();
                    assert_eq!(code, 200);
                    let counters = validate_exposition(&body);
                    for (series, value) in &counters {
                        if let Some(prev) = last.get(series) {
                            assert!(
                                value >= prev,
                                "counter went backwards: {series} {prev} -> {value}"
                            );
                        }
                    }
                    last = counters;
                    if conn.server_closed() {
                        conn = ClientConnection::connect(addr).unwrap();
                    }
                }
            })
        })
        .collect();

    for s in scrapers {
        s.join().expect("scraper thread");
    }
    done.store(true, Ordering::SeqCst);
    for p in pushers {
        p.join().expect("pusher thread");
    }
    querier.join().expect("querier thread");

    // Final scrape: self-scrape and stream counters actually moved.
    let (code, body) = conn.get("/metrics").unwrap();
    assert_eq!(code, 200);
    let counters = validate_exposition(&body);
    let scrapes = counters
        .get("shareinsights_selfscrape_scrapes_total")
        .copied()
        .unwrap_or(0.0);
    assert!(scrapes >= 1.0, "self-scraper ran");
    let ticks = counters
        .get("shareinsights_stream_ticks_total")
        .copied()
        .unwrap_or(0.0);
    assert!(ticks >= 1.0, "pushes ticked the stream");
    svc.shutdown();
}
