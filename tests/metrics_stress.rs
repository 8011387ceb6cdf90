//! Exposition under fire: `/metrics` scraped concurrently with stream
//! pushes, telemetry self-scrapes, and regular queries.
//!
//! The exposition must stay *well-formed* (`common::validate_exposition`:
//! every `# TYPE` family has samples, every value parses, histogram
//! buckets are cumulative with `+Inf` equal to `_count`) and counters
//! must stay *monotonic* from any single observer's point of view — a
//! scrape racing a publish may see the counter before or after the bump,
//! but never a smaller value than a previous scrape saw.

mod common;

use common::{validate_exposition, FLOW};
use shareinsights::server::{serve, ClientConnection, ServeOptions, Server};
use shareinsights_core::Platform;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
