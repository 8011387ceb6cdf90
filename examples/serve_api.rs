//! Serve the data API over TCP until interrupted.
//!
//! Connections are HTTP/1.1 keep-alive by default (see `ServeOptions` for
//! the idle-timeout and requests-per-connection knobs), so `curl` and
//! friends can reuse one socket across requests.
//!
//! The README's "Serving the data API" walkthrough runs against this:
//!
//! ```text
//! cargo run --example serve_api [addr] [--chunk-budget BYTES] [--scrape-interval MS]
//! curl http://127.0.0.1:8080/dashboards      # default addr 127.0.0.1:8080
//! ```
//!
//! `--chunk-budget BYTES` streams responses larger than BYTES as HTTP/1.1
//! chunked transfer;
//! `--scrape-interval MS` ticks the telemetry scraper so the read-only
//! `_system` dashboard serves queryable history
//! (`curl http://.../_system/ds/telemetry`).

use shareinsights::server::{serve, ServeOptions, Server};
use shareinsights_core::Platform;

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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let chunk_budget: Option<usize> = args.iter().position(|a| a == "--chunk-budget").map(|i| {
        let value = args[i + 1].parse().expect("--chunk-budget BYTES");
        args.drain(i..=i + 1);
        value
    });
    let scrape_interval = args.iter().position(|a| a == "--scrape-interval").map(|i| {
        let ms: u64 = args[i + 1].parse().expect("--scrape-interval MS");
        args.drain(i..=i + 1);
        std::time::Duration::from_millis(ms.max(1))
    });
    let addr = args
        .first()
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8080".to_string());

    let platform = Platform::new();
    platform.upload_data(
        "retail",
        "sales.csv",
        "region,brand,revenue\nnorth,acme,10\nnorth,acme,5\nsouth,zest,20\nnorth,zest,1\n",
    );
    platform.save_flow("retail", FLOW).expect("flow");
    platform.run_dashboard("retail").expect("run");

    let opts = ServeOptions {
        chunk_budget,
        scrape_interval,
        ..ServeOptions::default()
    };
    let svc = serve(Server::new(platform), &addr, opts)
        .expect("bind address (try `serve_api 127.0.0.1:0`)");
    println!("data API listening on http://{}", svc.local_addr());
    println!(
        "try: curl http://{}/retail/ds/brand_sales/groupby/region/count/brand",
        svc.local_addr()
    );
    println!("     curl http://{}/stats", svc.local_addr());

    // Serve until the process is interrupted.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
