//! Differential tests of the shard knobs against the unsharded server.
//!
//! There is no sharded data plane: every ad-hoc query takes the one
//! indexed path. `Server::with_shards(n)` and `ServeOptions::shards` stay
//! as inert stubs, and the contract under test is that they change
//! nothing. Every response — path grammar or SQL, in-process or over
//! TCP, before and after an append — is
//! **byte-identical** to `Server::new`, including paging, ordering,
//! tie-breaks and error strings; `ApiMetrics::shard()` reads zero and no
//! `shard` family is rendered.

use shareinsights::core::Platform;
use shareinsights::datagen::SeededRng;
use shareinsights::server::{
    blocking_get, blocking_request, serve, Method, Request, Response, ServeOptions, Server,
};

const ROWS: usize = 2000;

/// Widths `with_shards` is given; 0 and 1 were once "off", 2 and 4 "on".
const WIDTHS: [usize; 4] = [0, 1, 2, 4];

/// The identity flow: endpoint data `sales_out` mirrors the uploaded CSV,
/// so a test controls the exact rows every query sees.
const FLOW: &str = r#"
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

/// `ROWS` seeded rows; the first 100 carry `region=hot` (the skew case)
/// and `absent` appears nowhere (the empty selection).
fn sales_csv() -> String {
    let mut r = SeededRng::new(0x5AAD_0001);
    let mut csv = String::from("region,brand,revenue\n");
    for i in 0..ROWS {
        let region = if i < 100 {
            "hot".to_string()
        } else {
            format!("r{}", r.index(4))
        };
        csv.push_str(&format!(
            "{region},b{},{}\n",
            r.index(6),
            r.int_range(-50, 999)
        ));
    }
    csv
}

/// A server over `sales_csv()` whose dashboard is saved and run over
/// HTTP, with `with_shards(shards)` applied when given.
fn server_with(shards: Option<usize>) -> Server {
    let platform = Platform::new();
    platform.upload_data("retail", "sales.csv", sales_csv());
    let server = match shards {
        Some(n) => Server::new(platform).with_shards(n),
        None => Server::new(platform),
    };
    let r = server.handle(&Request::new(Method::Put, "/dashboards/retail/flow").with_body(FLOW));
    assert!(r.is_ok(), "{}", r.body);
    let r = server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
    assert!(r.is_ok(), "{}", r.body);
    server
}

/// Path queries over every query shape: row-local filters, every
/// aggregate kind, fused top-n, paging, empty and skewed selections, and
/// two error shapes.
const PATH_QUERIES: &[&str] = &[
    "/retail/ds/sales_out",
    "/retail/ds/sales_out?limit=7&offset=1990",
    "/retail/ds/sales_out/filter/region/r1",
    "/retail/ds/sales_out/filter/region/hot",
    "/retail/ds/sales_out/filter/region/absent",
    "/retail/ds/sales_out/groupby/brand/sum/revenue",
    "/retail/ds/sales_out/groupby/brand/count/revenue",
    "/retail/ds/sales_out/groupby/brand/min/revenue",
    "/retail/ds/sales_out/groupby/brand/max/revenue",
    "/retail/ds/sales_out/groupby/brand/avg/revenue",
    "/retail/ds/sales_out/groupby/brand/count_distinct/region",
    "/retail/ds/sales_out/groupby/region/first/brand",
    "/retail/ds/sales_out/groupby/region/last/brand",
    "/retail/ds/sales_out/filter/region/r2/groupby/brand/sum/revenue",
    "/retail/ds/sales_out/filter/region/hot/groupby/brand/sum/revenue/sort/sum_revenue/desc",
    "/retail/ds/sales_out/sort/revenue/desc/limit/10",
    "/retail/ds/sales_out/sort/revenue/asc/limit/25?offset=5",
    "/retail/ds/sales_out/filter/region/r3/sort/revenue/desc/limit/5",
    "/retail/ds/sales_out/sort/brand/asc",
    "/retail/ds/sales_out/distinct/region",
    "/retail/ds/sales_out/filter/region/r0/limit/30",
    "/retail/ds/sales_out/filter/ghost/x",
    "/retail/ds/sales_out/groupby/brand/sum/ghost",
];

/// SQL over `FilterExpr`, multi-aggregate and multi-key group-by,
/// multi-key sort, projection, `DISTINCT` and `OFFSET`.
const SQL_QUERIES: &[&str] = &[
    "select * from sales_out where revenue > 500",
    "select region, brand from sales_out where revenue between 0 and 99 limit 40",
    "select brand, sum(revenue) as total, count(*) as n from sales_out \
     group by brand order by total desc",
    "select region, brand, sum(revenue), min(revenue) as lo, max(revenue) as hi \
     from sales_out group by region, brand",
    "select region, avg(revenue) as mean from sales_out group by region",
    "select * from sales_out order by region asc, revenue desc limit 15",
    "select distinct region, brand from sales_out",
    "select brand, count(revenue) from sales_out where region = 'hot' group by brand",
    "select * from sales_out where region = 'absent'",
    "select brand, sum(revenue) from sales_out group by brand limit 3 offset 2",
];

fn get(server: &Server, path: &str) -> Response {
    server.handle(&Request::get(path))
}

fn sql(server: &Server, text: &str) -> Response {
    server.handle(&Request::new(Method::Post, "/retail/ds/sales_out/sql").with_body(text))
}

/// `ApiMetrics::shard()` of a stub-configured server reads zero.
fn assert_no_shard_work(server: &Server, label: &str) {
    let shard = server.platform().api_metrics().shard();
    assert_eq!((shard.scatters, shard.fallbacks), (0, 0), "{label}");
}

/// Every path query answers the same status and bytes at every
/// `with_shards` width as on `Server::new`.
#[test]
fn path_queries_match_unsharded_byte_for_byte() {
    let baseline = server_with(None);
    assert!(PATH_QUERIES
        .iter()
        .any(|p| get(&baseline, p).status.code() == 400));
    for n in WIDTHS {
        let server = server_with(Some(n));
        for path in PATH_QUERIES {
            let a = get(&baseline, path);
            let b = get(&server, path);
            assert_eq!(a.status, b.status, "with_shards({n}): {path}");
            assert_eq!(a.body, b.body, "with_shards({n}): {path}");
        }
        assert_no_shard_work(&server, &format!("with_shards({n})"));
    }
}

/// Every SQL query answers the same status and bytes at every
/// `with_shards` width as on `Server::new`.
#[test]
fn sql_queries_match_unsharded_byte_for_byte() {
    let baseline = server_with(None);
    for n in WIDTHS {
        let server = server_with(Some(n));
        for text in SQL_QUERIES {
            let a = sql(&baseline, text);
            let b = sql(&server, text);
            assert!(a.is_ok(), "{text}: {}", a.body);
            assert_eq!(a.status, b.status, "with_shards({n}): {text}");
            assert_eq!(a.body, b.body, "with_shards({n}): {text}");
        }
        assert_no_shard_work(&server, &format!("with_shards({n})"));
    }
}

/// An append moves the data generation: every path query re-read after
/// it matches the unsharded answer over the grown endpoint, and the
/// appended rows are visible.
#[test]
fn appends_invalidate_shard_slices() {
    let baseline = server_with(None);
    let server = server_with(Some(4));
    for path in PATH_QUERIES {
        assert_eq!(get(&baseline, path).body, get(&server, path).body, "{path}");
    }
    let delta = "region,brand,revenue\nnew,b9,12345\nnew,b9,-7\n";
    for s in [&baseline, &server] {
        let r = s.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/sales_out/ingest").with_body(delta),
        );
        assert!(r.is_ok(), "{}", r.body);
    }
    for path in PATH_QUERIES {
        let a = get(&baseline, path);
        let b = get(&server, path);
        assert_eq!(a.status, b.status, "post-append: {path}");
        assert_eq!(a.body, b.body, "post-append: {path}");
    }
    let top = get(&server, "/retail/ds/sales_out/sort/revenue/desc/limit/10");
    assert!(top.body.contains("12345"), "{}", top.body);
    assert_no_shard_work(&server, "with_shards(4)");
}

/// The served core with `ServeOptions { shards: 4 }` answers every path
/// and SQL query byte-identically to the in-process `Server::new`, and
/// neither `/stats` nor `/metrics` renders a shard family.
#[test]
fn both_serve_modes_agree_with_unsharded_baseline() {
    let baseline = server_with(None);
    let opts = ServeOptions {
        shards: 4,
        workers: 2,
        ..ServeOptions::default()
    };
    let mut svc = serve(server_with(None), "127.0.0.1:0", opts).expect("bind");
    let addr = svc.local_addr();
    for path in PATH_QUERIES {
        let want = get(&baseline, path);
        let got = blocking_get(addr, path).expect("request");
        assert_eq!(got, (want.status.code(), want.body), "{path}");
    }
    for text in SQL_QUERIES {
        let want = sql(&baseline, text);
        let got =
            blocking_request(addr, "POST", "/retail/ds/sales_out/sql", text).expect("request");
        assert_eq!(got, (want.status.code(), want.body), "{text}");
    }
    let (_, stats) = blocking_get(addr, "/stats").unwrap();
    assert!(!stats.contains("\"shard\""), "{stats}");
    let (_, metrics) = blocking_get(addr, "/metrics").unwrap();
    assert!(!metrics.contains("shareinsights_shard_"), "{metrics}");
    svc.shutdown();
}
