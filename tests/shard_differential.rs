//! Differential tests for the shared-nothing sharded data plane.
//!
//! The contract under test: attaching a shard set changes *where* a
//! query runs, never *what* it answers. Every response — path grammar or
//! SQL, in-process or over either TCP serve mode — must be
//! **byte-identical** to single-shard execution, including paging,
//! ordering, tie-breaks and error strings. Cases deliberately include
//! empty per-shard partials (filters matching nothing on most shards),
//! all-rows-on-one-shard skew, every mergeable aggregate kind, the
//! accumulator-path aggregates (`avg`, `count_distinct`), fused
//! `sort|limit` top-n, and appends that move the data generation under a
//! loaded shard set.

use shareinsights::core::Platform;
use shareinsights::datagen::SeededRng;
use shareinsights::server::{
    blocking_get, blocking_request, serve, Method, Request, Response, ServeMode, ServeOptions,
    Server,
};

const ROWS: usize = 2000; // above the 1024-row scatter floor

/// The identity flow: endpoint data `sales_out` mirrors the uploaded CSV,
/// so tests control the exact rows every shard slice sees.
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

/// Deterministic endpoint data. The first 100 rows carry `region=hot`
/// (all land on shard 0 at any tested width — the skew case); `absent`
/// appears nowhere (every partial empty).
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

fn server_with(shards: usize) -> Server {
    server_over(sales_csv(), shards)
}

fn server_over(csv: String, shards: usize) -> Server {
    let platform = Platform::new();
    platform.upload_data("retail", "sales.csv", csv);
    let server = Server::new(platform).with_shards(shards);
    let r = server.handle(&Request::new(Method::Put, "/dashboards/retail/flow").with_body(FLOW));
    assert!(r.is_ok(), "{}", r.body);
    let r = server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
    assert!(r.is_ok(), "{}", r.body);
    server
}

/// Path-grammar queries spanning every gather mode: row-local scatters,
/// mergeable and accumulator group-bys, fused top-n, skew and empty
/// partials, paging, and shapes the planner must decline identically.
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
    // Error shapes must reproduce the same strings through the shards.
    "/retail/ds/sales_out/filter/ghost/x",
    "/retail/ds/sales_out/groupby/brand/sum/ghost",
];

/// SQL spellings exercising `FilterExpr`, multi-aggregate `GroupBy`,
/// multi-key `Sort`, projections, `DISTINCT` and `OFFSET`.
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

// ---------------------------------------------------------------------------
// In-process differentials
// ---------------------------------------------------------------------------

/// Every path query answers byte-identically at 1 (disabled), 2 and 4
/// shards — statuses and bodies both — and the sharded servers actually
/// scattered (this is a differential, not a fallback-everywhere pass).
#[test]
fn path_queries_match_unsharded_byte_for_byte() {
    let baseline = server_with(1);
    assert!(baseline.shards().is_none(), "width 1 must disable sharding");
    for width in [2usize, 4] {
        let sharded = server_with(width);
        assert!(sharded.shards().is_some());
        for path in PATH_QUERIES {
            let a = get(&baseline, path);
            let b = get(&sharded, path);
            assert_eq!(a.status, b.status, "{width} shards: {path}");
            assert_eq!(a.body, b.body, "{width} shards: {path}");
        }
        let stats = sharded.platform().api_metrics().shard();
        assert_eq!(stats.workers, width as u64);
        assert!(stats.scatters > 0, "{width} shards: nothing scattered");
        assert!(
            stats.fallbacks > 0,
            "{width} shards: unshardable shapes should fall back"
        );
    }
}

/// Every SQL query answers byte-identically across shard widths, and the
/// caches repeat the same bytes (worker result caches included).
#[test]
fn sql_queries_match_unsharded_byte_for_byte() {
    let baseline = server_with(1);
    for width in [2usize, 4] {
        let sharded = server_with(width);
        for text in SQL_QUERIES {
            let a = sql(&baseline, text);
            let b = sql(&sharded, text);
            assert_eq!(a.status, b.status, "{width} shards: {text}");
            assert_eq!(a.body, b.body, "{width} shards: {text}");
            // Cold repeat: drop the router-side caches so the second
            // answer re-gathers (hitting worker result caches) and still
            // reproduces the bytes.
            sharded.clear_derived_caches();
            let again = sql(&sharded, text);
            assert_eq!(b.body, again.body, "{width} shards, cold repeat: {text}");
        }
        assert!(sharded.platform().api_metrics().shard().scatters > 0);
    }
}

/// An integer `sum` past `i64` is one 400 at every width, with the
/// unsharded message, and a sum that only a partial overflows is still
/// answered. Brand `over` holds `i64::MAX` in the first row and `1` in the
/// last — each shard's partial fits, the whole does not; brand `back`
/// holds `2^62` twice at the front (shard 0's partial leaves `i64`) and
/// `-2^62` at the back, so its whole sum is `2^62`.
#[test]
fn integer_sum_overflow_is_one_400_at_every_width() {
    let mut csv = String::from("region,brand,revenue\n");
    for i in 0..ROWS {
        let (brand, revenue) = match i {
            0 => ("over", i64::MAX),
            i if i == ROWS - 1 => ("over", 1),
            1 | 2 => ("back", 1 << 62),
            i if i == ROWS - 2 => ("back", -(1 << 62)),
            _ => ("pad", 1),
        };
        csv.push_str(&format!("r{},{brand},{revenue}\n", i % 3));
    }
    let queries = [
        "/retail/ds/sales_out/groupby/brand/sum/revenue",
        "/retail/ds/sales_out/filter/brand/over/groupby/brand/sum/revenue",
        "/retail/ds/sales_out/filter/brand/back/groupby/brand/sum/revenue",
    ];
    let baseline = server_over(csv.clone(), 1);
    let over = get(&baseline, queries[1]);
    assert_eq!(over.status.code(), 400, "{}", over.body);
    assert!(
        over.body
            .contains("integer overflow: sum of column 'revenue' leaves the 64-bit range"),
        "{}",
        over.body
    );
    let back = get(&baseline, queries[2]);
    assert!(back.is_ok(), "{}", back.body);
    assert!(
        back.body.contains(&(1i64 << 62).to_string()),
        "{}",
        back.body
    );
    for width in [2usize, 4] {
        let sharded = server_over(csv.clone(), width);
        for path in queries {
            let a = get(&baseline, path);
            let b = get(&sharded, path);
            assert_eq!(a.status, b.status, "{width} shards: {path}");
            assert_eq!(a.body, b.body, "{width} shards: {path}");
        }
        let text = "select brand, sum(revenue) from sales_out where brand = 'back' group by brand";
        assert_eq!(
            sql(&baseline, text).body,
            sql(&sharded, text).body,
            "{width}: {text}"
        );
        assert!(sharded.platform().api_metrics().shard().scatters > 0);
    }
}

/// An integer `avg` ships as accumulator state and is merged in shard
/// order; it answers the same bytes at every width because it is the
/// exact sum rounded once over the count. Brand `big` holds `2^53` in the
/// first row and `1` in the last three, so at widths 2 and 4 the first
/// shard's partial is `[2^53]` and the last one's `[1, 1, 1]`: a float sum
/// of sums read `2251799813685249`, a running float sum
/// `2251799813685248`, and the exact mean rounds to the former.
#[test]
fn integer_avg_is_one_body_at_every_width() {
    let mut csv = String::from("region,brand,revenue\n");
    for i in 0..ROWS {
        let (brand, revenue) = match i {
            0 => ("big", 1i64 << 53),
            i if i >= ROWS - 3 => ("big", 1),
            _ => ("pad", (i % 7) as i64),
        };
        csv.push_str(&format!("r{},{brand},{revenue}\n", i % 3));
    }
    let path = "/retail/ds/sales_out/filter/brand/big/groupby/brand/avg/revenue";
    let baseline = get(&server_over(csv.clone(), 1), path);
    assert!(baseline.is_ok(), "{}", baseline.body);
    assert!(
        baseline.body.contains("2251799813685249"),
        "{}",
        baseline.body
    );
    for width in [2usize, 4] {
        let sharded = server_over(csv.clone(), width);
        let b = get(&sharded, path);
        assert_eq!(baseline.status, b.status, "{width} shards");
        assert_eq!(baseline.body, b.body, "{width} shards");
        assert!(sharded.platform().api_metrics().shard().scatters > 0);
    }
}

/// Appends move the generation under a loaded shard set: the next query
/// must reload fresh slices and keep matching the unsharded answer —
/// stale partials refused by the generation stamp, never served.
#[test]
fn appends_invalidate_shard_slices() {
    let baseline = server_with(1);
    let sharded = server_with(4);
    let queries = [
        "/retail/ds/sales_out/groupby/brand/sum/revenue",
        "/retail/ds/sales_out/sort/revenue/desc/limit/10",
    ];
    for path in queries {
        assert_eq!(get(&baseline, path).body, get(&sharded, path).body);
    }
    let delta = "region,brand,revenue\nnew,b9,12345\nnew,b9,-7\n";
    for server in [&baseline, &sharded] {
        let r = server.handle(
            &Request::new(Method::Post, "/dashboards/retail/ds/sales_out/ingest").with_body(delta),
        );
        assert!(r.is_ok(), "{}", r.body);
    }
    for path in queries {
        let a = get(&baseline, path);
        let b = get(&sharded, path);
        assert!(a.is_ok(), "{path}: {}", a.body);
        assert_eq!(a.body, b.body, "post-append: {path}");
    }
    let stats = sharded.platform().api_metrics().shard();
    assert!(stats.invalidations > 0, "append must fan out invalidation");
    assert!(
        stats.loads >= 8,
        "slices must reload after the generation moved (loads={})",
        stats.loads
    );
}

/// `/stats` exposes the shard block with per-worker rows covering the
/// full partition, and `/metrics` exposes the matching Prometheus
/// families — only when sharding is on.
#[test]
fn observability_surfaces_shard_counters() {
    let sharded = server_with(4);
    assert!(get(&sharded, "/retail/ds/sales_out/groupby/brand/sum/revenue").is_ok());
    let stats = get(&sharded, "/stats");
    assert!(stats.is_ok());
    assert!(stats.body.contains("\"shard\""), "missing shard block");
    assert!(stats.body.contains("\"per_worker\""));
    let metrics = get(&sharded, "/metrics").body;
    for family in [
        "shareinsights_shard_workers 4",
        "shareinsights_shard_scatters_total",
        "shareinsights_shard_worker_rows{shard=\"3\"}",
        "shareinsights_shard_gather_seconds_total",
    ] {
        assert!(metrics.contains(family), "missing {family}");
    }
    let unsharded = server_with(1);
    assert!(unsharded.handle(&Request::get("/metrics")).is_ok());
    let metrics = unsharded.handle(&Request::get("/metrics")).body;
    assert!(
        !metrics.contains("shareinsights_shard_worker_rows"),
        "per-worker families must be absent when sharding is off"
    );
}

// ---------------------------------------------------------------------------
// TCP differentials: both serve modes
// ---------------------------------------------------------------------------

/// Both serve architectures, with sharding switched on through
/// `ServeOptions::shards`, answer byte-identically to the unsharded
/// in-process router — and never 5xx doing it.
#[test]
fn both_serve_modes_agree_with_unsharded_baseline() {
    let baseline = server_with(1);
    for mode in [ServeMode::ThreadPerConnection, ServeMode::Reactor] {
        let opts = ServeOptions {
            serve_mode: mode,
            shards: 4,
            workers: 2,
            ..ServeOptions::default()
        };
        let mut svc = serve(server_with(1), "127.0.0.1:0", opts).expect("bind");
        let addr = svc.local_addr();
        for path in PATH_QUERIES {
            let expect = get(&baseline, path);
            let (code, body) = blocking_get(addr, path).expect("request");
            assert!(code < 500, "{mode:?} {path}: {code} {body}");
            assert_eq!(code, expect.status.code(), "{mode:?}: {path}");
            assert_eq!(body, expect.body, "{mode:?}: {path}");
        }
        for text in SQL_QUERIES {
            let expect = sql(&baseline, text);
            let (code, body) =
                blocking_request(addr, "POST", "/retail/ds/sales_out/sql", text).expect("request");
            assert!(code < 500, "{mode:?} {text}: {code} {body}");
            assert_eq!(body, expect.body, "{mode:?}: {text}");
        }
        let (code, metrics) = blocking_get(addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        assert!(
            metrics.contains("shareinsights_shard_workers 4"),
            "{mode:?}: serve options did not attach the shard set"
        );
        assert!(metrics.contains("shareinsights_shard_scatters_total"));
        svc.shutdown();
    }
}
