//! Differential property tests for the SQL frontend.
//!
//! The contract under test: SQL is a *frontend*, not a second engine.
//! Every statement lowers to the same `QueryOp`s the path-segment
//! grammar produces, evaluates through the same scan and indexed
//! kernels, and — when the plan canonicalises — computes the exact
//! cache key the path route would, so the two languages share cache
//! entries. The proofs here are byte-level: JSON serializations must
//! be identical across (a) SQL vs path-segment lowering, (b) scan vs
//! indexed evaluation, and (c) the two HTTP routes end to end. The
//! parser must never panic, however hostile the input.
//!
//! Like `properties.rs`, cases come from a seeded local RNG so every
//! failure is reproducible from the fixed seed.

mod common;

use common::gen_endpoint_table;
use shareinsights::core::Platform;
use shareinsights::datagen::SeededRng;
use shareinsights::engine::sql::{lower, parse_select};
use shareinsights::server::query::{
    fuse, parse_ops, path_segments, run_query, run_query_indexed, QueryOp,
};
use shareinsights::server::sql::{lower_plan, plan_text};
use shareinsights::server::{table_to_json, Method, Request, Server};
use shareinsights::tabular::agg::AggKind;
use shareinsights::tabular::expr::{CmpOp, Expr};
use shareinsights::tabular::ops::{AggregateSpec, GroupBy, SortKey};
use shareinsights::tabular::{DataType, IndexedTable, Table, Value};

/// Debug builds run 64 cases; CI runs the suite in release at full count.
const CASES: usize = if cfg!(debug_assertions) { 64 } else { 1000 };

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// One random *canonical* query: SQL text plus the path segments it must
/// canonicalise to. Shapes follow the path grammar's composition rules
/// (filters, one single-agg groupby, a sort, a limit).
fn gen_canonical(r: &mut SeededRng) -> (String, Vec<String>) {
    let mut select_list = "*".to_string();
    let mut clauses = Vec::new();
    let mut segs: Vec<String> = Vec::new();

    if r.chance(0.6) {
        let (col, val) = if r.chance(0.5) {
            ("cat", format!("k{}", r.index(6)))
        } else {
            ("num", r.int_range(-50, 49).to_string())
        };
        let quoted = if col == "cat" {
            format!("'{val}'")
        } else {
            val.clone()
        };
        clauses.push(format!("where {col} = {quoted}"));
        segs.extend(["filter".into(), col.into(), val]);
    }
    let grouped = r.chance(0.6);
    if grouped {
        let agg = ["sum", "count", "min", "max"][r.index(4)];
        select_list = format!("cat, {agg}(num)");
        clauses.push("group by cat".into());
        segs.extend(["groupby".into(), "cat".into(), agg.into(), "num".into()]);
        if r.chance(0.5) {
            let dir = if r.chance(0.5) { "asc" } else { "desc" };
            let key = if r.chance(0.5) {
                "cat".to_string()
            } else {
                format!("{agg}_num")
            };
            clauses.push(format!("order by {key} {dir}"));
            segs.extend(["sort".into(), key, dir.into()]);
        }
    } else if r.chance(0.5) {
        let key = ["cat", "cat2", "num"][r.index(3)];
        let dir = if r.chance(0.5) { "asc" } else { "desc" };
        clauses.push(format!("order by {key} {dir}"));
        segs.extend(["sort".into(), key.into(), dir.into()]);
    }
    if r.chance(0.5) {
        let n = r.index(20);
        clauses.push(format!("limit {n}"));
        segs.extend(["limit".into(), n.to_string()]);
    }
    let sql = format!("select {select_list} from t {}", clauses.join(" "));
    (sql, segs)
}

/// One random SQL-only shape: boolean `WHERE`s, projections, multi-agg
/// grouping, aliases, multi-key sorts, `DISTINCT`, `OFFSET`.
fn gen_rich(r: &mut SeededRng) -> String {
    let mut clauses = Vec::new();
    let predicates = [
        "num > 0",
        "num <= 10",
        "num != 3",
        "cat = 'k1' and num < 20",
        "cat = 'k0' or cat = 'k1'",
        "num in (1, 2, 3)",
        "num between -10 and 10",
        "cat is null",
        "cat is not null",
        "not (num > 5)",
        "num = -4",
        "cat in ('k0', 'absent')",
    ];
    if r.chance(0.8) {
        clauses.push(format!("where {}", r.pick(&predicates)));
    }
    let select_list = match r.index(4) {
        0 => {
            clauses.push("group by cat, cat2".into());
            "cat, cat2, sum(num), count(num) as n".to_string()
        }
        1 => {
            clauses.push("group by cat".into());
            "cat, min(num) as lo, max(num) as hi".to_string()
        }
        2 => "cat, num".to_string(),
        _ => "*".to_string(),
    };
    if r.chance(0.4) && select_list == "*" {
        clauses.push("order by cat asc, num desc".into());
    }
    if r.chance(0.3) {
        clauses.push(format!("limit {}", 1 + r.index(10)));
    }
    if r.chance(0.2) {
        clauses.push(format!("offset {}", r.index(5)));
    }
    let distinct = if select_list == "cat, num" && r.chance(0.4) {
        "distinct "
    } else {
        ""
    };
    format!(
        "select {distinct}{select_list} from t {}",
        clauses.join(" ")
    )
}

fn ops_for(sql: &str) -> Vec<QueryOp> {
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let plan = lower(sql, &stmt).unwrap_or_else(|e| panic!("{sql}: {e}"));
    lower_plan(&plan, &mut |n| Err(format!("no join table {n}")))
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .ops
}

// ---------------------------------------------------------------------------
// Lowering differential: SQL == path grammar
// ---------------------------------------------------------------------------

/// Canonical SQL lowers to the *same ops and cache path* as the segment
/// grammar, and both evaluate byte-identically through scan and index.
#[test]
fn canonical_sql_equals_path_segments() {
    let mut r = SeededRng::new(0x5D1F_0001);
    let mut shared = 0usize;
    for _ in 0..CASES {
        let t = gen_endpoint_table(&mut r);
        let ix = IndexedTable::new(t.clone());
        let (sql, segs) = gen_canonical(&mut r);
        let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let plan = lower(&sql, &stmt).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let l = lower_plan(&plan, &mut |n| Err(format!("no join table {n}"))).unwrap();
        assert!(l.shared, "{sql} must canonicalise");
        assert_eq!(l.cache_path, segs.join("/"), "{sql}");
        let refs: Vec<&str> = segs.iter().map(String::as_str).collect();
        let path_ops = parse_ops(&refs).unwrap();
        assert_eq!(l.ops, path_ops, "{sql} lowers to the path grammar's ops");
        shared += 1;

        match (run_query(&t, &l.ops), run_query_indexed(&ix, &l.ops)) {
            (Ok(scan), Ok((fast, _))) => assert_eq!(
                table_to_json(&fast),
                table_to_json(&scan),
                "{sql}: indexed diverged from scan"
            ),
            (Err(a), Err(b)) => assert_eq!(a, b, "{sql}: error divergence"),
            (a, b) => panic!("{sql}: paths disagree: scan={a:?} indexed={b:?}"),
        }
    }
    assert_eq!(shared, CASES);
}

/// SQL-only shapes (boolean filters, projections, multi-agg groupings,
/// `DISTINCT`, `OFFSET`) evaluate byte-identically through the scan and
/// indexed paths.
#[test]
fn rich_sql_matches_scan_through_index() {
    let mut r = SeededRng::new(0x5D1F_0002);
    for _ in 0..CASES {
        let t = gen_endpoint_table(&mut r);
        let ix = IndexedTable::new(t.clone());
        let sql = gen_rich(&mut r);
        let ops = ops_for(&sql);
        match (run_query(&t, &ops), run_query_indexed(&ix, &ops)) {
            (Ok(scan), Ok((fast, _))) => assert_eq!(
                table_to_json(&fast),
                table_to_json(&scan),
                "{sql}: indexed diverged from scan"
            ),
            (Err(a), Err(b)) => assert_eq!(a, b, "{sql}: error divergence"),
            (a, b) => panic!("{sql}: paths disagree: scan={a:?} indexed={b:?}"),
        }
    }
}

/// The shapes the fusion pass rewrites, spelled in SQL: `WHERE … GROUP BY`
/// with float aggregates and `count(*)`, and `ORDER BY … LIMIT [OFFSET]`
/// on one or several keys. Fused scan, fused indexed and the unfused
/// reference evaluator must produce the same bytes.
#[test]
fn fused_sql_shapes_match_unfused_reference() {
    let wheres = [
        "f < 0.5",
        "num between -1 and 2 and f < 100",
        "cat is not null and f >= -1.5",
        "num in (1, 2, 3) or cat = 'k1'",
        "num >= -100",
        "num > 100",
        "cat is null",
        "not (f > 0)",
    ];
    let mut r = SeededRng::new(0x5D1F_0003);
    for case in 0..CASES {
        let t = common::gen_tied_table(&mut r);
        let rows = t.num_rows();
        let w = wheres[r.index(wheres.len())];
        let grouped = format!(
            "select cat, sum(f) as total, avg(f) as mean, min(f) as lo, max(f) as hi, \
             count(*) as n, count(num) as seen from t where {w} group by cat"
        );
        let n = *r.pick(&[0, 1, rows.saturating_sub(1), rows, rows + 1]);
        let ordered = match r.index(3) {
            0 => format!("select * from t order by cat desc, f asc limit {n}"),
            1 => format!(
                "select * from t order by num desc limit {n} offset {}",
                r.index(4)
            ),
            _ => format!("select * from t where {w} order by cat asc limit {n}"),
        };
        for sql in [grouped, ordered] {
            common::assert_three_way(&t, &ops_for(&sql), &format!("case {case} {sql}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Full-stack differential: POST /sql == GET /query
// ---------------------------------------------------------------------------

fn served_retail() -> Server {
    // The endpoint is produced by a T.sql task — the flow-level spelling
    // of the same frontend under test.
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
    let platform = Platform::new();
    let mut csv = String::from("region,brand,revenue\n");
    let mut r = SeededRng::new(0x5D1F_0003);
    for _ in 0..200 {
        csv.push_str(&format!(
            "r{},b{},{}\n",
            r.index(4),
            r.index(6),
            r.int_range(0, 99)
        ));
    }
    platform.upload_data("retail", "sales.csv", &csv);
    let server = Server::new(platform);
    let r = server.handle(&Request::new(Method::Put, "/dashboards/retail/flow").with_body(FLOW));
    assert!(r.is_ok(), "{}", r.body);
    let r = server.handle(&Request::new(Method::Post, "/dashboards/retail/run"));
    assert!(r.is_ok(), "{}", r.body);
    server
}

/// The two HTTP spellings of the same query return byte-identical
/// payloads — for canonical shapes via the *shared* cache entry, and the
/// POST route is stable across repeats (second hit served from cache).
#[test]
fn http_routes_agree_byte_for_byte() {
    let server = served_retail();
    let pairs = [
        (
            "/retail/ds/sales_out/groupby/brand/sum/revenue",
            "select brand, sum(revenue) from sales_out group by brand",
        ),
        (
            "/retail/ds/sales_out/filter/region/r1",
            "select * from sales_out where region = 'r1'",
        ),
        (
            "/retail/ds/sales_out/filter/region/r2/groupby/brand/count/revenue/sort/count_revenue/desc/limit/3",
            "select brand, count(revenue) from sales_out where region = 'r2' \
             group by brand order by count_revenue desc limit 3",
        ),
        (
            "/retail/ds/sales_out/sort/revenue/asc/limit/5",
            "select * from sales_out order by revenue asc limit 5",
        ),
    ];
    for (path, sql) in pairs {
        let via_get = server.handle(&Request::get(path));
        assert!(via_get.is_ok(), "{path}: {}", via_get.body);
        let post = Request::new(Method::Post, "/retail/ds/sales_out/sql").with_body(sql);
        let via_sql = server.handle(&post);
        assert!(via_sql.is_ok(), "{sql}: {}", via_sql.body);
        assert_eq!(via_get.body, via_sql.body, "{sql} vs {path}");
        let again = server.handle(&post);
        assert_eq!(via_sql.body, again.body, "{sql}: cached repeat differs");
    }
    // Every pair above canonicalised: the SQL route recorded shared plans
    // and never evaluated past the page cache the GET route filled.
    let sql_stats = server.platform().api_metrics().sql();
    assert_eq!(sql_stats.path_shared, sql_stats.queries);
    assert_eq!(sql_stats.parse_errors, 0);
}

/// Rich SQL over HTTP agrees with an in-process scan of the same ops —
/// the server adds caching and paging, never different answers.
#[test]
fn http_sql_matches_inprocess_scan() {
    let server = served_retail();
    let table = {
        let d = server.platform().dashboard("retail").unwrap();
        d.endpoint_tables.get("sales_out").unwrap().clone()
    };
    for sql in [
        "select region, brand from sales_out where revenue > 50",
        "select region, sum(revenue) as total, count(*) as n from sales_out \
         group by region order by total desc",
        "select distinct region, brand from sales_out limit 20 offset 3",
        "select * from sales_out where revenue between 10 and 40 and region != 'r0'",
    ] {
        let r =
            server.handle(&Request::new(Method::Post, "/retail/ds/sales_out/sql").with_body(sql));
        assert!(r.is_ok(), "{sql}: {}", r.body);
        let ops = ops_for(sql);
        let scan = run_query(&table, &ops).unwrap();
        assert_eq!(r.body, table_to_json(&scan), "{sql}");
    }
}

// ---------------------------------------------------------------------------
// One predicate semantics: canonical SQL, its twin and the path agree
// ---------------------------------------------------------------------------

/// `zip`: text cells that look like numbers (and one that does not, so the
/// CSV decode keeps the column text); `n`, `x`: numbers.
fn numeric_looking_csv(r: &mut SeededRng) -> String {
    let mut csv = String::from("zip,n,x\nabc,7,7.5\n02139,2139,2139.0\n2139,,\n");
    for _ in 0..r.index(30) {
        let zip = *r.pick(&["02139", "2139", " 2139", "7.50", "7.5", "abc", ""]);
        let n = *r.pick(&["-1", "7", "2139", ""]);
        let x = *r.pick(&["7.5", "2139.0", "-0.0", ""]);
        csv.push_str(&format!("{zip},{n},{x}\n"));
    }
    csv
}

/// `(column, SQL literal, path value)`: a text column facing numbers and
/// number columns facing numeric strings. The path grammar infers its
/// value's type, so each path value types as the literal's number.
fn coercing_filters(r: &mut SeededRng) -> (&'static str, &'static str, &'static str) {
    *r.pick(&[
        ("zip", "2139", "2139"),
        ("zip", "7.5", "7.5"),
        ("zip", "2139.0", "2139.0"),
        ("n", "'7'", "7"),
        ("n", "'2139.0'", "2139.0"),
        ("n", "'07'", "07"),
        ("x", "'7.50'", "7.50"),
        ("x", "'2139'", "2139"),
    ])
}

/// `WHERE c = <lit>` (canonical when the literal is a number), its
/// non-canonical twin `WHERE c = <lit> OR c = <lit>` and `filter/c/<lit>`
/// select the same rows — string↔number coercion included — in process,
/// through the index and over `Server::handle`. Before the path filter and
/// canonical SQL became `Expr`s, `WHERE zip = 2139` over `"02139"` and
/// `"2139"` kept no row while its twin kept both.
#[test]
fn sql_and_path_filters_coerce_alike() {
    let mut r = SeededRng::new(0x5D1F_0005);
    let mut kept = 0usize;
    for case in 0..CASES / 8 {
        let csv = numeric_looking_csv(&mut r);
        let platform = Platform::new();
        platform.upload_data("zips", "t.csv", &csv);
        let server = Server::new(platform);
        let flow = "D:\n  t: [zip, n, x]\nD.t:\n  source: 't.csv'\n  format: csv\nT:\n  \
                    shape:\n    type: sql\n    query: \"select zip, n, x from t\"\nF:\n  \
                    +D.t_out: D.t | T.shape\n";
        let put = Request::new(Method::Put, "/dashboards/zips/flow").with_body(flow);
        assert!(server.handle(&put).is_ok());
        assert!(server
            .handle(&Request::new(Method::Post, "/dashboards/zips/run"))
            .is_ok());
        let table = {
            let d = server.platform().dashboard("zips").unwrap();
            d.endpoint_tables.get("t_out").unwrap().clone()
        };
        assert_eq!(
            table.schema().field("zip").unwrap().data_type(),
            DataType::Utf8
        );
        let ix = IndexedTable::new(table.clone());
        for _ in 0..4 {
            let (c, lit, value) = coercing_filters(&mut r);
            let what = format!("case {case}: {c} = {lit}");
            let sqls = [
                format!("select * from t_out where {c} = {lit}"),
                format!("select * from t_out where {c} = {lit} or {c} = {lit}"),
            ];
            let path_ops = parse_ops(&["filter", c, value]).unwrap();
            let want = run_query(&table, &path_ops).unwrap();
            kept += want.num_rows();
            let want = table_to_json(&want);
            let (fast, _) = run_query_indexed(&ix, &path_ops).unwrap();
            assert_eq!(table_to_json(&fast), want, "{what}: path through the index");
            for sql in &sqls {
                let ops = ops_for(sql);
                assert_eq!(
                    table_to_json(&run_query(&table, &ops).unwrap()),
                    want,
                    "{sql}"
                );
                let (fast, _) = run_query_indexed(&ix, &ops).unwrap();
                assert_eq!(table_to_json(&fast), want, "{sql} through the index");
                let post = Request::new(Method::Post, "/zips/ds/t_out/sql").with_body(sql);
                assert_eq!(server.handle(&post).body, want, "{sql} over HTTP");
            }
            let get = Request::get(&format!("/zips/ds/t_out/filter/{c}/{value}"));
            assert_eq!(server.handle(&get).body, want, "{what}: path over HTTP");
        }
    }
    assert!(
        kept > CASES,
        "the coercing filters should keep rows ({kept})"
    );

    // A float literal of 10^15 or more prints without a fraction, so its
    // text reads back as an integer: `9007199254740993.0` is the double
    // 2^53, printed "9007199254740992". As a double it meets 2^53 + 1 and
    // 2^53 alike; canonical SQL used to key it as that integer path filter
    // and keep one row where its twin kept both.
    let platform = Platform::new();
    let csv = "c\n9007199254740993\n9007199254740992\n1\n";
    platform.upload_data("big", "t.csv", csv);
    let server = Server::new(platform);
    let flow = "D:\n  t: [c]\nD.t:\n  source: 't.csv'\n  format: csv\nT:\n  \
                shape:\n    type: sql\n    query: \"select c from t\"\nF:\n  \
                +D.t_out: D.t | T.shape\n";
    let put = Request::new(Method::Put, "/dashboards/big/flow").with_body(flow);
    assert!(server.handle(&put).is_ok());
    assert!(server
        .handle(&Request::new(Method::Post, "/dashboards/big/run"))
        .is_ok());
    let table = {
        let d = server.platform().dashboard("big").unwrap();
        d.endpoint_tables.get("t_out").unwrap().clone()
    };
    assert_eq!(
        table.schema().field("c").unwrap().data_type(),
        DataType::Int64
    );
    let twin = "select * from t_out where c = 9007199254740993.0 or c = 9007199254740993.0";
    let want = run_query(&table, &ops_for(twin)).unwrap();
    assert_eq!(want.num_rows(), 2);
    let want = table_to_json(&want);
    // The integer path filter is another query: it keeps 2^53 alone. A
    // statement keyed as that path would be served its cached page.
    let get = Request::get("/big/ds/t_out/filter/c/9007199254740992");
    assert_ne!(server.handle(&get).body, want);
    for sql in ["select * from t_out where c = 9007199254740993.0", twin] {
        let ops = ops_for(sql);
        assert_eq!(
            table_to_json(&run_query(&table, &ops).unwrap()),
            want,
            "{sql}"
        );
        let post = Request::new(Method::Post, "/big/ds/t_out/sql").with_body(sql);
        assert_eq!(server.handle(&post).body, want, "{sql} over HTTP");
    }
}

// ---------------------------------------------------------------------------
// The path grammar is one inverse pair
// ---------------------------------------------------------------------------

/// One random op of the shapes the front ends build, with the edges of the
/// path grammar in the distribution: literals of every type (floats that
/// print without a fraction, strings that read as numbers, nulls),
/// aggregates under their default name or another, one key or two, and
/// names that are empty or hold `/` or `?`.
fn gen_op(r: &mut SeededRng) -> QueryOp {
    fn name(r: &mut SeededRng) -> String {
        let names = ["cat", "num", "sum_num", "cat", "num", "a/b", "q?", ""];
        r.pick(&names).to_string()
    }
    match r.index(5) {
        0 => {
            let literal = match r.index(6) {
                0 => Value::Int(r.int_range(-50, 49)),
                1 => Value::Float(r.int_range(-400, 400) as f64 / 8.0),
                2 => Value::Float(1e15 * (1 + r.index(9_000)) as f64 + 1.0),
                3 => Value::Str(
                    r.pick(&["k1", "42", "07", "7.5", "true", "x/y", ""])
                        .to_string(),
                ),
                4 => Value::Bool(r.chance(0.5)),
                _ => Value::Null,
            };
            let column = Expr::col(name(r));
            QueryOp::FilterExpr(Expr::cmp(CmpOp::Eq, column, Expr::Literal(literal)))
        }
        1 => {
            let kinds = [
                AggKind::Sum,
                AggKind::Count,
                AggKind::CountAll,
                AggKind::Avg,
                AggKind::Max,
                AggKind::CountDistinct,
            ];
            let agg = *r.pick(&kinds);
            let apply_on = name(r);
            let out_field = if r.chance(0.7) {
                format!("{}_{apply_on}", agg.name())
            } else {
                "total".to_string()
            };
            let keys: Vec<String> = (0..1 + r.index(2)).map(|_| name(r)).collect();
            let aggregates = vec![AggregateSpec::new(agg, apply_on, out_field)];
            let mut group = GroupBy::with_aggregates(&keys, aggregates);
            group.orderby_aggregates = r.chance(0.1);
            QueryOp::GroupBy(group)
        }
        2 => {
            let key = |r: &mut SeededRng| match r.chance(0.5) {
                true => SortKey::asc(name(r)),
                false => SortKey::desc(name(r)),
            };
            QueryOp::Sort((0..1 + r.index(2)).map(|_| key(r)).collect())
        }
        3 => QueryOp::Distinct((0..r.index(3)).map(|_| name(r)).collect()),
        _ => QueryOp::Limit(r.index(1000)),
    }
}

/// `path_segments` and `parse_ops` are one inverse pair: every op that
/// renders to segments parses back to itself, down to each literal's type
/// — compared by `Debug`, because `Value`'s `==` equates `Int(2^53)` with
/// `Float(2^53)`. The ops come from the canonical and rich SQL generators
/// and from [`gen_op`].
#[test]
fn path_segments_parse_back_to_the_same_op() {
    let mut r = SeededRng::new(0x5D1F_0006);
    let mut rendered = 0usize;
    for _ in 0..CASES {
        let mut ops = ops_for(&gen_canonical(&mut r).0);
        ops.extend(ops_for(&gen_rich(&mut r)));
        ops.extend((0..4).map(|_| gen_op(&mut r)));
        for op in ops {
            let Some(segments) = path_segments(&op) else {
                continue;
            };
            let refs: Vec<&str> = segments.iter().map(String::as_str).collect();
            let back = parse_ops(&refs).unwrap_or_else(|e| panic!("{segments:?}: {e}"));
            assert_eq!(format!("{back:?}"), format!("{:?}", [op]), "{segments:?}");
            rendered += 1;
        }
    }
    assert!(rendered > CASES, "only {rendered} ops had a path spelling");
}

/// Statements with their cache path and the plan a traced evaluation
/// reports, as they read before SQL lowered straight to query ops — all
/// but the last: its float literal used to canonicalise to the integer
/// path filter `filter/c/9007199254740992`.
const PINNED: &[(&str, &str, &str)] = &[
    ("select brand, sum(revenue) from sales group by brand", "groupby/brand/sum/revenue", "groupby/brand/sum/revenue"),
    ("select brand, count(units) from sales where region = 'east' group by brand order by count_units desc limit 3", "filter/region/east/groupby/brand/count/units/sort/count_units/desc/limit/3", "selected(where(Cmp(Eq, Column(\"region\"), Literal(Str(\"east\"))));groupby([\"brand\"];count:units:count_units;false))/topn([count_units desc];3)"),
    ("select region, sum(revenue) as total, count(*) as n from sales group by region order by total desc", "sql:groupby([\"region\"];sum:revenue:total,count_all::n;false)/sort/total/desc", "groupby([\"region\"];sum:revenue:total,count_all::n;false)/sort/total/desc"),
    ("select region, brand, sum(revenue) from sales group by region, brand", "sql:groupby([\"region\", \"brand\"];sum:revenue:sum_revenue;false)", "groupby([\"region\", \"brand\"];sum:revenue:sum_revenue;false)"),
    ("select count(*) from sales", "sql:groupby([];count_all::count_all;false)", "groupby([];count_all::count_all;false)"),
    ("select * from sales order by revenue desc limit 5 offset 2", "sql:sort/revenue/desc/offset(2)/limit/5", "topn([revenue desc];7)/offset(2)"),
    ("select * from sales order by region asc, revenue desc limit 10", "sql:sort(region:asc,revenue:desc)/limit/10", "topn([region asc, revenue desc];10)"),
    ("select distinct region from sales", "sql:project([\"region\"])/distinct([])", "project([\"region\"])/distinct([])"),
    ("select distinct region, brand from sales limit 20 offset 3", "sql:project([\"region\", \"brand\"])/distinct([])/offset(3)/limit/20", "project([\"region\", \"brand\"])/distinct([])/offset(3)/limit/20"),
    ("select region, brand from sales where revenue > 50", "sql:where(Cmp(Gt, Column(\"revenue\"), Literal(Int(50))))/project([\"region\", \"brand\"])", "where(Cmp(Gt, Column(\"revenue\"), Literal(Int(50))))/project([\"region\", \"brand\"])"),
    ("select * from sales where units = 3", "filter/units/3", "where(Cmp(Eq, Column(\"units\"), Literal(Int(3))))"),
    ("select * from sales where active = true", "filter/active/true", "where(Cmp(Eq, Column(\"active\"), Literal(Bool(true))))"),
    ("select * from sales where name = '42'", "sql:where(Cmp(Eq, Column(\"name\"), Literal(Str(\"42\"))))", "where(Cmp(Eq, Column(\"name\"), Literal(Str(\"42\"))))"),
    ("select * from sales where price = 7.5", "filter/price/7.5", "where(Cmp(Eq, Column(\"price\"), Literal(Float(7.5))))"),
    ("select * from sales where region = 'east' and units > 2", "sql:where(And(Cmp(Eq, Column(\"region\"), Literal(Str(\"east\"))), Cmp(Gt, Column(\"units\"), Literal(Int(2)))))", "where(And(Cmp(Eq, Column(\"region\"), Literal(Str(\"east\"))), Cmp(Gt, Column(\"units\"), Literal(Int(2)))))"),
    ("select * from sales join stores on store = id", "sql:join(stores;store;id)", "join(stores;store;id)"),
    ("select * from sales join stores on store = id where region = 'east' limit 4", "sql:join(stores;store;id)/where(Cmp(Eq, Column(\"region\"), Literal(Str(\"east\"))))/limit/4", "join(stores;store;id)/where(Cmp(Eq, Column(\"region\"), Literal(Str(\"east\"))))/limit/4"),
    ("select sum(revenue), brand from sales group by brand", "sql:groupby/brand/sum/revenue/project([\"sum_revenue\", \"brand\"])", "groupby/brand/sum/revenue/project([\"sum_revenue\", \"brand\"])"),
    ("select * from sales limit 10", "limit/10", "limit/10"),
    ("select * from sales", "", ""),
    ("select * from sales where c = 9007199254740993.0", "sql:where(Cmp(Eq, Column(\"c\"), Literal(Float(9007199254740992.0))))", "where(Cmp(Eq, Column(\"c\"), Literal(Float(9007199254740992.0))))"),
];

#[test]
fn cache_paths_and_plans_are_pinned() {
    let stores = Table::from_rows(&["id"], &[]).unwrap();
    for (sql, cache_path, plan) in PINNED {
        let stmt = parse_select(sql).unwrap();
        let mut resolve = |_: &str| Ok(stores.clone());
        let lowered = lower_plan(&lower(sql, &stmt).unwrap(), &mut resolve).unwrap();
        assert_eq!(lowered.cache_path, *cache_path, "{sql}");
        assert_eq!(plan_text(&fuse(&lowered.ops)), *plan, "{sql}");
    }
}

// ---------------------------------------------------------------------------
// Fuzz: the parser terminates without panicking on arbitrary input
// ---------------------------------------------------------------------------

/// Arbitrary strings — random unicode, random ASCII soup, and mutated
/// valid statements — always produce `Ok` or a spanned `Err`, never a
/// panic, hang, or stack overflow.
#[test]
fn parser_never_panics_on_arbitrary_input() {
    let mut r = SeededRng::new(0x5D1F_0004);
    let seeds = [
        "select brand, sum(revenue) from sales group by brand order by sum_revenue desc limit 3",
        "select * from t where a = 1 and (b > 2 or c in ('x', 'y')) offset 4",
        "select distinct \"weird name\" from t where x between -1 and 1e3 -- comment",
        "select count(*) from t where s is not null",
    ];
    let alphabet: Vec<char> = ("select from where group by order limit offset and or not in \
                               between is null ( ) , * ' \" . ; = < > ! 0 1 9 e E + - _ \u{1F600} \
                               \u{0} \t \n \\ /")
        .chars()
        .collect();
    for case in 0..CASES * 8 {
        let src = if case % 2 == 0 {
            // Pure noise.
            let len = r.index(120);
            (0..len).map(|_| *r.pick(&alphabet)).collect::<String>()
        } else {
            // A valid statement, mutated: splice, truncate, duplicate.
            let mut s: Vec<char> = r.pick(&seeds).chars().collect();
            for _ in 0..1 + r.index(6) {
                if s.is_empty() {
                    break;
                }
                let i = r.index(s.len());
                match r.index(3) {
                    0 => s[i] = *r.pick(&alphabet),
                    1 => {
                        s.remove(i);
                    }
                    _ => s.insert(i, *r.pick(&alphabet)),
                }
            }
            if r.chance(0.2) {
                let cut = r.index(s.len().max(1));
                s.truncate(cut);
            }
            s.into_iter().collect()
        };
        // Must return, not panic; on success lowering must also return.
        if let Ok(stmt) = parse_select(&src) {
            if let Ok(plan) = lower(&src, &stmt) {
                let _ = lower_plan(&plan, &mut |_| Err("no joins here".into()));
            }
        }
    }
    // Pathological nesting is rejected by depth, not by stack overflow.
    let deep = format!(
        "select * from t where {}x = 1{}",
        "(".repeat(500),
        ")".repeat(500)
    );
    assert!(parse_select(&deep).is_err());
}
