//! Test support shared by the integration suites: seeded table
//! generators, and [`assert_three_way`], which holds the two ad-hoc query
//! paths to the unfused reference; for the serving suites, the retail
//! [`FLOW`], the [`stat`] reader of `/stats` bodies and the one `/metrics`
//! checker, [`validate_exposition`]. The oracle itself, [`reference_query`]
//! and the row kernels under it, is the engine's row-wise reference engine
//! in `shareinsights::engine::baseline`.

// Each integration test compiles its own copy and uses a subset.
#![allow(dead_code)]

use shareinsights::datagen::SeededRng;
use shareinsights::engine::baseline::reference_query;
use shareinsights::server::query::QueryOp;
use shareinsights::tabular::{Column, ColumnBuilder, DataType, Field, Schema, Table, Value};
use shareinsights_tabular::io::json::parse_json;
use std::collections::HashMap;

/// The retail flow every serving suite runs: `sales.csv` grouped by region
/// and brand into the published endpoint `brand_sales`. Each suite uploads
/// its own rows.
pub const FLOW: &str = r#"
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

/// The integer at the dotted `path` of a `/stats` body.
pub fn stat(stats_body: &str, path: &str) -> i64 {
    parse_json(stats_body)
        .unwrap()
        .path(path)
        .unwrap_or_else(|| panic!("no {path} in {stats_body}"))
        .to_value()
        .as_int()
        .unwrap_or_else(|| panic!("{path} not an int in {stats_body}"))
}

/// Assert `text` is a well-formed Prometheus text exposition and return
/// its counter samples as `name{labels} -> value`. Well formed means:
/// - every `# TYPE` names a known kind and is followed by samples, each
///   of them of that family;
/// - every value parses and is non-negative;
/// - every histogram series has cumulative buckets and a `_count`, and its
///   `+Inf` bucket equals that `_count`;
/// - the document holds at least one family and one histogram.
pub fn validate_exposition(text: &str) -> HashMap<String, f64> {
    let mut counters = HashMap::new();
    // (histogram, labels without `le`) -> its bucket values in order, and
    // its `_count`.
    let mut buckets: HashMap<(String, String), Vec<f64>> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    // The open `# TYPE`: name, kind, samples seen under it.
    let mut family: Option<(String, String, usize)> = None;
    let close = |family: &Option<(String, String, usize)>| {
        if let Some((name, _, samples)) = family {
            assert!(*samples > 0, "# TYPE {name} has no samples");
        }
    };
    for line in text.lines().filter(|line| !line.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            close(&family);
            let mut it = rest.split_whitespace();
            let name = it.next().expect("family name").to_string();
            let kind = it.next().expect("family kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown kind in: {line}"
            );
            family = Some((name, kind, 0));
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "only TYPE comments expected: {line}"
        );
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value: {line}"));
        assert!(value >= 0.0, "negative sample: {line}");
        let (name, labels) = match series.split_once('{') {
            Some((name, labels)) => (
                name,
                labels
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unclosed labels: {line}")),
            ),
            None => (series, ""),
        };
        let Some((family_name, kind, samples)) = family.as_mut() else {
            panic!("sample before any TYPE: {line}");
        };
        *samples += 1;
        let suffix = name.strip_prefix(family_name.as_str());
        let own = match kind.as_str() {
            "histogram" => matches!(suffix, Some("_bucket" | "_sum" | "_count")),
            _ => suffix == Some(""),
        };
        assert!(own, "sample {name} under # TYPE {family_name}");
        match (kind.as_str(), suffix) {
            ("histogram", Some("_bucket")) => {
                let (rest, _) = labels
                    .rsplit_once("le=\"")
                    .unwrap_or_else(|| panic!("bucket without le: {line}"));
                let key = (family_name.clone(), rest.trim_end_matches(',').to_string());
                let series = buckets.entry(key).or_default();
                assert!(
                    series.last().is_none_or(|last| *last <= value),
                    "{series:?} then {value}: buckets must be cumulative: {line}"
                );
                series.push(value);
            }
            ("histogram", Some("_count")) => {
                counts.insert((family_name.clone(), labels.to_string()), value);
            }
            ("counter", _) => {
                counters.insert(series.to_string(), value);
            }
            _ => {}
        }
    }
    close(&family);
    assert!(family.is_some(), "no # TYPE families in the exposition");
    assert!(!buckets.is_empty(), "no histograms in the exposition");
    for ((hist, labels), series) in &buckets {
        let count = counts
            .get(&(hist.clone(), labels.clone()))
            .unwrap_or_else(|| panic!("{hist}{{{labels}}} has buckets but no _count"));
        assert_eq!(
            series.last(),
            Some(count),
            "{hist}{{{labels}}}: the +Inf bucket must equal _count"
        );
    }
    counters
}

/// Null probability for a column: mostly light, sometimes total (which
/// leaves a Utf8 column with an *empty dictionary*).
fn null_chance(r: &mut SeededRng) -> f64 {
    match r.weighted_index(&[4.0, 3.0, 1.0]) {
        0 => 0.0,
        1 => 0.25,
        _ => 1.0,
    }
}

fn utf8_col(r: &mut SeededRng, n: usize, pool: usize, nulls: f64) -> Column {
    let mut b = ColumnBuilder::new(DataType::Utf8);
    for _ in 0..n {
        if pool == 0 || r.chance(nulls) {
            b.push_null();
        } else {
            b.push_str(format!("k{}", r.index(pool)));
        }
    }
    b.finish()
}

fn int_col(r: &mut SeededRng, n: usize, nulls: f64) -> Column {
    let mut b = ColumnBuilder::new(DataType::Int64);
    for _ in 0..n {
        if r.chance(nulls) {
            b.push_null();
        } else {
            b.push_coerced(&Value::Int(r.int_range(-50, 49))).unwrap();
        }
    }
    b.finish()
}

/// A table shaped like endpoint data: a categorical, a second categorical
/// and a numeric measure. Row count includes 0 (empty table, empty
/// dictionaries); null chances include 1.0 (all-null columns).
pub fn gen_endpoint_table(r: &mut SeededRng) -> Table {
    let n = if r.chance(0.1) { 0 } else { 1 + r.index(40) };
    let pool = r.index(6); // 0 = every value null regardless of chance
    let schema = Schema::new(vec![
        Field::new("cat", DataType::Utf8),
        Field::new("cat2", DataType::Utf8),
        Field::new("num", DataType::Int64),
    ])
    .unwrap();
    let (nc1, nc2, nc3) = (null_chance(r), null_chance(r), null_chance(r));
    let columns = vec![
        utf8_col(r, n, pool, nc1),
        utf8_col(r, n, 3, nc2),
        int_col(r, n, nc3),
    ];
    Table::new(schema, columns).unwrap()
}

/// Endpoint-shaped data built to stress ordering and grouping: a
/// categorical with few values (heavy ties) and nulls, a second
/// categorical, a zone-indexed integer drawn from seven values, and a
/// float measure with nulls, signed zeros and the odd NaN. Zero-row tables
/// are in the distribution.
pub fn gen_tied_table(r: &mut SeededRng) -> Table {
    let n = if r.chance(0.08) { 0 } else { 1 + r.index(60) };
    let null_p = *r.pick(&[0.0, 0.0, 0.2, 0.5]);
    let mut cat = ColumnBuilder::new(DataType::Utf8);
    let mut cat2 = ColumnBuilder::new(DataType::Utf8);
    let mut num = ColumnBuilder::new(DataType::Int64);
    let mut f = ColumnBuilder::new(DataType::Float64);
    for _ in 0..n {
        if r.chance(null_p) {
            cat.push_null();
        } else {
            cat.push_str(format!("k{}", r.index(3)));
        }
        cat2.push_str(format!("g{}", r.index(2)));
        if r.chance(null_p) {
            num.push_null();
        } else {
            num.push_coerced(&Value::Int(r.int_range(-3, 3))).unwrap();
        }
        if r.chance(null_p) {
            f.push_null();
        } else {
            let v = match r.index(12) {
                0 => -0.0,
                1 => 0.0,
                2 => f64::NAN,
                _ => r.int_range(-40, 40) as f64 * 0.1,
            };
            f.push_coerced(&Value::Float(v)).unwrap();
        }
    }
    Table::new(
        Schema::new(vec![
            Field::new("cat", DataType::Utf8),
            Field::new("cat2", DataType::Utf8),
            Field::new("num", DataType::Int64),
            Field::new("f", DataType::Float64),
        ])
        .unwrap(),
        vec![cat.finish(), cat2.finish(), num.finish(), f.finish()],
    )
    .unwrap()
}

/// Assert the reference, `run_query` and `run_query_indexed` agree on
/// `ops` over `table`: the same JSON bytes, or the same error. Returns
/// whether the indexed path reported an index hit.
pub fn assert_three_way(table: &Table, ops: &[QueryOp], what: &str) -> bool {
    use shareinsights::server::query::{run_query, run_query_indexed};
    use shareinsights::server::table_to_json;
    use shareinsights::tabular::IndexedTable;
    let indexed = IndexedTable::new(table.clone());
    let reference = reference_query(table, ops).map(|t| table_to_json(&t));
    let scan = run_query(table, ops).map(|t| table_to_json(&t));
    assert_eq!(
        scan, reference,
        "{what}: run_query vs the unfused reference"
    );
    let fast = run_query_indexed(&indexed, ops);
    let hit = fast.as_ref().is_ok_and(|(_, hit)| *hit);
    assert_eq!(
        fast.map(|(t, _)| table_to_json(&t)),
        reference,
        "{what}: run_query_indexed vs the unfused reference"
    );
    hit
}
