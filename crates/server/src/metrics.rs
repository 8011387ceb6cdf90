//! Route normalization and the `/stats` payload.
//!
//! Every request is attributed to a *route label* — the match arm shape
//! with path parameters replaced by `:name` placeholders — so per-route
//! counters aggregate across dashboards and datasets instead of exploding
//! per URL. The labels, counters and latency histograms live in
//! [`shareinsights_core::telemetry::ApiMetrics`]; this module renders the
//! registry's [`Family`] values as the `/stats` JSON and the `/metrics`
//! exposition. Both renderers know the family *shapes* (scalars, one
//! bucketed histogram, labelled series with a latency histogram) and no
//! metric: names, kinds and units come from the field tables beside the
//! `*Stats` structs.

use crate::http::Method;
use shareinsights_core::telemetry::{Family, Field, Kind, Series, LATENCY_BOUNDS_US};
use std::fmt::Write as _;

/// Pool-level rejection label (queue full → 503 before routing).
pub const ROUTE_REJECTED: &str = "(rejected)";
/// Pool-level deadline label (connection expired in the queue → 503).
pub const ROUTE_DEADLINE: &str = "(deadline)";
/// Worker-level panic label (the handler panicked → 500, worker kept).
pub const ROUTE_PANIC: &str = "(panic)";
/// Wire-level parse failure label (unreadable HTTP → 400 before routing).
pub const ROUTE_MALFORMED: &str = "(malformed)";
/// Wire-level stall label (socket timed out mid-request → 408 when the head
/// was already parsed, silent close otherwise).
pub const ROUTE_TIMEOUT: &str = "(timeout)";

/// The streaming ingest route's label.
pub const ROUTE_INGEST: &str = "POST /dashboards/:name/ds/:dataset/ingest";

/// The normalized label a request is metered under.
pub fn route_label(method: Method, segments: &[&str]) -> &'static str {
    match (method, segments) {
        (Method::Get, ["stats"]) => "GET /stats",
        (Method::Get, ["metrics"]) => "GET /metrics",
        (Method::Get, ["trace", "recent"]) => "GET /trace/recent",
        (Method::Get, ["trace", _]) => "GET /trace/:id",
        (Method::Get, ["dashboards"]) => "GET /dashboards",
        (Method::Post, ["dashboards", _, "create"]) => "POST /dashboards/:name/create",
        (Method::Put, ["dashboards", _, "flow"]) => "PUT /dashboards/:name/flow",
        (Method::Get, ["dashboards", _, "flow"]) => "GET /dashboards/:name/flow",
        (Method::Post, ["dashboards", _, "run"]) => "POST /dashboards/:name/run",
        (Method::Post, ["dashboards", _, "fork", _]) => "POST /dashboards/:name/fork/:to",
        (Method::Get, ["dashboards", _, "explore"]) => "GET /dashboards/:name/explore",
        (Method::Get, ["dashboards", _, "meta"]) => "GET /dashboards/:name/meta",
        (Method::Get, ["dashboards", _, "suggest", _]) => "GET /dashboards/:name/suggest/:object",
        (Method::Get, ["dashboards", _, "log"]) => "GET /dashboards/:name/log",
        (Method::Post, ["dashboards", _, "stream", "start"]) => {
            "POST /dashboards/:name/stream/start"
        }
        (Method::Post, ["dashboards", _, "stream", "stop"]) => "POST /dashboards/:name/stream/stop",
        (Method::Post, ["dashboards", _, "stream", "push", _]) => {
            "POST /dashboards/:name/stream/push/:source"
        }
        (Method::Post, ["dashboards", _, "ds", _, "ingest"]) => ROUTE_INGEST,
        (Method::Get, [_, "ds"]) => "GET /:dashboard/ds",
        (Method::Get, [_, "ds", _]) => "GET /:dashboard/ds/:dataset",
        (Method::Get, [_, "ds", _, "subscribe"]) => "GET /:dashboard/ds/:dataset/subscribe",
        (Method::Post, [_, "ds", _, "sql"]) => "POST /:dashboard/ds/:dataset/sql",
        (Method::Get, [_, "ds", _, ..]) => "GET /:dashboard/ds/:dataset/query",
        _ => "(unmatched)",
    }
}

/// Methods a path shape accepts, regardless of the method actually used —
/// the basis for 405 vs 404 responses.
pub fn allowed_methods(segments: &[&str]) -> &'static [Method] {
    match segments {
        ["stats"] | ["dashboards"] | ["metrics"] | ["trace", _] => &[Method::Get],
        ["dashboards", _, "create"] | ["dashboards", _, "run"] | ["dashboards", _, "fork", _] => {
            &[Method::Post]
        }
        ["dashboards", _, "stream", "start"]
        | ["dashboards", _, "stream", "stop"]
        | ["dashboards", _, "stream", "push", _]
        | ["dashboards", _, "ds", _, "ingest"] => &[Method::Post],
        ["dashboards", _, "flow"] => &[Method::Get, Method::Put],
        ["dashboards", _, "explore"]
        | ["dashboards", _, "meta"]
        | ["dashboards", _, "log"]
        | ["dashboards", _, "suggest", _] => &[Method::Get],
        // `/ds/<name>/sql` also matches the GET query grammar (where it
        // parses as an invalid op, a 400 — still a GET shape, not a 405).
        [_, "ds", _, "sql"] => &[Method::Get, Method::Post],
        [_, "ds"] | [_, "ds", _, ..] => &[Method::Get],
        _ => &[],
    }
}

/// One `"key": value` member of a `/stats` object.
fn member(key: &str, value: u64) -> String {
    format!("\"{key}\": {value}")
}

/// A series' `/stats` members: its fields, then its latency summary.
fn series_members(series: &Series) -> Vec<String> {
    let fields = series.fields.iter().map(|f| member(f.key, f.value));
    let summary = series.latency.iter().flat_map(|h| h.summary());
    fields
        .chain(summary.map(|(key, value)| member(key, value)))
        .collect()
}

/// Render the `/stats` document: one block per family — its scalar
/// fields, its raw bucket counts, and its labelled series keyed by label.
pub fn stats_json(families: &[Family]) -> String {
    let blocks = families.iter().map(|family| {
        let mut members: Vec<String> = family
            .fields
            .iter()
            .map(|f| member(f.key, f.value))
            .collect();
        if let Some(b) = &family.buckets {
            let counts: Vec<String> = b.counts.iter().map(u64::to_string).collect();
            members.push(format!("\"{}\": [{}]", b.key, counts.join(", ")));
        }
        if let Some(set) = &family.series {
            members.extend(set.series.iter().map(|s| {
                let label = crate::json::quote(&s.label);
                format!("{label}: {{{}}}", series_members(s).join(", "))
            }));
        }
        format!("\"{}\": {{{}}}", family.name, members.join(", "))
    });
    format!("{{{}}}", blocks.collect::<Vec<_>>().join(", "))
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (`/metrics`)
// ---------------------------------------------------------------------------

/// Escape a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render microseconds as seconds, the canonical Prometheus unit.
fn seconds(us: u64) -> String {
    format!("{}", us as f64 / 1e6)
}

/// A field's sample value: µs totals are exposed in seconds.
fn sample_value(f: &Field) -> String {
    match f.kind {
        Kind::Micros => seconds(f.value),
        Kind::Counter | Kind::Gauge => f.value.to_string(),
    }
}

/// A field's `# TYPE` line.
fn write_type(out: &mut String, name: &str, f: &Field) {
    let kind = match f.kind {
        Kind::Counter | Kind::Micros => "counter",
        Kind::Gauge => "gauge",
    };
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Append one cumulative histogram series (`_bucket`/`_sum`/`_count`).
/// `label` is the series' `name="value"` pair, or empty; `bounds` are the
/// rendered `le` values, one fewer than `counts` (the last bucket is
/// `+Inf`).
fn write_histogram(
    out: &mut String,
    name: &str,
    label: &str,
    bounds: impl Iterator<Item = String>,
    counts: &[u64],
    sum: &str,
    count: u64,
) {
    let (before_le, series) = match label {
        "" => (String::new(), String::new()),
        label => (format!("{label},"), format!("{{{label}}}")),
    };
    let mut cumulative = 0u64;
    for (n, bound) in counts.iter().zip(bounds.chain(["+Inf".to_string()])) {
        cumulative += n;
        let _ = writeln!(
            out,
            "{name}_bucket{{{before_le}le=\"{bound}\"}} {cumulative}"
        );
    }
    let _ = writeln!(out, "{name}_sum{series} {sum}");
    let _ = writeln!(out, "{name}_count{series} {count}");
}

/// Render the `/metrics` document: Prometheus text exposition (format
/// 0.0.4) of the same families that feed `/stats`. A labelled family only
/// appears once it has a series, so every `# TYPE` line is directly
/// followed by its samples; bucket counts are cumulative, latency `le`
/// bounds are in seconds.
pub fn prometheus_text(families: &[Family]) -> String {
    let mut out = String::new();
    for family in families {
        for f in family.fields.iter().filter(|f| !f.prom.is_empty()) {
            let name = format!("{}_{}", family.prom, f.prom);
            write_type(&mut out, &name, f);
            let _ = writeln!(out, "{name} {}", sample_value(f));
        }
        if let Some(b) = &family.buckets {
            let _ = writeln!(out, "# TYPE {} histogram", b.prom);
            write_histogram(
                &mut out,
                b.prom,
                "",
                b.bounds.iter().map(u64::to_string),
                &b.counts,
                &b.sum.to_string(),
                b.count,
            );
        }
        let Some(set) = &family.series else { continue };
        let Some(shape) = set.series.first() else {
            continue;
        };
        let label = |series: &Series| format!("{}=\"{}\"", set.label, escape_label(&series.label));
        // Every series of a set has the same fields; fields that share a
        // Prometheus name (told apart by their fixed label) share one TYPE.
        let mut typed: Vec<&str> = Vec::new();
        for shape_field in shape.fields.iter().filter(|f| !f.prom.is_empty()) {
            if typed.contains(&shape_field.prom) {
                continue;
            }
            typed.push(shape_field.prom);
            let name = format!("{}_{}", set.prom, shape_field.prom);
            write_type(&mut out, &name, shape_field);
            for series in &set.series {
                for f in series.fields.iter().filter(|f| f.prom == shape_field.prom) {
                    let sep = if f.label.is_empty() { "" } else { "," };
                    let _ = writeln!(
                        out,
                        "{name}{{{}{sep}{}}} {}",
                        label(series),
                        f.label,
                        sample_value(f)
                    );
                }
            }
        }
        if !set.latency.is_empty() {
            let name = format!("{}_{}", set.prom, set.latency);
            let _ = writeln!(out, "# TYPE {name} histogram");
            for series in &set.series {
                let Some(h) = &series.latency else { continue };
                write_histogram(
                    &mut out,
                    &name,
                    &label(series),
                    LATENCY_BOUNDS_US.iter().map(|us| seconds(*us)),
                    &h.buckets,
                    &seconds(h.total_us),
                    h.count,
                );
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use shareinsights_core::telemetry::{
        ConnectionStats, IndexStats, IngestStats, LatencyHistogram, OperatorStats, ProcessStats,
        ReactorStats, RouteStats, SelfScrapeStats, SqlStats, StreamStats,
    };
    use shareinsights_tabular::io::json::parse_json;
    use std::collections::BTreeMap;

    /// Every leaf of a JSON document as `(path, rendered value)`, for the
    /// tests that compare `/stats` bodies.
    pub(crate) fn json_leaves(
        node: &shareinsights_tabular::io::json::JsonValue,
        path: &[String],
        out: &mut Vec<(Vec<String>, String)>,
    ) {
        use shareinsights_tabular::io::json::JsonValue;
        let join = |key: String| [path, &[key]].concat();
        match node {
            JsonValue::Object(members) => members
                .iter()
                .for_each(|(key, child)| json_leaves(child, &join(key.clone()), out)),
            JsonValue::Array(items) => items
                .iter()
                .enumerate()
                .for_each(|(i, child)| json_leaves(child, &join(i.to_string()), out)),
            leaf => out.push((path.to_vec(), leaf.to_value().to_string())),
        }
    }

    #[test]
    fn labels_normalize_parameters() {
        assert_eq!(
            route_label(
                Method::Get,
                &["retail", "ds", "sales", "groupby", "a", "sum", "b"]
            ),
            "GET /:dashboard/ds/:dataset/query"
        );
        assert_eq!(
            route_label(Method::Get, &["retail", "ds", "sales"]),
            "GET /:dashboard/ds/:dataset"
        );
        assert_eq!(
            route_label(Method::Get, &["retail", "ds"]),
            "GET /:dashboard/ds"
        );
        assert_eq!(route_label(Method::Get, &["stats"]), "GET /stats");
        assert_eq!(
            route_label(Method::Post, &["dashboards", "x", "run"]),
            "POST /dashboards/:name/run"
        );
        assert_eq!(route_label(Method::Delete, &["dashboards"]), "(unmatched)");
    }

    #[test]
    fn allowed_methods_distinguish_404_from_405() {
        assert_eq!(allowed_methods(&["dashboards"]), &[Method::Get]);
        assert_eq!(
            allowed_methods(&["dashboards", "x", "flow"]),
            &[Method::Get, Method::Put]
        );
        assert!(allowed_methods(&["no", "such", "shape", "here"]).is_empty());
    }

    fn with_latency<const N: usize>(samples: [u64; N]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        samples.into_iter().for_each(|us| h.record(us));
        h
    }

    /// The fixture `tests/golden/stats.json` was rendered from at the
    /// parent commit (`6c16169`), as one snapshot; `index.resident_bytes`
    /// and `reactor.{answered_inline, queued}` joined it since, and the deleted
    /// `shard` family left it.
    fn stats_fixture() -> Vec<Family> {
        let route = RouteStats {
            count: 2,
            latency: with_latency([100, 300]),
            ..RouteStats::default()
        };
        let mut conns = ConnectionStats {
            accepted: 3,
            closed: 2,
            reused: 1,
            requests: 9,
            idle_timeouts: 1,
            ..ConnectionStats::default()
        };
        conns.requests_per_connection[2] = 2;
        let op = OperatorStats {
            runs: 3,
            rows_in: 1000,
            rows_out: 30,
            latency: with_latency([200]),
        };
        vec![
            RouteStats::family(&BTreeMap::from([("GET /stats".to_string(), route)])),
            crate::cache::family("cache", "shareinsights_query_cache", CacheStats::default()),
            conns.family(),
            OperatorStats::family(&BTreeMap::from([("groupby".to_string(), op)])),
            IndexStats {
                builds: 2,
                build_us: 1500,
                covered: 4,
                fallback: 1,
                resident_bytes: 65_536,
            }
            .family(),
            ReactorStats {
                registered: 5,
                peak_registered: 9,
                wakeups: 40,
                ready_events: 120,
                epollout_rearms: 3,
                dispatched: 100,
                queued: 30,
                answered_inline: 60,
            }
            .family(),
            StreamStats {
                ticks: 4,
                rows_in: 200,
                evicted_rows: 10,
                frames_sent: 12,
                frame_bytes: 4096,
                subscribers: 2,
                peak_subscribers: 3,
                dropped_subscribers: 1,
            }
            .family(),
            SqlStats {
                queries: 8,
                parse_errors: 2,
                path_shared: 5,
                parse_us: 640,
                prepared_hits: 3,
                prepared_evictions: 2,
            }
            .family(),
            IngestStats {
                requests: 2,
                rows: 4000,
                bytes: 65536,
                segments: 16,
                decode_us: 7000,
                index_merges: 2,
                index_merge_us: 1200,
                cold_rebuilds: 1,
                aborted: 1,
                grown_in_place: 1,
                copied: 1,
                postings_grown: 220,
                postings_rebuilt: 3,
            }
            .family(),
            SelfScrapeStats {
                scrapes: 3,
                samples: 120,
                evicted: 7,
                retained: 113,
                elapsed_us: 900,
            }
            .family(),
            ProcessStats {
                rss_bytes: 8_388_608,
                open_fds: 12,
                threads: 6,
                uptime_seconds: 42,
            }
            .family(),
        ]
    }

    #[test]
    fn stats_json_keeps_every_leaf_of_the_parent_golden() {
        let golden = parse_json(include_str!("../tests/golden/stats.json")).unwrap();
        let doc = parse_json(&stats_json(&stats_fixture())).unwrap();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        json_leaves(&golden, &[], &mut want);
        json_leaves(&doc, &[], &mut got);
        assert!(want.len() > 75, "golden has {} leaves", want.len());
        for leaf in &want {
            assert!(got.contains(leaf), "{:?} = {} went missing", leaf.0, leaf.1);
        }
        // Nothing but the declared addition rides along.
        assert_eq!(want.len(), got.len());
    }

    #[test]
    fn stats_json_gains_only_the_result_cache_block() {
        let mut families = stats_fixture();
        let stats = CacheStats {
            hits: 5,
            entries: 2,
            ..CacheStats::default()
        };
        families.push(crate::cache::family(
            "result_cache",
            "shareinsights_result_cache",
            stats,
        ));
        let doc = parse_json(&stats_json(&families)).unwrap();
        let int = |path: &str| doc.path(path).unwrap().to_value().as_int();
        assert_eq!(int("result_cache.hits"), Some(5));
        assert_eq!(int("result_cache.entries"), Some(2));
        assert_eq!(int("routes.GET /stats.p95_us"), Some(300));
        let text = prometheus_text(&families);
        assert!(text.contains(
            "# TYPE shareinsights_result_cache_hits_total counter\n\
             shareinsights_result_cache_hits_total 5\n"
        ));
        assert!(text.contains("shareinsights_result_cache_entries 2\n"));
    }

    /// One `name{labels} value` sample line.
    type Sample = (String, String, f64);

    /// Parse exposition text into (TYPE declarations, samples).
    fn parse_exposition(text: &str) -> (Vec<(String, String)>, Vec<Sample>) {
        let mut types = Vec::new();
        let mut samples = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                types.push((
                    it.next().unwrap().to_string(),
                    it.next().unwrap().to_string(),
                ));
                continue;
            }
            assert!(
                !line.starts_with('#'),
                "only TYPE comments expected: {line}"
            );
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let (name, labels) = match series.split_once('{') {
                Some((n, l)) => (n.to_string(), l.trim_end_matches('}').to_string()),
                None => (series.to_string(), String::new()),
            };
            samples.push((name, labels, value.parse::<f64>().expect("numeric value")));
        }
        (types, samples)
    }

    /// The fixture `tests/golden/metrics.txt` was rendered from at the
    /// parent commit (`6c16169`), as one snapshot; `index.resident_bytes`
    /// and `reactor.{answered_inline, queued}` joined it since, and the deleted
    /// `shard` family left it.
    fn metrics_fixture() -> Vec<Family> {
        let route = RouteStats {
            count: 3,
            errors: 1,
            cache_hits: 1,
            cache_misses: 2,
            // The 9 s sample lands in the open-ended bucket.
            latency: with_latency([80, 300, 9_000_000]),
        };
        let mut conns = ConnectionStats {
            accepted: 2,
            closed: 2,
            reused: 1,
            requests: 7,
            ..ConnectionStats::default()
        };
        conns.requests_per_connection[0] = 1;
        conns.requests_per_connection[3] = 1;
        let op = OperatorStats {
            runs: 2,
            rows_in: 2000,
            rows_out: 50,
            latency: with_latency([400, 600]),
        };
        let cache = CacheStats {
            entries: 4,
            bytes: 1024,
            hits: 5,
            misses: 6,
            evictions: 1,
            invalidations: 2,
        };
        let route_label = "GET /:dashboard/ds/:dataset/query".to_string();
        vec![
            RouteStats::family(&BTreeMap::from([(route_label, route)])),
            crate::cache::family("cache", "shareinsights_query_cache", cache),
            conns.family(),
            OperatorStats::family(&BTreeMap::from([("groupby".to_string(), op)])),
            IndexStats {
                builds: 3,
                build_us: 2_000_000,
                covered: 8,
                fallback: 2,
                resident_bytes: 1_048_576,
            }
            .family(),
            ReactorStats {
                registered: 4,
                peak_registered: 6,
                wakeups: 10,
                ready_events: 25,
                epollout_rearms: 2,
                dispatched: 20,
                queued: 5,
                answered_inline: 12,
            }
            .family(),
            StreamStats {
                ticks: 6,
                rows_in: 600,
                evicted_rows: 50,
                frames_sent: 18,
                frame_bytes: 9216,
                subscribers: 5,
                peak_subscribers: 7,
                dropped_subscribers: 2,
            }
            .family(),
            SqlStats {
                queries: 9,
                parse_errors: 4,
                path_shared: 6,
                parse_us: 3_000_000,
                prepared_hits: 5,
                prepared_evictions: 7,
            }
            .family(),
            IngestStats {
                requests: 3,
                rows: 12_000,
                bytes: 262_144,
                segments: 24,
                decode_us: 5_000_000,
                index_merges: 2,
                index_merge_us: 2_000_000,
                cold_rebuilds: 3,
                aborted: 1,
                grown_in_place: 2,
                copied: 1,
                postings_grown: 330,
                postings_rebuilt: 4,
            }
            .family(),
            SelfScrapeStats {
                scrapes: 5,
                samples: 250,
                evicted: 30,
                retained: 220,
                elapsed_us: 4_000_000,
            }
            .family(),
            ProcessStats {
                rss_bytes: 16_777_216,
                open_fds: 24,
                threads: 9,
                uptime_seconds: 77,
            }
            .family(),
        ]
    }

    fn sample_metrics() -> String {
        prometheus_text(&metrics_fixture())
    }

    #[test]
    fn prometheus_keeps_every_line_of_the_parent_golden() {
        let golden = include_str!("../tests/golden/metrics.txt");
        let text = sample_metrics();
        let lines: Vec<&str> = text.lines().collect();
        assert!(golden.lines().count() > 150);
        for line in golden.lines() {
            assert!(lines.contains(&line), "line went missing: {line}");
        }
        assert_eq!(golden.lines().count(), lines.len(), "nothing rides along");
        // Each TYPE is still directly followed by a sample of its family.
        for pair in lines.windows(2) {
            if let Some(rest) = pair[0].strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert!(pair[1].starts_with(name), "{} then {}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn prometheus_every_type_has_samples_and_buckets_are_cumulative() {
        let text = sample_metrics();
        let (types, samples) = parse_exposition(&text);
        assert!(!types.is_empty());
        for (name, kind) in &types {
            let matching: Vec<_> = samples
                .iter()
                .filter(|(n, _, _)| n == name || (kind == "histogram" && n.starts_with(name)))
                .collect();
            assert!(!matching.is_empty(), "TYPE {name} has no samples");
        }
        // Histogram buckets: grouped per series, cumulative and monotone,
        // +Inf equals _count.
        for (hist, series_labels) in [
            (
                "shareinsights_request_duration_seconds",
                "route=\"GET /:dashboard/ds/:dataset/query\"",
            ),
            (
                "shareinsights_operator_duration_seconds",
                "operator=\"groupby\"",
            ),
            ("shareinsights_requests_per_connection", ""),
        ] {
            let bucket_name = format!("{hist}_bucket");
            let buckets: Vec<f64> = samples
                .iter()
                .filter(|(n, l, _)| *n == bucket_name && l.starts_with(series_labels))
                .map(|(_, _, v)| *v)
                .collect();
            assert!(!buckets.is_empty(), "{hist} has buckets");
            for w in buckets.windows(2) {
                assert!(
                    w[0] <= w[1],
                    "{hist} buckets must be cumulative: {buckets:?}"
                );
            }
            let count = samples
                .iter()
                .find(|(n, l, _)| *n == format!("{hist}_count") && l == series_labels)
                .map(|(_, _, v)| *v)
                .expect("count sample");
            assert_eq!(*buckets.last().unwrap(), count, "+Inf bucket == count");
        }
    }

    #[test]
    fn prometheus_values_and_units() {
        let text = sample_metrics();
        assert!(text.contains(
            "shareinsights_requests_total{route=\"GET /:dashboard/ds/:dataset/query\"} 3"
        ));
        assert!(text.contains(
            "shareinsights_request_errors_total{route=\"GET /:dashboard/ds/:dataset/query\"} 1"
        ));
        // 80 µs ≤ the 0.0001 s (100 µs) bound; both early samples ≤ 0.0005.
        assert!(
            text.contains("le=\"0.0001\"} 1"),
            "µs bounds render in seconds:\n{text}"
        );
        // The 9 s outlier only appears in +Inf.
        assert!(text.contains(
            "shareinsights_request_duration_seconds_bucket{route=\"GET /:dashboard/ds/:dataset/query\",le=\"+Inf\"} 3"
        ));
        assert!(text.contains("shareinsights_query_cache_hits_total 5"));
        assert!(text.contains("shareinsights_query_cache_entries 4"));
        assert!(text.contains("shareinsights_connections_accepted_total 2"));
        assert!(text.contains(
            "shareinsights_operator_rows_total{operator=\"groupby\",direction=\"in\"} 2000"
        ));
        assert!(text.contains(
            "shareinsights_operator_rows_total{operator=\"groupby\",direction=\"out\"} 50"
        ));
        // requests_per_connection sum/count come from connection totals.
        assert!(text.contains("shareinsights_requests_per_connection_sum 7"));
        assert!(text.contains("shareinsights_requests_per_connection_count 2"));
        // Index-acceleration counters, build time in seconds.
        assert!(text.contains("shareinsights_index_builds_total 3"));
        assert!(text.contains("shareinsights_index_covered_evals_total 8"));
        assert!(text.contains("shareinsights_index_fallback_evals_total 2"));
        assert!(text.contains("shareinsights_index_build_seconds_total 2"));
        // Reactor event-loop series.
        assert!(text.contains("shareinsights_reactor_registered_connections 4"));
        assert!(text.contains("shareinsights_reactor_peak_registered_connections 6"));
        assert!(text.contains("shareinsights_reactor_wakeups_total 10"));
        assert!(text.contains("shareinsights_reactor_ready_events_total 25"));
        assert!(text.contains("shareinsights_reactor_epollout_rearms_total 2"));
        assert!(text.contains("shareinsights_reactor_dispatched_total 20"));
        assert!(text.contains("shareinsights_reactor_queued_total 5"));
        assert!(text.contains("shareinsights_reactor_answered_inline_total 12"));
        // Live-stream series.
        assert!(text.contains("shareinsights_stream_subscribers 5"));
        assert!(text.contains("shareinsights_stream_peak_subscribers 7"));
        assert!(text.contains("shareinsights_stream_ticks_total 6"));
        assert!(text.contains("shareinsights_stream_rows_in_total 600"));
        assert!(text.contains("shareinsights_stream_evicted_rows_total 50"));
        assert!(text.contains("shareinsights_stream_frames_sent_total 18"));
        assert!(text.contains("shareinsights_stream_frame_bytes_total 9216"));
        assert!(text.contains("shareinsights_stream_dropped_subscribers_total 2"));
        // SQL frontend series, parse time in seconds.
        assert!(text.contains("shareinsights_sql_queries_total 9"));
        assert!(text.contains("shareinsights_sql_parse_errors_total 4"));
        assert!(text.contains("shareinsights_sql_path_shared_total 6"));
        assert!(text.contains("shareinsights_sql_prepared_hits_total 5"));
        assert!(text.contains("shareinsights_sql_prepared_evictions_total 7"));
        assert!(text.contains("shareinsights_sql_parse_seconds_total 3"));
        // Streaming-ingest series, decode/merge time in seconds.
        assert!(text.contains("shareinsights_ingest_requests_total 3"));
        assert!(text.contains("shareinsights_ingest_rows_total 12000"));
        assert!(text.contains("shareinsights_ingest_bytes_total 262144"));
        assert!(text.contains("shareinsights_ingest_segments_total 24"));
        assert!(text.contains("shareinsights_ingest_index_merges_total 2"));
        assert!(text.contains("shareinsights_ingest_aborted_total 1"));
        assert!(text.contains("shareinsights_ingest_decode_seconds_total 5"));
        assert!(text.contains("shareinsights_ingest_index_merge_seconds_total 2"));
        assert!(text.contains("shareinsights_ingest_cold_rebuilds_total 3"));
        assert!(text.contains("shareinsights_ingest_grown_in_place_total 2"));
        assert!(text.contains("shareinsights_ingest_copied_total 1"));
        assert!(text.contains("shareinsights_ingest_postings_grown_total 330"));
        assert!(text.contains("shareinsights_ingest_postings_rebuilt_total 4"));
        // Self-scrape series, scrape time in seconds; retained is a gauge.
        assert!(text.contains("shareinsights_selfscrape_scrapes_total 5"));
        assert!(text.contains("shareinsights_selfscrape_samples_total 250"));
        assert!(text.contains("shareinsights_selfscrape_evicted_samples_total 30"));
        assert!(text.contains("shareinsights_selfscrape_retained_samples 220"));
        assert!(text.contains("shareinsights_selfscrape_seconds_total 4"));
        // Process gauges.
        assert!(text.contains("shareinsights_process_rss_bytes 16777216"));
        assert!(text.contains("shareinsights_process_open_fds 24"));
        assert!(text.contains("shareinsights_process_threads 9"));
        assert!(text.contains("shareinsights_process_uptime_seconds 77"));
        // Label escaping.
        let routes = BTreeMap::from([("a\"b\\c".to_string(), RouteStats::default())]);
        let escaped = prometheus_text(&[RouteStats::family(&routes)]);
        assert!(escaped.contains("route=\"a\\\"b\\\\c\""), "{escaped}");
    }

    #[test]
    fn new_observability_routes_have_labels() {
        assert_eq!(route_label(Method::Get, &["metrics"]), "GET /metrics");
        assert_eq!(
            route_label(Method::Get, &["trace", "recent"]),
            "GET /trace/recent"
        );
        assert_eq!(
            route_label(Method::Get, &["trace", "00ff"]),
            "GET /trace/:id"
        );
        assert_eq!(allowed_methods(&["metrics"]), &[Method::Get]);
        assert_eq!(allowed_methods(&["trace", "recent"]), &[Method::Get]);
    }

    #[test]
    fn stream_routes_have_labels_and_methods() {
        assert_eq!(
            route_label(Method::Post, &["dashboards", "x", "stream", "start"]),
            "POST /dashboards/:name/stream/start"
        );
        assert_eq!(
            route_label(Method::Post, &["dashboards", "x", "stream", "push", "src"]),
            "POST /dashboards/:name/stream/push/:source"
        );
        // Subscribe matches before the generic query shape.
        assert_eq!(
            route_label(Method::Get, &["retail", "ds", "sales", "subscribe"]),
            "GET /:dashboard/ds/:dataset/subscribe"
        );
        assert_eq!(
            route_label(Method::Get, &["retail", "ds", "sales", "limit", "3"]),
            "GET /:dashboard/ds/:dataset/query"
        );
        assert_eq!(
            allowed_methods(&["dashboards", "x", "stream", "start"]),
            &[Method::Post]
        );
        assert_eq!(
            allowed_methods(&["dashboards", "x", "stream", "push", "src"]),
            &[Method::Post]
        );
    }

    #[test]
    fn ingest_route_has_label_and_methods() {
        assert_eq!(
            route_label(
                Method::Post,
                &["dashboards", "retail", "ds", "sales", "ingest"]
            ),
            "POST /dashboards/:name/ds/:dataset/ingest"
        );
        assert_eq!(
            allowed_methods(&["dashboards", "retail", "ds", "sales", "ingest"]),
            &[Method::Post]
        );
        // A GET on the ingest path is a 405, not a query-grammar parse.
        assert_eq!(
            route_label(
                Method::Get,
                &["dashboards", "retail", "ds", "sales", "ingest"]
            ),
            "(unmatched)"
        );
    }

    #[test]
    fn sql_route_has_label_and_methods() {
        assert_eq!(
            route_label(Method::Post, &["retail", "ds", "sales", "sql"]),
            "POST /:dashboard/ds/:dataset/sql"
        );
        // A GET on the same path falls through to the query grammar.
        assert_eq!(
            route_label(Method::Get, &["retail", "ds", "sales", "sql"]),
            "GET /:dashboard/ds/:dataset/query"
        );
        assert_eq!(
            allowed_methods(&["retail", "ds", "sales", "sql"]),
            &[Method::Get, Method::Post]
        );
        // POSTs elsewhere under /ds stay 405s.
        assert!(!allowed_methods(&["retail", "ds", "sales", "limit", "3"]).contains(&Method::Post));
    }
}
