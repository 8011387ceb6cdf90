//! The metric contract: every name and unit the benchmark prints. The
//! lists here and in `BENCHMARK.json` must agree (a unit test checks it).

/// End-to-end metrics, printed by the timed pass of every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("p50_us", "us"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed by the traced pass of every workload. A
/// layer the workload never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serving
    ("server.wire.parse_us", "us"),
    ("server.router.handle_hit_us", "us"),
    ("server.wire.frame_us", "us"),
    ("server.wire.frame_bytes", "bytes"),
    ("server.reactor.rtt_us", "us"),
    ("server.reactor.transport_us", "us"),
    ("server.serve.threads_rtt_us", "us"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.result_hit_ratio", "ratio"),
    ("server.cache.evictions", "count"),
    // ad-hoc query
    ("server.query.parse_ops_us", "us"),
    ("engine.sql.parse_lower_us", "us"),
    ("server.query.indexed_filter_us", "us"),
    ("server.query.indexed_groupby_us", "us"),
    ("server.query.indexed_sort_limit_us", "us"),
    ("server.query.indexed_sql_us", "us"),
    ("server.query.index_hit_ratio", "ratio"),
    ("server.query.scan_filter_us", "us"),
    ("server.query.scan_groupby_us", "us"),
    ("server.query.scan_sort_limit_us", "us"),
    ("server.query.scan_sql_us", "us"),
    ("server.json.serialise_us", "us"),
    ("server.json.body_bytes", "bytes"),
    ("server.router.handle_cold_us", "us"),
    ("server.router.residual_us", "us"),
    ("tabular.index.build_us", "us"),
    ("server.shard.groupby_us", "us"),
    ("server.shard.sort_limit_us", "us"),
    ("server.shard.fallback_ratio", "ratio"),
    // ingest
    ("server.ingest.decode_us", "us"),
    ("server.ingest.decode_rows_per_s", "1/s"),
    ("tabular.table.concat_us", "us"),
    ("core.platform.append_us", "us"),
    ("tabular.index.append_merged_us", "us"),
    ("server.router.handle_ingest_us", "us"),
    ("server.ingest.upload_mb_per_s", "MB/s"),
    ("server.ingest.rss_ratio", "ratio"),
    ("server.ingest.cold_rebuilds", "count"),
    // pipeline
    ("flowfile.parse_us", "us"),
    ("flowfile.validate_us", "us"),
    ("engine.compile_us", "us"),
    ("connectors.csv_decode_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.exec_seq_us", "us"),
    ("engine.op.filter_us", "us"),
    ("engine.op.map_us", "us"),
    ("engine.op.join_us", "us"),
    ("engine.op.groupby_us", "us"),
    ("engine.op.topn_us", "us"),
    ("engine.op.rows_in", "count"),
    ("engine.op.rows_out", "count"),
    ("core.platform.run_us", "us"),
    ("core.platform.run_residual_us", "us"),
    ("widgets.cube.eval_miss_us", "us"),
    ("widgets.cube.eval_hit_us", "us"),
    // the program's own span trees, harvested from /trace/<id>
    ("server.span.dispatch_self_us", "us"),
    ("server.span.cache_lookup_self_us", "us"),
    ("server.span.query_eval_self_us", "us"),
    ("server.span.sql_parse_self_us", "us"),
    ("server.span.sql_lower_self_us", "us"),
    ("server.span.sql_prepared_hit_self_us", "us"),
    ("server.span.shard_scatter_self_us", "us"),
    ("server.span.ingest_commit_self_us", "us"),
    ("server.span.compile_self_us", "us"),
    ("server.span.execute_self_us", "us"),
    ("server.span.harvested", "count"),
    // load generator
    ("client.filter_p50_us", "us"),
    ("client.groupby_p50_us", "us"),
    ("client.sort_limit_p50_us", "us"),
    ("client.sql_p50_us", "us"),
    ("client.read_p50_us", "us"),
    ("client.ops_per_s", "1/s"),
    ("client.p95_us", "us"),
    ("client.tail_us", "us"),
    ("client.tail_pct", "%"),
    ("client.samples", "count"),
    ("client.reconnects", "count"),
    // the budget itself
    ("bench.layer_cover_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.machine_factor", "ratio"),
    ("bench.steal_ratio", "ratio"),
];

/// The span names of the program's tracer that the traced pass reports.
pub const PROGRAM_SPANS: &[&str] = &[
    "dispatch",
    "cache_lookup",
    "query_eval",
    "sql_parse",
    "sql_lower",
    "sql_prepared_hit",
    "shard_scatter",
    "ingest_commit",
    "compile",
    "execute",
];

/// The static name of a per-layer metric.
pub fn per_layer_name(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|(n, _)| *n).find(|n| *n == name)
}

pub const WORKLOADS: &[&str] = &["serve_warm", "query_cold", "ingest_mixed", "pipeline_run"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{parse_json, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let text = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for span in PROGRAM_SPANS {
            let name = format!("server.span.{span}_self_us");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
