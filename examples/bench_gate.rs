//! Gate CI on benchmark regressions against the committed baselines.
//!
//! Each `<baseline> <fresh>` pair names a committed `BENCH_*.json` and a
//! freshly generated document of the same shape. The gate walks both
//! recursively, pairs up every `*p95_us` leaf, prints a side-by-side
//! table, and exits non-zero when any fresh p95 regresses past the
//! threshold. Two escape valves keep the gate honest rather than flaky:
//!
//! * a zero baseline is skipped — some configurations legitimately record
//!   no latency (thread mode starved under an idle herd serves zero
//!   requests), and a ratio against zero is noise;
//! * an absolute slack floor (default 500µs) must also be cleared — a
//!   30µs warm-cache sample doubling to 60µs is scheduler jitter, not a
//!   regression.
//!
//! When the baseline carries a `sql_overhead` block (the ad-hoc query
//! benchmark), the fresh doc must carry one too and its SQL parse+lower
//! p50 must stay under 10% of its own indexed-evaluation p50 — a ratio
//! within the fresh run, so machine speed cancels out.
//!
//! Likewise for `selfscrape_overhead`: when the baseline carries the
//! block, the fresh doc's warm served throughput with the telemetry
//! scraper ticking must stay within 2% of its own no-scraper baseline —
//! again a ratio within the fresh run. Self-observability must be cheap
//! enough to leave on.
//!
//! The shard benchmark's `shard_scaling` ratios are reported by the run
//! itself and not gated here: every width runs the same fused top-n, so
//! the ratio measures cores, not code. Its p95 leaves are gated like any
//! other document's.
//!
//! For the ingest benchmark: when the baseline carries a
//! `streamed_upload` block, the fresh upload's peak RSS delta must stay
//! under 12× the body bytes — the tripwire for a regression back to
//! buffering whole request bodies. Its `append_vs_rebuild` ratio is
//! reported by the run and not gated: at the committed size both sides
//! spend most of their time being handed posting bitmaps by the
//! allocator, so the ratio follows allocator state (3.0–3.9× across runs
//! of one binary on the 2-core reference box). The merge and the rebuild
//! are each gated by their own p95, like every other leaf.
//!
//! ```text
//! cargo run --release --example bench_gate -- \
//!     BENCH_adhoc_query.json fresh_adhoc.json \
//!     BENCH_serve_concurrency.json fresh_serve.json \
//!     BENCH_stream_latency.json fresh_stream.json \
//!     BENCH_ingest.json fresh_ingest.json \
//!     BENCH_shard_scaling.json fresh_shard.json \
//!     [--threshold 0.25] [--slack-us 500]
//! ```

use shareinsights::tabular::io::json::{parse_json, JsonValue};

/// One paired p95 leaf.
struct Row {
    metric: String,
    baseline: u64,
    fresh: Option<u64>,
}

/// Remove `name <value>` from `args`, returning the value.
fn take_value_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        panic!("{name} needs a value");
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// A readable label for an array element: benchmark config objects carry
/// their own identity (`serve_mode`/`idle_conns`), so prefer that to a
/// bare index.
fn element_label(index: usize, item: &JsonValue) -> String {
    match (
        item.get("serve_mode").and_then(|v| v.as_str()),
        item.get("idle_conns"),
    ) {
        (Some(mode), Some(JsonValue::Number(idle))) => format!("{mode}+{idle}idle"),
        _ => index.to_string(),
    }
}

/// Collect every `*p95_us` leaf under `value` into `rows`, pairing it
/// with the same path in `fresh`.
fn collect(prefix: &str, value: &JsonValue, fresh: Option<&JsonValue>, rows: &mut Vec<Row>) {
    match value {
        JsonValue::Object(map) => {
            for (key, child) in map {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                let fresh_child = fresh.and_then(|f| f.get(key));
                if key.ends_with("p95_us") {
                    if let JsonValue::Number(n) = child {
                        rows.push(Row {
                            metric: path,
                            baseline: *n as u64,
                            fresh: match fresh_child {
                                Some(JsonValue::Number(m)) => Some(*m as u64),
                                _ => None,
                            },
                        });
                        continue;
                    }
                }
                collect(&path, child, fresh_child, rows);
            }
        }
        JsonValue::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = element_label(i, item);
                let path = format!("{prefix}.{label}");
                let fresh_item = fresh.and_then(|f| f.items().get(i));
                collect(&path, item, fresh_item, rows);
            }
        }
        _ => {}
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threshold: f64 = take_value_flag(&mut args, "--threshold")
        .map(|v| v.parse().expect("--threshold takes a ratio"))
        .unwrap_or(0.25);
    let slack_us: u64 = take_value_flag(&mut args, "--slack-us")
        .map(|v| v.parse().expect("--slack-us takes microseconds"))
        .unwrap_or(500);
    assert!(
        !args.is_empty() && args.len().is_multiple_of(2),
        "usage: bench_gate <baseline.json> <fresh.json> [<baseline.json> <fresh.json> ...]"
    );

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for pair in args.chunks(2) {
        let (baseline_path, fresh_path) = (&pair[0], &pair[1]);
        let read = |path: &str| -> JsonValue {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            parse_json(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
        };
        let baseline = read(baseline_path);
        let fresh = read(fresh_path);

        let mut rows = Vec::new();
        collect("", &baseline, Some(&fresh), &mut rows);
        assert!(
            !rows.is_empty(),
            "{baseline_path}: no *p95_us leaves — wrong file?"
        );

        println!("== {baseline_path} vs {fresh_path}");
        println!(
            "   {:<44} {:>12} {:>12} {:>9}  verdict",
            "metric", "baseline µs", "fresh µs", "delta"
        );
        for row in &rows {
            let fresh_us = match row.fresh {
                Some(v) => v,
                None => {
                    // A missing leaf means the fresh doc changed shape —
                    // that is a gate failure, not a silent skip.
                    println!(
                        "   {:<44} {:>12} {:>12} {:>9}  MISSING",
                        row.metric, row.baseline, "-", "-"
                    );
                    regressions += 1;
                    continue;
                }
            };
            if row.baseline == 0 {
                println!(
                    "   {:<44} {:>12} {:>12} {:>9}  skip (zero baseline)",
                    row.metric, row.baseline, fresh_us, "-"
                );
                continue;
            }
            compared += 1;
            let delta = fresh_us as f64 / row.baseline as f64 - 1.0;
            let regressed = delta > threshold && fresh_us.saturating_sub(row.baseline) > slack_us;
            let verdict = if regressed { "REGRESSED" } else { "ok" };
            println!(
                "   {:<44} {:>12} {:>12} {:>+8.1}%  {verdict}",
                row.metric,
                row.baseline,
                fresh_us,
                delta * 100.0
            );
            if regressed {
                regressions += 1;
            }
        }

        // The SQL frontend must stay a rounding error next to evaluation:
        // whenever the baseline carries a `sql_overhead` block, the fresh
        // doc must too, and its parse+lower p50 must stay under 10% of
        // its own indexed-evaluation p50. This is a ratio within the
        // fresh run — machine speed cancels out, so no slack is needed.
        if baseline.get("sql_overhead").is_some() {
            let fresh_num = |key: &str| -> f64 {
                match fresh.get("sql_overhead").and_then(|o| o.get(key)) {
                    Some(JsonValue::Number(n)) => *n,
                    _ => panic!(
                        "{fresh_path}: sql_overhead.{key} missing \
                         (the baseline carries a sql_overhead block)"
                    ),
                }
            };
            compared += 1;
            let parse_p50 = fresh_num("parse_lower_p50_us");
            let eval_p50 = fresh_num("indexed_eval_p50_us").max(1.0);
            let ratio = parse_p50 / eval_p50;
            let regressed = ratio >= 0.10;
            let verdict = if regressed {
                "REGRESSED (>= 10%)"
            } else {
                "ok (< 10%)"
            };
            println!(
                "   sql_overhead: parse+lower p50 {parse_p50:.1}µs / \
                 indexed eval p50 {eval_p50:.0}µs = {:.2}%  {verdict}",
                ratio * 100.0
            );
            if regressed {
                regressions += 1;
            }
        }

        // Enabling the telemetry self-scraper must stay a rounding error
        // on the serving path: whenever the baseline carries a
        // `selfscrape_overhead` block, the fresh doc must too, and its
        // scraping throughput must stay within 2% of its own no-scraper
        // throughput. Again a ratio within the fresh run.
        if baseline.get("selfscrape_overhead").is_some() {
            let fresh_num = |key: &str| -> f64 {
                match fresh.get("selfscrape_overhead").and_then(|o| o.get(key)) {
                    Some(JsonValue::Number(n)) => *n,
                    _ => panic!(
                        "{fresh_path}: selfscrape_overhead.{key} missing \
                         (the baseline carries a selfscrape_overhead block)"
                    ),
                }
            };
            compared += 1;
            let baseline_rps = fresh_num("baseline_rps").max(1.0);
            let scraping_rps = fresh_num("scraping_rps");
            let overhead = (baseline_rps - scraping_rps).max(0.0) / baseline_rps;
            let regressed = overhead >= 0.02;
            let verdict = if regressed {
                "REGRESSED (>= 2%)"
            } else {
                "ok (< 2%)"
            };
            println!(
                "   selfscrape_overhead: {scraping_rps:.0} req/s scraping vs \
                 {baseline_rps:.0} req/s off = {:.2}% cost  {verdict}",
                overhead * 100.0
            );
            if regressed {
                regressions += 1;
            }
        }

        // Streamed uploads must stay streamed: whenever the baseline
        // carries a `streamed_upload` block, the fresh upload's peak RSS
        // delta must stay under 12× the body bytes. The steady-state
        // footprint (endpoint table + warm indexes) dominates that
        // budget; buffering whole bodies again would blow through it.
        if baseline.get("streamed_upload").is_some() {
            let fresh_num = |key: &str| -> f64 {
                match fresh.get("streamed_upload").and_then(|o| o.get(key)) {
                    Some(JsonValue::Number(n)) => *n,
                    _ => panic!(
                        "{fresh_path}: streamed_upload.{key} missing \
                         (the baseline carries a streamed_upload block)"
                    ),
                }
            };
            compared += 1;
            let ratio = fresh_num("rss_ratio");
            let regressed = ratio >= 12.0;
            let verdict = if regressed {
                "REGRESSED (>= 12x)"
            } else {
                "ok (< 12x)"
            };
            println!(
                "   streamed_upload: peak RSS delta {:.2}x of body bytes  {verdict}",
                ratio
            );
            if regressed {
                regressions += 1;
            }
        }
    }

    println!(
        "bench gate: {compared} p95 comparisons, {regressions} regressions \
         (threshold {:.0}%, slack {slack_us}µs)",
        threshold * 100.0
    );
    if regressions > 0 {
        std::process::exit(1);
    }
}
