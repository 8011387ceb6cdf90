//! Self-hosted telemetry time-series: a bounded in-memory columnar ring
//! the serving layer scrapes the [`ApiMetrics`](crate::ApiMetrics) registry
//! into, so the stack can observe *itself* with its own query machinery
//! instead of point-in-time `/stats` snapshots that discard history the
//! moment you read them.
//!
//! Samples are `(ts, family, label, value)` rows — family is the `/stats`
//! block, label is the `/stats` key (`hits`), prefixed `series|` for a
//! labelled series (`GET /stats|p95_us`, `per_worker.0|queries`), value
//! is an integer counter or microsecond quantile. [`samples_of`] derives
//! them from the same [`Family`] values `/stats` and `/metrics` render,
//! so the three views cannot drift. Each family has its own retention
//! budget; the oldest samples of that family are evicted first, so a
//! chatty family (per-route histograms) cannot starve a quiet one
//! (reactor gauges) out of history.
//!
//! The ring materialises one [`Table`] snapshot per scrape — not per
//! query — and hands out cheap clones (columns are shared), so the entire
//! existing query stack (path grammar, SQL, paging, caches, SSE) runs on
//! the `_system/telemetry` dataset unchanged.

use crate::telemetry::Family;
use parking_lot::RwLock;
use shareinsights_tabular::{Column, DataType, Field, Schema, Table};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Samples retained per family before FIFO eviction.
const FAMILY_BUDGET: usize = 4096;

/// One sampled telemetry point, prior to timestamping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Registry block the sample came from (`routes`, `cache`, …).
    pub family: String,
    /// Series within the family, `series|metric` style.
    pub label: String,
    /// Integer value (counts, bytes, or microseconds).
    pub value: i64,
}

/// Outcome of one scrape tick, for meta-telemetry and SSE fan-out.
#[derive(Debug, Clone)]
pub struct ScrapeOutcome {
    /// Samples appended this tick.
    pub samples: usize,
    /// Samples evicted (across families) to hold the retention budgets.
    pub evicted: usize,
    /// Samples currently retained across all families, post-scrape.
    pub retained: usize,
    /// Ring generation after the scrape (stamps caches and SSE frames).
    pub generation: u64,
    /// Just the rows appended this tick, as a table — the SSE delta frame
    /// a live widget appends, sparing subscribers the full snapshot.
    pub delta: Table,
}

/// Columnar per-family ring: parallel deques, FIFO-evicted at the budget.
#[derive(Debug, Default)]
struct FamilyRing {
    ts_us: VecDeque<i64>,
    labels: VecDeque<String>,
    values: VecDeque<i64>,
}

impl FamilyRing {
    fn len(&self) -> usize {
        self.ts_us.len()
    }

    fn push(&mut self, ts_us: i64, label: String, value: i64) {
        self.ts_us.push_back(ts_us);
        self.labels.push_back(label);
        self.values.push_back(value);
    }

    fn evict_to(&mut self, budget: usize) -> usize {
        let mut evicted = 0;
        while self.ts_us.len() > budget {
            self.ts_us.pop_front();
            self.labels.pop_front();
            self.values.pop_front();
            evicted += 1;
        }
        evicted
    }
}

#[derive(Debug, Default)]
struct Inner {
    families: BTreeMap<String, FamilyRing>,
    generation: u64,
    snapshot: Option<Table>,
}

/// The schema every snapshot table carries: `ts, family, label, value`.
fn history_schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", DataType::Int64),
        Field::new("family", DataType::Utf8),
        Field::new("label", DataType::Utf8),
        Field::new("value", DataType::Int64),
    ])
    .expect("history schema fields are distinct")
}

fn table_of(rows: &[(i64, &str, &str, i64)]) -> Table {
    Table::new(
        history_schema(),
        vec![
            Column::int(rows.iter().map(|r| r.0)),
            Column::utf8(rows.iter().map(|r| r.1)),
            Column::utf8(rows.iter().map(|r| r.2)),
            Column::int(rows.iter().map(|r| r.3)),
        ],
    )
    .expect("history columns are rectangular")
}

/// Bounded time-series store over the telemetry registry. Cheap to clone
/// (shared interior); every handle sees the same ring.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHistory {
    inner: Arc<RwLock<Inner>>,
}

impl TelemetryHistory {
    /// An empty store.
    pub fn new() -> TelemetryHistory {
        TelemetryHistory::default()
    }

    /// Current ring generation. Bumped once per scrape so
    /// generation-stamped caches invalidate exactly when history advances.
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// Append one scrape tick of samples at `ts_us`, evicting per-family
    /// overflow, bumping the generation, and rebuilding the snapshot
    /// lazily (on next read).
    pub fn record(&self, ts_us: i64, samples: Vec<Sample>) -> ScrapeOutcome {
        let delta_rows: Vec<(i64, &str, &str, i64)> = samples
            .iter()
            .map(|s| (ts_us, s.family.as_str(), s.label.as_str(), s.value))
            .collect();
        let delta = table_of(&delta_rows);

        let mut inner = self.inner.write();
        let appended = samples.len();
        let mut evicted = 0usize;
        for s in samples {
            let ring = inner.families.entry(s.family).or_default();
            ring.push(ts_us, s.label, s.value);
            evicted += ring.evict_to(FAMILY_BUDGET);
        }
        inner.generation += 1;
        inner.snapshot = None;
        ScrapeOutcome {
            samples: appended,
            evicted,
            retained: inner.families.values().map(|r| r.len()).sum(),
            generation: inner.generation,
            delta,
        }
    }

    /// One scrape tick: append every sample of `families` at `ts_us`.
    pub fn scrape(&self, families: &[Family], ts_us: i64) -> ScrapeOutcome {
        self.record(ts_us, samples_of(families))
    }

    /// The current history as a table (`ts, family, label, value`), built
    /// once per scrape and cloned per reader — columns are shared, so this
    /// is copy-free on the query path.
    pub fn snapshot_table(&self) -> Table {
        if let Some(t) = self.inner.read().snapshot.as_ref() {
            return t.clone();
        }
        let mut inner = self.inner.write();
        if let Some(t) = inner.snapshot.as_ref() {
            return t.clone();
        }
        let total: usize = inner.families.values().map(|r| r.len()).sum();
        let mut ts = Vec::with_capacity(total);
        let mut families = Vec::with_capacity(total);
        let mut labels = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        for (family, ring) in &inner.families {
            for i in 0..ring.len() {
                ts.push(ring.ts_us[i]);
                families.push(family.clone());
                labels.push(ring.labels[i].clone());
                values.push(ring.values[i]);
            }
        }
        let table = Table::new(
            history_schema(),
            vec![
                Column::int(ts),
                Column::utf8(families),
                Column::utf8(labels),
                Column::int(values),
            ],
        )
        .expect("history columns are rectangular");
        inner.snapshot = Some(table.clone());
        table
    }
}

/// Flatten metric families into samples — the `_system` rendering of the
/// registry. Scalars are labelled by their `/stats` key; a labelled series
/// prefixes `label|` (and its `/stats` array key, when it has one); a
/// latency histogram contributes its `/stats` summary. Bucket arrays are
/// left to `/metrics`.
pub fn samples_of(families: &[Family]) -> Vec<Sample> {
    let mut out = Vec::with_capacity(128);
    for family in families {
        let mut push = |label: String, value: u64| {
            out.push(Sample {
                family: family.name.to_string(),
                label,
                value: value.min(i64::MAX as u64) as i64,
            });
        };
        for f in &family.fields {
            push(f.key.to_string(), f.value);
        }
        let Some(set) = &family.series else { continue };
        for series in &set.series {
            let prefix = match set.key {
                Some(key) => format!("{key}.{}", series.label),
                None => series.label.clone(),
            };
            for f in &series.fields {
                push(format!("{prefix}|{}", f.key), f.value);
            }
            for (key, value) in series.latency.iter().flat_map(|h| h.summary()) {
                push(format!("{prefix}|{key}"), value);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{ApiMetrics, ShardWorkerStats};
    use shareinsights_tabular::Value;

    fn sample(family: &str, label: &str, value: i64) -> Sample {
        Sample {
            family: family.to_string(),
            label: label.to_string(),
            value,
        }
    }

    #[test]
    fn record_bumps_generation_and_snapshots_lazily() {
        let h = TelemetryHistory::new();
        assert_eq!(h.generation(), 0);
        assert_eq!(h.snapshot_table().num_rows(), 0);

        let out = h.record(1_000, vec![sample("routes", "GET /stats|count", 3)]);
        assert_eq!(out.generation, 1);
        assert_eq!(out.samples, 1);
        assert_eq!(out.evicted, 0);
        assert_eq!(out.delta.num_rows(), 1);

        let t = h.snapshot_table();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "ts").unwrap(), Value::Int(1_000));
        assert_eq!(t.value(0, "family").unwrap(), Value::Str("routes".into()));
        assert_eq!(t.value(0, "value").unwrap(), Value::Int(3));

        // Snapshot is cached: same columns handed back until the next scrape.
        let again = h.snapshot_table();
        assert_eq!(t, again);
        h.record(2_000, vec![sample("routes", "GET /stats|count", 4)]);
        assert_eq!(h.generation(), 2);
        assert_eq!(h.snapshot_table().num_rows(), 2);
    }

    #[test]
    fn per_family_budgets_evict_oldest_of_that_family_only() {
        let h = TelemetryHistory::new();
        // One chatty family overflows its budget; the quiet one keeps all.
        let chatty = |i: i64| (0..FAMILY_BUDGET / 2).map(move |_| sample("routes", "r|count", i));
        let mut last = None;
        for i in 0..3 {
            let mut tick: Vec<Sample> = chatty(i).collect();
            tick.push(sample("sql", "queries", 100 + i));
            last = Some(h.record(i * 10, tick));
        }
        let last = last.unwrap();
        assert_eq!(last.retained, FAMILY_BUDGET + 3);
        assert_eq!(last.evicted, FAMILY_BUDGET / 2);
        let t = h.snapshot_table();
        // The oldest tick of the chatty family is gone; `sql` still has ts 0.
        for row in 0..t.num_rows() {
            let Value::Int(ts) = t.value(row, "ts").unwrap() else {
                panic!("ts is int");
            };
            let family = t.value(row, "family").unwrap().to_string();
            assert!(ts >= 10 || family == "sql", "{family} ts {ts} kept");
        }
    }

    #[test]
    fn scrape_flattens_every_registry_family() {
        let m = ApiMetrics::new();
        m.record("GET /stats", true, 120);
        m.record_operator("groupby", 10, 2, 50);
        m.record_sql_prepared_hit();
        m.record_ingest_commit(7, true, 30, true);
        let worker = ShardWorkerStats {
            shard: 1,
            queries: 4,
            ..ShardWorkerStats::default()
        };

        let families = m.families(&[worker], 0);
        let h = TelemetryHistory::new();
        let out = h.scrape(&families, 123);
        let t = h.snapshot_table();
        assert_eq!(out.samples, t.num_rows());
        let rows: Vec<(String, String, i64)> = (0..t.num_rows())
            .map(|r| {
                (
                    t.value(r, "family").unwrap().to_string(),
                    t.value(r, "label").unwrap().to_string(),
                    t.value(r, "value").unwrap().as_int().unwrap(),
                )
            })
            .collect();
        // Walk the registry, not a hand list: every declared field of
        // every family has its row.
        for family in &families {
            for f in &family.fields {
                assert!(
                    rows.iter().any(|(fam, label, value)| fam == family.name
                        && label == f.key
                        && *value == f.value as i64),
                    "{}|{} missing",
                    family.name,
                    f.key
                );
            }
        }
        let has = |family: &str, label: &str, value: i64| {
            rows.iter()
                .any(|(f, l, v)| f == family && l == label && *v == value)
        };
        assert!(has("routes", "GET /stats|count", 1));
        assert!(has("routes", "GET /stats|p95_us", 120));
        assert!(has("operators", "groupby|rows_in", 10));
        assert!(has("shard", "per_worker.1|queries", 4));
        assert!(has("sql", "prepared_hits", 1));
        assert!(has("ingest", "index_merges", 1));
    }
}
