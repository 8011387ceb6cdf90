//! The generation-stamped, hash-sharded query-result cache.
//!
//! Widget interaction in the paper's §4.4 data explorer re-issues the same
//! ad-hoc query URL every time a user touches a filter, so the server keeps
//! the serialized JSON of recent query results keyed on
//! `(dashboard, dataset, normalized query path)`. Every entry is stamped
//! with the dataset's *data generation* — a counter the platform bumps on
//! each dashboard run and the publish registry bumps on each
//! publish/refresh. A lookup whose stamp no longer matches the live
//! generation is a miss (and evicts the stale entry), so invalidation
//! needs no coordination with the execution path.
//!
//! Both caches here are thin owners of the shared stamped
//! [`parking_lot::Lru`]: recency, eviction and the counters live there.
//! The page cache is partitioned into eight independently locked maps; a
//! key's shard is chosen by FNV-1a over the normalized path, so concurrent
//! workers touching different keys almost never contend on the same lock.
//! The entry and byte budgets are divided evenly across the shards.

use parking_lot::{Lru, Mutex};
use shareinsights_core::telemetry::{Family, Field, Kind};
use shareinsights_tabular::Table;
use std::sync::Arc;

pub use parking_lot::CacheStats;

/// Independently locked shards of the page cache.
const CACHE_SHARDS: usize = 8;
/// Page-cache entry budget, across all shards.
const CACHE_ENTRIES: usize = 1024;
/// Page-cache body-byte budget, across all shards.
const CACHE_BYTES: usize = 8 * 1024 * 1024;
/// Unpaged results kept by a [`ResultCache`].
const RESULT_CACHE_ENTRIES: usize = 128;
/// [`ResultCache`] budget over the results' [`Table::approx_bytes`], so
/// a few huge unpaged results cannot pin the memory of the whole entry
/// budget (the flow memo's bound is the same size).
const RESULT_CACHE_BYTES: usize = 64 << 20;

/// The `/stats` block, `/metrics` series and `_system` samples of one
/// cache: `name` is the block, `prom` the Prometheus prefix.
pub(crate) fn family(name: &'static str, prom: &'static str, stats: CacheStats) -> Family {
    let CacheStats {
        hits,
        misses,
        evictions,
        invalidations,
        entries,
        bytes,
    } = stats;
    Family::scalars(
        name,
        prom,
        vec![
            Field::new(Kind::Gauge, "entries", "entries", entries as u64),
            Field::new(Kind::Gauge, "bytes", "bytes", bytes as u64),
            Field::new(Kind::Counter, "hits", "hits_total", hits),
            Field::new(Kind::Counter, "misses", "misses_total", misses),
            Field::new(Kind::Counter, "evictions", "evictions_total", evictions),
            Field::new(
                Kind::Counter,
                "invalidations",
                "invalidations_total",
                invalidations,
            ),
        ],
    )
}

/// FNV-1a 64-bit over the key bytes — cheap, deterministic, and good enough
/// spread for URL-shaped keys.
fn fnv1a(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The page cache: serialized response bodies under an entry and a byte
/// budget, generation-stamped, hash-partitioned into locked shards.
pub struct QueryCache {
    shards: Vec<Mutex<Lru<String, String>>>,
}

impl Default for QueryCache {
    fn default() -> Self {
        let shard = || {
            Mutex::new(Lru::weighted(
                CACHE_ENTRIES / CACHE_SHARDS,
                CACHE_BYTES / CACHE_SHARDS,
                |_, body: &String| body.len(),
            ))
        };
        QueryCache {
            shards: (0..CACHE_SHARDS).map(|_| shard()).collect(),
        }
    }
}

impl QueryCache {
    fn shard_for(&self, key: &str) -> &Mutex<Lru<String, String>> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Look up `key`; only an entry stamped with `generation` counts. A
    /// stale entry is removed (counted as invalidation + miss).
    pub fn get(&self, key: &str, generation: u64) -> Option<String> {
        self.shard_for(key).lock().get(key, generation)
    }

    /// [`get`](QueryCache::get) for a hit only: a hit counts and refreshes
    /// recency exactly as `get` does, all under one shard lock; a miss or
    /// a stale entry leaves the shard and its counters as they were.
    pub fn hit(&self, key: &str, generation: u64) -> Option<String> {
        self.shard_for(key).lock().hit(key, generation)
    }

    /// Insert (or replace) the cached body for `key` at `generation`,
    /// evicting least-recently-used entries from the key's shard to stay
    /// within its budget. Bodies larger than a whole shard's byte budget
    /// are not cached.
    pub fn put(&self, key: &str, generation: u64, body: String) {
        self.shard_for(key)
            .lock()
            .put(key.to_string(), generation, body);
    }

    /// Drop every entry in every shard (hit/miss counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Merged statistics snapshot: the field-wise sum over all shards.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merge(&s.lock().stats()))
    }
}

/// A generation-stamped LRU cache of *unpaged* query results.
///
/// The [`QueryCache`] above holds serialized page bodies keyed on the full
/// URL (including `offset`/`limit`), so paging through a result used to
/// re-evaluate the whole query per page. This cache sits underneath it,
/// keyed on the query alone: the first page evaluates the pipeline once,
/// and every later page slices the cached [`Table`]. Entries are stamped
/// with the same data generation as the body cache, so runs and publishes
/// invalidate both in lockstep.
pub struct ResultCache {
    inner: Mutex<Lru<String, Arc<Table>>>,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache {
            inner: Mutex::new(Lru::weighted(
                RESULT_CACHE_ENTRIES,
                RESULT_CACHE_BYTES,
                |_, table: &Arc<Table>| table.approx_bytes(),
            )),
        }
    }
}

impl ResultCache {
    /// Look up the unpaged result for `key` at `generation`; a stale entry
    /// is removed (counted as invalidation + miss).
    pub fn get(&self, key: &str, generation: u64) -> Option<Arc<Table>> {
        self.inner.lock().get(key, generation)
    }

    /// Insert (or replace) the result for `key` at `generation`, evicting
    /// the least-recently-used entries beyond either bound. A result over
    /// the whole byte budget is not cached.
    pub fn put(&self, key: &str, generation: u64, table: Arc<Table>) {
        self.inner.lock().put(key.to_string(), generation, table);
    }

    /// Drop every entry (hit/miss counters survive). Bench harnesses use
    /// this to force cold evaluations without restarting the server.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Statistics snapshot; `bytes` sums the cached results'
    /// [`Table::approx_bytes`] (columns a result shares with its endpoint
    /// count too).
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_cache_hits_invalidates_and_reports_bytes() {
        let c = QueryCache::default();
        assert_eq!(c.get("k", 1), None);
        c.put("k", 1, "body".into());
        assert_eq!(c.get("k", 1).as_deref(), Some("body"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 4));
        assert_eq!(c.get("k", 2), None, "stale generation is a miss");
        let s = c.stats();
        assert_eq!((s.invalidations, s.entries, s.bytes), (1, 0, 0));
        // A body over a whole shard's byte budget is not cached at all.
        c.put("huge", 1, "x".repeat(CACHE_BYTES / CACHE_SHARDS + 1));
        assert!(c.get("huge", 1).is_none());
        c.put("k", 2, "new".into());
        c.clear();
        assert_eq!((c.stats().entries, c.stats().bytes), (0, 0));
    }

    #[test]
    fn shards_spread_keys_and_bound_the_total() {
        let c = QueryCache::default();
        for i in 0..64 {
            c.put(&format!("key-{i}"), 1, format!("body-{i}"));
        }
        // FNV spreads 64 URL-shaped keys over the shards: every shard gets some.
        assert!(
            c.shards.iter().all(|s| s.lock().stats().entries > 0),
            "a shard stayed empty"
        );
        for i in 0..64 {
            assert_eq!(
                c.get(&format!("key-{i}"), 1).as_deref(),
                Some(format!("body-{i}").as_str())
            );
        }
        assert_eq!((c.stats().entries, c.stats().hits), (64, 64));
        // Per-shard budgets bound the total, whatever the spread.
        for i in 0..4 * CACHE_ENTRIES {
            c.put(&format!("k{i}"), 1, "x".into());
        }
        let s = c.stats();
        assert!(s.entries <= CACHE_ENTRIES, "{s:?}");
        assert!(s.evictions as usize >= 3 * CACHE_ENTRIES, "{s:?}");
    }

    #[test]
    fn concurrent_get_put_bump_never_serves_stale() {
        // M threads hammer get/put across shards while a bumper advances the
        // generation; the invariant: a get at generation g only ever returns
        // a body that was put at exactly g (no lost invalidations).
        use std::sync::atomic::{AtomicU64, Ordering};
        let c = QueryCache::default();
        let generation = AtomicU64::new(1);
        let threads = 8;
        let iters = 400;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = &c;
                let generation = &generation;
                scope.spawn(move || {
                    for i in 0..iters {
                        let key = format!("key-{}", (t * 7 + i * 13) % 31);
                        let g = generation.load(Ordering::SeqCst);
                        c.put(&key, g, g.to_string());
                        let g2 = generation.load(Ordering::SeqCst);
                        if let Some(body) = c.get(&key, g2) {
                            // The stamp check is the invalidation: a hit at
                            // g2 must carry g2's body, never an older one.
                            assert_eq!(body, g2.to_string(), "stale body served");
                        }
                        if i % 50 == 0 {
                            generation.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        let merged = c.stats();
        assert_eq!(
            merged.hits + merged.misses,
            (threads * iters) as u64,
            "every get is either a hit or a miss"
        );
    }

    #[test]
    fn result_cache_stamps_generations() {
        let one_row =
            |v: i64| Arc::new(Table::from_rows(&["a"], &[shareinsights_tabular::row![v]]).unwrap());
        let c = ResultCache::default();
        assert!(c.get("q1", 1).is_none());
        c.put("q1", 1, one_row(1));
        assert_eq!(c.get("q1", 1).expect("hit").num_rows(), 1);
        // Stale generation invalidates.
        assert!(c.get("q1", 2).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.bytes), (1, 2, 1, 0));
        for i in 0..RESULT_CACHE_ENTRIES + 1 {
            c.put(&format!("q{i}"), 2, one_row(i as i64));
        }
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (RESULT_CACHE_ENTRIES, 1));
        // Entries are weighed by their tables' bytes.
        assert_eq!(s.bytes, RESULT_CACHE_ENTRIES * one_row(0).approx_bytes());
        c.clear();
        assert_eq!(c.stats().entries, 0);
    }
}
