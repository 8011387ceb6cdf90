//! The generation-stamped page cache.
//!
//! Widget interaction in the paper's §4.4 data explorer re-issues the same
//! ad-hoc query URL every time a user touches a filter, so the server keeps
//! the serialized JSON of recent pages keyed on the normalized query path
//! plus `offset`/`limit`, stamped with the dataset's *data generation*
//! (runs, publishes and appends bump it). A lookup whose stamp no longer
//! matches is a miss and drops the stale entry, so invalidation needs no
//! coordination with the execution path. Recency, eviction and the
//! counters live in one stamped [`parking_lot::Lru`] behind one lock.

use parking_lot::{Lru, Mutex};
use shareinsights_core::telemetry::{Family, Field, Kind};

pub use parking_lot::CacheStats;

/// Page-cache entry budget.
const CACHE_ENTRIES: usize = 1024;
/// Page-cache body-byte budget.
const CACHE_BYTES: usize = 8 * 1024 * 1024;
/// Largest body the page cache keeps.
const CACHE_BODY_MAX: usize = 1024 * 1024;

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

/// The page cache: serialized response bodies under an entry and a byte
/// budget, generation-stamped, behind one lock.
pub struct QueryCache {
    inner: Mutex<Lru<String, String>>,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache {
            inner: Mutex::new(Lru::weighted(CACHE_ENTRIES, CACHE_BYTES, |_, body| {
                body.len()
            })),
        }
    }
}

impl QueryCache {
    /// Look up `key`; only an entry stamped with `generation` counts. A
    /// stale entry is removed (counted as invalidation + miss).
    pub fn get(&self, key: &str, generation: u64) -> Option<String> {
        self.inner.lock().get(key, generation)
    }

    /// [`get`](QueryCache::get) for a hit only: a hit counts and refreshes
    /// recency exactly as `get` does, under one lock; a miss or a stale
    /// entry leaves the cache and its counters as they were.
    pub fn hit(&self, key: &str, generation: u64) -> Option<String> {
        self.inner.lock().hit(key, generation)
    }

    /// Insert (or replace) the cached body for `key` at `generation`,
    /// evicting least-recently-used entries to stay within budget. A body
    /// over 1 MiB is not cached.
    pub fn put(&self, key: &str, generation: u64, body: String) {
        if body.len() <= CACHE_BODY_MAX {
            self.inner.lock().put(key.to_string(), generation, body);
        }
    }

    /// Statistics snapshot.
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
        // A body over 1 MiB is not cached at all, and leaves the key's
        // entry as it was; one of exactly 1 MiB is.
        c.put("k", 2, "new".into());
        c.put("k", 2, "x".repeat(CACHE_BODY_MAX + 1));
        assert_eq!(c.get("k", 2).as_deref(), Some("new"));
        c.put("big", 2, "x".repeat(CACHE_BODY_MAX));
        assert_eq!(c.stats().bytes, 3 + CACHE_BODY_MAX);
    }

    #[test]
    fn both_budgets_bound_the_cache() {
        let c = QueryCache::default();
        for i in 0..4 * CACHE_ENTRIES {
            c.put(&format!("k{i}"), 1, "x".into());
        }
        let s = c.stats();
        assert_eq!(
            (s.entries, s.evictions),
            (CACHE_ENTRIES, 3 * CACHE_ENTRIES as u64)
        );
        assert!(c.get(&format!("k{}", 4 * CACHE_ENTRIES - 1), 1).is_some());
        assert!(c.get("k0", 1).is_none(), "the oldest went first");
        // Nine 1 MiB bodies overrun the 8 MiB budget by one.
        for i in 0..9 {
            c.put(&format!("big{i}"), 1, "x".repeat(CACHE_BODY_MAX));
        }
        let s = c.stats();
        assert!(s.bytes <= CACHE_BYTES, "{s:?}");
        assert!(c.get("big0", 1).is_none() && c.get("big8", 1).is_some());
    }

    #[test]
    fn concurrent_get_put_bump_never_serves_stale() {
        // M threads hammer get/put while a bumper advances the generation;
        // the invariant: a get at generation g only ever returns a body
        // that was put at exactly g (no lost invalidations).
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
        let stats = c.stats();
        assert_eq!(
            stats.hits + stats.misses,
            (threads * iters) as u64,
            "every get is either a hit or a miss"
        );
    }
}
