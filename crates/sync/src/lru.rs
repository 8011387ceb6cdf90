//! The one stamped LRU behind every cache in the workspace.
//!
//! An entry carries a caller-chosen `u64` *stamp* (the data generation it
//! was computed at). A lookup names the stamp it expects: a match is a hit
//! and refreshes recency, a mismatch drops the stale entry and counts as
//! an invalidation plus a miss — so invalidation needs no coordination
//! with whoever bumps the generation. Callers with nothing to stamp pass
//! `0` on both sides.
//!
//! The map is bounded by an entry count and, optionally, by a total
//! *weight* computed by a caller-supplied weigher (body bytes, plan cost).
//! Eviction is oldest-first after the insert; a value heavier than the
//! whole weight budget is not cached at all.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Cache statistics. For a sharded cache the per-shard snapshots are
/// [merged](CacheStats::merge) field-wise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached value.
    pub hits: u64,
    /// Lookups that found nothing (or found a stale stamp).
    pub misses: u64,
    /// Entries dropped to stay within budget.
    pub evictions: u64,
    /// Entries dropped because their stamp went stale.
    pub invalidations: u64,
    /// Live entries.
    pub entries: usize,
    /// Total weight of live entries (zero for an unweighted cache).
    pub bytes: usize,
}

impl CacheStats {
    /// Field-wise sum, used to merge per-shard snapshots.
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            entries: self.entries + other.entries,
            bytes: self.bytes + other.bytes,
        }
    }
}

struct Entry<V> {
    value: V,
    stamp: u64,
    weight: usize,
    /// This entry's slot in `Lru::order`.
    seq: u64,
}

/// A stamped, bounded least-recently-used map (see the module docs).
pub struct Lru<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// seq → key, oldest first. Sequences are unique, so this is a total
    /// recency order.
    order: BTreeMap<u64, K>,
    next_seq: u64,
    max_entries: usize,
    max_weight: usize,
    weigh: fn(&K, &V) -> usize,
    weight: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// A map bounded by `max_entries` entries (at least one).
    pub fn new(max_entries: usize) -> Lru<K, V> {
        Lru::weighted(max_entries, usize::MAX, |_, _| 0)
    }

    /// A map bounded by `max_entries` entries (at least one) *and* by
    /// `max_weight` summed over `weigh(key, value)` of the live entries.
    pub fn weighted(
        max_entries: usize,
        max_weight: usize,
        weigh: fn(&K, &V) -> usize,
    ) -> Lru<K, V> {
        Lru {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_seq: 0,
            max_entries: max_entries.max(1),
            max_weight,
            weigh,
            weight: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Look up `key`; only an entry stamped `stamp` counts. A hit is a
    /// [`hit`](Lru::hit); a stale entry is removed (counted as
    /// invalidation + miss).
    pub fn get<Q>(&mut self, key: &Q, stamp: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(value) = self.hit(key, stamp) {
            return Some(value);
        }
        if let Some(stale) = self.entries.remove(key) {
            self.order.remove(&stale.seq);
            self.weight -= stale.weight;
            self.invalidations += 1;
        }
        self.misses += 1;
        None
    }

    /// [`get`](Lru::get) for a hit only: one hash lookup, one recency
    /// move and one clone of the value. A miss or a stale entry leaves
    /// the cache and its counters as they were.
    pub fn hit<Q>(&mut self, key: &Q, stamp: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.touch(key, stamp).cloned()
    }

    /// The value `get` would return, with no side effect: no counter
    /// moves, recency stays, and a stale entry stays in place.
    pub fn peek<Q>(&self, key: &Q, stamp: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.entries.get(key)?;
        (entry.stamp == stamp).then(|| entry.value.clone())
    }

    /// Count the hit a [`peek`](Lru::peek) found, and make the entry the
    /// most recent if it is still cached at `stamp`. The hit counts even
    /// when the entry has gone since: the peek answered from it.
    pub fn record_hit<Q>(&mut self, key: &Q, stamp: u64)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.touch(key, stamp).is_none() {
            self.hits += 1;
        }
    }

    /// Count a hit on the entry cached for `key` at `stamp` and make it
    /// the most recent; `None` (and nothing counted) when there is none.
    fn touch<Q>(&mut self, key: &Q, stamp: u64) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.entries.get_mut(key).filter(|e| e.stamp == stamp)?;
        let slot = self.order.remove(&entry.seq).expect("entry has a slot");
        entry.seq = self.next_seq;
        self.order.insert(self.next_seq, slot);
        self.next_seq += 1;
        self.hits += 1;
        Some(&entry.value)
    }

    /// Insert (or replace) `key` at `stamp` as the most recent entry, then
    /// evict oldest-first until both bounds hold. Returns how many entries
    /// were evicted. A value heavier than the whole weight budget is not
    /// cached and leaves the map untouched.
    pub fn put(&mut self, key: K, stamp: u64, value: V) -> u64 {
        let mut displaced = Vec::new();
        self.insert(key, stamp, value, &mut displaced)
    }

    /// [`Lru::put`] that hands back what it displaced — the value `key`
    /// held, then the victims, oldest first — so a caller that holds this
    /// cache under a lock can drop them after releasing it.
    #[must_use = "the displaced values are returned to be dropped later"]
    pub fn put_displacing(&mut self, key: K, stamp: u64, value: V) -> Vec<V> {
        let mut displaced = Vec::new();
        self.insert(key, stamp, value, &mut displaced);
        displaced
    }

    fn insert(&mut self, key: K, stamp: u64, value: V, displaced: &mut Vec<V>) -> u64 {
        let weight = (self.weigh)(&key, &value);
        if weight > self.max_weight {
            displaced.push(value);
            return 0;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.weight += weight;
        self.order.insert(seq, key.clone());
        let entry = Entry {
            value,
            stamp,
            weight,
            seq,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.order.remove(&old.seq);
            self.weight -= old.weight;
            displaced.push(old.value);
        }
        let mut evicted = 0;
        while self.entries.len() > self.max_entries || self.weight > self.max_weight {
            let Some((_, oldest)) = self.order.pop_first() else {
                break;
            };
            let victim = self.entries.remove(&oldest).expect("slot has an entry");
            self.weight -= victim.weight;
            displaced.push(victim.value);
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    /// Drop every entry (the counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.weight = 0;
    }

    /// Counters plus the live entry count and weight.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            invalidations: self.invalidations,
            entries: self.entries.len(),
            bytes: self.weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_datagen::SeededRng;

    /// The naive model: `(key, value, stamp)` in recency order, oldest
    /// first, with the same bounds and counters.
    struct Model {
        items: Vec<(String, String, u64)>,
        max_entries: usize,
        max_weight: usize,
        weigh: fn(&String, &String) -> usize,
        stats: CacheStats,
    }

    impl Model {
        fn weight(&self) -> usize {
            self.items.iter().map(|(k, v, _)| (self.weigh)(k, v)).sum()
        }

        fn get(&mut self, key: &str, stamp: u64) -> Option<String> {
            let Some(at) = self.items.iter().position(|(k, _, _)| k == key) else {
                self.stats.misses += 1;
                return None;
            };
            let item = self.items.remove(at);
            if item.2 != stamp {
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                return None;
            }
            self.stats.hits += 1;
            self.items.push(item.clone());
            Some(item.1)
        }

        fn put(&mut self, key: String, stamp: u64, value: String) -> u64 {
            if (self.weigh)(&key, &value) > self.max_weight {
                return 0;
            }
            self.items.retain(|(k, _, _)| *k != key);
            self.items.push((key, value, stamp));
            let mut evicted = 0;
            while self.items.len() > self.max_entries || self.weight() > self.max_weight {
                self.items.remove(0);
                evicted += 1;
            }
            self.stats.evictions += evicted;
            evicted
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.items.len(),
                bytes: self.weight(),
                ..self.stats
            }
        }
    }

    /// Seeded get/put/replace/stale-stamp/clear/oversize script against
    /// the model: every return value and every counter agrees after
    /// every step.
    fn run_script(seed: u64, max_entries: usize, max_weight: Option<usize>) {
        let mut rng = SeededRng::new(seed);
        let by_len: fn(&String, &String) -> usize = |_, v| v.len();
        let mut lru: Lru<String, String> = match max_weight {
            Some(w) => Lru::weighted(max_entries, w, by_len),
            None => Lru::new(max_entries),
        };
        let mut model = Model {
            items: Vec::new(),
            max_entries,
            max_weight: max_weight.unwrap_or(usize::MAX),
            weigh: if max_weight.is_some() {
                by_len
            } else {
                |_, _| 0
            },
            stats: CacheStats::default(),
        };
        for step in 0..4000 {
            let key = format!("k{}", rng.index(12));
            let stamp = rng.index(3) as u64;
            match rng.index(100) {
                0..=44 => assert_eq!(
                    lru.get(key.as_str(), stamp),
                    model.get(&key, stamp),
                    "seed {seed} step {step}: get {key}@{stamp}"
                ),
                45..=96 => {
                    // Lengths reach past a small weight budget (oversize).
                    let value = format!("{step:x}").repeat(rng.index(5));
                    assert_eq!(
                        lru.put(key.clone(), stamp, value.clone()),
                        model.put(key.clone(), stamp, value.clone()),
                        "seed {seed} step {step}: put {key}@{stamp} ({} bytes)",
                        value.len()
                    );
                }
                _ => {
                    lru.clear();
                    model.items.clear();
                }
            }
            assert_eq!(lru.stats(), model.stats(), "seed {seed} step {step}");
        }
        let s = lru.stats();
        assert!(
            s.hits > 0 && s.evictions > 0 && s.invalidations > 0,
            "{s:?}"
        );
    }

    #[test]
    fn matches_the_naive_model_under_an_entry_bound() {
        for seed in 1..=4 {
            run_script(seed, 5, None);
        }
    }

    #[test]
    fn matches_the_naive_model_under_a_weight_bound() {
        for seed in 1..=4 {
            run_script(seed, 8, Some(10));
            run_script(seed, 3, Some(40));
        }
    }

    #[test]
    fn lru_order_is_by_last_touch_and_oversize_is_refused() {
        let mut c: Lru<&str, &str> = Lru::weighted(2, 10, |_, v| v.len());
        c.put("a", 1, "1");
        c.put("b", 1, "2");
        assert_eq!(c.get("a", 1), Some("1"), "touch a → b is now oldest");
        assert_eq!(c.put("c", 1, "3"), 1);
        assert_eq!(c.get("b", 1), None, "b evicted");
        assert!(c.get("a", 1).is_some() && c.get("c", 1).is_some());
        assert_eq!(c.put("huge", 1, "xxxxxxxxxxx"), 0);
        assert_eq!(c.get("huge", 1), None);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (2, 2, 1));
    }

    #[test]
    fn peek_moves_nothing_until_its_hit_is_recorded() {
        let mut c: Lru<&str, &str> = Lru::new(2);
        c.put("a", 1, "1");
        c.put("b", 1, "2");
        let before = c.stats();
        assert_eq!(c.peek("a", 1), Some("1"));
        assert_eq!(c.peek("a", 2), None, "a stale stamp is not a hit");
        assert_eq!(c.peek("z", 1), None);
        assert_eq!(
            c.stats(),
            before,
            "no counter moved, the stale entry stayed"
        );
        c.put("c", 1, "3");
        assert_eq!(c.peek("a", 1), None, "the peek left a the oldest");
        c.record_hit("b", 1);
        c.put("d", 1, "4");
        assert_eq!(c.peek("b", 1), Some("2"), "the recorded hit refreshed b");
        c.record_hit("gone", 1);
        assert_eq!(c.stats().hits, 2, "a hit counts even once its entry left");
        let before = c.stats();
        assert_eq!(c.hit("b", 2), None, "a stale stamp is not a hit");
        assert_eq!(c.hit("z", 1), None);
        assert_eq!(c.stats(), before, "a hit-only miss moves nothing");
        assert_eq!(c.hit("d", 1), Some("4"));
        assert_eq!(c.stats().hits, 3);
    }
}
