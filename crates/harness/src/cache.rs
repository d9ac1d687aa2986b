//! The combinatorial structure cache.
//!
//! Distinguishers are the dominant per-case cost of a sweep at large `N`,
//! and every construction is a pure function of its [`StructureKey`].
//! [`StructureCache`] memoises them once per sweep in a
//! sharded, `Arc`-backed map: the first request for a key constructs the
//! structure (holding only that key's shard lock), every later request —
//! from any worker thread — gets a cheap `Arc` clone of the same read-only
//! value.
//!
//! The cache implements [`StructureProvider`], so installing it is one
//! [`Network::with_structures`](ring_protocols::Network::with_structures)
//! call per case; the protocols themselves are provider-agnostic. Because
//! the cached structures are bit-identical to freshly constructed ones,
//! caching can never change a protocol outcome (the harness test-suite
//! pins this down).

use ring_combinat::{Distinguisher, SharedStrongDistinguisher, StructureKey, StructureKind};
use ring_protocols::structures::StructureProvider;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards. Sixteen keeps same-shard
/// contention negligible for the worker counts the executor spawns while
/// staying cheap to scan for statistics.
const SHARD_COUNT: usize = 16;

/// One memoised structure.
#[derive(Clone, Debug)]
pub(crate) enum CachedStructure {
    Strong(Arc<SharedStrongDistinguisher>),
    Distinguisher(Arc<Distinguisher>),
}

/// Cache effectiveness counters (monotone; read with [`StructureCache::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct CacheStats {
    /// Requests served from the memo.
    pub hits: u64,
    /// Requests that had to construct.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of requests served from the memo (0 when nothing was
    /// requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe memo of combinatorial structures keyed by
/// `(kind, N, n, seed)`.
#[derive(Debug, Default)]
pub struct StructureCache {
    shards: Vec<Mutex<HashMap<StructureKey, CachedStructure>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StructureCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        StructureCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Hit/miss counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of structures currently memoised.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("structure cache shard").len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serves `key` from the memo without constructing, counting a hit
    /// when present. The two-tier [`crate::store::StructureStore`] peeks
    /// first so its disk-tier walk (which may sleep waiting on another
    /// process's claim) never runs under a shard lock.
    pub(crate) fn peek(&self, key: &StructureKey) -> Option<CachedStructure> {
        let started = std::time::Instant::now();
        let shard = (key.mix() % SHARD_COUNT as u64) as usize;
        let map = self.shards[shard].lock().expect("structure cache shard");
        let cached = map.get(key).cloned();
        if cached.is_some() {
            self.note_tier1_hit(started);
        }
        cached
    }

    /// Counts a tier-1 hit and records how long the memo lookup (shard
    /// lock plus map probe) took to serve it.
    fn note_tier1_hit(&self, started: std::time::Instant) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        ring_obs::global()
            .histogram("store_tier1_hit_ns")
            .record(ring_obs::elapsed_ns(started));
    }

    /// Serves `key` from the memo, constructing it with `make` on first
    /// request. The construction runs under the key's shard lock, which
    /// deliberately serialises concurrent first requests for the same key
    /// (building an expensive structure twice costs more than briefly
    /// blocking the shard). The two-tier [`crate::store::StructureStore`]
    /// reuses this memo as its tier 1, with a `make` that adopts a value
    /// resolved outside the lock.
    pub(crate) fn get_or_insert(
        &self,
        key: StructureKey,
        make: impl FnOnce() -> CachedStructure,
    ) -> CachedStructure {
        let started = std::time::Instant::now();
        let shard = (key.mix() % SHARD_COUNT as u64) as usize;
        let mut map = self.shards[shard].lock().expect("structure cache shard");
        if let Some(cached) = map.get(&key) {
            self.note_tier1_hit(started);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = make();
        map.insert(key, built.clone());
        built
    }
}

impl StructureProvider for StructureCache {
    fn strong_distinguisher(&self, universe: u64, seed: u64) -> Arc<SharedStrongDistinguisher> {
        let key = StructureKey {
            kind: StructureKind::StrongDistinguisher,
            universe,
            n: 0,
            seed,
        };
        match self.get_or_insert(key, || {
            CachedStructure::Strong(Arc::new(SharedStrongDistinguisher::new(universe, seed)))
        }) {
            CachedStructure::Strong(s) => s,
            _ => unreachable!("kind is part of the key"),
        }
    }

    fn distinguisher(&self, universe: u64, n: usize, seed: u64) -> Arc<Distinguisher> {
        let key = StructureKey {
            kind: StructureKind::Distinguisher,
            universe,
            n: n as u64,
            seed,
        };
        match self.get_or_insert(key, || {
            CachedStructure::Distinguisher(Arc::new(Distinguisher::random(universe, n, seed)))
        }) {
            CachedStructure::Distinguisher(d) => d,
            _ => unreachable!("kind is part of the key"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_protocols::structures::FreshStructures;

    #[test]
    fn repeated_requests_hit_and_share() {
        let cache = StructureCache::new();
        let a = cache.distinguisher(256, 4, 9);
        let b = cache.distinguisher(256, 4, 9);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn kinds_and_parameters_are_distinct_keys() {
        let cache = StructureCache::new();
        cache.distinguisher(256, 4, 9);
        cache.strong_distinguisher(256, 9);
        cache.distinguisher(256, 4, 10);
        cache.distinguisher(512, 4, 9);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn cached_structures_equal_fresh_ones() {
        let cache = StructureCache::new();
        let fresh = FreshStructures;
        assert_eq!(
            *cache.distinguisher(128, 4, 3),
            *fresh.distinguisher(128, 4, 3)
        );
        assert_eq!(
            *cache.strong_distinguisher(128, 3).set(5),
            *fresh.strong_distinguisher(128, 3).set(5)
        );
    }

    #[test]
    fn concurrent_requests_converge_on_one_entry() {
        let cache = Arc::new(StructureCache::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.distinguisher(512, 8, 1).len())
            })
            .collect();
        let lens: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 3);
    }
}
