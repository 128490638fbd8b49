//! The in-memory sharded map plus hit/miss instrumentation.

use crate::key::EvalKey;
use relm_obs::Obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count. Evaluations take milliseconds while a shard lock is held
/// for nanoseconds, so 16 shards keep contention negligible even for a
/// large worker pool.
const SHARDS: usize = 16;

/// Point-in-time hit/miss/insert totals of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
}

impl CacheStats {
    /// Hits over total lookups; 0 when nothing was looked up yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Inner<V> {
    shards: Vec<Mutex<HashMap<EvalKey, Arc<V>>>>,
    obs: Obs,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

/// A content-addressed, thread-safe evaluation cache.
///
/// `Clone` is an `Arc` bump: all clones read and write the same entries,
/// so one cache handle can be shared by every worker of an experiment
/// sweep or every session of a serving process. Values are returned as
/// `Arc<V>` — a hit never copies the cached payload.
///
/// Lookup/insert totals are mirrored into the attached [`Obs`] handle as
/// `evalcache.{hits,misses,inserts}` counters plus an
/// `evalcache.hit_ratio` gauge (see [`EvalCache::instrumented`]); the
/// [`store`](crate::store) adds the store files it writes and reads to
/// `evalcache.bytes`.
#[derive(Debug)]
pub struct EvalCache<V> {
    inner: Arc<Inner<V>>,
}

impl<V> Clone for EvalCache<V> {
    fn clone(&self) -> Self {
        EvalCache {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> Default for EvalCache<V> {
    fn default() -> Self {
        EvalCache::new()
    }
}

impl<V> EvalCache<V> {
    /// An empty cache with a disabled observability handle.
    pub fn new() -> Self {
        EvalCache::instrumented(Obs::disabled())
    }

    /// An empty cache mirroring its counters into `obs`.
    pub fn instrumented(obs: Obs) -> Self {
        EvalCache {
            inner: Arc::new(Inner {
                shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
                obs,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
            }),
        }
    }

    fn shard(&self, key: &EvalKey) -> &Mutex<HashMap<EvalKey, Arc<V>>> {
        &self.inner.shards[key.shard(SHARDS)]
    }

    fn publish_hit_ratio(&self) {
        self.inner
            .obs
            .gauge("evalcache.hit_ratio", self.stats().hit_ratio());
    }

    /// Looks up one key. Counts the outcome either way.
    pub fn get(&self, key: &EvalKey) -> Option<Arc<V>> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned();
        match &found {
            Some(_) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                self.inner.obs.inc("evalcache.hits");
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                self.inner.obs.inc("evalcache.misses");
            }
        }
        self.publish_hit_ratio();
        found
    }

    /// True if `key` is present, without counting a hit or a miss. The
    /// serving fleet probes with this before leasing a task to a remote
    /// worker (cross-worker dedup): a probe is a scheduling decision, not
    /// an evaluation, so it must not skew the hit-ratio telemetry.
    pub fn contains(&self, key: &EvalKey) -> bool {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .contains_key(key)
    }

    /// Number of entries across all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/insert totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            inserts: self.inner.inserts.load(Ordering::Relaxed),
        }
    }

    /// The cache's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Inserts (or replaces) one entry and returns the shared handle to
    /// it. Nothing is serialized: `evalcache.bytes` counts store files as
    /// [`store`](crate::store) writes and reads them.
    pub fn insert(&self, key: EvalKey, value: V) -> Arc<V> {
        self.inner.inserts.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.inc("evalcache.inserts");
        let value = Arc::new(value);
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, Arc::clone(&value));
        value
    }

    /// Restores one entry from the persistent store without counting it
    /// as an insert — the stats distinguish work this process memoized
    /// from work a previous run left behind.
    pub(crate) fn restore(&self, key: EvalKey, value: V) {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, Arc::new(value));
    }

    /// Every entry, sorted by key — the deterministic iteration order the
    /// persistent store writes in, independent of insertion order and
    /// shard layout.
    pub fn entries(&self) -> Vec<(EvalKey, Arc<V>)> {
        let mut out: Vec<(EvalKey, Arc<V>)> = Vec::new();
        for shard in &self.inner.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            out.extend(shard.iter().map(|(k, v)| (*k, Arc::clone(v))));
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }
}

// Every worker of a sweep (and every serve worker) holds a clone; break
// the build if the cache stops being shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EvalCache<String>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn key(n: u64) -> EvalKey {
        KeyBuilder::new("test").field("n", &n).finish()
    }

    #[test]
    fn get_insert_round_trip() {
        let cache: EvalCache<String> = EvalCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), "one".to_string());
        assert_eq!(cache.get(&key(1)).unwrap().as_str(), "one");
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.hit_ratio(), 0.5);
    }

    #[test]
    fn entries_are_key_sorted() {
        let cache: EvalCache<u64> = EvalCache::new();
        for n in [5u64, 1, 9, 3] {
            cache.insert(key(n), n);
        }
        let entries = cache.entries();
        assert_eq!(entries.len(), 4);
        let keys: Vec<EvalKey> = entries.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn counters_flow_into_obs() {
        let obs = relm_obs::Obs::enabled();
        let cache: EvalCache<u64> = EvalCache::instrumented(obs.clone());
        cache.insert(key(1), 1);
        cache.get(&key(1));
        cache.get(&key(2));
        assert_eq!(obs.counter_value("evalcache.hits"), 1.0);
        assert_eq!(obs.counter_value("evalcache.misses"), 1.0);
        assert_eq!(obs.counter_value("evalcache.inserts"), 1.0);
    }

    #[test]
    fn clones_share_entries() {
        let cache: EvalCache<u64> = EvalCache::new();
        let clone = cache.clone();
        clone.insert(key(7), 7);
        assert_eq!(*cache.get(&key(7)).unwrap(), 7);
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let cache: EvalCache<u64> = EvalCache::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    for n in 0..64 {
                        cache.insert(key(t * 1000 + n), n);
                        cache.get(&key(t * 1000 + n));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8 * 64);
        assert_eq!(cache.stats().hits, 8 * 64);
    }
}
