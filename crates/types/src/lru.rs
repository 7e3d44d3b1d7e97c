//! A bounded least-recently-used cache with single-flight computation.
//!
//! Built for the `lacnet-serve` response cache: endpoint responses are
//! keyed on `(endpoint, query, archive fingerprint)` so that a re-dump —
//! which rewrites `mlab/manifest.tsv` and therefore changes the
//! fingerprint — invalidates every stale entry naturally, and
//! [`LruCache::evict_where`] lets the owner sweep dead generations out
//! eagerly.
//!
//! Concurrency contract: [`LruCache::get_or_compute`] is *single-flight*.
//! When N threads ask for the same absent key at once, exactly one runs
//! the compute closure (outside the lock); the rest block on a condvar
//! and are served the finished value as cache hits. If the computing
//! thread panics — or, through [`LruCache::get_or_try_compute`], returns
//! an uncacheable error — its pending reservation is rolled back and the
//! waiters retry, so a failed computation never wedges the cache and is
//! never cached.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// One cache slot: either a finished value or a reservation held by the
/// thread currently computing it.
enum Slot<V> {
    /// A computation is in flight; waiters sleep on the condvar.
    Pending,
    /// A finished value.
    Ready(V),
}

struct Entry<V> {
    slot: Slot<V>,
    /// Logical timestamp of the last touch (insert or hit); the ready
    /// entry with the smallest `used` is the eviction victim.
    used: u64,
}

struct Inner<K, V> {
    entries: BTreeMap<K, Entry<V>>,
    tick: u64,
}

impl<K: Ord, V> Inner<K, V> {
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn ready_len(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e.slot, Slot::Ready(_)))
            .count()
    }

    /// Drop least-recently-used *ready* entries until at most `capacity`
    /// remain. Pending reservations are never evicted — they complete
    /// first and then compete for space like any other entry.
    fn evict_to(&mut self, capacity: usize)
    where
        K: Clone,
    {
        while self.ready_len() > capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                }
                None => break,
            }
        }
    }
}

/// A thread-safe LRU cache of `capacity` ready values.
pub struct LruCache<K, V> {
    shared: Mutex<Inner<K, V>>,
    ready: Condvar,
    capacity: usize,
}

impl<K: Ord + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `capacity` values (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be at least 1");
        LruCache {
            shared: Mutex::new(Inner {
                entries: BTreeMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready values currently held.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("lru lock").ready_len()
    }

    /// Whether the cache holds no ready values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value for `key`, bumping its recency. Pending reservations are
    /// invisible to `get` — it never blocks.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.shared.lock().expect("lru lock");
        let tick = inner.bump();
        match inner.entries.get_mut(key) {
            Some(entry) => match &entry.slot {
                Slot::Ready(v) => {
                    let v = v.clone();
                    entry.used = tick;
                    Some(v)
                }
                Slot::Pending => None,
            },
            None => None,
        }
    }

    /// Insert (or overwrite) a ready value, evicting the least-recently
    /// used entries if the cache overflows.
    pub fn insert(&self, key: K, value: V) {
        let mut inner = self.shared.lock().expect("lru lock");
        let tick = inner.bump();
        inner.entries.insert(
            key,
            Entry {
                slot: Slot::Ready(value),
                used: tick,
            },
        );
        inner.evict_to(self.capacity);
        // An overwrite may have replaced a pending reservation some other
        // thread is waiting on; wake them so they observe the value.
        self.ready.notify_all();
    }

    /// The value for `key`, computing it with `compute` on a miss.
    ///
    /// Returns `(value, served_from_cache)`: `true` both for plain hits
    /// and for threads that waited on another thread's in-flight
    /// computation of the same key — exactly one closure runs per
    /// residency of a key, no matter how many threads race for it.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        match self.get_or_try_compute(key, || Ok::<V, std::convert::Infallible>(compute())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// [`LruCache::get_or_compute`] for computations whose result may be
    /// *uncacheable*: an `Err` from `compute` is handed back to its caller
    /// and never stored. The reservation is released, so threads that
    /// were waiting on it retry — one of them computes next — and a
    /// failure is never served to a later request as a hit.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        {
            let mut inner = self.shared.lock().expect("lru lock");
            loop {
                let tick = inner.bump();
                match inner.entries.get_mut(&key) {
                    Some(entry) => match &entry.slot {
                        Slot::Ready(v) => {
                            let v = v.clone();
                            entry.used = tick;
                            return Ok((v, true));
                        }
                        Slot::Pending => {
                            inner = self.ready.wait(inner).expect("lru lock");
                        }
                    },
                    None => {
                        inner.entries.insert(
                            key.clone(),
                            Entry {
                                slot: Slot::Pending,
                                used: tick,
                            },
                        );
                        break;
                    }
                }
            }
        }

        // Compute outside the lock. The guard rolls the reservation back
        // if `compute` panics or fails, so waiters retry instead of
        // hanging.
        let mut guard = PendingGuard {
            cache: self,
            key: &key,
            armed: true,
        };
        let value = compute()?;
        guard.armed = false;
        let mut inner = self.shared.lock().expect("lru lock");
        let tick = inner.bump();
        inner.entries.insert(
            key.clone(),
            Entry {
                slot: Slot::Ready(value.clone()),
                used: tick,
            },
        );
        inner.evict_to(self.capacity);
        drop(inner);
        self.ready.notify_all();
        Ok((value, false))
    }

    /// Remove every ready entry whose key matches `pred` (pending
    /// reservations complete normally). This is the fingerprint
    /// invalidation hook: after an archive refresh, evict everything
    /// keyed on the superseded fingerprint.
    pub fn evict_where(&self, pred: impl Fn(&K) -> bool) {
        let mut inner = self.shared.lock().expect("lru lock");
        inner
            .entries
            .retain(|k, e| matches!(e.slot, Slot::Pending) || !pred(k));
    }

    /// Drop every ready entry.
    pub fn clear(&self) {
        self.evict_where(|_| true);
    }
}

/// Rollback handle for an in-flight reservation; disarmed once the value
/// lands, so a panicking or failing computation releases its slot.
struct PendingGuard<'c, K: Ord + Clone, V: Clone> {
    cache: &'c LruCache<K, V>,
    key: &'c K,
    armed: bool,
}

impl<K: Ord + Clone, V: Clone> Drop for PendingGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Ok(mut inner) = self.cache.shared.lock() {
            if let Some(entry) = inner.entries.get(self.key) {
                if matches!(entry.slot, Slot::Pending) {
                    inner.entries.remove(self.key);
                }
            }
        }
        self.cache.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Ready keys ordered least- to most-recently used — the eviction
    /// order the tests check against a model.
    fn keys_by_recency<K: Ord + Clone, V: Clone>(cache: &LruCache<K, V>) -> Vec<K> {
        let inner = cache.shared.lock().expect("lru lock");
        let mut keys: Vec<(u64, K)> = inner
            .entries
            .iter()
            .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
            .map(|(k, e)| (e.used, k.clone()))
            .collect();
        keys.sort_by_key(|(used, _)| *used);
        keys.into_iter().map(|(_, k)| k).collect()
    }

    #[test]
    fn capacity_bound_holds() {
        let cache = LruCache::new(3);
        for i in 0..10 {
            cache.insert(i, i * 10);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(keys_by_recency(&cache), vec![7, 8, 9]);
        assert_eq!(cache.get(&9), Some(90));
        assert_eq!(cache.get(&0), None, "oldest entries were evicted");
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(cache.get(&"a"), Some(1));
        cache.insert("c", 3);
        assert_eq!(cache.get(&"b"), None, "b was least recently used");
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"c"), Some(3));
    }

    #[test]
    fn eviction_order_is_lru_to_mru() {
        let cache = LruCache::new(4);
        for k in ["w", "x", "y", "z"] {
            cache.insert(k, ());
        }
        cache.get(&"w");
        cache.get(&"y");
        assert_eq!(keys_by_recency(&cache), vec!["x", "z", "w", "y"]);
    }

    #[test]
    fn get_or_compute_hits_and_misses() {
        let cache = LruCache::new(8);
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            42
        };
        assert_eq!(cache.get_or_compute("k", compute), (42, false));
        assert_eq!(cache.get_or_compute("k", compute), (42, true));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fingerprint_change_invalidates() {
        // The serve cache keys on (endpoint, fingerprint); a re-dump
        // changes the fingerprint and the old generation gets swept.
        let cache = LruCache::new(8);
        cache.insert(("fig11", "fp-old"), 1);
        cache.insert(("tab01", "fp-old"), 2);
        cache.insert(("fig11", "fp-new"), 3);
        cache.evict_where(|&(_, fp)| fp != "fp-new");
        assert_eq!(cache.get(&("fig11", "fp-old")), None);
        assert_eq!(cache.get(&("tab01", "fp-old")), None);
        assert_eq!(cache.get(&("fig11", "fp-new")), Some(3));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = LruCache::new(4);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn single_flight_under_contention() {
        let cache = Arc::new(LruCache::new(4));
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            handles.push(std::thread::spawn(move || {
                cache.get_or_compute("hot", || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // Give the other threads time to pile onto the
                    // pending reservation.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    7
                })
            }));
        }
        let results: Vec<(i32, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one compute");
        assert!(results.iter().all(|&(v, _)| v == 7));
        assert_eq!(
            results.iter().filter(|&&(_, hit)| !hit).count(),
            1,
            "exactly one caller reports a miss"
        );
    }

    #[test]
    fn panicking_compute_rolls_back_the_reservation() {
        let cache = Arc::new(LruCache::new(4));
        let c2 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute("k", || -> i32 { panic!("compute failed") })
            }));
            assert!(result.is_err());
        });
        panicker.join().unwrap();
        // The cache is not wedged: the next caller computes fresh.
        assert_eq!(cache.get_or_compute("k", || 5), (5, false));
    }

    #[test]
    fn failed_compute_is_not_cached_and_waiters_retry() {
        let cache = Arc::new(LruCache::new(4));
        // A failure is returned to its caller and leaves no entry.
        assert_eq!(
            cache.get_or_try_compute("k", || Err::<i32, &str>("disk")),
            Err("disk")
        );
        assert!(cache.is_empty());
        // Waiters piled onto a failing computation retry: exactly one of
        // them computes the value everybody then receives.
        let calls = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                std::thread::spawn(move || {
                    cache.get_or_try_compute("w", || {
                        let n = calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        if n == 0 {
                            Err("first attempt fails")
                        } else {
                            Ok(9)
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        assert!(results.iter().flatten().all(|&(v, _)| v == 9));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one failure, one success");
        assert_eq!(cache.get(&"w"), Some(9));
    }

    proptest! {
        #[test]
        fn matches_a_reference_model(ops in proptest::collection::vec((0u8..3, 0u64..12), 1..120),
                                     capacity in 1usize..6) {
            // Replay inserts/gets against a naive model that tracks the
            // same recency rule; the cache must agree on membership and
            // eviction order at every step.
            let cache = LruCache::new(capacity);
            let mut model: Vec<(u64, u64)> = Vec::new(); // (key, value) LRU→MRU
            for (op, key) in ops {
                match op {
                    0 => {
                        model.retain(|&(k, _)| k != key);
                        model.push((key, key * 3));
                        if model.len() > capacity {
                            model.remove(0);
                        }
                        cache.insert(key, key * 3);
                    }
                    1 => {
                        let expected = model.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
                        if expected.is_some() {
                            let entry = model.iter().position(|&(k, _)| k == key).unwrap();
                            let moved = model.remove(entry);
                            model.push(moved);
                        }
                        prop_assert_eq!(cache.get(&key), expected);
                    }
                    _ => {
                        let in_model = model.iter().any(|&(k, _)| k == key);
                        let (v, hit) = cache.get_or_compute(key, || key * 3);
                        prop_assert_eq!(hit, in_model);
                        prop_assert_eq!(v, key * 3);
                        model.retain(|&(k, _)| k != key);
                        model.push((key, key * 3));
                        if model.len() > capacity {
                            model.remove(0);
                        }
                    }
                }
                prop_assert_eq!(
                    keys_by_recency(&cache),
                    model.iter().map(|&(k, _)| k).collect::<Vec<_>>()
                );
            }
        }
    }
}
