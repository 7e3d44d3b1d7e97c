//! Shared memoization of customer cones across sweep workers.
//!
//! The Fig. 8/9 analytics walk [`AsGraph::customer_cone`] for the same
//! `(month, asn)` pairs from many places — degree panels, transit
//! heatmaps, prewarming, dataset export — and, under
//! `lacnet_types::sweep`, from many racing worker threads at once.
//! [`ConeCache`] memoizes each cone the same way the crisis crate's
//! `SnapshotCache` memoizes pfx2as tables: a slot map under a read-write
//! lock, with a `OnceLock` per key so each cone BFS runs **at most once
//! per process** no matter how many workers ask for it concurrently.
//! Distinct keys still compute in parallel.
//!
//! The cache also memoizes the two other per-`(month, asn)` walks the
//! battery repeats: the transit-neighbour sets behind the Fig. 9
//! presence matrix and transit-degree series, and the [`PathOutcome`]
//! route trees the inference extension recomputes per origin.

use crate::graph::AsGraph;
use crate::paths::PathOutcome;
use lacnet_types::{Asn, MonthStamp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A keyed compute-at-most-once store: one `OnceLock` per key, a counter
/// of actual computations. The building block behind every memo here.
struct SlotMap<K, V> {
    #[allow(clippy::type_complexity)]
    slots: RwLock<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>,
    computations: AtomicUsize,
}

impl<K, V> Default for SlotMap<K, V> {
    fn default() -> Self {
        SlotMap {
            slots: RwLock::new(BTreeMap::new()),
            computations: AtomicUsize::new(0),
        }
    }
}

impl<K: Ord + Clone, V> SlotMap<K, V> {
    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let slots = self.slots.read().expect("cone cache lock poisoned");
            slots.get(&key).cloned()
        };
        let slot = match slot {
            Some(slot) => slot,
            None => {
                let mut slots = self.slots.write().expect("cone cache lock poisoned");
                slots.entry(key).or_default().clone()
            }
        };
        slot.get_or_init(|| {
            self.computations.fetch_add(1, Ordering::Relaxed);
            Arc::new(compute())
        })
        .clone()
    }

    fn computations(&self) -> usize {
        self.computations.load(Ordering::Relaxed)
    }
}

/// The transit neighbourhood of one AS in one snapshot: who provides to
/// it and who buys from it — the row ingredients of the Fig. 9 presence
/// matrix and the terms of the transit-degree series.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransitNeighbors {
    /// Providers of the AS in this snapshot.
    pub providers: BTreeSet<Asn>,
    /// Customers of the AS in this snapshot.
    pub customers: BTreeSet<Asn>,
}

/// Thread-safe, compute-at-most-once cache of per-`(month, asn)` graph
/// walks: customer cones, transit neighbourhoods, and path outcomes.
#[derive(Default)]
pub struct ConeCache {
    cones: SlotMap<(MonthStamp, Asn), BTreeSet<Asn>>,
    degrees: SlotMap<(MonthStamp, Asn), TransitNeighbors>,
    paths: SlotMap<(MonthStamp, Asn), PathOutcome>,
}

impl ConeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The customer cone of `asn` in `graph` (the snapshot for `month`),
    /// computing it on first use and serving the shared result afterwards.
    ///
    /// The caller vouches that `graph` *is* the `month` snapshot — the
    /// cache keys on the month stamp, not the graph contents, exactly as
    /// the pfx2as `SnapshotCache` keys on the month of the table it
    /// derives.
    pub fn cone(&self, month: MonthStamp, graph: &AsGraph, asn: Asn) -> Arc<BTreeSet<Asn>> {
        self.get_or_compute(month, asn, || graph.customer_cone(asn))
    }

    /// The cone for `(month, asn)`, computing it with `compute` on first
    /// use.
    pub fn get_or_compute(
        &self,
        month: MonthStamp,
        asn: Asn,
        compute: impl FnOnce() -> BTreeSet<Asn>,
    ) -> Arc<BTreeSet<Asn>> {
        self.cones.get_or_compute((month, asn), compute)
    }

    /// How many cones have actually been computed (not served from cache)
    /// so far.
    pub fn computations(&self) -> usize {
        self.cones.computations()
    }

    /// The transit neighbourhood of `asn` in the `month` snapshot,
    /// computed at most once per key. Same month/graph contract as
    /// [`cone`](ConeCache::cone).
    pub fn transit_neighbors(
        &self,
        month: MonthStamp,
        graph: &AsGraph,
        asn: Asn,
    ) -> Arc<TransitNeighbors> {
        self.degrees
            .get_or_compute((month, asn), || TransitNeighbors {
                providers: graph.providers(asn),
                customers: graph.customers(asn),
            })
    }

    /// The [`PathOutcome`] for `origin` in the `month` snapshot, computed
    /// at most once per key — the inference extension replays the same
    /// origins across runs, so the route trees are shared.
    pub fn paths(&self, month: MonthStamp, graph: &AsGraph, origin: Asn) -> Arc<PathOutcome> {
        self.paths
            .get_or_compute((month, origin), || PathOutcome::compute(graph, origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::{AsRelationship, RelEdge};
    use lacnet_types::sweep;

    fn chain_graph() -> AsGraph {
        // 1 → 2 → 3 (p2c chain): cone(1) = {1,2,3}.
        AsGraph::from_edges([
            RelEdge {
                a: Asn(1),
                b: Asn(2),
                rel: AsRelationship::ProviderToCustomer,
            },
            RelEdge {
                a: Asn(2),
                b: Asn(3),
                rel: AsRelationship::ProviderToCustomer,
            },
        ])
    }

    #[test]
    fn serves_identical_cones_and_computes_once() {
        let g = chain_graph();
        let cache = ConeCache::new();
        let m = MonthStamp::new(2020, 1);
        let first = cache.cone(m, &g, Asn(1));
        assert_eq!(*first, g.customer_cone(Asn(1)));
        let again = cache.cone(m, &g, Asn(1));
        assert!(Arc::ptr_eq(&first, &again), "second hit shares the Arc");
        assert_eq!(cache.computations(), 1);
        // A different month or AS is a different key.
        cache.cone(MonthStamp::new(2020, 2), &g, Asn(1));
        cache.cone(m, &g, Asn(2));
        assert_eq!(cache.computations(), 3);
    }

    #[test]
    fn unknown_as_behaves_like_the_graph() {
        let g = chain_graph();
        let cache = ConeCache::new();
        let m = MonthStamp::new(2020, 1);
        assert_eq!(
            *cache.cone(m, &g, Asn(999)),
            BTreeSet::from([Asn(999)]),
            "unknown AS cones are the singleton, as customer_cone defines"
        );
    }

    #[test]
    fn racing_workers_compute_each_key_once() {
        let g = chain_graph();
        let cache = ConeCache::new();
        let m = MonthStamp::new(2020, 1);
        let hits: Vec<Asn> = (0..64).map(|i| Asn(1 + (i % 2))).collect();
        let cones = sweep::parallel_map_with(8, &hits, |&asn| cache.cone(m, &g, asn));
        for (asn, cone) in hits.iter().zip(&cones) {
            assert_eq!(**cone, g.customer_cone(*asn));
        }
        assert_eq!(cache.computations(), 2, "two distinct keys, two BFS runs");
    }

    #[test]
    fn transit_neighbors_match_graph_and_compute_once() {
        let g = chain_graph();
        let cache = ConeCache::new();
        let m = MonthStamp::new(2020, 1);
        let n = cache.transit_neighbors(m, &g, Asn(2));
        assert_eq!(n.providers, g.providers(Asn(2)));
        assert_eq!(n.customers, g.customers(Asn(2)));
        let again = cache.transit_neighbors(m, &g, Asn(2));
        assert!(Arc::ptr_eq(&n, &again));
        assert_eq!(cache.degrees.computations(), 1);
        // Independent of the cone memo's counter.
        assert_eq!(cache.computations(), 0);
    }

    #[test]
    fn paths_memo_matches_direct_compute() {
        let g = chain_graph();
        let cache = ConeCache::new();
        let m = MonthStamp::new(2020, 1);
        let memo = cache.paths(m, &g, Asn(3));
        assert_eq!(
            memo.all_paths(),
            PathOutcome::compute(&g, Asn(3)).all_paths()
        );
        let again = cache.paths(m, &g, Asn(3));
        assert!(Arc::ptr_eq(&memo, &again));
        assert_eq!(cache.paths.computations(), 1);
    }
}
