//! Assembly: one call builds every dataset the study consumes.

use crate::addressing::Addressing;
use crate::bandwidth;
use crate::cables;
use crate::cdn;
use crate::config::{windows, WorldConfig};
use crate::dns::{self, DnsWorld};
use crate::economy::Economy;
use crate::facilities::PeeringDbBuilder;
use crate::operators::Operators;
use crate::topology::TopologyBuilder;
use crate::websites;
use lacnet_bgp::{ConeCache, PfxToAs, TopologyArchive};
use lacnet_mlab::aggregate::MonthlyAggregator;
use lacnet_offnets::certs::CertScan;
use lacnet_peeringdb::SnapshotArchive;
use lacnet_telegeo::CableMap;
use lacnet_types::{sweep, MonthStamp};
use lacnet_webmeas::CountryTopSites;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Memoises the per-month announced-prefix tables.
///
/// Deriving a month's [`PfxToAs`] runs a valley-free visibility pass over
/// that month's topology, and Fig. 2, Fig. 14 and the dataset export all
/// walk the same window. The cache guarantees each month is computed at
/// most once per process, even when sweeps race from several threads:
/// each month owns a [`OnceLock`] slot, so two threads asking for the
/// *same* month serialise on its initialiser while *different* months
/// still compute concurrently.
#[derive(Default)]
pub struct SnapshotCache {
    slots: RwLock<BTreeMap<MonthStamp, Arc<OnceLock<Arc<PfxToAs>>>>>,
    computations: AtomicUsize,
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table for `month`, computing it with `compute` on first use.
    pub fn get_or_compute(
        &self,
        month: MonthStamp,
        compute: impl FnOnce() -> PfxToAs,
    ) -> Arc<PfxToAs> {
        let slot = {
            let slots = self.slots.read().expect("pfx2as cache lock poisoned");
            slots.get(&month).cloned()
        };
        let slot = match slot {
            Some(slot) => slot,
            None => {
                let mut slots = self.slots.write().expect("pfx2as cache lock poisoned");
                slots.entry(month).or_default().clone()
            }
        };
        slot.get_or_init(|| {
            self.computations.fetch_add(1, Ordering::Relaxed);
            Arc::new(compute())
        })
        .clone()
    }

    /// How many tables have actually been computed (not served from
    /// cache) so far.
    pub fn computations(&self) -> usize {
        self.computations.load(Ordering::Relaxed)
    }
}

/// A fully generated world: every dataset of the study, consistent with
/// one macro-economy and one seed.
pub struct World {
    /// The configuration it was generated from.
    pub config: WorldConfig,
    /// The scenario it was generated under (the default is the paper's
    /// Venezuela storyline — see [`crate::scenario::Scenario::venezuela`]).
    pub scenario: crate::scenario::Scenario,
    /// The macro-economy (Fig. 1, Fig. 13).
    pub economy: Economy,
    /// The operator cast, as2org mapping and APNIC-style populations.
    pub operators: Operators,
    /// Monthly AS-relationship snapshots since 1998 (Figs. 8, 9).
    pub topology: TopologyArchive,
    /// The allocation ledger and announcement policy (Figs. 2, 14).
    pub addressing: Addressing,
    /// Monthly PeeringDB snapshots since 2018-04 (Figs. 3, 10, 15, 21).
    pub peeringdb: SnapshotArchive,
    /// The submarine cable map (Fig. 4).
    pub cables: CableMap,
    /// Probes, root deployment and GPDNS sites (Figs. 6, 12, 16, 17, 20).
    pub dns: DnsWorld,
    /// The streamed M-Lab aggregation (Fig. 11).
    pub mlab: MonthlyAggregator,
    /// Yearly TLS scans 2013–2021 (Figs. 7, 18).
    pub cert_scans: Vec<CertScan>,
    /// Top-site scrapes, January 2024 (Fig. 19).
    pub top_sites: Vec<CountryTopSites>,
    /// Shared per-month pfx2as tables (see [`SnapshotCache`]); public so
    /// a consumer that takes the world apart keeps them warm.
    pub pfx2as_cache: SnapshotCache,
    /// Shared per-`(month, asn)` customer cones (see
    /// [`lacnet_bgp::ConeCache`]); public for the same reason.
    pub cone_cache: ConeCache,
}

/// The study's focal AS: CANTV (AS8048), whose cones and degrees the
/// Fig. 8/9 analytics, [`World::prewarm`] and the dataset export all read.
pub const FOCAL_AS: lacnet_types::Asn = lacnet_types::Asn(8048);

impl World {
    /// Generate the world. Deterministic in `config.seed` — every builder
    /// is a pure function of the config, so running the independent ones
    /// on separate threads yields a byte-identical world.
    pub fn generate(config: WorldConfig) -> World {
        Self::generate_with(config, crate::scenario::Scenario::venezuela())
    }

    /// [`World::generate`] under an explicit scenario: the overlays reach
    /// every builder (economy anchors, transit withdrawals, IXP buildouts,
    /// cable failures, NDT volume factors, blackout schedules). The
    /// default scenario's overlays are exactly the historical record, so
    /// `generate_with(c, Scenario::venezuela())` is byte-identical to
    /// `generate(c)`.
    pub fn generate_with(config: WorldConfig, scenario: crate::scenario::Scenario) -> World {
        // Phase 1: the two roots every other dataset derives from.
        let (economy, operators) = sweep::join2(
            || Economy::generate_with(config.economy_start, config.end, &scenario.gdp_anchors),
            || Operators::generate(config.seed),
        );
        // Phase 2: the eight datasets, each a function of the roots, the
        // config and the scenario alone.
        let scenario_ref = &scenario;
        let (topology, addressing, peeringdb, cables, dns, mlab, cert_scans, top_sites) =
            std::thread::scope(|s| {
                let topology = s.spawn(|| {
                    TopologyBuilder::new(&operators, &economy)
                        .with_scenario(scenario_ref)
                        .build(windows::serial1_start(), config.end)
                });
                let addressing = s.spawn(|| Addressing::generate(&operators, &economy));
                let peeringdb = s.spawn(|| {
                    PeeringDbBuilder::new(&operators)
                        .with_scenario(scenario_ref)
                        .build(windows::peeringdb_start(), config.end)
                });
                let cables = s.spawn(|| cables::build_cable_map_with(&scenario_ref.cable_failures));
                let dns = s.spawn(|| dns::build_dns_world(config.seed));
                let mlab = s.spawn(|| {
                    bandwidth::build_aggregate_scenario(
                        &operators,
                        &config,
                        scenario_ref,
                        windows::mlab_start(),
                        config.end,
                    )
                });
                let cert_scans = s.spawn(|| cdn::build_cert_scans(&operators));
                let top_sites = s.spawn(|| websites::build_top_sites(config.seed));
                (
                    topology.join().expect("topology builder panicked"),
                    addressing.join().expect("addressing builder panicked"),
                    peeringdb.join().expect("peeringdb builder panicked"),
                    cables.join().expect("cable builder panicked"),
                    dns.join().expect("dns builder panicked"),
                    mlab.join().expect("mlab builder panicked"),
                    cert_scans.join().expect("cert-scan builder panicked"),
                    top_sites.join().expect("top-site builder panicked"),
                )
            });
        World {
            config,
            scenario,
            economy,
            operators,
            topology,
            addressing,
            peeringdb,
            cables,
            dns,
            mlab,
            cert_scans,
            top_sites,
            pfx2as_cache: SnapshotCache::default(),
            cone_cache: ConeCache::new(),
        }
    }

    /// The announced-prefix table for `month`, filtered by valley-free
    /// visibility over that month's topology.
    ///
    /// Tables are memoised: across Fig. 2, Fig. 14, the dataset export
    /// and any number of threads, each month is derived at most once per
    /// process (see [`Self::pfx2as_computations`]).
    pub fn pfx2as_at(&self, month: MonthStamp) -> Arc<PfxToAs> {
        self.pfx2as_cache
            .get_or_compute(month, || self.pfx2as_uncached(month))
    }

    /// Derive `month`'s table from scratch, bypassing the cache. The
    /// reference implementation [`Self::pfx2as_at`] is checked against,
    /// and the baseline the ablation benches measure.
    pub fn pfx2as_uncached(&self, month: MonthStamp) -> PfxToAs {
        match self.topology.get(month) {
            Some(graph) => self.addressing.pfx2as_at(month, graph),
            None => PfxToAs::new(),
        }
    }

    /// How many months have actually been derived (cache misses) so far.
    pub fn pfx2as_computations(&self) -> usize {
        self.pfx2as_cache.computations()
    }

    /// The customer cone of `asn` in `month`'s topology snapshot,
    /// memoised in the shared [`ConeCache`]: each `(month, asn)` pair
    /// walks the graph at most once per process, however many experiments
    /// or worker threads ask (see [`Self::cone_computations`]). A month
    /// outside the archive yields the singleton `{asn}`, matching
    /// `customer_cone` on a graph that lacks the AS.
    pub fn customer_cone_at(
        &self,
        month: MonthStamp,
        asn: lacnet_types::Asn,
    ) -> Arc<std::collections::BTreeSet<lacnet_types::Asn>> {
        self.cone_cache
            .get_or_compute(month, asn, || self.customer_cone_uncached(month, asn))
    }

    /// Compute `asn`'s cone at `month` from scratch, bypassing the cache.
    /// The reference [`Self::customer_cone_at`] is checked against, and
    /// the baseline the ablation benches measure.
    pub fn customer_cone_uncached(
        &self,
        month: MonthStamp,
        asn: lacnet_types::Asn,
    ) -> std::collections::BTreeSet<lacnet_types::Asn> {
        match self.topology.get(month) {
            Some(graph) => graph.customer_cone(asn),
            None => std::collections::BTreeSet::from([asn]),
        }
    }

    /// How many cones have actually been computed (cache misses) so far.
    pub fn cone_computations(&self) -> usize {
        self.cone_cache.computations()
    }

    /// `asn`'s cone size for every month of the topology archive, served
    /// through the cache on sweep workers — the memoised counterpart of
    /// [`lacnet_bgp::analytics::cone_size_series`].
    pub fn cone_size_series(&self, asn: lacnet_types::Asn) -> lacnet_types::TimeSeries {
        let months: Vec<MonthStamp> = self.topology.iter().map(|(m, _)| m).collect();
        sweep::months_sweep(&months, |m| self.customer_cone_at(m, asn).len() as f64)
            .into_iter()
            .collect()
    }

    /// Fill the per-month caches across worker threads so later sweeps
    /// and experiments hit warm state. Covers the full cache set:
    ///
    /// * **pfx2as tables** for every month in `[start, end]` (Figs. 2 and
    ///   14, dataset export);
    /// * **customer cones** of the focal AS ([`FOCAL_AS`], CANTV) for
    ///   every month of the topology archive (Figs. 8 and 9).
    ///
    /// Entries already cached are not recomputed, so repeated prewarms
    /// are no-ops.
    pub fn prewarm(&self, start: MonthStamp, end: MonthStamp) {
        sweep::join2(
            || {
                sweep::month_range(start, end, |m| {
                    self.pfx2as_at(m);
                });
            },
            || {
                self.cone_size_series(FOCAL_AS);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    /// Generation takes seconds, so the module's tests share one world.
    fn test_world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test()))
    }

    #[test]
    fn world_generates_consistently() {
        let world = test_world();
        // Every dataset is populated.
        assert!(!world.topology.is_empty());
        assert!(!world.peeringdb.is_empty());
        assert!(!world.cables.is_empty());
        assert!(!world.dns.probes.is_empty());
        assert!(world.mlab.group_count() > 1000);
        assert_eq!(world.cert_scans.len(), 9);
        assert_eq!(world.top_sites.len(), 9);
        // Cross-dataset consistency: CANTV appears in the topology, the
        // ledger, the M-Lab aggregate's country and the populations.
        let m = MonthStamp::new(2020, 6);
        assert!(world
            .topology
            .get(m)
            .unwrap()
            .contains(lacnet_types::Asn(8048)));
        assert!(
            world
                .addressing
                .ledger()
                .space_of_holder(lacnet_types::Asn(8048), m.last_day())
                > 0
        );
        assert!(world.mlab.test_count_for(country::VE) > 0);
        let table = world.pfx2as_at(m);
        assert!(!table.prefixes_of(lacnet_types::Asn(8048)).is_empty());
    }

    #[test]
    fn pfx2as_matches_per_origin_propagation_every_month() {
        // The reference keeps a prefix when its origin's own valley-free
        // propagation reaches a tier-1 collector. The tier-1s top a full
        // peering mesh, so they alone never exercise the provider walk or
        // the peer hop of `heard_by`; Venezuela's eyeball ASes, as a
        // second vantage set, do.
        use lacnet_bgp::propagation::RouteSim;
        use lacnet_bgp::OriginSet;
        use lacnet_types::Asn;
        use std::collections::BTreeSet;
        let world = test_world();
        let collectors = TopologyBuilder::collectors();
        let domestic: Vec<Asn> = world
            .operators
            .eyeballs(country::VE)
            .iter()
            .map(|o| o.asn)
            .collect();
        let months: Vec<MonthStamp> = world.topology.iter().map(|(m, _)| m).collect();
        let mismatched = sweep::months_sweep(&months, |m| {
            let graph = world.topology.get(m).expect("snapshot");
            let sim = RouteSim::new(graph);
            let announced = world.addressing.announced_prefixes(m);
            let origins: BTreeSet<Asn> = announced
                .iter()
                .map(|&(_, o)| o)
                .filter(|&o| graph.contains(o))
                .collect();
            let outcomes: BTreeMap<Asn, _> =
                origins.iter().map(|&o| (o, sim.propagate(o))).collect();
            let heard_at = |vantage: &[Asn]| -> BTreeSet<Asn> {
                origins
                    .iter()
                    .copied()
                    .filter(|o| outcomes[o].visibility(vantage) > 0.0)
                    .collect()
            };
            let mut reference = PfxToAs::new();
            let tier1 = heard_at(&collectors);
            for (prefix, origin) in announced {
                if tier1.contains(&origin) {
                    reference.insert(prefix, OriginSet::single(origin));
                }
            }
            let domestic_heard: BTreeSet<Asn> = sim
                .heard_by(&domestic)
                .intersection(&origins)
                .copied()
                .collect();
            world.addressing.pfx2as_at(m, graph).to_text() != reference.to_text()
                || domestic_heard != heard_at(&domestic)
        });
        let bad: Vec<String> = mismatched
            .into_iter()
            .filter(|(_, b)| *b)
            .map(|(m, _)| m.to_string())
            .collect();
        assert!(
            bad.is_empty(),
            "months differing from the reference: {bad:?}"
        );
    }

    #[test]
    fn pfx2as_cache_computes_each_month_at_most_once() {
        // The shared world's counter also counts the months other tests
        // derive concurrently, so the eight threads race on a cache of
        // their own and leave the world's counters alone. (The world's
        // accessor against the uncached derivation is covered by
        // tests/parallel_equivalence.rs.)
        let world = test_world();
        let cache = SnapshotCache::new();
        let m = MonthStamp::new(2019, 3);
        let fresh = world.pfx2as_uncached(m);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.get_or_compute(m, || world.pfx2as_uncached(m)));
            }
        });
        assert_eq!(
            cache.computations(),
            1,
            "eight concurrent requests must share one computation"
        );
        // Served again from the cache: no further computation.
        let cached = cache.get_or_compute(m, || unreachable!("served from cache"));
        assert_eq!(cached.to_text(), fresh.to_text());
        assert_eq!(cache.computations(), 1);
    }

    #[test]
    fn prewarm_covers_the_range_without_duplicates() {
        let world = test_world();
        let start = MonthStamp::new(2010, 1);
        let end = MonthStamp::new(2010, 12);
        world.prewarm(start, end);
        let after = world.pfx2as_computations();
        let cones_after = world.cone_computations();
        // A second prewarm of the same window is a no-op for both caches.
        world.prewarm(start, end);
        assert_eq!(world.pfx2as_computations(), after);
        assert_eq!(world.cone_computations(), cones_after);
        assert!(!world.pfx2as_at(MonthStamp::new(2010, 6)).is_empty());
        // The cone side warms the focal AS across the whole archive.
        let before = world.cone_computations();
        world.cone_size_series(FOCAL_AS);
        assert_eq!(world.cone_computations(), before);
    }

    #[test]
    fn cone_cache_computes_each_key_at_most_once() {
        // As above: a cache of its own, since the prewarm test walks the
        // focal AS's cones on the shared world concurrently.
        let world = test_world();
        let cache = ConeCache::new();
        let m = MonthStamp::new(2012, 5);
        let fresh = world.customer_cone_uncached(m, FOCAL_AS);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.get_or_compute(m, FOCAL_AS, || world.customer_cone_uncached(m, FOCAL_AS))
                });
            }
        });
        assert_eq!(
            cache.computations(),
            1,
            "eight concurrent requests must share one cone walk"
        );
        // Served again from the cache: no further computation.
        let cached = cache.get_or_compute(m, FOCAL_AS, || unreachable!("served from cache"));
        assert_eq!(*cached, fresh);
        assert_eq!(cache.computations(), 1);
        // Outside the archive: the singleton, like an unknown AS.
        let outside = MonthStamp::new(1901, 1);
        assert_eq!(
            *world.customer_cone_at(outside, FOCAL_AS),
            std::collections::BTreeSet::from([FOCAL_AS])
        );
    }
}
