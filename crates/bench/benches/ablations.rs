//! The DESIGN.md ablations: measure the design choices the pipeline makes.
//!
//! 1. prefix trie vs linear scan for pfx2as longest-prefix lookups;
//! 2. streaming P² quantiles vs exact sort for month-country medians;
//! 3. valley-free propagation vs naive "connected component" visibility,
//!    and the pfx2as collector check as one reverse closure vs one
//!    propagation per origin;
//! 4. anycast catchment with vs without egress-detour awareness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lacnet_atlas::{AnycastFleet, AnycastSite, SiteScope};
use lacnet_bench::bench_world;
use lacnet_bgp::propagation::RouteSim;
use lacnet_crisis::topology::TopologyBuilder;
use lacnet_types::rng::Rng;
use lacnet_types::stats::{self, P2Quantile};
use lacnet_types::{Asn, MonthStamp};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::Ipv4Addr;

/// Ablation 1 — longest-prefix match: trie vs linear scan over the
/// full 2023 pfx2as table.
fn ablation_lpm(c: &mut Criterion) {
    let world = bench_world();
    let table = world.pfx2as_at(MonthStamp::new(2023, 6));
    let entries: Vec<_> = table.iter().map(|(p, o)| (p, o.clone())).collect();
    let trie = table.build_trie();
    let mut rng = Rng::seeded(7);
    let probes: Vec<Ipv4Addr> = (0..256)
        .map(|_| Ipv4Addr::from(rng.next_u64() as u32))
        .collect();

    let mut group = c.benchmark_group("ablation_lpm");
    group.bench_function(BenchmarkId::new("trie", entries.len()), |b| {
        b.iter(|| {
            for &ip in &probes {
                black_box(trie.longest_match(black_box(ip)));
            }
        })
    });
    group.bench_function(BenchmarkId::new("linear", entries.len()), |b| {
        b.iter(|| {
            for &ip in &probes {
                let best = entries
                    .iter()
                    .filter(|(p, _)| p.contains(ip))
                    .max_by_key(|(p, _)| p.len());
                black_box(best);
            }
        })
    });
    group.finish();
}

/// Ablation 2 — median estimation: P² streaming vs exact sort, at the
/// observation counts a busy country-month sees.
fn ablation_median(c: &mut Criterion) {
    let mut rng = Rng::seeded(9);
    let samples: Vec<f64> = (0..100_000).map(|_| rng.log_normal(1.0, 0.9)).collect();

    let mut group = c.benchmark_group("ablation_median");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_function(BenchmarkId::new("p2_streaming", n), |b| {
            b.iter(|| {
                let mut p2 = P2Quantile::median();
                for &x in &samples[..n] {
                    p2.observe(x);
                }
                black_box(p2.value())
            })
        });
        group.bench_function(BenchmarkId::new("exact_sort", n), |b| {
            b.iter(|| {
                let mut buf = samples[..n].to_vec();
                black_box(stats::median(&mut buf))
            })
        });
    }
    group.finish();
}

/// Ablation 3 — visibility: valley-free propagation vs a naive
/// reachability flood that ignores export policy (the naive model
/// overstates visibility and is barely cheaper). Third arm: which of a
/// month's announcing origins the tier-1 collectors hear, as one
/// `heard_by` pass vs one `propagate` per origin (the sets are asserted
/// equal before timing).
fn ablation_visibility(c: &mut Criterion) {
    let world = bench_world();
    let month = MonthStamp::new(2020, 6);
    let graph = world.topology.get(month).expect("snapshot");
    let origins: Vec<Asn> = world
        .operators
        .eyeballs(lacnet_types::country::VE)
        .iter()
        .map(|o| o.asn)
        .filter(|a| graph.contains(*a))
        .collect();

    let collectors = TopologyBuilder::collectors();
    let announcing: BTreeSet<Asn> = world
        .addressing
        .announced_prefixes(month)
        .into_iter()
        .map(|(_, o)| o)
        .filter(|a| graph.contains(*a))
        .collect();
    let per_origin = || -> BTreeSet<Asn> {
        let sim = RouteSim::new(graph);
        announcing
            .iter()
            .copied()
            .filter(|&o| sim.propagate(o).visibility(&collectors) > 0.0)
            .collect()
    };
    let closure = || -> BTreeSet<Asn> {
        let heard = RouteSim::new(graph).heard_by(&collectors);
        announcing.intersection(&heard).copied().collect()
    };
    assert_eq!(
        closure(),
        per_origin(),
        "one reverse closure must hear exactly the per-origin set"
    );

    let mut group = c.benchmark_group("ablation_visibility");
    group.bench_function("valley_free", |b| {
        b.iter(|| {
            let sim = RouteSim::new(graph);
            for &o in &origins {
                black_box(sim.propagate(o).reach_count());
            }
        })
    });
    group.bench_function("naive_flood", |b| {
        b.iter(|| {
            // Undirected BFS over all adjacency kinds.
            for &o in &origins {
                let mut seen = std::collections::BTreeSet::new();
                let mut stack = vec![o];
                while let Some(n) = stack.pop() {
                    if !seen.insert(n) {
                        continue;
                    }
                    if let Some(adj) = graph.adjacency(n) {
                        stack.extend(adj.providers.iter());
                        stack.extend(adj.customers.iter());
                        stack.extend(adj.peers.iter());
                    }
                }
                black_box(seen.len());
            }
        })
    });
    group.bench_function("collectors_per_origin", |b| {
        b.iter(|| black_box(per_origin()))
    });
    group.bench_function("collectors_heard_by", |b| b.iter(|| black_box(closure())));
    group.finish();
}

/// Ablation 4 — anycast catchment with vs without egress awareness:
/// the detour-aware model is what produces Venezuela's Miami-shaped
/// latencies; this measures its cost.
fn ablation_catchment(c: &mut Criterion) {
    let world = bench_world();
    let probes = world.dns.probes.active_in(MonthStamp::new(2023, 6));
    let fleet = AnycastFleet::new(
        world
            .dns
            .gpdns_sites
            .iter()
            .map(|s| AnycastSite {
                id: s.id.clone(),
                location: s.location,
                scope: SiteScope::Global,
            })
            .collect(),
    );
    // The egress-blind variant strips the detours.
    let blind: Vec<_> = probes
        .iter()
        .map(|p| {
            let mut q = (*p).clone();
            q.egress = None;
            q
        })
        .collect();

    let mut group = c.benchmark_group("ablation_catchment");
    group.bench_function("egress_aware", |b| {
        b.iter(|| {
            for p in &probes {
                black_box(fleet.catch(p));
            }
        })
    });
    group.bench_function("egress_blind", |b| {
        b.iter(|| {
            for p in &blind {
                black_box(fleet.catch(p));
            }
        })
    });
    group.finish();

    // Side effect worth printing once: how many probes change catchment.
    let moved = probes
        .iter()
        .zip(&blind)
        .filter(|(a, b)| fleet.catch(a).map(|s| &s.id) != fleet.catch(b).map(|s| &s.id))
        .count();
    eprintln!(
        "[ablation_catchment] {moved} of {} probes change site without egress modelling",
        probes.len()
    );
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablation_lpm, ablation_median, ablation_visibility, ablation_catchment
);
criterion_main!(ablations);
