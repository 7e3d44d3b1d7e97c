//! Property-based tests over randomly generated valley-free topologies,
//! and the pfx2as parser and address-space reduction against the code
//! they replaced.
//!
//! The generators build arbitrary layered hierarchies (random tier sizes,
//! random provider assignments, random peering at the top) and check the
//! invariants every consumer of the propagation machinery relies on.
//!
//! The pfx2as references below are `PfxToAs::parse` as it was (the
//! standard library's `Ipv4Addr`, `u8` and `u32` parsers, one map insert
//! per line) and the per-ASN filter-sort-union address space. They live
//! only here, as oracles: the hand parser must give the same table or the
//! same error on every input, and the one-walk reduction the same sums.

#![cfg(test)]

use crate::cone::ConeCache;
use crate::graph::AsGraph;
use crate::paths::PathOutcome;
use crate::pfx2as::{OriginSet, PfxToAs};
use crate::propagation::{RouteKind, RouteSim};
use crate::relationship::RelEdge;
use lacnet_types::rng::Rng;
use lacnet_types::{Asn, Error, Ipv4Net, MonthStamp, Result};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Strategy: a random 3-layer hierarchy. Tier-1s form a full peering
/// mesh; every lower node buys transit from 1–2 random nodes one layer
/// up. ASNs are layer-coded for readability (1x, 2xx, 3xxx).
fn hierarchy_strategy() -> impl Strategy<Value = AsGraph> {
    (2usize..4, 2usize..6, 2usize..10, any::<u64>()).prop_map(|(n1, n2, n3, seed)| {
        let mut rng = lacnet_types::rng::Rng::seeded(seed);
        let t1: Vec<Asn> = (0..n1).map(|i| Asn(10 + i as u32)).collect();
        let t2: Vec<Asn> = (0..n2).map(|i| Asn(200 + i as u32)).collect();
        let t3: Vec<Asn> = (0..n3).map(|i| Asn(3000 + i as u32)).collect();
        let mut edges = Vec::new();
        for (i, &a) in t1.iter().enumerate() {
            for &b in t1.iter().skip(i + 1) {
                edges.push(RelEdge::peering(a, b));
            }
        }
        for &c in &t2 {
            let n_prov = 1 + rng.below(2) as usize;
            for k in 0..n_prov {
                let p = t1[(rng.below(t1.len() as u64) as usize + k) % t1.len()];
                edges.push(RelEdge::transit(p, c));
            }
        }
        for &c in &t3 {
            let n_prov = 1 + rng.below(2) as usize;
            for k in 0..n_prov {
                let p = t2[(rng.below(t2.len() as u64) as usize + k) % t2.len()];
                edges.push(RelEdge::transit(p, c));
            }
        }
        AsGraph::from_edges(edges)
    })
}

/// Strategy: an *arbitrary* transit digraph — random p2c edges over a
/// small ASN pool, cycles very much allowed. The cone analytics must
/// behave identically cached and fresh even off the valley-free happy
/// path.
fn tangled_strategy() -> impl Strategy<Value = AsGraph> {
    (2u32..12, 1usize..40, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = lacnet_types::rng::Rng::seeded(seed);
        let mut edges = Vec::new();
        for _ in 0..m {
            let a = Asn(1 + rng.below(n as u64) as u32);
            let b = Asn(1 + rng.below(n as u64) as u32);
            if a != b {
                edges.push(RelEdge::transit(a, b));
            }
        }
        AsGraph::from_edges(edges)
    })
}

/// Strategy: a [`hierarchy_strategy`] core plus the shapes a connected
/// hierarchy never produces, and a collector set to test visibility
/// against. Each case adds:
///
/// * a detached island (a small transit chain with a peer at its top);
/// * a peer-only pair, one of which may peer into the core;
/// * a mid-tier AS with customers but no providers, peering into the
///   core, so its customers can only climb to it;
/// * a transit cycle, hung below a core AS or left floating;
///
/// then draws 0–4 collectors from the node set, sometimes adding an ASN
/// the graph lacks (so the set may be empty or name only absent ASes).
fn ragged_strategy() -> impl Strategy<Value = (AsGraph, Vec<Asn>)> {
    (hierarchy_strategy(), any::<u64>()).prop_map(|(core, seed)| {
        let mut rng = lacnet_types::rng::Rng::seeded(seed);
        let core_asns: Vec<Asn> = core.asns().collect();
        let pick = |rng: &mut lacnet_types::rng::Rng| {
            core_asns[rng.below(core_asns.len() as u64) as usize]
        };
        let mut edges = core.edges();
        // Island: 50000 ─> 50001 ─> … with a peer 59999 of its top.
        let island = 2 + rng.below(3) as u32;
        for i in 0..island {
            edges.push(RelEdge::transit(Asn(50_000 + i), Asn(50_001 + i)));
        }
        edges.push(RelEdge::peering(Asn(50_000), Asn(59_999)));
        // Peer-only pair.
        edges.push(RelEdge::peering(Asn(60_000), Asn(60_001)));
        if rng.below(2) == 0 {
            edges.push(RelEdge::peering(Asn(60_001), pick(&mut rng)));
        }
        // Provider-less mid-tier AS with customers, peering into the core.
        for c in 0..1 + rng.below(3) as u32 {
            edges.push(RelEdge::transit(Asn(70_000), Asn(70_001 + c)));
        }
        edges.push(RelEdge::peering(Asn(70_000), pick(&mut rng)));
        // Transit cycle 80000 → 80001 → … → 80000.
        let cycle = 2 + rng.below(3) as u32;
        for i in 0..cycle {
            edges.push(RelEdge::transit(
                Asn(80_000 + i),
                Asn(80_000 + (i + 1) % cycle),
            ));
        }
        match rng.below(3) {
            0 => edges.push(RelEdge::transit(pick(&mut rng), Asn(80_000))),
            1 => edges.push(RelEdge::transit(Asn(80_001), pick(&mut rng))),
            _ => {}
        }
        let g = AsGraph::from_edges(edges);
        let asns: Vec<Asn> = g.asns().collect();
        let mut collectors: Vec<Asn> = (0..rng.below(5))
            .map(|_| asns[rng.below(asns.len() as u64) as usize])
            .collect();
        if rng.below(3) == 0 {
            collectors.push(Asn(99_999));
        }
        (g, collectors)
    })
}

/// Walk a path origin-outward and assert the valley-free pattern.
fn assert_valley_free(g: &AsGraph, path: &[Asn]) {
    // Forward direction: origin → vantage.
    let fwd: Vec<Asn> = path.iter().rev().copied().collect();
    let mut descended = false;
    let mut peered = false;
    for w in fwd.windows(2) {
        let (from, to) = (w[0], w[1]);
        let adj = g.adjacency(from).expect("path AS exists");
        if adj.providers.contains(&to) {
            assert!(
                !descended && !peered,
                "climb after descent/peer in {path:?}"
            );
        } else if adj.peers.contains(&to) {
            assert!(!descended && !peered, "second plateau in {path:?}");
            peered = true;
        } else {
            assert!(adj.customers.contains(&to), "non-edge step in {path:?}");
            descended = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_hierarchy_reaches_everyone(g in hierarchy_strategy()) {
        // In a connected hierarchy (every node has a transit chain to the
        // fully meshed top), every announcement reaches every AS.
        let sim = RouteSim::new(&g);
        let asns: Vec<Asn> = g.asns().collect();
        for &origin in asns.iter().take(4) {
            let out = sim.propagate(origin);
            prop_assert_eq!(out.reach_count(), g.node_count(), "origin {}", origin);
        }
    }

    #[test]
    fn every_reconstructed_path_is_valley_free(g in hierarchy_strategy()) {
        let asns: Vec<Asn> = g.asns().collect();
        for &origin in asns.iter().rev().take(3) {
            let out = PathOutcome::compute(&g, origin);
            for path in out.all_paths() {
                assert_valley_free(&g, &path);
            }
        }
    }

    #[test]
    fn path_outcome_and_route_sim_agree(g in hierarchy_strategy()) {
        let asns: Vec<Asn> = g.asns().collect();
        let sim = RouteSim::new(&g);
        for &origin in asns.iter().take(3) {
            let a = PathOutcome::compute(&g, origin);
            let b = sim.propagate(origin);
            for &asn in &asns {
                let ra = a.route(asn).map(|r| (r.kind, r.hops));
                let rb = b.route(asn).map(|r| (r.kind, r.hops));
                prop_assert_eq!(ra, rb, "{} from {}", asn, origin);
            }
        }
    }

    #[test]
    fn customer_routes_at_ancestors_only(g in hierarchy_strategy()) {
        // An AS holds a customer route iff the origin is in its customer
        // cone (strictly below it).
        let sim = RouteSim::new(&g);
        let asns: Vec<Asn> = g.asns().collect();
        for &origin in asns.iter().rev().take(3) {
            let out = sim.propagate(origin);
            for &asn in &asns {
                if asn == origin {
                    continue;
                }
                let has_customer_route =
                    out.route(asn).is_some_and(|r| r.kind == RouteKind::Customer);
                let in_cone = g.customer_cone(asn).contains(&origin);
                prop_assert_eq!(has_customer_route, in_cone, "{} vs origin {}", asn, origin);
            }
        }
    }

    #[test]
    fn hop_counts_are_shortest_within_class(g in hierarchy_strategy()) {
        // Customer-route hop counts equal the shortest provider-edge
        // distance (BFS over the reversed customer-cone edges).
        let sim = RouteSim::new(&g);
        let asns: Vec<Asn> = g.asns().collect();
        let origin = *asns.last().expect("non-empty");
        let out = sim.propagate(origin);
        // Independent BFS up provider edges.
        let mut dist = std::collections::BTreeMap::new();
        dist.insert(origin, 0u32);
        let mut queue = std::collections::VecDeque::from([origin]);
        while let Some(u) = queue.pop_front() {
            let d = dist[&u];
            if let Some(adj) = g.adjacency(u) {
                for &p in &adj.providers {
                    dist.entry(p).or_insert_with(|| {
                        queue.push_back(p);
                        d + 1
                    });
                }
            }
        }
        for (asn, d) in dist {
            let r = out.route(asn).expect("ancestor routed");
            prop_assert_eq!(r.hops, d, "{}", asn);
        }
    }

    #[test]
    fn heard_by_equals_per_origin_visibility((g, collectors) in ragged_strategy()) {
        // The one-pass reverse closure names exactly the origins whose
        // own propagation reaches some collector.
        let sim = RouteSim::new(&g);
        let reference: std::collections::BTreeSet<Asn> = g
            .asns()
            .filter(|&o| sim.propagate(o).visibility(&collectors) > 0.0)
            .collect();
        prop_assert_eq!(sim.heard_by(&collectors), reference, "collectors {:?}", collectors);
    }

    #[test]
    fn serial1_roundtrip_preserves_any_graph(g in hierarchy_strategy()) {
        let text = crate::serial1::to_text(&g.edges(), "proptest");
        let back = AsGraph::from_edges(crate::serial1::parse(&text).unwrap());
        prop_assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn cone_cache_equals_fresh_computation(g in hierarchy_strategy()) {
        // Every AS (plus one unknown) served by the cache matches a fresh
        // `customer_cone`, each key computes exactly once, and repeats
        // stay served from the memo.
        let cache = ConeCache::new();
        let month = MonthStamp::new(2020, 1);
        let mut asns: Vec<Asn> = g.asns().collect();
        asns.push(Asn(999_999)); // unknown to the graph
        for &asn in &asns {
            prop_assert_eq!((*cache.cone(month, &g, asn)).clone(), g.customer_cone(asn));
        }
        prop_assert_eq!(cache.computations(), asns.len());
        for &asn in &asns {
            prop_assert_eq!((*cache.cone(month, &g, asn)).clone(), g.customer_cone(asn));
        }
        prop_assert_eq!(cache.computations(), asns.len(), "repeats are memo hits");
    }

    #[test]
    fn cone_cache_handles_cycles_and_unknowns(g in tangled_strategy()) {
        // On arbitrary (possibly cyclic) transit digraphs the cached cone
        // still terminates, contains the root, stays within the node set,
        // and equals the fresh walk — and unknown ASes yield singletons on
        // both paths.
        let cache = ConeCache::new();
        let month = MonthStamp::new(2021, 6);
        for asn in g.asns() {
            let fresh = g.customer_cone(asn);
            let cached = cache.cone(month, &g, asn);
            prop_assert!(cached.contains(&asn), "cone includes self");
            prop_assert!(cached.iter().all(|a| g.contains(*a)));
            prop_assert_eq!((*cached).clone(), fresh);
        }
        let unknown = Asn(777_777);
        let fresh = g.customer_cone(unknown);
        prop_assert_eq!(
            (*cache.cone(month, &g, unknown)).clone(),
            fresh.clone()
        );
        prop_assert_eq!(fresh, std::collections::BTreeSet::from([unknown]));
    }
}

/// `PfxToAs::parse` as it was, the table as `prefix → sorted origins`.
fn reference_pfx2as(text: &str) -> Result<BTreeMap<Ipv4Net, Vec<Asn>>> {
    let mut table = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split_whitespace();
        let (Some(net), Some(len), Some(origins)) = (cols.next(), cols.next(), cols.next()) else {
            return Err(Error::parse(
                "pfx2as line (network<TAB>len<TAB>origins)",
                &format!("line {}: {line}", idx + 1),
            ));
        };
        let addr: Ipv4Addr = net
            .parse()
            .map_err(|_| Error::parse("pfx2as network address", line))?;
        let len: u8 = len
            .parse()
            .map_err(|_| Error::parse("pfx2as mask length", line))?;
        let prefix =
            Ipv4Net::new(addr, len).map_err(|_| Error::parse("canonical pfx2as prefix", line))?;
        table.insert(prefix, reference_origins(origins)?);
    }
    Ok(table)
}

/// `OriginSet::from_str` as it was.
fn reference_origins(s: &str) -> Result<Vec<Asn>> {
    let parts: Vec<&str> = s.split(['_', ',']).collect();
    let mut asns = Vec::with_capacity(parts.len());
    for p in parts {
        let raw: u32 = p
            .trim()
            .parse()
            .map_err(|_| Error::parse("origin ASN", s))?;
        asns.push(Asn(raw));
    }
    asns.sort_unstable();
    asns.dedup();
    if asns.is_empty() {
        return Err(Error::invalid("origin set must be non-empty"));
    }
    Ok(asns)
}

/// The parser and the reference agree on `text`: the same entries in the
/// same order, or the same error.
fn agree_pfx2as(text: &str) {
    let parsed = PfxToAs::parse(text).map(|t| {
        t.iter()
            .map(|(p, o)| (p, o.asns().to_vec()))
            .collect::<Vec<_>>()
    });
    let reference = reference_pfx2as(text).map(|t| t.into_iter().collect::<Vec<_>>());
    assert_eq!(parsed, reference, "{text:?}");
}

/// Pick one of `options`.
fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len() as u64) as usize]
}

/// A pfx2as file mixing canonical lines with every variant the format's
/// readers meet: whitespace of all kinds between and around columns, CRLF,
/// comments and blank lines, extra columns, MOAS and AS-set origins,
/// signs and leading zeros the integer parsers accept, and a prefix listed
/// twice. Half the files also hold lines `Ipv4Addr`, `u8` or `u32` reject;
/// the other half should parse.
fn pfx2as_text(rng: &mut Rng) -> String {
    const SEPARATORS: &[&str] = &[
        "\t", " ", "  ", "\t ", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
    ];
    const ODD_LENGTHS: &[&str] = &["+24", "024", "00000024"];
    const ODD_ORIGINS: &[&str] = &[
        "+8048",
        "08048",
        "4294967295",
        "8048_+6306",
        "1,2_3",
        "6306_8048_6306",
    ];
    const NETWORKS: &[&str] = &[
        "010.0.0.0",
        "256.0.0.0",
        "1.2.3",
        "1.2.3.4.5",
        "+1.2.3.4",
        "\u{ff11}.2.3.4",
        "1..2.3",
        "0.0.0.0",
        "1.2.3.04",
        "1.2.3.4.",
        "1.2.3.1000",
        "a.b.c.d",
        "",
    ];
    const LENGTHS: &[&str] = &[
        "+17", "017", "0", "32", "33", "255", "256", "-1", "+", "", "1\u{667}", "00000024",
    ];
    const ORIGINS: &[&str] = &[
        "8048",
        "8048_6306",
        "8048,6306",
        "6306_8048_6306",
        "+8048",
        "08048",
        "4294967295",
        "4294967296",
        "8048_",
        "_",
        ",",
        "-1",
        "x",
        "8048_+6306",
        "1,2_3",
    ];
    let hostile = rng.chance(0.5);
    let mut text = String::new();
    let mut listed: Vec<Ipv4Net> = Vec::new();
    for _ in 0..rng.below(40) {
        let sep = match hostile && rng.chance(0.1) {
            true => "\u{1c}",
            false => pick(rng, SEPARATORS),
        };
        let line = match rng.below(10) {
            0 => "# comment\tline".to_owned(),
            1 => pick(rng, &["", " ", "\t"]).to_owned(),
            2 if !hostile => format!(
                "{}{sep}{}{sep}{}",
                Ipv4Net::truncating(Ipv4Addr::from(rng.next_u64() as u32), 24).network(),
                pick(rng, ODD_LENGTHS),
                pick(rng, ODD_ORIGINS)
            ),
            2 => format!(
                "{}{sep}{}{sep}{}",
                pick(rng, NETWORKS),
                pick(rng, LENGTHS),
                pick(rng, ORIGINS)
            ),
            3 if !listed.is_empty() => {
                let p = listed[rng.below(listed.len() as u64) as usize];
                format!(
                    "{}{sep}{}{sep}{}",
                    p.network(),
                    p.len(),
                    pick(rng, if hostile { ORIGINS } else { ODD_ORIGINS })
                )
            }
            4 if hostile => format!(
                "{}{sep}{}",
                Ipv4Addr::from(rng.next_u64() as u32),
                rng.below(33)
            ),
            5 if hostile => format!(
                "{}{sep}{}{sep}{}",
                Ipv4Addr::from(rng.next_u64() as u32),
                rng.below(33),
                rng.below(70_000)
            ),
            _ => {
                let len = 8 + rng.below(25) as u8;
                let p = Ipv4Net::truncating(Ipv4Addr::from(rng.next_u64() as u32), len);
                listed.push(p);
                let origins = match rng.below(4) {
                    0 => format!("{}_{}", rng.below(70_000), rng.below(70_000)),
                    1 => format!("{},{}", rng.below(70_000), rng.below(70_000)),
                    _ => rng.below(70_000).to_string(),
                };
                let extra = if rng.chance(0.2) {
                    format!("{sep}extra")
                } else {
                    String::new()
                };
                format!("{}{sep}{}{sep}{origins}{extra}", p.network(), p.len())
            }
        };
        text.push_str(pick(rng, &["", " ", "\t"]));
        text.push_str(&line);
        text.push_str(pick(rng, &["\n", "\r\n", " \n"]));
    }
    text
}

/// Announced space of `asn` as it was computed: filter, sort, union.
fn reference_space(table: &PfxToAs, asn: Asn) -> u64 {
    let mut intervals: Vec<(u64, u64)> = table
        .iter()
        .filter(|(_, o)| o.contains(asn))
        .map(|(p, _)| {
            let start = p.network_u32() as u64;
            (start, start + p.size())
        })
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pfx2as_parse_matches_the_std_parsers(seed in any::<u64>()) {
        let mut rng = Rng::seeded(seed);
        let text = pfx2as_text(&mut rng);
        agree_pfx2as(&text);
        // Every origin-column variant on its own.
        for s in text.split(|c: char| c.is_whitespace()) {
            prop_assert_eq!(
                s.parse::<OriginSet>().map(|o| o.asns().to_vec()),
                reference_origins(s),
                "{:?}", s
            );
        }
    }

    #[test]
    fn corrupted_pfx2as_fails_like_the_std_parsers(
        seed in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut rng = Rng::seeded(seed);
        let text = pfx2as_text(&mut rng);
        let mut bytes = text.clone().into_bytes();
        if !bytes.is_empty() {
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        agree_pfx2as(&String::from_utf8_lossy(&bytes));
        let cut = rng.below(text.len() as u64 + 1) as usize;
        agree_pfx2as(&String::from_utf8_lossy(&text.as_bytes()[..cut]));
        agree_pfx2as(&String::from_utf8_lossy(&garbage));
    }

    #[test]
    fn one_walk_address_space_equals_the_per_asn_union(
        entries in proptest::collection::vec((any::<u32>(), 0u8..=32, 1u32..8, 0u32..8), 0..40),
        asked in proptest::collection::vec(0u32..10, 0..12),
    ) {
        // Origins drawn from a small pool so prefixes share them, nest and
        // overlap; the second origin makes a MOAS set unless it repeats.
        let table = PfxToAs::from_entries(entries.iter().map(|&(a, l, o1, o2)| {
            let origins = OriginSet::multi([Asn(o1), Asn(o2.max(1))]).expect("non-empty");
            (Ipv4Net::truncating(Ipv4Addr::from(a), l), origins)
        }));
        let asked: Vec<Asn> = asked.into_iter().map(Asn).collect();
        let spaces = table.address_space_by_origin(&asked);
        prop_assert_eq!(spaces.len(), asked.len());
        for (&asn, &space) in asked.iter().zip(&spaces) {
            prop_assert_eq!(space, reference_space(&table, asn), "{:?}", asn);
        }
    }
}
