//! AS-relationship inference from AS paths — the Gao-style baseline.
//!
//! CAIDA's serial-1 files are themselves *inferred* from BGP paths. To
//! make the substrate honest about that provenance, this module
//! implements the classic degree-based heuristic (Gao 2001): in each
//! path, the AS with the highest degree is the "top"; edges before it
//! are customer→provider, edges after it are provider→customer, and the
//! edge at the top between two similar-degree ASes is peering. Tests
//! check the inference against the ground-truth topology the paths were
//! generated from.

use crate::graph::AsGraph;
use crate::relationship::RelEdge;
use lacnet_types::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// Votes accumulated for one undirected AS pair.
#[derive(Debug, Clone, Copy, Default)]
struct PairVotes {
    /// Votes for "first (lower ASN) is the provider".
    first_provider: u32,
    /// Votes for "second (higher ASN) is the provider".
    second_provider: u32,
    /// Votes for peering.
    peer: u32,
}

/// Relationship inference over a set of AS paths.
#[derive(Debug, Clone, Default)]
pub struct RelationshipInference {
    /// Distinct-neighbour degree (Gao's metric), not occurrence counts —
    /// transited hubs would otherwise dwarf everything.
    neighbors: BTreeMap<Asn, BTreeSet<Asn>>,
    votes: BTreeMap<(Asn, Asn), PairVotes>,
    peer_ratio_threshold: f64,
}

impl RelationshipInference {
    /// Create an inference engine. `peer_ratio_threshold` is the degree
    /// ratio under which a top-of-path edge votes "peer" (Gao used ≈R=60
    /// on real data; the synthetic worlds here are cleaner and use small
    /// thresholds).
    pub fn new(peer_ratio_threshold: f64) -> Self {
        RelationshipInference {
            peer_ratio_threshold,
            ..Default::default()
        }
    }

    /// First pass: collect each AS's distinct neighbours across the path
    /// set; the degree is the neighbour-set size.
    pub fn observe_degrees(&mut self, paths: &[Vec<Asn>]) {
        for path in paths {
            for w in path.windows(2) {
                self.neighbors.entry(w[0]).or_default().insert(w[1]);
                self.neighbors.entry(w[1]).or_default().insert(w[0]);
            }
        }
    }

    fn deg(&self, a: Asn) -> u32 {
        self.neighbors.get(&a).map(|s| s.len() as u32).unwrap_or(0)
    }

    /// Second pass: vote on each edge of each path. Paths run vantage →
    /// origin; the "top" is the maximum-degree AS on the path.
    pub fn observe_paths(&mut self, paths: &[Vec<Asn>]) {
        for path in paths {
            if path.len() < 2 {
                continue;
            }
            let top_idx = (0..path.len())
                .max_by_key(|&i| self.deg(path[i]))
                .expect("non-empty path");
            for (i, w) in path.windows(2).enumerate() {
                let (a, b) = (w[0], w[1]);
                let key = if a < b { (a, b) } else { (b, a) };
                // Degree lookups happen before the mutable votes borrow.
                let (d1, d2) = (self.deg(w[0]).max(1) as f64, self.deg(w[1]).max(1) as f64);
                let v = self.votes.entry(key).or_default();
                // The path runs vantage → origin. On the origin side of
                // the top (i ≥ top_idx) the announcement climbed
                // customer→provider, so the AS closer to the top —
                // path[i] — is the provider; on the vantage side it is
                // path[i+1]. Translate that into the sorted key's frame.
                let provider = if i >= top_idx { w[0] } else { w[1] };
                let first_is_provider = provider == key.0;
                // Only an edge touching the peak of the path can be the
                // valley-free plateau (ties between equal-degree tier-1s
                // land on either side of the argmax), and it votes peer
                // only when the two degrees are comparable. Everything
                // else is a climb or a descent.
                let at_top = i == top_idx || i + 1 == top_idx;
                let ratio = d1.max(d2) / d1.min(d2);
                if at_top && ratio <= self.peer_ratio_threshold {
                    v.peer += 1;
                } else if first_is_provider {
                    v.first_provider += 1;
                } else {
                    v.second_provider += 1;
                }
            }
        }
    }

    /// Produce the inferred edge set by majority vote per pair.
    pub fn infer(&self) -> Vec<RelEdge> {
        self.votes
            .iter()
            .map(|(&(a, b), v)| {
                if v.peer > v.first_provider && v.peer > v.second_provider {
                    RelEdge::peering(a, b)
                } else if v.first_provider >= v.second_provider {
                    RelEdge::transit(a, b)
                } else {
                    RelEdge::transit(b, a)
                }
            })
            .collect()
    }
}

/// Accuracy of an inferred edge set against ground truth: the fraction of
/// ground-truth edges recovered with the correct type and orientation.
pub fn accuracy(truth: &AsGraph, inferred: &[RelEdge]) -> f64 {
    let truth_edges = truth.edges();
    if truth_edges.is_empty() {
        return 1.0;
    }
    let inferred: std::collections::BTreeSet<(Asn, Asn, i8)> = inferred
        .iter()
        .map(|e| {
            let c = e.canonical();
            (c.a, c.b, c.rel.code())
        })
        .collect();
    let hit = truth_edges
        .iter()
        .filter(|e| {
            let c = e.canonical();
            inferred.contains(&(c.a, c.b, c.rel.code()))
        })
        .count();
    hit as f64 / truth_edges.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::PathOutcome;
    use crate::relationship::AsRelationship;

    /// Run both passes over a synthetic collector RIB built by
    /// propagating every AS of `graph` as an origin, then infer.
    fn infer_from_graph(graph: &AsGraph, peer_ratio_threshold: f64) -> Vec<RelEdge> {
        let mut paths = Vec::new();
        for origin in graph.asns() {
            paths.extend(PathOutcome::compute(graph, origin).all_paths());
        }
        let mut inf = RelationshipInference::new(peer_ratio_threshold);
        inf.observe_degrees(&paths);
        inf.observe_paths(&paths);
        inf.infer()
    }

    /// Whether the edge touches `asn`.
    fn touches(e: &RelEdge, asn: Asn) -> bool {
        e.a == asn || e.b == asn
    }

    /// A clean three-tier hierarchy: two peered tier-1s with four
    /// tier-2 customers each, three stubs per tier-2. Degrees descend
    /// tier by tier (5 > 4 > 1), as the heuristic assumes.
    fn hierarchy() -> AsGraph {
        let mut edges = vec![RelEdge::peering(Asn(1), Asn(2))];
        for t2 in 10..18u32 {
            let t1 = if t2 % 2 == 0 { 1 } else { 2 };
            edges.push(RelEdge::transit(Asn(t1), Asn(t2)));
            for s in 0..3u32 {
                edges.push(RelEdge::transit(Asn(t2), Asn(t2 * 10 + s)));
            }
        }
        AsGraph::from_edges(edges)
    }

    #[test]
    fn recovers_clean_hierarchy() {
        let g = hierarchy();
        let inferred = infer_from_graph(&g, 1.1);
        let acc = accuracy(&g, &inferred);
        assert!(acc >= 0.85, "accuracy {acc}");
    }

    #[test]
    fn transit_orientation_mostly_correct() {
        let g = hierarchy();
        let inferred = infer_from_graph(&g, 1.1);
        // Tier-1 → tier-2 edges must all be oriented downward.
        let mut correct = 0;
        let mut total = 0;
        for e in &inferred {
            if e.rel == AsRelationship::ProviderToCustomer
                && (e.a == Asn(1) || e.a == Asn(2))
                && e.b.raw() >= 10
                && e.b.raw() < 18
            {
                correct += 1;
            }
            if (touches(e, Asn(1)) || touches(e, Asn(2)))
                && e.rel == AsRelationship::ProviderToCustomer
            {
                total += 1;
            }
        }
        assert!(total > 0);
        assert_eq!(
            correct, total,
            "some tier-1 transit edges inverted: {inferred:?}"
        );
    }

    #[test]
    fn peer_edge_found_at_the_top() {
        let g = hierarchy();
        let inferred = infer_from_graph(&g, 1.1);
        assert!(
            inferred.iter().any(|e| e.rel == AsRelationship::PeerToPeer
                && touches(e, Asn(1))
                && touches(e, Asn(2))),
            "tier-1 peering not recovered: {inferred:?}"
        );
    }

    #[test]
    fn empty_inputs() {
        let inf = RelationshipInference::new(1.5);
        assert!(inf.infer().is_empty());
        assert_eq!(accuracy(&AsGraph::new(), &[]), 1.0);
    }

    #[test]
    fn accuracy_detects_inversion() {
        let g = AsGraph::from_edges([RelEdge::transit(Asn(1), Asn(2))]);
        assert_eq!(accuracy(&g, &[RelEdge::transit(Asn(1), Asn(2))]), 1.0);
        assert_eq!(accuracy(&g, &[RelEdge::transit(Asn(2), Asn(1))]), 0.0);
        assert_eq!(accuracy(&g, &[RelEdge::peering(Asn(1), Asn(2))]), 0.0);
    }
}
