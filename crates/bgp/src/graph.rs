//! The AS-level topology graph.

use crate::relationship::{AsRelationship, RelEdge};
use lacnet_types::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// An AS-level topology for one snapshot month: per-AS provider, customer,
/// and peer adjacency derived from relationship edges.
///
/// Duplicate edges are deduplicated; contradictory duplicates (the same
/// pair appearing both as p2c and p2p) keep *both* adjacencies, matching
/// how CAIDA consumers usually treat hybrid relationships.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    nodes: BTreeMap<Asn, Adjacency>,
    edge_count: usize,
}

/// Neighbour sets of one AS.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    /// ASes selling transit to this AS.
    pub providers: BTreeSet<Asn>,
    /// ASes buying transit from this AS.
    pub customers: BTreeSet<Asn>,
    /// Settlement-free peers.
    pub peers: BTreeSet<Asn>,
}

impl AsGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from relationship edges.
    pub fn from_edges(edges: impl IntoIterator<Item = RelEdge>) -> Self {
        let mut g = AsGraph::new();
        for e in edges {
            g.insert(e);
        }
        g
    }

    /// Insert one edge. Returns `true` if it was new.
    pub fn insert(&mut self, edge: RelEdge) -> bool {
        let fresh = match edge.rel {
            AsRelationship::ProviderToCustomer => {
                let inserted = self
                    .nodes
                    .entry(edge.b)
                    .or_default()
                    .providers
                    .insert(edge.a);
                self.nodes
                    .entry(edge.a)
                    .or_default()
                    .customers
                    .insert(edge.b);
                inserted
            }
            AsRelationship::PeerToPeer => {
                let inserted = self.nodes.entry(edge.a).or_default().peers.insert(edge.b);
                self.nodes.entry(edge.b).or_default().peers.insert(edge.a);
                inserted
            }
        };
        if fresh {
            self.edge_count += 1;
        }
        fresh
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of ASes with at least one edge.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `asn` appears in the graph.
    pub fn contains(&self, asn: Asn) -> bool {
        self.nodes.contains_key(&asn)
    }

    /// Iterate over all ASes.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.nodes.keys().copied()
    }

    /// The adjacency of `asn`, if present.
    pub fn adjacency(&self, asn: Asn) -> Option<&Adjacency> {
        self.nodes.get(&asn)
    }

    /// Transit providers of `asn` (its *upstreams* in the paper's Fig. 8).
    pub fn providers(&self, asn: Asn) -> BTreeSet<Asn> {
        self.nodes
            .get(&asn)
            .map(|a| a.providers.clone())
            .unwrap_or_default()
    }

    /// Transit customers of `asn` (its *downstreams* in Fig. 8).
    pub fn customers(&self, asn: Asn) -> BTreeSet<Asn> {
        self.nodes
            .get(&asn)
            .map(|a| a.customers.clone())
            .unwrap_or_default()
    }

    /// Peers of `asn`.
    pub fn peers(&self, asn: Asn) -> BTreeSet<Asn> {
        self.nodes
            .get(&asn)
            .map(|a| a.peers.clone())
            .unwrap_or_default()
    }

    /// Number of upstream providers.
    pub fn upstream_count(&self, asn: Asn) -> usize {
        self.nodes.get(&asn).map(|a| a.providers.len()).unwrap_or(0)
    }

    /// Number of downstream customers.
    pub fn downstream_count(&self, asn: Asn) -> usize {
        self.nodes.get(&asn).map(|a| a.customers.len()).unwrap_or(0)
    }

    /// The customer cone of `asn`: the set of ASes reachable by walking
    /// only provider→customer edges, *including* `asn` itself. This is the
    /// CAIDA AS-rank notion used to size transit networks.
    pub fn customer_cone(&self, asn: Asn) -> BTreeSet<Asn> {
        let mut cone = BTreeSet::new();
        let mut stack = vec![asn];
        while let Some(n) = stack.pop() {
            if !cone.insert(n) {
                continue;
            }
            if let Some(adj) = self.nodes.get(&n) {
                stack.extend(adj.customers.iter().copied());
            }
        }
        cone
    }

    /// All edges, in canonical form, sorted — suitable for serial-1 output.
    pub fn edges(&self) -> Vec<RelEdge> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (&asn, adj) in &self.nodes {
            for &c in &adj.customers {
                out.push(RelEdge::transit(asn, c));
            }
            for &p in &adj.peers {
                if asn <= p {
                    out.push(RelEdge::peering(asn, p));
                }
            }
        }
        out.sort_by_key(|e| (e.a, e.b, e.rel.code()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> AsGraph {
        // 701 ─┬─> 8048 ──> 27889
        //      └─> 6306 <── 1299
        // 8048 <peer> 6306
        AsGraph::from_edges([
            RelEdge::transit(Asn(701), Asn(8048)),
            RelEdge::transit(Asn(701), Asn(6306)),
            RelEdge::transit(Asn(1299), Asn(6306)),
            RelEdge::transit(Asn(8048), Asn(27889)),
            RelEdge::peering(Asn(8048), Asn(6306)),
        ])
    }

    #[test]
    fn adjacency_construction() {
        let g = toy();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.providers(Asn(8048)), BTreeSet::from([Asn(701)]));
        assert_eq!(
            g.providers(Asn(6306)),
            BTreeSet::from([Asn(701), Asn(1299)])
        );
        assert_eq!(g.customers(Asn(8048)), BTreeSet::from([Asn(27889)]));
        assert_eq!(g.peers(Asn(8048)), BTreeSet::from([Asn(6306)]));
        assert_eq!(g.peers(Asn(6306)), BTreeSet::from([Asn(8048)]));
        assert_eq!(g.upstream_count(Asn(6306)), 2);
        assert_eq!(g.downstream_count(Asn(701)), 2);
        assert_eq!(g.upstream_count(Asn(99999)), 0);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = toy();
        assert!(!g.insert(RelEdge::transit(Asn(701), Asn(8048))));
        assert!(
            !g.insert(RelEdge::peering(Asn(6306), Asn(8048))),
            "peer edges are symmetric"
        );
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn customer_cone() {
        let g = toy();
        assert_eq!(
            g.customer_cone(Asn(701)),
            BTreeSet::from([Asn(701), Asn(8048), Asn(6306), Asn(27889)])
        );
        assert_eq!(
            g.customer_cone(Asn(8048)),
            BTreeSet::from([Asn(8048), Asn(27889)])
        );
        assert_eq!(g.customer_cone(Asn(27889)), BTreeSet::from([Asn(27889)]));
        // Unknown AS: cone of itself only.
        assert_eq!(g.customer_cone(Asn(4)), BTreeSet::from([Asn(4)]));
    }

    #[test]
    fn cone_handles_cycles() {
        // Pathological mutual-transit loop must terminate.
        let g = AsGraph::from_edges([
            RelEdge::transit(Asn(1), Asn(2)),
            RelEdge::transit(Asn(2), Asn(1)),
        ]);
        assert_eq!(g.customer_cone(Asn(1)), BTreeSet::from([Asn(1), Asn(2)]));
    }

    #[test]
    fn edges_roundtrip_through_serial1() {
        let g = toy();
        let text = crate::serial1::to_text(&g.edges(), "test");
        let g2 = AsGraph::from_edges(crate::serial1::parse(&text).unwrap());
        assert_eq!(g2.edges(), g.edges());
        assert_eq!(g2.edge_count(), g.edge_count());
    }
}
