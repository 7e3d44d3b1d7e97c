//! Longitudinal archive of monthly topology snapshots.

use crate::graph::AsGraph;
use crate::serial1;
use lacnet_types::{MonthStamp, Result};
use std::collections::BTreeMap;

/// One [`AsGraph`] per month — the in-memory form of CAIDA's serial-1
/// archive after the analysis loads the first-of-month snapshots.
#[derive(Debug, Clone, Default)]
pub struct TopologyArchive {
    snapshots: BTreeMap<MonthStamp, AsGraph>,
}

impl TopologyArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) the snapshot for `month`.
    pub fn insert(&mut self, month: MonthStamp, graph: AsGraph) {
        self.snapshots.insert(month, graph);
    }

    /// Load one month from serial-1 text.
    pub fn insert_serial1(&mut self, month: MonthStamp, text: &str) -> Result<()> {
        let edges = serial1::parse(text)?;
        self.insert(month, AsGraph::from_edges(edges));
        Ok(())
    }

    /// The snapshot for exactly `month`.
    pub fn get(&self, month: MonthStamp) -> Option<&AsGraph> {
        self.snapshots.get(&month)
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Latest snapshot month.
    pub fn last_month(&self) -> Option<MonthStamp> {
        self.snapshots.keys().next_back().copied()
    }

    /// Iterate chronologically over `(month, graph)`.
    pub fn iter(&self) -> impl Iterator<Item = (MonthStamp, &AsGraph)> {
        self.snapshots.iter().map(|(&m, g)| (m, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::RelEdge;
    use lacnet_types::Asn;

    fn m(y: i32, mo: u8) -> MonthStamp {
        MonthStamp::new(y, mo)
    }

    #[test]
    fn insert_and_query() {
        let mut arch = TopologyArchive::new();
        assert!(arch.is_empty());
        arch.insert(
            m(2013, 1),
            AsGraph::from_edges([RelEdge::transit(Asn(701), Asn(8048))]),
        );
        arch.insert(
            m(2014, 1),
            AsGraph::from_edges([RelEdge::transit(Asn(23520), Asn(8048))]),
        );
        assert_eq!(arch.len(), 2);
        assert_eq!(arch.last_month(), Some(m(2014, 1)));
        assert!(arch.get(m(2013, 1)).unwrap().contains(Asn(701)));
        assert!(arch.get(m(2013, 2)).is_none());
    }

    #[test]
    fn load_from_serial1() {
        let mut arch = TopologyArchive::new();
        arch.insert_serial1(m(1998, 1), "701|8048|-1\n").unwrap();
        assert_eq!(arch.get(m(1998, 1)).unwrap().upstream_count(Asn(8048)), 1);
        assert!(arch.insert_serial1(m(1998, 2), "bogus\n").is_err());
        assert_eq!(arch.len(), 1, "failed load must not insert");
    }

    #[test]
    fn iteration_is_chronological() {
        let mut arch = TopologyArchive::new();
        arch.insert(m(2020, 6), AsGraph::new());
        arch.insert(m(1998, 1), AsGraph::new());
        arch.insert(m(2005, 3), AsGraph::new());
        let months: Vec<_> = arch.iter().map(|(m, _)| m).collect();
        assert_eq!(months, vec![m(1998, 1), m(2005, 3), m(2020, 6)]);
    }
}
