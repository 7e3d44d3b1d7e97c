//! Longitudinal AS-connectivity analytics.
//!
//! These are the derivations behind §6.1: the upstream/downstream degree
//! series of Fig. 8 and the provider-presence heatmap of Fig. 9 (which
//! providers served CANTV in which months, restricted to providers present
//! for at least twelve months).

use crate::cone::ConeCache;
use crate::store::TopologyArchive;
use lacnet_types::{Asn, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Monthly count of upstream (transit) providers of `asn` — Fig. 8 top.
pub fn upstream_series(archive: &TopologyArchive, asn: Asn) -> TimeSeries {
    archive
        .iter()
        .map(|(m, g)| (m, g.upstream_count(asn) as f64))
        .collect()
}

/// Monthly count of downstream (customer) ASes of `asn` — Fig. 8 bottom.
pub fn downstream_series(archive: &TopologyArchive, asn: Asn) -> TimeSeries {
    archive
        .iter()
        .map(|(m, g)| (m, g.downstream_count(asn) as f64))
        .collect()
}

/// Monthly size of the customer cone of `asn` — AS-rank's transit-size
/// metric, the quantity behind the Fig. 8 degree narrative.
pub fn cone_size_series(archive: &TopologyArchive, asn: Asn) -> TimeSeries {
    archive
        .iter()
        .map(|(m, g)| (m, g.customer_cone(asn).len() as f64))
        .collect()
}

/// The Fig. 9 provider-presence matrix: for one customer AS, which
/// providers served it in which months.
#[derive(Debug, Clone)]
pub struct ProviderPresence {
    /// The customer AS the matrix describes.
    pub customer: Asn,
    /// Row labels: providers, ascending by ASN, that served the customer
    /// for at least the requested number of months.
    pub providers: Vec<Asn>,
    /// Column labels: every month in the archive, ascending.
    pub months: Vec<MonthStamp>,
    /// `presence[row][col]` — whether `providers[row]` served the customer
    /// in `months[col]`.
    pub presence: Vec<Vec<bool>>,
}

impl ProviderPresence {
    /// Build the matrix from an archive, keeping only providers present in
    /// at least `min_months` snapshots (the paper uses 12). The per-month
    /// provider sets — the full matrix Fig. 9 consumes — come from the
    /// cache's transit-neighbour memo, so each is computed at most once
    /// per process.
    pub fn compute_cached(
        archive: &TopologyArchive,
        customer: Asn,
        min_months: usize,
        cache: &ConeCache,
    ) -> Self {
        Self::build(archive, customer, min_months, |m, graph| {
            cache
                .transit_neighbors(m, graph, customer)
                .providers
                .clone()
        })
    }

    fn build(
        archive: &TopologyArchive,
        customer: Asn,
        min_months: usize,
        mut providers_at: impl FnMut(
            MonthStamp,
            &crate::graph::AsGraph,
        ) -> std::collections::BTreeSet<Asn>,
    ) -> Self {
        let months: Vec<MonthStamp> = archive.iter().map(|(m, _)| m).collect();
        let mut tally: BTreeMap<Asn, Vec<bool>> = BTreeMap::new();
        for (col, (m, graph)) in archive.iter().enumerate() {
            for p in providers_at(m, graph) {
                tally.entry(p).or_insert_with(|| vec![false; months.len()])[col] = true;
            }
        }
        tally.retain(|_, row| row.iter().filter(|&&b| b).count() >= min_months);
        let providers: Vec<Asn> = tally.keys().copied().collect();
        let presence: Vec<Vec<bool>> = tally.into_values().collect();
        ProviderPresence {
            customer,
            providers,
            months,
            presence,
        }
    }

    /// Months during which `provider` served the customer (row sum).
    pub fn months_served(&self, provider: Asn) -> usize {
        self.providers
            .iter()
            .position(|&p| p == provider)
            .map(|i| self.presence[i].iter().filter(|&&b| b).count())
            .unwrap_or(0)
    }

    /// The last month in which `provider` appears, if ever.
    pub fn last_seen(&self, provider: Asn) -> Option<MonthStamp> {
        let row = self.providers.iter().position(|&p| p == provider)?;
        self.presence[row]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &b)| b)
            .map(|(col, _)| self.months[col])
    }

    /// The first month in which `provider` appears, if ever.
    pub fn first_seen(&self, provider: Asn) -> Option<MonthStamp> {
        let row = self.providers.iter().position(|&p| p == provider)?;
        self.presence[row]
            .iter()
            .enumerate()
            .find(|(_, &b)| b)
            .map(|(col, _)| self.months[col])
    }
}

/// Providers of `asn` that departed (present at some point, absent in the
/// final snapshot), with their last month of service — the §6.1 exodus
/// narrative ("Verizon, Sprint and AT&T in 2013, GTT in 2017, Level3 in
/// 2018 …").
pub fn departed_providers(archive: &TopologyArchive, asn: Asn) -> Vec<(Asn, MonthStamp)> {
    let Some(last_month) = archive.last_month() else {
        return Vec::new();
    };
    let final_providers = archive
        .get(last_month)
        .map(|g| g.providers(asn))
        .unwrap_or_default();
    let mut last_seen: BTreeMap<Asn, MonthStamp> = BTreeMap::new();
    for (m, g) in archive.iter() {
        for p in g.providers(asn) {
            last_seen.insert(p, m);
        }
    }
    last_seen
        .into_iter()
        .filter(|(p, _)| !final_providers.contains(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AsGraph;
    use crate::relationship::RelEdge;

    fn m(y: i32, mo: u8) -> MonthStamp {
        MonthStamp::new(y, mo)
    }

    /// Three-month archive: AS701 serves 8048 in months 1-2 then leaves;
    /// AS23520 serves in all three; AS5511 appears only in month 3.
    fn toy_archive() -> TopologyArchive {
        let mut arch = TopologyArchive::new();
        arch.insert(
            m(2013, 1),
            AsGraph::from_edges([
                RelEdge::transit(Asn(701), Asn(8048)),
                RelEdge::transit(Asn(23520), Asn(8048)),
                RelEdge::transit(Asn(8048), Asn(27889)),
            ]),
        );
        arch.insert(
            m(2013, 2),
            AsGraph::from_edges([
                RelEdge::transit(Asn(701), Asn(8048)),
                RelEdge::transit(Asn(23520), Asn(8048)),
                RelEdge::transit(Asn(8048), Asn(27889)),
                RelEdge::transit(Asn(8048), Asn(21826)),
            ]),
        );
        arch.insert(
            m(2013, 3),
            AsGraph::from_edges([
                RelEdge::transit(Asn(23520), Asn(8048)),
                RelEdge::transit(Asn(5511), Asn(8048)),
                RelEdge::transit(Asn(8048), Asn(27889)),
                RelEdge::transit(Asn(8048), Asn(21826)),
            ]),
        );
        arch
    }

    #[test]
    fn degree_series() {
        let arch = toy_archive();
        let up = upstream_series(&arch, Asn(8048));
        assert_eq!(up.get(m(2013, 1)), Some(2.0));
        assert_eq!(up.get(m(2013, 3)), Some(2.0));
        let down = downstream_series(&arch, Asn(8048));
        assert_eq!(down.get(m(2013, 1)), Some(1.0));
        assert_eq!(down.get(m(2013, 3)), Some(2.0));
        // Absent AS: all-zero series, not missing months.
        let up = upstream_series(&arch, Asn(99999));
        assert_eq!(up.get(m(2013, 2)), Some(0.0));
    }

    #[test]
    fn cone_size_series_counts_the_cone() {
        let arch = toy_archive();
        let cones = cone_size_series(&arch, Asn(8048));
        // Month 1: {8048, 27889}; month 3: {8048, 27889, 21826}.
        assert_eq!(cones.get(m(2013, 1)), Some(2.0));
        assert_eq!(cones.get(m(2013, 3)), Some(3.0));
    }

    /// The uncached reference: each month's providers read straight off
    /// its graph.
    fn compute(archive: &TopologyArchive, customer: Asn, min_months: usize) -> ProviderPresence {
        ProviderPresence::build(archive, customer, min_months, |_, graph| {
            graph.providers(customer)
        })
    }

    #[test]
    fn cached_matrix_matches_the_uncached_reference() {
        let arch = toy_archive();
        let cache = ConeCache::new();
        let pp = ProviderPresence::compute_cached(&arch, Asn(8048), 1, &cache);
        let serial = compute(&arch, Asn(8048), 1);
        assert_eq!(pp.providers, serial.providers);
        assert_eq!(pp.months, serial.months);
        assert_eq!(pp.presence, serial.presence);
    }

    #[test]
    fn presence_matrix() {
        let arch = toy_archive();
        let pp = compute(&arch, Asn(8048), 1);
        assert_eq!(pp.providers, vec![Asn(701), Asn(5511), Asn(23520)]);
        assert_eq!(pp.months.len(), 3);
        assert_eq!(pp.months_served(Asn(701)), 2);
        assert_eq!(pp.months_served(Asn(23520)), 3);
        assert_eq!(pp.months_served(Asn(5511)), 1);
        assert_eq!(pp.last_seen(Asn(701)), Some(m(2013, 2)));
        assert_eq!(pp.first_seen(Asn(5511)), Some(m(2013, 3)));
        assert_eq!(pp.last_seen(Asn(9999)), None);
    }

    #[test]
    fn presence_matrix_min_months_filter() {
        let arch = toy_archive();
        let pp = compute(&arch, Asn(8048), 2);
        assert_eq!(
            pp.providers,
            vec![Asn(701), Asn(23520)],
            "5511 served only 1 month"
        );
        let pp = compute(&arch, Asn(8048), 4);
        assert!(pp.providers.is_empty());
    }

    #[test]
    fn departures() {
        let arch = toy_archive();
        let gone = departed_providers(&arch, Asn(8048));
        assert_eq!(gone, vec![(Asn(701), m(2013, 2))]);
        assert!(departed_providers(&TopologyArchive::new(), Asn(8048)).is_empty());
    }
}
