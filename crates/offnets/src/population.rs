//! APNIC-style per-AS eyeball population estimates.

use crate::as2org::AsOrgMap;
use lacnet_types::{Asn, CountryCode};
use std::collections::{BTreeMap, BTreeSet};

/// Estimated Internet users per AS, per country.
#[derive(Debug, Clone, Default)]
pub struct PopulationEstimates {
    /// `(country, asn) → users`. An AS can serve users in several
    /// countries (regional carriers), hence the compound key.
    users: BTreeMap<(CountryCode, Asn), u64>,
}

impl PopulationEstimates {
    /// An empty estimate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the user estimate for an AS in a country.
    pub fn set(&mut self, country: CountryCode, asn: Asn, users: u64) {
        self.users.insert((country, asn), users);
    }

    /// Users of `asn` in `country`.
    pub fn users_of(&self, country: CountryCode, asn: Asn) -> u64 {
        self.users.get(&(country, asn)).copied().unwrap_or(0)
    }

    /// Total estimated users in `country`.
    pub fn country_total(&self, country: CountryCode) -> u64 {
        self.users
            .range((country, Asn(0))..=(country, Asn(u32::MAX)))
            .map(|(_, &u)| u)
            .sum()
    }

    /// All `(asn, users)` pairs in `country`, descending by users.
    pub fn ranked(&self, country: CountryCode) -> Vec<(Asn, u64)> {
        let mut v: Vec<(Asn, u64)> = self
            .users
            .range((country, Asn(0))..=(country, Asn(u32::MAX)))
            .map(|(&(_, a), &u)| (a, u))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Fraction of `country`'s users served by the given ASes, in `[0,1]`.
    pub fn share_of(&self, country: CountryCode, asns: &BTreeSet<Asn>) -> f64 {
        let total = self.country_total(country);
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = asns.iter().map(|&a| self.users_of(country, a)).sum();
        covered as f64 / total as f64
    }

    /// Fraction of `country`'s users whose AS belongs to an organisation
    /// in `orgs` — the org-level weighting of §5.5.
    pub fn org_share_of(
        &self,
        country: CountryCode,
        orgs: &BTreeSet<u32>,
        as2org: &AsOrgMap,
    ) -> f64 {
        let total = self.country_total(country);
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .users
            .range((country, Asn(0))..=(country, Asn(u32::MAX)))
            .filter(|(&(_, a), _)| orgs.contains(&as2org.org_of(a)))
            .map(|(_, &u)| u)
            .sum();
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    /// Approximate Table 1 shape: CANTV 21.5%, Telemic 12.36%, …
    fn table1_like() -> PopulationEstimates {
        let mut p = PopulationEstimates::new();
        p.set(country::VE, Asn(8048), 4_330_868);
        p.set(country::VE, Asn(21826), 2_490_253);
        p.set(country::VE, Asn(6306), 2_110_464);
        p.set(country::VE, Asn(264731), 1_419_723);
        p.set(country::BR, Asn(28573), 30_000_000);
        p
    }

    #[test]
    fn totals_and_shares() {
        let p = table1_like();
        assert_eq!(p.country_total(country::VE), 10_351_308);
        assert_eq!(p.users_of(country::VE, Asn(8048)), 4_330_868);
        assert_eq!(p.users_of(country::BR, Asn(8048)), 0);
        let share = p.share_of(country::VE, &BTreeSet::from([Asn(8048)]));
        assert!((share - 0.4184).abs() < 0.001, "{share}");
        assert_eq!(p.share_of(country::US, &BTreeSet::from([Asn(8048)])), 0.0);
    }

    #[test]
    fn ranking_descends() {
        let p = table1_like();
        let ranked = p.ranked(country::VE);
        assert_eq!(ranked[0].0, Asn(8048));
        assert_eq!(ranked[1].0, Asn(21826));
        assert_eq!(ranked.len(), 4);
        assert!(p.ranked(country::CL).is_empty());
    }

    #[test]
    fn org_level_share_counts_siblings() {
        let p = table1_like();
        let mut map = AsOrgMap::new();
        map.assign(Asn(8048), 1);
        map.assign(Asn(264731), 1);
        // Off-net detected only in AS8048's sibling 264731 still credits
        // the whole organisation.
        let orgs = BTreeSet::from([map.org_of(Asn(264731))]);
        let share = p.org_share_of(country::VE, &orgs, &map);
        let expect = (4_330_868 + 1_419_723) as f64 / 10_351_308.0;
        assert!((share - expect).abs() < 1e-9, "{share} vs {expect}");
    }
}
