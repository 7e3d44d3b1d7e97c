//! Anycast catchment: which instance a probe's queries land on.
//!
//! Root letters and Google Public DNS are reached over IP anycast, so
//! "which replica answers" is decided by BGP, not geography alone. The
//! model captures the two effects the paper's data shows:
//!
//! * **Scope** — many hosted replicas (the +Raíces style local nodes) are
//!   announced with `NO_EXPORT`-like scoping and serve only the hosting
//!   country; global nodes serve anyone.
//! * **Egress detours** — a probe whose upstream hauls international
//!   traffic through a remote gateway (Venezuelan networks transiting via
//!   Miami) reaches every *foreign* site through that gateway, which is
//!   why border probes on non-CANTV networks see Bogotá at <10 ms while
//!   Caracas probes see 36 ms (Fig. 20 / Appendix J).

use crate::probes::Probe;
use lacnet_types::{CountryCode, GeoPoint};

/// Announcement scope of an anycast site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteScope {
    /// Globally announced: any probe may be caught.
    Global,
    /// Announced only within the hosting country.
    Domestic(CountryCode),
}

/// One anycast site.
#[derive(Debug, Clone, PartialEq)]
pub struct AnycastSite {
    /// Stable identifier (for roots, the `letter/site/unit` identity).
    pub id: String,
    /// Site coordinates.
    pub location: GeoPoint,
    /// Announcement scope.
    pub scope: SiteScope,
}

impl AnycastSite {
    /// Whether `probe` can be caught by this site at all.
    pub fn visible_to(&self, probe: &Probe) -> bool {
        match self.scope {
            SiteScope::Global => true,
            SiteScope::Domestic(cc) => cc == probe.country,
        }
    }

    /// The path length in km the probe's packets travel to this site,
    /// honouring the probe's forced egress for non-domestic sites.
    pub fn path_km(&self, probe: &Probe) -> f64 {
        self.path_km_via(probe, egress_leg(probe))
    }

    /// [`AnycastSite::path_km`] with the probe's [`egress_leg`] already
    /// computed, so a caller measuring many sites pays for it once.
    fn path_km_via(&self, probe: &Probe, egress: Option<(GeoPoint, f64)>) -> f64 {
        let domestic = matches!(self.scope, SiteScope::Domestic(cc) if cc == probe.country);
        match (domestic, egress) {
            // Domestic traffic stays domestic.
            (true, _) | (false, None) => probe.location.distance_km(self.location),
            (false, Some((gw, to_gw))) => to_gw + gw.distance_km(self.location),
        }
    }
}

/// The probe's forced gateway and its distance to it: the site-independent
/// first leg of every non-domestic path.
fn egress_leg(probe: &Probe) -> Option<(GeoPoint, f64)> {
    probe.egress.map(|gw| (gw, probe.location.distance_km(gw)))
}

/// The catchment rule: among `(path km, site id, item)` candidates the
/// shortest path wins, ties broken by site id; of candidates equal in
/// both, the first is kept. Every catchment in the crate —
/// [`AnycastFleet::catch`] and the campaigns' [`PathTable`] lookups —
/// goes through this one function.
fn nearest<'s, T>(candidates: impl IntoIterator<Item = (f64, &'s str, T)>) -> Option<T> {
    let mut best: Option<(f64, &str, T)> = None;
    for (km, id, item) in candidates {
        let wins = best.as_ref().is_none_or(|(best_km, best_id, _)| {
            km.partial_cmp(best_km)
                .expect("path lengths are finite")
                .then_with(|| id.cmp(best_id))
                .is_lt()
        });
        if wins {
            best = Some((km, id, item));
        }
    }
    best.map(|(_, _, item)| item)
}

/// A set of simultaneously announced sites for one anycast service.
#[derive(Debug, Clone, Default)]
pub struct AnycastFleet {
    sites: Vec<AnycastSite>,
}

impl AnycastFleet {
    /// Build from sites.
    pub fn new(sites: Vec<AnycastSite>) -> Self {
        AnycastFleet { sites }
    }

    /// The sites.
    pub fn sites(&self) -> &[AnycastSite] {
        &self.sites
    }

    /// The site that catches `probe`: the visible site with the shortest
    /// path, ties broken by site id for determinism. `None` when no site
    /// is visible.
    pub fn catch(&self, probe: &Probe) -> Option<&AnycastSite> {
        let egress = egress_leg(probe);
        nearest(
            self.sites
                .iter()
                .filter(|s| s.visible_to(probe))
                .map(|s| (s.path_km_via(probe, egress), s.id.as_str(), s)),
        )
    }
}

/// Every probe's path length to every site of a campaign, computed once.
///
/// A campaign's probes and sites are fixed; only which of them are active
/// changes from month to month. The table holds, per probe, the
/// [`AnycastSite::path_km`] to each site — or `None` where the site's
/// scope hides it from the probe — so a monthly catchment is an argmin
/// over table entries instead of fresh great-circle distances.
#[derive(Debug, Clone)]
pub(crate) struct PathTable {
    sites: Vec<AnycastSite>,
    km: Vec<Option<f64>>,
}

impl PathTable {
    /// Measure every probe against every site. Row `p` belongs to
    /// `probes[p]`, column `s` to `sites[s]`.
    pub(crate) fn new(probes: &[&Probe], sites: Vec<AnycastSite>) -> Self {
        let mut km = Vec::with_capacity(probes.len() * sites.len());
        for probe in probes {
            let egress = egress_leg(probe);
            km.extend(sites.iter().map(|site| {
                site.visible_to(probe)
                    .then(|| site.path_km_via(probe, egress))
            }));
        }
        PathTable { sites, km }
    }

    /// The site among `active` that catches probe `probe`, with its path
    /// length: [`AnycastFleet::catch`] over the fleet of `active` sites.
    /// `None` when none of them is visible.
    pub(crate) fn catch(&self, probe: usize, active: &[usize]) -> Option<(usize, f64)> {
        let n = self.sites.len();
        let row = &self.km[probe * n..(probe + 1) * n];
        nearest(
            active
                .iter()
                .filter_map(|&s| row[s].map(|km| (km, self.sites[s].id.as_str(), (s, km)))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::{country, geo, Asn, MonthStamp};

    fn probe_at(lat: f64, lon: f64, cc: CountryCode, egress: Option<GeoPoint>) -> Probe {
        Probe {
            id: 1,
            country: cc,
            location: GeoPoint::new(lat, lon),
            asn: Asn(8048),
            active_since: MonthStamp::new(2014, 1),
            active_until: None,
            egress,
        }
    }

    fn site(id: &str, code: &str, scope: SiteScope) -> AnycastSite {
        AnycastSite {
            id: id.into(),
            location: geo::airport(code).unwrap().location,
            scope,
        }
    }

    #[test]
    fn nearest_global_site_wins_without_detour() {
        let fleet = AnycastFleet::new(vec![
            site("bog", "bog", SiteScope::Global),
            site("mia", "mia", SiteScope::Global),
        ]);
        // Probe in western Venezuela, no forced egress: Bogotá is closer.
        let p = probe_at(8.6, -71.2, country::VE, None);
        assert_eq!(fleet.catch(&p).unwrap().id, "bog");
    }

    #[test]
    fn egress_detour_changes_catchment() {
        let fleet = AnycastFleet::new(vec![
            site("bog", "bog", SiteScope::Global),
            site("mia", "mia", SiteScope::Global),
        ]);
        // Same probe, but its transit hauls everything through Miami:
        // Miami now wins (zero extra hop from the gateway).
        let p = probe_at(
            8.6,
            -71.2,
            country::VE,
            Some(geo::airport("mia").unwrap().location),
        );
        assert_eq!(fleet.catch(&p).unwrap().id, "mia");
        // And the path via the gateway is much longer than direct Bogotá.
        let bog = &fleet.sites()[0];
        assert!(
            bog.path_km(&p)
                > 2.0
                    * geo::airport("bog")
                        .unwrap()
                        .location
                        .distance_km(p.location)
        );
    }

    #[test]
    fn domestic_scope_restricts_visibility() {
        let fleet = AnycastFleet::new(vec![
            site("ccs-local", "ccs", SiteScope::Domestic(country::VE)),
            site("mia", "mia", SiteScope::Global),
        ]);
        let ve = probe_at(10.5, -66.9, country::VE, None);
        assert_eq!(fleet.catch(&ve).unwrap().id, "ccs-local");
        let br = probe_at(-23.5, -46.6, country::BR, None);
        assert_eq!(
            fleet.catch(&br).unwrap().id,
            "mia",
            "domestic VE node invisible abroad"
        );
    }

    #[test]
    fn domestic_site_ignores_egress_detour() {
        // Local traffic must not take the international gateway.
        let fleet = AnycastFleet::new(vec![site(
            "ccs-local",
            "ccs",
            SiteScope::Domestic(country::VE),
        )]);
        let p = probe_at(
            10.5,
            -66.9,
            country::VE,
            Some(geo::airport("mia").unwrap().location),
        );
        let s = fleet.catch(&p).unwrap();
        assert!(
            s.path_km(&p) < 50.0,
            "domestic path stays short, got {}",
            s.path_km(&p)
        );
    }

    #[test]
    fn empty_or_invisible_fleet_catches_nothing() {
        let fleet = AnycastFleet::new(vec![]);
        let p = probe_at(10.5, -66.9, country::VE, None);
        assert!(fleet.catch(&p).is_none());
        let fleet = AnycastFleet::new(vec![site("scl", "scl", SiteScope::Domestic(country::CL))]);
        assert!(fleet.catch(&p).is_none());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let a = site("aaa", "mia", SiteScope::Global);
        let b = site("bbb", "mia", SiteScope::Global);
        let fleet = AnycastFleet::new(vec![b, a]);
        let p = probe_at(10.5, -66.9, country::VE, None);
        assert_eq!(fleet.catch(&p).unwrap().id, "aaa");
    }
}
