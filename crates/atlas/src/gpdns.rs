//! The Google Public DNS traceroute campaign (MSM 1591146 stand-in).
//!
//! Each month, every active probe traceroutes 8.8.8.8 repeatedly inside a
//! five-day window; the analysis keeps the per-probe *minimum* RTT to
//! strip diurnal congestion (§7.2). The latency model is geographric:
//! propagation over the anycast path (including any forced egress detour),
//! a per-probe last-mile access delay, and log-normal congestion noise
//! that the min() mostly removes.

use crate::anycast::{AnycastSite, PathTable, SiteScope};
use crate::probes::{Probe, ProbeId, ProbeRegistry};
use lacnet_types::rng::Rng;
use lacnet_types::stats;
use lacnet_types::{geo, sweep, CountryCode, GeoPoint, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// One Google Public DNS point of presence.
#[derive(Debug, Clone, PartialEq)]
pub struct GpdnsSite {
    /// Site identifier (airport-style).
    pub id: String,
    /// Coordinates.
    pub location: GeoPoint,
    /// First month in service.
    pub active_since: MonthStamp,
    /// Last month in service, inclusive (`None` = still active).
    pub active_until: Option<MonthStamp>,
}

impl GpdnsSite {
    /// Whether the site answered queries in `month`.
    pub fn active_in(&self, month: MonthStamp) -> bool {
        month >= self.active_since && self.active_until.is_none_or(|u| month <= u)
    }
}

/// Tunable latency model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fibre path stretch over the great circle.
    pub stretch: f64,
    /// Mean last-mile access delay added per probe, ms.
    pub last_mile_ms: f64,
    /// Sigma of the log-normal congestion term (underlying normal).
    pub congestion_sigma: f64,
    /// Median of the congestion term, ms.
    pub congestion_median_ms: f64,
    /// Traceroutes per probe per monthly window; the minimum is kept.
    pub samples: usize,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            stretch: geo::DEFAULT_PATH_STRETCH,
            last_mile_ms: 4.0,
            congestion_sigma: 1.0,
            congestion_median_ms: 2.0,
            samples: 24,
        }
    }
}

impl LatencyModel {
    /// The deterministic floor RTT for `probe` hitting `site` (no noise):
    /// round-trip propagation plus the last mile.
    pub fn base_rtt_ms(&self, probe: &Probe, site: &AnycastSite) -> f64 {
        self.base_rtt_at_km(site.path_km(probe))
    }

    /// The floor RTT over a path of `km` kilometres.
    fn base_rtt_at_km(&self, km: f64) -> f64 {
        2.0 * km * self.stretch / geo::FIBER_KM_PER_MS + self.last_mile_ms
    }

    /// One noisy traceroute sample.
    fn sample_rtt_ms(&self, base: f64, rng: &mut Rng) -> f64 {
        base + self.congestion_median_ms * rng.log_normal(0.0, self.congestion_sigma)
    }

    /// The minimum of one window's samples over a floor of `base` ms.
    fn min_rtt_over(&self, base: f64, rng: &mut Rng) -> f64 {
        (0..self.samples.max(1))
            .map(|_| self.sample_rtt_ms(base, rng))
            .fold(f64::INFINITY, f64::min)
    }
}

/// One per-probe monthly record.
#[derive(Debug, Clone, PartialEq)]
pub struct RttObservation {
    /// Month of the window.
    pub month: MonthStamp,
    /// Probe id.
    pub probe: ProbeId,
    /// Probe country.
    pub probe_country: CountryCode,
    /// Location of the probe (kept for the Fig. 20 map).
    pub location: GeoPoint,
    /// Minimum RTT observed in the window, ms.
    pub rtt_ms: f64,
    /// Which site caught the probe.
    pub site_id: String,
}

/// The campaign driver. Every probe's path to every site is measured
/// once, when the campaign is built; a monthly window then only picks the
/// nearest active site from that table.
pub struct GpdnsCampaign<'a> {
    probes: &'a ProbeRegistry,
    sites: &'a [GpdnsSite],
    paths: PathTable,
    model: LatencyModel,
    seed: u64,
}

impl<'a> GpdnsCampaign<'a> {
    /// Create a campaign over probes and the GPDNS site deployment.
    pub fn new(
        probes: &'a ProbeRegistry,
        sites: &'a [GpdnsSite],
        model: LatencyModel,
        seed: u64,
    ) -> Self {
        let anycast: Vec<AnycastSite> = sites
            .iter()
            .map(|s| AnycastSite {
                id: s.id.clone(),
                location: s.location,
                scope: SiteScope::Global,
            })
            .collect();
        let population: Vec<&Probe> = probes.all().iter().collect();
        GpdnsCampaign {
            probes,
            sites,
            paths: PathTable::new(&population, anycast),
            model,
            seed,
        }
    }

    /// Simulate one monthly window: `record(probe, site, min_rtt_ms)` for
    /// every active probe a site catches, in registry order.
    fn window(&self, month: MonthStamp, mut record: impl FnMut(&'a Probe, &'a GpdnsSite, f64)) {
        let active: Vec<usize> = (0..self.sites.len())
            .filter(|&s| self.sites[s].active_in(month))
            .collect();
        if active.is_empty() {
            return;
        }
        let root = Rng::seeded(self.seed);
        for (p, probe) in self.probes.all().iter().enumerate() {
            if !probe.active_in(month) {
                continue;
            }
            let Some((site, km)) = self.paths.catch(p, &active) else {
                continue;
            };
            let mut rng = root.fork_fmt(format_args!("gpdns/{}/{}", probe.id, month.index()));
            let rtt = self
                .model
                .min_rtt_over(self.model.base_rtt_at_km(km), &mut rng);
            record(probe, &self.sites[site], rtt);
        }
    }

    /// Run one monthly window across all active probes.
    pub fn run_month(&self, month: MonthStamp) -> Vec<RttObservation> {
        let mut out = Vec::new();
        self.window(month, |probe, site, rtt| {
            out.push(RttObservation {
                month,
                probe: probe.id,
                probe_country: probe.country,
                location: probe.location,
                rtt_ms: rtt,
                site_id: site.id.clone(),
            })
        });
        out
    }

    /// Per-country median min-RTT series over `[start, end]` — the Fig. 12
    /// country lines.
    ///
    /// Months are simulated across worker threads (every probe's RNG is
    /// forked from a per-probe-per-month label, so each month is an
    /// independent deterministic unit) and merged in month order.
    pub fn median_series(
        &self,
        start: MonthStamp,
        end: MonthStamp,
    ) -> BTreeMap<CountryCode, TimeSeries> {
        let monthly = sweep::month_range(start, end, |m| {
            let mut by_country: BTreeMap<CountryCode, Vec<f64>> = BTreeMap::new();
            self.window(m, |probe, _, rtt| {
                by_country.entry(probe.country).or_default().push(rtt)
            });
            by_country
                .into_iter()
                .filter_map(|(cc, mut rtts)| stats::median(&mut rtts).map(|med| (cc, med)))
                .collect::<Vec<_>>()
        });
        let mut out: BTreeMap<CountryCode, TimeSeries> = BTreeMap::new();
        for (m, medians) in monthly {
            for (cc, med) in medians {
                out.entry(cc).or_default().insert(m, med);
            }
        }
        out
    }
}

/// RTT bucket classification used by the Fig. 20 probe map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RttBucket {
    /// Below 10 ms (cyan circles in the paper's map).
    Under10,
    /// 10–20 ms (green circles).
    From10To20,
    /// 20–40 ms (yellow squares).
    From20To40,
    /// Above 40 ms (red diamonds).
    Over40,
}

impl RttBucket {
    /// Classify an RTT.
    pub fn of(rtt_ms: f64) -> Self {
        if rtt_ms < 10.0 {
            RttBucket::Under10
        } else if rtt_ms < 20.0 {
            RttBucket::From10To20
        } else if rtt_ms < 40.0 {
            RttBucket::From20To40
        } else {
            RttBucket::Over40
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::{country, Asn};

    fn m(y: i32, mo: u8) -> MonthStamp {
        MonthStamp::new(y, mo)
    }

    fn probe(id: u32, cc: CountryCode, lat: f64, lon: f64, egress: Option<&str>) -> Probe {
        Probe {
            id,
            country: cc,
            location: GeoPoint::new(lat, lon),
            asn: Asn(8048),
            active_since: m(2014, 1),
            active_until: None,
            egress: egress.map(|e| geo::airport(e).unwrap().location),
        }
    }

    fn site(code: &str, since: MonthStamp) -> GpdnsSite {
        GpdnsSite {
            id: code.into(),
            location: geo::airport(code).unwrap().location,
            active_since: since,
            active_until: None,
        }
    }

    fn world() -> (ProbeRegistry, Vec<GpdnsSite>) {
        let mut probes = ProbeRegistry::new();
        // Caracas probe behind a Miami-hauling incumbent.
        probes.add(probe(1, country::VE, 10.48, -66.90, Some("mia")));
        // Probe on the Colombian border, direct routing.
        probes.add(probe(2, country::VE, 8.3, -72.4, None));
        // Bogotá probe.
        probes.add(probe(3, country::CO, 4.7, -74.07, None));
        let sites = vec![site("mia", m(2014, 1)), site("bog", m(2016, 1))];
        (probes, sites)
    }

    #[test]
    fn border_probe_beats_caracas_probe() {
        let (probes, sites) = world();
        let campaign = GpdnsCampaign::new(&probes, &sites, LatencyModel::default(), 42);
        let obs = campaign.run_month(m(2020, 1));
        assert_eq!(obs.len(), 3);
        let by_id: BTreeMap<u32, &RttObservation> = obs.iter().map(|o| (o.probe, o)).collect();
        // The border probe reaches Bogotá directly, far faster than the
        // Caracas probe detouring through Miami.
        assert_eq!(by_id[&2].site_id, "bog");
        assert_eq!(by_id[&1].site_id, "mia");
        assert!(by_id[&2].rtt_ms < 16.0, "border: {}", by_id[&2].rtt_ms);
        assert!(
            by_id[&2].rtt_ms < by_id[&1].rtt_ms / 2.0,
            "border must be far faster"
        );
        assert!(by_id[&1].rtt_ms > 30.0, "caracas: {}", by_id[&1].rtt_ms);
        assert!(
            by_id[&3].rtt_ms < 10.0,
            "bogota local: {}",
            by_id[&3].rtt_ms
        );
    }

    #[test]
    fn min_rtt_close_to_base() {
        let (probes, sites) = world();
        let model = LatencyModel::default();
        let campaign = GpdnsCampaign::new(&probes, &sites, model, 42);
        let obs = campaign.run_month(m(2020, 1));
        for o in &obs {
            let p = probes.all().iter().find(|p| p.id == o.probe).unwrap();
            let s = sites.iter().find(|s| s.id == o.site_id).unwrap();
            let base = model.base_rtt_ms(
                p,
                &AnycastSite {
                    id: s.id.clone(),
                    location: s.location,
                    scope: SiteScope::Global,
                },
            );
            assert!(o.rtt_ms >= base, "min cannot undercut the floor");
            assert!(
                o.rtt_ms < base + 3.0,
                "min() should strip most congestion: {} vs {base}",
                o.rtt_ms
            );
        }
    }

    #[test]
    fn determinism_per_seed() {
        let (probes, sites) = world();
        let c1 = GpdnsCampaign::new(&probes, &sites, LatencyModel::default(), 42);
        let c2 = GpdnsCampaign::new(&probes, &sites, LatencyModel::default(), 42);
        assert_eq!(c1.run_month(m(2020, 1)), c2.run_month(m(2020, 1)));
        let c3 = GpdnsCampaign::new(&probes, &sites, LatencyModel::default(), 43);
        let a = c1.run_month(m(2020, 1));
        let b = c3.run_month(m(2020, 1));
        assert!(a.iter().zip(&b).any(|(x, y)| x.rtt_ms != y.rtt_ms));
    }

    #[test]
    fn site_activation_changes_history() {
        let (probes, sites) = world();
        let campaign = GpdnsCampaign::new(&probes, &sites, LatencyModel::default(), 42);
        // In 2015 Bogotá does not exist yet; the border probe goes to Miami.
        let obs = campaign.run_month(m(2015, 1));
        let border = obs.iter().find(|o| o.probe == 2).unwrap();
        assert_eq!(border.site_id, "mia");
        // Median series reflects the improvement for CO after 2016.
        let series = campaign.median_series(m(2015, 1), m(2016, 6));
        let co = &series[&country::CO];
        assert!(co.get(m(2015, 1)).unwrap() > co.get(m(2016, 6)).unwrap());
    }

    #[test]
    fn no_sites_no_observations() {
        let (probes, _) = world();
        let sites: Vec<GpdnsSite> = Vec::new();
        let campaign = GpdnsCampaign::new(&probes, &sites, LatencyModel::default(), 1);
        assert!(campaign.run_month(m(2020, 1)).is_empty());
        assert!(campaign.median_series(m(2020, 1), m(2020, 2)).is_empty());
    }

    #[test]
    fn buckets() {
        assert_eq!(RttBucket::of(5.0), RttBucket::Under10);
        assert_eq!(RttBucket::of(10.0), RttBucket::From10To20);
        assert_eq!(RttBucket::of(19.99), RttBucket::From10To20);
        assert_eq!(RttBucket::of(25.0), RttBucket::From20To40);
        assert_eq!(RttBucket::of(40.0), RttBucket::Over40);
    }
}
