//! Property tests pinning the campaigns' path-table catchment to a
//! direct per-call catchment.
//!
//! The reference functions below compute the catch and the monthly rounds
//! the direct way: a `min_by` over a fleet built for the month that
//! recomputes both paths at every comparison, an identity-keyed instance
//! map, and one encoded payload per observation. They live only here, as
//! the oracle the table-driven code must match exactly — same site, same
//! bits, same observations.

#![cfg(test)]

use crate::anycast::{AnycastFleet, AnycastSite, PathTable, SiteScope};
use crate::campaign::{self, ChaosCampaign, ChaosObservation};
use crate::chaos;
use crate::gpdns::{GpdnsCampaign, GpdnsSite, LatencyModel, RttObservation};
use crate::probes::{Probe, ProbeRegistry};
use crate::roots::{RootDeployment, RootInstance, RootLetter};
use lacnet_types::rng::Rng;
use lacnet_types::{country, geo, Asn, CountryCode, GeoPoint, MonthStamp};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The catch as a `min_by` over visible sites, every comparison
/// recomputing both paths.
fn reference_catch<'s>(sites: &'s [AnycastSite], probe: &Probe) -> Option<&'s AnycastSite> {
    sites.iter().filter(|s| s.visible_to(probe)).min_by(|a, b| {
        a.path_km(probe)
            .partial_cmp(&b.path_km(probe))
            .expect("path lengths are finite")
            .then_with(|| a.id.cmp(&b.id))
    })
}

/// The CHAOS round with a fleet built per letter, an identity-keyed
/// instance map, and one cloned payload per observation.
fn reference_chaos_round(
    probes: &ProbeRegistry,
    deployment: &RootDeployment,
    month: MonthStamp,
) -> Vec<ChaosObservation> {
    let mut out = Vec::new();
    for letter in RootLetter::ALL {
        let mut sites = Vec::new();
        let mut by_id = BTreeMap::new();
        for inst in deployment.active(letter, month) {
            sites.push(AnycastSite {
                id: inst.identity(),
                location: inst.location,
                scope: if inst.global {
                    SiteScope::Global
                } else {
                    SiteScope::Domestic(inst.country)
                },
            });
            by_id.insert(inst.identity(), inst);
        }
        if sites.is_empty() {
            continue;
        }
        for probe in probes.active_in(month) {
            if let Some(site) = reference_catch(&sites, probe) {
                out.push(ChaosObservation {
                    month,
                    probe: probe.id,
                    probe_country: probe.country,
                    letter,
                    txt: chaos::encode(by_id[&site.id]),
                });
            }
        }
    }
    out
}

/// The GPDNS window with a per-month fleet and the RTT floor recomputed
/// from the caught site's path.
fn reference_gpdns_round(
    probes: &ProbeRegistry,
    sites: &[GpdnsSite],
    model: LatencyModel,
    seed: u64,
    month: MonthStamp,
) -> Vec<RttObservation> {
    let fleet: Vec<AnycastSite> = sites
        .iter()
        .filter(|s| s.active_in(month))
        .map(|s| AnycastSite {
            id: s.id.clone(),
            location: s.location,
            scope: SiteScope::Global,
        })
        .collect();
    let root = Rng::seeded(seed);
    let mut out = Vec::new();
    for probe in probes.active_in(month) {
        let Some(site) = reference_catch(&fleet, probe) else {
            continue;
        };
        let mut rng = root.fork(&format!("gpdns/{}/{}", probe.id, month.index()));
        out.push(RttObservation {
            month,
            probe: probe.id,
            probe_country: probe.country,
            location: probe.location,
            rtt_ms: monthly_min_rtt(&model, probe, site, &mut rng),
            site_id: site.id.clone(),
        });
    }
    out
}

/// The monthly min-RTT as the campaign records it: the minimum of the
/// model's traceroute samples over the probe-site floor.
fn monthly_min_rtt(model: &LatencyModel, probe: &Probe, site: &AnycastSite, rng: &mut Rng) -> f64 {
    let base = model.base_rtt_ms(probe, site);
    (0..model.samples.max(1))
        .map(|_| base + model.congestion_median_ms * rng.log_normal(0.0, model.congestion_sigma))
        .fold(f64::INFINITY, f64::min)
}

/// A uniformly random element of a non-empty `slice`.
fn choice<'a, T>(rng: &mut Rng, slice: &'a [T]) -> &'a T {
    &slice[rng.below(slice.len() as u64) as usize]
}

/// Airport sites shared by probes and instances, so exact distance ties
/// (two instances at one site) and zero-length paths occur often.
const SITES: [&str; 6] = ["ccs", "mar", "bog", "mia", "gru", "scl"];
const COUNTRIES: [CountryCode; 3] = [country::VE, country::CO, country::BR];

fn month(rng: &mut Rng) -> MonthStamp {
    MonthStamp::new(2014, 1).plus(rng.below(96) as i32)
}

fn window(rng: &mut Rng) -> (MonthStamp, Option<MonthStamp>) {
    let since = month(rng);
    let until = rng.chance(0.4).then(|| since.plus(rng.below(48) as i32));
    (since, until)
}

fn location(rng: &mut Rng) -> GeoPoint {
    let code: &&str = choice(rng, &SITES);
    let at = geo::airport(code).unwrap().location;
    if rng.chance(0.5) {
        at
    } else {
        GeoPoint::new(
            at.lat_deg() + rng.uniform(-3.0, 3.0),
            at.lon_deg() + rng.uniform(-3.0, 3.0),
        )
    }
}

/// Up to `n` probes in the pool countries, some behind an egress detour
/// (Miami or Bogotá), with random activity windows.
fn random_probes(rng: &mut Rng, n: usize) -> ProbeRegistry {
    let mut probes = ProbeRegistry::new();
    for id in 0..n as u32 {
        let (active_since, active_until) = window(rng);
        let egress = match rng.below(3) {
            0 => Some(geo::airport("mia").unwrap().location),
            1 => Some(geo::airport("bog").unwrap().location),
            _ => None,
        };
        probes.add(Probe {
            id,
            country: *choice(rng, &COUNTRIES),
            location: location(rng),
            asn: Asn(64_500 + id),
            active_since,
            active_until,
            egress,
        });
    }
    probes
}

/// A deployment with unique `letter/site/unit` identities: each
/// combination is drawn at most once, at its airport or at another pool
/// site, global or domestic to a pool country.
fn random_deployment(rng: &mut Rng, density: f64) -> RootDeployment {
    let mut dep = RootDeployment::new();
    for letter in RootLetter::ALL {
        for site in SITES {
            for unit in 1..=2u8 {
                if !rng.chance(density) {
                    continue;
                }
                let (active_since, active_until) = window(rng);
                let location = if rng.chance(0.7) {
                    geo::airport(site).unwrap().location
                } else {
                    location(rng)
                };
                dep.add(RootInstance {
                    letter,
                    site: site.into(),
                    unit,
                    country: *choice(rng, &COUNTRIES),
                    location,
                    active_since,
                    active_until,
                    global: rng.chance(0.4),
                });
            }
        }
    }
    dep
}

/// Sites with ids from a small pool — repeated ids and repeated
/// locations both occur — in any scope.
fn random_sites(rng: &mut Rng, n: usize) -> Vec<AnycastSite> {
    (0..n)
        .map(|_| AnycastSite {
            id: format!("s{}", rng.below(4)),
            location: location(rng),
            scope: match rng.below(3) {
                0 => SiteScope::Global,
                _ => SiteScope::Domestic(*choice(rng, &COUNTRIES)),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fleet_catch_is_the_min_by_catch(seed in any::<u64>(), n_sites in 0usize..10, n_probes in 1usize..12) {
        let mut rng = Rng::seeded(seed);
        let sites = random_sites(&mut rng, n_sites);
        let probes = random_probes(&mut rng, n_probes);
        let fleet = AnycastFleet::new(sites.clone());
        for probe in probes.all() {
            let ours = fleet.catch(probe).map(|s| s as *const AnycastSite);
            let reference = reference_catch(fleet.sites(), probe).map(|s| s as *const AnycastSite);
            prop_assert_eq!(ours, reference);
        }
    }

    #[test]
    fn path_table_catch_is_the_fleet_catch(seed in any::<u64>(), n_sites in 0usize..10, n_probes in 1usize..12) {
        let mut rng = Rng::seeded(seed);
        let sites = random_sites(&mut rng, n_sites);
        let probes = random_probes(&mut rng, n_probes);
        let population: Vec<&Probe> = probes.all().iter().collect();
        let table = PathTable::new(&population, sites.clone());
        for _ in 0..4 {
            let active: Vec<usize> = (0..sites.len()).filter(|_| rng.chance(0.7)).collect();
            let fleet: Vec<AnycastSite> = active.iter().map(|&s| sites[s].clone()).collect();
            for (p, probe) in population.iter().enumerate() {
                let ours = table
                    .catch(p, &active)
                    .map(|(s, km)| (sites[s].id.clone(), sites[s].location, km.to_bits()));
                let reference = reference_catch(&fleet, probe)
                    .map(|s| (s.id.clone(), s.location, s.path_km(probe).to_bits()));
                prop_assert_eq!(ours, reference);
            }
        }
    }

    #[test]
    fn chaos_round_is_the_reference_round(seed in any::<u64>(), n_probes in 0usize..14, density in 0u32..60) {
        let mut rng = Rng::seeded(seed);
        let probes = random_probes(&mut rng, n_probes);
        let deployment = random_deployment(&mut rng, density as f64 / 100.0);
        let campaign = ChaosCampaign::new(&probes, &deployment);
        for _ in 0..3 {
            let m = month(&mut rng);
            let reference = reference_chaos_round(&probes, &deployment, m);
            prop_assert_eq!(campaign.run_month(m), reference.clone());
            prop_assert_eq!(
                campaign.replicas_by_country(m),
                campaign::replicas_by_country(&reference)
            );
        }
    }

    #[test]
    fn vantage_round_is_the_full_round_filtered(seed in any::<u64>(), n_probes in 0usize..14, density in 0u32..60) {
        let mut rng = Rng::seeded(seed);
        let probes = random_probes(&mut rng, n_probes);
        let deployment = random_deployment(&mut rng, density as f64 / 100.0);
        let full = ChaosCampaign::new(&probes, &deployment);
        for vantage in COUNTRIES {
            let from_vantage = ChaosCampaign::from_country(&probes, &deployment, vantage);
            for _ in 0..2 {
                let m = month(&mut rng);
                let filtered: Vec<ChaosObservation> = full
                    .run_month(m)
                    .into_iter()
                    .filter(|o| o.probe_country == vantage)
                    .collect();
                prop_assert_eq!(from_vantage.run_month(m), filtered.clone());
                prop_assert_eq!(
                    from_vantage.replicas_by_country(m),
                    campaign::replicas_by_country(&filtered)
                );
            }
        }
    }

    #[test]
    fn gpdns_window_is_the_reference_window(seed in any::<u64>(), n_probes in 0usize..14, n_sites in 0usize..8) {
        let mut rng = Rng::seeded(seed);
        let probes = random_probes(&mut rng, n_probes);
        let sites: Vec<GpdnsSite> = (0..n_sites)
            .map(|i| {
                let (active_since, active_until) = window(&mut rng);
                GpdnsSite {
                    id: format!("g{}", i % 3),
                    location: location(&mut rng),
                    active_since,
                    active_until,
                }
            })
            .collect();
        let model = LatencyModel::default();
        let campaign = GpdnsCampaign::new(&probes, &sites, model, seed);
        for _ in 0..3 {
            let m = month(&mut rng);
            prop_assert_eq!(
                campaign.run_month(m),
                reference_gpdns_round(&probes, &sites, model, seed, m)
            );
        }
    }
}

#[test]
fn exact_ties_go_to_the_smaller_id_in_table_and_fleet() {
    let at = geo::airport("bog").unwrap().location;
    let site = |id: &str| AnycastSite {
        id: id.into(),
        location: at,
        scope: SiteScope::Global,
    };
    let sites = vec![site("zz"), site("aa"), site("mm")];
    let probe = Probe {
        id: 1,
        country: country::VE,
        location: geo::airport("ccs").unwrap().location,
        asn: Asn(8048),
        active_since: MonthStamp::new(2014, 1),
        active_until: None,
        egress: Some(geo::airport("mia").unwrap().location),
    };
    let table = PathTable::new(&[&probe], sites.clone());
    assert_eq!(table.catch(0, &[0, 1, 2]).map(|(s, _)| s), Some(1));
    assert_eq!(table.catch(0, &[0, 2]).map(|(s, _)| s), Some(2));
    assert_eq!(table.catch(0, &[]), None);
    let fleet = AnycastFleet::new(sites);
    assert_eq!(fleet.catch(&probe).unwrap().id, "aa");
}

#[test]
fn foreign_domestic_sites_are_never_caught() {
    let probe = Probe {
        id: 1,
        country: country::VE,
        location: geo::airport("ccs").unwrap().location,
        asn: Asn(8048),
        active_since: MonthStamp::new(2014, 1),
        active_until: None,
        egress: None,
    };
    // The Colombian local node sits next door; the only global site is
    // in Brazil. A table marks the local node invisible to the VE probe.
    let sites = vec![
        AnycastSite {
            id: "bog-local".into(),
            location: geo::airport("bog").unwrap().location,
            scope: SiteScope::Domestic(country::CO),
        },
        AnycastSite {
            id: "gru".into(),
            location: geo::airport("gru").unwrap().location,
            scope: SiteScope::Global,
        },
    ];
    let table = PathTable::new(&[&probe], sites);
    assert_eq!(table.catch(0, &[0]), None);
    assert_eq!(table.catch(0, &[0, 1]).map(|(s, _)| s), Some(1));
}
