//! The CHAOS TXT built-in campaign and its aggregations.
//!
//! RIPE Atlas's built-in measurements query every root letter from every
//! probe every 30 minutes; the study samples the first five days of each
//! month. One simulated "round" per month is sufficient here because
//! catchments are stable within a month in the model — what varies is the
//! deployment and the probe population.

use crate::anycast::{AnycastSite, PathTable, SiteScope};
use crate::chaos;
use crate::probes::{Probe, ProbeId, ProbeRegistry};
use crate::roots::{RootDeployment, RootInstance, RootLetter};
use lacnet_types::{CountryCode, MonthStamp};
use std::collections::{BTreeMap, BTreeSet};

/// One CHAOS TXT response as the platform would archive it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosObservation {
    /// Month of the measurement round.
    pub month: MonthStamp,
    /// Probe that issued the query.
    pub probe: ProbeId,
    /// Country hosting the probe.
    pub probe_country: CountryCode,
    /// Letter queried.
    pub letter: RootLetter,
    /// The TXT payload returned by the instance that caught the query.
    pub txt: String,
}

/// The campaign driver: probes × letters × months over a deployment.
///
/// Probes and root instances do not move, so every probe's path to every
/// instance the deployment ever announces is measured once, when the
/// campaign is built. A monthly round then only picks, per probe and
/// letter, the nearest of that month's active instances from the table.
pub struct ChaosCampaign<'a> {
    probes: Vec<&'a Probe>,
    instances: &'a [RootInstance],
    paths: PathTable,
}

impl<'a> ChaosCampaign<'a> {
    /// Create a campaign over the given probe registry and deployment.
    pub fn new(probes: &'a ProbeRegistry, deployment: &'a RootDeployment) -> Self {
        Self::over(probes.all().iter().collect(), deployment)
    }

    /// A campaign run only from the probes hosted in `vantage`: its
    /// rounds are the full campaign's rounds restricted to those probes,
    /// without simulating the others.
    pub fn from_country(
        probes: &'a ProbeRegistry,
        deployment: &'a RootDeployment,
        vantage: CountryCode,
    ) -> Self {
        Self::over(
            probes
                .all()
                .iter()
                .filter(|p| p.country == vantage)
                .collect(),
            deployment,
        )
    }

    fn over(probes: Vec<&'a Probe>, deployment: &'a RootDeployment) -> Self {
        let instances = deployment.all();
        let sites: Vec<AnycastSite> = instances
            .iter()
            .map(|inst| AnycastSite {
                id: inst.identity(),
                location: inst.location,
                scope: if inst.global {
                    SiteScope::Global
                } else {
                    SiteScope::Domestic(inst.country)
                },
            })
            .collect();
        ChaosCampaign {
            paths: PathTable::new(&probes, sites),
            probes,
            instances,
        }
    }

    /// The catchment of one monthly round: `caught(probe, i)` for every
    /// active probe and every letter with a visible active instance, `i`
    /// indexing the deployment's instances — letters in
    /// [`RootLetter::ALL`] order, then probes in registry order.
    fn round(&self, month: MonthStamp, mut caught: impl FnMut(&'a Probe, usize)) {
        let probes: Vec<usize> = (0..self.probes.len())
            .filter(|&p| self.probes[p].active_in(month))
            .collect();
        for letter in RootLetter::ALL {
            let active: Vec<usize> = (0..self.instances.len())
                .filter(|&i| {
                    self.instances[i].letter == letter && self.instances[i].active_in(month)
                })
                .collect();
            if active.is_empty() {
                continue;
            }
            for &p in &probes {
                if let Some((i, _)) = self.paths.catch(p, &active) {
                    caught(self.probes[p], i);
                }
            }
        }
    }

    /// Run one monthly round: every active probe queries every letter.
    /// Payloads are encoded once per answering instance, not once per
    /// probe — the generation-side half of the batched-decoding contract.
    pub fn run_month(&self, month: MonthStamp) -> Vec<ChaosObservation> {
        let mut payloads: Vec<Option<String>> = vec![None; self.instances.len()];
        let mut out = Vec::new();
        self.round(month, |probe, i| {
            let inst = &self.instances[i];
            let txt = payloads[i].get_or_insert_with(|| chaos::encode(inst));
            out.push(ChaosObservation {
                month,
                probe: probe.id,
                probe_country: probe.country,
                letter: inst.letter,
                txt: txt.clone(),
            });
        });
        out
    }

    /// [`replicas_by_country`] of this month's round, without building
    /// the round's observations: each distinct answering instance is
    /// encoded and decoded once, however many probes it caught.
    pub fn replicas_by_country(
        &self,
        month: MonthStamp,
    ) -> BTreeMap<CountryCode, BTreeSet<String>> {
        let mut answering = vec![false; self.instances.len()];
        self.round(month, |_, i| answering[i] = true);
        let payloads: Vec<(RootLetter, String)> = self
            .instances
            .iter()
            .zip(answering)
            .filter(|(_, answered)| *answered)
            .map(|(inst, _)| (inst.letter, chaos::encode(inst)))
            .collect();
        decode_replicas(payloads.iter().map(|(letter, txt)| (*letter, txt.as_str())))
    }
}

/// Decode a round's observations into the set of unique replica
/// identities seen per hosting country — the per-month datum of Fig. 6.
/// Responses that fail to decode or resolve to no country are dropped
/// (as the paper's regex pipeline drops unmappable strings).
///
/// Decoding is batched through [`chaos::BatchDecoder`]: each distinct
/// `(letter, txt)` payload in the round runs the grammar walk, airport
/// lookup and identity rendering once, however many probes returned it.
pub fn replicas_by_country(
    observations: &[ChaosObservation],
) -> BTreeMap<CountryCode, BTreeSet<String>> {
    decode_replicas(observations.iter().map(|o| (o.letter, o.txt.as_str())))
}

fn decode_replicas<'t>(
    payloads: impl Iterator<Item = (RootLetter, &'t str)>,
) -> BTreeMap<CountryCode, BTreeSet<String>> {
    let mut batch = chaos::BatchDecoder::new();
    let mut out: BTreeMap<CountryCode, BTreeSet<String>> = BTreeMap::new();
    for (letter, txt) in payloads {
        if let Some(decoded) = batch.decode(letter, txt) {
            if let Some(cc) = decoded.country {
                out.entry(cc).or_default().insert(decoded.identity.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::Probe;
    use lacnet_types::{country, geo, Asn, GeoPoint};

    fn m(y: i32, mo: u8) -> MonthStamp {
        MonthStamp::new(y, mo)
    }

    fn probe(id: u32, cc: CountryCode, code: &str, egress: Option<&str>) -> Probe {
        Probe {
            id,
            country: cc,
            location: geo::airport(code).unwrap().location,
            asn: Asn(8048),
            active_since: m(2016, 1),
            active_until: None,
            egress: egress.map(|e| geo::airport(e).unwrap().location),
        }
    }

    fn instance(
        letter: RootLetter,
        site: &str,
        cc: CountryCode,
        since: MonthStamp,
        until: Option<MonthStamp>,
        global: bool,
    ) -> RootInstance {
        RootInstance {
            letter,
            site: site.into(),
            unit: 1,
            country: cc,
            location: geo::airport(site)
                .map(|a| a.location)
                .unwrap_or(GeoPoint::new(0.0, 0.0)),
            active_since: since,
            active_until: until,
            global,
        }
    }

    /// VE hosts a domestic L replica until mid-2019; Bogotá and Miami
    /// global L replicas exist throughout; an F replica exists in Caracas
    /// until 2018.
    fn world() -> (ProbeRegistry, RootDeployment) {
        let mut probes = ProbeRegistry::new();
        probes.add(probe(1, country::VE, "ccs", Some("mia")));
        probes.add(probe(2, country::VE, "mar", None));
        probes.add(probe(3, country::CO, "bog", None));
        let mut dep = RootDeployment::new();
        dep.add(instance(
            RootLetter::L,
            "ccs",
            country::VE,
            m(2016, 1),
            Some(m(2019, 6)),
            false,
        ));
        dep.add(instance(
            RootLetter::F,
            "ccs",
            country::VE,
            m(2016, 1),
            Some(m(2018, 3)),
            false,
        ));
        dep.add(instance(
            RootLetter::L,
            "bog",
            country::CO,
            m(2016, 1),
            None,
            true,
        ));
        dep.add(instance(
            RootLetter::L,
            "mia",
            country::US,
            m(2016, 1),
            None,
            true,
        ));
        dep.add(instance(
            RootLetter::F,
            "mia",
            country::US,
            m(2016, 1),
            None,
            true,
        ));
        (probes, dep)
    }

    #[test]
    fn domestic_replica_caught_while_active() {
        let (probes, dep) = world();
        let campaign = ChaosCampaign::new(&probes, &dep);
        let obs = campaign.run_month(m(2017, 1));
        // VE probes hit the domestic L node.
        let ve_l: Vec<_> = obs
            .iter()
            .filter(|o| o.probe_country == country::VE && o.letter == RootLetter::L)
            .collect();
        assert_eq!(ve_l.len(), 2);
        assert!(
            ve_l.iter().all(|o| o.txt == "ccs01.l.root-servers.org"),
            "{ve_l:?}"
        );
        // Colombian probe cannot see the VE domestic node; Bogotá global wins.
        let co_l = obs
            .iter()
            .find(|o| o.probe_country == country::CO && o.letter == RootLetter::L)
            .unwrap();
        assert_eq!(co_l.txt, "bog01.l.root-servers.org");
    }

    #[test]
    fn replica_regression_after_shutdown() {
        let (probes, dep) = world();
        let campaign = ChaosCampaign::new(&probes, &dep);
        let count = |month, cc| {
            campaign
                .replicas_by_country(month)
                .get(&cc)
                .map(BTreeSet::len)
        };
        // 2017: L-ccs + F-ccs = 2 replicas geolocated to VE.
        assert_eq!(count(m(2017, 1), country::VE), Some(2));
        // After F retires (2018-04) only L remains.
        assert_eq!(count(m(2018, 6), country::VE), Some(1));
        // After L retires (2019-07) VE disappears from the map entirely.
        assert_eq!(count(m(2020, 1), country::VE), None);
        // The US and CO replicas persist.
        assert!(count(m(2020, 1), country::US).unwrap() >= 1);
        assert_eq!(count(m(2020, 1), country::CO), Some(1));
    }

    #[test]
    fn origin_heatmap_shifts_to_foreign_sources() {
        let (probes, dep) = world();
        let campaign = ChaosCampaign::from_country(&probes, &dep, country::VE);
        let count = |month, cc| {
            campaign
                .replicas_by_country(month)
                .get(&cc)
                .map(BTreeSet::len)
        };
        // While domestic nodes lived, VE probes saw VE replicas.
        assert_eq!(count(m(2017, 1), country::VE), Some(2));
        // After the shutdowns, VE vanishes as an origin and the US/CO
        // replicas serve Venezuela.
        assert_eq!(count(m(2020, 1), country::VE), None);
        assert!(count(m(2020, 1), country::US).is_some());
        // The Maracaibo probe (no Miami egress) reaches Bogotá for L.
        assert!(count(m(2020, 1), country::CO).is_some());
    }

    #[test]
    fn letters_without_instances_produce_no_observations() {
        let (probes, dep) = world();
        let campaign = ChaosCampaign::new(&probes, &dep);
        let obs = campaign.run_month(m(2017, 1));
        assert!(obs
            .iter()
            .all(|o| matches!(o.letter, RootLetter::L | RootLetter::F)));
    }

    #[test]
    fn undecodable_observations_are_dropped() {
        let obs = vec![ChaosObservation {
            month: m(2017, 1),
            probe: 1,
            probe_country: country::VE,
            letter: RootLetter::L,
            txt: "garbage".into(),
        }];
        assert!(replicas_by_country(&obs).is_empty());
    }
}
