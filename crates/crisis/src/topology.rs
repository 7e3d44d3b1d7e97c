//! The evolving AS-level topology (Figs. 8 and 9, and the routing
//! substrate for address-space visibility).
//!
//! Three ingredients:
//!
//! * a static **global transit cast** — a tier-1 clique plus the regional
//!   wholesalers that reach Venezuela's shores;
//! * **CANTV's scripted transit timeline**, transcribed from Fig. 9 and
//!   §6.1: growth to 11 upstreams by 2013, the US-provider exodus
//!   (Verizon/Sprint/AT&T 2013, GTT 2017, Level3 2018, Telxius and
//!   Arelion in between), the trough of 3 providers around 2020
//!   (Telecom Italia, Columbus, V.tal), and the recent rebound (Orange's
//!   return, Gold Data);
//! * **investment-driven growth** for every other operator: incumbents
//!   add upstreams while their economy invests; enterprises and small
//!   access networks join as CANTV customers from the 2007
//!   nationalisation onward.

use crate::economy::Economy;
use crate::operators::{OperatorKind, Operators};
use lacnet_bgp::{AsGraph, RelEdge, TopologyArchive};
use lacnet_types::{country, Asn, MonthStamp};

/// The tier-1 clique (transit-free, fully peered).
pub const TIER1: &[u32] = &[
    701, 1239, 7018, 3356, 3549, 1299, 3257, 2914, 6453, 6762, 5511,
];

/// Regional wholesale transits and their own (two) tier-1 providers,
/// with the month they entered the market.
const REGIONALS: &[(u32, u32, u32, (i32, u8))] = &[
    (23520, 3356, 7018, (1999, 1)),   // Columbus Networks
    (52320, 6762, 3356, (2009, 1)),   // V.tal / Brasil Telecom (GlobeNet)
    (12956, 6762, 1299, (2001, 1)),   // Telxius
    (28007, 7018, 1299, (2012, 1)),   // Gold Data
    (4436, 3257, 701, (2000, 1)),     // GTT (ex-nLayer)
    (4004, 701, 1239, (1998, 6)),     // legacy US wholesale
    (7927, 7018, 1239, (1998, 1)),    // early LatAm wholesale
    (19962, 3356, 1299, (2003, 1)),   // regional carrier
    (262589, 52320, 6762, (2013, 1)), // LACNIC-region wholesale
];

/// CANTV's transit providers as `(asn, start, end)` intervals (end
/// exclusive; `None` = still serving). Transcribed from Fig. 9.
#[allow(clippy::type_complexity)]
pub const CANTV_TRANSIT_INTERVALS: &[(u32, (i32, u8), Option<(i32, u8)>)] = &[
    (701, (1998, 1), Some((2013, 7))),   // Verizon leaves 2013
    (1239, (1999, 3), Some((2013, 5))),  // Sprint leaves 2013
    (7018, (1998, 6), Some((2013, 10))), // AT&T leaves 2013
    (3356, (2001, 5), Some((2018, 3))),  // Level3 leaves 2018
    (3549, (2003, 8), Some((2018, 3))),  // Level3/GBLX leaves 2018
    (1299, (2005, 4), Some((2015, 9))),  // Arelion stops serving
    (3257, (2006, 9), Some((2017, 4))),  // GTT leaves 2017
    (4436, (2013, 10), Some((2017, 4))), // GTT's second ASN
    (6762, (2002, 2), None),             // Telecom Italia — longstanding
    (23520, (2007, 1), None),            // Columbus — sole US survivor
    (12956, (2009, 2), Some((2016, 6))), // Telxius stops serving
    (4004, (2011, 11), Some((2014, 7))),
    (7927, (1998, 1), Some((2004, 1))),
    (19962, (2004, 6), Some((2009, 1))),
    (5511, (2008, 3), Some((2011, 7))), // Orange, first stint
    (5511, (2021, 3), None),            // Orange returns (§6.1)
    (262589, (2013, 5), Some((2016, 3))),
    (52320, (2019, 6), None), // V.tal via GlobeNet
    (28007, (2022, 4), None), // Gold Data — recent addition
];

/// Founding month of each Venezuelan Table-1 operator (Telefónica began
/// operations in 2005 per §4; 4-byte-ASN entrants are post-2010).
pub fn ve_founding_month(asn: Asn) -> MonthStamp {
    match asn.raw() {
        8048 => MonthStamp::new(1996, 1),
        21826 => MonthStamp::new(2001, 6),  // Telemic / Inter
        6306 => MonthStamp::new(2005, 3),   // Telefónica de Venezuela
        11562 => MonthStamp::new(1999, 9),  // NetUno
        27889 => MonthStamp::new(2002, 1),  // Movilnet
        264731 => MonthStamp::new(2011, 5), // Digitel
        264628 => MonthStamp::new(2014, 8), // Fibex
        263703 => MonthStamp::new(2015, 2), // Viginet
        61461 => MonthStamp::new(2016, 4),  // Airtek
        272809 => MonthStamp::new(2018, 9), // Thundernet
        a if (275_000..276_000).contains(&a) => {
            // Small access networks appear from 2016 on.
            MonthStamp::new(2016, 1).plus(((a - 275_000) * 5) as i32 % 84)
        }
        a if (276_500..277_000).contains(&a) => {
            // Enterprises joined CANTV after the 2007 nationalisation.
            MonthStamp::new(2007, 6).plus(((a - 276_500) * 7) as i32 % 150)
        }
        _ => MonthStamp::new(2000, 1),
    }
}

/// Non-Venezuelan ISP founding: incumbents are old; ISP k enters around
/// 2000 + 2k years.
fn founding(op_kind: OperatorKind, asn: Asn, ve: bool) -> MonthStamp {
    if ve {
        return ve_founding_month(asn);
    }
    match op_kind {
        OperatorKind::Incumbent => MonthStamp::new(1998, 1),
        OperatorKind::Mobile => MonthStamp::new(2000, 6),
        OperatorKind::Isp => MonthStamp::new(2002, 1).plus((asn.raw() % 8) as i32 * 24),
        OperatorKind::Enterprise => MonthStamp::new(2008, 1),
    }
}

/// Builds the monthly topology archive.
pub struct TopologyBuilder<'a> {
    ops: &'a Operators,
    economy: &'a Economy,
    scenario: Option<&'a crate::scenario::Scenario>,
}

impl<'a> TopologyBuilder<'a> {
    /// Create a builder over the cast and economy, under the default
    /// (Venezuela) scenario.
    pub fn new(ops: &'a Operators, economy: &'a Economy) -> Self {
        TopologyBuilder {
            ops,
            economy,
            scenario: None,
        }
    }

    /// Apply a scenario's transit withdrawals: a `[[transit_withdrawals]]`
    /// entry caps every matching CANTV provider interval at the given
    /// month (a withdrawn provider does not return). A scenario with no
    /// withdrawals builds the historical archive exactly.
    pub fn with_scenario(mut self, scenario: &'a crate::scenario::Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// The collector set used for visibility decisions: the tier-1 clique.
    pub fn collectors() -> Vec<Asn> {
        TIER1.iter().map(|&a| Asn(a)).collect()
    }

    /// Build the archive over `[start, end]`, one snapshot per month.
    pub fn build(&self, start: MonthStamp, end: MonthStamp) -> TopologyArchive {
        let mut archive = TopologyArchive::new();
        for m in start.through(end) {
            archive.insert(m, self.snapshot(m));
        }
        archive
    }

    /// One monthly snapshot.
    pub fn snapshot(&self, m: MonthStamp) -> AsGraph {
        let mut edges: Vec<RelEdge> = Vec::new();

        // Tier-1 clique.
        for (i, &a) in TIER1.iter().enumerate() {
            for &b in TIER1.iter().skip(i + 1) {
                edges.push(RelEdge::peering(Asn(a), Asn(b)));
            }
        }
        // Regional wholesalers.
        for &(asn, p1, p2, (y, mo)) in REGIONALS {
            if m >= MonthStamp::new(y, mo) {
                edges.push(RelEdge::transit(Asn(p1), Asn(asn)));
                edges.push(RelEdge::transit(Asn(p2), Asn(asn)));
            }
        }
        // CANTV's scripted providers. A scenario withdrawal caps the
        // interval: the provider leaves at the withdrawal month if that
        // is earlier than (or replaces) the scripted departure.
        for &(prov, (sy, sm), until) in CANTV_TRANSIT_INTERVALS {
            let mut until = until.map(|(ey, em)| MonthStamp::new(ey, em));
            if let Some(w) = self.scenario.and_then(|s| s.withdrawal_end(Asn(prov))) {
                until = Some(until.map_or(w, |u| u.min(w)));
            }
            let active = m >= MonthStamp::new(sy, sm) && until.is_none_or(|e| m < e);
            if active {
                edges.push(RelEdge::transit(Asn(prov), Asn(8048)));
            }
        }

        // Venezuelan non-incumbent operators.
        for op in self.ops.in_country(country::VE) {
            if op.asn == Asn(8048) || m < founding(op.kind, op.asn, true) {
                continue;
            }
            match op.kind {
                OperatorKind::Enterprise => {
                    // Banks and universities single-home behind CANTV.
                    edges.push(RelEdge::transit(Asn(8048), op.asn));
                }
                _ => {
                    // Access networks reach the world through the
                    // wholesalers with submarine capacity to Venezuela,
                    // never through CANTV (§7.2's observation), except a
                    // handful of small networks that did sign with the
                    // incumbent.
                    let menu: &[u32] = &[23520, 6762, 52320, 28007, 12956];
                    let h = op.asn.raw() as usize;
                    let first = menu[h % menu.len()];
                    if (m >= MonthStamp::new(2009, 1).plus((h % 36) as i32)
                        || op.asn.raw() < 100_000)
                        && self.active_regional(first, m)
                    {
                        edges.push(RelEdge::transit(Asn(first), op.asn));
                    }
                    // Multihome the bigger ISPs.
                    if op.users > 1_000_000 {
                        let second = menu[(h / 7) % menu.len()];
                        if second != first && self.active_regional(second, m) {
                            edges.push(RelEdge::transit(Asn(second), op.asn));
                        }
                    }
                    // A few small networks buy from CANTV domestically.
                    if op.users > 0
                        && op.users < 600_000
                        && h.is_multiple_of(3)
                        && m >= MonthStamp::new(2014, 1)
                    {
                        edges.push(RelEdge::transit(Asn(8048), op.asn));
                    }
                }
            }
        }

        // The rest of the region: incumbents buy from tier-1s, growing
        // with investment; ISPs buy from their incumbent plus sometimes a
        // wholesaler.
        for info in country::LACNIC_REGION {
            if info.code == country::VE {
                continue;
            }
            let Some(incumbent) = self.ops.incumbent(info.code) else {
                continue;
            };
            let inv = self.economy.investment_index(info.code, m);
            // Upstream count: 2 at founding, +1 per 6 years of healthy
            // investment, capped by the tier-1 pool.
            let years = m.years_since(MonthStamp::new(1998, 1)).max(0.0);
            let n_up = (2.0 + years / 6.0 * inv).floor() as usize;
            let n_up = n_up.clamp(2, TIER1.len());
            let h = incumbent.asn.raw() as usize;
            for k in 0..n_up {
                let prov = TIER1[(h + k * 3) % TIER1.len()];
                edges.push(RelEdge::transit(Asn(prov), incumbent.asn));
            }
            for op in self.ops.in_country(info.code) {
                if op.asn == incumbent.asn || m < founding(op.kind, op.asn, false) {
                    continue;
                }
                edges.push(RelEdge::transit(incumbent.asn, op.asn));
                if op.users > 2_000_000 {
                    let prov = REGIONALS[(op.asn.raw() as usize) % REGIONALS.len()].0;
                    if self.active_regional(prov, m) {
                        edges.push(RelEdge::transit(Asn(prov), op.asn));
                    }
                }
            }
        }

        AsGraph::from_edges(edges)
    }

    fn active_regional(&self, asn: u32, m: MonthStamp) -> bool {
        // Tier-1s (Telecom Italia appears in the wholesale menu) are
        // always in the market; regional wholesalers from their founding.
        if TIER1.contains(&asn) {
            return true;
        }
        REGIONALS
            .iter()
            .find(|&&(a, ..)| a == asn)
            .map(|&(_, _, _, (y, mo))| m >= MonthStamp::new(y, mo))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operators;
    use lacnet_bgp::analytics;

    fn world() -> (Operators, Economy) {
        (
            Operators::generate(42),
            Economy::generate(MonthStamp::new(1980, 1), MonthStamp::new(2024, 2)),
        )
    }

    #[test]
    fn fig8_upstream_trajectory() {
        let (ops, eco) = world();
        let builder = TopologyBuilder::new(&ops, &eco);
        let archive = builder.build(MonthStamp::new(1998, 1), MonthStamp::new(2024, 2));
        let up = analytics::upstream_series(&archive, Asn(8048));
        // Peak of 11 upstream providers around 2013 (§6.1).
        let peak = up.max_value().unwrap();
        assert!((10.0..=12.0).contains(&peak), "peak {peak}");
        let at_2013 = up.get(MonthStamp::new(2013, 1)).unwrap();
        assert!((10.0..=12.0).contains(&at_2013), "2013 {at_2013}");
        // Decline to 3 by 2020.
        let at_2020 = up.get(MonthStamp::new(2020, 6)).unwrap();
        assert_eq!(at_2020, 3.0, "2020 trough");
        // Recent rebound to ≥ 5.
        let last = up.last().unwrap().1;
        assert!(last >= 5.0, "rebound {last}");
    }

    #[test]
    fn fig9_departures_match_the_narrative() {
        let (ops, eco) = world();
        let builder = TopologyBuilder::new(&ops, &eco);
        let archive = builder.build(MonthStamp::new(1998, 1), MonthStamp::new(2024, 2));
        let gone: std::collections::BTreeMap<Asn, MonthStamp> =
            analytics::departed_providers(&archive, Asn(8048))
                .into_iter()
                .collect();
        // Verizon, Sprint, AT&T leave during 2013.
        assert_eq!(gone[&Asn(701)].year(), 2013);
        assert_eq!(gone[&Asn(1239)].year(), 2013);
        assert_eq!(gone[&Asn(7018)].year(), 2013);
        // GTT in 2017, Level3 in 2018.
        assert_eq!(gone[&Asn(3257)].year(), 2017);
        assert_eq!(gone[&Asn(3356)].year(), 2018);
        // Survivors are not in the departed set.
        assert!(!gone.contains_key(&Asn(6762)));
        assert!(!gone.contains_key(&Asn(23520)));
        assert!(!gone.contains_key(&Asn(52320)));
    }

    #[test]
    fn fig9_roster_served_at_least_12_months() {
        let (ops, eco) = world();
        let builder = TopologyBuilder::new(&ops, &eco);
        let archive = builder.build(MonthStamp::new(1998, 1), MonthStamp::new(2024, 2));
        let pp = analytics::ProviderPresence::compute_cached(
            &archive,
            Asn(8048),
            12,
            &lacnet_bgp::ConeCache::new(),
        );
        // The Fig. 9 heatmap lists 18 providers.
        assert_eq!(pp.providers.len(), 18, "{:?}", pp.providers);
        // Columbus is the sole remaining US-registered provider.
        assert!(pp.providers.contains(&Asn(23520)));
    }

    #[test]
    fn cantv_downstreams_grow_after_nationalisation() {
        let (ops, eco) = world();
        let builder = TopologyBuilder::new(&ops, &eco);
        let archive = builder.build(MonthStamp::new(2000, 1), MonthStamp::new(2024, 2));
        let down = analytics::downstream_series(&archive, Asn(8048));
        let at_2006 = down.get(MonthStamp::new(2006, 1)).unwrap();
        let at_2024 = down.get(MonthStamp::new(2024, 1)).unwrap();
        assert!(at_2006 <= 2.0, "pre-nationalisation {at_2006}");
        assert!(at_2024 >= 15.0, "accumulated customers {at_2024}");
        // Monotone-ish growth: the 2015 count is between.
        let at_2015 = down.get(MonthStamp::new(2015, 1)).unwrap();
        assert!(at_2015 > at_2006 && at_2015 < at_2024);
    }

    #[test]
    fn valley_free_world_is_routable() {
        use lacnet_bgp::propagation::RouteSim;
        let (ops, eco) = world();
        let builder = TopologyBuilder::new(&ops, &eco);
        let g = builder.snapshot(MonthStamp::new(2020, 6));
        // Every eyeball AS in the region reaches all tier-1 collectors.
        let sim = RouteSim::new(&g);
        let collectors = TopologyBuilder::collectors();
        for cc in [country::VE, country::BR, country::CL] {
            for op in ops.eyeballs(cc).iter().take(3) {
                if !g.contains(op.asn) {
                    continue;
                }
                let out = sim.propagate(op.asn);
                let vis = out.visibility(&collectors);
                assert!(vis > 0.99, "{} AS{} visibility {vis}", cc, op.asn.raw());
            }
        }
    }

    #[test]
    fn tier1s_are_transit_free() {
        let (ops, eco) = world();
        let builder = TopologyBuilder::new(&ops, &eco);
        let g = builder.snapshot(MonthStamp::new(2020, 6));
        for &t in TIER1 {
            assert_eq!(g.upstream_count(Asn(t)), 0, "AS{t} has providers");
        }
    }

    #[test]
    fn telefonica_served_by_telxius() {
        let (ops, eco) = world();
        let builder = TopologyBuilder::new(&ops, &eco);
        let g = builder.snapshot(MonthStamp::new(2012, 1));
        // Telefónica de Venezuela multihomes through the wholesale menu
        // (it is a >1M-user eyeball), never through CANTV.
        let provs = g.providers(Asn(6306));
        assert!(!provs.is_empty());
        assert!(!provs.contains(&Asn(8048)));
    }
}
