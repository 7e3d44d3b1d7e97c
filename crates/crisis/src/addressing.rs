//! Address-space history: the allocation ledger, delegation files, and
//! monthly announced-prefix (pfx2as) snapshots.
//!
//! Calibration (§4, Fig. 2, Fig. 14 / Appendix C):
//!
//! * CANTV dominates Venezuela's space throughout (peaking near 69%
//!   before Telefónica's entry, averaging ≈43%);
//! * Telefónica de Venezuela starts allocating in 2005 and narrows the
//!   gap to ≈11% by 2013;
//! * both stall during 2014–2017, when LACNIC's exhaustion phases cap
//!   allocations at a /22 (the ledger enforces
//!   [`lacnet_registry::ExhaustionPhase`]);
//! * from June 2016 Telefónica *withdraws* roughly half of its announced
//!   /17s (allocation unchanged — a pure visibility event), and in June
//!   2023 the space re-appears as aggregate announcements;
//! * announcements only enter the pfx2as table when valley-free
//!   propagation over that month's topology reaches at least one tier-1
//!   collector.

use crate::economy::Economy;
use crate::operators::{OperatorKind, Operators};
use crate::topology::TopologyBuilder;
use lacnet_bgp::propagation::RouteSim;
use lacnet_bgp::{AsGraph, OriginSet, PfxToAs};
use lacnet_registry::delegation::DelegationFile;
use lacnet_registry::exhaustion::ExhaustionPhase;
use lacnet_registry::ledger::{Allocation, AllocationLedger, PoolCarver};
use lacnet_types::{country, Asn, CountryCode, Date, Ipv4Net, MonthStamp};
use std::collections::BTreeMap;

/// Start of Telefónica's announced-space contraction (Appendix C: "around
/// June 2016, several /17 prefixes … were no longer visible").
pub fn withdrawal_start() -> MonthStamp {
    MonthStamp::new(2016, 6)
}

/// End of the contraction ("many of these address blocks reappeared in
/// June 2023 … as part of larger address blocks").
pub fn withdrawal_end() -> MonthStamp {
    MonthStamp::new(2023, 6)
}

/// The generated address-space history.
#[derive(Debug, Clone)]
pub struct Addressing {
    ledger: AllocationLedger,
    /// Telefónica's /16 allocations, in allocation order — the blocks the
    /// withdrawal policy operates on.
    telefonica_blocks: Vec<Ipv4Net>,
}

impl Addressing {
    /// Generate the full allocation history.
    pub fn generate(ops: &Operators, economy: &Economy) -> Self {
        let mut ledger = AllocationLedger::new();
        let mut telefonica_blocks = Vec::new();

        // One disjoint /8-scale pool per country, by registry order.
        let mut carvers: BTreeMap<CountryCode, PoolCarver> = BTreeMap::new();
        for (i, info) in country::LACNIC_REGION.iter().enumerate() {
            let base = Ipv4Net::truncating(std::net::Ipv4Addr::new(150 + i as u8, 0, 0, 0), 8);
            carvers.insert(info.code, PoolCarver::new(base));
        }

        let alloc = |carvers: &mut BTreeMap<CountryCode, PoolCarver>,
                     ledger: &mut AllocationLedger,
                     cc: CountryCode,
                     asn: Asn,
                     len: u8,
                     when: MonthStamp|
         -> Option<Ipv4Net> {
            let carver = carvers.get_mut(&cc)?;
            let prefix = carver.carve(len).ok()?;
            ledger
                .allocate(Allocation {
                    country: cc,
                    holder: asn,
                    prefix,
                    date: when.first_day(),
                })
                .ok()?;
            Some(prefix)
        };

        // CANTV: a /14 at founding, then a /16 every two years until the
        // exhaustion phases bite.
        alloc(
            &mut carvers,
            &mut ledger,
            country::VE,
            Asn(8048),
            14,
            MonthStamp::new(1996, 1),
        );
        for k in 0..9 {
            let when = MonthStamp::new(1998, 3).plus(k * 24);
            if Self::phase_allows(when, 16) {
                alloc(&mut carvers, &mut ledger, country::VE, Asn(8048), 16, when);
            }
        }
        // Post-exhaustion trickle: /22s at the permitted cadence.
        for k in 0..4 {
            let when = MonthStamp::new(2015, 1).plus(k * 9);
            if Self::phase_allows(when, 22) {
                alloc(&mut carvers, &mut ledger, country::VE, Asn(8048), 22, when);
            }
        }

        // Telefónica de Venezuela: two /16s at its 2005 entry, then one
        // per year while the market grew.
        for k in 0..10 {
            let when = if k < 2 {
                MonthStamp::new(2005, 3).plus(k * 6)
            } else {
                MonthStamp::new(2006, 3).plus((k - 2) * 12)
            };
            if Self::phase_allows(when, 16) {
                if let Some(p) = alloc(&mut carvers, &mut ledger, country::VE, Asn(6306), 16, when)
                {
                    telefonica_blocks.push(p);
                }
            }
        }

        // Remaining Venezuelan operators: blocks sized by market share,
        // at founding plus sparse growth.
        for op in ops.in_country(country::VE) {
            if matches!(op.asn.raw(), 8048 | 6306) {
                continue;
            }
            let when = crate::topology::ve_founding_month(op.asn);
            let len = match op.kind {
                OperatorKind::Enterprise => 22,
                _ if op.users > 2_000_000 => 16,
                _ if op.users > 900_000 => 17,
                _ if op.users > 400_000 => 18,
                _ => 20,
            };
            let len = Self::capped_len(when, len);
            alloc(&mut carvers, &mut ledger, country::VE, op.asn, len, when);
            // One growth block three years in, if policy allows.
            if op.users > 900_000 {
                let later = when.plus(36);
                let len = Self::capped_len(later, len + 1);
                alloc(&mut carvers, &mut ledger, country::VE, op.asn, len, later);
            }
        }

        // The rest of the region: incumbents and ISPs grow with
        // investment; this provides the denominator context for shares
        // and the bulk of the delegation files.
        for info in country::LACNIC_REGION {
            if info.code == country::VE {
                continue;
            }
            for op in ops.in_country(info.code) {
                let when = match op.kind {
                    OperatorKind::Incumbent => MonthStamp::new(1998, 1),
                    OperatorKind::Mobile => MonthStamp::new(2000, 6),
                    _ => MonthStamp::new(2002, 1).plus((op.asn.raw() % 8) as i32 * 24),
                };
                let len = match op.kind {
                    OperatorKind::Incumbent => 14,
                    OperatorKind::Mobile => 16,
                    OperatorKind::Enterprise => 22,
                    OperatorKind::Isp => 17,
                };
                alloc(&mut carvers, &mut ledger, info.code, op.asn, len, when);
                // Growth every four years while the economy invests.
                if op.kind != OperatorKind::Enterprise {
                    for k in 1..6 {
                        let later = when.plus(k * 48);
                        if economy.investment_index(info.code, later) > 0.6 {
                            let len = Self::capped_len(later, len + 2);
                            alloc(&mut carvers, &mut ledger, info.code, op.asn, len, later);
                        }
                    }
                }
            }
        }

        Addressing {
            ledger,
            telefonica_blocks,
        }
    }

    /// Whether the exhaustion phase in force at `when` allows a block of
    /// `len`.
    fn phase_allows(when: MonthStamp, len: u8) -> bool {
        let phase = ExhaustionPhase::at(when.first_day());
        match phase.max_allocation() {
            None => true,
            Some(max) => phase.open_to_existing_members() && (1u64 << (32 - len)) <= max,
        }
    }

    /// Clamp a desired length to what the phase allows (or return the
    /// desired length pre-exhaustion).
    fn capped_len(when: MonthStamp, desired: u8) -> u8 {
        match ExhaustionPhase::at(when.first_day()).max_allocation() {
            None => desired,
            Some(max) => {
                let min_len = 32 - (max.trailing_zeros() as u8);
                desired.max(min_len)
            }
        }
    }

    /// The allocation ledger.
    pub fn ledger(&self) -> &AllocationLedger {
        &self.ledger
    }

    /// The delegation file as published on `cutoff`.
    pub fn delegation_file(&self, cutoff: Date) -> DelegationFile {
        self.ledger.to_delegation_file(cutoff)
    }

    /// Telefónica's /16 blocks, allocation order.
    pub fn telefonica_blocks(&self) -> &[Ipv4Net] {
        &self.telefonica_blocks
    }

    /// The prefixes each origin announces in `month`, before visibility
    /// filtering. Telefónica deaggregates its /16s into /17s and, during
    /// the withdrawal window, pulls the odd-indexed blocks entirely;
    /// after the window the space returns as /16 aggregates.
    pub fn announced_prefixes(&self, month: MonthStamp) -> Vec<(Ipv4Net, Asn)> {
        let cutoff = month.last_day();
        let mut out = Vec::new();
        for a in self.ledger.entries() {
            if a.date > cutoff {
                continue;
            }
            if a.holder == Asn(6306) && self.telefonica_blocks.contains(&a.prefix) {
                let idx = self
                    .telefonica_blocks
                    .iter()
                    .position(|p| *p == a.prefix)
                    .expect("block is in list");
                let withdrawn =
                    idx % 2 == 1 && month >= withdrawal_start() && month < withdrawal_end();
                if withdrawn {
                    continue;
                }
                if month >= withdrawal_end() {
                    // Aggregate announcements after the 2023 return.
                    out.push((a.prefix, a.holder));
                } else {
                    // Historical /17 deaggregation.
                    let (lo, hi) = a.prefix.halves().expect("/16 halves");
                    out.push((lo, a.holder));
                    out.push((hi, a.holder));
                }
            } else {
                out.push((a.prefix, a.holder));
            }
        }
        out
    }

    /// The pfx2as snapshot for `month`: announced prefixes whose origin
    /// reaches at least one tier-1 collector over `graph` under
    /// valley-free export. The heard origins come from one
    /// [`RouteSim::heard_by`] pass over the snapshot, which equals
    /// propagating each origin and checking the collectors.
    pub fn pfx2as_at(&self, month: MonthStamp, graph: &AsGraph) -> PfxToAs {
        let heard = RouteSim::new(graph).heard_by(&TopologyBuilder::collectors());
        let mut table = PfxToAs::new();
        for (prefix, origin) in self.announced_prefixes(month) {
            if heard.contains(&origin) {
                table.insert(prefix, OriginSet::single(origin));
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Operators, Economy, Addressing) {
        let ops = Operators::generate(42);
        let eco = Economy::generate(MonthStamp::new(1980, 1), MonthStamp::new(2024, 2));
        let addr = Addressing::generate(&ops, &eco);
        (ops, eco, addr)
    }

    /// IPv4 addresses registered to `cc` as of `cutoff`, read off the
    /// registry's published delegation file.
    fn country_space(addr: &Addressing, cc: CountryCode, cutoff: Date) -> u64 {
        addr.delegation_file(cutoff)
            .records
            .iter()
            .filter(|r| r.country == cc)
            .flat_map(|r| r.ipv4_prefixes())
            .map(|p| p.size())
            .sum()
    }

    #[test]
    fn cantv_dominates_and_telefonica_narrows() {
        let (_, _, addr) = world();
        let ledger = addr.ledger();
        let total_2004 = country_space(&addr, country::VE, Date::ymd(2004, 12, 31));
        let cantv_2004 = ledger.space_of_holder(Asn(8048), Date::ymd(2004, 12, 31));
        assert!(
            cantv_2004 as f64 / total_2004 as f64 > 0.60,
            "pre-Telefónica dominance {}",
            cantv_2004 as f64 / total_2004 as f64
        );
        // By 2014 the gap narrows to ≈11%.
        let cantv = ledger.space_of_holder(Asn(8048), Date::ymd(2014, 1, 1)) as f64;
        let telefonica = ledger.space_of_holder(Asn(6306), Date::ymd(2014, 1, 1)) as f64;
        let gap = (cantv - telefonica) / cantv;
        assert!((0.02..0.25).contains(&gap), "gap {gap}");
        assert!(telefonica < cantv);
    }

    #[test]
    fn exhaustion_stalls_growth() {
        let (_, _, addr) = world();
        let ledger = addr.ledger();
        let at_2014 = ledger.space_of_holder(Asn(8048), Date::ymd(2014, 6, 1));
        let at_2017 = ledger.space_of_holder(Asn(8048), Date::ymd(2017, 1, 1));
        // Only /22 trickles are possible in between.
        assert!(
            at_2017 - at_2014 <= 4 * 1024,
            "grew {} post-exhaustion",
            at_2017 - at_2014
        );
    }

    #[test]
    fn telefonica_withdrawal_window_shrinks_announced_space() {
        let ops = Operators::generate(42);
        let eco = Economy::generate(MonthStamp::new(1980, 1), MonthStamp::new(2024, 2));
        let addr = Addressing::generate(&ops, &eco);
        let builder = TopologyBuilder::new(&ops, &eco);

        let m_pre = MonthStamp::new(2016, 1);
        let m_mid = MonthStamp::new(2019, 1);
        let m_post = MonthStamp::new(2023, 8);
        let pre = addr.pfx2as_at(m_pre, &builder.snapshot(m_pre));
        let mid = addr.pfx2as_at(m_mid, &builder.snapshot(m_mid));
        let post = addr.pfx2as_at(m_post, &builder.snapshot(m_post));

        let space = |t: &PfxToAs| t.address_space_by_origin(&[Asn(6306)])[0];
        assert!(
            space(&mid) < space(&pre),
            "withdrawal shrinks: {} vs {}",
            space(&mid),
            space(&pre)
        );
        assert!(
            space(&post) > space(&mid),
            "2023 return: {} vs {}",
            space(&post),
            space(&mid)
        );
        // Allocated space never shrank: the ledger is unchanged.
        let ledger = addr.ledger();
        assert!(
            ledger.space_of_holder(Asn(6306), Date::ymd(2019, 1, 1))
                >= ledger.space_of_holder(Asn(6306), Date::ymd(2016, 1, 1))
        );
        // Pre-withdrawal announcements are /17 deaggregates; post are /16s.
        assert!(pre.prefixes_of(Asn(6306)).iter().all(|p| p.len() == 17));
        assert!(post.prefixes_of(Asn(6306)).iter().all(|p| p.len() == 16));
    }

    #[test]
    fn delegation_files_roundtrip_and_grow() {
        let (_, _, addr) = world();
        let f2008 = addr.delegation_file(Date::ymd(2008, 1, 1));
        let f2024 = addr.delegation_file(Date::ymd(2024, 1, 1));
        assert!(f2024.records.len() > f2008.records.len());
        let text = f2024.to_text(Date::ymd(2024, 1, 1));
        let back = DelegationFile::parse(&text).unwrap();
        assert_eq!(back.records, f2024.records);
    }

    #[test]
    fn pfx2as_origins_are_visible_ases() {
        let ops = Operators::generate(42);
        let eco = Economy::generate(MonthStamp::new(1980, 1), MonthStamp::new(2024, 2));
        let addr = Addressing::generate(&ops, &eco);
        let builder = TopologyBuilder::new(&ops, &eco);
        let m = MonthStamp::new(2020, 6);
        let table = addr.pfx2as_at(m, &builder.snapshot(m));
        assert!(table.len() > 100, "table has {} prefixes", table.len());
        // Every origin in the table exists in the topology.
        let g = builder.snapshot(m);
        for (_, origins) in table.iter() {
            for &asn in origins.asns() {
                assert!(g.contains(asn), "{asn} announced but not in graph");
            }
        }
        // Text roundtrip.
        let back = PfxToAs::parse(&table.to_text()).unwrap();
        assert_eq!(back.len(), table.len());
    }

    #[test]
    fn every_country_has_allocations() {
        let (_, _, addr) = world();
        for info in country::LACNIC_REGION {
            let space = country_space(&addr, info.code, Date::ymd(2024, 1, 1));
            assert!(space > 0, "{} has no space", info.code);
        }
    }
}
