//! The AS-level cast: operators per country, organisations, and eyeball
//! populations.
//!
//! Venezuela's roster is Table 1 verbatim (CANTV 21.50% of 20.1M users,
//! Telemic, Telefónica, Digitel, Fibex, Airtek, Viginet, NetUno,
//! Thundernet, Movilnet — Σ = 77.18%); the residual market is filled with
//! small synthetic access networks. Every other country gets an incumbent
//! (with the paper's quoted share where it gives one, e.g. ICE = 24.1% of
//! Costa Rica) plus a geometric tail of ISPs. The mapping to
//! organisations marks CANTV and Movilnet as siblings under the
//! Venezuelan state, as as2org+ does.

use lacnet_offnets::{AsOrgMap, PopulationEstimates};
use lacnet_types::rng::Rng;
use lacnet_types::{country, Asn, CountryCode};

/// What role an AS plays in its domestic market.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorKind {
    /// The (often state-owned) incumbent eyeball network.
    Incumbent,
    /// A competitive access ISP.
    Isp,
    /// A mobile carrier.
    Mobile,
    /// A domestic non-eyeball network (bank, university) that buys
    /// transit from the incumbent.
    Enterprise,
}

/// One domestic operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// The operator's ASN.
    pub asn: Asn,
    /// Display name.
    pub name: String,
    /// Home country.
    pub country: CountryCode,
    /// Market role.
    pub kind: OperatorKind,
    /// Estimated Internet users served (0 for enterprises).
    pub users: u64,
}

/// Table 1, verbatim: Venezuela's ten largest ISPs as of May 2024.
pub const VE_TABLE1: &[(u32, &str, u64)] = &[
    (8048, "CANTV Servicios, Venezuela", 4_330_868),
    (21826, "Corporacion Telemic C.A.", 2_490_253),
    (6306, "TELEFONICA VENEZOLANA, C.A.", 2_110_464),
    (264731, "Corporacion Digitel C.A.", 1_419_723),
    (264628, "CORPORACION FIBEX TELECOM, C.A.", 1_316_463),
    (61461, "Airtek Solutions C.A.", 1_092_514),
    (263703, "VIGINET C.A", 962_781),
    (11562, "Net Uno, C.A.", 896_094),
    (272809, "THUNDERNET, C.A.", 515_761),
    (27889, "Telecomunicaciones MOVILNET", 417_762),
];

/// Venezuela's total estimated Internet population, consistent with
/// CANTV's Table 1 share of 21.50%.
pub const VE_INTERNET_USERS: u64 = 20_143_572;

/// Incumbent roster `(country, asn, name, eyeball share)`. Shares quoted
/// by the paper are used exactly (CANTV 21.50%, ICE 24.1%); the rest are
/// plausible figures for the region.
const INCUMBENTS: &[(&str, u32, &str, f64)] = &[
    ("AR", 7303, "Telecom Argentina", 0.33),
    ("BO", 6568, "Entel Bolivia", 0.42),
    ("BR", 28573, "Claro NXT", 0.21),
    ("CL", 27651, "Entel Chile", 0.26),
    ("CO", 3816, "Colombia Telecomunicaciones", 0.28),
    ("CR", 11830, "ICE", 0.241),
    ("CU", 27725, "ETECSA", 0.95),
    ("DO", 6400, "Claro Dominicana", 0.45),
    ("EC", 14420, "CNT Ecuador", 0.38),
    ("GT", 14754, "Telgua", 0.40),
    ("HN", 27932, "Hondutel", 0.30),
    ("HT", 27759, "Access Haiti", 0.35),
    ("MX", 8151, "Uninet (Telmex)", 0.44),
    ("NI", 25607, "Enitel", 0.45),
    ("PA", 18809, "Cable & Wireless Panama", 0.41),
    ("PE", 6147, "Telefonica del Peru", 0.39),
    ("PY", 23201, "Tigo Paraguay", 0.44),
    ("SV", 27773, "Claro SV", 0.40),
    ("TT", 27665, "TSTT", 0.48),
    ("UY", 6057, "Antel", 0.85),
];

/// The number of synthetic competitive ISPs per country (beyond the
/// incumbent), before the enterprise tail.
const ISPS_PER_COUNTRY: usize = 8;

/// Internet penetration applied to census population when sizing eyeball
/// markets outside Venezuela.
const PENETRATION: f64 = 0.70;

/// The full generated cast.
#[derive(Debug, Clone)]
pub struct Operators {
    all: Vec<Operator>,
    as2org: AsOrgMap,
    populations: PopulationEstimates,
}

impl Operators {
    /// Generate the cast. Deterministic for a given seed.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::seeded(seed).fork("operators");
        let mut all: Vec<Operator> = Vec::new();

        // Venezuela: Table 1 exactly, plus a residual tail of small ISPs
        // summing to the remaining 22.82% of the market.
        for &(asn, name, users) in VE_TABLE1 {
            let kind = match asn {
                8048 => OperatorKind::Incumbent,
                27889 | 264731 => OperatorKind::Mobile,
                _ => OperatorKind::Isp,
            };
            all.push(Operator {
                asn: Asn(asn),
                name: name.into(),
                country: country::VE,
                kind,
                users,
            });
        }
        let table1_total: u64 = VE_TABLE1.iter().map(|&(_, _, u)| u).sum();
        let mut residual = VE_INTERNET_USERS - table1_total;
        let mut i = 0u32;
        while residual > 0 {
            let users = if residual > 400_000 {
                150_000 + rng.below(250_000)
            } else {
                residual
            };
            all.push(Operator {
                asn: Asn(275_000 + i),
                name: format!("VE Access Network {}", i + 1),
                country: country::VE,
                kind: OperatorKind::Isp,
                users,
            });
            residual -= users;
            i += 1;
        }
        // CANTV's domestic enterprise customers (§6.1: "mostly academic
        // institutions and local banks").
        for (j, name) in [
            "Universidad Central de Venezuela",
            "Universidad de Los Andes",
            "Banco de Venezuela",
            "Banco Mercantil",
            "Banesco",
            "Universidad Simon Bolivar",
            "Banco Exterior",
            "Universidad del Zulia",
            "SENIAT",
            "Banco Bicentenario",
            "CorpoElec",
            "PDVSA Datos",
            "Universidad Catolica Andres Bello",
            "Banco Occidental",
            "Metro de Caracas",
            "Biblioteca Nacional",
            "IVIC",
            "CONATEL",
            "Universidad de Carabobo",
            "Seguros Caracas",
        ]
        .iter()
        .enumerate()
        {
            all.push(Operator {
                asn: Asn(276_500 + j as u32),
                name: (*name).into(),
                country: country::VE,
                kind: OperatorKind::Enterprise,
                users: 0,
            });
        }

        // Every other country: incumbent + geometric ISP tail.
        for info in country::LACNIC_REGION {
            if info.code == country::VE {
                continue;
            }
            let market = (info.population_millions * 1.0e6 * PENETRATION) as u64;
            let (inc_asn, inc_name, inc_share) = INCUMBENTS
                .iter()
                .find(|(cc, ..)| *cc == info.code.as_str())
                .map(|&(_, a, n, s)| (a, n.to_owned(), s))
                .unwrap_or_else(|| {
                    (
                        262_000 + fnv(info.code.as_str()),
                        format!("{} Telecom", info.name),
                        0.5,
                    )
                });
            all.push(Operator {
                asn: Asn(inc_asn),
                name: inc_name,
                country: info.code,
                kind: OperatorKind::Incumbent,
                users: (market as f64 * inc_share) as u64,
            });
            // Geometric tail over the remaining share.
            let mut remaining = 1.0 - inc_share;
            for k in 0..ISPS_PER_COUNTRY {
                let share = if k + 1 == ISPS_PER_COUNTRY {
                    remaining
                } else {
                    remaining * (0.35 + 0.1 * rng.f64())
                };
                remaining -= share;
                all.push(Operator {
                    asn: Asn(280_000 + fnv(info.code.as_str()) * 10 + k as u32),
                    name: format!("{} ISP {}", info.code, k + 1),
                    country: info.code,
                    kind: if k == 0 {
                        OperatorKind::Mobile
                    } else {
                        OperatorKind::Isp
                    },
                    users: (market as f64 * share) as u64,
                });
            }
        }

        // Organisations: the Venezuelan state, Telefónica's siblings.
        let mut as2org = AsOrgMap::new();
        as2org.assign(Asn(8048), 1);
        as2org.assign(Asn(27889), 1);
        // Off-net presence is a country-local property in the study's
        // method, so organisations group only domestic siblings —
        // Telefónica's Peruvian and Colombian units stay separate from
        // its Venezuelan one.
        as2org.assign(Asn(6306), 2);

        // Populations.
        let mut populations = PopulationEstimates::new();
        for op in &all {
            if op.users > 0 {
                populations.set(op.country, op.asn, op.users);
            }
        }

        Operators {
            all,
            as2org,
            populations,
        }
    }

    /// Every operator.
    pub fn all(&self) -> &[Operator] {
        &self.all
    }

    /// Operators of one country.
    pub fn in_country(&self, cc: CountryCode) -> Vec<&Operator> {
        self.all.iter().filter(|o| o.country == cc).collect()
    }

    /// The incumbent of one country.
    pub fn incumbent(&self, cc: CountryCode) -> Option<&Operator> {
        self.all
            .iter()
            .find(|o| o.country == cc && o.kind == OperatorKind::Incumbent)
    }

    /// The eyeball (users > 0) operators of one country, descending users.
    pub fn eyeballs(&self, cc: CountryCode) -> Vec<&Operator> {
        let mut v: Vec<&Operator> = self
            .all
            .iter()
            .filter(|o| o.country == cc && o.users > 0)
            .collect();
        v.sort_by(|a, b| b.users.cmp(&a.users).then(a.asn.cmp(&b.asn)));
        v
    }

    /// Enterprises (CANTV's domestic transit customers) of one country.
    pub fn enterprises(&self, cc: CountryCode) -> Vec<&Operator> {
        self.all
            .iter()
            .filter(|o| o.country == cc && o.kind == OperatorKind::Enterprise)
            .collect()
    }

    /// The AS→organisation mapping.
    pub fn as2org(&self) -> &AsOrgMap {
        &self.as2org
    }

    /// The eyeball population estimates.
    pub fn populations(&self) -> &PopulationEstimates {
        &self.populations
    }

    /// Look up an operator by ASN.
    pub fn by_asn(&self, asn: Asn) -> Option<&Operator> {
        self.all.iter().find(|o| o.asn == asn)
    }
}

/// Small deterministic hash for synthetic ASN assignment (bounded < 900).
fn fnv(s: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h % 900
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Operators {
        Operators::generate(42)
    }

    #[test]
    fn table1_is_verbatim() {
        let ops = ops();
        let cantv = ops.by_asn(Asn(8048)).unwrap();
        assert_eq!(cantv.users, 4_330_868);
        assert_eq!(cantv.kind, OperatorKind::Incumbent);
        assert_eq!(ops.incumbent(country::VE).unwrap().asn, Asn(8048));
        // The ten Table-1 networks cover 77.18% of the market.
        let top10: u64 = VE_TABLE1.iter().map(|&(_, _, u)| u).sum();
        let share = top10 as f64 / VE_INTERNET_USERS as f64;
        assert!((share - 0.7718).abs() < 0.0005, "{share}");
        // CANTV's share is 21.50%.
        let share = cantv.users as f64 / ops.populations().country_total(country::VE) as f64;
        assert!((share - 0.2150).abs() < 0.001, "{share}");
    }

    #[test]
    fn ve_market_sums_to_total() {
        let ops = ops();
        assert_eq!(
            ops.populations().country_total(country::VE),
            VE_INTERNET_USERS
        );
    }

    #[test]
    fn every_country_has_an_incumbent_and_eyeballs() {
        let ops = ops();
        for info in country::LACNIC_REGION {
            let inc = ops.incumbent(info.code);
            assert!(inc.is_some(), "{} missing incumbent", info.code);
            assert!(!ops.eyeballs(info.code).is_empty(), "{}", info.code);
            let total = ops.populations().country_total(info.code);
            assert!(total > 0, "{} empty market", info.code);
        }
    }

    #[test]
    fn quoted_shares_hold() {
        let ops = ops();
        let ice = ops.incumbent(country::CR).unwrap();
        let share = ice.users as f64 / ops.populations().country_total(country::CR) as f64;
        assert!((share - 0.241).abs() < 0.01, "ICE share {share}");
        let antel = ops.incumbent(country::UY).unwrap();
        let share = antel.users as f64 / ops.populations().country_total(country::UY) as f64;
        assert!(share > 0.8, "Antel dominant: {share}");
    }

    #[test]
    fn state_org_groups_cantv_and_movilnet() {
        let ops = ops();
        let org = |asn| ops.as2org().org_of(asn);
        assert_eq!(org(Asn(8048)), org(Asn(27889)));
        assert_ne!(org(Asn(8048)), org(Asn(6306)));
    }

    #[test]
    fn asns_are_unique() {
        let ops = ops();
        let mut asns: Vec<Asn> = ops.all().iter().map(|o| o.asn).collect();
        let n = asns.len();
        asns.sort();
        asns.dedup();
        assert_eq!(asns.len(), n, "duplicate ASNs in cast");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Operators::generate(42);
        let b = Operators::generate(42);
        assert_eq!(a.all(), b.all());
    }

    #[test]
    fn enterprises_exist_for_ve() {
        let ops = ops();
        let ent = ops.enterprises(country::VE);
        assert!(ent.len() >= 20);
        assert!(ent.iter().all(|e| e.users == 0));
    }
}
