//! The DNS world: Atlas probes (Fig. 17), root-server deployments
//! (Figs. 6 and 16), and the Google Public DNS site rollout (Figs. 12
//! and 20).
//!
//! Calibration:
//!
//! * detected root replicas in the region grow 59 → 138 between 2016 and
//!   2024, with Brazil 18→41, Mexico 4→16, Chile 5→20, Argentina 14→15;
//! * Venezuela's regression is scripted verbatim: an L node
//!   (`ccs01.l.root-servers.org`) and an F node
//!   (`ccs1a.f.root-servers.org`) in Caracas disappear, a Maracaibo L
//!   node (`aa.ve-mai.l.root`) appears in 2019 and is gone by 2021;
//! * Venezuela keeps 10 probes in 2016 growing to 30 (6th in the
//!   region), of which CANTV hosts only 8;
//! * Caracas traffic egresses through Miami (so GPDNS RTT stays in the
//!   mid-30s), while border probes on small access networks reach the
//!   Bogotá site directly at < 20 ms once it exists.

use lacnet_atlas::{GpdnsSite, Probe, ProbeRegistry, RootDeployment, RootInstance, RootLetter};
use lacnet_types::rng::Rng;
use lacnet_types::{country, geo, Asn, CountryCode, GeoPoint, MonthStamp};

/// A measurement city: site code (for instance identities), coordinates,
/// and whether it is the country's primary city.
#[derive(Debug, Clone, Copy)]
struct City {
    code: &'static str,
    lat: f64,
    lon: f64,
}

/// Probe/instance cities per country. The first city is the capital; the
/// instance grid and probe placement both draw from this list, which is
/// what makes every scheduled instance detectable by the campaign.
fn cities(cc: CountryCode) -> Vec<City> {
    match cc.as_str() {
        "VE" => vec![
            City {
                code: "ccs",
                lat: 10.48,
                lon: -66.90,
            },
            City {
                code: "mar",
                lat: 10.65,
                lon: -71.61,
            },
            // San Cristóbal, on the Colombian border (Appendix J).
            City {
                code: "sci",
                lat: 7.77,
                lon: -72.22,
            },
        ],
        "BR" => vec![
            City {
                code: "gru",
                lat: -23.55,
                lon: -46.63,
            },
            City {
                code: "gig",
                lat: -22.91,
                lon: -43.17,
            },
            City {
                code: "bsb",
                lat: -15.79,
                lon: -47.88,
            },
            City {
                code: "for",
                lat: -3.73,
                lon: -38.52,
            },
        ],
        "AR" => vec![
            City {
                code: "eze",
                lat: -34.60,
                lon: -58.38,
            },
            City {
                code: "cor",
                lat: -31.42,
                lon: -64.18,
            },
        ],
        "CL" => vec![
            City {
                code: "scl",
                lat: -33.45,
                lon: -70.67,
            },
            City {
                code: "ccp",
                lat: -36.83,
                lon: -73.05,
            },
        ],
        "MX" => vec![
            City {
                code: "mex",
                lat: 19.43,
                lon: -99.13,
            },
            City {
                code: "gdl",
                lat: 20.67,
                lon: -103.35,
            },
            City {
                code: "mty",
                lat: 25.67,
                lon: -100.31,
            },
        ],
        "CO" => vec![
            City {
                code: "bog",
                lat: 4.71,
                lon: -74.07,
            },
            City {
                code: "mde",
                lat: 6.25,
                lon: -75.56,
            },
        ],
        other => {
            // Single-city countries use their capital's IATA code, which
            // is present in the airport registry so decoded identities
            // geolocate.
            let code = match other {
                "BO" => "lpb",
                "BQ" => "bon",
                "CR" => "sjo",
                "CU" => "hav",
                "CW" => "cur",
                "DO" => "sdq",
                "EC" => "uio",
                "GF" => "cay",
                "GT" => "gua",
                "GY" => "geo",
                "HN" => "tgu",
                "HT" => "pap",
                "NI" => "mga",
                "PA" => "pty",
                "PE" => "lim",
                "PY" => "asu",
                "SR" => "pbm",
                "SV" => "sal",
                "SX" => "sxm",
                "TT" => "pos",
                "UY" => "mvd",
                "AW" => "aua",
                "BZ" => "bze",
                _ => panic!("no measurement city for {other}"),
            };
            let info = country::info(cc).expect("known country");
            vec![City {
                code,
                lat: info.location.lat_deg(),
                lon: info.location.lon_deg(),
            }]
        }
    }
}

/// Probe-count anchors `(country, 2016, 2024)`. Region totals ≈300→450;
/// Venezuela 10→30 keeps its paper rank (6th) in the region.
const PROBE_ANCHORS: &[(&str, u32, u32)] = &[
    ("AR", 60, 80),
    ("BR", 80, 118),
    ("MX", 25, 40),
    ("CL", 20, 35),
    ("CO", 15, 30),
    ("VE", 10, 30),
    ("UY", 10, 15),
    ("CR", 8, 12),
    ("EC", 7, 10),
    ("PE", 7, 12),
    ("PA", 6, 9),
    ("DO", 5, 8),
    ("GT", 5, 7),
    ("TT", 4, 6),
    ("BO", 4, 6),
    ("PY", 4, 6),
    ("SV", 3, 5),
    ("HN", 3, 4),
    ("NI", 2, 3),
    ("HT", 2, 3),
    ("CU", 2, 3),
    ("BZ", 2, 3),
    ("SR", 2, 3),
    ("GY", 2, 3),
    ("CW", 3, 5),
    ("AW", 2, 3),
    ("BQ", 1, 2),
    ("SX", 1, 2),
    ("GF", 2, 3),
];

/// Root-replica anchors `(country, detected 2016, detected 2024)`.
/// Region sums: 59 → 138. Venezuela is scripted separately.
const ROOT_ANCHORS: &[(&str, u32, u32)] = &[
    ("BR", 18, 41),
    ("AR", 14, 15),
    ("CL", 5, 20),
    ("MX", 4, 16),
    ("CO", 3, 8),
    ("PA", 2, 6),
    ("UY", 2, 4),
    ("PE", 2, 5),
    ("CR", 1, 4),
    ("EC", 1, 3),
    ("TT", 1, 2),
    ("DO", 1, 3),
    ("GT", 1, 2),
    ("HT", 1, 1),
    ("CU", 1, 1),
    ("BO", 0, 2),
    ("PY", 0, 2),
    ("SV", 0, 1),
    ("HN", 0, 1),
    ("NI", 0, 1),
    ("GY", 0, 1),
];

/// The assembled DNS world.
#[derive(Debug, Clone)]
pub struct DnsWorld {
    /// The probe registry.
    pub probes: ProbeRegistry,
    /// Root instances over time.
    pub roots: RootDeployment,
    /// GPDNS points of presence over time.
    pub gpdns_sites: Vec<GpdnsSite>,
}

/// Build the DNS world.
pub fn build_dns_world(seed: u64) -> DnsWorld {
    let mut rng = Rng::seeded(seed).fork("dns");
    DnsWorld {
        probes: build_probes(&mut rng),
        roots: build_roots(),
        gpdns_sites: build_gpdns_sites(),
    }
}

fn miami() -> GeoPoint {
    geo::airport("mia").expect("airport table").location
}

fn build_probes(rng: &mut Rng) -> ProbeRegistry {
    let mut reg = ProbeRegistry::new();
    let mut id = 1u32;
    for &(cc, n2016, n2024) in PROBE_ANCHORS {
        let code = CountryCode::of(cc);
        let city_list = cities(code);
        for i in 0..n2024 {
            // Venezuela's probe geography follows Appendix J: most
            // probes in Caracas, the fast minority in the west.
            let city_idx = if code == country::VE {
                match i % 10 {
                    0..=5 => 0, // Caracas
                    6 | 7 => 1, // Maracaibo
                    _ => 2,     // Colombian border
                }
            } else {
                i as usize % city_list.len()
            };
            let city = city_list[city_idx % city_list.len()];
            // First `n2016` probes predate the window; later ones arrive
            // on a linear schedule through 2023.
            let active_since = if i < n2016 {
                MonthStamp::new(2014, 1).plus((i % 24) as i32)
            } else {
                let j = i - n2016;
                let span = (n2024 - n2016).max(1);
                MonthStamp::new(2016, 6).plus((j * 88 / span) as i32)
            };
            // Venezuelan probes: CANTV hosts exactly 8, all in Caracas,
            // all egressing through Miami. Other Caracas hosts split
            // between Miami-hauling ISPs and direct ones; probes outside
            // the capital sit on small access networks with direct
            // routing (Appendix J).
            let (asn, egress) = if code == country::VE {
                if city.code == "ccs" {
                    // The first eight Caracas probes (i ∈ {0..5, 10, 11})
                    // are CANTV-hosted and hauled to Miami.
                    if i < 12 {
                        (Asn(8048), Some(miami()))
                    } else {
                        let asn = [Asn(21826), Asn(6306), Asn(11562)][i as usize % 3];
                        // Most Caracas hosts also route internationally
                        // via Miami; a few ride direct wholesale paths.
                        let egress = if i % 4 != 0 { Some(miami()) } else { None };
                        (asn, egress)
                    }
                } else {
                    // Western probes sit on small access networks with
                    // direct (non-CANTV) routing.
                    (Asn(275_000 + (i % 5)), None)
                }
            } else {
                (Asn(280_000 + (fnv(cc) % 900) * 10 + (i % 8)), None)
            };
            // Scatter the probe a little around its city.
            let jitter = 0.25;
            reg.add(Probe {
                id,
                country: code,
                location: GeoPoint::new(
                    city.lat + rng.uniform(-jitter, jitter),
                    city.lon + rng.uniform(-jitter, jitter),
                ),
                asn,
                active_since,
                active_until: None,
                egress,
            });
            id += 1;
        }
    }
    reg
}

fn build_roots() -> RootDeployment {
    let mut dep = RootDeployment::new();

    // ——— Venezuela, scripted (§5.4) ———
    let ve = cities(country::VE);
    let ccs = GeoPoint::new(ve[0].lat, ve[0].lon);
    let mar = GeoPoint::new(ve[1].lat, ve[1].lon);
    dep.add(RootInstance {
        letter: RootLetter::L,
        site: "ccs".into(),
        unit: 1,
        country: country::VE,
        location: ccs,
        active_since: MonthStamp::new(2015, 6),
        active_until: Some(MonthStamp::new(2019, 6)),
        global: false,
    });
    dep.add(RootInstance {
        letter: RootLetter::F,
        site: "ccs".into(),
        unit: 1,
        country: country::VE,
        location: ccs,
        active_since: MonthStamp::new(2015, 6),
        active_until: Some(MonthStamp::new(2018, 3)),
        global: false,
    });
    dep.add(RootInstance {
        letter: RootLetter::L,
        site: "mai".into(),
        unit: 1,
        country: country::VE,
        location: mar,
        active_since: MonthStamp::new(2019, 8),
        active_until: Some(MonthStamp::new(2021, 2)),
        global: false,
    });

    // ——— The rest of the region, scheduled from anchors ———
    for &(cc, n2016, n2024) in ROOT_ANCHORS {
        let code = CountryCode::of(cc);
        let city_list = cities(code);
        for i in 0..n2024 {
            let letter = RootLetter::ALL[i as usize % 13];
            let city = city_list[(i as usize / 13) % city_list.len()];
            let unit = 1 + (i as usize / (13 * city_list.len())) as u8;
            let active_since = if i < n2016 {
                MonthStamp::new(2014, 1)
            } else {
                let j = i - n2016;
                let span = (n2024 - n2016).max(1);
                MonthStamp::new(2016, 6).plus((j * 88 / span) as i32)
            };
            // A handful of nodes in the biggest hubs are global; hosted
            // +Raíces-style nodes are domestic-only.
            let global = matches!(cc, "BR" | "CO" | "MX" | "PA" | "CL" | "AR") && i < 3;
            dep.add(RootInstance {
                letter,
                site: city.code.into(),
                unit,
                country: code,
                location: GeoPoint::new(city.lat, city.lon),
                active_since,
                active_until: None,
                global,
            });
        }
    }

    // ——— Overseas global nodes (Appendix E's origin countries) ———
    let overseas: &[(&str, &str, &[RootLetter])] = &[
        // US sites host most letters.
        (
            "mia",
            "US",
            &[
                RootLetter::A,
                RootLetter::B,
                RootLetter::C,
                RootLetter::D,
                RootLetter::F,
                RootLetter::J,
                RootLetter::L,
                RootLetter::M,
            ],
        ),
        (
            "iad",
            "US",
            &[
                RootLetter::A,
                RootLetter::C,
                RootLetter::D,
                RootLetter::H,
                RootLetter::J,
                RootLetter::L,
            ],
        ),
        ("jfk", "US", &[RootLetter::B, RootLetter::F, RootLetter::M]),
        ("lax", "US", &[RootLetter::A, RootLetter::C, RootLetter::L]),
        // European operators: some letters have no US-east presence, so
        // Venezuelan queries surface in GB/DE/FR/NL (Fig. 16).
        ("lhr", "GB", &[RootLetter::K]),
        ("fra", "DE", &[RootLetter::G]),
        ("ams", "NL", &[RootLetter::I]),
        ("cdg", "FR", &[RootLetter::E]),
    ];
    for &(site, cc, letters) in overseas {
        let loc = geo::airport(site).expect("airport table").location;
        for &letter in letters {
            dep.add(RootInstance {
                letter,
                site: site.into(),
                unit: 1,
                country: CountryCode::of(cc),
                location: loc,
                active_since: MonthStamp::new(2010, 1),
                active_until: None,
                global: true,
            });
        }
    }

    dep
}

/// The GPDNS rollout: Miami first, the big LACNIC hubs through the
/// mid-2010s, Bogotá in 2016, Rio in 2019 — nothing in Venezuela, ever
/// (§7.2).
fn build_gpdns_sites() -> Vec<GpdnsSite> {
    let site = |code: &str, y: i32, m: u8| GpdnsSite {
        id: code.into(),
        location: geo::airport(code).expect("airport table").location,
        active_since: MonthStamp::new(y, m),
        active_until: None,
    };
    vec![
        site("mia", 2012, 1),
        site("iad", 2012, 1),
        site("lax", 2012, 6),
        site("mex", 2015, 3),
        site("gru", 2014, 9),
        site("scl", 2016, 2),
        site("eze", 2016, 8),
        site("bog", 2016, 10),
        site("lim", 2017, 5),
        site("pty", 2018, 4),
        site("gig", 2019, 7),
        site("mvd", 2019, 11),
        site("sjo", 2021, 6),
    ]
}

fn fnv(s: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_atlas::gpdns::{GpdnsCampaign, LatencyModel};
    use lacnet_atlas::ChaosCampaign;
    use std::collections::{BTreeMap, BTreeSet};

    fn world() -> DnsWorld {
        build_dns_world(42)
    }

    #[test]
    fn fig17_probe_counts() {
        let w = world();
        let ve = w.probes.count_series(
            country::VE,
            MonthStamp::new(2016, 1),
            MonthStamp::new(2024, 1),
        );
        assert_eq!(ve.get(MonthStamp::new(2016, 1)), Some(10.0));
        assert_eq!(ve.get(MonthStamp::new(2024, 1)), Some(30.0));
        // Region total ≈ 300 → 450.
        let total_2016: usize = w.probes.active_in(MonthStamp::new(2016, 1)).len();
        let total_2024: usize = w.probes.active_in(MonthStamp::new(2024, 1)).len();
        assert!((280..=320).contains(&total_2016), "2016 total {total_2016}");
        assert!((430..=470).contains(&total_2024), "2024 total {total_2024}");
        // Venezuela ranks ≈6th by probes in the region.
        let counts = w.probes.counts_by_country(MonthStamp::new(2023, 6));
        let mut ranked: Vec<(usize, CountryCode)> =
            counts.iter().map(|(&cc, &n)| (n, cc)).collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.0));
        let rank = ranked
            .iter()
            .position(|&(_, cc)| cc == country::VE)
            .unwrap()
            + 1;
        assert!((5..=7).contains(&rank), "VE probe rank {rank}");
        // CANTV hosts exactly 8 probes.
        let cantv = w.probes.all().iter().filter(|p| p.asn == Asn(8048)).count();
        assert_eq!(cantv, 8);
    }

    /// Every root instance carries its own `letter/site/unit` identity:
    /// replica counts key on it, and the catchment breaks distance ties
    /// by it, so a repeated identity would merge two instances into one
    /// replica.
    #[test]
    fn root_instance_identities_are_unique() {
        let w = world();
        let mut seen = std::collections::BTreeSet::new();
        for inst in w.roots.all() {
            assert!(
                seen.insert(inst.identity()),
                "duplicate root identity {}",
                inst.identity()
            );
        }
        assert!(seen.len() > 100, "{} instances", seen.len());
    }

    #[test]
    fn fig6_replica_counts() {
        let w = world();
        let campaign = ChaosCampaign::new(&w.probes, &w.roots);
        let counts = |month: MonthStamp| -> BTreeMap<CountryCode, usize> {
            campaign
                .replicas_by_country(month)
                .into_iter()
                .map(|(cc, replicas)| (cc, replicas.len()))
                .collect()
        };
        let region_total = |counts: &BTreeMap<CountryCode, usize>| -> usize {
            country::lacnic_codes()
                .filter_map(|cc| counts.get(&cc))
                .sum()
        };
        let in_2016 = counts(MonthStamp::new(2016, 1));
        let total_2016 = region_total(&in_2016);
        assert!(
            (54..=64).contains(&total_2016),
            "2016 region total {total_2016}"
        );
        assert_eq!(in_2016.get(&country::VE), Some(&2));
        assert_eq!(in_2016.get(&country::BR), Some(&18));

        let in_2024 = counts(MonthStamp::new(2024, 1));
        let total_2024 = region_total(&in_2024);
        assert!(
            (130..=146).contains(&total_2024),
            "2024 region total {total_2024}"
        );
        assert_eq!(in_2024.get(&country::VE), None, "no VE replicas remain");
        assert_eq!(in_2024.get(&country::BR), Some(&41));
        assert_eq!(in_2024.get(&country::CL), Some(&20));
        assert_eq!(in_2024.get(&country::MX), Some(&16));
        assert_eq!(in_2024.get(&country::AR), Some(&15));
    }

    #[test]
    fn fig16_origin_shift() {
        let w = world();
        let campaign = ChaosCampaign::from_country(&w.probes, &w.roots, country::VE);
        let origins = campaign.replicas_by_country(MonthStamp::new(2017, 1));
        assert!(origins[&country::VE].len() >= 2);

        let origins = campaign.replicas_by_country(MonthStamp::new(2023, 1));
        let at = |cc: &str| origins.get(&CountryCode::of(cc)).map_or(0, BTreeSet::len);
        assert_eq!(at("VE"), 0, "domestic replicas gone");
        assert!(at("US") >= 4, "US dominates: {}", at("US"));
        for cc in ["GB", "DE", "FR", "NL"] {
            assert!(at(cc) >= 1, "{cc} visible from VE");
        }
        assert!(at("CO") >= 1, "Colombian fallback");
    }

    #[test]
    fn fig12_rtt_calibration() {
        let w = world();
        let campaign = GpdnsCampaign::new(&w.probes, &w.gpdns_sites, LatencyModel::default(), 42);
        let series = campaign.median_series(MonthStamp::new(2023, 7), MonthStamp::new(2023, 12));
        let ve = series[&country::VE].trailing_mean(6).unwrap();
        assert!((28.0..=46.0).contains(&ve), "VE ≈36.56 ms, got {ve}");
        let br = series[&country::BR].trailing_mean(6).unwrap();
        assert!(br < 15.0, "BR ≈7.5 ms, got {br}");
        // Regional mean of country medians ≈ 17.74 ms → VE ≈ 2×.
        let mut vals = Vec::new();
        for cc in country::lacnic_codes() {
            if let Some(s) = series.get(&cc) {
                if let Some(v) = s.trailing_mean(6) {
                    vals.push(v);
                }
            }
        }
        let region = vals.iter().sum::<f64>() / vals.len() as f64;
        let ratio = ve / region;
        assert!(
            (1.5..=2.8).contains(&ratio),
            "VE/region ratio {ratio} (region {region})"
        );
    }

    #[test]
    fn fig12_colombia_improves_with_bogota_site() {
        let w = world();
        let campaign = GpdnsCampaign::new(&w.probes, &w.gpdns_sites, LatencyModel::default(), 42);
        let series = campaign.median_series(MonthStamp::new(2016, 1), MonthStamp::new(2017, 6));
        let co = &series[&country::CO];
        let before = co.get(MonthStamp::new(2016, 1)).unwrap();
        let after = co.get(MonthStamp::new(2017, 6)).unwrap();
        assert!(before > 35.0, "pre-Bogotá {before}");
        assert!(after < 15.0, "post-Bogotá {after}");
    }

    #[test]
    fn fig20_border_probes_fastest() {
        use lacnet_atlas::gpdns::RttBucket;
        let w = world();
        let campaign = GpdnsCampaign::new(&w.probes, &w.gpdns_sites, LatencyModel::default(), 42);
        let obs = campaign.run_month(MonthStamp::new(2023, 12));
        let ve: Vec<_> = obs
            .iter()
            .filter(|o| o.probe_country == country::VE)
            .collect();
        assert!(!ve.is_empty());
        // The fastest VE probes are in the west (border / Maracaibo).
        let fastest = ve
            .iter()
            .min_by(|a, b| a.rtt_ms.partial_cmp(&b.rtt_ms).unwrap())
            .unwrap();
        assert!(
            fastest.location.lon_deg() < -70.0,
            "fastest at lon {}",
            fastest.location.lon_deg()
        );
        assert!(matches!(
            RttBucket::of(fastest.rtt_ms),
            RttBucket::Under10 | RttBucket::From10To20
        ));
        // Caracas probes behind Miami haulage sit above 30 ms.
        let caracas_max = ve
            .iter()
            .filter(|o| o.location.lon_deg() > -68.0)
            .map(|o| o.rtt_ms)
            .fold(0.0f64, f64::max);
        assert!(caracas_max > 30.0, "caracas {caracas_max}");
    }

    #[test]
    fn no_gpdns_site_in_venezuela() {
        let w = world();
        for s in &w.gpdns_sites {
            let d = s.location.distance_km(GeoPoint::new(10.48, -66.90));
            assert!(d > 500.0 || s.id != "ccs", "site {} too close", s.id);
        }
        assert!(w.gpdns_sites.iter().all(|s| s.id != "ccs" && s.id != "mar"));
    }
}
