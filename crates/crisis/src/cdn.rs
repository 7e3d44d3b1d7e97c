//! Hypergiant off-net deployments (Fig. 7, Fig. 18, Appendix G): the
//! yearly TLS-certificate scans the detection method consumes.
//!
//! The deployment story per §5.5:
//!
//! * **Google and Akamai** established Venezuelan off-nets *before* the
//!   crisis (including inside CANTV) and froze afterwards — Venezuela's
//!   mean coverage lands near the paper's 56.9% (Google) and 35.7%
//!   (Akamai);
//! * **Facebook and Netflix** expanded across the region from ≈2014 but
//!   were modest and late in Venezuela: Facebook never entered CANTV,
//!   Netflix only in 2021 (mean coverage ≈28% and ≈6%);
//! * the remaining six hypergiants keep minimal LACNIC off-nets and none
//!   in Venezuela.

use crate::operators::{Operator, OperatorKind, Operators};
use lacnet_offnets::certs::{CertScan, ScanRecord, TlsCert};
use lacnet_offnets::hypergiants::{by_name, Hypergiant};
use lacnet_types::{country, MonthStamp};

/// First (January) scan year in the Gigis et al. artifacts.
pub const FIRST_SCAN_YEAR: i32 = 2013;
/// Last scan year.
pub const LAST_SCAN_YEAR: i32 = 2021;

/// Venezuela's explicit adoption script `(hypergiant, asn, year)`.
const VE_ADOPTIONS: &[(&str, u32, i32)] = &[
    // Google: pre-crisis footprint, plus the later entrants' builds.
    ("Google", 8048, 2011),
    ("Google", 21826, 2012),
    ("Google", 6306, 2012),
    ("Google", 11562, 2012),
    ("Google", 263703, 2016),
    // Akamai: CANTV and Telemic only, both pre-crisis.
    ("Akamai", 8048, 2011),
    ("Akamai", 21826, 2012),
    // Facebook: never in CANTV; mid-decade entries elsewhere.
    ("Facebook", 21826, 2015),
    ("Facebook", 6306, 2015),
    ("Facebook", 264731, 2017),
    ("Facebook", 11562, 2017),
    ("Facebook", 264628, 2019),
    // Netflix: Telemic in 2019, CANTV only in 2021.
    ("Netflix", 21826, 2019),
    ("Netflix", 8048, 2021),
];

/// A representative certificate name for each hypergiant.
fn cert_name(hg: &Hypergiant) -> String {
    let pat = hg.cert_patterns[0];
    match pat.strip_prefix("*.") {
        Some(suffix) => format!("edge-cache-1.{suffix}"),
        None => pat.to_owned(),
    }
}

fn hash2(a: &str, b: u32) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for byte in a.bytes().chain(b.to_le_bytes()) {
        h ^= byte as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The year `op` first hosts `hg`'s off-net, if ever.
pub fn adoption_year(hg: &Hypergiant, op: &Operator) -> Option<i32> {
    if op.users == 0 {
        return None;
    }
    if op.country == country::VE {
        return VE_ADOPTIONS
            .iter()
            .find(|&&(name, asn, _)| name == hg.name && asn == op.asn.raw())
            .map(|&(_, _, y)| y);
    }
    // Rest of the region: staggered rollouts for big eyeballs.
    let h = hash2(hg.name, op.asn.raw());
    let big = op.users > 400_000;
    match hg.name {
        "Google" if big => Some(2009 + (h % 5) as i32),
        "Akamai" if big => Some(2010 + (h % 5) as i32),
        "Facebook" if big => Some(2014 + (h % 4) as i32),
        "Netflix" if big => Some(2013 + (h % 4) as i32),
        // Minimal presence: a few Brazilian and Mexican organisations.
        "Microsoft" | "Amazon" | "Cloudflare"
            if matches!(op.country.as_str(), "BR" | "MX") && op.kind == OperatorKind::Incumbent =>
        {
            Some(2018)
        }
        "Limelight" | "Cdnetworks" | "Alibaba"
            if op.country == country::BR && op.kind == OperatorKind::Incumbent =>
        {
            Some(2019)
        }
        _ => None,
    }
}

/// Build the yearly scan series.
pub fn build_cert_scans(ops: &Operators) -> Vec<CertScan> {
    (FIRST_SCAN_YEAR..=LAST_SCAN_YEAR)
        .map(|year| {
            let mut scan = CertScan::new(MonthStamp::new(year, 1));
            for op in ops.all() {
                for hg in lacnet_offnets::HYPERGIANTS {
                    if adoption_year(hg, op).is_some_and(|y| y <= year) {
                        scan.push(ScanRecord {
                            asn: op.asn,
                            country: op.country,
                            cert: TlsCert {
                                subject_cn: cert_name(hg),
                                dns_names: vec![hg.cert_patterns[0].to_owned()],
                            },
                        });
                    }
                }
                // Background noise: every eyeball serves an unrelated
                // first-party certificate too.
                if op.users > 0 {
                    scan.push(ScanRecord {
                        asn: op.asn,
                        country: op.country,
                        cert: TlsCert {
                            subject_cn: format!("www.as{}.example", op.asn.raw()),
                            dns_names: vec![],
                        },
                    });
                }
            }
            // Hypergiants also serve from their own networks (must not be
            // counted as off-nets).
            for hg in lacnet_offnets::HYPERGIANTS {
                scan.push(ScanRecord {
                    asn: hg.own_asns[0],
                    country: country::US,
                    cert: TlsCert {
                        subject_cn: cert_name(hg),
                        dns_names: vec![],
                    },
                });
            }
            scan
        })
        .collect()
}

/// Convenience: Venezuela's mean coverage for one hypergiant across all
/// scans (the §5.5 ranking metric).
pub fn ve_mean_coverage(ops: &Operators, scans: &[CertScan], hg_name: &str) -> f64 {
    let hg = by_name(hg_name).expect("known hypergiant");
    let series = lacnet_offnets::detect::coverage_series(
        scans,
        hg,
        country::VE,
        ops.populations(),
        ops.as2org(),
    );
    series.mean().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_offnets::detect::{self, detect_offnets};
    use lacnet_types::{Asn, CountryCode};

    fn world() -> (Operators, Vec<CertScan>) {
        let ops = Operators::generate(42);
        let scans = build_cert_scans(&ops);
        (ops, scans)
    }

    #[test]
    fn nine_yearly_scans() {
        let (_, scans) = world();
        assert_eq!(scans.len(), 9);
        assert_eq!(scans[0].month, MonthStamp::new(2013, 1));
        assert_eq!(scans[8].month, MonthStamp::new(2021, 1));
        assert!(scans.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn fig7_ve_mean_coverages() {
        let (ops, scans) = world();
        // Paper: Google 56.88%, Akamai 35.74%, Facebook 28.33%, Netflix 5.87%.
        let google = ve_mean_coverage(&ops, &scans, "Google");
        assert!((48.0..=65.0).contains(&google), "Google {google}");
        let akamai = ve_mean_coverage(&ops, &scans, "Akamai");
        assert!((30.0..=42.0).contains(&akamai), "Akamai {akamai}");
        let facebook = ve_mean_coverage(&ops, &scans, "Facebook");
        assert!((20.0..=36.0).contains(&facebook), "Facebook {facebook}");
        let netflix = ve_mean_coverage(&ops, &scans, "Netflix");
        assert!((3.0..=10.0).contains(&netflix), "Netflix {netflix}");
    }

    #[test]
    fn cantv_story() {
        let (_, scans) = world();
        let scan_2015 = &scans[2];
        let scan_2021 = &scans[8];
        // Google and Akamai were in CANTV before the crisis.
        for name in ["Google", "Akamai"] {
            let hosts = detect_offnets(scan_2015, by_name(name).unwrap());
            assert!(hosts.hosts.contains(&Asn(8048)), "{name} in CANTV by 2015");
        }
        // Facebook never entered CANTV.
        for scan in &scans {
            let hosts = detect_offnets(scan, by_name("Facebook").unwrap());
            assert!(
                !hosts.hosts.contains(&Asn(8048)),
                "Facebook must not be in CANTV"
            );
        }
        // Netflix only in 2021.
        let netflix = by_name("Netflix").unwrap();
        assert!(
            !detect_offnets(&scans[7], netflix)
                .hosts
                .contains(&Asn(8048)),
            "not in 2020"
        );
        assert!(
            detect_offnets(scan_2021, netflix)
                .hosts
                .contains(&Asn(8048)),
            "in 2021"
        );
    }

    #[test]
    fn minor_hypergiants_absent_from_venezuela() {
        let (_, scans) = world();
        for name in [
            "Microsoft",
            "Limelight",
            "Cdnetworks",
            "Alibaba",
            "Amazon",
            "Cloudflare",
        ] {
            let hg = by_name(name).unwrap();
            for scan in &scans {
                let hosts = detect_offnets(scan, hg);
                for asn in &hosts.hosts {
                    let rec = scan.records.iter().find(|r| r.asn == *asn).unwrap();
                    assert_ne!(rec.country, country::VE, "{name} must have no VE off-nets");
                }
            }
        }
    }

    #[test]
    fn ve_ranks_low_for_late_hypergiants() {
        let (ops, scans) = world();
        let countries: Vec<_> = country::lacnic_codes().collect();
        for (name, min_rank_frac) in [("Netflix", 0.6), ("Facebook", 0.5)] {
            let hg = by_name(name).unwrap();
            let table =
                detect::coverage_table(&scans, hg, &countries, ops.populations(), ops.as2org());
            let means: Vec<(CountryCode, f64)> = countries
                .iter()
                .zip(&table)
                .map(|(&cc, s)| (cc, s.mean().unwrap_or(0.0)))
                .collect();
            let (_, ve) = means.iter().find(|&&(cc, _)| cc == country::VE).unwrap();
            // 1-based rank by descending mean coverage, ties by code.
            let rank = 1 + means
                .iter()
                .filter(|&&(cc, m)| m > *ve || (m == *ve && cc < country::VE))
                .count();
            let frac = rank as f64 / means.len() as f64;
            assert!(
                frac >= min_rank_frac,
                "{name}: VE rank {rank}/{} ",
                means.len()
            );
        }
    }

    #[test]
    fn healthy_countries_reach_high_google_coverage() {
        let (ops, scans) = world();
        let google = by_name("Google").unwrap();
        let hosts = detect_offnets(&scans[8], google);
        for cc in [country::BR, country::AR, country::CL] {
            let cov = detect::population_coverage(&hosts, cc, ops.populations(), ops.as2org());
            assert!(cov > 60.0, "{cc} Google coverage {cov}");
        }
    }

    #[test]
    fn coverage_table_is_bit_identical_to_per_country_detection() {
        let (ops, scans) = world();
        let countries: Vec<_> = country::lacnic_codes().collect();
        for hg in lacnet_offnets::HYPERGIANTS {
            let table =
                detect::coverage_table(&scans, hg, &countries, ops.populations(), ops.as2org());
            assert_eq!(table.len(), countries.len());
            for (series, &cc) in table.iter().zip(&countries) {
                let expected: Vec<_> = scans
                    .iter()
                    .map(|scan| {
                        let hosts = detect_offnets(scan, hg);
                        let cov = detect::population_coverage(
                            &hosts,
                            cc,
                            ops.populations(),
                            ops.as2org(),
                        );
                        (scan.month, cov.to_bits())
                    })
                    .collect();
                let got: Vec<_> = series.iter().map(|(m, v)| (m, v.to_bits())).collect();
                assert_eq!(got, expected, "{} / {cc}", hg.name);
            }
        }
    }

    #[test]
    fn own_networks_never_detected() {
        let (_, scans) = world();
        for hg in lacnet_offnets::HYPERGIANTS {
            for scan in &scans {
                let hosts = detect_offnets(scan, hg);
                for own in hg.own_asns {
                    assert!(!hosts.hosts.contains(own));
                }
            }
        }
    }
}
