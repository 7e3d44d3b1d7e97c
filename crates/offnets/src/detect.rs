//! The off-net detection method (Gigis et al.) and its aggregations.

use crate::as2org::AsOrgMap;
use crate::certs::CertScan;
use crate::hypergiants::Hypergiant;
use crate::population::PopulationEstimates;
use lacnet_types::{Asn, CountryCode, MonthStamp, TimeSeries};
use std::collections::BTreeSet;

/// ASes detected hosting a hypergiant's off-net replicas in one scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffnetHosts {
    /// The scan month.
    pub month: MonthStamp,
    /// The hypergiant name.
    pub hypergiant: &'static str,
    /// Host ASes (never the hypergiant's own).
    pub hosts: BTreeSet<Asn>,
}

/// Run the detection over one scan for one hypergiant: a certificate
/// asserting one of the hypergiant's names, served from an AS the
/// hypergiant does not own, marks that AS as an off-net host.
pub fn detect_offnets(scan: &CertScan, hg: &Hypergiant) -> OffnetHosts {
    let mut hosts = BTreeSet::new();
    for rec in &scan.records {
        if hg.owns_asn(rec.asn) {
            continue;
        }
        if rec.cert.names().any(|n| hg.matches_name(n)) {
            hosts.insert(rec.asn);
        }
    }
    OffnetHosts {
        month: scan.month,
        hypergiant: hg.name,
        hosts,
    }
}

/// The Fig. 7/18 metric for one `(hypergiant, country, scan)`: the
/// percentage of the country's Internet users inside organisations
/// hosting that hypergiant's off-nets.
pub fn population_coverage(
    hosts: &OffnetHosts,
    country: CountryCode,
    populations: &PopulationEstimates,
    as2org: &AsOrgMap,
) -> f64 {
    let orgs: BTreeSet<u32> = hosts.hosts.iter().map(|&a| as2org.org_of(a)).collect();
    populations.org_share_of(country, &orgs, as2org) * 100.0
}

/// Coverage time series for one hypergiant across scans, one per
/// country in `countries` order. Detection does not depend on the
/// country, so each scan is matched once and its host set folded into
/// every country's coverage.
pub fn coverage_table(
    scans: &[CertScan],
    hg: &Hypergiant,
    countries: &[CountryCode],
    populations: &PopulationEstimates,
    as2org: &AsOrgMap,
) -> Vec<TimeSeries> {
    let mut table = vec![TimeSeries::new(); countries.len()];
    for scan in scans {
        let hosts = detect_offnets(scan, hg);
        for (series, &cc) in table.iter_mut().zip(countries) {
            series.insert(
                scan.month,
                population_coverage(&hosts, cc, populations, as2org),
            );
        }
    }
    table
}

/// Coverage time series for one hypergiant and country across scans.
pub fn coverage_series(
    scans: &[CertScan],
    hg: &Hypergiant,
    country: CountryCode,
    populations: &PopulationEstimates,
    as2org: &AsOrgMap,
) -> TimeSeries {
    coverage_table(scans, hg, &[country], populations, as2org)
        .pop()
        .expect("one country, one series")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{ScanRecord, TlsCert};
    use crate::hypergiants::by_name;
    use lacnet_types::country;

    fn cert(cn: &str) -> TlsCert {
        TlsCert {
            subject_cn: cn.into(),
            dns_names: vec![],
        }
    }

    fn scan_2019() -> CertScan {
        let mut scan = CertScan::new(MonthStamp::new(2019, 1));
        // Google cache inside CANTV (off-net).
        scan.push(ScanRecord {
            asn: Asn(8048),
            country: country::VE,
            cert: cert("cache.google.com"),
        });
        // Google serving from its own AS — not an off-net.
        scan.push(ScanRecord {
            asn: Asn(15169),
            country: country::US,
            cert: cert("edge.google.com"),
        });
        // Netflix OCA inside a Brazilian ISP.
        scan.push(ScanRecord {
            asn: Asn(28573),
            country: country::BR,
            cert: cert("oca001.nflxvideo.net"),
        });
        // Unrelated cert inside CANTV.
        scan.push(ScanRecord {
            asn: Asn(8048),
            country: country::VE,
            cert: cert("www.banco.com.ve"),
        });
        scan
    }

    #[test]
    fn detection_excludes_own_networks() {
        let scan = scan_2019();
        let google = detect_offnets(&scan, by_name("Google").unwrap());
        assert_eq!(google.hosts, BTreeSet::from([Asn(8048)]));
        let netflix = detect_offnets(&scan, by_name("Netflix").unwrap());
        assert_eq!(netflix.hosts, BTreeSet::from([Asn(28573)]));
        let akamai = detect_offnets(&scan, by_name("Akamai").unwrap());
        assert!(akamai.hosts.is_empty());
    }

    #[test]
    fn detection_reads_dns_names_too() {
        let mut scan = CertScan::new(MonthStamp::new(2020, 1));
        scan.push(ScanRecord {
            asn: Asn(21826),
            country: country::VE,
            cert: TlsCert {
                subject_cn: "edge.example".into(),
                dns_names: vec!["static.akamaihd.net".into()],
            },
        });
        let akamai = detect_offnets(&scan, by_name("Akamai").unwrap());
        assert_eq!(akamai.hosts, BTreeSet::from([Asn(21826)]));
    }

    fn pops() -> PopulationEstimates {
        let mut p = PopulationEstimates::new();
        p.set(country::VE, Asn(8048), 4_000_000);
        p.set(country::VE, Asn(21826), 2_000_000);
        p.set(country::VE, Asn(6306), 2_000_000);
        p.set(country::BR, Asn(28573), 40_000_000);
        p.set(country::BR, Asn(26599), 60_000_000);
        p
    }

    #[test]
    fn coverage_percentages() {
        let scan = scan_2019();
        let map = AsOrgMap::new();
        let p = pops();
        let google = detect_offnets(&scan, by_name("Google").unwrap());
        let ve = population_coverage(&google, country::VE, &p, &map);
        assert!((ve - 50.0).abs() < 1e-9, "{ve}");
        let br = population_coverage(&google, country::BR, &p, &map);
        assert_eq!(br, 0.0);
        let netflix = detect_offnets(&scan, by_name("Netflix").unwrap());
        let br = population_coverage(&netflix, country::BR, &p, &map);
        assert!((br - 40.0).abs() < 1e-9, "{br}");
    }

    #[test]
    fn series_and_rankings() {
        let scans = vec![scan_2019()];
        let p = pops();
        let map = AsOrgMap::new();
        let google = by_name("Google").unwrap();
        let series = coverage_series(&scans, google, country::VE, &p, &map);
        assert_eq!(series.len(), 1);
        let table = coverage_table(&scans, google, &[country::BR, country::VE], &p, &map);
        assert_eq!(table.len(), 2, "one series per country, in input order");
        assert_eq!(table[0].get(MonthStamp::new(2019, 1)), Some(0.0));
        assert_eq!(table[1], series);
    }

    #[test]
    fn org_aggregation_widens_coverage() {
        let scan = scan_2019();
        let p = pops();
        let mut map = AsOrgMap::new();
        map.assign(Asn(8048), 1);
        map.assign(Asn(6306), 1); // pretend sibling
        let google = detect_offnets(&scan, by_name("Google").unwrap());
        let ve = population_coverage(&google, country::VE, &p, &map);
        assert!((ve - 75.0).abs() < 1e-9, "org-level credit: {ve}");
    }
}
