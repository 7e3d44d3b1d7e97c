//! Fig. 15 + Table 2 (Appendix D) — networks present at Venezuelan
//! peering facilities.

use crate::artifact::{Artifact, ExperimentResult, Finding, Heatmap, Table};
use crate::source::DataSource;
use lacnet_peeringdb::analytics;
use lacnet_types::country;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let fp = analytics::FacilityPresence::compute(&src.peeringdb, country::VE);

    let heat = Heatmap {
        id: "fig15".into(),
        caption: "Number of networks present at peering facilities in Venezuela".into(),
        rows: fp.facilities.iter().map(|(_, name)| name.clone()).collect(),
        cols: fp.months.iter().map(|m| m.to_string()).collect(),
        cells: fp
            .counts
            .iter()
            .map(|row| row.iter().map(|c| c.map(|n| n as f64)).collect())
            .collect(),
    };

    let roster = analytics::facility_roster(&src.peeringdb, country::VE);
    let mut rows = Vec::new();
    for (fac, asns) in &roster {
        for asn in asns {
            let name = src
                .operators
                .by_asn(*asn)
                .map(|o| o.name.clone())
                .or_else(|| {
                    src.peeringdb
                        .latest()
                        .and_then(|(_, s)| s.network_by_asn(*asn).map(|n| n.name.clone()))
                })
                .unwrap_or_else(|| "?".into());
            rows.push(vec![fac.clone(), asn.raw().to_string(), name]);
        }
    }
    let table = Table {
        id: "tab02".into(),
        caption: "Networks present at Venezuela's peering facilities".into(),
        headers: vec!["Facility".into(), "ASN".into(), "AS Name".into()],
        rows,
    };

    let findings = vec![
        Finding::numeric(
            // The presence matrix keys the row by its first registered
            // name; the facility was "Lumen La Urbina" before the 2022
            // Cirion rename.
            "La Urbina (Lumen→Cirion) networks (latest)",
            11.0,
            fp.latest_count("La Urbina").unwrap_or(0) as f64,
            0.01,
        ),
        Finding::numeric(
            "GigaPOP Maracaibo networks",
            0.0,
            fp.latest_count("GigaPOP").unwrap_or(99) as f64,
            0.01,
        ),
        Finding::numeric(
            "Daycohost networks (latest)",
            3.0,
            fp.latest_count("Daycohost").unwrap_or(0) as f64,
            0.01,
        ),
        Finding::numeric(
            "Globenet Maiquetia networks (latest)",
            2.0,
            fp.latest_count("Globenet").unwrap_or(0) as f64,
            0.01,
        ),
        Finding::claim(
            "Table 2 contains no hypergiants or large transits",
            "no Google/Cloudflare/tier-1 rows",
            "roster checked",
            !roster
                .values()
                .flatten()
                .any(|a| matches!(a.raw(), 15169 | 13335 | 701 | 1239 | 3356 | 7018 | 1299)),
        ),
    ];

    ExperimentResult {
        id: "fig15".into(),
        title: "Presence at Venezuelan peering facilities".into(),
        artifacts: vec![Artifact::Heatmap(heat), Artifact::Table(table)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Table(t) = &r.artifacts[1] else {
            panic!()
        };
        assert!(t.rows.len() >= 14, "Table 2 rows: {}", t.rows.len());
    }
}
