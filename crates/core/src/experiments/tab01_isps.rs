//! Table 1 — the ten largest Internet service providers in Venezuela by
//! estimated Internet population.

use crate::artifact::{Artifact, ExperimentResult, Finding, Table};
use crate::source::DataSource;
use lacnet_types::{country, Asn};

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let pops = src.operators.populations();
    let ranked = pops.ranked(country::VE);
    let total = pops.country_total(country::VE);
    let top10: Vec<(Asn, u64)> = ranked.iter().take(10).copied().collect();
    let top10_sum: u64 = top10.iter().map(|&(_, u)| u).sum();

    let rows: Vec<Vec<String>> = top10
        .iter()
        .map(|&(asn, users)| {
            let name = src
                .operators
                .by_asn(asn)
                .map(|o| o.name.clone())
                .unwrap_or_else(|| "?".into());
            vec![
                asn.raw().to_string(),
                name,
                users.to_string(),
                format!("{:.2}", users as f64 / total as f64 * 100.0),
            ]
        })
        .collect();

    let table = Table {
        id: "tab01".into(),
        caption: "Ten largest Internet service providers in Venezuela".into(),
        headers: vec!["ASN".into(), "AS Name".into(), "Users".into(), "%".into()],
        rows,
    };

    let cantv_share = top10
        .first()
        .map(|&(_, u)| u as f64 / total as f64 * 100.0)
        .unwrap_or(0.0);
    let findings = vec![
        Finding::claim(
            "CANTV-AS8048 leads the market",
            "rank 1",
            format!("rank 1 is AS{}", top10[0].0.raw()),
            top10[0].0 == Asn(8048),
        ),
        Finding::numeric("CANTV share (%)", 21.50, cantv_share, 0.01),
        Finding::numeric(
            "top-10 cumulative share (%)",
            77.18,
            top10_sum as f64 / total as f64 * 100.0,
            0.01,
        ),
        Finding::claim(
            "Telemic (Inter) is the closest competitor at roughly half",
            "AS21826 rank 2",
            format!("rank 2 is AS{}", top10[1].0.raw()),
            top10[1].0 == Asn(21826),
        ),
    ];

    ExperimentResult {
        id: "tab01".into(),
        title: "Composition of Venezuela's Internet user base".into(),
        artifacts: vec![Artifact::Table(table)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab01_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Table(t) = &r.artifacts[0] else {
            panic!()
        };
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.rows[0][0], "8048");
        assert_eq!(t.rows[0][2], "4330868");
    }
}
