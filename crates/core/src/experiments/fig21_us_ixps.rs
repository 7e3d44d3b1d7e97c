//! Fig. 21 (Appendix I) — Latin American networks at IXPs in the United
//! States: population share and AS counts.

use crate::artifact::{Artifact, ExperimentResult, Finding, Heatmap};
use crate::source::DataSource;
use lacnet_peeringdb::analytics;
use lacnet_types::{country, Asn, CountryCode};
use std::collections::BTreeSet;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let us_ixps = analytics::ixp_members_in(&src.peeringdb, country::US);
    let pops = src.operators.populations();
    let region: Vec<CountryCode> = country::lacnic_codes().collect();

    // Country of each member AS, from the operator cast.
    let country_of = |asn: Asn| src.operators.by_asn(asn).map(|o| o.country);

    let mut rows: Vec<CountryCode> = Vec::new();
    let mut share_cells: Vec<Vec<Option<f64>>> = Vec::new();
    let mut count_cells: Vec<Vec<Option<f64>>> = Vec::new();
    for &cc in &region {
        let mut share_row = Vec::new();
        let mut count_row = Vec::new();
        let mut any = false;
        for (_, members) in &us_ixps {
            let domestic: BTreeSet<Asn> = members
                .iter()
                .copied()
                .filter(|&a| country_of(a) == Some(cc))
                .collect();
            if domestic.is_empty() {
                share_row.push(None);
                count_row.push(None);
            } else {
                any = true;
                share_row.push(Some(pops.share_of(cc, &domestic) * 100.0));
                count_row.push(Some(domestic.len() as f64));
            }
        }
        if any {
            rows.push(cc);
            share_cells.push(share_row);
            count_cells.push(count_row);
        }
    }

    let cols: Vec<String> = us_ixps.iter().map(|(n, _)| n.clone()).collect();
    let shares = Heatmap {
        id: "fig21-eyeballs".into(),
        caption: "% of countries' Internet population at US IXPs".into(),
        rows: rows.iter().map(|c| c.to_string()).collect(),
        cols: cols.clone(),
        cells: share_cells,
    };
    let counts = Heatmap {
        id: "fig21-ases".into(),
        caption: "# of ASes per country at US IXPs".into(),
        rows: rows.iter().map(|c| c.to_string()).collect(),
        cols,
        cells: count_cells,
    };

    // Venezuela's aggregate presence.
    let mut ve_networks: BTreeSet<Asn> = BTreeSet::new();
    for (_, members) in &us_ixps {
        for &a in members {
            if country_of(a) == Some(country::VE) {
                ve_networks.insert(a);
            }
        }
    }
    let ve_share = pops.share_of(country::VE, &ve_networks) * 100.0;

    // Brazil and Mexico spread across most exchanges.
    let presence_breadth = |cc: CountryCode| -> usize {
        us_ixps
            .iter()
            .filter(|(_, members)| members.iter().any(|&a| country_of(a) == Some(cc)))
            .count()
    };

    let findings = vec![
        Finding::numeric(
            "VE networks at US IXPs",
            7.0,
            ve_networks.len() as f64,
            0.01,
        ),
        Finding::numeric("VE population share at US IXPs (%)", 7.0, ve_share, 0.15),
        Finding::claim(
            "BR/MX networks present across most US exchanges",
            "breadth > half the columns",
            format!(
                "BR at {}, MX at {} of {} exchanges",
                presence_breadth(country::BR),
                presence_breadth(country::MX),
                us_ixps.len()
            ),
            presence_breadth(country::BR) * 2 >= us_ixps.len()
                && presence_breadth(country::MX) * 2 >= us_ixps.len(),
        ),
        Finding::claim(
            "Uruguay: few exchanges, large population share",
            "UY present at ≤ 4 exchanges with > 40% share somewhere",
            "checked",
            {
                let breadth = presence_breadth(country::UY);
                let ri = rows.iter().position(|&r| r == country::UY);
                let max_share = ri
                    .map(|i| {
                        shares.cells[i]
                            .iter()
                            .flatten()
                            .fold(0.0f64, |a, &b| a.max(b))
                    })
                    .unwrap_or(0.0);
                breadth <= 4 && max_share > 40.0
            },
        ),
    ];

    ExperimentResult {
        id: "fig21".into(),
        title: "Latin American networks at US IXPs".into(),
        artifacts: vec![Artifact::Heatmap(shares), Artifact::Heatmap(counts)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig21_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        assert_eq!(r.artifacts.len(), 2);
    }
}
