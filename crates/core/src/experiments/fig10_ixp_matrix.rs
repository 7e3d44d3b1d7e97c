//! Fig. 10 — percentage of each country's Internet population in networks
//! peering at the largest IXP of every Latin American country.

use crate::artifact::{Artifact, ExperimentResult, Finding, Heatmap};
use crate::source::DataSource;
use lacnet_peeringdb::analytics;
use lacnet_types::{country, Asn, CountryCode};
use std::collections::BTreeSet;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let region: Vec<CountryCode> = country::lacnic_codes().collect();
    let largest = analytics::largest_ixp_members(&src.peeringdb, &region);
    let pops = src.operators.populations();

    // Columns: the IXPs, ordered by name. Rows: eyeball countries.
    let mut cols: Vec<(String, Vec<Asn>)> = largest.values().cloned().collect();
    cols.sort_by(|a, b| a.0.cmp(&b.0));
    let rows: Vec<CountryCode> = region
        .iter()
        .copied()
        .filter(|cc| pops.country_total(*cc) > 0)
        .collect();

    let mut cells = Vec::new();
    for &row_cc in &rows {
        let mut row = Vec::new();
        for (_, members) in &cols {
            let set: BTreeSet<Asn> = members.iter().copied().collect();
            let share = pops.share_of(row_cc, &set) * 100.0;
            row.push((share > 0.0).then_some(share));
        }
        cells.push(row);
    }

    let heat = Heatmap {
        id: "fig10".into(),
        caption: "Percentage of countries' Internet population peering at the largest IXP of each country".into(),
        rows: rows.iter().map(|c| c.to_string()).collect(),
        cols: cols.iter().map(|(n, _)| n.clone()).collect(),
        cells: cells.clone(),
    };

    // Findings: the diagonals the paper quotes and Venezuela's absence.
    let share_at = |row: CountryCode, ixp: &str| -> f64 {
        let Some(ci) = cols.iter().position(|(n, _)| n == ixp) else {
            return 0.0;
        };
        let Some(ri) = rows.iter().position(|&r| r == row) else {
            return 0.0;
        };
        cells[ri][ci].unwrap_or(0.0)
    };
    let ve_row_total: f64 = {
        let ri = rows.iter().position(|&r| r == country::VE).unwrap_or(0);
        cells[ri].iter().flatten().sum()
    };
    let findings = vec![
        Finding::numeric("AR population at AR-IX (%)", 62.4, share_at(country::AR, "AR-IX"), 0.15),
        Finding::numeric("BR population at IX.br SP (%)", 45.53, share_at(country::BR, "IX.br (SP)"), 0.15),
        Finding::numeric("CL population at PIT Chile (%)", 49.57, share_at(country::CL, "PIT Chile (SCL)"), 0.15),
        Finding::claim(
            "no Venezuelan IXP column exists",
            "VE hosts no IXP",
            format!("{} columns, none Venezuelan", cols.len()),
            !cols.iter().any(|(n, _)| n.contains("VE")),
        ),
        Finding::claim(
            "Venezuela effectively absent from the matrix",
            "VE row ≈ 0 across regional IXPs (its only foothold, Equinix Bogotá, is not Colombia's largest IXP)",
            format!("VE row total {ve_row_total:.2}%"),
            ve_row_total < 5.0,
        ),
    ];

    ExperimentResult {
        id: "fig10".into(),
        title: "Latin American IXP population matrix".into(),
        artifacts: vec![Artifact::Heatmap(heat)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Heatmap(h) = &r.artifacts[0] else {
            panic!()
        };
        assert!(h.cols.len() >= 15, "one flagship IXP per country with one");
    }
}
