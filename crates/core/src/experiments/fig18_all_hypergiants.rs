//! Fig. 18 (Appendix G) — off-net population coverage for all ten
//! hypergiants across the region.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::source::DataSource;
use lacnet_offnets::detect;
use lacnet_offnets::HYPERGIANTS;
use lacnet_types::country;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let countries: Vec<_> = country::lacnic_codes().collect();
    let ve = countries
        .iter()
        .position(|&cc| cc == country::VE)
        .expect("Venezuela is a LACNIC country");
    let mut panels = Vec::new();
    let mut findings = Vec::new();

    for (i, hg) in HYPERGIANTS.iter().enumerate() {
        let table = detect::coverage_table(
            &src.cert_scans,
            hg,
            &countries,
            src.operators.populations(),
            src.operators.as2org(),
        );
        // The minor six must have zero Venezuelan presence throughout.
        if i >= 4 {
            let ve_max = table[ve].max_value().unwrap_or(0.0);
            findings.push(Finding::claim(
                format!("{} has no Venezuelan off-nets", hg.name),
                "0%",
                format!("max {ve_max:.2}%"),
                ve_max == 0.0,
            ));
        }
        let lines = countries
            .iter()
            .zip(table)
            .filter(|(_, series)| series.max_value().unwrap_or(0.0) > 0.0)
            .map(|(cc, series)| Line::new(cc.as_str(), series))
            .collect();
        panels.push(Panel::new(hg.name, lines));
    }

    // And only minimal regional presence (a handful of countries).
    let minor_countries: usize = panels
        .iter()
        .skip(4)
        .map(|p| p.lines.len())
        .max()
        .unwrap_or(0);
    findings.push(Finding::claim(
        "minor hypergiants have minimal LACNIC presence",
        "a few countries at most",
        format!("at most {minor_countries} countries with any coverage"),
        minor_countries <= 4,
    ));

    ExperimentResult {
        id: "fig18".into(),
        title: "Off-nets of all ten hypergiants".into(),
        artifacts: vec![Artifact::Figure(Figure {
            id: "fig18".into(),
            caption: "Population coverage of off-net hosting, all hypergiants".into(),
            panels,
        })],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Figure(fig) = &r.artifacts[0] else {
            panic!()
        };
        assert_eq!(fig.panels.len(), 10);
    }
}
