//! Fig. 3 — peering facilities in the LACNIC region since 2018.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_peeringdb::analytics;
use lacnet_types::country;
use std::collections::BTreeMap;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let archive = &src.peeringdb;
    let mut series = BTreeMap::new();
    for cc in country::lacnic_codes() {
        series.insert(cc, analytics::facility_count_series(archive, cc));
    }
    let region: Vec<_> = country::lacnic_codes().collect();
    let total = analytics::facility_total_series(archive, &region);

    let first = |s: &lacnet_types::TimeSeries| s.first().map(|(_, v)| v).unwrap_or(0.0);
    let last = |s: &lacnet_types::TimeSeries| s.last().map(|(_, v)| v).unwrap_or(0.0);

    let findings = vec![
        Finding::numeric("region facilities 2018", 180.0, first(&total), 0.05),
        Finding::numeric("region facilities 2024", 552.0, last(&total), 0.05),
        Finding::numeric(
            "Venezuela facilities 2024",
            4.0,
            last(&series[&country::VE]),
            0.01,
        ),
        Finding::numeric(
            "Brazil facilities 2018",
            102.0,
            first(&series[&country::BR]),
            0.05,
        ),
        Finding::numeric(
            "Brazil facilities 2024",
            311.0,
            last(&series[&country::BR]),
            0.05,
        ),
        Finding::numeric(
            "Mexico facilities 2024",
            45.0,
            last(&series[&country::MX]),
            0.05,
        ),
        Finding::numeric(
            "Chile facilities 2024",
            45.0,
            last(&series[&country::CL]),
            0.05,
        ),
        Finding::numeric(
            "Costa Rica facilities 2024 (state-incumbent counter-example)",
            8.0,
            last(&series[&country::CR]),
            0.05,
        ),
    ];

    let figure = Figure {
        id: "fig03".into(),
        caption: "Evolution in the number of peering facilities in the LACNIC region".into(),
        panels: vec![
            Panel::new("BR", vec![Line::new("BR", series[&country::BR].clone())]),
            Panel::new("countries", common::country_lines(&series)),
            Panel::new("VE", vec![Line::new("VE", series[&country::VE].clone())]),
            Panel::new("LACNIC", vec![Line::new("total", total)]),
        ],
    };

    ExperimentResult {
        id: "fig03".into(),
        title: "Proliferation of peering facilities".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Figure(fig) = &r.artifacts[0] else {
            panic!()
        };
        assert_eq!(fig.panels.len(), 4);
    }
}
