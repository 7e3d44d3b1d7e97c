//! Fig. 4 — expansion of submarine cable networks in the LACNIC region.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_types::{country, Date, MonthStamp};
use std::collections::BTreeMap;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let map = &src.cables;
    let start = MonthStamp::new(1990, 1);
    let end = src.config.end;

    let mut series = BTreeMap::new();
    for cc in country::lacnic_codes() {
        series.insert(cc, map.count_series(cc, start, end));
    }
    let region: Vec<_> = country::lacnic_codes().collect();
    let total = map.region_series(&region, start, end);

    let added_ve = map.added_between(country::VE, Date::ymd(2004, 1, 1), end.last_day());

    let findings = vec![
        Finding::numeric(
            "region cables in 2000",
            13.0,
            total.get(MonthStamp::new(2000, 12)).unwrap_or(0.0),
            0.01,
        ),
        Finding::numeric(
            "region cables in 2024",
            54.0,
            total.last().map(|(_, v)| v).unwrap_or(0.0),
            0.02,
        ),
        Finding::claim(
            "Venezuela's only addition in the past decade",
            "ALBA (to Cuba)",
            added_ve
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            added_ve.len() == 1 && added_ve[0].lands_in(country::CU),
        ),
        Finding::numeric(
            "Brazil cables 2024",
            17.0,
            series[&country::BR].last().map(|(_, v)| v).unwrap_or(0.0),
            0.01,
        ),
        Finding::numeric(
            "Colombia cables 2024",
            13.0,
            series[&country::CO].last().map(|(_, v)| v).unwrap_or(0.0),
            0.01,
        ),
        Finding::numeric(
            "Chile cables 2024",
            9.0,
            series[&country::CL].last().map(|(_, v)| v).unwrap_or(0.0),
            0.01,
        ),
        Finding::numeric(
            "Argentina cables 2024",
            9.0,
            series[&country::AR].last().map(|(_, v)| v).unwrap_or(0.0),
            0.01,
        ),
    ];

    let figure = Figure {
        id: "fig04".into(),
        caption: "Expansion of Submarine Cable Networks in the LACNIC Region".into(),
        panels: vec![
            Panel::new("countries", common::country_lines(&series)),
            Panel::new(
                "Venezuela",
                vec![Line::new("VE", series[&country::VE].clone())],
            ),
            Panel::new("LACNIC", vec![Line::new("total", total)]),
        ],
    };

    ExperimentResult {
        id: "fig04".into(),
        title: "Submarine connectivity".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
