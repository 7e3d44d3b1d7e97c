//! Fig. 5 — percentage of requests over IPv6 (Meta dataset).

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_crisis::config::windows;
use lacnet_crisis::ipv6;
use lacnet_types::{country, MonthStamp};
use std::collections::BTreeMap;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let start = windows::ipv6_start();
    let end = MonthStamp::new(2023, 7).min(src.config.end);

    let mut series = BTreeMap::new();
    for cc in country::lacnic_codes() {
        series.insert(cc, ipv6::adoption_series(cc, start, end));
    }
    let mean = ipv6::regional_mean_series(start, end);

    let ve_last = series[&country::VE].last().map(|(_, v)| v).unwrap_or(0.0);
    let findings = vec![
        Finding::numeric("Venezuela IPv6 adoption mid-2023 (%)", 1.5, ve_last, 0.2),
        Finding::numeric(
            "region mean adoption 2023 (%)",
            20.0,
            mean.last().map(|(_, v)| v).unwrap_or(0.0),
            0.2,
        ),
        Finding::claim(
            "Mexico and Brazil surpass ≈40%",
            "both above 40%",
            format!(
                "MX {:.1}, BR {:.1}",
                series[&country::MX].last().map(|(_, v)| v).unwrap_or(0.0),
                series[&country::BR].last().map(|(_, v)| v).unwrap_or(0.0)
            ),
            series[&country::MX].last().map(|(_, v)| v).unwrap_or(0.0) > 40.0
                && series[&country::BR].last().map(|(_, v)| v).unwrap_or(0.0) > 40.0,
        ),
        Finding::claim(
            "Chile surges during 2022",
            "steep 2022 growth",
            "see CL series",
            {
                let cl = &series[&country::CL];
                let a = cl.get(MonthStamp::new(2021, 12)).unwrap_or(0.0);
                let b = cl.get(MonthStamp::new(2023, 1)).unwrap_or(0.0);
                b > a * 1.8
            },
        ),
        Finding::claim(
            "Venezuela near zero until 2021",
            "< 0.5% before 2021",
            format!(
                "{:.2}% at 2020-12",
                series[&country::VE]
                    .get(MonthStamp::new(2020, 12))
                    .unwrap_or(0.0)
            ),
            series[&country::VE]
                .get(MonthStamp::new(2020, 12))
                .unwrap_or(1.0)
                < 0.5,
        ),
    ];

    let figure = Figure {
        id: "fig05".into(),
        caption: "Percentage of requests over IPv6 registered by Meta".into(),
        panels: vec![
            Panel::new("countries", common::country_lines(&series)),
            Panel::new("VE", vec![Line::new("VE", series[&country::VE].clone())]),
            Panel::new("LACNIC", vec![Line::new("mean", mean)]),
        ],
    };

    ExperimentResult {
        id: "fig05".into(),
        title: "IPv6 rollout".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig05_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
