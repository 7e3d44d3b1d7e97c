//! Fig. 1 — the domino effect: oil production (−81%), GDP per capita
//! (−71%), inflation (32,000% peak), population (−14%).

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::source::DataSource;
use lacnet_types::country;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let e = &src.economy;
    let oil = e.oil_production_ve().clone();
    let gdp = e.gdp_per_capita(country::VE).cloned().unwrap_or_default();
    let inflation = e.inflation_ve().clone();
    let pop = e.population_ve().clone();

    // Peak-to-post-peak-trough change: the collapse the Fig. 1
    // annotations quote.
    let drop_pct = |s: &lacnet_types::TimeSeries| {
        let Some(peak) = s.max_value() else {
            return 0.0;
        };
        let peak_month = s
            .iter()
            .find(|&(_, v)| v == peak)
            .map(|(m, _)| m)
            .expect("max exists");
        let end = s.last().map(|(m, _)| m).expect("series non-empty");
        let trough = s.window(peak_month, end).min_value().unwrap_or(peak);
        if peak == 0.0 {
            0.0
        } else {
            (trough - peak) / peak * 100.0
        }
    };

    let findings = vec![
        Finding::numeric("oil production collapse (%)", -81.49, drop_pct(&oil), 0.05),
        Finding::numeric("GDP per capita decline (%)", -70.90, drop_pct(&gdp), 0.05),
        Finding::numeric(
            "inflation peak (%)",
            32_000.0,
            inflation.max_value().unwrap_or(0.0),
            0.05,
        ),
        Finding::numeric("population decline (%)", -13.85, drop_pct(&pop), 0.08),
    ];

    let figure = Figure {
        id: "fig01".into(),
        caption: "The domino effect of Venezuela's economic catastrophe".into(),
        panels: vec![
            Panel::new(
                "Oil production",
                vec![
                    Line::new("VE", oil.clone()),
                    Line::new("VE (norm)", oil.normalized_to_max()),
                ],
            ),
            Panel::new(
                "GDP per capita",
                vec![
                    Line::new("VE", gdp.clone()),
                    Line::new("VE (norm)", gdp.normalized_to_max()),
                ],
            ),
            Panel::new("Inflation rate", vec![Line::new("VE", inflation)]),
            Panel::new(
                "Population",
                vec![
                    Line::new("VE", pop.clone()),
                    Line::new("VE (norm)", pop.normalized_to_max()),
                ],
            ),
        ],
    };

    ExperimentResult {
        id: "fig01".into(),
        title: "Macro-economic collapse".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert_eq!(r.id, "fig01");
        assert_eq!(r.findings.len(), 4);
        assert!(r.all_match(), "{:#?}", r.findings);
        assert_eq!(r.artifacts.len(), 1);
    }
}
