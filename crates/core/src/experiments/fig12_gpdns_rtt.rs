//! Fig. 12 — median RTT to Google Public DNS per country.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_atlas::gpdns::{GpdnsCampaign, LatencyModel};
use lacnet_crisis::config::windows;
use lacnet_types::{country, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Run the experiment: the monthly min-RTT campaign, reduced to country
/// medians, with the paper's last-6-months comparisons.
pub fn run(src: &DataSource) -> ExperimentResult {
    let campaign = GpdnsCampaign::new(
        &src.dns.probes,
        &src.dns.gpdns_sites,
        LatencyModel::default(),
        src.config.seed,
    );
    let start = windows::gpdns_start();
    let end = src.config.end;
    let series: BTreeMap<_, TimeSeries> = campaign
        .median_series(start, end)
        .into_iter()
        .filter(|(cc, _)| country::in_lacnic(*cc))
        .collect();

    let trailing = |cc: lacnet_types::CountryCode| -> f64 {
        series
            .get(&cc)
            .and_then(|s| s.trailing_mean(6))
            .unwrap_or(0.0)
    };
    let ve = trailing(country::VE);
    let regional: Vec<f64> = series.keys().map(|&cc| trailing(cc)).collect();
    let region_mean = regional.iter().sum::<f64>() / regional.len().max(1) as f64;

    let findings = vec![
        Finding::numeric("VE latency, last 6 months (ms)", 36.56, ve, 0.2),
        Finding::numeric(
            "LACNIC average, last 6 months (ms)",
            17.74,
            region_mean,
            0.25,
        ),
        Finding::numeric("VE / region ratio", 2.06, ve / region_mean.max(1e-9), 0.25),
        Finding::claim(
            "Colombia's dramatic decline (48.48 → 16.10 ms)",
            "> 25 ms improvement 2016→2023",
            {
                let co = &series[&country::CO];
                format!(
                    "{:.1} → {:.1} ms",
                    co.window(MonthStamp::new(2016, 1), MonthStamp::new(2016, 6))
                        .mean()
                        .unwrap_or(0.0),
                    co.trailing_mean(6).unwrap_or(0.0)
                )
            },
            {
                let co = &series[&country::CO];
                let early = co
                    .window(MonthStamp::new(2016, 1), MonthStamp::new(2016, 6))
                    .mean()
                    .unwrap_or(0.0);
                early - co.trailing_mean(6).unwrap_or(early) > 25.0
            },
        ),
        Finding::claim(
            "VE latency several times its peers'",
            "≥ 2× BR, ≥ 1.5× MX",
            format!(
                "BR {:.1}, MX {:.1}, VE {ve:.1}",
                trailing(country::BR),
                trailing(country::MX)
            ),
            ve > 2.0 * trailing(country::BR) && ve > 1.2 * trailing(country::MX),
        ),
    ];

    let ve_series = series.get(&country::VE).cloned().unwrap_or_default();
    let region_series = {
        // Mean of country medians per month.
        let refs: Vec<&TimeSeries> = series.values().collect();
        lacnet_types::series::mean_of(&refs)
    };

    let figure = Figure {
        id: "fig12".into(),
        caption: "Median RTT to Google Public DNS in the LACNIC region".into(),
        panels: vec![
            Panel::new("countries", common::country_lines(&series)),
            Panel::new("VE", vec![Line::new("VE", ve_series)]),
            Panel::new("LACNIC", vec![Line::new("mean of medians", region_series)]),
        ],
    };

    ExperimentResult {
        id: "fig12".into(),
        title: "Access to Google Public DNS".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
