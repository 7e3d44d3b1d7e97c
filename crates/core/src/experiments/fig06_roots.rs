//! Fig. 6 — root DNS replicas detected via CHAOS TXT, per country.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_atlas::campaign;
use lacnet_crisis::config::windows;
use lacnet_types::{country, sweep, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Run the experiment. To keep the battery fast the campaign samples
/// twice a year rather than monthly; endpoints are exact months.
pub fn run(src: &DataSource) -> ExperimentResult {
    let start = windows::chaos_start();
    let end = src.config.end;

    // Sample months: January and July each year, plus the exact endpoints.
    let mut months: Vec<MonthStamp> = start
        .through(end)
        .filter(|m| m.month() == 1 || m.month() == 7)
        .collect();
    if months.last() != Some(&end) {
        months.push(end);
    }

    // Each sample month's campaign is independent; sweep them across
    // worker threads and merge in month order.
    let camp = campaign::ChaosCampaign::new(&src.dns.probes, &src.dns.roots);
    let sampled = sweep::months_sweep(&months, |m| {
        let obs = camp.run_month(m);
        campaign::replicas_by_country(&obs)
            .into_iter()
            .filter(|(cc, _)| country::in_lacnic(*cc))
            .map(|(cc, replicas)| (cc, replicas.len() as f64))
            .collect::<Vec<_>>()
    });
    let mut series: BTreeMap<_, TimeSeries> = BTreeMap::new();
    for (m, counts) in sampled {
        for (cc, n) in counts {
            series.entry(cc).or_default().insert(m, n);
        }
    }

    let region_total = |m: MonthStamp| -> f64 { series.values().filter_map(|s| s.get(m)).sum() };
    let t0 = region_total(MonthStamp::new(2016, 1));
    let t1 = region_total(end);
    let ve = series.get(&country::VE).cloned().unwrap_or_default();

    let at_end = |cc| -> f64 {
        series
            .get(&cc)
            .and_then(|s: &TimeSeries| s.get(end))
            .unwrap_or(0.0)
    };

    let findings = vec![
        Finding::numeric("region replicas 2016", 59.0, t0, 0.10),
        Finding::numeric("region replicas 2024", 138.0, t1, 0.07),
        Finding::numeric("region growth factor", 2.34, t1 / t0.max(1.0), 0.12),
        Finding::numeric(
            "Venezuela replicas 2016",
            2.0,
            ve.get(MonthStamp::new(2016, 1)).unwrap_or(0.0),
            0.01,
        ),
        Finding::numeric(
            "Venezuela replicas 2024",
            0.0,
            ve.get(end).unwrap_or(0.0),
            0.01,
        ),
        Finding::numeric("Brazil replicas: 2024", 41.0, at_end(country::BR), 0.05),
        Finding::numeric("Chile replicas: 2024", 20.0, at_end(country::CL), 0.05),
        Finding::numeric("Mexico replicas: 2024", 16.0, at_end(country::MX), 0.07),
        Finding::numeric("Argentina replicas: 2024", 15.0, at_end(country::AR), 0.07),
    ];

    let figure = Figure {
        id: "fig06".into(),
        caption: "Root DNS replicas per country, detected via CHAOS TXT".into(),
        panels: vec![
            Panel::new("countries", common::country_lines(&series)),
            Panel::new("VE", vec![Line::new("VE", ve)]),
            Panel::new(
                "LACNIC",
                vec![Line::new(
                    "total",
                    months.iter().map(|&m| (m, region_total(m))).collect(),
                )],
            ),
        ],
    };

    ExperimentResult {
        id: "fig06".into(),
        title: "Availability of root DNS infrastructure".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
