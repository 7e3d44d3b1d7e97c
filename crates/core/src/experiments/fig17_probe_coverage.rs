//! Fig. 17 (Appendix F) — RIPE Atlas probes per country over time.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_crisis::config::windows;
use lacnet_types::{country, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let start = windows::chaos_start();
    let end = src.config.end;
    let probes = &src.dns.probes;

    let mut series: BTreeMap<_, TimeSeries> = BTreeMap::new();
    for cc in country::lacnic_codes() {
        let s = probes.count_series(cc, start, end);
        if s.max_value().unwrap_or(0.0) > 0.0 {
            series.insert(cc, s);
        }
    }
    let total: TimeSeries = start
        .through(end)
        .map(|m| (m, probes.active_in(m).len() as f64))
        .collect();

    let ve = series[&country::VE].clone();
    let counts = probes.counts_by_country(MonthStamp::new(2023, 6));
    let mut ranked: Vec<(usize, _)> = counts.iter().map(|(&cc, &n)| (n, cc)).collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.0));
    let ve_rank = ranked
        .iter()
        .position(|&(_, cc)| cc == country::VE)
        .map(|i| i + 1)
        .unwrap_or(0);

    let findings = vec![
        Finding::numeric(
            "VE probes in 2016",
            10.0,
            ve.first().map(|(_, v)| v).unwrap_or(0.0),
            0.05,
        ),
        Finding::numeric(
            "VE probes in 2024",
            30.0,
            ve.last().map(|(_, v)| v).unwrap_or(0.0),
            0.05,
        ),
        Finding::numeric(
            "VE probe-count rank in the region",
            6.0,
            ve_rank as f64,
            0.2,
        ),
        Finding::claim(
            "coverage grew from 10 to 30 in the last two years of the window",
            "late growth",
            format!(
                "{} at 2021-06 → {} at the end",
                ve.get(MonthStamp::new(2021, 6)).unwrap_or(0.0),
                ve.last().map(|(_, v)| v).unwrap_or(0.0)
            ),
            ve.last().map(|(_, v)| v).unwrap_or(0.0)
                > ve.get(MonthStamp::new(2021, 6)).unwrap_or(0.0),
        ),
        Finding::claim(
            "CANTV hosts only 8 probes",
            "8",
            format!(
                "{}",
                probes
                    .all()
                    .iter()
                    .filter(|p| p.asn == lacnet_types::Asn(8048))
                    .count()
            ),
            probes
                .all()
                .iter()
                .filter(|p| p.asn == lacnet_types::Asn(8048))
                .count()
                == 8,
        ),
    ];

    let figure = Figure {
        id: "fig17".into(),
        caption: "Number of probes per country in the CHAOS TXT measurements".into(),
        panels: vec![
            Panel::new("countries", common::country_lines(&series)),
            Panel::new("VE", vec![Line::new("VE", ve)]),
            Panel::new("LACNIC", vec![Line::new("total", total)]),
        ],
    };

    ExperimentResult {
        id: "fig17".into(),
        title: "RIPE Atlas footprint in Latin America".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
