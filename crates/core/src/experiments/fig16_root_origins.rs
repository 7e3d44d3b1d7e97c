//! Fig. 16 (Appendix E) — the countries whose root replicas serve
//! Venezuelan probes, over time.

use crate::artifact::{Artifact, ExperimentResult, Finding, Heatmap};
use crate::source::DataSource;
use lacnet_atlas::campaign;
use lacnet_crisis::config::windows;
use lacnet_types::{country, sweep, CountryCode, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Run the experiment (quarterly sampling).
pub fn run(src: &DataSource) -> ExperimentResult {
    let start = windows::chaos_start();
    let end = src.config.end;
    let months: Vec<MonthStamp> = start
        .through(end)
        .filter(|m| matches!(m.month(), 1 | 4 | 7 | 10))
        .collect();

    // One origin sample per quarter, swept across worker threads and
    // merged in month order.
    let sampled = sweep::months_sweep(&months, |m| {
        campaign::origin_heatmap(&src.dns.probes, &src.dns.roots, country::VE, m, m)
    });
    let mut heat_data: BTreeMap<CountryCode, TimeSeries> = BTreeMap::new();
    for (m, partial) in sampled {
        for (cc, s) in partial {
            if let Some(v) = s.get(m) {
                heat_data.entry(cc).or_default().insert(m, v);
            }
        }
    }

    let rows: Vec<CountryCode> = heat_data.keys().copied().collect();
    let cells: Vec<Vec<Option<f64>>> = rows
        .iter()
        .map(|cc| months.iter().map(|&m| heat_data[cc].get(m)).collect())
        .collect();

    let heat = Heatmap {
        id: "fig16".into(),
        caption: "Root replicas per hosting country reached from probes in Venezuela".into(),
        rows: rows.iter().map(|c| c.to_string()).collect(),
        cols: months.iter().map(|m| m.to_string()).collect(),
        cells,
    };

    let last = *months.last().expect("window non-empty");
    let at_end = |cc: &str| -> f64 {
        heat_data
            .get(&CountryCode::of(cc))
            .and_then(|s| s.get(last))
            .unwrap_or(0.0)
    };
    let findings = vec![
        Finding::claim(
            "domestic replicas visible early",
            "VE row ≥ 2 in 2017",
            format!(
                "{:?}",
                heat_data
                    .get(&country::VE)
                    .and_then(|s| s.get(MonthStamp::new(2017, 1)))
            ),
            heat_data
                .get(&country::VE)
                .and_then(|s| s.get(MonthStamp::new(2017, 1)))
                .unwrap_or(0.0)
                >= 2.0,
        ),
        Finding::claim(
            "VE disappears as an origin",
            "no VE replicas at the end",
            format!("{}", at_end("VE")),
            at_end("VE") == 0.0,
        ),
        Finding::claim(
            "the US dominates as an origin",
            "US is the top row at the end",
            format!("US {}", at_end("US")),
            rows.iter().all(|cc| at_end(cc.as_str()) <= at_end("US")),
        ),
        Finding::claim(
            "European operators visible (GB, DE, FR, NL)",
            "all four present",
            format!(
                "GB {} DE {} FR {} NL {}",
                at_end("GB"),
                at_end("DE"),
                at_end("FR"),
                at_end("NL")
            ),
            ["GB", "DE", "FR", "NL"].iter().all(|cc| at_end(cc) >= 1.0),
        ),
        Finding::claim(
            "Colombia emerges as a nearby fallback",
            "CO present after VE's loss",
            format!("CO {}", at_end("CO")),
            at_end("CO") >= 1.0,
        ),
    ];

    ExperimentResult {
        id: "fig16".into(),
        title: "Origins of root DNS service for Venezuela".into(),
        artifacts: vec![Artifact::Heatmap(heat)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
