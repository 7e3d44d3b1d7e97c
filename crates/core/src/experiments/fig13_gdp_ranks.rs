//! Fig. 13 (Appendix B) — GDP per capita across the region with
//! Venezuela's rank annotated every five years.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Panel, Table};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_types::{country, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let e = &src.economy;
    let mut series: BTreeMap<_, TimeSeries> = BTreeMap::new();
    for &cc in e.imf_countries() {
        if let Some(s) = e.gdp_per_capita(cc) {
            series.insert(cc, s.clone());
        }
    }

    // Rank annotations every five years.
    let mut rank_rows = Vec::new();
    let mut ranks = BTreeMap::new();
    for year in (1980..=2020).step_by(5) {
        let m = MonthStamp::new(year, 1);
        if let Some(r) = e.gdp_rank(country::VE, m) {
            ranks.insert(year, r);
            rank_rows.push(vec![year.to_string(), r.to_string()]);
        }
    }

    let n = e.imf_countries().len();
    let findings =
        vec![
        Finding::numeric("VE rank 1980", 3.0, ranks.get(&1980).copied().unwrap_or(99) as f64, 0.01),
        Finding::claim(
            "VE second wealthiest by 1985",
            "rank 2",
            format!("rank {}", ranks.get(&1985).copied().unwrap_or(99)),
            ranks.get(&1985).copied().unwrap_or(99) <= 3,
        ),
        Finding::claim(
            "mid-pack through the 1990s–2000s",
            "ranks 6–9",
            format!("2005 rank {}", ranks.get(&2005).copied().unwrap_or(99)),
            (3..=10).contains(&ranks.get(&2005).copied().unwrap_or(99)),
        ),
        Finding::claim(
            "collapse after 2013 (18th by 2015, 23rd by 2020 in the paper's 29-country universe)",
            "bottom quartile by 2020",
            format!("2020 rank {} of {n}", ranks.get(&2020).copied().unwrap_or(0)),
            ranks.get(&2020).copied().unwrap_or(0) * 4 >= n * 3,
        ),
    ];

    let figure = Figure {
        id: "fig13".into(),
        caption: "GDP per capita in the LACNIC region since 1980".into(),
        panels: vec![Panel::new("countries", common::country_lines(&series))],
    };
    let table = Table {
        id: "fig13-ranks".into(),
        caption: "Venezuela's GDP-per-capita rank every five years".into(),
        headers: vec!["year".into(), "rank".into()],
        rows: rank_rows,
    };

    ExperimentResult {
        id: "fig13".into(),
        title: "GDP-per-capita ranks".into(),
        artifacts: vec![Artifact::Figure(figure), Artifact::Table(table)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        assert_eq!(r.artifacts.len(), 2);
    }
}
