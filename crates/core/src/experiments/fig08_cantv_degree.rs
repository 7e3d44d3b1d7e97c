//! Fig. 8 — CANTV's upstream and downstream connectivity over time.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::source::DataSource;
use lacnet_bgp::analytics;
use lacnet_types::{Asn, MonthStamp};

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let cantv = Asn(8048);
    let up = analytics::upstream_series(&src.topology, cantv);
    let down = analytics::downstream_series(&src.topology, cantv);
    // AS-rank's transit-size view of the same exodus: CANTV's customer
    // cone, served through the world's shared ConeCache.
    let cone = src.cone_size_series(cantv);

    let peak = up.max_value().unwrap_or(0.0);
    let trough_2020 = up.get(MonthStamp::new(2020, 6)).unwrap_or(0.0);
    let final_up = up.last().map(|(_, v)| v).unwrap_or(0.0);
    let down_growth = down.last().map(|(_, v)| v).unwrap_or(0.0)
        - down.get(MonthStamp::new(2007, 1)).unwrap_or(0.0);
    let peak_cone = cone.max_value().unwrap_or(0.0);
    let peak_down = down.max_value().unwrap_or(0.0);
    let final_cone = cone.last().map(|(_, v)| v).unwrap_or(0.0);
    let final_down = down.last().map(|(_, v)| v).unwrap_or(0.0);

    let findings = vec![
        Finding::numeric("peak upstream providers (2013)", 11.0, peak, 0.1),
        Finding::numeric("upstream providers in 2020", 3.0, trough_2020, 0.01),
        Finding::claim(
            "recent rebound in upstreams",
            "> 3 at the end of the window",
            format!("{final_up}"),
            final_up > 3.0,
        ),
        Finding::claim(
            "domestic transit expansion since 2007 nationalisation",
            "sustained downstream growth",
            format!("+{down_growth} customers since 2007"),
            down_growth >= 10.0,
        ),
        Finding::claim(
            "customer cone spans the domestic customer base",
            "cone ≥ direct downstreams + self, at peak and at the end",
            format!("peak cone {peak_cone} vs peak downstreams {peak_down}; final cone {final_cone} vs final downstreams {final_down}"),
            peak_cone >= peak_down + 1.0 && final_cone >= final_down + 1.0,
        ),
    ];

    let figure = Figure {
        id: "fig08".into(),
        caption: "Variation in the upstream and downstream connectivity of CANTV-AS8048".into(),
        panels: vec![
            Panel::new("# upstreams", vec![Line::new("8048", up)]),
            Panel::new("# downstreams", vec![Line::new("8048", down)]),
            Panel::new("customer-cone size", vec![Line::new("8048", cone)]),
        ],
    };

    ExperimentResult {
        id: "fig08".into(),
        title: "CANTV's connectivity".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig08_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
    }
}
