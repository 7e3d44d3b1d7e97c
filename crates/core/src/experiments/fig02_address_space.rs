//! Fig. 2 — CANTV vs Telefónica de Venezuela: share and absolute size of
//! the announced address space, monthly since 2008.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::source::DataSource;
use lacnet_crisis::config::windows;
use lacnet_types::{sweep, Asn, TimeSeries};

/// Run the experiment. Joins monthly pfx2as snapshots (announced) against
/// the delegation ledger (allocated) the way §4 describes.
pub fn run(src: &DataSource) -> ExperimentResult {
    let start = windows::pfx2as_start();
    let end = src.config.end;
    let cantv = Asn(8048);
    let telefonica = Asn(6306);

    // The share denominator is Venezuela's announced space; in the
    // generated world all VE announcements come from VE-registered
    // holders, so the ledger's VE membership identifies them. The ledger
    // scan does not depend on the month, so it runs once.
    let ve_holders: Vec<Asn> = {
        let mut holders: Vec<Asn> = src
            .ledger
            .entries()
            .iter()
            .filter(|a| a.country == lacnet_types::country::VE)
            .map(|a| a.holder)
            .collect();
        holders.sort_unstable();
        holders.dedup();
        holders
    };

    // One walk per month's table answers every holder and both operators.
    let holders = ve_holders.len();
    let asked: Vec<Asn> = ve_holders.into_iter().chain([cantv, telefonica]).collect();
    let monthly = sweep::month_range(start, end, |m| {
        let space = src.pfx2as_at(m).address_space_by_origin(&asked);
        let (ve, named) = space.split_at(holders);
        (ve.iter().sum::<u64>(), named[0], named[1])
    });

    let mut cantv_share = TimeSeries::new();
    let mut telefonica_share = TimeSeries::new();
    let mut cantv_abs = TimeSeries::new();
    let mut telefonica_abs = TimeSeries::new();
    for (m, (ve_total, c, t)) in monthly {
        if ve_total > 0 {
            cantv_share.insert(m, c as f64 / ve_total as f64);
            telefonica_share.insert(m, t as f64 / ve_total as f64);
        }
        cantv_abs.insert(m, c as f64);
        telefonica_abs.insert(m, t as f64);
    }

    // Findings.
    let cantv_mean_share = cantv_share.mean().unwrap_or(0.0);
    let cantv_peak_share = cantv_share.max_value().unwrap_or(0.0);
    // Gap at Telefónica's closest approach (pre-withdrawal window).
    let gap = cantv_abs
        .window(
            start,
            lacnet_crisis::addressing::withdrawal_start().plus(-1),
        )
        .zip_with(
            &telefonica_abs,
            |c, t| if c > 0.0 { (c - t) / c } else { 1.0 },
        )
        .min_value()
        .unwrap_or(1.0);
    // Telefónica's announced-space contraction during the withdrawal.
    let before = telefonica_abs
        .get(lacnet_crisis::addressing::withdrawal_start().plus(-6))
        .unwrap_or(0.0);
    let during = telefonica_abs
        .get(lacnet_crisis::addressing::withdrawal_start().plus(12))
        .unwrap_or(0.0);
    let after = telefonica_abs
        .get(lacnet_crisis::addressing::withdrawal_end().plus(2))
        .unwrap_or(0.0);

    let findings = vec![
        Finding::numeric(
            "CANTV mean share of VE announced space",
            0.43,
            cantv_mean_share,
            0.35,
        ),
        Finding::numeric("CANTV peak share", 0.69, cantv_peak_share, 0.15),
        Finding::numeric("minimum CANTV−Telefónica gap (fraction)", 0.11, gap, 0.8),
        Finding::claim(
            "Telefónica announced-space contraction 2016→ and 2023 return",
            "shrinks then recovers",
            format!("{before:.0} → {during:.0} → {after:.0}"),
            during < before && after > during,
        ),
    ];

    let figure = Figure {
        id: "fig02".into(),
        caption: "Evolution of announced address space: CANTV-AS8048 vs Telefónica-AS6306".into(),
        panels: vec![
            Panel::new(
                "% addr. space",
                vec![
                    Line::new("CANTV-AS8048", cantv_share),
                    Line::new("Telefonica-AS6306", telefonica_share),
                ],
            ),
            Panel::new(
                "# addr. space",
                vec![
                    Line::new("CANTV-AS8048", cantv_abs),
                    Line::new("Telefonica-AS6306", telefonica_abs),
                ],
            ),
        ],
    };

    ExperimentResult {
        id: "fig02".into(),
        title: "CANTV vs Telefónica address space".into(),
        artifacts: vec![Artifact::Figure(figure)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Figure(fig) = &r.artifacts[0] else {
            panic!("figure expected")
        };
        assert_eq!(fig.panels.len(), 2);
        // Share series covers the window monthly.
        assert!(fig.panels[0].lines[0].series.len() > 150);
    }
}
