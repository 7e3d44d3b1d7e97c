//! Beyond-the-paper analyses: the study's stated future-work directions
//! and validation of the substrate itself, packaged as the same
//! artifact/finding structure as the 22 paper experiments.
//!
//! * [`ext_blackouts`] — outage detection over the 2019 blackout year
//!   (§9 defers shutdown analysis to future work);
//! * [`ext_inference`] — Gao-style relationship inference recovered from
//!   the world's own BGP paths, scored against ground truth (the
//!   provenance check: serial-1 files are themselves inferred);
//! * [`ext_network_split`] — Venezuela's per-network medians (the §7.1
//!   claim that fibre entrants, not CANTV, drive the 2022 recovery).

use crate::artifact::{Artifact, ExperimentResult, Finding, Table};
use crate::source::DataSource;
use lacnet_bgp::inference::{self, RelationshipInference};
use lacnet_crisis::bandwidth;
use lacnet_mlab::multi::{Group, Metric};
use lacnet_types::{country, Asn, Date, MonthStamp};

/// Run all extension analyses, each on its own worker thread (they are
/// independent pure functions of their [`DataSource`], like the paper
/// battery).
pub fn all(source: &DataSource) -> Vec<ExperimentResult> {
    lacnet_types::sweep::parallel_map(&crate::registry::extension_battery(), |run| run(source))
}

/// Outage detection over the 2019 blackout year.
pub fn ext_blackouts(src: &DataSource) -> ExperimentResult {
    use lacnet_atlas::outages::{detect_all, DetectorConfig};
    let series = src.reachability_2019();
    let detected = detect_all(series, DetectorConfig::default());
    let ve = detected.get(&country::VE).cloned().unwrap_or_default();

    let rows: Vec<Vec<String>> = ve
        .iter()
        .map(|e| {
            vec![
                e.start.to_string(),
                e.end.to_string(),
                e.duration_days().to_string(),
                format!("{:.0}%", e.depth() * 100.0),
            ]
        })
        .collect();
    let table = Table {
        id: "ext-blackouts".into(),
        caption: "Outage windows detected from Venezuelan probe reachability, 2019".into(),
        headers: vec!["start".into(), "end".into(), "days".into(), "depth".into()],
        rows,
    };

    let march = ve.first();
    let findings = vec![
        Finding::claim(
            "the March 7 nationwide blackout is detected",
            "≈week-long, >80% deep, starting 2019-03-07",
            march
                .map(|e| format!("{} → {}, depth {:.0}%", e.start, e.end, e.depth() * 100.0))
                .unwrap_or_else(|| "none".into()),
            march.is_some_and(|e| {
                e.start == Date::ymd(2019, 3, 7) && e.duration_days() >= 7 && e.depth() > 0.8
            }),
        ),
        Finding::numeric("distinct 2019 events detected", 3.0, ve.len() as f64, 0.01),
        Finding::claim(
            "no other country shows national outages",
            "Venezuela only",
            format!(
                "{:?}",
                detected.keys().map(|c| c.to_string()).collect::<Vec<_>>()
            ),
            detected.len() == 1,
        ),
    ];

    ExperimentResult {
        id: "ext-blackouts".into(),
        title: "2019 blackout detection (future work of §9)".into(),
        artifacts: vec![Artifact::Table(table)],
        findings,
    }
}

/// Relationship-inference accuracy against the world's ground truth.
pub fn ext_inference(src: &DataSource) -> ExperimentResult {
    let m = MonthStamp::new(2020, 6);
    let graph = src.topology.get(m).expect("snapshot exists");
    // Collector RIB: paths from propagating every Venezuelan origin plus
    // the transit cast (a realistic partial view, not the full mesh).
    // Route trees come through the backend's shared ConeCache, so origins
    // Fig. 9's transit matrix already expanded are free here.
    let cache = src.cone_cache();
    let mut paths = Vec::new();
    for op in src.operators.in_country(country::VE) {
        if graph.contains(op.asn) {
            paths.extend(cache.paths(m, graph, op.asn).all_paths());
        }
    }
    for asn in lacnet_crisis::topology::TIER1 {
        paths.extend(cache.paths(m, graph, Asn(*asn)).all_paths());
    }
    let mut inf = RelationshipInference::new(1.25);
    inf.observe_degrees(&paths);
    inf.observe_paths(&paths);
    let inferred = inf.infer();

    // Score only over the pairs the paths actually cover.
    let covered: std::collections::BTreeSet<(Asn, Asn)> = inferred
        .iter()
        .map(|e| {
            let c = e.canonical();
            (c.a, c.b)
        })
        .collect();
    let truth_edges: Vec<_> = graph
        .edges()
        .into_iter()
        .filter(|e| {
            let c = e.canonical();
            covered.contains(&(c.a, c.b))
        })
        .collect();
    let truth_graph = lacnet_bgp::AsGraph::from_edges(truth_edges.iter().copied());
    let acc = inference::accuracy(&truth_graph, &inferred);

    let table = Table {
        id: "ext-inference".into(),
        caption: "Relationship inference vs ground truth (2020-06 snapshot)".into(),
        headers: vec!["quantity".into(), "value".into()],
        rows: vec![
            vec!["paths in collector RIB".into(), paths.len().to_string()],
            vec!["pairs covered".into(), covered.len().to_string()],
            vec!["accuracy on covered pairs".into(), format!("{acc:.3}")],
        ],
    };

    // The documented weakness of the degree heuristic: CANTV is an
    // eyeball whose customer count exceeds its wholesale providers'
    // degrees, so edges at that boundary misclassify — the reason
    // serial-1 consumers treat inferred relationships with care.
    let cantv_edges_clean = [6762u32, 23520].iter().all(|&p| {
        inferred.iter().any(|e| {
            e.a == Asn(p)
                && e.b == Asn(8048)
                && e.rel == lacnet_bgp::AsRelationship::ProviderToCustomer
        })
    });
    let enterprise_edges_clean =
        src.operators
            .enterprises(country::VE)
            .iter()
            .take(10)
            .all(|ent| {
                inferred.iter().any(|e| {
                    e.a == Asn(8048)
                        && e.b == ent.asn
                        && e.rel == lacnet_bgp::AsRelationship::ProviderToCustomer
                })
            });
    let findings = vec![
        Finding::claim(
            "degree-heuristic inference recovers most covered edges",
            "accuracy ≥ 0.9",
            format!("{acc:.3} over {} pairs", covered.len()),
            acc >= 0.9,
        ),
        Finding::claim(
            "stub edges behind CANTV are oriented correctly",
            "AS8048 → every enterprise customer",
            "checked",
            enterprise_edges_clean,
        ),
        Finding::claim(
            "Gao's documented weakness appears at the eyeball/wholesale boundary",
            "at least one CANTV provider edge misclassified (degree is not altitude)",
            if cantv_edges_clean {
                "all clean (unexpected)".into()
            } else {
                "misclassification observed".to_string()
            },
            !cantv_edges_clean,
        ),
    ];

    ExperimentResult {
        id: "ext-inference".into(),
        title: "AS-relationship inference baseline".into(),
        artifacts: vec![Artifact::Table(table)],
        findings,
    }
}

/// Venezuela's per-network download medians in July 2023, reduced from
/// the sharded per-network archive build (same sweep/merge machinery as
/// the aggregate Fig. 11 stream, at 8× volume for estimator stability).
pub fn ext_network_split(src: &DataSource) -> ExperimentResult {
    let m = MonthStamp::new(2023, 7);
    let agg = bandwidth::build_multi_aggregate(
        &src.operators,
        src.config.seed,
        src.config.mlab_volume_scale.max(1.0) * 8.0,
        m,
        m,
    );

    let med = |asn: u32| {
        agg.median_series(Group::CountryAsn(country::VE, Asn(asn)), Metric::Download)
            .get(m)
            .unwrap_or(0.0)
    };
    let mut rows: Vec<(u32, String, f64)> = src
        .operators
        .eyeballs(country::VE)
        .iter()
        .map(|o| (o.asn.raw(), o.name.clone(), med(o.asn.raw())))
        .filter(|&(_, _, v)| v > 0.0)
        .collect();
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite medians"));

    let table = Table {
        id: "ext-network-split".into(),
        caption: "Median download per Venezuelan network, July 2023 (Mbps)".into(),
        headers: vec!["ASN".into(), "network".into(), "median".into()],
        rows: rows
            .iter()
            .map(|(asn, name, v)| vec![asn.to_string(), name.clone(), format!("{v:.2}")])
            .collect(),
    };

    let cantv = med(8048);
    let airtek = med(61461);
    let findings = vec![
        Finding::claim(
            "fibre entrants lead the national median",
            "Airtek/Fibex-class networks several times CANTV's median",
            format!("Airtek {airtek:.2} vs CANTV {cantv:.2} Mbps"),
            airtek > 2.0 * cantv && cantv > 0.0,
        ),
        Finding::claim(
            "CANTV sits below the country median",
            "its copper plant drags the incumbent under 2.93",
            format!("{cantv:.2} Mbps"),
            cantv < 2.93,
        ),
    ];

    ExperimentResult {
        id: "ext-network-split".into(),
        title: "Per-network bandwidth split (§7.1's recovery story)".into(),
        artifacts: vec![Artifact::Table(table)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_all_match() {
        let src = crate::experiments::testworld::source();
        for result in all(src) {
            assert!(result.all_match(), "{}: {:#?}", result.id, result.findings);
            assert!(!result.artifacts.is_empty());
        }
    }
}
