//! Fig. 9 — heatmap of the providers serving transit to CANTV for more
//! than 12 months since January 1998.

use crate::artifact::{Artifact, ExperimentResult, Finding, Heatmap};
use crate::source::DataSource;
use lacnet_bgp::analytics::ProviderPresence;
use lacnet_types::Asn;

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    // The presence matrix runs through the backend's shared ConeCache, so
    // the per-month transit-neighbour sets are computed once per process
    // however many times the battery (or Fig. 8) touches them.
    let pp = ProviderPresence::compute_cached(&src.topology, Asn(8048), 12, src.cone_cache());

    let heat = Heatmap {
        id: "fig09".into(),
        caption: "Changes over time in CANTV's upstream connectivity (providers ≥ 12 months)"
            .into(),
        rows: pp.providers.iter().map(|a| a.to_string()).collect(),
        cols: pp.months.iter().map(|m| m.to_string()).collect(),
        cells: pp
            .presence
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&b| if b { Some(1.0) } else { None })
                    .collect()
            })
            .collect(),
    };

    let year_left = |asn: u32| pp.last_seen(Asn(asn)).map(|m| m.year());
    let findings = vec![
        Finding::numeric(
            "providers in the heatmap",
            18.0,
            pp.providers.len() as f64,
            0.01,
        ),
        Finding::claim(
            "Verizon (AS701) departs",
            "2013",
            format!("{:?}", year_left(701)),
            year_left(701) == Some(2013),
        ),
        Finding::claim(
            "Sprint (AS1239) departs",
            "2013",
            format!("{:?}", year_left(1239)),
            year_left(1239) == Some(2013),
        ),
        Finding::claim(
            "AT&T (AS7018) departs",
            "2013",
            format!("{:?}", year_left(7018)),
            year_left(7018) == Some(2013),
        ),
        Finding::claim(
            "GTT (AS3257/AS4436) departs",
            "2017",
            format!("{:?}/{:?}", year_left(3257), year_left(4436)),
            year_left(3257) == Some(2017) && year_left(4436) == Some(2017),
        ),
        Finding::claim(
            "Level3 (AS3356/AS3549) departs",
            "2018",
            format!("{:?}/{:?}", year_left(3356), year_left(3549)),
            year_left(3356) == Some(2018) && year_left(3549) == Some(2018),
        ),
        Finding::claim(
            "Columbus (AS23520) sole remaining US provider",
            "serving at the end",
            format!("last seen {:?}", pp.last_seen(Asn(23520))),
            pp.last_seen(Asn(23520)) == pp.months.last().copied(),
        ),
        Finding::claim(
            "Orange (AS5511) returns after inactivity",
            "two service stints",
            format!(
                "first {:?}, last {:?}",
                pp.first_seen(Asn(5511)),
                pp.last_seen(Asn(5511))
            ),
            {
                let gap = pp
                    .first_seen(Asn(5511))
                    .zip(pp.last_seen(Asn(5511)))
                    .map(|(a, b)| a.months_until(b))
                    .unwrap_or(0);
                let served = pp.months_served(Asn(5511)) as i32;
                gap > served + 24 // long dormant period in between
            },
        ),
        {
            // Cone cross-check via the shared ConeCache: providers sell
            // transit *down* to CANTV, so none of the heatmap's providers
            // may appear inside CANTV's own customer cone at the end of
            // the window.
            let last = src.topology.last_month().expect("non-empty archive");
            let cone = src.customer_cone_at(last, Asn(8048));
            let inside: Vec<&Asn> = pp.providers.iter().filter(|p| cone.contains(p)).collect();
            Finding::claim(
                "providers sit outside CANTV's customer cone",
                "no heatmap provider in the final cone",
                format!(
                    "{} of {} inside (cone size {})",
                    inside.len(),
                    pp.providers.len(),
                    cone.len()
                ),
                inside.is_empty(),
            )
        },
    ];

    ExperimentResult {
        id: "fig09".into(),
        title: "CANTV transit-provider heatmap".into(),
        artifacts: vec![Artifact::Heatmap(heat)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig09_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Heatmap(h) = &r.artifacts[0] else {
            panic!()
        };
        assert_eq!(h.rows.len(), 18);
        assert_eq!(h.cells.len(), 18);
        assert!(h.cols.len() > 300, "monthly columns since 1998");
    }
}
