//! Fig. 19 (Appendix H) — adoption of third-party DNS/CA/CDN providers
//! and HTTPS among each country's unique top sites.

use crate::artifact::{Artifact, ExperimentResult, Finding, Table};
use crate::source::DataSource;
use lacnet_types::country;
use lacnet_webmeas::scrape::unique_sites;
use lacnet_webmeas::thirdparty::{AdoptionReport, ServiceKind};

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let unique = unique_sites(&src.top_sites);
    let report = AdoptionReport::compute(&unique);

    let mut artifacts = Vec::new();
    for kind in ServiceKind::ALL {
        let ranking = report.ranking(kind);
        let mean = report.regional_mean(kind).unwrap_or(0.0);
        artifacts.push(Artifact::Table(Table {
            id: format!("fig19-{}", kind.label().to_ascii_lowercase()),
            caption: format!("{} adoption (regional mean {mean:.2})", kind.label()),
            headers: vec!["country".into(), "fraction".into()],
            rows: ranking
                .iter()
                .map(|(cc, f)| vec![cc.to_string(), format!("{f:.3}")])
                .collect(),
        }));
    }

    let ve = |k| report.get(country::VE, k).unwrap_or(0.0);
    let mean = |k| report.regional_mean(k).unwrap_or(0.0);
    let findings = vec![
        Finding::numeric("VE third-party DNS", 0.29, ve(ServiceKind::Dns), 0.12),
        Finding::numeric("VE HTTPS", 0.58, ve(ServiceKind::Https), 0.08),
        Finding::numeric("VE third-party CA", 0.22, ve(ServiceKind::Ca), 0.15),
        Finding::numeric("VE third-party CDN", 0.37, ve(ServiceKind::Cdn), 0.12),
        Finding::numeric("regional mean DNS", 0.32, mean(ServiceKind::Dns), 0.10),
        Finding::numeric("regional mean HTTPS", 0.60, mean(ServiceKind::Https), 0.08),
        Finding::numeric("regional mean CA", 0.26, mean(ServiceKind::Ca), 0.12),
        Finding::numeric("regional mean CDN", 0.46, mean(ServiceKind::Cdn), 0.12),
        Finding::claim(
            "VE below the regional average in DNS, CA and CDN; only ahead of Bolivia-like laggards",
            "below mean in 3 of 4 dimensions",
            "checked",
            ve(ServiceKind::Dns) < mean(ServiceKind::Dns)
                && ve(ServiceKind::Ca) < mean(ServiceKind::Ca)
                && ve(ServiceKind::Cdn) < mean(ServiceKind::Cdn),
        ),
    ];

    ExperimentResult {
        id: "fig19".into(),
        title: "Third-party provider adoption".into(),
        artifacts,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig19_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        assert_eq!(r.artifacts.len(), 4);
    }
}
