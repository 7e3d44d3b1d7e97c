//! Fig. 20 (Appendix J) — Venezuelan probes coloured by their minimum
//! RTT to Google Public DNS.

use crate::artifact::{Artifact, ExperimentResult, Finding, Table};
use crate::source::DataSource;
use lacnet_atlas::gpdns::{GpdnsCampaign, LatencyModel, RttBucket};
use lacnet_types::country;

/// Run the experiment on the latest monthly snapshot.
pub fn run(src: &DataSource) -> ExperimentResult {
    let campaign = GpdnsCampaign::new(
        &src.dns.probes,
        &src.dns.gpdns_sites,
        LatencyModel::default(),
        src.config.seed,
    );
    let month = src.config.end;
    let mut ve: Vec<_> = campaign
        .run_month(month)
        .into_iter()
        .filter(|o| o.probe_country == country::VE)
        .collect();
    ve.sort_by(|a, b| a.rtt_ms.partial_cmp(&b.rtt_ms).expect("finite RTTs"));

    let bucket_name = |b: RttBucket| match b {
        RttBucket::Under10 => "<10ms (cyan)",
        RttBucket::From10To20 => "10-20ms (green)",
        RttBucket::From20To40 => "20-40ms (yellow)",
        RttBucket::Over40 => ">40ms (red)",
    };

    let table = Table {
        id: "fig20".into(),
        caption: format!("Venezuelan probes and their min-RTT to GPDNS, {month}"),
        headers: vec![
            "probe".into(),
            "lat".into(),
            "lon".into(),
            "rtt_ms".into(),
            "bucket".into(),
        ],
        rows: ve
            .iter()
            .map(|o| {
                vec![
                    o.probe.to_string(),
                    format!("{:.2}", o.location.lat_deg()),
                    format!("{:.2}", o.location.lon_deg()),
                    format!("{:.1}", o.rtt_ms),
                    bucket_name(RttBucket::of(o.rtt_ms)).into(),
                ]
            })
            .collect(),
    };

    // The paper's geographic gradient: fast probes sit in the west
    // (Colombian border / Maracaibo), slow ones in the east (Caracas).
    let fast: Vec<_> = ve.iter().filter(|o| o.rtt_ms < 20.0).collect();
    let slow: Vec<_> = ve.iter().filter(|o| o.rtt_ms > 30.0).collect();
    let fast_mean_lon =
        fast.iter().map(|o| o.location.lon_deg()).sum::<f64>() / fast.len().max(1) as f64;
    let slow_mean_lon =
        slow.iter().map(|o| o.location.lon_deg()).sum::<f64>() / slow.len().max(1) as f64;

    let findings = vec![
        Finding::claim(
            "fastest probes are at the Colombian border",
            "< 20 ms only in the west (lon < −70°)",
            format!("{} fast probes, mean lon {fast_mean_lon:.1}", fast.len()),
            !fast.is_empty() && fast.iter().all(|o| o.location.lon_deg() < -70.0),
        ),
        Finding::claim(
            "latency increases with distance from the border",
            "western mean lon < eastern mean lon",
            format!("fast {fast_mean_lon:.1}° vs slow {slow_mean_lon:.1}°"),
            fast_mean_lon < slow_mean_lon,
        ),
        Finding::claim(
            "no GPDNS server inside Venezuela",
            "even the fastest probe pays a border-crossing RTT",
            format!(
                "min RTT {:.1} ms",
                ve.first().map(|o| o.rtt_ms).unwrap_or(0.0)
            ),
            ve.first().map(|o| o.rtt_ms).unwrap_or(0.0) > 5.0,
        ),
        Finding::claim(
            "fast probes avoid CANTV as upstream",
            "none of the <20 ms probes are CANTV-hosted",
            "checked against the probe registry",
            fast.iter().all(|o| {
                src.dns
                    .probes
                    .all()
                    .iter()
                    .find(|p| p.id == o.probe)
                    .map(|p| p.asn != lacnet_types::Asn(8048))
                    .unwrap_or(false)
            }),
        ),
    ];

    ExperimentResult {
        id: "fig20".into(),
        title: "Probe map: RTT to GPDNS across Venezuela".into(),
        artifacts: vec![Artifact::Table(table)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig20_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Table(t) = &r.artifacts[0] else {
            panic!()
        };
        assert_eq!(t.rows.len(), 30, "all 30 VE probes mapped");
    }
}
