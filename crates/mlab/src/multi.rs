//! Multi-metric, multi-dimension aggregation.
//!
//! [`crate::aggregate::MonthlyAggregator`] covers the paper's headline
//! reduction (download medians per country-month). The NDT archive also
//! carries upload, latency and loss, and §7.2's network-level analysis
//! needs per-ASN grouping (which Venezuelan networks avoid CANTV). This
//! aggregator keeps one P² estimator per `(group, month, metric)`.

use crate::ndt::NdtTest;
use lacnet_types::stats::P2Quantile;
use lacnet_types::{Asn, CountryCode, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// The NDT columns the aggregator can reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Downstream throughput, Mbit/s.
    Download,
    /// Upstream throughput, Mbit/s.
    Upload,
    /// Minimum RTT, ms.
    MinRtt,
    /// Loss rate in `[0, 1]`.
    Loss,
}

impl Metric {
    /// All four metrics.
    pub const ALL: [Metric; 4] = [
        Metric::Download,
        Metric::Upload,
        Metric::MinRtt,
        Metric::Loss,
    ];

    /// Extract the metric from a test.
    pub fn of(self, t: &NdtTest) -> f64 {
        match self {
            Metric::Download => t.download_mbps,
            Metric::Upload => t.upload_mbps,
            Metric::MinRtt => t.min_rtt_ms,
            Metric::Loss => t.loss_rate,
        }
    }
}

/// Grouping dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Group {
    /// One group per client country.
    Country(CountryCode),
    /// One group per `(country, client AS)`.
    CountryAsn(CountryCode, Asn),
}

/// Streaming multi-metric aggregator.
#[derive(Debug, Default)]
pub struct MultiAggregator {
    by_asn: bool,
    groups: BTreeMap<(Group, MonthStamp, Metric), P2Quantile>,
    counts: BTreeMap<(Group, MonthStamp), usize>,
}

impl MultiAggregator {
    /// Country-level aggregation.
    pub fn by_country() -> Self {
        MultiAggregator {
            by_asn: false,
            ..Default::default()
        }
    }

    /// `(country, ASN)`-level aggregation.
    pub fn by_asn() -> Self {
        MultiAggregator {
            by_asn: true,
            ..Default::default()
        }
    }

    fn group_of(&self, t: &NdtTest) -> Group {
        if self.by_asn {
            Group::CountryAsn(t.country, t.asn)
        } else {
            Group::Country(t.country)
        }
    }

    /// Feed one test.
    pub fn observe(&mut self, t: &NdtTest) {
        let g = self.group_of(t);
        let m = t.date.month_stamp();
        for metric in Metric::ALL {
            self.groups
                .entry((g, m, metric))
                .or_insert_with(P2Quantile::median)
                .observe(metric.of(t));
        }
        *self.counts.entry((g, m)).or_insert(0) += 1;
    }

    /// Feed many tests.
    pub fn observe_all<'a>(&mut self, tests: impl IntoIterator<Item = &'a NdtTest>) {
        for t in tests {
            self.observe(t);
        }
    }

    /// Median series for `(group, metric)`.
    pub fn median_series(&self, group: Group, metric: Metric) -> TimeSeries {
        self.groups
            .iter()
            .filter(|((g, _, k), _)| *g == group && *k == metric)
            .filter_map(|((_, m, _), p2)| p2.value().map(|v| (*m, v)))
            .collect()
    }

    /// Test count for `(group, month)`.
    pub fn count(&self, group: Group, month: MonthStamp) -> usize {
        self.counts.get(&(group, month)).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::{country, Date};

    fn test(cc: CountryCode, asn: u32, down: f64, rtt: f64) -> NdtTest {
        NdtTest {
            date: Date::ymd(2020, 6, 15),
            country: cc,
            asn: Asn(asn),
            download_mbps: down,
            upload_mbps: down / 4.0,
            min_rtt_ms: rtt,
            loss_rate: 0.01,
        }
    }

    #[test]
    fn country_grouping_covers_all_metrics() {
        let mut agg = MultiAggregator::by_country();
        agg.observe_all(&[
            test(country::VE, 8048, 0.8, 55.0),
            test(country::VE, 8048, 1.2, 45.0),
            test(country::VE, 21826, 1.0, 50.0),
        ]);
        let g = Group::Country(country::VE);
        let m = MonthStamp::new(2020, 6);
        assert_eq!(agg.count(g, m), 3);
        assert_eq!(agg.median_series(g, Metric::Download).get(m), Some(1.0));
        assert_eq!(agg.median_series(g, Metric::MinRtt).get(m), Some(50.0));
        assert_eq!(agg.median_series(g, Metric::Upload).get(m), Some(0.25));
        assert_eq!(agg.median_series(g, Metric::Loss).get(m), Some(0.01));
    }

    #[test]
    fn asn_grouping_separates_networks() {
        let mut agg = MultiAggregator::by_asn();
        // CANTV slow, Telemic faster — §7's intra-country contrast.
        agg.observe_all(&[
            test(country::VE, 8048, 0.6, 60.0),
            test(country::VE, 8048, 0.8, 58.0),
            test(country::VE, 8048, 0.7, 62.0),
            test(country::VE, 21826, 2.5, 35.0),
            test(country::VE, 21826, 3.0, 30.0),
            test(country::VE, 21826, 2.8, 33.0),
        ]);
        let m = MonthStamp::new(2020, 6);
        let cantv = Group::CountryAsn(country::VE, Asn(8048));
        let telemic = Group::CountryAsn(country::VE, Asn(21826));
        let d_cantv = agg.median_series(cantv, Metric::Download).get(m).unwrap();
        let d_telemic = agg.median_series(telemic, Metric::Download).get(m).unwrap();
        assert!(d_telemic > 3.0 * d_cantv, "{d_telemic} vs {d_cantv}");
        let r_cantv = agg.median_series(cantv, Metric::MinRtt).get(m).unwrap();
        let r_telemic = agg.median_series(telemic, Metric::MinRtt).get(m).unwrap();
        assert!(r_cantv > r_telemic);
    }

    #[test]
    fn empty_aggregator() {
        let agg = MultiAggregator::by_country();
        assert!(agg
            .median_series(Group::Country(country::VE), Metric::Download)
            .is_empty());
        assert_eq!(
            agg.count(Group::Country(country::VE), MonthStamp::new(2020, 6)),
            0
        );
    }
}
