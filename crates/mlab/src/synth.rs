//! Crowdsourced-test generation.
//!
//! The generator turns a target median download speed into a stream of
//! individual NDT tests: speeds are log-normal around the target median
//! (speed-test distributions are heavy-tailed), test counts per month are
//! Poisson (crowdsourced participation varies), and dates are uniform
//! within the month. `lacnet-crisis` supplies the per-country median
//! trajectory; this module turns trajectories into rows.

use crate::ndt::NdtTest;
use lacnet_types::rng::Rng;
use lacnet_types::{Asn, CountryCode, MonthStamp};

/// Samples NDT tests for one country-month.
#[derive(Debug, Clone)]
pub struct SpeedSampler {
    /// Sigma of the log-normal speed distribution (underlying normal).
    pub sigma: f64,
    /// Download/upload asymmetry factor (upload = download / factor).
    pub asymmetry: f64,
    /// Baseline minimum RTT for generated tests, ms.
    pub base_rtt_ms: f64,
}

impl Default for SpeedSampler {
    fn default() -> Self {
        SpeedSampler {
            sigma: 0.9,
            asymmetry: 3.5,
            base_rtt_ms: 30.0,
        }
    }
}

impl SpeedSampler {
    /// Generate `n ~ Poisson(expected_tests)` tests for one country-month
    /// whose population median download is `median_mbps`.
    pub fn generate_month(
        &self,
        country: CountryCode,
        asn: Asn,
        month: MonthStamp,
        median_mbps: f64,
        expected_tests: f64,
        rng: &mut Rng,
    ) -> Vec<NdtTest> {
        assert!(median_mbps > 0.0, "median must be positive");
        let n = rng.poisson(expected_tests);
        let mu = median_mbps.ln();
        let days = u64::from(month.last_day().day());
        (0..n)
            .map(|_| {
                let down = rng.log_normal(mu, self.sigma);
                let day = rng.below(days) as u8 + 1;
                // Slower links tend to show higher latency and loss.
                let rtt = self.base_rtt_ms * (1.0 + 1.0 / (1.0 + down)) * (0.8 + 0.4 * rng.f64());
                let loss = (0.002 + 0.02 / (1.0 + down)) * rng.f64();
                NdtTest {
                    date: month.first_day().plus_days(day as i64 - 1),
                    country,
                    asn,
                    download_mbps: down,
                    upload_mbps: down / self.asymmetry,
                    min_rtt_ms: rtt,
                    loss_rate: loss.min(1.0),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{Mode, MonthlyAggregator};
    use lacnet_types::country;
    use lacnet_types::stats;

    #[test]
    fn generated_median_tracks_target() {
        let sampler = SpeedSampler::default();
        let mut rng = Rng::seeded(5);
        let tests = sampler.generate_month(
            country::VE,
            Asn(8048),
            MonthStamp::new(2019, 7),
            0.8,
            20_000.0,
            &mut rng,
        );
        assert!(
            (19_000..21_000).contains(&tests.len()),
            "poisson count {}",
            tests.len()
        );
        let mut speeds: Vec<f64> = tests.iter().map(|t| t.download_mbps).collect();
        let med = stats::median(&mut speeds).unwrap();
        assert!((med - 0.8).abs() / 0.8 < 0.05, "median {med}");
    }

    #[test]
    fn all_rows_validate_and_fall_in_month() {
        let sampler = SpeedSampler::default();
        let mut rng = Rng::seeded(9);
        let month = MonthStamp::new(2024, 2);
        let tests = sampler.generate_month(country::BR, Asn(26599), month, 30.0, 500.0, &mut rng);
        for t in &tests {
            t.validate().unwrap();
            assert_eq!(t.date.month_stamp(), month);
            assert!(t.upload_mbps < t.download_mbps);
        }
    }

    #[test]
    fn slower_links_have_worse_rtt_on_average() {
        let sampler = SpeedSampler::default();
        let mut rng = Rng::seeded(11);
        let slow = sampler.generate_month(
            country::VE,
            Asn(8048),
            MonthStamp::new(2019, 7),
            0.6,
            3000.0,
            &mut rng,
        );
        let fast = sampler.generate_month(
            country::CL,
            Asn(27651),
            MonthStamp::new(2019, 7),
            25.0,
            3000.0,
            &mut rng,
        );
        let mean = |v: &[NdtTest]| v.iter().map(|t| t.min_rtt_ms).sum::<f64>() / v.len() as f64;
        assert!(mean(&slow) > mean(&fast));
    }

    #[test]
    fn pipeline_roundtrip_rows_to_median_series() {
        // Generate → encode → decode → aggregate: the full path the
        // analysis takes over the archive.
        let sampler = SpeedSampler::default();
        let mut rng = Rng::seeded(13);
        let tests = sampler.generate_month(
            country::VE,
            Asn(8048),
            MonthStamp::new(2019, 7),
            0.8,
            2000.0,
            &mut rng,
        );
        let bytes = crate::columnar::encode_v2(&crate::columnar::ColumnBatch::from_rows(&tests));
        let decoded: Vec<NdtTest> = crate::columnar::decode(&bytes).unwrap().iter().collect();
        assert_eq!(
            decoded.iter().map(crate::ndt::row_bits).collect::<Vec<_>>(),
            tests.iter().map(crate::ndt::row_bits).collect::<Vec<_>>()
        );
        let mut agg = MonthlyAggregator::new(Mode::Streaming);
        agg.observe_all(&decoded);
        let med = agg
            .median_series(country::VE)
            .get(MonthStamp::new(2019, 7))
            .unwrap();
        assert!((med - 0.8).abs() / 0.8 < 0.10, "median {med}");
    }

    #[test]
    fn zero_expected_tests_yields_empty() {
        let sampler = SpeedSampler::default();
        let mut rng = Rng::seeded(1);
        let tests = sampler.generate_month(
            country::VE,
            Asn(8048),
            MonthStamp::new(2019, 7),
            1.0,
            0.0,
            &mut rng,
        );
        assert!(tests.is_empty());
    }
}
