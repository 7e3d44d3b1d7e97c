//! NDT test records.
//!
//! The study consumes only the downstream throughput of each NDT test,
//! aggregated to month-country granularity (§3.3). Records carry the
//! other columns the real archive exposes (upload, RTT, loss) so the
//! pipeline exercises realistic row widths. On disk, rows live only in
//! the [`crate::columnar`] `.ndtc` container.

use lacnet_types::{Asn, CountryCode, Date, Error, Result};

/// One NDT speed test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdtTest {
    /// Test date.
    pub date: Date,
    /// Client country.
    pub country: CountryCode,
    /// Client AS.
    pub asn: Asn,
    /// Downstream throughput, Mbit/s.
    pub download_mbps: f64,
    /// Upstream throughput, Mbit/s.
    pub upload_mbps: f64,
    /// Minimum RTT observed during the test, ms.
    pub min_rtt_ms: f64,
    /// Retransmission-based loss estimate in `[0, 1]`.
    pub loss_rate: f64,
}

impl NdtTest {
    /// Validate value ranges (non-negative speeds/RTT, loss in `[0,1]`).
    pub fn validate(&self) -> Result<()> {
        if self.download_mbps < 0.0 || self.upload_mbps < 0.0 {
            return Err(Error::invalid("negative throughput"));
        }
        if self.min_rtt_ms < 0.0 {
            return Err(Error::invalid("negative RTT"));
        }
        if !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(Error::invalid("loss rate outside [0,1]"));
        }
        Ok(())
    }
}

/// Every field of a row, floats as raw bits: the identity bit-exact
/// round-trip tests compare (`==` on `f64` equates `0.0` with `-0.0`).
#[cfg(test)]
pub(crate) fn row_bits(row: &NdtTest) -> (Date, CountryCode, Asn, [u64; 4]) {
    (
        row.date,
        row.country,
        row.asn,
        [
            row.download_mbps.to_bits(),
            row.upload_mbps.to_bits(),
            row.min_rtt_ms.to_bits(),
            row.loss_rate.to_bits(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    fn sample() -> NdtTest {
        NdtTest {
            date: Date::ymd(2019, 7, 14),
            country: country::VE,
            asn: Asn(8048),
            download_mbps: 0.87,
            upload_mbps: 0.31,
            min_rtt_ms: 58.2,
            loss_rate: 0.012,
        }
    }

    #[test]
    fn validation() {
        let mut t = sample();
        assert!(t.validate().is_ok());
        t.download_mbps = -1.0;
        assert!(t.validate().is_err());
        let mut t = sample();
        t.loss_rate = 1.2;
        assert!(t.validate().is_err());
        let mut t = sample();
        t.min_rtt_ms = -0.1;
        assert!(t.validate().is_err());
    }
}
