//! NDT test records and their archive row format.
//!
//! The study consumes only the downstream throughput of each NDT test,
//! aggregated to month-country granularity (§3.3). Records carry the
//! other columns the real archive exposes (upload, RTT, loss) so the
//! pipeline exercises realistic row widths.

use lacnet_types::{Asn, CountryCode, Date, Error, Result};
use std::str::FromStr;

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

    /// Serialise as one archive row:
    /// `date<TAB>country<TAB>asn<TAB>down<TAB>up<TAB>rtt<TAB>loss`.
    ///
    /// Floats use shortest-roundtrip formatting, so `parse(to_row(x)) ==
    /// x` exactly — archives rebuilt from disk feed the order-sensitive
    /// P² estimator the very same values the in-memory stream carried.
    pub fn to_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.date,
            self.country,
            self.asn.raw(),
            self.download_mbps,
            self.upload_mbps,
            self.min_rtt_ms,
            self.loss_rate,
        )
    }
}

impl FromStr for NdtTest {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        // Walk the split iterator directly — this parser runs once per
        // row of a multi-hundred-megabyte shard, so it must not allocate
        // a per-row `Vec<&str>`.
        let mut cols = s.split('\t');
        let mut col = || {
            cols.next()
                .ok_or_else(|| Error::parse("NDT row (7 tab-separated columns)", s))
        };
        let test = NdtTest {
            date: col()?.parse()?,
            country: col()?.parse()?,
            asn: Asn(col()?.parse().map_err(|_| Error::parse("NDT asn", s))?),
            download_mbps: col()?
                .parse()
                .map_err(|_| Error::parse("NDT download", s))?,
            upload_mbps: col()?.parse().map_err(|_| Error::parse("NDT upload", s))?,
            min_rtt_ms: col()?.parse().map_err(|_| Error::parse("NDT rtt", s))?,
            loss_rate: col()?.parse().map_err(|_| Error::parse("NDT loss", s))?,
        };
        if cols.next().is_some() {
            return Err(Error::parse("NDT row (7 tab-separated columns)", s));
        }
        test.validate()
            .map_err(|_| Error::parse("NDT row values in range", s))?;
        Ok(test)
    }
}

/// Parse a whole archive shard (one row per line; blank lines and `#`
/// comments are skipped, rows are range-validated).
pub fn parse_rows(text: &str) -> Result<Vec<NdtTest>> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::parse)
        .collect()
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
    fn row_roundtrip_is_exact() {
        let t = sample();
        let row = t.to_row();
        let back: NdtTest = row.parse().unwrap();
        assert_eq!(back, t, "shortest-roundtrip floats survive exactly");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// parse(to_row(x)) == x for arbitrary in-range rows — the
            /// invariant the archive-backed battery leans on.
            #[test]
            fn row_roundtrip_proptest(
                day in 1u8..=28,
                down in 0.0f64..500.0,
                up in 0.0f64..200.0,
                rtt in 0.0f64..900.0,
                loss in 0.0f64..1.0,
                asn in 1u32..400_000,
            ) {
                let t = NdtTest {
                    date: Date::ymd(2019, 7, day),
                    country: country::VE,
                    asn: Asn(asn),
                    download_mbps: down,
                    upload_mbps: up,
                    min_rtt_ms: rtt,
                    loss_rate: loss,
                };
                let back: NdtTest = t.to_row().parse().unwrap();
                prop_assert_eq!(back, t);
            }
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

    #[test]
    fn parse_rows_skips_comments_rejects_garbage() {
        let text = format!("# header\n{}\n\n{}\n", sample().to_row(), sample().to_row());
        assert_eq!(parse_rows(&text).unwrap().len(), 2);
        assert!(parse_rows("not\ta\trow\n").is_err());
        let bad = "2019-07-14\tVE\t8048\t-5\t0.3\t58\t0.01\n";
        assert!(
            parse_rows(bad).is_err(),
            "range validation applies on parse"
        );
    }
}
