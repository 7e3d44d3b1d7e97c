//! Month-country aggregation of NDT tests.
//!
//! The real dataset is ≈447M rows; the paper reduces it to one median per
//! `(country, month)`. Sorting every group is fine for a few million rows
//! but memory-hungry at archive scale, so the aggregator runs the P²
//! streaming estimator per group by default, with an exact mode kept for
//! verification and for the `lacnet-bench` ablation.

use crate::ndt::NdtTest;
use lacnet_types::stats::{self, P2Quantile};
use lacnet_types::{CountryCode, Date, MonthStamp, TimeSeries};
use std::collections::BTreeMap;

/// Aggregation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// P² streaming median: O(1) memory per group.
    Streaming,
    /// Exact median: buffers every observation per group.
    Exact,
}

/// Per-group accumulated state.
#[derive(Debug, Clone)]
pub enum GroupStats {
    /// Streaming accumulator.
    Streaming(P2Quantile),
    /// Exact buffer.
    Exact(Vec<f64>),
}

impl GroupStats {
    /// Feed observations in order.
    fn observe_run(&mut self, xs: impl Iterator<Item = f64>) {
        match self {
            GroupStats::Streaming(p2) => xs.for_each(|x| p2.observe(x)),
            GroupStats::Exact(buf) => buf.extend(xs),
        }
    }

    /// Number of observations in the group.
    pub fn count(&self) -> usize {
        match self {
            GroupStats::Streaming(p2) => p2.count(),
            GroupStats::Exact(buf) => buf.len(),
        }
    }

    /// The group median (estimate in streaming mode).
    pub fn median(&self) -> Option<f64> {
        match self {
            GroupStats::Streaming(p2) => p2.value(),
            GroupStats::Exact(buf) => stats::median(&mut buf.clone()),
        }
    }
}

/// Streaming month-country aggregator over NDT download speeds.
#[derive(Debug, Clone)]
pub struct MonthlyAggregator {
    mode: Mode,
    groups: BTreeMap<(CountryCode, MonthStamp), GroupStats>,
}

impl MonthlyAggregator {
    /// The `.ndtc` columns [`observe_columns`] reads — what an archive
    /// load must decode for the resident aggregate, regardless of which
    /// endpoints are registered.
    ///
    /// [`observe_columns`]: MonthlyAggregator::observe_columns
    pub const REQUIRED_COLUMNS: crate::columnar::ColumnSet = crate::columnar::ColumnSet::AGGREGATE;

    /// Create an aggregator in the given mode.
    pub fn new(mode: Mode) -> Self {
        MonthlyAggregator {
            mode,
            groups: BTreeMap::new(),
        }
    }

    /// The state of group `key`, created empty on first sight.
    fn group_mut(&mut self, key: (CountryCode, MonthStamp)) -> &mut GroupStats {
        let mode = self.mode;
        self.groups.entry(key).or_insert_with(|| match mode {
            Mode::Streaming => GroupStats::Streaming(P2Quantile::median()),
            Mode::Exact => GroupStats::Exact(Vec::new()),
        })
    }

    /// Feed one test.
    pub fn observe(&mut self, test: &NdtTest) {
        self.group_mut((test.country, test.date.month_stamp()))
            .observe_run(std::iter::once(test.download_mbps));
    }

    /// Feed many tests.
    pub fn observe_all<'a>(&mut self, tests: impl IntoIterator<Item = &'a NdtTest>) {
        for t in tests {
            self.observe(t);
        }
    }

    /// Feed column-major rows (as far as the shortest column reaches) in
    /// runs of equal `(country, month)`: one group lookup per run, then
    /// the run's downloads in row order. Runs come from the columns
    /// themselves, never from a footer, so any interleaving of groups
    /// lands each group on the observation sequence [`observe`] gives it.
    ///
    /// [`observe`]: MonthlyAggregator::observe
    fn observe_runs(
        &mut self,
        countries: &[CountryCode],
        dates: &[Date],
        mut download: impl ExactSizeIterator<Item = f64>,
    ) {
        let n = countries.len().min(dates.len()).min(download.len());
        let mut start = 0;
        while start < n {
            let (cc, month) = (countries[start], dates[start].month_stamp());
            let len = countries[start..n]
                .iter()
                .zip(&dates[start..n])
                .position(|(&c, d)| c != cc || d.month_stamp() != month)
                .unwrap_or(n - start);
            self.group_mut((cc, month))
                .observe_run(download.by_ref().take(len));
            start += len;
        }
    }

    /// Reduce a decoded columnar shard, row order. Reads the country,
    /// date and download columns directly — no `NdtTest` is ever
    /// materialized — yet feeds each group's P² estimator the exact
    /// observation sequence [`observe`] feeds it from the same rows, so
    /// the estimator state is byte-identical between the two paths
    /// (asserted by this module's tests and the archive round-trip
    /// suite).
    ///
    /// [`observe`]: MonthlyAggregator::observe
    pub fn observe_columns(&mut self, batch: &crate::columnar::ColumnBatch) -> usize {
        self.observe_runs(
            batch.countries(),
            batch.dates(),
            batch.download().iter().copied(),
        );
        batch.len()
    }

    /// Reduce one decoded block of an `.ndtc` scan, row order — the
    /// borrowed twin of [`observe_columns`] that archive loads feed
    /// straight from [`ColumnReader::scan_counted`]. The block must have
    /// been scanned with at least [`REQUIRED_COLUMNS`]. Returns the rows
    /// observed.
    ///
    /// The cost is one group lookup per run of rows with equal
    /// `(country, month)`, not one per row. Runs are found in the decoded
    /// columns, so any block is reduced correctly; an archive block never
    /// straddles a month and its container holds one country, so there a
    /// block is one run and one lookup.
    ///
    /// [`observe_columns`]: MonthlyAggregator::observe_columns
    /// [`ColumnReader::scan_counted`]: crate::columnar::ColumnReader::scan_counted
    /// [`REQUIRED_COLUMNS`]: MonthlyAggregator::REQUIRED_COLUMNS
    pub fn observe_block(&mut self, view: &crate::columnar::BlockView<'_, '_>) -> usize {
        self.observe_runs(view.countries(), view.dates(), view.download().iter());
        view.rows()
    }

    /// Move every group of `other` into `self`. Archive loads aggregate
    /// each country's container on its own sweep worker and merge the
    /// partial aggregates here; a group present on both sides is a
    /// typed error, because merging two P² states is not the state of
    /// one observation sequence.
    pub fn merge(&mut self, other: MonthlyAggregator) -> lacnet_types::Result<()> {
        for (key, group) in other.groups {
            if self.groups.insert(key, group).is_some() {
                return Err(lacnet_types::Error::invalid(
                    "NDT group observed by two partial aggregates",
                ));
            }
        }
        Ok(())
    }

    /// Number of `(country, month)` groups seen.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The accumulated state for one `(country, month)` group, if any —
    /// the in-memory backend of the `/ndt/{cc}/{month}` query endpoint.
    pub fn group(&self, country: CountryCode, month: MonthStamp) -> Option<&GroupStats> {
        self.groups.get(&(country, month))
    }

    /// The median download series for `country` — one Fig. 11 line.
    pub fn median_series(&self, country: CountryCode) -> TimeSeries {
        self.groups
            .iter()
            .filter(|((cc, _), _)| *cc == country)
            .filter_map(|((_, m), g)| g.median().map(|v| (*m, v)))
            .collect()
    }

    /// Countries present in the aggregate.
    pub fn countries(&self) -> Vec<CountryCode> {
        let mut out: Vec<CountryCode> = self.groups.keys().map(|(cc, _)| *cc).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The cross-country mean of per-country medians, per month — the
    /// "mean LACNIC" curve of Fig. 11.
    pub fn regional_mean_series(&self) -> TimeSeries {
        let per_country: Vec<TimeSeries> = self
            .countries()
            .iter()
            .map(|&cc| self.median_series(cc))
            .collect();
        let refs: Vec<&TimeSeries> = per_country.iter().collect();
        lacnet_types::series::mean_of(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::{country, Asn, Date};

    fn test(cc: CountryCode, y: i32, m: u8, d: u8, down: f64) -> NdtTest {
        NdtTest {
            date: Date::ymd(y, m, d),
            country: cc,
            asn: Asn(8048),
            download_mbps: down,
            upload_mbps: down / 3.0,
            min_rtt_ms: 40.0,
            loss_rate: 0.01,
        }
    }

    #[test]
    fn exact_grouping_and_medians() {
        let mut agg = MonthlyAggregator::new(Mode::Exact);
        agg.observe_all(&[
            test(country::VE, 2019, 7, 1, 0.5),
            test(country::VE, 2019, 7, 10, 0.9),
            test(country::VE, 2019, 7, 20, 0.7),
            test(country::VE, 2019, 8, 1, 1.1),
            test(country::BR, 2019, 7, 1, 20.0),
        ]);
        assert_eq!(agg.group_count(), 3);
        assert_eq!(
            agg.group(country::VE, MonthStamp::new(2019, 7))
                .map(GroupStats::count),
            Some(3)
        );
        let ve = agg.median_series(country::VE);
        assert_eq!(ve.get(MonthStamp::new(2019, 7)), Some(0.7));
        assert_eq!(ve.get(MonthStamp::new(2019, 8)), Some(1.1));
        assert_eq!(agg.countries(), vec![country::BR, country::VE]);
    }

    #[test]
    fn regional_mean_averages_country_medians() {
        let mut agg = MonthlyAggregator::new(Mode::Exact);
        agg.observe_all(&[
            test(country::VE, 2019, 7, 1, 1.0),
            test(country::BR, 2019, 7, 1, 21.0),
        ]);
        let mean = agg.regional_mean_series();
        assert_eq!(mean.get(MonthStamp::new(2019, 7)), Some(11.0));
    }

    #[test]
    fn streaming_matches_exact_within_tolerance() {
        use lacnet_types::rng::Rng;
        let mut rng = Rng::seeded(7);
        let mut streaming = MonthlyAggregator::new(Mode::Streaming);
        let mut exact = MonthlyAggregator::new(Mode::Exact);
        for i in 0..30_000 {
            let day = (i % 28) as u8 + 1;
            let t = test(country::VE, 2019, 7, day, rng.log_normal(0.0, 0.8));
            streaming.observe(&t);
            exact.observe(&t);
        }
        let s = streaming
            .median_series(country::VE)
            .get(MonthStamp::new(2019, 7))
            .unwrap();
        let e = exact
            .median_series(country::VE)
            .get(MonthStamp::new(2019, 7))
            .unwrap();
        assert!((s - e).abs() / e < 0.05, "streaming {s} vs exact {e}");
    }

    #[test]
    fn observe_columns_state_is_byte_identical_to_observed_rows() {
        use lacnet_types::rng::Rng;
        let mut rng = Rng::seeded(11);
        let mut rows = Vec::new();
        for i in 0..5_000 {
            let cc = if i % 3 == 0 { country::BR } else { country::VE };
            let day = (i % 28) as u8 + 1;
            rows.push(test(
                cc,
                2019,
                1 + (i % 12) as u8,
                day,
                rng.log_normal(0.0, 0.9),
            ));
        }
        let bytes =
            crate::columnar::encode_v2_with(&crate::columnar::ColumnBatch::from_rows(&rows), 64);
        let batch = crate::columnar::decode(&bytes).unwrap();
        // The decoded columns hold the rows bit for bit …
        assert_eq!(
            batch
                .iter()
                .map(|r| crate::ndt::row_bits(&r))
                .collect::<Vec<_>>(),
            rows.iter().map(crate::ndt::row_bits).collect::<Vec<_>>()
        );

        // … and reduce to the per-row reference state.
        let mut from_rows = MonthlyAggregator::new(Mode::Streaming);
        from_rows.observe_all(&rows);
        let mut from_columns = MonthlyAggregator::new(Mode::Streaming);
        assert_eq!(from_columns.observe_columns(&batch), rows.len());

        // Debug formatting spells out every P² marker height, position
        // and increment with shortest-roundtrip floats (and tells -0.0
        // from 0.0), so string equality here is bit-level equality of
        // the full estimator state.
        assert_eq!(format!("{from_rows:?}"), format!("{from_columns:?}"));

        // The borrowed block path lands on the same state, and so do
        // per-country partial aggregates merged afterwards.
        let reader = crate::columnar::ColumnReader::open(&bytes).unwrap();
        let selection =
            crate::columnar::ColumnSelection::columns(MonthlyAggregator::REQUIRED_COLUMNS);
        let mut scratch = crate::columnar::DecodeScratch::new();
        let mut from_blocks = MonthlyAggregator::new(Mode::Streaming);
        reader
            .scan_counted(&selection, &mut scratch, |view| {
                from_blocks.observe_block(view);
                Ok(())
            })
            .unwrap();
        assert_eq!(format!("{from_rows:?}"), format!("{from_blocks:?}"));
        let mut merged = MonthlyAggregator::new(Mode::Streaming);
        for cc in [country::BR, country::VE] {
            let mut part = MonthlyAggregator::new(Mode::Streaming);
            part.observe_all(rows.iter().filter(|r| r.country == cc));
            merged.merge(part).unwrap();
        }
        assert_eq!(format!("{from_rows:?}"), format!("{merged:?}"));
        // A group on both sides cannot be merged.
        assert!(merged.merge(from_blocks).is_err());
    }

    mod props {
        use super::*;
        use crate::columnar::{self, ColumnBatch, ColumnReader, ColumnSelection, DecodeScratch};
        use proptest::prelude::*;

        /// Every group's state after `observe_columns` over the batch and
        /// after `observe_block` over an encoding of it in `block_rows`
        /// blocks, next to the per-row reference.
        fn states(rows: &[NdtTest], mode: Mode, block_rows: usize) -> [String; 3] {
            let mut per_row = MonthlyAggregator::new(mode);
            per_row.observe_all(rows);
            let batch = ColumnBatch::from_rows(rows);
            let mut columns = MonthlyAggregator::new(mode);
            assert_eq!(columns.observe_columns(&batch), rows.len());
            let bytes = columnar::encode_v2_with(&batch, block_rows);
            let selection = ColumnSelection::columns(MonthlyAggregator::REQUIRED_COLUMNS);
            let mut blocks = MonthlyAggregator::new(mode);
            let mut observed = 0;
            ColumnReader::open(&bytes)
                .unwrap()
                .scan_counted(&selection, &mut DecodeScratch::new(), |view| {
                    observed += blocks.observe_block(view);
                    Ok(())
                })
                .unwrap();
            assert_eq!(observed, rows.len());
            [per_row, columns, blocks].map(|agg| format!("{agg:?}"))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Runs of rows that interleave three countries and three
            /// months — a group recurring after other groups' runs, and
            /// runs cut across blocks of 1 to 8 rows — leave every group
            /// of both reductions in the per-row state, in both modes.
            #[test]
            fn run_grouping_matches_per_row_observation(
                runs in proptest::collection::vec(
                    (0usize..3, 0u8..3, 1usize..7, 0.0f64..100.0),
                    0..24,
                ),
                block_rows in 1usize..9,
            ) {
                let codes = [country::VE, country::BR, country::AR];
                let mut rows = Vec::new();
                for (cc, month, len, down) in runs {
                    for i in 0..len {
                        let day = 1 + (rows.len() % 28) as u8;
                        let x = down + i as f64 * 0.37;
                        rows.push(test(codes[cc], 2019, 6 + month, day, x));
                    }
                }
                for mode in [Mode::Streaming, Mode::Exact] {
                    let [per_row, columns, blocks] = states(&rows, mode, block_rows);
                    prop_assert_eq!(&columns, &per_row);
                    prop_assert_eq!(&blocks, &per_row);
                }
            }
        }
    }

    #[test]
    fn empty_aggregator() {
        let agg = MonthlyAggregator::new(Mode::Streaming);
        assert_eq!(agg.group_count(), 0);
        assert!(agg.median_series(country::VE).is_empty());
        assert!(agg.regional_mean_series().is_empty());
        assert!(agg.countries().is_empty());
    }
}
