//! Month-indexed time series.
//!
//! Every figure in the study is one or more per-country series sampled
//! monthly (or resampled to months). [`TimeSeries`] is a thin ordered map
//! from [`MonthStamp`] to `f64` with the alignment, normalisation, and
//! summary operations the figure extractors need.

use crate::date::MonthStamp;
use std::collections::BTreeMap;

/// An ordered month → value series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    points: BTreeMap<MonthStamp, f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(month, value)` pairs; later duplicates win.
    pub fn from_points(points: impl IntoIterator<Item = (MonthStamp, f64)>) -> Self {
        TimeSeries {
            points: points.into_iter().collect(),
        }
    }

    /// Insert or replace the value for `month`.
    pub fn insert(&mut self, month: MonthStamp, value: f64) {
        self.points.insert(month, value);
    }

    /// The value at exactly `month`.
    pub fn get(&self, month: MonthStamp) -> Option<f64> {
        self.points.get(&month).copied()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First (earliest) point.
    pub fn first(&self) -> Option<(MonthStamp, f64)> {
        self.points.iter().next().map(|(&m, &v)| (m, v))
    }

    /// Last (latest) point.
    pub fn last(&self) -> Option<(MonthStamp, f64)> {
        self.points.iter().next_back().map(|(&m, &v)| (m, v))
    }

    /// Iterate in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (MonthStamp, f64)> + '_ {
        self.points.iter().map(|(&m, &v)| (m, v))
    }

    /// Restrict to `[start, end]` inclusive.
    pub fn window(&self, start: MonthStamp, end: MonthStamp) -> TimeSeries {
        TimeSeries {
            points: self
                .points
                .range(start..=end)
                .map(|(&m, &v)| (m, v))
                .collect(),
        }
    }

    /// Map every value.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries {
            points: self.points.iter().map(|(&m, &v)| (m, f(v))).collect(),
        }
    }

    /// Pointwise binary operation over the *intersection* of months.
    pub fn zip_with(&self, other: &TimeSeries, f: impl Fn(f64, f64) -> f64) -> TimeSeries {
        TimeSeries {
            points: self
                .points
                .iter()
                .filter_map(|(&m, &a)| other.get(m).map(|b| (m, f(a, b))))
                .collect(),
        }
    }

    /// Series divided by its own maximum — the "X / max(X)" right axes of
    /// Fig. 1. Returns an empty series if there is no positive maximum.
    pub fn normalized_to_max(&self) -> TimeSeries {
        let max = self.max_value().unwrap_or(0.0);
        if max <= 0.0 {
            return TimeSeries::new();
        }
        self.map(|v| v / max)
    }

    /// Maximum value.
    pub fn max_value(&self) -> Option<f64> {
        self.points.values().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// Minimum value.
    pub fn min_value(&self) -> Option<f64> {
        self.points.values().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.min(v),
            })
        })
    }

    /// Mean of all values.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.values().sum::<f64>() / self.points.len() as f64)
    }

    /// Trailing mean over the final `months` points — e.g. the paper's
    /// "last 6 months of our analysis" comparisons (§7.2).
    pub fn trailing_mean(&self, months: usize) -> Option<f64> {
        if self.points.is_empty() || months == 0 {
            return None;
        }
        let vals: Vec<f64> = self.points.values().rev().take(months).copied().collect();
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Linear resample onto every month in `[start, end]`, interpolating
    /// between known points and holding flat beyond the ends. Empty input
    /// yields an empty output.
    pub fn resample_monthly(&self, start: MonthStamp, end: MonthStamp) -> TimeSeries {
        if self.points.is_empty() || end < start {
            return TimeSeries::new();
        }
        let pts: Vec<(MonthStamp, f64)> = self.iter().collect();
        let mut out = BTreeMap::new();
        for m in start.through(end) {
            let v = match pts.binary_search_by_key(&m, |&(mm, _)| mm) {
                Ok(i) => pts[i].1,
                Err(0) => pts[0].1,
                Err(i) if i == pts.len() => pts[pts.len() - 1].1,
                Err(i) => {
                    let (m0, v0) = pts[i - 1];
                    let (m1, v1) = pts[i];
                    let t = m0.months_until(m) as f64 / m0.months_until(m1) as f64;
                    v0 + (v1 - v0) * t
                }
            };
            out.insert(m, v);
        }
        TimeSeries { points: out }
    }
}

impl FromIterator<(MonthStamp, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (MonthStamp, f64)>>(iter: T) -> Self {
        Self::from_points(iter)
    }
}

/// Compute the pointwise mean of several series over the union of their
/// months — the "mean LACNIC" aggregate curves in Figs. 5, 11, 12 average
/// whatever countries reported in each month.
pub fn mean_of(series: &[&TimeSeries]) -> TimeSeries {
    let mut sums: BTreeMap<MonthStamp, (f64, u32)> = BTreeMap::new();
    for s in series {
        for (m, v) in s.iter() {
            let e = sums.entry(m).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
    }
    TimeSeries {
        points: sums
            .into_iter()
            .map(|(m, (sum, n))| (m, sum / n as f64))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(y: i32, mo: u8) -> MonthStamp {
        MonthStamp::new(y, mo)
    }

    fn s(points: &[(i32, u8, f64)]) -> TimeSeries {
        TimeSeries::from_points(points.iter().map(|&(y, mo, v)| (m(y, mo), v)))
    }

    #[test]
    fn insert_get_window() {
        let ts = s(&[(2013, 1, 1.0), (2014, 1, 2.0), (2015, 1, 3.0)]);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.get(m(2014, 1)), Some(2.0));
        assert_eq!(ts.get(m(2014, 2)), None);
        let w = ts.window(m(2013, 6), m(2014, 6));
        assert_eq!(w.len(), 1);
        assert_eq!(w.get(m(2014, 1)), Some(2.0));
    }

    #[test]
    fn normalisation_to_peak() {
        // Shaped like Venezuela's oil curve: peak then collapse.
        let ts = s(&[(2008, 1, 80.0), (2013, 1, 100.0), (2020, 1, 19.0)]);
        let norm = ts.normalized_to_max();
        assert_eq!(norm.get(m(2013, 1)), Some(1.0));
        assert_eq!(norm.get(m(2020, 1)), Some(0.19));
    }

    #[test]
    fn normalized_empty_when_nonpositive() {
        let ts = s(&[(2013, 1, 0.0), (2014, 1, -1.0)]);
        assert!(ts.normalized_to_max().is_empty());
        assert!(TimeSeries::new().normalized_to_max().is_empty());
    }

    #[test]
    fn zip_intersects() {
        let a = s(&[(2013, 1, 10.0), (2014, 1, 20.0)]);
        let b = s(&[(2014, 1, 2.0), (2015, 1, 4.0)]);
        let q = a.zip_with(&b, |x, y| x / y);
        assert_eq!(q.len(), 1);
        assert_eq!(q.get(m(2014, 1)), Some(10.0));
    }

    #[test]
    fn trailing_mean_last_six_months() {
        let ts = TimeSeries::from_points((1..=12).map(|mo| (m(2023, mo), mo as f64)));
        // Last 6 months: 7..=12, mean 9.5.
        assert_eq!(ts.trailing_mean(6), Some(9.5));
        // Window longer than series: uses all points.
        assert_eq!(ts.trailing_mean(100), Some(6.5));
        assert_eq!(TimeSeries::new().trailing_mean(6), None);
        assert_eq!(ts.trailing_mean(0), None);
    }

    #[test]
    fn resample_interpolates() {
        let ts = s(&[(2013, 1, 0.0), (2014, 1, 12.0)]);
        let r = ts.resample_monthly(m(2012, 11), m(2014, 3));
        assert_eq!(r.get(m(2012, 11)), Some(0.0)); // flat before
        assert_eq!(r.get(m(2013, 7)), Some(6.0)); // midpoint
        assert_eq!(r.get(m(2014, 3)), Some(12.0)); // flat after
        assert_eq!(r.len(), 17);
        assert!(TimeSeries::new()
            .resample_monthly(m(2013, 1), m(2014, 1))
            .is_empty());
    }

    #[test]
    fn mean_over_union() {
        let a = s(&[(2013, 1, 10.0), (2014, 1, 20.0)]);
        let b = s(&[(2014, 1, 40.0)]);
        let mean = mean_of(&[&a, &b]);
        assert_eq!(mean.get(m(2013, 1)), Some(10.0));
        assert_eq!(mean.get(m(2014, 1)), Some(30.0));
        assert!(mean_of(&[]).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn series_strategy() -> impl Strategy<Value = TimeSeries> {
            proptest::collection::btree_map(0i32..600, -1.0e6f64..1.0e6, 0..60).prop_map(|m| {
                TimeSeries::from_points(
                    m.into_iter()
                        .map(|(i, v)| (MonthStamp::new(2000, 1).plus(i), v)),
                )
            })
        }

        proptest! {
            #[test]
            fn window_is_a_subset(s in series_strategy(), a in 0i32..600, span in 0i32..600) {
                let start = MonthStamp::new(2000, 1).plus(a);
                let end = start.plus(span);
                let w = s.window(start, end);
                prop_assert!(w.len() <= s.len());
                for (m, v) in w.iter() {
                    prop_assert!(m >= start && m <= end);
                    prop_assert_eq!(s.get(m), Some(v));
                }
            }

            #[test]
            fn normalized_max_is_one(s in series_strategy()) {
                let n = s.normalized_to_max();
                if let Some(max) = n.max_value() {
                    prop_assert!((max - 1.0).abs() < 1e-9);
                    prop_assert_eq!(n.len(), s.len());
                }
            }

            #[test]
            fn resample_covers_window_and_bounds(s in series_strategy(), a in 0i32..600, span in 0i32..120) {
                let start = MonthStamp::new(2000, 1).plus(a);
                let end = start.plus(span);
                let r = s.resample_monthly(start, end);
                if s.is_empty() {
                    prop_assert!(r.is_empty());
                } else {
                    prop_assert_eq!(r.len(), (span + 1) as usize);
                    // Interpolation never leaves the value envelope.
                    let lo = s.min_value().unwrap();
                    let hi = s.max_value().unwrap();
                    for (_, v) in r.iter() {
                        prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6);
                    }
                    // Exact at known points inside the window.
                    for (m, v) in s.iter() {
                        if m >= start && m <= end {
                            prop_assert!((r.get(m).unwrap() - v).abs() < 1e-9);
                        }
                    }
                }
            }

            #[test]
            fn mean_between_min_and_max(s in series_strategy()) {
                if let (Some(mean), Some(lo), Some(hi)) = (s.mean(), s.min_value(), s.max_value()) {
                    prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
                }
            }

            #[test]
            fn mean_of_a_series_with_itself_is_identity(s in series_strategy()) {
                let mean = crate::series::mean_of(&[&s, &s]);
                for (m, v) in s.iter() {
                    prop_assert!((mean.get(m).unwrap() - v).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn min_max_first_last() {
        let ts = s(&[(2013, 1, 5.0), (2014, 1, -2.0), (2015, 1, 7.0)]);
        assert_eq!(ts.max_value(), Some(7.0));
        assert_eq!(ts.min_value(), Some(-2.0));
        assert_eq!(ts.first(), Some((m(2013, 1), 5.0)));
        assert_eq!(ts.last(), Some((m(2015, 1), 7.0)));
        assert_eq!(ts.mean(), Some(10.0 / 3.0));
    }
}
