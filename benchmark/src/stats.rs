//! Order statistics and the rule for which percentile to report.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail
//! figure is never one or two outliers in disguise. With 20 to 39
//! samples that percentile is the median itself: so few samples show no
//! tail at all.

/// Tail percentiles in per-mille, highest first.
const TAIL_LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linearly interpolated quantile `q` (0..=1) of ascending `sorted` data.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples:
/// `n − ⌈n·p⌉`.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    n * (1000 - per_mille as usize) / 1000
}

/// The highest ladder percentile (per-mille) with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` below 20 samples.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// `p990` → `"p99"`, `p999` → `"p99.9"`.
pub fn percentile_label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// Median, quartiles and the reportable tail of one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Tail percentile (per-mille) and its value. Below 20 samples no
    /// percentile qualifies and the median stands in, flagged by
    /// `tail_qualified == false`.
    pub tail: (u32, f64),
    /// Whether `tail` has at least [`TAIL_MIN_BEYOND`] samples beyond it.
    pub tail_qualified: bool,
}

impl Summary {
    /// Summarize `values` (any order). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_pm, qualified) = match tail_per_mille(sorted.len()) {
            Some(p) => (p, true),
            None => (500, false),
        };
        Some(Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail: (tail_pm, quantile(&sorted, tail_pm as f64 / 1000.0)),
            tail_qualified: qualified,
        })
    }

    /// The tail's label with its sample support, e.g. `p95 (12 beyond)`.
    pub fn tail_label(&self) -> String {
        let beyond = beyond(self.n, self.tail.0);
        if self.tail_qualified {
            format!("{} ({beyond} beyond)", percentile_label(self.tail.0))
        } else {
            format!(
                "{} (only {beyond} beyond: too few samples for a tail)",
                percentile_label(self.tail.0)
            )
        }
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method) computes them. `None` below two
/// samples, where Python raises.
pub fn python_quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(1_000), Some(990));
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(199), Some(900));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(40), Some(750));
        assert_eq!(tail_per_mille(39), Some(500));
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(19), None);
        for n in [20, 33, 40, 99, 100, 450, 1000, 5000, 12_345] {
            let p = tail_per_mille(n).unwrap();
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_its_sample_count_and_support() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail.0, 990);
        assert!(s.tail_qualified);
        assert_eq!(s.tail_label(), "p99 (10 beyond)");
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(few.n, 3);
        assert_eq!(few.median, 2.0);
        assert!(!few.tail_qualified);
        assert_eq!(few.tail, (500, 2.0), "the median stands in");
        assert!(few.tail_label().starts_with("p50 (only 1 beyond"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(python_quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(python_quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(python_quartiles(&[1.0]), None);
    }
}
