//! Exact and streaming statistics.
//!
//! The M-Lab aggregation (§3.3, Fig. 11) reduces hundreds of millions of
//! speed tests to month-country medians. We provide both an exact
//! quantile (sort-based, for correctness baselines and small groups) and
//! the P² streaming estimator (constant memory per group), plus the small
//! summary helpers the figure extractors share. The `lacnet-bench`
//! ablation compares the two on realistic workloads.

/// Exact quantile of a sample using linear interpolation between closest
/// ranks (the "linear" / type-7 method, matching NumPy's default).
/// Returns `None` on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(values[lo])
    } else {
        let frac = pos - lo as f64;
        Some(values[lo] * (1.0 - frac) + values[hi] * frac)
    }
}

/// Exact median.
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The P² (piecewise-parabolic) streaming quantile estimator of Jain &
/// Chlamtac (1985): tracks one quantile with five markers and O(1) memory
/// per observation.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    count: usize,
    /// Initial observations until the five markers are seeded.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Create an estimator for quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Convenience constructor for the median.
    pub fn median() -> Self {
        Self::new(0.5)
    }

    /// Number of observations seen.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial
                    .sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
                for (i, &v) in self.initial.iter().enumerate() {
                    self.heights[i] = v;
                }
            }
            return;
        }

        // Find the cell k containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            // Jain & Chlamtac (1985): a new maximum lies in the last cell,
            // between markers 4 and 5 (0-indexed cell 3), so only the
            // position of marker 5 may advance.
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let h = &self.heights;
        let n = &self.positions;
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate. `None` until at least one observation; exact while
    /// fewer than five observations have been seen.
    pub fn value(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            let mut v = self.initial.clone();
            return quantile(&mut v, self.q);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn exact_quantiles() {
        let mut v = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(median(&mut v), Some(2.5));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut v, 0.25), Some(1.75));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(quantile(&mut [1.0], 1.5), None);
        assert_eq!(median(&mut [7.0]), Some(7.0));
    }

    #[test]
    fn p2_exact_for_small_samples() {
        let mut p2 = P2Quantile::median();
        assert_eq!(p2.value(), None);
        p2.observe(5.0);
        assert_eq!(p2.value(), Some(5.0));
        p2.observe(1.0);
        assert_eq!(p2.value(), Some(3.0));
        p2.observe(9.0);
        assert_eq!(p2.value(), Some(5.0));
    }

    #[test]
    fn p2_tracks_uniform_median() {
        let mut rng = Rng::seeded(21);
        let mut p2 = P2Quantile::median();
        for _ in 0..100_000 {
            p2.observe(rng.uniform(0.0, 10.0));
        }
        let est = p2.value().unwrap();
        assert!((est - 5.0).abs() < 0.1, "estimate {est}");
    }

    #[test]
    fn p2_tracks_lognormal_median_and_p90() {
        // The M-Lab generator produces log-normal speeds; make sure the
        // estimator works on that shape specifically.
        let mut rng = Rng::seeded(22);
        let mu = 0.7f64; // median e^0.7 ≈ 2.013
        let mut med = P2Quantile::median();
        let mut p90 = P2Quantile::new(0.9);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x = rng.log_normal(mu, 0.9);
            med.observe(x);
            p90.observe(x);
            all.push(x);
        }
        let exact_med = median(&mut all.clone()).unwrap();
        let exact_p90 = quantile(&mut all, 0.9).unwrap();
        let e1 = med.value().unwrap();
        let e2 = p90.value().unwrap();
        assert!(
            (e1 - exact_med).abs() / exact_med < 0.05,
            "median {e1} vs {exact_med}"
        );
        assert!(
            (e2 - exact_p90).abs() / exact_p90 < 0.08,
            "p90 {e2} vs {exact_p90}"
        );
    }

    #[test]
    fn p2_tracks_monotonically_increasing_stream() {
        // Regression for the upper-extreme cell bug: every observation of a
        // strictly increasing stream is a new maximum, so each one takes the
        // `x >= heights[4]` branch. With the wrong cell index (`k = 2`)
        // positions[3] was spuriously incremented on every observation,
        // dragging the median marker far below the true median. The fixed
        // estimator stays within 2% of the exact value; the buggy one ends
        // up more than 40% low on this stream.
        let n = 10_000;
        let mut p2 = P2Quantile::median();
        for i in 0..n {
            p2.observe(i as f64);
        }
        let exact = (n - 1) as f64 / 2.0;
        let est = p2.value().unwrap();
        assert!(
            (est - exact).abs() / exact < 0.02,
            "P² median {est} strayed from exact {exact} on an increasing stream"
        );

        // Same property for a non-median quantile, which exercises the
        // asymmetric desired-position increments.
        let mut p90 = P2Quantile::new(0.9);
        for i in 0..n {
            p90.observe(i as f64);
        }
        let exact90 = 0.9 * (n - 1) as f64;
        let est90 = p90.value().unwrap();
        assert!(
            (est90 - exact90).abs() / exact90 < 0.02,
            "P² p90 {est90} strayed from exact {exact90} on an increasing stream"
        );
    }

    proptest! {
        #[test]
        fn quantile_is_within_range(mut v in proptest::collection::vec(-1e6f64..1e6, 1..200),
                                    q in 0.0f64..=1.0) {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let qv = quantile(&mut v, q).unwrap();
            prop_assert!(qv >= lo - 1e-9 && qv <= hi + 1e-9);
        }

        #[test]
        fn quantile_is_monotone_in_q(mut v in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                     q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
            let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = quantile(&mut v, qa).unwrap();
            let b = quantile(&mut v, qb).unwrap();
            prop_assert!(a <= b + 1e-9);
        }

        #[test]
        fn p2_stays_within_observed_range(xs in proptest::collection::vec(-1e3f64..1e3, 1..500)) {
            let mut p2 = P2Quantile::median();
            for &x in &xs {
                p2.observe(x);
            }
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let v = p2.value().unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        #[test]
        fn p2_accurate_on_sorted_ascending_streams(
            mut xs in proptest::collection::vec(-1e3f64..1e3, 50..400),
        ) {
            // Sorted-ascending input makes every post-seed observation hit
            // the upper-extreme branch — the path the cell-index bug sat on.
            xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let mut p2 = P2Quantile::median();
            for &x in &xs {
                p2.observe(x);
            }
            let est = p2.value().unwrap();
            let exact = median(&mut xs.clone()).unwrap();
            let span = xs[xs.len() - 1] - xs[0];
            // P² is a coarse 5-marker sketch, so the bound is loose — but
            // the pre-fix estimator drifts toward the stream minimum on
            // ascending input and misses by well over half the span.
            prop_assert!(
                (est - exact).abs() <= span * 0.25 + 1e-9,
                "estimate {} vs exact median {} (span {})", est, exact, span
            );
        }
    }
}
