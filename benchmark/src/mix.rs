//! The request mixes, generated from the benchmark seed.
//!
//! The benchmark owns its random stream (SplitMix64) so that a change to
//! the program's generator can never change the requests it is measured
//! with: the same `--seed` gives the same sequence on every commit.
//!
//! The shape of the mixes is assumed, not measured. No request log of
//! `lacnet-serve` exists to derive it from, so every parameter below was
//! chosen when the benchmark was defined, and all of them live in the
//! block of constants that follows. Only the country ranking comes from
//! data: the archive's own row counts.

use lacnet_core::registry;
use lacnet_types::MonthStamp;
use std::path::Path;

/// SplitMix64: a small, well-mixed stream for request generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and a `stream` label, so independent uses of
    /// one seed never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Assumed: share of NDT requests that ask for a month range.
const RANGE_SHARE: f64 = 0.85;
/// Assumed: share of NDT requests that ask for one month; the rest of
/// the mix (5%) is malformed on purpose.
const MONTH_SHARE: f64 = 0.10;
/// Assumed: Zipf exponent over countries, ranked by archive rows.
const ZIPF_S: f64 = 1.1;
/// Assumed: range windows are 1 to this many months long, uniformly,
/// and start at a month drawn uniformly from the archive's months.
const MAX_WINDOW: usize = 24;
// Assumed: `serve_hot` draws uniformly over the 50 battery keys.

/// What a correct server answers a request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `200` with the body the in-process reference computes.
    Ok,
    /// A typed `400` — the request is malformed on purpose.
    BadRequest,
}

impl Expect {
    /// The status code this expectation demands.
    pub fn status(self) -> u16 {
        match self {
            Expect::Ok => 200,
            Expect::BadRequest => 400,
        }
    }
}

/// One request of a mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// The request target (path and query).
    pub target: String,
    /// What the reply must be.
    pub expect: Expect,
}

/// The 50 cold keys: every registry endpoint as JSON and as TSV, in
/// registry order.
pub fn battery() -> Vec<Req> {
    registry::ENDPOINTS
        .iter()
        .flat_map(|e| {
            let path = e.http_path();
            [path.clone(), format!("{path}?format=tsv")]
        })
        .map(|target| Req {
            target,
            expect: Expect::Ok,
        })
        .collect()
}

/// `n` draws, uniform over `keys` (an assumption), from the seed's hot
/// stream.
pub fn hot_draws(keys: &[Req], seed: u64, stream: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| keys[rng.below(keys.len())].clone())
        .collect()
}

/// The NDT key space of one archive: its countries (most rows first, the
/// Zipf rank order) and its months, read from `mlab/index.tsv`.
#[derive(Debug, Clone)]
pub struct NdtSpace {
    countries: Vec<String>,
    months: Vec<MonthStamp>,
    /// Cumulative Zipf weights over `countries`, ending at 1.
    cdf: Vec<f64>,
}

impl NdtSpace {
    /// Read the key space of the archive at `root`.
    pub fn from_archive(root: &Path) -> Result<NdtSpace, String> {
        let index = lacnet_core::datasets::read_shard_index(root);
        let mut rows: std::collections::BTreeMap<String, u64> = Default::default();
        let mut months = std::collections::BTreeSet::new();
        for (label, rec) in &index {
            let Some((cc, month)) = label.split_once('/') else {
                continue;
            };
            let month: MonthStamp = month
                .parse()
                .map_err(|_| format!("bad month in shard index label {label}"))?;
            *rows.entry(cc.to_owned()).or_default() += rec.rows;
            months.insert(month);
        }
        let mut countries: Vec<(String, u64)> = rows.into_iter().collect();
        countries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        NdtSpace::new(
            countries.into_iter().map(|(cc, _)| cc).collect(),
            months.into_iter().collect(),
        )
    }

    /// A key space over `countries` (Zipf rank order) and ascending,
    /// contiguous `months`.
    pub fn new(countries: Vec<String>, months: Vec<MonthStamp>) -> Result<NdtSpace, String> {
        if countries.is_empty() || months.len() < 2 {
            return Err("archive shard index names no NDT countries or months".into());
        }
        let weights: Vec<f64> = (1..=countries.len())
            .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(NdtSpace {
            countries,
            months,
            cdf,
        })
    }

    fn country(&self, rng: &mut Rng) -> &str {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c <= u);
        &self.countries[i.min(self.countries.len() - 1)]
    }

    /// `n` requests of the NDT mix from the seed's `stream`: range
    /// windows, single months, and malformed requests that must come
    /// back as typed 400s on a kept-alive connection, in the assumed
    /// shares above.
    pub fn requests(&self, seed: u64, stream: u64, n: usize) -> Vec<Req> {
        let mut rng = Rng::new(seed, stream);
        (0..n).map(|_| self.draw(&mut rng)).collect()
    }

    fn draw(&self, rng: &mut Rng) -> Req {
        let roll = rng.unit();
        let cc = self.country(rng).to_owned();
        let start = rng.below(self.months.len());
        let from = self.months[start];
        if roll < RANGE_SHARE {
            let len = 1 + rng.below(MAX_WINDOW);
            let to = self.months[(start + len - 1).min(self.months.len() - 1)];
            Req {
                target: format!("/ndt/{cc}?from={from}&to={to}"),
                expect: Expect::Ok,
            }
        } else if roll < RANGE_SHARE + MONTH_SHARE {
            Req {
                target: format!("/ndt/{cc}/{from}"),
                expect: Expect::Ok,
            }
        } else {
            let later = self.months[(start + 1).min(self.months.len() - 1)];
            let earlier = self.months[start.saturating_sub(1)];
            let target = match rng.below(6) {
                0 => format!("/ndt/{cc}?from={later}&to={earlier}"),
                1 => format!("/ndt/{cc}?from={}-13&to={from}", from.year()),
                2 => format!("/ndt/{cc}?from={from}"),
                3 => format!("/ndt/{cc}X?from={from}&to={from}"),
                4 => format!("/ndt/{cc}?from=%zz&to={from}"),
                _ => format!("/ndt/{cc}/{}-00", from.year()),
            };
            Req {
                target,
                expect: Expect::BadRequest,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> NdtSpace {
        let countries = ["BR", "MX", "VE", "AR"].map(String::from).to_vec();
        let months = MonthStamp::new(2007, 7)
            .through(MonthStamp::new(2024, 2))
            .collect();
        NdtSpace::new(countries, months).unwrap()
    }

    #[test]
    fn the_same_seed_gives_the_same_sequence_and_another_seed_changes_it() {
        let space = space();
        let a = space.requests(1, 7, 500);
        assert_eq!(a, space.requests(1, 7, 500));
        assert_ne!(a, space.requests(2, 7, 500));
        assert_ne!(a, space.requests(1, 8, 500), "streams are independent");
        let keys = battery();
        assert_eq!(hot_draws(&keys, 1, 3, 300), hot_draws(&keys, 1, 3, 300));
        assert_ne!(hot_draws(&keys, 1, 3, 300), hot_draws(&keys, 2, 3, 300));
    }

    #[test]
    fn the_mix_has_its_stated_shares_and_a_zipf_head() {
        let reqs = space().requests(5, 1, 20_000);
        let share = |f: &dyn Fn(&Req) -> bool| {
            reqs.iter().filter(|r| f(r)).count() as f64 / reqs.len() as f64
        };
        let malformed = share(&|r| r.expect == Expect::BadRequest);
        let month = share(&|r| r.expect == Expect::Ok && !r.target.contains('?'));
        assert!((malformed - 0.05).abs() < 0.01, "{malformed}");
        assert!((month - MONTH_SHARE).abs() < 0.01, "{month}");
        let br = share(&|r| r.target.starts_with("/ndt/BR"));
        let ar = share(&|r| r.target.starts_with("/ndt/AR"));
        assert!(br > 2.0 * ar, "rank 1 dominates rank 4: {br} vs {ar}");
    }

    #[test]
    fn battery_is_every_endpoint_in_both_formats() {
        let keys = battery();
        assert_eq!(keys.len(), 2 * registry::ENDPOINTS.len());
        assert_eq!(keys[0].target, "/fig/01");
        assert_eq!(keys[1].target, "/fig/01?format=tsv");
    }
}
