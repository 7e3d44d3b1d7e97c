//! Bandwidth evolution (Fig. 11): the M-Lab NDT archive.
//!
//! Per-country median download targets follow anchor curves (log-linear
//! between anchors) calibrated to the paper's quotes: Venezuela stagnates
//! below 1 Mbit/s from 2010 to late 2021 and recovers to 2.93 Mbit/s by
//! July 2023, when Uruguay reaches 47.33, Brazil 32.44, Chile 25.25,
//! Mexico 18.66 and Argentina 15.48. The historical equivalences hold
//! too (Uruguay and Mexico pass 2.93 around November 2013, Chile around
//! June 2017, Argentina in April 2018, Brazil in September 2019), and the
//! normalised panel falls from ≈0.9 to ≈0.2 of the regional mean.
//!
//! The actual *rows* are produced by [`lacnet_mlab::SpeedSampler`] around
//! these targets — the pipeline then re-estimates the medians from the
//! rows, exactly as the paper reduces 447M tests.

use crate::config::WorldConfig;
use crate::operators::Operators;
use crate::scenario::Scenario;
use lacnet_mlab::aggregate::{Mode, MonthlyAggregator};
use lacnet_mlab::multi::MultiAggregator;
use lacnet_mlab::{NdtTest, SpeedSampler};
use lacnet_types::rng::Rng;
use lacnet_types::{country, sweep, CountryCode, MonthStamp, TimeSeries};

/// Median download anchors `(country, [(year, month, mbps)])`.
/// `(country, anchor points)` where each anchor is `(year, month, Mbps)`.
type SpeedAnchors = (&'static str, &'static [(i32, u8, f64)]);

#[allow(clippy::type_complexity)]
const ANCHORS: &[SpeedAnchors] = &[
    (
        "VE",
        &[
            (2007, 7, 0.45),
            (2010, 1, 0.80),
            (2013, 1, 0.85),
            (2016, 1, 0.62),
            (2019, 1, 0.55),
            (2021, 10, 0.95),
            (2023, 7, 2.93),
            (2024, 2, 3.1),
        ],
    ),
    (
        "UY",
        &[
            (2007, 7, 0.70),
            (2013, 11, 2.93),
            (2017, 1, 11.0),
            (2020, 1, 28.0),
            (2023, 7, 47.33),
            (2024, 2, 49.0),
        ],
    ),
    (
        "MX",
        &[
            (2007, 7, 0.80),
            (2013, 11, 2.93),
            (2017, 1, 6.5),
            (2020, 1, 11.0),
            (2023, 7, 18.66),
            (2024, 2, 19.5),
        ],
    ),
    (
        "CL",
        &[
            (2007, 7, 0.60),
            (2013, 1, 1.7),
            (2017, 6, 2.93),
            (2020, 1, 11.0),
            (2023, 7, 25.25),
            (2024, 2, 26.5),
        ],
    ),
    (
        "AR",
        &[
            (2007, 7, 0.50),
            (2013, 1, 1.5),
            (2018, 4, 2.93),
            (2020, 6, 7.0),
            (2023, 7, 15.48),
            (2024, 2, 16.2),
        ],
    ),
    (
        "BR",
        &[
            (2007, 7, 0.45),
            (2013, 1, 1.1),
            (2019, 9, 2.93),
            (2021, 6, 11.0),
            (2023, 7, 32.44),
            (2024, 2, 34.0),
        ],
    ),
    (
        "CO",
        &[
            (2007, 7, 0.50),
            (2013, 1, 1.3),
            (2018, 1, 3.5),
            (2021, 1, 7.5),
            (2023, 7, 14.0),
            (2024, 2, 15.0),
        ],
    ),
    (
        "CR",
        &[
            (2007, 7, 0.60),
            (2013, 1, 1.8),
            (2018, 1, 5.0),
            (2021, 1, 11.0),
            (2023, 7, 20.0),
            (2024, 2, 21.0),
        ],
    ),
    (
        "PA",
        &[
            (2007, 7, 0.55),
            (2013, 1, 1.8),
            (2018, 1, 5.5),
            (2021, 1, 11.0),
            (2023, 7, 18.0),
            (2024, 2, 19.0),
        ],
    ),
    (
        "PE",
        &[
            (2007, 7, 0.40),
            (2013, 1, 1.0),
            (2018, 1, 3.5),
            (2021, 1, 7.0),
            (2023, 7, 13.0),
            (2024, 2, 14.0),
        ],
    ),
    (
        "EC",
        &[
            (2007, 7, 0.35),
            (2013, 1, 1.0),
            (2018, 1, 3.0),
            (2021, 1, 7.0),
            (2023, 7, 12.0),
            (2024, 2, 13.0),
        ],
    ),
    (
        "DO",
        &[
            (2007, 7, 0.40),
            (2013, 1, 1.1),
            (2018, 1, 3.2),
            (2021, 1, 6.5),
            (2023, 7, 12.0),
            (2024, 2, 13.0),
        ],
    ),
    (
        "TT",
        &[
            (2007, 7, 0.60),
            (2013, 1, 1.9),
            (2018, 1, 5.0),
            (2021, 1, 9.0),
            (2023, 7, 15.0),
            (2024, 2, 16.0),
        ],
    ),
    (
        "PY",
        &[
            (2007, 7, 0.30),
            (2013, 1, 0.9),
            (2018, 1, 2.8),
            (2021, 1, 7.0),
            (2023, 7, 14.0),
            (2024, 2, 15.0),
        ],
    ),
    (
        "GT",
        &[
            (2007, 7, 0.30),
            (2013, 1, 0.8),
            (2018, 1, 2.2),
            (2021, 1, 4.5),
            (2023, 7, 8.0),
            (2024, 2, 8.5),
        ],
    ),
    (
        "BO",
        &[
            (2007, 7, 0.20),
            (2013, 1, 0.6),
            (2018, 1, 1.6),
            (2021, 1, 3.5),
            (2023, 7, 6.5),
            (2024, 2, 7.0),
        ],
    ),
    (
        "SV",
        &[
            (2007, 7, 0.30),
            (2013, 1, 0.8),
            (2018, 1, 2.2),
            (2021, 1, 4.5),
            (2023, 7, 8.5),
            (2024, 2, 9.0),
        ],
    ),
    (
        "HN",
        &[
            (2007, 7, 0.25),
            (2013, 1, 0.7),
            (2018, 1, 1.8),
            (2021, 1, 3.5),
            (2023, 7, 6.0),
            (2024, 2, 6.5),
        ],
    ),
    (
        "NI",
        &[
            (2007, 7, 0.20),
            (2013, 1, 0.6),
            (2018, 1, 1.5),
            (2021, 1, 3.0),
            (2023, 7, 5.0),
            (2024, 2, 5.5),
        ],
    ),
    (
        "HT",
        &[
            (2007, 7, 0.15),
            (2013, 1, 0.4),
            (2018, 1, 0.9),
            (2021, 1, 1.5),
            (2023, 7, 2.2),
            (2024, 2, 2.4),
        ],
    ),
    (
        "CU",
        &[
            (2007, 7, 0.10),
            (2013, 1, 0.3),
            (2018, 1, 0.7),
            (2021, 1, 1.1),
            (2023, 7, 1.6),
            (2024, 2, 1.8),
        ],
    ),
    (
        "GY",
        &[
            (2007, 7, 0.25),
            (2013, 1, 0.7),
            (2018, 1, 2.0),
            (2021, 1, 5.0),
            (2023, 7, 12.0),
            (2024, 2, 14.0),
        ],
    ),
    (
        "SR",
        &[
            (2007, 7, 0.30),
            (2013, 1, 0.8),
            (2018, 1, 2.5),
            (2021, 1, 5.5),
            (2023, 7, 10.0),
            (2024, 2, 11.0),
        ],
    ),
    (
        "GF",
        &[
            (2007, 7, 0.70),
            (2013, 1, 2.2),
            (2018, 1, 6.0),
            (2021, 1, 12.0),
            (2023, 7, 20.0),
            (2024, 2, 21.0),
        ],
    ),
    (
        "CW",
        &[
            (2007, 7, 0.80),
            (2013, 1, 2.6),
            (2018, 1, 8.0),
            (2021, 1, 15.0),
            (2023, 7, 25.0),
            (2024, 2, 26.0),
        ],
    ),
    (
        "AW",
        &[
            (2007, 7, 0.80),
            (2013, 1, 2.6),
            (2018, 1, 8.0),
            (2021, 1, 15.0),
            (2023, 7, 25.0),
            (2024, 2, 26.0),
        ],
    ),
    (
        "BQ",
        &[
            (2007, 7, 0.70),
            (2013, 1, 2.2),
            (2018, 1, 6.5),
            (2021, 1, 12.0),
            (2023, 7, 20.0),
            (2024, 2, 21.0),
        ],
    ),
    (
        "SX",
        &[
            (2007, 7, 0.75),
            (2013, 1, 2.4),
            (2018, 1, 7.0),
            (2021, 1, 13.0),
            (2023, 7, 22.0),
            (2024, 2, 23.0),
        ],
    ),
    (
        "BZ",
        &[
            (2007, 7, 0.25),
            (2013, 1, 0.7),
            (2018, 1, 1.9),
            (2021, 1, 4.0),
            (2023, 7, 7.0),
            (2024, 2, 7.5),
        ],
    ),
];

/// The paper's aggregate volumes, scaled: monthly expected NDT tests per
/// country at `mlab_volume_scale == 1.0` (≈1/1000 of the real archive).
fn monthly_volume(cc: CountryCode) -> f64 {
    match cc.as_str() {
        "BR" => 900.0,
        "MX" => 280.0,
        "AR" => 260.0,
        "CL" => 180.0,
        "CO" => 190.0,
        "VE" => 100.0, // ≈3.9M real tests over ~200 months, /1000 ≈ 20; boosted for estimator stability
        "PE" | "EC" | "UY" | "CR" | "DO" | "PA" => 80.0,
        _ => 30.0,
    }
}

/// The target median download for `country` at `month`, Mbit/s.
pub fn median_target(cc: CountryCode, month: MonthStamp) -> f64 {
    let Some(&(_, anchors)) = ANCHORS.iter().find(|&&(c, _)| c == cc.as_str()) else {
        return 0.0;
    };
    let pts: TimeSeries = anchors
        .iter()
        .map(|&(y, m, v)| (MonthStamp::new(y, m), v.ln()))
        .collect();
    pts.resample_monthly(month, month)
        .get(month)
        .map(f64::exp)
        .unwrap_or(0.0)
}

/// Generate one country-month of NDT rows, attributed to the incumbent
/// (the aggregate view the Fig. 11 reduction uses).
pub fn generate_month(
    ops: &Operators,
    cc: CountryCode,
    month: MonthStamp,
    scale: f64,
    rng: &mut Rng,
) -> Vec<NdtTest> {
    let median = median_target(cc, month);
    if median <= 0.0 {
        return Vec::new();
    }
    let asn = ops
        .incumbent(cc)
        .map(|o| o.asn)
        .unwrap_or(lacnet_types::Asn(0));
    let sampler = SpeedSampler::default();
    sampler.generate_month(cc, asn, month, median, monthly_volume(cc) * scale, rng)
}

/// The per-network speed multiplier against the country median — §7.1's
/// intra-Venezuela story: CANTV's copper plant drags below the median
/// while the fibre entrants (Airtek, Fibex, Thundernet, Viginet) run
/// several times above it once they appear, which is what lifts the
/// country median after late 2021.
pub fn network_speed_factor(cc: CountryCode, asn: lacnet_types::Asn, month: MonthStamp) -> f64 {
    if cc != country::VE {
        return 1.0;
    }
    match asn.raw() {
        8048 => {
            // CANTV: below the median throughout; the 2022 fibre plans
            // reach only East Caracas and barely move its median.
            if month >= MonthStamp::new(2022, 1) {
                0.75
            } else {
                0.65
            }
        }
        21826 => 1.3,                            // Telemic/Inter: cable, above median
        6306 => 1.1,                             // Telefónica
        264731 => 1.2,                           // Digitel (mobile broadband)
        61461 | 264628 | 263703 | 272809 => 3.0, // the fibre entrants
        11562 => 1.4,                            // NetUno cable
        _ => 0.9,                                // the small-access tail
    }
}

/// Generate one country-month of NDT rows spread across the country's
/// eyeball networks: test volume proportional to users, each network's
/// median at `country median × network factor`.
pub fn generate_month_by_network(
    ops: &Operators,
    cc: CountryCode,
    month: MonthStamp,
    scale: f64,
    rng: &mut Rng,
) -> Vec<NdtTest> {
    let country_median = median_target(cc, month);
    if country_median <= 0.0 {
        return Vec::new();
    }
    let sampler = SpeedSampler::default();
    let eyeballs = ops.eyeballs(cc);
    let total_users: u64 = eyeballs.iter().map(|o| o.users).sum();
    if total_users == 0 {
        return Vec::new();
    }
    let volume = monthly_volume(cc) * scale;
    let mut out = Vec::new();
    for op in eyeballs {
        // Networks not yet founded produce no tests.
        if cc == country::VE && month < crate::topology::ve_founding_month(op.asn) {
            continue;
        }
        let share = op.users as f64 / total_users as f64;
        let median = country_median * network_speed_factor(cc, op.asn, month);
        out.extend(sampler.generate_month(cc, op.asn, month, median, volume * share, rng));
    }
    out
}

/// One unit of the sharded NDT build: a `(country, month)` cell of the
/// archive. [`shard_plan`] fixes the order the merge step follows.
pub type NdtShard = (CountryCode, MonthStamp);

/// The full shard plan for a window: every LACNIC country crossed with
/// every month of `[start, end]`, countries in registry order, months
/// ascending within a country. Both the serial reference and the parallel
/// build reduce shards in exactly this order — the streaming P² estimator
/// is order-sensitive, so a fixed merge order is what makes the output
/// byte-identical regardless of worker count.
pub fn shard_plan(start: MonthStamp, end: MonthStamp) -> Vec<NdtShard> {
    let mut plan = Vec::new();
    for cc in country::lacnic_codes() {
        for m in start.through(end) {
            plan.push((cc, m));
        }
    }
    plan
}

/// Generate one shard of aggregate-view rows — the one place a shard's
/// RNG label and volume rule are written. Every shard owns an independent
/// RNG substream derived from `(seed, country, month)`, so a shard's bytes
/// depend on neither the worker that runs it nor the order shards are
/// claimed in. Its volume is the config's effective per-country scale
/// ([`WorldConfig::mlab_scale_for`]) times the scenario's per-month M-Lab
/// factor ([`Scenario::mlab_factor`]), so the in-memory aggregate and the
/// dumped containers are built from the very same rows.
pub fn generate_shard(
    ops: &Operators,
    config: &WorldConfig,
    scenario: &Scenario,
    shard: NdtShard,
) -> Vec<NdtTest> {
    let (cc, month) = shard;
    let scale = config.mlab_scale_for(cc) * scenario.mlab_factor(cc, month);
    let mut rng = Rng::seeded(config.seed).fork(&format!("mlab/{cc}/{month}"));
    generate_month(ops, cc, month, scale, &mut rng)
}

/// Generate one shard of per-network rows (the `multi` archive view),
/// under the same independent-substream contract as [`generate_shard`].
pub fn generate_network_shard(
    ops: &Operators,
    seed: u64,
    scale: f64,
    shard: NdtShard,
) -> Vec<NdtTest> {
    let (cc, month) = shard;
    let mut rng = Rng::seeded(seed).fork(&format!("mlab-net/{cc}/{month}"));
    generate_month_by_network(ops, cc, month, scale, &mut rng)
}

/// Generate the full archive into a streaming aggregator (the analysis
/// half never sees the targets, only the rows). Shards are generated on
/// `workers` [`lacnet_types::sweep`] workers and merged in [`shard_plan`]
/// order, so the aggregate does not depend on `workers`.
pub fn build_aggregate(
    workers: usize,
    ops: &Operators,
    config: &WorldConfig,
    scenario: &Scenario,
    start: MonthStamp,
    end: MonthStamp,
) -> MonthlyAggregator {
    let plan = shard_plan(start, end);
    let batches = sweep::parallel_map_with(workers, &plan, |&s| {
        generate_shard(ops, config, scenario, s)
    });
    let mut agg = MonthlyAggregator::new(Mode::Streaming);
    for batch in &batches {
        agg.observe_all(batch);
    }
    agg
}

/// Build the per-network `multi` archive view into a by-ASN aggregator,
/// sharded the same way as [`build_aggregate`] on the default worker count.
pub fn build_multi_aggregate(
    ops: &Operators,
    seed: u64,
    scale: f64,
    start: MonthStamp,
    end: MonthStamp,
) -> MultiAggregator {
    let plan = shard_plan(start, end);
    let batches = sweep::parallel_map(&plan, |&s| generate_network_shard(ops, seed, scale, s));
    let mut agg = MultiAggregator::by_asn();
    for batch in &batches {
        agg.observe_all(batch);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_quoted_medians() {
        let at = |cc: &str| median_target(CountryCode::of(cc), MonthStamp::new(2023, 7));
        assert!((at("VE") - 2.93).abs() < 0.05, "VE {}", at("VE"));
        assert!((at("UY") - 47.33).abs() < 0.5, "UY {}", at("UY"));
        assert!((at("BR") - 32.44).abs() < 0.5, "BR {}", at("BR"));
        assert!((at("CL") - 25.25).abs() < 0.5, "CL {}", at("CL"));
        assert!((at("MX") - 18.66).abs() < 0.5, "MX {}", at("MX"));
        assert!((at("AR") - 15.48).abs() < 0.5, "AR {}", at("AR"));
    }

    #[test]
    fn ve_stagnation_below_one_mbps() {
        for y in 2010..=2021 {
            let v = median_target(country::VE, MonthStamp::new(y, 6));
            assert!(v < 1.0, "{y}: {v}");
        }
        // Recovery since late 2021.
        assert!(median_target(country::VE, MonthStamp::new(2023, 1)) > 1.5);
    }

    #[test]
    fn historical_equivalences() {
        // "equivalent to the values achieved in Uruguay and Mexico in
        // November 2013, Chile in June 2017, Argentina in April 2018, and
        // Brazil in September 2019."
        for (cc, y, m) in [
            ("UY", 2013, 11),
            ("MX", 2013, 11),
            ("CL", 2017, 6),
            ("AR", 2018, 4),
            ("BR", 2019, 9),
        ] {
            let v = median_target(CountryCode::of(cc), MonthStamp::new(y, m));
            assert!((v - 2.93).abs() < 0.3, "{cc} {y}-{m}: {v}");
        }
    }

    #[test]
    fn normalised_curve_falls_from_near_average() {
        let mean_at = |m: MonthStamp| {
            let vals: Vec<f64> = country::lacnic_codes()
                .map(|cc| median_target(cc, m))
                .filter(|v| *v > 0.0)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let m2009 = MonthStamp::new(2009, 6);
        let norm_2009 = median_target(country::VE, m2009) / mean_at(m2009);
        assert!((0.70..=1.05).contains(&norm_2009), "2009 norm {norm_2009}");
        let m2023 = MonthStamp::new(2023, 7);
        let norm_2023 = median_target(country::VE, m2023) / mean_at(m2023);
        assert!((0.12..=0.26).contains(&norm_2023), "2023 norm {norm_2023}");
        assert!(norm_2023 < norm_2009 / 3.0, "relative collapse");
    }

    #[test]
    fn rows_reestimate_the_targets() {
        let ops = Operators::generate(42);
        let config = WorldConfig {
            seed: 42,
            mlab_volume_scale: 2.0,
            ..WorldConfig::default()
        };
        let agg = build_aggregate(
            2,
            &ops,
            &config,
            &Scenario::venezuela(),
            MonthStamp::new(2023, 6),
            MonthStamp::new(2023, 8),
        );
        let ve = agg.median_series(country::VE);
        let est = ve.get(MonthStamp::new(2023, 7)).unwrap();
        assert!((est - 2.93).abs() / 2.93 < 0.3, "estimated {est}");
        let uy = agg
            .median_series(country::UY)
            .get(MonthStamp::new(2023, 7))
            .unwrap();
        assert!((uy - 47.33).abs() / 47.33 < 0.35, "estimated UY {uy}");
    }

    #[test]
    fn per_network_split_shows_the_fibre_story() {
        use lacnet_mlab::multi::{Group, Metric, MultiAggregator};
        let ops = Operators::generate(42);
        let root = Rng::seeded(5);
        let mut rng = root.fork("per-network");
        let mut agg = MultiAggregator::by_asn();
        let m = MonthStamp::new(2023, 7);
        for _ in 0..5 {
            agg.observe_all(&generate_month_by_network(
                &ops,
                country::VE,
                m,
                3.0,
                &mut rng,
            ));
        }
        let med = |asn: u32| {
            agg.median_series(
                Group::CountryAsn(country::VE, lacnet_types::Asn(asn)),
                Metric::Download,
            )
            .get(m)
            .unwrap_or(0.0)
        };
        let cantv = med(8048);
        let airtek = med(61461);
        assert!(cantv > 0.0 && airtek > 0.0);
        assert!(
            airtek > 2.5 * cantv,
            "fibre entrant {airtek} vs CANTV {cantv}"
        );
    }

    #[test]
    fn per_network_volumes_track_users_and_founding() {
        let ops = Operators::generate(42);
        let root = Rng::seeded(6);
        let mut rng = root.fork("volumes");
        // Before Airtek's 2016 founding it produces no tests.
        let early =
            generate_month_by_network(&ops, country::VE, MonthStamp::new(2014, 1), 3.0, &mut rng);
        assert!(early.iter().all(|t| t.asn != lacnet_types::Asn(61461)));
        // Later, CANTV (21.5% of users) produces the most tests.
        let late =
            generate_month_by_network(&ops, country::VE, MonthStamp::new(2023, 7), 3.0, &mut rng);
        let count = |asn: u32| {
            late.iter()
                .filter(|t| t.asn == lacnet_types::Asn(asn))
                .count()
        };
        assert!(count(8048) > count(21826));
        assert!(count(61461) > 0);
    }

    #[test]
    fn volumes_are_proportional() {
        let ops = Operators::generate(42);
        let root = Rng::seeded(1);
        let mut rng = root.fork("x");
        let br = generate_month(&ops, country::BR, MonthStamp::new(2020, 1), 1.0, &mut rng).len();
        let ve = generate_month(&ops, country::VE, MonthStamp::new(2020, 1), 1.0, &mut rng).len();
        assert!(br > 5 * ve, "BR {br} vs VE {ve}");
        assert!(ve > 50);
    }
}
