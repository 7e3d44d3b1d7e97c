//! Reproducibility: identical seeds give bit-identical artifacts; other
//! seeds still reproduce the paper (the conclusions don't hinge on one
//! lucky RNG stream).

use lacnet::core::{experiments, DataSource};
use lacnet::crisis::{World, WorldConfig};

#[test]
fn same_seed_same_artifacts() {
    let config = WorldConfig {
        mlab_volume_scale: 0.05,
        ..WorldConfig::default()
    };
    let a = World::generate(config);
    let b = World::generate(config);
    // Spot-check structured equality across dataset kinds.
    assert_eq!(a.operators.all(), b.operators.all());
    assert_eq!(a.cert_scans, b.cert_scans);
    assert_eq!(a.top_sites, b.top_sites);
    assert_eq!(
        a.pfx2as_at(lacnet::types::MonthStamp::new(2020, 6))
            .to_text(),
        b.pfx2as_at(lacnet::types::MonthStamp::new(2020, 6))
            .to_text()
    );
    // And the figure series themselves.
    let fa = experiments::fig11_bandwidth::run(&DataSource::from(a));
    let fb = experiments::fig11_bandwidth::run(&DataSource::from(b));
    assert_eq!(fa.artifacts, fb.artifacts);
}

#[test]
fn same_seed_same_ndt_archive_bytes() {
    use lacnet::crisis::bandwidth;
    use lacnet::types::MonthStamp;
    let config = WorldConfig {
        mlab_volume_scale: 0.05,
        ..WorldConfig::default()
    };
    let world = World::generate(config);
    let (start, end) = (MonthStamp::new(2022, 1), MonthStamp::new(2022, 4));
    // Two fresh builds from the same seed, across different worker
    // counts, must produce the same TSV bytes down to the last row.
    let reference =
        bandwidth::build_archive_serial(&world.operators, config.seed, 0.05, start, end);
    assert!(!reference.is_empty());
    for workers in [1, 2, 7] {
        assert_eq!(
            bandwidth::build_archive_with_workers(
                workers,
                &world.operators,
                config.seed,
                0.05,
                start,
                end
            ),
            reference
        );
    }
    // And a shard regenerated in isolation matches its slice of the plan:
    // shard RNG streams depend only on (seed, country, month).
    let shard = (lacnet::types::country::VE, MonthStamp::new(2022, 3));
    let solo = bandwidth::generate_shard(&world.operators, config.seed, 0.05, shard);
    let again = bandwidth::generate_shard(&world.operators, config.seed, 0.05, shard);
    assert_eq!(solo, again);
    let rendered: String = solo.iter().map(|t| t.to_row() + "\n").collect();
    assert!(
        reference.contains(&rendered),
        "a standalone shard must reproduce its exact span of the archive"
    );
}

#[test]
fn different_seed_still_reproduces_headlines() {
    let config = WorldConfig {
        seed: 0xDEAD_BEEF,
        mlab_volume_scale: 0.4,
        ..WorldConfig::default()
    };
    let src = DataSource::from(World::generate(config));
    for result in [
        experiments::fig01_macro::run(&src),
        experiments::fig03_facilities::run(&src),
        experiments::fig04_cables::run(&src),
        experiments::fig08_cantv_degree::run(&src),
        experiments::fig11_bandwidth::run(&src),
        experiments::fig12_gpdns_rtt::run(&src),
        experiments::tab01_isps::run(&src),
    ] {
        assert!(
            result.all_match(),
            "{} diverges under seed 0xDEADBEEF: {:#?}",
            result.id,
            result.findings
        );
    }
}
