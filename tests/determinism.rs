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
    use lacnet::core::datasets;
    use lacnet::crisis::{bandwidth, config::windows};
    use lacnet::mlab::{columnar, BlockRun, ColumnReader};
    use lacnet::types::{country, MonthStamp};
    let config = WorldConfig {
        mlab_volume_scale: 0.05,
        ..WorldConfig::default()
    };
    let world = World::generate(config);
    let countries = [country::VE, country::BR];
    // Fresh encodes from the same seed, across different worker counts,
    // must produce the same `.ndtc` bytes down to the last block.
    let reference = datasets::encode_ndt_containers(&world, &countries, 1);
    assert_eq!(reference.len(), countries.len());
    for workers in [1, 2, 7] {
        assert_eq!(
            datasets::encode_ndt_containers(&world, &countries, workers),
            reference,
            "container bytes must not depend on worker count ({workers})"
        );
    }
    // And a month encoded in isolation is its exact span of the country's
    // container: shard RNG streams depend only on (seed, country, month).
    let month = MonthStamp::new(2022, 3);
    let shard = (country::VE, month);
    let solo = BlockRun::encode(&bandwidth::generate_shard(
        &world.operators,
        &world.config,
        &world.scenario,
        shard,
    ));
    assert!(solo.rows() > 0);
    let solo_container = columnar::assemble([&solo]);
    let solo_blocks = ColumnReader::open(&solo_container)
        .expect("standalone month opens")
        .into_blocks();
    let (first, last) = (&solo_blocks[0], &solo_blocks[solo_blocks.len() - 1]);
    let span = &solo_container[first.offset()..last.offset() + last.byte_len()];
    let ve = &reference[0];
    let index = windows::mlab_start()
        .through(world.config.end)
        .position(|m| m == month)
        .expect("month inside the window");
    let blocks_before: u64 = ve.months[..index].iter().map(|m| m.1).sum();
    let reader = ColumnReader::open(&ve.bytes).expect("container opens");
    let at = reader.blocks()[blocks_before as usize].offset();
    assert_eq!(
        &ve.bytes[at..at + span.len()],
        span,
        "a standalone month must reproduce its exact span of the container"
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
