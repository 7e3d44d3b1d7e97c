//! The parallel paths are pure speed: byte-identical output to the
//! serial reference implementations, and each pfx2as month derived at
//! most once per process no matter how many sweeps race for it.

use lacnet::core::{experiments, extensions, registry, render, DataSource};
use lacnet::crisis::operators::Operators;
use lacnet::crisis::{bandwidth, Scenario, World, WorldConfig};
use lacnet::mlab::aggregate::{Mode, MonthlyAggregator};
use lacnet::types::MonthStamp;
use std::sync::OnceLock;

/// World generation takes seconds; the test binary builds one and shares
/// it across every test in the file.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test()))
}

/// The same test world behind the in-memory battery interface,
/// generated on its own and moved in.
fn source() -> &'static DataSource {
    static SOURCE: OnceLock<DataSource> = OnceLock::new();
    SOURCE.get_or_init(|| DataSource::from(World::generate(WorldConfig::test())))
}

#[test]
fn parallel_battery_matches_serial_byte_for_byte() {
    let src = source();
    let parallel = experiments::all(src);
    // The serial reference: every registry entry in paper order on the
    // calling thread.
    let serial: Vec<_> = registry::paper_battery()
        .into_iter()
        .map(|run| run(src))
        .collect();
    assert_eq!(parallel.len(), serial.len());
    // Structured equality first (better failure messages) …
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.id, s.id, "battery order must be paper order");
        assert_eq!(p, s, "{} diverged between parallel and serial runs", p.id);
    }
    // … then the rendered report, the actual published byte stream.
    let render_all = |results: &[lacnet::core::ExperimentResult]| -> String {
        results.iter().map(render::render_result).collect()
    };
    assert_eq!(render_all(&parallel), render_all(&serial));
}

#[test]
fn parallel_extensions_match_serial() {
    let src = source();
    let parallel = extensions::all(src);
    let serial = vec![
        extensions::ext_blackouts(src),
        extensions::ext_inference(src),
        extensions::ext_network_split(src),
    ];
    assert_eq!(parallel, serial);
}

/// The serial reference the sharded NDT aggregate is checked against:
/// one thread, shards reduced in plan order.
fn build_aggregate_serial(
    ops: &Operators,
    config: &WorldConfig,
    scenario: &Scenario,
    start: MonthStamp,
    end: MonthStamp,
) -> MonthlyAggregator {
    let mut agg = MonthlyAggregator::new(Mode::Streaming);
    for &shard in &bandwidth::shard_plan(start, end) {
        agg.observe_all(&bandwidth::generate_shard(ops, config, scenario, shard));
    }
    agg
}

/// Every group's full estimator state: `Debug` spells out each P²
/// marker with shortest-roundtrip floats, so equal strings are
/// bit-identical aggregates.
fn state(agg: &MonthlyAggregator) -> String {
    format!("{agg:?}")
}

#[test]
fn sharded_ndt_build_is_worker_count_invariant() {
    use lacnet::types::country;
    let world = world();
    let ops = &world.operators;
    let (start, end) = (MonthStamp::new(2019, 1), MonthStamp::new(2019, 6));
    // A raw volume scale under the default scenario, and a per-country
    // boost under a scenario whose `[[mlab]]` factors are not 1 (the
    // boosted country is one the scenario rescales too).
    let plain = WorldConfig {
        mlab_volume_scale: 0.5,
        ..world.config
    };
    let boosted = WorldConfig {
        mlab_country_boost: Some((country::VE, 2.5)),
        ..plain
    };
    let displaced = Scenario::builtin("sudden-displacement").expect("built-in scenario");
    assert_ne!(displaced.mlab_factor(country::VE, start), 1.0);
    for (config, scenario) in [(&plain, &Scenario::venezuela()), (&boosted, &displaced)] {
        let serial = build_aggregate_serial(ops, config, scenario, start, end);
        assert!(serial.group_count() > 0);
        for workers in [1, 2, 7] {
            assert_eq!(
                state(&bandwidth::build_aggregate(
                    workers, ops, config, scenario, start, end
                )),
                state(&serial),
                "aggregate must not depend on worker count ({workers}, {})",
                scenario.name
            );
        }
    }
}

#[test]
fn ndt_container_bytes_are_worker_count_invariant() {
    use lacnet::core::datasets;
    use lacnet::mlab::ColumnReader;
    use lacnet::types::country;
    let world = world();
    // BR holds most rows; VE and AR are ordinary.
    let countries = [country::BR, country::VE, country::AR];
    let serial = datasets::encode_ndt_containers(world, &countries, 1);
    assert_eq!(serial.len(), countries.len());
    for workers in [2, 7] {
        assert_eq!(
            datasets::encode_ndt_containers(world, &countries, workers),
            serial,
            "container bytes must not depend on worker count ({workers})"
        );
    }
    // The assembled container holds every planned month's blocks in
    // order, and its footer agrees with the per-month census.
    for container in &serial {
        let reader = ColumnReader::open(&container.bytes).expect("container opens");
        let census_blocks: u64 = container.months.iter().map(|m| m.1).sum();
        let census_rows: u64 = container.months.iter().map(|m| m.0).sum();
        assert_eq!(reader.blocks().len() as u64, census_blocks);
        assert_eq!(reader.rows() as u64, census_rows);
        let spans: Vec<(i64, i64)> = reader.blocks().iter().map(|b| b.day_span()).collect();
        assert!(spans.windows(2).all(|w| w[0].1 <= w[1].0), "months ascend");
    }
}

#[test]
fn world_mlab_stream_is_the_sharded_build() {
    use lacnet::crisis::config::windows;
    let world = world();
    // `World::generate` must aggregate exactly the shard stream any
    // worker count produces — rebuild it serially and compare states.
    let rebuilt = build_aggregate_serial(
        &world.operators,
        &world.config,
        &world.scenario,
        windows::mlab_start(),
        world.config.end,
    );
    assert_eq!(state(&world.mlab), state(&rebuilt));
}

#[test]
fn cached_cone_matches_fresh_compute_and_computes_once() {
    use lacnet::types::Asn;
    let world = world();
    let cantv = Asn(8048);
    for m in [
        MonthStamp::new(1998, 1),
        MonthStamp::new(2013, 6),
        world.config.end,
    ] {
        assert_eq!(
            *world.customer_cone_at(m, cantv),
            world.customer_cone_uncached(m, cantv),
            "cached cone for {m} must equal a fresh walk"
        );
    }
    // Racing consumers of the same (month, asn) share one computation.
    let m = MonthStamp::new(2016, 2);
    let before = world.cone_computations();
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| world.customer_cone_at(m, cantv));
        }
    });
    assert_eq!(
        world.cone_computations() - before,
        1,
        "six racing requests, one cone walk"
    );
    // The cached series equals the serial analytics reference.
    assert_eq!(
        world.cone_size_series(cantv),
        lacnet::bgp::analytics::cone_size_series(&world.topology, cantv)
    );
}

#[test]
fn cached_pfx2as_matches_fresh_compute() {
    let world = world();
    for m in [
        MonthStamp::new(2008, 1),
        MonthStamp::new(2016, 6),
        MonthStamp::new(2023, 7),
        world.config.end,
    ] {
        assert_eq!(
            world.pfx2as_at(m).to_text(),
            world.pfx2as_uncached(m).to_text(),
            "cached table for {m} must equal a fresh derivation"
        );
    }
    // A month outside the topology window: both paths agree it is empty.
    let outside = MonthStamp::new(1990, 1);
    assert!(world.pfx2as_at(outside).is_empty());
    assert!(world.pfx2as_uncached(outside).is_empty());
}

#[test]
fn pfx2as_months_compute_at_most_once_across_sweeps() {
    // Drive the two heavy pfx2as consumers concurrently, twice each.
    let src = source();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| experiments::fig02_address_space::run(src));
            s.spawn(|| experiments::fig14_prefix_heatmap::run(src));
        }
    });
    let after_first = src.pfx2as_computations();
    // The union of both figures' windows is bounded by the full pfx2as
    // window — more computations than distinct months would mean
    // duplicate work. The other tests in this binary share the source and
    // touch a handful of months of their own (one outside the window),
    // hence the small slack.
    let window_months = lacnet::crisis::config::windows::pfx2as_start()
        .through(src.config.end)
        .count();
    assert!(
        after_first <= window_months + 8,
        "{after_first} computations for a {window_months}-month window"
    );
    // Re-running the same sweeps adds no computations at all.
    experiments::fig02_address_space::run(src);
    experiments::fig14_prefix_heatmap::run(src);
    assert_eq!(src.pfx2as_computations(), after_first);
}
