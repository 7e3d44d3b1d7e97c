//! Incremental archive refresh: a re-dump regenerates only the NDT
//! containers whose inputs changed.
//!
//! The dump records every country container's input fingerprint (seed,
//! effective per-country volume scale, month window) in
//! `mlab/manifest.tsv`. This suite proves the three properties that make
//! the manifest trustworthy:
//!
//! 1. a re-dump of an unchanged configuration rewrites **zero**
//!    containers (their mtimes are untouched);
//! 2. touching one country's volume knob regenerates **only** that
//!    country's container — every other container keeps its mtime and
//!    bytes;
//! 3. the incrementally refreshed tree drives the full experiment
//!    battery to byte-identical output with a from-scratch dump of the
//!    same configuration.

use lacnet::core::render::canonical_tsv;
use lacnet::core::{datasets, experiments, extensions, DataSource};
use lacnet::crisis::{Scenario, World, WorldConfig};
use lacnet::types::country;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::SystemTime;

/// (relative container path -> mtime) for every NDT container in the
/// tree.
fn container_mtimes(root: &Path) -> BTreeMap<String, SystemTime> {
    country::lacnic_codes()
        .map(|cc| {
            let rel = datasets::mlab_container_path(cc);
            let mtime = std::fs::metadata(root.join(&rel))
                .and_then(|m| m.modified())
                .expect("container exists with a readable mtime");
            (rel, mtime)
        })
        .collect()
}

fn battery(src: &DataSource) -> Vec<String> {
    let mut results = experiments::all(src);
    results.extend(extensions::all(src));
    results.iter().map(canonical_tsv).collect()
}

#[test]
fn touching_one_country_refreshes_only_its_shards() {
    let base_config = WorldConfig::test();
    let boosted_config = WorldConfig {
        mlab_country_boost: Some((country::VE, 2.0)),
        ..base_config
    };
    let dir = std::env::temp_dir().join(format!("lacnet-incr-{}", std::process::id()));
    let scratch = std::env::temp_dir().join(format!("lacnet-incr-scratch-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();

    // Property 1: a re-dump of the same configuration rewrites nothing.
    let countries = country::lacnic_codes().count();
    let base = World::generate(base_config);
    let first = datasets::dump(&base, &dir).expect("initial dump");
    assert_eq!(first.containers_written, countries);
    assert_eq!(first.containers_skipped, 0);
    let before = container_mtimes(&dir);
    let again = datasets::dump(&base, &dir).expect("unchanged re-dump");
    assert_eq!(
        again.containers_written, 0,
        "unchanged config rewrote containers"
    );
    assert_eq!(again.containers_skipped, countries);
    assert_eq!(
        container_mtimes(&dir),
        before,
        "an unchanged re-dump must not touch any container"
    );

    // Property 2: boosting VE's volume rewrites exactly `mlab/VE.ndtc`.
    let boosted = World::generate(boosted_config);
    let before_bytes: BTreeMap<String, Vec<u8>> = before
        .keys()
        .map(|rel| (rel.clone(), std::fs::read(dir.join(rel)).unwrap()))
        .collect();
    let refreshed = datasets::dump(&boosted, &dir).expect("boosted re-dump");
    assert_eq!(refreshed.containers_written, 1);
    assert_eq!(refreshed.containers_skipped, countries - 1);
    let after = container_mtimes(&dir);
    for (rel, mtime) in &before {
        let bytes = std::fs::read(dir.join(rel)).unwrap();
        if rel.starts_with("mlab/VE.") {
            assert_ne!(bytes, before_bytes[rel], "{rel} was not regenerated");
            continue;
        }
        assert_eq!(
            after[rel], *mtime,
            "{rel} was rewritten although its inputs did not change"
        );
        assert_eq!(bytes, before_bytes[rel], "{rel} changed bytes");
    }
    let ve_sample = "mlab/VE.ndtc";

    // Property 3: the refreshed tree and a from-scratch dump of the
    // boosted world agree on every battery artifact, byte for byte.
    datasets::dump(&boosted, &scratch).expect("from-scratch dump");
    assert_eq!(
        std::fs::read(dir.join(ve_sample)).unwrap(),
        std::fs::read(scratch.join(ve_sample)).unwrap(),
        "refreshed VE container must equal the from-scratch bytes"
    );
    let refreshed_src = DataSource::from_archive(&dir).expect("refreshed tree loads");
    let scratch_src = DataSource::from_archive(&scratch).expect("scratch tree loads");
    assert_eq!(
        battery(&refreshed_src),
        battery(&scratch_src),
        "incremental refresh changed battery output"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// Every file of an explicit `--scenario venezuela` dump must equal the
/// no-flag dump byte for byte — the byte-identity contract of the
/// scenario layer — and switching scenarios must invalidate every
/// container while a same-scenario re-run invalidates none.
#[test]
fn scenario_switch_refreshes_every_shard_and_default_is_byte_identical() {
    let config = WorldConfig::test();
    let dir = std::env::temp_dir().join(format!("lacnet-scn-{}", std::process::id()));
    let explicit = std::env::temp_dir().join(format!("lacnet-scn-explicit-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&explicit).ok();

    // Byte identity: `World::generate` and an explicit default scenario
    // dump the same tree — same file set, same bytes, no sidecar.
    let base = World::generate(config);
    let summary = datasets::dump(&base, &dir).expect("no-flag dump");
    let default_world = World::generate_with(config, Scenario::venezuela());
    let explicit_summary = datasets::dump(&default_world, &explicit).expect("explicit dump");
    let names = |s: &datasets::DumpSummary| {
        let mut v = s.files.clone();
        v.sort();
        v
    };
    assert_eq!(names(&summary), names(&explicit_summary));
    for rel in &summary.files {
        assert_eq!(
            std::fs::read(dir.join(rel)).unwrap(),
            std::fs::read(explicit.join(rel)).unwrap(),
            "{rel}: explicit default-scenario dump diverged from the no-flag dump"
        );
    }
    assert!(
        !dir.join("world/scenario.toml").exists(),
        "default scenario must not write a sidecar"
    );

    // Switching scenarios rewrites every container: the scenario
    // fingerprint is part of each manifest record.
    let countries = country::lacnic_codes().count();
    let cut = World::generate_with(config, Scenario::builtin("cable-cut").expect("builtin"));
    let switched = datasets::dump(&cut, &dir).expect("scenario switch re-dump");
    assert_eq!(
        switched.containers_written, countries,
        "a scenario switch must refresh every NDT container"
    );
    assert!(
        dir.join("world/scenario.toml").exists(),
        "non-default scenario must write its sidecar"
    );

    // A same-scenario re-run is a no-op on the containers.
    let again = datasets::dump(&cut, &dir).expect("same-scenario re-dump");
    assert_eq!(
        again.containers_written, 0,
        "same-scenario re-run rewrote containers"
    );
    assert_eq!(again.containers_skipped, countries);

    // The loader reapplies the sidecar: the reloaded archive reports the
    // non-default scenario and reproduces its battery output.
    let reloaded = DataSource::from_archive(&dir).expect("scenario tree loads");
    assert_eq!(reloaded.scenario.name, "cable-cut");
    assert!(!reloaded.scenario.is_default());
    let in_memory = DataSource::from(cut);
    assert_eq!(
        battery(&reloaded),
        battery(&in_memory),
        "archive round-trip changed a scenario battery artifact"
    );

    // Dumping the default world back over the scenario tree removes the
    // stale sidecar and refreshes every container again.
    let restored = datasets::dump(&base, &dir).expect("restore default dump");
    assert_eq!(restored.containers_written, countries);
    assert!(
        !dir.join("world/scenario.toml").exists(),
        "stale sidecar must be removed when the default scenario returns"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&explicit).ok();
}
