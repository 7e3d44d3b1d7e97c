//! End-to-end: generate a world and require every one of the paper's 22
//! artifacts to reproduce within its experiment's tolerances.

use lacnet::core::{experiments, render, DataSource};
use lacnet::crisis::{World, WorldConfig};
use std::sync::OnceLock;

fn source() -> &'static DataSource {
    static SOURCE: OnceLock<DataSource> = OnceLock::new();
    SOURCE.get_or_init(|| DataSource::from(World::generate(WorldConfig::test())))
}

#[test]
fn every_experiment_matches_the_paper() {
    let results = experiments::all(source());
    assert_eq!(results.len(), 22, "all figures and tables covered");
    let diverged: Vec<String> = results
        .iter()
        .filter(|r| !r.all_match())
        .map(|r| format!("{}\n{}", r.id, render::render_result(r)))
        .collect();
    assert!(
        diverged.is_empty(),
        "diverging experiments:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn experiment_ids_are_unique_and_ordered() {
    let results = experiments::all(source());
    let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate experiment id");
    assert_eq!(ids[0], "fig01");
    assert!(ids.contains(&"tab01"));
}

#[test]
fn every_experiment_produces_renderable_artifacts() {
    for result in experiments::all(source()) {
        assert!(
            !result.artifacts.is_empty(),
            "{} has no artifacts",
            result.id
        );
        assert!(!result.findings.is_empty(), "{} has no findings", result.id);
        for artifact in &result.artifacts {
            let text = render::render_artifact(artifact);
            assert!(!text.is_empty(), "{} renders empty", artifact.id());
            let csv = render::to_csv(artifact);
            assert!(csv.lines().count() >= 1, "{} CSV empty", artifact.id());
        }
    }
}
