//! Golden-output regression suite for non-default scenarios.
//!
//! The main golden suite pins the default (Venezuela) storyline; this
//! one pins a counterfactual world so the scenario layer itself is
//! fenced: the cable-cut scenario must keep producing the same bytes,
//! and it must differ from the default exactly where the storyline says
//! it does (the cable map) and nowhere it does not (the economy).
//!
//! Refresh intentionally with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_scenarios
//! ```

use lacnet::core::render::canonical_tsv;
use lacnet::core::{experiments, DataSource};
use lacnet::crisis::{Scenario, World, WorldConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The fixed-seed test world under the cable-cut scenario.
fn source() -> &'static DataSource {
    static SOURCE: OnceLock<DataSource> = OnceLock::new();
    SOURCE.get_or_init(|| {
        let scenario = Scenario::builtin("cable-cut").expect("builtin scenario");
        DataSource::from(World::generate_with(WorldConfig::test(), scenario))
    })
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scenario_fixture(name: &str) -> PathBuf {
    golden_dir().join(format!("scenarios/cable-cut/{name}.tsv"))
}

fn rendered(id: &str) -> String {
    let result = experiments::all(source())
        .into_iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("battery has no artifact {id}"));
    canonical_tsv(&result)
}

#[test]
fn cable_cut_cables_figure_matches_its_golden_fixture() {
    let fig04 = rendered("fig04");
    let path = scenario_fixture("fig04");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixture dir");
        std::fs::write(&path, &fig04).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing scenario fixture {}; run `UPDATE_GOLDEN=1 cargo test --test \
             golden_scenarios` and commit the result",
            path.display()
        )
    });
    assert_eq!(
        fig04, expected,
        "cable-cut fig04 diverged from its golden fixture \
         (refresh intentionally with UPDATE_GOLDEN=1)"
    );
    // The counterfactual must actually differ from the default storyline:
    // two failed systems change the cable figure.
    let default_fig04 =
        std::fs::read_to_string(golden_dir().join("fig04.tsv")).expect("main fixture");
    assert_ne!(
        fig04, default_fig04,
        "cable-cut scenario reproduced the default cable map"
    );
}

#[test]
fn cable_cut_leaves_the_economy_byte_identical() {
    // The cable-cut sidecar carries no GDP overrides, so the economy
    // figure must equal the default suite's fixture byte for byte —
    // overlays touch only what they declare.
    let default_fig01 =
        std::fs::read_to_string(golden_dir().join("fig01.tsv")).expect("main fixture");
    assert_eq!(
        rendered("fig01"),
        default_fig01,
        "a scenario with no GDP overrides changed the economy figure"
    );
}
