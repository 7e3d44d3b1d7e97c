//! Golden-output regression suite.
//!
//! Every figure series, table row, heatmap cell and finding the battery
//! (and the extensions) produces from the fixed-seed test world is
//! rendered to a canonical TSV form and compared byte-for-byte against
//! the fixtures under `tests/golden/`. Any refactor of the pipeline —
//! sharding, caching, batching — must leave these bytes untouched; a PR
//! that intends to change them regenerates the fixtures with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and ships the diff for review. f64 values are rendered with Rust's
//! shortest-roundtrip formatting, which is deterministic across
//! platforms, so the fixtures are portable.

use lacnet::core::render::canonical_tsv;
use lacnet::core::{experiments, extensions, DataSource};
use lacnet::crisis::{World, WorldConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The suite's fixed world: the same seed/config the unit tests use,
/// behind the in-memory battery interface.
fn source() -> &'static DataSource {
    static SOURCE: OnceLock<DataSource> = OnceLock::new();
    SOURCE.get_or_init(|| DataSource::from(World::generate(WorldConfig::test())))
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `rendered` against the checked-in fixture, or rewrite the
/// fixture when `UPDATE_GOLDEN=1`. On mismatch the panic names the first
/// diverging line so a multi-thousand-line diff stays readable.
fn compare_or_update(name: &str, rendered: &str) {
    let path = fixture_dir().join(format!("{name}.tsv"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {}; run `UPDATE_GOLDEN=1 cargo test --test golden` \
             and commit the result",
            path.display()
        )
    });
    if rendered == expected {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(rendered.lines())
        .enumerate()
        .find(|(_, (e, r))| e != r);
    match mismatch {
        Some((i, (e, r))) => panic!(
            "golden mismatch for {name} at line {}:\n  expected: {e}\n  rendered: {r}\n\
             (refresh intentionally with UPDATE_GOLDEN=1)",
            i + 1
        ),
        None => panic!(
            "golden mismatch for {name}: line counts differ \
             (expected {} lines, rendered {}); refresh intentionally with UPDATE_GOLDEN=1",
            expected.lines().count(),
            rendered.lines().count()
        ),
    }
}

#[test]
fn battery_matches_golden_fixtures() {
    let results = experiments::all(source());
    assert_eq!(results.len(), 22, "fig01–fig21 plus tab01");
    for result in &results {
        compare_or_update(&result.id, &canonical_tsv(result));
    }
}

#[test]
fn extensions_match_golden_fixtures() {
    for result in &extensions::all(source()) {
        compare_or_update(&result.id, &canonical_tsv(result));
    }
}

#[test]
fn fixtures_cover_every_battery_id() {
    // A fixture that stops being compared is a silent hole in the fence —
    // assert the directory holds exactly the expected artifact set.
    let mut on_disk: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixture dir exists — run UPDATE_GOLDEN=1 once")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".tsv").map(str::to_owned)
        })
        .collect();
    on_disk.sort();
    // The endpoint registry is the single source of truth for artifact
    // ids — the same list `vzla-report` runs and `lacnet-serve` routes.
    let mut expected: Vec<String> = lacnet::core::registry::ENDPOINTS
        .iter()
        .map(|e| e.id.to_owned())
        .collect();
    expected.sort();
    assert_eq!(on_disk, expected);
}
