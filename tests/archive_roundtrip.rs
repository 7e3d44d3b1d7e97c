//! Archive round-trip equivalence: the whole battery, byte for byte,
//! from parsed files.
//!
//! The tentpole claim of the `DataSource` layer is that nothing in the
//! analysis depends on *how* the datasets arrived — a freshly generated
//! world and the same world dumped to its native archive formats and
//! parsed back must drive every experiment to identical output. This
//! suite dumps the fixed-seed test world once, its NDT data in `.ndtc`
//! containers, reloads the tree through [`DataSource::from_archive`],
//! and requires the canonical TSV render of all 22 paper artifacts *and*
//! the three extensions to match both the in-memory run and the
//! checked-in `tests/golden/` fixtures.

use lacnet::core::render::canonical_tsv;
use lacnet::core::{datasets, experiments, extensions, DataSource};
use lacnet::crisis::{World, WorldConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

fn tree_path() -> PathBuf {
    std::env::temp_dir().join(format!("lacnet-roundtrip-{}", std::process::id()))
}

extern "C" {
    /// The C runtime's exit hook. The archive source lives in a static
    /// and reads containers lazily, so no destructor runs when the test
    /// binary ends; an exit hook is where the dumped tree can go.
    fn atexit(callback: extern "C" fn()) -> std::os::raw::c_int;
}

extern "C" fn remove_roundtrip_dir() {
    let _ = std::fs::remove_dir_all(tree_path());
}

/// The test world behind both backends: the archive-backed source and,
/// beside it, the in-memory source the same world moved into.
struct Sources {
    archive: DataSource,
    in_memory: DataSource,
}

/// Generate the test world once, dump it, then move it into the
/// in-memory source; every test in the binary shares both, so the suite
/// generates the world and parses the tree a single time. The first call
/// registers an exit hook that removes the tree when the test binary
/// ends.
fn sources() -> &'static Sources {
    static SOURCES: OnceLock<Sources> = OnceLock::new();
    SOURCES.get_or_init(|| {
        // SAFETY: `atexit` takes any valid function pointer and only
        // records it; the callback uses nothing but `std::fs` and
        // `std::env`, which stay usable while the process exits.
        unsafe { atexit(remove_roundtrip_dir) };
        let world = World::generate(WorldConfig::test());
        let dir = tree_path();
        datasets::dump(&world, &dir).expect("dump succeeds");
        Sources {
            archive: DataSource::from_archive(&dir).expect("archive loads"),
            in_memory: DataSource::from(world),
        }
    })
}

fn archive_source() -> &'static DataSource {
    &sources().archive
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Battery + extensions from the archive backend, render order stable.
fn archive_results() -> Vec<lacnet::core::ExperimentResult> {
    let src = archive_source();
    let mut results = experiments::all(src);
    results.extend(extensions::all(src));
    results
}

#[test]
fn archive_battery_matches_in_memory_byte_for_byte() {
    let in_memory = &sources().in_memory;
    let mut reference = experiments::all(in_memory);
    reference.extend(extensions::all(in_memory));
    let reloaded = archive_results();
    assert_eq!(reference.len(), reloaded.len());
    for (mem, arch) in reference.iter().zip(&reloaded) {
        assert_eq!(mem.id, arch.id, "battery order must not depend on backend");
        assert_eq!(
            canonical_tsv(mem),
            canonical_tsv(arch),
            "{} diverges between the in-memory and archive backends",
            mem.id
        );
    }
}

#[test]
fn archive_battery_matches_golden_fixtures() {
    // Stronger than backend agreement: the archive run must land on the
    // exact bytes the golden regression fence holds, so a format change
    // that breaks parsing cannot hide behind a matching in-memory change.
    for result in archive_results() {
        let path = fixture_dir().join(format!("{}.tsv", result.id));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden fixture {}; run `UPDATE_GOLDEN=1 cargo test --test golden`",
                path.display()
            )
        });
        assert_eq!(
            canonical_tsv(&result),
            expected,
            "{} from the archive diverges from its golden fixture",
            result.id
        );
    }
}

#[test]
fn columnar_archive_battery_matches_golden_fixtures() {
    // The dumped tree's NDT data is columnar through and through: apart
    // from the manifest and the month index, every file under `mlab/` is
    // an `.ndtc` container, so the battery below read its measurements
    // from no other shard format.
    let root = archive_source().root().expect("source is archive-backed");
    let metadata = [
        root.join(datasets::MLAB_MANIFEST),
        root.join(datasets::MLAB_INDEX),
    ];
    let mut containers = 0usize;
    for entry in std::fs::read_dir(root.join("mlab")).expect("mlab dir") {
        let path = entry.expect("entry").path();
        if metadata.contains(&path) {
            continue;
        }
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("ndtc"),
            "{} is not a columnar NDT container",
            path.display()
        );
        containers += 1;
    }
    assert!(containers > 0, "the tree holds NDT containers");
    for result in archive_results() {
        let path = fixture_dir().join(format!("{}.tsv", result.id));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden fixture {}; run `UPDATE_GOLDEN=1 cargo test --test golden`",
                path.display()
            )
        });
        assert_eq!(
            canonical_tsv(&result),
            expected,
            "{} from the columnar archive diverges from its golden fixture",
            result.id
        );
    }
}

#[test]
fn single_month_query_decodes_only_the_matching_shard_bytes() {
    use lacnet::types::country;
    let src = archive_source();
    let (month, _) = src
        .mlab
        .median_series(country::VE)
        .last()
        .expect("test world has VE data");
    let stats = src
        .ndt_month_stats(country::VE, month)
        .expect("query succeeds")
        .expect("month exists");
    assert_eq!(stats.format, "columnar-v2");
    assert!(stats.rows > 0);
    // The decode saw only the month's blocks, and of those only the
    // download column the query asked for.
    assert!(stats.read.blocks_decoded >= 1);
    assert!(stats.read.blocks_decoded <= stats.read.blocks_total);
    assert_eq!(stats.read.columns_decoded, stats.read.blocks_decoded);
    // The decoded bytes are a strict subset of the month's blocks in
    // its country's container and a sliver of the tree's whole columnar
    // payload.
    let root = src.root().expect("columnar source is archive-backed");
    let container = std::fs::read(root.join("mlab/VE.ndtc")).expect("VE container");
    let reader = lacnet::mlab::ColumnReader::open(&container).expect("container opens");
    let (lo, hi) = (
        month.first_day().days_since_epoch(),
        month.last_day().days_since_epoch(),
    );
    let month_bytes: usize = reader
        .blocks()
        .iter()
        .filter(|b| b.day_span().0 >= lo && b.day_span().1 <= hi)
        .map(|b| b.byte_len())
        .sum();
    let mut tree_total = 0usize;
    for entry in std::fs::read_dir(root.join("mlab")).expect("mlab dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("ndtc") {
            tree_total += std::fs::metadata(&path).expect("metadata").len() as usize;
        }
    }
    assert!(
        stats.read.bytes_decoded < month_bytes,
        "query decoded {} of the month's {month_bytes} block bytes",
        stats.read.bytes_decoded
    );
    assert!(
        stats.read.bytes_decoded * 4 < tree_total,
        "query decoded {} of the {tree_total}-byte tree",
        stats.read.bytes_decoded
    );
    // The answer is the resident aggregate's group: the same count and a
    // bit-identical P² median.
    let group = src.mlab.group(country::VE, month).expect("group exists");
    assert_eq!(
        (stats.rows, stats.median_download),
        (group.count(), group.median())
    );
}

#[test]
fn range_query_equals_the_merge_of_its_single_month_queries() {
    use lacnet::types::country;
    let src = archive_source();
    let series: Vec<_> = src.mlab.median_series(country::VE).iter().collect();
    assert!(series.len() >= 4, "test world spans months");
    let (from, _) = series[series.len() - 4];
    let (to, _) = *series.last().unwrap();

    let range = src
        .ndt_range_stats(country::VE, from, to)
        .expect("range query succeeds");
    assert_eq!(range.months_queried, 4);
    assert_eq!(range.months.len(), 4);

    // The merged answer is exactly the fold of the single-month queries:
    // per-month stats, the row total, and the absorbed ReadStats — one
    // window read is observationally identical to a month-by-month walk.
    let mut rows = 0usize;
    let mut read = lacnet::mlab::ReadStats::default();
    let mut median_sum = 0.0f64;
    let mut medians = 0usize;
    for &(month, ref merged) in &range.months {
        let single = src
            .ndt_month_stats(country::VE, month)
            .expect("query succeeds")
            .expect("month exists");
        assert_eq!(merged, &single, "{month} diverges inside the range");
        rows += single.rows;
        read.absorb(single.read);
        if let Some(m) = single.median_download {
            median_sum += m;
            medians += 1;
        }
    }
    assert_eq!(range.rows, rows);
    assert_eq!(range.read, read);
    assert_eq!(
        range.mean_monthly_median,
        (medians > 0).then(|| median_sum / medians as f64)
    );

    // The window decoded only the download column of the matching
    // blocks across every queried month, read with one file open.
    assert!(range.read.blocks_decoded >= 4);
    assert_eq!(range.read.columns_decoded, range.read.blocks_decoded);
    assert_eq!(range.io.files_opened, 1);
}

#[test]
fn archive_backend_reports_itself() {
    assert_eq!(archive_source().backend(), "archive");
    assert_eq!(archive_source().config, sources().in_memory.config);
}
