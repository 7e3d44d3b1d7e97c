//! Archive round-trip equivalence: the whole battery, byte for byte,
//! from parsed files.
//!
//! The tentpole claim of the `DataSource` layer is that nothing in the
//! analysis depends on *how* the datasets arrived — a freshly generated
//! world and the same world dumped to its native archive formats and
//! parsed back must drive every experiment to identical output. This
//! suite dumps the fixed-seed test world once *per NDT shard format*
//! (text `.tsv` and columnar `.ndtc`), reloads each tree through
//! [`DataSource::from_archive`], and requires the canonical TSV render
//! of all 22 paper artifacts *and* the three extensions to match both
//! the in-memory run and the checked-in `tests/golden/` fixtures.

use lacnet::core::render::canonical_tsv;
use lacnet::core::{datasets, experiments, extensions, DataSource, DumpOptions};
use lacnet::crisis::{World, WorldConfig};
use lacnet::mlab::ShardFormat;
use std::path::PathBuf;
use std::sync::{Once, OnceLock};

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test()))
}

/// The labels of the dump trees this suite writes.
const TREES: [&str; 2] = ["text", "columnar"];

/// Where the `label` dump tree lives. The first call registers an exit
/// hook that removes every tree in [`TREES`] when the test binary ends.
fn roundtrip_dir(label: &str) -> PathBuf {
    static CLEANUP: Once = Once::new();
    // SAFETY: `atexit` takes any valid function pointer and only records
    // it; the callback uses nothing but `std::fs` and `std::env`, which
    // stay usable while the process exits.
    CLEANUP.call_once(|| unsafe {
        atexit(remove_roundtrip_dirs);
    });
    tree_path(label)
}

fn tree_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lacnet-roundtrip-{label}-{}", std::process::id()))
}

extern "C" {
    /// The C runtime's exit hook. The archive sources live in statics and
    /// read containers lazily, so no destructor runs when the test binary
    /// ends; an exit hook is where the dumped trees can go.
    fn atexit(callback: extern "C" fn()) -> std::os::raw::c_int;
}

extern "C" fn remove_roundtrip_dirs() {
    for label in TREES {
        let _ = std::fs::remove_dir_all(tree_path(label));
    }
}

/// Dump the test world once per NDT format and keep the archive-backed
/// source for every test in the binary, so the suite parses each tree a
/// single time.
fn archive_source_for(format: ShardFormat) -> &'static DataSource<'static> {
    static TEXT: OnceLock<DataSource<'static>> = OnceLock::new();
    static COLUMNAR: OnceLock<DataSource<'static>> = OnceLock::new();
    let cell = match format {
        ShardFormat::Text => &TEXT,
        ShardFormat::Columnar => &COLUMNAR,
    };
    cell.get_or_init(|| {
        let dir = roundtrip_dir(&format.to_string());
        let options = DumpOptions {
            shard_format: format,
            ..DumpOptions::default()
        };
        datasets::dump_with(world(), &dir, options).expect("dump succeeds");
        DataSource::from_archive_with(&dir, Some(format)).expect("archive loads")
    })
}

fn archive_source() -> &'static DataSource<'static> {
    archive_source_for(ShardFormat::Text)
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Battery + extensions from the archive backend, render order stable.
fn archive_results_for(format: ShardFormat) -> Vec<lacnet::core::ExperimentResult> {
    let src = archive_source_for(format);
    let mut results = experiments::all(src);
    results.extend(extensions::all(src));
    results
}

fn archive_results() -> Vec<lacnet::core::ExperimentResult> {
    archive_results_for(ShardFormat::Text)
}

#[test]
fn archive_battery_matches_in_memory_byte_for_byte() {
    let in_memory = DataSource::in_memory(world());
    let mut reference = experiments::all(&in_memory);
    reference.extend(extensions::all(&in_memory));
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
fn columnar_archive_battery_matches_text_archive_byte_for_byte() {
    // The columnar `.ndtc` shard encoding must be invisible to the
    // battery: both formats decode into the identical observation
    // sequence, so every artifact renders byte-for-byte the same.
    let text = archive_results_for(ShardFormat::Text);
    let columnar = archive_results_for(ShardFormat::Columnar);
    assert_eq!(text.len(), columnar.len());
    for (t, c) in text.iter().zip(&columnar) {
        assert_eq!(t.id, c.id);
        assert_eq!(
            canonical_tsv(t),
            canonical_tsv(c),
            "{} diverges between text and columnar NDT shards",
            t.id
        );
    }
}

#[test]
fn columnar_archive_battery_matches_golden_fixtures() {
    for result in archive_results_for(ShardFormat::Columnar) {
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
    let src = archive_source_for(ShardFormat::Columnar);
    let (month, _) = src
        .mlab()
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
    let DataSource::Archive(archive) = src else {
        panic!("columnar source is archive-backed");
    };
    let container = std::fs::read(archive.root().join("mlab/VE.ndtc")).expect("VE container");
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
    for entry in std::fs::read_dir(archive.root().join("mlab")).expect("mlab dir") {
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
    // The text rows take their full-decode path and still land on the
    // identical count and bit-identical P² median.
    let answer = archive_source_for(ShardFormat::Text)
        .ndt_month_stats(country::VE, month)
        .expect("query succeeds")
        .expect("month exists");
    assert_eq!(answer.format, "text");
    assert_eq!(answer.rows, stats.rows, "text row count diverges");
    assert_eq!(
        answer.median_download, stats.median_download,
        "text median diverges"
    );
}

#[test]
fn range_query_equals_the_merge_of_its_single_month_queries() {
    use lacnet::types::country;
    let src = archive_source_for(ShardFormat::Columnar);
    let series: Vec<_> = src.mlab().median_series(country::VE).iter().collect();
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

    // The text format answers the same numbers through the same range
    // entry point.
    let answer = archive_source_for(ShardFormat::Text)
        .ndt_range_stats(country::VE, from, to)
        .expect("range query succeeds");
    assert_eq!(answer.rows, range.rows);
    assert_eq!(answer.months.len(), range.months.len());
    for ((m_a, a), (m_b, b)) in answer.months.iter().zip(&range.months) {
        assert_eq!(m_a, m_b);
        assert_eq!(a.rows, b.rows, "{m_a}");
        assert_eq!(a.median_download, b.median_download, "{m_a}");
    }
    assert_eq!(answer.mean_monthly_median, range.mean_monthly_median);
    assert_eq!(answer.io.files_opened, 1);
}

#[test]
fn archive_backend_reports_itself() {
    assert_eq!(archive_source().backend(), "archive");
    assert_eq!(archive_source().config(), &world().config);
    assert_eq!(
        archive_source_for(ShardFormat::Columnar).backend(),
        "archive"
    );
}
