//! Archive-backend ablation: loading every dataset by parsing a dumped
//! native-format tree vs regenerating the world from its seed.
//!
//! Before any timing starts, the reloaded archive is asserted equivalent
//! to the generated world on the derived outputs the battery actually
//! consumes — topology size, a mid-window pfx2as table, the CANTV cone,
//! the M-Lab group census and Venezuela's median series — so the numbers
//! compare equal worlds, not a fast-but-wrong parser.

use criterion::{criterion_group, Criterion};
use lacnet_bench::bench_world;
use lacnet_core::{datasets, DataSource};
use lacnet_crisis::World;
use lacnet_types::{country, CountryCode, MonthStamp};
use std::hint::black_box;
use std::path::PathBuf;

/// Where the shared bench world's tree is dumped.
fn dump_path() -> PathBuf {
    std::env::temp_dir().join(format!("lacnet-bench-archive-{}", std::process::id()))
}

/// Dump the shared bench world once; every sample reloads the same tree.
fn dump_dir() -> PathBuf {
    let dir = dump_path();
    if !dir.join("MANIFEST.txt").exists() {
        datasets::dump(bench_world(), &dir).expect("dump succeeds");
    }
    dir
}

/// Removes the dump tree when the run ends, a failed equivalence
/// assertion included.
struct RemoveDump;

impl Drop for RemoveDump {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(dump_path());
    }
}

fn assert_equivalent(world: &World, reloaded: &DataSource) {
    assert_eq!(reloaded.config, world.config);
    assert_eq!(reloaded.topology.len(), world.topology.len());
    let m = MonthStamp::new(2020, 6);
    assert_eq!(
        reloaded.pfx2as_at(m).to_text(),
        world.pfx2as_at(m).to_text()
    );
    let cantv = lacnet_crisis::world::FOCAL_AS;
    assert_eq!(
        *reloaded.customer_cone_at(m, cantv),
        *world.customer_cone_at(m, cantv)
    );
    assert_eq!(reloaded.mlab.group_count(), world.mlab.group_count());
    assert_eq!(
        reloaded.mlab.median_series(country::VE),
        world.mlab.median_series(country::VE)
    );
}

/// Cold archive parse (serial-1 + pfx2as + delegations + JSON dumps +
/// NDT containers) vs `World::generate` from the same config.
fn bench_archive_load(c: &mut Criterion) {
    let world = bench_world();
    let dir = dump_dir();
    assert_equivalent(
        world,
        &DataSource::from_archive(&dir).expect("archive loads"),
    );
    let mut group = c.benchmark_group("archive");
    group.sample_size(10);
    group.bench_function("load", |b| {
        b.iter(|| black_box(DataSource::from_archive(&dir).expect("archive loads")))
    });
    group.bench_function("generate", |b| {
        b.iter(|| black_box(World::generate(world.config)))
    });
    group.finish();
}

/// The countries whose containers an archive holds, plan order.
fn countries() -> Vec<CountryCode> {
    country::lacnic_codes().collect()
}

/// Decode every columnar container fully and aggregate it — the no-index
/// baseline the selective queries are measured against.
fn aggregate_whole_archive(ndtc_dir: &std::path::Path) -> lacnet_mlab::MonthlyAggregator {
    let mut agg =
        lacnet_mlab::aggregate::MonthlyAggregator::new(lacnet_mlab::aggregate::Mode::Streaming);
    for cc in countries() {
        let rel = datasets::mlab_container_path(cc);
        let bytes = std::fs::read(ndtc_dir.join(rel)).expect("columnar container");
        let batch = lacnet_mlab::columnar::decode(&bytes).expect("columnar container decodes");
        agg.observe_columns(&batch);
    }
    agg
}

/// Cold NDT ingestion: the full container set read once each and
/// scanned into per-country partial aggregates on sweep workers, merged
/// in plan order, as the archive loader does; and the whole-archive load
/// around it, which adds every other dataset's parse cost. Before timing,
/// the ingestion is asserted to land the P² estimators in the archive
/// source's exact state.
fn bench_cold_load(c: &mut Criterion) {
    let ndtc_dir = dump_dir();
    let ndtc = DataSource::from_archive(&ndtc_dir).expect("archive loads");
    let countries = countries();
    let ingest_columnar = || {
        let selection =
            lacnet_mlab::ColumnSelection::columns(lacnet_mlab::MonthlyAggregator::REQUIRED_COLUMNS);
        let parts = lacnet_types::sweep::parallel_map_with(
            lacnet_types::sweep::worker_count(countries.len()),
            &countries,
            |&cc| {
                let rel = datasets::mlab_container_path(cc);
                let bytes = std::fs::read(ndtc_dir.join(rel)).expect("columnar container");
                let reader = lacnet_mlab::ColumnReader::open(&bytes).expect("container opens");
                let mut part = lacnet_mlab::aggregate::MonthlyAggregator::new(
                    lacnet_mlab::aggregate::Mode::Streaming,
                );
                let mut scratch = lacnet_mlab::DecodeScratch::new();
                reader
                    .scan_counted(&selection, &mut scratch, |view| {
                        part.observe_block(view);
                        Ok(())
                    })
                    .expect("columnar container decodes");
                part
            },
        );
        let mut agg =
            lacnet_mlab::aggregate::MonthlyAggregator::new(lacnet_mlab::aggregate::Mode::Streaming);
        for part in parts {
            agg.merge(part).expect("countries are disjoint");
        }
        agg
    };
    assert_eq!(
        format!("{:?}", ingest_columnar()),
        format!("{:?}", ndtc.mlab)
    );

    let mut group = c.benchmark_group("cold_load");
    group.sample_size(10);
    group.bench_function("ndt/columnar", |b| b.iter(|| black_box(ingest_columnar())));
    group.bench_function("columnar", |b| {
        b.iter(|| black_box(DataSource::from_archive(&ndtc_dir).expect("loads")))
    });
    group.finish();
}

/// One `(country, month)` query, two strategies on the same columnar
/// tree: the resident-table route (`ndt_month_stats` — one read of the
/// month's blocks, download column only) against the no-index baseline
/// (decode every container fully, aggregate, read one group). Both must
/// agree with the resident aggregate's group state — same count,
/// bit-identical P² median — before any timing starts.
fn bench_cold_query(c: &mut Criterion) {
    let ndtc_dir = dump_dir();
    let ndtc = DataSource::from_archive(&ndtc_dir).expect("archive loads");
    let (month, _) = ndtc
        .mlab
        .median_series(country::VE)
        .last()
        .expect("bench world has VE data");
    let resident = ndtc.mlab.group(country::VE, month).expect("group exists");
    let expected = (resident.count(), resident.median());
    let selective = || {
        ndtc.ndt_month_stats(country::VE, month)
            .expect("query succeeds")
            .expect("month exists")
    };
    let whole_archive = || {
        let agg = aggregate_whole_archive(&ndtc_dir);
        let g = agg.group(country::VE, month).expect("group exists").clone();
        (g.count(), g.median())
    };
    let s = selective();
    assert_eq!((s.rows, s.median_download), expected);
    assert_eq!(s.format, "columnar-v2");
    assert!(s.read.bytes_decoded > 0);
    assert_eq!(whole_archive(), expected);

    let mut group = c.benchmark_group("cold_query");
    group.sample_size(10);
    group.bench_function("selective", |b| b.iter(|| black_box(selective())));
    group.bench_function("whole_archive", |b| b.iter(|| black_box(whole_archive())));
    group.finish();
}

/// Two comparisons in one group. `window` vs `whole_archive` times the
/// product range path (`ndt_range_stats` — resident month plan, day-span
/// pruning, one contiguous read of the window, month-by-month decode)
/// against the no-index whole-archive decode on the bench tree; both
/// must land on the identical row total and bit-identical
/// mean-of-monthly-medians before any timing starts — the P² estimator
/// is order-sensitive, so agreement pins the window's visit order.
/// `borrowed` vs `owned` isolates the zero-copy decode claim on a
/// single production-scale in-memory container where the two paths
/// differ only in materialization; they must agree on row count,
/// download sum, and the bit-exact P² median before timing.
fn bench_range_query(c: &mut Criterion) {
    let ndtc_dir = dump_dir();
    let ndtc = DataSource::from_archive(&ndtc_dir).expect("archive loads");
    let series: Vec<_> = ndtc.mlab.median_series(country::VE).iter().collect();
    assert!(series.len() >= 6, "bench world spans months");
    let (from, _) = series[series.len() - 6];
    let (to, _) = *series.last().unwrap();

    let window = || {
        ndtc.ndt_range_stats(country::VE, from, to)
            .expect("range query succeeds")
    };
    // The borrowed-vs-owned pair isolates the zero-copy claim on one
    // buffer big enough that materialization cost is visible over the
    // shared per-block work (CRC, varint decode): a production-scale
    // month — 98 304 rows in 2048-row blocks — scanned with every
    // column selected. Identical selection, identical consumption; the
    // only difference is `scan_counted`'s borrowed `BlockView`s (floats
    // sliced in place, dictionaries into one reused scratch) against
    // `read_counted`'s owned `ColumnBatch` (every column allocated and
    // copied per call).
    let big_rows: Vec<lacnet_mlab::NdtTest> = (0..98_304u32)
        .map(|i| lacnet_mlab::NdtTest {
            date: lacnet_types::Date::from_days_since_epoch(18_078 + (i as i64 % 30)),
            country: if i % 7 == 0 { country::BR } else { country::VE },
            asn: lacnet_types::Asn(8_048 + (i % 11) * 991),
            download_mbps: 0.3 + (i % 997) as f64 * 0.01,
            upload_mbps: 0.1 + (i % 499) as f64 * 0.01,
            min_rtt_ms: 15.0 + (i % 120) as f64,
            loss_rate: (i % 50) as f64 / 100.0,
        })
        .collect();
    let big = lacnet_mlab::columnar::encode_v2(&lacnet_mlab::ColumnBatch::from_rows(&big_rows));
    let big_selection = lacnet_mlab::ColumnSelection::all().with_country(country::VE);
    let borrowed = || {
        let reader = lacnet_mlab::ColumnReader::open(&big).expect("container opens");
        let mut scratch = lacnet_mlab::DecodeScratch::new();
        let (mut rows, mut sum) = (0usize, 0.0f64);
        reader
            .scan_counted(&big_selection, &mut scratch, |view| {
                rows += view.rows();
                for v in view.download().iter() {
                    sum += v;
                }
                Ok(())
            })
            .expect("borrowed scan");
        (rows, sum)
    };
    let owned = || {
        let reader = lacnet_mlab::ColumnReader::open(&big).expect("container opens");
        let (batch, _) = reader.read_counted(&big_selection).expect("owned decode");
        let mut sum = 0.0f64;
        for &v in batch.download() {
            sum += v;
        }
        (batch.len(), sum)
    };
    let whole_archive = || {
        let agg = aggregate_whole_archive(&ndtc_dir);
        let mut rows_total = 0usize;
        let mut median_sum = 0.0f64;
        let mut medians = 0usize;
        for month in from.through(to) {
            let Some(g) = agg.group(country::VE, month) else {
                continue;
            };
            rows_total += g.count();
            if let Some(m) = g.median() {
                median_sum += m;
                medians += 1;
            }
        }
        let mean = (medians > 0).then(|| median_sum / medians as f64);
        (rows_total, mean)
    };

    let windowed = window();
    assert_eq!(windowed.months.len(), 6, "every window month is held");
    assert_eq!(
        (windowed.rows, windowed.mean_monthly_median),
        whole_archive()
    );
    assert_eq!(windowed.io.files_opened, 1, "one file per range query");
    let (b_rows, b_sum) = borrowed();
    assert_eq!((b_rows, b_sum), owned(), "borrowed and owned scans agree");
    assert!(b_rows > 80_000, "country filter keeps the VE majority");
    // Bit-exact median agreement pins the borrowed visit order to the
    // owned batch order (P² is order-sensitive).
    let owned_median = {
        let reader = lacnet_mlab::ColumnReader::open(&big).expect("container opens");
        let (batch, _) = reader.read_counted(&big_selection).expect("owned decode");
        let mut p2 = lacnet_types::stats::P2Quantile::median();
        for &v in batch.download() {
            p2.observe(v);
        }
        p2.value()
    };
    let borrowed_median = {
        let reader = lacnet_mlab::ColumnReader::open(&big).expect("container opens");
        let mut scratch = lacnet_mlab::DecodeScratch::new();
        let mut p2 = lacnet_types::stats::P2Quantile::median();
        reader
            .scan_counted(&big_selection, &mut scratch, |view| {
                for v in view.download().iter() {
                    p2.observe(v);
                }
                Ok(())
            })
            .expect("borrowed scan");
        p2.value()
    };
    assert_eq!(borrowed_median, owned_median, "medians bit-identical");
    // Selectivity: the window decoded one column of each month's
    // blocks, never the whole tree.
    assert_eq!(windowed.read.columns_decoded, windowed.read.blocks_decoded);

    let mut group = c.benchmark_group("range_query");
    group.sample_size(10);
    group.bench_function("borrowed", |b| b.iter(|| black_box(borrowed())));
    group.bench_function("owned", |b| b.iter(|| black_box(owned())));
    group.bench_function("window", |b| b.iter(|| black_box(window())));
    group.bench_function("whole_archive", |b| b.iter(|| black_box(whole_archive())));
    group.finish();
}

criterion_group!(
    name = archive;
    config = Criterion::default();
    targets = bench_archive_load, bench_cold_load, bench_cold_query, bench_range_query
);

fn main() {
    let _cleanup = RemoveDump;
    archive();
    criterion::flush_json_report();
}
