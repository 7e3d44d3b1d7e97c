//! Per-country NDT containers under hostile and edge-case conditions.
//!
//! The archive keeps one `.ndtc` container per country and reads every
//! `/ndt` query off it with one contiguous read. This suite pins what
//! happens when those files lie or change under a running server:
//!
//! * a truncated container, a footer pointing past the end of the file,
//!   a bad index checksum, another country's blocks, a footer day span
//!   that disagrees with the decoded dates and a retired v1 container
//!   each fail [`DataSource::from_archive`] with a typed error;
//! * a tree from before the text encoding was retired, whose manifest
//!   lists `mlab/{CC}.tsv`, fails the load as a missing `.ndtc`;
//! * a PeeringDB dump whose `netfac` names a missing net fails the load;
//! * a container corrupted after boot turns its queries into uncached
//!   500s while the worker keeps serving everything else;
//! * a request whose computation panics answers a 500 and leaves its
//!   worker serving;
//! * a month without rows answers 200 with `rows: 0`, exactly like any
//!   other month, never 404.
//!
//! The fixture world zeroes Venezuela's NDT volume, so every VE month is
//! a zero-row month, while the other countries carry normal rows.

use lacnet::core::serve::{ServeOptions, Server};
use lacnet::core::{datasets, DataSource};
use lacnet::crisis::{World, WorldConfig};
use lacnet::mlab::ColumnReader;
use lacnet::types::codec::{crc32, put_ivarint, put_u32, put_u64, put_uvarint};
use lacnet::types::json::Json;
use lacnet::types::{country, Error, MonthStamp};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The test world with Venezuela's NDT volume scaled to zero.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::generate(WorldConfig {
            mlab_country_boost: Some((country::VE, 0.0)),
            ..WorldConfig::test()
        })
    })
}

/// The world dumped once, locked for one test; tests that mutate the
/// tree hold the lock and restore every byte they touched.
fn locked_tree() -> MutexGuard<'static, PathBuf> {
    static TREE: OnceLock<Mutex<PathBuf>> = OnceLock::new();
    let tree = TREE.get_or_init(|| {
        // SAFETY: `atexit` only records the function pointer; the
        // callback uses nothing but `std::fs` and `std::env`.
        unsafe {
            atexit(remove_tree);
        }
        let dir = tree_path();
        let _ = std::fs::remove_dir_all(&dir);
        datasets::dump(world(), &dir).expect("dump succeeds");
        Mutex::new(dir)
    });
    tree.lock().unwrap_or_else(|e| e.into_inner())
}

fn tree_path() -> PathBuf {
    std::env::temp_dir().join(format!("lacnet-ndtc-{}", std::process::id()))
}

extern "C" {
    /// The C runtime's exit hook: the tree lives in a static, so no
    /// destructor runs when the test binary ends.
    fn atexit(callback: extern "C" fn()) -> std::os::raw::c_int;
}

extern "C" fn remove_tree() {
    let _ = std::fs::remove_dir_all(tree_path());
}

/// Replace `rel` under `root` with `bytes`, try a load, restore the
/// original bytes, and hand back the load's error.
fn load_with_replaced(root: &Path, rel: &str, bytes: &[u8]) -> Error {
    load_with_files(root, &[(rel, bytes)])
}

/// Re-seal `container` with a rewritten footer: `edit` changes the
/// parsed entries, and the index checksum is recomputed, so only the
/// loader's geometry and content checks can object.
fn reseal_footer(container: &[u8], edit: impl FnOnce(&mut Vec<FooterEntry>)) -> Vec<u8> {
    let reader = ColumnReader::open(container).expect("container opens");
    let mut entries: Vec<FooterEntry> = reader
        .blocks()
        .iter()
        .map(|b| FooterEntry {
            offset: b.offset() as u64,
            len: b.byte_len() as u64,
            rows: b.rows() as u64,
            days: b.day_span(),
            crc: crc32(&container[b.offset()..b.offset() + b.byte_len()]),
            countries: b.countries().iter().map(|c| c.to_string()).collect(),
        })
        .collect();
    let body_end = reader
        .blocks()
        .last()
        .map_or(5, |b| b.offset() + b.byte_len());
    edit(&mut entries);
    let mut out = container[..body_end].to_vec();
    let index_start = out.len();
    put_uvarint(&mut out, entries.len() as u64);
    for e in &entries {
        put_uvarint(&mut out, e.offset);
        put_uvarint(&mut out, e.len);
        put_uvarint(&mut out, e.rows);
        put_ivarint(&mut out, e.days.0);
        put_ivarint(&mut out, e.days.1);
        put_u32(&mut out, e.crc);
        put_uvarint(&mut out, e.countries.len() as u64);
        for cc in &e.countries {
            out.extend_from_slice(cc.as_bytes());
        }
    }
    let index_len = out.len() - index_start;
    put_u32(&mut out, index_len as u32);
    put_u64(&mut out, entries.iter().map(|e| e.rows).sum());
    let crc = crc32(&out[index_start..]);
    put_u32(&mut out, crc);
    out
}

/// One footer entry, as the test rewrites it.
struct FooterEntry {
    offset: u64,
    len: u64,
    rows: u64,
    days: (i64, i64),
    crc: u32,
    countries: Vec<String>,
}

fn assert_parse_error(e: &Error, fragment: &str) {
    match e {
        Error::Parse { expected, .. } => {
            assert!(
                expected.contains(fragment),
                "{expected:?} lacks {fragment:?}"
            )
        }
        other => panic!("expected a typed parse error mentioning {fragment:?}, got {other:?}"),
    }
}

#[test]
fn hostile_containers_fail_the_load_typed() {
    let root = locked_tree();
    let rel = "mlab/AR.ndtc";
    let good = std::fs::read(root.join(rel)).expect("AR container");
    DataSource::from_archive(&root).expect("pristine tree loads");

    // Truncated: the tail no longer describes the file.
    let e = load_with_replaced(&root, rel, &good[..good.len() / 2]);
    assert_parse_error(&e, "ndtc");

    // A footer whose last block runs past the end of the file, and one
    // whose block starts past it — sealed with a valid index checksum.
    let long = reseal_footer(&good, |entries| {
        entries.last_mut().expect("AR has blocks").len = 1 << 40;
    });
    assert_parse_error(&load_with_replaced(&root, rel, &long), "out of bounds");
    let far = reseal_footer(&good, |entries| {
        entries.last_mut().expect("AR has blocks").offset = 1 << 40;
    });
    assert_parse_error(&load_with_replaced(&root, rel, &far), "not contiguous");

    // A bad index checksum.
    let mut bad_crc = good.clone();
    *bad_crc.last_mut().expect("non-empty") ^= 0x5a;
    assert_parse_error(&load_with_replaced(&root, rel, &bad_crc), "checksum");

    // Another country's blocks in AR's container: a summary that names
    // only BR, and a summary that claims AR over BR's rows.
    let br = std::fs::read(root.join("mlab/BR.ndtc")).expect("BR container");
    assert_parse_error(
        &load_with_replaced(&root, rel, &br),
        "naming only the container's country",
    );
    let lying = reseal_footer(&br, |entries| {
        for e in entries {
            e.countries = vec!["AR".into()];
        }
    });
    assert_parse_error(&load_with_replaced(&root, rel, &lying), "country summary");

    // A footer whose day span lies about a block's decoded dates: its
    // first day one later, or its last day one earlier. Both spans stay
    // inside the block's month, so only the decode's cross-check objects.
    let spread = ColumnReader::open(&good)
        .expect("AR opens")
        .blocks()
        .iter()
        .position(|b| b.day_span().0 < b.day_span().1)
        .expect("AR has a block spanning several days");
    for shift in [(1, 0), (0, -1)] {
        let narrowed = reseal_footer(&good, |entries| {
            let days = &mut entries[spread].days;
            *days = (days.0 + shift.0, days.1 + shift.1);
        });
        assert_parse_error(&load_with_replaced(&root, rel, &narrowed), "date span");
    }

    // A retired v1 container (empty, otherwise well-formed).
    let mut v1 = b"NDTC\x01\x00".to_vec();
    for tag in 1..=7u8 {
        v1.extend_from_slice(&[tag, 0]);
    }
    put_u64(&mut v1, 0);
    let crc = crc32(&v1);
    put_u32(&mut v1, crc);
    assert_parse_error(
        &load_with_replaced(&root, rel, &v1),
        "unsupported container version",
    );

    // Every case restored the original bytes.
    assert_eq!(std::fs::read(root.join(rel)).unwrap(), good);
    DataSource::from_archive(&root).expect("restored tree loads");
}

#[test]
fn a_tree_listing_a_text_container_is_missing_its_ndtc() {
    let root = locked_tree();
    // A tree dumped while the text encoding existed lists `mlab/AR.tsv`
    // where `mlab/AR.ndtc` now stands.
    let manifest = std::fs::read_to_string(root.join("MANIFEST.txt")).expect("manifest");
    assert!(manifest.lines().any(|l| l == "mlab/AR.ndtc"));
    let text_tree = manifest.replace("mlab/AR.ndtc\n", "mlab/AR.tsv\n");
    let e = load_with_files(&root, &[("MANIFEST.txt", text_tree.as_bytes())]);
    assert_eq!(
        e,
        Error::missing("NDT archive container", "mlab/AR.ndtc"),
        "{e:?}"
    );
}

/// Read exactly one HTTP/1.1 response off a buffered socket.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut len = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    (status, body)
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
    )
    .expect("request");
    read_response(&mut BufReader::new(stream))
}

fn json(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).expect("utf8")).expect("json")
}

#[test]
fn zero_row_months_answer_200_with_zero_rows() {
    let root = locked_tree();
    let source = DataSource::from_archive(&root).expect("archive loads");
    let (first, last) = source.ndt_month_bounds();
    let month = MonthStamp::new(2019, 3);
    let stats = source
        .ndt_month_stats(country::VE, month)
        .expect("query succeeds")
        .expect("a zero-row month is still a month of the archive");
    assert_eq!((stats.rows, stats.median_download), (0, None));
    assert_eq!(stats.format, "columnar-v2");
    assert_eq!(stats.read, Default::default());
    let range = source
        .ndt_range_stats(country::VE, first, last)
        .expect("range succeeds");
    assert_eq!(range.months.len(), range.months_queried);
    assert_eq!(range.rows, 0);

    let server =
        Server::bind(Arc::new(source), "127.0.0.1:0", ServeOptions::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    std::thread::spawn(move || server.run().expect("server run"));
    let (status, body) = http_get(addr, &format!("/ndt/VE/{month}"));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let answer = json(&body);
    assert_eq!(answer.get("rows").and_then(Json::as_f64), Some(0.0));
    assert_eq!(answer.get("median_download_mbps"), Some(&Json::Null));
    assert_eq!(
        answer.get("format").and_then(Json::as_str),
        Some("columnar-v2")
    );
    let (status, body) = http_get(addr, &format!("/ndt/VE?from={first}&to={month}"));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(json(&body).get("rows").and_then(Json::as_f64), Some(0.0));
    // A month the archive does not hold is still a 404.
    let (status, _) = http_get(addr, "/ndt/VE/1805-12");
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn a_container_corrupted_after_boot_is_an_uncached_500_and_the_worker_keeps_serving() {
    let root = locked_tree();
    let source = DataSource::from_archive(&root).expect("loads");
    let server =
        Server::bind(Arc::new(source), "127.0.0.1:0", ServeOptions::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    std::thread::spawn(move || server.run().expect("server run"));

    // Corrupt one byte inside BR's July 2019 blocks after boot.
    let path = root.join("mlab/BR.ndtc");
    let good = std::fs::read(&path).expect("BR container");
    let month = MonthStamp::new(2019, 7);
    let (lo, hi) = (
        month.first_day().days_since_epoch(),
        month.last_day().days_since_epoch(),
    );
    let block = ColumnReader::open(&good)
        .expect("opens")
        .blocks()
        .iter()
        .find(|b| b.day_span().0 >= lo && b.day_span().1 <= hi)
        .map(|b| b.offset() + b.byte_len() / 2)
        .expect("BR has July 2019 rows");
    let mut bad = good.clone();
    bad[block] ^= 0x40;
    std::fs::write(&path, &bad).expect("corrupt");

    let target = format!("/ndt/BR/{month}");
    for _ in 0..2 {
        let (status, body) = http_get(addr, &target);
        assert_eq!(status, 500, "{}", String::from_utf8_lossy(&body));
    }
    let (status, _) = http_get(addr, &format!("/ndt/BR?from=2019-06&to={month}"));
    assert_eq!(status, 500);
    // Truncation after boot is a typed 500 as well, not a panic.
    std::fs::write(&path, &good[..good.len() / 3]).expect("truncate");
    let (status, _) = http_get(addr, "/ndt/BR?from=2023-01&to=2023-06");
    assert_eq!(status, 500);

    // The worker keeps serving: liveness, other countries, and — once
    // the file is whole again — the very query that failed, computed
    // fresh because no 500 was cached.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/ndt/AR/2019-07");
    assert_eq!(status, 200);
    std::fs::write(&path, &good).expect("restore");
    let (status, _) = http_get(addr, &target);
    assert_eq!(status, 200);
    let (_, metrics) = http_get(addr, "/metrics");
    let text = String::from_utf8(metrics).expect("utf8");
    assert!(
        text.contains("lacnet_requests_total{endpoint=\"ndt\"} 4"),
        "{text}"
    );
    assert!(
        text.contains("lacnet_cache_misses_total{endpoint=\"ndt\"} 2"),
        "{text}"
    );
    handle.shutdown();
}

/// Swap each `(rel, bytes)` into `root`, load the archive, put every
/// original back, and hand back the load's error.
fn load_with_files(root: &Path, files: &[(&str, &[u8])]) -> Error {
    let originals: Vec<Vec<u8>> = files
        .iter()
        .map(|(rel, _)| std::fs::read(root.join(rel)).expect("archive file exists"))
        .collect();
    for (rel, bytes) in files {
        std::fs::write(root.join(rel), bytes).expect("write hostile file");
    }
    let loaded = DataSource::from_archive(root);
    for ((rel, _), original) in files.iter().zip(originals) {
        std::fs::write(root.join(rel), original).expect("restore archive file");
    }
    match loaded {
        Ok(_) => panic!("a tree with hostile files loaded"),
        Err(e) => e,
    }
}

/// The manifest's entries under `dir`, in manifest order.
fn manifest_entries(root: &Path, dir: &str) -> Vec<String> {
    let manifest = std::fs::read_to_string(root.join("MANIFEST.txt")).expect("manifest");
    manifest
        .lines()
        .filter(|l| l.starts_with(dir))
        .map(str::to_owned)
        .collect()
}

#[test]
fn unreadable_archive_files_are_parse_errors_naming_the_file() {
    let root = locked_tree();
    let dump = manifest_entries(&root, "peeringdb/").swap_remove(0);
    let not_utf8: &[u8] = b"{\"fac\": [\xff\xfe]}";
    let names = |e: &Error, rel: &str| match e {
        Error::Parse { expected, input } => {
            *expected == "readable archive file" && input.contains(rel)
        }
        _ => false,
    };

    // A PeeringDB dump that is there but is not UTF-8.
    let e = load_with_files(&root, &[(&dump, not_utf8)]);
    assert!(names(&e, &dump), "{e:?}");

    // The same bytes in an NDT container fail its decode, typed; a
    // container path that cannot be read at all (a directory) names it.
    let container = "mlab/AR.ndtc";
    let e = load_with_files(&root, &[(container, not_utf8)]);
    assert!(matches!(e, Error::Parse { .. }), "{e:?}");
    let path = root.join(container);
    let good = std::fs::read(&path).expect("AR container");
    std::fs::remove_file(&path).expect("remove AR container");
    std::fs::create_dir(&path).expect("directory in its place");
    let loaded = DataSource::from_archive(&root);
    std::fs::remove_dir(&path).expect("remove the directory");
    std::fs::write(&path, good).expect("restore AR container");
    let e = loaded
        .err()
        .expect("an unreadable container fails the load");
    assert!(names(&e, container), "{e:?}");

    // Only a file that is not there is missing.
    let aside = root.join("peeringdb-aside.json");
    std::fs::rename(root.join(&dump), &aside).expect("move the dump aside");
    let loaded = DataSource::from_archive(&root);
    std::fs::rename(&aside, root.join(&dump)).expect("put the dump back");
    match loaded.err().expect("a missing dump fails the load") {
        Error::Missing { what, key } => {
            assert_eq!(what, "archive file");
            assert!(key.ends_with(&dump), "{key}");
        }
        other => panic!("expected a missing-file error, got {other:?}"),
    }
    DataSource::from_archive(&root).expect("restored tree loads");
}

#[test]
fn a_peeringdb_dump_naming_a_missing_net_fails_the_load() {
    let root = locked_tree();
    let dump = manifest_entries(&root, "peeringdb/").pop().expect("a dump");
    let text = std::fs::read_to_string(root.join(&dump)).expect("dump");
    let mut snapshot = lacnet::peeringdb::Snapshot::from_json(&text).expect("dump parses");
    let unknown = snapshot.net.iter().map(|n| n.id).max().expect("a net") + 1;
    snapshot.netfac.first_mut().expect("a netfac").net_id = unknown;
    let e = load_with_files(&root, &[(&dump, snapshot.to_json().as_bytes())]);
    assert_eq!(e, Error::invalid("netfac references missing net"));
}

#[test]
fn a_load_with_several_bad_files_fails_on_the_first_in_manifest_order() {
    let root = locked_tree();
    // The newest PeeringDB dump, a top-sites scrape listed after it, and
    // an NDT container, which decodes only after the manifest's files.
    let dump = manifest_entries(&root, "peeringdb/").pop().expect("a dump");
    let sites = manifest_entries(&root, "topsites/")
        .pop()
        .expect("a scrape");
    let manifest = std::fs::read_to_string(root.join("MANIFEST.txt")).expect("manifest");
    assert!(manifest.find(dump.as_str()) < manifest.find(sites.as_str()));
    let bad_dump = "{\"fac\": not json";
    let expected = match lacnet::peeringdb::Snapshot::from_json(bad_dump) {
        Ok(_) => panic!("the bad dump parses"),
        Err(e) => e,
    };
    let files: [(&str, &[u8]); 3] = [
        (&dump, bad_dump.as_bytes()),
        (&sites, b"[\"not a scrape\""),
        ("mlab/BR.ndtc", b"NDTC\x02 not a container"),
    ];
    // However the sweep's workers interleave, every load returns the
    // serial loop's error: the dump's.
    for _ in 0..6 {
        assert_eq!(load_with_files(&root, &files), expected);
    }
}

#[test]
fn an_unreadable_pfx2as_table_fails_naming_the_file() {
    let root = locked_tree();
    let month = MonthStamp::new(2016, 4);
    let rel = "pfx2as/routeviews-rv2-20160401.pfx2as";
    let path = root.join(rel);
    let good = std::fs::read(&path).expect("the month's table is dumped");
    // The month's table off a freshly loaded source, or the panic
    // message its lookup failed with. Tables load lazily, so every state
    // of the file below loads cleanly and fails only on lookup.
    let lookup = || {
        let source = DataSource::from_archive(&root).expect("tree loads");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| source.pfx2as_at(month)))
            .map_err(|panic| panic.downcast_ref::<String>().cloned().unwrap_or_default())
    };

    std::fs::write(&path, b"10.0.0.0\t8\t\xff\xfe\n").expect("write non-UTF-8 table");
    let not_utf8 = lookup();
    std::fs::remove_file(&path).expect("remove the table");
    std::fs::create_dir(&path).expect("directory in its place");
    let directory = lookup();
    std::fs::remove_dir(&path).expect("remove the directory");
    let removed = lookup();
    std::fs::write(&path, &good).expect("restore the table");

    for failed in [not_utf8, directory] {
        let message = failed.expect_err("an unreadable table must not serve as empty");
        assert!(message.contains(rel), "{message}");
    }
    // Only a table that is not there is the empty out-of-window table.
    assert!(removed.expect("a missing table is no error").is_empty());
    assert!(!lookup().expect("restored table parses").is_empty());
}

#[test]
fn a_panicking_request_answers_500_and_its_worker_keeps_serving() {
    let root = locked_tree();
    let rel = "pfx2as/routeviews-rv2-20160401.pfx2as";
    let path = root.join(rel);
    let good = std::fs::read(&path).expect("the month's table is dumped");
    // Tables parse lazily, so the tree loads cleanly and fig02's lookup
    // of the unreadable month panics on each worker that computes it.
    let source = DataSource::from_archive(&root).expect("tree loads");
    std::fs::write(&path, b"10.0.0.0\t8\t\xff\xfe\n").expect("write non-UTF-8 table");
    let options = ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    };
    let server = Server::bind(Arc::new(source), "127.0.0.1:0", options).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    std::thread::spawn(move || server.run().expect("server run"));
    let panicked: Vec<(u16, Vec<u8>)> = (0..3)
        .map(|_| http_get(addr, "/fig/02?format=tsv"))
        .collect();
    let healthz = http_get(addr, "/healthz");
    let fig01 = http_get(addr, "/fig/01?format=tsv");
    let metrics = http_get(addr, "/metrics");
    std::fs::write(&path, &good).expect("restore the table");
    handle.shutdown();

    for (status, body) in &panicked {
        assert_eq!(*status, 500, "{}", String::from_utf8_lossy(body));
        let error = json(body);
        let message = error.get("error").and_then(Json::as_str).expect("error");
        assert!(message.contains(rel), "{message}");
    }
    assert_eq!(healthz.0, 200);
    assert_eq!(fig01.0, 200, "{}", String::from_utf8_lossy(&fig01.1));
    let text = String::from_utf8(metrics.1).expect("utf8");
    assert!(
        text.contains("lacnet_requests_total{endpoint=\"fig02\"} 3"),
        "{text}"
    );
}
