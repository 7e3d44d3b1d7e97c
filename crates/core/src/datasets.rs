//! Dataset export: write a generated world to disk as an archive tree in
//! each dataset's native format — the shape of the artifact bundle the
//! paper publishes ("we make available all datasets and code").
//!
//! The tree is complete enough to *reload*: [`crate::DataSource::from_archive`]
//! rebuilds every dataset the battery consumes from these files alone,
//! and the round-trip suite proves the reloaded battery byte-identical to
//! the in-memory one.
//!
//! ```text
//! <out>/
//!   world/config.tsv                     the generating configuration
//!   serial1/19980101.as-rel.txt …        CAIDA serial-1, monthly
//!   pfx2as/routeviews-rv2-20080101.pfx2as …  RouteViews pfx2as, monthly
//!   delegations/delegated-lacnic-20080101 …  NRO delegation files, yearly
//!                                        plus one full-history snapshot
//!   peeringdb/peeringdb_2_dump_2018_04_01.json …  schema-v2 dumps, monthly
//!   cables/cable-map.json                Telegeography-style export
//!   offnets/scan-2013.json …             yearly TLS scans
//!   topsites/VE.json …                   per-country scrapes
//!   mlab/VE.ndtc …                       one NDT container per country,
//!                                        every month of the window in
//!                                        plan order
//!   mlab/manifest.tsv                    per-container (country,
//!                                        fingerprint, content hash,
//!                                        path) — incremental refresh
//!                                        skips unchanged countries
//!   mlab/index.tsv                       per-(country, month) census:
//!                                        container path, rows, blocks,
//!                                        day span
//!   atlas/reachability-VE-2019.tsv …     daily connected probes, per country
//!   MANIFEST.txt
//! ```
//!
//! NDT rows are the bulk of the tree, so they get three optimisations:
//! one container per country instead of one file per (country, month),
//! so a dump creates ~30 NDT files rather than thousands; the binary
//! columnar `.ndtc` encoding ([`lacnet_mlab::columnar`]); and
//! *incremental refresh* — each dump records every container's input
//! fingerprint (seed, effective per-country volume scale, month window)
//! in `mlab/manifest.tsv`, and a re-dump over the same tree regenerates
//! only the countries whose fingerprints changed.

use crate::source::{read_error, read_text};
use lacnet_crisis::config::windows;
use lacnet_crisis::{bandwidth, blackouts, World, WorldConfig};
use lacnet_mlab::aggregate::{Mode, MonthlyAggregator};
use lacnet_mlab::columnar::{self, ColumnReader, ColumnSelection, DecodeScratch, ShardFormat};
use lacnet_mlab::BlockRun;
use lacnet_types::rng::Rng;
use lacnet_types::{codec, country, sweep, CountryCode, Date, MonthStamp, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Summary of one export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpSummary {
    /// Files in the tree, with their archive-relative paths (skipped
    /// containers included — they are part of the tree even when
    /// untouched).
    pub files: Vec<String>,
    /// Total bytes written (skipped containers excluded).
    pub bytes: u64,
    /// NDT containers (re)written this dump.
    pub containers_written: usize,
    /// NDT containers skipped because the manifest proved their inputs
    /// unchanged.
    pub containers_skipped: usize,
}

/// Options for one export.
#[derive(Debug, Clone, Copy, Default)]
pub struct DumpOptions {
    /// Benchmark-only: `.ndtc` is the only NDT encoding, and this field
    /// stays only because `benchmark/` still sets it.
    pub shard_format: ShardFormat,
    /// Rewrite every container even when the manifest says its inputs
    /// are unchanged.
    pub force: bool,
}

fn write_bytes(
    root: &Path,
    rel: &str,
    contents: &[u8],
    summary: &mut DumpSummary,
) -> io::Result<()> {
    let path = root.join(rel);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(&path, contents)?;
    summary.files.push(rel.to_owned());
    summary.bytes += contents.len() as u64;
    Ok(())
}

fn write(root: &Path, rel: &str, contents: &str, summary: &mut DumpSummary) -> io::Result<()> {
    write_bytes(root, rel, contents.as_bytes(), summary)
}

/// The archive-relative path of one country's NDT container.
pub fn mlab_container_path(cc: CountryCode) -> String {
    format!("mlab/{cc}.ndtc")
}

/// The archive-relative path of the container holding one NDT shard's
/// rows — every month of a country shares one file. Benchmark-only: the
/// format argument stays only because `benchmark/` still passes it.
pub fn mlab_shard_path_with(shard: bandwidth::NdtShard, _format: ShardFormat) -> String {
    mlab_container_path(shard.0)
}

/// The archive-relative path of the NDT container manifest.
pub const MLAB_MANIFEST: &str = "mlab/manifest.tsv";

/// The archive-relative path of the NDT shard index: one record per
/// `(country, month)` with its container path, row count, block count
/// and day span, written at dump time. It is a census for tools and
/// incremental refresh; the archive loader derives the same table from
/// the containers themselves.
pub const MLAB_INDEX: &str = "mlab/index.tsv";

/// One `mlab/index.tsv` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIndexRecord {
    /// Archive-relative path of the container holding the shard.
    pub path: String,
    /// Rows in the shard.
    pub rows: u64,
    /// Independently decodable blocks of the shard.
    pub blocks: u64,
    /// Min/max test day (days since epoch) across the shard's rows;
    /// `None` for a month without rows.
    pub days: Option<(i64, i64)>,
}

/// Parse the shard index of a dumped tree, keyed by `CC/YYYY-MM` label.
/// A missing index, or a malformed record, yields no entry — the index
/// is a census derived from the tree, never a source of truth.
pub fn read_shard_index(root: &Path) -> BTreeMap<String, ShardIndexRecord> {
    let mut map = BTreeMap::new();
    let Ok(text) = fs::read_to_string(root.join(MLAB_INDEX)) else {
        return map;
    };
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [label, path, rows, blocks, min, max] = cols[..] else {
            continue;
        };
        let (Ok(rows), Ok(blocks)) = (rows.parse(), blocks.parse()) else {
            continue;
        };
        let days = match (min, max) {
            ("-", "-") => None,
            _ => match (min.parse(), max.parse()) {
                (Ok(min), Ok(max)) if min <= max => Some((min, max)),
                _ => continue,
            },
        };
        map.insert(
            label.to_owned(),
            ShardIndexRecord {
                path: path.to_owned(),
                rows,
                blocks,
                days,
            },
        );
    }
    map
}

/// Version tag folded into every container fingerprint. Bump it whenever
/// the NDT *writer* changes behaviour, so stale trees refresh fully
/// instead of trusting fingerprints computed for the old writer.
/// ("v3": one container per country instead of one file per month.)
const SHARD_GEN_VERSION: &str = "v3";

/// The fingerprint of everything a country's container depends on:
/// writer version, seed, the country's effective volume scale, the month
/// window, and — for non-default scenarios only — the scenario
/// fingerprint. The default (Venezuela) scenario adds nothing; switching
/// scenarios changes every container's fingerprint and forces a full
/// rewrite. The key still names the `columnar` encoding, so `.ndtc`
/// trees dumped while a text encoding existed stay up to date.
fn container_fingerprint(
    config: &WorldConfig,
    scenario: &lacnet_crisis::Scenario,
    cc: CountryCode,
    (start, end): (MonthStamp, MonthStamp),
) -> u64 {
    let mut key = format!(
        "ndt-container/{SHARD_GEN_VERSION}/columnar/{}/{}/{cc}/{start}/{end}",
        config.seed,
        config.mlab_scale_for(cc),
    );
    if !scenario.is_default() {
        let _ = write!(key, "/scn{:016x}", scenario.fingerprint());
    }
    codec::fnv1a64(key.as_bytes())
}

/// One `mlab/manifest.tsv` record.
struct ContainerRecord {
    fingerprint: u64,
    content_hash: u64,
    path: String,
}

/// Parse a container manifest written by a previous dump, keyed by
/// country code. Unreadable or malformed manifests yield an empty map —
/// the dump then rewrites everything, which is always safe.
fn read_container_manifest(root: &Path) -> BTreeMap<String, ContainerRecord> {
    let mut map = BTreeMap::new();
    let Ok(text) = fs::read_to_string(root.join(MLAB_MANIFEST)) else {
        return map;
    };
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split('\t');
        let (Some(cc), Some(fp), Some(hash), Some(path)) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            continue;
        };
        let (Ok(fingerprint), Ok(content_hash)) =
            (u64::from_str_radix(fp, 16), u64::from_str_radix(hash, 16))
        else {
            continue;
        };
        map.insert(
            cc.to_owned(),
            ContainerRecord {
                fingerprint,
                content_hash,
                path: path.to_owned(),
            },
        );
    }
    map
}

/// One month's index census: rows, blocks, and day span (`None` without
/// rows).
pub type MonthCensus = (u64, u64, Option<(i64, i64)>);

/// One country's encoded NDT container and the index census of each of
/// its months, plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedContainer {
    /// The container's bytes.
    pub bytes: Vec<u8>,
    /// Per month, plan order.
    pub months: Vec<MonthCensus>,
}

/// Generate one shard's rows and encode them as `.ndtc` blocks — one
/// sweep job of a dump.
fn encode_month(world: &World, shard: bandwidth::NdtShard) -> BlockRun {
    let (cc, month) = shard;
    let scale = world.config.mlab_scale_for(cc) * world.scenario.mlab_factor(cc, month);
    BlockRun::encode(&bandwidth::generate_shard(
        &world.operators,
        world.config.seed,
        scale,
        shard,
    ))
}

/// Encode the NDT containers of `countries` over the world's month
/// window on `workers` sweep workers. Every `(country, month)` is its own
/// job — so a country as large as BR does not idle the other workers —
/// and each container is then assembled from its months in plan order,
/// so the bytes do not depend on `workers`.
pub fn encode_ndt_containers(
    world: &World,
    countries: &[CountryCode],
    workers: usize,
) -> Vec<EncodedContainer> {
    let months: Vec<MonthStamp> = windows::mlab_start().through(world.config.end).collect();
    let jobs: Vec<bandwidth::NdtShard> = countries
        .iter()
        .flat_map(|&cc| months.iter().map(move |&m| (cc, m)))
        .collect();
    let encoded = sweep::parallel_map_with(workers, &jobs, |&shard| encode_month(world, shard));
    encoded
        .chunks(months.len().max(1))
        .map(|runs| EncodedContainer {
            bytes: columnar::assemble(runs),
            months: runs
                .iter()
                .map(|run| (run.rows() as u64, run.blocks().len() as u64, run.day_span()))
                .collect(),
        })
        .collect()
}

/// Export the world's datasets under `root` with default options
/// (incremental refresh on). See [`dump_with`].
pub fn dump(world: &World, root: &Path) -> io::Result<DumpSummary> {
    dump_with(world, root, DumpOptions::default())
}

/// Export the world's datasets under `root`. Monthly resolution for every
/// archive the battery reads monthly (serial-1, pfx2as, PeeringDB, NDT
/// months), so a [`crate::DataSource::from_archive`] reload reproduces the
/// in-memory battery byte for byte.
///
/// NDT containers refresh incrementally: countries whose
/// `mlab/manifest.tsv` fingerprint matches the current configuration
/// (and whose container and index records still exist) are neither
/// regenerated nor rewritten unless [`DumpOptions::force`] is set.
pub fn dump_with(world: &World, root: &Path, options: DumpOptions) -> io::Result<DumpSummary> {
    let mut summary = DumpSummary {
        files: Vec::new(),
        bytes: 0,
        containers_written: 0,
        containers_skipped: 0,
    };
    let end = world.config.end;

    // Decide which NDT containers are stale, then build them — encode on
    // sweep workers, write — beside this thread, which writes the
    // datasets that precede them in the tree: those hundreds of small
    // files cost system time here, the encoding costs user time there.
    let ndt = NdtRefresh::plan(world, root, options);
    let (leading, built) = std::thread::scope(|scope| {
        let building = scope.spawn(|| ndt.build(world, root));
        let leading = write_leading_datasets(world, root, &mut summary);
        (leading, building.join())
    });
    leading?;
    let built = built.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
    ndt.finish(world, root, built, &mut summary)?;

    // A traceroute archive sample: every Venezuelan probe's path to
    // GPDNS at the final month (the raw form of MSM 1591146).
    {
        use lacnet_atlas::anycast::{AnycastFleet, AnycastSite, SiteScope};
        use lacnet_atlas::gpdns::LatencyModel;
        use lacnet_atlas::traceroute;
        let month = end;
        let fleet = AnycastFleet::new(
            world
                .dns
                .gpdns_sites
                .iter()
                .filter(|s| s.active_in(month))
                .map(|s| AnycastSite {
                    id: s.id.clone(),
                    location: s.location,
                    scope: SiteScope::Global,
                })
                .collect(),
        );
        let model = LatencyModel::default();
        let transits = [
            lacnet_types::Asn(23520),
            lacnet_types::Asn(6762),
            lacnet_types::Asn(52320),
            lacnet_types::Asn(3356),
        ];
        let mut text = String::new();
        let rng_root = Rng::seeded(world.config.seed);
        for probe in world.dns.probes.active_in_country(month, country::VE) {
            if let Some(site) = fleet.catch(probe) {
                let path = traceroute::gpdns_path(probe, site, &transits);
                let mut rng = rng_root.fork(&format!("dump/traceroute/{}", probe.id));
                let tr = traceroute::simulate(probe, site, &model, &path, month, &mut rng);
                text.push_str(&tr.to_text());
            }
        }
        write(root, "atlas/traceroutes-ve.txt", &text, &mut summary)?;
    }

    // Daily reachability for the blackout year, one file per country.
    let reach = blackouts::daily_reachability_with(
        &world.dns,
        Date::ymd(2019, 1, 1),
        Date::ymd(2019, 12, 31),
        world.config.seed,
        &world.scenario,
    );
    for (cc, series) in &reach {
        write(
            root,
            &format!("atlas/reachability-{cc}-2019.tsv"),
            &series.to_tsv(),
            &mut summary,
        )?;
    }

    // Manifest.
    let mut manifest = String::new();
    let _ = writeln!(
        manifest,
        "# lacnet dataset dump (seed {:#x})",
        world.config.seed
    );
    for f in &summary.files {
        let _ = writeln!(manifest, "{f}");
    }
    // The manifest lists itself so `verify` covers the whole tree.
    let _ = writeln!(manifest, "MANIFEST.txt");
    write(root, "MANIFEST.txt", &manifest, &mut summary)?;
    Ok(summary)
}

/// Write every dataset that precedes the NDT containers in the tree:
/// the config and scenario sidecars, serial-1, pfx2as, delegations,
/// PeeringDB, the cable map, off-net scans and top sites.
fn write_leading_datasets(world: &World, root: &Path, summary: &mut DumpSummary) -> io::Result<()> {
    let end = world.config.end;

    // The config sidecar: the loader regenerates the model roots
    // (economy, operators, DNS world) from exactly this configuration.
    write(root, "world/config.tsv", &world.config.to_text(), summary)?;

    // The scenario sidecar — written only for non-default scenarios, so
    // default trees keep their historical file set byte for byte. The
    // loader applies the sidecar's overlays when regenerating; a missing
    // sidecar means the default (Venezuela) scenario. A stale sidecar
    // from a previous non-default dump is removed.
    if world.scenario.is_default() {
        let _ = fs::remove_file(root.join("world/scenario.toml"));
    } else {
        write(
            root,
            "world/scenario.toml",
            &world.scenario.to_toml(),
            summary,
        )?;
    }

    // Derive the monthly pfx2as tables across workers before the
    // sequential write loop below reads them one by one.
    world.prewarm(windows::pfx2as_start(), end);

    // serial-1, one file per month of the archive.
    for (m, graph) in world.topology.iter() {
        let rel = format!("serial1/{}{:02}01.as-rel.txt", m.year(), m.month());
        let text = lacnet_bgp::serial1::to_text(&graph.edges(), &format!("lacnet world {m}"));
        write(root, &rel, &text, summary)?;
    }

    // pfx2as, one file per month since 2008.
    for m in windows::pfx2as_start().through(end) {
        let table = world.pfx2as_at(m);
        write(
            root,
            &format!(
                "pfx2as/routeviews-rv2-{}{:02}01.pfx2as",
                m.year(),
                m.month()
            ),
            &table.to_text(),
            summary,
        )?;
    }

    // Delegations: yearly snapshots as the registry publishes them, plus
    // one full-history file at the archive's end date — the snapshot the
    // loader rebuilds the allocation ledger from (it reads the *last*
    // delegations entry in the manifest).
    for year in 2008..=end.year() {
        let m = MonthStamp::new(year, 1);
        if m > end {
            break;
        }
        let file = world.addressing.delegation_file(Date::ymd(year, 1, 1));
        write(
            root,
            &format!("delegations/delegated-lacnic-{year}0101"),
            &file.to_text(Date::ymd(year, 1, 1)),
            summary,
        )?;
    }
    let last_day = end.last_day();
    let file = world.addressing.delegation_file(last_day);
    write(
        root,
        &format!(
            "delegations/delegated-lacnic-{:04}{:02}{:02}",
            last_day.year(),
            last_day.month(),
            last_day.day()
        ),
        &file.to_text(last_day),
        summary,
    )?;

    // PeeringDB dumps, one per month of the schema-v2 era.
    for (m, snap) in world.peeringdb.iter() {
        write(
            root,
            &format!(
                "peeringdb/peeringdb_2_dump_{}_{:02}_01.json",
                m.year(),
                m.month()
            ),
            &snap.to_json(),
            summary,
        )?;
    }

    // Cable map.
    write(
        root,
        "cables/cable-map.json",
        &world.cables.to_json(),
        summary,
    )?;

    // Off-net scans.
    for scan in &world.cert_scans {
        write(
            root,
            &format!("offnets/scan-{}.json", scan.month.year()),
            &scan.to_json(),
            summary,
        )?;
    }

    // Top sites.
    for list in &world.top_sites {
        write(
            root,
            &format!("topsites/{}.json", list.country),
            &list.to_json(),
            summary,
        )?;
    }
    Ok(())
}

/// One container [`NdtRefresh::build`] wrote.
struct BuiltContainer {
    len: u64,
    content_hash: u64,
    months: Vec<MonthCensus>,
}

/// The NDT part of a dump: the same per-(country, month) substreams
/// `world.mlab` aggregated, one container per country holding every
/// month in plan order — reading the containers back in country order
/// replays the exact observation sequence into the P² estimators. Which
/// containers are rebuilt is decided from the previous dump's manifest
/// and shard index before anything is written.
struct NdtRefresh {
    window: (MonthStamp, MonthStamp),
    /// Months per country in the window.
    months: usize,
    /// The shard plan: countries in registry order, months ascending.
    plan: Vec<bandwidth::NdtShard>,
    countries: Vec<CountryCode>,
    /// Per country, whether its container is rebuilt.
    rebuild: Vec<bool>,
    previous: BTreeMap<String, ContainerRecord>,
    previous_index: BTreeMap<String, ShardIndexRecord>,
}

fn shard_label((cc, month): bandwidth::NdtShard) -> String {
    format!("{cc}/{month}")
}

impl NdtRefresh {
    /// A country is rebuilt unless its manifest fingerprint matches, its
    /// container exists and every one of its months has an index record
    /// — or always, under [`DumpOptions::force`].
    fn plan(world: &World, root: &Path, options: DumpOptions) -> NdtRefresh {
        let window = (windows::mlab_start(), world.config.end);
        let plan = bandwidth::shard_plan(window.0, window.1);
        let months = window.0.months_until(window.1) as usize + 1;
        let previous = read_container_manifest(root);
        let previous_index = read_shard_index(root);
        let countries: Vec<CountryCode> = country::lacnic_codes().collect();
        let rebuild = countries
            .iter()
            .zip(plan.chunks(months))
            .map(|(&cc, shards)| {
                let rel = mlab_container_path(cc);
                let fingerprint = container_fingerprint(&world.config, &world.scenario, cc, window);
                let fresh = !options.force
                    && previous.get(cc.as_str()).is_some_and(|rec| {
                        rec.fingerprint == fingerprint
                            && rec.path == rel
                            && root.join(&rel).exists()
                    })
                    && shards.iter().all(|&shard| {
                        previous_index
                            .get(&shard_label(shard))
                            .is_some_and(|r| r.path == rel)
                    });
                !fresh
            })
            .collect();
        NdtRefresh {
            window,
            months,
            plan,
            countries,
            rebuild,
            previous,
            previous_index,
        }
    }

    /// Encode the rebuilt countries' containers and write them into the
    /// tree — the part of a dump that runs beside the leading datasets.
    /// Returns, per rebuilt country in registry order, the container's
    /// size, content hash and month census.
    fn build(&self, world: &World, root: &Path) -> io::Result<Vec<BuiltContainer>> {
        let stale: Vec<CountryCode> = self
            .countries
            .iter()
            .zip(&self.rebuild)
            .filter_map(|(&cc, &rebuild)| rebuild.then_some(cc))
            .collect();
        let workers = sweep::worker_count(stale.len() * self.months);
        let containers = encode_ndt_containers(world, &stale, workers);
        fs::create_dir_all(root.join("mlab"))?;
        stale
            .iter()
            .zip(containers)
            .map(|(&cc, container)| {
                fs::write(root.join(mlab_container_path(cc)), &container.bytes)?;
                Ok(BuiltContainer {
                    len: container.bytes.len() as u64,
                    content_hash: codec::fnv1a64(&container.bytes),
                    months: container.months,
                })
            })
            .collect()
    }

    /// Account for the rebuilt containers (`built`, from
    /// [`NdtRefresh::build`]) and the fresh ones, then write the container
    /// manifest and the shard index over all of them.
    fn finish(
        &self,
        world: &World,
        root: &Path,
        built: Vec<BuiltContainer>,
        summary: &mut DumpSummary,
    ) -> io::Result<()> {
        let mut built = built.into_iter();
        let mut container_manifest =
            format!("# lacnet NDT container manifest ({SHARD_GEN_VERSION})\n");
        let mut shard_index = format!(
            "# lacnet NDT shard index ({SHARD_GEN_VERSION}): \
             label\tpath\trows\tblocks\tmin_day\tmax_day\n"
        );
        let per_country = self
            .countries
            .iter()
            .zip(self.plan.chunks(self.months))
            .zip(&self.rebuild);
        for ((&cc, shards), &rebuild) in per_country {
            let rel = mlab_container_path(cc);
            summary.files.push(rel.clone());
            let (content_hash, census) = if rebuild {
                let container = built.next().expect("one container per rebuilt country");
                summary.bytes += container.len;
                summary.containers_written += 1;
                (container.content_hash, container.months)
            } else {
                summary.containers_skipped += 1;
                let census = shards
                    .iter()
                    .map(|&shard| {
                        let rec = &self.previous_index[&shard_label(shard)];
                        (rec.rows, rec.blocks, rec.days)
                    })
                    .collect();
                (self.previous[cc.as_str()].content_hash, census)
            };
            let _ = writeln!(
                container_manifest,
                "{cc}\t{:016x}\t{content_hash:016x}\t{rel}",
                container_fingerprint(&world.config, &world.scenario, cc, self.window),
            );
            for (&shard, (rows, blocks, days)) in shards.iter().zip(census) {
                let (min_day, max_day) = match days {
                    Some((lo, hi)) => (lo.to_string(), hi.to_string()),
                    None => ("-".to_owned(), "-".to_owned()),
                };
                let _ = writeln!(
                    shard_index,
                    "{}\t{rel}\t{rows}\t{blocks}\t{min_day}\t{max_day}",
                    shard_label(shard)
                );
            }
        }
        write(root, MLAB_MANIFEST, &container_manifest, summary)?;
        write(root, MLAB_INDEX, &shard_index, summary)
    }
}

/// Re-parse every exported file, proving the tree is consumable by the
/// substrate parsers alone (no access to the in-memory world).
///
/// Each `.ndtc` container is read whole and scanned block by block into
/// an aggregator, as the archive loader decodes it, but with every column
/// decoded and range-checked. The container manifest and the shard index
/// are verified structurally: every container they name must exist. A
/// listed file that is not there is [`lacnet_types::Error::Missing`]; one
/// that is there but cannot be read is a parse error naming it.
pub fn verify(root: &Path) -> Result<usize> {
    let mut checked = 0usize;
    let manifest = read_text(root, "MANIFEST.txt")?;
    let mut agg = MonthlyAggregator::new(Mode::Streaming);
    let selection = ColumnSelection::all();
    let mut scratch = DecodeScratch::new();
    for rel in manifest.lines().filter(|l| !l.starts_with('#')) {
        if rel == MLAB_MANIFEST || rel == MLAB_INDEX {
            let paths: Vec<(String, String)> = if rel == MLAB_MANIFEST {
                read_container_manifest(root)
                    .into_iter()
                    .map(|(cc, rec)| (cc, rec.path))
                    .collect()
            } else {
                read_shard_index(root)
                    .into_iter()
                    .map(|(label, rec)| (label, rec.path))
                    .collect()
            };
            for (key, path) in paths {
                if !root.join(&path).exists() {
                    return Err(lacnet_types::Error::missing("NDT container", key));
                }
            }
            checked += 1;
            continue;
        }
        if rel.starts_with("mlab/") {
            let bytes = fs::read(root.join(rel)).map_err(|e| {
                read_error(
                    e,
                    "NDT archive container",
                    format!("{}/{rel}", root.display()),
                )
            })?;
            ColumnReader::open(&bytes)?.scan_counted(&selection, &mut scratch, |view| {
                agg.observe_block(view);
                Ok(())
            })?;
            checked += 1;
            continue;
        }
        let text = read_text(root, rel)?;
        if rel.starts_with("serial1/") {
            lacnet_bgp::serial1::parse(&text)?;
        } else if rel.starts_with("pfx2as/") {
            lacnet_bgp::PfxToAs::parse(&text)?;
        } else if rel.starts_with("delegations/") {
            lacnet_registry::DelegationFile::parse(&text)?;
        } else if rel.starts_with("peeringdb/") {
            lacnet_peeringdb::Snapshot::from_json(&text)?.validate()?;
        } else if rel.starts_with("cables/") {
            lacnet_telegeo::CableMap::from_json(&text)?;
        } else if rel.starts_with("offnets/") {
            lacnet_offnets::CertScan::from_json(&text)?;
        } else if rel.starts_with("topsites/") {
            lacnet_webmeas::CountryTopSites::from_json(&text)?;
        } else if rel.starts_with("atlas/traceroutes") {
            lacnet_atlas::traceroute::parse_traceroutes(&text)?;
        } else if rel.starts_with("atlas/reachability") {
            lacnet_atlas::outages::ReachabilitySeries::parse_tsv(&text)?;
        } else if rel == "world/scenario.toml" {
            lacnet_crisis::Scenario::parse(&text).map_err(lacnet_types::Error::from)?;
        } else if rel.starts_with("world/") {
            lacnet_crisis::WorldConfig::parse(&text)?;
        } else if rel.starts_with("atlas/") || rel == "MANIFEST.txt" {
            // Plain TSV / manifest: nothing structured to validate.
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::Error;

    #[test]
    fn dump_and_verify_roundtrip() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-dump-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let summary = dump(world, &dir).expect("dump succeeds");
        assert!(summary.files.len() > 500, "{} files", summary.files.len());
        assert!(summary.bytes > 1_000_000, "{} bytes", summary.bytes);
        let checked = verify(&dir).expect("every file parses");
        assert_eq!(checked, summary.files.len());
        // Spot-check a known file exists with plausible content.
        let serial = std::fs::read_to_string(dir.join("serial1/20130101.as-rel.txt")).unwrap();
        assert!(serial.contains("|8048|-1"), "CANTV has providers in 2013");
        // One container per country covers the full per-(country, month)
        // plan, every month in order, and the index census matches the
        // container's footer month by month.
        let countries = country::lacnic_codes().count();
        let plan = bandwidth::shard_plan(windows::mlab_start(), world.config.end);
        let index = read_shard_index(&dir);
        assert_eq!(index.len(), plan.len());
        assert!(index["VE/2023-07"].rows > 10);
        let ve = std::fs::read(dir.join("mlab/VE.ndtc")).unwrap();
        assert_eq!(ve[4], columnar::VERSION);
        let reader = ColumnReader::open(&ve).unwrap();
        let ve_records: Vec<&ShardIndexRecord> = index
            .iter()
            .filter(|(label, _)| label.starts_with("VE/"))
            .map(|(_, r)| r)
            .collect();
        assert!(ve_records.iter().all(|r| r.path == "mlab/VE.ndtc"));
        assert_eq!(
            ve_records.iter().map(|r| r.blocks).sum::<u64>(),
            reader.block_count() as u64
        );
        assert_eq!(
            ve_records.iter().map(|r| r.rows).sum::<u64>(),
            reader.rows() as u64
        );
        // A fresh dump writes every container; a re-dump of the same
        // config skips every one.
        assert_eq!(summary.containers_written, countries);
        assert_eq!(summary.containers_skipped, 0);
        let again = dump(world, &dir).expect("re-dump succeeds");
        assert_eq!(again.containers_written, 0);
        assert_eq!(again.containers_skipped, countries);
        assert_eq!(again.files, summary.files);
        // A container whose index records are gone is rebuilt rather
        // than trusted.
        let index_text = std::fs::read_to_string(dir.join(MLAB_INDEX)).unwrap();
        let without_ve: String = index_text
            .lines()
            .filter(|l| !l.starts_with("VE/"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(dir.join(MLAB_INDEX), without_ve).unwrap();
        let healed = dump(world, &dir).expect("re-dump succeeds");
        assert_eq!(healed.containers_written, 1);
        assert_eq!(
            std::fs::read_to_string(dir.join(MLAB_INDEX)).unwrap(),
            index_text
        );
        // `--force` rewrites even an up-to-date tree.
        let forced = dump_with(
            world,
            &dir,
            DumpOptions {
                force: true,
                ..DumpOptions::default()
            },
        )
        .expect("forced re-dump");
        assert_eq!(forced.containers_skipped, 0);
        assert_eq!(forced.containers_written, countries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_fails_on_listed_files_it_cannot_read() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-verify-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dump(world, &dir).expect("dump succeeds");
        let serial = "serial1/20130101.as-rel.txt";
        let pfx2as = "pfx2as/routeviews-rv2-20160401.pfx2as";
        let unreadable = |e: Error, rel: &str| match e {
            Error::Parse { expected, input } => {
                expected == "readable archive file" && input.contains(rel)
            }
            _ => false,
        };
        let missing =
            |e: Error, rel: &str| matches!(e, Error::Missing { key, .. } if key.ends_with(rel));

        let good = std::fs::read(dir.join(serial)).unwrap();
        std::fs::write(dir.join(serial), b"1|8048|-1\xff\xfe\n").unwrap();
        let not_utf8 = verify(&dir).expect_err("a non-UTF-8 file fails");
        assert!(unreadable(not_utf8.clone(), serial), "{not_utf8:?}");

        std::fs::remove_file(dir.join(serial)).unwrap();
        std::fs::create_dir(dir.join(serial)).unwrap();
        let directory = verify(&dir).expect_err("a directory fails");
        assert!(unreadable(directory.clone(), serial), "{directory:?}");

        std::fs::remove_dir(dir.join(serial)).unwrap();
        let removed = verify(&dir).expect_err("a removed file fails");
        assert!(missing(removed.clone(), serial), "{removed:?}");
        std::fs::write(dir.join(serial), good).unwrap();

        let good = std::fs::read(dir.join(pfx2as)).unwrap();
        std::fs::remove_file(dir.join(pfx2as)).unwrap();
        let removed = verify(&dir).expect_err("a removed pfx2as table fails");
        assert!(missing(removed.clone(), pfx2as), "{removed:?}");
        std::fs::write(dir.join(pfx2as), good).unwrap();

        verify(&dir).expect("the restored tree verifies");
        std::fs::remove_dir_all(&dir).ok();
    }
}
