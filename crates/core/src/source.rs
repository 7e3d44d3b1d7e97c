//! The `DataSource`: one owned access surface for every dataset the
//! experiment battery consumes, whichever origin filled it.
//!
//! * `DataSource::from(world)` moves a generated [`World`] in, warm
//!   pfx2as and cone caches included — the fast path every unit test
//!   and the default `vzla-report` run use.
//! * [`DataSource::from_archive`] reloads a [`crate::datasets::dump`]
//!   tree: every dataset is rebuilt by parsing its native-format files,
//!   each by its row of the [`crate::archive`] table, exactly as the
//!   pipeline would parse the real archives.
//!
//! Both origins fill the same fields and share one pfx2as
//! `SnapshotCache` and one `ConeCache`. The origin is consulted only
//! where the two answer differently: deriving or parsing a pfx2as month,
//! answering an NDT query from the aggregate or from a container, and
//! naming the backend. The round-trip suite (`tests/archive_roundtrip.rs`)
//! proves the full battery renders byte-identically from both.

use crate::archive::{read_error, Dataset, Key, Part};
use lacnet_atlas::outages::ReachabilitySeries;
use lacnet_bgp::{ConeCache, PfxToAs, TopologyArchive};
use lacnet_crisis::addressing::Addressing;
use lacnet_crisis::config::windows;
use lacnet_crisis::dns::{self, DnsWorld};
use lacnet_crisis::operators::Operators;
use lacnet_crisis::world::SnapshotCache;
use lacnet_crisis::{blackouts, Economy, Scenario, World, WorldConfig};
use lacnet_mlab::aggregate::{Mode, MonthlyAggregator};
use lacnet_mlab::columnar::{
    BlockEntry, ColumnReader, ColumnSelection, ColumnSet, DecodeScratch, ReadStats,
};
use lacnet_offnets::certs::CertScan;
use lacnet_peeringdb::SnapshotArchive;
use lacnet_registry::AllocationLedger;
use lacnet_telegeo::CableMap;
use lacnet_types::stats::P2Quantile;
use lacnet_types::{country, sweep, Asn, CountryCode, Date, Error, MonthStamp, Result, TimeSeries};
use lacnet_webmeas::CountryTopSites;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Every dataset the battery consumes, generated or parsed from a dump
/// tree. An archive regenerates the model roots (economy, operators, DNS
/// world) from its config sidecar and parses every measured dataset from
/// its native-format files.
pub struct DataSource {
    /// The world configuration (an archive's `world/config.tsv`).
    pub config: WorldConfig,
    /// The scenario the world was generated under; an archive without a
    /// `world/scenario.toml` sidecar is a default (Venezuela) dump.
    pub scenario: Scenario,
    /// The macro-economy (Figs. 1, 13), a pure function of the config.
    pub economy: Economy,
    /// The operator cast, as2org mapping and populations, a pure
    /// function of the seed.
    pub operators: Operators,
    /// Probes, root deployment and GPDNS sites (Figs. 6, 12, 16, 17,
    /// 20), a pure function of the seed.
    pub dns: DnsWorld,
    /// Monthly AS-relationship snapshots (Figs. 8, 9); an archive's
    /// monthly serial-1 files.
    pub topology: TopologyArchive,
    /// The allocation ledger (Figs. 2, 14); an archive rebuilds it from
    /// the full-history delegation file.
    pub ledger: AllocationLedger,
    /// Monthly PeeringDB snapshots (Figs. 3, 10, 15, 21).
    pub peeringdb: SnapshotArchive,
    /// The submarine cable map (Fig. 4).
    pub cables: CableMap,
    /// The streamed M-Lab aggregation (Fig. 11); an archive decodes it
    /// from the per-country NDT containers.
    pub mlab: MonthlyAggregator,
    /// Yearly TLS scans 2013–2021 (Figs. 7, 18), manifest order.
    pub cert_scans: Vec<CertScan>,
    /// Top-site scrapes, January 2024 (Fig. 19), manifest order.
    pub top_sites: Vec<CountryTopSites>,
    /// Daily 2019 reachability: an archive parses its Atlas TSVs at
    /// load, a generated source simulates it on first use.
    reachability: OnceLock<BTreeMap<CountryCode, ReachabilitySeries>>,
    pfx2as_cache: SnapshotCache,
    cone_cache: ConeCache,
    origin: Origin,
}

/// Where a [`DataSource`]'s datasets came from, for the few answers that
/// differ by origin.
enum Origin {
    /// Moved in from a generated [`World`]: pfx2as months derive from
    /// its announcement policy, NDT queries walk the resident aggregate.
    Generated { addressing: Addressing },
    /// Parsed from the dump tree at `root`: pfx2as months parse from
    /// their monthly files, NDT queries read the resident containers —
    /// every container's month table, built at load, so a query plans
    /// without touching the filesystem until the one read it needs.
    Archive {
        root: PathBuf,
        ndt: BTreeMap<CountryCode, NdtContainer>,
    },
}

/// The former name of an archive-backed [`DataSource`], kept only
/// because `benchmark/` still compiles against `ArchiveWorld::load`; new
/// code says [`DataSource`].
pub type ArchiveWorld = DataSource;

/// Window size from which an NDT query decodes its months on sweep
/// workers instead of inline: about where the decode saved outweighs a
/// thread spawn (BR's months are ~31 KB, most countries' a few KB).
const PARALLEL_DECODE_BYTES: usize = 128 * 1024;

/// One planned `(country, month)` of a resident NDT container: where
/// the month's rows sit in the file and what they cover. Months without
/// rows keep an entry (an empty byte range), so they answer like any
/// other month.
#[derive(Debug, Clone)]
struct MonthSpan {
    month: MonthStamp,
    /// Byte range of the month's row-group blocks.
    bytes: Range<usize>,
    /// Min/max test day across the month's rows; `None` without rows.
    days: Option<(i64, i64)>,
    /// The month's entries in [`NdtContainer::blocks`].
    blocks: Range<usize>,
}

/// One country's `.ndtc` container as an archive keeps it resident: its
/// path, the month table and the validated footer entries, so a query
/// decodes a month window without re-reading the footer.
#[derive(Debug)]
struct NdtContainer {
    rel: String,
    months: Vec<MonthSpan>,
    blocks: Vec<BlockEntry>,
}

impl NdtContainer {
    /// The months of `[from, to]` a query must read, ascending, and how
    /// many were pruned: a month whose day span provably cannot intersect
    /// the window is skipped without reading it. Months without rows have
    /// no span and are never pruned.
    fn plan(&self, from: MonthStamp, to: MonthStamp) -> (Vec<&MonthSpan>, usize) {
        let lo = from.first_day().days_since_epoch();
        let hi = to.last_day().days_since_epoch();
        let mut pruned = 0usize;
        let plan = self
            .months
            .iter()
            .filter(|span| span.month >= from && span.month <= to)
            .filter(|span| match span.days {
                Some((min_day, max_day)) if max_day < lo || min_day > hi => {
                    pruned += 1;
                    false
                }
                _ => true,
            })
            .collect();
        (plan, pruned)
    }
}

/// What one `(country, month)` NDT query returns: how many tests
/// matched, their median download, and exactly how much of the
/// container the answer cost to decode.
#[derive(Debug, Clone, PartialEq)]
pub struct NdtMonthStats {
    /// Tests matching the query.
    pub rows: usize,
    /// P² median download (Mbit/s) over those tests, in row order — the
    /// same estimator state the resident aggregate holds for the group.
    pub median_download: Option<f64>,
    /// The backing the answer came from (`columnar-v2` or `in-memory`).
    pub format: &'static str,
    /// Decode accounting for the month's own blocks (zero in memory).
    pub read: ReadStats,
}

/// Disk traffic of one NDT query: what the archive backend opened and
/// read to answer it (zero in memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NdtIo {
    /// Files opened.
    pub files_opened: usize,
    /// Bytes read from disk.
    pub bytes_read: usize,
}

/// What a `(country, [from, to])` NDT range query returns: the
/// per-month answers in ascending month order — each entry equal to
/// what the single-month query for that `(country, month)` would have
/// returned — plus the range-level merges.
#[derive(Debug, Clone, PartialEq)]
pub struct NdtRangeStats {
    /// Months in `[from, to]` the archive holds, ascending.
    pub months: Vec<(MonthStamp, NdtMonthStats)>,
    /// Total matching tests across the range.
    pub rows: usize,
    /// Mean of the monthly median downloads (Mbit/s); `None` when no
    /// month in the range produced a median.
    pub mean_monthly_median: Option<f64>,
    /// Months the inclusive `[from, to]` span covers.
    pub months_queried: usize,
    /// Months skipped without reading them because their resident day
    /// span proves they cannot intersect the range.
    pub shards_pruned: usize,
    /// Merged decode accounting across every decoded month — the sum of
    /// the per-month `read` fields.
    pub read: ReadStats,
    /// What the query opened and read from disk.
    pub io: NdtIo,
}

impl NdtRangeStats {
    /// Fold per-month answers into a range answer.
    fn merge(
        months: Vec<(MonthStamp, NdtMonthStats)>,
        months_queried: usize,
        shards_pruned: usize,
        io: NdtIo,
    ) -> NdtRangeStats {
        let mut rows = 0usize;
        let mut read = ReadStats::default();
        let mut median_sum = 0.0;
        let mut median_count = 0usize;
        for (_, stats) in &months {
            rows += stats.rows;
            read.absorb(stats.read);
            if let Some(m) = stats.median_download {
                median_sum += m;
                median_count += 1;
            }
        }
        NdtRangeStats {
            months,
            rows,
            mean_monthly_median: (median_count > 0).then(|| median_sum / median_count as f64),
            months_queried,
            shards_pruned,
            read,
            io,
        }
    }
}

/// Decode one country's `.ndtc` container: its resident month table, its
/// footer entries and the partial aggregate of its rows, in file order.
/// A typed error unless the container holds only `cc`'s rows, only
/// `months`, ascending, and no block straddles a month.
fn load_container(
    cc: CountryCode,
    bytes: &[u8],
    months: &[MonthStamp],
    selection: &ColumnSelection,
) -> Result<(Vec<MonthSpan>, Vec<BlockEntry>, MonthlyAggregator)> {
    let mut spans: Vec<MonthSpan> = months
        .iter()
        .map(|&month| MonthSpan {
            month,
            bytes: 0..0,
            days: None,
            blocks: 0..0,
        })
        .collect();
    let reader = ColumnReader::open(bytes)?;
    let (first, last) = (months[0].first_day(), months[months.len() - 1].last_day());
    let window = first.days_since_epoch()..=last.days_since_epoch();
    // Blocks arrive in month order, so a cursor walks the table once.
    let mut cursor = 0usize;
    for (i, block) in reader.blocks().iter().enumerate() {
        if block.countries() != [cc] {
            return Err(Error::parse(
                "ndtc block country summary naming only the container's country",
                cc.as_str(),
            ));
        }
        let (lo, hi) = block.day_span();
        if !window.contains(&lo) || !window.contains(&hi) {
            return Err(Error::parse("ndtc block dates inside the plan", ""));
        }
        let month = Date::from_days_since_epoch(lo).month_stamp();
        if Date::from_days_since_epoch(hi).month_stamp() != month {
            return Err(Error::parse("ndtc block inside one month", ""));
        }
        while spans.get(cursor).is_some_and(|s| s.month < month) {
            cursor += 1;
        }
        let span = spans
            .get_mut(cursor)
            .filter(|s| s.month == month)
            .ok_or_else(|| {
                Error::parse(
                    "NDT container months (ascending, inside the plan)",
                    &month.to_string(),
                )
            })?;
        let end = block.offset() + block.byte_len();
        match span.days {
            None => {
                span.bytes = block.offset()..end;
                span.blocks = i..i + 1;
                span.days = Some((lo, hi));
            }
            Some((min, max)) => {
                span.bytes.end = end;
                span.blocks.end = i + 1;
                span.days = Some((min.min(lo), max.max(hi)));
            }
        }
    }
    // The scan cross-checks every footer claim used above (day span,
    // country summary) against the decoded columns.
    let mut agg = MonthlyAggregator::new(Mode::Streaming);
    let mut scratch = DecodeScratch::new();
    reader.scan_counted(selection, &mut scratch, |view| {
        agg.observe_block(view);
        Ok(())
    })?;
    let blocks = reader.into_blocks();
    // Months without rows sit, empty, where their rows would have gone.
    let (mut at, mut block) = (blocks.first().map_or(0, BlockEntry::offset), 0);
    for span in &mut spans {
        if span.days.is_none() {
            span.bytes = at..at;
            span.blocks = block..block;
        } else {
            at = span.bytes.end;
            block = span.blocks.end;
        }
    }
    Ok((spans, blocks, agg))
}

impl DataSource {
    /// [`DataSource::from_archive`], kept only for `benchmark/`, which
    /// still calls it as `ArchiveWorld::load`.
    pub fn load(root: &Path) -> Result<DataSource> {
        DataSource::from_archive(root)
    }

    /// Load an archive dumped by [`crate::datasets::dump_with`] from
    /// `root`, parsing every dataset from its native format.
    ///
    /// The manifest's serial-1, PeeringDB (validated), cable, off-net,
    /// top-site and reachability files parse by their archive rows in one
    /// sweep, and fold in manifest order; a load that fails returns
    /// the first failing file in manifest order, then the first failing
    /// NDT container in plan order. Each country's `mlab/{CC}.ndtc`
    /// container must be listed in the manifest; it is read once and its
    /// blocks are scanned on a sweep worker through borrowed
    /// `scan_counted` views into a partial aggregate and the resident
    /// month table `/ndt` queries read from. Every group sees the exact
    /// observation sequence the in-memory aggregator saw, so the
    /// order-sensitive P² estimators land in identical state.
    pub fn from_archive(root: &Path) -> Result<DataSource> {
        // Decode only the columns some registered consumer declared a
        // need for — today exactly the aggregate's three columns, so a
        // columnar load skips over half the container bytes.
        let selection = ColumnSelection::columns(crate::registry::ndt_column_union());
        DataSource::load_columns(root, selection)
    }

    /// [`DataSource::from_archive`], decoding `selection`'s NDT columns.
    pub(crate) fn load_columns(root: &Path, selection: ColumnSelection) -> Result<DataSource> {
        let Part::Config(config) = Dataset::Config.parse(root, Key::None)? else {
            unreachable!("the config row parses into a config")
        };
        let scenario = match Dataset::Scenario.parse(root, Key::None) {
            Ok(Part::Scenario(scenario)) => scenario,
            Err(Error::Missing { .. }) => Scenario::venezuela(),
            Err(e) => return Err(e),
            Ok(_) => unreachable!("the scenario row parses into a scenario"),
        };

        // The model roots are pure functions of the config and scenario;
        // regenerating them is the archive's equivalent of carrying them
        // as sidecars.
        let (economy, (operators, dns_world)) = sweep::join2(
            || Economy::generate_with(config.economy_start, config.end, &scenario.gdp_anchors),
            || {
                sweep::join2(
                    || Operators::generate(config.seed),
                    || dns::build_dns_world(config.seed),
                )
            },
        );

        let Part::Manifest(entries) = Dataset::Manifest.parse(root, Key::None)? else {
            unreachable!("the manifest row parses into entries")
        };
        let claimed: Vec<_> = entries.iter().map(|rel| Dataset::of(rel)).collect();

        // The parts fold in manifest order on this thread, so the archive,
        // its scan and scrape order, and the error returned are the
        // serial loop's.
        let parsed = sweep::parallel_map(&claimed, |claim| match *claim {
            Some((
                row @ (Dataset::Serial1
                | Dataset::PeeringDb
                | Dataset::Cables
                | Dataset::OffNets
                | Dataset::TopSites
                | Dataset::Reachability),
                key,
            )) => row.parse(root, key).map(Some),
            _ => Ok(None),
        });
        let mut topology = TopologyArchive::new();
        let mut peeringdb = SnapshotArchive::new();
        let mut cables: Option<CableMap> = None;
        let mut cert_scans = Vec::new();
        let mut top_sites = Vec::new();
        let mut reachability = BTreeMap::new();
        let mut last_delegations = None;
        for (&claim, part) in claimed.iter().zip(parsed) {
            // Unclaimed entries parse to nothing: the loader skips them.
            let (Some((row, key)), part) = (claim, part?) else {
                continue;
            };
            match (key, part) {
                (Key::Month(m), Some(Part::Topology(graph))) => topology.insert(m, graph),
                (Key::Month(m), Some(Part::PeeringDb(snapshot))) => peeringdb.insert(m, snapshot),
                (_, Some(Part::Cables(map))) => cables = Some(map),
                (_, Some(Part::CertScan(scan))) => cert_scans.push(scan),
                (_, Some(Part::TopSites(sites))) => top_sites.push(sites),
                (Key::Country(cc), Some(Part::Reachability(series))) => {
                    reachability.insert(cc, series);
                }
                _ if row == Dataset::Delegations => last_delegations = Some(key),
                _ => {}
            }
        }

        let last_delegations =
            last_delegations.ok_or_else(|| Error::missing("archive dataset", "delegations/"))?;
        let Part::Delegations(file) = Dataset::Delegations.parse(root, last_delegations)? else {
            unreachable!("the delegations row parses into a delegation file")
        };
        let ledger = AllocationLedger::from_delegation_file(&file)?;

        // Nothing is probed on disk: a tree that lists anything else for a
        // country is missing its container. Decoding checks that a
        // container holds only its own country's planned months, so its
        // groups are exactly its own; the partials merge in plan order.
        let containers: Vec<CountryCode> = country::lacnic_codes().collect();
        let listed =
            |&cc: &CountryCode| claimed.contains(&Some((Dataset::NdtContainer, Key::Country(cc))));
        if let Some(cc) = containers.iter().find(|cc| !listed(cc)) {
            let rel = Dataset::NdtContainer.path(Key::Country(*cc));
            return Err(Error::missing("NDT archive container", rel));
        }
        let months: Vec<MonthStamp> = windows::mlab_start().through(config.end).collect();
        let loaded =
            sweep::parallel_map_with(sweep::worker_count(containers.len()), &containers, |&cc| {
                let Part::Ndt(bytes) = Dataset::NdtContainer.parse(root, Key::Country(cc))? else {
                    unreachable!("the container row parses into bytes")
                };
                load_container(cc, &bytes, &months, &selection)
            });
        let mut mlab = MonthlyAggregator::new(Mode::Streaming);
        let mut ndt = BTreeMap::new();
        for (cc, loaded) in containers.into_iter().zip(loaded) {
            let (months, blocks, part) = loaded?;
            mlab.merge(part)?;
            let rel = Dataset::NdtContainer.path(Key::Country(cc));
            ndt.insert(
                cc,
                NdtContainer {
                    rel,
                    months,
                    blocks,
                },
            );
        }

        Ok(DataSource {
            config,
            scenario,
            economy,
            operators,
            dns: dns_world,
            topology,
            ledger,
            peeringdb,
            cables: cables.ok_or_else(|| Error::missing("archive dataset", "cables/"))?,
            mlab,
            cert_scans,
            top_sites,
            reachability: OnceLock::from(reachability),
            pfx2as_cache: SnapshotCache::new(),
            cone_cache: ConeCache::new(),
            origin: Origin::Archive {
                root: root.to_owned(),
                ndt,
            },
        })
    }

    /// The backend's name, for progress reporting.
    pub fn backend(&self) -> &'static str {
        match self.origin {
            Origin::Generated { .. } => "in-memory",
            Origin::Archive { .. } => "archive",
        }
    }

    /// The directory an archive source was loaded from; `None` for a
    /// generated one.
    pub fn root(&self) -> Option<&Path> {
        match &self.origin {
            Origin::Generated { .. } => None,
            Origin::Archive { root, .. } => Some(root),
        }
    }

    /// Planned NDT months and their one backing: `columnar` for an
    /// archive, the generated shard plan counted as `in-memory`
    /// otherwise.
    pub fn ndt_shards(&self) -> (&'static str, usize) {
        match &self.origin {
            Origin::Generated { .. } => {
                let plan =
                    lacnet_crisis::bandwidth::shard_plan(windows::mlab_start(), self.config.end);
                ("in-memory", plan.len())
            }
            Origin::Archive { ndt, .. } => ("columnar", ndt.values().map(|c| c.months.len()).sum()),
        }
    }

    /// One `(country, month)` NDT query — the `/ndt/{cc}/{month}` serve
    /// endpoint, and the one-month case of
    /// [`DataSource::ndt_range_stats`]. `Ok(None)` when the source holds
    /// no such month.
    pub fn ndt_month_stats(
        &self,
        cc: CountryCode,
        month: MonthStamp,
    ) -> Result<Option<NdtMonthStats>> {
        Ok(self
            .ndt_range_stats(cc, month, month)?
            .months
            .pop()
            .map(|(_, stats)| stats))
    }

    /// A `(country, [from, to])` NDT range query — the
    /// `/ndt/{cc}?from=&to=` serve endpoint. A generated source walks
    /// the resident aggregate's groups. An archive plans the window from
    /// the country's resident month table (pruning months whose day span
    /// cannot intersect it), reads the planned months' bytes with one
    /// open, one seek and one contiguous read, and decodes each month (on
    /// sweep workers for large windows), folding in month order; a
    /// `.ndtc` container decodes only the download column of each
    /// month's blocks, straight off borrowed
    /// [`lacnet_mlab::ColumnSlice`] views. Either way each per-month
    /// entry equals the corresponding single-month query, and months the
    /// source does not hold simply don't appear. `Err` on a reversed
    /// range or a container that no longer matches its resident table.
    pub fn ndt_range_stats(
        &self,
        cc: CountryCode,
        from: MonthStamp,
        to: MonthStamp,
    ) -> Result<NdtRangeStats> {
        if from > to {
            return Err(Error::invalid("NDT range: from month after to month"));
        }
        let months_queried = (from.months_until(to) + 1) as usize;
        let (months, shards_pruned, io) = match &self.origin {
            Origin::Generated { .. } => {
                let months = from
                    .through(to)
                    .filter_map(|month| {
                        let g = self.mlab.group(cc, month)?;
                        let stats = NdtMonthStats {
                            rows: g.count(),
                            median_download: g.median(),
                            format: "in-memory",
                            read: ReadStats::default(),
                        };
                        Some((month, stats))
                    })
                    .collect();
                (months, 0, NdtIo::default())
            }
            Origin::Archive { root, ndt } => match ndt.get(&cc) {
                None => (Vec::new(), 0, NdtIo::default()),
                Some(container) => {
                    let (plan, pruned) = container.plan(from, to);
                    let (months, io) = read_months(root, cc, container, &plan)?;
                    (months, pruned, io)
                }
            },
        };
        Ok(NdtRangeStats::merge(
            months,
            months_queried,
            shards_pruned,
            io,
        ))
    }

    /// The inclusive month window the source's NDT data can cover:
    /// `[mlab_start, config.end]` — the dataset's own generation window.
    /// The serve layer rejects range queries entirely outside it as
    /// client errors before touching the cache or any container.
    pub fn ndt_month_bounds(&self) -> (MonthStamp, MonthStamp) {
        (windows::mlab_start(), self.config.end)
    }

    /// The announced-prefix table for `month`, memoized — derived from
    /// the topology for a generated source, parsed from the monthly dump
    /// for an archive.
    pub fn pfx2as_at(&self, month: MonthStamp) -> Arc<PfxToAs> {
        self.pfx2as_cache
            .get_or_compute(month, || match &self.origin {
                Origin::Generated { addressing } => match self.topology.get(month) {
                    Some(graph) => addressing.pfx2as_at(month, graph),
                    None => PfxToAs::new(),
                },
                Origin::Archive { root, .. } => parse_pfx2as(root, month),
            })
    }

    /// How many pfx2as months have actually been derived or parsed
    /// (cache misses) so far.
    pub fn pfx2as_computations(&self) -> usize {
        self.pfx2as_cache.computations()
    }

    /// The customer cone of `asn` at `month`, memoized in the source's
    /// [`ConeCache`]. A month outside the topology archive yields the
    /// singleton `{asn}`.
    pub fn customer_cone_at(&self, month: MonthStamp, asn: Asn) -> Arc<BTreeSet<Asn>> {
        self.cone_cache
            .get_or_compute(month, asn, || match self.topology.get(month) {
                Some(graph) => graph.customer_cone(asn),
                None => BTreeSet::from([asn]),
            })
    }

    /// `asn`'s cone size for every month of the topology archive, served
    /// through the source's cache on sweep workers.
    pub fn cone_size_series(&self, asn: Asn) -> TimeSeries {
        let months: Vec<MonthStamp> = self.topology.iter().map(|(m, _)| m).collect();
        sweep::months_sweep(&months, |m| self.customer_cone_at(m, asn).len() as f64)
            .into_iter()
            .collect()
    }

    /// The source's shared [`ConeCache`] handle, for cache-aware
    /// analytics: the Fig. 9 transit matrix and the inference extension's
    /// path computations memoize through it.
    pub fn cone_cache(&self) -> &ConeCache {
        &self.cone_cache
    }

    /// Daily per-country probe reachability for the 2019 blackout year —
    /// parsed from the Atlas TSVs at load for an archive, simulated from
    /// the DNS world on first use otherwise.
    pub fn reachability_2019(&self) -> &BTreeMap<CountryCode, ReachabilitySeries> {
        self.reachability.get_or_init(|| {
            blackouts::daily_reachability_with(
                &self.dns,
                Date::ymd(2019, 1, 1),
                Date::ymd(2019, 12, 31),
                self.config.seed,
                &self.scenario,
            )
        })
    }
}

impl From<World> for DataSource {
    /// Move a generated world in, its warm pfx2as and cone caches
    /// included, so a prewarm before the conversion is not wasted.
    fn from(world: World) -> DataSource {
        let World {
            config,
            scenario,
            economy,
            operators,
            topology,
            addressing,
            peeringdb,
            cables,
            dns,
            mlab,
            cert_scans,
            top_sites,
            pfx2as_cache,
            cone_cache,
        } = world;
        DataSource {
            config,
            scenario,
            economy,
            operators,
            dns,
            topology,
            ledger: addressing.ledger().clone(),
            peeringdb,
            cables,
            mlab,
            cert_scans,
            top_sites,
            reachability: OnceLock::new(),
            pfx2as_cache,
            cone_cache,
            origin: Origin::Generated { addressing },
        }
    }
}

/// Parse the dumped pfx2as table for `month` under `root`. A month the
/// dump does not hold serves the empty table (the archive, like the real
/// one, starts in 2008); a file that is there but cannot be read or
/// parsed panics naming it.
fn parse_pfx2as(root: &Path, month: MonthStamp) -> PfxToAs {
    let key = Key::Month(month);
    match Dataset::Pfx2as.parse(root, key) {
        Ok(Part::Pfx2as(table)) => table,
        Err(Error::Missing { .. }) => PfxToAs::new(),
        Err(e) => panic!(
            "archive pfx2as {} cannot be loaded: {e}",
            Dataset::Pfx2as.path(key)
        ),
        Ok(_) => unreachable!("the pfx2as row parses into a table"),
    }
}

/// Read and decode the planned months of one resident container under
/// `root`, ascending.
fn read_months(
    root: &Path,
    cc: CountryCode,
    container: &NdtContainer,
    plan: &[&MonthSpan],
) -> Result<(Vec<(MonthStamp, NdtMonthStats)>, NdtIo)> {
    let (Some(first), Some(last)) = (plan.first(), plan.last()) else {
        return Ok((Vec::new(), NdtIo::default()));
    };
    let span = first.bytes.start..last.bytes.end;
    let unread = |e| read_error(e, "NDT archive container", container.rel.clone());
    let mut file = fs::File::open(root.join(&container.rel)).map_err(unread)?;
    // Size the buffer only once the file proves long enough for it.
    let file_len = file.metadata().map_err(unread)?.len();
    if span.end as u64 > file_len {
        return Err(Error::parse(
            "NDT container at least as long as its resident month table",
            &container.rel,
        ));
    }
    let mut buf = vec![0u8; span.len()];
    file.seek(SeekFrom::Start(span.start as u64))
        .and_then(|_| file.read_exact(&mut buf))
        .map_err(|e| Error::parse("NDT container read", &e.to_string()))?;
    let io = NdtIo {
        files_opened: 1,
        bytes_read: buf.len(),
    };
    // Decoding (block CRCs, P² updates) costs more than the read, so a
    // window large enough to amortise a thread spawn decodes its months
    // on sweep workers; the answers stay in month order.
    let workers = if buf.len() >= PARALLEL_DECODE_BYTES {
        sweep::worker_count(plan.len())
    } else {
        1
    };
    let months = sweep::parallel_map_with(workers, plan, |m| {
        let mut p2 = P2Quantile::median();
        let mut rows = 0usize;
        let bytes = &buf[m.bytes.start - span.start..m.bytes.end - span.start];
        let blocks = &container.blocks[m.blocks.clone()];
        let reader = ColumnReader::window(bytes, m.bytes.start, blocks)?;
        let selection = ColumnSelection::columns(ColumnSet::DOWNLOAD).with_country(cc);
        let mut scratch = DecodeScratch::new();
        let read = reader.scan_counted(&selection, &mut scratch, |view| {
            rows += view.download().len();
            for v in view.download().iter() {
                p2.observe(v);
            }
            Ok(())
        })?;
        let stats = NdtMonthStats {
            rows,
            median_download: p2.value(),
            format: "columnar-v2",
            read,
        };
        Ok((m.month, stats))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    Ok((months, io))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    #[test]
    fn in_memory_source_mirrors_the_world() {
        let world = crate::experiments::testworld::world();
        let src = crate::experiments::testworld::source();
        assert_eq!(src.backend(), "in-memory");
        assert_eq!(src.root(), None);
        assert_eq!(src.config, world.config);
        assert_eq!(src.topology.len(), world.topology.len());
        assert_eq!(src.cert_scans.len(), world.cert_scans.len());
        let m = MonthStamp::new(2020, 6);
        assert_eq!(src.pfx2as_at(m).to_text(), world.pfx2as_at(m).to_text());
        assert_eq!(
            *src.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS),
            *world.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS)
        );
        assert!(src.reachability_2019().contains_key(&country::VE));
    }

    #[test]
    fn conversion_keeps_the_caches_warm() {
        let world = World::generate(WorldConfig::test());
        let (start, end) = (MonthStamp::new(2019, 1), MonthStamp::new(2020, 12));
        world.prewarm(start, end);
        let (tables, cones) = (world.pfx2as_computations(), world.cone_computations());
        assert!(tables > 0 && cones > 0);
        let src = DataSource::from(world);
        for m in start.through(end) {
            src.pfx2as_at(m);
            src.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS);
        }
        assert_eq!(src.pfx2as_computations(), tables);
        assert_eq!(src.cone_cache().computations(), cones);
    }

    #[test]
    fn archive_source_reloads_every_dataset() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-src-{}", std::process::id()));
        crate::datasets::dump(world, &dir).expect("dump succeeds");
        let src = DataSource::from_archive(&dir).expect("archive loads");
        assert_eq!(src.backend(), "archive");
        assert_eq!(src.config, world.config);
        assert_eq!(src.topology.len(), world.topology.len());
        assert_eq!(src.peeringdb.len(), world.peeringdb.len());
        assert_eq!(src.cert_scans.len(), world.cert_scans.len());
        assert_eq!(src.top_sites.len(), world.top_sites.len());
        assert_eq!(src.mlab.group_count(), world.mlab.group_count());
        let m = MonthStamp::new(2020, 6);
        assert_eq!(src.pfx2as_at(m).to_text(), world.pfx2as_at(m).to_text());
        assert_eq!(
            *src.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS),
            *world.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS)
        );
        // The ledger answers queries identically after the rebuild.
        let cutoff = world.config.end.last_day();
        assert_eq!(
            src.ledger.to_delegation_file(cutoff).to_text(cutoff),
            world
                .addressing
                .ledger()
                .to_delegation_file(cutoff)
                .to_text(cutoff)
        );
        // Reachability was parsed for every lacnic country.
        assert_eq!(
            src.reachability_2019().len(),
            country::lacnic_codes().count()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn archive_aggregate_and_month_query_match_in_memory_exactly() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-src-col-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        crate::datasets::dump(world, &dir).expect("dump succeeds");
        let src = DataSource::from_archive(&dir).expect("archive loads");
        // The `.ndtc` load lands the order-sensitive P² estimators in
        // byte-identical state to the in-memory aggregation.
        assert_eq!(
            format!("{:?}", src.mlab),
            format!("{:?}", world.mlab),
            "archive aggregation diverged from in-memory state"
        );
        // A single-(country, month) query decodes selectively and agrees
        // with the in-memory aggregate's group state bit for bit.
        let month = MonthStamp::new(2023, 7);
        let stats = src
            .ndt_month_stats(country::VE, month)
            .expect("query succeeds")
            .expect("month exists");
        assert_eq!(stats.format, "columnar-v2");
        assert!(stats.rows > 0);
        // Only the download column of the month's blocks was decoded, and
        // only the month's blocks were read off disk.
        assert_eq!(stats.read.columns_decoded, stats.read.blocks_decoded);
        assert!(stats.read.blocks_decoded >= 1);
        let container = std::fs::read(dir.join("mlab/VE.ndtc")).unwrap();
        let reader = lacnet_mlab::ColumnReader::open(&container).unwrap();
        let (lo, hi) = (
            month.first_day().days_since_epoch(),
            month.last_day().days_since_epoch(),
        );
        let month_blocks: Vec<&BlockEntry> = reader
            .blocks()
            .iter()
            .filter(|b| b.day_span().0 >= lo && b.day_span().1 <= hi)
            .collect();
        let month_bytes: usize = month_blocks.iter().map(|b| b.byte_len()).sum();
        assert_eq!(stats.read.blocks_total, month_blocks.len());
        assert!(
            stats.read.bytes_decoded < month_bytes / 2,
            "selective decode touched {} of {month_bytes} month bytes",
            stats.read.bytes_decoded,
        );
        let io = src.ndt_range_stats(country::VE, month, month).unwrap().io;
        assert_eq!(io.files_opened, 1);
        assert_eq!(io.bytes_read, month_bytes);
        let in_memory = crate::experiments::testworld::source()
            .ndt_month_stats(country::VE, month)
            .unwrap()
            .unwrap();
        assert_eq!(stats.rows, in_memory.rows);
        assert_eq!(stats.median_download, in_memory.median_download);
        // A month outside the archive answers None, not an error, and
        // touches no file.
        assert!(src
            .ndt_month_stats(country::VE, MonthStamp::new(1999, 1))
            .unwrap()
            .is_none());
        let outside = src
            .ndt_range_stats(
                country::VE,
                MonthStamp::new(1999, 1),
                MonthStamp::new(1999, 6),
            )
            .unwrap();
        assert_eq!(outside.io, NdtIo::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_query_merges_single_month_queries() {
        let world = crate::experiments::testworld::world();
        let dir = std::env::temp_dir().join(format!("lacnet-src-range-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        crate::datasets::dump(world, &dir).expect("dump succeeds");
        let src = DataSource::from_archive(&dir).expect("archive loads");
        let (from, to) = (MonthStamp::new(2023, 3), MonthStamp::new(2023, 7));

        let range = src
            .ndt_range_stats(country::VE, from, to)
            .expect("range query succeeds");
        assert_eq!(range.months_queried, 5);
        assert!(!range.months.is_empty());

        // The range is exactly the plan-order merge of its constituent
        // single-month queries — per-month entries, row total and the
        // absorbed ReadStats all included.
        let mut rows = 0usize;
        let mut read = ReadStats::default();
        for &(month, ref stats) in &range.months {
            let single = src
                .ndt_month_stats(country::VE, month)
                .unwrap()
                .expect("listed month exists");
            assert_eq!(stats, &single, "{month}");
            rows += single.rows;
            read.absorb(single.read);
        }
        assert_eq!(range.rows, rows);
        assert_eq!(range.read, read);
        assert_eq!(range.shards_pruned, 0);

        // Re-running reads and decodes the same bytes the same way.
        let again = src.ndt_range_stats(country::VE, from, to).unwrap();
        assert_eq!(again, range);

        // The in-memory backend answers the same shape with the same
        // per-month rows and medians.
        let mem = crate::experiments::testworld::source()
            .ndt_range_stats(country::VE, from, to)
            .unwrap();
        assert_eq!(mem.months.len(), range.months.len());
        assert_eq!(mem.rows, range.rows);
        for ((m_a, a), (m_b, b)) in mem.months.iter().zip(&range.months) {
            assert_eq!(m_a, m_b);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.median_download, b.median_download);
        }
        assert_eq!(mem.mean_monthly_median, range.mean_monthly_median);

        // A reversed range is a typed error on both backends.
        assert!(src.ndt_range_stats(country::VE, to, from).is_err());
        assert!(crate::experiments::testworld::source()
            .ndt_range_stats(country::VE, to, from)
            .is_err());

        // The whole window came off disk in one read of one file.
        assert_eq!(range.io.files_opened, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn month_plan_prunes_spans_that_cannot_meet_the_window() {
        let span = |month: MonthStamp, days: Option<(i64, i64)>| MonthSpan {
            month,
            bytes: 0..0,
            days,
            blocks: 0..0,
        };
        let day = |y, m, d| Date::ymd(y, m, d).days_since_epoch();
        let (jan, feb, mar) = (
            MonthStamp::new(2020, 1),
            MonthStamp::new(2020, 2),
            MonthStamp::new(2020, 3),
        );
        let container = NdtContainer {
            rel: "mlab/VE.ndtc".into(),
            months: vec![
                span(jan, Some((day(2020, 1, 2), day(2020, 1, 30)))),
                // A span that provably misses any window inside 2020.
                span(feb, Some((day(2019, 2, 1), day(2019, 2, 3)))),
                // No rows: never pruned.
                span(mar, None),
            ],
            blocks: Vec::new(),
        };
        let (plan, pruned) = container.plan(jan, mar);
        assert_eq!(pruned, 1);
        assert_eq!(
            plan.iter().map(|s| s.month).collect::<Vec<_>>(),
            vec![jan, mar]
        );
        let (plan, pruned) = container.plan(feb, feb);
        assert!(plan.is_empty());
        assert_eq!(pruned, 1);
        let (plan, pruned) = container.plan(MonthStamp::new(2021, 1), MonthStamp::new(2021, 5));
        assert!(plan.is_empty());
        assert_eq!(pruned, 0);
    }
}
