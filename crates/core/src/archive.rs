//! The table of the archive tree: one row per dataset a dump writes, with
//! its path pattern, the key parse that inverts it, and the one parse of
//! its files. [`crate::datasets::dump`] names every file through
//! [`Dataset::path`]; the loader and [`crate::datasets::verify`] claim
//! every manifest entry through [`Dataset::of`] and parse it by its row.

use crate::datasets::{parse_container_manifest, parse_shard_index, ContainerRecord};
use crate::datasets::{ShardIndexRecord, MLAB_INDEX, MLAB_MANIFEST};
use lacnet_atlas::outages::ReachabilitySeries;
use lacnet_atlas::traceroute::parse_traceroutes;
use lacnet_bgp::{serial1, AsGraph, PfxToAs};
use lacnet_crisis::{Scenario, WorldConfig};
use lacnet_offnets::CertScan;
use lacnet_peeringdb::Snapshot;
use lacnet_registry::DelegationFile;
use lacnet_telegeo::CableMap;
use lacnet_types::{CountryCode, Date, Error, MonthStamp, Result};
use lacnet_webmeas::CountryTopSites;
use std::collections::BTreeMap;
use std::fs;
use std::io::ErrorKind;
use std::ops::Range;
use std::path::Path;

/// One dataset of the archive tree; `ROWS[dataset as usize]` is its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The generating configuration the loader regenerates the model from.
    Config,
    /// The scenario; only non-default dumps write it.
    Scenario,
    /// CAIDA serial-1 AS relationships, monthly.
    Serial1,
    /// RouteViews origin tables, monthly since 2008, parsed lazily.
    Pfx2as,
    /// NRO delegation files, yearly, then the full history the loader reads.
    Delegations,
    /// PeeringDB schema-v2 dumps, monthly.
    PeeringDb,
    /// The Telegeography-style cable map.
    Cables,
    /// Yearly TLS scans.
    OffNets,
    /// Per-country top-site scrapes.
    TopSites,
    /// One NDT container per country, every month in plan order.
    NdtContainer,
    /// Per container: fingerprint, content hash and path, for re-dumps.
    NdtManifest,
    /// Per `(country, month)`: container, rows, blocks and day span.
    NdtIndex,
    /// Venezuelan probes' traceroutes to GPDNS at the final month (MSM
    /// 1591146). No experiment reads them: they are dumped for outside
    /// readers as the traceroute archive extension (DESIGN.md §6).
    Traceroutes,
    /// Daily connected probes in the 2019 blackout year, per country.
    Reachability,
    /// Every file of the tree, itself included.
    Manifest,
}

/// What names one file of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// The row's only file.
    None,
    /// A monthly file.
    Month(MonthStamp),
    /// A file stamped with its day.
    Day(Date),
    /// A yearly file.
    Year(i32),
    /// A per-country file.
    Country(CountryCode),
}

/// How a row spells its key in a file name; a month is
/// `YYYY{sep}MM{sep}01`.
#[derive(Clone, Copy)]
enum Stamp {
    None,
    Month(&'static str),
    Day,
    Year,
    Country,
}

/// The table, in tree order: each dataset's file names are a prefix, the
/// key's stamp and a suffix.
#[rustfmt::skip]
const ROWS: [(Dataset, &str, Stamp, &str); 15] = [
    (Dataset::Config,       "world/config.tsv",              Stamp::None,       ""),
    (Dataset::Scenario,     "world/scenario.toml",           Stamp::None,       ""),
    (Dataset::Serial1,      "serial1/",                      Stamp::Month(""),  ".as-rel.txt"),
    (Dataset::Pfx2as,       "pfx2as/routeviews-rv2-",        Stamp::Month(""),  ".pfx2as"),
    (Dataset::Delegations,  "delegations/delegated-lacnic-", Stamp::Day,        ""),
    (Dataset::PeeringDb,    "peeringdb/peeringdb_2_dump_",   Stamp::Month("_"), ".json"),
    (Dataset::Cables,       "cables/cable-map.json",         Stamp::None,       ""),
    (Dataset::OffNets,      "offnets/scan-",                 Stamp::Year,       ".json"),
    (Dataset::TopSites,     "topsites/",                     Stamp::Country,    ".json"),
    (Dataset::NdtContainer, "mlab/",                         Stamp::Country,    ".ndtc"),
    (Dataset::NdtManifest,  MLAB_MANIFEST,                   Stamp::None,       ""),
    (Dataset::NdtIndex,     MLAB_INDEX,                      Stamp::None,       ""),
    (Dataset::Traceroutes,  "atlas/traceroutes-ve.txt",      Stamp::None,       ""),
    (Dataset::Reachability, "atlas/reachability-",           Stamp::Country,    "-2019.tsv"),
    (Dataset::Manifest,     "MANIFEST.txt",                  Stamp::None,       ""),
];

/// One file parsed by its row.
pub(crate) enum Part {
    Config(WorldConfig),
    Scenario(Scenario),
    Topology(AsGraph),
    Pfx2as(PfxToAs),
    Delegations(DelegationFile),
    /// A dump that parsed and passed [`Snapshot::validate`].
    PeeringDb(Snapshot),
    Cables(CableMap),
    CertScan(CertScan),
    TopSites(CountryTopSites),
    /// A container's bytes; the loader decodes them against its plan.
    Ndt(Vec<u8>),
    NdtManifest(BTreeMap<String, ContainerRecord>),
    NdtIndex(BTreeMap<String, ShardIndexRecord>),
    Traceroutes,
    Reachability(ReachabilitySeries),
    Manifest(Vec<String>),
}

impl Dataset {
    /// The archive-relative path of the row's file named by `key`.
    /// Panics on a key of the wrong kind for the row, a bug in the caller.
    pub fn path(self, key: Key) -> String {
        let (_, prefix, stamp, suffix) = ROWS[self as usize];
        let stamp = match (stamp, key) {
            (Stamp::None, Key::None) => String::new(),
            (Stamp::Month(s), Key::Month(m)) => format!("{}{s}{:02}{s}01", m.year(), m.month()),
            (Stamp::Day, Key::Day(d)) => format!("{:04}{:02}{:02}", d.year(), d.month(), d.day()),
            (Stamp::Year, Key::Year(year)) => year.to_string(),
            (Stamp::Country, Key::Country(cc)) => cc.to_string(),
            _ => panic!("the {self:?} row is not keyed by {key:?}"),
        };
        format!("{prefix}{stamp}{suffix}")
    }

    /// The row and key whose [`Dataset::path`] is `rel`; `None` for a
    /// path no row claims.
    pub fn of(rel: &str) -> Option<(Dataset, Key)> {
        ROWS.iter().find_map(|&(row, prefix, stamp, suffix)| {
            let text = rel.strip_prefix(prefix)?.strip_suffix(suffix)?;
            let number = |range: Range<usize>| text.get(range)?.parse::<u8>().ok();
            let year = || text.get(0..4)?.parse().ok();
            let key = match stamp {
                Stamp::None => text.is_empty().then_some(Key::None)?,
                Stamp::Month(sep) => {
                    let month = number(4 + sep.len()..6 + sep.len())?;
                    Key::Month(MonthStamp::try_new(year()?, month).ok()?)
                }
                Stamp::Day => Key::Day(Date::new(year()?, number(4..6)?, number(6..8)?).ok()?),
                Stamp::Year => Key::Year(text.parse().ok()?),
                Stamp::Country => Key::Country(CountryCode::new(text).ok()?),
            };
            // Only the exact spelling `path` writes is claimed.
            (row.path(key) == rel).then_some((row, key))
        })
    }

    /// Read and parse the row's file named by `key` under `root`. Only a
    /// file that is not there is [`Error::Missing`]; one that is there
    /// but cannot be read is a parse error naming it.
    pub(crate) fn parse(self, root: &Path, key: Key) -> Result<Part> {
        let rel = self.path(key);
        let text = || read_text(root, &rel);
        Ok(match self {
            Dataset::Config => Part::Config(WorldConfig::parse(&text()?)?),
            Dataset::Scenario => Part::Scenario(Scenario::parse(&text()?).map_err(Error::from)?),
            Dataset::Serial1 => Part::Topology(AsGraph::from_edges(serial1::parse(&text()?)?)),
            Dataset::Pfx2as => Part::Pfx2as(PfxToAs::parse(&text()?)?),
            Dataset::Delegations => Part::Delegations(DelegationFile::parse(&text()?)?),
            Dataset::PeeringDb => {
                let snapshot = Snapshot::from_json(&text()?)?;
                snapshot.validate()?;
                Part::PeeringDb(snapshot)
            }
            Dataset::Cables => Part::Cables(CableMap::from_json(&text()?)?),
            Dataset::OffNets => Part::CertScan(CertScan::from_json(&text()?)?),
            Dataset::TopSites => Part::TopSites(CountryTopSites::from_json(&text()?)?),
            Dataset::NdtContainer => Part::Ndt(
                fs::read(root.join(&rel))
                    .map_err(|e| read_error(e, "NDT archive container", rel.clone()))?,
            ),
            Dataset::NdtManifest => Part::NdtManifest(parse_container_manifest(&text()?)),
            Dataset::NdtIndex => Part::NdtIndex(parse_shard_index(&text()?)),
            Dataset::Traceroutes => parse_traceroutes(&text()?).map(|_| Part::Traceroutes)?,
            Dataset::Reachability => Part::Reachability(ReachabilitySeries::parse_tsv(&text()?)?),
            Dataset::Manifest => Part::Manifest(
                text()?
                    .lines()
                    .filter(|l| !l.starts_with('#') && !l.is_empty())
                    .map(str::to_owned)
                    .collect(),
            ),
        })
    }
}

/// Read the archive file `rel` under `root` as UTF-8 text.
fn read_text(root: &Path, rel: &str) -> Result<String> {
    fs::read_to_string(root.join(rel))
        .map_err(|e| read_error(e, "archive file", format!("{}/{rel}", root.display())))
}

/// The typed error for a failed read of the archive file `file`: only a
/// file that is not there is [`Error::Missing`] (`what`); one that is
/// there but cannot be read — a directory, no permission, not UTF-8 —
/// is a parse error naming the file.
pub(crate) fn read_error(e: std::io::Error, what: &'static str, file: String) -> Error {
    if e.kind() == ErrorKind::NotFound {
        Error::missing(what, file)
    } else {
        Error::parse("readable archive file", &format!("{file}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_crisis::World;
    use lacnet_types::country;

    #[test]
    fn every_path_parses_back_to_its_row_and_key() {
        let months = [
            MonthStamp::new(1998, 1),
            MonthStamp::new(2008, 12),
            MonthStamp::new(2024, 1),
        ];
        let days = [
            Date::ymd(2008, 1, 1),
            Date::ymd(2016, 2, 29),
            Date::ymd(2024, 12, 31),
        ];
        let keys: Vec<Key> = [Key::None]
            .into_iter()
            .chain(months.map(Key::Month))
            .chain(days.map(Key::Day))
            .chain([2013, 2021].map(Key::Year))
            .chain([country::VE, country::BR, country::AR].map(Key::Country))
            .collect();
        let mut claimed = 0;
        for (i, (row, _, stamp, _)) in ROWS.into_iter().enumerate() {
            assert_eq!(row as usize, i, "{row:?} sits at its own index");
            let keyed_by = |key: &Key| {
                matches!(
                    (stamp, key),
                    (Stamp::None, Key::None)
                        | (Stamp::Month(_), Key::Month(_))
                        | (Stamp::Day, Key::Day(_))
                        | (Stamp::Year, Key::Year(_))
                        | (Stamp::Country, Key::Country(_))
                )
            };
            for &key in keys.iter().filter(|k| keyed_by(k)) {
                let rel = row.path(key);
                assert_eq!(Dataset::of(&rel), Some((row, key)), "{rel}");
                claimed += 1;
            }
        }
        // 7 unkeyed rows, 3 monthly, 1 daily, 1 yearly, 3 per country.
        assert_eq!(claimed, 7 + 3 * 3 + 3 + 2 + 3 * 3);
        // Near misses belong to no row.
        for rel in [
            "serial1/20130115.as-rel.txt",
            "serial1/20131301.as-rel.txt",
            "pfx2as/routeviews-rv2-201301.pfx2as",
            "peeringdb/peeringdb_2_dump_2018_04_01.json.gz",
            "delegations/delegated-lacnic-20230230",
            "topsites/ve.json",
            "mlab/AR.tsv",
            "mlab/manifest.tsv.old",
            "atlas/reachability-VE-2020.tsv",
            "notes.txt",
            "",
        ] {
            assert_eq!(Dataset::of(rel), None, "{rel}");
        }
    }

    /// The relative paths of every file under `dir`.
    fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) {
        for entry in fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(root, &path, files);
            } else {
                let rel = path.strip_prefix(root).expect("under the root");
                files.push(rel.to_str().expect("UTF-8 path").to_owned());
            }
        }
    }

    #[test]
    fn every_dumped_file_belongs_to_a_row_and_every_row_writes() {
        let scenario = Scenario::builtin("cable-cut").expect("builtin scenario");
        let world = World::generate_with(WorldConfig::test(), scenario);
        let dir = std::env::temp_dir().join(format!("lacnet-table-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let summary = crate::datasets::dump(&world, &dir).expect("dump succeeds");
        let mut files = Vec::new();
        walk(&dir, &dir, &mut files);
        files.sort();
        let mut written = summary.files.clone();
        written.sort();
        assert_eq!(files, written, "the tree holds exactly what the dump wrote");
        let mut rows: Vec<Dataset> = Vec::new();
        for rel in &files {
            let (row, key) = Dataset::of(rel).unwrap_or_else(|| panic!("no row claims {rel}"));
            assert_eq!(row.path(key), *rel);
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
        for (row, ..) in ROWS {
            assert!(rows.contains(&row), "{row:?} wrote no file");
        }
        // Every claimed file parses through its row.
        assert_eq!(crate::datasets::verify(&dir), Ok(files.len()));
        fs::remove_dir_all(&dir).ok();
    }
}
