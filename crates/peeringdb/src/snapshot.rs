//! Snapshots and the monthly snapshot archive.

use crate::model::{Facility, Ix, IxId, NetFac, NetIxLan, Network, PdbId};
use lacnet_types::json::{self, FromJson, Json, Parser, ToJson};
use lacnet_types::{Asn, CountryCode, Error, MonthStamp, Result};
use std::collections::BTreeMap;

/// One PeeringDB dump: every modelled table at a point in time.
///
/// Serialises to the dump layout — each table wrapped in a `{"data": [...]}`
/// envelope — so generated snapshots are drop-in lookalikes for the CAIDA
/// archive files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `net` table.
    pub net: Vec<Network>,
    /// `fac` table.
    pub fac: Vec<Facility>,
    /// `ix` table.
    pub ix: Vec<Ix>,
    /// `netfac` join table.
    pub netfac: Vec<NetFac>,
    /// `netixlan` join table.
    pub netixlan: Vec<NetIxLan>,
}

/// Wrap a table in the PeeringDB dump envelope: `{"data": [...]}`.
fn envelope<T: ToJson>(rows: &[T]) -> Json {
    Json::Obj(vec![("data".to_owned(), rows.to_json_value())])
}

/// A table read back out of its `{"data": [...]}` envelope.
struct Envelope<T>(Vec<T>);

impl<T: FromJson> FromJson for Envelope<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        let mut data = None;
        p.object(|p, key| match key {
            "data" => p.member(&mut data),
            _ => p.skip(),
        })?;
        json::take(data, "data").map(Envelope)
    }
}

/// The table read from the member named `table`; a dump without it is
/// missing that table.
fn unwrap_envelope<T>(slot: Option<Result<Envelope<T>>>, table: &str) -> Result<Vec<T>> {
    match slot {
        Some(envelope) => envelope.map(|e| e.0),
        None => Err(Error::missing("PeeringDB dump table", table)),
    }
}

impl ToJson for Snapshot {
    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("net".to_owned(), envelope(&self.net)),
            ("fac".to_owned(), envelope(&self.fac)),
            ("ix".to_owned(), envelope(&self.ix)),
            ("netfac".to_owned(), envelope(&self.netfac)),
            ("netixlan".to_owned(), envelope(&self.netixlan)),
        ])
    }
}

impl FromJson for Snapshot {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        let (mut net, mut fac, mut ix, mut netfac, mut netixlan) = (None, None, None, None, None);
        p.object(|p, key| match key {
            "net" => p.member(&mut net),
            "fac" => p.member(&mut fac),
            "ix" => p.member(&mut ix),
            "netfac" => p.member(&mut netfac),
            "netixlan" => p.member(&mut netixlan),
            _ => p.skip(),
        })?;
        Ok(Snapshot {
            net: unwrap_envelope(net, "net")?,
            fac: unwrap_envelope(fac, "fac")?,
            ix: unwrap_envelope(ix, "ix")?,
            netfac: unwrap_envelope(netfac, "netfac")?,
            netixlan: unwrap_envelope(netixlan, "netixlan")?,
        })
    }
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a dump from JSON text.
    pub fn from_json(text: &str) -> Result<Self> {
        lacnet_types::json::from_str(text)
    }

    /// Serialise to dump-shaped JSON.
    pub fn to_json(&self) -> String {
        lacnet_types::json::to_string(self)
    }

    /// The network row for `asn`, if registered.
    pub fn network_by_asn(&self, asn: Asn) -> Option<&Network> {
        self.net.iter().find(|n| n.asn == asn)
    }

    /// The network row by id.
    pub fn network(&self, id: PdbId) -> Option<&Network> {
        self.net.iter().find(|n| n.id == id)
    }

    /// The facility row by id.
    pub fn facility(&self, id: PdbId) -> Option<&Facility> {
        self.fac.iter().find(|f| f.id == id)
    }

    /// The IXP row by id.
    pub fn ixp(&self, id: IxId) -> Option<&Ix> {
        self.ix.iter().find(|i| i.id == id)
    }

    /// Facilities registered in `country`.
    pub fn facilities_in(&self, country: CountryCode) -> Vec<&Facility> {
        self.fac.iter().filter(|f| f.country == country).collect()
    }

    /// Number of facilities per country.
    pub fn facility_counts(&self) -> BTreeMap<CountryCode, usize> {
        let mut out = BTreeMap::new();
        for f in &self.fac {
            *out.entry(f.country).or_insert(0) += 1;
        }
        out
    }

    /// ASNs of networks present at `fac_id`.
    pub fn networks_at_facility(&self, fac_id: PdbId) -> Vec<Asn> {
        let mut asns: Vec<Asn> = self
            .netfac
            .iter()
            .filter(|nf| nf.fac_id == fac_id)
            .filter_map(|nf| self.network(nf.net_id).map(|n| n.asn))
            .collect();
        asns.sort_unstable();
        asns.dedup();
        asns
    }

    /// ASNs of networks peering at `ix_id`.
    pub fn networks_at_ixp(&self, ix_id: IxId) -> Vec<Asn> {
        let mut asns: Vec<Asn> = self
            .netixlan
            .iter()
            .filter(|nl| nl.ix_id == ix_id)
            .filter_map(|nl| self.network(nl.net_id).map(|n| n.asn))
            .collect();
        asns.sort_unstable();
        asns.dedup();
        asns
    }

    /// IXPs at which `asn` has a port.
    pub fn ixps_of(&self, asn: Asn) -> Vec<&Ix> {
        let Some(net) = self.network_by_asn(asn) else {
            return Vec::new();
        };
        let mut ids: Vec<IxId> = self
            .netixlan
            .iter()
            .filter(|nl| nl.net_id == net.id)
            .map(|nl| nl.ix_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().filter_map(|id| self.ixp(id)).collect()
    }

    /// Basic referential-integrity check: every join row must point at
    /// existing `net`/`fac`/`ix` rows and row ids must be unique.
    pub fn validate(&self) -> Result<()> {
        let mut net_ids: Vec<PdbId> = self.net.iter().map(|n| n.id).collect();
        net_ids.sort_unstable();
        let n = net_ids.len();
        net_ids.dedup();
        if net_ids.len() != n {
            return Err(Error::invalid("duplicate net ids"));
        }
        let mut fac_ids: Vec<PdbId> = self.fac.iter().map(|f| f.id).collect();
        fac_ids.sort_unstable();
        let n = fac_ids.len();
        fac_ids.dedup();
        if fac_ids.len() != n {
            return Err(Error::invalid("duplicate fac ids"));
        }
        let mut ix_ids: Vec<IxId> = self.ix.iter().map(|i| i.id).collect();
        ix_ids.sort_unstable();
        let n = ix_ids.len();
        ix_ids.dedup();
        if ix_ids.len() != n {
            return Err(Error::invalid("duplicate ix ids"));
        }
        for nf in &self.netfac {
            if net_ids.binary_search(&nf.net_id).is_err() {
                return Err(Error::invalid("netfac references missing net"));
            }
            if fac_ids.binary_search(&nf.fac_id).is_err() {
                return Err(Error::invalid("netfac references missing fac"));
            }
        }
        for nl in &self.netixlan {
            if net_ids.binary_search(&nl.net_id).is_err() {
                return Err(Error::invalid("netixlan references missing net"));
            }
            if ix_ids.binary_search(&nl.ix_id).is_err() {
                return Err(Error::invalid("netixlan references missing ix"));
            }
        }
        Ok(())
    }
}

/// Monthly archive of snapshots — the first-of-month series the study
/// samples from the daily CAIDA archive.
#[derive(Debug, Clone, Default)]
pub struct SnapshotArchive {
    snapshots: BTreeMap<MonthStamp, Snapshot>,
}

impl SnapshotArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a snapshot.
    pub fn insert(&mut self, month: MonthStamp, snapshot: Snapshot) {
        self.snapshots.insert(month, snapshot);
    }

    /// Snapshot for exactly `month`.
    pub fn get(&self, month: MonthStamp) -> Option<&Snapshot> {
        self.snapshots.get(&month)
    }

    /// The latest snapshot, if any.
    pub fn latest(&self) -> Option<(MonthStamp, &Snapshot)> {
        self.snapshots.iter().next_back().map(|(&m, s)| (m, s))
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Iterate chronologically.
    pub fn iter(&self) -> impl Iterator<Item = (MonthStamp, &Snapshot)> {
        self.snapshots.iter().map(|(&m, s)| (m, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    pub(crate) fn toy_snapshot() -> Snapshot {
        Snapshot {
            net: vec![
                Network {
                    id: 1,
                    asn: Asn(8048),
                    name: "CANTV".into(),
                    info_type: "NSP".into(),
                },
                Network {
                    id: 2,
                    asn: Asn(21826),
                    name: "Telemic".into(),
                    info_type: "Cable/DSL/ISP".into(),
                },
                Network {
                    id: 3,
                    asn: Asn(26613),
                    name: "IX.br member".into(),
                    info_type: "Content".into(),
                },
            ],
            fac: vec![
                Facility {
                    id: 10,
                    name: "Cirion La Urbina".into(),
                    city: "Caracas".into(),
                    country: country::VE,
                },
                Facility {
                    id: 11,
                    name: "Equinix SP4".into(),
                    city: "Sao Paulo".into(),
                    country: country::BR,
                },
            ],
            ix: vec![Ix {
                id: 20,
                name: "IX.br (SP)".into(),
                city: "Sao Paulo".into(),
                country: country::BR,
            }],
            netfac: vec![
                NetFac {
                    net_id: 1,
                    fac_id: 10,
                },
                NetFac {
                    net_id: 2,
                    fac_id: 10,
                },
            ],
            netixlan: vec![NetIxLan {
                net_id: 3,
                ix_id: 20,
                speed: 10_000,
            }],
        }
    }

    #[test]
    fn json_roundtrip_with_envelope() {
        let s = toy_snapshot();
        let json = s.to_json();
        assert!(json.contains("\"net\":{\"data\":["), "{json}");
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert!(Snapshot::from_json("{").is_err());
    }

    #[test]
    fn joins() {
        let s = toy_snapshot();
        assert_eq!(s.networks_at_facility(10), vec![Asn(8048), Asn(21826)]);
        assert!(s.networks_at_facility(11).is_empty());
        assert_eq!(s.networks_at_ixp(20), vec![Asn(26613)]);
        assert_eq!(s.ixps_of(Asn(26613)).len(), 1);
        assert!(s.ixps_of(Asn(8048)).is_empty());
        assert!(s.ixps_of(Asn(9999)).is_empty());
    }

    #[test]
    fn country_queries() {
        let s = toy_snapshot();
        assert_eq!(s.facilities_in(country::VE).len(), 1);
        let counts = s.facility_counts();
        assert_eq!(counts[&country::VE], 1);
        assert_eq!(counts[&country::BR], 1);
    }

    #[test]
    fn validation_catches_dangling_joins() {
        let mut s = toy_snapshot();
        assert!(s.validate().is_ok());
        s.netfac.push(NetFac {
            net_id: 99,
            fac_id: 10,
        });
        assert!(s.validate().is_err());
        let mut s = toy_snapshot();
        s.netixlan.push(NetIxLan {
            net_id: 1,
            ix_id: 99,
            speed: 1000,
        });
        assert!(s.validate().is_err());
        let mut s = toy_snapshot();
        s.net.push(Network {
            id: 1,
            asn: Asn(1),
            name: "dup".into(),
            info_type: "NSP".into(),
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn archive_ordering() {
        let mut arch = SnapshotArchive::new();
        arch.insert(MonthStamp::new(2020, 5), toy_snapshot());
        arch.insert(MonthStamp::new(2018, 4), Snapshot::new());
        assert_eq!(arch.len(), 2);
        let months: Vec<_> = arch.iter().map(|(m, _)| m).collect();
        assert_eq!(months[0], MonthStamp::new(2018, 4));
        let (m, s) = arch.latest().unwrap();
        assert_eq!(m, MonthStamp::new(2020, 5));
        assert_eq!(s.net.len(), 3);
        assert!(arch.get(MonthStamp::new(2019, 1)).is_none());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use lacnet_types::country;
    use proptest::prelude::*;

    proptest! {
        /// Any dump — including names that need JSON string escaping and
        /// non-ASCII city text — survives the envelope round trip table
        /// by table, row by row.
        #[test]
        fn snapshot_json_roundtrip_proptest(
            nets in proptest::collection::vec((1u32..10_000, 1u32..400_000, 0usize..4, any::<bool>()), 0..12),
            rows in proptest::collection::vec((1u32..10_000, 0usize..4, 0usize..3), 0..8),
            links in proptest::collection::vec((1u32..10_000, 1u32..10_000, 1u32..400_000), 0..10),
        ) {
            let types = ["NSP", "Content", "Cable/DSL/ISP", "Enterprise"];
            let cities = ["Caracas", "São Paulo", "Bogotá"];
            let countries = [country::VE, country::BR, country::CO, country::AR];
            let snapshot = Snapshot {
                net: nets
                    .iter()
                    .map(|&(id, asn, ty, escape)| Network {
                        id,
                        asn: Asn(asn),
                        name: if escape {
                            format!("net \"{id}\"\t\\slash")
                        } else {
                            format!("net-{id}")
                        },
                        info_type: types[ty].to_owned(),
                    })
                    .collect(),
                fac: rows
                    .iter()
                    .map(|&(id, c, city)| Facility {
                        id,
                        name: format!("fac-{id}"),
                        city: cities[city].to_owned(),
                        country: countries[c],
                    })
                    .collect(),
                ix: rows
                    .iter()
                    .map(|&(id, c, city)| Ix {
                        id,
                        name: format!("ix-{id}"),
                        city: cities[city].to_owned(),
                        country: countries[c],
                    })
                    .collect(),
                netfac: links
                    .iter()
                    .map(|&(a, b, _)| NetFac { net_id: a, fac_id: b })
                    .collect(),
                netixlan: links
                    .iter()
                    .map(|&(a, b, speed)| NetIxLan { net_id: a, ix_id: b, speed })
                    .collect(),
            };
            let back = Snapshot::from_json(&snapshot.to_json()).unwrap();
            prop_assert_eq!(back, snapshot);
        }
    }
}
