//! The NRO extended delegation-file format, as published at
//! `ftp.lacnic.net/pub/stats/lacnic/`.
//!
//! Pipe-separated records:
//!
//! ```text
//! 2|lacnic|20240101|1234|19890101|20240101|-0300          ← version line
//! lacnic|*|ipv4|*|842|summary                             ← summary lines
//! lacnic|VE|ipv4|186.24.0.0|65536|20080305|allocated
//! lacnic|VE|asn|8048|1|19960101|allocated
//! ```
//!
//! Data records are `registry|cc|type|start|value|date|status[|opaque-id]`
//! where, for `ipv4`, `value` is the *number of addresses* (not a prefix
//! length — historic delegations are not always CIDR-aligned, though the
//! generator only emits aligned blocks).

use lacnet_types::{Asn, CountryCode, Date, Error, Ipv4Net, Result};
use std::net::Ipv4Addr;

/// The resource a delegation record covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumberResource {
    /// An IPv4 block: starting address and address count.
    Ipv4 {
        /// First address of the block.
        start: Ipv4Addr,
        /// Number of addresses delegated.
        count: u64,
    },
    /// An IPv6 block: starting prefix text is kept opaque; only the prefix
    /// length matters for the study's aggregate counts.
    Ipv6 {
        /// Prefix length of the delegated block.
        prefix_len: u8,
    },
    /// A block of ASNs.
    Asn {
        /// First ASN.
        start: Asn,
        /// Number of consecutive ASNs.
        count: u32,
    },
}

/// Delegation status column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegationStatus {
    /// Allocated to an LIR/ISP.
    Allocated,
    /// Assigned to an end site.
    Assigned,
    /// Held by the registry, available.
    Available,
    /// Reserved by the registry.
    Reserved,
}

impl DelegationStatus {
    fn as_str(self) -> &'static str {
        match self {
            DelegationStatus::Allocated => "allocated",
            DelegationStatus::Assigned => "assigned",
            DelegationStatus::Available => "available",
            DelegationStatus::Reserved => "reserved",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        match s {
            "allocated" => Ok(DelegationStatus::Allocated),
            "assigned" => Ok(DelegationStatus::Assigned),
            "available" => Ok(DelegationStatus::Available),
            "reserved" => Ok(DelegationStatus::Reserved),
            _ => Err(Error::parse("delegation status", s)),
        }
    }
}

/// One data record of a delegation file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelegationRecord {
    /// Country the resource is registered in.
    pub country: CountryCode,
    /// The delegated resource.
    pub resource: NumberResource,
    /// Delegation date.
    pub date: Date,
    /// Status column.
    pub status: DelegationStatus,
    /// The optional trailing opaque-id column. Real NRO files carry an
    /// org hash there; the generator's registry-internal records carry
    /// the holding operator (`AS<n>`), which is what lets an archive
    /// consumer rebuild the full allocation ledger from the file alone.
    /// Opaque ids that do not name an AS parse as `None`.
    pub holder: Option<Asn>,
}

impl DelegationRecord {
    /// The record as CIDR prefixes, splitting non-aligned counts into the
    /// maximal aligned blocks (the standard way consumers join delegation
    /// files against routing data).
    pub fn ipv4_prefixes(&self) -> Vec<Ipv4Net> {
        let NumberResource::Ipv4 { start, count } = self.resource else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut addr = u32::from(start) as u64;
        let mut remaining = count;
        while remaining > 0 {
            // Largest power of two that both divides the current address
            // alignment and fits in the remaining count.
            let align = if addr == 0 {
                1u64 << 32
            } else {
                1u64 << addr.trailing_zeros().min(32)
            };
            let mut block = align.min(remaining.next_power_of_two());
            while block > remaining {
                block /= 2;
            }
            let len = 32 - block.trailing_zeros() as u8;
            out.push(Ipv4Net::truncating(Ipv4Addr::from(addr as u32), len));
            addr += block;
            remaining -= block;
        }
        out
    }
}

fn format_date(d: Date) -> String {
    format!("{:04}{:02}{:02}", d.year(), d.month(), d.day())
}

fn parse_date(s: &str) -> Result<Date> {
    if s.len() != 8 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(Error::parse("delegation date (YYYYMMDD)", s));
    }
    let y: i32 = s[0..4].parse().map_err(|_| Error::parse("date year", s))?;
    let m: u8 = s[4..6].parse().map_err(|_| Error::parse("date month", s))?;
    let d: u8 = s[6..8].parse().map_err(|_| Error::parse("date day", s))?;
    Date::new(y, m, d).map_err(|_| Error::parse("valid delegation date", s))
}

/// A parsed delegation file: the registry name and its data records
/// (version and summary lines are validated and dropped).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DelegationFile {
    /// Registry identifier (always `lacnic` for generated files).
    pub registry: String,
    /// All data records in file order.
    pub records: Vec<DelegationRecord>,
}

impl DelegationFile {
    /// Create an empty file for `registry`.
    pub fn new(registry: &str) -> Self {
        DelegationFile {
            registry: registry.to_owned(),
            records: Vec::new(),
        }
    }

    /// Parse the full text of a delegation file.
    pub fn parse(text: &str) -> Result<Self> {
        let mut registry = String::new();
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let cols: Vec<&str> = line.split('|').collect();
            // Version line: `2|lacnic|date|count|start|end|offset`.
            if cols.len() >= 2 && cols[0].chars().all(|c| c.is_ascii_digit()) && idx < 3 {
                registry = cols[1].to_owned();
                continue;
            }
            // Summary line: `lacnic|*|ipv4|*|count|summary`.
            if cols.last() == Some(&"summary") {
                continue;
            }
            if cols.len() < 7 {
                return Err(Error::parse(
                    "delegation record (7 pipe-separated fields)",
                    &format!("line {}: {line}", idx + 1),
                ));
            }
            if registry.is_empty() {
                registry = cols[0].to_owned();
            }
            let country = CountryCode::new(cols[1])
                .map_err(|_| Error::parse("delegation country code", line))?;
            let date = parse_date(cols[5])?;
            let status = DelegationStatus::parse(cols[6])?;
            let resource = match cols[2] {
                "ipv4" => {
                    let start: Ipv4Addr = cols[3]
                        .parse()
                        .map_err(|_| Error::parse("ipv4 start address", line))?;
                    let count: u64 = cols[4]
                        .parse()
                        .map_err(|_| Error::parse("ipv4 address count", line))?;
                    if count == 0 || count > 1 << 32 {
                        return Err(Error::parse("ipv4 count in 1..=2^32", line));
                    }
                    NumberResource::Ipv4 { start, count }
                }
                "ipv6" => {
                    let prefix_len: u8 = cols[4]
                        .parse()
                        .map_err(|_| Error::parse("ipv6 prefix length", line))?;
                    if prefix_len > 128 {
                        return Err(Error::parse("ipv6 prefix length <= 128", line));
                    }
                    NumberResource::Ipv6 { prefix_len }
                }
                "asn" => {
                    let start: u32 = cols[3]
                        .parse()
                        .map_err(|_| Error::parse("asn start", line))?;
                    let count: u32 = cols[4]
                        .parse()
                        .map_err(|_| Error::parse("asn count", line))?;
                    NumberResource::Asn {
                        start: Asn(start),
                        count,
                    }
                }
                other => return Err(Error::parse("resource type ipv4|ipv6|asn", other)),
            };
            let holder = cols
                .get(7)
                .and_then(|id| id.strip_prefix("AS"))
                .and_then(|raw| raw.parse().ok())
                .map(Asn);
            records.push(DelegationRecord {
                country,
                resource,
                date,
                status,
                holder,
            });
        }
        Ok(DelegationFile { registry, records })
    }

    /// Serialise to the NRO extended format, including version and summary
    /// lines, with `file_date` as the version-line date.
    pub fn to_text(&self, file_date: Date) -> String {
        let mut out = String::new();
        let (mut n4, mut n6, mut nasn) = (0usize, 0usize, 0usize);
        for r in &self.records {
            match r.resource {
                NumberResource::Ipv4 { .. } => n4 += 1,
                NumberResource::Ipv6 { .. } => n6 += 1,
                NumberResource::Asn { .. } => nasn += 1,
            }
        }
        out.push_str(&format!(
            "2|{}|{}|{}|19890101|{}|-0300\n",
            self.registry,
            format_date(file_date),
            self.records.len(),
            format_date(file_date),
        ));
        out.push_str(&format!("{}|*|ipv4|*|{}|summary\n", self.registry, n4));
        out.push_str(&format!("{}|*|ipv6|*|{}|summary\n", self.registry, n6));
        out.push_str(&format!("{}|*|asn|*|{}|summary\n", self.registry, nasn));
        for r in &self.records {
            let (kind, start, value) = match r.resource {
                NumberResource::Ipv4 { start, count } => {
                    ("ipv4", start.to_string(), count.to_string())
                }
                NumberResource::Ipv6 { prefix_len } => {
                    ("ipv6", "2800::".to_owned(), prefix_len.to_string())
                }
                NumberResource::Asn { start, count } => {
                    ("asn", start.raw().to_string(), count.to_string())
                }
            };
            let opaque = match r.holder {
                Some(h) => format!("|AS{}", h.raw()),
                None => String::new(),
            };
            out.push_str(&format!(
                "{}|{}|{}|{}|{}|{}|{}{}\n",
                self.registry,
                r.country,
                kind,
                start,
                value,
                format_date(r.date),
                r.status.as_str(),
                opaque,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;
    use lacnet_types::net::net;

    const SAMPLE: &str = "\
2|lacnic|20240101|4|19890101|20240101|-0300
lacnic|*|ipv4|*|2|summary
lacnic|*|ipv6|*|1|summary
lacnic|*|asn|*|1|summary
lacnic|VE|ipv4|186.24.0.0|65536|20080305|allocated
lacnic|VE|ipv4|200.35.64.0|16384|20050110|assigned
lacnic|BR|ipv6|2800::|32|20101101|allocated
lacnic|VE|asn|8048|1|19960101|allocated
";

    #[test]
    fn parse_sample() {
        let f = DelegationFile::parse(SAMPLE).unwrap();
        assert_eq!(f.registry, "lacnic");
        assert_eq!(f.records.len(), 4);
        let r = &f.records[0];
        assert_eq!(r.country, country::VE);
        assert!(matches!(
            r.resource,
            NumberResource::Ipv4 { count: 65536, .. }
        ));
        assert_eq!(r.date, Date::ymd(2008, 3, 5));
        assert_eq!(r.status, DelegationStatus::Allocated);
    }

    #[test]
    fn roundtrip() {
        let f = DelegationFile::parse(SAMPLE).unwrap();
        let text = f.to_text(Date::ymd(2024, 1, 1));
        let back = DelegationFile::parse(&text).unwrap();
        assert_eq!(back.records, f.records);
        assert_eq!(back.registry, "lacnic");
    }

    #[test]
    fn rejects_malformed() {
        assert!(DelegationFile::parse("lacnic|VE|ipv4|186.24.0.0|65536|20080305\n").is_err());
        assert!(DelegationFile::parse("lacnic|VE|ipv4|bogus|65536|20080305|allocated\n").is_err());
        assert!(DelegationFile::parse("lacnic|VE|ipv4|186.24.0.0|0|20080305|allocated\n").is_err());
        assert!(
            DelegationFile::parse("lacnic|VE|ipv4|186.24.0.0|65536|2008030|allocated\n").is_err()
        );
        assert!(
            DelegationFile::parse("lacnic|VE|floppy|186.24.0.0|65536|20080305|allocated\n")
                .is_err()
        );
        assert!(
            DelegationFile::parse("lacnic|VE|ipv4|186.24.0.0|65536|20080305|stolen\n").is_err()
        );
    }

    #[test]
    fn aligned_block_to_prefixes() {
        let r = DelegationRecord {
            country: country::VE,
            resource: NumberResource::Ipv4 {
                start: Ipv4Addr::new(186, 24, 0, 0),
                count: 65536,
            },
            date: Date::ymd(2008, 3, 5),
            status: DelegationStatus::Allocated,
            holder: None,
        };
        assert_eq!(r.ipv4_prefixes(), vec![net("186.24.0.0/16")]);
    }

    #[test]
    fn unaligned_count_splits_into_cidr_blocks() {
        // 3 * /24 starting at a /24 boundary: one /23 + one /24.
        let r = DelegationRecord {
            country: country::VE,
            resource: NumberResource::Ipv4 {
                start: Ipv4Addr::new(200, 1, 0, 0),
                count: 768,
            },
            date: Date::ymd(2010, 1, 1),
            status: DelegationStatus::Allocated,
            holder: None,
        };
        assert_eq!(
            r.ipv4_prefixes(),
            vec![net("200.1.0.0/23"), net("200.1.2.0/24")]
        );
        let total: u64 = r.ipv4_prefixes().iter().map(|p| p.size()).sum();
        assert_eq!(total, 768);
    }

    #[test]
    fn misaligned_start_respects_alignment() {
        // Start at .128 with count 384: /25 at .128, then /24 next? No —
        // alignment at 200.1.0.128 allows at most a /25 (128 addresses),
        // then 200.1.1.0 allows a /24 (256).
        let r = DelegationRecord {
            country: country::VE,
            resource: NumberResource::Ipv4 {
                start: Ipv4Addr::new(200, 1, 0, 128),
                count: 384,
            },
            date: Date::ymd(2010, 1, 1),
            status: DelegationStatus::Allocated,
            holder: None,
        };
        assert_eq!(
            r.ipv4_prefixes(),
            vec![net("200.1.0.128/25"), net("200.1.1.0/24")]
        );
    }

    #[test]
    fn holder_column_roundtrips() {
        let text = "lacnic|VE|ipv4|186.24.0.0|65536|20080305|allocated|AS8048\n";
        let f = DelegationFile::parse(text).unwrap();
        assert_eq!(f.records[0].holder, Some(Asn(8048)));
        let back = DelegationFile::parse(&f.to_text(Date::ymd(2024, 1, 1))).unwrap();
        assert_eq!(back.records, f.records);
        // Non-AS opaque ids are tolerated but unattributed.
        let f = DelegationFile::parse("lacnic|VE|ipv4|186.24.0.0|65536|20080305|allocated|a9f3\n")
            .unwrap();
        assert_eq!(f.records[0].holder, None);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// parse(to_text(f)) == f for generated single-record files —
            /// the invariant that lets the archive rebuild the ledger.
            #[test]
            fn record_roundtrip_proptest(
                octet in 0u8..=255,
                len_pow in 8u32..=24,
                year in 1998i32..=2023,
                month in 1u8..=12,
                holder in 1u32..400_000,
                with_holder in any::<bool>(),
            ) {
                let mut f = DelegationFile::new("lacnic");
                f.records.push(DelegationRecord {
                    country: country::VE,
                    resource: NumberResource::Ipv4 {
                        start: Ipv4Addr::new(186, octet, 0, 0),
                        count: 1u64 << (32 - len_pow),
                    },
                    date: Date::ymd(year, month, 1),
                    status: DelegationStatus::Allocated,
                    holder: with_holder.then_some(Asn(holder)),
                });
                let back = DelegationFile::parse(&f.to_text(Date::ymd(2024, 1, 1))).unwrap();
                prop_assert_eq!(back, f);
            }
        }
    }

    #[test]
    fn non_ipv4_records_have_no_prefixes() {
        let r = DelegationRecord {
            country: country::BR,
            resource: NumberResource::Ipv6 { prefix_len: 32 },
            date: Date::ymd(2010, 1, 1),
            status: DelegationStatus::Allocated,
            holder: None,
        };
        assert!(r.ipv4_prefixes().is_empty());
    }
}
