//! An allocation ledger: who holds which block since when.
//!
//! The delegation-file format records *country-level* delegations; the
//! holder (which operator received the block) lives in registry-internal
//! records. The generator needs both views — delegation files for the
//! pipeline to parse, holder attribution to decide which origin announces
//! each block — so the ledger keeps them together.

use crate::delegation::{DelegationFile, DelegationRecord, DelegationStatus, NumberResource};
use lacnet_types::{Asn, CountryCode, Date, Error, Ipv4Net, Result};
use std::collections::BTreeSet;

/// One allocation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// Country of registration.
    pub country: CountryCode,
    /// Operator that received the block.
    pub holder: Asn,
    /// The delegated block.
    pub prefix: Ipv4Net,
    /// Delegation date.
    pub date: Date,
}

/// The registry's full allocation history.
#[derive(Debug, Clone, Default)]
pub struct AllocationLedger {
    entries: Vec<Allocation>,
}

impl AllocationLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an allocation. Rejects blocks overlapping an existing entry
    /// (the registry never double-delegates space).
    pub fn allocate(&mut self, alloc: Allocation) -> Result<()> {
        if self.entries.iter().any(|e| e.prefix.overlaps(alloc.prefix)) {
            return Err(Error::invalid("allocation overlaps existing delegation"));
        }
        self.entries.push(alloc);
        Ok(())
    }

    /// All allocation events, in insertion order.
    pub fn entries(&self) -> &[Allocation] {
        &self.entries
    }

    /// Blocks held by `holder` as of `cutoff`.
    pub fn holdings(&self, holder: Asn, cutoff: Date) -> Vec<Ipv4Net> {
        self.entries
            .iter()
            .filter(|e| e.holder == holder && e.date <= cutoff)
            .map(|e| e.prefix)
            .collect()
    }

    /// Total addresses held by `holder` as of `cutoff`.
    pub fn space_of_holder(&self, holder: Asn, cutoff: Date) -> u64 {
        self.holdings(holder, cutoff).iter().map(|p| p.size()).sum()
    }

    /// Every holder that appears in the ledger.
    pub fn holders(&self) -> BTreeSet<Asn> {
        self.entries.iter().map(|e| e.holder).collect()
    }

    /// Render the delegation file as the registry would publish it on
    /// `cutoff` (records dated after the cutoff omitted).
    pub fn to_delegation_file(&self, cutoff: Date) -> DelegationFile {
        let mut f = DelegationFile::new("lacnic");
        let mut records: Vec<&Allocation> =
            self.entries.iter().filter(|e| e.date <= cutoff).collect();
        records.sort_by_key(|e| (e.country, e.prefix));
        for e in records {
            f.records.push(DelegationRecord {
                country: e.country,
                resource: NumberResource::Ipv4 {
                    start: e.prefix.network(),
                    count: e.prefix.size(),
                },
                date: e.date,
                status: DelegationStatus::Allocated,
                holder: Some(e.holder),
            });
        }
        f
    }

    /// Rebuild a ledger from a delegation file whose records carry holder
    /// attribution in the opaque-id column (as [`to_delegation_file`]
    /// emits). IPv4 records without a holder are skipped — they cannot be
    /// attributed. Query results are insensitive to entry order, so a
    /// ledger round-tripped through its full-history file answers every
    /// query identically to the original.
    ///
    /// [`to_delegation_file`]: AllocationLedger::to_delegation_file
    pub fn from_delegation_file(file: &DelegationFile) -> Result<Self> {
        let mut ledger = AllocationLedger::new();
        for r in &file.records {
            let (NumberResource::Ipv4 { .. }, Some(holder)) = (r.resource, r.holder) else {
                continue;
            };
            let prefixes = r.ipv4_prefixes();
            if prefixes.len() != 1 {
                return Err(Error::invalid(
                    "ledger delegation records must be single CIDR blocks",
                ));
            }
            ledger.allocate(Allocation {
                country: r.country,
                holder,
                prefix: prefixes[0],
                date: r.date,
            })?;
        }
        Ok(ledger)
    }
}

/// Carves successive CIDR blocks out of a base pool — how the generator
/// hands registry space to operators without overlaps.
#[derive(Debug, Clone)]
pub struct PoolCarver {
    base: Ipv4Net,
    /// Offset (in addresses) of the next unassigned address.
    next: u64,
}

impl PoolCarver {
    /// Create a carver over `base`.
    pub fn new(base: Ipv4Net) -> Self {
        PoolCarver { base, next: 0 }
    }

    /// Addresses remaining in the pool.
    pub fn remaining(&self) -> u64 {
        self.base.size() - self.next
    }

    /// Carve the next aligned block of prefix length `len`. The cursor is
    /// advanced past any alignment padding.
    pub fn carve(&mut self, len: u8) -> Result<Ipv4Net> {
        if len < self.base.len() || len > 32 {
            return Err(Error::invalid("carve length must be within the pool"));
        }
        let block = 1u64 << (32 - len);
        // Align the cursor up to the block size.
        let aligned = self.next.div_ceil(block) * block;
        if aligned + block > self.base.size() {
            return Err(Error::invalid("pool exhausted"));
        }
        self.next = aligned + block;
        let addr = self.base.network_u32() as u64 + aligned;
        Ok(Ipv4Net::truncating(
            std::net::Ipv4Addr::from(addr as u32),
            len,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;
    use lacnet_types::net::net;

    fn alloc(holder: u32, prefix: &str, y: i32, m: u8) -> Allocation {
        Allocation {
            country: country::VE,
            holder: Asn(holder),
            prefix: net(prefix),
            date: Date::ymd(y, m, 1),
        }
    }

    #[test]
    fn allocate_and_query() {
        let mut ledger = AllocationLedger::new();
        ledger
            .allocate(alloc(8048, "186.24.0.0/16", 2008, 3))
            .unwrap();
        ledger
            .allocate(alloc(6306, "200.35.64.0/18", 2005, 1))
            .unwrap();
        ledger
            .allocate(alloc(8048, "190.0.0.0/17", 2012, 6))
            .unwrap();

        assert_eq!(
            ledger.space_of_holder(Asn(8048), Date::ymd(2024, 1, 1)),
            65536 + 32768
        );
        assert_eq!(
            ledger.space_of_holder(Asn(8048), Date::ymd(2010, 1, 1)),
            65536
        );
        assert_eq!(
            ledger.holdings(Asn(6306), Date::ymd(2024, 1, 1)),
            vec![net("200.35.64.0/18")]
        );
        assert_eq!(ledger.holders(), BTreeSet::from([Asn(6306), Asn(8048)]));
    }

    #[test]
    fn rejects_overlap() {
        let mut ledger = AllocationLedger::new();
        ledger
            .allocate(alloc(8048, "186.24.0.0/16", 2008, 3))
            .unwrap();
        assert!(ledger
            .allocate(alloc(6306, "186.24.128.0/17", 2009, 1))
            .is_err());
        assert!(ledger
            .allocate(alloc(6306, "186.0.0.0/8", 2009, 1))
            .is_err());
        assert_eq!(ledger.entries().len(), 1);
    }

    /// IPv4 addresses a delegation file registers, across its records.
    fn delegated_space(f: &DelegationFile) -> u64 {
        f.records
            .iter()
            .flat_map(|r| r.ipv4_prefixes())
            .map(|p| p.size())
            .sum()
    }

    #[test]
    fn delegation_file_snapshot() {
        let mut ledger = AllocationLedger::new();
        ledger
            .allocate(alloc(8048, "186.24.0.0/16", 2008, 3))
            .unwrap();
        ledger
            .allocate(alloc(8048, "190.0.0.0/17", 2012, 6))
            .unwrap();
        let f = ledger.to_delegation_file(Date::ymd(2010, 1, 1));
        assert_eq!(f.records.len(), 1, "2012 record excluded at 2010 cutoff");
        assert_eq!(delegated_space(&f), 65536);
        // Full snapshot round-trips through text.
        let f = ledger.to_delegation_file(Date::ymd(2024, 1, 1));
        let text = f.to_text(Date::ymd(2024, 1, 1));
        let back = DelegationFile::parse(&text).unwrap();
        assert_eq!(delegated_space(&back), 65536 + 32768);
    }

    #[test]
    fn ledger_rebuilds_from_its_own_delegation_file() {
        let mut ledger = AllocationLedger::new();
        ledger
            .allocate(alloc(8048, "186.24.0.0/16", 2008, 3))
            .unwrap();
        ledger
            .allocate(alloc(6306, "200.35.64.0/18", 2005, 1))
            .unwrap();
        ledger
            .allocate(alloc(8048, "190.0.0.0/17", 2012, 6))
            .unwrap();
        let cutoff = Date::ymd(2024, 1, 1);
        let text = ledger.to_delegation_file(cutoff).to_text(cutoff);
        let back =
            AllocationLedger::from_delegation_file(&DelegationFile::parse(&text).unwrap()).unwrap();
        let mut want = ledger.entries().to_vec();
        let mut got = back.entries().to_vec();
        want.sort_by_key(|e| e.prefix);
        got.sort_by_key(|e| e.prefix);
        assert_eq!(got, want, "entries survive modulo publication order");
        assert_eq!(
            back.space_of_holder(Asn(8048), cutoff),
            ledger.space_of_holder(Asn(8048), cutoff)
        );
        assert_eq!(back.holders(), ledger.holders());
    }

    #[test]
    fn carver_hands_out_disjoint_aligned_blocks() {
        let mut carver = PoolCarver::new(net("190.0.0.0/12"));
        let a = carver.carve(16).unwrap();
        let b = carver.carve(18).unwrap();
        let c = carver.carve(16).unwrap();
        assert_eq!(a, net("190.0.0.0/16"));
        assert_eq!(b, net("190.1.0.0/18"));
        // /16 must realign past the /18.
        assert_eq!(c, net("190.2.0.0/16"));
        assert!(!a.overlaps(b) && !b.overlaps(c) && !a.overlaps(c));
    }

    #[test]
    fn carver_exhausts() {
        let mut carver = PoolCarver::new(net("10.0.0.0/24"));
        assert_eq!(carver.remaining(), 256);
        carver.carve(25).unwrap();
        carver.carve(25).unwrap();
        assert!(carver.carve(25).is_err());
        assert_eq!(carver.remaining(), 0);
        assert!(carver.carve(8).is_err(), "larger than pool");
        assert!(carver.carve(33).is_err());
    }

    #[test]
    fn ledger_with_carver_never_overlaps() {
        let mut carver = PoolCarver::new(net("186.0.0.0/8"));
        let mut ledger = AllocationLedger::new();
        for i in 0..50u32 {
            let p = carver.carve(18).unwrap();
            ledger
                .allocate(Allocation {
                    country: country::VE,
                    holder: Asn(8048 + i),
                    prefix: p,
                    date: Date::ymd(2010, 1, 1),
                })
                .unwrap();
        }
        assert_eq!(ledger.entries().len(), 50);
    }
}
