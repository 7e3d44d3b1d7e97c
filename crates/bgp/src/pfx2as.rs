//! RouteViews prefix-to-AS ("pfx2as") snapshots.
//!
//! CAIDA's pfx2as files are tab-separated lines `network \t masklen \t
//! origins`, where `origins` is a single ASN, an underscore-joined
//! multi-origin set (`8048_6306`), or a comma-joined AS-set. §4 joins
//! these against LACNIC delegations to compute announced-space shares;
//! Appendix C tracks the per-prefix visibility of Telefónica de Venezuela.

use lacnet_types::{Asn, Error, Ipv4Net, PrefixTrie, Result};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// The origin(s) of a prefix: usually one AS, occasionally a MOAS set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OriginSet(Origins);

/// A single origin is held inline, so the common table entry allocates
/// nothing. Each set has one representation, so derived equality is
/// equality of the ASN lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Origins {
    One(Asn),
    /// Two or more, sorted ascending and distinct.
    Many(Box<[Asn]>),
}

impl OriginSet {
    /// A single-origin set.
    pub fn single(asn: Asn) -> Self {
        OriginSet(Origins::One(asn))
    }

    /// A multi-origin set; deduplicated and sorted.
    pub fn multi(asns: impl IntoIterator<Item = Asn>) -> Result<Self> {
        let mut v: Vec<Asn> = asns.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        match *v {
            [] => Err(Error::invalid("origin set must be non-empty")),
            [one] => Ok(OriginSet::single(one)),
            _ => Ok(OriginSet(Origins::Many(v.into_boxed_slice()))),
        }
    }

    /// The origins, sorted ascending.
    pub fn asns(&self) -> &[Asn] {
        match &self.0 {
            Origins::One(asn) => std::slice::from_ref(asn),
            Origins::Many(asns) => asns,
        }
    }

    /// Whether `asn` is among the origins.
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns().binary_search(&asn).is_ok()
    }

    /// Whether this is a multi-origin (MOAS) announcement.
    pub fn is_moas(&self) -> bool {
        matches!(self.0, Origins::Many(_))
    }
}

impl std::fmt::Display for OriginSet {
    /// pfx2as origin column format: underscore-joined ASNs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, a) in self.asns().iter().enumerate() {
            if i > 0 {
                f.write_str("_")?;
            }
            write!(f, "{}", a.raw())?;
        }
        Ok(())
    }
}

impl FromStr for OriginSet {
    type Err = Error;

    /// Parses `8048`, `8048_6306` (MOAS), or `8048,6306` (AS-set).
    fn from_str(s: &str) -> Result<Self> {
        let asn = |p: &str| {
            parse_decimal(p.trim())
                .map(Asn)
                .ok_or_else(|| Error::parse("origin ASN", s))
        };
        if !s.contains(['_', ',']) {
            return asn(s).map(OriginSet::single);
        }
        OriginSet::multi(s.split(['_', ',']).map(asn).collect::<Result<Vec<_>>>()?)
    }
}

/// One monthly prefix-to-AS snapshot.
#[derive(Debug, Clone, Default)]
pub struct PfxToAs {
    entries: BTreeMap<Ipv4Net, OriginSet>,
}

impl PfxToAs {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(prefix, origins)` pairs; later duplicates win.
    pub fn from_entries(entries: impl IntoIterator<Item = (Ipv4Net, OriginSet)>) -> Self {
        PfxToAs {
            entries: entries.into_iter().collect(),
        }
    }

    /// Record an announcement.
    pub fn insert(&mut self, prefix: Ipv4Net, origins: OriginSet) {
        self.entries.insert(prefix, origins);
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact-prefix lookup.
    pub fn origins_of(&self, prefix: Ipv4Net) -> Option<&OriginSet> {
        self.entries.get(&prefix)
    }

    /// Iterate over all `(prefix, origins)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Net, &OriginSet)> {
        self.entries.iter().map(|(&p, o)| (p, o))
    }

    /// All prefixes originated (solely or in a MOAS set) by `asn`.
    pub fn prefixes_of(&self, asn: Asn) -> Vec<Ipv4Net> {
        self.entries
            .iter()
            .filter(|(_, o)| o.contains(asn))
            .map(|(&p, _)| p)
            .collect()
    }

    /// Total announced address space of `asn` in addresses, counting each
    /// address once even when covered by several announced prefixes (a /16
    /// plus its two /17s is still one /16 of space). This is the Fig. 2
    /// "# addr. space" metric.
    pub fn address_space_of(&self, asn: Asn) -> u64 {
        self.address_space_by_origin(&[asn])[0]
    }

    /// [`PfxToAs::address_space_of`] for each ASN in `asns`, in order, from
    /// one walk over the table.
    pub fn address_space_by_origin(&self, asns: &[Asn]) -> Vec<u64> {
        let mut unions: Vec<(Asn, Union)> = asns.iter().map(|&a| (a, Union::default())).collect();
        unions.sort_unstable_by_key(|&(a, _)| a);
        unions.dedup_by_key(|&mut (a, _)| a);
        // Address order visits each origin's prefixes by ascending start,
        // which is all the running unions need.
        for (p, origins) in &self.entries {
            for asn in origins.asns() {
                if let Ok(i) = unions.binary_search_by_key(asn, |&(a, _)| a) {
                    unions[i].1.add(p);
                }
            }
        }
        asns.iter()
            .map(|asn| match unions.binary_search_by_key(asn, |&(a, _)| a) {
                Ok(i) => unions[i].1.total(),
                Err(_) => 0,
            })
            .collect()
    }

    /// Total announced address space across all origins, each address
    /// counted once.
    pub fn total_address_space(&self) -> u64 {
        let mut intervals: Vec<(u64, u64)> = self
            .entries
            .keys()
            .map(|p| {
                let start = p.network_u32() as u64;
                (start, start + p.size())
            })
            .collect();
        union_length(&mut intervals)
    }

    /// Build a longest-prefix-match trie over the table for address-level
    /// origin attribution.
    pub fn build_trie(&self) -> PrefixTrie<OriginSet> {
        self.entries.iter().map(|(&p, o)| (p, o.clone())).collect()
    }

    /// The origin(s) of the most specific prefix covering `ip`, using a
    /// freshly built trie. Callers doing many lookups should build the
    /// trie once via [`PfxToAs::build_trie`].
    pub fn origin_of_ip(&self, ip: Ipv4Addr) -> Option<OriginSet> {
        self.build_trie().longest_match(ip).map(|(_, o)| o.clone())
    }

    /// Parse a pfx2as file: `network \t masklen \t origins` per line.
    ///
    /// Columns split on any whitespace; columns past the third are ignored.
    /// The network is a dotted quad as [`Ipv4Addr`] reads it, the length a
    /// decimal `u8` that with the network forms a canonical prefix. The
    /// lines are collected and the table built from them in one go; a
    /// prefix listed twice keeps its later line.
    pub fn parse(text: &str) -> Result<Self> {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split_whitespace();
            let (Some(net), Some(len), Some(origins)) = (cols.next(), cols.next(), cols.next())
            else {
                return Err(Error::parse(
                    "pfx2as line (network<TAB>len<TAB>origins)",
                    &format!("line {}: {line}", idx + 1),
                ));
            };
            let addr =
                parse_octets(net).ok_or_else(|| Error::parse("pfx2as network address", line))?;
            let len = parse_decimal(len)
                .and_then(|len| u8::try_from(len).ok())
                .ok_or_else(|| Error::parse("pfx2as mask length", line))?;
            let prefix = Ipv4Net::new(addr, len)
                .map_err(|_| Error::parse("canonical pfx2as prefix", line))?;
            entries.push((prefix, origins.parse()?));
        }
        Ok(PfxToAs::from_entries(entries))
    }

    /// Serialise to pfx2as text (tab-separated, address order).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 24);
        for (p, o) in &self.entries {
            out.push_str(&format!("{}\t{}\t{}\n", p.network(), p.len(), o));
        }
        out
    }
}

/// `u32::from_str` without the error value: an optional `+`, then one or
/// more ASCII digits, with no overflow.
fn parse_decimal(s: &str) -> Option<u32> {
    let digits = s.strip_prefix('+').unwrap_or(s);
    if digits.is_empty() {
        return None;
    }
    digits.bytes().try_fold(0u32, |n, b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u32::from(digit))
    })
}

/// `Ipv4Addr::from_str` without the error value: four dot-separated
/// decimal octets of one to three digits, each at most 255 and without a
/// leading zero.
fn parse_octets(s: &str) -> Option<Ipv4Addr> {
    let bytes = s.as_bytes();
    let mut octets = [0u8; 4];
    let mut pos = 0;
    for (i, octet) in octets.iter_mut().enumerate() {
        if i > 0 {
            if bytes.get(pos) != Some(&b'.') {
                return None;
            }
            pos += 1;
        }
        let start = pos;
        let mut value = 0u16;
        while let Some(&b) = bytes.get(pos) {
            if !b.is_ascii_digit() || pos - start == 3 {
                break;
            }
            value = value * 10 + u16::from(b - b'0');
            pos += 1;
        }
        let digits = pos - start;
        if digits == 0 || (digits > 1 && bytes[start] == b'0') {
            return None;
        }
        *octet = u8::try_from(value).ok()?;
    }
    (pos == bytes.len()).then_some(Ipv4Addr::from(octets))
}

/// The running union of half-open address intervals fed in ascending
/// order of start.
#[derive(Default)]
struct Union {
    total: u64,
    current: Option<(u64, u64)>,
}

impl Union {
    fn push(&mut self, (start, end): (u64, u64)) {
        self.current = match self.current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                self.total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }

    fn add(&mut self, prefix: &Ipv4Net) {
        let start = prefix.network_u32() as u64;
        self.push((start, start + prefix.size()));
    }

    fn total(&self) -> u64 {
        self.total + self.current.map_or(0, |(s, e)| e - s)
    }
}

/// Total length of the union of half-open intervals. Sorts in place.
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut union = Union::default();
    for &interval in intervals.iter() {
        union.push(interval);
    }
    union.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::net::net;
    use proptest::prelude::*;

    #[test]
    fn origin_set_parsing() {
        let single: OriginSet = "8048".parse().unwrap();
        assert_eq!(single.asns(), &[Asn(8048)]);
        assert!(!single.is_moas());
        let moas: OriginSet = "8048_6306".parse().unwrap();
        assert_eq!(moas.asns(), &[Asn(6306), Asn(8048)]);
        assert!(moas.is_moas());
        let set: OriginSet = "8048,6306".parse().unwrap();
        assert!(set.is_moas());
        assert!("".parse::<OriginSet>().is_err());
        assert!("x_y".parse::<OriginSet>().is_err());
    }

    #[test]
    fn parse_and_query() {
        let text =
            "# comment\n186.24.0.0\t17\t8048\n200.35.64.0\t18\t6306\n190.0.0.0\t16\t8048_6306\n";
        let t = PfxToAs::parse(text).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.origins_of(net("186.24.0.0/17")).unwrap().asns(),
            &[Asn(8048)]
        );
        assert_eq!(
            t.prefixes_of(Asn(8048)),
            vec![net("186.24.0.0/17"), net("190.0.0.0/16")]
        );
        assert_eq!(t.prefixes_of(Asn(6306)).len(), 2);
        assert!(t.prefixes_of(Asn(701)).is_empty());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(PfxToAs::parse("186.24.0.0\t17\n").is_err());
        assert!(
            PfxToAs::parse("186.24.0.1\t17\t8048\n").is_err(),
            "host bits set"
        );
        assert!(PfxToAs::parse("186.24.0.0\t40\t8048\n").is_err());
        assert!(PfxToAs::parse("notanip\t17\t8048\n").is_err());
    }

    #[test]
    fn address_space_deduplicates_covered_prefixes() {
        let t = PfxToAs::from_entries([
            (net("186.24.0.0/16"), OriginSet::single(Asn(8048))),
            (net("186.24.0.0/17"), OriginSet::single(Asn(8048))),
            (net("186.24.128.0/17"), OriginSet::single(Asn(8048))),
            (net("200.35.64.0/18"), OriginSet::single(Asn(8048))),
        ]);
        // /16 plus both /17s counts once; /18 is disjoint.
        assert_eq!(t.address_space_of(Asn(8048)), 65536 + 16384);
        assert_eq!(t.total_address_space(), 65536 + 16384);
        assert_eq!(t.address_space_of(Asn(701)), 0);
    }

    #[test]
    fn moas_space_counts_for_both_origins() {
        let t = PfxToAs::from_entries([(net("190.0.0.0/16"), "8048_6306".parse().unwrap())]);
        assert_eq!(t.address_space_of(Asn(8048)), 65536);
        assert_eq!(t.address_space_of(Asn(6306)), 65536);
        assert_eq!(t.total_address_space(), 65536);
    }

    #[test]
    fn ip_attribution_uses_longest_match() {
        let t = PfxToAs::from_entries([
            (net("186.24.0.0/16"), OriginSet::single(Asn(8048))),
            (net("186.24.128.0/17"), OriginSet::single(Asn(6306))),
        ]);
        let o = t.origin_of_ip(Ipv4Addr::new(186, 24, 200, 1)).unwrap();
        assert_eq!(o.asns(), &[Asn(6306)]);
        let o = t.origin_of_ip(Ipv4Addr::new(186, 24, 1, 1)).unwrap();
        assert_eq!(o.asns(), &[Asn(8048)]);
        assert!(t.origin_of_ip(Ipv4Addr::new(10, 0, 0, 1)).is_none());
    }

    #[test]
    fn text_roundtrip() {
        let t = PfxToAs::from_entries([
            (net("186.24.0.0/17"), OriginSet::single(Asn(8048))),
            (net("190.0.0.0/16"), "6306_8048".parse().unwrap()),
        ]);
        let text = t.to_text();
        let back = PfxToAs::parse(&text).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn union_length_edge_cases() {
        assert_eq!(union_length(&mut []), 0);
        assert_eq!(union_length(&mut [(0, 10)]), 10);
        assert_eq!(
            union_length(&mut [(0, 10), (10, 20)]),
            20,
            "touching intervals merge"
        );
        assert_eq!(union_length(&mut [(0, 10), (5, 7)]), 10, "nested");
        assert_eq!(union_length(&mut [(20, 30), (0, 5)]), 15, "unsorted input");
    }

    proptest! {
        #[test]
        fn address_space_bounded_by_sum_of_sizes(
            prefixes in proptest::collection::vec((any::<u32>(), 8u8..=28), 1..40)
        ) {
            let t = PfxToAs::from_entries(prefixes.iter().map(|&(a, l)| {
                (Ipv4Net::truncating(std::net::Ipv4Addr::from(a), l), OriginSet::single(Asn(1)))
            }));
            let naive: u64 = t.iter().map(|(p, _)| p.size()).sum();
            let space = t.address_space_of(Asn(1));
            prop_assert!(space <= naive);
            prop_assert!(space >= t.iter().map(|(p, _)| p.size()).max().unwrap());
        }

        #[test]
        fn roundtrip_random_tables(
            prefixes in proptest::collection::vec((any::<u32>(), 8u8..=28, 1u32..100000), 0..30)
        ) {
            let t = PfxToAs::from_entries(prefixes.iter().map(|&(a, l, o)| {
                (Ipv4Net::truncating(std::net::Ipv4Addr::from(a), l), OriginSet::single(Asn(o)))
            }));
            let back = PfxToAs::parse(&t.to_text()).unwrap();
            prop_assert_eq!(back.len(), t.len());
            for (p, o) in t.iter() {
                prop_assert_eq!(back.origins_of(p).unwrap(), o);
            }
        }
    }
}
