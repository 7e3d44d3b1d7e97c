//! IPv4 CIDR arithmetic.
//!
//! Address-space analysis (§4, Appendix C) joins LACNIC delegation files
//! against prefix-to-AS snapshots; both sides are streams of IPv4 CIDR
//! blocks. [`Ipv4Net`] provides canonicalised prefixes with containment,
//! overlap, and subdivision operations; the companion [`crate::PrefixTrie`]
//! gives longest-prefix matching.

use crate::error::{Error, Result};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix, canonicalised so host bits are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Net {
    addr: u32,
    len: u8,
}

impl Ipv4Net {
    /// Construct from a network address and prefix length, rejecting
    /// lengths > 32 and non-canonical addresses (host bits set).
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self> {
        if len > 32 {
            return Err(Error::invalid("prefix length must be <= 32"));
        }
        let raw = u32::from(addr);
        let net = Ipv4Net {
            addr: raw & Self::netmask_u32(len),
            len,
        };
        if net.addr != raw {
            return Err(Error::invalid("prefix has host bits set"));
        }
        Ok(net)
    }

    /// Construct, silently zeroing any host bits. Panics if `len > 32`.
    pub fn truncating(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be <= 32");
        Ipv4Net {
            addr: u32::from(addr) & Self::netmask_u32(len),
            len,
        }
    }

    const fn netmask_u32(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address.
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The network address as a raw `u32` (host byte order).
    pub const fn network_u32(self) -> u32 {
        self.addr
    }

    /// Prefix length — CIDR bits, not a container size.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the default route `0.0.0.0/0`.
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// Number of addresses covered (2^(32-len)); `/0` yields 2^32.
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains(self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::netmask_u32(self.len) == self.addr
    }

    /// Whether `other` is fully contained in (or equal to) this prefix.
    pub fn covers(self, other: Ipv4Net) -> bool {
        self.len <= other.len && (other.addr & Self::netmask_u32(self.len)) == self.addr
    }

    /// Whether the two prefixes share any address.
    pub fn overlaps(self, other: Ipv4Net) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// Split into the two halves one bit longer. `None` for /32.
    pub fn halves(self) -> Option<(Ipv4Net, Ipv4Net)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let low = Ipv4Net {
            addr: self.addr,
            len,
        };
        let high = Ipv4Net {
            addr: self.addr | (1u32 << (32 - len)),
            len,
        };
        Some((low, high))
    }

    /// The `i`-th bit of the network address, MSB-first (bit 0 is the top
    /// bit). Used by the trie.
    pub(crate) const fn bit(self, i: u8) -> bool {
        (self.addr >> (31 - i)) & 1 == 1
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Net {
    type Err = Error;

    /// Parses `a.b.c.d/len`. Host bits must be zero.
    fn from_str(s: &str) -> Result<Self> {
        let Some((addr, len)) = s.split_once('/') else {
            return Err(Error::parse("CIDR prefix (a.b.c.d/len)", s));
        };
        let addr: Ipv4Addr = addr.parse().map_err(|_| Error::parse("IPv4 address", s))?;
        let len: u8 = len.parse().map_err(|_| Error::parse("prefix length", s))?;
        Ipv4Net::new(addr, len).map_err(|_| Error::parse("canonical CIDR prefix", s))
    }
}

impl TryFrom<String> for Ipv4Net {
    type Error = Error;
    fn try_from(s: String) -> Result<Self> {
        s.parse()
    }
}

impl From<Ipv4Net> for String {
    fn from(n: Ipv4Net) -> String {
        n.to_string()
    }
}

/// Parse a prefix literal; panics on failure. For tests and static tables.
pub fn net(s: &str) -> Ipv4Net {
    s.parse().expect("invalid prefix literal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_display_roundtrip() {
        let n = net("186.24.0.0/17");
        assert_eq!(n.to_string(), "186.24.0.0/17");
        assert_eq!(n.len(), 17);
        assert_eq!(n.size(), 1 << 15);
    }

    #[test]
    fn rejects_host_bits() {
        assert!("186.24.0.1/17".parse::<Ipv4Net>().is_err());
        assert!(Ipv4Net::new(Ipv4Addr::new(10, 0, 0, 1), 24).is_err());
        assert_eq!(
            Ipv4Net::truncating(Ipv4Addr::new(10, 0, 0, 1), 24).to_string(),
            "10.0.0.0/24"
        );
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn default_route() {
        let d = net("0.0.0.0/0");
        assert!(d.is_default());
        assert_eq!(d.size(), 1u64 << 32);
        assert!(d.contains(Ipv4Addr::new(200, 44, 32, 12)));
        assert!(d.covers(net("186.24.0.0/17")));
    }

    #[test]
    fn containment() {
        let wide = net("186.24.0.0/16");
        let narrow = net("186.24.128.0/17");
        assert!(wide.covers(narrow));
        assert!(!narrow.covers(wide));
        assert!(wide.overlaps(narrow));
        assert!(narrow.overlaps(wide));
        assert!(!narrow.overlaps(net("186.25.0.0/16")));
        assert!(wide.contains(Ipv4Addr::new(186, 24, 200, 1)));
        assert!(!wide.contains(Ipv4Addr::new(186, 25, 0, 1)));
    }

    #[test]
    fn halves_split_one_bit_longer() {
        let n = net("200.35.64.0/18");
        let (lo, hi) = n.halves().unwrap();
        assert_eq!(lo.to_string(), "200.35.64.0/19");
        assert_eq!(hi.to_string(), "200.35.96.0/19");
        assert!(net("1.2.3.4/32").halves().is_none());
    }

    #[test]
    fn bit_extraction_msb_first() {
        let n = net("128.0.0.0/1");
        assert!(n.bit(0));
        let n = net("64.0.0.0/2");
        assert!(!n.bit(0));
        assert!(n.bit(1));
    }

    proptest! {
        #[test]
        fn roundtrip_any_canonical(addr in any::<u32>(), len in 0u8..=32) {
            let n = Ipv4Net::truncating(Ipv4Addr::from(addr), len);
            let back: Ipv4Net = n.to_string().parse().unwrap();
            prop_assert_eq!(n, back);
        }

        #[test]
        fn covers_is_reflexive_and_antisymmetric(addr in any::<u32>(), len in 0u8..=32,
                                                 addr2 in any::<u32>(), len2 in 0u8..=32) {
            let a = Ipv4Net::truncating(Ipv4Addr::from(addr), len);
            let b = Ipv4Net::truncating(Ipv4Addr::from(addr2), len2);
            prop_assert!(a.covers(a));
            if a.covers(b) && b.covers(a) {
                prop_assert_eq!(a, b);
            }
        }

        #[test]
        fn halves_partition_parent(addr in any::<u32>(), len in 0u8..=31, probe in any::<u32>()) {
            let n = Ipv4Net::truncating(Ipv4Addr::from(addr), len);
            let (lo, hi) = n.halves().unwrap();
            prop_assert_eq!(lo.size() + hi.size(), n.size());
            prop_assert!(n.covers(lo) && n.covers(hi));
            prop_assert!(!lo.overlaps(hi));
            let ip = Ipv4Addr::from(probe);
            if n.contains(ip) {
                prop_assert!(lo.contains(ip) ^ hi.contains(ip));
            }
        }
    }
}
