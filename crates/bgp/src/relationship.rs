//! AS business relationships and edges.

use lacnet_types::{Asn, Error, Result};
use std::fmt;
use std::str::FromStr;

/// The business relationship between two ASes, in CAIDA serial-1 coding.
///
/// In a serial-1 line `a|b|code`, `code == -1` means *a is a provider of b*
/// (a transit, "p2c") and `code == 0` means *a and b are peers* ("p2p").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsRelationship {
    /// Provider-to-customer: the first AS sells transit to the second.
    ProviderToCustomer,
    /// Settlement-free peering.
    PeerToPeer,
}

impl AsRelationship {
    /// The serial-1 integer code.
    pub const fn code(self) -> i8 {
        match self {
            AsRelationship::ProviderToCustomer => -1,
            AsRelationship::PeerToPeer => 0,
        }
    }

    /// Decode a serial-1 integer code.
    pub fn from_code(code: i8) -> Result<Self> {
        match code {
            -1 => Ok(AsRelationship::ProviderToCustomer),
            0 => Ok(AsRelationship::PeerToPeer),
            _ => Err(Error::invalid("relationship code must be -1 or 0")),
        }
    }
}

impl fmt::Display for AsRelationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsRelationship::ProviderToCustomer => f.write_str("p2c"),
            AsRelationship::PeerToPeer => f.write_str("p2p"),
        }
    }
}

/// One edge of the AS-level topology: `(a, b, relationship)` with the
/// serial-1 orientation (`a` is the provider when the relationship is
/// provider-to-customer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelEdge {
    /// First AS (provider side for p2c edges).
    pub a: Asn,
    /// Second AS (customer side for p2c edges).
    pub b: Asn,
    /// Relationship between `a` and `b`.
    pub rel: AsRelationship,
}

impl RelEdge {
    /// A provider→customer edge.
    pub const fn transit(provider: Asn, customer: Asn) -> Self {
        RelEdge {
            a: provider,
            b: customer,
            rel: AsRelationship::ProviderToCustomer,
        }
    }

    /// A peering edge. Stored with the given order; [`RelEdge::canonical`]
    /// normalises peer edges to `a < b` for set semantics.
    pub const fn peering(a: Asn, b: Asn) -> Self {
        RelEdge {
            a,
            b,
            rel: AsRelationship::PeerToPeer,
        }
    }

    /// Canonical form: peer edges ordered `a <= b`; p2c edges unchanged
    /// (their orientation is meaningful).
    pub fn canonical(self) -> Self {
        match self.rel {
            AsRelationship::PeerToPeer if self.b < self.a => RelEdge {
                a: self.b,
                b: self.a,
                rel: self.rel,
            },
            _ => self,
        }
    }
}

impl fmt::Display for RelEdge {
    /// Serial-1 line format (no trailing newline): `a|b|code`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}|{}|{}", self.a.raw(), self.b.raw(), self.rel.code())
    }
}

impl FromStr for RelEdge {
    type Err = Error;

    /// Parses a serial-1 data line `a|b|code`. Trailing fields (serial-2
    /// adds a source column) are tolerated and ignored.
    fn from_str(s: &str) -> Result<Self> {
        let mut parts = s.split('|');
        let (Some(a), Some(b), Some(code)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(Error::parse("serial-1 edge (a|b|code)", s));
        };
        let a: u32 = a.trim().parse().map_err(|_| Error::parse("ASN", s))?;
        let b: u32 = b.trim().parse().map_err(|_| Error::parse("ASN", s))?;
        let code: i8 = code
            .trim()
            .parse()
            .map_err(|_| Error::parse("relationship code", s))?;
        let rel = AsRelationship::from_code(code)
            .map_err(|_| Error::parse("relationship code -1|0", s))?;
        Ok(RelEdge {
            a: Asn(a),
            b: Asn(b),
            rel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        assert_eq!(
            AsRelationship::from_code(-1).unwrap(),
            AsRelationship::ProviderToCustomer
        );
        assert_eq!(
            AsRelationship::from_code(0).unwrap(),
            AsRelationship::PeerToPeer
        );
        assert!(AsRelationship::from_code(1).is_err());
        assert_eq!(AsRelationship::ProviderToCustomer.code(), -1);
    }

    #[test]
    fn edge_parse_display_roundtrip() {
        let e: RelEdge = "701|8048|-1".parse().unwrap();
        assert_eq!(e, RelEdge::transit(Asn(701), Asn(8048)));
        assert_eq!(e.to_string(), "701|8048|-1");
        let p: RelEdge = "8048|6306|0".parse().unwrap();
        assert_eq!(p.rel, AsRelationship::PeerToPeer);
    }

    #[test]
    fn edge_parse_tolerates_serial2_source_column() {
        let e: RelEdge = "701|8048|-1|bgp".parse().unwrap();
        assert_eq!(e, RelEdge::transit(Asn(701), Asn(8048)));
    }

    #[test]
    fn edge_parse_rejects_garbage() {
        assert!("".parse::<RelEdge>().is_err());
        assert!("701|8048".parse::<RelEdge>().is_err());
        assert!("701|8048|7".parse::<RelEdge>().is_err());
        assert!("a|b|-1".parse::<RelEdge>().is_err());
    }

    #[test]
    fn canonical_orders_peers_only() {
        let p = RelEdge::peering(Asn(9), Asn(3)).canonical();
        assert_eq!((p.a, p.b), (Asn(3), Asn(9)));
        let t = RelEdge::transit(Asn(9), Asn(3)).canonical();
        assert_eq!(
            (t.a, t.b),
            (Asn(9), Asn(3)),
            "p2c orientation is meaningful"
        );
    }
}
