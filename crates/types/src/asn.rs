//! Autonomous system numbers.

use crate::error::{Error, Result};
use std::fmt;
use std::str::FromStr;

/// A BGP autonomous system number (32-bit, RFC 6793).
///
/// The study tracks a fixed cast of ASNs — Venezuela's incumbent
/// CANTV-AS8048, its competitor Telefónica de Venezuela AS6306, and the
/// transit providers that abandoned CANTV after 2013.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl Asn {
    /// Construct from a raw 32-bit value.
    pub const fn new(raw: u32) -> Self {
        Asn(raw)
    }

    /// The raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl FromStr for Asn {
    type Err = Error;

    /// Accepts `8048`, `AS8048` or `as8048`.
    fn from_str(s: &str) -> Result<Self> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| Error::parse("autonomous system number", s))
    }
}

impl From<u32> for Asn {
    fn from(raw: u32) -> Self {
        Asn(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_and_prefixed() {
        assert_eq!("8048".parse::<Asn>().unwrap(), Asn(8048));
        assert_eq!("AS8048".parse::<Asn>().unwrap(), Asn(8048));
        assert_eq!("as6306".parse::<Asn>().unwrap(), Asn(6306));
    }

    #[test]
    fn rejects_garbage() {
        assert!("".parse::<Asn>().is_err());
        assert!("AS".parse::<Asn>().is_err());
        assert!("cantv".parse::<Asn>().is_err());
        assert!("-1".parse::<Asn>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        let asn = Asn(262589);
        assert_eq!(asn.to_string(), "AS262589");
        assert_eq!(asn.to_string().parse::<Asn>().unwrap(), asn);
    }
}
