//! Autonomous system numbers.

use crate::error::{Error, Result};
use std::fmt;
use std::str::FromStr;

/// A BGP autonomous system number (32-bit, RFC 6793).
///
/// The study tracks a fixed cast of ASNs — Venezuela's incumbent
/// CANTV-AS8048, its competitor Telefónica de Venezuela AS6306, and the
/// transit providers that abandoned CANTV after 2013. Those appear as
/// associated constants in [`well_known`].
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

/// The ASNs the paper's analysis is keyed on.
pub mod well_known {
    use super::Asn;

    /// CANTV Servicios, Venezuela's state-owned incumbent (§4).
    pub const CANTV: Asn = Asn(8048);
    /// Telefónica de Venezuela / Movistar, the incumbent's closest peer (§4).
    pub const TELEFONICA_VE: Asn = Asn(6306);
    /// Telecomunicaciones MOVILNET, the state-owned mobile carrier (App. A).
    pub const MOVILNET: Asn = Asn(27889);
    /// Corporación Telemic (Inter), largest private competitor (App. A).
    pub const TELEMIC: Asn = Asn(21826);

    /// Verizon — left CANTV in 2013 (Fig. 9).
    pub const VERIZON: Asn = Asn(701);
    /// Sprint — left CANTV in 2013 (Fig. 9).
    pub const SPRINT: Asn = Asn(1239);
    /// AT&T — left CANTV in 2013 (Fig. 9).
    pub const ATT: Asn = Asn(7018);
    /// Arelion (ex-Telia) — stopped serving CANTV (Fig. 9).
    pub const ARELION: Asn = Asn(1299);
    /// GTT backbone (Fig. 9) — left in 2017.
    pub const GTT: Asn = Asn(3257);
    /// GTT's second ASN (ex-nLayer), left in 2017 (Fig. 9).
    pub const GTT_4436: Asn = Asn(4436);
    /// Level3 / Lumen / Cirion — left in 2018 (Fig. 9).
    pub const LEVEL3: Asn = Asn(3356);
    /// Level3's second backbone ASN (Fig. 9).
    pub const LEVEL3_3549: Asn = Asn(3549);
    /// NTT (Fig. 9 roster).
    pub const NTT: Asn = Asn(4004);
    /// Orange/OpenTransit — Americas-II partner that returned (§6.1).
    pub const ORANGE: Asn = Asn(5511);
    /// Telecom Italia Sparkle — longstanding CANTV partner via SAC (§6.1).
    pub const TELECOM_ITALIA: Asn = Asn(6762);
    /// Hurricane Electric-style transit in the Fig. 9 roster.
    pub const TATA: Asn = Asn(12956);
    /// Cogent-style roster entry used in Fig. 9.
    pub const COGENT_LIKE: Asn = Asn(19962);
    /// Columbus Networks — the sole remaining US-based transit (§6.1).
    pub const COLUMBUS: Asn = Asn(23520);
    /// Gold Data — recent addition to CANTV's transit mix (§6.1).
    pub const GOLD_DATA: Asn = Asn(28007);
    /// V.tal (ex-Brasil Telecom) — GlobeNet operator serving CANTV (§6.1).
    pub const VTAL: Asn = Asn(52320);
    /// Regional roster entry completing the Fig. 9 provider set.
    pub const REGIONAL_262589: Asn = Asn(262589);
    /// Telxius, Telefónica's backbone unit (§6.1).
    pub const TELXIUS: Asn = Asn(12956);

    /// Costa Rica's state-owned ICE, the §5.1 counter-example.
    pub const ICE_CR: Asn = Asn(11830);
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

    #[test]
    fn well_known_cast() {
        assert_eq!(well_known::CANTV.to_string(), "AS8048");
        assert_eq!(well_known::TELEFONICA_VE.to_string(), "AS6306");
        assert_eq!(well_known::COLUMBUS.to_string(), "AS23520");
    }
}
