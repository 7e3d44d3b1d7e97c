//! AS-to-organisation mapping (as2org+ style).
//!
//! §5.5: "We consider these eyeball populations at the organizational
//! level, using as2org+, to eliminate fluctuations in deployments across
//! networks belonging to the same organization." The mapping groups
//! sibling ASNs under one organisation id; an off-net detected in any
//! sibling credits the whole organisation's eyeballs.

use lacnet_types::Asn;
use std::collections::BTreeMap;

/// An organisation identifier.
pub type OrgId = u32;

/// The AS → organisation mapping.
#[derive(Debug, Clone, Default)]
pub struct AsOrgMap {
    asn_to_org: BTreeMap<Asn, OrgId>,
}

impl AsOrgMap {
    /// An empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assign an ASN to an organisation.
    pub fn assign(&mut self, asn: Asn, org: OrgId) {
        self.asn_to_org.insert(asn, org);
    }

    /// The organisation of `asn`. Unmapped ASNs are treated as singleton
    /// organisations keyed by their own ASN value (the as2org fallback).
    pub fn org_of(&self, asn: Asn) -> OrgId {
        self.asn_to_org.get(&asn).copied().unwrap_or(asn.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_and_fallback_orgs() {
        let mut map = AsOrgMap::new();
        map.assign(Asn(8048), 1);
        map.assign(Asn(27889), 1);
        assert_eq!(map.org_of(Asn(8048)), 1);
        assert_eq!(map.org_of(Asn(27889)), 1);
        // Unmapped: singleton org equal to the ASN.
        assert_eq!(map.org_of(Asn(21826)), 21826);
    }
}
