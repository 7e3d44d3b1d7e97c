//! CHAOS TXT instance-identity grammars, one per root letter.
//!
//! Root operators answer `CH TXT hostname.bind` with an instance identity
//! that usually embeds an airport code — but every operator uses its own
//! naming scheme, and some changed schemes over time (the paper observes
//! both `ccs01.l.root-servers.org` and `aa.ve-mai.l.root` for L). The
//! study "developed regular expressions to extract these codes from each
//! of the 13 different types of responses"; this module is that decoder,
//! written as hand-rolled grammars (no regex crate), plus the matching
//! encoder the generator uses.

use crate::roots::{RootInstance, RootLetter};
use lacnet_types::{geo, CountryCode, Error, Result};

/// A decoded instance identity: which site (airport code) and unit the
/// response names, plus a country hint when the scheme embeds one
/// (K-root and new-style L-root do).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRef {
    /// The letter the response belongs to.
    pub letter: RootLetter,
    /// Lowercase site code, e.g. `"ccs"`.
    pub site: String,
    /// Unit number at the site, when the scheme encodes one.
    pub unit: Option<u8>,
    /// Country embedded in the identity itself, if any.
    pub country_hint: Option<CountryCode>,
}

impl SiteRef {
    /// Resolve the hosting country: an embedded hint wins; otherwise the
    /// site code is looked up in the airport registry.
    pub fn country(&self) -> Option<CountryCode> {
        if let Some(cc) = self.country_hint {
            return Some(cc);
        }
        geo::airport(&self.site).and_then(|a| CountryCode::new(a.country).ok())
    }

    /// Unique replica key `letter/site/unit` (unit 1 when unspecified),
    /// aligned with [`RootInstance::identity`].
    pub fn identity(&self) -> String {
        format!("{}/{}/{}", self.letter, self.site, self.unit.unwrap_or(1))
    }
}

/// The month index before which L-root used its legacy naming scheme.
/// The generator switches new L instances to the `aa.<cc>-<site>.l.root`
/// style from 2019 onward, mirroring the two styles the paper saw.
const L_NEW_STYLE_FROM_YEAR: i32 = 2019;

/// Render the CHAOS TXT identity string for an instance, in the letter's
/// naming scheme.
pub fn encode(instance: &RootInstance) -> String {
    let site = instance.site.as_str();
    let unit = instance.unit;
    let cc = instance.country.as_str().to_ascii_lowercase();
    match instance.letter {
        RootLetter::A => format!("nnn1-{site}{unit}"),
        RootLetter::B => format!("b{unit}-{site}"),
        RootLetter::C => format!("{site}{unit}b.c.root-servers.org"),
        RootLetter::D => format!("dns{unit}.{site}.d.root-servers.net"),
        RootLetter::E => format!("e{unit}.{site}.eroot"),
        RootLetter::F => format!("{site}{unit}a.f.root-servers.org"),
        RootLetter::G => format!("groot-{site}-{unit}"),
        RootLetter::H => format!("h{unit}-{site}"),
        RootLetter::I => format!("s{unit}.{site}"),
        RootLetter::J => format!("rootns-{site}{unit}"),
        RootLetter::K => format!("ns{unit}.{cc}-{site}.k.ripe.net"),
        RootLetter::L => {
            if instance.active_since.year() >= L_NEW_STYLE_FROM_YEAR {
                format!("aa.{cc}-{site}.l.root")
            } else {
                format!("{site}{unit:02}.l.root-servers.org")
            }
        }
        RootLetter::M => format!("M-{site}-{unit}"),
    }
}

fn err(txt: &str) -> Error {
    Error::parse("CHAOS TXT instance identity", txt)
}

/// Split a trailing decimal unit off a token: `"ccs12"` → `("ccs", 12)`.
fn split_trailing_unit(token: &str) -> Option<(&str, u8)> {
    let digits = token
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit())
        .count();
    if digits == 0 || digits == token.len() {
        return None;
    }
    let (site, num) = token.split_at(token.len() - digits);
    num.parse::<u8>().ok().map(|u| (site, u))
}

fn valid_site(s: &str) -> bool {
    (2..=4).contains(&s.len()) && s.chars().all(|c| c.is_ascii_lowercase())
}

/// Parse `<cc>-<site>` (as in `ve-mai`), returning the hint and site.
fn parse_cc_site(token: &str) -> Result<(CountryCode, String)> {
    let (cc, site) = token.split_once('-').ok_or_else(|| err(token))?;
    let cc = CountryCode::new(cc).map_err(|_| err(token))?;
    if !valid_site(site) {
        return Err(err(token));
    }
    Ok((cc, site.to_owned()))
}

/// Decode a CHAOS TXT response for the given letter back into a
/// [`SiteRef`]. Unknown shapes yield a parse error — the campaign treats
/// those as unmappable responses, exactly as the paper's pipeline drops
/// strings its regexes cannot match.
pub fn decode(letter: RootLetter, txt: &str) -> Result<SiteRef> {
    let txt = txt.trim();
    let mk = |site: &str, unit: Option<u8>, hint: Option<CountryCode>| SiteRef {
        letter,
        site: site.to_owned(),
        unit,
        country_hint: hint,
    };
    match letter {
        RootLetter::A => {
            // nnn1-<site><unit>
            let rest = txt.strip_prefix("nnn1-").ok_or_else(|| err(txt))?;
            let (site, unit) = split_trailing_unit(rest).ok_or_else(|| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::B => {
            // b<unit>-<site>
            let rest = txt.strip_prefix('b').ok_or_else(|| err(txt))?;
            let (unit, site) = rest.split_once('-').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::C => {
            // <site><unit>b.c.root-servers.org
            let rest = txt
                .strip_suffix("b.c.root-servers.org")
                .ok_or_else(|| err(txt))?;
            let (site, unit) = split_trailing_unit(rest).ok_or_else(|| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::D => {
            // dns<unit>.<site>.d.root-servers.net
            let rest = txt.strip_prefix("dns").ok_or_else(|| err(txt))?;
            let rest = rest
                .strip_suffix(".d.root-servers.net")
                .ok_or_else(|| err(txt))?;
            let (unit, site) = rest.split_once('.').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::E => {
            // e<unit>.<site>.eroot
            let rest = txt.strip_prefix('e').ok_or_else(|| err(txt))?;
            let rest = rest.strip_suffix(".eroot").ok_or_else(|| err(txt))?;
            let (unit, site) = rest.split_once('.').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::F => {
            // <site><unit>a.f.root-servers.org
            let rest = txt
                .strip_suffix("a.f.root-servers.org")
                .ok_or_else(|| err(txt))?;
            let (site, unit) = split_trailing_unit(rest).ok_or_else(|| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::G => {
            // groot-<site>-<unit>
            let rest = txt.strip_prefix("groot-").ok_or_else(|| err(txt))?;
            let (site, unit) = rest.split_once('-').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::H => {
            // h<unit>-<site>
            let rest = txt.strip_prefix('h').ok_or_else(|| err(txt))?;
            let (unit, site) = rest.split_once('-').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::I => {
            // s<unit>.<site>
            let rest = txt.strip_prefix('s').ok_or_else(|| err(txt))?;
            let (unit, site) = rest.split_once('.').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::J => {
            // rootns-<site><unit>
            let rest = txt.strip_prefix("rootns-").ok_or_else(|| err(txt))?;
            let (site, unit) = split_trailing_unit(rest).ok_or_else(|| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
        RootLetter::K => {
            // ns<unit>.<cc>-<site>.k.ripe.net
            let rest = txt.strip_prefix("ns").ok_or_else(|| err(txt))?;
            let rest = rest.strip_suffix(".k.ripe.net").ok_or_else(|| err(txt))?;
            let (unit, ccsite) = rest.split_once('.').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            let (cc, site) = parse_cc_site(ccsite)?;
            Ok(mk(&site, Some(unit), Some(cc)))
        }
        RootLetter::L => {
            if let Some(rest) = txt.strip_prefix("aa.") {
                // aa.<cc>-<site>.l.root
                let rest = rest.strip_suffix(".l.root").ok_or_else(|| err(txt))?;
                let (cc, site) = parse_cc_site(rest)?;
                Ok(mk(&site, None, Some(cc)))
            } else {
                // <site><unit:02>.l.root-servers.org
                let rest = txt
                    .strip_suffix(".l.root-servers.org")
                    .ok_or_else(|| err(txt))?;
                let (site, unit) = split_trailing_unit(rest).ok_or_else(|| err(txt))?;
                if !valid_site(site) {
                    return Err(err(txt));
                }
                Ok(mk(site, Some(unit), None))
            }
        }
        RootLetter::M => {
            // M-<site>-<unit>
            let rest = txt.strip_prefix("M-").ok_or_else(|| err(txt))?;
            let (site, unit) = rest.split_once('-').ok_or_else(|| err(txt))?;
            let unit: u8 = unit.parse().map_err(|_| err(txt))?;
            if !valid_site(site) {
                return Err(err(txt));
            }
            Ok(mk(site, Some(unit), None))
        }
    }
}

/// A fully resolved CHAOS payload, as the batch decoder serves it: the
/// site reference plus its precomputed geolocation and identity string,
/// so per-probe consumers do no further allocation or airport lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSite {
    /// The decoded site reference.
    pub site: SiteRef,
    /// `site.country()`, resolved once per distinct payload.
    pub country: Option<CountryCode>,
    /// `site.identity()`, rendered once per distinct payload.
    pub identity: String,
}

/// Memoizing batch decoder over CHAOS payloads.
///
/// A monthly round carries thousands of observations but only as many
/// *distinct* `(letter, txt)` payloads as there are active root
/// instances, so decoding (grammar walk, airport lookup, identity
/// rendering) per probe is pure waste. The decoder runs the full decode
/// pipeline once per distinct payload within a batch and serves every
/// repeat from the memo; undecodable payloads memoize as `None`.
#[derive(Debug, Default)]
pub struct BatchDecoder<'a> {
    memo: std::collections::BTreeMap<(RootLetter, &'a str), Option<DecodedSite>>,
}

impl<'a> BatchDecoder<'a> {
    /// An empty decoder; the memo lives as long as the batch it borrows
    /// payloads from.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode `(letter, txt)`, serving repeats from the memo. `None`
    /// means the payload is unmappable (decode failure).
    pub fn decode(&mut self, letter: RootLetter, txt: &'a str) -> Option<&DecodedSite> {
        self.memo
            .entry((letter, txt))
            .or_insert_with(|| {
                decode(letter, txt).ok().map(|site| DecodedSite {
                    country: site.country(),
                    identity: site.identity(),
                    site,
                })
            })
            .as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::{country, GeoPoint, MonthStamp};

    fn instance(
        letter: RootLetter,
        site: &str,
        unit: u8,
        cc: CountryCode,
        year: i32,
    ) -> RootInstance {
        RootInstance {
            letter,
            site: site.into(),
            unit,
            country: cc,
            location: GeoPoint::new(0.0, 0.0),
            active_since: MonthStamp::new(year, 1),
            active_until: None,
            global: false,
        }
    }

    #[test]
    fn paper_quoted_strings_decode() {
        // §5.4 quotes three concrete identities.
        let l_old = decode(RootLetter::L, "ccs01.l.root-servers.org").unwrap();
        assert_eq!(l_old.site, "ccs");
        assert_eq!(l_old.unit, Some(1));
        assert_eq!(l_old.country(), Some(country::VE));

        let f = decode(RootLetter::F, "ccs1a.f.root-servers.org").unwrap();
        assert_eq!(f.site, "ccs");
        assert_eq!(f.country(), Some(country::VE));

        let l_new = decode(RootLetter::L, "aa.ve-mai.l.root").unwrap();
        assert_eq!(l_new.site, "mai");
        assert_eq!(l_new.country_hint, Some(country::VE));
        assert_eq!(
            l_new.country(),
            Some(country::VE),
            "hint beats airport table"
        );
    }

    #[test]
    fn encode_decode_roundtrip_all_letters() {
        for letter in RootLetter::ALL {
            for (site, cc) in [
                ("ccs", country::VE),
                ("bog", country::CO),
                ("gru", country::BR),
            ] {
                for year in [2016, 2021] {
                    let inst = instance(letter, site, 2, cc, year);
                    let txt = encode(&inst);
                    let decoded = decode(letter, &txt)
                        .unwrap_or_else(|e| panic!("letter {letter} txt {txt}: {e}"));
                    assert_eq!(decoded.site, site, "letter {letter} txt {txt}");
                    // Letters with embedded country hints must resolve to
                    // the instance's own country even for odd sites.
                    assert_eq!(decoded.country(), Some(cc), "letter {letter} txt {txt}");
                }
            }
        }
    }

    #[test]
    fn l_root_era_switch() {
        let old = instance(RootLetter::L, "ccs", 1, country::VE, 2016);
        assert_eq!(encode(&old), "ccs01.l.root-servers.org");
        let new = instance(RootLetter::L, "mai", 1, country::VE, 2019);
        assert_eq!(encode(&new), "aa.ve-mai.l.root");
    }

    #[test]
    fn unit_numbers_preserved() {
        let inst = instance(RootLetter::C, "mia", 3, country::US, 2016);
        let txt = encode(&inst);
        assert_eq!(txt, "mia3b.c.root-servers.org");
        assert_eq!(decode(RootLetter::C, &txt).unwrap().unit, Some(3));
        assert_eq!(decode(RootLetter::C, &txt).unwrap().identity(), "c/mia/3");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for letter in RootLetter::ALL {
            assert!(decode(letter, "").is_err(), "{letter}: empty");
            assert!(
                decode(letter, "completely-unrelated-string-1234").is_err(),
                "{letter}"
            );
            assert!(decode(letter, "...").is_err(), "{letter}");
        }
        // Wrong-letter shapes must not decode.
        assert!(decode(RootLetter::F, "ccs01.l.root-servers.org").is_err());
    }

    #[test]
    fn batch_decoder_memoizes_distinct_payloads() {
        let mut batch = BatchDecoder::new();
        let txt = "ccs01.l.root-servers.org";
        let first = batch.decode(RootLetter::L, txt).unwrap().clone();
        let reference = decode(RootLetter::L, txt).unwrap();
        assert_eq!(first.site, reference);
        assert_eq!(first.country, reference.country());
        assert_eq!(first.identity, reference.identity());
        // Repeats and failures are served from the memo.
        for _ in 0..10 {
            assert_eq!(batch.decode(RootLetter::L, txt), Some(&first));
            assert!(batch.decode(RootLetter::L, "garbage").is_none());
        }
        assert_eq!(batch.memo.len(), 2, "one grammar walk per distinct payload");
        assert!(decode(RootLetter::L, "ccs1a.f.root-servers.org").is_err());
        // Bad country hint.
        assert!(decode(RootLetter::L, "aa.v1-mai.l.root").is_err());
        // Unit overflow.
        assert!(decode(RootLetter::B, "b25-ccs").is_ok());
        assert!(decode(RootLetter::B, "b99999-ccs").is_err());
    }

    #[test]
    fn unknown_site_resolves_to_no_country() {
        let r = decode(RootLetter::F, "xyz1a.f.root-servers.org").unwrap();
        assert_eq!(r.site, "xyz");
        assert_eq!(r.country(), None);
    }

    #[test]
    fn identity_matches_instance_identity() {
        let inst = instance(RootLetter::F, "ccs", 1, country::VE, 2016);
        let decoded = decode(RootLetter::F, &encode(&inst)).unwrap();
        assert_eq!(decoded.identity(), inst.identity());
    }
}
