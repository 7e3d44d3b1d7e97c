//! Property tests pinning the one-pass JSON decoders of the four JSON
//! datasets to the tree decode they replaced.
//!
//! `reference` below is the decode as it was before the pull parser: a
//! recursive parser builds the whole [`Json`] tree, then each type looks
//! its fields up in the tree by name. It lives only here, as the oracle the
//! pull decoders must match exactly — the same value or the same error —
//! on valid dumps, on reshaped and mistyped documents, and on bit flips,
//! truncations and random bytes. [`Json::parse`] is held to the reference
//! tree parser on the same inputs.

#![cfg(test)]

use lacnet_offnets::{CertScan, ScanRecord, TlsCert};
use lacnet_peeringdb::{Facility, Ix, NetFac, NetIxLan, Network, Snapshot};
use lacnet_telegeo::{Cable, CableMap, LandingPoint};
use lacnet_types::json::{self, FromJson, Json, ToJson};
use lacnet_types::rng::Rng;
use lacnet_types::{country, Asn, CountryCode, Date, GeoPoint, MonthStamp};
use lacnet_webmeas::scrape::Provider;
use lacnet_webmeas::{CountryTopSites, SiteObservation};
use proptest::prelude::*;
use std::fmt::Debug;

mod reference {
    use super::*;
    use lacnet_types::{Error, Result};

    /// Parse the whole text into a tree.
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::parse("end of JSON input", text));
        }
        Ok(value)
    }

    /// Parse, then decode the tree.
    pub fn from_str<T: TreeDecode>(text: &str) -> Result<T> {
        T::decode(&parse(text)?)
    }

    /// Decoding from a value tree.
    pub trait TreeDecode: Sized {
        fn decode(v: &Json) -> Result<Self>;
    }

    /// Member `key` of an object; a missing member decodes as `null`.
    fn field<T: TreeDecode>(v: &Json, key: &str) -> Result<T> {
        match v.get(key) {
            Some(v) => T::decode(v),
            None => T::decode(&Json::Null).map_err(|_| Error::missing("JSON object member", key)),
        }
    }

    macro_rules! tree_int {
        ($($ty:ty),*) => {
            $(
                impl TreeDecode for $ty {
                    fn decode(v: &Json) -> Result<Self> {
                        let n = v.as_f64().ok_or_else(|| Error::invalid("expected JSON number"))?;
                        if n.fract() != 0.0 || n < <$ty>::MIN as f64 || n > <$ty>::MAX as f64 {
                            return Err(Error::invalid(concat!("number out of range for ", stringify!($ty))));
                        }
                        Ok(n as $ty)
                    }
                }
            )*
        };
    }

    tree_int!(u32, i32);

    impl TreeDecode for f64 {
        fn decode(v: &Json) -> Result<Self> {
            v.as_f64()
                .ok_or_else(|| Error::invalid("expected JSON number"))
        }
    }

    impl TreeDecode for bool {
        fn decode(v: &Json) -> Result<Self> {
            v.as_bool()
                .ok_or_else(|| Error::invalid("expected JSON boolean"))
        }
    }

    impl TreeDecode for String {
        fn decode(v: &Json) -> Result<Self> {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| Error::invalid("expected JSON string"))
        }
    }

    impl<T: TreeDecode> TreeDecode for Option<T> {
        fn decode(v: &Json) -> Result<Self> {
            match v {
                Json::Null => Ok(None),
                other => T::decode(other).map(Some),
            }
        }
    }

    impl<T: TreeDecode> TreeDecode for Vec<T> {
        fn decode(v: &Json) -> Result<Self> {
            v.as_array()
                .ok_or_else(|| Error::invalid("expected JSON array"))?
                .iter()
                .map(T::decode)
                .collect()
        }
    }

    impl TreeDecode for Asn {
        fn decode(v: &Json) -> Result<Self> {
            u32::decode(v).map(Asn)
        }
    }

    impl TreeDecode for CountryCode {
        fn decode(v: &Json) -> Result<Self> {
            v.as_str()
                .ok_or_else(|| Error::invalid("expected country code string"))?
                .parse()
        }
    }

    impl TreeDecode for MonthStamp {
        fn decode(v: &Json) -> Result<Self> {
            i32::decode(v).map(MonthStamp::from_index)
        }
    }

    impl TreeDecode for Date {
        fn decode(v: &Json) -> Result<Self> {
            v.as_str()
                .ok_or_else(|| Error::invalid("expected YYYY-MM-DD string"))?
                .parse()
        }
    }

    impl TreeDecode for GeoPoint {
        fn decode(v: &Json) -> Result<Self> {
            Ok(GeoPoint::new(field(v, "lat_deg")?, field(v, "lon_deg")?))
        }
    }

    macro_rules! tree_struct {
        ($ty:ty { $($field:ident),+ $(,)? }) => {
            impl TreeDecode for $ty {
                fn decode(v: &Json) -> Result<Self> {
                    Ok(Self {
                        $( $field: field(v, stringify!($field))?, )+
                    })
                }
            }
        };
    }

    tree_struct!(Network {
        id,
        asn,
        name,
        info_type
    });
    tree_struct!(Facility {
        id,
        name,
        city,
        country
    });
    tree_struct!(Ix {
        id,
        name,
        city,
        country
    });
    tree_struct!(NetFac { net_id, fac_id });
    tree_struct!(NetIxLan {
        net_id,
        ix_id,
        speed
    });
    tree_struct!(LandingPoint {
        city,
        country,
        location
    });
    tree_struct!(Cable {
        name,
        rfs,
        landings,
        length_km,
        failure
    });

    impl TreeDecode for Cables {
        fn decode(v: &Json) -> Result<Self> {
            field(v, "cables").map(Cables)
        }
    }
    tree_struct!(TlsCert {
        subject_cn,
        dns_names
    });
    tree_struct!(ScanRecord { asn, country, cert });
    tree_struct!(CertScan { month, records });
    tree_struct!(Provider { name, third_party });
    tree_struct!(SiteObservation {
        domain,
        https,
        dns_provider,
        ca,
        cdn
    });
    tree_struct!(CountryTopSites { country, sites });

    /// A table out of its `{"data": [...]}` envelope.
    fn unwrap_envelope<T: TreeDecode>(v: &Json, table: &str) -> Result<Vec<T>> {
        match v.get(table) {
            Some(wrapped) => field(wrapped, "data"),
            None => Err(Error::missing("PeeringDB dump table", table)),
        }
    }

    impl TreeDecode for Snapshot {
        fn decode(v: &Json) -> Result<Self> {
            Ok(Snapshot {
                net: unwrap_envelope(v, "net")?,
                fac: unwrap_envelope(v, "fac")?,
                ix: unwrap_envelope(v, "ix")?,
                netfac: unwrap_envelope(v, "netfac")?,
                netixlan: unwrap_envelope(v, "netixlan")?,
            })
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while let Some(b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<()> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err("JSON syntax"))
            }
        }

        fn err(&self, expected: &'static str) -> Error {
            let tail = &self.bytes[self.pos.min(self.bytes.len())..];
            let tail = &tail[..tail.len().min(40)];
            Error::parse(expected, &String::from_utf8_lossy(tail))
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err("JSON literal"))
            }
        }

        fn value(&mut self) -> Result<Json> {
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-') | Some(b'0'..=b'9') => self.number(),
                _ => Err(self.err("JSON value")),
            }
        }

        fn array(&mut self) -> Result<Json> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("',' or ']'")),
                }
            }
        }

        fn object(&mut self) -> Result<Json> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                pairs.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(self.err("',' or '}'")),
                }
            }
        }

        fn string(&mut self) -> Result<String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::invalid("JSON string is not UTF-8"))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let first = self.unicode_escape()?;
                                let c = if (0xD800..0xDC00).contains(&first) {
                                    // Surrogate pair: expect a low surrogate.
                                    if self.bytes[self.pos + 1..].first() != Some(&b'\\')
                                        || self.bytes.get(self.pos + 2) != Some(&b'u')
                                    {
                                        return Err(self.err("low surrogate"));
                                    }
                                    self.pos += 2;
                                    let second = self.unicode_escape()?;
                                    let joined = 0x10000
                                        + ((first - 0xD800) << 10)
                                        + (second.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(joined)
                                } else {
                                    char::from_u32(first)
                                };
                                out.push(c.ok_or_else(|| self.err("valid unicode escape"))?);
                            }
                            _ => return Err(self.err("string escape")),
                        }
                        self.pos += 1;
                    }
                    _ => return Err(self.err("closing '\"'")),
                }
            }
        }

        /// Reads the 4 hex digits after `\u` (cursor on `u`); leaves the
        /// cursor on the final digit so the caller's `pos += 1` pattern holds.
        fn unicode_escape(&mut self) -> Result<u32> {
            let hex = self
                .bytes
                .get(self.pos + 1..self.pos + 5)
                .ok_or_else(|| self.err("4-digit unicode escape"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| self.err("hex digits"))?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("hex digits"))?;
            self.pos += 4;
            Ok(code)
        }

        fn number(&mut self) -> Result<Json> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("number"))?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("number"))
        }
    }
}

/// A cable map's cables: [`CableMap`] keeps its field to itself.
#[derive(Debug, PartialEq)]
struct Cables(Vec<Cable>);

impl FromJson for Cables {
    fn read_json(p: &mut json::Parser<'_>) -> lacnet_types::Result<Self> {
        CableMap::read_json(p).map(|map| Cables(map.cables().to_vec()))
    }
}

/// Both decoders, and both tree parsers, agree on `text` exactly.
fn agree<T>(text: &str)
where
    T: FromJson + reference::TreeDecode + PartialEq + Debug,
{
    assert_eq!(
        json::from_str::<T>(text),
        reference::from_str::<T>(text),
        "{text:?}"
    );
    assert_eq!(Json::parse(text), reference::parse(text), "{text:?}");
}

/// Strings that exercise the escapes, control characters and multi-byte
/// UTF-8 a dump may carry.
fn text(rng: &mut Rng) -> String {
    const PARTS: &[&str] = &[
        "CANTV",
        "Telefónica",
        "Caracas",
        "say \"hola\"",
        "back\\slash",
        "line\nbreak",
        "tab\tstop",
        "\u{1}ctl\u{1f}",
        "🌎",
        "a/b",
        "",
    ];
    (0..rng.below(3))
        .map(|_| PARTS[rng.below(PARTS.len() as u64) as usize])
        .collect()
}

fn code(rng: &mut Rng) -> CountryCode {
    let codes: Vec<CountryCode> = country::lacnic_codes().collect();
    codes[rng.below(codes.len() as u64) as usize]
}

fn id(rng: &mut Rng) -> u32 {
    rng.below(1 << 20) as u32
}

fn date(rng: &mut Rng) -> Date {
    Date::ymd(
        1990 + rng.below(40) as i32,
        1 + rng.below(12) as u8,
        1 + rng.below(28) as u8,
    )
}

fn rows<T>(rng: &mut Rng, max: u64, mut row: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    (0..rng.below(max + 1)).map(|_| row(rng)).collect()
}

fn snapshot(rng: &mut Rng) -> Snapshot {
    Snapshot {
        net: rows(rng, 4, |rng| Network {
            id: id(rng),
            asn: Asn(rng.next_u64() as u32),
            name: text(rng),
            info_type: text(rng),
        }),
        fac: rows(rng, 4, |rng| Facility {
            id: id(rng),
            name: text(rng),
            city: text(rng),
            country: code(rng),
        }),
        ix: rows(rng, 3, |rng| Ix {
            id: id(rng),
            name: text(rng),
            city: text(rng),
            country: code(rng),
        }),
        netfac: rows(rng, 4, |rng| NetFac {
            net_id: id(rng),
            fac_id: id(rng),
        }),
        netixlan: rows(rng, 4, |rng| NetIxLan {
            net_id: id(rng),
            ix_id: id(rng),
            speed: rng.next_u64() as u32,
        }),
    }
}

/// The cable map's cables and the map's JSON tree.
fn cable_map(rng: &mut Rng) -> (Vec<Cable>, Json) {
    let cables = rows(rng, 4, |rng| Cable {
        name: text(rng),
        rfs: date(rng),
        landings: rows(rng, 3, |rng| LandingPoint {
            city: text(rng),
            country: code(rng),
            location: GeoPoint::new(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)),
        }),
        length_km: rng.uniform(0.0, 40_000.0),
        failure: rng.chance(0.3).then(|| date(rng)),
    });
    let tree = Json::Obj(vec![("cables".into(), cables.to_json_value())]);
    (cables, tree)
}

fn cert_scan(rng: &mut Rng) -> CertScan {
    CertScan {
        month: MonthStamp::from_index(rng.below(600) as i32 - 100),
        records: rows(rng, 4, |rng| ScanRecord {
            asn: Asn(rng.next_u64() as u32),
            country: code(rng),
            cert: TlsCert {
                subject_cn: text(rng),
                dns_names: rows(rng, 3, text),
            },
        }),
    }
}

fn top_sites(rng: &mut Rng) -> CountryTopSites {
    let provider = |rng: &mut Rng| Provider {
        name: text(rng),
        third_party: rng.chance(0.5),
    };
    CountryTopSites {
        country: code(rng),
        sites: rows(rng, 4, |rng| SiteObservation {
            domain: text(rng),
            https: rng.chance(0.5),
            dns_provider: provider(rng),
            ca: provider(rng),
            cdn: rng.chance(0.5).then(|| provider(rng)),
        }),
    }
}

/// A dataset's value tree and the agreement check for its type.
type Dataset = (Json, fn(&str));

/// One random instance of each JSON dataset.
fn datasets(rng: &mut Rng) -> [Dataset; 4] {
    [
        (snapshot(rng).to_json_value(), agree::<Snapshot>),
        (cable_map(rng).1, agree::<Cables>),
        (cert_scan(rng).to_json_value(), agree::<CertScan>),
        (top_sites(rng).to_json_value(), agree::<CountryTopSites>),
    ]
}

/// Serialise `v` with random whitespace around every token.
fn spaced(v: &Json, rng: &mut Rng, out: &mut String) {
    const WS: &[&str] = &["", " ", "\t", "\n", "\r\n", "  "];
    let ws =
        |rng: &mut Rng, out: &mut String| out.push_str(WS[rng.below(WS.len() as u64) as usize]);
    ws(rng, out);
    match v {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spaced(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&Json::Str(k.clone()).to_text());
                ws(rng, out);
                out.push(':');
                spaced(item, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_text()),
    }
    ws(rng, out);
}

/// A random value of any JSON type.
fn any_value(rng: &mut Rng) -> Json {
    match rng.below(7) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Num(rng.below(1 << 40) as f64 - 1e3),
        3 => Json::Num(rng.uniform(-1e6, 1e6)),
        4 => Json::Str(text(rng)),
        5 => Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]),
        _ => Json::Obj(vec![("data".into(), Json::Arr(Vec::new()))]),
    }
}

/// Reshape the `k`-th node (pre-order) of `v`: reorder, duplicate, drop or
/// add an object member, or swap the node for a value of any type.
fn reshape(v: &mut Json, k: &mut u64, rng: &mut Rng) -> bool {
    if *k == 0 {
        match (v, rng.below(5)) {
            (Json::Obj(pairs), 0) if pairs.len() > 1 => {
                let i = rng.below(pairs.len() as u64) as usize;
                let last = pairs.len() - 1;
                pairs.swap(i, last);
            }
            (Json::Obj(pairs), 1) if !pairs.is_empty() => {
                let i = rng.below(pairs.len() as u64) as usize;
                let (key, _) = pairs[i].clone();
                let at = rng.below(pairs.len() as u64 + 1) as usize;
                pairs.insert(at, (key, any_value(rng)));
            }
            (Json::Obj(pairs), 2) if !pairs.is_empty() => {
                pairs.remove(rng.below(pairs.len() as u64) as usize);
            }
            (Json::Obj(pairs), 3) => pairs.push(("extra".into(), any_value(rng))),
            (node, _) => *node = any_value(rng),
        }
        return true;
    }
    *k -= 1;
    match v {
        Json::Arr(items) => items.iter_mut().any(|item| reshape(item, k, rng)),
        Json::Obj(pairs) => pairs.iter_mut().any(|(_, item)| reshape(item, k, rng)),
        _ => false,
    }
}

fn node_count(v: &Json) -> u64 {
    1 + match v {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(pairs) => pairs.iter().map(|(_, item)| node_count(item)).sum(),
        _ => 0,
    }
}

/// `bytes` as text, invalid UTF-8 replaced: the parsers take `&str`.
fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_dumps_decode_to_the_values_they_were_written_from(seed in any::<u64>()) {
        let mut rng = Rng::seeded(seed);
        let snap = snapshot(&mut rng);
        prop_assert_eq!(Snapshot::from_json(&snap.to_json()), Ok(snap));
        let (cables, tree) = cable_map(&mut rng);
        let map = CableMap::from_json(&tree.to_text()).expect("cable map parses");
        prop_assert_eq!(map.cables(), &cables[..]);
        let scan = cert_scan(&mut rng);
        prop_assert_eq!(CertScan::from_json(&scan.to_json()), Ok(scan));
        let sites = top_sites(&mut rng);
        prop_assert_eq!(CountryTopSites::from_json(&sites.to_json()), Ok(sites));
        for (tree, agree) in datasets(&mut rng) {
            agree(&tree.to_text());
            let mut text = String::new();
            spaced(&tree, &mut rng, &mut text);
            agree(&text);
        }
    }

    #[test]
    fn reshaped_and_mistyped_documents_decode_like_the_tree(seed in any::<u64>()) {
        let mut rng = Rng::seeded(seed);
        for (mut tree, agree) in datasets(&mut rng) {
            for _ in 0..1 + rng.below(3) {
                let mut k = rng.below(node_count(&tree));
                reshape(&mut tree, &mut k, &mut rng);
            }
            agree(&tree.to_text());
            let mut text = String::new();
            spaced(&tree, &mut rng, &mut text);
            agree(&text);
        }
    }

    #[test]
    fn corrupted_bytes_fail_like_the_tree(seed in any::<u64>()) {
        let mut rng = Rng::seeded(seed);
        for (tree, agree) in datasets(&mut rng) {
            let text = tree.to_text();
            let bytes = text.as_bytes();
            // Bit flips.
            let mut flipped = bytes.to_vec();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(flipped.len() as u64) as usize;
                flipped[i] ^= 1 << rng.below(8);
            }
            agree(&lossy(&flipped));
            // A truncated compact document is never whole.
            let cut = lossy(&bytes[..rng.below(bytes.len() as u64) as usize]);
            agree(&cut);
            prop_assert!(Json::parse(&cut).is_err(), "{cut:?}");
            // A stray JSON byte spliced in.
            const STRAY: &[u8] = b"{}[],:\"\\ -0e.tnf";
            let mut spliced = bytes.to_vec();
            let at = rng.below(spliced.len() as u64 + 1) as usize;
            spliced.insert(at, STRAY[rng.below(STRAY.len() as u64) as usize]);
            agree(&lossy(&spliced));
        }
    }

    #[test]
    fn random_bytes_fail_like_the_tree(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        tokens in proptest::collection::vec(0usize..12, 0..24),
    ) {
        let garbage = lossy(&bytes);
        agree::<Snapshot>(&garbage);
        agree::<CountryTopSites>(&garbage);
        // Token soup: mostly well-formed pieces in random order.
        const PIECES: &[&str] =
            &["{", "}", "[", "]", ",", ":", "\"data\"", "\"net\"", "1", "null", "\"\\u00e9\"", " "];
        let soup: String = tokens.iter().map(|&t| PIECES[t]).collect();
        agree::<Snapshot>(&soup);
        agree::<Cables>(&soup);
        agree::<CertScan>(&soup);
        agree::<CountryTopSites>(&soup);
    }
}
