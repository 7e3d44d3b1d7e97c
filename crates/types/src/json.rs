//! Minimal self-contained JSON support.
//!
//! The workspace builds with no external dependencies, so the JSON-shaped
//! dataset formats (PeeringDB dumps, the cable map, cert scans, top-site
//! scrapes) serialise through this module instead of `serde_json`. Input and
//! output take different shapes:
//!
//! * **Input** is a borrowed pull [`Parser`]. A [`FromJson`] type reads
//!   itself straight off the text: strings come out as `&str` slices of the
//!   input (a `String` is built only for a value that holds an escape),
//!   numbers as `f64`, and [`impl_json_struct!`] matches object members by
//!   name in one pass. No value tree is built on the way.
//! * **Output** builds a [`Json`] value tree ([`ToJson`]) and writes it
//!   compactly. [`Json::parse`] reads text back into a tree for callers that
//!   walk arbitrary JSON; it is one more [`FromJson`] consumer of the same
//!   parser, so the crate has one tokenizer.
//!
//! [`from_str`] gives exactly what parsing the whole text into a tree and
//! then decoding the tree would give: a syntax error anywhere in the text
//! wins over a decode error, duplicate object members resolve to the first,
//! and of several decode errors in one object the first field in declaration
//! order is reported.
//!
//! Output is compact (no whitespace) and field order follows declaration
//! order, so serialisation is deterministic — a property the cross-crate
//! determinism tests rely on.

use crate::error::{Error, Result};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integral values print without a
    /// fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Pairs keep insertion order so output is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialise to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text. Trailing non-whitespace input is an error.
    pub fn parse(text: &str) -> Result<Json> {
        from_str(text)
    }
}

fn write_number(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A borrowed pull parser over JSON text, driven by [`FromJson`] readers.
///
/// Every method that reads a value reads exactly one. Its `Err` is a syntax
/// error, after which the parse cannot go on; a reader that finds a
/// well-formed value of the wrong type returns its decode error only after
/// consuming the whole value, so the enclosing array or object can keep
/// checking the rest of the text.
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Set by the first syntax error.
    broken: bool,
}

/// A scalar token. Strings borrow the input unless they hold an escape.
enum Scalar<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail("JSON syntax"))
        }
    }

    /// A syntax error at the cursor, echoing up to 40 bytes of what follows.
    fn fail(&mut self, expected: &'static str) -> Error {
        self.broken = true;
        let tail = &self.text.as_bytes()[self.pos.min(self.text.len())..];
        let tail = &tail[..tail.len().min(40)];
        Error::parse(expected, &String::from_utf8_lossy(tail))
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.fail("JSON literal"))
        }
    }

    /// The next value if it is a scalar; an array or object is left unread.
    fn scalar(&mut self) -> Result<Option<Scalar<'a>>> {
        Ok(Some(match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Scalar::Null)?,
            Some(b't') => self.literal("true").map(|()| Scalar::Bool(true))?,
            Some(b'f') => self.literal("false").map(|()| Scalar::Bool(false))?,
            Some(b'"') => Scalar::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Scalar::Num(self.number()?),
            Some(b'[' | b'{') => return Ok(None),
            _ => return Err(self.fail("JSON value")),
        }))
    }

    /// The next value if it is a scalar; an array or object is skipped.
    fn scalar_or_skip(&mut self) -> Result<Option<Scalar<'a>>> {
        match self.scalar()? {
            None => self.skip().map(|()| None),
            scalar => Ok(scalar),
        }
    }

    /// The next value if it is a string, else `None` with the value skipped.
    pub fn read_str(&mut self) -> Result<Option<Cow<'a, str>>> {
        Ok(match self.scalar_or_skip()? {
            Some(Scalar::Str(s)) => Some(s),
            _ => None,
        })
    }

    /// The next value if it is a number, else `None` with the value skipped.
    fn read_num(&mut self) -> Result<Option<f64>> {
        Ok(match self.scalar_or_skip()? {
            Some(Scalar::Num(n)) => Some(n),
            _ => None,
        })
    }

    /// Check the next value's syntax and step over it.
    pub fn skip(&mut self) -> Result<()> {
        match self.scalar()? {
            Some(_) => Ok(()),
            None if self.peek() == Some(b'[') => self.array(Self::skip).map(drop),
            None => self.object(|p, _| p.skip()).map(drop),
        }
    }

    /// Call `each` once per element of the next value, which reads it;
    /// `false` (with the value skipped) when the value is not an array.
    fn array(&mut self, mut each: impl FnMut(&mut Self) -> Result<()>) -> Result<bool> {
        if self.peek() != Some(b'[') {
            return self.skip().map(|()| false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(self.fail("',' or ']'")),
            }
        }
    }

    /// Call `member` once per member of the next value with the member's
    /// name; it reads the member's value (or [`Parser::skip`]s it). `false`
    /// (with the value skipped) when the value is not an object.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<()>,
    ) -> Result<bool> {
        if self.peek() != Some(b'{') {
            return self.skip().map(|()| false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(self.fail("',' or '}'")),
            }
        }
    }

    /// Read one `T`. The outer `Err` is a syntax error; the inner result is
    /// the decode, after which the value has been consumed either way.
    fn read<T: FromJson>(&mut self) -> Result<Result<T>> {
        match T::read_json(self) {
            Err(e) if self.broken => Err(e),
            value => Ok(value),
        }
    }

    /// Read an object member's value into `slot`, keeping its decode error
    /// for [`take`]. A member whose name already filled the slot is only
    /// checked and skipped: the first of duplicate names wins.
    pub fn member<T: FromJson>(&mut self, slot: &mut Option<Result<T>>) -> Result<()> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(self.read()?);
        Ok(())
    }

    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        // Built only once the string turns out to hold an escape.
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // `run` and `pos` both sit at ASCII bytes or the end, so the
            // slice falls on character boundaries.
            let chunk = &text[run..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(mut out) => {
                            out.push_str(chunk);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(chunk);
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
                                if bytes[self.pos + 1..].first() != Some(&b'\\')
                                    || bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(self.fail("low surrogate"));
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
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.fail("valid unicode escape")),
                            }
                        }
                        _ => return Err(self.fail("string escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.fail("closing '\"'")),
            }
        }
    }

    /// Reads the 4 hex digits after `\u` (cursor on `u`); leaves the
    /// cursor on the final digit so the caller's `pos += 1` pattern holds.
    fn unicode_escape(&mut self) -> Result<u32> {
        let Some(hex) = self.text.as_bytes().get(self.pos + 1..self.pos + 5) else {
            return Err(self.fail("4-digit unicode escape"));
        };
        let code = std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok());
        match code {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => Err(self.fail("hex digits")),
        }
    }

    fn number(&mut self) -> Result<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = self.text;
        text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.fail("number"))
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }
}

/// Conversion into a [`Json`] value tree.
pub trait ToJson {
    /// Build the value tree for `self`.
    fn to_json_value(&self) -> Json;
}

/// Decoding from the pull [`Parser`].
pub trait FromJson: Sized {
    /// Read exactly one JSON value as `Self`. A decode error (wrong type,
    /// out of range) is returned only once the whole value is consumed; see
    /// [`Parser`].
    fn read_json(p: &mut Parser<'_>) -> Result<Self>;

    /// The value of an object member that is absent. `None`, the default,
    /// makes absence an error.
    fn absent() -> Option<Self> {
        None
    }
}

/// The decoded value of object member `key` from its [`Parser::member`]
/// slot, or [`FromJson::absent`] when the object had no such member.
pub fn take<T: FromJson>(slot: Option<Result<T>>, key: &str) -> Result<T> {
    slot.unwrap_or_else(|| T::absent().ok_or_else(|| Error::missing("JSON object member", key)))
}

/// Serialise any [`ToJson`] value to compact JSON text.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json_value().to_text()
}

/// Parse JSON text into any [`FromJson`] type. Trailing non-whitespace
/// input is an error.
pub fn from_str<T: FromJson>(text: &str) -> Result<T> {
    let mut p = Parser {
        text,
        pos: 0,
        broken: false,
    };
    p.skip_ws();
    let value = p.read()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(Error::parse("end of JSON input", text));
    }
    value
}

impl FromJson for Json {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        Ok(match p.scalar()? {
            Some(Scalar::Null) => Json::Null,
            Some(Scalar::Bool(b)) => Json::Bool(b),
            Some(Scalar::Num(n)) => Json::Num(n),
            Some(Scalar::Str(s)) => Json::Str(s.into_owned()),
            None if p.peek() == Some(b'[') => {
                let mut items = Vec::new();
                p.array(|p| {
                    items.push(Json::read_json(p)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            None => {
                let mut pairs = Vec::new();
                p.object(|p, key| {
                    pairs.push((key.to_owned(), Json::read_json(p)?));
                    Ok(())
                })?;
                Json::Obj(pairs)
            }
        })
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),*) => {
        $(
            impl ToJson for $ty {
                fn to_json_value(&self) -> Json {
                    Json::Num(*self as f64)
                }
            }
            impl FromJson for $ty {
                fn read_json(p: &mut Parser<'_>) -> Result<Self> {
                    let n = p.read_num()?.ok_or_else(|| Error::invalid("expected JSON number"))?;
                    if n.fract() != 0.0 || n < <$ty>::MIN as f64 || n > <$ty>::MAX as f64 {
                        return Err(Error::invalid(concat!("number out of range for ", stringify!($ty))));
                    }
                    Ok(n as $ty)
                }
            }
        )*
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json_value(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        p.read_num()?
            .ok_or_else(|| Error::invalid("expected JSON number"))
    }
}

impl ToJson for bool {
    fn to_json_value(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        match p.scalar_or_skip()? {
            Some(Scalar::Bool(b)) => Ok(b),
            _ => Err(Error::invalid("expected JSON boolean")),
        }
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        p.read_str()?
            .map(Cow::into_owned)
            .ok_or_else(|| Error::invalid("expected JSON string"))
    }
}

impl ToJson for &str {
    fn to_json_value(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Json {
        match self {
            Some(v) => v.to_json_value(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        if p.peek() == Some(b'n') {
            return p.literal("null").map(|()| None);
        }
        T::read_json(p).map(Some)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        let mut items = Vec::new();
        // The first element that fails to decode; later ones are skipped.
        let mut bad = None;
        let is_array = p.array(|p| {
            if bad.is_some() {
                return p.skip();
            }
            match p.read()? {
                Ok(item) => items.push(item),
                Err(e) => bad = Some(e),
            }
            Ok(())
        })?;
        match bad {
            Some(e) => Err(e),
            None if is_array => Ok(items),
            None => Err(Error::invalid("expected JSON array")),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json_value(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json_value(), v.to_json_value()]))
                .collect(),
        )
    }
}

// ---- impls for the foundational newtypes in this crate -------------------

impl ToJson for crate::Asn {
    fn to_json_value(&self) -> Json {
        Json::Num(self.0 as f64)
    }
}

impl FromJson for crate::Asn {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        u32::read_json(p).map(crate::Asn)
    }
}

impl ToJson for crate::CountryCode {
    fn to_json_value(&self) -> Json {
        Json::Str(self.as_str().to_owned())
    }
}

impl FromJson for crate::CountryCode {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        p.read_str()?
            .ok_or_else(|| Error::invalid("expected country code string"))?
            .parse()
    }
}

impl ToJson for crate::Ipv4Net {
    fn to_json_value(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for crate::Ipv4Net {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        p.read_str()?
            .ok_or_else(|| Error::invalid("expected CIDR string"))?
            .parse()
    }
}

impl ToJson for crate::MonthStamp {
    fn to_json_value(&self) -> Json {
        Json::Num(self.index() as f64)
    }
}

impl FromJson for crate::MonthStamp {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        i32::read_json(p).map(crate::MonthStamp::from_index)
    }
}

impl ToJson for crate::Date {
    fn to_json_value(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for crate::Date {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        p.read_str()?
            .ok_or_else(|| Error::invalid("expected YYYY-MM-DD string"))?
            .parse()
    }
}

impl ToJson for crate::GeoPoint {
    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("lat_deg".to_owned(), Json::Num(self.lat_deg())),
            ("lon_deg".to_owned(), Json::Num(self.lon_deg())),
        ])
    }
}

impl FromJson for crate::GeoPoint {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        let (mut lat, mut lon) = (None, None);
        p.object(|p, key| match key {
            "lat_deg" => p.member(&mut lat),
            "lon_deg" => p.member(&mut lon),
            _ => p.skip(),
        })?;
        Ok(crate::GeoPoint::new(
            take(lat, "lat_deg")?,
            take(lon, "lon_deg")?,
        ))
    }
}

/// Implement [`ToJson`]/[`FromJson`] for a plain struct, field for field,
/// in declaration order. `impl_json_struct!(FromJson for T { .. })`
/// implements the decoding half alone, for a type that writes itself by
/// hand.
///
/// ```
/// use lacnet_types::impl_json_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// impl_json_struct!(Point { x, y });
///
/// let p = Point { x: 1, y: 2 };
/// let text = lacnet_types::json::to_string(&p);
/// assert_eq!(text, r#"{"x":1,"y":2}"#);
/// assert_eq!(lacnet_types::json::from_str::<Point>(&text).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    (FromJson for $ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn read_json(p: &mut $crate::json::Parser<'_>) -> $crate::Result<Self> {
                $( let mut $field = None; )+
                p.object(|p, key| match key {
                    $( stringify!($field) => p.member(&mut $field), )+
                    _ => p.skip(),
                })?;
                Ok(Self {
                    $( $field: $crate::json::take($field, stringify!($field))?, )+
                })
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json_value(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (
                        stringify!($field).to_owned(),
                        $crate::json::ToJson::to_json_value(&self.$field),
                    ), )+
                ])
            }
        }
        $crate::impl_json_struct!(FromJson for $ty { $($field),+ });
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-12", "3.5", "\"hola\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_text(), text, "{text}");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse(" [1, 2] ").unwrap().to_text(), "[1,2]");
    }

    #[test]
    fn nested_structure_roundtrips() {
        let text = r#"{"data":[{"id":1,"name":"CANTV","ok":true,"cdn":null}]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_text(), text);
        let row = &v.get("data").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("id").and_then(Json::as_f64), Some(1.0));
        assert_eq!(row.get("name").and_then(Json::as_str), Some("CANTV"));
        assert_eq!(row.get("cdn"), Some(&Json::Null));
        assert_eq!(row.get("absent"), None);

        #[derive(Debug, PartialEq)]
        struct Row {
            id: u32,
            name: String,
            cdn: Option<String>,
            absent: Option<String>,
        }
        crate::impl_json_struct!(FromJson for Row { id, name, cdn, absent });
        let rows: Vec<Row> = from_str(&v.get("data").unwrap().to_text()).unwrap();
        let expected = Row {
            id: 1,
            name: "CANTV".into(),
            cdn: None,
            absent: None,
        };
        assert_eq!(rows, [expected]);
    }

    #[test]
    fn string_escapes() {
        let original = "a\"b\\c\nd\te\u{1F30E}";
        let v = Json::Str(original.to_owned());
        let text = v.to_text();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Escaped-unicode input decodes too (incl. a surrogate pair).
        assert_eq!(
            Json::parse(r#""A🌎""#).unwrap(),
            Json::Str("A\u{1F30E}".to_owned())
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[",
            "{]",
            "nope",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "[1] trailing",
            "tru",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn decode_errors_resolve_as_a_whole_tree_decode_would() {
        #[derive(Debug, PartialEq)]
        struct Pair {
            n: u32,
            s: String,
        }
        crate::impl_json_struct!(FromJson for Pair { n, s });
        let number = Err(Error::invalid("expected JSON number"));
        // Declaration order picks among decode errors, not text order.
        assert_eq!(from_str::<Pair>(r#"{"s":1,"n":"x"}"#), number);
        assert_eq!(
            from_str::<Pair>(r#"{"s":"ok"}"#),
            Err(Error::missing("JSON object member", "n"))
        );
        // The first of duplicate members wins; the later is only checked.
        assert_eq!(from_str::<Pair>(r#"{"n":"x","s":"ok","n":1}"#), number);
        let pair = Pair {
            n: 1,
            s: "a\"b".into(),
        };
        assert_eq!(
            from_str::<Pair>(r#"{"n":1,"s":"a\"b","n":"x","z":[{}]}"#),
            Ok(pair)
        );
        // A syntax error anywhere beats a decode error before it.
        assert!(matches!(
            from_str::<Pair>(r#"{"n":"x","s":[}"#),
            Err(Error::Parse { .. })
        ));
        assert!(matches!(
            from_str::<Vec<Pair>>(r#"[{"n":"x"},{"n":1,"s":"a"},{"#),
            Err(Error::Parse { .. })
        ));
        assert_eq!(
            from_str::<Pair>(r#"{"n":1,"s":"a"} x"#),
            Err(Error::parse("end of JSON input", r#"{"n":1,"s":"a"} x"#))
        );
    }

    #[test]
    fn numbers_write_compactly() {
        assert_eq!(Json::Num(7.0).to_text(), "7");
        assert_eq!(Json::Num(-0.5).to_text(), "-0.5");
        // Beyond the exact-i64 window the value falls through to f64
        // Display, which prints the full digit string for 1e18.
        assert_eq!(Json::Num(1.0e18).to_text(), "1000000000000000000");
    }

    #[test]
    fn newtype_impls_match_dump_style() {
        assert_eq!(to_string(&crate::Asn(8048)), "8048");
        assert_eq!(to_string(&crate::country::VE), "\"VE\"");
        let net: crate::Ipv4Net = "200.44.0.0/17".parse().unwrap();
        assert_eq!(to_string(&net), "\"200.44.0.0/17\"");
        assert_eq!(
            from_str::<crate::Ipv4Net>("\"200.44.0.0/17\"").unwrap(),
            net
        );
        let d = crate::Date::ymd(2024, 2, 1);
        assert_eq!(to_string(&d), "\"2024-02-01\"");
        assert_eq!(from_str::<crate::Date>(&to_string(&d)).unwrap(), d);
        let m = crate::MonthStamp::new(2024, 2);
        assert_eq!(from_str::<crate::MonthStamp>(&to_string(&m)).unwrap(), m);
        let g = crate::GeoPoint::new(10.6, -66.8);
        assert_eq!(from_str::<crate::GeoPoint>(&to_string(&g)).unwrap(), g);
    }
}
