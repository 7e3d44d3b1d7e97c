//! Minimal self-contained TOML support.
//!
//! The scenario sidecars (`scenarios/*.toml`) are TOML because the format
//! reads well for hand-edited storyline descriptions, but the workspace
//! builds with no external dependencies — so this module parses a strict
//! TOML subset into the existing [`Json`] value tree, and everything
//! downstream (validation, fingerprinting) reuses the `json` machinery.
//!
//! Supported grammar:
//!
//! - `key = value` pairs with bare keys (`[A-Za-z0-9_-]+`)
//! - `[table]` and `[table.subtable]` headers (dotted paths)
//! - `[[array-of-tables]]` headers
//! - values: basic strings with the common escapes, integers, floats,
//!   booleans, and (nested) inline arrays with optional trailing commas
//! - `#` comments, blank lines, and end-of-line comments after values
//!
//! Deliberately rejected: dotted keys in `key = value` position, inline
//! tables, multi-line strings, and datetimes (dates travel as strings in
//! the scenario schema). Every rejection is a typed [`Error`], never a
//! panic — malformed sidecars surface as diagnostics, not crashes.

use crate::error::{Error, Result};
use crate::json::Json;

/// Parse TOML text into a [`Json::Obj`] tree. `[table]` headers become
/// nested objects, `[[name]]` headers become arrays of objects, and
/// duplicate definitions of one key are an error.
pub fn parse(text: &str) -> Result<Json> {
    let mut root = Json::Obj(Vec::new());
    // Path of table names from the most recent header; `key = value`
    // lines land under it. An empty path targets the root table.
    let mut current: Vec<String> = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let raw = lines[i];
        i += 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let name = header
                .strip_suffix("]]")
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .ok_or_else(|| Error::parse("TOML array-of-tables header [[name]]", raw))?;
            current = split_path(name, raw)?;
            let (parent, leaf) = current.split_at(current.len() - 1);
            let table = navigate(&mut root, parent, raw)?;
            let entry = table_entry(table, &leaf[0]);
            match entry {
                Json::Null => *entry = Json::Arr(vec![Json::Obj(Vec::new())]),
                Json::Arr(items) => items.push(Json::Obj(Vec::new())),
                _ => return Err(Error::parse("TOML array-of-tables (key already used)", raw)),
            }
        } else if let Some(header) = line.strip_prefix('[') {
            let name = header
                .strip_suffix(']')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .ok_or_else(|| Error::parse("TOML table header [name]", raw))?;
            current = split_path(name, raw)?;
            // Materialise the table now so empty tables still exist.
            navigate(&mut root, &current, raw)?;
        } else {
            let (key, rest) = line
                .split_once('=')
                .ok_or_else(|| Error::parse("TOML `key = value` line", raw))?;
            let key = key.trim();
            if !is_bare_key(key) {
                Err(Error::parse("TOML bare key ([A-Za-z0-9_-]+)", raw))?;
            }
            // Values may span lines (multi-line arrays), so the cursor
            // sees the rest of the document; the line loop then resumes
            // after however many newlines the value consumed.
            let mut tail = rest.trim_start().to_owned();
            for extra in &lines[i..] {
                tail.push('\n');
                tail.push_str(extra);
            }
            let mut p = Cursor {
                bytes: tail.as_bytes(),
                pos: 0,
            };
            let value = p.value(raw)?;
            p.expect_line_end(raw)?;
            i += p.bytes[..p.pos].iter().filter(|&&b| b == b'\n').count();
            let path = current.clone();
            let table = navigate(&mut root, &path, raw)?;
            let slot = table_entry(table, key);
            if !matches!(slot, Json::Null) {
                return Err(Error::parse("TOML key defined once", raw));
            }
            *slot = value;
        }
    }
    Ok(root)
}

/// Split a (possibly dotted) table-header path into segments, validating
/// each segment as a bare key.
fn split_path(name: &str, raw: &str) -> Result<Vec<String>> {
    let segments: Vec<String> = name.split('.').map(|s| s.trim().to_owned()).collect();
    for segment in &segments {
        if !is_bare_key(segment) {
            return Err(Error::parse("TOML table path of bare keys", raw));
        }
    }
    Ok(segments)
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Walk (creating as needed) to the table at `path`. A `[[name]]` array
/// along the way targets its most recent element, matching TOML
/// semantics for subtables of array-of-tables entries.
fn navigate<'a>(root: &'a mut Json, path: &[String], raw: &str) -> Result<&'a mut Json> {
    let mut node = root;
    for segment in path {
        let entry = table_entry(node, segment);
        if matches!(entry, Json::Null) {
            *entry = Json::Obj(Vec::new());
        }
        node = match entry {
            Json::Obj(_) => entry,
            Json::Arr(items) => items
                .last_mut()
                .ok_or_else(|| Error::parse("non-empty TOML array-of-tables", raw))?,
            _ => return Err(Error::parse("TOML table (key already holds a value)", raw)),
        };
    }
    Ok(node)
}

/// The mutable slot for `key` inside an object, inserting `Null` when
/// absent (the caller decides what the slot becomes).
fn table_entry<'a>(table: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(pairs) = table else {
        unreachable!("navigate only returns objects");
    };
    if !pairs.iter().any(|(k, _)| k == key) {
        pairs.push((key.to_owned(), Json::Null));
    }
    let idx = pairs
        .iter()
        .position(|(k, _)| k == key)
        .expect("just inserted");
    &mut pairs[idx].1
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Inside an array: whitespace, newlines, and comments are all
    /// insignificant (TOML multi-line arrays).
    fn skip_ws_multiline(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') => self.pos += 1,
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// After a top-level value: only whitespace or a `#` comment may
    /// remain on its line.
    fn expect_line_end(&mut self, raw: &str) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            None | Some(b'#') | Some(b'\n') | Some(b'\r') => Ok(()),
            Some(_) => Err(Error::parse("end of TOML value", raw)),
        }
    }

    fn value(&mut self, raw: &str) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string(raw),
            Some(b'[') => self.array(raw),
            Some(b't') | Some(b'f') => self.boolean(raw),
            Some(b) if b == b'+' || b == b'-' || b.is_ascii_digit() => self.number(raw),
            _ => Err(Error::parse("TOML value", raw)),
        }
    }

    fn string(&mut self, raw: &str) -> Result<Json> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => return Err(Error::parse("closed TOML string", raw)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Json::Str(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| Error::parse("TOML escape", raw))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| Error::parse("TOML \\uXXXX escape", raw))?;
                            self.pos += 4;
                            out.push(hex);
                        }
                        _ => return Err(Error::parse("known TOML escape", raw)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 is copied through by char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::parse("UTF-8 TOML string", raw))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    self.pos += c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn array(&mut self, raw: &str) -> Result<Json> {
        self.pos += 1; // opening bracket
        let mut items = Vec::new();
        loop {
            self.skip_ws_multiline();
            match self.peek() {
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                None => return Err(Error::parse("closed TOML array", raw)),
                _ => {}
            }
            items.push(self.value(raw)?);
            self.skip_ws_multiline();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {}
                _ => return Err(Error::parse("`,` or `]` in TOML array", raw)),
            }
        }
    }

    fn boolean(&mut self, raw: &str) -> Result<Json> {
        for (literal, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
                self.pos += literal.len();
                return Ok(Json::Bool(value));
            }
        }
        Err(Error::parse("TOML boolean", raw))
    }

    fn number(&mut self, raw: &str) -> Result<Json> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E' | b'_') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse("TOML number", raw))?
            .chars()
            .filter(|&c| c != '_')
            .collect();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| Error::parse("TOML number", raw))
    }
}

/// Escape a string for a TOML basic string literal — the writer half the
/// scenario serialiser uses; `parse` reads its output back exactly.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_tables_and_arrays_parse() {
        let doc = parse(
            "# comment\n\
             name = \"cable-cut\"  # trailing comment\n\
             factor = 0.5\n\
             count = 3\n\
             active = true\n\
             \n\
             [meta]\n\
             note = \"a \\\"quoted\\\" word\"\n\
             \n\
             [[events]]\n\
             day = \"2019-03-07\"\n\
             depth = 0.9\n\
             [[events]]\n\
             day = \"2019-03-25\"\n\
             depth = 0.75\n\
             pair = [[1980, 7800.0], [2024, 3900]]\n",
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("cable-cut"));
        assert_eq!(doc.get("factor").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("meta").unwrap().get("note").unwrap().as_str(),
            Some("a \"quoted\" word")
        );
        let events = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("depth").unwrap().as_f64(), Some(0.9));
        let pair = events[1].get("pair").unwrap().as_array().unwrap();
        assert_eq!(pair[0].as_array().unwrap()[1].as_f64(), Some(7800.0));
    }

    #[test]
    fn multi_line_arrays_span_lines_with_comments() {
        let doc = parse(
            "events = [\n\
             \x20   [\"2019-03-07\", \"2019-03-14\", 0.9], # Guri failure\n\
             \n\
             \x20   [\"2019-03-25\", \"2019-03-28\", 0.75],\n\
             ]\n\
             after = true\n",
        )
        .unwrap();
        let events = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].as_array().unwrap()[2].as_f64(), Some(0.75));
        assert_eq!(doc.get("after").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn dotted_headers_nest_and_trailing_commas_are_fine() {
        let doc = parse("[a.b]\nx = [1, 2, 3,]\n").unwrap();
        let x = doc.get("a").unwrap().get("b").unwrap().get("x").unwrap();
        assert_eq!(x.as_array().unwrap().len(), 3);
    }

    #[test]
    fn negative_numbers_underscores_and_unicode_escapes() {
        let doc = parse("t = -12.5\nbig = 1_000\nu = \"\\u00e9\"\n").unwrap();
        assert_eq!(doc.get("t").unwrap().as_f64(), Some(-12.5));
        assert_eq!(doc.get("big").unwrap().as_f64(), Some(1000.0));
        assert_eq!(doc.get("u").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn malformed_input_is_a_typed_error_not_a_panic() {
        for bad in [
            "novalue\n",
            "key = \n",
            "key = \"unterminated\n",
            "key = [1, 2\n",
            "key = 1 trailing\n",
            "[unclosed\n",
            "[[t]\n",
            "a.b = 1\n",
            "key = nope\n",
            "dup = 1\ndup = 2\n",
            "x = 1\n[x]\ny = 2\n",
            "key = \"bad \\q escape\"\n",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        for s in ["plain", "with \"quotes\"", "tab\tnewline\n", "unicode é☃"] {
            let doc = parse(&format!("v = {}\n", escape(s))).unwrap();
            assert_eq!(doc.get("v").unwrap().as_str(), Some(s), "{s:?}");
        }
    }
}
