//! The `.ndtc` binary columnar container.
//!
//! NDT data is the largest artifact in a dump tree — at real scale the
//! M-Lab corpus is multi-terabyte — and text rows spend their cold load
//! almost entirely in per-row float/date parsing. `.ndtc` stores rows as
//! per-column blocks instead, so a cold load is bounded by disk bandwidth
//! and a handful of `memcpy`-shaped decodes.
//!
//! A container is a run of independently decodable row-group blocks
//! followed by a footer index, so a reader can seek straight to the
//! blocks a query touches:
//!
//! ```text
//! offset 0   magic  "NDTC"                  (4 bytes)
//! offset 4   version                        (1 byte, = 2)
//!            N row-group blocks, back to back, each:
//!              row count                    (uvarint)
//!              7 column groups, fixed order, each:
//!                tag                        (1 byte)
//!                payload length in bytes    (uvarint)
//!                payload                    (see below; dictionaries
//!                                           and the date delta chain
//!                                           restart per block)
//! index      block count                    (uvarint)
//!            per block:
//!              byte offset from file start  (uvarint)
//!              byte length                  (uvarint)
//!              row count                    (uvarint)
//!              min date, days since epoch   (ivarint)
//!              max date, days since epoch   (ivarint)
//!              CRC-32 of the block bytes    (u32 little-endian)
//!              country summary: count       (uvarint)
//!                then one 2-byte alpha-2 code per distinct country
//! tail       index length in bytes          (u32 little-endian)
//!            total row count                (u64 little-endian)
//!            CRC-32 of index + tail prefix  (u32 little-endian)
//! ```
//!
//! The tail CRC covers `bytes[index_start .. len-4]` — the index plus the
//! index-length and row-count fields — so [`ColumnReader::open`] can
//! validate everything it trusts for seeking *without* touching block
//! bytes; each block carries its own CRC, verified only when that block
//! is actually decoded. That is what makes a single-(country, month)
//! query cost proportional to the rows it touches rather than to the
//! archive size.
//!
//! An archive holds one container per country (`mlab/{CC}.ndtc`), built
//! by [`assemble`] from one [`BlockRun`] per month in plan order. Blocks
//! never straddle a month — a month with more than
//! [`DEFAULT_BLOCK_ROWS`] rows takes several — so a month's blocks are
//! byte-identical to a container holding that month alone, and a
//! contiguous month window is a contiguous byte span that
//! [`ColumnReader::window`] decodes without the rest of the file.
//!
//! Column payloads (`n` = row count of the enclosing block):
//!
//! * **dates** (tag 1) — days-since-epoch, delta-encoded: the first value
//!   then successive differences, each a zigzag varint.
//! * **country** (tag 2) — dictionary-encoded: dict size (uvarint), dict
//!   entries (2 bytes of alpha-2 each, first-appearance order), then `n`
//!   uvarint dict indices.
//! * **asn** (tag 3) — dictionary-encoded: dict size (uvarint), dict
//!   entries (uvarint raw ASN each), then `n` uvarint dict indices.
//! * **download / upload / min_rtt / loss** (tags 4–7) — `n` IEEE-754
//!   doubles, fixed-width little-endian. Bit patterns are preserved
//!   exactly, so the order-sensitive P² estimators observe the very same
//!   values an `NdtTest` row holds in memory.
//!
//! **Format evolution rule:** bump the version, reject unknown versions,
//! keep the frozen-header guard. A layout change — new column, different
//! encoding, moved footer — takes a new version byte; the magic never
//! changes meaning; readers reject every version they do not implement
//! (today: everything but [`VERSION`], including the retired
//! single-block version 1) with a typed error. The
//! `container_header_is_frozen` test pins the header bytes so a magic or
//! version edit without a deliberate pin update fails CI.
//!
//! Every decode error is a typed [`Error`](lacnet_types::Error) — wrong
//! magic, unsupported version, truncated block, checksum mismatch,
//! row-range violations — never a panic.

use crate::ndt::NdtTest;
use lacnet_types::codec::{
    crc32, f64_at, put_f64, put_ivarint, put_u32, put_u64, put_uvarint, read_ivarint, read_u32,
    read_u64, read_uvarint,
};
use lacnet_types::{Asn, CountryCode, Date, Error, Result};
use std::borrow::Cow;

/// The container magic, `NDTC`.
pub const MAGIC: [u8; 4] = *b"NDTC";

/// The one container version readers accept and [`assemble`] writes:
/// indexed row-group blocks.
pub const VERSION: u8 = 2;

/// Bytes of the fixed tail: index length (u32) + row count (u64) +
/// index CRC-32 (u32).
const TAIL_LEN: usize = 16;

/// Header bytes: magic + version byte.
const HEADER_LEN: usize = 5;

/// Rows per block when the writer isn't told otherwise. Small enough
/// that a month at paper scale splits into many prunable groups,
/// large enough that per-block dictionary and index overhead stays under
/// a percent of the payload.
pub const DEFAULT_BLOCK_ROWS: usize = 2048;

/// Column tags, in the order blocks appear in the container.
const TAGS: [u8; 7] = [1, 2, 3, 4, 5, 6, 7];

/// The on-disk NDT container encoding: `.ndtc`, the only one. Kept as a
/// one-variant enum only because `benchmark/` compiles against
/// `ShardFormat::Columnar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardFormat {
    /// The `.ndtc` columnar container defined by this module.
    #[default]
    Columnar,
}

impl std::fmt::Display for ShardFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("columnar")
    }
}

/// A bitset naming which of the seven `.ndtc` columns a caller wants
/// decoded. Endpoints declare their needs with this in
/// `core::registry`, and [`ColumnReader::read`] skips the payload bytes
/// of every column not in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnSet(u8);

impl ColumnSet {
    /// No columns at all.
    pub const NONE: ColumnSet = ColumnSet(0);
    /// Test dates (tag 1).
    pub const DATES: ColumnSet = ColumnSet(1 << 0);
    /// Client countries (tag 2).
    pub const COUNTRIES: ColumnSet = ColumnSet(1 << 1);
    /// Client ASNs (tag 3).
    pub const ASNS: ColumnSet = ColumnSet(1 << 2);
    /// Downstream throughput (tag 4).
    pub const DOWNLOAD: ColumnSet = ColumnSet(1 << 3);
    /// Upstream throughput (tag 5).
    pub const UPLOAD: ColumnSet = ColumnSet(1 << 4);
    /// Minimum RTT (tag 6).
    pub const MIN_RTT: ColumnSet = ColumnSet(1 << 5);
    /// Loss rate (tag 7).
    pub const LOSS: ColumnSet = ColumnSet(1 << 6);
    /// Every column — a full decode.
    pub const ALL: ColumnSet = ColumnSet(0x7f);
    /// What [`MonthlyAggregator::observe_columns`] reads: countries,
    /// dates and download.
    ///
    /// [`MonthlyAggregator::observe_columns`]: crate::aggregate::MonthlyAggregator::observe_columns
    pub const AGGREGATE: ColumnSet =
        ColumnSet::DATES.union(ColumnSet::COUNTRIES.union(ColumnSet::DOWNLOAD));

    /// The union of two sets.
    pub const fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// Whether every column in `other` is in `self`.
    pub const fn contains(self, other: ColumnSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the set names no columns.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// How many columns the set names.
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }
}

/// What a [`ColumnReader`] query asks for: which columns to decode, and
/// optional block-pruning predicates on the footer index. Predicates are
/// conservative — a block is decoded iff its index entry *may* contain
/// matching rows — so row-level filtering (if any) stays the caller's
/// job.
#[derive(Debug, Clone, Default)]
pub struct ColumnSelection {
    columns: ColumnSet,
    country: Option<CountryCode>,
}

impl ColumnSelection {
    /// Decode every block and every column.
    pub fn all() -> ColumnSelection {
        ColumnSelection::columns(ColumnSet::ALL)
    }

    /// Decode `columns` from every block.
    pub fn columns(columns: ColumnSet) -> ColumnSelection {
        ColumnSelection {
            columns,
            country: None,
        }
    }

    /// Keep only blocks whose country dictionary contains `cc`.
    pub fn with_country(mut self, cc: CountryCode) -> ColumnSelection {
        self.country = Some(cc);
        self
    }

    /// Whether a block with this index entry can hold matching rows.
    fn matches(&self, entry: &BlockEntry) -> bool {
        self.country.is_none_or(|cc| entry.countries.contains(&cc))
    }
}

/// Decode-side accounting from [`ColumnReader::read_counted`]: how much
/// of the container a query actually touched. Tests pin selectivity with
/// this, and the serve layer surfaces it per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Blocks listed in the footer index.
    pub blocks_total: usize,
    /// Blocks whose index entry matched the selection and were decoded.
    pub blocks_decoded: usize,
    /// Column payload bytes actually decoded (skipped columns and
    /// pruned blocks contribute nothing).
    pub bytes_decoded: usize,
    /// Column payloads decoded across all decoded blocks.
    pub columns_decoded: usize,
}

impl ReadStats {
    /// Merge another container's stats into this one (archive sweeps).
    pub fn absorb(&mut self, other: ReadStats) {
        self.blocks_total += other.blocks_total;
        self.blocks_decoded += other.blocks_decoded;
        self.bytes_decoded += other.bytes_decoded;
        self.columns_decoded += other.columns_decoded;
    }
}

/// One decoded shard, column-major. Rows are reconstructed on demand by
/// [`ColumnBatch::row`] / [`ColumnBatch::iter`]; the aggregation fast
/// path ([`MonthlyAggregator::observe_columns`]) reads the `countries`,
/// `dates` and `download` columns directly and never materializes rows.
///
/// A selectively decoded batch holds empty vectors for columns the
/// [`ColumnSelection`] skipped; [`ColumnBatch::len`] reports the row
/// count of the populated columns.
///
/// [`MonthlyAggregator::observe_columns`]: crate::aggregate::MonthlyAggregator::observe_columns
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBatch {
    dates: Vec<Date>,
    countries: Vec<CountryCode>,
    asns: Vec<Asn>,
    download: Vec<f64>,
    upload: Vec<f64>,
    min_rtt: Vec<f64>,
    loss: Vec<f64>,
}

impl ColumnBatch {
    /// Build a batch from row-major tests.
    pub fn from_rows(rows: &[NdtTest]) -> ColumnBatch {
        let mut b = ColumnBatch::default();
        for t in rows {
            b.dates.push(t.date);
            b.countries.push(t.country);
            b.asns.push(t.asn);
            b.download.push(t.download_mbps);
            b.upload.push(t.upload_mbps);
            b.min_rtt.push(t.min_rtt_ms);
            b.loss.push(t.loss_rate);
        }
        b
    }

    /// Number of rows. Skipped columns in a selective decode are empty,
    /// so the row count is the longest populated column.
    pub fn len(&self) -> usize {
        self.dates
            .len()
            .max(self.countries.len())
            .max(self.asns.len())
            .max(self.download.len())
            .max(self.upload.len())
            .max(self.min_rtt.len())
            .max(self.loss.len())
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstruct row `i`. Panics if a needed column was not decoded —
    /// row materialization requires a full ([`ColumnSelection::all`])
    /// read.
    pub fn row(&self, i: usize) -> NdtTest {
        NdtTest {
            date: self.dates[i],
            country: self.countries[i],
            asn: self.asns[i],
            download_mbps: self.download[i],
            upload_mbps: self.upload[i],
            min_rtt_ms: self.min_rtt[i],
            loss_rate: self.loss[i],
        }
    }

    /// Iterate the rows in order.
    pub fn iter(&self) -> impl Iterator<Item = NdtTest> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The test dates, row order.
    pub fn dates(&self) -> &[Date] {
        &self.dates
    }

    /// The client countries, row order.
    pub fn countries(&self) -> &[CountryCode] {
        &self.countries
    }

    /// The client ASNs, row order.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// The downstream throughputs (Mbit/s), row order.
    pub fn download(&self) -> &[f64] {
        &self.download
    }

    /// The upstream throughputs (Mbit/s), row order.
    pub fn upload(&self) -> &[f64] {
        &self.upload
    }

    /// The minimum RTTs (ms), row order.
    pub fn min_rtt(&self) -> &[f64] {
        &self.min_rtt
    }

    /// The loss rates, row order.
    pub fn loss(&self) -> &[f64] {
        &self.loss
    }

    /// Column-wise mirror of [`NdtTest::validate`] — the owned reference
    /// decode in the tests applies it; the real read path applies the
    /// same checks per [`BlockView`].
    #[cfg(test)]
    fn validate(&self) -> Result<()> {
        if self.download.iter().chain(&self.upload).any(|&v| v < 0.0) {
            return Err(Error::invalid("negative throughput"));
        }
        if self.min_rtt.iter().any(|&v| v < 0.0) {
            return Err(Error::invalid("negative RTT"));
        }
        if self.loss.iter().any(|&v| !(0.0..=1.0).contains(&v)) {
            return Err(Error::invalid("loss rate outside [0,1]"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Column payload codecs
// ---------------------------------------------------------------------

/// Delta-encode days-since-epoch. The delta chain starts from 0, so
/// every block restarts it cleanly.
fn encode_date_payload(dates: &[Date], payload: &mut Vec<u8>) {
    let mut prev = 0i64;
    for d in dates {
        let days = d.days_since_epoch();
        put_ivarint(payload, days - prev);
        prev = days;
    }
}

/// Dictionary-encode alpha-2 codes, first-appearance order. Returns the
/// dictionary so the writer can summarize it in the footer index.
fn encode_country_payload(countries: &[CountryCode], payload: &mut Vec<u8>) -> Vec<CountryCode> {
    let mut dict: Vec<CountryCode> = Vec::new();
    let mut indices = Vec::with_capacity(countries.len());
    for &cc in countries {
        let idx = dict.iter().position(|&d| d == cc).unwrap_or_else(|| {
            dict.push(cc);
            dict.len() - 1
        });
        indices.push(idx as u64);
    }
    put_uvarint(payload, dict.len() as u64);
    for cc in &dict {
        payload.extend_from_slice(cc.as_str().as_bytes());
    }
    for &i in &indices {
        put_uvarint(payload, i);
    }
    dict
}

/// Dictionary-encode raw ASNs, first-appearance order.
fn encode_asn_payload(asns: &[Asn], payload: &mut Vec<u8>) {
    let mut dict: Vec<Asn> = Vec::new();
    let mut indices = Vec::with_capacity(asns.len());
    for &asn in asns {
        let idx = dict.iter().position(|&d| d == asn).unwrap_or_else(|| {
            dict.push(asn);
            dict.len() - 1
        });
        indices.push(idx as u64);
    }
    put_uvarint(payload, dict.len() as u64);
    for asn in &dict {
        put_uvarint(payload, u64::from(asn.raw()));
    }
    for &i in &indices {
        put_uvarint(payload, i);
    }
}

/// Fixed-width little-endian doubles.
fn encode_float_payload(col: &[f64], payload: &mut Vec<u8>) {
    for &v in col {
        put_f64(payload, v);
    }
}

/// Decode the date column into a caller-owned vector (cleared first).
/// Writing into reusable scratch is what keeps the borrowed scan free of
/// per-block allocations once the vector's capacity is warm. Returns the
/// min and max days-since-epoch decoded — `None` for an empty column —
/// so the reader can check the footer's span without a second pass.
fn decode_date_payload_into(
    block: &[u8],
    n: usize,
    out: &mut Vec<Date>,
) -> Result<Option<(i64, i64)>> {
    out.clear();
    let mut pos = 0;
    let mut days = 0i64;
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for _ in 0..n {
        let delta = read_ivarint(block, &mut pos)?;
        days = days
            .checked_add(delta)
            .ok_or_else(|| Error::parse("ndtc date delta (overflow)", ""))?;
        // Keep reconstruction within the civil-date range the rest of
        // the pipeline uses; wildly out-of-range days mean corruption.
        if days.abs() > 4_000_000 {
            return Err(Error::parse("ndtc date (outside civil range)", ""));
        }
        lo = lo.min(days);
        hi = hi.max(days);
        out.push(Date::from_days_since_epoch(days));
    }
    if pos != block.len() {
        return Err(Error::parse("ndtc date column (trailing bytes)", ""));
    }
    Ok((n > 0).then_some((lo, hi)))
}

/// Decode the country column into caller-owned value and dictionary
/// vectors (both cleared first); the dictionary is exposed so readers
/// can cross-check the footer index's country summary.
fn decode_country_payload_into(
    block: &[u8],
    n: usize,
    out: &mut Vec<CountryCode>,
    dict: &mut Vec<CountryCode>,
) -> Result<()> {
    out.clear();
    dict.clear();
    let mut pos = 0;
    let dict_len = read_uvarint(block, &mut pos)? as usize;
    for _ in 0..dict_len {
        let end = pos
            .checked_add(2)
            .filter(|&e| e <= block.len())
            .ok_or_else(|| Error::parse("ndtc country dict (truncated)", ""))?;
        let s = std::str::from_utf8(&block[pos..end])
            .map_err(|_| Error::parse("ndtc country dict entry", ""))?;
        dict.push(CountryCode::new(s)?);
        pos = end;
    }
    for _ in 0..n {
        let idx = read_uvarint(block, &mut pos)? as usize;
        let &cc = dict
            .get(idx)
            .ok_or_else(|| Error::parse("ndtc country dict index", ""))?;
        out.push(cc);
    }
    if pos != block.len() {
        return Err(Error::parse("ndtc country column (trailing bytes)", ""));
    }
    Ok(())
}

/// Decode the ASN column into caller-owned value and dictionary vectors
/// (both cleared first).
fn decode_asn_payload_into(
    block: &[u8],
    n: usize,
    out: &mut Vec<Asn>,
    dict: &mut Vec<Asn>,
) -> Result<()> {
    out.clear();
    dict.clear();
    let mut pos = 0;
    let dict_len = read_uvarint(block, &mut pos)? as usize;
    for _ in 0..dict_len {
        let raw = read_uvarint(block, &mut pos)?;
        let raw = u32::try_from(raw).map_err(|_| Error::parse("ndtc asn dict entry", ""))?;
        dict.push(Asn(raw));
    }
    for _ in 0..n {
        let idx = read_uvarint(block, &mut pos)? as usize;
        let &asn = dict
            .get(idx)
            .ok_or_else(|| Error::parse("ndtc asn dict index", ""))?;
        out.push(asn);
    }
    if pos != block.len() {
        return Err(Error::parse("ndtc asn column (trailing bytes)", ""));
    }
    Ok(())
}

/// Append the seven tagged, length-prefixed column sections for a row
/// slice of `batch` — the body of one row-group block. Returns the
/// country dictionary of the slice.
fn encode_column_sections(
    batch: &ColumnBatch,
    range: std::ops::Range<usize>,
    out: &mut Vec<u8>,
) -> Vec<CountryCode> {
    let section = |out: &mut Vec<u8>, tag: u8, payload: &[u8]| {
        out.push(tag);
        put_uvarint(out, payload.len() as u64);
        out.extend_from_slice(payload);
    };
    let mut payload = Vec::new();
    encode_date_payload(&batch.dates[range.clone()], &mut payload);
    section(out, TAGS[0], &payload);

    payload.clear();
    let dict = encode_country_payload(&batch.countries[range.clone()], &mut payload);
    section(out, TAGS[1], &payload);

    payload.clear();
    encode_asn_payload(&batch.asns[range.clone()], &mut payload);
    section(out, TAGS[2], &payload);

    for (tag, col) in [
        (TAGS[3], &batch.download),
        (TAGS[4], &batch.upload),
        (TAGS[5], &batch.min_rtt),
        (TAGS[6], &batch.loss),
    ] {
        payload.clear();
        encode_float_payload(&col[range.clone()], &mut payload);
        section(out, tag, &payload);
    }
    dict
}

/// Slice the seven tagged column sections starting at `*pos`, advancing
/// past them.
fn split_column_sections<'b>(buf: &'b [u8], pos: &mut usize) -> Result<[&'b [u8]; 7]> {
    let mut sections: [&[u8]; 7] = [&[]; 7];
    for (slot, &tag) in sections.iter_mut().zip(&TAGS) {
        let &got = buf
            .get(*pos)
            .ok_or_else(|| Error::parse("ndtc column block (truncated)", ""))?;
        *pos += 1;
        if got != tag {
            return Err(Error::parse("ndtc column tag", &got.to_string()));
        }
        let len = read_uvarint(buf, pos)?;
        let len = usize::try_from(len).map_err(|_| Error::parse("ndtc block length", ""))?;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| Error::parse("ndtc column block (truncated)", ""))?;
        *slot = &buf[*pos..end];
        *pos = end;
    }
    Ok(sections)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Row-group blocks encoded for one run of rows — one `(country, month)`
/// of an archive container — before they are placed in a container.
/// Block offsets are relative to the run's first byte; [`assemble`]
/// shifts them to their place in the file. Encoding runs independently
/// is what lets a dump encode every month on a sweep worker and still
/// produce the exact bytes a single-writer pass would.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockRun {
    bytes: Vec<u8>,
    blocks: Vec<BlockEntry>,
}

impl BlockRun {
    /// Encode `rows` in [`DEFAULT_BLOCK_ROWS`]-row blocks.
    pub fn encode(rows: &[NdtTest]) -> BlockRun {
        BlockRun::encode_with(&ColumnBatch::from_rows(rows), DEFAULT_BLOCK_ROWS)
    }

    /// Encode with an explicit block size (rows per block). Tests use
    /// tiny blocks to exercise pruning; `block_rows` is clamped to ≥ 1.
    /// An empty batch encodes to an empty run (no blocks).
    pub fn encode_with(batch: &ColumnBatch, block_rows: usize) -> BlockRun {
        let block_rows = block_rows.max(1);
        let n = batch.len();
        let mut run = BlockRun {
            bytes: Vec::with_capacity(n * 36),
            blocks: Vec::with_capacity(n.div_ceil(block_rows)),
        };
        let mut start = 0usize;
        while start < n {
            let end = (start + block_rows).min(n);
            let offset = run.bytes.len();
            put_uvarint(&mut run.bytes, (end - start) as u64);
            let countries = encode_column_sections(batch, start..end, &mut run.bytes);
            let days = batch.dates[start..end].iter().map(|d| d.days_since_epoch());
            run.blocks.push(BlockEntry {
                offset,
                len: run.bytes.len() - offset,
                rows: end - start,
                min_days: days.clone().min().expect("non-empty block"),
                max_days: days.max().expect("non-empty block"),
                crc: crc32(&run.bytes[offset..]),
                countries,
            });
            start = end;
        }
        run
    }

    /// Rows across the run's blocks.
    pub fn rows(&self) -> usize {
        self.blocks.iter().map(|b| b.rows).sum()
    }

    /// The run's blocks (offsets relative to the run).
    pub fn blocks(&self) -> &[BlockEntry] {
        &self.blocks
    }

    /// Min/max days-since-epoch across the run; `None` when empty.
    pub fn day_span(&self) -> Option<(i64, i64)> {
        day_span(&self.blocks)
    }
}

/// Place `runs` back to back in one container, followed by the footer
/// index over all their blocks in order.
pub fn assemble<'r>(runs: impl IntoIterator<Item = &'r BlockRun>) -> Vec<u8> {
    let runs: Vec<&BlockRun> = runs.into_iter().collect();
    let body: usize = runs.iter().map(|r| r.bytes.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body + 64 * runs.len() + TAIL_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    let mut entries = Vec::with_capacity(runs.iter().map(|r| r.blocks.len()).sum());
    for run in &runs {
        let base = out.len();
        out.extend_from_slice(&run.bytes);
        entries.extend(run.blocks.iter().map(|b| (base + b.offset, b)));
    }

    let index_start = out.len();
    put_uvarint(&mut out, entries.len() as u64);
    let mut total_rows = 0u64;
    for (offset, e) in entries {
        put_uvarint(&mut out, offset as u64);
        put_uvarint(&mut out, e.len as u64);
        put_uvarint(&mut out, e.rows as u64);
        put_ivarint(&mut out, e.min_days);
        put_ivarint(&mut out, e.max_days);
        put_u32(&mut out, e.crc);
        put_uvarint(&mut out, e.countries.len() as u64);
        for cc in &e.countries {
            out.extend_from_slice(cc.as_str().as_bytes());
        }
        total_rows += e.rows as u64;
    }
    let index_len = out.len() - index_start;
    put_u32(&mut out, index_len as u32);
    put_u64(&mut out, total_rows);
    // The tail CRC covers the index plus the two tail fields before it,
    // so open() validates everything it uses for seeking in one pass.
    let crc = crc32(&out[index_start..]);
    put_u32(&mut out, crc);
    out
}

/// Encode a column batch as one container with [`DEFAULT_BLOCK_ROWS`]
/// rows per block.
pub fn encode_v2(batch: &ColumnBatch) -> Vec<u8> {
    encode_v2_with(batch, DEFAULT_BLOCK_ROWS)
}

/// Encode a column batch as one container with `block_rows` rows per
/// block — a single-run [`assemble`].
pub fn encode_v2_with(batch: &ColumnBatch, block_rows: usize) -> Vec<u8> {
    assemble(&[BlockRun::encode_with(batch, block_rows)])
}

// ---------------------------------------------------------------------
// Borrowed (zero-copy) read path
// ---------------------------------------------------------------------

/// A borrowed fixed-width `f64` column: a view straight over one
/// block's little-endian payload bytes, no copy into a `Vec`. Values
/// materialize per access; the payload length is checked against the
/// row count once at construction, so the accessors stay infallible.
///
/// (The container guarantees byte layout, not alignment, so this cannot
/// be a `&[f64]` — each access assembles the 8 little-endian bytes,
/// which the optimizer lowers to a plain unaligned load.)
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnSlice<'a> {
    bytes: &'a [u8],
}

impl<'a> ColumnSlice<'a> {
    /// Wrap a float-column payload carrying exactly `n` doubles.
    fn new(bytes: &'a [u8], n: usize) -> Result<ColumnSlice<'a>> {
        if bytes.len() != n * 8 {
            return Err(Error::parse("ndtc float column (wrong size)", ""));
        }
        Ok(ColumnSlice { bytes })
    }

    /// The empty column — what a skipped column presents as.
    pub const fn empty() -> ColumnSlice<'static> {
        ColumnSlice { bytes: &[] }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`-th value. Panics if `i >= len()`, like slice indexing.
    pub fn get(&self, i: usize) -> f64 {
        f64_at(self.bytes, i)
    }

    /// Iterate the values in row order. The iterator borrows only the
    /// container bytes, so it outlives the `ColumnSlice` handle itself.
    /// Built on `chunks_exact` so the hot loop carries no per-element
    /// bounds checks — the borrowed scan must not pay per-value for
    /// skipping the owned path's `Vec` materialization.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.bytes.chunks_exact(8).map(|raw| {
            let mut le = [0u8; 8];
            le.copy_from_slice(raw);
            f64::from_bits(u64::from_le_bytes(le))
        })
    }
}

/// Caller-owned decode arena for the varint/dictionary columns of the
/// borrowed read path. [`ColumnReader::scan_counted`] clears these
/// vectors per block but never shrinks them, so after the first block
/// has sized them a scan over any number of further blocks performs
/// zero per-block heap allocations — the regression guard in
/// `tests/alloc_guard.rs` pins exactly that.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    dates: Vec<Date>,
    countries: Vec<CountryCode>,
    asns: Vec<Asn>,
    country_dict: Vec<CountryCode>,
    asn_dict: Vec<Asn>,
}

impl DecodeScratch {
    /// A fresh (cold) arena. Reuse one across blocks, shards and whole
    /// range scans; ownership stays with the caller the entire time.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }

    fn reset(&mut self) {
        self.dates.clear();
        self.countries.clear();
        self.asns.clear();
        self.country_dict.clear();
        self.asn_dict.clear();
    }
}

/// One decoded row-group block, borrowed: varint/dictionary columns
/// live in the caller's [`DecodeScratch`] (lifetime `'s`), fixed-width
/// float columns are [`ColumnSlice`] views straight over the container
/// bytes (lifetime `'a`). Columns the [`ColumnSelection`] skipped are
/// empty. The view is only valid inside the scan callback — the next
/// block reuses the scratch underneath it.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a, 's> {
    rows: usize,
    dates: &'s [Date],
    countries: &'s [CountryCode],
    asns: &'s [Asn],
    download: ColumnSlice<'a>,
    upload: ColumnSlice<'a>,
    min_rtt: ColumnSlice<'a>,
    loss: ColumnSlice<'a>,
}

impl<'a, 's> BlockView<'a, 's> {
    /// Rows in this block (populated columns all have this length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The test dates, row order (empty if not selected).
    pub fn dates(&self) -> &'s [Date] {
        self.dates
    }

    /// The client countries, row order (empty if not selected).
    pub fn countries(&self) -> &'s [CountryCode] {
        self.countries
    }

    /// The client ASNs, row order (empty if not selected).
    pub fn asns(&self) -> &'s [Asn] {
        self.asns
    }

    /// The downstream throughputs (Mbit/s), row order.
    pub fn download(&self) -> ColumnSlice<'a> {
        self.download
    }

    /// The upstream throughputs (Mbit/s), row order.
    pub fn upload(&self) -> ColumnSlice<'a> {
        self.upload
    }

    /// The minimum RTTs (ms), row order.
    pub fn min_rtt(&self) -> ColumnSlice<'a> {
        self.min_rtt
    }

    /// The loss rates, row order.
    pub fn loss(&self) -> ColumnSlice<'a> {
        self.loss
    }

    /// Block-wise mirror of [`NdtTest::validate`]: the decoder applies
    /// exactly the range checks the text parser applies per row, so a
    /// corrupt container cannot smuggle out-of-range values past the
    /// aggregation that a corrupt text row would have been rejected at.
    fn validate(&self) -> Result<()> {
        if self
            .download
            .iter()
            .chain(self.upload.iter())
            .any(|v| v < 0.0)
        {
            return Err(Error::invalid("negative throughput"));
        }
        if self.min_rtt.iter().any(|v| v < 0.0) {
            return Err(Error::invalid("negative RTT"));
        }
        if self.loss.iter().any(|v| !(0.0..=1.0).contains(&v)) {
            return Err(Error::invalid("loss rate outside [0,1]"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One footer-index entry: where a row-group block lives and what it
/// can contain. Archive loaders keep a container's entries resident and
/// later decode month windows through [`ColumnReader::window`] without
/// re-reading the footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    offset: usize,
    len: usize,
    rows: usize,
    min_days: i64,
    max_days: i64,
    crc: u32,
    countries: Vec<CountryCode>,
}

impl BlockEntry {
    /// Byte offset of the block from the start of its container (or of
    /// its [`BlockRun`], before assembly).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Byte length of the block.
    pub fn byte_len(&self) -> usize {
        self.len
    }

    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Min/max test day (days since epoch) across the block's rows.
    pub fn day_span(&self) -> (i64, i64) {
        (self.min_days, self.max_days)
    }

    /// The distinct client countries in the block, first-appearance
    /// order.
    pub fn countries(&self) -> &[CountryCode] {
        &self.countries
    }
}

/// Min/max days-since-epoch across `blocks`; `None` when there are none.
fn day_span(blocks: &[BlockEntry]) -> Option<(i64, i64)> {
    let min = blocks.iter().map(|b| b.min_days).min()?;
    let max = blocks.iter().map(|b| b.max_days).max()?;
    Some((min, max))
}

/// A validated view over container bytes held in a caller-owned buffer:
/// a whole container ([`ColumnReader::open`]) or a byte window of one
/// ([`ColumnReader::window`]).
///
/// Opening parses the header and the CRC-protected footer index only —
/// no block bytes are touched. [`ColumnReader::read`] and
/// [`ColumnReader::scan_counted`] then decode exactly the blocks and
/// columns a [`ColumnSelection`] asks for, verifying each decoded
/// block's own CRC on the way.
pub struct ColumnReader<'a> {
    bytes: &'a [u8],
    /// Container offset of `bytes[0]`: 0 for a whole container, the
    /// window's first byte otherwise.
    base: usize,
    rows: usize,
    blocks: Cow<'a, [BlockEntry]>,
}

impl<'a> ColumnReader<'a> {
    /// Validate the header and footer index of a container. Typed errors
    /// for wrong magic, unsupported versions (the retired version 1
    /// included), truncation, index corruption, and any index entry whose
    /// geometry doesn't tile the block region exactly — so every block
    /// offset and length is proven to lie inside `bytes` before anything
    /// is sized or sliced from it.
    pub fn open(bytes: &'a [u8]) -> Result<ColumnReader<'a>> {
        if bytes.len() < HEADER_LEN {
            return Err(Error::parse("ndtc container (truncated)", ""));
        }
        if bytes[..4] != MAGIC {
            return Err(Error::parse("ndtc magic", &format!("{:02x?}", &bytes[..4])));
        }
        if bytes[4] != VERSION {
            return Err(Error::parse(
                "ndtc version 2 (unsupported container version)",
                &bytes[4].to_string(),
            ));
        }
        if bytes.len() < HEADER_LEN + TAIL_LEN {
            return Err(Error::parse("ndtc container (truncated)", ""));
        }
        let tail_at = bytes.len() - TAIL_LEN;
        let mut pos = tail_at;
        let index_len = read_u32(bytes, &mut pos)? as usize;
        let total_rows = read_u64(bytes, &mut pos)?;
        let stored_crc = read_u32(bytes, &mut pos)?;
        let index_start = tail_at
            .checked_sub(index_len)
            .filter(|&s| s >= HEADER_LEN)
            .ok_or_else(|| Error::parse("ndtc index length", &index_len.to_string()))?;
        if crc32(&bytes[index_start..bytes.len() - 4]) != stored_crc {
            return Err(Error::parse("ndtc index checksum (corrupt index)", ""));
        }

        let index = &bytes[index_start..tail_at];
        let mut pos = 0;
        let count = read_uvarint(index, &mut pos)?;
        // Every entry costs at least one byte in the index.
        let count = usize::try_from(count)
            .ok()
            .filter(|&c| c <= index.len())
            .ok_or_else(|| Error::parse("ndtc block count", ""))?;
        let mut blocks = Vec::with_capacity(count);
        let mut expected_offset = HEADER_LEN;
        let mut rows_sum = 0u64;
        for _ in 0..count {
            let offset = read_uvarint(index, &mut pos)?;
            let len = read_uvarint(index, &mut pos)?;
            let rows = read_uvarint(index, &mut pos)?;
            let min_days = read_ivarint(index, &mut pos)?;
            let max_days = read_ivarint(index, &mut pos)?;
            let crc = read_u32(index, &mut pos)?;
            let cc_count = read_uvarint(index, &mut pos)?;
            let (offset, len, rows) = (|| {
                Some((
                    usize::try_from(offset).ok()?,
                    usize::try_from(len).ok()?,
                    usize::try_from(rows).ok()?,
                ))
            })()
            .ok_or_else(|| Error::parse("ndtc index entry", ""))?;
            if rows == 0 || min_days > max_days {
                return Err(Error::parse("ndtc index entry", ""));
            }
            let cc_count = usize::try_from(cc_count)
                .ok()
                .filter(|&c| c >= 1 && c <= rows)
                .ok_or_else(|| Error::parse("ndtc country summary", ""))?;
            let mut countries = Vec::with_capacity(cc_count.min(256));
            for _ in 0..cc_count {
                let end = pos
                    .checked_add(2)
                    .filter(|&e| e <= index.len())
                    .ok_or_else(|| Error::parse("ndtc country summary (truncated)", ""))?;
                let s = std::str::from_utf8(&index[pos..end])
                    .map_err(|_| Error::parse("ndtc country summary entry", ""))?;
                countries.push(CountryCode::new(s)?);
                pos = end;
            }
            // Blocks must tile [header, index) exactly, in order — the
            // index cannot point a reader at overlapping or stray bytes.
            if offset != expected_offset {
                return Err(Error::parse("ndtc block offset (not contiguous)", ""));
            }
            expected_offset = offset
                .checked_add(len)
                .filter(|&e| e <= index_start)
                .ok_or_else(|| Error::parse("ndtc block length (out of bounds)", ""))?;
            rows_sum += rows as u64;
            blocks.push(BlockEntry {
                offset,
                len,
                rows,
                min_days,
                max_days,
                crc,
                countries,
            });
        }
        if pos != index.len() {
            return Err(Error::parse("ndtc index (trailing bytes)", ""));
        }
        if expected_offset != index_start {
            return Err(Error::parse("ndtc index (blocks do not cover body)", ""));
        }
        if rows_sum != total_rows {
            return Err(Error::parse(
                "ndtc footer row count",
                &total_rows.to_string(),
            ));
        }
        let rows = usize::try_from(total_rows).map_err(|_| Error::parse("ndtc row count", ""))?;
        Ok(ColumnReader {
            bytes,
            base: 0,
            rows,
            blocks: Cow::Owned(blocks),
        })
    }

    /// A reader over a byte window of a container whose footer was
    /// validated earlier: `bytes` holds the container's bytes starting at
    /// offset `base`, and `blocks` are entries from that footer (in
    /// container order). A typed error if any block falls outside the
    /// window — say, the file changed since its footer was read.
    pub fn window(
        bytes: &'a [u8],
        base: usize,
        blocks: &'a [BlockEntry],
    ) -> Result<ColumnReader<'a>> {
        let mut rows = 0usize;
        for b in blocks {
            b.offset
                .checked_sub(base)
                .and_then(|start| start.checked_add(b.len))
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| Error::parse("ndtc block (outside the read window)", ""))?;
            rows += b.rows;
        }
        Ok(ColumnReader {
            bytes,
            base,
            rows,
            blocks: Cow::Borrowed(blocks),
        })
    }

    /// Total rows across the reader's blocks.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The reader's footer-index entries, container order.
    pub fn blocks(&self) -> &[BlockEntry] {
        &self.blocks
    }

    /// The reader's footer-index entries, owned — what an archive keeps
    /// resident to decode month windows later.
    pub fn into_blocks(self) -> Vec<BlockEntry> {
        self.blocks.into_owned()
    }

    /// Decode the blocks and columns `selection` asks for.
    pub fn read(&self, selection: &ColumnSelection) -> Result<ColumnBatch> {
        self.read_counted(selection).map(|(batch, _)| batch)
    }

    /// [`ColumnReader::read`], returning decode accounting alongside.
    ///
    /// The owned path is a thin wrapper over the borrowed
    /// [`ColumnReader::scan_counted`]: each block view is appended onto
    /// a fresh [`ColumnBatch`], so the two paths cannot drift — the
    /// copies here are the *only* difference.
    pub fn read_counted(&self, selection: &ColumnSelection) -> Result<(ColumnBatch, ReadStats)> {
        let mut batch = ColumnBatch::default();
        let mut scratch = DecodeScratch::new();
        let stats = self.scan_counted(selection, &mut scratch, |view| {
            batch.dates.extend_from_slice(view.dates);
            batch.countries.extend_from_slice(view.countries);
            batch.asns.extend_from_slice(view.asns);
            batch.download.extend(view.download.iter());
            batch.upload.extend(view.upload.iter());
            batch.min_rtt.extend(view.min_rtt.iter());
            batch.loss.extend(view.loss.iter());
            Ok(())
        })?;
        Ok((batch, stats))
    }

    /// The zero-copy read path: walk the blocks `selection` matches and
    /// hand each to `visit` as a borrowed [`BlockView`] — fixed-width
    /// float columns viewed in place over the container bytes,
    /// varint/dictionary columns decoded into the caller's reusable
    /// [`DecodeScratch`]. All the owned path's integrity checks run
    /// here: per-block CRC, block row count, the index date-span and
    /// country-summary cross-checks, and the value-range validation.
    ///
    /// Blocks arrive in container order; an `Err` from `visit` aborts
    /// the scan. After the first block has warmed the scratch capacity,
    /// the scan performs no per-block heap allocations.
    pub fn scan_counted<F>(
        &self,
        selection: &ColumnSelection,
        scratch: &mut DecodeScratch,
        mut visit: F,
    ) -> Result<ReadStats>
    where
        F: FnMut(&BlockView<'a, '_>) -> Result<()>,
    {
        let mut stats = ReadStats {
            blocks_total: self.blocks.len(),
            ..ReadStats::default()
        };
        let want = selection.columns;
        for entry in self.blocks.iter() {
            if !selection.matches(entry) {
                continue;
            }
            stats.blocks_decoded += 1;
            // In range by construction (`open` tiles the body, `window`
            // bounds every block), so plain slicing cannot panic.
            let start = entry.offset - self.base;
            let block = &self.bytes[start..start + entry.len];
            if crc32(block) != entry.crc {
                return Err(Error::parse("ndtc checksum (corrupt block)", ""));
            }
            let mut pos = 0;
            let n = read_uvarint(block, &mut pos)?;
            if n != entry.rows as u64 {
                return Err(Error::parse("ndtc block row count", &n.to_string()));
            }
            let n = entry.rows;
            let sections = split_column_sections(block, &mut pos)?;
            if pos != block.len() {
                return Err(Error::parse("ndtc container (trailing bytes)", ""));
            }
            scratch.reset();
            let mut touched = |payload: &[u8]| {
                stats.columns_decoded += 1;
                stats.bytes_decoded += payload.len();
            };
            if want.contains(ColumnSet::DATES) {
                touched(sections[0]);
                let span = decode_date_payload_into(sections[0], n, &mut scratch.dates)?;
                // Cross-check the index span against the decoded column:
                // a lying index must not silently mis-prune future reads.
                if span != Some((entry.min_days, entry.max_days)) {
                    return Err(Error::parse("ndtc index date span (mismatch)", ""));
                }
            }
            if want.contains(ColumnSet::COUNTRIES) {
                touched(sections[1]);
                decode_country_payload_into(
                    sections[1],
                    n,
                    &mut scratch.countries,
                    &mut scratch.country_dict,
                )?;
                if scratch.country_dict != entry.countries {
                    return Err(Error::parse("ndtc index country summary (mismatch)", ""));
                }
            }
            if want.contains(ColumnSet::ASNS) {
                touched(sections[2]);
                decode_asn_payload_into(sections[2], n, &mut scratch.asns, &mut scratch.asn_dict)?;
            }
            let mut floats = [ColumnSlice::empty(); 4];
            for (slot, (set, section)) in floats.iter_mut().zip([
                (ColumnSet::DOWNLOAD, sections[3]),
                (ColumnSet::UPLOAD, sections[4]),
                (ColumnSet::MIN_RTT, sections[5]),
                (ColumnSet::LOSS, sections[6]),
            ]) {
                if want.contains(set) {
                    touched(section);
                    *slot = ColumnSlice::new(section, n)?;
                }
            }
            let [download, upload, min_rtt, loss] = floats;
            let view = BlockView {
                rows: n,
                dates: &scratch.dates,
                countries: &scratch.countries,
                asns: &scratch.asns,
                download,
                upload,
                min_rtt,
                loss,
            };
            view.validate()?;
            visit(&view)?;
        }
        Ok(stats)
    }

    /// The min/max days-since-epoch across the reader's blocks, straight
    /// from the validated footer index — `None` when it has no blocks.
    pub fn day_span(&self) -> Option<(i64, i64)> {
        day_span(&self.blocks)
    }
}

/// Decode one `.ndtc` container fully. Rejects wrong magic, unsupported
/// versions, truncated or oversized blocks, footer/checksum mismatches
/// and out-of-range row values — all as typed errors.
pub fn decode(bytes: &[u8]) -> Result<ColumnBatch> {
    read_batch(bytes, &ColumnSelection::all())
}

/// Decode one `.ndtc` container through a [`ColumnSelection`]: only the
/// blocks and columns it asks for.
pub fn read_batch(bytes: &[u8], selection: &ColumnSelection) -> Result<ColumnBatch> {
    ColumnReader::open(bytes)?.read(selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    fn rows() -> Vec<NdtTest> {
        vec![
            NdtTest {
                date: Date::ymd(2019, 7, 14),
                country: country::VE,
                asn: Asn(8048),
                download_mbps: 0.87,
                upload_mbps: 0.31,
                min_rtt_ms: 58.2,
                loss_rate: 0.012,
            },
            NdtTest {
                date: Date::ymd(2019, 7, 2),
                country: country::VE,
                asn: Asn(8048),
                download_mbps: 1.25,
                upload_mbps: 0.5,
                min_rtt_ms: 44.0,
                loss_rate: 0.0,
            },
            NdtTest {
                date: Date::ymd(2019, 7, 30),
                country: country::BR,
                asn: Asn(28573),
                download_mbps: 22.5,
                upload_mbps: 11.0,
                min_rtt_ms: 12.0,
                loss_rate: 1.0,
            },
        ]
    }

    /// One container holding `rows` in default-size blocks.
    fn container(rows: &[NdtTest]) -> Vec<u8> {
        encode_v2(&ColumnBatch::from_rows(rows))
    }

    #[test]
    fn roundtrip_preserves_rows_exactly() {
        let rows = rows();
        for block_rows in [1, 2, 3, 4096] {
            let bytes = encode_v2_with(&ColumnBatch::from_rows(&rows), block_rows);
            let decoded = decode(&bytes).unwrap();
            assert_eq!(
                decoded.iter().collect::<Vec<_>>(),
                rows,
                "block_rows {block_rows}"
            );
        }
    }

    #[test]
    fn empty_and_single_row_containers_roundtrip() {
        assert!(decode(&container(&[])).unwrap().is_empty());
        let one = &rows()[..1];
        let decoded = decode(&container(one)).unwrap();
        assert_eq!(decoded.iter().collect::<Vec<_>>(), one);
    }

    #[test]
    fn container_header_is_frozen() {
        // Format-version guard: the first five bytes of every container
        // are the magic followed by the version constant. Changing a
        // magic or version byte without a deliberate fixture update here
        // fails CI.
        let bytes = container(&[]);
        assert_eq!(&bytes[..4], b"NDTC");
        assert_eq!(bytes[4], 2);
        assert_eq!(VERSION, 2, "bump this pin together with the constant");
    }

    #[test]
    fn wrong_magic_is_a_typed_error() {
        let mut bytes = container(&rows());
        bytes[0] = b'X';
        match decode(&bytes) {
            Err(Error::Parse { expected, .. }) => assert!(expected.contains("magic")),
            other => panic!("expected a magic error, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        // The retired single-block version 1 and any future version are
        // the same typed error, checked before any length is trusted.
        for version in [1, VERSION + 1] {
            let mut bytes = container(&rows());
            bytes[4] = version;
            match decode(&bytes) {
                Err(Error::Parse { expected, input }) => {
                    assert!(expected.contains("unsupported container version"));
                    assert_eq!(input, version.to_string());
                }
                other => panic!("expected a version error, got {other:?}"),
            }
            assert!(decode(&[b'N', b'D', b'T', b'C', version]).is_err());
        }
    }

    #[test]
    fn corrupted_index_fails_open() {
        let mut bytes = container(&rows());
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF; // flip tail CRC bits
        assert!(matches!(
            ColumnReader::open(&bytes),
            Err(Error::Parse { .. })
        ));
        let mut bytes = container(&rows());
        let len = bytes.len();
        bytes[len - 6] ^= 0x01; // corrupt the tail row count (CRC catches it)
        assert!(ColumnReader::open(&bytes).is_err());
    }

    #[test]
    fn corrupted_block_passes_open_but_fails_decode() {
        // Block corruption is invisible to open() by design — only the
        // index is validated up front — and caught by the per-block CRC
        // the moment the block is decoded.
        let mut bytes = container(&rows());
        bytes[8] ^= 0x40; // inside the first (only) block's payload
        let reader = ColumnReader::open(&bytes).expect("index is intact");
        match reader.read(&ColumnSelection::all()) {
            Err(Error::Parse { expected, .. }) => assert!(expected.contains("checksum")),
            other => panic!("expected a block checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_container_is_a_typed_error() {
        let bytes = container(&rows());
        for cut in [0, 3, 5, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..cut]), Err(Error::Parse { .. })),
                "truncation at {cut} must fail typed"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_rejected_like_the_text_path() {
        // The writer does not validate, so a sealed container with valid
        // checksums can still carry a bad value — only the range check
        // can object.
        let mut bad = rows();
        bad[0].loss_rate = 1.5;
        assert!(matches!(
            decode(&container(&bad)),
            Err(Error::Invalid { .. })
        ));
    }

    #[test]
    fn selective_decode_reads_only_requested_columns() {
        let rows = rows();
        let bytes = container(&rows);
        let reader = ColumnReader::open(&bytes).unwrap();
        let (batch, stats) = reader
            .read_counted(&ColumnSelection::columns(ColumnSet::AGGREGATE))
            .unwrap();
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.dates().len(), rows.len());
        assert_eq!(batch.countries().len(), rows.len());
        assert_eq!(batch.download().len(), rows.len());
        assert!(batch.asns().is_empty());
        assert!(batch.upload().is_empty());
        assert!(batch.min_rtt().is_empty());
        assert!(batch.loss().is_empty());
        assert_eq!(stats.blocks_total, 1);
        assert_eq!(stats.blocks_decoded, 1);
        assert_eq!(stats.columns_decoded, 3);
        assert!(stats.bytes_decoded < bytes.len());
    }

    #[test]
    fn block_pruning_by_country() {
        // One row per block (block_rows = 1): dates Jul 14 / Jul 2 /
        // Jul 30, countries VE / VE / BR.
        let rows = rows();
        let bytes = encode_v2_with(&ColumnBatch::from_rows(&rows), 1);
        let reader = ColumnReader::open(&bytes).unwrap();
        assert_eq!(reader.blocks().len(), 3);

        let sel = ColumnSelection::columns(ColumnSet::ALL).with_country(country::BR);
        let (batch, stats) = reader.read_counted(&sel).unwrap();
        assert_eq!(stats.blocks_decoded, 1);
        assert_eq!(batch.iter().collect::<Vec<_>>(), vec![rows[2]]);

        let sel = ColumnSelection::columns(ColumnSet::ALL).with_country(country::UY);
        let (batch, stats) = reader.read_counted(&sel).unwrap();
        assert_eq!(stats.blocks_decoded, 0);
        assert!(batch.is_empty());
        assert_eq!(stats.bytes_decoded, 0);

        let sel = ColumnSelection::columns(ColumnSet::NONE).with_country(country::VE);
        let (batch, stats) = reader.read_counted(&sel).unwrap();
        assert_eq!(stats.blocks_decoded, 2);
        assert_eq!(stats.columns_decoded, 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn footer_day_span_census() {
        // rows() spans Jul 2 .. Jul 30 2019 regardless of block split.
        let rows = rows();
        let lo = Date::ymd(2019, 7, 2).days_since_epoch();
        let hi = Date::ymd(2019, 7, 30).days_since_epoch();
        for block_rows in [1, 2, 4096] {
            let run = BlockRun::encode_with(&ColumnBatch::from_rows(&rows), block_rows);
            assert_eq!(run.day_span(), Some((lo, hi)));
            let bytes = assemble(&[run]);
            assert_eq!(
                ColumnReader::open(&bytes).unwrap().day_span(),
                Some((lo, hi))
            );
        }
        let empty = container(&[]);
        assert_eq!(ColumnReader::open(&empty).unwrap().day_span(), None);
    }

    /// Three month runs for one country, the middle one empty and the
    /// last one wider than a block.
    fn month_runs(block_rows: usize) -> (Vec<Vec<NdtTest>>, Vec<BlockRun>) {
        let month = |m: u8, n: usize| -> Vec<NdtTest> {
            (0..n)
                .map(|i| NdtTest {
                    date: Date::ymd(2020, m, 1 + (i % 28) as u8),
                    country: country::VE,
                    asn: Asn(8048 + (i as u32 % 3)),
                    download_mbps: 0.5 + i as f64,
                    upload_mbps: 0.25,
                    min_rtt_ms: 40.0,
                    loss_rate: 0.01,
                })
                .collect()
        };
        let months = vec![month(1, 3), month(2, 0), month(3, 7)];
        let runs = months
            .iter()
            .map(|rows| BlockRun::encode_with(&ColumnBatch::from_rows(rows), block_rows))
            .collect();
        (months, runs)
    }

    #[test]
    fn assembled_months_keep_their_single_month_block_bytes() {
        let (months, runs) = month_runs(4);
        let bytes = assemble(&runs);
        let reader = ColumnReader::open(&bytes).unwrap();
        // 1 + 0 + 2 blocks, tiling the body in month order.
        assert_eq!(reader.blocks().len(), 3);
        assert_eq!(reader.rows(), 10);
        let all: Vec<NdtTest> = months.concat();
        assert_eq!(
            reader
                .read(&ColumnSelection::all())
                .unwrap()
                .iter()
                .collect::<Vec<_>>(),
            all
        );
        // Each month's blocks are byte-identical to a container holding
        // that month alone, and so is its footer entry (up to offset).
        let mut at = 0;
        for (rows, run) in months.iter().zip(&runs) {
            let solo = encode_v2_with(&ColumnBatch::from_rows(rows), 4);
            let solo_reader = ColumnReader::open(&solo).unwrap();
            for (s, b) in solo_reader.blocks().iter().zip(&reader.blocks()[at..]) {
                assert_eq!(
                    &solo[s.offset..s.offset + s.len],
                    &bytes[b.offset..b.offset + b.len]
                );
                assert_eq!((s.rows, s.crc, s.day_span()), (b.rows, b.crc, b.day_span()));
            }
            assert_eq!(solo_reader.blocks().len(), run.blocks().len());
            at += run.blocks().len();
        }
        // One run is exactly the single-run writer.
        assert_eq!(
            assemble(&runs[..1]),
            encode_v2_with(&ColumnBatch::from_rows(&months[0]), 4)
        );
    }

    #[test]
    fn a_window_decodes_its_blocks_without_the_rest_of_the_file() {
        let (months, runs) = month_runs(4);
        let bytes = assemble(&runs);
        let reader = ColumnReader::open(&bytes).unwrap();
        // The March blocks: a contiguous byte span at the end of the body.
        let march = &reader.blocks()[1..];
        let start = march[0].offset();
        let end = march[1].offset() + march[1].byte_len();
        let window = ColumnReader::window(&bytes[start..end], start, march).unwrap();
        assert_eq!(window.rows(), months[2].len());
        let (batch, stats) = window.read_counted(&ColumnSelection::all()).unwrap();
        assert_eq!(batch.iter().collect::<Vec<_>>(), months[2]);
        assert_eq!(stats.blocks_total, 2);
        assert_eq!(stats.blocks_decoded, 2);
        // A window too short for its blocks is a typed error, not a
        // panic — what a file truncated after its footer was read gives.
        assert!(ColumnReader::window(&bytes[start..end - 1], start, march).is_err());
        assert!(ColumnReader::window(&bytes[start..end], start + 1, march).is_err());
        // An empty window over no blocks decodes nothing.
        let empty = ColumnReader::window(&[], end, &[]).unwrap();
        assert_eq!(
            empty.read_counted(&ColumnSelection::all()).unwrap().1,
            ReadStats::default()
        );
    }

    #[test]
    fn column_slice_views_values_in_place() {
        let vals = [0.25f64, 7.5, 0.0, 1000.125];
        let mut payload = Vec::new();
        for v in vals {
            put_f64(&mut payload, v);
        }
        let slice = ColumnSlice::new(&payload, vals.len()).unwrap();
        assert_eq!(slice.len(), vals.len());
        assert!(!slice.is_empty());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(slice.get(i).to_bits(), v.to_bits());
        }
        assert_eq!(slice.iter().collect::<Vec<_>>(), vals);
        assert!(ColumnSlice::empty().is_empty());
        assert_eq!(ColumnSlice::empty().len(), 0);
        // A payload whose length disagrees with the row count is a typed
        // error.
        assert!(ColumnSlice::new(&payload, vals.len() + 1).is_err());
        assert!(ColumnSlice::new(&payload[..payload.len() - 1], vals.len()).is_err());
    }

    /// The pre-zero-copy owned decode, kept as a reference
    /// implementation: fresh `Vec`s per block. The proptest below pins
    /// the borrowed scan (and the thin owned wrapper over it)
    /// bit-identical to this.
    fn reference_read_counted(
        reader: &ColumnReader<'_>,
        selection: &ColumnSelection,
    ) -> Result<(ColumnBatch, ReadStats)> {
        let mut stats = ReadStats {
            blocks_total: reader.blocks.len(),
            ..ReadStats::default()
        };
        let mut batch = ColumnBatch::default();
        let want = selection.columns;
        for entry in reader.blocks.iter() {
            if !selection.matches(entry) {
                continue;
            }
            stats.blocks_decoded += 1;
            let block = &reader.bytes[entry.offset..entry.offset + entry.len];
            if crc32(block) != entry.crc {
                return Err(Error::parse("ndtc checksum (corrupt block)", ""));
            }
            let mut pos = 0;
            let n = read_uvarint(block, &mut pos)?;
            if n != entry.rows as u64 {
                return Err(Error::parse("ndtc block row count", &n.to_string()));
            }
            let n = entry.rows;
            let sections = split_column_sections(block, &mut pos)?;
            let mut touched = |payload: &[u8]| {
                stats.columns_decoded += 1;
                stats.bytes_decoded += payload.len();
            };
            if want.contains(ColumnSet::DATES) {
                touched(sections[0]);
                let mut dates = Vec::new();
                decode_date_payload_into(sections[0], n, &mut dates)?;
                batch.dates.extend(dates);
            }
            if want.contains(ColumnSet::COUNTRIES) {
                touched(sections[1]);
                let (mut countries, mut dict) = (Vec::new(), Vec::new());
                decode_country_payload_into(sections[1], n, &mut countries, &mut dict)?;
                batch.countries.extend(countries);
            }
            if want.contains(ColumnSet::ASNS) {
                touched(sections[2]);
                let (mut asns, mut dict) = (Vec::new(), Vec::new());
                decode_asn_payload_into(sections[2], n, &mut asns, &mut dict)?;
                batch.asns.extend(asns);
            }
            for (set, section, col) in [
                (ColumnSet::DOWNLOAD, sections[3], &mut batch.download),
                (ColumnSet::UPLOAD, sections[4], &mut batch.upload),
                (ColumnSet::MIN_RTT, sections[5], &mut batch.min_rtt),
                (ColumnSet::LOSS, sections[6], &mut batch.loss),
            ] {
                if want.contains(set) {
                    touched(section);
                    if section.len() != n * 8 {
                        return Err(Error::parse("ndtc float column (wrong size)", ""));
                    }
                    col.extend(
                        section
                            .chunks_exact(8)
                            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
                    );
                }
            }
        }
        batch.validate()?;
        Ok((batch, stats))
    }

    #[test]
    fn scratch_capacity_survives_blocks_and_scans() {
        let rows = rows();
        let bytes = encode_v2_with(&ColumnBatch::from_rows(&rows), 1);
        let reader = ColumnReader::open(&bytes).unwrap();
        let mut scratch = DecodeScratch::new();
        let sel = ColumnSelection::all();
        let mut seen = 0usize;
        let stats = reader
            .scan_counted(&sel, &mut scratch, |view| {
                seen += view.rows();
                assert_eq!(view.dates().len(), view.rows());
                assert_eq!(view.download().len(), view.rows());
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, rows.len());
        assert_eq!(stats.blocks_decoded, 3);
        let warm = scratch.dates.capacity();
        assert!(warm >= 1);
        // A second scan with the same arena must not grow it — every
        // block fits in the capacity the first scan established.
        let stats2 = reader.scan_counted(&sel, &mut scratch, |_| Ok(())).unwrap();
        assert_eq!(stats2, stats);
        assert_eq!(scratch.dates.capacity(), warm);
    }

    #[test]
    fn column_set_algebra() {
        assert!(ColumnSet::ALL.contains(ColumnSet::AGGREGATE));
        assert!(ColumnSet::AGGREGATE.contains(ColumnSet::DATES));
        assert!(ColumnSet::AGGREGATE.contains(ColumnSet::COUNTRIES));
        assert!(ColumnSet::AGGREGATE.contains(ColumnSet::DOWNLOAD));
        assert!(!ColumnSet::AGGREGATE.contains(ColumnSet::LOSS));
        assert!(ColumnSet::NONE.is_empty());
        assert_eq!(ColumnSet::AGGREGATE.count(), 3);
        assert_eq!(ColumnSet::ALL.count(), 7);
        assert_eq!(ColumnSet::DATES.union(ColumnSet::LOSS).count(), 2);
    }

    #[test]
    fn shard_format_name() {
        assert_eq!(ShardFormat::Columnar.to_string(), "columnar");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_row(day: u8, cc: usize, asn: u32, f: (f64, f64, f64, f64)) -> NdtTest {
            let codes = [country::VE, country::BR, country::AR, country::UY];
            NdtTest {
                date: Date::ymd(2007 + (asn % 17) as i32, 1 + (asn % 12) as u8, day),
                country: codes[cc % codes.len()],
                asn: Asn(asn),
                download_mbps: f.0,
                upload_mbps: f.1,
                min_rtt_ms: f.2,
                loss_rate: f.3,
            }
        }

        proptest! {
            /// rows → columnar encode → decode → rows is bit-identical
            /// (every float compared by `f64::to_bits`) for arbitrary
            /// generated rows, including empty and single-row ones
            /// (`size 0..` covers both), at a block size small enough to
            /// split every multi-row batch.
            #[test]
            fn rows_columnar_rows_are_bit_identical(
                specs in proptest::collection::vec(
                    (1u8..=28, 0usize..4, 1u32..400_000,
                     (0.0f64..500.0, 0.0f64..200.0, 0.0f64..900.0, 0.0f64..1.0)),
                    0..40,
                )
            ) {
                let rows: Vec<NdtTest> = specs
                    .into_iter()
                    .map(|(day, cc, asn, f)| arb_row(day, cc, asn, f))
                    .collect();
                let want: Vec<_> = rows.iter().map(crate::ndt::row_bits).collect();
                let batch = ColumnBatch::from_rows(&rows);
                for block_rows in [3usize, 4096] {
                    let decoded = decode(&encode_v2_with(&batch, block_rows)).unwrap();
                    let back: Vec<_> = decoded.iter().map(|r| crate::ndt::row_bits(&r)).collect();
                    prop_assert_eq!(&back, &want);
                }
            }

            /// The borrowed scan is bit-identical to the owned decode
            /// for *every* `ColumnSelection` — all 128 column subsets,
            /// optional country pruning, rows split at
            /// arbitrary block sizes. `read_counted` (the thin wrapper
            /// over the scan) and a scan-collected batch must both match
            /// the reference owned implementation, `ReadStats` included.
            #[test]
            fn borrowed_scan_matches_owned_decode_for_every_selection(
                specs in proptest::collection::vec(
                    (1u8..=28, 0usize..4, 1u32..400_000,
                     (0.0f64..500.0, 0.0f64..200.0, 0.0f64..900.0, 0.0f64..1.0)),
                    0..48,
                ),
                col_mask in 0u8..=0x7f,
                block_rows in 1usize..9,
                country_pick in proptest::option::of(0usize..4),
            ) {
                let rows: Vec<NdtTest> = specs
                    .into_iter()
                    .map(|(day, cc, asn, f)| arb_row(day, cc, asn, f))
                    .collect();
                let bytes = encode_v2_with(&ColumnBatch::from_rows(&rows), block_rows);
                let reader = ColumnReader::open(&bytes).unwrap();

                let mut columns = ColumnSet::NONE;
                for (bit, set) in [
                    ColumnSet::DATES, ColumnSet::COUNTRIES, ColumnSet::ASNS,
                    ColumnSet::DOWNLOAD, ColumnSet::UPLOAD, ColumnSet::MIN_RTT,
                    ColumnSet::LOSS,
                ].into_iter().enumerate() {
                    if col_mask & (1 << bit) != 0 {
                        columns = columns.union(set);
                    }
                }
                let mut sel = ColumnSelection::columns(columns);
                if let Some(i) = country_pick {
                    let codes = [country::VE, country::BR, country::AR, country::UY];
                    sel = sel.with_country(codes[i]);
                }

                let (want_batch, want_stats) =
                    reference_read_counted(&reader, &sel).unwrap();
                let (owned_batch, owned_stats) = reader.read_counted(&sel).unwrap();
                prop_assert_eq!(&owned_batch, &want_batch);
                prop_assert_eq!(owned_stats, want_stats);

                let mut scratch = DecodeScratch::new();
                let mut scanned = ColumnBatch::default();
                let scan_stats = reader
                    .scan_counted(&sel, &mut scratch, |view| {
                        scanned.dates.extend_from_slice(view.dates());
                        scanned.countries.extend_from_slice(view.countries());
                        scanned.asns.extend_from_slice(view.asns());
                        scanned.download.extend(view.download().iter());
                        scanned.upload.extend(view.upload().iter());
                        scanned.min_rtt.extend(view.min_rtt().iter());
                        scanned.loss.extend(view.loss().iter());
                        Ok(())
                    })
                    .unwrap();
                prop_assert_eq!(&scanned, &want_batch);
                prop_assert_eq!(scan_stats, want_stats);
            }

            /// Arbitrary byte mutations never panic the decoder — they
            /// either still decode (only when the CRC happens to match)
            /// or fail with a typed error.
            #[test]
            fn mutated_containers_fail_typed(
                idx in 0usize..200,
                mask in 1u8..=255,
            ) {
                let mut mutated = container(&rows());
                let i = idx % mutated.len();
                mutated[i] ^= mask;
                let _ = decode(&mutated); // must not panic
            }
        }

        fn rows() -> Vec<NdtTest> {
            super::rows()
        }

        fn container(rows: &[NdtTest]) -> Vec<u8> {
            super::container(rows)
        }
    }
}
