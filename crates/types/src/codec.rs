//! Hand-rolled binary codec primitives: varints, zigzag, fixed-width
//! little-endian floats, CRC-32 and FNV-1a — the building blocks of the
//! `.ndtc` columnar shard container (`lacnet-mlab::columnar`) and of the
//! incremental-refresh shard manifest.
//!
//! The workspace builds fully offline, so these are implemented here
//! rather than pulled from crates.io. Every encoder has a matching
//! bounds-checked decoder that returns a typed [`Error`] instead of
//! panicking on truncated or corrupt input.

use crate::error::{Error, Result};

/// Append `v` as an unsigned LEB128 varint (1–10 bytes).
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read an unsigned LEB128 varint at `*pos`, advancing `*pos` past it.
pub fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| Error::parse("varint (truncated input)", ""))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(Error::parse("varint (overflows u64)", ""));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::parse("varint (more than 10 bytes)", ""));
        }
    }
}

/// ZigZag-map a signed value so small magnitudes stay small varints.
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as a zigzag varint.
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, zigzag(v));
}

/// Read a zigzag varint at `*pos`.
pub fn read_ivarint(bytes: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_uvarint(bytes, pos)?))
}

/// Append `v` as 8 little-endian bytes (IEEE-754 bit pattern, exact).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// The `i`-th `f64` of a fixed-width little-endian column, without a
/// cursor — the zero-copy `ColumnSlice` accessor. Callers are expected
/// to have length-checked the payload once up front (`(i + 1) * 8 <=
/// bytes.len()`); out-of-bounds indexing panics like slice indexing.
pub fn f64_at(bytes: &[u8], i: usize) -> f64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    f64::from_bits(u64::from_le_bytes(raw))
}

/// Append `v` as 4 little-endian bytes.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a `u32` stored by [`put_u32`] at `*pos`.
pub fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| Error::parse("u32 (truncated input)", ""))?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(u32::from_le_bytes(raw))
}

/// Append `v` as 8 little-endian bytes.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a `u64` stored by [`put_u64`] at `*pos`.
pub fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| Error::parse("u64 (truncated input)", ""))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(raw))
}

/// The CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup
/// tables for slicing-by-16, built at compile time. `tables[0]` is the
/// classic one-byte-at-a-time table; `tables[t]` advances a byte `t`
/// positions further through the register, so sixteen table lookups
/// retire sixteen input bytes per step.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the shard-footer checksum. Slicing-by-16:
/// bit-identical to the byte-at-a-time definition, but verification no
/// longer dominates block decode on multi-megabyte containers.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let mut stride: [u8; 16] = chunk.try_into().expect("16-byte chunk");
        for (byte, reg) in stride.iter_mut().zip(crc.to_le_bytes()) {
            *byte ^= reg;
        }
        // Byte `k` of the stride still has `15 - k` bytes to travel
        // through the register, so it is looked up in `t[15 - k]`.
        crc = 0;
        for (k, &byte) in stride.iter().enumerate() {
            crc ^= t[15 - k][usize::from(byte)];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit hash — the shard-manifest fingerprint/content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// FNV-1a 64-bit state fed piece by piece. As a [`std::fmt::Write`] sink it
/// hashes formatted text without building it: writing
/// `format_args!("a/{n}")` into it gives `fnv1a64(format!("a/{n}"))`.
pub(crate) struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The empty-input state.
    pub(crate) const fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Feed `bytes`.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub(crate) const fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 255, 300, 1 << 20, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len(), "consumed exactly the encoding of {v}");
        }
    }

    #[test]
    fn ivarint_roundtrip_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 719_468, -719_468] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn ten_byte_varints_pin_the_shift_63_boundary() {
        // The widest legal varint: nine continuation bytes then 0x01 —
        // exactly the top bit of the u64 — decodes to u64::MAX.
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut pos = 0;
        assert_eq!(read_uvarint(&max, &mut pos).unwrap(), u64::MAX);
        assert_eq!(pos, 10);
        // One step past it: a tenth byte carrying more than that single
        // bit would need a 65th value bit. Rejected, not wrapped — the
        // guard fires on the byte itself, before any shift overflows.
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(read_uvarint(&over, &mut pos).is_err());
        // 0x02 in the tenth byte is the smallest overflowing payload.
        let barely = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut pos = 0;
        assert!(read_uvarint(&barely, &mut pos).is_err());
        // The same wire bytes read as a zigzag varint are i64::MIN — the
        // signed extreme rides the unsigned one.
        let mut pos = 0;
        assert_eq!(read_ivarint(&max, &mut pos).unwrap(), i64::MIN);
        let mut buf = Vec::new();
        put_ivarint(&mut buf, i64::MIN);
        assert_eq!(buf, max);
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut pos = 0;
        assert!(read_uvarint(&[], &mut pos).is_err());
        let mut pos = 0;
        assert!(
            read_uvarint(&[0x80, 0x80], &mut pos).is_err(),
            "unterminated"
        );
        let mut pos = 0;
        assert!(read_u32(&[1], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_u64(&[1, 2, 3, 4], &mut pos).is_err());
    }

    #[test]
    fn oversized_varint_is_rejected() {
        // 11 continuation bytes can never be a valid u64 varint.
        let bytes = [0xFFu8; 11];
        let mut pos = 0;
        assert!(read_uvarint(&bytes, &mut pos).is_err());
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, f64::NAN] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            assert_eq!(f64_at(&buf, 0).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for the IEEE polynomial (all tail:
        // nine bytes is less than one 16-byte stride).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_slicing_matches_bytewise_definition_at_every_length() {
        // One-byte-at-a-time reference, straight from the definition.
        let reference = |bytes: &[u8]| -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        // Every length through several 16-byte slicing strides, so each
        // remainder of 0..=15 tail bytes is checked after no stride, one
        // stride and several.
        let data: Vec<u8> = (0..112u32)
            .map(|i| (i.wrapping_mul(197) >> 3) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"shard/VE"), fnv1a64(b"shard/BR"));
    }
}
