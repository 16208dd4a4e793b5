//! The workspace's one little-endian byte codec: every format that
//! crosses a process boundary or lands on disk is written and read
//! with it — wire and control frames, checkpoint frames and
//! generation files, postmortem bundles (`bsml-bsp`), WAL records
//! (`bsml-serve`), session snapshots (`bsml-core`) and evaluator
//! snapshots ([`crate::persist`]).
//!
//! The reader is *total*: every method is bounds-checked and returns a
//! typed [`CodecError`] instead of panicking, whatever bytes it is
//! fed — the property the durability and wire fault grids lean on.
//! Counts are validated against the bytes actually remaining, so a
//! corrupted length can never drive an attempted multi-gigabyte
//! allocation.
//!
//! **The envelope.** Every framed format ends in the same trailer: a
//! little-endian `u64` FNV-1a checksum over every byte before it.
//! [`seal`] appends it and [`unseal`] verifies and strips it, so any
//! single-bit flip anywhere in a sealed record — prefix, body or
//! trailer — is rejected. Length prefixes, magics and commit markers
//! stay with each format; only the trailer is shared.

use std::fmt;

/// Why decoding failed. Decoders never panic on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the announced structure did.
    Truncated,
    /// An unknown tag byte for the structure being decoded.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A declared count exceeds what the remaining bytes could hold.
    BadCount,
    /// An embedded string is not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the announced structure ended.
    Trailing(usize),
    /// A length prefix disagrees with the bytes that follow it — a
    /// truncated tail or a corrupted prefix.
    LengthMismatch {
        /// Bytes the prefix claims follow it.
        claimed: u64,
        /// Bytes actually present after the prefix.
        actual: u64,
    },
    /// The FNV-1a trailer does not match the sealed bytes.
    ChecksumMismatch,
    /// An embedded source fragment failed to re-parse.
    Unparsable(String),
    /// Nesting exceeded the decoder's depth bound (corrupt input could
    /// otherwise overflow the stack — a panic in disguise).
    TooDeep,
    /// A back-reference to a structure the input never defined.
    DanglingRef(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input truncated"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadCount => f.write_str("declared count exceeds remaining bytes"),
            CodecError::BadUtf8 => f.write_str("embedded string is not UTF-8"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
            CodecError::LengthMismatch { claimed, actual } => {
                write!(f, "length prefix claims {claimed} byte(s), found {actual}")
            }
            CodecError::ChecksumMismatch => f.write_str("checksum mismatch"),
            CodecError::Unparsable(what) => write!(f, "embedded source does not parse: {what}"),
            CodecError::TooDeep => f.write_str("nesting exceeds decoder depth bound"),
            CodecError::DanglingRef(id) => write!(f, "back-reference to undefined id {id}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the checksum of the [`seal`] trailer.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Seals a record: appends the FNV-1a checksum of everything in `out`.
pub fn seal(out: &mut Vec<u8>) {
    let checksum = fnv1a(out);
    put_u64(out, checksum);
}

/// Verifies a record written by [`seal`] and returns it without its
/// trailer.
///
/// # Errors
///
/// [`CodecError::Truncated`] if there is no room for the trailer,
/// [`CodecError::ChecksumMismatch`] if it does not match.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], CodecError> {
    let body_len = bytes.len().checked_sub(8).ok_or(CodecError::Truncated)?;
    let (body, trailer) = bytes.split_at(body_len);
    if fnv1a(body) == u64::from_le_bytes(trailer.try_into().expect("8 bytes")) {
        Ok(body)
    } else {
        Err(CodecError::ChecksumMismatch)
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends length-prefixed raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian reader.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `u64` count, validated against the remaining length so
    /// a corrupted count cannot drive a huge allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadCount`].
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::BadCount);
        }
        Ok(n as usize)
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads a length-prefixed string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::BadCount`], or
    /// [`CodecError::BadUtf8`].
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads length-prefixed raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadCount`].
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.count()?;
        self.take(n)
    }

    /// Fails with [`CodecError::Trailing`] unless fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Trailing`].
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        put_str(&mut out, "héllo");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_bad_counts_are_typed() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX); // absurd count
        let mut r = ByteReader::new(&out);
        assert_eq!(r.count(), Err(CodecError::BadCount));
        let mut r = ByteReader::new(&out[..3]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        let mut r = ByteReader::new(&[]);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn u32_roundtrips_and_truncates() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xdead_beef);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u32(), Err(CodecError::Truncated));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seal_unseal_roundtrip_and_reject_every_bit_flip() {
        let mut sealed = b"checksummed body".to_vec();
        seal(&mut sealed);
        assert_eq!(unseal(&sealed), Ok(&b"checksummed body"[..]));
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut corrupt = sealed.clone();
                corrupt[i] ^= 1 << bit;
                assert_eq!(unseal(&corrupt), Err(CodecError::ChecksumMismatch));
            }
        }
        for cut in 0..8 {
            assert_eq!(unseal(&sealed[..cut]), Err(CodecError::Truncated));
        }
        let mut empty = Vec::new();
        seal(&mut empty);
        assert_eq!(unseal(&empty), Ok(&[][..]));
    }

    #[test]
    fn finish_reports_trailing_bytes() {
        let mut r = ByteReader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(CodecError::Trailing(2)));
        r.u8().unwrap();
        r.u8().unwrap();
        r.finish().unwrap();
    }
}
