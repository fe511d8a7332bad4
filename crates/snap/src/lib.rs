//! # burst-snap
//!
//! Deterministic binary snapshot primitives shared by every simulator
//! layer: a little-endian [`SnapWriter`]/[`SnapReader`] pair for saving and
//! restoring private component state, plus [`fnv1a64`] for cheap rolling
//! state digests.
//!
//! Every quantity is written as a fixed-width little-endian integer, a
//! canonical LEB128 varint, or a length-prefixed byte string, so the byte
//! stream is identical across hosts and builds — which is what lets
//! checkpoint files be fingerprinted, hashed and compared between the
//! skip-enabled engine and the per-cycle reference oracle.
//!
//! The reader never panics on malformed input: truncated or corrupt
//! streams surface as [`SnapError`] values, mirroring the sweep journal's
//! tolerance of torn tail lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

/// Why a snapshot byte stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected quantity.
    Truncated,
    /// A decoded value is impossible for the target state (bad enum tag,
    /// mismatched collection length, boolean that is neither 0 nor 1).
    Corrupt(&'static str),
    /// The component does not support snapshotting (e.g. a caller-supplied
    /// custom scheduler outside [`Mechanism`](https://docs.rs) coverage).
    Unsupported(&'static str),
}

impl core::fmt::Display for SnapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapError::Truncated => f.write_str("snapshot stream is truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot stream is corrupt: {what}"),
            SnapError::Unsupported(what) => {
                write!(f, "component does not support snapshotting: {what}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash over a byte slice — the simulator's state digest.
///
/// Cheap, dependency-free and stable across hosts; used for checkpoint
/// corruption detection and for the lockstep oracle's per-epoch state
/// comparison.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialises state into a deterministic little-endian byte stream.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// An empty writer over `buf`'s allocation: a loop serialising many
    /// states can hand one buffer back and forth instead of growing a new
    /// one each time.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        SnapWriter { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding the byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the writer, keeping its allocation — the cheap way to
    /// serialise many states through one buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Makes room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an optional `u64` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes an optional `u32` as a presence byte plus the value.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes an optional `u8` as a presence byte plus the value.
    pub fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u8(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes a UTF-8 string as a length-prefixed byte run.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a `u64` as an unsigned LEB128 varint: seven bits per byte,
    /// low groups first, the high bit set on every byte but the last. Small
    /// values take one byte, `u64::MAX` ten. The encoding is canonical (no
    /// trailing zero groups), so equal values always produce equal bytes.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes raw bytes as a length-prefixed run.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes whatever `f` writes as one length-prefixed run, byte-identical
    /// to [`SnapWriter::bytes`] of the same content but without an
    /// intermediate buffer: the length prefix is reserved up front and
    /// patched once `f` returns. Returns the byte range of the run's
    /// payload within [`SnapWriter::as_slice`].
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; the writer's contents are then unspecified.
    pub fn section<E>(
        &mut self,
        f: impl FnOnce(&mut SnapWriter) -> Result<(), E>,
    ) -> Result<core::ops::Range<usize>, E> {
        let prefix = self.buf.len();
        self.u64(0);
        let start = self.buf.len();
        f(self)?;
        let len = (self.buf.len() - start) as u64;
        self.buf[prefix..start].copy_from_slice(&len.to_le_bytes());
        Ok(start..self.buf.len())
    }
}

/// Deserialises state from a byte stream produced by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream has been fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`].
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads a boolean, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("boolean byte out of range")),
        }
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapError::Corrupt("option tag out of range")),
        }
    }

    /// Reads an optional `u32`.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(SnapError::Corrupt("option tag out of range")),
        }
    }

    /// Reads an optional `u8`.
    pub fn opt_u8(&mut self) -> Result<Option<u8>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u8()?)),
            _ => Err(SnapError::Corrupt("option tag out of range")),
        }
    }

    /// Reads a varint written by [`SnapWriter::varint`], rejecting
    /// overlong encodings (a trailing zero group) and values wider than 64
    /// bits as [`SnapError::Corrupt`].
    #[inline]
    pub fn varint(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(SnapError::Corrupt("varint wider than 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(SnapError::Corrupt("overlong varint"));
                }
                return Ok(v);
            }
        }
        // The tenth byte either ends the varint or fails the width check.
        Err(SnapError::Corrupt("varint wider than 64 bits"))
    }

    /// Reads a collection length, validating it against a per-element
    /// lower bound on remaining bytes so a corrupt length cannot trigger a
    /// huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let len = self.usize()?;
        if len
            .checked_mul(min_elem_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(SnapError::Truncated);
        }
        Ok(len)
    }

    /// Reads a string written by [`SnapWriter::str`].
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.seq_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("invalid UTF-8 string"))
    }

    /// Reads a byte run written by [`SnapWriter::bytes`] (or
    /// [`SnapWriter::section`]) as a slice of the underlying buffer,
    /// without copying it.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.seq_len(1)?;
        self.take(len)
    }

    /// Asserts the whole stream was consumed — catches format drift where
    /// a loader reads fewer fields than the saver wrote.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after last field"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        w.opt_u64(Some(9));
        w.opt_u64(None);
        w.opt_u32(Some(5));
        w.opt_u8(Some(1));
        w.str("swim");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u32().unwrap(), Some(5));
        assert_eq!(r.opt_u8().unwrap(), Some(1));
        assert_eq!(r.str().unwrap(), "swim");
        assert_eq!(r.bytes().unwrap(), [1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut w = SnapWriter::new();
        w.u64(123);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn corrupt_lengths_are_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.seq_len(8), Err(SnapError::Truncated));
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(r.opt_u64(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn varints_round_trip_at_every_width_boundary() {
        let values = [0, 1, 127, 128, 16_383, 16_384, 1 << 56, 1 << 63, u64::MAX];
        let mut w = SnapWriter::new();
        for v in values {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
        let width = |v| {
            let mut w = SnapWriter::new();
            w.varint(v);
            w.len()
        };
        assert_eq!(
            [0, 127, 128, 1 << 63, u64::MAX].map(width),
            [1, 1, 2, 10, 10]
        );
    }

    #[test]
    fn hostile_varints_are_rejected_without_panicking() {
        let read = |bytes: &[u8]| SnapReader::new(bytes).varint();
        // Overlong: zero with a continuation, and 127 padded to two bytes.
        assert!(matches!(read(&[0x80, 0x00]), Err(SnapError::Corrupt(_))));
        assert!(matches!(read(&[0xff, 0x00]), Err(SnapError::Corrupt(_))));
        // 2^64: the tenth byte carries a second bit.
        let mut wide = [0x80u8; 10];
        wide[9] = 0x02;
        assert!(matches!(read(&wide), Err(SnapError::Corrupt(_))));
        // Eleven bytes: the tenth still has its continuation bit set.
        let mut long = [0xffu8; 11];
        long[10] = 0x01;
        assert!(matches!(read(&long), Err(SnapError::Corrupt(_))));
        // Cut mid-varint, and an empty stream.
        assert_eq!(read(&[0x80, 0x80]), Err(SnapError::Truncated));
        assert_eq!(read(&[]), Err(SnapError::Truncated));
    }

    #[test]
    fn sections_match_length_prefixed_bytes() {
        let mut nested = SnapWriter::new();
        nested.u8(9);
        let range = nested
            .section(|w| {
                w.u32(7);
                w.varint(300);
                Ok::<(), SnapError>(())
            })
            .unwrap();
        let mut inner = SnapWriter::new();
        inner.u32(7);
        inner.varint(300);
        let mut flat = SnapWriter::new();
        flat.u8(9);
        flat.bytes(inner.as_slice());
        assert_eq!(nested.as_slice(), flat.as_slice());
        assert_eq!(&nested.as_slice()[range], inner.as_slice());
        let bytes = flat.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.bytes().unwrap(), inner.as_slice());
        r.finish().unwrap();
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a64(b"burst");
        assert_eq!(a, fnv1a64(b"burst"));
        assert_ne!(a, fnv1a64(b"burs"));
        assert_ne!(a, fnv1a64(b"bursT"));
        // Known FNV-1a vector: empty input hashes to the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
