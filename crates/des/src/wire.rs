//! The one binary codec: little-endian `put_*` writers and the checked
//! [`WireReader`], behind barrier frames (boundary events, MPI metadata),
//! trace files, result-cache entries and `dfsim-qtable` files. `f64`s
//! travel as raw bits, lengths as `u32` words. Every read names what it
//! reads; a short input is [`WireError::Truncated`], a bad one (unknown
//! tag, bad UTF-8) [`WireError::Malformed`], both at a byte offset counted
//! from the reader's base. Decoders never panic.

// Codec over external input: a short or corrupt input must surface as a
// named error, never as a panic or a silently wrapped value.
#![deny(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::integer_division
)]

use std::ops::{Deref, DerefMut};

/// Append one byte.
#[inline]
pub fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}
/// Append a little-endian `u16`.
#[inline]
pub fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}
/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}
/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}
/// Append an `f64` as its raw bits.
#[inline]
pub fn put_f64(b: &mut Vec<u8>, v: f64) {
    put_u64(b, v.to_bits());
}
/// Append a `u32` length word and the string's bytes.
pub fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, len_u32(s.len(), "a string length"));
    b.extend_from_slice(s.as_bytes());
}
/// Append a presence byte and the value (0 when absent).
pub fn put_opt_u64(b: &mut Vec<u8>, v: Option<u64>) {
    put_u8(b, u8::from(v.is_some()));
    put_u64(b, v.unwrap_or(0));
}
/// Append a presence byte and the value's raw bits (0.0 when absent).
pub fn put_opt_f64(b: &mut Vec<u8>, v: Option<f64>) {
    put_u8(b, u8::from(v.is_some()));
    put_f64(b, v.unwrap_or(0.0));
}

/// Encode-side length word. Every length the codecs write is bounded far
/// below `u32::MAX` by construction; a wrapped word would corrupt the output.
#[expect(
    clippy::expect_used,
    reason = "writer-side invariant: codec lengths are bounded far below u32::MAX by construction, and wrapping the length word would corrupt the blob, so a breach must stop the writer"
)]
#[inline]
pub fn len_u32(n: usize, what: &'static str) -> u32 {
    u32::try_from(n).expect(what)
}

/// An owned frame under construction: a `Vec<u8>` (it derefs to one) that
/// the `put_*` functions write into.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, yielding the frame.
    pub fn into_frame(self) -> Vec<u8> {
        self.buf
    }
}

impl Deref for WireWriter {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for WireWriter {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

/// Why a [`WireReader`] read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field.
    Truncated {
        /// Offset where the input gave out.
        offset: u64,
        /// What was being read.
        what: &'static str,
    },
    /// The input is structurally invalid.
    Malformed {
        /// Offset of the offending field.
        offset: u64,
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { offset, what } => {
                write!(f, "truncated: input ends at byte {offset} while reading {what}")
            }
            WireError::Malformed { offset, msg } => write!(f, "byte {offset}: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A checked little-endian reader over one frame, payload or blob: every
/// read names what it reads and fails with a [`WireError`] at its offset.
#[derive(Debug)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Offset of `data[0]` within the enclosing input, for error messages.
    base: u64,
}

impl<'a> WireReader<'a> {
    /// A reader over a standalone input (error offsets count from its
    /// start).
    pub fn new(data: &'a [u8]) -> Self {
        Self::at(data, 0)
    }

    /// A reader over a slice that starts at `base` of a larger input (a
    /// frame payload inside a file), so error offsets count from the file.
    pub fn at(data: &'a [u8], base: u64) -> Self {
        Self { data, pos: 0, base }
    }

    /// A raw byte slice of known length (length-prefixed embedded blobs).
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n);
        let s = end.and_then(|end| self.data.get(self.pos..end)).ok_or_else(|| self.short(what))?;
        self.pos += n;
        Ok(s)
    }

    /// A fixed-width field.
    #[inline]
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let rest = self.data.get(self.pos..).unwrap_or_default();
        let a = *rest.first_chunk::<N>().ok_or_else(|| self.short(what))?;
        self.pos += N;
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let [b] = self.take(what)?;
        Ok(b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        self.take(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        self.take(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        self.take(what).map(u64::from_le_bytes)
    }

    /// An `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u32` length/count word as a `usize`.
    pub fn len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.u32(what)?;
        self.host(u64::from(v), what)
    }

    /// A `u64` count word as a `usize` (a 32-bit replay of a 64-bit run's
    /// statistics may not fit).
    pub fn count64(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.u64(what)?;
        self.host(v, what)
    }

    /// A count word as a host `usize`: a named error, never a silent wrap,
    /// where the host is too narrow.
    fn host(&self, v: u64, what: &'static str) -> Result<usize, WireError> {
        usize::try_from(v)
            .map_err(|_| self.bad(format!("{what}: count {v} exceeds the host address width")))
    }

    /// A `u32`-counted list, each element read by `read`. The reservation
    /// is capped by the bytes left (an element takes at least one), so a
    /// corrupt count cannot allocate more than the input could hold.
    pub fn list<T, E: From<WireError>>(
        &mut self,
        what: &'static str,
        mut read: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.len(what)?;
        let mut v = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            v.push(read(self)?);
        }
        Ok(v)
    }

    /// A length-prefixed UTF-8 string (see [`put_str`]).
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.len(what)?;
        let at = self.offset();
        let bytes = self.bytes(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed {
            offset: at,
            msg: format!("{what} is not valid UTF-8"),
        })
    }

    /// An optional `u64` (see [`put_opt_u64`]).
    pub fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, WireError> {
        let has = self.u8(what)? != 0;
        let v = self.u64(what)?;
        Ok(has.then_some(v))
    }

    /// An optional `f64` (see [`put_opt_f64`]).
    pub fn opt_f64(&mut self, what: &'static str) -> Result<Option<f64>, WireError> {
        let has = self.u8(what)? != 0;
        let v = self.f64(what)?;
        Ok(has.then_some(v))
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Whether the whole input has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The reader's position, counted from its base.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// A [`WireError::Truncated`] at the end of the input.
    fn short(&self, what: &'static str) -> WireError {
        WireError::Truncated { offset: self.base + self.data.len() as u64, what }
    }

    /// A [`WireError::Malformed`] at the reader's position.
    pub fn bad(&self, msg: String) -> WireError {
        WireError::Malformed { offset: self.offset(), msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let mut w = WireWriter::new();
        put_u8(&mut w, 7);
        put_u16(&mut w, 300);
        put_u32(&mut w, 70_000);
        put_u64(&mut w, u64::MAX - 1);
        put_f64(&mut w, -1.5);
        w.extend_from_slice(b"abc");
        let frame = w.into_frame();
        let mut r = WireReader::new(&frame);
        assert_eq!(r.u8("u8").unwrap(), 7);
        assert_eq!(r.u16("u16").unwrap(), 300);
        assert_eq!(r.u32("u32").unwrap(), 70_000);
        assert_eq!(r.u64("u64").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64("f64").unwrap(), -1.5);
        assert_eq!(r.bytes(3, "bytes").unwrap(), b"abc");
        assert!(r.is_empty());
    }

    #[test]
    fn cursor_reads_back_what_the_writers_wrote() {
        let mut b = Vec::new();
        put_u8(&mut b, 7);
        put_u16(&mut b, 0xBEEF);
        put_u32(&mut b, 70_000);
        put_u64(&mut b, u64::MAX - 1);
        put_f64(&mut b, -0.0);
        put_str(&mut b, "Q-adp");
        put_opt_u64(&mut b, Some(9));
        put_opt_u64(&mut b, None);
        put_opt_f64(&mut b, Some(f64::NAN));
        put_u32(&mut b, len_u32(3, "a blob length"));
        b.extend_from_slice(b"abc");
        let mut c = WireReader::new(&b);
        assert_eq!(c.u8("u8").unwrap(), 7);
        assert_eq!(c.u16("u16").unwrap(), 0xBEEF);
        assert_eq!(c.u32("u32").unwrap(), 70_000);
        assert_eq!(c.count64("u64").unwrap() as u64, u64::MAX - 1);
        assert_eq!(c.f64("f64").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.str("str").unwrap(), "Q-adp");
        assert_eq!(c.opt_u64("some").unwrap(), Some(9));
        assert_eq!(c.opt_u64("none").unwrap(), None);
        assert!(c.opt_f64("nan").unwrap().unwrap().is_nan());
        let n = c.len("blob length").unwrap();
        assert_eq!(c.bytes(n, "blob").unwrap(), b"abc");
        let end = b.len() as u64;
        assert!(
            matches!(c.u8("past the end"), Err(WireError::Truncated { offset, .. }) if offset == end)
        );
    }

    #[test]
    fn cursor_errors_are_named_and_carry_file_offsets() {
        // A short read names where the data ends, counted from the file.
        let mut c = WireReader::at(&[1, 2, 3], 100);
        let e = c.u32("a count").unwrap_err();
        assert!(matches!(e, WireError::Truncated { offset: 103, what: "a count" }), "{e}");
        // A length word larger than the payload is a short read, not an
        // allocation; bad UTF-8 and `bad` name the position they stopped at.
        let mut b = Vec::new();
        put_u32(&mut b, u32::MAX);
        assert!(matches!(WireReader::new(&b).str("a label"), Err(WireError::Truncated { .. })));
        let mut b = Vec::new();
        put_u32(&mut b, 2);
        b.extend_from_slice(&[0xFF, 0xFE]);
        let mut c = WireReader::new(&b);
        let e = c.str("a label").unwrap_err();
        assert!(matches!(e, WireError::Malformed { offset: 4, .. }), "{e}");
        assert!(matches!(c.bad("x".into()), WireError::Malformed { offset: 6, .. }));
    }
}
