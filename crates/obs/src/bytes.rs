//! The one little-endian byte codec behind every binary format in the
//! workspace: the `F2DB` catalog, the `F2CK` checkpoint container, WAL
//! records, frames and segment headers, `FDCSHIP` chunks, `FDCA` planes
//! and the sketch codecs.
//!
//! [`Writer`] appends fields; [`Reader`] takes them back and owns the
//! rules every decoder shares:
//!
//! * integers are little-endian, an `f64` travels as its bit pattern;
//! * counts are `u64` or `u32` prefixes under **one count rule**: a
//!   declared count is rejected when the bytes that remain cannot hold
//!   that many items of their smallest encoding, so no input can size an
//!   allocation beyond its own length;
//! * a header is a magic followed by a `u16` version, accepted from a
//!   version range (so a format can keep reading older versions);
//! * bytes left over after a complete value are detected, not ignored.
//!
//! Every failure is one [`DecodeError`] naming the format being read;
//! each format maps it onto its own public error type.

use std::fmt;
use std::ops::RangeInclusive;

/// Why bytes could not be decoded, and in which format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The format being read (e.g. `"catalog"`).
    pub format: &'static str,
    /// What went wrong.
    pub kind: DecodeErrorKind,
}

/// The failure classes of [`DecodeError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The input ended before a field of the layout.
    Truncated,
    /// The leading magic does not identify the format.
    BadMagic,
    /// The version `found` is outside the versions this build `reads`.
    UnsupportedVersion {
        found: u16,
        reads: RangeInclusive<u16>,
    },
    /// A `declared` count cannot fit in the `remaining` bytes.
    Count { declared: u64, remaining: usize },
    /// This many bytes remain after the complete value.
    TrailingBytes(usize),
    /// A field decoded to a value the format does not define.
    Invalid(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let format = self.format;
        match &self.kind {
            DecodeErrorKind::Truncated => write!(f, "truncated {format}"),
            DecodeErrorKind::BadMagic => write!(f, "bad {format} magic"),
            DecodeErrorKind::UnsupportedVersion { found, reads } => {
                let (min, max) = (reads.start(), reads.end());
                let reads = match min == max {
                    true => format!("v{max}"),
                    false => format!("versions {min} through {max}"),
                };
                write!(
                    f,
                    "unsupported {format} version {found} (this build reads {reads})"
                )
            }
            DecodeErrorKind::Count {
                declared,
                remaining,
            } => write!(
                f,
                "{format} declares {declared} items, more than its remaining {remaining} bytes hold"
            ),
            DecodeErrorKind::TrailingBytes(n) => write!(f, "{n} trailing bytes after {format}"),
            DecodeErrorKind::Invalid(what) => write!(f, "corrupt {format}: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends little-endian fields to a growing buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        let buf = Vec::with_capacity(capacity);
        Writer { buf }
    }

    /// A writer that starts with `magic` and a `u16` `version`.
    pub fn with_header(magic: &[u8], version: u16, capacity: usize) -> Self {
        let mut w = Writer::with_capacity(capacity);
        w.bytes(magic);
        w.u16(version);
        w
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends an `f64` bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u64` count (or length).
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends a `u64`-counted `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.count(vs.len());
        vs.iter().for_each(|&v| self.f64(v));
    }

    /// Appends a `u64`-counted slice of `usize`s, each as a `u64`.
    pub fn usizes(&mut self, vs: &[usize]) {
        self.count(vs.len());
        vs.iter().for_each(|&v| self.u64(v as u64));
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn blob_u32(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }
}

/// The integer fields: written and read alike, little-endian.
macro_rules! int_fields {
    ($($t:ident),*) => {
        impl Writer {$(
            #[doc = concat!("Appends an `", stringify!($t), "`.")]
            pub fn $t(&mut self, v: $t) {
                self.bytes(&v.to_le_bytes());
            }
        )*}

        impl Reader<'_> {$(
            #[doc = concat!("Reads an `", stringify!($t), "`.")]
            pub fn $t(&mut self) -> Result<$t, DecodeError> {
                self.array().map($t::from_le_bytes)
            }
        )*}
    };
}

int_fields!(u8, u16, u32, u64);

/// Takes little-endian fields off a byte slice, front to back.
#[derive(Debug)]
pub struct Reader<'a> {
    format: &'static str,
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; errors name `format`.
    pub fn new(format: &'static str, buf: &'a [u8]) -> Self {
        Reader { format, buf }
    }

    fn error(&self, kind: DecodeErrorKind) -> DecodeError {
        let format = self.format;
        DecodeError { format, kind }
    }

    /// An [`DecodeErrorKind::Invalid`] error in this reader's format.
    pub fn invalid(&self, what: impl Into<String>) -> DecodeError {
        self.error(DecodeErrorKind::Invalid(what.into()))
    }

    /// Takes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(self.error(DecodeErrorKind::Truncated));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// Takes every remaining byte.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    fn version(&self, found: u16, reads: RangeInclusive<u16>) -> Result<u16, DecodeError> {
        if reads.contains(&found) {
            return Ok(found);
        }
        Err(self.error(DecodeErrorKind::UnsupportedVersion { found, reads }))
    }

    /// Checks `magic` and reads the `u16` version that follows it,
    /// accepting any version in `reads`.
    pub fn header(&mut self, magic: &[u8], reads: RangeInclusive<u16>) -> Result<u16, DecodeError> {
        if self.bytes(magic.len())? != magic {
            return Err(self.error(DecodeErrorKind::BadMagic));
        }
        let found = self.u16()?;
        self.version(found, reads)
    }

    /// Reads the one-byte version of the sketch formats and requires it
    /// to be `version`.
    pub fn version_byte(&mut self, version: u8) -> Result<u16, DecodeError> {
        let found = self.u8()?;
        self.version(found.into(), version.into()..=version.into())
    }

    /// The count rule: `declared` items of at least `item_bytes` bytes
    /// each must fit in the bytes that remain.
    pub fn check_count(&self, declared: u64, item_bytes: usize) -> Result<usize, DecodeError> {
        let remaining = self.buf.len();
        if declared > (remaining / item_bytes.max(1)) as u64 {
            return Err(self.error(DecodeErrorKind::Count {
                declared,
                remaining,
            }));
        }
        Ok(declared as usize)
    }

    /// Reads a `u64` count of items at least `item_bytes` long.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, DecodeError> {
        let declared = self.u64()?;
        self.check_count(declared, item_bytes)
    }

    /// Reads a `u32` count of items at least `item_bytes` long.
    pub fn count_u32(&mut self, item_bytes: usize) -> Result<usize, DecodeError> {
        let declared = self.u32()?;
        self.check_count(declared.into(), item_bytes)
    }

    /// Reads a `u64`-counted `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a `u64`-counted vector of `u64`s as `usize`s.
    pub fn usizes(&mut self) -> Result<Vec<usize>, DecodeError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64().map(|v| v as usize)).collect()
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn blob_u32(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()?;
        self.bytes(len as usize)
    }

    /// Requires every byte to have been read.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(self.error(DecodeErrorKind::TrailingBytes(n))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let mut w = Writer::with_header(b"TEST", 3, 64);
        w.u8(7);
        w.u32(123_456);
        w.u64(u64::MAX - 5);
        w.f64(-1.5e10);
        w.f64s(&[1.0, 2.0]);
        w.usizes(&[3, 4, 5]);
        w.blob_u32(b"abc");
        let bytes = w.finish();

        let mut r = Reader::new("test", &bytes);
        assert_eq!(r.header(b"TEST", 1..=3).unwrap(), 3);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.f64().unwrap(), -1.5e10);
        assert_eq!(r.f64s().unwrap(), vec![1.0, 2.0]);
        assert_eq!(r.usizes().unwrap(), vec![3, 4, 5]);
        assert_eq!(r.blob_u32().unwrap(), b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn header_checks_magic_and_version_range() {
        let kind = |bytes: &[u8]| {
            Reader::new("test", bytes)
                .header(b"TEST", 1..=2)
                .unwrap_err()
                .kind
        };
        assert_eq!(kind(b"NOPE\x01\x00"), DecodeErrorKind::BadMagic);
        assert_eq!(kind(b"TE"), DecodeErrorKind::Truncated);
        assert_eq!(kind(b"TEST\x01"), DecodeErrorKind::Truncated);
        let err = Reader::new("test", b"TEST\x63\x00")
            .header(b"TEST", 1..=2)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported test version 99 (this build reads versions 1 through 2)"
        );
        let err = Reader::new("test", &[4]).version_byte(1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported test version 4 (this build reads v1)"
        );
    }

    #[test]
    fn counts_beyond_the_remaining_bytes_are_rejected() {
        let mut w = Writer::default();
        w.count(3);
        w.bytes(&[0; 24]);
        assert_eq!(Reader::new("t", &w.finish()).count(8).unwrap(), 3);

        for declared in [4, 1 << 32, 1 << 40, u64::MAX] {
            let mut w = Writer::default();
            w.u64(declared);
            w.bytes(&[0; 24]);
            let err = Reader::new("t", &w.finish()).count(8).unwrap_err();
            assert_eq!(
                err.kind,
                DecodeErrorKind::Count {
                    declared,
                    remaining: 24
                }
            );
        }
        let err = Reader::new("t", &[0xff, 0xff, 0xff, 0xff])
            .count_u32(16)
            .unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Count { .. }), "{err}");
    }

    #[test]
    fn truncation_and_trailing_bytes_are_detected() {
        let mut w = Writer::default();
        w.f64s(&[1.0, 2.0, 3.0]);
        let bytes = w.finish();
        let mut r = Reader::new("t", &bytes[..bytes.len() - 4]);
        assert!(r.f64s().is_err());
        let mut r = Reader::new("t", &bytes);
        r.u64().unwrap();
        assert_eq!(
            r.finish().unwrap_err().kind,
            DecodeErrorKind::TrailingBytes(24)
        );
        assert_eq!(r.rest().len(), 24);
        r.finish().unwrap();
    }
}
