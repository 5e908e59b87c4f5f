//! Golden bytes for every binary format: the catalog (`F2DB`), WAL
//! record payloads, the `F2CK` checkpoint container, the `FDCA` approx
//! plane, the `FDCSHIP` chunk (with its WAL frames), and the sketch
//! codecs (`MomentSummary`, `TDigest`, `KeyAccuracy`, `SketchBundle`).
//!
//! Each fixture's encoding is pinned by its length and CRC32, so any
//! change to an on-disk or wire layout — or to an encoder's byte order —
//! fails here. A deliberate format change updates the table together
//! with the format's version.

mod common;

use fdc_wal::crc32;

/// `(fixture, encoded length, crc32 of the encoding)`.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("catalog", 988, 0x6a2f04a8),
    ("wal_record_untraced", 57, 0xc63ef95f),
    ("wal_record_traced", 49, 0x3ab2a3a5),
    ("f2ck", 2792, 0x8410cebf),
    ("fdca", 1673, 0xd48feee3),
    ("fdcship", 176, 0xfe3266ba),
    ("moment_summary", 57, 0xefa5c7d5),
    ("tdigest", 325, 0xc223ad02),
    ("key_accuracy", 181, 0x29681c4e),
    ("sketch_bundle", 744, 0x95a0f395),
];

#[test]
fn every_format_encodes_its_golden_bytes() {
    let fixtures = common::fixtures();
    let actual: Vec<(&str, usize, u32)> = fixtures
        .iter()
        .map(|f| (f.name, f.bytes.len(), crc32(&f.bytes)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, crc)| format!("    ({name:?}, {len}, 0x{crc:08x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "encodings changed; now:\n{table}");
}

#[test]
fn every_golden_encoding_decodes() {
    for f in common::fixtures() {
        (f.decode)(&f.bytes).unwrap_or_else(|e| panic!("{}: {e}", f.name));
    }
}
