//! Backward compatibility of the catalog's on-disk format.
//!
//! VERSION 1 files (pre-invalidation-epoch) must keep loading: the bytes
//! here are hand-built to the exact v1 layout, so this test pins the
//! migration path independently of the current encoder. Unknown future
//! versions must fail with a clear, versioned error rather than a
//! truncation mess, and a forged count must fail as a typed error.

use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::codec::{MAGIC, MIN_VERSION, VERSION};
use fdc_f2db::{Catalog, F2db, F2dbError};

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Hand-built VERSION 1 catalog: one node with a direct scheme and one
/// invalid SES model — written exactly as the v1 encoder did, with *no*
/// per-model epoch field between `rolling_error` and the model state.
fn v1_fixture() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(MAGIC);
    b.extend_from_slice(&1u16.to_le_bytes());
    put_u64(&mut b, 1); // node_count
    b.push(1); // node 0: entry present
    put_u64(&mut b, 1); // scheme_sources.len()
    put_u64(&mut b, 0); // source node 0 (direct scheme)
    put_f64(&mut b, 1.0); // weight
    put_u64(&mut b, 1); // model_count
    put_u64(&mut b, 0); // model at node 0
    b.push(1); // invalid = true
    put_f64(&mut b, 0.125); // rolling_error
    b.push(0); // model spec tag: SES
    put_u64(&mut b, 1); // params.len()
    put_f64(&mut b, 0.4); // alpha
    put_u64(&mut b, 1); // state.len()
    put_f64(&mut b, 42.0); // level
    put_u64(&mut b, 20); // observations
    put_u64(&mut b, 1); // history_sums.len()
    put_f64(&mut b, 840.0);
    put_u64(&mut b, 0); // advances
    b
}

#[test]
fn version_constants_cover_the_legacy_format() {
    assert_eq!(MIN_VERSION, 1);
    // The epoch field came with VERSION 2; a lower current version would
    // make the fixture below meaningless.
    const { assert!(VERSION >= 2) }
}

#[test]
fn v1_bytes_decode_with_epoch_migrated_to_zero() {
    let catalog = Catalog::decode(&v1_fixture()).expect("v1 catalog must keep loading");
    assert_eq!(catalog.node_count(), 1);
    assert_eq!(catalog.model_count(), 1);
    // The invalid flag and rolling error survive; the epoch (which v1
    // never stored) restarts at 0.
    assert!(catalog.is_invalid(0));
    assert_eq!(catalog.epoch(0), Some(0));
    // The model state itself is intact: SES forecasts its level.
    let forecast = catalog.forecast(0, 3).expect("node 0 has a scheme");
    assert_eq!(forecast, vec![42.0, 42.0, 42.0]);
}

#[test]
fn v1_decode_then_encode_upgrades_to_current_version() {
    let catalog = Catalog::decode(&v1_fixture()).unwrap();
    let upgraded = catalog.encode();
    assert_eq!(&upgraded[..4], MAGIC);
    assert_eq!(
        u16::from_le_bytes([upgraded[4], upgraded[5]]),
        VERSION,
        "re-encoding a migrated catalog writes the current version"
    );
    let reloaded = Catalog::decode(&upgraded).unwrap();
    assert!(reloaded.is_invalid(0));
    assert_eq!(reloaded.epoch(0), Some(0));
    assert_eq!(reloaded.forecast(0, 2), Some(vec![42.0, 42.0]));
}

#[test]
fn future_version_fails_with_clear_versioned_error() {
    let mut bytes = v1_fixture();
    bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
    let err = Catalog::decode(&bytes).unwrap_err();
    match &err {
        F2dbError::Storage(msg) => {
            assert!(
                msg.contains("unsupported catalog version 99"),
                "error must name the offending version: {msg}"
            );
            assert!(
                msg.contains(&format!("through {VERSION}")),
                "error must name the supported range: {msg}"
            );
        }
        other => panic!("expected a storage error, got {other:?}"),
    }
}

#[test]
fn v1_truncation_is_still_detected() {
    let bytes = v1_fixture();
    assert!(Catalog::decode(&bytes[..bytes.len() - 6]).is_err());
}

/// 15 bytes: the magic, version 2, a node count of 2^40 and one stray
/// byte. The count must be rejected against the bytes that remain, not
/// used to size an allocation (which would abort the process).
fn forged_node_count() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(MAGIC);
    b.extend_from_slice(&2u16.to_le_bytes());
    put_u64(&mut b, 1 << 40);
    b.push(0);
    assert_eq!(b.len(), 15);
    b
}

#[test]
fn forged_node_count_is_a_typed_error_not_an_abort() {
    let err = Catalog::decode(&forged_node_count()).err();
    assert!(matches!(err, Some(F2dbError::Storage(_))), "{err:?}");

    let dir = std::env::temp_dir().join(format!("fdc_forged_catalog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.f2db");
    std::fs::write(&path, forged_node_count()).unwrap();
    let dataset = generate_cube(&GenSpec::new(2, 8, 0xF0)).dataset;
    let err = F2db::open_catalog(dataset, &path).err();
    assert!(matches!(err, Some(F2dbError::Storage(_))), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}
