//! The catalog's on-disk format (`F2DB`): its magic and versions.
//!
//! [`Catalog::encode`](crate::Catalog::encode) and
//! [`Catalog::decode`](crate::Catalog::decode) write and read the rows
//! (derivation schemes, weights, model states) with the workspace's one
//! byte codec, [`fdc_obs::bytes`] — length-prefixed, little-endian,
//! behind a versioned magic header — and each model in the shared
//! [`ModelState`](fdc_forecast::ModelState) layout. A decode failure
//! surfaces as [`F2dbError::Storage`].

use crate::F2dbError;
use fdc_obs::bytes::DecodeError;

/// Magic bytes identifying a catalog file.
pub const MAGIC: &[u8; 4] = b"F2DB";
/// On-disk format version written by the encoder. Version 2 added the
/// per-model invalidation epoch.
pub const VERSION: u16 = 2;
/// Oldest on-disk format version the decoder still reads. Version 1
/// (pre-epoch) files are migrated on load: every model's invalidation
/// epoch restarts at 0.
pub const MIN_VERSION: u16 = 1;

impl From<DecodeError> for F2dbError {
    fn from(e: DecodeError) -> Self {
        F2dbError::Storage(e.to_string())
    }
}
