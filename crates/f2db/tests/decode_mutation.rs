//! Hostile input never crashes a decoder.
//!
//! For every golden encoding (see `common`), this feeds the format's
//! decoder every truncation prefix, a single-byte XOR at every offset,
//! and an 8-byte window of `u64::MAX`, `2^40` and `2^32` at every
//! offset. Each decode must return `Ok` or its typed error: a panic
//! fails the test, and an allocation sized by a forged count would
//! abort the whole binary — which is why this lives apart from the
//! golden-bytes test.

mod common;

use fdc_rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Values written little-endian over every 8-byte window.
const WINDOWS: [u64; 3] = [u64::MAX, 1 << 40, 1 << 32];

#[test]
fn no_decoder_panics_on_mutated_input() {
    let mut rng = Rng::seed_from_u64(0x0DEC_0DE5);
    let mut failures = Vec::new();
    let mut tried = 0usize;
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for f in common::fixtures() {
        let mut check = |what: String, input: &[u8]| {
            tried += 1;
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| (f.decode)(input))) {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                failures.push(format!("{}: {what}: {msg}", f.name));
            }
        };
        let len = f.bytes.len();
        for cut in 0..len {
            check(format!("truncated to {cut} bytes"), &f.bytes[..cut]);
        }
        let mut m = f.bytes.clone();
        for at in 0..len {
            let mask = 1 + rng.usize_below(255) as u8;
            m[at] ^= mask;
            check(format!("byte {at} xor {mask:#04x}"), &m);
            m[at] ^= mask;
        }
        for at in 0..len {
            let end = (at + 8).min(len);
            for w in WINDOWS {
                m[at..end].copy_from_slice(&w.to_le_bytes()[..end - at]);
                check(format!("{w:#x} at offset {at}"), &m);
                m[at..end].copy_from_slice(&f.bytes[at..end]);
            }
        }
    }
    std::panic::set_hook(quiet);
    assert!(
        failures.is_empty(),
        "{} of {tried} mutated inputs panicked, first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(20)]
    );
}
