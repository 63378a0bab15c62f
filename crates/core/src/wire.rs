//! Fixed-width little-endian readers for archive parsing, and the
//! `[u64 len][body]` entry both container formats are made of.
//!
//! Every caller bounds-checks the slice it passes before reading (the
//! parsers validate lengths before indexing; a reader handed a short
//! slice panics on the index), so the `try_into` here cannot fail —
//! this module is the one place in the crate allowed to `unwrap`,
//! keeping the crate-level `unwrap_used`/`expect_used` deny honest
//! everywhere else. [`crate::archive`] re-exports the ones the baseline
//! codecs parse with, since their archives are built from the same
//! entries.

#![allow(clippy::unwrap_used)]

use std::ops::Range;

use crate::error::CuszError;

/// Read a `u16` from `b[at..at + 2]`.
pub(crate) fn u16_le(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(b[at..at + 2].try_into().unwrap())
}

/// Read a `u32` from `b[at..at + 4]`.
pub fn u32_le(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Read a `u64` from `b[at..at + 8]`.
pub fn u64_le(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Read an `f32` from `b[at..at + 4]`.
pub fn f32_le(b: &[u8], at: usize) -> f32 {
    f32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Read an `f64` from `b[at..at + 8]`.
pub fn f64_le(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Append a `[u64 len][body]` entry.
pub fn put_entry(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
}

/// The body range of the `[u64 len][body]` entry at `*at`, advancing
/// `at` past it. Checked in the `u64` domain: a crafted huge length
/// surfaces as [`CuszError::CorruptArchive`], never a wrapped cursor or
/// a panicking slice.
pub fn entry(b: &[u8], at: &mut u64, what: &'static str) -> Result<Range<usize>, CuszError> {
    let blen = b.len() as u64;
    let body = at.checked_add(8).filter(|&e| e <= blen).ok_or(CuszError::CorruptArchive(what))?;
    let end = body
        .checked_add(u64_le(b, *at as usize))
        .filter(|&e| e <= blen)
        .ok_or(CuszError::CorruptArchive(what))?;
    *at = end;
    Ok(body as usize..end as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_decode_little_endian() {
        let mut b = Vec::new();
        b.extend_from_slice(&0xBEEFu16.to_le_bytes());
        b.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        b.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        b.extend_from_slice(&1.5f32.to_le_bytes());
        b.extend_from_slice(&(-2.25f64).to_le_bytes());
        assert_eq!(u16_le(&b, 0), 0xBEEF);
        assert_eq!(u32_le(&b, 2), 0xDEAD_BEEF);
        assert_eq!(u64_le(&b, 6), 0x0123_4567_89AB_CDEF);
        assert_eq!(f32_le(&b, 14), 1.5);
        assert_eq!(f64_le(&b, 18), -2.25);
    }

    #[test]
    fn entries_roundtrip() {
        let mut out = Vec::new();
        put_entry(&mut out, b"hello");
        put_entry(&mut out, b"");
        put_entry(&mut out, &[1, 2, 3]);
        let mut at = 0;
        assert_eq!(&out[entry(&out, &mut at, "e").unwrap()], b"hello");
        assert_eq!(&out[entry(&out, &mut at, "e").unwrap()], b"");
        assert_eq!(&out[entry(&out, &mut at, "e").unwrap()], &[1, 2, 3]);
        assert_eq!(at, out.len() as u64);
        assert_eq!(entry(&out, &mut at, "end"), Err(CuszError::CorruptArchive("end")));
    }

    #[test]
    fn truncated_entry_detected() {
        let mut out = Vec::new();
        put_entry(&mut out, &[9; 100]);
        let mut at = 0;
        assert!(entry(&out[..50], &mut at, "body").is_err());
        assert!(entry(&out[..5], &mut at, "length").is_err());
        assert_eq!(at, 0, "a failed read leaves the cursor in place");
    }

    #[test]
    fn wrapping_entry_length_is_an_error() {
        // A length that wraps the cursor (in u64 or usize) must not slip
        // past the bounds check; a cursor near u64::MAX must not either.
        for len in [u64::MAX, u64::MAX - 3, u64::MAX - 20] {
            let mut b = len.to_le_bytes().to_vec();
            b.extend_from_slice(&[0; 32]);
            let mut at = 0;
            assert!(entry(&b, &mut at, "wrap").is_err(), "len {len}");
        }
        let mut at = u64::MAX - 4;
        assert!(entry(&[0; 16], &mut at, "cursor").is_err());
    }
}
