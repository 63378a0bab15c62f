//! The cuSZ-i archive format.
//!
//! ```text
//! ┌─────────────────────────────────────────────────────────────┐
//! │ header (fixed size, never compressed)                       │
//! │   magic "CSZI" · version · flags · rank · dims · eb · alpha │
//! │   radius · spline variants · dim order · section lengths    │
//! ├─────────────────────────────────────────────────────────────┤
//! │ payload (Bitcomp-compressed when flags.BITCOMP):            │
//! │   [anchors f32⋯][codebook][huffman stream][outlier idx u64⋯]│
//! │   [outlier val f32⋯]                                        │
//! │                                                             │
//! │   huffman stream (`cuszi_huffman::EncodedStream`):          │
//! │     n u64 · chunk size u32 · chunk count u64                │
//! │     chunk byte offsets u64⋯                                 │
//! │     gap count u64 · gap array u8⋯ (one per 256-byte sector  │
//! │       of each chunk: bit offset of the first codeword       │
//! │       starting in it, 0xFF for none)                        │
//! │     chunk bitstreams, byte-aligned                          │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything little-endian. Section lengths describe the payload
//! *before* the Bitcomp pass, so the decoder can split it after
//! undoing that pass.
//!
//! **Version 2 is a breaking change.** It added the gap array inside
//! the Huffman section (the five-section layout and [`HEADER_LEN`] are
//! as in version 1). The decoder needs the gap array, so version-1
//! archives are refused with [`CuszError::VersionMismatch`]; there is
//! no reader for them.

use cuszi_predict::splines::CubicVariant;
use cuszi_predict::tuning::InterpConfig;
use cuszi_tensor::Shape;

use crate::error::CuszError;

/// The little-endian readers and `[u64 len][body]` entry walker every
/// container is parsed with, public so the baseline codecs use the same
/// checked code. `entry` checks its own bounds; the readers index
/// `b[at..at + N]` and expect the caller to have checked the length.
pub use crate::wire::{entry, f32_le, f64_le, put_entry, u32_le, u64_le};

/// Archive magic bytes.
pub const MAGIC: [u8; 4] = *b"CSZI";
/// Current format version (2: the Huffman section carries the gap
/// array; version-1 archives do not decode).
pub const VERSION: u16 = 2;

/// Header flag: payload is Bitcomp-compressed.
pub const FLAG_BITCOMP: u8 = 1 << 0;
/// Header flag: constant field fast path (payload is empty; the value
/// lives in the header).
pub const FLAG_CONSTANT: u8 = 1 << 1;

/// Fixed header byte length.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 1 + 24 + 8 + 8 + 2 + 1 + 1 + 3 + 4 + 5 * 8;

/// Largest element count a header may declare (per axis and in total):
/// 2^32 f32 elements = 16 GiB, comfortably above the paper's biggest
/// fields while keeping the damage from a crafted header's allocations
/// bounded.
pub const MAX_ELEMENTS: u64 = 1 << 32;

/// Parsed archive header.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    pub version: u16,
    pub flags: u8,
    pub shape: Shape,
    pub eb_abs: f64,
    pub alpha: f64,
    pub radius: u16,
    pub variants: [CubicVariant; 3],
    pub order: Vec<usize>,
    pub const_value: f32,
    /// Pre-Bitcomp payload section lengths:
    /// anchors, codebook, huffman stream, outlier indices, outlier values.
    pub sections: [u64; 5],
}

impl Header {
    /// The interpolation config this header encodes.
    pub fn interp_config(&self) -> InterpConfig {
        InterpConfig { alpha: self.alpha, variants: self.variants, order: self.order.clone() }
    }

    /// Serialize to the fixed-size wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.flags);
        out.push(self.shape.rank() as u8);
        for d in self.shape.dims3() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.eb_abs.to_le_bytes());
        out.extend_from_slice(&self.alpha.to_le_bytes());
        out.extend_from_slice(&self.radius.to_le_bytes());
        let vbits = self
            .variants
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, v)| acc | ((*v == CubicVariant::Natural) as u8) << i);
        out.push(vbits);
        out.push(self.order.len() as u8);
        let mut ord = [0u8; 3];
        for (i, &o) in self.order.iter().enumerate() {
            ord[i] = o as u8;
        }
        out.extend_from_slice(&ord);
        out.extend_from_slice(&self.const_value.to_le_bytes());
        for s in self.sections {
            out.extend_from_slice(&s.to_le_bytes());
        }
        debug_assert_eq!(out.len(), HEADER_LEN);
        out
    }

    /// Parse and validate the wire form.
    pub fn from_bytes(data: &[u8]) -> Result<Header, CuszError> {
        if data.len() < HEADER_LEN {
            return Err(CuszError::CorruptArchive("header truncated"));
        }
        if data[0..4] != MAGIC {
            return Err(CuszError::CorruptArchive("bad magic"));
        }
        let version = crate::wire::u16_le(data, 4);
        if version != VERSION {
            return Err(CuszError::VersionMismatch { found: version, expected: VERSION });
        }
        let flags = data[6];
        let rank = data[7] as usize;
        if !(1..=3).contains(&rank) {
            return Err(CuszError::CorruptArchive("rank out of range"));
        }
        let mut dims3 = [0usize; 3];
        for (i, d) in dims3.iter_mut().enumerate() {
            let v = crate::wire::u64_le(data, 8 + i * 8);
            if v == 0 || v > MAX_ELEMENTS {
                return Err(CuszError::CorruptArchive("dimension out of range"));
            }
            *d = v as usize;
        }
        if dims3[..3 - rank].iter().any(|&d| d != 1) {
            return Err(CuszError::CorruptArchive("padded dims must be 1"));
        }
        // Cap the total element count too: the per-axis bound alone lets
        // a crafted archive wrap the element-count product and drive
        // giant allocations from corrupt input (the constant fast path
        // allocates the full field before reading any payload).
        let total = dims3
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
            .filter(|&t| t <= MAX_ELEMENTS)
            .ok_or(CuszError::CorruptArchive("element count out of range"))?;
        let _ = total;
        let shape = Shape::from_dims(&dims3[3 - rank..])
            .ok_or(CuszError::CorruptArchive("invalid shape"))?;
        let eb_abs = crate::wire::f64_le(data, 32);
        let alpha = crate::wire::f64_le(data, 40);
        if !eb_abs.is_finite() || eb_abs < 0.0 || !alpha.is_finite() || alpha < 1.0 {
            return Err(CuszError::CorruptArchive("bad eb/alpha"));
        }
        let radius = crate::wire::u16_le(data, 48);
        if radius == 0 && flags & FLAG_CONSTANT == 0 {
            return Err(CuszError::CorruptArchive("zero radius"));
        }
        let vbits = data[50];
        let variants = [
            if vbits & 1 != 0 { CubicVariant::Natural } else { CubicVariant::NotAKnot },
            if vbits & 2 != 0 { CubicVariant::Natural } else { CubicVariant::NotAKnot },
            if vbits & 4 != 0 { CubicVariant::Natural } else { CubicVariant::NotAKnot },
        ];
        let order_len = data[51] as usize;
        if order_len != rank {
            return Err(CuszError::CorruptArchive("dim order length != rank"));
        }
        let mut order = Vec::with_capacity(order_len);
        for i in 0..order_len {
            let o = data[52 + i] as usize;
            if o > 2 || order.contains(&o) {
                return Err(CuszError::CorruptArchive("invalid dim order"));
            }
            order.push(o);
        }
        let const_value = crate::wire::f32_le(data, 55);
        let mut sections = [0u64; 5];
        for (i, s) in sections.iter_mut().enumerate() {
            *s = crate::wire::u64_le(data, 59 + i * 8);
        }
        Ok(Header {
            version,
            flags,
            shape,
            eb_abs,
            alpha,
            radius,
            variants,
            order,
            const_value,
            sections,
        })
    }
}

/// Split a (decompressed) payload into its five sections.
pub fn split_sections<'a>(
    payload: &'a [u8],
    sections: &[u64; 5],
) -> Result<[&'a [u8]; 5], CuszError> {
    // Checked sum: corrupt headers can carry lengths that overflow u64.
    let total = sections
        .iter()
        .try_fold(0u64, |acc, &s| acc.checked_add(s))
        .ok_or(CuszError::CorruptArchive("section lengths overflow"))?;
    if total != payload.len() as u64 {
        return Err(CuszError::CorruptArchive("section lengths disagree with payload"));
    }
    let mut out = [&payload[0..0]; 5];
    let mut at = 0usize;
    for (i, &len) in sections.iter().enumerate() {
        out[i] = &payload[at..at + len as usize];
        at += len as usize;
    }
    Ok(out)
}

/// Decode a little-endian `f32` section.
pub fn f32_section(data: &[u8]) -> Result<Vec<f32>, CuszError> {
    if !data.len().is_multiple_of(4) {
        return Err(CuszError::CorruptArchive("f32 section misaligned"));
    }
    Ok(data.chunks_exact(4).map(|c| crate::wire::f32_le(c, 0)).collect())
}

/// Decode a little-endian `u64` section.
pub fn u64_section(data: &[u8]) -> Result<Vec<u64>, CuszError> {
    if !data.len().is_multiple_of(8) {
        return Err(CuszError::CorruptArchive("u64 section misaligned"));
    }
    Ok(data.chunks_exact(8).map(|c| crate::wire::u64_le(c, 0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            version: VERSION,
            flags: FLAG_BITCOMP,
            shape: Shape::d3(10, 20, 30),
            eb_abs: 1e-3,
            alpha: 1.5,
            radius: 512,
            variants: [CubicVariant::Natural, CubicVariant::NotAKnot, CubicVariant::Natural],
            order: vec![2, 0, 1],
            const_value: 0.0,
            sections: [100, 200, 300, 40, 20],
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(Header::from_bytes(&bytes).unwrap(), h);
    }

    #[test]
    fn header_roundtrip_lower_ranks() {
        for shape in [Shape::d1(100), Shape::d2(10, 20)] {
            let h = Header {
                shape,
                order: if shape.rank() == 1 { vec![2] } else { vec![1, 2] },
                ..sample_header()
            };
            assert_eq!(Header::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample_header().to_bytes();
        b[0] = b'X';
        assert_eq!(Header::from_bytes(&b), Err(CuszError::CorruptArchive("bad magic")));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut b = sample_header().to_bytes();
        b[4] = 99;
        assert!(matches!(Header::from_bytes(&b), Err(CuszError::VersionMismatch { found: 99, .. })));
    }

    #[test]
    fn truncated_header_rejected() {
        let b = sample_header().to_bytes();
        assert!(Header::from_bytes(&b[..HEADER_LEN - 1]).is_err());
    }

    #[test]
    fn invalid_order_rejected() {
        let mut h = sample_header();
        h.order = vec![0, 0, 1];
        assert!(Header::from_bytes(&h.to_bytes()).is_err());
    }

    #[test]
    fn section_splitting() {
        let payload = vec![1u8; 660];
        let parts = split_sections(&payload, &[100, 200, 300, 40, 20]).unwrap();
        assert_eq!(parts.map(|p| p.len()), [100, 200, 300, 40, 20]);
        assert!(split_sections(&payload[..659], &[100, 200, 300, 40, 20]).is_err());
    }

    #[test]
    fn typed_sections_validate_alignment() {
        assert!(f32_section(&[0; 8]).is_ok());
        assert!(f32_section(&[0; 7]).is_err());
        assert!(u64_section(&[0; 16]).is_ok());
        assert!(u64_section(&[0; 12]).is_err());
    }
}

#[cfg(test)]
mod overflow_tests {
    use super::*;

    #[test]
    fn huge_dim_products_are_rejected() {
        // Craft a header whose per-axis dims pass but whose product
        // wraps u64 arithmetic expectations.
        let h = Header {
            version: VERSION,
            flags: 0,
            shape: Shape::d3(4, 4, 4),
            eb_abs: 1e-3,
            alpha: 1.0,
            radius: 512,
            variants: Default::default(),
            order: vec![0, 1, 2],
            const_value: 0.0,
            sections: [0; 5],
        };
        let mut b = h.to_bytes();
        // Each axis exactly at the cap passes the per-axis check, but
        // the product overflows it.
        let big = MAX_ELEMENTS.to_le_bytes();
        b[8..16].copy_from_slice(&big);
        b[16..24].copy_from_slice(&big);
        b[24..32].copy_from_slice(&big);
        assert!(matches!(
            Header::from_bytes(&b),
            Err(CuszError::CorruptArchive("element count out of range"))
        ));
        // A single axis past the cap is caught even earlier.
        let mut b2 = h.to_bytes();
        b2[8..16].copy_from_slice(&(MAX_ELEMENTS + 1).to_le_bytes());
        assert!(matches!(
            Header::from_bytes(&b2),
            Err(CuszError::CorruptArchive("dimension out of range"))
        ));
    }
}
