//! Shared mini-archive plumbing for the baselines.
//!
//! Each baseline uses a small fixed header (its own magic, shape, error
//! bound / rate) followed by `[u64 len][body]` entries, written and
//! walked with core's checked `archive::{put_entry, entry}` — enough
//! structure to be self-describing and to reject corrupt input with
//! typed errors.

use cuszi_core::archive::{entry, f32_section, f64_le, put_entry, u64_le, u64_section};
use cuszi_core::CuszError;
use cuszi_quant::{ErrorBound, Outliers};
use cuszi_tensor::stats::ValueRange;
use cuszi_tensor::{NdArray, Shape};

/// Fixed header length: magic(4) + rank(1) + pad(3) + dims(24) + param(8).
pub const BASE_HEADER_LEN: usize = 40;

/// Write the common header (`param` is the absolute eb or the zfp rate).
pub fn write_header(magic: &[u8; 4], shape: Shape, param: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(BASE_HEADER_LEN);
    out.extend_from_slice(magic);
    out.push(shape.rank() as u8);
    out.extend_from_slice(&[0u8; 3]);
    for d in shape.dims3() {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&param.to_le_bytes());
    out
}

/// Parse the common header, validating the magic.
pub fn read_header(bytes: &[u8], magic: &[u8; 4]) -> Result<(Shape, f64), CuszError> {
    if bytes.len() < BASE_HEADER_LEN {
        return Err(CuszError::CorruptArchive("baseline header truncated"));
    }
    if &bytes[0..4] != magic {
        return Err(CuszError::CorruptArchive("baseline magic mismatch"));
    }
    let rank = bytes[4] as usize;
    if !(1..=3).contains(&rank) {
        return Err(CuszError::CorruptArchive("rank out of range"));
    }
    let mut dims3 = [0usize; 3];
    for (i, d) in dims3.iter_mut().enumerate() {
        let v = u64_le(bytes, 8 + i * 8);
        if v == 0 || v > (1 << 40) {
            return Err(CuszError::CorruptArchive("dimension out of range"));
        }
        *d = v as usize;
    }
    // Per-axis caps alone let a crafted header wrap the element-count
    // product; bound the total as well.
    dims3
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .filter(|&t| t <= 1 << 40)
        .ok_or(CuszError::CorruptArchive("element count out of range"))?;
    let shape = Shape::from_dims(&dims3[3 - rank..])
        .ok_or(CuszError::CorruptArchive("invalid shape"))?;
    let param = f64_le(bytes, 32);
    if !param.is_finite() {
        return Err(CuszError::CorruptArchive("bad parameter"));
    }
    Ok((shape, param))
}

/// Resolve a bound against data, screening the invalid cases the way
/// the core pipeline does.
pub fn resolve_eb(data: &NdArray<f32>, eb: ErrorBound) -> Result<f64, CuszError> {
    if !eb.is_valid() {
        return Err(CuszError::InvalidErrorBound);
    }
    let range = ValueRange::of(data.as_slice()).ok_or(CuszError::NonFiniteInput)?;
    let abs = eb.absolute(range.range() as f64);
    if !(abs.is_finite() && abs > 0.0) {
        return Err(CuszError::InvalidErrorBound);
    }
    // The dual-quant lattice of the Lorenzo-family baselines is i32
    // (as in the CUDA originals): reject bounds so tight that values
    // fall off the lattice rather than silently violating them.
    let maxabs = range.min.abs().max(range.max.abs()) as f64;
    if maxabs / (2.0 * abs) >= i32::MAX as f64 {
        return Err(CuszError::InvalidErrorBound);
    }
    Ok(abs)
}

/// Serialize outliers as two entries (indices, values).
pub fn push_outliers(out: &mut Vec<u8>, o: &Outliers) {
    let idx: Vec<u8> = o.indices().iter().flat_map(|v| v.to_le_bytes()).collect();
    let val: Vec<u8> = o.values().iter().flat_map(|v| v.to_le_bytes()).collect();
    put_entry(out, &idx);
    put_entry(out, &val);
}

/// Parse the two outlier entries at `*at`, advancing it past them.
pub fn read_outliers(bytes: &[u8], at: &mut u64, max_index: usize) -> Result<Outliers, CuszError> {
    let idx = u64_section(&bytes[entry(bytes, at, "outlier indices truncated")?])?;
    let val = f32_section(&bytes[entry(bytes, at, "outlier values truncated")?])?;
    if idx.iter().any(|&i| i >= max_index as u64) {
        return Err(CuszError::CorruptArchive("outlier index out of range"));
    }
    Outliers::from_parts(idx, val).ok_or(CuszError::CorruptArchive("outlier sections disagree"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let b = write_header(b"TEST", Shape::d3(4, 5, 6), 1.25);
        let (shape, p) = read_header(&b, b"TEST").unwrap();
        assert_eq!(shape, Shape::d3(4, 5, 6));
        assert_eq!(p, 1.25);
        assert!(read_header(&b, b"XXXX").is_err());
        assert!(read_header(&b[..10], b"TEST").is_err());
    }

    #[test]
    fn outliers_roundtrip_and_validation() {
        let mut o = Outliers::new();
        o.push(3, 1.5);
        o.push(9, -2.5);
        let mut buf = Vec::new();
        push_outliers(&mut buf, &o);
        let mut at = 0;
        let back = read_outliers(&buf, &mut at, 10).unwrap();
        assert_eq!(back, o);
        assert_eq!(at, buf.len() as u64);
        let mut at = 0;
        assert!(read_outliers(&buf, &mut at, 9).is_err(), "index 9 out of range for len 9");
    }
}
