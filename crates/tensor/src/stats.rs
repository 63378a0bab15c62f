//! Value-range and summary statistics.
//!
//! Relative error bounds in the SZ family are defined against the *value
//! range* of the input field (paper § V-C.1: "we compute its value range
//! to acquire both the absolute and value-range-based relative error
//! bounds"), so a robust range computation is part of the substrate.
//!
//! [`ValueRange::of`] runs before anything is predicted, on every
//! compress, so it reads the field at memory speed: sixteen independent
//! min/max lanes (no dependency chain between elements) and a
//! finiteness flag OR-ed from each element's exponent bits. It has no
//! early exit on a non-finite element: a data-dependent branch in the
//! loop would keep it from vectorising, and a rejected field is the rare
//! case, so every input pays one full pass and the flag is checked once
//! at the end.

/// Minimum, maximum and derived range of a field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueRange {
    pub min: f32,
    pub max: f32,
}

impl ValueRange {
    /// Scan a buffer. Returns `None` for an empty buffer or one with any
    /// non-finite element.
    pub fn of(data: &[f32]) -> Option<ValueRange> {
        const LANES: usize = 16;
        // An all-ones exponent is NaN or ±inf.
        const EXP: u32 = 0x7f80_0000;
        let first = *data.first()?;
        // Every lane starts at `first` and moves only on a strict
        // improvement, so ties (±0 included) keep `first`.
        let mut lo = [first; LANES];
        let mut hi = [first; LANES];
        let mut bad = [0u32; LANES];
        let chunks = data.chunks_exact(LANES);
        let tail = chunks.remainder();
        for c in chunks {
            for l in 0..LANES {
                let v = c[l];
                lo[l] = if v < lo[l] { v } else { lo[l] };
                hi[l] = if v > hi[l] { v } else { hi[l] };
                bad[l] |= u32::from(v.to_bits() & EXP == EXP);
            }
        }
        let (mut min, mut max, mut nonfinite) = (first, first, 0u32);
        for l in 0..LANES {
            min = if lo[l] < min { lo[l] } else { min };
            max = if hi[l] > max { hi[l] } else { max };
            nonfinite |= bad[l];
        }
        for &v in tail {
            min = if v < min { v } else { min };
            max = if v > max { v } else { max };
            nonfinite |= u32::from(v.to_bits() & EXP == EXP);
        }
        // `first` is scanned too (in a chunk or the tail), so its
        // finiteness is checked with the rest.
        (nonfinite == 0).then_some(ValueRange { min, max })
    }

    /// `max - min`; zero for constant fields.
    pub fn range(&self) -> f32 {
        self.max - self.min
    }
}

/// Mean of a buffer (0 for empty input).
pub fn mean(data: &[f32]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().map(|&v| v as f64).sum::<f64>() / data.len() as f64
}

/// Population variance of a buffer (0 for empty input).
pub fn variance(data: &[f32]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|&v| (v as f64 - m).powi(2)).sum::<f64>() / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_of_simple_buffer() {
        let r = ValueRange::of(&[3.0, -1.0, 2.0]).unwrap();
        assert_eq!(r.min, -1.0);
        assert_eq!(r.max, 3.0);
        assert_eq!(r.range(), 4.0);
    }

    #[test]
    fn range_rejects_non_finite_and_empty() {
        assert_eq!(ValueRange::of(&[]), None);
        assert_eq!(ValueRange::of(&[1.0, f32::NAN]), None);
        assert_eq!(ValueRange::of(&[f32::INFINITY]), None);
    }

    /// The scalar early-exit loop the lane scan replaced: the oracle.
    fn scalar_range(data: &[f32]) -> Option<ValueRange> {
        let mut it = data.iter();
        let first = *it.next()?;
        if !first.is_finite() {
            return None;
        }
        let mut min = first;
        let mut max = first;
        for &v in it {
            if !v.is_finite() {
                return None;
            }
            min = min.min(v);
            max = max.max(v);
        }
        Some(ValueRange { min, max })
    }

    fn assert_matches_oracle(data: &[f32]) {
        let (got, want) = (ValueRange::of(data), scalar_range(data));
        let ctx = format!("len {} got {got:?} want {want:?}", data.len());
        assert_eq!(got.is_none(), want.is_none(), "{ctx}");
        if let (Some(g), Some(w)) = (got, want) {
            assert!(g.min == w.min && g.max == w.max, "{ctx}");
            assert_eq!(g.range().to_bits(), w.range().to_bits(), "{ctx}");
            if w.range() == 0.0 {
                assert_eq!(g.min.to_bits(), w.min.to_bits(), "const value sign, {ctx}");
            }
        }
    }

    /// A deterministic wiggly field with its extremes spread over lanes.
    fn wiggle(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7919 % 1013) as f32 - 506.0) * 0.37)
            .collect()
    }

    /// `len` elements cycling through `pattern`.
    fn cycle(pattern: &[f32], len: usize) -> Vec<f32> {
        pattern.iter().copied().cycle().take(len).collect()
    }

    #[test]
    fn lane_scan_matches_scalar_oracle_at_every_length() {
        for len in (0..=100).chain([10_007]) {
            assert_matches_oracle(&wiggle(len));
        }
    }

    #[test]
    fn lane_scan_rejects_non_finite_anywhere() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for len in [1usize, 15, 16, 17, 37, 100, 10_007] {
                // Index 0, a mid-lane index inside the chunks, and the tail.
                let tail = len - 1;
                let mid = if len >= 32 { 16 + 7 } else { len / 2 };
                for at in [0, mid, tail] {
                    let mut d = wiggle(len);
                    d[at] = bad;
                    assert_matches_oracle(&d);
                    assert_eq!(ValueRange::of(&d), None, "{bad} at {at} of {len}");
                }
            }
        }
    }

    #[test]
    fn lane_scan_matches_oracle_on_signed_zeros() {
        for len in [1usize, 5, 16, 17, 33, 100] {
            // Constant fields of +0, -0, and both mixed either way round.
            for pattern in [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]] {
                let d = cycle(&pattern, len);
                assert_matches_oracle(&d);
                assert_eq!(ValueRange::of(&d).unwrap().range(), 0.0);
            }
            // A mixed-sign zero as the minimum, then as the maximum.
            for (a, b) in [(0.0, -0.0), (-0.0, 0.0)] {
                assert_matches_oracle(&cycle(&[a, b, 2.5], len));
                assert_matches_oracle(&cycle(&[a, b, -2.5], len));
            }
        }
    }

    #[test]
    fn constant_field_has_zero_range() {
        let r = ValueRange::of(&[5.0; 10]).unwrap();
        assert_eq!(r.range(), 0.0);
    }

    #[test]
    fn mean_and_variance() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&d) - 2.5).abs() < 1e-12);
        assert!((variance(&d) - 1.25).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }
}
