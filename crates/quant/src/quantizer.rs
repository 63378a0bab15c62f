//! The per-element quantizer.

/// Quant-code reserved for outliers (paper § III-A: codes with
/// `|q| >= R` are "too big for efficient encoding" and compacted aside).
pub const OUTLIER_CODE: u16 = 0;

/// `2^52`: every `f64` at or above it is integral, and adding it to a
/// non-negative `f64` below it rounds that value to an integer (ties to
/// even, the default rounding mode) in the low mantissa bits.
const MAGIC: f64 = 4503599627370496.0;

/// `f64::round` (round-half-away-from-zero) as straight-line arithmetic
/// every target vectorizes: no libm call (`round` and, before SSE4.1,
/// `round_ties_even` are both one per lane on x86-64) and no branch.
/// `(|x| + 2^52) - 2^52` rounds the magnitude ties-to-even; the result
/// differs from half-away only where it rounded an exact tie *down*
/// (`|x| - r == 0.5`, an exact subtraction), which a masked `+ 1.0`
/// repairs. Magnitudes from `2^52` up are already integral and NaN has
/// no rounding, so both pass through; the sign is copied back last,
/// which also keeps `-0.3 -> -0.0`. Bit-identity with `f64::round`
/// over the full domain is pinned by a proptest below.
#[inline(always)]
fn round_half_away(x: f64) -> f64 {
    let a = x.abs();
    let r = (a + MAGIC) - MAGIC;
    // Masks, never branches, so callers batching eight lanes stay a
    // straight-line dependency chain the vectorizer can pack.
    let tie_down = 0u64.wrapping_sub(((a - r) == 0.5) as u64);
    let r = r + f64::from_bits(1.0f64.to_bits() & tie_down);
    let small = 0u64.wrapping_sub((a < MAGIC) as u64); // false for NaN
    f64::from_bits((r.to_bits() & small) | (a.to_bits() & !small)).copysign(x)
}

/// Result of quantizing one element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantized {
    /// Biased quant-code: `q + radius`, in `1..2*radius`; `0` = outlier.
    pub code: u16,
    /// The error-bounded reconstruction the decompressor will produce
    /// (for outliers, the exact original value).
    pub recon: f32,
}

/// Two-sided linear-scale quantizer with outlier thresholding.
///
/// ```
/// use cuszi_quant::Quantizer;
/// let q = Quantizer::new(0.05, 512).unwrap();
/// let r = q.quantize(1.03, 1.0);          // prediction was 1.0
/// assert!((1.03 - r.recon).abs() <= 0.05); // error-bounded
/// assert_eq!(q.reconstruct(1.0, r.code), r.recon); // replayable
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Quantizer {
    eb: f64,
    twice_eb: f64,
    /// Precomputed `1 / twice_eb`: the quantize hot loop multiplies
    /// instead of dividing (f64 division dominates the per-element cost
    /// otherwise). Any sub-ulp difference vs division is caught by the
    /// explicit bound re-check in [`Quantizer::quantize`].
    inv_twice_eb: f64,
    radius: i32,
}

impl Quantizer {
    /// `eb` is the absolute error bound (must be positive and finite);
    /// `radius` is the paper's `R` (codebook holds `2*radius` symbols).
    /// cuSZ's default — and ours — is `R = 512`.
    ///
    /// A non-positive/non-finite bound or a zero radius is a typed
    /// error, not a panic — both are reachable from hostile inputs via
    /// the public API, so the whole chain stays `Result`-shaped.
    pub fn new(eb: f64, radius: u16) -> Result<Self, crate::QuantError> {
        if !(eb.is_finite() && eb > 0.0) {
            return Err(crate::QuantError::InvalidErrorBound);
        }
        if radius < 1 {
            // A zero radius leaves no representable codes at all; fold
            // it into the bound error (the two travel together in every
            // caller's validation).
            return Err(crate::QuantError::InvalidErrorBound);
        }
        Ok(Quantizer {
            eb,
            twice_eb: 2.0 * eb,
            inv_twice_eb: 1.0 / (2.0 * eb),
            radius: radius as i32,
        })
    }

    /// The absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// The outlier threshold `R`.
    pub fn radius(&self) -> u16 {
        self.radius as u16
    }

    /// Number of distinct codes (`2R`), i.e. the Huffman alphabet size.
    pub fn alphabet_size(&self) -> usize {
        2 * self.radius as usize
    }

    /// Quantize `value` against prediction `pred`.
    #[inline]
    pub fn quantize(&self, value: f32, pred: f32) -> Quantized {
        let err = value as f64 - pred as f64;
        let q = round_half_away(err * self.inv_twice_eb);
        // Out-of-band (or numerically degenerate) errors become outliers,
        // stored exactly. The negated comparison is deliberate: it must
        // catch NaN (from a NaN prediction), which `>=` would not.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(q.abs() < self.radius as f64) {
            return Quantized { code: OUTLIER_CODE, recon: value };
        }
        let qi = q as i32;
        let recon = (pred as f64 + qi as f64 * self.twice_eb) as f32;
        // Guard against f32 rounding pushing the reconstruction outside
        // the bound for values near the f32 precision limit.
        if ((value as f64) - (recon as f64)).abs() > self.eb {
            return Quantized { code: OUTLIER_CODE, recon: value };
        }
        Quantized { code: (qi + self.radius) as u16, recon }
    }

    /// Batched [`Quantizer::quantize`]: eight independent lanes of the
    /// identical expression tree, written branchlessly (select instead
    /// of early return) and struct-of-arrays (one fixed-count loop per
    /// operation) so every step auto-vectorizes. Results are
    /// bit-identical to eight scalar calls — the outlier cases,
    /// including NaN values and NaN predictions, take the same arm
    /// lane-wise (pinned by a differential proptest).
    #[inline(always)]
    pub fn quantize8(&self, values: &[f32; 8], preds: &[f32; 8]) -> ([u16; 8], [f32; 8]) {
        // (`#[inline(always)]` on the function: at the default
        // `#[inline]` hint LLVM leaves this as an out-of-line call, and
        // the arrays then travel through the stack on every batch.)
        let rad = self.radius as f64;
        let mut q = [0.0f64; 8];
        for j in 0..8 {
            q[j] = round_half_away((values[j] as f64 - preds[j] as f64) * self.inv_twice_eb);
        }
        // Out-of-band lanes keep computing on a clamped code — their
        // results are masked out below, and in-band lanes are untouched
        // by the clamp. The clamped `q` is always integral, so using it
        // directly in the f64 reconstruction is exactly the scalar
        // path's `qi as f64`.
        let mut qf = [0.0f64; 8];
        for j in 0..8 {
            qf[j] = q[j].clamp(-rad, rad);
        }
        let mut rec = [0.0f32; 8];
        for j in 0..8 {
            rec[j] = (preds[j] as f64 + qf[j] * self.twice_eb) as f32;
        }
        // Mantissa extraction: adding `MAGIC` to an integral f64 in
        // [0, 2^52) leaves that integer verbatim in the low mantissa
        // bits, so the biased code never round-trips through an
        // int-float conversion (those lower to scalar fixup sequences).
        let mut biased = [0u16; 8];
        for j in 0..8 {
            biased[j] = ((qf[j] + rad) + MAGIC).to_bits() as u16;
        }
        // `<` is false for NaN, matching the scalar path's negated
        // compare (a NaN lane's garbage `biased` bits are masked out);
        // `&`, not `&&`, keeps the lane body branch-free.
        let mut codes = [0u16; 8];
        let mut recons = [0.0f32; 8];
        for j in 0..8 {
            let ok = (q[j].abs() < rad) & (((values[j] as f64) - (rec[j] as f64)).abs() <= self.eb);
            codes[j] = if ok { biased[j] } else { OUTLIER_CODE };
            recons[j] = if ok { rec[j] } else { values[j] };
        }
        (codes, recons)
    }

    /// Replay the reconstruction from a non-outlier code (decompression).
    #[inline]
    pub fn reconstruct(&self, pred: f32, code: u16) -> f32 {
        debug_assert_ne!(code, OUTLIER_CODE, "outlier codes are reconstructed from the side channel");
        let q = code as i32 - self.radius;
        (pred as f64 + q as f64 * self.twice_eb) as f32
    }

    /// Batched [`Quantizer::reconstruct`]: eight independent lanes of
    /// the identical expression. Unlike the scalar form it accepts
    /// [`OUTLIER_CODE`] lanes — they come back as an unspecified finite
    /// replay of code 0 that the caller overwrites from the outlier
    /// side channel — so a run needs no per-lane branch before the
    /// arithmetic.
    #[inline(always)]
    pub fn reconstruct8(&self, preds: &[f32; 8], codes: &[u16; 8]) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        for j in 0..8 {
            let q = codes[j] as i32 - self.radius;
            out[j] = (preds[j] as f64 + q as f64 * self.twice_eb) as f32;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_error_maps_to_radius() {
        let q = Quantizer::new(0.1, 512).expect("valid parameters");
        let r = q.quantize(1.0, 1.0);
        assert_eq!(r.code, 512);
        assert_eq!(r.recon, 1.0);
    }

    #[test]
    fn small_errors_round_to_nearest_code() {
        let q = Quantizer::new(0.1, 512).expect("valid parameters");
        // err = 0.25 => q = round(0.25/0.2) = 1
        let r = q.quantize(1.25, 1.0);
        assert_eq!(r.code, 513);
        assert!((r.recon - 1.2).abs() < 1e-6);
        // err = -0.31 => q = round(-1.55) = -2
        let r = q.quantize(0.69, 1.0);
        assert_eq!(r.code, 510);
    }

    #[test]
    fn reconstruction_matches_quantization() {
        let q = Quantizer::new(0.01, 512).expect("valid parameters");
        let r = q.quantize(3.456, 3.4);
        assert_eq!(q.reconstruct(3.4, r.code), r.recon);
    }

    #[test]
    fn error_is_bounded_for_in_range_codes() {
        let q = Quantizer::new(0.05, 512).expect("valid parameters");
        for i in 0..1000 {
            let v = (i as f32) * 0.013 - 5.0;
            let p = v + ((i % 17) as f32 - 8.0) * 0.01;
            let r = q.quantize(v, p);
            assert!((v - r.recon).abs() <= 0.05 + 1e-9, "i={i} v={v} recon={}", r.recon);
        }
    }

    #[test]
    fn large_errors_become_outliers() {
        let q = Quantizer::new(0.001, 512).expect("valid parameters");
        let r = q.quantize(100.0, 0.0);
        assert_eq!(r.code, OUTLIER_CODE);
        assert_eq!(r.recon, 100.0); // exact
    }

    #[test]
    fn nan_prediction_becomes_outlier_not_panic() {
        let q = Quantizer::new(0.1, 512).expect("valid parameters");
        let r = q.quantize(1.0, f32::NAN);
        assert_eq!(r.code, OUTLIER_CODE);
        assert_eq!(r.recon, 1.0);
    }

    #[test]
    fn alphabet_size_is_two_radius() {
        assert_eq!(Quantizer::new(1.0, 512).expect("valid").alphabet_size(), 1024);
        assert_eq!(Quantizer::new(1.0, 1).expect("valid").alphabet_size(), 2);
    }

    #[test]
    fn invalid_parameters_rejected_with_typed_errors() {
        for eb in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(Quantizer::new(eb, 512).unwrap_err(), crate::QuantError::InvalidErrorBound);
        }
        assert_eq!(Quantizer::new(0.1, 0).unwrap_err(), crate::QuantError::InvalidErrorBound);
    }

    #[test]
    fn boundary_code_just_inside_radius() {
        let q = Quantizer::new(0.5, 4).expect("valid parameters"); // codes 1..8, q in -3..=3
        let r = q.quantize(3.0, 0.0); // err=3.0, q=3 -> in range
        assert_eq!(r.code, 7);
        let r = q.quantize(4.0, 0.0); // q=4 >= radius -> outlier
        assert_eq!(r.code, OUTLIER_CODE);
    }

    proptest! {
        #[test]
        fn prop_error_bounded_or_outlier_exact(
            v in -1e6f32..1e6f32,
            p in -1e6f32..1e6f32,
            eb in 1e-6f64..1e3f64,
        ) {
            let q = Quantizer::new(eb, 512).expect("valid parameters");
            let r = q.quantize(v, p);
            if r.code == OUTLIER_CODE {
                prop_assert_eq!(r.recon, v);
            } else {
                prop_assert!(((v as f64) - (r.recon as f64)).abs() <= eb);
                prop_assert_eq!(q.reconstruct(p, r.code), r.recon);
            }
        }

        #[test]
        fn prop_codes_stay_in_band(v in -100f32..100f32, p in -100f32..100f32) {
            let q = Quantizer::new(0.01, 256).expect("valid parameters");
            let r = q.quantize(v, p);
            prop_assert!((r.code as usize) < q.alphabet_size());
        }

        #[test]
        fn prop_round_half_away_matches_f64_round(x in -1e18f64..1e18f64) {
            prop_assert_eq!(round_half_away(x).to_bits(), x.round().to_bits());
            // Snap to the nearest exact tie as well — uniform draws
            // never land on one by chance.
            let tie = x.trunc() + 0.5f64.copysign(x);
            prop_assert_eq!(round_half_away(tie).to_bits(), tie.round().to_bits());
        }

        #[test]
        fn prop_quantize8_matches_eight_scalar_calls_bitwise(
            vals_v in collection::vec(-1e6f32..1e6f32, 8),
            deltas in collection::vec(-10f32..10f32, 8),
            eb in 1e-6f64..1e3f64,
        ) {
            let q = Quantizer::new(eb, 512).expect("valid parameters");
            let vals: [f32; 8] = std::array::from_fn(|j| vals_v[j]);
            let preds: [f32; 8] = std::array::from_fn(|j| vals[j] + deltas[j]);
            let (codes, recons) = q.quantize8(&vals, &preds);
            for j in 0..8 {
                let r = q.quantize(vals[j], preds[j]);
                prop_assert_eq!(codes[j], r.code, "lane {}", j);
                prop_assert_eq!(recons[j].to_bits(), r.recon.to_bits(), "lane {}", j);
            }
        }

        #[test]
        fn prop_reconstruct8_matches_eight_scalar_calls_bitwise(
            preds_v in collection::vec(-1e6f32..1e6f32, 8),
            codes_v in collection::vec(1u16..1024, 8),
            eb in 1e-6f64..1e3f64,
        ) {
            let q = Quantizer::new(eb, 512).expect("valid parameters");
            let preds: [f32; 8] = std::array::from_fn(|j| preds_v[j]);
            let codes: [u16; 8] = std::array::from_fn(|j| codes_v[j]);
            let recons = q.reconstruct8(&preds, &codes);
            for j in 0..8 {
                let r = q.reconstruct(preds[j], codes[j]);
                prop_assert_eq!(recons[j].to_bits(), r.to_bits(), "lane {}", j);
            }
        }
    }

    #[test]
    fn round_half_away_matches_f64_round_on_edges() {
        // Exact ties (both signs), tie at the precision limit where the
        // fraction spacing is exactly 0.5, zeros, non-finites.
        let cases = [
            0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, -0.49999999999999994,
            2f64.powi(51) + 0.5, -(2f64.powi(51) + 0.5), 2f64.powi(52), -(2f64.powi(52)),
            0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX, f64::MIN,
        ];
        for x in cases {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "x={x:e}");
        }
    }

    #[test]
    fn quantize8_matches_scalar_on_edge_lanes() {
        // One batch mixing every arm: exact hit, rounded code, both
        // outlier kinds (out-of-band, NaN value, NaN prediction), and
        // non-finite values and predictions.
        let q = Quantizer::new(0.001, 512).expect("valid parameters");
        let inf = f32::INFINITY;
        for (vals, preds) in [
            ([1.0f32, 1.25, 100.0, f32::NAN, 1.0, -3.5, 0.0, 1e30], [1.0f32, 1.0, 0.0, 1.0, f32::NAN, -3.5002, 1e-5, 1e30]),
            ([inf, -inf, 1.0, 1.0, inf, -inf, f32::NAN, 0.5], [1.0, 1.0, inf, -inf, inf, inf, f32::NAN, 0.5005]),
        ] {
            let (codes, recons) = q.quantize8(&vals, &preds);
            for j in 0..8 {
                let r = q.quantize(vals[j], preds[j]);
                assert_eq!(codes[j], r.code, "lane {j}");
                assert_eq!(recons[j].to_bits(), r.recon.to_bits(), "lane {j}");
            }
        }
    }

    #[test]
    fn reconstruct8_matches_scalar_on_edge_lanes() {
        // Band edges and non-finite predictions; an outlier-code lane
        // (scalar `reconstruct` refuses those) must not disturb its
        // neighbours and must come back finite for a finite prediction.
        let q = Quantizer::new(0.001, 512).expect("valid parameters");
        let preds = [1.0f32, -2.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, 0.0, 3.0];
        let codes = [1u16, 1023, 512, 700, 300, 513, OUTLIER_CODE, 511];
        let recons = q.reconstruct8(&preds, &codes);
        for j in 0..8 {
            if codes[j] == OUTLIER_CODE {
                assert!(recons[j].is_finite(), "lane {j}");
            } else {
                let r = q.reconstruct(preds[j], codes[j]);
                assert_eq!(recons[j].to_bits(), r.to_bits(), "lane {j}");
            }
        }
    }
}
