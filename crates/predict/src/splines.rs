//! The 1-d interpolation splines of § V-B.1.
//!
//! All arithmetic is `f32`, matching the CUDA kernels, so compression and
//! decompression replay bit-identical predictions. Each spline also has
//! an 8-lane [`F32x8`] form evaluating the identical expression tree
//! elementwise, so the batched sweep stays bit-identical to the scalar
//! one.

use crate::lanes::F32x8;

/// The two cubic variants of § V-B.1. Each wins on different datasets;
/// the auto-tuner (§ V-C) picks one per dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CubicVariant {
    /// Not-a-knot: `(-1/16, 9/16, 9/16, -1/16)`.
    #[default]
    NotAKnot,
    /// Natural: `(-3/40, 23/40, 23/40, -3/40)`.
    Natural,
}

/// Cubic spline through the four stride-spaced neighbours
/// `(x_{n-3}, x_{n-1}, x_{n+1}, x_{n+3})`.
#[inline]
pub fn cubic(variant: CubicVariant, a: f32, b: f32, c: f32, d: f32) -> f32 {
    match variant {
        CubicVariant::NotAKnot => (-a + 9.0 * b + 9.0 * c - d) / 16.0,
        CubicVariant::Natural => (-3.0 * a + 23.0 * b + 23.0 * c - 3.0 * d) / 40.0,
    }
}

/// Quadratic spline through `(x_{n-3}, x_{n-1}, x_{n+1})` — the
/// left-leaning 3-neighbour circumstance.
#[inline]
pub fn quad_left(a: f32, b: f32, c: f32) -> f32 {
    (-a + 6.0 * b + 3.0 * c) / 8.0
}

/// Quadratic spline through `(x_{n-1}, x_{n+1}, x_{n+3})` — the
/// right-leaning 3-neighbour circumstance.
///
/// The paper prints this as `-3/8 x_{n-1} + 6/8 x_{n+1} - 1/8 x_{n+3}`,
/// whose coefficients sum to 1/4 — a typo (a polynomial interpolant's
/// weights must sum to 1). We use the SZ3 original it was derived from:
/// `(3 x_{n-1} + 6 x_{n+1} - x_{n+3}) / 8`.
#[inline]
pub fn quad_right(b: f32, c: f32, d: f32) -> f32 {
    (3.0 * b + 6.0 * c - d) / 8.0
}

/// Linear spline through `(x_{n-1}, x_{n+1})`.
#[inline]
pub fn linear(b: f32, c: f32) -> f32 {
    0.5 * b + 0.5 * c
}

/// Eight-lane [`cubic`]: the same expression tree, elementwise.
#[inline(always)]
pub fn cubic_x8(variant: CubicVariant, a: F32x8, b: F32x8, c: F32x8, d: F32x8) -> F32x8 {
    match variant {
        CubicVariant::NotAKnot => {
            let w = F32x8::splat(9.0);
            (-a + w * b + w * c - d) / F32x8::splat(16.0)
        }
        CubicVariant::Natural => {
            let wo = F32x8::splat(-3.0);
            let wi = F32x8::splat(23.0);
            (wo * a + wi * b + wi * c - F32x8::splat(3.0) * d) / F32x8::splat(40.0)
        }
    }
}

/// Eight-lane [`quad_left`].
#[inline(always)]
pub fn quad_left_x8(a: F32x8, b: F32x8, c: F32x8) -> F32x8 {
    (-a + F32x8::splat(6.0) * b + F32x8::splat(3.0) * c) / F32x8::splat(8.0)
}

/// Eight-lane [`quad_right`].
#[inline(always)]
pub fn quad_right_x8(b: F32x8, c: F32x8, d: F32x8) -> F32x8 {
    (F32x8::splat(3.0) * b + F32x8::splat(6.0) * c - d) / F32x8::splat(8.0)
}

/// Eight-lane [`linear`].
#[inline(always)]
pub fn linear_x8(b: F32x8, c: F32x8) -> F32x8 {
    let h = F32x8::splat(0.5);
    h * b + h * c
}

/// Number of f32 operations charged per spline evaluation (for the
/// roofline FLOP counters). Cubic: 4 mul + 3 add + 1 div.
pub const CUBIC_FLOPS: u64 = 8;
/// FLOPs per quadratic evaluation.
pub const QUAD_FLOPS: u64 = 6;
/// FLOPs per linear evaluation.
pub const LINEAR_FLOPS: u64 = 3;

/// Predict the value at line position `c` (an odd multiple of `stride`)
/// from already-known points on a 1-d line of length `len`, applying the
/// four-circumstance rule of § V-B.1.
///
/// `get(i)` reads the known value at line position `i`; it is only called
/// for in-range multiples of `2*stride` relative to `c`. Returns the
/// prediction and the FLOPs spent.
#[inline(always)]
pub fn predict_line(
    variant: CubicVariant,
    c: usize,
    stride: usize,
    len: usize,
    get: impl Fn(usize) -> f32,
) -> (f32, u64) {
    debug_assert!(c >= stride && c < len);
    debug_assert_eq!((c / stride) % 2, 1, "predicted point must be an odd multiple of stride");
    let has_r1 = c + stride < len;
    if !has_r1 {
        // Single neighbour: copy x_{n-1} (always exists since c >= stride).
        return (get(c - stride), 0);
    }
    let has_l3 = c >= 3 * stride;
    let has_r3 = c + 3 * stride < len;
    let b = get(c - stride);
    let cc = get(c + stride);
    match (has_l3, has_r3) {
        (true, true) => {
            (cubic(variant, get(c - 3 * stride), b, cc, get(c + 3 * stride)), CUBIC_FLOPS)
        }
        (true, false) => (quad_left(get(c - 3 * stride), b, cc), QUAD_FLOPS),
        (false, true) => (quad_right(b, cc, get(c + 3 * stride)), QUAD_FLOPS),
        (false, false) => (linear(b, cc), LINEAR_FLOPS),
    }
}

/// Eight-lane [`predict_line`]: predict one line position on up to
/// eight parallel lines that share the circumstance `(variant, c,
/// stride, len)`. `gather(i)` reads the known values at line position
/// `i` across the lines. Returns the predictions and the FLOPs *per
/// line* — what one scalar call would charge — so the caller bills
/// only the lanes its run really holds.
#[inline(always)]
pub fn predict_line_x8(
    variant: CubicVariant,
    c: usize,
    stride: usize,
    len: usize,
    gather: impl Fn(usize) -> F32x8,
) -> (F32x8, u64) {
    debug_assert!(c >= stride && c < len);
    debug_assert_eq!((c / stride) % 2, 1, "predicted point must be an odd multiple of stride");
    let has_r1 = c + stride < len;
    if !has_r1 {
        return (gather(c - stride), 0);
    }
    let has_l3 = c >= 3 * stride;
    let has_r3 = c + 3 * stride < len;
    let b = gather(c - stride);
    let cc = gather(c + stride);
    match (has_l3, has_r3) {
        (true, true) => (
            cubic_x8(variant, gather(c - 3 * stride), b, cc, gather(c + 3 * stride)),
            CUBIC_FLOPS,
        ),
        (true, false) => (quad_left_x8(gather(c - 3 * stride), b, cc), QUAD_FLOPS),
        (false, true) => (quad_right_x8(b, cc, gather(c + 3 * stride)), QUAD_FLOPS),
        (false, false) => (linear_x8(b, cc), LINEAR_FLOPS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::LANES;

    #[test]
    fn all_spline_weights_sum_to_one() {
        // Interpolating a constant field must reproduce it exactly.
        for v in [CubicVariant::NotAKnot, CubicVariant::Natural] {
            assert!((cubic(v, 5.0, 5.0, 5.0, 5.0) - 5.0).abs() < 1e-6);
        }
        assert!((quad_left(5.0, 5.0, 5.0) - 5.0).abs() < 1e-6);
        assert!((quad_right(5.0, 5.0, 5.0) - 5.0).abs() < 1e-6);
        assert!((linear(5.0, 5.0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn linear_functions_are_reproduced_exactly() {
        // All splines are at-least-degree-1 interpolants on the stride
        // lattice: f(t) = 2t + 1 sampled at t = -3, -1, 1, 3.
        let f = |t: f32| 2.0 * t + 1.0;
        for v in [CubicVariant::NotAKnot, CubicVariant::Natural] {
            assert!((cubic(v, f(-3.0), f(-1.0), f(1.0), f(3.0)) - f(0.0)).abs() < 1e-5);
        }
        assert!((quad_left(f(-3.0), f(-1.0), f(1.0)) - f(0.0)).abs() < 1e-5);
        assert!((quad_right(f(-1.0), f(1.0), f(3.0)) - f(0.0)).abs() < 1e-5);
        assert!((linear(f(-1.0), f(1.0)) - f(0.0)).abs() < 1e-5);
    }

    #[test]
    fn notaknot_reproduces_cubics_quads_reproduce_quadratics() {
        let g = |t: f32| t * t * t - 2.0 * t * t + 3.0;
        let p = cubic(CubicVariant::NotAKnot, g(-3.0), g(-1.0), g(1.0), g(3.0));
        assert!((p - g(0.0)).abs() < 1e-4, "not-a-knot should interpolate cubics, got {p}");
        let q = |t: f32| t * t + t;
        assert!((quad_left(q(-3.0), q(-1.0), q(1.0)) - q(0.0)).abs() < 1e-4);
        assert!((quad_right(q(-1.0), q(1.0), q(3.0)) - q(0.0)).abs() < 1e-4);
    }

    #[test]
    fn cubic_variants_differ_on_curved_stencils() {
        // The natural spline weighs the outer points more heavily
        // (3/40 > 1/16), so on a U-shaped stencil it dips further below
        // the inner points than not-a-knot.
        let (a, b, c, d) = (10.0, 1.0, 1.0, 10.0);
        let nk = cubic(CubicVariant::NotAKnot, a, b, c, d);
        let nat = cubic(CubicVariant::Natural, a, b, c, d);
        assert!((nk - -0.125).abs() < 1e-6);
        assert!((nat - -0.35).abs() < 1e-6);
        assert!(nat < nk, "natural={nat} nk={nk}");
    }

    fn line_vals() -> Vec<f32> {
        (0..9).map(|i| (i as f32 * 0.5).sin()).collect()
    }

    #[test]
    fn predict_line_interior_uses_cubic() {
        // Predicted points are odd multiples of the stride (the sweep's
        // contract): c = 5 with stride 1 has neighbours 2, 4, 6, 8.
        let v = line_vals();
        let (p, fl) = predict_line(CubicVariant::NotAKnot, 5, 1, 9, |i| v[i]);
        assert_eq!(fl, CUBIC_FLOPS);
        let expect = cubic(CubicVariant::NotAKnot, v[2], v[4], v[6], v[8]);
        assert_eq!(p, expect);
    }

    #[test]
    fn predict_line_left_edge_uses_quad_right() {
        let v = line_vals();
        let (p, fl) = predict_line(CubicVariant::NotAKnot, 1, 1, 9, |i| v[i]);
        assert_eq!(fl, QUAD_FLOPS);
        assert_eq!(p, quad_right(v[0], v[2], v[4]));
    }

    #[test]
    fn predict_line_right_edge_uses_quad_left() {
        let v = line_vals();
        let (p, fl) = predict_line(CubicVariant::NotAKnot, 7, 1, 9, |i| v[i]);
        assert_eq!(fl, QUAD_FLOPS);
        assert_eq!(p, quad_left(v[4], v[6], v[8]));
    }

    #[test]
    fn predict_line_two_neighbors_linear() {
        // len 4, c=1, stride 1: neighbours at 0 and 2 only (c+3 = 4 out,
        // c-3 < 0).
        let v = [1.0, 0.0, 3.0, 5.0];
        let (p, fl) = predict_line(CubicVariant::NotAKnot, 1, 1, 3, |i| v[i]);
        assert_eq!(fl, LINEAR_FLOPS);
        assert_eq!(p, 2.0);
    }

    #[test]
    fn predict_line_one_neighbor_copies_left() {
        // c + stride >= len: copy x_{n-1}.
        let v = [7.0, 0.0];
        let (p, fl) = predict_line(CubicVariant::NotAKnot, 1, 1, 2, |i| v[i]);
        assert_eq!(fl, 0);
        assert_eq!(p, 7.0);
    }

    #[test]
    fn predict_line_x8_matches_eight_scalar_calls_bitwise() {
        // Eight parallel lines sharing each circumstance; every
        // dispatch arm (cubic, quads, linear, copy) must match the
        // scalar path bit-for-bit and charge one line's FLOPs.
        let lines: Vec<Vec<f32>> =
            (0..LANES).map(|l| (0..9).map(|i| ((i + l) as f32 * 0.37).sin()).collect()).collect();
        for (c, stride, len) in [(5usize, 1usize, 9usize), (1, 1, 9), (7, 1, 9), (1, 1, 3), (1, 1, 2)]
        {
            for v in [CubicVariant::NotAKnot, CubicVariant::Natural] {
                let (p8, fl8) =
                    predict_line_x8(v, c, stride, len, |i| F32x8(std::array::from_fn(|l| lines[l][i])));
                for (l, line) in lines.iter().enumerate() {
                    let (p, fl) = predict_line(v, c, stride, len, |i| line[i]);
                    assert_eq!(p.to_bits(), p8.0[l].to_bits(), "lane {l} at c={c}");
                    assert_eq!(fl8, fl, "flops at c={c}");
                }
            }
        }
    }

    #[test]
    fn predict_line_respects_stride() {
        let v: Vec<f32> = (0..33).map(|i| i as f32).collect();
        // c = 4, stride 4, len 33: neighbours 0, 8 (and 16 for quad_right).
        let (p, _) = predict_line(CubicVariant::NotAKnot, 4, 4, 33, |i| v[i]);
        assert!((p - 4.0).abs() < 1e-5);
        // Interior cubic at c = 12: neighbours 0, 8, 16, 24.
        let (p, fl) = predict_line(CubicVariant::Natural, 12, 4, 33, |i| v[i]);
        assert_eq!(fl, CUBIC_FLOPS);
        assert!((p - 12.0).abs() < 1e-5);
    }
}
