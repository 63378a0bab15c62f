//! Profiling-based auto-tuning of G-Interp (§ V-C).
//!
//! Two lightweight mechanisms, mirroring the paper's "profiling-and-auto-
//! tuning kernel":
//!
//! * the error-bound reduction factor `alpha` is a piecewise-linear
//!   function (Eq. 1) of the value-range-relative error bound;
//! * a small uniform sample of the input is probed with both cubic
//!   variants along every dimension; the per-dimension winner is kept and
//!   the dimensions are ordered from least smooth (largest profiled
//!   error — interpolated *first*, so fewer interpolations run along it)
//!   to smoothest.

use cuszi_tensor::{NdArray, Shape};

use crate::splines::{cubic, CubicVariant};
use crate::sweep::active_axes;

/// Tuned interpolation configuration shared by compressor and
/// decompressor (serialised into the archive header).
#[derive(Clone, Debug, PartialEq)]
pub struct InterpConfig {
    /// Level-wise error-bound reduction factor (`alpha >= 1`).
    pub alpha: f64,
    /// Chosen cubic variant per padded axis.
    pub variants: [CubicVariant; 3],
    /// Dimension processing order per level: least smooth axis first.
    /// A permutation of [`active_axes`] for the data's rank.
    pub order: Vec<usize>,
}

impl InterpConfig {
    /// Untuned defaults: `alpha = 1` (uniform bounds), not-a-knot
    /// everywhere, natural axis order. Used by ablations.
    pub fn untuned(rank: usize) -> Self {
        InterpConfig {
            alpha: 1.0,
            variants: [CubicVariant::NotAKnot; 3],
            order: active_axes(rank).to_vec(),
        }
    }
}

/// Eq. 1: the error-bound reduction factor as a piecewise-linear
/// function of the value-range-relative error bound `eps`.
pub fn alpha_from_rel_eb(eps: f64) -> f64 {
    if eps >= 1e-1 {
        2.0
    } else if eps >= 1e-2 {
        1.75 + 0.25 * (eps - 1e-2) / (1e-1 - 1e-2)
    } else if eps >= 1e-3 {
        1.5 + 0.25 * (eps - 1e-3) / (1e-2 - 1e-3)
    } else if eps >= 1e-4 {
        1.25 + 0.25 * (eps - 1e-4) / (1e-3 - 1e-4)
    } else if eps >= 1e-5 {
        1.0 + 0.25 * (eps - 1e-5) / (1e-4 - 1e-5)
    } else {
        1.0
    }
}

/// Exponent cap for the level-wise bound reduction. The 3-d ladder the
/// paper evaluates has 3 levels (strides 4, 2, 1) so the formula is used
/// verbatim; the deeper 1-d/2-d and whole-grid ladders would otherwise
/// shrink high-level bounds geometrically without bound, destroying the
/// compression ratio, so the reduction saturates after this many levels.
pub const LEVEL_EB_EXPONENT_CAP: u32 = 3;

/// The error bound applied at interpolation level `level` (1 = finest):
/// `e_l = e / alpha^(min(l-1, cap))` (§ V-B.2).
pub fn level_error_bound(global_eb: f64, level: u32, alpha: f64) -> f64 {
    let exp = (level - 1).min(LEVEL_EB_EXPONENT_CAP);
    global_eb / alpha.powi(exp as i32)
}

/// Per-dimension profiling result.
#[derive(Clone, Copy, Debug, Default)]
pub struct DimProfile {
    /// Accumulated |error| of the not-a-knot cubic along this axis.
    pub err_notaknot: f64,
    /// Accumulated |error| of the natural cubic along this axis.
    pub err_natural: f64,
    /// Number of probes accumulated.
    pub samples: u32,
}

impl DimProfile {
    /// The winning variant for this axis (ties favour not-a-knot, the
    /// SZ3 default).
    pub fn best_variant(&self) -> CubicVariant {
        if self.err_natural < self.err_notaknot {
            CubicVariant::Natural
        } else {
            CubicVariant::NotAKnot
        }
    }

    /// The axis smoothness measure: the winner's mean error.
    pub fn smoothness_error(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.err_notaknot.min(self.err_natural) / self.samples as f64
    }
}

/// Number of sample positions per axis in the profiling sub-grid
/// ("e.g. a 4^3 sub-grid for 3D cases", § V-C.1).
pub const PROFILE_GRID: usize = 4;

/// Profile the input: probe both cubic variants along every active axis
/// at a uniform sample of interior points and derive the tuned
/// [`InterpConfig`]. `rel_eb` is the value-range-relative bound feeding
/// Eq. 1. Also returns the raw per-axis profiles for diagnostics.
pub fn profile_and_tune(data: &NdArray<f32>, rel_eb: f64) -> (InterpConfig, [DimProfile; 3]) {
    let shape = data.shape();
    let rank = shape.rank();
    let axes = active_axes(rank);
    let mut profiles = [DimProfile::default(); 3];

    for p in sample_points(shape) {
        for &d in axes {
            // Probe needs line positions p[d] - 3 ..= p[d] + 3.
            if p[d] < 3 || p[d] + 3 >= shape.dims3()[d] {
                continue;
            }
            let at = |off: isize| -> f32 {
                let mut q = p;
                q[d] = (q[d] as isize + off) as usize;
                data.get3(q[0], q[1], q[2])
            };
            let (a, b, c, dd) = (at(-3), at(-1), at(1), at(3));
            let actual = at(0);
            let prof = &mut profiles[d];
            prof.err_notaknot += (cubic(CubicVariant::NotAKnot, a, b, c, dd) - actual).abs() as f64;
            prof.err_natural += (cubic(CubicVariant::Natural, a, b, c, dd) - actual).abs() as f64;
            prof.samples += 1;
        }
    }

    let mut variants = [CubicVariant::NotAKnot; 3];
    for &d in axes {
        variants[d] = profiles[d].best_variant();
    }
    // Least smooth (largest error) first.
    let mut order = axes.to_vec();
    order.sort_by(|&a, &b| {
        profiles[b]
            .smoothness_error()
            .partial_cmp(&profiles[a].smoothness_error())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    (InterpConfig { alpha: alpha_from_rel_eb(rel_eb), variants, order }, profiles)
}

/// The uniform interior sample grid (up to `PROFILE_GRID` positions per
/// active axis).
fn sample_points(shape: Shape) -> Vec<[usize; 3]> {
    let dims = shape.dims3();
    let positions = |n: usize| -> Vec<usize> {
        if n < 8 {
            // Too small for a margin-3 probe lattice; probe the middle.
            return vec![n / 2];
        }
        (1..=PROFILE_GRID).map(|i| i * n / (PROFILE_GRID + 1)).collect()
    };
    let (zs, ys, xs) = (positions(dims[0]), positions(dims[1]), positions(dims[2]));
    let mut out = Vec::with_capacity(zs.len() * ys.len() * xs.len());
    for &z in &zs {
        for &y in &ys {
            for &x in &xs {
                out.push([z, y, x]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_anchor_points() {
        assert_eq!(alpha_from_rel_eb(0.5), 2.0);
        assert_eq!(alpha_from_rel_eb(1e-1), 2.0);
        assert!((alpha_from_rel_eb(1e-2) - 1.75).abs() < 1e-12);
        assert!((alpha_from_rel_eb(1e-3) - 1.5).abs() < 1e-12);
        assert!((alpha_from_rel_eb(1e-4) - 1.25).abs() < 1e-12);
        assert!((alpha_from_rel_eb(1e-5) - 1.0).abs() < 1e-12);
        assert_eq!(alpha_from_rel_eb(1e-7), 1.0);
    }

    #[test]
    fn eq1_is_monotone_and_continuous() {
        let mut prev = 0.0;
        let mut eps = 1e-6;
        while eps < 1.0 {
            let a = alpha_from_rel_eb(eps);
            assert!(a >= prev - 1e-12, "non-monotone at eps={eps}");
            assert!((1.0..=2.0).contains(&a));
            prev = a;
            eps *= 1.05;
        }
        // Continuity at segment joints.
        for j in [1e-5, 1e-4, 1e-3, 1e-2, 1e-1] {
            let below = alpha_from_rel_eb(j * (1.0 - 1e-9));
            let at = alpha_from_rel_eb(j);
            assert!((below - at).abs() < 1e-6, "discontinuity at {j}");
        }
    }

    #[test]
    fn level_bounds_shrink_with_level() {
        let e = 0.1;
        let a = 2.0;
        assert_eq!(level_error_bound(e, 1, a), 0.1);
        assert_eq!(level_error_bound(e, 2, a), 0.05);
        assert_eq!(level_error_bound(e, 3, a), 0.025);
        // Cap: level 5+ saturates at alpha^3.
        assert_eq!(level_error_bound(e, 5, a), level_error_bound(e, 4, a));
    }

    #[test]
    fn alpha_one_keeps_bounds_uniform() {
        for l in 1..8 {
            assert_eq!(level_error_bound(0.01, l, 1.0), 0.01);
        }
    }

    #[test]
    fn profiler_orders_least_smooth_axis_first() {
        // y axis oscillates fast, x (and z) are gentle ramps: in 2-d and
        // in 3-d the rough y axis must be interpolated first.
        let d2 = NdArray::from_fn(Shape::d2(64, 64), |_z, y, x| {
            (y as f32 * 1.3).sin() * 5.0 + x as f32 * 0.01
        });
        let d3 = NdArray::from_fn(Shape::d3(32, 64, 64), |z, y, x| {
            (y as f32 * 1.3).sin() * 5.0 + x as f32 * 0.01 + z as f32 * 0.02
        });
        for (data, want) in [(d2, vec![1, 2]), (d3, vec![1, 2, 0])] {
            let (cfg, prof) = profile_and_tune(&data, 1e-3);
            assert_eq!(cfg.order, want, "rough y axis must be interpolated first");
            assert!(prof[1].smoothness_error() > prof[2].smoothness_error());
            assert!((cfg.alpha - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn profiler_handles_tiny_arrays() {
        let data = NdArray::from_fn(Shape::d3(4, 4, 4), |z, y, x| (z + y + x) as f32);
        let (cfg, _) = profile_and_tune(&data, 1e-2);
        assert_eq!(cfg.order.len(), 3);
    }

    #[test]
    fn variant_choice_tracks_lower_error() {
        let p = DimProfile { err_notaknot: 2.0, err_natural: 1.0, samples: 10 };
        assert_eq!(p.best_variant(), CubicVariant::Natural);
        let p = DimProfile { err_notaknot: 1.0, err_natural: 1.0, samples: 10 };
        assert_eq!(p.best_variant(), CubicVariant::NotAKnot); // tie -> default
        assert!((p.smoothness_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn untuned_config_is_identity() {
        let c = InterpConfig::untuned(3);
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.order, vec![0, 1, 2]);
        let c1 = InterpConfig::untuned(1);
        assert_eq!(c1.order, vec![2]);
    }

    #[test]
    fn profiler_keeps_the_natural_order_on_ties() {
        // A constant field profiles every axis as equally smooth; the
        // stable sort leaves the axes in natural order.
        for shape in [Shape::d1(64), Shape::d2(32, 32), Shape::d3(16, 16, 16)] {
            let (cfg, _) = profile_and_tune(&NdArray::from_fn(shape, |_, _, _| 1.0), 1e-3);
            assert_eq!(cfg.order, active_axes(shape.rank()).to_vec(), "{shape}");
        }
    }

    #[test]
    fn low_rank_profiles_probe_only_the_active_axes() {
        let data = NdArray::from_fn(Shape::d1(256), |_, _, x| (x as f32 * 0.4).sin());
        let (cfg, prof) = profile_and_tune(&data, 1e-3);
        assert_eq!(cfg.order, vec![2]);
        assert_eq!((prof[0].samples, prof[1].samples), (0, 0));
        assert!(prof[2].samples > 0);
    }

    #[test]
    fn profiled_alpha_follows_eq1_at_every_bound() {
        let data = NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| (z * y + x) as f32);
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-6] {
            assert_eq!(profile_and_tune(&data, eps).0.alpha, alpha_from_rel_eb(eps), "{eps}");
        }
    }
}
