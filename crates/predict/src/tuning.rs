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

use std::sync::Mutex;

use cuszi_gpu_sim::DeviceSpec;
use cuszi_tensor::{NdArray, Shape};

use crate::ginterp;
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

// ---------------------------------------------------------------------
// Calibrated autotuner (§ V-C extended): a short calibration pass over a
// deterministic crop runs the real G-Interp kernel once per candidate
// dimension order and keeps the order that zeroes the most quant-codes.
// ---------------------------------------------------------------------

/// One calibration candidate: a dimension order and the fraction of
/// its quant-codes at the zero-error code on the calibration crop (the
/// prediction-quality proxy driving CR).
#[derive(Clone, Debug)]
pub struct CalibrationRow {
    /// Dimension order of the candidate config.
    pub order: Vec<usize>,
    /// Fraction of quant-codes at the zero-error code.
    pub zero_code_frac: f64,
}

/// The autotuner's output: the interp config to apply and the
/// calibration evidence.
#[derive(Clone, Debug)]
pub struct AutotuneDecision {
    /// Header-carried tuning (alpha, variants, order) — always applied.
    pub config: InterpConfig,
    /// One row per candidate order, profiled order first.
    pub rows: Vec<CalibrationRow>,
    /// True when the decision came from the per-family cache.
    pub cached: bool,
}

impl AutotuneDecision {
    /// Human-readable calibration report (the `--autotune` printout).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "autotune decision ({}): order {:?}, variants [{:?}, {:?}, {:?}], alpha {:.3}\n",
            if self.cached { "cached" } else { "calibrated" },
            self.config.order,
            self.config.variants[0],
            self.config.variants[1],
            self.config.variants[2],
            self.config.alpha,
        ));
        out.push_str(&format!("  candidate orders ({}):\n", self.rows.len()));
        out.push_str(&format!("  {:>9} {:>7}\n", "order", "zero%"));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:>9} {:>6.1}%\n",
                format!("{:?}", r.order).replace(' ', ""),
                r.zero_code_frac * 100.0,
            ));
        }
        out
    }
}

/// Cache key: datasets of the same family (same shape, bound decade,
/// radius, device) reuse one calibrated decision.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FamilyKey {
    dims: [usize; 3],
    rank: usize,
    /// `round(2 * log10(rel_eb))` — half-decade buckets.
    eb_bucket: i64,
    radius: u16,
    device: &'static str,
}

static DECISION_CACHE: Mutex<Vec<(FamilyKey, AutotuneDecision)>> = Mutex::new(Vec::new());

/// Drop all cached autotune decisions (tests and long-lived servers).
pub fn clear_autotune_cache() {
    DECISION_CACHE.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Side length targets of the calibration crop per padded axis. Big
/// enough for several thread blocks, small enough that the whole
/// calibration costs a few milliseconds.
fn calibration_extent(rank: usize, dims: [usize; 3]) -> [usize; 3] {
    let target = match rank {
        1 => [1, 1, 4096],
        2 => [1, 64, 64],
        _ => [32, 32, 64],
    };
    [dims[0].min(target[0]), dims[1].min(target[1]), dims[2].min(target[2])]
}

/// Deterministic centre crop used for calibration runs.
fn calibration_crop(data: &NdArray<f32>) -> NdArray<f32> {
    let shape = data.shape();
    let dims = shape.dims3();
    let ext = calibration_extent(shape.rank(), dims);
    let start = [
        (dims[0] - ext[0]) / 2,
        (dims[1] - ext[1]) / 2,
        (dims[2] - ext[2]) / 2,
    ];
    let cropped = match shape.rank() {
        1 => Shape::d1(ext[2]),
        2 => Shape::d2(ext[1], ext[2]),
        _ => Shape::d3(ext[0], ext[1], ext[2]),
    };
    NdArray::from_fn(cropped, |z, y, x| data.get3(start[0] + z, start[1] + y, start[2] + x))
}

/// Run the calibrated autotuner.
///
/// A short calibration pass compresses a deterministic centre crop at
/// the default geometry once per candidate dimension order — the § V-C
/// profiled order, the natural order and the reversed profiled order —
/// and keeps the order with the highest `zero_code_frac` (the CR-quality
/// proxy), ties keeping the profiled order.
///
/// The fraction is a pure function of the deterministic kernel output,
/// so the decision is reproducible; it is cached per dataset family
/// (shape / bound decade / radius / device).
pub fn autotune(
    data: &NdArray<f32>,
    rel_eb: f64,
    eb_abs: f64,
    radius: u16,
    device: &DeviceSpec,
) -> AutotuneDecision {
    let shape = data.shape();
    let rank = shape.rank();
    let key = FamilyKey {
        dims: shape.dims3(),
        rank,
        eb_bucket: (2.0 * rel_eb.max(f64::MIN_POSITIVE).log10()).round() as i64,
        radius,
        device: device.name,
    };
    {
        let cache = DECISION_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, d)) = cache.iter().find(|(k, _)| *k == key) {
            let mut hit = d.clone();
            hit.cached = true;
            return hit;
        }
    }

    let (profiled, _) = profile_and_tune(data, rel_eb);
    let crop = calibration_crop(data);

    // Candidate orders, deduplicated, profiled first.
    let mut orders: Vec<Vec<usize>> = Vec::new();
    for o in [
        profiled.order.clone(),
        active_axes(rank).to_vec(),
        profiled.order.iter().rev().copied().collect(),
    ] {
        if !orders.contains(&o) {
            orders.push(o);
        }
    }

    let rows: Vec<CalibrationRow> = orders
        .into_iter()
        .map(|order| {
            let cand = InterpConfig { order, ..profiled.clone() };
            let out = ginterp::compress(&crop, eb_abs, radius, &cand, device);
            let zero = out.codes.iter().filter(|&&c| c == radius).count();
            CalibrationRow {
                order: cand.order,
                zero_code_frac: zero as f64 / out.codes.len().max(1) as f64,
            }
        })
        .collect();

    // The first row with the highest fraction: a strict `>` keeps the
    // profiled order on ties.
    let best_order = rows
        .iter()
        .reduce(|best, r| if r.zero_code_frac > best.zero_code_frac { r } else { best })
        .map_or_else(|| profiled.order.clone(), |r| r.order.clone());

    let decision = AutotuneDecision {
        config: InterpConfig { order: best_order, ..profiled },
        rows,
        cached: false,
    };
    let mut cache = DECISION_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, decision.clone()));
    }
    drop(cache);
    decision
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

    fn smooth_in_x_rough_in_y() -> NdArray<f32> {
        // y axis oscillates fast, x axis is a gentle ramp.
        NdArray::from_fn(Shape::d2(64, 64), |_z, y, x| {
            (y as f32 * 1.3).sin() * 5.0 + x as f32 * 0.01
        })
    }

    #[test]
    fn profiler_orders_least_smooth_axis_first() {
        let data = smooth_in_x_rough_in_y();
        let (cfg, prof) = profile_and_tune(&data, 1e-3);
        assert_eq!(cfg.order, vec![1, 2], "rough y axis must be interpolated first");
        assert!(prof[1].smoothness_error() > prof[2].smoothness_error());
        assert!((cfg.alpha - 1.5).abs() < 1e-9);
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

    fn wavy_field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(48, 48, 96), |z, y, x| {
            (y as f32 * 0.9).sin() * 3.0 + (x as f32 * 0.05).cos() + z as f32 * 0.01
        })
    }

    #[test]
    fn autotune_is_deterministic_and_caches_by_family() {
        clear_autotune_cache();
        let data = wavy_field();
        let d1 = autotune(&data, 1e-3, 1e-3, 512, &cuszi_gpu_sim::A100);
        assert!(!d1.cached);
        assert!(!d1.rows.is_empty());
        assert_eq!(d1.config.order.len(), 3);
        // Second call: cache hit, identical decision.
        let d2 = autotune(&data, 1e-3, 1e-3, 512, &cuszi_gpu_sim::A100);
        assert!(d2.cached);
        assert_eq!(d1.config, d2.config);
        // Different bound decade: fresh calibration.
        let d3 = autotune(&data, 1e-1, 1e-1, 512, &cuszi_gpu_sim::A100);
        assert!(!d3.cached);
        clear_autotune_cache();
    }

    #[test]
    fn autotune_calibrates_each_candidate_order_once_for_3d() {
        clear_autotune_cache();
        let data = wavy_field();
        let d = autotune(&data, 1e-3, 1e-3, 512, &cuszi_gpu_sim::A100);
        let (profiled, _) = profile_and_tune(&data, 1e-3);
        // Profiled, natural and reversed orders, deduplicated, profiled
        // first; the winner is one of them.
        assert!((2..=3).contains(&d.rows.len()), "{:?}", d.rows);
        assert_eq!(d.rows[0].order, profiled.order);
        for (i, r) in d.rows.iter().enumerate() {
            assert!(d.rows[..i].iter().all(|p| p.order != r.order), "duplicate {r:?}");
            assert!((0.0..=1.0).contains(&r.zero_code_frac), "{r:?}");
        }
        assert!(d.rows.iter().any(|r| r.order == d.config.order));
        let text = d.render();
        assert!(text.contains("candidate orders"));
        assert!(text.contains("zero%"));
        clear_autotune_cache();
    }

    #[test]
    fn autotune_render_lists_every_candidate_order() {
        // A shape no other test uses, so this decision never lands in
        // another test's cache family.
        let data = NdArray::from_fn(Shape::d3(40, 40, 80), |z, y, x| {
            (y as f32 * 0.9).sin() * 3.0 + (x as f32 * 0.05).cos() + z as f32 * 0.01
        });
        let d = autotune(&data, 1e-3, 1e-3, 512, &cuszi_gpu_sim::A100);
        let text = d.render();
        assert!(text.contains(&format!("candidate orders ({})", d.rows.len())), "{text}");
        for r in &d.rows {
            let order = format!("{:?}", r.order).replace(' ', "");
            let zero = format!("{:.1}%", r.zero_code_frac * 100.0);
            assert!(
                text.lines().any(|l| l.contains(&order) && l.contains(&zero)),
                "row {r:?} missing:\n{text}"
            );
        }
    }

    #[test]
    fn autotune_handles_low_ranks() {
        clear_autotune_cache();
        let d2field = NdArray::from_fn(Shape::d2(96, 96), |_z, y, x| {
            ((x + y) as f32 * 0.1).sin()
        });
        let d = autotune(&d2field, 1e-3, 1e-3, 512, &cuszi_gpu_sim::A100);
        assert_eq!(d.rows.len(), 2, "a 2-d field has two distinct orders");
        assert_eq!(d.config.order.len(), 2);
        clear_autotune_cache();
    }

    #[test]
    fn autotune_ties_keep_the_profiled_order() {
        clear_autotune_cache();
        // Linear in every axis: cubic interpolation is exact, so every
        // candidate order zeroes every quant-code and the profiled
        // order must survive the tie. The field is its own calibration
        // crop, and every axis ends on an anchor.
        let data = NdArray::from_fn(Shape::d3(25, 25, 57), |z, y, x| {
            0.5 * z as f32 + 0.25 * y as f32 + 0.125 * x as f32
        });
        let d = autotune(&data, 1e-3, 1e-3, 512, &cuszi_gpu_sim::A100);
        assert!(d.rows.len() > 1, "{:?}", d.rows);
        assert!(d.rows.iter().all(|r| r.zero_code_frac == 1.0), "{:?}", d.rows);
        assert_eq!(d.config.order, profile_and_tune(&data, 1e-3).0.order);
        clear_autotune_cache();
    }

    #[test]
    fn autotune_prefers_the_better_predicting_order() {
        clear_autotune_cache();
        // Rough y / smooth x: interpolating y first wins on prediction
        // quality, so the chosen order must start with axis 1 — the
        // same answer the static profiler gives, now backed by measured
        // zero-code fractions.
        let data = NdArray::from_fn(Shape::d3(32, 64, 64), |z, y, x| {
            (y as f32 * 1.3).sin() * 5.0 + x as f32 * 0.01 + z as f32 * 0.02
        });
        let d = autotune(&data, 1e-3, 1e-3, 512, &cuszi_gpu_sim::A100);
        assert_eq!(d.config.order[0], 1, "rough axis must be interpolated first: {:?}", d.config.order);
        clear_autotune_cache();
    }
}
