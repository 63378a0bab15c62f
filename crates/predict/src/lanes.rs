//! The 8-wide lane type of the interpolation sweep hot loop, and the
//! scalar-oracle hook.
//!
//! The sweep predicts *runs* of up to eight x-spaced points whose
//! spline circumstance (variant, line position, stride, line length) is
//! identical, so a run is evaluated as one batch: [`F32x8`] carries the
//! tap values and the predictions, and a run shorter than eight leaves
//! its trailing lanes as padding that is computed on but never stored.
//! All arithmetic is elementwise `f32`, so each lane computes exactly
//! the scalar expression tree — batched output is bit-identical to the
//! scalar path (the oracle tests pin this).
//!
//! Std-only by design: `F32x8` is a plain `[f32; 8]` wrapper whose
//! elementwise loops the compiler vectorizes for the build's target
//! (SSE2 on a default x86-64 build). There is one lane body and no
//! build flag or runtime option; the hidden [`force_scalar_sweep`]
//! test hook swaps in the one-point-at-a-time oracle.

use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::atomic::{AtomicBool, Ordering};

/// Lane count of the batched sweep path.
pub const LANES: usize = 8;

/// Eight `f32` lanes with elementwise arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// [`gather_lanes`] over `f32` data.
    #[inline(always)]
    pub fn gather(data: &[f32], base: usize, step: usize, n: usize) -> Self {
        F32x8(gather_lanes(data, base, step, n))
    }

    /// Store lane `j < n` to `data[base + j * step]` — the inverse of
    /// [`F32x8::gather`], under the same single bounds check.
    #[inline(always)]
    pub fn scatter(self, data: &mut [f32], base: usize, step: usize, n: usize) {
        check_run(data.len(), base, step, n);
        for (j, &v) in self.0[..n].iter().enumerate() {
            // SAFETY: `j < n`, so the index is at most the run's last,
            // which `check_run` checked against `data.len()`.
            unsafe { *data.get_unchecked_mut(base + j * step) = v };
        }
    }
}

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F32x8 {
            type Output = F32x8;
            #[inline(always)]
            fn $method(self, rhs: F32x8) -> F32x8 {
                let mut out = [0.0f32; LANES];
                for i in 0..LANES {
                    out[i] = self.0[i] $op rhs.0[i];
                }
                F32x8(out)
            }
        }
    };
}

elementwise!(Add, add, +);
elementwise!(Sub, sub, -);
elementwise!(Mul, mul, *);
elementwise!(Div, div, /);

impl Neg for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn neg(self) -> F32x8 {
        let mut out = [0.0f32; LANES];
        for (o, &v) in out.iter_mut().zip(self.0.iter()) {
            *o = -v;
        }
        F32x8(out)
    }
}

/// One row gather of a lane run: lane `j < n` reads
/// `data[base + j * step]`; the padding lanes from `n` up repeat lane
/// `n - 1`, so the loop has a fixed trip count (the lanes stay in
/// registers) and never reads past the run. Panics unless the whole run
/// lies inside `data`.
#[inline(always)]
pub fn gather_lanes<T: Copy + Default>(data: &[T], base: usize, step: usize, n: usize) -> [T; LANES] {
    let last = check_run(data.len(), base, step, n);
    let mut out = [T::default(); LANES];
    let mut i = base;
    for (j, o) in out.iter_mut().enumerate() {
        // SAFETY: `i` is `base + min(j, n - 1) * step`, at most the
        // run's last index, which `check_run` checked against
        // `data.len()`.
        *o = unsafe { *data.get_unchecked(i) };
        if j < last {
            i += step;
        }
    }
    out
}

/// The one bounds check of a lane run: `n` in `1..=LANES` and the run's
/// last index `base + (n - 1) * step` inside a buffer of `len`
/// elements, computed without wrapping. Returns the last lane, `n - 1`.
#[inline(always)]
fn check_run(len: usize, base: usize, step: usize, n: usize) -> usize {
    assert!((1..=LANES).contains(&n), "a lane run holds 1..={LANES} points, got {n}");
    let last = (n - 1).checked_mul(step).and_then(|o| o.checked_add(base));
    assert!(last.is_some_and(|l| l < len), "lane run {base}+{n}x{step} leaves a buffer of {len}");
    n - 1
}

/// The oracle switch: when set, the sweep steps one point at a time
/// instead of in lane runs. Both ways produce bit-identical grids,
/// visit orders and counters.
static SCALAR_SWEEP: AtomicBool = AtomicBool::new(false);

/// Whether the sweep runs in lanes (always, unless the oracle hook is on).
#[inline]
pub(crate) fn lane_sweep() -> bool {
    !SCALAR_SWEEP.load(Ordering::Relaxed)
}

/// Oracle hook for differential tests: force the one-point-at-a-time
/// sweep (`true`) or go back to lane runs (`false`).
/// Process-global — callers serialise themselves.
#[doc(hidden)]
pub fn force_scalar_sweep(on: bool) {
    SCALAR_SWEEP.store(on, Ordering::Relaxed);
}

/// Test support: forces the scalar sweep (`true`) or holds the lane
/// sweep (`false`) for one scope, serialised against every other unit
/// test that does, and releases the hook on drop, panics included.
#[cfg(test)]
pub(crate) struct SweepPin(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

#[cfg(test)]
impl SweepPin {
    pub(crate) fn scalar(on: bool) -> Self {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        force_scalar_sweep(on);
        SweepPin(guard)
    }
}

#[cfg(test)]
impl Drop for SweepPin {
    fn drop(&mut self) {
        force_scalar_sweep(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32x8_arithmetic_is_elementwise() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(2.0);
        assert_eq!((a + b).0[3], 6.0);
        assert_eq!((a - b).0[0], -1.0);
        assert_eq!((a * b).0[7], 16.0);
        assert_eq!((a / b).0[1], 1.0);
        assert_eq!((-a).0[2], -3.0);
    }

    #[test]
    fn f32x8_lanes_match_scalar_bit_for_bit() {
        // The exact not-a-knot expression, lane-wise vs scalar.
        let vals = [0.1f32, -2.5, 3.75, 1e-8, 9.99, -0.0, 123.456, 7.0];
        let a = F32x8(vals);
        let b = F32x8(vals.map(|v| v * 1.5));
        let c = F32x8(vals.map(|v| v - 0.25));
        let d = F32x8(vals.map(|v| v + 2.0));
        let nine = F32x8::splat(9.0);
        let batched = (-a + nine * b + nine * c - d) / F32x8::splat(16.0);
        for (i, &v) in vals.iter().enumerate() {
            let scalar = (-v + 9.0 * (v * 1.5) + 9.0 * (v - 0.25) - (v + 2.0)) / 16.0;
            assert_eq!(batched.0[i].to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn gather_and_scatter_walk_an_arithmetic_sequence() {
        let data: Vec<f32> = (0..60).map(|i| i as f32).collect();
        assert_eq!(F32x8::gather(&data, 3, 7, 8).0, [3.0, 10.0, 17.0, 24.0, 31.0, 38.0, 45.0, 52.0]);
        assert_eq!(F32x8::gather(&data, 5, 1, 8).0, [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // A partial run reads exactly `n` elements (the last index here
        // is the buffer's last) and pads with the last of them.
        assert_eq!(F32x8::gather(&data, 53, 3, 3).0, [53.0, 56.0, 59.0, 59.0, 59.0, 59.0, 59.0, 59.0]);

        let mut out = vec![0.0f32; 60];
        let v = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        v.scatter(&mut out, 53, 3, 3);
        v.scatter(&mut out, 0, 1, 8);
        v.scatter(&mut out, 10, 5, 8);
        let hit: Vec<(usize, f32)> =
            out.iter().copied().enumerate().filter(|&(_, v)| v != 0.0).collect();
        let mut expect: Vec<(usize, f32)> = (0..8).map(|j| (j, j as f32 + 1.0)).collect();
        expect.extend((0..8).map(|j| (10 + 5 * j, j as f32 + 1.0)));
        expect.extend([(53, 1.0), (56, 2.0), (59, 3.0)]);
        assert_eq!(hit, expect);
    }

    #[test]
    #[should_panic]
    fn gather_past_the_end_is_refused() {
        let data = [0.0f32; 16];
        let _ = F32x8::gather(&data, 2, 2, 8);
    }

    #[test]
    fn scalar_hook_round_trips() {
        // Hold the pin throughout: other tests flip the same switch.
        let _pin = SweepPin::scalar(false);
        assert!(lane_sweep(), "production sweeps in lanes");
        force_scalar_sweep(true);
        assert!(!lane_sweep());
        force_scalar_sweep(false);
        assert!(lane_sweep());
    }
}
