//! The field generators behind each dataset analogue.
//!
//! Fields fill in parallel, one z-plane per work item on the host pool
//! ([`cuszi_gpu_sim::pool`]), with bits independent of the thread count:
//! every element is computed by the same operations in the same order
//! whichever worker owns its plane, and every RNG draw (mode, blob and
//! source parameters, `add_noise`) happens on the calling thread, in
//! a fixed order, before or after the parallel fill.

use cuszi_gpu_sim::pool;
use cuszi_tensor::{NdArray, Shape};

use crate::rng::ChaCha8Rng;

/// A single Fourier mode: wave vector, phase, amplitude.
#[derive(Clone, Copy, Debug)]
struct Mode {
    k: [f32; 3],
    phase: f32,
    amp: f32,
}

/// Run `f(z, plane)` over the z-planes of `data` (laid out as `shape`)
/// across the host pool; a 2-d shape is a single plane.
fn for_each_plane(data: &mut [f32], shape: Shape, f: impl Fn(usize, &mut [f32]) + Sync) {
    let [_, ny, nx] = shape.dims3();
    pool::par_chunks_mut(data, (ny * nx).max(1), f);
}

/// `NdArray::from_fn` with the planes filled in parallel: `f` must be a
/// pure function of its coordinates.
fn par_from_fn(shape: Shape, f: impl Fn(usize, usize, usize) -> f32 + Sync) -> NdArray<f32> {
    let nx = shape.dims3()[2].max(1);
    let mut data = vec![0f32; shape.len()];
    for_each_plane(&mut data, shape, |z, plane| {
        for (y, row) in plane.chunks_exact_mut(nx).enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = f(z, y, x);
            }
        }
    });
    NdArray::from_vec(shape, data)
}

/// Grid lines of a plane whose mode recurrences run in lockstep.
const LANES: usize = 8;

/// Evaluate a sum of modes over a grid with an incremental sin/cos
/// recurrence along the contiguous axis (O(1) trig per point per mode).
///
/// Planes fill in parallel; within a plane, each group of [`LANES`]
/// y-lines takes every mode in order, and a mode advances its lines'
/// independent recurrences together, so the loop carries eight
/// dependency chains instead of one. Each element still receives its
/// modes in order through the same per-element operations, so the sums
/// are bit-identical to a one-line-at-a-time evaluation.
fn mode_sum(shape: Shape, modes: &[Mode]) -> NdArray<f32> {
    let [_, ny, nx] = shape.dims3();
    let rotations: Vec<(f32, f32)> = modes.iter().map(|m| m.k[2].sin_cos()).collect();
    let mut data = vec![0f32; shape.len()];
    for_each_plane(&mut data, shape, |z, plane| {
        let mut y = 0;
        while y < ny {
            let group = &mut plane[y * nx..];
            if ny - y >= LANES {
                for (m, &rot) in modes.iter().zip(&rotations) {
                    add_mode_lines::<LANES>(group, nx, [z, y], m, rot);
                }
                y += LANES;
            } else {
                for (m, &rot) in modes.iter().zip(&rotations) {
                    add_mode_lines::<1>(group, nx, [z, y], m, rot);
                }
                y += 1;
            }
        }
    });
    NdArray::from_vec(shape, data)
}

/// Add mode `m` to the `L` lines of length `nx` at the head of `lines`,
/// the first of which is line `y` of plane `z`; `(sdx, cdx)` is the
/// sine and cosine of the mode's x wavenumber.
#[inline(always)]
fn add_mode_lines<const L: usize>(
    lines: &mut [f32],
    nx: usize,
    [z, y]: [usize; 2],
    m: &Mode,
    (sdx, cdx): (f32, f32),
) {
    let (mut s, mut c) = ([0f32; L], [0f32; L]);
    for l in 0..L {
        let phase0 = m.k[0] * z as f32 + m.k[1] * (y + l) as f32 + m.phase;
        (s[l], c[l]) = phase0.sin_cos();
    }
    let lines = &mut lines[..L * nx];
    for x in 0..nx {
        for l in 0..L {
            lines[l * nx + x] += m.amp * s[l];
            // Rotate (s, c) by k_x: the recurrence drifts at O(n·ulp),
            // negligible over one grid line.
            let ns = s[l] * cdx + c[l] * sdx;
            c[l] = c[l] * cdx - s[l] * sdx;
            s[l] = ns;
        }
    }
}

/// Small deterministic texture (models instrument/simulation noise at a
/// fraction `amp` of the signal scale).
fn add_noise(data: &mut NdArray<f32>, rng: &mut ChaCha8Rng, amp: f32) {
    for v in data.as_mut_slice() {
        *v += (rng.gen::<f32>() - 0.5) * amp;
    }
}

/// JHTDB analogue: Kolmogorov-spectrum turbulence.
///
/// Energy spectrum E(k) ~ k^-5/3 gives mode amplitudes ~ k^-(5/3+2)/2
/// in 3-d; the exact exponent matters less than the presence of energy
/// across two decades of scales, which is what makes turbulence the
/// hardest of the six for every compressor (lowest CRs in Table III).
pub fn turbulence(shape: Shape, rng: &mut ChaCha8Rng) -> NdArray<f32> {
    // Wavenumbers span the inertial range down to a dissipation cutoff
    // around an 8-cell wavelength — production turbulence snapshots are
    // smooth at the grid scale (the solver resolves its smallest eddies
    // over several cells); putting energy at the Nyquist scale would
    // make the field unphysically rough.
    let mut modes = Vec::with_capacity(72);
    let k_diss = 2.0f32 * std::f32::consts::PI / 8.0;
    for _ in 0..72 {
        let kmag = 2.0f32 * std::f32::consts::PI / 96.0 * (1.0 + rng.gen::<f32>() * 11.0);
        let dir = random_unit(rng);
        let rolloff = (-(kmag / k_diss).powi(2) * 2.0).exp();
        modes.push(Mode {
            k: [dir[0] * kmag, dir[1] * kmag, dir[2] * kmag],
            phase: rng.gen::<f32>() * std::f32::consts::TAU,
            amp: kmag.powf(-11.0 / 6.0) * rolloff * (0.5 + rng.gen::<f32>()),
        });
    }
    // Normalise roughly to unit range.
    let max_amp: f32 = modes.iter().map(|m| m.amp).sum();
    for m in &mut modes {
        m.amp /= max_amp;
    }
    let mut f = mode_sum(shape, &modes);
    add_noise(&mut f, rng, 5e-5);
    f
}

/// Miranda analogue: smooth hydrodynamic bubbles over a background
/// gradient, with a few tanh material interfaces.
pub fn hydro_bubbles(shape: Shape, rng: &mut ChaCha8Rng, offset: f32) -> NdArray<f32> {
    let [nz, ny, nx] = shape.dims3();
    let nblobs = 10;
    let blobs: Vec<([f32; 3], f32, f32)> = (0..nblobs)
        .map(|_| {
            (
                [
                    rng.gen::<f32>() * nz as f32,
                    rng.gen::<f32>() * ny as f32,
                    rng.gen::<f32>() * nx as f32,
                ],
                (0.08 + 0.15 * rng.gen::<f32>()) * nx as f32, // radius
                0.4 + rng.gen::<f32>(),                       // weight
            )
        })
        .collect();
    let iface_z = (0.3 + 0.4 * rng.gen::<f32>()) * nz as f32;
    par_from_fn(shape, |z, y, x| {
        let (zf, yf, xf) = (z as f32, y as f32, x as f32);
        let mut v = offset + 0.002 * zf + 0.001 * yf;
        for (c, r, w) in &blobs {
            let d2 = (zf - c[0]).powi(2) + (yf - c[1]).powi(2) + (xf - c[2]).powi(2);
            v += w * (-d2 / (r * r)).exp();
        }
        // One smooth interface (Rayleigh–Taylor-style density step).
        v += 0.5 * ((zf - iface_z) / 4.0).tanh();
        v
    })
}

/// Nyx analogue: lognormal baryon density — exp of a smooth Gaussian
/// random field, giving the multi-decade dynamic range cosmology codes
/// produce.
pub fn lognormal_density(shape: Shape, rng: &mut ChaCha8Rng) -> NdArray<f32> {
    let mut base = smooth_modes(shape, rng, 24, 0.0);
    // Scale fluctuations then exponentiate.
    for_each_plane(base.as_mut_slice(), shape, |_, plane| {
        for v in plane {
            *v = (*v * 5.0).exp();
        }
    });
    base
}

/// A smooth low-wavenumber random field (velocity/temperature class).
pub fn smooth_modes(shape: Shape, rng: &mut ChaCha8Rng, nmodes: usize, noise: f32) -> NdArray<f32> {
    let mut modes = Vec::with_capacity(nmodes);
    for _ in 0..nmodes {
        let kmag = 2.0f32 * std::f32::consts::PI / 96.0 * (0.5 + rng.gen::<f32>() * 4.0);
        let dir = random_unit(rng);
        modes.push(Mode {
            k: [dir[0] * kmag, dir[1] * kmag, dir[2] * kmag],
            phase: rng.gen::<f32>() * std::f32::consts::TAU,
            amp: 1.0 / nmodes as f32,
        });
    }
    let mut f = mode_sum(shape, &modes);
    if noise > 0.0 {
        add_noise(&mut f, rng, noise);
    }
    f
}

/// QMCPack analogue: decaying oscillatory orbitals, stacked per slice
/// (the production file is a stack of 288x115 orbital slices).
pub fn orbitals(shape: Shape, rng: &mut ChaCha8Rng) -> NdArray<f32> {
    let [nz, ny, nx] = shape.dims3();
    let centers: Vec<([f32; 2], f32, f32)> = (0..nz.div_ceil(16).max(2))
        .map(|_| {
            (
                [rng.gen::<f32>() * ny as f32, rng.gen::<f32>() * nx as f32],
                0.15 + rng.gen::<f32>() * 0.35, // radial frequency
                10.0 + rng.gen::<f32>() * 18.0, // decay length
            )
        })
        .collect();
    par_from_fn(shape, |z, y, x| {
        // Each z slice mixes two orbitals with a slice-dependent phase —
        // smooth within a slice, only slowly varying across slices.
        let t = z as f32 * 0.05;
        let mut v = 0.0f32;
        for (i, (c, k, decay)) in centers.iter().enumerate() {
            let r = ((y as f32 - c[0]).powi(2) + (x as f32 - c[1]).powi(2)).sqrt();
            v += (-r / decay).exp() * (k * r + t + i as f32).sin();
        }
        v
    })
}

/// RTM analogue: the wavefield at timestep `t` — Ricker-wavelet
/// spherical shells expanding from buried point sources, plus weak
/// reflections off horizontal layers. Early timesteps are nearly zero
/// (the paper excludes initialization-phase snapshots for this reason).
pub fn rtm_snapshot(shape: Shape, t: u32, seed: u64) -> NdArray<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x52544d);
    let [nz, ny, nx] = shape.dims3();
    let velocity = 0.04f32; // grid cells per timestep
    let sources: Vec<[f32; 3]> = (0..3)
        .map(|_| {
            [
                (0.2 + 0.2 * rng.gen::<f32>()) * nz as f32,
                rng.gen::<f32>() * ny as f32,
                rng.gen::<f32>() * nx as f32,
            ]
        })
        .collect();
    let layer_z = [0.55 * nz as f32, 0.8 * nz as f32];
    let radius = velocity * t as f32;
    let ricker = |d: f32| {
        // Ricker wavelet of the shell-distance mismatch; the dominant
        // wavelength spans ~8 grid cells, as a solver's CFL-resolved
        // wavefield does.
        let a = d / 6.0;
        (1.0 - 2.0 * a * a) * (-a * a).exp()
    };
    par_from_fn(shape, |z, y, x| {
        let (zf, yf, xf) = (z as f32, y as f32, x as f32);
        let mut v = 0.0f32;
        for s in &sources {
            let dist =
                ((zf - s[0]).powi(2) + (yf - s[1]).powi(2) + (xf - s[2]).powi(2)).sqrt();
            // Direct wavefront.
            v += ricker(dist - radius) / (1.0 + dist * 0.05);
            // Reflections: mirror sources below each layer, delayed.
            for &lz in &layer_z {
                if s[0] < lz {
                    let mirror = 2.0 * lz - s[0];
                    let dr =
                        ((zf - mirror).powi(2) + (yf - s[1]).powi(2) + (xf - s[2]).powi(2)).sqrt();
                    v += 0.35 * ricker(dr - radius) / (1.0 + dr * 0.05);
                }
            }
        }
        v
    })
}

/// S3D analogue: combustion species — thin reacting flame fronts
/// (steep tanh interfaces) whose product concentrates in the reaction
/// zone, over a smooth temperature-like background.
pub fn combustion(shape: Shape, rng: &mut ChaCha8Rng, offset: f32) -> NdArray<f32> {
    let nfronts = 4;
    let fronts: Vec<([f32; 3], f32, f32)> = (0..nfronts)
        .map(|_| {
            let dir = random_unit(rng);
            (
                dir,
                rng.gen::<f32>() * 60.0, // plane offset
                2.5 + rng.gen::<f32>() * 2.5, // front thickness
            )
        })
        .collect();
    let background = smooth_modes(shape, rng, 10, 0.0);
    let mut out = par_from_fn(shape, |z, y, x| {
        let p = [z as f32, y as f32, x as f32];
        let mut v = offset + 0.2 * background.get3(z, y, x);
        for (dir, off, w) in &fronts {
            let d = dir[0] * p[0] + dir[1] * p[1] + dir[2] * p[2] - off;
            // Species step across the front + reaction-zone peak.
            v += 0.5 * (d / w).tanh() + 0.8 * (-(d / w).powi(2)).exp();
        }
        v
    });
    add_noise(&mut out, rng, 5e-4);
    out
}

fn random_unit(rng: &mut ChaCha8Rng) -> [f32; 3] {
    loop {
        let v = [
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
        ];
        let n2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
        if n2 > 1e-4 && n2 <= 1.0 {
            let n = n2.sqrt();
            return [v[0] / n, v[1] / n, v[2] / n];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn mode_sum_recurrence_matches_direct_eval() {
        let shape = Shape::d3(4, 5, 40);
        let m = Mode { k: [0.3, 0.2, 0.17], phase: 0.5, amp: 1.3 };
        let f = mode_sum(shape, &[m]);
        for z in 0..4 {
            for y in 0..5 {
                for x in 0..40 {
                    let want =
                        1.3 * (0.3 * z as f32 + 0.2 * y as f32 + 0.17 * x as f32 + 0.5).sin();
                    assert!(
                        (f.get3(z, y, x) - want).abs() < 1e-4,
                        "({z},{y},{x}): {} vs {want}",
                        f.get3(z, y, x)
                    );
                }
            }
        }
    }

    #[test]
    fn lognormal_density_is_positive_with_wide_range() {
        let f = lognormal_density(Shape::d3(32, 32, 32), &mut rng());
        let s = f.as_slice();
        assert!(s.iter().all(|&v| v > 0.0));
        let max = s.iter().cloned().fold(0.0f32, f32::max);
        let min = s.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(max / min > 10.0, "dynamic range {max}/{min}");
    }

    #[test]
    fn rtm_wavefront_radius_grows_with_time() {
        // Energy (sum of squares) spreads outward: at t=0 the field is
        // concentrated near sources; the wavefront exists at all t.
        let shape = Shape::d3(48, 48, 30);
        let a = rtm_snapshot(shape, 200, 9);
        let b = rtm_snapshot(shape, 1200, 9);
        assert_ne!(a.as_slice(), b.as_slice());
        assert!(a.all_finite() && b.all_finite());
    }

    #[test]
    fn combustion_has_steep_fronts() {
        let f = combustion(Shape::d3(48, 48, 48), &mut rng(), 0.0);
        // Max |gradient| along x should far exceed the mean: thin fronts.
        let s = f.as_slice();
        let diffs: Vec<f32> = s.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
        let max = diffs.iter().cloned().fold(0.0f32, f32::max);
        let mean = diffs.iter().sum::<f32>() / diffs.len() as f32;
        assert!(max > 10.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn random_unit_is_normalised() {
        let mut r = rng();
        for _ in 0..100 {
            let v = random_unit(&mut r);
            let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }
}

/// LCLS-II-style detector frame (2-d): speckle rings over a beam-center
/// falloff with shot noise — the § I instrument workload ("X-ray imaging
/// can top at 1 TB/s"). Frames are far noisier than simulation fields,
/// which is exactly why streaming detectors need the throughput end of
/// the design space.
pub fn detector_frame(shape: Shape, t: u32, seed: u64) -> NdArray<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4c434c53 ^ (t as u64) << 32);
    let [_, ny, nx] = shape.dims3();
    let (cy, cx) = (ny as f32 * 0.5, nx as f32 * 0.5);
    // Speckle: a handful of Bragg-like rings with azimuthal texture.
    let rings: Vec<(f32, f32, f32)> = (0..5)
        .map(|_| {
            (
                (0.1 + 0.35 * rng.gen::<f32>()) * nx as f32, // radius
                1.5 + 3.0 * rng.gen::<f32>(),                // width
                0.5 + rng.gen::<f32>(),                      // intensity
            )
        })
        .collect();
    let mut out = par_from_fn(shape, |_z, y, x| {
        let (dy, dx) = (y as f32 - cy, x as f32 - cx);
        let r = (dy * dy + dx * dx).sqrt();
        let theta = dy.atan2(dx);
        let mut v = 40.0 * (-r / (0.4 * nx as f32)).exp(); // beam falloff
        for (i, (r0, w, a)) in rings.iter().enumerate() {
            let radial = (-((r - r0) / w).powi(2)).exp();
            let azim = 1.0 + 0.5 * ((6.0 + i as f32) * theta + t as f32 * 0.1).sin();
            v += a * 20.0 * radial * azim;
        }
        v
    });
    // Shot noise ~ sqrt(intensity), the Poisson regime.
    for v in out.as_mut_slice() {
        let n = (rng.gen::<f32>() - 0.5) * 2.0;
        *v = (*v + n * v.abs().sqrt() * 0.35).max(0.0);
    }
    out
}

#[cfg(test)]
mod frame_tests {
    use super::*;

    #[test]
    fn frames_are_finite_nonnegative_and_time_varying() {
        let shape = Shape::d2(128, 128);
        let a = detector_frame(shape, 0, 7);
        let b = detector_frame(shape, 1, 7);
        assert!(a.all_finite());
        assert!(a.as_slice().iter().all(|&v| v >= 0.0));
        assert_ne!(a.as_slice(), b.as_slice());
        // Deterministic in (t, seed).
        let a2 = detector_frame(shape, 0, 7);
        assert_eq!(a.as_slice(), a2.as_slice());
    }
}
