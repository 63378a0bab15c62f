//! `--psnr DB`: fix the decompression PSNR instead of the error bound.
//!
//! The paper's rate-distortion comparisons (Fig. 7, Fig. 10) are framed
//! "at the same PSNR", and its QoZ ancestor [SC'22] made quality-metric
//! targeting a first-class mode. This is that mode as a client of
//! [`CuszI`]: a log-domain secant search over the relative error bound,
//! exploiting that PSNR is close to linear in `log10(eb)` (each 10x of
//! bound is ~20 dB).

use cuszi_core::{Compressed, Config, CuszError, CuszI};
use cuszi_metrics::distortion;
use cuszi_quant::ErrorBound;
use cuszi_tensor::NdArray;

/// The search stops once the achieved PSNR is this close to the target.
const TOL_DB: f64 = 1.0;

/// Compress `data` so the decompressed PSNR lands within [`TOL_DB`] of
/// `target_db` (or as close as the bound range [1e-7, 0.5] allows);
/// returns the archive, its achieved PSNR and the reconstruction that
/// PSNR was measured on, so a caller checking the archive need not
/// decode it again.
///
/// `base` supplies everything except the error bound (device, Bitcomp,
/// tuning, radius). Each iteration runs a full compress+decompress, so
/// expect a handful of pipeline invocations.
pub(crate) fn compress_at_psnr(
    data: &NdArray<f32>,
    target_db: f64,
    base: Config,
) -> Result<(Compressed, f64, NdArray<f32>), CuszError> {
    if !(target_db.is_finite() && target_db > 0.0) {
        return Err(CuszError::InvalidConfig("target PSNR must be positive and finite"));
    }
    // Initial guess from the uniform-quantization-noise model:
    // PSNR ~ 20 log10(range / eb_abs) + C  =>  rel_eb ~ 10^(-(target-C)/20),
    // with C ~ 7 dB for the quantizer's noise shape.
    let mut rel = 10f64.powf(-(target_db - 7.0) / 20.0).clamp(1e-7, 0.5);

    // (|gap|, psnr, result, reconstruction)
    let mut best: Option<(f64, f64, Compressed, NdArray<f32>)> = None;
    let mut prev: Option<(f64, f64)> = None; // (log10 rel, psnr)
    for _ in 0..10 {
        let codec = CuszI::new(Config { error_bound: ErrorBound::Rel(rel), ..base });
        let c = codec.compress(data)?;
        let d = codec.decompress(&c.bytes)?;
        let psnr = distortion(data.as_slice(), d.data.as_slice())
            .map(|m| m.psnr)
            .unwrap_or(f64::INFINITY);
        let gap = psnr - target_db;
        if best.as_ref().is_none_or(|(g, ..)| gap.abs() < *g) {
            best = Some((gap.abs(), psnr, c, d.data));
        }
        if gap.abs() <= TOL_DB {
            break;
        }
        // Secant step in (log10 eb, PSNR); fall back to the -20 dB/decade
        // slope when we only have one sample or a degenerate pair.
        let lg = rel.log10();
        let slope = match prev {
            Some((plg, ppsnr)) if (lg - plg).abs() > 1e-9 && (psnr - ppsnr).abs() > 1e-6 => {
                (psnr - ppsnr) / (lg - plg)
            }
            _ => -20.0,
        };
        prev = Some((lg, psnr));
        let next = lg - gap / slope;
        let next_rel = 10f64.powf(next).clamp(1e-7, 0.5);
        if (next_rel / rel - 1.0).abs() < 1e-6 {
            break; // pinned at the range edge
        }
        rel = next_rel;
    }
    // The loop body runs at least once and only `break`s after filling
    // `best`, but keep the no-panic contract total anyway.
    let (_, psnr, compressed, recon) =
        best.ok_or(CuszError::InvalidConfig("PSNR search produced no candidate"))?;
    Ok((compressed, psnr, recon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_tensor::Shape;

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(32, 32, 32), |z, y, x| {
            ((x as f32) * 0.07).sin() * 2.0 + ((y as f32) * 0.05).cos() + (z as f32) * 0.02
                + 0.15 * ((x * y) as f32 * 0.011).sin()
        })
    }

    fn base() -> Config {
        Config::new(ErrorBound::Rel(1e-3))
    }

    #[test]
    fn hits_a_moderate_target() {
        let (_, psnr, _) = compress_at_psnr(&field(), 70.0, base()).unwrap();
        assert!((psnr - 70.0).abs() <= TOL_DB, "achieved {psnr:.2} dB");
    }

    #[test]
    fn higher_target_costs_more_bytes() {
        let data = field();
        let (lo, ..) = compress_at_psnr(&data, 55.0, base()).unwrap();
        let (hi, ..) = compress_at_psnr(&data, 90.0, base()).unwrap();
        assert!(hi.bytes.len() > lo.bytes.len());
        assert!(hi.eb_abs < lo.eb_abs);
    }

    #[test]
    fn rejects_nonsense_targets() {
        let data = field();
        assert!(compress_at_psnr(&data, -5.0, base()).is_err());
        assert!(compress_at_psnr(&data, f64::NAN, base()).is_err());
    }

    #[test]
    fn unreachable_target_returns_the_closest_candidate() {
        // 1 dB needs a bound past the 0.5 clamp: the search stops at the
        // range edge and returns its best archive instead of failing.
        let data = field();
        let (c, psnr, _) = compress_at_psnr(&data, 1.0, base()).unwrap();
        assert!(psnr > 1.0 + TOL_DB, "achieved {psnr:.2} dB");
        let range = cuszi_tensor::stats::ValueRange::of(data.as_slice()).unwrap().range() as f64;
        assert!((c.eb_abs / range - 0.5).abs() < 1e-9, "eb_abs {}", c.eb_abs);
    }

    #[test]
    fn search_is_deterministic() {
        let data = field();
        let (a, pa, _) = compress_at_psnr(&data, 70.0, base()).unwrap();
        let (b, pb, _) = compress_at_psnr(&data, 70.0, base()).unwrap();
        assert_eq!((a.bytes, pa), (b.bytes, pb));
    }

    #[test]
    fn search_keeps_the_base_settings() {
        let (c, ..) = compress_at_psnr(&field(), 70.0, base().without_bitcomp()).unwrap();
        let h = cuszi_core::archive::Header::from_bytes(&c.bytes).unwrap();
        assert_eq!(h.flags & cuszi_core::archive::FLAG_BITCOMP, 0);
    }

    #[test]
    fn archive_is_a_normal_cuszi_archive() {
        let data = field();
        let (c, _, recon) = compress_at_psnr(&data, 65.0, base()).unwrap();
        let d = CuszI::new(base()).decompress(&c.bytes).unwrap();
        assert_eq!(d.data.shape(), data.shape());
        // The returned reconstruction is the archive's own.
        assert_eq!(recon.as_slice(), d.data.as_slice());
    }
}
