//! Streaming slab compression: process a huge 3-d field in bounded
//! memory, one `z` slab at a time.
//!
//! The paper's motivating scenarios (§ I) never hold the whole dataset:
//! simulations emit snapshots from device memory and instruments stream
//! at up to 1 TB/s. This module compresses a field slab-by-slab — each
//! slab is an independent cuSZ-i archive, so a consumer can likewise
//! decompress incrementally (or in parallel). The cost is that
//! prediction cannot cross slab seams; keep slabs at least a few anchor
//! strides thick (>= 32 z-planes) to make the seam overhead marginal.
//!
//! Format: `magic "CSZS" | u8 rank | dims [u64;3] | u32 slab_z |
//! u32 slab count | per slab: [u64 len][cuSZ-i archive]`.

use std::ops::Range;

use cuszi_tensor::{NdArray, Shape};

use crate::config::Config;
use crate::error::CuszError;
use crate::sched::ScheduleReport;
use crate::shard::{compress_slabs_sharded, decompress_slabs_sharded, ShardPlan};

const MAGIC: &[u8; 4] = b"CSZS";

/// CSZS geometry: the field shape and slab thickness, which fix the
/// slab count and every slab's shape.
pub struct SlabGeometry {
    pub shape: Shape,
    pub slab_z: usize,
    pub nslabs: usize,
}

impl SlabGeometry {
    /// Geometry of a stream to write, validated for the header.
    pub(crate) fn new(shape: Shape, slab_z: usize) -> Result<Self, CuszError> {
        if shape.rank() != 3 {
            return Err(CuszError::InvalidConfig("slab streaming requires a 3-d shape"));
        }
        if slab_z == 0 {
            return Err(CuszError::InvalidConfig("slab thickness must be positive"));
        }
        let nslabs = shape.dims3()[0].div_ceil(slab_z);
        if nslabs > u32::MAX as usize {
            return Err(CuszError::InvalidConfig("too many slabs for the stream header"));
        }
        Ok(SlabGeometry { shape, slab_z, nslabs })
    }

    /// First plane and shape of slab `s`.
    pub(crate) fn slab(&self, s: usize) -> (usize, Shape) {
        let [nz, ny, nx] = self.shape.dims3();
        let z0 = s * self.slab_z;
        (z0, Shape::d3(self.slab_z.min(nz - z0), ny, nx))
    }

    /// The stream header; slab entries follow via [`push_slab`].
    pub(crate) fn header(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(3u8);
        for d in self.shape.dims3() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.slab_z as u32).to_le_bytes());
        out.extend_from_slice(&(self.nslabs as u32).to_le_bytes());
        out
    }
}

/// Append one slab's entry.
pub(crate) fn push_slab(out: &mut Vec<u8>, archive: &[u8]) {
    cuszi_profile::observe("stream.slab_archive_bytes", archive.len() as u64);
    crate::wire::put_entry(out, archive);
}

/// Validate the stream header and walk the entry table (checked, see
/// `wire::entry`), returning the geometry and each slab
/// archive's byte range.
pub fn parse_slab_container(
    bytes: &[u8],
) -> Result<(SlabGeometry, Vec<Range<usize>>), CuszError> {
    if bytes.len() < 4 + 1 + 24 + 8 || &bytes[0..4] != MAGIC {
        return Err(CuszError::CorruptArchive("slab stream magic"));
    }
    if bytes[4] != 3 {
        return Err(CuszError::CorruptArchive("slab stream rank"));
    }
    let dims: [u64; 3] = std::array::from_fn(|i| crate::wire::u64_le(bytes, 5 + i * 8));
    let total = dims.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d));
    if dims.contains(&0) || total.is_none_or(|t| t > crate::archive::MAX_ELEMENTS) {
        return Err(CuszError::CorruptArchive("slab stream dims"));
    }
    let dims = dims.map(|d| d as usize);
    let shape = Shape::from_dims(&dims).ok_or(CuszError::CorruptArchive("slab stream shape"))?;
    let slab_z = crate::wire::u32_le(bytes, 29) as usize;
    let nslabs = crate::wire::u32_le(bytes, 33) as usize;
    if slab_z == 0 || nslabs != dims[0].div_ceil(slab_z) {
        return Err(CuszError::CorruptArchive("slab geometry"));
    }
    let mut at = 37u64;
    let entries = (0..nslabs)
        .map(|_| crate::wire::entry(bytes, &mut at, "slab truncated"))
        .collect::<Result<Vec<_>, _>>()?;
    if at != bytes.len() as u64 {
        return Err(CuszError::CorruptArchive("slab stream trailing bytes"));
    }
    Ok((SlabGeometry { shape, slab_z, nslabs }, entries))
}

/// [`crate::shard::compress_slabs_sharded`] on `n_streams` streams of
/// one device (slab `s` on stream `s % n_streams`).
pub fn compress_slabs_streams(
    shape: Shape,
    slab_z: usize,
    cfg: Config,
    n_streams: usize,
    produce: impl FnMut(usize, usize) -> NdArray<f32>,
) -> Result<(Vec<u8>, ScheduleReport), CuszError> {
    let plan = ShardPlan::new(1).streams(n_streams);
    compress_slabs_sharded(shape, slab_z, cfg, plan, produce).map(|(b, r)| (b, r.into_schedule()))
}

/// [`crate::shard::decompress_slabs_sharded`] on `n_streams` streams of
/// one device: at most `n_streams` decoded slabs are live.
pub fn decompress_slabs_streams(
    bytes: &[u8],
    cfg: Config,
    n_streams: usize,
    consume: impl FnMut(usize, NdArray<f32>),
) -> Result<(Shape, ScheduleReport), CuszError> {
    let plan = ShardPlan::new(1).streams(n_streams);
    decompress_slabs_sharded(bytes, cfg, plan, consume).map(|(s, r)| (s, r.into_schedule()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CuszI;
    use crate::sched::default_streams;
    use cuszi_metrics::check_error_bound;
    use cuszi_quant::ErrorBound;

    fn compress_slabs(
        shape: Shape,
        slab_z: usize,
        cfg: Config,
        produce: impl FnMut(usize, usize) -> NdArray<f32>,
    ) -> Result<Vec<u8>, CuszError> {
        compress_slabs_streams(shape, slab_z, cfg, default_streams(), produce).map(|(b, _)| b)
    }

    fn decompress_slabs(
        bytes: &[u8],
        cfg: Config,
        consume: impl FnMut(usize, NdArray<f32>),
    ) -> Result<Shape, CuszError> {
        decompress_slabs_streams(bytes, cfg, default_streams(), consume).map(|(s, _)| s)
    }

    fn full_field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |z, y, x| {
            ((x as f32) * 0.08).sin() + ((y as f32) * 0.05).cos() + ((z as f32) * 0.03).sin()
        })
    }

    fn slab_of(full: &NdArray<f32>, z0: usize, nz: usize) -> NdArray<f32> {
        let [_, ny, nx] = full.shape().dims3();
        NdArray::from_fn(Shape::d3(nz, ny, nx), |z, y, x| full.get3(z0 + z, y, x))
    }

    #[test]
    fn slab_stream_roundtrips_with_bounds() {
        let shape = Shape::d3(50, 24, 28);
        let full = full_field(shape);
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let bytes = compress_slabs(shape, 16, cfg, |z0, nz| slab_of(&full, z0, nz)).unwrap();

        let mut recon = NdArray::<f32>::zeros(shape);
        let got_shape = decompress_slabs(&bytes, cfg, |z0, slab| {
            let [snz, ny, nx] = slab.shape().dims3();
            for z in 0..snz {
                for y in 0..ny {
                    for x in 0..nx {
                        recon.set3(z0 + z, y, x, slab.get3(z, y, x));
                    }
                }
            }
        })
        .unwrap();
        assert_eq!(got_shape, shape);
        assert_eq!(check_error_bound(full.as_slice(), recon.as_slice(), 1e-3), None);
    }

    #[test]
    fn slab_order_and_coverage() {
        let shape = Shape::d3(10, 8, 8);
        let full = full_field(shape);
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let bytes = compress_slabs(shape, 4, cfg, |z0, nz| slab_of(&full, z0, nz)).unwrap();
        let mut seen = Vec::new();
        decompress_slabs(&bytes, cfg, |z0, slab| {
            seen.push((z0, slab.shape().dims3()[0]));
        })
        .unwrap();
        assert_eq!(seen, vec![(0, 4), (4, 4), (8, 2)]);
    }

    #[test]
    fn parse_reports_the_written_geometry() {
        let shape = Shape::d3(10, 8, 8);
        let full = full_field(shape);
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let bytes = compress_slabs(shape, 4, cfg, |z0, nz| slab_of(&full, z0, nz)).unwrap();
        let (geo, entries) = parse_slab_container(&bytes).unwrap();
        assert_eq!((geo.shape, geo.slab_z, geo.nslabs), (shape, 4, 3));
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].end, bytes.len());
        assert!(parse_slab_container(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn seam_overhead_is_modest_for_thick_slabs() {
        // The whole-field archive vs the slab stream: thick slabs should
        // cost only a few percent.
        let shape = Shape::d3(64, 32, 32);
        let full = full_field(shape);
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let whole = CuszI::new(cfg).compress(&full).unwrap().bytes.len();
        let slabs =
            compress_slabs(shape, 32, cfg, |z0, nz| slab_of(&full, z0, nz)).unwrap().len();
        assert!(
            (slabs as f64) < whole as f64 * 1.25,
            "slab stream {slabs} vs whole {whole}"
        );
    }

    #[test]
    fn rel_bound_resolves_per_slab_not_per_field() {
        // Slab 0 sits near +10 with a small wiggle, slab 1 near -10
        // with a larger one: the global extremes span slabs, so the
        // whole-field range exceeds both slab ranges and a Rel bound
        // resolves to three different absolute bounds.
        let shape = Shape::d3(16, 8, 8);
        let full = NdArray::from_fn(shape, |z, y, x| {
            let (level, amp) = if z < 8 { (10.0, 0.1) } else { (-10.0, 0.5) };
            level + amp * (((x + 2 * y + z) as f32) * 0.3).sin()
        });
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let whole_eb = CuszI::new(cfg).compress(&full).unwrap().eb_abs;
        let bytes = compress_slabs(shape, 8, cfg, |z0, nz| slab_of(&full, z0, nz)).unwrap();
        // Walk the stream container and parse each slab archive header.
        let mut at = 37usize;
        let mut ebs = Vec::new();
        while at < bytes.len() {
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            at += 8;
            let h = crate::archive::Header::from_bytes(&bytes[at..at + len]).unwrap();
            ebs.push(h.eb_abs);
            at += len;
        }
        assert_eq!(ebs.len(), 2);
        assert_ne!(ebs[0], ebs[1], "slab value ranges differ, so must the resolved bounds");
        for eb in &ebs {
            assert!(
                *eb < whole_eb,
                "per-slab eb {eb} should be tighter than whole-field {whole_eb}"
            );
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let shape = Shape::d3(10, 8, 8);
        let full = full_field(shape);
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        assert!(compress_slabs(shape, 0, cfg, |z0, nz| slab_of(&full, z0, nz)).is_err());
        assert!(compress_slabs(Shape::d2(8, 8), 4, cfg, |_, _| full.clone()).is_err());
        // Wrong produced shape.
        assert!(compress_slabs(shape, 4, cfg, |_, _| full.clone()).is_err());
        // Corrupt stream.
        let bytes = compress_slabs(shape, 4, cfg, |z0, nz| slab_of(&full, z0, nz)).unwrap();
        assert!(decompress_slabs(&bytes[..bytes.len() - 3], cfg, |_, _| {}).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decompress_slabs(&bad, cfg, |_, _| {}).is_err());
        let mut padded = bytes;
        padded.push(0);
        assert!(decompress_slabs(&padded, cfg, |_, _| {}).is_err());
    }

    #[test]
    fn slab_stream_refuses_a_radius_past_shared_memory() {
        let shape = Shape::d3(10, 8, 8);
        let full = full_field(shape);
        let cfg = Config::new(ErrorBound::Rel(1e-3)).with_radius(32767);
        let err = compress_slabs(shape, 4, cfg, |z0, nz| slab_of(&full, z0, nz)).unwrap_err();
        assert!(matches!(err, CuszError::InvalidConfig(_)), "{err:?}");
    }
}
