//! cuSZx: the monolithic ultra-fast blockwise compressor (§ II):
//! each 256-element block is either *constant* (all values within the
//! bound of the block mean — one float stores the whole block) or
//! *nonconstant* (mean + fixed-width quantized residuals). Extremely
//! high throughput, lowest ratios of the family — except on mostly-zero
//! fields like RTM, where constant blocks dominate (the Table III
//! anomaly the paper notes).

use cuszi_core::archive::{entry, f32_le, put_entry, u32_le};
use cuszi_core::{Codec, CodecArtifacts, CuszError};
use cuszi_gpu_sim::{launch_named, DeviceSpec, GlobalRead, GlobalWrite, Grid};
use cuszi_quant::ErrorBound;
use cuszi_gpu_sim::BlockSlots;
use cuszi_tensor::NdArray;

use crate::common::{read_header, resolve_eb, write_header, BASE_HEADER_LEN};

const MAGIC: &[u8; 4] = b"CSZX";
/// Elements per block.
pub const BLOCK: usize = 256;

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode one block. Returns bytes: `[u8 tag]` + body.
/// tag 0 = constant: `[f32 mean]`;
/// tag 1 = residuals: `[f32 mean][u8 width][packed zigzag residuals]`.
fn encode_block(vals: &[f32], eb: f64, out: &mut Vec<u8>) {
    let mean = (vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64) as f32;
    let twice_eb = 2.0 * eb;
    // Quantize each residual, then pick the lattice neighbour whose
    // f32-cast reconstruction is closest — plain rounding can land one
    // ulp outside the bound after the cast to f32.
    let resid: Vec<i64> = vals
        .iter()
        .map(|&v| {
            let r0 = ((v as f64 - mean as f64) / twice_eb).round() as i64;
            let err = |r: i64| {
                let recon = (mean as f64 + r as f64 * twice_eb) as f32;
                ((v as f64) - (recon as f64)).abs()
            };
            // Strict `<` keeps the first minimum on ties.
            [r0, r0 + 1]
                .into_iter()
                .fold(r0 - 1, |best, r| if err(r) < err(best) { r } else { best })
        })
        .collect();
    if resid.iter().all(|&r| r == 0) {
        out.push(0);
        out.extend_from_slice(&mean.to_le_bytes());
        return;
    }
    let width =
        resid.iter().map(|&r| 64 - zigzag(r).leading_zeros()).max().unwrap_or(0) as u8;
    out.push(1);
    out.extend_from_slice(&mean.to_le_bytes());
    out.push(width);
    let mut bitbuf = 0u128;
    let mut nbits = 0u32;
    for &r in &resid {
        bitbuf = (bitbuf << width) | zigzag(r) as u128;
        nbits += width as u32;
        while nbits >= 8 {
            out.push((bitbuf >> (nbits - 8)) as u8);
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((bitbuf << (8 - nbits)) as u8);
    }
}

fn decode_block(src: &[u8], n: usize, eb: f64) -> Result<Vec<f32>, CuszError> {
    let (&tag, body) = src.split_first().ok_or(CuszError::CorruptArchive("cuszx empty block"))?;
    match tag {
        0 => {
            if body.len() != 4 {
                return Err(CuszError::CorruptArchive("cuszx const block size"));
            }
            let mean = f32_le(body, 0);
            Ok(vec![mean; n])
        }
        1 => {
            if body.len() < 5 {
                return Err(CuszError::CorruptArchive("cuszx block truncated"));
            }
            let mean = f32_le(body, 0);
            let width = body[4];
            if width > 50 {
                return Err(CuszError::CorruptArchive("cuszx width out of range"));
            }
            let payload = &body[5..];
            let total_bits = payload.len() * 8;
            let mut out = Vec::with_capacity(n);
            let mut bitpos = 0usize;
            let twice_eb = 2.0 * eb;
            for _ in 0..n {
                if bitpos + width as usize > total_bits {
                    return Err(CuszError::CorruptArchive("cuszx payload truncated"));
                }
                let mut v = 0u64;
                for _ in 0..width {
                    v = (v << 1) | ((payload[bitpos / 8] >> (7 - bitpos % 8)) & 1) as u64;
                    bitpos += 1;
                }
                out.push((mean as f64 + unzigzag(v) as f64 * twice_eb) as f32);
            }
            Ok(out)
        }
        _ => Err(CuszError::CorruptArchive("cuszx unknown block tag")),
    }
}

/// The cuSZx baseline codec.
#[derive(Clone, Copy, Debug)]
pub struct Cuszx {
    pub eb: ErrorBound,
    pub device: DeviceSpec,
}

impl Cuszx {
    /// Standard configuration at a bound.
    pub fn new(eb: ErrorBound, device: DeviceSpec) -> Self {
        Cuszx { eb, device }
    }
}

impl Codec for Cuszx {
    fn name(&self) -> &'static str {
        "cuSZx"
    }

    fn compress_bytes(&self, data: &NdArray<f32>) -> Result<(Vec<u8>, CodecArtifacts), CuszError> {
        let eb = resolve_eb(data, self.eb)?;
        let n = data.len();
        let nblocks = n.div_ceil(BLOCK);
        let parts: BlockSlots<Vec<u8>> = BlockSlots::new(nblocks.max(1));
        let stats = {
            let src = GlobalRead::new(data.as_slice());
            launch_named(&self.device, Grid::linear(nblocks.max(1) as u32, 256), "cuszx-encode", |ctx| {
                let b = ctx.block_linear() as usize;
                let start = b * BLOCK;
                if start >= n {
                    return;
                }
                let end = (start + BLOCK).min(n);
                let mut buf = ctx.scratch(end - start, 0f32);
                ctx.read_span(&src, start, &mut buf);
                ctx.add_flops(buf.len() as u64 * 4);
                let mut body = Vec::new();
                encode_block(&buf, eb, &mut body);
                parts.put(b, body);
            })
        };
        let parts = parts.into_compact();
        let lens: Vec<u8> =
            parts.iter().flat_map(|p| (p.len() as u32).to_le_bytes()).collect();
        let payload: Vec<u8> = parts.into_iter().flatten().collect();
        let mut out = write_header(MAGIC, data.shape(), eb);
        put_entry(&mut out, &lens);
        put_entry(&mut out, &payload);
        Ok((out, CodecArtifacts { kernels: vec![stats] }))
    }

    fn decompress_bytes(&self, bytes: &[u8]) -> Result<(NdArray<f32>, CodecArtifacts), CuszError> {
        let (shape, eb) = read_header(bytes, MAGIC)?;
        if eb <= 0.0 {
            return Err(CuszError::CorruptArchive("non-positive error bound"));
        }
        let mut at = BASE_HEADER_LEN as u64;
        let lens_b = &bytes[entry(bytes, &mut at, "cuszx lens truncated")?];
        let payload = &bytes[entry(bytes, &mut at, "cuszx payload truncated")?];
        if !lens_b.len().is_multiple_of(4) {
            return Err(CuszError::CorruptArchive("cuszx lens misaligned"));
        }
        let lens: Vec<u32> = lens_b.chunks_exact(4).map(|c| u32_le(c, 0)).collect();
        let n = shape.len();
        let nblocks = n.div_ceil(BLOCK);
        if lens.len() != nblocks {
            return Err(CuszError::CorruptArchive("cuszx block count mismatch"));
        }
        let mut offsets = Vec::with_capacity(nblocks);
        let mut acc = 0usize;
        for &l in &lens {
            offsets.push(acc);
            acc += l as usize;
        }
        if acc != payload.len() {
            return Err(CuszError::CorruptArchive("cuszx payload length mismatch"));
        }
        let mut out = vec![0f32; n];
        let failed: BlockSlots<CuszError> = BlockSlots::new(nblocks);
        let stats = {
            let src = GlobalRead::new(payload);
            let dst = GlobalWrite::new(&mut out);
            launch_named(&self.device, Grid::linear(nblocks as u32, 256), "cuszx-decode", |ctx| {
                let b = ctx.block_linear() as usize;
                let elems = BLOCK.min(n - b * BLOCK);
                let mut buf = ctx.scratch(lens[b] as usize, 0u8);
                ctx.read_span(&src, offsets[b], &mut buf);
                match decode_block(&buf, elems, eb) {
                    Ok(vals) => {
                        ctx.add_flops(vals.len() as u64 * 2);
                        ctx.write_span(&dst, b * BLOCK, &vals);
                    }
                    Err(e) => failed.put(b, e),
                }
            })
        };
        if let Some(e) = failed.into_first() {
            return Err(e);
        }
        Ok((NdArray::from_vec(shape, out), CodecArtifacts { kernels: vec![stats] }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::A100;
    use cuszi_metrics::check_error_bound_f32;
    use cuszi_tensor::Shape;

    #[test]
    fn constant_block_roundtrip() {
        let vals = vec![3.5f32; 256];
        let mut buf = Vec::new();
        encode_block(&vals, 0.01, &mut buf);
        assert_eq!(buf.len(), 5);
        let back = decode_block(&buf, 256, 0.01).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() <= 0.01);
        }
    }

    #[test]
    fn varying_block_roundtrip_bounded() {
        let vals: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin() * 5.0).collect();
        let mut buf = Vec::new();
        encode_block(&vals, 1e-3, &mut buf);
        let back = decode_block(&buf, 256, 1e-3).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
    }

    #[test]
    fn roundtrip_field() {
        let data = NdArray::from_fn(Shape::d3(20, 20, 20), |z, y, x| {
            ((x + y + z) as f32 * 0.05).cos() * 3.0
        });
        let codec = Cuszx::new(ErrorBound::Abs(1e-3), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
        assert_eq!(check_error_bound_f32(data.as_slice(), recon.as_slice(), 1e-3), None);
    }

    #[test]
    fn mostly_zero_field_compresses_extremely() {
        // The RTM effect: constant blocks dominate.
        let data = NdArray::from_fn(Shape::d3(16, 32, 32), |z, y, x| {
            if z == 8 && y < 4 && x < 4 {
                1.0
            } else {
                0.0
            }
        });
        let codec = Cuszx::new(ErrorBound::Abs(1e-4), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        let cr = (data.len() * 4) as f64 / bytes.len() as f64;
        assert!(cr > 40.0, "CR {cr}");
        let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
        assert_eq!(check_error_bound_f32(data.as_slice(), recon.as_slice(), 1e-4), None);
    }

    #[test]
    fn corrupt_archive_errors() {
        let data = NdArray::from_fn(Shape::d1(1000), |_, _, x| (x as f32).sin());
        let codec = Cuszx::new(ErrorBound::Abs(1e-3), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        assert!(codec.decompress_bytes(&bytes[..30]).is_err());
        let mut bad = bytes;
        let l = bad.len();
        bad.truncate(l - 5);
        assert!(codec.decompress_bytes(&bad).is_err());
    }
}
