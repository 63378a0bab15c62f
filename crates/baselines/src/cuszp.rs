//! cuSZp: the fused single-kernel compressor (§ II): prequantization +
//! 1-d blockwise Lorenzo + per-block fixed-length encoding. No Huffman
//! stage at all — each 32-element block stores its first lattice value
//! raw and the remaining 31 deltas bit-packed at the block's own width.
//! Very fast, but the fixed-length encoding caps its ratio well below
//! cuSZ's (the Table III ordering).

use cuszi_core::archive::{entry, put_entry, u32_le};
use cuszi_core::{Codec, CodecArtifacts, CuszError};
use cuszi_gpu_sim::{launch_named, DeviceSpec, GlobalRead, GlobalWrite, Grid};
use cuszi_quant::{prequant_reconstruct, prequantize, ErrorBound};
use cuszi_gpu_sim::BlockSlots;
use cuszi_tensor::NdArray;

use crate::common::{read_header, resolve_eb, write_header, BASE_HEADER_LEN};

const MAGIC: &[u8; 4] = b"CSZP";
/// Elements per encoding block (cuSZp's warp-sized unit).
pub const BLOCK: usize = 32;
/// Blocks handled per thread block (grid coarsening).
const BLOCKS_PER_TB: usize = 64;

#[inline]
fn zigzag32(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag32(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode one block: `[u8 width][i32 first][packed zigzag deltas]`.
fn encode_block(r: &[i32], out: &mut Vec<u8>) {
    debug_assert!(!r.is_empty() && r.len() <= BLOCK);
    let deltas: Vec<u64> = r.windows(2).map(|w| zigzag32(w[1] as i64 - w[0] as i64)).collect();
    let width = deltas.iter().map(|&d| 64 - d.leading_zeros()).max().unwrap_or(0) as u8;
    out.push(width);
    out.extend_from_slice(&r[0].to_le_bytes());
    let mut bitbuf = 0u128;
    let mut nbits = 0u32;
    for &d in &deltas {
        bitbuf = (bitbuf << width) | d as u128;
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

fn decode_block(src: &[u8], n: usize) -> Result<Vec<i32>, CuszError> {
    if src.len() < 5 {
        return Err(CuszError::CorruptArchive("cuszp block truncated"));
    }
    let width = src[0];
    if width > 34 {
        return Err(CuszError::CorruptArchive("cuszp width out of range"));
    }
    let first = u32_le(src, 1) as i32;
    let payload = &src[5..];
    let mut out = Vec::with_capacity(n);
    out.push(first);
    let total_bits = payload.len() * 8;
    let mut bitpos = 0usize;
    let mut prev = first as i64;
    for _ in 1..n {
        if bitpos + width as usize > total_bits {
            return Err(CuszError::CorruptArchive("cuszp payload truncated"));
        }
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | ((payload[bitpos / 8] >> (7 - bitpos % 8)) & 1) as u64;
            bitpos += 1;
        }
        let cur = prev + unzigzag32(v);
        if !(i32::MIN as i64..=i32::MAX as i64).contains(&cur) {
            return Err(CuszError::CorruptArchive("cuszp delta overflow"));
        }
        out.push(cur as i32);
        prev = cur;
    }
    Ok(out)
}

/// Encoded block length for a given width/count (test oracle).
#[allow(dead_code)]
fn block_len(width: u8, n: usize) -> usize {
    5 + ((n - 1) * width as usize).div_ceil(8)
}

/// The cuSZp baseline codec.
#[derive(Clone, Copy, Debug)]
pub struct Cuszp {
    pub eb: ErrorBound,
    pub device: DeviceSpec,
}

impl Cuszp {
    /// Standard configuration at a bound.
    pub fn new(eb: ErrorBound, device: DeviceSpec) -> Self {
        Cuszp { eb, device }
    }
}

impl Codec for Cuszp {
    fn name(&self) -> &'static str {
        "cuSZp"
    }

    fn compress_bytes(&self, data: &NdArray<f32>) -> Result<(Vec<u8>, CodecArtifacts), CuszError> {
        let eb = resolve_eb(data, self.eb)?;
        let r = prequantize(data.as_slice(), eb)?;
        let nblocks = r.len().div_ceil(BLOCK);
        let ntb = nblocks.div_ceil(BLOCKS_PER_TB).max(1);

        // Fused single pass (cuSZp's design): each thread block encodes
        // its blocks into a local buffer; a host-side concatenation
        // (prefix sum in the CUDA original) assembles the archive.
        // Per-thread-block slot: (encoded bytes, per-block lengths).
        let parts: BlockSlots<(Vec<u8>, Vec<u32>)> = BlockSlots::new(ntb);
        let stats = {
            let src = GlobalRead::new(&r);
            launch_named(&self.device, Grid::linear(ntb as u32, 256), "cuszp-encode", |ctx| {
                let tb = ctx.block_linear() as usize;
                let bstart = tb * BLOCKS_PER_TB;
                let bend = (bstart + BLOCKS_PER_TB).min(nblocks);
                if bstart >= bend {
                    return;
                }
                let mut local = Vec::new();
                let mut lens = Vec::with_capacity(bend - bstart);
                for b in bstart..bend {
                    let start = b * BLOCK;
                    let end = (start + BLOCK).min(r.len());
                    let mut buf = ctx.scratch(end - start, 0i32);
                    ctx.read_span(&src, start, &mut buf);
                    ctx.add_flops(buf.len() as u64 * 3);
                    let before = local.len();
                    encode_block(&buf, &mut local);
                    lens.push((local.len() - before) as u32);
                }
                // The fused store of the encoded bytes happens in the
                // host-side concatenation (the CUDA original writes with
                // a device prefix-sum); leaving it unbilled slightly
                // favours this baseline's modelled throughput, which is
                // conservative for every cuSZ-i comparison.
                parts.put(tb, (local, lens));
            })
        };
        let parts = parts.into_compact();

        let mut lens: Vec<u32> = Vec::with_capacity(nblocks);
        let mut payload = Vec::new();
        for (body, l) in parts {
            payload.extend_from_slice(&body);
            lens.extend_from_slice(&l);
        }
        let lens_bytes: Vec<u8> = lens.iter().flat_map(|v| v.to_le_bytes()).collect();

        let mut out = write_header(MAGIC, data.shape(), eb);
        put_entry(&mut out, &lens_bytes);
        put_entry(&mut out, &payload);
        Ok((out, CodecArtifacts { kernels: vec![stats] }))
    }

    fn decompress_bytes(&self, bytes: &[u8]) -> Result<(NdArray<f32>, CodecArtifacts), CuszError> {
        let (shape, eb) = read_header(bytes, MAGIC)?;
        if eb <= 0.0 {
            return Err(CuszError::CorruptArchive("non-positive error bound"));
        }
        let mut at = BASE_HEADER_LEN as u64;
        let lens_b = &bytes[entry(bytes, &mut at, "cuszp lens truncated")?];
        let payload = &bytes[entry(bytes, &mut at, "cuszp payload truncated")?];
        if !lens_b.len().is_multiple_of(4) {
            return Err(CuszError::CorruptArchive("cuszp lens misaligned"));
        }
        let lens: Vec<u32> = lens_b.chunks_exact(4).map(|c| u32_le(c, 0)).collect();
        let n = shape.len();
        let nblocks = n.div_ceil(BLOCK);
        if lens.len() != nblocks {
            return Err(CuszError::CorruptArchive("cuszp block count mismatch"));
        }
        let mut offsets = Vec::with_capacity(nblocks);
        let mut acc = 0usize;
        for &l in &lens {
            offsets.push(acc);
            acc += l as usize;
        }
        if acc != payload.len() {
            return Err(CuszError::CorruptArchive("cuszp payload length mismatch"));
        }

        let mut r = vec![0i32; n];
        let ntb = nblocks.div_ceil(BLOCKS_PER_TB).max(1);
        let failed: BlockSlots<CuszError> = BlockSlots::new(ntb);
        let stats = {
            let src = GlobalRead::new(payload);
            let dst = GlobalWrite::new(&mut r);
            launch_named(&self.device, Grid::linear(ntb as u32, 256), "cuszp-decode", |ctx| {
                let tb = ctx.block_linear() as usize;
                let bstart = tb * BLOCKS_PER_TB;
                let bend = (bstart + BLOCKS_PER_TB).min(nblocks);
                for b in bstart..bend {
                    let start = offsets[b];
                    let len = lens[b] as usize;
                    let mut buf = ctx.scratch(len, 0u8);
                    ctx.read_span(&src, start, &mut buf);
                    let elems = BLOCK.min(n - b * BLOCK);
                    match decode_block(&buf, elems) {
                        Ok(vals) => {
                            ctx.add_flops(vals.len() as u64 * 2);
                            ctx.write_span(&dst, b * BLOCK, &vals);
                        }
                        Err(e) => {
                            failed.put(tb, e);
                            return;
                        }
                    }
                }
            })
        };
        if let Some(e) = failed.into_first() {
            return Err(e);
        }
        let vals = prequant_reconstruct(&r, eb);
        Ok((NdArray::from_vec(shape, vals), CodecArtifacts { kernels: vec![stats] }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::A100;
    use cuszi_metrics::check_error_bound_f32;
    use cuszi_tensor::Shape;

    fn field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |z, y, x| {
            ((x + y * 2 + z * 3) as f32 * 0.03).sin() * 4.0 + (x as f32) * 0.01
        })
    }

    #[test]
    fn block_codec_roundtrip() {
        let r: Vec<i32> = vec![5, 6, 6, 4, -100, 2000, 2001, 2001];
        let mut buf = Vec::new();
        encode_block(&r, &mut buf);
        assert_eq!(decode_block(&buf, r.len()).unwrap(), r);
        assert_eq!(buf.len(), block_len(buf[0], r.len()));
    }

    #[test]
    fn constant_block_is_five_bytes() {
        let r = vec![7i32; 32];
        let mut buf = Vec::new();
        encode_block(&r, &mut buf);
        assert_eq!(buf.len(), 5); // width 0: header + first only
        assert_eq!(decode_block(&buf, 32).unwrap(), r);
    }

    #[test]
    fn roundtrip_error_bounded() {
        for shape in [Shape::d1(5000), Shape::d3(20, 24, 28)] {
            let data = field(shape);
            let codec = Cuszp::new(ErrorBound::Abs(1e-3), A100);
            let (bytes, _) = codec.compress_bytes(&data).unwrap();
            let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
            assert_eq!(check_error_bound_f32(data.as_slice(), recon.as_slice(), 1e-3), None);
        }
    }

    #[test]
    fn compresses_smooth_data() {
        let data = field(Shape::d3(32, 32, 32));
        let codec = Cuszp::new(ErrorBound::Rel(1e-2), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        assert!(bytes.len() * 2 < data.len() * 4, "CR must exceed 2");
    }

    #[test]
    fn corrupt_archive_errors() {
        let data = field(Shape::d3(8, 8, 8));
        let codec = Cuszp::new(ErrorBound::Abs(1e-3), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        assert!(codec.decompress_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.clone();
        let len = bad.len();
        bad.truncate(len / 2);
        assert!(codec.decompress_bytes(&bad).is_err());
    }
}
