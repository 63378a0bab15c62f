//! FZ-GPU (§ II): Lorenzo dual-quant prediction, then — instead of
//! Huffman — a *bitshuffle* of the quant-code plane followed by
//! zero-word dictionary deduplication. Faster than cuSZ, lower ratio
//! (the bitshuffle+dedup can't exploit symbol frequencies the way
//! Huffman does), which is exactly its Table III position.

use cuszi_core::archive::{entry, put_entry, u32_le};
use cuszi_core::{Codec, CodecArtifacts, CuszError};
use cuszi_gpu_sim::{launch_named, DeviceSpec, GlobalRead, GlobalWrite, Grid};
use cuszi_predict::lorenzo;
use cuszi_quant::{ErrorBound, OUTLIER_CODE};
use cuszi_gpu_sim::BlockSlots;
use cuszi_tensor::NdArray;

use crate::common::{
    push_outliers, read_header, read_outliers, resolve_eb, write_header, BASE_HEADER_LEN,
};

const MAGIC: &[u8; 4] = b"FZGP";
const RADIUS: u16 = 512;
/// Codes per bitshuffle tile (16 bit-planes of 1024 codes = 2 KiB).
pub const TILE: usize = 1024;
/// Dedup word size in bytes.
pub const WORD: usize = 32;

/// Bias quant-codes to zigzag so the dominant (zero-error) code becomes
/// 0 and the shuffled bit-planes become mostly zero.
#[inline]
fn code_to_zigzag(code: u16) -> u16 {
    let q = code as i32 - RADIUS as i32;
    ((q << 1) ^ (q >> 15)) as u16
}

#[inline]
fn zigzag_to_code(z: u16) -> u16 {
    let q = ((z >> 1) as i16) ^ -((z & 1) as i16);
    (q as i32 + RADIUS as i32) as u16
}

/// Bitshuffle one tile of up-to-`TILE` codes: output plane `b` packs bit
/// `b` of every code, LSB plane first.
fn bitshuffle(codes: &[u16]) -> Vec<u8> {
    let n = codes.len();
    let plane_bytes = n.div_ceil(8);
    let mut out = vec![0u8; 16 * plane_bytes];
    for (i, &c) in codes.iter().enumerate() {
        for b in 0..16 {
            if (c >> b) & 1 != 0 {
                out[b * plane_bytes + i / 8] |= 1 << (i % 8);
            }
        }
    }
    out
}

fn bitunshuffle(planes: &[u8], n: usize) -> Result<Vec<u16>, CuszError> {
    let plane_bytes = n.div_ceil(8);
    if planes.len() != 16 * plane_bytes {
        return Err(CuszError::CorruptArchive("fzgpu tile size mismatch"));
    }
    let mut out = vec![0u16; n];
    for b in 0..16 {
        let plane = &planes[b * plane_bytes..(b + 1) * plane_bytes];
        for (i, o) in out.iter_mut().enumerate() {
            if (plane[i / 8] >> (i % 8)) & 1 != 0 {
                *o |= 1 << b;
            }
        }
    }
    Ok(out)
}

/// Zero-word dedup: bitmap of non-zero `WORD`-byte words + the non-zero
/// words themselves.
fn dedup(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let nwords = data.len().div_ceil(WORD);
    let mut bitmap = vec![0u8; nwords.div_ceil(8)];
    let mut words = Vec::new();
    for w in 0..nwords {
        let start = w * WORD;
        let end = (start + WORD).min(data.len());
        let chunk = &data[start..end];
        if chunk.iter().any(|&b| b != 0) {
            bitmap[w / 8] |= 1 << (w % 8);
            words.extend_from_slice(chunk);
            // Pad the final partial word so decode is uniform.
            words.resize(words.len() + (WORD - chunk.len()), 0);
        }
    }
    (bitmap, words)
}

fn undedup(bitmap: &[u8], words: &[u8], out_len: usize) -> Result<Vec<u8>, CuszError> {
    let nwords = out_len.div_ceil(WORD);
    if bitmap.len() != nwords.div_ceil(8) {
        return Err(CuszError::CorruptArchive("fzgpu bitmap size mismatch"));
    }
    let mut out = vec![0u8; out_len];
    let mut at = 0usize;
    for w in 0..nwords {
        if (bitmap[w / 8] >> (w % 8)) & 1 != 0 {
            if at + WORD > words.len() {
                return Err(CuszError::CorruptArchive("fzgpu words truncated"));
            }
            let start = w * WORD;
            let end = (start + WORD).min(out_len);
            out[start..end].copy_from_slice(&words[at..at + (end - start)]);
            at += WORD;
        }
    }
    if at != words.len() {
        return Err(CuszError::CorruptArchive("fzgpu trailing words"));
    }
    Ok(out)
}

/// The FZ-GPU baseline codec.
#[derive(Clone, Copy, Debug)]
pub struct FzGpu {
    pub eb: ErrorBound,
    pub device: DeviceSpec,
}

impl FzGpu {
    /// Standard configuration at a bound.
    pub fn new(eb: ErrorBound, device: DeviceSpec) -> Self {
        FzGpu { eb, device }
    }
}

impl Codec for FzGpu {
    fn name(&self) -> &'static str {
        "FZ-GPU"
    }

    fn compress_bytes(&self, data: &NdArray<f32>) -> Result<(Vec<u8>, CodecArtifacts), CuszError> {
        let eb = resolve_eb(data, self.eb)?;
        let pred = lorenzo::compress(data, eb, RADIUS, &self.device);
        let mut kernels = pred.kernels.clone();

        // Zigzag so outlier code 0 maps near the hot center? No:
        // OUTLIER_CODE (0) zigzags to a large value, keeping it distinct;
        // the dominant RADIUS code maps to 0 as intended.
        let zz: Vec<u16> = pred.codes.iter().map(|&c| code_to_zigzag(c)).collect();

        // Bitshuffle kernel: one tile per block.
        let ntiles = zz.len().div_ceil(TILE);
        let plane_bytes_full = TILE.div_ceil(8);
        let mut shuffled = vec![0u8; ntiles * 16 * plane_bytes_full];
        let tile_out_len = 16 * plane_bytes_full;
        let sstats = {
            let src = GlobalRead::new(&zz);
            let dst = GlobalWrite::new(&mut shuffled);
            launch_named(&self.device, Grid::linear(ntiles.max(1) as u32, 256), "fzgpu-bitshuffle", |ctx| {
                let t = ctx.block_linear() as usize;
                let start = t * TILE;
                if start >= zz.len() {
                    return;
                }
                let end = (start + TILE).min(zz.len());
                // Padded to full tile geometry up front for a uniform
                // layout; the span load fills the leading `end - start`.
                let mut buf = ctx.scratch(TILE, 0u16);
                ctx.read_span(&src, start, &mut buf[..end - start]);
                let planes = bitshuffle(&buf);
                ctx.add_flops(buf.len() as u64 * 16);
                ctx.write_span(&dst, t * tile_out_len, &planes);
            })
        };
        kernels.push(sstats);

        // Dedup (host assembly of per-tile kernel outputs).
        // Per-tile slot: (bitmap, non-zero words).
        let parts: BlockSlots<(Vec<u8>, Vec<u8>)> = BlockSlots::new(ntiles.max(1));
        let dstats = {
            let src = GlobalRead::new(&shuffled);
            launch_named(&self.device, Grid::linear(ntiles.max(1) as u32, 256), "fzgpu-dedup", |ctx| {
                let t = ctx.block_linear() as usize;
                let start = t * tile_out_len;
                if start >= shuffled.len() {
                    return;
                }
                let mut buf = ctx.scratch(tile_out_len, 0u8);
                ctx.read_span(&src, start, &mut buf);
                let (bitmap, words) = dedup(&buf);
                ctx.add_flops(buf.len() as u64);
                parts.put(t, (bitmap, words));
            })
        };
        kernels.push(dstats);
        let parts = parts.into_compact();

        let mut bitmap_all = Vec::new();
        let mut words_all = Vec::new();
        let mut word_lens = Vec::with_capacity(ntiles);
        for (bm, w) in parts {
            bitmap_all.extend_from_slice(&bm);
            word_lens.push(w.len() as u32);
            words_all.extend_from_slice(&w);
        }
        let lens_bytes: Vec<u8> = word_lens.iter().flat_map(|v| v.to_le_bytes()).collect();

        let mut out = write_header(MAGIC, data.shape(), eb);
        put_entry(&mut out, &bitmap_all);
        put_entry(&mut out, &lens_bytes);
        put_entry(&mut out, &words_all);
        push_outliers(&mut out, &pred.outliers);
        Ok((out, CodecArtifacts { kernels }))
    }

    fn decompress_bytes(&self, bytes: &[u8]) -> Result<(NdArray<f32>, CodecArtifacts), CuszError> {
        let (shape, eb) = read_header(bytes, MAGIC)?;
        if eb <= 0.0 {
            return Err(CuszError::CorruptArchive("non-positive error bound"));
        }
        let mut at = BASE_HEADER_LEN as u64;
        let bitmap_all = &bytes[entry(bytes, &mut at, "fzgpu bitmap truncated")?];
        let lens_b = &bytes[entry(bytes, &mut at, "fzgpu lens truncated")?];
        let words_all = &bytes[entry(bytes, &mut at, "fzgpu words truncated")?];
        let outliers = read_outliers(bytes, &mut at, shape.len())?;

        let n = shape.len();
        let ntiles = n.div_ceil(TILE);
        let plane_bytes_full = TILE.div_ceil(8);
        let tile_out_len = 16 * plane_bytes_full;
        let tile_bitmap_len = (tile_out_len / WORD).div_ceil(8);
        if !lens_b.len().is_multiple_of(4) {
            return Err(CuszError::CorruptArchive("fzgpu lens misaligned"));
        }
        let word_lens: Vec<u32> = lens_b.chunks_exact(4).map(|c| u32_le(c, 0)).collect();
        if word_lens.len() != ntiles || bitmap_all.len() != ntiles * tile_bitmap_len {
            return Err(CuszError::CorruptArchive("fzgpu tile table mismatch"));
        }
        let mut word_offsets = Vec::with_capacity(ntiles);
        let mut acc = 0usize;
        for &l in &word_lens {
            word_offsets.push(acc);
            acc += l as usize;
        }
        if acc != words_all.len() {
            return Err(CuszError::CorruptArchive("fzgpu words length mismatch"));
        }

        let mut codes = vec![0u16; n];
        let failed: BlockSlots<CuszError> = BlockSlots::new(ntiles.max(1));
        let stats = {
            let bsrc = GlobalRead::new(bitmap_all);
            let wsrc = GlobalRead::new(words_all);
            let dst = GlobalWrite::new(&mut codes);
            launch_named(&self.device, Grid::linear(ntiles.max(1) as u32, 256), "fzgpu-decode", |ctx| {
                let t = ctx.block_linear() as usize;
                if t * TILE >= n {
                    return;
                }
                let mut bm = ctx.scratch(tile_bitmap_len, 0u8);
                ctx.read_span(&bsrc, t * tile_bitmap_len, &mut bm);
                let wl = word_lens[t] as usize;
                let mut w = ctx.scratch(wl, 0u8);
                ctx.read_span(&wsrc, word_offsets[t], &mut w);
                let planes = match undedup(&bm, &w, tile_out_len) {
                    Ok(p) => p,
                    Err(e) => {
                        failed.put(t, e);
                        return;
                    }
                };
                match bitunshuffle(&planes, TILE) {
                    Ok(zz) => {
                        let elems = TILE.min(n - t * TILE);
                        let decoded: Vec<u16> =
                            zz[..elems].iter().map(|&z| zigzag_to_code(z)).collect();
                        ctx.add_flops(elems as u64 * 16);
                        ctx.write_span(&dst, t * TILE, &decoded);
                    }
                    Err(e) => failed.put(t, e),
                }
            })
        };
        if let Some(e) = failed.into_first() {
            return Err(e);
        }
        let mut kernels = vec![stats];
        // Screen decoded codes: anything outside the alphabet is corrupt.
        if codes.iter().any(|&c| c != OUTLIER_CODE && c >= 2 * RADIUS) {
            return Err(CuszError::CorruptArchive("fzgpu code out of alphabet"));
        }
        let (data, lstats) = lorenzo::decompress(&codes, &outliers, shape, eb, RADIUS, &self.device);
        kernels.extend(lstats);
        Ok((data, CodecArtifacts { kernels }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::A100;
    use cuszi_metrics::check_error_bound_f32;
    use cuszi_tensor::Shape;

    #[test]
    fn zigzag_code_mapping() {
        assert_eq!(code_to_zigzag(RADIUS), 0);
        assert_eq!(code_to_zigzag(RADIUS + 1), 2);
        assert_eq!(code_to_zigzag(RADIUS - 1), 1);
        for c in 0..1024u16 {
            assert_eq!(zigzag_to_code(code_to_zigzag(c)), c, "code {c}");
        }
    }

    #[test]
    fn bitshuffle_roundtrip() {
        let codes: Vec<u16> = (0..TILE).map(|i| ((i * 37) % 1024) as u16).collect();
        let planes = bitshuffle(&codes);
        assert_eq!(bitunshuffle(&planes, TILE).unwrap(), codes);
    }

    #[test]
    fn dedup_roundtrip_sparse_and_dense() {
        let mut data = vec![0u8; 2048];
        data[100] = 7;
        data[2000] = 9;
        let (bm, w) = dedup(&data);
        assert_eq!(w.len(), 2 * WORD);
        assert_eq!(undedup(&bm, &w, 2048).unwrap(), data);

        let dense: Vec<u8> = (0..1000).map(|i| (i % 251 + 1) as u8).collect();
        let (bm, w) = dedup(&dense);
        assert_eq!(undedup(&bm, &w, 1000).unwrap(), dense);
    }

    #[test]
    fn roundtrip_error_bounded() {
        let data = NdArray::from_fn(Shape::d3(20, 24, 28), |z, y, x| {
            ((x as f32) * 0.06).sin() + ((y as f32) * 0.05).cos() + (z as f32) * 0.01
        });
        let codec = FzGpu::new(ErrorBound::Rel(1e-3), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        let (_, eb) = read_header(&bytes, MAGIC).unwrap();
        let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
        assert_eq!(check_error_bound_f32(data.as_slice(), recon.as_slice(), eb), None);
    }

    #[test]
    fn smooth_data_compresses_via_zero_planes() {
        let data = NdArray::from_fn(Shape::d3(32, 32, 32), |z, y, x| {
            (x as f32) * 0.01 + (y as f32) * 0.02 + (z as f32) * 0.03
        });
        let codec = FzGpu::new(ErrorBound::Rel(1e-2), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        let cr = (data.len() * 4) as f64 / bytes.len() as f64;
        assert!(cr > 5.0, "CR {cr}");
    }

    #[test]
    fn corrupt_archive_errors() {
        let data = NdArray::from_fn(Shape::d2(40, 40), |_, y, x| ((x + y) as f32 * 0.1).sin());
        let codec = FzGpu::new(ErrorBound::Abs(1e-3), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        assert!(codec.decompress_bytes(&bytes[..60]).is_err());
    }
}
