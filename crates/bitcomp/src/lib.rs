//! A block-parallel lossless byte codec standing in for NVIDIA
//! **Bitcomp-lossless** (§ VI-B).
//!
//! The paper appends Bitcomp — a proprietary, performance-oriented GPU
//! encoder — after Huffman coding to cancel the remaining redundancy:
//! with G-Interp's centralized quant-codes the dominant symbol gets a
//! 1-bit Huffman code, so the encoded stream is mostly long runs of
//! `0x00` bytes, and Huffman alone cannot go below 1 bit per element.
//!
//! This substitute keeps the properties that matter for reproduction:
//!
//! * **GPU-shaped**: fixed 4 KiB blocks, each independently encoded and
//!   decodable, two-pass size/offset-then-emit, written as `gpu-sim`
//!   kernels so Fig. 9's "negligible overhead" claim is measured.
//! * **Run/repetition canceling**: per block, the better of a
//!   zero-run RLE and a word-delta bit-packing is chosen (raw
//!   fallback guarantees bounded expansion), which removes exactly the
//!   `0x00`-run redundancy the paper exploits.
//!
//! Format: `[u64 original len][u32 block size][u32 nblocks]`,
//! `[u64 offset per block]`, then per-block payloads of
//! `[u8 mode][body]`.

use cuszi_gpu_sim::{launch_named, BlockSlots, DeviceSpec, GlobalRead, GlobalWrite, Grid, KernelStats};

pub mod lzss;

/// Encoded-block mode tags.
const MODE_RAW: u8 = 0;
const MODE_RLE0: u8 = 1;
const MODE_DELTA_BP: u8 = 2;

/// Block granularity (4 KiB, Bitcomp's documented default).
pub const BLOCK: usize = 4096;

/// Decode failure (corrupt or truncated archive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitcompError(pub &'static str);

impl std::fmt::Display for BitcompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitcomp decode error: {}", self.0)
    }
}

impl std::error::Error for BitcompError {}

/// Encode one block body with the zero-run RLE.
///
/// Token stream: control byte `0xxxxxxx` = run of `x+1` zero bytes;
/// `1xxxxxxx` = `x+1` literal bytes follow.
fn rle0_encode(src: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < src.len() {
        if src[i] == 0 {
            let mut run = 1;
            while i + run < src.len() && src[i + run] == 0 && run < 128 {
                run += 1;
            }
            out.push((run - 1) as u8);
            i += run;
        } else {
            let mut lit = 1;
            while i + lit < src.len() && src[i + lit] != 0 && lit < 128 {
                lit += 1;
            }
            out.push(0x80 | (lit - 1) as u8);
            out.extend_from_slice(&src[i..i + lit]);
            i += lit;
        }
    }
}

fn rle0_decode(src: &[u8], expect: usize) -> Result<Vec<u8>, BitcompError> {
    let mut out = Vec::with_capacity(expect);
    let mut i = 0;
    while i < src.len() {
        let ctrl = src[i];
        i += 1;
        let n = (ctrl & 0x7f) as usize + 1;
        if ctrl & 0x80 == 0 {
            out.resize(out.len() + n, 0);
        } else {
            if i + n > src.len() {
                return Err(BitcompError("literal run past end of block"));
            }
            out.extend_from_slice(&src[i..i + n]);
            i += n;
        }
        if out.len() > expect {
            return Err(BitcompError("block inflates past declared size"));
        }
    }
    if out.len() != expect {
        return Err(BitcompError("block decodes to wrong size"));
    }
    Ok(out)
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Words per width group of the delta coder. Per-group widths keep one
/// large delta from inflating the whole block (Bitcomp's grouped-packing
/// behaviour).
const DELTA_GROUP: usize = 32;

/// Delta + grouped fixed-width bit-packing over little-endian u32 words.
///
/// Body: `[u8 tail_len][tail bytes][u32 first]`, then per group of up to
/// [`DELTA_GROUP`] deltas: `[u8 width][packed zigzag deltas]`.
fn delta_bp_encode(src: &[u8], out: &mut Vec<u8>) {
    let words: Vec<u32> = src
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let tail = &src[words.len() * 4..];
    let deltas: Vec<u64> = words
        .windows(2)
        .map(|w| zigzag(w[1] as i64 - w[0] as i64))
        .collect();
    out.push(tail.len() as u8);
    out.extend_from_slice(tail);
    if let Some(&first) = words.first() {
        out.extend_from_slice(&first.to_le_bytes());
    }
    for group in deltas.chunks(DELTA_GROUP) {
        let width = group.iter().map(|&d| 64 - d.leading_zeros() as u8).max().unwrap_or(0);
        out.push(width);
        let mut bitbuf = 0u128;
        let mut nbits = 0u32;
        for &d in group {
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
}

fn delta_bp_decode(src: &[u8], expect: usize) -> Result<Vec<u8>, BitcompError> {
    if src.is_empty() {
        return Err(BitcompError("delta block too short"));
    }
    let tail_len = src[0] as usize;
    if expect < tail_len || !(expect - tail_len).is_multiple_of(4) {
        return Err(BitcompError("delta block size misaligned"));
    }
    let nwords = (expect - tail_len) / 4;
    let mut pos = 1;
    if pos + tail_len > src.len() {
        return Err(BitcompError("delta tail truncated"));
    }
    let tail = src[pos..pos + tail_len].to_vec();
    pos += tail_len;
    let mut words = Vec::with_capacity(nwords);
    if nwords > 0 {
        if pos + 4 > src.len() {
            return Err(BitcompError("delta first word truncated"));
        }
        let first = u32::from_le_bytes(src[pos..pos + 4].try_into().unwrap());
        pos += 4;
        words.push(first);
        let mut prev = first as i64;
        let mut remaining = nwords - 1;
        while remaining > 0 {
            if pos >= src.len() {
                return Err(BitcompError("delta group header truncated"));
            }
            let width = src[pos] as usize;
            pos += 1;
            if width > 33 {
                return Err(BitcompError("delta width out of range"));
            }
            let n = remaining.min(DELTA_GROUP);
            let nbytes = (n * width).div_ceil(8);
            if pos + nbytes > src.len() {
                return Err(BitcompError("delta payload truncated"));
            }
            let payload = &src[pos..pos + nbytes];
            let mut bitpos = 0usize;
            for _ in 0..n {
                let mut v = 0u64;
                for _ in 0..width {
                    let bit = (payload[bitpos / 8] >> (7 - bitpos % 8)) & 1;
                    v = (v << 1) | bit as u64;
                    bitpos += 1;
                }
                let cur = prev + unzigzag(v);
                if !(0..=u32::MAX as i64).contains(&cur) {
                    return Err(BitcompError("delta reconstruction overflow"));
                }
                words.push(cur as u32);
                prev = cur;
            }
            pos += nbytes;
            remaining -= n;
        }
    }
    let mut out = Vec::with_capacity(expect);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&tail);
    Ok(out)
}

/// Encode one block: best of RLE0 / delta-bitpack / raw.
fn encode_block(src: &[u8]) -> Vec<u8> {
    let mut rle = Vec::with_capacity(src.len() + 8);
    rle0_encode(src, &mut rle);
    let mut dbp = Vec::with_capacity(src.len() + 8);
    delta_bp_encode(src, &mut dbp);
    let mut best = if rle.len() <= dbp.len() { (MODE_RLE0, rle) } else { (MODE_DELTA_BP, dbp) };
    if best.1.len() >= src.len() {
        best = (MODE_RAW, src.to_vec());
    }
    let mut out = Vec::with_capacity(best.1.len() + 1);
    out.push(best.0);
    out.extend_from_slice(&best.1);
    out
}

fn decode_block(src: &[u8], expect: usize) -> Result<Vec<u8>, BitcompError> {
    let (&mode, body) = src.split_first().ok_or(BitcompError("empty block"))?;
    match mode {
        MODE_RAW => {
            if body.len() != expect {
                return Err(BitcompError("raw block size mismatch"));
            }
            Ok(body.to_vec())
        }
        MODE_RLE0 => rle0_decode(body, expect),
        MODE_DELTA_BP => delta_bp_decode(body, expect),
        _ => Err(BitcompError("unknown block mode")),
    }
}

/// Compress a byte stream. Returns the archive and kernel stats (two
/// passes: size, then emit).
///
/// ```
/// use cuszi_gpu_sim::A100;
/// let data = vec![0u8; 100_000]; // the post-Huffman zero-run case
/// let (packed, _) = cuszi_bitcomp::compress(&data, &A100);
/// assert!(packed.len() < data.len() / 20);
/// let (back, _) = cuszi_bitcomp::decompress(&packed, &A100).unwrap();
/// assert_eq!(back, data);
/// ```
pub fn compress(data: &[u8], device: &DeviceSpec) -> (Vec<u8>, Vec<KernelStats>) {
    let nblocks = data.len().div_ceil(BLOCK);
    let mut stats = Vec::new();

    // Pass 1: encode into per-block scratch, collecting sizes. (The CUDA
    // original sizes blocks with an upper bound then compacts; we keep
    // the two-pass structure and bill the traffic of both.)
    let blocks: BlockSlots<Vec<u8>> = BlockSlots::new(nblocks);
    if nblocks > 0 {
        let src = GlobalRead::new(data);
        stats.push(launch_named(device, Grid::linear(nblocks as u32, 256), "bitcomp-encode", |ctx| {
            let b = ctx.block_linear() as usize;
            let start = b * BLOCK;
            let end = (start + BLOCK).min(data.len());
            let mut buf = ctx.scratch(end - start, 0u8);
            ctx.read_span(&src, start, &mut buf);
            ctx.add_flops(buf.len() as u64);
            blocks.put(b, encode_block(&buf));
        }));
    }
    let blocks = blocks.into_compact();

    // Header + offset table.
    let mut out = Vec::new();
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&(BLOCK as u32).to_le_bytes());
    out.extend_from_slice(&(nblocks as u32).to_le_bytes());
    let mut off = 0u64;
    for blk in &blocks {
        out.extend_from_slice(&off.to_le_bytes());
        off += blk.len() as u64;
    }
    let payload_base = out.len();
    let total: usize = blocks.iter().map(|b| b.len()).sum();
    out.resize(payload_base + total, 0);

    // Pass 2: emit payloads (block-parallel coalesced stores).
    if nblocks > 0 {
        let offsets: Vec<usize> = {
            let mut v = Vec::with_capacity(nblocks);
            let mut acc = 0usize;
            for blk in &blocks {
                v.push(acc);
                acc += blk.len();
            }
            v
        };
        let dst = GlobalWrite::new(&mut out[payload_base..]);
        stats.push(launch_named(device, Grid::linear(nblocks as u32, 256), "bitcomp-emit", |ctx| {
            let b = ctx.block_linear() as usize;
            ctx.write_span(&dst, offsets[b], &blocks[b]);
        }));
    }
    (out, stats)
}

/// Decompress a [`compress`] archive.
pub fn decompress(data: &[u8], device: &DeviceSpec) -> Result<(Vec<u8>, KernelStats), BitcompError> {
    if data.len() < 16 {
        return Err(BitcompError("truncated header"));
    }
    let orig_len = u64::from_le_bytes(data[0..8].try_into().unwrap()) as usize;
    let block = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
    let nblocks = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;
    // The encoder always writes BLOCK; accepting arbitrary block sizes
    // would let a corrupt header claim a near-arbitrary `orig_len` and
    // drive the output allocation below before any payload check.
    if block != BLOCK || nblocks != orig_len.div_ceil(block) {
        return Err(BitcompError("inconsistent block geometry"));
    }
    let table_end = 16 + nblocks * 8;
    if data.len() < table_end {
        return Err(BitcompError("truncated offset table"));
    }
    let offsets: Vec<usize> = (0..nblocks)
        .map(|i| u64::from_le_bytes(data[16 + i * 8..24 + i * 8].try_into().unwrap()) as usize)
        .collect();
    let payload = &data[table_end..];
    if offsets.windows(2).any(|w| w[0] > w[1]) || offsets.first().is_some_and(|&o| o != 0) {
        return Err(BitcompError("non-monotone offsets"));
    }
    if offsets.last().is_some_and(|&o| o > payload.len()) {
        return Err(BitcompError("offsets past payload"));
    }

    let mut out = vec![0u8; orig_len];
    if nblocks == 0 {
        return Ok((out, KernelStats::default()));
    }
    let failed: BlockSlots<BitcompError> = BlockSlots::new(nblocks);
    let stats = {
        let src = GlobalRead::new(payload);
        let dst = GlobalWrite::new(&mut out);
        launch_named(device, Grid::linear(nblocks as u32, 256), "bitcomp-decode", |ctx| {
            let b = ctx.block_linear() as usize;
            let start = offsets[b];
            let end = if b + 1 < nblocks { offsets[b + 1] } else { payload.len() };
            let expect = block.min(orig_len - b * block);
            let mut buf = ctx.scratch(end - start, 0u8);
            ctx.read_span(&src, start, &mut buf);
            match decode_block(&buf, expect) {
                Ok(decoded) => {
                    ctx.add_flops(decoded.len() as u64);
                    ctx.write_span(&dst, b * block, &decoded);
                }
                Err(e) => failed.put(b, e),
            }
        })
    };
    if let Some(e) = failed.into_first() {
        return Err(e);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::A100;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> usize {
        let (arc, _) = compress(data, &A100);
        let (back, _) = decompress(&arc, &A100).unwrap();
        assert_eq!(back, data);
        arc.len()
    }

    #[test]
    fn empty_input() {
        assert!(roundtrip(&[]) >= 16);
    }

    #[test]
    fn all_zeros_compress_massively() {
        let data = vec![0u8; 1 << 20];
        let n = roundtrip(&data);
        assert!(n < data.len() / 20, "zeros: {n} bytes for {} input", data.len());
    }

    #[test]
    fn huffman_like_stream_with_zero_runs() {
        // Mostly 0x00 with sparse set bits — the exact post-Huffman
        // pattern § VI-B targets.
        let data: Vec<u8> =
            (0..1 << 18).map(|i| if i % 97 == 0 { 0x41 } else { 0 }).collect();
        let n = roundtrip(&data);
        assert!(n < data.len() / 8, "{n} vs {}", data.len());
    }

    #[test]
    fn incompressible_data_bounded_expansion() {
        let data: Vec<u8> = (0..100_000u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8)
            .collect();
        let n = roundtrip(&data);
        // Raw fallback: 1 mode byte per 4 KiB + header/table.
        assert!(n < data.len() + data.len() / 100 + 64);
    }

    #[test]
    fn slowly_varying_words_pick_delta_mode() {
        let mut data = Vec::new();
        for i in 0..4096u32 {
            data.extend_from_slice(&(1_000_000 + i * 3).to_le_bytes());
        }
        let n = roundtrip(&data);
        assert!(n < data.len() / 3, "delta mode should win: {n} vs {}", data.len());
    }

    #[test]
    fn non_multiple_of_block_sizes() {
        for len in [1usize, 17, 4095, 4096, 4097, 10_000] {
            let data: Vec<u8> = (0..len).map(|i| (i % 7) as u8 * 11).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn corrupt_archives_error_not_panic() {
        let data = vec![7u8; 10_000];
        let (arc, _) = compress(&data, &A100);
        assert!(decompress(&arc[..10], &A100).is_err());
        let mut bad = arc.clone();
        bad[20] = 0xFF; // clobber offset table
        let _ = decompress(&bad, &A100); // must not panic
        let mut bad2 = arc.clone();
        let last = bad2.len() - 1;
        bad2.truncate(last);
        let _ = decompress(&bad2, &A100);
        // Unknown mode byte.
        let payload_base = 16 + ((data.len().div_ceil(BLOCK)) * 8);
        let mut bad3 = arc;
        bad3[payload_base] = 99;
        assert!(decompress(&bad3, &A100).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, i32::MAX as i64, i32::MIN as i64, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
            roundtrip(&data);
        }

        #[test]
        fn prop_roundtrip_sparse(data in proptest::collection::vec(prop_oneof![9 => Just(0u8), 1 => any::<u8>()], 0..20_000)) {
            roundtrip(&data);
        }
    }
}
