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

/// Length of [`rle0_encode`]'s output, from the run structure alone:
/// one control byte per token plus the literal bytes. A token starts
/// where the bytes switch between zero and non-zero, or where the
/// current token has reached 128 bytes — the encoder's own rule.
fn rle0_size(src: &[u8]) -> usize {
    // The token being built: its kind and length. Length 128 makes the
    // first byte start a token.
    let mut t = Rle0Tokens { zero: false, run: 128, size: 0 };
    let mut words = src.chunks_exact(8);
    for w in &mut words {
        // Eight bytes that only extend the current token, taken whole.
        let x = u64::from_le_bytes(w.try_into().unwrap());
        let same_kind = if t.zero { x == 0 } else { !has_zero_byte(x) };
        if same_kind && t.run + 8 <= 128 {
            t.run += 8;
            t.size += if t.zero { 0 } else { 8 };
        } else {
            w.iter().for_each(|&b| t.byte(b));
        }
    }
    words.remainder().iter().for_each(|&b| t.byte(b));
    t.size
}

/// [`rle0_size`]'s scan state: the current token and the bytes so far.
struct Rle0Tokens {
    zero: bool,
    run: usize,
    size: usize,
}

impl Rle0Tokens {
    #[inline]
    fn byte(&mut self, b: u8) {
        if (b == 0) != self.zero || self.run == 128 {
            (self.zero, self.run) = (b == 0, 0);
            self.size += 1;
        }
        self.run += 1;
        self.size += !self.zero as usize;
    }
}

/// Whether any byte of `x` is zero.
#[inline]
fn has_zero_byte(x: u64) -> bool {
    const LO: u64 = 0x0101_0101_0101_0101;
    x.wrapping_sub(LO) & !x & (LO << 7) != 0
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

/// Zigzagged differences of consecutive little-endian u32 words of
/// `src` (a trailing partial word is not a word).
fn word_deltas(src: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let words = src.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()));
    words.clone().zip(words.skip(1)).map(|(a, b)| zigzag(b as i64 - a as i64))
}

/// Bit width of a group whose zigzagged deltas OR to `or`.
#[inline]
fn group_width(or: u64) -> u8 {
    64 - or.leading_zeros() as u8
}

/// Delta + grouped fixed-width bit-packing over little-endian u32 words.
///
/// Body: `[u8 tail_len][tail bytes][u32 first]`, then per group of up to
/// [`DELTA_GROUP`] deltas: `[u8 width][packed zigzag deltas]`.
fn delta_bp_encode(src: &[u8], out: &mut Vec<u8>) {
    let tail = &src[src.len() / 4 * 4..];
    let deltas: Vec<u64> = word_deltas(src).collect();
    out.push(tail.len() as u8);
    out.extend_from_slice(tail);
    if src.len() >= 4 {
        out.extend_from_slice(&src[..4]);
    }
    for group in deltas.chunks(DELTA_GROUP) {
        let width = group_width(group.iter().fold(0, |or, &d| or | d));
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

/// Length of [`delta_bp_encode`]'s output, from each group's OR-ed
/// delta width alone.
fn delta_bp_size(src: &[u8]) -> usize {
    let tail = src.len() % 4;
    let first = if src.len() >= 4 { 4 } else { 0 };
    let group_bytes = |n: usize, or: u64| 1 + (n * group_width(or) as usize).div_ceil(8);
    let (mut size, mut n, mut or) = (1 + tail + first, 0, 0u64);
    for d in word_deltas(src) {
        or |= d;
        n += 1;
        if n == DELTA_GROUP {
            size += group_bytes(n, or);
            (n, or) = (0, 0);
        }
    }
    if n > 0 {
        size += group_bytes(n, or);
    }
    size
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

/// The mode [`encode_block`] writes and its body length: the smaller of
/// RLE0 and delta-bitpack (RLE0 on a tie), or raw when neither is
/// shorter than the block.
fn choose_mode(src: &[u8]) -> (u8, usize) {
    let (rle, dbp) = (rle0_size(src), delta_bp_size(src));
    let (mode, size) = if rle <= dbp { (MODE_RLE0, rle) } else { (MODE_DELTA_BP, dbp) };
    if size >= src.len() {
        (MODE_RAW, src.len())
    } else {
        (mode, size)
    }
}

/// Encode one block: size both coders, then write only the winner
/// after its mode byte.
fn encode_block(src: &[u8]) -> Vec<u8> {
    let (mode, size) = choose_mode(src);
    let mut out = Vec::with_capacity(1 + size);
    out.push(mode);
    match mode {
        MODE_RLE0 => rle0_encode(src, &mut out),
        MODE_DELTA_BP => delta_bp_encode(src, &mut out),
        _ => out.extend_from_slice(src),
    }
    debug_assert_eq!(out.len(), 1 + size);
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

    /// Blocks of every shape the size functions must get right.
    fn block_kinds() -> Vec<(&'static str, Vec<u8>)> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut random = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        };
        let ramp = |n: u32, step: u32| -> Vec<u8> {
            (0..n).flat_map(|i| (70_000 + i * step).to_le_bytes()).collect()
        };
        let sparse: Vec<u8> = (0..BLOCK).map(|i| if i % 300 < 2 { 0x41 } else { 0 }).collect();
        let mut ramp_tail = ramp(1000, 5);
        ramp_tail.extend_from_slice(&[9, 0, 3]);
        vec![
            ("all zero", vec![0; BLOCK]),
            ("zero runs past 128", sparse),
            ("random", random(BLOCK)),
            ("ramp", ramp(1024, 3)),
            ("ramp, wide steps", ramp(1024, 40_000)),
            ("ramp, len % 4 == 3", ramp_tail),
            ("random, len % 4 == 1", random(4093)),
            // Both coders take 6 bytes: the tie goes to RLE0.
            ("tie", vec![1, 0, 0, 0, 1, 0, 0, 0]),
            ("three bytes", vec![0, 7, 0]),
            ("one byte", vec![5]),
            ("empty", vec![]),
        ]
    }

    #[test]
    fn size_functions_match_the_encoders() {
        for (kind, src) in block_kinds() {
            let mut rle = Vec::new();
            rle0_encode(&src, &mut rle);
            assert_eq!(rle0_size(&src), rle.len(), "{kind}");
            let mut dbp = Vec::new();
            delta_bp_encode(&src, &mut dbp);
            assert_eq!(delta_bp_size(&src), dbp.len(), "{kind}");

            // Encode both and keep the shorter: RLE0 on a tie, raw
            // unless something is shorter than the block.
            let mut want = if rle.len() <= dbp.len() { (MODE_RLE0, rle) } else { (MODE_DELTA_BP, dbp) };
            if want.1.len() >= src.len() {
                want = (MODE_RAW, src.clone());
            }
            assert_eq!(choose_mode(&src), (want.0, want.1.len()), "{kind}");
            let mut block = vec![want.0];
            block.extend_from_slice(&want.1);
            assert_eq!(encode_block(&src), block, "{kind}");
        }
    }

    #[test]
    fn block_kinds_reach_every_mode() {
        let modes: Vec<u8> = block_kinds().iter().map(|(_, src)| choose_mode(src).0).collect();
        for mode in [MODE_RAW, MODE_RLE0, MODE_DELTA_BP] {
            assert!(modes.contains(&mode), "no block kind picks mode {mode}: {modes:?}");
        }
    }

    #[test]
    fn fixed_payload_archive_is_pinned() {
        // Every block kind back to back, so blocks straddle the kinds.
        let data: Vec<u8> = block_kinds().into_iter().flat_map(|(_, src)| src).collect();
        let (arc, _) = compress(&data, &A100);
        let fnv = arc.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        assert_eq!((data.len(), arc.len(), fnv), (28_588, 11_595, 0x0E4A_2DCF_AD38_9B5F));
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
        fn prop_sizes_match_the_encoders(src in proptest::collection::vec(prop_oneof![3 => Just(0u8), 1 => any::<u8>()], 0..600)) {
            let (mut rle, mut dbp) = (Vec::new(), Vec::new());
            rle0_encode(&src, &mut rle);
            delta_bp_encode(&src, &mut dbp);
            prop_assert_eq!(rle0_size(&src), rle.len());
            prop_assert_eq!(delta_bp_size(&src), dbp.len());
        }

        #[test]
        fn prop_roundtrip_sparse(data in proptest::collection::vec(prop_oneof![9 => Just(0u8), 1 => any::<u8>()], 0..20_000)) {
            roundtrip(&data);
        }
    }
}
