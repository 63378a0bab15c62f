//! Chunked coarse-grained Huffman encoding/decoding kernels.
//!
//! cuSZ+'s coarse-grained scheme: the code plane is split into
//! fixed-size chunks and one block encodes each chunk into bounded
//! scratch (chunk length × longest code); the host concatenates the
//! byte-aligned chunks, which fixes their offsets — every chunk
//! independent, so encoding (and decoding) is block-parallel.
//!
//! The encoder also records the *gap array*: for every
//! [`GAP_SECTOR_BYTES`]-byte sector of a chunk, the bit offset of the
//! first codeword that starts in it. With those starts stored,
//! [`decode_gpu`] decodes every sector of every chunk in one launch,
//! each exactly once, and the host only has to check that the sectors
//! agree with each other before gathering them (DESIGN.md §14).

use cuszi_gpu_sim::{launch_named, BlockSlots, DeviceSpec, GlobalRead, GlobalWrite, Grid, KernelStats};

use crate::codebook::{Codebook, DecodeTable, LUT_BITS, PROBE_SYMS};

/// Quant-codes per encoding chunk. Large enough that the per-block
/// codebook load is amortised (§ VI-A's concern), small enough for good
/// block-level parallelism.
pub const ENC_CHUNK: usize = 1 << 14;

/// Bytes per gap-array sector. 256 B (2048 bits) keeps per-sector work
/// well above the longest codeword (63 bits) — so every sector before a
/// chunk's last symbol has a codeword starting within its first 63 bits
/// and one byte holds the offset — while giving ~64 sectors of
/// intra-chunk parallelism per full [`ENC_CHUNK`] and costing 1/256 of
/// the bitstream.
pub const GAP_SECTOR_BYTES: usize = 256;
const SECTOR_BITS: u64 = GAP_SECTOR_BYTES as u64 * 8;

/// Gap byte of a sector no codeword starts in: the chunk's last symbol
/// began in an earlier sector.
pub const GAP_NONE: u8 = u8::MAX;

/// A chunk-parallel Huffman bitstream.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedStream {
    /// Number of encoded symbols.
    pub n: u64,
    /// Symbols per chunk.
    pub chunk_size: u32,
    /// Byte offset of each chunk in `bits` (ascending; one per chunk).
    pub offsets: Vec<u64>,
    /// The gap array: one byte per [`GAP_SECTOR_BYTES`] sector of each
    /// chunk's bytes, chunks back to back. The byte is the bit offset,
    /// from the sector's first bit, of the first codeword that starts in
    /// the sector (at most 62), or [`GAP_NONE`].
    pub gaps: Vec<u8>,
    /// The concatenated, byte-aligned per-chunk bitstreams.
    pub bits: Vec<u8>,
}

/// Serialized bytes ahead of the chunk table: `n`, `chunk_size`, chunk
/// count.
const STREAM_HEAD: usize = 8 + 4 + 8;

impl EncodedStream {
    /// Total encoded payload size in bytes (excluding metadata).
    pub fn payload_bytes(&self) -> usize {
        self.bits.len()
    }

    /// Serialized size in bytes including chunk and gap metadata.
    pub fn serialized_len(&self) -> usize {
        STREAM_HEAD + self.offsets.len() * 8 + 8 + self.gaps.len() + self.bits.len()
    }

    /// Flatten to bytes: [`EncodedStream::write_to`] into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_to(&mut out);
        out
    }

    /// Append the serialized stream to `out` — exactly
    /// [`EncodedStream::serialized_len`] bytes, little-endian,
    /// length-prefixed sections: `n u64 · chunk_size u32 · chunks u64 ·
    /// offsets u64⋯ · gaps u64 · gap bytes · bits`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&(self.offsets.len() as u64).to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&(self.gaps.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.gaps);
        out.extend_from_slice(&self.bits);
    }

    /// Inverse of [`EncodedStream::to_bytes`]. Returns `None` on any
    /// structural inconsistency (truncation, a chunk count that does not
    /// follow from `n`, non-monotone offsets). Both counts are bounded
    /// by `data.len()` before anything is allocated, so a crafted header
    /// costs nothing.
    pub fn from_bytes(data: &[u8]) -> Option<EncodedStream> {
        let (head, rest) = data.split_first_chunk::<STREAM_HEAD>()?;
        let n = u64::from_le_bytes(head[0..8].try_into().ok()?);
        let chunk_size = u32::from_le_bytes(head[8..12].try_into().ok()?);
        let nch = u64::from_le_bytes(head[12..20].try_into().ok()?);
        let want = match (n, chunk_size) {
            (0, _) => 0,
            (_, 0) => return None,
            _ => n.div_ceil(chunk_size as u64),
        };
        if nch != want {
            return None;
        }
        let table = usize::try_from(nch).ok()?.checked_mul(8)?;
        let (table, rest) = rest.split_at_checked(table)?;
        let (ngaps, rest) = rest.split_first_chunk::<8>()?;
        let ngaps = usize::try_from(u64::from_le_bytes(*ngaps)).ok()?;
        let (gaps, bits) = rest.split_at_checked(ngaps)?;

        let mut offsets = Vec::with_capacity(table.len() / 8);
        for o in table.chunks_exact(8) {
            offsets.push(u64::from_le_bytes(o.try_into().ok()?));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if offsets.last().is_some_and(|&o| o > bits.len() as u64) {
            return None;
        }
        Some(EncodedStream { n, chunk_size, offsets, gaps: gaps.to_vec(), bits: bits.to_vec() })
    }
}

/// Encode a quant-code plane with a codebook, recording the gap array
/// ([`EncodedStream::gaps`]) as the bits are emitted.
///
/// One launch (`huffman-emit`), one block per chunk: each block encodes
/// its chunk into pooled scratch sized by the longest code, then
/// publishes the chunk's exact bytes and sector gaps. The host
/// concatenates the chunks in order, which fixes their offsets.
///
/// Every symbol must have a non-zero code length (guaranteed when the
/// codebook was built from this plane's histogram); symbols without a
/// code make the affected chunk panic — a caller contract, screened at
/// the pipeline layer.
pub fn encode_gpu(
    codes: &[u16],
    book: &Codebook,
    device: &DeviceSpec,
) -> (EncodedStream, Vec<KernelStats>) {
    let nchunks = codes.len().div_ceil(ENC_CHUNK);
    let mut stats = Vec::new();
    let chunks: BlockSlots<(Vec<u8>, Vec<u8>)> = BlockSlots::new(nchunks);
    if nchunks > 0 {
        let src = GlobalRead::new(codes);
        let max_len = book.max_len() as usize;
        // `(code, length)` per symbol, one load per codeword.
        let table: Vec<(u64, u32)> =
            (0..book.alphabet()).map(|s| book.code_of(s as u16)).map(|(c, l)| (c, l as u32)).collect();
        let code_of = |c: u16| {
            let (code, len) = table[c as usize];
            assert!(len > 0, "symbol {c} has no Huffman code");
            (code, len)
        };
        stats.push(launch_named(device, Grid::linear(nchunks as u32, 256), "huffman-emit", |ctx| {
            let b = ctx.block_linear() as usize;
            let start = b * ENC_CHUNK;
            let end = (start + ENC_CHUNK).min(codes.len());
            let mut buf = ctx.scratch(end - start, 0u16);
            ctx.read_span(&src, start, &mut buf);
            let cap = buf.len() * max_len / 8 + 8;
            let mut out = ctx.scratch(cap, 0u8);
            let mut sector_gaps = ctx.scratch(cap.div_ceil(GAP_SECTOR_BYTES), GAP_NONE);
            let mut words = WordWriter { out: &mut out, w: 0, acc: 0, nbits: 0 };
            let mut sectors = Sectors { gaps: &mut sector_gaps, next: 0, first_bit: 0 };
            // Codewords two at a time: one sector check and, when the
            // pair fits 32 bits, one accumulator update per pair.
            let mut pairs = buf.chunks_exact(2);
            for p in &mut pairs {
                let ((c0, l0), (c1, l1)) = (code_of(p[0]), code_of(p[1]));
                let pos = words.bit_pos();
                sectors.note(pos, pos + l0 as u64);
                if l0 + l1 <= 32 {
                    words.put(c0 << l1 | c1, l0 + l1);
                } else {
                    words.put(c0, l0);
                    words.put(c1, l1);
                }
            }
            for &c in pairs.remainder() {
                let (code, len) = code_of(c);
                let pos = words.bit_pos();
                sectors.note(pos, pos);
                words.put(code, len);
            }
            let n = words.finish();
            ctx.add_flops(buf.len() as u64 * 2);
            chunks.put(b, (out[..n].to_vec(), sector_gaps[..n.div_ceil(GAP_SECTOR_BYTES)].to_vec()));
        }));
    }

    let chunks = chunks.into_compact();
    let mut offsets = Vec::with_capacity(chunks.len());
    let mut bits = Vec::with_capacity(chunks.iter().map(|c| c.0.len()).sum());
    let mut gaps = Vec::with_capacity(chunks.iter().map(|c| c.1.len()).sum());
    for (chunk_bits, chunk_gaps) in &chunks {
        offsets.push(bits.len() as u64);
        bits.extend_from_slice(chunk_bits);
        gaps.extend_from_slice(chunk_gaps);
    }
    (
        EncodedStream { n: codes.len() as u64, chunk_size: ENC_CHUNK as u32, offsets, gaps, bits },
        stats,
    )
}

/// A chunk's gap array as it is filled: the next sector still waiting
/// for its first codeword start, and that sector's first bit.
struct Sectors<'a> {
    gaps: &'a mut [u8],
    next: usize,
    first_bit: u64,
}

impl Sectors<'_> {
    /// Record the codewords starting at `first` and `last` (`first <=
    /// last < first + 64`, consecutive starts). Codewords are under 64
    /// bits, so starts never skip a sector and at most one of the two
    /// is the first start in the next sector.
    #[inline]
    fn note(&mut self, first: u64, last: u64) {
        if last >= self.first_bit {
            let start = if first >= self.first_bit { first } else { last };
            self.gaps[self.next] = (start - self.first_bit) as u8;
            self.next += 1;
            self.first_bit += SECTOR_BITS;
        }
    }
}

/// MSB-first bit packer that stores whole 32-bit big-endian words.
///
/// Between codewords at most 32 bits wait in `acc`, so a code fits the
/// 64-bit accumulator whole unless `nbits + len > 64`; such a code
/// (longer than 32 bits, at most 63) goes in as its high part and then
/// its low 32 bits, each of which fits.
struct WordWriter<'a> {
    out: &'a mut [u8],
    /// Bytes stored so far.
    w: usize,
    /// Pending bits, in the low `nbits` bits.
    acc: u64,
    nbits: u32,
}

impl WordWriter<'_> {
    /// Chunk-relative bit position of the next codeword.
    #[inline]
    fn bit_pos(&self) -> u64 {
        self.w as u64 * 8 + self.nbits as u64
    }

    #[inline]
    fn put(&mut self, code: u64, len: u32) {
        if self.nbits + len > 64 {
            self.push(code >> 32, len - 32);
            self.push(code & u32::MAX as u64, 32);
        } else {
            self.push(code, len);
        }
    }

    /// Append `len` bits (`1 <= len` and `nbits + len <= 64`), storing a
    /// word once 32 are pending.
    #[inline]
    fn push(&mut self, code: u64, len: u32) {
        self.acc = self.acc << len | code;
        self.nbits += len;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.out[self.w..self.w + 4].copy_from_slice(&word.to_be_bytes());
            self.w += 4;
        }
    }

    /// Store the pending bits, zero-padding the last byte; returns the
    /// chunk's byte length.
    fn finish(mut self) -> usize {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out[self.w] = (self.acc >> self.nbits) as u8;
            self.w += 1;
        }
        if self.nbits > 0 {
            self.out[self.w] = (self.acc << (8 - self.nbits)) as u8;
            self.w += 1;
        }
        self.w
    }
}

/// Decoding failure: the bitstream did not resolve to valid symbols.
/// Carries the failing chunk (and, for the gap-array decoder, the
/// sector within it) so core-layer stage errors attribute the fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub msg: &'static str,
    /// Chunk index the failure was detected in, when attributable.
    pub chunk: Option<u64>,
    /// Gap-array sector index within the chunk, when attributable.
    pub sector: Option<u64>,
}

impl DecodeError {
    /// A failure with no chunk attribution (structural stream faults).
    pub fn new(msg: &'static str) -> Self {
        DecodeError { msg, chunk: None, sector: None }
    }

    /// A failure attributed to one chunk.
    pub fn at_chunk(msg: &'static str, chunk: usize) -> Self {
        DecodeError { msg, chunk: Some(chunk as u64), sector: None }
    }

    /// A failure attributed to one gap-array sector of one chunk.
    pub fn at_sector(msg: &'static str, chunk: usize, sector: usize) -> Self {
        DecodeError { msg, chunk: Some(chunk as u64), sector: Some(sector as u64) }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Huffman decode error: {}", self.msg)?;
        match (self.chunk, self.sector) {
            (Some(c), Some(s)) => write!(f, " (chunk {c}, sector {s})"),
            (Some(c), None) => write!(f, " (chunk {c})"),
            _ => Ok(()),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Where a [`decode_run`] stopped.
struct Run {
    /// Symbols written to the front of `out`.
    count: usize,
    /// Bit position just past the last symbol written.
    pos: u64,
    /// Why the run stopped before reaching its end, when it did.
    fail: Option<&'static str>,
}

/// Zero bytes a decode buffer carries past its stream bytes, so that the
/// nine-byte window load at the last stream byte stays inside it.
const WINDOW_SLACK: usize = 8;

/// The 64 stream bits from bit `pos` of `buf`, MSB-first.
#[inline]
fn window_at(buf: &[u8], pos: u64) -> u64 {
    let byte = (pos / 8) as usize;
    let off = (pos % 8) as u32;
    let head: [u8; 8] = buf[byte..byte + 8].try_into().expect("an 8-byte slice");
    // The ninth byte fills the low `off` bits (none when `off` is 0).
    u64::from_be_bytes(head) << off | (buf[byte + 8] as u64) >> (8 - off)
}

/// The symbol loop both decoders share: decode the codewords that start
/// in bits `pos..end` of `buf` into `out`, stopping early only when
/// `out` is full. `buf` is the stream bytes from bit 0 of the caller's
/// frame followed by [`WINDOW_SLACK`] zero bytes; `limit` (at least
/// `end`) is the last real stream bit, so bits past it read as the
/// encoder's zero pad and a codeword reaching past it is an underrun.
///
/// The window holds the stream from `pos` in its top `avail` bits and is
/// reloaded by byte offset only when fewer than a table probe's worth
/// remain. A hit whose codewords all end by `end` (so none can underrun),
/// with room in `out` for all [`PROBE_SYMS`] slots it stores, takes them
/// in one step; any other probe takes one codeword — the canonical walk
/// on a miss — with the underrun and no-match checks. The
/// multi-codeword step takes exactly the codewords the one-codeword
/// steps would, so both stop at the same bit.
#[inline]
fn decode_run(
    book: &Codebook,
    table: &DecodeTable,
    buf: &[u8],
    mut pos: u64,
    end: u64,
    limit: u64,
    out: &mut [u16],
) -> Run {
    let mut count = 0usize;
    let mut fail = None;
    let mut window = 0u64;
    let mut avail = 0u32;
    while pos < end && count < out.len() {
        if avail < LUT_BITS as u32 {
            window = window_at(buf, pos);
            avail = 64;
        }
        let probe = table.probe(window >> (64 - LUT_BITS as u32));
        let bits = probe.bits();
        if bits > 0 && pos + bits as u64 <= end && count + PROBE_SYMS <= out.len() {
            out[count..count + PROBE_SYMS].copy_from_slice(&probe.syms());
            count += probe.count();
            pos += bits as u64;
            window <<= bits;
            avail -= bits;
            continue;
        }
        let hit = match probe.first() {
            Some(hit) => Some(hit),
            // Longer than the table: the canonical compare needs up to
            // 63 real bits, which only a fresh window guarantees.
            None => {
                window = window_at(buf, pos);
                avail = 64;
                book.decode_one(window)
            }
        };
        let Some((sym, len)) = hit else {
            fail = Some("no code matches bitstream");
            break;
        };
        if pos + len as u64 > limit {
            fail = Some("bitstream underrun");
            break;
        }
        out[count] = sym;
        count += 1;
        pos += len as u64;
        window <<= len;
        avail -= len as u32;
    }
    Run { count, pos, fail }
}

/// The encoder's zero-fill contract for a chunk of `total_bits` whose
/// last symbol ends at bit `final_pos`: fewer than 8 pad bits remain and
/// all of them are zero. Returns what is wrong, if anything.
fn pad_fault(last_byte: u8, total_bits: u64, final_pos: u64) -> Option<&'static str> {
    let rem = total_bits - final_pos;
    if rem >= 8 {
        return Some("trailing garbage after final symbol");
    }
    // MSB-first packing: the pad occupies the low `rem` bits.
    if rem > 0 && last_byte & ((1u8 << rem) - 1) != 0 {
        return Some("nonzero pad bits");
    }
    None
}

/// Validate the chunk table and return each chunk's byte span in
/// `stream.bits`, in the u64 domain before any cast can truncate.
fn chunk_spans(stream: &EncodedStream) -> Result<Vec<(usize, usize)>, DecodeError> {
    let blen = stream.bits.len() as u64;
    let nchunks = match (stream.n, stream.chunk_size) {
        (0, _) => 0,
        (_, 0) => return Err(DecodeError::new("zero chunk size")),
        (n, chunk) => n.div_ceil(chunk as u64),
    };
    if stream.offsets.len() as u64 != nchunks {
        return Err(DecodeError::new("chunk table length mismatch"));
    }
    // Every symbol takes at least one bit: a count the bits cannot hold
    // is rejected before the decoders size the plane by it.
    if stream.n > blen * 8 {
        return Err(DecodeError::new("bitstream underrun"));
    }
    let mut spans = Vec::with_capacity(stream.offsets.len());
    for (c, &start) in stream.offsets.iter().enumerate() {
        let end = stream.offsets.get(c + 1).copied().unwrap_or(blen);
        if start > end || end > blen {
            return Err(DecodeError::at_chunk("chunk offsets out of range", c));
        }
        spans.push((start as usize, end as usize));
    }
    Ok(spans)
}

/// Serial-within-chunk decode: one simulated thread walks each chunk's
/// whole bitstream and never reads the gap array. Kept only as the
/// oracle [`decode_gpu`] must match bit-for-bit; every codec, the
/// cuSZ and QoZ baselines included, decodes with [`decode_gpu`].
pub fn decode_gpu_serial(
    stream: &EncodedStream,
    book: &Codebook,
    device: &DeviceSpec,
) -> Result<(Vec<u16>, KernelStats), DecodeError> {
    let spans = chunk_spans(stream)?;
    let n = stream.n as usize;
    let chunk = stream.chunk_size as usize;
    let mut out = vec![0u16; n];
    if n == 0 {
        return Ok((out, KernelStats::default()));
    }
    // One failure slot per chunk, written disjointly; the lowest failed
    // chunk wins deterministically after the launch.
    let failed: BlockSlots<&'static str> = BlockSlots::new(spans.len());
    let table = DecodeTable::new(book);
    let stats = {
        let src = GlobalRead::new(&stream.bits);
        let dst = GlobalWrite::new(&mut out);
        launch_named(device, Grid::linear(spans.len() as u32, 256), "huffman-decode", |ctx| {
            let b = ctx.block_linear() as usize;
            let start_sym = b * chunk;
            let (bs, be) = spans[b];
            let mut buf = ctx.scratch(be - bs + WINDOW_SLACK, 0u8);
            ctx.read_span(&src, bs, &mut buf[..be - bs]);

            let mut syms = ctx.scratch(chunk.min(n - start_sym), 0u16);
            let total_bits = (be - bs) as u64 * 8;
            let run = decode_run(book, &table, &buf, 0, total_bits, total_bits, &mut syms);
            let fault = if run.count < syms.len() {
                Some(run.fail.unwrap_or("bitstream underrun"))
            } else {
                // The encoder zero-fills the final partial byte; anything
                // else in the tail is corruption and must be reported.
                pad_fault(stream.bits[be - 1], total_bits, run.pos)
            };
            if let Some(msg) = fault {
                failed.put(b, msg);
                return;
            }
            ctx.add_flops(syms.len() as u64 * 2);
            ctx.write_span(&dst, start_sym, &syms);
        })
    };
    if let Some((c, msg)) = failed.into_indexed().into_iter().next() {
        return Err(DecodeError::at_chunk(msg, c));
    }
    Ok((out, stats))
}

/// Gap-array decode statistics. `redecoded` and `fallback_chunks` are
/// what the self-synchronising decoder this one replaced paid per
/// stream; with stored starts both are 0 by construction, and they stay
/// so the benchmark's ledger keeps reading them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GapReport {
    /// Total sectors across all chunks (one decode block each).
    pub sectors: u64,
    /// Sectors decoded a second time: always 0.
    pub redecoded: u64,
    /// Chunks decoded serially on the host: always 0.
    pub fallback_chunks: u64,
}

/// Result of a gap-array decode: the symbol plane, the kernel stats of
/// the launch, and the sector count.
#[derive(Clone, Debug)]
pub struct Decoded {
    pub syms: Vec<u16>,
    pub kernels: Vec<KernelStats>,
    pub report: GapReport,
}

/// What one sector's block publishes: the symbols whose codewords start
/// in the sector, and the chunk-relative bit its run stopped at — the
/// first codeword start past the sector's end, or where `fail` struck.
struct SectorRec {
    syms: Vec<u16>,
    exit: u64,
    fail: Option<&'static str>,
}

/// Chunk-parallel, sector-parallel decode from the stored gap array.
///
/// One launch (`huffman-decode-gap`), one block per sector: each block
/// decodes from its sector's stored start to the sector's end — every
/// codeword exactly once — into pooled scratch and publishes its symbols
/// and exit bit. The host then walks each chunk's sectors in order and
/// accepts the stream only if every exit equals the next sector's stored
/// start, the chunk yields exactly its symbol count, and the pad after
/// its last symbol is zero; anything else is a [`DecodeError`] naming
/// the chunk and sector. Those three checks tie the sector runs to the
/// one chain [`decode_gpu_serial`] follows from bit 0, so an accepted
/// plane is bit-identical to the oracle's.
pub fn decode_gpu(
    stream: &EncodedStream,
    book: &Codebook,
    device: &DeviceSpec,
) -> Result<Decoded, DecodeError> {
    let spans = chunk_spans(stream)?;
    let n = stream.n as usize;
    let chunk = stream.chunk_size as usize;

    // Flatten (chunk, sector) onto a linear grid, in gap-array order.
    let sectors_of = |&(bs, be): &(usize, usize)| (be - bs).div_ceil(GAP_SECTOR_BYTES);
    let sec_map: Vec<(usize, usize)> = spans
        .iter()
        .enumerate()
        .flat_map(|(c, span)| (0..sectors_of(span)).map(move |s| (c, s)))
        .collect();
    let total_sectors = sec_map.len();
    if total_sectors > u32::MAX as usize {
        return Err(DecodeError::new("stream too large for the decode grid"));
    }
    if stream.gaps.len() != total_sectors {
        return Err(match sec_map.get(stream.gaps.len()) {
            Some(&(c, s)) => DecodeError::at_sector("gap table truncated", c, s),
            None => DecodeError::new("gap table longer than the stream's sectors"),
        });
    }
    if n == 0 {
        return Ok(Decoded { syms: Vec::new(), kernels: Vec::new(), report: GapReport::default() });
    }

    // Each block reads its sector plus an 8-byte spill (a codeword that
    // starts inside the sector ends inside the window).
    let rec_slots: BlockSlots<SectorRec> = BlockSlots::new(total_sectors);
    let table = DecodeTable::new(book);
    let kernel = {
        let src = GlobalRead::new(&stream.bits);
        let gaps = GlobalRead::new(&stream.gaps);
        launch_named(device, Grid::linear(total_sectors as u32, 256), "huffman-decode-gap", |ctx| {
            let g = ctx.block_linear() as usize;
            let (c, s) = sec_map[g];
            let (bs, be) = spans[c];
            let base = s as u64 * SECTOR_BITS;
            // Bits of the chunk from this sector's first bit on, and
            // how many of them are the sector's own.
            let left = (be - bs) as u64 * 8 - base;
            let own = left.min(SECTOR_BITS);
            let gap = ctx.read_one(&gaps, g);
            if gap == GAP_NONE {
                rec_slots.put(g, SectorRec { syms: Vec::new(), exit: base, fail: None });
                return;
            }
            let wstart = bs + s * GAP_SECTOR_BYTES;
            let wlen = (GAP_SECTOR_BYTES + 8).min(be - wstart);
            let mut buf = ctx.scratch(wlen + WINDOW_SLACK, 0u8);
            ctx.read_span(&src, wstart, &mut buf[..wlen]);

            // A symbol takes at least one bit, so `own` bounds the run.
            let mut syms = ctx.scratch(own as usize, 0u16);
            let run = decode_run(book, &table, &buf, gap as u64, own, left, &mut syms);
            ctx.add_flops(run.count as u64 * 2);
            rec_slots.put(
                g,
                SectorRec { syms: syms[..run.count].to_vec(), exit: base + run.pos, fail: run.fail },
            );
        })
    };
    let recs: Vec<SectorRec> = rec_slots.into_compact();
    if recs.len() != total_sectors {
        // A dropped launch (fault injection) leaves the slots empty;
        // report gracefully — the stage layer's sticky-fault drain
        // supplies the authoritative attribution.
        return Err(DecodeError::new("decode pass produced no sector records"));
    }

    // Host check and gather: follow each chunk's chain of codeword
    // starts through its sectors, appending their symbols to the plane.
    const DISAGREES: &str = "gap array disagrees with the bitstream";
    let mut out: Vec<u16> = Vec::with_capacity(n);
    let mut sectors = stream.gaps.iter().zip(&recs);
    for (c, span) in spans.iter().enumerate() {
        let total_bits = (span.1 - span.0) as u64 * 8;
        // Plane length once this chunk is complete.
        let done = out.len() + chunk.min(n - c * chunk);
        // Where the chain so far says the next codeword starts; once the
        // chunk is complete, where its last symbol ended.
        let mut chain = 0u64;
        for (s, (&gap, rec)) in sectors.by_ref().take(sectors_of(span)).enumerate() {
            let complete = out.len() == done;
            // A sector has no stored start exactly when the chunk's
            // last symbol began before it.
            if complete != (gap == GAP_NONE) {
                return Err(DecodeError::at_sector(DISAGREES, c, s));
            }
            if complete {
                continue;
            }
            if s as u64 * SECTOR_BITS + gap as u64 != chain {
                return Err(DecodeError::at_sector(DISAGREES, c, s));
            }
            let need = done - out.len();
            if rec.syms.len() < need {
                if let Some(msg) = rec.fail {
                    return Err(DecodeError::at_sector(msg, c, s));
                }
                out.extend_from_slice(&rec.syms);
                chain = rec.exit;
            } else {
                // The chunk ends in this sector. The run knew no symbol
                // budget, so whatever it decoded (or failed on) past the
                // last symbol came out of the pad: step back over it.
                out.extend_from_slice(&rec.syms[..need]);
                let over: u64 = rec.syms[need..].iter().map(|&y| book.len_of(y) as u64).sum();
                chain = rec.exit - over;
            }
        }
        if out.len() != done {
            return Err(DecodeError::at_chunk("bitstream underrun", c));
        }
        if let Some(msg) = pad_fault(stream.bits[span.1 - 1], total_bits, chain) {
            return Err(DecodeError::at_chunk(msg, c));
        }
    }
    let report = GapReport { sectors: total_sectors as u64, ..GapReport::default() };
    Ok(Decoded { syms: out, kernels: vec![kernel], report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::histogram_reference;
    use cuszi_gpu_sim::A100;

    fn book_for(codes: &[u16], alphabet: usize) -> Codebook {
        Codebook::from_histogram(&histogram_reference(codes, alphabet)).unwrap()
    }

    fn roundtrip(codes: &[u16], alphabet: usize) {
        let book = book_for(codes, alphabet);
        let (stream, _) = encode_gpu(codes, &book, &A100);
        let (serial, _) = decode_gpu_serial(&stream, &book, &A100).unwrap();
        assert_eq!(serial, codes);
        let gap = decode_gpu(&stream, &book, &A100).unwrap();
        assert_eq!(gap.syms, codes);
    }

    #[test]
    fn roundtrip_small() {
        roundtrip(&[1, 2, 3, 1, 1, 2, 5, 5, 5, 5], 8);
    }

    #[test]
    fn roundtrip_multi_chunk() {
        let codes: Vec<u16> = (0..100_000).map(|i| ((i * 31 + i / 7) % 600) as u16).collect();
        roundtrip(&codes, 1024);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&vec![512u16; 40_000], 1024);
    }

    #[test]
    fn roundtrip_empty() {
        let book = book_for(&[3], 8);
        let (stream, _) = encode_gpu(&[], &book, &A100);
        assert_eq!(stream.n, 0);
        let d = decode_gpu(&stream, &book, &A100).unwrap();
        assert!(d.syms.is_empty());
        assert!(d.kernels.is_empty());
        assert_eq!(d.report, GapReport::default());
    }

    #[test]
    fn gap_decode_is_one_launch_over_every_sector() {
        let codes: Vec<u16> = (0..60_000).map(|i| ((i * 31 + i / 7) % 600) as u16).collect();
        let book = book_for(&codes, 1024);
        let (stream, _) = encode_gpu(&codes, &book, &A100);
        let d = decode_gpu(&stream, &book, &A100).unwrap();
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.kernels[0].blocks, stream.gaps.len() as u64);
        assert_eq!(
            d.report,
            GapReport { sectors: stream.gaps.len() as u64, redecoded: 0, fallback_chunks: 0 }
        );
    }

    #[test]
    fn gap_array_has_one_small_offset_per_sector() {
        let codes: Vec<u16> = (0..60_000).map(|i| ((i * 31 + i / 7) % 600) as u16).collect();
        let book = book_for(&codes, 1024);
        let (stream, _) = encode_gpu(&codes, &book, &A100);
        let chunk_bytes = |c: usize| {
            let end = stream.offsets.get(c + 1).map_or(stream.bits.len(), |&o| o as usize);
            end - stream.offsets[c] as usize
        };
        let sectors: usize =
            (0..stream.offsets.len()).map(|c| chunk_bytes(c).div_ceil(GAP_SECTOR_BYTES)).sum();
        assert_eq!(stream.gaps.len(), sectors);
        // Multi-bit codes: every sector of these chunks has a codeword
        // starting in it, within the first 63 bits, and each chunk's
        // first codeword starts at bit 0.
        assert!(stream.gaps.iter().all(|&g| g <= 62), "{:?}", stream.gaps);
        assert_eq!(stream.gaps[0], 0);
        assert!(stream.gaps.iter().any(|&g| g > 0));
    }

    #[test]
    fn nonzero_pad_bits_are_rejected_by_both_decoders() {
        // 4321 one-bit symbols: 4321 bits in 541 bytes leaves 7 pad
        // bits the encoder zero-fills. Dirty them.
        let codes = vec![5u16; 4321];
        let book = book_for(&codes, 8);
        let (mut stream, _) = encode_gpu(&codes, &book, &A100);
        if let Some(b) = stream.bits.last_mut() {
            *b |= 1;
        }
        let se = decode_gpu_serial(&stream, &book, &A100).unwrap_err();
        assert_eq!(se.msg, "nonzero pad bits");
        assert!(se.chunk.is_some());
        let ge = decode_gpu(&stream, &book, &A100).unwrap_err();
        assert_eq!(ge.msg, "nonzero pad bits");
        assert_eq!(ge.chunk, se.chunk);
    }

    #[test]
    fn trailing_garbage_after_final_symbol_is_rejected() {
        let codes: Vec<u16> = (0..5_000).map(|i| ((i * 13) % 40) as u16).collect();
        let book = book_for(&codes, 64);
        let (mut stream, _) = encode_gpu(&codes, &book, &A100);
        // A whole extra byte in the final chunk: >= 8 residual bits.
        stream.bits.push(0x00);
        let se = decode_gpu_serial(&stream, &book, &A100).unwrap_err();
        assert_eq!(se.msg, "trailing garbage after final symbol");
        let ge = decode_gpu(&stream, &book, &A100).unwrap_err();
        assert_eq!(ge.msg, "trailing garbage after final symbol");
    }

    #[test]
    fn decode_errors_carry_chunk_attribution() {
        let codes: Vec<u16> = (0..40_000).map(|i| ((i * 7) % 300) as u16).collect();
        let book = book_for(&codes, 512);
        let (stream, _) = encode_gpu(&codes, &book, &A100);
        assert!(stream.offsets.len() >= 3, "need a multi-chunk stream");
        let mut bad = stream.clone();
        bad.offsets[1] = u64::MAX;
        // offsets[1] bounds chunk 0's end, so the fault pins to chunk 0.
        let e = decode_gpu(&bad, &book, &A100).unwrap_err();
        assert_eq!(e.msg, "chunk offsets out of range");
        assert_eq!(e.chunk, Some(0));
        assert_eq!(
            e.to_string(),
            "Huffman decode error: chunk offsets out of range (chunk 0)"
        );
        let s = decode_gpu_serial(&bad, &book, &A100).unwrap_err();
        assert_eq!(s.msg, "chunk offsets out of range");
    }

    #[test]
    fn centralized_distribution_compresses_near_one_bit() {
        let codes: Vec<u16> =
            (0..1 << 16).map(|i| if i % 64 == 0 { 511 } else { 512 }).collect();
        let book = book_for(&codes, 1024);
        let (stream, _) = encode_gpu(&codes, &book, &A100);
        let bits_per_sym = stream.bits.len() as f64 * 8.0 / codes.len() as f64;
        assert!(bits_per_sym < 1.2, "got {bits_per_sym} bits/sym");
        // ...which is exactly the >= 1 bit floor § VI-B motivates
        // Bitcomp with.
        assert!(bits_per_sym >= 1.0);
    }

    #[test]
    fn stream_serialization_roundtrip() {
        let codes: Vec<u16> = (0..50_000).map(|i| ((i * 7) % 300) as u16).collect();
        let book = book_for(&codes, 512);
        let (stream, _) = encode_gpu(&codes, &book, &A100);
        let back = EncodedStream::from_bytes(&stream.to_bytes()).unwrap();
        assert_eq!(stream, back);
    }

    #[test]
    fn write_to_appends_exactly_the_serialized_stream() {
        let codes: Vec<u16> = (0..30_000).map(|i| ((i * 11) % 200) as u16).collect();
        let book = book_for(&codes, 256);
        let (stream, _) = encode_gpu(&codes, &book, &A100);
        let mut buf = vec![0xEE; 7];
        stream.write_to(&mut buf);
        assert_eq!(buf.len(), 7 + stream.serialized_len());
        assert_eq!(buf[..7], [0xEE; 7], "the caller's prefix is left alone");
        assert_eq!(buf[7..], stream.to_bytes());
    }

    #[test]
    fn corrupt_stream_is_detected_not_panicking() {
        let codes: Vec<u16> = (0..20_000).map(|i| ((i * 13) % 40) as u16).collect();
        let book = book_for(&codes, 64);
        let (stream, _) = encode_gpu(&codes, &book, &A100);

        // Truncated serialization.
        let bytes = stream.to_bytes();
        assert!(EncodedStream::from_bytes(&bytes[..10]).is_none());

        // Bit flips: either decodes to wrong symbols or errors — but
        // must never panic.
        let mut corrupted = stream.clone();
        for b in corrupted.bits.iter_mut().take(50) {
            *b ^= 0xA5;
        }
        let _ = decode_gpu(&corrupted, &book, &A100);

        // Offsets out of range must error.
        let mut bad = stream.clone();
        bad.offsets[0] = u64::MAX;
        assert!(decode_gpu(&bad, &book, &A100).is_err());
    }

    #[test]
    fn wrong_book_errors_or_differs_gracefully() {
        let codes: Vec<u16> = (0..10_000).map(|i| (i % 32) as u16).collect();
        let book = book_for(&codes, 64);
        let other: Vec<u16> = (0..10_000).map(|i| (i % 7) as u16).collect();
        let other_book = book_for(&other, 64);
        let (stream, _) = encode_gpu(&codes, &book, &A100);
        if let Ok(d) = decode_gpu(&stream, &other_book, &A100) {
            assert_ne!(d.syms, codes)
        }
        if let Ok((decoded, _)) = decode_gpu_serial(&stream, &other_book, &A100) {
            assert_ne!(decoded, codes)
        }
    }

    #[test]
    fn encode_is_one_pass_over_the_plane() {
        let codes: Vec<u16> = (0..1 << 17).map(|i| ((i * 3) % 512) as u16).collect();
        let book = book_for(&codes, 1024);
        let (stream, stats) = encode_gpu(&codes, &book, &A100);
        assert_eq!(stats.len(), 1);
        // The one launch reads the code plane once, one block per chunk.
        assert_eq!(stats[0].load_bytes, (codes.len() * 2) as u64);
        assert_eq!(stats[0].blocks, stream.offsets.len() as u64);
    }

    /// The encoder's output contract, one bit at a time:
    /// every chunk starts on a byte boundary at the sum of the earlier
    /// chunks' bytes, its last byte is zero-padded, and each of its
    /// sectors records the offset of the first codeword starting in it.
    fn reference_encode(codes: &[u16], book: &Codebook) -> EncodedStream {
        let (mut offsets, mut gaps, mut bits) = (Vec::new(), Vec::new(), Vec::new());
        for chunk in codes.chunks(ENC_CHUNK) {
            offsets.push(bits.len() as u64);
            let mut chunk_bits: Vec<bool> = Vec::new();
            let mut chunk_gaps: Vec<u8> = Vec::new();
            for &c in chunk {
                let pos = chunk_bits.len() as u64;
                if pos >= chunk_gaps.len() as u64 * SECTOR_BITS {
                    chunk_gaps.push((pos - chunk_gaps.len() as u64 * SECTOR_BITS) as u8);
                }
                let (code, len) = book.code_of(c);
                chunk_bits.extend((0..len).rev().map(|i| code >> i & 1 == 1));
            }
            let nbytes = chunk_bits.len().div_ceil(8);
            chunk_gaps.resize(nbytes.div_ceil(GAP_SECTOR_BYTES), GAP_NONE);
            gaps.extend(chunk_gaps);
            for byte in chunk_bits.chunks(8) {
                bits.push(byte.iter().enumerate().fold(0u8, |b, (i, &on)| b | (on as u8) << (7 - i)));
            }
        }
        EncodedStream { n: codes.len() as u64, chunk_size: ENC_CHUNK as u32, offsets, gaps, bits }
    }

    /// `encode_gpu` equals the reference, offsets and gaps included, and
    /// the stream decodes back to the plane.
    fn assert_matches_reference(codes: &[u16], book: &Codebook) {
        let (stream, _) = encode_gpu(codes, book, &A100);
        assert_eq!(stream, reference_encode(codes, book));
        assert_eq!(decode_gpu(&stream, book, &A100).unwrap().syms, codes);
    }

    #[test]
    fn encoder_matches_the_bit_at_a_time_reference() {
        // A skewed random plane over several chunks, its length not a
        // multiple of the chunk.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let codes: Vec<u16> = (0..3 * ENC_CHUNK + 1234)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Centred on 512, thinning towards ±30.
                let r = (x >> 33) as i32;
                (512 + (r % 61 - 30) / (1 + (r >> 8) % 8)) as u16
            })
            .collect();
        assert_ne!(codes.len() % ENC_CHUNK, 0);
        assert_matches_reference(&codes, &book_for(&codes, 1024));
        // One symbol: a one-bit code, short and multi-chunk planes.
        for n in [1, 7, ENC_CHUNK, 2 * ENC_CHUNK + 5] {
            let single = vec![300u16; n];
            assert_matches_reference(&single, &book_for(&single, 1024));
        }
        assert_matches_reference(&[], &book_for(&[1], 4));
    }

    #[test]
    fn encoder_matches_the_reference_on_codes_past_32_bits() {
        // Lengths 1, 2, …, 63, 63: a complete prefix code whose longest
        // codes need the split put at every accumulator fill level.
        let mut lengths: Vec<u8> = (1..=63).collect();
        lengths.push(63);
        let book = Codebook::from_lengths(lengths).unwrap();
        assert_eq!(book.max_len(), 63);
        let codes: Vec<u16> =
            (0..2 * ENC_CHUNK + 999).map(|i| ((i * 7 + i / 3) % 64) as u16).collect();
        assert_matches_reference(&codes, &book);
        let mixed: Vec<u16> = (0..5000).map(|i| if i % 5 == 0 { 63 } else { (i % 3) as u16 }).collect();
        assert_matches_reference(&mixed, &book);
    }

    /// The decoder's contract, one codeword at a time: each chunk's
    /// symbols by canonical walks over a bit-at-a-time window, with no
    /// table. `None` when a codeword does not resolve within its chunk.
    fn reference_decode(stream: &EncodedStream, book: &Codebook) -> Option<Vec<u16>> {
        let mut out = Vec::with_capacity(stream.n as usize);
        for (c, &start) in stream.offsets.iter().enumerate() {
            let end = stream.offsets.get(c + 1).map_or(stream.bits.len(), |&o| o as usize);
            let bytes = &stream.bits[start as usize..end];
            let bit = |b: u64| {
                bytes.get((b / 8) as usize).map_or(0, |&x| (x >> (7 - b % 8) & 1) as u64)
            };
            let syms = (stream.n as usize - out.len()).min(stream.chunk_size as usize);
            let mut pos = 0u64;
            for _ in 0..syms {
                let window = (0..64).fold(0u64, |w, i| w << 1 | bit(pos + i));
                let (sym, len) = book.decode_one(window)?;
                pos += len as u64;
                if pos > bytes.len() as u64 * 8 {
                    return None;
                }
                out.push(sym);
            }
        }
        Some(out)
    }

    /// Both decoders and the reference give back the plane.
    fn assert_decoders_agree(codes: &[u16], book: &Codebook) {
        let (stream, _) = encode_gpu(codes, book, &A100);
        let reference = reference_decode(&stream, book).expect("reference decode");
        assert_eq!(reference, codes, "reference");
        assert_eq!(decode_gpu_serial(&stream, book, &A100).unwrap().0, reference, "serial");
        assert_eq!(decode_gpu(&stream, book, &A100).unwrap().syms, reference, "gap");
    }

    /// A random complete prefix code of `leaves` codes (1-bit for one
    /// leaf): split leaves of the code tree, half the time the newest so
    /// chains of long codes grow, never past 63 bits. Absent symbols are
    /// scattered through the alphabet.
    fn random_book(rng: &mut u64, leaves: usize) -> Codebook {
        let mut next = || {
            *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *rng >> 33
        };
        let mut depths = vec![if leaves == 1 { 1u8 } else { 0 }];
        while depths.len() < leaves {
            let newest = depths.len() - 1;
            let i = if next() % 2 == 0 && depths[newest] < 63 {
                newest
            } else {
                next() as usize % depths.len()
            };
            if depths[i] < 63 {
                depths[i] += 1;
                depths.push(depths[i]);
            }
        }
        let mut lengths = Vec::new();
        for d in depths {
            if next() % 8 == 0 {
                lengths.push(0);
            }
            lengths.push(d);
        }
        Codebook::from_lengths(lengths).unwrap()
    }

    /// `n` symbols of `book`, each with probability 2^-length: the
    /// codeword a run of random bits starts with.
    fn plane_for(rng: &mut u64, book: &Codebook, n: usize) -> Vec<u16> {
        (0..n)
            .map(|_| {
                *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let bits = *rng ^ rng.rotate_left(29).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                book.decode_one(bits).or_else(|| book.decode_one(0)).unwrap().0
            })
            .collect()
    }

    #[test]
    fn decoders_agree_on_an_alphabet_past_4096_symbols() {
        // The histogram ceiling's alphabet; the short codes go to symbols
        // above 4096, which a table entry can only start with.
        let mut counts = vec![0u32; 41_984];
        for (s, c) in [(41_983, 9000), (20_000, 8000), (4096, 7000), (30_000, 3000)] {
            counts[s] = c;
        }
        for (c, s) in counts[100..160].iter_mut().zip(100u32..) {
            *c = 50 + s;
        }
        let book = Codebook::from_histogram(&counts).unwrap();
        assert!(book.len_of(41_983) <= 3 && book.len_of(20_000) <= 3);
        let mut rng = 7u64;
        let codes = plane_for(&mut rng, &book, 2 * ENC_CHUNK + 777);
        assert!(codes.iter().any(|&c| c >= 4096) && codes.iter().any(|&c| c < 4096));
        assert_decoders_agree(&codes, &book);
    }

    #[test]
    fn decoders_agree_when_the_plane_ends_inside_a_table_entry() {
        // Codes of 1 to 6 bits: a probe holds two to four of them, so a
        // chunk's symbol budget runs out partway into an entry.
        let book = Codebook::from_lengths(vec![1, 2, 3, 4, 5, 6, 6]).unwrap();
        let mut rng = 11u64;
        for k in 0..=4 {
            let codes = plane_for(&mut rng, &book, 3 * ENC_CHUNK + k);
            assert_decoders_agree(&codes, &book);
        }
    }

    /// Drop the last byte of chunk `c`, shifting the chunks after it and
    /// dropping the gap byte of a sector that no longer exists.
    fn truncate_chunk(stream: &EncodedStream, c: usize) -> EncodedStream {
        let mut bad = stream.clone();
        let end = stream.offsets.get(c + 1).map_or(stream.bits.len(), |&o| o as usize);
        let len = end - stream.offsets[c] as usize;
        bad.bits.remove(end - 1);
        for o in &mut bad.offsets[c + 1..] {
            *o -= 1;
        }
        if (len - 1).div_ceil(GAP_SECTOR_BYTES) < len.div_ceil(GAP_SECTOR_BYTES) {
            let sectors_through_c: usize = (0..=c)
                .map(|i| {
                    let e = stream.offsets.get(i + 1).map_or(stream.bits.len(), |&o| o as usize);
                    (e - stream.offsets[i] as usize).div_ceil(GAP_SECTOR_BYTES)
                })
                .sum();
            bad.gaps.remove(sectors_through_c - 1);
        }
        bad
    }

    #[test]
    fn a_chunk_short_one_byte_is_an_underrun_at_that_chunk() {
        // Short codes packed four to a probe, and a flatter book.
        let mut rng = 3u64;
        let short = Codebook::from_lengths(vec![1, 2, 3, 4, 5, 6, 6]).unwrap();
        let packed = plane_for(&mut rng, &short, 4 * ENC_CHUNK - 5);
        let flat: Vec<u16> =
            (0..4 * ENC_CHUNK - 99).map(|i| ((i * 31 + i / 7) % 600) as u16).collect();
        let flat_book = book_for(&flat, 1024);
        for (codes, book) in [(packed, short), (flat, flat_book)] {
            let (stream, _) = encode_gpu(&codes, &book, &A100);
            for c in 0..stream.offsets.len() {
                let bad = truncate_chunk(&stream, c);
                let se = decode_gpu_serial(&bad, &book, &A100).unwrap_err();
                assert_eq!((se.msg, se.chunk), ("bitstream underrun", Some(c as u64)), "serial");
                let ge = decode_gpu(&bad, &book, &A100).unwrap_err();
                assert_eq!((ge.msg, ge.chunk), ("bitstream underrun", Some(c as u64)), "gap");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_decoders_agree_on_random_length_books(
            seed in proptest::prelude::any::<u64>(),
            leaves in 1usize..300,
            n in 1usize..2 * ENC_CHUNK + 100,
        ) {
            let mut rng = seed;
            let book = random_book(&mut rng, leaves);
            let codes = plane_for(&mut rng, &book, n);
            assert_decoders_agree(&codes, &book);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_encoder_matches_the_reference(
            codes in proptest::collection::vec(0u16..40, 0..3 * ENC_CHUNK)
        ) {
            if !codes.is_empty() {
                assert_matches_reference(&codes, &book_for(&codes, 64));
            }
        }
    }
}
