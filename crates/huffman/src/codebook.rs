//! Canonical Huffman codebook construction (CPU side, § VI-A).

use std::collections::BinaryHeap;

/// Errors from codebook construction or deserialisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodebookError {
    /// Histogram has no non-zero bins.
    EmptyHistogram,
    /// A code length exceeded the 63-bit packing limit (only possible
    /// with astronomically skewed > 2^63-element inputs).
    CodeTooLong,
    /// Serialized codebook is malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodebookError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodebookError::EmptyHistogram => write!(f, "histogram has no symbols"),
            CodebookError::CodeTooLong => write!(f, "Huffman code exceeds 63 bits"),
            CodebookError::Corrupt(m) => write!(f, "corrupt codebook: {m}"),
        }
    }
}

impl std::error::Error for CodebookError {}

/// A canonical Huffman codebook over a `u16` alphabet.
///
/// Canonical form means the codebook is fully determined by the code
/// *lengths*, so only one byte per symbol is serialised — the same
/// compact representation cuSZ ships to the decoder.
#[derive(Clone, Debug, PartialEq)]
pub struct Codebook {
    lengths: Vec<u8>,
    codes: Vec<u64>,
    max_len: u8,
    /// first_code[l] = canonical code value of the first length-l symbol.
    first_code: Vec<u64>,
    /// first_index[l] = index into `sorted_symbols` of that symbol.
    first_index: Vec<u32>,
    /// Symbols sorted by (length, symbol) — the canonical order.
    sorted_symbols: Vec<u16>,
}

impl Codebook {
    /// Build from a histogram (one count per symbol).
    pub fn from_histogram(counts: &[u32]) -> Result<Codebook, CodebookError> {
        let live: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
        if live.is_empty() {
            return Err(CodebookError::EmptyHistogram);
        }
        let mut lengths = vec![0u8; counts.len()];
        if live.len() == 1 {
            // Degenerate single-symbol alphabet: emit 1 bit per symbol.
            lengths[live[0]] = 1;
        } else {
            build_lengths(counts, &live, &mut lengths)?;
        }
        Self::from_lengths(lengths)
    }

    /// Rebuild a codebook from canonical code lengths.
    pub fn from_lengths(lengths: Vec<u8>) -> Result<Codebook, CodebookError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Err(CodebookError::EmptyHistogram);
        }
        if max_len > 63 {
            return Err(CodebookError::CodeTooLong);
        }
        // Kraft check: sum of 2^(max-len) over live symbols must not
        // exceed 2^max (otherwise the lengths are not a prefix code).
        let kraft: u128 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u128 << (max_len - l))
            .sum();
        if kraft > 1u128 << max_len {
            return Err(CodebookError::Corrupt("Kraft inequality violated"));
        }

        let mut sorted_symbols: Vec<u16> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).map(|s| s as u16).collect();
        sorted_symbols.sort_by_key(|&s| (lengths[s as usize], s));

        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0u32; max_len as usize + 2];
        let mut len_count = vec![0u32; max_len as usize + 1];
        for &l in lengths.iter().filter(|&&l| l > 0) {
            len_count[l as usize] += 1;
        }
        let mut code = 0u64;
        let mut index = 0u32;
        for l in 1..=max_len as usize {
            first_code[l] = code;
            first_index[l] = index;
            code = (code + len_count[l] as u64) << 1;
            index += len_count[l];
        }
        first_code[max_len as usize + 1] = u64::MAX; // sentinel
        first_index[max_len as usize + 1] = index;

        let mut codes = vec![0u64; lengths.len()];
        {
            let mut next = first_code.clone();
            for &s in &sorted_symbols {
                let l = lengths[s as usize] as usize;
                codes[s as usize] = next[l];
                next[l] += 1;
            }
        }
        Ok(Codebook { lengths, codes, max_len, first_code, first_index, sorted_symbols })
    }

    /// The alphabet size the book was built over.
    pub fn alphabet(&self) -> usize {
        self.lengths.len()
    }

    /// The longest code length in bits.
    pub fn max_len(&self) -> u8 {
        self.max_len
    }

    /// Code length of a symbol in bits (0 = symbol absent).
    #[inline]
    pub fn len_of(&self, sym: u16) -> u8 {
        self.lengths[sym as usize]
    }

    /// `(code, length)` of a symbol; length 0 means the symbol never
    /// occurred in the histogram the book was built from.
    #[inline]
    pub fn code_of(&self, sym: u16) -> (u64, u8) {
        (self.codes[sym as usize], self.lengths[sym as usize])
    }

    /// Mean code length in bits under a histogram (the predicted
    /// Huffman-stage bit rate).
    pub fn expected_bits(&self, counts: &[u32]) -> f64 {
        let mut bits = 0u64;
        let mut n = 0u64;
        for (s, &c) in counts.iter().enumerate() {
            bits += c as u64 * self.lengths[s] as u64;
            n += c as u64;
        }
        if n == 0 {
            0.0
        } else {
            bits as f64 / n as f64
        }
    }

    /// Canonical decode of the codeword at the top of `window` (the next
    /// 64 stream bits MSB-first, zero-padded past the end of stream):
    /// one `first_code` compare per length. The complete decoder — the
    /// hot loop only lands here after a [`DecodeTable`] miss.
    /// Returns `(symbol, length)` or `None` if no code matches (corrupt
    /// stream).
    #[inline]
    pub fn decode_one(&self, window: u64) -> Option<(u16, u8)> {
        for l in 1..=self.max_len as usize {
            let code = window >> (64 - l);
            let count_at_l = (self.first_index[l + 1] - self.first_index[l]) as u64;
            let off = code.wrapping_sub(self.first_code[l]);
            if code >= self.first_code[l] && off < count_at_l {
                let sym = self.sorted_symbols[self.first_index[l] as usize + off as usize];
                return Some((sym, l as u8));
            }
        }
        None
    }

    /// Serialize: `u32` alphabet size + one length byte per symbol.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.lengths.len());
        out.extend_from_slice(&(self.lengths.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.lengths);
        out
    }

    /// Inverse of [`Codebook::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Codebook, CodebookError> {
        if data.len() < 4 {
            return Err(CodebookError::Corrupt("truncated header"));
        }
        let n = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        if data.len() != 4 + n {
            return Err(CodebookError::Corrupt("length mismatch"));
        }
        Self::from_lengths(data[4..].to_vec())
    }
}

/// Prefix width of the [`DecodeTable`] (4096 entries, 32 KiB).
pub const LUT_BITS: u8 = 12;
const LUT_MASK: usize = (1 << LUT_BITS) - 1;

/// Codewords one [`DecodeTable`] entry holds at most.
pub const PROBE_SYMS: usize = 4;

// Entry layout, low bits first: bits consumed (4), first codeword's
// length (4), codeword count (3), first symbol (16), then three 12-bit
// symbols. Only the first slot holds a whole `u16`, so a symbol of 4096
// or more ends an entry it does not start. All-zero is a miss.
const LEN_SHIFT: u32 = 4;
const COUNT_SHIFT: u32 = 8;
const SYM_SHIFT: u32 = 11;
const TAIL_BITS: u32 = 12;

/// The decode table: for every [`LUT_BITS`]-bit prefix, the whole
/// codewords it holds — up to [`PROBE_SYMS`] of them, each ending within
/// the prefix — as one [`Probe`]. Built by the decoders from the book
/// (compress never needs it); a prefix whose first codeword is longer
/// than [`LUT_BITS`] is a miss, resolved by [`Codebook::decode_one`].
pub struct DecodeTable {
    entries: Box<[u64; 1 << LUT_BITS]>,
}

impl DecodeTable {
    /// Build the table for `book`.
    pub fn new(book: &Codebook) -> DecodeTable {
        let mut entries: Box<[u64; 1 << LUT_BITS]> =
            vec![0u64; 1 << LUT_BITS].into_boxed_slice().try_into().expect("table length");
        // Every code of at most LUT_BITS bits heads the prefixes that
        // start with it.
        for (sym, (&len, &code)) in book.lengths.iter().zip(&book.codes).enumerate() {
            if len == 0 || len > LUT_BITS {
                continue;
            }
            let shift = LUT_BITS - len;
            let base = (code << shift) as usize;
            let len = len as u64;
            let head = (sym as u64) << SYM_SHIFT | 1 << COUNT_SHIFT | len << LEN_SHIFT | len;
            entries[base..base + (1 << shift)].fill(head);
        }
        // Append the codewords that follow while they end inside the
        // prefix. The rest of prefix `p` past `used` bits, zero-padded,
        // is itself a prefix whose head codeword is the next one if it
        // fits in the bits `p` really has.
        for p in 0..entries.len() {
            let mut e = entries[p];
            if e == 0 {
                continue;
            }
            for slot in 1..PROBE_SYMS as u32 {
                let used = (e & 0xF) as u32;
                let next = Probe(entries[(p << used) & LUT_MASK]);
                let Some((sym, len)) = next.first() else { break };
                if used + len as u32 > LUT_BITS as u32 || sym >> TAIL_BITS != 0 {
                    break;
                }
                let at = SYM_SHIFT + 16 + (slot - 1) * TAIL_BITS;
                e += len as u64 + (1 << COUNT_SHIFT) + ((sym as u64) << at);
            }
            entries[p] = e;
        }
        DecodeTable { entries }
    }

    /// The entry for `prefix`, the next [`LUT_BITS`] stream bits
    /// MSB-first (higher bits are ignored).
    #[inline]
    pub fn probe(&self, prefix: u64) -> Probe {
        Probe(self.entries[prefix as usize & LUT_MASK])
    }
}

/// One [`DecodeTable`] entry: the whole codewords at the head of a
/// prefix, in stream order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe(u64);

impl Probe {
    /// Codewords held (0 on a miss, at most [`PROBE_SYMS`]).
    #[inline]
    pub fn count(self) -> usize {
        (self.0 >> COUNT_SHIFT & 0x7) as usize
    }

    /// Bits the held codewords take together (0 on a miss, at most
    /// [`LUT_BITS`]).
    #[inline]
    pub fn bits(self) -> u32 {
        (self.0 & 0xF) as u32
    }

    /// `(symbol, length)` of the first codeword, or `None` on a miss.
    #[inline]
    pub fn first(self) -> Option<(u16, u8)> {
        let len = (self.0 >> LEN_SHIFT & 0xF) as u8;
        (len > 0).then_some(((self.0 >> SYM_SHIFT) as u16, len))
    }

    /// The held symbols in order; slots past [`Probe::count`] are 0.
    #[inline]
    pub fn syms(self) -> [u16; PROBE_SYMS] {
        let tail = |slot: u32| (self.0 >> (SYM_SHIFT + 16 + slot * TAIL_BITS)) as u16 & 0xFFF;
        [(self.0 >> SYM_SHIFT) as u16, tail(0), tail(1), tail(2)]
    }
}

/// Standard heap-based Huffman length assignment.
fn build_lengths(counts: &[u32], live: &[usize], lengths: &mut [u8]) -> Result<(), CodebookError> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap by (weight, id): the id tiebreak makes the tree —
            // and therefore the archive — deterministic.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    // Tree nodes: leaves are 0..live.len(), internals appended after.
    let mut parent: Vec<usize> = vec![usize::MAX; live.len()];
    let mut heap: BinaryHeap<Node> = live
        .iter()
        .enumerate()
        .map(|(i, &s)| Node { weight: counts[s] as u64, id: i })
        .collect();
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        let id = parent.len();
        parent.push(usize::MAX);
        parent[a.id] = id;
        parent[b.id] = id;
        heap.push(Node { weight: a.weight + b.weight, id });
    }
    for (i, &s) in live.iter().enumerate() {
        let mut depth = 0u32;
        let mut n = i;
        while parent[n] != usize::MAX {
            n = parent[n];
            depth += 1;
        }
        if depth > 63 {
            return Err(CodebookError::CodeTooLong);
        }
        lengths[s] = depth as u8;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_free_property() {
        let counts: Vec<u32> = (0..64).map(|i| 1 + (i * i) as u32).collect();
        let cb = Codebook::from_histogram(&counts).unwrap();
        for a in 0..64u16 {
            for b in 0..64u16 {
                if a == b {
                    continue;
                }
                let (ca, la) = cb.code_of(a);
                let (cb2, lb) = cb.code_of(b);
                if la == 0 || lb == 0 || la > lb {
                    continue;
                }
                assert_ne!(ca, cb2 >> (lb - la), "code of {a} prefixes {b}");
            }
        }
    }

    #[test]
    fn skewed_histogram_gives_short_code_to_frequent_symbol() {
        let mut counts = vec![1u32; 16];
        counts[7] = 1_000_000;
        let cb = Codebook::from_histogram(&counts).unwrap();
        assert_eq!(cb.len_of(7), 1);
        assert!(cb.expected_bits(&counts) < 1.1);
    }

    #[test]
    fn uniform_histogram_near_log2() {
        let counts = vec![10u32; 256];
        let cb = Codebook::from_histogram(&counts).unwrap();
        assert_eq!(cb.expected_bits(&counts), 8.0);
    }

    #[test]
    fn absent_symbols_get_zero_length() {
        let counts = vec![0, 5, 0, 7];
        let cb = Codebook::from_histogram(&counts).unwrap();
        assert_eq!(cb.len_of(0), 0);
        assert_eq!(cb.len_of(2), 0);
        assert!(cb.len_of(1) > 0);
    }

    #[test]
    fn single_symbol_alphabet() {
        let counts = vec![0, 0, 42, 0];
        let cb = Codebook::from_histogram(&counts).unwrap();
        assert_eq!(cb.len_of(2), 1);
        assert_eq!(cb.code_of(2), (0, 1));
    }

    #[test]
    fn empty_histogram_is_an_error() {
        assert_eq!(Codebook::from_histogram(&[0, 0]), Err(CodebookError::EmptyHistogram));
    }

    #[test]
    fn serialization_roundtrip() {
        let counts: Vec<u32> = (0..1024).map(|i| ((i * 31) % 97) as u32).collect();
        let cb = Codebook::from_histogram(&counts).unwrap();
        let back = Codebook::from_bytes(&cb.to_bytes()).unwrap();
        assert_eq!(cb, back);
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(Codebook::from_bytes(&[1, 2]).is_err());
        // Valid header but invalid Kraft: three symbols of length 1.
        let mut bad = 3u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&[1, 1, 1]);
        assert_eq!(Codebook::from_bytes(&bad), Err(CodebookError::Corrupt("Kraft inequality violated")));
    }

    #[test]
    fn decode_one_inverts_code_of() {
        let counts: Vec<u32> = (0..100).map(|i| 1 + i as u32 * 3).collect();
        let cb = Codebook::from_histogram(&counts).unwrap();
        for s in 0..100u16 {
            let (code, len) = cb.code_of(s);
            // The code at the top of the window; ones below it must not
            // change the match (prefix-free).
            let window = code << (64 - len);
            assert_eq!(cb.decode_one(window), Some((s, len)));
            assert_eq!(cb.decode_one(window | (u64::MAX >> len)), Some((s, len)));
        }
    }

    #[test]
    fn canonical_codes_are_ordered_within_length() {
        let counts: Vec<u32> = vec![8, 8, 4, 4, 2, 2, 1, 1];
        let cb = Codebook::from_histogram(&counts).unwrap();
        for w in 0..7u16 {
            let (ca, la) = cb.code_of(w);
            let (cb2, lb) = cb.code_of(w + 1);
            if la == lb {
                assert!(ca < cb2);
            }
        }
    }

    #[test]
    fn deterministic_construction() {
        let counts: Vec<u32> = (0..512).map(|i| ((i * 7919) % 1000) as u32).collect();
        let a = Codebook::from_histogram(&counts).unwrap();
        let b = Codebook::from_histogram(&counts).unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;

    #[test]
    fn table_agrees_with_canonical_walk_for_every_symbol() {
        // A skewed histogram that produces both short (<= LUT_BITS) and
        // long (> LUT_BITS) codes.
        let counts: Vec<u32> = (0..4000u32).map(|i| 1 + (i < 4) as u32 * 1_000_000).collect();
        let cb = Codebook::from_histogram(&counts).unwrap();
        assert!(cb.max_len() > LUT_BITS, "need long codes for the fallback path");
        let table = DecodeTable::new(&cb);
        for s in 0..4000u16 {
            let (code, len) = cb.code_of(s);
            if len == 0 {
                continue;
            }
            // Build the padded table prefix for this code.
            let prefix = if len <= LUT_BITS {
                code << (LUT_BITS - len)
            } else {
                code >> (len - LUT_BITS)
            };
            match table.probe(prefix).first() {
                Some((sym, l)) => {
                    assert!(len <= LUT_BITS, "long code {s} must miss the table");
                    assert_eq!((sym, l), (s, len));
                }
                None => assert!(len > LUT_BITS, "short code {s} must hit the table"),
            }
        }
    }

    #[test]
    fn table_padding_bits_do_not_change_the_first_match() {
        let counts = vec![100u32, 50, 25, 10];
        let cb = Codebook::from_histogram(&counts).unwrap();
        let table = DecodeTable::new(&cb);
        let (code, len) = cb.code_of(0);
        assert!(len <= LUT_BITS);
        let base = code << (LUT_BITS - len);
        for garbage in 0..(1u64 << (LUT_BITS - len)) {
            assert_eq!(table.probe(base | garbage).first(), Some((0, len)));
        }
    }

    /// The entry every prefix should have: successive canonical decodes
    /// of the zero-padded prefix, as long as each codeword ends within it
    /// and each after the first fits a 12-bit slot.
    fn expected(cb: &Codebook, prefix: u64) -> Vec<(u16, u8)> {
        let mut got = Vec::new();
        let mut used = 0u32;
        while got.len() < PROBE_SYMS {
            let window = prefix << (64 - LUT_BITS as u32) << used;
            let Some((sym, len)) = cb.decode_one(window) else { break };
            if used + len as u32 > LUT_BITS as u32 || (!got.is_empty() && sym >= 1 << 12) {
                break;
            }
            got.push((sym, len));
            used += len as u32;
        }
        got
    }

    /// Check all 4096 entries of `cb`'s table; returns how many hit.
    fn check_every_entry(cb: &Codebook) -> usize {
        let table = DecodeTable::new(cb);
        let mut hits = 0;
        for prefix in 0..1u64 << LUT_BITS {
            let probe = table.probe(prefix);
            let want = expected(cb, prefix);
            assert_eq!(probe.count(), want.len(), "prefix {prefix:#05x}");
            let bits: u32 = want.iter().map(|&(_, l)| l as u32).sum();
            assert_eq!(probe.bits(), bits, "prefix {prefix:#05x}");
            assert!(probe.bits() <= LUT_BITS as u32, "prefix {prefix:#05x} claims past bit 12");
            assert_eq!(probe.first(), want.first().copied(), "prefix {prefix:#05x}");
            let syms: Vec<u16> = want.iter().map(|&(s, _)| s).collect();
            assert_eq!(probe.syms()[..want.len()], syms[..], "prefix {prefix:#05x}");
            hits += (probe.count() > 0) as usize;
        }
        hits
    }

    #[test]
    fn every_entry_equals_successive_canonical_decodes() {
        // Short and long codes together: the prefixes the long codes
        // head miss, the rest hit.
        let counts: Vec<u32> = (0..4000u32).map(|i| 1 + (i < 4) as u32 * 1_000_000).collect();
        let hits = check_every_entry(&Codebook::from_histogram(&counts).unwrap());
        assert!(hits > 0 && hits < 1 << LUT_BITS, "{hits}");
        // A centralised G-Interp-like histogram.
        let counts: Vec<u32> =
            (0..1024u32).map(|i| 1 + (1 << 20) / (1 + i.abs_diff(512).pow(2))).collect();
        assert!(check_every_entry(&Codebook::from_histogram(&counts).unwrap()) > 0);
        // Lengths 1..=63: codes of every length, a complete book. Only
        // the all-ones prefix starts with a code past 12 bits.
        let mut lengths: Vec<u8> = (1..=63).collect();
        lengths.push(63);
        let book = Codebook::from_lengths(lengths).unwrap();
        assert_eq!(check_every_entry(&book), (1 << LUT_BITS) - 1);
    }

    #[test]
    fn single_symbol_book_packs_four_codewords_per_entry() {
        let mut counts = vec![0u32; 16];
        counts[9] = 5;
        let cb = Codebook::from_histogram(&counts).unwrap();
        // The one-bit code 0 heads half the prefixes; the other half miss.
        assert_eq!(check_every_entry(&cb), 1 << (LUT_BITS - 1));
        let probe = DecodeTable::new(&cb).probe(0);
        assert_eq!((probe.count(), probe.bits(), probe.syms()), (4, 4, [9; 4]));
    }

    #[test]
    fn book_of_only_long_codes_misses_every_entry() {
        // An incomplete book whose shortest code is 13 bits.
        let cb = Codebook::from_lengths(vec![13, 14, 15, 15]).unwrap();
        assert_eq!(check_every_entry(&cb), 0);
        assert_eq!(DecodeTable::new(&cb).probe(0).first(), None);
    }

    #[test]
    fn symbols_past_twelve_bits_are_kept_whole() {
        // The histogram ceiling's alphabet, the short codes on symbols
        // above 4096: each such symbol can only head an entry.
        let mut counts = vec![0u32; 41_984];
        for (s, c) in [(41_983, 1000), (20_000, 900), (4096, 800), (7, 700), (1, 10), (30_000, 5)] {
            counts[s] = c;
        }
        let cb = Codebook::from_histogram(&counts).unwrap();
        assert_eq!(check_every_entry(&cb), 1 << LUT_BITS);
        let table = DecodeTable::new(&cb);
        let (code, len) = cb.code_of(41_983);
        let probe = table.probe(code << (LUT_BITS - len));
        assert_eq!(probe.first(), Some((41_983, len)));
        // Padding zeros decode to whatever heads them — but never a
        // truncated high symbol in a later slot.
        assert!(probe.syms()[1..probe.count()].iter().all(|&s| s < 1 << 12));
    }
}
