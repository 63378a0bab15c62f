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
    /// Primary decode table: for every [`LUT_BITS`]-bit prefix whose
    /// leading code is at most that long, `symbol << 8 | len`;
    /// [`LUT_MISS`] otherwise (fall back to the canonical walk).
    lut: Vec<u32>,
}

/// Width of the primary decode table (4096 entries, 16 KiB).
pub const LUT_BITS: u8 = 12;
const LUT_MISS: u32 = u32::MAX;

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
        // Primary decode table for the hot path: short codes (which
        // cover virtually all symbols on G-Interp's centralized
        // distributions) resolve in one indexed load.
        let mut lut = vec![LUT_MISS; 1usize << LUT_BITS];
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            if len == 0 || len > LUT_BITS {
                continue;
            }
            let shift = LUT_BITS - len;
            let base = (code << shift) as usize;
            let fill = (sym as u32) << 8 | len as u32;
            for e in lut[base..base + (1usize << shift)].iter_mut() {
                *e = fill;
            }
        }
        Ok(Codebook { lengths, codes, max_len, first_code, first_index, sorted_symbols, lut })
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

    /// Fast-path decode: `prefix` is the next [`LUT_BITS`] bits
    /// MSB-first (zero-padded past end of stream). Returns the symbol
    /// and its true length when a short code matches; `None` sends the
    /// caller to [`Codebook::decode_one`].
    #[inline]
    pub fn decode_lut(&self, prefix: u64) -> Option<(u16, u8)> {
        let e = self.lut[(prefix as usize) & ((1 << LUT_BITS) - 1)];
        if e == LUT_MISS {
            return None;
        }
        Some(((e >> 8) as u16, (e & 0xFF) as u8))
    }

    /// Canonical decode of the codeword at the top of `window` (the next
    /// 64 stream bits MSB-first, zero-padded past the end of stream):
    /// one `first_code` compare per length. The complete decoder — the
    /// hot loop only lands here after a [`Codebook::decode_lut`] miss.
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
mod lut_tests {
    use super::*;

    #[test]
    fn lut_agrees_with_canonical_walk_for_every_symbol() {
        // A skewed histogram that produces both short (<= LUT_BITS) and
        // long (> LUT_BITS) codes.
        let counts: Vec<u32> = (0..4000u32).map(|i| 1 + (i < 4) as u32 * 1_000_000).collect();
        let cb = Codebook::from_histogram(&counts).unwrap();
        assert!(cb.max_len() > LUT_BITS, "need long codes for the fallback path");
        for s in 0..4000u16 {
            let (code, len) = cb.code_of(s);
            if len == 0 {
                continue;
            }
            // Build the padded LUT prefix for this code.
            let prefix = if len <= LUT_BITS {
                code << (LUT_BITS - len)
            } else {
                code >> (len - LUT_BITS)
            };
            match cb.decode_lut(prefix) {
                Some((sym, l)) => {
                    assert!(len <= LUT_BITS, "long code {s} must miss the LUT");
                    assert_eq!((sym, l), (s, len));
                }
                None => assert!(len > LUT_BITS, "short code {s} must hit the LUT"),
            }
        }
    }

    #[test]
    fn lut_padding_bits_do_not_change_the_match() {
        let counts = vec![100u32, 50, 25, 10];
        let cb = Codebook::from_histogram(&counts).unwrap();
        let (code, len) = cb.code_of(0);
        assert!(len <= LUT_BITS);
        let base = code << (LUT_BITS - len);
        for garbage in 0..(1u64 << (LUT_BITS - len)) {
            assert_eq!(cb.decode_lut(base | garbage), Some((0, len)));
        }
    }
}
