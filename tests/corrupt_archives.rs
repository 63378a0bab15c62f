//! Corruption robustness for every container format in `cuszi-core`:
//! truncating a real archive at any point must yield a typed error
//! (never a panic, never a silent `Ok`), and flipping payload bits must
//! never panic. Complements `adversarial.rs`, which feeds random bytes
//! and header mutations; here the corruption starts from *valid*
//! archives, so the deep payload parsers (sections, codebook, Huffman
//! stream, slab table) all get exercised past the header checks.

use cuszi_repro::core::archive::{Header, HEADER_LEN};
use cuszi_repro::core::{
    compress_fields_streams, compress_slabs_streams, decompress_fields_streams,
    decompress_slabs_streams, default_streams, Config, CuszError, CuszI, NamedField,
};
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::{NdArray, Shape};
use proptest::prelude::*;

fn field() -> NdArray<f32> {
    NdArray::from_fn(Shape::d3(12, 10, 10), |z, y, x| {
        ((x as f32) * 0.2).sin() + ((y as f32) * 0.15).cos() + (z as f32) * 0.05 + 0.5
    })
}

/// A format's decompressor, reduced to "did it return Ok".
type DecompressOk = Box<dyn Fn(&[u8]) -> bool>;

/// One valid archive per format: (label, bytes, decompress-callable).
fn archives() -> Vec<(&'static str, Vec<u8>, DecompressOk)> {
    let data = field();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let plain_cfg = cfg.without_bitcomp();
    let cszi = CuszI::new(cfg).compress(&data).unwrap().bytes;
    let cszi_plain = CuszI::new(plain_cfg).compress(&data).unwrap().bytes;
    let named = [NamedField { name: "f0", data: &data }, NamedField { name: "f1", data: &data }];
    let cszm = compress_fields_streams(&named, cfg, default_streams()).unwrap().0.bytes;
    let shape = data.shape();
    let cszs = compress_slabs_streams(shape, 4, cfg, default_streams(), |z0, nz| {
        let [_, ny, nx] = shape.dims3();
        NdArray::from_fn(Shape::d3(nz, ny, nx), |z, y, x| data.get3(z0 + z, y, x))
    })
    .unwrap()
    .0;
    vec![
        ("CSZI", cszi, Box::new(move |b: &[u8]| CuszI::new(cfg).decompress(b).is_ok()) as _),
        (
            "CSZI-plain",
            cszi_plain,
            Box::new(move |b: &[u8]| CuszI::new(plain_cfg).decompress(b).is_ok()) as _,
        ),
        (
            "CSZM",
            cszm,
            Box::new(move |b: &[u8]| decompress_fields_streams(b, cfg, default_streams()).is_ok())
                as _,
        ),
        (
            "CSZS",
            cszs,
            Box::new(move |b: &[u8]| {
                decompress_slabs_streams(b, cfg, default_streams(), |_, _| {}).is_ok()
            }) as _,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any strict prefix of a valid archive must decompress to an
    /// error: every format's framing is length-checked end to end.
    #[test]
    fn prop_truncated_archives_error(cut in any::<u32>()) {
        for (label, bytes, decompress_ok) in archives() {
            let at = cut as usize % bytes.len();
            prop_assert!(
                !decompress_ok(&bytes[..at]),
                "{label}: truncation at {at}/{} decompressed Ok", bytes.len()
            );
        }
    }

    /// Bit flips anywhere in a valid archive must never panic; an
    /// error or (for undetected payload damage) wrong data are both
    /// acceptable outcomes.
    #[test]
    fn prop_bit_flips_never_panic(
        flips in proptest::collection::vec((any::<u32>(), 0u8..8), 1..16),
    ) {
        for (_label, mut bytes, decompress_ok) in archives() {
            for &(pos, bit) in &flips {
                let i = pos as usize % bytes.len();
                bytes[i] ^= 1 << bit;
            }
            let _ = decompress_ok(&bytes);
        }
    }

    /// Cutting bytes out of the Huffman section (with the header's
    /// section table updated to match, so framing still adds up) must
    /// be a typed error: the stream parser and the decoded-length
    /// check both sit past the framing layer.
    #[test]
    fn prop_truncated_huffman_section_errors(cut in 1u64..4096) {
        let data = field();
        let cfg = Config::new(ErrorBound::Rel(1e-3)).without_bitcomp();
        let c = CuszI::new(cfg).compress(&data).unwrap().bytes;
        let mut h = Header::from_bytes(&c).unwrap();
        let cut = cut.min(h.sections[2] - 1);
        let start = HEADER_LEN + (h.sections[0] + h.sections[1]) as usize;
        let end = start + h.sections[2] as usize;
        h.sections[2] -= cut;
        let mut bad = h.to_bytes();
        bad.extend_from_slice(&c[HEADER_LEN..end - cut as usize]);
        bad.extend_from_slice(&c[end..]);
        prop_assert!(
            CuszI::new(cfg).decompress(&bad).is_err(),
            "cut {cut} bytes from the huffman section, decompressed Ok"
        );
    }

    /// A crafted entry length near `u64::MAX` must surface as a typed
    /// `CorruptArchive`: the container walkers do their offset
    /// arithmetic with `checked_add` in the u64 domain, so a huge
    /// length can never wrap the cursor into a bogus in-bounds slice
    /// (or panic slicing past the end).
    #[test]
    fn prop_overflow_entry_lengths_error(delta in 0u64..4096) {
        let data = field();
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let shape = data.shape();
        let cszs = compress_slabs_streams(shape, 4, cfg, default_streams(), |z0, nz| {
            let [_, ny, nx] = shape.dims3();
            NdArray::from_fn(Shape::d3(nz, ny, nx), |z, y, x| data.get3(z0 + z, y, x))
        })
        .unwrap()
        .0;
        let named = [NamedField { name: "f0", data: &data }];
        let cszm = compress_fields_streams(&named, cfg, default_streams()).unwrap().0.bytes;
        let huge = (u64::MAX - delta).to_le_bytes();

        // CSZS: the first slab's u64 length sits right after the
        // 37-byte header.
        let mut bad = cszs.clone();
        bad[37..45].copy_from_slice(&huge);
        prop_assert!(
            matches!(
                decompress_slabs_streams(&bad, cfg, default_streams(), |_, _| {}),
                Err(CuszError::CorruptArchive(_))
            ),
            "CSZS length {} not rejected as CorruptArchive", u64::MAX - delta
        );

        // CSZM: magic(4) + count(4) + namelen(2) + "f0"(2) puts the
        // first entry's u64 archive length at byte 12.
        let mut bad = cszm.clone();
        bad[12..20].copy_from_slice(&huge);
        prop_assert!(
            matches!(
                decompress_fields_streams(&bad, cfg, default_streams()),
                Err(CuszError::CorruptArchive(_))
            ),
            "CSZM length {} not rejected as CorruptArchive", u64::MAX - delta
        );
    }

    /// Shifting bytes between the anchor and Huffman sections keeps
    /// the payload total consistent but makes the anchor count
    /// disagree with the header's shape — the geometry cross-check
    /// must reject it (a typed error, not a bad reconstruction).
    #[test]
    fn prop_inconsistent_anchor_geometry_errors(shift in 1u64..64) {
        let data = field();
        let cfg = Config::new(ErrorBound::Rel(1e-3)).without_bitcomp();
        let c = CuszI::new(cfg).compress(&data).unwrap().bytes;
        let mut h = Header::from_bytes(&c).unwrap();
        let shift = shift.min(h.sections[0] / 4 - 1) * 4;
        h.sections[0] -= shift;
        h.sections[2] += shift;
        let mut bad = h.to_bytes();
        bad.extend_from_slice(&c[HEADER_LEN..]);
        prop_assert!(
            CuszI::new(cfg).decompress(&bad).is_err(),
            "anchor section shrunk by {shift} bytes, decompressed Ok"
        );
    }

    /// Garbage appended to the Huffman bitstream (with the section
    /// table updated, so framing stays consistent) must trip the
    /// decoder's trailing-pad validation as a typed, chunk-attributed
    /// `DecodeCorrupt` — whole extra bytes past the final symbol can
    /// never be silently ignored.
    #[test]
    fn prop_trailing_huffman_garbage_errors(junk in 1u16..256) {
        let junk = junk as u8;
        let data = field();
        let cfg = Config::new(ErrorBound::Rel(1e-3)).without_bitcomp();
        let c = CuszI::new(cfg).compress(&data).unwrap().bytes;
        let mut h = Header::from_bytes(&c).unwrap();
        let huff_end = HEADER_LEN + (h.sections[0] + h.sections[1] + h.sections[2]) as usize;
        h.sections[2] += 1;
        let mut bad = h.to_bytes();
        bad.extend_from_slice(&c[HEADER_LEN..huff_end]);
        bad.push(junk);
        bad.extend_from_slice(&c[huff_end..]);
        match CuszI::new(cfg).decompress(&bad) {
            Err(e @ CuszError::DecodeCorrupt { chunk, .. }) => {
                prop_assert!(chunk.is_some(), "pad error must attribute its chunk: {e}");
                prop_assert!(e.to_string().starts_with("corrupt archive"), "{e}");
            }
            Err(other) => prop_assert!(false, "expected DecodeCorrupt, got {other}"),
            Ok(_) => prop_assert!(false, "trailing huffman garbage decompressed Ok"),
        }
    }
}

/// A 20-byte Huffman section whose head claims 2^63 one-symbol chunks
/// used to wrap the chunk-table length and abort in `Vec::with_capacity`
/// — reached from `decompress` before the stream-length-vs-shape check.
/// The parser bounds both of its counts by the bytes it was handed, so
/// the crafted section is a typed parse error.
#[test]
fn crafted_huge_chunk_count_is_a_parse_error_not_an_abort() {
    let mut crafted = Vec::new();
    crafted.extend_from_slice(&(1u64 << 63).to_le_bytes()); // n
    crafted.extend_from_slice(&1u32.to_le_bytes()); // chunk_size
    crafted.extend_from_slice(&(1u64 << 63).to_le_bytes()); // chunk count
    assert!(cuszi_repro::huffman::EncodedStream::from_bytes(&crafted).is_none());

    let cfg = Config::new(ErrorBound::Rel(1e-3)).without_bitcomp();
    let c = CuszI::new(cfg).compress(&field()).unwrap().bytes;
    let mut h = Header::from_bytes(&c).unwrap();
    let start = HEADER_LEN + (h.sections[0] + h.sections[1]) as usize;
    let end = start + h.sections[2] as usize;
    h.sections[2] = crafted.len() as u64;
    let mut bad = h.to_bytes();
    bad.extend_from_slice(&c[HEADER_LEN..start]);
    bad.extend_from_slice(&crafted);
    bad.extend_from_slice(&c[end..]);
    assert!(matches!(
        CuszI::new(cfg).decompress(&bad),
        Err(CuszError::CorruptArchive("huffman stream"))
    ));

    // The same head with a gap count no section could hold.
    let mut crafted = Vec::new();
    crafted.extend_from_slice(&0u64.to_le_bytes());
    crafted.extend_from_slice(&1u32.to_le_bytes());
    crafted.extend_from_slice(&0u64.to_le_bytes());
    crafted.extend_from_slice(&u64::MAX.to_le_bytes()); // gap count
    assert!(cuszi_repro::huffman::EncodedStream::from_bytes(&crafted).is_none());
}
