//! The stored-gap-array Huffman decoder against its serial oracle: on
//! every dataset analogue at a loose and a tight bound, on the
//! degenerate streams the gap format has a special case for, and under
//! tampering with the gap array itself — which must always be a typed,
//! sector-attributed `DecodeCorrupt`, never a panic or a wrong plane.

use cuszi_repro::core::archive::{Header, HEADER_LEN};
use cuszi_repro::core::{Config, CuszError, CuszI};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::gpu_sim::{pool, A100};
use cuszi_repro::huffman::codebook::LUT_BITS;
use cuszi_repro::huffman::coding::ENC_CHUNK;
use cuszi_repro::huffman::{
    decode_gpu, decode_gpu_serial, encode_gpu, histogram_gpu, Codebook, EncodedStream, GAP_NONE,
    GAP_SECTOR_BYTES,
};
use cuszi_repro::predict::ginterp;
use cuszi_repro::predict::tuning::InterpConfig;
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::stats::ValueRange;
use cuszi_repro::tensor::{NdArray, Shape};
use proptest::prelude::*;

const SECTOR_BITS: usize = GAP_SECTOR_BYTES * 8;

fn book_for(codes: &[u16], alphabet: usize) -> Codebook {
    let (hist, _) = histogram_gpu(codes, alphabet, alphabet as u16 / 2, 0, &A100);
    Codebook::from_histogram(&hist).unwrap()
}

/// Encode, check both decoders against the input, hand the stream back.
fn roundtrip(codes: &[u16], book: &Codebook) -> EncodedStream {
    let (stream, _) = encode_gpu(codes, book, &A100);
    let (serial, _) = decode_gpu_serial(&stream, book, &A100).unwrap();
    assert_eq!(serial, codes, "serial oracle");
    let gap = decode_gpu(&stream, book, &A100).unwrap();
    assert_eq!(gap.syms, codes, "gap decode");
    assert_eq!(gap.report.sectors, stream.gaps.len() as u64);
    assert_eq!((gap.report.redecoded, gap.report.fallback_chunks), (0, 0));
    // The serialized form carries the gap array.
    assert_eq!(EncodedStream::from_bytes(&stream.to_bytes()).as_ref(), Some(&stream));
    stream
}

/// `(chunk, sector)` of each gap-array slot, from the chunk table.
fn slots(stream: &EncodedStream) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for c in 0..stream.offsets.len() {
        let end = stream.offsets.get(c + 1).map_or(stream.bits.len() as u64, |&o| o);
        let sectors = (end - stream.offsets[c]).div_ceil(GAP_SECTOR_BYTES as u64);
        out.extend((0..sectors).map(|s| (c as u64, s)));
    }
    out
}

#[test]
fn decoders_agree_with_the_input_on_every_dataset_at_both_bounds() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, Scale::Small, 42);
        let field = &ds.fields[0].data;
        let range = ValueRange::of(field.as_slice()).unwrap().range() as f64;
        let cfg = InterpConfig::untuned(3);
        for rel in [1e-3, 1e-5] {
            let gi = ginterp::compress(field, rel * range, 512, &cfg, &A100);
            let stream = roundtrip(&gi.codes, &book_for(&gi.codes, 1024));
            assert!(stream.offsets.len() > 1, "{}: want a multi-chunk plane", kind.name());
            // One byte per 256-byte sector: under half a percent.
            assert!(
                stream.gaps.len() * 200 < stream.serialized_len(),
                "{} at {rel}: {} gap bytes of {}",
                kind.name(),
                stream.gaps.len(),
                stream.serialized_len()
            );
        }
    }
}

#[test]
fn single_symbol_plane_round_trips() {
    // One-bit codes: 2048 symbols a sector, every gap 0.
    let codes = vec![512u16; 40_000];
    let stream = roundtrip(&codes, &book_for(&codes, 1024));
    assert!(stream.gaps.iter().all(|&g| g == 0), "{:?}", stream.gaps);
}

#[test]
fn codes_longer_than_the_table_round_trip_across_sector_boundaries() {
    // Four symbols take nearly all the mass, so the other 3996 get
    // codes well past LUT_BITS; the plane strings those rare symbols
    // together so long codewords straddle many sector boundaries.
    let counts: Vec<u32> = (0..4000u32).map(|i| 1 + (i < 4) as u32 * 1_000_000).collect();
    let book = Codebook::from_histogram(&counts).unwrap();
    assert!(book.max_len() > LUT_BITS);
    let codes: Vec<u16> = (0..50_000u32)
        .map(|i| if i % 3 == 0 { (i % 4) as u16 } else { (4 + (i * 7) % 3996) as u16 })
        .collect();
    assert!(codes.iter().any(|&c| book.len_of(c) > LUT_BITS));
    let stream = roundtrip(&codes, &book);
    assert!(stream.gaps.iter().any(|&g| g > LUT_BITS && g != GAP_NONE), "{:?}", stream.gaps);
    assert!(stream.gaps.iter().all(|&g| g <= 62 || g == GAP_NONE), "{:?}", stream.gaps);
}

#[test]
fn codeword_ending_exactly_on_a_sector_boundary() {
    // Eight equally likely symbols get 3-bit codes; 2048 is not a
    // multiple of 3, so the gaps cycle 0, 1, 2 and every third sector
    // starts on a codeword boundary.
    let codes: Vec<u16> = (0..30_000u32).map(|i| ((i * 5) % 8) as u16).collect();
    let book = book_for(&codes, 8);
    assert!((0..8).all(|s| book.len_of(s) == 3));
    let stream = roundtrip(&codes, &book);
    for (slot, &(_, s)) in slots(&stream).iter().enumerate() {
        assert_eq!(stream.gaps[slot] as u64, (3 - (s * SECTOR_BITS as u64) % 3) % 3, "slot {slot}");
    }
}

#[test]
fn last_codeword_spilling_into_a_sector_with_no_start() {
    // 683 three-bit codes: the last one starts at bit 2046 and ends in
    // a second sector that no codeword starts in.
    let codes: Vec<u16> = (0..683u32).map(|i| (i % 8) as u16).collect();
    let mut counts = vec![0u32; 8];
    counts.fill(1);
    let book = Codebook::from_histogram(&counts).unwrap();
    let stream = roundtrip(&codes, &book);
    assert_eq!(stream.gaps, [0, GAP_NONE]);
}

#[test]
fn last_chunk_shorter_than_one_sector() {
    let codes: Vec<u16> = (0..ENC_CHUNK as u32 + 10).map(|i| ((i * 31 + i / 7) % 600) as u16).collect();
    let stream = roundtrip(&codes, &book_for(&codes, 1024));
    assert_eq!(stream.offsets.len(), 2);
    assert!(stream.bits.len() - (stream.offsets[1] as usize) < GAP_SECTOR_BYTES);
    assert_eq!(slots(&stream).last(), Some(&(1, 0)));
}

#[test]
fn empty_plane_round_trips_without_a_launch() {
    let book = book_for(&[3], 8);
    let stream = roundtrip(&[], &book);
    assert!(stream.gaps.is_empty() && stream.offsets.is_empty());
    assert!(decode_gpu(&stream, &book, &A100).unwrap().kernels.is_empty());
}

#[test]
fn kernel_panic_message_survives_the_worker_pool() {
    // Symbol 9 has no code. The encoder's assert fires inside a kernel
    // body on a pool worker; its text must reach the caller.
    let book = book_for(&[1, 2, 3], 16);
    let codes = vec![9u16; 4 * ENC_CHUNK];
    let caught = std::panic::catch_unwind(|| {
        pool::with_threads(2, || encode_gpu(&codes, &book, &A100));
    });
    let payload = caught.expect_err("an uncoded symbol must panic");
    let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
    assert_eq!(msg, "symbol 9 has no Huffman code");
}

/// A multi-chunk stream with multi-bit codes, its plane and its book.
fn sample() -> (Vec<u16>, Codebook, EncodedStream) {
    let codes: Vec<u16> = (0..40_000u32).map(|i| ((i * 31 + i / 7) % 600) as u16).collect();
    let book = book_for(&codes, 1024);
    let (stream, _) = encode_gpu(&codes, &book, &A100);
    (codes, book, stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any one wrong gap byte is caught at its own chunk and sector: the
    /// sector before it exits where the true chain goes, and that is no
    /// longer where the byte says the next codeword starts.
    #[test]
    fn prop_tampered_gap_byte_is_decode_corrupt_at_its_sector(
        pick in any::<u32>(),
        value in any::<u8>(),
    ) {
        let (codes, book, stream) = sample();
        let slot = pick as usize % stream.gaps.len();
        prop_assume!(stream.gaps[slot] != value);
        let mut bad = stream.clone();
        bad.gaps[slot] = value;
        let e = decode_gpu(&bad, &book, &A100).expect_err("a tampered gap byte decoded Ok");
        prop_assert_eq!((e.chunk, e.sector), {
            let (c, s) = slots(&stream)[slot];
            (Some(c), Some(s))
        });
        // The oracle never reads the gap array.
        prop_assert_eq!(decode_gpu_serial(&bad, &book, &A100).unwrap().0, codes);
    }

    /// A gap table cut short is caught at the first sector left without
    /// a byte; one that is too long is rejected as well.
    #[test]
    fn prop_truncated_gap_table_is_decode_corrupt(cut in any::<u32>()) {
        let (_, book, stream) = sample();
        let keep = cut as usize % stream.gaps.len();
        let mut bad = stream.clone();
        bad.gaps.truncate(keep);
        let e = decode_gpu(&bad, &book, &A100).expect_err("a truncated gap table decoded Ok");
        let (c, s) = slots(&stream)[keep];
        prop_assert_eq!((e.chunk, e.sector), (Some(c), Some(s)));
        // The same damage in serialized form either fails to parse or
        // fails to decode.
        if let Some(parsed) = EncodedStream::from_bytes(&bad.to_bytes()) {
            prop_assert!(decode_gpu(&parsed, &book, &A100).is_err());
        }
        bad.gaps = stream.gaps.clone();
        bad.gaps.push(0);
        prop_assert!(decode_gpu(&bad, &book, &A100).is_err());
    }
}

#[test]
fn tampered_gap_byte_in_an_archive_is_a_typed_decode_corrupt() {
    let data = NdArray::from_fn(Shape::d3(40, 40, 40), |z, y, x| {
        ((x as f32) * 0.2).sin() + ((y as f32) * 0.15).cos() + ((z * y) as f32 * 0.01).sin()
    });
    let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-4)).without_bitcomp());
    let archive = codec.compress(&data).unwrap().bytes;
    let header = Header::from_bytes(&archive).unwrap();
    let at = HEADER_LEN + (header.sections[0] + header.sections[1]) as usize;
    let section = &archive[at..at + header.sections[2] as usize];
    let stream = EncodedStream::from_bytes(section).unwrap();
    assert!(stream.gaps.len() > 4, "want several sectors");
    // The gap bytes sit after the head, the chunk table and their count.
    let gap0 = at + 20 + stream.offsets.len() * 8 + 8;
    assert_eq!(&archive[gap0..gap0 + stream.gaps.len()], &stream.gaps[..]);
    let (chunk, sector) = slots(&stream)[3];
    let mut bad = archive.clone();
    bad[gap0 + 3] ^= 0x15;
    match codec.decompress(&bad) {
        Err(CuszError::DecodeCorrupt { chunk: c, sector: s, .. }) => {
            assert_eq!((c, s), (Some(chunk), Some(sector)));
        }
        other => panic!("expected DecodeCorrupt, got {:?}", other.map(|d| d.data.len())),
    }
}
