//! Degenerate codebook inputs: a single-symbol alphabet and an
//! all-zero histogram. Both are reachable from real pipelines — a
//! constant field quantizes to one code, and an injected launch fault
//! can leave a histogram zeroed — so they must be valid-or-rejected,
//! never a panic.

use cuszi_huffman::{decode_gpu, encode_gpu, Codebook, CodebookError, DecodeTable};
use cuszi_gpu_sim::A100;

#[test]
fn single_symbol_histogram_round_trips() {
    // Only symbol 5 occurs: the canonical book must still assign it a
    // usable (length-1) code so the encoder has something to emit.
    let mut counts = vec![0u32; 16];
    counts[5] = 1000;
    let book = Codebook::from_histogram(&counts).expect("single-symbol book is valid");
    assert_eq!(book.len_of(5), 1);
    // The all-zero prefix is twelve of its one-bit codewords; the table
    // holds four of them.
    let probe = DecodeTable::new(&book).probe(0);
    assert_eq!(probe.first(), Some((5, 1)));
    assert_eq!((probe.count(), probe.bits(), probe.syms()), (4, 4, [5; 4]));

    let codes = vec![5u16; 4321];
    let (stream, _) = encode_gpu(&codes, &book, &A100);
    let back = decode_gpu(&stream, &book, &A100).expect("decode").syms;
    assert_eq!(back, codes);
    // One bit per symbol: the degenerate stream is still compact.
    assert!(stream.payload_bytes() <= codes.len() / 8 + 8);
}

#[test]
fn single_symbol_book_survives_serialization() {
    let mut counts = vec![0u32; 1024];
    counts[512] = 7;
    let book = Codebook::from_histogram(&counts).expect("valid");
    let back = Codebook::from_bytes(&book.to_bytes()).expect("round-trips");
    assert_eq!(back, book);
    assert_eq!(back.len_of(512), 1);
}

#[test]
fn all_zero_histogram_is_rejected_not_a_panic() {
    for n in [1usize, 16, 1024] {
        assert_eq!(
            Codebook::from_histogram(&vec![0u32; n]),
            Err(CodebookError::EmptyHistogram),
            "alphabet {n}"
        );
    }
    assert_eq!(Codebook::from_histogram(&[]), Err(CodebookError::EmptyHistogram));
}

#[test]
fn two_symbol_histogram_round_trips() {
    // The smallest non-trivial tree: both symbols get 1-bit codes.
    let mut counts = vec![0u32; 8];
    counts[2] = 10;
    counts[7] = 90;
    let book = Codebook::from_histogram(&counts).expect("valid");
    assert_eq!(book.len_of(2), 1);
    assert_eq!(book.len_of(7), 1);

    let codes: Vec<u16> = (0..500).map(|i| if i % 10 == 0 { 2 } else { 7 }).collect();
    let (stream, _) = encode_gpu(&codes, &book, &A100);
    let back = decode_gpu(&stream, &book, &A100).expect("decode").syms;
    assert_eq!(back, codes);
}

#[test]
fn empty_code_plane_round_trips() {
    let mut counts = vec![0u32; 4];
    counts[0] = 1;
    let book = Codebook::from_histogram(&counts).expect("valid");
    let (stream, _) = encode_gpu(&[], &book, &A100);
    let back = decode_gpu(&stream, &book, &A100).expect("decode").syms;
    assert!(back.is_empty());
}
