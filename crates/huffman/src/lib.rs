//! Coarse-grained parallel Huffman coding (§ VI-A), the first lossless
//! stage of every SZ-family GPU compressor.
//!
//! The pipeline mirrors cuSZ's, with the two cuSZ-i refinements:
//!
//! 1. [`histogram`] — a privatized GPU histogram with an optional
//!    *top-k register cache*: the `k` bins around the zero-error code are
//!    tallied in thread-private registers, cutting shared-memory traffic
//!    on the highly centralized distributions G-Interp produces.
//! 2. [`codebook`] — canonical Huffman construction on the **CPU**
//!    (§ VI-A moved it there: with G-Interp the live alphabet `r*` is so
//!    small that a GPU tree build is not worthwhile).
//! 3. [`coding`] — chunked one-pass encoding: each thread block encodes
//!    one chunk into bounded scratch and the host concatenates the
//!    byte-aligned chunks, so decoding is chunk-parallel too.

pub mod codebook;
pub mod coding;
pub mod histogram;

pub use codebook::{Codebook, CodebookError, DecodeTable, Probe};
pub use coding::{
    decode_gpu, decode_gpu_serial, encode_gpu, DecodeError, Decoded, EncodedStream, GapReport,
    GAP_NONE, GAP_SECTOR_BYTES,
};
pub use histogram::{histogram_gpu, histogram_shared_bytes};
