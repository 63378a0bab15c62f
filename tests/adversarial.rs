//! Adversarial decompression: every codec fed random bytes — with and
//! without its own magic prefix — must return a typed error or (at
//! worst) wrong data, never panic or explode memory.

use cuszi_repro::baselines::{Cusz, Cuszp, Cuszx, Cuzfp, FzGpu, Qoz};
use cuszi_repro::core::{Codec, Config, CuszError, CuszI};
use cuszi_repro::gpu_sim::A100;
use cuszi_repro::quant::ErrorBound;
use proptest::prelude::*;

fn codecs() -> Vec<(&'static [u8; 4], Box<dyn Codec>)> {
    let eb = ErrorBound::Rel(1e-3);
    vec![
        (b"CSZI", Box::new(CuszI::new(Config::new(eb)))),
        (b"CUSZ", Box::new(Cusz::new(eb, A100))),
        (b"CSZP", Box::new(Cuszp::new(eb, A100))),
        (b"CSZX", Box::new(Cuszx::new(eb, A100))),
        (b"FZGP", Box::new(FzGpu::new(eb, A100))),
        (b"CZFP", Box::new(Cuzfp::new(4.0, A100))),
        (b"QOZ_", Box::new(Qoz::new(eb))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_random_bytes_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..4000),
    ) {
        for (magic, codec) in codecs() {
            // Raw garbage.
            let _ = codec.decompress_bytes(&body);
            // Garbage wearing the right magic: exercises the header
            // parser and section walkers past the first check.
            let mut with_magic = magic.to_vec();
            with_magic.extend_from_slice(&body);
            let _ = codec.decompress_bytes(&with_magic);
        }
    }

    #[test]
    fn prop_header_mutations_never_panic(
        mutations in proptest::collection::vec((0usize..120, any::<u8>()), 1..12),
        seed in any::<u64>(),
    ) {
        // Take a real archive and mutate only the header region — the
        // most security-sensitive bytes (they drive allocations).
        use cuszi_repro::tensor::{NdArray, Shape};
        let data = NdArray::from_fn(Shape::d3(8, 9, 10), |z, y, x| {
            ((x + y + z) as f32 * (0.05 + (seed % 7) as f32 * 0.01)).sin()
        });
        for (_magic, codec) in codecs() {
            let Ok((bytes, _)) = codec.compress_bytes(&data) else { continue };
            let mut bad = bytes.clone();
            for &(pos, val) in &mutations {
                let i = pos % bad.len().clamp(1, 120);
                bad[i] = val;
            }
            let _ = codec.decompress_bytes(&bad);
        }
    }
}

/// A small smooth field every baseline compresses without error.
fn crafted_field() -> cuszi_repro::tensor::NdArray<f32> {
    use cuszi_repro::tensor::{NdArray, Shape};
    NdArray::from_fn(Shape::d3(8, 9, 10), |z, y, x| ((x + 2 * y + 3 * z) as f32 * 0.07).sin())
}

/// Overwrite the `u64` entry length at `at` with `len`.
fn set_len(bytes: &mut [u8], at: usize, len: u64) {
    bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

fn assert_corrupt(name: &str, r: Result<impl Sized, CuszError>) {
    assert!(
        matches!(r, Err(CuszError::CorruptArchive(_))),
        "{name}: a crafted entry length must be CorruptArchive, got {:?}",
        r.err()
    );
}

/// Craft the first entry length, right after the 40-byte baseline
/// header, to a value near `u64::MAX` that wraps an unchecked
/// `at + len` cursor.
fn crafted_first_entry(name: &str, codec: &dyn Codec) {
    let (mut bytes, _) = codec.compress_bytes(&crafted_field()).unwrap();
    set_len(&mut bytes, 40, u64::MAX - 20);
    assert_corrupt(name, codec.decompress_bytes(&bytes));
}

#[test]
fn crafted_entry_length_cusz() {
    crafted_first_entry("cuSZ", &Cusz::new(ErrorBound::Rel(1e-3), A100));
}

#[test]
fn crafted_entry_length_cuszp() {
    crafted_first_entry("cuSZp", &Cuszp::new(ErrorBound::Rel(1e-3), A100));
}

#[test]
fn crafted_entry_length_cuszx() {
    crafted_first_entry("cuSZx", &Cuszx::new(ErrorBound::Rel(1e-3), A100));
}

#[test]
fn crafted_entry_length_fzgpu() {
    crafted_first_entry("FZ-GPU", &FzGpu::new(ErrorBound::Rel(1e-3), A100));
}

#[test]
fn crafted_entry_length_qoz() {
    // QoZ's entries sit inside a Bitcomp-packed payload after the
    // header: unpack, craft the first length, repack.
    use cuszi_repro::bitcomp;
    let codec = Qoz::new(ErrorBound::Rel(1e-3));
    let (bytes, _) = codec.compress_bytes(&crafted_field()).unwrap();
    let (mut payload, _) = bitcomp::decompress(&bytes[40..], &A100).unwrap();
    set_len(&mut payload, 0, u64::MAX - 3);
    let mut crafted = bytes[..40].to_vec();
    crafted.extend_from_slice(&bitcomp::compress(&payload, &A100).0);
    assert_corrupt("QoZ", codec.decompress_bytes(&crafted));
}
