//! The hot-path optimisations must be *pure* performance work: the
//! archive bytes are the oracle. {scalar, lane} sweep x {1, 4} streams
//! must all produce the same container on every dataset analogue, and
//! that container must decode back within the bound — to the same bits
//! with lanes on or off.
//!
//! Production always sweeps in lanes; the hidden `force_scalar_sweep`
//! hook swaps in the one-point-at-a-time oracle here. The hook is
//! process-global, so this file serialises on a mutex (mirroring
//! `tests/fault_matrix.rs`) and releases it on every exit path via an
//! RAII guard.

use std::sync::{Mutex, MutexGuard};

use cuszi_repro::core::{compress_fields_streams, Config, CuszI, NamedField};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::metrics::check_error_bound;
use cuszi_repro::predict::force_scalar_sweep;
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::{NdArray, Shape};

/// Serialises tests that flip the process-global sweep hook.
static GUARD: Mutex<()> = Mutex::new(());

/// Holds the sweep on the scalar oracle (`true`) or in lanes (`false`);
/// releases the hook on drop, panics included.
struct Pinned(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Pinned {
    fn scalar(on: bool) -> Self {
        let guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        force_scalar_sweep(on);
        Pinned(guard)
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        force_scalar_sweep(false);
    }
}

/// Crop to <= 32^3 so the 6-dataset x 4-variant sweep stays debug-fast.
fn crop(data: &NdArray<f32>) -> NdArray<f32> {
    let d = data.shape().dims3();
    let ext = [d[0].min(32), d[1].min(32), d[2].min(32)];
    NdArray::from_fn(Shape::d3(ext[0], ext[1], ext[2]), |z, y, x| data.get3(z, y, x))
}

#[test]
fn archives_identical_across_sweeps_and_streams_on_all_datasets() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, Scale::Small, 42);
        let fields: Vec<(String, NdArray<f32>)> =
            ds.fields.iter().map(|f| (f.name.to_string(), crop(&f.data))).collect();
        let named: Vec<NamedField> =
            fields.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();

        // Reference: scalar sweep, one stream.
        let reference = {
            let _p = Pinned::scalar(true);
            let cfg = Config::new(ErrorBound::Rel(1e-3));
            compress_fields_streams(&named, cfg, 1).expect("reference compress").0.bytes
        };

        for scalar in [true, false] {
            let _p = Pinned::scalar(scalar);
            for streams in [1usize, 4] {
                let cfg = Config::new(ErrorBound::Rel(1e-3));
                let (got, _) =
                    compress_fields_streams(&named, cfg, streams).expect("variant compress");
                assert_eq!(
                    got.bytes,
                    reference,
                    "{}: archive differs (scalar={scalar}, streams={streams})",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn tight_bound_archives_identical_across_streams_on_all_datasets() {
    // At Rel(1e-5) outliers carry real traffic through every stage; the
    // stream count must still leave the container untouched.
    let _p = Pinned::scalar(false);
    for kind in DatasetKind::ALL {
        let ds = generate(kind, Scale::Small, 42);
        let fields: Vec<(String, NdArray<f32>)> =
            ds.fields.iter().map(|f| (f.name.to_string(), crop(&f.data))).collect();
        let named: Vec<NamedField> =
            fields.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
        let cfg = Config::new(ErrorBound::Rel(1e-5));
        let (one, _) = compress_fields_streams(&named, cfg, 1).expect("1-stream compress");
        let (four, _) = compress_fields_streams(&named, cfg, 4).expect("4-stream compress");
        assert_eq!(four.bytes, one.bytes, "{}: archive differs across streams", kind.name());
    }
}

#[test]
fn loose_and_tight_archives_and_their_decodes_match_the_scalar_path() {
    // What production runs — the lane sweep — must write the scalar
    // oracle's bytes and decode them to the scalar oracle's bits, at
    // the headline bound and at the tight one (where outliers and the
    // decode-side outlier patching carry real traffic).
    let bits = |d: &NdArray<f32>| d.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for kind in DatasetKind::ALL {
        let ds = generate(kind, Scale::Small, 42);
        let data = crop(&ds.fields[0].data);
        for rel in [1e-3, 1e-5] {
            let codec = CuszI::new(Config::new(ErrorBound::Rel(rel)));
            let (archive, recon) = {
                let _p = Pinned::scalar(true);
                let c = codec.compress(&data).expect("scalar compress");
                let d = codec.decompress(&c.bytes).expect("scalar decompress");
                assert_eq!(check_error_bound(data.as_slice(), d.data.as_slice(), c.eb_abs), None);
                (c.bytes, bits(&d.data))
            };
            let _p = Pinned::scalar(false);
            let at = format!("{} at Rel({rel:e})", kind.name());
            let c = codec.compress(&data).expect("lane compress");
            assert_eq!(c.bytes, archive, "archive differs: {at}");
            let d = codec.decompress(&archive).expect("lane decompress");
            assert_eq!(bits(&d.data), recon, "reconstruction differs: {at}");
        }
    }
}

#[test]
fn autotuned_compression_is_stable_and_decodable() {
    let _p = Pinned::scalar(false);
    let ds = generate(DatasetKind::Nyx, Scale::Small, 42);
    let data = crop(&ds.fields[0].data);
    let cfg = Config::new(ErrorBound::Rel(1e-3)).with_kernel_autotune();
    let codec = CuszI::new(cfg);
    let a = codec.compress(&data).expect("autotuned compress");
    let b = codec.compress(&data).expect("cached autotuned compress");
    assert_eq!(a.bytes, b.bytes, "autotuner must be deterministic across runs");
    let d = codec.decompress(&a.bytes).expect("decompress");
    assert_eq!(check_error_bound(data.as_slice(), d.data.as_slice(), a.eb_abs), None);
}
