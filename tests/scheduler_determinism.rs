//! The executor's core invariant: containers and reconstructions are
//! byte-identical at every plan, and the CSZM container is identical to
//! the monolith (one `CuszI::compress` per field) path — on every
//! dataset analogue.
//!
//! gpu-sim kernels are deterministic for any worker count and every
//! stage of one job stays on one stream, so overlap must change only
//! *when* work runs, never *what* it produces. One sweep covers plans
//! devices ∈ {1, 2, 4} × streams ∈ {1, 4}, both container formats
//! (CSZM batch, CSZS slabs) and both directions, against the 1×1 plan;
//! each dataset runs it as its own test.

use cuszi_repro::core::{
    compress_fields_sharded, compress_fields_streams, compress_slabs_sharded,
    compress_slabs_streams, decompress_fields_sharded, decompress_fields_streams,
    decompress_slabs_sharded, decompress_slabs_streams, Config, CuszI, NamedField, ShardPlan,
};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::{NdArray, Shape};

/// Crop a field to <= 32^3 so the full dataset sweep stays debug-fast;
/// generators are deterministic, so the crop is stable.
fn crop(data: &NdArray<f32>) -> NdArray<f32> {
    let d = data.shape().dims3();
    let ext = [d[0].min(32), d[1].min(32), d[2].min(32)];
    NdArray::from_fn(Shape::d3(ext[0], ext[1], ext[2]), |z, y, x| data.get3(z, y, x))
}

/// Reassemble the CSZM container layout from per-field archives — the
/// byte-level spec the executor must reproduce.
fn monolith_container(fields: &[(String, NdArray<f32>)], cfg: Config) -> Vec<u8> {
    let codec = CuszI::new(cfg);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"CSZM");
    bytes.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for (name, data) in fields {
        let c = codec.compress(data).expect("monolith compress");
        bytes.extend_from_slice(&(name.len() as u16).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&(c.bytes.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&c.bytes);
    }
    bytes
}

/// Bit patterns of a reconstruction, for byte-identity comparison
/// (f32 `==` would conflate 0.0/-0.0 and choke on NaN).
fn bits(d: &NdArray<f32>) -> Vec<u32> {
    d.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A container and its labelled reconstruction at one plan.
type RoundTrip = (Vec<u8>, Vec<(String, Vec<u32>)>);

/// CSZM round trip at `devices × streams`; one-device plans go through
/// the `*_streams` entry points, so both names are swept.
fn cszm_at(named: &[NamedField<'_>], devices: usize, streams: usize) -> RoundTrip {
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let (bytes, back) = if devices == 1 {
        let (c, _) = compress_fields_streams(named, cfg, streams).expect("compress");
        let (back, _) = decompress_fields_streams(&c.bytes, cfg, streams).expect("decompress");
        (c.bytes, back)
    } else {
        let plan = ShardPlan::new(devices).streams(streams);
        let (c, report) = compress_fields_sharded(named, cfg, plan).expect("compress");
        assert_eq!(report.per_device.len(), devices);
        assert_eq!(report.per_device.iter().map(|d| d.jobs).sum::<usize>(), named.len());
        let (back, _) = decompress_fields_sharded(&c.bytes, cfg, plan).expect("decompress");
        (c.bytes, back)
    };
    (bytes, back.iter().map(|(n, d)| (n.clone(), bits(d))).collect())
}

/// CSZS round trip of `field` in 8-plane slabs at `devices × streams`.
fn cszs_at(field: &NdArray<f32>, devices: usize, streams: usize) -> RoundTrip {
    let cfg = Config::new(ErrorBound::Abs(1e-3));
    let shape = field.shape();
    let [_, ny, nx] = shape.dims3();
    let slab = |z0: usize, nz: usize| {
        NdArray::from_fn(Shape::d3(nz, ny, nx), |z, y, x| field.get3(z0 + z, y, x))
    };
    let mut back = Vec::new();
    let mut consume = |z0: usize, s: NdArray<f32>| back.push((format!("z{z0}"), bits(&s)));
    let (bytes, got_shape) = if devices == 1 {
        let (bytes, _) = compress_slabs_streams(shape, 8, cfg, streams, slab).expect("compress");
        let (got, _) =
            decompress_slabs_streams(&bytes, cfg, streams, &mut consume).expect("decompress");
        (bytes, got)
    } else {
        let plan = ShardPlan::new(devices).streams(streams);
        let (bytes, _) = compress_slabs_sharded(shape, 8, cfg, plan, slab).expect("compress");
        let (got, _) =
            decompress_slabs_sharded(&bytes, cfg, plan, &mut consume).expect("decompress");
        (bytes, got)
    };
    assert_eq!(got_shape, shape);
    (bytes, back)
}

/// Round-trip one format at every plan against the 1×1 plan; returns
/// the 1×1 container.
fn sweep(label: &str, at: impl Fn(usize, usize) -> RoundTrip) -> Vec<u8> {
    let (reference, recon) = at(1, 1);
    for devices in [1usize, 2, 4] {
        for streams in [1usize, 4] {
            let (bytes, back) = at(devices, streams);
            let plan = format!("{label} at devices={devices} streams={streams}");
            assert!(bytes == reference, "{plan}: container differs from the 1x1 plan");
            assert!(back == recon, "{plan}: reconstruction differs from the 1x1 plan");
        }
    }
    reference
}

/// Both formats of one dataset at every plan, plus the monolith check.
fn sweep_dataset(kind: DatasetKind) {
    let ds = generate(kind, Scale::Small, 42);
    let fields: Vec<(String, NdArray<f32>)> =
        ds.fields.iter().map(|f| (f.name.to_string(), crop(&f.data))).collect();
    let named: Vec<NamedField> =
        fields.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
    let cszm = sweep(&format!("{} CSZM", kind.name()), |d, s| cszm_at(&named, d, s));
    let mono = monolith_container(&fields, Config::new(ErrorBound::Rel(1e-3)));
    assert!(cszm == mono, "{}: container differs from the monolith path", kind.name());

    let slab_field = crop(&generate(kind, Scale::Small, 7).fields[0].data);
    sweep(&format!("{} CSZS", kind.name()), |d, s| cszs_at(&slab_field, d, s));
}

#[test]
fn every_plan_is_byte_identical_on_jhtdb() {
    sweep_dataset(DatasetKind::Jhtdb);
}

#[test]
fn every_plan_is_byte_identical_on_miranda() {
    sweep_dataset(DatasetKind::Miranda);
}

#[test]
fn every_plan_is_byte_identical_on_nyx() {
    sweep_dataset(DatasetKind::Nyx);
}

#[test]
fn every_plan_is_byte_identical_on_qmcpack() {
    sweep_dataset(DatasetKind::Qmcpack);
}

#[test]
fn every_plan_is_byte_identical_on_rtm() {
    sweep_dataset(DatasetKind::Rtm);
}

#[test]
fn every_plan_is_byte_identical_on_s3d() {
    sweep_dataset(DatasetKind::S3d);
}
