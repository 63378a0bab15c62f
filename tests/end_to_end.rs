//! End-to-end integration: every codec against every dataset analogue,
//! verifying the error-bound contract and the paper's quality ordering.

use cuszi_repro::baselines::{with_bitcomp, Cusz, Cuszp, Cuszx, Cuzfp, FzGpu, Qoz};
use cuszi_repro::core::{Codec, Config, CuszI};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::gpu_sim::A100;
use cuszi_repro::metrics::{check_error_bound_f32, compression_ratio, distortion};
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::NdArray;

fn shrink(data: &NdArray<f32>) -> NdArray<f32> {
    // Cut a 48^3-ish window so the full matrix of codecs x datasets
    // stays fast; generators are deterministic so this is stable.
    let d = data.shape().dims3();
    let ext = [d[0].min(48), d[1].min(48), d[2].min(48)];
    NdArray::from_fn(
        cuszi_repro::tensor::Shape::d3(ext[0], ext[1], ext[2]),
        |z, y, x| data.get3(z, y, x),
    )
}

fn eb_codecs(eb: ErrorBound) -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(CuszI::new(Config::new(eb))),
        Box::new(CuszI::new(Config::new(eb).without_bitcomp())),
        Box::new(Cusz::new(eb, A100)),
        Box::new(Cuszp::new(eb, A100)),
        Box::new(Cuszx::new(eb, A100)),
        Box::new(FzGpu::new(eb, A100)),
        Box::new(with_bitcomp(Cusz::new(eb, A100), A100)),
        Box::new(Qoz::new(eb)),
    ]
}

#[test]
fn every_codec_roundtrips_every_dataset_within_bound() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, Scale::Small, 42);
        let field = shrink(&ds.fields[0].data);
        let eb_rel = 1e-3;
        for codec in eb_codecs(ErrorBound::Rel(eb_rel)) {
            let (bytes, _) = codec
                .compress_bytes(&field)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", codec.name(), kind.name()));
            let (recon, _) = codec
                .decompress_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", codec.name(), kind.name()));
            assert_eq!(recon.shape(), field.shape());
            let range = {
                let s = field.as_slice();
                let (mn, mx) = s.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &v| {
                    (a.min(v), b.max(v))
                });
                (mx - mn) as f64
            };
            assert_eq!(
                check_error_bound_f32(field.as_slice(), recon.as_slice(), eb_rel * range),
                None,
                "{} violates the bound on {}",
                codec.name(),
                kind.name()
            );
        }
    }
}

#[test]
fn archives_are_byte_identical_across_thread_counts() {
    // The lock-free slot/compaction substrate must keep the full
    // pipeline deterministic by construction: compressing with one
    // worker and with eight must produce the same bytes (and the same
    // bytes as whatever the ambient pool picks).
    use cuszi_repro::gpu_sim::pool;
    let ds = generate(DatasetKind::Miranda, Scale::Small, 42);
    let field = shrink(&ds.fields[0].data);
    for codec in eb_codecs(ErrorBound::Rel(1e-3)) {
        let (ambient, _) = codec.compress_bytes(&field).unwrap();
        let (one, _) = pool::with_threads(1, || codec.compress_bytes(&field)).unwrap();
        let (eight, _) = pool::with_threads(8, || codec.compress_bytes(&field)).unwrap();
        assert_eq!(one, eight, "{}: 1-thread vs 8-thread archive", codec.name());
        assert_eq!(one, ambient, "{}: explicit vs ambient pool archive", codec.name());
        // Decompression is deterministic too.
        let (r1, _) = pool::with_threads(1, || codec.decompress_bytes(&one)).unwrap();
        let (r8, _) = pool::with_threads(8, || codec.decompress_bytes(&one)).unwrap();
        assert_eq!(r1.as_slice(), r8.as_slice(), "{}: decompress", codec.name());
    }
}

#[test]
fn cuszi_with_bitcomp_has_best_ratio_on_smooth_datasets() {
    // The Table III headline at moderate bounds on compressible data.
    for kind in [DatasetKind::Miranda, DatasetKind::S3d] {
        let ds = generate(kind, Scale::Small, 42);
        let field = &ds.fields[0].data;
        let eb = ErrorBound::Rel(1e-2);
        let ours = CuszI::new(Config::new(eb));
        let (our_bytes, _) = ours.compress_bytes(field).unwrap();
        let our_cr = compression_ratio(field.len() * 4, our_bytes.len());
        let baselines: Vec<Box<dyn Codec>> = vec![
            Box::new(with_bitcomp(Cusz::new(eb, A100), A100)),
            Box::new(with_bitcomp(Cuszp::new(eb, A100), A100)),
            Box::new(with_bitcomp(Cuszx::new(eb, A100), A100)),
            Box::new(with_bitcomp(FzGpu::new(eb, A100), A100)),
        ];
        for b in baselines {
            let (bytes, _) = b.compress_bytes(field).unwrap();
            let cr = compression_ratio(field.len() * 4, bytes.len());
            assert!(
                our_cr > cr,
                "{}: cuSZ-i CR {our_cr:.1} must beat {} CR {cr:.1}",
                kind.name(),
                b.name()
            );
        }
    }
}

#[test]
fn bitcomp_amplifies_cuszi_more_than_lorenzo_codecs() {
    // § VII-C.1: "G-Interp ... is more attuned to the additional pass of
    // lossless encoding than any other compressor."
    let ds = generate(DatasetKind::Miranda, Scale::Small, 42);
    let field = &ds.fields[0].data;
    let eb = ErrorBound::Rel(1e-2);

    let gain = |without: usize, with: usize| without as f64 / with as f64;

    let (a, _) = CuszI::new(Config::new(eb).without_bitcomp()).compress_bytes(field).unwrap();
    let (b, _) = CuszI::new(Config::new(eb)).compress_bytes(field).unwrap();
    let ours = gain(a.len(), b.len());

    let (c, _) = Cusz::new(eb, A100).compress_bytes(field).unwrap();
    let (d, _) = with_bitcomp(Cusz::new(eb, A100), A100).compress_bytes(field).unwrap();
    let theirs = gain(c.len(), d.len());

    assert!(ours > theirs, "bitcomp gain: cuSZ-i {ours:.2}x vs cuSZ {theirs:.2}x");
}

#[test]
fn qoz_cpu_reference_stays_ahead_of_cuszi_in_ratio() {
    // § VII-C.2: "CPU-based QoZ still features a better compression
    // ratio than cuSZ-i due to larger interpolation blocks."
    let ds = generate(DatasetKind::Miranda, Scale::Small, 42);
    let field = &ds.fields[0].data;
    let eb = ErrorBound::Rel(1e-3);
    let (qoz_bytes, _) = Qoz::new(eb).compress_bytes(field).unwrap();
    let (our_bytes, _) = CuszI::new(Config::new(eb)).compress_bytes(field).unwrap();
    // QoZ should be at least comparable (paper: slightly better).
    assert!(
        (qoz_bytes.len() as f64) < our_bytes.len() as f64 * 1.15,
        "QoZ {} vs cuSZ-i {}",
        qoz_bytes.len(),
        our_bytes.len()
    );
}

#[test]
fn cuzfp_rate_distortion_is_monotone_on_real_data() {
    let ds = generate(DatasetKind::Jhtdb, Scale::Small, 42);
    let field = shrink(&ds.fields[0].data);
    let mut last_psnr = 0.0;
    for rate in [2.0, 4.0, 8.0, 16.0] {
        let z = Cuzfp::new(rate, A100);
        let (bytes, _) = z.compress_bytes(&field).unwrap();
        let (recon, _) = z.decompress_bytes(&bytes).unwrap();
        let p = distortion(field.as_slice(), recon.as_slice()).unwrap().psnr;
        assert!(p > last_psnr, "rate {rate}: PSNR {p:.1} not above {last_psnr:.1}");
        last_psnr = p;
        // Fixed rate: the effective bitrate tracks the request within
        // the format's quantisation (whole bit-planes, byte-aligned
        // blocks, 16-bit headers).
        let cr = compression_ratio(field.len() * 4, bytes.len());
        let effective = 32.0 / cr;
        assert!(
            effective <= rate + 0.5 && effective >= rate - 1.3,
            "rate {rate}: effective {effective:.2} bits/value"
        );
    }
}

#[test]
fn archives_are_deterministic() {
    // Same input + config -> byte-identical archives (required for the
    // figure regenerators to be reproducible).
    let ds = generate(DatasetKind::S3d, Scale::Small, 1);
    let field = shrink(&ds.fields[0].data);
    for codec in eb_codecs(ErrorBound::Rel(1e-3)) {
        let (a, _) = codec.compress_bytes(&field).unwrap();
        let (b, _) = codec.compress_bytes(&field).unwrap();
        assert_eq!(a, b, "{} archive not deterministic", codec.name());
    }
}

#[test]
fn cross_codec_archives_are_rejected() {
    // Feeding one codec's archive to another must error, not panic or
    // return garbage silently.
    let ds = generate(DatasetKind::Qmcpack, Scale::Small, 3);
    let field = shrink(&ds.fields[0].data);
    let eb = ErrorBound::Rel(1e-3);
    let (cusz_bytes, _) = Cusz::new(eb, A100).compress_bytes(&field).unwrap();
    assert!(CuszI::new(Config::new(eb)).decompress(&cusz_bytes).is_err());
    let (cuszi_bytes, _) = CuszI::new(Config::new(eb)).compress_bytes(&field).unwrap();
    assert!(Cuszp::new(eb, A100).decompress_bytes(&cuszi_bytes).is_err());
    assert!(FzGpu::new(eb, A100).decompress_bytes(&cuszi_bytes).is_err());
}

/// Larger soak: a 160^3 field (~16 MB) through the full pipeline.
/// Ignored by default; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "multi-second soak test"]
fn soak_large_field_full_pipeline() {
    let data = NdArray::from_fn(cuszi_repro::tensor::Shape::d3(160, 160, 160), |z, y, x| {
        let (z, y, x) = (z as f32, y as f32, x as f32);
        (0.03 * x).sin() * 2.0 + (0.04 * y).cos() + (0.02 * z).sin() + 0.05 * (0.01 * x * y).sin()
    });
    let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
    let (bytes, _) = codec.compress_bytes(&data).unwrap();
    let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
    let cr = compression_ratio(data.len() * 4, bytes.len());
    assert!(cr > 10.0, "CR {cr}");
    let d = distortion(data.as_slice(), recon.as_slice()).unwrap();
    assert!(d.psnr > 60.0, "PSNR {}", d.psnr);
}

/// Near-paper-scale soak on a real generator (256^3 turbulence, 64 MB).
/// Ignored by default: `cargo test --release -- --ignored`.
#[test]
#[ignore = "64 MB field; ~1 min"]
fn soak_quarter_paper_scale_turbulence() {
    use cuszi_repro::tensor::Shape;
    let mut rng = cuszi_repro::datagen::rng::ChaCha8Rng::seed_from_u64(99);
    let data = cuszi_repro::datagen::turbulence(Shape::d3(256, 256, 256), &mut rng);
    let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
    let (bytes, _) = codec.compress_bytes(&data).unwrap();
    let cr = compression_ratio(data.len() * 4, bytes.len());
    let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
    let d = distortion(data.as_slice(), recon.as_slice()).unwrap();
    assert!(cr > 8.0 && d.psnr > 60.0, "CR {cr:.1}, PSNR {:.1}", d.psnr);
}

#[test]
fn archive_layout_matches_a_rebuild_from_the_public_stages() {
    // The archive is header ++ anchors ++ codebook ++ Huffman stream ++
    // outlier indices ++ outlier values, with Bitcomp (when on) packing
    // everything after the header. Rebuild it from the public stages in
    // pipeline order and compare byte for byte.
    use cuszi_repro::core::archive::{Header, FLAG_BITCOMP, VERSION};
    use cuszi_repro::huffman::{encode_gpu, histogram_gpu, Codebook};
    use cuszi_repro::predict::{ginterp, tuning::profile_and_tune};
    use cuszi_repro::tensor::stats::ValueRange;

    for kind in [DatasetKind::ALL[0], DatasetKind::ALL[1]] {
        let field = shrink(&generate(kind, Scale::Small, 42).fields[0].data);
        for eb in [ErrorBound::Rel(1e-3), ErrorBound::Rel(1e-5)] {
            let cfg = Config::new(eb);
            let dev = &cfg.device;
            let range = ValueRange::of(field.as_slice()).unwrap().range() as f64;
            let (eb_abs, rel_eb) = (eb.absolute(range), eb.relative(range));
            let interp = profile_and_tune(&field, rel_eb).0;
            let pred = ginterp::compress(&field, eb_abs, cfg.radius, &interp, dev);
            let alphabet = 2 * cfg.radius as usize;
            let (hist, _) =
                histogram_gpu(&pred.codes, alphabet, cfg.radius, cfg.histogram_topk, dev);
            let book = Codebook::from_histogram(&hist).unwrap();
            let (stream, _) = encode_gpu(&pred.codes, &book, dev);
            let sections: [Vec<u8>; 5] = [
                pred.anchors.iter().flat_map(|v| v.to_le_bytes()).collect(),
                book.to_bytes(),
                stream.to_bytes(),
                pred.outliers.indices().iter().flat_map(|v| v.to_le_bytes()).collect(),
                pred.outliers.values().iter().flat_map(|v| v.to_le_bytes()).collect(),
            ];
            let payload = sections.concat();
            for bitcomp in [false, true] {
                let header = Header {
                    version: VERSION,
                    flags: if bitcomp { FLAG_BITCOMP } else { 0 },
                    shape: field.shape(),
                    eb_abs,
                    alpha: interp.alpha,
                    radius: cfg.radius,
                    variants: interp.variants,
                    order: interp.order.clone(),
                    const_value: 0.0,
                    sections: sections.each_ref().map(|s| s.len() as u64),
                };
                let body = match bitcomp {
                    true => cuszi_repro::bitcomp::compress(&payload, dev).0,
                    false => payload.clone(),
                };
                let rebuilt = [header.to_bytes(), body].concat();
                let codec = CuszI::new(if bitcomp { cfg } else { cfg.without_bitcomp() });
                let archive = codec.compress(&field).unwrap().bytes;
                assert!(
                    archive == rebuilt,
                    "{} at {eb:?}, bitcomp {bitcomp}: the archive differs from its stages",
                    kind.name()
                );
            }
        }
    }
}
