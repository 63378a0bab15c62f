//! Wall-clock benches of each pipeline stage (the per-kernel
//! complement of the modelled Fig. 9 throughputs).
//!
//! Quick mode: `CUSZI_BENCH_QUICK=1 cargo bench --bench stages`.

use cuszi_bench::timing::{section, Bench};
use cuszi_datagen::{generate, DatasetKind, Scale};
use cuszi_gpu_sim::A100;
use cuszi_huffman::{decode_gpu, decode_gpu_serial, encode_gpu, histogram_gpu, Codebook};
use cuszi_predict::tuning::InterpConfig;
use cuszi_predict::{force_scalar_sweep, ginterp, lorenzo};
use cuszi_tensor::stats::ValueRange;

fn main() {
    let b = Bench::from_env();
    let ds = generate(DatasetKind::Miranda, Scale::Small, 42);
    let field = &ds.fields[0].data;
    let bytes = Some((field.len() * 4) as u64);
    let range = ValueRange::of(field.as_slice()).unwrap().range() as f64;
    let eb = 1e-3 * range;
    let cfg = InterpConfig::untuned(3);

    section("predictors (Miranda-small, eb 1e-3)");
    b.run("ginterp_compress", bytes, || ginterp::compress(field, eb, 512, &cfg, &A100));
    // The ginterp block body with the scalar oracle forced, then in
    // lanes — archives are bit-identical, only the host time differs.
    for (name, scalar) in [("ginterp_body_scalar", true), ("ginterp_body_simd", false)] {
        force_scalar_sweep(scalar);
        b.run(name, bytes, || ginterp::compress(field, eb, 512, &cfg, &A100));
    }
    b.run("lorenzo_compress", bytes, || lorenzo::compress(field, eb, 512, &A100));
    let gi = ginterp::compress(field, eb, 512, &cfg, &A100);
    b.run("ginterp_decompress", bytes, || {
        ginterp::decompress(&gi.codes, &gi.anchors, &gi.outliers, field.shape(), eb, 512, &cfg, &A100)
    });
    let lo = lorenzo::compress(field, eb, 512, &A100);
    b.run("lorenzo_decompress", bytes, || {
        lorenzo::decompress(&lo.codes, &lo.outliers, field.shape(), eb, 512, &A100)
    });

    section("lossless");
    for k in [0usize, 32] {
        b.run(&format!("histogram_topk/{k}"), bytes, || histogram_gpu(&gi.codes, 1024, 512, k, &A100));
    }
    let (hist, _) = histogram_gpu(&gi.codes, 1024, 512, 32, &A100);
    let book = Codebook::from_histogram(&hist).unwrap();
    b.run("codebook_build_cpu", bytes, || Codebook::from_histogram(&hist));
    b.run("huffman_encode", bytes, || encode_gpu(&gi.codes, &book, &A100));
    let (stream, _) = encode_gpu(&gi.codes, &book, &A100);
    // Both decoders at the loose and the tight bound (short and long
    // codewords), with the symbol loop's cost per symbol.
    let tight = ginterp::compress(field, 1e-5 * range, 512, &cfg, &A100);
    let (tight_hist, _) = histogram_gpu(&tight.codes, 1024, 512, 32, &A100);
    let tight_book = Codebook::from_histogram(&tight_hist).unwrap();
    let (tight_stream, _) = encode_gpu(&tight.codes, &tight_book, &A100);
    for (eb, stream, book) in [("1e-3", &stream, &book), ("1e-5", &tight_stream, &tight_book)] {
        let per_symbol = |m: cuszi_bench::timing::Measurement| {
            println!("{:<36} {:>10.2} ns/symbol", "", m.min_s * 1e9 / stream.n as f64);
        };
        per_symbol(b.run(&format!("huffman_decode_gap/{eb}"), bytes, || decode_gpu(stream, book, &A100)));
        per_symbol(b.run(&format!("huffman_decode_serial/{eb}"), bytes, || {
            decode_gpu_serial(stream, book, &A100)
        }));
    }
    let payload = stream.to_bytes();
    b.run("bitcomp_compress", bytes, || cuszi_bitcomp::compress(&payload, &A100));
    let (packed, _) = cuszi_bitcomp::compress(&payload, &A100);
    b.run("bitcomp_decompress", bytes, || cuszi_bitcomp::decompress(&packed, &A100));
}
