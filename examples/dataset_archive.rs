//! Archive a whole multi-field dataset — the Table II/III workflow as a
//! library use case — including a point-wise-relative field.
//!
//! Cosmology outputs mix fields that want different bound semantics:
//! velocities tolerate a value-range-relative bound, but baryon density
//! spans many decades and needs a *point-wise* relative bound or the
//! low-density voids are destroyed. This example packs both into one
//! container + a pw-rel side archive and verifies each contract.
//!
//! ```text
//! cargo run --release --example dataset_archive
//! ```

use cuszi_repro::core::{
    compress_fields_streams, compress_pw_rel, decompress_fields_streams, decompress_pw_rel,
    default_streams, Config, NamedField,
};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::quant::ErrorBound;

fn main() {
    let ds = generate(DatasetKind::Nyx, Scale::Small, 42);
    let cfg = Config::new(ErrorBound::Rel(1e-3));

    // Fields 1..: value-range-relative is fine (smooth, single-scale).
    let rel_fields: Vec<NamedField> = ds.fields[2..]
        .iter()
        .map(|f| NamedField { name: f.name, data: &f.data })
        .collect();
    let (container, _) =
        compress_fields_streams(&rel_fields, cfg, default_streams()).expect("container");
    println!("container: {} fields, aggregate CR {:.1}", container.fields.len(), container.aggregate_cr());
    for f in &container.fields {
        println!(
            "  {:<22} {:>8.1} KB -> {:>7.1} KB ({:.1}x)",
            f.name,
            f.input_bytes as f64 / 1e3,
            f.archive_bytes as f64 / 1e3,
            f.input_bytes as f64 / f.archive_bytes as f64
        );
    }

    // Density: point-wise relative, preserving the voids.
    let density = &ds.fields[0];
    let pw = compress_pw_rel(&density.data, 1e-2, 1e-6, cfg).expect("pw-rel");
    println!(
        "\npw-rel {}: {:.1} KB -> {:.1} KB (eps 1e-2 of each value)",
        density.name,
        (density.data.len() * 4) as f64 / 1e3,
        pw.bytes.len() as f64 / 1e3
    );

    // Verify both contracts.
    let (back, _) = decompress_fields_streams(&container.bytes, cfg, default_streams())
        .expect("container decompress");
    for ((name, recon), orig) in back.iter().zip(&ds.fields[2..]) {
        let s = orig.data.as_slice();
        let range = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - s.iter().cloned().fold(f32::INFINITY, f32::min);
        assert_eq!(
            cuszi_repro::metrics::check_error_bound(
                s,
                recon.as_slice(),
                1e-3 * range as f64
            ),
            None,
            "{name}"
        );
    }
    let dens_recon = decompress_pw_rel(&pw.bytes, cfg).expect("pw-rel decompress");
    let mut worst_rel = 0.0f64;
    for (&a, &b) in density.data.as_slice().iter().zip(dens_recon.as_slice()) {
        if a.abs() > 1e-6 {
            worst_rel = worst_rel.max(((a - b).abs() / a.abs()) as f64);
        }
    }
    println!("worst point-wise relative error on density: {worst_rel:.2e} (bound 1.00e-2)");
    assert!(worst_rel <= 1e-2 * 1.001);
    println!("all contracts verified");
}
