//! Archive a whole multi-field dataset — the Table II/III workflow as a
//! library use case.
//!
//! Every field of a Nyx-like cosmology snapshot goes into one multi-field
//! container at the paper's value-range-relative bound, the container is
//! decoded back, and each field's bound is checked against its own value
//! range.
//!
//! ```text
//! cargo run --release --example dataset_archive
//! ```

use cuszi_repro::core::{
    compress_fields_streams, decompress_fields_streams, default_streams, Config, NamedField,
};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::quant::ErrorBound;

fn main() {
    let ds = generate(DatasetKind::Nyx, Scale::Small, 42);
    let cfg = Config::new(ErrorBound::Rel(1e-3));

    let fields: Vec<NamedField> =
        ds.fields.iter().map(|f| NamedField { name: f.name, data: &f.data }).collect();
    let (container, _) =
        compress_fields_streams(&fields, cfg, default_streams()).expect("container");
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

    // Verify every field's bound against its own value range.
    let (back, _) = decompress_fields_streams(&container.bytes, cfg, default_streams())
        .expect("container decompress");
    for ((name, recon), orig) in back.iter().zip(&ds.fields) {
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
    println!("all {} fields within their bounds", back.len());
}
