//! Human-readable stage breakdowns of a compression run.
//!
//! The pipeline's kernel order is fixed (Fig. 1), so the anonymous
//! [`KernelStats`] sequence in a [`Compressed`] can be labelled after
//! the fact and priced with a [`TimingModel`] — the per-stage view the
//! paper's Nsight profiling produced for Fig. 9.

use cuszi_gpu_sim::{KernelStats, TimingModel};

use crate::pipeline::Compressed;

/// Kernels of a compress with Bitcomp, in launch order. A run without
/// Bitcomp launches the first four.
const COMPRESS_KERNELS: [&str; 6] = [
    "anchor-gather",
    "g-interp",
    "histogram",
    "huffman-emit",
    "bitcomp-encode",
    "bitcomp-emit",
];

/// Stage labels of the compression pipeline, in launch order: none for
/// the constant-field fast path, four without Bitcomp, six with it.
pub fn compress_stage_names(n_kernels: usize) -> Vec<&'static str> {
    match n_kernels {
        0 | 4 | 6 => COMPRESS_KERNELS[..n_kernels].to_vec(),
        n => vec!["kernel"; n],
    }
}

/// One labelled stage with its modelled time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageCost {
    pub name: &'static str,
    pub stats: KernelStats,
    pub seconds: f64,
}

/// Label and price each compression kernel.
pub fn stage_breakdown(c: &Compressed, model: &TimingModel) -> Vec<StageCost> {
    compress_stage_names(c.kernels.len())
        .into_iter()
        .zip(&c.kernels)
        .map(|(name, &stats)| StageCost { name, stats, seconds: model.kernel_time(&stats) })
        .collect()
}

/// Render the breakdown as an aligned text table.
pub fn render_breakdown(c: &Compressed, model: &TimingModel) -> String {
    let rows = stage_breakdown(c, model);
    let total: f64 = rows.iter().map(|r| r.seconds).sum();
    let mut out = String::from("stage           time µs   %     DRAM MB  coalesce\n");
    for r in &rows {
        out.push_str(&format!(
            "{:<14} {:>9.1} {:>5.1} {:>9.2} {:>9.2}\n",
            r.name,
            r.seconds * 1e6,
            if total > 0.0 { r.seconds / total * 100.0 } else { 0.0 },
            r.stats.dram_bytes() as f64 / 1e6,
            r.stats.coalescing_efficiency(),
        ));
    }
    out.push_str(&format!("total          {:>9.1}\n", total * 1e6));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::pipeline::CuszI;
    use cuszi_gpu_sim::A100;
    use cuszi_quant::ErrorBound;
    use cuszi_tensor::{NdArray, Shape};

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(16, 16, 32), |z, y, x| ((x + y + z) as f32 * 0.1).sin())
    }

    fn compressed(bitcomp: bool) -> Compressed {
        let data = field();
        let cfg = if bitcomp {
            Config::new(ErrorBound::Rel(1e-3))
        } else {
            Config::new(ErrorBound::Rel(1e-3)).without_bitcomp()
        };
        CuszI::new(cfg).compress(&data).unwrap()
    }

    #[test]
    fn full_pipeline_has_six_labelled_stages() {
        let c = compressed(true);
        let rows = stage_breakdown(&c, &TimingModel::new(A100));
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].name, "anchor-gather");
        assert_eq!(rows[1].name, "g-interp");
        assert!(rows.iter().all(|r| r.seconds > 0.0));
    }

    #[test]
    fn no_bitcomp_pipeline_has_four_stages() {
        let c = compressed(false);
        let rows = stage_breakdown(&c, &TimingModel::new(A100));
        assert_eq!(rows.len(), 4);
        assert_eq!(rows.last().unwrap().name, "huffman-emit");
    }

    #[test]
    fn render_includes_every_stage_and_total() {
        use crate::engine::{Engine, EngineConfig};
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let served = engine.compress("t", field(), cfg).unwrap().output.into_compressed().unwrap();
        for c in [compressed(true), served] {
            let text = render_breakdown(&c, &TimingModel::new(A100));
            for name in ["anchor-gather", "g-interp", "histogram", "bitcomp-encode", "total"] {
                assert!(text.contains(name), "missing {name} in:\n{text}");
            }
            assert!(!text.contains("kernel"), "unnamed row in:\n{text}");
        }
    }

    #[test]
    fn stage_names_follow_the_kernel_count() {
        assert!(compress_stage_names(0).is_empty(), "constant-field fast path");
        assert_eq!(
            compress_stage_names(4),
            ["anchor-gather", "g-interp", "histogram", "huffman-emit"]
        );
        assert_eq!(compress_stage_names(6), COMPRESS_KERNELS);
        for n in [1, 3, 5, 7] {
            assert_eq!(compress_stage_names(n), vec!["kernel"; n], "{n} kernels");
        }
    }

    #[test]
    fn engine_results_render_named_rows() {
        use crate::engine::{Engine, EngineConfig};
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        for cfg in [
            Config::new(ErrorBound::Rel(1e-3)),
            Config::new(ErrorBound::Rel(1e-3)).without_bitcomp(),
        ] {
            let c = engine.compress("t", field(), cfg).unwrap().output.into_compressed().unwrap();
            let names: Vec<_> =
                stage_breakdown(&c, &TimingModel::new(A100)).iter().map(|r| r.name).collect();
            let want = if cfg.bitcomp { &COMPRESS_KERNELS[..] } else { &COMPRESS_KERNELS[..4] };
            assert_eq!(names, want);
        }
    }

    #[test]
    fn ginterp_dominates_compression_time() {
        // The paper's premise for optimising the predictor: it is the
        // expensive stage.
        let c = compressed(true);
        let rows = stage_breakdown(&c, &TimingModel::new(A100));
        let gi = rows.iter().find(|r| r.name == "g-interp").unwrap().seconds;
        for r in &rows {
            if r.name != "g-interp" {
                assert!(gi >= r.seconds, "{} ({}) slower than g-interp ({gi})", r.name, r.seconds);
            }
        }
    }
}
