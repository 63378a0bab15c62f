//! The end-to-end cuSZ-i pipeline.

use cuszi_gpu_sim::KernelStats;
use cuszi_predict::tuning::InterpConfig;
use cuszi_profile::Category;
use cuszi_tensor::stats::ValueRange;
use cuszi_tensor::NdArray;

use crate::archive::{Header, FLAG_BITCOMP, FLAG_CONSTANT, HEADER_LEN, VERSION};
use crate::config::Config;
use crate::error::CuszError;
use crate::stage::{self, CompressJob, DecompressJob, StageGraph};
use crate::traits::{Codec, CodecArtifacts};

/// Byte sizes of the archive's logical parts (pre-Bitcomp), for the
/// ratio breakdowns in the evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SectionSizes {
    pub header: usize,
    pub anchors: usize,
    pub codebook: usize,
    pub huffman: usize,
    pub outliers: usize,
}

/// A compression result: the archive plus measurement artifacts.
#[derive(Clone, Debug)]
pub struct Compressed {
    /// The self-describing archive.
    pub bytes: Vec<u8>,
    /// Kernel stats in launch order (predictor, histogram, Huffman
    /// passes, Bitcomp passes).
    pub kernels: Vec<KernelStats>,
    /// Logical section sizes before the Bitcomp pass.
    pub sections: SectionSizes,
    /// The absolute error bound actually applied.
    pub eb_abs: f64,
    /// The tuned interpolation configuration.
    pub interp: InterpConfig,
    /// The fidelity audit, when [`Config::with_audit`] was set (absent
    /// on the constant-field fast path, which predicts nothing).
    pub audit: Option<crate::audit::AuditReport>,
}

/// A decompression result.
#[derive(Clone, Debug)]
pub struct Decompressed {
    pub data: NdArray<f32>,
    pub kernels: Vec<KernelStats>,
}

/// How a compress run interacts with an engine session cache (plain
/// [`CuszI::compress`] always uses `None` — no behavioural change for
/// one-shot callers).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) enum SessionMode<'a> {
    /// One-shot: no cache interaction.
    #[default]
    None,
    /// Cold cache miss: run the full graph, then clone out the
    /// reusable artifacts for insertion.
    Harvest,
    /// Cache hit: reuse the cached artifacts, skipping
    /// `tune`/`histogram`/`codebook`.
    Warm(&'a stage::WarmStart),
}

/// The cuSZ-i compressor.
#[derive(Clone, Copy, Debug)]
pub struct CuszI {
    cfg: Config,
}

impl CuszI {
    /// Build a compressor from a configuration.
    pub fn new(cfg: Config) -> Self {
        CuszI { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Compress a field.
    ///
    /// Thin wrapper over the [`crate::stage`] graph: validation, the
    /// constant-field fast path, and error-bound resolution happen
    /// here; everything else is the `tune → predict-quant → histogram →
    /// codebook → huffman-encode → assemble → [bitcomp] → finalize`
    /// stage DAG, which the multi-stream scheduler executes the same
    /// way — archives are byte-identical either route.
    pub fn compress(&self, data: &NdArray<f32>) -> Result<Compressed, CuszError> {
        self.compress_session(data, SessionMode::None).map(|(c, _)| c)
    }

    /// Session-aware compress for [`crate::engine::Engine`]: a `Warm`
    /// mode reuses a previous run's tuned config + codebook (skipping
    /// `tune`/`histogram`/`codebook` with a byte-identical archive —
    /// valid only for identical field content, which the engine
    /// guarantees via content fingerprinting); `Harvest` additionally
    /// clones out the artifacts for the cache after a cold run.
    pub(crate) fn compress_session(
        &self,
        data: &NdArray<f32>,
        mode: SessionMode<'_>,
    ) -> Result<(Compressed, Option<stage::WarmStart>), CuszError> {
        crate::telemetry::init();
        // The dump is written inside the span, so it ends at the failed
        // stage's open bracket and the error, not at this span's end.
        let _span = cuszi_profile::span("compress", Category::Stage);
        crate::telemetry::dump_on_err(self.compress_inner(data, mode))
    }

    fn compress_inner(
        &self,
        data: &NdArray<f32>,
        mode: SessionMode<'_>,
    ) -> Result<(Compressed, Option<stage::WarmStart>), CuszError> {
        let cfg = &self.cfg;
        if cfg.radius == 0 {
            return Err(CuszError::InvalidConfig("radius must be >= 1"));
        }
        let hist_shared = cuszi_huffman::histogram_shared_bytes(2 * cfg.radius as usize);
        if hist_shared > cfg.device.shared_mem_per_block as usize {
            return Err(CuszError::InvalidConfig("radius overflows the histogram's shared memory"));
        }
        if !cfg.error_bound.is_valid() {
            return Err(CuszError::InvalidErrorBound);
        }
        let range = ValueRange::of(data.as_slice()).ok_or(CuszError::NonFiniteInput)?;

        // Constant-field fast path: nothing to predict or encode.
        if range.range() == 0.0 {
            let header = Header {
                version: VERSION,
                flags: FLAG_CONSTANT,
                shape: data.shape(),
                eb_abs: 0.0,
                alpha: 1.0,
                radius: cfg.radius,
                variants: Default::default(),
                order: cuszi_predict::sweep::active_axes(data.shape().rank()).to_vec(),
                const_value: range.min,
                sections: [0; 5],
            };
            return Ok((
                Compressed {
                    bytes: header.to_bytes(),
                    kernels: Vec::new(),
                    sections: SectionSizes { header: HEADER_LEN, ..Default::default() },
                    eb_abs: 0.0,
                    interp: InterpConfig::untuned(data.shape().rank()),
                    audit: None,
                },
                None,
            ));
        }

        let eb_abs = cfg.error_bound.absolute(range.range() as f64);
        let rel_eb = cfg.error_bound.relative(range.range() as f64);
        if !(eb_abs.is_finite() && eb_abs > 0.0) {
            return Err(CuszError::InvalidErrorBound);
        }

        let (graph, mut job) = match mode {
            SessionMode::Warm(warm) => (
                StageGraph::compress_warm(cfg),
                CompressJob::new_warm(data, cfg, eb_abs, rel_eb, warm),
            ),
            _ => (StageGraph::compress(cfg), CompressJob::new(data, cfg, eb_abs, rel_eb)),
        };
        stage::run_compress(&graph, &mut job)?;
        let harvest = match mode {
            SessionMode::Harvest => job.harvest_warm(),
            _ => None,
        };
        Ok((job.into_compressed()?, harvest))
    }

    /// Decompress an archive produced by [`CuszI::compress`].
    ///
    /// The archive is self-describing; only the device model comes from
    /// this codec's configuration.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Decompressed, CuszError> {
        crate::telemetry::init();
        let _span = cuszi_profile::span("decompress", Category::Stage);
        crate::telemetry::dump_on_err(self.decompress_inner(bytes))
    }

    fn decompress_inner(&self, bytes: &[u8]) -> Result<Decompressed, CuszError> {
        let header = Header::from_bytes(bytes)?;

        if header.flags & FLAG_CONSTANT != 0 {
            let mut data = NdArray::zeros(header.shape);
            data.as_mut_slice().fill(header.const_value);
            return Ok(Decompressed { data, kernels: Vec::new() });
        }
        if header.eb_abs <= 0.0 {
            return Err(CuszError::CorruptArchive("non-positive error bound"));
        }

        let graph = StageGraph::decompress(header.flags & FLAG_BITCOMP != 0);
        let mut job = DecompressJob::new(bytes, &header, &self.cfg);
        stage::run_decompress(&graph, &mut job)?;
        let d = job.into_decompressed()?;
        if cuszi_profile::metrics_active() {
            cuszi_profile::count("decompress.fields", 1);
            cuszi_profile::count("decompress.bytes_in", bytes.len() as u64);
            cuszi_profile::count("decompress.bytes_out", (d.data.len() * 4) as u64);
        }
        Ok(d)
    }
}

impl Codec for CuszI {
    fn name(&self) -> &'static str {
        if self.cfg.bitcomp {
            "cuSZ-i w/ Bitcomp"
        } else {
            "cuSZ-i"
        }
    }

    fn compress_bytes(&self, data: &NdArray<f32>) -> Result<(Vec<u8>, CodecArtifacts), CuszError> {
        let c = self.compress(data)?;
        Ok((c.bytes, CodecArtifacts { kernels: c.kernels }))
    }

    fn decompress_bytes(&self, bytes: &[u8]) -> Result<(NdArray<f32>, CodecArtifacts), CuszError> {
        let d = self.decompress(bytes)?;
        Ok((d.data, CodecArtifacts { kernels: d.kernels }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_metrics::{check_error_bound, compression_ratio, distortion};
    use cuszi_quant::ErrorBound;
    use cuszi_tensor::Shape;

    fn field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |z, y, x| {
            ((x as f32) * 0.07).sin() * 3.0
                + ((y as f32) * 0.05).cos() * 2.0
                + ((z as f32) * 0.06).sin()
                + 0.3 * ((x + 2 * y + 3 * z) as f32 * 0.11).sin()
        })
    }

    #[test]
    fn roundtrip_respects_relative_bound() {
        let data = field(Shape::d3(32, 32, 48));
        let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
        let c = codec.compress(&data).unwrap();
        let d = codec.decompress(&c.bytes).unwrap();
        assert_eq!(d.data.shape(), data.shape());
        assert_eq!(check_error_bound(data.as_slice(), d.data.as_slice(), c.eb_abs), None);
    }

    #[test]
    fn roundtrip_absolute_bound_all_ranks() {
        for shape in [Shape::d1(2000), Shape::d2(50, 60), Shape::d3(20, 24, 28)] {
            let data = field(shape);
            let codec = CuszI::new(Config::new(ErrorBound::Abs(5e-3)));
            let c = codec.compress(&data).unwrap();
            let d = codec.decompress(&c.bytes).unwrap();
            assert_eq!(
                check_error_bound(data.as_slice(), d.data.as_slice(), 5e-3),
                None,
                "{shape}"
            );
        }
    }

    #[test]
    fn bitcomp_improves_ratio_on_smooth_data() {
        let data = field(Shape::d3(32, 32, 64));
        let with = CuszI::new(Config::new(ErrorBound::Rel(1e-2)));
        let without = CuszI::new(Config::new(ErrorBound::Rel(1e-2)).without_bitcomp());
        let cw = with.compress(&data).unwrap();
        let co = without.compress(&data).unwrap();
        let n = data.len() * 4;
        let crw = compression_ratio(n, cw.bytes.len());
        let cro = compression_ratio(n, co.bytes.len());
        assert!(crw > cro, "bitcomp {crw:.1} !> plain {cro:.1}");
        // Roundtrip both.
        for (codec, c) in [(&with, &cw), (&without, &co)] {
            let d = codec.decompress(&c.bytes).unwrap();
            assert_eq!(check_error_bound(data.as_slice(), d.data.as_slice(), c.eb_abs), None);
        }
    }

    #[test]
    fn tighter_bound_means_higher_psnr_lower_ratio() {
        let data = field(Shape::d3(24, 32, 40));
        let loose = CuszI::new(Config::new(ErrorBound::Rel(1e-2)));
        let tight = CuszI::new(Config::new(ErrorBound::Rel(1e-4)));
        let cl = loose.compress(&data).unwrap();
        let ct = tight.compress(&data).unwrap();
        assert!(cl.bytes.len() < ct.bytes.len());
        let dl = loose.decompress(&cl.bytes).unwrap();
        let dt = tight.decompress(&ct.bytes).unwrap();
        let pl = distortion(data.as_slice(), dl.data.as_slice()).unwrap().psnr;
        let pt = distortion(data.as_slice(), dt.data.as_slice()).unwrap().psnr;
        assert!(pt > pl + 20.0, "tight {pt:.1} dB vs loose {pl:.1} dB");
    }

    #[test]
    fn constant_field_fast_path() {
        let data = NdArray::from_vec(Shape::d3(8, 8, 8), vec![3.25f32; 512]);
        let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
        let c = codec.compress(&data).unwrap();
        assert_eq!(c.bytes.len(), HEADER_LEN);
        let d = codec.decompress(&c.bytes).unwrap();
        assert_eq!(d.data.as_slice(), data.as_slice());
    }

    #[test]
    fn non_finite_input_rejected() {
        let mut data = NdArray::zeros(Shape::d1(100));
        data.as_mut_slice()[3] = f32::NAN;
        let codec = CuszI::new(Config::new(ErrorBound::Abs(0.1)));
        assert!(matches!(codec.compress(&data), Err(CuszError::NonFiniteInput)));
    }

    #[test]
    fn invalid_bound_rejected() {
        let data = field(Shape::d1(64));
        for eb in [ErrorBound::Abs(0.0), ErrorBound::Rel(-1.0), ErrorBound::Abs(f64::NAN)] {
            assert!(matches!(
                CuszI::new(Config::new(eb)).compress(&data),
                Err(CuszError::InvalidErrorBound)
            ));
        }
    }

    #[test]
    fn corrupt_archives_yield_errors_not_panics() {
        let data = field(Shape::d3(16, 16, 16));
        let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
        let c = codec.compress(&data).unwrap();

        assert!(codec.decompress(&[]).is_err());
        assert!(codec.decompress(&c.bytes[..HEADER_LEN - 1]).is_err());
        assert!(codec.decompress(&c.bytes[..HEADER_LEN + 3]).is_err());

        let mut bad = c.bytes.clone();
        bad[0] = b'Z';
        assert!(matches!(
            codec.decompress(&bad),
            Err(CuszError::CorruptArchive("bad magic"))
        ));

        // Flip payload bytes: must error or produce a different field,
        // never panic.
        let mut bad = c.bytes.clone();
        let span = 32.min(bad.len() - HEADER_LEN);
        for b in bad[HEADER_LEN..HEADER_LEN + span].iter_mut() {
            *b ^= 0xFF;
        }
        let _ = codec.decompress(&bad);
    }

    #[test]
    fn untuned_config_still_roundtrips() {
        let data = field(Shape::d3(20, 20, 20));
        let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)).without_tuning());
        let c = codec.compress(&data).unwrap();
        let d = codec.decompress(&c.bytes).unwrap();
        assert_eq!(check_error_bound(data.as_slice(), d.data.as_slice(), c.eb_abs), None);
    }

    #[test]
    fn section_sizes_accounted() {
        let data = field(Shape::d3(24, 24, 24));
        let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)).without_bitcomp());
        let c = codec.compress(&data).unwrap();
        let s = c.sections;
        assert_eq!(
            s.header + s.anchors + s.codebook + s.huffman + s.outliers,
            c.bytes.len()
        );
        // 3-d anchors are 1/512 of elements (rounded up per axis).
        assert_eq!(s.anchors, cuszi_predict::ginterp::anchor_len(data.shape(), 8) * 4);
    }

    #[test]
    fn kernel_stats_cover_all_stages() {
        let data = field(Shape::d3(16, 16, 32));
        let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
        let c = codec.compress(&data).unwrap();
        // anchors + interp + histogram + 2 huffman passes + 2 bitcomp.
        assert_eq!(c.kernels.len(), 7);
        let d = codec.decompress(&c.bytes).unwrap();
        // bitcomp + gap decode + interp.
        assert_eq!(d.kernels.len(), 3);
        // Decompress must cost no more modelled time than compress —
        // its pipeline reads/writes far less and runs fewer kernels.
        let model = cuszi_gpu_sim::TimingModel::new(codec.config().device);
        let (ct, dt) = (model.pipeline_time(&c.kernels), model.pipeline_time(&d.kernels));
        assert!(dt <= ct, "decompress {dt}s vs compress {ct}s");
    }

    #[test]
    fn radius_past_the_histogram_shared_memory_is_an_invalid_config() {
        use cuszi_gpu_sim::{A100, A40};
        // The histogram keeps 2·radius u32 bins in shared memory: the
        // largest radius that fits is 164 KiB / 8 on the A100 and
        // 100 KiB / 8 on the A40.
        let data = field(Shape::d3(16, 16, 16));
        for (device, radius, fits) in [
            (A100, 32767, false),
            (A40, 32767, false),
            (A100, 20_992, true),
            (A40, 12_800, true),
        ] {
            let cfg = Config::new(ErrorBound::Rel(1e-3)).on_device(device).with_radius(radius);
            let codec = CuszI::new(cfg);
            match codec.compress(&data) {
                Ok(c) => {
                    assert!(fits, "{} radius {radius} must be refused", device.name);
                    let d = codec.decompress(&c.bytes).unwrap();
                    let err = check_error_bound(data.as_slice(), d.data.as_slice(), c.eb_abs);
                    assert_eq!(err, None);
                }
                Err(e) => {
                    assert!(!fits, "{} radius {radius} must compress: {e}", device.name);
                    assert!(matches!(e, CuszError::InvalidConfig(_)), "{e:?}");
                }
            }
        }
    }

    #[test]
    fn tuned_archive_carries_the_profiled_config() {
        let data = field(Shape::d3(24, 24, 24));
        let c = CuszI::new(Config::new(ErrorBound::Rel(1e-3))).compress(&data).unwrap();
        assert_eq!(c.interp, cuszi_predict::tuning::profile_and_tune(&data, 1e-3).0);
        assert_eq!(Header::from_bytes(&c.bytes).unwrap().interp_config(), c.interp);
    }

    #[test]
    fn untuned_archive_carries_the_natural_order_and_eq1_alpha() {
        use cuszi_predict::tuning::alpha_from_rel_eb;
        let data = field(Shape::d3(24, 24, 24));
        let cfg = Config::new(ErrorBound::Rel(1e-3)).without_tuning();
        let c = CuszI::new(cfg).compress(&data).unwrap();
        let want = InterpConfig { alpha: alpha_from_rel_eb(1e-3), ..InterpConfig::untuned(3) };
        assert_eq!(c.interp, want);
        assert_eq!(Header::from_bytes(&c.bytes).unwrap().interp_config(), want);
    }
}
