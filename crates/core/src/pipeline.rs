//! The end-to-end cuSZ-i pipeline.
//!
//! Compress calls its stages in order (paper Fig. 1): `tune →
//! predict-quant → histogram → codebook → huffman-encode → assemble →
//! [bitcomp] → finalize`. The archive is one buffer: `assemble` writes
//! the five payload sections into it behind room for the header;
//! `bitcomp` (present iff [`Config::bitcomp`]) packs that payload in
//! place; `finalize` writes the header into the room left for it.
//! Decompress mirrors it:
//! `[bitcomp-decode] → split-sections → huffman-decode →
//! g-interp-reconstruct`. Each stage's output is a local value handed to
//! the next, and every stage body runs through one helper, `stage`.

use cuszi_gpu_sim::KernelStats;
use cuszi_huffman::{decode_gpu, encode_gpu, histogram_gpu, Codebook, EncodedStream};
use cuszi_predict::ginterp;
use cuszi_predict::tuning::{alpha_from_rel_eb, profile_and_tune, InterpConfig};
use cuszi_predict::PredictOutput;
use cuszi_profile::Category;
use cuszi_quant::Outliers;
use cuszi_tensor::stats::ValueRange;
use cuszi_tensor::NdArray;

use crate::archive::{
    f32_section, split_sections, u64_section, Header, FLAG_BITCOMP, FLAG_CONSTANT, HEADER_LEN,
    VERSION,
};
use crate::config::Config;
use crate::error::CuszError;
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

/// Run one pipeline stage. `body` runs inside a `Category::Stage`
/// bracket named `label` (the span the profile trace and the flight
/// journal record), and the device's sticky fault is drained at the
/// boundary — the `cudaGetLastError` analogue — so any fault `body`'s
/// kernels tripped is attributed to this stage. (Under concurrent
/// streams a sibling job may drain a fault first; the batch still
/// errors — single-stream runs give exact attribution.) A failed stage
/// is deliberately left open in the journal: the dump then shows an
/// unmatched stage-begin right before the terminal error event, which
/// is exactly the forensic shape a black box should have.
fn stage<T>(
    label: &'static str,
    body: impl FnOnce() -> Result<T, CuszError>,
) -> Result<T, CuszError> {
    let bracket = cuszi_profile::span(label, Category::Stage);
    let r = body();
    let r = match cuszi_gpu_sim::fault::take_sticky() {
        Some(f) => Err(CuszError::from_fault(label, f)),
        None => r,
    };
    if r.is_err() {
        bracket.leave_open();
    }
    r
}

/// Shannon entropy of the quant-code distribution, in milli-bits per
/// symbol — the floor the Huffman stage is chasing. Only computed when
/// metrics are consuming it (it walks the histogram).
fn observe_entropy(hist: &[u32]) {
    if !cuszi_profile::metrics_active() {
        return;
    }
    let total: u64 = hist.iter().map(|&c| c as u64).sum();
    if total > 0 {
        let h: f64 = hist
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        cuszi_profile::observe("compress.codebook_entropy_mbits", (h * 1000.0) as u64);
    }
}

/// Write the five payload sections straight into the one buffer that
/// becomes the archive, behind `HEADER_LEN` reserved bytes that
/// `finalize` fills. Every section length is known once `huffman-encode`
/// has run, so the buffer is sized once and each byte written once.
/// Returns the buffer, the section table for the header, and the
/// logical sizes.
fn assemble(
    pred: &PredictOutput,
    book: &Codebook,
    stream: &EncodedStream,
) -> (Vec<u8>, [u64; 5], SectionSizes) {
    let book_bytes = book.to_bytes();
    let (oidx, oval) = (pred.outliers.indices(), pred.outliers.values());
    let lens = [
        pred.anchors.len() * 4,
        book_bytes.len(),
        stream.serialized_len(),
        oidx.len() * 8,
        oval.len() * 4,
    ];
    let total = HEADER_LEN + lens.iter().sum::<usize>();
    let mut buf = Vec::with_capacity(total);
    buf.resize(HEADER_LEN, 0);
    for v in &pred.anchors {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&book_bytes);
    stream.write_to(&mut buf);
    for v in oidx {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for v in oval {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    debug_assert_eq!(buf.len(), total);

    let sizes = SectionSizes {
        header: HEADER_LEN,
        anchors: lens[0],
        codebook: lens[1],
        huffman: lens[2],
        outliers: lens[3] + lens[4],
    };
    (buf, lens.map(|l| l as u64), sizes)
}

/// Split a (Bitcomp-unpacked) payload into anchors, codebook, Huffman
/// stream and outliers, checking each against the header's geometry.
fn split_payload(
    payload: &[u8],
    header: &Header,
) -> Result<(Vec<f32>, Codebook, EncodedStream, Outliers), CuszError> {
    let [anchors_b, book_b, stream_b, oidx_b, oval_b] = split_sections(payload, &header.sections)?;
    let anchors = f32_section(anchors_b)?;
    let book = Codebook::from_bytes(book_b).map_err(|_| CuszError::CorruptArchive("codebook"))?;
    let stream =
        EncodedStream::from_bytes(stream_b).ok_or(CuszError::CorruptArchive("huffman stream"))?;
    if stream.n as usize != header.shape.len() {
        return Err(CuszError::CorruptArchive("stream length != shape"));
    }
    let outliers = Outliers::from_parts(u64_section(oidx_b)?, f32_section(oval_b)?)
        .ok_or(CuszError::CorruptArchive("outlier sections disagree"))?;
    if outliers.indices().iter().any(|&i| i as usize >= header.shape.len()) {
        return Err(CuszError::CorruptArchive("outlier index out of range"));
    }
    let expected_anchors =
        ginterp::anchor_len(header.shape, ginterp::anchor_stride_for_rank(header.shape.rank()));
    if anchors.len() != expected_anchors {
        return Err(CuszError::CorruptArchive("anchor section length"));
    }
    Ok((anchors, book, stream, outliers))
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

    /// Compress a field: validation, the constant-field fast path and
    /// error-bound resolution, then the stages in order. The
    /// multi-stream scheduler and the engine run this same function per
    /// job, so archives are byte-identical every route.
    pub fn compress(&self, data: &NdArray<f32>) -> Result<Compressed, CuszError> {
        crate::telemetry::entry("compress", || {
            let cfg = &self.cfg;
            if cfg.radius == 0 {
                return Err(CuszError::InvalidConfig("radius must be >= 1"));
            }
            let hist_shared = cuszi_huffman::histogram_shared_bytes(2 * cfg.radius as usize);
            if hist_shared > cfg.device.shared_mem_per_block as usize {
                return Err(CuszError::InvalidConfig(
                    "radius overflows the histogram's shared memory",
                ));
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
                return Ok(Compressed {
                    bytes: header.to_bytes(),
                    kernels: Vec::new(),
                    sections: SectionSizes { header: HEADER_LEN, ..Default::default() },
                    eb_abs: 0.0,
                    interp: InterpConfig::untuned(data.shape().rank()),
                    audit: None,
                });
            }

            let eb_abs = cfg.error_bound.absolute(range.range() as f64);
            let rel_eb = cfg.error_bound.relative(range.range() as f64);
            if !(eb_abs.is_finite() && eb_abs > 0.0) {
                return Err(CuszError::InvalidErrorBound);
            }
            let mut kernels = Vec::new();

            // § V-C: profiling + auto-tuning (the untuned ablation still
            // applies Eq. 1's alpha from the relative bound).
            let interp = stage("tune", || {
                Ok(if cfg.auto_tune {
                    profile_and_tune(data, rel_eb).0
                } else {
                    InterpConfig {
                        alpha: alpha_from_rel_eb(rel_eb),
                        ..InterpConfig::untuned(data.shape().rank())
                    }
                })
            })?;

            // § V: G-Interp prediction + quantization, streamed into the
            // fidelity audit when one was asked for (decode-verify is filled
            // in later by whoever holds both fields — see
            // [`crate::audit::verify_decode`]).
            let (pred, audit) = stage("predict-quant", || {
                let pred = ginterp::compress(data, eb_abs, cfg.radius, &interp, &cfg.device);
                let audit = cfg.audit.then(|| {
                    crate::audit::audit_codes(&pred.codes, data.shape(), cfg.radius, eb_abs)
                });
                Ok((pred, audit))
            })?;
            kernels.extend(pred.kernels.iter().copied());

            // § VI-A: quant-code histogram, then the CPU codebook (serial
            // host work — exactly what overlaps with other fields' kernels
            // under the scheduler).
            let (hist, hstats) = stage("histogram", || {
                let alphabet = 2 * cfg.radius as usize;
                let (hist, hstats) = histogram_gpu(
                    &pred.codes,
                    alphabet,
                    cfg.radius,
                    cfg.histogram_topk,
                    &cfg.device,
                );
                observe_entropy(&hist);
                Ok((hist, hstats))
            })?;
            kernels.push(hstats);
            let book = stage("codebook", || {
                Codebook::from_histogram(&hist)
                    .map_err(|_| CuszError::LosslessStage("codebook construction"))
            })?;

            // § VI-A: coarse-grained Huffman encode.
            let (stream, estats) =
                stage("huffman-encode", || Ok(encode_gpu(&pred.codes, &book, &cfg.device)))?;
            kernels.extend(estats);

            let (mut buf, sections, sizes) =
                stage("assemble", || Ok(assemble(&pred, &book, &stream)))?;

            // § VI-B: Bitcomp-lossless pass over the whole payload, packed
            // in place behind the reserved header bytes.
            let flags = if cfg.bitcomp {
                let bstats = stage("bitcomp", || {
                    let (packed, bstats) = cuszi_bitcomp::compress(&buf[HEADER_LEN..], &cfg.device);
                    buf.truncate(HEADER_LEN);
                    buf.extend_from_slice(&packed);
                    Ok(bstats)
                })?;
                kernels.extend(bstats);
                FLAG_BITCOMP
            } else {
                0
            };

            // Write the self-describing header into the reserved bytes.
            let bytes = stage("finalize", || {
                let header = Header {
                    version: VERSION,
                    flags,
                    shape: data.shape(),
                    eb_abs,
                    alpha: interp.alpha,
                    radius: cfg.radius,
                    variants: interp.variants,
                    order: interp.order.clone(),
                    const_value: 0.0,
                    sections,
                };
                buf[..HEADER_LEN].copy_from_slice(&header.to_bytes());
                if cuszi_profile::metrics_active() {
                    let bytes_in = (data.len() * 4) as u64;
                    let bytes_out = buf.len() as u64;
                    let outliers = pred.outliers.indices().len() as u64;
                    cuszi_profile::count("compress.fields", 1);
                    cuszi_profile::count("compress.bytes_in", bytes_in);
                    cuszi_profile::count("compress.bytes_out", bytes_out);
                    cuszi_profile::count("compress.outliers", outliers);
                    // Per-field distributions: CR in parts-per-thousand,
                    // outlier rate in parts-per-million.
                    cuszi_profile::observe("compress.cr_ppt", bytes_in * 1000 / bytes_out.max(1));
                    cuszi_profile::observe(
                        "compress.outlier_rate_ppm",
                        outliers * 1_000_000 / (data.len() as u64).max(1),
                    );
                }
                Ok(buf)
            })?;

            Ok(Compressed { bytes, kernels, sections: sizes, eb_abs, interp, audit })
        })
    }

    /// Decompress an archive produced by [`CuszI::compress`].
    ///
    /// The archive is self-describing; only the device model comes from
    /// this codec's configuration.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Decompressed, CuszError> {
        crate::telemetry::entry("decompress", || {
            let header = Header::from_bytes(bytes)?;

            if header.flags & FLAG_CONSTANT != 0 {
                let mut data = NdArray::zeros(header.shape);
                data.as_mut_slice().fill(header.const_value);
                return Ok(Decompressed { data, kernels: Vec::new() });
            }
            if header.eb_abs <= 0.0 {
                return Err(CuszError::CorruptArchive("non-positive error bound"));
            }
            let device = &self.cfg.device;
            let mut kernels = Vec::new();

            let raw = &bytes[HEADER_LEN..];
            let unpacked;
            let payload = if header.flags & FLAG_BITCOMP != 0 {
                let (p, bstats) = stage("bitcomp-decode", || {
                    cuszi_bitcomp::decompress(raw, device)
                        .map_err(|e| CuszError::LosslessStage(e.0))
                })?;
                kernels.push(bstats);
                unpacked = p;
                &unpacked[..]
            } else {
                raw
            };
            let (anchors, book, stream, outliers) =
                stage("split-sections", || split_payload(payload, &header))?;
            let decoded = stage("huffman-decode", || {
                let decoded = decode_gpu(&stream, &book, device)?;
                cuszi_profile::count("huffman_decode.sectors", decoded.report.sectors);
                Ok(decoded)
            })?;
            kernels.extend(decoded.kernels);
            let (data, gstats) = stage("g-interp-reconstruct", || {
                Ok(ginterp::decompress(
                    &decoded.syms,
                    &anchors,
                    &outliers,
                    header.shape,
                    header.eb_abs,
                    header.radius,
                    &header.interp_config(),
                    device,
                ))
            })?;
            kernels.extend(gstats);

            if cuszi_profile::metrics_active() {
                cuszi_profile::count("decompress.fields", 1);
                cuszi_profile::count("decompress.bytes_in", bytes.len() as u64);
                cuszi_profile::count("decompress.bytes_out", (data.len() * 4) as u64);
            }
            Ok(Decompressed { data, kernels })
        })
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
    fn a_stage_closes_its_bracket_on_success_and_leaves_it_open_on_error() {
        use cuszi_profile::{flight, FlightKind};
        assert_eq!(stage("t-stage-ok", || Ok(7)), Ok(7));
        let err = stage("t-stage-err", || -> Result<(), _> { Err(CuszError::NonFiniteInput) });
        assert_eq!(err, Err(CuszError::NonFiniteInput), "the body's own error comes back");
        let (evs, _) = flight::snapshot();
        let count = |kind, name: &str| {
            evs.iter().filter(|e| e.kind == kind && e.name.as_str() == name).count()
        };
        assert_eq!(count(FlightKind::StageBegin, "t-stage-ok"), 1);
        assert_eq!(count(FlightKind::StageEnd, "t-stage-ok"), 1);
        assert_eq!(count(FlightKind::StageBegin, "t-stage-err"), 1);
        assert_eq!(count(FlightKind::StageEnd, "t-stage-err"), 0, "a failed stage stays open");
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
    fn non_finite_last_element_rejected() {
        // The range scan folds 16 lanes then a tail; a lone NaN in the
        // tail of a length that is not a multiple of 16 must still count.
        let mut data = field(Shape::d3(5, 7, 9));
        let last = data.len() - 1;
        data.as_mut_slice()[last] = f32::NAN;
        let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
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
    fn outlier_index_past_the_field_is_a_corrupt_archive() {
        // A spike no neighbour predicts within the radius is stored as
        // an outlier; point its index past the field's last element.
        let mut data = field(Shape::d3(16, 16, 16));
        data.as_mut_slice()[1234] = 1.0e6;
        let codec = CuszI::new(Config::new(ErrorBound::Abs(1e-3)).without_bitcomp());
        let c = codec.compress(&data).unwrap();
        let n = c.sections.outliers / 12;
        assert!(n > 0, "the spike must be stored as an outlier");
        codec.decompress(&c.bytes).unwrap();

        let mut bad = c.bytes.clone();
        let at = bad.len() - c.sections.outliers;
        bad[at..at + 8].copy_from_slice(&(data.len() as u64).to_le_bytes());
        assert!(matches!(
            codec.decompress(&bad),
            Err(CuszError::CorruptArchive("outlier index out of range"))
        ));
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
        // anchors + interp + histogram + huffman + 2 bitcomp.
        assert_eq!(c.kernels.len(), 6);
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
