//! QoZ: the CPU interpolation-based reference compressor (§ VII-C.2's
//! "latest interpolation-based art on the CPU platform"). Whole-grid
//! tuned multi-level interpolation (anchor stride 64) + the same
//! Huffman + Bitcomp lossless stack. No GPU kernels — its throughput in
//! the case studies is the published single-core figure
//! ([`QOZ_CPU_THROUGHPUT_GBPS`]).

use cuszi_core::archive::{entry, f32_section, f64_le, put_entry};
use cuszi_core::{Codec, CodecArtifacts, CuszError};
use cuszi_gpu_sim::{DeviceSpec, A100};
use cuszi_huffman::{decode_gpu, encode_gpu, histogram_gpu, Codebook, EncodedStream};
use cuszi_predict::cpu_interp::{self, CpuInterpParams};
use cuszi_predict::splines::CubicVariant;
use cuszi_predict::tuning::profile_and_tune;
use cuszi_quant::ErrorBound;
use cuszi_tensor::stats::ValueRange;
use cuszi_tensor::NdArray;

use crate::common::{
    push_outliers, read_header, read_outliers, resolve_eb, write_header, BASE_HEADER_LEN,
};

const MAGIC: &[u8; 4] = b"QOZ_";
const RADIUS: u16 = 512;

/// The single-core compression rate the paper cites for QoZ (§ I:
/// "QoZ achieves a single-core compressing rate of up to 0.23 GB/s").
pub const QOZ_CPU_THROUGHPUT_GBPS: f64 = 0.23;

/// The QoZ CPU reference codec.
#[derive(Clone, Copy, Debug)]
pub struct Qoz {
    pub eb: ErrorBound,
}

impl Qoz {
    /// Standard configuration at a bound.
    pub fn new(eb: ErrorBound) -> Self {
        Qoz { eb }
    }

    fn device() -> DeviceSpec {
        // The Huffman/Bitcomp helpers need a device handle for their
        // traffic accounting; QoZ's reported throughput ignores it.
        A100
    }
}

impl Codec for Qoz {
    fn name(&self) -> &'static str {
        "QoZ (CPU)"
    }

    fn compress_bytes(&self, data: &NdArray<f32>) -> Result<(Vec<u8>, CodecArtifacts), CuszError> {
        let eb = resolve_eb(data, self.eb)?;
        let range = ValueRange::of(data.as_slice()).ok_or(CuszError::NonFiniteInput)?;
        let rel = self.eb.relative(range.range() as f64);
        let (cfg, _) = profile_and_tune(data, rel);
        let params = CpuInterpParams::qoz();
        let pred = cpu_interp::compress(data, eb, RADIUS, &cfg, params);

        let (hist, _) =
            histogram_gpu(&pred.codes, 2 * RADIUS as usize, RADIUS, 0, &Self::device());
        let book =
            Codebook::from_histogram(&hist).map_err(|_| CuszError::LosslessStage("codebook"))?;
        let (stream, _) = encode_gpu(&pred.codes, &book, &Self::device());

        // Payload: tuned config + anchors + codebook + stream + outliers,
        // then the lossless de-redundancy pass (zstd in real QoZ; our
        // bitcomp substitute here).
        let mut payload = Vec::new();
        let mut cfg_bytes = Vec::new();
        cfg_bytes.extend_from_slice(&cfg.alpha.to_le_bytes());
        cfg_bytes.push(
            cfg.variants
                .iter()
                .enumerate()
                .fold(0u8, |a, (i, v)| a | ((*v == CubicVariant::Natural) as u8) << i),
        );
        cfg_bytes.push(cfg.order.len() as u8);
        cfg_bytes.extend(cfg.order.iter().map(|&o| o as u8));
        put_entry(&mut payload, &cfg_bytes);
        let anchors_b: Vec<u8> = pred.anchors.iter().flat_map(|v| v.to_le_bytes()).collect();
        put_entry(&mut payload, &anchors_b);
        put_entry(&mut payload, &book.to_bytes());
        put_entry(&mut payload, &stream.to_bytes());
        push_outliers(&mut payload, &pred.outliers);

        let (packed, _) = cuszi_bitcomp::compress(&payload, &Self::device());
        let mut out = write_header(MAGIC, data.shape(), eb);
        out.extend_from_slice(&packed);
        Ok((out, CodecArtifacts { kernels: Vec::new() }))
    }

    fn decompress_bytes(&self, bytes: &[u8]) -> Result<(NdArray<f32>, CodecArtifacts), CuszError> {
        let (shape, eb) = read_header(bytes, MAGIC)?;
        if eb <= 0.0 {
            return Err(CuszError::CorruptArchive("non-positive error bound"));
        }
        let (payload, _) =
            cuszi_bitcomp::decompress(&bytes[BASE_HEADER_LEN..], &Self::device())
                .map_err(|e| CuszError::LosslessStage(e.0))?;
        let mut at = 0u64;
        let cfg_b = &payload[entry(&payload, &mut at, "qoz config truncated")?];
        if cfg_b.len() < 10 {
            return Err(CuszError::CorruptArchive("qoz config truncated"));
        }
        let alpha = f64_le(cfg_b, 0);
        if !(alpha.is_finite() && alpha >= 1.0) {
            return Err(CuszError::CorruptArchive("qoz alpha"));
        }
        let vbits = cfg_b[8];
        let order_len = cfg_b[9] as usize;
        if cfg_b.len() != 10 + order_len || order_len != shape.rank() {
            return Err(CuszError::CorruptArchive("qoz order"));
        }
        let mut order = Vec::with_capacity(order_len);
        for i in 0..order_len {
            let o = cfg_b[10 + i] as usize;
            if o > 2 || order.contains(&o) {
                return Err(CuszError::CorruptArchive("qoz order"));
            }
            order.push(o);
        }
        let cfg = cuszi_predict::tuning::InterpConfig {
            alpha,
            variants: [
                if vbits & 1 != 0 { CubicVariant::Natural } else { CubicVariant::NotAKnot },
                if vbits & 2 != 0 { CubicVariant::Natural } else { CubicVariant::NotAKnot },
                if vbits & 4 != 0 { CubicVariant::Natural } else { CubicVariant::NotAKnot },
            ],
            order,
        };

        let anchors = f32_section(&payload[entry(&payload, &mut at, "qoz anchors truncated")?])?;
        let params = CpuInterpParams::qoz();
        let expected =
            cuszi_predict::ginterp::anchor_len(shape, params.anchor_stride);
        if anchors.len() != expected {
            return Err(CuszError::CorruptArchive("qoz anchor count"));
        }
        let book =
            Codebook::from_bytes(&payload[entry(&payload, &mut at, "qoz codebook truncated")?])
                .map_err(|_| CuszError::CorruptArchive("qoz codebook"))?;
        let stream =
            EncodedStream::from_bytes(&payload[entry(&payload, &mut at, "qoz stream truncated")?])
                .ok_or(CuszError::CorruptArchive("qoz stream"))?;
        if stream.n as usize != shape.len() {
            return Err(CuszError::CorruptArchive("qoz stream length"));
        }
        let outliers = read_outliers(&payload, &mut at, shape.len())?;
        let codes = decode_gpu(&stream, &book, &Self::device())?.syms;
        let data =
            cpu_interp::decompress(&codes, &anchors, &outliers, shape, eb, RADIUS, &cfg, params);
        Ok((data, CodecArtifacts { kernels: Vec::new() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_metrics::check_error_bound;
    use cuszi_tensor::Shape;

    fn field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |z, y, x| {
            ((x as f32) * 0.07).sin() * 2.0 + ((y as f32) * 0.06).cos() + (z as f32) * 0.015
        })
    }

    #[test]
    fn roundtrip_bounded() {
        let data = field(Shape::d3(40, 40, 40));
        let codec = Qoz::new(ErrorBound::Rel(1e-3));
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        let (_, eb) = read_header(&bytes, MAGIC).unwrap();
        let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
        assert_eq!(check_error_bound(data.as_slice(), recon.as_slice(), eb), None);
    }

    #[test]
    fn qoz_beats_or_matches_cusz_ratio_on_smooth_data() {
        // The paper's § VII-C.2 finding: CPU QoZ still edges out the GPU
        // compressors in ratio.
        use crate::cusz::Cusz;
        use cuszi_gpu_sim::A100;
        let data = field(Shape::d3(48, 48, 48));
        let qoz = Qoz::new(ErrorBound::Rel(1e-3));
        let cusz = Cusz::new(ErrorBound::Rel(1e-3), A100);
        let (qb, _) = qoz.compress_bytes(&data).unwrap();
        let (cb, _) = cusz.compress_bytes(&data).unwrap();
        assert!(
            qb.len() <= cb.len(),
            "QoZ {} bytes should be <= cuSZ {} bytes",
            qb.len(),
            cb.len()
        );
    }

    #[test]
    fn corrupt_archive_errors() {
        let data = field(Shape::d2(32, 32));
        let codec = Qoz::new(ErrorBound::Abs(1e-3));
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        assert!(codec.decompress_bytes(&bytes[..50]).is_err());
    }
}
