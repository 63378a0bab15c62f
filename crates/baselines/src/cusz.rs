//! cuSZ: Lorenzo dual-quant prediction + coarse-grained Huffman
//! (§ II, § III-A) — the strongest GPU baseline in Table III and the
//! design basis of cuSZ-i.

use cuszi_core::archive::{entry, put_entry};
use cuszi_core::{Codec, CodecArtifacts, CuszError};
use cuszi_gpu_sim::DeviceSpec;
use cuszi_huffman::{decode_gpu, encode_gpu, histogram_gpu, Codebook, EncodedStream};
use cuszi_predict::lorenzo;
use cuszi_quant::ErrorBound;
use cuszi_tensor::NdArray;

use crate::common::{
    push_outliers, read_header, read_outliers, resolve_eb, write_header, BASE_HEADER_LEN,
};

const MAGIC: &[u8; 4] = b"CUSZ";
const RADIUS: u16 = 512;

/// The cuSZ baseline codec.
#[derive(Clone, Copy, Debug)]
pub struct Cusz {
    pub eb: ErrorBound,
    pub device: DeviceSpec,
}

impl Cusz {
    /// Standard configuration at a bound.
    pub fn new(eb: ErrorBound, device: DeviceSpec) -> Self {
        Cusz { eb, device }
    }
}

impl Codec for Cusz {
    fn name(&self) -> &'static str {
        "cuSZ"
    }

    fn compress_bytes(&self, data: &NdArray<f32>) -> Result<(Vec<u8>, CodecArtifacts), CuszError> {
        let eb = resolve_eb(data, self.eb)?;
        let pred = lorenzo::compress(data, eb, RADIUS, &self.device);
        let mut kernels = pred.kernels.clone();

        let (hist, hstats) =
            histogram_gpu(&pred.codes, 2 * RADIUS as usize, RADIUS, 1, &self.device);
        kernels.push(hstats);
        let book = Codebook::from_histogram(&hist)
            .map_err(|_| CuszError::LosslessStage("codebook"))?;
        let (stream, estats) = encode_gpu(&pred.codes, &book, &self.device);
        kernels.extend(estats);

        let mut out = write_header(MAGIC, data.shape(), eb);
        put_entry(&mut out, &book.to_bytes());
        put_entry(&mut out, &stream.to_bytes());
        push_outliers(&mut out, &pred.outliers);
        Ok((out, CodecArtifacts { kernels }))
    }

    fn decompress_bytes(&self, bytes: &[u8]) -> Result<(NdArray<f32>, CodecArtifacts), CuszError> {
        let (shape, eb) = read_header(bytes, MAGIC)?;
        if eb <= 0.0 {
            return Err(CuszError::CorruptArchive("non-positive error bound"));
        }
        let mut at = BASE_HEADER_LEN as u64;
        let book = Codebook::from_bytes(&bytes[entry(bytes, &mut at, "codebook truncated")?])
            .map_err(|_| CuszError::CorruptArchive("codebook"))?;
        let stream =
            EncodedStream::from_bytes(&bytes[entry(bytes, &mut at, "huffman stream truncated")?])
                .ok_or(CuszError::CorruptArchive("huffman stream"))?;
        if stream.n as usize != shape.len() {
            return Err(CuszError::CorruptArchive("stream length != shape"));
        }
        let outliers = read_outliers(bytes, &mut at, shape.len())?;

        let decoded = decode_gpu(&stream, &book, &self.device)?;
        let mut kernels = decoded.kernels;
        let (data, lstats) =
            lorenzo::decompress(&decoded.syms, &outliers, shape, eb, RADIUS, &self.device);
        kernels.extend(lstats);
        Ok((data, CodecArtifacts { kernels }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::A100;
    use cuszi_metrics::check_error_bound;
    use cuszi_tensor::Shape;

    fn field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |z, y, x| {
            ((x as f32) * 0.08).sin() * 2.0 + ((y as f32) * 0.05).cos() + (z as f32) * 0.02
                + 0.2 * ((x * y + z) as f32 * 0.013).sin()
        })
    }

    #[test]
    fn roundtrip_rel_bound() {
        let data = field(Shape::d3(24, 24, 40));
        let codec = Cusz::new(ErrorBound::Rel(1e-3), A100);
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
        // The applied absolute bound travels in the header.
        let (_, eb) = read_header(&bytes, MAGIC).unwrap();
        assert_eq!(check_error_bound(data.as_slice(), recon.as_slice(), eb), None);
        assert!(bytes.len() < data.len() * 4, "must actually compress");
    }

    #[test]
    fn roundtrip_all_ranks() {
        for shape in [Shape::d1(3000), Shape::d2(40, 50), Shape::d3(16, 20, 24)] {
            let data = field(shape);
            let codec = Cusz::new(ErrorBound::Abs(1e-3), A100);
            let (bytes, _) = codec.compress_bytes(&data).unwrap();
            let (recon, _) = codec.decompress_bytes(&bytes).unwrap();
            assert_eq!(check_error_bound(data.as_slice(), recon.as_slice(), 1e-3), None);
        }
    }

    #[test]
    fn corrupt_input_errors() {
        let codec = Cusz::new(ErrorBound::Abs(1e-3), A100);
        assert!(codec.decompress_bytes(&[]).is_err());
        let data = field(Shape::d3(8, 8, 8));
        let (bytes, _) = codec.compress_bytes(&data).unwrap();
        assert!(codec.decompress_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn tampered_gap_is_attributed_decode_corrupt() {
        // cuSZ decodes with cuSZ-i's gap-array decoder, so a stored
        // codeword start that disagrees with the bitstream surfaces as
        // the same chunk- and sector-attributed error.
        let codec = Cusz::new(ErrorBound::Abs(1e-3), A100);
        let (bytes, _) = codec.compress_bytes(&field(Shape::d3(16, 20, 24))).unwrap();
        let mut at = BASE_HEADER_LEN as u64;
        let book = entry(&bytes, &mut at, "codebook").unwrap();
        let body = entry(&bytes, &mut at, "stream").unwrap();
        let mut stream = EncodedStream::from_bytes(&bytes[body.clone()]).unwrap();
        stream.gaps[0] ^= 1;
        let mut bad = bytes[..book.end].to_vec();
        put_entry(&mut bad, &stream.to_bytes());
        bad.extend_from_slice(&bytes[body.end..]);
        match codec.decompress_bytes(&bad) {
            Err(CuszError::DecodeCorrupt { chunk: Some(0), sector: Some(0), .. }) => {}
            other => panic!("expected DecodeCorrupt at chunk 0 sector 0, got {:?}", other.err()),
        }
    }
}
