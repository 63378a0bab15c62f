//! The baseline compressors of the paper's evaluation (§ VII-A):
//!
//! | codec | design (paper § II) | module |
//! |---|---|---|
//! | cuSZ   | Lorenzo dual-quant + coarse-grained Huffman | [`cusz`] |
//! | cuSZp  | fused 1-d blockwise Lorenzo + fixed-length encoding | [`cuszp`] |
//! | cuSZx  | monolithic blockwise constant/mean + truncated residuals | [`cuszx`] |
//! | FZ-GPU | Lorenzo + bitshuffle + zero-word dedup (no Huffman) | [`fzgpu`] |
//! | cuZFP  | fixed-rate transform coding on 4^3 blocks | [`cuzfp`] |
//! | QoZ    | CPU whole-grid tuned interpolation (reference curve) | [`qoz`] |
//!
//! All implement [`cuszi_core::Codec`]; [`with_bitcomp`] wraps any of
//! them with the external Bitcomp pass used for the right half of
//! Table III ("for fairness, we apply Bitcomp-lossless to all other
//! compressors' outputs").
//!
//! Archives are a small header plus core's checked `[u64 len][body]`
//! entries, and cuSZ and QoZ decode with cuSZ-i's gap-array decoder, so
//! corrupt input is a typed [`CuszError`] here exactly as in core.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod common;
pub mod cusz;
pub mod cuszp;
pub mod cuszx;
pub mod cuzfp;
pub mod fzgpu;
pub mod qoz;

pub use cusz::Cusz;
pub use cuszp::Cuszp;
pub use cuszx::Cuszx;
pub use cuzfp::Cuzfp;
pub use fzgpu::FzGpu;
pub use qoz::Qoz;

use cuszi_core::{Codec, CodecArtifacts, CuszError};
use cuszi_gpu_sim::DeviceSpec;
use cuszi_tensor::NdArray;

/// Wrap a codec with an external Bitcomp-lossless pass over its archive
/// (Table III columns i-iv).
pub struct WithBitcomp<C> {
    inner: C,
    device: DeviceSpec,
}

/// Construct a [`WithBitcomp`] wrapper.
pub fn with_bitcomp<C: Codec>(inner: C, device: DeviceSpec) -> WithBitcomp<C> {
    WithBitcomp { inner, device }
}

impl<C: Codec> Codec for WithBitcomp<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress_bytes(&self, data: &NdArray<f32>) -> Result<(Vec<u8>, CodecArtifacts), CuszError> {
        let (bytes, mut art) = self.inner.compress_bytes(data)?;
        let (packed, stats) = cuszi_bitcomp::compress(&bytes, &self.device);
        art.kernels.extend(stats);
        Ok((packed, art))
    }

    fn decompress_bytes(&self, bytes: &[u8]) -> Result<(NdArray<f32>, CodecArtifacts), CuszError> {
        let (raw, stats) = cuszi_bitcomp::decompress(bytes, &self.device)
            .map_err(|e| CuszError::LosslessStage(e.0))?;
        let (data, mut art) = self.inner.decompress_bytes(&raw)?;
        art.kernels.push(stats);
        Ok((data, art))
    }
}
