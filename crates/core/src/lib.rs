//! **cuSZ-i**: GPU error-bounded lossy compression for scientific data
//! with optimized multi-level interpolation — a faithful Rust
//! reproduction of the SC'24 paper, executing its kernels on the
//! `cuszi-gpu-sim` GPU execution model.
//!
//! # Pipeline (paper Fig. 1)
//!
//! ```text
//! input ──▶ profiling/auto-tuning (§V-C) ──▶ G-Interp predict+quantize (§V)
//!       ──▶ histogram (top-k privatized, §VI-A) ──▶ CPU canonical codebook
//!       ──▶ coarse-grained Huffman encode ──▶ [Bitcomp-lossless] (§VI-B)
//!       ──▶ archive
//! ```
//!
//! # Quick start
//!
//! ```
//! use cuszi_core::{CuszI, Config};
//! use cuszi_quant::ErrorBound;
//! use cuszi_tensor::{NdArray, Shape};
//!
//! let data = NdArray::from_fn(Shape::d3(32, 32, 32), |z, y, x| {
//!     ((x as f32) * 0.1).sin() + (y as f32) * 0.02 + (z as f32) * 0.01
//! });
//! let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
//! let compressed = codec.compress(&data).unwrap();
//! let decompressed = codec.decompress(&compressed.bytes).unwrap();
//! assert_eq!(decompressed.data.shape(), data.shape());
//! ```
//!
//! # Error handling
//!
//! Everything reachable from hostile input — bad bounds, NaN fields,
//! corrupt archives, injected device faults — is a typed [`CuszError`],
//! never a panic. The lint gate below enforces it; the one sanctioned
//! exception is [`wire`]'s length-checked little-endian readers.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod archive;
pub mod arena;
pub mod audit;
pub mod batch;
pub mod config;
pub mod engine;
pub mod error;
pub mod pipeline;
pub mod quality;
pub mod pwrel;
pub mod report;
pub mod sched;
pub mod shard;
pub mod stage;
pub mod stream;
pub(crate) mod telemetry;
pub mod traits;
pub(crate) mod wire;

pub use arena::ScratchArena;
pub use audit::{AuditReport, LevelAudit};
pub use config::Config;
pub use engine::{
    Engine, EngineConfig, EngineError, EngineStats, JobOutput, JobResult, Priority, Ticket,
};
// Surface the calibrated autotuner so front ends (CLI, bench) can
// print its decision without a direct predict dependency.
pub use cuszi_predict::tuning::{autotune, AutotuneDecision};
pub use error::{CuszError, StageFaultKind};
pub use pipeline::{Compressed, CuszI, Decompressed, SectionSizes};
pub use quality::{compress_to_psnr, QualityResult};
pub use batch::{compress_fields_streams, decompress_fields_streams, Container, NamedField};
pub use pwrel::{compress_pw_rel, decompress_pw_rel, PwRelCompressed};
pub use report::{render_breakdown, stage_breakdown, StageCost};
pub use sched::{default_streams, ScheduleReport};
pub use shard::{
    compress_fields_sharded, compress_slabs_sharded, decompress_fields_sharded,
    decompress_slabs_sharded, DeviceShardReport, ShardPlan, ShardReport,
};
pub use stage::{StageGraph, StageKind};
pub use stream::{compress_slabs_streams, decompress_slabs_streams};
pub use traits::{Codec, CodecArtifacts};
