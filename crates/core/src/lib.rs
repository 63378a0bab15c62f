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
//! [`CuszI::compress`] calls these stages in order as straight-line
//! code in [`pipeline`], each stage's output a local value handed to
//! the next; [`CuszI::decompress`] runs the mirror chain. Every stage
//! opens a profile/flight-journal bracket under its label and drains
//! the device's sticky fault at its boundary, so an error names the
//! stage it happened in.
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
//! exception is `wire`'s length-checked little-endian readers.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod archive;
pub mod audit;
pub mod batch;
pub mod config;
pub mod engine;
pub mod error;
pub mod pipeline;
pub mod report;
pub mod sched;
pub mod shard;
pub mod stream;
pub(crate) mod telemetry;
pub mod traits;
pub(crate) mod wire;

pub use audit::{AuditReport, LevelAudit};
pub use config::Config;
pub use engine::{Engine, EngineConfig, EngineError, EngineStats, JobOutput, JobResult, Ticket};
pub use error::{CuszError, StageFaultKind};
pub use pipeline::{Compressed, CuszI, Decompressed, SectionSizes};
pub use batch::{compress_fields_streams, decompress_fields_streams, Container, NamedField};
pub use report::{render_breakdown, stage_breakdown, StageCost};
pub use sched::{default_streams, ScheduleReport};
pub use shard::{
    compress_fields_sharded, compress_slabs_sharded, decompress_fields_sharded,
    decompress_slabs_sharded, DeviceShardReport, ShardPlan, ShardReport,
};
pub use stream::{compress_slabs_streams, decompress_slabs_streams};
pub use traits::{Codec, CodecArtifacts};
