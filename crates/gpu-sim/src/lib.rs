//! A GPU execution model for reproducing CUDA kernels on CPU.
//!
//! The cuSZ-i paper is evaluated on NVIDIA A100/A40 GPUs. This environment
//! has no GPU, so every kernel in the reproduction is written against this
//! substrate instead of CUDA. The substrate preserves the two properties
//! the paper's results actually depend on:
//!
//! 1. **The block/tile decomposition.** Kernels are expressed per thread
//!    block over a launch [`Grid`], with explicit shared-memory tiles and
//!    barrier-phased execution — the same structure § V-D of the paper
//!    describes (32x8x8 chunks, 33x9x9 tiles, level barriers). Blocks run
//!    data-parallel across CPU cores via the std-thread [`pool`];
//!    intra-block code runs sequentially between logical barriers, which
//!    is semantically equivalent to the barrier-synchronised CUDA
//!    original.
//!
//! 2. **Memory-traffic accounting.** Every global-memory access goes
//!    through counting views that model 32-byte-sector coalescing, so each
//!    kernel's DRAM transaction count is *measured from execution*, not
//!    assumed. A roofline [`timing::TimingModel`] parameterised with the
//!    Table I device specs converts measured traffic + FLOPs into the
//!    simulated throughputs of Fig. 9.
//!
//! The host-side hot path is lock-free and allocation-free per block:
//! per-block results land in preallocated [`BlockSlots`], shared tiles
//! and scratch buffers are pooled per worker thread, and coalescing
//! accounting runs on fixed stack buffers. Results are identical for any
//! worker-thread count by construction (see [`pool`]).
//!
//! What the substrate deliberately does not model: warp divergence, cache
//! hierarchy beyond coalescing, and instruction-level behaviour — these
//! affect absolute throughput constants (absorbed into calibrated
//! efficiency factors) but not the ranking/shape the reproduction targets.

pub mod device;
pub mod exec;
pub mod fault;
pub mod hook;
pub mod multi;
pub mod pool;
pub mod shared;
pub mod stats;
pub mod stream;
pub mod timing;

pub use device::{DeviceSpec, A100, A40};
pub use exec::{launch, launch_named, BlockCtx, BlockSlots, Dim3, GlobalRead, GlobalWrite, Grid};
pub use fault::{Fault, FaultKind, FaultSpec};
pub use multi::{current_device, on_device, MAX_DEVICES};
pub use hook::LaunchRecord;
pub use shared::{ScratchVec, SharedTile};
pub use stats::{AtomicKernelStats, KernelStats};
pub use stream::{with_streams, Event, Stream};
pub use timing::{Bottleneck, TimeBreakdown, TimingModel};
