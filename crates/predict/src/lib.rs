//! Data predictors for the cuSZ-i reproduction.
//!
//! Three predictor families, matching the paper's landscape:
//!
//! * [`ginterp`] — **G-Interp** (§ V), the paper's contribution: a
//!   block-confined multi-level spline interpolation predictor with
//!   losslessly stored anchor points, level-wise error bounds and
//!   profiling-based auto-tuning, written as GPU kernels against
//!   `cuszi-gpu-sim`.
//! * [`lorenzo`] — the prequantised Lorenzo predictor used by cuSZ,
//!   cuSZp and FZ-GPU (the baseline G-Interp is measured against).
//! * [`cpu_interp`] — whole-grid multi-level interpolation in the style
//!   of SZ3/QoZ, the CPU reference curve of Fig. 7a and the "SZ3 (CPU)"
//!   series of Figs. 5-6.
//!
//! All predictors emit the same artifact set ([`PredictOutput`]): a dense
//! plane of biased quant-codes, a compacted outlier side channel, an
//! optional lossless anchor lattice, and the kernel stats consumed by the
//! Fig. 9 timing model.

pub mod cpu_interp;
pub mod ginterp;
pub mod lanes;
pub mod lorenzo;
pub mod splines;
pub mod sweep;
pub mod tuning;

#[doc(hidden)]
pub use lanes::force_scalar_sweep;

use cuszi_gpu_sim::KernelStats;
use cuszi_quant::Outliers;

/// Everything a predictor stage produces for the lossless stages.
#[derive(Clone, Debug)]
pub struct PredictOutput {
    /// One biased quant-code per input element (`0` = outlier; anchors
    /// carry the zero-error code).
    pub codes: Vec<u16>,
    /// Stream-compacted exact values for out-of-band elements.
    pub outliers: Outliers,
    /// Losslessly stored anchor lattice, row-major over the anchor grid
    /// (empty for Lorenzo).
    pub anchors: Vec<f32>,
    /// Stats of each kernel the stage executed, in launch order.
    pub kernels: Vec<KernelStats>,
}
