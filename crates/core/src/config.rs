//! Compressor configuration.

use cuszi_gpu_sim::{DeviceSpec, A100};
use cuszi_quant::ErrorBound;

/// cuSZ-i configuration. Construct with [`Config::new`] and adjust with
/// the builder methods; the defaults reproduce the paper's evaluated
/// pipeline (the § V-C profiling tuner on, Bitcomp pass on, radius 512,
/// top-32 histogram cache).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// User error bound (Table III uses value-range-relative bounds).
    pub error_bound: ErrorBound,
    /// Outlier threshold `R`; the Huffman alphabet is `2R`. Compression
    /// refuses (`InvalidConfig`) a radius whose `2R`-bin histogram does
    /// not fit the device's per-block shared memory.
    pub radius: u16,
    /// Run the § V-C profiling/auto-tuning kernel (spline + dim order +
    /// Eq. 1 alpha). Off = untuned defaults (the ablation baseline).
    pub auto_tune: bool,
    /// Append the Bitcomp-lossless de-redundancy pass (§ VI-B).
    pub bitcomp: bool,
    /// Top-k register-cached histogram bins (§ VI-A); 0 disables the
    /// cache, 1 is the graceful-degradation fallback.
    pub histogram_topk: usize,
    /// Stream the fidelity audit ([`crate::audit`]) during compression:
    /// per-interp-level outlier/entropy/anchor counters, surfaced in
    /// [`crate::pipeline::Compressed::audit`]. Off by default — the
    /// audit walks the quant-code plane once on the host.
    pub audit: bool,
    /// The GPU the kernels are modelled on.
    pub device: DeviceSpec,
}

impl Config {
    /// The paper's default pipeline at a given error bound.
    pub fn new(error_bound: ErrorBound) -> Self {
        Config {
            error_bound,
            radius: 512,
            auto_tune: true,
            bitcomp: true,
            histogram_topk: 32,
            audit: false,
            device: A100,
        }
    }

    /// Enable the streaming fidelity audit.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Disable the Bitcomp pass (the "cuSZ-i" series of Fig. 7/9, as
    /// opposed to "cuSZ-i w/ Bitcomp").
    pub fn without_bitcomp(mut self) -> Self {
        self.bitcomp = false;
        self
    }

    /// Disable auto-tuning (ablation).
    pub fn without_tuning(mut self) -> Self {
        self.auto_tune = false;
        self
    }

    /// Model a different device.
    pub fn on_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Override the outlier radius.
    pub fn with_radius(mut self, radius: u16) -> Self {
        self.radius = radius;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_pipeline() {
        let c = Config::new(ErrorBound::Rel(1e-3));
        assert_eq!(c.radius, 512);
        assert!(c.auto_tune);
        assert!(c.bitcomp);
        assert_eq!(c.histogram_topk, 32);
        assert!(!c.audit, "the fidelity audit is opt-in");
        assert_eq!(c.device.name, "A100-40GB");
    }

    #[test]
    fn builders_compose() {
        let c = Config::new(ErrorBound::Abs(0.5))
            .without_bitcomp()
            .without_tuning()
            .with_radius(256);
        assert!(!c.bitcomp && !c.auto_tune);
        assert_eq!(c.radius, 256);
    }
}
