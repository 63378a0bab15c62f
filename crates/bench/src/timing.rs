//! Minimal wall-clock timing harness.
//!
//! The workspace builds offline with no registry access, so criterion
//! is unavailable; this is the subset the benches actually need —
//! warmup, N samples, min/mean wall-clock, and bytes-based throughput.
//!
//! Environment knobs:
//! - `CUSZI_BENCH_SAMPLES=N` — timed samples per measurement.
//! - `CUSZI_BENCH_QUICK=1` — quick mode (2 samples) for CI smoke runs.

use std::time::Instant;

/// Harness configuration: how many samples each measurement takes.
#[derive(Clone, Copy, Debug)]
pub struct Bench {
    pub samples: usize,
    pub warmup: usize,
}

impl Bench {
    /// Defaults (1 warmup + 5 samples), overridable via
    /// `CUSZI_BENCH_SAMPLES` and `CUSZI_BENCH_QUICK`.
    pub fn from_env() -> Self {
        let quick = std::env::var("CUSZI_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
        let samples = std::env::var("CUSZI_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(if quick { 2 } else { 5 });
        Self { samples: samples.max(1), warmup: 1 }
    }

    /// Time `f`: `warmup` untimed runs, then `samples` timed ones.
    /// Prints one aligned line and returns the measurement.
    pub fn run<R>(&self, name: &str, bytes: Option<u64>, mut f: impl FnMut() -> R) -> Measurement {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut secs = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            secs.push(t0.elapsed().as_secs_f64());
        }
        let m = Measurement::new(name, bytes, &secs);
        println!("{m}");
        m
    }
}

/// One timed result.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub name: String,
    pub bytes: Option<u64>,
    pub mean_s: f64,
    pub min_s: f64,
    pub samples: usize,
}

impl Measurement {
    /// Aggregate raw per-sample wall-clock seconds.
    pub fn new(name: &str, bytes: Option<u64>, secs: &[f64]) -> Self {
        assert!(!secs.is_empty());
        Self {
            name: name.to_string(),
            bytes,
            mean_s: secs.iter().sum::<f64>() / secs.len() as f64,
            min_s: secs.iter().cloned().fold(f64::INFINITY, f64::min),
            samples: secs.len(),
        }
    }

    /// Best-sample throughput in MB/s (decimal MB, the paper's unit),
    /// when a byte count was supplied.
    pub fn mbps(&self) -> Option<f64> {
        self.bytes.map(|b| b as f64 / self.min_s / 1e6)
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<36} {:>10.3} ms  (mean {:>10.3} ms, n={})",
            self.name,
            self.min_s * 1e3,
            self.mean_s * 1e3,
            self.samples
        )?;
        if let Some(r) = self.mbps() {
            write!(f, "  {r:>9.1} MB/s")?;
        }
        Ok(())
    }
}

/// Print a section header matching the measurement line layout.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_aggregates_min_and_mean() {
        let m = Measurement::new("x", Some(2_000_000), &[0.002, 0.001, 0.003]);
        assert!((m.mean_s - 0.002).abs() < 1e-12);
        assert!((m.min_s - 0.001).abs() < 1e-12);
        // 2 MB in 1 ms = 2000 MB/s.
        assert!((m.mbps().unwrap() - 2000.0).abs() < 1e-6);
        assert_eq!(m.samples, 3);
    }

    #[test]
    fn no_bytes_means_no_throughput() {
        let m = Measurement::new("x", None, &[0.5]);
        assert!(m.mbps().is_none());
        assert!(!format!("{m}").contains("MB/s"));
    }

    #[test]
    fn measurement_line_shows_best_mean_samples_and_throughput() {
        let m = Measurement::new("stage", Some(3_000_000), &[0.004, 0.002]);
        let line = format!("{m}");
        assert!(line.starts_with("stage "), "{line}");
        assert!(line.contains("2.000 ms"), "best sample leads: {line}");
        assert!(line.contains("(mean      3.000 ms, n=2)"), "{line}");
        // 3 MB in the best 2 ms = 1500 MB/s.
        assert!(line.ends_with("1500.0 MB/s"), "{line}");
    }

    #[test]
    fn bench_runs_closure_samples_plus_warmup_times() {
        let b = Bench { samples: 3, warmup: 1 };
        let mut calls = 0usize;
        let m = b.run("counter", None, || calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(m.samples, 3);
    }
}
