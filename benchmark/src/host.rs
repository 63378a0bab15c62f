//! What the run needs to know about the machine it runs on.

use std::time::Instant;

/// Refuse to measure under any `CUSZI_*` variable: they switch pools,
/// stream counts, fault injection and profiling inside the crates, so
/// a number taken with one set describes another program.
pub fn refuse_cuszi_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CUSZI_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: unset it and run again",
            set.join(", ")
        ))
    }
}

/// Cores the process may use; also the caller/stream count of every
/// workload.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Wall time of a fixed std-only arithmetic loop, in ms: the best of
/// five, so that it reads the machine's speed and not one preemption.
/// Taken before and after a workload; the two disagreeing by more than
/// [`CALIB_TOLERANCE`] marks the run suspect.
pub fn calib_ms() -> f64 {
    let mut best = f64::INFINITY;
    for round in 0..5u64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
        let mut acc = 0.0f64;
        for _ in 0..8_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999_999 + (x >> 40) as f64;
        }
        std::hint::black_box(acc);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Largest relative disagreement between two calibrations that still
/// counts as the same machine state.
pub const CALIB_TOLERANCE: f64 = 0.10;

/// Whether two calibrations differ by more than [`CALIB_TOLERANCE`].
pub fn calib_suspect(before_ms: f64, after_ms: f64) -> bool {
    let lo = before_ms.min(after_ms);
    lo <= 0.0 || (before_ms - after_ms).abs() / lo > CALIB_TOLERANCE
}

/// Peak resident set of this process (`VmHWM`), in decimal MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_guard() {
        assert!(!calib_suspect(20.0, 21.9));
        assert!(calib_suspect(20.0, 22.1));
        assert!(calib_suspect(22.1, 20.0));
        assert!(calib_suspect(0.0, 20.0));
        assert!(calib_ms() > 0.0);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
