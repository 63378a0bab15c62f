//! Metrics registry: named monotonic counters and log-bucket histograms.
//!
//! Counters accumulate exact integer totals (bytes in/out, outliers,
//! fields processed); histograms capture distributions (per-field
//! compression ratio in parts-per-thousand, codebook entropy in
//! milli-bits) in power-of-two buckets. Everything is keyed by plain
//! string names so call sites stay one line.
//!
//! The registry is not on the per-element hot path — call sites record
//! once per field/slab/stage — so a mutex-guarded map is the right
//! trade: exact, ordered snapshots with zero unsafe code.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of log2 buckets (covers the full `u64` range).
pub const HIST_BUCKETS: usize = 65;

/// A power-of-two-bucket histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[b]` counts samples with
    /// `2^(b-1) <= v < 2^b`.
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn record(&mut self, v: u64) {
        let b = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Arithmetic mean of the recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// An ordered, self-consistent copy of the registry at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// The part of `self` recorded *after* `earlier` — per-request /
    /// per-interval scoping over a shared registry: snapshot before the
    /// work, snapshot after, and `after.delta(&before)` is exactly what
    /// the work recorded, with no bleed from jobs that ran earlier in
    /// the same process.
    ///
    /// Counters subtract (entries that did not move are dropped).
    /// Histograms subtract bucket-wise along with `count`/`sum`; the
    /// original per-sample `min`/`max` cannot be recovered from a
    /// subtraction, so they are re-derived from the occupied delta
    /// buckets' bounds (exact for bucket 0, conservative otherwise).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut counters = BTreeMap::new();
        for (k, &v) in &self.counters {
            let base = earlier.counters.get(k).copied().unwrap_or(0);
            let d = v.saturating_sub(base);
            if d > 0 {
                counters.insert(k.clone(), d);
            }
        }
        let mut histograms = BTreeMap::new();
        for (k, h) in &self.histograms {
            let mut d = Histogram::default();
            let base = earlier.histograms.get(k);
            for (b, slot) in d.buckets.iter_mut().enumerate() {
                let prev = base.map(|e| e.buckets[b]).unwrap_or(0);
                *slot = h.buckets[b].saturating_sub(prev);
            }
            d.count = h.count.saturating_sub(base.map(|e| e.count).unwrap_or(0));
            d.sum = h.sum.saturating_sub(base.map(|e| e.sum).unwrap_or(0));
            if d.count == 0 {
                continue;
            }
            for (b, &n) in d.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                // Bucket b holds values in [2^(b-1), 2^b) (bucket 0 is
                // exactly zero): lower bound for min, upper for max.
                let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                let hi = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                d.min = d.min.min(lo);
                d.max = d.max.max(hi);
            }
            histograms.insert(k.clone(), d);
        }
        Snapshot { counters, histograms }
    }

}

/// Sanitize a metric name for the Prometheus exposition format:
/// `[a-zA-Z0-9_]` pass through, everything else becomes `_`.
fn prom_name(s: &str) -> String {
    s.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

impl Snapshot {
    /// Render as Prometheus text exposition format (version 0.0.4) —
    /// what a `/metrics` endpoint serves. Counters become `counter`
    /// samples; log2 histograms become native Prometheus histograms
    /// with cumulative `_bucket{le="..."}` samples at power-of-two
    /// boundaries (only occupied buckets are listed, plus `+Inf`).
    /// All names are prefixed `cuszi_` and sanitized.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE cuszi_{n} counter\ncuszi_{n} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE cuszi_{n} histogram\n"));
            let mut cum = 0u64;
            for (b, cnt) in h.buckets.iter().enumerate() {
                if *cnt == 0 {
                    continue;
                }
                cum += cnt;
                // Bucket b holds v in [2^(b-1), 2^b), so its inclusive
                // upper bound is 2^b - 1; bucket 0 holds only zeros.
                let le: u128 = if b == 0 { 0 } else { (1u128 << b) - 1 };
                out.push_str(&format!("cuszi_{n}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("cuszi_{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("cuszi_{n}_sum {}\n", h.sum));
            out.push_str(&format!("cuszi_{n}_count {}\n", h.count));
        }
        out
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metrics registry.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named monotonic counter (created at zero).
    pub fn count(&self, name: &str, delta: u64) {
        let mut g = self.inner.lock().unwrap();
        match g.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                g.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Record one sample into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut g = self.inner.lock().unwrap();
        match g.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                g.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Copy the current state.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock().unwrap();
        Snapshot { counters: g.counters.clone(), histograms: g.histograms.clone() }
    }

    /// Copy the current state and reset the registry to empty.
    pub fn take(&self) -> Snapshot {
        let mut g = self.inner.lock().unwrap();
        Snapshot {
            counters: std::mem::take(&mut g.counters),
            histograms: std::mem::take(&mut g.histograms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.count("bytes_in", 100);
        r.count("bytes_in", 23);
        r.count("fields", 1);
        let s = r.snapshot();
        assert_eq!(s.counters["bytes_in"], 123);
        assert_eq!(s.counters["fields"], 1);
        r.count("bytes_in", u64::MAX);
        assert_eq!(r.snapshot().counters["bytes_in"], u64::MAX);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = Registry::new();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            r.observe("cr", v);
        }
        let s = r.snapshot();
        let h = &s.histograms["cr"];
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2..3
        assert_eq!(h.buckets[3], 1); // 4..7
        assert_eq!(h.buckets[11], 1); // 1024..2047
        assert!((h.mean() - (1034.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn delta_isolates_an_interval() {
        let r = Registry::new();
        r.count("bytes_in", 100);
        r.observe("cr", 8);
        let before = r.snapshot();
        r.count("bytes_in", 23);
        r.count("fresh", 7);
        r.observe("cr", 1024);
        r.observe("cr", 0);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counters.get("bytes_in"), Some(&23), "only the interval's increment");
        assert_eq!(d.counters.get("fresh"), Some(&7));
        let h = &d.histograms["cr"];
        assert_eq!(h.count, 2, "pre-interval samples excluded");
        assert_eq!(h.sum, 1024);
        assert_eq!(h.buckets[0], 1, "the interval's zero sample");
        assert_eq!(h.buckets[11], 1, "the interval's 1024 sample");
        assert_eq!(h.buckets[4], 0, "the earlier 8 sample subtracted out");
        assert_eq!(h.min, 0);
        assert!(h.max >= 1024 && h.max < 2048, "max from occupied bucket bound");
        // A no-op interval deltas to empty.
        let empty = after.delta(&after);
        assert!(empty.counters.is_empty() && empty.histograms.is_empty());
    }

    #[test]
    fn take_resets() {
        let r = Registry::new();
        r.count("a", 1);
        r.observe("h", 7);
        let s = r.take();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.histograms.len(), 1);
        let empty = r.snapshot();
        assert!(empty.counters.is_empty() && empty.histograms.is_empty());
    }

    #[test]
    fn histogram_bucket_boundaries_zero_one_and_max() {
        // The three boundary cases of the log2 bucketing rule:
        // 0 is its own bucket, 1 lands in bucket 1 (2^0..2^1), and
        // u64::MAX lands in the final bucket 64 (2^63..2^64).
        let r = Registry::new();
        r.observe("edge", 0);
        r.observe("edge", 1);
        r.observe("edge", u64::MAX);
        let h = &r.snapshot().histograms["edge"];
        assert_eq!(h.buckets[0], 1, "zero belongs to bucket 0");
        assert_eq!(h.buckets[1], 1, "one belongs to bucket 1");
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1, "u64::MAX belongs to the last bucket");
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        assert_eq!((h.min, h.max), (0, u64::MAX));
        // Power-of-two edges: 2^k is the first value of bucket k+1.
        let r2 = Registry::new();
        for k in [1u32, 8, 33, 62] {
            r2.observe("pow", (1u64 << k) - 1);
            r2.observe("pow", 1u64 << k);
        }
        let h2 = &r2.snapshot().histograms["pow"];
        for k in [1usize, 8, 33, 62] {
            assert!(h2.buckets[k] >= 1, "2^{k}-1 in bucket {k}");
            assert!(h2.buckets[k + 1] >= 1, "2^{k} in bucket {}", k + 1);
        }
    }

    #[test]
    fn prometheus_exposition_renders_counters_and_histograms() {
        let r = Registry::new();
        r.count("compress.bytes_in", 4096);
        r.observe("audit.level-1 outliers", 0);
        r.observe("audit.level-1 outliers", 3);
        r.observe("audit.level-1 outliers", 1024);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE cuszi_compress_bytes_in counter"));
        assert!(text.contains("cuszi_compress_bytes_in 4096"));
        // Sanitized histogram name, cumulative buckets, sum and count.
        assert!(text.contains("# TYPE cuszi_audit_level_1_outliers histogram"));
        assert!(text.contains("cuszi_audit_level_1_outliers_bucket{le=\"0\"} 1"));
        assert!(text.contains("cuszi_audit_level_1_outliers_bucket{le=\"3\"} 2"));
        assert!(text.contains("cuszi_audit_level_1_outliers_bucket{le=\"2047\"} 3"));
        assert!(text.contains("cuszi_audit_level_1_outliers_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("cuszi_audit_level_1_outliers_sum 1027"));
        assert!(text.contains("cuszi_audit_level_1_outliers_count 3"));
        // Every line is a comment or a `name value` sample.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split_whitespace().count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
    }
}
