//! Noise-aware bench regression sentinel.
//!
//! Compares two `exp_hostperf` reports (`BENCH_<n>.json`) and decides,
//! per dataset x codec x metric, whether a change is *significant* —
//! i.e. outside the run-to-run jitter each report recorded about
//! itself. Throughputs gate on a k-sigma band built from the sample
//! standard deviations both runs measured; deterministic model outputs
//! (compression ratio, modelled DRAM bytes) gate on a small fixed
//! tolerance because they should not move at all between runs of the
//! same code.
//!
//! Reports from different bench configurations (scale, seed, error
//! bound, stream count) are refused outright: a Paper-scale run is not
//! a baseline for a Small-scale run, and silently comparing them would
//! produce confident nonsense.

use cuszi_profile::minjson::{parse, Value};

/// Fallback relative noise for reports that predate the stddev fields
/// (older `BENCH_<n>.json` carry only the best-sample milliseconds).
pub const DEFAULT_REL_NOISE: f64 = 0.05;
/// Sigma multiplier for the throughput significance band.
pub const SIGMA_K: f64 = 3.0;
/// Throughput changes below this percentage are never significant,
/// even when a run self-reports implausibly low jitter. Applies at
/// [`FLOOR_REF_SAMPLES`] samples or more; fewer samples widen it
/// (see [`throughput_floor_pct`]).
pub const THROUGHPUT_FLOOR_PCT: f64 = 5.0;
/// Sample count at which the throughput floor stops widening.
pub const FLOOR_REF_SAMPLES: i64 = 8;
/// Tolerance for deterministic metrics (CR, modelled DRAM bytes).
pub const EXACT_FLOOR_PCT: f64 = 2.0;

/// The bench configuration a report was taken under. Two reports are
/// comparable only when these match exactly — including the experiment
/// kind, so an `exp_serve` latency report can never silently gate an
/// `exp_hostperf` throughput report (or vice versa).
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub experiment: String,
    pub scale: String,
    pub seed: i64,
    pub rel_eb: f64,
    pub streams: i64,
    /// Simulated device count the report was taken at. Reports that
    /// predate the field read as 1 (single-device): a 4-device sweep
    /// is never a baseline for a single-device run.
    pub devices: i64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "experiment {}, scale {}, seed {}, rel_eb {:e}, streams {}, devices {}",
            self.experiment, self.scale, self.seed, self.rel_eb, self.streams, self.devices
        )
    }
}

/// One dataset x codec row of a report.
#[derive(Clone, Debug)]
pub struct Row {
    pub dataset: String,
    pub codec: String,
    pub compress_mbps: f64,
    pub decompress_mbps: f64,
    /// Relative noise (stddev / best) of the timed sides; falls back
    /// to [`DEFAULT_REL_NOISE`] when the report has no stddev fields.
    pub compress_noise: f64,
    pub decompress_noise: f64,
    /// Compression ratio, when the report records it.
    pub cr: Option<f64>,
    /// Modelled DRAM bytes of the predict + histogram kernels (cuSZ-i
    /// rows only).
    pub dram_bytes: Option<f64>,
}

/// A parsed `exp_hostperf` report.
#[derive(Clone, Debug)]
pub struct BenchDoc {
    pub fingerprint: Fingerprint,
    pub samples: i64,
    /// `provenance.git_rev` when present (older reports lack it).
    pub git_rev: Option<String>,
    pub rows: Vec<Row>,
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Parse a `BENCH_<n>.json` document (`exp_hostperf` or `exp_serve`).
pub fn parse_bench(src: &str) -> Result<BenchDoc, String> {
    let v = parse(src)?;
    let experiment = match v.get("experiment").and_then(Value::as_str) {
        Some(e @ ("hostperf" | "serve" | "multigpu")) => e.to_string(),
        _ => {
            return Err("not a sentinel report (experiment must be \"hostperf\", \"serve\", \
                 or \"multigpu\")"
                .into())
        }
    };
    let fingerprint = Fingerprint {
        experiment: experiment.clone(),
        scale: v
            .get("scale")
            .and_then(Value::as_str)
            .ok_or("report lacks \"scale\"")?
            .to_string(),
        seed: num(&v, "seed").ok_or("report lacks \"seed\"")? as i64,
        rel_eb: num(&v, "rel_eb").ok_or("report lacks \"rel_eb\"")?,
        streams: num(&v, "streams").ok_or("report lacks \"streams\"")? as i64,
        devices: num(&v, "devices").map_or(1, |d| d as i64),
    };
    let samples = num(&v, "samples").unwrap_or(1.0) as i64;
    let git_rev = v
        .get("provenance")
        .and_then(|p| p.get("git_rev"))
        .and_then(Value::as_str)
        .map(str::to_string);
    let mut rows = Vec::new();
    // `exp_serve` (latency percentiles) and `exp_multigpu` (shard
    // sweep cells) carry their payload outside the dataset x codec
    // throughput grid; an absent/empty dataset list is valid there.
    let empty = Vec::new();
    let ds_list = match v.get("datasets").and_then(Value::as_array) {
        Some(a) => a,
        None if experiment != "hostperf" => &empty,
        None => return Err("report lacks \"datasets\"".into()),
    };
    for ds in ds_list {
        let dataset = ds
            .get("dataset")
            .and_then(Value::as_str)
            .ok_or("dataset entry lacks \"dataset\"")?
            .to_string();
        for c in ds.get("codecs").and_then(Value::as_array).ok_or("dataset lacks \"codecs\"")? {
            let codec =
                c.get("name").and_then(Value::as_str).ok_or("codec lacks \"name\"")?.to_string();
            let noise = |ms_key: &str, sd_key: &str| -> f64 {
                match (num(c, ms_key), num(c, sd_key)) {
                    (Some(ms), Some(sd)) if ms > 0.0 => sd / ms,
                    _ => DEFAULT_REL_NOISE,
                }
            };
            rows.push(Row {
                dataset: dataset.clone(),
                codec,
                compress_mbps: num(c, "compress_mbps").ok_or("codec lacks compress_mbps")?,
                decompress_mbps: num(c, "decompress_mbps").ok_or("codec lacks decompress_mbps")?,
                compress_noise: noise("compress_ms", "compress_stddev_ms"),
                decompress_noise: noise("decompress_ms", "decompress_stddev_ms"),
                cr: num(c, "cr"),
                dram_bytes: num(c, "predict_hist_dram_bytes"),
            });
        }
    }
    Ok(BenchDoc { fingerprint, samples, git_rev, rows })
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Delta {
    pub dataset: String,
    pub codec: String,
    pub metric: &'static str,
    pub old: f64,
    pub new: f64,
    /// Signed change in percent, oriented so negative is always worse
    /// (throughput drop, CR drop, DRAM growth).
    pub change_pct: f64,
    /// Significance gate this metric had to clear, in percent.
    pub threshold_pct: f64,
}

impl Delta {
    pub fn is_regression(&self) -> bool {
        self.change_pct < -self.threshold_pct
    }
    pub fn is_improvement(&self) -> bool {
        self.change_pct > self.threshold_pct
    }
}

/// The sentinel's verdict over two reports.
#[derive(Clone, Debug)]
pub struct CompareReport {
    pub deltas: Vec<Delta>,
    /// Rows present in only one of the two reports (roster drift).
    pub unmatched: usize,
}

impl CompareReport {
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.is_regression()).collect()
    }

    pub fn has_regression(&self) -> bool {
        self.deltas.iter().any(Delta::is_regression)
    }

    /// Markdown delta report: significant rows in full, the rest as a
    /// within-noise tally.
    pub fn render_markdown(&self, old_label: &str, new_label: &str) -> String {
        let mut out = String::new();
        let regressions = self.deltas.iter().filter(|d| d.is_regression()).count();
        let improvements = self.deltas.iter().filter(|d| d.is_improvement()).count();
        let quiet = self.deltas.len() - regressions - improvements;
        out.push_str(&format!("## bench sentinel: {old_label} -> {new_label}\n\n"));
        out.push_str(&format!(
            "{} metrics compared: **{regressions} regressions**, {improvements} improvements, \
             {quiet} within noise",
            self.deltas.len()
        ));
        if self.unmatched > 0 {
            out.push_str(&format!(", {} rows unmatched (roster drift)", self.unmatched));
        }
        out.push_str("\n\n");
        let significant: Vec<&Delta> =
            self.deltas.iter().filter(|d| d.is_regression() || d.is_improvement()).collect();
        if significant.is_empty() {
            out.push_str("No significant changes.\n");
            return out;
        }
        out.push_str("| dataset | codec | metric | old | new | change | gate | verdict |\n");
        out.push_str("|---|---|---|---:|---:|---:|---:|---|\n");
        for d in significant {
            out.push_str(&format!(
                "| {} | {} | {} | {:.2} | {:.2} | {:+.1}% | ±{:.1}% | {} |\n",
                d.dataset,
                d.codec,
                d.metric,
                d.old,
                d.new,
                d.change_pct,
                d.threshold_pct,
                if d.is_regression() { "REGRESSION" } else { "improvement" }
            ));
        }
        out
    }
}

/// Percent change of `new` vs `old`, oriented by `higher_is_better`.
fn oriented_pct(old: f64, new: f64, higher_is_better: bool) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    let raw = (new - old) / old * 100.0;
    if higher_is_better { raw } else { -raw }
}

/// The throughput significance floor for a pair of reports. A sample
/// standard deviation over 2-5 samples badly underestimates true
/// run-to-run jitter (and best-of-N timings jump around at small N),
/// so the floor widens as `sqrt(ref / samples)` below
/// [`FLOOR_REF_SAMPLES`]: 2-sample quick runs gate at 10%, 5-sample
/// defaults at ~6.3%, 8+ samples at the plain 5%.
pub fn throughput_floor_pct(old_samples: i64, new_samples: i64) -> f64 {
    let n = old_samples.min(new_samples).max(1) as f64;
    THROUGHPUT_FLOOR_PCT * (FLOOR_REF_SAMPLES as f64 / n).sqrt().max(1.0)
}

/// Compare two reports. Refuses mismatched bench configurations.
pub fn compare(old: &BenchDoc, new: &BenchDoc) -> Result<CompareReport, String> {
    if old.fingerprint != new.fingerprint {
        return Err(format!(
            "bench configs differ — refusing to compare\n  baseline: {}\n  current:  {}",
            old.fingerprint, new.fingerprint
        ));
    }
    let floor = throughput_floor_pct(old.samples, new.samples);
    let mut deltas = Vec::new();
    let mut matched = 0usize;
    for o in &old.rows {
        let Some(n) =
            new.rows.iter().find(|r| r.dataset == o.dataset && r.codec == o.codec)
        else {
            continue;
        };
        matched += 1;
        // Throughput: k-sigma band from both runs' own jitter, never
        // tighter than the (sample-count-aware) floor.
        let band =
            |on: f64, nn: f64| (SIGMA_K * (on * on + nn * nn).sqrt() * 100.0).max(floor);
        deltas.push(Delta {
            dataset: o.dataset.clone(),
            codec: o.codec.clone(),
            metric: "compress MB/s",
            old: o.compress_mbps,
            new: n.compress_mbps,
            change_pct: oriented_pct(o.compress_mbps, n.compress_mbps, true),
            threshold_pct: band(o.compress_noise, n.compress_noise),
        });
        deltas.push(Delta {
            dataset: o.dataset.clone(),
            codec: o.codec.clone(),
            metric: "decompress MB/s",
            old: o.decompress_mbps,
            new: n.decompress_mbps,
            change_pct: oriented_pct(o.decompress_mbps, n.decompress_mbps, true),
            threshold_pct: band(o.decompress_noise, n.decompress_noise),
        });
        if let (Some(co), Some(cn)) = (o.cr, n.cr) {
            deltas.push(Delta {
                dataset: o.dataset.clone(),
                codec: o.codec.clone(),
                metric: "CR",
                old: co,
                new: cn,
                change_pct: oriented_pct(co, cn, true),
                threshold_pct: EXACT_FLOOR_PCT,
            });
        }
        if let (Some(bo), Some(bn)) = (o.dram_bytes, n.dram_bytes) {
            deltas.push(Delta {
                dataset: o.dataset.clone(),
                codec: o.codec.clone(),
                metric: "DRAM bytes",
                old: bo,
                new: bn,
                change_pct: oriented_pct(bo, bn, false),
                threshold_pct: EXACT_FLOOR_PCT,
            });
        }
    }
    let unmatched = (old.rows.len() - matched) + (new.rows.len() - matched);
    Ok(CompareReport { deltas, unmatched })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(codec_extra: &str, mbps: f64) -> String {
        format!(
            r#"{{"experiment":"hostperf","scale":"Small","seed":42,"samples":5,
                "rel_eb":0.001,"streams":4,
                "provenance":{{"git_rev":"abc1234","rustc":"rustc 1.0"}},
                "datasets":[{{"dataset":"Nyx","field":"f","bytes":1000,
                  "codecs":[{{"name":"cuSZ-i","compress_mbps":{mbps},
                    "decompress_mbps":200.0,"compress_ms":10.0,"decompress_ms":5.0,
                    "compress_stddev_ms":0.1,"decompress_stddev_ms":0.05{codec_extra}}}]}}]}}"#
        )
    }

    #[test]
    fn self_comparison_is_quiet() {
        let d = parse_bench(&doc("", 100.0)).unwrap();
        let rep = compare(&d, &d).unwrap();
        assert!(!rep.has_regression());
        assert!(rep.deltas.iter().all(|x| x.change_pct == 0.0));
        let md = rep.render_markdown("a", "b");
        assert!(md.contains("0 regressions"), "{md}");
        assert!(md.contains("No significant changes"), "{md}");
    }

    #[test]
    fn twenty_percent_slowdown_is_flagged() {
        let old = parse_bench(&doc("", 100.0)).unwrap();
        let new = parse_bench(&doc("", 80.0)).unwrap();
        let rep = compare(&old, &new).unwrap();
        assert!(rep.has_regression());
        let regs = rep.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "compress MB/s");
        assert!((regs[0].change_pct + 20.0).abs() < 1e-9);
        let md = rep.render_markdown("BENCH_1", "BENCH_2");
        assert!(md.contains("REGRESSION"), "{md}");
        assert!(md.contains("compress MB/s"), "{md}");
        // The reverse direction is an improvement, not a regression.
        let rep = compare(&new, &old).unwrap();
        assert!(!rep.has_regression());
        assert!(rep.deltas.iter().any(Delta::is_improvement));
    }

    #[test]
    fn noisy_runs_widen_the_gate() {
        // 10% measured jitter on both sides -> 3-sigma band ~42%; a
        // 20% drop must then read as noise.
        let noisy = |mbps: f64| {
            doc("", mbps).replace("\"compress_stddev_ms\":0.1", "\"compress_stddev_ms\":1.0")
        };
        let old = parse_bench(&noisy(100.0)).unwrap();
        let new = parse_bench(&noisy(80.0)).unwrap();
        let rep = compare(&old, &new).unwrap();
        assert!(!rep.has_regression());
    }

    #[test]
    fn cr_and_dram_gate_tightly() {
        let old = parse_bench(&doc(
            r#","cr":100.0,"predict_hist_dram_bytes":1000000"#,
            100.0,
        ))
        .unwrap();
        // CR -3%, DRAM +3%: both beyond the 2% deterministic gate.
        let new = parse_bench(&doc(
            r#","cr":97.0,"predict_hist_dram_bytes":1030000"#,
            100.0,
        ))
        .unwrap();
        let rep = compare(&old, &new).unwrap();
        let regs = rep.regressions();
        let metrics: Vec<&str> = regs.iter().map(|d| d.metric).collect();
        assert!(metrics.contains(&"CR"), "{metrics:?}");
        assert!(metrics.contains(&"DRAM bytes"), "{metrics:?}");
    }

    #[test]
    fn cross_config_comparison_is_refused() {
        let old = parse_bench(&doc("", 100.0)).unwrap();
        let mut new = parse_bench(&doc("", 100.0)).unwrap();
        new.fingerprint.streams = 8;
        let err = compare(&old, &new).unwrap_err();
        assert!(err.contains("refusing to compare"), "{err}");
        let mut new = parse_bench(&doc("", 100.0)).unwrap();
        new.fingerprint.scale = "Paper".into();
        assert!(compare(&old, &new).is_err());
    }

    #[test]
    fn reports_without_stddev_fall_back_to_default_noise() {
        let legacy = doc("", 100.0)
            .replace("\"compress_stddev_ms\":0.1,", "")
            .replace("\"decompress_stddev_ms\":0.05", "\"x\":0");
        let d = parse_bench(&legacy).unwrap();
        assert_eq!(d.rows[0].compress_noise, DEFAULT_REL_NOISE);
        assert_eq!(d.rows[0].decompress_noise, DEFAULT_REL_NOISE);
        // 5% default noise on both sides -> ~21% band; a 30% drop
        // clears it.
        let new =
            parse_bench(&legacy.replace("\"compress_mbps\":100", "\"compress_mbps\":70")).unwrap();
        assert!(compare(&d, &new).unwrap().has_regression());
    }

    #[test]
    fn floor_widens_for_small_sample_counts() {
        assert!((throughput_floor_pct(2, 2) - 10.0).abs() < 1e-9);
        assert!((throughput_floor_pct(8, 8) - 5.0).abs() < 1e-9);
        assert!((throughput_floor_pct(16, 16) - 5.0).abs() < 1e-9);
        // The narrower run governs.
        assert!((throughput_floor_pct(2, 16) - 10.0).abs() < 1e-9);
        // A 9% drop reads as noise at 2 quick samples, but a 20% one
        // still cannot hide (the acceptance bar for the sentinel).
        let two_samples = |m: f64| doc("", m).replace("\"samples\":5", "\"samples\":2");
        let old = parse_bench(&two_samples(100.0)).unwrap();
        assert!(!compare(&old, &parse_bench(&two_samples(91.0)).unwrap())
            .unwrap()
            .has_regression());
        assert!(compare(&old, &parse_bench(&two_samples(79.0)).unwrap())
            .unwrap()
            .has_regression());
    }

    #[test]
    fn non_hostperf_documents_are_rejected() {
        assert!(parse_bench("{\"experiment\":\"fig9\"}").is_err());
        assert!(parse_bench("not json").is_err());
    }

    #[test]
    fn serve_reports_parse_but_never_compare_against_hostperf() {
        // An exp_serve report has no dataset grid; it still parses so
        // the sentinel machinery can fingerprint it.
        let serve = r#"{"experiment":"serve","scale":"Small","seed":42,"samples":120,
            "rel_eb":0.001,"streams":2,
            "provenance":{"git_rev":"abc1234","rustc":"rustc 1.0"},
            "datasets":[]}"#;
        let s = parse_bench(serve).unwrap();
        assert_eq!(s.fingerprint.experiment, "serve");
        assert!(s.rows.is_empty());
        // Same-experiment comparison works (trivially quiet)...
        assert!(!compare(&s, &s).unwrap().has_regression());
        // ...but a hostperf baseline is refused outright.
        let h = parse_bench(&doc("", 100.0)).unwrap();
        let err = compare(&h, &s).unwrap_err();
        assert!(err.contains("refusing to compare"), "{err}");
    }

    #[test]
    fn device_count_fingerprints_and_refuses_cross_count() {
        // Reports that predate the field read as single-device.
        let legacy = parse_bench(&doc("", 100.0)).unwrap();
        assert_eq!(legacy.fingerprint.devices, 1);
        // A multigpu sweep report parses with its device count...
        let multi = r#"{"experiment":"multigpu","scale":"Small","seed":42,"samples":1,
            "rel_eb":0.001,"streams":2,"devices":4,
            "provenance":{"git_rev":"abc1234","rustc":"rustc 1.0"},
            "datasets":[],"multigpu":{"cells":[]}}"#;
        let m4 = parse_bench(multi).unwrap();
        assert_eq!(m4.fingerprint.experiment, "multigpu");
        assert_eq!(m4.fingerprint.devices, 4);
        assert!(!compare(&m4, &m4).unwrap().has_regression());
        // ...and a run at a different device count is refused: sim
        // speedups at 4 devices are no baseline for 2.
        let mut m2 = m4.clone();
        m2.fingerprint.devices = 2;
        let err = compare(&m4, &m2).unwrap_err();
        assert!(err.contains("refusing to compare"), "{err}");
        assert!(err.contains("devices"), "{err}");
    }

    #[test]
    fn roster_drift_is_counted_not_fatal() {
        let old = parse_bench(&doc("", 100.0)).unwrap();
        let mut new = parse_bench(&doc("", 100.0)).unwrap();
        new.rows[0].codec = "renamed".into();
        let rep = compare(&old, &new).unwrap();
        assert_eq!(rep.deltas.len(), 0);
        assert_eq!(rep.unmatched, 2);
        let md = rep.render_markdown("a", "b");
        assert!(md.contains("unmatched"), "{md}");
    }
}
