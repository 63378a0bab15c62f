//! The metric names this program emits, and the reader of
//! `BENCHMARK.json`, which declares the same names with their bounds.
//! A test holds the two together.

use cuszi_profile::minjson::{self, Value};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric as the program knows it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Whether two runs on the same seed and machine must read the
    /// same, digit for digit.
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, what `--trace 0` emits.
pub const END_TO_END: [MetricDef; 11] = [
    m("setup_s", "s", Lower, false),
    m("compress_mbps", "MB/s", Higher, false),
    m("decompress_mbps", "MB/s", Higher, false),
    m("compression_ratio", "ratio", Higher, true),
    m("psnr_db", "dB", Higher, true),
    m("sim_compress_gbps", "GB/s", Higher, true),
    m("sim_decompress_gbps", "GB/s", Higher, true),
    m("peak_rss_mb", "MB", Lower, false),
    m("requests_per_s", "1/s", Higher, false),
    m("latency_p50_ms", "ms", Lower, false),
    m("latency_p90_ms", "ms", Lower, false),
];

/// Per-layer metrics, what `--trace 1` emits.
pub const PER_LAYER: [MetricDef; 60] = [
    m("predict.compress_ms", "ms", Lower, false),
    m("predict.compress_share", "ratio", Lower, false),
    m("predict.tune_ms", "ms", Lower, false),
    m("predict.reconstruct_ms", "ms", Lower, false),
    m("predict.reconstruct_share", "ratio", Lower, false),
    m("predict.outlier_rate", "ratio", Lower, true),
    m("huffman.bits_per_symbol", "bit", Lower, true),
    m("bitcomp.ratio", "ratio", Higher, true),
    m("core.batch.container_overhead_bytes", "bytes", Lower, true),
    m("huffman.histogram_ms", "ms", Lower, false),
    m("huffman.codebook_ms", "ms", Lower, false),
    m("huffman.encode_ms", "ms", Lower, false),
    m("bitcomp.compress_ms", "ms", Lower, false),
    m("huffman.decode_ms", "ms", Lower, false),
    m("huffman.decode_share", "ratio", Lower, false),
    m("huffman.redecode_rate", "ratio", Lower, true),
    m("huffman.fallback_chunks", "count", Lower, true),
    m("bitcomp.decompress_ms", "ms", Lower, false),
    m("predict.sim_us", "us", Lower, true),
    m("predict.dram_bytes", "bytes", Lower, true),
    m("huffman.sim_encode_us", "us", Lower, true),
    m("huffman.sim_decode_us", "us", Lower, true),
    m("gpu-sim.sim_total_us", "us", Lower, true),
    m("gpu-sim.dram_bytes", "bytes", Lower, true),
    m("core.pipeline.compress_launches", "count", Lower, true),
    m("core.pipeline.decompress_launches", "count", Lower, true),
    m("gpu-sim.stage_rank_tau", "tau", Higher, false),
    m("core.pipeline.compress_ms", "ms", Lower, false),
    m("core.pipeline.decompress_ms", "ms", Lower, false),
    m(
        "core.pipeline.compress_unattributed_share",
        "ratio",
        Lower,
        false,
    ),
    m(
        "core.pipeline.decompress_unattributed_share",
        "ratio",
        Lower,
        false,
    ),
    m("core.batch.compress_ms", "ms", Lower, false),
    m("core.batch.decompress_ms", "ms", Lower, false),
    m("core.stream.compress_ms", "ms", Lower, false),
    m("core.stream.decompress_ms", "ms", Lower, false),
    m("core.batch.overhead_ms", "ms", Lower, false),
    m("core.sched.wall_speedup_compress", "ratio", Higher, false),
    m("core.sched.wall_speedup_decompress", "ratio", Higher, false),
    m("core.sched.sim_overlap", "ratio", Higher, true),
    m("core.shard.sim_speedup_2dev", "ratio", Higher, true),
    m("core.shard.gather_us", "us", Lower, true),
    m("core.engine.queue_wait_p50_ms", "ms", Lower, false),
    m("core.engine.service_p50_ms", "ms", Lower, false),
    m("core.engine.service_p90_ms", "ms", Lower, false),
    m("core.engine.warm_service_p50_ms", "ms", Lower, false),
    m("core.engine.cold_service_p50_ms", "ms", Lower, false),
    m("core.engine.cache_hit_rate", "ratio", Higher, false),
    m("core.engine.rejected", "count", Lower, false),
    m("cli.serve.wire_p50_ms", "ms", Lower, false),
    m("cli.serve.compress_p50_ms", "ms", Lower, false),
    m("cli.serve.decompress_p50_ms", "ms", Lower, false),
    m("cli.serve.latency_p99_ms", "ms", Lower, false),
    m("cli.serve.encode_ms", "ms", Lower, false),
    m("cli.serve.bytes_in_per_req", "bytes", Lower, false),
    m("cli.serve.bytes_out_per_req", "bytes", Lower, false),
    m("datagen.generate_s", "s", Lower, false),
    m("metrics.verify_s", "s", Lower, false),
    m("host.calib_ms", "ms", Lower, false),
    m("host.cores", "count", Higher, false),
    m("trace.overhead_pct", "%", Lower, false),
];

/// The definition of a metric by name, from either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this program reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Declaration {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn strings(v: &Value, key: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{key}` is not a list"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` holds a non-string"))
        })
        .collect()
}

fn metrics(v: &Value, key: &str, bounded: bool) -> Result<Vec<Declared>, String> {
    let want: &[&str] = if bounded {
        &["better", "bound", "name", "unit"]
    } else {
        &["better", "name", "unit"]
    };
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{key}` is not a list"))?
        .iter()
        .map(|d| {
            let obj = d
                .as_object()
                .ok_or_else(|| format!("`{key}` holds a non-object"))?;
            if !obj.keys().map(String::as_str).eq(want.iter().copied()) {
                return Err(format!(
                    "a `{key}` entry has keys {:?}, wanted {want:?}",
                    obj.keys()
                ));
            }
            let text = |k: &str| {
                d.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("`{key}`: `{k}` is not a string"))
            };
            Ok(Declared {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better: match text("better")? {
                    "higher" => Higher,
                    "lower" => Lower,
                    other => return Err(format!("`{key}`: better = `{other}`")),
                },
                bound: d.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Declaration {
    pub fn parse(src: &str) -> Result<Declaration, String> {
        let v = minjson::parse(src)?;
        let workloads = v
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("`workloads` is not a list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("a workload has no name")
            })
            .collect::<Result<_, _>>()?;
        Ok(Declaration {
            command: strings(&v, "command")?,
            paths: strings(&v, "paths")?,
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("`run_seconds` is not a number")?,
            workloads,
            end_to_end: metrics(&v, "end_to_end", true)?,
            per_layer: metrics(&v, "per_layer", false)?,
        })
    }

    pub fn load(path: &str) -> Result<Declaration, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&src).map_err(|e| format!("{path}: {e}"))
    }

    pub fn bound(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    fn declared() -> Declaration {
        Declaration::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap()
    }

    fn well_formed(name: &str, max: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn benchmark_json_declares_what_the_program_emits() {
        let d = declared();
        let same = |decl: &[Declared], defs: &[MetricDef]| {
            assert_eq!(decl.len(), defs.len());
            for (a, b) in decl.iter().zip(defs) {
                assert_eq!(
                    (a.name.as_str(), a.unit.as_str(), a.better),
                    (b.name, b.unit, b.better)
                );
            }
        };
        same(&d.end_to_end, &END_TO_END);
        same(&d.per_layer, &PER_LAYER);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(d.workloads, names);
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let d = declared();
        let mut seen = std::collections::BTreeSet::new();
        for name in d
            .workloads
            .iter()
            .chain(d.end_to_end.iter().chain(&d.per_layer).map(|m| &m.name))
        {
            assert!(well_formed(name, 64), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok),
                "{}",
                m.unit
            );
        }
        for m in &d.end_to_end {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        // Set-up time carries the largest bound.
        let setup = d.bound("setup_s").unwrap();
        assert!(d.end_to_end.iter().all(|m| m.bound.unwrap() <= setup));
        assert!((1.0..=60.0).contains(&d.run_seconds) && d.run_seconds.fract() == 0.0);
        assert_eq!(d.paths, ["benchmark"]);
        assert_eq!(d.command, ["bash", "benchmark/run.sh"]);
    }
}
