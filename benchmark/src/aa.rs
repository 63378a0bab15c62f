//! `aa A B`: compare two result sets against the bounds in
//! `BENCHMARK.json`. Run on two sets taken from one commit it is the
//! A/A check: every metric must agree with itself within its bound.

use std::collections::BTreeMap;

use cuszi_profile::minjson::{self, Value};

use crate::schema::{def, Better, Declaration};
use crate::stats::{median, spread};

/// One line of a result set: a run's workload, seed, trace mode and the
/// result line the run printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// The line `run.sh` appends to a result set.
    pub fn to_line(workload: &str, seed: u64, trace: bool, result_json: &str) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result_json}}}",
            u8::from(trace)
        )
    }

    pub fn parse(line: &str) -> Result<Record, String> {
        let v = minjson::parse(line)?;
        let result = v.get("result").ok_or("no `result`")?;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("no `metrics`")?
            .iter()
            .map(|(k, m)| {
                Ok((
                    k.clone(),
                    m.get("value")
                        .and_then(Value::as_f64)
                        .ok_or(format!("{k}: no value"))?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Record {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("no `workload`")?
                .to_string(),
            seed: v.get("seed").and_then(Value::as_f64).ok_or("no `seed`")? as u64,
            trace: v.get("trace").and_then(Value::as_f64) == Some(1.0),
            correct: result.get("correct") == Some(&Value::Bool(true)),
            metrics,
        })
    }
}

/// Read a result set (one JSON object per line).
pub fn load(path: &str) -> Result<Vec<Record>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    src.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// How one metric of one workload compares between the two sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Breach,
    /// A set's own spread exceeds the bound, so the medians cannot tell
    /// a change of that size from noise.
    Unresolved,
}

/// Compare B against A for one bounded metric. `a` and `b` hold the
/// metric's value in every run of the set.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Higher => (ma - mb) / ma,
        Better::Lower => (mb - ma) / ma,
    };
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let most = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // Every run of B better than every run of A.
    let separated = match better {
        Better::Higher => least(b) > most(a),
        Better::Lower => most(b) < least(a),
    };
    let verdict = if spread(a).max(spread(b)) > bound && !separated {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Breach
    } else {
        Verdict::Pass
    };
    (verdict, worse)
}

fn values(set: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing breached, every exact
/// metric repeated and every run was correct.
pub fn compare(decl: &Declaration, a: &[Record], b: &[Record]) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    for workload in &decl.workloads {
        for m in &decl.end_to_end {
            let (va, vb) = (
                values(a, workload, false, &m.name),
                values(b, workload, false, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.ok_or_else(|| format!("{} has no bound", m.name))?;
            let (verdict, worse) = judge(&va, &vb, m.better, bound);
            ok &= verdict != Verdict::Breach;
            let word = match verdict {
                Verdict::Pass => "PASS".to_string(),
                Verdict::Breach => format!("BREACH ({:+.1}% worse)", worse * 100.0),
                Verdict::Unresolved => "UNRESOLVED (spread exceeds the bound)".to_string(),
            };
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>6.1}%  {word}",
                workload,
                m.name,
                median(&va),
                median(&vb),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound * 100.0
            );
        }
    }
    // Exact metrics: the same workload and seed must read the same.
    let mut differing = Vec::new();
    let mut compared = 0;
    for ra in a {
        for rb in b.iter().filter(|r| {
            (r.workload.as_str(), r.seed, r.trace) == (ra.workload.as_str(), ra.seed, ra.trace)
        }) {
            for (name, va) in &ra.metrics {
                if def(name).is_some_and(|d| d.exact) {
                    compared += 1;
                    if rb.metrics.get(name) != Some(va) {
                        differing.push(format!(
                            "{} seed {} {name}: {va} vs {:?}",
                            ra.workload,
                            ra.seed,
                            rb.metrics.get(name)
                        ));
                    }
                }
            }
        }
    }
    println!(
        "exact metrics: {compared} compared on equal workload and seed, {} differ",
        differing.len()
    );
    for d in &differing {
        println!("  DIFFERS {d}");
    }
    let incorrect = a.iter().chain(b).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("{incorrect} runs reported correct = false");
    }
    Ok(ok && differing.is_empty() && incorrect == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_passes_breaches_and_leaves_noise_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5];
        // Within the bound, either direction.
        assert_eq!(
            judge(&a, &[97.0, 98.0, 96.5, 97.5], Better::Higher, 0.1).0,
            Verdict::Pass
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5], Better::Higher, 0.1).0,
            Verdict::Pass
        );
        // Worse by more than the bound.
        let (v, worse) = judge(&a, &[80.0, 81.0, 79.0, 80.5], Better::Higher, 0.1);
        assert_eq!(v, Verdict::Breach);
        assert!((worse - 0.2).abs() < 0.01);
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5], Better::Lower, 0.1).0,
            Verdict::Breach
        );
        // A set noisier than the bound cannot resolve it...
        let noisy = [80.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &a, Better::Higher, 0.1).0,
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[130.0, 150.0, 170.0, 190.0], Better::Higher, 0.1).0,
            Verdict::Pass
        );
    }

    #[test]
    fn record_lines_round_trip() {
        let result = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                      {\"psnr_db\": {\"value\": 69.5, \"unit\": \"dB\"}}}";
        let r = Record::parse(&Record::to_line("field_1e-3", 42, true, result)).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.trace, r.correct),
            ("field_1e-3", 42, true, true)
        );
        assert_eq!(r.metrics["psnr_db"], 69.5);
        assert!(Record::parse("{}").is_err());
    }
}
