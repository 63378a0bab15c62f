//! Runs the built program the way the driver does, at smoke sizes.

use std::process::{Command, Output};

use cuszi_benchmark::aa::Record;
use cuszi_benchmark::inputs::Workload;
use cuszi_benchmark::schema::Declaration;

fn run(workload: &str, trace: &str, envs: &[(&str, &str)]) -> Output {
    // Traces go to `out/benchmark` under the working directory: keep
    // them in the test's own scratch directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_cuszi-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--quick",
        ])
        .envs(envs.iter().copied())
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn quick_runs_emit_exactly_the_declared_metrics() {
    let decl =
        Declaration::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    for workload in Workload::ALL {
        for (trace, declared) in [("0", &decl.end_to_end), ("1", &decl.per_layer)] {
            let started = std::time::Instant::now();
            let out = run(workload.name(), trace, &[]);
            let took = started.elapsed().as_secs_f64();
            let stdout = String::from_utf8(out.stdout).unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{} trace {trace}: {stderr}",
                workload.name()
            );
            let last = stdout.lines().last().unwrap();
            let record =
                Record::parse(&Record::to_line(workload.name(), 5, trace == "1", last)).unwrap();
            assert!(record.correct, "{last}");
            assert!(last.contains("\"failed\": 0,"), "{last}");
            let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            want.sort_unstable();
            let got: Vec<&str> = record.metrics.keys().map(String::as_str).collect();
            assert_eq!(got, want, "{} trace {trace}", workload.name());
            for m in declared {
                assert!(
                    last.contains(&format!("\"unit\": \"{}\"", m.unit)),
                    "{}",
                    m.name
                );
                assert!(
                    stdout.contains(&format!("  {} ", m.name)),
                    "{} is not printed by name",
                    m.name
                );
            }
            if trace == "0" {
                assert!(
                    record.metrics.values().all(|&v| v > 0.0),
                    "an end-to-end metric is 0: {last}"
                );
                assert!(
                    took < 5.0,
                    "{} took {took:.1} s at smoke size",
                    workload.name()
                );
            } else {
                let path = format!(
                    "{}-1/out/benchmark/trace_{}_seed5.json",
                    workload.name(),
                    workload.name()
                );
                let trace_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(path);
                let json = std::fs::read_to_string(trace_file).unwrap();
                let parsed = cuszi_profile::minjson::parse(&json).unwrap();
                assert!(parsed
                    .get("traceEvents")
                    .and_then(|e| e.as_array())
                    .is_some_and(|e| e.len() > 50));
            }
        }
    }
}

#[test]
fn refuses_to_run_under_a_cuszi_variable() {
    let out = run("field_1e-3", "0", &[("CUSZI_NUM_THREADS", "1")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CUSZI_NUM_THREADS"));
}
