//! Command line of the benchmark. Three ways to run it:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures once and
//!   prints the result object as the last line of standard output;
//! * without `--trace` it measures every workload (or `--workload W`)
//!   on seeds 42 and 7 (or `--seed N`), untraced then traced, each in a
//!   process of its own, and appends the results to a result set;
//! * `aa A B` compares two result sets against `BENCHMARK.json`.

use std::process::ExitCode;

use cuszi_benchmark::aa::{self, Record};
use cuszi_benchmark::inputs::Workload;
use cuszi_benchmark::run::{measure, RunArgs};
use cuszi_benchmark::schema::{self, Declaration};

/// Seeds a full run uses when none is given. A claim made on these must
/// also hold on a seed they do not include.
const DEFAULT_SEEDS: [u64; 2] = [42, 7];
/// Seconds of measurement per run when none is given; `BENCHMARK.json`
/// declares the same number.
const DEFAULT_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 0.3;
const DEFAULT_RESULTS: &str = "out/benchmark/results.jsonl";

const USAGE: &str =
    "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--quick] [--out FILE]
       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
       benchmark/run.sh aa A.jsonl B.jsonl [--schema BENCHMARK.json]
workloads: field_1e-3 field_1e-5 batch_streams serve_tcp";

#[derive(Default)]
struct Cli {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    schema: Option<String>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                cli.workload = Some(Workload::parse(&w).ok_or(format!("unknown workload `{w}`"))?);
            }
            "--seed" => {
                cli.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(value("a file")?),
            "--schema" => cli.schema = Some(value("a file")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

/// Measure once in this process.
fn one(cli: &Cli, trace: bool) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: cli.workload.ok_or("--trace needs --workload")?,
        seed: cli.seed.ok_or("--trace needs --seed")?,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace,
        quick: cli.quick,
    };
    let outcome = measure(&args)?;
    for note in &outcome.notes {
        eprintln!("note: {note}");
    }
    println!(
        "{} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(trace)
    );
    for (name, value) in &outcome.metrics {
        let unit = schema::def(name).map_or("", |d| d.unit);
        println!("  {name:<46} {value:>16.6} {unit}");
    }
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Measure every requested workload and seed, untraced then traced,
/// each in a child process (so that set-up time and peak memory are a
/// fresh process's), and append each result to the result set.
fn all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let workloads = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let seeds = cli.seed.map_or(DEFAULT_SEEDS.to_vec(), |s| vec![s]);
    let out = cli.out.as_deref().unwrap_or(DEFAULT_RESULTS);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut lines = String::new();
    let mut ok = true;
    for &workload in &workloads {
        for &seed in &seeds {
            for trace in ["0", "1"] {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    &seed.to_string(),
                    "--trace",
                    trace,
                ]);
                if let Some(s) = cli.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if cli.quick {
                    cmd.arg("--quick");
                }
                let child = cmd
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                let stdout = String::from_utf8_lossy(&child.stdout);
                print!("{stdout}");
                ok &= child.status.success();
                match stdout.lines().last().filter(|l| l.starts_with('{')) {
                    Some(result) => {
                        lines.push_str(&Record::to_line(
                            workload.name(),
                            seed,
                            trace == "1",
                            result,
                        ));
                        lines.push('\n');
                    }
                    None => ok = false,
                }
            }
        }
    }
    std::fs::write(out, &lines).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("results of {} runs written to {out}", lines.lines().count());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(cli: &Cli) -> Result<ExitCode, String> {
    let [_, a, b] = cli.positional.as_slice() else {
        return Err("aa takes two result sets".into());
    };
    let decl = Declaration::load(cli.schema.as_deref().unwrap_or("BENCHMARK.json"))?;
    let same = aa::compare(&decl, &aa::load(a)?, &aa::load(b)?)?;
    Ok(if same {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|cli| {
        match (cli.positional.first().map(String::as_str), cli.trace) {
            (Some("aa"), _) => compare(&cli),
            (Some(other), _) => Err(format!("unknown command `{other}`")),
            (None, Some(trace)) => one(&cli, trace),
            (None, None) => all(&cli),
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
