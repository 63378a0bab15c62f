//! Drive the actual `cuszi` binary as a subprocess — the outermost
//! surface a user touches.

use std::path::PathBuf;
use std::process::Command;

/// Cargo builds the binary before it runs these tests, so they always
/// drive the `cuszi` of the current source.
const BIN: &str = env!("CARGO_BIN_EXE_cuszi");

fn workdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cuszi-proc-{}-{name}", std::process::id()));
    p
}

#[test]
fn binary_roundtrip_and_error_paths() {
    let fin = workdir("in.f32");
    let farc = workdir("a.cszi");
    let fout = workdir("out.f32");

    let vals: Vec<f32> = (0..8 * 10 * 12)
        .map(|i| ((i % 12) as f32 * 0.2).sin() + (i / 120) as f32 * 0.05)
        .collect();
    let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(&fin, &raw).unwrap();

    // Happy path.
    let out = Command::new(BIN)
        .args(["compress", "-i"])
        .arg(&fin)
        .arg("-o")
        .arg(&farc)
        .args(["--dims", "8x10x12", "--rel-eb", "1e-3", "--verify"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified"));

    let out = Command::new(BIN)
        .args(["decompress", "-i"])
        .arg(&farc)
        .arg("-o")
        .arg(&fout)
        .output()
        .unwrap();
    assert!(out.status.success());
    let recon = std::fs::read(&fout).unwrap();
    assert_eq!(recon.len(), raw.len());

    // Error paths exit nonzero with a message on stderr.
    let out = Command::new(BIN)
        .args(["compress", "-i"])
        .arg(&fin)
        .arg("-o")
        .arg(&farc)
        .args(["--dims", "9x10x12", "--rel-eb", "1e-3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("need"));

    let out = Command::new(BIN).args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    // Help prints usage and exits zero.
    let out = Command::new(BIN).args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    for f in [fin, farc, fout] {
        let _ = std::fs::remove_file(f);
    }
}

/// A stderr line from a failed invocation: exactly one line, typed
/// (`error: ...`), and never a panic backtrace.
fn assert_one_line_error(out: &std::process::Output) {
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "stderr: {err:?}");
    assert_eq!(err.trim_end().lines().count(), 1, "stderr: {err:?}");
    assert!(!err.contains("panicked"), "stderr: {err:?}");
    assert!(!err.contains("RUST_BACKTRACE"), "stderr: {err:?}");
}

#[test]
fn corrupt_archives_exit_nonzero_with_one_line_errors() {
    let fin = workdir("bad.cszi");
    let fout = workdir("bad-out.f32");

    // Garbage bytes, a truncated header, and an empty file: every one
    // must be a typed one-line error, never a panic.
    for (name, bytes) in [
        ("garbage", b"not an archive at all".to_vec()),
        ("truncated", vec![b'C', b'S', b'Z', b'I', 1]),
        ("empty", Vec::new()),
    ] {
        std::fs::write(&fin, &bytes).unwrap_or_else(|e| panic!("{name}: write: {e}"));
        let out = Command::new(BIN)
            .args(["decompress", "-i"])
            .arg(&fin)
            .arg("-o")
            .arg(&fout)
            .output()
            .unwrap();
        assert_one_line_error(&out);
        let out = Command::new(BIN).args(["info", "-i"]).arg(&fin).output().unwrap();
        assert_one_line_error(&out);
    }

    for f in [fin, fout] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn bad_flags_exit_nonzero_with_one_line_errors() {
    for args in [
        vec!["compress", "--frobnicate"],
        vec!["frobnicate", "-i", "x"],
        vec!["compress", "-i", "/nonexistent", "-o", "/tmp/x", "--dims", "bogus"],
        vec!["compress", "-i", "/nonexistent", "-o", "/tmp/x", "--dims", "4x4", "--rel-eb", "nope"],
        vec!["compress", "-i", "/nonexistent", "-o", "/tmp/x", "--dims", "4x4", "--rel-eb", "1e-3", "--streams", "0"],
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        assert_one_line_error(&out);
    }
}

#[test]
fn verify_and_audit_share_one_decompress() {
    let fin = workdir("va-in.f32");
    let farc = workdir("va.cszi");
    let fprom = workdir("va.prom");
    let raw: Vec<u8> = (0..8 * 10 * 12)
        .flat_map(|i| (((i % 12) as f32 * 0.2).sin() + (i / 120) as f32 * 0.05).to_le_bytes())
        .collect();
    std::fs::write(&fin, &raw).unwrap();

    let out = Command::new(BIN)
        .args(["compress", "-i"])
        .arg(&fin)
        .arg("-o")
        .arg(&farc)
        .args(["--dims", "8x10x12", "--rel-eb", "1e-3", "--verify", "--audit"])
        .arg(format!("--prom={}", fprom.display()))
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified") && stdout.contains("fidelity audit"), "{stdout}");
    // The subprocess has the process-global profiler to itself, so the
    // count is this run's alone: both checks read one reconstruction.
    let prom = std::fs::read_to_string(&fprom).unwrap();
    assert!(prom.lines().any(|l| l == "cuszi_decompress_fields 1"), "{prom}");

    let trace = PathBuf::from(format!("{}.trace.json", farc.display()));
    for f in [fin, farc, fprom, trace] {
        let _ = std::fs::remove_file(f);
    }
}

/// Run `cuszi compress` on a small field with `checks` and return its
/// stdout and the `cuszi_decompress_fields` line of its Prometheus dump.
fn compress_with_checks(tag: &str, checks: &[&str]) -> (String, Option<String>) {
    let fin = workdir(&format!("{tag}-in.f32"));
    let farc = workdir(&format!("{tag}.cszi"));
    let fprom = workdir(&format!("{tag}.prom"));
    let raw: Vec<u8> = (0..8 * 10 * 12)
        .flat_map(|i| (((i % 12) as f32 * 0.2).sin() + (i / 120) as f32 * 0.05).to_le_bytes())
        .collect();
    std::fs::write(&fin, &raw).unwrap();
    let out = Command::new(BIN)
        .args(["compress", "-i"])
        .arg(&fin)
        .arg("-o")
        .arg(&farc)
        .args(["--dims", "8x10x12", "--rel-eb", "1e-3"])
        .args(checks)
        .arg(format!("--prom={}", fprom.display()))
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let prom = std::fs::read_to_string(&fprom).unwrap();
    let line = prom.lines().find(|l| l.starts_with("cuszi_decompress_fields ")).map(str::to_string);
    let trace = PathBuf::from(format!("{}.trace.json", farc.display()));
    for f in [fin, farc, fprom, trace] {
        let _ = std::fs::remove_file(f);
    }
    (String::from_utf8_lossy(&out.stdout).into_owned(), line)
}

#[test]
fn each_check_alone_decodes_once_and_none_decodes_nothing() {
    let (stdout, line) = compress_with_checks("v", &["--verify"]);
    assert!(stdout.contains("verified: PSNR") && !stdout.contains("fidelity audit"), "{stdout}");
    assert_eq!(line.as_deref(), Some("cuszi_decompress_fields 1"));

    let (stdout, line) = compress_with_checks("a", &["--audit"]);
    assert!(stdout.contains("fidelity audit") && !stdout.contains("verified: PSNR"), "{stdout}");
    assert_eq!(line.as_deref(), Some("cuszi_decompress_fields 1"));

    let (stdout, line) = compress_with_checks("n", &[]);
    assert!(!stdout.contains("verified: PSNR") && !stdout.contains("fidelity audit"), "{stdout}");
    assert!(line.is_none() || line.as_deref() == Some("cuszi_decompress_fields 0"), "{line:?}");
}

#[test]
fn psnr_search_with_verify_decodes_no_more_than_it_compresses() {
    let fin = workdir("pv-in.f32");
    let farc = workdir("pv.cszi");
    let fprom = workdir("pv.prom");
    let raw: Vec<u8> = (0..20 * 24 * 28)
        .flat_map(|i| (((i % 28) as f32 * 0.2).sin() + (i / 672) as f32 * 0.05).to_le_bytes())
        .collect();
    std::fs::write(&fin, &raw).unwrap();
    let out = Command::new(BIN)
        .args(["compress", "-i"])
        .arg(&fin)
        .arg("-o")
        .arg(&farc)
        .args(["--dims", "20x24x28", "--psnr", "60", "--verify"])
        .arg(format!("--prom={}", fprom.display()))
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("achieved") && stdout.contains("verified: PSNR"), "{stdout}");
    // Each search candidate is compressed and decoded once; --verify
    // reads the winner's reconstruction instead of decoding it again.
    let prom = std::fs::read_to_string(&fprom).unwrap();
    let count = |name: &str| -> u64 {
        let line = prom.lines().find(|l| l.starts_with(&format!("{name} "))).unwrap_or_else(|| {
            panic!("{name} missing: {prom}");
        });
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    let compressed = count("cuszi_compress_fields");
    assert!(compressed >= 1, "{prom}");
    assert_eq!(count("cuszi_decompress_fields"), compressed, "{prom}");

    let trace = PathBuf::from(format!("{}.trace.json", farc.display()));
    for f in [fin, farc, fprom, trace] {
        let _ = std::fs::remove_file(f);
    }
}
