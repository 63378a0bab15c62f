//! End-to-end flight recorder behaviour: an untouched pipeline run
//! journals every stage boundary and every *named* kernel launch into
//! the always-on black box, and an injected fault drains the journal
//! into a parseable `flight_<pid>_<seq>.json` dump whose terminal
//! event carries the failing stage. Dumps are sequence-numbered, so
//! repeated faults in one process never clobber each other.
//!
//! Flight state (rings, dump file) and fault state are process-global,
//! so every test serializes on one lock, mirroring `fault_matrix.rs`.

use std::sync::Mutex;

use cuszi_repro::core::{Config, CuszError, CuszI, Engine, EngineConfig};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::gpu_sim::fault::{self, FaultSpec};
use cuszi_repro::profile::{self, flight, minjson};
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::{NdArray, Shape};

static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

struct Armed;

impl Armed {
    fn new(spec: FaultSpec) -> Armed {
        fault::arm(spec);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn small_field() -> NdArray<f32> {
    let ds = generate(DatasetKind::ALL[0], Scale::Small, 7);
    let d = ds.fields[0].data.shape().dims3();
    let ext = [d[0].min(20), d[1].min(20), d[2].min(20)];
    NdArray::from_fn(Shape::d3(ext[0], ext[1], ext[2]), |z, y, x| ds.fields[0].data.get3(z, y, x))
}

/// Events recorded after a marker count, for isolating one run's slice
/// of the (persistent, shared) rings.
fn events_since(ts_floor: u64) -> Vec<cuszi_repro::profile::FlightEvent> {
    let (evs, _) = flight::snapshot();
    evs.into_iter().filter(|e| e.ts_ns >= ts_floor).collect()
}

fn now_marker() -> u64 {
    // Record a sentinel and read its timestamp back: everything at or
    // after it belongs to the code under test.
    flight::record(cuszi_repro::profile::FlightKind::StageBegin, "test-marker", 0);
    let (evs, _) = flight::snapshot();
    evs.iter().rev().find(|e| e.name.as_str() == "test-marker").map(|e| e.ts_ns).unwrap_or(0)
}

/// The stage brackets opened since `t0`, in order: the stages a run
/// actually executed, outer `compress`/`decompress` spans included.
fn stage_begins(t0: u64) -> Vec<String> {
    use cuszi_repro::profile::{Category, FlightKind};
    events_since(t0)
        .iter()
        .filter(|e| e.kind == FlightKind::StageBegin && e.cat == Category::Stage)
        .map(|e| e.name.as_str().to_string())
        .filter(|n| n != "test-marker")
        .collect()
}

/// The compress stages in order: `tune`, `histogram` and `codebook`
/// only on a cold run, `bitcomp` only with Bitcomp on.
fn compress_roster(cold: bool, bitcomp: bool) -> Vec<&'static str> {
    let mut want = vec!["compress"];
    if cold {
        want.push("tune");
    }
    want.push("predict-quant");
    if cold {
        want.extend(["histogram", "codebook"]);
    }
    want.extend(["huffman-encode", "assemble"]);
    if bitcomp {
        want.push("bitcomp");
    }
    want.push("finalize");
    want
}

/// The decompress stages in order: `bitcomp-decode` only for a packed
/// archive.
fn decompress_roster(bitcomp: bool) -> Vec<&'static str> {
    let mut want = vec!["decompress"];
    if bitcomp {
        want.push("bitcomp-decode");
    }
    want.extend(["split-sections", "huffman-decode", "g-interp-reconstruct"]);
    want
}

#[test]
fn clean_roundtrip_journals_stages_and_named_launches() {
    let _g = guard();
    let data = small_field();
    let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));

    let t0 = now_marker();
    let c = codec.compress(&data).expect("compress");
    let d = codec.decompress(&c.bytes).expect("decompress");
    assert_eq!(d.data.shape(), data.shape());
    let evs = events_since(t0);

    use cuszi_repro::profile::FlightKind;
    // Every stage of both directions has a matched begin/end pair.
    for stage in [
        "tune",
        "predict-quant",
        "histogram",
        "codebook",
        "huffman-encode",
        "assemble",
        "bitcomp",
        "finalize",
        "bitcomp-decode",
        "split-sections",
        "huffman-decode",
        "g-interp-reconstruct",
    ] {
        let begins = evs
            .iter()
            .filter(|e| e.kind == FlightKind::StageBegin && e.name.as_str() == stage)
            .count();
        let ends = evs
            .iter()
            .filter(|e| e.kind == FlightKind::StageEnd && e.name.as_str() == stage)
            .count();
        assert_eq!(begins, 1, "stage '{stage}' begin count");
        assert_eq!(ends, 1, "stage '{stage}' end count");
    }
    // ... and they ran in the pipeline's one order.
    assert_eq!(stage_begins(t0), [compress_roster(true, true), decompress_roster(true)].concat());

    // Kernel launches are journaled, and every launch site passes a
    // real name — a bare `launch()` would show up as the "kernel"
    // placeholder here.
    let launches: Vec<&str> = evs
        .iter()
        .filter(|e| e.kind == FlightKind::Launch)
        .map(|e| e.name.as_str())
        .collect();
    assert!(launches.len() >= 9, "expected the full kernel roster, got {launches:?}");
    assert!(
        !launches.contains(&"kernel"),
        "anonymous launch site reached the pipeline: {launches:?}"
    );
    for name in ["anchor-gather", "g-interp", "histogram", "huffman-emit", "g-interp-decode"] {
        assert!(launches.contains(&name), "launch '{name}' missing from {launches:?}");
    }

    // A clean run must not write a black-box dump.
    flight::clear_dumps();
    let c2 = codec.compress(&data).expect("compress");
    assert!(!c2.bytes.is_empty());
    assert!(flight::latest_dump().is_none(), "clean run wrote a flight dump");
}

#[test]
fn one_shot_runs_journal_their_fixed_stage_rosters() {
    let _g = guard();
    let data = small_field();
    for (cfg, bitcomp) in [
        (Config::new(ErrorBound::Rel(1e-3)).without_bitcomp(), false),
        (Config::new(ErrorBound::Rel(1e-3)).without_tuning(), true),
    ] {
        // One-shot compress, then decompress: an archive without
        // Bitcomp journals no `bitcomp-decode`.
        let codec = CuszI::new(cfg);
        let t0 = now_marker();
        let c = codec.compress(&data).expect("compress");
        codec.decompress(&c.bytes).expect("decompress");
        let want = [compress_roster(true, bitcomp), decompress_roster(bitcomp)].concat();
        assert_eq!(stage_begins(t0), want, "bitcomp={bitcomp}");
    }
}

#[test]
fn engine_cache_hit_skips_tune_histogram_and_codebook_stages() {
    let _g = guard();
    let data = small_field();
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    for bitcomp in [true, false] {
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let cfg = if bitcomp { cfg } else { cfg.without_bitcomp() };
        let t0 = now_marker();
        assert!(!engine.compress("t", data.clone(), cfg).expect("cold").cache_hit);
        assert_eq!(stage_begins(t0), compress_roster(true, bitcomp), "cold bitcomp={bitcomp}");
        let t0 = now_marker();
        assert!(engine.compress("t", data.clone(), cfg).expect("warm").cache_hit);
        assert_eq!(stage_begins(t0), compress_roster(false, bitcomp), "warm bitcomp={bitcomp}");
    }
}

#[test]
fn injected_fault_leaves_a_parseable_black_box() {
    let _g = guard();
    // Hook installation normally happens at first pipeline entry; do it
    // up front so the arm itself (which precedes any compress) is
    // journaled too.
    flight::install();
    let data = small_field();
    let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
    flight::clear_dumps();

    let err = {
        let _armed = Armed::new(FaultSpec::LaunchNamed("g-interp".into()));
        codec.compress(&data).expect_err("armed compress succeeded")
    };
    assert!(matches!(err, CuszError::StageError { stage: "predict-quant", .. }), "{err}");

    let txt = std::fs::read_to_string(flight::latest_dump().expect("flight dump written"))
        .expect("flight dump readable");
    let v = minjson::parse(&txt).expect("dump is valid JSON");
    assert_eq!(
        v.get("error").and_then(|e| e.get("stage")).and_then(|s| s.as_str()),
        Some("predict-quant")
    );
    let events = v.get("events").and_then(|e| e.as_array()).expect("events");
    let kind_of =
        |e: &minjson::Value| e.get("kind").and_then(|k| k.as_str()).unwrap_or("").to_string();
    let name_of =
        |e: &minjson::Value| e.get("name").and_then(|k| k.as_str()).unwrap_or("").to_string();

    // The journal tells the whole story: the armed spec, the sticky
    // trip (recorded as the fault latches, just before the launch is
    // journaled as dropped), and the terminal error. The rings persist
    // across runs, so the dump may also hold tail events of *earlier*
    // clean runs — take the last occurrence of each landmark.
    let rpos = |kind: &str, name: &str| {
        events.iter().rposition(|e| kind_of(e) == kind && name_of(e) == name)
    };
    let armed = rpos("fault-armed", "launch:g-interp").expect("fault-armed journaled");
    let dropped = rpos("launch-dropped", "g-interp").expect("dropped launch journaled");
    let tripped = rpos("fault-tripped", "g-interp").expect("fault trip journaled");
    let begun = rpos("stage-begin", "predict-quant").expect("failing stage begin journaled");
    assert!(armed < tripped && armed < dropped, "arm={armed} drop={dropped} trip={tripped}");
    assert!(begun < dropped, "stage must begin before its kernel drops");

    let last = events.last().expect("events nonempty");
    assert_eq!(kind_of(last), "error");
    assert_eq!(name_of(last), "predict-quant");

    // The failing stage is left open: its newest begin has no later end.
    assert!(
        rpos("stage-end", "predict-quant").is_none_or(|e| e < begun),
        "failed stage must not record a stage-end"
    );
}

#[test]
fn two_faults_in_one_process_leave_two_distinct_dumps() {
    let _g = guard();
    flight::install();
    let data = small_field();
    let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
    flight::clear_dumps();

    for kernel in ["g-interp", "histogram"] {
        let _armed = Armed::new(FaultSpec::LaunchNamed(kernel.into()));
        codec.compress(&data).expect_err("armed compress succeeded");
    }

    let dumps = flight::written_dumps();
    assert_eq!(dumps.len(), 2, "each fault writes its own dump: {dumps:?}");
    assert_ne!(dumps[0], dumps[1], "dump paths must not collide");
    let mut stages = Vec::new();
    for p in &dumps {
        let txt = std::fs::read_to_string(p).expect("dump readable");
        let v = minjson::parse(&txt).expect("dump is valid JSON");
        stages.push(
            v.get("error")
                .and_then(|e| e.get("stage"))
                .and_then(|s| s.as_str())
                .expect("dump has error.stage")
                .to_string(),
        );
    }
    assert_eq!(stages, ["predict-quant", "histogram"], "dumps kept their own attribution");
}

#[test]
fn dump_honours_flight_dir_override() {
    let _g = guard();
    // `dump_dir` reads the env on every call (unlike the once-latched
    // enable switch), so pointing it at a scratch dir is test-safe as
    // long as this lock is held.
    let dir = std::env::temp_dir().join(format!("cuszi-flight-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::env::set_var("CUSZI_FLIGHT_DIR", &dir);
    let path = flight::dump_on_error("predict-quant", "synthetic");
    std::env::remove_var("CUSZI_FLIGHT_DIR");
    let path = path.expect("dump written");
    assert_eq!(path.parent(), Some(dir.as_path()));
    assert!(path.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_trace_and_flight_dump_agree_on_a_failed_run() {
    let _g = guard();
    let data = small_field();
    let codec = CuszI::new(Config::new(ErrorBound::Rel(1e-3)));
    let profiler = profile::install();
    flight::clear_dumps();

    let t0 = now_marker();
    profile::enable(true);
    let err = {
        let _armed = Armed::new(FaultSpec::LaunchNamed("g-interp".into()));
        codec.compress(&data).expect_err("armed compress succeeded")
    };
    profile::enable(false);
    let trace = profiler.report().chrome_trace();
    let trace = minjson::parse(&trace).expect("trace is valid JSON");
    let dump = std::fs::read_to_string(flight::latest_dump().expect("flight dump written"))
        .expect("flight dump readable");
    let dump = minjson::parse(&dump).expect("dump is valid JSON");

    let field = |e: &minjson::Value, key: &str| {
        e.get(key).and_then(|v| v.as_str()).unwrap_or("").to_string()
    };
    let trace_begins: Vec<String> = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents")
        .iter()
        .filter(|e| field(e, "ph") == "B" && field(e, "cat") == "stage")
        .map(|e| field(e, "name"))
        .collect();
    // The rings persist across runs: keep the dump's events since the
    // marker, i.e. this run's.
    let dump_begins: Vec<String> = dump
        .get("events")
        .and_then(|e| e.as_array())
        .expect("events")
        .iter()
        .filter(|e| e.get("ts_ns").and_then(|t| t.as_f64()).is_some_and(|t| t >= t0 as f64))
        .filter(|e| field(e, "kind") == "stage-begin" && field(e, "name") != "test-marker")
        .map(|e| field(e, "name"))
        .collect();
    assert_eq!(trace_begins, dump_begins, "trace and black box list different stages");

    let stage = dump.get("error").map(|e| field(e, "stage")).expect("dump has error.stage");
    assert_eq!(stage, err.stage(), "{err}");
    assert_eq!(trace_begins.last(), Some(&stage), "trace ends at the failed stage");
    assert_eq!(dump_begins.last(), Some(&stage), "black box ends at the failed stage");
}
