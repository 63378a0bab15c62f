//! The fault matrix: every injectable fault kind, at every
//! kernel-bearing stage, on every dataset analogue, at stream counts
//! 1 and 4 — each must surface as a typed `Err(CuszError::...)`,
//! never a panic. With nothing armed, archives must be byte-identical
//! to the unarmed reference (the injector's fast path is inert).
//!
//! Fault state is process-global (mirroring CUDA's per-context sticky
//! errors), so every test here serializes on one lock and disarms on
//! exit — including panic exits — via the `Armed` RAII guard.

use std::sync::Mutex;

use cuszi_repro::core::{
    compress_fields_sharded, compress_fields_streams, compress_slabs_streams,
    decompress_slabs_streams, sched, Config, CuszError, CuszI, Engine, EngineConfig, EngineError,
    NamedField, ShardPlan, StageFaultKind,
};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::gpu_sim::fault::{self, FaultSpec};
use cuszi_repro::profile::{flight, minjson};
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::{NdArray, Shape};

static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm a fault for one scope; disarm on drop (even when an assertion
/// in the scope panics, so one failure can't poison later tests).
struct Armed;

impl Armed {
    fn new(spec: FaultSpec) -> Armed {
        fault::arm(spec);
        Armed
    }

    /// Arm in a specific device's fault domain (the `dev<N>:` scope of
    /// `CUSZI_FAULT`); the other domains stay untouched.
    fn on(dev: usize, spec: FaultSpec) -> Armed {
        fault::arm_on(dev, spec);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fault::disarm();
    }
}

/// Crop to <= 24^3 so the full matrix stays debug-fast; generators are
/// deterministic, so crops are stable across runs.
fn crop(data: &NdArray<f32>) -> NdArray<f32> {
    let d = data.shape().dims3();
    let ext = [d[0].min(24), d[1].min(24), d[2].min(24)];
    NdArray::from_fn(Shape::d3(ext[0], ext[1], ext[2]), |z, y, x| data.get3(z, y, x))
}

/// Up to two cropped fields per dataset analogue.
fn fields_of(kind: DatasetKind) -> Vec<(String, NdArray<f32>)> {
    let ds = generate(kind, Scale::Small, 42);
    ds.fields.iter().take(2).map(|f| (f.name.to_string(), crop(&f.data))).collect()
}

/// Remove this process's flight dumps so a later assertion can't pass
/// on a stale file from an earlier injection.
fn clear_flight_dump() {
    flight::clear_dumps();
}

/// Every injection must leave a black box: a parseable
/// `flight_<pid>.json` whose terminal event is the error, attributed to
/// the same stage as the typed `CuszError`. `expect_stage` is `None`
/// at stream counts where attribution is nondeterministic (several
/// concurrent jobs race to write the dump; the last writer wins).
fn assert_flight_dump(err: &CuszError, expect_stage: Option<&str>) {
    let path = flight::latest_dump().unwrap_or_else(|| panic!("no flight dump (after {err})"));
    let txt = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no flight dump at {}: {e} (after {err})", path.display()));
    let v = minjson::parse(&txt).expect("flight dump is valid JSON");
    let stage = v
        .get("error")
        .and_then(|e| e.get("stage"))
        .and_then(|s| s.as_str())
        .expect("dump has error.stage");
    let events = v.get("events").and_then(|e| e.as_array()).expect("dump has events");
    let last = events.last().expect("dump has at least the error event");
    assert_eq!(last.get("kind").and_then(|k| k.as_str()), Some("error"), "{err}");
    assert_eq!(
        last.get("name").and_then(|n| n.as_str()),
        Some(stage),
        "terminal event must carry the error's stage ({err})"
    );
    if let Some(want) = expect_stage {
        assert_eq!(stage, want, "dump attribution disagrees with typed error ({err})");
    }
}

/// Kernel-bearing compress stages and the kernels they launch.
const COMPRESS_STAGES: &[(&str, &[&str])] = &[
    ("predict-quant", &["anchor-gather", "g-interp"]),
    ("histogram", &["histogram"]),
    ("huffman-encode", &["huffman-emit"]),
    ("bitcomp", &["bitcomp-encode", "bitcomp-emit"]),
];

/// Kernel-bearing decompress stages and the kernels they launch. The
/// Huffman stage is the one stored-gap-array launch.
const DECOMPRESS_STAGES: &[(&str, &[&str])] = &[
    ("bitcomp-decode", &["bitcomp-decode"]),
    ("huffman-decode", &["huffman-decode-gap"]),
    ("g-interp-reconstruct", &["g-interp-decode"]),
];

#[test]
fn launch_faults_error_at_owning_stage_on_all_datasets() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    for kind in DatasetKind::ALL {
        let fields = fields_of(kind);
        let named: Vec<NamedField> =
            fields.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
        for streams in [1usize, 4] {
            for &(stage, kernels) in COMPRESS_STAGES {
                for &kernel in kernels {
                    clear_flight_dump();
                    let _armed = Armed::new(FaultSpec::LaunchNamed(kernel.into()));
                    let err = compress_fields_streams(&named, cfg, streams)
                        .expect_err(&format!(
                            "{}: launch:{kernel} at streams={streams} compressed Ok",
                            kind.name()
                        ));
                    match &err {
                        CuszError::StageError { stage: got, kind: fk, site } => {
                            assert_eq!(*fk, StageFaultKind::LaunchFailed, "{err}");
                            assert_eq!(site, kernel, "{err}");
                            if streams == 1 {
                                // One stream serializes the jobs, so the
                                // sticky fault drains in the stage that
                                // owns the dropped kernel.
                                assert_eq!(*got, stage, "{}: {err}", kind.name());
                            }
                        }
                        other => panic!("{}: launch:{kernel} gave {other:?}", kind.name()),
                    }
                    assert_flight_dump(&err, (streams == 1).then_some(stage));
                }
            }
        }
    }
}

#[test]
fn warm_engine_launch_faults_error_at_owning_stage_on_all_datasets() {
    // An engine cache hit skips the histogram; its other launches
    // still fail in the stage that owns them.
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    for kind in DatasetKind::ALL {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let data = &fields_of(kind)[0].1;
        engine.compress("t", data.clone(), cfg).expect("cold engine compress");
        for &(stage, kernels) in COMPRESS_STAGES.iter().filter(|(s, _)| *s != "histogram") {
            for &kernel in kernels {
                clear_flight_dump();
                let _armed = Armed::new(FaultSpec::LaunchNamed(kernel.into()));
                let err = match engine.compress("t", data.clone(), cfg) {
                    Err(EngineError::Job(e)) => e,
                    other => panic!("{}: warm launch:{kernel} gave {other:?}", kind.name()),
                };
                let want = CuszError::StageError {
                    stage,
                    kind: StageFaultKind::LaunchFailed,
                    site: kernel.to_string(),
                };
                assert_eq!(err, want, "{}: warm job", kind.name());
                assert_flight_dump(&err, Some(stage));
            }
        }
        assert_eq!(engine.stats().cache_misses, 1, "{}: every faulted job was warm", kind.name());
    }
}

#[test]
fn decompress_launch_faults_error_at_owning_stage_on_all_datasets() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let codec = CuszI::new(cfg);
    for kind in DatasetKind::ALL {
        let (name, data) = &fields_of(kind)[0];
        let archive = codec.compress(data).expect("unarmed compress").bytes;
        for &(stage, kernels) in DECOMPRESS_STAGES {
            for &kernel in kernels {
                clear_flight_dump();
                let _armed = Armed::new(FaultSpec::LaunchNamed(kernel.into()));
                let err = codec.decompress(&archive).expect_err(&format!(
                    "{}/{name}: launch:{kernel} decompressed Ok",
                    kind.name()
                ));
                assert_eq!(
                    err,
                    CuszError::StageError {
                        stage,
                        kind: StageFaultKind::LaunchFailed,
                        site: kernel.to_string(),
                    },
                    "{}/{name}",
                    kind.name()
                );
                assert_flight_dump(&err, Some(stage));
            }
        }
    }
}

#[test]
fn alloc_faults_error_without_panicking() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let codec = CuszI::new(cfg);
    let (_, data) = &fields_of(DatasetKind::ALL[0])[0];
    let archive = codec.compress(data).expect("unarmed compress").bytes;

    // Small N always trips (every kernel draws scratch buffers). Each N
    // may surface at a different stage — the sweep asserts the kind, not
    // the site.
    for n in [1u64, 2, 3, 5, 8, 13, 21, 34] {
        clear_flight_dump();
        let _armed = Armed::new(FaultSpec::AllocNth(n));
        match codec.compress(data) {
            Err(err @ CuszError::StageError { kind: StageFaultKind::AllocFailed, .. }) => {
                assert_flight_dump(&err, Some(err.stage()));
            }
            other => panic!("alloc:{n} compress gave {other:?}"),
        }
        clear_flight_dump();
        let _armed = Armed::new(FaultSpec::AllocNth(n));
        match codec.decompress(&archive) {
            Err(err @ CuszError::StageError { kind: StageFaultKind::AllocFailed, .. }) => {
                assert_flight_dump(&err, Some(err.stage()));
            }
            other => panic!("alloc:{n} decompress gave {other:?}"),
        }
    }
}

#[test]
fn poisoned_stream_fails_only_its_own_jobs() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let codec = CuszI::new(cfg);
    let fields = fields_of(DatasetKind::ALL[1]);
    let (_, data) = &fields[0];
    let reference = codec.compress(data).expect("unarmed compress").bytes;

    // Eight copies of the same field over four streams: jobs 1 and 5
    // land on the poisoned stream and must fail typed; the other six
    // must come back byte-identical to the unarmed archive.
    clear_flight_dump();
    let _armed = Armed::new(FaultSpec::PoisonStream(1));
    let results = run_each(ShardPlan::new(1).streams(4), 8, |_| codec.compress(data));
    for (i, r) in results.iter().enumerate() {
        if i % 4 == 1 {
            assert_eq!(r.as_ref().err(), Some(&unrun("")), "job {i} ran on the poisoned stream");
            assert_flight_dump(r.as_ref().unwrap_err(), Some("schedule"));
        } else {
            let c = r.as_ref().unwrap_or_else(|e| panic!("sibling job {i} failed: {e}"));
            assert_eq!(c.bytes, reference, "job {i}: sibling archive changed");
        }
    }
}

/// Every job's result through the executor, in index order.
fn run_each<U: Send>(
    plan: ShardPlan,
    count: usize,
    f: impl Fn(usize) -> Result<U, CuszError> + Sync,
) -> Vec<Result<U, CuszError>> {
    let mut results = Vec::new();
    sched::execute(
        &plan,
        count,
        |i| i,
        f,
        |_| 0,
        |_, r| {
            results.push(r);
            Ok(())
        },
    )
    .expect("a sink that never fails");
    results
}

/// The typed error of a job its poisoned stream dropped unrun.
fn unrun(prefix: &str) -> CuszError {
    CuszError::StageError {
        stage: "schedule",
        kind: StageFaultKind::StreamPoisoned,
        site: format!("{prefix}job slot never filled"),
    }
}

/// A field cut into eight z-slabs of 3, for the slab-path rows.
fn slab_field() -> (NdArray<f32>, impl Fn(usize, usize) -> NdArray<f32>) {
    let (_, data) = fields_of(DatasetKind::ALL[0]).swap_remove(0);
    let [_, ny, nx] = data.shape().dims3();
    let field = data.clone();
    let slab = move |z0: usize, nz: usize| {
        NdArray::from_fn(Shape::d3(nz, ny, nx), |z, y, x| field.get3(z0 + z, y, x))
    };
    (data, slab)
}

#[test]
fn poisoned_stream_fails_slab_compress_typed_with_a_dump() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Abs(1e-3));
    let (data, slab) = slab_field();
    let (reference, _) =
        compress_slabs_streams(data.shape(), 3, cfg, 4, &slab).expect("unarmed compress");
    clear_flight_dump();
    let err = {
        let _armed = Armed::new(FaultSpec::PoisonStream(1));
        compress_slabs_streams(data.shape(), 3, cfg, 4, &slab)
            .expect_err("poisoned slab stream compressed Ok")
    };
    // Slab 1 is the first job on stream 1.
    assert_eq!(err, unrun(""));
    assert_flight_dump(&err, Some("schedule"));
    let (again, _) =
        compress_slabs_streams(data.shape(), 3, cfg, 4, &slab).expect("disarmed compress");
    assert_eq!(again, reference, "disarmed slab stream differs");
}

#[test]
fn poisoned_stream_fails_slab_decompress_typed_with_a_dump() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Abs(1e-3));
    let (data, slab) = slab_field();
    let (bytes, _) = compress_slabs_streams(data.shape(), 3, cfg, 4, slab).expect("compress");
    let mut reference = Vec::new();
    decompress_slabs_streams(&bytes, cfg, 4, |z0, s| reference.push((z0, s)))
        .expect("unarmed decompress");
    assert_eq!(reference.len(), 8);
    clear_flight_dump();
    let mut got = Vec::new();
    let err = {
        let _armed = Armed::new(FaultSpec::PoisonStream(1));
        decompress_slabs_streams(&bytes, cfg, 4, |z0, s| got.push((z0, s)))
            .expect_err("poisoned slab stream decompressed Ok")
    };
    assert_eq!(err, unrun(""));
    assert_flight_dump(&err, Some("schedule"));
    // Slabs ahead of the first dropped one still reach the consumer,
    // byte-identical.
    assert_eq!(got.len(), 1, "the consumer stops at the first dropped slab");
    for ((z0, s), (rz0, rs)) in got.iter().zip(&reference) {
        assert_eq!(z0, rz0);
        let bits = |a: &NdArray<f32>| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s), bits(rs), "slab z0={z0} changed");
    }
}

#[test]
fn poisoning_the_only_stream_fails_every_job_typed() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let fields = fields_of(DatasetKind::ALL[2]);
    let named: Vec<NamedField> =
        fields.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
    clear_flight_dump();
    let _armed = Armed::new(FaultSpec::PoisonStream(0));
    let err = compress_fields_streams(&named, cfg, 1).expect_err("poisoned batch compressed Ok");
    assert!(
        matches!(
            err,
            CuszError::StageError { kind: StageFaultKind::StreamPoisoned, .. }
        ),
        "{err}"
    );
    assert_flight_dump(&err, Some(err.stage()));
}

#[test]
fn poisoned_device_fails_only_its_own_shards() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let codec = CuszI::new(cfg);
    let fields = fields_of(DatasetKind::ALL[3]);
    let (_, data) = &fields[0];
    let reference = codec.compress(data).expect("unarmed compress").bytes;

    // Eight shards round-robin over four devices, two per device, each
    // device scheduling its pair on its own (single) stream. Only
    // device 2's domain is poisoned: its shards must fail typed and
    // device-attributed, every neighbour's archives stay byte-identical.
    clear_flight_dump();
    let _armed = Armed::on(2, FaultSpec::PoisonStream(0));
    let results = run_each(ShardPlan::new(4).streams(1), 8, |_| codec.compress(data));
    for (i, r) in results.iter().enumerate() {
        let dev = i % 4;
        if dev == 2 {
            assert_eq!(
                r.as_ref().err(),
                Some(&unrun("device 2: ")),
                "device {dev} shard {i} ran despite the poisoned domain"
            );
        } else {
            let c = r.as_ref().unwrap_or_else(|e| panic!("device {dev} shard {i} failed: {e}"));
            assert_eq!(c.bytes, reference, "device {dev} shard {i}: neighbour archive changed");
        }
    }
}

#[test]
fn sharded_batch_attributes_poisoned_device_and_recovers() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let fields = fields_of(DatasetKind::ALL[4]);
    let (_, data) = &fields[0];
    // Four shards at four devices: shard i lands on device i, so every
    // device (including the poisoned one) owns exactly one.
    let names: Vec<String> = (0..4).map(|i| format!("shard-{i}")).collect();
    let named: Vec<NamedField> = names.iter().map(|n| NamedField { name: n, data }).collect();
    let plan = ShardPlan::new(4).streams(1);
    let (reference, _) = compress_fields_sharded(&named, cfg, plan).expect("unarmed sharded");

    // A fault scoped to device 3 while the plan only visits devices
    // 0 and 1: the armed domain is never entered, so the batch is
    // untouched (domains are per-device, not process-wide).
    {
        let _armed = Armed::on(3, FaultSpec::PoisonStream(0));
        let (c, _) = compress_fields_sharded(&named, cfg, ShardPlan::new(2).streams(1))
            .expect("fault scoped to an unused device must not trip");
        assert_eq!(c.bytes, reference.bytes, "idle-domain fault leaked into the batch");
    }

    // Poison device 1's only stream: the batch fails typed and the
    // error site names the failing device.
    clear_flight_dump();
    let err = {
        let _armed = Armed::on(1, FaultSpec::PoisonStream(0));
        compress_fields_sharded(&named, cfg, plan).expect_err("poisoned device compressed Ok")
    };
    match &err {
        CuszError::StageError { stage, kind, site } => {
            assert_eq!(*stage, "schedule", "{err}");
            assert_eq!(*kind, StageFaultKind::StreamPoisoned, "{err}");
            assert!(site.starts_with("device 1: "), "site must name the device: {err}");
        }
        other => panic!("poisoned device gave {other:?}"),
    }
    assert_flight_dump(&err, Some("schedule"));

    // Disarmed, the same plan reproduces the reference bytes — no
    // residue in any domain.
    let (again, _) = compress_fields_sharded(&named, cfg, plan).expect("disarmed sharded");
    assert_eq!(again.bytes, reference.bytes, "disarmed sharded archive differs");
}

#[test]
fn disarmed_archives_are_byte_identical_on_all_datasets() {
    let _g = guard();
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    for kind in DatasetKind::ALL {
        let fields = fields_of(kind);
        let named: Vec<NamedField> =
            fields.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
        let (reference, _) =
            compress_fields_streams(&named, cfg, 1).expect("unarmed compress");

        // Run a faulted compression in between, then recompress: the
        // injector must leave no residue once disarmed.
        {
            let _armed = Armed::new(FaultSpec::LaunchNamed("g-interp".into()));
            let _ = compress_fields_streams(&named, cfg, 1);
        }
        for streams in [1usize, 4] {
            let (again, _) =
                compress_fields_streams(&named, cfg, streams).expect("disarmed compress");
            assert_eq!(
                again.bytes,
                reference.bytes,
                "{}: disarmed archive differs at streams={streams}",
                kind.name()
            );
        }
    }
}
