//! End-to-end tests of the global profiler against real `gpu-sim`
//! launches: golden Chrome-trace schema and kernel-table determinism.
//!
//! These live in their own integration binary (own process) because
//! they install and toggle the process-global profiler/launch hook.

use std::sync::Mutex;

use cuszi_gpu_sim::{launch_named, GlobalRead, GlobalWrite, Grid, A100};
use cuszi_profile as profile;
use cuszi_profile::{minjson, Category};

/// The profiler and launch hook are process-global; serialise the tests
/// that toggle them.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// One deterministic workload: two named kernels under a stage span.
fn run_workload() -> profile::Report {
    let p = profile::profiler().expect("profiler installed");
    {
        let _stage = profile::span("compress", Category::Stage);
        let input: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let mut output = vec![0.0f32; input.len()];
        {
            let src = GlobalRead::new(&input);
            let dst = GlobalWrite::new(&mut output);
            launch_named(&A100, Grid::linear(16, 64), "copy-kernel", |ctx| {
                let b = ctx.block_linear() as usize;
                let chunk = 4096 / 16;
                let mut buf = ctx.scratch(chunk, 0.0f32);
                ctx.read_span(&src, b * chunk, &mut buf);
                ctx.add_flops(chunk as u64);
                ctx.write_span(&dst, b * chunk, &buf);
            });
        }
        {
            let _inner = profile::span("reduce", Category::Stage);
            let src = GlobalRead::new(&output);
            launch_named(&A100, Grid::linear(4, 32), "reduce-kernel", |ctx| {
                let b = ctx.block_linear() as usize;
                let chunk = 4096 / 4;
                let mut buf = ctx.scratch(chunk, 0.0f32);
                ctx.read_span(&src, b * chunk, &mut buf);
                ctx.add_flops(chunk as u64);
            });
        }
        profile::count("bytes_in", 4096 * 4);
        profile::observe("cr_ppt", 2500);
    }
    p.report()
}

#[test]
fn profiled_runs_emit_valid_traces_and_identical_kernel_tables() {
    let _lock = TEST_LOCK.lock().unwrap();
    profile::install();
    profile::enable(true);
    let rep1 = run_workload();
    let rep2 = run_workload();
    profile::enable(false);

    // --- Golden Chrome-trace schema -------------------------------
    let json = rep1.chrome_trace();
    let v = minjson::parse(&json).expect("trace is valid JSON");
    let events = v.get("traceEvents").expect("traceEvents key").as_array().unwrap();
    // 2 stage spans (B+E each) + 2 kernel X events.
    assert_eq!(events.len(), 6, "events: {json}");
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {json}");
        }
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert!(matches!(ph, "B" | "E" | "X"), "bad ph {ph}");
        if ph == "X" {
            assert!(ev.get("dur").unwrap().as_f64().unwrap() > 0.0);
        }
    }
    let names: Vec<&str> =
        events.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
    for expect in ["compress", "reduce", "copy-kernel", "reduce-kernel"] {
        assert!(names.contains(&expect), "missing {expect} in {names:?}");
    }

    // --- Kernel tables: identical across runs ---------------------
    assert_eq!(rep1.kernels.len(), 2);
    assert_eq!(rep2.kernels.len(), 2);
    for (a, b) in rep1.kernels.iter().zip(&rep2.kernels) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.launches, b.launches);
        assert_eq!(a.incomplete, 0);
        assert_eq!(a.stats, b.stats, "stats differ for {}", a.name);
        assert_eq!(a.breakdown, b.breakdown, "breakdown differs for {}", a.name);
        assert_eq!(a.sim_s(), b.sim_s());
        // Wall time is the one field allowed to differ between runs.
    }
    // The kernel rows carry real measured traffic.
    let copy = &rep1.kernels[0];
    assert_eq!(copy.name, "copy-kernel");
    assert_eq!(copy.stats.blocks, 16);
    assert!(copy.stats.dram_bytes() >= 2 * 4096 * 4);
    assert!(copy.achieved_gbps() > 0.0);

    // Whole-table text/JSON renders are identical too (wall time is
    // not part of the text report's columns... it is in JSON, so
    // compare text only).
    let mut t1 = profile::KernelTable::new();
    t1.restore(rep1.kernels.clone());
    let mut t2 = profile::KernelTable::new();
    t2.restore(rep2.kernels.clone());
    assert_eq!(t1.render(), t2.render());

    // --- Metrics --------------------------------------------------
    assert_eq!(rep1.metrics.counters["bytes_in"], 4096 * 4);
    assert_eq!(rep1.metrics.histograms["cr_ppt"].count, 1);
    assert_eq!(rep1.metrics, rep2.metrics);

    // --- Flame summary nests the kernel under its stage -----------
    let flame = rep1.flame_summary();
    let c = flame.find("compress").expect("compress in flame");
    let k = flame.find("copy-kernel").expect("kernel in flame");
    assert!(c < k, "kernel should render under the stage:\n{flame}");
}

#[test]
fn stream_launches_get_one_labeled_lane_per_stream() {
    let _lock = TEST_LOCK.lock().unwrap();
    profile::install();
    profile::enable(true);
    let input: Vec<f32> = (0..4096).map(|i| i as f32).collect();
    cuszi_gpu_sim::with_streams(2, |streams| {
        for s in streams {
            let input = &input;
            s.submit(move || {
                let src = GlobalRead::new(input);
                launch_named(&A100, Grid::linear(16, 64), "lane-kernel", |ctx| {
                    let b = ctx.block_linear() as usize;
                    let chunk = 4096 / 16;
                    let mut buf = ctx.scratch(chunk, 0.0f32);
                    ctx.read_span(&src, b * chunk, &mut buf);
                });
            });
        }
        for s in streams {
            s.synchronize().expect("no fault armed");
        }
    });
    profile::enable(false);
    let rep = profile::profiler().unwrap().report();

    // Each stream worker is its own tracer thread, labeled by the
    // stream it serves.
    let labels: Vec<&str> = rep.thread_labels.iter().map(|(_, l)| l.as_str()).collect();
    assert!(labels.contains(&"stream-0"), "labels: {labels:?}");
    assert!(labels.contains(&"stream-1"), "labels: {labels:?}");
    let tid_of = |want: &str| {
        rep.thread_labels.iter().find(|(_, l)| l == want).map(|(t, _)| *t).unwrap()
    };
    assert_ne!(tid_of("stream-0"), tid_of("stream-1"), "one lane per stream");

    // The kernel X events land on the labeled lanes, and the trace
    // carries Perfetto `thread_name` metadata for them.
    let lane_tids: Vec<u32> = rep.thread_labels.iter().map(|(t, _)| *t).collect();
    let xs: Vec<_> = rep
        .events
        .iter()
        .filter(|e| e.name.as_str() == "lane-kernel")
        .collect();
    assert_eq!(xs.len(), 2);
    assert!(xs.iter().all(|e| lane_tids.contains(&e.tid)));
    let json = rep.chrome_trace();
    let v = minjson::parse(&json).expect("valid trace json");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    let metas: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
        .collect();
    assert!(metas.len() >= 2, "thread_name metadata present: {json}");
    for m in &metas {
        assert_eq!(m.get("name").unwrap().as_str(), Some("thread_name"));
        assert!(m.get("args").unwrap().get("name").is_some());
    }
    // Flame summary headers show the lane names.
    let flame = rep.flame_summary();
    assert!(flame.contains("(stream-0)"), "flame:\n{flame}");
}

#[test]
fn reports_name_only_the_lanes_their_capture_used() {
    let _lock = TEST_LOCK.lock().unwrap();
    profile::install();
    profile::enable(true);
    let input: Vec<f32> = (0..1024).map(|i| i as f32).collect();
    cuszi_gpu_sim::with_streams(2, |streams| {
        for s in streams {
            let input = &input;
            s.submit(move || {
                let src = GlobalRead::new(input);
                launch_named(&A100, Grid::linear(4, 64), "lane-kernel", |ctx| {
                    let mut buf = ctx.scratch(256, 0.0f32);
                    ctx.read_span(&src, ctx.block_linear() as usize * 256, &mut buf);
                });
            });
        }
        for s in streams {
            s.synchronize().expect("no fault armed");
        }
    });
    let streamed = profile::profiler().unwrap().report();
    assert_eq!(streamed.thread_labels.len(), 2, "{:?}", streamed.thread_labels);

    // A later capture on this thread alone names no stream lane: the
    // labels outlive the drain, but its trace has no events on them.
    let rep = run_workload();
    profile::enable(false);
    assert!(rep.thread_labels.is_empty(), "{:?}", rep.thread_labels);
    let json = rep.chrome_trace();
    let v = minjson::parse(&json).expect("valid trace json");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    assert!(events.iter().all(|e| e.get("ph").unwrap().as_str() != Some("M")), "{json}");
    assert_eq!(events.len(), 6, "{json}");
}

#[test]
fn disabled_profiling_records_nothing() {
    let _lock = TEST_LOCK.lock().unwrap();
    profile::install();
    profile::enable(false);
    {
        let _g = profile::span("ghost-stage", Category::Stage);
        profile::count("ghost-counter", 1);
    }
    let rep = profile::profiler().unwrap().report();
    assert!(!rep.events.iter().any(|e| e.name.as_str() == "ghost-stage"));
    assert!(!rep.metrics.counters.contains_key("ghost-counter"));
}
