//! Observability for the cuSZ-i reproduction — zero-cost when disabled.
//!
//! Three instruments behind one switch:
//!
//! 1. a lock-free per-thread span [`tracer`] (begin/end stage spans,
//!    complete kernel events) exporting Chrome `trace_event` JSON that
//!    loads in Perfetto, plus a flamegraph-style text summary;
//! 2. a per-kernel profile table ([`kernels::KernelTable`]) fed by the
//!    `gpu-sim` launch hook: measured [`cuszi_gpu_sim::KernelStats`]
//!    with the roofline decomposition, achieved GB/s vs the bandwidth
//!    ceiling, coalescing efficiency, DRAM excess bytes, occupancy
//!    waves, and a bottleneck verdict per kernel;
//! 3. a [`metrics`] registry of monotonic counters and histograms
//!    (bytes in/out, per-field compression ratio, outlier rate,
//!    codebook entropy).
//!
//! Instrumented code calls the free functions here ([`span`],
//! [`count`], [`observe`]) or goes through the [`ProfileSink`] trait
//! when it wants an injectable handle. When profiling is off — the
//! default — every hook is a single relaxed atomic load; no clock is
//! read, no string is formatted, no lock is taken. Turn it on with
//! [`install`] + [`enable`], or ambiently via `CUSZI_PROFILE=1` and
//! [`init_from_env`].

pub mod flight;
pub mod kernels;
pub mod metrics;
pub mod minjson;
pub mod trace_json;
pub mod tracer;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cuszi_gpu_sim::hook::{self, LaunchObserver, LaunchRecord};
use cuszi_gpu_sim::timing::TimingModel;

pub use flight::{FlightEvent, FlightKind};
pub use kernels::{KernelRow, KernelTable};
pub use metrics::{Registry, Snapshot};
pub use tracer::{Category, Event, Tracer};

/// Sink interface for instrumented code that wants an injected handle
/// instead of the process-global profiler (tests inject their own; the
/// pipeline's hooks go through the same trait either way).
pub trait ProfileSink: Send + Sync {
    /// Open a span on the calling thread.
    fn span_begin(&self, name: &str, cat: Category);
    /// Close the most recent span with this name on the calling thread.
    fn span_end(&self, name: &str, cat: Category);
    /// Add to a monotonic counter.
    fn count(&self, name: &str, delta: u64);
    /// Record a histogram sample.
    fn observe(&self, name: &str, value: u64);
}

/// The process profiler: tracer + kernel table + metrics registry.
pub struct Profiler {
    tracer: Tracer,
    kernels: Mutex<KernelTable>,
    metrics: Registry,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    pub fn new() -> Self {
        Profiler {
            tracer: Tracer::default(),
            kernels: Mutex::new(KernelTable::new()),
            metrics: Registry::new(),
        }
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Record a kernel launch (normally driven by the gpu-sim hook).
    pub fn record_launch(&self, rec: &LaunchRecord<'_>) {
        self.kernels.lock().unwrap().record(rec);
        // A launch issued on a gpu-sim stream arrives on that stream's
        // worker thread; naming the lane after the stream gives the
        // trace one Perfetto lane per stream.
        if let Some((_, label)) = rec.stream {
            self.tracer.label_current_thread(label);
        }
        // Mirror the launch into the trace as a complete event whose
        // duration is the *simulated* kernel time — what the timeline
        // should show for a modelled GPU.
        let sim_ns = TimingModel::new(*rec.device).kernel_time(&rec.stats) * 1e9;
        self.tracer.complete(rec.name, Category::Kernel, sim_ns as u64);
    }

    /// Drain everything recorded so far into a [`Report`].
    ///
    /// Call after the profiled workload has returned (recording threads
    /// quiescent); the profiler is left empty for the next capture.
    pub fn report(&self) -> Report {
        let (events, dropped) = self.tracer.take_events();
        // Labels outlive drains; name only the lanes this capture uses,
        // so an earlier capture's streams add no empty lanes.
        let mut thread_labels = self.tracer.thread_labels();
        thread_labels.retain(|(tid, _)| events.iter().any(|e| e.tid == *tid));
        Report {
            events,
            dropped_events: dropped,
            thread_labels,
            kernels: self.kernels.lock().unwrap().take(),
            metrics: self.metrics.take(),
        }
    }
}

impl ProfileSink for Profiler {
    fn span_begin(&self, name: &str, cat: Category) {
        self.tracer.begin(name, cat);
    }
    fn span_end(&self, name: &str, cat: Category) {
        self.tracer.end(name, cat);
    }
    fn count(&self, name: &str, delta: u64) {
        self.metrics.count(name, delta);
    }
    fn observe(&self, name: &str, value: u64) {
        self.metrics.observe(name, value);
    }
}

/// One drained capture: everything needed to write the artifacts.
pub struct Report {
    pub events: Vec<Event>,
    pub dropped_events: u64,
    /// `(tid, lane label)` pairs — one per gpu-sim stream lane that has
    /// events in this capture.
    pub thread_labels: Vec<(u32, String)>,
    pub kernels: Vec<KernelRow>,
    pub metrics: Snapshot,
}

impl Report {
    /// Chrome `trace_event` JSON (Perfetto-loadable; stream lanes are
    /// named via `thread_name` metadata).
    pub fn chrome_trace(&self) -> String {
        trace_json::chrome_trace(&self.events, self.dropped_events, &self.thread_labels)
    }

    /// Flamegraph-style indented text summary of the spans.
    pub fn flame_summary(&self) -> String {
        trace_json::flame_summary_labeled(&self.events, &self.thread_labels)
    }

    /// Nsight-style kernel table text report.
    pub fn kernel_report(&self) -> String {
        let mut t = KernelTable::new();
        // Rebuild a table view over the drained rows.
        t.restore(self.kernels.clone());
        t.render()
    }

    /// Combined JSON document: kernel table + metrics + trace metadata
    /// (the `profile_<n>.json` payload).
    pub fn to_json(&self) -> String {
        let mut kt = KernelTable::new();
        kt.restore(self.kernels.clone());
        format!(
            "{{\n\"kernels\": {},\n\"metrics\": {},\n\"trace\": {{\"events\": {}, \"dropped\": {}}}\n}}",
            kt.to_json(),
            self.metrics.to_json(),
            self.events.len(),
            self.dropped_events,
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROFILER: OnceLock<Profiler> = OnceLock::new();

struct HookAdapter;

impl LaunchObserver for HookAdapter {
    fn on_launch(&self, rec: &LaunchRecord<'_>) {
        if let Some(p) = PROFILER.get() {
            p.record_launch(rec);
        }
    }
}

/// Install the process-global profiler and register it as the gpu-sim
/// launch observer. Idempotent; recording stays off until [`enable`].
pub fn install() -> &'static Profiler {
    let p = PROFILER.get_or_init(Profiler::new);
    hook::set_observer(Box::new(HookAdapter));
    p
}

/// The installed profiler, if any.
pub fn profiler() -> Option<&'static Profiler> {
    PROFILER.get()
}

/// Turn recording on or off (span hooks here and the launch hook in
/// gpu-sim flip together).
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    hook::enable(on);
}

/// Whether recording is on. One relaxed load — this is the entire cost
/// of every hook when profiling is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install and enable if `CUSZI_PROFILE` is set to a truthy value
/// (`1`, `true`, `on`, or a path). Returns whether profiling is on.
pub fn init_from_env() -> bool {
    match std::env::var("CUSZI_PROFILE") {
        Ok(v) if !v.is_empty() && v != "0" && v.to_lowercase() != "false" => {
            install();
            enable(true);
            true
        }
        _ => false,
    }
}

/// RAII span: records begin on creation and end on drop (including
/// unwind paths, so a panicking stage still closes its span). When
/// profiling is disabled this is a no-op carrying no clock reads.
pub struct SpanGuard {
    name: Option<tracer::SmallName>,
    cat: Category,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(name), Some(p)) = (self.name, PROFILER.get()) {
            p.tracer.end(name.as_str(), self.cat);
        }
    }
}

/// Open a named span in the global profiler. `let _g = span("x", ...)`;
/// the span closes when the guard drops.
#[inline]
pub fn span(name: &str, cat: Category) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name: None, cat };
    }
    span_slow(name, cat)
}

#[cold]
fn span_slow(name: &str, cat: Category) -> SpanGuard {
    match PROFILER.get() {
        Some(p) => {
            p.tracer.begin(name, cat);
            SpanGuard { name: Some(tracer::SmallName::new(name)), cat }
        }
        None => SpanGuard { name: None, cat },
    }
}

/// Count of live [`MetricsScope`]s across all threads. One relaxed
/// load keeps the no-scope fast path of [`count`]/[`observe`] free of
/// thread-local traffic.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Registries scoped onto this thread (innermost last). Metric
    /// records fan out to every scoped registry in addition to the
    /// global profiler, so an engine can capture per-request and
    /// per-engine views of the same stage-level counters without the
    /// process-global registry bleeding jobs into each other.
    static SCOPES: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a scoped registry (see [`scope`]).
pub struct MetricsScope {
    _priv: (),
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Route this thread's [`count`]/[`observe`] calls into `reg` (in
/// addition to any outer scopes and the global profiler) until the
/// returned guard drops. Scopes nest: an engine typically installs its
/// per-engine registry and a per-request registry for the same job, so
/// one stage-level record lands in both.
pub fn scope(reg: Arc<Registry>) -> MetricsScope {
    ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    SCOPES.with(|s| s.borrow_mut().push(reg));
    MetricsScope { _priv: () }
}

/// Whether the calling thread has at least one scoped registry.
pub fn scope_active() -> bool {
    ACTIVE_SCOPES.load(Ordering::Relaxed) != 0 && SCOPES.with(|s| !s.borrow().is_empty())
}

/// Whether a [`count`]/[`observe`] call would record anywhere — the
/// global profiler ([`enabled`]) or a scoped registry. Call sites that
/// precompute metric values guard on this instead of [`enabled`] so
/// scoped (per-request) recording works with the profiler off.
#[inline]
pub fn metrics_active() -> bool {
    enabled() || scope_active()
}

/// Fan a metric record out to this thread's scoped registries.
#[cold]
fn record_scoped(name: &str, value: u64, histogram: bool) {
    SCOPES.with(|s| {
        for r in s.borrow().iter() {
            if histogram {
                r.observe(name, value);
            } else {
                r.count(name, value);
            }
        }
    });
}

/// Add to a global monotonic counter (and any scoped registries;
/// no-op when disabled and unscoped).
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        if let Some(p) = PROFILER.get() {
            p.metrics.count(name, delta);
        }
    }
    if ACTIVE_SCOPES.load(Ordering::Relaxed) != 0 {
        record_scoped(name, delta, false);
    }
}

/// Record a global histogram sample (and any scoped registries;
/// no-op when disabled and unscoped).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        if let Some(p) = PROFILER.get() {
            p.metrics.observe(name, value);
        }
    }
    if ACTIVE_SCOPES.load(Ordering::Relaxed) != 0 {
        record_scoped(name, value, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_nearly_free() {
        // Not installed, not enabled: a hook call must not allocate,
        // lock, or read the clock. Time 1M calls as a sanity ceiling.
        assert!(!enabled());
        let t0 = std::time::Instant::now();
        for i in 0..1_000_000u64 {
            let _g = span("stage", Category::Stage);
            count("bytes", i);
        }
        let per_call = t0.elapsed().as_nanos() as f64 / 1e6;
        // Generous bound (CI machines vary): well under 100ns per pair.
        assert!(per_call < 100.0, "disabled hook cost {per_call} ns");
    }

    #[test]
    fn scoped_registries_capture_without_profiler() {
        // Profiler off: records land only in the scoped registries,
        // innermost and outer both, and stop at guard drop.
        assert!(!enabled());
        let engine = Arc::new(Registry::new());
        let request = Arc::new(Registry::new());
        {
            let _e = scope(Arc::clone(&engine));
            assert!(metrics_active(), "a scope alone activates metrics");
            {
                let _r = scope(Arc::clone(&request));
                count("bytes", 10);
                observe("cr", 4);
            }
            count("bytes", 5); // after the request scope closed
        }
        assert!(!metrics_active());
        count("bytes", 99); // unscoped: dropped
        assert_eq!(engine.snapshot().counters["bytes"], 15);
        assert_eq!(request.snapshot().counters["bytes"], 10);
        assert_eq!(request.snapshot().histograms["cr"].count, 1);
    }

    #[test]
    fn profiler_collects_spans_metrics_and_reports() {
        let p = Profiler::new();
        p.span_begin("compress", Category::Stage);
        p.span_end("compress", Category::Stage);
        p.count("bytes_in", 4096);
        p.observe("cr_ppt", 123_000);
        let rep = p.report();
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.metrics.counters["bytes_in"], 4096);
        let json = rep.to_json();
        let v = minjson::parse(&json).expect("valid json");
        assert!(v.get("kernels").is_some());
        assert!(v.get("metrics").is_some());
        // Second report is empty: report() drains.
        let rep2 = p.report();
        assert!(rep2.events.is_empty() && rep2.kernels.is_empty());
    }
}
