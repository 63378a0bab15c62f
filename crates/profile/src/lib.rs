//! Observability for the cuSZ-i reproduction: one recorder, several
//! views.
//!
//! The [`flight`] recorder is the one event store: stage brackets and
//! spans ([`span`]), every named gpu-sim kernel launch, dropped
//! launches, sampled allocations, stream operations and fault
//! transitions go into its per-thread rings once, always. The views:
//!
//! 1. the flight dump — the black box written when an error propagates;
//! 2. a profile [`Report`] over one capture window of the rings: a
//!    Chrome `trace_event` JSON that loads in Perfetto and a
//!    flamegraph-style text summary ([`trace_json`]);
//! 3. a per-kernel profile table ([`kernels::KernelTable`]) fed by the
//!    same gpu-sim hook: measured [`cuszi_gpu_sim::KernelStats`] with
//!    the roofline decomposition, achieved GB/s vs the bandwidth
//!    ceiling, coalescing efficiency, DRAM excess bytes, occupancy
//!    waves, and a bottleneck verdict per kernel;
//! 4. a [`metrics`] registry of monotonic counters and histograms
//!    (bytes in/out, per-field compression ratio, outlier rate,
//!    codebook entropy), which also renders Prometheus text.
//!
//! [`enable`] is the one switch: while it is on, events join the open
//! capture, launches feed the kernel table, and [`count`]/[`observe`]
//! fill the global registry. Off — the default — the metric hooks cost
//! one relaxed atomic load and the recorder keeps its rings for the
//! black box. [`install`] registers the recorder as gpu-sim's hook.

pub mod flight;
pub mod kernels;
pub mod metrics;
pub mod minjson;
pub mod ring;
pub mod trace_json;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

pub use flight::{FlightEvent, FlightKind};
pub use kernels::{KernelRow, KernelTable};
pub use metrics::{Registry, Snapshot};
pub use ring::Category;

use ring::SmallName;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process profiler: the kernel table and the global metrics
/// registry (the events live in the recorder's rings).
pub struct Profiler {
    kernels: Mutex<KernelTable>,
    metrics: Registry,
}

impl Profiler {
    /// Close the capture: everything recorded while profiling was on
    /// since the previous `report`, as one [`Report`]. Call after the
    /// profiled workload has returned (recording threads quiescent).
    pub fn report(&self) -> Report {
        let (events, dropped_events) = flight::take_capture();
        let thread_labels = trace_json::lane_labels(&events);
        Report {
            events,
            dropped_events,
            thread_labels,
            kernels: lock(&self.kernels).take(),
            metrics: self.metrics.take(),
        }
    }
}

/// One closed capture: everything needed to write the artifacts.
pub struct Report {
    /// The capture's events, per recording lane in push order.
    pub events: Vec<FlightEvent>,
    /// Events of this capture the rings lost to wraparound.
    pub dropped_events: u64,
    /// `(tid, lane label)` pairs — one per gpu-sim stream lane that has
    /// launches in this capture.
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
        trace_json::flame_summary(&self.events, &self.thread_labels)
    }

    /// Nsight-style kernel table text report.
    pub fn kernel_report(&self) -> String {
        let mut t = KernelTable::new();
        t.restore(self.kernels.clone());
        t.render()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROFILER: OnceLock<Profiler> = OnceLock::new();

/// Install the process-global profiler and register the recorder as
/// the gpu-sim hook. Idempotent; profiling stays off until [`enable`].
pub fn install() -> &'static Profiler {
    flight::install();
    PROFILER.get_or_init(|| Profiler {
        kernels: Mutex::new(KernelTable::new()),
        metrics: Registry::new(),
    })
}

/// The installed profiler, if any.
pub fn profiler() -> Option<&'static Profiler> {
    PROFILER.get()
}

/// Turn profiling on or off: the capture window, the kernel table and
/// the global metrics registry follow this one switch.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is on. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII span: records a begin into the recorder on creation and the
/// matching end on drop (unwinding included) unless
/// [`SpanGuard::leave_open`] consumed it.
pub struct SpanGuard {
    name: SmallName,
    cat: Category,
    arg: u64,
}

impl SpanGuard {
    /// Drop without recording the end: a failed stage stays open, so
    /// the journal shows an unmatched begin ahead of the error.
    pub fn leave_open(self) {
        std::mem::forget(self);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        flight::push(FlightKind::StageEnd, self.cat, self.name, self.arg, 0);
    }
}

/// Open a named span. `let _g = span("x", ...)`; the span closes when
/// the guard drops.
#[inline]
pub fn span(name: &str, cat: Category) -> SpanGuard {
    span_with(name, cat, 0)
}

/// [`span`] carrying an argument (a slab's `z0`) in its events, so the
/// name stays static and recording never formats.
pub fn span_with(name: &str, cat: Category, arg: u64) -> SpanGuard {
    let name = SmallName::new(name);
    flight::push(FlightKind::StageBegin, cat, name, arg, 0);
    SpanGuard { name, cat, arg }
}

/// Count of live [`MetricsScope`]s across all threads. One relaxed
/// load keeps the no-scope fast path of [`count`]/[`observe`] free of
/// thread-local traffic.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The registry scoped onto this thread, if any. Metric records go
    /// to it in addition to the global profiler, so an engine collects
    /// its jobs' stage-level counters with the profiler off.
    static SCOPE: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// RAII guard for a scoped registry (see [`scope`]).
pub struct MetricsScope {
    _priv: (),
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.borrow_mut().take());
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Route this thread's [`count`]/[`observe`] calls into `reg` (in
/// addition to the global profiler) until the returned guard drops.
/// Scopes do not nest: a thread holds at most one.
pub fn scope(reg: Arc<Registry>) -> MetricsScope {
    SCOPE.with(|s| {
        let prev = s.borrow_mut().replace(reg);
        debug_assert!(prev.is_none(), "metric scopes do not nest");
    });
    ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    MetricsScope { _priv: () }
}

/// Whether the calling thread has a scoped registry.
pub fn scope_active() -> bool {
    ACTIVE_SCOPES.load(Ordering::Relaxed) != 0 && SCOPE.with(|s| s.borrow().is_some())
}

/// Whether a [`count`]/[`observe`] call would record anywhere — the
/// global profiler ([`enabled`]) or a scoped registry. Call sites that
/// precompute metric values guard on this instead of [`enabled`] so
/// scoped (engine) recording works with the profiler off.
#[inline]
pub fn metrics_active() -> bool {
    enabled() || scope_active()
}

/// Send a metric record to this thread's scoped registry.
#[cold]
fn record_scoped(name: &str, value: u64, histogram: bool) {
    SCOPE.with(|s| {
        if let Some(r) = s.borrow().as_ref() {
            if histogram {
                r.observe(name, value);
            } else {
                r.count(name, value);
            }
        }
    });
}

/// Add to a global monotonic counter (and the scoped registry;
/// no-op when disabled and unscoped).
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        if let Some(p) = profiler() {
            p.metrics.count(name, delta);
        }
    }
    if ACTIVE_SCOPES.load(Ordering::Relaxed) != 0 {
        record_scoped(name, delta, false);
    }
}

/// Record a global histogram sample (and the scoped registry;
/// no-op when disabled and unscoped).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        if let Some(p) = profiler() {
            p.metrics.observe(name, value);
        }
    }
    if ACTIVE_SCOPES.load(Ordering::Relaxed) != 0 {
        record_scoped(name, value, true);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Profiling and the recorder are process-global: unit tests that
    /// touch either serialize on this lock.
    pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        super::lock(&LOCK)
    }

    /// Profiling on (with the profiler installed) until the guard drops.
    pub(crate) struct Profiling;

    impl Drop for Profiling {
        fn drop(&mut self) {
            super::enable(false);
        }
    }

    pub(crate) fn profiling() -> Profiling {
        super::install();
        super::enable(true);
        Profiling
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{profiling, test_lock};
    use super::*;

    #[test]
    fn disabled_metrics_and_recorded_spans_are_cheap() {
        // Profiling off: a metric hook must not allocate, lock, or read
        // the clock; a span records its begin and end into the
        // thread's ring without allocating. Time 1M calls each as a
        // sanity ceiling (generous: CI machines vary).
        let _g = test_lock();
        assert!(!enabled());
        let t0 = std::time::Instant::now();
        for i in 0..1_000_000u64 {
            count("bytes", i);
        }
        let per_count = t0.elapsed().as_nanos() as f64 / 1e6;
        assert!(per_count < 100.0, "disabled count cost {per_count} ns");
        let t0 = std::time::Instant::now();
        for _ in 0..1_000_000u64 {
            let _g = span("stage", Category::Stage);
        }
        let per_span = t0.elapsed().as_nanos() as f64 / 1e6;
        assert!(per_span < 1000.0, "recorded span cost {per_span} ns");
    }

    #[test]
    fn scoped_registries_capture_without_profiler() {
        // Profiler off: records land only in the scoped registry, and
        // stop at guard drop.
        let _g = test_lock();
        assert!(!enabled());
        let engine = Arc::new(Registry::new());
        {
            let _e = scope(Arc::clone(&engine));
            assert!(metrics_active(), "a scope alone activates metrics");
            count("bytes", 10);
            count("bytes", 5);
            observe("cr", 4);
        }
        assert!(!metrics_active());
        count("bytes", 99); // unscoped: dropped
        assert_eq!(engine.snapshot().counters["bytes"], 15);
        assert_eq!(engine.snapshot().histograms["cr"].count, 1);
    }

    #[test]
    fn each_scope_on_a_thread_sees_only_its_own_records() {
        // One slot per thread: a guard's drop empties it, so the next
        // scope starts clean and the previous registry stops growing.
        let _g = test_lock();
        assert!(!enabled());
        let first = Arc::new(Registry::new());
        let second = Arc::new(Registry::new());
        {
            let _s = scope(Arc::clone(&first));
            count("jobs", 1);
        }
        assert!(!scope_active());
        {
            let _s = scope(Arc::clone(&second));
            assert!(scope_active());
            count("jobs", 2);
            observe("lat", 7);
        }
        assert_eq!(first.snapshot().counters["jobs"], 1);
        assert!(first.snapshot().histograms.is_empty());
        assert_eq!(second.snapshot().counters["jobs"], 2);
        assert_eq!(second.snapshot().histograms["lat"].count, 1);
    }

    #[test]
    fn a_scope_does_not_capture_other_threads() {
        // The slot is thread-local: a worker recording while the main
        // thread holds a scope lands nowhere with the profiler off.
        let _g = test_lock();
        assert!(!enabled());
        let reg = Arc::new(Registry::new());
        let _s = scope(Arc::clone(&reg));
        std::thread::spawn(|| {
            assert!(!scope_active(), "the scope belongs to the thread that made it");
            count("bytes", 1000);
        })
        .join()
        .unwrap();
        count("bytes", 3);
        assert_eq!(reg.snapshot().counters["bytes"], 3);
    }

    #[test]
    fn profiler_collects_spans_metrics_and_reports() {
        let _g = test_lock();
        let p = install();
        p.report();
        {
            let _on = profiling();
            drop(span("compress", Category::Stage));
            count("bytes_in", 4096);
            observe("cr_ppt", 123_000);
        }
        let rep = p.report();
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.metrics.counters["bytes_in"], 4096);
        assert!(rep.kernel_report().contains("no launches recorded"));
        // Second report is empty: report() drains.
        let rep2 = p.report();
        assert!(rep2.events.is_empty() && rep2.kernels.is_empty());
    }

    #[test]
    fn a_span_left_open_records_no_end() {
        let _g = test_lock();
        let p = install();
        p.report();
        {
            let _on = profiling();
            span("failed-stage", Category::Stage).leave_open();
        }
        let kinds: Vec<FlightKind> = p.report().events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [FlightKind::StageBegin]);
    }
}
