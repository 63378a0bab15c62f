//! The recorder: the one event store behind every observability view.
//!
//! Every stage bracket and span, every named kernel launch, launches
//! the fault injector dropped, a sampled stream of pooled allocations,
//! stream operations and fault arm/trip transitions are recorded — at
//! all times — as one fixed-size [`FlightEvent`] into a per-thread
//! lock-free seqlock ring (`ring::Ring`), at roughly one
//! relaxed atomic store plus a clock read per event. A full ring wraps
//! and overwrites the oldest events: the recorder never blocks or
//! allocates on the hot path, and never grows without bound (rings are
//! recycled through a free list as threads exit, so memory is bounded
//! by the peak number of concurrently recording threads).
//!
//! Two views read the rings:
//!
//! * **The black box.** When a device or lossless-stage `CuszError`
//!   propagates out of the pipeline (the pipeline decides which; errors
//!   the input alone decides write none), the rings are rendered into a
//!   `flight_<pid>_<seq>.json` dump: the last [`DUMP_TAIL`] events
//!   before the failure, with exact stage attribution (and the failing
//!   job/tenant id when an engine set one via [`job_scope`]), parseable
//!   by [`crate::minjson`]. The sequence number makes every dumped
//!   failure in a long-lived server its own dump; at most [`DUMP_KEEP`]
//!   are retained (oldest evicted).
//!   `CUSZI_FLIGHT_DIR` overrides where dumps are written (default: the
//!   system temp directory).
//! * **The profile capture.** Events recorded while [`crate::enable`]
//!   is on are stamped with the current capture number;
//!   [`crate::Profiler::report`] takes exactly those (the Chrome trace,
//!   flame summary and stream lanes are views over them) and opens the
//!   next capture.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cuszi_gpu_sim::hook::{self, Signal};
use cuszi_gpu_sim::TimingModel;

use crate::ring::{global_epoch, Category, Ring, SmallName};
use crate::{lock, trace_json::json_str};

/// Events per recording thread. Fixed at construction; wraparound
/// overwrites the oldest events.
pub const RING_CAPACITY: usize = 2048;

/// Maximum events written to one dump (the newest win). Keeps
/// error-path dumps small even when the rings are full.
pub const DUMP_TAIL: usize = 512;

/// Maximum dumps kept on disk per process. A long-lived server handles
/// many failing jobs; each failure gets its *own* sequenced dump
/// (`flight_<pid>_<seq>.json` — the old one-file-per-process name made
/// a second failure overwrite the first), and once more than this many
/// exist the oldest is deleted so a crash-looping tenant cannot fill
/// the disk.
pub const DUMP_KEEP: usize = 8;

/// What a flight event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A stage bracket or span opened (`name` = stage label, `arg` =
    /// the span's argument, e.g. a slab's `z0`).
    StageBegin,
    /// A stage bracket or span closed. A failed stage never records
    /// one: its begin stays open ahead of the error.
    StageEnd,
    /// A named kernel launch completed (`arg` = stream id + 1, 0 when
    /// launched inline on the host thread).
    Launch,
    /// A launch the fault injector dropped — the grid never ran.
    LaunchDropped,
    /// A sampled pooled allocation (`arg` = true running count).
    Alloc,
    /// A stream lifecycle/sync operation (`name` = op, `arg` = id).
    StreamOp,
    /// A fault spec was armed (`name` = spec text).
    FaultArmed,
    /// A fault tripped sticky (`name` = tripping site).
    FaultTripped,
    /// A `CuszError` propagated (`name` = owning stage label). Recorded
    /// by [`dump_on_error`] immediately before the dump, so it is the
    /// final event of every dump.
    Error,
}

impl FlightKind {
    /// The `kind` string used in dumps.
    pub fn label(&self) -> &'static str {
        match self {
            FlightKind::StageBegin => "stage-begin",
            FlightKind::StageEnd => "stage-end",
            FlightKind::Launch => "launch",
            FlightKind::LaunchDropped => "launch-dropped",
            FlightKind::Alloc => "alloc",
            FlightKind::StreamOp => "stream-op",
            FlightKind::FaultArmed => "fault-armed",
            FlightKind::FaultTripped => "fault-tripped",
            FlightKind::Error => "error",
        }
    }
}

/// One recorded event — fixed-size and `Copy` so a wrapped ring slot
/// never tears a heap pointer.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    pub kind: FlightKind,
    /// Trace category (the span's, `Kernel` for launches).
    pub cat: Category,
    pub name: SmallName,
    /// Dense recorder slot id (recycled across threads; not the OS tid).
    pub tid: u32,
    /// The simulated device the recording thread was bound to
    /// ([`cuszi_gpu_sim::current_device`]; 0 for single-device runs).
    /// This is what lets a dump attribute a fault to a device.
    pub dev: u32,
    /// The profile capture the event belongs to; 0 when profiling was
    /// off as it was recorded.
    pub capture: u32,
    /// Nanoseconds since the process profiling epoch.
    pub ts_ns: u64,
    /// Kind-specific argument (stream id, allocation count, …).
    pub arg: u64,
    /// Simulated kernel time of a launch recorded in a capture, else 0.
    pub dur_ns: u64,
}

/// Ring registry: every ring ever created plus a free list of rings
/// whose owning thread has exited. A new recording thread reuses a free
/// ring before creating one, so the registry — and recorder memory —
/// is bounded by the peak number of concurrently recording threads,
/// not the total number of threads over the process lifetime (kernel
/// workers are scoped per launch).
struct Recorder {
    rings: Mutex<Vec<Arc<Ring<FlightEvent>>>>,
    free: Mutex<Vec<Arc<Ring<FlightEvent>>>>,
    next_tid: AtomicUsize,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
/// The number of the open profile capture (stamped into events while
/// profiling is on); [`take_capture`] closes it and opens the next.
static CAPTURE: AtomicU32 = AtomicU32::new(1);
/// Events recorded into the open capture, lost ones included.
static CAPTURED: AtomicU64 = AtomicU64::new(0);
/// Serializes dump writes (two stream workers may fail concurrently).
static DUMP_LOCK: Mutex<()> = Mutex::new(());
/// Monotonic per-process dump sequence; baked into every dump name so
/// one process handling many failing jobs never overwrites evidence.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
/// Dumps written by this process, oldest first (the eviction queue).
static WRITTEN: Mutex<VecDeque<PathBuf>> = Mutex::new(VecDeque::new());

thread_local! {
    /// The engine job executing on this thread, if any: `(job id,
    /// tenant)`. Stamped into dumps so a server operator can tell
    /// *whose* request crashed.
    static JOB_CTX: Cell<Option<(u64, SmallName)>> = const { Cell::new(None) };
}

/// RAII guard for the per-thread job/tenant context (see [`job_scope`]).
pub struct JobScope {
    prev: Option<(u64, SmallName)>,
}

impl Drop for JobScope {
    fn drop(&mut self) {
        JOB_CTX.with(|c| c.set(self.prev));
    }
}

/// Tag this thread with the engine job it is executing. Every flight
/// dump written while the guard lives carries a `"job": {"id", "tenant"}`
/// block. Nests (the previous context is restored on drop).
pub fn job_scope(job_id: u64, tenant: &str) -> JobScope {
    let prev = JOB_CTX.with(|c| c.replace(Some((job_id, SmallName::new(tenant)))));
    JobScope { prev }
}

/// The job context of the calling thread, if one is set.
pub fn current_job() -> Option<(u64, String)> {
    JOB_CTX.with(|c| c.get()).map(|(id, t)| (id, t.as_str().to_string()))
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        rings: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
        next_tid: AtomicUsize::new(0),
    })
}

/// Thread-local ring handle; returns the ring to the free list when the
/// thread exits so the next thread reuses it.
struct RingHandle {
    ring: Arc<Ring<FlightEvent>>,
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        if let Some(rec) = RECORDER.get() {
            lock(&rec.free).push(Arc::clone(&self.ring));
        }
    }
}

thread_local! {
    static MY_RING: RefCell<Option<RingHandle>> = const { RefCell::new(None) };
}

/// Record one event on the calling thread. Lock-free after the thread's
/// first event (which registers or recycles a ring).
pub fn record(kind: FlightKind, name: &str, arg: u64) {
    let cat = match kind {
        FlightKind::StageBegin | FlightKind::StageEnd => Category::Stage,
        FlightKind::Launch | FlightKind::LaunchDropped => Category::Kernel,
        _ => Category::Other,
    };
    push(kind, cat, SmallName::new(name), arg, 0);
}

pub(crate) fn push(kind: FlightKind, cat: Category, name: SmallName, arg: u64, dur_ns: u64) {
    let capture = if crate::enabled() { CAPTURE.load(Ordering::Relaxed) } else { 0 };
    if capture != 0 {
        CAPTURED.fetch_add(1, Ordering::Relaxed);
    }
    let ts_ns = global_epoch().elapsed().as_nanos() as u64;
    let dev = cuszi_gpu_sim::current_device() as u32;
    MY_RING.with(|cell| {
        let mut local = cell.borrow_mut();
        let h = local.get_or_insert_with(|| {
            // Cold path: first event from this thread.
            let rec = recorder();
            let ring = lock(&rec.free).pop().unwrap_or_else(|| {
                let tid = rec.next_tid.fetch_add(1, Ordering::Relaxed) as u32;
                let ring = Arc::new(Ring::new(tid, RING_CAPACITY));
                lock(&rec.rings).push(Arc::clone(&ring));
                ring
            });
            RingHandle { ring }
        });
        h.ring.push(FlightEvent {
            kind,
            cat,
            name,
            tid: h.ring.tid,
            dev,
            capture,
            ts_ns,
            arg,
            dur_ns,
        });
    });
}

/// Per-device launch-count metric names, pre-rendered so the always-on
/// hook never formats on the hot path (index = device id).
const DEVICE_LAUNCH_COUNTERS: [&str; cuszi_gpu_sim::MAX_DEVICES] = [
    "gpu.dev0.launches",
    "gpu.dev1.launches",
    "gpu.dev2.launches",
    "gpu.dev3.launches",
    "gpu.dev4.launches",
    "gpu.dev5.launches",
    "gpu.dev6.launches",
    "gpu.dev7.launches",
];

/// The gpu-sim hook: every substrate signal becomes one event; while
/// profiling is on, a launch also feeds the kernel table and carries
/// its simulated time (the trace's kernel duration).
fn on_signal(sig: &Signal<'_>) {
    match *sig {
        Signal::Launch(rec) => {
            let dev = rec.device_id.min(DEVICE_LAUNCH_COUNTERS.len() - 1);
            crate::count(DEVICE_LAUNCH_COUNTERS[dev], 1);
            let mut dur_ns = 0;
            if crate::enabled() {
                if let Some(p) = crate::profiler() {
                    lock(&p.kernels).record(rec);
                }
                dur_ns = (TimingModel::new(*rec.device).kernel_time(&rec.stats) * 1e9) as u64;
            }
            let arg = rec.stream.map_or(0, |i| u64::from(i) + 1);
            push(FlightKind::Launch, Category::Kernel, SmallName::new(rec.name), arg, dur_ns);
        }
        Signal::LaunchDropped { name, stream } => {
            record(FlightKind::LaunchDropped, name, stream.map_or(0, |i| u64::from(i) + 1))
        }
        Signal::Alloc { seq } => record(FlightKind::Alloc, "pool", seq),
        Signal::Stream { op, id } => record(FlightKind::StreamOp, op, u64::from(id)),
        Signal::FaultArmed { site } => record(FlightKind::FaultArmed, site, 0),
        Signal::FaultTripped { site } => record(FlightKind::FaultTripped, site, 0),
    }
}

/// Register the recorder as gpu-sim's hook. Idempotent. Called by core
/// at pipeline entry and by [`crate::install`], so any front end gets
/// substrate events without explicit setup.
pub fn install() {
    hook::set_hook(on_signal);
}

fn rings() -> Vec<Arc<Ring<FlightEvent>>> {
    RECORDER.get().map(|rec| lock(&rec.rings).clone()).unwrap_or_default()
}

/// Close the open profile capture and return its events — per ring in
/// push order, rings by `tid` — plus how many of them the rings lost
/// to wraparound. Call once the recording threads are quiescent.
pub(crate) fn take_capture() -> (Vec<FlightEvent>, u64) {
    let capture = CAPTURE.fetch_add(1, Ordering::Relaxed);
    let recorded = CAPTURED.swap(0, Ordering::Relaxed);
    let mut rings = rings();
    rings.sort_by_key(|r| r.tid);
    let mut out = Vec::new();
    for ring in rings {
        out.extend(ring.snapshot(0).0.into_iter().filter(|e| e.capture == capture));
    }
    let dropped = recorded.saturating_sub(out.len() as u64);
    (out, dropped)
}

/// All events currently held in the rings (oldest lost to wraparound),
/// sorted by timestamp, plus how many were lost. Non-destructive: a
/// dump must not consume the evidence a second failure might need.
pub fn snapshot() -> (Vec<FlightEvent>, u64) {
    let mut out = Vec::new();
    let mut dropped = 0u64;
    for ring in rings() {
        let (evs, head) = ring.snapshot(0);
        dropped += head.saturating_sub(evs.len() as u64);
        out.extend(evs);
    }
    out.sort_by_key(|e| e.ts_ns);
    (out, dropped)
}

/// Where dumps land: `CUSZI_FLIGHT_DIR` or the system temp directory.
pub fn dump_dir() -> PathBuf {
    std::env::var_os("CUSZI_FLIGHT_DIR").map(Into::into).unwrap_or_else(std::env::temp_dir)
}

/// The dump path for one sequenced failure:
/// `<dir>/flight_<pid>_<seq>.json`.
fn dump_path_for(seq: u64) -> PathBuf {
    dump_dir().join(format!("flight_{}_{seq:04}.json", std::process::id()))
}

/// The most recent dump written by this process, if any.
pub fn latest_dump() -> Option<PathBuf> {
    lock(&WRITTEN).back().cloned()
}

/// Every dump this process has written and not yet evicted, oldest
/// first (at most [`DUMP_KEEP`]).
pub fn written_dumps() -> Vec<PathBuf> {
    lock(&WRITTEN).iter().cloned().collect()
}

/// Delete this process's dumps and forget them — test hygiene, so a
/// later assertion cannot pass on a stale black box.
pub fn clear_dumps() {
    let mut w = lock(&WRITTEN);
    for p in w.drain(..) {
        let _ = std::fs::remove_file(p);
    }
}

/// Render a dump document (the newest [`DUMP_TAIL`] events) as JSON.
/// `job` is the failing thread's job/tenant context, if any.
pub fn render_dump(error: Option<(&str, &str)>, job: Option<(u64, &str)>) -> String {
    let (mut events, dropped) = snapshot();
    // A black box ends at its failure: truncate anything another thread
    // recorded between this error and the snapshot (concurrent stream
    // jobs can fail and keep recording simultaneously), so the terminal
    // event of the dump is always the error it reports.
    if let Some((stage, _)) = error {
        if let Some(at) = events
            .iter()
            .rposition(|e| e.kind == FlightKind::Error && e.name.as_str() == stage)
        {
            events.truncate(at + 1);
        }
    }
    let skip = events.len().saturating_sub(DUMP_TAIL);
    let mut out = String::with_capacity(64 * (events.len() - skip) + 256);
    out.push_str("{\n");
    out.push_str(&format!("\"pid\": {},\n", std::process::id()));
    out.push_str(&format!("\"dropped\": {},\n", dropped + skip as u64));
    match job {
        Some((id, tenant)) => {
            let tenant = json_str(tenant);
            out.push_str(&format!("\"job\": {{\"id\": {id}, \"tenant\": {tenant}}},\n"));
        }
        None => out.push_str("\"job\": null,\n"),
    }
    match error {
        Some((stage, detail)) => {
            out.push_str(&format!(
                "\"error\": {{\"stage\": {}, \"detail\": {}}},\n",
                json_str(stage),
                json_str(detail)
            ));
        }
        None => out.push_str("\"error\": null,\n"),
    }
    out.push_str("\"events\": [");
    for (i, ev) in events[skip..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"ts_ns\": {}, \"tid\": {}, \"dev\": {}, \"kind\": \"{}\", \"name\": {}, \
             \"arg\": {}}}",
            ev.ts_ns,
            ev.tid,
            ev.dev,
            ev.kind.label(),
            json_str(ev.name.as_str()),
            ev.arg
        ));
    }
    out.push_str("\n]\n}\n");
    out
}

/// Record the terminal [`FlightKind::Error`] event (stage-attributed)
/// and write the black-box dump for this process. Returns the dump path
/// on success, `None` when the write failed — the error path must never
/// turn a typed error into a panic.
pub fn dump_on_error(stage: &str, detail: &str) -> Option<PathBuf> {
    // Record the terminal event under the dump lock so two concurrently
    // failing threads each capture a dump ending at their own error.
    let _g = lock(&DUMP_LOCK);
    record(FlightKind::Error, stage, 0);
    let job = JOB_CTX.with(|c| c.get());
    let doc = render_dump(Some((stage, detail)), job.as_ref().map(|(id, t)| (*id, t.as_str())));
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dump_path_for(seq);
    let tmp = path.with_extension("json.tmp");
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(doc.as_bytes())?;
        std::fs::rename(&tmp, &path)
    };
    match write() {
        Ok(()) => {
            let mut w = lock(&WRITTEN);
            w.push_back(path.clone());
            // Over-capacity eviction: a server that keeps failing must
            // not fill the disk with black boxes — keep the newest
            // DUMP_KEEP, delete the rest.
            while w.len() > DUMP_KEEP {
                if let Some(old) = w.pop_front() {
                    let _ = std::fs::remove_file(old);
                }
            }
            Some(path)
        }
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{profiling, test_lock};

    #[test]
    fn records_and_snapshots_in_order() {
        let _g = test_lock();
        record(FlightKind::StageBegin, "predict-quant", 0);
        record(FlightKind::Launch, "g-interp", 0);
        record(FlightKind::StageEnd, "predict-quant", 0);
        let (evs, _) = snapshot();
        let mine: Vec<&FlightEvent> =
            evs.iter().filter(|e| e.name.as_str() == "predict-quant" || e.name.as_str() == "g-interp").collect();
        assert!(mine.len() >= 3);
        let tail = &mine[mine.len() - 3..];
        assert_eq!(tail[0].kind, FlightKind::StageBegin);
        assert_eq!(tail[1].kind, FlightKind::Launch);
        assert_eq!(tail[2].kind, FlightKind::StageEnd);
        assert!(tail[0].ts_ns <= tail[1].ts_ns && tail[1].ts_ns <= tail[2].ts_ns);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let _g = test_lock();
        let (_, dropped_before) = snapshot();
        for i in 0..(RING_CAPACITY + 100) {
            record(FlightKind::Alloc, "wrap-test", i as u64);
        }
        let (evs, dropped) = snapshot();
        assert!(dropped >= dropped_before + 100, "overflow must be counted");
        // The newest event survives.
        let newest = evs
            .iter()
            .filter(|e| e.name.as_str() == "wrap-test")
            .map(|e| e.arg)
            .max()
            .unwrap();
        assert_eq!(newest, (RING_CAPACITY + 100 - 1) as u64);
    }

    #[test]
    fn dump_is_parseable_and_error_event_is_last() {
        let _g = test_lock();
        let dir = std::env::temp_dir().join(format!("cuszi-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        record(FlightKind::Launch, "g-interp", 0);
        let doc = {
            record(FlightKind::Error, "predict-quant", 0);
            render_dump(Some(("predict-quant", "stage 'predict-quant' failed")), None)
        };
        let v = crate::minjson::parse(&doc).expect("dump is valid JSON");
        assert_eq!(
            v.get("error").and_then(|e| e.get("stage")).and_then(|s| s.as_str()),
            Some("predict-quant")
        );
        let events = v.get("events").and_then(|e| e.as_array()).expect("events array");
        assert!(!events.is_empty());
        let last = events.last().unwrap();
        assert_eq!(last.get("kind").and_then(|k| k.as_str()), Some("error"));
        assert_eq!(last.get("name").and_then(|k| k.as_str()), Some("predict-quant"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequenced_dumps_do_not_collide_and_evict_beyond_cap() {
        let _g = test_lock();
        let dir = std::env::temp_dir().join(format!("cuszi-flight-seq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("CUSZI_FLIGHT_DIR", &dir);
        clear_dumps();
        // Two failures in one process: two distinct parseable dumps.
        let a = dump_on_error("predict-quant", "first").expect("first dump");
        let b = dump_on_error("histogram", "second").expect("second dump");
        assert_ne!(a, b, "sequenced dump names must not collide");
        assert!(a.exists() && b.exists(), "both dumps survive");
        for (p, stage) in [(&a, "predict-quant"), (&b, "histogram")] {
            let txt = std::fs::read_to_string(p).unwrap();
            let v = crate::minjson::parse(&txt).expect("dump parses");
            assert_eq!(
                v.get("error").and_then(|e| e.get("stage")).and_then(|s| s.as_str()),
                Some(stage),
                "{}",
                p.display()
            );
        }
        assert_eq!(latest_dump().as_ref(), Some(&b));
        // Over-capacity eviction: only the newest DUMP_KEEP survive.
        for i in 0..(DUMP_KEEP + 3) {
            dump_on_error("predict-quant", &format!("flood {i}")).expect("dump");
        }
        let kept = written_dumps();
        assert_eq!(kept.len(), DUMP_KEEP);
        assert!(kept.iter().all(|p| p.exists()));
        assert!(!a.exists() && !b.exists(), "oldest dumps evicted");
        clear_dumps();
        std::env::remove_var("CUSZI_FLIGHT_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dumps_carry_the_job_context() {
        let _g = test_lock();
        let dir = std::env::temp_dir().join(format!("cuszi-flight-job-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("CUSZI_FLIGHT_DIR", &dir);
        assert_eq!(current_job(), None);
        let with_job = {
            let _scope = job_scope(42, "tenant-a");
            assert_eq!(current_job(), Some((42, "tenant-a".to_string())));
            dump_on_error("predict-quant", "job-tagged").expect("dump")
        };
        assert_eq!(current_job(), None, "job scope restored on drop");
        let without_job = dump_on_error("predict-quant", "untagged").expect("dump");
        let v = crate::minjson::parse(&std::fs::read_to_string(&with_job).unwrap()).unwrap();
        let job = v.get("job").expect("job block");
        assert_eq!(job.get("id").and_then(|x| x.as_f64()), Some(42.0));
        assert_eq!(job.get("tenant").and_then(|x| x.as_str()), Some("tenant-a"));
        let v2 = crate::minjson::parse(&std::fs::read_to_string(&without_job).unwrap()).unwrap();
        assert!(
            v2.get("job").is_some_and(|j| matches!(j, crate::minjson::Value::Null)),
            "no context -> job: null"
        );
        clear_dumps();
        std::env::remove_var("CUSZI_FLIGHT_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_are_stamped_with_the_recording_device() {
        let _g = test_lock();
        cuszi_gpu_sim::on_device(2, || record(FlightKind::Launch, "dev-stamp-probe", 0));
        record(FlightKind::Launch, "dev-stamp-host", 0);
        let (evs, _) = snapshot();
        let on_dev =
            evs.iter().rev().find(|e| e.name.as_str() == "dev-stamp-probe").expect("recorded");
        assert_eq!(on_dev.dev, 2, "event carries the binding of its recording thread");
        let on_host =
            evs.iter().rev().find(|e| e.name.as_str() == "dev-stamp-host").expect("recorded");
        assert_eq!(on_host.dev, 0, "unbound threads are device 0");
        let doc = render_dump(None, None);
        let v = crate::minjson::parse(&doc).expect("dump parses");
        let events = v.get("events").and_then(|e| e.as_array()).expect("events");
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("dev-stamp-probe")
                    && e.get("dev").and_then(|d| d.as_f64()) == Some(2.0)
            }),
            "dump events carry the device id"
        );
    }

    #[test]
    fn rings_are_recycled_across_threads() {
        let _g = test_lock();
        // Warm up: make sure this thread has its ring.
        record(FlightKind::StageBegin, "recycle-warm", 0);
        let before = lock(&recorder().rings).len();
        for _ in 0..32 {
            std::thread::spawn(|| {
                record(FlightKind::StageBegin, "recycle-probe", 0);
            })
            .join()
            .unwrap();
        }
        let after = lock(&recorder().rings).len();
        // 32 sequential short-lived threads must not create 32 rings:
        // each exiting thread frees its ring for the next to reuse.
        assert!(
            after <= before + 2,
            "ring registry grew from {before} to {after} over 32 recycled threads"
        );
    }

    #[test]
    fn profiled_spans_reuse_rings_across_threads() {
        let _g = test_lock();
        let _on = profiling();
        let _warm = crate::span("recycle-warm", Category::Stage);
        let before = lock(&recorder().rings).len();
        for _ in 0..32 {
            std::thread::spawn(|| drop(crate::span("recycle-span", Category::Stage)))
                .join()
                .unwrap();
        }
        let after = lock(&recorder().rings).len();
        assert!(after <= before + 2, "profiled spans grew the registry from {before} to {after}");
    }

    #[test]
    fn capture_keeps_push_order_and_nesting() {
        let _g = test_lock();
        take_capture();
        {
            let _on = profiling();
            let _outer = crate::span("outer", Category::Stage);
            drop(crate::span("inner", Category::Stage));
            push(FlightKind::Launch, Category::Kernel, SmallName::new("kern"), 0, 1000);
        }
        let (evs, dropped) = take_capture();
        assert_eq!(dropped, 0);
        let names: Vec<&str> = evs.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "inner", "kern", "outer"]);
        assert_eq!(evs[0].kind, FlightKind::StageBegin);
        assert_eq!(evs[2].kind, FlightKind::StageEnd);
        assert_eq!(evs[3].kind, FlightKind::Launch);
        assert_eq!(evs[3].dur_ns, 1000);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn capture_is_incremental_and_skips_unprofiled_events() {
        let _g = test_lock();
        take_capture();
        let on = profiling();
        let a = crate::span("a", Category::Other);
        assert_eq!(take_capture().0.len(), 1);
        assert_eq!(take_capture().0.len(), 0);
        drop(a);
        drop(on);
        record(FlightKind::StageBegin, "while-off", 0);
        let (evs, _) = take_capture();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].kind, evs[0].name.as_str()), (FlightKind::StageEnd, "a"));
    }

    #[test]
    fn capture_counts_wraparound_losses() {
        let _g = test_lock();
        take_capture();
        {
            let _on = profiling();
            for i in 0..(RING_CAPACITY + 100) {
                record(FlightKind::Alloc, "wrap-capture", i as u64);
            }
        }
        let (evs, dropped) = take_capture();
        assert_eq!((evs.len(), dropped), (RING_CAPACITY, 100));
        // The survivors are the newest, in order.
        assert!(evs.iter().map(|e| e.arg).eq(100..(RING_CAPACITY as u64 + 100)));
    }

    #[test]
    fn capture_gives_concurrent_threads_their_own_lanes() {
        let _g = test_lock();
        take_capture();
        {
            let _on = profiling();
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for worker in 0..4 {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        for i in 0..50 {
                            drop(crate::span(&format!("w{worker}-{i}"), Category::Other));
                        }
                        start.wait();
                    });
                }
            });
        }
        let (evs, dropped) = take_capture();
        assert_eq!((evs.len(), dropped), (4 * 100, 0));
        let tids: std::collections::BTreeSet<u32> = evs.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
        for tid in tids {
            let mine: Vec<&FlightEvent> = evs.iter().filter(|e| e.tid == tid).collect();
            assert_eq!(mine.len(), 100);
            assert!(mine.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
            for pair in mine.chunks(2) {
                assert_eq!(pair[0].kind, FlightKind::StageBegin);
                assert_eq!(pair[1].kind, FlightKind::StageEnd);
                assert_eq!(pair[0].name, pair[1].name);
            }
        }
    }
}
