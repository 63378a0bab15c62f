//! CUDA-style streams and events for the CPU substrate.
//!
//! A [`Stream`] is an ordered asynchronous command queue: work submitted
//! to it runs on a dedicated worker thread in submission order, exactly
//! like kernels enqueued on a `cudaStream_t`. Work on *different*
//! streams overlaps; streams never wait on each other. An [`Event`] is
//! the CUDA `cudaEvent_t` analogue: [`Stream::record`] marks a point in
//! a stream's command sequence, and [`Event::synchronize`] blocks the
//! host until that point has executed.
//!
//! # Launch attribution
//!
//! Existing kernel call sites need no rewrite to run on a stream: a
//! thread-local *current stream* binding is installed on each stream's
//! worker thread, and [`crate::exec::launch_named`] consults it. Any
//! launch executed inside a closure given to [`Stream::submit`] is
//! therefore attributed to that stream — its [`LaunchRecord`] is tagged
//! with the stream id (one Perfetto lane per stream in the profiler,
//! named by [`stream_label`]) and the stream's **simulated clock**
//! advances by the roofline [`TimingModel::kernel_time`] of the launch.
//!
//! # Simulated time
//!
//! Each stream carries a monotonic sim-time clock (nanoseconds). The
//! model is the standard multi-stream timeline: all streams start at
//! t=0 and execute their launches back-to-back, so
//!
//! * [`Stream::sim_time_ns`] is the simulated busy time of one stream,
//! * the max over streams is the simulated wall time of the whole
//!   schedule, and
//! * the sum over streams is what the same work would cost on a single
//!   stream.
//!
//! The ratio `serial / elapsed` is the overlap speedup the roofline
//! model predicts — the simulated counterpart of the host wall-clock
//! win the benchmark reports as `core.sched.wall_speedup_*`.
//!
//! Streams are scoped ([`with_streams`]) so submitted closures may
//! borrow from the caller's environment, mirroring how
//! [`std::thread::scope`] relaxes `'static`.
//!
//! [`LaunchRecord`]: crate::hook::LaunchRecord
//! [`TimingModel::kernel_time`]: crate::timing::TimingModel::kernel_time

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use crate::device::DeviceSpec;
use crate::stats::KernelStats;
use crate::timing::TimingModel;

thread_local! {
    /// The stream whose worker thread is currently executing, if any.
    static CURRENT: RefCell<Option<Arc<StreamShared>>> = const { RefCell::new(None) };
}

/// State shared between a [`Stream`] handle and its worker thread.
struct StreamShared {
    id: u32,
    label: String,
    /// Simulated nanoseconds of kernel time issued on this stream.
    clock_ns: AtomicU64,
    /// Poisoned by the fault injector at creation: the worker drains
    /// its queue without running commands (events still fire), and
    /// [`Stream::synchronize`] reports the fault.
    poisoned: bool,
}

impl StreamShared {
    fn advance(&self, ns: u64) {
        self.clock_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }
}

/// Advance the calling thread's current stream clock by the simulated
/// time of one launch. Called by [`crate::exec::launch_named`]; a no-op
/// off-stream.
pub(crate) fn note_launch(device: &DeviceSpec, stats: &KernelStats) {
    CURRENT.with(|c| {
        if let Some(s) = c.borrow().as_ref() {
            let ns = (TimingModel::new(*device).kernel_time(stats) * 1e9).round() as u64;
            s.advance(ns);
        }
    });
}

/// The id of the stream the calling thread is executing on, if any.
/// Used by the launch hook to tag [`crate::hook::LaunchRecord`]s.
pub fn current_stream_id() -> Option<u32> {
    CURRENT.with(|c| c.borrow().as_ref().map(|s| s.id))
}

/// The label of stream `id` opened on device `dev`: `stream-<id>`, or
/// `dev<d>.stream-<id>` off device 0. Fault sites use it, and trace
/// views derive lane names from a launch's `(device, stream)` with it.
pub fn stream_label(dev: usize, id: u32) -> String {
    if dev == 0 {
        format!("stream-{id}")
    } else {
        format!("dev{dev}.stream-{id}")
    }
}

/// Whether an event's recorded point has executed.
#[derive(Default)]
struct EventState {
    done: Mutex<bool>,
    cv: Condvar,
}

impl EventState {
    fn signal(&self) {
        *self.done.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}

/// A recorded point in a stream's command sequence (CUDA `cudaEvent_t`).
///
/// Created by [`Stream::record`]; the host blocks on it with
/// [`Event::synchronize`].
pub struct Event {
    st: Arc<EventState>,
}

impl Event {
    /// Block the host until the recorded point has executed (CUDA
    /// `cudaEventSynchronize`).
    pub fn synchronize(&self) {
        self.st.wait()
    }
}

enum Cmd<'env> {
    Run(Box<dyn FnOnce() + Send + 'env>),
    Record(Arc<EventState>),
}

/// An ordered asynchronous command queue with a dedicated worker thread
/// (CUDA `cudaStream_t`). Obtained from [`with_streams`].
pub struct Stream<'env> {
    shared: Arc<StreamShared>,
    tx: mpsc::Sender<Cmd<'env>>,
}

impl<'env> Stream<'env> {
    /// Enqueue `f` on this stream. It runs on the stream's worker
    /// thread after everything previously submitted; kernel launches
    /// inside it are attributed to this stream.
    pub fn submit(&self, f: impl FnOnce() + Send + 'env) {
        self.tx.send(Cmd::Run(Box::new(f))).expect("stream worker exited");
    }

    /// Enqueue an event-record (CUDA `cudaEventRecord`): the returned
    /// [`Event`] fires once every command submitted before it has run.
    pub fn record(&self) -> Event {
        let st = Arc::new(EventState::default());
        self.tx.send(Cmd::Record(Arc::clone(&st))).expect("stream worker exited");
        Event { st }
    }

    /// Block the host until every command submitted so far has run
    /// (CUDA `cudaStreamSynchronize`). A poisoned stream drains its
    /// queue (so the wait completes) but reports the fault here, the
    /// same place a wedged `cudaStream_t` surfaces its sticky error.
    pub fn synchronize(&self) -> Result<(), crate::fault::Fault> {
        self.record().synchronize();
        crate::hook::emit(crate::hook::Signal::Stream {
            op: "sync",
            id: self.shared.id,
        });
        if self.shared.poisoned {
            crate::hook::emit(crate::hook::Signal::FaultTripped {
                site: &self.shared.label,
            });
            return Err(crate::fault::Fault {
                kind: crate::fault::FaultKind::Stream,
                site: self.shared.label.clone(),
            });
        }
        Ok(())
    }

    /// Simulated nanoseconds of kernel time issued on this stream so
    /// far. Exact only after [`Stream::synchronize`].
    pub fn sim_time_ns(&self) -> u64 {
        self.shared.now_ns()
    }
}

fn worker(shared: Arc<StreamShared>, rx: mpsc::Receiver<Cmd<'_>>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&shared)));
    // A panicking command must not wedge the queue: later events still
    // have to fire or the host would deadlock waiting on them. Defer the payload and re-raise once the queue
    // drains, so `with_streams` still propagates the panic.
    let mut panicked = None;
    for cmd in rx {
        match cmd {
            Cmd::Run(f) => {
                // A poisoned stream drains: submitted closures are
                // dropped unrun, but events still fire so the host
                // never deadlocks.
                if panicked.is_none() && !shared.poisoned {
                    if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                        panicked = Some(p);
                    }
                }
            }
            Cmd::Record(ev) => ev.signal(),
        }
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
    if let Some(p) = panicked {
        resume_unwind(p);
    }
}

/// Run `f` with `n` live streams. Submitted closures may borrow from
/// the caller's environment (the streams are scoped); when `f` returns,
/// all queues are drained and their worker threads joined, so every
/// submitted command has finished — and any panic from one is
/// propagated — before `with_streams` returns.
///
/// The caller's [`crate::pool::with_threads`] override (if any) and
/// [`crate::multi::current_device`] binding are forwarded to the
/// stream workers, so launches inside stream commands use the same
/// per-launch worker count — and attribute to the same device — they
/// would inline. Off device 0, stream labels carry the device
/// (`dev<d>.stream-<i>`), so fault sites and trace lanes name it.
pub fn with_streams<'env, R>(n: usize, f: impl FnOnce(&[Stream<'env>]) -> R) -> R {
    assert!(n >= 1, "need at least one stream");
    let launch_threads = crate::pool::current_threads();
    let dev = crate::multi::current_device();
    std::thread::scope(|scope| {
        let streams: Vec<Stream<'env>> = (0..n)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Cmd<'env>>();
                let poisoned = crate::fault::stream_poisoned(i as u32);
                crate::hook::emit(crate::hook::Signal::Stream {
                    op: if poisoned { "create-poisoned" } else { "create" },
                    id: i as u32,
                });
                let shared = Arc::new(StreamShared {
                    id: i as u32,
                    label: stream_label(dev, i as u32),
                    clock_ns: AtomicU64::new(0),
                    poisoned,
                });
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cuszi-stream-{i}"))
                    .spawn_scoped(scope, move || {
                        crate::multi::on_device(dev, || {
                            crate::pool::with_threads(launch_threads, || worker(sh, rx))
                        })
                    })
                    .expect("spawn stream worker");
                Stream { shared, tx }
            })
            .collect();
        f(&streams)
        // `streams` drops here: senders close, workers drain and exit,
        // and the scope joins them (re-raising any deferred panic).
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::A100;
    use crate::exec::{launch_named, Grid};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn commands_run_in_submission_order() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let log = Mutex::new(Vec::new());
        with_streams(1, |s| {
            let log = &log;
            for i in 0..20 {
                s[0].submit(move || log.lock().unwrap().push(i));
            }
            s[0].synchronize().expect("sync");
        });
        assert_eq!(log.into_inner().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn streams_run_their_queues_concurrently() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        // Stream 0's command can only finish once stream 1's runs, so
        // the two queues must be live at the same time.
        let (tx, rx) = mpsc::channel::<()>();
        let got = Mutex::new(None);
        with_streams(2, |s| {
            let got = &got;
            s[0].submit(move || {
                *got.lock().unwrap() = Some(rx.recv_timeout(std::time::Duration::from_secs(30)));
            });
            s[1].submit(move || tx.send(()).unwrap());
            s[0].synchronize().expect("sync");
        });
        let got = got.into_inner().unwrap().expect("stream 0's command ran");
        assert!(got.is_ok(), "stream 1 ran while stream 0 was blocked");
    }

    #[test]
    fn event_synchronize_waits_for_earlier_commands() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let ran = AtomicUsize::new(0);
        with_streams(1, |s| {
            s[0].submit(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ran.store(1, Ordering::SeqCst);
            });
            let ev = s[0].record();
            s[0].submit(|| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            ev.synchronize();
            assert!(ran.load(Ordering::SeqCst) >= 1, "the event fired before the command ran");
            s[0].synchronize().expect("sync");
            assert_eq!(ran.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn device_binding_reaches_stream_workers() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let seen = AtomicUsize::new(usize::MAX);
        crate::multi::on_device(2, || {
            with_streams(2, |s| {
                s[1].submit(|| seen.store(crate::multi::current_device(), Ordering::SeqCst));
                s[1].synchronize().expect("sync");
            });
        });
        assert_eq!(seen.load(Ordering::SeqCst), 2, "stream workers inherit the device");
    }

    #[test]
    fn poisoned_stream_off_device_zero_names_its_device() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(stream_label(0, 3), "stream-3");
        assert_eq!(stream_label(2, 1), "dev2.stream-1");
        crate::fault::arm_on(2, crate::fault::FaultSpec::PoisonStream(1));
        let err = crate::multi::on_device(2, || {
            with_streams(2, |s| {
                assert!(s[0].synchronize().is_ok(), "sibling stream is unaffected");
                s[1].synchronize().expect_err("poisoned stream reports")
            })
        });
        crate::fault::disarm();
        assert_eq!(err.kind, crate::fault::FaultKind::Stream);
        assert_eq!(err.site, "dev2.stream-1");
    }

    #[test]
    fn launches_advance_the_current_stream_clock() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let data = vec![1.0f32; 1 << 16];
        let expect = {
            // Reference: same launch inline, timed by the same model.
            let stats = launch_named(&A100, Grid::linear(64, 128), "clock-ref", |ctx| {
                let view = crate::exec::GlobalRead::new(&data);
                let mut buf = [0.0f32; 128];
                let b = ctx.block.x as usize;
                ctx.read_span(&view, b * 128, &mut buf);
            });
            (TimingModel::new(A100).kernel_time(&stats) * 1e9).round() as u64
        };
        with_streams(2, |s| {
            assert_eq!(current_stream_id(), None, "host thread is off-stream");
            s[0].submit(|| {
                assert_eq!(current_stream_id(), Some(0));
                launch_named(&A100, Grid::linear(64, 128), "clock-ref", |ctx| {
                    let view = crate::exec::GlobalRead::new(&data);
                    let mut buf = [0.0f32; 128];
                    let b = ctx.block.x as usize;
                    ctx.read_span(&view, b * 128, &mut buf);
                });
            });
            s[0].synchronize().expect("sync");
            s[1].synchronize().expect("sync");
            assert_eq!(s[0].sim_time_ns(), expect);
            assert_eq!(s[1].sim_time_ns(), 0, "idle stream spends no sim time");
        });
    }

    #[test]
    fn with_threads_override_reaches_stream_workers() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        crate::pool::with_threads(3, || {
            with_streams(1, |s| {
                s[0].submit(|| assert_eq!(crate::pool::current_threads(), 3));
                s[0].synchronize().expect("sync");
            });
        });
    }

    #[test]
    fn poisoned_stream_drains_and_reports_at_synchronize() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        crate::fault::arm(crate::fault::FaultSpec::PoisonStream(1));
        let ran = [AtomicUsize::new(0), AtomicUsize::new(0)];
        with_streams(2, |s| {
            s[0].submit(|| {
                ran[0].fetch_add(1, Ordering::SeqCst);
            });
            s[1].submit(|| {
                ran[1].fetch_add(1, Ordering::SeqCst);
            });
            // Events on the poisoned stream still fire: the host sync
            // below must not deadlock.
            assert!(s[0].synchronize().is_ok(), "sibling stream is unaffected");
            let err = s[1].synchronize().expect_err("poisoned stream reports");
            assert_eq!(err.kind, crate::fault::FaultKind::Stream);
            assert_eq!(err.site, "stream-1");
        });
        assert_eq!(ran[0].load(Ordering::SeqCst), 1, "healthy stream ran its work");
        assert_eq!(ran[1].load(Ordering::SeqCst), 0, "poisoned stream drained unrun");
        crate::fault::disarm();
    }

    #[test]
    fn panic_in_command_propagates_but_events_still_fire() {
        let _g = crate::fault::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let r = std::panic::catch_unwind(|| {
            with_streams(1, |s| {
                s[0].submit(|| panic!("boom"));
                // The queue must stay live: this event has to fire or
                // synchronize() would deadlock.
                s[0].synchronize().expect("sync");
            });
        });
        assert!(r.is_err(), "the deferred panic re-raises at scope exit");
    }
}
