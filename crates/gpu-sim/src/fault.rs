//! Deterministic fault injection for the simulated device(s).
//!
//! Real GPU failures — allocation failures, launch errors, a wedged
//! stream — are rare in practice and impossible to provoke on demand,
//! which is exactly why the error paths that handle them rot. This
//! module makes them injectable: arm a [`FaultSpec`] (programmatically
//! or via the `CUSZI_FAULT` environment variable) and the substrate
//! will fail in the requested way at the requested site, every time.
//!
//! # The sticky-error model
//!
//! The injector mirrors CUDA's asynchronous ("sticky") error
//! semantics: a failed launch or allocation does not unwind at the
//! call site. Instead the kernel body is *dropped* (for launches) or
//! the allocation is flagged (for allocations), a sticky [`Fault`] is
//! recorded, and execution continues until the next explicit error
//! check — [`take_sticky`], called by the pipeline at every stage
//! boundary — or, for poisoned streams, until
//! [`crate::Stream::synchronize`]. This is what makes the injection
//! *useful*: it exercises the same deferred-error plumbing a real
//! `cudaGetLastError` / `cudaStreamSynchronize` pair would.
//!
//! # Fault domains are per device
//!
//! Sticky errors belong to a CUDA *context*, and a context belongs to
//! one device — a wedged GPU 1 says nothing about GPU 0. The injector
//! reproduces that: state lives in [`crate::multi::MAX_DEVICES`]
//! independent domains, indexed by the calling thread's
//! [`crate::multi::current_device`] binding. Single-device code never
//! binds a device and therefore always operates on domain 0 — the
//! pre-multi-device behaviour, bit for bit. Within one domain the
//! state is process-global (not thread-local) because kernels execute
//! on freshly scoped pool worker threads every launch; the device
//! binding is what gets forwarded to those workers.
//!
//! Several host threads (stream workers, engine workers) can share one
//! domain, and each checks for errors at its own stage boundaries. A
//! thread that has had a launch dropped therefore remembers the fault
//! itself until *its* next [`take_sticky`]: another thread draining the
//! domain's sticky fault in between must not let this one run later
//! kernels against buffers the dropped launch never wrote, nor leave it
//! without an error to report.
//!
//! # Determinism
//!
//! All three fault kinds are deterministic given a deterministic
//! workload: kernel names and stream ids are stable, and the
//! allocation counter counts pool draws in a fixed per-thread
//! order (with one stream / one worker the global order is fixed too).
//! When no fault is armed the fast path is a single relaxed atomic
//! load, and the substrate's behaviour is bit-for-bit identical to a
//! build without this module — the scheduler-determinism oracle pins
//! that.
//!
//! # Syntax (`CUSZI_FAULT`)
//!
//! ```text
//! CUSZI_FAULT=alloc:7          # flag the 7th pooled allocation
//! CUSZI_FAULT=launch:g-interp  # drop every launch of kernel "g-interp"
//! CUSZI_FAULT=stream:1         # poison stream id 1 in every scope
//! CUSZI_FAULT=dev2:stream:0    # same, but only in device 2's domain
//! ```
//!
//! The optional `dev<N>:` prefix scopes the spec to one device's
//! domain; without it the spec arms device 0 (where all single-device
//! work runs).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, PoisonError};

use crate::multi::{current_device, MAX_DEVICES};

/// Which site to fail. Armed with [`arm`] or `CUSZI_FAULT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Flag the `n`th (1-based) pooled-buffer allocation after
    /// arming. The buffer is still returned (no mid-kernel unwinding);
    /// the fault surfaces at the next sticky-error check.
    AllocNth(u64),
    /// Drop every launch of the kernel with this name: the grid never
    /// executes, output buffers keep their pre-launch contents, and
    /// the fault surfaces at the next sticky-error check.
    LaunchNamed(String),
    /// Poison the stream with this id (per [`crate::with_streams`]
    /// scope): its queue drains without running submitted closures,
    /// events still fire (no deadlock), and
    /// [`crate::Stream::synchronize`] reports the fault.
    PoisonStream(u32),
}

impl FaultSpec {
    /// Parse the `CUSZI_FAULT` syntax: `alloc:N`, `launch:<name>`,
    /// `stream:<id>`. Returns `None` on anything else. (The optional
    /// `dev<N>:` device prefix is handled by [`FaultSpec::parse_scoped`].)
    pub fn parse(s: &str) -> Option<FaultSpec> {
        let (kind, arg) = s.split_once(':')?;
        match kind.trim() {
            "alloc" => arg.trim().parse().ok().filter(|&n| n > 0).map(FaultSpec::AllocNth),
            "launch" => {
                let name = arg.trim();
                (!name.is_empty()).then(|| FaultSpec::LaunchNamed(name.to_string()))
            }
            "stream" => arg.trim().parse().ok().map(FaultSpec::PoisonStream),
            _ => None,
        }
    }

    /// Parse a possibly device-scoped spec: `dev<N>:<spec>` targets
    /// device `N`'s fault domain, a bare `<spec>` targets device 0.
    pub fn parse_scoped(s: &str) -> Option<(usize, FaultSpec)> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix("dev") {
            if let Some((id, spec)) = rest.split_once(':') {
                if let Ok(d) = id.trim().parse::<usize>() {
                    if d < MAX_DEVICES {
                        return FaultSpec::parse(spec).map(|sp| (d, sp));
                    }
                    return None;
                }
            }
        }
        FaultSpec::parse(s).map(|sp| (0, sp))
    }
}

/// The category of a tripped fault, for typed error mapping upstream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A pooled allocation was flagged.
    Alloc,
    /// A kernel launch was dropped.
    Launch,
    /// A stream was poisoned and drained its queue without running.
    Stream,
}

/// A tripped fault: what kind, and the site that tripped it (kernel
/// name, `alloc#N`, or stream label).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    pub kind: FaultKind,
    pub site: String,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultKind::Alloc => write!(f, "allocation fault at {}", self.site),
            FaultKind::Launch => write!(f, "launch fault: kernel '{}' dropped", self.site),
            FaultKind::Stream => write!(f, "stream fault: {} poisoned", self.site),
        }
    }
}

/// One device's independent fault domain.
struct Domain {
    /// Fast-path flag: a single relaxed load decides "nothing armed".
    armed: AtomicBool,
    /// The armed spec; consulted only when `armed` is set.
    spec: Mutex<Option<FaultSpec>>,
    /// The sticky fault, pending until [`take_sticky`] drains it.
    sticky: Mutex<Option<Fault>>,
    /// Allocations seen since arming (for [`FaultSpec::AllocNth`]).
    alloc_seen: AtomicU64,
}

impl Domain {
    const fn new() -> Self {
        Domain {
            armed: AtomicBool::new(false),
            spec: Mutex::new(None),
            sticky: Mutex::new(None),
            alloc_seen: AtomicU64::new(0),
        }
    }
}

/// One domain per simulated device; index = device id.
static DOMAINS: [Domain; MAX_DEVICES] = [const { Domain::new() }; MAX_DEVICES];
/// One-shot `CUSZI_FAULT` parse, folded into the first armed() check.
static ENV_INIT: Once = Once::new();
/// Bumped by every arm and disarm, so a thread's remembered drop from
/// an earlier experiment is never mistaken for a live one.
static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The fault behind the launches this host thread has had dropped
    /// since its last [`take_sticky`], keyed by the `(epoch, device)` it
    /// was recorded under.
    static DROPPED: RefCell<((u64, usize), Option<Fault>)> = const { RefCell::new(((0, 0), None)) };
}

/// Run `f` on this thread's remembered drop, first forgetting one left
/// over from another epoch or device binding.
fn with_dropped<R>(f: impl FnOnce(&mut Option<Fault>) -> R) -> R {
    let live = (EPOCH.load(Ordering::Acquire), current_device());
    DROPPED.with(|d| {
        let mut d = d.borrow_mut();
        if d.0 != live {
            *d = (live, None);
        }
        f(&mut d.1)
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panic while holding these tiny critical sections cannot leave
    // them logically corrupt; recover the guard rather than propagate.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("CUSZI_FAULT") {
            if let Some((dev, spec)) = FaultSpec::parse_scoped(&v) {
                arm_spec(dev, spec);
            }
        }
    });
}

fn arm_spec(dev: usize, spec: FaultSpec) {
    // Device 0 keeps the bare site (single-device dumps and tests are
    // unchanged); other domains carry the `dev<N>:` scope they were
    // armed with.
    let scope = if dev == 0 { String::new() } else { format!("dev{dev}:") };
    let site = match &spec {
        FaultSpec::AllocNth(n) => format!("{scope}alloc:{n}"),
        FaultSpec::LaunchNamed(n) => format!("{scope}launch:{n}"),
        FaultSpec::PoisonStream(i) => format!("{scope}stream:{i}"),
    };
    let d = &DOMAINS[dev];
    *lock(&d.spec) = Some(spec);
    *lock(&d.sticky) = None;
    d.alloc_seen.store(0, Ordering::Relaxed);
    EPOCH.fetch_add(1, Ordering::AcqRel);
    d.armed.store(true, Ordering::Release);
    crate::hook::emit(crate::hook::Signal::FaultArmed { site: &site });
}

/// Arm a fault in the *calling thread's* device domain (device 0 for
/// single-device code). Resets the domain's allocation counter and
/// clears any pending sticky fault, so each armed experiment starts
/// clean.
pub fn arm(spec: FaultSpec) {
    env_init();
    arm_spec(current_device(), spec);
}

/// Arm a fault in a specific device's domain — the other devices'
/// domains are untouched (a wedged GPU 1 says nothing about GPU 0).
pub fn arm_on(dev: usize, spec: FaultSpec) {
    assert!(dev < MAX_DEVICES, "device id {dev} >= MAX_DEVICES ({MAX_DEVICES})");
    env_init();
    arm_spec(dev, spec);
}

/// Disarm *every* device domain: no further faults trip anywhere, and
/// any undelivered sticky faults are cleared. The substrate reverts to
/// its bit-identical unarmed path. (Process-wide on purpose — this is
/// the cleanup call tests and experiments use between scenarios.)
pub fn disarm() {
    env_init();
    EPOCH.fetch_add(1, Ordering::AcqRel);
    for d in &DOMAINS {
        d.armed.store(false, Ordering::Release);
        *lock(&d.spec) = None;
        *lock(&d.sticky) = None;
    }
}

/// Whether a fault is armed in the calling thread's device domain
/// (env var counts).
pub fn armed() -> bool {
    env_init();
    DOMAINS[current_device()].armed.load(Ordering::Acquire)
}

/// Drain the pending fault of the calling thread's device domain, if
/// any: the one behind this thread's own dropped launches first, else
/// the domain's sticky fault. The pipeline calls this at every stage
/// boundary (the `cudaGetLastError` analogue); returns `None` when
/// disarmed.
pub fn take_sticky() -> Option<Fault> {
    if !armed() {
        return None;
    }
    let mut sticky = lock(&DOMAINS[current_device()].sticky);
    match with_dropped(Option::take) {
        Some(mine) => {
            // Reported here; don't hand the same fault to the next
            // thread that checks.
            if sticky.as_ref() == Some(&mine) {
                *sticky = None;
            }
            Some(mine)
        }
        None => sticky.take(),
    }
}

/// Record a fault in `dev`'s domain; first writer wins (matching CUDA,
/// which preserves the first sticky error until it is consumed).
fn set_sticky(dev: usize, f: Fault) {
    let site = f.site.clone();
    let recorded = {
        let mut s = lock(&DOMAINS[dev].sticky);
        if s.is_none() {
            *s = Some(f);
            true
        } else {
            false
        }
    };
    if recorded {
        crate::hook::emit(crate::hook::Signal::FaultTripped { site: &site });
    }
}

/// Notify the injector of one pooled allocation. Called by the
/// substrate's buffer pool; a no-op (one relaxed load) when nothing is
/// armed in the calling thread's domain.
pub fn on_alloc() {
    if !armed() {
        return;
    }
    let dev = current_device();
    let d = &DOMAINS[dev];
    let n = match &*lock(&d.spec) {
        Some(FaultSpec::AllocNth(n)) => *n,
        _ => return,
    };
    if d.alloc_seen.fetch_add(1, Ordering::Relaxed) + 1 == n {
        set_sticky(dev, Fault { kind: FaultKind::Alloc, site: format!("alloc#{n}") });
    }
}

/// Whether the named launch must be dropped; records the sticky fault
/// when it is. Called by [`crate::exec::launch_named`].
///
/// Mirrors CUDA's sticky semantics fully: once *any* fault is pending
/// in this device's domain (a dropped launch, a flagged allocation),
/// every subsequent launch on the device is also dropped until the
/// error is consumed — a kernel must never run against buffers a
/// failed predecessor left unwritten (that is how a real context
/// behaves, and it is what keeps downstream device code panic-free
/// between the fault and the next check). A thread whose launch was
/// dropped keeps dropping until its *own* next [`take_sticky`], whoever
/// drains the domain meanwhile. Launches on *other* devices are
/// unaffected: fault domains are per device.
pub(crate) fn launch_should_fail(name: &str) -> bool {
    if !armed() {
        return false;
    }
    if with_dropped(|d| d.is_some()) {
        return true;
    }
    let dev = current_device();
    let d = &DOMAINS[dev];
    let pending = lock(&d.sticky).clone();
    let fault = match pending {
        Some(f) => f,
        None if matches!(&*lock(&d.spec), Some(FaultSpec::LaunchNamed(n)) if n == name) => {
            let f = Fault { kind: FaultKind::Launch, site: name.to_string() };
            set_sticky(dev, f.clone());
            f
        }
        None => return false,
    };
    with_dropped(|d| *d = Some(fault));
    true
}

/// Whether the stream with this id is poisoned in the calling thread's
/// device domain. Checked once at stream creation by
/// [`crate::with_streams`].
pub(crate) fn stream_poisoned(id: u32) -> bool {
    armed()
        && matches!(
            &*lock(&DOMAINS[current_device()].spec),
            Some(FaultSpec::PoisonStream(k)) if *k == id
        )
}

/// Crate-internal test lock: fault state is process-global, so tests
/// that arm it serialize here (the same discipline the workspace-level
/// fault matrix uses within its own binary).
#[cfg(test)]
pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) use super::TEST_GUARD as GUARD;

    #[test]
    fn spec_parsing() {
        assert_eq!(FaultSpec::parse("alloc:7"), Some(FaultSpec::AllocNth(7)));
        assert_eq!(
            FaultSpec::parse("launch:g-interp"),
            Some(FaultSpec::LaunchNamed("g-interp".into()))
        );
        assert_eq!(FaultSpec::parse("stream:2"), Some(FaultSpec::PoisonStream(2)));
        for bad in ["", "alloc", "alloc:0", "alloc:x", "launch:", "boom:1", "7"] {
            assert_eq!(FaultSpec::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn scoped_spec_parsing() {
        assert_eq!(
            FaultSpec::parse_scoped("stream:1"),
            Some((0, FaultSpec::PoisonStream(1))),
            "bare specs target device 0"
        );
        assert_eq!(
            FaultSpec::parse_scoped("dev2:stream:0"),
            Some((2, FaultSpec::PoisonStream(0)))
        );
        assert_eq!(
            FaultSpec::parse_scoped("dev1:launch:g-interp"),
            Some((1, FaultSpec::LaunchNamed("g-interp".into())))
        );
        assert_eq!(FaultSpec::parse_scoped("dev3:alloc:5"), Some((3, FaultSpec::AllocNth(5))));
        for bad in ["dev:stream:1", "dev99:stream:1", "devx:launch:k", "dev2:boom:1"] {
            assert_eq!(FaultSpec::parse_scoped(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn arm_trip_take_disarm_cycle() {
        let _g = lock(&GUARD);
        arm(FaultSpec::AllocNth(2));
        assert!(armed());
        assert_eq!(take_sticky(), None, "nothing tripped yet");
        on_alloc();
        assert_eq!(take_sticky(), None, "first allocation is fine");
        on_alloc();
        let f = take_sticky().expect("second allocation trips");
        assert_eq!(f.kind, FaultKind::Alloc);
        assert_eq!(take_sticky(), None, "sticky drains once");
        disarm();
        assert!(!armed());
        on_alloc();
        assert_eq!(take_sticky(), None, "disarmed injector is inert");
    }

    #[test]
    fn first_fault_wins_and_pending_sticky_drops_all_launches() {
        let _g = lock(&GUARD);
        arm(FaultSpec::LaunchNamed("k".into()));
        assert!(!launch_should_fail("other"), "no fault pending, non-matching launch runs");
        assert!(launch_should_fail("k"));
        assert!(
            launch_should_fail("other"),
            "while the fault is pending every launch is dropped (CUDA sticky semantics)"
        );
        let f = take_sticky().expect("fault recorded");
        assert_eq!((f.kind, f.site.as_str()), (FaultKind::Launch, "k"));
        assert!(!launch_should_fail("other"), "draining the fault unblocks launches");
        assert!(launch_should_fail("k"), "every matching launch is dropped");
        disarm();
    }

    #[test]
    fn a_drain_by_another_thread_does_not_reopen_this_threads_launches() {
        use std::sync::mpsc::channel;
        let _g = lock(&GUARD);
        arm(FaultSpec::LaunchNamed("k".into()));
        let (dropped_tx, dropped_rx) = channel();
        let (drained_tx, drained_rx) = channel();
        std::thread::scope(|s| {
            // Job A: its launch of `k` is dropped; job B then checks
            // for errors first and drains the domain.
            s.spawn(move || {
                assert!(launch_should_fail("k"));
                dropped_tx.send(()).unwrap();
                drained_rx.recv().unwrap();
                assert!(launch_should_fail("other"), "A must not run on what `k` never wrote");
                let f = take_sticky().expect("A still has its fault to report");
                assert_eq!((f.kind, f.site.as_str()), (FaultKind::Launch, "k"));
                assert!(!launch_should_fail("other"), "A's own check reopens A");
            });
            s.spawn(move || {
                dropped_rx.recv().unwrap();
                assert!(take_sticky().is_some(), "B sees the domain's pending fault");
                assert!(!launch_should_fail("other"), "B had nothing dropped");
                drained_tx.send(()).unwrap();
            });
        });
        disarm();
    }

    #[test]
    fn stream_poison_matches_id_only() {
        let _g = lock(&GUARD);
        arm(FaultSpec::PoisonStream(1));
        assert!(!stream_poisoned(0));
        assert!(stream_poisoned(1));
        disarm();
        assert!(!stream_poisoned(1));
    }

    #[test]
    fn fault_domains_are_independent_per_device() {
        let _g = lock(&GUARD);
        arm_on(1, FaultSpec::LaunchNamed("k".into()));
        // Device 0 (the default binding): nothing armed, launches run.
        assert!(!armed());
        assert!(!launch_should_fail("k"));
        assert_eq!(take_sticky(), None);
        // Device 1: armed, the launch drops and the sticky is local.
        crate::multi::on_device(1, || {
            assert!(armed());
            assert!(launch_should_fail("k"));
            let f = take_sticky().expect("device 1 sticky");
            assert_eq!(f.kind, FaultKind::Launch);
        });
        // The trip on device 1 never leaked to device 0.
        assert_eq!(take_sticky(), None);
        disarm();
    }

    #[test]
    fn stream_poison_scopes_to_its_device() {
        let _g = lock(&GUARD);
        arm_on(2, FaultSpec::PoisonStream(0));
        assert!(!stream_poisoned(0), "device 0's stream 0 is healthy");
        crate::multi::on_device(2, || assert!(stream_poisoned(0)));
        crate::multi::on_device(1, || assert!(!stream_poisoned(0)));
        disarm();
    }

    #[test]
    fn disarm_clears_every_domain() {
        let _g = lock(&GUARD);
        arm_on(0, FaultSpec::AllocNth(1));
        arm_on(3, FaultSpec::LaunchNamed("k".into()));
        disarm();
        assert!(!armed());
        crate::multi::on_device(3, || {
            assert!(!armed());
            assert!(!launch_should_fail("k"));
        });
    }
}
