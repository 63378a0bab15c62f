//! The substrate's one observation hook.
//!
//! The substrate itself stays dependency-free: a recorder (the
//! `cuszi-profile` crate) registers one plain `fn` [`Hook`] per process
//! and receives every [`Signal`] — each [`crate::exec::launch_named`]
//! exactly once with its [`LaunchRecord`] (name, geometry, merged
//! [`KernelStats`], host wall time; launches that unwound mid-flight
//! too, from a drop guard, so partially-executed traffic is still
//! accounted), launches the fault injector dropped, a sampled stream of
//! pooled allocations, stream lifecycle/sync operations, and fault
//! arm/trip transitions. Registration needs no allocation and dispatch
//! is one pointer load; with no hook registered every site costs one
//! atomic load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::device::DeviceSpec;
use crate::exec::Grid;
use crate::stats::KernelStats;

/// Everything the substrate knows about one finished (or unwound)
/// kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct LaunchRecord<'a> {
    /// Kernel name (call sites use [`crate::exec::launch_named`];
    /// unnamed launches report as `"kernel"`).
    pub name: &'a str,
    /// Launch geometry.
    pub grid: Grid,
    /// The device being modelled.
    pub device: &'a DeviceSpec,
    /// Merged stats of every block that executed.
    pub stats: KernelStats,
    /// Host wall-clock duration of the launch, in seconds.
    pub wall_s: f64,
    /// False when the launch is being reported during a panic unwind;
    /// `stats` then covers only the blocks that ran.
    pub completed: bool,
    /// Id of the [`crate::stream::Stream`] the launch was issued on, or
    /// `None` for inline (host-thread) launches. With `device_id` it
    /// names the trace lane ([`crate::stream::stream_label`]).
    pub stream: Option<u32>,
    /// The simulated device the launch was issued on
    /// ([`crate::multi::current_device`]; 0 for single-device runs).
    pub device_id: usize,
}

/// One substrate event, delivered to the registered [`Hook`].
#[derive(Clone, Copy, Debug)]
pub enum Signal<'a> {
    /// A named kernel launch finished (or unwound; see
    /// [`LaunchRecord::completed`]). Sent once per executed launch,
    /// after all workers have been joined, so the stats are exact.
    Launch(&'a LaunchRecord<'a>),
    /// A launch the fault injector dropped — the grid never executed.
    LaunchDropped { name: &'a str, stream: Option<u32> },
    /// The `seq`-th pooled allocation. Pool draws are sampled
    /// (one signal per [`ALLOC_SAMPLE`]); `seq` is the true count.
    Alloc { seq: u64 },
    /// A stream lifecycle or synchronization operation.
    Stream { op: &'a str, id: u32 },
    /// A fault spec was armed (`site` is the `CUSZI_FAULT` spec text).
    FaultArmed { site: &'a str },
    /// A fault tripped sticky (`site` is the kernel name, `alloc#N`, or
    /// stream label that tripped it).
    FaultTripped { site: &'a str },
}

/// Sampling period for pooled-allocation signals: pool draws are
/// per-block hot-path events, so the hook sees one in every
/// `ALLOC_SAMPLE` (the sequence number keeps the true count).
pub const ALLOC_SAMPLE: u64 = 1024;

/// The hook signature.
pub type Hook = fn(&Signal<'_>);

static HOOK: OnceLock<Hook> = OnceLock::new();
static ALLOC_SEQ: AtomicU64 = AtomicU64::new(0);

/// Register the process-wide hook. First registration wins; returns
/// `false` if one was already registered.
pub fn set_hook(h: Hook) -> bool {
    HOOK.set(h).is_ok()
}

/// Whether a hook is registered.
#[inline]
pub(crate) fn registered() -> bool {
    HOOK.get().is_some()
}

/// Deliver a signal to the registered hook, if any.
#[inline]
pub fn emit(sig: Signal<'_>) {
    if let Some(h) = HOOK.get() {
        h(&sig);
    }
}

/// Count one pooled allocation and deliver a sampled
/// [`Signal::Alloc`]. Called by the buffer pool next to the fault
/// injector's `on_alloc`; one load when no hook is registered.
#[inline]
pub(crate) fn note_alloc() {
    if !registered() {
        return;
    }
    let seq = ALLOC_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    if seq.is_multiple_of(ALLOC_SAMPLE) {
        emit(Signal::Alloc { seq });
    }
}
