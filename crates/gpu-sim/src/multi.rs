//! Multi-device layer: M simulated GPUs on one host.
//!
//! Real multi-GPU nodes give each device its own SMs, its own streams,
//! its own sticky-error context, and its own clock. This module
//! reproduces that shape on the CPU substrate:
//!
//! * a **current-device binding** — a thread-local id, defaulting to
//!   device 0, installed with [`on_device`] and *forwarded* to pool
//!   workers and stream workers the same way the
//!   [`crate::pool::with_threads`] override is. Everything
//!   device-scoped in the substrate (fault domains, stream labels,
//!   launch attribution) consults it, so existing single-device code
//!   paths run unchanged on device 0;
//! * [`MAX_DEVICES`] statically allocated fault domains, one per id.
//!
//! Schedulers open each device's stream set under [`on_device`], so a
//! device's simulated timeline is its streams' clocks; splitting the
//! worker budget is the scheduler's business (`cuszi_core::sched`).
//!
//! Fault isolation is the point: each device id indexes an independent
//! fault domain in [`crate::fault`], so `CUSZI_FAULT=dev1:stream:0`
//! poisons device 1's stream 0 and leaves devices 0, 2, 3 untouched.

use std::cell::Cell;

/// Upper bound on simulated devices per process. Fault domains are
/// statically allocated per device; eight covers the largest NVLink
/// node the paper's testbeds ship (and then some).
pub const MAX_DEVICES: usize = 8;

thread_local! {
    /// The simulated device the calling thread is executing on.
    static CURRENT: Cell<usize> = const { Cell::new(0) };
}

/// The device id bound to the calling thread (0 when never bound —
/// single-device code is always "on" device 0).
pub fn current_device() -> usize {
    CURRENT.with(|c| c.get())
}

/// Run `f` with the calling thread bound to device `id`. Bindings
/// nest (the previous id is restored on exit) and are forwarded to
/// pool and stream worker threads spawned inside `f`, so kernels,
/// allocations, and fault checks anywhere under `f` attribute to
/// device `id`.
pub fn on_device<R>(id: usize, f: impl FnOnce() -> R) -> R {
    assert!(id < MAX_DEVICES, "device id {id} >= MAX_DEVICES ({MAX_DEVICES})");
    let prev = CURRENT.with(|c| c.replace(id));
    let out = f();
    CURRENT.with(|c| c.set(prev));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_binding_is_device_zero() {
        assert_eq!(current_device(), 0);
    }

    #[test]
    fn on_device_nests_and_restores() {
        on_device(2, || {
            assert_eq!(current_device(), 2);
            on_device(5, || assert_eq!(current_device(), 5));
            assert_eq!(current_device(), 2);
        });
        assert_eq!(current_device(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_device_rejected() {
        on_device(MAX_DEVICES, || {});
    }

    #[test]
    fn binding_reaches_pool_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = AtomicUsize::new(usize::MAX);
        on_device(3, || {
            crate::pool::with_threads(4, || {
                crate::pool::for_each_index(
                    64,
                    || (),
                    |(), _| seen.store(current_device(), Ordering::Relaxed),
                );
            });
        });
        assert_eq!(seen.load(Ordering::Relaxed), 3, "pool workers inherit the device");
    }
}
