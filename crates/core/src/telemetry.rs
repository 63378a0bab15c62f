//! Always-on flight-recorder wiring for the pipeline.
//!
//! The flight recorder ([`cuszi_profile::flight`]) is the black box:
//! stage brackets, kernel launches, sampled allocations, stream ops
//! and fault transitions are recorded into per-thread rings at all
//! times. This module owns the two pipeline-side responsibilities:
//! registering the recorder as the gpu-sim hook once per process, and
//! draining the rings into a `flight_<pid>_<seq>.json` dump whenever a
//! [`CuszError`] propagates out of a public entry point — including
//! every `CUSZI_FAULT` injection, which is how the fault matrix gets
//! full forensics for free.

use std::sync::Once;

use crate::error::CuszError;

/// Register the recorder's hook (idempotent, one `Once` check per call).
/// Every public pipeline entry point calls this, so substrate events
/// are recorded no matter which front end drives the library.
pub(crate) fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(cuszi_profile::flight::install);
}

/// Record the terminal error event (attributed to the owning stage)
/// and write the flight dump. Infallible by design: a failed dump must
/// never turn a typed error into a panic or replace it.
pub(crate) fn dump(err: &CuszError) {
    cuszi_profile::flight::dump_on_error(err.stage(), &err.to_string());
}

/// Tag a result's error with a flight dump on the way out.
pub(crate) fn dump_on_err<T>(r: Result<T, CuszError>) -> Result<T, CuszError> {
    if let Err(e) = &r {
        dump(e);
    }
    r
}
