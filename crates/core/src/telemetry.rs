//! Always-on flight-recorder wiring for the pipeline.
//!
//! The flight recorder ([`cuszi_profile::flight`]) is the black box:
//! stage brackets, kernel launches, sampled allocations, stream ops
//! and fault transitions are recorded into per-thread rings at all
//! times. This module owns the two pipeline-side responsibilities:
//! registering the recorder as the gpu-sim hook once per process, and
//! draining the rings into a `flight_<pid>_<seq>.json` dump whenever a
//! device or lossless-stage [`CuszError`] propagates out of a public
//! entry point — including every `CUSZI_FAULT` injection, which is how
//! the fault matrix gets full forensics for free. Errors the input alone
//! decides write no dump (see [`dump`]).

use std::sync::Once;

use cuszi_profile::Category;

use crate::error::CuszError;

/// Register the recorder's hook (idempotent, one `Once` check per call).
/// Every public pipeline entry point calls this, so substrate events
/// are recorded no matter which front end drives the library.
pub(crate) fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(cuszi_profile::flight::install);
}

/// Run a public pipeline entry point: register the recorder, open a
/// `Category::Stage` span named `label` around `body`, and dump on an
/// error. The dump is written inside the span, so it ends at the failed
/// stage's open bracket and the error, not at this span's end.
pub(crate) fn entry<T>(
    label: &'static str,
    body: impl FnOnce() -> Result<T, CuszError>,
) -> Result<T, CuszError> {
    init();
    let _span = cuszi_profile::span(label, Category::Stage);
    let r = body();
    if let Err(e) = &r {
        dump(e);
    }
    r
}

/// Record the terminal error event (attributed to the owning stage)
/// and write the flight dump. Infallible by design: a failed dump must
/// never turn a typed error into a panic or replace it.
///
/// Errors the input alone decides (a malformed archive, a non-finite
/// field, a bad bound or configuration) write nothing: their message
/// already names the stage and the cause, and a served client sending
/// bad input would otherwise buy a file write, rename and eviction per
/// request.
pub(crate) fn dump(err: &CuszError) {
    if matches!(
        err,
        CuszError::CorruptArchive(_)
            | CuszError::VersionMismatch { .. }
            | CuszError::NonFiniteInput
            | CuszError::InvalidErrorBound
            | CuszError::InvalidConfig(_)
            | CuszError::DecodeCorrupt { .. }
    ) {
        return;
    }
    cuszi_profile::flight::dump_on_error(err.stage(), &err.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_returns_the_body_result_unchanged() {
        assert_eq!(entry("compress", || Ok::<_, CuszError>(7)), Ok(7));
        // An input error: passed through as is, and it writes no dump.
        let e = entry("compress", || Err::<u8, _>(CuszError::InvalidErrorBound));
        assert_eq!(e, Err(CuszError::InvalidErrorBound));
    }
}
