//! Typed errors of the public API.

/// What went wrong inside a pipeline stage (the device-fault half of
/// [`CuszError::StageError`]). Mirrors the sticky-error categories of
/// the simulated device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageFaultKind {
    /// A device/pool allocation was flagged by the fault injector (the
    /// `cudaMalloc` failure analogue).
    AllocFailed,
    /// A kernel launch was dropped; its grid never executed.
    LaunchFailed,
    /// The stream executing this work was poisoned and drained its
    /// queue without running it.
    StreamPoisoned,
}

impl std::fmt::Display for StageFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageFaultKind::AllocFailed => write!(f, "allocation failed"),
            StageFaultKind::LaunchFailed => write!(f, "kernel launch failed"),
            StageFaultKind::StreamPoisoned => write!(f, "stream poisoned"),
        }
    }
}

/// Everything that can go wrong compressing or decompressing.
#[derive(Clone, Debug, PartialEq)]
pub enum CuszError {
    /// Input contains NaN or infinities — error-bounded compression of
    /// non-finite values is undefined in the SZ framework.
    NonFiniteInput,
    /// The error bound is non-positive, non-finite, or resolves to zero
    /// (relative bound on a constant field).
    InvalidErrorBound,
    /// Archive is structurally invalid (bad magic, truncated section,
    /// inconsistent geometry). The payload describes what failed.
    CorruptArchive(&'static str),
    /// Archive was produced by an incompatible format version.
    VersionMismatch { found: u16, expected: u16 },
    /// A lossless-stage failure surfaced during decompression.
    LosslessStage(&'static str),
    /// The Huffman payload did not decode to valid symbols — a corrupt
    /// archive detected mid-decode, attributed to the failing chunk
    /// (and gap-array sector) like compress-side stage errors are
    /// attributed to their kernel site.
    DecodeCorrupt { msg: &'static str, chunk: Option<u64>, sector: Option<u64> },
    /// The requested configuration is unsupported (e.g. radius 0).
    InvalidConfig(&'static str),
    /// A pipeline stage failed on the device: the sticky fault drained
    /// at the stage boundary (or at stream synchronize), tagged with
    /// the stage label it surfaced in and the site that tripped it
    /// (kernel name, `alloc#N`, or stream label).
    StageError { stage: &'static str, kind: StageFaultKind, site: String },
}

impl std::fmt::Display for CuszError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CuszError::NonFiniteInput => write!(f, "input contains non-finite values"),
            CuszError::InvalidErrorBound => write!(f, "error bound must be positive and finite"),
            CuszError::CorruptArchive(m) => write!(f, "corrupt archive: {m}"),
            CuszError::VersionMismatch { found, expected } => {
                write!(f, "archive version {found} (expected {expected})")
            }
            CuszError::LosslessStage(m) => write!(f, "lossless stage failed: {m}"),
            CuszError::DecodeCorrupt { msg, chunk, sector } => {
                write!(f, "corrupt archive: huffman decode: {msg}")?;
                match (chunk, sector) {
                    (Some(c), Some(s)) => write!(f, " (chunk {c}, sector {s})"),
                    (Some(c), None) => write!(f, " (chunk {c})"),
                    _ => Ok(()),
                }
            }
            CuszError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            CuszError::StageError { stage, kind, site } => {
                write!(f, "stage '{stage}' failed: {kind} at {site}")
            }
        }
    }
}

impl std::error::Error for CuszError {}

impl From<cuszi_quant::QuantError> for CuszError {
    fn from(e: cuszi_quant::QuantError) -> Self {
        match e {
            cuszi_quant::QuantError::InvalidErrorBound => CuszError::InvalidErrorBound,
            cuszi_quant::QuantError::NonFiniteInput => CuszError::NonFiniteInput,
        }
    }
}

impl From<cuszi_huffman::DecodeError> for CuszError {
    fn from(e: cuszi_huffman::DecodeError) -> Self {
        CuszError::DecodeCorrupt { msg: e.msg, chunk: e.chunk, sector: e.sector }
    }
}

impl CuszError {
    /// Map a tripped device fault into the stage it surfaced in.
    pub fn from_fault(stage: &'static str, fault: cuszi_gpu_sim::Fault) -> Self {
        let kind = match fault.kind {
            cuszi_gpu_sim::FaultKind::Alloc => StageFaultKind::AllocFailed,
            cuszi_gpu_sim::FaultKind::Launch => StageFaultKind::LaunchFailed,
            cuszi_gpu_sim::FaultKind::Stream => StageFaultKind::StreamPoisoned,
        };
        CuszError::StageError { stage, kind, site: fault.site }
    }

    /// The pipeline stage this error is attributed to — the exact stage
    /// for device faults, a coarse phase name for errors raised before
    /// any stage ran. This is what the flight recorder stamps on the
    /// terminal event of a black-box dump.
    pub fn stage(&self) -> &'static str {
        match self {
            CuszError::StageError { stage, .. } => stage,
            CuszError::NonFiniteInput
            | CuszError::InvalidErrorBound
            | CuszError::InvalidConfig(_) => "validate",
            CuszError::CorruptArchive(_) | CuszError::VersionMismatch { .. } => "parse",
            CuszError::LosslessStage(_) => "lossless",
            CuszError::DecodeCorrupt { .. } => "huffman-decode",
        }
    }
}
