//! The recorder's storage primitives: a lock-free single-writer ring
//! of fixed-size `Copy` records, the inline names those records carry,
//! span categories, and the process-wide timestamp epoch.
//!
//! Each recording thread owns one `Ring` (see [`crate::flight`]):
//! pushing an event is an index bump plus a slot write in the owner's
//! own buffer — no lock, no allocation, no cross-thread contention.
//! Events are fixed-size with inline names, so a full ring simply wraps
//! and overwrites the oldest events instead of ever blocking a worker.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Maximum bytes of a span name stored inline in an event. Longer names
/// are truncated at a UTF-8 boundary.
pub const MAX_NAME: usize = 40;

/// A fixed-capacity inline string (events must be `Copy` so a wrapped
/// ring slot never tears a heap pointer).
#[derive(Clone, Copy)]
pub struct SmallName {
    len: u8,
    buf: [u8; MAX_NAME],
}

impl SmallName {
    /// Store `s`, truncating to [`MAX_NAME`] bytes on a char boundary.
    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(MAX_NAME);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; MAX_NAME];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        SmallName { len: end as u8, buf }
    }

    /// The stored name.
    pub fn as_str(&self) -> &str {
        // Construction guarantees valid UTF-8 up to `len`.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl std::fmt::Debug for SmallName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl PartialEq for SmallName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for SmallName {}

/// What a span describes (becomes the Chrome trace `cat` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// A kernel launch on the gpu-sim substrate.
    Kernel,
    /// A pipeline stage (predict, huffman, bitcomp, …).
    Stage,
    /// A batch container field.
    Batch,
    /// A stream slab.
    Stream,
    /// Anything else.
    Other,
}

impl Category {
    /// Chrome trace category string.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Kernel => "kernel",
            Category::Stage => "stage",
            Category::Batch => "batch",
            Category::Stream => "stream",
            Category::Other => "other",
        }
    }
}

/// Slot sequence protocol: `2*pos + 1` while the writer is mid-slot,
/// `2*pos + 2` once the event at ring position `pos` is published.
struct Slot<T> {
    seq: AtomicU64,
    data: UnsafeCell<MaybeUninit<T>>,
}

/// Single-writer ring buffer over a fixed-size `Copy` record (the
/// recorder's [`crate::flight::FlightEvent`]); the owner thread pushes,
/// anyone may snapshot — exactly once the owner is quiescent.
pub(crate) struct Ring<T: Copy> {
    pub(crate) tid: u32,
    head: AtomicU64,
    slots: Box<[Slot<T>]>,
}

// SAFETY: `data` is written only by the owning thread; readers validate
// the per-slot `seq` (odd or changed => torn, skipped) and only trust
// slots published with a Release store. Drains are additionally
// documented to run after the writers of interest have quiesced.
unsafe impl<T: Copy + Send> Send for Ring<T> {}
unsafe impl<T: Copy + Send> Sync for Ring<T> {}

impl<T: Copy> Ring<T> {
    pub(crate) fn new(tid: u32, capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity must be a power of two");
        Ring {
            tid,
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    data: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        }
    }

    /// Owner-thread only.
    pub(crate) fn push(&self, ev: T) {
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(pos as usize) & (self.slots.len() - 1)];
        slot.seq.store(pos * 2 + 1, Ordering::Release);
        // SAFETY: single writer (owner thread); readers treat an odd or
        // stale seq as torn and skip the slot.
        unsafe { *slot.data.get() = MaybeUninit::new(ev) };
        slot.seq.store(pos * 2 + 2, Ordering::Release);
        self.head.store(pos + 1, Ordering::Release);
    }

    /// Events in `[from, head)` in push order, plus the ring's current
    /// head. Events older than one capacity are gone (overwritten).
    pub(crate) fn snapshot(&self, from: u64) -> (Vec<T>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = from.max(head.saturating_sub(cap));
        let mut out = Vec::with_capacity((head - start) as usize);
        for pos in start..head {
            let slot = &self.slots[(pos as usize) & (self.slots.len() - 1)];
            if slot.seq.load(Ordering::Acquire) != pos * 2 + 2 {
                continue; // torn or already overwritten: skip
            }
            // SAFETY: seq says the slot was fully published for `pos`;
            // quiescent-drain contract makes overwrite-during-copy
            // impossible for the rings being reported.
            let ev = unsafe { (*slot.data.get()).assume_init() };
            if slot.seq.load(Ordering::Acquire) == pos * 2 + 2 {
                out.push(ev);
            }
        }
        (out, head)
    }
}

/// The process-wide timestamp epoch every event is stamped against.
pub(crate) fn global_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_name_truncates_on_char_boundary() {
        let n = SmallName::new("short");
        assert_eq!(n.as_str(), "short");
        let long = "x".repeat(100);
        assert_eq!(SmallName::new(&long).as_str().len(), MAX_NAME);
        // Multi-byte char straddling the limit is dropped whole.
        let tricky = format!("{}é", "a".repeat(MAX_NAME - 1));
        let t = SmallName::new(&tricky);
        assert_eq!(t.as_str(), "a".repeat(MAX_NAME - 1));
    }
}
