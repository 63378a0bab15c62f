//! A reusable host-side scratch arena for archive assembly.
//!
//! Every [`crate::CuszI::compress`] call assembles several transient
//! byte buffers (section serializations, the pre-Bitcomp payload).
//! Compressing a multi-field dataset ([`crate::batch`]) or a slab
//! stream ([`crate::stream`]) repeats that per field, so the transient
//! allocations scale with field count. The arena keeps those buffers
//! alive between fields: a thread-local pool of cleared `Vec<u8>`s that
//! assembly code draws from and returns to, making the steady-state
//! per-field hot path allocation-free on the host side (mirroring the
//! per-worker buffer pool inside `cuszi-gpu-sim`).
//!
//! The pool is thread-local, so parallel field compression
//! ([`crate::shard::compress_fields_sharded`]) needs no locking and workers
//! reuse buffers across the many fields each one processes.

use std::cell::RefCell;

/// Upper bound on pooled buffers (largest-first eviction is overkill;
/// the pipeline holds at most ~6 live at once).
const ARENA_CAP: usize = 16;

/// A pool of reusable byte buffers.
#[derive(Default)]
pub struct ScratchArena {
    bufs: Vec<Vec<u8>>,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer, preferring a pooled one whose capacity
    /// already covers `cap` (reserving otherwise).
    pub fn take(&mut self, cap: usize) -> Vec<u8> {
        // Count this draw for the fault injector's `alloc:N` spec —
        // arena draws are the host-side half of the allocation surface
        // (the device half is gpu-sim's buffer pool).
        cuszi_gpu_sim::fault::on_alloc();
        let pick = self
            .bufs
            .iter()
            .rposition(|b| b.capacity() >= cap)
            .or(if self.bufs.is_empty() { None } else { Some(self.bufs.len() - 1) });
        match pick {
            Some(i) => {
                let mut b = self.bufs.swap_remove(i);
                b.clear();
                b.reserve(cap);
                b
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a buffer to the pool (dropped if the pool is full or the
    /// buffer never allocated).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || self.bufs.len() >= ARENA_CAP {
            return;
        }
        buf.clear();
        self.bufs.push(buf);
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }

    /// Total capacity held by pooled buffers — what the engine's
    /// session cache charges against its LRU byte budget.
    pub fn bytes(&self) -> usize {
        self.bufs.iter().map(|b| b.capacity()).sum()
    }
}

thread_local! {
    static ARENA: RefCell<ScratchArena> = RefCell::new(ScratchArena::new());
}

/// Run `f` with this thread's arena.
pub fn with_arena<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// Take a cleared buffer from this thread's arena.
pub fn take(cap: usize) -> Vec<u8> {
    with_arena(|a| a.take(cap))
}

/// Return a buffer to this thread's arena.
pub fn put(buf: Vec<u8>) {
    with_arena(|a| a.put(buf));
}

/// Swap this thread's arena for `a`, returning the previous one. The
/// engine installs a session's warm arena before running its job (so
/// assembly buffers stay hot across requests touching the same dataset
/// family) and swaps the worker's own arena back afterwards.
pub fn swap(a: ScratchArena) -> ScratchArena {
    ARENA.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_capacity() {
        let mut a = ScratchArena::new();
        let mut b = a.take(100);
        b.extend_from_slice(&[1, 2, 3]);
        let cap = b.capacity();
        a.put(b);
        let b2 = a.take(50);
        assert!(b2.is_empty(), "pooled buffers come back cleared");
        assert_eq!(b2.capacity(), cap, "storage is reused");
        assert_eq!(a.pooled(), 0);
    }

    #[test]
    fn prefers_buffer_with_sufficient_capacity() {
        let mut a = ScratchArena::new();
        a.put(Vec::with_capacity(8));
        a.put(Vec::with_capacity(1024));
        let b = a.take(512);
        assert!(b.capacity() >= 512);
        assert_eq!(a.pooled(), 1);
    }

    #[test]
    fn pool_is_bounded() {
        let mut a = ScratchArena::new();
        for _ in 0..100 {
            a.put(Vec::with_capacity(4));
        }
        assert!(a.pooled() <= ARENA_CAP);
    }

    #[test]
    fn thread_local_helpers_roundtrip() {
        let mut b = take(64);
        b.push(9);
        let cap = b.capacity();
        put(b);
        let b2 = take(16);
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap);
    }
}
