//! Shared-memory tiles and pooled block-local scratch buffers.
//!
//! Both tile kinds draw their backing `Vec` from a per-worker-thread
//! pool and return it on drop, so a worker executing thousands of
//! blocks allocates each buffer shape once instead of once per block —
//! the host-side analogue of shared memory being a fixed per-SM
//! resource rather than a heap object.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Upper bound on pooled buffers retained per element type per worker.
const POOL_CAP: usize = 64;

thread_local! {
    static BUF_POOL: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> =
        RefCell::new(HashMap::new());
}

/// Take a pooled `Vec<T>` (empty, arbitrary capacity) or a fresh one.
fn pool_take<T: 'static>() -> Vec<T> {
    crate::fault::on_alloc();
    crate::hook::note_alloc();
    BUF_POOL
        .with(|p| p.borrow_mut().get_mut(&TypeId::of::<Vec<T>>()).and_then(Vec::pop))
        .map(|b| *b.downcast::<Vec<T>>().expect("pool keyed by TypeId"))
        .unwrap_or_default()
}

/// Return a buffer to this worker's pool (dropped if the pool is full).
fn pool_put<T: 'static>(mut buf: Vec<T>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    BUF_POOL.with(|p| {
        let mut p = p.borrow_mut();
        let bucket = p.entry(TypeId::of::<Vec<T>>()).or_default();
        if bucket.len() < POOL_CAP {
            bucket.push(Box::new(buf));
        }
    });
}

/// A block-private shared-memory buffer.
///
/// Allocated from [`crate::BlockCtx::alloc_shared`], which enforces the
/// device's per-block capacity. Access traffic is counted (loads + stores,
/// in bytes) into the owning block's stats via a shared counter; shared
/// memory is far off the roofline for these kernels, but the counts let
/// ablations verify that tiling moves traffic *off* DRAM as intended.
/// The backing storage is pooled per worker thread.
pub struct SharedTile<T: 'static> {
    data: Vec<T>,
    traffic: Rc<Cell<u64>>,
}

impl<T: Copy + Default + 'static> SharedTile<T> {
    pub(crate) fn new(len: usize, traffic: Rc<Cell<u64>>) -> Self {
        let mut data = pool_take::<T>();
        data.resize(len, T::default());
        SharedTile { data, traffic }
    }
}

impl<T: 'static> Drop for SharedTile<T> {
    fn drop(&mut self) {
        pool_put(std::mem::take(&mut self.data));
    }
}

impl<T: Copy + 'static> SharedTile<T> {
    /// Tile length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tile is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.traffic.set(self.traffic.get() + std::mem::size_of::<T>() as u64);
        self.data[i]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        self.traffic.set(self.traffic.get() + std::mem::size_of::<T>() as u64);
        self.data[i] = v;
    }

    /// Copy a contiguous range out (staged global store).
    pub fn copy_to(&self, start: usize, dst: &mut [T]) {
        self.traffic
            .set(self.traffic.get() + std::mem::size_of_val(dst) as u64);
        dst.copy_from_slice(&self.data[start..start + dst.len()]);
    }

    /// Untracked view of the raw buffer (for assertions in tests).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Untracked mutable view of the raw buffer, for block-local
    /// wrappers that store whole runs and account their traffic in bulk
    /// via [`SharedTile::add_accesses`].
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Untracked single-element read, for block-local wrappers that
    /// account their traffic in bulk via [`SharedTile::add_accesses`]
    /// (same totals as per-access counting, one counter update per
    /// batch instead of one per element).
    #[inline]
    pub fn get_untracked(&self, i: usize) -> T {
        self.data[i]
    }

    /// Untracked single-element write (see [`SharedTile::get_untracked`]).
    #[inline]
    pub fn set_untracked(&mut self, i: usize, v: T) {
        self.data[i] = v;
    }

    /// Bill `n` single-element accesses in one update.
    #[inline]
    pub fn add_accesses(&self, n: u64) {
        self.traffic.set(self.traffic.get() + n * std::mem::size_of::<T>() as u64);
    }
}

/// A pooled block-local staging buffer (registers / local memory in
/// CUDA terms — no traffic accounting). Dereferences to a slice;
/// returns its storage to the worker's pool on drop.
pub struct ScratchVec<T: 'static> {
    data: Vec<T>,
}

impl<T: Copy + Default + 'static> ScratchVec<T> {
    /// Take a pooled buffer of exactly `len` copies of `fill`.
    pub(crate) fn take(len: usize, fill: T) -> Self {
        let mut data = pool_take::<T>();
        data.resize(len, fill);
        // Pooled buffers come back cleared, so `resize` filled every
        // element — but make the contract explicit for reused storage.
        debug_assert_eq!(data.len(), len);
        ScratchVec { data }
    }
}

impl<T: 'static> Drop for ScratchVec<T> {
    fn drop(&mut self) {
        pool_put(std::mem::take(&mut self.data));
    }
}

impl<T: 'static> std::ops::Deref for ScratchVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: 'static> std::ops::DerefMut for ScratchVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(len: usize) -> (SharedTile<f32>, Rc<Cell<u64>>) {
        let c = Rc::new(Cell::new(0));
        (SharedTile::new(len, Rc::clone(&c)), c)
    }

    #[test]
    fn get_set_roundtrip_and_traffic() {
        let (mut t, c) = tile(8);
        t.set(3, 1.5);
        assert_eq!(t.get(3), 1.5);
        assert_eq!(c.get(), 8); // two 4-byte accesses
    }

    #[test]
    fn bulk_fill_and_copy() {
        let (mut t, c) = tile(8);
        for (i, v) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            t.set(2 + i, v);
        }
        let mut out = [0.0f32; 3];
        t.copy_to(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(c.get(), 24);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_access_panics() {
        let (t, _c) = tile(4);
        let _ = t.get(4);
    }

    #[test]
    fn pooled_storage_is_reused_and_reset() {
        // Drop a tile, take another of the same type: same capacity
        // comes back (pool hit) and contents are default-initialised.
        let cap = {
            let (mut t, _c) = tile(100);
            t.set(5, 9.0);
            t.data.capacity()
        };
        let (t2, _c) = tile(64);
        assert!(t2.data.capacity() >= 64.min(cap));
        assert!(t2.as_slice().iter().all(|&v| v == 0.0), "reused tile must be reset");
    }

    #[test]
    fn scratch_fill_value_applies_to_reused_buffers() {
        {
            let _s = ScratchVec::<u16>::take(50, 1);
        }
        let s = ScratchVec::<u16>::take(30, 7);
        assert!(s.iter().all(|&v| v == 7));
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn pools_are_segregated_by_type() {
        {
            let _a = ScratchVec::<u8>::take(16, 0);
            let _b = ScratchVec::<u64>::take(16, 0);
        }
        let a = ScratchVec::<u8>::take(8, 2);
        let b = ScratchVec::<u64>::take(8, 3);
        assert!(a.iter().all(|&v| v == 2));
        assert!(b.iter().all(|&v| v == 3));
    }
}
