//! Kernel launching, block contexts and counting global-memory views.
//!
//! A "kernel" is a closure executed once per thread block of a launch
//! [`Grid`]. Blocks run in parallel across CPU cores (the std-thread
//! [`crate::pool`]); the body of one block runs sequentially, with
//! [`BlockCtx::sync`] marking the positions of the CUDA `__syncthreads()`
//! barriers. This is semantically equivalent to the barrier-phased CUDA
//! original: everything before a barrier completes before anything after
//! it, and blocks are independent.
//!
//! All global-memory access goes through [`GlobalRead`] / [`GlobalWrite`]
//! views that count 32-byte DRAM sectors with warp-granularity coalescing,
//! feeding [`KernelStats`].
//!
//! # Lock-free per-block results
//!
//! Kernels never funnel host-side results through a mutex: a
//! [`BlockSlots`] gives every block its own preallocated slot, written
//! disjointly during the launch and compacted in block order afterwards —
//! the same two-pass size/offset shape the CUDA originals use. Combined
//! with the integer-counter stats reduction this makes launch results
//! identical for any worker-thread count *by construction*.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Instant;

use crate::device::DeviceSpec;
use crate::hook;
use crate::pool;
use crate::shared::{ScratchVec, SharedTile};
use crate::stats::{AtomicKernelStats, KernelStats, SECTOR_BYTES};

/// CUDA-style 3-component launch extent (`x` fastest-varying).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// A 1-d extent.
    pub fn new(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A full 3-d extent.
    pub fn xyz(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total number of entries.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

/// Launch geometry: a grid of blocks, each with a logical thread count.
///
/// The thread count does not change how the block body executes (it is
/// sequential CPU code) but is validated against the device limit and
/// used by kernels to dynamically partition per-level work exactly as
/// § V-D describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    pub blocks: Dim3,
    pub threads_per_block: u32,
}

impl Grid {
    /// A 1-d grid.
    pub fn linear(nblocks: u32, threads_per_block: u32) -> Self {
        Grid { blocks: Dim3::new(nblocks), threads_per_block }
    }

    /// A 3-d grid.
    pub fn new(blocks: Dim3, threads_per_block: u32) -> Self {
        Grid { blocks, threads_per_block }
    }
}

/// Count the 32-byte sectors covered by the byte range `[start, end)`.
#[inline]
fn sectors_spanned(start_byte: u64, end_byte: u64) -> u64 {
    if end_byte <= start_byte {
        return 0;
    }
    (end_byte - 1) / SECTOR_BYTES - start_byte / SECTOR_BYTES + 1
}

/// Upper bound on the modelled warp width (A100/A40 use 32); the sector
/// dedup buffer below lives on the stack at this size.
const MAX_WARP: usize = 64;

/// Per-block execution context handed to the kernel closure.
///
/// The context flushes its counters into the launch-wide
/// [`AtomicKernelStats`] sink when it drops — a drop guard, so the
/// flush also happens when the kernel body panics or returns early and
/// traffic from partially-executed blocks is never lost.
pub struct BlockCtx<'l> {
    /// This block's coordinates in the grid.
    pub block: Dim3,
    /// The launch geometry.
    pub grid: Grid,
    /// The device being modelled.
    pub device: &'l DeviceSpec,
    stats: KernelStats,
    shared_alloc_bytes: usize,
    shared_traffic: Rc<Cell<u64>>,
    sink: &'l AtomicKernelStats,
}

impl Drop for BlockCtx<'_> {
    fn drop(&mut self) {
        self.stats.shared_bytes += self.shared_traffic.get();
        self.sink.add(&self.stats);
    }
}

impl<'l> BlockCtx<'l> {
    fn new(block: Dim3, grid: Grid, device: &'l DeviceSpec, sink: &'l AtomicKernelStats) -> Self {
        BlockCtx {
            block,
            grid,
            device,
            stats: KernelStats { blocks: 1, ..Default::default() },
            shared_alloc_bytes: 0,
            shared_traffic: Rc::new(Cell::new(0)),
            sink,
        }
    }

    /// Linear block id (`x` fastest).
    pub fn block_linear(&self) -> u64 {
        let b = self.block;
        let g = self.grid.blocks;
        (b.z as u64 * g.y as u64 + b.y as u64) * g.x as u64 + b.x as u64
    }

    /// Record a `__syncthreads()`-equivalent barrier.
    #[inline]
    pub fn sync(&mut self) {
        self.stats.barriers += 1;
    }

    /// Record `n` floating-point operations.
    #[inline]
    pub fn add_flops(&mut self, n: u64) {
        self.stats.flops += n;
    }

    /// Allocate a shared-memory tile of `len` elements of `T`.
    ///
    /// The backing buffer is pooled per worker thread: blocks executing
    /// on the same worker reuse it instead of allocating per block.
    ///
    /// Panics if the block's cumulative shared allocation exceeds the
    /// device's per-block shared memory — the same hard failure a CUDA
    /// launch would produce.
    pub fn alloc_shared<T: Copy + Default + 'static>(&mut self, len: usize) -> SharedTile<T> {
        let bytes = len * std::mem::size_of::<T>();
        self.shared_alloc_bytes += bytes;
        assert!(
            self.shared_alloc_bytes <= self.device.shared_mem_per_block as usize,
            "shared memory over-allocation: {} > {} bytes on {}",
            self.shared_alloc_bytes,
            self.device.shared_mem_per_block,
            self.device.name
        );
        SharedTile::new(len, Rc::clone(&self.shared_traffic))
    }

    /// Take a pooled block-local scratch buffer of `len` copies of
    /// `fill` (register/local-memory analogue — no traffic is charged).
    /// Returned to the worker's pool on drop, so per-block staging
    /// buffers stop hitting the allocator.
    pub fn scratch<T: Copy + Default + 'static>(&mut self, len: usize, fill: T) -> ScratchVec<T> {
        ScratchVec::take(len, fill)
    }

    /// Read a contiguous span from a global view (fully coalesced).
    pub fn read_span<T: Copy>(&mut self, view: &GlobalRead<'_, T>, start: usize, out: &mut [T]) {
        let elt = std::mem::size_of::<T>() as u64;
        assert!(start + out.len() <= view.len(), "read_span out of bounds");
        out.copy_from_slice(&view.data[start..start + out.len()]);
        let sb = start as u64 * elt;
        let eb = (start + out.len()) as u64 * elt;
        self.stats.load_sectors += sectors_spanned(sb, eb);
        self.stats.load_bytes += eb - sb;
    }

    /// Read one element, charging a whole sector (a solitary access).
    #[inline]
    pub fn read_one<T: Copy>(&mut self, view: &GlobalRead<'_, T>, idx: usize) -> T {
        self.stats.load_sectors += 1;
        self.stats.load_bytes += std::mem::size_of::<T>() as u64;
        view.data[idx]
    }

    /// Gather arbitrary indices. Indices are grouped into warps of
    /// `device.warp_size` in order; each warp is charged the number of
    /// distinct sectors it touches, modelling hardware coalescing.
    pub fn read_gather<T: Copy>(
        &mut self,
        view: &GlobalRead<'_, T>,
        indices: &[usize],
        out: &mut [T],
    ) {
        assert_eq!(indices.len(), out.len(), "gather index/out length mismatch");
        let elt = std::mem::size_of::<T>() as u64;
        for (i, &idx) in indices.iter().enumerate() {
            out[i] = view.data[idx];
        }
        self.stats.load_bytes += indices.len() as u64 * elt;
        self.stats.load_sectors += self.warp_sector_count(indices, elt);
    }

    /// Gather a constant-stride index sequence (`start`, `start+stride`,
    /// …) without materialising an index list. Traffic accounting is
    /// identical to [`Self::read_gather`] over the same indices.
    pub fn read_strided<T: Copy>(
        &mut self,
        view: &GlobalRead<'_, T>,
        start: usize,
        stride: usize,
        out: &mut [T],
    ) {
        assert!(stride >= 1, "stride must be >= 1");
        if !out.is_empty() {
            let last = start + (out.len() - 1) * stride;
            assert!(last < view.len(), "read_strided out of bounds");
        }
        let elt = std::mem::size_of::<T>() as u64;
        for (k, o) in out.iter_mut().enumerate() {
            *o = view.data[start + k * stride];
        }
        self.stats.load_bytes += out.len() as u64 * elt;
        self.stats.load_sectors +=
            self.warp_sectors_of(strided_indices(start, stride, out.len()), elt);
    }

    /// Gather `rows` rows of `row_len` consecutive elements whose starts
    /// are `row_stride` apart (a 2-d plane slice), without an index
    /// list. `out` is filled row-major; accounting matches
    /// [`Self::read_gather`] over the flattened index sequence.
    pub fn read_span_2d<T: Copy>(
        &mut self,
        view: &GlobalRead<'_, T>,
        start: usize,
        row_len: usize,
        row_stride: usize,
        rows: usize,
        out: &mut [T],
    ) {
        assert_eq!(out.len(), rows * row_len, "read_span_2d out length mismatch");
        if rows > 0 && row_len > 0 {
            let last = start + (rows - 1) * row_stride + row_len - 1;
            assert!(last < view.len(), "read_span_2d out of bounds");
        }
        let elt = std::mem::size_of::<T>() as u64;
        for r in 0..rows {
            let src = start + r * row_stride;
            out[r * row_len..(r + 1) * row_len]
                .copy_from_slice(&view.data[src..src + row_len]);
        }
        self.stats.load_bytes += out.len() as u64 * elt;
        self.stats.load_sectors +=
            self.warp_sectors_of(span_2d_indices(start, row_len, row_stride, rows), elt);
    }

    /// Write a contiguous span to a global view (fully coalesced).
    pub fn write_span<T: Copy>(&mut self, view: &GlobalWrite<'_, T>, start: usize, src: &[T]) {
        let elt = std::mem::size_of::<T>() as u64;
        view.write_range(start, src);
        let sb = start as u64 * elt;
        let eb = (start + src.len()) as u64 * elt;
        self.stats.store_sectors += sectors_spanned(sb, eb);
        self.stats.store_bytes += eb - sb;
    }

    /// Write one element, charging a whole sector.
    #[inline]
    pub fn write_one<T: Copy>(&mut self, view: &GlobalWrite<'_, T>, idx: usize, v: T) {
        view.write_range(idx, std::slice::from_ref(&v));
        self.stats.store_sectors += 1;
        self.stats.store_bytes += std::mem::size_of::<T>() as u64;
    }

    /// Gather arbitrary indices from a *writable* view (global memory is
    /// readable and writable in CUDA; scans read a line before rewriting
    /// it in place). Coalescing accounting matches [`Self::read_gather`].
    pub fn read_gather_rw<T: Copy>(
        &mut self,
        view: &GlobalWrite<'_, T>,
        indices: &[usize],
        out: &mut [T],
    ) {
        assert_eq!(indices.len(), out.len(), "gather index/out length mismatch");
        let elt = std::mem::size_of::<T>() as u64;
        for (i, &idx) in indices.iter().enumerate() {
            out[i] = view.read_at(idx);
        }
        self.stats.load_bytes += indices.len() as u64 * elt;
        self.stats.load_sectors += self.warp_sector_count(indices, elt);
    }

    /// Read a contiguous span from a writable view.
    pub fn read_span_rw<T: Copy>(
        &mut self,
        view: &GlobalWrite<'_, T>,
        start: usize,
        out: &mut [T],
    ) {
        let elt = std::mem::size_of::<T>() as u64;
        for (i, o) in out.iter_mut().enumerate() {
            *o = view.read_at(start + i);
        }
        let sb = start as u64 * elt;
        let eb = (start + out.len()) as u64 * elt;
        self.stats.load_sectors += sectors_spanned(sb, eb);
        self.stats.load_bytes += eb - sb;
    }

    /// Scatter to arbitrary indices with warp-granularity coalescing
    /// accounting (the mirror of [`Self::read_gather`]).
    pub fn write_scatter<T: Copy>(
        &mut self,
        view: &GlobalWrite<'_, T>,
        indices: &[usize],
        src: &[T],
    ) {
        assert_eq!(indices.len(), src.len(), "scatter index/src length mismatch");
        let elt = std::mem::size_of::<T>() as u64;
        for (&idx, &v) in indices.iter().zip(src) {
            view.write_range(idx, std::slice::from_ref(&v));
        }
        self.stats.store_bytes += indices.len() as u64 * elt;
        self.stats.store_sectors += self.warp_sector_count(indices, elt);
    }

    /// Atomically add to one global counter. A solitary atomic is a
    /// whole-sector transaction; batch per-warp traffic with
    /// [`Self::atomic_add_warp`] where the kernel issues one atomic per
    /// lane (atomics serialise on conflicts in real hardware; the
    /// roofline absorbs that into the efficiency factor).
    pub fn atomic_add(&mut self, view: &GlobalAtomicU32<'_>, idx: usize, v: u32) -> u32 {
        self.stats.store_sectors += 1;
        self.stats.store_bytes += 4;
        view.data[idx].fetch_add(v, Ordering::Relaxed)
    }

    /// Warp-batched atomic adds: one `fetch_add` per `(index, value)`
    /// pair, but DRAM traffic is charged per *distinct sector per warp*
    /// exactly like [`Self::read_gather`] — adjacent-lane atomics into
    /// the same sector coalesce into one transaction.
    pub fn atomic_add_warp(
        &mut self,
        view: &GlobalAtomicU32<'_>,
        indices: &[usize],
        vals: &[u32],
    ) {
        assert_eq!(indices.len(), vals.len(), "atomic index/val length mismatch");
        for (&idx, &v) in indices.iter().zip(vals) {
            view.data[idx].fetch_add(v, Ordering::Relaxed);
        }
        self.stats.store_bytes += indices.len() as u64 * 4;
        self.stats.store_sectors += self.warp_sector_count(indices, 4);
    }

    /// Distinct-sectors-per-warp count for an explicit index list.
    fn warp_sector_count(&self, indices: &[usize], elt_bytes: u64) -> u64 {
        self.warp_sectors_of(indices.iter().copied(), elt_bytes)
    }

    /// Distinct-sectors-per-warp count over any index sequence, using a
    /// fixed stack buffer (no allocation, no sort): indices are grouped
    /// into warps of `device.warp_size` in order and each warp
    /// contributes the number of distinct sectors it touches.
    fn warp_sectors_of(&self, indices: impl Iterator<Item = usize>, elt_bytes: u64) -> u64 {
        let warp = self.device.warp_size as usize;
        assert!((1..=MAX_WARP).contains(&warp), "warp size {warp} outside 1..={MAX_WARP}");
        let mut buf = [0u64; MAX_WARP];
        let mut distinct = 0usize;
        let mut lane = 0usize;
        let mut total = 0u64;
        for idx in indices {
            if lane == warp {
                total += distinct as u64;
                distinct = 0;
                lane = 0;
            }
            let sector = (idx as u64 * elt_bytes) / SECTOR_BYTES;
            if !buf[..distinct].contains(&sector) {
                buf[distinct] = sector;
                distinct += 1;
            }
            lane += 1;
        }
        total + distinct as u64
    }

}

/// Indices `start + k*stride` for `k in 0..count`.
fn strided_indices(start: usize, stride: usize, count: usize) -> impl Iterator<Item = usize> {
    (0..count).map(move |k| start + k * stride)
}

/// Row-major indices of a `rows x row_len` plane with `row_stride`
/// between row starts.
fn span_2d_indices(
    start: usize,
    row_len: usize,
    row_stride: usize,
    rows: usize,
) -> impl Iterator<Item = usize> {
    (0..rows).flat_map(move |r| (0..row_len).map(move |c| start + r * row_stride + c))
}

/// Read-only counting view over a global buffer.
pub struct GlobalRead<'a, T> {
    data: &'a [T],
}

impl<'a, T: Copy> GlobalRead<'a, T> {
    /// Wrap a buffer that lives in "global memory".
    pub fn new(data: &'a [T]) -> Self {
        GlobalRead { data }
    }

    /// Buffer length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Writable counting view over a global buffer, shareable across blocks.
///
/// Like real global memory, disjointness of writes across blocks is the
/// kernel's responsibility. [`GlobalWrite::new_checked`] attaches a
/// per-element write detector that panics on overlapping writes — used in
/// tests to prove kernels partition their output correctly.
pub struct GlobalWrite<'a, T> {
    ptr: *mut T,
    len: usize,
    writes: Option<Vec<AtomicU8>>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: blocks write disjoint regions (verified in tests via
// `new_checked`); the raw pointer is only dereferenced through
// bounds-checked `write_range`.
unsafe impl<T: Send> Sync for GlobalWrite<'_, T> {}
unsafe impl<T: Send> Send for GlobalWrite<'_, T> {}

impl<'a, T: Copy> GlobalWrite<'a, T> {
    /// Wrap a mutable buffer.
    pub fn new(data: &'a mut [T]) -> Self {
        GlobalWrite { ptr: data.as_mut_ptr(), len: data.len(), writes: None, _marker: PhantomData }
    }

    /// Wrap a mutable buffer with double-write detection (test aid).
    pub fn new_checked(data: &'a mut [T]) -> Self {
        let writes = (0..data.len()).map(|_| AtomicU8::new(0)).collect();
        GlobalWrite {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            writes: Some(writes),
            _marker: PhantomData,
        }
    }

    /// Buffer length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn read_at(&self, idx: usize) -> T {
        assert!(idx < self.len, "global read out of bounds");
        // SAFETY: bounds checked above; concurrent readers of a location
        // a block is itself writing are the kernel's contract, exactly
        // as in CUDA global memory.
        unsafe { *self.ptr.add(idx) }
    }

    fn write_range(&self, start: usize, src: &[T]) {
        assert!(start + src.len() <= self.len, "global write out of bounds");
        if let Some(writes) = &self.writes {
            for marker in &writes[start..start + src.len()] {
                let prev = marker.fetch_add(1, Ordering::Relaxed);
                assert_eq!(prev, 0, "overlapping global write detected at element offset");
            }
        }
        // SAFETY: bounds checked above; cross-block disjointness is the
        // kernel contract (enforced in tests via `new_checked`).
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(start), src.len());
        }
    }
}

/// Atomic u32 counter array in global memory (histogram merges).
pub struct GlobalAtomicU32<'a> {
    data: &'a [AtomicU32],
}

impl<'a> GlobalAtomicU32<'a> {
    /// Wrap an atomic counter buffer.
    pub fn new(data: &'a [AtomicU32]) -> Self {
        GlobalAtomicU32 { data }
    }

    /// Buffer length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Preallocated per-block result slots: the lock-free replacement for
/// the `Mutex<Vec<(block_id, T)>>` funnel.
///
/// Each block writes at most once into its own slot during a launch
/// (enforced — a double write panics, like the checked global view);
/// after the launch, [`BlockSlots::into_compact`] yields the non-empty
/// results in block order. No lock, no sort, and the output order is
/// independent of scheduling by construction.
pub struct BlockSlots<T> {
    slots: Vec<UnsafeCell<Option<T>>>,
    written: Vec<AtomicU8>,
}

// SAFETY: each slot is written by exactly one block (the `written`
// markers turn violations into panics), and the launch joins all
// workers before any read.
unsafe impl<T: Send> Sync for BlockSlots<T> {}

impl<T> BlockSlots<T> {
    /// One empty slot per block of the launch.
    pub fn new(nblocks: usize) -> Self {
        BlockSlots {
            slots: (0..nblocks).map(|_| UnsafeCell::new(None)).collect(),
            written: (0..nblocks).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Slot count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Store this block's result. Panics if the slot was already
    /// written — per-block results must be produced exactly once.
    pub fn put(&self, block_id: usize, value: T) {
        let prev = self.written[block_id].fetch_add(1, Ordering::Relaxed);
        assert_eq!(prev, 0, "block {block_id} wrote its result slot twice");
        // SAFETY: the marker above guarantees exclusive access to this
        // slot for the lifetime of the launch.
        unsafe { *self.slots[block_id].get() = Some(value) };
    }

    /// All written results, in block order.
    pub fn into_compact(self) -> Vec<T> {
        self.slots.into_iter().filter_map(UnsafeCell::into_inner).collect()
    }

    /// `(block_id, result)` pairs in block order.
    pub fn into_indexed(self) -> Vec<(usize, T)> {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, c)| c.into_inner().map(|v| (i, v)))
            .collect()
    }

    /// The first written result in block order (deterministic
    /// error-reporting: "the failing block with the lowest id").
    pub fn into_first(self) -> Option<T> {
        self.slots.into_iter().find_map(UnsafeCell::into_inner)
    }
}

/// Execute `kernel` once per block of `grid` on the modelled `device`,
/// in parallel across CPU cores, and return the merged execution stats.
pub fn launch<F>(device: &DeviceSpec, grid: Grid, kernel: F) -> KernelStats
where
    F: Fn(&mut BlockCtx<'_>) + Sync,
{
    launch_named(device, grid, "kernel", kernel)
}

/// Drop guard that reports a launch to the installed observer even when
/// the launch unwinds: partially-executed traffic is still profiled.
struct LaunchReport<'a> {
    name: &'a str,
    grid: Grid,
    device: &'a DeviceSpec,
    sink: &'a AtomicKernelStats,
    t0: Option<Instant>,
}

impl Drop for LaunchReport<'_> {
    fn drop(&mut self) {
        let Some(t0) = self.t0 else { return };
        if let Some(obs) = hook::active_observer() {
            let stream = crate::stream::current_stream();
            obs.on_launch(&hook::LaunchRecord {
                name: self.name,
                grid: self.grid,
                device: self.device,
                stats: self.sink.snapshot(),
                wall_s: t0.elapsed().as_secs_f64(),
                completed: !std::thread::panicking(),
                stream: stream.as_ref().map(|(id, label)| (*id, label.as_str())),
                device_id: crate::multi::current_device(),
            });
        }
    }
}

/// [`launch`] with a kernel name for profilers: the name flows to the
/// registered [`hook::LaunchObserver`] and labels the launch in kernel
/// tables and traces. Pipeline kernels use this; anonymous launches
/// report as `"kernel"`.
pub fn launch_named<F>(device: &DeviceSpec, grid: Grid, name: &str, kernel: F) -> KernelStats
where
    F: Fn(&mut BlockCtx<'_>) + Sync,
{
    assert!(
        grid.threads_per_block >= 1 && grid.threads_per_block <= device.max_threads_per_block,
        "threads_per_block {} outside 1..={} on {}",
        grid.threads_per_block,
        device.max_threads_per_block,
        device.name
    );
    // Fault injection (CUDA sticky-error analogue): an armed launch
    // fault drops the grid entirely — output buffers keep their
    // pre-launch contents — and the error surfaces at the caller's
    // next sticky-error check, not here.
    if crate::fault::launch_should_fail(name) {
        hook::flight(hook::FlightSignal::Launch {
            name,
            stream: crate::stream::current_stream_id(),
            dropped: true,
        });
        return KernelStats::default();
    }
    let total = grid.blocks.count();
    let gx = grid.blocks.x as u64;
    let gy = grid.blocks.y as u64;
    // Launch-wide stats sink: every block's context flushes into it on
    // drop (normal or unwinding), and integer adds commute, so the
    // snapshot below is exact and scheduling-independent.
    let sink = AtomicKernelStats::default();
    let _report = LaunchReport {
        name,
        grid,
        device,
        sink: &sink,
        t0: hook::enabled().then(Instant::now),
    };
    pool::par_for_each_index(total as usize, |i| {
        let i = i as u64;
        let block = Dim3 {
            x: (i % gx) as u32,
            y: ((i / gx) % gy) as u32,
            z: (i / (gx * gy)) as u32,
        };
        let mut ctx = BlockCtx::new(block, grid, device, &sink);
        kernel(&mut ctx);
    });
    let stats = sink.snapshot();
    // If this launch was issued from a stream worker, charge its
    // simulated roofline time to that stream's clock (overlap shows up
    // as max-over-streams elapsed time; see `stream::sim_elapsed_ns`).
    crate::stream::note_launch(device, &stats);
    hook::flight(hook::FlightSignal::Launch {
        name,
        stream: crate::stream::current_stream_id(),
        dropped: false,
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::A100;

    #[test]
    fn sectors_spanned_edges() {
        assert_eq!(sectors_spanned(0, 0), 0);
        assert_eq!(sectors_spanned(0, 1), 1);
        assert_eq!(sectors_spanned(0, 32), 1);
        assert_eq!(sectors_spanned(0, 33), 2);
        assert_eq!(sectors_spanned(31, 33), 2);
        assert_eq!(sectors_spanned(32, 64), 1);
    }

    #[test]
    fn launch_covers_all_blocks() {
        let stats = launch(&A100, Grid::new(Dim3::xyz(3, 4, 5), 64), |_ctx| {});
        assert_eq!(stats.blocks, 60);
    }

    #[test]
    fn block_linear_ids_are_unique_and_dense() {
        use std::sync::Mutex;
        let seen = Mutex::new(vec![false; 24]);
        launch(&A100, Grid::new(Dim3::xyz(2, 3, 4), 32), |ctx| {
            let id = ctx.block_linear() as usize;
            let mut s = seen.lock().unwrap();
            assert!(!s[id], "duplicate block id {id}");
            s[id] = true;
        });
        assert!(seen.into_inner().unwrap().iter().all(|&b| b));
    }

    #[test]
    fn coalesced_span_counts_minimal_sectors() {
        let src = vec![1.0f32; 64];
        let stats = launch(&A100, Grid::linear(1, 32), |ctx| {
            let view = GlobalRead::new(&src);
            let mut buf = [0.0f32; 32];
            ctx.read_span(&view, 0, &mut buf);
        });
        // 32 f32 = 128 bytes = 4 sectors.
        assert_eq!(stats.load_sectors, 4);
        assert_eq!(stats.load_bytes, 128);
        assert_eq!(stats.coalescing_efficiency(), 1.0);
    }

    #[test]
    fn strided_gather_is_penalised() {
        let src = vec![0.0f32; 32 * 8];
        let idx: Vec<usize> = (0..32).map(|i| i * 8).collect();
        let stats = launch(&A100, Grid::linear(1, 32), |ctx| {
            let view = GlobalRead::new(&src);
            let mut out = [0.0f32; 32];
            ctx.read_gather(&view, &idx, &mut out);
        });
        // stride-8 f32 = one element per sector.
        assert_eq!(stats.load_sectors, 32);
        assert!(stats.coalescing_efficiency() < 0.2);
    }

    #[test]
    fn read_strided_matches_gather_values_and_accounting() {
        let src: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        for (start, stride, count) in
            [(0usize, 8usize, 32usize), (5, 3, 100), (17, 1, 64), (0, 513, 7), (100, 2, 1), (0, 1, 0)]
        {
            let idx: Vec<usize> = (0..count).map(|k| start + k * stride).collect();
            let gather_stats = launch(&A100, Grid::linear(1, 32), |ctx| {
                let view = GlobalRead::new(&src);
                let mut out = vec![0f32; count];
                ctx.read_gather(&view, &idx, &mut out);
            });
            let strided_stats = launch(&A100, Grid::linear(1, 32), |ctx| {
                let view = GlobalRead::new(&src);
                let mut out = vec![0f32; count];
                ctx.read_strided(&view, start, stride, &mut out);
                let expect: Vec<f32> = idx.iter().map(|&i| src[i]).collect();
                assert_eq!(out, expect);
            });
            assert_eq!(gather_stats, strided_stats, "({start},{stride},{count})");
        }
    }

    #[test]
    fn read_span_2d_matches_gather() {
        let src: Vec<u16> = (0..10_000).map(|i| i as u16).collect();
        for (start, row_len, row_stride, rows) in
            [(0usize, 9usize, 100usize, 9usize), (37, 33, 99, 5), (0, 1, 7, 40), (3, 16, 16, 4)]
        {
            let idx: Vec<usize> = (0..rows)
                .flat_map(|r| (0..row_len).map(move |c| start + r * row_stride + c))
                .collect();
            let gather_stats = launch(&A100, Grid::linear(1, 32), |ctx| {
                let view = GlobalRead::new(&src);
                let mut out = vec![0u16; idx.len()];
                ctx.read_gather(&view, &idx, &mut out);
            });
            let span_stats = launch(&A100, Grid::linear(1, 32), |ctx| {
                let view = GlobalRead::new(&src);
                let mut out = vec![0u16; rows * row_len];
                ctx.read_span_2d(&view, start, row_len, row_stride, rows, &mut out);
                let expect: Vec<u16> = idx.iter().map(|&i| src[i]).collect();
                assert_eq!(out, expect);
            });
            assert_eq!(gather_stats, span_stats, "({start},{row_len},{row_stride},{rows})");
        }
    }

    #[test]
    fn parallel_blocks_write_disjoint_output() {
        let mut out = vec![0u32; 256];
        let stats = {
            let view = GlobalWrite::new_checked(&mut out);
            launch(&A100, Grid::linear(8, 32), |ctx| {
                let b = ctx.block_linear() as usize;
                let vals: Vec<u32> = (0..32).map(|i| (b * 32 + i) as u32).collect();
                ctx.write_span(&view, b * 32, &vals);
            })
        };
        assert_eq!(stats.store_bytes, 1024);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
    }

    #[test]
    #[should_panic(expected = "overlapping global write")]
    fn checked_view_catches_double_writes() {
        let mut out = vec![0u32; 4];
        let view = GlobalWrite::new_checked(&mut out);
        launch(&A100, Grid::linear(2, 32), |ctx| {
            ctx.write_one(&view, 0, 1);
        });
    }

    #[test]
    #[should_panic(expected = "shared memory over-allocation")]
    fn shared_memory_capacity_is_enforced() {
        launch(&A100, Grid::linear(1, 32), |ctx| {
            let _tile = ctx.alloc_shared::<f32>(80 * 1024);
        });
    }

    #[test]
    #[should_panic(expected = "threads_per_block")]
    fn thread_limit_is_enforced() {
        launch(&A100, Grid::linear(1, 2048), |_| {});
    }

    #[test]
    fn atomic_add_accumulates_across_blocks() {
        let counters: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        launch(&A100, Grid::linear(16, 32), |ctx| {
            let view = GlobalAtomicU32::new(&counters);
            ctx.atomic_add(&view, 2, 3);
        });
        assert_eq!(counters[2].load(Ordering::Relaxed), 48);
    }

    #[test]
    fn atomic_add_warp_coalesces_sector_traffic() {
        let counters: Vec<AtomicU32> = (0..256).map(|_| AtomicU32::new(0)).collect();
        // 32 adjacent u32 counters = 4 sectors for the whole warp,
        // where per-call accounting would charge 32.
        let idx: Vec<usize> = (0..32).collect();
        let vals = vec![1u32; 32];
        let stats = launch(&A100, Grid::linear(1, 32), |ctx| {
            let view = GlobalAtomicU32::new(&counters);
            ctx.atomic_add_warp(&view, &idx, &vals);
        });
        assert_eq!(stats.store_sectors, 4);
        assert_eq!(stats.store_bytes, 128);
        for c in &counters[..32] {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
        // Scattered counters still pay one sector per lane.
        let sparse: Vec<usize> = (0..32).map(|i| i * 8).collect();
        let stats = launch(&A100, Grid::linear(1, 32), |ctx| {
            let view = GlobalAtomicU32::new(&counters);
            ctx.atomic_add_warp(&view, &sparse, &vals);
        });
        assert_eq!(stats.store_sectors, 32);
    }

    #[test]
    fn flops_and_barriers_are_recorded() {
        let stats = launch(&A100, Grid::linear(4, 32), |ctx| {
            ctx.add_flops(10);
            ctx.sync();
            ctx.sync();
        });
        assert_eq!(stats.flops, 40);
        assert_eq!(stats.barriers, 8);
    }

    /// Reference implementation of the pre-refactor accounting: collect
    /// sectors per warp into a Vec, sort, dedup. The production path
    /// (fixed stack buffer, no sort) must agree bit-for-bit.
    fn reference_warp_sectors(indices: &[usize], elt_bytes: u64, warp: usize) -> u64 {
        let mut total = 0u64;
        for chunk in indices.chunks(warp) {
            let mut sectors: Vec<u64> =
                chunk.iter().map(|&i| (i as u64 * elt_bytes) / SECTOR_BYTES).collect();
            sectors.sort_unstable();
            sectors.dedup();
            total += sectors.len() as u64;
        }
        total
    }

    #[test]
    fn stack_buffer_accounting_matches_reference_model() {
        // Deterministic pseudo-random index patterns across element
        // sizes: the oracle property for the allocation-free rewrite.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for elt in [1u64, 2, 4, 8] {
            for len in [0usize, 1, 5, 31, 32, 33, 64, 100, 1000] {
                let indices: Vec<usize> =
                    (0..len).map(|_| (next() % 100_000) as usize).collect();
                let expect = reference_warp_sectors(&indices, elt, 32);
                let got = launch(&A100, Grid::linear(1, 32), |ctx| {
                    assert_eq!(ctx.warp_sector_count(&indices, elt), expect, "len {len} elt {elt}");
                });
                let _ = got;
            }
        }
    }

    #[test]
    fn block_slots_compact_in_block_order() {
        let slots = BlockSlots::<u64>::new(64);
        launch(&A100, Grid::linear(64, 32), |ctx| {
            let b = ctx.block_linear();
            if b % 3 == 0 {
                slots.put(b as usize, b * 10);
            }
        });
        let got = slots.into_compact();
        let expect: Vec<u64> = (0..64).filter(|b| b % 3 == 0).map(|b| b * 10).collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "wrote its result slot twice")]
    fn block_slots_reject_double_writes() {
        let slots = BlockSlots::<u32>::new(4);
        slots.put(1, 7);
        slots.put(1, 8);
    }

    #[test]
    fn block_slots_first_is_lowest_block_id() {
        let slots = BlockSlots::<&'static str>::new(8);
        slots.put(5, "five");
        slots.put(2, "two");
        assert_eq!(slots.into_first(), Some("two"));
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use crate::device::A100;
    use crate::hook;
    use std::sync::Mutex;

    struct Capture;
    static RECORDS: Mutex<Vec<(String, KernelStats, bool)>> = Mutex::new(Vec::new());

    impl hook::LaunchObserver for Capture {
        fn on_launch(&self, rec: &hook::LaunchRecord<'_>) {
            RECORDS.lock().unwrap().push((rec.name.to_string(), rec.stats, rec.completed));
        }
    }

    /// One test drives both the happy path and the unwind path: the
    /// observer is a process-global OnceLock, so splitting these into
    /// separate #[test]s would race on enable/disable.
    #[test]
    fn observer_sees_completed_and_unwound_launches() {
        hook::set_observer(Box::new(Capture));
        hook::enable(true);

        launch_named(&A100, Grid::linear(4, 32), "obs-normal", |ctx| {
            ctx.add_flops(5);
        });

        // A panicking kernel: blocks that ran must still be accounted
        // (BlockCtx flushes from its drop guard) and the report must
        // fire from the launch's own drop guard with completed=false.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::pool::with_threads(1, || {
                launch_named(&A100, Grid::linear(8, 32), "obs-panic", |ctx| {
                    ctx.add_flops(1);
                    if ctx.block_linear() == 3 {
                        panic!("kernel abort");
                    }
                });
            })
        }));
        hook::enable(false);
        assert!(result.is_err());

        let records = RECORDS.lock().unwrap();
        let normal = records.iter().find(|r| r.0 == "obs-normal").expect("normal record");
        assert_eq!(normal.1.blocks, 4);
        assert_eq!(normal.1.flops, 20);
        assert!(normal.2, "completed launch reports completed=true");

        let panicked = records.iter().find(|r| r.0 == "obs-panic").expect("panic record");
        // Serial execution: blocks 0..=3 started, all four flushed their
        // stats (block 3 partially, before its panic point).
        assert_eq!(panicked.1.blocks, 4);
        assert_eq!(panicked.1.flops, 4);
        assert!(!panicked.2, "unwound launch reports completed=false");
    }
}

#[cfg(test)]
mod rw_view_tests {
    use super::*;
    use crate::device::A100;

    #[test]
    fn read_span_rw_sees_prior_writes() {
        let mut buf = vec![0i32; 64];
        {
            let view = GlobalWrite::new(&mut buf);
            launch(&A100, Grid::linear(1, 32), |ctx| {
                ctx.write_span(&view, 0, &[7i32; 16]);
                let mut back = [0i32; 16];
                ctx.read_span_rw(&view, 0, &mut back);
                assert_eq!(back, [7i32; 16]);
                // In-place scan pattern: read, transform, rewrite.
                let doubled: Vec<i32> = back.iter().map(|v| v * 2).collect();
                ctx.write_span(&view, 0, &doubled);
            });
        }
        assert_eq!(buf[..16], [14i32; 16]);
    }

    #[test]
    fn read_gather_rw_counts_coalescing_like_read_gather() {
        let mut buf = vec![0f32; 32 * 8];
        let idx_strided: Vec<usize> = (0..32).map(|i| i * 8).collect();
        let idx_dense: Vec<usize> = (0..32).collect();
        let stats = {
            let view = GlobalWrite::new(&mut buf);
            launch(&A100, Grid::linear(1, 32), |ctx| {
                let mut out = [0f32; 32];
                ctx.read_gather_rw(&view, &idx_strided, &mut out);
                ctx.read_gather_rw(&view, &idx_dense, &mut out);
            })
        };
        // strided: 32 sectors; dense: 4 sectors.
        assert_eq!(stats.load_sectors, 36);
        assert_eq!(stats.load_bytes, 2 * 32 * 4);
    }

    #[test]
    #[should_panic(expected = "global read out of bounds")]
    fn rw_reads_are_bounds_checked() {
        let mut buf = vec![0u8; 4];
        let view = GlobalWrite::new(&mut buf);
        launch(&A100, Grid::linear(1, 32), |ctx| {
            let mut out = [0u8; 2];
            ctx.read_span_rw(&view, 3, &mut out);
        });
    }

    #[test]
    fn write_scatter_counts_warp_sectors() {
        let mut buf = vec![0u64; 256];
        let idx: Vec<usize> = (0..32).map(|i| i * 4).collect(); // u64 stride 4 = 32B
        let stats = {
            let view = GlobalWrite::new(&mut buf);
            launch(&A100, Grid::linear(1, 32), |ctx| {
                let vals = [9u64; 32];
                ctx.write_scatter(&view, &idx, &vals);
            })
        };
        assert_eq!(stats.store_sectors, 32); // one element per sector
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, if i % 4 == 0 && i < 128 { 9 } else { 0 });
        }
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::device::A100;
    use crate::pool;

    /// The executor must produce identical outputs and stats regardless
    /// of worker-thread count — the archives (and therefore the figure
    /// regenerators) depend on it.
    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| -> (Vec<u32>, KernelStats) {
            pool::with_threads(threads, || {
                let mut out = vec![0u32; 1024];
                let stats = {
                    let dst = GlobalWrite::new(&mut out);
                    launch(&A100, Grid::linear(32, 64), |ctx| {
                        let b = ctx.block_linear() as usize;
                        let vals: Vec<u32> =
                            (0..32).map(|i| (b * 1000 + i * 7) as u32).collect();
                        ctx.write_span(&dst, b * 32, &vals);
                        ctx.add_flops(b as u64);
                        ctx.sync();
                    })
                };
                (out, stats)
            })
        };
        let (o1, s1) = run(1);
        let (o8, s8) = run(8);
        assert_eq!(o1, o8);
        assert_eq!(s1, s8);
    }

    /// Same guarantee for the per-block slot funnel replacement: the
    /// compacted result list is scheduling-independent.
    #[test]
    fn block_slots_identical_across_thread_counts() {
        let run = |threads: usize| -> Vec<(usize, Vec<u8>)> {
            pool::with_threads(threads, || {
                let slots = BlockSlots::<Vec<u8>>::new(96);
                launch(&A100, Grid::linear(96, 32), |ctx| {
                    let b = ctx.block_linear() as usize;
                    if b % 5 != 4 {
                        slots.put(b, vec![b as u8; b % 7 + 1]);
                    }
                });
                slots.into_indexed()
            })
        };
        assert_eq!(run(1), run(8));
    }
}
