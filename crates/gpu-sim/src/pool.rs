//! Host-side parallel execution for kernel launches.
//!
//! Replaces the former rayon pool with a std-only executor. Work items
//! (thread blocks, batch fields, dataset planes) are dealt to worker
//! threads through an atomic counter; each worker folds its items into
//! a private accumulator, and per-item *outputs* never flow through the
//! reduction at all — kernels write them into disjoint per-block slots
//! ([`crate::exec::BlockSlots`] / [`crate::GlobalWrite`]), which makes
//! results independent of scheduling order *by construction*. The only
//! values merged across workers are [`crate::KernelStats`]-style integer
//! counters, whose addition is exact and commutative, so stats too are
//! identical for any thread count or interleaving.
//!
//! Thread count: the innermost [`with_threads`] scope, else the
//! process's [`cores`].

use std::cell::Cell;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// `std::thread::available_parallelism()`, read once per process: the
/// call reads cgroup files (tens of µs), which every launch outside a
/// [`with_threads`] scope would otherwise pay.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Number of worker threads the next launch on this thread will use.
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(|c| c.get());
    if forced > 0 {
        return forced;
    }
    cores()
}

/// Run `f` with launches on this thread pinned to `n` worker threads
/// (the determinism tests run the same launch at 1 and N threads).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be positive");
    let prev = THREAD_OVERRIDE.with(|c| c.replace(n));
    let out = f();
    THREAD_OVERRIDE.with(|c| c.set(prev));
    out
}

/// Execute `f(i)` for every `i in 0..n` across the worker pool. Items are
/// dealt dynamically (atomic counter), so callers must make `f`'s side
/// effects disjoint per item — the same contract CUDA kernels have.
pub fn par_for_each_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    fold_indexed(n, || (), |(), i| f(i), |(), ()| ());
}

/// Fold `0..n` into per-worker accumulators (`make` one per worker,
/// `fold` per item) and combine them with `merge`. Deterministic iff
/// `merge`/`fold` are commutative+associative over items — true for the
/// integer counters this crate reduces.
pub fn fold_indexed<A, MK, F, MG>(n: usize, make: MK, fold: F, merge: MG) -> A
where
    A: Send,
    MK: Fn() -> A + Sync,
    F: Fn(A, usize) -> A + Sync,
    MG: Fn(A, A) -> A,
{
    let threads = current_threads().min(n.max(1));
    if threads <= 1 {
        let mut acc = make();
        for i in 0..n {
            acc = fold(acc, i);
        }
        return acc;
    }
    let next = AtomicUsize::new(0);
    let worker = |_w: usize| {
        let mut acc = make();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            acc = fold(acc, i);
        }
        acc
    };
    // Forward the caller's device binding: allocations and fault checks
    // inside kernel bodies must attribute to the launching device.
    let dev = crate::multi::current_device();
    let mut parts = std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|w| s.spawn(move || crate::multi::on_device(dev, || worker(w))))
            .collect();
        // Re-raise a worker's panic with its own payload, so a kernel
        // body's message reaches the launch's caller (and the flight
        // recorder) exactly as it does on the inline single-thread path.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect::<Vec<A>>()
    });
    let mut acc = parts.remove(0);
    for p in parts {
        acc = merge(acc, p);
    }
    acc
}

/// Map `f` over `items` in parallel, returning results in item order
/// regardless of scheduling (each result lands in its own slot).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    struct Slot<U>(UnsafeCell<Option<U>>);
    // SAFETY: each index is claimed exactly once by the atomic deal in
    // `par_for_each_index`, so no slot is written concurrently, and the
    // scope join orders all writes before the collection below.
    unsafe impl<U: Send> Sync for Slot<U> {}

    let slots: Vec<Slot<U>> = (0..items.len()).map(|_| Slot(UnsafeCell::new(None))).collect();
    par_for_each_index(items.len(), |i| {
        let v = f(&items[i]);
        unsafe { *slots[i].0.get() = Some(v) };
    });
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("worker skipped an item"))
        .collect()
}

/// Run `f(i, chunk)` for every `chunk_len`-element chunk of `data` (the
/// last one may be shorter) across the worker pool. Each chunk is one
/// work item written by exactly one worker, so results cannot depend on
/// the thread count; with one thread the chunks run inline, in order.
/// Nothing is allocated per chunk.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let n = data.len().div_ceil(chunk_len);
    // Workers take the next chunk under the lock and fill it outside it.
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    par_for_each_index(n, |_| {
        let next = chunks.lock().unwrap_or_else(PoisonError::into_inner).next();
        let (i, chunk) = next.expect("one chunk per dealt item");
        f(i, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fold_matches_serial_sum() {
        let serial: u64 = (0..10_000u64).map(|i| i * 3).sum();
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || {
                fold_indexed(10_000, || 0u64, |a, i| a + i as u64 * 3, |a, b| a + b)
            });
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..999).collect();
        let out = with_threads(7, || par_map(&items, |&i| i * i));
        assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        with_threads(4, || {
            par_for_each_index(500, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        for threads in [2, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    par_for_each_index(64, |i| assert!(i != 40, "kernel body failed at item {i}"))
                })
            });
            let payload = caught.expect_err("the item panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
            assert_eq!(msg, "kernel body failed at item 40", "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        for threads in [1, 2, 5] {
            // 103 = 10 full chunks of 10 and a short last chunk of 3.
            let mut data = vec![0u32; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 10, |i, chunk| {
                    let want = if i == 10 { 3 } else { 10 };
                    assert_eq!(chunk.len(), want, "chunk {i}");
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v += (i * 10 + j) as u32 + 1;
                    }
                })
            });
            let want: Vec<u32> = (1..=103).collect();
            assert_eq!(data, want, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_runs_inline_in_order_at_one_thread() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let mut data = [0u8; 7];
        with_threads(1, || {
            par_chunks_mut(&mut data, 2, |i, _| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(i);
            })
        });
        assert_eq!(order.into_inner().unwrap(), [0, 1, 2, 3]);
    }

    #[test]
    fn par_chunks_mut_worker_panic_keeps_its_message() {
        for threads in [2, 4] {
            let mut data = vec![0f32; 64 * 3];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_threads(threads, || {
                    par_chunks_mut(&mut data, 3, |i, _| {
                        assert!(i != 40, "plane fill failed at chunk {i}")
                    })
                })
            }));
            let payload = caught.expect_err("the chunk panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
            assert_eq!(msg, "plane fill failed at chunk 40", "threads={threads}");
        }
    }

    #[test]
    fn current_threads_outside_any_scope_is_the_core_count() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(current_threads(), cores);
        with_threads(2, || assert_eq!(current_threads(), 2));
        assert_eq!(current_threads(), cores, "leaving the scope restores the default");
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
    }
}
