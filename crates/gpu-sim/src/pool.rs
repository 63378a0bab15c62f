//! Host-side parallel execution for kernel launches.
//!
//! Replaces the former rayon pool with a std-only executor. Work items
//! (thread blocks, batch fields) are dealt to worker threads through an
//! atomic counter; each worker folds its items into a private
//! accumulator, and per-item *outputs* never flow through the reduction
//! at all — kernels write them into disjoint per-block slots
//! ([`crate::exec::BlockSlots`] / [`crate::GlobalWrite`]), which makes
//! results independent of scheduling order *by construction*. The only
//! values merged across workers are [`crate::KernelStats`]-style integer
//! counters, whose addition is exact and commutative, so stats too are
//! identical for any thread count or interleaving.
//!
//! Thread count: the innermost [`with_threads`] scope, else
//! `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads the next launch on this thread will use.
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(|c| c.get());
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
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
