//! Host-side parallel execution for kernel launches.
//!
//! One primitive, [`for_each_index`], runs every parallel loop: work
//! items (thread blocks, dataset planes) are dealt to worker threads
//! through an atomic counter; each worker keeps a private state across
//! its items, and per-item *outputs* never flow through that state at
//! all — kernels write them into disjoint per-block slots
//! ([`crate::exec::BlockSlots`] / [`crate::GlobalWrite`]), which makes
//! results independent of scheduling order *by construction*. The only
//! values merged across workers are [`crate::KernelStats`]-style integer
//! counters, whose addition is exact and commutative, so stats too are
//! identical for any thread count or interleaving.
//!
//! Thread count: the innermost [`with_threads`] scope, else the
//! process's [`cores`].

use std::cell::Cell;
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

/// Run `item(&mut state, i)` for every `i in 0..n` across the worker
/// pool. Items are dealt dynamically (atomic counter), so callers must
/// make the items' side effects disjoint — the same contract CUDA
/// kernels have.
///
/// Each worker makes its own `state` with `worker()` on its own thread
/// and drops it there after its last item, also while a panicking item
/// unwinds, so a state's `Drop` is the place to flush per-worker
/// totals. With one thread, one state is made on the caller's thread
/// and the items run inline, in order. A worker's panic reaches the
/// caller with its own payload.
pub fn for_each_index<S, W, F>(n: usize, worker: W, item: F)
where
    W: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let threads = current_threads().min(n.max(1));
    if threads <= 1 {
        let mut state = worker();
        for i in 0..n {
            item(&mut state, i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let run = || {
        let mut state = worker();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            item(&mut state, i);
        }
    };
    // Forward the caller's device binding: allocations and fault checks
    // inside kernel bodies must attribute to the launching device.
    let dev = crate::multi::current_device();
    std::thread::scope(|s| {
        let run = &run;
        let handles: Vec<_> =
            (0..threads).map(|_| s.spawn(move || crate::multi::on_device(dev, run))).collect();
        // Re-raise a worker's panic with its own payload, so a kernel
        // body's message reaches the launch's caller (and the flight
        // recorder) exactly as it does on the inline single-thread path.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
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
    for_each_index(n, || (), |(), _| {
        let next = chunks.lock().unwrap_or_else(PoisonError::into_inner).next();
        let (i, chunk) = next.expect("one chunk per dealt item");
        f(i, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    /// A per-worker partial sum that flushes into a shared total when
    /// it drops.
    struct PartialSum<'a> {
        sum: u64,
        total: &'a AtomicU64,
    }

    impl Drop for PartialSum<'_> {
        fn drop(&mut self) {
            self.total.fetch_add(self.sum, Ordering::Relaxed);
        }
    }

    #[test]
    fn fold_matches_serial_sum() {
        let serial: u64 = (0..10_000u64).map(|i| i * 3).sum();
        for threads in [1, 2, 8] {
            let total = AtomicU64::new(0);
            with_threads(threads, || {
                for_each_index(
                    10_000,
                    || PartialSum { sum: 0, total: &total },
                    |p, i| p.sum += i as u64 * 3,
                )
            });
            assert_eq!(total.into_inner(), serial, "threads={threads}");
        }
    }

    /// Records the thread that made each worker state and, per drop,
    /// `(maker, dropper)`.
    struct Tracked<'a> {
        maker: ThreadId,
        drops: &'a Mutex<Vec<(ThreadId, ThreadId)>>,
    }

    impl<'a> Tracked<'a> {
        fn new(made: &Mutex<Vec<ThreadId>>, drops: &'a Mutex<Vec<(ThreadId, ThreadId)>>) -> Self {
            let maker = std::thread::current().id();
            made.lock().unwrap().push(maker);
            Tracked { maker, drops }
        }
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            let pair = (self.maker, std::thread::current().id());
            self.drops.lock().unwrap_or_else(PoisonError::into_inner).push(pair);
        }
    }

    #[test]
    fn worker_states_live_and_die_on_worker_threads() {
        let caller = std::thread::current().id();
        for threads in [2, 4] {
            for panic_at in [None, Some(17)] {
                let made = Mutex::new(Vec::new());
                let drops = Mutex::new(Vec::new());
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    with_threads(threads, || {
                        for_each_index(
                            64,
                            || Tracked::new(&made, &drops),
                            |_, i| assert!(Some(i) != panic_at, "item {i} failed"),
                        )
                    })
                }));
                assert_eq!(run.is_err(), panic_at.is_some(), "threads={threads}");
                let made = made.into_inner().unwrap();
                let drops = drops.into_inner().unwrap();
                let case = format!("threads={threads} panic_at={panic_at:?}");
                assert!((1..=threads).contains(&made.len()), "{case}: {} states", made.len());
                assert!(!made.contains(&caller), "{case}: a state was made on the caller");
                assert_eq!(drops.len(), made.len(), "{case}: drops != states");
                for m in &made {
                    let n = drops.iter().filter(|(d, _)| d == m).count();
                    assert_eq!(n, 1, "{case}: a state dropped {n} times");
                }
                assert!(drops.iter().all(|(m, d)| m == d), "{case}: dropped off its thread");
            }
        }
    }

    #[test]
    fn one_thread_makes_one_state_on_the_caller() {
        let caller = std::thread::current().id();
        let made = Mutex::new(Vec::new());
        let drops = Mutex::new(Vec::new());
        let order = Mutex::new(Vec::new());
        with_threads(1, || {
            for_each_index(5, || Tracked::new(&made, &drops), |_, i| order.lock().unwrap().push(i))
        });
        assert_eq!(made.into_inner().unwrap(), [caller]);
        assert_eq!(drops.into_inner().unwrap(), [(caller, caller)]);
        assert_eq!(order.into_inner().unwrap(), [0, 1, 2, 3, 4], "inline, in order");
    }

    #[test]
    fn zero_items_run_no_item() {
        for threads in [1, 4] {
            let made = Mutex::new(Vec::new());
            let drops = Mutex::new(Vec::new());
            let items = AtomicU64::new(0);
            with_threads(threads, || {
                for_each_index(
                    0,
                    || Tracked::new(&made, &drops),
                    |_, _| {
                        items.fetch_add(1, Ordering::Relaxed);
                    },
                )
            });
            assert_eq!(items.into_inner(), 0, "threads={threads}");
            let made = made.into_inner().unwrap();
            assert!(made.len() <= 1, "threads={threads}: {} states", made.len());
            assert_eq!(drops.into_inner().unwrap().len(), made.len(), "threads={threads}");
        }
    }

    #[test]
    fn fewer_items_than_threads_cap_the_states() {
        let made = Mutex::new(Vec::new());
        let drops = Mutex::new(Vec::new());
        let counts: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        with_threads(8, || {
            for_each_index(
                3,
                || Tracked::new(&made, &drops),
                |_, i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                },
            )
        });
        let made = made.into_inner().unwrap();
        assert!((1..=3).contains(&made.len()), "{} states for 3 items", made.len());
        assert_eq!(drops.into_inner().unwrap().len(), made.len());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        with_threads(4, || {
            for_each_index(
                500,
                || (),
                |(), i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                },
            )
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        for threads in [2, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    for_each_index(64, || (), |(), i| {
                        assert!(i != 40, "kernel body failed at item {i}")
                    })
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
