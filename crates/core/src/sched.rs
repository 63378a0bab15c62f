//! The executor: every container operation — batch fields or z-slabs,
//! compress or decompress, on one device or several — is one host loop
//! over a [`ShardPlan`]'s devices × streams.
//!
//! One host thread produces items in index order and deals item `i` to
//! device `i % M`, stream `(i / M) % N` of that device. Several jobs in
//! flight pipeline their host-serial stages (CPU codebook build,
//! payload assembly, tuning): field B predicts while field A builds its
//! codebook — the classic CUDA multi-stream overlap pattern, reproduced
//! on the simulated device.
//!
//! Three invariants the executor keeps:
//!
//! 1. **Byte identity.** gpu-sim kernels are deterministic for any
//!    worker count, every stage of one job stays on one stream (so
//!    job-internal order is program order), and results reach the sink
//!    in index order, never completion order. Containers are therefore
//!    byte-identical for any plan — the scheduler-determinism test in
//!    `tests/` pins this on all six datasets.
//! 2. **Bounded memory.** Before producing item `i`, the host waits on
//!    item `i − M·N`'s event and hands that item's result to the sink.
//!    Both items sit on the same in-order stream, so the wait changes
//!    nothing about what executes when; it only caps the live items at
//!    `M·N`.
//! 3. **Bounded oversubscription.** Each job's kernels are themselves
//!    block-parallel over [`cuszi_gpu_sim::pool`] workers. Every job
//!    gets `threads / (M·N)` of them, so a plan uses ~one machine's
//!    worth of threads, not `M·N`.

use std::sync::{Mutex, PoisonError};

use cuszi_gpu_sim::{Event, Stream};
use cuszi_transfer::Topology;

use crate::error::{CuszError, StageFaultKind};
use crate::shard::{DeviceShardReport, ShardPlan, ShardReport};

/// Per-run scheduling evidence: one simulated-time clock per stream.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// Number of streams the run was scheduled on.
    pub streams: usize,
    /// Final simulated clock of each stream, ns (back-to-back kernel
    /// time issued on that stream).
    pub per_stream_sim_ns: Vec<u64>,
}

impl ScheduleReport {
    /// Simulated wall-clock of the overlapped run: the slowest stream.
    pub fn sim_elapsed_ns(&self) -> u64 {
        self.per_stream_sim_ns.iter().copied().max().unwrap_or(0)
    }

    /// Simulated cost if every kernel had been issued on one stream.
    pub fn sim_serial_ns(&self) -> u64 {
        self.per_stream_sim_ns.iter().sum()
    }

    /// Overlap win in simulated time: serial / elapsed (1.0 = none).
    pub fn overlap_speedup(&self) -> f64 {
        let elapsed = self.sim_elapsed_ns();
        if elapsed == 0 {
            return 1.0;
        }
        self.sim_serial_ns() as f64 / elapsed as f64
    }
}

/// The stream count used when the caller doesn't pick one:
/// `min(cores, 4)`. Four streams is where the overlap win saturates —
/// per-job serial stages are a minority of the pipeline, so more
/// streams mostly split the worker budget thinner.
pub fn default_streams() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
}

/// Run `count` jobs on the plan's devices × streams and report every
/// device's stream clocks, output bytes and modelled gather cost.
///
/// `produce(i)` runs on the host thread in index order, at most
/// `devices × streams` items ahead of the sink; `run` executes an item
/// on its stream; `sink(i, result)` receives every result on the host
/// thread in index order, and `size_of` prices an output's gather to
/// device 0. Every job runs, but once `sink` returns an error it is not
/// called again and that error is returned — the first error in index
/// order wins. A job its stream dropped unrun (a poisoned stream)
/// reaches the sink as a typed `StreamPoisoned` error at stage
/// `schedule`, with a flight dump. On a multi-device plan, stage errors
/// name their device (`"device N: ..."`).
pub fn execute<T: Send, U: Send>(
    plan: &ShardPlan,
    count: usize,
    mut produce: impl FnMut(usize) -> T,
    run: impl Fn(T) -> Result<U, CuszError> + Sync,
    size_of: impl Fn(&U) -> u64,
    mut sink: impl FnMut(usize, Result<U, CuszError>) -> Result<(), CuszError>,
) -> Result<ShardReport, CuszError> {
    plan.validate()?;
    // Install the flight hook before streams are created so the
    // create/sync/poison events of this schedule are journaled.
    crate::telemetry::init();
    let m = plan.devices;
    // Device 0 holds the most items; never open more streams than it uses.
    let n = plan.streams_per_device.clamp(1, count.div_ceil(m).max(1));
    let window = m * n;
    let workers = (cuszi_gpu_sim::pool::current_threads() / window).max(1);
    let slots: Vec<Mutex<Option<Result<U, CuszError>>>> =
        (0..window).map(|_| Mutex::new(None)).collect();
    let mut bytes = vec![0u64; m];
    let mut failed = None;
    let mut finish = |i: usize, done: Event| {
        done.synchronize();
        let r = slots[i % window].lock().unwrap_or_else(PoisonError::into_inner).take();
        // An empty slot means the stream drained this job without
        // running it. The job never entered the pipeline, so no per-job
        // dump exists; write one here so scheduler drops leave one too.
        let mut r = r.unwrap_or_else(|| {
            let e = CuszError::StageError {
                stage: "schedule",
                kind: StageFaultKind::StreamPoisoned,
                site: "job slot never filled".to_string(),
            };
            crate::telemetry::dump(&e);
            Err(e)
        });
        match &mut r {
            Ok(out) => bytes[i % m] += size_of(out),
            Err(CuszError::StageError { site, .. }) if m > 1 => {
                *site = format!("device {}: {site}", i % m);
            }
            Err(_) => {}
        }
        if failed.is_none() {
            failed = sink(i, r).err();
        }
    };
    let schedules: Vec<ScheduleReport> = with_device_streams(m, n, Vec::new(), |devices| {
        let mut events: Vec<Option<Event>> = (0..window).map(|_| None).collect();
        for i in 0..count {
            if let Some(done) = events[i % window].take() {
                finish(i - window, done);
            }
            let item = produce(i);
            let (slot, run) = (&slots[i % window], &run);
            let stream = &devices[i % m][(i / m) % n];
            stream.submit(move || {
                let r = cuszi_gpu_sim::pool::with_threads(workers, || run(item));
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
            events[i % window] = Some(stream.record());
        }
        for i in count.saturating_sub(window)..count {
            if let Some(done) = events[i % window].take() {
                finish(i, done);
            }
        }
        devices
            .iter()
            .map(|streams| {
                for s in streams.iter() {
                    // A poisoned stream reports here; its jobs were
                    // already typed above.
                    let _ = s.synchronize();
                }
                let per_stream_sim_ns = streams.iter().map(|s| s.sim_time_ns()).collect();
                ScheduleReport { streams: n, per_stream_sim_ns }
            })
            .collect()
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let topo = Topology::uniform(m, plan.link);
    let per_device = schedules
        .into_iter()
        .zip(bytes)
        .enumerate()
        .map(|(device, (schedule, archive_bytes))| DeviceShardReport {
            device,
            jobs: count / m + usize::from(device < count % m),
            schedule,
            archive_bytes,
            transfer_ns: (topo.gather_s(device, archive_bytes) * 1e9).round() as u64,
        })
        .collect();
    Ok(ShardReport { devices: m, streams_per_device: plan.streams_per_device, per_device })
}

/// Open `n` streams on each of `m` devices and run `f` over the sets.
/// Stream ids stay `0..n` per device, so `dev<d>.stream-<i>` names the
/// same stream at any plan; a one-device plan keeps the caller's
/// device binding.
fn with_device_streams<'env, R>(
    m: usize,
    n: usize,
    opened: Vec<&[Stream<'env>]>,
    f: impl FnOnce(&[&[Stream<'env>]]) -> R,
) -> R {
    let d = opened.len();
    if d == m {
        return f(&opened);
    }
    let device = if m == 1 { cuszi_gpu_sim::current_device() } else { d };
    cuszi_gpu_sim::on_device(device, || {
        cuszi_gpu_sim::with_streams(n, |streams| {
            let mut opened: Vec<&[Stream<'env>]> = opened;
            opened.push(streams);
            with_device_streams(m, n, opened, f)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_transfer::LinkClass;

    fn plan(devices: usize, streams: usize) -> ShardPlan {
        ShardPlan { devices, streams_per_device: streams, link: LinkClass::NvLink }
    }

    /// Run `count` infallible jobs and collect every output in sink order.
    fn collect<U: Send>(
        p: ShardPlan,
        count: usize,
        f: impl Fn(usize) -> Result<U, CuszError> + Sync,
    ) -> (Vec<(usize, U)>, Vec<ScheduleReport>) {
        let mut got = Vec::new();
        let reports = execute(
            &p,
            count,
            |i| i,
            f,
            |_| 0,
            |i, r| {
                got.push((i, r?));
                Ok(())
            },
        )
        .unwrap();
        (got, reports.per_device.into_iter().map(|d| d.schedule).collect())
    }

    #[test]
    fn results_come_back_in_item_order() {
        for (m, n) in [(1, 1), (1, 3), (1, 8), (2, 3), (4, 1)] {
            let (got, reports) = collect(plan(m, n), 23, |i| Ok(i * 10));
            let want: Vec<usize> = (0..23).collect();
            assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), want);
            for (i, out) in got {
                assert_eq!(out, i * 10);
            }
            assert_eq!(reports.len(), m);
            for r in &reports {
                assert_eq!(r.streams, n.min(23usize.div_ceil(m)));
                assert_eq!(r.per_stream_sim_ns.len(), r.streams);
            }
        }
    }

    #[test]
    fn first_sink_error_wins_but_every_job_runs() {
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let mut sunk = Vec::new();
        let err = execute(
            &plan(2, 2),
            9,
            |i| i,
            |i| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i % 3 == 2 {
                    Err(CuszError::InvalidConfig("odd"))
                } else {
                    Ok(i)
                }
            },
            |_| 0,
            |i, r| {
                sunk.push(i);
                r.map(drop)
            },
        )
        .unwrap_err();
        assert_eq!(err, CuszError::InvalidConfig("odd"));
        assert_eq!(sunk, vec![0, 1, 2], "the sink stops at the first error");
        assert_eq!(ran.into_inner(), 9, "every job still runs");
    }

    #[test]
    fn items_are_dealt_to_device_then_stream() {
        use cuszi_gpu_sim::{current_device, stream::current_stream_id};
        for (m, n) in [(1, 3), (2, 2), (2, 3), (4, 1)] {
            let (got, _) = collect(plan(m, n), 17, |_| Ok((current_device(), current_stream_id())));
            for (i, (device, stream)) in got {
                assert_eq!(device, i % m, "plan {m}x{n}: item {i} device");
                assert_eq!(stream, Some(((i / m) % n) as u32), "plan {m}x{n}: item {i} stream");
            }
        }
    }

    #[test]
    fn each_job_gets_its_share_of_the_worker_budget() {
        use cuszi_gpu_sim::pool::{current_threads, with_threads};
        for (threads, m, n, want) in [(8, 2, 2, 2), (8, 1, 3, 2), (8, 4, 1, 2), (1, 4, 1, 1)] {
            let (got, _) =
                with_threads(threads, || collect(plan(m, n), 9, |_| Ok(current_threads())));
            for (i, workers) in got {
                assert_eq!(workers, want, "{threads} threads, plan {m}x{n}: item {i}");
            }
        }
    }

    #[test]
    fn one_device_plan_keeps_the_callers_device_binding() {
        use cuszi_gpu_sim::{current_device, on_device};
        let (got, _) = on_device(3, || collect(plan(1, 2), 5, |_| Ok(current_device())));
        assert!(got.iter().all(|&(_, d)| d == 3), "{got:?}");
        // A multi-device plan deals over its own ids, whatever the caller's.
        let (got, _) = on_device(3, || collect(plan(2, 1), 4, |_| Ok(current_device())));
        assert!(got.iter().all(|&(i, d)| d == i % 2), "{got:?}");
    }

    #[test]
    fn stage_errors_name_their_device_only_on_multi_device_plans() {
        let failing = |m: usize, n: usize| {
            execute(
                &plan(m, n),
                6,
                |i| i,
                |i| match i {
                    3 => Err(CuszError::StageError {
                        stage: "predict-quant",
                        kind: StageFaultKind::LaunchFailed,
                        site: "g-interp".to_string(),
                    }),
                    _ => Ok(i),
                },
                |_| 0,
                |_, r| r.map(drop),
            )
            .unwrap_err()
        };
        for (m, n, site) in
            [(1, 2, "g-interp"), (2, 2, "device 1: g-interp"), (4, 1, "device 3: g-interp")]
        {
            let want = CuszError::StageError {
                stage: "predict-quant",
                kind: StageFaultKind::LaunchFailed,
                site: site.to_string(),
            };
            assert_eq!(failing(m, n), want, "plan {m}x{n}");
        }
    }

    #[test]
    fn report_prices_each_devices_output_and_gather() {
        let report = execute(
            &plan(3, 2),
            7,
            |i| i,
            |i| Ok(i as u64 + 1),
            |&mib| mib << 20,
            |i, r| {
                assert_eq!(r?, i as u64 + 1);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!((report.devices, report.streams_per_device), (3, 2));
        let jobs: Vec<usize> = report.per_device.iter().map(|d| d.jobs).collect();
        let mib: Vec<u64> = report.per_device.iter().map(|d| d.archive_bytes >> 20).collect();
        assert_eq!(jobs, vec![3, 2, 2]);
        // Device d holds items d, d + 3, ...; item i prices at i + 1 MiB.
        assert_eq!(mib, vec![1 + 4 + 7, 2 + 5, 3 + 6]);
        assert_eq!(report.per_device[0].transfer_ns, 0, "device 0 gathers locally");
        assert!(report.per_device[1..].iter().all(|d| d.transfer_ns > 0));
        assert!(report.per_device.iter().enumerate().all(|(i, d)| d.device == i));
    }

    #[test]
    fn live_items_never_exceed_devices_times_streams() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for (m, n) in [(1, 1), (1, 4), (2, 2), (4, 1)] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let mut sunk = 0;
            execute(
                &plan(m, n),
                37,
                |i| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    i
                },
                Ok,
                |_| 0,
                |i, r| {
                    assert_eq!(r.unwrap(), i);
                    live.fetch_sub(1, Ordering::SeqCst);
                    sunk += 1;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(sunk, 37);
            assert_eq!(live.into_inner(), 0);
            let peak = peak.into_inner();
            assert!(peak <= m * n, "plan {m}x{n}: {peak} live items");
            assert_eq!(peak, m * n, "plan {m}x{n}: the window should fill");
        }
    }

    #[test]
    fn stream_count_is_clamped_and_empty_is_fine() {
        let (got, reports) = collect(plan(1, 4), 0, Ok);
        assert!(got.is_empty());
        assert_eq!(reports[0].streams, 1);
        assert_eq!(reports[0].overlap_speedup(), 1.0);

        let (_, reports) = collect(plan(1, 16), 2, Ok);
        assert_eq!(reports[0].streams, 2);
        assert!(execute(&plan(0, 1), 1, |i| i, Ok, |_| 0, |_, _| Ok(())).is_err());
    }

    #[test]
    fn default_streams_is_the_core_count_capped_at_four() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(default_streams(), cores.min(4));
    }

    #[test]
    fn launches_on_jobs_land_on_distinct_stream_clocks() {
        use cuszi_gpu_sim::{launch_named, Grid, A100};
        let (_, reports) = collect(plan(1, 2), 4, |_| {
            launch_named(&A100, Grid::linear(4, 32), "sched-test-kernel", |ctx| {
                ctx.add_flops(1000);
            });
            Ok(())
        });
        let report = &reports[0];
        assert_eq!(report.per_stream_sim_ns.len(), 2);
        // Both streams issued kernels, so both clocks advanced and the
        // overlapped elapsed time beats the serial sum.
        assert!(report.per_stream_sim_ns.iter().all(|&t| t > 0));
        assert!(report.sim_elapsed_ns() < report.sim_serial_ns());
        assert!(report.overlap_speedup() > 1.0);
    }
}
