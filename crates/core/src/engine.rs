//! A multi-tenant compression engine: the one-shot [`CuszI`] pipeline
//! lifted into a shared, long-lived service.
//!
//! The engine owns two pieces of cross-request state that a one-shot
//! call cannot amortize:
//!
//! 1. **An admission controller** — one FIFO per tenant; per-tenant
//!    token buckets pick the next job by *highest balance* (deficit
//!    fairness: a heavy tenant's balance goes negative, so a light
//!    tenant wins every contended dispatch and starvation is bounded),
//!    with a global queue cap (`QUEUE_CAP`) + ≤N-in-flight
//!    backpressure.
//! 2. **Scoped observability** — each job runs under the engine's
//!    [`Registry`] scope (see `cuszi_profile::scope`), which the serve
//!    stats frame renders, and under a flight-recorder job scope so
//!    fault dumps carry the job/tenant id.
//!
//! A job runs exactly what a one-shot caller runs —
//! `CuszI::new(cfg).compress(&data)` or `.decompress(&bytes)` — so every
//! engine archive is byte-identical to [`CuszI::compress`]'s. Nothing is
//! reused across requests: each field's codebook is built from its own
//! histogram, as cuSZ does.
//!
//! [`Registry`]: cuszi_profile::Registry

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cuszi_gpu_sim::MAX_DEVICES;

use cuszi_profile::{Registry, Snapshot};
use cuszi_tensor::NdArray;

use crate::config::Config;
use crate::error::CuszError;
use crate::pipeline::{Compressed, CuszI, Decompressed};

/// Lock a mutex, riding through poisoning (a worker that panicked has
/// already failed its own job; the shared state stays usable).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Total queued jobs across all tenants before new submissions are
/// rejected with [`EngineError::Overloaded`].
const QUEUE_CAP: usize = 64;

/// Token-bucket refill rate per tenant, in jobs/second.
const TOKENS_PER_SEC: f64 = 50.0;

/// Token-bucket cap (burst allowance) per tenant.
const BURST: f64 = 8.0;

/// Engine sizing: workers, in-flight bound and device count.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads executing jobs (each gets an equal share of the
    /// gpu-sim thread pool).
    pub workers: usize,
    /// Maximum jobs executing concurrently (≤ workers is typical; the
    /// backpressure bound of the admission controller).
    pub max_inflight: usize,
    /// Simulated devices jobs are placed onto (1..=[`MAX_DEVICES`]).
    /// Placement is least-loaded: a job goes to the device with the
    /// fewest in-flight jobs, ties broken by a rotating cursor. Which
    /// device runs a job never changes its bytes.
    pub devices: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { workers: 2, max_inflight: 2, devices: 1 }
    }
}

impl EngineConfig {
    /// Override the worker count (and match `max_inflight` to it).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self.max_inflight = self.workers;
        self
    }

    /// Override the in-flight bound.
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Override the simulated device count (clamped to
    /// `1..=`[`MAX_DEVICES`]).
    pub fn with_devices(mut self, n: usize) -> Self {
        self.devices = n.clamp(1, MAX_DEVICES);
        self
    }
}

// ---------------------------------------------------------------------------
// Job plumbing
// ---------------------------------------------------------------------------

/// What the engine ran for a job.
#[derive(Debug)]
pub enum JobOutput {
    Compressed(Compressed),
    Decompressed(Decompressed),
}

impl JobOutput {
    /// The compression result, if this was a compress job.
    pub fn into_compressed(self) -> Option<Compressed> {
        match self {
            JobOutput::Compressed(c) => Some(c),
            JobOutput::Decompressed(_) => None,
        }
    }

    /// The decompression result, if this was a decompress job.
    pub fn into_decompressed(self) -> Option<Decompressed> {
        match self {
            JobOutput::Decompressed(d) => Some(d),
            JobOutput::Compressed(_) => None,
        }
    }
}

/// A completed job: the output plus when it was admitted, started and
/// finished. Timestamps are nanoseconds since the engine's epoch
/// ([`Engine::now_ns`] uses the same clock, so callers can compute
/// queue/service latency).
#[derive(Debug)]
pub struct JobResult {
    pub output: JobOutput,
    /// When the job was admitted.
    pub submitted_ns: u64,
    /// When a worker picked it up.
    pub started_ns: u64,
    /// When it finished.
    pub done_ns: u64,
    /// Always `false`: the engine reuses nothing across requests. Kept
    /// only because the benchmark harness still reads it.
    pub cache_hit: bool,
    /// The simulated device the job ran on (0 when `devices == 1`).
    pub device: usize,
}

/// Why a job did not produce a result.
#[derive(Debug)]
pub enum EngineError {
    /// The admission queue is full; the tenant should back off.
    Overloaded { tenant: String },
    /// The engine is draining and admits no new work.
    ShuttingDown,
    /// The pipeline failed; the typed cause names the stage.
    Job(CuszError),
    /// The engine dropped the job without running it (worker loss).
    Canceled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Overloaded { tenant } => {
                write!(f, "engine overloaded: tenant `{tenant}` rejected at admission")
            }
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::Job(e) => write!(f, "job failed: {e}"),
            EngineError::Canceled => write!(f, "job canceled before completion"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Job(e) => Some(e),
            _ => None,
        }
    }
}

/// A handle to a submitted job. [`Ticket::wait`] blocks until the
/// engine finishes (or fails) it.
pub struct Ticket {
    rx: mpsc::Receiver<Result<JobResult, EngineError>>,
}

impl Ticket {
    /// Block until the job completes.
    pub fn wait(self) -> Result<JobResult, EngineError> {
        self.rx.recv().unwrap_or(Err(EngineError::Canceled))
    }
}

enum JobKind {
    Compress { data: NdArray<f32>, cfg: Config },
    Decompress { bytes: Vec<u8>, cfg: Config },
}

struct Job {
    id: u64,
    tenant: String,
    kind: JobKind,
    submitted_ns: u64,
    tx: mpsc::Sender<Result<JobResult, EngineError>>,
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

struct TenantState {
    /// Jobs in arrival order.
    queue: VecDeque<Job>,
    /// Token balance; may go negative (deficit) so the scheduler stays
    /// work-conserving while still bounding a heavy tenant's share.
    tokens: f64,
    last_refill_ns: u64,
}

impl TenantState {
    fn new(now_ns: u64) -> Self {
        TenantState { queue: VecDeque::new(), tokens: BURST, last_refill_ns: now_ns }
    }
}

struct SchedState {
    tenants: HashMap<String, TenantState>,
    /// Tenant names in arrival order; the round-robin tie-break cursor
    /// walks this ring.
    rr: Vec<String>,
    cursor: usize,
    inflight: usize,
    total_queued: usize,
    shutting_down: bool,
    next_id: u64,
    completed: u64,
    rejected: u64,
}

impl SchedState {
    fn new() -> Self {
        SchedState {
            tenants: HashMap::new(),
            rr: Vec::new(),
            cursor: 0,
            inflight: 0,
            total_queued: 0,
            shutting_down: false,
            next_id: 1,
            completed: 0,
            rejected: 0,
        }
    }

    /// Queue a job at the tail of `tenant`'s FIFO. A tenant's first job
    /// registers it with a full bucket at the end of the round-robin
    /// ring. Refused while draining, and once `QUEUE_CAP` jobs are
    /// queued across all tenants.
    fn admit(
        &mut self,
        tenant: &str,
        kind: JobKind,
        now_ns: u64,
        tx: mpsc::Sender<Result<JobResult, EngineError>>,
    ) -> Result<(), EngineError> {
        if self.shutting_down {
            return Err(EngineError::ShuttingDown);
        }
        if self.total_queued >= QUEUE_CAP {
            self.rejected += 1;
            return Err(EngineError::Overloaded { tenant: tenant.to_string() });
        }
        let id = self.next_id;
        self.next_id += 1;
        if !self.tenants.contains_key(tenant) {
            self.rr.push(tenant.to_string());
        }
        let t = self.tenants.entry(tenant.to_string()).or_insert_with(|| TenantState::new(now_ns));
        t.queue.push_back(Job { id, tenant: tenant.to_string(), kind, submitted_ns: now_ns, tx });
        self.total_queued += 1;
        Ok(())
    }

    /// Token-deficit pick: refill every tenant's bucket, then take the
    /// head of the highest-balance tenant's queue, ties broken
    /// round-robin from the cursor.
    fn pick(&mut self, now_ns: u64) -> Option<Job> {
        self.refill(now_ns);
        if self.total_queued == 0 || self.rr.is_empty() {
            return None;
        }
        let n = self.rr.len();
        let mut best: Option<(usize, f64)> = None;
        for off in 0..n {
            let i = (self.cursor + off) % n;
            let Some(t) = self.tenants.get(&self.rr[i]) else { continue };
            if t.queue.is_empty() {
                continue;
            }
            if best.is_none_or(|(_, bt)| t.tokens > bt) {
                best = Some((i, t.tokens));
            }
        }
        let (i, _) = best?;
        let t = self.tenants.get_mut(&self.rr[i])?;
        let job = t.queue.pop_front()?;
        t.tokens -= 1.0;
        self.total_queued -= 1;
        self.cursor = (i + 1) % n;
        Some(job)
    }

    /// Refill every tenant's bucket to `now_ns`, then forget each tenant
    /// with no queued job and a full bucket: that state is a newcomer's,
    /// so admission recreates it exactly, and the ring only holds
    /// tenants seen within one refill period. The cursor moves to the
    /// first kept tenant at or after its old position.
    fn refill(&mut self, now_ns: u64) {
        let (tenants, cursor) = (&mut self.tenants, self.cursor);
        let (mut at, mut kept_before_cursor) = (0, 0);
        self.rr.retain(|name| {
            let keep = tenants.get_mut(name).is_some_and(|t| {
                let dt = now_ns.saturating_sub(t.last_refill_ns) as f64 / 1e9;
                t.tokens = (t.tokens + dt * TOKENS_PER_SEC).min(BURST);
                t.last_refill_ns = now_ns;
                !t.queue.is_empty() || t.tokens < BURST
            });
            if keep {
                kept_before_cursor += usize::from(at < cursor);
            } else {
                tenants.remove(name);
            }
            at += 1;
            keep
        });
        self.cursor = if kept_before_cursor < self.rr.len() { kept_before_cursor } else { 0 };
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct Shared {
    cfg: EngineConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    registry: Arc<Registry>,
    epoch: Instant,
    /// In-flight jobs per device — the placement policy's load signal.
    dev_inflight: Vec<AtomicUsize>,
    /// Completed jobs per device.
    dev_jobs: Vec<AtomicU64>,
    /// Rotating tie-break cursor, so sequential jobs on idle devices
    /// round-robin instead of all piling onto device 0.
    dev_cursor: AtomicUsize,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Pick the device a job runs on: least-loaded by in-flight count,
    /// ties broken by a rotating cursor.
    fn place(&self) -> usize {
        let m = self.cfg.devices.max(1);
        if m == 1 {
            return 0;
        }
        let start = self.dev_cursor.fetch_add(1, Ordering::Relaxed) % m;
        let mut best = start;
        let mut best_load = self.dev_inflight[start].load(Ordering::Relaxed);
        for off in 1..m {
            let i = (start + off) % m;
            let load = self.dev_inflight[i].load(Ordering::Relaxed);
            if load < best_load {
                best = i;
                best_load = load;
            }
        }
        best
    }
}

/// A point-in-time view of the engine's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub completed: u64,
    pub rejected: u64,
    pub inflight: usize,
    pub queued: usize,
    /// Simulated devices this engine places onto.
    pub devices: usize,
    /// Completed jobs per device (`[..devices]` meaningful).
    pub device_jobs: [u64; MAX_DEVICES],
    /// In-flight jobs per device (`[..devices]` meaningful).
    pub device_inflight: [usize; MAX_DEVICES],
}

/// The multi-tenant engine. See the module docs for the architecture.
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Start an engine with `cfg.workers` worker threads.
    pub fn new(cfg: EngineConfig) -> Engine {
        let devices = cfg.devices.clamp(1, MAX_DEVICES);
        let shared = Arc::new(Shared {
            cfg: EngineConfig { devices, ..cfg },
            state: Mutex::new(SchedState::new()),
            cv: Condvar::new(),
            registry: Arc::new(Registry::new()),
            epoch: Instant::now(),
            dev_inflight: (0..devices).map(|_| AtomicUsize::new(0)).collect(),
            dev_jobs: (0..devices).map(|_| AtomicU64::new(0)).collect(),
            dev_cursor: AtomicUsize::new(0),
        });
        let mut handles = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("cuszi-engine-{i}"))
                .spawn(move || worker_loop(&sh));
            if let Ok(h) = spawned {
                handles.push(h);
            }
        }
        Engine { shared, handles }
    }

    /// Nanoseconds since the engine epoch (the clock [`JobResult`]
    /// timestamps use).
    pub fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    /// Queue a compress job for `tenant`.
    pub fn submit_compress(
        &self,
        tenant: &str,
        data: NdArray<f32>,
        cfg: Config,
    ) -> Result<Ticket, EngineError> {
        self.submit_kind(tenant, JobKind::Compress { data, cfg })
    }

    /// Queue a decompress job for `tenant`.
    pub fn submit_decompress(
        &self,
        tenant: &str,
        bytes: Vec<u8>,
        cfg: Config,
    ) -> Result<Ticket, EngineError> {
        self.submit_kind(tenant, JobKind::Decompress { bytes, cfg })
    }

    /// Compress synchronously.
    pub fn compress(
        &self,
        tenant: &str,
        data: NdArray<f32>,
        cfg: Config,
    ) -> Result<JobResult, EngineError> {
        self.submit_compress(tenant, data, cfg)?.wait()
    }

    /// Decompress synchronously.
    pub fn decompress(
        &self,
        tenant: &str,
        bytes: Vec<u8>,
        cfg: Config,
    ) -> Result<JobResult, EngineError> {
        self.submit_decompress(tenant, bytes, cfg)?.wait()
    }

    fn submit_kind(&self, tenant: &str, kind: JobKind) -> Result<Ticket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let now = self.shared.now_ns();
        let admitted = lock(&self.shared.state).admit(tenant, kind, now, tx);
        match admitted {
            Ok(()) => {
                self.shared.cv.notify_all();
                Ok(Ticket { rx })
            }
            Err(e) => {
                if matches!(e, EngineError::Overloaded { .. }) {
                    self.shared.registry.count("engine.rejected", 1);
                }
                Err(e)
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let st = lock(&self.shared.state);
        let mut device_jobs = [0u64; MAX_DEVICES];
        let mut device_inflight = [0usize; MAX_DEVICES];
        for (d, v) in self.shared.dev_jobs.iter().enumerate() {
            device_jobs[d] = v.load(Ordering::Relaxed);
        }
        for (d, v) in self.shared.dev_inflight.iter().enumerate() {
            device_inflight[d] = v.load(Ordering::Relaxed);
        }
        EngineStats {
            completed: st.completed,
            rejected: st.rejected,
            inflight: st.inflight,
            queued: st.total_queued,
            devices: self.shared.cfg.devices,
            device_jobs,
            device_inflight,
        }
    }

    /// Snapshot of the engine-wide metrics registry (every job's
    /// counters, all tenants).
    pub fn metrics(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }

    /// The engine-wide registry (for Prometheus rendering in the
    /// `serve` daemon's stats frame).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// Graceful drain: stop admitting, then block until every queued
    /// and in-flight job has finished. Idempotent.
    pub fn drain(&self) {
        let mut st = lock(&self.shared.state);
        st.shutting_down = true;
        self.shared.cv.notify_all();
        while st.total_queued > 0 || st.inflight > 0 {
            st = self.shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutting_down = true;
        }
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    // Split the gpu-sim launch-thread budget evenly across workers,
    // mirroring the multi-stream scheduler's per-stream division.
    let budget = (cuszi_gpu_sim::pool::current_threads() / shared.cfg.workers.max(1)).max(1);
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.total_queued > 0 && st.inflight < shared.cfg.max_inflight {
                    let now = shared.now_ns();
                    if let Some(j) = st.pick(now) {
                        st.inflight += 1;
                        break Some(j);
                    }
                }
                if st.shutting_down && st.total_queued == 0 {
                    break None;
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let device = shared.place();
        shared.dev_inflight[device].fetch_add(1, Ordering::Relaxed);
        cuszi_gpu_sim::on_device(device, || {
            cuszi_gpu_sim::pool::with_threads(budget, || execute(shared, job, device));
        });
        shared.dev_inflight[device].fetch_sub(1, Ordering::Relaxed);
        shared.dev_jobs[device].fetch_add(1, Ordering::Relaxed);
        let mut st = lock(&shared.state);
        st.inflight -= 1;
        st.completed += 1;
        drop(st);
        shared.cv.notify_all();
    }
}

/// Run one job under its scopes: the engine metric registry and the
/// flight-recorder job context. A failure is delivered to this job's
/// ticket only — concurrent jobs are unaffected.
fn execute(shared: &Shared, job: Job, device: usize) {
    let started_ns = shared.now_ns();
    let _eng_scope = cuszi_profile::scope(Arc::clone(&shared.registry));
    let _job_scope = cuszi_profile::flight::job_scope(job.id, &job.tenant);
    cuszi_profile::count("engine.jobs", 1);
    cuszi_profile::count(&format!("engine.dev{device}.jobs"), 1);

    let outcome = match job.kind {
        JobKind::Compress { data, cfg } => {
            CuszI::new(cfg).compress(&data).map(JobOutput::Compressed)
        }
        JobKind::Decompress { bytes, cfg } => {
            CuszI::new(cfg).decompress(&bytes).map(JobOutput::Decompressed)
        }
    };

    let done_ns = shared.now_ns();
    let queue_wait_us = started_ns.saturating_sub(job.submitted_ns) / 1000;
    cuszi_profile::observe("engine.queue_wait_us", queue_wait_us);
    cuszi_profile::observe(&format!("engine.dev{device}.queue_wait_us"), queue_wait_us);
    cuszi_profile::observe("engine.service_us", done_ns.saturating_sub(started_ns) / 1000);

    let msg = match outcome {
        Ok(output) => Ok(JobResult {
            output,
            submitted_ns: job.submitted_ns,
            started_ns,
            done_ns,
            cache_hit: false,
            device,
        }),
        Err(e) => {
            cuszi_profile::count("engine.job_errors", 1);
            Err(EngineError::Job(e))
        }
    };
    let _ = job.tx.send(msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_quant::ErrorBound;
    use cuszi_tensor::Shape;

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| {
            ((x as f32) * 0.21).sin() + (y as f32) * 0.05 + (z as f32) * 0.02
        })
    }

    fn cfg() -> Config {
        Config::new(ErrorBound::Rel(1e-3))
    }

    #[test]
    fn engine_archive_matches_one_shot() {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        let serial = CuszI::new(cfg()).compress(&field()).unwrap();
        let r = engine.compress("t0", field(), cfg()).unwrap();
        let c = r.output.into_compressed().unwrap();
        assert_eq!(c.bytes, serial.bytes, "engine archives are byte-identical");
    }

    #[test]
    fn repeated_requests_rebuild_every_stage() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let first = engine.compress("t0", field(), cfg()).unwrap();
        let again = engine.compress("t0", field(), cfg()).unwrap();
        assert!(!first.cache_hit && !again.cache_hit, "nothing is reused across requests");
        let first = first.output.into_compressed().unwrap();
        let again = again.output.into_compressed().unwrap();
        assert_eq!(first.bytes, again.bytes);
        // The resend tunes again and launches all six kernels, the
        // histogram included, with the same traffic.
        assert_eq!(again.interp, first.interp);
        assert_eq!(first.kernels.len(), 6);
        assert_eq!(again.kernels, first.kernels);
    }

    #[test]
    fn engine_registry_sums_every_job_and_no_other_engine() {
        // The engine-wide registry (what the serve stats frame renders)
        // collects each of its jobs' stage counters, and only its own.
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let other = Engine::new(EngineConfig::default().with_workers(1));
        let small = NdArray::from_fn(Shape::d2(32, 32), |_z, y, x| (x + y) as f32 * 0.13);
        let big = field();
        engine.compress("a", small.clone(), cfg()).unwrap();
        engine.compress("b", big.clone(), cfg()).unwrap();
        other.compress("c", small.clone(), cfg()).unwrap();
        let both = ((small.len() + big.len()) * 4) as u64;
        let m = engine.metrics();
        assert_eq!(m.counters.get("engine.jobs"), Some(&2));
        assert_eq!(m.counters.get("compress.bytes_in"), Some(&both));
        let o = other.metrics();
        assert_eq!(o.counters.get("engine.jobs"), Some(&1));
        assert_eq!(o.counters.get("compress.bytes_in"), Some(&((small.len() * 4) as u64)));
    }

    #[test]
    fn tenant_names_do_not_grow_the_engine_registry() {
        // Tenant names come off the wire; the engine-wide registry must
        // not keep a counter per name ever seen. A constant field is the
        // cheapest job that still runs every per-job counter.
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let flat = NdArray::from_fn(Shape::d3(2, 2, 2), |_, _, _| 1.0f32);
        let run = |t: &str| {
            engine.compress(t, flat.clone(), cfg()).unwrap();
        };
        run("warm-up");
        let counters = engine.metrics().counters.len();
        for i in 0..10_000 {
            run(&format!("tenant-{i}"));
        }
        let m = engine.metrics();
        assert_eq!(m.counters.get("engine.jobs"), Some(&10_001));
        assert_eq!(m.counters.len(), counters, "{:?}", m.counters.keys().take(8).collect::<Vec<_>>());
    }

    #[test]
    fn queue_cap_rejects_with_overloaded() {
        // One worker busy on a large field: everything behind it queues
        // until the constant cap is full, and the next submit bounces.
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let big = NdArray::from_fn(Shape::d3(64, 64, 64), |z, y, x| {
            ((x as f32) * 0.3).sin() + (y as f32) * 0.01 - (z as f32) * 0.02
        });
        let mut tickets = vec![engine.submit_compress("t", big, cfg()).unwrap()];
        let small = field();
        let overloaded = loop {
            match engine.submit_compress("t", small.clone(), cfg()) {
                Ok(t) => tickets.push(t),
                Err(e) => break e,
            }
        };
        assert!(matches!(overloaded, EngineError::Overloaded { .. }), "{overloaded}");
        assert!(tickets.len() >= QUEUE_CAP, "{} admitted before the cap", tickets.len());
        assert_eq!(engine.stats().rejected, 1);
        for t in tickets {
            assert!(t.wait().is_ok(), "admitted jobs still complete");
        }
    }

    #[test]
    fn drain_stops_admission_and_finishes_work() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let t = engine.submit_compress("t", field(), cfg()).unwrap();
        engine.drain();
        assert!(matches!(
            engine.submit_compress("t", field(), cfg()),
            Err(EngineError::ShuttingDown)
        ));
        assert!(t.wait().is_ok(), "in-flight work finishes during drain");
    }

    #[test]
    fn decompress_roundtrips_through_engine() {
        let engine = Engine::new(EngineConfig::default());
        let data = field();
        let c = engine.compress("t", data.clone(), cfg()).unwrap();
        let bytes = c.output.into_compressed().unwrap().bytes;
        let d = engine.decompress("t", bytes, cfg()).unwrap();
        let out = d.output.into_decompressed().unwrap();
        assert_eq!(out.data.shape(), data.shape());
        // Engine decompress runs the gap-array decode path: bitcomp +
        // gap decode + interp.
        assert_eq!(out.kernels.len(), 3);
    }

    #[test]
    fn multi_device_archives_match_single_device() {
        let serial = CuszI::new(cfg()).compress(&field()).unwrap();
        let engine = Engine::new(EngineConfig::default().with_workers(2).with_devices(4));
        let r = engine.compress("t0", field(), cfg()).unwrap();
        assert!(r.device < 4);
        let c = r.output.into_compressed().unwrap();
        assert_eq!(c.bytes, serial.bytes, "placement never changes archive bytes");
    }

    #[test]
    fn idle_devices_share_sequential_jobs() {
        // The rotating tie-break spreads back-to-back jobs across idle
        // devices instead of pinning all of them to device 0.
        let engine = Engine::new(EngineConfig::default().with_workers(1).with_devices(2));
        let other = NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| {
            ((x as f32) * 0.4).cos() + (y as f32) * 0.03 + (z as f32) * 0.07
        });
        let r1 = engine.compress("a", field(), cfg()).unwrap();
        let r2 = engine.compress("a", other, cfg()).unwrap();
        assert_ne!(r1.device, r2.device, "idle-tie jobs rotate across devices");
        // The worker bumps its per-device counter just after delivering
        // the result; give it a moment to settle.
        let mut s = engine.stats();
        for _ in 0..500 {
            if s.completed == 2 && s.device_jobs.iter().sum::<u64>() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            s = engine.stats();
        }
        assert_eq!(s.devices, 2);
        assert_eq!(s.device_jobs.iter().sum::<u64>(), 2);
        assert_eq!(s.device_jobs[r1.device], 1);
        assert_eq!(s.device_jobs[r2.device], 1);
        let m = engine.metrics();
        for d in [r1.device, r2.device] {
            let jobs = m.counters.get(&format!("engine.dev{d}.jobs")).copied();
            assert_eq!(jobs, Some(1), "per-device job counter tracks placement");
        }
    }

    #[test]
    fn device_count_is_clamped() {
        let cfg = EngineConfig::default().with_devices(0);
        assert_eq!(cfg.devices, 1);
        let cfg = EngineConfig::default().with_devices(64);
        assert_eq!(cfg.devices, cuszi_gpu_sim::MAX_DEVICES);
    }

    #[test]
    fn worker_count_sets_the_inflight_bound() {
        let d = EngineConfig::default();
        assert_eq!((d.workers, d.max_inflight, d.devices), (2, 2, 1));
        let c = EngineConfig::default().with_workers(3);
        assert_eq!((c.workers, c.max_inflight), (3, 3));
        let c = EngineConfig::default().with_workers(0).with_max_inflight(0);
        assert_eq!((c.workers, c.max_inflight), (1, 1));
        let c = EngineConfig::default().with_workers(4).with_max_inflight(2);
        assert_eq!((c.workers, c.max_inflight), (4, 2), "an explicit bound outlives the default");
    }

    /// Offer an (unrun) job for `tenant` to admission at `now_ns`.
    fn try_enqueue(st: &mut SchedState, tenant: &str, now_ns: u64) -> Result<(), EngineError> {
        let (tx, _rx) = mpsc::channel();
        st.admit(tenant, JobKind::Decompress { bytes: Vec::new(), cfg: cfg() }, now_ns, tx)
    }

    /// Admit a job for `tenant` at `now_ns`; returns its id.
    fn enqueue(st: &mut SchedState, tenant: &str, now_ns: u64) -> u64 {
        try_enqueue(st, tenant, now_ns).unwrap();
        st.next_id - 1
    }

    /// Pick `n` jobs at `now_ns`; returns `(tenant, id)` per pick.
    fn pick_n(st: &mut SchedState, now_ns: u64, n: usize) -> Vec<(String, u64)> {
        (0..n)
            .map(|_| st.pick(now_ns).map(|j| (j.tenant, j.id)).expect("a queued job"))
            .collect()
    }

    #[test]
    fn one_tenant_is_served_in_arrival_order() {
        let mut st = SchedState::new();
        let ids: Vec<u64> = (0..5).map(|_| enqueue(&mut st, "a", 0)).collect();
        let picked: Vec<u64> = pick_n(&mut st, 0, 5).into_iter().map(|(_, id)| id).collect();
        assert_eq!(picked, ids);
        assert!(st.pick(0).is_none());
        assert_eq!(st.total_queued, 0);
    }

    #[test]
    fn equal_balances_alternate_between_tenants() {
        let mut st = SchedState::new();
        for t in ["a", "a", "a", "b", "b", "b"] {
            enqueue(&mut st, t, 0);
        }
        let order: Vec<String> = pick_n(&mut st, 0, 6).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn highest_balance_wins_so_a_light_tenant_jumps_a_backlog() {
        let mut st = SchedState::new();
        for _ in 0..10 {
            enqueue(&mut st, "heavy", 0);
        }
        pick_n(&mut st, 0, 4);
        enqueue(&mut st, "light", 0);
        enqueue(&mut st, "light", 0);
        let order: Vec<String> = pick_n(&mut st, 0, 3).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, ["light", "light", "heavy"], "4 tokens spent vs a full bucket");
    }

    #[test]
    fn buckets_refill_at_the_constant_rate_up_to_the_burst() {
        let mut st = SchedState::new();
        for _ in 0..12 {
            enqueue(&mut st, "h", 0);
        }
        pick_n(&mut st, 0, BURST as usize);
        let tokens = |st: &SchedState| st.tenants["h"].tokens;
        assert_eq!(tokens(&st), 0.0, "a burst spends the whole bucket");
        // 100 ms refills 0.1·rate tokens; the pick spends one.
        pick_n(&mut st, 100_000_000, 1);
        let want = (0.1 * TOKENS_PER_SEC).min(BURST) - 1.0;
        assert!((tokens(&st) - want).abs() < 1e-9, "{} vs {want}", tokens(&st));
        // A long idle spell refills no further than the burst.
        pick_n(&mut st, 60_000_000_000, 1);
        assert_eq!(tokens(&st), BURST - 1.0);
    }

    #[test]
    fn empty_tenants_are_skipped_whatever_their_balance() {
        let mut st = SchedState::new();
        for t in ["a", "b", "b", "b"] {
            enqueue(&mut st, t, 0);
        }
        let order: Vec<String> = pick_n(&mut st, 0, 4).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, ["a", "b", "b", "b"], "a keeps the higher balance but has no work");
        assert!(st.pick(0).is_none());
    }

    #[test]
    fn idle_tenants_with_full_buckets_are_forgotten() {
        // A client that names a new tenant on every request: each one is
        // admitted, served and then idle. Its bucket refills in
        // 1 / TOKENS_PER_SEC = 20 ms, after which it must be forgotten,
        // or the ring grows (and every pick walks it) without bound.
        const MS: u64 = 1_000_000;
        let mut st = SchedState::new();
        for i in 0..10_000u64 {
            enqueue(&mut st, &format!("tenant-{i}"), i * MS);
            pick_n(&mut st, i * MS, 1);
            assert!(st.rr.len() <= 32, "{} tenants held after {i} picks", st.rr.len());
            assert!(st.cursor < st.rr.len().max(1));
        }
        assert!(st.pick(10_000 * MS + 1_000 * MS).is_none());
        assert!(st.tenants.is_empty() && st.rr.is_empty(), "{} tenants left", st.tenants.len());
        assert_eq!(st.cursor, 0);
    }

    #[test]
    fn forgetting_tenants_keeps_the_cursor_on_the_next_in_line() {
        let mut st = SchedState::new();
        for t in ["a", "b", "b", "c", "d"] {
            enqueue(&mut st, t, 0);
        }
        let order: Vec<String> = pick_n(&mut st, 0, 3).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(st.cursor, 3, "d is next in line");
        // A second later a and c are idle with full buckets and are
        // forgotten; b and d tie, and the tie-break still starts at d.
        assert_eq!(pick_n(&mut st, 1_000_000_000, 1)[0].0, "d");
        assert_eq!(st.rr, ["b", "d"]);
        assert!(!st.tenants.contains_key("a") && !st.tenants.contains_key("c"));
    }

    #[test]
    fn admission_refuses_past_the_queue_cap_until_a_pick_frees_a_slot() {
        let mut st = SchedState::new();
        for i in 0..QUEUE_CAP {
            enqueue(&mut st, if i % 2 == 0 { "a" } else { "b" }, 0);
        }
        match try_enqueue(&mut st, "c", 0) {
            Err(EngineError::Overloaded { tenant }) => assert_eq!(tenant, "c"),
            other => panic!("expected Overloaded, got {:?}", other.err()),
        }
        assert_eq!(st.rejected, 1);
        assert!(!st.tenants.contains_key("c"), "a refused tenant is not registered");
        pick_n(&mut st, 0, 1);
        enqueue(&mut st, "c", 0);
        assert_eq!(st.total_queued, QUEUE_CAP);
    }

    #[test]
    fn admission_refuses_while_draining_without_counting_a_rejection() {
        let mut st = SchedState::new();
        st.shutting_down = true;
        assert!(matches!(try_enqueue(&mut st, "a", 0), Err(EngineError::ShuttingDown)));
        assert_eq!((st.rejected, st.total_queued), (0, 0));
    }

    #[test]
    fn engine_errors_name_their_cause() {
        let e = EngineError::Overloaded { tenant: "t7".to_string() };
        assert!(e.to_string().contains("`t7`"), "{e}");
        assert!(std::error::Error::source(&e).is_none());
        let job = EngineError::Job(CuszError::CorruptArchive("bad magic"));
        assert!(job.to_string().starts_with("job failed: "), "{job}");
        assert!(std::error::Error::source(&job).is_some(), "a job failure keeps its cause");
        assert!(std::error::Error::source(&EngineError::Canceled).is_none());
    }

    #[test]
    fn engine_refuses_a_radius_past_shared_memory() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let err = engine.compress("t0", field(), cfg().with_radius(32767)).unwrap_err();
        assert!(matches!(err, EngineError::Job(CuszError::InvalidConfig(_))), "{err:?}");
    }
}
