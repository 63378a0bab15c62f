//! A multi-tenant compression engine: the one-shot [`CuszI`] pipeline
//! lifted into a shared, long-lived service.
//!
//! The engine owns three pieces of cross-request state that a one-shot
//! call cannot amortize:
//!
//! 1. **A keyed session cache** — a content fingerprint of the field
//!    plus every byte-affecting config knob maps to the tuned
//!    [`InterpConfig`] + canonical [`Codebook`] from a previous run
//!    (a [`WarmStart`]) and a warm [`ScratchArena`]. A hit skips the
//!    `tune`/`histogram`/`codebook` stages entirely while producing a
//!    byte-identical archive (quant codes are a deterministic function
//!    of content + config, so reusing the artifacts is exact). Entries
//!    are LRU-evicted against a byte budget.
//! 2. **An admission controller** — per-tenant token buckets refilled
//!    at a configured rate pick the next job by *highest balance*
//!    (deficit fairness: a heavy tenant's balance goes negative, so a
//!    light tenant wins every contended dispatch and starvation is
//!    bounded), with two priority lanes (`Interactive` drains before
//!    `Batch`) and a global queue cap + ≤N-in-flight backpressure.
//! 3. **Scoped observability** — each job runs under a per-engine and
//!    a per-request [`Registry`] scope (see `cuszi_profile::scope`) so
//!    per-request counters never bleed across tenants, and under a
//!    flight-recorder job scope so fault dumps carry the job/tenant id.
//!
//! [`CuszI::compress`]/[`CuszI::decompress`] remain thin single-job
//! wrappers — existing callers and their archives are untouched; the
//! engine reaches the same stage graph through
//! `CuszI::compress_session`.
//!
//! [`InterpConfig`]: cuszi_predict::tuning::InterpConfig
//! [`Codebook`]: cuszi_huffman::Codebook
//! [`WarmStart`]: crate::stage::WarmStart
//! [`ScratchArena`]: crate::arena::ScratchArena
//! [`Registry`]: cuszi_profile::Registry

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cuszi_gpu_sim::MAX_DEVICES;

use cuszi_profile::{Registry, Snapshot};
use cuszi_tensor::NdArray;

use crate::arena::{self, ScratchArena};
use crate::config::Config;
use crate::error::CuszError;
use crate::pipeline::{Compressed, CuszI, Decompressed, SessionMode};
use crate::stage::WarmStart;

/// Lock a mutex, riding through poisoning (a worker that panicked has
/// already failed its own job; the shared state stays usable).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Engine sizing and fairness knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads executing jobs (each gets an equal share of the
    /// gpu-sim thread pool).
    pub workers: usize,
    /// Maximum jobs executing concurrently (≤ workers is typical; the
    /// backpressure bound of the admission controller).
    pub max_inflight: usize,
    /// Total queued jobs across all tenants before new submissions are
    /// rejected with [`EngineError::Overloaded`].
    pub queue_cap: usize,
    /// LRU byte budget for the session cache (warm-start artifacts +
    /// warm scratch arenas).
    pub cache_budget_bytes: usize,
    /// Token-bucket refill rate per tenant, in jobs/second.
    pub tokens_per_sec: f64,
    /// Token-bucket cap (burst allowance) per tenant.
    pub burst: f64,
    /// Simulated devices jobs are placed onto (1..=[`MAX_DEVICES`]).
    /// Placement is least-loaded with session-cache affinity: a job
    /// whose warm-start entry lives on device `d` runs on `d` again
    /// (the cached arena is "resident" there); everything else goes to
    /// the device with the fewest in-flight jobs.
    pub devices: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_inflight: 2,
            queue_cap: 64,
            cache_budget_bytes: 32 << 20,
            tokens_per_sec: 50.0,
            burst: 8.0,
            devices: 1,
        }
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

    /// Override the admission queue cap.
    pub fn with_queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n;
        self
    }

    /// Override the session-cache byte budget.
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget_bytes = bytes;
        self
    }

    /// Override the per-tenant token refill rate and burst cap.
    pub fn with_fairness(mut self, tokens_per_sec: f64, burst: f64) -> Self {
        self.tokens_per_sec = tokens_per_sec;
        self.burst = burst;
        self
    }

    /// Override the simulated device count (clamped to
    /// `1..=`[`MAX_DEVICES`]).
    pub fn with_devices(mut self, n: usize) -> Self {
        self.devices = n.clamp(1, MAX_DEVICES);
        self
    }
}

/// Dispatch priority lane. `Interactive` always drains before `Batch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    Interactive,
    Batch,
}

impl Priority {
    fn lane(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
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

/// A completed job: the output plus the request-scoped telemetry the
/// engine collected around it. Timestamps are nanoseconds since the
/// engine's epoch ([`Engine::now_ns`] uses the same clock, so callers
/// can compute queue/service latency).
#[derive(Debug)]
pub struct JobResult {
    pub output: JobOutput,
    /// When the job was admitted.
    pub submitted_ns: u64,
    /// When a worker picked it up.
    pub started_ns: u64,
    /// When it finished.
    pub done_ns: u64,
    /// Whether the session cache supplied a warm start (compress only).
    pub cache_hit: bool,
    /// The simulated device the job ran on (0 when `devices == 1`).
    pub device: usize,
    /// Per-request metrics (scoped — no bleed from concurrent jobs).
    pub metrics: Snapshot,
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
// Session cache
// ---------------------------------------------------------------------------

/// FNV-1a over the field's f32 bit patterns. The cache key must be a
/// *content* fingerprint — a `Rel` error bound resolves against the
/// field's value range, so family-level reuse (same dataset, new
/// timestep) would silently change the effective bound. Keying by
/// content makes warm reuse exact for both bound modes.
fn content_fingerprint(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Cache key: content fingerprint + every config field that affects
/// archive bytes or the reusable artifacts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SessionKey {
    fp: u64,
    elements: usize,
    eb_mode: u8,
    eb_bits: u64,
    radius: u16,
    auto_tune: bool,
    kernel_autotune: bool,
    bitcomp: bool,
    topk: usize,
    device: &'static str,
}

impl SessionKey {
    fn of(data: &NdArray<f32>, cfg: &Config) -> SessionKey {
        let (eb_mode, eb_bits) = match cfg.error_bound {
            cuszi_quant::ErrorBound::Abs(e) => (0u8, e.to_bits()),
            cuszi_quant::ErrorBound::Rel(e) => (1u8, e.to_bits()),
        };
        SessionKey {
            fp: content_fingerprint(data.as_slice()),
            elements: data.len(),
            eb_mode,
            eb_bits,
            radius: cfg.radius,
            auto_tune: cfg.auto_tune,
            kernel_autotune: cfg.kernel_autotune,
            bitcomp: cfg.bitcomp,
            topk: cfg.histogram_topk,
            device: cfg.device.name,
        }
    }
}

struct SessionEntry {
    warm: WarmStart,
    arena: ScratchArena,
    last_used: u64,
    /// Device the entry's arena last lived on — the affinity hint the
    /// placement policy prefers for repeat requests.
    device: usize,
}

impl SessionEntry {
    fn bytes(&self) -> usize {
        self.warm.approx_bytes() + self.arena.bytes()
    }
}

/// Checkout-model cache: a lookup *removes* the entry (the job owns it
/// while running, so a concurrent identical request misses cleanly
/// instead of sharing a hot arena), and completion reinserts it.
struct SessionCache {
    map: HashMap<SessionKey, SessionEntry>,
    budget: usize,
    tick: u64,
}

impl SessionCache {
    fn new(budget: usize) -> Self {
        SessionCache { map: HashMap::new(), budget, tick: 0 }
    }

    fn checkout(&mut self, key: &SessionKey) -> Option<SessionEntry> {
        self.map.remove(key)
    }

    /// Device affinity for `key`, if a warm entry is resident.
    fn device_of(&self, key: &SessionKey) -> Option<usize> {
        self.map.get(key).map(|e| e.device)
    }

    fn insert(&mut self, key: SessionKey, mut entry: SessionEntry) {
        self.tick += 1;
        entry.last_used = self.tick;
        self.map.insert(key, entry);
        // LRU-evict down to the byte budget.
        while self.total_bytes() > self.budget && !self.map.is_empty() {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            } else {
                break;
            }
        }
    }

    fn total_bytes(&self) -> usize {
        self.map.values().map(SessionEntry::bytes).sum()
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

struct TenantState {
    /// `[Interactive, Batch]` FIFO lanes.
    lanes: [VecDeque<Job>; 2],
    /// Token balance; may go negative (deficit) so the scheduler stays
    /// work-conserving while still bounding a heavy tenant's share.
    tokens: f64,
    last_refill_ns: u64,
    queued: usize,
}

impl TenantState {
    fn new(burst: f64, now_ns: u64) -> Self {
        TenantState {
            lanes: [VecDeque::new(), VecDeque::new()],
            tokens: burst,
            last_refill_ns: now_ns,
            queued: 0,
        }
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

    /// Token-deficit pick: refill every tenant's bucket, then take the
    /// head of the highest-balance tenant's queue — `Interactive` lane
    /// first, ties broken round-robin from the cursor.
    fn pick(&mut self, cfg: &EngineConfig, now_ns: u64) -> Option<Job> {
        if self.total_queued == 0 || self.rr.is_empty() {
            return None;
        }
        for name in &self.rr {
            if let Some(t) = self.tenants.get_mut(name) {
                let dt = now_ns.saturating_sub(t.last_refill_ns) as f64 / 1e9;
                t.tokens = (t.tokens + dt * cfg.tokens_per_sec).min(cfg.burst);
                t.last_refill_ns = now_ns;
            }
        }
        let n = self.rr.len();
        for lane in 0..2 {
            let mut best: Option<(usize, f64)> = None;
            for off in 0..n {
                let i = (self.cursor + off) % n;
                let Some(t) = self.tenants.get(&self.rr[i]) else { continue };
                if t.lanes[lane].is_empty() {
                    continue;
                }
                if best.is_none_or(|(_, bt)| t.tokens > bt) {
                    best = Some((i, t.tokens));
                }
            }
            if let Some((i, _)) = best {
                let name = self.rr[i].clone();
                let t = self.tenants.get_mut(&name)?;
                let job = t.lanes[lane].pop_front()?;
                t.tokens -= 1.0;
                t.queued -= 1;
                self.total_queued -= 1;
                self.cursor = (i + 1) % n;
                return Some(job);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct Shared {
    cfg: EngineConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    cache: Mutex<SessionCache>,
    registry: Arc<Registry>,
    epoch: Instant,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
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

    /// Pick the device a job runs on: session-cache affinity first
    /// (the warm arena is "resident" on the device that produced it),
    /// otherwise least-loaded by in-flight count, ties broken by a
    /// rotating cursor.
    fn place(&self, key: Option<&SessionKey>) -> usize {
        let m = self.cfg.devices.max(1);
        if m == 1 {
            return 0;
        }
        if let Some(k) = key {
            if let Some(d) = lock(&self.cache).device_of(k) {
                if d < m {
                    return d;
                }
            }
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
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries: usize,
    pub cache_bytes: usize,
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
            cache: Mutex::new(SessionCache::new(cfg.cache_budget_bytes)),
            cfg: EngineConfig { devices, ..cfg },
            state: Mutex::new(SchedState::new()),
            cv: Condvar::new(),
            registry: Arc::new(Registry::new()),
            epoch: Instant::now(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
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
        priority: Priority,
        data: NdArray<f32>,
        cfg: Config,
    ) -> Result<Ticket, EngineError> {
        self.submit_kind(tenant, priority, JobKind::Compress { data, cfg })
    }

    /// Queue a decompress job for `tenant`.
    pub fn submit_decompress(
        &self,
        tenant: &str,
        priority: Priority,
        bytes: Vec<u8>,
        cfg: Config,
    ) -> Result<Ticket, EngineError> {
        self.submit_kind(tenant, priority, JobKind::Decompress { bytes, cfg })
    }

    /// Compress synchronously on the `Interactive` lane.
    pub fn compress(
        &self,
        tenant: &str,
        data: NdArray<f32>,
        cfg: Config,
    ) -> Result<JobResult, EngineError> {
        self.submit_compress(tenant, Priority::Interactive, data, cfg)?.wait()
    }

    /// Decompress synchronously on the `Interactive` lane.
    pub fn decompress(
        &self,
        tenant: &str,
        bytes: Vec<u8>,
        cfg: Config,
    ) -> Result<JobResult, EngineError> {
        self.submit_decompress(tenant, Priority::Interactive, bytes, cfg)?.wait()
    }

    fn submit_kind(
        &self,
        tenant: &str,
        priority: Priority,
        kind: JobKind,
    ) -> Result<Ticket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let now = self.shared.now_ns();
        let mut st = lock(&self.shared.state);
        if st.shutting_down {
            return Err(EngineError::ShuttingDown);
        }
        if st.total_queued >= self.shared.cfg.queue_cap {
            st.rejected += 1;
            self.shared.registry.count("engine.rejected", 1);
            return Err(EngineError::Overloaded { tenant: tenant.to_string() });
        }
        let id = st.next_id;
        st.next_id += 1;
        if !st.tenants.contains_key(tenant) {
            st.tenants.insert(tenant.to_string(), TenantState::new(self.shared.cfg.burst, now));
            st.rr.push(tenant.to_string());
        }
        let Some(t) = st.tenants.get_mut(tenant) else {
            return Err(EngineError::Canceled);
        };
        t.lanes[priority.lane()].push_back(Job {
            id,
            tenant: tenant.to_string(),
            kind,
            submitted_ns: now,
            tx,
        });
        t.queued += 1;
        st.total_queued += 1;
        drop(st);
        self.shared.cv.notify_all();
        Ok(Ticket { rx })
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let st = lock(&self.shared.state);
        let cache = lock(&self.shared.cache);
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
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.shared.cache_misses.load(Ordering::Relaxed),
            cache_entries: cache.map.len(),
            cache_bytes: cache.total_bytes(),
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
                    if let Some(j) = st.pick(&shared.cfg, now) {
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
        // Place the job on a device before executing: affinity needs
        // the session key, so compute it once here and hand it down
        // (run_compress reuses it instead of re-fingerprinting).
        let key = match &job.kind {
            JobKind::Compress { data, cfg } => Some(SessionKey::of(data, cfg)),
            JobKind::Decompress { .. } => None,
        };
        let device = shared.place(key.as_ref());
        shared.dev_inflight[device].fetch_add(1, Ordering::Relaxed);
        cuszi_gpu_sim::on_device(device, || {
            cuszi_gpu_sim::pool::with_threads(budget, || execute(shared, job, device, key));
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

/// Run one job under its scopes: engine + request metric registries,
/// flight-recorder job context. A failure is delivered to this job's
/// ticket only — concurrent jobs are unaffected.
fn execute(shared: &Shared, job: Job, device: usize, key: Option<SessionKey>) {
    let started_ns = shared.now_ns();
    let req_reg = Arc::new(Registry::new());
    let _eng_scope = cuszi_profile::scope(Arc::clone(&shared.registry));
    let _req_scope = cuszi_profile::scope(Arc::clone(&req_reg));
    let _job_scope = cuszi_profile::flight::job_scope(job.id, &job.tenant);
    cuszi_profile::count("engine.jobs", 1);
    cuszi_profile::count(&format!("engine.tenant.{}.jobs", job.tenant), 1);
    cuszi_profile::count(&format!("engine.dev{device}.jobs"), 1);

    let outcome: Result<(JobOutput, bool), CuszError> = match job.kind {
        JobKind::Compress { data, cfg } => {
            let key = key.unwrap_or_else(|| SessionKey::of(&data, &cfg));
            run_compress(shared, &data, cfg, device, key)
        }
        JobKind::Decompress { bytes, cfg } => CuszI::new(cfg)
            .decompress(&bytes)
            .map(|d| (JobOutput::Decompressed(d), false)),
    };

    let done_ns = shared.now_ns();
    let queue_wait_us = started_ns.saturating_sub(job.submitted_ns) / 1000;
    cuszi_profile::observe("engine.queue_wait_us", queue_wait_us);
    cuszi_profile::observe(&format!("engine.dev{device}.queue_wait_us"), queue_wait_us);
    cuszi_profile::observe("engine.service_us", done_ns.saturating_sub(started_ns) / 1000);

    let msg = match outcome {
        Ok((output, cache_hit)) => Ok(JobResult {
            output,
            submitted_ns: job.submitted_ns,
            started_ns,
            done_ns,
            cache_hit,
            device,
            metrics: req_reg.snapshot(),
        }),
        Err(e) => {
            cuszi_profile::count("engine.job_errors", 1);
            Err(EngineError::Job(e))
        }
    };
    let _ = job.tx.send(msg);
}

fn run_compress(
    shared: &Shared,
    data: &NdArray<f32>,
    cfg: Config,
    device: usize,
    key: SessionKey,
) -> Result<(JobOutput, bool), CuszError> {
    let codec = CuszI::new(cfg);
    let entry = lock(&shared.cache).checkout(&key);
    match entry {
        Some(SessionEntry { warm, arena: sess_arena, .. }) => {
            // Warm hit: install the session's arena, reuse the cached
            // tuned config + codebook (skipping tune/histogram/codebook).
            let prev = arena::swap(sess_arena);
            let result = codec.compress_session(data, SessionMode::Warm(&warm));
            let warmed = arena::swap(prev);
            // The warm artifacts stay valid either way; reinsert.
            lock(&shared.cache)
                .insert(key, SessionEntry { warm, arena: warmed, last_used: 0, device });
            let (c, _) = result?;
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            cuszi_profile::count("engine.cache_hit", 1);
            Ok((JobOutput::Compressed(c), true))
        }
        None => {
            shared.cache_misses.fetch_add(1, Ordering::Relaxed);
            cuszi_profile::count("engine.cache_miss", 1);
            let prev = arena::swap(ScratchArena::new());
            let result = codec.compress_session(data, SessionMode::Harvest);
            let warmed = arena::swap(prev);
            let (c, harvest) = result?;
            if let Some(warm) = harvest {
                lock(&shared.cache)
                    .insert(key, SessionEntry { warm, arena: warmed, last_used: 0, device });
            }
            Ok((JobOutput::Compressed(c), false))
        }
    }
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
        assert!(!r.cache_hit);
    }

    #[test]
    fn warm_hit_skips_tune_histogram_codebook() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let cold = engine.compress("t0", field(), cfg()).unwrap();
        let warm = engine.compress("t0", field(), cfg()).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit, "second identical request hits the session cache");
        let cold_c = cold.output.into_compressed().unwrap();
        let warm_c = warm.output.into_compressed().unwrap();
        assert_eq!(cold_c.bytes, warm_c.bytes, "warm archive is byte-identical");
        assert!(
            warm_c.kernels.len() < cold_c.kernels.len(),
            "warm path launches fewer kernels ({} vs {})",
            warm_c.kernels.len(),
            cold_c.kernels.len()
        );
        let s = engine.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn per_request_metrics_do_not_bleed() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let small = NdArray::from_fn(Shape::d2(32, 32), |_z, y, x| (x + y) as f32 * 0.13);
        let big = field();
        let r1 = engine.compress("a", small.clone(), cfg()).unwrap();
        let r2 = engine.compress("b", big.clone(), cfg()).unwrap();
        let b1 = r1.metrics.counters.get("compress.bytes_in").copied().unwrap_or(0);
        let b2 = r2.metrics.counters.get("compress.bytes_in").copied().unwrap_or(0);
        assert_eq!(b1, (small.len() * 4) as u64, "request 1 sees only its own bytes");
        assert_eq!(b2, (big.len() * 4) as u64, "request 2 sees only its own bytes");
    }

    #[test]
    fn queue_cap_rejects_with_overloaded() {
        let engine = Engine::new(
            EngineConfig::default().with_workers(1).with_queue_cap(0),
        );
        let err = engine.submit_compress("t", Priority::Batch, field(), cfg());
        assert!(matches!(err, Err(EngineError::Overloaded { .. })));
        assert_eq!(engine.stats().rejected, 1);
    }

    #[test]
    fn drain_stops_admission_and_finishes_work() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let t = engine
            .submit_compress("t", Priority::Interactive, field(), cfg())
            .unwrap();
        engine.drain();
        assert!(matches!(
            engine.submit_compress("t", Priority::Interactive, field(), cfg()),
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
    fn session_cache_evicts_to_budget() {
        let mut cache = SessionCache::new(1);
        let warm = WarmStart {
            interp: cuszi_predict::tuning::InterpConfig::untuned(3),
            book: cuszi_huffman::Codebook::from_histogram(&[1, 2, 3, 4]).unwrap(),
        };
        let key = SessionKey {
            fp: 1,
            elements: 1,
            eb_mode: 0,
            eb_bits: 0,
            radius: 2,
            auto_tune: true,
            kernel_autotune: false,
            bitcomp: true,
            topk: 32,
            device: "A100-40GB",
        };
        cache.insert(
            key.clone(),
            SessionEntry { warm, arena: ScratchArena::new(), last_used: 0, device: 0 },
        );
        assert!(cache.map.is_empty(), "entry over budget is evicted");
        assert!(cache.checkout(&key).is_none());
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
        // Distinct fields (no affinity): the rotating tie-break spreads
        // back-to-back jobs across idle devices instead of pinning all
        // of them to device 0.
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
    }

    #[test]
    fn session_affinity_pins_repeat_requests() {
        let engine = Engine::new(EngineConfig::default().with_workers(1).with_devices(4));
        let cold = engine.compress("t", field(), cfg()).unwrap();
        let warm = engine.compress("t", field(), cfg()).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(
            warm.device, cold.device,
            "warm repeat follows its cached arena's device, not the cursor"
        );
        let m = engine.metrics();
        let dev_jobs = m
            .counters
            .get(&format!("engine.dev{}.jobs", cold.device))
            .copied()
            .unwrap_or(0);
        assert_eq!(dev_jobs, 2, "per-device job counter tracks placement");
    }

    #[test]
    fn device_count_is_clamped() {
        let cfg = EngineConfig::default().with_devices(0);
        assert_eq!(cfg.devices, 1);
        let cfg = EngineConfig::default().with_devices(64);
        assert_eq!(cfg.devices, cuszi_gpu_sim::MAX_DEVICES);
    }
}
