//! Multi-tenant engine behaviour under concurrency: archives from
//! concurrent jobs must be byte-identical to serial one-shot
//! compression on every dataset analogue, the session cache must turn
//! repeat content into cheaper warm hits without changing bytes, the
//! token-bucket scheduler must keep a heavy tenant from
//! starving a light one, and a fault injected into one tenant's job
//! must fail that job alone — typed — while everyone else's work
//! completes. The last three tests put a real `cuszi serve` daemon on
//! a loopback port and send it frames the way slow and fast clients do:
//! in pieces further apart than its read timeout, and two at once.
//!
//! Fault state is process-global, so the fault test serializes against
//! the concurrency tests on one lock (mirroring `fault_matrix.rs`):
//! an armed fault would otherwise trip in a neighbouring test's
//! allocations.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cuszi_cli::serve::{self, ServeConfig, Server};
use cuszi_repro::core::{
    Config, CuszError, CuszI, Engine, EngineConfig, EngineError, StageFaultKind,
};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::gpu_sim::fault::{self, FaultSpec};
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::{NdArray, Shape};

static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

struct Armed;

impl Armed {
    fn new(spec: FaultSpec) -> Armed {
        fault::arm(spec);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn cfg() -> Config {
    Config::new(ErrorBound::Rel(1e-3))
}

/// One small crop per dataset analogue: enough structure to exercise
/// the full pipeline, small enough that eight of them run concurrently
/// inside a test budget.
fn crops(seed: u64) -> Vec<(String, NdArray<f32>)> {
    DatasetKind::ALL
        .iter()
        .map(|kind| {
            let ds = generate(*kind, Scale::Small, seed);
            let f = &ds.fields[0];
            let d = f.data.shape().dims3();
            let ext = [d[0].min(16), d[1].min(16), d[2].min(16)];
            let data = NdArray::from_fn(Shape::d3(ext[0], ext[1], ext[2]), |z, y, x| {
                f.data.get3(z, y, x)
            });
            (format!("t-{}", kind.name().to_lowercase()), data)
        })
        .collect()
}

#[test]
fn eight_concurrent_jobs_match_serial_one_shot_on_all_datasets() {
    let _g = guard();
    let crops = crops(11);
    // Six datasets plus two repeats of the first two: eight jobs in
    // flight against four workers, with duplicate content in the mix.
    let mut jobs: Vec<&(String, NdArray<f32>)> = crops.iter().collect();
    jobs.push(&crops[0]);
    jobs.push(&crops[1]);

    let engine = Engine::new(EngineConfig::default().with_workers(4));
    let tickets: Vec<_> = jobs
        .iter()
        .map(|(tenant, data)| {
            engine.submit_compress(tenant, data.clone(), cfg()).unwrap()
        })
        .collect();
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

    let one_shot = CuszI::new(cfg());
    for ((tenant, data), r) in jobs.iter().zip(results) {
        let serial = one_shot.compress(data).unwrap();
        let c = r.output.into_compressed().unwrap();
        assert_eq!(
            c.bytes, serial.bytes,
            "{tenant}: concurrent engine archive differs from serial one-shot"
        );
        // Round-trip through the engine too.
        let d = engine.decompress(tenant, c.bytes.clone(), cfg()).unwrap();
        let d = d.output.into_decompressed().unwrap();
        assert_eq!(d.data.shape(), data.shape(), "{tenant}: decompressed shape");
    }

    // Steady state: resubmitting now-cached content is a warm hit that
    // still produces identical bytes with fewer kernel launches.
    for (tenant, data) in crops.iter().take(2) {
        let warm = engine.compress(tenant, data.clone(), cfg()).unwrap();
        assert!(warm.cache_hit, "{tenant}: repeat content should hit the session cache");
        let warm_c = warm.output.into_compressed().unwrap();
        let serial = one_shot.compress(data).unwrap();
        assert_eq!(warm_c.bytes, serial.bytes, "{tenant}: warm archive differs");
        assert!(
            warm_c.kernels.len() < serial.kernels.len(),
            "{tenant}: warm hit should skip tune/histogram/codebook kernels ({} vs {})",
            warm_c.kernels.len(),
            serial.kernels.len()
        );
    }
    let s = engine.stats();
    assert!(s.cache_hits >= 2, "expected warm hits, stats: {s:?}");
}

#[test]
fn heavy_tenant_cannot_starve_light_tenant() {
    let _g = guard();
    let crops = crops(12);
    let (heavy, heavy_data) = &crops[0];
    let (light, light_data) = &crops[1];

    // One worker serializes execution so completion order is the
    // scheduler's pick order. The heavy tenant floods the queue; the
    // light tenant then asks for one job, which only its token balance
    // (deficit fairness) can move ahead of the heavy backlog.
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    let heavy_tickets: Vec<_> = (0..12)
        .map(|_| {
            engine.submit_compress(heavy, heavy_data.clone(), cfg()).unwrap()
        })
        .collect();
    let light_ticket = engine.submit_compress(light, light_data.clone(), cfg()).unwrap();

    let light_done = light_ticket.wait().unwrap().done_ns;
    let heavy_done: Vec<u64> =
        heavy_tickets.into_iter().map(|t| t.wait().unwrap().done_ns).collect();
    let jumped_ahead = heavy_done.iter().filter(|&&d| d < light_done).count();
    // At most a couple of heavy jobs can precede the light one: any
    // already in flight when it arrived, plus scheduling slack. A
    // starved light tenant would put it at the back of all twelve.
    assert!(
        jumped_ahead <= 4,
        "light job finished after {jumped_ahead}/12 heavy jobs"
    );
}

#[test]
fn poisoned_job_fails_typed_while_other_tenants_complete() {
    let _g = guard();
    let crops = crops(13);

    // One worker: jobs run serially in submission order (same lane,
    // distinct tenants at full token balance -> round-robin), so the
    // one-shot alloc fault lands in the first job and nowhere else.
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    let _armed = Armed::new(FaultSpec::AllocNth(1));
    let bad =
        engine.submit_compress("t-bad", crops[0].1.clone(), cfg()).unwrap();
    let good: Vec<_> = crops[1..4]
        .iter()
        .map(|(tenant, data)| {
            engine.submit_compress(tenant, data.clone(), cfg()).unwrap()
        })
        .collect();

    match bad.wait() {
        Err(EngineError::Job(
            err @ CuszError::StageError { kind: StageFaultKind::AllocFailed, .. },
        )) => {
            // Typed, stage-attributed, and renderable.
            assert!(!err.stage().is_empty());
            assert!(!format!("{err}").is_empty());
        }
        other => panic!("poisoned job should fail with a typed alloc error, got {other:?}"),
    }
    let serial = CuszI::new(cfg());
    for ((tenant, data), t) in crops[1..4].iter().zip(good) {
        let r = t.wait().unwrap_or_else(|e| panic!("{tenant}: innocent job failed: {e}"));
        let c = r.output.into_compressed().unwrap();
        let reference = serial.compress(data).unwrap();
        assert_eq!(c.bytes, reference.bytes, "{tenant}: archive after a neighbour's fault");
    }
    let s = engine.stats();
    assert_eq!(s.completed, 4, "all jobs (including the failed one) must retire: {s:?}");
}

// --- the daemon against slow and pipelining senders ---------------------------

/// A daemon on an ephemeral port with one client connected, and a
/// compress request with the archive `CuszI::compress` makes of it.
struct Served {
    sock: TcpStream,
    request: Vec<u8>,
    archive: Vec<u8>,
    stop: Arc<AtomicBool>,
    daemon: std::thread::JoinHandle<String>,
}

impl Served {
    fn start() -> Served {
        let server =
            Server::bind(&ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
                .unwrap();
        let sock = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        // A daemon that loses the connection fails the test, not hangs it.
        sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let stop = server.stop_handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());
        let (_, data) = crops(14).swap_remove(0);
        let eb = ErrorBound::Rel(1e-3);
        let request = serve::encode_compress("slow", data.shape(), eb, true, data.as_slice());
        let archive = CuszI::new(Config::new(eb)).compress(&data).unwrap().bytes;
        Served { sock, request, archive, stop, daemon }
    }

    /// The request as frame bytes: length prefix, then body.
    fn frame(&self) -> Vec<u8> {
        let mut f = Vec::new();
        serve::write_frame(&mut f, &self.request).unwrap();
        f
    }

    /// The next reply is the archive, byte for byte.
    fn expect_archive(&mut self, when: &str) {
        let reply = serve::read_frame(&mut self.sock)
            .unwrap_or_else(|e| panic!("{when}: {e}"))
            .unwrap_or_else(|| panic!("{when}: the daemon closed the connection"));
        let error = serve::decode_error(&reply[1..]);
        assert_eq!(reply[0], serve::OP_COMPRESS_OK, "{when}: {error:?}");
        assert_eq!(reply[1..], self.archive[..], "{when}: served archive differs from one-shot");
    }

    /// The connection still serves, and the daemon drains.
    fn finish(mut self, resumed: u64) {
        serve::write_frame(&mut self.sock, &self.request).unwrap();
        self.expect_archive("a further request on the same connection");
        serve::write_frame(&mut self.sock, &[serve::OP_STATS]).unwrap();
        let stats = serve::read_frame(&mut self.sock).unwrap().unwrap();
        let stats = String::from_utf8_lossy(&stats[1..]).into_owned();
        assert!(stats.contains(&format!("cuszi_serve_frames_resumed {resumed}\n")), "{stats}");
        assert!(stats.contains("cuszi_serve_frame_errors 0\n"), "{stats}");
        self.stop.store(true, Ordering::SeqCst);
        drop(self.sock);
        self.daemon.join().unwrap();
    }
}

#[test]
fn a_body_150_ms_behind_its_prefix_is_served() {
    let _g = guard();
    let mut s = Served::start();
    let frame = s.frame();
    s.sock.set_nodelay(true).unwrap();
    s.sock.write_all(&frame[..4]).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    s.sock.write_all(&frame[4..]).unwrap();
    s.expect_archive("prefix, 150 ms, body");
    s.finish(1);
}

#[test]
fn a_frame_dribbled_across_several_read_timeouts_is_served() {
    let _g = guard();
    let mut s = Served::start();
    let frame = s.frame();
    s.sock.set_nodelay(true).unwrap();
    // 1, 7, 1, 7 bytes — through the prefix and into the body — with
    // the daemon's 100 ms read timeout firing in every pause.
    let mut at = 0;
    for piece in [1, 7, 1, 7] {
        s.sock.write_all(&frame[at..at + piece]).unwrap();
        at += piece;
        std::thread::sleep(Duration::from_millis(120));
    }
    s.sock.write_all(&frame[at..]).unwrap();
    s.expect_archive("a dribbled frame");
    s.finish(1);
}

#[test]
fn two_frames_in_one_write_get_two_replies() {
    let _g = guard();
    let mut s = Served::start();
    let two = [s.frame(), s.frame()].concat();
    s.sock.write_all(&two).unwrap();
    s.expect_archive("first of two pipelined frames");
    s.expect_archive("second of two pipelined frames");
    s.finish(0);
}
