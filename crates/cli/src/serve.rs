//! `cuszi serve`: a multi-tenant compression daemon over TCP.
//!
//! The daemon is std-only: a length-prefixed binary frame protocol on
//! a `TcpListener`, one thread per connection, every request funnelled
//! into one shared [`cuszi_core::Engine`], which gives per-tenant
//! fairness, admission backpressure and scoped metrics; each job runs
//! the one-shot pipeline and nothing is cached across requests (see
//! `docs/SERVING.md` for the architecture and knobs).
//!
//! # Frame protocol
//!
//! Every frame is `u32` little-endian body length, then the body. The
//! body's first byte is the opcode:
//!
//! | op     | direction | payload |
//! |--------|-----------|---------|
//! | `0x01` | request   | compress: `tenant_len u8, tenant, rank u8, rank×u64 dims, eb_mode u8 (0=abs 1=rel), eb f64, flags u8 (bit0 = bitcomp), raw f32 LE data` |
//! | `0x02` | request   | decompress: `tenant_len u8, tenant, archive bytes` |
//! | `0x03` | request   | stats (empty payload) |
//! | `0x7F` | request   | shutdown: begin graceful drain (empty payload) |
//! | `0x81` | response  | compress ok: archive bytes |
//! | `0x82` | response  | decompress ok: `rank u8, rank×u64 dims, raw f32 LE data` |
//! | `0x83` | response  | stats: Prometheus text exposition of the engine registry |
//! | `0x84` | response  | shutdown acknowledged |
//! | `0xFF` | response  | error: `stage_len u8, stage, UTF-8 message` (typed stage attribution) |
//!
//! # Frame I/O
//!
//! | rule | where |
//! |------|-------|
//! | a frame leaves as one vectored write of `[length, head, payload]`; accepted sockets set `TCP_NODELAY` | `write_split` (under [`write_frame`] and every reply) |
//! | a partly received frame survives the [`POLL`] read timeout, which only polls the stop flag | `FrameReader::poll` (under [`read_frame`] and every connection) |
//! | the body buffer grows as bytes arrive, never more than what has arrived (or one [`READ_CHUNK`]) ahead of them | `FrameReader::poll` |
//! | a length prefix over [`MAX_FRAME`], or a partial frame silent for [`FRAME_STALL`], gets a `0xFF` frame with stage `frame` and the connection closes | `handle_connection` |
//! | `serve.frame_read_us`, `serve.reply_write_us`, `serve.frames_resumed`, `serve.frame_errors` go to the engine registry (the `0x03` reply) | `handle_connection` |
//!
//! # Drain semantics
//!
//! `SIGINT` or a `0x7F` frame stops the accept loop; in-flight and
//! queued jobs finish (the engine drains), open connections get their
//! responses, and the run summary reports totals. No new connections
//! are admitted while draining, and a connection that is idle or in
//! the middle of receiving a frame closes at its next poll.

use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuszi_core::{Config, Engine, EngineConfig, EngineError};
use cuszi_quant::ErrorBound;
use cuszi_tensor::{NdArray, Shape};

use crate::CliError;

/// Request opcodes.
pub const OP_COMPRESS: u8 = 0x01;
pub const OP_DECOMPRESS: u8 = 0x02;
pub const OP_STATS: u8 = 0x03;
pub const OP_SHUTDOWN: u8 = 0x7F;
/// Response opcodes.
pub const OP_COMPRESS_OK: u8 = 0x81;
pub const OP_DECOMPRESS_OK: u8 = 0x82;
pub const OP_STATS_OK: u8 = 0x83;
pub const OP_SHUTDOWN_OK: u8 = 0x84;
pub const OP_ERROR: u8 = 0xFF;

/// Largest accepted frame body. A larger length prefix is refused; a
/// smaller one allocates nothing until its bytes arrive.
pub const MAX_FRAME: usize = 1 << 30;

/// Read timeout of an accepted socket: how often a connection thread
/// that is waiting for bytes looks at the stop flag.
pub const POLL: Duration = Duration::from_millis(100);

/// Longest silence inside a partly received frame before the daemon
/// gives the frame up, so that a peer which sends half a frame and
/// stops cannot hold a thread and a buffer for ever.
pub const FRAME_STALL: Duration = Duration::from_secs(10);

/// Least the body buffer grows by at a time; past this size it doubles.
pub const READ_CHUNK: usize = 64 << 10;

/// Server knobs, straight from `cuszi serve` flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub addr: String,
    pub workers: usize,
    pub max_inflight: usize,
    /// Simulated devices the engine places jobs onto (least-loaded,
    /// ties rotating).
    pub devices: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:7070".into(), workers: 2, max_inflight: 2, devices: 1 }
    }
}

// --- SIGINT ---------------------------------------------------------------

static SIGINT: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    SIGINT.store(true, Ordering::SeqCst);
}

/// Install the SIGINT handler (idempotent). libstd already links libc,
/// so the raw `signal(2)` declaration needs no extra dependency.
pub fn install_sigint() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT_NO: i32 = 2;
    unsafe {
        signal(SIGINT_NO, on_sigint);
    }
}

/// The process-wide interrupt flag the accept loop polls (exposed so
/// tests can trigger a drain without delivering a real signal).
pub fn sigint_flag() -> &'static AtomicBool {
    &SIGINT
}

// --- Frame I/O --------------------------------------------------------------

/// The one frame writer: length prefix, `head` and `payload` in a
/// single vectored write (more only if the writer takes part of it),
/// so a frame never sits behind its own prefix waiting on Nagle's
/// algorithm and the peer's delayed ACK.
fn write_split(w: &mut impl Write, head: &[u8], payload: &[u8]) -> io::Result<()> {
    let n = head.len() + payload.len();
    if n > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!("frame of {n} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let prefix = (n as u32).to_le_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(head), IoSlice::new(payload)];
    let mut left = &mut parts[..];
    // Advancing by zero drops leading empty parts (an empty `head`).
    IoSlice::advance_slices(&mut left, 0);
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => IoSlice::advance_slices(&mut left, k),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    write_split(w, &[], body)
}

/// A complete frame and how it arrived.
#[derive(Debug)]
struct Frame {
    body: Vec<u8>,
    /// First byte read to last byte read.
    read_time: Duration,
    /// Read timeouts that fired while the frame was partly received.
    timeouts: u32,
}

/// What one [`FrameReader::poll`] came to.
#[derive(Debug)]
enum Poll {
    Frame(Frame),
    /// The peer closed at a frame boundary.
    Eof,
    /// The read timed out (or would block). What has arrived of the
    /// frame is kept; poll again.
    Pending,
}

/// The one frame reader: a resumable state machine, one per
/// connection, holding the prefix bytes and the body received so far
/// (what is still owed follows from the two).
#[derive(Debug, Default)]
struct FrameReader {
    prefix: [u8; 4],
    have: usize,
    body: Vec<u8>,
    /// When the current frame's first and latest bytes were read;
    /// `None` between frames.
    arrival: Option<(Instant, Instant)>,
    timeouts: u32,
}

impl FrameReader {
    /// Read on from where the last call stopped, until a frame is
    /// complete, the peer closes or the read times out. `now` is the
    /// clock (`Instant::now`; tests script it).
    ///
    /// Errors: `InvalidData` for a length prefix over [`MAX_FRAME`],
    /// `TimedOut` for a partial frame silent for [`FRAME_STALL`] (a
    /// read that merely times out is [`Poll::Pending`], so `TimedOut`
    /// means nothing else), `UnexpectedEof` for a close inside a
    /// frame, and whatever else the reader reports. After an error the
    /// position in the stream is unknown; the connection is done.
    fn poll(&mut self, r: &mut impl Read, now: impl Fn() -> Instant) -> io::Result<Poll> {
        while self.have < 4 {
            match r.read(&mut self.prefix[self.have..]) {
                Ok(0) if self.have == 0 => return Ok(Poll::Eof),
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(k) => {
                    self.have += k;
                    self.arrived(now());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return self.read_failed(e, now()),
            }
        }
        let n = u32::from_le_bytes(self.prefix) as usize;
        if n > MAX_FRAME {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("frame of {n} bytes exceeds the {MAX_FRAME} byte cap"),
            ));
        }
        while self.body.len() < n {
            // Room for what is owed, but for no more than has already
            // arrived (or one chunk): the prefix alone commands nothing.
            let at = self.body.len();
            let step = (n - at).min(at.max(READ_CHUNK));
            self.body.try_reserve_exact(step).map_err(|_| ErrorKind::OutOfMemory)?;
            // `read_to_end` appends what it read even when it fails.
            let res = (&mut *r).take(step as u64).read_to_end(&mut self.body);
            let got = self.body.len() - at;
            if got > 0 {
                self.arrived(now());
            }
            match res {
                Ok(_) if got < step => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) => return self.read_failed(e, now()),
            }
        }
        self.have = 0;
        Ok(Poll::Frame(Frame {
            body: std::mem::take(&mut self.body),
            read_time: self.arrival.take().map_or(Duration::ZERO, |(first, last)| last - first),
            timeouts: std::mem::take(&mut self.timeouts),
        }))
    }

    fn arrived(&mut self, t: Instant) {
        let first = self.arrival.map_or(t, |(first, _)| first);
        self.arrival = Some((first, t));
    }

    fn read_failed(&mut self, e: io::Error, t: Instant) -> io::Result<Poll> {
        if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            return Err(e);
        }
        if let Some((_, last)) = self.arrival {
            if t.duration_since(last) >= FRAME_STALL {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    format!(
                        "frame stalled after {} bytes: nothing more in {FRAME_STALL:?}",
                        self.have + self.body.len()
                    ),
                ));
            }
            self.timeouts += 1;
        }
        Ok(Poll::Pending)
    }
}

/// Read one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary. A read timeout the caller set on `r` comes back as
/// `WouldBlock`, and what had arrived of the frame is dropped.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    match FrameReader::default().poll(r, Instant::now)? {
        Poll::Frame(f) => Ok(Some(f.body)),
        Poll::Eof => Ok(None),
        Poll::Pending => Err(ErrorKind::WouldBlock.into()),
    }
}

// --- Bodies ------------------------------------------------------------------

/// Append `data` as little-endian bytes.
fn extend_f32s_le(b: &mut Vec<u8>, data: &[f32]) {
    b.reserve(data.len() * 4);
    b.extend(data.iter().flat_map(|v| v.to_le_bytes()));
}

/// Encode a compress request body.
pub fn encode_compress(
    tenant: &str,
    shape: Shape,
    eb: ErrorBound,
    bitcomp: bool,
    data: &[f32],
) -> Vec<u8> {
    let dims = shape.dims();
    let mut b = Vec::with_capacity(16 + tenant.len() + dims.len() * 8 + data.len() * 4);
    b.push(OP_COMPRESS);
    b.push(tenant.len() as u8);
    b.extend_from_slice(tenant.as_bytes());
    push_dims(&mut b, dims);
    match eb {
        ErrorBound::Abs(e) => {
            b.push(0);
            b.extend_from_slice(&e.to_le_bytes());
        }
        ErrorBound::Rel(e) => {
            b.push(1);
            b.extend_from_slice(&e.to_le_bytes());
        }
    }
    b.push(u8::from(bitcomp));
    extend_f32s_le(&mut b, data);
    b
}

/// `rank u8, rank×u64 dims`.
fn push_dims(b: &mut Vec<u8>, dims: &[usize]) {
    b.push(dims.len() as u8);
    for &d in dims {
        b.extend_from_slice(&(d as u64).to_le_bytes());
    }
}

/// Encode a decompress request body.
pub fn encode_decompress(tenant: &str, archive: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + tenant.len() + archive.len());
    b.push(OP_DECOMPRESS);
    b.push(tenant.len() as u8);
    b.extend_from_slice(tenant.as_bytes());
    b.extend_from_slice(archive);
    b
}

/// Decode an error response body (after the opcode byte) into
/// `(stage, message)`.
pub fn decode_error(body: &[u8]) -> Option<(String, String)> {
    let n = *body.first()? as usize;
    let stage = std::str::from_utf8(body.get(1..1 + n)?).ok()?.to_string();
    let msg = String::from_utf8_lossy(body.get(1 + n..)?).to_string();
    Some((stage, msg))
}

/// A reply body in two parts, so that an archive or a reconstructed
/// field goes to the socket from the buffer it is already in instead
/// of being copied behind its opcode first.
struct Reply {
    /// Opcode and whatever small fields follow it.
    head: Vec<u8>,
    payload: Vec<u8>,
}

impl Reply {
    fn head(head: Vec<u8>) -> Reply {
        Reply { head, payload: Vec::new() }
    }

    fn error(stage: &str, msg: &str) -> Reply {
        // The stage's length travels in one byte; cut on a character
        // boundary so the stage stays UTF-8.
        let stage = &stage[..stage.floor_char_boundary(255)];
        let mut b = Vec::with_capacity(2 + stage.len() + msg.len());
        b.push(OP_ERROR);
        b.push(stage.len() as u8);
        b.extend_from_slice(stage.as_bytes());
        b.extend_from_slice(msg.as_bytes());
        Reply::head(b)
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8).map(|s| u64::from_le_bytes(s.try_into().unwrap_or([0; 8])))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn tenant(&mut self) -> Option<String> {
        let n = self.u8()? as usize;
        std::str::from_utf8(self.bytes(n)?).ok().map(str::to_string)
    }

    fn rest(self) -> &'a [u8] {
        self.b.get(self.pos..).unwrap_or(&[])
    }
}

// --- Server ----------------------------------------------------------------

/// A bound, not-yet-running daemon. Split from [`Server::run`] so
/// callers (and tests) learn the ephemeral port before serving.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
}

impl Server {
    /// Bind the listener and start the engine workers.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, CliError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| CliError(format!("cannot bind {}: {e}", cfg.addr)))?;
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(cfg.workers)
                .with_max_inflight(cfg.max_inflight)
                .with_devices(cfg.devices),
        );
        // Counters that may never tick still show in the stats text.
        let registry = engine.registry();
        registry.count("serve.frames_resumed", 0);
        registry.count("serve.frame_errors", 0);
        Ok(Server {
            listener,
            engine: Arc::new(engine),
            stop: Arc::new(AtomicBool::new(false)),
            requests: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The bound address (the actual port when `--addr` used port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, CliError> {
        self.listener.local_addr().map_err(|e| CliError(e.to_string()))
    }

    /// A handle that makes [`Server::run`] drain and return when set
    /// (same path as SIGINT and the shutdown frame).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The shared engine (for load generators and tests that need to
    /// observe its admission counters and scoped metrics while the
    /// daemon runs).
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Accept connections until SIGINT, a shutdown frame, or the stop
    /// handle; then drain the engine and return a run summary.
    pub fn run(self) -> Result<String, CliError> {
        // The listener does not block and the loop sleeps 25 ms between
        // looks, because this thread has two things to watch — new
        // connections and the stop flag — and `accept` has no timeout.
        // `conns` keeps the handles so the drain below can join every
        // connection thread after its last reply. (The connection
        // threads poll the same flag from their own read timeout.)
        self.listener.set_nonblocking(true).map_err(|e| CliError(e.to_string()))?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) || SIGINT.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((sock, _peer)) => {
                    // Replies are single writes; nothing is gained by
                    // holding one back for the peer's ACK.
                    let _ = sock.set_nodelay(true);
                    // Not a deadline for the frame: `FrameReader` keeps
                    // a partial frame across it. It only bounds how
                    // long a drain waits for a thread blocked in `read`.
                    let _ = sock.set_read_timeout(Some(POLL));
                    let engine = Arc::clone(&self.engine);
                    let stop = Arc::clone(&self.stop);
                    let requests = Arc::clone(&self.requests);
                    let spawned = std::thread::Builder::new()
                        .name("cuszi-serve-conn".into())
                        .spawn(move || handle_connection(sock, &engine, &stop, &requests));
                    if let Ok(h) = spawned {
                        conns.push(h);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(CliError(format!("accept failed: {e}"))),
            }
            conns.retain(|h| !h.is_finished());
        }
        // Drain: stop admitting (the engine rejects new submissions),
        // finish queued + in-flight jobs, let connection threads flush
        // their final responses.
        self.engine.drain();
        for h in conns {
            let _ = h.join();
        }
        let s = self.engine.stats();
        let by_device = if s.devices > 1 {
            let counts: Vec<String> =
                (0..s.devices).map(|d| format!("dev{d}:{}", s.device_jobs[d])).collect();
            format!(", jobs by device [{}]", counts.join(" "))
        } else {
            String::new()
        };
        Ok(format!(
            "drained: {} requests served, {} jobs completed ({} rejected){by_device}\n",
            self.requests.load(Ordering::Relaxed),
            s.completed,
            s.rejected,
        ))
    }
}

/// Serve until interrupted; the `cuszi serve` subcommand body.
pub fn serve(cfg: &ServeConfig) -> Result<String, CliError> {
    install_sigint();
    let server = Server::bind(cfg)?;
    let addr = server.local_addr()?;
    println!(
        "cuszi serve: listening on {addr} ({} workers, {} in-flight, {} device{})",
        cfg.workers,
        cfg.max_inflight,
        cfg.devices,
        if cfg.devices == 1 { "" } else { "s" }
    );
    server.run()
}

fn handle_connection(
    mut sock: TcpStream,
    engine: &Engine,
    stop: &AtomicBool,
    requests: &AtomicU64,
) {
    let registry = engine.registry();
    let mut reader = FrameReader::default();
    loop {
        let frame = match reader.poll(&mut sock, Instant::now) {
            Ok(Poll::Frame(f)) => f,
            Ok(Poll::Eof) => return,
            Ok(Poll::Pending) => {
                // Idle or mid-frame alike: wait on, unless draining.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) => {
                registry.count("serve.frame_errors", 1);
                // An oversized prefix or a stalled frame is the peer's
                // doing: say so before closing. Any other error is the
                // socket's, and there is nobody to tell.
                if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::TimedOut) {
                    let reply = Reply::error("frame", &e.to_string());
                    let _ = write_split(&mut sock, &reply.head, &reply.payload);
                }
                return;
            }
        };
        requests.fetch_add(1, Ordering::Relaxed);
        registry.observe("serve.frame_read_us", frame.read_time.as_micros() as u64);
        if frame.timeouts > 0 {
            registry.count("serve.frames_resumed", 1);
        }
        let shutdown = frame.body.first() == Some(&OP_SHUTDOWN);
        let reply = dispatch(frame.body, engine, stop);
        let t = Instant::now();
        let sent = write_split(&mut sock, &reply.head, &reply.payload);
        registry.observe("serve.reply_write_us", t.elapsed().as_micros() as u64);
        // During a drain the current request's reply is flushed, then
        // the connection closes — no new work is accepted.
        if sent.is_err() || shutdown || stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn dispatch(body: Vec<u8>, engine: &Engine, stop: &AtomicBool) -> Reply {
    match body.first().copied() {
        Some(OP_COMPRESS) => handle_compress(&body[1..], engine),
        Some(OP_DECOMPRESS) => handle_decompress(body, engine),
        Some(OP_STATS) => {
            let mut b = vec![OP_STATS_OK];
            b.extend_from_slice(engine.metrics().render_prometheus().as_bytes());
            Reply::head(b)
        }
        Some(OP_SHUTDOWN) => {
            stop.store(true, Ordering::SeqCst);
            Reply::head(vec![OP_SHUTDOWN_OK])
        }
        _ => Reply::error("parse", "unknown opcode"),
    }
}

fn engine_error(e: &EngineError) -> Reply {
    match e {
        EngineError::Job(err) => Reply::error(err.stage(), &err.to_string()),
        EngineError::Overloaded { .. } => Reply::error("admission", &e.to_string()),
        EngineError::ShuttingDown => Reply::error("admission", &e.to_string()),
        EngineError::Canceled => Reply::error("engine", &e.to_string()),
    }
}

fn handle_compress(payload: &[u8], engine: &Engine) -> Reply {
    let mut c = Cursor { b: payload, pos: 0 };
    let parsed = (|| {
        let tenant = c.tenant()?;
        let rank = c.u8()? as usize;
        if !(1..=3).contains(&rank) {
            return None;
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(usize::try_from(c.u64()?).ok()?);
        }
        let shape = Shape::from_dims(&dims)?;
        let eb_mode = c.u8()?;
        let e = c.f64()?;
        let eb = match eb_mode {
            0 => ErrorBound::Abs(e),
            1 => ErrorBound::Rel(e),
            _ => return None,
        };
        let flags = c.u8()?;
        Some((tenant, shape, eb, flags & 1 != 0))
    })();
    let Some((tenant, shape, eb, bitcomp)) = parsed else {
        return Reply::error("parse", "malformed compress request");
    };
    let raw = c.rest();
    if raw.len() != shape.len() * 4 {
        return Reply::error(
            "validate",
            &format!("dims {shape} need {} data bytes, got {}", shape.len() * 4, raw.len()),
        );
    }
    // An exact-size iterator: one allocation, filled at copy speed.
    let vals: Vec<f32> =
        raw.chunks_exact(4).map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]])).collect();
    let data = NdArray::from_vec(shape, vals);
    let mut cfg = Config::new(eb);
    if !bitcomp {
        cfg = cfg.without_bitcomp();
    }
    match engine.compress(&tenant, data, cfg) {
        Ok(r) => match r.output.into_compressed() {
            Some(comp) => Reply { head: vec![OP_COMPRESS_OK], payload: comp.bytes },
            None => Reply::error("engine", "compress job returned a decompress output"),
        },
        Err(e) => engine_error(&e),
    }
}

/// `body` is the whole frame body, opcode included: the archive is
/// split off it in place and handed to the engine.
fn handle_decompress(mut body: Vec<u8>, engine: &Engine) -> Reply {
    let mut c = Cursor { b: &body, pos: 1 };
    let Some(tenant) = c.tenant() else {
        return Reply::error("parse", "malformed decompress request");
    };
    let archive_at = c.pos;
    body.drain(..archive_at);
    // An archive describes itself; of this `Config` decompression reads
    // the device model only, so the bound is a placeholder nobody sees.
    let unused_bound = ErrorBound::Rel(1e-3);
    match engine.decompress(&tenant, body, Config::new(unused_bound)) {
        Ok(r) => match r.output.into_decompressed() {
            Some(d) => {
                let mut head = vec![OP_DECOMPRESS_OK];
                push_dims(&mut head, d.data.shape().dims());
                let mut payload = Vec::new();
                extend_f32s_le(&mut payload, d.data.as_slice());
                Reply { head, payload }
            }
            None => Reply::error("engine", "decompress job returned a compress output"),
        },
        Err(e) => engine_error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_core::CuszI;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(12, 12, 12), |z, y, x| {
            ((x as f32) * 0.3).sin() + (y as f32) * 0.04 + (z as f32) * 0.01
        })
    }

    fn start_server() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<String>) {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_inflight: 2,
            devices: 2,
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let h = std::thread::spawn(move || server.run().unwrap());
        (addr, stop, h)
    }

    fn roundtrip(sock: &mut TcpStream, body: &[u8]) -> Vec<u8> {
        write_frame(sock, body).unwrap();
        read_frame(sock).unwrap().expect("response frame")
    }

    #[test]
    fn daemon_roundtrips_and_matches_one_shot() {
        let (addr, _stop, h) = start_server();
        let mut sock = TcpStream::connect(addr).unwrap();
        let data = field();
        let eb = ErrorBound::Rel(1e-3);

        let req = encode_compress("t0", data.shape(), eb, true, data.as_slice());
        let resp = roundtrip(&mut sock, &req);
        assert_eq!(resp[0], OP_COMPRESS_OK, "{:?}", decode_error(&resp[1..]));
        let archive = resp[1..].to_vec();
        let serial = CuszI::new(Config::new(eb)).compress(&data).unwrap();
        assert_eq!(archive, serial.bytes, "served archive is byte-identical to one-shot");

        let resp = roundtrip(&mut sock, &encode_decompress("t0", &archive));
        assert_eq!(resp[0], OP_DECOMPRESS_OK);
        let rank = resp[1] as usize;
        assert_eq!(rank, 3);
        let raw = &resp[2 + rank * 8..];
        let recon = CuszI::new(Config::new(eb)).decompress(&archive).unwrap();
        let mut want = Vec::new();
        extend_f32s_le(&mut want, recon.data.as_slice());
        assert_eq!(raw, want, "served field is byte-identical to one-shot");

        let resp = roundtrip(&mut sock, &[OP_STATS]);
        assert_eq!(resp[0], OP_STATS_OK);
        let text = String::from_utf8_lossy(&resp[1..]);
        assert!(text.contains("cuszi_engine_jobs"), "{text}");
        // Wire time beside engine time: this is the third frame read
        // and two replies have been written.
        assert!(text.contains("cuszi_engine_service_us_count 2"), "{text}");
        assert!(text.contains("cuszi_serve_frame_read_us_count 3"), "{text}");
        assert!(text.contains("cuszi_serve_reply_write_us_count 2"), "{text}");
        assert!(text.contains("cuszi_serve_frames_resumed 0"), "{text}");
        assert!(text.contains("cuszi_serve_frame_errors 0"), "{text}");

        let resp = roundtrip(&mut sock, &[OP_SHUTDOWN]);
        assert_eq!(resp[0], OP_SHUTDOWN_OK);
        let summary = h.join().unwrap();
        assert!(summary.contains("drained"), "{summary}");
    }

    #[test]
    fn bad_requests_get_typed_errors_and_the_daemon_survives() {
        let (addr, stop, h) = start_server();
        let mut sock = TcpStream::connect(addr).unwrap();

        let resp = roundtrip(&mut sock, &[0x42]);
        assert_eq!(resp[0], OP_ERROR);
        assert_eq!(decode_error(&resp[1..]).unwrap().0, "parse");

        // Compress body shorter than its dims claim.
        let mut req = encode_compress("t", Shape::d1(64), ErrorBound::Abs(1e-3), true, &[0.0; 8]);
        req.truncate(req.len() - 4);
        let resp = roundtrip(&mut sock, &req);
        assert_eq!(resp[0], OP_ERROR);
        assert_eq!(decode_error(&resp[1..]).unwrap().0, "validate");

        // Garbage archive: typed stage attribution from the pipeline.
        let resp = roundtrip(&mut sock, &encode_decompress("t", &[1, 2, 3]));
        assert_eq!(resp[0], OP_ERROR);
        let (stage, msg) = decode_error(&resp[1..]).unwrap();
        assert_eq!(stage, "parse", "{msg}");

        // Daemon still serves after all that.
        let data = field();
        let req = encode_compress("t", data.shape(), ErrorBound::Rel(1e-3), true, data.as_slice());
        assert_eq!(roundtrip(&mut sock, &req)[0], OP_COMPRESS_OK);

        stop.store(true, Ordering::SeqCst);
        drop(sock);
        h.join().unwrap();
    }

    #[test]
    fn stop_handle_drains_in_flight_work() {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_inflight: 2,
            devices: 1,
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let engine = server.engine();
        let h = std::thread::spawn(move || server.run().unwrap());
        let mut sock = TcpStream::connect(addr).unwrap();
        let data = field();
        let req = encode_compress("t", data.shape(), ErrorBound::Rel(1e-3), true, data.as_slice());
        write_frame(&mut sock, &req).unwrap();
        // Wait until the request has been admitted to the engine, then
        // trigger the SIGINT-equivalent drain: the in-flight response
        // must still arrive.
        while {
            let s = engine.stats();
            s.queued + s.inflight + s.completed as usize == 0
        } {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        let resp = read_frame(&mut sock).unwrap().expect("drain delivered the response");
        assert_eq!(resp[0], OP_COMPRESS_OK);
        let summary = h.join().unwrap();
        assert!(summary.contains("jobs completed"), "{summary}");
    }

    #[test]
    fn sigint_flag_is_wired() {
        install_sigint();
        assert!(!sigint_flag().load(Ordering::SeqCst));
        on_sigint(2);
        assert!(sigint_flag().load(Ordering::SeqCst));
        sigint_flag().store(false, Ordering::SeqCst);
    }

    #[test]
    fn oversized_prefix_gets_a_frame_error_and_a_close() {
        let server =
            Server::bind(&ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
                .unwrap();
        let addr = server.local_addr().unwrap();
        let (stop, engine) = (server.stop_handle(), server.engine());
        let h = std::thread::spawn(move || server.run().unwrap());
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
        let resp = read_frame(&mut sock).unwrap().expect("an error frame, not a silent close");
        assert_eq!(resp[0], OP_ERROR);
        let (stage, msg) = decode_error(&resp[1..]).unwrap();
        assert_eq!(stage, "frame");
        assert!(msg.contains("exceeds"), "{msg}");
        assert!(read_frame(&mut sock).unwrap().is_none(), "then the daemon closes");
        assert_eq!(engine.metrics().counters["serve.frame_errors"], 1);
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
    }

    #[test]
    fn drain_closes_idle_and_mid_frame_connections_at_their_next_poll() {
        let (addr, stop, h) = start_server();
        let mut idle = TcpStream::connect(addr).unwrap();
        let mut partial = TcpStream::connect(addr).unwrap();
        // A prefix that promises 1000 bytes, and 10 of them.
        partial.write_all(&1000u32.to_le_bytes()).unwrap();
        partial.write_all(&[OP_STATS; 10]).unwrap();
        std::thread::sleep(POLL * 2);
        stop.store(true, Ordering::SeqCst);
        let t = Instant::now();
        h.join().unwrap();
        assert!(t.elapsed() < POLL * 5, "drain waited {:?} on waiting connections", t.elapsed());
        assert!(read_frame(&mut idle).unwrap().is_none());
        assert!(read_frame(&mut partial).unwrap().is_none());
    }

    // --- FrameReader on a scripted reader -------------------------------

    /// A reader that hands out scripted chunks; `None` is a read that
    /// times out. Past the script's end it reads as closed.
    struct Script(VecDeque<Option<Vec<u8>>>);

    impl Script {
        fn new(steps: impl IntoIterator<Item = Option<Vec<u8>>>) -> Script {
            Script(steps.into_iter().collect())
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let k = chunk.len().min(buf.len());
                    buf[..k].copy_from_slice(&chunk[..k]);
                    if k < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(k)));
                    }
                    Ok(k)
                }
            }
        }
    }

    fn frame_bytes(body: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        write_frame(&mut b, body).unwrap();
        b
    }

    #[test]
    fn a_prefix_commands_no_allocation_beyond_what_arrives() {
        let mut reader = FrameReader::default();
        let mut r =
            Script::new([Some((MAX_FRAME as u32).to_le_bytes().to_vec()), Some(vec![7; 10]), None]);
        assert!(matches!(reader.poll(&mut r, Instant::now), Ok(Poll::Pending)));
        assert_eq!(reader.body.len(), 10);
        assert!(
            reader.body.capacity() <= 10 + READ_CHUNK,
            "1 GiB promised, 10 bytes sent, {} reserved",
            reader.body.capacity()
        );
        // Past one chunk the buffer doubles: room for as much again as
        // has arrived, still nowhere near the promise.
        r.0.extend([Some(vec![7; 3 * READ_CHUNK]), None]);
        assert!(matches!(reader.poll(&mut r, Instant::now), Ok(Poll::Pending)));
        let got = 10 + 3 * READ_CHUNK;
        assert_eq!(reader.body.len(), got);
        assert!(reader.body.capacity() <= 2 * got, "{} reserved", reader.body.capacity());
    }

    #[test]
    fn an_oversized_prefix_is_refused_before_any_body_byte() {
        let mut reader = FrameReader::default();
        let mut r = Script::new([Some((MAX_FRAME as u32 + 1).to_le_bytes().to_vec())]);
        let e = reader.poll(&mut r, Instant::now).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidData);
        assert_eq!(reader.body.capacity(), 0);
    }

    #[test]
    fn a_partial_frame_survives_timeouts_but_not_frame_stall() {
        let start = Instant::now();
        let clock = Cell::new(start);
        let mut reader = FrameReader::default();
        // Idle for longer than FRAME_STALL: no frame has begun, so
        // nothing stalls.
        let mut r = Script::new([None]);
        clock.set(start + FRAME_STALL * 2);
        assert!(matches!(reader.poll(&mut r, || clock.get()), Ok(Poll::Pending)));
        // Two bytes of the prefix, a timeout, the rest and half the
        // body, a timeout just short of the limit, then the end.
        let bytes = frame_bytes(&[OP_STATS; 40]);
        let mut r = Script::new([
            Some(bytes[..2].to_vec()),
            None,
            Some(bytes[2..24].to_vec()),
            None,
            Some(bytes[24..].to_vec()),
        ]);
        assert!(matches!(reader.poll(&mut r, || clock.get()), Ok(Poll::Pending)));
        assert!(matches!(reader.poll(&mut r, || clock.get()), Ok(Poll::Pending)));
        clock.set(clock.get() + FRAME_STALL - Duration::from_millis(1));
        match reader.poll(&mut r, || clock.get()) {
            Ok(Poll::Frame(f)) => {
                assert_eq!(f.body, [OP_STATS; 40]);
                assert_eq!(f.timeouts, 2);
                assert_eq!(f.read_time, FRAME_STALL - Duration::from_millis(1));
            }
            other => panic!("{other:?}"),
        }
        // The same half frame, then silence for FRAME_STALL.
        let mut r = Script::new([Some(bytes[..24].to_vec()), None, None]);
        assert!(matches!(reader.poll(&mut r, || clock.get()), Ok(Poll::Pending)));
        clock.set(clock.get() + FRAME_STALL);
        let e = reader.poll(&mut r, || clock.get()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::TimedOut);
        assert!(e.to_string().contains("stalled after 24 bytes"), "{e}");
    }

    #[test]
    fn a_close_inside_a_frame_is_an_error_and_at_a_boundary_is_not() {
        let bytes = frame_bytes(b"abcdef");
        for cut in 1..bytes.len() {
            let mut r = Script::new([Some(bytes[..cut].to_vec())]);
            let e = FrameReader::default().poll(&mut r, Instant::now).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let mut r = Script::new([Some(bytes)]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"abcdef"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// A writer that takes at most `limit` bytes a call and records
    /// each call.
    struct Trickle {
        limit: usize,
        calls: Vec<Vec<u8>>,
        vectored: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let k = buf.len().min(self.limit);
            self.calls.push(buf[..k].to_vec());
            Ok(k)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.vectored {
                return self.write(bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b));
            }
            let all: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            self.write(&all)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write_and_partial_writes_lose_nothing() {
        let reply = Reply { head: vec![OP_DECOMPRESS_OK, 1, 2], payload: vec![9; 100] };
        let mut want = 103u32.to_le_bytes().to_vec();
        want.extend_from_slice(&reply.head);
        want.extend_from_slice(&reply.payload);

        let mut w = Trickle { limit: usize::MAX, calls: Vec::new(), vectored: true };
        write_split(&mut w, &reply.head, &reply.payload).unwrap();
        assert_eq!(w.calls, [want.clone()], "prefix, head and payload in one write");

        let mut w = Trickle { limit: usize::MAX, calls: Vec::new(), vectored: true };
        write_frame(&mut w, &want[4..]).unwrap();
        assert_eq!(w.calls, [want.clone()], "write_frame is the same writer");

        for (limit, vectored) in [(1, true), (5, true), (7, false), (64, false)] {
            let mut w = Trickle { limit, calls: Vec::new(), vectored };
            write_split(&mut w, &reply.head, &reply.payload).unwrap();
            assert_eq!(w.calls.concat(), want, "limit {limit}, vectored {vectored}");
        }
    }

    #[test]
    fn an_error_stage_is_cut_on_a_character_boundary() {
        // 127 two-byte characters and one more: 256 bytes, and byte 255
        // is inside the last character.
        let stage = "é".repeat(128);
        let reply = Reply::error(&stage, "msg");
        assert_eq!(reply.head[1], 254);
        let (got, msg) = decode_error(&reply.head[1..]).expect("the stage is still UTF-8");
        assert_eq!(got, "é".repeat(127));
        assert_eq!(msg, "msg");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However a stream of frames is cut into reads, and wherever
        /// reads time out in between, the reader yields exactly those
        /// frames and then a clean end.
        #[test]
        fn prop_any_split_of_a_frame_stream_yields_its_frames(
            bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..5),
            cuts in proptest::collection::vec((1usize..64, any::<bool>()), 1..40),
        ) {
            let stream: Vec<u8> = bodies.iter().flat_map(|b| frame_bytes(b)).collect();
            let mut steps = Vec::new();
            let mut at = 0;
            for &(len, timeout) in cuts.iter().cycle() {
                if at == stream.len() {
                    break;
                }
                let end = (at + len).min(stream.len());
                steps.push(Some(stream[at..end].to_vec()));
                at = end;
                if timeout {
                    steps.push(None);
                }
            }
            let mut r = Script::new(steps);
            let mut reader = FrameReader::default();
            let mut got = Vec::new();
            loop {
                match reader.poll(&mut r, Instant::now) {
                    Ok(Poll::Frame(f)) => got.push(f.body),
                    Ok(Poll::Pending) => {}
                    Ok(Poll::Eof) => break,
                    Err(e) => prop_assert!(false, "{e}"),
                }
            }
            prop_assert_eq!(got, bodies);
        }
    }
}
