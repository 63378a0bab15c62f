//! The closed loops that drive the entry points: `CuszI` one-shot
//! calls, the batch/slab containers on gpu-sim streams, and the
//! `cuszi serve` daemon over loopback TCP. Each loop times every call
//! on its own, checks the call's output against a reference outside the
//! timed region, and records a span around the call when given a
//! recorder. The untraced and the traced run share these loops.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuszi_cli::serve::{self, ServeConfig, Server};
use cuszi_core::{Config, CuszI, NamedField, ScheduleReport};
use cuszi_gpu_sim::KernelStats;
use cuszi_tensor::{NdArray, Shape};

use crate::inputs::{Field, Fnv, Inputs, Request};
use crate::spans::{next_op, span, Recorder};
use crate::stats::median;

/// How long a loop runs: until `dur` has passed and at least
/// `min_passes` passes are done.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub dur: Duration,
    pub min_passes: usize,
}

impl Budget {
    /// Whether a loop that began at `started` and has done `passes`
    /// passes goes on.
    pub fn more(&self, started: Instant, passes: usize) -> bool {
        passes < self.min_passes || started.elapsed() < self.dur
    }
}

/// Timings of one class of call: every call of the class moves `bytes`
/// uncompressed bytes.
#[derive(Clone, Debug, Default)]
pub struct Slot {
    pub bytes: u64,
    pub ms: Vec<f64>,
}

/// What a loop measured.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    pub compress: Vec<Slot>,
    pub decompress: Vec<Slot>,
    /// One entry per request: a dataset round trip in process, a frame
    /// exchange over TCP.
    pub latency_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the loop, verification between calls included.
    pub wall_s: f64,
    /// What the first failed call reported.
    pub first_failure: Option<String>,
}

impl LoopStats {
    /// Compress and decompress slots of calls that move `bytes[slot]`
    /// uncompressed bytes each way.
    fn with_slots(bytes: &[u64]) -> LoopStats {
        let slots = || {
            bytes
                .iter()
                .map(|&bytes| Slot {
                    bytes,
                    ms: Vec::new(),
                })
                .collect()
        };
        LoopStats {
            compress: slots(),
            decompress: slots(),
            ..Default::default()
        }
    }

    /// Check one call's outcome; `Ok(false)` and `Err` both count as a
    /// failed operation.
    fn check(&mut self, what: &str, outcome: Result<bool, String>) {
        self.attempted += 1;
        let problem = match outcome {
            Ok(true) => return,
            Ok(false) => format!("{what}: output differs from the verified reference"),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        self.first_failure.get_or_insert(problem);
    }

    /// Time the calls of `slots` took, each class at its median, ms.
    pub fn busy_ms(slots: &[Slot]) -> f64 {
        slots
            .iter()
            .map(|s| s.ms.len() as f64 * median(&s.ms))
            .sum()
    }

    /// Uncompressed decimal MB per second through `slots`: the bytes of
    /// the calls over the calls' time, each class at its median.
    pub fn mbps(slots: &[Slot]) -> f64 {
        let bytes: f64 = slots
            .iter()
            .map(|s| s.ms.len() as f64 * s.bytes as f64)
            .sum();
        bytes / 1e3 / Self::busy_ms(slots)
    }

    /// Requests per second of busy time (in-process loops: one caller,
    /// so busy time is the callers' wall time less verification).
    pub fn requests_per_busy_s(&self) -> f64 {
        self.latency_ms.len() as f64 * 1e3
            / (Self::busy_ms(&self.compress) + Self::busy_ms(&self.decompress))
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// --- one-shot fields --------------------------------------------------------

/// Verified outputs of one field's round trip.
pub struct FieldRef {
    pub archive: Vec<u8>,
    pub recon: NdArray<f32>,
    pub compress_kernels: Vec<KernelStats>,
    pub decompress_kernels: Vec<KernelStats>,
}

/// One `CuszI` round trip of `fields[i]` for every `i` in `idx`: the
/// warm-up pass, whose outputs become the loop's reference.
pub fn warm_fields(inp: &Inputs, idx: &[usize]) -> Result<Vec<FieldRef>, String> {
    let codec = CuszI::new(Config::new(inp.eb));
    idx.iter()
        .map(|&i| {
            let f = &inp.fields[i];
            let c = codec
                .compress(&f.data)
                .map_err(|e| format!("compress {}: {e}", f.name))?;
            let d = codec
                .decompress(&c.bytes)
                .map_err(|e| format!("decompress {}: {e}", f.name))?;
            Ok(FieldRef {
                archive: c.bytes,
                recon: d.data,
                compress_kernels: c.kernels,
                decompress_kernels: d.kernels,
            })
        })
        .collect()
}

/// Span names of [`loop_fields`].
pub const PIPELINE_COMPRESS: &str = "core.pipeline.compress";
pub const PIPELINE_DECOMPRESS: &str = "core.pipeline.decompress";

/// `CuszI::compress` then `CuszI::decompress` of each field, one
/// caller, pass after pass.
pub fn loop_fields(
    inp: &Inputs,
    idx: &[usize],
    refs: &[FieldRef],
    budget: Budget,
    rec: Option<&Recorder>,
) -> LoopStats {
    let codec = CuszI::new(Config::new(inp.eb));
    let bytes: Vec<u64> = idx.iter().map(|&i| inp.fields[i].bytes()).collect();
    let mut st = LoopStats::with_slots(&bytes);
    let started = Instant::now();
    let mut passes = 0;
    while budget.more(started, passes) {
        for (slot, (&i, reference)) in idx.iter().zip(refs).enumerate() {
            let f = &inp.fields[i];
            let op = next_op();
            let t = Instant::now();
            let c = {
                let _g = span(rec, PIPELINE_COMPRESS, slot, op);
                codec.compress(&f.data)
            };
            let c_ms = ms_since(t);
            st.compress[slot].ms.push(c_ms);
            st.check(
                &f.name,
                c.as_ref()
                    .map(|c| c.bytes == reference.archive)
                    .map_err(|e| e.to_string()),
            );
            let archive = c.map_or_else(|_| reference.archive.clone(), |c| c.bytes);
            let t = Instant::now();
            let d = {
                let _g = span(rec, PIPELINE_DECOMPRESS, slot, op);
                codec.decompress(&archive)
            };
            let d_ms = ms_since(t);
            st.decompress[slot].ms.push(d_ms);
            st.check(
                &f.name,
                d.map(|d| d.data.as_slice() == reference.recon.as_slice())
                    .map_err(|e| e.to_string()),
            );
            st.latency_ms.push(c_ms + d_ms);
        }
        passes += 1;
    }
    st.wall_s = started.elapsed().as_secs_f64();
    st
}

// --- batch and slab containers ----------------------------------------------

/// Verified outputs of one batch pass.
pub struct BatchRef {
    /// One container per dataset, then the slab stream.
    pub containers: Vec<Vec<u8>>,
    /// Reconstructions, in `Inputs::fields` order of the datasets' runs,
    /// then the slab field.
    pub recon: Vec<NdArray<f32>>,
    /// Sum of the per-field archive sizes inside the dataset containers.
    pub archive_bytes: u64,
    /// gpu-sim schedule of every compress and decompress call.
    pub compress_reports: Vec<ScheduleReport>,
    pub decompress_reports: Vec<ScheduleReport>,
}

fn named<'a>(inp: &'a Inputs, run: &std::ops::Range<usize>) -> Vec<NamedField<'a>> {
    inp.fields[run.clone()]
        .iter()
        .map(|f| NamedField {
            name: &f.name,
            data: &f.data,
        })
        .collect()
}

fn compress_slab(inp: &Inputs, streams: usize) -> Result<(Vec<u8>, ScheduleReport), String> {
    let field = &inp.fields[inp.slab].data;
    let [_, ny, nx] = field.shape().dims3();
    let plane = ny * nx;
    cuszi_core::compress_slabs_streams(
        field.shape(),
        inp.slab_z,
        Config::new(inp.eb),
        streams,
        |z0, nz| {
            NdArray::from_vec(
                Shape::d3(nz, ny, nx),
                field.as_slice()[z0 * plane..(z0 + nz) * plane].to_vec(),
            )
        },
    )
    .map_err(|e| format!("compress_slabs: {e}"))
}

fn decompress_slab(
    inp: &Inputs,
    bytes: &[u8],
    streams: usize,
) -> Result<(NdArray<f32>, ScheduleReport), String> {
    let shape = inp.fields[inp.slab].data.shape();
    let [_, ny, nx] = shape.dims3();
    let mut out = NdArray::zeros(shape);
    let (got, report) =
        cuszi_core::decompress_slabs_streams(bytes, Config::new(inp.eb), streams, |z0, slab| {
            let at = z0 * ny * nx;
            out.as_mut_slice()[at..at + slab.len()].copy_from_slice(slab.as_slice());
        })
        .map_err(|e| format!("decompress_slabs: {e}"))?;
    if got != shape {
        return Err(format!("decompress_slabs: shape {got} for a {shape} field"));
    }
    Ok((out, report))
}

/// One pass of [`loop_batch`], kept: the warm-up, whose outputs become
/// the loop's reference.
pub fn warm_batch(inp: &Inputs, streams: usize) -> Result<BatchRef, String> {
    let cfg = Config::new(inp.eb);
    let mut r = BatchRef {
        containers: Vec::new(),
        recon: Vec::new(),
        archive_bytes: 0,
        compress_reports: Vec::new(),
        decompress_reports: Vec::new(),
    };
    for (name, run) in &inp.datasets {
        let (c, rep) = cuszi_core::compress_fields_streams(&named(inp, run), cfg, streams)
            .map_err(|e| format!("compress_fields {name}: {e}"))?;
        r.archive_bytes += c.fields.iter().map(|f| f.archive_bytes).sum::<u64>();
        r.compress_reports.push(rep);
        let (fields, rep) = cuszi_core::decompress_fields_streams(&c.bytes, cfg, streams)
            .map_err(|e| format!("decompress_fields {name}: {e}"))?;
        if fields
            .iter()
            .map(|(n, _)| n)
            .ne(inp.fields[run.clone()].iter().map(|f| &f.name))
        {
            return Err(format!("decompress_fields {name}: field names differ"));
        }
        r.decompress_reports.push(rep);
        r.recon.extend(fields.into_iter().map(|(_, d)| d));
        r.containers.push(c.bytes);
    }
    let (bytes, rep) = compress_slab(inp, streams)?;
    r.compress_reports.push(rep);
    let (recon, rep) = decompress_slab(inp, &bytes, streams)?;
    r.decompress_reports.push(rep);
    r.recon.push(recon);
    r.containers.push(bytes);
    Ok(r)
}

/// Span names of [`loop_batch`] at the workload's stream count and at
/// one stream.
pub struct BatchNames {
    pub batch_compress: &'static str,
    pub batch_decompress: &'static str,
    pub stream_compress: &'static str,
    pub stream_decompress: &'static str,
}

pub const BATCH_NAMES: BatchNames = BatchNames {
    batch_compress: "core.batch.compress",
    batch_decompress: "core.batch.decompress",
    stream_compress: "core.stream.compress",
    stream_decompress: "core.stream.decompress",
};

pub const BATCH_NAMES_1: BatchNames = BatchNames {
    batch_compress: "core.batch.compress.streams1",
    batch_decompress: "core.batch.decompress.streams1",
    stream_compress: "core.stream.compress.streams1",
    stream_decompress: "core.stream.decompress.streams1",
};

/// `compress_fields_streams`/`decompress_fields_streams` of each
/// dataset, then `compress_slabs_streams`/`decompress_slabs_streams` of
/// the slab field, pass after pass. The last slot is the slab field.
pub fn loop_batch(
    inp: &Inputs,
    streams: usize,
    reference: &BatchRef,
    budget: Budget,
    rec: Option<&Recorder>,
    names: &BatchNames,
) -> LoopStats {
    let cfg = Config::new(inp.eb);
    let mut bytes: Vec<u64> = inp
        .datasets
        .iter()
        .map(|(_, run)| inp.fields[run.clone()].iter().map(|f| f.bytes()).sum())
        .collect();
    bytes.push(inp.fields[inp.slab].bytes());
    let slab_slot = inp.datasets.len();
    let mut st = LoopStats::with_slots(&bytes);
    let started = Instant::now();
    let mut passes = 0;
    while budget.more(started, passes) {
        let mut at = 0;
        for (slot, (name, run)) in inp.datasets.iter().enumerate() {
            let fields = named(inp, run);
            let op = next_op();
            let t = Instant::now();
            let c = {
                let _g = span(rec, names.batch_compress, slot, op);
                cuszi_core::compress_fields_streams(&fields, cfg, streams)
            };
            let c_ms = ms_since(t);
            st.compress[slot].ms.push(c_ms);
            st.check(
                name,
                c.map(|(c, _)| c.bytes == reference.containers[slot])
                    .map_err(|e| e.to_string()),
            );
            let t = Instant::now();
            let d = {
                let _g = span(rec, names.batch_decompress, slot, op);
                cuszi_core::decompress_fields_streams(&reference.containers[slot], cfg, streams)
            };
            let d_ms = ms_since(t);
            st.decompress[slot].ms.push(d_ms);
            let want = &reference.recon[at..at + run.len()];
            at += run.len();
            st.check(
                name,
                d.map(|(got, _)| {
                    got.iter()
                        .map(|(_, d)| d.as_slice())
                        .eq(want.iter().map(|d| d.as_slice()))
                })
                .map_err(|e| e.to_string()),
            );
            st.latency_ms.push(c_ms + d_ms);
        }
        let op = next_op();
        let t = Instant::now();
        let c = {
            let _g = span(rec, names.stream_compress, slab_slot, op);
            compress_slab(inp, streams)
        };
        let c_ms = ms_since(t);
        st.compress[slab_slot].ms.push(c_ms);
        st.check("slab", c.map(|(b, _)| b == reference.containers[slab_slot]));
        let t = Instant::now();
        let d = {
            let _g = span(rec, names.stream_decompress, slab_slot, op);
            decompress_slab(inp, &reference.containers[slab_slot], streams)
        };
        let d_ms = ms_since(t);
        st.decompress[slab_slot].ms.push(d_ms);
        st.check(
            "slab",
            d.map(|(got, _)| got.as_slice() == reference.recon[at].as_slice()),
        );
        st.latency_ms.push(c_ms + d_ms);
        passes += 1;
    }
    st.wall_s = started.elapsed().as_secs_f64();
    st
}

// --- the daemon over loopback TCP -------------------------------------------

/// What a reply carried.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A compress reply: the archive, kept because later decompress
    /// requests send it back.
    Archive(Vec<u8>),
    /// A decompress reply: the fingerprint of its body.
    Field(u64),
    /// An error frame or an unexpected opcode.
    Refused(String),
}

/// One completed request as its caller saw it.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// Write of the request frame to the last byte of the reply.
    pub latency_ms: f64,
    /// Client-side build of the request body.
    pub encode_ms: f64,
    /// Request and reply body bytes.
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub reply: Reply,
}

/// What the request phases produced.
pub struct TcpRun {
    /// Per caller, one exchange per request of its list, in order.
    pub callers: Vec<Vec<Exchange>>,
    /// Wall time of the request phases.
    pub wall_s: f64,
}

/// Span names of [`Daemon::request_phase`].
pub const SERVE_REQUEST: &str = "cli.serve.request";
pub const SERVE_ENCODE: &str = "cli.serve.encode";
pub const SERVE_EXCHANGE: &str = "cli.serve.exchange";

/// An in-process `cuszi serve` daemon on an ephemeral loopback port,
/// with one connected client per caller.
pub struct Daemon {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Result<String, String>>,
    conns: Vec<Conn>,
    /// What each caller has exchanged so far; a later phase goes on
    /// where the one before it stopped.
    run: TcpRun,
}

fn tenant(caller: usize) -> String {
    format!("caller-{caller}")
}

/// A client connection on default socket options. Requests go out
/// through a buffer that holds a whole frame, so `write_frame`'s two
/// writes (length, then body) reach the socket as one.
///
/// Straight on the socket they would not: the body of a small frame
/// (a decompress request) then waits on Nagle's algorithm for the ACK
/// of the length prefix, which the daemon's side delays by 40 to
/// 200 ms, and the daemon's 100 ms read timeout, when it strikes
/// between the two, restarts `read_frame` in the middle of the frame
/// and the connection never recovers. That happened in about one run
/// of `serve_tcp` in thirty, and a workload may not have failing
/// operations. (It is a defect of `cuszi serve`, not of its clients:
/// a 150 ms pause between prefix and body reproduces it every time.)
type Conn = BufWriter<TcpStream>;

fn connect(addr: SocketAddr, largest_body: usize) -> Result<Conn, String> {
    let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    Ok(BufWriter::with_capacity(largest_body + 4, sock))
}

fn exchange(conn: &mut Conn, body: &[u8]) -> Result<Vec<u8>, String> {
    serve::write_frame(conn, body).map_err(|e| format!("write_frame: {e}"))?;
    serve::read_frame(conn.get_mut())
        .map_err(|e| format!("read_frame: {e}"))?
        .ok_or_else(|| "connection closed".to_string())
}

/// The fields a caller's warm requests repeat, each once: what the
/// warm-up sends so that the session cache has them.
pub fn warm_set(list: &[Request]) -> Vec<usize> {
    let mut seen = Vec::new();
    let mut warm = Vec::new();
    for r in list {
        if let Request::Compress {
            field,
            warm: is_warm,
        } = *r
        {
            if !seen.contains(&field) {
                seen.push(field);
                if is_warm {
                    warm.push(field);
                }
            }
        }
    }
    warm
}

impl Daemon {
    /// Bind with `ServeConfig` defaults, serve on a thread of its own,
    /// connect one client per caller on default socket options and send
    /// each caller's warm set once.
    pub fn start(inp: &Inputs) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        };
        let server = Server::bind(&cfg).map_err(|e| e.to_string())?;
        let addr: SocketAddr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = server.stop_handle();
        let thread = std::thread::Builder::new()
            .name("benchmark-daemon".into())
            .spawn(move || server.run().map_err(|e| e.to_string()))
            .map_err(|e| format!("cannot start the daemon thread: {e}"))?;
        let run = TcpRun {
            callers: vec![Vec::new(); inp.requests.len()],
            wall_s: 0.0,
        };
        let mut daemon = Daemon {
            stop,
            thread,
            conns: Vec::new(),
            run,
        };
        // The largest request is a compress request of the largest
        // field: its data and under a hundred bytes of header.
        let largest = inp.fields.iter().map(Field::bytes).max().unwrap_or(0) as usize + 128;
        for (caller, list) in inp.requests.iter().enumerate() {
            let mut sock = connect(addr, largest)?;
            for field in warm_set(list) {
                let f = &inp.fields[field];
                let body = serve::encode_compress(
                    &tenant(caller),
                    f.data.shape(),
                    inp.eb,
                    true,
                    f.data.as_slice(),
                );
                let reply = exchange(&mut sock, &body)?;
                if reply.first() != Some(&serve::OP_COMPRESS_OK) {
                    return Err(format!("warm-up of {} refused", f.name));
                }
            }
            daemon.conns.push(sock);
        }
        Ok(daemon)
    }

    /// Every caller works on through its request list in a closed
    /// loop, a thread per caller, until the time is up (and at least
    /// `min_passes` more requests are done) or the list ends.
    pub fn request_phase(&mut self, inp: &Inputs, budget: Budget, rec: Option<&Recorder>) {
        let started = Instant::now();
        std::thread::scope(|s| {
            for (caller, ((sock, list), done)) in self
                .conns
                .iter_mut()
                .zip(&inp.requests)
                .zip(&mut self.run.callers)
                .enumerate()
            {
                s.spawn(move || run_caller(inp, caller, sock, list, done, budget, started, rec));
            }
        });
        self.run.wall_s += started.elapsed().as_secs_f64();
    }

    /// Requests each caller has completed.
    pub fn completed(&self) -> Vec<usize> {
        self.run.callers.iter().map(Vec::len).collect()
    }

    /// Close the connections, drain the daemon, wait for its thread and
    /// hand over what the callers exchanged.
    pub fn stop(self) -> Result<TcpRun, String> {
        drop(self.conns);
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())??;
        Ok(self.run)
    }
}

#[allow(clippy::too_many_arguments)] // one caller's whole state, passed once
fn run_caller(
    inp: &Inputs,
    caller: usize,
    sock: &mut Conn,
    list: &[Request],
    done: &mut Vec<Exchange>,
    budget: Budget,
    started: Instant,
    rec: Option<&Recorder>,
) {
    let tenant = tenant(caller);
    let first = done.len();
    for (i, request) in list.iter().enumerate().skip(first) {
        if !budget.more(started, i - first) {
            break;
        }
        let op = next_op();
        let item = request_item(request);
        let _request = span(rec, SERVE_REQUEST, item, op);
        let t = Instant::now();
        let body = {
            let _g = span(rec, SERVE_ENCODE, item, op);
            match *request {
                Request::Compress { field, .. } => {
                    let f = &inp.fields[field];
                    serve::encode_compress(&tenant, f.data.shape(), inp.eb, true, f.data.as_slice())
                }
                Request::Decompress { of } => match &done[of].reply {
                    Reply::Archive(a) => serve::encode_decompress(&tenant, a),
                    // The compress it depends on failed: send what we
                    // have; the daemon answers with an error frame.
                    _ => serve::encode_decompress(&tenant, &[]),
                },
            }
        };
        let encode_ms = ms_since(t);
        let t = Instant::now();
        let reply = {
            let _g = span(rec, SERVE_EXCHANGE, item, op);
            exchange(sock, &body)
        };
        let latency_ms = ms_since(t);
        let bytes_out = reply.as_ref().map_or(0, |r| r.len() as u64);
        let reply = match (request, reply) {
            (_, Err(e)) => Reply::Refused(e),
            (Request::Compress { .. }, Ok(r)) if r.first() == Some(&serve::OP_COMPRESS_OK) => {
                Reply::Archive(r[1..].to_vec())
            }
            (Request::Decompress { .. }, Ok(r)) if r.first() == Some(&serve::OP_DECOMPRESS_OK) => {
                Reply::Field(Fnv::of(&r))
            }
            (_, Ok(r)) => Reply::Refused(match r.split_first() {
                Some((&serve::OP_ERROR, rest)) => serve::decode_error(rest).map_or_else(
                    || "malformed error frame".to_string(),
                    |(stage, msg)| format!("{stage}: {msg}"),
                ),
                _ => "unexpected reply opcode".to_string(),
            }),
        };
        done.push(Exchange {
            latency_ms,
            encode_ms,
            bytes_in: body.len() as u64,
            bytes_out,
            reply,
        });
    }
}

/// The field request `i` of `list` is about: the one it compresses, or
/// the one whose archive it sends back.
pub fn request_field(list: &[Request], i: usize) -> usize {
    match list[i] {
        Request::Compress { field, .. } => field,
        Request::Decompress { of } => request_field(list, of),
    }
}

/// Span item of a request: 0 for compress, 1 for decompress.
fn request_item(request: &Request) -> usize {
    usize::from(matches!(request, Request::Decompress { .. }))
}

impl TcpRun {
    /// Fold the exchanges into timing slots, one per exchange, so that
    /// a throughput is the requests' bytes over the sum of their
    /// latencies. (No per-class medians here: exchanges of the largest
    /// requests either stall on Nagle's algorithm or do not, ~55 or
    /// ~14 ms, and the median of such a class flips between the two.)
    pub fn stats(&self, inp: &Inputs) -> LoopStats {
        let mut st = LoopStats::default();
        for (list, done) in inp.requests.iter().zip(&self.callers) {
            for (i, x) in done.iter().enumerate() {
                let slot = Slot {
                    bytes: inp.fields[request_field(list, i)].bytes(),
                    ms: vec![x.latency_ms],
                };
                match list[i] {
                    Request::Compress { .. } => st.compress.push(slot),
                    Request::Decompress { .. } => st.decompress.push(slot),
                }
                st.latency_ms.push(x.latency_ms);
            }
        }
        st.wall_s = self.wall_s;
        st
    }
}

/// The body of a decompress reply for `data`, per the frame protocol.
pub fn decompress_reply_body(data: &NdArray<f32>) -> Vec<u8> {
    let dims = data.shape().dims().to_vec();
    let mut b = Vec::with_capacity(2 + dims.len() * 8 + data.len() * 4);
    b.push(serve::OP_DECOMPRESS_OK);
    b.push(dims.len() as u8);
    for d in dims {
        b.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for v in data.as_slice() {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b
}
