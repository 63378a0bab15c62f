//! The `cuszi` command-line tool, as a library so its plumbing is
//! testable.
//!
//! ```text
//! cuszi compress   -i field.f32 -o field.cszi --dims 256x384x384 --rel-eb 1e-3
//! cuszi decompress -i field.cszi -o recon.f32
//! cuszi info       -i field.cszi
//! ```
//!
//! Input fields are raw little-endian `f32` streams in row-major order
//! (the SDRBench distribution format the paper's datasets use).

mod psnr;
pub mod serve;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use cuszi_core::{
    compress_slabs_streams, decompress_slabs_streams, Compressed, Config, CuszError, CuszI,
};
use cuszi_core::archive::Header;
use cuszi_metrics::{bit_rate, compression_ratio, distortion};
use cuszi_quant::ErrorBound;
use cuszi_tensor::{NdArray, Shape};

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Compress {
        input: String,
        output: String,
        shape: Shape,
        mode: BoundMode,
        bitcomp: bool,
        verify: bool,
        /// Stream the field in z-slabs of this thickness (bounded
        /// memory; 3-d only, --rel-eb/--abs-eb only).
        slab: Option<usize>,
        /// Number of gpu-sim streams slab compression overlaps on
        /// (`None` = auto). Archives are byte-identical for any count.
        streams: Option<usize>,
        /// Profile the run: `Some(path)` writes a Chrome trace there,
        /// `Some("")` uses `<output>.trace.json`.
        profile: Option<String>,
        /// Stream the fidelity audit and print the per-interp-level
        /// drill-down (includes a sampled decode-verify pass).
        audit: bool,
        /// Write the run's metrics as Prometheus text exposition:
        /// `Some(path)`, or `Some("")` for `<output>.prom`. Implies
        /// profiling (the metrics registry only fills when enabled).
        prom: Option<String>,
    },
    Decompress {
        input: String,
        output: String,
        /// Number of gpu-sim streams slab decompression overlaps on
        /// (`None` = auto). Output is byte-identical for any count.
        streams: Option<usize>,
        /// Profile the run, mirroring compress: `Some(path)` writes a
        /// Chrome trace there, `Some("")` uses `<output>.trace.json`.
        profile: Option<String>,
    },
    Info {
        input: String,
    },
    /// Run the multi-tenant compression daemon (see `serve`).
    Serve {
        addr: String,
        workers: usize,
        max_inflight: usize,
        /// Simulated devices the engine places jobs onto.
        devices: usize,
    },
}

/// How the bound was specified.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BoundMode {
    Rel(f64),
    Abs(f64),
    Psnr(f64),
}

/// CLI errors carry a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<CuszError> for CliError {
    fn from(e: CuszError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Usage text.
pub const USAGE: &str = "\
cuszi — cuSZ-i error-bounded lossy compression for raw f32 fields

USAGE:
  cuszi compress   -i <in.f32> -o <out.cszi> --dims ZxYxX
                   (--rel-eb E | --abs-eb E | --psnr DB)
                   [--no-bitcomp] [--verify] [--slab Z [--streams N]]
                   [--profile[=TRACE.json]] [--audit]
                   [--prom[=METRICS.prom]]
  cuszi decompress -i <in.cszi> -o <out.f32> [--streams N]
                   [--profile[=TRACE.json]]
  cuszi info       -i <in.cszi|in.cszs|in.cszm>
  cuszi serve      [--addr HOST:PORT] [--workers N] [--max-inflight N]
                   [--devices M]

Dims are slowest-to-fastest (z x y x x), e.g. --dims 256x384x384;
1-d and 2-d fields use fewer components (--dims 1000 or --dims 384x384).

--profile records a kernel/stage profile: a Perfetto-loadable Chrome
trace (default <out>.trace.json), a per-kernel roofline table with
bottleneck verdicts, and a span time summary.

--streams overlaps slab compression (with --slab) or slab-stream
decompression across N gpu-sim streams (default: the core count,
at most 4). Archives and reconstructions are byte-identical for any
stream count.

--audit streams the fidelity audit: per-interp-level element/outlier
counts, quant-code entropy, anchor share, hot-block outlier counts,
and a sampled decode-verify of max abs error against the bound,
printed as a per-level table.

--prom writes the run's metrics registry (compress.*, audit.*) as
Prometheus text exposition (default <out>.prom); implies profiling.

serve starts a multi-tenant daemon (default 127.0.0.1:7070): a
length-prefixed TCP frame protocol feeding a shared engine with
per-tenant token-bucket fairness and in-flight backpressure; each
job runs the one-shot pipeline, so its archive is the CLI's.
--devices M places jobs onto M simulated devices (least-loaded,
ties rotating — see docs/SHARDING.md).
A stats frame returns Prometheus text; SIGINT (or a shutdown frame)
drains gracefully. See docs/SERVING.md.";

/// Parse `ZxYxX` dims.
pub fn parse_dims(s: &str) -> Result<Shape, CliError> {
    let parts: Result<Vec<usize>, _> = s.split('x').map(str::parse).collect();
    let parts = parts.map_err(|_| CliError(format!("bad --dims '{s}'")))?;
    Shape::from_dims(&parts).ok_or_else(|| CliError(format!("bad --dims '{s}' (1-3 nonzero extents)")))
}

/// Parse an argument vector (without `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let sub = args
        .first()
        .ok_or_else(|| CliError("missing subcommand (run with --help for usage)".into()))?;
    let mut input = None;
    let mut output = None;
    let mut dims = None;
    let mut mode = None;
    let mut bitcomp = true;
    let mut verify = false;
    let mut slab = None;
    let mut streams = None;
    let mut profile = None;
    let mut audit = false;
    let mut prom = None;
    let mut addr = None;
    let mut workers = None;
    let mut max_inflight = None;
    let mut devices = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().cloned().ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match a.as_str() {
            "-i" | "--input" => input = Some(val("-i")?),
            "-o" | "--output" => output = Some(val("-o")?),
            "--dims" => dims = Some(parse_dims(&val("--dims")?)?),
            "--rel-eb" => {
                mode = Some(BoundMode::Rel(
                    val("--rel-eb")?.parse().map_err(|_| CliError("bad --rel-eb".into()))?,
                ))
            }
            "--abs-eb" => {
                mode = Some(BoundMode::Abs(
                    val("--abs-eb")?.parse().map_err(|_| CliError("bad --abs-eb".into()))?,
                ))
            }
            "--psnr" => {
                mode = Some(BoundMode::Psnr(
                    val("--psnr")?.parse().map_err(|_| CliError("bad --psnr".into()))?,
                ))
            }
            "--no-bitcomp" => bitcomp = false,
            "--verify" => verify = true,
            "--audit" => audit = true,
            "--prom" => prom = Some(String::new()),
            p if p.starts_with("--prom=") => {
                let path = &p["--prom=".len()..];
                if path.is_empty() {
                    return Err(CliError("--prom= needs a path".into()));
                }
                prom = Some(path.to_string());
            }
            "--profile" => profile = Some(String::new()),
            p if p.starts_with("--profile=") => {
                let path = &p["--profile=".len()..];
                if path.is_empty() {
                    return Err(CliError("--profile= needs a path".into()));
                }
                profile = Some(path.to_string());
            }
            "--slab" => {
                slab = Some(
                    val("--slab")?.parse().map_err(|_| CliError("bad --slab".into()))?,
                )
            }
            "--streams" => {
                let n: usize =
                    val("--streams")?.parse().map_err(|_| CliError("bad --streams".into()))?;
                if n == 0 {
                    return Err(CliError("--streams must be >= 1".into()));
                }
                streams = Some(n);
            }
            "--addr" => addr = Some(val("--addr")?),
            "--workers" => {
                let n: usize =
                    val("--workers")?.parse().map_err(|_| CliError("bad --workers".into()))?;
                if n == 0 {
                    return Err(CliError("--workers must be >= 1".into()));
                }
                workers = Some(n);
            }
            "--devices" => {
                let n: usize =
                    val("--devices")?.parse().map_err(|_| CliError("bad --devices".into()))?;
                if !(1..=cuszi_gpu_sim::MAX_DEVICES).contains(&n) {
                    return Err(CliError(format!(
                        "--devices must be 1..={}",
                        cuszi_gpu_sim::MAX_DEVICES
                    )));
                }
                devices = Some(n);
            }
            "--max-inflight" => {
                let n: usize = val("--max-inflight")?
                    .parse()
                    .map_err(|_| CliError("bad --max-inflight".into()))?;
                if n == 0 {
                    return Err(CliError("--max-inflight must be >= 1".into()));
                }
                max_inflight = Some(n);
            }
            other => {
                return Err(CliError(format!(
                    "unknown argument '{other}' (run with --help for usage)"
                )))
            }
        }
    }
    if sub == "serve" {
        let workers = workers.unwrap_or(2);
        return Ok(Command::Serve {
            addr: addr.unwrap_or_else(|| "127.0.0.1:7070".into()),
            workers,
            max_inflight: max_inflight.unwrap_or(workers),
            devices: devices.unwrap_or(1),
        });
    }
    let input = input.ok_or_else(|| CliError("missing -i".into()))?;
    match sub.as_str() {
        "compress" => Ok(Command::Compress {
            input,
            output: output.ok_or_else(|| CliError("missing -o".into()))?,
            shape: dims.ok_or_else(|| CliError("missing --dims".into()))?,
            mode: mode.ok_or_else(|| CliError("missing --rel-eb/--abs-eb/--psnr".into()))?,
            bitcomp,
            verify,
            slab,
            streams,
            profile,
            audit,
            prom,
        }),
        "decompress" => Ok(Command::Decompress {
            input,
            output: output.ok_or_else(|| CliError("missing -o".into()))?,
            streams,
            profile,
        }),
        "info" => Ok(Command::Info { input }),
        other => Err(CliError(format!(
            "unknown subcommand '{other}' (run with --help for usage)"
        ))),
    }
}

/// Load a raw little-endian f32 field.
pub fn read_f32_field(path: &Path, shape: Shape) -> Result<NdArray<f32>, CliError> {
    let bytes = fs::read(path)?;
    if bytes.len() != shape.len() * 4 {
        return Err(CliError(format!(
            "{} holds {} bytes but dims {shape} need {}",
            path.display(),
            bytes.len(),
            shape.len() * 4
        )));
    }
    let data: Vec<f32> =
        bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    Ok(NdArray::from_vec(shape, data))
}

/// Write a field as raw little-endian f32.
pub fn write_f32_field(path: &Path, data: &NdArray<f32>) -> Result<(), CliError> {
    let bytes: Vec<u8> = data.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    fs::write(path, bytes)?;
    Ok(())
}

/// Execute a command; returns the text to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Compress {
            input,
            output,
            shape,
            mode,
            bitcomp,
            verify,
            slab,
            streams,
            profile,
            audit,
            prom,
        } => {
            // --prom implies profiling because the metrics registry only
            // fills while the profiler is on.
            let prom_path = prom.as_ref().map(|p| {
                if p.is_empty() { format!("{output}.prom") } else { p.clone() }
            });
            let opts = CompressOpts { bitcomp, verify, audit };
            let profiling = profile.is_some() || prom.is_some();
            profiled(profiling.then(|| trace_path(&profile, &output)), prom_path, || {
                if let Some(slab_z) = slab {
                    compress_streamed(&input, &output, shape, mode, slab_z, streams, opts)
                } else if streams.is_some() {
                    Err(CliError("--streams requires --slab".into()))
                } else {
                    compress_whole(&input, &output, shape, mode, opts)
                }
            })
        }
        Command::Decompress { input, output, streams, profile } => {
            // The same profiling wrap, so decode-side kernel behaviour
            // is observable with the same artifacts.
            let trace = profile.is_some().then(|| trace_path(&profile, &output));
            profiled(trace, None, || decompress_one(&input, &output, streams))
        }
        Command::Info { input } => info_text(&input),
        Command::Serve { addr, workers, max_inflight, devices } => {
            serve::serve(&serve::ServeConfig { addr, workers, max_inflight, devices })
        }
    }
}

/// The trace path of `--profile[=PATH]`: `PATH`, or `<output>.trace.json`.
fn trace_path(profile: &Option<String>, output: &str) -> String {
    match profile {
        Some(p) if !p.is_empty() => p.clone(),
        _ => format!("{output}.trace.json"),
    }
}

/// Run `f`, profiled when `trace` names a trace path: on success, write
/// the Chrome trace (and the Prometheus text to `prom`) and append the
/// kernel table and the span summary to the command's output. The
/// profiler is process-global, so profiled runs in one process take
/// turns: another's `enable(false)` or draining `report()` would
/// otherwise cut this run's trace and metrics short.
fn profiled(
    trace: Option<String>,
    prom: Option<String>,
    f: impl FnOnce() -> Result<String, CliError>,
) -> Result<String, CliError> {
    static PROFILED: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let Some(trace_path) = trace else { return f() };
    let _turn = PROFILED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let profiler = cuszi_profile::install();
    cuszi_profile::enable(true);
    let mut result = f();
    cuszi_profile::enable(false);
    let rep = profiler.report();
    if let Ok(text) = &mut result {
        fs::write(&trace_path, rep.chrome_trace())?;
        writeln!(text, "\n{}", rep.kernel_report().trim_end()).ok();
        writeln!(text, "\nspan summary (wall time)\n{}", rep.flame_summary().trim_end()).ok();
        writeln!(text, "\ntrace written to {trace_path} — load it at ui.perfetto.dev").ok();
        if let Some(pp) = &prom {
            fs::write(pp, rep.metrics.render_prometheus())?;
            writeln!(text, "metrics exposition written to {pp}").ok();
        }
    }
    result
}

/// Execution toggles shared by the whole-field and slab paths.
#[derive(Clone, Copy)]
struct CompressOpts {
    bitcomp: bool,
    verify: bool,
    audit: bool,
}

impl CompressOpts {
    /// Apply the toggles to a base configuration.
    fn apply(&self, mut cfg: Config) -> Config {
        if !self.bitcomp {
            cfg = cfg.without_bitcomp();
        }
        if self.audit {
            cfg = cfg.with_audit();
        }
        cfg
    }
}

/// Single-archive decompression with magic dispatch, shared by [`run`].
fn decompress_one(input: &str, output: &str, streams: Option<usize>) -> Result<String, CliError> {
    let mut out = String::new();
    let bytes = fs::read(input)?;
    let base = Config::new(ErrorBound::Rel(1e-3));
    if bytes.starts_with(b"CSZS") {
        return decompress_streamed(&bytes, input, output, base, streams);
    }
    let d = CuszI::new(base).decompress(&bytes)?;
    writeln!(
        out,
        "{input} -> {output} ({}, {:.1} MB)",
        d.data.shape(),
        (d.data.len() * 4) as f64 / 1e6
    )
    .ok();
    write_f32_field(Path::new(output), &d.data)?;
    Ok(out)
}

/// Whole-field (non-slab) compression, shared by [`run`].
fn compress_whole(
    input: &str,
    output: &str,
    shape: Shape,
    mode: BoundMode,
    opts: CompressOpts,
) -> Result<String, CliError> {
    let mut out = String::new();
    let data = read_f32_field(Path::new(input), shape)?;
    let base = opts.apply(Config::new(match mode {
        BoundMode::Rel(e) => ErrorBound::Rel(e),
        BoundMode::Abs(e) => ErrorBound::Abs(e),
        // The PSNR search replaces the bound and keeps everything else.
        BoundMode::Psnr(_) => ErrorBound::Rel(1e-3),
    }));
    let (c, achieved, searched) = match mode {
        BoundMode::Psnr(db) => {
            let (c, psnr, recon) = psnr::compress_at_psnr(&data, db, base)?;
            (c, Some((db, psnr)), Some(recon))
        }
        _ => (CuszI::new(base).compress(&data)?, None, None),
    };
    let Compressed { bytes, eb_abs, audit: audit_rep, .. } = c;
    if let Some((db, psnr)) = achieved {
        writeln!(out, "psnr target {db:.1} dB -> achieved {psnr:.1} dB").ok();
    }
    writeln!(
        out,
        "{input} ({shape}, {:.1} MB) -> {output} ({:.1} KB), CR {:.1}, {:.3} bits/elem, abs eb {eb_abs:.3e}",
        (data.len() * 4) as f64 / 1e6,
        bytes.len() as f64 / 1e3,
        compression_ratio(data.len() * 4, bytes.len()),
        bit_rate(data.len(), bytes.len()),
    )
    .ok();
    // Both checks read the same reconstruction: decode it once, and not
    // at all after a PSNR search, which already decoded the archive.
    let recon = match searched {
        _ if !(opts.verify || opts.audit) => None,
        Some(recon) => Some(recon),
        None => Some(CuszI::new(base).decompress(&bytes)?.data),
    };
    if let Some(d) = recon.as_ref().filter(|_| opts.verify) {
        let m = distortion(data.as_slice(), d.as_slice())
            .ok_or_else(|| CliError("empty field".into()))?;
        if m.max_abs_err > eb_abs * (1.0 + 1e-6) {
            return Err(CliError(format!(
                "VERIFY FAILED: max error {:.3e} exceeds bound {eb_abs:.3e}",
                m.max_abs_err
            )));
        }
        writeln!(out, "verified: PSNR {:.1} dB, max err {:.3e}", m.psnr, m.max_abs_err)
            .ok();
    }
    if let Some(d) = recon.as_ref().filter(|_| opts.audit) {
        let mut rep = audit_rep
            .ok_or_else(|| CliError("audit report missing from compressed output".into()))?;
        // Sampled decode-verify: close the loop against the actual
        // reconstruction, attributing max error per interp level.
        cuszi_core::audit::verify_decode(
            &mut rep,
            &data,
            d,
            cuszi_core::audit::default_sample_stride(data.len()),
        );
        writeln!(out, "\n{}", rep.render_table().trim_end()).ok();
        if !rep.bound_ok() {
            return Err(CliError(format!(
                "AUDIT FAILED: sampled max error {:.3e} exceeds bound {:.3e}",
                rep.max_abs_err(),
                rep.eb_abs
            )));
        }
    }
    fs::write(output, &bytes)?;
    Ok(out)
}

/// The `info` subcommand's report.
fn info_text(input: &str) -> Result<String, CliError> {
    let mut out = String::new();
    let bytes = fs::read(input)?;
    if bytes.starts_with(b"CSZS") {
        let (geo, _) = cuszi_core::stream::parse_slab_container(&bytes)?;
        writeln!(out, "cuSZ-i slab stream").ok();
        writeln!(out, "  dims:       {}", geo.shape).ok();
        writeln!(out, "  slab z:     {}", geo.slab_z).ok();
        writeln!(out, "  slabs:      {}", geo.nslabs).ok();
        writeln!(
            out,
            "  total:      {} B (CR {:.1} vs raw f32)",
            bytes.len(),
            compression_ratio(geo.shape.len() * 4, bytes.len())
        )
        .ok();
        return Ok(out);
    }
    if bytes.starts_with(b"CSZM") {
        let entries = cuszi_core::batch::parse_container(&bytes)?;
        writeln!(out, "cuSZ-i multi-field container").ok();
        writeln!(out, "  fields:     {}", entries.len()).ok();
        let (mut raw, mut archived) = (0, 0);
        for (name, archive) in &entries {
            let shape = Header::from_bytes(archive)?.shape;
            raw += shape.len() * 4;
            archived += archive.len();
            writeln!(
                out,
                "  {name}: {shape}, {} B (CR {:.1})",
                archive.len(),
                compression_ratio(shape.len() * 4, archive.len())
            )
            .ok();
        }
        writeln!(
            out,
            "  total:      {} B (aggregate CR {:.1} over the field archives)",
            bytes.len(),
            compression_ratio(raw, archived)
        )
        .ok();
        return Ok(out);
    }
    let h = Header::from_bytes(&bytes)?;
    writeln!(out, "cuSZ-i archive v{}", h.version).ok();
    writeln!(out, "  dims:       {}", h.shape).ok();
    writeln!(out, "  abs eb:     {:.6e}", h.eb_abs).ok();
    writeln!(out, "  alpha:      {:.4}", h.alpha).ok();
    writeln!(out, "  radius:     {}", h.radius).ok();
    writeln!(out, "  dim order:  {:?}", h.order).ok();
    writeln!(out, "  bitcomp:    {}", h.flags & cuszi_core::archive::FLAG_BITCOMP != 0)
        .ok();
    writeln!(
        out,
        "  sections:   anchors {} B, codebook {} B, huffman {} B, outliers {} B",
        h.sections[0],
        h.sections[1],
        h.sections[2],
        h.sections[3] + h.sections[4]
    )
    .ok();
    writeln!(
        out,
        "  total:      {} B (CR {:.1} vs raw f32)",
        bytes.len(),
        compression_ratio(h.shape.len() * 4, bytes.len())
    )
    .ok();
    Ok(out)
}

/// Slab-streamed compression: reads the input file one z-slab at a
/// time, never holding the whole field.
fn compress_streamed(
    input: &str,
    output: &str,
    shape: Shape,
    mode: BoundMode,
    slab_z: usize,
    streams: Option<usize>,
    opts: CompressOpts,
) -> Result<String, CliError> {
    let eb = match mode {
        BoundMode::Rel(e) => ErrorBound::Rel(e),
        BoundMode::Abs(e) => ErrorBound::Abs(e),
        _ => return Err(CliError("--slab supports --rel-eb/--abs-eb only".into())),
    };
    for (on, flag) in [(opts.audit, "--audit"), (opts.verify, "--verify")] {
        if on {
            return Err(CliError(format!(
                "{flag} needs the whole field resident; drop --slab to run it"
            )));
        }
    }
    if shape.rank() != 3 {
        return Err(CliError("--slab requires 3-d dims".into()));
    }
    let meta = fs::metadata(input)?;
    if meta.len() as usize != shape.len() * 4 {
        return Err(CliError(format!(
            "{input} holds {} bytes but dims {shape} need {}",
            meta.len(),
            shape.len() * 4
        )));
    }
    use std::io::{Read, Seek, SeekFrom};
    let mut note = String::new();
    if matches!(mode, BoundMode::Rel(_)) {
        // The stream never sees the whole field, so the relative bound
        // resolves against each slab's own value range.
        note = "note: --rel-eb resolves per slab in --slab mode; use --abs-eb for a \
                globally uniform bound\n"
            .into();
    }
    let mut f = fs::File::open(input)?;
    let [_, ny, nx] = shape.dims3();
    let mut failure: Option<CliError> = None;
    let n_streams = streams.unwrap_or_else(cuszi_core::default_streams);
    let (bytes, report) = compress_slabs_streams(
        shape,
        slab_z,
        opts.apply(Config::new(eb)),
        n_streams,
        |z0, nz| {
            let plane = ny * nx;
            let mut buf = vec![0u8; nz * plane * 4];
            let read = f
                .seek(SeekFrom::Start((z0 * plane * 4) as u64))
                .and_then(|_| f.read_exact(&mut buf));
            if let Err(e) = read {
                failure.get_or_insert(CliError(e.to_string()));
                return NdArray::zeros(Shape::d3(nz, ny, nx));
            }
            let vals: Vec<f32> = buf
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            NdArray::from_vec(Shape::d3(nz, ny, nx), vals)
        },
    )?;
    if let Some(e) = failure {
        return Err(e);
    }
    fs::write(output, &bytes)?;
    Ok(format!(
        "{note}{input} ({shape}) -> {output} ({:.1} KB, {} z-slabs of {slab_z}, CR {:.1}, \
         {} streams, sim overlap {:.2}x)\n",
        bytes.len() as f64 / 1e3,
        shape.dims3()[0].div_ceil(slab_z),
        compression_ratio(shape.len() * 4, bytes.len()),
        report.streams,
        report.overlap_speedup(),
    ))
}

/// Slab-streamed decompression: writes each slab as it decodes, with
/// slab decodes overlapped across gpu-sim streams.
fn decompress_streamed(
    bytes: &[u8],
    input: &str,
    output: &str,
    base: Config,
    streams: Option<usize>,
) -> Result<String, CliError> {
    use std::io::Write as _;
    let mut f = fs::File::create(output)?;
    let mut io_err: Option<std::io::Error> = None;
    let n_streams = streams.unwrap_or_else(cuszi_core::default_streams);
    let (shape, report) = decompress_slabs_streams(bytes, base, n_streams, |_z0, slab| {
        if io_err.is_some() {
            return;
        }
        let raw: Vec<u8> = slab.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        if let Err(e) = f.write_all(&raw) {
            io_err = Some(e);
        }
    })?;
    if let Some(e) = io_err {
        return Err(e.into());
    }
    Ok(format!(
        "{input} -> {output} ({shape}, streamed, {} streams, sim overlap {:.2}x)\n",
        report.streams,
        report.overlap_speedup(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("cuszi-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into()
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Parse and run one command line.
    fn cli(args: &[&str]) -> Result<String, CliError> {
        run(parse_args(&strings(args))?)
    }

    #[test]
    fn parse_dims_variants() {
        assert_eq!(parse_dims("256x384x384").unwrap(), Shape::d3(256, 384, 384));
        assert_eq!(parse_dims("384x384").unwrap(), Shape::d2(384, 384));
        assert_eq!(parse_dims("1000").unwrap(), Shape::d1(1000));
        assert!(parse_dims("0x3").is_err());
        assert!(parse_dims("a").is_err());
        assert!(parse_dims("1x2x3x4").is_err());
    }

    #[test]
    fn parse_full_compress_command() {
        let cmd = parse_args(&strings(&[
            "compress", "-i", "a.f32", "-o", "a.cszi", "--dims", "8x8x8", "--rel-eb", "1e-3",
            "--no-bitcomp", "--verify",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Compress {
                input: "a.f32".into(),
                output: "a.cszi".into(),
                shape: Shape::d3(8, 8, 8),
                mode: BoundMode::Rel(1e-3),
                bitcomp: false,
                verify: true,
                slab: None,
                streams: None,
                profile: None,
                audit: false,
                prom: None,
            }
        );
    }

    #[test]
    fn removed_flags_are_unknown_arguments() {
        for name in ["fuse", "autotune"] {
            let flag = format!("--{name}");
            let err = parse_args(&strings(&[
                "compress", "-i", "a.f32", "-o", "a.cszi", "--dims", "8x8x8", "--rel-eb", "1e-3",
                &flag,
            ]))
            .unwrap_err();
            assert!(err.0.contains(&format!("unknown argument '{flag}'")), "{err}");
        }
    }

    #[test]
    fn parse_streams_flag() {
        let base = ["compress", "-i", "a.f32", "-o", "a.cszs", "--dims", "8x8x8", "--abs-eb",
            "1e-3", "--slab", "4"];
        let with = parse_args(&strings(&[&base[..], &["--streams", "3"]].concat())).unwrap();
        match with {
            Command::Compress { streams, .. } => assert_eq!(streams, Some(3)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&strings(&[&base[..], &["--streams", "0"]].concat())).is_err());
        assert!(parse_args(&strings(&[&base[..], &["--streams"]].concat())).is_err());
        // --streams without --slab parses, but run() rejects it.
        let no_slab = parse_args(&strings(&[
            "compress", "-i", "a.f32", "-o", "a.cszi", "--dims", "8x8x8", "--abs-eb", "1e-3",
            "--streams", "2",
        ]))
        .unwrap();
        let err = run(no_slab).unwrap_err();
        assert!(err.0.contains("--streams requires --slab"), "{err}");
    }

    #[test]
    fn parse_serve_devices_flag() {
        let cmd = parse_args(&strings(&["serve", "--devices", "4"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:7070".into(),
                workers: 2,
                max_inflight: 2,
                devices: 4,
            }
        );
        let default = parse_args(&strings(&["serve"])).unwrap();
        match default {
            Command::Serve { devices, .. } => assert_eq!(devices, 1),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&strings(&["serve", "--devices", "0"])).is_err());
        assert!(parse_args(&strings(&["serve", "--devices", "99"])).is_err());
        assert!(parse_args(&strings(&["serve", "--devices"])).is_err());
    }

    #[test]
    fn parse_rejects_missing_pieces() {
        assert!(parse_args(&strings(&["compress", "-i", "a.f32"])).is_err());
        assert!(parse_args(&strings(&["frobnicate"])).is_err());
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&strings(&["compress", "-i"])).is_err());
    }

    #[test]
    fn end_to_end_file_roundtrip() {
        let shape = Shape::d3(16, 16, 16);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + y) as f32 * 0.1).sin() + z as f32 * 0.05
        });
        let (fin, farc, fout) = (tmp("in.f32"), tmp("a.cszi"), tmp("out.f32"));
        write_f32_field(Path::new(&fin), &data).unwrap();

        let msg = cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "16x16x16", "--rel-eb",
            "1e-3", "--verify"])
        .unwrap();
        assert!(msg.contains("verified"), "{msg}");

        cli(&["decompress", "-i", &farc, "-o", &fout]).unwrap();
        let recon = read_f32_field(Path::new(&fout), shape).unwrap();
        let m = distortion(data.as_slice(), recon.as_slice()).unwrap();
        assert!(m.psnr > 50.0);

        let info = cli(&["info", "-i", &farc]).unwrap();
        assert!(info.contains("16x16x16"), "{info}");

        for f in [fin, farc, fout] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn psnr_mode_reports_achieved() {
        let data = NdArray::from_fn(Shape::d2(48, 48), |_, y, x| {
            ((x as f32) * 0.2).sin() + (y as f32) * 0.01
        });
        let (fin, farc) = (tmp("p.f32"), tmp("p.cszi"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        let msg = cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "48x48", "--psnr", "60",
            "--verify"])
        .unwrap();
        // The reported PSNR is the written archive's, as --verify sees it.
        let db = |after: &str| msg.split(after).nth(1).unwrap().split(" dB").next().unwrap();
        assert_eq!(db("achieved "), db("verified: PSNR "), "{msg}");
        for f in [fin, farc] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn constant_field_roundtrips_exactly_in_every_bound_mode() {
        let data = NdArray::from_fn(Shape::d3(6, 6, 6), |_, _, _| 3.0);
        let (fin, farc, fout) = (tmp("const.f32"), tmp("const.cszi"), tmp("const-out.f32"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        for bound in [["--rel-eb", "1e-3"], ["--abs-eb", "1e-3"], ["--psnr", "60"]] {
            let args = ["compress", "-i", &fin, "-o", &farc, "--dims", "6x6x6", "--verify"];
            cli(&[&args[..], &bound[..]].concat()).unwrap();
            cli(&["decompress", "-i", &farc, "-o", &fout]).unwrap();
            let recon = read_f32_field(Path::new(&fout), data.shape()).unwrap();
            assert_eq!(recon.as_slice(), data.as_slice(), "{bound:?}");
        }
        for f in [fin, farc, fout] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn parse_profile_flag_forms() {
        let base = ["compress", "-i", "a.f32", "-o", "a.cszi", "--dims", "8", "--abs-eb", "1e-3"];
        let none = parse_args(&strings(&base)).unwrap();
        let bare = parse_args(&strings(&[&base[..], &["--profile"]].concat())).unwrap();
        let with = parse_args(&strings(&[&base[..], &["--profile=t.json"]].concat())).unwrap();
        let get = |c: &Command| match c {
            Command::Compress { profile, .. } => profile.clone(),
            _ => panic!(),
        };
        assert_eq!(get(&none), None);
        assert_eq!(get(&bare), Some(String::new()));
        assert_eq!(get(&with), Some("t.json".into()));
        assert!(parse_args(&strings(&[&base[..], &["--profile="]].concat())).is_err());
    }

    #[test]
    fn profiled_compress_writes_trace_and_kernel_table() {
        let data = NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| {
            ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
        });
        let (fin, farc, ftrace) = (tmp("prof-in.f32"), tmp("prof.cszi"), tmp("prof.trace.json"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        let msg = cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "16x16x16", "--rel-eb",
            "1e-3", &format!("--profile={ftrace}")])
        .unwrap();
        // The report names the pipeline kernels and gives verdicts.
        assert!(msg.contains("kernel profile"), "{msg}");
        assert!(msg.contains("g-interp"), "{msg}");
        assert!(msg.contains("-bound"), "{msg}");
        assert!(msg.contains("trace written"), "{msg}");
        // The trace file is valid Chrome trace JSON.
        let trace = fs::read_to_string(&ftrace).unwrap();
        let v = cuszi_profile::minjson::parse(&trace).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "missing {key}");
            }
        }
        for f in [fin, farc, ftrace] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn parse_audit_and_prom_flag_forms() {
        let base = ["compress", "-i", "a.f32", "-o", "a.cszi", "--dims", "8", "--abs-eb", "1e-3"];
        let cmd =
            parse_args(&strings(&[&base[..], &["--audit", "--prom=m.prom"]].concat())).unwrap();
        match cmd {
            Command::Compress { audit, prom, .. } => {
                assert!(audit);
                assert_eq!(prom, Some("m.prom".into()));
            }
            other => panic!("{other:?}"),
        }
        let bare = parse_args(&strings(&[&base[..], &["--prom"]].concat())).unwrap();
        match bare {
            Command::Compress { prom, .. } => assert_eq!(prom, Some(String::new())),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&strings(&[&base[..], &["--prom="]].concat())).is_err());
        // decompress accepts --profile and --streams.
        let d = parse_args(&strings(&[
            "decompress", "-i", "a.cszi", "-o", "a.f32", "--profile", "--streams", "3",
        ]))
        .unwrap();
        assert_eq!(
            d,
            Command::Decompress {
                input: "a.cszi".into(),
                output: "a.f32".into(),
                streams: Some(3),
                profile: Some(String::new()),
            }
        );
        assert!(parse_args(&strings(&[
            "decompress", "-i", "a.cszi", "-o", "a.f32", "--streams", "0",
        ]))
        .is_err());
    }

    #[test]
    fn audited_compress_prints_drilldown_and_passes_bound() {
        let data = NdArray::from_fn(Shape::d3(24, 24, 24), |z, y, x| {
            ((x + 2 * y) as f32 * 0.15).sin() + (z as f32) * 0.04
        });
        let (fin, farc) = (tmp("audit-in.f32"), tmp("audit.cszi"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        let msg = cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "24x24x24", "--rel-eb",
            "1e-3", "--audit"])
        .unwrap();
        assert!(msg.contains("fidelity audit"), "{msg}");
        assert!(msg.contains("anchor"), "{msg}");
        assert!(msg.contains("L1 s1"), "{msg}");
        // Every rendered level row verified against the bound.
        assert!(!msg.contains("EXCEEDS"), "{msg}");
        for f in [fin, farc] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn psnr_mode_composes_with_audit() {
        let data = NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| {
            ((x + 3 * y) as f32 * 0.12).sin() + (z as f32) * 0.05
        });
        let (fin, farc) = (tmp("paudit-in.f32"), tmp("paudit.cszi"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        let msg = cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "16x16x16", "--psnr", "70",
            "--audit"])
        .unwrap();
        assert!(msg.contains("achieved") && msg.contains("fidelity audit"), "{msg}");
        assert!(!msg.contains("EXCEEDS"), "{msg}");
        for f in [fin, farc] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn audit_rejects_slab_mode() {
        let fin = tmp("audit-rej.f32");
        write_f32_field(Path::new(&fin), &NdArray::zeros(Shape::d3(8, 8, 8))).unwrap();
        let err = cli(&["compress", "-i", &fin, "-o", "/dev/null", "--dims", "8x8x8", "--abs-eb",
            "1e-3", "--slab", "4", "--audit"])
        .unwrap_err();
        assert!(err.0.contains("--audit"), "{err}");
        let _ = fs::remove_file(fin);
    }

    #[test]
    fn prom_flag_writes_metrics_exposition() {
        let data = NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| {
            ((x + y) as f32 * 0.1).cos() + z as f32 * 0.02
        });
        let (fin, farc) = (tmp("prom-in.f32"), tmp("prom.cszi"));
        let (fprom, ftrace) = (tmp("prom.prom"), tmp("prom.trace.json"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        let msg = cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "16x16x16", "--rel-eb",
            "1e-3", "--audit", &format!("--profile={ftrace}"), &format!("--prom={fprom}")])
        .unwrap();
        assert!(msg.contains("metrics exposition written"), "{msg}");
        let text = fs::read_to_string(&fprom).unwrap();
        // Pipeline counters and audit mirrors land in the exposition.
        assert!(text.contains("# TYPE cuszi_"), "{text}");
        assert!(text.contains("cuszi_audit_elements"), "{text}");
        for f in [fin, farc, fprom, ftrace] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn concurrent_profiled_runs_each_keep_their_metrics() {
        // The profiler is process-global: without turns, one run's
        // enable(false) or report() empties the other's exposition.
        let data = NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| {
            ((x * y) as f32 * 0.05).sin() + z as f32 * 0.03
        });
        let runs: Vec<_> = (0..4)
            .map(|i| {
                let fin = tmp(&format!("turns{i}-in.f32"));
                write_f32_field(Path::new(&fin), &data).unwrap();
                std::thread::spawn(move || {
                    let farc = tmp(&format!("turns{i}.cszi"));
                    let fprom = tmp(&format!("turns{i}.prom"));
                    let ftrace = tmp(&format!("turns{i}.trace.json"));
                    cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "16x16x16", "--rel-eb",
                        "1e-3", &format!("--profile={ftrace}"), &format!("--prom={fprom}")])
                    .unwrap();
                    let text = fs::read_to_string(&fprom).unwrap();
                    for f in [fin, farc, fprom, ftrace] {
                        let _ = fs::remove_file(f);
                    }
                    text
                })
            })
            .collect();
        for r in runs {
            let text = r.join().unwrap();
            assert!(text.contains("cuszi_compress_bytes_in"), "{text}");
        }
    }

    #[test]
    fn profiled_decompress_writes_trace() {
        let data = NdArray::from_fn(Shape::d3(16, 16, 16), |z, y, x| {
            ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
        });
        let (fin, farc) = (tmp("dprof-in.f32"), tmp("dprof.cszi"));
        let (fout, ftrace) = (tmp("dprof-out.f32"), tmp("dprof.trace.json"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "16x16x16", "--rel-eb", "1e-3"])
            .unwrap();
        let msg = cli(&["decompress", "-i", &farc, "-o", &fout, &format!("--profile={ftrace}")])
            .unwrap();
        assert!(msg.contains("kernel profile"), "{msg}");
        assert!(msg.contains("trace written"), "{msg}");
        let trace = fs::read_to_string(&ftrace).unwrap();
        let v = cuszi_profile::minjson::parse(&trace).unwrap();
        assert!(!v.get("traceEvents").unwrap().as_array().unwrap().is_empty());
        for f in [fin, farc, fout, ftrace] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn size_mismatch_is_a_clean_error() {
        let fin = tmp("short.f32");
        fs::write(&fin, [0u8; 10]).unwrap();
        let err = read_f32_field(Path::new(&fin), Shape::d1(100)).unwrap_err();
        assert!(err.0.contains("need"), "{err}");
        let _ = fs::remove_file(fin);
    }

    #[test]
    fn slab_roundtrip_through_files() {
        let shape = Shape::d3(20, 12, 16);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + y) as f32 * 0.2).sin() + (z as f32) * 0.03
        });
        let (fin, farc, fout) = (tmp("slab-in.f32"), tmp("slab.cszs"), tmp("slab-out.f32"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        let msg = cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "20x12x16", "--abs-eb",
            "1e-3", "--slab", "8", "--streams", "2"])
        .unwrap();
        assert!(msg.contains("z-slabs of 8"), "{msg}");
        let info = cli(&["info", "-i", &farc]).unwrap();
        for want in ["20x12x16", "slab z:     8", "slabs:      3", "CR "] {
            assert!(info.contains(want), "{want}: {info}");
        }
        let dmsg = cli(&["decompress", "-i", &farc, "-o", &fout, "--streams", "2"]).unwrap();
        assert!(dmsg.contains("2 streams"), "{dmsg}");
        let recon = read_f32_field(Path::new(&fout), shape).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(recon.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.000001);
        }
        for f in [fin, farc, fout] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn info_rejects_a_truncated_slab_stream() {
        let data = NdArray::from_fn(Shape::d3(12, 8, 8), |z, y, x| (x + y + z) as f32 * 0.1);
        let (fin, farc) = (tmp("slab-cut-in.f32"), tmp("slab-cut.cszs"));
        write_f32_field(Path::new(&fin), &data).unwrap();
        cli(&["compress", "-i", &fin, "-o", &farc, "--dims", "12x8x8", "--abs-eb", "1e-3",
            "--slab", "4"])
        .unwrap();
        let bytes = fs::read(&farc).unwrap();
        fs::write(&farc, &bytes[..bytes.len() - 1]).unwrap();
        let err = cli(&["info", "-i", &farc]).unwrap_err();
        assert!(err.0.contains("corrupt archive: slab"), "{err}");
        for f in [fin, farc] {
            let _ = fs::remove_file(f);
        }
    }

    /// A two-field CSZM container written to a temp file.
    fn write_container(path: &str) -> cuszi_core::Container {
        let a = NdArray::from_fn(Shape::d3(8, 12, 16), |z, y, x| (x + 2 * y + z) as f32 * 0.05);
        let b = NdArray::from_fn(Shape::d2(24, 20), |_, y, x| ((x * y) as f32 * 0.01).sin());
        let fields = [
            cuszi_core::NamedField { name: "pressure", data: &a },
            cuszi_core::NamedField { name: "velocity", data: &b },
        ];
        let (c, _) = cuszi_core::compress_fields_streams(
            &fields,
            Config::new(ErrorBound::Rel(1e-3)),
            1,
        )
        .unwrap();
        fs::write(path, &c.bytes).unwrap();
        c
    }

    #[test]
    fn info_lists_the_fields_of_a_container() {
        let farc = tmp("fields.cszm");
        let c = write_container(&farc);
        let info = cli(&["info", "-i", &farc]).unwrap();
        let [pa, va] = [0, 1].map(|i| c.fields[i].archive_bytes);
        for want in [
            "multi-field container".to_string(),
            "fields:     2".to_string(),
            format!("pressure: 8x12x16, {pa} B (CR {:.1})", (8 * 12 * 16 * 4) as f64 / pa as f64),
            format!("velocity: 24x20, {va} B (CR {:.1})", (24 * 20 * 4) as f64 / va as f64),
            format!("total:      {} B (aggregate CR {:.1}", c.bytes.len(), c.aggregate_cr()),
        ] {
            assert!(info.contains(&want), "{want}: {info}");
        }
        let _ = fs::remove_file(farc);
    }

    #[test]
    fn info_rejects_a_truncated_container() {
        let farc = tmp("fields-cut.cszm");
        let c = write_container(&farc);
        fs::write(&farc, &c.bytes[..c.bytes.len() - 1]).unwrap();
        let err = cli(&["info", "-i", &farc]).unwrap_err();
        assert!(err.0.contains("corrupt archive: container"), "{err}");
        let _ = fs::remove_file(farc);
    }

    #[test]
    fn slab_rejects_psnr_mode_and_non_3d() {
        let fin = tmp("slab-rej.f32");
        write_f32_field(Path::new(&fin), &NdArray::zeros(Shape::d3(8, 8, 8))).unwrap();
        let slab = |extra: &[&str]| {
            let args = ["compress", "-i", &fin, "-o", "/dev/null", "--dims", "8x8x8", "--slab", "4"];
            cli(&[&args[..], extra].concat()).unwrap_err()
        };
        let err = slab(&["--psnr", "70"]);
        assert!(err.0.contains("--slab supports"), "{err}");
        // The slab path never holds the whole field, so it cannot verify.
        let err = slab(&["--abs-eb", "1e-3", "--verify"]);
        assert!(err.0.contains("--verify"), "{err}");
        let _ = fs::remove_file(fin);
    }
}
