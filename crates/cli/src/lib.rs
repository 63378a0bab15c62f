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

pub mod serve;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use cuszi_core::{
    compress_pw_rel, compress_slabs_streams, compress_to_psnr, decompress_pw_rel,
    decompress_slabs_streams, Config, CuszError, CuszI,
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
        /// `Some("")` uses `<output>.trace.json`. `CUSZI_PROFILE=1`
        /// turns this on ambiently even when `None`.
        profile: Option<String>,
        /// Run the calibrated autotuner and print its candidate orders
        /// and decision.
        autotune: bool,
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
    /// Point-wise relative bound with its magnitude floor.
    PwRel(f64, f32),
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
                   (--rel-eb E | --abs-eb E | --psnr DB | --pw-rel E [--floor F])
                   [--no-bitcomp] [--verify] [--slab Z [--streams N]]
                   [--profile[=TRACE.json]] [--autotune]
                   [--audit] [--prom[=METRICS.prom]]
  cuszi decompress -i <in.cszi> -o <out.f32> [--streams N]
                   [--profile[=TRACE.json]]
  cuszi info       -i <in.cszi>
  cuszi serve      [--addr HOST:PORT] [--workers N] [--max-inflight N]
                   [--devices M]

Dims are slowest-to-fastest (z x y x x), e.g. --dims 256x384x384;
1-d and 2-d fields use fewer components (--dims 1000 or --dims 384x384).

--profile records a kernel/stage profile: a Perfetto-loadable Chrome
trace (default <out>.trace.json), a per-kernel roofline table with
bottleneck verdicts, and a span time summary. CUSZI_PROFILE=1 in the
environment does the same without the flag.

--streams overlaps slab compression (with --slab) or slab-stream
decompression across N gpu-sim streams (default: auto from
CUSZI_STREAMS or core count). Archives and reconstructions are
byte-identical for any stream count.

--autotune replaces the static tuner's dimension order with a calibrated
one: a centre crop is compressed once per candidate order and the order
with the largest zero-code fraction wins (ties keep the profiled order).
The candidate orders and their zero-code fractions are printed with the
decision. Decisions are cached per dataset family.

--audit streams the fidelity audit: per-interp-level element/outlier
counts, quant-code entropy, anchor share, hot-block outlier counts,
and a sampled decode-verify of max abs error against the bound,
printed as a per-level table.

--prom writes the run's metrics registry (compress.*, audit.*) as
Prometheus text exposition (default <out>.prom); implies profiling.

serve starts a multi-tenant daemon (default 127.0.0.1:7070): a
length-prefixed TCP frame protocol feeding a shared engine with a
session cache, per-tenant token-bucket fairness, and in-flight
backpressure. --devices M places jobs onto M simulated devices
(least-loaded, with session-cache affinity — see docs/SHARDING.md).
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
    let mut autotune = false;
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
            "--pw-rel" => {
                mode = Some(BoundMode::PwRel(
                    val("--pw-rel")?.parse().map_err(|_| CliError("bad --pw-rel".into()))?,
                    1e-6,
                ))
            }
            "--floor" => {
                let f: f32 =
                    val("--floor")?.parse().map_err(|_| CliError("bad --floor".into()))?;
                match mode {
                    Some(BoundMode::PwRel(e, _)) => mode = Some(BoundMode::PwRel(e, f)),
                    _ => return Err(CliError("--floor requires --pw-rel first".into())),
                }
            }
            "--no-bitcomp" => bitcomp = false,
            "--verify" => verify = true,
            "--autotune" => autotune = true,
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
            mode: mode.ok_or_else(|| CliError("missing --rel-eb/--abs-eb/--psnr/--pw-rel".into()))?,
            bitcomp,
            verify,
            slab,
            streams,
            profile,
            autotune,
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
            autotune,
            audit,
            prom,
        } => {
            // Profiling wraps the whole compress run (either path);
            // `CUSZI_PROFILE=1` in the environment is equivalent to
            // passing --profile. --prom implies profiling because the
            // metrics registry only fills while the profiler is on.
            let profiling =
                profile.is_some() || prom.is_some() || cuszi_profile::init_from_env();
            let trace_path = match &profile {
                Some(p) if !p.is_empty() => p.clone(),
                _ => format!("{output}.trace.json"),
            };
            let prom_path = prom.as_ref().map(|p| {
                if p.is_empty() { format!("{output}.prom") } else { p.clone() }
            });
            if profiling {
                cuszi_profile::install();
                cuszi_profile::enable(true);
            }
            let opts = CompressOpts { bitcomp, verify, autotune, audit };
            let mut result = if let Some(slab_z) = slab {
                compress_streamed(&input, &output, shape, mode, slab_z, streams, opts)
            } else if streams.is_some() {
                Err(CliError("--streams requires --slab".into()))
            } else {
                compress_whole(&input, &output, shape, mode, opts)
            };
            if profiling {
                cuszi_profile::enable(false);
                if let (Ok(text), Some(p)) = (&mut result, cuszi_profile::profiler()) {
                    let rep = p.report();
                    fs::write(&trace_path, rep.chrome_trace())?;
                    writeln!(text, "\n{}", rep.kernel_report().trim_end()).ok();
                    writeln!(text, "\nspan summary (wall time)\n{}", rep.flame_summary().trim_end())
                        .ok();
                    writeln!(
                        text,
                        "\ntrace written to {trace_path} — load it at ui.perfetto.dev"
                    )
                    .ok();
                    if let Some(pp) = &prom_path {
                        fs::write(pp, rep.metrics.render_prometheus())?;
                        writeln!(text, "metrics exposition written to {pp}").ok();
                    }
                }
            }
            result
        }
        Command::Decompress { input, output, streams, profile } => {
            // Mirror the compress profiling wrap so decode-side kernel
            // behaviour is observable with the same artifacts.
            let profiling = profile.is_some() || cuszi_profile::init_from_env();
            let trace_path = match &profile {
                Some(p) if !p.is_empty() => p.clone(),
                _ => format!("{output}.trace.json"),
            };
            if profiling {
                cuszi_profile::install();
                cuszi_profile::enable(true);
            }
            let mut result = decompress_one(&input, &output, streams);
            if profiling {
                cuszi_profile::enable(false);
                if let (Ok(text), Some(p)) = (&mut result, cuszi_profile::profiler()) {
                    let rep = p.report();
                    fs::write(&trace_path, rep.chrome_trace())?;
                    writeln!(text, "\n{}", rep.kernel_report().trim_end()).ok();
                    writeln!(text, "\nspan summary (wall time)\n{}", rep.flame_summary().trim_end())
                        .ok();
                    writeln!(
                        text,
                        "\ntrace written to {trace_path} — load it at ui.perfetto.dev"
                    )
                    .ok();
                }
            }
            result
        }
        Command::Info { input } => info_text(&input),
        Command::Serve { addr, workers, max_inflight, devices } => {
            serve::serve(&serve::ServeConfig { addr, workers, max_inflight, devices })
        }
    }
}

/// Execution toggles shared by the whole-field and slab paths.
#[derive(Clone, Copy)]
struct CompressOpts {
    bitcomp: bool,
    verify: bool,
    autotune: bool,
    audit: bool,
}

impl CompressOpts {
    /// Apply the toggles to a base configuration.
    fn apply(&self, mut cfg: Config) -> Config {
        if !self.bitcomp {
            cfg = cfg.without_bitcomp();
        }
        if self.autotune {
            cfg = cfg.with_kernel_autotune();
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
    let d = if bytes.starts_with(b"CSZR") {
        cuszi_core::Decompressed { data: decompress_pw_rel(&bytes, base)?, kernels: Vec::new() }
    } else {
        CuszI::new(base).decompress(&bytes)?
    };
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
    let verify = opts.verify;
    let mut out = String::new();
    let data = read_f32_field(Path::new(input), shape)?;
    let base = match mode {
        BoundMode::Rel(e) => Config::new(ErrorBound::Rel(e)),
        BoundMode::Abs(e) => Config::new(ErrorBound::Abs(e)),
        BoundMode::Psnr(_) | BoundMode::PwRel(..) => Config::new(ErrorBound::Rel(1e-3)),
    };
    let base = opts.apply(base);
    if opts.autotune {
        // Print the calibration decision up front; the compress path
        // below hits the per-family cache, so the work is not repeated.
        if let Some(range) = cuszi_tensor::stats::ValueRange::of(data.as_slice()) {
            let eb_abs = base.error_bound.absolute(range.range() as f64);
            let rel_eb = base.error_bound.relative(range.range() as f64);
            if eb_abs.is_finite() && eb_abs > 0.0 {
                let d = cuszi_core::autotune(&data, rel_eb, eb_abs, base.radius, &base.device);
                writeln!(out, "{}", d.render().trim_end()).ok();
            }
        }
    }
    if opts.audit && matches!(mode, BoundMode::PwRel(..)) {
        return Err(CliError(
            "--audit supports --rel-eb/--abs-eb/--psnr (pw-rel transforms the field)".into(),
        ));
    }
    let (bytes, eb_abs, audit_rep) = match mode {
        BoundMode::Psnr(db) => {
            let r = compress_to_psnr(&data, db, 1.0, base)?;
            writeln!(out, "psnr target {db:.1} dB -> achieved {:.1} dB", r.achieved_psnr)
                .ok();
            (r.compressed.bytes, r.compressed.eb_abs, r.compressed.audit)
        }
        BoundMode::PwRel(eps, floor) => {
            let r = compress_pw_rel(&data, eps, floor, base)?;
            writeln!(out, "point-wise relative eps {eps:.1e}, floor {floor:.1e}").ok();
            (r.bytes, r.log_eb, None)
        }
        _ => {
            let c = CuszI::new(base).compress(&data)?;
            (c.bytes, c.eb_abs, c.audit)
        }
    };
    writeln!(
        out,
        "{input} ({shape}, {:.1} MB) -> {output} ({:.1} KB), CR {:.1}, {:.3} bits/elem, abs eb {eb_abs:.3e}",
        (data.len() * 4) as f64 / 1e6,
        bytes.len() as f64 / 1e3,
        compression_ratio(data.len() * 4, bytes.len()),
        bit_rate(data.len(), bytes.len()),
    )
    .ok();
    if verify {
        let d = match mode {
            BoundMode::PwRel(..) => cuszi_core::Decompressed {
                data: decompress_pw_rel(&bytes, base)?,
                kernels: Vec::new(),
            },
            _ => CuszI::new(base).decompress(&bytes)?,
        };
        let m = distortion(data.as_slice(), d.data.as_slice())
            .ok_or_else(|| CliError("empty field".into()))?;
        let abs_mode = !matches!(mode, BoundMode::PwRel(..));
        if abs_mode && m.max_abs_err > eb_abs * (1.0 + 1e-6) {
            return Err(CliError(format!(
                "VERIFY FAILED: max error {:.3e} exceeds bound {eb_abs:.3e}",
                m.max_abs_err
            )));
        }
        writeln!(out, "verified: PSNR {:.1} dB, max err {:.3e}", m.psnr, m.max_abs_err)
            .ok();
    }
    if opts.audit {
        let mut rep = audit_rep
            .ok_or_else(|| CliError("audit report missing from compressed output".into()))?;
        // Sampled decode-verify: close the loop against the actual
        // reconstruction, attributing max error per interp level.
        let d = CuszI::new(base).decompress(&bytes)?;
        cuszi_core::audit::verify_decode(
            &mut rep,
            &data,
            &d.data,
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
    if bytes.starts_with(b"CSZR") {
        if bytes.len() < 36 {
            return Err(CliError("truncated pw-rel archive".into()));
        }
        let eps = f64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let floor = f64::from_le_bytes(bytes[12..20].try_into().unwrap());
        writeln!(out, "cuSZ-i point-wise-relative archive").ok();
        writeln!(out, "  eps:    {eps:.3e}").ok();
        writeln!(out, "  floor:  {floor:.3e}").ok();
        writeln!(out, "  total:  {} B", bytes.len()).ok();
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
    if opts.audit {
        return Err(CliError(
            "--audit needs the whole field resident; drop --slab to run it".into(),
        ));
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cuszi-cli-test-{}-{name}", std::process::id()));
        p
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
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
                autotune: false,
                audit: false,
                prom: None,
            }
        );
    }

    #[test]
    fn fuse_is_not_a_compress_flag() {
        let err = parse_args(&strings(&[
            "compress", "-i", "a.f32", "-o", "a.cszi", "--dims", "8x8x8", "--rel-eb", "1e-3",
            "--fuse",
        ]))
        .unwrap_err();
        assert!(err.0.contains("unknown argument '--fuse'"), "{err}");
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
        let fin = tmp("in.f32");
        let farc = tmp("a.cszi");
        let fout = tmp("out.f32");
        write_f32_field(&fin, &data).unwrap();

        let msg = run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::Rel(1e-3),
            bitcomp: true,
            verify: true,
            slab: None,
            streams: None,
            profile: None,
            autotune: false,
            audit: false,
            prom: None,
        })
        .unwrap();
        assert!(msg.contains("verified"), "{msg}");

        run(Command::Decompress {
            input: farc.to_string_lossy().into(),
            output: fout.to_string_lossy().into(),
            streams: None,
            profile: None,
        })
        .unwrap();
        let recon = read_f32_field(&fout, shape).unwrap();
        let m = distortion(data.as_slice(), recon.as_slice()).unwrap();
        assert!(m.psnr > 50.0);

        let info = run(Command::Info { input: farc.to_string_lossy().into() }).unwrap();
        assert!(info.contains("16x16x16"), "{info}");

        for f in [fin, farc, fout] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn psnr_mode_reports_achieved() {
        let shape = Shape::d2(48, 48);
        let data =
            NdArray::from_fn(shape, |_, y, x| ((x as f32) * 0.2).sin() + (y as f32) * 0.01);
        let fin = tmp("p.f32");
        let farc = tmp("p.cszi");
        write_f32_field(&fin, &data).unwrap();
        let msg = run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::Psnr(60.0),
            bitcomp: true,
            verify: false,
            slab: None,
            streams: None,
            profile: None,
            autotune: false,
            audit: false,
            prom: None,
        })
        .unwrap();
        assert!(msg.contains("achieved"), "{msg}");
        for f in [fin, farc] {
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
        let shape = Shape::d3(16, 16, 16);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
        });
        let fin = tmp("prof-in.f32");
        let farc = tmp("prof.cszi");
        let ftrace = tmp("prof.trace.json");
        write_f32_field(&fin, &data).unwrap();
        let msg = run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::Rel(1e-3),
            bitcomp: true,
            verify: false,
            slab: None,
            streams: None,
            profile: Some(ftrace.to_string_lossy().into()),
            autotune: false,
            audit: false,
            prom: None,
        })
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
        let shape = Shape::d3(24, 24, 24);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + 2 * y) as f32 * 0.15).sin() + (z as f32) * 0.04
        });
        let fin = tmp("audit-in.f32");
        let farc = tmp("audit.cszi");
        write_f32_field(&fin, &data).unwrap();
        let msg = run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::Rel(1e-3),
            bitcomp: true,
            verify: false,
            slab: None,
            streams: None,
            profile: None,
            autotune: false,
            audit: true,
            prom: None,
        })
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
    fn audit_rejects_slab_and_pwrel_modes() {
        let shape = Shape::d3(8, 8, 8);
        let fin = tmp("audit-rej.f32");
        write_f32_field(&fin, &NdArray::zeros(shape)).unwrap();
        let mk = |mode, slab| Command::Compress {
            input: fin.to_string_lossy().into(),
            output: "/dev/null".into(),
            shape,
            mode,
            bitcomp: true,
            verify: false,
            slab,
            streams: None,
            profile: None,
            autotune: false,
            audit: true,
            prom: None,
        };
        let err = run(mk(BoundMode::Abs(1e-3), Some(4))).unwrap_err();
        assert!(err.0.contains("--audit"), "{err}");
        let err = run(mk(BoundMode::PwRel(1e-2, 1e-6), None)).unwrap_err();
        assert!(err.0.contains("--audit"), "{err}");
        let _ = fs::remove_file(fin);
    }

    #[test]
    fn prom_flag_writes_metrics_exposition() {
        let shape = Shape::d3(16, 16, 16);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + y) as f32 * 0.1).cos() + z as f32 * 0.02
        });
        let fin = tmp("prom-in.f32");
        let farc = tmp("prom.cszi");
        let fprom = tmp("prom.prom");
        let ftrace = tmp("prom.trace.json");
        write_f32_field(&fin, &data).unwrap();
        let msg = run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::Rel(1e-3),
            bitcomp: true,
            verify: false,
            slab: None,
            streams: None,
            profile: Some(ftrace.to_string_lossy().into()),
            autotune: false,
            audit: true,
            prom: Some(fprom.to_string_lossy().into()),
        })
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
    fn profiled_decompress_writes_trace() {
        let shape = Shape::d3(16, 16, 16);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
        });
        let fin = tmp("dprof-in.f32");
        let farc = tmp("dprof.cszi");
        let fout = tmp("dprof-out.f32");
        let ftrace = tmp("dprof.trace.json");
        write_f32_field(&fin, &data).unwrap();
        run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::Rel(1e-3),
            bitcomp: true,
            verify: false,
            slab: None,
            streams: None,
            profile: None,
            autotune: false,
            audit: false,
            prom: None,
        })
        .unwrap();
        let msg = run(Command::Decompress {
            input: farc.to_string_lossy().into(),
            output: fout.to_string_lossy().into(),
            streams: None,
            profile: Some(ftrace.to_string_lossy().into()),
        })
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
        let err = read_f32_field(&fin, Shape::d1(100)).unwrap_err();
        assert!(err.0.contains("need"), "{err}");
        let _ = fs::remove_file(fin);
    }
}

#[cfg(test)]
mod pwrel_cli_tests {
    use super::*;
    use cuszi_tensor::{NdArray, Shape};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cuszi-cli-pwrel-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn parse_pw_rel_with_floor() {
        let args: Vec<String> = [
            "compress", "-i", "a.f32", "-o", "a.cszi", "--dims", "8x8", "--pw-rel", "1e-2",
            "--floor", "1e-5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cmd = parse_args(&args).unwrap();
        match cmd {
            Command::Compress { mode: BoundMode::PwRel(e, f), .. } => {
                assert_eq!(e, 1e-2);
                assert_eq!(f, 1e-5);
            }
            other => panic!("{other:?}"),
        }
        // --floor before --pw-rel is rejected.
        let bad: Vec<String> =
            ["compress", "-i", "a", "-o", "b", "--dims", "4", "--floor", "1e-5"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn pw_rel_file_roundtrip_via_magic_dispatch() {
        let shape = Shape::d3(8, 10, 12);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + y) as f32 * 0.3).sin() * 10f32.powi((z % 3) as i32 - 1)
        });
        let fin = tmp("in.f32");
        let farc = tmp("a.cszr");
        let fout = tmp("out.f32");
        write_f32_field(&fin, &data).unwrap();
        run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::PwRel(1e-2, 1e-6),
            bitcomp: true,
            verify: true,
            slab: None,
            streams: None,
            profile: None,
            autotune: false,
            audit: false,
            prom: None,
        })
        .unwrap();
        // Decompress auto-detects the CSZR magic.
        run(Command::Decompress {
            input: farc.to_string_lossy().into(),
            output: fout.to_string_lossy().into(),
            streams: None,
            profile: None,
        })
        .unwrap();
        let recon = read_f32_field(&fout, shape).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(recon.as_slice()) {
            // pw-rel contract: relative above the floor, ~floor below.
            let tol = (1.02e-2 * (a.abs() as f64)).max(1.02e-6) + 1e-12;
            assert!(((a as f64) - (b as f64)).abs() <= tol, "{a} vs {b}");
        }
        for f in [fin, farc, fout] {
            let _ = std::fs::remove_file(f);
        }
    }
}

#[cfg(test)]
mod slab_cli_tests {
    use super::*;
    use cuszi_tensor::{NdArray, Shape};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cuszi-cli-slab-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn slab_roundtrip_through_files() {
        let shape = Shape::d3(20, 12, 16);
        let data = NdArray::from_fn(shape, |z, y, x| {
            ((x + y) as f32 * 0.2).sin() + (z as f32) * 0.03
        });
        let fin = tmp("in.f32");
        let farc = tmp("a.cszs");
        let fout = tmp("out.f32");
        write_f32_field(&fin, &data).unwrap();
        let msg = run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: farc.to_string_lossy().into(),
            shape,
            mode: BoundMode::Abs(1e-3),
            bitcomp: true,
            verify: false,
            slab: Some(8),
            streams: Some(2),
            profile: None,
            autotune: false,
            audit: false,
            prom: None,
        })
        .unwrap();
        assert!(msg.contains("z-slabs of 8"), "{msg}");
        let dmsg = run(Command::Decompress {
            input: farc.to_string_lossy().into(),
            output: fout.to_string_lossy().into(),
            streams: Some(2),
            profile: None,
        })
        .unwrap();
        assert!(dmsg.contains("2 streams"), "{dmsg}");
        let recon = read_f32_field(&fout, shape).unwrap();
        for (&a, &b) in data.as_slice().iter().zip(recon.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.000001);
        }
        for f in [fin, farc, fout] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn slab_rejects_psnr_mode_and_non_3d() {
        let shape = Shape::d3(8, 8, 8);
        let fin = tmp("p.f32");
        write_f32_field(&fin, &NdArray::zeros(shape)).unwrap();
        let err = run(Command::Compress {
            input: fin.to_string_lossy().into(),
            output: "/dev/null".into(),
            shape,
            mode: BoundMode::Psnr(70.0),
            bitcomp: true,
            verify: false,
            slab: Some(4),
            streams: None,
            profile: None,
            autotune: false,
            audit: false,
            prom: None,
        })
        .unwrap_err();
        assert!(err.0.contains("--slab supports"), "{err}");
        let _ = std::fs::remove_file(fin);
    }
}
