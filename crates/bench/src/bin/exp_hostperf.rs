//! Host wall-clock throughput of the execution substrate.
//!
//! Unlike the `exp_fig9` *modelled* GPU throughputs, this measures how
//! fast the CPU-resident kernel substrate actually runs: end-to-end
//! compress/decompress MB/s for cuSZ-i and the Table III baselines on
//! all six synthetic datasets, plus a per-stage breakdown of the cuSZ-i
//! pipeline. Results go to a JSON report (default `BENCH_1.json`) so
//! successive commits can be diffed.
//!
//! Usage: `exp_hostperf [--paper] [--seed N] [--out PATH] [--profile]
//! [--streams N] [--compare BASELINE.json]`
//!
//! `--compare` runs the noise-aware regression sentinel against a
//! previous report after writing the new one: every dataset x codec
//! throughput is gated on a 3-sigma band from both runs' recorded
//! jitter, CR and modelled DRAM bytes on a tight fixed tolerance, and
//! the process exits nonzero when a significant regression is found.
//! Reports taken under different bench configs are refused.
//! Env: `CUSZI_BENCH_QUICK=1` / `CUSZI_BENCH_SAMPLES=N` (see
//! `cuszi_bench::timing`); `CUSZI_PROFILE=1` is equivalent to
//! `--profile`. Profiling dumps a `profile_<n>.json` companion (kernel
//! table + span trace + metric counters) next to `BENCH_<n>.json`.
//!
//! `--streams N` adds an overlap section per dataset: batch (all
//! fields) and slab-streamed compression at 1 stream vs N streams,
//! wall-clock speedup plus the scheduler's sim-time overlap ratio.
//! A mirrored `decompress` section does the same for the decode
//! direction and additionally reports the gap-array Huffman decoder's
//! self-synchronization accounting (sector re-decode rate, bridge
//! symbols, host-fallback chunks) and the modelled roofline
//! compress-vs-decompress throughput pair.

use cuszi_bench::timing::{section, Bench, Measurement};
use cuszi_bench::{codec_roster, parse_args};
use cuszi_core::{
    compress_fields_streams, compress_slabs_streams, decompress_fields_streams,
    decompress_slabs_streams, Config, NamedField,
};
use cuszi_datagen::{generate, DatasetKind};
use cuszi_gpu_sim::{TimingModel, A100};
use cuszi_huffman::{decode_gpu, encode_gpu, histogram_gpu, Codebook};
use cuszi_predict::ginterp;
use cuszi_predict::tuning::InterpConfig;
use cuszi_quant::ErrorBound;
use cuszi_tensor::stats::ValueRange;

const REL_EB: f64 = 1e-3;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn stage_json(m: &Measurement, total_s: f64) -> String {
    let share = if total_s > 0.0 { m.min_s / total_s * 100.0 } else { 0.0 };
    format!(
        "{{\"name\":\"{}\",\"ms\":{:.4},\"mbps\":{:.2},\"share_pct\":{share:.2}}}",
        json_escape(&m.name),
        m.min_s * 1e3,
        m.mbps().unwrap_or(0.0)
    )
}

/// Per-stage host timings of the cuSZ-i pipeline on one field. Each
/// stage's best-sample run is wrapped in a tracer span so a profiled
/// run (`--profile`) shows the same breakdown on the trace timeline.
///
/// The `fused_predict_hist` entry times the fused
/// predict-quant+histogram kernel (the `--fuse` path); it replaces the
/// `predict_ginterp` + `histogram` pair, so it is excluded from the
/// share-percentage denominator of the classic roster.
fn cuszi_stages(b: &Bench, field: &cuszi_tensor::NdArray<f32>) -> Vec<Measurement> {
    let bytes = Some((field.len() * 4) as u64);
    let range = ValueRange::of(field.as_slice()).unwrap().range() as f64;
    let eb = REL_EB * range;
    let cfg = InterpConfig::untuned(field.shape().rank().min(3));
    use cuszi_profile::{span, Category::Stage};
    let mut out = Vec::new();
    out.push({
        let _g = span("predict_ginterp", Stage);
        b.run("predict_ginterp", bytes, || ginterp::compress(field, eb, 512, &cfg, &A100))
    });
    let gi = ginterp::compress(field, eb, 512, &cfg, &A100);
    out.push({
        let _g = span("histogram", Stage);
        b.run("histogram", bytes, || histogram_gpu(&gi.codes, 1024, 512, 32, &A100))
    });
    let (hist, _) = histogram_gpu(&gi.codes, 1024, 512, 32, &A100);
    let book = Codebook::from_histogram(&hist).unwrap();
    out.push({
        let _g = span("codebook_cpu", Stage);
        b.run("codebook_cpu", bytes, || Codebook::from_histogram(&hist))
    });
    out.push({
        let _g = span("huffman_encode", Stage);
        b.run("huffman_encode", bytes, || encode_gpu(&gi.codes, &book, &A100))
    });
    let (stream, _) = encode_gpu(&gi.codes, &book, &A100);
    let payload = stream.to_bytes();
    out.push({
        let _g = span("bitcomp", Stage);
        b.run("bitcomp", bytes, || cuszi_bitcomp::compress(&payload, &A100))
    });
    out.push({
        let _g = span("fused_predict_hist", Stage);
        b.run("fused_predict_hist", bytes, || {
            ginterp::compress_fused(field, eb, 512, &cfg, 32, &A100)
        })
    });
    out
}

/// Modelled DRAM traffic of the separate predict+histogram pair vs the
/// fused kernel — the bytes the fusion saves (the code plane is no
/// longer re-read). Reported per dataset in the JSON so successive
/// commits can diff it.
fn fusion_dram_json(field: &cuszi_tensor::NdArray<f32>) -> String {
    let range = ValueRange::of(field.as_slice()).unwrap().range() as f64;
    let eb = REL_EB * range;
    let cfg = InterpConfig::untuned(field.shape().rank().min(3));
    let gi = ginterp::compress(field, eb, 512, &cfg, &A100);
    let (_, hstats) = histogram_gpu(&gi.codes, 1024, 512, 32, &A100);
    let sep_bytes: u64 = gi.kernels.iter().map(|k| k.dram_bytes()).sum::<u64>() + hstats.dram_bytes();
    let sep_excess: u64 =
        gi.kernels.iter().map(|k| k.dram_excess_bytes()).sum::<u64>() + hstats.dram_excess_bytes();
    let (gf, _) = ginterp::compress_fused(field, eb, 512, &cfg, 32, &A100);
    let fused_bytes: u64 = gf.kernels.iter().map(|k| k.dram_bytes()).sum();
    let fused_excess: u64 = gf.kernels.iter().map(|k| k.dram_excess_bytes()).sum();
    format!(
        "{{\"separate_dram_bytes\":{sep_bytes},\"fused_dram_bytes\":{fused_bytes},\
         \"separate_dram_excess_bytes\":{sep_excess},\"fused_dram_excess_bytes\":{fused_excess}}}"
    )
}

/// Multi-stream overlap benchmark on one dataset: batch (all fields)
/// and slab-streamed (first field, >= 4 z-slabs) compression at one
/// stream vs `n` streams.
///
/// Two timelines are reported. `sim_*` is the modelled-GPU timeline
/// from the per-stream sim clocks (the metric the roofline model and
/// `exp_fig9` speak in): with n streams the makespan is the *maximum*
/// stream clock instead of the serial sum, which is exactly the
/// latency win CUDA streams buy on hardware. `wall_*` is host
/// wall-clock, which tracks the sim win only when the host has spare
/// cores to run the streams on (`host_cores` is recorded so readers
/// can tell — on a 1-core container wall time cannot improve).
/// One serial-vs-n-streams timing pair as a `"label":{...}` JSON
/// member, shared by the compress and decompress overlap sections.
fn overlap_pair_json(
    label: &str,
    extra: String,
    w1: f64,
    wn: f64,
    r1: &cuszi_core::ScheduleReport,
    rn: &cuszi_core::ScheduleReport,
) -> String {
    let sim1 = r1.sim_elapsed_ns() as f64 / 1e6;
    let simn = rn.sim_elapsed_ns() as f64 / 1e6;
    format!(
        "\"{label}\":{{{extra}\"wall_serial_ms\":{:.4},\"wall_parallel_ms\":{:.4},\
         \"wall_speedup\":{:.4},\"sim_serial_ms\":{sim1:.4},\"sim_parallel_ms\":{simn:.4},\
         \"sim_speedup\":{:.4},\"sim_overlap\":{:.4}}}",
        w1 * 1e3,
        wn * 1e3,
        w1 / wn.max(1e-12),
        sim1 / simn.max(1e-9),
        rn.overlap_speedup(),
    )
}

fn overlap_json(b: &Bench, ds: &cuszi_datagen::Dataset, n: usize) -> String {
    let cfg = Config::new(ErrorBound::Rel(REL_EB));
    let named: Vec<NamedField> =
        ds.fields.iter().map(|f| NamedField { name: f.name, data: &f.data }).collect();
    let total: u64 = named.iter().map(|f| (f.data.len() * 4) as u64).sum();
    let b1 = b.run("batch --streams 1", Some(total), || {
        compress_fields_streams(&named, cfg, 1).unwrap()
    });
    let bn = b.run(&format!("batch --streams {n}"), Some(total), || {
        compress_fields_streams(&named, cfg, n).unwrap()
    });
    let (_, brep1) = compress_fields_streams(&named, cfg, 1).unwrap();
    let (_, brepn) = compress_fields_streams(&named, cfg, n).unwrap();

    let field = &ds.fields[0].data;
    let shape = field.shape();
    let [nz, ny, nx] = shape.dims3();
    // Thick enough slabs to be real work, enough of them to overlap.
    let slab_z = (nz / 8).max(1);
    let produce = |z0: usize, snz: usize| {
        cuszi_tensor::NdArray::from_fn(cuszi_tensor::Shape::d3(snz, ny, nx), |z, y, x| {
            field.get3(z0 + z, y, x)
        })
    };
    let fbytes = (field.len() * 4) as u64;
    let s1 = b.run("slab --streams 1", Some(fbytes), || {
        compress_slabs_streams(shape, slab_z, cfg, 1, produce).unwrap()
    });
    let sn = b.run(&format!("slab --streams {n}"), Some(fbytes), || {
        compress_slabs_streams(shape, slab_z, cfg, n, produce).unwrap()
    });
    let (_, srep1) = compress_slabs_streams(shape, slab_z, cfg, 1, produce).unwrap();
    let (_, srepn) = compress_slabs_streams(shape, slab_z, cfg, n, produce).unwrap();

    format!(
        "{{\"streams\":{n},\"host_cores\":{},{},{}}}",
        std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
        overlap_pair_json(
            "batch",
            format!("\"fields\":{},", named.len()),
            b1.min_s,
            bn.min_s,
            &brep1,
            &brepn
        ),
        overlap_pair_json(
            "slab",
            format!("\"slab_z\":{slab_z},"),
            s1.min_s,
            sn.min_s,
            &srep1,
            &srepn
        ),
    )
}

/// Decompress-side counterpart of `overlap_json` plus decode-path
/// instrumentation, per dataset:
///
/// * `batch` / `slab`: decompression of the CSZM / CSZS containers at
///   1 stream vs `n` streams, same wall + sim timeline pair as the
///   compress section.
/// * `gap`: the gap-array Huffman decoder's self-synchronization
///   accounting on the representative field — how many speculative
///   sectors joined the true chain, how many needed the pass-2
///   re-decode, bridge symbols, and host-fallback chunks.
/// * `modelled`: roofline (sim-kernel) compress vs decompress
///   throughput. The decode pipeline is shorter (no histogram or
///   codebook pass, and the two-pass gap decode touches each sector at
///   most twice), so modelled decompress should meet or beat compress;
///   recording both lets a report diff catch either side regressing.
fn decompress_json(b: &Bench, ds: &cuszi_datagen::Dataset, n: usize) -> String {
    let cfg = Config::new(ErrorBound::Rel(REL_EB));
    let named: Vec<NamedField> =
        ds.fields.iter().map(|f| NamedField { name: f.name, data: &f.data }).collect();
    let total: u64 = named.iter().map(|f| (f.data.len() * 4) as u64).sum();
    let (batch, _) = compress_fields_streams(&named, cfg, n).unwrap();
    let b1 = b.run("batch decompress --streams 1", Some(total), || {
        decompress_fields_streams(&batch.bytes, cfg, 1).unwrap()
    });
    let bn = b.run(&format!("batch decompress --streams {n}"), Some(total), || {
        decompress_fields_streams(&batch.bytes, cfg, n).unwrap()
    });
    let (_, brep1) = decompress_fields_streams(&batch.bytes, cfg, 1).unwrap();
    let (_, brepn) = decompress_fields_streams(&batch.bytes, cfg, n).unwrap();

    let field = &ds.fields[0].data;
    let shape = field.shape();
    let [nz, ny, nx] = shape.dims3();
    let slab_z = (nz / 8).max(1);
    let produce = |z0: usize, snz: usize| {
        cuszi_tensor::NdArray::from_fn(cuszi_tensor::Shape::d3(snz, ny, nx), |z, y, x| {
            field.get3(z0 + z, y, x)
        })
    };
    let fbytes = (field.len() * 4) as u64;
    let (slabs, _) = compress_slabs_streams(shape, slab_z, cfg, n, produce).unwrap();
    let s1 = b.run("slab decompress --streams 1", Some(fbytes), || {
        decompress_slabs_streams(&slabs, cfg, 1, |_, _| {}).unwrap()
    });
    let sn = b.run(&format!("slab decompress --streams {n}"), Some(fbytes), || {
        decompress_slabs_streams(&slabs, cfg, n, |_, _| {}).unwrap()
    });
    let (_, srep1) = decompress_slabs_streams(&slabs, cfg, 1, |_, _| {}).unwrap();
    let (_, srepn) = decompress_slabs_streams(&slabs, cfg, n, |_, _| {}).unwrap();

    // Gap-array accounting on the representative field's code plane.
    let range = ValueRange::of(field.as_slice()).unwrap().range() as f64;
    let eb = REL_EB * range;
    let icfg = InterpConfig::untuned(shape.rank().min(3));
    let gi = ginterp::compress(field, eb, 512, &icfg, &A100);
    let (hist, _) = histogram_gpu(&gi.codes, 1024, 512, 32, &A100);
    let book = Codebook::from_histogram(&hist).unwrap();
    let (stream, _) = encode_gpu(&gi.codes, &book, &A100);
    let dec = decode_gpu(&stream, &book, &A100).unwrap();

    // Modelled (roofline) end-to-end throughput, both directions.
    let codec = cuszi_core::CuszI::new(cfg);
    let c = codec.compress(field).unwrap();
    let d = codec.decompress(&c.bytes).unwrap();
    let model = TimingModel::new(A100);
    let compress_gbps = model.throughput_gbps(fbytes, &c.kernels);
    let decompress_gbps = model.throughput_gbps(fbytes, &d.kernels);

    format!(
        "{{\"streams\":{n},{},{},\
         \"gap\":{{\"sectors\":{},\"launches\":{},\"gap_bytes\":{},\"gap_share\":{:.5}}},\
         \"modelled\":{{\"compress_gbps\":{compress_gbps:.3},\
         \"decompress_gbps\":{decompress_gbps:.3}}}}}",
        overlap_pair_json(
            "batch",
            format!("\"fields\":{},", named.len()),
            b1.min_s,
            bn.min_s,
            &brep1,
            &brepn
        ),
        overlap_pair_json(
            "slab",
            format!("\"slab_z\":{slab_z},"),
            s1.min_s,
            sn.min_s,
            &srep1,
            &srepn
        ),
        dec.report.sectors,
        dec.kernels.len(),
        stream.gaps.len(),
        stream.gaps.len() as f64 / stream.serialized_len() as f64,
    )
}

/// One-line command output, for provenance stamping; "unknown" when
/// the tool is unavailable (e.g. no git in the container).
fn tool_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Provenance block: which code and toolchain produced this report.
/// The sentinel prints it in comparison headers; the config itself
/// (scale/seed/eb/streams) lives in the top-level fields it gates on.
fn provenance_json() -> String {
    format!(
        "{{\"git_rev\":\"{}\",\"rustc\":\"{}\"}}",
        json_escape(&tool_line("git", &["rev-parse", "--short", "HEAD"])),
        json_escape(&tool_line("rustc", &["-V"])),
    )
}

/// Companion profile dump path for a report path: `BENCH_1.json` ->
/// `profile_1.json`; anything else gets a `.profile.json` suffix.
fn profile_path_for(out_path: &str) -> String {
    let file = std::path::Path::new(out_path)
        .file_name()
        .and_then(|f| f.to_str())
        .unwrap_or(out_path);
    if let Some(rest) = file.strip_prefix("BENCH") {
        let prof = format!("profile{rest}");
        match std::path::Path::new(out_path).parent() {
            Some(p) if !p.as_os_str().is_empty() => p.join(prof).to_string_lossy().into_owned(),
            _ => prof,
        }
    } else {
        format!("{out_path}.profile.json")
    }
}

fn main() {
    let (scale, seed) = parse_args();
    let mut out_path = String::from("BENCH_1.json");
    let mut profile = false;
    let mut streams = 4usize;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            if let Some(p) = args.next() {
                out_path = p;
            }
        } else if a == "--profile" {
            profile = true;
        } else if a == "--compare" {
            baseline = Some(args.next().expect("--compare needs a baseline BENCH_<n>.json"));
        } else if a == "--streams" {
            streams = args
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| n >= 1)
                .expect("--streams needs a count >= 1");
        }
    }
    let profiling = if profile {
        cuszi_profile::install();
        cuszi_profile::enable(true);
        true
    } else {
        cuszi_profile::init_from_env()
    };

    let b = Bench::from_env();
    println!(
        "host-perf: scale {scale:?}, seed {seed}, {} samples -> {out_path}{}",
        b.samples,
        if profiling { " (profiling)" } else { "" }
    );

    let mut ds_json = Vec::new();
    for kind in DatasetKind::ALL {
        let ds = generate(kind, scale, seed);
        // One representative field per dataset bounds total runtime.
        let field = &ds.fields[0];
        let nbytes = (field.data.len() * 4) as u64;
        section(&format!("{} / {} ({} MB)", kind.name(), field.name, nbytes / 1_000_000));

        let mut codec_json = Vec::new();
        let mut roster = codec_roster(REL_EB, A100, false);
        // Swap cuSZ-i for its full pipeline (with Bitcomp), the
        // configuration whose host cost we are optimizing.
        // Fusion is archive-neutral (byte-identical output), so the
        // measured end-to-end path runs with it on.
        let ours = cuszi_core::CuszI::new(Config::new(ErrorBound::Rel(REL_EB)).with_fusion());
        roster.last_mut().unwrap().codec = Box::new(ours);
        for entry in &roster {
            let c = b.run(
                &format!("{} compress", entry.label),
                Some(nbytes),
                || entry.codec.compress_bytes(&field.data).unwrap(),
            );
            let (archive, _) = entry.codec.compress_bytes(&field.data).unwrap();
            let d = b.run(
                &format!("{} decompress", entry.label),
                Some(nbytes),
                || entry.codec.decompress_bytes(&archive).unwrap(),
            );
            let stages = if entry.is_ours {
                let ms = cuszi_stages(&b, &field.data);
                // The fused stage replaces predict+histogram; keep the
                // classic roster's shares summing to 100 by leaving it
                // out of the denominator.
                let total_s: f64 =
                    ms.iter().filter(|m| !m.name.starts_with("fused")).map(|m| m.min_s).sum();
                format!(
                    ",\"stages\":[{}],\"fusion\":{}",
                    ms.iter().map(|m| stage_json(m, total_s)).collect::<Vec<_>>().join(","),
                    fusion_dram_json(&field.data)
                )
            } else {
                String::new()
            };
            codec_json.push(format!(
                "{{\"name\":\"{}\",\"compress_mbps\":{:.2},\"decompress_mbps\":{:.2},\
                 \"compress_ms\":{:.4},\"decompress_ms\":{:.4},\
                 \"compress_stddev_ms\":{:.4},\"decompress_stddev_ms\":{:.4},\
                 \"cr\":{:.3}{}}}",
                json_escape(entry.label),
                c.mbps().unwrap_or(0.0),
                d.mbps().unwrap_or(0.0),
                c.min_s * 1e3,
                d.min_s * 1e3,
                c.stddev_s * 1e3,
                d.stddev_s * 1e3,
                nbytes as f64 / archive.len().max(1) as f64,
                stages
            ));
        }
        let overlap = overlap_json(&b, &ds, streams);
        let decomp = decompress_json(&b, &ds, streams);
        ds_json.push(format!(
            "{{\"dataset\":\"{}\",\"field\":\"{}\",\"bytes\":{},\"codecs\":[{}],\
             \"overlap\":{overlap},\"decompress\":{decomp}}}",
            kind.name(),
            json_escape(field.name),
            nbytes,
            codec_json.join(",")
        ));
    }

    let json = format!(
        "{{\"experiment\":\"hostperf\",\"scale\":\"{scale:?}\",\"seed\":{seed},\
         \"samples\":{},\"rel_eb\":{REL_EB},\"streams\":{streams},\"devices\":1,\
         \"provenance\":{},\"datasets\":[{}]}}\n",
        b.samples,
        provenance_json(),
        ds_json.join(",")
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("\nwrote {out_path}");

    if let Some(base_path) = &baseline {
        let base_src = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let old = cuszi_bench::parse_bench(&base_src).expect("parse baseline");
        let new = cuszi_bench::parse_bench(&json).expect("parse fresh report");
        match cuszi_bench::compare(&old, &new) {
            Ok(rep) => {
                let rev = |d: &cuszi_bench::compare::BenchDoc| {
                    d.git_rev.clone().unwrap_or_else(|| "?".into())
                };
                println!(
                    "\n{}",
                    rep.render_markdown(
                        &format!("{base_path} ({})", rev(&old)),
                        &format!("{out_path} ({})", rev(&new)),
                    )
                );
                if rep.has_regression() {
                    eprintln!("bench sentinel: significant regression vs {base_path}");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("bench sentinel: {e}");
                std::process::exit(2);
            }
        }
    }

    if profiling {
        cuszi_profile::enable(false);
        let rep = cuszi_profile::install().report();
        let prof_path = profile_path_for(&out_path);
        std::fs::write(&prof_path, rep.to_json()).expect("write profile");
        println!("{}", rep.kernel_report());
        println!("wrote {prof_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::{profile_path_for, REL_EB};
    use cuszi_core::{Config, CuszI};
    use cuszi_datagen::{generate, DatasetKind, Scale};
    use cuszi_gpu_sim::{TimingModel, A100};
    use cuszi_quant::ErrorBound;
    use cuszi_tensor::{NdArray, Shape};

    #[test]
    fn profile_path_mirrors_bench_numbering() {
        assert_eq!(profile_path_for("BENCH_1.json"), "profile_1.json");
        assert_eq!(profile_path_for("out/BENCH_7.json"), "out/profile_7.json");
        assert_eq!(profile_path_for("report.json"), "report.json.profile.json");
    }

    /// The invariant the report's `modelled` pair exists to watch: the
    /// decode pipeline (bitcomp decode + two-pass gap Huffman decode +
    /// interpolation reconstruct) must not be modelled slower than the
    /// encode pipeline on any dataset analogue.
    #[test]
    fn modelled_decompress_meets_compress_on_all_datasets() {
        let model = TimingModel::new(A100);
        let codec = CuszI::new(Config::new(ErrorBound::Rel(REL_EB)));
        for kind in DatasetKind::ALL {
            let ds = generate(kind, Scale::Small, 42);
            let full = &ds.fields[0].data;
            let d3 = full.shape().dims3();
            let ext = [d3[0].min(32), d3[1].min(32), d3[2].min(32)];
            let field = NdArray::from_fn(Shape::d3(ext[0], ext[1], ext[2]), |z, y, x| {
                full.get3(z, y, x)
            });
            let nbytes = (field.len() * 4) as u64;
            let c = codec.compress(&field).unwrap();
            let d = codec.decompress(&c.bytes).unwrap();
            let cg = model.throughput_gbps(nbytes, &c.kernels);
            let dg = model.throughput_gbps(nbytes, &d.kernels);
            assert!(
                dg >= cg,
                "{}: modelled decompress {dg:.2} GB/s below compress {cg:.2} GB/s",
                kind.name()
            );
        }
    }
}
