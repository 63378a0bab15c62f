//! The layer harnesses of the traced run: each input goes through the
//! layers' public functions in pipeline order with a span around every
//! call, the same request list goes straight into an `Engine`, and the
//! datasets go through the sharded entry point once. All of it happens
//! from outside the crates; spans inside them are a later change.

use std::time::Instant;

use cuszi_core::archive::{f32_section, split_sections, u64_section, Header, HEADER_LEN};
use cuszi_core::{Config, Engine, EngineConfig, NamedField, ShardPlan};
use cuszi_gpu_sim::KernelStats;
use cuszi_huffman::{decode_gpu, encode_gpu, histogram_gpu, Codebook, EncodedStream};
use cuszi_predict::ginterp;
use cuszi_predict::tuning::profile_and_tune;
use cuszi_quant::{ErrorBound, Outliers};
use cuszi_tensor::stats::ValueRange;
use cuszi_transfer::LinkClass;

use crate::inputs::{Inputs, Request};
use crate::loops::{warm_set, Budget, FieldRef};
use crate::spans::{next_op, Recorder};

/// The kernel-bearing stages, in pipeline order: span name of each.
pub const STAGES: [&str; 7] = [
    "predict.compress",
    "huffman.histogram",
    "huffman.encode",
    "bitcomp.compress",
    "bitcomp.decompress",
    "huffman.decode",
    "predict.reconstruct",
];
/// Host-only stages.
pub const TUNE: &str = "predict.tune";
pub const CODEBOOK: &str = "huffman.codebook";
/// Parents of one replayed compress / decompress; their self time is
/// this file's own glue (section assembly and parsing).
pub const REPLAY_COMPRESS: &str = "replay.compress";
pub const REPLAY_DECOMPRESS: &str = "replay.decompress";

/// Counts of one replay pass over the fields. They repeat exactly.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub elements: u64,
    pub outliers: u64,
    /// Bits of Huffman payload.
    pub huffman_bits: u64,
    /// Bytes into and out of the Bitcomp pass.
    pub payload_bytes: u64,
    pub packed_bytes: u64,
    /// Gap-array decode: sectors, sectors decoded a second time, chunks
    /// that fell back to the host.
    pub sectors: u64,
    pub redecoded: u64,
    pub fallback_chunks: u64,
    /// Kernels of each of [`STAGES`].
    pub stage_kernels: [Vec<KernelStats>; 7],
}

/// Replay every field through the layers, pass after pass. Each replay
/// must reproduce the reference archive and reconstruction, or the
/// ledger would describe other work than the pipeline's.
pub fn replay_layers(
    inp: &Inputs,
    idx: &[usize],
    refs: &[FieldRef],
    budget: Budget,
    rec: &Recorder,
) -> Result<LayerCounts, String> {
    let cfg = Config::new(inp.eb);
    let dev = &cfg.device;
    let mut counts = LayerCounts::default();
    let started = Instant::now();
    let mut passes = 0;
    while budget.more(started, passes) {
        for (item, (&i, reference)) in idx.iter().zip(refs).enumerate() {
            let f = &inp.fields[i];
            let fail = |what: &str| format!("replay of {}: {what}", f.name);
            let op = next_op();
            let first = passes == 0;

            let replay = rec.span(REPLAY_COMPRESS, item, op);
            let range = ValueRange::of(f.data.as_slice())
                .ok_or_else(|| fail("non-finite field"))?
                .range() as f64;
            let (eb_abs, rel_eb) = (inp.eb.absolute(range), inp.eb.relative(range));
            let interp = {
                let _g = rec.span(TUNE, item, op);
                profile_and_tune(&f.data, rel_eb).0
            };
            let pred = {
                let _g = rec.span(STAGES[0], item, op);
                ginterp::compress(&f.data, eb_abs, cfg.radius, &interp, dev)
            };
            let (hist, hist_kernel) = {
                let _g = rec.span(STAGES[1], item, op);
                histogram_gpu(
                    &pred.codes,
                    2 * cfg.radius as usize,
                    cfg.radius,
                    cfg.histogram_topk,
                    dev,
                )
            };
            let book = {
                let _g = rec.span(CODEBOOK, item, op);
                Codebook::from_histogram(&hist).map_err(|_| fail("codebook construction"))?
            };
            let (stream, encode_kernels) = {
                let _g = rec.span(STAGES[2], item, op);
                encode_gpu(&pred.codes, &book, dev)
            };
            let sections: [Vec<u8>; 5] = [
                pred.anchors.iter().flat_map(|v| v.to_le_bytes()).collect(),
                book.to_bytes(),
                stream.to_bytes(),
                pred.outliers
                    .indices()
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect(),
                pred.outliers
                    .values()
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect(),
            ];
            let payload = sections.concat();
            let (packed, pack_kernels) = {
                let _g = rec.span(STAGES[3], item, op);
                cuszi_bitcomp::compress(&payload, dev)
            };
            drop(replay);
            if reference.archive.get(HEADER_LEN..) != Some(&packed[..]) {
                return Err(fail(
                    "the layers' output differs from the pipeline's archive",
                ));
            }

            let replay = rec.span(REPLAY_DECOMPRESS, item, op);
            let header =
                Header::from_bytes(&reference.archive).map_err(|e| fail(&e.to_string()))?;
            let (unpacked, unpack_kernel) = {
                let _g = rec.span(STAGES[4], item, op);
                cuszi_bitcomp::decompress(&reference.archive[HEADER_LEN..], dev)
                    .map_err(|e| fail(e.0))?
            };
            let [anchors_b, book_b, stream_b, oidx_b, oval_b] =
                split_sections(&unpacked, &header.sections).map_err(|e| fail(&e.to_string()))?;
            let parsed = (|| {
                Some((
                    f32_section(anchors_b).ok()?,
                    Codebook::from_bytes(book_b).ok()?,
                    EncodedStream::from_bytes(stream_b)?,
                    Outliers::from_parts(u64_section(oidx_b).ok()?, f32_section(oval_b).ok()?)?,
                ))
            })();
            let (anchors, book2, stream2, outliers) =
                parsed.ok_or_else(|| fail("sections do not parse"))?;
            let decoded = {
                let _g = rec.span(STAGES[5], item, op);
                decode_gpu(&stream2, &book2, dev).map_err(|e| fail(e.msg))?
            };
            let (recon, recon_kernels) = {
                let _g = rec.span(STAGES[6], item, op);
                ginterp::decompress(
                    &decoded.syms,
                    &anchors,
                    &outliers,
                    header.shape,
                    header.eb_abs,
                    header.radius,
                    &header.interp_config(),
                    dev,
                )
            };
            drop(replay);
            if recon.as_slice() != reference.recon.as_slice() {
                return Err(fail(
                    "the layers' reconstruction differs from the pipeline's",
                ));
            }

            if first {
                counts.elements += f.data.len() as u64;
                counts.outliers += pred.outliers.len() as u64;
                counts.huffman_bits += stream.payload_bytes() as u64 * 8;
                counts.payload_bytes += payload.len() as u64;
                counts.packed_bytes += packed.len() as u64;
                counts.sectors += decoded.report.sectors;
                counts.redecoded += decoded.report.redecoded;
                counts.fallback_chunks += decoded.report.fallback_chunks;
                let k = &mut counts.stage_kernels;
                k[0].extend(&pred.kernels);
                k[1].push(hist_kernel);
                k[2].extend(&encode_kernels);
                k[3].extend(&pack_kernels);
                k[4].push(unpack_kernel);
                k[5].extend(&decoded.kernels);
                k[6].extend(&recon_kernels);
            }
        }
        passes += 1;
    }
    Ok(counts)
}

/// One job of the engine replay, from its `JobResult` timestamps.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub compress: bool,
    pub cache_hit: bool,
    pub queue_ms: f64,
    pub service_ms: f64,
}

/// What the engine replay saw.
#[derive(Clone, Debug, Default)]
pub struct EngineRun {
    pub jobs: Vec<Job>,
    pub rejected: u64,
    pub failed: u64,
}

/// Replay the first `counts[c]` requests of every caller `c` straight
/// into an `Engine` sized like the daemon's, a closed loop per caller:
/// the request phase without frames, sockets and connection threads.
pub fn engine_replay(inp: &Inputs, counts: &[usize]) -> EngineRun {
    // What `Server::bind` builds from `ServeConfig::default()`.
    let engine = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_max_inflight(2)
            .with_devices(1),
    );
    let cfg = Config::new(inp.eb);
    let per_caller: Vec<(Vec<Job>, u64)> = std::thread::scope(|s| {
        let engine = &engine;
        let handles: Vec<_> = inp
            .requests
            .iter()
            .zip(counts)
            .enumerate()
            .map(|(caller, (list, &count))| {
                s.spawn(move || {
                    let tenant = format!("caller-{caller}");
                    for field in warm_set(list) {
                        let _ = engine.compress(&tenant, inp.fields[field].data.clone(), cfg);
                    }
                    let mut archives: Vec<Option<Vec<u8>>> = Vec::with_capacity(count);
                    let mut jobs = Vec::with_capacity(count);
                    let mut failed = 0;
                    for request in &list[..count.min(list.len())] {
                        let result = match *request {
                            Request::Compress { field, .. } => {
                                engine.compress(&tenant, inp.fields[field].data.clone(), cfg)
                            }
                            // The daemon decompresses under this fixed
                            // configuration; the archive carries its own.
                            Request::Decompress { of } => engine.decompress(
                                &tenant,
                                archives[of].clone().unwrap_or_default(),
                                Config::new(ErrorBound::Rel(1e-3)),
                            ),
                        };
                        let Ok(r) = result else {
                            failed += 1;
                            archives.push(None);
                            continue;
                        };
                        jobs.push(Job {
                            compress: matches!(request, Request::Compress { .. }),
                            cache_hit: r.cache_hit,
                            queue_ms: (r.started_ns - r.submitted_ns) as f64 / 1e6,
                            service_ms: (r.done_ns - r.started_ns) as f64 / 1e6,
                        });
                        archives.push(r.output.into_compressed().map(|c| c.bytes));
                    }
                    (jobs, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine caller panicked"))
            .collect()
    });
    let mut run = EngineRun {
        rejected: engine.stats().rejected,
        ..Default::default()
    };
    for (jobs, failed) in per_caller {
        run.jobs.extend(jobs);
        run.failed += failed;
    }
    run
}

/// Modelled two-device sharding of the datasets' fields over PCIe:
/// `(sim speed-up over one device, gather time in us)`. Exact.
pub fn shard_two_devices(inp: &Inputs) -> Result<(f64, f64), String> {
    let fields: Vec<NamedField<'_>> = inp
        .dataset_fields()
        .into_iter()
        .map(|i| NamedField {
            name: &inp.fields[i].name,
            data: &inp.fields[i].data,
        })
        .collect();
    let plan = ShardPlan::new(2).link(LinkClass::Pcie);
    let (_, report) = cuszi_core::compress_fields_sharded(&fields, Config::new(inp.eb), plan)
        .map_err(|e| format!("compress_fields_sharded: {e}"))?;
    Ok((report.sim_speedup(), report.transfer_ns() as f64 / 1e3))
}
