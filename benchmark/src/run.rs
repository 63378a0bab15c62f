//! One measurement: set a workload up, run it untraced for the
//! end-to-end metrics or traced for the per-layer ones, verify what it
//! produced, and name every number.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use cuszi_core::{Compressed, Config, CuszI};
use cuszi_gpu_sim::{KernelStats, TimingModel};
use cuszi_quant::ErrorBound;
use cuszi_tensor::stats::ValueRange;
use cuszi_tensor::NdArray;

use crate::host;
use crate::inputs::{Fnv, Inputs, Request, Sizes, Workload};
use crate::layers::{self, EngineRun, LayerCounts};
use crate::loops::{
    self, decompress_reply_body, request_field, warm_batch, warm_fields, BatchRef, Budget, Daemon,
    FieldRef, LoopStats, Reply, Slot, TcpRun,
};
use crate::schema::{END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder, Span};
use crate::stats::{kendall_tau, median, percentile, sorted, tail_at_most};

/// Where a run writes, relative to the working directory.
pub const OUT_DIR: &str = "out/benchmark";

/// What to measure.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes and a single set-up: for tests, not for numbers.
    pub quick: bool,
}

/// What a measurement found.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// What a reader should know besides the numbers; goes to stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = crate::schema::def(name).map_or("", |d| d.unit);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The verified warm-up outputs a workload's loop is checked against.
enum Reference {
    Fields(Vec<FieldRef>),
    Batch(BatchRef),
    Daemon(Daemon),
}

struct Setup {
    inp: Inputs,
    reference: Reference,
    /// Medians over the set-ups of the run.
    setup_s: f64,
    generate_s: f64,
}

/// Generate the inputs and run the warm-up (one pass, or the daemon's
/// bind, connect and warm set) `repeats` times; keep the last.
fn set_up(args: &RunArgs, repeats: usize) -> Result<Setup, String> {
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(Inputs, Reference)> = None;
    for _ in 0..repeats {
        // Let go of the previous set-up first, so that repeating it
        // does not raise the peak memory.
        if let Some((_, Reference::Daemon(d))) = kept.take() {
            d.stop()?;
        }
        let t = Instant::now();
        let inp = Inputs::generate(args.workload, args.seed, sizes);
        generate_s.push(t.elapsed().as_secs_f64());
        let reference = match args.workload {
            Workload::Field1e3 | Workload::Field1e5 => {
                Reference::Fields(warm_fields(&inp, &inp.dataset_fields())?)
            }
            Workload::BatchStreams => Reference::Batch(warm_batch(&inp, host::cores())?),
            Workload::ServeTcp => Reference::Daemon(Daemon::start(&inp)?),
        };
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((inp, reference));
    }
    let (inp, reference) = kept.ok_or("no set-up was run")?;
    Ok(Setup {
        inp,
        reference,
        setup_s: median(&setup_s),
        generate_s: median(&generate_s),
    })
}

/// What verification found, outside any timed region.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    failure: Option<String>,
    /// PSNR of every reconstruction checked.
    psnr: Vec<f64>,
    input_bytes: u64,
    stored_bytes: u64,
    /// Bytes and modelled seconds of the compress / decompress side.
    sim_compress: (u64, f64),
    sim_decompress: (u64, f64),
    verify_s: f64,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failure.is_none() {
                self.failure = Some(what());
            }
        }
    }

    /// `max|x - x^| <= eb` with `eb` taken from the whole field's value
    /// range, whatever range the code path resolved its bound against.
    fn check_bound(
        &mut self,
        name: &str,
        rel: ErrorBound,
        original: &NdArray<f32>,
        recon: &NdArray<f32>,
    ) {
        let range = ValueRange::of(original.as_slice()).map_or(0.0, |r| r.range() as f64);
        let eb = rel.absolute(range);
        match cuszi_metrics::distortion(original.as_slice(), recon.as_slice()) {
            Some(d) if original.shape() == recon.shape() => {
                self.psnr.push(d.psnr);
                self.check(d.max_abs_err <= eb * (1.0 + 1e-6), || {
                    format!("{name}: max error {} exceeds the bound {eb}", d.max_abs_err)
                });
            }
            _ => self.check(false, || {
                format!("{name}: reconstruction has another shape")
            }),
        }
    }

    fn ratio(&self) -> f64 {
        self.input_bytes as f64 / self.stored_bytes as f64
    }

    fn psnr_db(&self) -> f64 {
        self.psnr.iter().sum::<f64>() / self.psnr.len() as f64
    }

    fn gbps((bytes, secs): (u64, f64)) -> f64 {
        bytes as f64 / secs / 1e9
    }
}

fn model(inp: &Inputs) -> TimingModel {
    TimingModel::new(Config::new(inp.eb).device)
}

fn verify_fields(inp: &Inputs, idx: &[usize], refs: &[FieldRef]) -> Verdict {
    let t = Instant::now();
    let model = model(inp);
    let mut v = Verdict::default();
    for (&i, r) in idx.iter().zip(refs) {
        let f = &inp.fields[i];
        v.check_bound(&f.name, inp.eb, &f.data, &r.recon);
        v.input_bytes += f.bytes();
        v.stored_bytes += r.archive.len() as u64;
        v.sim_compress.0 += f.bytes();
        v.sim_compress.1 += model.pipeline_time(&r.compress_kernels);
        v.sim_decompress.0 += f.bytes();
        v.sim_decompress.1 += model.pipeline_time(&r.decompress_kernels);
    }
    v.verify_s = t.elapsed().as_secs_f64();
    v
}

fn verify_batch(inp: &Inputs, reference: &BatchRef, streams: usize) -> Verdict {
    let t = Instant::now();
    let mut v = Verdict::default();
    let order = inp.dataset_fields().into_iter().chain([inp.slab]);
    for (i, recon) in order.zip(&reference.recon) {
        let f = &inp.fields[i];
        v.check_bound(&f.name, inp.eb, &f.data, recon);
        v.input_bytes += f.bytes();
    }
    v.stored_bytes = reference.containers.iter().map(|c| c.len() as u64).sum();
    let sim_s = |reports: &[cuszi_core::ScheduleReport]| {
        reports.iter().map(|r| r.sim_elapsed_ns()).sum::<u64>() as f64 / 1e9
    };
    v.sim_compress = (v.input_bytes, sim_s(&reference.compress_reports));
    v.sim_decompress = (v.input_bytes, sim_s(&reference.decompress_reports));
    // The containers must not depend on the stream count.
    match warm_batch(inp, 1) {
        Ok(one) => {
            for (a, b) in one.containers.iter().zip(&reference.containers) {
                v.check(a == b, || {
                    format!("container differs between 1 and {streams} streams")
                });
            }
        }
        Err(e) => v.check(false, || e),
    }
    v.verify_s = t.elapsed().as_secs_f64();
    v
}

/// Every reply must equal, byte for byte, what `CuszI` gives in process
/// for the same input. Ratio, PSNR and modelled time are taken over the
/// whole request list, not over the requests the run got through, so
/// that they depend on the seed alone.
fn verify_tcp(inp: &Inputs, run: &TcpRun) -> Verdict {
    struct Expected {
        compressed: Compressed,
        /// Fingerprint of the decompress reply and its kernels, once a
        /// decompress request asked for it.
        reply: Option<(u64, Vec<KernelStats>)>,
    }
    let t = Instant::now();
    let codec = CuszI::new(Config::new(inp.eb));
    let model = model(inp);
    let mut v = Verdict::default();
    let mut expected: HashMap<usize, Option<Expected>> = HashMap::new();
    for (list, done) in inp.requests.iter().zip(&run.callers) {
        for (i, request) in list.iter().enumerate() {
            let reply = done.get(i).map(|x| &x.reply);
            let field = request_field(list, i);
            let f = &inp.fields[field];
            let entry = expected.entry(field).or_insert_with(|| {
                codec.compress(&f.data).ok().map(|compressed| Expected {
                    compressed,
                    reply: None,
                })
            });
            let Some(e) = entry else {
                v.check(false, || format!("{}: in-process compress failed", f.name));
                continue;
            };
            match *request {
                Request::Compress { .. } => {
                    if let Some(reply) = reply {
                        let same = matches!(reply, Reply::Archive(a) if *a == e.compressed.bytes);
                        v.check(same, || {
                            format!("compress reply for {}: {}", f.name, describe(reply))
                        });
                    }
                    v.input_bytes += f.bytes();
                    v.stored_bytes += e.compressed.bytes.len() as u64;
                    v.sim_compress.0 += f.bytes();
                    v.sim_compress.1 += model.pipeline_time(&e.compressed.kernels);
                }
                Request::Decompress { .. } => {
                    if e.reply.is_none() {
                        match codec.decompress(&e.compressed.bytes) {
                            Ok(d) => {
                                v.check_bound(&f.name, inp.eb, &f.data, &d.data);
                                e.reply =
                                    Some((Fnv::of(&decompress_reply_body(&d.data)), d.kernels));
                            }
                            Err(err) => v.check(false, || {
                                format!("{}: in-process decompress: {err}", f.name)
                            }),
                        }
                    }
                    let Some((print, kernels)) = &e.reply else {
                        continue;
                    };
                    if let Some(reply) = reply {
                        v.check(*reply == Reply::Field(*print), || {
                            format!("decompress reply for {}: {}", f.name, describe(reply))
                        });
                    }
                    v.sim_decompress.0 += f.bytes();
                    v.sim_decompress.1 += model.pipeline_time(kernels);
                }
            }
        }
    }
    v.verify_s = t.elapsed().as_secs_f64();
    v
}

fn describe(reply: &Reply) -> String {
    match reply {
        Reply::Refused(why) => format!("refused ({why})"),
        _ => "differs from the in-process result".to_string(),
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Requests a TCP phase completes at least: in process, two passes over
/// the fields (so that the daemon's cache is seen cold and warm).
fn min_requests(inp: &Inputs) -> usize {
    match inp.workload {
        Workload::ServeTcp => 16,
        _ => 4 * inp.dataset_fields().len(),
    }
}

/// Run one measurement.
pub fn measure(args: &RunArgs) -> Result<Outcome, String> {
    host::refuse_cuszi_env()?;
    // Everything this run writes stays under `out/benchmark`, the
    // crates' flight dumps of failed jobs included (the one variable
    // this program sets itself; it changes no measured path).
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    std::env::set_var("CUSZI_FLIGHT_DIR", OUT_DIR);
    let calib_before = host::calib_ms();
    let repeats = if args.trace || args.quick { 1 } else { 3 };
    let setup = set_up(args, repeats)?;
    let mut outcome = if args.trace {
        traced(args, setup)?
    } else {
        untraced(args, setup)?
    };
    let calib_after = host::calib_ms();
    if host::calib_suspect(calib_before, calib_after) {
        outcome.notes.push(format!(
            "SUSPECT: the calibration loop took {calib_before:.2} ms before and {calib_after:.2} ms after \
             the workload; the machine changed speed under the run"
        ));
    }
    for (name, value) in &mut outcome.metrics {
        if *name == "host.calib_ms" {
            *value = (calib_before + calib_after) / 2.0;
        }
    }
    for (name, value) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
    }
    Ok(outcome)
}

fn finish(
    loop_stats: &LoopStats,
    verdict: &Verdict,
    metrics: Vec<(&'static str, f64)>,
    mut notes: Vec<String>,
) -> Outcome {
    let failed = loop_stats.failed + verdict.failed;
    notes.extend(
        loop_stats
            .first_failure
            .iter()
            .chain(&verdict.failure)
            .map(|f| format!("FAILED: {f}")),
    );
    Outcome {
        correct: failed == 0,
        attempted: loop_stats.attempted + verdict.attempted,
        failed,
        metrics,
        notes,
    }
}

/// Percentile of a latency sample for a declared `pNN` metric, with a
/// note when the sample is too small to carry it.
fn declared_tail(name: &str, samples: &[f64], want: f64, notes: &mut Vec<String>) -> f64 {
    let tail = tail_at_most(samples, want);
    if tail.pct < want || !tail.supported {
        notes.push(format!(
            "{name}: fewer than ten samples beyond p{want}; the sample supports {tail}"
        ));
    }
    percentile(&sorted(samples), want)
}

fn untraced(args: &RunArgs, setup: Setup) -> Result<Outcome, String> {
    let Setup {
        inp,
        reference,
        setup_s,
        ..
    } = setup;
    let cores = host::cores();
    let budget = Budget {
        dur: secs(args.seconds),
        min_passes: 2,
    };
    let (st, peak_rss_mb, verdict, requests_per_s) = match reference {
        Reference::Fields(refs) => {
            let idx = inp.dataset_fields();
            let st = loops::loop_fields(&inp, &idx, &refs, budget, None);
            let rss = host::peak_rss_mb()?;
            let rate = st.requests_per_busy_s();
            (st, rss, verify_fields(&inp, &idx, &refs), rate)
        }
        Reference::Batch(reference) => {
            let st = loops::loop_batch(&inp, cores, &reference, budget, None, &loops::BATCH_NAMES);
            let rss = host::peak_rss_mb()?;
            let rate = st.requests_per_busy_s();
            (st, rss, verify_batch(&inp, &reference, cores), rate)
        }
        Reference::Daemon(mut daemon) => {
            daemon.request_phase(
                &inp,
                Budget {
                    min_passes: min_requests(&inp),
                    ..budget
                },
                None,
            );
            let rss = host::peak_rss_mb()?;
            let run = daemon.stop()?;
            let verdict = verify_tcp(&inp, &run);
            let st = run.stats(&inp);
            // Every exchange is one attempted operation of the verdict.
            let verified =
                st.latency_ms.len() as u64 - verdict.failed.min(st.latency_ms.len() as u64);
            (st, rss, verdict, verified as f64 / run.wall_s)
        }
    };
    let calls = |slots: &[Slot]| slots.iter().map(|s| s.ms.len()).sum::<usize>();
    let mut notes = vec![format!(
        "{}: {} requests in {:.2} s on {cores} cores; {} compress and {} decompress calls timed",
        inp.workload.name(),
        st.latency_ms.len(),
        st.wall_s,
        calls(&st.compress),
        calls(&st.decompress),
    )];
    let p90 = declared_tail("latency_p90_ms", &st.latency_ms, 90.0, &mut notes);
    let values = [
        setup_s,
        LoopStats::mbps(&st.compress),
        LoopStats::mbps(&st.decompress),
        verdict.ratio(),
        verdict.psnr_db(),
        Verdict::gbps(verdict.sim_compress),
        Verdict::gbps(verdict.sim_decompress),
        peak_rss_mb,
        requests_per_s,
        median(&st.latency_ms),
        p90,
    ];
    let metrics = END_TO_END.iter().map(|d| d.name).zip(values).collect();
    Ok(finish(&st, &verdict, metrics, notes))
}

/// Self times of the recorded spans, by span name and item.
struct Ledger {
    by_name: BTreeMap<&'static str, BTreeMap<u32, Vec<f64>>>,
}

impl Ledger {
    fn new(spans: &[Span]) -> Ledger {
        let mut by_name: BTreeMap<&'static str, BTreeMap<u32, Vec<f64>>> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(spans::self_times_ns(spans)) {
            by_name
                .entry(s.name)
                .or_default()
                .entry(s.item)
                .or_default()
                .push(self_ns as f64 / 1e6);
        }
        Ledger { by_name }
    }

    /// Self time of one pass, ms: the median per item, summed over the
    /// items.
    fn ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |items| items.values().map(|v| median(v)).sum())
    }

    /// Median self time of all calls of the name, ms.
    fn median_ms(&self, name: &str) -> f64 {
        let all: Vec<f64> = self
            .by_name
            .get(name)
            .into_iter()
            .flat_map(|i| i.values().flatten().copied())
            .collect();
        median(&all)
    }
}

/// Sum over the slots of one call's median time: what one pass costs.
fn pass_ms(st: &LoopStats) -> f64 {
    st.compress
        .iter()
        .chain(&st.decompress)
        .filter(|s| !s.ms.is_empty())
        .map(|s: &Slot| median(&s.ms))
        .sum()
}

fn traced(args: &RunArgs, setup: Setup) -> Result<Outcome, String> {
    let Setup {
        inp,
        reference,
        generate_s,
        ..
    } = setup;
    let cores = host::cores();
    let share = |f: f64| Budget {
        dur: secs(args.seconds * f),
        min_passes: 2,
    };
    let tcp_share = |f: f64| Budget {
        min_passes: min_requests(&inp),
        ..share(f)
    };
    let idx = inp.dataset_fields();
    let rec = Recorder::default();
    let mut notes = Vec::new();

    // The workload's own loop first, untraced: what the traced loop is
    // compared with for the tracing overhead. Then every entry loop,
    // traced, on this workload's inputs.
    let mut checked: Vec<LoopStats> = Vec::new();
    let (overhead, verdict, field_refs, batch_ref, tcp) = match reference {
        Reference::Fields(refs) => {
            let base = loops::loop_fields(&inp, &idx, &refs, share(0.20), None);
            let own = loops::loop_fields(&inp, &idx, &refs, share(0.20), Some(&rec));
            let overhead = pass_ms(&own) / pass_ms(&base);
            checked.extend([base, own]);
            (
                overhead,
                verify_fields(&inp, &idx, &refs),
                refs,
                warm_batch(&inp, cores)?,
                None,
            )
        }
        Reference::Batch(reference) => {
            let base = loops::loop_batch(
                &inp,
                cores,
                &reference,
                share(0.20),
                None,
                &loops::BATCH_NAMES,
            );
            let own = loops::loop_batch(
                &inp,
                cores,
                &reference,
                share(0.20),
                Some(&rec),
                &loops::BATCH_NAMES,
            );
            let overhead = pass_ms(&own) / pass_ms(&base);
            checked.extend([base, own]);
            (
                overhead,
                verify_batch(&inp, &reference, cores),
                warm_fields(&inp, &idx)?,
                reference,
                None,
            )
        }
        Reference::Daemon(mut daemon) => {
            daemon.request_phase(&inp, tcp_share(0.20), None);
            let before = daemon.completed();
            daemon.request_phase(&inp, tcp_share(0.20), Some(&rec));
            let run = daemon.stop()?;
            let latency = |traced: bool| -> f64 {
                let of_phase = run.callers.iter().zip(&before).flat_map(|(done, &n)| {
                    if traced { &done[n..] } else { &done[..n] }
                        .iter()
                        .map(|x| x.latency_ms)
                });
                median(&of_phase.collect::<Vec<_>>())
            };
            let overhead = latency(true) / latency(false);
            (
                overhead,
                verify_tcp(&inp, &run),
                warm_fields(&inp, &idx)?,
                warm_batch(&inp, cores)?,
                Some(run),
            )
        }
    };
    let is = |w: Workload| inp.workload == w;
    if !(is(Workload::Field1e3) || is(Workload::Field1e5)) {
        checked.push(loops::loop_fields(
            &inp,
            &idx,
            &field_refs,
            share(0.08),
            Some(&rec),
        ));
    }
    let counts = layers::replay_layers(&inp, &idx, &field_refs, share(0.20), &rec)?;
    if !is(Workload::BatchStreams) {
        checked.push(loops::loop_batch(
            &inp,
            cores,
            &batch_ref,
            share(0.08),
            Some(&rec),
            &loops::BATCH_NAMES,
        ));
    }
    checked.push(loops::loop_batch(
        &inp,
        1,
        &batch_ref,
        share(0.08),
        Some(&rec),
        &loops::BATCH_NAMES_1,
    ));
    let (tcp, mut verdict) = match tcp {
        Some(run) => (run, verdict),
        None => {
            let mut daemon = Daemon::start(&inp)?;
            daemon.request_phase(&inp, tcp_share(0.08), Some(&rec));
            let run = daemon.stop()?;
            // The daemon's replies are verified here too; only the
            // workload's own verdict feeds its reported numbers.
            let replies = verify_tcp(&inp, &run);
            let mut verdict = verdict;
            verdict.attempted += replies.attempted;
            verdict.failed += replies.failed;
            verdict.failure = verdict.failure.or(replies.failure);
            (run, verdict)
        }
    };
    let completed: Vec<usize> = tcp.callers.iter().map(Vec::len).collect();
    let engine = layers::engine_replay(&inp, &completed);
    let (shard_speedup, gather_us) = layers::shard_two_devices(&inp)?;

    let spans = rec.spans();
    write_trace(args, &spans, &mut notes)?;
    let ledger = Ledger::new(&spans);
    let values = layer_values(LayerInputs {
        inp: &inp,
        ledger: &ledger,
        counts: &counts,
        field_refs: &field_refs,
        batch_ref: &batch_ref,
        tcp: &tcp,
        engine: &engine,
        shard: (shard_speedup, gather_us),
        generate_s,
        verify_s: verdict.verify_s,
        overhead_pct: (overhead - 1.0) * 100.0,
        notes: &mut notes,
    });
    let mut loops_total = LoopStats::default();
    for st in &checked {
        loops_total.attempted += st.attempted;
        loops_total.failed += st.failed;
        if loops_total.first_failure.is_none() {
            loops_total.first_failure.clone_from(&st.first_failure);
        }
    }
    verdict.attempted += engine.jobs.len() as u64 + engine.failed;
    verdict.failed += engine.failed;
    if engine.failed > 0 && verdict.failure.is_none() {
        verdict.failure = Some(format!("{} engine jobs failed", engine.failed));
    }
    let metrics = PER_LAYER.iter().map(|d| d.name).zip(values).collect();
    Ok(finish(&loops_total, &verdict, metrics, notes))
}

fn write_trace(args: &RunArgs, spans: &[Span], notes: &mut Vec<String>) -> Result<(), String> {
    let path = format!(
        "{OUT_DIR}/trace_{}_seed{}.json",
        args.workload.name(),
        args.seed
    );
    std::fs::write(&path, spans::chrome_trace(spans))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    notes.push(format!("{} spans written to {path}", spans.len()));
    Ok(())
}

struct LayerInputs<'a> {
    inp: &'a Inputs,
    ledger: &'a Ledger,
    counts: &'a LayerCounts,
    field_refs: &'a [FieldRef],
    batch_ref: &'a BatchRef,
    tcp: &'a TcpRun,
    engine: &'a EngineRun,
    shard: (f64, f64),
    generate_s: f64,
    verify_s: f64,
    overhead_pct: f64,
    notes: &'a mut Vec<String>,
}

/// Every per-layer metric, in [`PER_LAYER`] order.
fn layer_values(x: LayerInputs<'_>) -> [f64; 60] {
    let l = x.ledger;
    let model = model(x.inp);
    let sim_us = |k: &[KernelStats]| model.pipeline_time(k) * 1e6;
    let dram = |k: &[KernelStats]| k.iter().map(KernelStats::dram_bytes).sum::<u64>() as f64;
    let c = x.counts;
    let stage = |i: usize| c.stage_kernels[i].as_slice();

    let compress_ms = l.ms(loops::PIPELINE_COMPRESS);
    let decompress_ms = l.ms(loops::PIPELINE_DECOMPRESS);
    // The kernel stages on both clocks: does the model rank them the
    // way the host does?
    let stage_ms = layers::STAGES.map(|s| l.ms(s));
    let stage_us: Vec<f64> = (0..layers::STAGES.len())
        .map(|i| sim_us(stage(i)))
        .collect();
    let [predict_c, histogram, encode, pack, unpack, decode, reconstruct] = stage_ms;
    let (tune, codebook) = (l.ms(layers::TUNE), l.ms(layers::CODEBOOK));
    let compress_layers = tune + predict_c + histogram + codebook + encode + pack;
    let decompress_layers = unpack + decode + reconstruct;

    let all_compress: Vec<KernelStats> = x
        .field_refs
        .iter()
        .flat_map(|r| r.compress_kernels.clone())
        .collect();
    let all_decompress: Vec<KernelStats> = x
        .field_refs
        .iter()
        .flat_map(|r| r.decompress_kernels.clone())
        .collect();

    let b = &loops::BATCH_NAMES;
    let b1 = &loops::BATCH_NAMES_1;
    let datasets = x.inp.datasets.len();
    let container_bytes: u64 = x.batch_ref.containers[..datasets]
        .iter()
        .map(|c| c.len() as u64)
        .sum();
    let (serial, elapsed) = x
        .batch_ref
        .compress_reports
        .iter()
        .fold((0u64, 0u64), |(s, e), r| {
            (s + r.sim_serial_ns(), e + r.sim_elapsed_ns())
        });

    let jobs = &x.engine.jobs;
    let sample = |keep: fn(&layers::Job) -> bool, of: fn(&layers::Job) -> f64| -> Vec<f64> {
        jobs.iter().filter(|j| keep(j)).map(of).collect()
    };
    let service = sample(|_| true, |j| j.service_ms);
    let in_engine = sample(|_| true, |j| j.queue_ms + j.service_ms);
    let compress_jobs = jobs.iter().filter(|j| j.compress).count();
    let hits = jobs.iter().filter(|j| j.compress && j.cache_hit).count();

    let mut latency = Vec::new();
    let (mut compress_lat, mut decompress_lat) = (Vec::new(), Vec::new());
    let (mut bytes_in, mut bytes_out) = (0u64, 0u64);
    for (list, done) in x.inp.requests.iter().zip(&x.tcp.callers) {
        for (request, e) in list.iter().zip(done) {
            latency.push(e.latency_ms);
            match request {
                Request::Compress { .. } => compress_lat.push(e.latency_ms),
                Request::Decompress { .. } => decompress_lat.push(e.latency_ms),
            }
            bytes_in += e.bytes_in;
            bytes_out += e.bytes_out;
        }
    }
    let requests = latency.len().max(1) as f64;
    let p99 = tail_at_most(&latency, 99.0);
    if p99.pct < 99.0 || !p99.supported {
        x.notes.push(format!(
            "cli.serve.latency_p99_ms: too few requests for p99; it reads {p99}"
        ));
    }

    [
        predict_c,
        predict_c / compress_ms,
        tune,
        reconstruct,
        reconstruct / decompress_ms,
        c.outliers as f64 / c.elements as f64,
        c.huffman_bits as f64 / c.elements as f64,
        c.payload_bytes as f64 / c.packed_bytes as f64,
        (container_bytes - x.batch_ref.archive_bytes) as f64,
        histogram,
        codebook,
        encode,
        pack,
        decode,
        decode / decompress_ms,
        c.redecoded as f64 / c.sectors as f64,
        c.fallback_chunks as f64,
        unpack,
        sim_us(stage(0)) + sim_us(stage(6)),
        dram(stage(0)) + dram(stage(6)),
        sim_us(stage(1)) + sim_us(stage(2)),
        sim_us(stage(5)),
        sim_us(&all_compress) + sim_us(&all_decompress),
        dram(&all_compress) + dram(&all_decompress),
        all_compress.len() as f64,
        all_decompress.len() as f64,
        kendall_tau(&stage_ms, &stage_us),
        compress_ms,
        decompress_ms,
        1.0 - compress_layers / compress_ms,
        1.0 - decompress_layers / decompress_ms,
        l.ms(b.batch_compress),
        l.ms(b.batch_decompress),
        l.ms(b.stream_compress),
        l.ms(b.stream_decompress),
        l.ms(b.batch_compress) - compress_ms,
        (l.ms(b1.batch_compress) + l.ms(b1.stream_compress))
            / (l.ms(b.batch_compress) + l.ms(b.stream_compress)),
        (l.ms(b1.batch_decompress) + l.ms(b1.stream_decompress))
            / (l.ms(b.batch_decompress) + l.ms(b.stream_decompress)),
        serial as f64 / elapsed as f64,
        x.shard.0,
        x.shard.1,
        median(&sample(|_| true, |j| j.queue_ms)),
        median(&service),
        percentile(&sorted(&service), 90.0),
        median(&sample(|j| j.compress && j.cache_hit, |j| j.service_ms)),
        median(&sample(|j| j.compress && !j.cache_hit, |j| j.service_ms)),
        hits as f64 / compress_jobs.max(1) as f64,
        x.engine.rejected as f64,
        median(&latency) - median(&in_engine),
        median(&compress_lat),
        median(&decompress_lat),
        p99.value,
        l.median_ms(loops::SERVE_ENCODE),
        bytes_in as f64 / requests,
        bytes_out as f64 / requests,
        x.generate_s,
        x.verify_s,
        0.0, // host.calib_ms: filled in by `measure`, which takes both readings
        host::cores() as f64,
        x.overhead_pct,
    ]
}
