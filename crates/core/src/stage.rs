//! The compression pipeline as an explicit stage graph.
//!
//! [`crate::CuszI::compress`]/[`decompress`] used to be one monolithic
//! function each. This module decomposes them into [`StageKind`] nodes
//! with *declared* buffer inputs and outputs ([`Buf`]), connected in a
//! small DAG ([`StageGraph`]) that is validated (every input produced
//! by an earlier stage, every output produced once) and then executed
//! in topological order over a per-field job state
//! ([`CompressJob`]/[`DecompressJob`]). The monolith entry points are
//! now thin wrappers over these graphs — **byte-identical archives are
//! the refactor invariant**, enforced by the scheduler-determinism
//! tests.
//!
//! Why bother for a linear-looking pipeline: the graph gives the
//! multi-stream scheduler ([`crate::sched`]) real units to pipeline
//! across fields/slabs (field B can predict while field A
//! huffman-encodes — they run on different gpu-sim streams), gives the
//! profiler a span per stage, and gives later service/sharding work
//! (ROADMAP) an execution graph to attach placement and batching
//! policy to.
//!
//! Stage roster (compress): `tune → predict-quant → histogram →
//! codebook → huffman-encode → assemble → [bitcomp] → finalize`.
//! `assemble` gathers the five payload sections from arena-backed
//! buffers; `bitcomp` (present iff [`Config::bitcomp`]) packs the
//! payload; `finalize` prepends the header. Decompress mirrors it:
//! `[bitcomp-decode] → split-sections → huffman-decode →
//! g-interp-reconstruct`.
//!
//! [`decompress`]: crate::CuszI::decompress
//! [`Config::bitcomp`]: crate::Config

use cuszi_gpu_sim::KernelStats;
use cuszi_huffman::{decode_gpu, encode_gpu, histogram_gpu, Codebook, EncodedStream};
use cuszi_predict::ginterp;
use cuszi_predict::tuning::{alpha_from_rel_eb, profile_and_tune, InterpConfig};
use cuszi_predict::PredictOutput;
use cuszi_profile::Category;
use cuszi_quant::Outliers;
use cuszi_tensor::NdArray;

use crate::archive::{
    f32_section, split_sections, u64_section, Header, FLAG_BITCOMP, HEADER_LEN, VERSION,
};
use crate::config::Config;
use crate::error::CuszError;
use crate::pipeline::SectionSizes;

/// A logical buffer flowing between stages. Declared (not inferred)
/// per stage, so the graph can be validated before running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Buf {
    /// The input field (borrowed; lives in the job for the whole run).
    Field,
    /// Tuned interpolation configuration.
    Interp,
    /// Predictor output: quant codes + anchors + outliers.
    Prediction,
    /// Quant-code histogram.
    Hist,
    /// Huffman codebook.
    Book,
    /// Coarse-grained Huffman bitstream.
    HuffStream,
    /// Concatenated payload sections (pre-Bitcomp), arena-backed.
    Payload,
    /// Bitcomp-packed payload.
    Packed,
    /// The finished archive.
    Archive,
    /// Decompress side: quant codes recovered from the bitstream.
    Codes,
    /// Decompress side: the reconstructed field.
    Output,
}

/// One pipeline stage. The `label` doubles as the profile span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageKind {
    // Compress side.
    Tune,
    PredictQuant,
    Histogram,
    CodebookBuild,
    HuffmanEncode,
    Assemble,
    Bitcomp,
    Finalize,
    // Decompress side.
    BitcompDecode,
    SplitSections,
    HuffmanDecode,
    Reconstruct,
}

impl StageKind {
    /// Profile span / display name.
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::Tune => "tune",
            StageKind::PredictQuant => "predict-quant",
            StageKind::Histogram => "histogram",
            StageKind::CodebookBuild => "codebook",
            StageKind::HuffmanEncode => "huffman-encode",
            StageKind::Assemble => "assemble",
            StageKind::Bitcomp => "bitcomp",
            StageKind::Finalize => "finalize",
            StageKind::BitcompDecode => "bitcomp-decode",
            StageKind::SplitSections => "split-sections",
            StageKind::HuffmanDecode => "huffman-decode",
            StageKind::Reconstruct => "g-interp-reconstruct",
        }
    }

    /// Buffers this stage consumes.
    pub fn inputs(&self) -> &'static [Buf] {
        match self {
            StageKind::Tune => &[Buf::Field],
            StageKind::PredictQuant => &[Buf::Field, Buf::Interp],
            StageKind::Histogram => &[Buf::Prediction],
            StageKind::CodebookBuild => &[Buf::Hist],
            StageKind::HuffmanEncode => &[Buf::Prediction, Buf::Book],
            StageKind::Assemble => &[Buf::Prediction, Buf::Book, Buf::HuffStream],
            StageKind::Bitcomp => &[Buf::Payload],
            StageKind::Finalize => &[Buf::Payload, Buf::Interp],
            StageKind::BitcompDecode => &[Buf::Archive],
            StageKind::SplitSections => &[Buf::Payload],
            StageKind::HuffmanDecode => &[Buf::Book, Buf::HuffStream],
            StageKind::Reconstruct => &[Buf::Codes, Buf::Prediction],
        }
    }

    /// Buffers this stage produces.
    pub fn outputs(&self) -> &'static [Buf] {
        match self {
            StageKind::Tune => &[Buf::Interp],
            StageKind::PredictQuant => &[Buf::Prediction],
            StageKind::Histogram => &[Buf::Hist],
            StageKind::CodebookBuild => &[Buf::Book],
            StageKind::HuffmanEncode => &[Buf::HuffStream],
            StageKind::Assemble => &[Buf::Payload],
            StageKind::Bitcomp => &[Buf::Packed],
            StageKind::Finalize => &[Buf::Archive],
            StageKind::BitcompDecode => &[Buf::Payload],
            StageKind::SplitSections => &[Buf::Book, Buf::HuffStream, Buf::Prediction],
            StageKind::HuffmanDecode => &[Buf::Codes],
            StageKind::Reconstruct => &[Buf::Output],
        }
    }
}

/// A validated, topologically ordered stage DAG.
#[derive(Clone, Debug)]
pub struct StageGraph {
    order: Vec<StageKind>,
}

impl StageGraph {
    /// The compress graph for a configuration (Bitcomp node present iff
    /// enabled). Panics in debug builds if the wiring is inconsistent —
    /// the roster is static, so validation failures are programming
    /// errors, and `graph_wiring_is_valid` pins them in tests.
    pub fn compress(cfg: &Config) -> Self {
        let mut order = vec![
            StageKind::Tune,
            StageKind::PredictQuant,
            StageKind::Histogram,
            StageKind::CodebookBuild,
            StageKind::HuffmanEncode,
            StageKind::Assemble,
        ];
        if cfg.bitcomp {
            order.push(StageKind::Bitcomp);
        }
        order.push(StageKind::Finalize);
        let g = StageGraph { order };
        debug_assert!(g.validate(&[Buf::Field]).is_ok());
        g
    }

    /// The compress graph for a [`WarmStart`]ed job: the session cache
    /// supplies `Interp` and `Book` as graph inputs, so the `tune`,
    /// `histogram`, and `codebook` stages are skipped entirely — one
    /// fewer kernel launch (the histogram) and no tuning work, with a
    /// byte-identical archive.
    pub fn compress_warm(cfg: &Config) -> Self {
        let mut order = vec![StageKind::PredictQuant, StageKind::HuffmanEncode, StageKind::Assemble];
        if cfg.bitcomp {
            order.push(StageKind::Bitcomp);
        }
        order.push(StageKind::Finalize);
        let g = StageGraph { order };
        debug_assert!(g.validate(&[Buf::Field, Buf::Interp, Buf::Book]).is_ok());
        g
    }

    /// The decompress graph for an archive (Bitcomp-decode present iff
    /// the header says the payload is packed).
    pub fn decompress(bitcomp: bool) -> Self {
        let mut order = Vec::new();
        if bitcomp {
            order.push(StageKind::BitcompDecode);
        }
        order.push(StageKind::SplitSections);
        order.push(StageKind::HuffmanDecode);
        order.push(StageKind::Reconstruct);
        let g = StageGraph { order };
        debug_assert!(g.validate(&[Buf::Archive, Buf::Payload]).is_ok());
        g
    }

    /// The stages in execution (topological) order.
    pub fn stages(&self) -> &[StageKind] {
        &self.order
    }

    /// Check the declared dataflow: every stage's inputs must be
    /// produced by an earlier stage (or be a graph input in `given`),
    /// and no buffer may have two producers. `Bitcomp` reading
    /// `Payload` and producing `Packed` keeps the payload buffer
    /// single-producer; `Finalize` accepts either.
    pub fn validate(&self, given: &[Buf]) -> Result<(), CuszError> {
        let mut live: Vec<Buf> = given.to_vec();
        for st in &self.order {
            for need in st.inputs() {
                let satisfied = live.contains(need)
                    // Finalize consumes the packed payload when a
                    // Bitcomp node ran.
                    || (*need == Buf::Payload && live.contains(&Buf::Packed));
                if !satisfied {
                    return Err(CuszError::InvalidConfig("stage graph: input not produced"));
                }
            }
            for out in st.outputs() {
                if live.contains(out) && *out != Buf::Payload {
                    return Err(CuszError::InvalidConfig("stage graph: duplicate producer"));
                }
                live.push(*out);
            }
        }
        Ok(())
    }
}

/// Session-cache warm start: the per-field artifacts a previous
/// compression of the *same content* derived, reusable verbatim. The
/// quant-code plane is a deterministic function of (field bytes, interp
/// config, eb, radius, device), so reusing the tuned [`InterpConfig`]
/// and the [`Codebook`] built from that plane's histogram skips the
/// `tune`, `histogram`, and `codebook` stages while producing a
/// byte-identical archive — the engine's session cache keys entries by
/// a content fingerprint for exactly this reason (see
/// [`crate::engine`]).
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// The tuned interpolation configuration (skips `tune`, including
    /// the autotuner's calibration sweep).
    pub interp: InterpConfig,
    /// The Huffman codebook (skips `histogram` + `codebook`).
    pub book: Codebook,
}

impl WarmStart {
    /// Approximate resident bytes, for the session cache's LRU budget.
    pub fn approx_bytes(&self) -> usize {
        // Codebook storage dominates: ~16 bytes per alphabet symbol
        // across its code/length/canonical tables.
        std::mem::size_of::<WarmStart>() + self.book.alphabet() * 16
    }
}

/// Shannon entropy of the quant-code distribution, in milli-bits per
/// symbol — the floor the Huffman stage is chasing. Only computed when
/// metrics are consuming it (it walks the histogram).
fn observe_entropy(hist: &[u32]) {
    if !cuszi_profile::metrics_active() {
        return;
    }
    let total: u64 = hist.iter().map(|&c| c as u64).sum();
    if total > 0 {
        let h: f64 = hist
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        cuszi_profile::observe("compress.codebook_entropy_mbits", (h * 1000.0) as u64);
    }
}

/// Unwrap a stage input, converting an absent buffer — a producer
/// stage that never ran or was skipped — into a typed
/// [`CuszError::StageError`] instead of the old `expect("X ran")`
/// panic.
fn missing<T>(v: Option<T>, stage: &'static str, what: &str) -> Result<T, CuszError> {
    v.ok_or_else(|| CuszError::missing_buffer(stage, what))
}

/// Stage-boundary sticky-error check: the `cudaGetLastError` analogue.
/// Any fault the injector tripped while this stage's kernels ran is
/// drained here and attributed to the stage. (Under concurrent streams
/// a sibling job may drain a fault first; the batch still errors —
/// single-stream runs give exact attribution.)
fn drain_sticky(kind: StageKind) -> Result<(), CuszError> {
    match cuszi_gpu_sim::fault::take_sticky() {
        Some(f) => Err(CuszError::from_fault(kind.label(), f)),
        None => Ok(()),
    }
}

/// Mutable per-field state the compress stages thread their buffers
/// through. Intermediates are `Option`s so each stage's declared
/// outputs are visibly materialised exactly once; assembly buffers are
/// arena-backed (see [`crate::arena`]).
pub struct CompressJob<'a> {
    pub data: &'a NdArray<f32>,
    pub cfg: &'a Config,
    pub eb_abs: f64,
    pub rel_eb: f64,
    // Stage outputs.
    interp: Option<InterpConfig>,
    pred: Option<PredictOutput>,
    hist: Option<Vec<u32>>,
    book: Option<Codebook>,
    stream: Option<EncodedStream>,
    payload: Option<Vec<u8>>,
    sections: [u64; 5],
    section_sizes: SectionSizes,
    flags: u8,
    kernels: Vec<KernelStats>,
    archive: Option<Vec<u8>>,
    outlier_count: usize,
    audit: Option<crate::audit::AuditReport>,
}

impl<'a> CompressJob<'a> {
    pub fn new(data: &'a NdArray<f32>, cfg: &'a Config, eb_abs: f64, rel_eb: f64) -> Self {
        CompressJob {
            data,
            cfg,
            eb_abs,
            rel_eb,
            interp: None,
            pred: None,
            hist: None,
            book: None,
            stream: None,
            payload: None,
            sections: [0; 5],
            section_sizes: SectionSizes::default(),
            flags: 0,
            kernels: Vec::new(),
            archive: None,
            outlier_count: 0,
            audit: None,
        }
    }

    /// A job pre-seeded with a session-cache [`WarmStart`]: the interp
    /// config and codebook arrive as graph inputs (pair with
    /// [`StageGraph::compress_warm`]).
    pub fn new_warm(
        data: &'a NdArray<f32>,
        cfg: &'a Config,
        eb_abs: f64,
        rel_eb: f64,
        warm: &WarmStart,
    ) -> Self {
        let mut job = CompressJob::new(data, cfg, eb_abs, rel_eb);
        job.interp = Some(warm.interp.clone());
        job.book = Some(warm.book.clone());
        job
    }

    /// Clone out the reusable artifacts for the session cache (call
    /// after the graph ran, before [`Self::into_compressed`]). `None`
    /// until `tune` and `codebook` have both produced their buffers.
    pub fn harvest_warm(&self) -> Option<WarmStart> {
        Some(WarmStart {
            interp: self.interp.as_ref()?.clone(),
            book: self.book.as_ref()?.clone(),
        })
    }

    /// Stream the quant-code plane into the fidelity audit (host-side,
    /// opt-in via [`Config::with_audit`]; decode-verify is filled in
    /// later by whoever holds both fields — see
    /// [`crate::audit::verify_decode`]).
    fn audit_pred(&mut self, pred: &PredictOutput) {
        if self.cfg.audit {
            self.audit = Some(crate::audit::audit_codes(
                &pred.codes,
                self.data.shape(),
                self.cfg.radius,
                self.eb_abs,
            ));
        }
    }

    /// Run one stage (callers go through [`run_compress`]).
    fn run(&mut self, kind: StageKind) -> Result<(), CuszError> {
        let _g = cuszi_profile::span(kind.label(), Category::Stage);
        cuszi_profile::flight::stage_begin(kind.label());
        let r = match kind {
            StageKind::Tune => self.tune(),
            StageKind::PredictQuant => self.predict_quant(),
            StageKind::Histogram => self.histogram(),
            StageKind::CodebookBuild => self.codebook(),
            StageKind::HuffmanEncode => self.huffman_encode(),
            StageKind::Assemble => self.assemble(),
            StageKind::Bitcomp => self.bitcomp(),
            StageKind::Finalize => self.finalize(),
            _ => Err(CuszError::InvalidConfig("decompress stage in compress graph")),
        };
        let r = drain_sticky(kind).and(r);
        // A failed stage is deliberately left open in the flight journal:
        // the dump then shows an unmatched stage-begin right before the
        // terminal error event, which is exactly the forensic shape a
        // black box should have.
        if r.is_ok() {
            cuszi_profile::flight::stage_end(kind.label());
        }
        r
    }

    /// § V-C: profiling + auto-tuning (the untuned ablation still
    /// applies Eq. 1's alpha from the relative bound).
    fn tune(&mut self) -> Result<(), CuszError> {
        self.interp = Some(if self.cfg.kernel_autotune {
            // Calibrated autotuner: compresses a centre crop once per
            // candidate order and keeps the one that zeroes the most
            // quant-codes.
            cuszi_predict::tuning::autotune(
                self.data,
                self.rel_eb,
                self.eb_abs,
                self.cfg.radius,
                &self.cfg.device,
            )
            .config
        } else if self.cfg.auto_tune {
            profile_and_tune(self.data, self.rel_eb).0
        } else {
            InterpConfig {
                alpha: alpha_from_rel_eb(self.rel_eb),
                ..InterpConfig::untuned(self.data.shape().rank())
            }
        });
        Ok(())
    }

    /// § V: G-Interp prediction + quantization.
    fn predict_quant(&mut self) -> Result<(), CuszError> {
        let interp = missing(self.interp.as_ref(), "predict-quant", "interp config")?;
        let pred =
            ginterp::compress(self.data, self.eb_abs, self.cfg.radius, interp, &self.cfg.device);
        self.kernels.extend(pred.kernels.iter().copied());
        self.outlier_count = pred.outliers.indices().len();
        self.audit_pred(&pred);
        self.pred = Some(pred);
        Ok(())
    }

    /// § VI-A (first half): quant-code histogram.
    fn histogram(&mut self) -> Result<(), CuszError> {
        let pred = missing(self.pred.as_ref(), "histogram", "prediction")?;
        let alphabet = 2 * self.cfg.radius as usize;
        let (hist, hstats) = histogram_gpu(
            &pred.codes,
            alphabet,
            self.cfg.radius,
            self.cfg.histogram_topk,
            &self.cfg.device,
        );
        self.kernels.push(hstats);
        observe_entropy(&hist);
        self.hist = Some(hist);
        Ok(())
    }

    /// § VI-A: CPU codebook construction (serial host work — exactly
    /// what overlaps with other fields' kernels under the scheduler).
    fn codebook(&mut self) -> Result<(), CuszError> {
        let hist = missing(self.hist.as_ref(), "codebook", "histogram")?;
        self.book = Some(
            Codebook::from_histogram(hist)
                .map_err(|_| CuszError::LosslessStage("codebook construction"))?,
        );
        Ok(())
    }

    /// § VI-A: coarse-grained Huffman encode.
    fn huffman_encode(&mut self) -> Result<(), CuszError> {
        let pred = missing(self.pred.as_ref(), "huffman-encode", "prediction")?;
        let book = missing(self.book.as_ref(), "huffman-encode", "codebook")?;
        let (stream, estats) = encode_gpu(&pred.codes, book, &self.cfg.device);
        self.kernels.extend(estats);
        self.stream = Some(stream);
        Ok(())
    }

    /// Gather the five payload sections from arena-backed buffers.
    fn assemble(&mut self) -> Result<(), CuszError> {
        let pred = missing(self.pred.as_ref(), "assemble", "prediction")?;
        let book = missing(self.book.as_ref(), "assemble", "codebook")?;
        let stream = missing(self.stream.as_ref(), "assemble", "huffman stream")?;
        let mut anchors_bytes = crate::arena::take(pred.anchors.len() * 4);
        for v in &pred.anchors {
            anchors_bytes.extend_from_slice(&v.to_le_bytes());
        }
        let book_bytes = book.to_bytes();
        let stream_bytes = stream.to_bytes();
        let mut oidx_bytes = crate::arena::take(pred.outliers.indices().len() * 8);
        for v in pred.outliers.indices() {
            oidx_bytes.extend_from_slice(&v.to_le_bytes());
        }
        let mut oval_bytes = crate::arena::take(pred.outliers.values().len() * 4);
        for v in pred.outliers.values() {
            oval_bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.sections = [
            anchors_bytes.len() as u64,
            book_bytes.len() as u64,
            stream_bytes.len() as u64,
            oidx_bytes.len() as u64,
            oval_bytes.len() as u64,
        ];
        let mut payload =
            crate::arena::take(self.sections.iter().map(|&s| s as usize).sum::<usize>());
        payload.extend_from_slice(&anchors_bytes);
        payload.extend_from_slice(&book_bytes);
        payload.extend_from_slice(&stream_bytes);
        payload.extend_from_slice(&oidx_bytes);
        payload.extend_from_slice(&oval_bytes);

        self.section_sizes = SectionSizes {
            header: HEADER_LEN,
            anchors: anchors_bytes.len(),
            codebook: book_bytes.len(),
            huffman: stream_bytes.len(),
            outliers: oidx_bytes.len() + oval_bytes.len(),
        };
        crate::arena::put(anchors_bytes);
        crate::arena::put(book_bytes);
        crate::arena::put(stream_bytes);
        crate::arena::put(oidx_bytes);
        crate::arena::put(oval_bytes);
        self.payload = Some(payload);
        Ok(())
    }

    /// § VI-B: Bitcomp-lossless pass over the whole payload.
    fn bitcomp(&mut self) -> Result<(), CuszError> {
        let payload = missing(self.payload.take(), "bitcomp", "payload")?;
        self.flags |= FLAG_BITCOMP;
        let (packed, bstats) = cuszi_bitcomp::compress(&payload, &self.cfg.device);
        self.kernels.extend(bstats);
        crate::arena::put(payload);
        self.payload = Some(packed);
        Ok(())
    }

    /// Prepend the self-describing header.
    fn finalize(&mut self) -> Result<(), CuszError> {
        let interp = missing(self.interp.as_ref(), "finalize", "interp config")?;
        let payload = missing(self.payload.take(), "finalize", "payload")?;
        let header = Header {
            version: VERSION,
            flags: self.flags,
            shape: self.data.shape(),
            eb_abs: self.eb_abs,
            alpha: interp.alpha,
            radius: self.cfg.radius,
            variants: interp.variants,
            order: interp.order.clone(),
            const_value: 0.0,
            sections: self.sections,
        };
        let mut bytes = header.to_bytes();
        bytes.extend_from_slice(&payload);
        crate::arena::put(payload);
        if cuszi_profile::metrics_active() {
            let bytes_in = (self.data.len() * 4) as u64;
            let bytes_out = bytes.len() as u64;
            cuszi_profile::count("compress.fields", 1);
            cuszi_profile::count("compress.bytes_in", bytes_in);
            cuszi_profile::count("compress.bytes_out", bytes_out);
            cuszi_profile::count("compress.outliers", self.outlier_count as u64);
            // Per-field distributions: CR in parts-per-thousand,
            // outlier rate in parts-per-million.
            cuszi_profile::observe("compress.cr_ppt", bytes_in * 1000 / bytes_out.max(1));
            cuszi_profile::observe(
                "compress.outlier_rate_ppm",
                self.outlier_count as u64 * 1_000_000 / (self.data.len() as u64).max(1),
            );
        }
        self.archive = Some(bytes);
        Ok(())
    }

    /// Consume the job into the caller-facing artifact set.
    pub fn into_compressed(self) -> Result<crate::pipeline::Compressed, CuszError> {
        Ok(crate::pipeline::Compressed {
            bytes: missing(self.archive, "finalize", "archive")?,
            kernels: self.kernels,
            sections: self.section_sizes,
            eb_abs: self.eb_abs,
            interp: missing(self.interp, "finalize", "interp config")?,
            audit: self.audit,
        })
    }
}

/// Execute a compress graph over a job, stage by stage in topological
/// order.
pub fn run_compress(graph: &StageGraph, job: &mut CompressJob<'_>) -> Result<(), CuszError> {
    for &st in graph.stages() {
        job.run(st)?;
    }
    Ok(())
}

/// Mutable per-archive state the decompress stages thread through.
pub struct DecompressJob<'a> {
    pub bytes: &'a [u8],
    pub header: &'a Header,
    pub cfg: &'a Config,
    payload: Option<Vec<u8>>,
    anchors: Option<Vec<f32>>,
    book: Option<Codebook>,
    stream: Option<EncodedStream>,
    outliers: Option<Outliers>,
    codes: Option<Vec<u16>>,
    kernels: Vec<KernelStats>,
    data: Option<NdArray<f32>>,
}

impl<'a> DecompressJob<'a> {
    pub fn new(bytes: &'a [u8], header: &'a Header, cfg: &'a Config) -> Self {
        DecompressJob {
            bytes,
            header,
            cfg,
            payload: None,
            anchors: None,
            book: None,
            stream: None,
            outliers: None,
            codes: None,
            kernels: Vec::new(),
            data: None,
        }
    }

    fn run(&mut self, kind: StageKind) -> Result<(), CuszError> {
        let _g = cuszi_profile::span(kind.label(), Category::Stage);
        cuszi_profile::flight::stage_begin(kind.label());
        let r = match kind {
            StageKind::BitcompDecode => self.bitcomp_decode(),
            StageKind::SplitSections => self.split(),
            StageKind::HuffmanDecode => self.huffman_decode(),
            StageKind::Reconstruct => self.reconstruct(),
            _ => Err(CuszError::InvalidConfig("compress stage in decompress graph")),
        };
        let r = drain_sticky(kind).and(r);
        if r.is_ok() {
            cuszi_profile::flight::stage_end(kind.label());
        }
        r
    }

    fn bitcomp_decode(&mut self) -> Result<(), CuszError> {
        let raw = &self.bytes[HEADER_LEN..];
        let (p, bstats) = cuszi_bitcomp::decompress(raw, &self.cfg.device)
            .map_err(|e| CuszError::LosslessStage(e.0))?;
        self.kernels.push(bstats);
        self.payload = Some(p);
        Ok(())
    }

    fn split(&mut self) -> Result<(), CuszError> {
        let payload: &[u8] = match &self.payload {
            Some(p) => p,
            None => &self.bytes[HEADER_LEN..],
        };
        let [anchors_b, book_b, stream_b, oidx_b, oval_b] =
            split_sections(payload, &self.header.sections)?;
        let anchors = f32_section(anchors_b)?;
        let book =
            Codebook::from_bytes(book_b).map_err(|_| CuszError::CorruptArchive("codebook"))?;
        let stream = EncodedStream::from_bytes(stream_b)
            .ok_or(CuszError::CorruptArchive("huffman stream"))?;
        if stream.n as usize != self.header.shape.len() {
            return Err(CuszError::CorruptArchive("stream length != shape"));
        }
        let outliers = Outliers::from_parts(u64_section(oidx_b)?, f32_section(oval_b)?)
            .ok_or(CuszError::CorruptArchive("outlier sections disagree"))?;
        if outliers.indices().iter().any(|&i| i as usize >= self.header.shape.len()) {
            return Err(CuszError::CorruptArchive("outlier index out of range"));
        }
        let expected_anchors = ginterp::anchor_len(
            self.header.shape,
            ginterp::anchor_stride_for_rank(self.header.shape.rank()),
        );
        if anchors.len() != expected_anchors {
            return Err(CuszError::CorruptArchive("anchor section length"));
        }
        self.anchors = Some(anchors);
        self.book = Some(book);
        self.stream = Some(stream);
        self.outliers = Some(outliers);
        Ok(())
    }

    fn huffman_decode(&mut self) -> Result<(), CuszError> {
        let book = missing(self.book.as_ref(), "huffman-decode", "codebook")?;
        let stream = missing(self.stream.as_ref(), "huffman-decode", "huffman stream")?;
        let decoded = decode_gpu(stream, book, &self.cfg.device)?;
        cuszi_profile::count("huffman_decode.sectors", decoded.report.sectors);
        self.kernels.extend(decoded.kernels);
        self.codes = Some(decoded.syms);
        Ok(())
    }

    fn reconstruct(&mut self) -> Result<(), CuszError> {
        let codes = missing(self.codes.as_ref(), "g-interp-reconstruct", "quant codes")?;
        let anchors = missing(self.anchors.as_ref(), "g-interp-reconstruct", "anchors")?;
        let outliers = missing(self.outliers.as_ref(), "g-interp-reconstruct", "outliers")?;
        let interp = self.header.interp_config();
        let (data, gstats) = ginterp::decompress(
            codes,
            anchors,
            outliers,
            self.header.shape,
            self.header.eb_abs,
            self.header.radius,
            &interp,
            &self.cfg.device,
        );
        self.kernels.extend(gstats);
        self.data = Some(data);
        Ok(())
    }

    /// Consume the job into the caller-facing result.
    pub fn into_decompressed(self) -> Result<crate::pipeline::Decompressed, CuszError> {
        Ok(crate::pipeline::Decompressed {
            data: missing(self.data, "g-interp-reconstruct", "reconstructed field")?,
            kernels: self.kernels,
        })
    }
}

/// Execute a decompress graph over a job.
pub fn run_decompress(graph: &StageGraph, job: &mut DecompressJob<'_>) -> Result<(), CuszError> {
    for &st in graph.stages() {
        job.run(st)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_quant::ErrorBound;

    #[test]
    fn graph_wiring_is_valid() {
        for cfg in [
            Config::new(ErrorBound::Rel(1e-3)),
            Config::new(ErrorBound::Rel(1e-3)).without_bitcomp(),
        ] {
            let g = StageGraph::compress(&cfg);
            g.validate(&[Buf::Field]).expect("compress graph wires up");
            assert_eq!(g.stages().first(), Some(&StageKind::Tune));
            assert_eq!(g.stages().last(), Some(&StageKind::Finalize));
            assert_eq!(
                g.stages().contains(&StageKind::Bitcomp),
                cfg.bitcomp,
                "bitcomp node present iff enabled"
            );
        }
        for bitcomp in [false, true] {
            StageGraph::decompress(bitcomp)
                .validate(&[Buf::Archive, Buf::Payload])
                .expect("decompress graph wires up");
        }
    }

    #[test]
    fn compress_graphs_are_one_fixed_roster() {
        use StageKind::*;
        let cold = [Tune, PredictQuant, Histogram, CodebookBuild, HuffmanEncode, Assemble];
        for cfg in [
            Config::new(ErrorBound::Rel(1e-3)),
            Config::new(ErrorBound::Rel(1e-3)).without_bitcomp(),
            Config::new(ErrorBound::Rel(1e-3)).with_kernel_autotune(),
            Config::new(ErrorBound::Rel(1e-3)).without_tuning(),
        ] {
            let tail: &[StageKind] = if cfg.bitcomp { &[Bitcomp, Finalize] } else { &[Finalize] };
            assert_eq!(StageGraph::compress(&cfg).stages(), [&cold[..], tail].concat());
            // A warm job drops tune, histogram and codebook; nothing
            // else changes.
            let warm = [&[PredictQuant, HuffmanEncode, Assemble][..], tail].concat();
            assert_eq!(StageGraph::compress_warm(&cfg).stages(), warm);
        }
    }

    #[test]
    fn validation_rejects_missing_producer() {
        // Huffman-encode before its codebook exists.
        let g = StageGraph {
            order: vec![StageKind::Tune, StageKind::PredictQuant, StageKind::HuffmanEncode],
        };
        assert!(g.validate(&[Buf::Field]).is_err());
        // Reordering a valid roster breaks it.
        let g = StageGraph {
            order: vec![StageKind::PredictQuant, StageKind::Tune],
        };
        assert!(g.validate(&[Buf::Field]).is_err());
    }

    #[test]
    fn validation_rejects_duplicate_producer() {
        let g = StageGraph {
            order: vec![StageKind::Tune, StageKind::Tune],
        };
        assert!(g.validate(&[Buf::Field]).is_err());
    }

    #[test]
    fn stage_labels_are_unique() {
        let all = [
            StageKind::Tune,
            StageKind::PredictQuant,
            StageKind::Histogram,
            StageKind::CodebookBuild,
            StageKind::HuffmanEncode,
            StageKind::Assemble,
            StageKind::Bitcomp,
            StageKind::Finalize,
            StageKind::BitcompDecode,
            StageKind::SplitSections,
            StageKind::HuffmanDecode,
            StageKind::Reconstruct,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
