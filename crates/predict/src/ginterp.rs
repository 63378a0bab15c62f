//! G-Interp: the GPU-optimised interpolation-based predictor (§ V).
//!
//! # Decomposition (§ V-A, V-D)
//!
//! The input is partitioned into *chunks* owned by one thread block each:
//! `32_x x 8_y x 8_z` for 3-d data (four 8^3 basic blocks for a coalesced
//! load), `16^2` for 2-d, `512` for 1-d. Anchor points — the input values
//! at every multiple of the anchor stride (8 / 16 / 512) in all active
//! axes — are stored losslessly, so every interpolation is confined to
//! the block's *closed* tile (e.g. `33 x 9 x 9`), eliminating cross-block
//! dependencies.
//!
//! # Shared-face consistency
//!
//! Tile faces lying on the chunk lattice are computed by *both* adjacent
//! blocks. This duplication is deterministic: a face point is only ever
//! predicted along an axis in which its coordinate is off-lattice, and
//! along that axis all computing blocks share the same closed line
//! extent and therefore the same neighbours, splines and prediction.
//! Each point's quant-code is *written* only by the block whose
//! half-open chunk owns it — verified in tests with checked global
//! views.
//!
//! # Level-wise error bounds (§ V-B.2)
//!
//! Level `l` (stride `2^(l-1)`) quantizes against
//! `e_l = e / alpha^(l-1)`; `alpha` comes from the Eq. 1 auto-tuner.

use std::collections::HashMap;

use cuszi_gpu_sim::{launch_named, BlockCtx, BlockSlots, DeviceSpec, Dim3, GlobalRead, GlobalWrite, Grid, KernelStats, SharedTile};
use cuszi_quant::{Outliers, Quantizer, OUTLIER_CODE};
use cuszi_tensor::{NdArray, Shape};

use crate::lanes::{gather_lanes, F32x8, LANES};
use crate::sweep::{interpolate_grid_with, level_ladder, GridView, SweepProcessor};
use crate::tuning::{level_error_bound, InterpConfig};
use crate::PredictOutput;

/// Chunk extents per logical rank (`[z, y, x]`, § V-A/V-D).
pub fn chunk_for_rank(rank: usize) -> [usize; 3] {
    Geometry::for_rank(rank).chunk
}

/// The block decomposition G-Interp runs over: the per-thread-block
/// chunk and the anchor-lattice stride. The paper's values are
/// [`Geometry::for_rank`]; [`Geometry::with_anchor_stride`] builds the
/// DESIGN.md § 4 ablation variants (stride 4 / 8 / 16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Thread-block chunk extents (`[z, y, x]`).
    pub chunk: [usize; 3],
    /// Anchor lattice stride (power of two dividing the chunk extents
    /// on active axes).
    pub anchor_stride: usize,
}

impl Geometry {
    /// The paper's decomposition: 32x8x8 chunks / stride-8 anchors for
    /// 3-d, 16^2 / 16 for 2-d, 512 / 512 for 1-d.
    pub fn for_rank(rank: usize) -> Self {
        match rank {
            1 => Geometry { chunk: [1, 1, 512], anchor_stride: 512 },
            2 => Geometry { chunk: [1, 16, 16], anchor_stride: 16 },
            3 => Geometry { chunk: [8, 8, 32], anchor_stride: 8 },
            _ => panic!("rank must be 1..=3, got {rank}"),
        }
    }

    /// An ablation geometry with a different anchor stride: the chunk
    /// keeps the paper's 4-basic-blocks-along-x shape (`s x s x 4s` for
    /// 3-d). Strides above 16 in 3-d exceed the per-block shared-memory
    /// capacity of the modelled devices (the launch panics, as the CUDA
    /// launch would).
    pub fn with_anchor_stride(rank: usize, stride: usize) -> Self {
        assert!(stride.is_power_of_two() && stride >= 2, "stride must be a power of two >= 2");
        match rank {
            1 => Geometry { chunk: [1, 1, stride], anchor_stride: stride },
            2 => Geometry { chunk: [1, stride, stride], anchor_stride: stride },
            3 => Geometry { chunk: [stride, stride, 4 * stride], anchor_stride: stride },
            _ => panic!("rank must be 1..=3, got {rank}"),
        }
    }

    fn validate(&self, rank: usize) {
        for a in 3 - rank..3 {
            assert!(
                self.chunk[a].is_multiple_of(self.anchor_stride),
                "chunk extent {} not a multiple of anchor stride {}",
                self.chunk[a],
                self.anchor_stride
            );
        }
    }
}

/// Anchor lattice stride per logical rank (§ V-A: 8^3 basic blocks for
/// 3-d, 16^2 for 2-d, 512 for 1-d).
pub fn anchor_stride_for_rank(rank: usize) -> usize {
    Geometry::for_rank(rank).anchor_stride
}

/// Threads per block used by the interpolation kernels (§ V-D pairs a
/// thread block with four 8^3 basic blocks).
pub const THREADS_PER_BLOCK: u32 = 256;

/// Anchor-lattice point count per padded axis.
pub fn anchor_counts(shape: Shape, stride: usize) -> [usize; 3] {
    let d = shape.dims3();
    let rank = shape.rank();
    let mut out = [1usize; 3];
    for a in 3 - rank..3 {
        out[a] = (d[a] - 1) / stride + 1;
    }
    out
}

/// Number of anchors stored for a shape (the lossless overhead of § V-A,
/// ~1/512 of the input for 3-d).
pub fn anchor_len(shape: Shape, stride: usize) -> usize {
    anchor_counts(shape, stride).iter().product()
}

/// Geometry of one thread block's tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TileGeom {
    /// Global origin of the chunk.
    origin: [usize; 3],
    /// Closed-cube tile extents (chunk + 1 on active axes, clipped).
    ext: [usize; 3],
    /// Owned (written) extents: the half-open chunk, clipped.
    own: [usize; 3],
}

fn tile_geom(shape: Shape, chunk: [usize; 3], block: Dim3) -> TileGeom {
    let dims = shape.dims3();
    let rank = shape.rank();
    let origin = [
        block.z as usize * chunk[0],
        block.y as usize * chunk[1],
        block.x as usize * chunk[2],
    ];
    let mut ext = [1usize; 3];
    let mut own = [1usize; 3];
    for a in 0..3 {
        let active = a >= 3 - rank;
        own[a] = chunk[a].min(dims[a] - origin[a]);
        ext[a] = if active { (chunk[a] + 1).min(dims[a] - origin[a]) } else { own[a] };
    }
    TileGeom { origin, ext, own }
}

fn launch_grid(shape: Shape, chunk: [usize; 3]) -> Grid {
    let bc = shape.block_counts(chunk);
    Grid::new(
        Dim3 { x: bc[2] as u32, y: bc[1] as u32, z: bc[0] as u32 },
        THREADS_PER_BLOCK,
    )
}

/// A [`GridView`] over a shared-memory tile.
///
/// Accesses are counted locally and billed to the tile's traffic
/// counter in one update on drop — same totals as per-access counting,
/// without a counter round-trip inside the sweep's innermost loop.
struct TileGrid<'t> {
    tile: &'t mut SharedTile<f32>,
    ext: [usize; 3],
    accesses: std::cell::Cell<u64>,
}

impl<'t> TileGrid<'t> {
    fn new(tile: &'t mut SharedTile<f32>, ext: [usize; 3]) -> Self {
        TileGrid { tile, ext, accesses: std::cell::Cell::new(0) }
    }
}

impl Drop for TileGrid<'_> {
    fn drop(&mut self) {
        self.tile.add_accesses(self.accesses.get());
    }
}

impl GridView for TileGrid<'_> {
    fn extent(&self) -> [usize; 3] {
        self.ext
    }

    #[inline(always)]
    fn get_lin(&self, i: usize) -> f32 {
        self.accesses.set(self.accesses.get() + 1);
        self.tile.get_untracked(i)
    }

    #[inline(always)]
    fn set_lin(&mut self, i: usize, v: f32) {
        self.accesses.set(self.accesses.get() + 1);
        self.tile.set_untracked(i, v);
    }

    // A lane run books its `n` accesses in one bump — identical totals
    // to `n` tracked single accesses, without `n` Cell round-trips.
    #[inline(always)]
    fn gather(&self, base: usize, step: usize, n: usize) -> F32x8 {
        self.accesses.set(self.accesses.get() + n as u64);
        F32x8::gather(self.tile.as_slice(), base, step, n)
    }

    #[inline(always)]
    fn scatter(&mut self, base: usize, step: usize, n: usize, vals: F32x8) {
        self.accesses.set(self.accesses.get() + n as u64);
        vals.scatter(self.tile.as_mut_slice(), base, step, n);
    }
}

/// Gather the anchor lattice from the input (the lossless side channel).
///
/// One thread block per `(z, y)` anchor row; the stride-8 gather along
/// `x` is genuinely uncoalesced and is billed as such by the sim.
pub fn gather_anchors(
    data: &NdArray<f32>,
    device: &DeviceSpec,
) -> (Vec<f32>, KernelStats) {
    gather_anchors_with(data, anchor_stride_for_rank(data.shape().rank()), device)
}

/// [`gather_anchors`] at an explicit anchor stride (ablation geometry).
pub fn gather_anchors_with(
    data: &NdArray<f32>,
    stride: usize,
    device: &DeviceSpec,
) -> (Vec<f32>, KernelStats) {
    let shape = data.shape();
    let counts = anchor_counts(shape, stride);
    let mut anchors = vec![0f32; counts.iter().product()];
    let stats = {
        let src = GlobalRead::new(data.as_slice());
        let dst = GlobalWrite::new(&mut anchors);
        let grid = Grid::new(
            Dim3 { x: 1, y: counts[1] as u32, z: counts[0] as u32 },
            THREADS_PER_BLOCK.min(device.max_threads_per_block),
        );
        launch_named(device, grid, "anchor-gather", |ctx: &mut BlockCtx<'_>| {
            let az = ctx.block.z as usize;
            let ay = ctx.block.y as usize;
            // Analytic strided read: same sector accounting as a
            // gathered index list, without materialising one per row.
            let mut vals = ctx.scratch(counts[2], 0f32);
            ctx.read_strided(&src, shape.index3(az * stride, ay * stride, 0), stride, &mut vals);
            ctx.write_span(&dst, (az * counts[1] + ay) * counts[2], &vals);
        })
    };
    (anchors, stats)
}

fn quantizers_for_levels(anchor_stride: usize, eb: f64, alpha: f64, radius: u16) -> Vec<(u32, Quantizer)> {
    level_ladder(anchor_stride)
        .into_iter()
        // A level bound is derived from a bound the caller already
        // validated (positive, finite), so construction cannot fail.
        .map(|(level, _)| {
            (level, Quantizer::new(level_error_bound(eb, level, alpha), radius).expect("level bound derived from a validated eb"))
        })
        .collect()
}

#[inline]
fn quantizer_for(qs: &[(u32, Quantizer)], level: u32) -> &Quantizer {
    // The ladder is ordered highest level first, so level `l` sits at
    // `len - l` — O(1) in the per-element hot path.
    let e = &qs[qs.len() - level as usize];
    debug_assert_eq!(e.0, level);
    &e.1
}

/// Compress-side G-Interp: predict + quantize the whole field.
///
/// Returns the full artifact set; `codes` is initialised to the
/// zero-error code so anchor positions (never visited by the sweep)
/// encode "no correction".
pub fn compress(
    data: &NdArray<f32>,
    eb: f64,
    radius: u16,
    cfg: &InterpConfig,
    device: &DeviceSpec,
) -> PredictOutput {
    compress_with(Geometry::for_rank(data.shape().rank()), data, eb, radius, cfg, device)
}

/// The compress-side [`SweepProcessor`]: quantize each prediction
/// against the original value, record owned codes (and outliers), and
/// hand the reconstruction back to the sweep. Lane runs — full or
/// partial, whose padding lanes quantize a repeat of the last point
/// that nobody reads — go through the branchless
/// [`Quantizer::quantize8`]; single points take the scalar form. Both
/// are bit-identical (the oracle test pins this end to end).
struct TileQuant<'a> {
    quants: &'a [(u32, Quantizer)],
    orig: &'a [f32],
    ext: [usize; 3],
    own: [usize; 3],
    origin: [usize; 3],
    shape: Shape,
    codes: &'a mut [u16],
    outs: &'a mut Outliers,
}

impl TileQuant<'_> {
    /// Record one owned code: store it and capture the exact value
    /// when it is an outlier.
    #[inline(always)]
    fn record(&mut self, z: usize, y: usize, xj: usize, li: usize, code: u16) {
        self.codes[li] = code;
        if code == OUTLIER_CODE {
            let gi =
                self.shape.index3(self.origin[0] + z, self.origin[1] + y, self.origin[2] + xj);
            self.outs.push(gi as u64, self.orig[li]);
        }
    }
}

impl SweepProcessor for TileQuant<'_> {
    #[inline(always)]
    fn apply(&mut self, p: [usize; 3], sx: usize, level: u32, preds: &mut [f32; LANES], n: usize) {
        let q = quantizer_for(self.quants, level);
        let row_owned = p[0] < self.own[0] && p[1] < self.own[1];
        let li0 = (p[0] * self.ext[1] + p[1]) * self.ext[2] + p[2];
        let mut codes = [OUTLIER_CODE; LANES];
        if n == 1 {
            let qz = q.quantize(self.orig[li0], preds[0]);
            preds[0] = qz.recon;
            codes[0] = qz.code;
        } else {
            let vals = F32x8::gather(self.orig, li0, sx, n);
            (codes, *preds) = q.quantize8(&vals.0, preds);
        }
        if row_owned {
            for (j, &code) in codes[..n].iter().enumerate() {
                let xj = p[2] + j * sx;
                if xj < self.own[2] {
                    self.record(p[0], p[1], xj, li0 + j * sx, code);
                }
            }
        }
    }
}

/// The decompress-side [`SweepProcessor`], [`TileQuant`]'s twin: replay
/// each prediction's stored code. A lane run reconstructs all eight
/// lanes with [`Quantizer::reconstruct8`] and then patches the (rare)
/// outlier lanes from the side channel, so the common run has no
/// per-lane branch before its arithmetic.
struct TileDecode<'a> {
    quants: &'a [(u32, Quantizer)],
    codes: &'a [u16],
    /// Global index -> exact value of every outlier.
    outliers: &'a HashMap<u64, f32>,
    ext: [usize; 3],
    origin: [usize; 3],
    shape: Shape,
}

impl SweepProcessor for TileDecode<'_> {
    #[inline(always)]
    fn apply(&mut self, p: [usize; 3], sx: usize, level: u32, preds: &mut [f32; LANES], n: usize) {
        let q = quantizer_for(self.quants, level);
        let li0 = (p[0] * self.ext[1] + p[1]) * self.ext[2] + p[2];
        // Padding lanes repeat the run's last code, so they add no
        // outlier of their own.
        let codes = gather_lanes(self.codes, li0, sx, n);
        let mut recons = *preds;
        if n > 1 {
            recons = q.reconstruct8(preds, &codes);
        } else if codes[0] != OUTLIER_CODE {
            recons[0] = q.reconstruct(preds[0], codes[0]);
        }
        // Outlier lanes take their exact value; one missing from the
        // side channel (only a corrupt archive has one) keeps its
        // prediction. Most runs have none and skip the lane walk.
        if codes.contains(&OUTLIER_CODE) {
            for j in 0..n {
                if codes[j] == OUTLIER_CODE {
                    let gi = self.shape.index3(
                        self.origin[0] + p[0],
                        self.origin[1] + p[1],
                        self.origin[2] + p[2] + j * sx,
                    );
                    recons[j] = *self.outliers.get(&(gi as u64)).unwrap_or(&preds[j]);
                }
            }
        }
        *preds = recons;
    }
}

/// [`compress`] over an explicit [`Geometry`] (the DESIGN.md § 4
/// anchor-stride / block-size ablation entry point).
pub fn compress_with(
    geom: Geometry,
    data: &NdArray<f32>,
    eb: f64,
    radius: u16,
    cfg: &InterpConfig,
    device: &DeviceSpec,
) -> PredictOutput {
    let shape = data.shape();
    let rank = shape.rank();
    geom.validate(rank);
    let chunk = geom.chunk;
    let astride = geom.anchor_stride;
    let quants = quantizers_for_levels(astride, eb, cfg.alpha, radius);

    let (anchors, anchor_stats) = gather_anchors_with(data, astride, device);

    let mut codes = vec![radius; shape.len()];
    // One outlier slot per block, written disjointly during the launch
    // and compacted in block order afterwards — no lock on the hot path.
    let grid = launch_grid(shape, chunk);
    let outlier_parts: BlockSlots<Outliers> = BlockSlots::new(grid.blocks.count() as usize);

    let interp_stats = {
        let src = GlobalRead::new(data.as_slice());
        let dst = GlobalWrite::new(&mut codes);
        launch_named(device, grid, "g-interp", |ctx: &mut BlockCtx<'_>| {
            let g = tile_geom(shape, chunk, ctx.block);
            let tlen = g.ext.iter().product::<usize>();

            // Stage 1 (Fig. 2-2): coalesced row loads of the original
            // values into pooled block-local storage.
            let mut orig = ctx.scratch(tlen, 0f32);
            for z in 0..g.ext[0] {
                for y in 0..g.ext[1] {
                    let gi = shape.index3(g.origin[0] + z, g.origin[1] + y, g.origin[2]);
                    let li = (z * g.ext[1] + y) * g.ext[2];
                    ctx.read_span(&src, gi, &mut orig[li..li + g.ext[2]]);
                }
            }
            ctx.sync();

            // Stage 2: seed the reconstruction tile with the (lossless)
            // anchors, then run the level sweep, quantizing each
            // prediction against the original value.
            let mut tile = ctx.alloc_shared::<f32>(tlen);
            seed_anchors_from(&mut tile, g.ext, g.origin, astride, |li| orig[li]);
            ctx.sync();

            let mut local_codes = ctx.scratch(tlen, radius);
            let mut outs = Outliers::new();
            let mut grid_view = TileGrid::new(&mut tile, g.ext);
            let mut proc = TileQuant {
                quants: &quants,
                orig: &orig,
                ext: g.ext,
                own: g.own,
                origin: g.origin,
                shape,
                codes: &mut local_codes,
                outs: &mut outs,
            };
            let flops = interpolate_grid_with(&mut grid_view, rank, astride, cfg, &mut proc).flops;
            drop(grid_view);
            ctx.add_flops(flops);
            // One barrier per (level, dim) phase of the sweep (§ V-D).
            for _ in 0..crate::sweep::phase_count(rank, astride) {
                ctx.sync();
            }

            // Stage 3: coalesced stores of the owned quant-codes.
            for z in 0..g.own[0] {
                for y in 0..g.own[1] {
                    let gi = shape.index3(g.origin[0] + z, g.origin[1] + y, g.origin[2]);
                    let li = (z * g.ext[1] + y) * g.ext[2];
                    ctx.write_span(&dst, gi, &local_codes[li..li + g.own[2]]);
                }
            }
            if !outs.is_empty() {
                outlier_parts.put(ctx.block_linear() as usize, outs);
            }
        })
    };

    let outliers = Outliers::concat(outlier_parts.into_compact());

    PredictOutput { codes, outliers, anchors, kernels: vec![anchor_stats, interp_stats] }
}

/// Decompress-side G-Interp: replay predictions from quant-codes.
///
/// `eb`, `radius` and `cfg` must match compression (they travel in the
/// archive header). Returns the reconstruction and the kernel stats.
#[allow(clippy::too_many_arguments)] // mirrors the compress signature
pub fn decompress(
    codes: &[u16],
    anchors: &[f32],
    outliers: &Outliers,
    shape: Shape,
    eb: f64,
    radius: u16,
    cfg: &InterpConfig,
    device: &DeviceSpec,
) -> (NdArray<f32>, Vec<KernelStats>) {
    decompress_with(
        Geometry::for_rank(shape.rank()),
        codes,
        anchors,
        outliers,
        shape,
        eb,
        radius,
        cfg,
        device,
    )
}

/// [`decompress`] over an explicit [`Geometry`] (must match the
/// geometry used to compress).
#[allow(clippy::too_many_arguments)] // mirrors the compress signature
pub fn decompress_with(
    geom: Geometry,
    codes: &[u16],
    anchors: &[f32],
    outliers: &Outliers,
    shape: Shape,
    eb: f64,
    radius: u16,
    cfg: &InterpConfig,
    device: &DeviceSpec,
) -> (NdArray<f32>, Vec<KernelStats>) {
    assert_eq!(codes.len(), shape.len(), "codes length must match shape");
    let rank = shape.rank();
    geom.validate(rank);
    let chunk = geom.chunk;
    let astride = geom.anchor_stride;
    assert_eq!(
        anchors.len(),
        anchor_len(shape, astride),
        "anchor section length must match shape"
    );
    let quants = quantizers_for_levels(astride, eb, cfg.alpha, radius);
    let acounts = anchor_counts(shape, astride);

    // Outliers are replayed mid-sweep via an index -> exact-value map
    // (GPU original: a pre-scattered buffer read back per outlier).
    let omap: HashMap<u64, f32> =
        outliers.indices().iter().copied().zip(outliers.values().iter().copied()).collect();

    let mut out = vec![0f32; shape.len()];
    let stats = {
        let code_view = GlobalRead::new(codes);
        let anchor_view = GlobalRead::new(anchors);
        let dst = GlobalWrite::new(&mut out);
        launch_named(device, launch_grid(shape, chunk), "g-interp-decode", |ctx: &mut BlockCtx<'_>| {
            let g = tile_geom(shape, chunk, ctx.block);
            let tlen = g.ext.iter().product::<usize>();

            // Stage 1: coalesced row loads of the quant-codes.
            let mut tile_codes = ctx.scratch(tlen, 0u16);
            for z in 0..g.ext[0] {
                for y in 0..g.ext[1] {
                    let gi = shape.index3(g.origin[0] + z, g.origin[1] + y, g.origin[2]);
                    let li = (z * g.ext[1] + y) * g.ext[2];
                    ctx.read_span(&code_view, gi, &mut tile_codes[li..li + g.ext[2]]);
                }
            }
            ctx.sync();

            // Stage 2: seed anchors from the lossless lattice. The
            // tile's anchors within one z-lattice-plane form an
            // analytic 2-d span of the anchor array (runs of `nx`
            // consecutive entries, one per lattice row), so each plane
            // is a single span read — no per-anchor index list.
            let mut tile = ctx.alloc_shared::<f32>(tlen);
            {
                let origin = g.origin;
                let nz = (g.ext[0] - 1) / astride + 1;
                let ny = (g.ext[1] - 1) / astride + 1;
                let nx = (g.ext[2] - 1) / astride + 1;
                let mut vals = ctx.scratch(ny * nx, 0f32);
                for zi in 0..nz {
                    let p0 = zi * astride;
                    let ai_start = ((origin[0] + p0) / astride * acounts[1]
                        + origin[1] / astride)
                        * acounts[2]
                        + origin[2] / astride;
                    ctx.read_span_2d(&anchor_view, ai_start, nx, acounts[2], ny, &mut vals);
                    for yi in 0..ny {
                        for xi in 0..nx {
                            let li = ((p0 * g.ext[1]) + yi * astride) * g.ext[2] + xi * astride;
                            tile.set(li, vals[yi * nx + xi]);
                        }
                    }
                }
            }
            ctx.sync();

            // Stage 3: replay the sweep from codes.
            let mut grid_view = TileGrid::new(&mut tile, g.ext);
            let mut proc = TileDecode {
                quants: &quants,
                codes: &tile_codes,
                outliers: &omap,
                ext: g.ext,
                origin: g.origin,
                shape,
            };
            let flops = interpolate_grid_with(&mut grid_view, rank, astride, cfg, &mut proc).flops;
            drop(grid_view);
            ctx.add_flops(flops);
            for _ in 0..crate::sweep::phase_count(rank, astride) {
                ctx.sync();
            }

            // Stage 4: coalesced stores of the owned reconstruction.
            let mut row = ctx.scratch(g.own[2], 0f32);
            for z in 0..g.own[0] {
                for y in 0..g.own[1] {
                    let gi = shape.index3(g.origin[0] + z, g.origin[1] + y, g.origin[2]);
                    let li = (z * g.ext[1] + y) * g.ext[2];
                    tile.copy_to(li, &mut row);
                    ctx.write_span(&dst, gi, &row);
                }
            }
        })
    };
    (NdArray::from_vec(shape, out), vec![stats])
}

/// Visit every anchor-lattice point inside a tile (local coordinates).
fn for_each_anchor_local(
    ext: [usize; 3],
    origin: [usize; 3],
    stride: usize,
    mut f: impl FnMut([usize; 3]),
) {
    // Block origins are multiples of the chunk extents, which are
    // multiples of the anchor stride on active axes, so local multiples
    // of `stride` are global multiples too. Padded axes have origin 0
    // and extent 1, so the single local 0 is on-lattice.
    debug_assert!(origin.iter().all(|&o| o % stride == 0 || o == 0));
    let mut z = 0;
    while z < ext[0] {
        let mut y = 0;
        while y < ext[1] {
            let mut x = 0;
            while x < ext[2] {
                f([z, y, x]);
                x += stride;
            }
            y += stride;
        }
        z += stride;
    }
}

fn seed_anchors_from(
    tile: &mut SharedTile<f32>,
    ext: [usize; 3],
    origin: [usize; 3],
    stride: usize,
    get: impl Fn(usize) -> f32,
) {
    for_each_anchor_local(ext, origin, stride, |p| {
        let li = (p[0] * ext[1] + p[1]) * ext[2] + p[2];
        tile.set(li, get(li));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::{launch, A100};

    fn smooth_field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |z, y, x| {
            let (z, y, x) = (z as f32, y as f32, x as f32);
            (0.08 * x).sin() + (0.06 * y).cos() + 0.02 * z + 0.001 * x * y / (1.0 + z)
        })
    }

    fn roundtrip(data: &NdArray<f32>, eb: f64, cfg: &InterpConfig) -> NdArray<f32> {
        let out = compress(data, eb, 512, cfg, &A100);
        let (recon, _) = decompress(
            &out.codes,
            &out.anchors,
            &out.outliers,
            data.shape(),
            eb,
            512,
            cfg,
            &A100,
        );
        recon
    }

    fn assert_bounded(a: &NdArray<f32>, b: &NdArray<f32>, eb: f64) {
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                ((x - y).abs() as f64) <= eb * (1.0 + 1e-6),
                "idx {i}: |{x} - {y}| > {eb}"
            );
        }
    }

    #[test]
    fn geometry_interior_and_edge_tiles() {
        let shape = Shape::d3(20, 20, 70);
        let g0 = tile_geom(shape, chunk_for_rank(3), Dim3 { x: 0, y: 0, z: 0 });
        assert_eq!(g0.origin, [0, 0, 0]);
        assert_eq!(g0.ext, [9, 9, 33]);
        assert_eq!(g0.own, [8, 8, 32]);
        // Edge tile along all axes.
        let g = tile_geom(shape, chunk_for_rank(3), Dim3 { x: 2, y: 2, z: 2 });
        assert_eq!(g.origin, [16, 16, 64]);
        assert_eq!(g.ext, [4, 4, 6]);
        assert_eq!(g.own, [4, 4, 6]);
    }

    #[test]
    fn anchor_counts_cover_edges() {
        assert_eq!(anchor_counts(Shape::d3(17, 16, 9), 8), [3, 2, 2]);
        assert_eq!(anchor_counts(Shape::d2(33, 17), 16), [1, 3, 2]);
        assert_eq!(anchor_counts(Shape::d1(1025), 512), [1, 1, 3]);
    }

    #[test]
    fn anchors_are_lossless() {
        let data = smooth_field(Shape::d3(17, 17, 40));
        let (anchors, _) = gather_anchors(&data, &A100);
        assert_eq!(anchors.len(), anchor_len(data.shape(), 8));
        // Spot-check lattice values.
        assert_eq!(anchors[0], data.get3(0, 0, 0));
        let counts = anchor_counts(data.shape(), 8);
        let ai = (counts[1] + 2) * counts[2] + 3;
        assert_eq!(anchors[ai], data.get3(8, 16, 24));
    }

    #[test]
    fn roundtrip_is_error_bounded_3d() {
        let data = smooth_field(Shape::d3(24, 24, 48));
        let eb = 1e-3;
        let recon = roundtrip(&data, eb, &InterpConfig::untuned(3));
        assert_bounded(&data, &recon, eb);
    }

    #[test]
    fn roundtrip_with_alpha_tightens_high_levels() {
        // alpha > 1 must still satisfy the *global* bound everywhere.
        let data = smooth_field(Shape::d3(20, 20, 40));
        let eb = 1e-2;
        let cfg = InterpConfig { alpha: 2.0, ..InterpConfig::untuned(3) };
        let recon = roundtrip(&data, eb, &cfg);
        assert_bounded(&data, &recon, eb);
    }

    #[test]
    fn roundtrip_non_multiple_dims() {
        let data = smooth_field(Shape::d3(11, 13, 37));
        let eb = 1e-3;
        let recon = roundtrip(&data, eb, &InterpConfig::untuned(3));
        assert_bounded(&data, &recon, eb);
    }

    #[test]
    fn roundtrip_2d_and_1d() {
        let d2 = smooth_field(Shape::d2(40, 52));
        let r2 = roundtrip(&d2, 1e-3, &InterpConfig::untuned(2));
        assert_bounded(&d2, &r2, 1e-3);

        let d1 = smooth_field(Shape::d1(1300));
        let r1 = roundtrip(&d1, 1e-3, &InterpConfig::untuned(1));
        assert_bounded(&d1, &r1, 1e-3);
    }

    #[test]
    fn roundtrip_with_tuned_order_and_variants() {
        let data = smooth_field(Shape::d3(16, 24, 40));
        let cfg = InterpConfig {
            alpha: 1.5,
            variants: [
                crate::splines::CubicVariant::Natural,
                crate::splines::CubicVariant::NotAKnot,
                crate::splines::CubicVariant::Natural,
            ],
            order: vec![2, 0, 1],
        };
        let recon = roundtrip(&data, 5e-4, &cfg);
        assert_bounded(&data, &recon, 5e-4);
    }

    #[test]
    fn rough_field_produces_outliers_and_still_roundtrips() {
        // White noise with a tiny bound: most points land out of band.
        let shape = Shape::d3(10, 10, 20);
        let data = NdArray::from_fn(shape, |z, y, x| {
            let h = (z * 7919 + y * 104729 + x * 1299709) % 1000;
            h as f32 - 500.0
        });
        let eb = 1e-4;
        let out = compress(&data, eb, 512, &InterpConfig::untuned(3), &A100);
        assert!(!out.outliers.is_empty(), "noise at tiny eb must overflow the band");
        let (recon, _) = decompress(
            &out.codes, &out.anchors, &out.outliers, shape, eb, 512,
            &InterpConfig::untuned(3), &A100,
        );
        assert_bounded(&data, &recon, eb);
    }

    #[test]
    fn smooth_field_concentrates_codes_at_radius() {
        // The headline property (Fig. 5): an interpolable field yields
        // almost all zero-error codes.
        let data = smooth_field(Shape::d3(24, 24, 48));
        let out = compress(&data, 1e-2, 512, &InterpConfig::untuned(3), &A100);
        let zero_code = out.codes.iter().filter(|&&c| c == 512).count();
        assert!(
            zero_code as f64 / out.codes.len() as f64 > 0.9,
            "only {zero_code}/{} codes at zero-error",
            out.codes.len()
        );
        assert!(out.outliers.is_empty());
    }

    #[test]
    fn code_writes_are_disjoint_across_blocks() {
        // Re-run the compress kernel against a checked view to prove
        // ownership partitioning: every element written exactly once.
        let data = smooth_field(Shape::d3(17, 18, 37));
        let shape = data.shape();
        let chunk = chunk_for_rank(3);
        let mut codes = vec![0u16; shape.len()];
        {
            let dst = GlobalWrite::new_checked(&mut codes);
            let src = GlobalRead::new(data.as_slice());
            launch(&A100, launch_grid(shape, chunk), |ctx| {
                let g = tile_geom(shape, chunk, ctx.block);
                let mut row = vec![0u16; g.own[2]];
                for z in 0..g.own[0] {
                    for y in 0..g.own[1] {
                        let gi = shape.index3(g.origin[0] + z, g.origin[1] + y, g.origin[2]);
                        // Touch the source so the view is exercised too.
                        let mut buf = vec![0f32; g.own[2]];
                        ctx.read_span(&src, gi, &mut buf);
                        for (r, b) in row.iter_mut().zip(&buf) {
                            *r = *b as u16;
                        }
                        ctx.write_span(&dst, gi, &row);
                    }
                }
            });
        }
    }

    #[test]
    fn kernel_stats_show_tiled_traffic() {
        let data = smooth_field(Shape::d3(32, 32, 64));
        let out = compress(&data, 1e-3, 512, &InterpConfig::untuned(3), &A100);
        let interp = &out.kernels[1];
        // The staged design reads each input byte O(1) times from DRAM
        // (tile overlap adds a bounded factor) and routes the sweep's
        // working accesses through shared memory.
        let n_bytes = (data.len() * 4) as u64;
        assert!(interp.load_bytes >= n_bytes, "must at least read the input once");
        assert!(
            interp.load_bytes < 3 * n_bytes,
            "tile overlap should not triple DRAM reads: {} vs {}",
            interp.load_bytes,
            n_bytes
        );
        assert!(interp.shared_bytes > interp.load_bytes, "sweep traffic should hit shared memory");
        assert!(interp.flops > 0);
        assert_eq!(interp.blocks, 4 * 4 * 2);
    }

    #[test]
    fn scalar_and_lane_sweeps_yield_the_same_artifacts_and_kernel_stats() {
        // Compress and decompress with lanes off and on: codes,
        // outliers, anchors, reconstruction *and* the billed counters
        // (FLOPs, shared-memory accesses, barriers, DRAM sectors) must
        // repeat exactly. The field carries NaN and
        // +-inf, so non-finite values and predictions cross every
        // quantize/reconstruct arm; shapes cover interior tiles,
        // clipped edges and the 2-d / 1-d geometries.
        use crate::lanes::SweepPin;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for shape in [Shape::d3(17, 18, 70), Shape::d2(40, 52), Shape::d1(1300)] {
            let cfg = InterpConfig { alpha: 1.5, ..InterpConfig::untuned(shape.rank()) };
            let smooth = smooth_field(shape);
            let data = NdArray::from_fn(shape, |z, y, x| match (z * 131 + y * 31 + x * 7) % 211 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => smooth.get3(z, y, x),
            });
            let run = |scalar: bool| {
                let _pin = SweepPin::scalar(scalar);
                let plain = compress(&data, 1e-3, 512, &cfg, &A100);
                let (recon, dstats) = decompress(
                    &plain.codes, &plain.anchors, &plain.outliers, shape, 1e-3, 512, &cfg, &A100,
                );
                let artifacts = |o: &PredictOutput| {
                    (o.codes.clone(), o.outliers.indices().to_vec(), bits(o.outliers.values()), bits(&o.anchors), o.kernels.clone())
                };
                (artifacts(&plain), bits(recon.as_slice()), dstats)
            };
            let oracle = run(true);
            assert!(!oracle.0 .1.is_empty(), "non-finite values must surface as outliers");
            assert!(run(false) == oracle, "the lane sweep diverges from the scalar one on {shape:?}");
        }
    }

    #[test]
    fn decompression_matches_compressor_reconstruction_exactly() {
        // The decompressor must replay the *identical* f32 state the
        // compressor produced, not merely an error-bounded one. Compare
        // against a second compression of the reconstruction: codes of a
        // fixed point compress to themselves.
        let data = smooth_field(Shape::d3(16, 16, 32));
        let eb = 1e-3;
        let cfg = InterpConfig::untuned(3);
        let out = compress(&data, eb, 512, &cfg, &A100);
        let (recon, _) =
            decompress(&out.codes, &out.anchors, &out.outliers, data.shape(), eb, 512, &cfg, &A100);
        let out2 = compress(&recon, eb, 512, &cfg, &A100);
        let (recon2, _) = decompress(
            &out2.codes, &out2.anchors, &out2.outliers, data.shape(), eb, 512, &cfg, &A100,
        );
        assert_eq!(recon.as_slice(), recon2.as_slice(), "idempotent reconstruction");
    }
}

#[cfg(test)]
mod geometry_tests {
    use super::*;
    use crate::tuning::InterpConfig;
    use cuszi_gpu_sim::A100;

    fn field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |z, y, x| {
            ((x as f32) * 0.07).sin() + ((y as f32) * 0.05).cos() + (z as f32) * 0.01
        })
    }

    #[test]
    fn ablation_geometries_roundtrip_bounded() {
        let data = field(Shape::d3(30, 34, 70));
        let eb = 1e-3;
        let cfg = InterpConfig::untuned(3);
        for stride in [4usize, 8, 16] {
            let geom = Geometry::with_anchor_stride(3, stride);
            let out = compress_with(geom, &data, eb, 512, &cfg, &A100);
            assert_eq!(out.anchors.len(), anchor_len(data.shape(), stride), "stride {stride}");
            let (recon, _) = decompress_with(
                geom, &out.codes, &out.anchors, &out.outliers, data.shape(), eb, 512, &cfg, &A100,
            );
            for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
                assert!(((a - b).abs() as f64) <= eb * (1.0 + 1e-6), "stride {stride}");
            }
        }
    }

    #[test]
    fn smaller_stride_stores_more_anchors_but_fewer_levels() {
        let shape = Shape::d3(32, 32, 64);
        assert!(anchor_len(shape, 4) > 8 * anchor_len(shape, 16) - 1);
        assert_eq!(crate::sweep::level_ladder(4).len(), 2);
        assert_eq!(crate::sweep::level_ladder(16).len(), 4);
    }

    #[test]
    fn default_geometry_matches_paper_constants() {
        let g = Geometry::for_rank(3);
        assert_eq!(g.chunk, [8, 8, 32]);
        assert_eq!(g.anchor_stride, 8);
        assert_eq!(chunk_for_rank(2), [1, 16, 16]);
        assert_eq!(anchor_stride_for_rank(1), 512);
    }

    #[test]
    #[should_panic(expected = "not a multiple of anchor stride")]
    fn mismatched_geometry_rejected() {
        let geom = Geometry { chunk: [8, 8, 30], anchor_stride: 8 };
        let data = field(Shape::d3(8, 8, 8));
        let _ = compress_with(geom, &data, 1e-3, 512, &InterpConfig::untuned(3), &A100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_stride_rejected() {
        let _ = Geometry::with_anchor_stride(3, 6);
    }
}
