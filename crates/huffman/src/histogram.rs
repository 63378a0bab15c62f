//! Privatized GPU histogram with top-k register caching (§ VI-A).

use std::sync::atomic::AtomicU32;

use cuszi_gpu_sim::{launch_named, DeviceSpec, GlobalRead, Grid, KernelStats};
use cuszi_gpu_sim::exec::GlobalAtomicU32;

/// Elements processed per thread block.
pub const HIST_CHUNK: usize = 1 << 16;

/// Shared memory one histogram block takes for an `alphabet`-bin
/// histogram: its block-private `u32` bins. Callers check it against
/// the device's `shared_mem_per_block` before launching.
pub fn histogram_shared_bytes(alphabet: usize) -> usize {
    alphabet * std::mem::size_of::<u32>()
}

/// Build the quant-code histogram.
///
/// Each block tallies its chunk into a block-private (shared-memory)
/// histogram and merges it into the global one with atomics — the
/// classic privatized scheme. `topk > 0` enables the cuSZ-i register
/// cache: the `topk` bins centred on `center` (the zero-error code) are
/// counted in registers, paying no shared-memory read-modify-write; the
/// paper's graceful-degradation fallback is `topk = 1`.
///
/// Returns the counts and the kernel stats (whose `shared_bytes` is what
/// the top-k ablation measures).
pub fn histogram_gpu(
    codes: &[u16],
    alphabet: usize,
    center: u16,
    topk: usize,
    device: &DeviceSpec,
) -> (Vec<u32>, KernelStats) {
    assert!(alphabet > 0 && alphabet <= u16::MAX as usize + 1, "alphabet must fit u16");
    let global: Vec<AtomicU32> = (0..alphabet).map(|_| AtomicU32::new(0)).collect();
    let nblocks = codes.len().div_ceil(HIST_CHUNK).max(1) as u32;

    let lo = (center as usize).saturating_sub(topk / 2);
    let hi = (lo + topk).min(alphabet);

    let stats = {
        let src = GlobalRead::new(codes);
        let gview = GlobalAtomicU32::new(&global);
        launch_named(device, Grid::linear(nblocks, 256), "histogram", |ctx| {
            let b = ctx.block_linear() as usize;
            let start = b * HIST_CHUNK;
            let end = (start + HIST_CHUNK).min(codes.len());
            if start >= end {
                return;
            }
            let mut buf = ctx.scratch(end - start, 0u16);
            ctx.read_span(&src, start, &mut buf);

            // Four interleaved tallies, `tally[4 * code + lane]`: runs of
            // one code bump four different counters, so consecutive
            // increments do not wait on each other.
            let mut tally = ctx.scratch(4 * alphabet, 0u32);
            let mut quads = buf.chunks_exact(4);
            for q in &mut quads {
                tally[4 * q[0] as usize] += 1;
                tally[4 * q[1] as usize + 1] += 1;
                tally[4 * q[2] as usize + 2] += 1;
                tally[4 * q[3] as usize + 3] += 1;
            }
            for &c in quads.remainder() {
                tally[4 * c as usize] += 1;
            }

            // Thread-private register bins for the hot centre, and the
            // shared-memory private histogram for the rest. Register
            // traffic is free; each out-of-band code is one shared
            // read-modify-write, billed in bulk.
            let mut reg = ctx.scratch(hi - lo, 0u32);
            let mut shared = ctx.alloc_shared::<u32>(alphabet);
            let mut out_of_band = 0u64;
            for (s, t) in tally.chunks_exact(4).enumerate() {
                let v = t[0] + t[1] + t[2] + t[3];
                if (lo..hi).contains(&s) {
                    reg[s - lo] = v;
                } else {
                    shared.set_untracked(s, v);
                    out_of_band += v as u64;
                }
            }
            shared.add_accesses(2 * out_of_band);
            ctx.sync();

            // Merge: registers first, then the shared histogram's
            // non-zero bins, into the global atomics. The whole merge
            // goes out as one warp-grouped batch so neighbouring bins
            // coalesce into shared 32-byte sectors instead of paying a
            // full transaction per atomic.
            let mut idxs = ctx.scratch((hi - lo) + alphabet, 0usize);
            let mut vals = ctx.scratch((hi - lo) + alphabet, 0u32);
            let mut m = 0usize;
            for (i, &v) in reg.iter().enumerate() {
                if v > 0 {
                    idxs[m] = lo + i;
                    vals[m] = v;
                    m += 1;
                }
            }
            for s in 0..alphabet {
                let v = shared.get(s);
                if v > 0 {
                    idxs[m] = s;
                    vals[m] = v;
                    m += 1;
                }
            }
            ctx.atomic_add_warp(&gview, &idxs[..m], &vals[..m]);
        })
    };

    (global.into_iter().map(|a| a.into_inner()).collect(), stats)
}

/// Reference sequential histogram (for verification).
pub fn histogram_reference(codes: &[u16], alphabet: usize) -> Vec<u32> {
    let mut h = vec![0u32; alphabet];
    for &c in codes {
        h[c as usize] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::A100;

    fn codes(n: usize) -> Vec<u16> {
        (0..n).map(|i| ((i * i + 7 * i) % 1024) as u16).collect()
    }

    #[test]
    fn matches_reference_exactly() {
        let c = codes(200_000);
        let (h, _) = histogram_gpu(&c, 1024, 512, 32, &A100);
        assert_eq!(h, histogram_reference(&c, 1024));
    }

    #[test]
    fn topk_zero_also_matches() {
        let c = codes(70_000);
        let (h, _) = histogram_gpu(&c, 1024, 512, 0, &A100);
        assert_eq!(h, histogram_reference(&c, 1024));
    }

    #[test]
    fn empty_input_yields_zero_counts() {
        let (h, stats) = histogram_gpu(&[], 16, 8, 4, &A100);
        assert!(h.iter().all(|&v| v == 0));
        assert_eq!(stats.blocks, 1);
    }

    #[test]
    fn centralized_codes_with_topk_cut_shared_traffic() {
        // A G-Interp-like distribution: 99% of codes at the centre.
        let n = 1 << 18;
        let c: Vec<u16> = (0..n)
            .map(|i| if i % 100 == 0 { (500 + i % 24) as u16 } else { 512 })
            .collect();
        let (h1, s_no) = histogram_gpu(&c, 1024, 512, 0, &A100);
        let (h2, s_k) = histogram_gpu(&c, 1024, 512, 32, &A100);
        assert_eq!(h1, h2);
        assert!(
            s_k.shared_bytes * 4 < s_no.shared_bytes,
            "top-k should cut shared traffic: {} vs {}",
            s_k.shared_bytes,
            s_no.shared_bytes
        );
    }

    #[test]
    fn counts_and_accounting_are_pinned_inside_and_outside_the_band() {
        // Three blocks, the last partial; a third of the codes spread
        // over the whole alphabet, the rest in [496, 528).
        let c: Vec<u16> = (0..150_000usize)
            .map(|i| if i % 3 == 0 { (i * 7 % 1024) as u16 } else { (496 + i % 32) as u16 })
            .collect();
        let shared = |in_band: u64| {
            let out_of_band = c.len() as u64 - in_band;
            // One shared read-modify-write per out-of-band code, then the
            // merge reads all 1024 shared bins once per block.
            (2 * out_of_band + 3 * 1024) * 4
        };
        for (topk, store_sectors, shared_bytes) in [(1, 435, 1_186_896), (32, 384, 399_792)] {
            let (h, stats) = histogram_gpu(&c, 1024, 512, topk, &A100);
            assert_eq!(h, histogram_reference(&c, 1024));
            let lo = 512 - topk / 2;
            let in_band: u64 = h[lo..lo + topk].iter().map(|&v| v as u64).sum();
            assert_eq!(shared(in_band), shared_bytes);
            let want = KernelStats {
                load_sectors: 9375,
                store_sectors,
                load_bytes: 300_000,
                store_bytes: 12_288,
                flops: 0,
                shared_bytes,
                barriers: 3,
                blocks: 3,
            };
            assert_eq!(stats, want, "topk {topk}");
        }
    }

    #[test]
    fn topk_window_clamps_at_alphabet_edges() {
        let c = vec![0u16, 1, 15, 15, 15];
        let (h, _) = histogram_gpu(&c, 16, 0, 8, &A100);
        assert_eq!(h, histogram_reference(&c, 16));
    }

    #[test]
    fn shared_bytes_bound_the_largest_launchable_alphabet() {
        // 2·20,992 u32 bins fill the A100's 164 KiB block exactly.
        let alphabet = 2 * 20_992;
        assert_eq!(histogram_shared_bytes(alphabet), A100.shared_mem_per_block as usize);
        let c = codes(10_000);
        let (h, _) = histogram_gpu(&c, alphabet, 20_992, 32, &A100);
        assert_eq!(h, histogram_reference(&c, alphabet));
    }
}
