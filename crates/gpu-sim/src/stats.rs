//! Per-kernel execution statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated while a kernel executes.
///
/// Global-memory traffic is counted in 32-byte *sectors* (the DRAM
/// transaction granularity on NVIDIA hardware): a fully coalesced warp
/// access of 32 consecutive `f32` touches 4 sectors; a strided gather can
/// touch up to 32. The timing model charges `sectors x 32` bytes against
/// the device bandwidth, so uncoalesced access patterns are automatically
/// penalised — exactly the effect § V-D works to avoid with its staged
/// tile loads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// 32-byte sectors read from global memory.
    pub load_sectors: u64,
    /// 32-byte sectors written to global memory.
    pub store_sectors: u64,
    /// Useful bytes read (ignoring sector padding).
    pub load_bytes: u64,
    /// Useful bytes written (ignoring sector padding).
    pub store_bytes: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Bytes moved through shared memory (loads + stores).
    pub shared_bytes: u64,
    /// `__syncthreads()`-equivalent barriers executed (per block, summed).
    pub barriers: u64,
    /// Thread blocks executed.
    pub blocks: u64,
}

/// Size of one DRAM sector in bytes.
pub const SECTOR_BYTES: u64 = 32;

impl KernelStats {
    /// Total DRAM bytes actually transacted (sector-padded).
    pub fn dram_bytes(&self) -> u64 {
        (self.load_sectors + self.store_sectors) * SECTOR_BYTES
    }

    /// Useful bytes moved (sum of load and store payloads).
    pub fn useful_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes
    }

    /// Fraction of transacted DRAM bytes that were useful (1.0 = perfectly
    /// coalesced). Returns 1.0 for a kernel with no traffic.
    pub fn coalescing_efficiency(&self) -> f64 {
        let dram = self.dram_bytes();
        if dram == 0 {
            return 1.0;
        }
        self.useful_bytes() as f64 / dram as f64
    }

    /// DRAM bytes transacted but never used (sector padding waste).
    ///
    /// This is the absolute counterpart of [`Self::coalescing_efficiency`]:
    /// an uncoalesced kernel touching few bytes can have a terrible
    /// efficiency ratio yet waste almost nothing, while a heavy kernel at
    /// 0.9 efficiency wastes gigabytes. Ranking kernels by excess bytes
    /// points at the launches worth restructuring (§ V-D staged loads).
    pub fn dram_excess_bytes(&self) -> u64 {
        self.dram_bytes().saturating_sub(self.useful_bytes())
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.load_sectors += other.load_sectors;
        self.store_sectors += other.store_sectors;
        self.load_bytes += other.load_bytes;
        self.store_bytes += other.store_bytes;
        self.flops += other.flops;
        self.shared_bytes += other.shared_bytes;
        self.barriers += other.barriers;
        self.blocks += other.blocks;
    }

    /// Combine two records (for worker-thread reductions).
    pub fn merged(mut self, other: KernelStats) -> KernelStats {
        self.merge(&other);
        self
    }
}

/// Shared launch-wide stats accumulator.
///
/// Each launch worker sums its [`crate::BlockCtx`]s' counters privately
/// and flushes the total here once, when it drops — including on
/// panic/unwind paths, so a profiler observing a launch never
/// under-counts traffic from blocks that did run. Addition
/// of integer counters is exact and commutative, so the final snapshot
/// is identical for any worker-thread count or scheduling order.
#[derive(Debug, Default)]
pub struct AtomicKernelStats {
    load_sectors: AtomicU64,
    store_sectors: AtomicU64,
    load_bytes: AtomicU64,
    store_bytes: AtomicU64,
    flops: AtomicU64,
    shared_bytes: AtomicU64,
    barriers: AtomicU64,
    blocks: AtomicU64,
}

impl AtomicKernelStats {
    /// Merge one block's counters into the launch total.
    pub fn add(&self, s: &KernelStats) {
        self.load_sectors.fetch_add(s.load_sectors, Ordering::Relaxed);
        self.store_sectors.fetch_add(s.store_sectors, Ordering::Relaxed);
        self.load_bytes.fetch_add(s.load_bytes, Ordering::Relaxed);
        self.store_bytes.fetch_add(s.store_bytes, Ordering::Relaxed);
        self.flops.fetch_add(s.flops, Ordering::Relaxed);
        self.shared_bytes.fetch_add(s.shared_bytes, Ordering::Relaxed);
        self.barriers.fetch_add(s.barriers, Ordering::Relaxed);
        self.blocks.fetch_add(s.blocks, Ordering::Relaxed);
    }

    /// Read the current totals. Exact once the contributing workers have
    /// been joined (the launch joins before snapshotting).
    pub fn snapshot(&self) -> KernelStats {
        KernelStats {
            load_sectors: self.load_sectors.load(Ordering::Relaxed),
            store_sectors: self.store_sectors.load(Ordering::Relaxed),
            load_bytes: self.load_bytes.load(Ordering::Relaxed),
            store_bytes: self.store_bytes.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
            shared_bytes: self.shared_bytes.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_bytes_counts_sectors() {
        let s = KernelStats { load_sectors: 3, store_sectors: 1, ..Default::default() };
        assert_eq!(s.dram_bytes(), 128);
    }

    #[test]
    fn coalescing_efficiency_bounds() {
        let perfect = KernelStats {
            load_sectors: 4,
            load_bytes: 128,
            ..Default::default()
        };
        assert_eq!(perfect.coalescing_efficiency(), 1.0);

        let scattered = KernelStats {
            load_sectors: 32,
            load_bytes: 128,
            ..Default::default()
        };
        assert_eq!(scattered.coalescing_efficiency(), 0.125);

        assert_eq!(KernelStats::default().coalescing_efficiency(), 1.0);
    }

    #[test]
    fn merge_adds_everything() {
        let a = KernelStats {
            load_sectors: 1,
            store_sectors: 2,
            load_bytes: 3,
            store_bytes: 4,
            flops: 5,
            shared_bytes: 6,
            barriers: 7,
            blocks: 8,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.load_sectors, 2);
        assert_eq!(b.blocks, 16);
        assert_eq!(a.merged(a), b);
    }
}
