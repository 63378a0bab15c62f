//! Per-kernel profile table — the Nsight-style evidence view.
//!
//! Each [`LaunchRecord`] from the substrate becomes (or merges into) a
//! row keyed by kernel name. A row carries the aggregated
//! [`KernelStats`], the roofline [`TimeBreakdown`] decomposition, and
//! the derived Nsight-style columns: simulated time, achieved GB/s
//! against the bandwidth ceiling, coalescing efficiency, DRAM excess
//! (sector-padding waste), occupancy waves, and a bottleneck verdict
//! with its share of the binding ceiling.
//!
//! Everything in a row except host wall time is a pure function of the
//! measured integer counters and device constants, so two runs of the
//! same workload produce byte-identical tables (the determinism test in
//! `tests/` relies on this).

use cuszi_gpu_sim::hook::LaunchRecord;
use cuszi_gpu_sim::timing::{Bottleneck, TimeBreakdown, TimingModel};
use cuszi_gpu_sim::{DeviceSpec, KernelStats};

use crate::metrics::{fmt_f64, json_str};

/// One kernel's aggregated profile.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel name (from `launch_named`).
    pub name: String,
    /// Number of launches merged into this row.
    pub launches: u64,
    /// Launches reported while unwinding (partial stats).
    pub incomplete: u64,
    /// Summed stats across all launches.
    pub stats: KernelStats,
    /// Summed roofline decomposition across all launches.
    pub breakdown: TimeBreakdown,
    /// Summed host wall time (excluded from determinism comparisons).
    pub wall_s: f64,
    /// Device the launches ran on (rows never mix devices).
    pub device: DeviceSpec,
}

impl KernelRow {
    /// Total simulated time, seconds.
    pub fn sim_s(&self) -> f64 {
        self.breakdown.total_s()
    }

    /// Achieved DRAM throughput over simulated time, GB/s.
    pub fn achieved_gbps(&self) -> f64 {
        let t = self.sim_s();
        if t <= 0.0 {
            return 0.0;
        }
        self.stats.dram_bytes() as f64 / t / 1e9
    }

    /// Achieved bandwidth as a fraction of the roofline ceiling.
    pub fn roofline_fraction(&self, model: &TimingModel) -> f64 {
        self.achieved_gbps() * 1e9 / model.mem_ceiling_bytes_per_s()
    }

    /// Bottleneck verdict and its share of the simulated time.
    pub fn verdict(&self) -> (Bottleneck, f64) {
        self.breakdown.verdict()
    }
}

/// The profile table: rows in first-launch order.
#[derive(Default)]
pub struct KernelTable {
    rows: Vec<KernelRow>,
}

impl KernelTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge one launch into the table.
    pub fn record(&mut self, rec: &LaunchRecord<'_>) {
        let model = TimingModel::new(*rec.device);
        let bd = model.breakdown(&rec.stats);
        match self.rows.iter_mut().find(|r| r.name == rec.name) {
            Some(row) => {
                row.launches += 1;
                row.incomplete += u64::from(!rec.completed);
                row.stats.merge(&rec.stats);
                row.breakdown.overhead_s += bd.overhead_s;
                row.breakdown.mem_s += bd.mem_s;
                row.breakdown.compute_s += bd.compute_s;
                row.breakdown.shared_s += bd.shared_s;
                row.breakdown.latency_s += bd.latency_s;
                row.breakdown.waves += bd.waves;
                row.wall_s += rec.wall_s;
            }
            None => self.rows.push(KernelRow {
                name: rec.name.to_string(),
                launches: 1,
                incomplete: u64::from(!rec.completed),
                stats: rec.stats,
                breakdown: bd,
                wall_s: rec.wall_s,
                device: *rec.device,
            }),
        }
    }

    /// The rows, in first-launch order.
    pub fn rows(&self) -> &[KernelRow] {
        &self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Take the rows, leaving the table empty.
    pub fn take(&mut self) -> Vec<KernelRow> {
        std::mem::take(&mut self.rows)
    }

    /// Rebuild a table view over previously drained rows.
    pub fn restore(&mut self, rows: Vec<KernelRow>) {
        self.rows = rows;
    }

    /// Render the Nsight-style text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.rows.is_empty() {
            out.push_str("kernel profile: no launches recorded\n");
            return out;
        }
        let dev = &self.rows[0].device;
        let model = TimingModel::new(*dev);
        out.push_str(&format!(
            "kernel profile — {} (roofline ceiling {:.0} GB/s = {:.0} peak x {:.2} eff)\n",
            dev.name,
            model.mem_ceiling_bytes_per_s() / 1e9,
            dev.mem_bw_gbps,
            model.mem_efficiency,
        ));
        out.push_str(&format!(
            "{:<18} {:>7} {:>10} {:>8} {:>6} {:>8} {:>10} {:>6}  {}\n",
            "kernel", "launch", "sim_ms", "GB/s", "%roof", "coalesce", "excess_KB", "waves", "verdict"
        ));
        let total_sim: f64 = self.rows.iter().map(|r| r.sim_s()).sum();
        for r in &self.rows {
            let model = TimingModel::new(r.device);
            let (verdict, share) = r.verdict();
            let flag = if r.incomplete > 0 { " [partial]" } else { "" };
            out.push_str(&format!(
                "{:<18} {:>7} {:>10.4} {:>8.1} {:>5.1}% {:>8.3} {:>10.1} {:>6.1}  {} ({:.0}% of time){}\n",
                r.name,
                r.launches,
                r.sim_s() * 1e3,
                r.achieved_gbps(),
                r.roofline_fraction(&model) * 100.0,
                r.stats.coalescing_efficiency(),
                r.stats.dram_excess_bytes() as f64 / 1024.0,
                r.breakdown.waves / r.launches as f64,
                verdict.label(),
                share * 100.0,
                flag,
            ));
        }
        out.push_str(&format!(
            "total simulated {:.4} ms across {} kernels\n",
            total_sim * 1e3,
            self.rows.len()
        ));
        out
    }

    /// Render the table as a JSON array (for `profile_<n>.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let model = TimingModel::new(r.device);
            let (verdict, share) = r.verdict();
            out.push_str(&format!(
                concat!(
                    "\n  {{\"name\": {}, \"launches\": {}, \"incomplete\": {}, ",
                    "\"device\": {}, \"blocks\": {}, \"dram_bytes\": {}, ",
                    "\"useful_bytes\": {}, \"dram_excess_bytes\": {}, \"flops\": {}, ",
                    "\"shared_bytes\": {}, \"barriers\": {}, ",
                    "\"sim_ms\": {}, \"wall_ms\": {}, \"achieved_gbps\": {}, ",
                    "\"roofline_fraction\": {}, \"coalescing_efficiency\": {}, ",
                    "\"waves\": {}, \"verdict\": {}, \"verdict_share\": {}, ",
                    "\"breakdown_ms\": {{\"overhead\": {}, \"mem\": {}, \"compute\": {}, ",
                    "\"shared\": {}, \"latency\": {}}}}}"
                ),
                json_str(&r.name),
                r.launches,
                r.incomplete,
                json_str(r.device.name),
                r.stats.blocks,
                r.stats.dram_bytes(),
                r.stats.useful_bytes(),
                r.stats.dram_excess_bytes(),
                r.stats.flops,
                r.stats.shared_bytes,
                r.stats.barriers,
                fmt_f64(r.sim_s() * 1e3),
                fmt_f64(r.wall_s * 1e3),
                fmt_f64(r.achieved_gbps()),
                fmt_f64(r.roofline_fraction(&model)),
                fmt_f64(r.stats.coalescing_efficiency()),
                fmt_f64(r.breakdown.waves),
                json_str(verdict.label()),
                fmt_f64(share),
                fmt_f64(r.breakdown.overhead_s * 1e3),
                fmt_f64(r.breakdown.mem_s * 1e3),
                fmt_f64(r.breakdown.compute_s * 1e3),
                fmt_f64(r.breakdown.shared_s * 1e3),
                fmt_f64(r.breakdown.latency_s * 1e3),
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_gpu_sim::exec::Grid;
    use cuszi_gpu_sim::A100;

    fn rec<'a>(name: &'a str, stats: KernelStats, completed: bool) -> LaunchRecord<'a> {
        LaunchRecord {
            name,
            grid: Grid::linear(stats.blocks.max(1) as u32, 32),
            device: &A100,
            stats,
            wall_s: 0.001,
            completed,
            stream: None,
            device_id: 0,
        }
    }

    fn stream(bytes: u64) -> KernelStats {
        KernelStats {
            load_sectors: bytes / 64,
            store_sectors: bytes / 64,
            load_bytes: bytes / 2,
            store_bytes: bytes / 2,
            flops: bytes / 4,
            blocks: 1024,
            ..Default::default()
        }
    }

    #[test]
    fn launches_merge_by_name_in_first_seen_order() {
        let mut t = KernelTable::new();
        t.record(&rec("b", stream(1 << 20), true));
        t.record(&rec("a", stream(1 << 20), true));
        t.record(&rec("b", stream(1 << 20), true));
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[0].name, "b");
        assert_eq!(t.rows()[0].launches, 2);
        assert_eq!(t.rows()[0].stats.blocks, 2048);
        assert_eq!(t.rows()[1].name, "a");
    }

    #[test]
    fn derived_columns_match_the_model() {
        let mut t = KernelTable::new();
        let stats = stream(1 << 26);
        t.record(&rec("k", stats, true));
        let r = &t.rows()[0];
        let model = TimingModel::new(A100);
        assert_eq!(r.sim_s(), model.kernel_time(&stats));
        let (v, share) = r.verdict();
        assert_eq!(v, Bottleneck::Memory);
        assert!(share > 0.5);
        assert!(r.roofline_fraction(&model) <= 1.0 + 1e-9);
        assert_eq!(r.stats.dram_excess_bytes(), 0);
    }

    #[test]
    fn incomplete_launches_are_flagged() {
        let mut t = KernelTable::new();
        t.record(&rec("k", stream(1 << 20), false));
        assert_eq!(t.rows()[0].incomplete, 1);
        assert!(t.render().contains("[partial]"));
    }

    #[test]
    fn report_and_json_are_well_formed() {
        let mut t = KernelTable::new();
        t.record(&rec("g-interp", stream(1 << 24), true));
        t.record(&rec("histogram", stream(1 << 20), true));
        let text = t.render();
        assert!(text.contains("g-interp"));
        assert!(text.contains("memory-bound") || text.contains("launch-bound"));
        let json = t.to_json();
        let v = crate::minjson::parse(&json).expect("valid json");
        let rows = v.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            for key in [
                "name",
                "launches",
                "dram_bytes",
                "dram_excess_bytes",
                "sim_ms",
                "achieved_gbps",
                "roofline_fraction",
                "coalescing_efficiency",
                "waves",
                "verdict",
                "verdict_share",
                "breakdown_ms",
            ] {
                assert!(row.get(key).is_some(), "missing key {key}");
            }
        }
    }
}
