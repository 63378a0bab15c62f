//! The four container operations — batch fields and z-slabs, compress
//! and decompress — each written once against a [`ShardPlan`] of M
//! simulated GPUs × N streams; the `*_streams` entry points in
//! [`crate::batch`] and [`crate::stream`] are its one-device plans.
//!
//! Each operation is one [`crate::sched::execute`] run: shard `i`
//! lands on device `i % M`, and finished shards *gather* to device 0 at
//! the modelled cost of the plan's [`cuszi_transfer::Topology`] link —
//! the "compress where, ship what" accounting of the paper's § VII-C.5
//! case study, applied intra-node. Assembly is by shard index, so the
//! bytes are identical at any plan. Each device owns an independent
//! fault domain (`CUSZI_FAULT=dev<N>:...`): a poisoned device fails only
//! its own shards, with device-attributed errors. A
//! [`cuszi_quant::ErrorBound::Rel`] bound resolves per shard (each field
//! / each slab); see docs/SHARDING.md.

use cuszi_tensor::{NdArray, Shape};
use cuszi_transfer::LinkClass;

use crate::batch::{Container, DecodedFields, NamedField};
use crate::config::Config;
use crate::error::CuszError;
use crate::pipeline::CuszI;
use crate::sched::{execute, ScheduleReport};
use crate::stream::SlabGeometry;

/// The execution plan: device count, per-device stream count, and the
/// link class every device uses to gather archives to device 0.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlan {
    /// Simulated devices (1..=[`cuszi_gpu_sim::MAX_DEVICES`]).
    pub devices: usize,
    /// gpu-sim streams per device.
    pub streams_per_device: usize,
    /// Link class pricing the archive gathers to device 0.
    pub link: LinkClass,
}

impl ShardPlan {
    /// `devices` devices, [`crate::sched::default_streams`] streams
    /// each, NVLink-class gathers (the homogeneous-node default).
    pub fn new(devices: usize) -> Self {
        ShardPlan {
            devices,
            streams_per_device: crate::sched::default_streams(),
            link: LinkClass::NvLink,
        }
    }

    /// Override the per-device stream count.
    pub fn streams(mut self, n: usize) -> Self {
        self.streams_per_device = n.max(1);
        self
    }

    /// Override the gather link class.
    pub fn link(mut self, link: LinkClass) -> Self {
        self.link = link;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), CuszError> {
        if self.devices == 0 || self.devices > cuszi_gpu_sim::MAX_DEVICES {
            return Err(CuszError::InvalidConfig("device count out of range"));
        }
        Ok(())
    }
}

/// One device's slice of a sharded run.
#[derive(Clone, Debug)]
pub struct DeviceShardReport {
    /// Device id (also its fault-domain index).
    pub device: usize,
    /// Shards run on this device.
    pub jobs: usize,
    /// The device's stream clocks; its busy time is
    /// `schedule.sim_elapsed_ns()`.
    pub schedule: ScheduleReport,
    /// Output bytes this device produced (what it ships to device 0).
    pub archive_bytes: u64,
    /// Modelled time to gather those bytes to device 0 over the
    /// plan's link, ns (zero for device 0 itself).
    pub transfer_ns: u64,
}

/// Scheduling evidence of one run: per-device clocks and gather costs.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Devices the run was sharded over.
    pub devices: usize,
    /// Streams per device.
    pub streams_per_device: usize,
    /// One entry per device, in id order (idle devices report 0 jobs).
    pub per_device: Vec<DeviceShardReport>,
}

impl ShardReport {
    /// Simulated makespan: the slowest device's compute + gather.
    pub fn sim_elapsed_ns(&self) -> u64 {
        self.per_device
            .iter()
            .map(|d| d.schedule.sim_elapsed_ns() + d.transfer_ns)
            .max()
            .unwrap_or(0)
    }

    /// Simulated cost of the same work on one device (no gathers —
    /// the archives would already be local).
    pub fn sim_serial_ns(&self) -> u64 {
        self.per_device.iter().map(|d| d.schedule.sim_elapsed_ns()).sum()
    }

    /// Total modelled transfer time across all gathers, ns.
    pub fn transfer_ns(&self) -> u64 {
        self.per_device.iter().map(|d| d.transfer_ns).sum()
    }

    /// Multi-device win in simulated time: serial / elapsed (1.0 =
    /// none). A slow link can push this below the device count.
    pub fn sim_speedup(&self) -> f64 {
        let elapsed = self.sim_elapsed_ns();
        if elapsed == 0 {
            return 1.0;
        }
        self.sim_serial_ns() as f64 / elapsed as f64
    }

    /// The schedule of a one-device run (what `*_streams` returns).
    pub(crate) fn into_schedule(mut self) -> ScheduleReport {
        self.per_device.swap_remove(0).schedule
    }
}

/// Compress named fields into a CSZM container. Overlap hides each
/// field's host-serial stages (tuning, CPU codebook, assembly) behind
/// its siblings' kernels; the bytes are identical at any plan.
pub fn compress_fields_sharded(
    fields: &[NamedField<'_>],
    cfg: Config,
    plan: ShardPlan,
) -> Result<(Container, ShardReport), CuszError> {
    let mut container = Container::begin(fields)?;
    let codec = CuszI::new(cfg);
    let _span = cuszi_profile::span("batch", cuszi_profile::Category::Batch);
    let report = execute(
        &plan,
        fields.len(),
        |i| &fields[i],
        |f| {
            let _g = cuszi_profile::span(f.name, cuszi_profile::Category::Batch);
            codec.compress(f.data)
        },
        |c| c.bytes.len() as u64,
        |i, c| {
            container.push(&fields[i], &c?.bytes);
            Ok(())
        },
    )?;
    Ok((container, report))
}

/// Compress a 3-d field slab-by-slab into a CSZS stream.
/// `produce(z0, nz)` returns the `nz x ny x nx` slab at plane `z0`; it
/// runs on the host thread in ascending `z0` order, at most
/// `devices × streams` slabs ahead of the writer, so memory stays
/// bounded. The bytes are identical at any plan. A
/// [`cuszi_quant::ErrorBound::Rel`] bound resolves against each slab's
/// value range (narrow slabs get a *tighter* bound); pass an absolute
/// bound for a uniform guarantee.
pub fn compress_slabs_sharded(
    shape: Shape,
    slab_z: usize,
    cfg: Config,
    plan: ShardPlan,
    mut produce: impl FnMut(usize, usize) -> NdArray<f32>,
) -> Result<(Vec<u8>, ShardReport), CuszError> {
    let geo = SlabGeometry::new(shape, slab_z)?;
    let mut out = geo.header();
    let codec = CuszI::new(cfg);
    let _span = cuszi_profile::span("slabs", cuszi_profile::Category::Stream);
    let report = execute(
        &plan,
        geo.nslabs,
        |s| {
            let (z0, want) = geo.slab(s);
            let slab = produce(z0, want.dims3()[0]);
            let wrong = CuszError::InvalidConfig("produced slab has the wrong shape");
            (z0, (slab.shape() == want).then_some(slab).ok_or(wrong))
        },
        |(z0, slab)| {
            let _g = cuszi_profile::span_with("slab", cuszi_profile::Category::Stream, z0 as u64);
            codec.compress(&slab?).map(|c| c.bytes)
        },
        |archive| archive.len() as u64,
        |_, archive| {
            crate::stream::push_slab(&mut out, &archive?);
            Ok(())
        },
    )?;
    Ok((out, report))
}

/// Decompress a CSZM container into `(name, field)` pairs, identical
/// at any plan. Gathers ship the *raw* field bytes — decompression
/// inverts the "compress where, ship what" economics.
pub fn decompress_fields_sharded(
    bytes: &[u8],
    cfg: Config,
    plan: ShardPlan,
) -> Result<(DecodedFields, ShardReport), CuszError> {
    let entries = crate::batch::parse_container(bytes)?;
    let codec = CuszI::new(cfg);
    let _span = cuszi_profile::span("batch", cuszi_profile::Category::Batch);
    let mut fields = Vec::with_capacity(entries.len());
    let report = execute(
        &plan,
        entries.len(),
        |i| &entries[i],
        |(name, archive)| {
            let _g = cuszi_profile::span(name, cuszi_profile::Category::Batch);
            codec.decompress(archive).map(|d| d.data)
        },
        |d| (d.len() * 4) as u64,
        |i, d| {
            fields.push((entries[i].0.clone(), d?));
            Ok(())
        },
    )?;
    Ok((fields, report))
}

/// Decompress a CSZS stream, handing slabs to `consume(z0, slab)` in
/// ascending `z` order as each one's turn comes, so at most
/// `devices × streams` decoded slabs are live. Returns the field shape;
/// output is identical at any plan.
pub fn decompress_slabs_sharded(
    bytes: &[u8],
    cfg: Config,
    plan: ShardPlan,
    mut consume: impl FnMut(usize, NdArray<f32>),
) -> Result<(Shape, ShardReport), CuszError> {
    let (geo, entries) = crate::stream::parse_slab_container(bytes)?;
    let codec = CuszI::new(cfg);
    let _span = cuszi_profile::span("slabs", cuszi_profile::Category::Stream);
    let report = execute(
        &plan,
        entries.len(),
        |s| (geo.slab(s).0, &bytes[entries[s].clone()]),
        |(z0, archive)| {
            let _g = cuszi_profile::span_with("slab", cuszi_profile::Category::Stream, z0 as u64);
            codec.decompress(archive).map(|d| d.data)
        },
        |d| (d.len() * 4) as u64,
        |s, slab| {
            let (slab, (z0, want)) = (slab?, geo.slab(s));
            if slab.shape() != want {
                return Err(CuszError::CorruptArchive("slab shape mismatch"));
            }
            consume(z0, slab);
            Ok(())
        },
    )?;
    Ok((geo.shape, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_quant::ErrorBound;

    fn fields() -> Vec<(String, NdArray<f32>)> {
        (0..5)
            .map(|i| {
                (
                    format!("field-{i}"),
                    NdArray::from_fn(Shape::d3(14, 12, 10), move |z, y, x| {
                        ((x + 2 * y + 3 * z + i) as f32 * 0.07).sin() + i as f32 * 0.1
                    }),
                )
            })
            .collect()
    }

    fn named(fs: &[(String, NdArray<f32>)]) -> Vec<NamedField<'_>> {
        fs.iter().map(|(n, d)| NamedField { name: n, data: d }).collect()
    }

    #[test]
    fn report_accounts_transfers_and_speedup() {
        let fs = fields();
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let plan = ShardPlan::new(4).streams(1).link(LinkClass::NvLink);
        let (nvlink, report) = compress_fields_sharded(&named(&fs), cfg, plan).unwrap();
        let jobs: Vec<usize> = report.per_device.iter().map(|d| d.jobs).collect();
        assert_eq!(jobs, vec![2, 1, 1, 1]);
        assert_eq!(report.per_device[0].transfer_ns, 0, "device 0 gathers locally");
        for d in &report.per_device[1..] {
            assert!(d.archive_bytes > 0 && d.transfer_ns > 0, "device {} ships", d.device);
        }
        assert!(report.sim_serial_ns() >= report.sim_elapsed_ns() - report.transfer_ns());
        assert!(
            report.sim_speedup() > 1.0,
            "4 devices on 5 fields must overlap: {:.2}",
            report.sim_speedup()
        );
        // A WAN gather dwarfs compute and erases the win.
        let wan = ShardPlan::new(4).streams(1).link(LinkClass::Wan);
        let (wan_container, wan_report) = compress_fields_sharded(&named(&fs), cfg, wan).unwrap();
        assert!(wan_report.transfer_ns() > report.transfer_ns());
        // The link class prices the gather; it never changes the archive.
        assert_eq!(wan_container.bytes, nvlink.bytes, "archive bytes depend on the link");
    }

    #[test]
    fn invalid_plans_rejected() {
        let fs = fields();
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        for devices in [0, cuszi_gpu_sim::MAX_DEVICES + 1] {
            let plan = ShardPlan { devices, streams_per_device: 1, link: LinkClass::NvLink };
            assert!(compress_fields_sharded(&named(&fs), cfg, plan).is_err());
        }
    }

    #[test]
    fn empty_batch_shards_fine() {
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let (c, report) = compress_fields_sharded(&[], cfg, ShardPlan::new(2)).unwrap();
        let (back, _) = decompress_fields_sharded(&c.bytes, cfg, ShardPlan::new(1)).unwrap();
        assert!(back.is_empty());
        assert_eq!(report.sim_speedup(), 1.0);
    }

    #[test]
    fn sharded_compress_refuses_a_radius_past_shared_memory() {
        let fs = fields();
        let cfg = Config::new(ErrorBound::Rel(1e-3)).with_radius(32767);
        let err = compress_fields_sharded(&named(&fs), cfg, ShardPlan::new(2)).unwrap_err();
        assert!(matches!(err, CuszError::InvalidConfig(_)), "{err:?}");
    }
}
