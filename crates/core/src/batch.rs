//! Multi-field containers: compress a whole dataset (several named
//! fields) into one self-describing archive.
//!
//! The paper's datasets are multi-file (Table II: 3-37 files each) and
//! its Table III ratios aggregate over them; this module provides that
//! workflow as an API. Container format:
//!
//! ```text
//! magic "CSZM" | u32 field count |
//! per field: [u16 name len][name utf-8][u64 archive len][archive]
//! ```

use cuszi_tensor::NdArray;

use crate::config::Config;
use crate::error::CuszError;
use crate::sched::ScheduleReport;
use crate::shard::{compress_fields_sharded, decompress_fields_sharded, ShardPlan};

const MAGIC: &[u8; 4] = b"CSZM";

/// A named field to compress.
pub struct NamedField<'a> {
    pub name: &'a str,
    pub data: &'a NdArray<f32>,
}

/// Per-field result inside a [`compress_fields_streams`] container.
#[derive(Clone, Debug)]
pub struct FieldSummary {
    pub name: String,
    pub input_bytes: u64,
    pub archive_bytes: u64,
}

/// A compressed multi-field container.
#[derive(Clone, Debug)]
pub struct Container {
    pub bytes: Vec<u8>,
    pub fields: Vec<FieldSummary>,
}

impl Container {
    /// Aggregate compression ratio over all fields (Table III's
    /// convention).
    pub fn aggregate_cr(&self) -> f64 {
        let inp: u64 = self.fields.iter().map(|f| f.input_bytes).sum();
        let out: u64 = self.fields.iter().map(|f| f.archive_bytes).sum();
        if out == 0 {
            f64::INFINITY
        } else {
            inp as f64 / out as f64
        }
    }

    /// Start a CSZM container for `fields`: magic and entry count.
    pub(crate) fn begin(fields: &[NamedField<'_>]) -> Result<Self, CuszError> {
        if fields.iter().any(|f| f.name.len() > u16::MAX as usize) {
            return Err(CuszError::InvalidConfig("field name too long"));
        }
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(fields.len() as u32).to_le_bytes());
        Ok(Container { bytes, fields: Vec::with_capacity(fields.len()) })
    }

    /// Append one field's entry.
    pub(crate) fn push(&mut self, f: &NamedField<'_>, archive: &[u8]) {
        self.bytes.extend_from_slice(&(f.name.len() as u16).to_le_bytes());
        self.bytes.extend_from_slice(f.name.as_bytes());
        crate::wire::put_entry(&mut self.bytes, archive);
        self.fields.push(FieldSummary {
            name: f.name.to_string(),
            input_bytes: (f.data.len() * 4) as u64,
            archive_bytes: archive.len() as u64,
        });
    }
}

/// [`crate::shard::compress_fields_sharded`] on `n_streams` streams of
/// one device (field `i` on stream `i % n_streams`).
pub fn compress_fields_streams(
    fields: &[NamedField<'_>],
    cfg: Config,
    n_streams: usize,
) -> Result<(Container, ScheduleReport), CuszError> {
    let plan = ShardPlan::new(1).streams(n_streams);
    compress_fields_sharded(fields, cfg, plan).map(|(c, r)| (c, r.into_schedule()))
}

/// Walk a container's entry table, returning each field's name and
/// archive slice. Offsets are checked (see `wire::entry`), so a
/// crafted length surfaces as [`CuszError::CorruptArchive`].
pub fn parse_container(bytes: &[u8]) -> Result<Vec<(String, &[u8])>, CuszError> {
    if bytes.len() < 8 || &bytes[0..4] != MAGIC {
        return Err(CuszError::CorruptArchive("container magic"));
    }
    let count = crate::wire::u32_le(bytes, 4) as usize;
    let mut at = 8u64;
    let mut entries: Vec<(String, &[u8])> = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        // `at` never passes the end and a name is < 64 KiB: no wrap.
        if at + 2 > bytes.len() as u64 {
            return Err(CuszError::CorruptArchive("container name length"));
        }
        let name_at = at + 2;
        at = name_at + crate::wire::u16_le(bytes, at as usize) as u64;
        let name = bytes
            .get(name_at as usize..at as usize)
            .ok_or(CuszError::CorruptArchive("container name"))?;
        let name = std::str::from_utf8(name)
            .map_err(|_| CuszError::CorruptArchive("container name utf-8"))?;
        let body = crate::wire::entry(bytes, &mut at, "container archive truncated")?;
        entries.push((name.to_string(), &bytes[body]));
    }
    if at != bytes.len() as u64 {
        return Err(CuszError::CorruptArchive("container trailing bytes"));
    }
    Ok(entries)
}

/// Decompressed container contents: `(name, field)` pairs in entry order.
pub type DecodedFields = Vec<(String, NdArray<f32>)>;

/// [`crate::shard::decompress_fields_sharded`] on `n_streams` streams
/// of one device (field `i` on stream `i % n_streams`).
pub fn decompress_fields_streams(
    bytes: &[u8],
    cfg: Config,
    n_streams: usize,
) -> Result<(DecodedFields, ScheduleReport), CuszError> {
    let plan = ShardPlan::new(1).streams(n_streams);
    decompress_fields_sharded(bytes, cfg, plan).map(|(f, r)| (f, r.into_schedule()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::default_streams;
    use cuszi_quant::ErrorBound;
    use cuszi_tensor::Shape;

    fn fields() -> Vec<(String, NdArray<f32>)> {
        vec![
            (
                "pressure".into(),
                NdArray::from_fn(Shape::d3(12, 12, 12), |z, y, x| {
                    ((x + y + z) as f32 * 0.1).sin()
                }),
            ),
            (
                "velocity".into(),
                NdArray::from_fn(Shape::d2(30, 40), |_, y, x| (x as f32) * 0.1 - (y as f32) * 0.2),
            ),
            ("trace".into(), NdArray::from_fn(Shape::d1(500), |_, _, x| (x as f32 * 0.02).cos())),
        ]
    }

    #[test]
    fn container_roundtrip_preserves_names_shapes_and_bounds() {
        let fs = fields();
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let named: Vec<NamedField> =
            fs.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
        let (container, _) = compress_fields_streams(&named, cfg, default_streams()).unwrap();
        assert_eq!(container.fields.len(), 3);
        assert!(container.aggregate_cr() > 1.0);

        let (back, _) =
            decompress_fields_streams(&container.bytes, cfg, default_streams()).unwrap();
        assert_eq!(back.len(), 3);
        for ((name, orig), (bname, recon)) in fs.iter().zip(&back) {
            assert_eq!(name, bname);
            assert_eq!(orig.shape(), recon.shape());
            let range = {
                let s = orig.as_slice();
                s.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
                    - s.iter().cloned().fold(f32::INFINITY, f32::min)
            };
            assert_eq!(
                cuszi_metrics::check_error_bound(
                    orig.as_slice(),
                    recon.as_slice(),
                    1e-3 * range as f64
                ),
                None,
                "{name}"
            );
        }
    }

    #[test]
    fn empty_container_roundtrips() {
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let (container, _) = compress_fields_streams(&[], cfg, 1).unwrap();
        assert!(decompress_fields_streams(&container.bytes, cfg, 1).unwrap().0.is_empty());
        assert_eq!(container.aggregate_cr(), f64::INFINITY);
    }

    #[test]
    fn corrupt_containers_error() {
        let fs = fields();
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let named: Vec<NamedField> =
            fs.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
        let (c, _) = compress_fields_streams(&named, cfg, 2).unwrap();
        let decompress = |b: &[u8]| decompress_fields_streams(b, cfg, 2);
        assert!(decompress(&c.bytes[..6]).is_err());
        assert!(decompress(&c.bytes[..c.bytes.len() - 4]).is_err());
        let mut bad = c.bytes.clone();
        bad[1] = b'X';
        assert!(decompress(&bad).is_err());
        // Trailing garbage is rejected too.
        let mut padded = c.bytes.clone();
        padded.extend_from_slice(&[0, 1, 2]);
        assert!(decompress(&padded).is_err());
    }
}
