//! Synthetic analogues of the six evaluation datasets (Table II).
//!
//! The production datasets (JHTDB, Miranda, Nyx, QMCPack, RTM, S3D) are
//! multi-GB archives we cannot ship; what the paper's compressor ranking
//! actually keys on is each dataset's *smoothness class*:
//!
//! | dataset | character | generator |
//! |---|---|---|
//! | JHTDB   | isotropic turbulence, k^-5/3 spectrum, fine texture | random Fourier modes with Kolmogorov amplitudes + noise floor |
//! | Miranda | hydrodynamics, smooth bubbles + material interfaces | Gaussian blobs over a gradient + tanh interface ridges |
//! | Nyx     | cosmology, lognormal density (huge dynamic range), smooth velocities | exp(GRF) density, smooth-mode velocity/temperature |
//! | QMCPack | quantum orbitals: decaying oscillations, slice-stacked | exp(-r/s)·sin(k r) orbitals with per-slice phase |
//! | RTM     | seismic wavefield: expanding Ricker wavefronts | spherical Ricker shells from point sources over layered media |
//! | S3D     | combustion: thin flame fronts, steep species gradients | moving tanh fronts + reaction-zone products |
//!
//! Generators are deterministic in the seed (ChaCha8) so every table and
//! figure regenerates bit-identically. `Scale::Small` keeps fields a few
//! MB for CI-speed runs; `Scale::Paper` produces the Table II dims.

use cuszi_tensor::{NdArray, Shape};

pub mod fields;
pub mod rng;

use rng::ChaCha8Rng;

pub use fields::*;

/// The six evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    Jhtdb,
    Miranda,
    Nyx,
    Qmcpack,
    Rtm,
    S3d,
}

impl DatasetKind {
    /// All six, in the paper's table order.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::Jhtdb,
        DatasetKind::Miranda,
        DatasetKind::Nyx,
        DatasetKind::Qmcpack,
        DatasetKind::Rtm,
        DatasetKind::S3d,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Jhtdb => "JHTDB",
            DatasetKind::Miranda => "Miranda",
            DatasetKind::Nyx => "Nyx",
            DatasetKind::Qmcpack => "QMCPack",
            DatasetKind::Rtm => "RTM",
            DatasetKind::S3d => "S3D",
        }
    }
}

/// Field dimensions regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A few MB per field — the default for tests and benches.
    Small,
    /// The Table II dimensions (multi-GB; opt-in).
    Paper,
}

impl Scale {
    /// The 3-d shape used for a dataset at this scale.
    pub fn shape(&self, kind: DatasetKind) -> Shape {
        match (self, kind) {
            (Scale::Small, DatasetKind::Jhtdb) => Shape::d3(96, 96, 96),
            (Scale::Small, DatasetKind::Miranda) => Shape::d3(64, 96, 96),
            (Scale::Small, DatasetKind::Nyx) => Shape::d3(96, 96, 96),
            (Scale::Small, DatasetKind::Qmcpack) => Shape::d3(64, 69, 69),
            (Scale::Small, DatasetKind::Rtm) => Shape::d3(112, 112, 59),
            (Scale::Small, DatasetKind::S3d) => Shape::d3(96, 96, 96),
            (Scale::Paper, DatasetKind::Jhtdb) => Shape::d3(512, 512, 512),
            (Scale::Paper, DatasetKind::Miranda) => Shape::d3(256, 384, 384),
            (Scale::Paper, DatasetKind::Nyx) => Shape::d3(512, 512, 512),
            (Scale::Paper, DatasetKind::Qmcpack) => Shape::d3(288 * 115, 69, 69),
            (Scale::Paper, DatasetKind::Rtm) => Shape::d3(449, 449, 235),
            (Scale::Paper, DatasetKind::S3d) => Shape::d3(500, 500, 500),
        }
    }
}

/// One named field ("file" in Table II's terms).
#[derive(Clone, Debug)]
pub struct Field {
    pub name: &'static str,
    pub data: NdArray<f32>,
}

/// A generated dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    pub kind: DatasetKind,
    pub fields: Vec<Field>,
}

/// Generate a dataset (a representative subset of its fields).
pub fn generate(kind: DatasetKind, scale: Scale, seed: u64) -> Dataset {
    let shape = scale.shape(kind);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (kind as u64) << 32);
    let fields = match kind {
        DatasetKind::Jhtdb => vec![
            Field { name: "velocity-u", data: turbulence(shape, &mut rng) },
            Field { name: "velocity-v", data: turbulence(shape, &mut rng) },
            Field { name: "velocity-w", data: turbulence(shape, &mut rng) },
            Field { name: "pressure", data: turbulence(shape, &mut rng) },
        ],
        DatasetKind::Miranda => vec![
            Field { name: "density", data: hydro_bubbles(shape, &mut rng, 0.0) },
            Field { name: "pressure", data: hydro_bubbles(shape, &mut rng, 0.3) },
            Field { name: "viscocity", data: hydro_bubbles(shape, &mut rng, 0.6) },
        ],
        DatasetKind::Nyx => vec![
            Field { name: "baryon_density", data: lognormal_density(shape, &mut rng) },
            Field { name: "dark_matter_density", data: lognormal_density(shape, &mut rng) },
            Field { name: "temperature", data: smooth_modes(shape, &mut rng, 8, 0.002) },
            Field { name: "velocity_x", data: smooth_modes(shape, &mut rng, 12, 0.004) },
        ],
        DatasetKind::Qmcpack => {
            vec![Field { name: "einspline", data: orbitals(shape, &mut rng) }]
        }
        DatasetKind::Rtm => {
            vec![Field { name: "snapshot-1500", data: rtm_snapshot(shape, 1500, seed) }]
        }
        DatasetKind::S3d => vec![
            Field { name: "CO", data: combustion(shape, &mut rng, 0.0) },
            Field { name: "temp", data: combustion(shape, &mut rng, 0.4) },
            Field { name: "OH", data: combustion(shape, &mut rng, 0.8) },
            Field { name: "H2O", data: combustion(shape, &mut rng, 0.2) },
        ],
    };
    Dataset { kind, fields }
}

/// The RTM time series for Fig. 6: `count` snapshots sampled every
/// `stride` timesteps starting at `start`.
pub fn rtm_series(scale: Scale, start: u32, stride: u32, count: usize, seed: u64) -> Vec<Field> {
    let shape = scale.shape(DatasetKind::Rtm);
    (0..count)
        .map(|i| Field {
            name: "rtm-snapshot",
            data: rtm_snapshot(shape, start + i as u32 * stride, seed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuszi_tensor::stats::ValueRange;

    #[test]
    fn all_datasets_generate_finite_fields() {
        for kind in DatasetKind::ALL {
            let ds = generate(kind, Scale::Small, 42);
            assert!(!ds.fields.is_empty(), "{kind:?}");
            for f in &ds.fields {
                assert!(f.data.all_finite(), "{kind:?}/{}", f.name);
                let r = ValueRange::of(f.data.as_slice()).unwrap();
                assert!(r.range() > 0.0, "{kind:?}/{} is constant", f.name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = generate(DatasetKind::Jhtdb, Scale::Small, 7);
        let b = generate(DatasetKind::Jhtdb, Scale::Small, 7);
        assert_eq!(a.fields[0].data.as_slice(), b.fields[0].data.as_slice());
        let c = generate(DatasetKind::Jhtdb, Scale::Small, 8);
        assert_ne!(a.fields[0].data.as_slice(), c.fields[0].data.as_slice());
    }

    #[test]
    fn small_scale_shapes_match_spec() {
        assert_eq!(Scale::Small.shape(DatasetKind::Rtm), Shape::d3(112, 112, 59));
        assert_eq!(Scale::Paper.shape(DatasetKind::S3d), Shape::d3(500, 500, 500));
    }

    #[test]
    fn rtm_series_evolves_over_time() {
        let s = rtm_series(Scale::Small, 100, 100, 3, 1);
        assert_eq!(s.len(), 3);
        assert_ne!(s[0].data.as_slice(), s[2].data.as_slice());
    }

    #[test]
    fn smoothness_classes_differ() {
        // JHTDB (turbulence) must be rougher than Miranda (smooth
        // hydro): compare mean |first difference| relative to range.
        let rough = generate(DatasetKind::Jhtdb, Scale::Small, 3);
        let smooth = generate(DatasetKind::Miranda, Scale::Small, 3);
        let roughness = |d: &NdArray<f32>| {
            let s = d.as_slice();
            let r = ValueRange::of(s).unwrap().range();
            let sum: f64 = s.windows(2).map(|w| (w[1] - w[0]).abs() as f64).sum();
            sum / (s.len() as f64 - 1.0) / r as f64
        };
        assert!(
            roughness(&rough.fields[0].data) > 2.0 * roughness(&smooth.fields[0].data),
            "turbulence should be rougher than hydro"
        );
    }
}
