//! Bit pins of every public generator: FNV-1a 64 over each field's f32
//! bit patterns, checked at 1, 2 and 5 host worker threads. The shapes
//! are small and deliberately awkward — odd extents, `ny` not a
//! multiple of the eight-line mode-sum lanes, fewer z planes than
//! workers, and a 2-d frame — so a change to per-element operation
//! order, lane handling or plane dealing moves a pin.

use cuszi_datagen::rng::ChaCha8Rng;
use cuszi_datagen::{generate, DatasetKind, Scale};
use cuszi_gpu_sim::pool::with_threads;
use cuszi_tensor::{NdArray, Shape};

const THREADS: [usize; 3] = [1, 2, 5];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fingerprint<'a>(fields: impl IntoIterator<Item = &'a NdArray<f32>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in fields {
        for v in f.as_slice() {
            fnv1a(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A generator call on a small shape, with its pin.
type Case = (&'static str, u64, fn() -> NdArray<f32>);

const CASES: [Case; 12] = [
    ("turbulence 3x21x17", 0x97e5_e3ee_5c15_7f6e, || {
        cuszi_datagen::turbulence(Shape::d3(3, 21, 17), &mut rng(11))
    }),
    ("turbulence 9x16x33", 0x008f_8bfc_2736_dad2, || {
        cuszi_datagen::turbulence(Shape::d3(9, 16, 33), &mut rng(12))
    }),
    ("smooth_modes 5x13x19", 0x4dff_5580_e4db_2d01, || {
        cuszi_datagen::smooth_modes(Shape::d3(5, 13, 19), &mut rng(13), 7, 0.01)
    }),
    ("smooth_modes 2-d 20x30", 0x02dd_9f98_48f1_9250, || {
        cuszi_datagen::smooth_modes(Shape::d2(20, 30), &mut rng(14), 5, 0.0)
    }),
    ("lognormal_density 6x11x10", 0x9791_3642_e24c_458e, || {
        cuszi_datagen::lognormal_density(Shape::d3(6, 11, 10), &mut rng(15))
    }),
    ("hydro_bubbles 4x19x23", 0x9d49_62fc_f827_a73b, || {
        cuszi_datagen::hydro_bubbles(Shape::d3(4, 19, 23), &mut rng(16), 0.3)
    }),
    ("orbitals 17x9x12", 0x1d75_0542_3077_c271, || {
        cuszi_datagen::orbitals(Shape::d3(17, 9, 12), &mut rng(17))
    }),
    ("rtm_snapshot 13x15x9", 0x727b_2ba7_c871_ba87, || {
        cuszi_datagen::rtm_snapshot(Shape::d3(13, 15, 9), 300, 5)
    }),
    ("rtm_snapshot 1x7x5", 0x8468_f578_bc54_b71c, || {
        cuszi_datagen::rtm_snapshot(Shape::d3(1, 7, 5), 40, 6)
    }),
    ("combustion 3x10x14", 0xbeb2_6636_d7b6_ce6f, || {
        cuszi_datagen::combustion(Shape::d3(3, 10, 14), &mut rng(18), 0.4)
    }),
    ("detector_frame 2-d 37x45", 0x6700_cf66_cee6_acac, || {
        cuszi_datagen::detector_frame(Shape::d2(37, 45), 3, 9)
    }),
    ("rtm_series 2 snapshots", 0x9568_be06_aa0a_5db7, || {
        let s = cuszi_datagen::rtm_series(Scale::Small, 200, 150, 2, 4);
        let mut both = s[0].data.as_slice().to_vec();
        both.extend_from_slice(s[1].data.as_slice());
        NdArray::from_vec(Shape::d1(both.len()), both)
    }),
];

/// `generate(kind, Scale::Small, 42)`, all fields in order, per kind.
const DATASET_PINS: [(DatasetKind, u64); 6] = [
    (DatasetKind::Jhtdb, 0xf27a_5c1f_10a8_4108),
    (DatasetKind::Miranda, 0x8732_1639_c9c9_88fd),
    (DatasetKind::Nyx, 0x8580_6bdb_5f30_96f3),
    (DatasetKind::Qmcpack, 0xdcf5_402f_8fc5_2a8e),
    (DatasetKind::Rtm, 0x0566_ed66_a1f7_de1f),
    (DatasetKind::S3d, 0x3d5c_6587_92d5_31cf),
];

#[test]
fn every_generator_matches_its_pin_at_any_thread_count() {
    let mut wrong = Vec::new();
    for (name, pin, make) in CASES {
        for t in THREADS {
            let got = fingerprint([&with_threads(t, make)]);
            if got != pin {
                wrong.push(format!("{name} at {t} threads: {got:#018x}, pinned {pin:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "generator bits moved:\n{}", wrong.join("\n"));
}

#[test]
fn every_dataset_matches_its_pin_at_any_thread_count() {
    let mut wrong = Vec::new();
    for (kind, pin) in DATASET_PINS {
        for t in THREADS {
            let ds = with_threads(t, || generate(kind, Scale::Small, 42));
            let got = fingerprint(ds.fields.iter().map(|f| &f.data));
            if got != pin {
                wrong.push(format!("{kind:?} at {t} threads: {got:#018x}, pinned {pin:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "dataset bits moved:\n{}", wrong.join("\n"));
}
