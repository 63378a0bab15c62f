//! Byte pins of the codec's output: for each dataset analogue, a small
//! crop of its first field is compressed at three relative bounds with
//! Bitcomp on and off, and one field also goes through a four-stream
//! slab container. Each case pins the archive length, the FNV-1a 64 of
//! the archive and of the reconstruction's f32 bit patterns, and the
//! PSNR to 0.01 dB, so a refactor that claims "same bytes" is checked
//! against numbers recorded before it, not against itself.
//!
//! On a mismatch the test prints the whole table as computed, in the
//! shape of `PINS`.

use cuszi_repro::core::{compress_slabs_streams, decompress_slabs_streams, Config, CuszI};
use cuszi_repro::datagen::{generate, DatasetKind, Scale};
use cuszi_repro::metrics::distortion;
use cuszi_repro::quant::ErrorBound;
use cuszi_repro::tensor::{NdArray, Shape};

const RELS: [f64; 3] = [1e-2, 1e-3, 1e-5];

/// `(case, archive length, archive FNV-1a, reconstruction FNV-1a, PSNR)`.
type Pin = (&'static str, usize, u64, u64, &'static str);

#[rustfmt::skip]
const PINS: [Pin; 37] = [
    ("JHTDB rel=1e-2 bitcomp=true", 1632, 0x671fe001191ca460, 0xfb704e865c4731e7, "50.41"),
    ("JHTDB rel=1e-2 bitcomp=false", 3435, 0xe78c24facb5971ea, 0xfb704e865c4731e7, "50.41"),
    ("JHTDB rel=1e-3 bitcomp=true", 3713, 0x0236b252d45bb10d, 0x93d32ea0eb9dd7d1, "67.17"),
    ("JHTDB rel=1e-3 bitcomp=false", 4744, 0xedc8ffeb4448b090, 0x93d32ea0eb9dd7d1, "67.17"),
    ("JHTDB rel=1e-5 bitcomp=true", 20219, 0x084005a2a073eaad, 0x3e139835907b618d, "105.16"),
    ("JHTDB rel=1e-5 bitcomp=false", 24276, 0xdccb68a71be553fe, 0x3e139835907b618d, "105.16"),
    ("Miranda rel=1e-2 bitcomp=true", 1515, 0x20932949257e3793, 0xce4696a69670011e, "51.15"),
    ("Miranda rel=1e-2 bitcomp=false", 3314, 0x3e93bd0089345ad4, 0xce4696a69670011e, "51.15"),
    ("Miranda rel=1e-3 bitcomp=true", 2839, 0x0a2ce1975b39f94b, 0x44adbbcccb3b9df7, "69.11"),
    ("Miranda rel=1e-3 bitcomp=false", 4181, 0x62946ccdb92a055b, 0x44adbbcccb3b9df7, "69.11"),
    ("Miranda rel=1e-5 bitcomp=true", 13353, 0x3d98c5f0970510f2, 0x5e19df35a8a07843, "105.03"),
    ("Miranda rel=1e-5 bitcomp=false", 17003, 0x6550c482c5a595f6, 0x5e19df35a8a07843, "105.03"),
    ("Nyx rel=1e-2 bitcomp=true", 2003, 0x905d4e7e249326f5, 0xa08539d95d032259, "50.12"),
    ("Nyx rel=1e-2 bitcomp=false", 3603, 0x4a2b7f04c64b03dc, 0xa08539d95d032259, "50.12"),
    ("Nyx rel=1e-3 bitcomp=true", 4323, 0xa2dea0a518c99cca, 0x1b45e6bf14c0c9a7, "66.79"),
    ("Nyx rel=1e-3 bitcomp=false", 5145, 0xee63c5db4388dd3d, 0x1b45e6bf14c0c9a7, "66.79"),
    ("Nyx rel=1e-5 bitcomp=true", 20342, 0x34db78efd5b68b89, 0xbcd1b9395c1b94ce, "105.16"),
    ("Nyx rel=1e-5 bitcomp=false", 25935, 0xd794aa5def9d9334, 0xbcd1b9395c1b94ce, "105.16"),
    ("Nyx slab z=8 streams=4", 6259, 0x85d7c3e1bc2fa60c, 0xb50bdcad0a18313d, "66.91"),
    ("QMCPack rel=1e-2 bitcomp=true", 1605, 0xc99d4f1aff9e5fc9, 0xe9b899b6d6fa7747, "50.14"),
    ("QMCPack rel=1e-2 bitcomp=false", 3517, 0xe4af1ae9a1cd605f, 0xe9b899b6d6fa7747, "50.14"),
    ("QMCPack rel=1e-3 bitcomp=true", 3855, 0xe4b4bf5bb1b9427f, 0xadd75e8f44d9ab49, "66.22"),
    ("QMCPack rel=1e-3 bitcomp=false", 4953, 0xb6fc3108cc4a227c, 0xadd75e8f44d9ab49, "66.22"),
    ("QMCPack rel=1e-5 bitcomp=true", 17988, 0x75fb6a77f44bc718, 0xa1650cbe98144301, "105.58"),
    ("QMCPack rel=1e-5 bitcomp=false", 22113, 0x7bce6d55588f58a0, 0xa1650cbe98144301, "105.58"),
    ("RTM rel=1e-2 bitcomp=true", 1097, 0x2fea511ea6b33a87, 0x5c3b8fe2bea22ecd, "51.72"),
    ("RTM rel=1e-2 bitcomp=false", 3198, 0x5cde6605ce7169dd, 0x5c3b8fe2bea22ecd, "51.72"),
    ("RTM rel=1e-3 bitcomp=true", 2505, 0x794025c39fd943c0, 0x3aa10fb2ca32175d, "68.30"),
    ("RTM rel=1e-3 bitcomp=false", 3908, 0xde0efba3620b4524, 0x3aa10fb2ca32175d, "68.30"),
    ("RTM rel=1e-5 bitcomp=true", 11567, 0xdb844c536c1dc51e, 0xd699b49c22a92f17, "105.39"),
    ("RTM rel=1e-5 bitcomp=false", 12985, 0x5825515f87bd37a6, 0xd699b49c22a92f17, "105.39"),
    ("S3D rel=1e-2 bitcomp=true", 1313, 0x40c7ba3d2cee9c38, 0xdc47644a917b4b1f, "50.97"),
    ("S3D rel=1e-2 bitcomp=false", 3315, 0x9d6c0eba0477af79, 0xdc47644a917b4b1f, "50.97"),
    ("S3D rel=1e-3 bitcomp=true", 2974, 0x35790159158f9341, 0x29ed039f9bcf2527, "68.01"),
    ("S3D rel=1e-3 bitcomp=false", 4440, 0x62cd910f78de9fed, 0x29ed039f9bcf2527, "68.01"),
    ("S3D rel=1e-5 bitcomp=true", 16994, 0x8aa5d6ef320b3aaa, 0x2a5f68157313168c, "105.05"),
    ("S3D rel=1e-5 bitcomp=false", 19344, 0xdc017edc5cec9846, 0x2a5f68157313168c, "105.05"),
];

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn recon_hash(recon: &[f32]) -> u64 {
    fnv1a(recon.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// A 20x24x28 crop: odd against the 8^3 anchor grid on every axis.
fn crop(data: &NdArray<f32>) -> NdArray<f32> {
    NdArray::from_fn(Shape::d3(20, 24, 28), |z, y, x| data.get3(z, y, x))
}

type Row = (String, usize, u64, u64, String);

fn row(case: String, archive: &[u8], field: &[f32], recon: &[f32]) -> Row {
    let psnr = distortion(field, recon).expect("non-empty field").psnr;
    (case, archive.len(), fnv1a(archive.iter().copied()), recon_hash(recon), format!("{psnr:.2}"))
}

fn one_shot_rows(kind: DatasetKind, field: &NdArray<f32>) -> Vec<Row> {
    let mut rows = Vec::new();
    for rel in RELS {
        for bitcomp in [true, false] {
            let mut cfg = Config::new(ErrorBound::Rel(rel));
            if !bitcomp {
                cfg = cfg.without_bitcomp();
            }
            let codec = CuszI::new(cfg);
            let c = codec.compress(field).expect("compress");
            let d = codec.decompress(&c.bytes).expect("decompress");
            let case = format!("{} rel={rel:e} bitcomp={bitcomp}", kind.name());
            rows.push(row(case, &c.bytes, field.as_slice(), d.data.as_slice()));
        }
    }
    rows
}

/// The field in 8-plane slabs on four streams (container + stitched
/// reconstruction).
fn slab_row(kind: DatasetKind, field: &NdArray<f32>) -> Row {
    let cfg = Config::new(ErrorBound::Rel(1e-3));
    let shape = field.shape();
    let [_, ny, nx] = shape.dims3();
    let slab = |z0: usize, nz: usize| {
        NdArray::from_fn(Shape::d3(nz, ny, nx), |z, y, x| field.get3(z0 + z, y, x))
    };
    let (bytes, _) = compress_slabs_streams(shape, 8, cfg, 4, slab).expect("slab compress");
    let mut recon = vec![0f32; field.len()];
    let plane = ny * nx;
    let (got, _) = decompress_slabs_streams(&bytes, cfg, 4, |z0, s: NdArray<f32>| {
        recon[z0 * plane..z0 * plane + s.len()].copy_from_slice(s.as_slice());
    })
    .expect("slab decompress");
    assert_eq!(got, shape);
    row(format!("{} slab z=8 streams=4", kind.name()), &bytes, field.as_slice(), &recon)
}

#[test]
fn archives_and_reconstructions_match_their_pins() {
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        let field = crop(&generate(kind, Scale::Small, 42).fields[0].data);
        rows.extend(one_shot_rows(kind, &field));
        if kind == DatasetKind::Nyx {
            rows.push(slab_row(kind, &field));
        }
    }
    let matches = rows.len() == PINS.len()
        && rows.iter().zip(PINS).all(|(r, p)| (r.0.as_str(), r.1, r.2, r.3, r.4.as_str()) == p);
    if !matches {
        let table: String = rows
            .iter()
            .map(|(c, len, ha, hr, psnr)| {
                format!("    ({c:?}, {len}, {ha:#018x}, {hr:#018x}, {psnr:?}),\n")
            })
            .collect();
        panic!("archive pins moved; computed table:\n{table}");
    }
}
