//! Inputs of the four workloads, made from the seed and nothing else.

use std::ops::Range;

use cuszi_datagen::rng::ChaCha8Rng;
use cuszi_datagen::{DatasetKind, Scale};
use cuszi_quant::ErrorBound;
use cuszi_tensor::{NdArray, Shape};

/// The four workloads, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Field1e3,
    Field1e5,
    BatchStreams,
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Field1e3,
        Workload::Field1e5,
        Workload::BatchStreams,
        Workload::ServeTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Field1e3 => "field_1e-3",
            Workload::Field1e5 => "field_1e-5",
            Workload::BatchStreams => "batch_streams",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `FULL` is what is measured; `QUICK` is a smoke size for
/// the tests (same code paths, fields 64x smaller).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Edge of the cubic `field_*` fields.
    pub field: usize,
    /// Edge the `batch_streams` dataset fields are cropped to (the
    /// generator makes 96^3).
    pub batch: usize,
    /// `batch_streams` slab field (z, y, x) and slab thickness.
    pub slab: [usize; 3],
    pub slab_z: usize,
    /// `serve_tcp` request edges, dealt 25/50/25 %.
    pub serve: [usize; 3],
    /// Requests per `serve_tcp` connection. The request phase ends at
    /// the time limit or when a list runs out, whichever is first.
    pub requests: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        field: 128,
        batch: 96,
        slab: [256, 128, 128],
        slab_z: 32,
        serve: [32, 48, 64],
        requests: 400,
    };
    pub const QUICK: Sizes = Sizes {
        field: 32,
        batch: 24,
        slab: [64, 32, 32],
        slab_z: 16,
        serve: [16, 24, 32],
        requests: 24,
    };
}

/// A named field.
pub struct Field {
    pub name: String,
    pub data: NdArray<f32>,
}

impl Field {
    fn new(name: impl Into<String>, data: NdArray<f32>) -> Field {
        Field {
            name: name.into(),
            data,
        }
    }

    pub fn bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

/// One request of a closed-loop caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compress `fields[field]`. `warm` requests repeat a steady field
    /// the daemon's session cache has seen; the others are new to it.
    Compress { field: usize, warm: bool },
    /// Decompress the archive the reply to request `of` (an earlier
    /// compress request of the same caller) carried.
    Decompress { of: usize },
}

/// Everything a workload reads.
pub struct Inputs {
    pub workload: Workload,
    pub eb: ErrorBound,
    /// Every field any request or call touches.
    pub fields: Vec<Field>,
    /// Named runs of `fields` that are compressed together: one
    /// single-field dataset per field for `field_*`, the Nyx and S3D
    /// datasets for `batch_streams`, the steady fields for `serve_tcp`.
    /// One dataset round trip is one request of an in-process workload.
    pub datasets: Vec<(String, Range<usize>)>,
    /// The field that is compressed slab by slab, and the slab
    /// thickness in z planes.
    pub slab: usize,
    pub slab_z: usize,
    /// One request list per caller (TCP connection).
    pub requests: Vec<Vec<Request>>,
}

/// Four field classes the paper's datasets span, smooth to rough.
fn class_field(class: usize, shape: Shape, rng: &mut ChaCha8Rng) -> Field {
    match class % 4 {
        0 => Field::new("turbulence", cuszi_datagen::turbulence(shape, rng)),
        1 => Field::new(
            "hydro_bubbles",
            cuszi_datagen::hydro_bubbles(shape, rng, 0.0),
        ),
        2 => Field::new(
            "lognormal_density",
            cuszi_datagen::lognormal_density(shape, rng),
        ),
        _ => Field::new("combustion", cuszi_datagen::combustion(shape, rng, 0.0)),
    }
}

fn cube(n: usize) -> Shape {
    Shape::d3(n, n, n)
}

/// The leading `n`^3 corner of a 3-d field (the whole field when it is
/// no larger).
fn crop(data: NdArray<f32>, n: usize) -> NdArray<f32> {
    let [nz, ny, nx] = data.shape().dims3();
    if nz <= n && ny <= n && nx <= n {
        return data;
    }
    NdArray::from_fn(Shape::d3(nz.min(n), ny.min(n), nx.min(n)), |z, y, x| {
        data.get3(z, y, x)
    })
}

/// Compress-then-decompress request list over `fields`, `passes` times.
fn round_trips(fields: Range<usize>, passes: usize) -> Vec<Request> {
    let n = fields.len();
    (0..passes * n)
        .flat_map(|i| {
            [
                Request::Compress {
                    field: fields.start + i % n,
                    warm: i >= n,
                },
                Request::Decompress { of: 2 * i },
            ]
        })
        .collect()
}

impl Inputs {
    /// Generate a workload's inputs. The same `(workload, seed, sizes)`
    /// gives the same inputs, bit for bit.
    pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Inputs {
        match workload {
            Workload::Field1e3 => Self::field(workload, 1e-3, seed, sizes),
            Workload::Field1e5 => Self::field(workload, 1e-5, seed, sizes),
            Workload::BatchStreams => Self::batch(seed, sizes),
            Workload::ServeTcp => Self::serve(seed, sizes),
        }
    }

    fn field(workload: Workload, rel: f64, seed: u64, sizes: Sizes) -> Inputs {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fields: Vec<Field> = (0..4)
            .map(|c| class_field(c, cube(sizes.field), &mut rng))
            .collect();
        let datasets = fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i..i + 1))
            .collect();
        Inputs {
            workload,
            eb: ErrorBound::Rel(rel),
            requests: vec![round_trips(0..fields.len(), 16)],
            fields,
            datasets,
            slab: 0,
            slab_z: sizes.slab_z,
        }
    }

    fn batch(seed: u64, sizes: Sizes) -> Inputs {
        let mut fields = Vec::new();
        let mut datasets = Vec::new();
        for kind in [DatasetKind::Nyx, DatasetKind::S3d] {
            let ds = cuszi_datagen::generate(kind, Scale::Small, seed);
            let start = fields.len();
            fields.extend(
                ds.fields
                    .into_iter()
                    .map(|f| Field::new(f.name, crop(f.data, sizes.batch))),
            );
            datasets.push((kind.name().to_string(), start..fields.len()));
        }
        let [nz, ny, nx] = sizes.slab;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51AB);
        let slab = fields.len();
        fields.push(Field::new(
            "slab_turbulence",
            cuszi_datagen::turbulence(Shape::d3(nz, ny, nx), &mut rng),
        ));
        Inputs {
            workload: Workload::BatchStreams,
            eb: ErrorBound::Rel(1e-3),
            requests: vec![round_trips(0..slab, 8)],
            fields,
            datasets,
            slab,
            slab_z: sizes.slab_z,
        }
    }

    fn serve(seed: u64, sizes: Sizes) -> Inputs {
        const STEADY: usize = 8;
        let callers = crate::host::cores().min(2);
        // Generated one caller after the other on this thread: side by
        // side is faster, but which malloc arena each generating thread
        // lands in then decides whether a repeated set-up reuses the
        // memory of the one before, and peak memory reads 169 or 212 MB
        // from run to run.
        let per_caller: Vec<(Vec<Field>, Vec<Request>)> = (0..callers)
            .map(|c| Self::caller(seed, c, STEADY, sizes))
            .collect();
        let mut fields = Vec::new();
        let mut requests = Vec::new();
        let mut steady = Vec::new();
        for (mine, list) in per_caller {
            let base = fields.len();
            steady.push(base..base + STEADY);
            fields.extend(mine);
            requests.push(
                list.into_iter()
                    .map(|r| match r {
                        Request::Compress { field, warm } => Request::Compress {
                            field: field + base,
                            warm,
                        },
                        d => d,
                    })
                    .collect(),
            );
        }
        let slab = steady[0]
            .clone()
            .max_by_key(|&i| fields[i].data.len())
            .unwrap_or(0);
        let datasets = steady
            .into_iter()
            .enumerate()
            .map(|(c, r)| (format!("steady-c{c}"), r))
            .collect();
        Inputs {
            workload: Workload::ServeTcp,
            eb: ErrorBound::Rel(1e-3),
            fields,
            datasets,
            slab,
            slab_z: sizes.slab_z,
            requests,
        }
    }

    /// One caller's fields (its steady fields first, then the cold ones
    /// in request order) and its request list, with caller-local field
    /// indices.
    ///
    /// The seed shuffles the order; the mix itself is dealt, not drawn,
    /// so that every seed sends the same work: after four compress
    /// requests, blocks of six hold two warm and two cold compress
    /// requests and two decompress requests. Warm requests go round
    /// the steady fields, cold ones round the edges small, mid, mid,
    /// large, and a decompress request sends back the oldest archive
    /// not yet sent back.
    ///
    /// Two compress requests to one decompress, not one to one: a
    /// compress exchange takes ~47 ms (the daemon writes the reply in
    /// two pieces and the second waits ~40 ms for the client's delayed
    /// ACK) and a decompress exchange ~6 ms, and at one to one the
    /// median latency would sit on the edge between the two.
    fn caller(seed: u64, caller: usize, steady: usize, sizes: Sizes) -> (Vec<Field>, Vec<Request>) {
        #[derive(Clone, Copy)]
        enum Kind {
            Warm,
            Cold,
            Back,
        }
        let caller_seed = seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(caller as u64 + 1);
        let mut rng = ChaCha8Rng::seed_from_u64(caller_seed);
        // Request edges 25/50/25 %: small, mid, mid, large.
        let edge = |class: usize| sizes.serve[[0, 1, 1, 2][class % 4]];
        let mut fields: Vec<Field> = (0..steady)
            .map(|i| class_field(i, cube(edge(i)), &mut rng))
            .collect();
        let mut list: Vec<Request> = Vec::with_capacity(sizes.requests + 8);
        let mut compresses: Vec<usize> = Vec::new();
        let mut sent_back = 0;
        let (mut warm_round, mut cold_round): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        let mut cold = 0u32;
        let mut block = vec![Kind::Warm, Kind::Warm, Kind::Cold, Kind::Cold];
        while list.len() < sizes.requests {
            shuffle(&mut block, &mut rng);
            for &kind in &block {
                match kind {
                    Kind::Back => {
                        list.push(Request::Decompress {
                            of: compresses[sent_back],
                        });
                        sent_back += 1;
                        continue;
                    }
                    Kind::Warm => {
                        if warm_round.is_empty() {
                            warm_round = (0..steady).collect();
                            shuffle(&mut warm_round, &mut rng);
                        }
                        let field = warm_round.pop().unwrap_or(0);
                        list.push(Request::Compress { field, warm: true });
                    }
                    Kind::Cold => {
                        if cold_round.is_empty() {
                            cold_round = (0..4).collect();
                            shuffle(&mut cold_round, &mut rng);
                        }
                        // The next timestep of a wavefield this daemon
                        // has not seen, taken while the front is inside
                        // the grid.
                        let n = edge(cold_round.pop().unwrap_or(0));
                        let t = 10 * n as u32 + 3 * cold;
                        cold += 1;
                        list.push(Request::Compress {
                            field: fields.len(),
                            warm: false,
                        });
                        fields.push(Field::new(
                            format!("rtm-c{caller}-t{t}"),
                            cuszi_datagen::rtm_snapshot(cube(n), t, caller_seed),
                        ));
                    }
                }
                compresses.push(list.len() - 1);
            }
            if block.len() == 4 {
                block.extend([Kind::Back; 2]);
            }
        }
        list.truncate(sizes.requests);
        (fields, list)
    }

    /// FNV-1a over every field's bit pattern and the request order: two
    /// input sets are the same iff their fingerprints are.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for f in &self.fields {
            h.bytes(f.name.as_bytes());
            for d in f.data.shape().dims3() {
                h.word(d as u64);
            }
            for v in f.data.as_slice() {
                h.word(u64::from(v.to_bits()));
            }
        }
        for list in &self.requests {
            h.word(list.len() as u64);
            for r in list {
                match *r {
                    Request::Compress { field, warm } => {
                        h.word((field as u64) << 2 | u64::from(warm) << 1)
                    }
                    Request::Decompress { of } => h.word((of as u64) << 2 | 1),
                }
            }
        }
        h.0
    }

    /// Indices of the fields the datasets cover, in order.
    pub fn dataset_fields(&self) -> Vec<usize> {
        self.datasets.iter().flat_map(|(_, r)| r.clone()).collect()
    }
}

/// Fisher-Yates shuffle on the generator's stream.
fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_u32() as usize % (i + 1));
    }
}

/// 64-bit FNV-1a, fed whole words (fast enough to fingerprint every
/// reply of the request phase as it arrives).
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(
                c.try_into().expect("chunks_exact(8) yields 8 bytes"),
            ));
        }
        for &x in chunks.remainder() {
            self.word(u64::from(x));
        }
        self.word(b.len() as u64);
    }

    /// Fingerprint of one byte string.
    pub fn of(b: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(b);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("field"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 42, Sizes::QUICK);
            let b = Inputs::generate(w, 42, Sizes::QUICK);
            let c = Inputs::generate(w, 7, Sizes::QUICK);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            assert_eq!(a.requests, b.requests, "{}", w.name());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name());
        }
        let a = Inputs::generate(Workload::ServeTcp, 42, Sizes::QUICK);
        let c = Inputs::generate(Workload::ServeTcp, 7, Sizes::QUICK);
        assert_ne!(a.requests, c.requests, "request order follows the seed");
    }

    #[test]
    fn request_lists_are_well_formed() {
        for w in Workload::ALL {
            let inp = Inputs::generate(w, 3, Sizes::QUICK);
            assert!(!inp.datasets.is_empty() && inp.slab < inp.fields.len());
            assert!(inp.fields[inp.slab].data.shape().dims3()[0] >= inp.slab_z);
            for list in &inp.requests {
                assert!(matches!(list[0], Request::Compress { .. }));
                for (i, r) in list.iter().enumerate() {
                    match *r {
                        Request::Compress { field, .. } => assert!(field < inp.fields.len()),
                        Request::Decompress { of } => {
                            assert!(of < i && matches!(list[of], Request::Compress { .. }))
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn serve_mix_is_dealt_evenly_and_cold_fields_are_new() {
        // Four leading compress requests and 51 blocks of six: whole
        // rounds of the steady fields and of the cold edges.
        let sizes = Sizes {
            requests: 310,
            ..Sizes::QUICK
        };
        let a = Inputs::generate(Workload::ServeTcp, 11, sizes);
        let b = Inputs::generate(Workload::ServeTcp, 12, sizes);
        // Whatever the seed, the same number of compress requests of
        // each kind and size.
        let census = |inp: &Inputs, list: &[Request]| {
            let mut counts = std::collections::BTreeMap::new();
            for r in list {
                if let Request::Compress { field, warm } = *r {
                    *counts
                        .entry((warm, inp.fields[field].data.len()))
                        .or_insert(0usize) += 1;
                }
            }
            counts
        };
        assert_ne!(a.requests[0], b.requests[0]);
        assert_eq!(census(&a, &a.requests[0]), census(&b, &b.requests[0]));
        for list in &a.requests {
            let compress: Vec<_> = list
                .iter()
                .filter_map(|r| match *r {
                    Request::Compress { field, warm } => Some((field, warm)),
                    Request::Decompress { .. } => None,
                })
                .collect();
            // Four compress requests lead; the rest is two to one.
            assert_eq!(compress.len(), 4 + 204);
            assert_eq!(compress.iter().filter(|c| c.1).count(), compress.len() / 2);
            let mut cold: Vec<_> = compress.iter().filter(|c| !c.1).map(|c| c.0).collect();
            let n = cold.len();
            cold.sort_unstable();
            cold.dedup();
            assert_eq!(cold.len(), n, "a cold field is sent once");
            let mut sent_back: Vec<_> = list
                .iter()
                .filter_map(|r| match *r {
                    Request::Decompress { of } => Some(of),
                    Request::Compress { .. } => None,
                })
                .collect();
            let n = sent_back.len();
            sent_back.sort_unstable();
            sent_back.dedup();
            assert_eq!(sent_back.len(), n, "an archive is sent back once");
        }
        // Cold fields of one caller differ from each other.
        let mut prints: Vec<u64> = a
            .fields
            .iter()
            .filter(|f| f.name.starts_with("rtm-c0"))
            .map(|f| {
                Fnv::of(
                    &f.data
                        .as_slice()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let n = prints.len();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), n);
    }
}
