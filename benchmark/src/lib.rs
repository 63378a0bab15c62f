//! The repo benchmark: four workloads, eleven end-to-end metrics and a
//! per-layer ledger, all measured from outside the crates through their
//! public functions. `README.md` says what is measured and why;
//! `../BENCHMARK.json` declares the names, units and bounds.

pub mod aa;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod loops;
pub mod run;
pub mod schema;
pub mod spans;
pub mod stats;
