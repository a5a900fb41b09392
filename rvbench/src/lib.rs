//! # rvbench — the repository's benchmark
//!
//! Four campaign workloads run through the public `rv_study::run_campaign`
//! entry with nothing armed (the end-to-end metrics), then one traced pass
//! per workload that re-drives the same plan from these files with a span
//! around each call into a layer (the per-layer metrics). See `README.md`
//! for the tables and `../BENCHMARK.json` for the contract.
//!
//! Every number is labelled **host** (what the simulator costs) or **sim**
//! (what the modelled 2001 Internet did). Sim statistics are deterministic
//! in the seed and must be bit-identical between two commits that claim
//! only a speed-up; the sim digest checks that they are. The model's
//! accuracy against the paper is not this benchmark's business — it lives
//! in `tests/campaign.rs` — so no accuracy figure is printed here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod digest;
pub mod json;
pub mod kernels;
pub mod mirror;
pub mod procstat;
pub mod rep;
pub mod report;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workload;
