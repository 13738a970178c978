//! The repo benchmark: four workloads served by an in-process
//! `vdb_server::serve` over loopback TCP, end-to-end metrics from an
//! untraced run, per-layer metrics and a layer budget from a traced run.
//! See `README.md` beside this crate.

pub mod check;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod layers;
pub mod load;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
