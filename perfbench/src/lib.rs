//! The cdat benchmark: four workloads driven through the release `cdat`
//! binary, an in-process traced replay of the same inputs, and the
//! report both feed. See `README.md` in this directory.

pub mod check;
pub mod client;
pub mod inputs;
pub mod procfs;
pub mod replay;
pub mod stats;
pub mod workloads;
