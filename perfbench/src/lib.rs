//! Benchmark of the G-MAP reproduction: golden-checked figure sweeps and
//! a single-node `gmap serve` traffic mix, with per-layer spans recorded
//! around the calls into each crate's public functions.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod host;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;
