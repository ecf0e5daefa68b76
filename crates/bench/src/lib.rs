//! # slsb-bench — the reproduction harness
//!
//! One regeneration function per table and figure of the paper (plus the
//! extension studies), shared by the `repro` binary and `slsb-benchmark`.
//! See [`experiments`] for the index.

pub mod cli;
pub mod diff;
pub mod experiments;
pub mod perf;

pub use diff::{diff, ArtifactKind, DiffReport};
pub use experiments::{run_experiment, ExperimentOutput, ReproConfig};
pub use perf::{run_benchmarks, BenchConfig, BenchReport, CountingAllocator};
