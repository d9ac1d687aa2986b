//! # perfbench
//!
//! The repository's benchmark: three workloads (`tables`, `faults`,
//! `fleet`) timed end to end with tracing off, and a separate traced run
//! that replays each workload layer by layer through the crates' public
//! APIs and states a per-crate time budget with its unattributed
//! remainder. The binary (`src/main.rs`) is the one command; this library
//! holds the pieces its tests pin down: the seeded workload generator, the
//! order statistics and the span recorder.

pub mod stats;
pub mod trace;
pub mod workload;
