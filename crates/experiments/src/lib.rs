//! # ring-experiments
//!
//! Experiment harness that regenerates the evaluation artefacts of
//! "Deterministic Symmetry Breaking in Ring Networks": the complexity
//! tables (Tables I and II), the reduction figures (Figures 1 and 2), the
//! distinguisher-size scaling of Section IV and the impossibility /
//! lower-bound audits of Section II.
//!
//! Each experiment is a pure per-case function (e.g.
//! [`tables::table1_case`]) from one [`Case`] of a [`SweepSpec`] and a
//! [`SharedStructures`](ring_protocols::structures::SharedStructures)
//! provider to a set of [`Measurement`]s. The `ringlab` command-line
//! interface of the `ring-harness` crate fans these functions out over the
//! sweep's cases on worker threads with a shared structure cache; a serial
//! caller maps one over `spec.cases()` with
//! [`fresh_structures`](ring_protocols::structures::fresh_structures).
//!
//! Run experiments with the unified CLI:
//!
//! ```text
//! cargo run --release -p ring-harness --bin ringlab -- table1
//! cargo run --release -p ring-harness --bin ringlab -- all --quick --jobs 2
//! cargo run --release -p ring-harness --bin ringlab -- \
//!     sweep --sizes 32,64 --universe-factors 4,64 --reps 5 --jobs 8
//! ```
//!
//! Results stream as JSON-lines while the sweep runs and are printed as
//! markdown tables at the end.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod distinguisher_scaling;
pub mod faults;
pub mod lower_bounds;
pub mod reductions;
pub mod report;
pub mod sweep;
pub mod tables;

pub use report::{format_markdown_table, Measurement};
pub use sweep::{Case, FaultAxes, SweepSpec};
