//! # ring-serve
//!
//! Sweep-as-a-service (`schema: ring-serve/v1`): the long-running daemon
//! behind `ringlab serve` and the TCP side of `ringlab worker --connect`.
//!
//! The crate turns the distrib layer into a network service without
//! changing any of its guarantees. Three small modules:
//!
//! * [`http`] — a hand-rolled HTTP/1.1 request parser and response
//!   builders, fed by one thread per connection (no external deps).
//! * [`pool`] — the registered-worker pool plus
//!   [`pool::TcpWorkerTransport`], the
//!   [`ring_distrib::WorkerTransport`] implementation that leases one
//!   connection per shard attempt, sends a job frame and hands the socket
//!   to the orchestrator as the attempt's `ring-distrib/v1` stream.
//! * [`daemon`] — the blocking accept loop: run submission over HTTP/JSON,
//!   multi-tenant `runs/run-NNNN/` directories with standard
//!   `ring-distrib/v1` manifests (every daemon run dir is `ringlab
//!   resume`-able), a single scheduler thread driving the unchanged
//!   orchestrator, and per-case JSONL streamed to subscribers as shards
//!   land.
//!
//! ## Wire format
//!
//! Worker registration and job dispatch are newline-delimited JSON frames
//! on one TCP connection:
//!
//! * worker → daemon: `{"event":"hello","schema":"ring-serve/v1",
//!   "worker":"name"}` — once, on connect (and on every reconnect).
//! * daemon → worker: `{"event":"job","argv":[…]}` — a `ringlab worker …`
//!   argv built by [`ring_distrib::SpecParams::worker_args`], the same
//!   argv the child-process dispatcher would spawn.
//! * worker → daemon: the verbatim `ring-distrib/v1` protocol lines
//!   (start event, record lines, done event) — the existing stdio wire
//!   format *is* the TCP frame payload.
//! * daemon → worker: `{"event":"shutdown"}` — dismisses the worker.
//!
//! Because the payload and its validation are unchanged, byte-identity at
//! any worker count and crash-resume survive the transport swap: a worker
//! disconnect is a broken protocol stream, which the orchestrator already
//! treats as a retryable shard failure.
//!
//! The crate knows nothing about rings or experiments: the harness injects
//! a [`daemon::SpecResolver`] to validate submissions and compute
//! fingerprints, and everything else flows through `ring-distrib`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod daemon;
pub mod http;
pub mod pool;

/// The service schema identifier (HTTP bodies and TCP frames).
pub const SCHEMA: &str = "ring-serve/v1";

/// Takes the guard out of a lock or condvar-wait result even when another
/// thread panicked while holding the lock. Every connection has its own
/// thread, so one panicking handler must not poison the worker pool, run
/// table or run queue for all the others. What those locks guard is plain
/// bookkeeping (lists, counters, statuses) that later calls use as found.
pub(crate) fn recover<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use daemon::{serve, ResolvedSpec, ServeConfig, SpecResolver};
pub use pool::{TcpWorkerTransport, WorkerPool};
