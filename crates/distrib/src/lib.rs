//! # ring-distrib
//!
//! The distributed sweep layer of the reproduction: everything needed to
//! split one deterministic sweep across many worker **processes** — on one
//! machine or a fleet — and reassemble output byte-identical to a
//! single-process run.
//!
//! The crate is deliberately independent of the scenario engine (it knows
//! nothing about rings or experiments); `ring-harness` wires it to the
//! engine and exposes it as `ringlab sweep --shards M` plus the `worker`,
//! `merge` and `resume` subcommands. The layers:
//!
//! * [`plan`] — the shard planner: `0..total` case indices into `M`
//!   contiguous, balanced ranges, identically computable by every
//!   participant.
//! * [`protocol`] — the worker stdio protocol (`schema: ring-distrib/v1`):
//!   a start event, raw record lines streaming back as cases complete, and
//!   a done event carrying the shard checksum and the worker's
//!   `ring-obs/v1` metrics snapshot.
//! * [`manifest`] — `manifest.json`: spec parameters + fingerprint, the
//!   shard plan, and per-shard status / attempts / record counts /
//!   checksums / metrics snapshots. Checkpointed atomically after
//!   every transition; `resume` trusts only shards whose files still match.
//! * [`orchestrator`] — supervises worker attempts with bounded
//!   concurrency, validates their streams, retries failed shards, and
//!   checkpoints the manifest. *Where* an attempt runs sits behind the
//!   [`orchestrator::WorkerTransport`] seam: child processes via
//!   [`std::process::Command`] ([`orchestrator::ProcessTransport`]) or
//!   remote TCP workers (the `ring-serve` daemon).
//! * [`merge`] — the deterministic k-way merger: shard JSONL files in,
//!   one `case_index`-ordered stream out, byte-identical to the
//!   single-process stream (gaps and duplicates are hard errors).
//! * [`checksum`] — streaming FNV-1a-64 digests pinning shard file
//!   contents end to end (worker → orchestrator → disk → resume → merge).
//!   The hasher is shared with `ring_combinat::codec`, so shard files and
//!   `structure-store/v3` files are pinned by one implementation.
//!
//! ## Determinism
//!
//! The single-process engine already guarantees byte-identical JSONL for
//! every `--jobs` value. This crate extends the guarantee across process
//! boundaries: the plan is a pure function of `(total, M)`, workers emit
//! exactly the lines the single-process sweep would emit for their range
//! (global case indices included), and the merge refuses any stream it
//! cannot prove to be the full sequence `0..total`. The harness
//! integration tests pin `merge(shards(M)) == sweep --jobs N` for several
//! `M`, including after crash-and-resume.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod checksum;
pub mod manifest;
pub mod merge;
pub mod orchestrator;
pub mod plan;
pub mod protocol;

pub use checksum::{digest_file, format_checksum, FileDigest, Fnv1a64};
pub use manifest::{
    shard_file_name, Manifest, ShardEntry, ShardStatus, SpecFlag, SpecFlagKind, SpecParams,
    SPEC_FLAGS,
};
pub use merge::{merge_shards, MergeError, MergeReport};
pub use orchestrator::{
    read_bounded_line, run_pending_shards, run_pending_shards_with, OrchestratorOptions,
    ProcessTransport, RunOutcome, ShardAttempt, WorkerTransport,
};
pub use plan::{plan_shards, ShardRange, MAX_SHARDS};
pub use protocol::{
    extract_case_index, fail_after_from_env, parse_worker_line, DoneEvent, ShardTally, StartEvent,
    WorkerLine, CACHE_HITS, CACHE_MISSES, SCHEMA, STORE_HITS, STORE_MISSES,
};
