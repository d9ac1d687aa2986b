//! # ring-harness
//!
//! The parallel scenario engine of the reproduction: runs sweeps of
//! thousands of experiment cases as fast as the hardware allows, with
//! results that are bit-identical regardless of thread count.
//!
//! The crate has four layers:
//!
//! * [`executor`] — an order-preserving parallel map over
//!   `std::thread`. Worker threads share one claim cursor and each takes
//!   the next unclaimed item; results come back in item order.
//! * [`cache`] / [`store`] — the two-tier structure pathway. Tier 1 is
//!   the [`StructureCache`]: a sharded, `Arc`-backed memo of the
//!   expensive combinatorial structures (distinguishers and
//!   strong-distinguisher sequences; selective families are implicit and
//!   built on demand) keyed by `(kind, N, n, seed)`, shared by every
//!   worker thread. Tier 2 — the
//!   [`StructureStore`]'s optional on-disk directory of
//!   `structure-store/v3` files — extends the memo across
//!   worker *processes*: the first worker of a fleet to claim a key
//!   constructs and publishes, everyone else loads bit-identical bytes.
//!   The store implements
//!   [`StructureProvider`](ring_protocols::structures::StructureProvider),
//!   so every worker's `Network` draws from the same pathway and each
//!   structure is constructed once per fleet instead of once per case or
//!   process — the dominant per-case cost at large `N`.
//! * [`sink`] — the streaming [`JsonlSink`]: one JSON line per finished
//!   case, emitted incrementally but in deterministic
//!   case order via a reorder buffer.
//! * [`scenario`] / [`engine`] — [`WorkItem`]s wrap the per-case
//!   experiment functions of `ring-experiments`;
//!   [`SweepEngine`] ties the three layers together.
//!
//! [`cli`] exposes everything as the **`ringlab`** binary:
//!
//! ```text
//! ringlab all --quick --jobs 2
//! ringlab sweep --sizes 32,64 --universe-factors 4,64 --reps 5 --jobs 8
//! ringlab sweep --shards 8                  # 8 worker processes, merged
//! ringlab sweep --shard 2/8 --jsonl s2.jsonl # one shard, by hand
//! ringlab resume results/distrib/sweep       # finish a crashed run
//! ```
//!
//! Above the in-process engine sits the **distributed layer**
//! (`ring-distrib`, wired up by [`cli`]): `--shards M` plans the case
//! index space into M contiguous ranges, spawns `ringlab worker` child
//! processes speaking a line-delimited JSON protocol over stdout, tracks
//! progress in a checkpointed `manifest.json` (per-shard status, retries,
//! checksums, cache/store stats) and k-way-merges the shard files into
//! output byte-identical to the single-process run. `worker`, `merge` and
//! `resume` expose the layer's pieces individually, so a sweep can also be
//! hand-partitioned across machines and reassembled later.
//!
//! ## Determinism
//!
//! Three properties make `--jobs N` bit-identical to `--jobs 1`: case
//! seeds are a pure splitmix64 mix of `(seed, n, factor, rep)`; cached
//! structures are bit-identical to freshly constructed ones (both
//! ultimately call the same seeded constructions); and the sink reorders
//! completions back into case order. The harness test-suite pins each
//! property down separately and end to end — and, through the real
//! `ringlab` binary, extends the same guarantee to `--shards M` for every
//! M, including after worker crashes and `resume`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod cli;
pub mod engine;
pub mod executor;
pub mod scenario;
pub mod sink;
pub mod store;

pub use cache::{CacheStats, StructureCache};
pub use engine::SweepEngine;
pub use executor::{available_jobs, parallel_map};
pub use scenario::{CaseRecord, WorkItem};
pub use sink::JsonlSink;
pub use store::{StoreStats, StructureStore};
