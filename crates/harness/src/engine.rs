//! The sweep engine: executor + two-tier structure store + streaming sink.
//!
//! [`SweepEngine::run`] fans a list of [`WorkItem`]s out over the
//! work-stealing executor. Every worker draws combinatorial structures
//! from one shared [`StructureStore`] — tier 1 the in-memory cache every
//! thread shares, tier 2 an optional on-disk directory every worker
//! *process* of a sweep shares — and streams its finished [`CaseRecord`]
//! through the ordered JSONL sink the moment it completes. Results are
//! deterministic: the record list, the JSONL bytes and the rendered
//! markdown are identical for every `--jobs` value, with or without the
//! disk tier.

use crate::cache::{CacheStats, StructureCache};
use crate::executor::{run_work_stealing_with_stats, ExecutorStats};
use crate::scenario::{CaseRecord, WorkItem};
use crate::sink::JsonlSink;
use crate::store::{StoreStats, StructureStore};
use ring_protocols::structures::SharedStructures;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The parallel scenario engine.
pub struct SweepEngine {
    jobs: usize,
    store: Arc<StructureStore>,
    executed: AtomicU64,
    steals: AtomicU64,
}

impl SweepEngine {
    /// Creates an engine running `jobs` worker threads (`0` = all cores)
    /// with a fresh memory-only structure store.
    pub fn new(jobs: usize) -> Self {
        Self::with_store(jobs, Arc::new(StructureStore::in_memory()))
    }

    /// Creates an engine over an existing store (a disk-backed one, or a
    /// shared in-memory store carrying warm structures across consecutive
    /// sweeps of one CLI invocation).
    pub fn with_store(jobs: usize, store: Arc<StructureStore>) -> Self {
        SweepEngine {
            jobs,
            store,
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// The configured worker count (`0` = all cores).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine's two-tier structure store.
    pub fn store(&self) -> &Arc<StructureStore> {
        &self.store
    }

    /// The store's in-memory tier.
    pub fn cache(&self) -> &StructureCache {
        self.store.cache()
    }

    /// In-memory-tier effectiveness so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache_stats()
    }

    /// Disk-tier effectiveness so far (all zero without a disk tier).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Executor scheduling counters accumulated over every run of this
    /// engine.
    pub fn exec_stats(&self) -> ExecutorStats {
        ExecutorStats {
            executed: self.executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Runs every item, streaming each finished record to `sink` (as one
    /// compact JSON line, in case order) and returning all records in case
    /// order.
    pub fn run<W: Write + Send>(
        &self,
        items: &[WorkItem],
        sink: Option<&JsonlSink<W>>,
    ) -> Vec<CaseRecord> {
        self.run_with_offset(items, 0, sink)
    }

    /// Runs a contiguous slice of a larger sweep: item `i` of the slice is
    /// case `offset + i` of the sweep, and its record (and JSONL line)
    /// carries that **global** index. This is what a shard worker runs —
    /// the emitted lines are byte-identical to the corresponding lines of
    /// the full single-process sweep. The sink still receives slice-local
    /// indices for ordering.
    pub fn run_with_offset<W: Write + Send>(
        &self,
        items: &[WorkItem],
        offset: usize,
        sink: Option<&JsonlSink<W>>,
    ) -> Vec<CaseRecord> {
        let structures: SharedStructures = self.store.clone();
        let obs = ring_obs::global();
        let structure_wait = obs.histogram("case_structure_wait_ns");
        let execute = obs.histogram("case_execute_ns");
        let sink_reorder = obs.histogram("sink_reorder_ns");
        let (records, stats) = run_work_stealing_with_stats(items, self.jobs, |index, item| {
            let _span = ring_obs::span!("case", index = offset + index);
            // Split case time into the structure pathway (store waits,
            // constructions) and protocol execution proper: the store's
            // thread-local accumulator collects every provider call made
            // while this case runs on this thread.
            crate::store::reset_structure_wait();
            let case_started = std::time::Instant::now();
            let record = item.run_to_record(offset + index, &structures);
            let case_ns = ring_obs::elapsed_ns(case_started);
            let wait_ns = crate::store::take_structure_wait_ns();
            structure_wait.record(wait_ns);
            execute.record(case_ns.saturating_sub(wait_ns));
            if let Some(sink) = sink {
                let line = serde_json::to_string(&record).expect("serializable record");
                let emit_started = std::time::Instant::now();
                sink.emit(index, &line);
                sink_reorder.record(ring_obs::elapsed_ns(emit_started));
            }
            record
        });
        self.executed.fetch_add(stats.executed, Ordering::Relaxed);
        self.steals.fetch_add(stats.steals, Ordering::Relaxed);
        // Persist lazily materialised structures (strong-distinguisher
        // prefixes) so the rest of the fleet loads them. Non-fatal: a full
        // disk costs the fleet reconstruction time, never correctness.
        if let Err(e) = self.store.flush() {
            eprintln!("ring-harness: structure store flush: {e}");
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::table1_items;
    use ring_experiments::SweepSpec;

    #[test]
    fn engine_streams_ordered_jsonl_and_returns_records() {
        let items = table1_items(&SweepSpec {
            sizes: vec![9, 8],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 3,
            structure_seeds: None,
            faults: None,
        });
        let engine = SweepEngine::new(2);
        let sink = JsonlSink::new(Vec::new());
        let records = engine.run(&items, Some(&sink));
        assert_eq!(records.len(), items.len());
        let bytes = sink.finish();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), items.len());
        assert!(text.lines().next().unwrap().contains("\"case_index\":0"));
        // The sweep reuses the strong distinguisher across problems/cases.
        assert!(engine.cache_stats().hits > 0);
        assert_eq!(engine.exec_stats().executed, items.len() as u64);
    }

    #[test]
    fn offset_runs_emit_the_full_sweep_lines() {
        let items = table1_items(&SweepSpec {
            sizes: vec![9, 8],
            universe_factors: vec![4],
            repetitions: 2,
            seed: 3,
            structure_seeds: None,
            faults: None,
        });
        // The whole sweep in one process…
        let engine = SweepEngine::new(1);
        let sink = JsonlSink::new(Vec::new());
        engine.run(&items, Some(&sink));
        let whole = String::from_utf8(sink.finish()).unwrap();

        // …equals the concatenation of two offset slices, line for line.
        let split = items.len() / 2;
        let mut stitched = String::new();
        for (slice, offset) in [(&items[..split], 0), (&items[split..], split)] {
            let engine = SweepEngine::new(2);
            let sink = JsonlSink::new(Vec::new());
            let records = engine.run_with_offset(slice, offset, Some(&sink));
            assert!(records
                .iter()
                .enumerate()
                .all(|(i, r)| r.case_index == offset + i));
            stitched.push_str(&String::from_utf8(sink.finish()).unwrap());
        }
        assert_eq!(stitched, whole);
    }
}
