//! End-to-end properties of the sweep engine: parallel determinism,
//! cache/fresh structure equivalence, and disk-store/fresh equivalence.

use ring_experiments::tables::{table1_case, table2_case};
use ring_experiments::SweepSpec;
use ring_harness::scenario::{all_items, table1_items, table2_items};
use ring_harness::{available_jobs, JsonlSink, StructureCache, StructureStore, SweepEngine};
use ring_protocols::structures::{fresh_structures, SharedStructures, StructureProvider};
use std::sync::Arc;

fn test_spec() -> SweepSpec {
    SweepSpec {
        sizes: vec![9, 8, 12],
        universe_factors: vec![4, 16],
        repetitions: 2,
        seed: 77,
        structure_seeds: None,
        faults: None,
    }
}

/// Runs the full sweep-item list at the given job count and returns the
/// streamed JSONL bytes.
fn jsonl_at_jobs(jobs: usize) -> Vec<u8> {
    let spec = test_spec();
    let mut items = table1_items(&spec);
    items.extend(table2_items(&spec));
    let engine = SweepEngine::new(jobs);
    let sink = JsonlSink::new(Vec::new());
    let records = engine.run(&items, Some(&sink));
    assert_eq!(records.len(), items.len());
    sink.finish()
}

/// The tentpole determinism property: the same `SweepSpec` produces
/// byte-identical JSONL output at `--jobs 1`, `--jobs 2` and all cores,
/// regardless of scheduling order.
#[test]
fn jsonl_output_is_byte_identical_across_job_counts() {
    let serial = jsonl_at_jobs(1);
    assert!(!serial.is_empty());
    for jobs in [2, available_jobs()] {
        let parallel = jsonl_at_jobs(jobs);
        assert_eq!(
            serial, parallel,
            "JSONL output diverged between 1 and {jobs} jobs"
        );
    }
}

/// Scheduling and the structure store are invisible in the output: with
/// and without a disk-backed store, on clean and faulty specs, at one and
/// two jobs, every sweep streams exactly the serial storeless bytes.
#[test]
fn sweeps_are_byte_identical_across_jobs_stores_and_faults() {
    let clean = test_spec();
    let faulty = SweepSpec {
        faults: Some(ring_experiments::FaultAxes {
            drops: vec![0, 100],
            crashes: 1,
            churn: 0,
            adversarial: true,
        }),
        ..test_spec()
    };
    let dir = std::env::temp_dir().join(format!("ring-harness-jobs-e2e-{}", std::process::id()));
    for (label, spec) in [("clean", &clean), ("faulty", &faulty)] {
        let mut items = table1_items(spec);
        items.extend(table2_items(spec));
        let reference = {
            let engine = SweepEngine::new(1);
            let sink = JsonlSink::new(Vec::new());
            let records = engine.run(&items, Some(&sink));
            assert_eq!(records.len(), items.len());
            sink.finish()
        };
        for jobs in [1, 2] {
            // Storeless…
            let engine = SweepEngine::new(jobs);
            let sink = JsonlSink::new(Vec::new());
            engine.run(&items, Some(&sink));
            assert_eq!(sink.finish(), reference, "{label}: jobs {jobs} diverged");
            // …and against a disk-backed store.
            std::fs::remove_dir_all(&dir).ok();
            let store = Arc::new(StructureStore::at(&dir).unwrap());
            let engine = SweepEngine::with_store(jobs, store);
            let sink = JsonlSink::new(Vec::new());
            engine.run(&items, Some(&sink));
            assert_eq!(
                sink.finish(),
                reference,
                "{label}: store-backed jobs {jobs} diverged"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Cached structures must produce identical protocol outcomes to freshly
/// constructed ones: the cache serves bit-identical structures, so every
/// measurement (round counts, verification verdicts, predictions) agrees.
#[test]
fn cached_and_fresh_structures_produce_identical_outcomes() {
    let spec = test_spec();
    let fresh = fresh_structures();
    let cache = Arc::new(StructureCache::new());
    let cached: SharedStructures = cache.clone();
    for case in spec.cases() {
        assert_eq!(
            table1_case(&case, &fresh),
            table1_case(&case, &cached),
            "table1 diverged on case {case:?}"
        );
        assert_eq!(
            table2_case(&case, &fresh),
            table2_case(&case, &cached),
            "table2 diverged on case {case:?}"
        );
    }
    // The sweep contains even sizes, so the distinguisher machinery ran and
    // the second and later requests were served from the memo.
    let stats = cache.stats();
    assert!(stats.misses > 0, "no structures were ever requested");
    assert!(stats.hits > 0, "repeated cases never hit the cache");
}

/// The `all` scenario runs every experiment family through the engine and
/// reports a warm cache.
#[test]
fn all_items_run_verified_with_cache_hits() {
    let spec = SweepSpec {
        sizes: vec![9, 8],
        universe_factors: vec![4],
        repetitions: 1,
        seed: 3,
        structure_seeds: None,
        faults: None,
    };
    let scaling = ring_experiments::distinguisher_scaling::ScalingSpec {
        universe: 1 << 10,
        sizes: vec![8],
        seed: 41,
    };
    let items = all_items(&spec, &scaling);
    let engine = SweepEngine::new(2);
    let records = engine.run::<Vec<u8>>(&items, None);
    assert_eq!(records.len(), items.len());
    assert!(records.iter().all(|r| r.verified));
    let families: std::collections::BTreeSet<&str> =
        records.iter().map(|r| r.experiment.as_str()).collect();
    assert_eq!(
        families.into_iter().collect::<Vec<_>>(),
        vec![
            "distinguisher_scaling",
            "fig1",
            "fig2",
            "lower_bounds",
            "table1",
            "table2"
        ]
    );
    assert!(engine.cache_stats().hit_rate() > 0.0);
}

/// The two-tier store must be invisible in the output: the full item list
/// run against a disk-backed store (twice — the constructing pass and the
/// loading pass) streams exactly the bytes of a storeless run.
#[test]
fn disk_store_runs_are_byte_identical_to_storeless_runs() {
    let spec = test_spec();
    let scaling = ring_experiments::distinguisher_scaling::ScalingSpec {
        universe: 1 << 10,
        sizes: vec![8, 16],
        seed: 41,
    };
    let items = all_items(&spec, &scaling);
    let reference = {
        let engine = SweepEngine::new(2);
        let sink = JsonlSink::new(Vec::new());
        engine.run(&items, Some(&sink));
        sink.finish()
    };
    let dir = std::env::temp_dir().join(format!("ring-harness-store-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for pass in 0..2 {
        let store = Arc::new(StructureStore::at(&dir).unwrap());
        let engine = SweepEngine::with_store(2, store);
        let sink = JsonlSink::new(Vec::new());
        engine.run(&items, Some(&sink));
        assert_eq!(
            sink.finish(),
            reference,
            "store-backed pass {pass} diverged from the storeless bytes"
        );
        let stats = engine.store_stats();
        if pass == 0 {
            assert!(stats.misses > 0, "the first pass must construct");
            assert_eq!(stats.hits, 0);
        } else {
            assert_eq!(stats.misses, 0, "a warm store must serve everything");
            assert!(stats.hits > 0);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `WorkItem::structure_keys` must cover every structure a run actually
/// requests: a store prebuilt from the enumerated keys serves a full sweep
/// with zero store misses. (An under-approximation would construct at
/// sweep time; an over-approximation merely publishes unused files.)
#[test]
fn enumerated_structure_keys_cover_a_full_sweep() {
    let spec = test_spec();
    let scaling = ring_experiments::distinguisher_scaling::ScalingSpec {
        universe: 1 << 10,
        sizes: vec![8, 16],
        seed: 41,
    };
    let items = all_items(&spec, &scaling);
    let dir =
        std::env::temp_dir().join(format!("ring-harness-prebuild-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Prebuild exactly what the items enumerate.
    {
        use ring_combinat::StructureKind;
        use ring_protocols::structures::StructureProvider;
        let store = StructureStore::at(&dir).unwrap();
        for item in &items {
            for (key, hint) in item.structure_keys() {
                match key.kind {
                    StructureKind::StrongDistinguisher => {
                        let strong = store.strong_distinguisher(key.universe, key.seed);
                        for i in 0..strong.prefix_size_for(hint.max(2)) {
                            strong.set(i);
                        }
                    }
                    StructureKind::Distinguisher => {
                        store.distinguisher(key.universe, key.n as usize, key.seed);
                    }
                    StructureKind::SelectiveFamily => {
                        store.selective_family(key.universe, key.n as usize, key.seed);
                    }
                }
            }
        }
        store.flush().unwrap();
    }

    let engine = SweepEngine::with_store(2, Arc::new(StructureStore::at(&dir).unwrap()));
    engine.run::<Vec<u8>>(&items, None);
    let stats = engine.store_stats();
    assert_eq!(
        stats.misses, 0,
        "a prebuilt store must already hold every requested structure"
    );
    assert!(stats.hits > 0, "the sweep never consulted the store");
    std::fs::remove_dir_all(&dir).ok();
}

/// The seed-diverse storage acceptance: prebuilding a K-seed sweep into a
/// content-addressed store publishes O(structures) blobs — one shared
/// strong blob per universe — and strictly fewer bytes than one blob per
/// seed would take; a sweep against the prebuilt store then reports zero
/// store misses.
#[test]
fn seed_diverse_store_beats_one_file_per_seed_and_serves_zero_miss() {
    use ring_combinat::StructureKind;
    use ring_protocols::structures::StructureProvider;
    let spec = SweepSpec {
        sizes: vec![8, 12],
        universe_factors: vec![16],
        repetitions: 4,
        seed: 77,
        structure_seeds: Some(4),
        faults: None,
    };
    let mut items = table1_items(&spec);
    items.extend(table2_items(&spec));
    // One entry per distinct key, hint maximised (what prebuild does).
    let mut keys: Vec<(ring_combinat::StructureKey, usize)> = Vec::new();
    for item in &items {
        for (key, hint) in item.structure_keys() {
            match keys.iter_mut().find(|(k, _)| *k == key) {
                Some((_, existing)) => *existing = (*existing).max(hint),
                None => keys.push((key, hint)),
            }
        }
    }
    let strong_keys: Vec<_> = keys
        .iter()
        .filter(|(k, _)| k.kind == StructureKind::StrongDistinguisher)
        .collect();
    assert_eq!(
        strong_keys.len(),
        8,
        "2 even universes x 4 schedule seeds: {strong_keys:?}"
    );

    let dir = std::env::temp_dir().join(format!("ring-harness-seeded-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // One blob per seed: every strong key's full prefix stored on its own.
    let one_blob_per_seed_bytes: u64 = strong_keys
        .iter()
        .map(|(key, hint)| {
            let prefix = ring_combinat::SharedStrongDistinguisher::new(key.universe, key.seed)
                .prefix_size_for((*hint).max(2));
            ring_combinat::codec::blob_len(key.universe, prefix) as u64
        })
        .sum();
    // The same prebuild demand against the content-addressed store (every
    // seed view materialised to its full prefix, then flushed).
    {
        let store = StructureStore::at(&dir).unwrap();
        for (key, hint) in &keys {
            match key.kind {
                StructureKind::StrongDistinguisher => {
                    let strong = store.strong_distinguisher(key.universe, key.seed);
                    for i in 0..strong.prefix_size_for((*hint).max(2)) {
                        strong.set(i);
                    }
                }
                StructureKind::Distinguisher => {
                    store.distinguisher(key.universe, key.n as usize, key.seed);
                }
                StructureKind::SelectiveFamily => {
                    store.selective_family(key.universe, key.n as usize, key.seed);
                }
            }
        }
        store.flush().unwrap();
    }

    let dir_bytes = |dir: &std::path::Path| -> u64 {
        fn walk(dir: &std::path::Path, total: &mut u64) {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, total);
                } else {
                    *total += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        let mut total = 0;
        walk(dir, &mut total);
        total
    };
    let store_bytes = dir_bytes(&dir);
    assert!(
        store_bytes < one_blob_per_seed_bytes,
        "content addressing must beat one blob per seed: {store_bytes} vs \
{one_blob_per_seed_bytes} bytes"
    );
    // O(structures) blobs, not O(K) copies: one strong blob per universe.
    let stats = ring_harness::store::store_dir_stats(&dir).unwrap();
    assert_eq!(stats.strong.files, 2);

    // A second pass over the prebuilt store: zero store misses, identical
    // bytes to the storeless run.
    let reference = {
        let engine = SweepEngine::new(2);
        let sink = JsonlSink::new(Vec::new());
        engine.run(&items, Some(&sink));
        sink.finish()
    };
    let engine = SweepEngine::with_store(2, Arc::new(StructureStore::at(&dir).unwrap()));
    let sink = JsonlSink::new(Vec::new());
    engine.run(&items, Some(&sink));
    assert_eq!(sink.finish(), reference);
    let store_stats = engine.store_stats();
    assert_eq!(
        store_stats.misses, 0,
        "a prebuilt store must serve everything"
    );
    assert!(store_stats.hits > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The gc-vs-claim race: while publishers are busy claiming keys and
/// publishing blob + index-entry pairs, concurrent `gc` passes must never
/// delete a blob a live index entry references — afterwards the store
/// verifies clean and every published key loads.
#[test]
fn gc_never_deletes_a_blob_a_live_index_entry_references() {
    let dir = std::env::temp_dir().join(format!("ring-harness-gcrace-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(StructureStore::at(&dir).unwrap());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Publishers start only after the first gc pass, so the collector has
    // run at least once however the threads are scheduled.
    let first_pass = Arc::new(std::sync::Barrier::new(4));

    let publishers: Vec<_> = (0..3u64)
        .map(|t| {
            let store = Arc::clone(&store);
            let first_pass = Arc::clone(&first_pass);
            std::thread::spawn(move || {
                first_pass.wait();
                for seed in 0..12u64 {
                    store.distinguisher(128, 4, 1000 * t + seed);
                }
            })
        })
        .collect();
    let collector = {
        let dir = dir.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut passes = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                ring_harness::store::gc_store_dir(&dir).unwrap();
                passes += 1;
                if passes == 1 {
                    first_pass.wait();
                }
            }
            passes
        })
    };
    for p in publishers {
        p.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let passes = collector.join().unwrap();
    assert!(passes > 0, "gc never ran concurrently with the publishers");

    // Every index entry still resolves to a present, valid blob...
    for report in ring_harness::store::scan_store_dir(&dir).unwrap() {
        assert!(report.error.is_none(), "{report:?}");
    }
    // ...and a fresh store loads every key with zero misses.
    let second = StructureStore::at(&dir).unwrap();
    for t in 0..3u64 {
        for seed in 0..12u64 {
            second.distinguisher(128, 4, 1000 * t + seed);
        }
    }
    assert_eq!(second.stats().misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}
