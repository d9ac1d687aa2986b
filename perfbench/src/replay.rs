//! The layer-by-layer replay of the traced run.
//!
//! One thread replays a workload through each crate's public API in turn,
//! with a span around every call: item enumeration (`experiments`),
//! structure construction (`combinat`), store publish and load
//! (`harness`), every case through `WorkItem::run` on warm structures
//! (`experiments`, which from outside also covers `ring-protocols`),
//! record serialisation into a `JsonlSink` (`harness`), round execution
//! under both engines (`sim`) and, for `fleet`, revalidation and merge of a
//! completed daemon run directory (`distrib`). The replay's JSONL bytes are
//! an in-process single-thread pass, so they double as the reference the
//! end-to-end passes are checked against.

use perfbench::trace::Tracer;
use perfbench::workload::{derive_seed, digest, Workload, FLEET_SIZES};
use ring_combinat::{StructureKey, StructureKind};
use ring_distrib::{merge_shards, Manifest};
use ring_harness::{CaseRecord, JsonlSink, StructureStore, WorkItem};
use ring_protocols::structures::{fresh_structures, SharedStructures, StructureProvider};
use ring_sim::{EngineKind, LocalDirection, RingConfig, RingState, RoundBuffers};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Rounds timed per configuration and engine.
const ROUNDS: usize = 16;
/// Largest ring size the event engine is timed at: a round with random
/// directions resolves Θ(n²) collisions, which took 14 ms at n = 128 and
/// 115 ms at n = 256 on a 2-vCPU Xeon. `fleet` (n ≥ 256) times none.
const EVENT_MAX_N: usize = 128;
/// Tier-1 lookups timed per structure key.
const TIER1_CALLS: usize = 256;

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    /// The replay's JSONL bytes (the single-thread reference output).
    pub output: Vec<u8>,
    /// Correctness problems the replay found.
    pub problems: Vec<String>,
    pub enumerate_s: f64,
    pub construct_s: f64,
    pub structures: usize,
    pub set_mb: f64,
    /// Store publication self time: publish calls minus the construction
    /// they repeat, plus the flush.
    pub publish_s: f64,
    pub load_s: f64,
    pub store_mb: f64,
    pub tier1_hit_ns: f64,
    /// Per-case `WorkItem::run` times.
    pub case_s: Vec<f64>,
    /// Σ `rounds_total` over the records that count rounds.
    pub rounds: f64,
    /// Those rounds priced at the timed ns per round of their ring size.
    pub round_time_s: f64,
    pub sink_s: f64,
    pub analytic_round_ns: f64,
    pub event_round_ns: f64,
    pub revalidate_s: f64,
    pub merge_s: f64,
    pub merged_mb: f64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The distinct structure keys of an item list, each with the largest
/// materialisation hint any item asks for.
fn distinct_keys(items: &[WorkItem]) -> Vec<(StructureKey, usize)> {
    let mut keys: Vec<(StructureKey, usize)> = Vec::new();
    for item in items {
        for (key, hint) in item.structure_keys() {
            match keys.iter_mut().find(|(k, _)| *k == key) {
                Some((_, existing)) => *existing = (*existing).max(hint),
                None => keys.push((key, hint)),
            }
        }
    }
    keys
}

/// Requests one structure from a provider, materialising a strong
/// sequence up to the key's hint; returns the bytes of its sets.
fn request(provider: &dyn StructureProvider, key: &StructureKey, hint: usize) -> usize {
    let n = key.n as usize;
    match key.kind {
        StructureKind::StrongDistinguisher => {
            let strong = provider.strong_distinguisher(key.universe, key.seed);
            (0..strong.prefix_size_for(hint.max(2)))
                .map(|i| strong.set(i).words().len() * 8)
                .sum()
        }
        StructureKind::Distinguisher => provider
            .distinguisher(key.universe, n, key.seed)
            .sets()
            .iter()
            .map(|s| s.words().len() * 8)
            .sum(),
        StructureKind::SelectiveFamily => provider
            .selective_family(key.universe, n, key.seed)
            .sets()
            .iter()
            .map(|s| s.words().len() * 8)
            .sum(),
    }
}

/// A tier-1 lookup: the provider call alone, no materialisation.
fn lookup(provider: &dyn StructureProvider, key: &StructureKey) {
    let n = key.n as usize;
    match key.kind {
        StructureKind::StrongDistinguisher => {
            black_box(provider.strong_distinguisher(key.universe, key.seed));
        }
        StructureKind::Distinguisher => {
            black_box(provider.distinguisher(key.universe, n, key.seed));
        }
        StructureKind::SelectiveFamily => {
            black_box(provider.selective_family(key.universe, n, key.seed));
        }
    }
}

/// The ring configurations the round timing runs on, by ascending ring
/// size: the first case of each size of an in-process workload, or one
/// random configuration per `fleet` size.
fn round_configs(workload: Workload, items: &[WorkItem], seed: u64) -> Vec<RingConfig> {
    if workload == Workload::Fleet {
        return FLEET_SIZES
            .iter()
            .map(|&n| {
                RingConfig::builder(n)
                    .random_positions(derive_seed(seed, 100 + n as u64))
                    .random_chirality(derive_seed(seed, 200 + n as u64))
                    .build()
                    .expect("random configurations are valid")
            })
            .collect();
    }
    let mut configs: Vec<RingConfig> = Vec::new();
    for item in items {
        let case = match item {
            WorkItem::Table1(case) | WorkItem::Table2(case) | WorkItem::Faults { case, .. } => case,
            _ => continue,
        };
        if configs.iter().all(|c| c.len() != case.n) {
            configs.push(case.config());
        }
    }
    configs.sort_by_key(RingConfig::len);
    configs
}

/// Seeded random left/right directions: `ROUNDS` rounds of `n`.
fn directions(n: usize, seed: u64) -> Vec<Vec<LocalDirection>> {
    (0..ROUNDS as u64)
        .map(|round| {
            (0..n as u64)
                .map(|agent| {
                    if derive_seed(seed ^ (round << 32), agent) & 1 == 0 {
                        LocalDirection::Left
                    } else {
                        LocalDirection::Right
                    }
                })
                .collect()
        })
        .collect()
}

/// Ns per round of one engine on each configuration it is timed at, in
/// order: every configuration for the analytic engine, those up to
/// `EVENT_MAX_N` for the event engine. The set depends only on the
/// workload, so a faster engine cannot change what is timed.
fn time_rounds(
    tr: &mut Tracer,
    parent: usize,
    engine: EngineKind,
    configs: &[RingConfig],
    inputs: &[Vec<Vec<LocalDirection>>],
) -> Result<Vec<f64>, String> {
    let (name, max_n) = match engine {
        EngineKind::Analytic => ("sim.analytic_rounds", usize::MAX),
        EngineKind::Event => ("sim.event_rounds", EVENT_MAX_N),
    };
    let mut per_round = Vec::with_capacity(configs.len());
    for (config, rounds) in configs.iter().zip(inputs) {
        if config.len() > max_n {
            break;
        }
        let id = tr.begin(name, "sim", Some(parent));
        let mut state = RingState::new(config);
        let mut bufs = RoundBuffers::new();
        for dirs in rounds {
            black_box(state.execute_round_into(dirs, engine, &mut bufs))
                .map_err(|e| format!("round execution failed: {e}"))?;
        }
        tr.end(id);
        per_round.push(tr.spans()[id].duration_ns() as f64 / rounds.len() as f64);
    }
    Ok(per_round)
}

/// Replays `workload` under the span `root`. `tmp` hosts the replay's
/// structure store; `run_dir` is a completed daemon run of the same
/// workload and seed (`fleet` only).
pub fn replay(
    tr: &mut Tracer,
    root: usize,
    workload: Workload,
    seed: u64,
    tmp: &Path,
    run_dir: Option<&Path>,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let parent = Some(root);

    let id = tr.begin("experiments.enumerate", "experiments", parent);
    let items = workload.items(seed);
    tr.end(id);
    out.enumerate_s = secs(tr.spans()[id].duration_ns());
    let keys = distinct_keys(&items);
    out.structures = keys.len();

    // Construction alone, every structure from scratch.
    let fresh = fresh_structures();
    let mut construct_ns = Vec::with_capacity(keys.len());
    let mut set_bytes = 0usize;
    for (key, hint) in &keys {
        let id = tr.begin("combinat.construct", "combinat", parent);
        set_bytes += request(fresh.as_ref(), key, *hint);
        tr.end(id);
        construct_ns.push(tr.spans()[id].duration_ns());
    }
    out.construct_s = secs(construct_ns.iter().sum());
    out.set_mb = set_bytes as f64 / (1u64 << 20) as f64;

    // Publish into a fresh disk store: the store constructs each key again
    // before encoding and writing it, so each publish span carries that
    // construction as a derived `combinat` child.
    let store_dir = tmp.join("replay-store");
    std::fs::remove_dir_all(&store_dir).ok();
    let store = tr.record("harness.store_open", "harness", parent, || {
        StructureStore::at(&store_dir)
    });
    let store = store.map_err(|e| format!("cannot open {}: {e}", store_dir.display()))?;
    let mut publish_ns = 0u64;
    for ((key, hint), constructed) in keys.iter().zip(&construct_ns) {
        let id = tr.begin("harness.store_publish", "harness", parent);
        request(&store, key, *hint);
        tr.end(id);
        tr.estimated_child(id, "combinat.construct", "combinat", *constructed);
        publish_ns += tr.spans()[id].duration_ns().saturating_sub(*constructed);
    }
    let id = tr.begin("harness.store_flush", "harness", parent);
    let flushed = store.flush();
    tr.end(id);
    flushed.map_err(|e| format!("store flush failed: {e}"))?;
    publish_ns += tr.spans()[id].duration_ns();
    out.publish_s = secs(publish_ns);
    tr.record("harness.store_close", "harness", parent, || drop(store));
    out.store_mb = dir_bytes(&store_dir) as f64 / (1u64 << 20) as f64;

    // Reopen and load every key from disk.
    let store = tr.record("harness.store_open", "harness", parent, || {
        StructureStore::at(&store_dir)
    });
    let store = store.map_err(|e| format!("cannot reopen {}: {e}", store_dir.display()))?;
    let mut load_ns = 0u64;
    for (key, hint) in &keys {
        let id = tr.begin("harness.store_load", "harness", parent);
        request(&store, key, *hint);
        tr.end(id);
        load_ns += tr.spans()[id].duration_ns();
    }
    out.load_s = secs(load_ns);
    let stats = store.stats();
    if stats.misses > 0 {
        out.problems.push(format!(
            "the reopened store constructed {} of {} keys instead of loading them",
            stats.misses,
            keys.len()
        ));
    }

    // Tier-1 hits on the now warm store.
    let mut hit_ns = Vec::with_capacity(keys.len());
    for (key, _) in &keys {
        let id = tr.begin("harness.tier1_hit", "harness", parent);
        for _ in 0..TIER1_CALLS {
            lookup(&store, key);
        }
        tr.end(id);
        hit_ns.push(tr.spans()[id].duration_ns() as f64 / TIER1_CALLS as f64);
    }
    out.tier1_hit_ns = perfbench::stats::median(&hit_ns);

    // Every case on warm structures.
    let structures: SharedStructures = Arc::new(store);
    let mut records: Vec<CaseRecord> = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let id = tr.begin("experiments.case", "experiments", parent);
        records.push(item.run_to_record(index, &structures));
        tr.end(id);
        out.case_s.push(secs(tr.spans()[id].duration_ns()));
    }
    // Family-size records carry set sizes, not rounds.
    let records_rounds: Vec<(usize, f64)> = items
        .iter()
        .zip(&records)
        .filter(|(item, _)| !matches!(item, WorkItem::ScalingFamilies { .. }))
        .filter_map(|(_, r)| Some((r.n, r.rounds_total?)))
        .collect();
    out.rounds = records_rounds.iter().map(|(_, rounds)| rounds).sum();

    // Serialise and emit through the ordered sink.
    let id = tr.begin("harness.sink", "harness", parent);
    let sink = JsonlSink::new(Vec::new());
    for (index, record) in records.iter().enumerate() {
        sink.emit(
            index,
            &serde_json::to_string(record).expect("serializable record"),
        );
    }
    out.output = sink.finish();
    tr.end(id);
    out.sink_s = secs(tr.spans()[id].duration_ns());
    tr.record("bench.digest", "bench", parent, || {
        black_box(digest(&out.output))
    });
    tr.record("harness.store_close", "harness", parent, || {
        drop(records);
        drop(structures);
    });

    // Round execution under both engines.
    let configs = round_configs(workload, &items, seed);
    let inputs: Vec<Vec<Vec<LocalDirection>>> = tr.record("bench.inputs", "bench", parent, || {
        configs
            .iter()
            .enumerate()
            .map(|(i, c)| directions(c.len(), derive_seed(seed, 300 + i as u64)))
            .collect()
    });
    let analytic = time_rounds(tr, root, EngineKind::Analytic, &configs, &inputs)?;
    let event = time_rounds(tr, root, EngineKind::Event, &configs, &inputs)?;
    out.analytic_round_ns = perfbench::stats::median(&analytic);
    out.event_round_ns = perfbench::stats::median(&event);
    // Rounds weighted by the cost of a round at their case's ring size,
    // under the engine the workload's cases run on.
    let engine_ns = if workload == Workload::Faults {
        &event
    } else {
        &analytic
    };
    out.round_time_s = records_rounds
        .iter()
        .map(|(n, rounds)| {
            let at = configs.iter().position(|c| c.len() == *n);
            rounds * at.and_then(|i| engine_ns.get(i)).map_or(0.0, |ns| ns / 1e9)
        })
        .sum();

    // A completed daemon run: checksum revalidation, then the k-way merge.
    if let Some(dir) = run_dir {
        let id = tr.begin("distrib.revalidate", "distrib", parent);
        let revalidated = Manifest::load(dir).and_then(|mut manifest| {
            let demoted = manifest
                .revalidate_completed(dir)
                .map_err(|e| format!("revalidation failed: {e}"))?;
            Ok((manifest, demoted))
        });
        tr.end(id);
        out.revalidate_s = secs(tr.spans()[id].duration_ns());
        let (manifest, demoted) = revalidated?;
        if !demoted.is_empty() {
            out.problems.push(format!(
                "shards {demoted:?} of the daemon run failed revalidation"
            ));
        }
        let id = tr.begin("distrib.merge", "distrib", parent);
        let mut merged = Vec::new();
        let report = merge_shards(
            &manifest.shard_files(dir),
            &mut merged,
            Some(manifest.total_cases),
        );
        tr.end(id);
        out.merge_s = secs(tr.spans()[id].duration_ns());
        report.map_err(|e| format!("merge failed: {e}"))?;
        out.merged_mb = merged.len() as f64 / (1u64 << 20) as f64;
        if merged != out.output {
            out.problems
                .push("the daemon run's merge differs from the single-thread replay".into());
        }
    }
    tr.record("bench.cleanup", "bench", parent, || {
        std::fs::remove_dir_all(&store_dir).ok()
    });
    Ok(out)
}

/// Total bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                total += entry.metadata().map_or(0, |m| m.len());
            }
        }
    }
    total
}
