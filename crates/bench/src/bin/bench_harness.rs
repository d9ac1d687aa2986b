//! Sweep-throughput trajectory of the `ring-harness` scenario engine and
//! the `ring-distrib` multi-process layer.
//!
//! Times the same distinguisher-heavy sweep seven ways and writes the
//! results to `BENCH_harness.json` (committed; its git history is the
//! trajectory, like `BENCH_combinat.json`):
//!
//! 1. **`serial_fresh`** — one case at a time, every case constructing its
//!    combinatorial structures from scratch: the behaviour of the seven
//!    pre-harness single-threaded binaries.
//! 2. **`serial_cached`** — one case at a time through the engine's shared
//!    [`StructureCache`], isolating the caching win.
//! 3. **`parallel_cached`** — the full engine: work-stealing workers (at
//!    least four) sharing the cache, which is what `ringlab` runs. Timed
//!    after a warm-up pass, so the structure cache is hot.
//! 4. **`sharded_cold`** — the distributed layer from a standing start:
//!    the orchestrator spawns worker *processes* (this binary re-invoked
//!    in `--worker-shard` mode), validates their protocol streams, writes
//!    shard files and checkpoints the manifest. Includes process spawn and
//!    per-process structure construction — the honest cost of the first
//!    pass on a fresh fleet.
//! 5. **`sharded_cached`** — the distributed layer's steady state: the run
//!    directory already holds complete shard files, so a pass is checksum
//!    revalidation plus the deterministic k-way merge (what `resume` and
//!    `merge` do when nothing crashed). This is the multi-process
//!    analogue of `parallel_cached`'s warm cache and must beat it for the
//!    sharded mode to be worth its overhead on repeated/append-style
//!    sweeps. A **`sim_faulty`** entry additionally tracks the
//!    event-driven reference executor over a faulty sweep (lossy links
//!    plus a crashing station) — the regime where per-round buffer reuse
//!    in `ring-sim` matters.
//! 6. **`sharded_store_cold`** — the orchestrated pass with the two-tier
//!    structure store enabled against an *empty* store directory: workers
//!    construct each structure once per fleet (claim discipline), publish,
//!    and pay the encoding/IO cost. The honest first pass of a
//!    store-backed fleet.
//! 7. **`sharded_store_warm`** — the same orchestrated pass (fresh run
//!    dir, every case re-measured) against the *populated* store: workers
//!    load every structure instead of constructing. This is the number the
//!    store exists for, and it must beat `sharded_cold` — the
//!    `store_vs_cold` field tracks the ratio.
//!
//! An **`obs_traced`** entry re-times the warm engine pass with span
//! tracing enabled; its ratio against `parallel_cached` is the committed
//! `obs_overhead` — the cost of `--trace`, which must stay near 1.0.
//!
//! The report carries a `hardware` block (core count, architecture,
//! detected SIMD features) so the committed trajectory records *where* it
//! was measured — and the run warns when the parallel entries oversubscribe
//! the box (`parallel_jobs > available_jobs`), in which case they measure
//! scheduling overhead rather than thread scaling.
//!
//! The bench sweep is the distinguisher-scaling study at large `N`
//! (`N = 2¹⁷`) with measurement repetitions, so structure construction
//! dominates — exactly the regime the cache exists for (a fresh
//! `SelectiveFamily` at `N = 2¹⁷` costs ~0.8 s, its measurement ~50 ms).
//! The reported `speedup` is `parallel_cached` vs `serial_fresh`
//! throughput. On a single-core container the win is the cache's; on
//! multi-core hardware thread scaling compounds it. The report also
//! records the structure-cache hit rate of one engine pass over the
//! **standard** table sweep as a cache-health indicator.
//!
//! Run with `cargo run --release -p ring-bench --bin bench_harness`
//! (optionally `-- --quick` for a CI smoke pass, `-- --out <path>` to
//! redirect the report, `-- --jobs-sweep` to additionally time the engine
//! pass at a ladder of worker-thread counts — the committed scaling
//! curve).

use ring_distrib::{
    fail_after_from_env, merge_shards, plan_shards, run_pending_shards, DoneEvent, Manifest,
    OrchestratorOptions, ShardTally, SpecParams, StartEvent,
};
use ring_experiments::distinguisher_scaling::ScalingSpec;
use ring_experiments::{FaultAxes, SweepSpec};
use ring_harness::scenario::{faults_items, scaling_items, table1_items, table2_items, WorkItem};
use ring_harness::sink::JsonlSink;
use ring_harness::{available_jobs, StructureCache, StructureStore, SweepEngine};
use ring_protocols::structures::fresh_structures;
use serde::Serialize;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug, Serialize)]
struct Entry {
    name: String,
    cases: usize,
    jobs: usize,
    elapsed_ms: f64,
    cases_per_sec: f64,
}

#[derive(Clone, Debug, Serialize)]
struct CacheSection {
    hits: u64,
    misses: u64,
    hit_rate: f64,
    structures: usize,
}

/// Provenance of the numbers: what the box running the bench looked like.
/// Committed with the report so a diff in the trajectory can be told apart
/// from a diff in the hardware (the `available_jobs: 1` vs
/// `parallel_jobs: 4` containers this bench has run on produce very
/// different curves).
#[derive(Clone, Debug, Serialize)]
struct Hardware {
    /// `std::thread::available_parallelism` at bench time.
    available_jobs: usize,
    /// Compile-target architecture (`std::env::consts::ARCH`).
    arch: String,
    /// Runtime-detected SIMD/popcount features relevant to the chunked
    /// kernels; empty on non-x86 targets.
    features: Vec<String>,
}

fn detect_hardware() -> Hardware {
    #[allow(unused_mut)]
    let mut features: Vec<String> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for name in ["popcnt", "avx2", "bmi2", "avx512f"] {
            let detected = match name {
                "popcnt" => std::arch::is_x86_feature_detected!("popcnt"),
                "avx2" => std::arch::is_x86_feature_detected!("avx2"),
                "bmi2" => std::arch::is_x86_feature_detected!("bmi2"),
                "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
                _ => false,
            };
            if detected {
                features.push(name.to_string());
            }
        }
    }
    Hardware {
        available_jobs: available_jobs(),
        arch: std::env::consts::ARCH.to_string(),
        features,
    }
}

#[derive(Clone, Debug, Serialize)]
struct Report {
    schema: String,
    mode: String,
    available_jobs: usize,
    parallel_jobs: usize,
    /// The box the numbers came from: core count, architecture, detected
    /// SIMD features.
    hardware: Hardware,
    entries: Vec<Entry>,
    /// `parallel_cached` vs `serial_fresh` throughput on the bench sweep.
    speedup: f64,
    /// `sharded_cached` vs `parallel_cached` throughput (the steady-state
    /// multi-process pass against the warm single-process engine).
    sharded_vs_parallel: f64,
    /// `obs_traced` vs `parallel_cached` elapsed time: the span-tracing
    /// tax on a warm engine pass (metrics counters are always on; this
    /// isolates the sidecar writes). Must stay near 1.0.
    obs_overhead: f64,
    /// `sharded_store_warm` vs `sharded_cold` throughput: what a populated
    /// structure store buys a fleet that re-runs (or extends) a sweep,
    /// against rebuilding every structure per process.
    store_vs_cold: f64,
    /// On-disk bytes of the store after the K = 4 seed-diverse pass.
    seeded_store_bytes: u64,
    /// What one blob per seed would take for the same keys (one full
    /// per-seed strong prefix each). The content-addressed layout must stay
    /// strictly below this.
    seeded_one_blob_per_seed_bytes: u64,
    /// `seeded_one_blob_per_seed_bytes / seeded_store_bytes` — how much
    /// the shared universal strong blobs save under seed diversity.
    seeded_dedup: f64,
    /// `--jobs-sweep`: the engine pass timed at a ladder of worker-thread
    /// counts (1, 2, 4, 8), warm cache — the executor's scaling curve.
    /// Empty when the flag is not passed.
    jobs_sweep: Vec<Entry>,
    /// Cache counters accumulated by the `parallel_cached` bench run.
    bench_sweep_cache: CacheSection,
    /// Cache counters of one engine pass over the standard sweep.
    standard_sweep_cache: CacheSection,
}

/// One warm-up pass (allocator and — where the mode uses one — structure
/// cache reach steady state, as in `bench_combinat`'s `time_median`), then
/// the median of three timed passes — single passes on a shared/1-core
/// container swing by ±25%, which would drown the ratios the report
/// commits (`obs_overhead`).
fn time_run(items: &[WorkItem], mut run: impl FnMut(&[WorkItem])) -> f64 {
    run(items);
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            run(items);
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn cache_section(cache: &StructureCache) -> CacheSection {
    let stats = cache.stats();
    CacheSection {
        hits: stats.hits,
        misses: stats.misses,
        hit_rate: stats.hit_rate(),
        structures: cache.len(),
    }
}

/// The bench sweep configuration: a construction-dominated sweep — the
/// scaling study at large N, with measurement repetitions. Every
/// repetition requests the same (kind, N, n, seed) structures — the
/// pattern every repeated sweep exhibits — so `serial_fresh` reconstructs
/// the dominant structures per case while the engine constructs each once.
fn bench_config(quick: bool) -> (ScalingSpec, usize) {
    if quick {
        (
            ScalingSpec {
                universe: 1 << 14,
                sizes: vec![16, 32],
                seed: 2015,
            },
            2usize,
        )
    } else {
        (
            ScalingSpec {
                universe: 1 << 17,
                sizes: vec![32, 64],
                seed: 2015,
            },
            10usize,
        )
    }
}

fn bench_items(scaling: &ScalingSpec, reps: usize) -> Vec<WorkItem> {
    // Repetitions are consecutive per scaling point — the order every real
    // sweep enumerates (reps innermost).
    let mut items: Vec<WorkItem> = Vec::new();
    for point in scaling_items(scaling) {
        for _ in 0..reps {
            items.push(point.clone());
        }
    }
    items
}

/// The seed-diverse bench sweep: the table pipeline over even ring sizes
/// under the per-case structure-seed schedule (K = 4) — every repetition
/// demands the strong machinery under a different schedule seed, which is
/// exactly the pattern the content-addressed store dedups to one universal
/// blob per universe.
fn seeded_spec(quick: bool) -> SweepSpec {
    SweepSpec {
        sizes: if quick { vec![8, 16] } else { vec![32, 64] },
        universe_factors: if quick { vec![64] } else { vec![2048] },
        repetitions: 4,
        seed: 2015,
        structure_seeds: Some(4),
        faults: None,
    }
}

fn seeded_items(quick: bool) -> Vec<WorkItem> {
    let spec = seeded_spec(quick);
    let mut items = table1_items(&spec);
    items.extend(table2_items(&spec));
    items
}

fn seeded_fingerprint(quick: bool) -> String {
    let h = ring_combinat::shared::splitmix64(seeded_spec(quick).fingerprint() ^ 0x5eed);
    format!("0x{h:016x}")
}

/// Fingerprint of the bench item enumeration, shared between the
/// orchestrating process and its `--worker-shard` children.
fn bench_fingerprint(quick: bool) -> String {
    let (scaling, reps) = bench_config(quick);
    let h = ring_combinat::shared::splitmix64(scaling.fingerprint() ^ reps as u64);
    format!("0x{h:016x}")
}

/// `--worker-shard i/M` mode: this binary as a ring-distrib worker over
/// the bench item list, speaking the protocol on stdout. Lets the bench
/// orchestrate real worker processes without depending on an external
/// binary path. `store_dir` (the `--structure-store` flag) points the
/// worker at the fleet's shared two-tier store.
fn worker_shard_mode(quick: bool, seeded: bool, shard: usize, of: usize, store_dir: Option<&str>) {
    let (items, fingerprint) = if seeded {
        (seeded_items(quick), seeded_fingerprint(quick))
    } else {
        let (scaling, reps) = bench_config(quick);
        (bench_items(&scaling, reps), bench_fingerprint(quick))
    };
    let range = plan_shards(items.len(), of)[shard];
    let start = StartEvent::new(shard, of, range.start, range.end, &fingerprint);
    {
        let mut out = std::io::stdout();
        writeln!(
            out,
            "{}",
            serde_json::to_string(&start).expect("serializable event")
        )
        .and_then(|()| out.flush())
        .expect("stdout");
    }
    let engine = match store_dir {
        None => SweepEngine::new(1),
        Some(dir) => SweepEngine::with_store(
            1,
            Arc::new(StructureStore::at(dir).expect("open structure store")),
        ),
    };
    let sink = JsonlSink::new(ShardTally::new(std::io::stdout(), fail_after_from_env()));
    engine.run_with_offset(&items[range.start..range.end], range.start, Some(&sink));
    let tally = sink.finish();
    let cache = engine.cache_stats();
    let store = engine.store_stats();
    let done = DoneEvent::new(
        shard,
        tally.lines() as usize,
        tally.checksum(),
        cache.hits,
        cache.misses,
        engine.exec_stats().steals,
    )
    .with_store(store.hits, store.misses);
    println!(
        "{}",
        serde_json::to_string(&done).expect("serializable event")
    );
}

/// Orchestrates one sharded pass over the bench items into `run_dir`
/// (which is wiped first), merging at the end like `ringlab --shards`.
/// With `store_dir` the workers share that two-tier structure store (the
/// directory is **not** wiped here — cold vs warm is the caller's choice).
fn run_sharded_pass(
    run_dir: &std::path::Path,
    quick: bool,
    seeded: bool,
    total: usize,
    shards: usize,
    store_dir: Option<&std::path::Path>,
) -> Manifest {
    std::fs::remove_dir_all(run_dir).ok();
    std::fs::create_dir_all(run_dir).expect("create sharded run dir");
    let manifest = Manifest::new(
        SpecParams {
            subcommand: "bench-harness".into(),
            quick,
            sizes: None,
            universe_factors: None,
            reps: None,
            seed: None,
            structure_seeds: seeded.then_some(4),
            fault_drops: None,
            fault_crashes: None,
            fault_churn: None,
            fault_adversarial: false,
        },
        if seeded {
            seeded_fingerprint(quick)
        } else {
            bench_fingerprint(quick)
        },
        total,
        &plan_shards(total, shards),
        1,
        "-".into(),
    )
    .with_structure_store(
        store_dir
            .map(|d| d.to_string_lossy().into_owned())
            .unwrap_or_default(),
    );
    let manifest = Mutex::new(manifest);
    let exe = std::env::current_exe().expect("locate bench binary");
    // One worker per core (the `ringlab --shards` default): on a single-core
    // container the fleet serializes instead of thrashing memory, on real
    // hardware it runs genuinely parallel. Worker count stays `shards`.
    let options = OrchestratorOptions {
        concurrency: shards.min(available_jobs()).max(1),
        retries: 0,
        shard_timeout: None,
    };
    let outcome = run_pending_shards(run_dir, &manifest, &options, &|range| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--worker-shard")
            .arg(format!("{}/{shards}", range.shard));
        if quick {
            cmd.arg("--quick");
        }
        if seeded {
            cmd.arg("--seeded");
        }
        if let Some(dir) = store_dir {
            cmd.arg("--structure-store").arg(dir);
        }
        cmd
    })
    .expect("orchestrate bench shards");
    assert!(
        outcome.failed.is_empty(),
        "bench workers failed: {outcome:?}"
    );
    run_sharded_cached(run_dir, total);
    manifest.into_inner().expect("manifest lock")
}

/// One steady-state pass over a completed run dir: checksum revalidation
/// plus the k-way merge (what `resume`/`merge` cost when nothing crashed).
fn run_sharded_cached(run_dir: &std::path::Path, total: usize) {
    let mut manifest = Manifest::load(run_dir).expect("load bench manifest");
    let demoted = manifest
        .revalidate_completed(run_dir)
        .expect("revalidate bench shards");
    assert!(demoted.is_empty(), "bench shards failed revalidation");
    let mut merged = Vec::new();
    let report = merge_shards(&manifest.shard_files(run_dir), &mut merged, Some(total))
        .expect("merge bench shards");
    assert_eq!(report.records, total);
    std::hint::black_box(merged);
}

/// Total bytes of every file under `dir`, recursively.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                total += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(value) = args
        .iter()
        .position(|a| a == "--worker-shard")
        .and_then(|i| args.get(i + 1))
    {
        let (shard, of) = value.split_once('/').expect("--worker-shard expects i/M");
        let store_dir = args
            .iter()
            .position(|a| a == "--structure-store")
            .and_then(|i| args.get(i + 1));
        worker_shard_mode(
            quick,
            args.iter().any(|a| a == "--seeded"),
            shard.parse().expect("shard index"),
            of.parse().expect("shard count"),
            store_dir.map(String::as_str),
        );
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_harness.json".to_string());

    let (scaling, reps) = bench_config(quick);
    let items = bench_items(&scaling, reps);
    let parallel_jobs = available_jobs().max(4);

    // 1. The pre-harness behaviour: serial, structures from scratch per
    //    request.
    let serial_fresh = time_run(&items, |items| {
        let structures = fresh_structures();
        for item in items {
            std::hint::black_box(item.run(&structures));
        }
    });

    // 2. Serial through the shared cache.
    let serial_engine = SweepEngine::new(1);
    let serial_cached = time_run(&items, |items| {
        std::hint::black_box(serial_engine.run::<Vec<u8>>(items, None));
    });

    // 3. The full engine: parallel workers over the shared cache.
    let parallel_engine = SweepEngine::new(parallel_jobs);
    let parallel_cached = time_run(&items, |items| {
        std::hint::black_box(parallel_engine.run::<Vec<u8>>(items, None));
    });

    // 3a. The instrumentation tax: the same warm engine pass with span
    //    tracing enabled (sidecar writes included). Metrics counters are
    //    always on, so `obs_overhead` — the ratio against the untraced
    //    parallel pass — isolates exactly what `--trace` costs, the
    //    number that justifies leaving tracing available in production.
    let trace_dir = std::env::temp_dir().join(format!("ring-bench-trace-{}", std::process::id()));
    std::fs::create_dir_all(&trace_dir).expect("create trace dir");
    ring_obs::trace::init(&trace_dir).expect("init trace sidecar");
    let obs_traced = time_run(&items, |items| {
        std::hint::black_box(parallel_engine.run::<Vec<u8>>(items, None));
    });
    ring_obs::trace::shutdown();
    std::fs::remove_dir_all(&trace_dir).ok();
    let obs_overhead = obs_traced / parallel_cached.max(1e-9);

    // 3b. `--jobs-sweep`: the executor's scaling curve — the same engine
    //    pass at a ladder of worker-thread counts, each with its own
    //    warm-up so every point times a hot cache. On a single-core
    //    container the curve is flat (the committed baseline); on real
    //    hardware it is the thread-scaling trajectory ROADMAP item 2
    //    asks for.
    let mut jobs_sweep = Vec::new();
    if args.iter().any(|a| a == "--jobs-sweep") {
        for jobs in [1usize, 2, 4, 8] {
            let engine = SweepEngine::new(jobs);
            let elapsed = time_run(&items, |items| {
                std::hint::black_box(engine.run::<Vec<u8>>(items, None));
            });
            jobs_sweep.push(Entry {
                name: "jobs_sweep".into(),
                cases: items.len(),
                jobs,
                elapsed_ms: elapsed * 1e3,
                cases_per_sec: items.len() as f64 / elapsed.max(1e-9),
            });
        }
    }

    // 4./5. The distributed layer: a cold orchestrated pass (processes
    //    spawned, structures rebuilt per process, shards merged), then the
    //    steady-state pass over the completed run directory (revalidate +
    //    merge only). Same warm-up-then-time discipline as the others.
    // Four worker processes: every one pays the full per-process
    // construction cost in the storeless fleet and a load in the warm one,
    // so the shard count is exactly the store's amortization lever (each
    // shard spans both set sizes — the bench items interleave them).
    let shard_count = 4usize;
    let run_dir = std::env::temp_dir().join(format!("ring-bench-sharded-{}", std::process::id()));
    run_sharded_pass(&run_dir, quick, false, items.len(), shard_count, None);
    let start = Instant::now();
    run_sharded_pass(&run_dir, quick, false, items.len(), shard_count, None);
    let sharded_cold = start.elapsed().as_secs_f64();
    run_sharded_cached(&run_dir, items.len());
    let start = Instant::now();
    run_sharded_cached(&run_dir, items.len());
    let sharded_cached = start.elapsed().as_secs_f64();

    // 6./7. The two-tier structure store under the same orchestration.
    //    Cold: the store directory is wiped before the pass, so the fleet
    //    constructs (once per key, claim-guarded) and publishes. Warm: the
    //    run directory is wiped but the store is kept, so every worker
    //    loads — the pass still spawns processes and re-measures every
    //    case, isolating exactly the construction cost the store removes.
    let store_dir =
        std::env::temp_dir().join(format!("ring-bench-structstore-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    run_sharded_pass(
        &run_dir,
        quick,
        false,
        items.len(),
        shard_count,
        Some(&store_dir),
    );
    std::fs::remove_dir_all(&store_dir).ok();
    let start = Instant::now();
    run_sharded_pass(
        &run_dir,
        quick,
        false,
        items.len(),
        shard_count,
        Some(&store_dir),
    );
    let sharded_store_cold = start.elapsed().as_secs_f64();
    // The store is now populated: warm passes load instead of construct.
    run_sharded_pass(
        &run_dir,
        quick,
        false,
        items.len(),
        shard_count,
        Some(&store_dir),
    );
    let start = Instant::now();
    run_sharded_pass(
        &run_dir,
        quick,
        false,
        items.len(),
        shard_count,
        Some(&store_dir),
    );
    let sharded_store_warm = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&store_dir).ok();

    // 8. The K = 4 seed-diverse sweep against a content-addressed store.
    //    The store is prebuilt (full strong prefixes per schedule seed, one
    //    shared universal blob per universe), then the orchestrated warm
    //    pass is timed — and the resulting on-disk bytes are pinned against
    //    one blob per seed for the same keys.
    let seeded = seeded_items(quick);
    let seeded_store_dir =
        std::env::temp_dir().join(format!("ring-bench-seededstore-{}", std::process::id()));
    std::fs::remove_dir_all(&seeded_store_dir).ok();
    let mut seeded_keys: Vec<(ring_combinat::StructureKey, usize)> = Vec::new();
    for item in &seeded {
        for (key, hint) in item.structure_keys() {
            match seeded_keys.iter_mut().find(|(k, _)| *k == key) {
                Some((_, existing)) => *existing = (*existing).max(hint),
                None => seeded_keys.push((key, hint)),
            }
        }
    }
    {
        use ring_protocols::structures::StructureProvider;
        let store = StructureStore::at(&seeded_store_dir).expect("open seeded store");
        for (key, hint) in &seeded_keys {
            let strong = store.strong_distinguisher(key.universe, key.seed);
            for i in 0..strong.prefix_size_for((*hint).max(2)) {
                strong.set(i);
            }
        }
        store.flush().expect("flush seeded store");
    }
    run_sharded_pass(
        &run_dir,
        quick,
        true,
        seeded.len(),
        shard_count,
        Some(&seeded_store_dir),
    );
    let start = Instant::now();
    let seeded_manifest = run_sharded_pass(
        &run_dir,
        quick,
        true,
        seeded.len(),
        shard_count,
        Some(&seeded_store_dir),
    );
    let sharded_store_warm_seeded = start.elapsed().as_secs_f64();
    assert_eq!(
        seeded_manifest.aggregate_stats().store_misses,
        0,
        "the prebuilt seeded store must serve every schedule seed"
    );
    // 9. The fault-injection layer: faulty cases promote the engine to the
    //    event-driven reference executor (per-round buffers reused through
    //    its scratch), so this entry tracks the event path's throughput
    //    under a lossy, crashing schedule — the trajectory baseline for
    //    any future event-engine allocation work.
    let faulty_spec = SweepSpec {
        sizes: vec![8, 9],
        universe_factors: vec![4],
        repetitions: if quick { 1 } else { 2 },
        seed: 2015,
        structure_seeds: None,
        faults: Some(FaultAxes {
            drops: vec![0, 100],
            crashes: 1,
            churn: 0,
            adversarial: false,
        }),
    };
    let faulty = faults_items(&faulty_spec);
    let faulty_engine = SweepEngine::new(1);
    let sim_faulty = time_run(&faulty, |items| {
        std::hint::black_box(faulty_engine.run::<Vec<u8>>(items, None));
    });

    let seeded_store_bytes = dir_bytes(&seeded_store_dir);
    // One blob per logical strong key (K per universe).
    let seeded_one_blob_per_seed_bytes: u64 = seeded_keys
        .iter()
        .map(|(key, hint)| {
            let prefix = ring_combinat::SharedStrongDistinguisher::new(key.universe, key.seed)
                .prefix_size_for((*hint).max(2));
            ring_combinat::codec::blob_len(key.universe, prefix) as u64
        })
        .sum();
    std::fs::remove_dir_all(&seeded_store_dir).ok();
    std::fs::remove_dir_all(&run_dir).ok();

    let throughput = |elapsed: f64| items.len() as f64 / elapsed.max(1e-9);
    let entries = vec![
        Entry {
            name: "serial_fresh".into(),
            cases: items.len(),
            jobs: 1,
            elapsed_ms: serial_fresh * 1e3,
            cases_per_sec: throughput(serial_fresh),
        },
        Entry {
            name: "serial_cached".into(),
            cases: items.len(),
            jobs: 1,
            elapsed_ms: serial_cached * 1e3,
            cases_per_sec: throughput(serial_cached),
        },
        Entry {
            name: "parallel_cached".into(),
            cases: items.len(),
            jobs: parallel_jobs,
            elapsed_ms: parallel_cached * 1e3,
            cases_per_sec: throughput(parallel_cached),
        },
        Entry {
            name: "obs_traced".into(),
            cases: items.len(),
            jobs: parallel_jobs,
            elapsed_ms: obs_traced * 1e3,
            cases_per_sec: throughput(obs_traced),
        },
        Entry {
            name: "sharded_cold".into(),
            cases: items.len(),
            jobs: shard_count,
            elapsed_ms: sharded_cold * 1e3,
            cases_per_sec: throughput(sharded_cold),
        },
        Entry {
            name: "sharded_cached".into(),
            cases: items.len(),
            jobs: shard_count,
            elapsed_ms: sharded_cached * 1e3,
            cases_per_sec: throughput(sharded_cached),
        },
        Entry {
            name: "sharded_store_cold".into(),
            cases: items.len(),
            jobs: shard_count,
            elapsed_ms: sharded_store_cold * 1e3,
            cases_per_sec: throughput(sharded_store_cold),
        },
        Entry {
            name: "sharded_store_warm".into(),
            cases: items.len(),
            jobs: shard_count,
            elapsed_ms: sharded_store_warm * 1e3,
            cases_per_sec: throughput(sharded_store_warm),
        },
        Entry {
            name: "sharded_store_warm_seeded".into(),
            cases: seeded.len(),
            jobs: shard_count,
            elapsed_ms: sharded_store_warm_seeded * 1e3,
            cases_per_sec: seeded.len() as f64 / sharded_store_warm_seeded.max(1e-9),
        },
        Entry {
            name: "sim_faulty".into(),
            cases: faulty.len(),
            jobs: 1,
            elapsed_ms: sim_faulty * 1e3,
            cases_per_sec: faulty.len() as f64 / sim_faulty.max(1e-9),
        },
    ];
    let speedup = serial_fresh / parallel_cached.max(1e-9);
    let sharded_vs_parallel = parallel_cached / sharded_cached.max(1e-9);
    let store_vs_cold = sharded_cold / sharded_store_warm.max(1e-9);
    let seeded_dedup = seeded_one_blob_per_seed_bytes as f64 / (seeded_store_bytes.max(1)) as f64;
    for entry in entries.iter().chain(&jobs_sweep) {
        println!(
            "{:<16} {:>3} cases, {:>2} jobs: {:>10.1} ms  ({:>8.2} cases/s)",
            entry.name, entry.cases, entry.jobs, entry.elapsed_ms, entry.cases_per_sec
        );
    }
    println!("sweep speedup (parallel_cached vs serial_fresh): {speedup:.1}x");
    println!("sharded steady state vs warm parallel engine: {sharded_vs_parallel:.1}x");
    println!("span tracing tax on the warm engine pass: {obs_overhead:.2}x");
    println!("warm structure store vs storeless cold fleet: {store_vs_cold:.1}x");
    println!(
        "seed-diverse (K=4) store: {seeded_store_bytes} bytes vs \
{seeded_one_blob_per_seed_bytes} for one blob per seed ({seeded_dedup:.2}x smaller)"
    );

    // Cache health on the standard sweep (the acceptance indicator: the
    // hit rate must be strictly positive).
    let standard_engine = SweepEngine::new(parallel_jobs);
    let standard_items = table1_items(&SweepSpec::standard());
    std::hint::black_box(standard_engine.run::<Vec<u8>>(&standard_items, None));
    let standard_cache = cache_section(standard_engine.cache());
    println!(
        "standard sweep cache: {} hits / {} misses ({:.0}% hit rate, {} structures)",
        standard_cache.hits,
        standard_cache.misses,
        standard_cache.hit_rate * 100.0,
        standard_cache.structures,
    );

    let report = Report {
        schema: "bench-harness/v2".to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        available_jobs: available_jobs(),
        parallel_jobs,
        hardware: detect_hardware(),
        entries,
        speedup,
        sharded_vs_parallel,
        obs_overhead,
        store_vs_cold,
        seeded_store_bytes,
        seeded_one_blob_per_seed_bytes,
        seeded_dedup,
        jobs_sweep,
        bench_sweep_cache: cache_section(parallel_engine.cache()),
        standard_sweep_cache: standard_cache,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out_path, json + "\n").expect("writable report path");
    println!("\nwrote {out_path}");

    if report.parallel_jobs > report.hardware.available_jobs {
        eprintln!(
            "WARNING: parallel entries ran {} workers on {} available core(s) — they \
measure scheduling overhead, not thread scaling; re-run on a multi-core box \
for the committed curve",
            report.parallel_jobs, report.hardware.available_jobs
        );
    }
    if report.speedup < 3.0 {
        eprintln!(
            "WARNING: sweep speedup {:.1}x is below the 3x acceptance floor",
            report.speedup
        );
    }
    if report.standard_sweep_cache.hit_rate <= 0.0 {
        eprintln!("WARNING: standard sweep never hit the structure cache");
    }
    if report.sharded_vs_parallel < 1.0 {
        eprintln!(
            "WARNING: steady-state sharded pass ({:.1}x) is slower than the warm \
             parallel engine",
            report.sharded_vs_parallel
        );
    }
    if report.obs_overhead > 1.5 {
        eprintln!(
            "WARNING: span tracing costs {:.2}x on the warm engine pass",
            report.obs_overhead
        );
    }
    if report.store_vs_cold < 1.0 {
        eprintln!(
            "WARNING: warm structure store ({:.1}x) is slower than the storeless \
             cold fleet",
            report.store_vs_cold
        );
    }
    if report.seeded_store_bytes >= report.seeded_one_blob_per_seed_bytes {
        eprintln!(
            "WARNING: the seed-diverse store ({} bytes) is not smaller than one \
             blob per seed ({} bytes)",
            report.seeded_store_bytes, report.seeded_one_blob_per_seed_bytes
        );
    }
}
