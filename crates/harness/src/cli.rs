//! The `ringlab` command-line interface.
//!
//! One binary drives every experiment of the reproduction through the
//! parallel sweep engine — in one process, or sharded across many:
//!
//! ```text
//! ringlab <subcommand> [flags]
//!
//! subcommands:
//!   table1         Table I   (general setting)
//!   table2         Table II  (common sense of direction)
//!   fig1           Figure 1  (reductions: odd n / lazy / perceptive)
//!   fig2           Figure 2  (reductions: basic model, even n)
//!   scaling        distinguisher / selective-family scaling (Section IV)
//!   lower-bounds   Lemma 5 / Lemma 6 audits
//!   all            every experiment above
//!   sweep          the full table pipeline over a custom case grid
//!   faults         protocol degradation under deterministic fault
//!                  injection (message drop, crash-stop stations, churn,
//!                  adversarial activation)
//!   worker         run one shard of a subcommand, speaking the
//!                  ring-distrib/v1 protocol on stdout (orchestrator use);
//!                  with --connect ADDR: register with a `serve` daemon
//!                  and execute job frames over TCP until dismissed
//!   serve          sweep-as-a-service daemon (--listen ADDR): accept
//!                  sweep specs over HTTP/JSON, dispatch shards to
//!                  registered TCP workers, stream per-case JSONL to
//!                  subscribers; every run directory stays resumable
//!   merge          k-way-merge shard JSONL files by case_index
//!   resume         complete a partially-run sharded run directory
//!   trace          inspect span-trace sidecars:
//!                    trace summarize <RUN_DIR>  aggregate the directory's
//!                      trace-*.jsonl sidecars into a per-span time-budget
//!                      table (count, total, share, p50/p90/p99)
//!   structures     maintain an on-disk structure store:
//!                    structures prebuild <sub> [spec flags]
//!                      construct and publish every structure the
//!                      subcommand will request
//!                    structures verify   validate every store file
//!                    structures gc       drop corrupt or mis-filed
//!                      files and stale tmp/claim leftovers
//!                    structures stats    per-kind file counts and bytes
//!                      (stderr JSON)
//! ```
//!
//! Every flag is declared once. The spec-affecting ones, which a run
//! manifest records and every worker receives, are
//! [`ring_distrib::SPEC_FLAGS`]; all others are this module's `FLAGS`
//! table. The parser, the usage text, the per-subcommand scope checks and
//! the worker argv all read those two tables, and every usage error lists
//! each flag with its help line.
//!
//! Results stream to the JSONL destination incrementally in case order and
//! the markdown tables print at the end. When the JSONL stream goes to
//! stdout (`--jsonl -`) the tables are routed to **stderr**, so piped
//! output stays valid JSONL; otherwise tables go to stdout and the JSONL
//! bytes are identical for every `--jobs` and `--shards` value (run
//! metadata — jobs, elapsed time, cache statistics — always goes to
//! stderr).

use crate::engine::SweepEngine;
use crate::scenario::{
    all_items, faults_items, fig1_items, fig2_items, lower_bounds_items, scaling_items,
    table1_items, table2_items, CaseRecord, WorkItem,
};
use crate::sink::JsonlSink;
use crate::store::StructureStore;
use ring_combinat::shared::splitmix64;
use ring_distrib::{
    fail_after_from_env, merge_shards, plan_shards, run_pending_shards, DoneEvent, Manifest,
    OrchestratorOptions, ShardStatus, ShardTally, SpecParams, StartEvent, CACHE_HITS, CACHE_MISSES,
    MAX_SHARDS, SPEC_FLAGS, STORE_HITS, STORE_MISSES,
};
use ring_experiments::distinguisher_scaling::ScalingSpec;
use ring_experiments::report::{aggregate, format_markdown_table};
use ring_experiments::{FaultAxes, Measurement, SweepSpec};
use ring_protocols::structures::StructureProvider;
use ring_sim::config::MIN_AGENTS;
use serde::{Deserialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default structure-store directory for non-sharded invocations (sharded
/// runs default into `<run-dir>/structures` instead).
const DEFAULT_STORE_DIR: &str = "results/structures";

/// Parsed command-line options.
#[derive(Default)]
struct Options {
    /// The invoked subcommand (`worker`, `structures`, `sweep`, …).
    subcommand: String,
    /// The sweep spec the spec-affecting flags describe. Its `subcommand`
    /// is the *experiment* subcommand: the positional of `worker <sub>` and
    /// `structures prebuild <sub>`, the invoked subcommand otherwise — so a
    /// worker (or prebuild) resolves the same spec, and the same
    /// fingerprint, as its orchestrator.
    spec: SpecParams,
    // Most fields below hold one of the `FLAGS`, named after it.
    jobs: usize,
    jsonl: Option<String>,
    no_jsonl: bool,
    shards: usize,
    shard: Option<(usize, usize)>,
    run_dir: Option<String>,
    retries: u32,
    /// `None` = no store; `Some(None)` = store at the context default
    /// directory; `Some(Some(dir))` = store at an explicit directory.
    structure_store: Option<Option<String>>,
    /// `--structure-seed-mode`: `Some(true)` = per-case, `Some(false)` =
    /// fixed. [`parse`] folds it into `spec.structure_seeds`.
    per_case: Option<bool>,
    shard_timeout: Option<u64>,
    listen: Option<String>,
    connect: Option<String>,
    data_dir: Option<String>,
    lease_timeout: Option<u64>,
    render_fig3: Option<String>,
    stats: bool,
    /// Runtime-only, like `trace_dir`: never part of the spec fingerprint,
    /// never visible in sweep output.
    trace: bool,
    trace_dir: Option<String>,
    positionals: Vec<String>,
}

/// A `ringlab` flag outside the sweep spec (the spec's flags are
/// [`SPEC_FLAGS`]).
struct Flag {
    name: &'static str,
    /// The operand placeholder of the usage text: empty for a switch,
    /// bracketed (`[DIR]`) for an optional operand, which is taken unless
    /// the next argument is a flag.
    operand: &'static str,
    /// The one subcommand the flag applies to (empty = any).
    only: &'static str,
    /// One line of usage help.
    help: &'static str,
    /// Stores the operand (`None` for a switch or an omitted optional
    /// operand); an error describes a bad operand.
    set: fn(&mut Options, Option<String>) -> Result<(), String>,
}

/// Every `ringlab` flag outside the sweep spec — the one declaration the
/// parser, the usage text and the scope checks read. Orchestrators forward
/// `--shard`, `--jobs`, `--structure-store` and `--trace-dir` to their
/// workers next to the spec flags. Laid out as a table, one flag per row.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--jobs", operand: "N", only: "",
        help: "worker threads (default: all cores); with --shards: concurrent workers",
        set: |o, v| store(&mut o.jobs, integer(v)) },
    Flag { name: "--jsonl", operand: "PATH|-", only: "",
        help: "JSONL destination (default results/<sub>.jsonl; `-` = stdout)",
        set: |o, v| store(&mut o.jsonl, Ok(v)) },
    Flag { name: "--no-jsonl", operand: "", only: "",
        help: "disable the JSONL stream",
        set: |o, _| store(&mut o.no_jsonl, Ok(true)) },
    Flag { name: "--shards", operand: "M", only: "",
        help: "shard the sweep over M worker processes and merge the results",
        set: |o, v| store(&mut o.shards, shard_count(integer(v)?)) },
    Flag { name: "--shard", operand: "i/M", only: "",
        help: "run only shard i of an M-way plan in this process",
        set: |o, v| {
            let text = v.unwrap_or_default();
            let (i, m) = text.split_once('/').ok_or("expects i/M (e.g. 0/4)")?;
            let (Ok(shard), Ok(of)) = (i.parse(), m.parse()) else {
                return Err("expects i/M with integers i and M".into());
            };
            if of == 0 || shard >= of {
                return Err(format!("{shard}/{of} is out of range (need i < M)"));
            }
            store(&mut o.shard, shard_count(of).map(|of| Some((shard, of))))
        } },
    Flag { name: "--run-dir", operand: "DIR", only: "",
        help: "sharded-run directory (default results/distrib/<sub>)",
        set: |o, v| store(&mut o.run_dir, Ok(v)) },
    Flag { name: "--retries", operand: "R", only: "",
        help: "extra worker launches per failing shard (default 1)",
        set: |o, v| store(&mut o.retries, integer(v)) },
    Flag { name: "--shard-timeout", operand: "SECS", only: "",
        help: "wall-clock budget per worker attempt; a worker past it is killed and retried",
        set: |o, v| store(&mut o.shard_timeout, seconds(v).map(Some)) },
    Flag { name: "--structure-store", operand: "[DIR]", only: "",
        help: "on-disk structure store (default results/structures, or <run-dir>/structures)",
        set: |o, v| store(&mut o.structure_store, Ok(Some(v))) },
    Flag { name: "--structure-seed-mode", operand: "fixed|per-case", only: "",
        help: "structure-seed schedule (default fixed; per-case uses 4 seeds)",
        set: |o, v| match v.unwrap_or_default().as_str() {
            "fixed" => store(&mut o.per_case, Ok(Some(false))),
            "per-case" => store(&mut o.per_case, Ok(Some(true))),
            other => Err(format!("expects fixed or per-case, not `{other}`")),
        } },
    Flag { name: "--render-fig3", operand: "PATH", only: "faults",
        help: "also write the Figure 3 degradation artifact (single process)",
        set: |o, v| store(&mut o.render_fig3, Ok(v)) },
    Flag { name: "--listen", operand: "ADDR", only: "serve",
        help: "the daemon's bind address (port 0 picks a free port)",
        set: |o, v| store(&mut o.listen, Ok(v)) },
    Flag { name: "--data-dir", operand: "DIR", only: "serve",
        help: "daemon state directory (default results/serve)",
        set: |o, v| store(&mut o.data_dir, Ok(v)) },
    Flag { name: "--lease-timeout", operand: "SECS", only: "serve",
        help: "how long a shard attempt waits for an idle worker (default 600)",
        set: |o, v| store(&mut o.lease_timeout, seconds(v).map(Some)) },
    Flag { name: "--connect", operand: "ADDR", only: "worker",
        help: "register with a serve daemon and run its job frames over TCP",
        set: |o, v| store(&mut o.connect, Ok(v)) },
    Flag { name: "--stats", operand: "", only: "",
        help: "print cache and store statistics as JSON on stderr",
        set: |o, _| store(&mut o.stats, Ok(true)) },
    Flag { name: "--trace", operand: "", only: "",
        help: "write span-trace sidecars (one trace-<pid>.jsonl per process)",
        set: |o, _| store(&mut o.trace, Ok(true)) },
    Flag { name: "--trace-dir", operand: "DIR", only: "",
        help: "trace sidecar directory (implies --trace; default: run dir or results/trace)",
        set: |o, v| { o.trace = true; store(&mut o.trace_dir, Ok(v)) } },
];

/// A flag setter's one step: store a decoded operand into its option.
fn store<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// A flag's operand as a non-negative integer.
fn integer<T: std::str::FromStr>(operand: Option<String>) -> Result<T, String> {
    let text = operand.unwrap_or_default();
    text.parse()
        .map_err(|_| format!("expects a non-negative integer, not `{text}`"))
}

/// A shard count `M` from the command line: at most [`MAX_SHARDS`].
fn shard_count(of: usize) -> Result<usize, String> {
    if of > MAX_SHARDS {
        return Err(format!(
            "{of} shards is more than the {MAX_SHARDS} a plan may have"
        ));
    }
    Ok(of)
}

/// A flag's operand as a positive number of seconds.
fn seconds(operand: Option<String>) -> Result<u64, String> {
    match integer(operand) {
        Ok(0) | Err(_) => Err("expects a positive number of seconds".into()),
        Ok(seconds) => Ok(seconds),
    }
}

/// The usage text: a synopsis per subcommand, then every flag of both
/// tables with its operand and help line.
fn usage() -> String {
    let line = |name: &str, operand: &str, help: &str| {
        format!("\n  {:<27} {help}", format!("{name} {operand}").trim_end())
    };
    let mut out = format!(
        "usage: ringlab <{EXPERIMENTS}> [spec flags] [flags]
       ringlab worker <subcommand> --shard i/M [spec flags] [flags]
       ringlab worker --connect ADDR
       ringlab serve --listen ADDR [flags]
       ringlab merge [--run-dir DIR | SHARD.jsonl ..] [--jsonl PATH|-]
       ringlab resume <RUN_DIR> [flags]
       ringlab trace summarize <RUN_DIR>
       ringlab structures <prebuild <subcommand> [spec flags]|verify|gc|stats> [flags]
spec flags (recorded in run manifests, forwarded to workers):"
    );
    for flag in &SPEC_FLAGS {
        out.push_str(&line(&flag.name(), flag.operand(), flag.help));
    }
    out.push_str("\nflags:");
    for flag in FLAGS {
        let help = match flag.only {
            "" => flag.help.to_string(),
            only => format!("(`{only}` only) {}", flag.help),
        };
        out.push_str(&line(flag.name, flag.operand, &help));
    }
    out
}

/// The experiment subcommands, which enumerate cases for the sweep engine.
const EXPERIMENTS: &str = "table1|table2|fig1|fig2|scaling|lower-bounds|all|sweep|faults";

/// The other subcommands `run` dispatches on.
const TOOLS: &str = "worker|merge|resume|structures|serve|trace";

/// Whether `name` is in a `|`-separated subcommand list.
fn listed(list: &str, name: &str) -> bool {
    list.split('|').any(|entry| entry == name)
}

/// Runs the CLI on explicit arguments (without the program name), returning
/// the process exit code.
pub fn run(args: &[String]) -> i32 {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ringlab: {message}\n{}", usage());
            return 2;
        }
    };
    if let Err(message) = init_trace(&options) {
        eprintln!("ringlab: {message}");
        return 1;
    }
    let result = match options.subcommand.as_str() {
        "worker" => cmd_worker(&options),
        "serve" => cmd_serve(&options),
        "merge" => cmd_merge(&options),
        "resume" => cmd_resume(&options),
        "structures" => cmd_structures(&options),
        "trace" => cmd_trace(&options),
        _ => cmd_experiment(&options),
    };
    // Flush and close the sidecar whatever the outcome: a failed run's
    // spans are exactly the ones worth reading.
    ring_obs::trace::shutdown();
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ringlab: {message}");
            1
        }
    }
}

/// Switches the span-trace layer on when `--trace` (or `--trace-dir`) was
/// given, resolving the sidecar directory against the invocation context:
/// an explicit `--trace-dir` wins, sharded runs and resumes default into
/// their run directory (next to the manifest the sidecars explain), and
/// everything else into `results/trace`. Telemetry is strictly additive —
/// sweep bytes are identical with tracing on or off.
fn init_trace(options: &Options) -> Result<(), String> {
    if !options.trace {
        return Ok(());
    }
    let dir = options.trace_dir.clone().unwrap_or_else(|| {
        if options.subcommand == "resume" {
            options
                .run_dir
                .clone()
                .or_else(|| options.positionals.first().cloned())
                .unwrap_or_else(|| "results/trace".to_string())
        } else if options.shards > 0 {
            options.run_dir.clone().unwrap_or_else(|| {
                format!("results/distrib/{}", options.subcommand.replace('-', "_"))
            })
        } else {
            "results/trace".to_string()
        }
    });
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = ring_obs::trace::init(Path::new(&dir))
        .map_err(|e| format!("cannot start the trace sidecar in {dir}: {e}"))?;
    eprintln!("ringlab: tracing spans to {}", path.display());
    Ok(())
}

/// The item list of an experiment subcommand.
fn items_for(
    subcommand: &str,
    spec: &SweepSpec,
    scaling: &ScalingSpec,
) -> Result<Vec<WorkItem>, String> {
    Ok(match subcommand {
        "table1" => table1_items(spec),
        "table2" => table2_items(spec),
        "fig1" => fig1_items(spec),
        "fig2" => fig2_items(spec),
        "scaling" => scaling_items(scaling),
        "lower-bounds" => lower_bounds_items(spec),
        "all" => all_items(spec, scaling),
        // The generic sweep: the full Table I + Table II pipeline over the
        // (possibly overridden) case grid.
        "sweep" => {
            let mut items = table1_items(spec);
            items.extend(table2_items(spec));
            items
        }
        "faults" => faults_items(spec),
        other => return Err(format!("unknown subcommand `{other}`\n{}", usage())),
    })
}

/// Fingerprint of the case enumeration a subcommand resolves to, pinning
/// run manifests to the spec (and binary) that produced them.
fn spec_fingerprint(subcommand: &str, spec: &SweepSpec, scaling: &ScalingSpec) -> String {
    let mut h = splitmix64(0x41_6e_67_65_6c_69_6b_61);
    for b in subcommand.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h = splitmix64(h ^ spec.fingerprint());
    h = splitmix64(h ^ scaling.fingerprint());
    format!("0x{h:016x}")
}

/// The flags every engine-running subcommand shares — `--jobs`,
/// `--stats`, `--structure-store` and the JSONL destination — resolved
/// against the invocation context in one place, so the per-subcommand
/// handlers stop repeating the store/destination/engine plumbing.
struct CommonArgs {
    jobs: usize,
    stats: bool,
    store_dir: Option<String>,
    destination: Option<String>,
}

impl Options {
    /// Resolves the shared flags. `store_default` supplies the directory a
    /// bare `--structure-store` means in this context (`store_dir` is `None`
    /// without the flag); `jsonl_default` the stream destination when
    /// `--jsonl` was not given (`None` = no stream). `--no-jsonl` wins over
    /// both.
    fn common(
        &self,
        store_default: impl FnOnce() -> String,
        jsonl_default: impl FnOnce() -> Option<String>,
    ) -> CommonArgs {
        CommonArgs {
            jobs: self.jobs,
            stats: self.stats,
            store_dir: self
                .structure_store
                .as_ref()
                .map(|explicit| explicit.clone().unwrap_or_else(store_default)),
            destination: if self.no_jsonl {
                None
            } else {
                self.jsonl.clone().or_else(jsonl_default)
            },
        }
    }

    /// Where an experiment streams its JSONL without `--jsonl`.
    fn default_jsonl(&self) -> Option<String> {
        Some(format!(
            "results/{}.jsonl",
            self.subcommand.replace('-', "_")
        ))
    }
}

impl CommonArgs {
    /// An engine over a disk-backed store (when a directory was resolved)
    /// or a fresh memory-only store.
    fn engine(&self) -> Result<SweepEngine, String> {
        Ok(match self.store_dir.as_deref() {
            None => SweepEngine::new(self.jobs),
            Some(dir) => {
                let store = StructureStore::at(dir)
                    .map_err(|e| format!("cannot open structure store {dir}: {e}"))?;
                SweepEngine::with_store(self.jobs, Arc::new(store))
            }
        })
    }
}

/// An experiment subcommand: single-process, one local shard, or the full
/// multi-process orchestration.
fn cmd_experiment(options: &Options) -> Result<i32, String> {
    if !options.positionals.is_empty() {
        return Err(format!("unexpected argument `{}`", options.positionals[0]));
    }
    let spec = sweep_spec(&options.spec);
    let scaling = scaling_spec(&options.spec);
    let items = items_for(&options.spec.subcommand, &spec, &scaling)?;
    if options.shards > 0 {
        return cmd_sharded(options, &spec, &scaling, &items);
    }
    if let Some((shard, of)) = options.shard {
        return cmd_shard_slice(options, &spec, &scaling, &items, shard, of);
    }

    let common = options.common(|| DEFAULT_STORE_DIR.to_string(), || options.default_jsonl());
    let engine = common.engine()?;
    let start = Instant::now();
    let destination = common.destination.clone();
    let records = run_items_with_offset(&engine, &items, 0, destination.as_deref())?;
    let elapsed = start.elapsed();

    let measurements: Vec<Measurement> = records
        .iter()
        .flat_map(|r| r.measurements.iter().cloned())
        .collect();
    print_tables(&render_markdown(&measurements), destination.as_deref());
    if let Some(path) = &options.render_fig3 {
        write_fig3(path, &measurements)?;
        eprintln!("ringlab: wrote the Figure 3 degradation artifact to {path}");
    }

    let stats = engine.cache_stats();
    let store_note = common
        .store_dir
        .as_deref()
        .map(|dir| {
            let store = engine.store_stats();
            format!(
                "; structure store: {} loads / {} constructions at {dir}",
                store.hits, store.misses
            )
        })
        .unwrap_or_default();
    eprintln!(
        "ringlab: {} cases in {:.2}s ({} jobs requested, {:.1} cases/s); \
structure cache: {} hits / {} misses ({:.0}% hit rate){store_note}",
        items.len(),
        elapsed.as_secs_f64(),
        if common.jobs == 0 {
            crate::executor::available_jobs()
        } else {
            common.jobs
        },
        items.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
    );
    if common.stats {
        print_engine_stats(&engine);
    }
    Ok(0)
}

/// Prints the markdown tables on stdout, or on stderr when the JSONL
/// stream already owns stdout (so `ringlab … --jsonl - | tool` stays valid
/// JSONL).
fn print_tables(markdown: &str, destination: Option<&str>) {
    if destination == Some("-") {
        eprint!("{markdown}");
    } else {
        print!("{markdown}");
    }
}

/// One engine's run as a registry snapshot (ring-obs/v1): `snapshot` (the
/// registry's counters and histograms) with the engine's own cache and
/// store counters overlaid under their canonical names. Every stats
/// consumer — `--stats`, the worker done event, the daemon — reports from
/// this one schema.
fn engine_snapshot(engine: &SweepEngine, mut snapshot: ring_obs::Snapshot) -> ring_obs::Snapshot {
    let cache = engine.cache_stats();
    let store = engine.store_stats();
    snapshot.set_counter(CACHE_HITS, cache.hits);
    snapshot.set_counter(CACHE_MISSES, cache.misses);
    snapshot.set_counter(STORE_HITS, store.hits);
    snapshot.set_counter(STORE_MISSES, store.misses);
    snapshot
}

/// The engine's cache + store statistics as one stderr JSON line, sourced
/// from the [`engine_snapshot`] schema. The cache block also counts the
/// structures the engine holds.
fn print_engine_stats(engine: &SweepEngine) {
    let snapshot = engine_snapshot(engine, ring_obs::global().snapshot());
    let structures = ("structures", Value::Uint(engine.cache().len() as u64));
    print_stats_line(Vec::new(), &snapshot, Some(structures));
}

/// Fleet-wide aggregates of a sharded run — the sum over every completed
/// shard's worker counters, printed as one stderr JSON line (the per-shard
/// breakdown stays in the manifest). The counters come from the completed
/// shards' ring-obs/v1 snapshots (the final successful attempt of each
/// shard — a retried shard's earlier attempts never double-count).
fn print_fleet_stats(manifest: &Manifest) {
    let completed: Vec<_> = manifest
        .shards
        .iter()
        .filter(|s| s.status == ShardStatus::Complete)
        .collect();
    let records: usize = completed.iter().map(|s| s.records).sum();
    let fields = json_fields([
        ("shards", Value::Uint(manifest.shards.len() as u64)),
        ("completed_shards", Value::Uint(completed.len() as u64)),
        ("records", Value::Uint(records as u64)),
    ]);
    print_stats_line(fields, &manifest.aggregate_metrics(), None);
}

/// Prints one `ringlab: stats` line on stderr: `fields`, then the `cache`
/// and `store` blocks read from `snapshot`, with `cache_extra` appended to
/// the cache block. CI and the verify recipe grep the blocks' field names.
fn print_stats_line(
    mut fields: Vec<(String, Value)>,
    snapshot: &ring_obs::Snapshot,
    cache_extra: Option<(&str, Value)>,
) {
    let hits = snapshot.counter(CACHE_HITS);
    let misses = snapshot.counter(CACHE_MISSES);
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let mut cache = json_fields([
        ("hits", Value::Uint(hits)),
        ("misses", Value::Uint(misses)),
        ("hit_rate", Value::Float(hit_rate)),
    ]);
    cache.extend(cache_extra.map(|(key, value)| (key.to_string(), value)));
    let store = json_fields([
        ("hits", Value::Uint(snapshot.counter(STORE_HITS))),
        ("misses", Value::Uint(snapshot.counter(STORE_MISSES))),
    ]);
    fields.push(("cache".to_string(), Value::Object(cache)));
    fields.push(("store".to_string(), Value::Object(store)));
    eprintln!(
        "ringlab: stats {}",
        serde_json::to_string(&Value::Object(fields)).expect("serializable stats")
    );
}

/// The members of a JSON object, in order.
fn json_fields<const N: usize>(fields: [(&str, Value); N]) -> Vec<(String, Value)> {
    fields
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

/// Opens a JSONL destination for writing (`-` = stdout).
fn open_destination(destination: &str) -> Result<Box<dyn Write + Send>, String> {
    if destination == "-" {
        return Ok(Box::new(std::io::stdout()));
    }
    if let Some(parent) = Path::new(destination).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    Ok(Box::new(std::fs::File::create(destination).map_err(
        |e| format!("cannot create {destination}: {e}"),
    )?))
}

// ---------------------------------------------------------------------
// Sharded execution.
// ---------------------------------------------------------------------

/// `--shard i/M`: runs one shard of the plan in this process, writing the
/// shard's records (with their global case indices) as plain JSONL. The
/// shard files of all M runs merge — `ringlab merge` — into the exact
/// single-process stream.
fn cmd_shard_slice(
    options: &Options,
    spec: &SweepSpec,
    scaling: &ScalingSpec,
    items: &[WorkItem],
    shard: usize,
    of: usize,
) -> Result<i32, String> {
    let ranges = plan_shards(items.len(), of);
    let range = ranges[shard];
    // Fleet mode: a shared store directory is how hand-partitioned workers
    // on one filesystem avoid rebuilding each other's structures.
    let common = options.common(
        || DEFAULT_STORE_DIR.to_string(),
        || {
            Some(format!(
                "results/{}.shard-{shard}-of-{of}.jsonl",
                options.subcommand.replace('-', "_")
            ))
        },
    );
    let engine = common.engine()?;
    let start = Instant::now();
    run_items_with_offset(
        &engine,
        &items[range.start..range.end],
        range.start,
        common.destination.as_deref(),
    )?;
    eprintln!(
        "ringlab: shard {shard}/{of} ({} of {} cases, [{}, {})) in {:.2}s; fingerprint {}",
        range.len(),
        items.len(),
        range.start,
        range.end,
        start.elapsed().as_secs_f64(),
        spec_fingerprint(&options.spec.subcommand, spec, scaling),
    );
    if common.stats {
        print_engine_stats(&engine);
    }
    Ok(0)
}

/// Executes items through the engine with the configured JSONL
/// destination; item `i` is case `offset + i` of the overall sweep.
fn run_items_with_offset(
    engine: &SweepEngine,
    items: &[WorkItem],
    offset: usize,
    destination: Option<&str>,
) -> Result<Vec<CaseRecord>, String> {
    let Some(destination) = destination else {
        return Ok(engine.run_with_offset::<Box<dyn Write + Send>>(items, offset, None));
    };
    let out = open_destination(destination)?;
    let sink = JsonlSink::new(out);
    let records = engine.run_with_offset(items, offset, Some(&sink));
    sink.finish();
    if destination != "-" {
        eprintln!(
            "ringlab: streamed {} records to {destination}",
            records.len()
        );
    }
    Ok(records)
}

/// `worker`: one shard of an experiment subcommand over stdio, or — with
/// `--connect ADDR` — a long-lived TCP worker registered with a `ringlab
/// serve` daemon. Either way the shard payload is the ring-distrib/v1
/// protocol; stderr stays human-readable.
fn cmd_worker(options: &Options) -> Result<i32, String> {
    if let Some(addr) = options.connect.clone() {
        return cmd_worker_connect(options, &addr);
    }
    run_worker_shard(options, std::io::stdout(), std::io::stdout())?;
    Ok(0)
}

/// Runs one worker shard, writing the ring-distrib/v1 protocol — start
/// event, record lines, done event — to the given writers (`event_out` and
/// `record_out` are two handles onto the same stream: stdout twice for the
/// child-process path, the daemon socket twice for `--connect`).
fn run_worker_shard<E: Write, R: Write + Send>(
    options: &Options,
    mut event_out: E,
    record_out: R,
) -> Result<(), String> {
    if options.spec.subcommand.is_empty() {
        return Err(format!("worker needs a subcommand\n{}", usage()));
    }
    let Some((shard, of)) = options.shard else {
        return Err("worker requires --shard i/M".into());
    };
    let spec = sweep_spec(&options.spec);
    let scaling = scaling_spec(&options.spec);
    let items = items_for(&options.spec.subcommand, &spec, &scaling)?;
    let range = plan_shards(items.len(), of)[shard];
    let fingerprint = spec_fingerprint(&options.spec.subcommand, &spec, &scaling);

    let start = StartEvent::new(shard, of, range.start, range.end, &fingerprint);
    writeln!(
        event_out,
        "{}",
        serde_json::to_string(&start).expect("serializable event")
    )
    .and_then(|()| event_out.flush())
    .map_err(|e| format!("cannot write the start event: {e}"))?;

    // Orchestrated workers receive the run's store directory explicitly;
    // a hand-launched worker may also point itself at a shared one. The
    // protocol owns the stream, so the shared JSONL destination is unused.
    let common = options.common(|| DEFAULT_STORE_DIR.to_string(), || None);
    let engine = common.engine()?;
    // The done event reports this job's metrics as a delta against the
    // process registry, so a long-lived TCP worker serving many jobs (or a
    // retried shard in one process) never re-reports earlier attempts.
    let baseline = ring_obs::global().snapshot();
    let tally = ShardTally::new(record_out, fail_after_from_env());
    let sink = JsonlSink::new(tally);
    engine.run_with_offset(&items[range.start..range.end], range.start, Some(&sink));
    let tally = sink.finish();

    // The engine's own counters are per-engine (fresh every job), so they
    // overlay the delta exactly.
    let metrics = engine_snapshot(&engine, ring_obs::global().snapshot().delta(&baseline));
    let done = DoneEvent::new(shard, tally.lines() as usize, tally.checksum(), metrics);
    writeln!(
        event_out,
        "{}",
        serde_json::to_string(&done).expect("serializable event")
    )
    .and_then(|()| event_out.flush())
    .map_err(|e| format!("cannot write the done event: {e}"))?;
    Ok(())
}

/// `worker --connect ADDR`: dial the daemon, register with a hello frame,
/// and serve job frames until dismissed. A broken daemon socket mid-job
/// abandons the shard (the orchestrator already counts it as a retryable
/// failure) and reconnects; once the daemon is gone for good the worker
/// exits cleanly.
fn cmd_worker_connect(options: &Options, addr: &str) -> Result<i32, String> {
    use std::io::{BufRead, BufReader};

    if !options.positionals.is_empty() || options.shard.is_some() {
        return Err(
            "worker --connect takes no subcommand or --shard: jobs arrive as daemon frames".into(),
        );
    }
    let name = format!("worker-{}", std::process::id());
    let mut registered_before = false;
    loop {
        let stream = match connect_with_retry(addr) {
            Ok(stream) => stream,
            Err(e) if registered_before => {
                eprintln!("ringlab: worker {name}: daemon at {addr} is gone ({e}); exiting");
                return Ok(0);
            }
            Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
        };
        let hello = serde::Value::Object(vec![
            ("event".to_string(), serde::Value::Str("hello".to_string())),
            (
                "schema".to_string(),
                serde::Value::Str(ring_serve::SCHEMA.to_string()),
            ),
            ("worker".to_string(), serde::Value::Str(name.clone())),
        ]);
        let mut hello_out = &stream;
        if writeln!(
            hello_out,
            "{}",
            serde_json::to_string(&hello).expect("serializable frame")
        )
        .and_then(|()| hello_out.flush())
        .is_err()
        {
            continue;
        }
        registered_before = true;
        eprintln!("ringlab: worker {name}: registered with {addr}");
        let reader = BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        });
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let Ok(frame) = serde_json::from_str(&line) else {
                break;
            };
            match frame.get("event").and_then(serde::Value::as_str) {
                Some("job") => {
                    let argv: Vec<String> = frame
                        .get("argv")
                        .and_then(serde::Value::as_array)
                        .map(|items| {
                            items
                                .iter()
                                .filter_map(|v| v.as_str().map(str::to_string))
                                .collect()
                        })
                        .unwrap_or_default();
                    if let Err(e) = run_tcp_job(&argv, &stream) {
                        // The stream may hold a half-written shard: poison
                        // the connection and re-register on a fresh one.
                        eprintln!("ringlab: worker {name}: job failed: {e}");
                        break;
                    }
                }
                Some("shutdown") => {
                    eprintln!("ringlab: worker {name}: dismissed by the daemon");
                    return Ok(0);
                }
                _ => break,
            }
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Connects to the daemon, retrying for ~5 seconds (a worker fleet often
/// starts before — or reconnects across — the daemon's listener).
fn connect_with_retry(addr: &str) -> Result<std::net::TcpStream, String> {
    let mut last = String::from("no attempt made");
    for attempt in 0..20 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// Executes one daemon job frame: parse the argv exactly like the
/// child-process worker would have, then run the shard with the daemon
/// socket as the protocol stream. Panics are caught so a poisoned case
/// cannot take the whole worker down silently.
fn run_tcp_job(argv: &[String], stream: &std::net::TcpStream) -> Result<(), String> {
    let parsed = parse(argv).map_err(|e| format!("bad job argv: {e}"))?;
    if parsed.subcommand != "worker" || parsed.connect.is_some() {
        return Err("job frames must carry a plain `worker` argv".into());
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_worker_shard(&parsed, stream, stream)
    })) {
        Ok(result) => result,
        Err(_) => Err("the shard panicked".into()),
    }
}

/// `serve`: the sweep-as-a-service daemon. Accepts sweep specs over
/// HTTP/JSON, dispatches shards to registered `worker --connect` processes
/// over TCP, and streams per-case JSONL to subscribers; every run
/// directory stays `ringlab resume`-able.
fn cmd_serve(options: &Options) -> Result<i32, String> {
    if !options.positionals.is_empty() {
        return Err(format!("unexpected argument `{}`", options.positionals[0]));
    }
    let Some(listen) = options.listen.clone() else {
        return Err(format!("serve requires --listen ADDR\n{}", usage()));
    };
    let data_dir = PathBuf::from(
        options
            .data_dir
            .clone()
            .unwrap_or_else(|| "results/serve".to_string()),
    );
    // The resolver replays a submitted spec through the exact same
    // validation and enumeration pipeline the CLI uses, so the daemon
    // accepts exactly the specs its workers accept, and a daemon run
    // records the same fingerprint (and case count) a `ringlab sweep` of
    // the spec would.
    let resolver: ring_serve::SpecResolver = Box::new(|spec: &SpecParams| {
        validate_spec(spec)?;
        let sweep = sweep_spec(spec);
        let scaling = scaling_spec(spec);
        let items = items_for(&spec.subcommand, &sweep, &scaling)?;
        Ok(ring_serve::ResolvedSpec {
            total_cases: items.len(),
            fingerprint: spec_fingerprint(&spec.subcommand, &sweep, &scaling),
        })
    });
    ring_serve::serve(ring_serve::ServeConfig {
        listen,
        data_dir,
        jobs_per_worker: if options.jobs == 0 { 1 } else { options.jobs },
        retries: options.retries,
        shard_timeout: options.shard_timeout.map(std::time::Duration::from_secs),
        lease_timeout: std::time::Duration::from_secs(options.lease_timeout.unwrap_or(600)),
        resolver,
    })?;
    Ok(0)
}

/// `--shards M`: plans, orchestrates M worker processes, merges, and
/// renders — one command, output byte-identical to the single-process run.
fn cmd_sharded(
    options: &Options,
    spec: &SweepSpec,
    scaling: &ScalingSpec,
    items: &[WorkItem],
) -> Result<i32, String> {
    let run_dir =
        PathBuf::from(options.run_dir.clone().unwrap_or_else(|| {
            format!("results/distrib/{}", options.subcommand.replace('-', "_"))
        }));
    let ranges = plan_shards(items.len(), options.shards);
    let fingerprint = spec_fingerprint(&options.spec.subcommand, spec, scaling);
    // The fleet's shared structure store defaults into the run directory,
    // next to the shard files it accelerates.
    let CommonArgs {
        store_dir,
        destination,
        ..
    } = options.common(
        || run_dir.join("structures").to_string_lossy().into_owned(),
        || options.default_jsonl(),
    );
    let manifest = Manifest::new(
        options.spec.clone(),
        fingerprint,
        items.len(),
        &ranges,
        1,
        // Empty = no JSONL output (`--no-jsonl`): a resume of this run
        // must not invent a stream the original invocation suppressed.
        destination.clone().unwrap_or_default(),
    )
    .with_structure_store(store_dir.unwrap_or_default())
    .with_shard_timeout(options.shard_timeout);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let manifest = Mutex::new(manifest);
    orchestrate_and_finish(options, &run_dir, &manifest, destination)
}

/// `resume`: revalidates a run directory against its manifest, re-runs
/// only the shards whose files do not match, and finishes the run.
fn cmd_resume(options: &Options) -> Result<i32, String> {
    let run_dir = match (&options.run_dir, options.positionals.as_slice()) {
        (Some(dir), []) => PathBuf::from(dir),
        (None, [dir]) => PathBuf::from(dir),
        (None, []) => return Err(format!("resume needs a run directory\n{}", usage())),
        _ => return Err("resume takes exactly one run directory".into()),
    };
    let mut manifest = Manifest::load(&run_dir)?;

    // The manifest must describe a case enumeration this binary reproduces.
    validate_spec(&manifest.spec).map_err(|e| format!("the run's spec is invalid: {e}"))?;
    let spec = sweep_spec(&manifest.spec);
    let scaling = scaling_spec(&manifest.spec);
    let items = items_for(&manifest.spec.subcommand, &spec, &scaling)?;
    let fingerprint = spec_fingerprint(&manifest.spec.subcommand, &spec, &scaling);
    if fingerprint != manifest.spec_fingerprint || items.len() != manifest.total_cases {
        return Err(format!(
            "manifest fingerprint {} does not match this binary's enumeration {} \
             ({} cases vs {}): refusing to mix shards across specs",
            manifest.spec_fingerprint,
            fingerprint,
            manifest.total_cases,
            items.len(),
        ));
    }

    let demoted = manifest
        .revalidate_completed(&run_dir)
        .map_err(|e| format!("cannot revalidate {}: {e}", run_dir.display()))?;
    if !demoted.is_empty() {
        eprintln!(
            "ringlab: shards {demoted:?} no longer match their recorded checksums; re-running"
        );
    }
    // The run's structure store revalidates like its shard files: any file
    // that no longer proves itself (checksum, canonical form, key) is
    // dropped here and rebuilt by the re-launched workers — and the dead
    // fleet's orphaned claim/tmp files are swept so no re-launched worker
    // waits out a claim nobody holds.
    if !manifest.structure_store.is_empty() {
        let store_path = PathBuf::from(&manifest.structure_store);
        let swept = crate::store::sweep_stale_files(&store_path)
            .map_err(|e| format!("cannot sweep store {}: {e}", store_path.display()))?;
        if swept > 0 {
            eprintln!("ringlab: swept {swept} stale claim/tmp file(s) from the structure store");
        }
        let removed = crate::store::revalidate_store_dir(&store_path)
            .map_err(|e| format!("cannot revalidate store {}: {e}", store_path.display()))?;
        if !removed.is_empty() {
            eprintln!(
                "ringlab: {} structure file(s) failed revalidation and will be rebuilt: {:?}",
                removed.len(),
                removed
            );
        }
    }
    let pending = manifest.incomplete_shards().len();
    eprintln!(
        "ringlab: resuming {}: {pending} of {} shards to run",
        run_dir.display(),
        manifest.shards.len()
    );
    // Without --jsonl / --no-jsonl the stream goes where the run recorded;
    // an empty record means it was started with --no-jsonl, so keep
    // suppressing the stream. The store comes from the manifest alone.
    let destination = options
        .common(String::new, || {
            Some(manifest.output.clone()).filter(|output| !output.is_empty())
        })
        .destination;
    let manifest = Mutex::new(manifest);
    orchestrate_and_finish(options, &run_dir, &manifest, destination)
}

/// Shared tail of `--shards` and `resume`: run the incomplete shards,
/// merge, render tables, report statistics.
fn orchestrate_and_finish(
    options: &Options,
    run_dir: &Path,
    manifest: &Mutex<Manifest>,
    destination: Option<String>,
) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate ringlab: {e}"))?;
    let (spec_params, jobs_per_worker, shard_count, store_dir, recorded_timeout) = {
        let m = manifest.lock().expect("manifest lock");
        (
            m.spec.clone(),
            m.jobs_per_worker,
            m.shards.len(),
            m.structure_store.clone(),
            m.shard_timeout,
        )
    };
    let orchestration = OrchestratorOptions {
        concurrency: if options.jobs == 0 {
            crate::executor::available_jobs()
        } else {
            options.jobs
        },
        retries: options.retries,
        // An explicit flag wins; otherwise `resume` supervises with the
        // budget the original run recorded.
        shard_timeout: options
            .shard_timeout
            .or(recorded_timeout)
            .map(std::time::Duration::from_secs),
    };
    let start = Instant::now();
    let outcome = run_pending_shards(run_dir, manifest, &orchestration, &|range| {
        let mut cmd = Command::new(&exe);
        cmd.args(spec_params.worker_args(jobs_per_worker, range, shard_count, &store_dir));
        // Tracing rides along runtime-only: worker sidecars land next to
        // the shard files, and the protocol stream stays byte-identical.
        if options.trace {
            cmd.arg("--trace-dir").arg(run_dir);
        }
        cmd
    })
    .map_err(|e| format!("orchestration failed: {e}"))?;
    let elapsed = start.elapsed();

    let manifest = manifest.lock().expect("manifest lock");
    if !outcome.failed.is_empty() {
        return Err(format!(
            "shards {:?} failed after {} attempt(s) each; fix the cause and run \
             `ringlab resume {}`",
            outcome.failed,
            options.retries + 1,
            run_dir.display(),
        ));
    }

    // Merge the shard files into the destination, parsing each record
    // line as it streams past so only the measurements (for the tables)
    // are retained — never the whole merged byte stream.
    let inputs = manifest.shard_files(run_dir);
    let out: Box<dyn Write + Send> = match destination.as_deref() {
        Some(dest) => open_destination(dest)?,
        None => Box::new(std::io::sink()),
    };
    let mut collector = MeasurementCollector::new(out);
    let report = merge_shards(&inputs, &mut collector, Some(manifest.total_cases))
        .map_err(|e| format!("merge failed: {e}"))?;
    let measurements = collector.finish()?;
    print_tables(&render_markdown(&measurements), destination.as_deref());

    let metrics = manifest.aggregate_metrics();
    let store_note = if manifest.structure_store.is_empty() {
        String::new()
    } else {
        format!(
            ", {} store loads / {} constructions",
            metrics.counter(STORE_HITS),
            metrics.counter(STORE_MISSES)
        )
    };
    eprintln!(
        "ringlab: {} cases over {} shards ({} run now, {} concurrent workers) in {:.2}s; \
merged {} records (checksum {}); workers: {} cache hits / {} misses{store_note}; \
manifest {}",
        manifest.total_cases,
        manifest.shards.len(),
        outcome.completed.len(),
        orchestration.concurrency,
        elapsed.as_secs_f64(),
        report.records,
        report.checksum,
        metrics.counter(CACHE_HITS),
        metrics.counter(CACHE_MISSES),
        Manifest::path_in(run_dir).display(),
    );
    if let Some(dest) = destination.as_deref() {
        if dest != "-" {
            eprintln!("ringlab: merged output at {dest}");
        }
    }
    if options.stats {
        print_fleet_stats(&manifest);
    }
    Ok(0)
}

/// `structures`: maintenance of an on-disk structure store — `prebuild`
/// constructs and publishes every structure a subcommand will request,
/// `verify` validates every file, `gc` drops what no longer proves itself
/// plus stale tmp/claim leftovers, `stats` reports per-kind file counts and
/// bytes.
fn cmd_structures(options: &Options) -> Result<i32, String> {
    let Some(action) = options.positionals.first() else {
        return Err(format!("structures needs an action\n{}", usage()));
    };
    let dir = options
        .structure_store
        .clone()
        .flatten()
        .unwrap_or_else(|| DEFAULT_STORE_DIR.to_string());
    let dir_path = PathBuf::from(&dir);
    match action.as_str() {
        "prebuild" => {
            let Some(subcommand) = options.positionals.get(1) else {
                return Err(format!(
                    "structures prebuild needs a subcommand\n{}",
                    usage()
                ));
            };
            if options.positionals.len() > 2 {
                return Err(format!("unexpected argument `{}`", options.positionals[2]));
            }
            let spec = sweep_spec(&options.spec);
            let scaling = scaling_spec(&options.spec);
            let items = items_for(&options.spec.subcommand, &spec, &scaling)?;
            // One entry per distinct key, materialisation hint maximised
            // over every item that will request it.
            let mut keys: Vec<(ring_combinat::StructureKey, usize)> = Vec::new();
            for item in &items {
                for (key, hint) in item.structure_keys() {
                    match keys.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, existing)) => *existing = (*existing).max(hint),
                        None => keys.push((key, hint)),
                    }
                }
            }
            let store = StructureStore::at(&dir_path)
                .map_err(|e| format!("cannot open structure store {dir}: {e}"))?;
            for (key, hint) in &keys {
                match key.kind {
                    ring_combinat::StructureKind::StrongDistinguisher => {
                        let strong = store
                            .try_strong_distinguisher(key.universe, key.seed)
                            .map_err(|e| e.to_string())?;
                        let prefix = strong.prefix_size_for((*hint).max(2));
                        for i in 0..prefix {
                            strong.set(i);
                        }
                    }
                    ring_combinat::StructureKind::Distinguisher => {
                        store
                            .try_distinguisher(key.universe, key.n as usize, key.seed)
                            .map_err(|e| e.to_string())?;
                    }
                    // Implicit, never stored (and never enumerated).
                    ring_combinat::StructureKind::SelectiveFamily => {}
                }
            }
            store.flush().map_err(|e| e.to_string())?;
            let stats = store.stats();
            eprintln!(
                "ringlab: prebuilt {} structure(s) for `{subcommand}` into {dir} \
({} constructed, {} already present)",
                keys.len(),
                stats.misses,
                stats.hits,
            );
            Ok(0)
        }
        "stats" => {
            let stats = crate::store::store_dir_stats(&dir_path)
                .map_err(|e| format!("cannot stat {dir}: {e}"))?;
            eprintln!(
                "ringlab: structures stats {}",
                serde_json::to_string(&stats).expect("serializable stats")
            );
            Ok(0)
        }
        "verify" => {
            let reports = crate::store::scan_store_dir(&dir_path)
                .map_err(|e| format!("cannot scan {dir}: {e}"))?;
            let mut corrupt = 0usize;
            for report in &reports {
                match &report.error {
                    None => eprintln!(
                        "ringlab: ok      {} ({} sets)",
                        report.path.display(),
                        report.sets
                    ),
                    Some(error) => {
                        corrupt += 1;
                        eprintln!("ringlab: CORRUPT {}: {error}", report.path.display());
                    }
                }
            }
            eprintln!(
                "ringlab: verified {dir}: {} file(s), {corrupt} corrupt",
                reports.len()
            );
            Ok(if corrupt == 0 { 0 } else { 1 })
        }
        "gc" => {
            let report = crate::store::gc_store_dir(&dir_path)
                .map_err(|e| format!("cannot gc {dir}: {e}"))?;
            eprintln!(
                "ringlab: gc {dir}: kept {} file(s), removed {} corrupt, {} stale tmp/claim",
                report.kept, report.corrupt, report.stale
            );
            Ok(0)
        }
        other => Err(format!("unknown structures action `{other}`\n{}", usage())),
    }
}

/// `merge`: standalone k-way merge of shard files (or of a run directory's
/// shards) into one JSONL stream.
fn cmd_merge(options: &Options) -> Result<i32, String> {
    let destination = options.jsonl.clone().unwrap_or_else(|| "-".into());
    let (inputs, expect_total) = if let Some(dir) = &options.run_dir {
        if !options.positionals.is_empty() {
            return Err("merge takes either --run-dir or shard files, not both".into());
        }
        let run_dir = PathBuf::from(dir);
        let manifest = Manifest::load(&run_dir)?;
        if !manifest.is_complete() {
            return Err(format!(
                "run directory {} has incomplete shards; run `ringlab resume {}` first",
                run_dir.display(),
                run_dir.display(),
            ));
        }
        (manifest.shard_files(&run_dir), Some(manifest.total_cases))
    } else {
        if options.positionals.is_empty() {
            return Err(format!("merge needs shard files or --run-dir\n{}", usage()));
        }
        // Hand-listed shard files: indices must be strictly ascending, but
        // the full 0..total sequence is only enforced when the caller
        // merges a complete run directory.
        (
            options.positionals.iter().map(PathBuf::from).collect(),
            None,
        )
    };
    let mut out = open_destination(&destination)?;
    let report =
        merge_shards(&inputs, &mut out, expect_total).map_err(|e| format!("merge failed: {e}"))?;
    eprintln!(
        "ringlab: merged {} records from {} shard file(s) (checksum {})",
        report.records,
        inputs.len(),
        report.checksum,
    );
    Ok(0)
}

/// `trace`: span-trace sidecar inspection. `summarize <RUN_DIR>` scans the
/// directory's `trace-*.jsonl` files and renders a per-span time-budget
/// table — where a run's wall-clock actually went, without re-running it.
fn cmd_trace(options: &Options) -> Result<i32, String> {
    match options.positionals.first().map(String::as_str) {
        Some("summarize") => {
            let dir = match (options.positionals.get(1), &options.run_dir) {
                (Some(dir), None) => PathBuf::from(dir),
                (None, Some(dir)) => PathBuf::from(dir),
                (None, None) => {
                    return Err(format!(
                        "trace summarize needs a run directory\n{}",
                        usage()
                    ))
                }
                _ => return Err("trace summarize takes exactly one run directory".into()),
            };
            let (table, files, events) = summarize_traces(&dir)?;
            print!("{table}");
            eprintln!(
                "ringlab: summarized {events} span(s) from {files} trace file(s) in {}",
                dir.display()
            );
            Ok(0)
        }
        Some(other) => Err(format!("unknown trace action `{other}`\n{}", usage())),
        None => Err(format!("trace needs an action\n{}", usage())),
    }
}

/// Aggregates every `trace-*.jsonl` sidecar under `dir` into one markdown
/// time-budget table (one row per span name, heaviest first), returning
/// the table plus the file and span-end counts. Durations funnel through
/// [`ring_obs::Histogram`]s, so the percentiles are the same log2-bucket
/// upper bounds `/v1/metrics` reports.
fn summarize_traces(dir: &Path) -> Result<(String, usize, u64), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files = 0usize;
    let mut spans: std::collections::BTreeMap<String, ring_obs::Histogram> = Default::default();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("trace-") && name.ends_with(".jsonl")) {
            continue;
        }
        files += 1;
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            let value: serde::Value = serde_json::from_str(line)
                .map_err(|e| format!("corrupt trace line in {name}: {e}"))?;
            if value.get("event").and_then(serde::Value::as_str) != Some("end") {
                continue;
            }
            let Some(span) = value.get("span").and_then(serde::Value::as_str) else {
                continue;
            };
            let dur = value
                .get("dur_ns")
                .and_then(serde::Value::as_u64)
                .unwrap_or(0);
            spans.entry(span.to_string()).or_default().record(dur);
        }
    }
    if files == 0 {
        return Err(format!(
            "no trace-*.jsonl sidecars in {} (run with --trace first)",
            dir.display()
        ));
    }
    let mut snapshots: Vec<ring_obs::HistogramSnapshot> = spans
        .iter()
        .map(|(name, histogram)| histogram.snapshot(name))
        .collect();
    snapshots.sort_by(|a, b| b.sum_ns.cmp(&a.sum_ns).then_with(|| a.name.cmp(&b.name)));
    // Shares are of the summed span time, not wall-clock: spans nest
    // (a `case` contains its `construct_structure`s) and processes run in
    // parallel, so the column answers "which stage dominates", not "how
    // long did the run take".
    let total: u64 = snapshots.iter().map(|s| s.sum_ns).sum();
    let events: u64 = snapshots.iter().map(|s| s.count).sum();
    let mut out = String::from(
        "| span | count | total | share | p50 | p90 | p99 |\n|---|---|---|---|---|---|---|\n",
    );
    for snapshot in &snapshots {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% | {} | {} | {} |\n",
            snapshot.name,
            snapshot.count,
            format_ns(snapshot.sum_ns),
            100.0 * snapshot.sum_ns as f64 / total.max(1) as f64,
            format_ns(snapshot.p50()),
            format_ns(snapshot.p90()),
            format_ns(snapshot.p99()),
        ));
    }
    Ok((out, files, events))
}

/// Renders a nanosecond quantity with a human-scaled unit (the span table
/// mixes sub-microsecond lock probes with multi-second shard attempts).
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A writer that forwards every byte to its destination while parsing each
/// completed JSONL line into the measurements the tables need — so a merge
/// stays streaming (only the current partial line and the parsed
/// measurements are retained, never the merged byte stream).
struct MeasurementCollector<W: Write> {
    inner: W,
    partial: Vec<u8>,
    measurements: Vec<Measurement>,
    error: Option<String>,
}

impl<W: Write> MeasurementCollector<W> {
    fn new(inner: W) -> Self {
        MeasurementCollector {
            inner,
            partial: Vec::new(),
            measurements: Vec::new(),
            error: None,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        self.partial.extend_from_slice(bytes);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            let parsed = std::str::from_utf8(&line[..line.len() - 1])
                .map_err(|_| "merged record is not UTF-8".to_string())
                .and_then(|text| {
                    serde_json::from_str(text).map_err(|e| format!("merged record: {e}"))
                })
                .and_then(|value| CaseRecord::from_json(&value));
            match parsed {
                Ok(record) => self.measurements.extend(record.measurements),
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
    }

    fn finish(self) -> Result<Vec<Measurement>, String> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if !self.partial.is_empty() {
            return Err("merged stream ended mid-record".into());
        }
        Ok(self.measurements)
    }
}

impl<W: Write> Write for MeasurementCollector<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.absorb(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Renders the measurements as the familiar markdown sections, grouped by
/// experiment in canonical order. Table and figure sections compress
/// repetitions via [`aggregate`]; the scaling and audit sections list raw
/// rows, matching the former per-experiment binaries.
pub fn render_markdown(measurements: &[Measurement]) -> String {
    const SECTIONS: [(&str, &str, bool); 6] = [
        (
            "table1",
            "Table I — deterministic solutions in the general setting",
            true,
        ),
        (
            "table2",
            "Table II — deterministic solutions with a common sense of direction",
            true,
        ),
        (
            "fig1",
            "Figure 1 — reductions among coordination problems (odd n / lazy / perceptive)",
            true,
        ),
        (
            "fig2",
            "Figure 2 — reductions among coordination problems (basic model, even n)",
            true,
        ),
        (
            "distinguisher_scaling",
            "Distinguisher and selective-family scaling (Section IV)",
            false,
        ),
        ("lower_bounds", "Lower-bound audits (Lemmas 5 and 6)", false),
    ];
    let mut out = String::new();
    for (key, title, aggregated) in SECTIONS {
        let section: Vec<Measurement> = measurements
            .iter()
            .filter(|m| m.experiment == key)
            .cloned()
            .collect();
        if section.is_empty() {
            continue;
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("# {title}\n\n"));
        let rows = if aggregated {
            aggregate(&section)
        } else {
            section
        };
        out.push_str(&format_markdown_table(&rows));
    }
    let faults: Vec<&Measurement> = measurements
        .iter()
        .filter(|m| m.experiment == "faults")
        .collect();
    if !faults.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("# Fault degradation — rounds and failure rates under injected faults\n\n");
        out.push_str(&render_faults_table(&faults));
    }
    out
}

/// The degradation table of the `faults` experiment: per (fault setting,
/// protocol, n, universe) group, the p50/p90 rounds over completed runs and
/// the failure / timeout percentages over all runs. The raw measurement
/// pairs per run are a `rounds` row (`None` = failed or timed out) and a
/// 0/1 `timeout` row; repetitions land in the same group.
fn render_faults_table(measurements: &[&Measurement]) -> String {
    #[derive(Default)]
    struct Bucket {
        completed_rounds: Vec<f64>,
        runs: usize,
        timeouts: u64,
    }
    let mut groups: std::collections::BTreeMap<(u64, String, String, usize, u64), Bucket> =
        std::collections::BTreeMap::new();
    for m in measurements {
        let Some((problem, kind)) = m.quantity.rsplit_once(": ") else {
            continue;
        };
        // Keyed by the numeric drop rate first, so the table reads in
        // increasing-severity order rather than lexicographic label order.
        let key = (
            drop_rate(&m.setting).unwrap_or(u64::MAX),
            m.setting.clone(),
            problem.to_string(),
            m.n,
            m.universe,
        );
        let bucket = groups.entry(key).or_default();
        match kind {
            "rounds" => {
                bucket.runs += 1;
                if let Some(rounds) = m.value {
                    bucket.completed_rounds.push(rounds);
                }
            }
            "timeout" => bucket.timeouts += m.value.unwrap_or(0.0) as u64,
            _ => {}
        }
    }
    let mut out = String::from(
        "| setting | protocol | n | universe | runs | p50 rounds | p90 rounds \
| failure % | timeout % |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for ((_, setting, problem, n, universe), mut bucket) in groups {
        bucket
            .completed_rounds
            .sort_by(|a, b| a.partial_cmp(b).expect("finite round counts"));
        let runs = bucket.runs.max(1) as f64;
        let failures = bucket.runs - bucket.completed_rounds.len();
        out.push_str(&format!(
            "| {setting} | {problem} | {n} | {universe} | {} | {} | {} | {:.0} | {:.0} |\n",
            bucket.runs,
            nearest_rank(&bucket.completed_rounds, 0.5),
            nearest_rank(&bucket.completed_rounds, 0.9),
            100.0 * failures as f64 / runs,
            100.0 * bucket.timeouts as f64 / runs,
        ));
    }
    out
}

/// The Figure-3-style degradation artifact: per protocol, the median
/// rounds to completion as the message-drop rate grows — one row per drop
/// rate, one column per ring size, the failure percentage of runs in
/// parentheses. Built from the same measurement pairs as the faults table,
/// aggregated over universes and repetitions (and over the crash/churn
/// axes, so render it from a drop-only sweep for a clean Figure 3).
fn render_fig3(measurements: &[Measurement]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    #[derive(Default)]
    struct Cell {
        completed_rounds: Vec<f64>,
        runs: usize,
    }
    let mut cells: BTreeMap<(String, u64, usize), Cell> = BTreeMap::new();
    let mut sizes: BTreeSet<usize> = BTreeSet::new();
    for m in measurements.iter().filter(|m| m.experiment == "faults") {
        let Some((problem, kind)) = m.quantity.rsplit_once(": ") else {
            continue;
        };
        if kind != "rounds" {
            continue;
        }
        let Some(drop) = drop_rate(&m.setting) else {
            continue;
        };
        sizes.insert(m.n);
        let cell = cells.entry((problem.to_string(), drop, m.n)).or_default();
        cell.runs += 1;
        if let Some(rounds) = m.value {
            cell.completed_rounds.push(rounds);
        }
    }
    let mut out = String::from(
        "# Figure 3 — protocol degradation under message loss\n\n\
         Median rounds to completion per per-mille message-drop rate; the\n\
         failure percentage of runs (round-limit hits) in parentheses. `-`\n\
         marks a cell where no run completed.\n",
    );
    for cell in cells.values_mut() {
        cell.completed_rounds
            .sort_by(|a, b| a.partial_cmp(b).expect("finite round counts"));
    }
    let problems: BTreeSet<String> = cells.keys().map(|(p, _, _)| p.clone()).collect();
    let drops: BTreeSet<u64> = cells.keys().map(|&(_, d, _)| d).collect();
    for problem in problems {
        out.push_str(&format!("\n## {problem}\n\n| drop (per mille) |"));
        for &n in &sizes {
            out.push_str(&format!(" n={n} |"));
        }
        out.push_str("\n|---|");
        out.push_str(&"---|".repeat(sizes.len()));
        out.push('\n');
        for &drop in &drops {
            out.push_str(&format!("| {drop} |"));
            for &n in &sizes {
                match cells.get(&(problem.clone(), drop, n)) {
                    None => out.push_str(" · |"),
                    Some(cell) => {
                        let failures = cell.runs - cell.completed_rounds.len();
                        let failure_pct = 100.0 * failures as f64 / cell.runs.max(1) as f64;
                        let p50 = nearest_rank(&cell.completed_rounds, 0.5);
                        out.push_str(&format!(" {p50} ({failure_pct:.0}%) |"));
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// The per-mille drop rate of a `faults` setting label (`drop R/1000…`),
/// or `None` for a setting without a drop axis.
fn drop_rate(setting: &str) -> Option<u64> {
    setting
        .strip_prefix("drop ")
        .and_then(|rest| rest.split('/').next())
        .and_then(|digits| digits.parse().ok())
}

/// The nearest-rank `p`-percentile of ascending round counts, rendered as
/// an integer; `-` when no run completed.
fn nearest_rank(sorted_rounds: &[f64], p: f64) -> String {
    if sorted_rounds.is_empty() {
        return "-".into();
    }
    let idx = ((sorted_rounds.len() - 1) as f64 * p).round() as usize;
    format!("{:.0}", sorted_rounds[idx])
}

/// Writes the `--render-fig3` artifact atomically (tmp + rename), creating
/// parent directories as needed.
fn write_fig3(path: &str, measurements: &[Measurement]) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, render_fig3(measurements))
        .map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot finalize {path}: {e}"))?;
    Ok(())
}

/// Every rule a sweep spec must satisfy before anything enumerates it. The
/// parser, the daemon's submission resolver and `resume` all call this one
/// check, so a spec any of them accepts is a spec every worker runs
/// without panicking: rings have at least `MIN_AGENTS` agents, universes
/// are positive and at most [`MAX_UNIVERSE`], and scaling set sizes fit
/// twice into the scaling universe.
fn validate_spec(spec: &SpecParams) -> Result<(), String> {
    if spec.sizes.as_ref().is_some_and(Vec::is_empty) {
        return Err("--sizes expects at least one size".into());
    }
    if spec.universe_factors.as_ref().is_some_and(Vec::is_empty) {
        return Err("--universe-factors expects at least one factor".into());
    }
    if spec.reps == Some(0) {
        return Err("--reps expects a positive integer".into());
    }
    if spec.structure_seeds == Some(0) {
        return Err("--structure-seeds expects a positive integer".into());
    }
    // Beyond the window count, schedule slots would wrap onto already-used
    // strong windows and silently repeat bit-identical strong sequences —
    // refuse rather than mislabel collapsed diversity as K distinct seeds.
    if spec
        .structure_seeds
        .is_some_and(|k| k > ring_combinat::STRONG_WINDOW)
    {
        return Err(format!(
            "--structure-seeds supports at most {} distinct seeds (strong sequences \
are windows into one universal sequence with {} window offsets)",
            ring_combinat::STRONG_WINDOW,
            ring_combinat::STRONG_WINDOW,
        ));
    }
    if spec.subcommand == "scaling" && spec.universe_factors.is_some() {
        return Err(
            "--universe-factors does not apply to `scaling` (its universe is absolute; \
use --quick for the reduced variant)"
                .into(),
        );
    }
    if spec.subcommand == "scaling" && spec.reps.is_some() {
        return Err("--reps does not apply to `scaling` (one measurement per set size)".into());
    }
    if spec.subcommand == "scaling" && spec.structure_seeds.is_some() {
        return Err(
            "the structure-seed schedule does not apply to `scaling` (its structures are \
keyed by the scaling seed; use --seed)"
                .into(),
        );
    }
    let fault_flags_given = spec.fault_drops.is_some()
        || spec.fault_crashes.is_some()
        || spec.fault_churn.is_some()
        || spec.fault_adversarial;
    if fault_flags_given && spec.subcommand != "faults" {
        return Err("fault flags apply only to the `faults` subcommand".into());
    }
    if spec.fault_drops.as_ref().is_some_and(Vec::is_empty) {
        return Err("--fault-drops expects at least one rate".into());
    }
    if spec
        .fault_drops
        .as_ref()
        .is_some_and(|drops| drops.iter().any(|&d| d > 1000))
    {
        return Err("--fault-drops rates are per mille (at most 1000)".into());
    }
    let experiment = spec.subcommand.as_str();
    if experiment != "scaling" && listed(EXPERIMENTS, experiment) {
        let sweep = sweep_spec(spec);
        if let Some(n) = sweep.sizes.iter().find(|&&n| n < MIN_AGENTS) {
            return Err(format!("--sizes: rings need {MIN_AGENTS}+ agents, not {n}"));
        }
        let n = sweep.sizes.iter().max().map_or(0, |&n| n as u64);
        let factor = sweep.universe_factors.iter().max().copied().unwrap_or(0);
        let largest = factor.saturating_mul(n);
        if sweep.universe_factors.contains(&0) || largest > MAX_UNIVERSE {
            return Err(format!("universe factor·n must be in 1..={MAX_UNIVERSE}"));
        }
    }
    // Scaling measures pairs of disjoint sets, so each set size must fit
    // twice into the scaling universe.
    if experiment == "scaling" || experiment == "all" {
        let scaling = scaling_spec(spec);
        let largest = scaling.universe / 2;
        if scaling.sizes.iter().any(|&n| n == 0 || n as u64 > largest) {
            return Err(format!("scaling set sizes must lie in 1..={largest}"));
        }
    }
    Ok(())
}

/// The largest identifier universe (`factor·n`) a sweep accepts. One dense
/// `IdSet` over it is 512 MiB, so a sweep past it would die in an
/// allocation rather than measure anything; the largest universe a
/// benchmark uses is 64·512 = 2^15.
const MAX_UNIVERSE: u64 = 1 << 32;

fn sweep_spec(params: &SpecParams) -> SweepSpec {
    let mut spec = if params.quick {
        SweepSpec::quick()
    } else {
        SweepSpec::standard()
    };
    if let Some(sizes) = &params.sizes {
        spec.sizes = sizes.clone();
    }
    if let Some(factors) = &params.universe_factors {
        spec.universe_factors = factors.clone();
    }
    if let Some(reps) = params.reps {
        spec.repetitions = reps;
    }
    if let Some(seed) = params.seed {
        spec.seed = seed;
    }
    spec.structure_seeds = params.structure_seeds;
    // Only a faulty sweep carries fault axes: clean subcommands must keep
    // their pre-fault-layer fingerprints, and `validate_spec` rejects fault
    // fields anywhere else.
    if params.subcommand == "faults" {
        let standard = FaultAxes::standard();
        spec.faults = Some(FaultAxes {
            drops: params.fault_drops.clone().unwrap_or(standard.drops),
            crashes: params.fault_crashes.unwrap_or(standard.crashes),
            churn: params.fault_churn.unwrap_or(standard.churn),
            adversarial: params.fault_adversarial || standard.adversarial,
        });
    }
    spec
}

fn scaling_spec(params: &SpecParams) -> ScalingSpec {
    let mut scaling = if params.quick {
        // Reduced sizes for smoke runs, exercising both family kinds and
        // the protocol-driven measurement.
        ScalingSpec {
            universe: 1 << 10,
            sizes: vec![8, 16],
            seed: 41,
        }
    } else {
        ScalingSpec::standard()
    };
    if let Some(sizes) = &params.sizes {
        scaling.sizes = sizes.clone();
    }
    if let Some(seed) = params.seed {
        scaling.seed = seed;
    }
    scaling
}

/// Parses an argv (without the program name). Flags come from [`FLAGS`]
/// and [`SPEC_FLAGS`]; only the rules that involve more than one flag are
/// checked here by hand.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        retries: 1,
        ..Options::default()
    };
    let mut iter = args.iter().map(String::as_str).peekable();
    let subcommand = iter.next().ok_or("missing subcommand")?;
    // Unknown subcommands are usage errors (exit 2, like bad flags), not
    // runtime failures.
    if !listed(EXPERIMENTS, subcommand) && !listed(TOOLS, subcommand) {
        return Err(format!("unknown subcommand `{subcommand}`"));
    }
    options.subcommand = subcommand.to_string();
    // The spec flags' fields, decoded to JSON: argv, manifests and run
    // submissions share `SpecParams::from_json`.
    let mut spec_fields: Vec<(String, Value)> = Vec::new();
    while let Some(arg) = iter.next() {
        if let Some(flag) = SPEC_FLAGS.iter().find(|flag| flag.name() == arg) {
            let operand = take_operand(&mut iter, arg, flag.operand())?.unwrap_or_default();
            spec_fields.retain(|(field, _)| field != flag.field);
            spec_fields.push((flag.field.to_string(), flag.decode(&operand)?));
        } else if let Some(flag) = FLAGS.iter().find(|flag| flag.name == arg) {
            if !flag.only.is_empty() && flag.only != subcommand {
                return Err(format!(
                    "{arg} applies only to the `{}` subcommand",
                    flag.only
                ));
            }
            let operand = take_operand(&mut iter, arg, flag.operand)?;
            (flag.set)(&mut options, operand).map_err(|e| format!("{arg} {e}"))?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            options.positionals.push(arg.to_string());
        }
    }
    let experiment = match (subcommand, &options.positionals[..]) {
        ("worker", positionals) => positionals.first().cloned().unwrap_or_default(),
        ("structures", [action, positionals @ ..]) if action == "prebuild" => {
            positionals.first().cloned().unwrap_or_default()
        }
        (subcommand, _) => subcommand.to_string(),
    };
    spec_fields.push(("subcommand".into(), Value::Str(experiment)));
    options.spec = SpecParams::from_json(&Value::Object(spec_fields))?;
    // `--structure-seed-mode` is sugar over `--structure-seeds K`, which
    // alone already means per-case.
    match (options.per_case, options.spec.structure_seeds) {
        (Some(false), Some(_)) => {
            return Err("--structure-seeds contradicts --structure-seed-mode fixed".into())
        }
        (Some(true), None) => options.spec.structure_seeds = Some(4),
        _ => {}
    }
    validate_spec(&options.spec)?;
    if options.shards != 0 && options.shard.is_some() {
        return Err(
            "--shard runs one shard in-process and --shards orchestrates all of them: \
             pass one or the other"
                .into(),
        );
    }
    if options.render_fig3.is_some() && (options.shards != 0 || options.shard.is_some()) {
        return Err(
            "--render-fig3 applies only to a single-process `faults` run \
             (render it from the merged stream after a sharded run)"
                .into(),
        );
    }
    Ok(options)
}

/// Takes a flag's operand off the argv, as its usage placeholder says:
/// none for a switch, the next argument unless it is a flag for an
/// optional (`[..]`) operand, the next argument otherwise.
fn take_operand<'a>(
    iter: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
    flag: &str,
    placeholder: &str,
) -> Result<Option<String>, String> {
    let operand = match placeholder {
        "" => None,
        optional if optional.starts_with('[') => iter.next_if(|next| !next.starts_with("--")),
        _ => Some(
            iter.next()
                .ok_or_else(|| format!("{flag} expects a value"))?,
        ),
    };
    Ok(operand.map(str::to_string))
}

/// The `ringlab` entry point: runs the CLI on the process arguments and
/// exits with its code.
pub fn main() -> ! {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{Strategy, TestRng};
    use ring_distrib::ShardRange;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_into_options() {
        let options = parse(&args(&[
            "sweep",
            "--quick",
            "--jobs",
            "4",
            "--sizes",
            "15,16",
            "--universe-factors",
            "4,64",
            "--reps",
            "2",
            "--seed",
            "9",
            "--no-jsonl",
        ]))
        .unwrap();
        assert_eq!(options.subcommand, "sweep");
        assert_eq!(options.spec.subcommand, "sweep");
        assert!(options.spec.quick && options.no_jsonl);
        assert_eq!(options.jobs, 4);
        let spec = sweep_spec(&options.spec);
        assert_eq!(spec.sizes, vec![15, 16]);
        assert_eq!(spec.universe_factors, vec![4, 64]);
        assert_eq!(spec.repetitions, 2);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn sharding_flags_parse() {
        let options = parse(&args(&[
            "sweep",
            "--shards",
            "4",
            "--run-dir",
            "/tmp/x",
            "--retries",
            "2",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(options.shards, 4);
        assert_eq!(options.run_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(options.retries, 2);
        assert!(options.stats);

        let options = parse(&args(&["worker", "sweep", "--shard", "1/3"])).unwrap();
        assert_eq!(options.subcommand, "worker");
        assert_eq!(options.spec.subcommand, "sweep");
        assert_eq!(options.shard, Some((1, 3)));

        assert!(parse(&args(&["sweep", "--shard", "3/3"])).is_err());
        assert!(parse(&args(&["sweep", "--shard", "0/0"])).is_err());
        assert!(parse(&args(&["sweep", "--shard", "nope"])).is_err());
        assert!(parse(&args(&["sweep", "--shards", "2", "--shard", "0/3"])).is_err());
        assert!(parse(&args(&["sweep", "--shards", "3", "--shard", "1/3"])).is_err());
    }

    #[test]
    fn shard_counts_past_the_bound_are_usage_errors() {
        let past = (MAX_SHARDS + 1).to_string();
        for argv in [
            vec!["sweep", "--quick", "--shards", &past],
            vec![
                "worker",
                "sweep",
                "--quick",
                "--shard",
                &format!("0/{past}"),
            ],
        ] {
            let err = parse(&args(&argv)).err().unwrap();
            assert!(err.contains(&MAX_SHARDS.to_string()), "{err}");
            assert_eq!(run(&args(&argv)), 2, "{argv:?}");
        }
        // The bound itself parses (nothing is run).
        let at = MAX_SHARDS.to_string();
        assert_eq!(
            parse(&args(&["sweep", "--shards", &at])).unwrap().shards,
            MAX_SHARDS
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["table1", "--jobs"])).is_err());
        assert!(parse(&args(&["table1", "--sizes", "a,b"])).is_err());
        assert!(parse(&args(&["table1", "--wat"])).is_err());
        // The scaling overrides are refused on the experiment subcommand,
        // so its workers (and prebuilds) refuse them too.
        for refused in [
            &["scaling", "--reps", "2"][..],
            &["scaling", "--universe-factors", "4"],
            &[
                "worker", "scaling", "--shard", "0/1", "--quick", "--reps", "2",
            ],
            &[
                "worker",
                "scaling",
                "--shard",
                "0/1",
                "--universe-factors",
                "4",
            ],
            &["structures", "prebuild", "scaling", "--reps", "2"],
        ] {
            assert!(parse(&args(refused)).is_err(), "{refused:?}");
        }
    }

    /// A manifest whose shard plan does not match its own numbering is a
    /// load error (exit 1), not an out-of-bounds panic in the orchestrator.
    #[test]
    fn resume_refuses_an_inconsistent_shard_plan() {
        let options = parse(&args(&["sweep", "--quick"])).unwrap();
        let spec = sweep_spec(&options.spec);
        let scaling = scaling_spec(&options.spec);
        let items = items_for("sweep", &spec, &scaling).unwrap();
        let mut manifest = Manifest::new(
            options.spec.clone(),
            spec_fingerprint("sweep", &spec, &scaling),
            items.len(),
            &plan_shards(items.len(), 2),
            1,
            String::new(),
        );
        manifest.shards[1].shard = 7;
        let dir = std::env::temp_dir().join(format!("ringlab-bad-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        manifest.save_in(&dir).unwrap();
        assert_eq!(run(&args(&["resume", dir.to_str().unwrap()])), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_args_round_trip_through_the_parser() {
        let clean = SpecParams {
            subcommand: "table1".into(),
            quick: true,
            sizes: Some(vec![9, 8]),
            universe_factors: Some(vec![4]),
            reps: Some(2),
            seed: Some(77),
            ..SpecParams::default()
        };
        let seed_diverse = SpecParams {
            subcommand: "sweep".into(),
            structure_seeds: Some(3),
            ..clean.clone()
        };
        let faulty = SpecParams {
            subcommand: "faults".into(),
            quick: true,
            fault_drops: Some(vec![0, 100, 400]),
            fault_crashes: Some(1),
            fault_churn: Some(2),
            fault_adversarial: true,
            ..SpecParams::default()
        };
        let range = ShardRange {
            shard: 1,
            start: 4,
            end: 8,
        };
        for spec in [clean, seed_diverse, faulty] {
            for store in ["", "run/structures"] {
                let parsed = parse(&spec.worker_args(1, &range, 3, store)).unwrap();
                assert_eq!(parsed.spec, spec);
                assert_eq!(parsed.shard, Some((1, 3)));
                assert_eq!(parsed.jobs, 1);
                assert_eq!(
                    parsed.structure_store,
                    (!store.is_empty()).then(|| Some(store.to_string()))
                );
            }
        }
    }

    #[test]
    fn fault_flags_parse_validate_and_round_trip() {
        let options = parse(&args(&[
            "faults",
            "--quick",
            "--fault-drops",
            "0,100,400",
            "--fault-crashes",
            "1",
            "--fault-churn",
            "2",
            "--fault-adversarial",
        ]))
        .unwrap();
        let spec = sweep_spec(&options.spec);
        assert_eq!(
            spec.faults,
            Some(FaultAxes {
                drops: vec![0, 100, 400],
                crashes: 1,
                churn: 2,
                adversarial: true,
            })
        );

        // A bare `faults` run sweeps the standard axes.
        let bare = parse(&args(&["faults", "--quick"])).unwrap();
        assert_eq!(sweep_spec(&bare.spec).faults, Some(FaultAxes::standard()));
        // Clean subcommands stay fault-free (stable fingerprints) and
        // reject fault flags outright.
        assert_eq!(
            sweep_spec(&parse(&args(&["sweep"])).unwrap().spec).faults,
            None
        );
        assert!(parse(&args(&["sweep", "--fault-drops", "100"])).is_err());
        assert!(parse(&args(&["table1", "--fault-adversarial"])).is_err());
        // Rates are per mille; nonsense is rejected.
        assert!(parse(&args(&["faults", "--fault-drops", "1001"])).is_err());
        assert!(parse(&args(&["faults", "--fault-drops", ","])).is_err());
        assert!(parse(&args(&["faults", "--shard-timeout", "0"])).is_err());

        // A worker of a faulty sweep resolves the same axes — and the same
        // fingerprint — as its orchestrator.
        let range = ShardRange {
            shard: 0,
            start: 0,
            end: 2,
        };
        let worker = parse(&options.spec.worker_args(1, &range, 2, "")).unwrap();
        assert_eq!(worker.spec.subcommand, "faults");
        let scaling = ScalingSpec::standard();
        assert_eq!(
            spec_fingerprint("faults", &sweep_spec(&worker.spec), &scaling),
            spec_fingerprint("faults", &spec, &scaling)
        );
        // Fault axes are spec-affecting: defaults and overrides differ.
        assert_ne!(
            spec_fingerprint("faults", &sweep_spec(&bare.spec), &scaling),
            spec_fingerprint("faults", &spec, &scaling)
        );
    }

    #[test]
    fn faults_markdown_reports_degradation_statistics() {
        let row = |setting: &str, quantity: &str, value: Option<f64>| Measurement {
            experiment: "faults".into(),
            setting: setting.into(),
            quantity: quantity.into(),
            n: 8,
            universe: 64,
            value,
            predicted: None,
            verified: true,
        };
        let text = render_markdown(&[
            // Two reps clean: both complete.
            row("drop 0/1000", "leader election: rounds", Some(10.0)),
            row("drop 0/1000", "leader election: timeout", Some(0.0)),
            row("drop 0/1000", "leader election: rounds", Some(30.0)),
            row("drop 0/1000", "leader election: timeout", Some(0.0)),
            // Two reps at heavy drop: one fails by timeout.
            row("drop 400/1000", "leader election: rounds", Some(50.0)),
            row("drop 400/1000", "leader election: timeout", Some(0.0)),
            row("drop 400/1000", "leader election: rounds", None),
            row("drop 400/1000", "leader election: timeout", Some(1.0)),
        ]);
        assert!(text.contains("# Fault degradation"));
        let clean_at = text.find("| drop 0/1000 |").unwrap();
        let heavy_at = text.find("| drop 400/1000 |").unwrap();
        assert!(clean_at < heavy_at);
        // Nearest-rank percentiles: with two samples p50 rounds up to the
        // larger one.
        assert!(text.contains("| drop 0/1000 | leader election | 8 | 64 | 2 | 30 | 30 | 0 | 0 |"));
        assert!(
            text.contains("| drop 400/1000 | leader election | 8 | 64 | 2 | 50 | 50 | 50 | 50 |")
        );
    }

    #[test]
    fn structure_store_flag_takes_an_optional_directory() {
        let explicit = parse(&args(&[
            "sweep",
            "--structure-store",
            "some/dir",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(explicit.structure_store, Some(Some("some/dir".into())));
        assert!(explicit.spec.quick);

        // Bare flag followed by another flag: default directory.
        let bare = parse(&args(&["sweep", "--structure-store", "--jobs", "2"])).unwrap();
        assert_eq!(bare.structure_store, Some(None));
        assert_eq!(bare.jobs, 2);

        // Bare flag at the end of the line.
        let trailing = parse(&args(&["sweep", "--structure-store"])).unwrap();
        assert_eq!(trailing.structure_store, Some(None));

        let off = parse(&args(&["sweep"])).unwrap();
        assert_eq!(off.structure_store, None);
        let store_dir = |options: &Options| options.common(|| "default".into(), || None).store_dir;
        assert_eq!(store_dir(&explicit).as_deref(), Some("some/dir"));
        assert_eq!(store_dir(&bare).as_deref(), Some("default"));
        assert_eq!(store_dir(&off), None);
    }

    #[test]
    fn structure_seed_schedule_flags_parse_and_validate() {
        // Fixed by default; bare --structure-seeds implies per-case.
        assert_eq!(parse(&args(&["sweep"])).unwrap().spec.structure_seeds, None);
        assert_eq!(
            parse(&args(&["sweep", "--structure-seed-mode", "per-case"]))
                .unwrap()
                .spec
                .structure_seeds,
            Some(4)
        );
        assert_eq!(
            parse(&args(&["sweep", "--structure-seeds", "7"]))
                .unwrap()
                .spec
                .structure_seeds,
            Some(7)
        );
        assert_eq!(
            parse(&args(&[
                "sweep",
                "--structure-seed-mode",
                "per-case",
                "--structure-seeds",
                "2"
            ]))
            .unwrap()
            .spec
            .structure_seeds,
            Some(2)
        );
        assert_eq!(
            parse(&args(&["sweep", "--structure-seed-mode", "fixed"]))
                .unwrap()
                .spec
                .structure_seeds,
            None
        );
        // Contradictions and nonsense are usage errors.
        assert!(parse(&args(&[
            "sweep",
            "--structure-seed-mode",
            "fixed",
            "--structure-seeds",
            "2"
        ]))
        .is_err());
        assert!(parse(&args(&["sweep", "--structure-seed-mode", "maybe"])).is_err());
        assert!(parse(&args(&["sweep", "--structure-seeds", "0"])).is_err());
        // K beyond the strong-window count would wrap onto repeated
        // windows; the boundary itself is fine.
        assert!(parse(&args(&["sweep", "--structure-seeds", "65"])).is_err());
        assert!(parse(&args(&["sweep", "--structure-seeds", "64"])).is_ok());
        assert!(parse(&args(&["scaling", "--structure-seeds", "2"])).is_err());
        // The schedule is spec-affecting: it must move the fingerprint.
        let fixed = parse(&args(&["sweep", "--quick"])).unwrap();
        let diverse = parse(&args(&["sweep", "--quick", "--structure-seeds", "4"])).unwrap();
        let scaling = ScalingSpec::standard();
        assert_ne!(
            spec_fingerprint("sweep", &sweep_spec(&fixed.spec), &scaling),
            spec_fingerprint("sweep", &sweep_spec(&diverse.spec), &scaling)
        );
    }

    #[test]
    fn specs_whose_cases_would_panic_are_rejected() {
        // Each of these used to parse, then panic or abort mid-sweep (and
        // the daemon answered 202 to the same spec).
        let refused: [&[&str]; 10] = [
            &["table1", "--quick", "--sizes", "2"],
            &["lower-bounds", "--quick", "--sizes", "0"],
            &["faults", "--quick", "--sizes", "16,4"],
            &["sweep", "--quick", "--universe-factors", "0"],
            &[
                "sweep",
                "--quick",
                "--universe-factors",
                "4611686018427387904",
            ],
            &["sweep", "--quick", "--universe-factors", "1099511627776"],
            &["scaling", "--quick", "--sizes", "0"],
            &["scaling", "--quick", "--sizes", "513"],
            &["all", "--quick", "--sizes", "600"],
            &["worker", "table1", "--shard", "0/1", "--sizes", "2"],
        ];
        for argv in refused {
            assert!(parse(&args(argv)).is_err(), "{argv:?}");
            assert_eq!(run(&args(argv)), 2, "{argv:?}");
        }
        // The daemon's path: a submission body through `from_json` and the
        // shared check.
        for body in [
            r#"{"subcommand":"table1","quick":true,"sizes":[2]}"#,
            r#"{"subcommand":"fig2","universe_factors":[0]}"#,
            r#"{"subcommand":"sweep","sizes":[16],"universe_factors":[268435457]}"#,
            r#"{"subcommand":"sweep","universe_factors":[4611686018427387904]}"#,
            r#"{"subcommand":"scaling","sizes":[0]}"#,
            r#"{"subcommand":"scaling","sizes":[8193]}"#,
            r#"{"subcommand":"all","quick":true,"sizes":[600]}"#,
        ] {
            let spec = SpecParams::from_json(&serde_json::from_str(body).unwrap()).unwrap();
            assert!(validate_spec(&spec).is_err(), "{body}");
        }
        // The boundaries themselves are fine.
        for body in [
            r#"{"subcommand":"table1","sizes":[5]}"#,
            r#"{"subcommand":"sweep","sizes":[16],"universe_factors":[268435456]}"#,
            r#"{"subcommand":"scaling","sizes":[1,8192]}"#,
            r#"{"subcommand":"all","quick":true,"sizes":[5,512]}"#,
        ] {
            let spec = SpecParams::from_json(&serde_json::from_str(body).unwrap()).unwrap();
            assert_eq!(validate_spec(&spec), Ok(()), "{body}");
        }
    }

    #[test]
    fn every_flag_is_declared_once_and_listed_in_the_usage() {
        let text = usage();
        let mut names: Vec<String> = SPEC_FLAGS.iter().map(|flag| flag.name()).collect();
        names.extend(FLAGS.iter().map(|flag| flag.name.to_string()));
        for name in &names {
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
            assert!(text.contains(&format!("  {name} ")), "{name}");
        }
        assert_eq!(names.len(), 28);
    }

    /// Random specs over every subcommand: each `Option` both `None` and
    /// `Some`, lists of one to four entries, both bools. Numbers favour the
    /// valid range so that a good share of specs passes `validate_spec`.
    struct AnySpec;

    impl Strategy for AnySpec {
        type Value = SpecParams;

        fn generate(&self, rng: &mut TestRng) -> SpecParams {
            fn number(rng: &mut TestRng) -> u64 {
                match rng.below(8) {
                    0 => rng.below(8),
                    1 => rng.below(1100),
                    2 => rng.next_u64(),
                    _ => 5 + rng.below(60),
                }
            }
            fn maybe<T>(rng: &mut TestRng, draw: fn(&mut TestRng) -> T) -> Option<T> {
                (rng.below(2) == 0).then(|| draw(rng))
            }
            fn list(rng: &mut TestRng) -> Vec<u64> {
                (0..1 + rng.below(4)).map(|_| number(rng)).collect()
            }
            let subcommands: Vec<&str> = EXPERIMENTS.split('|').chain(TOOLS.split('|')).collect();
            SpecParams {
                subcommand: subcommands[rng.below(subcommands.len() as u64) as usize].into(),
                quick: rng.below(2) == 0,
                sizes: maybe(rng, list)
                    .map(|sizes| sizes.into_iter().map(|n| n as usize).collect()),
                universe_factors: maybe(rng, list),
                reps: maybe(rng, number),
                seed: maybe(rng, number),
                structure_seeds: maybe(rng, number),
                fault_drops: maybe(rng, list),
                fault_crashes: maybe(rng, number),
                fault_churn: maybe(rng, number),
                fault_adversarial: rng.below(2) == 0,
            }
        }
    }

    #[test]
    fn random_specs_round_trip_through_argv_and_json() {
        let range = ShardRange {
            shard: 1,
            start: 4,
            end: 8,
        };
        let mut valid = 0;
        for case in 0..1024 {
            let spec = AnySpec.generate(&mut TestRng::for_case(case));
            // The manifest and `POST /v1/runs` encoding.
            let json = serde_json::to_string(&spec).unwrap();
            let decoded = SpecParams::from_json(&serde_json::from_str(&json).unwrap()).unwrap();
            assert_eq!(decoded, spec);
            // The worker argv, for every spec a worker may be handed.
            if validate_spec(&spec).is_ok() {
                valid += 1;
                let parsed = parse(&spec.worker_args(2, &range, 3, "store")).unwrap();
                assert_eq!(parsed.spec, spec);
            }
        }
        // Not vacuous: a fair share of the random specs are valid.
        assert!(valid >= 50, "only {valid} of 1024 random specs are valid");
    }

    #[test]
    fn fingerprints_separate_specs_and_subcommands() {
        let spec = SweepSpec::quick();
        let scaling = ScalingSpec::standard();
        let base = spec_fingerprint("sweep", &spec, &scaling);
        assert_ne!(base, spec_fingerprint("table1", &spec, &scaling));
        let mut reseeded = spec.clone();
        reseeded.seed ^= 1;
        assert_ne!(base, spec_fingerprint("sweep", &reseeded, &scaling));
        assert_eq!(base, spec_fingerprint("sweep", &spec.clone(), &scaling));
    }

    #[test]
    fn markdown_renders_sections_in_canonical_order() {
        let sample = |experiment: &str| Measurement {
            experiment: experiment.into(),
            setting: "s".into(),
            quantity: "q".into(),
            n: 8,
            universe: 64,
            value: Some(1.0),
            predicted: Some(1.0),
            verified: true,
        };
        let text = render_markdown(&[sample("lower_bounds"), sample("table1")]);
        let table1_at = text.find("# Table I").unwrap();
        let lower_at = text.find("# Lower-bound audits").unwrap();
        assert!(table1_at < lower_at);
    }
}
