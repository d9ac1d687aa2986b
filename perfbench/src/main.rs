//! The benchmark's one command.
//!
//! ```text
//! perfbench --workload tables|faults|fleet --seed N --seconds S --trace 0|1
//! perfbench --noise-floor [--seconds S]
//! perfbench --setup-probe --workload W --seed N   (internal)
//! ```
//!
//! `--seconds` defaults to `run_seconds` of `BENCHMARK.json`. In-process
//! workloads run `nproc` jobs; `fleet` runs two single-job workers (one on
//! a one-CPU box). `--trace 0` times end-to-end passes of the workload for
//! `--seconds` and reports `sweep_s`, `cases_per_s`, `setup_s` and
//! `peak_rss_mb`; the result's `failed` / `attempted` is the error rate,
//! which the report prints as `error_rate`. `--trace
//! 1` alternates untraced and traced passes (their ratio is the tracing
//! overhead), then replays the workload layer by layer and reports the
//! per-layer metrics and the per-crate budget; the spans are written to
//! `.perfbench/spans/`. Every pass's output is checked against an
//! in-process single-thread reference pass of the same workload and seed.
//! The last line of standard output is the JSON result; the lines before it
//! are the human-readable report. A failed check exits non-zero.
//!
//! `--setup-probe` times one cold set-up in a fresh process and prints the
//! seconds; an in-process run's `setup_s` is the median over such probes.
//!
//! `--noise-floor` runs two sets of seeds 1 to 10 on every workload of
//! `BENCHMARK.json` back to back, each run a fresh process, and prints per
//! end-to-end metric both medians, both quartile pairs and whether the sets
//! agree: each set's quartile spread and the shift between the medians, in
//! either direction, within the metric's bound.

mod fleet;
mod host;
mod replay;

use fleet::{http, json, stream, Fleet};
use host::{thread_ceiling, vm_hwm_mb, Host};
use perfbench::stats::{median, percentile, quartiles, relative_spread};
use perfbench::trace::{Budget, Tracer};
use perfbench::workload::{check_output, digest, Workload};
use ring_distrib::Manifest;
use ring_harness::{JsonlSink, SweepEngine, WorkItem};
use serde::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest end-to-end passes a run times, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fresh processes an in-process run samples its set-up time in, per pass.
const SETUP_PROBES_PER_PASS: usize = 5;
/// Seeds per set of the noise-floor self-check.
const NOISE_FLOOR_RUNS: u64 = 10;
/// Workers of the `fleet` workload (fewer on a box with fewer CPUs).
const FLEET_WORKERS: usize = 2;
/// The layers of the per-crate budget, by crate.
const LAYERS: [&str; 6] = [
    "bench",
    "combinat",
    "distrib",
    "experiments",
    "harness",
    "sim",
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    /// `None` = `run_seconds` of `BENCHMARK.json`.
    seconds: Option<u64>,
    trace: bool,
    noise_floor: bool,
    setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        noise_floor: false,
        setup_probe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--noise-floor" || flag == "--setup-probe" {
            args.noise_floor |= flag == "--noise-floor";
            args.setup_probe |= flag == "--setup-probe";
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Some(number()?),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_none() && !args.noise_floor {
        return Err("--workload tables|faults|fleet is required".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    samples: usize,
}

/// Everything a run accumulates.
#[derive(Default)]
struct Run {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    budget: Option<Budget>,
}

impl Run {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Checks one pass's output against the reference.
    fn check(&mut self, output: &[u8], reference: &[u8], cases: usize) {
        let check = check_output(output, reference, cases);
        self.attempted += cases;
        self.failed += check.failed;
        self.problems.extend(check.problems);
    }

    /// Counts a pass that did not complete: every case in it failed.
    fn lost_pass(&mut self, cases: usize, why: String) {
        self.attempted += cases;
        self.failed += cases;
        self.problems.push(why);
    }
}

/// The benchmark's scratch directory inside the checkout, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn elapsed_s(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The checkout the benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Builds (or finds up to date) the real `ringlab` binary from source.
fn build_ringlab(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "ring-harness", "--bin", "ringlab"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ringlab failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let exe = root.join(target).join("release").join("ringlab");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("ringlab is not at {}", exe.display()))
    }
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

/// Spec resolution, item enumeration, engine and store creation.
fn inproc_setup(workload: Workload, seed: u64, jobs: usize) -> (Vec<WorkItem>, SweepEngine) {
    (workload.items(seed), SweepEngine::new(jobs))
}

/// Runs this binary with `--setup-probe`: the seconds of one cold set-up.
fn setup_probe(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("the set-up probe failed ({})", out.status))
}

/// One sweep on a fresh engine into a `JsonlSink`: seconds and bytes.
fn inproc_pass(items: &[WorkItem], engine: &SweepEngine) -> (f64, Vec<u8>) {
    let started = Instant::now();
    let sink = JsonlSink::new(Vec::new());
    engine.run(items, Some(&sink));
    let bytes = sink.finish();
    (elapsed_s(started), bytes)
}

/// The same pass with a span around every call the benchmark makes.
fn inproc_traced_pass(
    tr: &mut Tracer,
    workload: Workload,
    seed: u64,
    jobs: usize,
) -> (f64, Vec<u8>) {
    let root = tr.begin("bench.e2e_pass", "bench", None);
    let items = tr.record("experiments.enumerate", "experiments", Some(root), || {
        workload.items(seed)
    });
    let engine = tr.record("harness.engine_new", "harness", Some(root), || {
        SweepEngine::new(jobs)
    });
    let bytes = tr.record("harness.engine_run", "harness", Some(root), || {
        let sink = JsonlSink::new(Vec::new());
        engine.run(&items, Some(&sink));
        sink.finish()
    });
    tr.record("bench.digest", "bench", Some(root), || {
        black_box(digest(&bytes))
    });
    tr.end(root);
    tr.record("harness.engine_drop", "harness", None, || drop(engine));
    (tr.spans()[root].duration_ns() as f64 / 1e9, bytes)
}

fn inproc_e2e(run: &mut Run, workload: Workload, seed: u64, seconds: f64, jobs: usize) {
    // A user's sweep sets up once, in a fresh process: timed warm in one
    // long-lived process, the microsecond set-up read 0.8 to 1.8 us
    // depending on the process (code and stack layout), so each sample is
    // the one cold set-up of a fresh probe process. The probes are spread
    // over the run, a few before each pass, so their median sees the box
    // in the same states the passes do.
    let mut setup = Vec::new();
    let mut sweeps = Vec::new();
    let mut outputs = Vec::new();
    let started = Instant::now();
    while sweeps.len() < MIN_PASSES || elapsed_s(started) < seconds {
        for _ in 0..SETUP_PROBES_PER_PASS {
            match setup_probe(workload, seed) {
                Ok(s) => setup.push(s),
                Err(e) => return run.lost_pass(workload.items(seed).len(), e),
            }
        }
        let (items, engine) = inproc_setup(workload, seed, jobs);
        let (sweep, bytes) = inproc_pass(&items, &engine);
        sweeps.push(sweep);
        outputs.push(bytes);
    }
    let peak_rss = vm_hwm_mb(None);
    let checked = Instant::now();
    let reference = workload.reference_output(seed);
    let cases = workload.items(seed).len();
    for output in &outputs {
        run.check(output, &reference, cases);
    }
    eprintln!(
        "perfbench: {} passes {:.3?} s; reference pass and checks {:.1} s",
        sweeps.len(),
        sweeps,
        elapsed_s(checked)
    );
    e2e_metrics(run, cases, &sweeps, &setup, &[peak_rss]);
}

fn e2e_metrics(run: &mut Run, cases: usize, sweeps: &[f64], setup: &[f64], peak_rss: &[f64]) {
    let sweep = median(sweeps);
    run.metric("sweep_s", sweep, "s", sweeps.len());
    run.metric("cases_per_s", cases as f64 / sweep, "cases/s", sweeps.len());
    run.metric("setup_s", median(setup), "s", setup.len());
    run.metric("peak_rss_mb", median(peak_rss), "MB", peak_rss.len());
}

// ---------------------------------------------------------------------------
// The fleet workload
// ---------------------------------------------------------------------------

/// One `fleet` run as the client saw it.
struct FleetPass {
    /// First `POST /v1/runs` to EOF of the result stream.
    sweep_s: f64,
    submit_s: f64,
    first_byte_s: f64,
    /// Submission to the daemon reporting the run `complete`.
    run_s: f64,
    streamed: Vec<u8>,
    /// Whether the stream equals the run's `merged.jsonl`.
    merged_matches: bool,
    manifest: Manifest,
    dir: PathBuf,
}

/// Times `body` as a span when a tracer is given.
fn span<T>(
    tr: &mut Option<(&mut Tracer, usize)>,
    name: &str,
    layer: &'static str,
    body: impl FnOnce() -> T,
) -> T {
    match tr {
        Some((tracer, parent)) => tracer.record(name, layer, Some(*parent), body),
        None => body(),
    }
}

/// Submits one run, reads its result stream to EOF, waits for the daemon
/// to finish the merge, and compares the stream with `merged.jsonl`. The
/// run directory is deleted unless `keep` (then only its store goes).
fn fleet_pass(
    fleet: &Fleet,
    body: &str,
    mut tr: Option<(&mut Tracer, usize)>,
    keep: bool,
) -> Result<FleetPass, String> {
    let addr = fleet.addr.as_str();
    let started = Instant::now();
    let accepted = span(&mut tr, "serve.submit", "serve", || {
        http(addr, "POST", "/v1/runs", body)
    })?;
    let submit_s = elapsed_s(started);
    let accepted = json(&accepted)?;
    let id = accepted
        .get("run")
        .and_then(Value::as_u64)
        .ok_or("the submission response names no run")?;
    let dir = PathBuf::from(
        accepted
            .get("dir")
            .and_then(Value::as_str)
            .ok_or("the submission response names no run directory")?,
    );
    let (streamed, first_byte) = span(&mut tr, "serve.results", "serve", || {
        stream(addr, &format!("/v1/runs/{id}/results"))
    })?;
    let sweep_s = elapsed_s(started);
    let deadline = Instant::now() + Duration::from_secs(120);
    span(&mut tr, "serve.status", "serve", || loop {
        let status = json(&http(addr, "GET", &format!("/v1/runs/{id}"), "")?)?;
        match status.get("status").and_then(Value::as_str) {
            Some("complete") => return Ok(()),
            Some("failed") => {
                return Err(format!(
                    "run {id} failed: {}",
                    status.get("error").and_then(Value::as_str).unwrap_or("?")
                ))
            }
            _ if Instant::now() > deadline => return Err(format!("run {id} never completed")),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    })?;
    let run_s = elapsed_s(started);
    let merged = span(&mut tr, "bench.read_merged", "bench", || {
        std::fs::read(dir.join("merged.jsonl"))
    })
    .map_err(|e| format!("cannot read run {id}'s merged.jsonl: {e}"))?;
    let manifest = Manifest::load(&dir)?;
    span(&mut tr, "bench.cleanup", "bench", || {
        if keep {
            std::fs::remove_dir_all(dir.join("structures"))
        } else {
            std::fs::remove_dir_all(&dir)
        }
    })
    .map_err(|e| format!("cannot clean up run {id}: {e}"))?;
    Ok(FleetPass {
        sweep_s,
        submit_s,
        first_byte_s: first_byte.map_or(sweep_s, |t| (t - started).as_secs_f64()),
        run_s,
        merged_matches: merged == streamed,
        streamed,
        manifest,
        dir,
    })
}

/// Checks every pass's stream against the reference and the run's merge.
fn check_fleet_passes(run: &mut Run, passes: &[FleetPass], reference: &[u8], cases: usize) {
    for pass in passes {
        if pass.merged_matches {
            run.check(&pass.streamed, reference, cases);
        } else {
            run.lost_pass(
                cases,
                "a streamed result differs from its merged.jsonl".into(),
            );
        }
    }
}

struct FleetConfig<'a> {
    ringlab: &'a Path,
    scratch: &'a Path,
    workers: usize,
}

fn fleet_e2e(run: &mut Run, cfg: &FleetConfig, workload: Workload, seed: u64, seconds: f64) {
    let body = workload
        .submit_body(seed, cfg.workers)
        .expect("fleet has a submit body");
    let cases = workload.items(seed).len();
    // Every pass gets a fresh fleet: its start-up is one set-up sample and
    // its processes' peak RSS one memory sample. (In one long-lived fleet
    // the lifetime peak sometimes read twice the usual 517 MB.)
    let (mut setup, mut peak_rss, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while passes.len() < MIN_PASSES || elapsed_s(started) < seconds {
        let dir = cfg.scratch.join(format!("fleet-{}", passes.len()));
        let began = Instant::now();
        let fleet = match Fleet::start(cfg.ringlab, &dir, cfg.workers) {
            Ok(fleet) => fleet,
            Err(e) => {
                run.lost_pass(cases, e);
                break;
            }
        };
        setup.push(elapsed_s(began));
        let pass = fleet_pass(&fleet, &body, None, false);
        peak_rss.push(fleet.peak_rss_mb());
        run.problems.extend(fleet.stop());
        match pass {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                run.lost_pass(cases, e);
                break;
            }
        }
    }
    let reference = workload.reference_output(seed);
    check_fleet_passes(run, &passes, &reference, cases);
    let sweeps: Vec<f64> = passes.iter().map(|p| p.sweep_s).collect();
    eprintln!(
        "perfbench: {} passes {:.3?} s; peak RSS {:.0?} MB",
        sweeps.len(),
        sweeps,
        peak_rss
    );
    e2e_metrics(run, cases, &sweeps, &setup, &peak_rss);
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

fn traced_run(
    run: &mut Run,
    cfg: &FleetConfig,
    workload: Workload,
    seed: u64,
    seconds: f64,
    jobs: usize,
) -> Result<Tracer, String> {
    let mut tr = Tracer::new(workload.name());
    let cases = workload.items(seed).len();
    // End-to-end pass times, untraced and traced, alternating.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut outputs = Vec::new();
    let mut fleet_passes: Vec<FleetPass> = Vec::new();
    let mut kept_run: Option<PathBuf> = None;
    let mut ready_s = 0.0;
    let threads;
    let started = Instant::now();
    if workload == Workload::Fleet {
        threads = cfg.workers;
        let body = workload.submit_body(seed, cfg.workers).expect("fleet body");
        let id = tr.begin("serve.start_fleet", "serve", None);
        let fleet = Fleet::start(cfg.ringlab, &cfg.scratch.join("fleet"), cfg.workers);
        tr.end(id);
        let fleet = fleet?;
        ready_s = tr.spans()[id].duration_ns() as f64 / 1e9;
        while traced.len() < 2 || elapsed_s(started) < seconds {
            let pass = fleet_pass(&fleet, &body, None, false)?;
            untraced.push(pass.sweep_s);
            fleet_passes.push(pass);
            let root = tr.begin("bench.e2e_pass", "bench", None);
            let pass = fleet_pass(&fleet, &body, Some((&mut tr, root)), true);
            tr.end(root);
            let pass = pass?;
            traced.push(tr.spans()[root].duration_ns() as f64 / 1e9);
            // Keep the latest traced run for the distrib replay, outside
            // the daemon's data directory.
            let kept = cfg.scratch.join("kept-run");
            std::fs::remove_dir_all(&kept).ok();
            std::fs::rename(&pass.dir, &kept)
                .map_err(|e| format!("cannot keep {}: {e}", pass.dir.display()))?;
            kept_run = Some(kept);
            fleet_passes.push(pass);
        }
        run.problems.extend(fleet.stop());
    } else {
        threads = jobs;
        while traced.len() < 2 || elapsed_s(started) < seconds {
            let (items, engine) = inproc_setup(workload, seed, jobs);
            let (sweep, bytes) = inproc_pass(&items, &engine);
            drop(engine);
            untraced.push(sweep);
            outputs.push(bytes);
            let (traced_s, bytes) = inproc_traced_pass(&mut tr, workload, seed, jobs);
            traced.push(traced_s);
            outputs.push(bytes);
        }
    }

    let root = tr.begin("bench.replay", "bench", None);
    let replayed = replay::replay(
        &mut tr,
        root,
        workload,
        seed,
        cfg.scratch,
        kept_run.as_deref(),
    );
    tr.end(root);
    let rep = replayed?;
    let budget = tr.budget(root);
    run.problems.extend(rep.problems.iter().cloned());

    // The replay's bytes are the single-thread reference.
    for output in &outputs {
        run.check(output, &rep.output, cases);
    }
    check_fleet_passes(run, &fleet_passes, &rep.output, cases);

    let untraced_s = median(&untraced);
    let execute_s: f64 = rep.case_s.iter().sum();
    let case_ms: Vec<f64> = rep.case_s.iter().map(|s| s * 1e3).collect();
    let serial_work = rep.construct_s + execute_s + rep.sink_s;
    let n_cases = rep.case_s.len();
    run.metric("combinat.construct_s", rep.construct_s, "s", rep.structures);
    run.metric("combinat.structures", rep.structures as f64, "count", 1);
    run.metric("combinat.set_mb", rep.set_mb, "MB", 1);
    run.metric("sim.analytic_round_ns", rep.analytic_round_ns, "ns", 1);
    run.metric("sim.event_round_ns", rep.event_round_ns, "ns", 1);
    run.metric("sim.rounds", rep.rounds, "count", n_cases);
    run.metric("sim.share", ratio(rep.round_time_s, execute_s), "ratio", 1);
    run.metric("experiments.execute_s", execute_s, "s", n_cases);
    run.metric(
        "experiments.case_p50_ms",
        percentile(&case_ms, 50.0),
        "ms",
        n_cases,
    );
    run.metric(
        "experiments.case_p90_ms",
        percentile(&case_ms, 90.0),
        "ms",
        n_cases,
    );
    run.metric(
        "experiments.rounds_per_s",
        ratio(rep.rounds, execute_s),
        "rounds/s",
        1,
    );
    run.metric("experiments.enumerate_ms", rep.enumerate_s * 1e3, "ms", 1);
    run.metric(
        "harness.parallel_efficiency",
        serial_work / (untraced_s * threads as f64),
        "ratio",
        untraced.len(),
    );
    run.metric("harness.sink_s", rep.sink_s, "s", 1);
    run.metric(
        "harness.store_publish_s",
        rep.publish_s,
        "s",
        rep.structures,
    );
    run.metric("harness.store_load_s", rep.load_s, "s", rep.structures);
    run.metric("harness.store_mb", rep.store_mb, "MB", 1);
    run.metric(
        "harness.tier1_hit_ns",
        rep.tier1_hit_ns,
        "ns",
        rep.structures,
    );
    let (mut hits, mut lookups, mut attempts, mut shards) = (0u64, 0u64, 0u64, 0usize);
    for pass in &fleet_passes {
        for shard in &pass.manifest.shards {
            hits += shard.store_hits;
            lookups += shard.store_hits + shard.store_misses;
            attempts += u64::from(shard.attempts);
            shards += 1;
        }
    }
    run.metric(
        "harness.store_hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
        fleet_passes.len(),
    );
    run.metric("distrib.revalidate_s", rep.revalidate_s, "s", 1);
    run.metric("distrib.merge_s", rep.merge_s, "s", 1);
    run.metric(
        "distrib.merge_mb_per_s",
        ratio(rep.merged_mb, rep.merge_s),
        "MB/s",
        1,
    );
    run.metric(
        "distrib.attempts_per_shard",
        ratio(attempts as f64, shards as f64),
        "ratio",
        shards,
    );
    let of = |f: fn(&FleetPass) -> f64| median(&fleet_passes.iter().map(f).collect::<Vec<_>>());
    run.metric("serve.ready_s", ready_s, "s", 1);
    run.metric(
        "serve.submit_ms",
        of(|p| p.submit_s) * 1e3,
        "ms",
        fleet_passes.len(),
    );
    run.metric(
        "serve.first_byte_s",
        of(|p| p.first_byte_s),
        "s",
        fleet_passes.len(),
    );
    run.metric("serve.run_s", of(|p| p.run_s), "s", fleet_passes.len());
    run.metric(
        "bench.trace_overhead",
        ratio(median(&traced), untraced_s),
        "ratio",
        traced.len(),
    );
    run.metric(
        "bench.unattributed_s",
        budget.unattributed_ns as f64 / 1e9,
        "s",
        1,
    );
    run.metric("budget.wall_s", budget.wall_ns as f64 / 1e9, "s", 1);
    for layer in LAYERS {
        run.metric(
            format!("budget.{layer}_s"),
            budget.layer_ns(layer) as f64 / 1e9,
            "s",
            1,
        );
    }
    run.budget = Some(budget);
    Ok(tr)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn print_report(run: &Run, workload: Workload, seed: u64) {
    println!(
        "{:<30} {:>16} {:<8} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in &run.metrics {
        println!(
            "{:<30} {:>16.6} {:<8} {:>7}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<30} {:>16.6} {:<8} {:>7}",
        "error_rate",
        ratio(run.failed as f64, run.attempted as f64),
        "ratio",
        run.attempted
    );
    if let Some(budget) = &run.budget {
        println!(
            "per-crate budget of the {} replay (seed {seed}): {:.3} s wall",
            workload.name(),
            budget.wall_ns as f64 / 1e9
        );
        for (layer, ns) in &budget.layers {
            println!(
                "  {:<12} {:>10.4} s  {:>5.1}%",
                layer,
                *ns as f64 / 1e9,
                100.0 * *ns as f64 / budget.wall_ns.max(1) as f64
            );
        }
        println!(
            "  {:<12} {:>10.4} s  {:>5.1}%",
            "unattributed",
            budget.unattributed_ns as f64 / 1e9,
            100.0 * budget.unattributed_ns as f64 / budget.wall_ns.max(1) as f64
        );
        println!("  dominant layer: {}", budget.dominant().unwrap_or("none"));
    }
    for problem in &run.problems {
        println!("problem: {problem}");
    }
}

fn result_line(run: &Run, correct: bool) -> String {
    let metrics = run
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let value = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Uint(run.attempted as u64)),
        ("failed".into(), Value::Uint(run.failed as u64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&value).expect("serializable result")
}

// ---------------------------------------------------------------------------
// Noise floor
// ---------------------------------------------------------------------------

/// An end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    bound: f64,
}

/// The end-to-end bounds, `run_seconds` and workloads of `BENCHMARK.json`.
fn read_bounds(root: &Path) -> Result<(Vec<Bound>, u64, Vec<Workload>), String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let seconds = spec
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let bounds = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| Bound {
            name: m.get("name").and_then(Value::as_str).unwrap_or("").into(),
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect();
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Value::as_str).unwrap_or("");
            Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect::<Result<_, _>>()?;
    Ok((bounds, seconds, workloads))
}

/// One benchmark run in a fresh process: its metric values, or why not.
fn run_child(workload: Workload, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let result = serde_json::from_str(last).map_err(|e| format!("no result line: {e}"))?;
    if !out.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("run failed ({})", out.status));
    }
    Ok(result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

fn noise_floor(bounds: &[Bound], workloads: &[Workload], seconds: u64) -> Result<bool, String> {
    // values[set][workload][metric] = samples over seeds
    let mut values = vec![vec![vec![Vec::new(); bounds.len()]; workloads.len()]; 2];
    for (set, set_values) in values.iter_mut().enumerate() {
        for (w, workload) in workloads.iter().enumerate() {
            for seed in 1..=NOISE_FLOOR_RUNS {
                let metrics = run_child(*workload, seed, seconds)
                    .map_err(|e| format!("{} seed {seed}: {e}", workload.name()))?;
                eprintln!(
                    "noise-floor: set {} {} seed {seed} done",
                    set + 1,
                    workload.name()
                );
                for (b, bound) in bounds.iter().enumerate() {
                    if let Some((_, v)) = metrics.iter().find(|(name, _)| *name == bound.name) {
                        set_values[w][b].push(*v);
                    }
                }
            }
        }
    }
    println!(
        "{:<8} {:<12} {:>12} {:>25} {:>12} {:>25} {:>8} {:>8} {:>8} {:>6} verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "spread A",
        "spread B",
        "shift",
        "bound"
    );
    let mut all_agree = true;
    for (w, workload) in workloads.iter().enumerate() {
        for (b, bound) in bounds.iter().enumerate() {
            let (a, bb) = (&values[0][w][b], &values[1][w][b]);
            let (ma, mb) = (median(a), median(bb));
            let [a1, _, a3] = quartiles(a);
            let [b1, _, b3] = quartiles(bb);
            // Two sets of the same code: a shift either way is noise.
            let shift = ratio((mb - ma).abs(), ma);
            let (sa, sb) = (relative_spread(a), relative_spread(bb));
            let agree = sa <= bound.bound && sb <= bound.bound && shift <= bound.bound;
            let steady = sa <= bound.bound / 3.0 && sb <= bound.bound / 3.0;
            all_agree &= agree;
            println!(
                "{:<8} {:<12} {:>12.6} {:>25} {:>12.6} {:>25} {:>8.4} {:>8.4} {:>8.4} {:>6} {}",
                workload.name(),
                bound.name,
                ma,
                format!("[{a1:.6}, {a3:.6}]"),
                mb,
                format!("[{b1:.6}, {b3:.6}]"),
                sa,
                sb,
                shift,
                bound.bound,
                match (agree, steady) {
                    (true, true) => "agree (spread < bound/3)",
                    (true, false) => "agree",
                    (false, _) => "DISAGREE",
                }
            );
        }
    }
    Ok(all_agree)
}

// ---------------------------------------------------------------------------

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jobs = thread_ceiling();
    if let (true, Some(workload)) = (args.setup_probe, args.workload) {
        let started = Instant::now();
        black_box(inproc_setup(workload, args.seed, jobs));
        println!("{}", elapsed_s(started));
        return;
    }
    let root = repo_root();
    let (bounds, run_seconds, listed) = match read_bounds(&root) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let seconds = args.seconds.unwrap_or(run_seconds);
    if args.noise_floor {
        match noise_floor(&bounds, &listed, seconds) {
            Ok(agree) => std::process::exit(if agree { 0 } else { 1 }),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
    }
    let workload = args.workload.expect("parse_args requires a workload");
    let seconds = seconds as f64;
    let host = Host::detect();
    let workers = FLEET_WORKERS.min(jobs);
    assert!(
        jobs <= host.nproc && jobs <= host.available_parallelism,
        "{jobs} compute threads on a box with nproc {} (available_parallelism {})",
        host.nproc,
        host.available_parallelism
    );
    let ringlab = match build_ringlab(&root) {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = Scratch(
        root.join(".perfbench")
            .join(format!("tmp-{}", std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        std::process::exit(2);
    }
    let cfg = FleetConfig {
        ringlab: &ringlab,
        scratch: &scratch.0,
        workers,
    };

    println!(
        "perfbench: workload {}, seed {}, {} s, trace {}, {} cases per pass",
        workload.name(),
        args.seed,
        seconds,
        u8::from(args.trace),
        workload.items(args.seed).len()
    );
    // A fleet runs single-job workers; an in-process run no workers.
    let (used_jobs, used_workers) = match workload {
        Workload::Fleet => (1, workers),
        _ => (jobs, 0),
    };
    let provenance = Value::Object(vec![(
        "provenance".into(),
        host.to_json(used_jobs, used_workers),
    )]);
    println!(
        "{}",
        serde_json::to_string(&provenance).expect("serializable")
    );

    let mut run = Run::default();
    if args.trace {
        match traced_run(&mut run, &cfg, workload, args.seed, seconds, jobs) {
            Ok(tr) => {
                let dir = root.join(".perfbench").join("spans");
                let path = dir.join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
                match std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
                {
                    Ok(()) => println!("spans: {}", path.display()),
                    Err(e) => run
                        .problems
                        .push(format!("cannot write {}: {e}", path.display())),
                }
            }
            Err(e) => {
                let cases = workload.items(args.seed).len();
                run.lost_pass(cases, e);
            }
        }
    } else if workload == Workload::Fleet {
        fleet_e2e(&mut run, &cfg, workload, args.seed, seconds);
    } else {
        inproc_e2e(&mut run, workload, args.seed, seconds, jobs);
    }

    // Hygiene: nothing of the run may outlive it.
    drop(scratch);
    let leftover = root
        .join(".perfbench")
        .join(format!("tmp-{}", std::process::id()));
    if leftover.exists() {
        run.problems.push(format!(
            "temporary directory {} was left behind",
            leftover.display()
        ));
    }
    let correct = run.failed == 0 && run.problems.is_empty() && run.attempted > 0;
    print_report(&run, workload, args.seed);
    println!("{}", result_line(&run, correct));
    if !correct {
        std::process::exit(1);
    }
}
