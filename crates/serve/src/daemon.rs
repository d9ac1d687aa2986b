//! The `ringlab serve` daemon.
//!
//! One listening socket carries both faces of the service. A connecting
//! peer is classified by its first byte: a JSON frame (`{`) is a worker
//! registering with a `ring-serve/v1` hello, anything else is an HTTP
//! client. The accept loop blocks in `accept` and hands each connection to
//! a thread of its own, which reads until the request is complete (or the
//! idle limit passes); workers, once registered, move to the [`WorkerPool`]
//! and are leased out per shard attempt by the orchestrator's TCP
//! transport.
//!
//! Runs are multi-tenant: each `POST /v1/runs` creates
//! `<data-dir>/runs/run-NNNN/` with a standard `ring-distrib/v1`
//! `manifest.json`, so every daemon run directory is *also* a valid target
//! for `ringlab resume` — the daemon adds queueing and remote dispatch,
//! not a new on-disk format. A scheduler thread executes runs one at a
//! time (shard-level parallelism comes from the worker pool), reusing the
//! orchestrator's retry/watchdog supervision unchanged; when every shard
//! lands, the shard files are merged into `merged.jsonl`, byte-identical
//! to the single-process sweep. Subscribers on
//! `GET /v1/runs/<id>/results` receive the per-case JSONL as shards land,
//! in case order (the contiguous shard plan makes "complete prefix of
//! shards, concatenated" equal to the final merge order). Nothing on the
//! request path sleeps: a subscriber waits on the daemon's `progress`
//! condition variable, which the orchestrator signals each time a shard
//! lands, and `POST /v1/shutdown` wakes the accept loop by connecting to
//! the daemon's own address.

use crate::http::{self, Request};
use crate::pool::{TcpWorkerTransport, WorkerPool};
use crate::{recover, SCHEMA};
use ring_distrib::{
    merge_shards, plan_shards, run_pending_shards_with, Manifest, OrchestratorOptions, ShardStatus,
    SpecParams, MAX_SHARDS,
};
use serde::{Deserialize, Value};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A resolved sweep spec: what the daemon needs from the scenario layer to
/// plan and validate a run without depending on it.
pub struct ResolvedSpec {
    /// Number of cases the spec enumerates.
    pub total_cases: usize,
    /// The spec fingerprint workers must reproduce (hex, `0x…`).
    pub fingerprint: String,
}

/// Resolves submitted spec parameters against the scenario engine (the
/// harness injects this; an `Err` rejects the submission with a 400).
pub type SpecResolver = Box<dyn Fn(&SpecParams) -> Result<ResolvedSpec, String> + Send + Sync>;

/// Daemon configuration.
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks a free port; the resolved
    /// address lands in `<data-dir>/endpoint`).
    pub listen: String,
    /// Root of the daemon's state: `endpoint` plus `runs/run-NNNN/`.
    pub data_dir: PathBuf,
    /// `--jobs` passed to each remote worker shard.
    pub jobs_per_worker: usize,
    /// Per-shard retry budget (extra attempts after a failed one).
    pub retries: u32,
    /// Per-attempt wall-clock budget (`None` = unlimited).
    pub shard_timeout: Option<Duration>,
    /// How long a shard attempt waits for an idle worker before counting
    /// as a failed launch.
    pub lease_timeout: Duration,
    /// The scenario-layer spec resolver.
    pub resolver: SpecResolver,
}

/// Idle HTTP connections are dropped after this long without a complete
/// request.
const CONN_IDLE_LIMIT: Duration = Duration::from_secs(10);

/// How long the accept loop backs off after a failed `accept` (descriptor
/// exhaustion, say), so a persistent error does not spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunStatus {
    Queued,
    Running,
    Complete,
    Failed,
}

impl RunStatus {
    fn as_str(self) -> &'static str {
        match self {
            RunStatus::Queued => "queued",
            RunStatus::Running => "running",
            RunStatus::Complete => "complete",
            RunStatus::Failed => "failed",
        }
    }
}

struct RunRecord {
    id: usize,
    dir: PathBuf,
    status: RunStatus,
    error: Option<String>,
    /// Bumped whenever a shard lands, the status changes or the daemon
    /// starts to shut down; subscribers wait on `progress` until it moves.
    landed: u64,
}

struct Daemon {
    config: ServeConfig,
    /// Where `POST /v1/shutdown` connects to wake the blocked `accept`.
    wake_addr: SocketAddr,
    pool: Arc<WorkerPool>,
    runs: Mutex<Vec<RunRecord>>,
    /// The id the next submitted run takes. It starts one past the highest
    /// `run-NNNN` already in `<data-dir>/runs`, so a restarted daemon
    /// never reuses a run directory, and every submission advances it.
    next_run_id: AtomicUsize,
    /// Signalled, under `runs`, whenever some run's `landed` moves.
    progress: Condvar,
    queue: Mutex<VecDeque<usize>>,
    queue_signal: Condvar,
    shutting_down: AtomicBool,
}

/// Runs the daemon until `POST /v1/shutdown`.
///
/// # Errors
///
/// Returns a description of setup failures (bad listen address, unwritable
/// data directory); per-run failures are reported through the status API.
pub fn serve(config: ServeConfig) -> Result<(), String> {
    let runs_dir = config.data_dir.join("runs");
    std::fs::create_dir_all(&runs_dir)
        .map_err(|e| format!("cannot create {}: {e}", runs_dir.display()))?;
    let next_run_id = AtomicUsize::new(first_unused_run_id(&runs_dir)?);
    let listener = TcpListener::bind(&config.listen)
        .map_err(|e| format!("cannot listen on {}: {e}", config.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    write_endpoint_file(&config.data_dir, &addr.to_string())?;
    eprintln!(
        "ring-serve: listening on {addr} (data dir {})",
        config.data_dir.display()
    );

    let mut wake_addr = addr;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let daemon = Arc::new(Daemon {
        config,
        wake_addr,
        pool: Arc::new(WorkerPool::new()),
        runs: Mutex::new(Vec::new()),
        next_run_id,
        progress: Condvar::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_signal: Condvar::new(),
        shutting_down: AtomicBool::new(false),
    });

    let scheduler = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || scheduler_loop(&daemon))
    };

    for stream in listener.incoming() {
        if daemon.shutting_down.load(Ordering::Acquire) {
            break;
        }
        match stream {
            Ok(stream) => {
                let daemon = Arc::clone(&daemon);
                let spawned = std::thread::Builder::new()
                    .name("ring-serve-conn".into())
                    .spawn(move || serve_connection(&daemon, stream));
                // A failed spawn drops the closure, and the connection
                // with it; the daemon keeps accepting.
                if let Err(e) = spawned {
                    eprintln!("ring-serve: dropping a connection, no thread for it: {e}");
                }
            }
            Err(e) => {
                eprintln!("ring-serve: accept failed: {e}");
                std::thread::park_timeout(ACCEPT_ERROR_BACKOFF);
            }
        }
    }

    // Drain: dismiss idle workers, wake the scheduler, let an in-flight
    // run finish. Queued-but-unstarted runs stay `queued` on disk; their
    // directories are valid `ringlab resume` targets. Taking the queue
    // lock orders the notification after the scheduler's flag check.
    daemon.pool.shutdown();
    drop(recover(daemon.queue.lock()));
    daemon.queue_signal.notify_all();
    if scheduler.join().is_err() {
        eprintln!("ring-serve: the scheduler thread panicked");
    }
    std::fs::remove_file(daemon.config.data_dir.join("endpoint")).ok();
    eprintln!("ring-serve: shut down");
    Ok(())
}

/// One past the highest `run-NNNN` directory name in `runs_dir` (1 when
/// there is none).
fn first_unused_run_id(runs_dir: &Path) -> Result<usize, String> {
    let entries = std::fs::read_dir(runs_dir)
        .map_err(|e| format!("cannot read {}: {e}", runs_dir.display()))?;
    let highest = entries
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            name.to_str()?.strip_prefix("run-")?.parse::<usize>().ok()
        })
        .max()
        .unwrap_or(0);
    Ok(highest + 1)
}

/// Publishes the bound address atomically as `<data-dir>/endpoint`, so
/// scripts can `--listen 127.0.0.1:0` and read the port back.
fn write_endpoint_file(data_dir: &std::path::Path, addr: &str) -> Result<(), String> {
    let path = data_dir.join("endpoint");
    let tmp = data_dir.join("endpoint.tmp");
    std::fs::write(&tmp, format!("{addr}\n"))
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Serves one accepted connection on its own thread: reads, one `read` per
/// step against the idle deadline, until the first byte has classified the
/// peer and its message is complete, then registers a worker, answers an
/// HTTP request or drops the peer.
fn serve_connection(daemon: &Arc<Daemon>, mut stream: TcpStream) {
    let deadline = Instant::now() + CONN_IDLE_LIMIT;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // `set_read_timeout` rejects a zero duration; a spent deadline
        // ends the connection like a timed-out read.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }

        if buf[0] == b'{' {
            // A worker hello frame: one JSON line.
            if let Some(newline) = buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&buf[..newline]).to_string();
                register_worker(daemon, stream, &line);
                return;
            }
            if buf.len() > http::MAX_HEAD_BYTES {
                eprintln!(
                    "ring-serve: dropping peer whose hello exceeds {} bytes",
                    http::MAX_HEAD_BYTES
                );
                break;
            }
        } else {
            // The parser rejects a head or body past its cap, so `buf`
            // never outgrows one maximal request plus one chunk.
            match http::parse_request(&buf) {
                Ok(Some((request, _))) => {
                    if stream.set_read_timeout(None).is_ok() {
                        handle_request(daemon, &mut stream, &request);
                    }
                    return;
                }
                Ok(None) => {}
                Err(reason) => {
                    respond(
                        &mut stream,
                        &http::error_response(400, "Bad Request", &reason),
                    );
                    return;
                }
            }
        }
    }
    stream.shutdown(Shutdown::Both).ok();
}

/// Validates a hello frame and moves the connection into the worker pool.
fn register_worker(daemon: &Arc<Daemon>, stream: TcpStream, line: &str) {
    let frame = match serde_json::from_str(line) {
        Ok(frame) => frame,
        Err(e) => {
            eprintln!("ring-serve: dropping peer with malformed hello: {e}");
            stream.shutdown(Shutdown::Both).ok();
            return;
        }
    };
    let event = frame.get("event").and_then(Value::as_str).unwrap_or("");
    let schema = frame.get("schema").and_then(Value::as_str).unwrap_or("");
    if event != "hello" || schema != SCHEMA {
        eprintln!(
            "ring-serve: dropping peer announcing event `{event}` schema `{schema}` \
             (expected hello/{SCHEMA})"
        );
        stream.shutdown(Shutdown::Both).ok();
        return;
    }
    let name = frame
        .get("worker")
        .and_then(Value::as_str)
        .unwrap_or("worker")
        .to_string();
    if stream.set_read_timeout(None).is_err() {
        stream.shutdown(Shutdown::Both).ok();
        return;
    }
    eprintln!("ring-serve: worker `{name}` registered");
    daemon.pool.register(name, stream);
}

/// Writes a complete response and closes the connection.
fn respond(stream: &mut TcpStream, bytes: &[u8]) {
    stream.write_all(bytes).ok();
    stream.flush().ok();
    stream.shutdown(Shutdown::Both).ok();
}

/// Routes one HTTP request.
fn handle_request(daemon: &Arc<Daemon>, conn: &mut TcpStream, request: &Request) {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/v1/healthz") => {
            let body = Value::Object(vec![
                ("schema".to_string(), Value::Str(SCHEMA.to_string())),
                ("status".to_string(), Value::Str("ok".to_string())),
            ]);
            respond(conn, &http::json_response(200, "OK", &body));
        }
        ("GET", "/v1/metrics") => {
            // The whole process registry — daemon counters, worker-pool
            // gauges, lease-wait histogram — in Prometheus text exposition,
            // scrapeable by anything that speaks the format.
            let text = ring_obs::prometheus_text(&ring_obs::global().snapshot());
            respond(
                conn,
                &http::response(200, "OK", "text/plain; version=0.0.4", text.as_bytes()),
            );
        }
        ("GET", "/v1/workers") => {
            let mut fields = vec![("schema".to_string(), Value::Str(SCHEMA.to_string()))];
            if let Value::Object(snapshot) = daemon.pool.snapshot() {
                fields.extend(snapshot);
            }
            respond(
                conn,
                &http::json_response(200, "OK", &Value::Object(fields)),
            );
        }
        ("POST", "/v1/runs") => match submit_run(daemon, &request.body) {
            Ok(body) => respond(conn, &http::json_response(202, "Accepted", &body)),
            Err(reason) => respond(conn, &http::error_response(400, "Bad Request", &reason)),
        },
        ("GET", "/v1/runs") => {
            let runs = recover(daemon.runs.lock());
            let list: Vec<Value> = runs.iter().map(run_summary).collect();
            let body = Value::Object(vec![
                ("schema".to_string(), Value::Str(SCHEMA.to_string())),
                ("runs".to_string(), Value::Array(list)),
            ]);
            respond(conn, &http::json_response(200, "OK", &body));
        }
        ("POST", "/v1/shutdown") => {
            let body = Value::Object(vec![
                ("schema".to_string(), Value::Str(SCHEMA.to_string())),
                (
                    "status".to_string(),
                    Value::Str("shutting-down".to_string()),
                ),
            ]);
            respond(conn, &http::json_response(200, "OK", &body));
            begin_shutdown(daemon);
        }
        ("GET", _) if path.starts_with("/v1/runs/") => handle_run_path(daemon, conn, path),
        _ => respond(
            conn,
            &http::error_response(
                404,
                "Not Found",
                &format!("no route for {} {path}", request.method),
            ),
        ),
    }
}

/// `GET /v1/runs/<id>` (status + manifest), `GET /v1/runs/<id>/results`
/// (streamed JSONL) and `GET /v1/runs/<id>/metrics` (the run's aggregated
/// ring-obs/v1 snapshot plus a per-shard supervision breakdown).
fn handle_run_path(daemon: &Arc<Daemon>, conn: &mut TcpStream, path: &str) {
    let rest = &path["/v1/runs/".len()..];
    let (id_text, results, metrics) =
        match (rest.strip_suffix("/results"), rest.strip_suffix("/metrics")) {
            (Some(id_text), _) => (id_text, true, false),
            (None, Some(id_text)) => (id_text, false, true),
            (None, None) => (rest, false, false),
        };
    let Ok(id) = id_text.parse::<usize>() else {
        respond(
            conn,
            &http::error_response(404, "Not Found", &format!("bad run id `{id_text}`")),
        );
        return;
    };
    let record = {
        let runs = recover(daemon.runs.lock());
        runs.iter()
            .find(|r| r.id == id)
            .map(|r| (r.dir.clone(), run_summary(r)))
    };
    let Some((dir, summary)) = record else {
        respond(
            conn,
            &http::error_response(404, "Not Found", &format!("no run {id}")),
        );
        return;
    };
    if metrics {
        respond_run_metrics(conn, id, &dir);
        return;
    }
    if results {
        // The connection's own thread carries the stream.
        stream_results(daemon, id, &dir, conn);
        return;
    }
    let mut fields = vec![("schema".to_string(), Value::Str(SCHEMA.to_string()))];
    if let Value::Object(summary) = summary {
        fields.extend(summary);
    }
    let manifest_path = Manifest::path_in(&dir);
    match std::fs::read_to_string(&manifest_path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(manifest) => fields.push(("manifest".to_string(), manifest)),
        Err(e) => fields.push(("manifest_error".to_string(), Value::Str(e))),
    }
    respond(
        conn,
        &http::json_response(200, "OK", &Value::Object(fields)),
    );
}

/// Answers `GET /v1/runs/<id>/metrics`: the manifest's aggregated
/// ring-obs/v1 snapshot (completed shards only, each shard contributing
/// exactly its final successful attempt) plus a per-shard supervision
/// breakdown — attempts, attempt duration, watchdog kills, backoff.
fn respond_run_metrics(conn: &mut TcpStream, id: usize, dir: &std::path::Path) {
    use serde::Serialize;
    let manifest = match Manifest::load(dir) {
        Ok(manifest) => manifest,
        Err(e) => {
            respond(
                conn,
                &http::error_response(500, "Internal Server Error", &e.to_string()),
            );
            return;
        }
    };
    let shards: Vec<Value> = manifest
        .shards
        .iter()
        .map(|shard| {
            Value::Object(vec![
                ("shard".to_string(), Value::Uint(shard.shard as u64)),
                (
                    "status".to_string(),
                    Value::Str(shard.status.as_str().to_string()),
                ),
                ("attempts".to_string(), Value::Uint(shard.attempts as u64)),
                ("attempt_ms".to_string(), Value::Uint(shard.attempt_ms)),
                (
                    "watchdog_kills".to_string(),
                    Value::Uint(shard.watchdog_kills),
                ),
                ("backoff_ms".to_string(), Value::Uint(shard.backoff_ms)),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        ("schema".to_string(), Value::Str(SCHEMA.to_string())),
        ("run".to_string(), Value::Uint(id as u64)),
        (
            "metrics".to_string(),
            manifest.aggregate_metrics().to_json(),
        ),
        ("shards".to_string(), Value::Array(shards)),
    ]);
    respond(conn, &http::json_response(200, "OK", &body));
}

fn run_summary(record: &RunRecord) -> Value {
    let mut fields = vec![
        ("run".to_string(), Value::Uint(record.id as u64)),
        (
            "dir".to_string(),
            Value::Str(record.dir.display().to_string()),
        ),
        (
            "status".to_string(),
            Value::Str(record.status.as_str().to_string()),
        ),
    ];
    if let Some(error) = &record.error {
        fields.push(("error".to_string(), Value::Str(error.clone())));
    }
    Value::Object(fields)
}

/// Creates and enqueues a run from a `POST /v1/runs` body: the
/// [`SpecParams`] fields plus optional `"shards"` (default: one per idle
/// worker; at most [`MAX_SHARDS`]) and boolean `"structure_store"` (default
/// off; the store lives inside the run directory).
fn submit_run(daemon: &Arc<Daemon>, body: &[u8]) -> Result<Value, String> {
    if daemon.shutting_down.load(Ordering::Acquire) {
        return Err("the daemon is shutting down".into());
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = serde_json::from_str(text).map_err(|e| format!("malformed JSON body: {e}"))?;
    let spec = SpecParams::from_json(&value)?;
    let resolved = (daemon.config.resolver)(&spec)?;
    if resolved.total_cases == 0 {
        return Err("the spec enumerates no cases".into());
    }
    // An explicit count above the case total is honored — the plan just
    // contains empty shards, exactly as `ringlab sweep --shards M` would;
    // only the idle-worker default is clamped to something useful.
    let shards = match value.get("shards").map(|v| v.as_u64()) {
        Some(Some(n)) if (1..=MAX_SHARDS as u64).contains(&n) => n as usize,
        Some(_) => return Err(format!("`shards` must be an integer in 1..={MAX_SHARDS}")),
        None => daemon.pool.idle_count().max(1).min(resolved.total_cases),
    };
    let use_store = match value.get("structure_store") {
        None => false,
        Some(v) => v.as_bool().ok_or("`structure_store` must be a boolean")?,
    };

    let (id, dir) = {
        let mut runs = recover(daemon.runs.lock());
        let id = daemon.next_run_id.fetch_add(1, Ordering::Relaxed);
        let dir = daemon
            .config
            .data_dir
            .join("runs")
            .join(format!("run-{id:04}"));
        // `create_dir`, not `create_dir_all`: a directory that already
        // exists belongs to another run and is never written over.
        std::fs::create_dir(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        runs.push(RunRecord {
            id,
            dir: dir.clone(),
            status: RunStatus::Queued,
            error: None,
            landed: 0,
        });
        (id, dir)
    };
    let output = dir.join("merged.jsonl").display().to_string();
    let mut manifest = Manifest::new(
        spec,
        resolved.fingerprint,
        resolved.total_cases,
        &plan_shards(resolved.total_cases, shards),
        daemon.config.jobs_per_worker,
        output,
    )
    .with_shard_timeout(daemon.config.shard_timeout.map(|t| t.as_secs().max(1)));
    if use_store {
        manifest = manifest.with_structure_store(dir.join("structures").display().to_string());
    }
    manifest
        .save_in(&dir)
        .map_err(|e| format!("cannot write the run manifest: {e}"))?;

    recover(daemon.queue.lock()).push_back(id);
    daemon.queue_signal.notify_one();
    ring_obs::global().counter("serve_runs_submitted").inc();
    eprintln!(
        "ring-serve: run {id} queued ({} cases, {shards} shards, dir {})",
        resolved.total_cases,
        dir.display()
    );
    Ok(Value::Object(vec![
        ("schema".to_string(), Value::Str(SCHEMA.to_string())),
        ("run".to_string(), Value::Uint(id as u64)),
        ("status".to_string(), Value::Str("queued".to_string())),
        ("dir".to_string(), Value::Str(dir.display().to_string())),
        (
            "total_cases".to_string(),
            Value::Uint(resolved.total_cases as u64),
        ),
        ("shards".to_string(), Value::Uint(shards as u64)),
    ]))
}

/// The scheduler: executes queued runs one at a time until shutdown.
fn scheduler_loop(daemon: &Arc<Daemon>) {
    loop {
        let run_id = {
            let mut queue = recover(daemon.queue.lock());
            loop {
                if daemon.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = recover(daemon.queue_signal.wait(queue));
            }
        };
        set_run_status(daemon, run_id, RunStatus::Running, None);
        eprintln!("ring-serve: run {run_id} started");
        match execute_run(daemon, run_id) {
            Ok(()) => {
                set_run_status(daemon, run_id, RunStatus::Complete, None);
                ring_obs::global().counter("serve_runs_completed").inc();
                eprintln!("ring-serve: run {run_id} complete");
            }
            Err(reason) => {
                eprintln!("ring-serve: run {run_id} failed: {reason}");
                set_run_status(daemon, run_id, RunStatus::Failed, Some(reason));
                ring_obs::global().counter("serve_runs_failed").inc();
            }
        }
    }
}

fn set_run_status(daemon: &Arc<Daemon>, id: usize, status: RunStatus, error: Option<String>) {
    update_run(daemon, id, |record| {
        record.status = status;
        record.error = error;
    });
}

/// Applies `update` to run `id`, bumps its `landed` generation and wakes
/// the subscribers waiting on `progress`.
fn update_run(daemon: &Daemon, id: usize, update: impl FnOnce(&mut RunRecord)) {
    let mut runs = recover(daemon.runs.lock());
    if let Some(record) = runs.iter_mut().find(|r| r.id == id) {
        update(record);
        record.landed += 1;
    }
    daemon.progress.notify_all();
}

/// Starts the drain: flags the daemon, releases every waiting subscriber,
/// and wakes the accept loop blocked in `accept` by connecting to it.
fn begin_shutdown(daemon: &Daemon) {
    daemon.shutting_down.store(true, Ordering::Release);
    {
        let mut runs = recover(daemon.runs.lock());
        for record in runs.iter_mut() {
            record.landed += 1;
        }
    }
    daemon.progress.notify_all();
    if let Err(e) = TcpStream::connect(daemon.wake_addr) {
        eprintln!("ring-serve: cannot wake the accept loop: {e}");
    }
}

/// Dispatches one run's shards over the worker pool and merges the result.
fn execute_run(daemon: &Arc<Daemon>, run_id: usize) -> Result<(), String> {
    let dir = {
        let runs = recover(daemon.runs.lock());
        runs.iter()
            .find(|r| r.id == run_id)
            .map(|r| r.dir.clone())
            .ok_or("run vanished from the table")?
    };
    let manifest = Manifest::load(&dir)?;
    let spec = manifest.spec.clone();
    let jobs_per_worker = manifest.jobs_per_worker;
    let shard_count = manifest.shards.len();
    let structure_store = manifest.structure_store.clone();
    let total_cases = manifest.total_cases;
    let output = manifest.output.clone();
    let recorded_timeout = manifest.shard_timeout.map(Duration::from_secs);

    let options = OrchestratorOptions {
        // Shard-level parallelism tracks the fleet present at launch;
        // `run_pending_shards_with` clamps to the shard count.
        concurrency: daemon.pool.idle_count().max(1),
        retries: daemon.config.retries,
        shard_timeout: recorded_timeout,
    };
    let transport = TcpWorkerTransport::new(
        Arc::clone(&daemon.pool),
        Box::new(move |range| {
            spec.worker_args(jobs_per_worker, range, shard_count, &structure_store)
        }),
        daemon.config.lease_timeout,
    );
    let manifest = Mutex::new(manifest);
    let landed = |_shard| update_run(daemon, run_id, |_| {});
    let outcome = run_pending_shards_with(&dir, &manifest, &options, &transport, &landed)
        .map_err(|e| format!("orchestration failed: {e}"))?;
    if !outcome.failed.is_empty() {
        return Err(format!(
            "{} shard(s) failed: {:?}; the run directory is resumable with \
             `ringlab resume {}`",
            outcome.failed.len(),
            outcome.failed,
            dir.display()
        ));
    }

    let manifest = recover(manifest.into_inner());
    let inputs = manifest.shard_files(&dir);
    let tmp = dir.join("merged.jsonl.tmp");
    let file =
        std::fs::File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let mut out = std::io::BufWriter::new(file);
    merge_shards(&inputs, &mut out, Some(total_cases)).map_err(|e| format!("merge failed: {e}"))?;
    out.flush()
        .map_err(|e| format!("cannot flush the merge: {e}"))?;
    drop(out);
    std::fs::rename(&tmp, &output)
        .map_err(|e| format!("cannot move {} into place: {e}", output))?;
    Ok(())
}

/// Streams a run's JSONL to one subscriber: the complete prefix of shards,
/// concatenated in shard order, extended as further shards land. For the
/// contiguous shard plan this is exactly the merge order, so a subscriber
/// that reads to EOF on a completed run holds bytes identical to
/// `merged.jsonl` (and to the single-process sweep).
///
/// Between manifest reloads the subscriber sleeps on `progress`. It reads
/// the run's `landed` generation *before* each reload and waits only while
/// the generation is unchanged, so a shard that lands between the reload
/// and the wait cannot be missed.
fn stream_results(daemon: &Daemon, run_id: usize, dir: &std::path::Path, out: &mut TcpStream) {
    let generation = |runs: &[RunRecord]| runs.iter().find(|r| r.id == run_id).map(|r| r.landed);
    if out.write_all(&http::stream_head()).is_err() {
        return;
    }
    let mut next_shard = 0usize;
    loop {
        let Some(seen) = generation(&recover(daemon.runs.lock())) else {
            break;
        };
        let Ok(manifest) = Manifest::load(dir) else {
            break;
        };
        while next_shard < manifest.shards.len()
            && manifest.shards[next_shard].status == ShardStatus::Complete
        {
            let path = dir.join(ring_distrib::shard_file_name(next_shard));
            let streamed =
                std::fs::File::open(&path).and_then(|mut file| std::io::copy(&mut file, out));
            if streamed.is_err() {
                out.shutdown(Shutdown::Both).ok();
                return;
            }
            next_shard += 1;
        }
        if next_shard == manifest.shards.len() {
            break;
        }
        // A `complete` run status only appears after the manifest's last
        // `mark_complete` checkpoint, so the next reload drains the tail;
        // only a failed run or a draining daemon ends the stream short
        // (the status endpoint tells the subscriber why). Both bump the
        // generation as well, so one more reload still picks up every
        // shard checkpointed before them.
        let runs = recover(daemon.runs.lock());
        let runs = recover(daemon.progress.wait_while(runs, |runs| {
            !daemon.shutting_down.load(Ordering::Acquire)
                && runs
                    .iter()
                    .any(|r| r.id == run_id && r.landed == seen && r.status != RunStatus::Failed)
        }));
        if generation(&runs) == Some(seen) {
            break;
        }
    }
    out.flush().ok();
    out.shutdown(Shutdown::Both).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon that never listens: enough to call `submit_run` on.
    fn idle_daemon(data_dir: PathBuf) -> Arc<Daemon> {
        let next_run_id =
            AtomicUsize::new(first_unused_run_id(&data_dir.join("runs")).unwrap_or(1));
        Arc::new(Daemon {
            config: ServeConfig {
                listen: String::new(),
                data_dir,
                jobs_per_worker: 1,
                retries: 0,
                shard_timeout: None,
                lease_timeout: Duration::from_secs(1),
                resolver: Box::new(|_| {
                    Ok(ResolvedSpec {
                        total_cases: 6,
                        fingerprint: "0xabc".into(),
                    })
                }),
            },
            wake_addr: SocketAddr::from(([127, 0, 0, 1], 9)),
            pool: Arc::new(WorkerPool::new()),
            runs: Mutex::new(Vec::new()),
            next_run_id,
            progress: Condvar::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_signal: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        })
    }

    #[test]
    fn a_shard_count_past_the_bound_is_refused_before_planning() {
        let dir = std::env::temp_dir().join(format!("ring-serve-bound-{}", std::process::id()));
        let daemon = idle_daemon(dir.clone());
        for shards in [(MAX_SHARDS + 1) as u64, 10_000_000_000] {
            let body = format!("{{\"subcommand\":\"sweep\",\"shards\":{shards}}}");
            let err = submit_run(&daemon, body.as_bytes()).unwrap_err();
            assert!(err.contains("`shards`"), "{err}");
        }
        assert!(recover(daemon.runs.lock()).is_empty());
        assert!(recover(daemon.queue.lock()).is_empty());
        assert!(!dir.exists(), "nothing may be written for a refused run");
    }

    /// A restarted daemon finds `run-0001` and `run-0007` on disk: its
    /// first run is run 8, and both old directories keep their bytes. A
    /// directory already standing at the next id is refused, not reused,
    /// and the submission after it takes the id after it.
    #[test]
    fn a_restarted_daemon_numbers_runs_after_the_existing_ones() {
        let dir = std::env::temp_dir().join(format!("ring-serve-restart-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let runs = dir.join("runs");
        let old = ["run-0001", "run-0007"].map(|name| {
            let path = runs.join(name).join("manifest.json");
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, format!("{name} as the last daemon left it\n")).unwrap();
            path
        });
        let before = old.clone().map(|path| std::fs::read(path).unwrap());

        let daemon = idle_daemon(dir.clone());
        let body = br#"{"subcommand":"sweep","shards":2}"#;
        let reply = submit_run(&daemon, body).unwrap();
        assert_eq!(reply.get("run").and_then(Value::as_u64), Some(8));
        assert!(runs.join("run-0008").join("manifest.json").is_file());
        for (path, bytes) in old.iter().zip(&before) {
            assert_eq!(&std::fs::read(path).unwrap(), bytes, "{}", path.display());
        }

        std::fs::create_dir(runs.join("run-0009")).unwrap();
        let err = submit_run(&daemon, body).unwrap_err();
        assert!(err.contains("run-0009"), "{err}");
        assert!(std::fs::read_dir(runs.join("run-0009"))
            .unwrap()
            .next()
            .is_none());
        let reply = submit_run(&daemon, body).unwrap();
        assert_eq!(reply.get("run").and_then(Value::as_u64), Some(10));
        assert_eq!(recover(daemon.runs.lock()).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
