//! The multi-process orchestrator.
//!
//! Drives the incomplete shards of a [`Manifest`] to completion: launches
//! one worker attempt per shard (bounded concurrency, per-shard retries),
//! validates each worker's protocol stream as it arrives, persists the
//! record lines to `shard-NNN.jsonl` (via a temp file, renamed only after
//! the done-event checksum matches), and checkpoints the manifest after
//! every shard transition. The orchestrator is deliberately agnostic about
//! *what* a worker runs — and, since the transport seam, about *where*: a
//! [`WorkerTransport`] turns a shard range into a live [`ShardAttempt`],
//! and the supervision loop (retries, deterministic backoff, watchdog,
//! stream validation, temp-file discipline) is identical whether the
//! attempt is a child process speaking on stdout
//! ([`ProcessTransport`], what `ringlab --shards` and the benchmark
//! harness use) or a remote worker speaking the same protocol lines over a
//! TCP connection (what `ring-serve` plugs in). A worker disconnect is
//! just another retryable shard failure.
//!
//! Failure containment: a worker that exits nonzero (or drops its
//! connection), truncates its stream, emits records out of sequence or
//! reports a checksum that does not match the bytes received is retried
//! from scratch up to the retry budget; the partial shard file never
//! overwrites a good one (writes go to `*.tmp`), and a shard that exhausts
//! its budget is marked `failed` in the manifest so a later `resume` can
//! pick it up.

use crate::manifest::{shard_file_name, Manifest};
use crate::plan::ShardRange;
use crate::protocol::{parse_worker_line, DoneEvent, WorkerLine};
use ring_combinat::shared::splitmix64;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervision parameters.
#[derive(Clone, Copy, Debug)]
pub struct OrchestratorOptions {
    /// Maximum workers alive at once.
    pub concurrency: usize,
    /// Additional launches after a failed one (0 = single attempt).
    pub retries: u32,
    /// Wall-clock budget per worker attempt: a worker still running when
    /// it expires is killed and the attempt counts as failed (and retries
    /// like any other failure). `None` = unlimited.
    pub shard_timeout: Option<Duration>,
}

impl Default for OrchestratorOptions {
    fn default() -> Self {
        OrchestratorOptions {
            concurrency: 1,
            retries: 1,
            shard_timeout: None,
        }
    }
}

/// First retry delay; each further attempt doubles it up to
/// [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 100;

/// Upper bound on the exponential part of a retry delay.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Domain-separation salt of the deterministic backoff jitter stream.
const BACKOFF_JITTER_SALT: u64 = 0xbac0_ff5e_0000_0001;

/// The delay before retry `attempt` (1-based) of a shard: bounded
/// exponential backoff plus deterministic jitter. The jitter is a pure
/// function of `(shard, attempt)` — no wall clock, no global RNG — so a
/// fleet's retry schedule replays identically and concurrent shards that
/// fail together still desynchronise their relaunches.
fn backoff_delay(shard: usize, attempt: u32) -> Duration {
    let exp = BACKOFF_BASE_MS
        .saturating_mul(1 << attempt.min(10).saturating_sub(1))
        .min(BACKOFF_CAP_MS);
    let jitter = splitmix64(BACKOFF_JITTER_SALT ^ (shard as u64) ^ (u64::from(attempt) << 32))
        % (exp / 2 + 1);
    Duration::from_millis(exp + jitter)
}

/// Outcome of one orchestration pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Shards that reached `complete` during this pass.
    pub completed: Vec<usize>,
    /// Shards that exhausted their retry budget.
    pub failed: Vec<usize>,
}

/// One live worker attempt, produced by a [`WorkerTransport`].
///
/// The orchestrator consumes the attempt's protocol byte stream, uses the
/// abort handle from its watchdog thread when the attempt exceeds its
/// wall-clock budget (or breaks its stream), and finally reaps the attempt
/// to learn whether the worker terminated cleanly.
pub trait ShardAttempt: Send {
    /// Takes the worker's protocol byte stream. Called exactly once,
    /// before anything else.
    fn take_stream(&mut self) -> Box<dyn Read + Send>;

    /// A handle that kills the attempt from another thread: a process kill
    /// for child workers, a socket shutdown for remote ones. Killing must
    /// unblock a reader of the stream.
    fn abort_handle(&self) -> Box<dyn Fn() + Send>;

    /// Whether the protocol stream terminates at the done event (`true`
    /// for connection-reusing transports, where the same byte stream will
    /// carry the next assignment) or runs to EOF (`false` for child
    /// stdout, where anything after the done event is a protocol error).
    fn ends_at_done(&self) -> bool;

    /// Reaps the attempt after its stream has been consumed (`stream_ok` =
    /// the stream validated end to end). An `Err` fails the attempt even
    /// if the stream looked complete — e.g. a worker process that exited
    /// nonzero after emitting a plausible done event.
    fn finish(self: Box<Self>, stream_ok: bool) -> Result<(), String>;
}

/// Turns a shard range into a live worker attempt.
///
/// Implementations: [`ProcessTransport`] (child processes over stdio) in
/// this crate, and the TCP worker pool in `ring-serve`. A launch error is
/// an attempt failure like any other — it consumes one retry and the shard
/// is relaunched after the usual backoff.
pub trait WorkerTransport: Sync {
    /// Launches one attempt at `range`.
    ///
    /// # Errors
    ///
    /// Returns a description of why the attempt could not be launched
    /// (spawn failure, no remote worker available, …).
    fn launch(&self, range: &ShardRange) -> Result<Box<dyn ShardAttempt>, String>;
}

/// The child-process transport: spawns a [`Command`] per attempt and
/// supervises its stdout (the original, and default, worker transport).
pub struct ProcessTransport<'a> {
    command_for: &'a (dyn Fn(&ShardRange) -> Command + Sync),
}

impl<'a> ProcessTransport<'a> {
    /// Wraps a command factory: `command_for` builds the worker invocation
    /// for a shard range; the worker's stdout must speak the
    /// [`crate::protocol`] and its stderr is passed through.
    pub fn new(command_for: &'a (dyn Fn(&ShardRange) -> Command + Sync)) -> Self {
        ProcessTransport { command_for }
    }
}

impl WorkerTransport for ProcessTransport<'_> {
    fn launch(&self, range: &ShardRange) -> Result<Box<dyn ShardAttempt>, String> {
        let mut child = (self.command_for)(range)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(Box::new(ProcessAttempt {
            child: Arc::new(Mutex::new(child)),
            stdout: Some(stdout),
        }))
    }
}

/// A child-process attempt: the stream is the child's stdout, aborting
/// kills the process, reaping waits for its exit status.
struct ProcessAttempt {
    child: Arc<Mutex<std::process::Child>>,
    stdout: Option<std::process::ChildStdout>,
}

impl ShardAttempt for ProcessAttempt {
    fn take_stream(&mut self) -> Box<dyn Read + Send> {
        Box::new(self.stdout.take().expect("stream taken once"))
    }

    fn abort_handle(&self) -> Box<dyn Fn() + Send> {
        let child = Arc::clone(&self.child);
        Box::new(move || {
            // Killing closes the pipe, so the stream consumer unblocks and
            // the attempt is reported as failed.
            child.lock().expect("worker handle").kill().ok();
        })
    }

    fn ends_at_done(&self) -> bool {
        false
    }

    fn finish(self: Box<Self>, _stream_ok: bool) -> Result<(), String> {
        let status = self
            .child
            .lock()
            .expect("worker handle")
            .wait()
            .map_err(|e| format!("cannot reap worker: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("worker exited with {status}"))
        }
    }
}

/// Runs every incomplete shard of the manifest to completion (or failure),
/// checkpointing the manifest in `run_dir` after each transition.
///
/// `command_for` builds the worker invocation for a shard range; the
/// worker's stdout must speak the [`crate::protocol`] and its stderr is
/// passed through. This is the [`ProcessTransport`] convenience form of
/// [`run_pending_shards_with`].
///
/// # Errors
///
/// Only setup-level I/O failures (creating the run directory, persisting
/// the manifest) propagate; per-shard failures are captured in the outcome.
pub fn run_pending_shards(
    run_dir: &Path,
    manifest: &Mutex<Manifest>,
    options: &OrchestratorOptions,
    command_for: &(dyn Fn(&ShardRange) -> Command + Sync),
) -> std::io::Result<RunOutcome> {
    run_pending_shards_with(
        run_dir,
        manifest,
        options,
        &ProcessTransport::new(command_for),
        &|_| {},
    )
}

/// [`run_pending_shards`] over an arbitrary [`WorkerTransport`] — the
/// entry point remote-worker transports (`ring-serve`) plug into. The
/// supervision loop (concurrency, retries, deterministic backoff,
/// watchdog, manifest checkpoints) is byte-for-byte the same as for child
/// processes.
///
/// `landed` is called with the shard index each time a shard reaches
/// `complete` or `failed`, after that transition is checkpointed to disk,
/// so a caller watching the manifest can wake on it instead of polling.
///
/// # Errors
///
/// Only setup-level I/O failures (creating the run directory, persisting
/// the manifest) propagate; per-shard failures are captured in the outcome.
pub fn run_pending_shards_with(
    run_dir: &Path,
    manifest: &Mutex<Manifest>,
    options: &OrchestratorOptions,
    transport: &dyn WorkerTransport,
    landed: &(dyn Fn(usize) + Sync),
) -> std::io::Result<RunOutcome> {
    std::fs::create_dir_all(run_dir)?;
    let (pending, fingerprint) = {
        let manifest = manifest.lock().expect("manifest lock");
        (
            manifest.incomplete_shards(),
            manifest.spec_fingerprint.clone(),
        )
    };
    if pending.is_empty() {
        return Ok(RunOutcome::default());
    }
    manifest.lock().expect("manifest lock").save_in(run_dir)?;

    let queue: Mutex<Vec<ShardRange>> = Mutex::new(pending.iter().rev().copied().collect());
    let outcome = Mutex::new(RunOutcome::default());
    let workers = options.concurrency.clamp(1, pending.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some(range) = queue.lock().expect("shard queue").pop() else {
                    return;
                };
                let obs = ring_obs::global();
                let mut completed = false;
                for attempt in 0..=options.retries {
                    if attempt > 0 {
                        let delay = backoff_delay(range.shard, attempt);
                        obs.counter("distrib_retries").inc();
                        obs.counter("distrib_backoff_ms")
                            .add(delay.as_millis() as u64);
                        manifest
                            .lock()
                            .expect("manifest lock")
                            .add_backoff_ms(range.shard, delay.as_millis() as u64);
                        std::thread::sleep(delay);
                    }
                    {
                        let mut m = manifest.lock().expect("manifest lock");
                        let attempts = &mut m.shards[range.shard].attempts;
                        *attempts = attempts.saturating_add(1);
                        m.save_in(run_dir).expect("checkpoint manifest");
                    }
                    obs.counter("distrib_attempts").inc();
                    let attempt_start = Instant::now();
                    let result = run_attempt(
                        run_dir,
                        &range,
                        &fingerprint,
                        transport,
                        options.shard_timeout,
                    );
                    let attempt_elapsed = attempt_start.elapsed();
                    obs.histogram("distrib_attempt_ns")
                        .record_duration(attempt_elapsed);
                    match result {
                        Ok(done) => {
                            // The done event — metrics snapshot included —
                            // comes from exactly this, final successful,
                            // attempt; `mark_complete` overwrites whatever
                            // an earlier killed attempt might have left.
                            let attempt_ms = attempt_elapsed.as_millis() as u64;
                            {
                                let mut m = manifest.lock().expect("manifest lock");
                                m.mark_complete(range.shard, &done, attempt_ms);
                                m.save_in(run_dir).expect("checkpoint manifest");
                            }
                            landed(range.shard);
                            outcome.lock().expect("outcome").completed.push(range.shard);
                            completed = true;
                            break;
                        }
                        Err(failure) => {
                            if failure.watchdog_kill {
                                obs.counter("distrib_watchdog_kills").inc();
                                let mut m = manifest.lock().expect("manifest lock");
                                m.note_watchdog_kill(range.shard);
                                m.save_in(run_dir).expect("checkpoint manifest");
                            }
                            eprintln!(
                                "ring-distrib: shard {} attempt {}/{} failed: {}",
                                range.shard,
                                attempt + 1,
                                options.retries + 1,
                                failure.reason,
                            );
                        }
                    }
                }
                if !completed {
                    {
                        let mut m = manifest.lock().expect("manifest lock");
                        m.mark_failed(range.shard);
                        m.save_in(run_dir).expect("checkpoint manifest");
                    }
                    landed(range.shard);
                    outcome.lock().expect("outcome").failed.push(range.shard);
                }
            });
        }
    });
    let mut outcome = outcome.into_inner().expect("outcome");
    outcome.completed.sort_unstable();
    outcome.failed.sort_unstable();
    Ok(outcome)
}

/// Why one worker attempt failed. Watchdog kills are distinguished so the
/// retry loop can tally them (in the manifest and the metrics registry)
/// separately from ordinary crashes and protocol errors.
struct AttemptFailure {
    /// Human-readable description, passed through to stderr.
    reason: String,
    /// Whether the watchdog killed this attempt at the shard timeout.
    watchdog_kill: bool,
}

impl AttemptFailure {
    fn new(reason: String) -> Self {
        AttemptFailure {
            reason,
            watchdog_kill: false,
        }
    }
}

/// Launches one worker attempt over `transport` and validates its stream
/// end to end. On success the shard file is in place and the validated
/// done event is returned. With a timeout, a watchdog thread aborts
/// the attempt at the deadline and it fails with a timeout error (so the
/// retry loop relaunches it like any other failed attempt).
fn run_attempt(
    run_dir: &Path,
    range: &ShardRange,
    expected_fingerprint: &str,
    transport: &dyn WorkerTransport,
    timeout: Option<Duration>,
) -> Result<DoneEvent, AttemptFailure> {
    let _span = ring_obs::span!("shard_attempt", shard = range.shard);
    let final_path = run_dir.join(shard_file_name(range.shard));
    let tmp_path = run_dir.join(format!("{}.tmp", shard_file_name(range.shard)));
    let mut attempt = transport.launch(range).map_err(AttemptFailure::new)?;
    let stream = attempt.take_stream();
    let stop_at_done = attempt.ends_at_done();
    let abort = attempt.abort_handle();
    // The watchdog waits for the deadline or for the reaper to drop
    // `reaped`, whichever comes first, and reports whether it fired.
    let (reaped, reaped_signal) = mpsc::channel::<()>();
    let watchdog = timeout.map(|limit| {
        let abort = attempt.abort_handle();
        let deadline = Instant::now() + limit;
        std::thread::spawn(move || {
            let left = deadline.saturating_duration_since(Instant::now());
            let expired = reaped_signal.recv_timeout(left) == Err(RecvTimeoutError::Timeout);
            if expired {
                // Aborting breaks the stream, so the consumer unblocks
                // and the attempt is reported as failed.
                abort();
            }
            expired
        })
    });

    let result =
        consume_worker_stream(stream, range, expected_fingerprint, &tmp_path, stop_at_done);
    if result.is_err() {
        // The stream is broken; make sure the worker is gone before the
        // retry (it may still be producing).
        abort();
    }
    let finish = attempt.finish(result.is_ok());
    drop(reaped);
    let expired = watchdog.is_some_and(|watchdog| watchdog.join().expect("watchdog thread"));
    // A worker that produced a complete, validated stream before the
    // deadline fired is a success even if the abort raced its exit; the
    // timeout verdict applies only to broken streams.
    if expired && result.is_err() {
        std::fs::remove_file(&tmp_path).ok();
        return Err(AttemptFailure {
            reason: format!(
                "worker exceeded the {:.1}s shard timeout and was killed",
                timeout.expect("expiry implies a timeout").as_secs_f64()
            ),
            watchdog_kill: true,
        });
    }
    let stats = match result {
        Ok(stats) => stats,
        Err(reason) => {
            std::fs::remove_file(&tmp_path).ok();
            return Err(AttemptFailure::new(reason));
        }
    };
    if let Err(reason) = finish {
        std::fs::remove_file(&tmp_path).ok();
        return Err(AttemptFailure::new(reason));
    }
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| AttemptFailure::new(format!("cannot move shard file into place: {e}")))?;
    Ok(stats)
}

/// [`run_attempt`] for a single canned [`Command`] — the child-process
/// fast path, kept for tests and one-off supervision.
#[cfg(test)]
fn run_one_shard(
    run_dir: &Path,
    range: &ShardRange,
    expected_fingerprint: &str,
    command: Command,
    timeout: Option<Duration>,
) -> Result<DoneEvent, String> {
    let slot = Mutex::new(Some(command));
    let factory = move |_range: &ShardRange| {
        slot.lock()
            .expect("command slot")
            .take()
            .expect("single launch")
    };
    run_attempt(
        run_dir,
        range,
        expected_fingerprint,
        &ProcessTransport::new(&factory),
        timeout,
    )
    .map_err(|failure| failure.reason)
}

/// Longest worker-protocol line accepted, in bytes (the daemon's HTTP body
/// cap). A peer that streams more without a newline fails its attempt — a
/// retryable shard failure — instead of growing the orchestrator's memory
/// without bound.
const MAX_WORKER_LINE_BYTES: usize = 1024 * 1024;

/// Reads one line of at most [`MAX_WORKER_LINE_BYTES`] into `line`,
/// stripping its `\n` or `\r\n` like [`BufRead::lines`]; `Ok(false)` at
/// end of stream.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> Result<bool, String> {
    line.clear();
    let read = reader
        .by_ref()
        .take(MAX_WORKER_LINE_BYTES as u64 + 1)
        .read_until(b'\n', line)
        .map_err(|e| format!("broken worker pipe: {e}"))?;
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_WORKER_LINE_BYTES {
        return Err(format!(
            "worker line exceeds the {MAX_WORKER_LINE_BYTES}-byte cap"
        ));
    }
    Ok(read > 0)
}

/// Parses and validates one worker's protocol stream, writing record lines
/// to `tmp_path`. With `stop_at_done` the consumer returns right after the
/// validated done event (connection-reusing transports keep the stream
/// open for the next assignment); without it the stream must run to EOF
/// and any line after the done event is a protocol error.
fn consume_worker_stream(
    stdout: impl std::io::Read,
    range: &ShardRange,
    expected_fingerprint: &str,
    tmp_path: &Path,
    stop_at_done: bool,
) -> Result<DoneEvent, String> {
    let file = std::fs::File::create(tmp_path)
        .map_err(|e| format!("cannot create {}: {e}", tmp_path.display()))?;
    let mut out = BufWriter::new(file);
    let mut hasher = crate::checksum::Fnv1a64::new();
    let mut started = false;
    let mut next_index = range.start;
    let mut done: Option<DoneEvent> = None;

    let mut reader = BufReader::new(stdout);
    let mut buf = Vec::new();
    while read_bounded_line(&mut reader, &mut buf)? {
        let line = std::str::from_utf8(&buf).map_err(|e| format!("broken worker pipe: {e}"))?;
        if line.is_empty() {
            continue;
        }
        if done.is_some() {
            return Err(format!("worker spoke after its done event: {line}"));
        }
        match parse_worker_line(line)? {
            WorkerLine::Start(start) => {
                if started {
                    return Err("duplicate start event".into());
                }
                if start.shard != range.shard
                    || start.start != range.start
                    || start.end != range.end
                {
                    return Err(format!(
                        "worker announced shard {} [{}, {}), expected shard {} [{}, {})",
                        start.shard, start.start, start.end, range.shard, range.start, range.end
                    ));
                }
                if start.spec_fingerprint != expected_fingerprint {
                    return Err(format!(
                        "worker resolved spec fingerprint {}, orchestrator expects {} \
                         (mismatched flags or binary version)",
                        start.spec_fingerprint, expected_fingerprint
                    ));
                }
                started = true;
            }
            WorkerLine::Record { case_index, line } => {
                if !started {
                    return Err("record before the start event".into());
                }
                if case_index != next_index {
                    return Err(format!(
                        "record for case {case_index} where case {next_index} was expected"
                    ));
                }
                if case_index >= range.end {
                    return Err(format!("record {case_index} beyond the shard range"));
                }
                out.write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .map_err(|e| format!("cannot write shard file: {e}"))?;
                hasher.update(line.as_bytes());
                hasher.update(b"\n");
                next_index += 1;
            }
            WorkerLine::Done(event) => {
                if !started {
                    return Err("done event before the start event".into());
                }
                if event.shard != range.shard {
                    return Err(format!(
                        "worker finished shard {}, expected shard {}",
                        event.shard, range.shard
                    ));
                }
                let received = next_index - range.start;
                if event.records != received || received != range.len() {
                    return Err(format!(
                        "worker reported {} records, streamed {received}, shard holds {}",
                        event.records,
                        range.len()
                    ));
                }
                if event.checksum != hasher.format() {
                    return Err(format!(
                        "worker checksum {} does not match received bytes {}",
                        event.checksum,
                        hasher.format()
                    ));
                }
                done = Some(event);
                if stop_at_done {
                    break;
                }
            }
        }
    }
    out.flush()
        .map_err(|e| format!("cannot flush shard file: {e}"))?;
    done.ok_or_else(|| "worker stream ended without a done event".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ShardStatus, SpecParams};
    use crate::plan::plan_shards;
    use crate::protocol::{StartEvent, CACHE_HITS, CACHE_MISSES, STORE_MISSES};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ring-distrib-orch-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_manifest(total: usize, shards: usize) -> Manifest {
        Manifest::new(
            SpecParams {
                subcommand: "sweep".into(),
                quick: true,
                sizes: None,
                universe_factors: None,
                reps: None,
                seed: None,
                structure_seeds: None,
                fault_drops: None,
                fault_crashes: None,
                fault_churn: None,
                fault_adversarial: false,
            },
            "0xfeed".into(),
            total,
            &plan_shards(total, shards),
            1,
            "-".into(),
        )
    }

    /// Builds a `sh -c` worker that prints a canned protocol stream.
    fn scripted_worker(script: String) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    fn protocol_script(range: &ShardRange, shards: usize, fingerprint: &str) -> String {
        protocol_lines(range, shards, fingerprint)
            .iter()
            .map(|l| format!("echo '{l}'"))
            .collect::<Vec<_>>()
            .join(" && ")
    }

    /// The protocol lines of a well-behaved worker for `range`.
    fn protocol_lines(range: &ShardRange, shards: usize, fingerprint: &str) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(
            serde_json::to_string(&StartEvent::new(
                range.shard,
                shards,
                range.start,
                range.end,
                fingerprint,
            ))
            .unwrap(),
        );
        let mut hasher = crate::checksum::Fnv1a64::new();
        for i in range.start..range.end {
            let record = format!("{{\"case_index\":{i},\"n\":7}}");
            hasher.update(record.as_bytes());
            hasher.update(b"\n");
            lines.push(record);
        }
        let registry = ring_obs::Registry::new();
        registry.counter(CACHE_HITS).add(3);
        registry.counter(CACHE_MISSES).add(1);
        lines.push(
            serde_json::to_string(&DoneEvent::new(
                range.shard,
                range.len(),
                hasher.format(),
                registry.snapshot(),
            ))
            .unwrap(),
        );
        lines
    }

    #[test]
    fn well_behaved_workers_complete_every_shard() {
        let dir = temp_dir("ok");
        let manifest = Mutex::new(test_manifest(7, 3));
        let options = OrchestratorOptions {
            concurrency: 2,
            retries: 0,
            shard_timeout: None,
        };
        let outcome = run_pending_shards(&dir, &manifest, &options, &|range| {
            scripted_worker(protocol_script(range, 3, "0xfeed"))
        })
        .unwrap();
        assert_eq!(outcome.completed, vec![0, 1, 2]);
        assert!(outcome.failed.is_empty());
        let manifest = manifest.into_inner().unwrap();
        assert!(manifest.is_complete());
        let records: usize = manifest.shards.iter().map(|entry| entry.records).sum();
        assert_eq!(records, 7);
        assert_eq!(manifest.aggregate_metrics().counter(CACHE_HITS), 9);
        // The checkpointed manifest on disk agrees.
        let reloaded = Manifest::load(&dir).unwrap();
        assert_eq!(reloaded, manifest);
        // Shard files verify against their recorded digests.
        let mut check = reloaded.clone();
        assert!(check.revalidate_completed(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashing_workers_fail_their_shard_and_leave_no_file() {
        let dir = temp_dir("crash");
        let manifest = Mutex::new(test_manifest(4, 2));
        let options = OrchestratorOptions {
            concurrency: 1,
            retries: 1,
            shard_timeout: None,
        };
        // Shard 0 works; shard 1 dies mid-stream every time.
        let outcome = run_pending_shards(&dir, &manifest, &options, &|range| {
            if range.shard == 0 {
                scripted_worker(protocol_script(range, 2, "0xfeed"))
            } else {
                let start = serde_json::to_string(&StartEvent::new(
                    range.shard,
                    2,
                    range.start,
                    range.end,
                    "0xfeed",
                ))
                .unwrap();
                scripted_worker(format!(
                    "echo '{start}' && echo '{{\"case_index\":{}}}' && exit 3",
                    range.start
                ))
            }
        })
        .unwrap();
        assert_eq!(outcome.completed, vec![0]);
        assert_eq!(outcome.failed, vec![1]);
        let manifest = manifest.into_inner().unwrap();
        assert_eq!(manifest.shards[1].status, ShardStatus::Failed);
        assert_eq!(manifest.shards[1].attempts, 2);
        assert!(dir.join(shard_file_name(0)).exists());
        assert!(!dir.join(shard_file_name(1)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newline_less_floods_fail_the_attempt_at_the_line_cap() {
        let dir = temp_dir("flood");
        let manifest = Mutex::new(test_manifest(2, 1));
        let options = OrchestratorOptions {
            concurrency: 1,
            retries: 1,
            shard_timeout: None,
        };
        // One byte past the cap without a newline, then the stream stays
        // open: only the cap can end the attempt before the worker does.
        let started = Instant::now();
        let outcome = run_pending_shards(&dir, &manifest, &options, &|_| {
            scripted_worker(format!(
                "head -c {} /dev/zero | tr '\\0' x; exec sleep 30",
                MAX_WORKER_LINE_BYTES + 1
            ))
        })
        .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "an over-long line must fail the attempt without waiting for its end"
        );
        assert_eq!(outcome.failed, vec![0]);
        let manifest = manifest.into_inner().unwrap();
        assert_eq!(manifest.shards[0].status, ShardStatus::Failed);
        assert_eq!(manifest.shards[0].attempts, 2, "the failure is retryable");
        assert!(!dir.join(shard_file_name(0)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lying_checksums_and_wrong_assignments_are_rejected() {
        let dir = temp_dir("lies");
        let range = ShardRange {
            shard: 0,
            start: 0,
            end: 1,
        };

        // Checksum that cannot match.
        let start = serde_json::to_string(&StartEvent::new(0, 1, 0, 1, "0xfeed")).unwrap();
        let done = serde_json::to_string(&DoneEvent::new(
            0,
            1,
            "fnv1a64:0000000000000000".into(),
            ring_obs::Snapshot::default(),
        ))
        .unwrap();
        let cmd = scripted_worker(format!(
            "echo '{start}' && echo '{{\"case_index\":0}}' && echo '{done}'"
        ));
        let err = run_one_shard(&dir, &range, "0xfeed", cmd, None).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Fingerprint mismatch.
        let cmd = scripted_worker(format!("echo '{start}'"));
        let err = run_one_shard(&dir, &range, "0xother", cmd, None).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Out-of-sequence record.
        let done_ok = serde_json::to_string(&DoneEvent::new(
            0,
            1,
            "fnv1a64:0".into(),
            ring_obs::Snapshot::default(),
        ))
        .unwrap();
        let cmd = scripted_worker(format!(
            "echo '{start}' && echo '{{\"case_index\":5}}' && echo '{done_ok}'"
        ));
        let err = run_one_shard(&dir, &range, "0xfeed", cmd, None).unwrap_err();
        assert!(err.contains("case 0 was expected"), "{err}");

        // Honest records and checksum, but a done event for another shard.
        let mut lines = protocol_lines(&range, 1, "0xfeed");
        let other = ShardRange { shard: 3, ..range };
        *lines.last_mut().unwrap() = protocol_lines(&other, 1, "0xfeed").pop().unwrap();
        let script = lines
            .iter()
            .map(|l| format!("echo '{l}'"))
            .collect::<Vec<_>>()
            .join(" && ");
        let err = run_one_shard(&dir, &range, "0xfeed", scripted_worker(script), None).unwrap_err();
        assert!(err.contains("finished shard 3, expected shard 0"), "{err}");

        assert!(!dir.join(shard_file_name(0)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_runs_only_incomplete_shards() {
        let dir = temp_dir("resume");
        let manifest = Mutex::new(test_manifest(6, 3));
        let options = OrchestratorOptions {
            concurrency: 2,
            retries: 0,
            shard_timeout: None,
        };
        // First pass: shard 1 fails.
        run_pending_shards(&dir, &manifest, &options, &|range| {
            if range.shard == 1 {
                scripted_worker("exit 7".into())
            } else {
                scripted_worker(protocol_script(range, 3, "0xfeed"))
            }
        })
        .unwrap();
        assert!(!manifest.lock().unwrap().is_complete());
        let attempts_before: Vec<u32> = manifest
            .lock()
            .unwrap()
            .shards
            .iter()
            .map(|e| e.attempts)
            .collect();

        // Second pass with a healthy fleet: only shard 1 is launched.
        let outcome = run_pending_shards(&dir, &manifest, &options, &|range| {
            scripted_worker(protocol_script(range, 3, "0xfeed"))
        })
        .unwrap();
        assert_eq!(outcome.completed, vec![1]);
        let manifest = manifest.into_inner().unwrap();
        assert!(manifest.is_complete());
        // Shards 0 and 2 were not re-attempted.
        assert_eq!(manifest.shards[0].attempts, attempts_before[0]);
        assert_eq!(manifest.shards[2].attempts, attempts_before[2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_delays_are_deterministic_and_bounded() {
        for shard in 0..8usize {
            for attempt in 1..=6u32 {
                let delay = backoff_delay(shard, attempt);
                assert_eq!(delay, backoff_delay(shard, attempt));
                let exp = (BACKOFF_BASE_MS << (attempt - 1).min(10)).min(BACKOFF_CAP_MS);
                assert!(delay >= Duration::from_millis(exp));
                assert!(delay <= Duration::from_millis(exp + exp / 2));
            }
        }
        // The jitter desynchronises shards that fail in the same round.
        let distinct: std::collections::BTreeSet<Duration> =
            (0..16).map(|shard| backoff_delay(shard, 3)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn hung_workers_are_killed_at_the_shard_timeout() {
        let dir = temp_dir("hang");
        let range = ShardRange {
            shard: 0,
            start: 0,
            end: 1,
        };
        let start = serde_json::to_string(&StartEvent::new(0, 1, 0, 1, "0xfeed")).unwrap();
        let began = std::time::Instant::now();
        let err = run_one_shard(
            &dir,
            &range,
            "0xfeed",
            scripted_worker(format!("echo '{start}' && exec sleep 60")),
            Some(Duration::from_millis(200)),
        )
        .unwrap_err();
        assert!(err.contains("shard timeout"), "{err}");
        assert!(began.elapsed() < Duration::from_secs(30));
        assert!(!dir.join(shard_file_name(0)).exists());
        assert!(!dir.join(format!("{}.tmp", shard_file_name(0))).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A transport whose attempts replay a canned protocol stream from
    /// memory and take `reap` to be reaped, like a worker process exiting.
    struct CannedTransport {
        stream: Vec<u8>,
        reap: Duration,
    }

    struct CannedAttempt {
        stream: Option<Vec<u8>>,
        reap: Duration,
    }

    impl WorkerTransport for CannedTransport {
        fn launch(&self, _range: &ShardRange) -> Result<Box<dyn ShardAttempt>, String> {
            Ok(Box::new(CannedAttempt {
                stream: Some(self.stream.clone()),
                reap: self.reap,
            }))
        }
    }

    impl ShardAttempt for CannedAttempt {
        fn take_stream(&mut self) -> Box<dyn Read + Send> {
            Box::new(std::io::Cursor::new(
                self.stream.take().expect("stream taken once"),
            ))
        }

        fn abort_handle(&self) -> Box<dyn Fn() + Send> {
            Box::new(|| {})
        }

        fn ends_at_done(&self) -> bool {
            false
        }

        fn finish(self: Box<Self>, _stream_ok: bool) -> Result<(), String> {
            std::thread::sleep(self.reap);
            Ok(())
        }
    }

    #[test]
    fn timed_attempts_end_when_the_worker_is_reaped_not_at_a_watchdog_tick() {
        let dir = temp_dir("reaped");
        let range = ShardRange {
            shard: 0,
            start: 0,
            end: 2,
        };
        // The 5 ms reap lets the watchdog settle into its wait before the
        // attempt ends; the attempt must then end with the reap, long
        // before the 60 s deadline and without rounding up to a polling
        // step.
        let transport = CannedTransport {
            stream: (protocol_lines(&range, 1, "0xfeed").join("\n") + "\n").into_bytes(),
            reap: Duration::from_millis(5),
        };
        let fastest = (0..3)
            .map(|_| {
                let began = Instant::now();
                run_attempt(
                    &dir,
                    &range,
                    "0xfeed",
                    &transport,
                    Some(Duration::from_secs(60)),
                )
                .map_err(|failure| failure.reason)
                .unwrap();
                began.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < Duration::from_millis(20),
            "a 5 ms attempt took {fastest:?} under the watchdog"
        );
        assert!(dir.join(shard_file_name(0)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timed_out_shards_retry_and_can_complete() {
        let dir = temp_dir("hang-retry");
        let manifest = Mutex::new(test_manifest(2, 1));
        let options = OrchestratorOptions {
            concurrency: 1,
            retries: 1,
            shard_timeout: Some(Duration::from_millis(500)),
        };
        // The first attempt hangs past the timeout; the relaunch (after
        // the marker file exists) speaks the full protocol and finishes
        // well inside the budget.
        let marker = dir.join("first-attempt-done");
        let outcome = run_pending_shards(&dir, &manifest, &options, &|range| {
            scripted_worker(format!(
                "if [ ! -f {marker} ]; then touch {marker}; exec sleep 60; else {script}; fi",
                marker = marker.display(),
                script = protocol_script(range, 1, "0xfeed"),
            ))
        })
        .unwrap();
        assert_eq!(outcome.completed, vec![0]);
        assert!(outcome.failed.is_empty());
        let manifest = manifest.into_inner().unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.shards[0].attempts, 2);
        // The kill and the retry backoff are tallied in the manifest.
        assert_eq!(manifest.shards[0].watchdog_kills, 1);
        assert!(manifest.shards[0].backoff_ms > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A full valid protocol stream whose done event carries a metrics
    /// snapshot with `store_misses` misses.
    fn protocol_script_with_misses(range: &ShardRange, store_misses: u64) -> String {
        let mut lines = Vec::new();
        lines.push(
            serde_json::to_string(&StartEvent::new(
                range.shard,
                1,
                range.start,
                range.end,
                "0xfeed",
            ))
            .unwrap(),
        );
        let mut hasher = crate::checksum::Fnv1a64::new();
        for i in range.start..range.end {
            let record = format!("{{\"case_index\":{i},\"n\":7}}");
            hasher.update(record.as_bytes());
            hasher.update(b"\n");
            lines.push(record);
        }
        let registry = ring_obs::Registry::new();
        registry.counter(STORE_MISSES).add(store_misses);
        lines.push(
            serde_json::to_string(&DoneEvent::new(
                range.shard,
                range.len(),
                hasher.format(),
                registry.snapshot(),
            ))
            .unwrap(),
        );
        lines
            .iter()
            .map(|l| format!("echo '{l}'"))
            .collect::<Vec<_>>()
            .join(" && ")
    }

    #[test]
    fn retried_shards_record_only_the_final_attempts_metrics() {
        let dir = temp_dir("final-metrics");
        let manifest = Mutex::new(test_manifest(2, 1));
        let options = OrchestratorOptions {
            concurrency: 1,
            retries: 1,
            shard_timeout: None,
        };
        // Both attempts emit a complete, valid stream and done event; the
        // first exits nonzero *after* its done event — a worker killed at
        // the finish line, the worst case for double counting because its
        // statistics were fully parsed before the attempt failed. Only the
        // retry's numbers may survive.
        let marker = dir.join("first-attempt");
        let outcome = run_pending_shards(&dir, &manifest, &options, &|range| {
            let first = protocol_script_with_misses(range, 5);
            let second = protocol_script_with_misses(range, 1);
            scripted_worker(format!(
                "if [ ! -f {m} ]; then touch {m} && {first} && exit 3; else {second}; fi",
                m = marker.display(),
            ))
        })
        .unwrap();
        assert_eq!(outcome.completed, vec![0]);
        let manifest = manifest.into_inner().unwrap();
        assert_eq!(manifest.shards[0].attempts, 2);
        // The entry's store copy and the snapshot agree: final attempt
        // only, no sum.
        assert_eq!(manifest.shards[0].store_misses, 1);
        let metrics = manifest.shards[0].metrics.as_ref().expect("snapshot");
        assert_eq!(metrics.counter(STORE_MISSES), 1);
        assert_eq!(manifest.aggregate_metrics().counter(STORE_MISSES), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
