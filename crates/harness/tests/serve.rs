//! End-to-end properties of the sweep-as-a-service layer, exercised
//! through the real `ringlab` binary: a daemon dispatching shards to
//! registered TCP workers must produce byte-identical JSONL to the
//! single-process run at every worker and shard count, a worker killed
//! mid-sweep must be masked by the per-shard retry, and a daemon run
//! directory that failed outright must complete under plain `ringlab
//! resume`.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The sweep every test runs: small enough for CI, mixed parities, more
/// cases than the largest shard count under test (6 cases).
const SPEC_FLAGS: &[&str] = &[
    "--sizes",
    "9,8,12",
    "--universe-factors",
    "4",
    "--reps",
    "1",
    "--seed",
    "77",
];

/// The same grid as an HTTP submission body.
const SPEC_BODY: &str =
    r#"{"subcommand":"sweep","sizes":[9,8,12],"universe_factors":[4],"reps":1,"seed":77}"#;

fn ringlab() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ringlab"));
    // Isolate from crash-injection hooks an outer environment might set.
    cmd.env_remove("RING_DISTRIB_FAIL_AFTER")
        .env_remove("RING_DISTRIB_FAIL_ONCE");
    cmd
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ringlab-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the single-process reference sweep into `dir`, returning the JSONL
/// bytes.
fn reference_bytes(dir: &Path) -> Vec<u8> {
    let out = dir.join("single.jsonl");
    let status = ringlab()
        .args(["sweep", "--jobs", "1", "--jsonl"])
        .arg(&out)
        .args(SPEC_FLAGS)
        .stdout(Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(status.success(), "single-process sweep failed");
    let bytes = std::fs::read(&out).unwrap();
    assert!(!bytes.is_empty());
    bytes
}

/// A daemon child plus the address it published; killed on drop so a
/// failing test never leaks the process.
struct DaemonGuard {
    child: Child,
    addr: String,
    data_dir: PathBuf,
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// Starts `ringlab serve` on an ephemeral port and waits for the endpoint
/// file to publish the bound address.
fn start_daemon(dir: &Path, extra: &[&str]) -> DaemonGuard {
    let data_dir = dir.join("daemon");
    let child = ringlab()
        .args(["serve", "--listen", "127.0.0.1:0", "--data-dir"])
        .arg(&data_dir)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ringlab serve");
    // The guard owns the child from here on, so even the panic path below
    // reaps the daemon process.
    let mut daemon = DaemonGuard {
        child,
        addr: String::new(),
        data_dir,
    };
    let endpoint = daemon.data_dir.join("endpoint");
    for _ in 0..100 {
        if let Ok(addr) = std::fs::read_to_string(&endpoint) {
            daemon.addr = addr.trim().to_string();
            return daemon;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("daemon never published {}", endpoint.display());
}

/// Spawns a `ringlab worker --connect` process against the daemon.
fn spawn_worker(addr: &str, env: &[(&str, &Path)]) -> Child {
    let mut cmd = ringlab();
    cmd.args(["worker", "--connect", addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.spawn().expect("spawn ringlab worker")
}

/// One raw HTTP/1.1 request over a fresh connection (the daemon speaks
/// one-request-per-connection), returning status code and body text.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to daemon");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

/// Polls the run's status endpoint until it reports `wanted`.
fn wait_for_status(addr: &str, run: u64, wanted: &str) {
    let needle = format!("\"status\": \"{wanted}\"");
    for _ in 0..1200 {
        let (status, body) = http(addr, "GET", &format!("/v1/runs/{run}"), "");
        assert_eq!(status, 200, "status endpoint failed: {body}");
        // Match only the run's own status: the embedded manifest carries
        // per-shard `"status"` fields of its own.
        let head = body.split("\"manifest\"").next().unwrap_or(&body);
        if head.contains(&needle) {
            return;
        }
        assert!(
            !(wanted != "failed" && head.contains("\"status\": \"failed\"")),
            "run {run} failed while waiting for `{wanted}`: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("run {run} never reached status `{wanted}`");
}

/// Polls `/v1/workers` until `count` workers are registered and idle.
fn wait_for_workers(addr: &str, count: usize) {
    for _ in 0..200 {
        let (_, body) = http(addr, "GET", "/v1/workers", "");
        if body.matches("\"state\": \"idle\"").count() >= count {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("never saw {count} idle workers");
}

/// Submits a run and returns its id (parsed from the `"run": N` field).
fn submit(addr: &str, body: &str) -> u64 {
    let (status, response) = http(addr, "POST", "/v1/runs", body);
    assert_eq!(status, 202, "submission rejected: {response}");
    response
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"run\": "))
        .and_then(|rest| rest.trim_end_matches(',').parse().ok())
        .unwrap_or_else(|| panic!("no run id in response: {response}"))
}

/// Dismisses the daemon and reaps it plus the given workers, asserting
/// everyone exits cleanly.
fn shutdown(mut daemon: DaemonGuard, workers: Vec<Child>) {
    let (status, _) = http(&daemon.addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    for mut worker in workers {
        let status = worker.wait().expect("reap worker");
        assert!(status.success(), "worker exited uncleanly: {status}");
    }
    let status = daemon.child.wait().expect("reap daemon");
    assert!(status.success(), "daemon exited uncleanly: {status}");
}

/// The acceptance property: a daemon-dispatched sweep is byte-identical to
/// the single-process run at 1, 2 and 3 registered workers — streamed
/// results and merged file alike — across shard counts including `M = 7`
/// (empty shards in the plan) and a store-backed run.
#[test]
fn daemon_sweeps_are_byte_identical_at_every_worker_count() {
    let dir = temp_dir("matrix");
    let reference = reference_bytes(&dir);
    let daemon = start_daemon(&dir, &[]);
    let mut workers = Vec::new();

    // Worker counts 1, 2, 3; the submission with no shard count uses one
    // shard per idle worker, the later ones pin explicit shard plans.
    for (round, (body, expected_shards)) in [
        (SPEC_BODY.to_string(), 1),
        (
            format!("{},\"shards\":2}}", SPEC_BODY.trim_end_matches('}')),
            2,
        ),
        (
            format!(
                "{},\"shards\":7,\"structure_store\":true}}",
                SPEC_BODY.trim_end_matches('}')
            ),
            7,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        workers.push(spawn_worker(&daemon.addr, &[]));
        wait_for_workers(&daemon.addr, round + 1);
        let run = submit(&daemon.addr, &body);
        wait_for_status(&daemon.addr, run, "complete");

        let run_dir = daemon.data_dir.join(format!("runs/run-{run:04}"));
        let merged = std::fs::read(run_dir.join("merged.jsonl")).unwrap();
        assert_eq!(
            merged,
            reference,
            "daemon output diverged with {} workers",
            round + 1
        );
        let (status, streamed) = http(&daemon.addr, "GET", &format!("/v1/runs/{run}/results"), "");
        assert_eq!(status, 200);
        assert_eq!(
            streamed.as_bytes(),
            reference,
            "streamed results diverged with {} workers",
            round + 1
        );
        let mut manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.shards.len(), expected_shards);
        assert!(manifest.revalidate_completed(&run_dir).unwrap().is_empty());
    }
    shutdown(daemon, workers);
    std::fs::remove_dir_all(&dir).ok();
}

/// A faulty daemon-dispatched sweep (fault axes in the submitted spec) is
/// byte-identical to the single-process faulty run.
#[test]
fn daemon_dispatched_faulty_sweeps_match_single_process_bytes() {
    let dir = temp_dir("faulty");
    let out = dir.join("faulty-single.jsonl");
    let status = ringlab()
        .args(["faults", "--jobs", "1", "--jsonl"])
        .arg(&out)
        .args(SPEC_FLAGS)
        .args(["--fault-drops", "0,100", "--fault-crashes", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(status.success(), "single-process faulty sweep failed");
    let reference = std::fs::read(&out).unwrap();

    let daemon = start_daemon(&dir, &[]);
    let workers = vec![
        spawn_worker(&daemon.addr, &[]),
        spawn_worker(&daemon.addr, &[]),
    ];
    wait_for_workers(&daemon.addr, 2);
    let body = r#"{"subcommand":"faults","sizes":[9,8,12],"universe_factors":[4],"reps":1,
        "seed":77,"fault_drops":[0,100],"fault_crashes":1,"shards":3}"#;
    let run = submit(&daemon.addr, body);
    wait_for_status(&daemon.addr, run, "complete");
    let merged = std::fs::read(
        daemon
            .data_dir
            .join(format!("runs/run-{run:04}/merged.jsonl")),
    )
    .unwrap();
    assert_eq!(merged, reference, "faulty daemon output diverged");
    shutdown(daemon, workers);
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing a worker mid-sweep (the crash injection exits the whole worker
/// process after one record, mid-protocol-stream) is a retryable shard
/// failure: the surviving worker picks up the retry and the run completes
/// with identical bytes.
#[test]
fn a_worker_killed_mid_sweep_is_masked_by_retry() {
    let dir = temp_dir("kill");
    let reference = reference_bytes(&dir);
    let daemon = start_daemon(&dir, &[]);
    let marker = dir.join("crash-marker");
    // One worker dies on its first job; the clean one carries the run.
    let doomed = spawn_worker(
        &daemon.addr,
        &[("RING_DISTRIB_FAIL_ONCE", marker.as_path())],
    );
    let clean = spawn_worker(&daemon.addr, &[]);
    wait_for_workers(&daemon.addr, 2);

    let body = format!("{},\"shards\":2}}", SPEC_BODY.trim_end_matches('}'));
    let run = submit(&daemon.addr, &body);
    wait_for_status(&daemon.addr, run, "complete");
    assert!(marker.exists(), "the doomed worker never crashed");

    let run_dir = daemon.data_dir.join(format!("runs/run-{run:04}"));
    assert_eq!(
        std::fs::read(run_dir.join("merged.jsonl")).unwrap(),
        reference
    );
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    let attempts: u32 = manifest.shards.iter().map(|s| s.attempts).sum();
    assert_eq!(attempts, 3, "one shard must have been attempted twice");

    // The doomed worker is already dead (exit 3, not a clean dismissal).
    let mut doomed = doomed;
    let status = doomed.wait().expect("reap doomed worker");
    assert!(!status.success());
    shutdown(daemon, vec![clean]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Total worker loss fails the run — and the daemon's run directory is a
/// standard ring-distrib/v1 run directory, so plain `ringlab resume`
/// completes it to the exact reference bytes at the recorded output path.
#[test]
fn failed_daemon_runs_resume_to_identical_bytes() {
    let dir = temp_dir("resume");
    let reference = reference_bytes(&dir);
    // No retries and a short lease timeout: once the only worker dies, the
    // remaining shard's lease times out and the run fails fast.
    let daemon = start_daemon(&dir, &["--retries", "0", "--lease-timeout", "2"]);
    let mut doomed = spawn_worker(&daemon.addr, &[("RING_DISTRIB_FAIL_AFTER", Path::new("1"))]);
    wait_for_workers(&daemon.addr, 1);

    let body = format!("{},\"shards\":2}}", SPEC_BODY.trim_end_matches('}'));
    let run = submit(&daemon.addr, &body);
    wait_for_status(&daemon.addr, run, "failed");
    doomed.wait().expect("reap doomed worker");

    let run_dir = daemon.data_dir.join(format!("runs/run-{run:04}"));
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    assert!(!manifest.is_complete());
    let output = PathBuf::from(&manifest.output);
    assert!(!output.exists(), "a failed run must not publish output");

    // Resume with healthy child-process workers: same bytes, same file.
    let status = ringlab()
        .arg("resume")
        .arg(&run_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run ringlab resume");
    assert!(status.success(), "resume of the daemon run dir failed");
    assert_eq!(std::fs::read(&output).unwrap(), reference);

    shutdown(daemon, Vec::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// Observability through the service path: workers tracing to sidecar
/// files still produce byte-identical merged and streamed results, the
/// daemon exposes a Prometheus `/v1/metrics` endpoint with pool gauges
/// and run counters, and `/v1/runs/<id>/metrics` serves the run's
/// aggregated ring-obs/v1 snapshot with its per-shard attempt ledger.
#[test]
fn traced_workers_stay_byte_identical_and_the_daemon_serves_metrics() {
    let dir = temp_dir("metrics");
    let reference = reference_bytes(&dir);
    let daemon = start_daemon(&dir, &[]);
    let trace_dir = dir.join("traces");
    let workers: Vec<Child> = (0..2)
        .map(|_| {
            let mut cmd = ringlab();
            cmd.args(["worker", "--connect", &daemon.addr, "--trace-dir"])
                .arg(&trace_dir)
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            cmd.spawn().expect("spawn traced ringlab worker")
        })
        .collect();
    wait_for_workers(&daemon.addr, 2);

    let body = format!("{},\"shards\":2}}", SPEC_BODY.trim_end_matches('}'));
    let run = submit(&daemon.addr, &body);
    wait_for_status(&daemon.addr, run, "complete");

    // Tracing never touches the protocol stream or the shard files.
    let run_dir = daemon.data_dir.join(format!("runs/run-{run:04}"));
    assert_eq!(
        std::fs::read(run_dir.join("merged.jsonl")).unwrap(),
        reference,
        "traced workers changed the merged bytes"
    );
    let (status, streamed) = http(&daemon.addr, "GET", &format!("/v1/runs/{run}/results"), "");
    assert_eq!(status, 200);
    assert_eq!(
        streamed.as_bytes(),
        reference,
        "traced workers changed the streamed bytes"
    );
    // Each worker process wrote its own span sidecar.
    let sidecars = std::fs::read_dir(&trace_dir)
        .expect("trace dir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("trace-") && name.ends_with(".jsonl")
        })
        .count();
    assert_eq!(sidecars, 2, "one sidecar per worker process");

    // The daemon-wide scrape: Prometheus text with pool gauges, run
    // counters and the lease-wait histogram.
    let (status, metrics) = http(&daemon.addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE ring_serve_workers_idle gauge",
        "# TYPE ring_serve_workers_registered gauge",
        "ring_serve_runs_submitted 1",
        "# TYPE ring_serve_lease_wait_ns histogram",
        "ring_serve_lease_wait_ns_count",
    ] {
        assert!(metrics.contains(needle), "missing `{needle}`:\n{metrics}");
    }

    // The per-run drill-down: the aggregated worker snapshot plus the
    // shard attempt ledger.
    let (status, body) = http(&daemon.addr, "GET", &format!("/v1/runs/{run}/metrics"), "");
    assert_eq!(status, 200);
    for needle in ["ring-obs/v1", "\"shards\"", "\"attempts\"", "cache_hits"] {
        assert!(body.contains(needle), "missing `{needle}`:\n{body}");
    }

    shutdown(daemon, workers);
    std::fs::remove_dir_all(&dir).ok();
}

/// The service rejects what it cannot run — bad JSON, unknown
/// subcommands, zero-case specs — with a 400 and a reason, and serves its
/// health and worker inventory endpoints.
#[test]
fn daemon_rejects_bad_submissions_and_reports_health() {
    let dir = temp_dir("reject");
    let daemon = start_daemon(&dir, &[]);

    let (status, body) = http(&daemon.addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("ring-serve/v1"), "healthz: {body}");

    let (status, _) = http(&daemon.addr, "POST", "/v1/runs", "not json");
    assert_eq!(status, 400);
    let (status, body) = http(&daemon.addr, "POST", "/v1/runs", r#"{"subcommand":"nope"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("error"), "rejection needs a reason: {body}");
    let (status, _) = http(
        &daemon.addr,
        "POST",
        "/v1/runs",
        r#"{"subcommand":"sweep","shards":0}"#,
    );
    assert_eq!(status, 400);
    // Specs a worker would refuse are refused at submission, with a reason,
    // instead of failing every shard after its retries.
    for body in [
        r#"{"subcommand":"sweep","quick":true,"fault_drops":[100]}"#,
        r#"{"subcommand":"faults","quick":true,"fault_drops":[2000]}"#,
        r#"{"subcommand":"sweep","quick":true,"structure_seeds":65}"#,
        r#"{"subcommand":"scaling","quick":true,"reps":2}"#,
    ] {
        let (status, reply) = http(&daemon.addr, "POST", "/v1/runs", body);
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(reply.contains("error"), "rejection needs a reason: {reply}");
    }
    let (status, _) = http(&daemon.addr, "GET", "/v1/runs/99", "");
    assert_eq!(status, 404);

    let (status, body) = http(&daemon.addr, "GET", "/v1/workers", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"registered\": 0"), "workers: {body}");

    shutdown(daemon, Vec::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed input on the accept thread must cost one connection, never
/// the daemon: an overflowing `Content-Length` gets a 400, a newline-free
/// worker hello past the head cap is dropped well before the idle limit,
/// and the daemon keeps answering afterwards.
#[test]
fn daemon_survives_oversized_requests_and_hellos() {
    let dir = temp_dir("bounds");
    let daemon = start_daemon(&dir, &[]);

    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect to daemon");
    write!(
        stream,
        "POST /v1/runs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        usize::MAX
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).ok();
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "overflowing Content-Length: {response:?}"
    );

    let mut hello = std::net::TcpStream::connect(&daemon.addr).expect("connect to daemon");
    hello
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The daemon may hang up mid-write once the cap is passed.
    let mut frame = b"{\"event\":\"hello\",\"worker\":\"".to_vec();
    frame.resize(100 * 1024, b'x');
    hello.write_all(&frame).ok();
    let closed = match hello.read(&mut [0u8; 16]) {
        Ok(_) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    assert!(closed, "an oversized hello must be dropped promptly");

    let (status, body) = http(&daemon.addr, "GET", "/v1/workers", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"registered\": 0"), "workers: {body}");

    shutdown(daemon, Vec::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// How long a result subscriber may wait on one read before the test
/// counts it as hung.
const SUBSCRIBER_LIMIT: Duration = Duration::from_secs(60);

/// Opens `GET /v1/runs/<run>/results` and returns the connection once the
/// daemon has sent the response head, so the subscriber is known to be
/// attached before the caller goes on.
fn attach(addr: &str, run: u64) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to daemon");
    stream.set_read_timeout(Some(SUBSCRIBER_LIMIT)).unwrap();
    write!(
        stream,
        "GET /v1/runs/{run}/results HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("result stream head");
        head.push(byte[0]);
    }
    assert!(
        head.starts_with(b"HTTP/1.1 200"),
        "subscription refused: {}",
        String::from_utf8_lossy(&head)
    );
    stream
}

/// Reads an attached subscription to EOF; a stream that stalls for
/// [`SUBSCRIBER_LIMIT`] fails the test instead of hanging it.
fn drain(mut stream: std::net::TcpStream) -> Vec<u8> {
    let mut body = Vec::new();
    stream
        .read_to_end(&mut body)
        .expect("the subscriber was never released");
    body
}

/// Waits for the daemon process to exit, failing past `limit`.
fn wait_for_exit(daemon: &mut DaemonGuard, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = daemon.child.try_wait().expect("poll daemon") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "the daemon did not exit within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A subscriber attached right after submission follows the run as its
/// shards land, including a retry that lands only after a backoff of at
/// least 100 ms, and ends with bytes identical to the single-process run.
#[test]
fn a_subscriber_attached_at_submission_follows_a_retried_run_to_the_end() {
    let dir = temp_dir("live");
    let reference = reference_bytes(&dir);
    let daemon = start_daemon(&dir, &[]);
    let marker = dir.join("crash-marker");
    let mut doomed = spawn_worker(
        &daemon.addr,
        &[("RING_DISTRIB_FAIL_ONCE", marker.as_path())],
    );
    let clean = spawn_worker(&daemon.addr, &[]);
    wait_for_workers(&daemon.addr, 2);

    let body = format!("{},\"shards\":2}}", SPEC_BODY.trim_end_matches('}'));
    let run = submit(&daemon.addr, &body);
    let streamed = drain(attach(&daemon.addr, run));
    assert_eq!(streamed, reference, "the live stream diverged");
    assert!(marker.exists(), "the doomed worker never crashed");

    wait_for_status(&daemon.addr, run, "complete");
    let manifest =
        ring_distrib::Manifest::load(&daemon.data_dir.join(format!("runs/run-{run:04}"))).unwrap();
    let attempts: u32 = manifest.shards.iter().map(|s| s.attempts).sum();
    assert_eq!(attempts, 3, "one shard must have been attempted twice");
    let backoff_ms: u64 = manifest.shards.iter().map(|s| s.backoff_ms).sum();
    assert!(backoff_ms >= 100, "the retry waited only {backoff_ms} ms");

    assert!(!doomed.wait().expect("reap doomed worker").success());
    shutdown(daemon, vec![clean]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A subscriber to a run that fails (no worker ever registers, so its only
/// shard's lease times out) gets EOF with an empty body, not a hang.
#[test]
fn a_subscriber_to_a_failing_run_gets_eof() {
    let dir = temp_dir("fail-eof");
    let daemon = start_daemon(&dir, &["--retries", "0", "--lease-timeout", "1"]);
    let body = format!("{},\"shards\":1}}", SPEC_BODY.trim_end_matches('}'));
    let run = submit(&daemon.addr, &body);
    let streamed = drain(attach(&daemon.addr, run));
    assert!(
        streamed.is_empty(),
        "a failed run streamed {} bytes",
        streamed.len()
    );
    wait_for_status(&daemon.addr, run, "failed");
    shutdown(daemon, Vec::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// A subscriber to a run still queued behind another is released by
/// `POST /v1/shutdown` itself, while the daemon is still draining its
/// in-flight run, not by the daemon's exit closing the socket.
#[test]
fn shutdown_releases_a_subscriber_to_a_queued_run() {
    let dir = temp_dir("queued");
    let mut daemon = start_daemon(&dir, &["--retries", "0"]);
    // A stub worker that registers and then never answers its job: the
    // first run holds the scheduler (and the drain) until the stub hangs
    // up, so the second run stays queued.
    let mut stub = std::net::TcpStream::connect(&daemon.addr).expect("connect to daemon");
    stub.write_all(b"{\"event\":\"hello\",\"schema\":\"ring-serve/v1\",\"worker\":\"stub\"}\n")
        .unwrap();
    wait_for_workers(&daemon.addr, 1);
    let body = format!("{},\"shards\":1}}", SPEC_BODY.trim_end_matches('}'));
    let first = submit(&daemon.addr, &body);
    wait_for_status(&daemon.addr, first, "running");
    let second = submit(&daemon.addr, &body);
    wait_for_status(&daemon.addr, second, "queued");
    let subscriber = attach(&daemon.addr, second);

    let (status, _) = http(&daemon.addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(drain(subscriber).is_empty());
    assert!(
        daemon.child.try_wait().expect("poll daemon").is_none(),
        "the daemon exited before releasing the subscriber"
    );

    // Hanging up fails the in-flight shard; the drain ends and the daemon
    // exits cleanly.
    drop(stub);
    let status = wait_for_exit(&mut daemon, Duration::from_secs(30));
    assert!(status.success(), "daemon exited uncleanly: {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An idle client holding an unfinished request open delays neither a
/// concurrent request nor shutdown: both finish well inside the daemon's
/// 10 s idle limit, which is what a daemon serving connections one at a
/// time would make them wait.
#[test]
fn an_idle_connection_delays_neither_requests_nor_shutdown() {
    let dir = temp_dir("idle");
    let mut daemon = start_daemon(&dir, &[]);
    let mut idle = std::net::TcpStream::connect(&daemon.addr).expect("connect to daemon");
    write!(
        idle,
        "GET /v1/healthz HTTP/1.1\r\nHost: {}\r\n",
        daemon.addr
    )
    .unwrap();

    let began = Instant::now();
    let (status, body) = http(&daemon.addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("ring-serve/v1"), "healthz: {body}");
    assert!(
        began.elapsed() < Duration::from_secs(5),
        "healthz waited {:?} behind an idle client",
        began.elapsed()
    );

    let (status, _) = http(&daemon.addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    let status = wait_for_exit(&mut daemon, Duration::from_secs(5));
    assert!(status.success(), "daemon exited uncleanly: {status}");
    drop(idle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Accepts one connection within `limit` and reads its first line.
fn accept_line(
    listener: &std::net::TcpListener,
    limit: Duration,
) -> Option<(std::net::TcpStream, String)> {
    use std::io::BufRead;

    listener.set_nonblocking(true).unwrap();
    let began = Instant::now();
    while began.elapsed() < limit {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).unwrap();
                stream.set_read_timeout(Some(limit)).unwrap();
                let mut line = String::new();
                std::io::BufReader::new(stream.try_clone().unwrap())
                    .read_line(&mut line)
                    .ok()?;
                return Some((stream, line));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("accept failed: {e}"),
        }
    }
    None
}

/// A peer at `--connect ADDR` that answers the hello with a newline-free
/// frame twice the worker-protocol line cap costs the worker only that
/// connection: it drops it and registers again, instead of buffering the
/// stream without bound.
#[test]
fn a_worker_drops_a_frame_over_the_line_cap_and_registers_again() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a fake daemon");
    let addr = listener.local_addr().unwrap().to_string();
    let mut worker = spawn_worker(&addr, &[]);
    let limit = Duration::from_secs(15);

    let (mut first, hello) = accept_line(&listener, limit).expect("the worker registers");
    first.set_write_timeout(Some(limit)).unwrap();
    // The worker may hang up mid-write once the cap is passed; the first
    // connection stays open, so only the cap can end it.
    first.write_all(&vec![b'x'; 2 << 20]).ok();
    let again = accept_line(&listener, limit);
    worker.kill().ok();
    worker.wait().ok();
    drop(first);

    assert!(hello.contains("\"hello\""), "first frame: {hello:?}");
    let (_, hello) = again.expect("the worker registers again after an over-long frame");
    assert!(hello.contains("\"hello\""), "second frame: {hello:?}");
}
