//! The `fleet` workload's service: `ringlab serve` plus TCP workers, and
//! the one HTTP client that drives it.
//!
//! [`Fleet`] owns every process it spawns. Dropping it — on any exit path,
//! a panic included — kills and reaps the daemon and the workers and
//! removes the daemon's data directory; [`Fleet::stop`] is the graceful
//! path and reports anything it could not clean up.

use crate::host::vm_hwm_mb;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the fleet may take to come up or to shut down.
const LIFECYCLE_LIMIT: Duration = Duration::from_secs(30);
/// How long one HTTP exchange may stall before it counts as failed.
const IO_LIMIT: Duration = Duration::from_secs(120);

/// A running daemon and its workers.
pub struct Fleet {
    /// The daemon first, then the workers.
    children: Vec<Child>,
    data_dir: PathBuf,
    /// The daemon's bound address (`127.0.0.1:<ephemeral port>`).
    pub addr: String,
}

impl Fleet {
    /// Spawns `ringlab serve` on an ephemeral port with its data under
    /// `data_dir`, reads the port back from the endpoint file, connects
    /// `workers` single-job workers and waits until `GET /v1/workers` lists
    /// all of them idle.
    pub fn start(ringlab: &Path, data_dir: &Path, workers: usize) -> Result<Fleet, String> {
        std::fs::create_dir_all(data_dir)
            .map_err(|e| format!("cannot create {}: {e}", data_dir.display()))?;
        let daemon = spawn_logged(
            Command::new(ringlab)
                .args([
                    "serve",
                    "--listen",
                    "127.0.0.1:0",
                    "--jobs",
                    "1",
                    "--data-dir",
                ])
                .arg(data_dir),
            data_dir,
            "daemon.log",
        )?;
        let mut fleet = Fleet {
            children: vec![daemon],
            data_dir: data_dir.to_path_buf(),
            addr: String::new(),
        };
        let endpoint = data_dir.join("endpoint");
        fleet.addr = fleet.wait_for("the endpoint file", || {
            std::fs::read_to_string(&endpoint)
                .ok()
                .map(|text| text.trim().to_string())
                .filter(|addr| !addr.is_empty())
        })?;
        for k in 0..workers {
            let worker = spawn_logged(
                Command::new(ringlab).args(["worker", "--connect", &fleet.addr]),
                data_dir,
                &format!("worker-{k}.log"),
            )?;
            fleet.children.push(worker);
        }
        let addr = fleet.addr.clone();
        fleet.wait_for("the workers to register", || {
            (idle_workers(&addr).ok()? == workers).then_some(())
        })?;
        Ok(fleet)
    }

    /// Polls `probe` until it yields, failing if a fleet process exits or
    /// the lifecycle limit passes.
    fn wait_for<T>(
        &mut self,
        what: &str,
        mut probe: impl FnMut() -> Option<T>,
    ) -> Result<T, String> {
        let deadline = Instant::now() + LIFECYCLE_LIMIT;
        loop {
            if let Some(value) = probe() {
                return Ok(value);
            }
            for child in &mut self.children {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!(
                        "a ringlab process exited ({status}) while waiting for {what}: {}",
                        log_tail(&self.data_dir)
                    ));
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for {what}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Σ `VmHWM` over the daemon and every worker, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children.iter().map(|c| vm_hwm_mb(Some(c.id()))).sum()
    }

    /// Shuts the fleet down through `POST /v1/shutdown`, reaps every
    /// process and removes the data directory. Returns what could not be
    /// cleaned up — each entry is a hygiene failure of the run.
    pub fn stop(mut self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Err(e) = http(&self.addr, "POST", "/v1/shutdown", "") {
            problems.push(format!("shutdown request failed: {e}"));
        }
        let deadline = Instant::now() + LIFECYCLE_LIMIT;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    _ => {
                        problems.push(format!(
                            "ringlab process {} did not exit; killed",
                            child.id()
                        ));
                        child.kill().ok();
                        child.wait().ok();
                        break;
                    }
                }
            }
        }
        self.children.clear();
        if let Err(e) = std::fs::remove_dir_all(&self.data_dir) {
            problems.push(format!("cannot remove {}: {e}", self.data_dir.display()));
        }
        problems
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            child.kill().ok();
            child.wait().ok();
        }
        std::fs::remove_dir_all(&self.data_dir).ok();
    }
}

fn spawn_logged(command: &mut Command, dir: &Path, log: &str) -> Result<Child, String> {
    let log =
        std::fs::File::create(dir.join(log)).map_err(|e| format!("cannot create {log}: {e}"))?;
    command
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot spawn ringlab: {e}"))
}

/// The last lines of the daemon's log, for error messages.
fn log_tail(dir: &Path) -> String {
    let text = std::fs::read_to_string(dir.join("daemon.log")).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// Number of idle workers `GET /v1/workers` lists.
fn idle_workers(addr: &str) -> Result<usize, String> {
    let body = http(addr, "GET", "/v1/workers", "")?;
    let value = json(&body)?;
    Ok(value
        .get("workers")
        .and_then(serde::Value::as_array)
        .map_or(0, |workers| {
            workers
                .iter()
                .filter(|w| w.get("state").and_then(serde::Value::as_str) == Some("idle"))
                .count()
        }))
}

/// Parses a response body as JSON.
pub fn json(body: &[u8]) -> Result<serde::Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("response is not JSON: {e}"))
}

fn send(addr: &str, method: &str, path: &str, body: &str) -> Result<TcpStream, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_LIMIT)).ok();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: {e}"))?;
    Ok(stream)
}

/// Splits a complete response into its status code and body.
fn split_response(raw: &[u8], what: &str) -> Result<(u16, usize), String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{what}: no response head"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{what}: malformed status line"))?;
    Ok((status, head_end + 4))
}

/// One request on its own connection; the body of a 2xx response.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<Vec<u8>, String> {
    let what = format!("{method} {path}");
    let mut raw = Vec::new();
    send(addr, method, path, body)?
        .read_to_end(&mut raw)
        .map_err(|e| format!("{what}: {e}"))?;
    let (status, body_start) = split_response(&raw, &what)?;
    if !(200..300).contains(&status) {
        return Err(format!(
            "{what}: HTTP {status}: {}",
            String::from_utf8_lossy(&raw[body_start..]).trim()
        ));
    }
    Ok(raw.split_off(body_start))
}

/// A `GET` whose body is streamed until the daemon closes the connection:
/// the body and the instant its first byte arrived.
pub fn stream(addr: &str, path: &str) -> Result<(Vec<u8>, Option<Instant>), String> {
    let what = format!("GET {path}");
    let mut conn = send(addr, "GET", path, "")?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut first_byte = None;
    let mut body_start = None;
    loop {
        let n = conn.read(&mut chunk).map_err(|e| format!("{what}: {e}"))?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
        if body_start.is_none() {
            body_start = raw
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|end| end + 4);
        }
        if first_byte.is_none() && body_start.is_some_and(|start| raw.len() > start) {
            first_byte = Some(Instant::now());
        }
    }
    let (status, body_start) = split_response(&raw, &what)?;
    if status != 200 {
        return Err(format!("{what}: HTTP {status}"));
    }
    Ok((raw.split_off(body_start), first_byte))
}
