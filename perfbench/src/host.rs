//! Where the numbers came from: the box, the toolchain, the source.

use serde::Value;
use std::process::{Command, Stdio};

/// Provenance recorded with every result.
pub struct Host {
    /// CPUs this process may run on (`nproc`: the scheduler affinity mask).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (affinity and cgroup quota).
    pub available_parallelism: usize,
    /// Compile-target architecture.
    pub arch: &'static str,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `git rev-parse HEAD`, when the checkout is a git repository.
    pub git_commit: String,
    /// `rustc --version`.
    pub rustc: String,
}

/// The first line a command prints, if it runs and succeeds.
fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(|line| line.trim().to_string())
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn nproc() -> usize {
    first_line_of("nproc", &[])
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(available_parallelism)
}

/// The compute threads every configuration uses: no more than `nproc`
/// and `available_parallelism` allow.
pub fn thread_ceiling() -> usize {
    nproc().min(available_parallelism()).max(1)
}

impl Host {
    /// Detects the host.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: nproc(),
            available_parallelism: available_parallelism(),
            arch: std::env::consts::ARCH,
            cpu_model,
            git_commit: first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The provenance block, with the jobs and workers actually used.
    pub fn to_json(&self, jobs: usize, workers: usize) -> Value {
        Value::Object(vec![
            ("nproc".into(), Value::Uint(self.nproc as u64)),
            (
                "available_parallelism".into(),
                Value::Uint(self.available_parallelism as u64),
            ),
            ("arch".into(), Value::Str(self.arch.into())),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("git_commit".into(), Value::Str(self.git_commit.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("jobs".into(), Value::Uint(jobs as u64)),
            ("workers".into(), Value::Uint(workers as u64)),
        ])
    }
}

/// `VmHWM` (peak resident set) of a process — this one for `None` — in MB
/// (2²⁰ bytes); 0 when unreadable.
pub fn vm_hwm_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        None => "/proc/self/status".to_string(),
        Some(pid) => format!("/proc/{pid}/status"),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
