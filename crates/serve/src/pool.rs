//! The registered-worker pool and the TCP shard transport.
//!
//! Remote workers (`ringlab worker --connect ADDR`) dial the daemon, send
//! one `ring-serve/v1` hello frame and then wait for job frames. The pool
//! holds each registered connection while the worker is idle; the
//! orchestrator — unchanged from the child-process path — drives shards
//! through [`TcpWorkerTransport`], which leases a connection per attempt,
//! sends the job frame (the exact `ringlab worker …` argv the
//! child-process dispatcher would have spawned) and hands the socket to
//! the orchestrator as the attempt's protocol stream. The worker answers
//! with verbatim `ring-distrib/v1` lines, so stream validation, checksums,
//! retries and the watchdog all work exactly as they do over stdio: a
//! worker disconnect is a broken stream, which is a retryable shard
//! failure.

use crate::recover;
use ring_distrib::{ShardAttempt, ShardRange, WorkerTransport};
use serde::Value;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One registered worker connection, held by the pool while idle.
pub struct WorkerConn {
    /// The name the worker announced in its hello frame.
    pub name: String,
    /// The registered connection, in blocking mode.
    pub stream: TcpStream,
}

#[derive(Default)]
struct PoolState {
    idle: Vec<WorkerConn>,
    busy: Vec<String>,
    registered: u64,
    shutting_down: bool,
}

impl PoolState {
    /// Publishes the pool's occupancy to the metrics registry after every
    /// state change: currently connected (idle + leased), leased and idle
    /// worker counts — the `/v1/metrics` worker-pool gauges.
    fn publish_gauges(&self) {
        let obs = ring_obs::global();
        obs.gauge("serve_workers_idle").set(self.idle.len() as i64);
        obs.gauge("serve_workers_leased")
            .set(self.busy.len() as i64);
        obs.gauge("serve_workers_registered")
            .set((self.idle.len() + self.busy.len()) as i64);
    }
}

/// The set of registered remote workers.
///
/// `register` adds a connection (the daemon's accept loop, after the hello
/// frame); `lease` blocks until an idle connection is available and moves
/// it to busy; a leased connection either comes back via `give_back`
/// (clean shard) or is dropped via `discard` (failed attempt — the worker
/// reconnects and re-registers on its own).
#[derive(Default)]
pub struct WorkerPool {
    state: Mutex<PoolState>,
    available: Condvar,
}

impl WorkerPool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkerPool::default()
    }

    /// Adds a registered worker connection to the idle set.
    pub fn register(&self, name: String, stream: TcpStream) {
        let mut state = recover(self.state.lock());
        state.registered += 1;
        state.idle.push(WorkerConn { name, stream });
        state.publish_gauges();
        drop(state);
        self.available.notify_one();
    }

    /// Leases an idle worker, waiting up to `timeout` for one to appear.
    /// Returns `None` on timeout (or pool shutdown).
    pub fn lease(&self, timeout: Duration) -> Option<WorkerConn> {
        let wait_started = Instant::now();
        let deadline = wait_started + timeout;
        let mut state = recover(self.state.lock());
        loop {
            if let Some(conn) = state.idle.pop() {
                state.busy.push(conn.name.clone());
                state.publish_gauges();
                ring_obs::global()
                    .histogram("serve_lease_wait_ns")
                    .record_duration(wait_started.elapsed());
                return Some(conn);
            }
            if state.shutting_down {
                return None;
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (next, wait) = recover(self.available.wait_timeout(state, left));
            state = next;
            if wait.timed_out() && state.idle.is_empty() {
                return None;
            }
        }
    }

    /// Returns a leased connection to the idle set.
    pub fn give_back(&self, conn: WorkerConn) {
        let mut state = recover(self.state.lock());
        if let Some(at) = state.busy.iter().position(|n| n == &conn.name) {
            state.busy.swap_remove(at);
        }
        if state.shutting_down {
            // The pool is draining: dismiss the worker instead of parking
            // the connection.
            state.publish_gauges();
            send_frame(&conn.stream, &shutdown_frame()).ok();
            conn.stream.shutdown(Shutdown::Both).ok();
            return;
        }
        state.idle.push(conn);
        state.publish_gauges();
        drop(state);
        self.available.notify_one();
    }

    /// Drops a leased connection after a failed attempt (the caller has
    /// already closed or poisoned the socket).
    pub fn discard(&self, name: &str) {
        let mut state = recover(self.state.lock());
        if let Some(at) = state.busy.iter().position(|n| n == name) {
            state.busy.swap_remove(at);
        }
        state.publish_gauges();
    }

    /// Number of currently idle workers.
    pub fn idle_count(&self) -> usize {
        recover(self.state.lock()).idle.len()
    }

    /// The `GET /v1/workers` view: idle and busy workers by name, plus the
    /// lifetime registration count.
    pub fn snapshot(&self) -> Value {
        let state = recover(self.state.lock());
        let entry = |name: &str, worker_state: &str| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(name.to_string())),
                ("state".to_string(), Value::Str(worker_state.to_string())),
            ])
        };
        let mut workers: Vec<Value> = state.idle.iter().map(|c| entry(&c.name, "idle")).collect();
        workers.extend(state.busy.iter().map(|n| entry(n, "busy")));
        Value::Object(vec![
            ("workers".to_string(), Value::Array(workers)),
            ("registered".to_string(), Value::Uint(state.registered)),
        ])
    }

    /// Drains the pool: every idle worker receives a shutdown frame (so
    /// `ringlab worker --connect` exits cleanly), later `give_back`s
    /// dismiss their worker the same way, and pending `lease` calls
    /// return `None`.
    pub fn shutdown(&self) {
        let mut state = recover(self.state.lock());
        state.shutting_down = true;
        for conn in state.idle.drain(..) {
            send_frame(&conn.stream, &shutdown_frame()).ok();
            conn.stream.shutdown(Shutdown::Both).ok();
        }
        state.publish_gauges();
        drop(state);
        self.available.notify_all();
    }
}

/// Builds the daemon→worker job frame carrying a `ringlab` argv.
pub fn job_frame(argv: &[String]) -> Value {
    Value::Object(vec![
        ("event".to_string(), Value::Str("job".to_string())),
        (
            "argv".to_string(),
            Value::Array(argv.iter().map(|a| Value::Str(a.clone())).collect()),
        ),
    ])
}

/// Builds the daemon→worker shutdown frame.
pub fn shutdown_frame() -> Value {
    Value::Object(vec![(
        "event".to_string(),
        Value::Str("shutdown".to_string()),
    )])
}

/// Writes one newline-terminated JSON frame to a worker connection.
///
/// # Errors
///
/// Propagates socket errors (a vanished worker).
pub fn send_frame(mut stream: &TcpStream, frame: &Value) -> std::io::Result<()> {
    let line = serde_json::to_string(frame).expect("serializable frame") + "\n";
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Builds the `ringlab` argv a worker executes for a shard range (see
/// [`ring_distrib::SpecParams::worker_args`]).
pub type ArgvFor = Box<dyn Fn(&ShardRange) -> Vec<String> + Send + Sync>;

/// The orchestrator transport over the worker pool: one leased connection
/// per shard attempt.
pub struct TcpWorkerTransport {
    pool: Arc<WorkerPool>,
    argv_for: ArgvFor,
    lease_timeout: Duration,
}

impl TcpWorkerTransport {
    /// A transport leasing workers from `pool`; `argv_for` builds the
    /// `ringlab` argv a worker executes for a shard range.
    pub fn new(pool: Arc<WorkerPool>, argv_for: ArgvFor, lease_timeout: Duration) -> Self {
        TcpWorkerTransport {
            pool,
            argv_for,
            lease_timeout,
        }
    }
}

impl WorkerTransport for TcpWorkerTransport {
    fn launch(&self, range: &ShardRange) -> Result<Box<dyn ShardAttempt>, String> {
        let conn = self.pool.lease(self.lease_timeout).ok_or(
            "no idle worker became available within the lease timeout \
             (is a `ringlab worker --connect` fleet registered?)",
        )?;
        let argv = (self.argv_for)(range);
        if let Err(e) = send_frame(&conn.stream, &job_frame(&argv)) {
            // A dead parked connection: drop it and report a retryable
            // launch failure; the retry will lease a live worker.
            self.pool.discard(&conn.name);
            conn.stream.shutdown(Shutdown::Both).ok();
            return Err(format!(
                "worker `{}` rejected the job frame: {e}",
                conn.name
            ));
        }
        Ok(Box::new(TcpAttempt {
            pool: Arc::clone(&self.pool),
            conn: Some(conn),
        }))
    }
}

/// One in-flight TCP shard attempt: the stream is the leased socket,
/// aborting shuts the socket down (the worker notices and reconnects),
/// reaping returns a healthy connection to the pool.
struct TcpAttempt {
    pool: Arc<WorkerPool>,
    conn: Option<WorkerConn>,
}

impl ShardAttempt for TcpAttempt {
    fn take_stream(&mut self) -> Box<dyn std::io::Read + Send> {
        let stream = &self.conn.as_ref().expect("leased connection").stream;
        Box::new(stream.try_clone().expect("cloneable worker socket"))
    }

    fn abort_handle(&self) -> Box<dyn Fn() + Send> {
        let stream = self
            .conn
            .as_ref()
            .expect("leased connection")
            .stream
            .try_clone()
            .expect("cloneable worker socket");
        Box::new(move || {
            // Shutting down unblocks the stream reader; the worker sees a
            // dead daemon socket, abandons the job and reconnects.
            stream.shutdown(Shutdown::Both).ok();
        })
    }

    fn ends_at_done(&self) -> bool {
        true
    }

    fn finish(mut self: Box<Self>, stream_ok: bool) -> Result<(), String> {
        let conn = self.conn.take().expect("leased connection");
        if stream_ok {
            self.pool.give_back(conn);
            Ok(())
        } else {
            // The stream broke (or was aborted): the connection's framing
            // state is unknown, so it cannot be reused.
            conn.stream.shutdown(Shutdown::Both).ok();
            self.pool.discard(&conn.name);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn lease_and_give_back_cycle_a_worker() {
        let pool = WorkerPool::new();
        let (_held, server) = loopback_pair();
        pool.register("w0".into(), server);
        assert_eq!(pool.idle_count(), 1);

        let conn = pool.lease(Duration::from_millis(100)).unwrap();
        assert_eq!(conn.name, "w0");
        assert_eq!(pool.idle_count(), 0);
        // Nothing idle: a second lease times out.
        assert!(pool.lease(Duration::from_millis(50)).is_none());

        pool.give_back(conn);
        assert_eq!(pool.idle_count(), 1);
        assert!(pool.lease(Duration::from_millis(50)).is_some());
    }

    #[test]
    fn lease_wakes_up_when_a_worker_registers() {
        let pool = Arc::new(WorkerPool::new());
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.lease(Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(50));
        let (_held, server) = loopback_pair();
        pool.register("late".into(), server);
        let conn = waiter.join().unwrap().unwrap();
        assert_eq!(conn.name, "late");
    }

    #[test]
    fn shutdown_sends_the_dismissal_frame() {
        use std::io::{BufRead, BufReader};
        let pool = WorkerPool::new();
        let (client, server) = loopback_pair();
        pool.register("w0".into(), server);
        pool.shutdown();
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).unwrap();
        let frame = serde_json::from_str(&line).unwrap();
        assert_eq!(
            frame.get("event").and_then(|v| v.as_str()),
            Some("shutdown")
        );
        // Draining pools refuse further leases instead of blocking.
        assert!(pool.lease(Duration::from_secs(5)).is_none());
    }

    /// A thread that panics while holding the pool lock poisons it; every
    /// later pool call must still work instead of panicking in turn.
    #[test]
    fn a_panic_under_the_pool_lock_does_not_wedge_the_pool() {
        let pool = Arc::new(WorkerPool::new());
        let (_held, server) = loopback_pair();
        pool.register("w0".into(), server);
        let crashed = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let _state = pool.state.lock().unwrap();
                panic!("a handler bug while holding the pool lock");
            })
            .join()
        };
        assert!(crashed.is_err());
        assert!(pool.state.is_poisoned());

        let conn = pool.lease(Duration::from_millis(100)).unwrap();
        assert_eq!(conn.name, "w0");
        assert!(pool.lease(Duration::from_millis(20)).is_none());
        pool.give_back(conn);
        assert_eq!(pool.idle_count(), 1);
        let conn = pool.lease(Duration::from_millis(100)).unwrap();
        pool.discard(&conn.name);
        assert_eq!(pool.idle_count(), 0);
        assert_eq!(
            pool.snapshot().get("registered").and_then(|v| v.as_u64()),
            Some(1)
        );
        pool.shutdown();
        assert!(pool.lease(Duration::from_secs(5)).is_none());
    }

    #[test]
    fn frames_have_the_documented_shape() {
        let job = job_frame(&["worker".into(), "sweep".into()]);
        let text = serde_json::to_string(&job).unwrap();
        assert_eq!(text, "{\"event\":\"job\",\"argv\":[\"worker\",\"sweep\"]}");
        assert_eq!(
            serde_json::to_string(&shutdown_frame()).unwrap(),
            "{\"event\":\"shutdown\"}"
        );
    }
}
