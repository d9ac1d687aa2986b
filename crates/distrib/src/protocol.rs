//! The worker stdio protocol (`schema: ring-distrib/v1`).
//!
//! A worker process speaks line-delimited JSON on stdout, in exactly this
//! order:
//!
//! 1. one **start event** — `{"event":"start","schema":"ring-distrib/v1",
//!    "shard":i,"shards":M,"start":a,"end":b,"spec_fingerprint":"0x…"}` —
//!    which lets the orchestrator reject a worker that resolved a different
//!    case enumeration (version skew, mismatched flags);
//! 2. one **record line per case**, in ascending global `case_index` order,
//!    byte-identical to the line a single-process sweep would stream for
//!    that case (record lines are distinguished from events by their
//!    `{"case_index":` prefix; they never carry an `event` key);
//! 3. one **done event** — `{"event":"done","shard":i,"records":k,
//!    "checksum":"fnv1a64:…","metrics":{…}}` — whose checksum covers the
//!    record bytes (each line plus its newline) and whose `metrics` is the
//!    attempt's `ring-obs/v1` snapshot, the only carrier of the worker's
//!    counters: the structure-cache and structure-store counters sit in it
//!    under [`CACHE_HITS`], [`CACHE_MISSES`], [`STORE_HITS`] and
//!    [`STORE_MISSES`] (the store pair is 0 when the worker ran without a
//!    store). Every field of both events is required.
//!
//! Anything else — a nonzero exit, a truncated stream, an out-of-sequence
//! record, a checksum mismatch — marks the shard failed and eligible for
//! retry. Human diagnostics go to stderr, which the orchestrator passes
//! through.

use crate::checksum::Fnv1a64;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;

/// The protocol schema identifier.
pub const SCHEMA: &str = "ring-distrib/v1";

/// The first line a worker emits.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StartEvent {
    /// Always `"start"`.
    pub event: String,
    /// Always [`SCHEMA`].
    pub schema: String,
    /// The shard this worker runs.
    pub shard: usize,
    /// Total shard count of the plan.
    pub shards: usize,
    /// First global case index of the shard (inclusive).
    pub start: usize,
    /// One past the last global case index (exclusive).
    pub end: usize,
    /// Fingerprint of the resolved spec (hex, `0x…`).
    pub spec_fingerprint: String,
}

impl StartEvent {
    /// Builds the event for one shard assignment.
    pub fn new(shard: usize, shards: usize, start: usize, end: usize, fingerprint: &str) -> Self {
        StartEvent {
            event: "start".into(),
            schema: SCHEMA.into(),
            shard,
            shards,
            start,
            end,
            spec_fingerprint: fingerprint.to_string(),
        }
    }
}

/// Snapshot counter: structure-cache hits of the worker's engine.
pub const CACHE_HITS: &str = "cache_hits";
/// Snapshot counter: structure-cache misses of the worker's engine.
pub const CACHE_MISSES: &str = "cache_misses";
/// Snapshot counter: on-disk structure-store loads that succeeded.
pub const STORE_HITS: &str = "store_hits";
/// Snapshot counter: on-disk structure-store lookups that fell through to
/// construction.
pub const STORE_MISSES: &str = "store_misses";

/// The last line a worker emits.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoneEvent {
    /// Always `"done"`.
    pub event: String,
    /// The shard this worker ran.
    pub shard: usize,
    /// Number of record lines emitted.
    pub records: usize,
    /// Checksum over the emitted record bytes (`fnv1a64:…`).
    pub checksum: String,
    /// Full `ring-obs/v1` metrics snapshot for exactly this shard attempt
    /// (a delta against the worker process's registry, so a long-lived TCP
    /// worker reports one job's metrics, not its lifetime totals), with
    /// the engine's cache and store counters under their names above.
    pub metrics: ring_obs::Snapshot,
}

impl DoneEvent {
    /// Builds the event from the worker's end-of-shard accounting.
    pub fn new(
        shard: usize,
        records: usize,
        checksum: String,
        metrics: ring_obs::Snapshot,
    ) -> Self {
        DoneEvent {
            event: "done".into(),
            shard,
            records,
            checksum,
            metrics,
        }
    }
}

/// One parsed line of a worker's stdout.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerLine<'a> {
    /// The start event.
    Start(StartEvent),
    /// The done event.
    Done(DoneEvent),
    /// A case record, passed through verbatim.
    Record {
        /// The record's global case index.
        case_index: usize,
        /// The raw record line (no trailing newline).
        line: &'a str,
    },
}

/// Classifies and parses one stdout line.
///
/// # Errors
///
/// Returns a description of malformed lines (unknown events, records
/// without a parseable `case_index`).
pub fn parse_worker_line(line: &str) -> Result<WorkerLine<'_>, String> {
    if line.starts_with("{\"event\":") {
        let value = serde_json::from_str(line).map_err(|e| format!("malformed event line: {e}"))?;
        return match value.get("event").and_then(Value::as_str) {
            Some("start") => {
                let schema = value.get("schema").and_then(Value::as_str).unwrap_or("");
                if schema != SCHEMA {
                    return Err(format!(
                        "worker speaks schema `{schema}`, expected `{SCHEMA}`"
                    ));
                }
                StartEvent::from_json(&value).map(WorkerLine::Start)
            }
            Some("done") => DoneEvent::from_json(&value).map(WorkerLine::Done),
            Some(other) => Err(format!("unknown worker event `{other}`")),
            None => Err("event line without an `event` string".into()),
        };
    }
    Ok(WorkerLine::Record {
        case_index: extract_case_index(line)?,
        line,
    })
}

/// Extracts the global case index from a record line. Record lines always
/// serialize `case_index` first, so the fast path is a prefix scan that
/// takes the digits only when a `,` or `}` ends them; anything else falls
/// back to a full JSON parse (which also reads records produced by a
/// different serializer).
pub fn extract_case_index(line: &str) -> Result<usize, String> {
    const PREFIX: &str = "{\"case_index\":";
    if let Some(rest) = line.strip_prefix(PREFIX) {
        let len = rest.bytes().take_while(u8::is_ascii_digit).count();
        if len > 0 && matches!(rest.as_bytes().get(len), Some(b',' | b'}')) {
            let digits = &rest[..len];
            return digits
                .parse()
                .map_err(|_| format!("case index out of range in record: {digits}"));
        }
    }
    let value = serde_json::from_str(line)
        .map_err(|e| format!("line is neither an event nor a JSON record: {e}"))?;
    value
        .get("case_index")
        .and_then(Value::as_u64)
        .map(|i| i as usize)
        .ok_or_else(|| "record line without an integer `case_index`".to_string())
}

/// A [`Write`] adapter a worker wraps around stdout to account for the
/// record stream while it is produced: bytes pass through unchanged while
/// the adapter counts newline-terminated lines and folds every byte into
/// the shard checksum (the one the done event reports).
///
/// For crash testing, `fail_after_lines` makes the process exit with status
/// 3 once that many complete lines have been written — simulating a worker
/// killed mid-shard with a deterministic cut point (see
/// [`fail_after_from_env`]).
pub struct ShardTally<W: Write> {
    inner: W,
    lines: u64,
    hasher: Fnv1a64,
    fail_after_lines: Option<u64>,
}

impl<W: Write> ShardTally<W> {
    /// Wraps a writer.
    pub fn new(inner: W, fail_after_lines: Option<u64>) -> Self {
        ShardTally {
            inner,
            lines: 0,
            hasher: Fnv1a64::new(),
            fail_after_lines,
        }
    }

    /// Complete lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Checksum over every byte written so far, in manifest form.
    pub fn checksum(&self) -> String {
        self.hasher.format()
    }
}

impl<W: Write> Write for ShardTally<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        self.lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
        if let Some(limit) = self.fail_after_lines {
            if self.lines >= limit {
                // Simulated mid-shard death: flush what a killed process
                // would plausibly have gotten out, then die without a done
                // event.
                self.inner.flush().ok();
                eprintln!("worker: injected failure after {limit} record lines");
                std::process::exit(3);
            }
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Reads the crash-injection hooks the integration tests use:
///
/// * `RING_DISTRIB_FAIL_AFTER=k` — every worker dies after `k` record
///   lines (exercises failure reporting: the shard ends up `failed`);
/// * `RING_DISTRIB_FAIL_ONCE=path` — the first worker to observe the hook
///   creates `path` and dies after one record line; later workers (the
///   retry) run normally (exercises per-shard retry).
///
/// Returns the `fail_after_lines` value for [`ShardTally`].
pub fn fail_after_from_env() -> Option<u64> {
    if let Ok(text) = std::env::var("RING_DISTRIB_FAIL_AFTER") {
        return text.parse().ok();
    }
    if let Ok(marker) = std::env::var("RING_DISTRIB_FAIL_ONCE") {
        let path = std::path::Path::new(&marker);
        if !path.exists() {
            // Racing workers may both pass the `exists` check; `create_new`
            // makes exactly one of them the designated casualty.
            if std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
                .is_ok()
            {
                return Some(1);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_their_lines() {
        let start = StartEvent::new(1, 4, 10, 20, "0xabc");
        let line = serde_json::to_string(&start).unwrap();
        assert_eq!(parse_worker_line(&line).unwrap(), WorkerLine::Start(start));

        // The worker's counters and histograms roundtrip in the snapshot.
        let registry = ring_obs::Registry::new();
        registry.counter(CACHE_HITS).add(5);
        registry.counter(CACHE_MISSES).add(2);
        registry.counter(STORE_HITS).add(4);
        registry.counter(STORE_MISSES).add(3);
        registry.histogram("case_execute_ns").record(1234);
        let done = DoneEvent::new(
            1,
            10,
            "fnv1a64:0011223344556677".into(),
            registry.snapshot(),
        );
        let line = serde_json::to_string(&done).unwrap();
        let WorkerLine::Done(parsed) = parse_worker_line(&line).unwrap() else {
            panic!("not a done event: {line}");
        };
        assert_eq!(parsed, done);
        let counters = [CACHE_HITS, CACHE_MISSES, STORE_HITS, STORE_MISSES]
            .map(|name| parsed.metrics.counter(name));
        assert_eq!(counters, [5, 2, 4, 3]);

        // An empty snapshot roundtrips too.
        let done = DoneEvent::new(2, 3, "fnv1a64:00".into(), ring_obs::Snapshot::default());
        let line = serde_json::to_string(&done).unwrap();
        assert_eq!(parse_worker_line(&line).unwrap(), WorkerLine::Done(done));
    }

    #[test]
    fn done_events_need_every_field() {
        let done = DoneEvent::new(0, 2, "fnv1a64:00".into(), ring_obs::Snapshot::default());
        let line = serde_json::to_string(&done).unwrap();
        let value = serde_json::from_str(&line).unwrap();
        let fields: Vec<String> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(key, _)| key.clone())
            .collect();
        assert_eq!(fields, ["event", "shard", "records", "checksum", "metrics"]);
        // `event` selects the parser, so stripping it is not a done line.
        for field in &fields[1..] {
            let mut value = value.clone();
            if let Value::Object(fields) = &mut value {
                fields.retain(|(key, _)| key != field);
            }
            let stripped = serde_json::to_string(&value).unwrap();
            let err = parse_worker_line(&stripped).unwrap_err();
            assert_eq!(err, format!("DoneEvent is missing `{field}`"), "{stripped}");
        }
    }

    #[test]
    fn record_lines_pass_through_with_their_index() {
        let line = r#"{"case_index":42,"experiment":"table1","n":9}"#;
        assert_eq!(
            parse_worker_line(line).unwrap(),
            WorkerLine::Record {
                case_index: 42,
                line
            }
        );
        // Fallback path: `case_index` not in leading position.
        let shuffled = r#"{"experiment":"table1","case_index":7}"#;
        assert!(matches!(
            parse_worker_line(shuffled).unwrap(),
            WorkerLine::Record { case_index: 7, .. }
        ));
        assert_eq!(extract_case_index(r#"{"case_index":3}"#), Ok(3));
    }

    #[test]
    fn a_fractional_case_index_is_refused() {
        let line = r#"{"case_index":1.5,"experiment":"table1"}"#;
        assert!(extract_case_index(line).is_err());
        assert!(parse_worker_line(line).is_err());
    }

    #[test]
    fn a_case_index_followed_by_junk_is_refused() {
        let line = r#"{"case_index":7junk"#;
        assert!(extract_case_index(line).is_err());
        assert!(parse_worker_line(line).is_err());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_worker_line("{\"event\":\"nope\"}").is_err());
        assert!(parse_worker_line("{\"event\":\"start\"}").is_err());
        assert!(parse_worker_line("not json").is_err());
        assert!(parse_worker_line("{\"no_index\":1}").is_err());
        let wrong_schema = "{\"event\":\"start\",\"schema\":\"ring-distrib/v0\"}";
        assert!(parse_worker_line(wrong_schema)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn tally_counts_lines_and_checksums_bytes() {
        let mut tally = ShardTally::new(Vec::new(), None);
        tally.write_all(b"{\"case_index\":0}\n").unwrap();
        tally.write_all(b"{\"case_index\":1}\n").unwrap();
        assert_eq!(tally.lines(), 2);
        let mut reference = Fnv1a64::new();
        reference.update(b"{\"case_index\":0}\n{\"case_index\":1}\n");
        assert_eq!(tally.checksum(), reference.format());
    }
}
