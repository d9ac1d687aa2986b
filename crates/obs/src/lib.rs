//! One instrumentation layer for the whole workspace: counters, gauges,
//! log2 latency histograms, and span traces.
//!
//! The crate is deliberately small and dependency-free (the serde shims are
//! only used at snapshot/serialization time, never on the hot path):
//!
//! - [`Counter`] / [`Gauge`] are single relaxed atomics. An increment on the
//!   hot path is one `fetch_add(1, Relaxed)` — no locks, no allocation.
//! - [`Histogram`] is a fixed array of 64 log2-spaced buckets over
//!   nanoseconds. Recording a sample is three relaxed atomic adds;
//!   percentiles ([`HistogramSnapshot::quantile`]) are extracted from a
//!   snapshot, never from the live histogram.
//! - [`Registry`] is a name → handle map behind a mutex. The mutex is only
//!   taken at registration and snapshot time; callers keep the returned
//!   [`Arc`] handle and update it lock-free afterwards.
//! - [`Snapshot`] (`ring-obs/v1`) is the wire/manifest form: all-integer so
//!   it derives `Eq`, mergeable across processes, and read back through
//!   its schema-checked [`Deserialize`] impl.
//! - [`trace`] is the span layer: [`span!`] RAII guards write structured
//!   begin/end events to a per-process JSONL sidecar, and compile down to a
//!   single relaxed load (and nothing else — no allocation, no field
//!   evaluation) while tracing is disabled.
//!
//! The hard workspace invariant — instrumentation is output-inert — is
//! upheld here by construction: nothing in this crate ever writes to
//! stdout; telemetry goes to in-memory atomics, stderr, or the trace
//! sidecar file.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod trace;

use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Schema tag carried by every serialized [`Snapshot`].
pub const SNAPSHOT_SCHEMA: &str = "ring-obs/v1";

/// Number of log2 buckets in a [`Histogram`].
///
/// Bucket `0` holds the value `0`; bucket `i` (for `1 <= i < 63`) holds
/// values in `[2^(i-1), 2^i)`; bucket `63` holds everything at or above
/// `2^62` nanoseconds (~4.6 seconds), which is plenty of range for
/// latencies.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter (relaxed atomic `u64`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one. This is the hot-path operation: a single relaxed
    /// `fetch_add`.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (relaxed atomic `i64`).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram over nanosecond samples.
///
/// Recording is lock-free: one relaxed add into the bucket, one into the
/// sample count, one into the running sum. Percentile extraction happens on
/// a [`HistogramSnapshot`], not here.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket index holding value `v`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The exclusive upper bound (in the sample's unit) of bucket `i`.
///
/// The last bucket is open-ended and reports [`u64::MAX`].
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (nanoseconds).
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records an elapsed [`Duration`].
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Captures the current state as a named snapshot.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum_ns: self.sum_ns(),
            buckets,
        }
    }
}

/// A registry mapping metric names to live handles.
///
/// `counter`/`gauge`/`histogram` get-or-create under a mutex and hand back
/// an [`Arc`]; hold the handle and the mutex is never touched again on the
/// hot path. [`Registry::snapshot`] freezes everything, sorted by name.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn get_or_create<T: Default>(table: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut table = table.lock().expect("obs registry poisoned");
    if let Some((_, handle)) = table.iter().find(|(n, _)| n == name) {
        return Arc::clone(handle);
    }
    let handle = Arc::new(T::default());
    table.push((name.to_string(), Arc::clone(&handle)));
    handle
}

impl Registry {
    /// Creates an empty registry (tests use private registries; production
    /// code shares [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Freezes every metric into a name-sorted [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(n, h)| h.snapshot(n))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide registry. All production instrumentation goes here;
/// tests that assert exact values should use a private [`Registry`]
/// instead, because test binaries run in one shared process.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Frozen state of one histogram: sparse `(bucket_index, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Non-empty buckets as `(bucket_index, count)`, index-sorted.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the log2 bucket containing that rank (so within 2x of the true
    /// sample). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(i, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i as usize);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Adds `other`'s samples into `self` (same metric from another
    /// process or shard).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for &(i, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&i, |&(bi, _)| bi) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (i, n)),
            }
        }
    }
}

/// A frozen, mergeable view of a registry: the `ring-obs/v1` schema.
///
/// All fields are integers so the type derives `Eq` and roundtrips exactly
/// through the manifest and worker protocol. Ratios (hit rates, shares)
/// are computed at render time, never stored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Histogram states, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The counter named `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The gauge named `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Sets counter `name` to `value`, inserting it if absent.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => {
                let pos = self
                    .counters
                    .binary_search_by(|(n, _)| n.as_str().cmp(name))
                    .unwrap_err();
                self.counters.insert(pos, (name.to_string(), value));
            }
        }
    }

    /// Adds `value` to counter `name`, inserting it if absent.
    pub fn add_counter(&mut self, name: &str, value: u64) {
        let current = self.counter(name);
        self.set_counter(name, current + value);
    }

    /// Whether the snapshot records nothing at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Accumulates `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Used to aggregate per-shard snapshots into fleet
    /// totals.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.counters {
            self.add_counter(name, *value);
        }
        for (name, value) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v += value,
                None => {
                    let pos = self
                        .gauges
                        .binary_search_by(|(n, _)| n.as_str().cmp(name))
                        .unwrap_err();
                    self.gauges.insert(pos, (name.clone(), *value));
                }
            }
        }
        for hist in &other.histograms {
            match self
                .histograms
                .iter_mut()
                .find(|mine| mine.name == hist.name)
            {
                Some(mine) => mine.merge(hist),
                None => {
                    let pos = self
                        .histograms
                        .binary_search_by(|h| h.name.as_str().cmp(&hist.name))
                        .unwrap_err();
                    self.histograms.insert(pos, hist.clone());
                }
            }
        }
    }

    /// What changed since `baseline`: counters and histogram contents
    /// subtract (zero entries are dropped), gauges keep their current
    /// value. This is how a long-lived worker process reports exactly one
    /// job's metrics — snapshot before, snapshot after, delta.
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(baseline.counter(n))))
            .filter(|(_, v)| *v > 0)
            .collect();
        let gauges = self.gauges.clone();
        let mut histograms = Vec::new();
        for hist in &self.histograms {
            let mut delta = hist.clone();
            if let Some(base) = baseline.histogram(&hist.name) {
                delta.count = delta.count.saturating_sub(base.count);
                delta.sum_ns = delta.sum_ns.saturating_sub(base.sum_ns);
                for &(i, n) in &base.buckets {
                    if let Ok(pos) = delta.buckets.binary_search_by_key(&i, |&(bi, _)| bi) {
                        delta.buckets[pos].1 = delta.buckets[pos].1.saturating_sub(n);
                    }
                }
                delta.buckets.retain(|&(_, n)| n > 0);
            }
            if delta.count > 0 {
                histograms.push(delta);
            }
        }
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Serialize for Snapshot {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str(SNAPSHOT_SCHEMA.to_string()),
            ),
            ("counters".to_string(), self.counters.to_json()),
            ("gauges".to_string(), self.gauges.to_json()),
            ("histograms".to_string(), self.histograms.to_json()),
        ])
    }
}

/// Reads a snapshot back: the schema tag must be [`SNAPSHOT_SCHEMA`]
/// (checked first, so a future incompatible revision fails as a schema
/// error), and every section must be present.
impl Deserialize for Snapshot {
    fn from_json(value: &Value) -> Result<Snapshot, String> {
        match value.get("schema").and_then(Value::as_str) {
            Some(SNAPSHOT_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported snapshot schema `{other}`")),
            None => return Err(format!("snapshot has no `{SNAPSHOT_SCHEMA}` schema tag")),
        }
        Ok(Snapshot {
            counters: serde::de::field(value, "Snapshot", "counters")?,
            gauges: serde::de::field(value, "Snapshot", "gauges")?,
            histograms: serde::de::field(value, "Snapshot", "histograms")?,
        })
    }
}

/// Renders a snapshot in the Prometheus text exposition format
/// (`text/plain; version=0.0.4`), every metric prefixed `ring_`.
///
/// Histograms expose the standard cumulative `_bucket{le=…}` /
/// `_sum` / `_count` triple with `le` in nanoseconds.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE ring_{name} counter\n"));
        out.push_str(&format!("ring_{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE ring_{name} gauge\n"));
        out.push_str(&format!("ring_{name} {value}\n"));
    }
    for hist in &snapshot.histograms {
        let name = sanitize_metric_name(&hist.name);
        out.push_str(&format!("# TYPE ring_{name} histogram\n"));
        let mut cumulative = 0u64;
        for &(i, n) in &hist.buckets {
            cumulative += n;
            if (i as usize) < HISTOGRAM_BUCKETS - 1 {
                out.push_str(&format!(
                    "ring_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_upper_bound(i as usize)
                ));
            }
        }
        out.push_str(&format!(
            "ring_{name}_bucket{{le=\"+Inf\"}} {}\n",
            hist.count
        ));
        out.push_str(&format!("ring_{name}_sum {}\n", hist.sum_ns));
        out.push_str(&format!("ring_{name}_count {}\n", hist.count));
    }
    out
}

fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Nanoseconds elapsed since `start`, saturating into `u64`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(10), 1024);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        // Every value lands in a bucket whose bound brackets it.
        for v in [1u64, 2, 3, 7, 8, 100, 4096, 1 << 40] {
            let i = bucket_index(v);
            assert!(v < bucket_upper_bound(i), "value {v} bucket {i}");
            if i > 1 {
                assert!(v >= bucket_upper_bound(i - 1), "value {v} bucket {i}");
            }
        }
    }

    #[test]
    fn percentiles_come_from_bucket_upper_bounds() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum_ns, 500_500);
        // Rank 500 is the value 500, in bucket [256, 512).
        assert_eq!(snap.p50(), 512);
        // Rank 900 is the value 900, in bucket [512, 1024).
        assert_eq!(snap.p90(), 1024);
        assert_eq!(snap.p99(), 1024);
        assert_eq!(snap.quantile(1.0), 1024);
        assert_eq!(snap.mean_ns(), 500);
        assert_eq!(HistogramSnapshot::default().p50(), 0);
    }

    #[test]
    fn single_sample_percentiles() {
        let h = Histogram::new();
        h.record(300);
        let snap = h.snapshot("t");
        assert_eq!(snap.p50(), 512);
        assert_eq!(snap.p99(), 512);
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("hits").get(), 3);
        registry.gauge("depth").set(-4);
        registry.histogram("lat").record(100);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hits"), 3);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("depth"), -4);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn snapshots_merge_and_delta() {
        let registry = Registry::new();
        registry.counter("a").add(5);
        registry.histogram("h").record(10);
        let before = registry.snapshot();
        registry.counter("a").add(2);
        registry.counter("b").inc();
        registry.histogram("h").record(10);
        registry.histogram("h").record(1 << 30);
        let after = registry.snapshot();

        let delta = after.delta(&before);
        assert_eq!(delta.counter("a"), 2);
        assert_eq!(delta.counter("b"), 1);
        let h = delta.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 10 + (1u64 << 30));

        let mut total = before.clone();
        total.merge(&delta);
        assert_eq!(total, after);
    }

    #[test]
    fn snapshot_roundtrips_through_shim_serde() {
        let registry = Registry::new();
        registry.counter("cache_hits").add(7);
        registry.gauge("workers_idle").set(2);
        let h = registry.histogram("attempt_ns");
        h.record(0);
        h.record(900);
        h.record(1 << 20);
        let snap = registry.snapshot();
        let text = serde_json::to_string(&snap.to_json()).unwrap();
        let value = serde_json::from_str(&text).unwrap();
        let back = Snapshot::from_json(&value).unwrap();
        assert_eq!(back, snap);
        assert!(text.contains("\"schema\":\"ring-obs/v1\""));
    }

    #[test]
    fn snapshot_reads_are_schema_strict() {
        let read = |text: &str| Snapshot::from_json(&serde_json::from_str(text).unwrap());
        // The schema is checked before any section is looked at.
        for text in ["{}", "{\"schema\":\"ring-obs/v9\"}", "[]"] {
            assert!(read(text).unwrap_err().contains("schema"), "{text}");
        }
        let empty = serde_json::to_string(&Snapshot::default()).unwrap();
        assert!(read(&empty).unwrap().is_empty());
        let missing = empty.replace(",\"gauges\":[]", "");
        assert_eq!(read(&missing).unwrap_err(), "Snapshot is missing `gauges`");
    }

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let registry = Registry::new();
        registry.counter("runs_total").add(3);
        registry.gauge("workers_idle").set(2);
        let h = registry.histogram("lease_wait_ns");
        h.record(100);
        h.record(100);
        h.record(5000);
        let text = prometheus_text(&registry.snapshot());
        assert!(text.contains("# TYPE ring_runs_total counter\nring_runs_total 3\n"));
        assert!(text.contains("# TYPE ring_workers_idle gauge\nring_workers_idle 2\n"));
        assert!(text.contains("# TYPE ring_lease_wait_ns histogram\n"));
        assert!(text.contains("ring_lease_wait_ns_bucket{le=\"128\"} 2\n"));
        assert!(text.contains("ring_lease_wait_ns_bucket{le=\"8192\"} 3\n"));
        assert!(text.contains("ring_lease_wait_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("ring_lease_wait_ns_sum 5200\n"));
        assert!(text.contains("ring_lease_wait_ns_count 3\n"));
        // Every line is either a comment or `name value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.starts_with("ring_"),
                "{line}"
            );
        }
    }
}
