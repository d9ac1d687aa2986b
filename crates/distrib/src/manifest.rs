//! The run manifest (`manifest.json`, `schema: ring-distrib/v1`).
//!
//! A sharded run directory holds one `manifest.json` plus one
//! `shard-NNN.jsonl` file per shard. The manifest is the run's durable
//! state: the spec parameters that enumerate the cases (enough for
//! `resume` to rebuild the item list with no other input), the spec
//! fingerprint pinning that enumeration, the shard plan, and per-shard
//! progress — status, attempt count, record count, content checksum and
//! the worker's structure-cache / executor statistics.
//!
//! The orchestrator rewrites the manifest (atomically, via a temp file and
//! rename) after every shard transition, so a crash at any point leaves a
//! resumable directory: `resume` trusts exactly those shards whose files
//! still match their recorded checksum and record count, and re-runs the
//! rest.

use crate::checksum::digest_file;
use crate::plan::ShardRange;
use serde::{Serialize, Value};
use std::io;
use std::path::{Path, PathBuf};

/// The manifest schema identifier.
pub const MANIFEST_SCHEMA: &str = "ring-distrib/v1";

/// The manifest file name inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// The shard JSONL file name for a shard number.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:03}.jsonl")
}

/// Progress state of one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// Not yet run (or demoted after failing revalidation).
    Pending,
    /// Ran to completion; the shard file matched the worker's checksum.
    Complete,
    /// Exhausted its retry budget.
    Failed,
}

impl ShardStatus {
    /// The manifest string form.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardStatus::Pending => "pending",
            ShardStatus::Complete => "complete",
            ShardStatus::Failed => "failed",
        }
    }

    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "pending" => Ok(ShardStatus::Pending),
            "complete" => Ok(ShardStatus::Complete),
            "failed" => Ok(ShardStatus::Failed),
            other => Err(format!("unknown shard status `{other}`")),
        }
    }
}

impl Serialize for ShardStatus {
    fn to_json(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// End-of-shard accounting reported by a successful worker.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Record lines produced.
    pub records: usize,
    /// Checksum over the shard file bytes.
    pub checksum: String,
    /// Structure-cache hits inside the worker.
    pub cache_hits: u64,
    /// Structure-cache misses inside the worker.
    pub cache_misses: u64,
    /// Executor steals inside the worker.
    pub steals: u64,
    /// Structure-store loads that succeeded inside the worker.
    pub store_hits: u64,
    /// Structure-store lookups that fell through to construction.
    pub store_misses: u64,
    /// Wall-clock duration of the successful attempt in milliseconds.
    pub attempt_ms: u64,
    /// The worker's full `ring-obs/v1` metrics snapshot for the successful
    /// attempt (`None` for streams from older workers).
    pub metrics: Option<ring_obs::Snapshot>,
}

/// One shard's manifest entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ShardEntry {
    /// The shard number.
    pub shard: usize,
    /// First global case index (inclusive).
    pub start: usize,
    /// One past the last global case index (exclusive).
    pub end: usize,
    /// Progress state.
    pub status: ShardStatus,
    /// Worker launches so far (counts retries).
    pub attempts: u32,
    /// Record lines in the shard file (0 until complete).
    pub records: usize,
    /// Checksum of the shard file (empty until complete).
    pub checksum: String,
    /// Structure-cache hits of the completing worker.
    pub cache_hits: u64,
    /// Structure-cache misses of the completing worker.
    pub cache_misses: u64,
    /// Executor steals of the completing worker.
    pub steals: u64,
    /// Structure-store hits of the completing worker.
    pub store_hits: u64,
    /// Structure-store misses of the completing worker.
    pub store_misses: u64,
    /// Wall-clock duration of the *final successful* attempt in
    /// milliseconds (0 until complete). Earlier killed or failed attempts
    /// do not contribute — like every other per-shard statistic here.
    pub attempt_ms: u64,
    /// Watchdog kills this shard has absorbed across all attempts.
    pub watchdog_kills: u64,
    /// Total retry-backoff delay this shard has slept, in milliseconds.
    pub backoff_ms: u64,
    /// The completing worker's metrics snapshot (`None` until complete, and
    /// for manifests written before metrics existed). Overwritten on every
    /// completion, so a retried shard records exactly the final successful
    /// attempt's snapshot.
    pub metrics: Option<ring_obs::Snapshot>,
}

impl ShardEntry {
    /// The shard's index range.
    pub fn range(&self) -> ShardRange {
        ShardRange {
            shard: self.shard,
            start: self.start,
            end: self.end,
        }
    }
}

/// The spec parameters a worker or `resume` needs to re-enumerate the run's
/// cases: the `ringlab` subcommand plus the flag overrides it was given.
/// `None` means "the subcommand's default".
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SpecParams {
    /// The `ringlab` subcommand whose item list is sharded.
    pub subcommand: String,
    /// Whether `--quick` sizes were in force.
    pub quick: bool,
    /// `--sizes` override.
    pub sizes: Option<Vec<usize>>,
    /// `--universe-factors` override.
    pub universe_factors: Option<Vec<u64>>,
    /// `--reps` override.
    pub reps: Option<u64>,
    /// `--seed` override.
    pub seed: Option<u64>,
    /// `--structure-seeds` override (`Some(K)` = the per-case seed
    /// schedule with `K` schedule seeds; `None` = the fixed default).
    /// Part of the spec because it changes which structures every even-`n`
    /// case executes — and therefore the bytes `resume` must reproduce.
    pub structure_seeds: Option<u64>,
    /// `--fault-drops` override: the per-mille message-drop rates of a
    /// faulty sweep (`None` = the subcommand's default axes, or a clean
    /// sweep for non-fault subcommands). Fault axes are spec-affecting:
    /// they change every case's executed schedule, so they are recorded
    /// here and folded into the spec fingerprint.
    pub fault_drops: Option<Vec<u64>>,
    /// `--fault-crashes` override: crash-stop stations per case.
    pub fault_crashes: Option<u64>,
    /// `--fault-churn` override: churning (intermittently dormant)
    /// stations per case.
    pub fault_churn: Option<u64>,
    /// `--fault-adversarial`: whether the rotating adversarial activation
    /// schedule is in force.
    pub fault_adversarial: bool,
}

impl SpecParams {
    /// Reconstructs spec parameters from a JSON value — a manifest's
    /// `spec` object, or the body of a `ring-serve` run submission.
    /// Only `subcommand` is required; every override is optional and
    /// `quick` defaults to `false`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        Ok(SpecParams {
            subcommand: require_str(value, "subcommand")?,
            quick: value.get("quick").and_then(Value::as_bool).unwrap_or(false),
            sizes: optional_u64_list(value, "sizes")?
                .map(|list| list.into_iter().map(|v| v as usize).collect()),
            universe_factors: optional_u64_list(value, "universe_factors")?,
            reps: optional_u64(value, "reps")?,
            seed: optional_u64(value, "seed")?,
            // Absent in manifests written before seed schedules existed:
            // those runs were fixed-schedule by construction.
            structure_seeds: optional_u64(value, "structure_seeds")?,
            // Likewise absent in manifests predating the fault layer:
            // those runs were clean synchronous sweeps by construction.
            fault_drops: optional_u64_list(value, "fault_drops")?,
            fault_crashes: optional_u64(value, "fault_crashes")?,
            fault_churn: optional_u64(value, "fault_churn")?,
            fault_adversarial: value
                .get("fault_adversarial")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        })
    }

    /// The `ringlab` argv (minus the binary) that makes a worker execute
    /// `range` of this spec: `worker <subcommand> --shard i/M …` plus
    /// exactly the override flags the spec records. Every dispatcher —
    /// `ringlab --shards`, `resume`, and the `ring-serve` daemon's TCP job
    /// frames — builds worker invocations through this one function, so a
    /// shard reruns identically no matter who launches it.
    pub fn worker_args(
        &self,
        jobs_per_worker: usize,
        range: &ShardRange,
        shard_count: usize,
        structure_store: &str,
    ) -> Vec<String> {
        let mut args = vec![
            "worker".to_string(),
            self.subcommand.clone(),
            "--shard".to_string(),
            format!("{}/{shard_count}", range.shard),
            "--jobs".to_string(),
            jobs_per_worker.to_string(),
        ];
        if !structure_store.is_empty() {
            args.push("--structure-store".into());
            args.push(structure_store.to_string());
        }
        if self.quick {
            args.push("--quick".into());
        }
        if let Some(sizes) = &self.sizes {
            args.push("--sizes".into());
            args.push(join_list(sizes));
        }
        if let Some(factors) = &self.universe_factors {
            args.push("--universe-factors".into());
            args.push(join_list(factors));
        }
        if let Some(reps) = self.reps {
            args.push("--reps".into());
            args.push(reps.to_string());
        }
        if let Some(seed) = self.seed {
            args.push("--seed".into());
            args.push(seed.to_string());
        }
        if let Some(k) = self.structure_seeds {
            args.push("--structure-seed-mode".into());
            args.push("per-case".into());
            args.push("--structure-seeds".into());
            args.push(k.to_string());
        }
        if let Some(drops) = &self.fault_drops {
            args.push("--fault-drops".into());
            args.push(join_list(drops));
        }
        if let Some(crashes) = self.fault_crashes {
            args.push("--fault-crashes".into());
            args.push(crashes.to_string());
        }
        if let Some(churn) = self.fault_churn {
            args.push("--fault-churn".into());
            args.push(churn.to_string());
        }
        if self.fault_adversarial {
            args.push("--fault-adversarial".into());
        }
        args
    }
}

fn join_list<T: std::fmt::Display>(items: &[T]) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// The run manifest.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Manifest {
    /// Always [`MANIFEST_SCHEMA`].
    pub schema: String,
    /// Parameters that re-enumerate the run's cases.
    pub spec: SpecParams,
    /// Fingerprint of the resolved spec (hex, `0x…`); `resume` refuses a
    /// manifest whose fingerprint the current binary does not reproduce.
    pub spec_fingerprint: String,
    /// Total number of cases in the sweep.
    pub total_cases: usize,
    /// Worker threads per worker process.
    pub jobs_per_worker: usize,
    /// The merged-output destination the run was started with (`-` =
    /// stdout; empty = the JSONL stream was disabled).
    pub output: String,
    /// The on-disk structure-store directory the run's workers share
    /// (empty = the run was started without a store). `resume` re-enables
    /// the store from this field and revalidates its files like shard
    /// files.
    pub structure_store: String,
    /// Per-worker wall-clock budget in seconds (`None` = unlimited): a
    /// worker exceeding it is killed and retried. Recorded so `resume`
    /// supervises re-launched workers the way the original run did.
    pub shard_timeout: Option<u64>,
    /// Per-shard progress, in shard order.
    pub shards: Vec<ShardEntry>,
}

impl Manifest {
    /// Creates a fresh manifest over a shard plan, all shards pending.
    pub fn new(
        spec: SpecParams,
        spec_fingerprint: String,
        total_cases: usize,
        ranges: &[ShardRange],
        jobs_per_worker: usize,
        output: String,
    ) -> Self {
        Manifest {
            schema: MANIFEST_SCHEMA.to_string(),
            spec,
            spec_fingerprint,
            total_cases,
            jobs_per_worker,
            output,
            structure_store: String::new(),
            shard_timeout: None,
            shards: ranges
                .iter()
                .map(|range| ShardEntry {
                    shard: range.shard,
                    start: range.start,
                    end: range.end,
                    status: ShardStatus::Pending,
                    attempts: 0,
                    records: 0,
                    checksum: String::new(),
                    cache_hits: 0,
                    cache_misses: 0,
                    steals: 0,
                    store_hits: 0,
                    store_misses: 0,
                    attempt_ms: 0,
                    watchdog_kills: 0,
                    backoff_ms: 0,
                    metrics: None,
                })
                .collect(),
        }
    }

    /// Records the shared structure-store directory of the run (what
    /// `resume` re-enables; empty = no store).
    pub fn with_structure_store(mut self, dir: String) -> Self {
        self.structure_store = dir;
        self
    }

    /// Records the per-worker wall-clock budget of the run (what `resume`
    /// enforces on re-launched workers; `None` = unlimited).
    pub fn with_shard_timeout(mut self, seconds: Option<u64>) -> Self {
        self.shard_timeout = seconds;
        self
    }

    /// The manifest path inside a run directory.
    pub fn path_in(run_dir: &Path) -> PathBuf {
        run_dir.join(MANIFEST_FILE)
    }

    /// Writes the manifest atomically (temp file + rename), so observers —
    /// including a concurrent `resume` after a crash — never read a
    /// half-written manifest.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_in(&self, run_dir: &Path) -> io::Result<()> {
        let path = Self::path_in(run_dir);
        let tmp = run_dir.join(format!("{MANIFEST_FILE}.tmp"));
        let json = serde_json::to_string_pretty(self).expect("serializable manifest");
        std::fs::write(&tmp, json + "\n")?;
        std::fs::rename(&tmp, &path)
    }

    /// Loads and validates a manifest from a run directory.
    ///
    /// # Errors
    ///
    /// Returns a description of I/O failures, malformed JSON or an
    /// unsupported schema.
    pub fn load(run_dir: &Path) -> Result<Self, String> {
        let path = Self::path_in(run_dir);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = serde_json::from_str(&text)
            .map_err(|e| format!("malformed manifest {}: {e}", path.display()))?;
        Self::from_json(&value)
    }

    /// Reconstructs a manifest from its JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let schema = require_str(value, "schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "manifest schema `{schema}` is not `{MANIFEST_SCHEMA}`"
            ));
        }
        let spec_value = value.get("spec").ok_or("manifest is missing `spec`")?;
        let spec = SpecParams::from_json(spec_value)?;
        let shards_value = value
            .get("shards")
            .and_then(Value::as_array)
            .ok_or("manifest is missing `shards` array")?;
        let mut shards = Vec::with_capacity(shards_value.len());
        for entry in shards_value {
            shards.push(ShardEntry {
                shard: require_u64(entry, "shard")? as usize,
                start: require_u64(entry, "start")? as usize,
                end: require_u64(entry, "end")? as usize,
                status: ShardStatus::parse(&require_str(entry, "status")?)?,
                attempts: require_u64(entry, "attempts")? as u32,
                records: require_u64(entry, "records")? as usize,
                checksum: require_str(entry, "checksum")?,
                cache_hits: require_u64(entry, "cache_hits")?,
                cache_misses: require_u64(entry, "cache_misses")?,
                steals: require_u64(entry, "steals")?,
                // Store counters joined schema v1 with the structure store;
                // manifests from storeless runs simply lack them.
                store_hits: optional_u64(entry, "store_hits")?.unwrap_or(0),
                store_misses: optional_u64(entry, "store_misses")?.unwrap_or(0),
                // The observability fields joined schema v1 later still;
                // older manifests lack all of them.
                attempt_ms: optional_u64(entry, "attempt_ms")?.unwrap_or(0),
                watchdog_kills: optional_u64(entry, "watchdog_kills")?.unwrap_or(0),
                backoff_ms: optional_u64(entry, "backoff_ms")?.unwrap_or(0),
                metrics: match entry.get("metrics") {
                    Some(v) if !v.is_null() => Some(
                        ring_obs::Snapshot::from_json(v)
                            .map_err(|e| format!("shard entry has a bad metrics snapshot: {e}"))?,
                    ),
                    _ => None,
                },
            });
        }
        Ok(Manifest {
            schema,
            spec,
            spec_fingerprint: require_str(value, "spec_fingerprint")?,
            total_cases: require_u64(value, "total_cases")? as usize,
            jobs_per_worker: require_u64(value, "jobs_per_worker")? as usize,
            output: require_str(value, "output")?,
            structure_store: value
                .get("structure_store")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            // Absent in manifests written before worker supervision grew a
            // wall-clock budget: those runs were unbounded.
            shard_timeout: optional_u64(value, "shard_timeout")?,
            shards,
        })
    }

    /// Marks a shard complete with its worker's accounting.
    ///
    /// Every statistic — including the metrics snapshot — is overwritten,
    /// never accumulated: a shard retried after a watchdog kill records
    /// exactly the final successful attempt's numbers, so fleet aggregates
    /// cannot double-count work a killed attempt already did.
    pub fn mark_complete(&mut self, shard: usize, stats: &ShardStats) {
        let entry = &mut self.shards[shard];
        entry.status = ShardStatus::Complete;
        entry.records = stats.records;
        entry.checksum = stats.checksum.clone();
        entry.cache_hits = stats.cache_hits;
        entry.cache_misses = stats.cache_misses;
        entry.steals = stats.steals;
        entry.store_hits = stats.store_hits;
        entry.store_misses = stats.store_misses;
        entry.attempt_ms = stats.attempt_ms;
        entry.metrics = stats.metrics.clone();
    }

    /// Records one watchdog kill against a shard (survives retries; this
    /// is a lifetime tally, unlike the per-completion statistics).
    pub fn note_watchdog_kill(&mut self, shard: usize) {
        self.shards[shard].watchdog_kills += 1;
    }

    /// Adds retry-backoff sleep time to a shard's lifetime tally.
    pub fn add_backoff_ms(&mut self, shard: usize, ms: u64) {
        self.shards[shard].backoff_ms += ms;
    }

    /// Marks a shard failed (retry budget exhausted).
    pub fn mark_failed(&mut self, shard: usize) {
        self.shards[shard].status = ShardStatus::Failed;
    }

    /// Shards that still need a worker (pending or failed).
    pub fn incomplete_shards(&self) -> Vec<ShardRange> {
        self.shards
            .iter()
            .filter(|e| e.status != ShardStatus::Complete)
            .map(ShardEntry::range)
            .collect()
    }

    /// Whether every shard is complete.
    pub fn is_complete(&self) -> bool {
        self.shards
            .iter()
            .all(|e| e.status == ShardStatus::Complete)
    }

    /// The shard files of a completed run, in shard (hence case) order.
    pub fn shard_files(&self, run_dir: &Path) -> Vec<PathBuf> {
        self.shards
            .iter()
            .map(|e| run_dir.join(shard_file_name(e.shard)))
            .collect()
    }

    /// Re-checks every `complete` shard against the bytes on disk and
    /// demotes the ones whose file is missing, truncated or otherwise
    /// different from what the worker reported — the heart of `resume`.
    /// Returns the demoted shard numbers.
    ///
    /// # Errors
    ///
    /// Never fails on a bad shard file (that demotes the shard); only
    /// unexpected I/O errors on the run directory itself propagate.
    pub fn revalidate_completed(&mut self, run_dir: &Path) -> io::Result<Vec<usize>> {
        let mut demoted = Vec::new();
        for entry in &mut self.shards {
            if entry.status != ShardStatus::Complete {
                continue;
            }
            let path = run_dir.join(shard_file_name(entry.shard));
            let valid = match digest_file(&path) {
                Ok(digest) => {
                    digest.checksum == entry.checksum
                        && digest.lines == entry.records
                        && entry.records == entry.end - entry.start
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => false,
                Err(e) => return Err(e),
            };
            if !valid {
                entry.status = ShardStatus::Pending;
                entry.records = 0;
                entry.checksum = String::new();
                entry.attempt_ms = 0;
                entry.metrics = None;
                demoted.push(entry.shard);
            }
        }
        Ok(demoted)
    }

    /// Sums the per-shard worker statistics (completed shards only).
    pub fn aggregate_stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for entry in &self.shards {
            if entry.status == ShardStatus::Complete {
                total.records += entry.records;
                total.cache_hits += entry.cache_hits;
                total.cache_misses += entry.cache_misses;
                total.steals += entry.steals;
                total.store_hits += entry.store_hits;
                total.store_misses += entry.store_misses;
            }
        }
        total
    }

    /// Merges the completed shards' metrics snapshots into fleet totals.
    ///
    /// Only the final successful attempt of each shard contributes
    /// (that is all [`Manifest::mark_complete`] keeps). Entries without a
    /// snapshot — manifests from older workers — contribute counters
    /// synthesized from their legacy per-shard fields, so aggregation
    /// works across a mixed-version fleet.
    pub fn aggregate_metrics(&self) -> ring_obs::Snapshot {
        let mut total = ring_obs::Snapshot::default();
        for entry in &self.shards {
            if entry.status != ShardStatus::Complete {
                continue;
            }
            match &entry.metrics {
                Some(metrics) => total.merge(metrics),
                None => {
                    total.add_counter("cache_hits", entry.cache_hits);
                    total.add_counter("cache_misses", entry.cache_misses);
                    total.add_counter("executor_steals", entry.steals);
                    total.add_counter("store_hits", entry.store_hits);
                    total.add_counter("store_misses", entry.store_misses);
                }
            }
        }
        total
    }
}

fn require_str(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("manifest is missing string `{key}`"))
}

fn require_u64(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("manifest is missing integer `{key}`"))
}

fn optional_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("spec `{key}` is not an integer")),
    }
}

fn optional_u64_list(value: &Value, key: &str) -> Result<Option<Vec<u64>>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| format!("spec `{key}` is not an array"))?;
            items
                .iter()
                .map(|item| {
                    item.as_u64()
                        .ok_or_else(|| format!("spec `{key}` holds a non-integer"))
                })
                .collect::<Result<Vec<u64>, String>>()
                .map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_shards;

    fn sample_manifest() -> Manifest {
        let spec = SpecParams {
            subcommand: "sweep".into(),
            quick: true,
            sizes: Some(vec![9, 8]),
            universe_factors: None,
            reps: Some(2),
            seed: None,
            structure_seeds: None,
            fault_drops: None,
            fault_crashes: None,
            fault_churn: None,
            fault_adversarial: false,
        };
        Manifest::new(
            spec,
            "0x1234abcd".into(),
            10,
            &plan_shards(10, 3),
            1,
            "results/sweep.jsonl".into(),
        )
    }

    #[test]
    fn manifests_round_trip_through_json() {
        let mut manifest = sample_manifest().with_structure_store("run/structures".into());
        manifest.shards[0].attempts = 2;
        let registry = ring_obs::Registry::new();
        registry.counter("cache_hits").add(7);
        registry.histogram("case_execute_ns").record(4096);
        manifest.mark_complete(
            0,
            &ShardStats {
                records: 4,
                checksum: "fnv1a64:00ff".into(),
                cache_hits: 7,
                cache_misses: 3,
                steals: 1,
                store_hits: 2,
                store_misses: 1,
                attempt_ms: 120,
                metrics: Some(registry.snapshot()),
            },
        );
        manifest.note_watchdog_kill(0);
        manifest.add_backoff_ms(0, 250);
        manifest.mark_failed(2);
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let parsed = Manifest::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed, manifest);
        assert!(!parsed.is_complete());
        assert_eq!(parsed.structure_store, "run/structures");
        assert_eq!(
            parsed
                .incomplete_shards()
                .iter()
                .map(|r| r.shard)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        let stats = parsed.aggregate_stats();
        assert_eq!((stats.records, stats.cache_hits, stats.steals), (4, 7, 1));
        assert_eq!((stats.store_hits, stats.store_misses), (2, 1));
        assert_eq!(parsed.shards[0].attempt_ms, 120);
        assert_eq!(parsed.shards[0].watchdog_kills, 1);
        assert_eq!(parsed.shards[0].backoff_ms, 250);
        let metrics = parsed.aggregate_metrics();
        assert_eq!(metrics.counter("cache_hits"), 7);
        assert_eq!(metrics.histogram("case_execute_ns").unwrap().count, 1);
    }

    #[test]
    fn observability_fields_tolerate_absence() {
        // A manifest written before the metrics layer existed lacks the
        // per-shard attempt/watchdog/backoff tallies and the snapshot.
        let manifest = sample_manifest();
        let text = serde_json::to_string(&manifest).unwrap();
        let stripped = text
            .replace(",\"attempt_ms\":0", "")
            .replace(",\"watchdog_kills\":0", "")
            .replace(",\"backoff_ms\":0", "")
            .replace(",\"metrics\":null", "");
        assert_ne!(stripped, text, "the new fields must have been present");
        let parsed = Manifest::from_json(&serde_json::from_str(&stripped).unwrap()).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn aggregate_metrics_synthesizes_for_legacy_entries() {
        let mut manifest = sample_manifest();
        // Shard 0 completes with a real snapshot.
        let registry = ring_obs::Registry::new();
        registry.counter("cache_hits").add(10);
        registry.counter("store_misses").add(4);
        manifest.mark_complete(
            0,
            &ShardStats {
                records: 4,
                checksum: "fnv1a64:aa".into(),
                cache_hits: 10,
                store_misses: 4,
                metrics: Some(registry.snapshot()),
                ..ShardStats::default()
            },
        );
        // Shard 1 completes the legacy way (no snapshot).
        manifest.mark_complete(
            1,
            &ShardStats {
                records: 3,
                checksum: "fnv1a64:bb".into(),
                cache_hits: 5,
                steals: 2,
                store_misses: 1,
                ..ShardStats::default()
            },
        );
        // Shard 2 stays pending: its numbers must not contribute.
        manifest.shards[2].cache_hits = 99;

        let metrics = manifest.aggregate_metrics();
        assert_eq!(metrics.counter("cache_hits"), 15);
        assert_eq!(metrics.counter("executor_steals"), 2);
        assert_eq!(metrics.counter("store_misses"), 5);
    }

    #[test]
    fn fault_and_timeout_fields_round_trip_and_tolerate_absence() {
        let mut manifest = sample_manifest().with_shard_timeout(Some(90));
        manifest.spec.fault_drops = Some(vec![0, 100, 400]);
        manifest.spec.fault_crashes = Some(1);
        manifest.spec.fault_churn = Some(2);
        manifest.spec.fault_adversarial = true;
        let text = serde_json::to_string(&manifest).unwrap();
        let parsed = Manifest::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.shard_timeout, Some(90));
        assert_eq!(parsed.spec.fault_drops, Some(vec![0, 100, 400]));

        // A pre-fault-layer manifest (no fault fields, no shard_timeout)
        // still loads as a clean, unbounded run.
        let clean = sample_manifest();
        let stripped = serde_json::to_string(&clean)
            .unwrap()
            .replace(",\"fault_drops\":null", "")
            .replace(",\"fault_crashes\":null", "")
            .replace(",\"fault_churn\":null", "")
            .replace(",\"fault_adversarial\":false", "")
            .replace(",\"shard_timeout\":null", "");
        assert!(!stripped.contains("fault_"));
        let parsed = Manifest::from_json(&serde_json::from_str(&stripped).unwrap()).unwrap();
        assert_eq!(parsed, clean);
    }

    #[test]
    fn storeless_manifests_parse_with_zero_store_fields() {
        // A manifest written before the structure store existed (no
        // `structure_store`, no per-shard store counters) still loads.
        let manifest = sample_manifest();
        let text = serde_json::to_string(&manifest).unwrap();
        let stripped = text
            .replace(",\"structure_store\":\"\"", "")
            .replace(",\"store_hits\":0,\"store_misses\":0", "");
        assert_ne!(stripped, text, "the store fields must have been present");
        let parsed = Manifest::from_json(&serde_json::from_str(&stripped).unwrap()).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn save_and_load_are_inverse() {
        let dir =
            std::env::temp_dir().join(format!("ring-distrib-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = sample_manifest();
        manifest.save_in(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn revalidation_demotes_tampered_shards() {
        let dir =
            std::env::temp_dir().join(format!("ring-distrib-revalidate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut manifest = sample_manifest();

        // Shard 0: valid file (4 cases, checksum agrees).
        let body =
            "{\"case_index\":0}\n{\"case_index\":1}\n{\"case_index\":2}\n{\"case_index\":3}\n";
        std::fs::write(dir.join(shard_file_name(0)), body).unwrap();
        let digest = digest_file(&dir.join(shard_file_name(0))).unwrap();
        manifest.mark_complete(
            0,
            &ShardStats {
                records: 4,
                checksum: digest.checksum,
                ..ShardStats::default()
            },
        );
        // Shard 1: recorded complete but the file is truncated.
        std::fs::write(dir.join(shard_file_name(1)), "{\"case_index\":4}\n").unwrap();
        let digest = digest_file(&dir.join(shard_file_name(1))).unwrap();
        manifest.mark_complete(
            1,
            &ShardStats {
                records: 3,
                checksum: digest.checksum,
                ..ShardStats::default()
            },
        );
        // Shard 2: recorded complete but the file is gone.
        manifest.mark_complete(
            2,
            &ShardStats {
                records: 3,
                checksum: "fnv1a64:dead".into(),
                ..ShardStats::default()
            },
        );

        let demoted = manifest.revalidate_completed(&dir).unwrap();
        assert_eq!(demoted, vec![1, 2]);
        assert_eq!(manifest.shards[0].status, ShardStatus::Complete);
        assert_eq!(manifest.shards[1].status, ShardStatus::Pending);
        assert_eq!(manifest.shards[2].status, ShardStatus::Pending);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let value = serde_json::from_str("{\"schema\":\"ring-distrib/v0\"}").unwrap();
        assert!(Manifest::from_json(&value).unwrap_err().contains("schema"));
    }
}
