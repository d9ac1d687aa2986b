//! The run manifest (`manifest.json`, `schema: ring-distrib/v1`).
//!
//! A sharded run directory holds one `manifest.json` plus one
//! `shard-NNN.jsonl` file per shard. The manifest is the run's durable
//! state: the spec parameters that enumerate the cases (enough for
//! `resume` to rebuild the item list with no other input), the spec
//! fingerprint pinning that enumeration, the shard plan, and per-shard
//! progress — status, attempt count, record count, content checksum and
//! the worker's structure-cache / structure-store statistics.
//!
//! The orchestrator rewrites the manifest (atomically, via a temp file and
//! rename) after every shard transition, so a crash at any point leaves a
//! resumable directory: `resume` trusts exactly those shards whose files
//! still match their recorded checksum and record count, and re-runs the
//! rest.

use crate::checksum::digest_file;
use crate::plan::ShardRange;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::path::{Path, PathBuf};
use SpecFlagKind::{List, Number, Switch};

/// The manifest schema identifier.
pub const MANIFEST_SCHEMA: &str = "ring-distrib/v1";

/// The manifest file name inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// The shard JSONL file name for a shard number.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:03}.jsonl")
}

/// Progress state of one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardStatus {
    /// Not yet run (or demoted after failing revalidation).
    #[default]
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
}

impl Serialize for ShardStatus {
    fn to_json(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for ShardStatus {
    fn from_json(value: &Value) -> Result<Self, String> {
        match String::from_json(value)?.as_str() {
            "pending" => Ok(ShardStatus::Pending),
            "complete" => Ok(ShardStatus::Complete),
            "failed" => Ok(ShardStatus::Failed),
            other => Err(format!("unknown shard status `{other}`")),
        }
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
    /// Structure-store loads that succeeded inside the worker.
    pub store_hits: u64,
    /// Structure-store lookups that fell through to construction.
    pub store_misses: u64,
    /// Wall-clock duration of the successful attempt in milliseconds.
    pub attempt_ms: u64,
    /// The worker's full `ring-obs/v1` metrics snapshot for the successful
    /// attempt.
    pub metrics: ring_obs::Snapshot,
}

/// One shard's manifest entry.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// The completing worker's metrics snapshot (`None` until complete).
    /// Overwritten on every completion, so a retried shard records exactly
    /// the final successful attempt's snapshot.
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
/// `None` means "the subcommand's default". Read back through the derived
/// [`Deserialize`] impl, which is also how `ringlab`'s argv and `POST
/// /v1/runs` bodies become a spec: only `subcommand` is required, and an
/// absent switch is off.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecParams {
    /// The `ringlab` subcommand whose item list is sharded.
    pub subcommand: String,
    /// Whether `--quick` sizes were in force.
    #[serde(default)]
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
    #[serde(default)]
    pub fault_adversarial: bool,
}

impl SpecParams {
    /// The `ringlab` argv (minus the binary) that makes a worker execute
    /// `range` of this spec: `worker <subcommand> --shard i/M …` plus
    /// exactly the [`SPEC_FLAGS`] the spec sets. Every dispatcher —
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
        let spec = self.to_json();
        for flag in &SPEC_FLAGS {
            match spec.get(flag.field) {
                Some(Value::Bool(true)) => args.push(flag.name()),
                // A number's operand is its JSON text, a list's its compact
                // JSON array without the brackets.
                Some(value @ (Value::Uint(_) | Value::Array(_))) => {
                    let json = serde_json::to_string(value).expect("serializable spec field");
                    args.extend([flag.name(), json.trim_matches(['[', ']']).to_string()]);
                }
                _ => {}
            }
        }
        args
    }
}

/// How a spec flag's operand is written on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecFlagKind {
    /// No operand: the flag sets its field to `true`.
    Switch,
    /// One unsigned integer.
    Number,
    /// Comma-separated unsigned integers.
    List,
}

/// One spec-affecting `ringlab` flag. The flag is the JSON field with `-`
/// for `_` (`universe_factors` is set by `--universe-factors`), so argv,
/// manifests and `POST /v1/runs` bodies name every axis the same way.
#[derive(Clone, Copy, Debug)]
pub struct SpecFlag {
    /// The [`SpecParams`] JSON field the flag sets.
    pub field: &'static str,
    /// How the operand is written.
    pub kind: SpecFlagKind,
    /// One line of usage help.
    pub help: &'static str,
}

/// Every spec-affecting `ringlab` flag, in [`SpecParams`] field order —
/// the one declaration the `ringlab` parser, its usage text and
/// [`SpecParams::worker_args`] read. The parser decodes each operand into
/// its JSON field and reads the spec back with [`Deserialize`].
#[rustfmt::skip]
pub const SPEC_FLAGS: [SpecFlag; 10] = [
    SpecFlag { field: "quick", kind: Switch, help: "reduced sizes (CI smoke)" },
    SpecFlag { field: "sizes", kind: List, help: "ring sizes (set sizes for `scaling`)" },
    SpecFlag { field: "universe_factors", kind: List, help: "N = factor·n (not for `scaling`)" },
    SpecFlag { field: "reps", kind: Number, help: "repetitions per configuration (not `scaling`)" },
    SpecFlag { field: "seed", kind: Number, help: "base seed" },
    SpecFlag { field: "structure_seeds", kind: Number, help: "per-case schedule over N seeds" },
    SpecFlag { field: "fault_drops", kind: List, help: "(`faults` only) per-mille drop rates" },
    SpecFlag { field: "fault_crashes", kind: Number, help: "(`faults` only) crash-stop stations" },
    SpecFlag { field: "fault_churn", kind: Number, help: "(`faults` only) churning stations" },
    SpecFlag { field: "fault_adversarial", kind: Switch, help: "(`faults` only) deny activation" },
];

impl SpecFlag {
    /// The flag as written on the command line.
    pub fn name(&self) -> String {
        format!("--{}", self.field.replace('_', "-"))
    }

    /// The operand placeholder of the usage text (empty for a switch).
    pub fn operand(&self) -> &'static str {
        match self.kind {
            Switch => "",
            Number => "N",
            List => "a,b,..",
        }
    }

    /// Decodes the flag's operand (ignored for a switch) into the JSON value
    /// of its field.
    ///
    /// # Errors
    ///
    /// Returns a description of an operand that is not a number or a list
    /// of numbers.
    pub fn decode(&self, operand: &str) -> Result<Value, String> {
        let number = |text: &str| {
            text.parse()
                .map(Value::Uint)
                .map_err(|_| format!("{}: `{text}` is not a number", self.name()))
        };
        match self.kind {
            Switch => Ok(Value::Bool(true)),
            Number => number(operand),
            List => operand
                .split(',')
                .filter(|part| !part.is_empty())
                .map(|part| number(part.trim()))
                .collect::<Result<_, _>>()
                .map(Value::Array),
        }
    }
}

/// The run manifest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
                    ..ShardEntry::default()
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

    /// Reads a manifest back from its JSON value: the schema tag first (so a
    /// foreign schema reads as a schema error), then the derived
    /// [`Deserialize`] parse, then the shard plan.
    ///
    /// # Errors
    ///
    /// Returns a description of a foreign schema, of the first missing or
    /// mistyped field, or of a shard plan other than the one
    /// [`crate::plan_shards`] shapes:
    /// entries numbered `0..M` in position order whose ranges tile
    /// `0..total_cases` contiguously.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let schema = value.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "manifest schema `{schema}` is not `{MANIFEST_SCHEMA}`"
            ));
        }
        let manifest = <Self as Deserialize>::from_json(value)?;
        check_plan(&manifest.shards, manifest.total_cases)?;
        Ok(manifest)
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
        entry.store_hits = stats.store_hits;
        entry.store_misses = stats.store_misses;
        entry.attempt_ms = stats.attempt_ms;
        entry.metrics = Some(stats.metrics.clone());
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
                total.store_hits += entry.store_hits;
                total.store_misses += entry.store_misses;
            }
        }
        total
    }

    /// Merges the completed shards' metrics snapshots into fleet totals.
    ///
    /// Only the final successful attempt of each shard contributes
    /// (that is all [`Manifest::mark_complete`] keeps).
    pub fn aggregate_metrics(&self) -> ring_obs::Snapshot {
        let mut total = ring_obs::Snapshot::default();
        for entry in &self.shards {
            if let (ShardStatus::Complete, Some(metrics)) = (entry.status, &entry.metrics) {
                total.merge(metrics);
            }
        }
        total
    }
}

/// Checks that `shards` is a shard plan of `0..total_cases`: entry `i` is
/// shard `i`, each range starts where the previous one ended, and the last
/// ends at `total_cases`. Every other manifest consumer indexes shards by
/// number and ranges by their bounds, so a plan that breaks this is
/// refused at load.
fn check_plan(shards: &[ShardEntry], total_cases: usize) -> Result<(), String> {
    let mut next = 0;
    for (position, entry) in shards.iter().enumerate() {
        if entry.shard != position {
            return Err(format!(
                "manifest shard entry {position} is numbered {}",
                entry.shard
            ));
        }
        if entry.start != next || entry.end < entry.start {
            return Err(format!(
                "manifest shard {position} covers {}..{}, not a range starting at {next}",
                entry.start, entry.end
            ));
        }
        next = entry.end;
    }
    if next != total_cases {
        return Err(format!(
            "manifest shards cover 0..{next}, not the run's {total_cases} cases"
        ));
    }
    Ok(())
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
                store_hits: 2,
                store_misses: 1,
                attempt_ms: 120,
                metrics: registry.snapshot(),
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
        assert_eq!((stats.records, stats.cache_hits), (4, 7));
        assert_eq!((stats.store_hits, stats.store_misses), (2, 1));
        assert_eq!(parsed.shards[0].attempt_ms, 120);
        assert_eq!(parsed.shards[0].watchdog_kills, 1);
        assert_eq!(parsed.shards[0].backoff_ms, 250);
        let metrics = parsed.aggregate_metrics();
        assert_eq!(metrics.counter("cache_hits"), 7);
        assert_eq!(metrics.histogram("case_execute_ns").unwrap().count, 1);
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
    fn fields_every_manifest_carries_are_required() {
        let text = serde_json::to_string(&sample_manifest()).unwrap();
        for (field, error) in [
            (
                ",\"structure_store\":\"\"",
                "Manifest is missing `structure_store`",
            ),
            (",\"store_hits\":0", "ShardEntry is missing `store_hits`"),
            (
                ",\"store_misses\":0",
                "ShardEntry is missing `store_misses`",
            ),
            (",\"attempt_ms\":0", "ShardEntry is missing `attempt_ms`"),
            (
                ",\"watchdog_kills\":0",
                "ShardEntry is missing `watchdog_kills`",
            ),
            (",\"backoff_ms\":0", "ShardEntry is missing `backoff_ms`"),
        ] {
            let stripped = text.replacen(field, "", 1);
            assert_ne!(stripped, text, "{field} must have been present");
            let err = Manifest::from_json(&serde_json::from_str(&stripped).unwrap()).unwrap_err();
            assert!(err.ends_with(error), "{field}: {err}");
        }
    }

    fn reparse(manifest: &Manifest) -> Result<Manifest, String> {
        let text = serde_json::to_string(manifest).unwrap();
        Manifest::from_json(&serde_json::from_str(&text).unwrap())
    }

    #[test]
    fn inconsistent_shard_plans_are_rejected() {
        // The sample plans 10 cases as 0..4, 4..7, 7..10.
        assert_eq!(reparse(&sample_manifest()).unwrap(), sample_manifest());
        type Corruption = (&'static str, fn(&mut Manifest));
        let corruptions: [Corruption; 9] = [
            ("a shard numbered past the plan", |m| m.shards[1].shard = 7),
            ("shards out of position order", |m| m.shards.swap(0, 1)),
            ("a shard's start and end swapped", |m| {
                let entry = &mut m.shards[1];
                std::mem::swap(&mut entry.start, &mut entry.end);
            }),
            ("a plan not starting at case 0", |m| m.shards[0].start = 1),
            ("a gap between shards", |m| m.shards[1].start = 5),
            ("overlapping shards", |m| m.shards[2].start = 6),
            ("a plan ending past the run", |m| m.shards[2].end = 11),
            ("a plan ending short of the run", |m| m.total_cases = 11),
            ("a missing last shard", |m| {
                m.shards.pop();
            }),
        ];
        for (what, corrupt) in corruptions {
            let mut manifest = sample_manifest();
            corrupt(&mut manifest);
            assert!(reparse(&manifest).is_err(), "accepted {what}");
        }
    }

    #[test]
    fn attempts_beyond_u32_are_rejected() {
        let text = serde_json::to_string(&sample_manifest()).unwrap();
        for (attempts, fits) in [(u64::from(u32::MAX), true), (1 << 32, false)] {
            let tampered = text.replacen("\"attempts\":0", &format!("\"attempts\":{attempts}"), 1);
            assert_ne!(tampered, text);
            let parsed = Manifest::from_json(&serde_json::from_str(&tampered).unwrap());
            assert_eq!(parsed.is_ok(), fits, "attempts {attempts}: {parsed:?}");
        }
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
    fn spec_flags_cover_every_spec_field_in_order() {
        let spec = SpecParams {
            subcommand: "faults".into(),
            quick: true,
            sizes: Some(vec![9]),
            universe_factors: Some(vec![4]),
            reps: Some(2),
            seed: Some(3),
            structure_seeds: Some(4),
            fault_drops: Some(vec![100]),
            fault_crashes: Some(1),
            fault_churn: Some(2),
            fault_adversarial: true,
        };
        let json = spec.to_json();
        let fields = json.as_object().unwrap();
        assert_eq!(fields[0].0, "subcommand");
        assert_eq!(fields.len() - 1, SPEC_FLAGS.len());
        for ((field, value), flag) in fields[1..].iter().zip(&SPEC_FLAGS) {
            assert_eq!(field, flag.field);
            let kind = match value {
                Value::Bool(_) => SpecFlagKind::Switch,
                Value::Uint(_) => SpecFlagKind::Number,
                _ => SpecFlagKind::List,
            };
            assert_eq!(kind, flag.kind, "{field}");
        }
        // Every set field reaches the worker argv exactly once.
        let args = spec.worker_args(1, &plan_shards(4, 1)[0], 1, "");
        for flag in &SPEC_FLAGS {
            assert_eq!(args.iter().filter(|a| **a == flag.name()).count(), 1);
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let value = serde_json::from_str("{\"schema\":\"ring-distrib/v0\"}").unwrap();
        assert!(Manifest::from_json(&value).unwrap_err().contains("schema"));
        // The schema is checked before the fields: a foreign manifest that
        // is otherwise complete still fails on its schema.
        let text = serde_json::to_string(&sample_manifest()).unwrap();
        let foreign = text.replace(MANIFEST_SCHEMA, "ring-distrib/v2");
        let value = serde_json::from_str(&foreign).unwrap();
        assert!(Manifest::from_json(&value).unwrap_err().contains("schema"));
    }
}
