//! The two-tier structure store (`structure-store/v3`).
//!
//! [`StructureStore`] is the structure pathway of every sweep: **tier 1**
//! is the in-memory sharded [`StructureCache`] (one per engine, shared by
//! every worker thread), **tier 2** an optional on-disk directory shared by
//! every worker *process* of a run — threads, shards on this machine, and
//! workers on other machines pointed at the same directory.
//!
//! Every structure is a pure function of its key, so the disk tier holds
//! exactly one self-describing file per key, flat in the store directory:
//!
//! ```text
//! <dir>/strong-u<N>.blob                     universal strong sequence of N
//! <dir>/dist-u<N>-n<n>-s<seed:016x>.blob     materialised distinguisher
//! <dir>/<name>.claim                         advisory single-constructor claim
//! ```
//!
//! Selective families are in neither tier: a family is a seed plus an
//! implicit membership function ([`ring_combinat::SelectiveFamily`]),
//! cheaper to build than to look up, so the default
//! [`StructureProvider::selective_family`] constructs it on every request.
//! A `select-…` file left by an older store is reported by
//! [`scan_store_dir`] and removed by [`gc_store_dir`].
//!
//! Each file's header carries its key (see [`ring_combinat::codec`]), and a
//! load checks it against the request, so a mis-filed file is never
//! served. The strong-distinguisher kind stores **one prefix-extendable
//! file per universe**: seeds are windows into one universal sequence
//! ([`ring_combinat::StrongBase`]), so a K-seed-diverse sweep shares one
//! file per `N` instead of publishing K near-full copies; a longer prefix
//! replaces a shorter one by atomic rename.
//!
//! A request walks the tiers in order: tier-1 hit → `Arc` clone; tier-1
//! miss → load the key's file (a **store hit**); nothing on disk →
//! construct (a **store miss**) and publish so the rest of the fleet loads
//! instead of constructing. Publication is atomic (temp file + rename, so a
//! reader that opened the old file keeps reading it whole) and guarded by
//! an advisory **single-constructor claim**: the first worker to create the
//! key's `.claim` file constructs, everyone else polls briefly; a stale
//! claim delays a waiter by at most [`CLAIM_WAIT`] and can never wedge a
//! sweep. Only the claimant clears a claim.
//!
//! Correctness never depends on the disk tier: every load is key-, digest-
//! and canonical-form-validated (a bad file is reconstructed and
//! republished over, surfaced as an error only on the fallible
//! [`StructureProvider`] path), and a loaded structure is bit-identical to
//! a fresh construction, so merged sweep output is byte-identical with or
//! without a store.

use crate::cache::{CacheStats, CachedStructure, StructureCache};
use ring_combinat::codec;
use ring_combinat::{
    Distinguisher, IdSet, SharedStrongDistinguisher, StrongBase, StructureKey, StructureKind,
};
use ring_protocols::structures::{StructureError, StructureProvider};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// File extension of structure files.
pub const BLOB_EXTENSION: &str = "blob";

/// Longest a worker waits for another constructor's publication before
/// constructing the structure itself. Doubles as the age past which a
/// claim or temp file counts as a crashed constructor's leftover.
pub const CLAIM_WAIT: Duration = Duration::from_secs(10);

/// Poll interval while waiting on a claimed key.
const CLAIM_POLL: Duration = Duration::from_millis(25);

thread_local! {
    /// Nanoseconds the calling thread has spent inside [`StructureProvider`]
    /// calls since the last [`reset_structure_wait`]. The engine brackets
    /// each case with reset/take to split case time into structure-wait
    /// vs. protocol execution.
    static STRUCTURE_WAIT_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Zeroes the calling thread's structure-wait accumulator.
pub(crate) fn reset_structure_wait() {
    STRUCTURE_WAIT_NS.with(|cell| cell.set(0));
}

/// Reads the calling thread's structure-wait accumulator.
pub(crate) fn take_structure_wait_ns() -> u64 {
    STRUCTURE_WAIT_NS.with(|cell| cell.get())
}

/// Runs one provider call, adding its duration to the calling thread's
/// structure-wait accumulator.
fn timed_wait<T>(body: impl FnOnce() -> T) -> T {
    let started = std::time::Instant::now();
    let value = body();
    STRUCTURE_WAIT_NS
        .with(|cell| cell.set(cell.get().saturating_add(ring_obs::elapsed_ns(started))));
    value
}

/// Short stable label for a structure kind (trace-field friendly).
fn kind_name(kind: StructureKind) -> &'static str {
    match kind {
        StructureKind::StrongDistinguisher => "strong",
        StructureKind::Distinguisher => "distinguisher",
        StructureKind::SelectiveFamily => "selective",
    }
}

/// Disk-tier effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize)]
pub struct StoreStats {
    /// Tier-2 lookups served by loading a published payload.
    pub hits: u64,
    /// Tier-2 lookups that fell through to construction.
    pub misses: u64,
}

/// The two-tier structure store (in-memory cache + optional disk tier).
#[derive(Debug)]
pub struct StructureStore {
    cache: StructureCache,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// One universal strong sequence per universe, shared by every seed's
    /// view — the in-memory counterpart of the one-file-per-universe disk
    /// layout.
    strong_bases: Mutex<HashMap<u64, Arc<StrongBase>>>,
    /// Universal prefix lengths already on disk, so `flush` republishes
    /// only sequences that grew.
    persisted_strong: Mutex<HashMap<u64, usize>>,
}

impl Default for StructureStore {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl StructureStore {
    /// A memory-only store (tier 1 alone) — the behaviour of the engine
    /// before the disk tier existed, and the default of
    /// [`SweepEngine::new`](crate::engine::SweepEngine::new).
    pub fn in_memory() -> Self {
        StructureStore {
            cache: StructureCache::new(),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            strong_bases: Mutex::new(HashMap::new()),
            persisted_strong: Mutex::new(HashMap::new()),
        }
    }

    /// A store backed by `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates the directory creation failure.
    pub fn at(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(StructureStore {
            dir: Some(dir),
            ..Self::in_memory()
        })
    }

    /// The disk-tier directory (`None` for a memory-only store).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The in-memory tier.
    pub fn cache(&self) -> &StructureCache {
        &self.cache
    }

    /// Tier-1 counters (thread-level sharing).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Tier-2 counters (process-level sharing); all zero for a memory-only
    /// store.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Counts a tier-2 hit and records the latency of the disk walk that
    /// produced it (from entering the walk to the successful decode).
    fn note_tier2_hit(&self, started: std::time::Instant) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        ring_obs::global()
            .histogram("store_tier2_hit_ns")
            .record(ring_obs::elapsed_ns(started));
    }

    /// The file name a key is stored under: `strong-u<N>.blob` for a
    /// universe's universal strong sequence, `<kind>-u<N>-n<n>-s<seed>.blob`
    /// for every other stored key, `None` for selective families (never
    /// stored).
    pub fn file_name(key: &StructureKey) -> Option<String> {
        if *key == Self::strong_universal_key(key.universe) {
            return Some(format!("strong-u{}.{BLOB_EXTENSION}", key.universe));
        }
        let tag = match key.kind {
            StructureKind::StrongDistinguisher => "strong",
            StructureKind::Distinguisher => "dist",
            StructureKind::SelectiveFamily => return None,
        };
        Some(format!(
            "{tag}-u{}-n{}-s{:016x}.{BLOB_EXTENSION}",
            key.universe, key.n, key.seed
        ))
    }

    /// The path of a stored key's file.
    fn path_of(dir: &Path, key: &StructureKey) -> PathBuf {
        dir.join(Self::file_name(key).expect("only stored kinds reach the disk tier"))
    }

    /// The key of a universe's **universal** strong sequence — the one file
    /// every strong seed of that universe resolves through.
    fn strong_universal_key(universe: u64) -> StructureKey {
        StructureKey {
            kind: StructureKind::StrongDistinguisher,
            universe,
            n: 0,
            seed: 0,
        }
    }

    /// Loads and fully validates the file of `key` (`Ok(None)` when absent)
    /// in one streaming pass — files run to hundreds of megabytes, so no
    /// whole-file buffer is ever materialised. One `open` pins one inode,
    /// so a concurrent rename-over never tears the read.
    fn load(path: &Path, key: &StructureKey) -> Result<Option<Vec<IdSet>>, String> {
        let file = match std::fs::File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let len = file
            .metadata()
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
        codec::decode_blob_stream(io::BufReader::new(file), len, key)
            .map(Some)
            .map_err(|e| format!("corrupt structure file {}: {e}", path.display()))
    }

    /// The tier-2 walk for a materialised structure: load, or wait out
    /// another constructor's claim, or construct-and-publish. Returns the
    /// structure plus the first tier error (corrupt file, failed publish) —
    /// which the infallible provider path logs and the fallible path
    /// surfaces. A bad file is never deleted here: the republication
    /// renames a good one over it.
    fn disk_or_construct<T>(
        &self,
        key: &StructureKey,
        decode: impl Fn(Vec<IdSet>) -> T,
        construct: impl FnOnce() -> T,
        payload: impl Fn(&T) -> Vec<Arc<IdSet>>,
    ) -> (T, Option<String>) {
        let construct = || {
            let _span = ring_obs::span!(
                "construct_structure",
                kind = kind_name(key.kind),
                universe = key.universe,
                n = key.n
            );
            construct()
        };
        let Some(dir) = self.dir.as_deref() else {
            return (construct(), None);
        };
        let started = std::time::Instant::now();
        let path = Self::path_of(dir, key);
        let mut tier_error = None;
        match Self::load(&path, key) {
            Ok(Some(sets)) => {
                self.note_tier2_hit(started);
                return (decode(sets), None);
            }
            Ok(None) => {}
            Err(e) => tier_error = Some(e),
        }

        // Single-constructor discipline: first claimant constructs, the
        // rest poll for its publication (bounded — a stale claim only
        // delays, never blocks).
        let claim = claim_path(&path);
        let claimed = try_claim(&claim);
        if claimed && tier_error.is_none() {
            // A racing constructor may have published (and cleared its own
            // claim) between our lookup and our claim; one re-check turns
            // that race into a load instead of a duplicate construction.
            if let Ok(Some(sets)) = Self::load(&path, key) {
                std::fs::remove_file(&claim).ok();
                self.note_tier2_hit(started);
                return (decode(sets), None);
            }
        }
        if !claimed && tier_error.is_none() {
            let deadline = std::time::Instant::now() + CLAIM_WAIT;
            loop {
                std::thread::sleep(CLAIM_POLL);
                match Self::load(&path, key) {
                    Ok(Some(sets)) => {
                        self.note_tier2_hit(started);
                        return (decode(sets), None);
                    }
                    Ok(None) => {}
                    Err(_) => break, // constructor published garbage; rebuild
                }
                if !claim.exists() || std::time::Instant::now() >= deadline {
                    break;
                }
            }
            // Last look before doing the work ourselves: the claimant may
            // have published between the poll and the deadline.
            if let Ok(Some(sets)) = Self::load(&path, key) {
                self.note_tier2_hit(started);
                return (decode(sets), None);
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = construct();
        let published = write_atomic(&path, &codec::encode_blob(key, &payload(&value)))
            .map_err(|e| format!("cannot publish {}: {e}", path.display()));
        // Whether or not the publication landed, a claimant is done with
        // the key: clear the claim so no other process waits out the full
        // CLAIM_WAIT. A caller that constructed without the claim (after a
        // tier error or a claim timeout) leaves it alone — it belongs to a
        // live constructor whose waiters would otherwise build duplicates.
        if claimed {
            std::fs::remove_file(&claim).ok();
        }
        if let Err(e) = published {
            tier_error.get_or_insert(e);
        }
        (value, tier_error)
    }

    /// The universal strong sequence of a universe, loading its published
    /// file on first touch (a **store hit**) or starting empty (a **store
    /// miss**). Every seed's view of this universe shares the returned
    /// base — in memory and on disk.
    fn strong_base(&self, universe: u64) -> (Arc<StrongBase>, Option<String>) {
        if let Some(base) = self
            .strong_bases
            .lock()
            .expect("strong bases map")
            .get(&universe)
        {
            return (Arc::clone(base), None);
        }
        // Resolve outside the map lock (the load may read a large file);
        // racing threads resolve independently and the first insert wins.
        let mut tier_error = None;
        let mut loaded = None;
        if let Some(dir) = &self.dir {
            let started = std::time::Instant::now();
            let key = Self::strong_universal_key(universe);
            match Self::load(&Self::path_of(dir, &key), &key) {
                Ok(Some(sets)) => {
                    self.note_tier2_hit(started);
                    self.persisted_strong
                        .lock()
                        .expect("persisted map")
                        .insert(universe, sets.len());
                    loaded = Some(StrongBase::with_prefix(universe, sets));
                }
                Ok(None) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    tier_error = Some(e);
                }
            }
        }
        let candidate = Arc::new(loaded.unwrap_or_else(|| StrongBase::new(universe)));
        let mut map = self.strong_bases.lock().expect("strong bases map");
        let base = map.entry(universe).or_insert(candidate);
        (Arc::clone(base), tier_error)
    }

    /// Persists every universal strong prefix that grew beyond what the
    /// store holds. Called by the engine after each run; safe to call
    /// concurrently from many processes: prefixes are prefixes of one
    /// deterministic universal sequence, writes are atomic renames, and
    /// each rewrite is claim-guarded with an on-disk re-check under the
    /// claim — a shorter prefix never replaces a longer valid one. Returns
    /// the number of files published.
    ///
    /// # Errors
    ///
    /// Returns the first publication failure (remaining universes are still
    /// attempted).
    pub fn flush(&self) -> Result<usize, StructureError> {
        let Some(dir) = self.dir.as_deref() else {
            return Ok(0);
        };
        let mut written = 0;
        let mut first_error = None;
        let bases: Vec<(u64, Arc<StrongBase>)> = {
            let map = self.strong_bases.lock().expect("strong bases map");
            map.iter().map(|(u, b)| (*u, Arc::clone(b))).collect()
        };
        for (universe, base) in bases {
            let sets = base.materialized();
            let persist = |len: usize| {
                let mut map = self.persisted_strong.lock().expect("persisted map");
                map.insert(universe, len);
            };
            let stored = {
                let map = self.persisted_strong.lock().expect("persisted map");
                map.get(&universe).copied().unwrap_or(0)
            };
            if sets.len() <= stored {
                continue;
            }
            let key = Self::strong_universal_key(universe);
            let path = Self::path_of(dir, &key);
            // Serialise concurrent flushers of this universe: the loser
            // defers — unless the claim has outlived [`CLAIM_WAIT`], in
            // which case its holder is dead (strong files are published
            // only by flush, so nothing else would ever clear it) and it is
            // broken here.
            let claim = claim_path(&path);
            let mut claimed = try_claim(&claim);
            if !claimed && is_stale(&claim) {
                std::fs::remove_file(&claim).ok();
                claimed = try_claim(&claim);
            }
            if !claimed {
                continue;
            }
            // Under the claim, a valid prefix on disk at least as long as
            // ours wins (a corrupt one counts as empty and is replaced).
            let on_disk = stored_count(&path, &key);
            if on_disk >= sets.len() {
                persist(on_disk);
            } else {
                match write_atomic(&path, &codec::encode_blob(&key, &sets)) {
                    Ok(()) => {
                        written += 1;
                        persist(sets.len());
                    }
                    Err(e) => {
                        first_error.get_or_insert(StructureError::new(format!(
                            "cannot publish {}: {e}",
                            path.display()
                        )));
                    }
                }
            }
            std::fs::remove_file(&claim).ok();
        }
        match first_error {
            None => Ok(written),
            Some(e) => Err(e),
        }
    }

    /// The strong-distinguisher walk: tier-1 memo, then the shared
    /// universal base (loaded from its per-universe blob on first touch),
    /// then a seed-windowed view onto it. Publication happens in
    /// [`StructureStore::flush`].
    fn strong(&self, universe: u64, seed: u64) -> (Arc<SharedStrongDistinguisher>, Option<String>) {
        let key = StructureKey {
            kind: StructureKind::StrongDistinguisher,
            universe,
            n: 0,
            seed,
        };
        if let Some(cached) = self.cache.peek(&key) {
            match cached {
                CachedStructure::Strong(s) => return (s, None),
                _ => unreachable!("kind is part of the key"),
            }
        }
        let (base, tier_error) = self.strong_base(universe);
        let value = Arc::new(SharedStrongDistinguisher::with_base(seed, base));
        match self
            .cache
            .get_or_insert(key, || CachedStructure::Strong(value))
        {
            CachedStructure::Strong(s) => (s, tier_error),
            _ => unreachable!("kind is part of the key"),
        }
    }

    fn materialised_distinguisher(
        &self,
        universe: u64,
        n: usize,
        seed: u64,
    ) -> (Arc<Distinguisher>, Option<String>) {
        let key = StructureKey {
            kind: StructureKind::Distinguisher,
            universe,
            n: n as u64,
            seed,
        };
        if let Some(cached) = self.cache.peek(&key) {
            match cached {
                CachedStructure::Distinguisher(d) => return (d, None),
                _ => unreachable!("kind is part of the key"),
            }
        }
        // Resolved outside any shard lock: the disk walk may sleep waiting
        // on another process's claim, and that must never block unrelated
        // keys of the same cache shard.
        let (value, tier_error) = self.disk_or_construct(
            &key,
            |sets| Arc::new(Distinguisher::from_sets(universe, n, sets)),
            || Arc::new(Distinguisher::random(universe, n, seed)),
            |d| d.sets().iter().cloned().map(Arc::new).collect(),
        );
        match self
            .cache
            .get_or_insert(key, || CachedStructure::Distinguisher(value))
        {
            CachedStructure::Distinguisher(d) => (d, tier_error),
            _ => unreachable!("kind is part of the key"),
        }
    }
}

/// Logs a non-fatal disk-tier problem (the infallible provider path: the
/// structure was still served, from reconstruction).
fn log_tier_error(error: &Option<String>) {
    if let Some(error) = error {
        eprintln!("ring-harness: structure store: {error} (reconstructed)");
    }
}

fn fail_on_tier_error<T>(value: T, error: Option<String>) -> Result<T, StructureError> {
    match error {
        None => Ok(value),
        Some(e) => Err(StructureError::new(e)),
    }
}

impl StructureProvider for StructureStore {
    fn strong_distinguisher(&self, universe: u64, seed: u64) -> Arc<SharedStrongDistinguisher> {
        timed_wait(|| {
            let (value, error) = self.strong(universe, seed);
            log_tier_error(&error);
            value
        })
    }

    fn distinguisher(&self, universe: u64, n: usize, seed: u64) -> Arc<Distinguisher> {
        timed_wait(|| {
            let (value, error) = self.materialised_distinguisher(universe, n, seed);
            log_tier_error(&error);
            value
        })
    }

    fn try_strong_distinguisher(
        &self,
        universe: u64,
        seed: u64,
    ) -> Result<Arc<SharedStrongDistinguisher>, StructureError> {
        timed_wait(|| {
            let (value, error) = self.strong(universe, seed);
            fail_on_tier_error(value, error)
        })
    }

    fn try_distinguisher(
        &self,
        universe: u64,
        n: usize,
        seed: u64,
    ) -> Result<Arc<Distinguisher>, StructureError> {
        timed_wait(|| {
            let (value, error) = self.materialised_distinguisher(universe, n, seed);
            fail_on_tier_error(value, error)
        })
    }
}

/// Writes bytes atomically next to `path` (process-unique temp + rename).
/// The temp name is unique per call — pid plus a process-wide sequence
/// number — so concurrent publishers never write through the same path.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static PUBLISH_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = PUBLISH_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The number of sets the valid file of `key` at `path` holds (0 when it
/// is absent, corrupt or holds another key).
fn stored_count(path: &Path, key: &StructureKey) -> usize {
    let Ok(file) = std::fs::File::open(path) else {
        return 0;
    };
    let Ok(meta) = file.metadata() else {
        return 0;
    };
    match codec::validate_blob_stream(io::BufReader::new(file), meta.len()) {
        Ok(summary) if summary.key == *key => summary.count,
        _ => 0,
    }
}

/// The claim-file path guarding a key's construction.
fn claim_path(path: &Path) -> PathBuf {
    path.with_extension("claim")
}

/// Attempts to create the claim file atomically; `true` = this caller now
/// holds the claim.
fn try_claim(claim: &Path) -> bool {
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(claim)
        .is_ok()
}

/// Whether a claim or temp file has outlived [`CLAIM_WAIT`] (its writer is
/// presumed dead). A file whose age cannot be determined is treated as
/// live — waiting is always safe, wrongly breaking a claim is not.
fn is_stale(path: &Path) -> bool {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|modified| std::time::SystemTime::now().duration_since(modified).ok())
        .is_some_and(|age| age > CLAIM_WAIT)
}

/// One file's verdict from a store-directory scan.
#[derive(Clone, Debug)]
pub struct StoreFileReport {
    /// The file scanned.
    pub path: PathBuf,
    /// The key its header declares (`None` when the file does not validate).
    pub key: Option<StructureKey>,
    /// Number of sets the file holds (valid files only).
    pub sets: usize,
    /// Why the file is invalid (`None` = fully valid).
    pub error: Option<String>,
}

/// Validates every structure file of a store directory (streamed, constant
/// memory): each must decode cleanly and be filed under the name of the key
/// its header declares. A missing directory scans as empty (a run that
/// never published is a valid, empty store).
///
/// # Errors
///
/// Propagates directory-listing I/O failures (per-file problems are
/// reported, not raised).
pub fn scan_store_dir(dir: &Path) -> io::Result<Vec<StoreFileReport>> {
    let mut reports = Vec::new();
    for path in list_with_extension(dir, BLOB_EXTENSION)? {
        let validated = std::fs::File::open(&path)
            .and_then(|file| Ok((file.metadata()?.len(), file)))
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|(len, file)| {
                codec::validate_blob_stream(io::BufReader::new(file), len)
                    .map_err(|e| e.to_string())
            });
        let report = match validated {
            Ok(summary) => {
                let error = match StructureStore::file_name(&summary.key) {
                    None => Some(format!(
                        "file holds {:?}; selective families are implicit and never stored",
                        summary.key
                    )),
                    Some(expected) if path.file_name() != Some(expected.as_ref()) => Some(format!(
                        "file holds {:?}, which belongs in {expected}",
                        summary.key
                    )),
                    Some(_) => None,
                };
                StoreFileReport {
                    path,
                    key: Some(summary.key),
                    sets: summary.count,
                    error,
                }
            }
            Err(error) => StoreFileReport {
                path,
                key: None,
                sets: 0,
                error: Some(error),
            },
        };
        reports.push(report);
    }
    Ok(reports)
}

/// Lists the files of one extension in a directory, sorted (missing
/// directory = empty).
fn list_with_extension(dir: &Path, extension: &str) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(extension) {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Removes the `*.tmp` / `*.claim` leftovers of crashed constructors from a
/// store directory. `resume` runs this before re-launching workers — an
/// orphaned claim would otherwise stall every re-launched worker's first
/// lookup of that key for the full [`CLAIM_WAIT`]. Only files older than
/// that same grace period are touched: a *young* temp file may be a
/// concurrent publisher's in-flight write (gc is safe to run against a live
/// fleet), and a young claim delays nobody beyond the wait it already
/// bounds. Returns the number removed; a missing directory sweeps as zero.
///
/// # Errors
///
/// Propagates directory-listing and removal I/O failures.
pub fn sweep_stale_files(dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for extension in ["claim", "tmp"] {
        for path in list_with_extension(dir, extension)? {
            if is_stale(&path) {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
    }
    Ok(removed)
}

/// Removes every invalid file in `dir` (what `resume` runs before
/// re-launching workers — like shard revalidation, a file that no longer
/// proves itself is dropped and rebuilt, never trusted). Returns the
/// removed paths.
///
/// # Errors
///
/// Propagates directory-listing and removal I/O failures.
pub fn revalidate_store_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut removed = Vec::new();
    for report in scan_store_dir(dir)? {
        if report.error.is_some() {
            std::fs::remove_file(&report.path)?;
            removed.push(report.path);
        }
    }
    Ok(removed)
}

/// Garbage-collection report of [`gc_store_dir`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Invalid or mis-filed structure files removed.
    pub corrupt: usize,
    /// Stale `*.tmp` / `*.claim` leftovers removed.
    pub stale: usize,
    /// Valid files kept.
    pub kept: usize,
}

/// Cleans a store directory: removes the `*.tmp` / `*.claim` leftovers of
/// crashed constructors and every file that no longer proves itself, and
/// keeps the rest. A live structure is never removed: publication renames
/// a complete file into place, so a scan sees either the old valid file or
/// the new one.
///
/// # Errors
///
/// Propagates directory-listing and removal I/O failures.
pub fn gc_store_dir(dir: &Path) -> io::Result<GcReport> {
    let stale = sweep_stale_files(dir)?;
    let corrupt = revalidate_store_dir(dir)?.len();
    Ok(GcReport {
        corrupt,
        stale,
        kept: list_with_extension(dir, BLOB_EXTENSION)?.len(),
    })
}

/// One kind's usage in a store directory.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct KindStats {
    /// Structure files of the kind.
    pub files: usize,
    /// Their total bytes.
    pub bytes: u64,
}

/// Store-wide usage statistics, per kind plus totals (the `ringlab
/// structures stats` report).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct StoreDirStats {
    /// Universal strong sequences (one per universe; seed views share it).
    pub strong: KindStats,
    /// Materialised distinguishers.
    pub dist: KindStats,
    /// Total bytes of all structure files.
    pub total_bytes: u64,
}

/// Counts the files and bytes of each kind in a store directory, by file
/// name (`verify` is what judges their contents).
///
/// # Errors
///
/// Propagates directory-listing I/O failures.
pub fn store_dir_stats(dir: &Path) -> io::Result<StoreDirStats> {
    let mut stats = StoreDirStats::default();
    for path in list_with_extension(dir, BLOB_EXTENSION)? {
        let Ok(bytes) = std::fs::metadata(&path).map(|m| m.len()) else {
            continue;
        };
        stats.total_bytes += bytes;
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let kind = match name.split('-').next() {
            Some("strong") => &mut stats.strong,
            Some("dist") => &mut stats.dist,
            _ => continue,
        };
        kind.files += 1;
        kind.bytes += bytes;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_protocols::structures::FreshStructures;

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ring-harness-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn dist_key(universe: u64, n: u64, seed: u64) -> StructureKey {
        StructureKey {
            kind: StructureKind::Distinguisher,
            universe,
            n,
            seed,
        }
    }

    /// Runs `ringlab structures <action>` against `dir`.
    fn structures(action: &str, dir: &Path) -> i32 {
        let mut args = ["structures", action, "--structure-store"]
            .map(String::from)
            .to_vec();
        args.push(dir.to_string_lossy().into_owned());
        crate::cli::run(&args)
    }

    fn backdate(path: &Path) {
        assert!(std::process::Command::new("touch")
            .args(["-m", "-d", "2 hours ago"])
            .arg(path)
            .status()
            .map(|s| s.success())
            .unwrap_or(false));
    }

    #[test]
    fn memory_only_store_behaves_like_the_cache() {
        let store = StructureStore::in_memory();
        let a = store.distinguisher(256, 4, 9);
        let b = store.distinguisher(256, 4, 9);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.cache_stats().hits, 1);
        assert_eq!(store.stats(), StoreStats::default());
        assert!(store.dir().is_none());
        assert_eq!(store.flush().unwrap(), 0);
    }

    #[test]
    fn disk_tier_publishes_and_second_store_loads() {
        let dir = temp_store("publish");
        let first = StructureStore::at(&dir).unwrap();
        let constructed = first.distinguisher(512, 4, 7);
        let wider = first.distinguisher(512, 8, 7);
        assert_eq!(first.stats(), StoreStats { hits: 0, misses: 2 });
        // Selective families bypass both tiers: no store event, no file.
        first.selective_family(512, 4, 7);
        assert_eq!(first.stats(), StoreStats { hits: 0, misses: 2 });
        assert_eq!(first.cache_stats().misses, 2);
        assert_eq!(list_with_extension(&dir, BLOB_EXTENSION).unwrap().len(), 2);

        // A second store (a second worker process) loads instead of
        // constructing, bit-identically.
        let second = StructureStore::at(&dir).unwrap();
        let loaded = second.distinguisher(512, 4, 7);
        assert_eq!(*loaded, *constructed);
        assert_eq!(*second.distinguisher(512, 8, 7), *wider);
        assert_eq!(second.stats(), StoreStats { hits: 2, misses: 0 });

        // And everything equals a fresh construction.
        let fresh = FreshStructures;
        assert_eq!(*loaded, *fresh.distinguisher(512, 4, 7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strong_prefixes_flush_and_reload_shared_across_seeds() {
        let dir = temp_store("strong");
        let first = StructureStore::at(&dir).unwrap();
        let strong = first.strong_distinguisher(1 << 10, 3);
        for i in 0..6 {
            strong.set(i);
        }
        assert_eq!(first.stats(), StoreStats { hits: 0, misses: 1 });
        assert_eq!(first.flush().unwrap(), 1);
        // Nothing grew: the second flush writes nothing.
        assert_eq!(first.flush().unwrap(), 0);
        strong.set(9);
        assert_eq!(first.flush().unwrap(), 1);

        let second = StructureStore::at(&dir).unwrap();
        let reloaded = second.strong_distinguisher(1 << 10, 3);
        assert_eq!(second.stats(), StoreStats { hits: 1, misses: 0 });
        assert_eq!(reloaded.materialized_len(), 10);
        // Prefix sets and lazily generated continuations both match.
        let fresh = FreshStructures.strong_distinguisher(1 << 10, 3);
        for i in 0..12 {
            assert_eq!(*reloaded.set(i), *fresh.set(i), "set {i}");
        }
        // A *different* seed of the same universe is served from the same
        // universal file — no extra disk event, no extra file.
        let other = second.strong_distinguisher(1 << 10, 77);
        assert_eq!(second.stats(), StoreStats { hits: 1, misses: 0 });
        assert_eq!(
            *other.set(0),
            *FreshStructures.strong_distinguisher(1 << 10, 77).set(0)
        );
        let files = list_with_extension(&dir, BLOB_EXTENSION).unwrap();
        assert_eq!(
            files,
            [dir.join("strong-u1024.blob")],
            "one file per universe"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_never_replaces_a_longer_stored_prefix() {
        let dir = temp_store("prefix-race");
        // Two workers start before any file exists (both miss), then
        // materialise different prefix lengths of the same universal
        // sequence.
        let a = StructureStore::at(&dir).unwrap();
        let b = StructureStore::at(&dir).unwrap();
        let sa = a.strong_distinguisher(512, 5);
        let sb = b.strong_distinguisher(512, 5);
        for i in 0..12 {
            sa.set(i);
        }
        for i in 0..3 {
            sb.set(i);
        }
        assert_eq!(a.flush().unwrap(), 1);
        // The shorter prefix must not clobber the longer published one.
        assert_eq!(b.flush().unwrap(), 0);
        let c = StructureStore::at(&dir).unwrap();
        let reloaded = c.strong_distinguisher(512, 5);
        assert!(reloaded.materialized_len() >= 12);
        assert_eq!(list_with_extension(&dir, BLOB_EXTENSION).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_strong_file_is_replaced_by_the_next_flush() {
        let dir = temp_store("strong-corrupt");
        let first = StructureStore::at(&dir).unwrap();
        let strong = first.strong_distinguisher(512, 1);
        for i in 0..8 {
            strong.set(i);
        }
        assert_eq!(first.flush().unwrap(), 1);
        // Flip one payload byte: the header still claims 8 sets.
        let path = dir.join("strong-u512.blob");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let second = StructureStore::at(&dir).unwrap();
        let err = second.try_strong_distinguisher(512, 1).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        let strong = second.strong_distinguisher(512, 1);
        strong.set(2);
        // The corrupt file counts as empty, so a shorter valid prefix wins.
        assert_eq!(second.flush().unwrap(), 1);
        let third = StructureStore::at(&dir).unwrap();
        assert!(third.try_strong_distinguisher(512, 1).is_ok());
        assert_eq!(third.stats(), StoreStats { hits: 1, misses: 0 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_are_rebuilt_and_surfaced_on_the_fallible_path() {
        let dir = temp_store("corrupt");
        let first = StructureStore::at(&dir).unwrap();
        let good = first.distinguisher(256, 4, 5);
        let path = StructureStore::path_of(&dir, &dist_key(256, 4, 5));
        // Flip one payload byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        // The fallible path reports the corruption; the returned structure
        // is still the correct reconstruction.
        let second = StructureStore::at(&dir).unwrap();
        let err = second.try_distinguisher(256, 4, 5).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert_eq!(second.stats(), StoreStats { hits: 0, misses: 1 });

        // ...and it republished a healthy file: a third store loads.
        let third = StructureStore::at(&dir).unwrap();
        assert_eq!(*third.try_distinguisher(256, 4, 5).unwrap(), *good);
        assert_eq!(third.stats(), StoreStats { hits: 1, misses: 0 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_the_claimant_clears_a_claim() {
        let dir = temp_store("foreign-claim");
        let store = StructureStore::at(&dir).unwrap();
        // Another constructor holds the key's claim, and the key's file is
        // corrupt: this caller constructs without the claim...
        let path = StructureStore::path_of(&dir, &dist_key(128, 4, 3));
        let claim = claim_path(&path);
        std::fs::write(&claim, b"").unwrap();
        std::fs::write(&path, b"not a structure file").unwrap();
        assert!(store.try_distinguisher(128, 4, 3).is_err());
        // ...and must leave the other constructor's claim in place.
        assert!(claim.exists(), "a non-claimant removed a live claim");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_misfiled_file_is_reported_and_never_served() {
        let dir = temp_store("misfiled");
        let store = StructureStore::at(&dir).unwrap();
        store.distinguisher(128, 4, 1);
        // A valid file copied under another key's name.
        let (a, b) = (dist_key(128, 4, 1), dist_key(128, 4, 2));
        let misfiled = StructureStore::path_of(&dir, &b);
        std::fs::copy(StructureStore::path_of(&dir, &a), &misfiled).unwrap();

        let reports = scan_store_dir(&dir).unwrap();
        let report = reports.iter().find(|r| r.path == misfiled).unwrap();
        assert_eq!(report.key, Some(a));
        assert!(report.error.is_some(), "{report:?}");
        assert_eq!(
            structures("verify", &dir),
            1,
            "verify must fail on a mis-filed file"
        );

        // Never served: the store counts a miss and rebuilds the right key.
        let second = StructureStore::at(&dir).unwrap();
        let err = second.try_distinguisher(128, 4, 2).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert_eq!(second.stats(), StoreStats { hits: 0, misses: 1 });
        assert_eq!(
            *second.distinguisher(128, 4, 2),
            *FreshStructures.distinguisher(128, 4, 2)
        );
        // The rebuild republished over the mis-filed copy.
        assert_eq!(structures("verify", &dir), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_revalidate_and_gc_partition_the_directory() {
        let dir = temp_store("scan");
        let store = StructureStore::at(&dir).unwrap();
        store.distinguisher(128, 4, 1);
        store.distinguisher(128, 8, 1);
        // A garbage file, a truncated structure file, a stale claim and a
        // stale temp file.
        let valid = std::fs::read(StructureStore::path_of(&dir, &dist_key(128, 4, 1)));
        let valid = valid.unwrap();
        std::fs::write(dir.join("dist-u64-n2-s0000000000000005.blob"), b"junk").unwrap();
        std::fs::write(
            StructureStore::path_of(&dir, &dist_key(128, 4, 9)),
            &valid[..valid.len() - 8],
        )
        .unwrap();
        let claim = dir.join("dist-u64-n2-s0000000000000003.claim");
        let leftover = dir.join("dist-u64-n2-s0000000000000003.1-2.tmp");
        std::fs::write(&claim, b"").unwrap();
        std::fs::write(&leftover, b"").unwrap();
        // Young tmp/claim files belong to live publishers and survive a
        // sweep; backdated past the claim grace they are leftovers.
        assert_eq!(sweep_stale_files(&dir).unwrap(), 0);
        backdate(&claim);
        backdate(&leftover);

        let reports = scan_store_dir(&dir).unwrap();
        // 2 files from the real structures, plus 2 bad files.
        assert_eq!(reports.len(), 4);
        assert_eq!(reports.iter().filter(|r| r.error.is_some()).count(), 2);

        let gc = gc_store_dir(&dir).unwrap();
        assert_eq!(
            gc,
            GcReport {
                corrupt: 2,
                stale: 2,
                kept: 2
            }
        );
        // Post-gc the directory verifies clean.
        assert!(revalidate_store_dir(&dir).unwrap().is_empty());
        let stats = store_dir_stats(&dir).unwrap();
        assert_eq!((stats.dist.files, stats.strong.files), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_leftover_selective_family_file_is_reported_and_collected() {
        let dir = temp_store("select-leftover");
        let store = StructureStore::at(&dir).unwrap();
        store.distinguisher(128, 4, 1);
        // A valid structure file of a selective family, as older stores
        // published them.
        let key = StructureKey {
            kind: StructureKind::SelectiveFamily,
            universe: 128,
            n: 4,
            seed: 1,
        };
        assert_eq!(StructureStore::file_name(&key), None);
        let leftover = dir.join("select-u128-n4-s0000000000000001.blob");
        let sets = ring_combinat::SelectiveFamily::random(128, 4, 1).sets();
        std::fs::write(&leftover, codec::encode_blob(&key, &sets)).unwrap();

        let reports = scan_store_dir(&dir).unwrap();
        let report = reports.iter().find(|r| r.path == leftover).unwrap();
        assert_eq!(report.key, Some(key));
        assert!(
            report.error.as_deref().unwrap().contains("never stored"),
            "{report:?}"
        );
        assert_eq!(structures("verify", &dir), 1);
        assert_eq!(structures("gc", &dir), 0);
        assert!(
            !leftover.exists(),
            "gc must remove the selective-family file"
        );
        assert_eq!(structures("verify", &dir), 0);
        assert_eq!(list_with_extension(&dir, BLOB_EXTENSION).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_stores_converge_with_one_construction_fleetwide() {
        let dir = temp_store("fleet");
        // Several "processes" (independent stores sharing one directory)
        // race on the same key; the claim discipline lets one construct and
        // the rest load, and everyone agrees bit for bit.
        let stores: Vec<_> = (0..4)
            .map(|_| Arc::new(StructureStore::at(&dir).unwrap()))
            .collect();
        let handles: Vec<_> = stores
            .iter()
            .map(|store| {
                let store = Arc::clone(store);
                std::thread::spawn(move || store.distinguisher(1 << 12, 8, 42))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| *w[0] == *w[1]));
        let misses: u64 = stores.iter().map(|s| s.stats().misses).sum();
        let hits: u64 = stores.iter().map(|s| s.stats().hits).sum();
        assert_eq!(hits + misses, 4);
        assert!(misses >= 1, "someone must have constructed");
        assert_eq!(
            misses, 1,
            "the claim discipline must keep construction fleet-unique"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
