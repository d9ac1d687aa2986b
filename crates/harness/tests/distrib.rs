//! End-to-end properties of the distributed layer, exercised through the
//! real `ringlab` binary (`CARGO_BIN_EXE_ringlab`): sharded multi-process
//! sweeps must be byte-identical to single-process runs at any shard
//! count, crash-resume must converge to the same bytes, and per-shard
//! retry must mask one-off worker deaths.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The sweep every test runs: small enough for CI, mixed parities, more
/// cases than the largest shard count under test.
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

fn ringlab() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ringlab"));
    // Isolate from crash-injection hooks an outer environment might set.
    cmd.env_remove("RING_DISTRIB_FAIL_AFTER")
        .env_remove("RING_DISTRIB_FAIL_ONCE");
    cmd
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ringlab-distrib-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the single-process reference sweep (`--jobs 2`) into `dir`,
/// returning the JSONL bytes.
fn reference_bytes(dir: &Path) -> Vec<u8> {
    let out = dir.join("single.jsonl");
    let status = ringlab()
        .args(["sweep", "--jobs", "2", "--jsonl"])
        .arg(&out)
        .args(SPEC_FLAGS)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(status.success(), "single-process sweep failed");
    let bytes = std::fs::read(&out).unwrap();
    assert!(!bytes.is_empty());
    bytes
}

/// The acceptance property: for every shard count, orchestrated
/// multi-process output is byte-identical to the single-process run —
/// including `M = 7`, where the plan contains empty shards (6 cases).
#[test]
fn sharded_sweeps_are_byte_identical_for_every_shard_count() {
    let dir = temp_dir("shards");
    let reference = reference_bytes(&dir);
    for shards in [1usize, 2, 3, 7] {
        let out = dir.join(format!("sharded-{shards}.jsonl"));
        let run_dir = dir.join(format!("run-{shards}"));
        let status = ringlab()
            .args(["sweep", "--shards", &shards.to_string(), "--jsonl"])
            .arg(&out)
            .arg("--run-dir")
            .arg(&run_dir)
            .args(SPEC_FLAGS)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run ringlab");
        assert!(status.success(), "sharded sweep failed at M = {shards}");
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference,
            "sharded output diverged from the single-process run at M = {shards}"
        );
        // The run directory holds a complete manifest whose shard files
        // still verify.
        let mut manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.total_cases, 6, "3 sizes × table1+table2");
        assert!(manifest.revalidate_completed(&run_dir).unwrap().is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-partitioned `--shard i/M` runs on (conceptually) separate machines
/// merge into the same bytes via the standalone `merge` subcommand.
#[test]
fn manual_shard_slices_merge_to_the_reference_bytes() {
    let dir = temp_dir("slices");
    let reference = reference_bytes(&dir);
    let mut slices = Vec::new();
    for shard in 0..3 {
        let out = dir.join(format!("slice-{shard}.jsonl"));
        let status = ringlab()
            .args(["sweep", "--shard", &format!("{shard}/3"), "--jsonl"])
            .arg(&out)
            .args(SPEC_FLAGS)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run ringlab");
        assert!(status.success(), "slice {shard}/3 failed");
        slices.push(out);
    }
    let merged = dir.join("merged.jsonl");
    let status = ringlab()
        .arg("merge")
        .args(&slices)
        .arg("--jsonl")
        .arg(&merged)
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab merge");
    assert!(status.success(), "merge failed");
    assert_eq!(std::fs::read(&merged).unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing a worker mid-shard (the injected crash dies after one record,
/// without a done event) leaves a resumable directory: `resume` re-runs
/// only the broken shards and converges to the reference bytes.
#[test]
fn resume_after_a_mid_shard_crash_reaches_identical_bytes() {
    let dir = temp_dir("crash-resume");
    let reference = reference_bytes(&dir);
    let run_dir = dir.join("run");
    let out = dir.join("sharded.jsonl");

    // Every worker dies mid-shard; with the injection inherited by all
    // attempts, the orchestration must report failure.
    let status = ringlab()
        .args(["sweep", "--shards", "3", "--retries", "0", "--jsonl"])
        .arg(&out)
        .arg("--run-dir")
        .arg(&run_dir)
        .args(SPEC_FLAGS)
        .env("RING_DISTRIB_FAIL_AFTER", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(
        !status.success(),
        "orchestration must fail when every worker dies"
    );
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    assert!(!manifest.is_complete());
    assert!(
        !out.exists(),
        "no merged output may appear for a failed run"
    );

    // A healthy resume completes only the incomplete shards and merges.
    let resumed = dir.join("resumed.jsonl");
    let status = ringlab()
        .arg("resume")
        .arg(&run_dir)
        .arg("--jsonl")
        .arg(&resumed)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab resume");
    assert!(status.success(), "resume failed");
    assert_eq!(std::fs::read(&resumed).unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncating a completed shard file (a crash after the manifest said
/// `complete`, a partial copy, a bad disk) is caught by checksum
/// revalidation: `resume` re-runs exactly that shard.
#[test]
fn resume_revalidates_checksums_and_repairs_truncated_shards() {
    let dir = temp_dir("truncate-resume");
    let reference = reference_bytes(&dir);
    let run_dir = dir.join("run");
    let out = dir.join("sharded.jsonl");
    let status = ringlab()
        .args(["sweep", "--shards", "3", "--jsonl"])
        .arg(&out)
        .arg("--run-dir")
        .arg(&run_dir)
        .args(SPEC_FLAGS)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(status.success());

    // Drop the last line of shard 1.
    let shard1 = run_dir.join(ring_distrib::shard_file_name(1));
    let text = std::fs::read_to_string(&shard1).unwrap();
    let truncated: String = text
        .lines()
        .take(text.lines().count() - 1)
        .flat_map(|l| [l, "\n"])
        .collect();
    std::fs::write(&shard1, truncated).unwrap();

    let resumed = dir.join("resumed.jsonl");
    let status = ringlab()
        .arg("resume")
        .arg(&run_dir)
        .arg("--jsonl")
        .arg(&resumed)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab resume");
    assert!(status.success(), "resume failed");
    assert_eq!(std::fs::read(&resumed).unwrap(), reference);

    // Untouched shards kept their single attempt; shard 1 was re-run.
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    assert_eq!(manifest.shards[0].attempts, 1);
    assert_eq!(manifest.shards[1].attempts, 2);
    assert_eq!(manifest.shards[2].attempts, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that dies exactly once (marker-file injection) is masked by
/// the per-shard retry: the run still succeeds with identical bytes, and
/// the manifest records the extra attempt.
#[test]
fn per_shard_retry_masks_a_single_worker_death() {
    let dir = temp_dir("retry");
    let reference = reference_bytes(&dir);
    let run_dir = dir.join("run");
    let out = dir.join("sharded.jsonl");
    let marker = dir.join("crash-marker");
    let status = ringlab()
        .args(["sweep", "--shards", "2", "--retries", "1", "--jsonl"])
        .arg(&out)
        .arg("--run-dir")
        .arg(&run_dir)
        .args(SPEC_FLAGS)
        .env("RING_DISTRIB_FAIL_ONCE", &marker)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(
        status.success(),
        "retry should have masked the single death"
    );
    assert_eq!(std::fs::read(&out).unwrap(), reference);
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    let attempts: u32 = manifest.shards.iter().map(|s| s.attempts).sum();
    assert_eq!(attempts, 3, "one shard must have been launched twice");
    std::fs::remove_dir_all(&dir).ok();
}

/// The structure store must never change a byte of output: for every
/// shard count, an orchestrated sweep drawing all combinatorial structures
/// from one shared store directory is byte-identical to the storeless
/// single-process run — and once the first run has populated the store,
/// every later fleet reports zero store misses (each structure was
/// constructed once per *fleet*, then only ever loaded).
#[test]
fn structure_store_keeps_sharded_sweeps_byte_identical_and_hits_after_warmup() {
    let dir = temp_dir("store-shards");
    let reference = reference_bytes(&dir);
    let store = dir.join("shared-structures");
    for (pass, shards) in [1usize, 2, 3, 7].into_iter().enumerate() {
        let out = dir.join(format!("store-sharded-{shards}.jsonl"));
        let run_dir = dir.join(format!("store-run-{shards}"));
        let status = ringlab()
            .args(["sweep", "--shards", &shards.to_string(), "--jsonl"])
            .arg(&out)
            .arg("--run-dir")
            .arg(&run_dir)
            .arg("--structure-store")
            .arg(&store)
            .args(SPEC_FLAGS)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run ringlab");
        assert!(
            status.success(),
            "store-backed sweep failed at M = {shards}"
        );
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference,
            "store-backed output diverged from the storeless run at M = {shards}"
        );
        let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.structure_store, store.to_string_lossy());
        let stats = manifest.aggregate_metrics();
        if pass == 0 {
            assert!(
                stats.counter(ring_distrib::STORE_MISSES) > 0,
                "the first fleet must construct and publish"
            );
        } else {
            assert_eq!(
                stats.counter(ring_distrib::STORE_MISSES),
                0,
                "a warm store must serve every structure at M = {shards}"
            );
            assert!(
                stats.counter(ring_distrib::STORE_HITS) > 0,
                "the warm fleet never loaded"
            );
        }
    }
    // Every published file still proves itself (checksum + canonical form).
    for report in ring_harness::store::scan_store_dir(&store).unwrap() {
        assert!(
            report.error.is_none(),
            "{}: {:?}",
            report.path.display(),
            report.error
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-resume with the store enabled: a fleet that dies mid-shard leaves
/// a resumable run directory whose store is revalidated like its shard
/// files — a corrupted structure file is dropped and rebuilt, and the
/// resumed run still converges to the reference bytes with a healthy
/// store.
#[test]
fn resume_revalidates_the_structure_store_and_reaches_identical_bytes() {
    let dir = temp_dir("store-crash-resume");
    let reference = reference_bytes(&dir);
    let run_dir = dir.join("run");
    let out = dir.join("sharded.jsonl");
    let status = ringlab()
        .args(["sweep", "--shards", "3", "--retries", "0", "--jsonl"])
        .arg(&out)
        .arg("--run-dir")
        .arg(&run_dir)
        .arg("--structure-store")
        .args(SPEC_FLAGS)
        .env("RING_DISTRIB_FAIL_AFTER", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(
        !status.success(),
        "orchestration must fail when every worker dies"
    );

    // The bare flag defaults the store into the run directory, recorded in
    // the manifest for resume.
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    let store = std::path::PathBuf::from(&manifest.structure_store);
    assert_eq!(store, run_dir.join("structures"));

    // Corrupt whatever the dead fleet managed to publish (workers flush
    // structures as runs end, so the store may hold files even though every
    // shard failed); plant garbage regardless so revalidation has work.
    let mut corrupted = 0;
    for report in ring_harness::store::scan_store_dir(&store).unwrap() {
        let mut bytes = std::fs::read(&report.path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x20;
        std::fs::write(&report.path, bytes).unwrap();
        corrupted += 1;
    }
    std::fs::create_dir_all(&store).unwrap();
    std::fs::write(store.join("dist-u64-n4-s0000000000000000.blob"), b"junk").unwrap();
    corrupted += 1;
    assert!(corrupted >= 1);

    let resumed = dir.join("resumed.jsonl");
    let output = ringlab()
        .arg("resume")
        .arg(&run_dir)
        .arg("--jsonl")
        .arg(&resumed)
        .stdout(std::process::Stdio::null())
        .output()
        .expect("run ringlab resume");
    assert!(output.status.success(), "resume failed");
    assert_eq!(std::fs::read(&resumed).unwrap(), reference);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("failed revalidation"),
        "resume must report the dropped structure files; stderr:\n{stderr}"
    );
    // The healed store verifies clean end to end.
    for report in ring_harness::store::scan_store_dir(&store).unwrap() {
        assert!(report.error.is_none(), "{}", report.path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Spec flags of the seed-diverse variant: the same grid under the
/// per-case structure-seed schedule (K = 3 schedule seeds).
const SEEDED_SPEC_FLAGS: &[&str] = &[
    "--sizes",
    "9,8,12",
    "--universe-factors",
    "4",
    "--reps",
    "1",
    "--seed",
    "77",
    "--structure-seeds",
    "3",
];

/// Runs the single-process seed-diverse reference sweep into `dir`.
fn seeded_reference_bytes(dir: &Path) -> Vec<u8> {
    let out = dir.join("seeded-single.jsonl");
    let status = ringlab()
        .args(["sweep", "--jobs", "2", "--jsonl"])
        .arg(&out)
        .args(SEEDED_SPEC_FLAGS)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(status.success(), "single-process seeded sweep failed");
    let bytes = std::fs::read(&out).unwrap();
    assert!(!bytes.is_empty());
    bytes
}

/// The seed-diverse acceptance property: under the per-case structure-seed
/// schedule, orchestrated multi-process output (drawing every structure
/// from one shared v2 store) is byte-identical to the single-process run
/// at every shard count — and the schedule genuinely changes the measured
/// bytes relative to the fixed schedule.
#[test]
fn seed_diverse_sharded_sweeps_are_byte_identical_for_every_shard_count() {
    let dir = temp_dir("seeded-shards");
    let fixed_reference = reference_bytes(&dir);
    let reference = seeded_reference_bytes(&dir);
    assert_ne!(
        reference, fixed_reference,
        "the per-case schedule must actually diversify the structure seeds"
    );
    let store = dir.join("seeded-structures");
    for shards in [1usize, 2, 3, 7] {
        let out = dir.join(format!("seeded-sharded-{shards}.jsonl"));
        let run_dir = dir.join(format!("seeded-run-{shards}"));
        let status = ringlab()
            .args(["sweep", "--shards", &shards.to_string(), "--jsonl"])
            .arg(&out)
            .arg("--run-dir")
            .arg(&run_dir)
            .arg("--structure-store")
            .arg(&store)
            .args(SEEDED_SPEC_FLAGS)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run ringlab");
        assert!(
            status.success(),
            "seeded sharded sweep failed at M = {shards}"
        );
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference,
            "seed-diverse sharded output diverged at M = {shards}"
        );
        let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.spec.structure_seeds, Some(3));
        if shards > 1 {
            // Every fleet after the first runs against a warm store: the K
            // schedule seeds all resolve through already-published blobs.
            assert_eq!(
                manifest
                    .aggregate_metrics()
                    .counter(ring_distrib::STORE_MISSES),
                0,
                "a warm v2 store must serve every schedule seed at M = {shards}"
            );
        }
    }
    // K-seed diversity must not multiply the store: the strong kind shares
    // one universal blob per universe (2 even universes in the grid).
    let stats = ring_harness::store::store_dir_stats(&store).unwrap();
    assert_eq!(stats.strong.files, 2, "one strong blob per universe");
    for report in ring_harness::store::scan_store_dir(&store).unwrap() {
        assert!(report.error.is_none(), "{:?}", report);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-resume under the per-case seed schedule: a fleet that dies
/// mid-shard resumes — schedule and all recorded in the manifest — to the
/// exact single-process bytes.
#[test]
fn seed_diverse_crash_resume_reaches_identical_bytes() {
    let dir = temp_dir("seeded-crash-resume");
    let reference = seeded_reference_bytes(&dir);
    let run_dir = dir.join("run");
    let out = dir.join("sharded.jsonl");
    let status = ringlab()
        .args(["sweep", "--shards", "3", "--retries", "0", "--jsonl"])
        .arg(&out)
        .arg("--run-dir")
        .arg(&run_dir)
        .arg("--structure-store")
        .args(SEEDED_SPEC_FLAGS)
        .env("RING_DISTRIB_FAIL_AFTER", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(
        !status.success(),
        "orchestration must fail when every worker dies"
    );
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    assert_eq!(manifest.spec.structure_seeds, Some(3));

    let resumed = dir.join("resumed.jsonl");
    let status = ringlab()
        .arg("resume")
        .arg(&run_dir)
        .arg("--jsonl")
        .arg(&resumed)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab resume");
    assert!(status.success(), "seeded resume failed");
    assert_eq!(std::fs::read(&resumed).unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Spec flags of the faulty variant: the same grid under the
/// fault-injection layer (a clean and a lossy drop rate, one crash).
const FAULTY_SPEC_FLAGS: &[&str] = &[
    "--sizes",
    "9,8,12",
    "--universe-factors",
    "4",
    "--reps",
    "1",
    "--seed",
    "77",
    "--fault-drops",
    "0,100",
    "--fault-crashes",
    "1",
];

/// Runs the single-process faulty reference sweep (`--jobs 1`) into `dir`.
fn faulty_reference_bytes(dir: &Path) -> Vec<u8> {
    let out = dir.join("faulty-single.jsonl");
    let status = ringlab()
        .args(["faults", "--jobs", "1", "--jsonl"])
        .arg(&out)
        .args(FAULTY_SPEC_FLAGS)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(status.success(), "single-process faulty sweep failed");
    let bytes = std::fs::read(&out).unwrap();
    assert!(!bytes.is_empty());
    bytes
}

/// The robustness acceptance property: every fault sequence is a pure
/// function of the case seed and the fault parameters, so faulty sweeps are
/// byte-identical across `--jobs`, across every shard count, and with or
/// without a shared structure store.
#[test]
fn faulty_sharded_sweeps_are_byte_identical_for_every_shard_count() {
    let dir = temp_dir("faulty-shards");
    let reference = faulty_reference_bytes(&dir);

    // Thread-parallel single-process runs agree with the serial one.
    let jobs2 = dir.join("faulty-jobs2.jsonl");
    let status = ringlab()
        .args(["faults", "--jobs", "2", "--jsonl"])
        .arg(&jobs2)
        .args(FAULTY_SPEC_FLAGS)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(status.success(), "faulty --jobs 2 run failed");
    assert_eq!(
        std::fs::read(&jobs2).unwrap(),
        reference,
        "faulty output must not depend on --jobs"
    );

    let store = dir.join("faulty-structures");
    for shards in [1usize, 2, 3, 7] {
        let out = dir.join(format!("faulty-sharded-{shards}.jsonl"));
        let run_dir = dir.join(format!("faulty-run-{shards}"));
        let mut cmd = ringlab();
        cmd.args(["faults", "--shards", &shards.to_string(), "--jsonl"])
            .arg(&out)
            .arg("--run-dir")
            .arg(&run_dir);
        // Alternate store-backed and storeless fleets: neither may change
        // a byte.
        if shards % 2 == 0 {
            cmd.arg("--structure-store").arg(&store);
        }
        let status = cmd
            .args(FAULTY_SPEC_FLAGS)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run ringlab");
        assert!(
            status.success(),
            "faulty sharded sweep failed at M = {shards}"
        );
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference,
            "faulty sharded output diverged at M = {shards}"
        );
        let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.total_cases, 6, "2 drop rates × 3 sizes");
        assert_eq!(manifest.spec.fault_drops, Some(vec![0, 100]));
        assert_eq!(manifest.spec.fault_crashes, Some(1));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-resume mid-faulty-sweep: a fleet that dies after one record
/// leaves a resumable run directory whose manifest carries the fault axes,
/// and `resume` converges to the reference bytes.
#[test]
fn faulty_crash_resume_reaches_identical_bytes() {
    let dir = temp_dir("faulty-crash-resume");
    let reference = faulty_reference_bytes(&dir);
    let run_dir = dir.join("run");
    let out = dir.join("sharded.jsonl");
    let status = ringlab()
        .args(["faults", "--shards", "3", "--retries", "0", "--jsonl"])
        .arg(&out)
        .arg("--run-dir")
        .arg(&run_dir)
        .args(FAULTY_SPEC_FLAGS)
        .env("RING_DISTRIB_FAIL_AFTER", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab");
    assert!(
        !status.success(),
        "orchestration must fail when every worker dies"
    );
    let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
    assert!(!manifest.is_complete());
    assert_eq!(manifest.spec.fault_drops, Some(vec![0, 100]));

    let resumed = dir.join("resumed.jsonl");
    let status = ringlab()
        .arg("resume")
        .arg(&run_dir)
        .arg("--jsonl")
        .arg(&resumed)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run ringlab resume");
    assert!(status.success(), "faulty resume failed");
    assert_eq!(std::fs::read(&resumed).unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Merged output stays byte-identical at jobs {1, 2} × shards {1, 3}, with
/// and without a shared structure store, for the clean, the faulty and the
/// seed-diverse spec alike.
#[test]
fn sweeps_are_byte_identical_across_jobs_shards_and_stores_through_the_real_binary() {
    let dir = temp_dir("matrix");
    let clean_reference = reference_bytes(&dir);
    let faulty_reference = faulty_reference_bytes(&dir);
    let seeded_reference = seeded_reference_bytes(&dir);
    let variants: [(&str, &str, &[&str], &[u8]); 3] = [
        ("clean", "sweep", SPEC_FLAGS, &clean_reference),
        ("faulty", "faults", FAULTY_SPEC_FLAGS, &faulty_reference),
        ("seeded", "sweep", SEEDED_SPEC_FLAGS, &seeded_reference),
    ];
    for (tag, subcommand, spec, reference) in variants {
        // Single-process runs across thread counts.
        for jobs in [1usize, 2] {
            let out = dir.join(format!("{tag}-jobs{jobs}.jsonl"));
            let status = ringlab()
                .args([subcommand, "--jobs", &jobs.to_string(), "--jsonl"])
                .arg(&out)
                .args(spec)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .expect("run ringlab");
            assert!(status.success(), "{tag} --jobs {jobs} run failed");
            assert_eq!(
                std::fs::read(&out).unwrap(),
                reference,
                "{tag} output diverged at --jobs {jobs}"
            );
        }
        // Orchestrated fleets: storeless at M = 1, store-backed at M = 3.
        for shards in [1usize, 3] {
            let out = dir.join(format!("{tag}-shards{shards}.jsonl"));
            let run_dir = dir.join(format!("{tag}-run-{shards}"));
            let mut cmd = ringlab();
            cmd.args([subcommand, "--shards", &shards.to_string(), "--jsonl"])
                .arg(&out)
                .arg("--run-dir")
                .arg(&run_dir);
            if shards == 3 {
                cmd.arg("--structure-store")
                    .arg(dir.join(format!("{tag}-structures")));
            }
            let status = cmd
                .args(spec)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .expect("run ringlab");
            assert!(
                status.success(),
                "{tag} sharded sweep failed at M = {shards}"
            );
            assert_eq!(
                std::fs::read(&out).unwrap(),
                reference,
                "{tag} sharded output diverged at M = {shards}"
            );
            let manifest = ring_distrib::Manifest::load(&run_dir).unwrap();
            assert!(manifest.is_complete());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--jsonl -` streams records to stdout with the tables routed to stderr,
/// so piped output is pure JSONL — for sharded and single-process runs
/// alike.
#[test]
fn stdout_jsonl_stays_pure_when_tables_render() {
    let dir = temp_dir("stdout");
    let reference = reference_bytes(&dir);
    for extra in [
        &["--jobs", "2"][..],
        &["--shards", "2", "--retries", "0"][..],
    ] {
        let run_dir = dir.join("run-stdout");
        std::fs::remove_dir_all(&run_dir).ok();
        let output = ringlab()
            .args(["sweep", "--jsonl", "-"])
            .args(extra)
            .arg("--run-dir")
            .arg(&run_dir)
            .args(SPEC_FLAGS)
            .output()
            .expect("run ringlab");
        assert!(output.status.success());
        assert_eq!(
            output.stdout, reference,
            "stdout must carry exactly the JSONL stream"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("# Table I"),
            "tables must be routed to stderr when JSONL owns stdout"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
