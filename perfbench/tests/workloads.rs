//! The workload generator, the output check, the order statistics and the
//! span budget.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the reference-digest test is skipped without optimisation.

use perfbench::stats::{median, percentile, quartiles};
use perfbench::trace::Tracer;
use perfbench::workload::{check_output, digest, Workload};
use ring_experiments::SweepSpec;
use ring_harness::scenario::table1_items;
use ring_harness::{JsonlSink, SweepEngine};

fn item_list(workload: Workload, seed: u64) -> String {
    format!("{:?}", workload.items(seed))
}

#[test]
fn the_same_seed_gives_the_same_items_and_fingerprint() {
    for workload in Workload::ALL {
        assert_eq!(item_list(workload, 7), item_list(workload, 7));
        assert_eq!(workload.fingerprint(7), workload.fingerprint(7));
        assert_eq!(workload.submit_body(7, 2), workload.submit_body(7, 2));
        assert_ne!(workload.fingerprint(7), workload.fingerprint(8));
    }
}

#[test]
fn a_different_seed_gives_different_case_seeds() {
    for workload in Workload::ALL {
        let seeds = |seed| -> Vec<u64> { workload.items(seed).iter().map(|i| i.seed()).collect() };
        let (a, b) = (seeds(1), seeds(2));
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().all(|s| !b.contains(s)),
            "{}: seeds 1 and 2 share case seeds",
            workload.name()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every workload twice; use cargo test --release"
)]
fn the_same_seed_gives_the_same_reference_digest() {
    for workload in Workload::ALL {
        let first = workload.reference_output(3);
        assert_eq!(digest(&first), digest(&workload.reference_output(3)));
        let cases = workload.items(3).len();
        assert_eq!(check_output(&first, &first, cases).failed, 0);
    }
}

/// Each workload `BENCHMARK.json` lists, with the case count its `why`
/// states ("96 cases: …").
fn listed_case_counts() -> Vec<(String, usize)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let listed = spec.get("workloads").and_then(serde::Value::as_array);
    listed
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(serde::Value::as_str).unwrap_or("");
            let why = w.get("why").and_then(serde::Value::as_str).unwrap_or("");
            let count = why.split_whitespace().next().and_then(|n| n.parse().ok());
            let count = count
                .unwrap_or_else(|| panic!("the why of {name} does not start with its case count"));
            (name.to_string(), count)
        })
        .collect()
}

#[test]
fn every_workload_enumerates_the_case_count_benchmark_json_states() {
    let listed = listed_case_counts();
    assert!(listed.len() >= 2);
    for (name, count) in listed {
        let workload = Workload::parse(&name).unwrap_or_else(|| panic!("unknown workload {name}"));
        assert_eq!(workload.items(11).len(), count, "{name}");
    }
    // Not listed in BENCHMARK.json, still runnable by name.
    assert_eq!(Workload::Faults.items(11).len(), 72);
    assert_eq!(Workload::parse("nope"), None);
}

fn small_output() -> (Vec<u8>, usize) {
    let items = table1_items(&SweepSpec {
        sizes: vec![9, 8],
        universe_factors: vec![4],
        repetitions: 2,
        seed: 5,
        structure_seeds: None,
        faults: None,
    });
    let sink = JsonlSink::new(Vec::new());
    SweepEngine::new(1).run(&items, Some(&sink));
    (sink.finish(), items.len())
}

#[test]
fn the_output_check_counts_each_failed_case() {
    let (reference, cases) = small_output();
    assert_eq!(check_output(&reference, &reference, cases).failed, 0);

    let lines: Vec<&str> = std::str::from_utf8(&reference).unwrap().lines().collect();
    let join = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();

    // A missing last record fails one case.
    let missing = join(&lines[..cases - 1]);
    assert_eq!(
        check_output(missing.as_bytes(), &reference, cases).failed,
        1
    );

    // A swapped pair breaks contiguity at both positions.
    let mut swapped = lines.clone();
    swapped.swap(0, 1);
    assert_eq!(
        check_output(join(&swapped).as_bytes(), &reference, cases).failed,
        2
    );

    // An unverified record fails its case.
    let mut unverified = lines.clone();
    let flipped = unverified[2].replacen("\"verified\":true", "\"verified\":false", 1);
    unverified[2] = &flipped;
    assert_eq!(
        check_output(join(&unverified).as_bytes(), &reference, cases).failed,
        1
    );

    // A surplus (duplicated) record fails the whole run.
    let mut duplicated = lines.clone();
    duplicated.push(lines[0]);
    assert_eq!(
        check_output(join(&duplicated).as_bytes(), &reference, cases).failed,
        cases
    );
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [1.5, 3.0, 4.5]);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    assert_eq!(percentile(&ten, 90.0), 9.0);
    assert_eq!(percentile(&ten, 50.0), 5.0);
}

#[test]
fn layer_self_times_and_the_remainder_add_up_to_the_wall_clock() {
    let mut tr = Tracer::new("test");
    let root = tr.begin("bench.replay", "bench", None);
    let spin = || {
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(2) {}
    };
    tr.record("combinat.construct", "combinat", Some(root), spin);
    let publish = tr.begin("harness.store_publish", "harness", Some(root));
    spin();
    spin();
    tr.end(publish);
    tr.estimated_child(publish, "combinat.construct", "combinat", 1_500_000);
    let case = tr.begin("experiments.case", "experiments", Some(root));
    tr.record("sim.rounds", "sim", Some(case), spin);
    tr.end(case);
    spin();
    tr.end(root);

    let budget = tr.budget(root);
    let attributed: u64 = budget.layers.iter().map(|(_, ns)| ns).sum();
    assert_eq!(
        attributed as i64 + budget.unattributed_ns,
        budget.wall_ns as i64
    );
    // The root's own trailing spin is the unattributed remainder.
    assert!(budget.unattributed_ns >= 2_000_000);
    // The derived child moves 1.5 ms from harness to combinat.
    let publish_ns = tr.spans()[publish].duration_ns();
    assert_eq!(budget.layer_ns("harness"), publish_ns - 1_500_000);
    assert!(budget.layer_ns("combinat") >= 3_500_000);
    assert_eq!(budget.dominant(), Some("combinat"));
    assert_eq!(tr.to_jsonl().lines().count(), tr.spans().len());
}
