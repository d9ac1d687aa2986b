//! Property tests of the parsers that read what workers, earlier runs and
//! clients hand the program: the `ring-distrib/v1` worker line parser, the
//! manifest parser and the spec of a `POST /v1/runs` body. No truncated,
//! corrupted or oversized input may panic any of them, every manifest
//! accepted must hold a shard plan the orchestrator can index, and every
//! spec must read back as itself.

use proptest::prelude::*;
use ring_distrib::{
    parse_worker_line, plan_shards, DoneEvent, Manifest, SpecParams, StartEvent, WorkerLine,
    CACHE_HITS, CACHE_MISSES, STORE_HITS, STORE_MISSES,
};
use serde::{Deserialize, Serialize, Value};

/// `flips` random bytes of `text` XOR-ed (read back lossily, as a line off
/// a byte stream would be), or with `digits` set, `flips` random ASCII
/// digits replaced by others, which keeps the JSON well formed.
fn corrupt(text: &str, flips: usize, seed: u64, digits: bool) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let targets: Vec<usize> = (0..bytes.len())
        .filter(|&i| !digits || bytes[i].is_ascii_digit())
        .collect();
    let mut state = seed;
    for _ in 0..flips {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let at = targets[(state >> 33) as usize % targets.len()];
        let noise = (state >> 8) as u8;
        bytes[at] = if digits {
            b'0' + noise % 10
        } else {
            bytes[at] ^ (noise | 1)
        };
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A spec drawn from `seed`: each `Option` both `None` and `Some`, lists of
/// one to four entries, numbers small or anywhere in `u64`, both switches.
fn random_spec(seed: u64) -> SpecParams {
    let mut state = seed;
    let mut draw = move |below: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) % below
    };
    let number = |draw: &mut dyn FnMut(u64) -> u64| match draw(3) {
        0 => draw(u64::MAX),
        _ => draw(1100),
    };
    let maybe_list = |draw: &mut dyn FnMut(u64) -> u64| {
        (draw(2) == 0).then(|| (0..1 + draw(4)).map(|_| number(draw)).collect::<Vec<u64>>())
    };
    let subcommand = ["sweep", "table1", "table2", "faults", "scaling"][draw(5) as usize];
    SpecParams {
        subcommand: subcommand.into(),
        quick: draw(2) == 0,
        sizes: maybe_list(&mut draw).map(|sizes| sizes.into_iter().map(|n| n as usize).collect()),
        universe_factors: maybe_list(&mut draw),
        reps: (draw(2) == 0).then(|| number(&mut draw)),
        seed: (draw(2) == 0).then(|| number(&mut draw)),
        structure_seeds: (draw(2) == 0).then(|| number(&mut draw)),
        fault_drops: maybe_list(&mut draw),
        fault_crashes: (draw(2) == 0).then(|| number(&mut draw)),
        fault_churn: (draw(2) == 0).then(|| number(&mut draw)),
        fault_adversarial: draw(2) == 0,
    }
}

/// Reads a run submission's spec the way the daemon does.
fn read_submission(body: &str) -> Option<SpecParams> {
    SpecParams::from_json(&serde_json::from_str(body).ok()?).ok()
}

/// A done event whose metrics snapshot carries counters drawn from `seed`.
fn done_event(shard: usize, records: usize, seed: u64) -> DoneEvent {
    let registry = ring_obs::Registry::new();
    registry.counter(CACHE_HITS).add(seed >> 3);
    registry.counter(CACHE_MISSES).add(u64::MAX - seed);
    registry.counter(STORE_HITS).add(seed % 11);
    registry.counter(STORE_MISSES).add(seed % 7);
    registry.histogram("case_execute_ns").record(seed);
    DoneEvent::new(
        shard,
        records,
        format!("fnv1a64:{seed:016x}"),
        registry.snapshot(),
    )
}

/// The start, record and done lines of one shard attempt.
fn worker_lines(shard: usize, start: usize, len: usize, seed: u64) -> [String; 3] {
    let start_event = StartEvent::new(shard, shard + 1, start, start + len, &format!("0x{seed:x}"));
    [
        serde_json::to_string(&start_event).unwrap(),
        format!("{{\"case_index\":{start},\"experiment\":\"table1\",\"rounds\":{seed}}}"),
        serde_json::to_string(&done_event(shard, len, seed)).unwrap(),
    ]
}

/// A manifest of `total` cases over `shards` shards, those named by the low
/// bits of `seed` complete.
fn manifest(total: usize, shards: usize, seed: u64) -> Manifest {
    let spec = SpecParams {
        subcommand: "sweep".into(),
        sizes: Some(vec![9, 8]),
        ..SpecParams::default()
    };
    let ranges = plan_shards(total, shards);
    let mut manifest = Manifest::new(spec, "0xabc".into(), total, &ranges, 2, "out.jsonl".into());
    for range in ranges.iter().filter(|r| seed >> r.shard & 1 == 1) {
        let done = done_event(range.shard, range.len(), seed);
        manifest.shards[range.shard].attempts = 1 + (seed >> 8) as u32 % 3;
        manifest.mark_complete(range.shard, &done, seed % 1000);
    }
    manifest
}

/// Parses manifest text the way `Manifest::load` does and, if it is
/// accepted, checks its shard plan: entry `i` is shard `i`, and the ranges
/// tile `0..total_cases` contiguously.
fn parse_manifest(text: &str) -> Option<Manifest> {
    let manifest = Manifest::from_json(&serde_json::from_str(text).ok()?).ok()?;
    let mut next = 0;
    for (position, entry) in manifest.shards.iter().enumerate() {
        prop_assert_eq!((entry.shard, entry.start), (position, next));
        prop_assert!(entry.end >= entry.start, "{entry:?}");
        next = entry.end;
    }
    prop_assert_eq!(next, manifest.total_cases);
    Some(manifest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A done event survives serialisation and parsing exactly.
    #[test]
    fn done_events_round_trip((shard, records, seed) in (0usize..1000, 0usize..100_000, any::<u64>())) {
        let event = done_event(shard, records, seed);
        let line = serde_json::to_string(&event).unwrap();
        prop_assert_eq!(parse_worker_line(&line).unwrap(), WorkerLine::Done(event));
    }

    /// No prefix, byte flip or digit flip of a valid worker line panics the
    /// parser, and an integer past `u64` in a numeric field is an error.
    #[test]
    fn damaged_worker_lines_never_panic(
        (shard, len, seed, flips) in (0usize..64, 0usize..500, any::<u64>(), 1usize..8),
    ) {
        for line in worker_lines(shard, shard * 500, len, seed) {
            prop_assert!(parse_worker_line(&line).is_ok(), "{line}");
            for cut in 0..line.len() {
                let _ = parse_worker_line(&line[..cut]);
            }
            let _ = parse_worker_line(&corrupt(&line, flips, seed, false));
            let _ = parse_worker_line(&corrupt(&line, flips, seed, true));
            let oversized = line.replacen(&format!(":{shard},"), ":18446744073709551616,", 1);
            prop_assert!(oversized == line || parse_worker_line(&oversized).is_err(), "{oversized}");
        }
    }

    /// Byte and digit flips never panic the manifest parser, and whatever it
    /// still accepts holds a consistent shard plan.
    #[test]
    fn corrupted_manifests_never_panic(
        (total, shards, seed, flips) in (0usize..40, 1usize..6, any::<u64>(), 1usize..4),
    ) {
        let text = serde_json::to_string(&manifest(total, shards, seed)).unwrap();
        for variant in 0..8 {
            let seed = seed.wrapping_add(variant);
            parse_manifest(&corrupt(&text, flips, seed, false));
            parse_manifest(&corrupt(&text, flips, seed, true));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A valid manifest parses back exactly; no proper prefix of it parses
    /// or panics the parser.
    #[test]
    fn truncated_manifests_are_refused((total, shards, seed) in (0usize..40, 1usize..6, any::<u64>())) {
        let manifest = manifest(total, shards, seed);
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        prop_assert_eq!(parse_manifest(&text), Some(manifest));
        for cut in 0..text.len() {
            prop_assert!(parse_manifest(&text[..cut]).is_none(), "accepted {cut} bytes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random spec reads back as itself, alone and as a run submission
    /// (which also carries `shards` and `structure_store`); no prefix, byte
    /// flip or digit flip of the submission panics the reader; an absent
    /// switch reads as off; and a field of the wrong kind is refused by name.
    #[test]
    fn run_submissions_round_trip_and_never_panic(
        (seed, shards, flips) in (any::<u64>(), 1usize..2000, 1usize..8),
    ) {
        let spec = random_spec(seed);
        let text = serde_json::to_string(&spec).unwrap();
        prop_assert_eq!(read_submission(&text), Some(spec.clone()));
        let body = format!(
            "{},\"shards\":{shards},\"structure_store\":true}}",
            text.trim_end_matches('}')
        );
        prop_assert_eq!(read_submission(&body), Some(spec.clone()));
        for cut in 0..body.len() {
            prop_assert!(read_submission(&body[..cut]).is_none(), "accepted {cut} bytes");
        }
        for variant in 0..8 {
            let seed = seed.wrapping_add(variant);
            read_submission(&corrupt(&body, flips, seed, false));
            read_submission(&corrupt(&body, flips, seed, true));
        }
        let fields = spec.to_json();
        let fields = fields.as_object().unwrap();
        let without = |key: &str| {
            Value::Object(fields.iter().filter(|(k, _)| k != key).cloned().collect())
        };
        let read = SpecParams::from_json(&without("quick")).unwrap();
        prop_assert_eq!(read, SpecParams { quick: false, ..spec.clone() });
        let read = SpecParams::from_json(&without("fault_adversarial")).unwrap();
        prop_assert_eq!(read, SpecParams { fault_adversarial: false, ..spec.clone() });
        prop_assert!(SpecParams::from_json(&without("subcommand")).is_err());
        for (key, _) in fields {
            let mut mutated = fields.to_vec();
            for (k, value) in &mut mutated {
                if k == key {
                    *value = if k == "subcommand" { Value::Uint(7) } else { Value::Str("7".into()) };
                }
            }
            let err = SpecParams::from_json(&Value::Object(mutated)).unwrap_err();
            prop_assert!(err.starts_with(&format!("SpecParams.{key}: ")), "{err}");
        }
    }
}
