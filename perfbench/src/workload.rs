//! The three workloads: what each one runs, generated from the seed.
//!
//! Every input — the sweep spec, its item list and the body a client
//! submits to `ringlab serve` — is a pure function of `(workload, seed)`,
//! so one seed always measures the same work. The output check compares a
//! run's JSONL bytes against an in-process, single-thread reference pass of
//! the same workload and seed.

use ring_combinat::shared::splitmix64;
use ring_distrib::Fnv1a64;
use ring_experiments::distinguisher_scaling::ScalingSpec;
use ring_experiments::{FaultAxes, SweepSpec};
use ring_harness::scenario::{faults_items, scaling_items, table1_items, table2_items};
use ring_harness::{CaseRecord, JsonlSink, SweepEngine, WorkItem};

/// One named workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table I + Table II (the `ringlab sweep` item list), in-process.
    Tables,
    /// The fault-degradation sweep with a crash, in-process.
    Faults,
    /// The scaling study submitted to `ringlab serve` with two workers.
    Fleet,
}

/// Ring sizes of the `tables` workload.
pub const TABLES_SIZES: [usize; 6] = [127, 128, 255, 256, 511, 512];
/// Ring sizes of the `faults` workload.
pub const FAULTS_SIZES: [usize; 4] = [63, 64, 127, 128];
/// Set / ring sizes of the `fleet` workload's scaling spec.
pub const FLEET_SIZES: [usize; 3] = [256, 512, 1024];
/// Identifier universe of the `fleet` workload (the scaling default).
pub const FLEET_UNIVERSE: u64 = 1 << 14;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Tables, Workload::Faults, Workload::Fleet];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tables => "tables",
            Workload::Faults => "faults",
            Workload::Fleet => "fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep spec of an in-process workload (`None` for `fleet`).
    pub fn sweep_spec(self, seed: u64) -> Option<SweepSpec> {
        match self {
            Workload::Tables => Some(SweepSpec {
                sizes: TABLES_SIZES.to_vec(),
                universe_factors: vec![4, 64],
                repetitions: 4,
                seed: derive_seed(seed, 1),
                structure_seeds: None,
                faults: None,
            }),
            Workload::Faults => Some(SweepSpec {
                sizes: FAULTS_SIZES.to_vec(),
                universe_factors: vec![4],
                repetitions: 6,
                seed: derive_seed(seed, 2),
                structure_seeds: None,
                faults: Some(FaultAxes {
                    drops: vec![0, 100, 400],
                    crashes: 1,
                    churn: 0,
                    adversarial: false,
                }),
            }),
            Workload::Fleet => None,
        }
    }

    /// The scaling spec every `fleet` run submits (`None` otherwise).
    pub fn scaling_spec(self, seed: u64) -> Option<ScalingSpec> {
        (self == Workload::Fleet).then(|| ScalingSpec {
            universe: FLEET_UNIVERSE,
            sizes: FLEET_SIZES.to_vec(),
            seed: derive_seed(seed, 3),
        })
    }

    /// The item list a run executes.
    pub fn items(self, seed: u64) -> Vec<WorkItem> {
        match self {
            Workload::Tables => {
                let spec = self.sweep_spec(seed).expect("tables has a sweep spec");
                let mut items = table1_items(&spec);
                items.extend(table2_items(&spec));
                items
            }
            Workload::Faults => faults_items(&self.sweep_spec(seed).expect("faults has a spec")),
            Workload::Fleet => scaling_items(&self.scaling_spec(seed).expect("fleet has a spec")),
        }
    }

    /// A fingerprint of the generated inputs: the spec fingerprint chained
    /// with the workload name.
    pub fn fingerprint(self, seed: u64) -> u64 {
        let spec = match self {
            Workload::Fleet => self.scaling_spec(seed).expect("fleet spec").fingerprint(),
            _ => self.sweep_spec(seed).expect("sweep spec").fingerprint(),
        };
        self.name()
            .bytes()
            .fold(spec, |h, b| splitmix64(h ^ u64::from(b)))
    }

    /// The `POST /v1/runs` body of a `fleet` run: the scaling spec at the
    /// derived seed, one shard per worker, with the structure store on.
    pub fn submit_body(self, seed: u64, shards: usize) -> Option<String> {
        let spec = self.scaling_spec(seed)?;
        let sizes: Vec<String> = spec.sizes.iter().map(usize::to_string).collect();
        Some(format!(
            "{{\"subcommand\":\"scaling\",\"sizes\":[{}],\"seed\":{},\"shards\":{shards},\
             \"structure_store\":true}}",
            sizes.join(","),
            spec.seed
        ))
    }

    /// The reference output: the workload's JSONL bytes from a fresh
    /// single-thread in-process engine.
    pub fn reference_output(self, seed: u64) -> Vec<u8> {
        let items = self.items(seed);
        let sink = JsonlSink::new(Vec::new());
        SweepEngine::new(1).run(&items, Some(&sink));
        sink.finish()
    }
}

/// Derives the seed of one input stream from the workload seed. Kept below
/// 2⁵³ so it survives any JSON number path unchanged.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 11
}

/// FNV-1a-64 of a byte string (the digest shard files are pinned by).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a64::new();
    hasher.update(bytes);
    hasher.finish()
}

/// The verdict on one run's output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OutputCheck {
    /// Cases whose record is missing, duplicated, out of order, not
    /// `verified: true`, or differs from the reference.
    pub failed: usize,
    /// The first few problems, for the report.
    pub problems: Vec<String>,
}

impl OutputCheck {
    fn note(&mut self, problem: String) {
        if self.problems.len() < 4 {
            self.problems.push(problem);
        }
    }
}

fn lines(bytes: &[u8]) -> Vec<&[u8]> {
    let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    if body.is_empty() {
        return Vec::new();
    }
    body.split(|&b| b == b'\n').collect()
}

/// Checks a run's JSONL output against the reference bytes: `cases`
/// records, `case_index` contiguous from 0, every record `verified: true`,
/// and the FNV-1a-64 digest equal to the reference digest. Each case that
/// fails any of these counts once; surplus records fail the whole run.
pub fn check_output(output: &[u8], reference: &[u8], cases: usize) -> OutputCheck {
    let mut check = OutputCheck::default();
    let got = lines(output);
    let want = lines(reference);
    for index in 0..cases {
        let Some(line) = got.get(index) else {
            check.failed += 1;
            check.note(format!("record {index} is missing"));
            continue;
        };
        let record = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            .and_then(|value| CaseRecord::from_json(&value));
        let problem = match record {
            Err(e) => Some(format!("record {index} does not parse: {e}")),
            Ok(r) if r.case_index != index => Some(format!(
                "record {index} carries case_index {}",
                r.case_index
            )),
            Ok(r) if !r.verified => Some(format!("record {index} is not verified")),
            Ok(_) if want.get(index) != Some(line) => {
                Some(format!("record {index} differs from the reference"))
            }
            Ok(_) => None,
        };
        if let Some(problem) = problem {
            check.failed += 1;
            check.note(problem);
        }
    }
    if got.len() > cases {
        check.failed = cases;
        check.note(format!("{} records for {cases} cases", got.len()));
    }
    if check.failed == 0 && digest(output) != digest(reference) {
        check.failed = cases;
        check.note("output digest differs from the reference digest".into());
    }
    check
}
