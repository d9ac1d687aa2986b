//! The scenario layer: self-contained work items and per-case records.
//!
//! A [`WorkItem`] is one independently executable unit of an experiment —
//! one sweep case of a table, one model's reduction edges on one case, one
//! set size of the scaling study, one lower-bound audit. Items carry
//! everything they need (the case parameters), take their combinatorial
//! structures from a shared provider, and produce a [`CaseRecord`]: the
//! per-case round counts, phase accounting and theory-bound comparisons
//! that the engine streams as JSON-lines and renders as markdown tables.

use ring_combinat::{StructureKey, StructureKind};
use ring_experiments::distinguisher_scaling::{
    family_sizes_case, weak_nontrivial_move_case, ScalingSpec,
};
use ring_experiments::faults::faults_case;
use ring_experiments::lower_bounds::{lemma5_parity_audit, lemma6_case};
use ring_experiments::reductions::{figure_for, randomized_da_to_nm_case, reductions_case};
use ring_experiments::tables::{table1_case, table2_case};
use ring_experiments::{Case, FaultAxes, Measurement, SweepSpec};
use ring_protocols::fault::FaultParams;
use ring_protocols::structures::SharedStructures;
use ring_sim::Model;
use serde::{Deserialize, Serialize};

/// One independently executable unit of work.
#[derive(Clone, Debug)]
pub enum WorkItem {
    /// All Table I cells of one sweep case.
    Table1(Case),
    /// All Table II cells of one sweep case.
    Table2(Case),
    /// All reduction edges of one sweep case in one model (Figures 1/2).
    Reductions {
        /// The sweep case.
        case: Case,
        /// The model the edges are measured in.
        model: Model,
    },
    /// The randomized Lemma 15 edge of one sweep case (Figure 2).
    RandomizedDaToNm {
        /// The sweep case.
        case: Case,
        /// The model the edge is measured in.
        model: Model,
    },
    /// Distinguisher / selective-family sizes for one set size.
    ScalingFamilies {
        /// The scaling parameters.
        spec: ScalingSpec,
        /// The set size.
        n: usize,
    },
    /// Weak nontrivial-move rounds for one (even) ring size.
    ScalingWeakMove {
        /// The scaling parameters.
        spec: ScalingSpec,
        /// The ring size.
        n: usize,
    },
    /// The Lemma 5 even-rotation parity audit.
    Lemma5Audit {
        /// Ring size (must be even).
        n: usize,
        /// Identifier universe size.
        universe: u64,
        /// Number of sampled rounds.
        samples: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// The Lemma 6 location-discovery round floors of one sweep case.
    Lemma6Floors(Case),
    /// The fault-degradation measurements of one sweep case under one
    /// deterministic fault configuration.
    Faults {
        /// The sweep case.
        case: Case,
        /// The fault configuration (drop rate, crashes, churn, adversary).
        params: FaultParams,
    },
}

impl WorkItem {
    /// The experiment family the item belongs to (the `experiment` field of
    /// its record; measurements carry the same tag).
    pub fn experiment(&self) -> String {
        match self {
            WorkItem::Table1(_) => "table1".into(),
            WorkItem::Table2(_) => "table2".into(),
            WorkItem::Reductions { case, model } => figure_for(*model, case.n).into(),
            WorkItem::RandomizedDaToNm { .. } => "fig2".into(),
            WorkItem::ScalingFamilies { .. } | WorkItem::ScalingWeakMove { .. } => {
                "distinguisher_scaling".into()
            }
            WorkItem::Lemma5Audit { .. } | WorkItem::Lemma6Floors(_) => "lower_bounds".into(),
            WorkItem::Faults { .. } => "faults".into(),
        }
    }

    /// The ring / set size of the item.
    pub fn n(&self) -> usize {
        match self {
            WorkItem::Table1(case)
            | WorkItem::Table2(case)
            | WorkItem::Reductions { case, .. }
            | WorkItem::RandomizedDaToNm { case, .. }
            | WorkItem::Lemma6Floors(case)
            | WorkItem::Faults { case, .. } => case.n,
            WorkItem::ScalingFamilies { n, .. }
            | WorkItem::ScalingWeakMove { n, .. }
            | WorkItem::Lemma5Audit { n, .. } => *n,
        }
    }

    /// The identifier universe size of the item.
    pub fn universe(&self) -> u64 {
        match self {
            WorkItem::Table1(case)
            | WorkItem::Table2(case)
            | WorkItem::Reductions { case, .. }
            | WorkItem::RandomizedDaToNm { case, .. }
            | WorkItem::Lemma6Floors(case)
            | WorkItem::Faults { case, .. } => case.universe,
            WorkItem::ScalingFamilies { spec, .. } | WorkItem::ScalingWeakMove { spec, .. } => {
                spec.universe
            }
            WorkItem::Lemma5Audit { universe, .. } => *universe,
        }
    }

    /// The item's own seed (per-case seeds are derived with a collision-free
    /// mix; see `SweepSpec::cases`).
    pub fn seed(&self) -> u64 {
        match self {
            WorkItem::Table1(case)
            | WorkItem::Table2(case)
            | WorkItem::Reductions { case, .. }
            | WorkItem::RandomizedDaToNm { case, .. }
            | WorkItem::Lemma6Floors(case)
            | WorkItem::Faults { case, .. } => case.seed,
            WorkItem::ScalingFamilies { spec, .. } | WorkItem::ScalingWeakMove { spec, .. } => {
                spec.seed
            }
            WorkItem::Lemma5Audit { seed, .. } => *seed,
        }
    }

    /// The combinatorial-structure keys the item will request from its
    /// provider while running, paired with the ring/set size of the
    /// request (the materialisation hint for lazily generated
    /// strong-distinguisher sequences; see `StrongDistinguisher::
    /// prefix_size_for`). `ringlab structures prebuild` constructs these
    /// into a shared store before any worker starts.
    ///
    /// The list mirrors the experiment code paths: Table I, reduction,
    /// fault-degradation and location-discovery cases route even-`n`
    /// nontrivial moves through
    /// `solve_nontrivial_move`, whose strong distinguisher is keyed by
    /// `(universe, case.structure_seed)` — the fixed protocol default, or
    /// one of the sweep's schedule seeds under a per-case seed schedule;
    /// the scaling study materialises a distinguisher keyed by the scaling
    /// seed (and its weak-move protocol runs the strong sequence under the
    /// same seed); its selective family is implicit, built on demand by
    /// every provider, and so never listed. The randomized Lemma 15
    /// item solves its prerequisite nontrivial move through the same even-`n`
    /// route before the randomized edge, so it requests the same strong key
    /// as its case's reduction item. Table II (common sense of direction)
    /// elects its leader first and solves nontrivial move leader-led
    /// (Lemma 10), so it — like odd-`n` cases and the audit items — uses no
    /// structures.
    pub fn structure_keys(&self) -> Vec<(StructureKey, usize)> {
        let strong = |universe: u64, seed: u64, n: usize| {
            (
                StructureKey {
                    kind: StructureKind::StrongDistinguisher,
                    universe,
                    n: 0,
                    seed,
                },
                n,
            )
        };
        match self {
            WorkItem::Table1(case)
            | WorkItem::Reductions { case, .. }
            | WorkItem::RandomizedDaToNm { case, .. }
            | WorkItem::Lemma6Floors(case)
            | WorkItem::Faults { case, .. } => {
                if case.n % 2 == 0 {
                    vec![strong(case.universe, case.structure_seed, case.n)]
                } else {
                    Vec::new()
                }
            }
            WorkItem::ScalingFamilies { spec, n } => vec![(
                StructureKey {
                    kind: StructureKind::Distinguisher,
                    universe: spec.universe,
                    n: *n as u64,
                    seed: spec.seed,
                },
                *n,
            )],
            WorkItem::ScalingWeakMove { spec, n } => {
                vec![strong(spec.universe, spec.seed, *n)]
            }
            WorkItem::Table2(_) | WorkItem::Lemma5Audit { .. } => Vec::new(),
        }
    }

    /// Executes the item, drawing combinatorial structures from the given
    /// provider. Deterministic: the measurements depend only on the item
    /// (and the provider serving bit-identical structures, which both the
    /// fresh provider and the cache guarantee).
    pub fn run(&self, structures: &SharedStructures) -> Vec<Measurement> {
        match self {
            WorkItem::Table1(case) => table1_case(case, structures),
            WorkItem::Table2(case) => table2_case(case, structures),
            WorkItem::Reductions { case, model } => reductions_case(case, *model, structures),
            WorkItem::RandomizedDaToNm { case, model } => {
                vec![randomized_da_to_nm_case(case, *model, structures)]
            }
            WorkItem::ScalingFamilies { spec, n } => family_sizes_case(spec, *n, structures),
            WorkItem::ScalingWeakMove { spec, n } => {
                weak_nontrivial_move_case(spec, *n, structures)
                    .into_iter()
                    .collect()
            }
            WorkItem::Lemma5Audit {
                n,
                universe,
                samples,
                seed,
            } => vec![lemma5_parity_audit(*n, *universe, *samples, *seed)],
            WorkItem::Lemma6Floors(case) => lemma6_case(case, structures),
            WorkItem::Faults { case, params } => faults_case(case, *params, structures),
        }
    }

    /// Executes the item and wraps the measurements as the record the
    /// engine streams.
    pub fn run_to_record(&self, index: usize, structures: &SharedStructures) -> CaseRecord {
        CaseRecord::new(index, self, self.run(structures))
    }
}

/// One JSONL line of a sweep: everything measured on one work item.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CaseRecord {
    /// Position of the item in the sweep (JSONL lines are emitted in this
    /// order regardless of scheduling).
    pub case_index: usize,
    /// Experiment family (`table1`, `fig2`, …).
    pub experiment: String,
    /// Ring / set size.
    pub n: usize,
    /// Identifier universe size.
    pub universe: u64,
    /// The case seed.
    pub seed: u64,
    /// Sum of all measured round counts of the case (`None` when the case
    /// measured no solvable quantity).
    pub rounds_total: Option<f64>,
    /// Whether every measurement of the case verified against ground truth.
    pub verified: bool,
    /// The individual measurements: per-problem round counts (the
    /// pipeline's phase accounting) and the paper's predicted bounds from
    /// `ring_combinat::bounds` for shape comparison.
    pub measurements: Vec<Measurement>,
}

impl CaseRecord {
    /// Reads a record back from its JSON value (the derived
    /// [`Deserialize`] impl, callable without importing the trait). The
    /// distributed layer uses this to render tables and statistics from
    /// merged shard files without re-running any case.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &serde::Value) -> Result<Self, String> {
        <Self as Deserialize>::from_json(value)
    }

    fn new(index: usize, item: &WorkItem, measurements: Vec<Measurement>) -> Self {
        let values: Vec<f64> = measurements.iter().filter_map(|m| m.value).collect();
        CaseRecord {
            case_index: index,
            experiment: item.experiment(),
            n: item.n(),
            universe: item.universe(),
            seed: item.seed(),
            rounds_total: if values.is_empty() {
                None
            } else {
                Some(values.iter().sum())
            },
            verified: measurements.iter().all(|m| m.verified),
            measurements,
        }
    }
}

/// Work items for the Table I experiment over a sweep.
pub fn table1_items(spec: &SweepSpec) -> Vec<WorkItem> {
    spec.cases().into_iter().map(WorkItem::Table1).collect()
}

/// Work items for the Table II experiment over a sweep.
pub fn table2_items(spec: &SweepSpec) -> Vec<WorkItem> {
    spec.cases().into_iter().map(WorkItem::Table2).collect()
}

/// Work items for Figure 1: reduction edges in the lazy and perceptive
/// models on every size, and in the basic model on odd sizes.
pub fn fig1_items(spec: &SweepSpec) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for model in [Model::Lazy, Model::Perceptive] {
        items.extend(
            spec.cases()
                .into_iter()
                .map(move |case| WorkItem::Reductions { case, model }),
        );
    }
    items.extend(
        spec.cases()
            .into_iter()
            .filter(|case| case.n % 2 == 1)
            .map(|case| WorkItem::Reductions {
                case,
                model: Model::Basic,
            }),
    );
    items
}

/// Work items for Figure 2: reduction edges in the basic model on even
/// sizes, plus the randomized Lemma 15 edge.
pub fn fig2_items(spec: &SweepSpec) -> Vec<WorkItem> {
    let even: Vec<Case> = spec
        .cases()
        .into_iter()
        .filter(|case| case.n % 2 == 0)
        .collect();
    let mut items: Vec<WorkItem> = even
        .iter()
        .cloned()
        .map(|case| WorkItem::Reductions {
            case,
            model: Model::Basic,
        })
        .collect();
    items.extend(even.into_iter().map(|case| WorkItem::RandomizedDaToNm {
        case,
        model: Model::Basic,
    }));
    items
}

/// Work items for the distinguisher / selective-family scaling study.
pub fn scaling_items(spec: &ScalingSpec) -> Vec<WorkItem> {
    let mut items: Vec<WorkItem> = spec
        .sizes
        .iter()
        .map(|&n| WorkItem::ScalingFamilies {
            spec: spec.clone(),
            n,
        })
        .collect();
    items.extend(spec.sizes.iter().map(|&n| WorkItem::ScalingWeakMove {
        spec: spec.clone(),
        n,
    }));
    items
}

/// Work items for the lower-bound audits (Lemmas 5 and 6).
pub fn lower_bounds_items(spec: &SweepSpec) -> Vec<WorkItem> {
    let mut items = vec![
        WorkItem::Lemma5Audit {
            n: 16,
            universe: 256,
            samples: 2000,
            seed: 1,
        },
        WorkItem::Lemma5Audit {
            n: 64,
            universe: 4096,
            samples: 2000,
            seed: 2,
        },
    ];
    items.extend(spec.cases().into_iter().map(WorkItem::Lemma6Floors));
    items
}

/// Work items for the fault-degradation experiment: one item per
/// (fault configuration, sweep case), fault-configuration-major so shard
/// boundaries cut through cases, not through configurations. The sweep's
/// fault axes default to [`FaultAxes::standard`] when the spec carries
/// none; crash/churn/adversary knobs apply at every drop rate.
pub fn faults_items(spec: &SweepSpec) -> Vec<WorkItem> {
    let axes = spec.faults.clone().unwrap_or_else(FaultAxes::standard);
    let mut items = Vec::new();
    for &drop_per_mille in &axes.drops {
        let params = FaultParams {
            drop_per_mille,
            crashes: axes.crashes,
            churn: axes.churn,
            adversarial: axes.adversarial,
        };
        items.extend(
            spec.cases()
                .into_iter()
                .map(|case| WorkItem::Faults { case, params }),
        );
    }
    items
}

/// Every experiment of the reproduction over one sweep spec (the `all`
/// subcommand).
pub fn all_items(spec: &SweepSpec, scaling: &ScalingSpec) -> Vec<WorkItem> {
    let mut items = table1_items(spec);
    items.extend(table2_items(spec));
    items.extend(fig1_items(spec));
    items.extend(fig2_items(spec));
    items.extend(scaling_items(scaling));
    items.extend(lower_bounds_items(spec));
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_protocols::structures::fresh_structures;

    #[test]
    fn item_builders_cover_the_sweep() {
        let spec = SweepSpec::quick();
        assert_eq!(table1_items(&spec).len(), spec.cases().len());
        // fig1: two models everywhere plus basic on the odd sizes.
        let odd = spec.cases().iter().filter(|c| c.n % 2 == 1).count();
        assert_eq!(fig1_items(&spec).len(), 2 * spec.cases().len() + odd);
        // fig2: two item kinds per even case.
        let even = spec.cases().len() - odd;
        assert_eq!(fig2_items(&spec).len(), 2 * even);
        // faults: one item per (configured drop rate, case), defaulting to
        // the standard axes when the spec carries none.
        assert_eq!(
            faults_items(&spec).len(),
            FaultAxes::standard().drops.len() * spec.cases().len()
        );
        let custom = SweepSpec {
            faults: Some(FaultAxes {
                drops: vec![0, 500],
                crashes: 1,
                churn: 0,
                adversarial: true,
            }),
            ..spec.clone()
        };
        let items = faults_items(&custom);
        assert_eq!(items.len(), 2 * custom.cases().len());
        let WorkItem::Faults { case, params } = &items[custom.cases().len()] else {
            panic!("faults_items built a non-faults item");
        };
        assert_eq!(params.drop_per_mille, 500);
        assert_eq!(params.crashes, 1);
        assert!(params.adversarial);
        assert_eq!(case.n, custom.cases()[0].n);
    }

    #[test]
    fn faults_items_run_and_share_table1_structure_keys() {
        let spec = SweepSpec {
            sizes: vec![9, 8],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 3,
            structure_seeds: None,
            faults: Some(FaultAxes {
                drops: vec![100],
                crashes: 0,
                churn: 0,
                adversarial: false,
            }),
        };
        let items = faults_items(&spec);
        assert_eq!(items.len(), 2);
        // Even-n faulty cases request the same strong key the clean Table I
        // item does (the nontrivial-move route is shared).
        for (faulty, clean) in items.iter().zip(table1_items(&spec)) {
            assert_eq!(faulty.structure_keys(), clean.structure_keys());
        }
        let record = items[0].run_to_record(0, &fresh_structures());
        assert_eq!(record.experiment, "faults");
        assert!(record.verified);
        assert_eq!(record.measurements.len(), 6);
    }

    #[test]
    fn records_summarise_measurements() {
        let spec = SweepSpec {
            sizes: vec![9],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 3,
            structure_seeds: None,
            faults: None,
        };
        let item = &table1_items(&spec)[0];
        let record = item.run_to_record(7, &fresh_structures());
        assert_eq!(record.case_index, 7);
        assert_eq!(record.experiment, "table1");
        assert_eq!(record.n, 9);
        assert!(record.verified);
        assert_eq!(record.measurements.len(), 4);
        assert!(record.rounds_total.unwrap() > 0.0);
    }

    #[test]
    fn records_round_trip_through_json() {
        let spec = SweepSpec {
            sizes: vec![9],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 3,
            structure_seeds: None,
            faults: None,
        };
        let record = table1_items(&spec)[0].run_to_record(2, &fresh_structures());
        let line = serde_json::to_string(&record).unwrap();
        let parsed = CaseRecord::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(parsed, record);
        let read = |text: &str| CaseRecord::from_json(&serde_json::from_str(text).unwrap());
        assert_eq!(
            read("{}").unwrap_err(),
            "CaseRecord is missing `case_index`"
        );
        // A case that measured nothing solvable, and one with no measurements.
        let unsolved = CaseRecord {
            rounds_total: None,
            measurements: Vec::new(),
            ..record.clone()
        };
        let line = serde_json::to_string(&unsolved).unwrap();
        assert_eq!(read(&line).unwrap(), unsolved);
        // A bad measurement is reported through the record's field.
        let line = serde_json::to_string(&record).unwrap();
        let bad = line.replacen("\"verified\":true}", "\"verified\":\"yes\"}", 1);
        assert_ne!(bad, line);
        assert_eq!(
            read(&bad).unwrap_err(),
            "CaseRecord.measurements: [0]: Measurement.verified: \
             expected a boolean, found a string"
        );
    }
}
