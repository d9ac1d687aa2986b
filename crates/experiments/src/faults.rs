//! The fault-degradation experiment: how far the paper's coordination
//! protocols degrade under message drop, crash-stop stations, churn and
//! adversarial scheduling.
//!
//! Each measured point runs one protocol on one sweep case under one
//! deterministic [`FaultPlan`](ring_protocols::fault::FaultPlan) (derived
//! from the case seed, so sharded sweeps replay bit-identical faults) on
//! the engine the model calls for (the analytic engine for the basic
//! model this sweep runs), with a hard round cap. Under
//! faults, failure is a *measurement result*, not a verification error:
//! every emitted [`Measurement`] carries `verified: true`, and a run that
//! failed or timed out reports `value: None` in its rounds row. Per
//! protocol the experiment emits
//!
//! * a `"<problem>: rounds"` row — rounds to completion, `None` when the
//!   run failed or timed out, and
//! * a `"<problem>: timeout"` row — `1` when the round cap fired, else `0`,
//!
//! from which the harness renders failure rates, timeout rates and
//! rounds-to-completion percentiles per fault rate × n × protocol.

use crate::report::Measurement;
use crate::sweep::Case;
use ring_protocols::fault::FaultParams;
use ring_protocols::pipeline::{measure_problem_faulty, FaultyOutcome, Problem};
use ring_protocols::structures::SharedStructures;
use ring_sim::Model;

/// Hard cap on executor rounds per faulty protocol run. The paper's
/// protocols are internally budgeted, so the cap only fires on runs that
/// degrade into genuinely pathological schedules; it bounds the wall clock
/// of every sweep case regardless of fault rate.
pub const FAULT_ROUND_LIMIT: u64 = 20_000;

/// The protocols the degradation sweep measures, in report order.
/// Location discovery is excluded: it is unsolvable in the basic model for
/// even `n` already on clean rings, so it has no meaningful degradation
/// axis here.
pub const FAULT_PROBLEMS: [Problem; 3] = [
    Problem::LeaderElection,
    Problem::NontrivialMove,
    Problem::DirectionAgreement,
];

/// The human-readable setting label of a fault configuration (the `setting`
/// column every degradation row is grouped by).
pub fn fault_setting(params: &FaultParams) -> String {
    let mut extras = String::new();
    if params.crashes > 0 {
        extras.push_str(&format!(", crash {}", params.crashes));
    }
    if params.churn > 0 {
        extras.push_str(&format!(", churn {}", params.churn));
    }
    if params.adversarial {
        extras.push_str(", adversarial");
    }
    format!("drop {}/1000{}", params.drop_per_mille, extras)
}

/// Measures one (case, fault-parameter) point: every protocol of
/// [`FAULT_PROBLEMS`] in the basic model under the deterministic fault
/// plan derived from the case seed. Two measurements per protocol (rounds
/// and timeout flag); see the module docs for their semantics.
pub fn faults_case(
    case: &Case,
    params: FaultParams,
    structures: &SharedStructures,
) -> Vec<Measurement> {
    let config = case.config();
    let ids = case.ids();
    let setting = fault_setting(&params);
    let mut out = Vec::new();
    for problem in FAULT_PROBLEMS {
        let cost = measure_problem_faulty(
            &config,
            &ids,
            Model::Basic,
            problem,
            structures,
            case.structure_seed,
            params,
            case.seed,
            FAULT_ROUND_LIMIT,
        );
        out.push(Measurement {
            experiment: "faults".into(),
            setting: setting.clone(),
            quantity: format!("{problem}: rounds"),
            n: case.n,
            universe: case.universe,
            value: cost.rounds.map(|r| r as f64),
            predicted: None,
            verified: true,
        });
        out.push(Measurement {
            experiment: "faults".into(),
            setting: setting.clone(),
            quantity: format!("{problem}: timeout"),
            n: case.n,
            universe: case.universe,
            value: Some(u64::from(cost.outcome == FaultyOutcome::TimedOut) as f64),
            predicted: None,
            verified: true,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use ring_protocols::structures::fresh_structures;

    #[test]
    fn clean_baseline_completes_every_protocol() {
        let spec = SweepSpec {
            sizes: vec![9, 8],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 3,
            structure_seeds: None,
            faults: None,
        };
        let structures = fresh_structures();
        for case in spec.cases() {
            let rows = faults_case(&case, FaultParams::default(), &structures);
            assert_eq!(rows.len(), 2 * FAULT_PROBLEMS.len());
            for row in rows.iter().filter(|m| m.quantity.ends_with("rounds")) {
                assert!(row.value.is_some(), "{}: {}", row.setting, row.quantity);
            }
            for row in rows.iter().filter(|m| m.quantity.ends_with("timeout")) {
                assert_eq!(row.value, Some(0.0));
            }
            assert!(rows.iter().all(|m| m.verified));
        }
    }

    #[test]
    fn heavy_drop_degrades_at_least_one_protocol() {
        let spec = SweepSpec {
            sizes: vec![8],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 3,
            structure_seeds: None,
            faults: None,
        };
        let case = &spec.cases()[0];
        let rows = faults_case(
            case,
            FaultParams {
                drop_per_mille: 1000,
                ..FaultParams::default()
            },
            &fresh_structures(),
        );
        assert!(rows
            .iter()
            .filter(|m| m.quantity.ends_with("rounds"))
            .any(|m| m.value.is_none()));
    }

    #[test]
    fn measurements_are_deterministic() {
        let spec = SweepSpec {
            sizes: vec![9],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 5,
            structure_seeds: None,
            faults: None,
        };
        let case = &spec.cases()[0];
        let params = FaultParams {
            drop_per_mille: 200,
            crashes: 1,
            churn: 1,
            adversarial: true,
        };
        let a = faults_case(case, params, &fresh_structures());
        let b = faults_case(case, params, &fresh_structures());
        assert_eq!(a, b);
    }

    #[test]
    fn setting_labels_encode_every_knob() {
        assert_eq!(fault_setting(&FaultParams::default()), "drop 0/1000");
        assert_eq!(
            fault_setting(&FaultParams {
                drop_per_mille: 100,
                crashes: 2,
                churn: 1,
                adversarial: true,
            }),
            "drop 100/1000, crash 2, churn 1, adversarial"
        );
    }
}
