//! End-to-end pipelines and round accounting.
//!
//! The experiment harness regenerates Tables I and II of the paper by
//! measuring, for many configurations, how many rounds each coordination
//! problem takes in each setting. [`measure_problem`] solves one problem on
//! a fresh executor, with the caller's structure provider and structure
//! seed, and reports the cost; it is what the Table I experiment runs per
//! case. [`run_pipeline`] measures all four problems of Table I with fresh
//! structures and the default seed.
//!
//! Every protocol executes through the one round interface
//! ([`crate::exec::StepBuffers`] with [`crate::exec::Network::step_into`] /
//! [`crate::exec::Network::run_schedule`]): one scratch arena per protocol
//! run, no per-round heap allocation.

use crate::coordination::diragr::agree_direction;
use crate::coordination::leader::elect_leader;
use crate::coordination::nontrivial::{solve_nontrivial_move, STRUCTURE_SEED};
use crate::error::ProtocolError;
use crate::exec::Network;
use crate::fault::{FaultParams, FaultPlan};
use crate::ids::IdAssignment;
use crate::locate::{discover_locations, verify_location_discovery};
use crate::structures::{fresh_structures, SharedStructures};
use ring_sim::{Model, Parity, RingConfig};
use serde::Serialize;
use std::fmt;

/// The four problems of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Problem {
    /// Exactly one agent ends with the leader status.
    LeaderElection,
    /// Find a direction assignment whose rotation index is outside `{0, n/2}`.
    NontrivialMove,
    /// All agents agree on which direction is clockwise.
    DirectionAgreement,
    /// Every agent learns the initial position of every other agent.
    LocationDiscovery,
}

impl Problem {
    /// All problems, in the column order of Table I.
    pub const ALL: [Problem; 4] = [
        Problem::LeaderElection,
        Problem::NontrivialMove,
        Problem::DirectionAgreement,
        Problem::LocationDiscovery,
    ];
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Problem::LeaderElection => "leader election",
            Problem::NontrivialMove => "nontrivial move",
            Problem::DirectionAgreement => "direction agreement",
            Problem::LocationDiscovery => "location discovery",
        };
        f.write_str(s)
    }
}

/// The measured cost of solving one problem on one configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ProblemCost {
    /// Which problem was solved.
    pub problem: Problem,
    /// Whether the problem is solvable at all in this setting.
    pub solvable: bool,
    /// Rounds used (`None` when unsolvable).
    pub rounds: Option<u64>,
    /// Whether the result was verified against the hidden ground truth
    /// (always attempted when applicable).
    pub verified: bool,
}

/// Round counts for all four problems of Table I on one configuration.
#[derive(Clone, Debug, Serialize)]
pub struct PipelineReport {
    /// The model the measurements were taken in.
    pub model: Model,
    /// Parity of the ring size.
    pub parity: Parity,
    /// Ring size.
    pub n: usize,
    /// Identifier universe size.
    pub universe: u64,
    /// Per-problem costs, in the order of [`Problem::ALL`].
    pub costs: Vec<ProblemCost>,
}

impl PipelineReport {
    /// The cost entry for a given problem.
    pub fn cost(&self, problem: Problem) -> Option<&ProblemCost> {
        self.costs.iter().find(|c| c.problem == problem)
    }
}

/// Solves `problem` from scratch on a fresh executor over `config`/`ids` in
/// `model`, verifying the result against the ground truth. The executor
/// obtains its distinguishers through `structures` (so a sweep harness can
/// hand every case one shared cache) and draws them under
/// `structure_seed`, which is how seed-diverse sweeps measure the spread
/// over structure randomness.
///
/// # Errors
///
/// Propagates protocol errors other than the expected
/// [`ProtocolError::Unsolvable`] for location discovery in the basic model
/// with even `n` (which is reported as `solvable: false`).
pub fn measure_problem(
    config: &RingConfig,
    ids: &IdAssignment,
    model: Model,
    problem: Problem,
    structures: &SharedStructures,
    structure_seed: u64,
) -> Result<ProblemCost, ProtocolError> {
    let mut net = Network::new(config, ids.clone(), model)?
        .with_structures(structures.clone())
        .with_structure_seed(structure_seed);
    match solve_and_verify(&mut net, problem) {
        Ok((rounds, verified)) => Ok(ProblemCost {
            problem,
            solvable: true,
            rounds: Some(rounds),
            verified,
        }),
        Err(ProtocolError::Unsolvable { .. }) if problem == Problem::LocationDiscovery => {
            Ok(ProblemCost {
                problem,
                solvable: false,
                rounds: None,
                verified: true,
            })
        }
        Err(e) => Err(e),
    }
}

/// Solves `problem` on `net` and checks the result against ground truth:
/// the rounds used and whether the result verified.
fn solve_and_verify(net: &mut Network, problem: Problem) -> Result<(u64, bool), ProtocolError> {
    Ok(match problem {
        Problem::LeaderElection => {
            let election = elect_leader(net)?;
            (election.rounds(), election.leaders().count() == 1)
        }
        Problem::NontrivialMove => {
            let nm = solve_nontrivial_move(net)?;
            let verified = crate::coordination::nontrivial::verify_nontrivial(net, &nm);
            (nm.rounds(), verified)
        }
        Problem::DirectionAgreement => {
            let agreement = agree_direction(net)?;
            let verified =
                crate::coordination::diragr::frames_are_coherent(net, agreement.frames());
            (agreement.rounds(), verified)
        }
        Problem::LocationDiscovery => {
            let discovery = discover_locations(net)?;
            let verified = verify_location_discovery(net, &discovery);
            (discovery.rounds(), verified)
        }
    })
}

/// How one faulty protocol run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FaultyOutcome {
    /// The protocol terminated and its result verified against ground
    /// truth.
    Completed,
    /// The protocol terminated but produced a wrong result, or aborted
    /// with a protocol error (exhausted budget, violated invariant).
    Failed,
    /// The executor's round limit fired before the protocol terminated.
    TimedOut,
}

/// The measured cost of one protocol run under fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct FaultyCost {
    /// Which problem was attempted.
    pub problem: Problem,
    /// How the run ended.
    pub outcome: FaultyOutcome,
    /// Rounds used (`None` unless the run completed and verified).
    pub rounds: Option<u64>,
}

/// Solves `problem` on a fresh executor under the deterministic fault plan
/// derived from `(params, n, fault_seed)`, with a hard round cap of
/// `round_limit`. The engine follows the model (see
/// [`Network::with_faults`]): collision-blind models run on the analytic
/// engine, the perceptive model on the event-driven reference engine.
///
/// Unlike [`measure_problem`] this never propagates protocol
/// errors: under faults, failure is a measurement result. A run that hits
/// the round cap reports [`FaultyOutcome::TimedOut`]; any other protocol
/// error — or a result that fails ground-truth verification — reports
/// [`FaultyOutcome::Failed`].
#[allow(clippy::too_many_arguments)]
pub fn measure_problem_faulty(
    config: &RingConfig,
    ids: &IdAssignment,
    model: Model,
    problem: Problem,
    structures: &SharedStructures,
    structure_seed: u64,
    params: FaultParams,
    fault_seed: u64,
    round_limit: u64,
) -> FaultyCost {
    let mut net = match Network::new(config, ids.clone(), model) {
        Ok(net) => net
            .with_structures(structures.clone())
            .with_structure_seed(structure_seed)
            .with_faults(FaultPlan::new(params, config.len(), fault_seed))
            .with_round_limit(round_limit),
        Err(_) => {
            return FaultyCost {
                problem,
                outcome: FaultyOutcome::Failed,
                rounds: None,
            }
        }
    };
    match solve_and_verify(&mut net, problem) {
        Ok((rounds, true)) => FaultyCost {
            problem,
            outcome: FaultyOutcome::Completed,
            rounds: Some(rounds),
        },
        Ok((_, false)) => FaultyCost {
            problem,
            outcome: FaultyOutcome::Failed,
            rounds: None,
        },
        Err(ProtocolError::RoundLimitReached { .. }) => FaultyCost {
            problem,
            outcome: FaultyOutcome::TimedOut,
            rounds: None,
        },
        Err(_) => FaultyCost {
            problem,
            outcome: FaultyOutcome::Failed,
            rounds: None,
        },
    }
}

/// Measures all four problems of Table I on one configuration, with
/// freshly constructed structures under the default structure seed.
///
/// # Errors
///
/// Propagates errors from [`measure_problem`].
pub fn run_pipeline(
    config: &RingConfig,
    ids: &IdAssignment,
    model: Model,
) -> Result<PipelineReport, ProtocolError> {
    let structures = fresh_structures();
    let costs = Problem::ALL
        .iter()
        .map(|&p| measure_problem(config, ids, model, p, &structures, STRUCTURE_SEED))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PipelineReport {
        model,
        parity: Parity::of(config.len()),
        n: config.len(),
        universe: ids.universe(),
        costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_covers_all_problems_for_an_odd_basic_ring() {
        let config = RingConfig::builder(9)
            .random_positions(7)
            .random_chirality(8)
            .build()
            .unwrap();
        let ids = IdAssignment::random(9, 256, 9);
        let report = run_pipeline(&config, &ids, Model::Basic).unwrap();
        assert_eq!(report.costs.len(), 4);
        assert!(report.costs.iter().all(|c| c.verified));
        assert!(
            report
                .cost(Problem::LocationDiscovery)
                .unwrap()
                .rounds
                .unwrap()
                >= 9
        );
    }

    #[test]
    fn pipeline_marks_basic_even_location_discovery_unsolvable() {
        let config = RingConfig::builder(8)
            .random_positions(5)
            .random_chirality(6)
            .build()
            .unwrap();
        let ids = IdAssignment::random(8, 128, 7);
        let report = run_pipeline(&config, &ids, Model::Basic).unwrap();
        let ld = report.cost(Problem::LocationDiscovery).unwrap();
        assert!(!ld.solvable);
        assert!(ld.rounds.is_none());
        // The coordination problems are still solvable.
        assert!(report.cost(Problem::LeaderElection).unwrap().solvable);
    }

    #[test]
    fn faulty_measurement_with_no_faults_matches_the_clean_pipeline() {
        let config = RingConfig::builder(9)
            .random_positions(7)
            .random_chirality(8)
            .build()
            .unwrap();
        let ids = IdAssignment::random(9, 256, 9);
        let structures = fresh_structures();
        // Basic-model faulty runs stay on the analytic engine; perceptive
        // ones run on the event-driven reference executor, which agrees
        // with the analytic path on fault-free plans: identical round
        // counts either way.
        for model in [Model::Basic, Model::Perceptive] {
            for problem in [
                Problem::LeaderElection,
                Problem::NontrivialMove,
                Problem::DirectionAgreement,
            ] {
                let clean =
                    measure_problem(&config, &ids, model, problem, &structures, STRUCTURE_SEED)
                        .unwrap();
                let faulty = measure_problem_faulty(
                    &config,
                    &ids,
                    model,
                    problem,
                    &structures,
                    STRUCTURE_SEED,
                    FaultParams::default(),
                    123,
                    20_000,
                );
                assert_eq!(
                    faulty.outcome,
                    FaultyOutcome::Completed,
                    "{model} {problem}"
                );
                assert_eq!(faulty.rounds, clean.rounds, "{model} {problem}");
            }
        }
    }

    #[test]
    fn full_drop_never_completes_and_never_panics() {
        let config = RingConfig::builder(8)
            .random_positions(5)
            .random_chirality(6)
            .build()
            .unwrap();
        let ids = IdAssignment::random(8, 128, 7);
        let cost = measure_problem_faulty(
            &config,
            &ids,
            Model::Basic,
            Problem::LeaderElection,
            &fresh_structures(),
            crate::coordination::nontrivial::STRUCTURE_SEED,
            FaultParams {
                drop_per_mille: 1000,
                ..FaultParams::default()
            },
            7,
            2_000,
        );
        assert_ne!(cost.outcome, FaultyOutcome::Completed);
        assert_eq!(cost.rounds, None);
    }

    #[test]
    fn pipeline_runs_in_the_lazy_and_perceptive_models() {
        let config = RingConfig::builder(8)
            .random_positions(15)
            .alternating_chirality()
            .build()
            .unwrap();
        let ids = IdAssignment::random(8, 128, 17);
        for model in [Model::Lazy, Model::Perceptive] {
            let report = run_pipeline(&config, &ids, model).unwrap();
            assert!(
                report.costs.iter().all(|c| c.solvable && c.verified),
                "{model}"
            );
        }
    }
}
