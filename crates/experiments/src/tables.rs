//! Regeneration of Tables I and II of the paper: measured round counts of
//! the four problems in every setting, against the paper's asymptotic
//! predictions.

use crate::report::Measurement;
use crate::sweep::Case;
use ring_combinat::bounds;
use ring_protocols::coordination::leader::elect_leader_with_common_direction;
use ring_protocols::coordination::nontrivial::nontrivial_move_with_leader;
use ring_protocols::locate::basic_odd::discover_locations_basic_odd_with_leader;
use ring_protocols::locate::lazy::discover_locations_lazy_with_leader;
use ring_protocols::locate::verify_location_discovery;
use ring_protocols::pipeline::{measure_problem, Problem};
use ring_protocols::structures::SharedStructures;
use ring_protocols::{Network, ProtocolError};
use ring_sim::{Frame, Model, Parity};

/// The settings (rows) of Table I.
fn settings_for(n: usize) -> Vec<(Model, &'static str)> {
    if n % 2 == 1 {
        vec![(Model::Basic, "odd n")]
    } else {
        vec![
            (Model::Basic, "basic model, even n"),
            (Model::Lazy, "lazy model, even n"),
            (Model::Perceptive, "perceptive model, even n"),
        ]
    }
}

/// The paper's Table I prediction (constants 1) for one cell.
fn table1_prediction(setting: &str, problem: Problem, n: usize, universe: u64) -> Option<f64> {
    let log_n_univ = (universe as f64).log2().max(1.0);
    let odd = |problem: Problem| match problem {
        Problem::LeaderElection => Some(log_n_univ),
        Problem::NontrivialMove => Some(((universe as f64 / n as f64).max(2.0)).log2().max(1.0)),
        Problem::DirectionAgreement => Some(1.0),
        Problem::LocationDiscovery => Some(n as f64 + log_n_univ),
    };
    let superlinear = bounds::nontrivial_move_round_bound(universe, n);
    match setting {
        "odd n" => odd(problem),
        "basic model, even n" => match problem {
            Problem::LocationDiscovery => None,
            _ => Some(superlinear),
        },
        "lazy model, even n" => match problem {
            Problem::LocationDiscovery => Some(n as f64 + superlinear),
            _ => Some(superlinear),
        },
        "perceptive model, even n" => match problem {
            Problem::LocationDiscovery => {
                Some(bounds::perceptive_location_discovery_bound(universe, n))
            }
            _ => Some(bounds::perceptive_nontrivial_move_bound(universe, n)),
        },
        _ => None,
    }
}

/// Measures one Table I case: every problem in every setting applicable to
/// the case's parity, against the paper's predictions. Structures come from
/// the given provider, so sweep harnesses can share one cache across cases
/// and worker threads.
pub fn table1_case(case: &Case, structures: &SharedStructures) -> Vec<Measurement> {
    // The adversarial configuration for even n is the balanced chirality
    // split; odd n uses the generic random one.
    let config = if case.n.is_multiple_of(2) {
        case.config_balanced()
    } else {
        case.config()
    };
    let ids = case.ids();
    let mut out = Vec::new();
    for (model, setting) in settings_for(case.n) {
        for problem in Problem::ALL {
            let cost = measure_problem(
                &config,
                &ids,
                model,
                problem,
                structures,
                case.structure_seed,
            )
            .expect("table 1 experiment failed");
            out.push(Measurement {
                experiment: "table1".into(),
                setting: setting.into(),
                quantity: problem.to_string(),
                n: case.n,
                universe: case.universe,
                value: cost.rounds.map(|r| r as f64),
                predicted: table1_prediction(setting, problem, case.n, case.universe),
                verified: cost.verified,
            });
        }
    }
    out
}

/// The paper's Table II prediction (constants 1) for one cell.
fn table2_prediction(setting: &str, problem: Problem, n: usize, universe: u64) -> Option<f64> {
    let log_n_univ = (universe as f64).log2().max(1.0);
    match (setting, problem) {
        ("odd n", Problem::LeaderElection) => Some(log_n_univ),
        ("odd n", Problem::NontrivialMove) => {
            Some(((universe as f64 / n as f64).max(2.0)).log2().max(1.0))
        }
        ("odd n", Problem::LocationDiscovery) => Some(n as f64 + log_n_univ),
        ("basic model, even n", Problem::LocationDiscovery) => None,
        ("basic model, even n", _) => Some(log_n_univ * log_n_univ),
        ("lazy model, even n", Problem::LocationDiscovery) => Some(n as f64 + log_n_univ),
        ("lazy model, even n", _) => Some(log_n_univ),
        ("perceptive model, even n", Problem::LocationDiscovery) => {
            Some(n as f64 / 2.0 + (n as f64).sqrt() * log_n_univ)
        }
        ("perceptive model, even n", _) => Some(log_n_univ),
        _ => None,
    }
}

/// Measures one Table II case (see [`table1_case`] for the provider
/// contract): agents share a common sense of direction, so direction
/// agreement is trivial and only leader election, nontrivial move and
/// location discovery are measured — exactly the columns the paper lists.
pub fn table2_case(case: &Case, structures: &SharedStructures) -> Vec<Measurement> {
    let mut out = Vec::new();
    for (model, setting) in settings_for(case.n) {
        for problem in [
            Problem::LeaderElection,
            Problem::NontrivialMove,
            Problem::LocationDiscovery,
        ] {
            let (value, verified) = match measure_common_direction(case, model, problem, structures)
            {
                Ok(v) => v,
                Err(e) => panic!("table 2 experiment failed: {e}"),
            };
            out.push(Measurement {
                experiment: "table2".into(),
                setting: setting.into(),
                quantity: problem.to_string(),
                n: case.n,
                universe: case.universe,
                value,
                predicted: table2_prediction(setting, problem, case.n, case.universe),
                verified,
            });
        }
    }
    out
}

/// Measures one Table II cell: all agents share the objective clockwise
/// direction as their "right" (common sense of direction), so protocols are
/// run with identity frames.
fn measure_common_direction(
    case: &Case,
    model: Model,
    problem: Problem,
    structures: &SharedStructures,
) -> Result<(Option<f64>, bool), ProtocolError> {
    // Common sense of direction: every agent's chirality is aligned, and the
    // shared frame is public knowledge.
    let config = ring_sim::RingConfig::builder(case.n)
        .random_positions(case.seed.wrapping_mul(3) + 1)
        .aligned_chirality()
        .build()
        .expect("valid configuration");
    let ids = case.ids();
    let mut net = Network::new(&config, ids, model)?
        .with_structures(structures.clone())
        .with_structure_seed(case.structure_seed);
    let frames = vec![Frame::identity(); case.n];

    match problem {
        Problem::LeaderElection => {
            let election = elect_leader_with_common_direction(&mut net, &frames)?;
            Ok((
                Some(election.rounds() as f64),
                election.leaders().count() == 1,
            ))
        }
        Problem::NontrivialMove => {
            let election = elect_leader_with_common_direction(&mut net, &frames)?;
            let before = net.rounds_used();
            let nm = nontrivial_move_with_leader(&mut net, election.leader_flags())?;
            let rounds = election.rounds() + (net.rounds_used() - before);
            let verified =
                ring_protocols::coordination::nontrivial::verify_nontrivial(&mut net, &nm);
            Ok((Some(rounds as f64), verified))
        }
        Problem::LocationDiscovery => match (model, Parity::of(case.n)) {
            (Model::Basic, Parity::Even) => Ok((None, true)),
            (Model::Perceptive, Parity::Even) => {
                let discovery =
                    ring_protocols::perceptive::distances::discover_locations_perceptive(&mut net)?;
                Ok((
                    Some(discovery.rounds() as f64),
                    verify_location_discovery(&net, &discovery),
                ))
            }
            (_, parity) => {
                let election = elect_leader_with_common_direction(&mut net, &frames)?;
                let discovery = match (model, parity) {
                    (Model::Lazy, _) => discover_locations_lazy_with_leader(&mut net, &election)?,
                    _ => discover_locations_basic_odd_with_leader(&mut net, &election)?,
                };
                Ok((
                    Some(discovery.rounds() as f64),
                    verify_location_discovery(&net, &discovery),
                ))
            }
        },
        Problem::DirectionAgreement => Ok((Some(0.0), true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use ring_protocols::structures::fresh_structures;

    #[test]
    fn table1_quick_sweep_produces_verified_measurements() {
        let spec = SweepSpec {
            sizes: vec![9, 8],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 3,
            structure_seeds: None,
            faults: None,
        };
        let structures = fresh_structures();
        let measurements: Vec<_> = spec
            .cases()
            .iter()
            .flat_map(|case| table1_case(case, &structures))
            .collect();
        // Odd case: 4 problems; even case: 3 models × 4 problems.
        assert_eq!(measurements.len(), 4 + 12);
        assert!(measurements.iter().all(|m| m.verified));
        // The basic-even location-discovery cell is the only unsolvable one.
        let unsolvable: Vec<_> = measurements.iter().filter(|m| m.value.is_none()).collect();
        assert_eq!(unsolvable.len(), 1);
        assert_eq!(unsolvable[0].setting, "basic model, even n");
    }

    #[test]
    fn table2_quick_sweep_produces_verified_measurements() {
        let spec = SweepSpec {
            sizes: vec![9, 8],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 5,
            structure_seeds: None,
            faults: None,
        };
        let structures = fresh_structures();
        let measurements: Vec<_> = spec
            .cases()
            .iter()
            .flat_map(|case| table2_case(case, &structures))
            .collect();
        assert_eq!(measurements.len(), 3 + 9);
        assert!(measurements.iter().all(|m| m.verified));
    }
}
