//! Regeneration of Figures 1 and 2: the incremental cost of each reduction
//! edge between the coordination problems.
//!
//! Figure 1 covers the settings where `n` is odd or the model is lazy /
//! perceptive; Figure 2 covers the basic model with even `n`, where the
//! "direction agreement → leader election" edge costs `O(log² N)`
//! constructively (emptiness testing) and `O(log N)` with the randomized
//! construction of Lemma 15.

use crate::report::Measurement;
use crate::sweep::Case;
use ring_protocols::coordination::diragr::agree_direction_with_move;
use ring_protocols::coordination::leader::{
    elect_leader_with_common_direction, elect_leader_with_move,
};
use ring_protocols::coordination::nontrivial::{
    nontrivial_move_common_randomized, nontrivial_move_with_leader, solve_nontrivial_move,
};
use ring_protocols::structures::SharedStructures;
use ring_protocols::{Network, ProtocolError};
use ring_sim::Model;

/// The reduction edges measured for the figures.
pub const EDGES: [&str; 6] = [
    "leader election -> nontrivial move",
    "leader election -> direction agreement",
    "nontrivial move -> direction agreement",
    "nontrivial move -> leader election",
    "direction agreement -> leader election",
    "direction agreement -> nontrivial move",
];

/// The paper's predicted overhead (constants 1) of one reduction edge.
fn predicted(edge: &str, universe: u64, basic_even: bool) -> Option<f64> {
    let log_n = (universe as f64).log2().max(1.0);
    match edge {
        "leader election -> nontrivial move" => Some(1.0),
        "leader election -> direction agreement" => Some(1.0),
        "nontrivial move -> direction agreement" => Some(1.0),
        "nontrivial move -> leader election" => Some(log_n),
        "direction agreement -> leader election" => {
            Some(if basic_even { log_n * log_n } else { log_n })
        }
        "direction agreement -> nontrivial move" => {
            Some(if basic_even { log_n * log_n } else { log_n })
        }
        _ => None,
    }
}

/// Measures the incremental rounds of one reduction edge on one
/// configuration: the prerequisite problem is solved first (not counted) and
/// only the rounds of the reduction itself are reported.
fn measure_edge(net: &mut Network<'_>, edge: &str) -> Result<(u64, bool), ProtocolError> {
    match edge {
        "leader election -> nontrivial move" => {
            let nm0 = solve_nontrivial_move(net)?;
            let election = elect_leader_with_move(net, &nm0)?;
            let before = net.rounds_used();
            let nm = nontrivial_move_with_leader(net, election.leader_flags())?;
            let rounds = net.rounds_used() - before;
            let ok = ring_protocols::coordination::nontrivial::verify_nontrivial(net, &nm);
            Ok((rounds, ok))
        }
        "leader election -> direction agreement" => {
            let nm0 = solve_nontrivial_move(net)?;
            let election = elect_leader_with_move(net, &nm0)?;
            let before = net.rounds_used();
            let nm = nontrivial_move_with_leader(net, election.leader_flags())?;
            let agreement = agree_direction_with_move(net, nm.directions())?;
            let rounds = net.rounds_used() - before;
            let ok =
                ring_protocols::coordination::diragr::frames_are_coherent(net, agreement.frames());
            Ok((rounds, ok))
        }
        "nontrivial move -> direction agreement" => {
            let nm = solve_nontrivial_move(net)?;
            let before = net.rounds_used();
            let agreement = agree_direction_with_move(net, nm.directions())?;
            let rounds = net.rounds_used() - before;
            let ok =
                ring_protocols::coordination::diragr::frames_are_coherent(net, agreement.frames());
            Ok((rounds, ok))
        }
        "nontrivial move -> leader election" => {
            let nm = solve_nontrivial_move(net)?;
            let before = net.rounds_used();
            let election = elect_leader_with_move(net, &nm)?;
            let rounds = net.rounds_used() - before;
            Ok((rounds, election.leaders().count() == 1))
        }
        "direction agreement -> leader election" => {
            let nm = solve_nontrivial_move(net)?;
            let agreement = agree_direction_with_move(net, nm.directions())?;
            let before = net.rounds_used();
            let election = elect_leader_with_common_direction(net, agreement.frames())?;
            let rounds = net.rounds_used() - before;
            Ok((rounds, election.leaders().count() == 1))
        }
        "direction agreement -> nontrivial move" => {
            // Constructive route: elect a leader by binary search, then use
            // the leader-deviation trick (Lemma 10).
            let nm = solve_nontrivial_move(net)?;
            let agreement = agree_direction_with_move(net, nm.directions())?;
            let before = net.rounds_used();
            let election = elect_leader_with_common_direction(net, agreement.frames())?;
            let nm2 = nontrivial_move_with_leader(net, election.leader_flags())?;
            let rounds = net.rounds_used() - before;
            let ok = ring_protocols::coordination::nontrivial::verify_nontrivial(net, &nm2);
            Ok((rounds, ok))
        }
        _ => Err(ProtocolError::Internal {
            protocol: "reductions",
            reason: format!("unknown edge {edge}"),
        }),
    }
}

/// Which figure a reduction measurement belongs to: Figure 2 covers the
/// basic model with even `n` (where the edges cost `O(log² N)`), Figure 1
/// everything else. Single source of truth for the experiment tag — the
/// harness scenario layer labels its per-case records with the same rule.
pub fn figure_for(model: Model, n: usize) -> &'static str {
    if model == Model::Basic && n.is_multiple_of(2) {
        "fig2"
    } else {
        "fig1"
    }
}

/// Measures every reduction edge on one case in one model (see
/// [`crate::tables::table1_case`] for the provider contract). Figure 1
/// corresponds to odd sizes (any model) and to the lazy/perceptive models;
/// Figure 2 corresponds to the basic model on even sizes.
pub fn reductions_case(
    case: &Case,
    model: Model,
    structures: &SharedStructures,
) -> Vec<Measurement> {
    let config = case.config();
    let ids = case.ids();
    let basic_even = model == Model::Basic && case.n.is_multiple_of(2);
    let figure = figure_for(model, case.n);
    let mut out = Vec::new();
    for edge in EDGES {
        let mut net = Network::new(&config, ids.clone(), model)
            .expect("valid configuration")
            .with_structures(structures.clone())
            .with_structure_seed(case.structure_seed);
        let (rounds, verified) = measure_edge(&mut net, edge).expect("reduction failed");
        out.push(Measurement {
            experiment: figure.into(),
            setting: format!(
                "{model} model, {}",
                if case.n.is_multiple_of(2) {
                    "even n"
                } else {
                    "odd n"
                }
            ),
            quantity: edge.into(),
            n: case.n,
            universe: case.universe,
            value: Some(rounds as f64),
            predicted: predicted(edge, case.universe, basic_even),
            verified,
        });
    }
    out
}

/// Measures the Lemma 15 variant of the "direction agreement → nontrivial
/// move" edge (randomized, `O(log N)` with high probability) on one case,
/// reported separately for the non-constructive part of Figure 2 (see
/// [`crate::tables::table1_case`] for the provider contract).
pub fn randomized_da_to_nm_case(
    case: &Case,
    model: Model,
    structures: &SharedStructures,
) -> Measurement {
    let config = case.config();
    let ids = case.ids();
    let mut net = Network::new(&config, ids, model)
        .expect("valid configuration")
        .with_structures(structures.clone())
        .with_structure_seed(case.structure_seed);
    let nm = solve_nontrivial_move(&mut net).expect("nontrivial move");
    let agreement =
        agree_direction_with_move(&mut net, nm.directions()).expect("direction agreement");
    let before = net.rounds_used();
    let nm2 = nontrivial_move_common_randomized(&mut net, agreement.frames(), case.seed)
        .expect("randomized nontrivial move");
    let rounds = net.rounds_used() - before;
    let verified = ring_protocols::coordination::nontrivial::verify_nontrivial(&mut net, &nm2);
    Measurement {
        experiment: "fig2".into(),
        setting: format!("{model} model (randomized, Lemma 15)"),
        quantity: "direction agreement -> nontrivial move".into(),
        n: case.n,
        universe: case.universe,
        value: Some(rounds as f64),
        predicted: Some((case.universe as f64).log2().max(1.0)),
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use ring_protocols::structures::fresh_structures;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            sizes: vec![9, 8],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 11,
            structure_seeds: None,
            faults: None,
        }
    }

    #[test]
    fn all_edges_are_measured_and_verified() {
        let structures = fresh_structures();
        for model in [Model::Basic, Model::Lazy, Model::Perceptive] {
            let measurements: Vec<_> = tiny_spec()
                .cases()
                .iter()
                .flat_map(|case| reductions_case(case, model, &structures))
                .collect();
            assert_eq!(measurements.len(), 2 * EDGES.len(), "{model}");
            assert!(measurements.iter().all(|m| m.verified), "{model}");
            // O(1) edges stay tiny.
            for m in &measurements {
                if m.quantity == "nontrivial move -> direction agreement" {
                    assert!(m.value.unwrap() <= 4.0, "{model}");
                }
            }
        }
    }

    #[test]
    fn randomized_variant_is_verified() {
        let structures = fresh_structures();
        let measurements: Vec<_> = tiny_spec()
            .cases()
            .iter()
            .map(|case| randomized_da_to_nm_case(case, Model::Basic, &structures))
            .collect();
        assert_eq!(measurements.len(), 2);
        assert!(measurements.iter().all(|m| m.verified));
    }
}
