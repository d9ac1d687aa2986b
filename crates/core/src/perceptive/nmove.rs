//! `NMoveS`: the perceptive-model nontrivial-move algorithm (Algorithm 4,
//! Lemma 36).
//!
//! The idea: if the all-right round is trivial, then any round in which
//! **exactly one** agent deviates from it has a rotation index differing by
//! exactly 2 and is therefore nontrivial (the same observation as Lemma 10).
//! The problem reduces to isolating a single deviator without knowing who
//! is present — which is what selective families are for. To keep the
//! families small the algorithm first thins the agents to *local leaders* at
//! exponentially growing radii: a level-`k` leader is a level-`(k−1)` leader
//! whose identifier beats every other level-`(k−1)` leader within ring
//! distance `2^k`, so level-`k` leaders are more than `2^k` apart and at
//! most `n/2^k` of them remain. Once the selective family's target size
//! catches up with the number of surviving leaders (`2^k ≈ √n`), some set
//! selects exactly one leader and the induced round is nontrivial. Total
//! cost `O(√n · log N)` rounds.
//!
//! The selective family is realised *implicitly*: membership of an
//! identifier in a set is [`ring_combinat::implicit_member`], a
//! pseudo-random function of the public seed, the level, the scale, the set
//! index and the identifier, so no `Θ(N)` structure is ever materialised.
//! [`ring_combinat::SelectiveFamily`] evaluates the same function:
//! `SelectiveFamily::random(N, 2^level, seed)`, the family the scaling
//! experiment verifies, holds this level's sets as a prefix of each scale's
//! batch.

use crate::coordination::nontrivial::{NontrivialMove, NontrivialStrategy};
use crate::coordination::probe::{probe_move_with, MoveClass};
use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::perceptive::dissemination::{flood_max_with, FloodBuffers};
use crate::perceptive::link::RingLink;
use ring_combinat::implicit_member;
use ring_sim::LocalDirection;

/// Number of sets executed per scale at a given level.
fn sets_per_scale(universe: u64, scale: u32) -> u64 {
    let width = (universe as f64 / f64::from(1u32 << scale.min(31))).max(2.0);
    (4.0 * f64::from(1u32 << scale.min(31)) * width.log2().max(1.0)).ceil() as u64
}

/// Algorithm 4: solves the nontrivial-move problem in the perceptive model
/// in `O(√n · log N)` rounds.
///
/// # Errors
///
/// Propagates substrate errors; returns [`ProtocolError::RoundBudgetExceeded`]
/// if no nontrivial move is found after the maximum level (which would
/// require the pseudo-random selective families to fail at every level and
/// has negligible probability).
pub fn nmove_s(net: &mut Network<'_>, seed: u64) -> Result<NontrivialMove, ProtocolError> {
    let n = net.len();
    let start = net.rounds_used();
    let mut bufs = StepBuffers::new();

    // Step 1: maybe the all-right round is already nontrivial.
    let all_right = vec![LocalDirection::Right; n];
    if probe_move_with(net, &all_right, &mut bufs)? == MoveClass::Nontrivial {
        return Ok(NontrivialMove::new(
            all_right,
            net.rounds_used() - start,
            NontrivialStrategy::AllRight,
        ));
    }

    // Step 2: establish the collision link (Algorithm 3).
    let (link, _) = RingLink::establish(net)?;
    let id_bits = net.id_bits();

    // Step 3: local leaders at exponentially growing radii. The flooding,
    // probing and direction scratch is reused across all levels and sets.
    let mut flood = FloodBuffers::new();
    let mut values: Vec<Option<u64>> = Vec::with_capacity(n);
    let mut best: Vec<Option<u64>> = Vec::with_capacity(n);
    let mut dirs: Vec<LocalDirection> = Vec::with_capacity(n);
    let mut candidate: Vec<bool> = vec![true; n];
    let max_level = id_bits + 1;
    for level in 0..=max_level {
        let radius = 1usize << level.min(20);

        // Thin the candidates: a candidate survives iff its identifier is
        // the maximum among candidates within ring distance `radius`.
        values.clear();
        values.extend((0..n).map(|agent| candidate[agent].then(|| net.id_of(agent).value())));
        flood_max_with(net, &link, &values, id_bits, radius, &mut flood, &mut best)?;
        for agent in 0..n {
            candidate[agent] = candidate[agent] && best[agent] == Some(net.id_of(agent).value());
        }

        // Execute an implicit (N, 2^level)-selective family on the
        // surviving candidates: a selected candidate deviates (moves left)
        // from the all-right pattern.
        for scale in 0..=level {
            let sets = sets_per_scale(net.universe(), scale);
            for set_index in 0..sets {
                dirs.clear();
                dirs.extend((0..n).map(|agent| {
                    let id = net.id_of(agent).value();
                    if candidate[agent] && implicit_member(seed, level, scale, set_index, id) {
                        LocalDirection::Left
                    } else {
                        LocalDirection::Right
                    }
                }));
                if probe_move_with(net, &dirs, &mut bufs)? == MoveClass::Nontrivial {
                    return Ok(NontrivialMove::new(
                        dirs,
                        net.rounds_used() - start,
                        NontrivialStrategy::SelectiveFamily { radius },
                    ));
                }
            }
        }
    }

    Err(ProtocolError::RoundBudgetExceeded {
        protocol: "nmove-s",
        budget: net.rounds_used() - start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordination::nontrivial::verify_nontrivial;
    use crate::ids::IdAssignment;
    use ring_sim::{Model, RingConfig};

    #[test]
    fn nmove_s_succeeds_on_balanced_chirality() {
        // Alternating chirality on an even ring: the all-right round is
        // trivial and the selective machinery must isolate a deviator.
        let n = 12;
        let config = RingConfig::builder(n)
            .random_positions(3)
            .alternating_chirality()
            .build()
            .unwrap();
        let mut net = Network::new(
            &config,
            IdAssignment::random(n, 1 << 10, 4),
            Model::Perceptive,
        )
        .unwrap();
        let nm = nmove_s(&mut net, 99).unwrap();
        assert!(verify_nontrivial(&mut net, &nm));
    }

    #[test]
    fn nmove_s_shortcuts_when_all_right_already_works() {
        let n = 10;
        let config = RingConfig::builder(n)
            .random_positions(5)
            .explicit_chirality(
                (0..n)
                    .map(|i| {
                        if i < 3 {
                            ring_sim::Chirality::Reversed
                        } else {
                            ring_sim::Chirality::Aligned
                        }
                    })
                    .collect::<Vec<_>>(),
            )
            .build()
            .unwrap();
        let mut net =
            Network::new(&config, IdAssignment::random(n, 256, 6), Model::Perceptive).unwrap();
        let nm = nmove_s(&mut net, 7).unwrap();
        assert_eq!(nm.strategy(), NontrivialStrategy::AllRight);
        assert!(nm.rounds() <= 2);
        assert!(verify_nontrivial(&mut net, &nm));
    }

    #[test]
    fn nmove_s_handles_uniform_chirality_even_rings() {
        let n = 8;
        let config = RingConfig::builder(n)
            .random_positions(8)
            .aligned_chirality()
            .build()
            .unwrap();
        let mut net =
            Network::new(&config, IdAssignment::random(n, 128, 9), Model::Perceptive).unwrap();
        let nm = nmove_s(&mut net, 11).unwrap();
        assert!(verify_nontrivial(&mut net, &nm));
        assert!(matches!(
            nm.strategy(),
            NontrivialStrategy::SelectiveFamily { .. }
        ));
    }
}
