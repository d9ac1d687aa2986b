//! `Distances`: perceptive-model location discovery in `n/2 + o(n)` rounds
//! (Algorithm 6, Proposition 40, Lemma 41, Theorem 42).
//!
//! Prerequisites (all built here): a nontrivial move (`NMoveS`), a leader
//! and a common sense of direction (Algorithm 2), the collision link, and
//! every agent's ring distance from the leader in **both** directions
//! (`RingDist` run twice), from which every agent also learns `n`.
//!
//! The measurement phase then alternates agents by label parity
//! (`Convolution` rounds, rotation index 2), sweeping a single exception
//! agent so that the collision and displacement observations of each round
//! contribute two fresh linear equations per agent; a handful of `Pivot`
//! rounds (rotation index 0, one half of the ring against the other) tie
//! the two parity classes together. Every observation is a
//! contiguous-interval equation over the gap vector, so each agent tracks
//! its knowledge with the union–find structure of
//! [`crate::knowledge::GapKnowledge`] and is done when a single component
//! remains — after `n/2` Convolution rounds plus O(1) pivots.
//!
//! The collision spans differ between agents (the exception agent and the
//! pivots give them different shapes), so each agent keeps its own
//! structure and takes each round's equations as they arrive.

use crate::coordination::leader::elect_leader_with_move;
use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::knowledge::{GapKnowledge, KnowledgeConflict};
use crate::locate::{cumulative_dist_logical, AgentView, LocationDiscovery, LocationMethod};
use crate::perceptive::link::RingLink;
use crate::perceptive::nmove::nmove_s;
use crate::perceptive::ringdist::ring_distances;
use ring_sim::{ArcLength, Frame, LocalDirection, Observation};

/// The logical direction an agent with a given label takes in a Convolution
/// round with the given exception label: odd labels move clockwise, even
/// labels anticlockwise, except the exception (always even) which also moves
/// clockwise.
fn convolution_direction(label: usize, exception: usize) -> LocalDirection {
    if label % 2 == 1 || label == exception {
        LocalDirection::Right
    } else {
        LocalDirection::Left
    }
}

/// The logical direction in a Pivot round anchored at label `c`: the `n/2`
/// labels following `c` clockwise move anticlockwise (towards `c`) and the
/// rest move clockwise, so the rotation index is 0.
fn pivot_direction(label: usize, c: usize, n: usize) -> LocalDirection {
    // Hops from c+1 to label going clockwise.
    let offset = (label + n - 1 - (c % n)) % n;
    if offset < n / 2 {
        LocalDirection::Left
    } else {
        LocalDirection::Right
    }
}

/// For every label, the number of label-steps to the nearest agent ahead
/// (clockwise) that moves anticlockwise, and to the nearest agent behind
/// (anticlockwise) that moves clockwise — under the given per-label rule;
/// 0 when no such agent exists, `n` when the agent itself is the only one.
/// These determine which contiguous gap interval a first-collision
/// observation spans (Proposition 4). Two cyclic sweeps over the labels, as
/// in the analytic engine: a reverse one carries the next left-mover, a
/// forward one the previous right-mover, each seeded across the wrap-around.
fn collision_spans_into(
    rule: &dyn Fn(usize) -> LocalDirection,
    n: usize,
    scratch: &mut MeasureScratch,
) {
    scratch.rule_dirs.clear();
    scratch.rule_dirs.extend((1..=n).map(rule));
    let dirs = &scratch.rule_dirs;
    let ahead = &mut scratch.ahead;
    let behind = &mut scratch.behind;
    ahead.clear();
    ahead.resize(n + 1, 0);
    behind.clear();
    behind.resize(n + 1, 0);
    // Label `i + 1` sits at index `i`; the cyclic distance from `from` to
    // `to` going clockwise, a full turn when they coincide.
    let steps = |from: usize, to: usize| if to > from { to - from } else { to + n - from };
    if let Some(first_left) = dirs.iter().position(|&d| d == LocalDirection::Left) {
        let mut next_left = first_left;
        for i in (0..n).rev() {
            ahead[i + 1] = steps(i, next_left);
            if dirs[i] == LocalDirection::Left {
                next_left = i;
            }
        }
    }
    if let Some(last_right) = dirs.iter().rposition(|&d| d == LocalDirection::Right) {
        let mut prev_right = last_right;
        for (i, &dir) in dirs.iter().enumerate() {
            behind[i + 1] = steps(prev_right, i);
            if dir == LocalDirection::Right {
                prev_right = i;
            }
        }
    }
}

/// Reusable scratch for the measurement rounds of Algorithm 6: the step
/// buffers, the physical direction buffer and the collision-span tables.
#[derive(Clone, Debug, Default)]
struct MeasureScratch {
    step: StepBuffers,
    dirs: Vec<LocalDirection>,
    rule_dirs: Vec<LocalDirection>,
    ahead: Vec<usize>,
    behind: Vec<usize>,
}

/// Records the equations one round of the measurement phase contributes
/// for one agent: the displacement equation, then the collision one, each
/// only when it carries something.
#[allow(clippy::too_many_arguments)]
fn record_equations(
    knowledge: &mut GapKnowledge,
    n: usize,
    label: usize,
    site: usize,
    logical_obs: &Observation,
    direction: LocalDirection,
    ahead: &[usize],
    behind: &[usize],
) -> Result<(), KnowledgeConflict> {
    let start = site - 1;
    // Displacement equation (only when the round rotated the ring).
    if !logical_obs.dist.is_zero() {
        // Rotation index 2: the agent moved two sites clockwise.
        knowledge.add_cw_arc(start, (start + 2) % n, logical_obs.dist)?;
    }
    // Collision equation.
    if let Some(coll) = logical_obs.coll {
        let doubled = ArcLength::from_ticks(coll.doubled_ticks());
        match direction {
            LocalDirection::Right => {
                let span = ahead[label];
                if span > 0 && span < n {
                    knowledge.add_cw_arc(start, (start + span) % n, doubled)?;
                }
            }
            LocalDirection::Left => {
                let span = behind[label];
                if span > 0 && span < n {
                    knowledge.add_cw_arc((start + n - span) % n, start, doubled)?;
                }
            }
            LocalDirection::Idle => {}
        }
    }
    Ok(())
}

/// Location discovery in the perceptive model with even `n`
/// (Theorem 42): `n/2 + O(√n log² N)` rounds.
///
/// # Errors
///
/// Propagates sub-protocol and substrate errors; returns
/// [`ProtocolError::Internal`] if the measurement schedule ends with
/// incomplete knowledge (which the tests show does not happen).
pub fn discover_locations_perceptive(
    net: &mut Network<'_>,
) -> Result<LocationDiscovery, ProtocolError> {
    let n = net.len();
    let start = net.rounds_used();

    // Phase 1: coordination — nontrivial move, common direction, leader.
    let nm = nmove_s(net, 0x5eed)?;
    let election = elect_leader_with_move(net, &nm)?;
    let frames = election.frames().to_vec();
    let leader_flags = election.leader_flags().to_vec();

    // Phase 2: the collision link (established after the coordination phase
    // so that its gap table matches the positions used from now on).
    let (link, _) = RingLink::establish(net)?;

    // Phase 3: ring distances in both directions; every agent learns n.
    let cw = ring_distances(net, &link, &frames, &leader_flags)?;
    let mirrored: Vec<Frame> = frames
        .iter()
        .map(|f| {
            let mut g = *f;
            g.flip();
            g
        })
        .collect();
    let acw = ring_distances(net, &link, &mirrored, &leader_flags)?;
    let mut known_n: Vec<Option<u64>> = (0..n)
        .map(|agent| {
            if leader_flags[agent] {
                None
            } else {
                Some((cw.label(agent) + acw.label(agent) - 2) as u64)
            }
        })
        .collect();
    // The leader learns n from either neighbour.
    let exchanged = link.exchange_frames(net, &known_n, net.id_bits() + 1)?;
    for agent in 0..n {
        if known_n[agent].is_none() {
            known_n[agent] = exchanged[agent].from_right.or(exchanged[agent].from_left);
        }
    }
    for (agent, k) in known_n.iter().enumerate() {
        if *k != Some(n as u64) {
            return Err(ProtocolError::Internal {
                protocol: "location-discovery-perceptive",
                reason: format!("agent {agent} believes n = {k:?}, actual n = {n}"),
            });
        }
    }

    // Phase 4: the measurement schedule.
    let labels = cw.labels().to_vec();
    let delta_start: Vec<ArcLength> = (0..n)
        .map(|agent| cumulative_dist_logical(net, &frames, agent))
        .collect();

    let mut knowledge = vec![GapKnowledge::new(n); n];
    let mut rotations = 0usize;
    let mut scratch = MeasureScratch::default();

    // Convolution sweep: n/2 rounds of rotation index 2, the exception agent
    // sweeping the even labels downwards.
    for i in 1..=n / 2 {
        let exception = n - 2 * (i - 1);
        let rule = move |label: usize| convolution_direction(label, exception);
        run_measurement_round(
            net,
            &frames,
            &labels,
            n,
            &rule,
            rotations,
            &mut knowledge,
            &mut scratch,
        )?;
        rotations += 2;
    }

    // Pivot rounds (rotation index 0) to tie the parity classes together.
    let mut pivot_anchor = n;
    for _ in 0..6 {
        if knowledge.iter().all(GapKnowledge::is_complete) {
            break;
        }
        let c = pivot_anchor;
        pivot_anchor = if pivot_anchor <= 1 {
            n
        } else {
            pivot_anchor - 1
        };
        let rule = move |label: usize| pivot_direction(label, c, n);
        run_measurement_round(
            net,
            &frames,
            &labels,
            n,
            &rule,
            rotations,
            &mut knowledge,
            &mut scratch,
        )?;
    }

    if let Some(agent) = knowledge.iter().position(|k| !k.is_complete()) {
        return Err(ProtocolError::Internal {
            protocol: "location-discovery-perceptive",
            reason: format!(
                "agent {agent} has incomplete knowledge after the measurement schedule"
            ),
        });
    }

    // Phase 5: assemble the per-agent views. Knowledge is indexed by label
    // sites; rotate it to start at each agent's own site before applying
    // the displacement correction.
    let views = (0..n)
        .map(|agent| {
            let mut gaps = knowledge[agent].gaps().expect("checked complete");
            gaps.rotate_left(labels[agent] - 1);
            AgentView::from_measurement(&gaps, delta_start[agent])
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(LocationDiscovery::new(
        views,
        frames,
        net.rounds_used() - start,
        LocationMethod::PerceptiveConvolution,
    ))
}

/// Executes one measurement round under the given per-label direction rule
/// and records every agent's equations. All buffers live in `scratch`, so
/// the round allocates nothing once the vectors have grown to the ring
/// size.
#[allow(clippy::too_many_arguments)]
fn run_measurement_round(
    net: &mut Network<'_>,
    frames: &[Frame],
    labels: &[usize],
    n: usize,
    rule: &dyn Fn(usize) -> LocalDirection,
    rotations: usize,
    knowledge: &mut [GapKnowledge],
    scratch: &mut MeasureScratch,
) -> Result<(), ProtocolError> {
    collision_spans_into(rule, n, scratch);
    let rule_dirs = &scratch.rule_dirs;
    scratch.dirs.clear();
    scratch.dirs.extend(
        frames
            .iter()
            .zip(labels)
            .map(|(frame, &label)| frame.to_physical(rule_dirs[label - 1])),
    );
    net.step_into(&scratch.dirs, &mut scratch.step)?;
    let observations = scratch.step.observations();
    for (agent, knowledge) in knowledge.iter_mut().enumerate() {
        let logical = frames[agent].observation_to_logical(observations[agent]);
        let label = labels[agent];
        let site = (label - 1 + rotations) % n + 1;
        record_equations(
            knowledge,
            n,
            label,
            site,
            &logical,
            rule_dirs[label - 1],
            &scratch.ahead,
            &scratch.behind,
        )
        .map_err(|c| ProtocolError::Internal {
            protocol: "location-discovery-perceptive",
            reason: c.to_string(),
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::locate::verify_location_discovery;
    use ring_sim::{Model, RingConfig};

    #[test]
    fn convolution_and_pivot_rules_have_expected_rotation() {
        let n = 10;
        // Convolution: n/2 + 1 agents move right.
        let rights = (1..=n)
            .filter(|&l| convolution_direction(l, 6) == LocalDirection::Right)
            .count();
        assert_eq!(rights, n / 2 + 1);
        // Pivot: exactly half move each way.
        for c in [n, n - 1, n - 2] {
            let rights = (1..=n)
                .filter(|&l| pivot_direction(l, c, n) == LocalDirection::Right)
                .count();
            assert_eq!(rights, n / 2, "pivot {c}");
        }
    }

    #[test]
    fn collision_spans_match_the_pattern() {
        let n = 8;
        let rule = |label: usize| convolution_direction(label, 8);
        let mut scratch = MeasureScratch::default();
        collision_spans_into(&rule, n, &mut scratch);
        // Label 1 moves right; label 2 moves left: span 1.
        assert_eq!(scratch.ahead[1], 1);
        // Label 7 moves right, label 8 is the exception (right), label 1 is
        // odd (right), label 2 left: span 3.
        assert_eq!(scratch.ahead[7], 3);
        // Label 2 moves left; label 1 (behind it) moves right: span 1.
        assert_eq!(scratch.behind[2], 1);
    }

    /// The nested scan the sweeps replaced: for every label, walk the ring
    /// step by step until the first oncoming mover.
    fn collision_spans_brute_force(
        rule: &dyn Fn(usize) -> LocalDirection,
        n: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let dirs: Vec<LocalDirection> = (1..=n).map(rule).collect();
        let mut ahead = vec![0; n + 1];
        let mut behind = vec![0; n + 1];
        for label in 1..=n {
            ahead[label] = (1..=n)
                .find(|step| dirs[(label - 1 + step) % n] == LocalDirection::Left)
                .unwrap_or(0);
            behind[label] = (1..=n)
                .find(|step| dirs[(label + n - 1 - step) % n] == LocalDirection::Right)
                .unwrap_or(0);
        }
        (ahead, behind)
    }

    #[test]
    fn collision_spans_match_brute_force() {
        let mut scratch = MeasureScratch::default();
        let mut check = |rule: &dyn Fn(usize) -> LocalDirection, n: usize, what: &str| {
            collision_spans_into(rule, n, &mut scratch);
            let (ahead, behind) = collision_spans_brute_force(rule, n);
            assert_eq!(scratch.ahead, ahead, "ahead spans, {what}");
            assert_eq!(scratch.behind, behind, "behind spans, {what}");
        };
        for n in [8usize, 26, 512] {
            for exception in (2..=n).step_by(2) {
                let rule = move |label: usize| convolution_direction(label, exception);
                check(
                    &rule,
                    n,
                    &format!("n = {n}, convolution exception {exception}"),
                );
            }
            // Every anchor on the small rings; the anchors the schedule
            // uses plus both ends and the middle at n = 512.
            let anchors: Vec<usize> = if n < 512 {
                (1..=n).collect()
            } else {
                vec![1, 2, n / 2, n - 5, n - 4, n - 3, n - 2, n - 1, n]
            };
            for c in anchors {
                let rule = move |label: usize| pivot_direction(label, c, n);
                check(&rule, n, &format!("n = {n}, pivot anchor {c}"));
            }
            // One-directional rules: no oncoming mover on one side, and a
            // lone mover is its own partner a full turn away.
            check(
                &|_| LocalDirection::Right,
                n,
                &format!("n = {n}, all right"),
            );
            check(&|_| LocalDirection::Left, n, &format!("n = {n}, all left"));
            let lone = |label: usize| {
                if label == 1 {
                    LocalDirection::Left
                } else {
                    LocalDirection::Right
                }
            };
            check(&lone, n, &format!("n = {n}, lone left mover"));
        }
    }

    #[test]
    fn perceptive_discovery_recovers_all_positions_small() {
        for &(n, seed) in &[(6usize, 1u64), (8, 2), (10, 3)] {
            let config = RingConfig::builder(n)
                .random_positions(seed * 19 + 5)
                .random_chirality(seed * 23 + 7)
                .build()
                .unwrap();
            let ids = IdAssignment::random(n, 8 * n as u64, seed + 11);
            let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
            let discovery = discover_locations_perceptive(&mut net).unwrap();
            assert!(
                verify_location_discovery(&net, &discovery),
                "n={n} seed={seed}"
            );
            assert_eq!(discovery.method(), LocationMethod::PerceptiveConvolution);
        }
    }

    /// A discovery of 65 Convolution rounds, then the pivot checks.
    #[test]
    fn perceptive_discovery_across_equation_batches() {
        let n = 130;
        let config = RingConfig::builder(n)
            .random_positions(131)
            .random_chirality(132)
            .build()
            .unwrap();
        let ids = IdAssignment::random(n, 4 * n as u64, 133);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let discovery = discover_locations_perceptive(&mut net).unwrap();
        assert!(verify_location_discovery(&net, &discovery));
    }

    #[test]
    fn perceptive_discovery_on_a_larger_even_ring() {
        let n = 26;
        let config = RingConfig::builder(n)
            .random_positions(97)
            .random_chirality(98)
            .build()
            .unwrap();
        let ids = IdAssignment::random(n, 1 << 9, 99);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let discovery = discover_locations_perceptive(&mut net).unwrap();
        assert!(verify_location_discovery(&net, &discovery));
    }
}
