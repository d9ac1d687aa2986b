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
//! contiguous-interval equation over the gap vector, so knowledge is kept
//! with the union–find structure of [`crate::knowledge::GapKnowledge`] and
//! an agent is done when a single component remains — after `n/2`
//! Convolution rounds plus O(1) pivots.
//!
//! Convolution round `i` has exception label `n − 2(i−1)` and follows
//! `2(i−1)` rotations, so the exception always stands at site `n`: every
//! Convolution round has the same direction pattern over sites, and an
//! agent's equations depend only on the site it stands at. Over the sweep
//! each agent stands once at every site of its label's parity, so all
//! agents of one parity end the sweep with the same equations. The sweep
//! therefore keeps one structure per parity class (`ParitySweep`), and each
//! agent ties its class's few components together with its own Pivot
//! equations (`ParityKnowledge`): O(n) knowledge per ring instead of one
//! n-slot structure per agent.

use crate::coordination::leader::elect_leader_with_move;
use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::knowledge::{cw_arc_difference, gaps_between, GapKnowledge, KnowledgeConflict};
use crate::locate::{check_view, cumulative_dists_logical, LocationDiscovery, LocationMethod};
use crate::perceptive::link::RingLink;
use crate::perceptive::nmove::nmove_s;
use crate::perceptive::ringdist::ring_distances;
use ring_sim::{ArcLength, Frame, LocalDirection, Observation};

/// The most Pivot rounds the schedule runs before giving up.
const MAX_PIVOT_ROUNDS: usize = 6;

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

/// The anchor of the Pivot round after one anchored at `c`: one label
/// anticlockwise, from label 1 back to `n`.
fn next_pivot_anchor(c: usize, n: usize) -> usize {
    if c <= 1 {
        n
    } else {
        c - 1
    }
}

/// `x mod n` for `x < 2n`.
fn wrap(x: usize, n: usize) -> usize {
    if x >= n {
        x - n
    } else {
        x
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
/// buffers, the physical direction buffer, the collision-span tables and
/// the last round's equations, one entry per agent.
#[derive(Clone, Debug, Default)]
struct MeasureScratch {
    step: StepBuffers,
    dirs: Vec<LocalDirection>,
    rule_dirs: Vec<LocalDirection>,
    ahead: Vec<usize>,
    behind: Vec<usize>,
    equations: Vec<RoundEquations>,
}

/// The clockwise arc from slot `from` to slot `to` (wrapping past slot 0
/// when `to <= from`) has length `arc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ArcEquation {
    from: usize,
    to: usize,
    arc: ArcLength,
}

/// What one measurement round tells one agent: the displacement equation,
/// then the collision one, each only when it carries something.
type RoundEquations = [Option<ArcEquation>; 2];

/// The equations one round of the measurement phase contributes for the
/// agent with `label` standing at `site`.
fn round_equations(
    n: usize,
    label: usize,
    site: usize,
    logical_obs: &Observation,
    direction: LocalDirection,
    ahead: &[usize],
    behind: &[usize],
) -> RoundEquations {
    let start = site - 1;
    // Displacement equation (only when the round rotated the ring).
    // Rotation index 2: the agent moved two sites clockwise.
    let displacement = (!logical_obs.dist.is_zero()).then(|| ArcEquation {
        from: start,
        to: wrap(start + 2, n),
        arc: logical_obs.dist,
    });
    // Collision equation.
    let collision = logical_obs.coll.and_then(|coll| {
        let arc = ArcLength::from_ticks(coll.doubled_ticks());
        let (from, to) = match direction {
            LocalDirection::Right => {
                let span = ahead[label];
                (span > 0 && span < n).then(|| (start, wrap(start + span, n)))?
            }
            LocalDirection::Left => {
                let span = behind[label];
                (span > 0 && span < n).then(|| (wrap(start + n - span, n), start))?
            }
            LocalDirection::Idle => return None,
        };
        Some(ArcEquation { from, to, arc })
    });
    [displacement, collision]
}

/// Location discovery in the perceptive model with even `n`
/// (Theorem 42): `n/2 + O(√n log² N)` rounds.
///
/// # Errors
///
/// Propagates sub-protocol and substrate errors; returns
/// [`ProtocolError::Internal`] if the measurement schedule ends with
/// incomplete knowledge (which the tests show does not happen), or if two
/// agents of one parity class see different equations at one site.
pub fn discover_locations_perceptive(
    net: &mut Network<'_>,
) -> Result<LocationDiscovery, ProtocolError> {
    let n = net.len();
    let start = net.rounds_used();
    let (frames, labels) = measurement_prerequisites(net)?;
    let delta_start = cumulative_dists_logical(net, &frames);

    let knowledge = measure(net, &frames, &labels)?;

    // One record of the views: agent 0's gaps, indexed by label sites as
    // all knowledge is. Every other agent's gaps are derived from its own
    // knowledge and compared with it as they are derived. An agent stood
    // at the site of its label when the measurement began.
    let record: Vec<ArcLength> = knowledge.gaps(0).collect();
    for agent in 1..n {
        check_view(agent, &record, knowledge.gaps(agent))?;
    }
    let starts = (0..n).map(|agent| (labels[agent] - 1, delta_start[agent]));
    let rounds = net.rounds_used() - start;
    let method = LocationMethod::PerceptiveConvolution;
    LocationDiscovery::new(&record, starts, frames, rounds, method)
}

/// Phases 1–3 of Algorithm 6: coordination, the collision link and both
/// ring distances. Returns every agent's frame and its label, the
/// clockwise ring distance from the leader plus one.
fn measurement_prerequisites(
    net: &mut Network<'_>,
) -> Result<(Vec<Frame>, Vec<usize>), ProtocolError> {
    let n = net.len();

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
    Ok((frames, cw.labels().to_vec()))
}

/// Phase 4 of Algorithm 6, the measurement schedule: `n/2` Convolution
/// rounds, then Pivot rounds until every agent's knowledge is complete.
fn measure(
    net: &mut Network<'_>,
    frames: &[Frame],
    labels: &[usize],
) -> Result<ParityKnowledge, ProtocolError> {
    let n = labels.len();
    let mut scratch = MeasureScratch::default();
    let mut knowledge = convolution_sweep(net, frames, labels, &mut scratch)?;
    let mut anchor = n;
    for _ in 0..MAX_PIVOT_ROUNDS {
        if (0..n).all(|agent| knowledge.is_complete(agent)) {
            break;
        }
        pivot_round(net, frames, labels, anchor, &mut scratch)?;
        knowledge.apply_round(&scratch.equations)?;
        anchor = next_pivot_anchor(anchor, n);
    }
    if let Some(agent) = (0..n).find(|&agent| !knowledge.is_complete(agent)) {
        return Err(ProtocolError::Internal {
            protocol: "location-discovery-perceptive",
            reason: format!(
                "agent {agent} has incomplete knowledge after the measurement schedule"
            ),
        });
    }
    Ok(knowledge)
}

/// The label `label`'s site after `rotations` rotations (both 1-based,
/// `rotations <= n`).
fn site_of(label: usize, rotations: usize, n: usize) -> usize {
    wrap(label - 1 + rotations, n) + 1
}

/// Runs Convolution round `round` (1-based): the exception label is
/// `n − 2(round − 1)`, after as many rotations.
fn convolution_round(
    net: &mut Network<'_>,
    frames: &[Frame],
    labels: &[usize],
    round: usize,
    scratch: &mut MeasureScratch,
) -> Result<(), ProtocolError> {
    let rotations = 2 * (round - 1);
    let exception = labels.len() - rotations;
    let rule = move |label: usize| convolution_direction(label, exception);
    run_measurement_round(net, frames, labels, &rule, rotations, scratch)
}

/// Runs the Pivot round anchored at label `c`. It follows the sweep's `n`
/// rotations, so every agent stands at the site of its label.
fn pivot_round(
    net: &mut Network<'_>,
    frames: &[Frame],
    labels: &[usize],
    c: usize,
    scratch: &mut MeasureScratch,
) -> Result<(), ProtocolError> {
    let n = labels.len();
    let rule = move |label: usize| pivot_direction(label, c, n);
    run_measurement_round(net, frames, labels, &rule, n, scratch)
}

/// The Convolution sweep, with every agent's equations checked against its
/// class's record of each site.
fn convolution_sweep(
    net: &mut Network<'_>,
    frames: &[Frame],
    labels: &[usize],
    scratch: &mut MeasureScratch,
) -> Result<ParityKnowledge, ProtocolError> {
    let n = labels.len();
    let mut sweep = ParitySweep::new(n);
    for round in 1..=n / 2 {
        convolution_round(net, frames, labels, round, scratch)?;
        let rotations = 2 * (round - 1);
        for (agent, equations) in scratch.equations.iter().enumerate() {
            let label = labels[agent];
            sweep.record(round, agent, label, site_of(label, rotations, n), equations)?;
        }
    }
    Ok(sweep.finish(labels))
}

/// The Convolution sweep's knowledge: one structure per label parity and
/// every site's equations as first seen.
///
/// Rotations come in twos and `n` is even, so an agent always stands at a
/// site of its label's parity: a site is only ever seen by one class, and
/// each agent of that class stands there once. The first visit puts the
/// site's equations into the class structure; every later visit must bring
/// the same equations, compared exactly. Each agent's equation set then is
/// its class's set, without a structure of its own.
struct ParitySweep {
    /// Indexed by label parity.
    classes: [GapKnowledge; 2],
    /// The equations recorded at site `s`, at index `s − 1`.
    sites: Vec<Option<RoundEquations>>,
}

impl ParitySweep {
    fn new(n: usize) -> Self {
        ParitySweep {
            classes: [GapKnowledge::new(n), GapKnowledge::new(n)],
            sites: vec![None; n],
        }
    }

    /// Records what Convolution round `round` told `agent`, which has
    /// `label` and stands at `site`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Internal`] when the site's recorded equations
    /// differ from the agent's, or when they contradict the class's
    /// earlier ones.
    fn record(
        &mut self,
        round: usize,
        agent: usize,
        label: usize,
        site: usize,
        equations: &RoundEquations,
    ) -> Result<(), ProtocolError> {
        match &self.sites[site - 1] {
            Some(recorded) if recorded == equations => Ok(()),
            Some(recorded) => Err(ProtocolError::Internal {
                protocol: "location-discovery-perceptive",
                reason: format!(
                    "Convolution round {round}: agent {agent} at site {site} observed \
                     {equations:?}, but its class recorded {recorded:?} there"
                ),
            }),
            None => {
                let class = &mut self.classes[label % 2];
                for eq in equations.iter().flatten() {
                    class
                        .add_cw_arc(eq.from, eq.to, eq.arc)
                        .map_err(knowledge_error)?;
                }
                self.sites[site - 1] = Some(*equations);
                Ok(())
            }
        }
    }

    /// Fixes each class's components and every slot's potential within
    /// its component, for agents with the given labels.
    fn finish(self, labels: &[usize]) -> ParityKnowledge {
        let n = labels.len();
        let mut index = vec![u32::MAX; n];
        let mut counts = [0; 2];
        let slots = [0, 1].map(|class| {
            let knowledge = &self.classes[class];
            index.fill(u32::MAX);
            (0..n)
                .map(|slot| {
                    let (root, potential) = knowledge.find(slot);
                    if index[root] == u32::MAX {
                        index[root] = counts[class];
                        counts[class] += 1;
                    }
                    SlotInClass {
                        component: index[root],
                        potential,
                    }
                })
                .collect()
        });
        let stride = counts[0].max(counts[1]) as usize;
        let class: Vec<u8> = labels.iter().map(|&label| (label % 2) as u8).collect();
        ParityKnowledge {
            overlay: (0..n)
                .flat_map(|_| {
                    (0..stride as u32).map(|component| OverlayEntry {
                        root: component,
                        offset: 0,
                    })
                })
                .collect(),
            remaining: class.iter().map(|&c| counts[c as usize] as usize).collect(),
            slots,
            class,
            stride,
        }
    }
}

/// A slot's place in its class's sweep knowledge.
#[derive(Clone, Copy, Debug)]
struct SlotInClass {
    /// Its component, numbered from 0 in slot order of first appearance.
    component: u32,
    /// `P_slot − P_root` of its component's root.
    potential: i128,
}

/// One class component in an agent's overlay.
#[derive(Clone, Copy, Debug)]
struct OverlayEntry {
    /// The component whose root stands for this one's group.
    root: u32,
    /// `P_root(this) − P_root(root)`.
    offset: i128,
}

/// Every agent's knowledge after the Convolution sweep: its class's
/// components and potentials, shared by the class, tied together by the
/// agent's own later equations in a small union–find over the components
/// (its overlay). A slot's prefix position, relative to the root of its
/// overlay group, is its component's overlay offset plus its potential.
struct ParityKnowledge {
    /// Per label parity, per slot.
    slots: [Vec<SlotInClass>; 2],
    /// Per agent, its label's parity.
    class: Vec<u8>,
    /// Per agent, `stride` entries, one per component of its class.
    overlay: Vec<OverlayEntry>,
    /// The larger class's component count.
    stride: usize,
    /// Per agent, its overlay's remaining groups.
    remaining: Vec<usize>,
}

impl ParityKnowledge {
    /// Whether every gap is determined for `agent`.
    fn is_complete(&self, agent: usize) -> bool {
        self.remaining[agent] == 1
    }

    /// Applies one round's equations, `equations[agent]` to each agent.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Internal`] when an equation contradicts the
    /// agent's knowledge.
    fn apply_round(&mut self, equations: &[RoundEquations]) -> Result<(), ProtocolError> {
        for (agent, equations) in equations.iter().enumerate() {
            for eq in equations.iter().flatten() {
                self.apply(agent, eq).map_err(knowledge_error)?;
            }
        }
        Ok(())
    }

    /// Records `eq` for `agent`, as [`GapKnowledge::add_cw_arc`] would.
    fn apply(&mut self, agent: usize, eq: &ArcEquation) -> Result<(), KnowledgeConflict> {
        let Some(diff) = cw_arc_difference(eq.from, eq.to, eq.arc) else {
            return Ok(());
        };
        let slots = &self.slots[self.class[agent] as usize];
        let overlay = &mut self.overlay[agent * self.stride..(agent + 1) * self.stride];
        let (from, to) = (slots[eq.from], slots[eq.to]);
        let (group_from, group_to) = (
            overlay[from.component as usize],
            overlay[to.component as usize],
        );
        // Prefix positions relative to each slot's group root.
        let at_from = group_from.offset + from.potential;
        let at_to = group_to.offset + to.potential;
        if group_from.root == group_to.root {
            let expected = at_to - at_from;
            if expected != diff {
                return Err(KnowledgeConflict {
                    from: eq.from,
                    to: eq.to,
                    expected,
                    got: diff,
                });
            }
            return Ok(());
        }
        // P_to = P_from + diff, so the `to` group's root sits at
        // `at_from + diff − at_to` from the `from` group's root.
        let shift = at_from + diff - at_to;
        for entry in overlay.iter_mut() {
            if entry.root == group_to.root {
                entry.root = group_from.root;
                entry.offset += shift;
            }
        }
        self.remaining[agent] -= 1;
        Ok(())
    }

    /// `agent`'s gaps in slot order, derived as they are read, once its
    /// knowledge is complete.
    fn gaps(&self, agent: usize) -> impl Iterator<Item = ArcLength> + '_ {
        debug_assert!(self.is_complete(agent), "agent {agent} is incomplete");
        let slots = &self.slots[self.class[agent] as usize];
        let overlay = &self.overlay[agent * self.stride..(agent + 1) * self.stride];
        gaps_between(
            slots
                .iter()
                .map(|s| overlay[s.component as usize].offset + s.potential),
        )
    }
}

/// A knowledge conflict, reported as this protocol's internal error.
fn knowledge_error(conflict: KnowledgeConflict) -> ProtocolError {
    ProtocolError::Internal {
        protocol: "location-discovery-perceptive",
        reason: conflict.to_string(),
    }
}

/// Executes one measurement round under the given per-label direction rule
/// and writes every agent's equations to `scratch.equations`. All buffers
/// live in `scratch`, so the round allocates nothing once the vectors have
/// grown to the ring size.
fn run_measurement_round(
    net: &mut Network<'_>,
    frames: &[Frame],
    labels: &[usize],
    rule: &dyn Fn(usize) -> LocalDirection,
    rotations: usize,
    scratch: &mut MeasureScratch,
) -> Result<(), ProtocolError> {
    let n = labels.len();
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
    scratch.equations.clear();
    scratch
        .equations
        .extend(labels.iter().enumerate().map(|(agent, &label)| {
            let logical = frames[agent].observation_to_logical(observations[agent]);
            round_equations(
                n,
                label,
                site_of(label, rotations, n),
                &logical,
                rule_dirs[label - 1],
                &scratch.ahead,
                &scratch.behind,
            )
        }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::locate::verify_location_discovery;
    use proptest::prelude::*;
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

    /// The reference the parity classes are checked against: one
    /// [`GapKnowledge`] per agent, fed the agent's own equations as each
    /// round ends.
    fn apply_per_agent(knowledge: &mut [GapKnowledge], equations: &[RoundEquations]) {
        for (k, equations) in knowledge.iter_mut().zip(equations) {
            for eq in equations.iter().flatten() {
                k.add_cw_arc(eq.from, eq.to, eq.arc)
                    .expect("consistent equations");
            }
        }
    }

    /// Every agent's completeness verdict before each Pivot round (the
    /// schedule's check, up to the round limit), then every agent's gaps.
    #[derive(Debug, PartialEq)]
    struct Measured {
        verdicts: Vec<Vec<bool>>,
        gaps: Vec<Option<Vec<ArcLength>>>,
    }

    impl Measured {
        /// The Pivot rounds the schedule ran: one per verdict, unless the
        /// last verdict found every agent complete.
        fn pivot_rounds(&self) -> usize {
            let done = self.verdicts.last().is_some_and(|v| v.iter().all(|&c| c));
            self.verdicts.len() - usize::from(done)
        }
    }

    /// The measurement schedule with one `GapKnowledge` per agent.
    fn measure_per_agent(net: &mut Network<'_>, frames: &[Frame], labels: &[usize]) -> Measured {
        let n = labels.len();
        let mut scratch = MeasureScratch::default();
        let mut knowledge = vec![GapKnowledge::new(n); n];
        for round in 1..=n / 2 {
            convolution_round(net, frames, labels, round, &mut scratch).unwrap();
            apply_per_agent(&mut knowledge, &scratch.equations);
        }
        let mut verdicts = Vec::new();
        let mut anchor = n;
        for _ in 0..MAX_PIVOT_ROUNDS {
            let verdict: Vec<bool> = knowledge.iter().map(GapKnowledge::is_complete).collect();
            let done = verdict.iter().all(|&c| c);
            verdicts.push(verdict);
            if done {
                break;
            }
            pivot_round(net, frames, labels, anchor, &mut scratch).unwrap();
            apply_per_agent(&mut knowledge, &scratch.equations);
            anchor = next_pivot_anchor(anchor, n);
        }
        Measured {
            verdicts,
            gaps: knowledge.iter().map(GapKnowledge::gaps).collect(),
        }
    }

    /// The same schedule over the parity classes, step by step, so that
    /// each agent's verdict before each Pivot round can be read.
    fn measure_by_parity(net: &mut Network<'_>, frames: &[Frame], labels: &[usize]) -> Measured {
        let n = labels.len();
        let mut scratch = MeasureScratch::default();
        let mut knowledge = convolution_sweep(net, frames, labels, &mut scratch).unwrap();
        let mut verdicts = Vec::new();
        let mut anchor = n;
        for _ in 0..MAX_PIVOT_ROUNDS {
            let verdict: Vec<bool> = (0..n).map(|agent| knowledge.is_complete(agent)).collect();
            let done = verdict.iter().all(|&c| c);
            verdicts.push(verdict);
            if done {
                break;
            }
            pivot_round(net, frames, labels, anchor, &mut scratch).unwrap();
            knowledge.apply_round(&scratch.equations).unwrap();
            anchor = next_pivot_anchor(anchor, n);
        }
        Measured {
            verdicts,
            gaps: (0..n)
                .map(|agent| {
                    knowledge
                        .is_complete(agent)
                        .then(|| knowledge.gaps(agent).collect())
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The parity classes equal one union–find per agent on even rings
        /// of 6 (the smallest even ring) to 130 agents, `n ≡ 2 (mod 4)`
        /// included, with random,
        /// alternating and aligned chirality: every agent has the same
        /// verdict before each Pivot round and the same final gaps, and
        /// `measure` itself runs as many Pivot rounds and ends with those
        /// gaps.
        #[test]
        fn parity_classes_match_one_union_find_per_agent(
            (half, chirality, seed) in (3usize..=65, 0u32..3, any::<u64>())
        ) {
            let n = 2 * half;
            let builder = RingConfig::builder(n).random_positions(seed);
            let config = match chirality {
                0 => builder.random_chirality(seed ^ 0x9e37),
                1 => builder.alternating_chirality(),
                _ => builder.aligned_chirality(),
            }
            .build()
            .unwrap();
            let ids = IdAssignment::random(n, 4 * n as u64, seed.wrapping_add(1));
            let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
            let (frames, labels) = measurement_prerequisites(&mut net).unwrap();
            let (mut twin, mut real) = (net.clone(), net.clone());

            let reference = measure_per_agent(&mut net, &frames, &labels);
            prop_assert_eq!(&measure_by_parity(&mut twin, &frames, &labels), &reference);

            let before = real.rounds_used();
            let knowledge = measure(&mut real, &frames, &labels).unwrap();
            prop_assert_eq!(
                real.rounds_used() - before,
                (n / 2 + reference.pivot_rounds()) as u64
            );
            for (agent, expected) in reference.gaps.iter().enumerate() {
                let gaps: Vec<ArcLength> = knowledge.gaps(agent).collect();
                prop_assert_eq!(Some(&gaps), expected.as_ref(), "agent {}", agent);
            }
        }
    }

    #[test]
    fn a_site_seen_differently_by_two_agents_is_refused() {
        let n = 8;
        let mut sweep = ParitySweep::new(n);
        let eq = |arc: u64| ArcEquation {
            from: 2,
            to: 4,
            arc: ArcLength::from_ticks(arc),
        };
        sweep.record(1, 0, 3, 3, &[Some(eq(100)), None]).unwrap();
        sweep.record(2, 6, 1, 3, &[Some(eq(100)), None]).unwrap();
        for (round, equations) in [
            (3, [Some(eq(101)), None]),
            (4, [Some(eq(100)), Some(eq(7))]),
        ] {
            let err = sweep
                .record(round, 5, 7, 3, &equations)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("round {round}"))
                    && err.contains("agent 5")
                    && err.contains("site 3"),
                "{err}"
            );
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
