//! `RingDist`: every agent learns its ring distance from the leader
//! (Algorithm 5, Propositions 37/38, Lemma 39).
//!
//! Agents are labelled `1..=n` in logical-clockwise order starting from the
//! leader (`a_1`). Labels are discovered in waves: in the iteration with
//! radius `k = 2^i`,
//!
//! 1. every agent executes `Shift(−k/2)` `k` times, recording after the
//!    `j`-th execution the total gap length `y_j` it traversed (the ring
//!    rotates by exactly `k` positions per execution, so `y_j` is the sum of
//!    a known block of `k` consecutive gaps);
//! 2. the shifts are undone, and one `Shift(k)` is executed: an unlabelled
//!    agent's first collision distance `z` is half the arc separating it
//!    from agent `a_k` (Proposition 4), because `a_1,…,a_k` are exactly the
//!    agents moving logically clockwise;
//! 3. an unlabelled agent whose measurements satisfy `2z = y_1 + … + y_j`
//!    learns that its label is `k + jk` (Corollary 38) — the arithmetic is
//!    exact, so there are no false positives;
//! 4. the labelled agents flood their labels over ring distance `k`, and
//!    every unlabelled agent within reach infers its own label from the
//!    received value and the hop count;
//! 5. a `CheckCompleteness` round — only the left neighbour of the leader
//!    moves clockwise, and only if it already knows its label — tells every
//!    agent whether the process is finished.
//!
//! The total cost is `O(√n · log N)` rounds. The undo rounds — phase 2's
//! `k` reversals, the reversal of `Shift(k)`, the reversal of the final
//! check, and half of every collision-link exchange the floods run — are
//! [`Network::undo_last`]/[`Network::rewind`] rounds: counted in that cost
//! but not simulated (an active fault plan refuses them).

use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::perceptive::dissemination::{flood_nearest_with, FloodBuffers, NearestSources};
use crate::perceptive::link::RingLink;
use ring_sim::{Frame, LocalDirection, CIRCUMFERENCE};

/// The labels assigned by `RingDist`.
#[derive(Clone, Debug)]
pub struct RingDistances {
    labels: Vec<usize>,
    rounds: u64,
}

impl RingDistances {
    /// The label (1-based ring distance from the leader plus one, in
    /// logical-clockwise order) of each agent.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Label of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn label(&self, agent: usize) -> usize {
        self.labels[agent]
    }

    /// Rounds consumed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// Runs Algorithm 5. Requires an elected leader, a coherent set of logical
/// frames and an established collision link.
///
/// To obtain labels counted in the opposite direction (used to let every
/// agent learn `n`), call this again with every frame flipped.
///
/// # Errors
///
/// Propagates substrate errors; returns [`ProtocolError::RoundBudgetExceeded`]
/// if the completeness check never succeeds (indicating a configuration
/// outside the protocol's assumptions) and [`ProtocolError::Internal`] if it
/// succeeds while some agent is still unlabelled.
pub fn ring_distances(
    net: &mut Network<'_>,
    link: &RingLink,
    frames: &[Frame],
    is_leader: &[bool],
) -> Result<RingDistances, ProtocolError> {
    let n = net.len();
    ProtocolError::check_lengths(
        n,
        &[("frames", frames.len()), ("leader flags", is_leader.len())],
    )?;
    let start = net.rounds_used();
    let label_bits = net.id_bits() + 1;

    let mut label: Vec<Option<usize>> = (0..n)
        .map(|agent| if is_leader[agent] { Some(1) } else { None })
        .collect();
    let mut is_last = vec![false; n];

    // Scratch reused by every phase of every iteration: after the vectors
    // reach the ring size, no round of the protocol allocates.
    let mut bufs = StepBuffers::new();
    let mut dirs: Vec<LocalDirection> = Vec::with_capacity(n);
    let mut flood = FloodBuffers::new();
    let mut nearest: Vec<NearestSources> = Vec::with_capacity(n);
    let mut sources: Vec<Option<u64>> = Vec::with_capacity(n);
    let mut z: Vec<Option<u64>> = Vec::with_capacity(n);
    // Row `agent` holds that agent's running sums y_1, y_1 + y_2, …,
    // y_1 + … + y_k of the current iteration.
    let mut y_sums: Vec<u64> = Vec::new();

    // Initial dissemination: the leader announces itself over distance 4.
    sources.clear();
    sources.extend(is_leader.iter().map(|&l| l.then_some(1u64)));
    flood_nearest_with(net, link, frames, &sources, 2, 4, &mut flood, &mut nearest)?;
    for agent in 0..n {
        if label[agent].is_none() {
            if let Some((hops, _)) = nearest[agent].from_left {
                label[agent] = Some(1 + hops);
            }
        }
        if let Some((1, _)) = nearest[agent].from_right {
            is_last[agent] = true;
        }
    }

    // Direction rule of Shift(l): agents with a known label ≤ threshold move
    // logically clockwise (for positive shifts) and everybody else moves the
    // other way. Directions are written into the reusable buffer.
    let fill_shift_dirs = |label: &[Option<usize>],
                           threshold: usize,
                           positive: bool,
                           dirs: &mut Vec<LocalDirection>| {
        dirs.clear();
        dirs.extend((0..n).map(|agent| {
            let in_prefix = label[agent].is_some_and(|l| l <= threshold);
            let logical = match (in_prefix, positive) {
                (true, true) | (false, false) => LocalDirection::Right,
                (true, false) | (false, true) => LocalDirection::Left,
            };
            frames[agent].to_physical(logical)
        }));
    };

    let max_iter = net.id_bits() + 2;
    let mut completed = false;
    for i in 1..=max_iter {
        let k = 1usize << i;

        // Phase A: k executions of Shift(−k/2); record the running sums of
        // the traversed gap blocks y_1, …, y_k.
        y_sums.clear();
        y_sums.resize(n * k, 0);
        let before_shifts = net.mark();
        fill_shift_dirs(&label, k / 2, false, &mut dirs);
        for j in 0..k {
            net.step_into(&dirs, &mut bufs)?;
            for ((sums, obs), frame) in y_sums
                .chunks_exact_mut(k)
                .zip(bufs.observations())
                .zip(frames)
            {
                let logical = frame.observation_to_logical(*obs);
                let traversed = if logical.dist.is_zero() {
                    0
                } else {
                    CIRCUMFERENCE - logical.dist.ticks()
                };
                let prev = if j == 0 { 0 } else { sums[j - 1] };
                sums[j] = prev + traversed;
            }
        }
        // Phase B: undo the shifts — k rounds of Shift(+k/2).
        net.rewind(before_shifts, &mut bufs)?;

        // Phase C: Shift(k), collect z, undo.
        fill_shift_dirs(&label, k, true, &mut dirs);
        net.step_into(&dirs, &mut bufs)?;
        z.clear();
        z.extend(
            bufs.observations()
                .iter()
                .map(|o| o.coll.map(|c| c.ticks())),
        );
        net.undo_last(&mut bufs)?;

        // Label detection (Corollary 38).
        for ((label, &z), sums) in label.iter_mut().zip(&z).zip(y_sums.chunks_exact(k)) {
            if label.is_some() {
                continue;
            }
            let Some(z) = z else { continue };
            if let Some(j) = sums.iter().position(|&sum| sum == 2 * z) {
                *label = Some(k + (j + 1) * k);
            }
        }

        // Every labelled agent floods its label over distance k. (The paper
        // lets only the agents at the multiples of k broadcast, which keeps
        // the sources ≥ k apart for its pipelined dissemination; our
        // hop-by-hop flooding costs the same regardless of source density,
        // and letting every labelled agent participate avoids having to
        // re-derive which previously-learned labels sit on the k-grid.)
        sources.clear();
        sources.extend(label.iter().map(|l| l.map(|v| v as u64)));
        flood_nearest_with(
            net,
            link,
            frames,
            &sources,
            label_bits,
            k,
            &mut flood,
            &mut nearest,
        )?;
        for agent in 0..n {
            if label[agent].is_some() {
                continue;
            }
            if let Some((hops, v)) = nearest[agent].from_left {
                label[agent] = Some(v as usize + hops);
            } else if let Some((hops, v)) = nearest[agent].from_right {
                if v as usize > hops {
                    label[agent] = Some(v as usize - hops);
                }
            }
        }

        // CheckCompleteness: only the leader's left neighbour may move
        // clockwise, and only once it knows its own label.
        dirs.clear();
        dirs.extend((0..n).map(|agent| {
            let logical = if is_last[agent] && label[agent].is_some() {
                LocalDirection::Right
            } else {
                LocalDirection::Left
            };
            frames[agent].to_physical(logical)
        }));
        net.step_into(&dirs, &mut bufs)?;
        if !bufs.observations()[0].dist.is_zero() {
            // Undo the displacement of the successful check so that the
            // collision link established earlier (whose gap table refers to
            // the positions at the start of this protocol) stays valid for
            // subsequent phases.
            net.undo_last(&mut bufs)?;
            completed = true;
            break;
        }
    }

    if !completed {
        return Err(ProtocolError::RoundBudgetExceeded {
            protocol: "ring-dist",
            budget: net.rounds_used() - start,
        });
    }
    let labels: Vec<usize> = label
        .iter()
        .enumerate()
        .map(|(agent, l)| {
            l.ok_or(ProtocolError::Internal {
                protocol: "ring-dist",
                reason: format!("agent {agent} finished without a label"),
            })
        })
        .collect::<Result<_, _>>()?;

    Ok(RingDistances {
        labels,
        rounds: net.rounds_used() - start,
    })
}

/// Ground-truth verification: labels must be `1..=n` in logical-clockwise
/// order starting at the leader. The logical-clockwise direction is read off
/// the supplied frames (which tests construct to be coherent).
pub fn verify_ring_distances(
    net: &Network<'_>,
    frames: &[Frame],
    is_leader: &[bool],
    dist: &RingDistances,
) -> bool {
    let n = net.len();
    let Some(leader) = is_leader.iter().position(|&l| l) else {
        return false;
    };
    // Determine whether logical right is the objective clockwise direction.
    let cw = frames[leader]
        .to_physical(LocalDirection::Right)
        .to_objective(net.ground_truth_config().chirality(leader))
        == ring_sim::ObjectiveDirection::Clockwise;
    (0..n).all(|agent| {
        let hops = if cw {
            (agent + n - leader) % n
        } else {
            (leader + n - agent) % n
        };
        dist.label(agent) == hops + 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use ring_sim::{Model, RingConfig};

    fn aligning_frames(net: &Network<'_>) -> Vec<Frame> {
        (0..net.len())
            .map(|agent| Frame::new(!net.ground_truth_config().chirality(agent).is_aligned()))
            .collect()
    }

    fn run_ring_dist(n: usize, seed: u64, leader: usize, mirror: bool) {
        let config = RingConfig::builder(n)
            .random_positions(seed + 1)
            .random_chirality(seed + 2)
            .build()
            .unwrap();
        let ids = IdAssignment::random(n, 4 * n as u64, seed + 3);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        let mut frames = aligning_frames(&net);
        if mirror {
            for f in &mut frames {
                f.flip();
            }
        }
        let mut is_leader = vec![false; n];
        is_leader[leader] = true;
        let dist = ring_distances(&mut net, &link, &frames, &is_leader).unwrap();
        assert!(
            verify_ring_distances(&net, &frames, &is_leader, &dist),
            "n={n} seed={seed} leader={leader} mirror={mirror}: labels {:?}",
            dist.labels()
        );
    }

    /// A length error names the slice that is wrong, with its own length,
    /// whether it is too long or too short and the other one is right.
    #[test]
    fn length_errors_name_the_wrong_slice() {
        let n = 6;
        let config = RingConfig::builder(n).random_positions(4).build().unwrap();
        let ids = IdAssignment::random(n, 4 * n as u64, 5);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        let frames = aligning_frames(&net);
        let mut is_leader = vec![false; n];
        is_leader[0] = true;
        let rounds = net.rounds_used();
        for got in [n - 1, n + 1] {
            let wrong = |what| ProtocolError::LengthMismatch {
                what,
                got,
                expected: n,
            };
            let (mut wrong_frames, mut wrong_flags) = (frames.clone(), is_leader.clone());
            wrong_frames.resize(got, Frame::identity());
            wrong_flags.resize(got, false);
            let err = ring_distances(&mut net, &link, &wrong_frames, &is_leader);
            assert_eq!(err.unwrap_err(), wrong("frames"));
            let err = ring_distances(&mut net, &link, &frames, &wrong_flags);
            assert_eq!(err.unwrap_err(), wrong("leader flags"));
        }
        assert_eq!(net.rounds_used(), rounds);
    }

    #[test]
    fn labels_are_correct_on_small_rings() {
        for n in [5usize, 6, 8, 9, 12] {
            run_ring_dist(n, 10 * n as u64, n / 3, false);
        }
    }

    #[test]
    fn labels_are_correct_on_a_larger_ring() {
        run_ring_dist(37, 123, 20, false);
    }

    #[test]
    fn mirrored_run_counts_the_other_way() {
        run_ring_dist(11, 55, 4, true);
    }

    #[test]
    fn round_count_grows_sublinearly() {
        // Measure rounds for two sizes and check the growth is far below
        // linear (the bound is O(√n log N)).
        let mut rounds = Vec::new();
        for &n in &[16usize, 64] {
            let config = RingConfig::builder(n)
                .random_positions(n as u64)
                .build()
                .unwrap();
            let ids = IdAssignment::random(n, 1 << 10, 7);
            let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
            let (link, _) = RingLink::establish(&mut net).unwrap();
            let frames = vec![Frame::identity(); n];
            let mut is_leader = vec![false; n];
            is_leader[0] = true;
            let dist = ring_distances(&mut net, &link, &frames, &is_leader).unwrap();
            rounds.push(dist.rounds());
        }
        // Quadrupling n should much less than quadruple the rounds.
        assert!(
            rounds[1] < rounds[0] * 4,
            "rounds {:?} do not look sublinear",
            rounds
        );
    }
}
