//! The analytic round engine.
//!
//! Uses the rotation-index lemma (Lemma 1) to compute the round's shift in
//! O(n), and the collision-cascade formula (Proposition 4) to compute every
//! agent's first-collision distance in O(n) with two cyclic sweeps over the
//! slots: a forward sweep carries the nearest clockwise mover strictly
//! before each slot, a reverse sweep the nearest anticlockwise mover
//! strictly after it. [`AnalyticEngine::execute_pair_into`] runs a round
//! and its complement (every direction flipped) from the same offset with
//! the same two sweeps, and yields only what a complementary pair is read
//! for: each round's first collisions, in ticks. All arithmetic is exact
//! (integer ticks); [`crate::reference`] keeps the earlier binary-search
//! engine as the oracle these results are tested against, tick for tick.
//!
//! The engine takes the ring's state as one rotation offset (agent `a` sits
//! in slot `(a + offset) mod n`, see [`crate::state`]): Lemma 1 moves every
//! agent by the same shift, so no round ever needs a general permutation.
//! Agent-order and slot-order data are rotated views of each other, and
//! every translation between them is a copy of two contiguous slices.
//!
//! First collisions are only defined here for rounds in which **every**
//! agent moves (the basic and perceptive models); for rounds containing idle
//! agents the analytic engine reports `None` for every agent and the
//! event-driven engine ([`crate::events`]) can be consulted instead. This is
//! sufficient for the paper's algorithms because `coll()` is only available
//! in the perceptive model, which does not allow idling.

use crate::config::RingConfig;
use crate::direction::ObjectiveDirection;
use crate::geometry::{ArcLength, Point};
use crate::observe::NO_COLLISION;
use crate::rotation::{extend_rotated, mover_counts, RotationIndex};
use std::hint::select_unpredictable;

/// Reusable scratch space for [`AnalyticEngine::execute_into`]: the
/// per-agent outputs of a round plus the engine's internal work arrays, so
/// a multi-round driver performs **zero** heap allocation per round after
/// the first.
#[derive(Clone, Debug, Default)]
pub struct AnalyticScratch {
    /// Per-agent objective clockwise displacement (output).
    pub cw_displacement: Vec<ArcLength>,
    /// Per-agent first-collision distance (output).
    pub first_collision: Vec<Option<ArcLength>>,
    dir_at_slot: Vec<ObjectiveDirection>,
    coll_at_slot: Vec<ArcLength>,
}

impl AnalyticScratch {
    /// Creates empty scratch space (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable scratch space for [`AnalyticEngine::execute_pair_into`]: each
/// slot's direction and both rounds' first collisions, in slot order.
#[derive(Clone, Debug, Default)]
pub struct PairScratch {
    dir_at_slot: Vec<ObjectiveDirection>,
    in_a: Vec<ArcLength>,
    in_b: Vec<ArcLength>,
}

impl PairScratch {
    /// Creates empty scratch space (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stateless analytic engine.
///
/// The engine is deliberately trivial to construct; it exists as a type so
/// that benchmarks can name it and so that alternative engines (the
/// event-driven one) can be swapped in behind the same [`crate::state::RingState`]
/// interface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyticEngine;

impl AnalyticEngine {
    /// Creates a new engine.
    pub fn new() -> Self {
        AnalyticEngine
    }

    /// Executes one round into caller-owned scratch space and returns its
    /// rotation index. After the scratch vectors have grown to the ring
    /// size once, subsequent calls allocate nothing.
    ///
    /// * `config` — the ground-truth configuration (initial slot positions).
    /// * `offset` — the ring's rotation offset: agent `a` occupies slot
    ///   `(a + offset) mod n`.
    /// * `directions` — the objective direction chosen by each agent.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= n` or `directions` does not hold one entry per
    /// agent (the caller, [`crate::state::RingState`], validates its
    /// inputs).
    pub fn execute_into(
        &self,
        config: &RingConfig,
        offset: usize,
        directions: &[ObjectiveDirection],
        scratch: &mut AnalyticScratch,
    ) -> RotationIndex {
        let n = config.len();
        assert!(offset < n, "offset {offset} out of range for a ring of {n}");
        assert_eq!(directions.len(), n);

        let (n_c, n_a) = mover_counts(directions);
        let rotation = RotationIndex::from_counts(n_c, n_a, n);
        displacements_into(
            config.positions(),
            offset,
            rotation.shift,
            &mut scratch.cw_displacement,
        );
        scratch.first_collision.clear();
        if n_c + n_a == n && n_c > 0 && n_a > 0 {
            self.first_collisions(config, offset, directions, scratch);
        } else {
            // Idle agents (not modelled) or everybody moving the same way
            // (no collisions at all).
            scratch.first_collision.resize(n, None);
        }
        rotation
    }

    /// Computes every agent's first-collision distance for an all-moving
    /// round with movers in both directions (Proposition 4: an agent's
    /// first collision happens after it has travelled half the arc
    /// separating it from the nearest agent ahead of it — in its direction
    /// of travel — that moves in the opposite direction). Appends to the
    /// (cleared) `scratch.first_collision`.
    fn first_collisions(
        &self,
        config: &RingConfig,
        offset: usize,
        directions: &[ObjectiveDirection],
        scratch: &mut AnalyticScratch,
    ) {
        use ObjectiveDirection::{Anticlockwise, Clockwise};
        let n = config.len();
        let positions = config.positions();

        // Direction of the agent sitting at each slot: slots `0..offset`
        // hold agents `n - offset..n`.
        let dir_at_slot = &mut scratch.dir_at_slot;
        dir_at_slot.clear();
        extend_rotated(dir_at_slot, directions, n - offset, |&dir| dir);
        let first_acw = dir_at_slot
            .iter()
            .position(|&d| d == Anticlockwise)
            .expect("an anticlockwise mover");
        let last_cw = dir_at_slot
            .iter()
            .rposition(|&d| d == Clockwise)
            .expect("a clockwise mover");

        // Forward sweep: an anticlockwise mover collides half-way to the
        // nearest clockwise mover strictly before it, cyclically — seeded
        // with the last clockwise slot for the wrap-around. Both sweeps
        // compute the arc at every slot and update through
        // `select_unpredictable`: with branches, a random mix of directions
        // mispredicts at about every other slot. The reverse sweep
        // overwrites the clockwise slots.
        let coll_at_slot = &mut scratch.coll_at_slot;
        coll_at_slot.clear();
        let mut behind = positions[last_cw];
        coll_at_slot.extend(dir_at_slot.iter().zip(positions).map(|(&dir, &here)| {
            let coll = behind.cw_distance_to(here).half();
            behind = select_unpredictable(dir == Clockwise, here, behind);
            coll
        }));

        // Reverse sweep: a clockwise mover collides half-way to the nearest
        // anticlockwise mover strictly after it, cyclically — seeded with
        // the first anticlockwise slot.
        let mut ahead = positions[first_acw];
        for ((coll, &dir), &here) in coll_at_slot
            .iter_mut()
            .zip(dir_at_slot.iter())
            .zip(positions)
            .rev()
        {
            let towards = here.cw_distance_to(ahead).half();
            *coll = select_unpredictable(dir == Clockwise, towards, *coll);
            ahead = select_unpredictable(dir == Anticlockwise, here, ahead);
        }

        // Back to agent order: agent `a` reads slot `(a + offset) mod n`.
        extend_rotated(
            &mut scratch.first_collision,
            coll_at_slot,
            offset,
            |&coll| Some(coll),
        );
    }

    /// Executes a complementary pair of rounds from the same offset and
    /// returns round A's rotation index: round A with `directions`, round B
    /// with every direction flipped. B's shift is the negation of A's
    /// (Lemma 1). Each round's first collisions are written in agent order
    /// and in ticks, A's to `coll_a` and B's to `coll_b`, with
    /// [`NO_COLLISION`] for an agent that has none. Both come from one
    /// forward and one reverse sweep, and the pair computes nothing else:
    /// no displacements.
    ///
    /// The collisions equal those of `execute_into` run twice from
    /// `offset`, once with `directions` and once with them flipped. After
    /// the vectors have grown to the ring size once, calls allocate
    /// nothing.
    ///
    /// # Panics
    ///
    /// As [`AnalyticEngine::execute_into`].
    pub fn execute_pair_into(
        &self,
        config: &RingConfig,
        offset: usize,
        directions: &[ObjectiveDirection],
        scratch: &mut PairScratch,
        coll_a: &mut Vec<u64>,
        coll_b: &mut Vec<u64>,
    ) -> RotationIndex {
        let n = config.len();
        assert!(offset < n, "offset {offset} out of range for a ring of {n}");
        assert_eq!(directions.len(), n);

        let (n_c, n_a) = mover_counts(directions);
        coll_a.clear();
        coll_b.clear();
        if n_c + n_a == n && n_c > 0 && n_a > 0 {
            self.pair_first_collisions(config, offset, directions, scratch);
            // Back to agent order: agent `a` reads slot `(a + offset) mod n`.
            extend_rotated(coll_a, &scratch.in_a, offset, |c| c.ticks());
            extend_rotated(coll_b, &scratch.in_b, offset, |c| c.ticks());
        } else {
            // Flipping keeps idles idle and a one-way round one-way.
            coll_a.resize(n, NO_COLLISION);
            coll_b.resize(n, NO_COLLISION);
        }
        RotationIndex::from_counts(n_c, n_a, n)
    }

    /// Both rounds' first collisions for [`AnalyticEngine::execute_pair_into`],
    /// in slot order, into `scratch.in_a` and `scratch.in_b`.
    ///
    /// By Proposition 4 a mover collides half-way to the nearest slot ahead
    /// of it, in its direction of travel, whose direction is opposite to
    /// its own. Flipping every direction keeps "opposite to mine" the same
    /// relation and only swaps which way is ahead. So for each slot the
    /// forward sweep carries the nearest earlier slot of the other
    /// direction and the reverse sweep the nearest later one: a clockwise
    /// slot of round A takes the reverse result in A and the forward result
    /// in B, an anticlockwise one the opposite. The nearest earlier slot of
    /// the other direction is the one just before the run of equal
    /// directions the slot sits in, so each sweep carries one slot.
    fn pair_first_collisions(
        &self,
        config: &RingConfig,
        offset: usize,
        directions: &[ObjectiveDirection],
        scratch: &mut PairScratch,
    ) {
        use ObjectiveDirection::Clockwise;
        let n = config.len();
        let positions = config.positions();

        let dir_at_slot = &mut scratch.dir_at_slot;
        dir_at_slot.clear();
        extend_rotated(dir_at_slot, directions, n - offset, |&dir| dir);
        let (first, last) = (dir_at_slot[0], dir_at_slot[n - 1]);

        // Forward sweep, into A's slots. Slot 0's run may wrap around from
        // slot n − 1, so the seed is the last slot whose direction differs
        // from slot 0's.
        let forward = &mut scratch.in_a;
        forward.clear();
        let seed = dir_at_slot
            .iter()
            .rposition(|&d| d != first)
            .expect("both directions");
        let mut behind = positions[seed];
        let (mut prev_dir, mut prev) = (last, positions[n - 1]);
        forward.extend(dir_at_slot.iter().zip(positions).map(|(&dir, &here)| {
            behind = select_unpredictable(dir != prev_dir, prev, behind);
            (prev_dir, prev) = (dir, here);
            behind.cw_distance_to(here).half()
        }));

        // Reverse sweep, seeded likewise with the first slot whose
        // direction differs from slot n − 1's. It sorts each slot's two
        // results into A's and B's collisions in place.
        let in_b = &mut scratch.in_b;
        in_b.clear();
        in_b.extend_from_slice(forward);
        let seed = dir_at_slot
            .iter()
            .position(|&d| d != last)
            .expect("both directions");
        let mut ahead = positions[seed];
        let (mut next_dir, mut next) = (first, positions[0]);
        for (((in_a, in_b), &dir), &here) in forward
            .iter_mut()
            .zip(in_b.iter_mut())
            .zip(dir_at_slot.iter())
            .zip(positions)
            .rev()
        {
            ahead = select_unpredictable(dir != next_dir, next, ahead);
            (next_dir, next) = (dir, here);
            let towards = here.cw_distance_to(ahead).half();
            let cw = dir == Clockwise;
            *in_a = select_unpredictable(cw, towards, *in_a);
            *in_b = select_unpredictable(cw, *in_b, towards);
        }
    }
}

/// Rebuilds `out` with every agent's clockwise displacement in a round of
/// shift `r` from `offset`. Slot `s` moves to slot `s + r`: the arcs in
/// slot order take two contiguous passes, and one rotation puts them in
/// agent order (agent `a` sits in slot `(a + offset) mod n`).
fn displacements_into(positions: &[Point], offset: usize, r: usize, out: &mut Vec<ArcLength>) {
    let (stay, wrap) = positions.split_at(positions.len() - r);
    let arc = |(from, &to): (&Point, &Point)| from.cw_distance_to(to);
    out.clear();
    out.extend(stay.iter().zip(&positions[r..]).map(arc));
    out.extend(wrap.iter().zip(positions).map(arc));
    out.rotate_left(offset);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use crate::events::EventEngine;
    use crate::geometry::{Point, CIRCUMFERENCE};
    use crate::rotation::rotation_index;
    use crate::state::{EngineKind, RingState, RoundBuffers};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ObjectiveDirection::{Anticlockwise as A, Clockwise as C, Idle as I};

    fn config_with_positions(ticks: &[u64]) -> RingConfig {
        RingConfig::builder(ticks.len())
            .explicit_positions(ticks.iter().copied().map(Point::from_ticks))
            .build()
            .unwrap()
    }

    /// Runs one round at the given offset into a fresh scratch.
    fn run(
        config: &RingConfig,
        offset: usize,
        dirs: &[ObjectiveDirection],
    ) -> (RotationIndex, AnalyticScratch) {
        let mut scratch = AnalyticScratch::new();
        let rotation = AnalyticEngine::new().execute_into(config, offset, dirs, &mut scratch);
        (rotation, scratch)
    }

    #[test]
    fn all_clockwise_round_has_no_collisions_and_no_displacement() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let (rotation, round) = run(&config, 0, &[C; 5]);
        assert!(rotation.is_zero());
        assert!(round.cw_displacement.iter().all(|d| d.is_zero()));
        assert!(round.first_collision.iter().all(|c| c.is_none()));
        // Shift 0: every agent stays in its slot.
        assert_eq!(rotation.shift, 0);
    }

    #[test]
    fn single_anticlockwise_agent_rotates_everyone() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let dirs = [C, C, C, C, A];
        let (rotation, round) = run(&config, 0, &dirs);
        // r = (4 - 1) mod 5 = 3.
        assert_eq!(rotation.shift, 3);
        let new_slots: Vec<usize> = (0..5).map(|a| (a + rotation.shift) % 5).collect();
        assert_eq!(new_slots, vec![3, 4, 0, 1, 2]);
        // Agent 0 ends at slot 3 (tick 400): displacement 400.
        assert_eq!(round.cw_displacement[0].ticks(), 400);
        // Agent 4 (tick 900) ends at slot 2 (tick 220): cw distance wraps.
        assert_eq!(
            round.cw_displacement[4].ticks(),
            config.cw_arc(4, 2).ticks()
        );
    }

    #[test]
    fn first_collision_matches_proposition_4() {
        // Agents at 0, 100, 220, 400, 900; agent 3 (tick 400) moves
        // anticlockwise, everyone else clockwise.
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let dirs = [C, C, C, A, C];
        let (_, round) = run(&config, 0, &dirs);

        // Agent 0 moves clockwise; the nearest anticlockwise mover ahead is
        // at tick 400, so it collides after (400 - 0)/2 = 200.
        assert_eq!(round.first_collision[0].unwrap().ticks(), 200);
        // Agent 2 (tick 220) collides after (400 - 220)/2 = 90.
        assert_eq!(round.first_collision[2].unwrap().ticks(), 90);
        // Agent 3 moves anticlockwise; the nearest clockwise mover behind is
        // at tick 220, so it also collides after 90.
        assert_eq!(round.first_collision[3].unwrap().ticks(), 90);
        // Agent 4 (tick 900) moves clockwise; nearest anticlockwise mover
        // ahead (wrapping) is at tick 400: arc = (400 + CIRC - 900) mod CIRC.
        let expected = config.cw_arc(4, 3).half();
        assert_eq!(round.first_collision[4].unwrap(), expected);
    }

    #[test]
    fn idle_rounds_have_no_analytic_collisions_but_correct_rotation() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let dirs = [C, I, I, I, I];
        let (rotation, round) = run(&config, 0, &dirs);
        assert_eq!(rotation.shift, 1);
        assert!(round.first_collision.iter().all(|c| c.is_none()));
        let new_slots: Vec<usize> = (0..5).map(|a| (a + rotation.shift) % 5).collect();
        assert_eq!(new_slots, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn displacement_uses_current_slots_not_agent_ids() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        // Agents already rotated by 2: agent i occupies slot i+2.
        let dirs = [C, C, C, C, A];
        let (rotation, round) = run(&config, 2, &dirs);
        assert_eq!(rotation.shift, 3);
        for agent in 0..5 {
            let slot = (agent + 2) % 5;
            let expected = config.cw_arc(slot, (slot + 3) % 5);
            assert_eq!(round.cw_displacement[agent], expected);
        }
    }

    /// Compares one round of the linear kernel (run into a reused scratch)
    /// with the binary-search oracle, tick for tick. The oracle takes the
    /// materialised slots and computes every agent's new slot on its own,
    /// so the kernel's offset arithmetic is checked agent by agent.
    fn assert_matches_oracle(
        config: &RingConfig,
        offset: usize,
        dirs: &[ObjectiveDirection],
        scratch: &mut AnalyticScratch,
    ) {
        let n = config.len();
        let slots: Vec<usize> = (0..n).map(|a| (a + offset) % n).collect();
        let rotation = AnalyticEngine::new().execute_into(config, offset, dirs, scratch);
        let oracle = crate::reference::analytic_round_reference(config, &slots, dirs);
        assert_eq!(rotation, oracle.rotation, "offset {offset} dirs {dirs:?}");
        assert_eq!(scratch.first_collision, oracle.first_collision);
        assert_eq!(scratch.cw_displacement, oracle.cw_displacement);
        for (a, &new_slot) in oracle.new_slot_of_agent.iter().enumerate() {
            assert_eq!((a + offset + rotation.shift) % n, new_slot, "agent {a}");
        }
    }

    /// A fused pair's collisions equal those of two single rounds from the
    /// same offset, one with `dirs` and one with every direction flipped,
    /// tick for tick; B's shift is the negation of A's.
    fn assert_pair_matches_two_rounds(
        config: &RingConfig,
        offset: usize,
        dirs: &[ObjectiveDirection],
        (scratch, a, b): (&mut PairScratch, &mut Vec<u64>, &mut Vec<u64>),
    ) {
        let n = config.len();
        let rotation = AnalyticEngine::new().execute_pair_into(config, offset, dirs, scratch, a, b);
        let flipped: Vec<ObjectiveDirection> = dirs.iter().map(|d| d.opposite()).collect();
        let (expected_a, round_a) = run(config, offset, dirs);
        let (expected_b, round_b) = run(config, offset, &flipped);
        let ticks = |round: &AnalyticScratch| -> Vec<u64> {
            let colls = round.first_collision.iter();
            colls
                .map(|c| c.map_or(NO_COLLISION, ArcLength::ticks))
                .collect()
        };
        let context = format!("offset {offset} dirs {dirs:?}");
        assert_eq!(rotation, expected_a, "{context}");
        assert_eq!((n - rotation.shift) % n, expected_b.shift, "{context}");
        assert_eq!(*a, ticks(&round_a), "{context}");
        assert_eq!(*b, ticks(&round_b), "{context}");
    }

    /// Every direction vector at every offset of rings up to 6 slots, on
    /// one reused pair of scratches.
    #[test]
    fn pair_matches_two_rounds_exhaustively_on_tiny_rings() {
        let (mut scratch, mut a, mut b) = (PairScratch::new(), Vec::new(), Vec::new());
        for n in 1..=6usize {
            let config = RingConfig::builder(n)
                .random_positions(n as u64 + 7)
                .build_any_size()
                .unwrap();
            for code in 0..3usize.pow(n as u32) {
                let dirs: Vec<ObjectiveDirection> = (0..n)
                    .map(|i| [C, A, I][code / 3usize.pow(i as u32) % 3])
                    .collect();
                for offset in 0..n {
                    let bufs = (&mut scratch, &mut a, &mut b);
                    assert_pair_matches_two_rounds(&config, offset, &dirs, bufs);
                }
            }
        }
    }

    /// No real first collision reads as the sentinel: a collision is half
    /// an arc shorter than the circumference, so below half of it. Checked
    /// at the longest arcs a ring has (positions are even ticks, and two
    /// agents two ticks apart meet the long way round), at antipodes, and
    /// on a large random ring, for the pair and for the single round.
    #[test]
    fn no_real_collision_reads_as_the_sentinel() {
        const HALF: u64 = CIRCUMFERENCE / 2;
        const { assert!(HALF < NO_COLLISION) };
        let (mut scratch, mut a, mut b) = (PairScratch::new(), Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(5);
        let extremes = [
            vec![0, 2],
            vec![0, CIRCUMFERENCE - 2],
            vec![0, HALF],
            vec![HALF - 2, HALF, HALF + 2],
        ];
        let random: Vec<u64> = {
            let config = RingConfig::builder(1024)
                .random_positions(3)
                .build()
                .unwrap();
            config.positions().iter().map(|p| p.ticks()).collect()
        };
        for ticks in extremes.iter().chain([&random]) {
            let n = ticks.len();
            let config = RingConfig::builder(n)
                .explicit_positions(ticks.iter().copied().map(Point::from_ticks))
                .build_any_size()
                .unwrap();
            for _ in 0..16 {
                let mut dirs: Vec<ObjectiveDirection> =
                    (0..n).map(|_| if rng.gen() { C } else { A }).collect();
                (dirs[0], dirs[n - 1]) = (C, A);
                let offset = rng.gen_range(0..n);
                let engine = AnalyticEngine::new();
                engine.execute_pair_into(&config, offset, &dirs, &mut scratch, &mut a, &mut b);
                let (_, round) = run(&config, offset, &dirs);
                let single = round.first_collision.iter().map(|c| c.unwrap().ticks());
                for coll in a.iter().chain(&b).copied().chain(single) {
                    assert!(coll < HALF, "{ticks:?} {dirs:?} offset {offset}: {coll}");
                }
            }
        }
    }

    /// Every direction vector (idles included) at every rotation of the
    /// slots, for rings below the `MIN_AGENTS` floor and just above it:
    /// at these sizes every mover sits next to a wrap-around.
    #[test]
    fn kernel_matches_oracle_exhaustively_on_tiny_rings() {
        let mut scratch = AnalyticScratch::new();
        for n in 1..=6usize {
            let config = RingConfig::builder(n)
                .random_positions(n as u64)
                .build_any_size()
                .unwrap();
            for code in 0..3usize.pow(n as u32) {
                let dirs: Vec<ObjectiveDirection> = (0..n)
                    .map(|i| [C, A, I][code / 3usize.pow(i as u32) % 3])
                    .collect();
                for offset in 0..n {
                    assert_matches_oracle(&config, offset, &dirs, &mut scratch);
                }
            }
        }
    }

    /// Compares one round of the kernel with the event-driven engine at
    /// the given offset: the rotation index against Lemma 1, every
    /// displacement within 1e-6 (modulo wrap-around), and every first
    /// collision in the rounds where the kernel models them — all agents
    /// moving — or where nobody moves and so nobody collides.
    fn assert_matches_event_engine(
        config: &RingConfig,
        offset: usize,
        dirs: &[ObjectiveDirection],
    ) {
        let (rotation, round) = run(config, offset, dirs);
        let traj = EventEngine::new().simulate(config, offset, dirs);
        assert_eq!(rotation, rotation_index(dirs));
        let collisions_comparable =
            dirs.iter().all(|d| d.is_moving()) || dirs.iter().all(|&d| d == I);
        for agent in 0..config.len() {
            let (expected, got) = (
                round.cw_displacement[agent].as_fraction(),
                traj.cw_displacement[agent],
            );
            let diff = (expected - got).abs();
            assert!(
                diff < 1e-6 || 1.0 - diff < 1e-6,
                "offset {offset} dirs {dirs:?} agent {agent}: displacement {expected} vs {got}"
            );
            if collisions_comparable {
                match (round.first_collision[agent], traj.first_collision[agent]) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!(
                        (a.as_fraction() - b).abs() < 1e-6,
                        "offset {offset} dirs {dirs:?} agent {agent}: collision {a:?} vs {b}"
                    ),
                    (a, b) => panic!("offset {offset} dirs {dirs:?} agent {agent}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// Below the `MIN_AGENTS` floor every agent is its own neighbour's
    /// neighbour: every direction vector — all-idle and all-same-direction
    /// rounds included — at every offset agrees with the event engine, on
    /// random and on evenly spaced rings. On the evenly spaced ones all
    /// meeting points of a round coincide in time, and n = 2 is an
    /// antipodal pair that meets on both sides of the ring.
    #[test]
    fn kernel_matches_event_engine_on_tiny_rings_at_every_offset() {
        for n in 1..=4usize {
            for config in [
                RingConfig::builder(n)
                    .random_positions(n as u64 + 40)
                    .build_any_size()
                    .unwrap(),
                RingConfig::builder(n)
                    .even_positions()
                    .build_any_size()
                    .unwrap(),
            ] {
                for code in 0..3usize.pow(n as u32) {
                    let dirs: Vec<ObjectiveDirection> = (0..n)
                        .map(|i| [C, A, I][code / 3usize.pow(i as u32) % 3])
                        .collect();
                    for offset in 0..n {
                        assert_matches_event_engine(&config, offset, &dirs);
                    }
                }
            }
        }
    }

    /// The shape of the measured round, chosen per slot.
    fn slot_directions(shape: u8, n: usize, rng: &mut StdRng) -> Vec<ObjectiveDirection> {
        let other = |d: ObjectiveDirection| if d == C { A } else { C };
        let lone = if rng.gen::<bool>() { C } else { A };
        match shape {
            // A single mover against everybody else (either direction).
            0 => {
                let mut dirs = vec![other(lone); n];
                dirs[rng.gen_range(0..n)] = lone;
                dirs
            }
            // The lone direction at slots 0 and n − 1 only: both sweeps
            // are seeded across the wrap-around.
            1 => {
                let mut dirs = vec![other(lone); n];
                dirs[0] = lone;
                dirs[n - 1] = lone;
                dirs
            }
            // Everybody the same way: no collisions.
            2 => vec![lone; n],
            // Idle agents present: no analytic collisions.
            3 => {
                let mut dirs: Vec<ObjectiveDirection> =
                    (0..n).map(|_| [C, A, I][rng.gen_range(0..3)]).collect();
                dirs[rng.gen_range(0..n)] = I;
                dirs
            }
            // Random all-moving round with a random bias.
            _ => {
                let bias = rng.gen_range(1..=9u32);
                (0..n)
                    .map(|_| if rng.gen_range(0..10) < bias { C } else { A })
                    .collect()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The linear kernel equals the binary-search oracle exactly — first
        /// collisions, displacements and new slots — on rotated states
        /// after 1–8 prior rounds, at ring sizes from 1 to 1024, for lone
        /// movers, movers at the wrap-around slots, same-direction rounds,
        /// rounds with idles and random mixes; and the fused pair equals
        /// the round and its flip run one by one.
        #[test]
        fn kernel_matches_oracle_on_rotated_states(
            (n, seed, prior, shape) in (
                prop_oneof![1usize..=3, 4usize..=64, 65usize..=1024],
                any::<u64>(),
                1usize..=8,
                0u8..6,
            )
        ) {
            let config = RingConfig::builder(n)
                .random_positions(seed)
                .build_any_size()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = RingState::new(&config);
            let mut bufs = RoundBuffers::new();
            let mut scratch = AnalyticScratch::new();
            for _ in 0..prior {
                let dirs = slot_directions(4, n, &mut rng);
                assert_matches_oracle(&config, state.offset(), &dirs, &mut scratch);
                state
                    .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
                    .unwrap();
            }
            // Directions are drawn per slot, then handed to the agents that
            // occupy those slots in the rotated state.
            let by_slot = slot_directions(shape, n, &mut rng);
            let dirs: Vec<ObjectiveDirection> =
                (0..n).map(|agent| by_slot[state.slot_of_agent(agent)]).collect();
            assert_matches_oracle(&config, state.offset(), &dirs, &mut scratch);
            let pair = (&mut PairScratch::new(), &mut Vec::new(), &mut Vec::new());
            assert_pair_matches_two_rounds(&config, state.offset(), &dirs, pair);
        }
    }
}
