//! Neighbour discovery (Algorithm 3 of the paper).
//!
//! Every agent learns, in `O(log N)` rounds,
//!
//! * the distance to its right neighbour and to its left neighbour (in the
//!   agent's **own** frame), and
//! * whether each neighbour shares the agent's sense of direction.
//!
//! The key facts (Proposition 4 specialised to adjacent agents):
//!
//! * when an agent moves towards a neighbour, its first collision is with
//!   that neighbour, at distance **exactly half the gap** if the neighbour
//!   simultaneously moves towards the agent, and **strictly more** (or no
//!   collision at all) otherwise;
//! * two agents whose identifiers differ in bit `i` choose opposite local
//!   directions in the four rounds Algorithm 3 devotes to bit `i`, so if
//!   they have the *same* chirality they approach each other in one of those
//!   rounds; if they have *opposite* chirality they approach in the final
//!   "everybody right" / "everybody left" rounds instead.
//!
//! Taking the minimum of the observed collision distances on each side
//! therefore yields exactly half the gap, and comparing the all-right /
//! all-left collision distances against that minimum reveals the relative
//! chirality.

use crate::error::ProtocolError;
use crate::exec::{Network, PairBuffers};
use ring_sim::{ArcLength, LocalDirection, NO_COLLISION};

/// What one agent knows about its two ring neighbours after discovery, in
/// the agent's own frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborInfo {
    /// Gap to the neighbour on the agent's right (own clockwise direction).
    pub right_gap: ArcLength,
    /// Gap to the neighbour on the agent's left.
    pub left_gap: ArcLength,
    /// Whether the right neighbour has the same sense of direction.
    pub right_same_chirality: bool,
    /// Whether the left neighbour has the same sense of direction.
    pub left_same_chirality: bool,
}

/// The result of neighbour discovery for the whole ring.
#[derive(Clone, Debug)]
pub struct NeighborMap {
    infos: Vec<NeighborInfo>,
    rounds: u64,
}

impl NeighborMap {
    /// Per-agent neighbour information.
    pub fn infos(&self) -> &[NeighborInfo] {
        &self.infos
    }

    /// Neighbour information of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn info(&self, agent: usize) -> NeighborInfo {
        self.infos[agent]
    }

    /// Rounds consumed by the discovery.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// Algorithm 3: neighbour discovery. Every round is followed by its reversed
/// round, so the agents end exactly where they started. The reversals are
/// undo rounds: half of the `8·b + 4` rounds (`b` = [`Network::id_bits`])
/// are counted but not simulated (an active fault plan refuses them). The
/// information rounds come in complementary pairs, each run as one
/// [`Network::step_pair_into`].
///
/// # Errors
///
/// Propagates substrate errors; returns [`ProtocolError::Internal`] if some
/// agent never observed a collision on one of its sides (impossible for
/// `n ≥ 2` distinct identifiers in the perceptive model).
pub fn discover_neighbors(net: &mut Network<'_>) -> Result<NeighborMap, ProtocolError> {
    let n = net.len();
    let start = net.rounds_used();

    // Every first collision in ticks, and `NO_COLLISION` for none: the
    // smallest collision on each side is a plain minimum.
    let mut min_right = vec![NO_COLLISION; n];
    let mut min_left = vec![NO_COLLISION; n];

    // One direction buffer and one pair-buffer set serve every round of
    // the discovery: after they reach the ring size, no round allocates.
    // Every round is run as a complementary pair (the round, then every
    // direction flipped), each undone.
    let mut pair = PairBuffers::new();
    let mut dirs: Vec<LocalDirection> = Vec::with_capacity(n);
    let mut flipped: Vec<LocalDirection> = Vec::with_capacity(n);

    // Bit rounds: for every identifier bit and every bit value, agents
    // whose bit matches move right and the others left, then the reverse.
    for bit in 0..net.id_bits() {
        for value in [false, true] {
            dirs.clear();
            dirs.extend(
                (0..n).map(|agent| LocalDirection::from_bit(net.id_of(agent).bit(bit) == value)),
            );
            net.step_pair_into(&dirs, &mut pair)?;
            flipped.clear();
            flipped.extend(dirs.iter().map(|d| d.opposite()));
            record(&dirs, pair.collisions_a(), &mut min_right, &mut min_left);
            record(&flipped, pair.collisions_b(), &mut min_right, &mut min_left);
        }
    }

    // Everybody right, then everybody left: these rounds guarantee an
    // approach between neighbours of opposite chirality and reveal relative
    // chirality on each side.
    dirs.clear();
    dirs.extend(std::iter::repeat_n(LocalDirection::Right, n));
    flipped.clear();
    flipped.extend(std::iter::repeat_n(LocalDirection::Left, n));
    net.step_pair_into(&dirs, &mut pair)?;
    record(&dirs, pair.collisions_a(), &mut min_right, &mut min_left);
    record(&flipped, pair.collisions_b(), &mut min_right, &mut min_left);
    let (all_right_coll, all_left_coll) = (pair.collisions_a(), pair.collisions_b());

    let mut infos = Vec::with_capacity(n);
    for agent in 0..n {
        let (half_right, half_left) = (min_right[agent], min_left[agent]);
        if half_right == NO_COLLISION || half_left == NO_COLLISION {
            return Err(ProtocolError::Internal {
                protocol: "neighbor-discovery",
                reason: format!("agent {agent} never collided on one of its sides"),
            });
        }
        let right_gap = ArcLength::from_ticks(2 * half_right);
        let left_gap = ArcLength::from_ticks(2 * half_left);
        // In the all-right round the agent approaches its right neighbour; a
        // collision at exactly half the gap means the neighbour approached
        // too, i.e. its own "right" points the other way.
        let right_same_chirality = all_right_coll[agent] != half_right;
        let left_same_chirality = all_left_coll[agent] != half_left;
        infos.push(NeighborInfo {
            right_gap,
            left_gap,
            right_same_chirality,
            left_same_chirality,
        });
    }

    Ok(NeighborMap {
        infos,
        rounds: net.rounds_used() - start,
    })
}

/// Folds one round's first collisions into every agent's smallest one on
/// the side it moved towards.
fn record(dirs: &[LocalDirection], colls: &[u64], min_right: &mut [u64], min_left: &mut [u64]) {
    for ((&dir, &coll), (right, left)) in dirs
        .iter()
        .zip(colls)
        .zip(min_right.iter_mut().zip(min_left.iter_mut()))
    {
        match dir {
            LocalDirection::Right => *right = (*right).min(coll),
            LocalDirection::Left => *left = (*left).min(coll),
            LocalDirection::Idle => {}
        }
    }
}

/// Ground-truth verification helper used by tests: checks gaps and relative
/// chirality against the hidden configuration.
pub fn verify_neighbor_map(net: &Network<'_>, map: &NeighborMap) -> bool {
    let config = net.ground_truth_config();
    let n = net.len();
    (0..n).all(|agent| {
        let info = map.info(agent);
        // Agent `agent` initially occupies slot `agent`; discovery restores
        // positions, so slots still equal agent indices here.
        let cw_gap = config.gap(agent);
        let acw_gap = config.gap((agent + n - 1) % n);
        let (expected_right, expected_left) = if config.chirality(agent).is_aligned() {
            (cw_gap, acw_gap)
        } else {
            (acw_gap, cw_gap)
        };
        let (right_neighbor, left_neighbor) = if config.chirality(agent).is_aligned() {
            ((agent + 1) % n, (agent + n - 1) % n)
        } else {
            ((agent + n - 1) % n, (agent + 1) % n)
        };
        info.right_gap == expected_right
            && info.left_gap == expected_left
            && info.right_same_chirality
                == (config.chirality(right_neighbor) == config.chirality(agent))
            && info.left_same_chirality
                == (config.chirality(left_neighbor) == config.chirality(agent))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use ring_sim::{Model, RingConfig};

    #[test]
    fn discovery_recovers_gaps_and_chirality_for_random_rings() {
        for seed in 0..6u64 {
            let n = 5 + (seed as usize % 4) * 3;
            let config = RingConfig::builder(n)
                .random_positions(seed * 31 + 1)
                .random_chirality(seed * 17 + 2)
                .build()
                .unwrap();
            let ids = IdAssignment::random(n, 256, seed + 3);
            let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
            let map = discover_neighbors(&mut net).unwrap();
            assert!(verify_neighbor_map(&net, &map), "seed {seed}");
            assert!(net.ground_truth_at_initial_positions());
            // O(log N): 8 rounds per identifier bit plus 4 closing rounds.
            assert_eq!(map.rounds(), 8 * net.id_bits() as u64 + 4);
        }
    }

    #[test]
    fn discovery_works_when_everybody_shares_chirality() {
        let config = RingConfig::builder(7)
            .random_positions(5)
            .aligned_chirality()
            .build()
            .unwrap();
        let mut net =
            Network::new(&config, IdAssignment::random(7, 64, 6), Model::Perceptive).unwrap();
        let map = discover_neighbors(&mut net).unwrap();
        assert!(verify_neighbor_map(&net, &map));
        assert!(map
            .infos()
            .iter()
            .all(|i| i.right_same_chirality && i.left_same_chirality));
    }
}
