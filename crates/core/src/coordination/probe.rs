//! Probing rounds: classifying the rotation index of a direction assignment
//! from purely local observations (Lemma 2 of the paper).
//!
//! * One round suffices to decide whether the rotation index is zero: it is
//!   zero exactly when every agent ends where it started, and since initial
//!   positions are distinct each agent can check this locally
//!   (`dist() == 0`).
//! * Two rounds with the same directions decide additionally whether the
//!   rotation index is `n/2`: the two rounds rotate by `2r`, so every agent
//!   is back at its start after the second round — which it detects locally
//!   because its two `dist()` values add up to exactly one circumference —
//!   if and only if `r ∈ {0, n/2}`.
//!
//! All agents reach the same verdict, because each condition holds for one
//! agent exactly when it holds for all.

use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use ring_sim::{LocalDirection, CIRCUMFERENCE};

/// Classification of a direction assignment by the rotation index of the
/// round it induces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MoveClass {
    /// Rotation index 0: nobody ends up anywhere new.
    Zero,
    /// Rotation index `n/2` (only possible for even `n`): everybody swaps
    /// with the antipodal agent; still a *trivial* move in the paper's
    /// sense.
    HalfTurn,
    /// Any other rotation index: a *nontrivial move*.
    Nontrivial,
}

impl MoveClass {
    /// Whether the move is nontrivial (rotation index outside `{0, n/2}`).
    pub fn is_nontrivial(self) -> bool {
        matches!(self, MoveClass::Nontrivial)
    }

    /// Whether the move is weakly nontrivial (rotation index nonzero).
    pub fn is_weak_nontrivial(self) -> bool {
        !matches!(self, MoveClass::Zero)
    }
}

/// One-round probe: executes `directions` once and reports whether the
/// rotation index was nonzero. Leaves the agents rotated by that round.
///
/// # Errors
///
/// Propagates substrate and model violations from [`Network::step_into`].
pub fn probe_nonzero(
    net: &mut Network<'_>,
    directions: &[LocalDirection],
) -> Result<bool, ProtocolError> {
    let mut bufs = StepBuffers::new();
    probe_nonzero_with(net, directions, &mut bufs)
}

/// Zero-alloc variant of [`probe_nonzero`] executing through caller-owned
/// buffers.
///
/// # Errors
///
/// Propagates substrate and model violations from [`Network::step_into`].
pub fn probe_nonzero_with(
    net: &mut Network<'_>,
    directions: &[LocalDirection],
    bufs: &mut StepBuffers,
) -> Result<bool, ProtocolError> {
    net.step_into(directions, bufs)?;
    let obs = bufs.observations();
    let verdict = !obs[0].dist.is_zero();
    debug_assert!(
        obs.iter().all(|o| o.dist.is_zero() != verdict),
        "agents disagree on a zero-rotation probe"
    );
    Ok(verdict)
}

/// Two-round probe (Lemma 2): executes `directions` once or twice and
/// classifies the induced move. Uses a single round when the rotation index
/// turns out to be zero, two rounds otherwise. Leaves the agents rotated.
///
/// # Errors
///
/// Propagates substrate and model violations from [`Network::step_into`].
pub fn probe_move(
    net: &mut Network<'_>,
    directions: &[LocalDirection],
) -> Result<MoveClass, ProtocolError> {
    let mut bufs = StepBuffers::new();
    probe_move_with(net, directions, &mut bufs)
}

/// Zero-alloc variant of [`probe_move`] executing through caller-owned
/// buffers. Each agent only needs its own first-round `dist()` to carry
/// into the second round, so the two rounds share the buffers.
///
/// # Errors
///
/// Propagates substrate and model violations from [`Network::step_into`].
pub fn probe_move_with(
    net: &mut Network<'_>,
    directions: &[LocalDirection],
    bufs: &mut StepBuffers,
) -> Result<MoveClass, ProtocolError> {
    net.step_into(directions, bufs)?;
    let first_dist = bufs.observations()[0].dist;
    if first_dist.is_zero() {
        debug_assert!(bufs.observations().iter().all(|o| o.dist.is_zero()));
        return Ok(MoveClass::Zero);
    }
    // Debug builds keep the first round to check cross-agent agreement;
    // release builds classify from agent 0 alone (Lemma 2 guarantees all
    // agents reach the same verdict).
    #[cfg(debug_assertions)]
    let first_all: Vec<_> = bufs.observations().iter().map(|o| o.dist).collect();
    net.step_into(directions, bufs)?;
    let second_dist = bufs.observations()[0].dist;
    let verdict = if first_dist.ticks() + second_dist.ticks() == CIRCUMFERENCE {
        MoveClass::HalfTurn
    } else {
        MoveClass::Nontrivial
    };
    #[cfg(debug_assertions)]
    debug_assert!(first_all
        .iter()
        .zip(bufs.observations())
        .all(|(a, b)| (a.ticks() + b.dist.ticks() == CIRCUMFERENCE)
            == (verdict == MoveClass::HalfTurn)));
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use ring_sim::{Chirality, LocalDirection, Model, RingConfig};

    fn net_with_chirality(n: usize, chirality: Vec<Chirality>) -> RingConfig {
        RingConfig::builder(n)
            .random_positions(77)
            .explicit_chirality(chirality)
            .build()
            .unwrap()
    }

    #[test]
    fn all_aligned_all_right_is_zero() {
        let config = net_with_chirality(6, vec![Chirality::Aligned; 6]);
        let mut net = Network::new(&config, IdAssignment::consecutive(6), Model::Basic).unwrap();
        let class = probe_move(&mut net, &[LocalDirection::Right; 6]).unwrap();
        assert_eq!(class, MoveClass::Zero);
        assert_eq!(net.rounds_used(), 1);
    }

    #[test]
    fn half_and_half_chirality_all_right_is_zero_but_quarter_is_half_turn() {
        // 8 agents, half aligned: all-right gives rotation 0.
        let mut chir = vec![Chirality::Aligned; 8];
        for c in chir.iter_mut().take(4) {
            *c = Chirality::Reversed;
        }
        let config = net_with_chirality(8, chir);
        let mut net = Network::new(&config, IdAssignment::consecutive(8), Model::Basic).unwrap();
        assert_eq!(
            probe_move(&mut net, &[LocalDirection::Right; 8]).unwrap(),
            MoveClass::Zero
        );

        // 8 agents, 6 aligned / 2 reversed: all-right has rotation index 4 =
        // n/2, a half turn.
        let mut chir = vec![Chirality::Aligned; 8];
        chir[0] = Chirality::Reversed;
        chir[5] = Chirality::Reversed;
        let config = net_with_chirality(8, chir);
        let mut net = Network::new(&config, IdAssignment::consecutive(8), Model::Basic).unwrap();
        assert_eq!(
            probe_move(&mut net, &[LocalDirection::Right; 8]).unwrap(),
            MoveClass::HalfTurn
        );
        assert_eq!(net.rounds_used(), 2);
    }

    #[test]
    fn single_deviator_is_nontrivial() {
        let config = net_with_chirality(7, vec![Chirality::Aligned; 7]);
        let mut net = Network::new(&config, IdAssignment::consecutive(7), Model::Basic).unwrap();
        let mut dirs = vec![LocalDirection::Right; 7];
        dirs[3] = LocalDirection::Left;
        assert_eq!(probe_move(&mut net, &dirs).unwrap(), MoveClass::Nontrivial);
        assert!(probe_move(&mut net, &dirs).unwrap().is_nontrivial());
    }

    #[test]
    fn nonzero_probe_matches_ground_truth() {
        let config = RingConfig::builder(9)
            .random_positions(3)
            .random_chirality(4)
            .build()
            .unwrap();
        let mut net = Network::new(&config, IdAssignment::consecutive(9), Model::Lazy).unwrap();
        // A lazy round in which only agent 0 moves: rotation index ±1 ≠ 0.
        let mut dirs = vec![LocalDirection::Idle; 9];
        dirs[0] = LocalDirection::Right;
        assert!(probe_nonzero(&mut net, &dirs).unwrap());
        assert!(!probe_nonzero(&mut net, &[LocalDirection::Idle; 9]).unwrap());
    }

    #[test]
    fn move_class_predicates() {
        assert!(MoveClass::Nontrivial.is_nontrivial());
        assert!(MoveClass::Nontrivial.is_weak_nontrivial());
        assert!(MoveClass::HalfTurn.is_weak_nontrivial());
        assert!(!MoveClass::HalfTurn.is_nontrivial());
        assert!(!MoveClass::Zero.is_weak_nontrivial());
    }
}
