//! Agent-side adjustable orientation.
//!
//! An agent cannot change its *physical* chirality — that is a property of
//! the hardware — but protocol code frequently wants to "change its sense of
//! direction" (Algorithm 1 of the paper) after learning something about the
//! world. A [`Frame`] is the agent-side bookkeeping for this: it maps the
//! *logical* directions used by protocol logic onto the agent's physical
//! local directions, and translates observations accordingly.
//!
//! After a successful direction-agreement protocol every agent holds a frame
//! whose logical clockwise direction is the same for all agents (even though
//! their physical chiralities still differ).

use crate::direction::LocalDirection;
use crate::observe::Observation;
use serde::Serialize;
use std::hint::select_unpredictable;

/// A logical orientation maintained by an agent on top of its physical
/// local frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize)]
pub struct Frame {
    flipped: bool,
}

impl Frame {
    /// The identity frame: logical directions coincide with the agent's
    /// physical local directions.
    pub fn identity() -> Self {
        Frame { flipped: false }
    }

    /// Creates a frame with the given flip state.
    pub fn new(flipped: bool) -> Self {
        Frame { flipped }
    }

    /// Whether the logical frame is currently flipped with respect to the
    /// agent's physical frame.
    pub fn is_flipped(self) -> bool {
        self.flipped
    }

    /// Flips the logical sense of direction ("change sense of direction" in
    /// the paper's pseudocode).
    pub fn flip(&mut self) {
        self.flipped = !self.flipped;
    }

    /// Translates a logical direction into the physical local direction the
    /// agent must request from the substrate.
    pub fn to_physical(self, logical: LocalDirection) -> LocalDirection {
        use LocalDirection::{Idle, Left, Right};
        // A table indexed by the direction and the flip, as in
        // `LocalDirection::to_objective`: frames differ from agent to
        // agent, so a branch on the flip mispredicts.
        const TABLE: [[LocalDirection; 2]; 3] = [[Right, Left], [Left, Right], [Idle, Idle]];
        TABLE[logical as usize][usize::from(self.flipped)]
    }

    /// Translates a physical local direction into the logical frame.
    pub fn to_logical(self, physical: LocalDirection) -> LocalDirection {
        // The map is an involution, so the two translations coincide.
        self.to_physical(physical)
    }

    /// Re-expresses an observation (delivered in the agent's physical frame)
    /// in the logical frame: a flip mirrors the circle, so a nonzero
    /// displacement `d` becomes `1 − d` while collision distances (path
    /// lengths) are unchanged.
    pub fn observation_to_logical(self, obs: Observation) -> Observation {
        // Selects rather than branches, for the reason `to_physical` gives.
        let mirror = self.flipped & !obs.dist.is_zero();
        Observation {
            dist: select_unpredictable(mirror, obs.dist.complement(), obs.dist),
            coll: obs.coll,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{ArcLength, CIRCUMFERENCE};

    #[test]
    fn identity_frame_is_transparent() {
        let f = Frame::identity();
        assert_eq!(f.to_physical(LocalDirection::Right), LocalDirection::Right);
        let obs = Observation::with_dist(ArcLength::from_ticks(10));
        assert_eq!(f.observation_to_logical(obs), obs);
    }

    #[test]
    fn flipped_frame_mirrors_directions_and_distances() {
        let mut f = Frame::identity();
        f.flip();
        assert!(f.is_flipped());
        assert_eq!(f.to_physical(LocalDirection::Right), LocalDirection::Left);
        assert_eq!(f.to_physical(LocalDirection::Idle), LocalDirection::Idle);

        let obs = Observation::with_dist_and_coll(
            ArcLength::from_ticks(10),
            Some(ArcLength::from_ticks(3)),
        );
        let logical = f.observation_to_logical(obs);
        assert_eq!(logical.dist.ticks(), CIRCUMFERENCE - 10);
        assert_eq!(logical.coll.unwrap().ticks(), 3);

        // Zero displacement is a fixed point of the mirroring.
        let obs = Observation::stationary();
        assert_eq!(f.observation_to_logical(obs).dist, ArcLength::ZERO);
    }

    /// Every flip state × logical direction, and every flip state × zero
    /// or nonzero displacement (with and without a collision), against
    /// the definitions: a flip swaps right and left, and mirrors a nonzero
    /// displacement only.
    #[test]
    fn translations_match_their_definitions_exhaustively() {
        use LocalDirection::{Idle, Left, Right};
        for flipped in [false, true] {
            let f = Frame::new(flipped);
            for dir in [Right, Left, Idle] {
                let expected = match (flipped, dir) {
                    (true, Right) => Left,
                    (true, Left) => Right,
                    _ => dir,
                };
                assert_eq!(f.to_physical(dir), expected, "{flipped} {dir}");
                assert_eq!(f.to_logical(expected), dir, "{flipped} {dir}");
            }
            for ticks in [0, 1, 10, CIRCUMFERENCE / 2, CIRCUMFERENCE - 1] {
                for coll in [None, Some(ArcLength::from_ticks(7))] {
                    let obs = Observation::with_dist_and_coll(ArcLength::from_ticks(ticks), coll);
                    let dist = if flipped && ticks != 0 {
                        CIRCUMFERENCE - ticks
                    } else {
                        ticks
                    };
                    let expected =
                        Observation::with_dist_and_coll(ArcLength::from_ticks(dist), coll);
                    assert_eq!(f.observation_to_logical(obs), expected, "{flipped} {ticks}");
                }
            }
        }
    }

    #[test]
    fn double_flip_is_identity() {
        let mut f = Frame::identity();
        f.flip();
        f.flip();
        assert_eq!(f, Frame::identity());
    }
}
