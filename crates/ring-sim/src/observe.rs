//! Per-agent observations delivered at the end of a round.

use crate::geometry::ArcLength;
use serde::Serialize;

/// A first collision in ticks that no agent had: the sentinel of the
/// per-agent collision vectors a complementary pair yields
/// ([`crate::state::RingState::execute_pair_into`]). Every real first
/// collision is half an arc, so at most half the circumference, far below
/// it.
pub const NO_COLLISION: u64 = u64::MAX;

/// What a single agent learns about its own trajectory at the end of a
/// round, already expressed in the agent's **own** frame.
///
/// * `dist` is the distance between the agent's position at the beginning of
///   the round and its position at the end of the round, measured going in
///   the agent's own clockwise ("right") direction. It is `0` exactly when
///   the two positions coincide (rotation index 0).
/// * `coll` is only populated in the perceptive model: the distance between
///   the agent's position at the beginning of the round and the position of
///   its first collision in the round, measured along the agent's initial
///   direction of travel. `None` if the agent had no collision at all.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize)]
pub struct Observation {
    /// `dist()` of the paper.
    pub dist: ArcLength,
    /// `coll()` of the paper (perceptive model only).
    pub coll: Option<ArcLength>,
}

impl Observation {
    /// An observation for an agent that ended where it started and had no
    /// collision.
    pub fn stationary() -> Self {
        Observation::default()
    }

    /// Creates an observation with only the displacement populated
    /// (basic / lazy model).
    pub fn with_dist(dist: ArcLength) -> Self {
        Observation { dist, coll: None }
    }

    /// Creates a perceptive-model observation.
    pub fn with_dist_and_coll(dist: ArcLength, coll: Option<ArcLength>) -> Self {
        Observation { dist, coll }
    }

    /// Whether the agent ended the round where it started.
    pub fn returned_to_start(&self) -> bool {
        self.dist.is_zero()
    }

    /// The first collision in ticks, [`NO_COLLISION`] if there was none.
    pub fn coll_ticks(&self) -> u64 {
        self.coll.map_or(NO_COLLISION, ArcLength::ticks)
    }

    /// Strips the collision information, as seen by a non-perceptive agent.
    pub fn without_coll(self) -> Self {
        Observation {
            dist: self.dist,
            coll: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ArcLength;

    #[test]
    fn constructors() {
        let s = Observation::stationary();
        assert!(s.returned_to_start());
        assert!(s.coll.is_none());

        let d = ArcLength::from_ticks(10);
        let o = Observation::with_dist(d);
        assert_eq!(o.dist, d);
        assert!(!o.returned_to_start());

        let o = Observation::with_dist_and_coll(d, Some(ArcLength::from_ticks(4)));
        assert_eq!(o.coll.unwrap().ticks(), 4);
        assert_eq!(o.coll_ticks(), 4);
        assert!(o.without_coll().coll.is_none());
        assert_eq!(o.without_coll().coll_ticks(), NO_COLLISION);
    }
}
