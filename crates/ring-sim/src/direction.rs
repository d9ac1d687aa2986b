//! Directions of movement, in objective and agent-local terms.
//!
//! The circle has an *objective* clockwise direction (increasing tick
//! values), but the agents do not share it: each agent has a private
//! [`Chirality`] deciding whether its own "right" coincides with the
//! objective clockwise direction or with the objective anticlockwise
//! direction. Protocol code only ever speaks in [`LocalDirection`]s; the
//! substrate translates to [`ObjectiveDirection`]s using the hidden
//! chirality assignment.

use serde::Serialize;
use std::fmt;

/// A direction of movement in the objective (global) frame of the circle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum ObjectiveDirection {
    /// Movement in the direction of increasing tick values.
    Clockwise,
    /// Movement in the direction of decreasing tick values.
    Anticlockwise,
    /// No movement at the start of the round (lazy model only).
    Idle,
}

/// A direction of movement expressed in an agent's own frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum LocalDirection {
    /// The agent's own clockwise direction ("right").
    Right,
    /// The agent's own anticlockwise direction ("left").
    Left,
    /// Stay idle at the start of the round (lazy model only).
    Idle,
}

/// Whether an agent's private sense of direction agrees with the objective
/// clockwise direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Chirality {
    /// The agent's "right" is the objective clockwise direction.
    Aligned,
    /// The agent's "right" is the objective anticlockwise direction.
    Reversed,
}

impl ObjectiveDirection {
    /// The opposite objective direction (idle stays idle).
    pub fn opposite(self) -> Self {
        // Arithmetic on the discriminant, as in
        // `LocalDirection::to_objective`: a complementary round flips
        // every agent's direction.
        let d = self as u8;
        Self::from_discriminant(d ^ u8::from(d != Self::Idle as u8))
    }

    /// The direction declared at position `d` (declaration order), idle
    /// past the two movements. Written as a `match` that the optimiser
    /// turns into the identity, so loops over a round's directions stay
    /// vectorised.
    fn from_discriminant(d: u8) -> Self {
        match d {
            0 => ObjectiveDirection::Clockwise,
            1 => ObjectiveDirection::Anticlockwise,
            _ => ObjectiveDirection::Idle,
        }
    }

    /// Whether the direction denotes actual movement.
    pub fn is_moving(self) -> bool {
        !matches!(self, ObjectiveDirection::Idle)
    }

    /// Signed unit velocity: `+1` clockwise, `-1` anticlockwise, `0` idle.
    pub fn velocity(self) -> i8 {
        match self {
            ObjectiveDirection::Clockwise => 1,
            ObjectiveDirection::Anticlockwise => -1,
            ObjectiveDirection::Idle => 0,
        }
    }
}

impl LocalDirection {
    /// The opposite local direction (idle stays idle).
    pub fn opposite(self) -> Self {
        match self {
            LocalDirection::Right => LocalDirection::Left,
            LocalDirection::Left => LocalDirection::Right,
            LocalDirection::Idle => LocalDirection::Idle,
        }
    }

    /// Whether the direction denotes actual movement.
    pub fn is_moving(self) -> bool {
        !matches!(self, LocalDirection::Idle)
    }

    /// Translates this local direction to the objective frame, given the
    /// agent's chirality.
    pub fn to_objective(self, chirality: Chirality) -> ObjectiveDirection {
        // Arithmetic on the discriminants (declaration order), not a
        // `match` on the pair: every round translates each agent's
        // direction, and with random bits and chiralities the branches of
        // a match mispredict at about every other agent; this form also
        // vectorises, where a table lookup per agent does not. Right and
        // left are clockwise and anticlockwise, swapped for a reversed
        // agent; idle stays idle.
        let d = self as u8;
        let moving = u8::from(d != LocalDirection::Idle as u8);
        ObjectiveDirection::from_discriminant(d ^ (chirality as u8 & moving))
    }

    /// Encodes a boolean as a direction, the convention used by the 1-bit
    /// neighbour exchange of the perceptive model (`true` ↦ right).
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            LocalDirection::Right
        } else {
            LocalDirection::Left
        }
    }
}

impl Chirality {
    /// The opposite chirality.
    pub fn flipped(self) -> Self {
        match self {
            Chirality::Aligned => Chirality::Reversed,
            Chirality::Reversed => Chirality::Aligned,
        }
    }

    /// Whether the agent's "right" is the objective clockwise direction.
    pub fn is_aligned(self) -> bool {
        matches!(self, Chirality::Aligned)
    }
}

impl fmt::Display for ObjectiveDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectiveDirection::Clockwise => "clockwise",
            ObjectiveDirection::Anticlockwise => "anticlockwise",
            ObjectiveDirection::Idle => "idle",
        };
        f.write_str(s)
    }
}

impl fmt::Display for LocalDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocalDirection::Right => "right",
            LocalDirection::Left => "left",
            LocalDirection::Idle => "idle",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Chirality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Chirality::Aligned => "aligned",
            Chirality::Reversed => "reversed",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_to_objective_translation() {
        assert_eq!(
            LocalDirection::Right.to_objective(Chirality::Aligned),
            ObjectiveDirection::Clockwise
        );
        assert_eq!(
            LocalDirection::Right.to_objective(Chirality::Reversed),
            ObjectiveDirection::Anticlockwise
        );
        assert_eq!(
            LocalDirection::Left.to_objective(Chirality::Aligned),
            ObjectiveDirection::Anticlockwise
        );
        assert_eq!(
            LocalDirection::Left.to_objective(Chirality::Reversed),
            ObjectiveDirection::Clockwise
        );
        assert_eq!(
            LocalDirection::Idle.to_objective(Chirality::Reversed),
            ObjectiveDirection::Idle
        );
        assert_eq!(
            LocalDirection::Idle.to_objective(Chirality::Aligned),
            ObjectiveDirection::Idle
        );
    }

    #[test]
    fn opposites_are_involutive() {
        for d in [
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Idle,
        ] {
            assert_eq!(d.opposite().opposite(), d);
        }
        for d in [
            ObjectiveDirection::Clockwise,
            ObjectiveDirection::Anticlockwise,
            ObjectiveDirection::Idle,
        ] {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Chirality::Aligned.flipped().flipped(), Chirality::Aligned);
    }

    /// The arithmetic translations against their definitions, for every
    /// direction and chirality.
    #[test]
    fn opposites_swap_the_movements_and_commute_with_translation() {
        use ObjectiveDirection::{Anticlockwise, Clockwise, Idle};
        assert_eq!(Clockwise.opposite(), Anticlockwise);
        assert_eq!(Anticlockwise.opposite(), Clockwise);
        assert_eq!(Idle.opposite(), Idle);
        for d in [
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Idle,
        ] {
            for c in [Chirality::Aligned, Chirality::Reversed] {
                assert_eq!(d.opposite().to_objective(c), d.to_objective(c).opposite());
                assert_eq!(d.to_objective(c.flipped()), d.to_objective(c).opposite());
            }
        }
    }

    #[test]
    fn velocity_signs() {
        assert_eq!(ObjectiveDirection::Clockwise.velocity(), 1);
        assert_eq!(ObjectiveDirection::Anticlockwise.velocity(), -1);
        assert_eq!(ObjectiveDirection::Idle.velocity(), 0);
    }

    #[test]
    fn bit_encoding() {
        assert_eq!(LocalDirection::from_bit(true), LocalDirection::Right);
        assert_eq!(LocalDirection::from_bit(false), LocalDirection::Left);
    }
}
