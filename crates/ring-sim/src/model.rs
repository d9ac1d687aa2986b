//! Model variants and number-theoretic helpers shared across the crate.

use serde::Serialize;
use std::fmt;

/// The three model variants of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Model {
    /// Agents must start each round moving right or left; only `dist()` is
    /// observed.
    Basic,
    /// Like [`Model::Basic`] but agents may also start a round idle.
    Lazy,
    /// Like [`Model::Basic`] but agents additionally observe `coll()`, the
    /// distance to their first collision in the round.
    Perceptive,
}

impl Model {
    /// Whether agents may choose to stay idle at the start of a round.
    pub fn allows_idle(self) -> bool {
        matches!(self, Model::Lazy)
    }

    /// Whether agents observe the distance to their first collision.
    pub fn observes_collisions(self) -> bool {
        matches!(self, Model::Perceptive)
    }

    /// All model variants, useful for exhaustive tests and sweeps.
    pub const ALL: [Model; 3] = [Model::Basic, Model::Lazy, Model::Perceptive];
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Model::Basic => "basic",
            Model::Lazy => "lazy",
            Model::Perceptive => "perceptive",
        };
        f.write_str(s)
    }
}

/// Parity of the (unknown) network size `n`; the only information about `n`
/// that agents are assumed to possess.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Parity {
    /// `n` is odd.
    Odd,
    /// `n` is even.
    Even,
}

impl Parity {
    /// The parity of `n`.
    pub fn of(n: usize) -> Parity {
        if n.is_multiple_of(2) {
            Parity::Even
        } else {
            Parity::Odd
        }
    }

    /// Whether this parity is even.
    pub fn is_even(self) -> bool {
        matches!(self, Parity::Even)
    }
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Parity::Odd => "odd",
            Parity::Even => "even",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_capabilities() {
        assert!(!Model::Basic.allows_idle());
        assert!(Model::Lazy.allows_idle());
        assert!(!Model::Perceptive.allows_idle());
        assert!(Model::Perceptive.observes_collisions());
        assert!(!Model::Basic.observes_collisions());
        assert!(!Model::Lazy.observes_collisions());
        assert_eq!(Model::ALL.len(), 3);
    }

    #[test]
    fn parity_of_n() {
        assert_eq!(Parity::of(5), Parity::Odd);
        assert_eq!(Parity::of(6), Parity::Even);
        assert!(Parity::of(0).is_even());
    }
}
