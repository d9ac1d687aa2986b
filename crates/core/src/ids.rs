//! Agent identifiers.
//!
//! Deterministic symmetry breaking requires unique identifiers: every agent
//! carries an [`AgentId`] drawn from the universe `[1, N]` and knows `N`,
//! but does not know which other identifiers are present (Section I.B of the
//! paper).

use crate::error::ProtocolError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;

/// A unique agent identifier in `[1, N]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct AgentId(u64);

impl AgentId {
    /// Creates an identifier.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0` (identifiers are 1-based).
    pub fn new(value: u64) -> Self {
        assert!(value > 0, "agent identifiers are 1-based");
        AgentId(value)
    }

    /// The raw value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The `bit`-th bit of the identifier (0-indexed from the least
    /// significant bit), as used by the binary-search leader elections.
    pub fn bit(self, bit: u32) -> bool {
        (self.0 >> bit) & 1 == 1
    }
}

impl fmt::Debug for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AgentId({})", self.0)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The assignment of identifiers to the agents of a ring, together with the
/// size `N` of the identifier universe.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct IdAssignment {
    universe: u64,
    ids: Vec<AgentId>,
}

impl IdAssignment {
    /// Wraps an explicit assignment.
    ///
    /// # Errors
    ///
    /// Returns an error if identifiers are not distinct or exceed the
    /// universe.
    pub fn new(universe: u64, ids: Vec<AgentId>) -> Result<Self, ProtocolError> {
        let mut seen = BTreeSet::new();
        for id in &ids {
            if id.value() > universe {
                return Err(ProtocolError::InvalidIds {
                    reason: format!("identifier {id} exceeds the universe {universe}"),
                });
            }
            if !seen.insert(id.value()) {
                return Err(ProtocolError::InvalidIds {
                    reason: format!("identifier {id} assigned twice"),
                });
            }
        }
        Ok(IdAssignment { universe, ids })
    }

    /// Assigns the identifiers `1..=n` in agent order — the simplest valid
    /// assignment, with `N = n`.
    pub fn consecutive(n: usize) -> Self {
        IdAssignment {
            universe: n as u64,
            ids: (1..=n as u64).map(AgentId::new).collect(),
        }
    }

    /// Draws `n` distinct identifiers uniformly from `[1, universe]`
    /// (reproducibly) and assigns them in a random order.
    ///
    /// # Panics
    ///
    /// Panics if `universe < n as u64`.
    pub fn random(n: usize, universe: u64, seed: u64) -> Self {
        assert!(universe >= n as u64, "universe too small for {n} agents");
        let mut rng = StdRng::seed_from_u64(seed);
        // Sample distinct values by shuffling a range when dense, or by
        // rejection sampling when sparse.
        let values: Vec<u64> = if universe <= 4 * n as u64 {
            let mut all: Vec<u64> = (1..=universe).collect();
            all.shuffle(&mut rng);
            all.truncate(n);
            all
        } else {
            use rand::Rng;
            let mut set = BTreeSet::new();
            while set.len() < n {
                set.insert(rng.gen_range(1..=universe));
            }
            let mut v: Vec<u64> = set.into_iter().collect();
            v.shuffle(&mut rng);
            v
        };
        IdAssignment {
            universe,
            ids: values.into_iter().map(AgentId::new).collect(),
        }
    }

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Identifier of agent `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn id(&self, agent: usize) -> AgentId {
        self.ids[agent]
    }

    /// All identifiers in agent order.
    pub fn ids(&self) -> &[AgentId] {
        &self.ids
    }

    /// Number of bits needed to address every identifier in the universe.
    pub fn id_bits(&self) -> u32 {
        u64::BITS - self.universe.leading_zeros()
    }

    /// The agent index carrying the maximum identifier (ground truth helper
    /// for tests; agents themselves never see this).
    pub fn max_id_agent(&self) -> usize {
        self.ids
            .iter()
            .enumerate()
            .max_by_key(|(_, id)| id.value())
            .map(|(i, _)| i)
            .expect("nonempty assignment")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_assignment() {
        let a = IdAssignment::consecutive(5);
        assert_eq!(a.universe(), 5);
        assert_eq!(a.id(0).value(), 1);
        assert_eq!(a.id(4).value(), 5);
        assert_eq!(a.id_bits(), 3);
        assert_eq!(a.max_id_agent(), 4);
    }

    #[test]
    fn random_assignments_are_distinct_and_reproducible() {
        let a = IdAssignment::random(64, 1 << 16, 7);
        let b = IdAssignment::random(64, 1 << 16, 7);
        assert_eq!(a, b);
        let mut seen = BTreeSet::new();
        for id in a.ids() {
            assert!(id.value() >= 1 && id.value() <= 1 << 16);
            assert!(seen.insert(id.value()));
        }
        // Dense sampling path.
        let c = IdAssignment::random(16, 20, 9);
        assert_eq!(c.len(), 16);
        let values: BTreeSet<u64> = c.ids().iter().map(|i| i.value()).collect();
        assert_eq!(values.len(), 16);
    }

    #[test]
    fn invalid_assignments_are_rejected() {
        let dup = IdAssignment::new(10, vec![AgentId::new(3), AgentId::new(3)]);
        assert!(matches!(dup, Err(ProtocolError::InvalidIds { .. })));
        let big = IdAssignment::new(10, vec![AgentId::new(11)]);
        assert!(matches!(big, Err(ProtocolError::InvalidIds { .. })));
    }

    #[test]
    fn id_bits() {
        assert!(AgentId::new(5).bit(0));
        assert!(!AgentId::new(5).bit(1));
        assert!(AgentId::new(5).bit(2));
        assert!(!AgentId::new(5).bit(10));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_id_panics() {
        let _ = AgentId::new(0);
    }
}
