//! Ring configurations: the hidden ground truth of an experiment.
//!
//! A [`RingConfig`] fixes the number of agents, their initial positions on
//! the circle and their (private) chiralities. Agents are indexed
//! `0..n` in objective clockwise order of their initial positions; agent `i`
//! initially occupies *slot* `i`. This ordering is never disclosed to the
//! agents — it is the implicit periodic order `a_1, …, a_n` of the paper.

use crate::direction::Chirality;
use crate::error::RingError;
use crate::geometry::{ArcLength, Point, CIRCUMFERENCE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Minimum supported ring size. The paper assumes `n > 4` throughout.
pub const MIN_AGENTS: usize = 5;

/// The immutable ground truth of a ring deployment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RingConfig {
    positions: Vec<Point>,
    chirality: Vec<Chirality>,
    gaps: Vec<ArcLength>,
}

impl RingConfig {
    /// Starts building a configuration for `n` agents.
    pub fn builder(n: usize) -> RingConfigBuilder {
        RingConfigBuilder::new(n)
    }

    /// A convenient default configuration: `n` agents at slightly perturbed
    /// but reproducible positions, all physically aligned with the objective
    /// clockwise direction.
    ///
    /// # Errors
    ///
    /// Returns an error if `n < MIN_AGENTS`.
    pub fn evenly_spaced(n: usize) -> Result<Self, RingError> {
        RingConfigBuilder::new(n).build()
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the configuration is empty (never true for valid configs).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Initial position of the slot (equivalently, of the agent that starts
    /// there).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n`.
    pub fn position(&self, slot: usize) -> Point {
        self.positions[slot]
    }

    /// All initial positions in clockwise slot order.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Physical chirality of an agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn chirality(&self, agent: usize) -> Chirality {
        self.chirality[agent]
    }

    /// All chirality assignments in agent order.
    pub fn chiralities(&self) -> &[Chirality] {
        &self.chirality
    }

    /// The clockwise gap between slot `i` and slot `i + 1` (cyclically).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n`.
    pub fn gap(&self, slot: usize) -> ArcLength {
        self.gaps[slot]
    }

    /// All gaps; `gaps()[i]` is the clockwise distance from slot `i` to slot
    /// `(i + 1) % n`. They sum to exactly one circumference.
    pub fn gaps(&self) -> &[ArcLength] {
        &self.gaps
    }

    /// The clockwise arc length from slot `from` to slot `to` (0 if equal).
    pub fn cw_arc(&self, from: usize, to: usize) -> ArcLength {
        self.positions[from].cw_distance_to(self.positions[to])
    }

    /// Number of agents whose chirality is [`Chirality::Aligned`].
    pub fn aligned_count(&self) -> usize {
        self.chirality.iter().filter(|c| c.is_aligned()).count()
    }
}

/// Builder for [`RingConfig`] values.
///
/// ```
/// use ring_sim::prelude::*;
///
/// # fn main() -> Result<(), RingError> {
/// let config = RingConfig::builder(8)
///     .random_positions(42)
///     .alternating_chirality()
///     .build()?;
/// assert_eq!(config.len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RingConfigBuilder {
    n: usize,
    positions: PositionSpec,
    chirality: ChiralitySpec,
}

#[derive(Clone, Debug)]
enum PositionSpec {
    Even,
    Random { seed: u64 },
    Explicit(Vec<Point>),
}

#[derive(Clone, Debug)]
enum ChiralitySpec {
    AllAligned,
    Alternating,
    Random { seed: u64 },
    Explicit(Vec<Chirality>),
}

impl RingConfigBuilder {
    /// Creates a builder for `n` agents with evenly spaced positions and all
    /// agents aligned.
    pub fn new(n: usize) -> Self {
        RingConfigBuilder {
            n,
            positions: PositionSpec::Even,
            chirality: ChiralitySpec::AllAligned,
        }
    }

    /// Places the agents at equal distances around the circle.
    pub fn even_positions(mut self) -> Self {
        self.positions = PositionSpec::Even;
        self
    }

    /// Places the agents at reproducibly random, distinct, even-tick
    /// positions.
    pub fn random_positions(mut self, seed: u64) -> Self {
        self.positions = PositionSpec::Random { seed };
        self
    }

    /// Uses the supplied positions verbatim (they will be sorted into
    /// clockwise order).
    pub fn explicit_positions<I>(mut self, positions: I) -> Self
    where
        I: IntoIterator<Item = Point>,
    {
        self.positions = PositionSpec::Explicit(positions.into_iter().collect());
        self
    }

    /// Gives every agent the objective clockwise direction as its "right".
    pub fn aligned_chirality(mut self) -> Self {
        self.chirality = ChiralitySpec::AllAligned;
        self
    }

    /// Alternates chirality around the ring (agent 0 aligned, agent 1
    /// reversed, …) — the worst case for symmetry-breaking protocols.
    pub fn alternating_chirality(mut self) -> Self {
        self.chirality = ChiralitySpec::Alternating;
        self
    }

    /// Assigns chirality uniformly at random (reproducibly).
    pub fn random_chirality(mut self, seed: u64) -> Self {
        self.chirality = ChiralitySpec::Random { seed };
        self
    }

    /// Uses the supplied chirality assignment verbatim (agent order).
    pub fn explicit_chirality<I>(mut self, chirality: I) -> Self
    where
        I: IntoIterator<Item = Chirality>,
    {
        self.chirality = ChiralitySpec::Explicit(chirality.into_iter().collect());
        self
    }

    /// Builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if `n < MIN_AGENTS`, if explicit positions are
    /// duplicated, lie on odd ticks or have the wrong count, or if the
    /// explicit chirality assignment has the wrong count.
    pub fn build(&self) -> Result<RingConfig, RingError> {
        if self.n < MIN_AGENTS {
            return Err(RingError::TooFewAgents {
                n: self.n,
                min: MIN_AGENTS,
            });
        }
        self.build_any_size()
    }

    /// [`RingConfigBuilder::build`] without the `MIN_AGENTS` floor, so the
    /// engine tests can exercise the cyclic wrap-around of rings with one,
    /// two or three agents.
    pub(crate) fn build_any_size(&self) -> Result<RingConfig, RingError> {
        let n = self.n;
        let mut positions = match &self.positions {
            PositionSpec::Even => even_positions(n),
            PositionSpec::Random { seed } => random_positions(n, *seed)?,
            PositionSpec::Explicit(p) => {
                if p.len() != n {
                    return Err(RingError::LengthMismatch {
                        what: "positions",
                        got: p.len(),
                        expected: n,
                    });
                }
                p.clone()
            }
        };
        positions.sort();
        for w in positions.windows(2) {
            if w[0] == w[1] {
                return Err(RingError::DuplicatePosition {
                    ticks: w[0].ticks(),
                });
            }
        }
        for p in &positions {
            if p.ticks() % 2 != 0 {
                return Err(RingError::OddPosition { ticks: p.ticks() });
            }
        }

        let chirality = match &self.chirality {
            ChiralitySpec::AllAligned => vec![Chirality::Aligned; n],
            ChiralitySpec::Alternating => (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        Chirality::Aligned
                    } else {
                        Chirality::Reversed
                    }
                })
                .collect(),
            ChiralitySpec::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                (0..n)
                    .map(|_| {
                        if rng.gen::<bool>() {
                            Chirality::Aligned
                        } else {
                            Chirality::Reversed
                        }
                    })
                    .collect()
            }
            ChiralitySpec::Explicit(c) => {
                if c.len() != n {
                    return Err(RingError::LengthMismatch {
                        what: "chirality flags",
                        got: c.len(),
                        expected: n,
                    });
                }
                c.clone()
            }
        };

        let gaps = (0..n)
            .map(|i| positions[i].cw_distance_to(positions[(i + 1) % n]))
            .collect();

        Ok(RingConfig {
            positions,
            chirality,
            gaps,
        })
    }
}

fn even_positions(n: usize) -> Vec<Point> {
    // Evenly spaced on even ticks; the stride is rounded down to an even
    // number so that every position is even.
    let stride = (CIRCUMFERENCE / n as u64) & !1;
    (0..n as u64)
        .map(|i| Point::from_ticks(i * stride))
        .collect()
}

fn random_positions(n: usize, seed: u64) -> Result<Vec<Point>, RingError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    let mut attempts = 0usize;
    while set.len() < n {
        attempts += 1;
        if attempts > n * 1000 {
            return Err(RingError::PositionGeneration { n });
        }
        let t = rng.gen_range(0..CIRCUMFERENCE) & !1;
        set.insert(t);
    }
    Ok(set.into_iter().map(Point::from_ticks).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_sum_to_circumference() {
        let config = RingConfig::builder(9).random_positions(1).build().unwrap();
        let total: u64 = config.gaps().iter().map(|g| g.ticks()).sum();
        assert_eq!(total, CIRCUMFERENCE);
        assert_eq!(config.gaps().len(), 9);
    }

    #[test]
    fn even_positions_are_sorted_distinct_even() {
        let config = RingConfig::evenly_spaced(7).unwrap();
        let pos = config.positions();
        for w in pos.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(pos.iter().all(|p| p.ticks() % 2 == 0));
    }

    #[test]
    fn too_few_agents_is_rejected() {
        assert_eq!(
            RingConfig::builder(4).build().unwrap_err(),
            RingError::TooFewAgents {
                n: 4,
                min: MIN_AGENTS
            }
        );
    }

    #[test]
    fn explicit_positions_are_validated() {
        let dup = vec![Point::from_ticks(2); 5];
        assert!(matches!(
            RingConfig::builder(5).explicit_positions(dup).build(),
            Err(RingError::DuplicatePosition { .. })
        ));

        let odd = vec![
            Point::from_ticks(1),
            Point::from_ticks(4),
            Point::from_ticks(6),
            Point::from_ticks(8),
            Point::from_ticks(10),
        ];
        assert!(matches!(
            RingConfig::builder(5).explicit_positions(odd).build(),
            Err(RingError::OddPosition { ticks: 1 })
        ));

        let short = vec![Point::from_ticks(2), Point::from_ticks(4)];
        assert!(matches!(
            RingConfig::builder(5).explicit_positions(short).build(),
            Err(RingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn chirality_specs() {
        let c = RingConfig::builder(6)
            .alternating_chirality()
            .build()
            .unwrap();
        assert_eq!(c.aligned_count(), 3);
        assert_eq!(c.chirality(0), Chirality::Aligned);
        assert_eq!(c.chirality(1), Chirality::Reversed);

        let c = RingConfig::builder(6)
            .explicit_chirality(vec![Chirality::Reversed; 6])
            .build()
            .unwrap();
        assert_eq!(c.aligned_count(), 0);

        assert!(matches!(
            RingConfig::builder(6)
                .explicit_chirality(vec![Chirality::Aligned; 2])
                .build(),
            Err(RingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn random_positions_are_reproducible() {
        let a = RingConfig::builder(16).random_positions(5).build().unwrap();
        let b = RingConfig::builder(16).random_positions(5).build().unwrap();
        assert_eq!(a, b);
        let c = RingConfig::builder(16).random_positions(6).build().unwrap();
        assert_ne!(a, c);
    }
}
