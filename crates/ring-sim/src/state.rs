//! Mutable ring state and round execution.
//!
//! [`RingState`] owns the evolving ground truth of a deployment: which slot
//! (initial position) each agent currently occupies. Agent `i` starts in
//! slot `i` and, by the rotation-index lemma (Lemma 1), every round shifts
//! every agent by the same number of slots, so the state is one rotation
//! offset: agent `i` sits in slot `(i + offset) mod n`.
//!
//! Protocols interact with the state exclusively through
//! [`RingState::execute_round_into`], supplying each agent's chosen
//! [`LocalDirection`] and a reusable [`RoundBuffers`] arena, and reading
//! back each agent's [`Observation`] — already translated into the agent's
//! own frame, exactly as the model prescribes.
//! [`RingState::execute_pair_into`] runs a round and its complement (every
//! direction flipped), each followed by its reversal, in one kernel pass,
//! and yields only each round's first collisions into a
//! [`PairRoundBuffers`].
//!
//! The paper's `REVERSEDROUND` moves every agent opposite to the round
//! before it. By Lemma 1 that round's rotation index is the negation of the
//! forward one, so it puts every agent back where the forward round started
//! and needs no simulation: [`RingState::rewind`] moves the offset back and
//! counts the round. The offset also says how far every agent is from home:
//! each round's `dist` is the arc between the slots it starts and ends in,
//! so [`RingState::displacement_of_agent`] is the sum of every `dist` the
//! agent has observed.

use crate::analytic::{AnalyticEngine, AnalyticScratch, PairScratch};
use crate::config::RingConfig;
use crate::direction::{Chirality, LocalDirection, ObjectiveDirection};
use crate::error::RingError;
use crate::events::{EventEngine, EventScratch};
use crate::geometry::{ArcLength, Point};
use crate::observe::Observation;
use crate::rotation::RotationIndex;
use std::hint::select_unpredictable;

/// Which physics engine executes the round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Exact, O(n)-per-round engine based on the rotation-index lemma.
    Analytic,
    /// Event-driven `f64` reference engine that simulates every collision.
    Event,
}

/// Reusable per-round scratch arena for [`RingState::execute_round_into`].
///
/// A multi-round driver creates one `RoundBuffers`, passes it to every
/// round, and reads the round's outputs from it between rounds; after the
/// vectors have grown to the ring size once, round execution performs no
/// heap allocation at all. It holds only per-round data; the ring's state
/// is the one offset in [`RingState`]. Event-engine rounds route through a
/// reusable [`EventScratch`] held here, so the faulty-path reference
/// executor is covered by the same guarantee (modulo growth of its
/// collision log).
#[derive(Clone, Debug, Default)]
pub struct RoundBuffers {
    /// Observation of each agent for the last executed round, in that
    /// agent's own frame.
    pub observations: Vec<Observation>,
    objective: Vec<ObjectiveDirection>,
    scratch: AnalyticScratch,
    events: EventScratch,
}

impl RoundBuffers {
    /// Creates an empty arena (vectors grow to the ring size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Objective direction each agent moved in during the last round
    /// (ground truth).
    pub fn objective_directions(&self) -> &[ObjectiveDirection] {
        &self.objective
    }

    /// Rebuilds `observations` from the round in `scratch`. The writes
    /// stream three contiguous slices (chirality, displacement, collision)
    /// into the output vector — one linear pass with no per-agent indexing,
    /// which the optimiser can vectorise.
    fn write_observations(&mut self, config: &RingConfig) {
        self.observations.clear();
        self.observations.extend(
            config
                .chiralities()
                .iter()
                .zip(&self.scratch.cw_displacement)
                .zip(&self.scratch.first_collision)
                .map(|((&chir, &cw), &coll)| Observation {
                    dist: in_own_frame(chir, cw),
                    coll,
                }),
        );
    }
}

/// Reusable arena for [`RingState::execute_pair_into`]: each round's first
/// collisions, the only thing a complementary pair is read for, and the
/// pair's work arrays. After the vectors have grown to the ring size once,
/// a pair allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct PairRoundBuffers {
    /// Round A's first collision of each agent in ticks, the distance it
    /// travelled before it, [`crate::NO_COLLISION`] if it had none. A
    /// path length, so the same in every frame.
    pub collisions_a: Vec<u64>,
    /// Round B's, likewise.
    pub collisions_b: Vec<u64>,
    objective: Vec<ObjectiveDirection>,
    scratch: PairScratch,
}

impl PairRoundBuffers {
    /// Creates an empty arena (vectors grow to the ring size on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The evolving state of a ring deployment.
#[derive(Clone, Debug)]
pub struct RingState<'a> {
    config: &'a RingConfig,
    offset: usize,
    rounds_executed: u64,
}

impl<'a> RingState<'a> {
    /// Creates a fresh state in which agent `i` occupies slot `i`.
    pub fn new(config: &'a RingConfig) -> Self {
        RingState {
            config,
            offset: 0,
            rounds_executed: 0,
        }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &RingConfig {
        self.config
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.config.len()
    }

    /// Whether the ring is empty (never true for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.config.is_empty()
    }

    /// Number of rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// Slot currently occupied by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn slot_of_agent(&self, agent: usize) -> usize {
        assert!(agent < self.len(), "agent {agent} out of range");
        (agent + self.offset) % self.len()
    }

    /// The rotation offset: agent `i` occupies slot `(i + offset) mod n`.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The current position of `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn position_of_agent(&self, agent: usize) -> Point {
        self.config.position(self.slot_of_agent(agent))
    }

    /// Whether every agent is back at its initial slot.
    pub fn at_initial_positions(&self) -> bool {
        self.offset == 0
    }

    /// Undoes rounds without simulating them: moves every agent `shift`
    /// slots back anticlockwise, where `shift` is the net rotation of the
    /// undone rounds, and counts `rounds` executed rounds. Returns the
    /// rotation index of a single round that undoes a shift of `shift`,
    /// `(n − shift) mod n`.
    ///
    /// By Lemma 1 a `REVERSEDROUND` has exactly this effect on positions;
    /// what it would have observed is not computed.
    pub fn rewind(&mut self, shift: usize, rounds: u64) -> RotationIndex {
        let n = self.len();
        let back = (n - shift % n) % n;
        self.offset = (self.offset + back) % n;
        self.rounds_executed += rounds;
        RotationIndex { shift: back, n }
    }

    /// The arc from `agent`'s initial position to its current one, in the
    /// agent's own frame. Every round's `dist` is the arc from the slot the
    /// agent started the round in to the slot it ended in, so this is the
    /// sum, modulo the circumference, of every `dist` the agent observed.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn displacement_of_agent(&self, agent: usize) -> ArcLength {
        let cw = self
            .config
            .position(agent)
            .cw_distance_to(self.position_of_agent(agent));
        in_own_frame(self.config.chirality(agent), cw)
    }

    /// Executes one round given each agent's chosen direction in its **own**
    /// frame, into a caller-owned [`RoundBuffers`] arena. Observations land
    /// in `bufs.observations` (each in its agent's own frame), the resolved
    /// objective directions in [`RoundBuffers::objective_directions`], and
    /// the rotation index is returned.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn execute_round_into(
        &mut self,
        local_directions: &[LocalDirection],
        engine: EngineKind,
        bufs: &mut RoundBuffers,
    ) -> Result<RotationIndex, RingError> {
        self.resolve_into(local_directions, &mut bufs.objective)?;
        self.run_prepared_round(engine, bufs)
    }

    /// Rebuilds `objective` with the objective direction of each agent's
    /// local one.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    fn resolve_into(
        &self,
        local_directions: &[LocalDirection],
        objective: &mut Vec<ObjectiveDirection>,
    ) -> Result<(), RingError> {
        let n = self.len();
        if local_directions.len() != n {
            return Err(RingError::DirectionCountMismatch {
                got: local_directions.len(),
                expected: n,
            });
        }
        objective.clear();
        // Direction resolution zips two contiguous slices (directions ×
        // chiralities) with no per-agent bounds checks, so the optimiser can
        // vectorise the translation.
        objective.extend(
            local_directions
                .iter()
                .zip(self.config.chiralities())
                .map(|(dir, &chir)| dir.to_objective(chir)),
        );
        Ok(())
    }

    /// Executes one round given objective directions, into a caller-owned
    /// arena (mostly useful for tests and for the experiment harness, which
    /// plays the adversary).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn execute_round_objective_into(
        &mut self,
        objective: &[ObjectiveDirection],
        engine: EngineKind,
        bufs: &mut RoundBuffers,
    ) -> Result<RotationIndex, RingError> {
        let n = self.len();
        if objective.len() != n {
            return Err(RingError::DirectionCountMismatch {
                got: objective.len(),
                expected: n,
            });
        }
        bufs.objective.clear();
        bufs.objective.extend_from_slice(objective);
        self.run_prepared_round(engine, bufs)
    }

    /// Core of every round: executes `bufs.objective`, adding the round's
    /// shift to the offset and writing the per-agent observations into
    /// `bufs.observations`.
    fn run_prepared_round(
        &mut self,
        engine: EngineKind,
        bufs: &mut RoundBuffers,
    ) -> Result<RotationIndex, RingError> {
        let rotation = AnalyticEngine::new().execute_into(
            self.config,
            self.offset,
            &bufs.objective,
            &mut bufs.scratch,
        );
        if engine == EngineKind::Event {
            // The event engine is the reference: use it for collisions, but
            // keep the (exact) analytic displacement and shift, which the
            // property tests show it agrees with. The reusable scratch keeps
            // the faulty-path reference executor allocation-free per round.
            EventEngine::new().simulate_into(
                self.config,
                self.offset,
                &bufs.objective,
                &mut bufs.events,
            );
            bufs.scratch.first_collision.clear();
            bufs.scratch.first_collision.extend(
                bufs.events
                    .first_collision
                    .iter()
                    .map(|c| c.map(ArcLength::from_fraction)),
            );
        }

        bufs.write_observations(self.config);
        self.offset = (self.offset + rotation.shift) % self.len();
        self.rounds_executed += 1;
        Ok(rotation)
    }

    /// Executes a complementary pair of rounds as four counted rounds and
    /// returns round A's rotation index: round A with each agent's
    /// `local_directions`, its `REVERSEDROUND`, round B with every
    /// direction flipped, and B's `REVERSEDROUND`. A's first collisions
    /// land in `bufs.collisions_a`, B's in `bufs.collisions_b`; the state
    /// ends at the offset it started from. By Lemma 1 each reversal
    /// restores the offset, so both information rounds start from it, and
    /// by Proposition 4 both come from one pass of the analytic kernel
    /// ([`AnalyticEngine::execute_pair_into`]). Nothing else is computed:
    /// no displacements and no [`Observation`]s, of the information rounds
    /// or of the reversals.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn execute_pair_into(
        &mut self,
        local_directions: &[LocalDirection],
        bufs: &mut PairRoundBuffers,
    ) -> Result<RotationIndex, RingError> {
        self.resolve_into(local_directions, &mut bufs.objective)?;
        let rotation = AnalyticEngine::new().execute_pair_into(
            self.config,
            self.offset,
            &bufs.objective,
            &mut bufs.scratch,
            &mut bufs.collisions_a,
            &mut bufs.collisions_b,
        );
        self.rounds_executed += 4;
        Ok(rotation)
    }
}

/// A clockwise arc as an agent of chirality `chir` measures it: its own
/// clockwise is the objective anticlockwise when reversed.
fn in_own_frame(chir: Chirality, cw: ArcLength) -> ArcLength {
    // A select, not a branch: this runs for every agent of every round,
    // and chiralities can be random.
    let mirrored = (chir == Chirality::Reversed) & !cw.is_zero();
    select_unpredictable(mirrored, cw.complement(), cw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Chirality;

    #[test]
    fn reversed_round_restores_positions() {
        let config = RingConfig::builder(7)
            .random_positions(2)
            .random_chirality(3)
            .build()
            .unwrap();
        let mut ring = RingState::new(&config);
        let dirs = vec![
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Left,
        ];
        let reversed: Vec<LocalDirection> = dirs.iter().map(|d| d.opposite()).collect();
        let mut bufs = RoundBuffers::new();
        assert!(ring.at_initial_positions());
        ring.execute_round_into(&dirs, EngineKind::Analytic, &mut bufs)
            .unwrap();
        ring.execute_round_into(&reversed, EngineKind::Analytic, &mut bufs)
            .unwrap();
        assert!(ring.at_initial_positions());
        assert_eq!(ring.rounds_executed(), 2);
    }

    /// A rewind reaches the state the reversed round reaches, and counts the
    /// rounds it stands for.
    #[test]
    fn rewind_matches_the_reversed_round() {
        let config = RingConfig::builder(7)
            .random_positions(2)
            .random_chirality(3)
            .build()
            .unwrap();
        let mut dirs = [ObjectiveDirection::Clockwise; 7];
        dirs[1] = ObjectiveDirection::Anticlockwise;
        dirs[5] = ObjectiveDirection::Idle;
        let reversed: Vec<ObjectiveDirection> = dirs.iter().map(|d| d.opposite()).collect();
        let mut bufs = RoundBuffers::new();
        let mut kernel = RingState::new(&config);
        let mut rewound = RingState::new(&config);
        for _ in 0..3 {
            let forward = kernel
                .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
                .unwrap();
            rewound
                .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
                .unwrap();
            let expected = kernel
                .execute_round_objective_into(&reversed, EngineKind::Analytic, &mut bufs)
                .unwrap();
            assert_eq!(rewound.rewind(forward.shift, 1), expected);
            assert_eq!(rewound.offset(), kernel.offset());
        }
        assert!(rewound.at_initial_positions());
        assert_eq!(rewound.rounds_executed(), kernel.rounds_executed());

        // Several rounds at once: one net shift, every round counted.
        for _ in 0..4 {
            rewound
                .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
                .unwrap();
        }
        let net_shift = rewound.offset();
        rewound.rewind(net_shift, 4);
        assert!(rewound.at_initial_positions());
        assert_eq!(rewound.rounds_executed(), 6 + 8);
    }

    #[test]
    fn direction_count_is_validated() {
        let config = RingConfig::evenly_spaced(6).unwrap();
        let mut ring = RingState::new(&config);
        let err = ring
            .execute_round_into(
                &[LocalDirection::Right; 3],
                EngineKind::Analytic,
                &mut RoundBuffers::new(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            RingError::DirectionCountMismatch {
                got: 3,
                expected: 6
            }
        );
    }

    #[test]
    fn reversed_chirality_observes_mirrored_distances() {
        // Two configurations differing only in one agent's chirality: the
        // observation of that agent is mirrored while others are unchanged.
        let n = 6;
        let aligned = RingConfig::builder(n).random_positions(9).build().unwrap();
        let mut chir = vec![Chirality::Aligned; n];
        chir[2] = Chirality::Reversed;
        let mixed = RingConfig::builder(n)
            .random_positions(9)
            .explicit_chirality(chir)
            .build()
            .unwrap();

        // Use objective directions so that the physical round is identical.
        let dirs = vec![
            ObjectiveDirection::Clockwise,
            ObjectiveDirection::Clockwise,
            ObjectiveDirection::Anticlockwise,
            ObjectiveDirection::Clockwise,
            ObjectiveDirection::Anticlockwise,
            ObjectiveDirection::Clockwise,
        ];
        let mut ring_a = RingState::new(&aligned);
        let mut ring_b = RingState::new(&mixed);
        let (mut out_a, mut out_b) = (RoundBuffers::new(), RoundBuffers::new());
        let rotation_a = ring_a
            .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut out_a)
            .unwrap();
        let rotation_b = ring_b
            .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut out_b)
            .unwrap();

        assert_eq!(rotation_a, rotation_b);
        for (agent, (a, b)) in out_a
            .observations
            .iter()
            .zip(&out_b.observations)
            .enumerate()
        {
            if agent == 2 && !a.dist.is_zero() {
                assert_eq!(b.dist, a.dist.complement());
            } else {
                assert_eq!(a.dist, b.dist);
            }
            // Collision distances are path lengths: identical regardless of
            // chirality.
            assert_eq!(a.coll, b.coll);
        }
    }

    /// A reused arena produces exactly what a fresh arena per round does
    /// (an allocating round): no state leaks between rounds through it.
    #[test]
    fn buffered_rounds_match_allocating_rounds() {
        let config = RingConfig::builder(9)
            .random_positions(11)
            .random_chirality(12)
            .build()
            .unwrap();
        for engine in [EngineKind::Analytic, EngineKind::Event] {
            let mut plain = RingState::new(&config);
            let mut buffered = RingState::new(&config);
            let mut bufs = RoundBuffers::new();
            for round in 0..6u64 {
                let dirs: Vec<LocalDirection> = (0..9)
                    .map(|i| {
                        if (i as u64 + round).is_multiple_of(3) {
                            LocalDirection::Left
                        } else {
                            LocalDirection::Right
                        }
                    })
                    .collect();
                let mut fresh = RoundBuffers::new();
                let expected = plain.execute_round_into(&dirs, engine, &mut fresh).unwrap();
                let rotation = buffered
                    .execute_round_into(&dirs, engine, &mut bufs)
                    .unwrap();
                assert_eq!(rotation, expected);
                assert_eq!(bufs.observations, fresh.observations);
                assert_eq!(bufs.objective_directions(), fresh.objective_directions());
                assert_eq!(plain.offset(), buffered.offset());
            }
            assert_eq!(plain.rounds_executed(), buffered.rounds_executed());
        }
    }

    /// A pair's collisions are those of its two rounds run one by one from
    /// the same offset, through one reused arena; it counts four rounds and
    /// ends where it started.
    #[test]
    fn pair_collisions_match_two_single_rounds() {
        let config = RingConfig::builder(11)
            .random_positions(6)
            .random_chirality(7)
            .build()
            .unwrap();
        let mut ring = RingState::new(&config);
        let (mut pair, mut single) = (PairRoundBuffers::new(), RoundBuffers::new());
        let ticks = |bufs: &RoundBuffers| -> Vec<u64> {
            bufs.observations
                .iter()
                .map(Observation::coll_ticks)
                .collect()
        };
        for round in 0..8usize {
            let dirs: Vec<LocalDirection> = (0..11)
                .map(|i| LocalDirection::from_bit((i * 3 + round) % 4 < 2 || round == 7))
                .collect();
            let flipped: Vec<LocalDirection> = dirs.iter().map(|d| d.opposite()).collect();
            let (offset, rounds) = (ring.offset(), ring.rounds_executed());
            let rotation = ring.execute_pair_into(&dirs, &mut pair).unwrap();
            assert_eq!(
                (ring.offset(), ring.rounds_executed()),
                (offset, rounds + 4)
            );

            let mut one_by_one = ring.clone();
            let expected = one_by_one
                .execute_round_into(&dirs, EngineKind::Analytic, &mut single)
                .unwrap();
            assert_eq!(rotation, expected, "round {round}");
            assert_eq!(pair.collisions_a, ticks(&single), "round {round}: A");
            one_by_one.rewind(expected.shift, 1);
            one_by_one
                .execute_round_into(&flipped, EngineKind::Analytic, &mut single)
                .unwrap();
            assert_eq!(pair.collisions_b, ticks(&single), "round {round}: B");
            // Move on so that the next pair starts from another offset.
            ring.execute_round_into(&dirs, EngineKind::Analytic, &mut single)
                .unwrap();
        }
    }

    #[test]
    fn event_engine_round_keeps_exact_slots() {
        let config = RingConfig::builder(6).random_positions(4).build().unwrap();
        let mut analytic_ring = RingState::new(&config);
        let mut event_ring = RingState::new(&config);
        let dirs = vec![
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Right,
        ];
        let mut bufs = RoundBuffers::new();
        analytic_ring
            .execute_round_into(&dirs, EngineKind::Analytic, &mut bufs)
            .unwrap();
        event_ring
            .execute_round_into(&dirs, EngineKind::Event, &mut bufs)
            .unwrap();
        assert_eq!(analytic_ring.offset(), event_ring.offset());
    }

    #[test]
    fn slot_of_agent_follows_the_offset() {
        let config = RingConfig::evenly_spaced(5).unwrap();
        let mut ring = RingState::new(&config);
        let mut bufs = RoundBuffers::new();
        // Four clockwise movers, one anticlockwise: shift 3 per round.
        let mut dirs = [ObjectiveDirection::Clockwise; 5];
        dirs[4] = ObjectiveDirection::Anticlockwise;
        for round in 1..=3 {
            ring.execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
                .unwrap();
            assert_eq!(ring.offset(), 3 * round % 5);
            for agent in 0..5 {
                assert_eq!(ring.slot_of_agent(agent), (agent + 3 * round) % 5);
                assert_eq!(
                    ring.position_of_agent(agent),
                    config.position((agent + 3 * round) % 5)
                );
            }
        }
        assert!(!ring.at_initial_positions());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_of_agent_panics_past_the_ring() {
        let config = RingConfig::evenly_spaced(5).unwrap();
        RingState::new(&config).slot_of_agent(5);
    }
}
