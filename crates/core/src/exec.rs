//! The synchronous protocol executor.
//!
//! [`Network`] is the only interface protocol code has to the physical
//! world. It binds a [`RingConfig`] (hidden ground truth), an
//! [`IdAssignment`] and a [`Model`], and exposes
//!
//! * the public knowledge every agent shares — the identifier universe `N`,
//!   the parity of `n`, and the model;
//! * each agent's private input — its own identifier;
//! * [`Network::step_into`], which executes one synchronised round: it takes
//!   the direction chosen by every agent *in that agent's own frame*,
//!   enforces the model's restrictions, and writes every agent's
//!   [`Observation`] — again in the agent's own frame, with collision
//!   information stripped unless the model is perceptive — into a reusable
//!   [`StepBuffers`] set;
//! * [`Network::undo_last`] and [`Network::mark`]/[`Network::rewind`], the
//!   paper's `REVERSEDROUND`: they put every agent back where a forward
//!   round (or every round since a mark) started and count one round per
//!   round undone;
//! * [`Network::step_pair_into`], a round and its complement (every
//!   direction flipped), each followed by its undo: the bit exchange of
//!   Proposition 31, run by the analytic kernel in one pass, and not run
//!   again when the next call repeats it through the same buffers. It
//!   yields only what the exchange decodes, each round's first collisions,
//!   into a [`PairBuffers`] set.
//!
//! The ring offset and its round count are the executor's whole position
//! and round state. By Lemma 1 every round rotates the agents over their
//! initial positions, so the offset says where every agent is, and each
//! agent's cumulative distance (the sum of its `dist` observations) is
//! derived from it. An undo round is counted but not simulated, on every
//! engine: no protocol reads what a reversed round observes, and its
//! effect is known — the offset moves back by the forward shift. The
//! observation buffer is cleared instead. An undo that would cross the
//! round limit rewinds only the rounds the limit allows, so it stops where
//! executing the reversed directions would. Under a fault plan that
//! suppresses moves an undo is refused: a suppressed reversal does not
//! undo.
//!
//! Protocol implementations in this crate are written as lockstep drivers:
//! the same local rule is evaluated for every agent using only that agent's
//! state, and the chosen directions are submitted together through
//! `step_into` (or a whole schedule through [`Network::run_schedule`]).
//! Tests validate the outputs against the ground truth, which remains
//! accessible through the `ground_truth_*` methods (never used by protocol
//! logic).

use crate::error::ProtocolError;
use crate::fault::FaultPlan;
use crate::ids::{AgentId, IdAssignment};
use crate::structures::{fresh_structures, SharedStructures};
use ring_sim::{
    EngineKind, LocalDirection, Model, Observation, PairRoundBuffers, Parity, RingConfig,
    RingState, RotationIndex, RoundBuffers, NO_COLLISION,
};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reusable buffers for the zero-alloc round interface
/// ([`Network::step_into`], [`Network::run_schedule`],
/// [`Network::undo_last`]).
///
/// Create one per protocol run and thread it through every round: after the
/// vectors reach the ring size, no round allocates.
#[derive(Clone, Debug, Default)]
pub struct StepBuffers {
    round: RoundBuffers,
    directions: Vec<LocalDirection>,
    /// `(network, rounds_used)` right after the forward round whose
    /// observations these buffers hold, while [`Network::undo_last`] may
    /// still revert it.
    forward: Option<(u64, u64)>,
}

impl StepBuffers {
    /// Creates an empty buffer set (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The observations of the last executed round, in each agent's own
    /// frame, with collision information already gated by the model.
    pub fn observations(&self) -> &[Observation] {
        &self.round.observations
    }
}

/// Reusable buffers for [`Network::step_pair_into`]: the first collisions
/// of a complementary pair's rounds A and B, the only thing the pair is
/// read for, plus the pair's work arrays. After the vectors reach the ring
/// size, no pair allocates.
#[derive(Clone, Debug, Default)]
pub struct PairBuffers {
    round: PairRoundBuffers,
    /// The fused pair whose collisions these buffers hold.
    stamp: Option<PairStamp>,
    /// The round buffers of the one-by-one path.
    fallback: StepBuffers,
}

impl PairBuffers {
    /// Creates an empty buffer set (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Round A's first collision of every agent, in ticks: the distance it
    /// travelled before it, [`NO_COLLISION`] if it had none or the model
    /// observes no collisions.
    pub fn collisions_a(&self) -> &[u64] {
        &self.round.collisions_a
    }

    /// Round B's first collisions, as [`PairBuffers::collisions_a`].
    pub fn collisions_b(&self) -> &[u64] {
        &self.round.collisions_b
    }
}

/// Names the simulated complementary pair whose collisions a
/// [`PairBuffers`] holds: [`Network::step_pair_into`] reuses them only
/// for this network's latest pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PairStamp {
    network: u64,
    /// The pair's number in [`LastPair::seq`].
    pair: u64,
}

/// The last complementary pair the kernel simulated for a network. A pair
/// observes a pure function of the configuration, the offset it starts
/// from and its directions, so a call that repeats all three, through the
/// buffers stamped with this pair, finds its collisions already there.
#[derive(Clone, Debug, Default)]
struct LastPair {
    /// Counts the network's simulated pairs.
    seq: u64,
    offset: usize,
    directions: Vec<LocalDirection>,
    rotation: Option<RotationIndex>,
}

/// A point to return to with [`Network::rewind`], taken by
/// [`Network::mark`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UndoMark {
    network: u64,
    round: u64,
}

/// Identifies a network to the buffers and marks of its undo bookkeeping.
/// A clone is a different network and draws a fresh id, so nothing taken
/// from the original validates against it.
#[derive(Debug)]
struct NetworkId(u64);

impl NetworkId {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NetworkId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for NetworkId {
    fn clone(&self) -> Self {
        NetworkId::fresh()
    }
}

/// The executor: hidden ground truth plus the round interface.
#[derive(Clone)]
pub struct Network<'a> {
    id: NetworkId,
    ring: RingState<'a>,
    ids: IdAssignment,
    model: Model,
    engine: EngineKind,
    last_rotation: Option<RotationIndex>,
    structures: SharedStructures,
    structure_seed: u64,
    faults: Option<FaultPlan>,
    fault_scratch: Vec<LocalDirection>,
    round_limit: Option<u64>,
    mark: Option<UndoMark>,
    /// The shift of every forward round since the mark in force, oldest
    /// first: what [`Network::rewind`] moves back.
    mark_shifts: Vec<usize>,
    last_pair: LastPair,
}

impl fmt::Debug for Network<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("ring", &self.ring)
            .field("ids", &self.ids)
            .field("model", &self.model)
            .field("engine", &self.engine)
            .field("last_rotation", &self.last_rotation)
            .field("structures", &"<dyn StructureProvider>")
            .field("faults", &self.faults)
            .field("round_limit", &self.round_limit)
            .finish()
    }
}

impl<'a> Network<'a> {
    /// Creates an executor over the given configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the identifier assignment does not cover exactly
    /// the agents of the configuration.
    pub fn new(
        config: &'a RingConfig,
        ids: IdAssignment,
        model: Model,
    ) -> Result<Self, ProtocolError> {
        if ids.len() != config.len() {
            return Err(ProtocolError::LengthMismatch {
                what: "identifiers",
                got: ids.len(),
                expected: config.len(),
            });
        }
        Ok(Network {
            id: NetworkId::fresh(),
            ring: RingState::new(config),
            ids,
            model,
            engine: EngineKind::Analytic,
            last_rotation: None,
            structures: fresh_structures(),
            structure_seed: crate::coordination::nontrivial::STRUCTURE_SEED,
            faults: None,
            fault_scratch: Vec::new(),
            round_limit: None,
            mark: None,
            mark_shifts: Vec::new(),
            last_pair: LastPair::default(),
        })
    }

    /// Selects the physics engine (the analytic engine is the default; the
    /// event-driven engine is available for validation runs).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a shared combinatorial-structure provider. Protocols obtain
    /// their distinguishers through it, so a sweep
    /// harness can hand every worker the same cache and have each structure
    /// constructed once. The default ([`crate::structures::FreshStructures`])
    /// constructs from scratch per request; either way the structures are
    /// bit-identical, so outcomes do not depend on the provider.
    pub fn with_structures(mut self, structures: SharedStructures) -> Self {
        self.structures = structures;
        self
    }

    /// The combinatorial-structure provider in force.
    pub fn structures(&self) -> &SharedStructures {
        &self.structures
    }

    /// Overrides the seed the distinguisher machinery hands its structure
    /// provider (the default is the fixed public
    /// [`STRUCTURE_SEED`](crate::coordination::nontrivial::STRUCTURE_SEED)).
    /// Sweep harnesses set a per-case seed here to measure the spread over
    /// structure randomness (seed-diverse sweeps); the seed is public
    /// knowledge — all agents agree on it — so protocol semantics are
    /// unchanged.
    pub fn with_structure_seed(mut self, seed: u64) -> Self {
        self.structure_seed = seed;
        self
    }

    /// The structure seed in force (see [`Network::with_structure_seed`]).
    pub fn structure_seed(&self) -> u64 {
        self.structure_seed
    }

    /// Installs a deterministic fault plan: from now on, every round first
    /// consults the plan and physically suppresses (forces idle) the moves
    /// of the agents it names — *after* the model's idle check, because a
    /// dropped message or a crashed station is a physical failure, not a
    /// protocol choice, and is legal even where idling is forbidden.
    ///
    /// The analytic engine models no collisions in rounds with idle agents,
    /// so a model that observes collisions switches to the event-driven
    /// engine here; collision-blind models keep the exact analytic one.
    /// ([`Network::with_engine`] after this call overrides the choice.)
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        if self.model.observes_collisions() {
            self.engine = EngineKind::Event;
        }
        self
    }

    /// The fault plan in force, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Caps the total number of rounds this executor will run: the step
    /// after the cap fails with [`ProtocolError::RoundLimitReached`].
    /// Fault-injection harnesses use this as the timeout for runs that
    /// degrade past usefulness; protocol semantics below the cap are
    /// unchanged.
    pub fn with_round_limit(mut self, limit: u64) -> Self {
        self.round_limit = Some(limit);
        self
    }

    // ------------------------------------------------------------------
    // Public knowledge (available to every agent).
    // ------------------------------------------------------------------

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.ids.universe()
    }

    /// Number of bits needed to address the identifier universe.
    pub fn id_bits(&self) -> u32 {
        self.ids.id_bits()
    }

    /// The parity of the (otherwise unknown) ring size.
    pub fn parity(&self) -> Parity {
        Parity::of(self.ring.len())
    }

    /// The model in force.
    pub fn model(&self) -> Model {
        self.model
    }

    // ------------------------------------------------------------------
    // Private inputs (agent `i` may only look at index `i`).
    // ------------------------------------------------------------------

    /// The identifier of `agent` — that agent's private input.
    pub fn id_of(&self, agent: usize) -> AgentId {
        self.ids.id(agent)
    }

    // ------------------------------------------------------------------
    // Round execution.
    // ------------------------------------------------------------------

    /// Number of agents; used by the lockstep drivers to size their per-agent
    /// state vectors (an agent itself never learns `n`, only its parity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty (never true for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of rounds executed so far.
    pub fn rounds_used(&self) -> u64 {
        self.ring.rounds_executed()
    }

    /// Executes one round into a caller-owned [`StepBuffers`]; observations
    /// are read back through [`StepBuffers::observations`]. After the
    /// buffers reach the ring size, a round allocates nothing. The round
    /// can then be reverted with [`Network::undo_last`].
    ///
    /// # Errors
    ///
    /// Returns an error if the direction vector has the wrong length or an
    /// agent idles in a non-lazy model.
    pub fn step_into(
        &mut self,
        directions: &[LocalDirection],
        bufs: &mut StepBuffers,
    ) -> Result<(), ProtocolError> {
        self.check_directions(directions)?;
        self.check_round_limit()?;
        // Fault injection happens below the model check: a suppressed move
        // is a physical failure, not a protocol choice, so forcing idle here
        // is legal even in models that forbid idling.
        let rotation = match &self.faults {
            Some(plan) if plan.any_faults() => {
                let round = self.rounds_used();
                let mut faulted = std::mem::take(&mut self.fault_scratch);
                faulted.clear();
                faulted.extend(directions.iter().enumerate().map(|(agent, &dir)| {
                    if plan.suppressed(round, agent) {
                        LocalDirection::Idle
                    } else {
                        dir
                    }
                }));
                let result = self
                    .ring
                    .execute_round_into(&faulted, self.engine, &mut bufs.round);
                self.fault_scratch = faulted;
                result?
            }
            _ => self
                .ring
                .execute_round_into(directions, self.engine, &mut bufs.round)?,
        };
        self.last_rotation = Some(rotation);
        if !self.model.observes_collisions() {
            for obs in &mut bufs.round.observations {
                obs.coll = None;
            }
        }
        if self.mark.is_some() {
            self.mark_shifts.push(rotation.shift);
        }
        bufs.forward = Some((self.id.0, self.rounds_used()));
        Ok(())
    }

    /// Executes a complementary pair of rounds, each followed by its undo:
    /// round A with `directions`, [`Network::undo_last`], round B with
    /// every direction flipped, and its undo — four counted rounds that end
    /// where they started. Each round's first collisions land in `bufs`
    /// ([`PairBuffers::collisions_a`] and [`PairBuffers::collisions_b`]),
    /// gated by the model as in [`Network::step_into`]. Nothing else of the
    /// rounds is kept: no displacements and no [`Observation`]s. Neither
    /// round can be undone afterwards, and a mark in force is dropped, as
    /// by the undos.
    ///
    /// On the analytic engine, with no active fault plan and at least four
    /// rounds left under the round limit, both rounds come from one pass of
    /// the kernel ([`RingState::execute_pair_into`]). Otherwise the four
    /// calls run one by one and the collisions are read from their
    /// observations. Either way the outcome is that of the four calls,
    /// error included: the analytic engine's results match the sequence
    /// tick for tick.
    ///
    /// On the kernel path a pair is simulated only once. A call repeats
    /// the last pair this network simulated when it starts from the same
    /// offset with the same directions and `bufs` still holds that pair:
    /// only this method writes a [`PairBuffers`], and it stamps the buffers
    /// with the pair they hold; a clone is another network. A repeat counts
    /// its four rounds and leaves the collisions in place; they are what
    /// simulating it would write.
    ///
    /// # Errors
    ///
    /// Those of [`Network::step_into`] and [`Network::undo_last`], from the
    /// first of the four calls that fails; the calls before it have run.
    /// After an error the buffers' collisions are unspecified.
    pub fn step_pair_into(
        &mut self,
        directions: &[LocalDirection],
        bufs: &mut PairBuffers,
    ) -> Result<(), ProtocolError> {
        let rounds_left = self
            .round_limit
            .map_or(u64::MAX, |limit| limit.saturating_sub(self.rounds_used()));
        if self.engine != EngineKind::Analytic
            || self.faults.as_ref().is_some_and(FaultPlan::any_faults)
            || rounds_left < 4
        {
            return self.step_pair_one_by_one(directions, bufs);
        }
        if bufs.stamp == self.pair_stamp()
            && self.ring.offset() == self.last_pair.offset
            && self.last_pair.directions == directions
        {
            self.ring.rewind(0, 4);
            self.last_rotation = self.last_pair.rotation;
            self.finish_pair();
            return Ok(());
        }
        bufs.stamp = None;
        self.check_directions(directions)?;
        let offset = self.ring.offset();
        let rotation = self.ring.execute_pair_into(directions, &mut bufs.round)?;
        if !self.model.observes_collisions() {
            bufs.round.collisions_a.fill(NO_COLLISION);
            bufs.round.collisions_b.fill(NO_COLLISION);
        }
        // B's undo reverses B's shift, the negation of A's: A's shift.
        self.last_rotation = Some(rotation);
        let last = &mut self.last_pair;
        last.seq += 1;
        last.offset = offset;
        last.directions.clear();
        last.directions.extend_from_slice(directions);
        last.rotation = self.last_rotation;
        bufs.stamp = self.pair_stamp();
        self.finish_pair();
        Ok(())
    }

    /// The stamp of the last simulated pair.
    fn pair_stamp(&self) -> Option<PairStamp> {
        Some(PairStamp {
            network: self.id.0,
            pair: self.last_pair.seq,
        })
    }

    /// Ends a fused pair: a mark in force is dropped, as by the pair's
    /// undos.
    fn finish_pair(&mut self) {
        self.mark = None;
        self.mark_shifts.clear();
    }

    /// [`Network::step_pair_into`] as its four calls, through the pair's
    /// own round buffers. Each round's collisions are read before its undo
    /// clears the observations.
    fn step_pair_one_by_one(
        &mut self,
        directions: &[LocalDirection],
        bufs: &mut PairBuffers,
    ) -> Result<(), ProtocolError> {
        bufs.stamp = None;
        let PairBuffers {
            round, fallback, ..
        } = bufs;
        self.step_into(directions, fallback)?;
        collisions_into(fallback.observations(), &mut round.collisions_a);
        self.undo_last(fallback)?;
        let mut flipped = std::mem::take(&mut fallback.directions);
        flipped.clear();
        flipped.extend(directions.iter().map(|d| d.opposite()));
        let stepped = self.step_into(&flipped, fallback);
        fallback.directions = flipped;
        stepped?;
        collisions_into(fallback.observations(), &mut round.collisions_b);
        self.undo_last(fallback)
    }

    /// Fails if the direction vector has the wrong length or an agent idles
    /// in a model that forbids it.
    fn check_directions(&self, directions: &[LocalDirection]) -> Result<(), ProtocolError> {
        if directions.len() != self.ring.len() {
            return Err(ProtocolError::LengthMismatch {
                what: "directions",
                got: directions.len(),
                expected: self.ring.len(),
            });
        }
        if !self.model.allows_idle() {
            if let Some(agent) = directions.iter().position(|d| !d.is_moving()) {
                return Err(ProtocolError::IdleForbidden {
                    agent,
                    model: self.model,
                });
            }
        }
        Ok(())
    }

    /// Fails with [`ProtocolError::RoundLimitReached`] if one more round
    /// would cross the round limit.
    fn check_round_limit(&self) -> Result<(), ProtocolError> {
        match self.round_limit {
            Some(limit) if self.rounds_used() >= limit => {
                Err(ProtocolError::RoundLimitReached { limit })
            }
            _ => Ok(()),
        }
    }

    /// Refuses an undo under a fault plan that suppresses moves: the plan
    /// may suppress the reversal's moves too, and a suppressed reversal is
    /// not an undo.
    fn check_undo_faults(&self) -> Result<(), ProtocolError> {
        if self.faults.as_ref().is_some_and(FaultPlan::any_faults) {
            return Err(ProtocolError::NothingToUndo {
                reason: "a fault plan may suppress the reversal's moves",
            });
        }
        Ok(())
    }

    /// Ends an undo: nothing before it can be undone any more, and the
    /// buffers hold no observations to read.
    fn finish_undo(&mut self, bufs: &mut StepBuffers) {
        bufs.forward = None;
        bufs.round.observations.clear();
        self.mark = None;
        self.mark_shifts.clear();
    }

    /// Reverts the immediately preceding round, which must have been a
    /// [`Network::step_into`] into these very buffers: the paper's
    /// `REVERSEDROUND`. It counts as one round, returns every agent to
    /// where that round started, and leaves the buffers without
    /// observations. A mark in force is dropped. The round is not
    /// simulated.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NothingToUndo`] if another round ran since, the
    /// round was already undone, the buffers hold another round's
    /// observations, or a fault plan suppresses moves; nothing changes.
    /// [`ProtocolError::RoundLimitReached`] if the round limit leaves no
    /// room for the undo round; nothing moves.
    pub fn undo_last(&mut self, bufs: &mut StepBuffers) -> Result<(), ProtocolError> {
        if bufs.forward != Some((self.id.0, self.rounds_used())) {
            return Err(ProtocolError::NothingToUndo {
                reason: "the buffers do not hold this network's latest forward round",
            });
        }
        self.check_undo_faults()?;
        let result = self.check_round_limit();
        if result.is_ok() {
            let shift = self.last_rotation.map_or(0, |r| r.shift);
            self.last_rotation = Some(self.ring.rewind(shift, 1));
        }
        self.finish_undo(bufs);
        result
    }

    /// Takes a mark that [`Network::rewind`] returns to. It replaces any
    /// earlier mark.
    pub fn mark(&mut self) -> UndoMark {
        let mark = UndoMark {
            network: self.id.0,
            round: self.rounds_used(),
        };
        self.mark = Some(mark);
        self.mark_shifts.clear();
        mark
    }

    /// Reverts every round since `mark`, last round first: `k` rounds since
    /// the mark count as `k` `REVERSEDROUND`s and return every agent to
    /// where it stood at the mark. The buffers are left without
    /// observations, and the mark is used up. With no round since the mark,
    /// only the mark is used up. The rounds are not simulated.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NothingToUndo`] if `mark` is not this network's
    /// mark in force (another mark replaced it, or an undo or rewind used it
    /// up) or a fault plan suppresses moves; nothing changes.
    /// [`ProtocolError::RoundLimitReached`] if the round limit cuts the
    /// rewind short: it reverts as many of the latest rounds as the limit
    /// allows, and the mark is used up.
    pub fn rewind(&mut self, mark: UndoMark, bufs: &mut StepBuffers) -> Result<(), ProtocolError> {
        if self.mark != Some(mark) {
            return Err(ProtocolError::NothingToUndo {
                reason: "the mark is not this network's mark in force",
            });
        }
        self.check_undo_faults()?;
        let rounds = self.mark_shifts.len();
        if rounds == 0 {
            self.mark = None;
            return Ok(());
        }
        let (undone, result) = match self.round_limit {
            Some(limit) if self.rounds_used() + rounds as u64 > limit => (
                limit.saturating_sub(self.rounds_used()) as usize,
                Err(ProtocolError::RoundLimitReached { limit }),
            ),
            _ => (rounds, Ok(())),
        };
        // Reversed rounds run last round first, so the rounds the limit
        // lets run are the last `undone`, and the reversal run last is that
        // of the earliest of them.
        let first = rounds - undone;
        if undone > 0 {
            let n = self.ring.len();
            let shift = self.mark_shifts[first..]
                .iter()
                .fold(0, |net, &s| (net + s) % n);
            self.ring.rewind(shift, undone as u64);
            self.last_rotation = Some(RotationIndex {
                shift: (n - self.mark_shifts[first]) % n,
                n,
            });
        }
        self.finish_undo(bufs);
        result
    }

    /// Executes a whole direction schedule — one synchronized round per
    /// schedule entry — through one reusable buffer set, without
    /// intermediate allocation.
    ///
    /// For each entry `k = 0, 1, …`, `fill(k, &mut dirs)` writes the round's
    /// per-agent directions into the cleared buffer `dirs` and returns
    /// `false` to end the schedule. After each round, `stop(observations)`
    /// inspects the agents' observations (this is where lockstep drivers
    /// fold in per-agent bookkeeping) and returns `true` to stop early.
    ///
    /// Returns the index of the entry at which `stop` fired, or `None` when
    /// the schedule ran to exhaustion. Typical use: one distinguisher set
    /// per round, stopping at the first observably nontrivial move. The
    /// schedule's last round cannot be reverted with [`Network::undo_last`];
    /// take a [`Network::mark`] before the schedule to undo it.
    ///
    /// # Errors
    ///
    /// Propagates [`Network::step_into`] errors; the buffers stay usable.
    pub fn run_schedule<F, S>(
        &mut self,
        bufs: &mut StepBuffers,
        mut fill: F,
        mut stop: S,
    ) -> Result<Option<u64>, ProtocolError>
    where
        F: FnMut(u64, &mut Vec<LocalDirection>) -> bool,
        S: FnMut(&[Observation]) -> bool,
    {
        let mut dirs = std::mem::take(&mut bufs.directions);
        let mut result = Ok(None);
        let mut entry = 0u64;
        loop {
            dirs.clear();
            if !fill(entry, &mut dirs) {
                break;
            }
            if let Err(e) = self.step_into(&dirs, bufs) {
                result = Err(e);
                break;
            }
            if stop(&bufs.round.observations) {
                result = Ok(Some(entry));
                break;
            }
            entry += 1;
        }
        bufs.directions = dirs;
        // A schedule is undone as a whole, with `mark`/`rewind`.
        bufs.forward = None;
        result
    }

    /// The sum (modulo the circumference) of all `dist()` observations the
    /// agent has made so far, i.e. the agent's displacement from its initial
    /// position measured in its own clockwise direction.
    ///
    /// This is information the agent could trivially maintain itself by
    /// summing its observations, so it is legitimate agent-local knowledge.
    /// It is derived from the ring offset instead
    /// ([`RingState::displacement_of_agent`]): every `dist` is the arc
    /// between the slots a round starts and ends in (Lemma 1), on both
    /// engines, so the sum is the arc from the agent's initial slot to its
    /// current one. An undo round therefore takes back exactly the undone
    /// rounds' observations.
    pub fn observed_cumulative_dist(&self, agent: usize) -> ring_sim::ArcLength {
        self.ring.displacement_of_agent(agent)
    }

    // ------------------------------------------------------------------
    // Ground truth (tests and experiment harness only).
    // ------------------------------------------------------------------

    /// Ground truth: the underlying configuration.
    pub fn ground_truth_config(&self) -> &RingConfig {
        self.ring.config()
    }

    /// Ground truth: the ring's rotation offset — agent `i` occupies slot
    /// `(i + offset) mod n`.
    pub fn ground_truth_offset(&self) -> usize {
        self.ring.offset()
    }

    /// Ground truth: the rotation index of the last executed round.
    pub fn ground_truth_last_rotation(&self) -> Option<RotationIndex> {
        self.last_rotation
    }

    /// Ground truth: the identifier assignment.
    pub fn ground_truth_ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// Ground truth: whether every agent is back at its initial position.
    pub fn ground_truth_at_initial_positions(&self) -> bool {
        self.ring.at_initial_positions()
    }
}

/// Rebuilds `out` with every agent's first collision in ticks.
fn collisions_into(observations: &[Observation], out: &mut Vec<u64>) {
    out.clear();
    out.extend(observations.iter().map(Observation::coll_ticks));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::RingConfig;

    fn network(_model: Model) -> (RingConfig, IdAssignment) {
        let config = RingConfig::builder(6)
            .random_positions(1)
            .random_chirality(2)
            .build()
            .unwrap();
        let ids = IdAssignment::consecutive(6);
        (config, ids)
    }

    #[test]
    fn idle_is_rejected_outside_the_lazy_model() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids.clone(), Model::Basic).unwrap();
        let mut dirs = vec![LocalDirection::Right; 6];
        dirs[3] = LocalDirection::Idle;
        let mut bufs = StepBuffers::new();
        assert!(matches!(
            net.step_into(&dirs, &mut bufs),
            Err(ProtocolError::IdleForbidden { agent: 3, .. })
        ));

        let mut lazy = Network::new(&config, ids, Model::Lazy).unwrap();
        assert!(lazy.step_into(&dirs, &mut bufs).is_ok());
    }

    #[test]
    fn collision_information_is_gated_by_the_model() {
        let (config, ids) = network(Model::Basic);
        let dirs: Vec<LocalDirection> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    LocalDirection::Right
                } else {
                    LocalDirection::Left
                }
            })
            .collect();

        // Every model, each on its own fresh buffers: only the perceptive
        // model sees collisions.
        for model in Model::ALL {
            let mut net = Network::new(&config, ids.clone(), model).unwrap();
            let mut bufs = StepBuffers::new();
            net.step_into(&dirs, &mut bufs).unwrap();
            assert_eq!(
                bufs.observations().iter().any(|o| o.coll.is_some()),
                model.observes_collisions(),
                "{model}"
            );
        }
    }

    /// A pair's collisions are gated like a round's, on the fused path and
    /// on the one-by-one path (here the event engine): a model that does
    /// not observe collisions reads [`NO_COLLISION`] for every agent in
    /// both rounds, the perceptive model reads real ones.
    #[test]
    fn pair_collisions_are_gated_by_the_model_on_both_paths() {
        let (config, ids) = network(Model::Basic);
        let dirs: Vec<LocalDirection> = (0..6)
            .map(|i| LocalDirection::from_bit(i % 3 == 0))
            .collect();
        for model in Model::ALL {
            for engine in [EngineKind::Analytic, EngineKind::Event] {
                let mut net = Network::new(&config, ids.clone(), model)
                    .unwrap()
                    .with_engine(engine);
                let mut bufs = PairBuffers::new();
                net.step_pair_into(&dirs, &mut bufs).unwrap();
                for (round, colls) in [("A", bufs.collisions_a()), ("B", bufs.collisions_b())] {
                    assert_eq!(colls.len(), 6, "{model} {engine:?} {round}");
                    assert_eq!(
                        colls.iter().all(|&c| c == NO_COLLISION),
                        !model.observes_collisions(),
                        "{model} {engine:?} {round}: {colls:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_counting_and_reversal() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let dirs = vec![LocalDirection::Right; 6];
        let mut bufs = StepBuffers::new();
        net.step_into(&dirs, &mut bufs).unwrap();
        net.undo_last(&mut bufs).unwrap();
        assert_eq!(net.rounds_used(), 2);
        assert_eq!(net.ring.rounds_executed(), 2);
        assert!(net.ground_truth_at_initial_positions());
        assert!(bufs.observations().is_empty());
    }

    /// An undo reports the reversal's rotation index, `(n − s) mod n` for a
    /// forward shift `s`, and the ring counts it as an executed round —
    /// exactly as when the reversal runs through the kernel.
    #[test]
    fn undo_reports_the_reversal_rotation_and_counts_the_round() {
        let (config, ids) = network(Model::Perceptive);
        let dirs: Vec<LocalDirection> = [0, 1, 0, 0, 1, 0]
            .iter()
            .map(|&b| LocalDirection::from_bit(b == 0))
            .collect();
        let reversed: Vec<LocalDirection> = dirs.iter().map(|d| d.opposite()).collect();
        let mut rewound = Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
        let mut kernel = Network::new(&config, ids, Model::Perceptive).unwrap();
        let mut bufs = StepBuffers::new();
        for round in 1..=3u64 {
            rewound.step_into(&dirs, &mut bufs).unwrap();
            let forward = rewound.ground_truth_last_rotation().unwrap();
            assert!(forward.shift != 0, "the pattern must rotate the ring");
            rewound.undo_last(&mut bufs).unwrap();
            kernel.step_into(&dirs, &mut bufs).unwrap();
            kernel.step_into(&reversed, &mut bufs).unwrap();

            let undo = rewound.ground_truth_last_rotation().unwrap();
            assert_eq!(undo.shift, (6 - forward.shift) % 6);
            assert_eq!(Some(undo), kernel.ground_truth_last_rotation());
            assert_eq!(rewound.ring.rounds_executed(), 2 * round);
            assert_eq!(
                rewound.ring.rounds_executed(),
                kernel.ring.rounds_executed()
            );
            assert_eq!(rewound.rounds_used(), kernel.rounds_used());
        }

        // A rewind reports the reversal of the first round since the mark,
        // the last round a kernel replay would run.
        let mark = rewound.mark();
        rewound.step_into(&dirs, &mut bufs).unwrap();
        let first = rewound.ground_truth_last_rotation().unwrap();
        rewound.step_into(&reversed, &mut bufs).unwrap();
        rewound.step_into(&reversed, &mut bufs).unwrap();
        rewound.rewind(mark, &mut bufs).unwrap();
        assert_eq!(
            rewound.ground_truth_last_rotation().unwrap().shift,
            (6 - first.shift) % 6
        );
        assert_eq!(rewound.ring.rounds_executed(), 12);
        assert!(rewound.ground_truth_at_initial_positions());
    }

    /// Undo refuses to revert anything but this network's latest forward
    /// round, through the buffers that round wrote.
    #[test]
    fn undo_refuses_every_round_but_the_last_forward_one() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let dirs = vec![LocalDirection::Right; 6];
        let (mut bufs, mut other) = (StepBuffers::new(), StepBuffers::new());
        let refused =
            |r: Result<(), ProtocolError>| matches!(r, Err(ProtocolError::NothingToUndo { .. }));

        assert!(refused(net.undo_last(&mut bufs)));
        net.step_into(&dirs, &mut bufs).unwrap();
        let after_first = net.ground_truth_offset();
        // Other buffers, then a round in between.
        assert!(refused(net.undo_last(&mut other)));
        net.step_into(&dirs, &mut other).unwrap();
        assert!(refused(net.undo_last(&mut bufs)));
        // A clone is another network.
        let mut clone = net.clone();
        assert!(refused(clone.undo_last(&mut other)));
        net.undo_last(&mut other).unwrap();
        assert!(refused(net.undo_last(&mut other)));
        assert_eq!(net.rounds_used(), 3);
        assert_eq!(net.ground_truth_offset(), after_first);

        // A used-up or replaced mark, and an undo inside a marked stretch,
        // refuse a rewind.
        let mark = net.mark();
        net.step_into(&dirs, &mut bufs).unwrap();
        net.rewind(mark, &mut bufs).unwrap();
        assert!(refused(net.rewind(mark, &mut bufs)));
        let old = net.mark();
        net.step_into(&dirs, &mut bufs).unwrap();
        let new = net.mark();
        assert!(refused(net.rewind(old, &mut bufs)));
        net.step_into(&dirs, &mut bufs).unwrap();
        net.undo_last(&mut bufs).unwrap();
        assert!(refused(net.rewind(new, &mut bufs)));
        assert_eq!(net.rounds_used(), 8);
    }

    /// One reused buffer set produces exactly what a fresh set per round
    /// (an allocating step) does.
    #[test]
    fn buffered_step_matches_allocating_step() {
        let (config, ids) = network(Model::Perceptive);
        let mut plain = Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
        let mut buffered = Network::new(&config, ids, Model::Perceptive).unwrap();
        let mut bufs = StepBuffers::new();
        for round in 0..5 {
            let dirs: Vec<LocalDirection> = (0..6)
                .map(|i| {
                    if (i + round) % 2 == 0 {
                        LocalDirection::Right
                    } else {
                        LocalDirection::Left
                    }
                })
                .collect();
            let mut fresh = StepBuffers::new();
            plain.step_into(&dirs, &mut fresh).unwrap();
            buffered.step_into(&dirs, &mut bufs).unwrap();
            assert_eq!(bufs.observations(), fresh.observations());
            assert_eq!(plain.ground_truth_offset(), buffered.ground_truth_offset());
            for agent in 0..6 {
                assert_eq!(
                    plain.observed_cumulative_dist(agent),
                    buffered.observed_cumulative_dist(agent)
                );
            }
        }
        assert_eq!(plain.rounds_used(), buffered.rounds_used());
    }

    #[test]
    fn buffered_step_gates_collisions_by_model() {
        let (config, ids) = network(Model::Basic);
        let dirs: Vec<LocalDirection> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    LocalDirection::Right
                } else {
                    LocalDirection::Left
                }
            })
            .collect();
        let mut basic = Network::new(&config, ids.clone(), Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        basic.step_into(&dirs, &mut bufs).unwrap();
        assert!(bufs.observations().iter().all(|o| o.coll.is_none()));

        let mut perceptive = Network::new(&config, ids, Model::Perceptive).unwrap();
        perceptive.step_into(&dirs, &mut bufs).unwrap();
        assert!(bufs.observations().iter().any(|o| o.coll.is_some()));
    }

    #[test]
    fn run_schedule_stops_early_and_counts_rounds() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        // A schedule of five all-right rounds that stops at entry 2.
        let mut inspected = 0u64;
        let hit = net
            .run_schedule(
                &mut bufs,
                |k, dirs| {
                    if k >= 5 {
                        return false;
                    }
                    dirs.extend(std::iter::repeat_n(LocalDirection::Right, 6));
                    true
                },
                |obs| {
                    assert_eq!(obs.len(), 6);
                    inspected += 1;
                    inspected == 3
                },
            )
            .unwrap();
        assert_eq!(hit, Some(2));
        assert_eq!(net.rounds_used(), 3);

        // Exhausting the schedule returns None and executes every entry.
        let hit = net
            .run_schedule(
                &mut bufs,
                |k, dirs| {
                    if k >= 4 {
                        return false;
                    }
                    dirs.extend(std::iter::repeat_n(LocalDirection::Right, 6));
                    true
                },
                |_| false,
            )
            .unwrap();
        assert_eq!(hit, None);
        assert_eq!(net.rounds_used(), 7);
    }

    #[test]
    fn run_schedule_propagates_model_violations() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        let err = net
            .run_schedule(
                &mut bufs,
                |_, dirs| {
                    dirs.extend(std::iter::repeat_n(LocalDirection::Idle, 6));
                    true
                },
                |_| false,
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::IdleForbidden { agent: 0, .. }));
    }

    #[test]
    fn faulted_steps_suppress_exactly_the_planned_agents() {
        use crate::fault::{FaultParams, FaultPlan};
        let (config, ids) = network(Model::Basic);
        // Full drop: every move is physically suppressed, so nobody moves —
        // even though the basic model forbids *choosing* to idle.
        let plan = FaultPlan::new(
            FaultParams {
                drop_per_mille: 1000,
                ..FaultParams::default()
            },
            6,
            11,
        );
        let mut net = Network::new(&config, ids.clone(), Model::Basic)
            .unwrap()
            .with_faults(plan);
        let mut bufs = StepBuffers::new();
        net.step_into(&[LocalDirection::Right; 6], &mut bufs)
            .unwrap();
        assert!(bufs.observations().iter().all(|o| o.dist.is_zero()));
        assert!(net.ground_truth_at_initial_positions());

        // The plan's per-round decisions and the executed suppression line
        // up: replay a partial-drop run against the plan's own verdicts.
        let plan = FaultPlan::new(
            FaultParams {
                drop_per_mille: 400,
                ..FaultParams::default()
            },
            6,
            13,
        );
        let reference = plan.clone();
        let mut net = Network::new(&config, ids, Model::Basic)
            .unwrap()
            .with_faults(plan);
        for round in 0..12u64 {
            net.step_into(&[LocalDirection::Right; 6], &mut bufs)
                .unwrap();
            // The executed objective directions expose exactly the plan's
            // suppressions: a dropped mover was forced idle, nobody else.
            for (agent, &objective) in bufs.round.objective_directions().iter().enumerate() {
                assert_eq!(
                    objective == ring_sim::ObjectiveDirection::Idle,
                    reference.suppressed(round, agent),
                    "round {round}, agent {agent}"
                );
            }
        }
        assert_eq!(net.rounds_used(), 12);
    }

    #[test]
    fn fault_free_plans_agree_across_engines() {
        use crate::fault::{FaultParams, FaultPlan};
        let (config, ids) = network(Model::Basic);
        // One network runs the analytic engine without any plan; the other
        // carries an empty fault plan on the event-driven reference
        // executor. The runs must agree round for round.
        let mut analytic = Network::new(&config, ids.clone(), Model::Basic).unwrap();
        let mut event = Network::new(&config, ids, Model::Basic)
            .unwrap()
            .with_faults(FaultPlan::new(FaultParams::default(), 6, 3))
            .with_engine(EngineKind::Event);
        assert!(!event.faults().unwrap().any_faults());
        let mut bufs_a = StepBuffers::new();
        let mut bufs_e = StepBuffers::new();
        for round in 0..8 {
            let dirs: Vec<LocalDirection> = (0..6)
                .map(|i| {
                    if (i + round) % 3 == 0 {
                        LocalDirection::Left
                    } else {
                        LocalDirection::Right
                    }
                })
                .collect();
            analytic.step_into(&dirs, &mut bufs_a).unwrap();
            event.step_into(&dirs, &mut bufs_e).unwrap();
            assert_eq!(bufs_a.observations(), bufs_e.observations());
            assert_eq!(analytic.ground_truth_offset(), event.ground_truth_offset());
        }
    }

    /// Faults promote the event engine only for a model that observes the
    /// collisions it computes; collision-blind models keep the analytic one.
    #[test]
    fn faults_pick_the_engine_from_the_model() {
        use crate::fault::{FaultParams, FaultPlan};
        let (config, ids) = network(Model::Basic);
        for model in Model::ALL {
            let net = Network::new(&config, ids.clone(), model)
                .unwrap()
                .with_faults(FaultPlan::new(FaultParams::default(), 6, 3));
            let expected = if model.observes_collisions() {
                EngineKind::Event
            } else {
                EngineKind::Analytic
            };
            assert_eq!(net.engine, expected, "{model}");
        }
    }

    #[test]
    fn round_limit_turns_into_a_timeout_error() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic)
            .unwrap()
            .with_round_limit(2);
        let dirs = vec![LocalDirection::Right; 6];
        let mut bufs = StepBuffers::new();
        net.step_into(&dirs, &mut bufs).unwrap();
        net.step_into(&dirs, &mut bufs).unwrap();
        assert!(matches!(
            net.step_into(&dirs, &mut bufs),
            Err(ProtocolError::RoundLimitReached { limit: 2 })
        ));
        // The limit is checked before execution: the round count stays put.
        assert_eq!(net.rounds_used(), 2);
    }

    #[test]
    fn id_assignment_must_match_ring_size() {
        let (config, _) = network(Model::Basic);
        let short = IdAssignment::consecutive(4);
        assert!(matches!(
            Network::new(&config, short, Model::Basic),
            Err(ProtocolError::LengthMismatch { .. })
        ));
    }
}
