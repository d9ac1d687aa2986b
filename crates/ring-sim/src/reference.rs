//! Reference implementation of the analytic round engine.
//!
//! This is the pre-sweep engine, kept verbatim: it builds sorted slot lists
//! of the clockwise and anticlockwise movers and finds every agent's
//! oncoming partner with one `binary_search`, taking a `% n` per agent for
//! the new slots. It serves as (a) the baseline of the
//! `analytic_first_collisions` pair in `bench_combinat` and (b) the exact
//! oracle the linear kernel of [`crate::analytic`] is property-tested
//! against. It is **not** part of the performance surface — never call it
//! from protocol code.

use crate::config::RingConfig;
use crate::direction::ObjectiveDirection;
use crate::geometry::ArcLength;
use crate::rotation::{rotation_index, RotationIndex};

/// Result of analytically executing one round.
#[derive(Clone, Debug)]
pub struct AnalyticRound {
    /// Rotation index of the round.
    pub rotation: RotationIndex,
    /// For each *agent*, the objective clockwise distance between its start
    /// and end position (zero iff the rotation index is zero).
    pub cw_displacement: Vec<ArcLength>,
    /// For each *agent*, the distance travelled until its first collision,
    /// or `None` if the agent never collides (or the round contains idle
    /// agents, for which the analytic engine does not model collisions).
    pub first_collision: Vec<Option<ArcLength>>,
    /// The new slot of each agent after the round.
    pub new_slot_of_agent: Vec<usize>,
}

/// Reusable scratch space for [`analytic_round_reference_into`]: the
/// output vectors of [`AnalyticRound`] plus the sorted slot lists.
#[derive(Clone, Debug, Default)]
pub struct ReferenceScratch {
    /// Per-agent objective clockwise displacement (output).
    pub cw_displacement: Vec<ArcLength>,
    /// Per-agent first-collision distance (output).
    pub first_collision: Vec<Option<ArcLength>>,
    /// Per-agent new slot (output).
    pub new_slot_of_agent: Vec<usize>,
    dir_at_slot: Vec<ObjectiveDirection>,
    cw_slots: Vec<usize>,
    acw_slots: Vec<usize>,
}

impl ReferenceScratch {
    /// Creates empty scratch space (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.cw_displacement.clear();
        self.cw_displacement.resize(n, ArcLength::ZERO);
        self.first_collision.clear();
        self.first_collision.resize(n, None);
        self.new_slot_of_agent.clear();
        self.new_slot_of_agent.resize(n, 0);
    }
}

/// Executes one round with the reference engine, allocating its outputs.
///
/// # Panics
///
/// Panics if the slices have inconsistent lengths.
pub fn analytic_round_reference(
    config: &RingConfig,
    slot_of_agent: &[usize],
    directions: &[ObjectiveDirection],
) -> AnalyticRound {
    let mut scratch = ReferenceScratch::new();
    let rotation = analytic_round_reference_into(config, slot_of_agent, directions, &mut scratch);
    AnalyticRound {
        rotation,
        cw_displacement: scratch.cw_displacement,
        first_collision: scratch.first_collision,
        new_slot_of_agent: scratch.new_slot_of_agent,
    }
}

/// Executes one round with the reference engine into caller-owned scratch
/// space.
///
/// # Panics
///
/// Panics if the slices have inconsistent lengths.
pub fn analytic_round_reference_into(
    config: &RingConfig,
    slot_of_agent: &[usize],
    directions: &[ObjectiveDirection],
    scratch: &mut ReferenceScratch,
) -> RotationIndex {
    let n = config.len();
    assert_eq!(slot_of_agent.len(), n);
    assert_eq!(directions.len(), n);
    scratch.reset(n);

    let rotation = rotation_index(directions);
    let r = rotation.shift;

    for ((&slot, slot_out), disp_out) in slot_of_agent
        .iter()
        .zip(&mut scratch.new_slot_of_agent)
        .zip(&mut scratch.cw_displacement)
    {
        let new_slot = (slot + r) % n;
        *slot_out = new_slot;
        *disp_out = config.cw_arc(slot, new_slot);
    }

    if directions.iter().all(|d| d.is_moving()) {
        first_collisions(config, slot_of_agent, directions, scratch);
    }
    rotation
}

/// Computes every agent's first-collision distance for an all-moving
/// round (Proposition 4: an agent's first collision happens after it has
/// travelled half the arc separating it from the nearest agent ahead of
/// it — in its direction of travel — that moves in the opposite
/// direction). Writes into `scratch.first_collision`.
fn first_collisions(
    config: &RingConfig,
    slot_of_agent: &[usize],
    directions: &[ObjectiveDirection],
    scratch: &mut ReferenceScratch,
) {
    let n = config.len();

    // Direction of the agent sitting at each slot.
    scratch.dir_at_slot.clear();
    scratch.dir_at_slot.resize(n, ObjectiveDirection::Idle);
    for agent in 0..n {
        scratch.dir_at_slot[slot_of_agent[agent]] = directions[agent];
    }

    // Sorted slot indices of clockwise and anticlockwise movers.
    scratch.cw_slots.clear();
    scratch.acw_slots.clear();
    for (s, dir) in scratch.dir_at_slot.iter().enumerate() {
        match dir {
            ObjectiveDirection::Clockwise => scratch.cw_slots.push(s),
            ObjectiveDirection::Anticlockwise => scratch.acw_slots.push(s),
            ObjectiveDirection::Idle => {}
        }
    }

    if scratch.cw_slots.is_empty() || scratch.acw_slots.is_empty() {
        // Everybody moves the same way: no collisions at all.
        return;
    }

    for agent in 0..n {
        let slot = slot_of_agent[agent];
        let coll = match directions[agent] {
            ObjectiveDirection::Clockwise => {
                // Nearest anticlockwise mover strictly ahead (clockwise).
                let target = next_strictly_after(&scratch.acw_slots, slot, n);
                config.cw_arc(slot, target).half()
            }
            ObjectiveDirection::Anticlockwise => {
                // Nearest clockwise mover strictly behind (anticlockwise).
                let target = prev_strictly_before(&scratch.cw_slots, slot, n);
                config.cw_arc(target, slot).half()
            }
            ObjectiveDirection::Idle => unreachable!("all-moving round"),
        };
        scratch.first_collision[agent] = Some(coll);
    }
}

/// Smallest element of the (sorted, nonempty) cyclic set `sorted` that is
/// strictly after `slot` in clockwise order.
fn next_strictly_after(sorted: &[usize], slot: usize, _n: usize) -> usize {
    match sorted.binary_search(&(slot + 1)) {
        Ok(i) => sorted[i],
        Err(i) => {
            if i < sorted.len() {
                sorted[i]
            } else {
                sorted[0]
            }
        }
    }
}

/// Largest element of the (sorted, nonempty) cyclic set `sorted` that is
/// strictly before `slot` in clockwise order.
fn prev_strictly_before(sorted: &[usize], slot: usize, _n: usize) -> usize {
    match sorted.binary_search(&slot) {
        Ok(i) | Err(i) => {
            if i > 0 {
                sorted[i - 1]
            } else {
                *sorted.last().expect("nonempty")
            }
        }
    }
}
