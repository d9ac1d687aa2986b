//! Event-driven reference simulator.
//!
//! Simulates every collision of a round explicitly, in `f64` arithmetic.
//! Agents are points on the unit circle moving at speed 1 (or 0 when idle);
//! when two agents meet they exchange velocities, which covers all three
//! interaction cases of the model (bounce between two movers, motion
//! transfer onto an idle agent).
//!
//! The event engine is slower (`O(n)` work per event, up to `O(n²)` events
//! per round) and approximate (`f64`), so the protocol executor uses the
//! exact [`crate::analytic::AnalyticEngine`]; the event engine serves as
//! the ground truth that the analytic shortcuts are validated against, as
//! the *reference executor for faulty perceptive runs* (whose idle agents
//! collide, which the analytic engine does not model), and as a tool for
//! visualising full trajectories. Multi-round drivers reuse
//! one [`EventScratch`] across rounds via [`EventEngine::simulate_into`]
//! instead of paying the vector allocations of [`EventEngine::simulate`]
//! per round.
//!
//! Like the analytic engine it takes the ring's state as one rotation
//! offset (agent `a` sits in slot `(a + offset) mod n`, see
//! [`crate::state`]). Agents never overtake, so the agent at ring position
//! `k` stays the same all round: the engine works in ring order and rotates
//! its per-agent outputs back to agent order once, at the end.

use crate::config::RingConfig;
use crate::direction::ObjectiveDirection;
use crate::rotation::extend_rotated;
use serde::Serialize;

/// A single collision between two agents.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct CollisionEvent {
    /// Time within the round, in `[0, 1)`.
    pub time: f64,
    /// Position on the circle (fraction in `[0, 1)`).
    pub position: f64,
    /// The two agents involved (agent indices, not slots).
    pub agents: (usize, usize),
}

/// Full trajectory information for one simulated round.
#[derive(Clone, Debug, Serialize)]
pub struct Trajectory {
    /// Final position (fraction of the circle) of each agent.
    pub final_positions: Vec<f64>,
    /// Clockwise displacement (fraction) of each agent over the round.
    pub cw_displacement: Vec<f64>,
    /// Path distance travelled by each agent until its first collision,
    /// `None` if the agent was never involved in a collision.
    pub first_collision: Vec<Option<f64>>,
    /// Every collision of the round, in chronological order.
    pub collisions: Vec<CollisionEvent>,
}

/// The event-driven engine.
#[derive(Clone, Copy, Debug)]
pub struct EventEngine {
    /// Safety bound on the number of processed events per round.
    pub max_events: usize,
}

impl Default for EventEngine {
    fn default() -> Self {
        EventEngine {
            max_events: 1 << 22,
        }
    }
}

/// Reusable scratch arena for [`EventEngine::simulate_into`].
///
/// Multi-round drivers hold one `EventScratch` and reuse it — after the
/// vectors reach the ring size, a round performs no heap allocation beyond
/// growth of the collision log.
#[derive(Clone, Debug, Default)]
pub struct EventScratch {
    /// Final position (fraction of the circle) of each agent, valid after
    /// a [`EventEngine::simulate_into`] call.
    pub final_positions: Vec<f64>,
    /// Clockwise displacement (fraction) of each agent over the round.
    pub cw_displacement: Vec<f64>,
    /// Path distance travelled by each agent until its first collision
    /// (`None` if never involved in one).
    pub first_collision: Vec<Option<f64>>,
    /// Every collision of the round, in chronological order.
    pub collisions: Vec<CollisionEvent>,
    pos: Vec<f64>,
    vel: Vec<f64>,
    travelled: Vec<f64>,
}

impl EventScratch {
    /// Creates an empty arena (vectors grow to the ring size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the round's outputs out of the scratch as a [`Trajectory`],
    /// leaving empty output vectors behind.
    pub fn take_trajectory(&mut self) -> Trajectory {
        Trajectory {
            final_positions: std::mem::take(&mut self.final_positions),
            cw_displacement: std::mem::take(&mut self.cw_displacement),
            first_collision: std::mem::take(&mut self.first_collision),
            collisions: std::mem::take(&mut self.collisions),
        }
    }
}

/// Clears `vec` and refills it to `n` elements from `f` without
/// reallocating once capacity has been reached.
fn refill<T>(vec: &mut Vec<T>, n: usize, f: impl FnMut(usize) -> T) {
    vec.clear();
    vec.extend((0..n).map(f));
}

impl EventEngine {
    /// Creates an engine with the default event bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates one full round.
    ///
    /// * `config` — ground-truth configuration.
    /// * `offset` — the ring's rotation offset: agent `a` occupies slot
    ///   `(a + offset) mod n`.
    /// * `directions` — objective direction of each agent.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= n`, if `directions` does not hold one entry per
    /// agent, or if the event bound is exceeded (which would indicate a bug,
    /// as a round has at most `O(n²)` collisions).
    pub fn simulate(
        &self,
        config: &RingConfig,
        offset: usize,
        directions: &[ObjectiveDirection],
    ) -> Trajectory {
        let mut scratch = EventScratch::new();
        self.simulate_into(config, offset, directions, &mut scratch);
        scratch.take_trajectory()
    }

    /// Simulates one full round into a caller-owned [`EventScratch`] — the
    /// buffer-reusing variant of [`EventEngine::simulate`]. Outputs land in
    /// the scratch's public fields.
    ///
    /// # Panics
    ///
    /// Same as [`EventEngine::simulate`].
    pub fn simulate_into(
        &self,
        config: &RingConfig,
        offset: usize,
        directions: &[ObjectiveDirection],
        scratch: &mut EventScratch,
    ) {
        let n = config.len();
        assert!(offset < n, "offset {offset} out of range for a ring of {n}");
        assert_eq!(directions.len(), n);

        // State indexed by ring position k: slot k at the start of the
        // round, agent `(k + n - offset) mod n` throughout. Positions are
        // lifted off the circle (`pos[0] <= … <= pos[n - 1] <= pos[0] + 1`),
        // so a gap is a plain difference, clamped at 0 against rounding.
        // Taken mod 1, a gap of 0 could also mean a lap: at n = 2 two agents
        // that just met would meet again on their other side at once,
        // forever.
        let agent = |k: usize| (k + n - offset) % n;
        refill(&mut scratch.pos, n, |k| config.position(k).as_fraction());
        scratch.vel.clear();
        extend_rotated(&mut scratch.vel, directions, n - offset, |d| {
            f64::from(d.velocity())
        });
        refill(&mut scratch.first_collision, n, |_| None);
        refill(&mut scratch.travelled, n, |_| 0.0);
        scratch.collisions.clear();
        let EventScratch {
            ref mut pos,
            ref mut vel,
            ref mut first_collision,
            ref mut travelled,
            ref mut collisions,
            ..
        } = *scratch;

        let mut t = 0.0f64;
        let mut events = 0usize;
        loop {
            // Find the earliest upcoming collision among adjacent pairs.
            let mut best: Option<(f64, usize)> = None;
            for k in 0..n {
                let j = (k + 1) % n;
                let closing = vel[k] - vel[j];
                if closing <= 0.0 {
                    continue;
                }
                let ahead = if j == 0 { pos[0] + 1.0 } else { pos[j] };
                let dt = (ahead - pos[k]).max(0.0) / closing;
                if t + dt <= 1.0 + 1e-12 {
                    match best {
                        Some((bt, _)) if bt <= dt => {}
                        _ => best = Some((dt, k)),
                    }
                }
            }

            let Some((dt, k)) = best else { break };
            let j = (k + 1) % n;

            // Advance everyone to the collision time.
            for i in 0..n {
                pos[i] += vel[i] * dt;
                travelled[i] += vel[i].abs() * dt;
            }
            t += dt;

            // Record the collision for both participants.
            collisions.push(CollisionEvent {
                time: t,
                position: pos[k].rem_euclid(1.0),
                agents: (agent(k), agent(j)),
            });
            for p in [k, j] {
                if first_collision[p].is_none() {
                    first_collision[p] = Some(travelled[p]);
                }
            }

            // Exchange velocities (covers bounce and motion transfer).
            vel.swap(k, j);

            events += 1;
            assert!(
                events <= self.max_events,
                "event bound exceeded: {events} events"
            );
        }

        // Advance to the end of the round.
        let dt = 1.0 - t;
        if dt > 0.0 {
            for i in 0..n {
                pos[i] += vel[i] * dt;
                travelled[i] += vel[i].abs() * dt;
            }
        }

        // Back to agent order: agent `a` reads ring position
        // `(a + offset) mod n`.
        refill(&mut scratch.final_positions, n, |k| {
            scratch.pos[k].rem_euclid(1.0)
        });
        refill(&mut scratch.cw_displacement, n, |k| {
            (scratch.pos[k] - config.position(k).as_fraction()).rem_euclid(1.0)
        });
        for out in [&mut scratch.final_positions, &mut scratch.cw_displacement] {
            out.rotate_left(offset);
        }
        scratch.first_collision.rotate_left(offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{AnalyticEngine, AnalyticScratch};
    use crate::config::RingConfig;
    use crate::geometry::Point;
    use ObjectiveDirection::{Anticlockwise as A, Clockwise as C, Idle as I};

    fn config_with_positions(ticks: &[u64]) -> RingConfig {
        RingConfig::builder(ticks.len())
            .explicit_positions(ticks.iter().copied().map(Point::from_ticks))
            .build()
            .unwrap()
    }

    const EPS: f64 = 1e-9;

    #[test]
    fn all_clockwise_round_returns_everyone_to_start() {
        let config = RingConfig::builder(6).random_positions(3).build().unwrap();
        let traj = EventEngine::new().simulate(&config, 0, &[C; 6]);
        for agent in 0..6 {
            assert!(traj.cw_displacement[agent] < EPS || traj.cw_displacement[agent] > 1.0 - EPS);
            assert!(traj.first_collision[agent].is_none());
        }
        assert!(traj.collisions.is_empty());
    }

    #[test]
    fn two_approaching_agents_collide_at_midpoint_distance() {
        // Positions 0.0 and 0.25 (in ticks); 0 moves clockwise, 1 anticlockwise.
        let quarter = crate::geometry::CIRCUMFERENCE / 4;
        let config =
            config_with_positions(&[0, quarter, quarter * 2, quarter * 2 + 10, quarter * 3]);
        let dirs = [C, A, C, C, C];
        let traj = EventEngine::new().simulate(&config, 0, &dirs);
        // Agents 0 and 1 approach over a gap of 1/4: first collision after 1/8.
        assert!((traj.first_collision[0].unwrap() - 0.125).abs() < EPS);
        assert!((traj.first_collision[1].unwrap() - 0.125).abs() < EPS);
    }

    #[test]
    fn event_engine_matches_analytic_engine_on_mixed_round() {
        let config = RingConfig::builder(9).random_positions(17).build().unwrap();
        let dirs = [C, A, C, A, A, C, C, A, C];
        let mut analytic = AnalyticScratch::new();
        AnalyticEngine::new().execute_into(&config, 0, &dirs, &mut analytic);
        let traj = EventEngine::new().simulate(&config, 0, &dirs);
        for agent in 0..9 {
            let expected = analytic.cw_displacement[agent].as_fraction();
            let got = traj.cw_displacement[agent];
            let diff = (expected - got)
                .abs()
                .min((expected - got).abs() - 1.0)
                .abs();
            assert!(
                (expected - got).abs() < 1e-6 || (1.0 - (expected - got).abs()) < 1e-6,
                "agent {agent}: expected {expected}, got {got} (diff {diff})"
            );
            let expected_coll = analytic.first_collision[agent].unwrap().as_fraction();
            let got_coll = traj.first_collision[agent].unwrap();
            assert!(
                (expected_coll - got_coll).abs() < 1e-6,
                "agent {agent}: first collision expected {expected_coll}, got {got_coll}"
            );
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_simulation_round_for_round() {
        let config = RingConfig::builder(11)
            .random_positions(23)
            .build()
            .unwrap();
        let mut scratch = EventScratch::new();
        for round in 0..8u64 {
            let dirs: Vec<ObjectiveDirection> = (0..11)
                .map(|i| {
                    if (i as u64 + round).is_multiple_of(3) {
                        A
                    } else {
                        C
                    }
                })
                .collect();
            let fresh = EventEngine::new().simulate(&config, 0, &dirs);
            EventEngine::new().simulate_into(&config, 0, &dirs, &mut scratch);
            assert_eq!(scratch.final_positions, fresh.final_positions);
            assert_eq!(scratch.cw_displacement, fresh.cw_displacement);
            assert_eq!(scratch.first_collision, fresh.first_collision);
            assert_eq!(scratch.collisions, fresh.collisions);
        }
    }

    #[test]
    fn idle_agents_transfer_motion() {
        // One clockwise mover, everyone else idle: rotation index 1, and the
        // mover's first collision is with its clockwise neighbour at the full
        // gap distance (relative speed 1).
        let config = config_with_positions(&[0, 1000, 3000, 7000, 15000]);
        let dirs = [C, I, I, I, I];
        let traj = EventEngine::new().simulate(&config, 0, &dirs);
        let gap01 = config.gap(0).as_fraction();
        assert!((traj.first_collision[0].unwrap() - gap01).abs() < EPS);
        // The idle neighbour is hit without having moved.
        assert!(traj.first_collision[1].unwrap().abs() < EPS);
        // Rotation index 1: every agent ends at its clockwise neighbour's slot.
        let mut analytic = AnalyticScratch::new();
        let rotation = AnalyticEngine::new().execute_into(&config, 0, &dirs, &mut analytic);
        assert_eq!(rotation.shift, 1);
        for agent in 0..5 {
            let expected = analytic.cw_displacement[agent].as_fraction();
            let got = traj.cw_displacement[agent];
            assert!(
                (expected - got).abs() < 1e-6 || (1.0 - (expected - got).abs()) < 1e-6,
                "agent {agent}: expected {expected}, got {got}"
            );
        }
    }

    /// Two antipodal agents approaching each other are each other's
    /// neighbour on both sides: they meet at the quarter point, bounce,
    /// meet again a half lap later at the three-quarter point, and end the
    /// round back where they started.
    #[test]
    fn two_agents_meet_on_both_sides_of_the_ring() {
        let half = crate::geometry::CIRCUMFERENCE / 2;
        let config = RingConfig::builder(2)
            .explicit_positions([0, half].map(Point::from_ticks))
            .build_any_size()
            .unwrap();
        let traj = EventEngine::new().simulate(&config, 0, &[C, A]);
        let met: Vec<(f64, f64)> = traj
            .collisions
            .iter()
            .map(|c| (c.time, c.position))
            .collect();
        assert_eq!(met, vec![(0.25, 0.25), (0.75, 0.75)]);
        assert_eq!(traj.first_collision, vec![Some(0.25), Some(0.25)]);
        assert_eq!(traj.final_positions, vec![0.0, 0.5]);
    }

    /// A rotated state only relabels agents: at offset `o`, agent `a` gets
    /// exactly what the agent in slot `(a + o) mod n` gets at offset 0,
    /// and every collision names the same agents relabelled.
    #[test]
    fn offset_relabels_agents_only() {
        let n = 9;
        let config = RingConfig::builder(n).random_positions(31).build().unwrap();
        let by_slot = [C, A, A, C, C, A, C, A, C];
        let at_zero = EventEngine::new().simulate(&config, 0, &by_slot);
        for offset in 1..n {
            let dirs: Vec<ObjectiveDirection> = (0..n).map(|a| by_slot[(a + offset) % n]).collect();
            let traj = EventEngine::new().simulate(&config, offset, &dirs);
            for a in 0..n {
                let slot = (a + offset) % n;
                assert_eq!(traj.final_positions[a], at_zero.final_positions[slot]);
                assert_eq!(traj.cw_displacement[a], at_zero.cw_displacement[slot]);
                assert_eq!(traj.first_collision[a], at_zero.first_collision[slot]);
            }
            let relabel = |slot: usize| (slot + n - offset) % n;
            assert_eq!(traj.collisions.len(), at_zero.collisions.len());
            for (c, z) in traj.collisions.iter().zip(&at_zero.collisions) {
                assert_eq!((c.time, c.position), (z.time, z.position));
                assert_eq!(c.agents, (relabel(z.agents.0), relabel(z.agents.1)));
            }
        }
    }
}
