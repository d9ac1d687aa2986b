//! Location discovery (the paper's central problem).
//!
//! Each agent must determine the **initial** position of every other agent
//! relative to its own initial position. The paper's feasibility/complexity
//! landscape (Lemmas 5, 6, 16 and Theorem 42):
//!
//! | setting | rounds | route |
//! |---------|--------|-------|
//! | basic model, even `n` | impossible (Lemma 5) | — |
//! | basic model, odd `n`  | `n + O(log N)` | leader + rotation-2 sweep |
//! | lazy model, any `n`   | `n + …` (`O(log N)` for odd `n`, `Θ(n log(N/n)/log n)` for even `n`) | leader + rotation-1 sweep |
//! | perceptive model, even `n` | `n/2 + O(√n log² N)` | `RingDist` + `Distances` |
//!
//! A subtlety shared by every route: the coordination phase (leader
//! election, direction agreement) physically rotates the ring before the
//! measurement phase begins, so what the measurement phase determines is the
//! arrangement of the agents' *current* positions. Because every round
//! shifts all agents by the same number of positions and the occupied
//! point-set never changes, each agent can convert back to initial
//! positions using only its own accumulated `dist()` observations; this is
//! what [`AgentView::from_measurement`] does.

pub mod basic_odd;
pub mod lazy;

use crate::error::ProtocolError;
use crate::exec::Network;
use ring_sim::{ArcLength, Frame, LocalDirection, Model, Parity, CIRCUMFERENCE};

/// Which route produced a location-discovery result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocationMethod {
    /// Lazy-model rotation-1 sweep (Lemma 16).
    Lazy,
    /// Basic-model odd-`n` rotation-2 sweep (Lemma 16).
    BasicOdd,
    /// Perceptive-model `Convolution`/`Pivot` schedule (Algorithm 6).
    PerceptiveConvolution,
}

/// One agent's discovered map of the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgentView {
    relative: Vec<ArcLength>,
}

impl AgentView {
    /// Builds a view from measurement-phase data.
    ///
    /// * `gaps_at_measure_start[t]` — the clockwise (in the agent's
    ///   *logical* frame) gap between the agents `t` and `t + 1` hops
    ///   logically clockwise from this agent, measured between the positions
    ///   they occupied when the measurement phase started;
    /// * `delta_start` — this agent's logical-clockwise displacement from
    ///   its initial position to its measurement-start position (the sum of
    ///   its `dist()` observations up to that point).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Internal`] if `delta_start` does not
    /// correspond to a whole number of positions, which would indicate
    /// corrupted observations.
    pub fn from_measurement(
        gaps_at_measure_start: &[ArcLength],
        delta_start: ArcLength,
    ) -> Result<Self, ProtocolError> {
        let n = gaps_at_measure_start.len();
        let shift = find_shift(gaps_at_measure_start, delta_start).ok_or_else(|| {
            ProtocolError::Internal {
                protocol: "location-discovery",
                reason: "accumulated displacement does not align with any position".into(),
            }
        })?;
        // relative[j] = Σ_{t=0}^{j-1} gaps[(t − shift) mod n]: prefix sums
        // of the gaps rotated right by `shift`.
        let (head, tail) = gaps_at_measure_start.split_at(n - shift);
        let mut relative = Vec::with_capacity(n);
        let mut acc = 0u64;
        relative.push(ArcLength::ZERO);
        for gap in tail.iter().chain(head).take(n - 1) {
            acc += gap.ticks();
            relative.push(ArcLength::from_ticks(acc));
        }
        Ok(AgentView { relative })
    }

    /// Number of agents on the ring according to this view.
    pub fn len(&self) -> usize {
        self.relative.len()
    }

    /// Whether the view is empty (never true for valid rings).
    pub fn is_empty(&self) -> bool {
        self.relative.is_empty()
    }

    /// `relative_positions()[j]` is the clockwise arc — in the agent's
    /// logical frame — from this agent's initial position to the initial
    /// position of the agent `j` hops logically clockwise from it
    /// (`relative_positions()[0] == 0`).
    pub fn relative_positions(&self) -> &[ArcLength] {
        &self.relative
    }
}

/// Finds the number of whole positions `C` such that walking `C` gaps
/// anticlockwise from relative index 0 covers exactly `delta`.
fn find_shift(gaps: &[ArcLength], delta: ArcLength) -> Option<usize> {
    let n = gaps.len();
    let mut acc = 0u64;
    if delta.is_zero() {
        return Some(0);
    }
    // Walking anticlockwise crosses the gaps from the last one down.
    for (c, gap) in (1..).zip(gaps.iter().rev()) {
        acc += gap.ticks();
        if acc == delta.ticks() {
            return Some(c % n);
        }
        if acc > delta.ticks() {
            return None;
        }
    }
    None
}

/// The result of a location-discovery protocol.
#[derive(Clone, Debug)]
pub struct LocationDiscovery {
    views: Vec<AgentView>,
    frames: Vec<Frame>,
    rounds: u64,
    method: LocationMethod,
}

impl LocationDiscovery {
    pub(crate) fn new(
        views: Vec<AgentView>,
        frames: Vec<Frame>,
        rounds: u64,
        method: LocationMethod,
    ) -> Self {
        LocationDiscovery {
            views,
            frames,
            rounds,
            method,
        }
    }

    /// The per-agent views.
    pub fn views(&self) -> &[AgentView] {
        &self.views
    }

    /// The logical frames the views are expressed in (one per agent; all
    /// coherent after the coordination phase).
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The view of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn view(&self, agent: usize) -> &AgentView {
        &self.views[agent]
    }

    /// Rounds consumed, including all prerequisite coordination phases.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Which route was used.
    pub fn method(&self) -> LocationMethod {
        self.method
    }
}

/// Solves location discovery with the route appropriate for the model and
/// parity (the "location discovery" column of Table I).
///
/// # Errors
///
/// Returns [`ProtocolError::Unsolvable`] for the basic model with even `n`
/// (Lemma 5) and propagates sub-protocol errors otherwise.
pub fn discover_locations(net: &mut Network<'_>) -> Result<LocationDiscovery, ProtocolError> {
    match (net.model(), net.parity()) {
        (Model::Basic, Parity::Even) => Err(ProtocolError::Unsolvable {
            reason: "location discovery is impossible in the basic model with even n (Lemma 5)",
        }),
        (Model::Basic, Parity::Odd) => basic_odd::discover_locations_basic_odd(net),
        (Model::Lazy, _) => lazy::discover_locations_lazy(net),
        (Model::Perceptive, Parity::Even) => {
            crate::perceptive::distances::discover_locations_perceptive(net)
        }
        // The conference version sketches an odd-n adaptation of the
        // perceptive schedule; we fall back to the (perfectly valid, n+o(n))
        // basic-model route, which Table I also uses for odd n.
        (Model::Perceptive, Parity::Odd) => basic_odd::discover_locations_basic_odd(net),
    }
}

/// Ground-truth verification of a location-discovery result: every agent's
/// reported map must match the hidden initial configuration, interpreted in
/// that agent's logical frame.
pub fn verify_location_discovery(net: &Network<'_>, discovery: &LocationDiscovery) -> bool {
    let config = net.ground_truth_config();
    let n = net.len();
    let frames = discovery.frames();
    if frames.len() != n {
        return false;
    }
    (0..n).all(|agent| {
        let view = discovery.view(agent);
        if view.len() != n {
            return false;
        }
        let logical_cw_is_objective_cw = frames[agent]
            .to_physical(LocalDirection::Right)
            .to_objective(config.chirality(agent))
            == ring_sim::ObjectiveDirection::Clockwise;
        (0..n).all(|j| {
            let target = if logical_cw_is_objective_cw {
                (agent + j) % n
            } else {
                (agent + n - j) % n
            };
            let expected = if logical_cw_is_objective_cw {
                config
                    .position(agent)
                    .cw_distance_to(config.position(target))
            } else {
                config
                    .position(agent)
                    .acw_distance_to(config.position(target))
            };
            view.relative_positions()[j] == expected
        })
    })
}

/// Converts an agent's cumulative own-frame displacement into its logical
/// frame (helper shared by the location-discovery routes).
pub(crate) fn cumulative_dist_logical(
    net: &Network<'_>,
    frames: &[Frame],
    agent: usize,
) -> ArcLength {
    let physical = net.observed_cumulative_dist(agent);
    if frames[agent].is_flipped() && !physical.is_zero() {
        ArcLength::from_ticks(CIRCUMFERENCE - physical.ticks())
    } else {
        physical
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arcs(ticks: &[u64]) -> Vec<ArcLength> {
        ticks.iter().copied().map(ArcLength::from_ticks).collect()
    }

    #[test]
    fn view_without_displacement_is_a_prefix_sum() {
        let gaps = arcs(&[10, 20, 30, CIRCUMFERENCE - 60]);
        let view = AgentView::from_measurement(&gaps, ArcLength::ZERO).unwrap();
        assert_eq!(
            view.relative_positions()
                .iter()
                .map(|a| a.ticks())
                .collect::<Vec<_>>(),
            vec![0, 10, 30, 60]
        );
    }

    #[test]
    fn displacement_correction_rotates_the_attribution() {
        // The agent has drifted forward (clockwise) past one position of
        // length 40 = the last gap, so its initial position is one slot back.
        let gaps = arcs(&[10, 20, 30, CIRCUMFERENCE - 60]);
        let delta = ArcLength::from_ticks(CIRCUMFERENCE - 60);
        let view = AgentView::from_measurement(&gaps, delta).unwrap();
        // From the initial position, the gaps in order are the measurement
        // gaps rotated by one: [last, 10, 20, 30].
        assert_eq!(
            view.relative_positions()
                .iter()
                .map(|a| a.ticks())
                .collect::<Vec<_>>(),
            vec![
                0,
                CIRCUMFERENCE - 60,
                CIRCUMFERENCE - 50,
                CIRCUMFERENCE - 30
            ]
        );
    }

    #[test]
    fn misaligned_displacement_is_rejected() {
        let gaps = arcs(&[10, 20, 30, CIRCUMFERENCE - 60]);
        let err = AgentView::from_measurement(&gaps, ArcLength::from_ticks(5)).unwrap_err();
        assert!(matches!(err, ProtocolError::Internal { .. }));
    }

    #[test]
    fn find_shift_covers_all_positions() {
        let gaps = arcs(&[100, 200, 300, CIRCUMFERENCE - 600]);
        assert_eq!(find_shift(&gaps, ArcLength::ZERO), Some(0));
        assert_eq!(
            find_shift(&gaps, ArcLength::from_ticks(CIRCUMFERENCE - 600)),
            Some(1)
        );
        assert_eq!(
            find_shift(&gaps, ArcLength::from_ticks(CIRCUMFERENCE - 300)),
            Some(2)
        );
        assert_eq!(
            find_shift(&gaps, ArcLength::from_ticks(CIRCUMFERENCE - 100)),
            Some(3)
        );
        assert_eq!(find_shift(&gaps, ArcLength::from_ticks(17)), None);
    }
}
