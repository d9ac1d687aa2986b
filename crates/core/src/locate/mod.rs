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
//! positions using only its own accumulated `dist()` observations.
//!
//! Every agent's map is the same ring, seen from the agent's initial
//! position in the logical frame all agents share after coordination. So a
//! [`LocationDiscovery`] holds one record of the ring, its gaps in site
//! order (sites number the occupied positions logically clockwise), and
//! each agent's rotation into it: the site of its initial position, found
//! from the site it stood at when the measurement began and its
//! displacement. That is O(n) state where `n` maps would be `n²`. No
//! agent's view comes from a record it was not checked against: the sweeps
//! ([`basic_odd`], [`lazy`]) check every observation against a
//! `SiteRecord` as it is made, and the perceptive route derives each
//! agent's gaps from its own knowledge and compares them with the record
//! as they are derived (`check_view`).

pub mod basic_odd;
pub mod lazy;

use crate::coordination::leader::LeaderElection;
use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::knowledge::{gaps_between, KnowledgeConflict};
use ring_sim::{
    ArcLength, Frame, LocalDirection, Model, ObjectiveDirection, Observation, Parity, CIRCUMFERENCE,
};
use std::cmp::Ordering;

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

/// One agent's discovered map of the ring: the discovery's record, read
/// from the agent's initial position. Two views are equal when they hold
/// the same relative positions.
#[derive(Clone, Copy, Debug)]
pub struct AgentView<'a> {
    /// The record's prefix positions (see [`LocationDiscovery`]).
    positions: &'a [u64],
    /// The site of the agent's initial position.
    rotation: usize,
}

impl<'a> AgentView<'a> {
    /// Number of agents on the ring according to this view.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the view is empty (never true for valid rings).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The clockwise arcs — in the agent's logical frame — from this
    /// agent's initial position to the initial position of the agent `j`
    /// hops logically clockwise from it, for `j = 0, 1, …` (the first is
    /// 0): the record from the agent's site on, then up to it.
    pub fn relative_positions(self) -> impl Iterator<Item = ArcLength> + 'a {
        let (before, from) = self.positions.split_at(self.rotation);
        let origin = from[0];
        from.iter()
            .map(move |&p| p - origin)
            .chain(before.iter().map(move |&p| p + CIRCUMFERENCE - origin))
            .map(ArcLength::from_ticks)
    }
}

impl PartialEq for AgentView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.relative_positions().eq(other.relative_positions())
    }
}

impl Eq for AgentView<'_> {}

/// Finds the number of whole positions `C` such that walking `C` gaps
/// anticlockwise from `site` covers exactly `delta`, given the record's
/// prefix positions.
fn find_shift(positions: &[u64], site: usize, delta: ArcLength) -> Option<usize> {
    let (here, delta) = (positions[site], delta.ticks());
    let target = (here + CIRCUMFERENCE - delta) % CIRCUMFERENCE;
    let start = positions.binary_search(&target).ok()?;
    Some((site + positions.len() - start) % positions.len())
}

/// The result of a location-discovery protocol.
#[derive(Clone, Debug)]
pub struct LocationDiscovery {
    /// `positions[s]`: the logical clockwise arc from site 0 to site `s`.
    positions: Vec<u64>,
    /// Per agent, the site of its initial position.
    rotations: Vec<usize>,
    frames: Vec<Frame>,
    rounds: u64,
    method: LocationMethod,
}

impl LocationDiscovery {
    /// A discovery whose record has the given gaps (`gaps[s]` is the
    /// logical clockwise arc from site `s` to the next), and whose agent
    /// `a` stood at site `starts[a].0` when the measurement began, having
    /// moved `starts[a].1` logically clockwise from its initial position.
    /// An agent whose move is not a whole number of positions is refused.
    pub(crate) fn new(
        gaps: &[ArcLength],
        starts: impl IntoIterator<Item = (usize, ArcLength)>,
        frames: Vec<Frame>,
        rounds: u64,
        method: LocationMethod,
    ) -> Result<Self, ProtocolError> {
        let mut end = 0;
        let mut positions = Vec::with_capacity(gaps.len());
        for gap in gaps {
            positions.push(end);
            end += gap.ticks();
        }
        let n = positions.len();
        let mut rotations = Vec::with_capacity(n);
        for (agent, (site, delta)) in starts.into_iter().enumerate() {
            let shift =
                find_shift(&positions, site, delta).ok_or_else(|| ProtocolError::Internal {
                    protocol: "location-discovery",
                    reason: format!(
                        "agent {agent}'s displacement does not align with any position"
                    ),
                })?;
            rotations.push((site + n - shift) % n);
        }
        Ok(LocationDiscovery {
            positions,
            rotations,
            frames,
            rounds,
            method,
        })
    }

    /// The per-agent views, in agent order.
    pub fn views(&self) -> impl ExactSizeIterator<Item = AgentView<'_>> + '_ {
        (0..self.rotations.len()).map(|agent| self.view(agent))
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
    pub fn view(&self, agent: usize) -> AgentView<'_> {
        AgentView {
            positions: &self.positions,
            rotation: self.rotations[agent],
        }
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

/// Checks `agent`'s gaps, in site order, against the record one at a time,
/// as they are derived; a mismatch is refused naming the agent and site.
pub(crate) fn check_view(
    agent: usize,
    record: &[ArcLength],
    gaps: impl IntoIterator<Item = ArcLength>,
) -> Result<(), ProtocolError> {
    let mut gaps = gaps.into_iter();
    let differs = |recorded: &ArcLength| gaps.next() != Some(*recorded);
    match record.iter().position(differs) {
        None => Ok(()),
        Some(site) => Err(ProtocolError::Internal {
            protocol: "location-discovery",
            reason: format!("agent {agent}'s view differs from the record at site {site}"),
        }),
    }
}

/// The site where agent `i` starts a sweep of `n`, and the agent starting
/// at site `i`: agent `a` starts at site `a`, or at `n − a` when the shared
/// logical clockwise is the objective anticlockwise (`reversed`; agents keep
/// their cyclic order and are numbered objectively clockwise). The
/// simulator reads which from ground truth; a wrong site shows as a
/// `SiteRecord` refusal, never as a wrong view.
pub(crate) fn sweep_site(n: usize, reversed: bool, i: usize) -> usize {
    if reversed && i > 0 {
        n - i
    } else {
        i
    }
}

/// A sweep's observations, kept once per site. In round `t` every agent
/// observes the arc from its own slot `from_t` to `from_t + span` (slots
/// count from its start), and `from_t` advances by `step` for all alike:
/// so whoever started at site `k` observes the arc from site `k + from_t`.
/// Round 0 records every site; every later arc must equal its record. But
/// first each agent's arcs are checked as one [`crate::GapKnowledge`] per
/// agent would, and refused as it would: a path through its slots until the
/// closure round, whose arc closes the cycle, then repeats. A mismatch with
/// the record is refused at the end of the closure round at the latest.
pub(crate) struct SiteRecord {
    /// Per site, the arc from it.
    arcs: Vec<u64>,
    /// Per starting site, its agent's `Σ (P_to − P_from)` before the
    /// closure round.
    path: Vec<i128>,
    span: usize,
    step: usize,
    from: usize,
    round: usize,
    /// The round whose arc first closes the cycle of slots.
    closure: usize,
    /// Whether sites run against agent numbers (see [`sweep_site`]).
    reversed: bool,
    protocol: &'static str,
    /// The first observation that differed from its site's record.
    mismatch: Option<ProtocolError>,
}

impl SiteRecord {
    /// An empty record for a sweep whose round-0 arc starts at `from`;
    /// panics unless `0 < span < n`.
    pub(crate) fn new(
        n: usize,
        from: usize,
        step: usize,
        span: usize,
        reversed: bool,
        protocol: &'static str,
    ) -> Self {
        assert!(0 < span && span < n, "an arc of {span} slots on {n} sites");
        SiteRecord {
            arcs: vec![0; n],
            path: vec![0; n],
            span,
            step,
            from,
            round: 0,
            closure: (1..)
                .find(|t| (from + t * step) % n == from)
                .expect("steps around a ring return to the start")
                - 1,
            reversed,
            protocol,
            mismatch: None,
        }
    }

    /// Applies one round, `arcs[k]` observed by whoever started at site `k`;
    /// a refusal names the round, the agent and what it contradicts.
    pub(crate) fn push_round(&mut self, arcs: &[u64]) -> Result<(), ProtocolError> {
        let (n, round, from) = (arcs.len(), self.round, self.from);
        let (reversed, protocol) = (self.reversed, self.protocol);
        let to = (from + self.span) % n;
        (self.round, self.from) = (round + 1, (from + self.step) % n);
        let agent = |k| sweep_site(n, reversed, k);
        let refuse = |k: usize, what: String| ProtocolError::Internal {
            protocol,
            reason: format!("round {round}: agent {}: {what}", agent(k)),
        };
        // The agent that started at site `k` is at site `k + from`: the
        // record from `from` on, then up to it.
        let (before, after) = self.arcs.split_at_mut(from);
        let (arcs_after, arcs_before) = arcs.split_at(n - from);
        if round == 0 {
            after.copy_from_slice(arcs_after);
            before.copy_from_slice(arcs_before);
        }
        let differs = after != arcs_after || before != arcs_before;
        let recorded = |k: usize| self.arcs[(k + from) % n];
        let mismatch = differs.then(|| {
            (0..n)
                .find(|&k| arcs[k] != recorded(k))
                .expect("the runs differ")
        });
        // `P_to − P_from` for an observed arc, less a circle past slot 0.
        let wrap = i128::from(CIRCUMFERENCE) * i128::from(to < from);
        let diff = |arc: u64| i128::from(arc) - wrap;
        // The first agent whose arc contradicts its own earlier ones, and
        // what they imply: the path's sum closes the cycle, and after that
        // every arc repeats the record.
        let contradicted = match round.cmp(&self.closure) {
            Ordering::Less => {
                for (sum, &arc) in self.path.iter_mut().zip(arcs) {
                    *sum += diff(arc);
                }
                None
            }
            Ordering::Equal => (0..n)
                .find(|&k| -self.path[k] != diff(arcs[k]))
                .map(|k| (k, -self.path[k])),
            Ordering::Greater => mismatch.map(|k| (k, diff(recorded(k)))),
        };
        if let Some((k, expected)) = contradicted {
            let got = diff(arcs[k]);
            return Err(refuse(
                k,
                KnowledgeConflict {
                    from,
                    to,
                    expected,
                    got,
                }
                .to_string(),
            ));
        }
        if let Some(k) = mismatch {
            let (at, got) = ((k + from) % n, arcs[k]);
            self.mismatch.get_or_insert_with(|| {
                let recorded = self.arcs[at];
                refuse(
                    k,
                    format!("observed {got} ticks from site {at}, recorded as {recorded}"),
                )
            });
        }
        match &self.mismatch {
            Some(mismatch) if round >= self.closure => Err(mismatch.clone()),
            _ => Ok(()),
        }
    }

    /// The gaps in site order, solved once from the record after the
    /// closure round: `None` before it, or when arcs of `span` sites never
    /// tie some site to site 0 (pair sums on an even ring, Lemma 5).
    pub(crate) fn gaps(&self) -> Option<Vec<ArcLength>> {
        let n = self.arcs.len();
        // Prefix positions along sites 0, span, 2·span, …
        let mut position = vec![0i128; n];
        let mut site = 0;
        for _ in 1..n {
            let next = (site + self.span) % n;
            if next == 0 || self.round <= self.closure {
                return None;
            }
            let wrap = i128::from(CIRCUMFERENCE) * i128::from(next < site);
            position[next] = position[site] + i128::from(self.arcs[site]) - wrap;
            site = next;
        }
        Some(gaps_between(position).collect())
    }
}

/// The measurement sweep of Lemma 16 after `election`: the leader moves
/// logically `leader`, everybody else `others`, until every agent's arcs
/// add up to whole circles. `arc` reads a logical `dist()` as the arc the
/// agent observed, and the record checks it. The round count includes the
/// election's; a sweep past `4n + 16` rounds is refused.
pub(crate) fn sweep(
    net: &mut Network<'_>,
    election: &LeaderElection,
    [leader, others]: [LocalDirection; 2],
    new_record: fn(usize, bool) -> SiteRecord,
    arc: impl Fn(ArcLength) -> u64,
    method: LocationMethod,
) -> Result<LocationDiscovery, ProtocolError> {
    let n = net.len();
    let start = net.rounds_used() - election.rounds();
    let frames = election.frames().to_vec();
    let starts = cumulative_dists_logical(net, &frames);
    let dir = |agent| {
        if election.is_leader(agent) {
            leader
        } else {
            others
        }
    };
    let dirs: Vec<LocalDirection> = (0..n)
        .map(|agent| frames[agent].to_physical(dir(agent)))
        .collect();
    let reversed = !logical_cw_is_objective_cw(net, frames[0], 0);
    let mut record = new_record(n, reversed);
    let (mut arcs, mut travelled) = (vec![0; n], vec![0; n]);
    // One fixed direction assignment through a reusable buffer set (no
    // per-round allocation), until all agents are back at their start.
    let mut bufs = StepBuffers::new();
    for _ in 0..4 * n + 16 {
        net.step_into(&dirs, &mut bufs)?;
        let observations = bufs.observations();
        let mut all_back = true;
        for (agent, arc_seen) in arcs.iter_mut().enumerate() {
            let logical = frames[agent].observation_to_logical(observations[agent]);
            *arc_seen = arc(logical.dist);
            travelled[agent] = (travelled[agent] + *arc_seen) % CIRCUMFERENCE;
            all_back &= travelled[agent] == 0;
        }
        if reversed {
            arcs[1..].reverse(); // into site order
        }
        record.push_round(&arcs)?;
        if all_back {
            let gaps = record.gaps().ok_or_else(|| ProtocolError::Internal {
                protocol: record.protocol,
                reason: "the sweep's arcs leave the gaps undetermined".into(),
            })?;
            let starts = (0..n).map(|agent| (sweep_site(n, reversed, agent), starts[agent]));
            let rounds = net.rounds_used() - start;
            return LocationDiscovery::new(&gaps, starts, frames, rounds, method);
        }
    }
    Err(ProtocolError::Internal {
        protocol: record.protocol,
        reason: "the sweep never returned every agent to its start".into(),
    })
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

/// Whether `agent`'s logical clockwise, under `frame`, is the objective one.
fn logical_cw_is_objective_cw(net: &Network<'_>, frame: Frame, agent: usize) -> bool {
    frame
        .to_physical(LocalDirection::Right)
        .to_objective(net.ground_truth_config().chirality(agent))
        == ObjectiveDirection::Clockwise
}

/// Ground-truth verification of a location-discovery result: every agent's
/// reported map must match the hidden initial configuration, interpreted in
/// that agent's logical frame.
pub fn verify_location_discovery(net: &Network<'_>, discovery: &LocationDiscovery) -> bool {
    let config = net.ground_truth_config();
    let n = net.len();
    let frames = discovery.frames();
    if frames.len() != n || discovery.views().len() != n {
        return false;
    }
    discovery.views().enumerate().all(|(agent, view)| {
        let cw = logical_cw_is_objective_cw(net, frames[agent], agent);
        let here = config.position(agent);
        view.len() == n
            && view.relative_positions().enumerate().all(|(j, arc)| {
                arc == if cw {
                    here.cw_distance_to(config.position((agent + j) % n))
                } else {
                    here.acw_distance_to(config.position((agent + n - j) % n))
                }
            })
    })
}

/// Every agent's cumulative own-frame displacement, in its logical frame
/// (helper shared by the location-discovery routes).
pub(crate) fn cumulative_dists_logical(net: &Network<'_>, frames: &[Frame]) -> Vec<ArcLength> {
    let physical = |agent| Observation::with_dist(net.observed_cumulative_dist(agent));
    (frames.iter().enumerate())
        .map(|(agent, frame)| frame.observation_to_logical(physical(agent)).dist)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::knowledge::GapKnowledge;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn arcs(ticks: &[u64]) -> Vec<ArcLength> {
        ticks.iter().copied().map(ArcLength::from_ticks).collect()
    }

    /// A discovery of the ring with the given gaps, agent `a` standing at
    /// site `starts[a].0` after moving `starts[a].1`.
    fn discovery(
        gaps: &[u64],
        starts: &[(usize, u64)],
    ) -> Result<LocationDiscovery, ProtocolError> {
        let starts = starts
            .iter()
            .map(|&(site, delta)| (site, ArcLength::from_ticks(delta)));
        let frames = vec![Frame::identity(); starts.len()];
        LocationDiscovery::new(&arcs(gaps), starts, frames, 0, LocationMethod::Lazy)
    }

    fn ticks(view: AgentView<'_>) -> Vec<u64> {
        view.relative_positions().map(ArcLength::ticks).collect()
    }

    #[test]
    fn view_without_displacement_is_a_prefix_sum() {
        let discovery = discovery(&[10, 20, 30, CIRCUMFERENCE - 60], &[(0, 0)]).unwrap();
        assert_eq!(ticks(discovery.view(0)), vec![0, 10, 30, 60]);
    }

    #[test]
    fn displacement_correction_rotates_the_attribution() {
        // The agent has drifted forward (clockwise) past one position of
        // length 40 = the last gap, so its initial position is one slot back.
        let gaps = [10, 20, 30, CIRCUMFERENCE - 60];
        let discovery = discovery(&gaps, &[(0, CIRCUMFERENCE - 60)]).unwrap();
        // From the initial position, the gaps in order are the measurement
        // gaps rotated by one: [last, 10, 20, 30].
        let expected = [0, 60, 50, 30].map(|before| (CIRCUMFERENCE - before) % CIRCUMFERENCE);
        assert_eq!(ticks(discovery.view(0)), expected);
    }

    #[test]
    fn misaligned_displacement_is_rejected() {
        let err = discovery(&[10, 20, 30, CIRCUMFERENCE - 60], &[(0, 0), (2, 5)]).unwrap_err();
        assert!(matches!(&err, ProtocolError::Internal { .. }), "{err}");
        assert!(err.to_string().contains("agent 1"), "{err}");
    }

    #[test]
    fn find_shift_covers_all_positions() {
        let positions = [0, 100, 300, 600];
        let shift = |site, delta| find_shift(&positions, site, ArcLength::from_ticks(delta));
        assert_eq!(shift(0, 0), Some(0));
        assert_eq!(shift(0, CIRCUMFERENCE - 600), Some(1));
        assert_eq!(shift(0, CIRCUMFERENCE - 300), Some(2));
        assert_eq!(shift(0, CIRCUMFERENCE - 100), Some(3));
        assert_eq!(shift(0, 17), None);
        // From another site, walking back over the gaps before it.
        assert_eq!(shift(2, 200), Some(1));
        assert_eq!(shift(2, 300), Some(2));
        assert_eq!(shift(2, CIRCUMFERENCE - 300), Some(3));
    }

    /// Views are equal when their positions are, whatever their rotation:
    /// on a ring of two equal halves, sites 0 and 2 see the same map.
    #[test]
    fn views_are_equal_when_their_positions_are() {
        let half = CIRCUMFERENCE / 2;
        let gaps = [100, half - 100, 100, half - 100];
        let d = discovery(&gaps, &[(0, 0), (2, 0), (1, 0)]).unwrap();
        assert_eq!(d.view(0), d.view(1));
        assert_ne!(d.view(0), d.view(2));
        assert_eq!(ticks(d.view(2)), [0, half - 100, half, CIRCUMFERENCE - 100]);
    }

    #[test]
    fn a_view_that_differs_from_the_record_is_refused() {
        let record = arcs(&[10, 20, 30, CIRCUMFERENCE - 60]);
        check_view(3, &record, record.iter().copied()).unwrap();
        for (gaps, site) in [
            (arcs(&[10, 21, 29, CIRCUMFERENCE - 60]), "site 1"),
            (arcs(&[10, 20, 30, CIRCUMFERENCE - 61]), "site 3"),
            (arcs(&[10, 20, 30]), "site 3"),
        ] {
            let err = check_view(3, &record, gaps).unwrap_err().to_string();
            assert!(err.contains("agent 3") && err.ends_with(site), "{err}");
        }
    }

    /// The arc of `span` gaps from site `from` on a ring whose gap from
    /// site `s` is `gap(s)`.
    fn arc_from(gap: &dyn Fn(usize) -> u64, from: usize, span: usize) -> u64 {
        (from..from + span).map(gap).sum()
    }

    /// The refusal of `record` for a contradiction within the agent at site
    /// `site`'s own observations.
    fn conflict_error(
        record: &SiteRecord,
        round: usize,
        site: usize,
        conflict: KnowledgeConflict,
    ) -> ProtocolError {
        ProtocolError::Internal {
            protocol: record.protocol,
            reason: format!(
                "round {round}: agent {}: {conflict}",
                sweep_site(record.arcs.len(), record.reversed, site)
            ),
        }
    }

    /// The record equals one union–find per agent fed the same
    /// observations round by round: `n + 5` rounds of true arcs on a random
    /// ring, with one corrupted (round, agent) arc in half the cases, the
    /// first or last agent's in two thirds of those. Both report the same
    /// first conflict as (round, agent, conflict); without one, every agent
    /// has the same gaps, or none.
    pub(crate) fn record_matches_union_finds(
        new_record: fn(usize, bool) -> SiteRecord,
        n: usize,
        seed: u64,
        corrupt: bool,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions: Vec<u64> = (0..n).map(|_| rng.gen_range(0..CIRCUMFERENCE)).collect();
        positions.sort_unstable();
        let gap = |slot: usize| {
            (positions[(slot + 1) % n] + CIRCUMFERENCE - positions[slot % n]) % CIRCUMFERENCE
        };
        let rounds = n + 5;
        let bad_agent = match rng.gen_range(0..3u32) {
            0 => 0,
            1 => n - 1,
            _ => rng.gen_range(0..n),
        };
        let bad = corrupt.then(|| (rng.gen_range(0..rounds), bad_agent));

        let mut record = new_record(n, false);
        let (first_from, step, span) = (record.from, record.step, record.span);
        let mut oracle = vec![GapKnowledge::new(n); n];
        let (mut record_refusal, mut oracle_conflict) = (None, None);
        let mut arcs = vec![0u64; n];
        for round in 0..rounds {
            let from = (first_from + round * step) % n;
            let to = (from + span) % n;
            for (agent, arc) in arcs.iter_mut().enumerate() {
                // Agent `a`'s slot `s` is the ring's slot `s + a`.
                *arc = arc_from(&gap, from + agent, span);
                if bad == Some((round, agent)) {
                    let truth = *arc;
                    while *arc == truth {
                        *arc = match rng.gen_range(0..4u32) {
                            0 => (truth + rng.gen_range(1..1000)).min(CIRCUMFERENCE),
                            1 => truth.saturating_sub(rng.gen_range(1..1000)),
                            2 => rng.gen_range(0..=CIRCUMFERENCE),
                            // The extremes, a full circle apart.
                            _ => [0, CIRCUMFERENCE][rng.gen_range(0..2)],
                        };
                    }
                }
            }
            if oracle_conflict.is_none() {
                for (agent, k) in oracle.iter_mut().enumerate() {
                    let arc = ArcLength::from_ticks(arcs[agent]);
                    if let Err(conflict) = k.add_cw_arc(from, to, arc) {
                        oracle_conflict = Some(conflict_error(&record, round, agent, conflict));
                        break;
                    }
                }
            }
            if record_refusal.is_none() {
                record_refusal = record.push_round(&arcs).err();
            }
        }
        assert_eq!(record_refusal, oracle_conflict);
        if oracle_conflict.is_none() {
            let gaps = record.gaps();
            for (agent, k) in oracle.iter().enumerate() {
                let rotated = gaps.as_ref().map(|g| [&g[agent..], &g[..agent]].concat());
                assert_eq!(rotated, k.gaps(), "agent {agent}");
            }
        }
    }

    /// An agent that observes a site differently from its record is
    /// refused by round, agent and site once the closure round has been
    /// checked; after it, a mismatch is the agent's own conflict, refused
    /// at once. The ring has 9 agents and distinct gaps, and its logical
    /// clockwise is the objective anticlockwise.
    pub(crate) fn mismatches_are_refused(new_record: fn(usize, bool) -> SiteRecord) {
        let n = 9;
        let first: u64 = (0..n as u64 - 1).map(|s| 1000 + 10 * s).sum();
        let gap = |s: usize| match (s % n) as u64 {
            8 => CIRCUMFERENCE - first,
            s => 1000 + 10 * s,
        };
        let mut record = new_record(n, true);
        let (closure, span) = (record.closure, record.span);
        assert!(closure > 2);
        let (first_from, step) = (record.from, record.step);
        let from = |round: usize| (first_from + round * step) % n;
        let truth: Vec<Vec<u64>> = (0..n + 2)
            .map(|round| {
                (0..n)
                    .map(|k| arc_from(&gap, k + from(round), span))
                    .collect()
            })
            .collect();
        // The agent at site 1 sees round 1 wrong and makes up for it in
        // round 2, so its own path sums up right: only the record notices.
        let at = (1 + from(1)) % n;
        let wrong = format!(
            "round 1: agent {}: observed {} ticks from site {at}, recorded as {}",
            sweep_site(n, true, 1),
            truth[1][1] + 7,
            truth[1][1]
        );
        for (round, arcs) in truth.iter().enumerate() {
            let mut arcs = arcs.clone();
            match round {
                1 => arcs[1] += 7,
                2 => arcs[1] -= 7,
                _ => {}
            }
            match record.push_round(&arcs) {
                Ok(()) => assert!(round < closure, "round {round} passed"),
                Err(err) => {
                    assert_eq!(
                        (round, err.to_string()),
                        (
                            closure,
                            format!(
                                "protocol {} violated an internal invariant: {wrong}",
                                record.protocol
                            )
                        )
                    );
                    break;
                }
            }
        }
        // After the closure round, a mismatch is the agent's own conflict.
        let mut record = new_record(n, true);
        for arcs in &truth[..=closure] {
            record.push_round(arcs).unwrap();
        }
        let (round, site) = (closure + 1, 2);
        let mut arcs = truth[round].clone();
        arcs[site] += 1;
        let (from, to) = (from(round), (from(round) + span) % n);
        let wrap = if to < from {
            i128::from(CIRCUMFERENCE)
        } else {
            0
        };
        let expected = i128::from(truth[round][site]) - wrap;
        let conflict = KnowledgeConflict {
            from,
            to,
            expected,
            got: expected + 1,
        };
        assert_eq!(
            record.push_round(&arcs),
            Err(conflict_error(&record, round, site, conflict))
        );
    }
}
