//! Location discovery in the basic model with odd `n` (Lemma 16): after the
//! leader is elected, every agent but the leader moves logically clockwise
//! each round, giving a rotation of two positions per round. Each round's
//! `dist()` observation is therefore the sum of two consecutive gaps; over
//! one full revolution (exactly `n` rounds, because `gcd(2, n) = 1`) every
//! adjacent pair-sum is observed, and for odd `n` the pair-sum system pins
//! every gap — this is precisely where the even-`n` impossibility of
//! Lemma 5 shows up as a singular system.
//!
//! Every agent receives its round's equation on the same two slots; only
//! the arcs differ. So all `n` agents' systems have one shape, a path
//! through the slots, and the sweep solves that path once for all of them
//! (`PairSumChain`): one node-major table of `n × n` potentials instead
//! of `n` union–finds.

use crate::coordination::leader::elect_leader;
use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::knowledge::KnowledgeConflict;
use crate::locate::{cumulative_dist_logical, AgentView, LocationDiscovery, LocationMethod};
use ring_sim::{ArcLength, LocalDirection, CIRCUMFERENCE};

/// [`PairSumChain`] refuses rings of this many slots or more.
///
/// Its potentials are `i64`. An arc is at most the circumference
/// `C = 2^40`, so each round relates two slots by at most `C` in absolute
/// value. A slot's potential is reached from slot 0 by at most `n − 1`
/// rounds, so it lies within `±(n−1)·C` even when the arcs are corrupted,
/// and a later round's check subtracts two of them, within `±2(n−1)·C`,
/// which stays below `2^63` for every `n < 2^22`. A ring that large could
/// not hold the chain's `n × n` table (`2^44` potentials) in memory anyway.
const MAX_SLOTS: usize = 1 << 22;

/// Location discovery in the basic model with odd `n` (also valid, and used
/// as the odd-`n` fallback, in the perceptive model).
///
/// # Errors
///
/// Propagates sub-protocol and substrate errors.
pub fn discover_locations_basic_odd(
    net: &mut Network<'_>,
) -> Result<LocationDiscovery, ProtocolError> {
    let election = elect_leader(net)?;
    discover_locations_basic_odd_with_leader(net, &election)
}

/// The measurement sweep of the basic-model odd-`n` location discovery,
/// starting from an already-elected leader (used for the Table II row).
///
/// The reported round count includes the rounds of the supplied election.
///
/// # Errors
///
/// Propagates sub-protocol and substrate errors.
pub fn discover_locations_basic_odd_with_leader(
    net: &mut Network<'_>,
    election: &crate::coordination::leader::LeaderElection,
) -> Result<LocationDiscovery, ProtocolError> {
    let n = net.len();
    let start = net.rounds_used() - election.rounds();

    let frames = election.frames().to_vec();

    let delta_start: Vec<ArcLength> = (0..n)
        .map(|agent| cumulative_dist_logical(net, &frames, agent))
        .collect();

    // Sweep: everybody but the leader moves logically clockwise; the leader
    // moves logically anticlockwise. Logical rotation index = n − 2 ≡ −2.
    let dirs: Vec<LocalDirection> = (0..n)
        .map(|agent| {
            let logical = if election.is_leader(agent) {
                LocalDirection::Left
            } else {
                LocalDirection::Right
            };
            frames[agent].to_physical(logical)
        })
        .collect();

    // Per agent: pair-sum equations indexed relative to the agent's own
    // measurement-start position. Every agent moves two positions
    // logically anticlockwise a round: one equation a round on the same
    // slots for every agent, solved for all of them by the chain.
    let mut chain = PairSumChain::new(n);
    let mut arcs: Vec<u64> = vec![0; n];
    let mut travelled: Vec<u64> = vec![0; n];
    let round_budget = 4 * n as u64 + 16;
    // The sweep repeats one fixed direction assignment through a reusable
    // buffer set (no per-round allocation), until all agents are back at
    // their start.
    let mut bufs = StepBuffers::new();
    let mut finished = false;
    for _ in 0..round_budget {
        net.step_into(&dirs, &mut bufs)?;
        let observations = bufs.observations();
        let mut all_back = true;
        for (agent, arc) in arcs.iter_mut().enumerate() {
            let logical = frames[agent].observation_to_logical(observations[agent]);
            // Moving two positions anticlockwise: the traversed arc is the
            // complement of the reported clockwise displacement.
            *arc = if logical.dist.is_zero() {
                0
            } else {
                CIRCUMFERENCE - logical.dist.ticks()
            };
            travelled[agent] = (travelled[agent] + *arc) % CIRCUMFERENCE;
            all_back &= travelled[agent] == 0;
        }
        chain
            .push_round(&arcs)
            .map_err(|(_, conflict)| ProtocolError::Internal {
                protocol: "location-discovery-basic-odd",
                reason: conflict.to_string(),
            })?;
        if all_back {
            finished = true;
            break;
        }
    }
    if !finished {
        return Err(ProtocolError::Internal {
            protocol: "location-discovery-basic-odd",
            reason: "the sweep never returned every agent to its starting position".into(),
        });
    }

    let views = (0..n)
        .map(|agent| {
            let gaps = chain.gaps(agent).ok_or_else(|| ProtocolError::Internal {
                protocol: "location-discovery-basic-odd",
                reason: format!("agent {agent} finished with incomplete knowledge"),
            })?;
            AgentView::from_measurement(&gaps, delta_start[agent])
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(LocationDiscovery::new(
        views,
        frames,
        net.rounds_used() - start,
        LocationMethod::BasicOdd,
    ))
}

/// Every agent's pair-sum equations of the sweep, solved along the one
/// shape they share.
///
/// Round `t` tells every agent the clockwise arc from slot
/// `from = n − 2 − 2t (mod n)` to `from + 2`. Rooted at slot 0, each round
/// until `from` first comes back to slot 0 reaches a new slot, whose
/// potential is its successor's minus the arc; every later round closes a
/// cycle and is checked against the potentials. For odd `n` the cycle
/// passes every slot. For even `n` it passes only the even ones: this is
/// Lemma 5's singular system, and the gaps stay unknown.
///
/// The potentials are exactly the ones a [`crate::GapKnowledge`] of each
/// agent would hold relative to slot 0, so gaps and conflicts are the
/// same; the tests check this against one union–find per agent.
struct PairSumChain {
    n: usize,
    /// `P_slot − P_0`, node-major: slot `s` of agent `a` at `s · n + a`.
    potentials: Vec<i64>,
    /// The slot the next round's equations start at.
    from: usize,
    /// Slots with a potential so far, slot 0 included.
    known: usize,
    /// Slots the sweep's cycle passes: `n` for odd `n`, `n / 2` for even.
    cycle: usize,
}

impl PairSumChain {
    /// An empty chain for `n` agents over `n` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (the arc would return to its own slot), or if
    /// `n ≥ 2^22`, where `i64` potentials would no longer be exact.
    fn new(n: usize) -> Self {
        assert!(n >= 3, "a pair-sum chain needs at least three slots");
        assert!(
            n < MAX_SLOTS,
            "{n} slots exceed the exact i64 potential bound"
        );
        PairSumChain {
            n,
            potentials: vec![0; n * n],
            from: n - 2,
            known: 1,
            cycle: if n % 2 == 1 { n } else { n / 2 },
        }
    }

    /// Applies one round: `arcs[agent]` is that agent's clockwise arc from
    /// the round's `from` slot to `from + 2`.
    ///
    /// # Errors
    ///
    /// Returns the first agent whose arc contradicts its earlier ones,
    /// with the conflict [`crate::GapKnowledge::add_cw_arc`] reports.
    fn push_round(&mut self, arcs: &[u64]) -> Result<(), (usize, KnowledgeConflict)> {
        let n = self.n;
        let (from, to) = (self.from, (self.from + 2) % n);
        self.from = (from + n - 2) % n;
        // `P_to − P_from = arc`, less a full circle when the arc wraps
        // past slot 0.
        let wrap = if to > from { 0 } else { CIRCUMFERENCE as i64 };
        if self.known < self.cycle {
            self.known += 1;
            self.potentials.copy_within(to * n..(to + 1) * n, from * n);
            let row = &mut self.potentials[from * n..(from + 1) * n];
            for (potential, &arc) in row.iter_mut().zip(arcs) {
                *potential -= arc as i64 - wrap;
            }
            return Ok(());
        }
        let (row_from, row_to) = (&self.potentials[from * n..], &self.potentials[to * n..]);
        for (agent, &arc) in arcs.iter().enumerate() {
            let (expected, got) = (row_to[agent] - row_from[agent], arc as i64 - wrap);
            if expected != got {
                return Err((
                    agent,
                    KnowledgeConflict {
                        from,
                        to,
                        expected: expected.into(),
                        got: got.into(),
                    },
                ));
            }
        }
        Ok(())
    }

    /// One agent's gaps, if every slot has a potential.
    fn gaps(&self, agent: usize) -> Option<Vec<ArcLength>> {
        let n = self.n;
        if self.known < n {
            return None;
        }
        let potential = |slot: usize| self.potentials[slot * n + agent];
        let to_arc = |d: i64| ArcLength::from_ticks(d.rem_euclid(CIRCUMFERENCE as i64) as u64);
        Some(
            (0..n)
                .map(|slot| to_arc(potential((slot + 1) % n) - potential(slot)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::knowledge::GapKnowledge;
    use crate::locate::verify_location_discovery;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ring_sim::{Model, RingConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The chain equals one union–find per agent fed the same
        /// equations round by round: `n + 5` rounds of true pair sums,
        /// each agent measuring from its own start, on odd and even rings,
        /// with one corrupted (round, agent) arc in half the cases, the
        /// first or last agent's in two thirds of those. Both
        /// report the same first conflict as (round, agent, conflict);
        /// without one, every agent has the same gaps, which are unknown
        /// for even `n`.
        #[test]
        fn chain_matches_one_union_find_per_agent(
            (n, seed, corrupt) in (3usize..=129, any::<u64>(), any::<bool>())
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut positions: Vec<u64> = (0..n).map(|_| rng.gen_range(0..CIRCUMFERENCE)).collect();
            positions.sort_unstable();
            let gap = |slot: usize| (positions[(slot + 1) % n] + CIRCUMFERENCE - positions[slot % n]) % CIRCUMFERENCE;
            let rounds = n + 5;
            let bad_agent = match rng.gen_range(0..3u32) {
                0 => 0,
                1 => n - 1,
                _ => rng.gen_range(0..n),
            };
            let bad = corrupt.then(|| (rng.gen_range(0..rounds), bad_agent));

            let mut chain = PairSumChain::new(n);
            let mut oracle = vec![GapKnowledge::new(n); n];
            let (mut chain_conflict, mut oracle_conflict) = (None, None);
            let mut arcs = vec![0u64; n];
            let mut from = n - 2;
            for round in 0..rounds {
                let to = (from + 2) % n;
                for (agent, arc) in arcs.iter_mut().enumerate() {
                    // Agent `a`'s slot `s` is the ring's slot `s + a`.
                    *arc = gap(from + agent) + gap(from + agent + 1);
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
                        if let Err(conflict) = k.add_cw_arc(from, to, ArcLength::from_ticks(arcs[agent])) {
                            oracle_conflict = Some((round, agent, conflict));
                            break;
                        }
                    }
                }
                if chain_conflict.is_none() {
                    chain_conflict = chain.push_round(&arcs).err().map(|(agent, conflict)| (round, agent, conflict));
                }
                from = (from + n - 2) % n;
            }
            prop_assert_eq!(chain_conflict, oracle_conflict);
            if oracle_conflict.is_none() {
                for (agent, k) in oracle.iter().enumerate() {
                    prop_assert_eq!(chain.gaps(agent), k.gaps(), "agent {}", agent);
                }
                prop_assert_eq!(chain.gaps(0).is_some(), n % 2 == 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exact i64 potential bound")]
    fn chains_past_the_i64_bound_are_refused() {
        PairSumChain::new(MAX_SLOTS);
    }

    #[test]
    fn basic_odd_discovery_recovers_all_positions() {
        for &(n, seed) in &[(5usize, 1u64), (7, 2), (9, 3), (13, 4)] {
            let config = RingConfig::builder(n)
                .random_positions(seed * 13 + 1)
                .random_chirality(seed * 17 + 2)
                .build()
                .unwrap();
            let ids = IdAssignment::random(n, 8 * n as u64, seed + 9);
            let mut net = Network::new(&config, ids, Model::Basic).unwrap();
            let discovery = discover_locations_basic_odd(&mut net).unwrap();
            assert!(
                verify_location_discovery(&net, &discovery),
                "n={n} seed={seed}"
            );
            assert!(
                discovery.rounds() <= n as u64 + 10 * net.id_bits() as u64 + 20,
                "n={n}: {} rounds",
                discovery.rounds()
            );
        }
    }

    /// Discoveries with sweeps of 67 and 101 rounds.
    #[test]
    fn basic_odd_discovery_across_equation_batches() {
        for &(n, seed) in &[(67usize, 5u64), (101, 6)] {
            let config = RingConfig::builder(n)
                .random_positions(seed * 13 + 1)
                .random_chirality(seed * 17 + 2)
                .build()
                .unwrap();
            let ids = IdAssignment::random(n, 4 * n as u64, seed + 9);
            let mut net = Network::new(&config, ids, Model::Basic).unwrap();
            let discovery = discover_locations_basic_odd(&mut net).unwrap();
            assert!(
                verify_location_discovery(&net, &discovery),
                "n={n} seed={seed}"
            );
        }
    }

    #[test]
    fn dispatcher_rejects_basic_even_and_routes_basic_odd() {
        use crate::locate::discover_locations;

        let config = RingConfig::builder(8).random_positions(3).build().unwrap();
        let ids = IdAssignment::consecutive(8);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        assert!(matches!(
            discover_locations(&mut net),
            Err(ProtocolError::Unsolvable { .. })
        ));

        let config = RingConfig::builder(7)
            .random_positions(4)
            .random_chirality(5)
            .build()
            .unwrap();
        let ids = IdAssignment::random(7, 64, 6);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let discovery = discover_locations(&mut net).unwrap();
        assert_eq!(discovery.method(), LocationMethod::BasicOdd);
        assert!(verify_location_discovery(&net, &discovery));
    }
}
