//! Location discovery in the basic model with odd `n` (Lemma 16): after the
//! leader is elected, every agent but the leader moves logically clockwise
//! each round, giving a rotation of two positions per round. Each round's
//! `dist()` observation is therefore the sum of two consecutive gaps; over
//! one full revolution (exactly `n` rounds, because `gcd(2, n) = 1`) every
//! adjacent pair-sum is observed, and for odd `n` the pair-sum system pins
//! every gap — this is precisely where the even-`n` impossibility of
//! Lemma 5 shows up as a singular system.
//!
//! Each agent solves its own system, n union–finds of n nodes, which at
//! n = 511 outgrow a core's L2. The sweep therefore hands each round's
//! equations to an [`EquationBatch`], which applies them agent by agent
//! every [`BATCH_ROUNDS`](crate::knowledge::BATCH_ROUNDS) rounds, one
//! structure at a time in L1, with the same equations in the same order.

use crate::coordination::leader::elect_leader;
use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::knowledge::{ArcEquation, BatchConflict, EquationBatch};
use crate::locate::{cumulative_dist_logical, AgentView, LocationDiscovery, LocationMethod};
use ring_sim::{ArcLength, LocalDirection, CIRCUMFERENCE};

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
    // logically anticlockwise a round, so in round `t` it crosses the gaps
    // at relative indices n−2t−2 and n−2t−1 (modulo n): one equation from
    // `from` to `from + 2`, the same slots for every agent.
    let conflict = |c: BatchConflict| ProtocolError::Internal {
        protocol: "location-discovery-basic-odd",
        reason: c.conflict.to_string(),
    };
    let mut batch = EquationBatch::new(n, 1);
    let mut travelled: Vec<u64> = vec![0; n];
    let mut from = n - 2;
    let round_budget = 4 * n as u64 + 16;
    // The sweep repeats one fixed direction assignment through a reusable
    // buffer set (no per-round allocation), until all agents are back at
    // their start.
    let mut bufs = StepBuffers::new();
    let mut finished = false;
    for _ in 0..round_budget {
        let step = net.step_into(&dirs, &mut bufs);
        if step.is_err() {
            // A conflict among the pending rounds came first.
            batch.flush().map_err(conflict)?;
        }
        step?;
        let to = (from + 2) % n;
        let observations = bufs.observations();
        let mut all_back = true;
        batch
            .push_round(|agent, slot| {
                let logical = frames[agent].observation_to_logical(observations[agent]);
                // Moving two positions anticlockwise: the traversed arc is
                // the complement of the reported clockwise displacement.
                let traversed = if logical.dist.is_zero() {
                    0
                } else {
                    CIRCUMFERENCE - logical.dist.ticks()
                };
                slot[0] = ArcEquation::new(from, to, ArcLength::from_ticks(traversed));
                travelled[agent] = (travelled[agent] + traversed) % CIRCUMFERENCE;
                all_back &= travelled[agent] == 0;
            })
            .map_err(conflict)?;
        from = (from + n - 2) % n;
        if all_back {
            finished = true;
            break;
        }
    }
    let knowledge = batch.flush().map_err(conflict)?;
    if !finished {
        return Err(ProtocolError::Internal {
            protocol: "location-discovery-basic-odd",
            reason: "the sweep never returned every agent to its starting position".into(),
        });
    }

    let views = (0..n)
        .map(|agent| {
            let gaps = knowledge[agent]
                .gaps()
                .ok_or_else(|| ProtocolError::Internal {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::locate::verify_location_discovery;
    use ring_sim::{Model, RingConfig};

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

    /// Sweeps of 67 and 101 rounds: several full equation batches, then
    /// one that ends mid-batch.
    #[test]
    fn basic_odd_discovery_across_equation_batches() {
        for &(n, seed) in &[(67usize, 5u64), (101, 6)] {
            assert_ne!(n % crate::knowledge::BATCH_ROUNDS, 0);
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
