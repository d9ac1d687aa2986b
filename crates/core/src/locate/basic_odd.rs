//! Location discovery in the basic model with odd `n` (Lemma 16): after the
//! leader is elected, every agent but the leader moves logically clockwise
//! each round, giving a rotation of two positions per round. Each round's
//! `dist()` observation is therefore the sum of two consecutive gaps; over
//! one full revolution (exactly `n` rounds, because `gcd(2, n) = 1`) every
//! adjacent pair-sum is observed, and for odd `n` the pair-sum system pins
//! every gap — this is precisely where the even-`n` impossibility of
//! Lemma 5 shows up as a singular system.
//!
//! Every agent receives its round's equation on the same two slots of its
//! own, and all agents stand at different sites. So the sweep keeps one
//! pair sum per site (`SiteRecord`), checks every agent's observation
//! against it as it is made, and solves the gaps once for all agents: O(n)
//! state instead of `n` systems of `n` slots.

use crate::coordination::leader::{elect_leader, LeaderElection};
use crate::error::ProtocolError;
use crate::exec::Network;
use crate::locate::{sweep, LocationDiscovery, LocationMethod, SiteRecord};
use ring_sim::{ArcLength, LocalDirection, CIRCUMFERENCE};

/// The pair-sum record of a sweep: round `t` tells every agent the arc
/// from its slot `n − 2 − 2t` to the slot two further on.
fn pair_sums(n: usize, reversed: bool) -> SiteRecord {
    SiteRecord::new(n, n - 2, n - 2, 2, reversed, "location-discovery-basic-odd")
}

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
    election: &LeaderElection,
) -> Result<LocationDiscovery, ProtocolError> {
    // Everybody but the leader moves logically clockwise; the leader moves
    // logically anticlockwise. Logical rotation index = n − 2 ≡ −2, so
    // every agent moves two positions logically anticlockwise a round: the
    // traversed arc is the complement of the reported clockwise
    // displacement.
    let directions = [LocalDirection::Left, LocalDirection::Right];
    let arc = |dist: ArcLength| (CIRCUMFERENCE - dist.ticks()) % CIRCUMFERENCE;
    let method = LocationMethod::BasicOdd;
    sweep(net, election, directions, pair_sums, arc, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::locate::tests::{mismatches_are_refused, record_matches_union_finds};
    use crate::locate::verify_location_discovery;
    use proptest::prelude::*;
    use ring_sim::{Model, RingConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pair-sum record equals one union–find per agent, on odd and
        /// even rings (see [`record_matches_union_finds`]); for even `n`
        /// both leave the gaps unknown.
        #[test]
        fn chain_matches_one_union_find_per_agent(
            (n, seed, corrupt) in (3usize..=129, any::<u64>(), any::<bool>())
        ) {
            record_matches_union_finds(pair_sums, n, seed, corrupt);
        }
    }

    #[test]
    fn a_pair_sum_seen_differently_by_two_agents_is_refused() {
        mismatches_are_refused(pair_sums);
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
