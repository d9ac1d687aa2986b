//! Location discovery in the lazy model (Lemma 16): once a leader and a
//! common sense of direction are available, a round in which only the leader
//! moves has rotation index 1, so every agent walks the whole ring one
//! position per round and reads every gap off its own `dist()`
//! observations. The sweep ends — simultaneously for every agent — when the
//! accumulated distance reaches one full circumference, i.e. after exactly
//! `n` rounds, which also reveals `n` itself.
//!
//! In round `t` every agent reads the gap after its own slot `t`, and all
//! agents stand at different sites. So the sweep keeps one gap per site
//! (`SiteRecord`) and checks every agent's observation against it as it
//! is made, instead of keeping `n` gap lists of `n` gaps.

use crate::coordination::leader::{elect_leader, LeaderElection};
use crate::error::ProtocolError;
use crate::exec::Network;
use crate::locate::{sweep, LocationDiscovery, LocationMethod, SiteRecord};
use ring_sim::{ArcLength, LocalDirection};

/// The gap record of a sweep: round `t` tells every agent the gap from its
/// slot `t` to the next.
fn gap_record(n: usize, reversed: bool) -> SiteRecord {
    SiteRecord::new(n, 0, 1, 1, reversed, "location-discovery-lazy")
}

/// Location discovery in the lazy model: leader election, direction
/// agreement (both bundled in [`elect_leader`]) and an `n`-round rotation-1
/// sweep.
///
/// # Errors
///
/// Propagates sub-protocol and substrate errors.
pub fn discover_locations_lazy(net: &mut Network<'_>) -> Result<LocationDiscovery, ProtocolError> {
    let election = elect_leader(net)?;
    discover_locations_lazy_with_leader(net, &election)
}

/// The measurement sweep of the lazy-model location discovery, starting from
/// an already-elected leader (used to reproduce the Table II row, where the
/// leader comes from the cheaper common-sense-of-direction election).
///
/// The reported round count includes the rounds of the supplied election.
///
/// # Errors
///
/// Propagates sub-protocol and substrate errors.
pub fn discover_locations_lazy_with_leader(
    net: &mut Network<'_>,
    election: &LeaderElection,
) -> Result<LocationDiscovery, ProtocolError> {
    // Only the leader moves (logically clockwise); everybody idles, and
    // each agent reads one gap a round until it has covered the circle.
    let directions = [LocalDirection::Right, LocalDirection::Idle];
    let method = LocationMethod::Lazy;
    sweep(
        net,
        election,
        directions,
        gap_record,
        ArcLength::ticks,
        method,
    )
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

        /// The gap record equals one union–find per agent (see
        /// [`record_matches_union_finds`]).
        #[test]
        fn gap_record_matches_one_union_find_per_agent(
            (n, seed, corrupt) in (2usize..=129, any::<u64>(), any::<bool>())
        ) {
            record_matches_union_finds(gap_record, n, seed, corrupt);
        }
    }

    #[test]
    fn a_gap_seen_differently_by_two_agents_is_refused() {
        mismatches_are_refused(gap_record);
    }

    #[test]
    fn lazy_discovery_recovers_all_positions() {
        for &(n, seed) in &[(6usize, 1u64), (9, 2), (12, 3)] {
            let config = RingConfig::builder(n)
                .random_positions(seed * 7 + 1)
                .random_chirality(seed * 11 + 2)
                .build()
                .unwrap();
            let ids = IdAssignment::random(n, 4 * n as u64, seed + 5);
            let mut net = Network::new(&config, ids, Model::Lazy).unwrap();
            let discovery = discover_locations_lazy(&mut net).unwrap();
            assert!(
                verify_location_discovery(&net, &discovery),
                "n={n} seed={seed}"
            );
            // n + O(log N) rounds.
            assert!(
                discovery.rounds() <= n as u64 + 10 * net.id_bits() as u64 + 20,
                "n={n}: {} rounds",
                discovery.rounds()
            );
        }
    }

    #[test]
    fn even_lazy_rings_pay_the_distinguisher_price_but_still_succeed() {
        let n = 8;
        let config = RingConfig::builder(n)
            .random_positions(77)
            .alternating_chirality()
            .build()
            .unwrap();
        let ids = IdAssignment::random(n, 256, 9);
        let mut net = Network::new(&config, ids, Model::Lazy).unwrap();
        let discovery = discover_locations_lazy(&mut net).unwrap();
        assert_eq!(discovery.views().len(), n);
        assert!(discovery.views().all(|v| v.len() == n));
        assert!(verify_location_discovery(&net, &discovery));
    }
}
