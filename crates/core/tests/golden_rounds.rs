//! Golden round counts for location discovery.
//!
//! The byte-identity suites compare a build only with itself, so a change
//! that moves every run's round count by the same amount passes them. These
//! pins hold `discover_locations` to the round counts it had before the
//! link exchanges began reusing repeated pairs: perceptive even `n` (its
//! collision-link floods are where reuse applies), basic odd `n` and the
//! lazy model, at two universe factors each. The perceptive pins also
//! cover the chirality settings of Tables I and II, taken before the
//! measurement phase began keeping one knowledge structure per label
//! parity.

use ring_protocols::locate::{discover_locations, verify_location_discovery};
use ring_protocols::{IdAssignment, Network};
use ring_sim::{Model, RingConfig};

/// Runs `discover_locations` on a random ring and returns its rounds,
/// after checking the maps against the ground truth.
fn rounds(model: Model, n: usize, factor: u64, seed: u64) -> u64 {
    let config = RingConfig::builder(n)
        .random_positions(seed)
        .random_chirality(seed + 1)
        .build()
        .unwrap();
    rounds_on(&config, model, factor, seed)
}

/// [`rounds`] on a given ring.
fn rounds_on(config: &RingConfig, model: Model, factor: u64, seed: u64) -> u64 {
    let n = config.len();
    let ids = IdAssignment::random(n, factor * n as u64, seed + 2);
    let mut net = Network::new(config, ids, model).unwrap();
    let discovery = discover_locations(&mut net).unwrap();
    assert!(
        verify_location_discovery(&net, &discovery),
        "{model} n={n} N={factor}n seed={seed}: wrong maps"
    );
    assert_eq!(discovery.rounds(), net.rounds_used());
    discovery.rounds()
}

#[test]
fn perceptive_even_round_counts_are_pinned() {
    for (n, factor, seed, expected) in [(128, 4, 7, 6311), (128, 64, 8, 8283), (130, 4, 9, 6312)] {
        assert_eq!(
            rounds(Model::Perceptive, n, factor, seed),
            expected,
            "perceptive n={n} N={factor}n seed={seed}"
        );
    }
}

/// Perceptive even `n` with alternating chirality (Table I's even-`n`
/// setting) and aligned chirality (Table II's common sense of direction).
#[test]
fn perceptive_table_chirality_round_counts_are_pinned() {
    for (alternating, n, factor, seed, expected) in [
        (true, 256, 64, 10, 9029),
        (true, 130, 4, 11, 6441),
        (false, 256, 64, 12, 9029),
        (false, 130, 4, 13, 6441),
    ] {
        let builder = RingConfig::builder(n).random_positions(seed);
        let config = if alternating {
            builder.alternating_chirality()
        } else {
            builder.aligned_chirality()
        }
        .build()
        .unwrap();
        assert_eq!(
            rounds_on(&config, Model::Perceptive, factor, seed),
            expected,
            "perceptive n={n} N={factor}n seed={seed} alternating={alternating}"
        );
    }
}

#[test]
fn basic_odd_round_counts_are_pinned() {
    for (n, factor, seed, expected) in [(127, 4, 7, 139), (127, 64, 8, 143), (129, 4, 9, 142)] {
        assert_eq!(
            rounds(Model::Basic, n, factor, seed),
            expected,
            "basic n={n} N={factor}n seed={seed}"
        );
    }
}

#[test]
fn lazy_round_counts_are_pinned() {
    for (n, factor, seed, expected) in [(128, 4, 7, 142), (127, 64, 8, 143), (130, 4, 9, 144)] {
        assert_eq!(
            rounds(Model::Lazy, n, factor, seed),
            expected,
            "lazy n={n} N={factor}n seed={seed}"
        );
    }
}
