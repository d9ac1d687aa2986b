//! Integration of the combinatorial substrate with the protocols
//! (Proposition 22's correspondence between distinguishers and the weak
//! nontrivial-move problem) and smoke tests of the experiment harness.

use ring_combinat::{Distinguisher, IdSet};
use ring_experiments::report::aggregate;
use ring_experiments::tables::table1_case;
use ring_experiments::{lower_bounds, SweepSpec};
use ring_protocols::coordination::probe::probe_nonzero;
use ring_protocols::structures::fresh_structures;
use ring_protocols::{IdAssignment, Network};
use ring_sim::{LocalDirection, Model, RingConfig};

/// Proposition 22, executed: running an explicitly verified
/// `(N, n/2)`-distinguisher as a sequence of rounds on a perfectly balanced
/// ring produces a weakly nontrivial move within the family.
#[test]
fn an_explicit_distinguisher_breaks_a_balanced_ring() {
    let n = 8usize;
    let universe = 24u64;
    let distinguisher = Distinguisher::random(universe, n / 2, 77);
    // Exhaustive verification is too expensive at this size; sampling must
    // find no counterexample.
    assert_eq!(distinguisher.verify_sampled(n / 2, 300, 5), 0);

    let config = RingConfig::builder(n)
        .random_positions(3)
        .alternating_chirality()
        .build()
        .unwrap();
    let ids = IdAssignment::random(n, universe, 11);
    let mut net = Network::new(&config, ids.clone(), Model::Basic).unwrap();

    let mut broke_symmetry = false;
    for set in distinguisher.sets() {
        let dirs: Vec<LocalDirection> = (0..n)
            .map(|agent| LocalDirection::from_bit(set.contains(ids.id(agent).value())))
            .collect();
        if probe_nonzero(&mut net, &dirs).unwrap() {
            broke_symmetry = true;
            break;
        }
    }
    assert!(
        broke_symmetry,
        "a distinguisher must produce some weakly nontrivial round (Prop 22)"
    );
}

/// The set algebra used throughout the leader elections: the bit buckets of
/// the identifier universe partition it, and the emptiness-testing prefix
/// sets nest.
#[test]
fn id_set_bit_buckets_partition_the_universe() {
    let universe = 50u64;
    for bit in 0..6 {
        let ones = IdSet::with_bit(universe, bit, true);
        let zeros = IdSet::with_bit(universe, bit, false);
        assert!(ones.is_disjoint(&zeros));
        assert_eq!(ones.len() + zeros.len(), universe as usize);
    }
}

/// The Table I harness produces verified measurements on a tiny sweep and
/// marks exactly the basic/even location-discovery cells unsolvable.
#[test]
fn table1_harness_smoke_test() {
    let spec = SweepSpec {
        sizes: vec![7, 8],
        universe_factors: vec![4],
        repetitions: 1,
        seed: 1,
        structure_seeds: None,
        faults: None,
    };
    let structures = fresh_structures();
    let measurements: Vec<_> = spec
        .cases()
        .iter()
        .flat_map(|case| table1_case(case, &structures))
        .collect();
    assert!(measurements.iter().all(|m| m.verified));
    let unsolvable: Vec<_> = measurements.iter().filter(|m| m.value.is_none()).collect();
    assert_eq!(unsolvable.len(), 1);
    assert_eq!(unsolvable[0].quantity, "location discovery");
    // Aggregation keeps one row per cell.
    let agg = aggregate(&measurements);
    assert!(agg.len() <= measurements.len());
}

/// The Lemma 5 parity audit holds on a larger sample than the unit tests use.
#[test]
fn lemma5_holds_on_a_large_sample() {
    let m = lower_bounds::lemma5_parity_audit(32, 1024, 3000, 9);
    assert!(m.verified);
}
