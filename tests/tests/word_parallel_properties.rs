//! Property tests for the word-parallel performance core: the fast
//! constructions must still produce *valid* combinatorial families (checked
//! with the same verifiers as the element-wise reference implementations),
//! and the batched round execution must agree with the event-driven
//! reference engine on whole random schedules.

use proptest::prelude::*;
use ring_combinat::{reference, Distinguisher, IdSet, SelectiveFamily};
use ring_sim::prelude::*;

/// Strategy: ring size, position/chirality seed and a short schedule of
/// all-moving direction rounds.
fn schedule() -> impl Strategy<Value = (usize, u64, Vec<Vec<LocalDirection>>)> {
    (5usize..14, any::<u64>()).prop_flat_map(|(n, seed)| {
        let dir = prop_oneof![Just(LocalDirection::Right), Just(LocalDirection::Left)].boxed();
        (
            Just(n),
            Just(seed),
            proptest::collection::vec(proptest::collection::vec(dir, n), 6),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The word-parallel `Distinguisher::random` (one `u64` per 64
    /// identifiers) still passes the sampling verifier for every parameter
    /// combination, like the per-identifier loop it replaced.
    #[test]
    fn word_parallel_distinguishers_verify(
        universe_exp in 6u32..10,
        n_exp in 1u32..4,
        seed in 0u64..1_000,
    ) {
        let universe = 1u64 << universe_exp;
        let n = 1usize << n_exp;
        prop_assert!(2 * n as u64 <= universe);
        let d = Distinguisher::random(universe, n, seed);
        prop_assert_eq!(d.verify_sampled(n, 150, seed ^ 0xa5), 0);
        // Same family size as the reference construction.
        prop_assert_eq!(
            d.len(),
            reference::distinguisher_random_reference(universe, n, seed).len()
        );
    }

    /// The implicit `SelectiveFamily::random` (`p = 2^-j` as `j` zero bits
    /// of one membership mix) passes the sampling verifier.
    #[test]
    fn word_parallel_selective_families_verify(
        universe_exp in 5u32..9,
        n_exp in 1u32..4,
        seed in 0u64..1_000,
    ) {
        let universe = 1u64 << universe_exp;
        let n = 1usize << n_exp;
        prop_assert!(n as u64 <= universe);
        let f = SelectiveFamily::random(universe, n, seed);
        prop_assert_eq!(f.verify_sampled(n, 150, seed ^ 0x5a), 0);
    }

    /// Word-parallel bit buckets match the scalar membership rule at
    /// arbitrary universe sizes (word-boundary cases included via the raw
    /// size parameter).
    #[test]
    fn word_parallel_bit_buckets_match(universe in 1u64..600, bit in 0u32..10) {
        let hi = IdSet::with_bit(universe, bit, true);
        let lo = IdSet::with_bit(universe, bit, false);
        prop_assert!(hi.is_disjoint(&lo));
        prop_assert_eq!(hi.len() + lo.len(), universe as usize);
        for id in 1..=universe {
            prop_assert_eq!(hi.contains(id), (id >> bit) & 1 == 1);
        }
    }

    /// The analytic and event-driven engines agree on the round outcomes of
    /// whole random schedules executed through the batched
    /// `execute_round_into` path: exact agreement on rotation, observations
    /// and slots, collision distances within f64 rounding of the event
    /// engine (≤ 2 ticks).
    #[test]
    fn engines_agree_on_round_outcomes_for_random_schedules(
        (n, seed, rounds) in schedule(),
    ) {
        let config = RingConfig::builder(n)
            .random_positions(seed)
            .random_chirality(seed ^ 0xdead)
            .build()
            .unwrap();
        let mut analytic = RingState::new(&config);
        let mut event = RingState::new(&config);
        let mut analytic_bufs = RoundBuffers::new();
        let mut event_bufs = RoundBuffers::new();
        for dirs in &rounds {
            let rot_a = analytic
                .execute_round_into(dirs, EngineKind::Analytic, &mut analytic_bufs)
                .unwrap();
            let rot_e = event
                .execute_round_into(dirs, EngineKind::Event, &mut event_bufs)
                .unwrap();
            prop_assert_eq!(rot_a, rot_e);
            prop_assert_eq!(analytic.offset(), event.offset());
            for (a, e) in analytic_bufs.observations.iter().zip(&event_bufs.observations) {
                prop_assert_eq!(a.dist, e.dist);
                match (a.coll, e.coll) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        let delta = x.ticks().abs_diff(y.ticks());
                        prop_assert!(delta <= 2, "collision mismatch: {x:?} vs {y:?}");
                    }
                    (x, y) => prop_assert!(false, "collision presence mismatch: {x:?} vs {y:?}"),
                }
            }
        }
    }
}
