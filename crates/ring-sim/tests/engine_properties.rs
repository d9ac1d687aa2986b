//! Property tests validating the analytic engine against the event-driven
//! reference engine and against the rotation-index lemma (Lemma 1 of the
//! paper), for arbitrary configurations and direction assignments, on
//! fresh and rotated states.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ring_sim::prelude::*;
use ring_sim::AnalyticScratch;

/// Strategy: a ring size, a position seed and an objective direction vector
/// (optionally including idle agents).
fn round_inputs(allow_idle: bool) -> impl Strategy<Value = (usize, u64, Vec<ObjectiveDirection>)> {
    (5usize..24, any::<u64>()).prop_flat_map(move |(n, seed)| {
        let dir = if allow_idle {
            prop_oneof![
                Just(ObjectiveDirection::Clockwise),
                Just(ObjectiveDirection::Anticlockwise),
                Just(ObjectiveDirection::Idle),
            ]
            .boxed()
        } else {
            prop_oneof![
                Just(ObjectiveDirection::Clockwise),
                Just(ObjectiveDirection::Anticlockwise),
            ]
            .boxed()
        };
        (Just(n), Just(seed), proptest::collection::vec(dir, n))
    })
}

/// The state after `prior` rounds of random directions (idles included):
/// the engines are then compared at a random rotation offset.
fn rotated_state(config: &RingConfig, prior: usize, seed: u64) -> RingState<'_> {
    use ObjectiveDirection::{Anticlockwise, Clockwise, Idle};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ring = RingState::new(config);
    let mut bufs = RoundBuffers::new();
    for _ in 0..prior {
        let dirs: Vec<ObjectiveDirection> = (0..config.len())
            .map(|_| [Clockwise, Anticlockwise, Idle][rng.gen_range(0..3)])
            .collect();
        ring.execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
            .unwrap();
    }
    ring
}

fn close(a: f64, b: f64) -> bool {
    let d = (a - b).abs();
    d < 1e-6 || (1.0 - d).abs() < 1e-6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lemma 1: in every round each agent ends at the initial position of
    /// the agent `(n_C - n_A) mod n` places further clockwise, also with
    /// idle agents present.
    #[test]
    fn rotation_index_lemma_holds((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n).random_positions(seed).build().unwrap();
        let mut ring = RingState::new(&config);
        let expected = rotation_index(&dirs);
        let rotation = ring
            .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut RoundBuffers::new())
            .unwrap();
        prop_assert_eq!(rotation, expected);
        for agent in 0..n {
            prop_assert_eq!(ring.slot_of_agent(agent), (agent + expected.shift) % n);
        }
    }

    /// The analytic engine and the event-driven engine agree on the
    /// clockwise displacement of every agent (any round, idles allowed),
    /// at the rotation offset left by 0–8 prior rounds.
    #[test]
    fn engines_agree_on_displacement(
        (n, seed, dirs) in round_inputs(true),
        (prior, prior_seed) in (0usize..=8, any::<u64>()),
    ) {
        let config = RingConfig::builder(n).random_positions(seed).build().unwrap();
        let ring = rotated_state(&config, prior, prior_seed);
        let mut analytic = AnalyticScratch::new();
        AnalyticEngine::new().execute_into(ring.config(), ring.offset(), &dirs, &mut analytic);
        let traj = EventEngine::new().simulate(ring.config(), ring.offset(), &dirs);
        for agent in 0..n {
            let expected = analytic.cw_displacement[agent].as_fraction();
            let got = traj.cw_displacement[agent];
            prop_assert!(close(expected, got),
                "agent {}: analytic {} vs event {}", agent, expected, got);
        }
    }

    /// The analytic engine and the event-driven engine agree on every
    /// agent's first-collision distance in all-moving rounds
    /// (Proposition 4), at the rotation offset left by 0–8 prior rounds.
    #[test]
    fn engines_agree_on_first_collisions(
        (n, seed, dirs) in round_inputs(false),
        (prior, prior_seed) in (0usize..=8, any::<u64>()),
    ) {
        let config = RingConfig::builder(n).random_positions(seed).build().unwrap();
        let ring = rotated_state(&config, prior, prior_seed);
        let mut analytic = AnalyticScratch::new();
        AnalyticEngine::new().execute_into(ring.config(), ring.offset(), &dirs, &mut analytic);
        let traj = EventEngine::new().simulate(ring.config(), ring.offset(), &dirs);
        for agent in 0..n {
            match (analytic.first_collision[agent], traj.first_collision[agent]) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert!(
                    (a.as_fraction() - b).abs() < 1e-6,
                    "agent {}: analytic {} vs event {}", agent, a.as_fraction(), b
                ),
                (a, b) => prop_assert!(false, "agent {}: {:?} vs {:?}", agent, a, b),
            }
        }
    }

    /// A `SINGLEROUND` followed by the corresponding `REVERSEDROUND` puts
    /// every agent back where it started (the basic tool used throughout
    /// the paper's perceptive-model algorithms).
    #[test]
    fn reversed_round_undoes_single_round((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n)
            .random_positions(seed)
            .random_chirality(seed ^ 0xabcdef)
            .build()
            .unwrap();
        let mut ring = RingState::new(&config);
        let reversed: Vec<ObjectiveDirection> = dirs.iter().map(|d| d.opposite()).collect();
        let mut bufs = RoundBuffers::new();
        ring.execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs).unwrap();
        ring.execute_round_objective_into(&reversed, EngineKind::Analytic, &mut bufs).unwrap();
        prop_assert!(ring.at_initial_positions());
    }

    /// `dist()` is zero for every agent exactly when the rotation index is
    /// zero (the 1-round zero-rotation probe used by the protocols).
    #[test]
    fn dist_zero_iff_rotation_zero((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n)
            .random_positions(seed)
            .random_chirality(seed.rotate_left(7))
            .build()
            .unwrap();
        let mut ring = RingState::new(&config);
        let mut bufs = RoundBuffers::new();
        let rotation = ring
            .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
            .unwrap();
        for obs in &bufs.observations {
            prop_assert_eq!(obs.dist.is_zero(), rotation.is_zero());
        }
    }
}
