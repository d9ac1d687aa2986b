//! Exact oracle for undo rounds and derived cumulative distances.
//!
//! [`Network::undo_last`] and [`Network::mark`]/[`Network::rewind`] revert
//! rounds by Lemma 1 instead of simulating the reversed directions, and
//! [`Network::observed_cumulative_dist`] is derived from the ring offset
//! instead of summed. These tests hold both to what they stand for:
//!
//! * at the network level, an undo must leave exactly the state that
//!   executing the reversed directions through the kernel leaves — offset,
//!   every agent's cumulative distance, the round count, and what the next
//!   round observes;
//! * every agent's derived cumulative distance equals the running sum of
//!   its `dist` observations, in every model, on both engines, with and
//!   without a fault plan;
//! * at the protocol level, every perceptive protocol built on undo rounds
//!   must give the same results, round counts and end state on an analytic
//!   network as on an event-engine network;
//! * the error cases refuse — an active fault plan among them — and a
//!   round limit fires at the same round as when every reversal is an
//!   explicit kernel round;
//! * [`Network::step_pair_into`], a round and its complement each followed
//!   by its undo, equals those four calls tick for tick — both rounds'
//!   first collisions, state, rotation, errors — on both engines, under a
//!   fault plan and at a round limit;
//! * a pair that repeats the last one through the buffers it wrote is not
//!   simulated again, so every call is checked against a twin network
//!   that runs each pair as its four calls and so never reuses one, in
//!   random sequences that mix repeated pairs with other pair buffers,
//!   forward rounds, undos, marks and rewinds, clones sharing the buffers,
//!   a round limit a few rounds away and an active fault plan;
//!   and a frame exchange, which repeats its zero planes, is checked
//!   against the same planes sent as separate bit exchanges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ring_protocols::coordination::leader::elect_leader_with_move;
use ring_protocols::exec::{PairBuffers, StepBuffers};
use ring_protocols::perceptive::dissemination::{flood_max, flood_nearest};
use ring_protocols::perceptive::distances::discover_locations_perceptive;
use ring_protocols::perceptive::link::{NeighborFrames, RingLink};
use ring_protocols::perceptive::neighbors::discover_neighbors;
use ring_protocols::perceptive::nmove::nmove_s;
use ring_protocols::perceptive::ringdist::ring_distances;
use ring_protocols::{FaultParams, FaultPlan, IdAssignment, Network, ProtocolError};
use ring_sim::{Chirality, EngineKind, Frame, LocalDirection, Model, Observation, RingConfig};

/// The ways a ring can mix chiralities.
fn configs(n: usize, seed: u64) -> Vec<RingConfig> {
    let builder = || RingConfig::builder(n).random_positions(seed);
    vec![
        builder().aligned_chirality().build().unwrap(),
        builder().alternating_chirality().build().unwrap(),
        builder().random_chirality(seed + 1).build().unwrap(),
        builder()
            .explicit_chirality((0..n).map(|i| {
                if i == 0 {
                    Chirality::Reversed
                } else {
                    Chirality::Aligned
                }
            }))
            .build()
            .unwrap(),
    ]
}

/// Everything an undo may change, compared exactly.
fn assert_same_state(rewound: &Network<'_>, kernel: &Network<'_>, context: &str) {
    assert_eq!(
        rewound.ground_truth_offset(),
        kernel.ground_truth_offset(),
        "{context}: offset"
    );
    assert_eq!(
        rewound.rounds_used(),
        kernel.rounds_used(),
        "{context}: rounds"
    );
    for agent in 0..rewound.len() {
        assert_eq!(
            rewound.observed_cumulative_dist(agent),
            kernel.observed_cumulative_dist(agent),
            "{context}: cumulative distance of agent {agent}"
        );
    }
}

fn random_directions(rng: &mut StdRng, n: usize, idle: bool) -> Vec<LocalDirection> {
    (0..n)
        .map(|_| match rng.gen_range(0..if idle { 3u32 } else { 2 }) {
            0 => LocalDirection::Right,
            1 => LocalDirection::Left,
            _ => LocalDirection::Idle,
        })
        .collect()
}

fn reversed(dirs: &[LocalDirection]) -> Vec<LocalDirection> {
    dirs.iter().map(|d| d.opposite()).collect()
}

/// Steps both networks forward with the same directions and checks that
/// they observe the same.
fn step_both(
    rewound: &mut Network<'_>,
    kernel: &mut Network<'_>,
    dirs: &[LocalDirection],
    bufs: (&mut StepBuffers, &mut StepBuffers),
    context: &str,
) {
    rewound.step_into(dirs, bufs.0).unwrap();
    kernel.step_into(dirs, bufs.1).unwrap();
    assert_eq!(
        bufs.0.observations(),
        bufs.1.observations(),
        "{context}: observations"
    );
    assert_same_state(rewound, kernel, context);
}

#[test]
fn undo_last_equals_the_kernel_reversal() {
    for n in 5..=8usize {
        for (c, config) in configs(n, 40 + n as u64).iter().enumerate() {
            for model in [Model::Perceptive, Model::Lazy, Model::Basic] {
                let ids = IdAssignment::random(n, 16 * n as u64, n as u64);
                let mut rewound = Network::new(config, ids.clone(), model).unwrap();
                let mut kernel = Network::new(config, ids, model).unwrap();
                let (mut a, mut b) = (StepBuffers::new(), StepBuffers::new());
                let mut rng = StdRng::seed_from_u64(1000 * n as u64 + c as u64);
                for round in 0..60 {
                    let context = format!("n={n} config={c} {model} round {round}");
                    let dirs = random_directions(&mut rng, n, model.allows_idle());
                    step_both(&mut rewound, &mut kernel, &dirs, (&mut a, &mut b), &context);
                    if rng.gen::<bool>() {
                        rewound.undo_last(&mut a).unwrap();
                        kernel.step_into(&reversed(&dirs), &mut b).unwrap();
                        assert!(a.observations().is_empty(), "{context}: stale observations");
                        assert_eq!(
                            rewound.ground_truth_last_rotation(),
                            kernel.ground_truth_last_rotation(),
                            "{context}: rotation"
                        );
                        assert_same_state(&rewound, &kernel, &context);
                    }
                }
            }
        }
    }
}

#[test]
fn rewind_equals_the_kernel_reversals_in_reverse_order() {
    for n in 5..=8usize {
        for (c, config) in configs(n, 70 + n as u64).iter().enumerate() {
            let ids = IdAssignment::random(n, 16 * n as u64, 3 + n as u64);
            let model = if c % 2 == 0 {
                Model::Perceptive
            } else {
                Model::Lazy
            };
            let mut rewound = Network::new(config, ids.clone(), model).unwrap();
            let mut kernel = Network::new(config, ids, model).unwrap();
            let (mut a, mut b) = (StepBuffers::new(), StepBuffers::new());
            let mut rng = StdRng::seed_from_u64(7000 + 10 * n as u64 + c as u64);
            for k in 1..=64usize {
                let context = format!("n={n} config={c} k={k}");
                let mark = rewound.mark();
                let mut log = Vec::new();
                for _ in 0..k {
                    let dirs = random_directions(&mut rng, n, model.allows_idle());
                    step_both(&mut rewound, &mut kernel, &dirs, (&mut a, &mut b), &context);
                    log.push(dirs);
                }
                rewound.rewind(mark, &mut a).unwrap();
                for dirs in log.iter().rev() {
                    kernel.step_into(&reversed(dirs), &mut b).unwrap();
                }
                assert!(a.observations().is_empty(), "{context}: stale observations");
                assert_eq!(
                    rewound.ground_truth_last_rotation(),
                    kernel.ground_truth_last_rotation(),
                    "{context}: rotation"
                );
                assert_same_state(&rewound, &kernel, &context);
            }
            // The next round still observes the same.
            let dirs = random_directions(&mut rng, n, model.allows_idle());
            step_both(&mut rewound, &mut kernel, &dirs, (&mut a, &mut b), "after");
        }
    }
}

/// A perceptive network on the analytic engine and one on the event
/// engine.
fn engine_pair<'a>(config: &'a RingConfig, ids: &IdAssignment) -> (Network<'a>, Network<'a>) {
    (
        Network::new(config, ids.clone(), Model::Perceptive).unwrap(),
        Network::new(config, ids.clone(), Model::Perceptive)
            .unwrap()
            .with_engine(EngineKind::Event),
    )
}

fn deployment(n: usize, seed: u64) -> (RingConfig, IdAssignment) {
    let config = RingConfig::builder(n)
        .random_positions(seed)
        .random_chirality(seed + 1)
        .build()
        .unwrap();
    (config, IdAssignment::random(n, 8 * n as u64, seed + 2))
}

#[test]
fn collision_link_protocols_agree_across_undo_paths() {
    for (n, seed) in [(6usize, 11u64), (8, 12), (9, 13)] {
        let (config, ids) = deployment(n, seed);
        let (mut rewound, mut kernel) = engine_pair(&config, &ids);

        let map_r = discover_neighbors(&mut rewound).unwrap();
        let map_k = discover_neighbors(&mut kernel).unwrap();
        assert_eq!(map_r.infos(), map_k.infos(), "n={n}: neighbours");
        assert_eq!(map_r.rounds(), map_k.rounds());
        assert!(rewound.ground_truth_at_initial_positions());
        assert_same_state(&rewound, &kernel, "neighbours");

        let link = RingLink::from_neighbor_map(&map_r);
        let bits: Vec<bool> = (0..n).map(|i| (i * 5 + n) % 3 == 0).collect();
        let got = link.exchange_bits(&mut rewound, &bits).unwrap();
        assert_eq!(got, link.exchange_bits(&mut kernel, &bits).unwrap());
        assert_same_state(&rewound, &kernel, "bits");

        let values: Vec<Option<u64>> = (0..n)
            .map(|i| (i % 3 != 1).then_some(i as u64 * 7 % 16))
            .collect();
        let got = link.exchange_frames(&mut rewound, &values, 4).unwrap();
        assert_eq!(got, link.exchange_frames(&mut kernel, &values, 4).unwrap());
        assert_same_state(&rewound, &kernel, "frames");

        let got = flood_max(&mut rewound, &link, &values, 4, 3).unwrap();
        assert_eq!(got, flood_max(&mut kernel, &link, &values, 4, 3).unwrap());
        assert_same_state(&rewound, &kernel, "flood max");

        let frames = vec![Frame::identity(); n];
        let got = flood_nearest(&mut rewound, &link, &frames, &values, 4, 3).unwrap();
        assert_eq!(
            got,
            flood_nearest(&mut kernel, &link, &frames, &values, 4, 3).unwrap()
        );
        assert_same_state(&rewound, &kernel, "flood nearest");
        assert!(rewound.ground_truth_at_initial_positions());
    }
}

#[test]
fn ring_distances_agree_across_undo_paths() {
    for (n, seed) in [(6usize, 21u64), (8, 22), (11, 23)] {
        let (config, ids) = deployment(n, seed);
        let (mut rewound, mut kernel) = engine_pair(&config, &ids);
        let (link, _) = RingLink::establish(&mut rewound).unwrap();
        RingLink::establish(&mut kernel).unwrap();
        // Frames that make every agent's right the objective clockwise.
        let frames: Vec<Frame> = (0..n)
            .map(|agent| Frame::new(!config.chirality(agent).is_aligned()))
            .collect();
        let mut leader = vec![false; n];
        leader[n / 2] = true;
        let r = ring_distances(&mut rewound, &link, &frames, &leader).unwrap();
        let k = ring_distances(&mut kernel, &link, &frames, &leader).unwrap();
        assert_eq!(r.labels(), k.labels(), "n={n}: labels");
        assert_eq!(r.rounds(), k.rounds(), "n={n}: rounds");
        assert_same_state(&rewound, &kernel, "ring distances");
    }
}

#[test]
fn location_discovery_agrees_across_undo_paths() {
    for (n, seed) in [(6usize, 31u64), (8, 32)] {
        let (config, ids) = deployment(n, seed);
        let (mut rewound, mut kernel) = engine_pair(&config, &ids);
        let r = discover_locations_perceptive(&mut rewound).unwrap();
        let k = discover_locations_perceptive(&mut kernel).unwrap();
        let (rv, kv): (Vec<_>, Vec<_>) = (r.views().collect(), k.views().collect());
        assert_eq!(rv, kv, "n={n}: views");
        assert_eq!(r.frames(), k.frames(), "n={n}: frames");
        assert_eq!(r.rounds(), k.rounds(), "n={n}: rounds");
        assert_same_state(&rewound, &kernel, "distances");
    }
}

#[test]
fn undo_refuses_when_there_is_nothing_to_undo() {
    let (config, ids) = deployment(7, 41);
    let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
    let mut bufs = StepBuffers::new();
    let refused =
        |r: Result<(), ProtocolError>| matches!(r, Err(ProtocolError::NothingToUndo { .. }));
    let dirs = vec![LocalDirection::Right; 7];

    // Nothing ran yet.
    assert!(refused(net.undo_last(&mut bufs)));
    // A second undo in a row.
    net.step_into(&dirs, &mut bufs).unwrap();
    net.undo_last(&mut bufs).unwrap();
    assert!(refused(net.undo_last(&mut bufs)));
    // After a schedule.
    net.run_schedule(
        &mut bufs,
        |k, d| {
            d.extend(std::iter::repeat_n(LocalDirection::Left, 7));
            k < 3
        },
        |_| false,
    )
    .unwrap();
    assert!(refused(net.undo_last(&mut bufs)));
    // A refused undo changes nothing.
    assert_eq!(net.rounds_used(), 5);

    // A schedule is undone with a mark.
    let offset = net.ground_truth_offset();
    let mark = net.mark();
    net.run_schedule(
        &mut bufs,
        |k, d| {
            d.extend(std::iter::repeat_n(LocalDirection::Right, 7));
            k < 4
        },
        |_| false,
    )
    .unwrap();
    net.rewind(mark, &mut bufs).unwrap();
    assert_eq!(net.ground_truth_offset(), offset);
    assert_eq!(net.rounds_used(), 13);
    assert!(refused(net.rewind(mark, &mut bufs)));
}

/// With a round limit, an undo that would cross it rewinds only the
/// rounds the limit allows: the limit fires at the same round, with the
/// same state, as when every reversal is an explicit kernel round.
#[test]
fn round_limit_fires_as_on_the_kernel_path() {
    let (config, ids) = deployment(8, 51);
    let dirs: Vec<LocalDirection> = (0..8)
        .map(|i| LocalDirection::from_bit(i % 3 == 0))
        .collect();
    for limit in 1..=9u64 {
        let mut rewound = Network::new(&config, ids.clone(), Model::Perceptive)
            .unwrap()
            .with_round_limit(limit);
        let mut kernel = Network::new(&config, ids.clone(), Model::Perceptive)
            .unwrap()
            .with_round_limit(limit);
        let (mut a, mut b) = (StepBuffers::new(), StepBuffers::new());
        let context = format!("limit {limit}");

        // One forward round and its undo.
        let r = rewound
            .step_into(&dirs, &mut a)
            .and_then(|()| rewound.undo_last(&mut a));
        let k = kernel
            .step_into(&dirs, &mut b)
            .and_then(|()| kernel.step_into(&reversed(&dirs), &mut b));
        assert_eq!(r, k, "{context}: undo");
        assert_same_state(&rewound, &kernel, &context);
        if r.is_err() {
            continue;
        }

        // Four forward rounds and a rewind, which the limit may cut short.
        let mark = rewound.mark();
        let mut r = Ok(());
        let mut k = Ok(());
        for round in 0..4 {
            let dirs: Vec<LocalDirection> = (0..8)
                .map(|i| LocalDirection::from_bit((i + round) % 3 == 0))
                .collect();
            r = r.and_then(|()| rewound.step_into(&dirs, &mut a));
            k = k.and_then(|()| kernel.step_into(&dirs, &mut b));
        }
        let r = r.and_then(|()| rewound.rewind(mark, &mut a));
        let k = k.and_then(|()| {
            (0..4).rev().try_for_each(|round| {
                let dirs: Vec<LocalDirection> = (0..8)
                    .map(|i| LocalDirection::from_bit((i + round) % 3 != 0))
                    .collect();
                kernel.step_into(&dirs, &mut b)
            })
        });
        assert_eq!(r, k, "{context}: rewind");
        assert_same_state(&rewound, &kernel, &context);
    }
}

/// A whole protocol under a round limit times out at the same round on
/// both engines.
#[test]
fn protocols_time_out_alike_on_both_undo_paths() {
    let (config, ids) = deployment(8, 61);
    let full = {
        let mut net = Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
        let nm = nmove_s(&mut net, 0x5eed).unwrap();
        elect_leader_with_move(&mut net, &nm).unwrap();
        RingLink::establish(&mut net).unwrap();
        net.rounds_used()
    };
    for limit in [full - 3, full - 2, full - 1, full] {
        let (rewound, kernel) = engine_pair(&config, &ids);
        let mut rewound = rewound.with_round_limit(limit);
        let mut kernel = kernel.with_round_limit(limit);
        let run = |net: &mut Network<'_>| {
            let nm = nmove_s(net, 0x5eed)?;
            elect_leader_with_move(net, &nm)?;
            RingLink::establish(net).map(|(link, rounds)| (link.infos().to_vec(), rounds))
        };
        assert_eq!(run(&mut rewound), run(&mut kernel), "limit {limit}");
        assert_same_state(&rewound, &kernel, "timeout");
    }
}

/// A fault plan that drops three moves in ten.
fn dropping_plan(n: usize, seed: u64) -> FaultPlan {
    let params = FaultParams {
        drop_per_mille: 300,
        ..FaultParams::default()
    };
    FaultPlan::new(params, n, seed)
}

/// Every agent's derived cumulative distance equals the running sum of its
/// `dist` observations after every forward round, and an undo takes back
/// exactly the undone round's observations. The event engine runs only at
/// small `n`, where its debug build is quick.
#[test]
fn cumulative_distances_are_the_sum_of_observations() {
    const C: u64 = ring_sim::CIRCUMFERENCE;
    let sizes = [
        (5usize, true),
        (8, true),
        (13, true),
        (16, true),
        (64, false),
        (127, false),
    ];
    for (n, event_too) in sizes {
        let engines: &[EngineKind] = if event_too {
            &[EngineKind::Analytic, EngineKind::Event]
        } else {
            &[EngineKind::Analytic]
        };
        for (c, config) in configs(n, 90 + n as u64).iter().enumerate() {
            for model in [Model::Basic, Model::Lazy, Model::Perceptive] {
                for &engine in engines {
                    for faulty in [false, true] {
                        let context =
                            format!("n={n} config={c} {model} {engine:?} faulty={faulty}");
                        let ids = IdAssignment::random(n, 16 * n as u64, n as u64);
                        let mut net = Network::new(config, ids, model).unwrap();
                        if faulty {
                            net = net.with_faults(dropping_plan(n, 5 + c as u64));
                        }
                        let mut net = net.with_engine(engine);
                        let mut bufs = StepBuffers::new();
                        let mut sums = vec![0u64; n];
                        let mut rng = StdRng::seed_from_u64(n as u64 * 31 + c as u64);
                        for round in 0..24 {
                            let dirs = random_directions(&mut rng, n, model.allows_idle());
                            net.step_into(&dirs, &mut bufs).unwrap();
                            for (sum, obs) in sums.iter_mut().zip(bufs.observations()) {
                                *sum = (*sum + obs.dist.ticks()) % C;
                            }
                            let undo = !faulty && rng.gen::<bool>();
                            if undo {
                                for (sum, obs) in sums.iter_mut().zip(bufs.observations()) {
                                    *sum = (*sum + C - obs.dist.ticks()) % C;
                                }
                                net.undo_last(&mut bufs).unwrap();
                            }
                            for (agent, &sum) in sums.iter().enumerate() {
                                assert_eq!(
                                    net.observed_cumulative_dist(agent).ticks(),
                                    sum,
                                    "{context} round {round} undo={undo}: agent {agent}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Under a fault plan that suppresses moves, undo and rewind refuse and
/// change nothing: a suppressed reversal is not an undo.
#[test]
fn undo_refuses_under_an_active_fault_plan() {
    let n = 9;
    let (config, ids) = deployment(n, 71);
    for model in [Model::Basic, Model::Perceptive] {
        let mut net = Network::new(&config, ids.clone(), model)
            .unwrap()
            .with_faults(dropping_plan(n, 3));
        let mut bufs = StepBuffers::new();
        let dirs: Vec<LocalDirection> = (0..n)
            .map(|i| LocalDirection::from_bit(i % 4 != 0))
            .collect();
        let mark = net.mark();
        for _ in 0..3 {
            net.step_into(&dirs, &mut bufs).unwrap();
        }
        let state = |net: &Network<'_>| {
            let dists: Vec<_> = (0..n).map(|a| net.observed_cumulative_dist(a)).collect();
            (net.ground_truth_offset(), net.rounds_used(), dists)
        };
        let before = state(&net);
        assert!(
            matches!(
                net.undo_last(&mut bufs),
                Err(ProtocolError::NothingToUndo { .. })
            ),
            "{model}: undo_last"
        );
        assert_eq!(state(&net), before, "{model}: undo_last changed the state");
        assert!(
            matches!(
                net.rewind(mark, &mut bufs),
                Err(ProtocolError::NothingToUndo { .. })
            ),
            "{model}: rewind"
        );
        assert_eq!(state(&net), before, "{model}: rewind changed the state");
    }
}

/// The first collisions of round A and of round B, in ticks.
type PairCollisions = (Vec<u64>, Vec<u64>);

/// Every agent's first collision in ticks, as a pair yields it.
fn collisions(bufs: &StepBuffers) -> Vec<u64> {
    bufs.observations()
        .iter()
        .map(Observation::coll_ticks)
        .collect()
}

/// What a pair yields through `pair`.
fn pair_collisions(pair: &PairBuffers) -> PairCollisions {
    (pair.collisions_a().to_vec(), pair.collisions_b().to_vec())
}

/// The four calls [`Network::step_pair_into`] stands for: round A, its
/// undo, round B (every direction flipped), its undo. Returns each
/// information round's first collisions, or the first error.
fn four_calls(
    net: &mut Network<'_>,
    dirs: &[LocalDirection],
    bufs: &mut StepBuffers,
) -> Result<PairCollisions, ProtocolError> {
    net.step_into(dirs, bufs)?;
    let a = collisions(bufs);
    net.undo_last(bufs)?;
    net.step_into(&reversed(dirs), bufs)?;
    let b = collisions(bufs);
    net.undo_last(bufs)?;
    Ok((a, b))
}

/// One fused pair against the four calls, both networks in the same state:
/// the same collisions (or error) and the same state after.
fn assert_pair_matches(
    fused: &mut Network<'_>,
    sequential: &mut Network<'_>,
    dirs: &[LocalDirection],
    bufs: (&mut PairBuffers, &mut StepBuffers),
    context: &str,
) {
    let (pair, seq) = bufs;
    let got = fused
        .step_pair_into(dirs, pair)
        .map(|()| pair_collisions(pair));
    let expected = four_calls(sequential, dirs, seq);
    assert_eq!(got, expected, "{context}: collisions");
    assert_eq!(
        fused.ground_truth_last_rotation(),
        sequential.ground_truth_last_rotation(),
        "{context}: rotation"
    );
    assert_same_state(fused, sequential, context);
}

#[test]
fn step_pair_equals_the_four_calls_on_small_rings() {
    for n in 5..=8usize {
        for (c, config) in configs(n, 110 + n as u64).iter().enumerate() {
            for model in [Model::Perceptive, Model::Lazy, Model::Basic] {
                for engine in [EngineKind::Analytic, EngineKind::Event] {
                    let ids = IdAssignment::random(n, 16 * n as u64, n as u64);
                    let network = || {
                        Network::new(config, ids.clone(), model)
                            .unwrap()
                            .with_engine(engine)
                    };
                    let (mut fused, mut sequential) = (network(), network());
                    let mut pair = PairBuffers::new();
                    let (mut x, mut y) = (StepBuffers::new(), StepBuffers::new());
                    let mut rng = StdRng::seed_from_u64(300 * n as u64 + c as u64);
                    for round in 0..40 {
                        let context = format!("n={n} config={c} {model} {engine:?} pair {round}");
                        // A forward round now and then, so pairs start from
                        // rotated states.
                        if rng.gen_range(0..3u32) == 0 {
                            let dirs = random_directions(&mut rng, n, model.allows_idle());
                            let bufs = (&mut x, &mut y);
                            step_both(&mut fused, &mut sequential, &dirs, bufs, &context);
                        }
                        let dirs = random_directions(&mut rng, n, model.allows_idle());
                        let bufs = (&mut pair, &mut x);
                        assert_pair_matches(&mut fused, &mut sequential, &dirs, bufs, &context);
                    }
                }
            }
        }
    }
}

/// The fused pair on the analytic engine against the four calls on the
/// event engine, which simulates every collision: the same collisions,
/// tick for tick.
#[test]
fn step_pair_equals_the_event_engine_sequence() {
    for n in 5..=8usize {
        for (c, config) in configs(n, 130 + n as u64).iter().enumerate() {
            let ids = IdAssignment::random(n, 16 * n as u64, 7 + n as u64);
            let mut fused = Network::new(config, ids.clone(), Model::Perceptive).unwrap();
            let mut event = Network::new(config, ids, Model::Perceptive)
                .unwrap()
                .with_engine(EngineKind::Event);
            let (mut pair, mut x) = (PairBuffers::new(), StepBuffers::new());
            let mut rng = StdRng::seed_from_u64(500 * n as u64 + c as u64);
            for round in 0..24 {
                let context = format!("n={n} config={c} pair {round}");
                let dirs = random_directions(&mut rng, n, false);
                let bufs = (&mut pair, &mut x);
                assert_pair_matches(&mut fused, &mut event, &dirs, bufs, &context);
            }
        }
    }
}

/// At the ring sizes of the perceptive tables, from rotated states.
#[test]
fn step_pair_equals_the_four_calls_on_large_rings() {
    for n in [64usize, 127, 512] {
        for (c, config) in configs(n, 150 + n as u64).iter().enumerate() {
            let ids = IdAssignment::random(n, 16 * n as u64, n as u64);
            let mut fused = Network::new(config, ids.clone(), Model::Perceptive).unwrap();
            let mut sequential = Network::new(config, ids, Model::Perceptive).unwrap();
            let mut pair = PairBuffers::new();
            let (mut x, mut y) = (StepBuffers::new(), StepBuffers::new());
            let mut rng = StdRng::seed_from_u64(700 * n as u64 + c as u64);
            for round in 0..8 {
                let context = format!("n={n} config={c} pair {round}");
                let dirs = random_directions(&mut rng, n, false);
                step_both(
                    &mut fused,
                    &mut sequential,
                    &dirs,
                    (&mut x, &mut y),
                    &context,
                );
                let dirs = random_directions(&mut rng, n, false);
                let bufs = (&mut pair, &mut x);
                assert_pair_matches(&mut fused, &mut sequential, &dirs, bufs, &context);
            }
        }
    }
}

/// A pair drops the mark in force and leaves nothing to undo, as the
/// undos of the four calls do.
#[test]
fn step_pair_drops_the_mark_and_leaves_nothing_to_undo() {
    let (config, ids) = deployment(9, 81);
    let refused =
        |r: Result<(), ProtocolError>| matches!(r, Err(ProtocolError::NothingToUndo { .. }));
    let dirs: Vec<LocalDirection> = (0..9)
        .map(|i| LocalDirection::from_bit(i % 4 != 1))
        .collect();
    for engine in [EngineKind::Analytic, EngineKind::Event] {
        let mut net = Network::new(&config, ids.clone(), Model::Perceptive)
            .unwrap()
            .with_engine(engine);
        let (mut a, mut pair) = (StepBuffers::new(), PairBuffers::new());
        let mark = net.mark();
        net.step_into(&dirs, &mut a).unwrap();
        let offset = net.ground_truth_offset();
        net.step_pair_into(&dirs, &mut pair).unwrap();
        assert_eq!(net.ground_truth_offset(), offset, "{engine:?}: offset");
        assert_eq!(net.rounds_used(), 5, "{engine:?}: rounds");
        assert!(refused(net.undo_last(&mut a)), "{engine:?}: undo a");
        assert!(refused(net.rewind(mark, &mut a)), "{engine:?}: rewind");
        assert_eq!(net.rounds_used(), 5, "{engine:?}: refusals count no round");
    }
}

/// Under an active fault plan the pair fails where the four calls do: at
/// the first undo, after round A has run.
#[test]
fn step_pair_fails_like_the_four_calls_under_a_fault_plan() {
    let n = 9;
    let (config, ids) = deployment(n, 91);
    for model in [Model::Basic, Model::Perceptive] {
        let network = || {
            Network::new(&config, ids.clone(), model)
                .unwrap()
                .with_faults(dropping_plan(n, 4))
        };
        let (mut fused, mut sequential) = (network(), network());
        let (mut pair, mut x) = (PairBuffers::new(), StepBuffers::new());
        let dirs: Vec<LocalDirection> = (0..n)
            .map(|i| LocalDirection::from_bit(i % 3 == 0))
            .collect();
        let got = fused.step_pair_into(&dirs, &mut pair);
        let expected = four_calls(&mut sequential, &dirs, &mut x).map(|_| ());
        assert!(
            matches!(got, Err(ProtocolError::NothingToUndo { .. })),
            "{model}: {got:?}"
        );
        assert_eq!(got, expected, "{model}");
        assert_eq!(fused.rounds_used(), 1, "{model}: round A ran");
        assert_same_state(&fused, &sequential, &format!("{model} faulty"));
    }
}

/// A round limit `k` rounds ahead, `k = 0..=4`: the pair fails at the same
/// round as the four calls and leaves the same state; with four rounds left
/// it runs fused and succeeds.
#[test]
fn step_pair_fails_like_the_four_calls_at_the_round_limit() {
    let (config, ids) = deployment(8, 101);
    let dirs: Vec<LocalDirection> = (0..8)
        .map(|i| LocalDirection::from_bit(i % 3 != 0))
        .collect();
    let warm: Vec<LocalDirection> = (0..8).map(|i| LocalDirection::from_bit(i < 3)).collect();
    for k in 0..=4u64 {
        let network = || Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
        let (mut fused, mut sequential) = (network(), network());
        let mut pair = PairBuffers::new();
        let (mut x, mut y) = (StepBuffers::new(), StepBuffers::new());
        let context = format!("limit +{k}");
        step_both(
            &mut fused,
            &mut sequential,
            &warm,
            (&mut x, &mut y),
            &context,
        );
        let limit = fused.rounds_used() + k;
        let mut fused = fused.with_round_limit(limit);
        let mut sequential = sequential.with_round_limit(limit);
        let bufs = (&mut pair, &mut x);
        assert_pair_matches(&mut fused, &mut sequential, &dirs, bufs, &context);
        let ok = fused.step_pair_into(&dirs, &mut pair).is_ok();
        assert!(!ok, "{context}: the limit is used up");
        assert_eq!(fused.rounds_used(), limit, "{context}: rounds");
    }
}

/// One call of a reuse-oracle sequence, on one of the networks alive.
#[derive(Clone, Copy, Debug)]
enum Call {
    /// A pair through pair buffers `buf`, with the directions of the
    /// previous pair when `repeat` holds.
    Pair {
        buf: usize,
        repeat: bool,
    },
    Step {
        buf: usize,
    },
    Undo {
        buf: usize,
    },
    Mark,
    Rewind {
        buf: usize,
    },
    /// A clone joins the networks alive and shares the buffer pools.
    Clone,
    /// A round limit `ahead` rounds from now.
    Limit {
        ahead: u64,
    },
    /// An active fault plan, on the engine the model picks or forced back
    /// to the analytic one.
    Faults {
        analytic: bool,
    },
}

/// The pair buffers of a reuse-oracle sequence.
const PAIR_POOL: usize = 3;

/// A random call; a round limit or a fault plan only when `late` holds,
/// since either soon ends the network's pairs.
fn random_call(rng: &mut StdRng, late: bool) -> Call {
    let buf = rng.gen_range(0..4usize);
    match rng.gen_range(0..if late { 100u32 } else { 94 }) {
        // Mostly the same pair buffers, so pairs repeat.
        0..=44 => Call::Pair {
            buf: 0,
            repeat: rng.gen_range(0..3u32) != 0,
        },
        // A repeat through buffers that hold an older pair, or none.
        45..=49 => Call::Pair {
            buf: 1,
            repeat: true,
        },
        50..=59 => Call::Pair {
            buf: rng.gen_range(0..PAIR_POOL),
            repeat: rng.gen::<bool>(),
        },
        60..=71 => Call::Step { buf },
        72..=79 => Call::Undo { buf },
        80..=84 => Call::Mark,
        85..=89 => Call::Rewind { buf },
        90..=93 => Call::Clone,
        94..=97 => Call::Limit {
            ahead: rng.gen_range(3..=5u64),
        },
        _ => Call::Faults {
            analytic: rng.gen::<bool>(),
        },
    }
}

/// What a call of a reuse-oracle sequence yields.
#[derive(Debug, PartialEq)]
enum Seen {
    Nothing,
    Round(Vec<Observation>),
    Pair(PairCollisions),
}

/// Rebuilds network `i` with `f` (the builders take the network by value).
fn rebuild<'a>(nets: &mut Vec<Network<'a>>, i: usize, f: impl FnOnce(Network<'a>) -> Network<'a>) {
    let net = nets.remove(i);
    nets.insert(i, f(net));
}

/// `net` under [`dropping_plan`], on the analytic engine if `analytic`
/// holds and otherwise on the one its model picks.
fn with_drops(net: Network<'_>, seed: u64, analytic: bool) -> Network<'_> {
    let n = net.len();
    let net = net.with_faults(dropping_plan(n, seed));
    if analytic {
        net.with_engine(EngineKind::Analytic)
    } else {
        net
    }
}

/// Runs one random call sequence on a subject network, whose pairs may be
/// reused, and on a twin that runs each pair as its four calls and so
/// never reuses one, and checks every call: the result (each refusal
/// included), the observations of every successful round and the
/// collisions of every successful pair, the round count, the offset and
/// the rotation.
fn assert_reuse_sequence(
    config: &RingConfig,
    ids: &IdAssignment,
    model: Model,
    seed: u64,
    calls: usize,
) {
    // The event engine's debug build is slow on large rings: there, a
    // fault plan keeps the analytic engine.
    let event = config.len() <= 16;
    let n = config.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut subjects = vec![Network::new(config, ids.clone(), model).unwrap()];
    let mut twins = vec![Network::new(config, ids.clone(), model).unwrap()];
    let mut subject_marks = vec![None];
    let mut twin_marks = vec![None];
    let mut pairs: [PairBuffers; PAIR_POOL] = Default::default();
    let mut pool: [StepBuffers; 4] = Default::default();
    let mut twin_pool: [StepBuffers; 4] = Default::default();
    let mut twin_pair = StepBuffers::new();
    let mut dirs = random_directions(&mut rng, n, model.allows_idle());
    for step in 0..calls {
        let i = rng.gen_range(0..subjects.len());
        let call = random_call(&mut rng, 3 * step >= 2 * calls);
        let context = format!("n={n} {model} seed {seed} call {step} {call:?} on net {i}");
        let (subject, twin) = (&mut subjects[i], &mut twins[i]);
        let (got, expected) = match call {
            Call::Pair { buf, repeat } => {
                if !repeat {
                    dirs = random_directions(&mut rng, n, model.allows_idle());
                }
                let pair = &mut pairs[buf];
                let got = subject
                    .step_pair_into(&dirs, pair)
                    .map(|()| Seen::Pair(pair_collisions(pair)));
                let expected = four_calls(twin, &dirs, &mut twin_pair).map(Seen::Pair);
                (got, expected)
            }
            Call::Step { buf } => {
                let step = random_directions(&mut rng, n, model.allows_idle());
                let got = subject
                    .step_into(&step, &mut pool[buf])
                    .map(|()| Seen::Round(pool[buf].observations().to_vec()));
                let expected = twin
                    .step_into(&step, &mut twin_pool[buf])
                    .map(|()| Seen::Round(twin_pool[buf].observations().to_vec()));
                (got, expected)
            }
            Call::Undo { buf } => (
                subject.undo_last(&mut pool[buf]).map(|()| Seen::Nothing),
                twin.undo_last(&mut twin_pool[buf]).map(|()| Seen::Nothing),
            ),
            Call::Mark => {
                subject_marks[i] = Some(subject.mark());
                twin_marks[i] = Some(twin.mark());
                (Ok(Seen::Nothing), Ok(Seen::Nothing))
            }
            Call::Rewind { buf } => match (subject_marks[i], twin_marks[i]) {
                (Some(mark), Some(twin_mark)) => (
                    subject.rewind(mark, &mut pool[buf]).map(|()| Seen::Nothing),
                    twin.rewind(twin_mark, &mut twin_pool[buf])
                        .map(|()| Seen::Nothing),
                ),
                _ => (Ok(Seen::Nothing), Ok(Seen::Nothing)),
            },
            Call::Clone => {
                let (clone, twin_clone) = (subject.clone(), twin.clone());
                subjects.push(clone);
                twins.push(twin_clone);
                // A mark is the network's own: a clone has none in force.
                subject_marks.push(subject_marks[i]);
                twin_marks.push(twin_marks[i]);
                (Ok(Seen::Nothing), Ok(Seen::Nothing))
            }
            Call::Limit { ahead } => {
                let limit = subjects[i].rounds_used() + ahead;
                rebuild(&mut subjects, i, |net| net.with_round_limit(limit));
                rebuild(&mut twins, i, |net| net.with_round_limit(limit));
                (Ok(Seen::Nothing), Ok(Seen::Nothing))
            }
            Call::Faults { analytic } => {
                let analytic = analytic || !event;
                rebuild(&mut subjects, i, |net| with_drops(net, seed, analytic));
                rebuild(&mut twins, i, |net| with_drops(net, seed, analytic));
                (Ok(Seen::Nothing), Ok(Seen::Nothing))
            }
        };
        assert_eq!(got, expected, "{context}: result");
        let (subject, twin) = (&subjects[i], &twins[i]);
        assert_eq!(
            subject.ground_truth_last_rotation(),
            twin.ground_truth_last_rotation(),
            "{context}: rotation"
        );
        assert_same_state(subject, twin, &context);
    }
}

/// Random call sequences on small rings, every chirality mix and model:
/// a reused pair is indistinguishable from a simulated one.
#[test]
fn reused_pairs_match_a_twin_that_never_reuses() {
    for n in [5usize, 6, 7, 8, 12] {
        for (c, config) in configs(n, 170 + n as u64).iter().enumerate() {
            for model in [Model::Perceptive, Model::Lazy, Model::Basic] {
                let ids = IdAssignment::random(n, 16 * n as u64, 3 + n as u64);
                for rep in 0..4u64 {
                    let seed = 10_000 * n as u64 + 100 * c as u64 + rep;
                    assert_reuse_sequence(config, &ids, model, seed, 80);
                }
            }
        }
    }
}

/// The same at the ring sizes of the perceptive tables.
#[test]
fn reused_pairs_match_a_twin_that_never_reuses_on_large_rings() {
    for n in [128usize, 512] {
        let (config, ids) = deployment(n, 190 + n as u64);
        for rep in 0..4u64 {
            assert_reuse_sequence(&config, &ids, Model::Perceptive, 20 * n as u64 + rep, 120);
        }
    }
}

/// A clone shares the original's last pair but not its identity. Here the
/// clone writes another pair into the buffers while the original simulates
/// a pair elsewhere, so both networks have simulated as many pairs when the
/// original repeats its own: the buffers hold the clone's pair, and only the
/// network in the stamp tells them apart.
#[test]
fn a_clone_never_reuses_the_original_pairs() {
    let n = 9;
    let (config, ids) = deployment(n, 211);
    let mut net = Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
    let mut twin = Network::new(&config, ids, Model::Perceptive).unwrap();
    let [mut p, mut q]: [PairBuffers; 2] = Default::default();
    let mut c = StepBuffers::new();
    let first: Vec<LocalDirection> = (0..n)
        .map(|i| LocalDirection::from_bit(i % 3 == 0))
        .collect();
    let other: Vec<LocalDirection> = (0..n)
        .map(|i| LocalDirection::from_bit(i % 2 == 0))
        .collect();
    let mut clone = net.clone();
    clone.step_into(&other, &mut c).unwrap();
    clone.step_pair_into(&other, &mut p).unwrap();
    net.step_pair_into(&first, &mut q).unwrap();
    net.step_pair_into(&first, &mut p).unwrap();
    let mut fresh = PairBuffers::new();
    twin.step_pair_into(&first, &mut fresh).unwrap();
    twin.step_pair_into(&first, &mut fresh).unwrap();
    assert_eq!(pair_collisions(&p), pair_collisions(&fresh));
    assert_same_state(&net, &twin, "after the repeat");
}

/// A pair's collisions depend on the offset it starts from, not on how
/// the ring got there: rounds that move the ring away and an undo or a
/// rewind that brings it back leave a repeat of the pair reusable, and the
/// repeat still equals its four calls. An undo through buffers that never
/// held a forward round is refused on both networks.
#[test]
fn a_pair_repeated_after_an_undo_or_rewind_equals_the_four_calls() {
    let n = 9;
    let (config, ids) = deployment(n, 221);
    let dirs: Vec<LocalDirection> = (0..n)
        .map(|i| LocalDirection::from_bit(i % 4 == 1))
        .collect();
    let moved: Vec<LocalDirection> = (0..n).map(|i| LocalDirection::from_bit(i < 2)).collect();
    for undo in [false, true] {
        let mut net = Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
        let mut twin = Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
        let mut pair = PairBuffers::new();
        let [mut a, mut c]: [StepBuffers; 2] = Default::default();
        let [mut x, mut z]: [StepBuffers; 2] = Default::default();
        let context = if undo { "undo" } else { "rewind" };
        net.step_pair_into(&dirs, &mut pair).unwrap();
        four_calls(&mut twin, &dirs, &mut x).unwrap();
        if undo {
            // Refused: `a` holds no forward round, and nothing changes.
            net.step_into(&moved, &mut c).unwrap();
            twin.step_into(&moved, &mut z).unwrap();
            let refused = net.undo_last(&mut a);
            assert_eq!(refused, twin.undo_last(&mut x), "{context}: refusal");
            assert!(refused.is_err(), "{context}: undo through a");
            net.undo_last(&mut c).unwrap();
            twin.undo_last(&mut z).unwrap();
        } else {
            let (mark, twin_mark) = (net.mark(), twin.mark());
            net.step_into(&moved, &mut c).unwrap();
            twin.step_into(&moved, &mut z).unwrap();
            net.rewind(mark, &mut a).unwrap();
            twin.rewind(twin_mark, &mut x).unwrap();
        }
        assert_same_state(&net, &twin, context);
        let got = net
            .step_pair_into(&dirs, &mut pair)
            .map(|()| pair_collisions(&pair));
        let expected = four_calls(&mut twin, &dirs, &mut x);
        assert_eq!(got, expected, "{context}: the repeated pair");
        assert_same_state(&net, &twin, context);
    }
}

/// Frame exchanges whose values leave most planes repeated (narrow values
/// in wide frames, sparse senders) receive what the same planes sent as
/// separate bit exchanges through alternating buffers receive, at the same
/// cost in rounds, on both engines.
#[test]
fn frame_exchanges_with_repeated_planes_match_separate_bit_exchanges() {
    for (n, seed) in [(9usize, 5u64), (24, 6), (64, 7)] {
        let (config, ids) = deployment(n, 230 + seed);
        for engine in [EngineKind::Analytic, EngineKind::Event] {
            // The event engine's debug build is slow on large rings.
            if engine == EngineKind::Event && n > 24 {
                continue;
            }
            let network = || {
                Network::new(&config, ids.clone(), Model::Perceptive)
                    .unwrap()
                    .with_engine(engine)
            };
            let (mut framed, mut separate) = (network(), network());
            let (link, _) = RingLink::establish(&mut framed).unwrap();
            RingLink::establish(&mut separate).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            // Zero payloads repeat every payload plane but the first.
            let cases = [0u32, 1, 5, 17, 64].map(|bits| [(bits, false), (bits, true)]);
            for (bits, zeros) in cases.into_iter().flatten() {
                let context = format!("n={n} {engine:?} {bits}-bit frames, zeros {zeros}");
                let values: Vec<Option<u64>> = (0..n)
                    .map(|_| {
                        let width = if zeros {
                            0
                        } else {
                            bits.min(rng.gen_range(0..=10u32))
                        };
                        let high = u64::MAX.checked_shr(64 - width).unwrap_or(0);
                        rng.gen_range(0..4u32)
                            .eq(&0)
                            .then(|| rng.gen::<u64>() & high)
                    })
                    .collect();
                let got = link.exchange_frames(&mut framed, &values, bits).unwrap();
                let mut expected = vec![(None, None); n];
                for plane in (0..=bits).rev() {
                    let sent: Vec<bool> = values
                        .iter()
                        .map(|v| match v {
                            Some(v) if plane < bits => (v >> plane) & 1 == 1,
                            v => plane == bits && v.is_some(),
                        })
                        .collect();
                    let received = link.exchange_bits(&mut separate, &sent).unwrap();
                    for (frame, rx) in expected.iter_mut().zip(&received) {
                        let bit = |present: Option<u64>, bit: bool| match present {
                            _ if plane == bits => bit.then_some(0),
                            Some(v) => Some(v | u64::from(bit) << plane),
                            None => None,
                        };
                        *frame = (bit(frame.0, rx.from_right), bit(frame.1, rx.from_left));
                    }
                }
                let expected: Vec<_> = expected
                    .into_iter()
                    .map(|(from_right, from_left)| NeighborFrames {
                        from_right,
                        from_left,
                    })
                    .collect();
                assert_eq!(got, expected, "{context}: frames");
                // The last plane ran as its own directions, not as a
                // stale plane that only looked repeated.
                assert_eq!(
                    framed.ground_truth_last_rotation(),
                    separate.ground_truth_last_rotation(),
                    "{context}: rotation"
                );
                assert_same_state(&framed, &separate, &context);
            }
        }
    }
}
