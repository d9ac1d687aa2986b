//! Word-parallel combinatorics speedup trajectory.
//!
//! Times the word-parallel hot paths introduced by the performance PR
//! against their element-wise reference implementations (kept verbatim in
//! `ring_combinat::reference`), and writes the results to
//! `BENCH_combinat.json`. The file is regenerated from scratch on every
//! run and committed; the *trajectory* across PRs is its git history, so a
//! regression shows up as a worsened speedup in the diff.
//!
//! Run with `cargo run --release -p ring-bench --bin bench_combinat`
//! (optionally `-- --quick` for a CI smoke pass, `-- --out <path>` to
//! redirect the report).
//!
//! Besides the construction-level pairs, the report times the chunked
//! `IdSet` kernels themselves (union, intersect, popcount,
//! intersection-count, sampled verification), the selective family's
//! scale-first sampled verification against the first-index scan over its
//! materialised sets, and the analytic engine's linear first-collision
//! sweeps against the binary-search engine kept in `ring_sim::reference`,
//! undo rounds (`Network::undo_last`) against the reversed round
//! through the kernel, the fused complementary pair
//! (`Network::step_pair_into`) against its four calls, and a frame
//! exchange that reuses repeated bit planes against one that simulates
//! each. Each pair's fast and reference runs are taken in turn, so load on
//! a shared machine falls on both sides of a speedup alike. In
//! `--quick` mode the run **fails** (nonzero exit) if any kernel's fast
//! path is slower than its reference — the CI perf smoke that keeps these
//! loops honest.

use rand::{Rng, SeedableRng};
use ring_combinat::{reference, Distinguisher, IdSet, SelectiveFamily};
use ring_protocols::coordination::nontrivial::weak_nontrivial_move_even_distinguisher;
use ring_protocols::exec::{PairBuffers, StepBuffers};
use ring_protocols::perceptive::link::{FrameBuffers, LinkBuffers, NeighborFrames, RingLink};
use ring_protocols::{IdAssignment, Network};
use ring_sim::{
    AnalyticEngine, AnalyticScratch, EngineKind, LocalDirection, Model, ObjectiveDirection,
    RingConfig, RingState, RoundBuffers,
};
use serde::Serialize;
use std::time::Instant;

/// One timed entry of the report.
#[derive(Clone, Debug, Serialize)]
struct Entry {
    name: String,
    /// Problem size the timing refers to (universe or ring size).
    n: u64,
    /// Median wall-clock nanoseconds per repetition.
    median_ns: u64,
    reps: usize,
}

/// A fast-path/reference pair with its speedup.
#[derive(Clone, Debug, Serialize)]
struct Speedup {
    name: String,
    fast_ns: u64,
    reference_ns: u64,
    speedup: f64,
}

#[derive(Clone, Debug, Serialize)]
struct Report {
    schema: String,
    mode: String,
    entries: Vec<Entry>,
    speedups: Vec<Speedup>,
}

/// Median wall-clock nanoseconds of `reps` runs of `f` (one warm-up run).
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    median(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_nanos() as u64
            })
            .collect(),
    )
}

/// Median wall-clock nanoseconds of the two sides of a fast/reference
/// pair: one warm-up run each, then `reps` runs each, the sides taken in
/// turn (and the lead swapped every repetition), so a burst of load on a
/// shared machine falls on both sides alike instead of on whichever side
/// it happened to be timing.
fn time_pair<T, U>(
    reps: usize,
    mut fast: impl FnMut() -> T,
    mut slow: impl FnMut() -> U,
) -> (u64, u64) {
    fn timed<O>(f: &mut impl FnMut() -> O) -> u64 {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_nanos() as u64
    }
    std::hint::black_box(fast());
    std::hint::black_box(slow());
    let (mut fast_ns, mut slow_ns) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..reps {
        if rep % 2 == 0 {
            fast_ns.push(timed(&mut fast));
            slow_ns.push(timed(&mut slow));
        } else {
            slow_ns.push(timed(&mut slow));
            fast_ns.push(timed(&mut fast));
        }
    }
    (median(fast_ns), median(slow_ns))
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_combinat.json".to_string());

    // --quick shrinks the sizes enough for a CI smoke run while exercising
    // every measured code path.
    let (universe, n, reps) = if quick {
        (10_000u64, 32usize, 3usize)
    } else {
        (100_000u64, 64usize, 5usize)
    };
    // The kernel pairs (the asserted set below) are cheap and some of them
    // win by well under 2x, so they take more repetitions in either mode:
    // enough that the median of each side stands clear of a noisy machine.
    let kernel_reps = 15;
    // Small ring × many rounds: the regime of the paper's protocols, where
    // per-round allocation is a constant fraction of the round cost.
    let ring_n = if quick { 32 } else { 64 };
    let rounds = if quick { 256 } else { 2048 };

    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    let record_pair = |entries: &mut Vec<Entry>,
                       speedups: &mut Vec<Speedup>,
                       name: &str,
                       size: u64,
                       fast_ns: u64,
                       reference_ns: u64,
                       reps: usize| {
        entries.push(Entry {
            name: format!("{name}/word_parallel"),
            n: size,
            median_ns: fast_ns,
            reps,
        });
        entries.push(Entry {
            name: format!("{name}/reference"),
            n: size,
            median_ns: reference_ns,
            reps,
        });
        speedups.push(Speedup {
            name: name.to_string(),
            fast_ns,
            reference_ns,
            speedup: reference_ns as f64 / fast_ns.max(1) as f64,
        });
    };

    // 1. Distinguisher construction (Theorem 27) at large N.
    let (fast, slow) = time_pair(
        reps,
        || Distinguisher::random(universe, n, 7),
        || reference::distinguisher_random_reference(universe, n, 7),
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "distinguisher_random",
        universe,
        fast,
        slow,
        reps,
    );
    println!(
        "distinguisher_random      N={universe} n={n}: {:>12} ns vs {:>12} ns  ({:.1}x)",
        fast,
        slow,
        slow as f64 / fast.max(1) as f64
    );

    // 2. Selective-family construction (Definition 35) at large N: the
    //    implicit family (a seed and per-scale batch sizes) against the
    //    explicit element-wise sets.
    let (fast, slow) = time_pair(
        reps,
        || SelectiveFamily::random(universe, n, 7),
        || reference::selective_random_reference(universe, n, 7),
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "selective_random",
        universe,
        fast,
        slow,
        reps,
    );
    println!(
        "selective_random          N={universe} n={n}: {:>12} ns vs {:>12} ns  ({:.1}x)",
        fast,
        slow,
        slow as f64 / fast.max(1) as f64
    );

    // 2b. The chunked IdSet kernels against their element-wise oracles, on
    //     dense random operands at the full benchmark universe. Cheap
    //     kernels (popcount, fused pair count) run an inner repeat so both
    //     sides are timed well above clock granularity; the repeat factor
    //     cancels in the speedup.
    let mut kernel_rng = rand::rngs::StdRng::seed_from_u64(11);
    let ka = reference::random_set_reference(universe, &mut kernel_rng);
    let kb = reference::random_set_reference(universe, &mut kernel_rng);
    const INNER: usize = 16;

    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for _ in 0..INNER {
                let mut c = ka.clone();
                c.union_with(&kb);
                std::hint::black_box(&c);
            }
        },
        || {
            for _ in 0..INNER {
                std::hint::black_box(reference::union_reference(&ka, &kb));
            }
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "idset_union",
        universe,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "idset_union               N={universe}:       {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for _ in 0..INNER {
                let mut c = ka.clone();
                c.intersect_with(&kb);
                std::hint::black_box(&c);
            }
        },
        || {
            for _ in 0..INNER {
                std::hint::black_box(reference::intersection_reference(&ka, &kb));
            }
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "idset_intersect",
        universe,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "idset_intersect           N={universe}:       {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for _ in 0..INNER {
                std::hint::black_box(ka.len());
            }
        },
        || {
            for _ in 0..INNER {
                std::hint::black_box(reference::len_reference(&ka));
            }
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "idset_len",
        universe,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "idset_len                 N={universe}:       {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for _ in 0..INNER {
                std::hint::black_box(ka.intersection_count(&kb));
            }
        },
        || {
            for _ in 0..INNER {
                std::hint::black_box(reference::intersection_count_reference(&ka, &kb));
            }
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "idset_intersection_count",
        universe,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "idset_intersection_count  N={universe}:       {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    // 2c. Sampled verification: the harness-scale validity check, whose
    //     inner loop is the fused intersection-count pair.
    let verify_d = Distinguisher::random(universe, n, 7);
    let samples = 4usize;
    let (fast, slow) = time_pair(
        kernel_reps,
        || std::hint::black_box(verify_d.verify_sampled(n, samples, 5)),
        || {
            std::hint::black_box(reference::verify_sampled_reference(
                &verify_d, n, samples, 5,
            ))
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "verify_sampled",
        universe,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "verify_sampled            N={universe} n={n}: {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    // 2d. Sampled selectivity check: the scale-first search over the
    //     implicit family, touching only the sample's identifiers, against
    //     the first-index scan over the materialised sets (each set's hits
    //     counted through `z.iter()`). Same failure count by construction.
    let family = SelectiveFamily::random(universe, n, 7);
    let family_sets = family.sets();
    let samples = 16usize;
    let (fast, slow) = time_pair(
        kernel_reps,
        || std::hint::black_box(family.verify_sampled(n, samples, 5)),
        || {
            std::hint::black_box(reference::selective_verify_sampled_reference(
                &family_sets,
                universe,
                n,
                samples,
                5,
            ))
        },
    );
    drop(family_sets);
    record_pair(
        &mut entries,
        &mut speedups,
        "selective_verify",
        universe,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "selective_verify          N={universe} n={n}: {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    // 3. Bulk IdSet constructors against per-identifier loops.
    let big = 1_000_000u64;
    let (fast, slow) = time_pair(reps, || IdSet::full(big), || IdSet::from_ids(big, 1..=big));
    record_pair(
        &mut entries,
        &mut speedups,
        "idset_full",
        big,
        fast,
        slow,
        reps,
    );
    println!(
        "idset_full                N={big}:       {:>12} ns vs {:>12} ns  ({:.1}x)",
        fast,
        slow,
        slow as f64 / fast.max(1) as f64
    );

    let (fast, slow) = time_pair(
        reps,
        || IdSet::with_bit(big, 3, true),
        || IdSet::from_ids(big, (1..=big).filter(|id| (id >> 3) & 1 == 1)),
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "idset_with_bit",
        big,
        fast,
        slow,
        reps,
    );
    println!(
        "idset_with_bit            N={big}:       {:>12} ns vs {:>12} ns  ({:.1}x)",
        fast,
        slow,
        slow as f64 / fast.max(1) as f64
    );

    // 4. Batched round execution (one reused `RoundBuffers`) against the
    //    allocating path (a fresh `RoundBuffers` per round).
    let config = RingConfig::builder(ring_n)
        .random_positions(9)
        .random_chirality(10)
        .build()
        .expect("valid benchmark ring");
    let dirs: Vec<LocalDirection> = (0..ring_n)
        .map(|i| {
            if i % 3 == 0 {
                LocalDirection::Left
            } else {
                LocalDirection::Right
            }
        })
        .collect();
    let (fast, slow) = time_pair(
        reps,
        || {
            let mut ring = RingState::new(&config);
            let mut bufs = RoundBuffers::new();
            for _ in 0..rounds {
                ring.execute_round_into(&dirs, EngineKind::Analytic, &mut bufs)
                    .expect("valid round");
            }
            ring.rounds_executed()
        },
        || {
            let mut ring = RingState::new(&config);
            for _ in 0..rounds {
                ring.execute_round_into(&dirs, EngineKind::Analytic, &mut RoundBuffers::new())
                    .expect("valid round");
            }
            ring.rounds_executed()
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "execute_rounds_batched",
        ring_n as u64,
        fast,
        slow,
        reps,
    );
    println!(
        "execute_rounds_batched    n={ring_n} r={rounds}:  {:>12} ns vs {:>12} ns  ({:.1}x)",
        fast,
        slow,
        slow as f64 / fast.max(1) as f64
    );

    // 4b. The analytic engine's linear first-collision kernel against the
    //     binary-search oracle (`ring_sim::reference`), on all-moving rounds
    //     at n = 512 — the perceptive location-discovery regime — over a
    //     rotated state; each side reuses its own scratch.
    let kernel_n = 512usize;
    let kernel_rounds = if quick { 64 } else { 256 };
    let config = RingConfig::builder(kernel_n)
        .random_positions(13)
        .build()
        .expect("valid benchmark ring");
    let offset = 37;
    let slots: Vec<usize> = (0..kernel_n).map(|a| (a + offset) % kernel_n).collect();
    let mut dir_rng = rand::rngs::StdRng::seed_from_u64(14);
    let round_dirs: Vec<Vec<ObjectiveDirection>> = (0..kernel_rounds)
        .map(|_| {
            (0..kernel_n)
                .map(|_| {
                    if dir_rng.gen::<bool>() {
                        ObjectiveDirection::Clockwise
                    } else {
                        ObjectiveDirection::Anticlockwise
                    }
                })
                .collect()
        })
        .collect();
    let mut scratch = AnalyticScratch::new();
    let mut oracle_scratch = ring_sim::reference::ReferenceScratch::new();
    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for dirs in &round_dirs {
                AnalyticEngine::new().execute_into(&config, offset, dirs, &mut scratch);
            }
            scratch.first_collision[0]
        },
        || {
            for dirs in &round_dirs {
                ring_sim::reference::analytic_round_reference_into(
                    &config,
                    &slots,
                    dirs,
                    &mut oracle_scratch,
                );
            }
            oracle_scratch.first_collision[0]
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "analytic_first_collisions",
        kernel_n as u64,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "analytic_first_collisions n={kernel_n} r={kernel_rounds}: {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    // 4c. Undo rounds (the paper's REVERSEDROUND) at n = 512: each forward
    //     round followed by `undo_last`, which rewinds the ring offset by
    //     Lemma 1, against the same forward round followed by its reversed
    //     directions through the kernel. Random directions, perceptive
    //     model; the forward rounds are common to both sides.
    let config = RingConfig::builder(kernel_n)
        .random_positions(15)
        .random_chirality(16)
        .build()
        .expect("valid benchmark ring");
    let ids = IdAssignment::random(kernel_n, 64 * kernel_n as u64, 17);
    let local_rounds: Vec<Vec<LocalDirection>> = (0..kernel_rounds)
        .map(|_| {
            (0..kernel_n)
                .map(|_| LocalDirection::from_bit(dir_rng.gen::<bool>()))
                .collect()
        })
        .collect();
    let reversed_rounds: Vec<Vec<LocalDirection>> = local_rounds
        .iter()
        .map(|dirs| dirs.iter().map(|d| d.opposite()).collect())
        .collect();
    let mut net = Network::new(&config, ids.clone(), Model::Perceptive).expect("valid network");
    let mut reference_net = net.clone();
    let (mut step, mut reference_step) = (StepBuffers::new(), StepBuffers::new());
    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for dirs in &local_rounds {
                net.step_into(dirs, &mut step).expect("valid round");
                net.undo_last(&mut step).expect("undoable round");
            }
            net.rounds_used()
        },
        || {
            for (dirs, reversed) in local_rounds.iter().zip(&reversed_rounds) {
                reference_net
                    .step_into(dirs, &mut reference_step)
                    .expect("valid round");
                reference_net
                    .step_into(reversed, &mut reference_step)
                    .expect("valid round");
            }
            reference_net.rounds_used()
        },
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "undo_round",
        kernel_n as u64,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "undo_round                n={kernel_n} r={kernel_rounds}: {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    // 4d. The collision link's bit exchange (Proposition 31) at n = 512: a
    //     round and its complement, each undone, as one fused
    //     `step_pair_into` against the four calls it stands for (round A,
    //     a copy of its collisions, its undo, round B, a copy of its
    //     collisions, its undo). No two consecutive rounds share their
    //     directions, so every pair is simulated: this times the kernel,
    //     not its reuse of a repeat. Both sides must end with the same
    //     collisions.
    assert!(
        local_rounds
            .iter()
            .zip(local_rounds.iter().cycle().skip(1))
            .all(|(dirs, next)| dirs != next),
        "consecutive link_exchange_pair rounds must differ"
    );
    let mut net = Network::new(&config, ids.clone(), Model::Perceptive).expect("valid network");
    let mut reference_net = net.clone();
    let mut pair = PairBuffers::new();
    let mut kept: [Vec<u64>; 2] = Default::default();
    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for dirs in &local_rounds {
                net.step_pair_into(dirs, &mut pair).expect("valid pair");
            }
            net.rounds_used()
        },
        || {
            for (dirs, flipped) in local_rounds.iter().zip(&reversed_rounds) {
                for (round, kept) in [dirs, flipped].into_iter().zip(&mut kept) {
                    reference_net
                        .step_into(round, &mut step)
                        .expect("valid round");
                    kept.clear();
                    kept.extend(step.observations().iter().map(|o| o.coll_ticks()));
                    reference_net.undo_last(&mut step).expect("undoable round");
                }
            }
            reference_net.rounds_used()
        },
    );
    assert_eq!(
        [pair.collisions_a(), pair.collisions_b()],
        [&kept[0][..], &kept[1][..]],
        "the fused pair and its four calls must collide alike"
    );
    record_pair(
        &mut entries,
        &mut speedups,
        "link_exchange_pair",
        kernel_n as u64,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "link_exchange_pair        n={kernel_n} r={kernel_rounds}: {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    // 4e. A 17-bit frame exchange at n = 512 (the label frames `RingDist`
    //     floods at N = 2^16), with label-like values at one agent in
    //     eight: the high planes are all zeros and repeat. The frame
    //     exchange runs a repeated plane's pair once and does not decode
    //     it again; the reference sends the same planes as separate bit
    //     exchanges through two buffer sets taken in turn, so no pair is
    //     reused, and assembles the frames from the received bits.
    let frame_bits = 17u32;
    let frame_exchanges = if quick { 4 } else { 16 };
    let mut net = Network::new(&config, ids, Model::Perceptive).expect("valid network");
    let (link, _) = RingLink::establish(&mut net).expect("perceptive link");
    let mut reference_net = net.clone();
    let values: Vec<Option<u64>> = (0..kernel_n as u64)
        .map(|agent| (agent % 8 == 3).then_some(agent + 1))
        .collect();
    let (mut frame_bufs, mut frames) = (FrameBuffers::new(), Vec::new());
    let mut turns = [LinkBuffers::new(), LinkBuffers::new()];
    let (mut plane, mut received) = (Vec::with_capacity(kernel_n), Vec::new());
    let mut unreused = Vec::with_capacity(kernel_n);
    let (fast, slow) = time_pair(
        kernel_reps,
        || {
            for _ in 0..frame_exchanges {
                link.exchange_frames_with(
                    &mut net,
                    &values,
                    frame_bits,
                    &mut frame_bufs,
                    &mut frames,
                )
                .expect("valid frame exchange");
            }
            net.rounds_used()
        },
        || {
            for _ in 0..frame_exchanges {
                unreused.clear();
                unreused.resize(kernel_n, (false, false, 0u64, 0u64));
                for (turn, bit) in (0..=frame_bits).rev().enumerate() {
                    plane.clear();
                    plane.extend(values.iter().map(|v| match v {
                        Some(v) if bit < frame_bits => (v >> bit) & 1 == 1,
                        v => bit == frame_bits && v.is_some(),
                    }));
                    link.exchange_bits_with(
                        &mut reference_net,
                        &plane,
                        &mut turns[turn % 2],
                        &mut received,
                    )
                    .expect("valid bit exchange");
                    for (frame, rx) in unreused.iter_mut().zip(&received) {
                        if bit == frame_bits {
                            (frame.0, frame.1) = (rx.from_right, rx.from_left);
                        } else {
                            frame.2 |= u64::from(rx.from_right) << bit;
                            frame.3 |= u64::from(rx.from_left) << bit;
                        }
                    }
                }
            }
            reference_net.rounds_used()
        },
    );
    let assembled: Vec<NeighborFrames> = unreused
        .iter()
        .map(|&(right, left, right_value, left_value)| NeighborFrames {
            from_right: right.then_some(right_value),
            from_left: left.then_some(left_value),
        })
        .collect();
    assert_eq!(frames, assembled, "the two frame exchanges must agree");
    record_pair(
        &mut entries,
        &mut speedups,
        "link_frame",
        kernel_n as u64,
        fast,
        slow,
        kernel_reps,
    );
    println!(
        "link_frame                n={kernel_n} x={frame_exchanges}:  {fast:>12} ns vs {slow:>12} ns  ({:.1}x)",
        slow as f64 / fast.max(1) as f64
    );

    // 5. End-to-end: the distinguisher-driven weak nontrivial move on a
    //    balanced ring, now running as one batched schedule over the
    //    word-parallel strong distinguisher (absolute time only — the whole
    //    stack changed, so there is no isolated reference path).
    let proto_n = if quick { 16 } else { 32 };
    let config = RingConfig::builder(proto_n)
        .random_positions(500)
        .alternating_chirality()
        .build()
        .expect("valid benchmark ring");
    let ids = IdAssignment::random(proto_n, 64 * proto_n as u64, 501);
    let t = time_median(reps, || {
        let mut net = Network::new(&config, ids.clone(), Model::Basic).expect("valid network");
        weak_nontrivial_move_even_distinguisher(&mut net, 3).expect("solvable")
    });
    entries.push(Entry {
        name: "weak_nontrivial_move_batched".to_string(),
        n: proto_n as u64,
        median_ns: t,
        reps,
    });
    println!("weak_nontrivial_batched   n={proto_n}:        {t:>12} ns");

    let report = Report {
        schema: "bench-combinat/v1".to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        entries,
        speedups,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out_path, json + "\n").expect("writable report path");
    println!("\nwrote {out_path}");

    let floor = 5.0;
    for s in &report.speedups {
        if ["distinguisher_random", "selective_random"].contains(&s.name.as_str())
            && s.speedup < floor
        {
            eprintln!(
                "WARNING: {} speedup {:.1}x is below the {floor}x acceptance floor",
                s.name, s.speedup
            );
        }
    }

    // The CI perf smoke: in quick mode, a kernel that fails to beat its
    // oracle fails the run. The asserted set is the kernel pairs — the
    // chunked `IdSet` loops, the two sampled verifications, the analytic
    // first-collision sweeps, the undo rewind, the fused link exchange and
    // the frame exchange's reuse of repeated planes — not the construction
    // or round-loop pairs, whose inner cost is RNG- or simulator-bound.
    if quick {
        let asserted = [
            "idset_union",
            "idset_intersect",
            "idset_len",
            "idset_intersection_count",
            "verify_sampled",
            "selective_verify",
            "analytic_first_collisions",
            "undo_round",
            "link_exchange_pair",
            "link_frame",
        ];
        let mut failed = false;
        for s in &report.speedups {
            if asserted.contains(&s.name.as_str()) && s.speedup < 1.0 {
                eprintln!(
                    "FAIL: {} fast path ({} ns) is slower than its reference ({} ns)",
                    s.name, s.fast_ns, s.reference_ns
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
