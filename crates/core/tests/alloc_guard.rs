//! Allocation guard for undo rounds: after a warm-up has sized the reusable
//! buffers, [`Network::undo_last`], [`Network::mark`]/[`Network::rewind`],
//! [`Network::step_pair_into`] (a round and its complement, each undone),
//! also when it repeats the last pair and reuses it, and collision-link bit
//! and frame exchanges built on it must perform **zero** heap
//! allocations, and so must recording equations in a [`GapKnowledge`]. A
//! counting global allocator (per thread, so the tests can run
//! concurrently) measures the window, so any allocation sneaking into these
//! paths fails deterministically.

use ring_protocols::exec::{PairBuffers, StepBuffers};
use ring_protocols::perceptive::link::{FrameBuffers, LinkBuffers, RingLink};
use ring_protocols::{GapKnowledge, IdAssignment, Network};
use ring_sim::{ArcLength, EngineKind, LocalDirection, Model, RingConfig, CIRCUMFERENCE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with a per-thread allocation counter bolted on.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so counting from inside
    // the allocator never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations made so far by the current thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth of an existing buffer is an allocation for this test's
        // purposes: the buffers are supposed to have reached steady state.
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: usize = 128;
const ROUNDS: usize = 32;

fn config(n: usize) -> RingConfig {
    RingConfig::builder(n)
        .random_positions(2015)
        .alternating_chirality()
        .build()
        .expect("valid config")
}

fn directions(n: usize, round: usize) -> Vec<LocalDirection> {
    (0..n)
        .map(|agent| LocalDirection::from_bit((agent * 7 + round) % 5 < 2))
        .collect()
}

/// Forward rounds paired with undos, and a marked stretch rewound, on the
/// analytic engine and on the event engine (at a size its debug build runs
/// quickly). Undo rewinds the ring offset on both.
#[test]
fn undo_rounds_allocate_nothing_after_warmup() {
    for (engine, n) in [(EngineKind::Analytic, N), (EngineKind::Event, 16)] {
        let config = config(n);
        let ids = IdAssignment::random(n, 64 * n as u64, 7);
        let rounds: Vec<Vec<LocalDirection>> =
            (0..ROUNDS).map(|round| directions(n, round)).collect();
        let mut net = Network::new(&config, ids, Model::Perceptive)
            .expect("valid network")
            .with_engine(engine);
        let mut bufs = StepBuffers::new();
        let exercise = |net: &mut Network<'_>, bufs: &mut StepBuffers| {
            for dirs in &rounds {
                net.step_into(dirs, bufs).expect("forward round");
                net.undo_last(bufs).expect("undo");
            }
            let mark = net.mark();
            for dirs in &rounds {
                net.step_into(dirs, bufs).expect("forward round");
            }
            net.rewind(mark, bufs).expect("rewind");
        };

        exercise(&mut net, &mut bufs);
        assert!(net.ground_truth_at_initial_positions());

        let before = allocations();
        exercise(&mut net, &mut bufs);
        let total = allocations() - before;
        assert!(net.ground_truth_at_initial_positions());
        assert_eq!(net.rounds_used(), 8 * ROUNDS as u64);
        assert_eq!(
            total, 0,
            "{engine:?}, n = {n}: {total} allocations across warm undo rounds; undo \
             must be allocation-free after warm-up"
        );
    }
}

#[test]
fn warm_bit_exchanges_allocate_nothing() {
    let config = config(N);
    let ids = IdAssignment::random(N, 64 * N as u64, 9);
    let mut net = Network::new(&config, ids, Model::Perceptive).expect("valid network");
    let (link, _) = RingLink::establish(&mut net).expect("link");
    let mut bufs = LinkBuffers::new();
    let mut out = Vec::with_capacity(N);
    let patterns: Vec<Vec<bool>> = (0..ROUNDS)
        .map(|round| (0..N).map(|agent| (agent + round) % 3 == 0).collect())
        .collect();
    for bits in &patterns {
        link.exchange_bits_with(&mut net, bits, &mut bufs, &mut out)
            .expect("exchange");
    }

    let start = net.rounds_used();
    let before = allocations();
    for bits in &patterns {
        link.exchange_bits_with(&mut net, bits, &mut bufs, &mut out)
            .expect("exchange");
    }
    let total = allocations() - before;
    assert_eq!(net.rounds_used() - start, 4 * ROUNDS as u64);
    assert!(net.ground_truth_at_initial_positions());
    assert_eq!(
        total, 0,
        "{total} allocations across {ROUNDS} warm bit exchanges"
    );
}

/// Fused pairs on the analytic engine, and the four calls they stand for on
/// the event engine (at a size its debug build runs quickly).
#[test]
fn warm_pair_steps_allocate_nothing() {
    for (engine, n) in [(EngineKind::Analytic, N), (EngineKind::Event, 16)] {
        let config = config(n);
        let ids = IdAssignment::random(n, 64 * n as u64, 11);
        let rounds: Vec<Vec<LocalDirection>> =
            (0..ROUNDS).map(|round| directions(n, round)).collect();
        let mut net = Network::new(&config, ids, Model::Perceptive)
            .expect("valid network")
            .with_engine(engine);
        let mut pair = PairBuffers::new();
        let mut exercise = |net: &mut Network<'_>| {
            for dirs in &rounds {
                net.step_pair_into(dirs, &mut pair).expect("pair");
            }
        };

        exercise(&mut net);
        let before = allocations();
        exercise(&mut net);
        let total = allocations() - before;
        assert!(net.ground_truth_at_initial_positions());
        assert_eq!(net.rounds_used(), 8 * ROUNDS as u64);
        assert_eq!(
            total, 0,
            "{engine:?}, n = {n}: {total} allocations across warm pair steps"
        );
    }
}

/// Each pair run twice in a row through the same buffers: the repeat
/// reuses the simulated pair, and neither allocates once warm.
#[test]
fn warm_repeated_pairs_allocate_nothing() {
    let config = config(N);
    let ids = IdAssignment::random(N, 64 * N as u64, 13);
    let rounds: Vec<Vec<LocalDirection>> = (0..ROUNDS).map(|round| directions(N, round)).collect();
    let mut net = Network::new(&config, ids, Model::Perceptive).expect("valid network");
    let mut pair = PairBuffers::new();
    let mut exercise = |net: &mut Network<'_>| {
        for dirs in &rounds {
            net.step_pair_into(dirs, &mut pair).expect("pair");
            net.step_pair_into(dirs, &mut pair).expect("repeated pair");
        }
    };

    exercise(&mut net);
    let before = allocations();
    exercise(&mut net);
    let total = allocations() - before;
    assert!(net.ground_truth_at_initial_positions());
    assert_eq!(net.rounds_used(), 16 * ROUNDS as u64);
    assert_eq!(total, 0, "{total} allocations across warm repeated pairs");
}

/// Frame exchanges of label-like values, one agent in eight sending, in
/// frames wider than the values: most bit planes repeat the one before.
#[test]
fn warm_frame_exchanges_with_repeated_planes_allocate_nothing() {
    let config = config(N);
    let ids = IdAssignment::random(N, 64 * N as u64, 15);
    let mut net = Network::new(&config, ids, Model::Perceptive).expect("valid network");
    let (link, _) = RingLink::establish(&mut net).expect("link");
    let (mut bufs, mut out) = (FrameBuffers::new(), Vec::new());
    let values: Vec<Vec<Option<u64>>> = (0..4)
        .map(|shift| {
            (0..N as u64)
                .map(|agent| ((agent + shift) % 8 == 0).then_some(agent + 1))
                .collect()
        })
        .collect();
    let mut exercise = |net: &mut Network<'_>| {
        for values in &values {
            link.exchange_frames_with(net, values, 17, &mut bufs, &mut out)
                .expect("frame exchange");
        }
    };

    exercise(&mut net);
    let start = net.rounds_used();
    let before = allocations();
    exercise(&mut net);
    let total = allocations() - before;
    assert_eq!(net.rounds_used() - start, 4 * 18 * values.len() as u64);
    assert!(net.ground_truth_at_initial_positions());
    assert_eq!(total, 0, "{total} allocations across warm frame exchanges");
}

/// Equations of every kind — new, redundant, wrapping, conflicting — on a
/// knowledge base at the size of the largest perceptive table ring.
#[test]
fn gap_knowledge_records_equations_without_allocating() {
    let n = 512;
    let gap = CIRCUMFERENCE / n as u64;
    let mut knowledge = GapKnowledge::new(n);
    let before = allocations();
    for step in 1..n {
        for from in (0..n).step_by(step) {
            let to = (from + step) % n;
            let arc = ArcLength::from_ticks(gap * step as u64);
            knowledge.add_cw_arc(from, to, arc).expect("consistent");
        }
    }
    let conflict = knowledge.add_cw_arc(0, 1, ArcLength::from_ticks(gap + 2));
    let total = allocations() - before;
    assert!(knowledge.is_complete());
    assert!(conflict.is_err());
    assert_eq!(total, 0, "{total} allocations while recording equations");
}
