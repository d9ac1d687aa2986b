//! Allocation guard for the hot round loop: after a warm-up has sized the
//! reusable [`RoundBuffers`] arena, executing further rounds must perform
//! **zero** heap allocations — through the event engine (the reference
//! executor the faulty sweeps lean on) and through the analytic engine's
//! first-collision sweeps at protocol scale. A counting global allocator
//! (per thread, so the tests can run concurrently) measures the rounds, so
//! any per-round allocation sneaking back into the engines fails the test
//! deterministically.

use ring_sim::{EngineKind, ObjectiveDirection, RingConfig, RingState, RoundBuffers};
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
        // purposes: the arena is supposed to have reached steady state.
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A deterministic per-round direction pattern that exercises both
/// movement directions and collisions (without allocating: the slice is
/// mutated in place).
fn fill_directions(directions: &mut [ObjectiveDirection], round: u64) {
    for (agent, slot) in directions.iter_mut().enumerate() {
        // Mix round and agent so the collision structure changes from
        // round to round.
        let bit = (round.wrapping_mul(0x9e37_79b9) >> (agent % 13)) & 1;
        *slot = if bit == 0 {
            ObjectiveDirection::Clockwise
        } else {
            ObjectiveDirection::Anticlockwise
        };
    }
}

/// Replays `rounds` identical rounds through a fresh state into the given
/// arena, returning the final rotation index as a use of the results.
fn replay(
    config: &RingConfig,
    bufs: &mut RoundBuffers,
    directions: &mut [ObjectiveDirection],
    rounds: u64,
) -> usize {
    let mut state = RingState::new(config);
    let mut last = 0usize;
    for round in 0..rounds {
        fill_directions(directions, round);
        last = state
            .execute_round_objective_into(directions, EngineKind::Event, bufs)
            .expect("round executes")
            .shift;
    }
    last
}

#[test]
fn event_engine_rounds_allocate_nothing_after_warmup() {
    const ROUNDS: u64 = 64;
    for n in [8usize, 13] {
        let config = RingConfig::builder(n)
            .random_positions(2015)
            .alternating_chirality()
            .build()
            .expect("valid config");
        let mut bufs = RoundBuffers::new();
        let mut directions = vec![ObjectiveDirection::Clockwise; n];

        // Warm-up: size every buffer in the arena, including the event
        // engine's collision scratch.
        let warm = replay(&config, &mut bufs, &mut directions, ROUNDS);

        // Measured replay of the *identical* rounds against a fresh state:
        // the arena is at steady state, so the loop must not allocate.
        let before = allocations();
        let replayed = replay(&config, &mut bufs, &mut directions, ROUNDS);
        let after = allocations();

        assert_eq!(warm, replayed, "replay must be deterministic");
        // A `RingState` is one rotation offset, so constructing the fresh
        // state allocates nothing either: the budget is exactly zero.
        let total = after - before;
        assert_eq!(
            total, 0,
            "n = {n}: {total} allocations across {ROUNDS} warm rounds; the \
             round loop must be allocation-free after warm-up"
        );
    }
}

#[test]
fn analytic_rounds_allocate_nothing_after_warmup() {
    const N: usize = 512;
    const ROUNDS: u64 = 64;
    let config = RingConfig::builder(N)
        .random_positions(2015)
        .alternating_chirality()
        .build()
        .expect("valid config");
    let mut state = RingState::new(&config);
    let mut bufs = RoundBuffers::new();
    let mut directions = vec![ObjectiveDirection::Clockwise; N];

    // Warm-up: size the arena, the analytic sweep tables included, and
    // leave the agents rotated away from their initial slots.
    for round in 0..ROUNDS {
        fill_directions(&mut directions, round);
        state
            .execute_round_objective_into(&directions, EngineKind::Analytic, &mut bufs)
            .expect("round executes");
    }
    assert!(
        !state.at_initial_positions(),
        "warm-up must rotate the state"
    );

    // Measured: further all-moving rounds on the rotated state. No state is
    // constructed in this window, so the budget is exactly zero.
    let before = allocations();
    let mut colliding_rounds = 0;
    for round in ROUNDS..2 * ROUNDS {
        fill_directions(&mut directions, round);
        state
            .execute_round_objective_into(&directions, EngineKind::Analytic, &mut bufs)
            .expect("round executes");
        if bufs.observations.iter().any(|obs| obs.coll.is_some()) {
            colliding_rounds += 1;
        }
    }
    let total = allocations() - before;

    assert!(
        colliding_rounds > ROUNDS / 2,
        "only {colliding_rounds} of {ROUNDS} measured rounds ran the collision sweeps"
    );
    assert_eq!(
        total, 0,
        "n = {N}: {total} allocations across {ROUNDS} warm analytic rounds; \
         the round loop must be allocation-free after warm-up"
    );
}
