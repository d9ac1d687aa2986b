//! Allocation guard for the instrumentation hot path: with tracing
//! disabled (the default), a warm instrumented loop — counter increment,
//! gauge update, histogram record, and a disabled [`ring_obs::span!`] site
//! — must perform **zero** heap allocations. The counter/gauge/histogram
//! updates are relaxed atomic adds on pre-registered handles; the disabled
//! span macro is a single relaxed load whose field expressions are never
//! evaluated. A counting global allocator pins all of that; it counts per
//! thread, so allocations the test harness makes on its own threads while
//! the loop runs are not charged to the loop.

use ring_obs::Registry;
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
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One iteration of an instrumented "round": everything a hot loop in the
/// harness does per case when tracing is off. `i` feeds the histogram so
/// multiple buckets are touched, and the span's field expression would
/// allocate if it were ever evaluated.
fn instrumented_round(
    hits: &ring_obs::Counter,
    depth: &ring_obs::Gauge,
    latency: &ring_obs::Histogram,
    i: u64,
) {
    let _span = ring_obs::span!("round", label = format!("round-{i}"));
    hits.inc();
    depth.set(i as i64);
    latency.record(i * 37);
}

#[test]
fn disabled_instrumentation_hot_path_allocates_nothing() {
    assert!(
        !ring_obs::trace::enabled(),
        "tracing must be off for this test"
    );
    let registry = Registry::new();
    // Registration allocates (name strings, Arc) — do it once, outside the
    // measured window, exactly as production code holds its handles.
    let hits = registry.counter("hits");
    let depth = registry.gauge("depth");
    let latency = registry.histogram("latency_ns");

    // Warm-up.
    for i in 0..1_000u64 {
        instrumented_round(&hits, &depth, &latency, i);
    }

    let before = allocations();
    for i in 0..10_000u64 {
        instrumented_round(&hits, &depth, &latency, i);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled-instrumentation loop must not allocate: counter/gauge/\
         histogram updates are relaxed atomic adds and the disabled span! \
         arm must not evaluate its fields"
    );
    assert_eq!(hits.get(), 11_000);
    assert_eq!(latency.count(), 11_000);
}
