//! The parallel executor: an order-preserving parallel map.
//!
//! [`parallel_map`] runs a slice of work items on `jobs` worker threads
//! that share one claim cursor: each thread atomically takes the next
//! unclaimed index and runs it, so items start in index order and a
//! straggler case holds up only the thread running it. Results are
//! returned **in item order**, and each item's result depends only on
//! `(index, item)` — never on which thread ran it — so the output of a
//! sweep is bit-identical for every job count and every scheduling
//! interleaving. (Determinism of the overall harness also rests on the
//! structure cache serving bit-identical structures; see `crate::cache`.)

use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads to use when the caller does not specify
/// one: the machine's available parallelism.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `worker(index, &items[index])` for every item across `jobs`
/// threads (clamped to the item count; `0` means [`available_jobs`]) and
/// returns the results in item order. One job runs the items in a plain
/// loop on the calling thread.
///
/// `worker` may have observable side effects (the engine streams results
/// from inside it); effects that must be ordered belong behind an ordered
/// sink, not the call order, which is scheduling-dependent for `jobs > 1`.
///
/// # Panics
///
/// Propagates panics from `worker` (the other threads first run the rest
/// of the slice).
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, worker: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = if jobs == 0 { available_jobs() } else { jobs };
    let jobs = jobs.min(items.len()).max(1);
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| worker(i, t))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let worker_started = std::time::Instant::now();
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    let mut busy_ns = 0u64;
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            break;
                        };
                        let item_started = std::time::Instant::now();
                        produced.push((index, worker(index, item)));
                        busy_ns = busy_ns.saturating_add(ring_obs::elapsed_ns(item_started));
                    }
                    // One sample per worker per pass: the busy/idle split
                    // shows how evenly the pass kept its threads working.
                    let obs = ring_obs::global();
                    obs.histogram("executor_worker_busy_ns").record(busy_ns);
                    obs.histogram("executor_worker_idle_ns")
                        .record(ring_obs::elapsed_ns(worker_started).saturating_sub(busy_ns));
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("worker thread panicked") {
                results[index] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        for jobs in [1, 2, 3, 8] {
            let out = parallel_map(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(
                out,
                items.iter().map(|&x| x * x).collect::<Vec<_>>(),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let items: Vec<usize> = (0..64).collect();
        let counter = AtomicUsize::new(0);
        let out = parallel_map(&items, 4, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            // Uneven work, so threads finish their items out of order.
            if x % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(out, items);
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], 0, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn items_start_in_index_order_while_stragglers_run() {
        // Items 0 and 1 hold two of the three threads until the last item
        // starts, so one thread runs every other item alone: it must take
        // 3, 4, 5, … in order rather than run ahead or back-fill a skipped
        // index. The first three items meet at a barrier, so each has a
        // thread of its own; they start together, so only their set counts.
        let items: Vec<usize> = (0..16).collect();
        let last = items.len() - 1;
        let (first_three, stragglers) = (Barrier::new(3), Barrier::new(3));
        let starts = Mutex::new(Vec::new());
        parallel_map(&items, 3, |i, _| {
            starts.lock().unwrap().push(i);
            if i < 3 {
                first_three.wait();
            }
            if i < 2 || i == last {
                stragglers.wait();
            }
        });
        let mut starts = starts.into_inner().unwrap();
        starts[..3].sort_unstable();
        assert_eq!(starts, items);
    }
}
