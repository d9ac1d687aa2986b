//! The shard planner.
//!
//! A sweep's case index space `0..total` is partitioned into `shards`
//! **contiguous** ranges. Contiguity is what makes the downstream merge a
//! verification-only concatenation in the common case and keeps each shard
//! JSONL file internally sorted by `case_index`; balance (range lengths
//! differ by at most one) keeps the fleet evenly loaded. The plan is a pure
//! function of `(total, shards)`, so every participant — orchestrator,
//! workers launched on other machines, `resume` — computes the identical
//! partition independently.

use serde::Serialize;

/// One contiguous shard of a sweep's case index space: `start..end`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ShardRange {
    /// The shard number, `0..shards`.
    pub shard: usize,
    /// First case index of the shard (inclusive).
    pub start: usize,
    /// One past the last case index of the shard (exclusive).
    pub end: usize,
}

impl ShardRange {
    /// Number of cases in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard holds no cases (possible when `shards > total`).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The most shards a plan may have. [`plan_shards`] allocates one range per
/// shard and a run writes one manifest entry per shard, so every shard
/// count from outside the program (`ringlab --shards M`, the `M` of
/// `--shard i/M`, the `shards` of a `POST /v1/runs` body) is refused above
/// it before anything is planned.
pub const MAX_SHARDS: usize = 1024;

/// Deterministically partitions `0..total` into `shards` contiguous,
/// balanced ranges. The first `total % shards` ranges hold one extra case.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn plan_shards(total: usize, shards: usize) -> Vec<ShardRange> {
    assert!(shards > 0, "a plan needs at least one shard");
    let base = total / shards;
    let extra = total % shards;
    let mut start = 0;
    (0..shards)
        .map(|shard| {
            let len = base + usize::from(shard < extra);
            let range = ShardRange {
                shard,
                start,
                end: start + len,
            };
            start = range.end;
            range
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_division_and_remainders() {
        assert_eq!(
            plan_shards(6, 3),
            vec![
                ShardRange {
                    shard: 0,
                    start: 0,
                    end: 2
                },
                ShardRange {
                    shard: 1,
                    start: 2,
                    end: 4
                },
                ShardRange {
                    shard: 2,
                    start: 4,
                    end: 6
                },
            ]
        );
        let ranges = plan_shards(7, 3);
        assert_eq!(
            ranges.iter().map(ShardRange::len).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        // More shards than cases: trailing shards are empty, never panic.
        let ranges = plan_shards(2, 5);
        assert_eq!(
            ranges.iter().map(ShardRange::len).collect::<Vec<_>>(),
            vec![1, 1, 0, 0, 0]
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        plan_shards(4, 0);
    }

    proptest! {
        /// For arbitrary totals and shard counts the plan is a contiguous,
        /// balanced, exhaustive partition of `0..total`.
        #[test]
        fn plans_partition_the_index_space(total in 0usize..5000, shards in 1usize..64) {
            let ranges = plan_shards(total, shards);
            prop_assert_eq!(ranges.len(), shards);
            let mut next = 0;
            for (i, range) in ranges.iter().enumerate() {
                prop_assert_eq!(range.shard, i);
                prop_assert_eq!(range.start, next);
                prop_assert!(range.end >= range.start);
                next = range.end;
            }
            prop_assert_eq!(next, total);
            let lens: Vec<usize> = ranges.iter().map(ShardRange::len).collect();
            let min = lens.iter().min().copied().unwrap_or(0);
            let max = lens.iter().max().copied().unwrap_or(0);
            prop_assert!(max - min <= 1, "unbalanced plan: {:?}", lens);
        }
    }
}
