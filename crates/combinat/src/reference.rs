//! Element-wise reference implementations of the probabilistic
//! constructions.
//!
//! These are the pre-word-parallel builders, kept verbatim as (a) baselines
//! for the `bench_combinat` speedup trajectory (`BENCH_combinat.json`) and
//! (b) oracles for property tests: the word-parallel constructions must
//! produce families that pass exactly the same validity verifiers. The
//! explicit selective family is plain `Vec<IdSet>` (the implicit
//! [`SelectiveFamily`](crate::SelectiveFamily) is compared with it
//! statistically), and the first-index scan over explicit sets is the
//! oracle of the implicit family's scale-first sampled verification. They
//! are **not** part of the performance surface — never call them from
//! protocol code.

use crate::bounds::nontrivial_move_round_bound;
use crate::distinguisher::Distinguisher;
use crate::idset::IdSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-identifier coin-flip subset draw (the old `random_set`): one RNG
/// call and one branch per identifier.
pub fn random_set_reference(universe: u64, rng: &mut StdRng) -> IdSet {
    let mut s = IdSet::empty(universe);
    for id in 1..=universe {
        if rng.gen::<bool>() {
            s.insert(id);
        }
    }
    s
}

/// Element-by-element `Distinguisher::random` (Theorem 27) with O(N) RNG
/// calls per set.
pub fn distinguisher_random_reference(universe: u64, n: usize, seed: u64) -> Distinguisher {
    assert!(n > 0, "distinguishers for empty sets are vacuous");
    assert!(
        2 * n as u64 <= universe,
        "two disjoint sets of size {n} do not fit in a universe of {universe}"
    );
    let size = reference_recommended_size(universe, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let sets = (0..size)
        .map(|_| random_set_reference(universe, &mut rng))
        .collect();
    Distinguisher::from_sets(universe, n, sets)
}

/// Element-by-element explicit selective family (Definition 35) with an
/// `f64` comparison per identifier per set: the per-scale batch sizes of
/// [`SelectiveFamily::random`](crate::SelectiveFamily::random), restated
/// here so its `len()` cannot drift unseen, with memberships drawn from an
/// `StdRng` stream instead of the implicit membership mix. The implicit
/// family is compared against it statistically, not bit for bit.
pub fn selective_random_reference(universe: u64, n: usize, seed: u64) -> Vec<IdSet> {
    assert!(n > 0, "selective families need a positive target size");
    assert!(n as u64 <= universe, "target size exceeds the universe");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::new();
    let max_scale = usize::BITS - (n - 1).leading_zeros();
    for scale in 0..=max_scale {
        let p = 1.0 / f64::from(1u32 << scale);
        let width = (universe as f64 / f64::from(1u32 << scale)).max(2.0);
        let batch = (6.0 * f64::from(1u32 << scale) * width.log2().max(1.0)).ceil() as usize;
        for _ in 0..batch.max(4) {
            let mut s = IdSet::empty(universe);
            for id in 1..=universe {
                if rng.gen::<f64>() < p {
                    s.insert(id);
                }
            }
            sets.push(s);
        }
    }
    sets
}

/// The first-index scan over explicit sets: the index of the first set
/// meeting `z` in exactly one element, counting each set's hits by walking
/// `z.iter()` (an O(N/64) word scan per set).
pub fn selects_reference(sets: &[IdSet], z: &IdSet) -> Option<usize> {
    sets.iter().position(|s| {
        let mut count = 0usize;
        for id in z.iter() {
            if s.contains(id) {
                count += 1;
                if count > 1 {
                    return false;
                }
            }
        }
        count == 1
    })
}

/// The explicit-set
/// [`SelectiveFamily::verify_sampled`](crate::SelectiveFamily::verify_sampled):
/// the identical Fisher–Yates sample draw (same RNG stream), each sample
/// inserted into a dense set and checked by [`selects_reference`] over
/// `sets` in index order — so its failure count equals the scale-first
/// search's exactly.
pub fn selective_verify_sampled_reference(
    sets: &[IdSet],
    universe: u64,
    n: usize,
    samples: usize,
    seed: u64,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<u64> = (1..=universe).collect();
    let mut z = IdSet::empty(universe);
    let mut failures = 0;
    for _ in 0..samples {
        let size = rng.gen_range(1..=n);
        crate::distinguisher::partial_shuffle(&mut ids, size, &mut rng);
        for &id in &ids[..size] {
            z.insert(id);
        }
        if selects_reference(sets, &z).is_none() {
            failures += 1;
        }
        for &id in &ids[..size] {
            z.remove(id);
        }
    }
    failures
}

/// Element-wise union oracle for the chunked `union_with` kernel: one
/// membership test and one conditional insert per identifier.
pub fn union_reference(a: &IdSet, b: &IdSet) -> IdSet {
    assert_eq!(a.universe(), b.universe(), "universe mismatch");
    let mut out = IdSet::empty(a.universe());
    for id in 1..=a.universe() {
        if a.contains(id) || b.contains(id) {
            out.insert(id);
        }
    }
    out
}

/// Element-wise intersection oracle for the chunked `intersect_with`
/// kernel.
pub fn intersection_reference(a: &IdSet, b: &IdSet) -> IdSet {
    assert_eq!(a.universe(), b.universe(), "universe mismatch");
    let mut out = IdSet::empty(a.universe());
    for id in 1..=a.universe() {
        if a.contains(id) && b.contains(id) {
            out.insert(id);
        }
    }
    out
}

/// Element-wise difference oracle for the chunked `difference_with`
/// kernel.
pub fn difference_reference(a: &IdSet, b: &IdSet) -> IdSet {
    assert_eq!(a.universe(), b.universe(), "universe mismatch");
    let mut out = IdSet::empty(a.universe());
    for id in 1..=a.universe() {
        if a.contains(id) && !b.contains(id) {
            out.insert(id);
        }
    }
    out
}

/// Element-wise complement oracle for the chunked `complement_in_place`
/// kernel.
pub fn complement_reference(a: &IdSet) -> IdSet {
    let mut out = IdSet::empty(a.universe());
    for id in 1..=a.universe() {
        if !a.contains(id) {
            out.insert(id);
        }
    }
    out
}

/// Element-wise cardinality oracle for the fused multi-word popcount in
/// `IdSet::len`.
pub fn len_reference(a: &IdSet) -> usize {
    (1..=a.universe()).filter(|&id| a.contains(id)).count()
}

/// Element-wise intersection-size oracle for `IdSet::intersection_count`
/// and the fused `IdSet::intersection_count_pair`.
pub fn intersection_count_reference(a: &IdSet, b: &IdSet) -> usize {
    assert_eq!(a.universe(), b.universe(), "universe mismatch");
    (1..=a.universe())
        .filter(|&id| a.contains(id) && b.contains(id))
        .count()
}

/// Element-wise `Distinguisher::verify_sampled`: the identical Fisher–Yates
/// pair draw (same RNG stream, same buffers), but every separation test
/// scans identifiers one by one through [`intersection_count_reference`]
/// instead of streaming chunked words — so the failure count matches the
/// fast path exactly while the per-set cost is the old O(N) loop.
pub fn verify_sampled_reference(d: &Distinguisher, n: usize, samples: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<u64> = (1..=d.universe()).collect();
    let mut x1 = IdSet::empty(d.universe());
    let mut x2 = IdSet::empty(d.universe());
    let mut failures = 0;
    for _ in 0..samples {
        crate::distinguisher::partial_shuffle(&mut ids, 2 * n, &mut rng);
        for &id in &ids[..n] {
            x1.insert(id);
        }
        for &id in &ids[n..2 * n] {
            x2.insert(id);
        }
        let separated = (0..d.len()).any(|i| {
            intersection_count_reference(d.set(i), &x1)
                != intersection_count_reference(d.set(i), &x2)
        });
        if !separated {
            failures += 1;
        }
        for &id in &ids[..n] {
            x1.remove(id);
        }
        for &id in &ids[n..2 * n] {
            x2.remove(id);
        }
    }
    failures
}

/// Mirror of `distinguisher::recommended_size`, duplicated so that the
/// reference path cannot silently drift when the tuned path changes.
fn reference_recommended_size(universe: u64, n: usize) -> usize {
    let bound = nontrivial_move_round_bound(universe, 2 * n);
    let log_n = ((universe as f64).log2()).max(1.0);
    (8.0 * bound + 8.0 * log_n + 32.0).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectiveFamily;

    #[test]
    fn reference_families_have_the_same_shape_as_the_fast_ones() {
        let fast = Distinguisher::random(256, 4, 9);
        let slow = distinguisher_random_reference(256, 4, 9);
        assert_eq!(fast.len(), slow.len());
        assert_eq!(fast.universe(), slow.universe());

        let fast = SelectiveFamily::random(256, 8, 9);
        let slow = selective_random_reference(256, 8, 9);
        assert_eq!(fast.len(), slow.len());
        assert_eq!(fast.universe(), slow[0].universe());
    }

    #[test]
    fn sampled_verification_reference_matches_the_fast_path() {
        let d = Distinguisher::random(256, 4, 9);
        assert_eq!(
            d.verify_sampled(4, 16, 5),
            verify_sampled_reference(&d, 4, 16, 5)
        );
    }

    #[test]
    fn reference_families_are_valid() {
        let d = distinguisher_random_reference(10, 2, 4);
        assert!(d.verify_exhaustive(2));
        let sets = selective_random_reference(10, 4, 4);
        let all_small_subsets_selected =
            (1u64..1 << 10)
                .filter(|mask| mask.count_ones() <= 4)
                .all(|mask| {
                    let z = IdSet::from_ids(10, (1..=10).filter(|id| mask >> (id - 1) & 1 == 1));
                    selects_reference(&sets, &z).is_some()
                });
        assert!(all_small_subsets_selected);
    }
}
