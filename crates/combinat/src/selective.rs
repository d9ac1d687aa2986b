//! `(N, n)`-selective families (Definition 35 of the paper, after
//! Clementi, Monti and Silvestri).
//!
//! A family `F` of subsets of `[N]` is `(N, n)`-selective if for every
//! nonempty `Z ⊆ [N]` with `|Z| ≤ n` there is an `F ∈ F` with
//! `|Z ∩ F| = 1`. Selective families of size `O(n · log(N/n))` exist; the
//! perceptive-model nontrivial-move algorithm `NMoveS` (Algorithm 4)
//! executes one on the current set of local leaders so that in some round a
//! *single* leader deviates, which changes the rotation index by exactly 2
//! and therefore produces a nontrivial move.
//!
//! The family is **implicit**: set `k` at scale `j` contains `id` iff a
//! 64-bit mix of `(seed, level, j, k, id)` has its low `j` bits zero
//! ([`implicit_member`]), so each identifier is in it with probability
//! exactly `2^{-j}`, independently across sets. A family is a handful of
//! integers, never `Θ(N)` words per set, and membership costs one mix.
//! `NMoveS` evaluates the same function, so the family the scaling
//! experiment verifies is the one the protocol executes. Verification
//! touches only the sampled identifiers: a sample `Z` is checked against
//! the sets of the scale nearest `log₂|Z|` first, where a set isolates one
//! member with constant probability.

use crate::bounds::selective_family_size_bound;
use crate::idset::IdSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Pseudo-random membership of `id` in set `set_index` at `scale`
/// (inclusion probability `2^{-scale}`) of the implicit selective family
/// at `level`, derived from a public seed so that every agent evaluates it
/// identically.
pub fn implicit_member(seed: u64, level: u32, scale: u32, set_index: u64, id: u64) -> bool {
    // SplitMix64-style mixing.
    let mut x = seed
        ^ (u64::from(level)).wrapping_mul(0x9e3779b97f4a7c15)
        ^ (u64::from(scale)).wrapping_mul(0xc2b2ae3d27d4eb4f)
        ^ set_index.wrapping_mul(0xd6e8feb86659fd93)
        ^ id.wrapping_mul(0xa0761d6478bd642f);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    if scale >= 64 {
        return false;
    }
    x & ((1u64 << scale) - 1) == 0
}

/// Number of sets of scale `scale` in a family over `universe`.
fn batch_size(universe: u64, scale: u32) -> usize {
    let width = (universe as f64 / f64::from(1u32 << scale)).max(2.0);
    let batch = (6.0 * f64::from(1u32 << scale) * width.log2().max(1.0)).ceil() as usize;
    batch.max(4)
}

/// `⌈log₂ n⌉` (0 for `n = 1`): the largest scale of an `(N, n)` family.
fn max_scale(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

/// An implicit family of ID sets intended to be `(N, n)`-selective.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct SelectiveFamily {
    universe: u64,
    target_n: usize,
    seed: u64,
    /// `scale_starts[j]` is the index of the first set of scale `j`; the
    /// last entry is the family size.
    scale_starts: Vec<usize>,
}

impl SelectiveFamily {
    /// The standard probabilistic `(N, n)`-selective family: for every
    /// scale `j ≤ ⌈log₂ n⌉` a batch of sets in which each identifier
    /// appears independently with probability `2^{-j}`; a set of the right
    /// scale isolates a given `Z` with constant probability, so
    /// logarithmically many sets per scale suffice with high probability.
    /// Deterministic given `seed`, and O(log n) to build: membership is
    /// evaluated on demand.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n as u64 > universe`.
    pub fn random(universe: u64, n: usize, seed: u64) -> Self {
        assert!(n > 0, "selective families need a positive target size");
        assert!(n as u64 <= universe, "target size exceeds the universe");
        let mut scale_starts = vec![0];
        for scale in 0..=max_scale(n) {
            scale_starts.push(scale_starts[scale as usize] + batch_size(universe, scale));
        }
        SelectiveFamily {
            universe,
            target_n: n,
            seed,
            scale_starts,
        }
    }

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The maximum size of sets this family is designed to select from.
    pub fn target_n(&self) -> usize {
        self.target_n
    }

    /// Number of sets in the family.
    pub fn len(&self) -> usize {
        *self.scale_starts.last().expect("at least one scale")
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index range of each scale's batch of sets, by ascending scale:
    /// the sets of range `j` contain each identifier with probability
    /// `2^{-j}`.
    pub fn scale_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.scale_starts.windows(2).map(|w| w[0]..w[1])
    }

    /// The largest scale, `⌈log₂ n⌉`: also the level under which
    /// [`implicit_member`] is evaluated, so this family's scale-`j` sets
    /// extend the ones `NMoveS` executes at that level.
    fn level(&self) -> u32 {
        (self.scale_starts.len() - 2) as u32
    }

    /// The `(scale, index within the scale)` of set `i`.
    fn locate(&self, i: usize) -> (u32, u64) {
        assert!(i < self.len(), "set {i} of a family of {}", self.len());
        let scale = self.scale_starts.partition_point(|&start| start <= i) - 1;
        (scale as u32, (i - self.scale_starts[scale]) as u64)
    }

    fn member(&self, scale: u32, index: u64, id: u64) -> bool {
        implicit_member(self.seed, self.level(), scale, index, id)
    }

    /// The `i`-th set, materialised (O(N)).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&self, i: usize) -> IdSet {
        let (scale, index) = self.locate(i);
        IdSet::from_ids(
            self.universe,
            (1..=self.universe).filter(|&id| self.member(scale, index, id)),
        )
    }

    /// Every set of the family in execution order, materialised
    /// (O(N · len()) time and memory — for oracles and tests).
    pub fn sets(&self) -> Vec<IdSet> {
        (0..self.len()).map(|i| self.set(i)).collect()
    }

    /// Whether set `index` of `scale` meets `ids` in exactly one element.
    fn isolates(&self, scale: u32, index: u64, ids: &[u64]) -> bool {
        let mut hits = ids.iter().filter(|&&id| self.member(scale, index, id));
        hits.next().is_some() && hits.next().is_none()
    }

    /// Index of the first set that intersects `z` in exactly one element,
    /// or `None` if the family fails to select `z`.
    pub fn selects(&self, z: &IdSet) -> Option<usize> {
        let ids: Vec<u64> = z.iter().collect();
        (0..self.len()).find(|&i| {
            let (scale, index) = self.locate(i);
            self.isolates(scale, index, &ids)
        })
    }

    /// Whether some set meets the distinct identifiers `ids` in exactly one
    /// element. Scales are searched outward from the one nearest
    /// `log₂|ids|`, where isolation is likeliest; the verdict does not
    /// depend on the order.
    fn selects_ids(&self, ids: &[u64]) -> bool {
        let top = self.level();
        let nearest = ((ids.len().max(1) as f64).log2().round() as u32).min(top);
        let outward = (1..=top).flat_map(|d| [nearest.checked_sub(d), Some(nearest + d)]);
        std::iter::once(Some(nearest))
            .chain(outward)
            .flatten()
            .filter(|&scale| scale <= top)
            .any(|scale| {
                let batch =
                    self.scale_starts[scale as usize + 1] - self.scale_starts[scale as usize];
                (0..batch as u64).any(|index| self.isolates(scale, index, ids))
            })
    }

    /// Exhaustively verifies selectivity for all nonempty subsets of size at
    /// most `n`. Exponential in the universe; intended for tests with tiny
    /// universes.
    pub fn verify_exhaustive(&self, n: usize) -> bool {
        let universe = self.universe as usize;
        let mut ids = Vec::with_capacity(universe);
        // Iterate over all nonempty bitmasks with at most n bits set.
        (1u64..(1u64 << universe)).all(|mask| {
            if mask.count_ones() as usize > n {
                return true;
            }
            ids.clear();
            ids.extend(
                (0..universe as u64)
                    .filter(|b| mask >> b & 1 == 1)
                    .map(|b| b + 1),
            );
            self.selects_ids(&ids)
        })
    }

    /// Spot-checks selectivity on `samples` random subsets with sizes drawn
    /// uniformly from `[1, n]`; returns the number of failures. Each sample
    /// is a Fisher–Yates prefix of the universe, checked through its own
    /// identifiers only.
    pub fn verify_sampled(&self, n: usize, samples: usize, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (1..=self.universe).collect();
        (0..samples)
            .filter(|_| {
                let size = rng.gen_range(1..=n);
                crate::distinguisher::partial_shuffle(&mut ids, size, &mut rng);
                !self.selects_ids(&ids[..size])
            })
            .count()
    }

    /// The classical `O(n log(N/n))` size bound, for comparison against
    /// [`SelectiveFamily::len`].
    pub fn size_bound(&self) -> f64 {
        selective_family_size_bound(self.universe, self.target_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_family_is_selective_on_tiny_universe() {
        let f = SelectiveFamily::random(10, 4, 42);
        assert!(f.verify_exhaustive(4));
    }

    #[test]
    fn random_family_passes_sampling_on_larger_universe() {
        let f = SelectiveFamily::random(256, 16, 3);
        assert_eq!(f.verify_sampled(16, 300, 11), 0);
    }

    #[test]
    fn selects_reports_first_isolating_set() {
        let f = SelectiveFamily::random(64, 8, 5);
        let z = IdSet::from_ids(64, [3, 17, 40]);
        let first = f.selects(&z).expect("a selective family selects a 3-set");
        assert_eq!(
            (0..f.len()).find(|&i| f.set(i).intersection_count(&z) == 1),
            Some(first)
        );
        // Scale 0 is the whole universe: it never isolates two ids.
        assert!(!f.scale_ranges().next().unwrap().contains(&first));
    }

    #[test]
    fn singletons_form_a_selective_family() {
        // The explicit family of singletons selects every nonempty subset,
        // by the first-index scan the implicit family is checked against.
        let sets: Vec<IdSet> = (1..=6).map(|i| IdSet::from_ids(6, [i])).collect();
        for mask in 1u64..1 << 6 {
            let z = IdSet::from_ids(6, (1..=6).filter(|id| mask >> (id - 1) & 1 == 1));
            let first = crate::reference::selects_reference(&sets, &z);
            assert_eq!(first, Some(mask.trailing_zeros() as usize));
        }
    }

    #[test]
    fn sizes_and_materialised_sets_follow_the_scales() {
        let f = SelectiveFamily::random(130, 8, 3);
        let ranges: Vec<_> = f.scale_ranges().collect();
        assert_eq!(ranges.len(), 4, "scales 0..=3");
        for (scale, range) in ranges.iter().enumerate() {
            assert_eq!(range.len(), batch_size(130, scale as u32));
        }
        assert_eq!(ranges.last().unwrap().end, f.len());
        let sets = f.sets();
        assert_eq!(sets.len(), f.len());
        assert_eq!(sets[0], IdSet::full(130), "scale 0 holds everything");
        // Set k of scale j is NMoveS's set k of scale j at level
        // ⌈log₂ 8⌉ = 3 under the same seed.
        for (scale, range) in ranges.iter().enumerate() {
            for (k, set) in sets[range.clone()].iter().enumerate().step_by(5) {
                for id in 1..=130 {
                    let member = implicit_member(3, 3, scale as u32, k as u64, id);
                    assert_eq!(set.contains(id), member);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive target size")]
    fn zero_target_panics() {
        let _ = SelectiveFamily::random(8, 0, 0);
    }

    #[test]
    fn implicit_membership_is_deterministic_and_scale_sensitive() {
        let a = implicit_member(1, 2, 3, 4, 5);
        let b = implicit_member(1, 2, 3, 4, 5);
        assert_eq!(a, b);
        // Scale 0 includes everything.
        for id in 1..100 {
            assert!(implicit_member(9, 0, 0, 0, id));
        }
        // Large scales include almost nothing.
        let dense: usize = (1..=1000u64)
            .filter(|&id| implicit_member(9, 0, 10, 0, id))
            .count();
        assert!(dense < 30, "expected ~1/1024 density, got {dense}/1000");
    }

    /// Golden values of the mixer, recorded from the implementation `NMoveS`
    /// has always run: if these move, perceptive-model round counts move.
    #[test]
    fn implicit_membership_matches_golden_values() {
        let mask = |seed, level, scale, set_index| {
            (1..=64u64)
                .filter(|&id| implicit_member(seed, level, scale, set_index, id))
                .fold(0u64, |m, id| m | 1 << (id - 1))
        };
        assert_eq!(mask(0, 0, 1, 0), 0x29f8_1c0d_9ceb_846e);
        assert_eq!(mask(0x63, 3, 1, 7), 0x1cf3_7316_2380_4c1d);
        assert_eq!(mask(0x63, 3, 2, 0), 0x0000_180a_4083_a30c);
        assert_eq!(mask(0x5eed, 5, 3, 41), 0x1200_0408_8004_6420);
        assert_eq!(mask(u64::MAX, 10, 4, 1000), 0x0000_0040_0000_0100);
        assert_eq!(mask(0x29, 7, 1, 123_456), 0xba45_d7aa_c71e_b64c);
        let count = (1..=100_000u64)
            .filter(|&id| implicit_member(7, 2, 6, 3, id))
            .count();
        assert_eq!(count, 1615);
    }
}
