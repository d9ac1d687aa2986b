//! `(N, n)`-distinguishers (Definitions 20 and 21 of the paper).
//!
//! A family `S = {S_1, …, S_k}` of subsets of `[N]` is an
//! `(N, n)`-distinguisher if for every pair of **disjoint** `n`-element
//! subsets `X_1, X_2 ⊆ [N]` some member `S_i` satisfies
//! `|S_i ∩ X_1| ≠ |S_i ∩ X_2|`.
//!
//! The paper shows (Proposition 22) that executing a distinguisher as a
//! sequence of rounds — agents with IDs in `S_i` move right in round `i`,
//! all others move left — solves the weak nontrivial-move problem in the
//! basic model with even `n`, and that conversely any such protocol yields a
//! distinguisher. The smallest distinguisher has size
//! `Θ(n·log(N/n)/log n)` (Lemma 23, Corollary 29); the upper bound is by the
//! probabilistic method (Theorem 27), which is exactly how
//! [`Distinguisher::random`] constructs one.

use crate::bounds::{distinguisher_size_lower_bound, nontrivial_move_round_bound};
use crate::idset::IdSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A finite family of ID sets intended to be an `(N, n)`-distinguisher.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Distinguisher {
    universe: u64,
    target_n: usize,
    sets: Vec<IdSet>,
}

impl Distinguisher {
    /// Builds a distinguisher for disjoint sets of size `n` over `[1, N]`
    /// using the probabilistic method of Theorem 27: every identifier joins
    /// every set independently with probability 1/2, and the number of sets
    /// is a constant factor above the `n·log(N/n)/log n` lower bound.
    ///
    /// Membership with probability 1/2 is one `u64` of entropy per 64
    /// identifiers, so each set costs O(N/64) RNG calls instead of O(N).
    ///
    /// The construction is deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `2 * n > N as usize`.
    pub fn random(universe: u64, n: usize, seed: u64) -> Self {
        assert!(n > 0, "distinguishers for empty sets are vacuous");
        assert!(
            2 * n as u64 <= universe,
            "two disjoint sets of size {n} do not fit in a universe of {universe}"
        );
        let size = recommended_size(universe, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let sets = (0..size).map(|_| random_set(universe, &mut rng)).collect();
        Distinguisher {
            universe,
            target_n: n,
            sets,
        }
    }

    /// Wraps an explicit family of sets.
    ///
    /// # Panics
    ///
    /// Panics if the sets do not all share the universe `universe`.
    pub fn from_sets(universe: u64, target_n: usize, sets: Vec<IdSet>) -> Self {
        assert!(sets.iter().all(|s| s.universe() == universe));
        Distinguisher {
            universe,
            target_n,
            sets,
        }
    }

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The set size `n` this family is meant to distinguish.
    pub fn target_n(&self) -> usize {
        self.target_n
    }

    /// Number of sets in the family (the number of rounds of the induced
    /// nontrivial-move protocol).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The sets of the family, in execution order.
    pub fn sets(&self) -> &[IdSet] {
        &self.sets
    }

    /// The `i`-th set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&self, i: usize) -> &IdSet {
        &self.sets[i]
    }

    /// Whether some member of the family separates `x1` and `x2`
    /// (`|S_i ∩ x1| ≠ |S_i ∩ x2|`). Both counts come from one fused pass
    /// over each set's words ([`IdSet::intersection_count_pair`]), so the
    /// set is streamed through the cache once rather than twice.
    pub fn distinguishes(&self, x1: &IdSet, x2: &IdSet) -> bool {
        self.sets.iter().any(|s| {
            let (c1, c2) = s.intersection_count_pair(x1, x2);
            c1 != c2
        })
    }

    /// Exhaustively verifies the distinguisher property for disjoint pairs
    /// of `n`-element subsets. Only feasible for small universes (the number
    /// of pairs grows as `C(N, n)²`); intended for tests.
    pub fn verify_exhaustive(&self, n: usize) -> bool {
        let ids: Vec<u64> = (1..=self.universe).collect();
        let mut x1_sets = Vec::new();
        subsets_of_size(&ids, n, &mut Vec::new(), 0, &mut x1_sets);
        for x1_ids in &x1_sets {
            let x1 = IdSet::from_ids(self.universe, x1_ids.iter().copied());
            let remaining: Vec<u64> = ids.iter().copied().filter(|id| !x1.contains(*id)).collect();
            let mut x2_sets = Vec::new();
            subsets_of_size(&remaining, n, &mut Vec::new(), 0, &mut x2_sets);
            for x2_ids in &x2_sets {
                let x2 = IdSet::from_ids(self.universe, x2_ids.iter().copied());
                if !self.distinguishes(&x1, &x2) {
                    return false;
                }
            }
        }
        true
    }

    /// Spot-checks the distinguisher property on `samples` random disjoint
    /// pairs of `n`-element subsets; returns the number of failures.
    ///
    /// Sampling reuses one permutation buffer and two set buffers across
    /// all samples (a Fisher–Yates prefix draws each pair), so the check
    /// costs O(n) mutation per sample instead of O(N) shuffling and
    /// allocation — which keeps harness-scale verification off the sweep's
    /// critical path.
    pub fn verify_sampled(&self, n: usize, samples: usize, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (1..=self.universe).collect();
        let mut x1 = IdSet::empty(self.universe);
        let mut x2 = IdSet::empty(self.universe);
        let mut failures = 0;
        for _ in 0..samples {
            partial_shuffle(&mut ids, 2 * n, &mut rng);
            for &id in &ids[..n] {
                x1.insert(id);
            }
            for &id in &ids[n..2 * n] {
                x2.insert(id);
            }
            if !self.distinguishes(&x1, &x2) {
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

    /// The paper's lower bound on the size of any `(N, n)`-distinguisher,
    /// for comparison against [`Distinguisher::len`].
    pub fn size_lower_bound(&self) -> f64 {
        distinguisher_size_lower_bound(self.universe, self.target_n)
    }
}

/// A *strong* distinguisher (Definition 21): an unbounded sequence of sets
/// whose prefix of length `f(N, n)` is an `(N, n)`-distinguisher for every
/// `n`. Used when the ring size is unknown to the agents.
///
/// Sets are generated lazily (and reproducibly) from a seed; the same object
/// can therefore serve every network size.
#[derive(Clone, Debug)]
pub struct StrongDistinguisher {
    universe: u64,
    seed: u64,
    cache: Vec<IdSet>,
}

impl StrongDistinguisher {
    /// Creates a strong distinguisher over `[1, universe]`.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64, seed: u64) -> Self {
        assert!(universe > 0);
        StrongDistinguisher {
            universe,
            seed,
            cache: Vec::new(),
        }
    }

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The `i`-th set of the sequence (0-indexed), generating it on demand.
    pub fn set(&mut self, i: usize) -> &IdSet {
        while self.cache.len() <= i {
            let idx = self.cache.len();
            self.cache.push(strong_set(self.universe, self.seed, idx));
        }
        &self.cache[i]
    }

    /// Length of the prefix that is expected to distinguish disjoint sets of
    /// size `n` (the function `f(N, n)` of Definition 21, with the
    /// probabilistic-method constants used by this crate).
    ///
    /// Definition 21 requires `f` to be nondecreasing in `n`, while the raw
    /// expression `n·log(N/n)/log n` is unimodal, so the running maximum
    /// over smaller set sizes is taken.
    pub fn prefix_size_for(&self, n: usize) -> usize {
        strong_prefix_size_for(self.universe, n)
    }

    /// Materialises the prefix for a given `n` as a plain [`Distinguisher`].
    pub fn prefix(&mut self, n: usize) -> Distinguisher {
        let k = self.prefix_size_for(n);
        let sets: Vec<IdSet> = (0..k).map(|i| self.set(i).clone()).collect();
        Distinguisher::from_sets(self.universe, n, sets)
    }
}

/// Salt of the per-universe **universal** strong sequence. There is exactly
/// one such sequence per universe; seeds select windows into it (see
/// [`crate::shared::strong_offset`]), so every seed's sequence shares one
/// underlying set stream — and one stored file in the structure store.
const UNIVERSAL_STRONG_SALT: u64 = 0x5eed_0000_0000_0001;

/// The `j`-th set of the universal strong sequence over `[1, universe]`.
/// Each index is seeded independently, so sets can be generated lazily, out
/// of order and concurrently (see [`crate::shared::StrongBase`]) and the
/// sequence is a pure function of `(universe, index)` alone.
pub(crate) fn universal_strong_set(universe: u64, index: usize) -> IdSet {
    let idx = index as u64;
    let mut rng =
        StdRng::seed_from_u64(UNIVERSAL_STRONG_SALT ^ idx.wrapping_mul(0x9e3779b97f4a7c15));
    random_set(universe, &mut rng)
}

/// The `i`-th set of a seeded strong-distinguisher sequence: the universal
/// sequence shifted by the seed's window offset. Any window of a stream of
/// i.i.d. uniform random sets is itself such a stream, so every window is an
/// equally valid strong distinguisher; different seeds execute genuinely
/// different sets at every round index while sharing one underlying
/// sequence (and therefore one stored blob per universe).
pub(crate) fn strong_set(universe: u64, seed: u64, index: usize) -> IdSet {
    universal_strong_set(universe, crate::shared::strong_offset(seed) + index)
}

/// The prefix length `f(N, n)` of Definition 21 shared by the sequential
/// and thread-shared strong distinguishers: the running maximum of the
/// recommended size over set sizes up to `n` (the raw expression is
/// unimodal, Definition 21 requires a nondecreasing `f`).
pub(crate) fn strong_prefix_size_for(universe: u64, n: usize) -> usize {
    let mut best = 0usize;
    let mut m = 1usize;
    loop {
        best = best.max(recommended_size(universe, m.min(n)));
        if m >= n {
            break;
        }
        m *= 2;
    }
    best
}

/// Number of random sets used by the probabilistic construction for
/// parameters `(N, n)`: a constant factor above the
/// `Θ(n·log(N/n)/log n)` bound plus an additive `O(log N)` term covering
/// very small sets.
fn recommended_size(universe: u64, n: usize) -> usize {
    let bound = nontrivial_move_round_bound(universe, 2 * n);
    let log_n = ((universe as f64).log2()).max(1.0);
    (8.0 * bound + 8.0 * log_n + 32.0).ceil() as usize
}

/// Draws a uniform random subset (membership probability 1/2) with one
/// random word per 64 identifiers — the word-parallel version of the
/// per-identifier coin-flip loop (kept as
/// [`crate::reference::random_set_reference`] for cross-validation).
fn random_set(universe: u64, rng: &mut StdRng) -> IdSet {
    let mut s = IdSet::empty(universe);
    s.fill_with_words(|_| rng.gen::<u64>());
    s
}

/// Uniformly permutes the first `k` entries of `ids` (a Fisher–Yates
/// prefix): every `k`-element sample of the slice is equally likely, but
/// only O(k) entries are touched instead of shuffling the whole universe.
pub(crate) fn partial_shuffle(ids: &mut [u64], k: usize, rng: &mut StdRng) {
    let len = ids.len();
    for i in 0..k.min(len) {
        let j = rng.gen_range(i..len);
        ids.swap(i, j);
    }
}

fn subsets_of_size(
    ids: &[u64],
    k: usize,
    current: &mut Vec<u64>,
    start: usize,
    out: &mut Vec<Vec<u64>>,
) {
    if current.len() == k {
        out.push(current.clone());
        return;
    }
    for i in start..ids.len() {
        current.push(ids[i]);
        subsets_of_size(ids, k, current, i + 1, out);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_distinguisher_verifies_exhaustively_on_small_universe() {
        let d = Distinguisher::random(10, 2, 12345);
        assert!(d.verify_exhaustive(2));
        assert!(d.len() >= d.size_lower_bound() as usize);
    }

    #[test]
    fn random_distinguisher_passes_sampling_on_larger_universe() {
        let d = Distinguisher::random(128, 8, 99);
        assert_eq!(d.verify_sampled(8, 500, 7), 0);
    }

    #[test]
    fn distinguishes_is_symmetric_in_failure() {
        // A family consisting of the full universe only cannot distinguish
        // equal-size sets (it always intersects both in n elements).
        let full = IdSet::full(12);
        let d = Distinguisher::from_sets(12, 3, vec![full]);
        let x1 = IdSet::from_ids(12, [1, 2, 3]);
        let x2 = IdSet::from_ids(12, [4, 5, 6]);
        assert!(!d.distinguishes(&x1, &x2));
        assert!(!d.verify_exhaustive(3));
    }

    #[test]
    fn singleton_sets_distinguish() {
        // The family of all singletons trivially distinguishes any two
        // different sets.
        let sets: Vec<IdSet> = (1..=8).map(|i| IdSet::from_ids(8, [i])).collect();
        let d = Distinguisher::from_sets(8, 3, sets);
        assert!(d.verify_exhaustive(3));
    }

    #[test]
    fn strong_distinguisher_prefixes_grow_with_n() {
        let mut s = StrongDistinguisher::new(1 << 16, 5);
        let small = s.prefix_size_for(2);
        let large = s.prefix_size_for(16);
        assert!(large > small);
        let p = s.prefix(2);
        assert_eq!(p.len(), small);
        assert_eq!(p.universe(), 1 << 16);
        // Prefix sizes are nondecreasing even when IDs get dense.
        let dense = StrongDistinguisher::new(64, 5);
        assert!(dense.prefix_size_for(16) >= dense.prefix_size_for(2));
        // Deterministic regeneration.
        let mut s2 = StrongDistinguisher::new(1 << 16, 5);
        assert_eq!(s2.set(3), s.set(3));
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversized_target_panics() {
        let _ = Distinguisher::random(10, 6, 0);
    }
}
