//! Compact sets of agent identifiers.
//!
//! Identifiers are natural numbers in `[1, N]` (the paper's ID universe).
//! [`IdSet`] stores membership as a bitset and remembers the universe size,
//! so set operations can validate that both operands talk about the same
//! universe.
//!
//! Everything on the hot paths is word-parallel: bulk constructors fill
//! whole 64-bit words ([`IdSet::full`], [`IdSet::with_bit`],
//! [`IdSet::fill_with_words`]), iteration walks set bits with
//! `trailing_zeros`, intersections are popcounts, and the `*_with` methods
//! update a set in place without reallocating. Identifier `id` lives at bit
//! `id % 64` of word `id / 64`; bit 0 of word 0 (the nonexistent
//! identifier 0) and the bits above `universe` in the last word are kept
//! zero — the *canonical form* that the word-parallel operations rely on
//! and debug builds assert.
//!
//! The set-algebra and popcount kernels process `CHUNK` words per
//! iteration through `chunks_exact`, which the optimiser turns into SIMD
//! on stable Rust (the chunk bodies are straight-line, branch-free and
//! alias-free); the remainder loop covers the final partial chunk. The
//! element-wise oracles in [`crate::reference`] pin the kernels'
//! semantics, and `tests/idset_chunk_props.rs` checks them bit-exactly
//! across word and chunk boundaries.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Words per inner-loop iteration of the chunked kernels: four 64-bit
/// lanes (256 bits of universe per step) — wide enough for the
/// autovectoriser, small enough that the remainder loop stays cheap for
/// the `N / 64 + 1`-word sets of small universes.
const CHUNK: usize = 4;

/// Fused popcount of one chunk (a single reduction the optimiser keeps in
/// registers instead of four independent accumulator updates).
#[inline]
fn chunk_count(c: &[u64]) -> usize {
    (c[0].count_ones() + c[1].count_ones() + c[2].count_ones() + c[3].count_ones()) as usize
}

/// A subset of the identifier universe `[1, N]`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IdSet {
    universe: u64,
    words: Vec<u64>,
}

impl IdSet {
    /// Creates an empty set over the universe `[1, universe]`.
    ///
    /// The backing store is sized exactly: identifier `N` lives at bit
    /// `N % 64` of word `N / 64`, so `N / 64 + 1` words suffice.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is zero.
    pub fn empty(universe: u64) -> Self {
        assert!(universe > 0, "the identifier universe must be nonempty");
        let words = vec![0u64; universe as usize / 64 + 1];
        IdSet { universe, words }
    }

    /// Creates the full set `[1, universe]` by whole-word fills.
    pub fn full(universe: u64) -> Self {
        let mut s = Self::empty(universe);
        s.words.fill(!0u64);
        s.canonicalize();
        s.debug_assert_canonical();
        s
    }

    /// Creates a set from an iterator of identifiers.
    ///
    /// # Panics
    ///
    /// Panics if any identifier lies outside `[1, universe]`.
    pub fn from_ids<I>(universe: u64, ids: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let mut s = Self::empty(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Creates the set of identifiers in `[1, universe]` whose `bit`-th bit
    /// (0-indexed, least significant first) equals `value` — the bit-bucket
    /// sets driving the binary-search leader elections (Algorithm 2,
    /// Lemma 13).
    ///
    /// Runs in O(N/64): for `bit < 6` the membership pattern repeats with a
    /// period dividing 64, so one precomputed pattern word fills the whole
    /// set; for `bit ≥ 6` every word is uniformly all-members or
    /// all-excluded.
    pub fn with_bit(universe: u64, bit: u32, value: bool) -> Self {
        let mut s = Self::empty(universe);
        if bit < 6 {
            // (w·64 + j) >> bit has the same low bit as j >> bit because 64
            // is a multiple of 2^(bit+1); the per-word pattern is universal.
            let mut pattern = 0u64;
            for j in 0..64u64 {
                if ((j >> bit) & 1 == 1) == value {
                    pattern |= 1 << j;
                }
            }
            s.words.fill(pattern);
        } else {
            // Bits ≥ 6 are constant across a word.
            for (w, word) in s.words.iter_mut().enumerate() {
                let base = (w as u64) << 6;
                if ((base >> bit) & 1 == 1) == value {
                    *word = !0u64;
                }
            }
        }
        s.canonicalize();
        s.debug_assert_canonical();
        s
    }

    /// Fills the set by assigning every backing word from `f` (word index →
    /// word value) and re-canonicalizing. This is the word-parallel entry
    /// point used by the probabilistic constructions: a membership
    /// probability of `2^-j` for every identifier is the AND of `j` random
    /// words, with zero per-identifier work.
    pub fn fill_with_words<F>(&mut self, mut f: F)
    where
        F: FnMut(usize) -> u64,
    {
        for (w, word) in self.words.iter_mut().enumerate() {
            *word = f(w);
        }
        self.canonicalize();
        self.debug_assert_canonical();
    }

    /// The universe size `N`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The backing words in canonical form (bit `id % 64` of word `id / 64`
    /// holds identifier `id`). This is the word-exact representation the
    /// `structure-store/v2` codec serializes verbatim.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs a set from its backing words, validating the canonical
    /// form exactly: the word count must be `universe / 64 + 1`, bit 0 of
    /// word 0 (the nonexistent identifier 0) must be clear, and no bit above
    /// `universe` may be set. Returns `None` on any violation — a decoder
    /// must never canonicalize corrupt input into a plausible set.
    pub fn try_from_words(universe: u64, words: Vec<u64>) -> Option<Self> {
        if universe == 0 || words.len() != universe as usize / 64 + 1 {
            return None;
        }
        if words[0] & 1 != 0 {
            return None;
        }
        let r = universe % 64;
        if r != 63 && words[words.len() - 1] & !((1u64 << (r + 1)) - 1) != 0 {
            return None;
        }
        Some(IdSet { universe, words })
    }

    /// Inserts an identifier; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies outside `[1, universe]`.
    pub fn insert(&mut self, id: u64) -> bool {
        self.check(id);
        let (w, b) = (id as usize / 64, id as usize % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes an identifier; returns whether it was present.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies outside `[1, universe]`.
    pub fn remove(&mut self, id: u64) -> bool {
        self.check(id);
        let (w, b) = (id as usize / 64, id as usize % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] &= !(1 << b);
        had
    }

    /// Whether the set contains `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies outside `[1, universe]`.
    pub fn contains(&self, id: u64) -> bool {
        self.check(id);
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.words[w] >> b & 1 == 1
    }

    /// Number of identifiers in the set — a fused multi-word popcount:
    /// `CHUNK` `count_ones` per iteration folded into one accumulator,
    /// which keeps the reduction in registers and lets the backend emit
    /// vector popcount sequences where the target has them.
    pub fn len(&self) -> usize {
        let mut chunks = self.words.chunks_exact(CHUNK);
        let mut total = 0usize;
        for c in &mut chunks {
            total += chunk_count(c);
        }
        total
            + chunks
                .remainder()
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Whether the set is empty — an OR-reduce per chunk, so the common
    /// nonempty case exits after one wide load instead of a per-word scan.
    pub fn is_empty(&self) -> bool {
        let mut chunks = self.words.chunks_exact(CHUNK);
        for c in &mut chunks {
            if c[0] | c[1] | c[2] | c[3] != 0 {
                return false;
            }
        }
        chunks.remainder().iter().all(|&w| w == 0)
    }

    /// Iterates over the identifiers in increasing order, skipping from set
    /// bit to set bit with `trailing_zeros` — O(words + members), not
    /// O(universe).
    pub fn iter(&self) -> SetBitIter<'_> {
        SetBitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Size of the intersection with `other` — a fused popcount without
    /// materialising the intersection, `CHUNK` words at a time.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection_count(&self, other: &IdSet) -> usize {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut a = self.words.chunks_exact(CHUNK);
        let mut b = other.words.chunks_exact(CHUNK);
        let mut total = 0usize;
        for (ca, cb) in (&mut a).zip(&mut b) {
            total += ((ca[0] & cb[0]).count_ones()
                + (ca[1] & cb[1]).count_ones()
                + (ca[2] & cb[2]).count_ones()
                + (ca[3] & cb[3]).count_ones()) as usize;
        }
        total
            + a.remainder()
                .iter()
                .zip(b.remainder())
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum::<usize>()
    }

    /// Intersection sizes `(|self ∩ a|, |self ∩ b|)` in one pass over the
    /// three word arrays — `self` is loaded once per chunk and ANDed
    /// against both operands, halving memory traffic for the distinguisher
    /// test `|S ∩ X₁| ≠ |S ∩ X₂|`, which always needs both counts of the
    /// same set.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection_count_pair(&self, a: &IdSet, b: &IdSet) -> (usize, usize) {
        assert_eq!(self.universe, a.universe, "universe mismatch");
        assert_eq!(self.universe, b.universe, "universe mismatch");
        let mut s = self.words.chunks_exact(CHUNK);
        let mut ca = a.words.chunks_exact(CHUNK);
        let mut cb = b.words.chunks_exact(CHUNK);
        let (mut na, mut nb) = (0usize, 0usize);
        for ((cs, xa), xb) in (&mut s).zip(&mut ca).zip(&mut cb) {
            na += ((cs[0] & xa[0]).count_ones()
                + (cs[1] & xa[1]).count_ones()
                + (cs[2] & xa[2]).count_ones()
                + (cs[3] & xa[3]).count_ones()) as usize;
            nb += ((cs[0] & xb[0]).count_ones()
                + (cs[1] & xb[1]).count_ones()
                + (cs[2] & xb[2]).count_ones()
                + (cs[3] & xb[3]).count_ones()) as usize;
        }
        for ((ws, wa), wb) in s.remainder().iter().zip(ca.remainder()).zip(cb.remainder()) {
            na += (ws & wa).count_ones() as usize;
            nb += (ws & wb).count_ones() as usize;
        }
        (na, nb)
    }

    /// Whether the two sets are disjoint.
    pub fn is_disjoint(&self, other: &IdSet) -> bool {
        self.intersection_count(other) == 0
    }

    /// The complement within the universe.
    pub fn complement(&self) -> IdSet {
        let mut out = self.clone();
        out.complement_in_place();
        out
    }

    /// Complements the set in place (no reallocation), negating `CHUNK`
    /// words per iteration.
    pub fn complement_in_place(&mut self) {
        let mut chunks = self.words.chunks_exact_mut(CHUNK);
        for c in &mut chunks {
            c[0] = !c[0];
            c[1] = !c[1];
            c[2] = !c[2];
            c[3] = !c[3];
        }
        for word in chunks.into_remainder() {
            *word = !*word;
        }
        self.canonicalize();
        self.debug_assert_canonical();
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference(&self, other: &IdSet) -> IdSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// In-place set difference `self \= other` (no reallocation), `CHUNK`
    /// words per iteration. Clearing bits cannot violate canonical form, so
    /// no re-canonicalization is needed.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference_with(&mut self, other: &IdSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut dst = self.words.chunks_exact_mut(CHUNK);
        let mut src = other.words.chunks_exact(CHUNK);
        for (o, s) in (&mut dst).zip(&mut src) {
            o[0] &= !s[0];
            o[1] &= !s[1];
            o[2] &= !s[2];
            o[3] &= !s[3];
        }
        for (o, s) in dst.into_remainder().iter_mut().zip(src.remainder()) {
            *o &= !s;
        }
        self.debug_assert_canonical();
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &IdSet) -> IdSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// In-place set intersection `self &= other` (no reallocation),
    /// `CHUNK` words per iteration.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &IdSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut dst = self.words.chunks_exact_mut(CHUNK);
        let mut src = other.words.chunks_exact(CHUNK);
        for (o, s) in (&mut dst).zip(&mut src) {
            o[0] &= s[0];
            o[1] &= s[1];
            o[2] &= s[2];
            o[3] &= s[3];
        }
        for (o, s) in dst.into_remainder().iter_mut().zip(src.remainder()) {
            *o &= s;
        }
        self.debug_assert_canonical();
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &IdSet) -> IdSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place set union `self |= other` (no reallocation), `CHUNK`
    /// words per iteration. The union of two canonical sets is canonical.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &IdSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut dst = self.words.chunks_exact_mut(CHUNK);
        let mut src = other.words.chunks_exact(CHUNK);
        for (o, s) in (&mut dst).zip(&mut src) {
            o[0] |= s[0];
            o[1] |= s[1];
            o[2] |= s[2];
            o[3] |= s[3];
        }
        for (o, s) in dst.into_remainder().iter_mut().zip(src.remainder()) {
            *o |= s;
        }
        self.debug_assert_canonical();
    }

    /// Clears the always-zero positions: bit 0 of word 0 (identifier 0 does
    /// not exist) and the bits above `universe` in the last word.
    fn canonicalize(&mut self) {
        self.words[0] &= !1u64;
        let last = self.words.len() - 1;
        let r = self.universe % 64;
        if r != 63 {
            self.words[last] &= (1u64 << (r + 1)) - 1;
        }
    }

    /// Debug-build check that the canonical form holds (trailing bits and
    /// the identifier-0 bit stay zero).
    #[inline]
    fn debug_assert_canonical(&self) {
        debug_assert_eq!(self.words.len(), self.universe as usize / 64 + 1);
        debug_assert_eq!(self.words[0] & 1, 0, "bit for nonexistent id 0 is set");
        let r = self.universe % 64;
        if r != 63 {
            debug_assert_eq!(
                self.words[self.words.len() - 1] & !((1u64 << (r + 1)) - 1),
                0,
                "bits beyond the universe are set"
            );
        }
    }

    fn check(&self, id: u64) {
        assert!(
            id >= 1 && id <= self.universe,
            "identifier {id} outside the universe [1, {}]",
            self.universe
        );
    }
}

/// Iterator over the members of an [`IdSet`], in increasing order.
pub struct SetBitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBitIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.current == 0 {
            self.word_idx += 1;
            // Leap over all-zero chunks with one OR-reduce per CHUNK words
            // instead of a per-word test — sparse sets (the common case for
            // sampled subsets of a large universe) iterate in
            // O(members + words/CHUNK).
            while let Some(c) = self.words.get(self.word_idx..self.word_idx + CHUNK) {
                if c[0] | c[1] | c[2] | c[3] != 0 {
                    break;
                }
                self.word_idx += CHUNK;
            }
            match self.words.get(self.word_idx) {
                Some(&word) => self.current = word,
                None => return None,
            }
        }
        let bit = self.current.trailing_zeros() as u64;
        self.current &= self.current - 1;
        Some((self.word_idx as u64) * 64 + bit)
    }
}

impl fmt::Debug for IdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IdSet[1..={}]{{", self.universe)?;
        let mut first = true;
        for id in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<u64> for IdSet {
    /// Collects identifiers into a set whose universe is the maximum
    /// identifier seen (or 1 for an empty iterator).
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let ids: Vec<u64> = iter.into_iter().collect();
        let universe = ids.iter().copied().max().unwrap_or(1).max(1);
        IdSet::from_ids(universe, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = IdSet::empty(100);
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert_eq!(s.len(), 1);
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn out_of_universe_ids_panic() {
        let mut s = IdSet::empty(10);
        s.insert(11);
    }

    #[test]
    fn word_count_is_exact() {
        // Identifier N lives at bit N % 64 of word N / 64.
        for (universe, words) in [(1u64, 1usize), (63, 1), (64, 2), (127, 2), (128, 3)] {
            let s = IdSet::empty(universe);
            assert_eq!(s.words.len(), words, "universe {universe}");
            let f = IdSet::full(universe);
            assert_eq!(f.words.len(), words, "universe {universe}");
            assert_eq!(f.len() as u64, universe, "universe {universe}");
        }
    }

    #[test]
    fn set_algebra() {
        let a = IdSet::from_ids(16, [1, 2, 3, 8]);
        let b = IdSet::from_ids(16, [3, 8, 9]);
        assert_eq!(a.intersection_count(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![3, 8]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3, 8, 9]);
        assert_eq!(a.complement().len(), 16 - 4);
        assert_eq!(IdSet::full(16).len(), 16);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let a = IdSet::from_ids(200, (1..=200).filter(|i| i % 3 == 0));
        let b = IdSet::from_ids(200, (1..=200).filter(|i| i % 5 == 0));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, a.intersection(&b));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
        let mut c = a.clone();
        c.complement_in_place();
        assert_eq!(c, a.complement());
        assert_eq!(c.intersection_count(&a), 0);
        assert_eq!(c.len() + a.len(), 200);
    }

    #[test]
    fn bit_bucket_sets() {
        // Bit 0 = 1 picks the odd identifiers.
        let odd = IdSet::with_bit(10, 0, true);
        assert_eq!(odd.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7, 9]);
        let low = IdSet::with_bit(10, 3, false);
        assert!(low.contains(7));
        assert!(!low.contains(8));
        // The two buckets of a bit partition the universe.
        let hi = IdSet::with_bit(10, 2, true);
        let lo = IdSet::with_bit(10, 2, false);
        assert!(hi.is_disjoint(&lo));
        assert_eq!(hi.len() + lo.len(), 10);
    }

    #[test]
    fn word_filled_bit_buckets_match_the_scalar_rule() {
        // Cross-check the word-parallel fill against the per-identifier
        // definition, across word boundaries and for low and high bits.
        for universe in [63u64, 64, 65, 130, 700] {
            for bit in [0u32, 1, 5, 6, 7, 9] {
                for value in [false, true] {
                    let s = IdSet::with_bit(universe, bit, value);
                    for id in 1..=universe {
                        assert_eq!(
                            s.contains(id),
                            ((id >> bit) & 1 == 1) == value,
                            "universe {universe}, bit {bit}, value {value}, id {id}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fill_with_words_masks_the_tail() {
        let mut s = IdSet::empty(70);
        s.fill_with_words(|_| !0u64);
        assert_eq!(s.len(), 70);
        assert!(!s.iter().any(|id| id == 0 || id > 70));
        assert_eq!(s, IdSet::full(70));
    }

    #[test]
    fn iterator_matches_scan_on_sparse_and_dense_sets() {
        let sparse = IdSet::from_ids(1000, [1, 64, 65, 127, 128, 999, 1000]);
        assert_eq!(
            sparse.iter().collect::<Vec<_>>(),
            vec![1, 64, 65, 127, 128, 999, 1000]
        );
        let dense = IdSet::full(129);
        assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            (1..=129).collect::<Vec<_>>()
        );
        assert_eq!(IdSet::empty(500).iter().count(), 0);
    }

    #[test]
    fn from_iterator_uses_max_as_universe() {
        let s: IdSet = [4u64, 9, 2].into_iter().collect();
        assert_eq!(s.universe(), 9);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn debug_rendering_is_nonempty() {
        let s = IdSet::from_ids(8, [1, 5]);
        assert_eq!(format!("{s:?}"), "IdSet[1..=8]{1, 5}");
    }
}
