//! Per-agent knowledge about the geometry of the ring.
//!
//! Every observation an agent makes is a linear equation over the unknown
//! gap vector `x_0, …, x_{n-1}` (the clockwise distances between consecutive
//! initial positions): `dist()` equations span the rotation arc of a round,
//! and `coll()` equations span the arc to the agent's first collision
//! (Lemma 6 of the paper expresses its lower bounds exactly in terms of how
//! many such equations a round can contribute). All of these equations are
//! sums of *contiguous* gap intervals, i.e. differences of prefix sums, so
//! an agent's knowledge is precisely a partition of the prefix positions
//! into groups with known pairwise offsets.
//!
//! [`GapKnowledge`] maintains that partition as a weighted union–find
//! structure: adding an equation is (amortised) near-constant time, and
//! location discovery is complete exactly when a single group remains.
//! Its `i128` potentials cannot overflow, whatever the ring size or the
//! equations.
//!
//! No caller keeps one structure per agent: the perceptive measurement
//! keeps one per label parity, which each agent's own Pivot equations tie
//! together ([`perceptive::distances`](crate::perceptive::distances)), and
//! the sweeps of [`locate`](crate::locate) keep one arc per site.

use ring_sim::{ArcLength, CIRCUMFERENCE};
use std::fmt;

/// A contradiction between a new equation and previously recorded knowledge.
///
/// With exact arithmetic this indicates a protocol bug (or a deliberately
/// corrupted observation in a fault-injection test), never rounding error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnowledgeConflict {
    /// The slot the offending equation starts at.
    pub from: usize,
    /// The slot the offending equation ends at.
    pub to: usize,
    /// The value implied by existing knowledge.
    pub expected: i128,
    /// The value of the new equation.
    pub got: i128,
}

impl fmt::Display for KnowledgeConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflicting arc equation from slot {} to slot {}: expected {}, got {}",
            self.from, self.to, self.expected, self.got
        )
    }
}

impl std::error::Error for KnowledgeConflict {}

/// `P_to − P_from` for a clockwise arc of length `arc` from slot `from` to
/// slot `to`: the arc, less a full circumference when it wraps past slot 0.
/// `None` for an arc from a slot to itself, which is either a zero-length
/// observation or the full circle and relates no two distinct positions.
pub(crate) fn cw_arc_difference(from: usize, to: usize, arc: ArcLength) -> Option<i128> {
    let v = i128::from(arc.ticks());
    match to.cmp(&from) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(v),
        std::cmp::Ordering::Less => Some(v - i128::from(CIRCUMFERENCE)),
    }
}

/// The gaps between consecutive prefix positions, given in slot order: gap
/// `i` is position `i + 1` less position `i`, modulo the circumference, and
/// the last one wraps to slot 0.
pub(crate) fn gaps_between(
    positions: impl IntoIterator<Item = i128>,
) -> impl Iterator<Item = ArcLength> {
    let mut positions = positions.into_iter();
    let first = positions.next();
    let circle = i128::from(CIRCUMFERENCE);
    positions.chain(first).scan(first, move |prev, here| {
        // A consistent gap needs no division (`rem_euclid` on `i128` is slow).
        let gap = match here - prev.replace(here)? {
            d if (0..circle).contains(&d) => d,
            d => d.rem_euclid(circle),
        };
        Some(ArcLength::from_ticks(gap as u64))
    })
}

/// Incremental knowledge about the gaps between the `n` initial positions.
#[derive(Clone, Debug)]
pub struct GapKnowledge {
    parent: Vec<usize>,
    rank: Vec<u32>,
    /// `offset[i]` = (prefix position of `i`) − (prefix position of `parent[i]`).
    offset: Vec<i128>,
    components: usize,
    equations: u64,
}

impl GapKnowledge {
    /// Creates an empty knowledge base over `n` gaps (`n` slots).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least two slots");
        GapKnowledge {
            parent: (0..n).collect(),
            rank: vec![0; n],
            offset: vec![0; n],
            components: n,
            equations: 0,
        }
    }

    /// Number of slots (and gaps).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the knowledge base covers no slots (never true).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of equations recorded so far (including redundant ones).
    pub fn equations_recorded(&self) -> u64 {
        self.equations
    }

    /// Number of remaining independent groups of prefix positions. Location
    /// discovery is complete when this reaches 1.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Whether every gap is determined.
    pub fn is_complete(&self) -> bool {
        self.components == 1
    }

    /// Records that the clockwise arc from slot `from` to slot `to`
    /// (wrapping past slot 0 if `to <= from`) has length `arc`.
    ///
    /// An equation from a slot to itself is interpreted as the full circle
    /// and carries no information (it is checked for consistency with
    /// `CIRCUMFERENCE` and otherwise ignored).
    ///
    /// # Errors
    ///
    /// Returns a [`KnowledgeConflict`] if the equation contradicts earlier
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range.
    pub fn add_cw_arc(
        &mut self,
        from: usize,
        to: usize,
        arc: ArcLength,
    ) -> Result<(), KnowledgeConflict> {
        assert!(from < self.len() && to < self.len(), "slot out of range");
        self.equations += 1;
        match cw_arc_difference(from, to, arc) {
            Some(diff) => self.union(from, to, diff),
            None => Ok(()),
        }
    }

    /// The difference `P_to − P_from` between two prefix positions if they
    /// are in the same knowledge group.
    pub fn relation(&self, from: usize, to: usize) -> Option<i128> {
        let (ra, pa) = self.find(from);
        let (rb, pb) = self.find(to);
        if ra == rb {
            Some(pb - pa)
        } else {
            None
        }
    }

    /// The clockwise distance from slot `from` to slot `to`, if known.
    pub fn cw_distance(&self, from: usize, to: usize) -> Option<ArcLength> {
        if from == to {
            return Some(ArcLength::ZERO);
        }
        self.relation(from, to).map(|d| {
            let ticks = d.rem_euclid(i128::from(CIRCUMFERENCE)) as u64;
            ArcLength::from_ticks(ticks)
        })
    }

    /// The gap between slot `i` and slot `(i + 1) % n`, if known.
    pub fn gap(&self, i: usize) -> Option<ArcLength> {
        self.cw_distance(i, (i + 1) % self.len())
    }

    /// All gaps, if location discovery is complete: every node's potential
    /// is found once, and gap `i` is the difference of two neighbouring
    /// potentials, which is what [`GapKnowledge::gap`] computes per gap.
    pub fn gaps(&self) -> Option<Vec<ArcLength>> {
        let potentials = (0..self.len()).map(|i| self.find(i).1);
        self.is_complete()
            .then(|| gaps_between(potentials).collect())
    }

    /// Slot `i`'s group root and `P_i − P_root`.
    pub(crate) fn find(&self, mut i: usize) -> (usize, i128) {
        // Non-mutating find (no path compression) so that read-only queries
        // can take `&self`; the union operation compresses.
        let mut pot = 0;
        while self.parent[i] != i {
            pot += self.offset[i];
            i = self.parent[i];
        }
        (i, pot)
    }

    /// Like [`GapKnowledge::find`], pointing every node on the way straight
    /// at the root. Union by rank bounds the recursion by `log2 n`.
    fn find_compress(&mut self, i: usize) -> (usize, i128) {
        if self.parent[i] == i {
            return (i, 0);
        }
        let (root, parent_pot) = self.find_compress(self.parent[i]);
        let pot = self.offset[i] + parent_pot;
        self.parent[i] = root;
        self.offset[i] = pot;
        (root, pot)
    }

    /// Records `P_to − P_from = diff`.
    fn union(&mut self, from: usize, to: usize, diff: i128) -> Result<(), KnowledgeConflict> {
        let (ra, pa) = self.find_compress(from);
        let (rb, pb) = self.find_compress(to);
        if ra == rb {
            let expected = pb - pa;
            if expected != diff {
                return Err(KnowledgeConflict {
                    from,
                    to,
                    expected,
                    got: diff,
                });
            }
            return Ok(());
        }
        // Attach the shallower tree below the deeper one.
        // We need: P_to = P_from + diff, with P_from = P_ra + pa, P_to = P_rb + pb.
        // Hence P_rb = P_ra + pa + diff - pb.
        let rb_minus_ra = pa + diff - pb;
        if self.rank[ra] < self.rank[rb] {
            // ra joins rb: P_ra = P_rb - rb_minus_ra.
            self.parent[ra] = rb;
            self.offset[ra] = -rb_minus_ra;
        } else {
            self.parent[rb] = ra;
            self.offset[rb] = rb_minus_ra;
            if self.rank[ra] == self.rank[rb] {
                self.rank[ra] += 1;
            }
        }
        self.components -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn arc(t: u64) -> ArcLength {
        ArcLength::from_ticks(t)
    }

    #[test]
    fn single_gap_equations_complete_the_ring() {
        // Gaps 10, 20, 30, and the rest of the circle.
        let mut k = GapKnowledge::new(4);
        assert_eq!(k.components(), 4);
        k.add_cw_arc(0, 1, arc(10)).unwrap();
        k.add_cw_arc(1, 2, arc(20)).unwrap();
        k.add_cw_arc(2, 3, arc(30)).unwrap();
        assert!(k.is_complete());
        assert_eq!(k.gap(0).unwrap().ticks(), 10);
        assert_eq!(k.gap(3).unwrap().ticks(), CIRCUMFERENCE - 60);
        let gaps = k.gaps().unwrap();
        assert_eq!(gaps.iter().map(|g| g.ticks()).sum::<u64>(), CIRCUMFERENCE);
    }

    #[test]
    fn wrapping_arcs_are_handled() {
        let mut k = GapKnowledge::new(5);
        // Arc from slot 3 to slot 1, wrapping past slot 0.
        k.add_cw_arc(3, 1, arc(500)).unwrap();
        assert_eq!(k.cw_distance(3, 1).unwrap().ticks(), 500);
        assert_eq!(k.cw_distance(1, 3).unwrap().ticks(), CIRCUMFERENCE - 500);
        assert!(!k.is_complete());
    }

    #[test]
    fn pair_sums_on_an_odd_ring_determine_everything() {
        // The basic-model odd-n location discovery feeds equations
        // x_i + x_{i+1} = s_i for every i; with n odd they pin every gap.
        let n = 7;
        let gaps: Vec<u64> = vec![100, 200, 300, 400, 500, 600, CIRCUMFERENCE - 2100];
        let mut k = GapKnowledge::new(n);
        for i in 0..n {
            let sum = gaps[i] + gaps[(i + 1) % n];
            k.add_cw_arc(i, (i + 2) % n, arc(sum)).unwrap();
            if i < n - 1 {
                assert!(!k.is_complete() || i == n - 2);
            }
        }
        assert!(k.is_complete());
        for (i, &expected) in gaps.iter().enumerate() {
            assert_eq!(k.gap(i).unwrap().ticks(), expected, "gap {i}");
        }
    }

    #[test]
    fn pair_sums_on_an_even_ring_do_not_determine_everything() {
        // With n even the pair-sum system is singular (this is the algebraic
        // face of Lemma 5's impossibility result).
        let n = 6;
        let gaps: Vec<u64> = vec![100, 200, 300, 400, 500, CIRCUMFERENCE - 1500];
        let mut k = GapKnowledge::new(n);
        for i in 0..n {
            let sum = gaps[i] + gaps[(i + 1) % n];
            k.add_cw_arc(i, (i + 2) % n, arc(sum)).unwrap();
        }
        assert!(!k.is_complete());
        assert_eq!(k.components(), 2);
        assert!(k.gap(0).is_none());
        // Within one parity class relations are known.
        assert!(k.cw_distance(0, 2).is_some());
        assert!(k.cw_distance(1, 5).is_some());
    }

    #[test]
    fn conflicting_equations_are_detected() {
        let mut k = GapKnowledge::new(4);
        k.add_cw_arc(0, 2, arc(100)).unwrap();
        k.add_cw_arc(0, 1, arc(60)).unwrap();
        let err = k.add_cw_arc(1, 2, arc(50)).unwrap_err();
        assert_eq!(err.expected, 40);
        assert_eq!(err.got, 50);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn redundant_and_degenerate_equations_are_accepted() {
        let mut k = GapKnowledge::new(4);
        k.add_cw_arc(0, 1, arc(10)).unwrap();
        k.add_cw_arc(0, 1, arc(10)).unwrap();
        // Full-circle observation about a single slot: ignored.
        k.add_cw_arc(2, 2, arc(CIRCUMFERENCE)).unwrap();
        assert_eq!(k.equations_recorded(), 3);
        assert_eq!(k.components(), 3);
    }

    #[test]
    fn equation_counting_matches_lemma_6_intuition() {
        // n-1 independent single-gap equations are necessary and sufficient.
        let n = 16;
        let mut k = GapKnowledge::new(n);
        for i in 0..n - 2 {
            k.add_cw_arc(i, i + 1, arc(10 + i as u64)).unwrap();
        }
        assert!(!k.is_complete());
        k.add_cw_arc(n - 2, n - 1, arc(999)).unwrap();
        assert!(k.is_complete());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Against the ring itself: true equations between random slots
        /// (a spanning set, plus redundant, wrapping and from-equals-to
        /// ones), in random order. After each one every relation the
        /// knowledge claims is the true prefix difference, and a corrupted
        /// arc between two related slots is refused with the truth as
        /// `expected` and the corruption as `got`, changing no relation.
        /// Once complete, `gaps()` is the ring's gaps.
        #[test]
        fn relations_and_gaps_match_the_ring(
            (n, seed, extra) in (
                prop_oneof![2usize..=8, 9usize..=64, 65usize..=200],
                any::<u64>(),
                0usize..=200,
            )
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut prefix = vec![0i128; n];
            for slot in 1..n {
                prefix[slot] = prefix[slot - 1] + i128::from(rng.gen_range(1..CIRCUMFERENCE / n as u64));
            }
            let truth = |from: usize, to: usize| prefix[to] - prefix[from];
            let true_arc = |from: usize, to: usize| {
                truth(from, to).rem_euclid(i128::from(CIRCUMFERENCE)) as u64
            };

            // Slot `order[k]` is tied to one of the slots before it, so
            // the equations span the ring.
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let mut equations: Vec<(usize, usize)> = (1..n)
                .map(|k| {
                    let (a, b) = (order[k], order[rng.gen_range(0..k)]);
                    if rng.gen_range(0..2u32) == 0 { (a, b) } else { (b, a) }
                })
                .collect();
            equations.extend((0..extra).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))));
            equations.shuffle(&mut rng);

            let mut k = GapKnowledge::new(n);
            for &(from, to) in &equations {
                if !k.is_complete() {
                    prop_assert_eq!(k.gaps(), None);
                }
                let ticks = if from == to {
                    [0, CIRCUMFERENCE][rng.gen_range(0..2)]
                } else {
                    true_arc(from, to)
                };
                prop_assert_eq!(k.add_cw_arc(from, to, arc(ticks)), Ok(()));
                prop_assert_eq!(k.relation(from, to), Some(truth(from, to)));
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if let Some(known) = k.relation(a, b) {
                    prop_assert_eq!(known, truth(a, b));
                    prop_assert_eq!(k.cw_distance(a, b), Some(arc(true_arc(a, b))));
                }

                // A corrupted arc between related slots.
                if from == to {
                    continue;
                }
                let before: Vec<Option<i128>> = (0..n).map(|slot| k.relation(from, slot)).collect();
                let components = k.components();
                let mut bad = true_arc(from, to);
                while bad == true_arc(from, to) {
                    bad = match rng.gen_range(0..3u32) {
                        0 => (bad + rng.gen_range(1..1000)).min(CIRCUMFERENCE),
                        1 => rng.gen_range(0..=CIRCUMFERENCE),
                        _ => [0, CIRCUMFERENCE][rng.gen_range(0..2)],
                    };
                }
                let got = cw_arc_difference(from, to, arc(bad)).unwrap();
                prop_assert_eq!(
                    k.add_cw_arc(from, to, arc(bad)),
                    Err(KnowledgeConflict { from, to, expected: truth(from, to), got })
                );
                prop_assert_eq!(k.components(), components);
                for (slot, &relation) in before.iter().enumerate() {
                    prop_assert_eq!(k.relation(from, slot), relation);
                }
            }
            let corrupted = equations.iter().filter(|(from, to)| from != to).count();
            prop_assert_eq!(k.equations_recorded(), (equations.len() + corrupted) as u64);
            prop_assert!(k.is_complete());
            for from in 0..n {
                for to in 0..n {
                    prop_assert_eq!(k.relation(from, to), Some(truth(from, to)));
                }
            }
            let gaps: Vec<ArcLength> = (0..n).map(|i| arc(true_arc(i, (i + 1) % n))).collect();
            prop_assert_eq!(k.gaps(), Some(gaps));
        }
    }

    /// The one-pass read-out equals the per-gap one (`gap`, two finds and
    /// a wrap each) on complete knowledge built from random true
    /// equations, and is `None` while any gap is unknown.
    #[test]
    fn gaps_read_out_matches_per_gap_queries() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [2usize, 3, 7, 64, 511] {
            let mut prefix = vec![0u64; n];
            for i in 1..n {
                prefix[i] = prefix[i - 1] + rng.gen_range(1..CIRCUMFERENCE / n as u64);
            }
            let mut k = GapKnowledge::new(n);
            while !k.is_complete() {
                assert_eq!(k.gaps(), None);
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let truth = (prefix[to] + CIRCUMFERENCE - prefix[from]) % CIRCUMFERENCE;
                k.add_cw_arc(from, to, arc(truth)).unwrap();
            }
            let per_gap: Vec<ArcLength> = (0..n).map(|i| k.gap(i).unwrap()).collect();
            assert_eq!(k.gaps().unwrap(), per_gap, "n = {n}");
            assert_eq!(per_gap[0].ticks(), prefix[1] - prefix[0]);
        }
    }
}
