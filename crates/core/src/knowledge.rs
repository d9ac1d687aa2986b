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
//!
//! The layout is compact (16 bytes a node, its rank byte in the padding).
//! [`reference`](mod@reference) keeps the earlier wide layout as the
//! oracle it is tested against. Callers apply each round's equations as
//! they arrive. No caller keeps one structure per agent: where agents'
//! equations share a known shape, the caller solves that shape once for
//! all of them. The basic-model odd-`n` sweep solves one pair-sum chain
//! ([`locate::basic_odd`](crate::locate::basic_odd)); the perceptive
//! measurement keeps one structure per label parity, which each agent's
//! own Pivot equations then tie together
//! ([`perceptive::distances`](crate::perceptive::distances)).

pub mod reference;

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
    pub expected: i64,
    /// The value of the new equation.
    pub got: i64,
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

/// [`GapKnowledge::new`] refuses rings of this many slots or more, and so
/// does the basic-odd sweep's pair-sum chain, whose potentials obey the
/// same bound.
///
/// Potentials are `i64`. An arc is at most the circumference `C = 2^40`,
/// so an accepted equation relates two prefix positions by at most `C` in
/// absolute value. A node's potential is a sum along a chain of at most
/// `n − 1` accepted equations, so it lies within `±(n−1)·C` even when the
/// equations are corrupted. A union then computes `pa − pb + diff`, within
/// `±(2n−1)·C`, which stays below `2^63` for every `n < 2^22`. A ring
/// that large could not hold its agents' `n²` nodes in memory anyway.
pub(crate) const MAX_SLOTS: usize = 1 << 22;

/// `P_to − P_from` for a clockwise arc of length `arc` from slot `from` to
/// slot `to`: the arc, less a full circumference when it wraps past slot 0.
/// `None` for an arc from a slot to itself, which is either a zero-length
/// observation or the full circle and relates no two distinct positions.
pub(crate) fn cw_arc_difference(from: usize, to: usize, arc: ArcLength) -> Option<i64> {
    let v = arc.ticks() as i64;
    match to.cmp(&from) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(v),
        std::cmp::Ordering::Less => Some(v - CIRCUMFERENCE as i64),
    }
}

/// One union–find node: its parent, its potential relative to it and, for
/// a root, its rank. Union by rank keeps ranks below `log2 n < 22`.
#[derive(Clone, Copy, Debug)]
struct Node {
    parent: u32,
    rank: u8,
    /// (prefix position of this node) − (prefix position of `parent`).
    offset: i64,
}

// The rank byte fits in the padding after the parent.
const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// Incremental knowledge about the gaps between the `n` initial positions.
#[derive(Clone, Debug)]
pub struct GapKnowledge {
    nodes: Vec<Node>,
    components: usize,
    equations: u64,
}

impl GapKnowledge {
    /// Creates an empty knowledge base over `n` gaps (`n` slots).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, or if `n ≥ 2^22`, where `i64` potentials would no
    /// longer be exact for every equation stream.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least two slots");
        assert!(
            n < MAX_SLOTS,
            "{n} slots exceed the exact i64 potential bound"
        );
        GapKnowledge {
            nodes: (0..n as u32)
                .map(|parent| Node {
                    parent,
                    rank: 0,
                    offset: 0,
                })
                .collect(),
            components: n,
            equations: 0,
        }
    }

    /// Number of slots (and gaps).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the knowledge base covers no slots (never true).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
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
    pub fn relation(&self, from: usize, to: usize) -> Option<i64> {
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
            let ticks = d.rem_euclid(CIRCUMFERENCE as i64) as u64;
            ArcLength::from_ticks(ticks)
        })
    }

    /// The gap between slot `i` and slot `(i + 1) % n`, if known.
    pub fn gap(&self, i: usize) -> Option<ArcLength> {
        self.cw_distance(i, (i + 1) % self.len())
    }

    /// All gaps, if location discovery is complete.
    ///
    /// One pass: every node's potential is found once, and gap `i` is the
    /// difference of two neighbouring potentials (the last one wraps to
    /// slot 0), which is what [`GapKnowledge::gap`] computes per gap.
    pub fn gaps(&self) -> Option<Vec<ArcLength>> {
        if !self.is_complete() {
            return None;
        }
        let to_arc = |d: i64| ArcLength::from_ticks(d.rem_euclid(CIRCUMFERENCE as i64) as u64);
        let first = self.find(0).1;
        let mut prev = first;
        let mut gaps = Vec::with_capacity(self.len());
        for i in 1..self.len() {
            let pot = self.find(i).1;
            gaps.push(to_arc(pot - prev));
            prev = pot;
        }
        gaps.push(to_arc(first - prev));
        Some(gaps)
    }

    /// Slot `i`'s group root and `P_i − P_root`.
    pub(crate) fn find(&self, mut i: usize) -> (usize, i64) {
        // Non-mutating find (no path compression) so that read-only queries
        // can take `&self`; the union operation compresses.
        let mut pot = 0;
        loop {
            let node = self.nodes[i];
            if node.parent as usize == i {
                return (i, pot);
            }
            pot += node.offset;
            i = node.parent as usize;
        }
    }

    /// Finds `i`'s root and potential, then points every node on the way
    /// straight at the root: two passes, no recursion.
    fn find_compress(&mut self, i: usize) -> (usize, i64) {
        let (root, pot) = self.find(i);
        let (mut node, mut rest) = (i, pot);
        while node != root {
            let Node { parent, offset, .. } = self.nodes[node];
            self.nodes[node].parent = root as u32;
            self.nodes[node].offset = rest;
            rest -= offset;
            node = parent as usize;
        }
        (root, pot)
    }

    /// Records `P_to − P_from = diff`.
    fn union(&mut self, from: usize, to: usize, diff: i64) -> Result<(), KnowledgeConflict> {
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
        let (rank_a, rank_b) = (self.nodes[ra].rank, self.nodes[rb].rank);
        if rank_a < rank_b {
            // ra joins rb: P_ra = P_rb - rb_minus_ra.
            self.nodes[ra].parent = rb as u32;
            self.nodes[ra].offset = -rb_minus_ra;
        } else {
            self.nodes[rb].parent = ra as u32;
            self.nodes[rb].offset = rb_minus_ra;
            if rank_a == rank_b {
                self.nodes[ra].rank += 1;
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

    #[test]
    #[should_panic(expected = "exact i64 potential bound")]
    fn rings_past_the_i64_bound_are_refused() {
        GapKnowledge::new(MAX_SLOTS);
    }

    /// One equation of a random stream over a ring with known gaps.
    fn random_equation(rng: &mut StdRng, n: usize, prefix: &[u64]) -> (usize, usize, ArcLength) {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let truth = (prefix[to] + CIRCUMFERENCE - prefix[from]) % CIRCUMFERENCE;
        let ticks = match rng.gen_range(0..10u32) {
            // True equations, redundant ones among them.
            0..=5 => truth,
            // Off by a little: conflicts once the slots are related.
            6 | 7 => (truth + rng.gen_range(1..1000)) % CIRCUMFERENCE,
            // Anything, up to the full circle: corrupted observations
            // that drive potentials far from the true prefix sums.
            8 => rng.gen_range(0..=CIRCUMFERENCE),
            // The extremes.
            _ => [0, CIRCUMFERENCE][rng.gen_range(0..2)],
        };
        (from, to, ArcLength::from_ticks(ticks))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The compact union–find equals the wide reference on random
        /// equation streams — true, redundant, conflicting and corrupted
        /// equations, from-equals-to ones included: the same verdict and
        /// conflict values for every equation, the same component count
        /// after each, and the same relation between every pair of slots
        /// at the end.
        #[test]
        fn compact_matches_the_reference_on_random_streams(
            (n, seed, len) in (
                prop_oneof![2usize..=8, 9usize..=64, 65usize..=200],
                any::<u64>(),
                1usize..=400,
            )
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut prefix = vec![0u64; n];
            for i in 1..n {
                prefix[i] = prefix[i - 1] + rng.gen_range(1..CIRCUMFERENCE / n as u64);
            }
            let mut compact = GapKnowledge::new(n);
            let mut wide = reference::GapKnowledge::new(n);
            for _ in 0..len {
                let (from, to, arc) = random_equation(&mut rng, n, &prefix);
                let got = compact.add_cw_arc(from, to, arc);
                let expected = wide.add_cw_arc(from, to, arc);
                let widened = got.map_err(|c| (c.from, c.to, i128::from(c.expected), i128::from(c.got)));
                prop_assert_eq!(widened, expected.map_err(|c| (c.from, c.to, c.expected, c.got)));
                prop_assert_eq!(compact.components(), wide.components());
            }
            prop_assert_eq!(compact.equations_recorded(), wide.equations_recorded());
            for from in 0..n {
                for to in 0..n {
                    prop_assert_eq!(compact.relation(from, to).map(i128::from), wide.relation(from, to));
                    prop_assert_eq!(compact.cw_distance(from, to), wide.cw_distance(from, to));
                }
            }
            prop_assert_eq!(compact.gaps(), wide.gaps());
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
