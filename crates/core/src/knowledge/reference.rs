//! Reference implementation of [`GapKnowledge`](super::GapKnowledge).
//!
//! This is the union–find kept verbatim from before the compact layout:
//! `usize` parents, `u32` ranks, `i128` potentials (28 bytes a node) and a
//! recursive compressing find. Its wide potentials cannot overflow, so it
//! is the oracle the compact structure is property-tested against, and the
//! baseline of the `gap_knowledge` pair in `bench_combinat`. It is **not**
//! part of the performance surface — never call it from protocol code.

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

/// Incremental knowledge about the gaps between the `n` initial positions.
#[derive(Clone, Debug)]
pub struct GapKnowledge {
    n: usize,
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
            n,
            parent: (0..n).collect(),
            rank: vec![0; n],
            offset: vec![0; n],
            components: n,
            equations: 0,
        }
    }

    /// Number of slots (and gaps).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the knowledge base covers no slots (never true).
    pub fn is_empty(&self) -> bool {
        self.n == 0
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
        assert!(from < self.n && to < self.n, "slot out of range");
        self.equations += 1;
        let v = arc.ticks() as i128;
        if from == to {
            // Either a zero-length observation or the full circle; neither
            // relates two distinct prefix positions.
            return Ok(());
        }
        // Clockwise from `from` to `to`: P_to - P_from = v, adjusted by a
        // full circumference when the arc wraps past slot 0.
        let diff = if to > from {
            v
        } else {
            v - CIRCUMFERENCE as i128
        };
        self.union(from, to, diff)
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
            let ticks = d.rem_euclid(CIRCUMFERENCE as i128) as u64;
            ArcLength::from_ticks(ticks)
        })
    }

    /// The gap between slot `i` and slot `(i + 1) % n`, if known.
    pub fn gap(&self, i: usize) -> Option<ArcLength> {
        self.cw_distance(i, (i + 1) % self.n)
    }

    /// All gaps, if location discovery is complete.
    pub fn gaps(&self) -> Option<Vec<ArcLength>> {
        if !self.is_complete() {
            return None;
        }
        Some(
            (0..self.n)
                .map(|i| self.gap(i).expect("complete"))
                .collect(),
        )
    }

    fn find(&self, mut i: usize) -> (usize, i128) {
        // Non-mutating find (no path compression) so that read-only queries
        // can take `&self`; the union operation compresses.
        let mut pot = 0i128;
        while self.parent[i] != i {
            pot += self.offset[i];
            i = self.parent[i];
        }
        (i, pot)
    }

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
