//! The rotation-index lemma (Lemma 1 of the paper) and related helpers.
//!
//! In a round where `n_C` agents start moving clockwise and `n_A` agents
//! start moving anticlockwise (the rest idle), every agent ends the round at
//! the initial position of the agent `r = (n_C − n_A) mod n` places further
//! clockwise. The quantity `r` is the *rotation index* of the round. The
//! lemma is stated in the paper for the basic model; it extends verbatim to
//! rounds with idle agents because motion is transferred on contact with an
//! idle agent, so "motion tokens" still travel a full circle during the
//! round while the multiset of occupied positions never changes. The
//! event-driven engine cross-validates this in the property tests.

use crate::direction::ObjectiveDirection;
use serde::Serialize;

/// The rotation index of a round: how many places clockwise every agent is
/// shifted along the (fixed) cyclic sequence of initial positions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct RotationIndex {
    /// The shift, reduced to `0..n`.
    pub shift: usize,
    /// The ring size the shift is reduced modulo.
    pub n: usize,
}

impl RotationIndex {
    /// The rotation index of a round with `n_c` clockwise and `n_a`
    /// anticlockwise movers among `n` agents: `(n_c − n_a) mod n`.
    pub(crate) fn from_counts(n_c: usize, n_a: usize, n: usize) -> Self {
        RotationIndex {
            shift: (n_c + n - n_a) % n,
            n,
        }
    }

    /// Whether the round moves nobody (rotation index 0).
    pub fn is_zero(self) -> bool {
        self.shift == 0
    }

    /// Whether the round is a *trivial move* in the sense of the paper:
    /// rotation index 0, or `n/2` when `n` is even.
    pub fn is_trivial(self) -> bool {
        self.shift == 0 || (self.n.is_multiple_of(2) && self.shift == self.n / 2)
    }

    /// Whether the round is a *nontrivial move* (rotation index not in
    /// `{0, n/2}`).
    pub fn is_nontrivial(self) -> bool {
        !self.is_trivial()
    }

    /// Whether the round is a *weak nontrivial move* (rotation index ≠ 0;
    /// an index of `n/2` is allowed).
    pub fn is_weak_nontrivial(self) -> bool {
        self.shift != 0
    }

    /// The shift as a signed value in `(-n/2, n/2]`, useful for reasoning
    /// about "direction" of rotation.
    pub fn signed(self) -> isize {
        let s = self.shift as isize;
        let n = self.n as isize;
        if s * 2 > n {
            s - n
        } else {
            s
        }
    }
}

/// Computes the rotation index of a round from the objective directions of
/// all agents (Lemma 1).
pub fn rotation_index(directions: &[ObjectiveDirection]) -> RotationIndex {
    let (n_c, n_a) = mover_counts(directions);
    RotationIndex::from_counts(n_c, n_a, directions.len())
}

/// The numbers of clockwise and anticlockwise movers, counted in one pass.
/// Per-chunk `u32` accumulators give the vectorised loop twice the lanes
/// of `usize` sums.
pub(crate) fn mover_counts(directions: &[ObjectiveDirection]) -> (usize, usize) {
    let (mut n_c, mut n_a) = (0usize, 0usize);
    for chunk in directions.chunks(u32::MAX as usize) {
        let (mut c, mut a) = (0u32, 0u32);
        for &d in chunk {
            c += u32::from(d == ObjectiveDirection::Clockwise);
            a += u32::from(d == ObjectiveDirection::Anticlockwise);
        }
        n_c += c as usize;
        n_a += a as usize;
    }
    (n_c, n_a)
}

/// Appends `slice` read cyclically from index `start` on, mapped through
/// `f` — with the ring's offset as `start`, the agent-order view of
/// slot-order data — as two contiguous passes, each of which vectorises.
pub(crate) fn extend_rotated<T, U>(
    out: &mut Vec<U>,
    slice: &[T],
    start: usize,
    mut f: impl FnMut(&T) -> U,
) {
    let (front, back) = slice.split_at(start);
    out.extend(back.iter().map(&mut f));
    out.extend(front.iter().map(f));
}

/// Rotation index of the round in which exactly the members of a set of
/// size `k` (out of `n` agents) move clockwise and everybody else moves
/// anticlockwise — `RI(B) = 2|B| mod n` in the paper's notation
/// (Section II).
pub fn rotation_index_of_set(k: usize, n: usize) -> RotationIndex {
    assert!(k <= n, "set larger than the ring");
    RotationIndex {
        shift: (2 * k) % n,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ObjectiveDirection::{Anticlockwise as A, Clockwise as C, Idle as I};

    #[test]
    fn all_clockwise_has_zero_rotation() {
        let r = rotation_index(&[C; 6]);
        assert_eq!(r.shift, 0);
        assert!(r.is_zero());
        assert!(r.is_trivial());
    }

    #[test]
    fn single_deviator_shifts_by_two() {
        let dirs = [C, C, C, A, C, C];
        let r = rotation_index(&dirs);
        assert_eq!(r.shift, (6 - 2));
        assert!(r.is_nontrivial());
    }

    #[test]
    fn idle_agents_do_not_contribute() {
        let dirs = [C, I, I, I, I];
        let r = rotation_index(&dirs);
        assert_eq!(r.shift, 1);
        assert!(r.is_weak_nontrivial());
    }

    #[test]
    fn half_half_is_trivial_for_even_n() {
        let dirs = [C, C, C, A, A, A];
        let r = rotation_index(&dirs);
        assert_eq!(r.shift, 0);
        assert!(r.is_trivial());

        // n/2 rotation: three quarters clockwise.
        let dirs = [C, C, C, C, C, C, A, A];
        let r = rotation_index(&dirs);
        assert_eq!(r.shift, 4);
        assert!(r.is_trivial());
        assert!(r.is_weak_nontrivial());
        assert!(!r.is_nontrivial());
    }

    #[test]
    fn odd_n_mixed_round_is_always_nontrivial() {
        // Paper, Section III.E: with odd n, any round with both directions
        // present is nontrivial.
        let n = 7;
        for k in 1..n {
            let mut dirs = vec![C; n];
            for d in dirs.iter_mut().take(k) {
                *d = A;
            }
            let r = rotation_index(&dirs);
            assert!(r.is_nontrivial(), "k={k}");
        }
    }

    #[test]
    fn set_rotation_index_matches_formula() {
        for n in [6usize, 8, 10] {
            for k in 0..=n {
                let ri = rotation_index_of_set(k, n);
                assert_eq!(ri.shift, (2 * k) % n);
                // Lemma 3(a): RI(B)=0 iff |B| in {0, n/2, n}.
                let zero = ri.is_zero();
                assert_eq!(zero, k == 0 || k == n / 2 || k == n);
            }
        }
    }

    #[test]
    fn signed_shift() {
        let r = RotationIndex { shift: 7, n: 8 };
        assert_eq!(r.signed(), -1);
        let r = RotationIndex { shift: 4, n: 8 };
        assert_eq!(r.signed(), 4);
        let r = RotationIndex { shift: 1, n: 8 };
        assert_eq!(r.signed(), 1);
    }
}
