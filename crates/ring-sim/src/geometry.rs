//! Exact fixed-point geometry on the unit circle.
//!
//! Positions and distances are expressed in integer *ticks*. The whole
//! circumference is [`CIRCUMFERENCE`] ticks, so a tick corresponds to
//! `1 / 2^40` of the circle. Initial agent positions are restricted to even
//! tick values; because the order of agents never changes, every position an
//! agent can ever occupy is one of the initial positions, and every collision
//! point is the midpoint of two initial positions, hence an exact integer.
//!
//! Two newtypes keep points and arc lengths apart:
//!
//! * [`Point`] — a location on the circle, always `< CIRCUMFERENCE`;
//! * [`ArcLength`] — a (directed) distance along the circle, `<= CIRCUMFERENCE`.

use serde::Serialize;
use std::fmt;

/// Number of ticks in the full circle (circumference 1).
pub const CIRCUMFERENCE: u64 = 1 << 40;

/// A location on the circle, measured in ticks clockwise from an arbitrary
/// (but fixed) origin. Always strictly less than [`CIRCUMFERENCE`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct Point(u64);

/// A distance along the circle measured in ticks, in `0..=CIRCUMFERENCE`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct ArcLength(u64);

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point({} = {:.6})", self.0, self.as_fraction())
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_fraction())
    }
}

impl fmt::Debug for ArcLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArcLength({} = {:.6})", self.0, self.as_fraction())
    }
}

impl fmt::Display for ArcLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_fraction())
    }
}

impl Point {
    /// The origin of the circle (tick 0).
    pub const ORIGIN: Point = Point(0);

    /// Creates a point from a raw tick value.
    ///
    /// Values are reduced modulo [`CIRCUMFERENCE`].
    pub fn from_ticks(ticks: u64) -> Self {
        Point(ticks % CIRCUMFERENCE)
    }

    /// Creates a point from a fraction of the circle in `[0, 1)`.
    ///
    /// The fraction is rounded down to the nearest even tick so that the
    /// exactness invariants of the simulator hold.
    pub fn from_fraction(fraction: f64) -> Self {
        let f = fraction.rem_euclid(1.0);
        let ticks = (f * CIRCUMFERENCE as f64) as u64;
        Point((ticks & !1) % CIRCUMFERENCE)
    }

    /// Raw tick value of this point.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Position as a fraction of the circle in `[0, 1)`.
    pub fn as_fraction(self) -> f64 {
        self.0 as f64 / CIRCUMFERENCE as f64
    }

    /// Clockwise distance from `self` to `other` (0 if equal).
    pub fn cw_distance_to(self, other: Point) -> ArcLength {
        ArcLength((other.0 + CIRCUMFERENCE - self.0) % CIRCUMFERENCE)
    }

    /// Anticlockwise distance from `self` to `other` (0 if equal).
    pub fn acw_distance_to(self, other: Point) -> ArcLength {
        ArcLength((self.0 + CIRCUMFERENCE - other.0) % CIRCUMFERENCE)
    }

    /// The point reached by moving `len` ticks clockwise from `self`.
    pub fn offset_cw(self, len: ArcLength) -> Point {
        Point((self.0 + len.0) % CIRCUMFERENCE)
    }

    /// The point reached by moving `len` ticks anticlockwise from `self`.
    pub fn offset_acw(self, len: ArcLength) -> Point {
        Point((self.0 + CIRCUMFERENCE - (len.0 % CIRCUMFERENCE)) % CIRCUMFERENCE)
    }

    /// The midpoint of the clockwise arc from `self` to `other`.
    ///
    /// This is where two approaching agents starting at `self` (moving
    /// clockwise) and `other` (moving anticlockwise) collide.
    pub fn cw_midpoint(self, other: Point) -> Point {
        let half = ArcLength(self.cw_distance_to(other).0 / 2);
        self.offset_cw(half)
    }
}

impl ArcLength {
    /// The zero arc length.
    pub const ZERO: ArcLength = ArcLength(0);
    /// The full circle as an arc length.
    pub const FULL: ArcLength = ArcLength(CIRCUMFERENCE);

    /// Creates an arc length from a raw tick value.
    ///
    /// # Panics
    ///
    /// Panics if `ticks > CIRCUMFERENCE`.
    pub fn from_ticks(ticks: u64) -> Self {
        assert!(
            ticks <= CIRCUMFERENCE,
            "arc length {ticks} exceeds the circumference"
        );
        ArcLength(ticks)
    }

    /// Creates an arc length from a fraction of the circle in `[0, 1]`.
    pub fn from_fraction(fraction: f64) -> Self {
        let f = fraction.clamp(0.0, 1.0);
        ArcLength((f * CIRCUMFERENCE as f64).round() as u64)
    }

    /// Raw tick value.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Arc length as a fraction of the circle.
    pub fn as_fraction(self) -> f64 {
        self.0 as f64 / CIRCUMFERENCE as f64
    }

    /// Whether this arc length is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating sum of two arc lengths (capped at one full circle).
    pub fn saturating_add(self, other: ArcLength) -> ArcLength {
        ArcLength((self.0 + other.0).min(CIRCUMFERENCE))
    }

    /// Exact sum of two arc lengths; may exceed the circumference, so the
    /// result is returned in raw ticks.
    pub fn sum_ticks(self, other: ArcLength) -> u64 {
        self.0 + other.0
    }

    /// The complementary arc (full circle minus `self`).
    pub fn complement(self) -> ArcLength {
        ArcLength(CIRCUMFERENCE - self.0)
    }

    /// Half of this arc length (exact if the tick count is even, floor
    /// division otherwise).
    pub fn half(self) -> ArcLength {
        ArcLength(self.0 / 2)
    }

    /// Twice this arc length in raw ticks (may exceed the circumference).
    pub fn doubled_ticks(self) -> u64 {
        self.0 * 2
    }
}

impl std::ops::Add for ArcLength {
    type Output = ArcLength;

    /// Adds two arc lengths.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the result exceeds the circumference;
    /// use [`ArcLength::sum_ticks`] when wrap-around totals are expected.
    fn add(self, rhs: ArcLength) -> ArcLength {
        debug_assert!(self.0 + rhs.0 <= CIRCUMFERENCE, "arc overflow");
        ArcLength(self.0 + rhs.0)
    }
}

impl std::ops::Sub for ArcLength {
    type Output = ArcLength;

    /// Subtracts `rhs` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    fn sub(self, rhs: ArcLength) -> ArcLength {
        assert!(rhs.0 <= self.0, "arc underflow");
        ArcLength(self.0 - rhs.0)
    }
}

impl std::iter::Sum for ArcLength {
    fn sum<I: Iterator<Item = ArcLength>>(iter: I) -> ArcLength {
        ArcLength(iter.map(|a| a.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cw_and_acw_distances_are_complementary() {
        let a = Point::from_ticks(100);
        let b = Point::from_ticks(500);
        let cw = a.cw_distance_to(b);
        let acw = a.acw_distance_to(b);
        assert_eq!(cw.ticks() + acw.ticks(), CIRCUMFERENCE);
        assert_eq!(cw.ticks(), 400);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::from_ticks(12345);
        assert!(a.cw_distance_to(a).is_zero());
        assert!(a.acw_distance_to(a).is_zero());
    }

    #[test]
    fn offsets_round_trip() {
        let a = Point::from_ticks(CIRCUMFERENCE - 10);
        let d = ArcLength::from_ticks(30);
        let b = a.offset_cw(d);
        assert_eq!(b.ticks(), 20);
        assert_eq!(b.offset_acw(d), a);
        assert_eq!(a.cw_distance_to(b), d);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::from_ticks(10);
        let b = Point::from_ticks(110);
        let m = a.cw_midpoint(b);
        assert_eq!(m.ticks(), 60);
        // Wrapping case.
        let a = Point::from_ticks(CIRCUMFERENCE - 50);
        let b = Point::from_ticks(50);
        let m = a.cw_midpoint(b);
        assert_eq!(m.ticks(), 0);
    }

    #[test]
    fn fraction_conversions() {
        let p = Point::from_fraction(0.25);
        assert!((p.as_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(p.ticks() % 2, 0);
        let l = ArcLength::from_fraction(0.5);
        assert!((l.as_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn arc_arithmetic() {
        let a = ArcLength::from_ticks(10);
        let b = ArcLength::from_ticks(30);
        assert_eq!((a + b).ticks(), 40);
        assert_eq!((b - a).ticks(), 20);
        assert_eq!(a.complement().ticks(), CIRCUMFERENCE - 10);
        assert_eq!(b.half().ticks(), 15);
        assert_eq!(b.doubled_ticks(), 60);
        let s: ArcLength = [a, b].into_iter().sum();
        assert_eq!(s.ticks(), 40);
    }

    #[test]
    #[should_panic(expected = "arc underflow")]
    fn arc_subtraction_underflow_panics() {
        let _ = ArcLength::from_ticks(1) - ArcLength::from_ticks(2);
    }

    #[test]
    #[should_panic(expected = "exceeds the circumference")]
    fn arc_length_above_circumference_panics() {
        let _ = ArcLength::from_ticks(CIRCUMFERENCE + 1);
    }
}
