//! Integer virtual time.
//!
//! A [`Time`] is an absolute instant measured in *ticks* since the start of
//! the simulation; a [`Dur`] is a span of ticks. The meaning of one tick is
//! chosen per experiment (Study A uses "1 byte at link rate"; Study B uses
//! nanoseconds), which keeps this crate free of unit policy.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in virtual time, in ticks.
///
/// `Time` is a transparent `u64` newtype: cheap to copy, totally ordered,
/// and immune to the floating-point comparison hazards that plague
/// `f64`-clocked simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (useful as an "infinity" sentinel).
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs a `Time` from a raw tick count.
    #[inline]
    pub const fn from_ticks(t: u64) -> Self {
        Time(t)
    }

    /// Raw tick count since the origin.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(
            earlier <= self,
            "Time::since: earlier ({earlier}) is after self ({self})"
        );
        Dur(self.0 - earlier.0)
    }

    /// Elapsed duration since `earlier`, or [`Dur::ZERO`] if `earlier` is in
    /// the future. Useful when clock skew is expected (e.g. warm-up cutoffs).
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Converts to `f64` ticks, for statistics at the measurement boundary.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: Dur) -> Option<Time> {
        self.0.checked_add(d.0).map(Time)
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);
    /// The largest representable duration.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Constructs a `Dur` from a raw tick count.
    #[inline]
    pub const fn from_ticks(t: u64) -> Self {
        Dur(t)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Converts to `f64` ticks.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer scale factor.
    #[inline]
    pub const fn scaled(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, d: Dur) -> Time {
        Time(self.0 + d.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, d: Dur) -> Time {
        Time(self.0 - d.0)
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, other: Time) -> Dur {
        self.since(other)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, other: Dur) -> Dur {
        Dur(self.0 + other.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, other: Dur) {
        self.0 += other.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, other: Dur) -> Dur {
        Dur(self.0 - other.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, other: Dur) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_ticks(100);
        let d = Dur::from_ticks(42);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t + Dur::ZERO, t);
    }

    #[test]
    fn subtraction_of_times_yields_duration() {
        let a = Time::from_ticks(10);
        let b = Time::from_ticks(25);
        assert_eq!(b - a, Dur::from_ticks(15));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = Time::from_ticks(10);
        let b = Time::from_ticks(25);
        assert_eq!(a.saturating_since(b), Dur::ZERO);
        assert_eq!(b.saturating_since(a), Dur::from_ticks(15));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn since_panics_on_negative_span() {
        let _ = Time::from_ticks(1).since(Time::from_ticks(2));
    }

    #[test]
    fn duration_scaling() {
        let d = Dur::from_ticks(7);
        assert_eq!(d * 3, Dur::from_ticks(21));
        assert_eq!(d.scaled(3), Dur::from_ticks(21));
        assert_eq!(Dur::from_ticks(21) / 3, d);
    }

    #[test]
    fn duration_sum() {
        let total: Dur = (1..=4).map(Dur::from_ticks).sum();
        assert_eq!(total, Dur::from_ticks(10));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(Time::MAX.checked_add(Dur::from_ticks(1)), None);
        assert_eq!(
            Time::ZERO.checked_add(Dur::from_ticks(5)),
            Some(Time::from_ticks(5))
        );
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_ticks(1) < Time::from_ticks(2));
        assert!(Dur::from_ticks(1) < Dur::from_ticks(2));
        assert_eq!(Time::ZERO.max(Time::from_ticks(9)), Time::from_ticks(9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_ticks(5).to_string(), "t5");
        assert_eq!(Dur::from_ticks(5).to_string(), "5t");
    }

    #[test]
    fn f64_conversion() {
        assert_eq!(Time::from_ticks(441).as_f64(), 441.0);
        assert_eq!(Dur::from_ticks(441).as_f64(), 441.0);
    }
}
