//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` doubles as a duration type: `SimTime::from_micros(3)` is both
/// "3 µs after start" and "a span of 3 µs", in the same way `u64` nanosecond
/// arithmetic would behave. Keeping a single type keeps resource-model
/// arithmetic free of conversions.
///
/// ```
/// use draid_sim::SimTime;
/// let t = SimTime::from_micros(10) + SimTime::from_nanos(500);
/// assert_eq!(t.as_nanos(), 10_500);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// This time as integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; yields [`SimTime::ZERO`] instead of wrapping.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a + b, SimTime::from_micros(14));
        assert_eq!(a - b, SimTime::from_micros(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_nanos(1)), None);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_micros(2) > SimTime::from_nanos(1999));
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(2_000).to_string(), "2.000s");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
