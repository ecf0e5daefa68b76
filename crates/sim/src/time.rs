//! Virtual time for the discrete-event simulator.
//!
//! Time is represented as an integer number of **microseconds** since the
//! simulation epoch. Integer time gives the event queue a total order with no
//! floating-point drift, which is what makes runs bit-for-bit reproducible
//! for a given seed.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// `x.round() as u64` for a non-negative `x`, without `round`'s software
/// call: truncate, then add one when the fraction is at least a half.
/// The fraction `x - t` is exact (below 2^53 `t` and `x` lie within a
/// factor of two; above it `x` is whole), so ties round away from zero
/// as `round` does, and values past `u64::MAX` saturate as the cast does.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// An instant on the simulation clock (microseconds since the epoch).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A non-negative span of simulated time (microseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from fractional seconds since the epoch.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime(round_to_u64(secs * MICROS_PER_SEC as f64))
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; elapsed time in a causal
    /// simulation must be non-negative, so a violation is a logic error.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is after self"),
        )
    }

    /// Duration since `earlier`, or zero if `earlier` is in the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `dur` later, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, dur: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(dur.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a duration from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration(round_to_u64(secs * MICROS_PER_SEC as f64))
    }

    /// Whole microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True when the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Sum saturating at [`SimDuration::MAX`].
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Difference saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Rounds **up** to the next multiple of `quantum`, used by billing
    /// models that charge in coarse increments (e.g. 100 ms on Cloud
    /// Functions, 1 ms on Lambda).
    ///
    /// # Panics
    /// Panics if `quantum` is zero.
    pub fn round_up_to(self, quantum: SimDuration) -> SimDuration {
        assert!(quantum.0 > 0, "round_up_to: zero quantum");
        let q = quantum.0;
        SimDuration(self.0.div_ceil(q) * q)
    }

    /// Multiplies by a non-negative scalar, rounding to whole microseconds.
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_to_u64_matches_round() {
        let two = |e: i32| 2f64.powi(e);
        let mut values = vec![
            0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            1e-300,
            two(52) - 0.5,
            two(52) + 1.0,
            two(53) + 2.0,
            two(63),
            two(64),
            two(64) + two(12),
            1e300,
            f64::MAX,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = f64::from_bits(x >> 2);
            if v.is_finite() {
                values.extend([v, v.fract() + 0.5, (v % 1e7).abs()]);
            }
        }
        for v in values {
            let v = v.abs();
            for w in [v, v.next_up(), v.next_down().max(0.0)] {
                assert_eq!(round_to_u64(w), w.round() as u64, "{w:e}");
            }
        }
    }

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(SimDuration::from_secs_f64(0.000001).as_micros(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(10.0);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_secs_f64(), 14.0);
        assert_eq!((t - d).as_secs_f64(), 6.0);
        assert_eq!((t + d).duration_since(t), d);
        assert_eq!(d + d, SimDuration::from_secs(8));
        assert_eq!(d - SimDuration::from_secs(1), SimDuration::from_secs(3));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "earlier is after self")]
    fn duration_since_panics_on_negative_span() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_secs_f64(1.0);
        let late = SimTime::from_secs_f64(5.0);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn round_up_to_billing_quanta() {
        let q = SimDuration::from_millis(100);
        assert_eq!(
            SimDuration::from_millis(1).round_up_to(q),
            SimDuration::from_millis(100)
        );
        assert_eq!(
            SimDuration::from_millis(100).round_up_to(q),
            SimDuration::from_millis(100)
        );
        assert_eq!(
            SimDuration::from_millis(101).round_up_to(q),
            SimDuration::from_millis(200)
        );
        assert_eq!(SimDuration::ZERO.round_up_to(q), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.mul_f64(1.55), SimDuration::from_micros(16));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert!(SimDuration::from_micros(1) < SimDuration::from_micros(2));
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.25).to_string(), "1.250s");
        assert_eq!(SimDuration::from_millis(50).to_string(), "0.050s");
    }
}
