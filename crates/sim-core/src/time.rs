//! Virtual time representation.
//!
//! Simulated time is measured in integer **picoseconds**. Picosecond
//! resolution keeps bandwidth arithmetic exact enough that byte-level
//! transfer times on multi-GB/s links do not collapse to zero, while a
//! `u64` still covers ~213 days of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in picoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// The last instant the clock can name.
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    /// Duration elapsed since `earlier`; saturates at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    #[inline]
    pub fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    #[inline]
    pub fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_S)
    }
    /// Build a duration from a floating-point count of nanoseconds.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }
    /// Time to move `bytes` across a link of `bytes_per_sec` bandwidth.
    ///
    /// Bandwidths in this codebase are quoted in bytes/second (the paper
    /// quotes MB/s; 1 MB/s == 1e6 B/s there, matching Mellanox convention).
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        debug_assert!(bytes_per_sec > 0.0, "non-positive bandwidth");
        SimDuration(((bytes as f64) * (PS_PER_S as f64) / bytes_per_sec).round() as u64)
    }
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_us(3).as_ps(), 3 * PS_PER_US);
        assert_eq!(SimDuration::from_ns(5).as_ps(), 5 * PS_PER_NS);
        assert_eq!(SimDuration::from_ms(2).as_ps(), 2 * PS_PER_MS);
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_S);
    }

    #[test]
    fn bandwidth_math() {
        // 6397 MB/s FDR: 4 MiB should take ~0.6556 ms.
        let d = SimDuration::for_bytes(4 << 20, 6397e6);
        let ms = d.as_ms_f64();
        assert!((ms - 0.6556).abs() < 0.01, "got {ms}");
        // 1 byte on a 1 B/s link is one second.
        assert_eq!(SimDuration::for_bytes(1, 1.0), SimDuration::from_secs(1));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_us(10);
        let t2 = t + SimDuration::from_us(5);
        assert_eq!(t2 - t, SimDuration::from_us(5));
        assert_eq!(t2.since(t), SimDuration::from_us(5));
        assert_eq!(t.since(t2), SimDuration::ZERO); // saturating
    }

    #[test]
    fn duration_ops() {
        let a = SimDuration::from_us(4);
        let b = SimDuration::from_us(6);
        assert_eq!(a + b, SimDuration::from_us(10));
        assert_eq!(b - a, SimDuration::from_us(2));
        assert_eq!(a * 3, SimDuration::from_us(12));
        assert_eq!(b / 2, SimDuration::from_us(3));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.saturating_sub(a), SimDuration::from_us(2));
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        let total: SimDuration = [a, b, a].into_iter().sum();
        assert_eq!(total, SimDuration::from_us(14));
    }

    #[test]
    fn display_formats_microseconds() {
        let t = SimTime::ZERO + SimDuration::from_ns(2500);
        assert_eq!(format!("{t}"), "2.500us");
    }
}
