//! Virtual time.
//!
//! All latency in the simulated network is charged against a shared
//! [`VirtualClock`] rather than the host clock. This makes experiments
//! that report "time to learn" reproducible bit-for-bit and lets the
//! benchmark harness run thousands of simulated requests per second of
//! host time.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A span of virtual time, stored in microseconds.
///
/// Microsecond resolution is enough to model sub-millisecond intra-DC
/// latencies while keeping arithmetic in `u64` overflow-safe for any
/// realistic simulation length (~584k years).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Duration(u64);

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative factor, saturating at the maximum.
    ///
    /// Used by backoff policies (`base * multiplier^attempt`).
    pub fn mul_f64(self, factor: f64) -> Duration {
        debug_assert!(factor >= 0.0, "duration scale factor must be non-negative");
        let scaled = (self.0 as f64 * factor).min(u64::MAX as f64);
        Duration(scaled as u64)
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// A point in virtual time (microseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Instant(u64);

impl Instant {
    pub const EPOCH: Instant = Instant(0);

    pub const fn from_micros(us: u64) -> Self {
        Instant(us)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_add(rhs.as_micros()))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", Duration(self.0))
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// Cloning is cheap (the state is behind an `Arc`), so every layer of
/// the stack can hold a handle to the same timeline.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<Mutex<Instant>>,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn now(&self) -> Instant {
        *self.now.lock()
    }

    /// Advance the clock by `d` and return the new time.
    pub fn advance(&self, d: Duration) -> Instant {
        let mut now = self.now.lock();
        *now = *now + d;
        *now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        assert_eq!(Duration::from_millis(3).as_micros(), 3_000);
        assert_eq!(Duration::from_secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn duration_add_saturates() {
        let d = Duration::from_micros(u64::MAX) + Duration::from_micros(10);
        assert_eq!(d.as_micros(), u64::MAX);
    }

    #[test]
    fn duration_mul_f64_scales_and_saturates() {
        assert_eq!(Duration::from_millis(10).mul_f64(2.5).as_micros(), 25_000);
        assert_eq!(
            Duration::from_micros(u64::MAX).mul_f64(4.0).as_micros(),
            u64::MAX
        );
        assert_eq!(Duration::from_millis(7).mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    fn instant_duration_since_is_saturating() {
        let a = Instant::from_micros(100);
        let b = Instant::from_micros(250);
        assert_eq!(b.duration_since(a).as_micros(), 150);
        assert_eq!(a.duration_since(b), Duration::ZERO);
    }

    #[test]
    fn clock_advances_monotonically() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Instant::EPOCH);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now().as_micros(), 5_000);
        assert_eq!(clock.advance(Duration::ZERO).as_micros(), 5_000);
        clock.advance(Duration::from_millis(4));
        assert_eq!(clock.now().as_micros(), 9_000);
    }

    #[test]
    fn clock_clones_share_timeline() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        assert_eq!(b.now().as_micros(), 1_000_000);
    }

    #[test]
    fn display_formats_pick_sensible_units() {
        assert_eq!(Duration::from_micros(12).to_string(), "12us");
        assert_eq!(Duration::from_micros(2_500).to_string(), "2.5ms");
        assert_eq!(Duration::from_millis(1_500).to_string(), "1.500s");
    }
}
