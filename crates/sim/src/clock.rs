//! Virtual time: [`Instant`], [`Duration`], and the monotonic [`Clock`].
//!
//! Simulated time is a nanosecond counter. Newtypes keep instants and
//! durations from being confused (paper experiments report both: Fig 7
//! reports latencies, Fig 1/13 report timelines).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero.
    pub fn from_micros_f64(us: f64) -> Self {
        Duration((us.max(0.0) * 1_000.0).round() as u64)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1_000_000_000.0).round() as u64)
    }

    /// Returns the number of whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the number of whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the number of whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration((self.0 as f64 * rhs.max(0.0)).round() as u64)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

/// A point in simulated time, measured from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: Instant = Instant(0);

    /// Creates an instant at the given nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: Instant) -> Instant {
        Instant(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: Instant) -> Instant {
        Instant(self.0.min(other.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

/// A monotonic virtual clock.
///
/// Components that model sequential execution (a kernel thread issuing a
/// remoted API call, a CPU running AES rounds) advance the clock directly;
/// overlapping ones (device completions, frame arrivals) move it forward
/// to their completion instants with [`Clock::advance_to`].
#[derive(Debug, Default)]
pub struct Clock {
    now_ns: AtomicU64,
}

impl Clock {
    /// Creates a clock at the epoch.
    pub fn new() -> Self {
        Clock { now_ns: AtomicU64::new(0) }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        Instant(self.now_ns.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> Instant {
        Instant(self.now_ns.fetch_add(d.as_nanos(), Ordering::SeqCst) + d.as_nanos())
    }

    /// Moves the clock forward to `t` if `t` is later than now; returns the
    /// (possibly unchanged) current time. Never moves the clock backwards.
    pub fn advance_to(&self, t: Instant) -> Instant {
        self.now_ns.fetch_max(t.as_nanos(), Ordering::SeqCst);
        self.now()
    }

    /// Resets the clock to the epoch. Only intended for test reuse.
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::SeqCst);
    }
}

/// A cheaply clonable, thread-safe handle to a [`Clock`].
///
/// The LAKE daemon thread and the "kernel" threads in the reproduction share
/// one of these, mirroring how both spaces observe the same wall clock.
#[derive(Debug, Clone, Default)]
pub struct SharedClock(Arc<Clock>);

impl SharedClock {
    /// Creates a new shared clock at the epoch.
    pub fn new() -> Self {
        SharedClock(Arc::new(Clock::new()))
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.0.now()
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> Instant {
        self.0.advance(d)
    }

    /// Moves the clock forward to `t` (never backwards).
    pub fn advance_to(&self, t: Instant) -> Instant {
        self.0.advance_to(t)
    }

    /// Resets to the epoch (test helper).
    pub fn reset(&self) {
        self.0.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_roundtrip() {
        assert_eq!(Duration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Duration::from_millis(3).as_micros(), 3_000);
        assert_eq!(Duration::from_secs(2).as_millis(), 2_000);
        assert_eq!(Duration::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(Duration::from_secs_f64(0.25).as_millis(), 250);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_micros(10);
        let b = Duration::from_micros(4);
        assert_eq!((a + b).as_micros(), 14);
        assert_eq!((a - b).as_micros(), 6);
        assert_eq!((a * 3).as_micros(), 30);
        assert_eq!((a / 2).as_micros(), 5);
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!((a * 0.5).as_micros(), 5);
    }

    #[test]
    fn duration_display_picks_scale() {
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
        assert_eq!(Duration::from_micros(12).to_string(), "12.000us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn instant_ordering_and_difference() {
        let t0 = Instant::EPOCH;
        let t1 = t0 + Duration::from_micros(5);
        assert!(t1 > t0);
        assert_eq!(t1.duration_since(t0).as_micros(), 5);
        assert_eq!(t0.duration_since(t1), Duration::ZERO);
        assert_eq!(t1 - t0, Duration::from_micros(5));
    }

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::new();
        assert_eq!(c.now(), Instant::EPOCH);
        c.advance(Duration::from_micros(3));
        let t = c.now();
        c.advance_to(Instant::EPOCH); // must not go backwards
        assert_eq!(c.now(), t);
        c.advance_to(t + Duration::from_micros(1));
        assert_eq!(c.now(), t + Duration::from_micros(1));
    }

    #[test]
    fn shared_clock_is_shared() {
        let a = SharedClock::new();
        let b = a.clone();
        a.advance(Duration::from_micros(9));
        assert_eq!(b.now().as_micros(), 9);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }
}
