//! Virtual time for the discrete-event simulator.
//!
//! The kernel never consults the wall clock: all timestamps are
//! [`SimTime`] values in nanoseconds since the start of the run, and all
//! spans are ordinary [`std::time::Duration`]s. This is what makes runs
//! bit-for-bit reproducible from a seed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

marp_wire::wire_struct!(SimTime { 0 });

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`; saturates to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference, `None` if `earlier > self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration::from_nanos)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_nanos(rhs)))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.saturating_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nanos = self.0;
        if nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if nanos >= 1_000_000 {
            write!(f, "{:.3}ms", nanos as f64 / 1e6)
        } else if nanos >= 1_000 {
            write!(f, "{:.3}us", nanos as f64 / 1e3)
        } else {
            write!(f, "{nanos}ns")
        }
    }
}

/// Convert a [`Duration`] to nanoseconds, saturating at `u64::MAX`.
pub fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Multiply a duration by a float factor, saturating; used by link models
/// for jitter and bandwidth scaling.
pub fn scale_duration(d: Duration, factor: f64) -> Duration {
    if !(factor.is_finite()) || factor <= 0.0 {
        return Duration::ZERO;
    }
    let nanos = duration_nanos(d) as f64 * factor;
    if nanos >= u64::MAX as f64 {
        Duration::from_nanos(u64::MAX)
    } else {
        Duration::from_nanos(nanos as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(5) + Duration::from_millis(3);
        assert_eq!(t.as_millis(), 8);
        assert_eq!(t - SimTime::from_millis(5), Duration::from_millis(3));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early - late, Duration::ZERO);
        assert_eq!(early.checked_since(late), None);
        assert_eq!(late.checked_since(early), Some(Duration::from_millis(1)));
    }

    #[test]
    fn addition_saturates_at_max() {
        let t = SimTime::MAX + Duration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(SimTime::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimTime::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn wire_roundtrip() {
        let t = SimTime::from_millis(123_456);
        let bytes = marp_wire::to_bytes(&t);
        assert_eq!(marp_wire::from_bytes::<SimTime>(&bytes).unwrap(), t);
    }

    #[test]
    fn scale_duration_basics() {
        assert_eq!(
            scale_duration(Duration::from_millis(10), 0.5),
            Duration::from_millis(5)
        );
        assert_eq!(
            scale_duration(Duration::from_millis(10), 0.0),
            Duration::ZERO
        );
        assert_eq!(
            scale_duration(Duration::from_millis(10), f64::NAN),
            Duration::ZERO
        );
        // Saturation at u64::MAX nanoseconds.
        assert_eq!(
            scale_duration(Duration::from_nanos(u64::MAX), 2.0),
            Duration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_millis(1500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);
    }
}
