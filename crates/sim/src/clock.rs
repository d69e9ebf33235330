//! Virtual time for the simulator.
//!
//! Time is measured in integer milliseconds from the start of the
//! simulation. The protocol has three natural calendar units that appear
//! throughout the paper: the *day* (the `sent` array resets daily and the
//! anti-zombie `limit` is per-day), the *snapshot quiescence window*
//! ("say, 10 minutes"), and the *billing period* ("once a week or once a
//! month"). [`SimTime`] provides day arithmetic so those boundaries are
//! first-class.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration from minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration from days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400_000.0
    }

    /// Multiplies the duration by an integer factor.
    ///
    /// # Panics
    ///
    /// Panics on overflow in debug builds.
    pub const fn mul(self, factor: u64) -> Self {
        SimDuration(self.0 * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms == 0 {
            return write!(f, "0s");
        }
        if ms.is_multiple_of(86_400_000) {
            write!(f, "{}d", ms / 86_400_000)
        } else if ms.is_multiple_of(3_600_000) {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms.is_multiple_of(60_000) {
            write!(f, "{}m", ms / 60_000)
        } else if ms.is_multiple_of(1_000) {
            write!(f, "{}s", ms / 1_000)
        } else if ms >= 1_000 {
            // Irregular spans: the two most significant calendar units.
            let secs = ms / 1_000;
            if secs >= 86_400 {
                write!(f, "{}d {}h", secs / 86_400, (secs / 3_600) % 24)
            } else if secs >= 3_600 {
                write!(f, "{}h {}m", secs / 3_600, (secs / 60) % 60)
            } else if secs >= 60 {
                write!(f, "{}m {}s", secs / 60, secs % 60)
            } else {
                write!(f, "{}.{:03}s", secs, ms % 1_000)
            }
        } else {
            write!(f, "{ms}ms")
        }
    }
}

/// An instant of virtual time: milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// The day number this instant falls in (day 0 starts at the epoch).
    pub const fn day_number(self) -> u64 {
        self.0 / 86_400_000
    }

    /// The first instant of this instant's day.
    pub const fn start_of_day(self) -> SimTime {
        SimTime(self.day_number() * 86_400_000)
    }

    /// The first instant of the next day — when the paper's `sent` array
    /// resets.
    pub const fn next_day_boundary(self) -> SimTime {
        SimTime((self.day_number() + 1) * 86_400_000)
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier.0 <= self.0, "since() requires earlier <= self");
        SimDuration(self.0 - earlier.0)
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    /// Formats a `SimTime` as `Nd hh:mm:ss.mmm`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let days = ms / 86_400_000;
        let hours = (ms / 3_600_000) % 24;
        let mins = (ms / 60_000) % 60;
        let secs = (ms / 1_000) % 60;
        let millis = ms % 1_000;
        write!(f, "{days}d {hours:02}:{mins:02}:{secs:02}.{millis:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(60), SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(60), SimDuration::from_hours(1));
        assert_eq!(SimDuration::from_hours(24), SimDuration::from_days(1));
        assert_eq!(SimDuration::from_millis(1_000), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_display_picks_natural_unit() {
        assert_eq!(SimDuration::from_days(3).to_string(), "3d");
        assert_eq!(SimDuration::from_hours(5).to_string(), "5h");
        assert_eq!(SimDuration::from_mins(10).to_string(), "10m");
        assert_eq!(SimDuration::from_secs(7).to_string(), "7s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        // Irregular spans render as two calendar units.
        assert_eq!(SimDuration::from_millis(657_821).to_string(), "10m 57s");
        assert_eq!(SimDuration::from_millis(4_894_849).to_string(), "1h 21m");
        assert_eq!(SimDuration::from_millis(90_061_001).to_string(), "1d 1h");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
    }

    #[test]
    fn day_boundaries() {
        let t = SimTime::ZERO + SimDuration::from_hours(30);
        assert_eq!(t.day_number(), 1);
        assert_eq!(t.start_of_day(), SimTime::ZERO + SimDuration::from_days(1));
        assert_eq!(
            t.next_day_boundary(),
            SimTime::ZERO + SimDuration::from_days(2)
        );
        // A boundary instant belongs to the new day.
        let b = SimTime::ZERO + SimDuration::from_days(2);
        assert_eq!(b.day_number(), 2);
        assert_eq!(b.start_of_day(), b);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(90);
        assert_eq!(t1 - t0, SimDuration::from_secs(90));
        let mut t = t0;
        t += SimDuration::from_mins(2);
        assert_eq!(t.as_secs(), 120);
    }

    #[test]
    #[should_panic(expected = "earlier <= self")]
    fn negative_elapsed_panics() {
        let t0 = SimTime::ZERO + SimDuration::from_secs(5);
        let _ = SimTime::ZERO - t0;
    }

    #[test]
    fn time_display() {
        let t = SimTime::ZERO
            + SimDuration::from_days(2)
            + SimDuration::from_hours(3)
            + SimDuration::from_mins(4)
            + SimDuration::from_secs(5)
            + SimDuration::from_millis(6);
        assert_eq!(t.to_string(), "2d 03:04:05.006");
    }

    #[test]
    fn as_days_f64_fractional() {
        let d = SimDuration::from_hours(12);
        assert!((d.as_days_f64() - 0.5).abs() < 1e-12);
    }
}
