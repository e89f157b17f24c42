//! Simulated time.
//!
//! [`SimTime`] is a duration/instant measured in nanoseconds since the start
//! of the simulation. [`SimClock`] is a shared handle to the current
//! simulated instant; cloning a clock yields another handle to the *same*
//! clock, so a disk drive and a CPU constructed from clones of one clock
//! charge their costs to a single timeline.

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::rc::Rc;

/// A point in (or span of) simulated time, in nanoseconds.
///
/// The same type serves as instant and duration, as with a bare integer
/// timestamp; 64 bits of nanoseconds covers ~584 years of simulated time,
/// which is ample for any experiment in this repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant / empty duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// The value in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The value in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The value in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The value in seconds, as a float (for reports).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; useful for "time remaining" computations.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Scales a duration by an integer factor.
    pub fn scaled(self, factor: u64) -> SimTime {
        SimTime(self.0 * factor)
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3} µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns} ns")
        }
    }
}

/// A shared simulated clock.
///
/// All simulated devices hold a clone of the same `SimClock` and call
/// [`SimClock::advance`] as they consume time. Tests and benchmarks read the
/// clock before and after an operation to obtain its simulated cost. The
/// simulation is single-threaded, so the handle is a plain shared cell.
///
/// # Examples
///
/// ```
/// use alto_sim::{SimClock, SimTime};
///
/// let clock = SimClock::new();
/// let device_view = clock.clone(); // same timeline
/// device_view.advance(SimTime::from_millis(40));
/// assert_eq!(clock.now(), SimTime::from_millis(40));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a new clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.now.get())
    }

    /// Advances the clock by `dt`.
    pub fn advance(&self, dt: SimTime) {
        self.now.set(self.now.get() + dt.0);
    }

    /// Measures the simulated time consumed by `f`.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, SimTime) {
        let start = self.now();
        let out = f();
        (out, self.now() - start)
    }

    /// Sets the clock to an absolute instant.
    ///
    /// This exists for devices that model *overlapped* internal timelines:
    /// a drive array executes each arm's share of a batch from the same
    /// start instant and then sets the clock to the latest finish, so the
    /// elapsed time is the maximum of the arms' times rather than their
    /// sum. It must only be used by a device while it has exclusive
    /// control of the timeline (a synchronous operation), so no other
    /// device observes an intermediate instant. Ordinary devices should
    /// only ever [`SimClock::advance`].
    pub fn set(&self, t: SimTime) {
        self.now.set(t.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_nanos(800).as_nanos(), 800);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!((a + b).as_millis(), 14);
        assert_eq!((a - b).as_millis(), 6);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(b.scaled(3).as_millis(), 12);
        let mut c = a;
        c += b;
        assert_eq!(c.as_millis(), 14);
    }

    #[test]
    fn clones_share_the_timeline() {
        let clock = SimClock::new();
        let other = clock.clone();
        other.advance(SimTime::from_micros(7));
        clock.advance(SimTime::from_micros(3));
        assert_eq!(clock.now().as_micros(), 10);
        assert_eq!(other.now().as_micros(), 10);
    }

    #[test]
    fn time_measures_elapsed() {
        let clock = SimClock::new();
        clock.advance(SimTime::from_secs(1));
        let (value, dt) = clock.time(|| {
            clock.advance(SimTime::from_millis(25));
            42
        });
        assert_eq!(value, 42);
        assert_eq!(dt, SimTime::from_millis(25));
    }

    #[test]
    fn set_rewinds_and_forwards_all_handles() {
        let clock = SimClock::new();
        let other = clock.clone();
        clock.advance(SimTime::from_millis(10));
        other.set(SimTime::from_millis(4));
        assert_eq!(clock.now().as_millis(), 4);
        other.set(SimTime::from_millis(25));
        assert_eq!(clock.now().as_millis(), 25);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12 ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000 µs");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000 ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000 s");
    }
}
