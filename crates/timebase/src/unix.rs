//! Unix timestamps and half-open time ranges.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Seconds in a minute.
pub const SECS_PER_MIN: i64 = 60;
/// Seconds in an hour.
pub const SECS_PER_HOUR: i64 = 60 * SECS_PER_MIN;
/// Seconds in a day.
pub const SECS_PER_DAY: i64 = 24 * SECS_PER_HOUR;
/// Seconds in a week.
pub const SECS_PER_WEEK: i64 = 7 * SECS_PER_DAY;

/// A timestamp in whole seconds since `1970-01-01T00:00:00Z`.
///
/// RIPE Atlas reports measurement timestamps as integral Unix seconds, and
/// every time bin used in the paper is an integral number of seconds wide,
/// so second granularity is exact for the entire pipeline.
///
/// The representation is a signed 64-bit count, so pre-1970 instants are
/// representable (useful in property tests) and overflow is out of reach
/// for any realistic input.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UnixTime(pub i64);

impl UnixTime {
    /// The Unix epoch itself.
    pub const EPOCH: UnixTime = UnixTime(0);

    /// Construct from raw seconds.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        UnixTime(secs)
    }

    /// Raw seconds since the epoch.
    #[inline]
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Seconds elapsed since midnight UTC of the same day (`0..86400`).
    #[inline]
    pub fn seconds_of_day(self) -> i64 {
        self.0.rem_euclid(SECS_PER_DAY)
    }

    /// The hour of day in UTC (`0..24`).
    #[inline]
    pub fn hour_of_day(self) -> u8 {
        (self.seconds_of_day() / SECS_PER_HOUR) as u8
    }

    /// Fractional hour of day in UTC (`0.0..24.0`), convenient for demand
    /// curves evaluated at arbitrary instants.
    #[inline]
    pub fn fractional_hour_of_day(self) -> f64 {
        self.seconds_of_day() as f64 / SECS_PER_HOUR as f64
    }

    /// Number of whole days since the epoch (floor division, so negative
    /// timestamps land on the preceding day).
    #[inline]
    pub fn days_since_epoch(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// Midnight UTC of the day containing this instant.
    #[inline]
    pub fn start_of_day(self) -> UnixTime {
        UnixTime(self.days_since_epoch() * SECS_PER_DAY)
    }
}

impl Add<i64> for UnixTime {
    type Output = UnixTime;
    #[inline]
    fn add(self, rhs: i64) -> UnixTime {
        UnixTime(self.0 + rhs)
    }
}

impl AddAssign<i64> for UnixTime {
    #[inline]
    fn add_assign(&mut self, rhs: i64) {
        self.0 += rhs;
    }
}

impl Sub<i64> for UnixTime {
    type Output = UnixTime;
    #[inline]
    fn sub(self, rhs: i64) -> UnixTime {
        UnixTime(self.0 - rhs)
    }
}

impl SubAssign<i64> for UnixTime {
    #[inline]
    fn sub_assign(&mut self, rhs: i64) {
        self.0 -= rhs;
    }
}

impl Sub<UnixTime> for UnixTime {
    type Output = i64;
    /// Difference in seconds (`self - rhs`).
    #[inline]
    fn sub(self, rhs: UnixTime) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for UnixTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as civil time for readable assertion failures.
        write!(
            f,
            "UnixTime({} = {})",
            self.0,
            crate::civil::CivilDateTime::from_unix(*self)
        )
    }
}

impl fmt::Display for UnixTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A half-open interval of time `[start, end)`.
///
/// Half-open ranges compose without overlap: the paper's 15-day measurement
/// periods are `[Mar 1 00:00, Mar 16 00:00)` and a 30-minute bin starting at
/// `t` covers `[t, t+1800)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimeRange {
    start: UnixTime,
    end: UnixTime,
}

impl TimeRange {
    /// Create a range; `end` is clamped up to `start` so the range is never
    /// negative (an empty range has `start == end`).
    pub fn new(start: UnixTime, end: UnixTime) -> Self {
        TimeRange {
            start,
            end: end.max(start),
        }
    }

    /// Start (inclusive).
    #[inline]
    pub fn start(&self) -> UnixTime {
        self.start
    }

    /// End (exclusive).
    #[inline]
    pub fn end(&self) -> UnixTime {
        self.end
    }

    /// Length in seconds.
    #[inline]
    pub fn duration_secs(&self) -> i64 {
        self.end - self.start
    }

    /// Whether the range contains no instant.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `t` lies within `[start, end)`.
    #[inline]
    pub fn contains(&self, t: UnixTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Intersection of two ranges (empty if they do not overlap).
    pub fn intersect(&self, other: &TimeRange) -> TimeRange {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        TimeRange::new(start, end)
    }

    /// Iterate instants `start, start+step, ...` strictly below `end`.
    ///
    /// `step` must be positive.
    pub fn iter_step(&self, step: i64) -> StepIter {
        assert!(step > 0, "step must be positive, got {step}");
        StepIter {
            next: self.start,
            end: self.end,
            step,
        }
    }
}

/// Iterator over evenly spaced instants in a [`TimeRange`].
#[derive(Clone, Debug)]
pub struct StepIter {
    next: UnixTime,
    end: UnixTime,
    step: i64,
}

impl Iterator for StepIter {
    type Item = UnixTime;

    fn next(&mut self) -> Option<UnixTime> {
        if self.next < self.end {
            let t = self.next;
            self.next += self.step;
            Some(t)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.next < self.end {
            ((self.end - self.next + self.step - 1) / self.step) as usize
        } else {
            0
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for StepIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_of_day_wraps() {
        assert_eq!(UnixTime(0).seconds_of_day(), 0);
        assert_eq!(UnixTime(SECS_PER_DAY + 5).seconds_of_day(), 5);
        assert_eq!(UnixTime(-1).seconds_of_day(), SECS_PER_DAY - 1);
    }

    #[test]
    fn hour_of_day() {
        assert_eq!(UnixTime(0).hour_of_day(), 0);
        assert_eq!(UnixTime(SECS_PER_HOUR * 23 + 59 * 60).hour_of_day(), 23);
        assert!((UnixTime(SECS_PER_HOUR / 2).fractional_hour_of_day() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn start_of_day_is_midnight() {
        let t = UnixTime(3 * SECS_PER_DAY + 12345);
        assert_eq!(t.start_of_day(), UnixTime(3 * SECS_PER_DAY));
        // Negative timestamps floor toward the previous midnight.
        let t = UnixTime(-1);
        assert_eq!(t.start_of_day(), UnixTime(-SECS_PER_DAY));
    }

    #[test]
    fn arithmetic_ops() {
        let t = UnixTime(100);
        assert_eq!(t + 50, UnixTime(150));
        assert_eq!(t - 50, UnixTime(50));
        assert_eq!(UnixTime(150) - UnixTime(100), 50);
        let mut u = t;
        u += 10;
        u -= 5;
        assert_eq!(u, UnixTime(105));
    }

    #[test]
    fn range_contains_is_half_open() {
        let r = TimeRange::new(UnixTime(10), UnixTime(20));
        assert!(r.contains(UnixTime(10)));
        assert!(r.contains(UnixTime(19)));
        assert!(!r.contains(UnixTime(20)));
        assert!(!r.contains(UnixTime(9)));
        assert_eq!(r.duration_secs(), 10);
    }

    #[test]
    fn range_clamps_inverted_bounds() {
        let r = TimeRange::new(UnixTime(20), UnixTime(10));
        assert!(r.is_empty());
        assert_eq!(r.duration_secs(), 0);
    }

    #[test]
    fn range_intersection() {
        let a = TimeRange::new(UnixTime(0), UnixTime(100));
        let b = TimeRange::new(UnixTime(50), UnixTime(150));
        let i = a.intersect(&b);
        assert_eq!(i, TimeRange::new(UnixTime(50), UnixTime(100)));
        let disjoint = TimeRange::new(UnixTime(200), UnixTime(300));
        assert!(a.intersect(&disjoint).is_empty());
    }

    #[test]
    fn step_iter_covers_range_exclusively() {
        let r = TimeRange::new(UnixTime(0), UnixTime(100));
        let pts: Vec<_> = r.iter_step(30).collect();
        assert_eq!(
            pts,
            vec![UnixTime(0), UnixTime(30), UnixTime(60), UnixTime(90)]
        );
        assert_eq!(r.iter_step(30).len(), 4);
        // Exact fit: the end point is excluded.
        let r = TimeRange::new(UnixTime(0), UnixTime(90));
        assert_eq!(r.iter_step(30).count(), 3);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn step_iter_rejects_zero_step() {
        let r = TimeRange::new(UnixTime(0), UnixTime(10));
        let _ = r.iter_step(0);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let r = TimeRange::new(UnixTime(5), UnixTime(5));
        assert_eq!(r.iter_step(1).count(), 0);
    }
}
