//! Fixed-width time binning.
//!
//! The paper's noise-filtering strategy hinges on binning: probe RTT samples
//! are grouped into **30-minute** bins ("we deliberately employ large
//! time-bins (30-minute) to filter out transient congestion"), bins with
//! fewer than 3 traceroutes are discarded, and CDN throughput samples are
//! grouped into **15-minute** bins. [`BinSpec`] captures a bin width and
//! provides the index/start arithmetic; downstream crates use
//! [`BinSpec::bin_index`] as the grouping key.
//!
//! Bins are aligned to the Unix epoch, so a 30-minute bin always starts at
//! `:00` or `:30` — matching how the paper aligns its figures to wall-clock
//! half hours.

use crate::unix::{TimeRange, UnixTime};

/// Index of a bin relative to the Unix epoch: bin `i` covers
/// `[i * width, (i + 1) * width)` seconds.
pub type BinIndex = i64;

/// A fixed bin width, aligned to the Unix epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BinSpec {
    width_secs: i64,
}

impl BinSpec {
    /// Create a bin specification with the given width in seconds.
    ///
    /// Panics if `width_secs` is not positive.
    pub fn new(width_secs: i64) -> BinSpec {
        assert!(
            width_secs > 0,
            "bin width must be positive, got {width_secs}"
        );
        BinSpec { width_secs }
    }

    /// The paper's delay-analysis bin width: 30 minutes.
    pub fn thirty_minutes() -> BinSpec {
        BinSpec::new(30 * 60)
    }

    /// The paper's CDN throughput bin width: 15 minutes.
    pub fn fifteen_minutes() -> BinSpec {
        BinSpec::new(15 * 60)
    }

    /// Bin width in seconds.
    #[inline]
    pub fn width_secs(&self) -> i64 {
        self.width_secs
    }

    /// Number of bins in one day. Exact for widths dividing 86 400 (both
    /// paper widths do); otherwise the floor.
    pub fn bins_per_day(&self) -> usize {
        (crate::unix::SECS_PER_DAY / self.width_secs) as usize
    }

    /// Sampling rate implied by this bin width, in samples per hour. This
    /// is the rate handed to the Welch periodogram: 30-minute bins give
    /// 2 samples/hour, so the daily component sits at 1/24 cycles/hour.
    pub fn samples_per_hour(&self) -> f64 {
        crate::unix::SECS_PER_HOUR as f64 / self.width_secs as f64
    }

    /// The bin containing instant `t` (floor division, correct for
    /// pre-epoch instants too).
    #[inline]
    pub fn bin_index(&self, t: UnixTime) -> BinIndex {
        t.as_secs().div_euclid(self.width_secs)
    }

    /// Start instant of the bin containing `t`.
    #[inline]
    pub fn bin_start(&self, t: UnixTime) -> UnixTime {
        UnixTime::from_secs(self.bin_index(t) * self.width_secs)
    }

    /// Start instant of bin `i`.
    #[inline]
    pub fn index_start(&self, i: BinIndex) -> UnixTime {
        UnixTime::from_secs(i * self.width_secs)
    }

    /// The time range covered by bin `i`.
    pub fn index_range(&self, i: BinIndex) -> TimeRange {
        TimeRange::new(self.index_start(i), self.index_start(i + 1))
    }

    /// Number of bins whose *start* falls inside `range`.
    ///
    /// For ranges aligned to bin boundaries (all paper periods are), this
    /// is exactly the number of bins fully contained in the range.
    pub fn count_in(&self, range: &TimeRange) -> usize {
        self.indices_in(range).count()
    }

    /// Iterate indices of bins whose start falls inside `range`.
    pub fn indices_in(&self, range: &TimeRange) -> impl Iterator<Item = BinIndex> + use<> {
        self.index_span(range)
    }

    /// The half-open index interval of bins whose start falls inside
    /// `range` (the bounds form of [`BinSpec::indices_in`]).
    pub fn index_span(&self, range: &TimeRange) -> core::ops::Range<BinIndex> {
        let first = if range.start().as_secs().rem_euclid(self.width_secs) == 0 {
            self.bin_index(range.start())
        } else {
            self.bin_index(range.start()) + 1
        };
        let end = range.end();
        // Index of the first bin starting at or after `end`.
        let last_exclusive = if end.as_secs().rem_euclid(self.width_secs) == 0 {
            self.bin_index(end)
        } else {
            self.bin_index(end) + 1
        };
        first..last_exclusive.max(first)
    }

    /// Iterate bin start instants inside `range`.
    pub fn starts_in(&self, range: &TimeRange) -> impl Iterator<Item = UnixTime> + use<> {
        let w = self.width_secs;
        self.indices_in(range)
            .map(move |i| UnixTime::from_secs(i * w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unix::SECS_PER_DAY;

    #[test]
    fn paper_bin_widths() {
        assert_eq!(BinSpec::thirty_minutes().width_secs(), 1800);
        assert_eq!(BinSpec::fifteen_minutes().width_secs(), 900);
        assert_eq!(BinSpec::thirty_minutes().bins_per_day(), 48);
        assert_eq!(BinSpec::fifteen_minutes().bins_per_day(), 96);
        assert!((BinSpec::thirty_minutes().samples_per_hour() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bin_index_floors() {
        let b = BinSpec::new(100);
        assert_eq!(b.bin_index(UnixTime(0)), 0);
        assert_eq!(b.bin_index(UnixTime(99)), 0);
        assert_eq!(b.bin_index(UnixTime(100)), 1);
        assert_eq!(b.bin_index(UnixTime(-1)), -1);
        assert_eq!(b.bin_start(UnixTime(-1)), UnixTime(-100));
    }

    #[test]
    fn index_range_is_half_open_and_contiguous() {
        let b = BinSpec::thirty_minutes();
        let r0 = b.index_range(0);
        let r1 = b.index_range(1);
        assert_eq!(r0.end(), r1.start());
        assert!(r0.contains(UnixTime(1799)));
        assert!(!r0.contains(UnixTime(1800)));
    }

    #[test]
    fn aligned_range_counts_exact_bins() {
        let b = BinSpec::thirty_minutes();
        let day = TimeRange::new(UnixTime(0), UnixTime(SECS_PER_DAY));
        assert_eq!(b.count_in(&day), 48);
        let starts: Vec<_> = b.starts_in(&day).collect();
        assert_eq!(starts.len(), 48);
        assert_eq!(starts[0], UnixTime(0));
        assert_eq!(starts[47], UnixTime(SECS_PER_DAY - 1800));
    }

    #[test]
    fn unaligned_range_skips_partial_leading_bin() {
        let b = BinSpec::new(100);
        // Range starting mid-bin: the first counted bin starts at 200.
        let r = TimeRange::new(UnixTime(150), UnixTime(450));
        let idx: Vec<_> = b.indices_in(&r).collect();
        assert_eq!(idx, vec![2, 3, 4]);
        // Range ending mid-bin: the bin starting at 400 still counts
        // (its *start* is inside the range).
        let r = TimeRange::new(UnixTime(100), UnixTime(401));
        let idx: Vec<_> = b.indices_in(&r).collect();
        assert_eq!(idx, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_range_has_no_bins() {
        let b = BinSpec::new(100);
        let r = TimeRange::new(UnixTime(50), UnixTime(50));
        assert_eq!(b.count_in(&r), 0);
        // A sub-bin-width range with no bin boundary inside also has none.
        let r = TimeRange::new(UnixTime(110), UnixTime(190));
        assert_eq!(b.count_in(&r), 0);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn rejects_nonpositive_width() {
        let _ = BinSpec::new(0);
    }
}
