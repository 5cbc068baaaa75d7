//! Bin-index interval coverage: which half-open `[start, end)` spans of a
//! probe's horizon have been computed.
//!
//! Absence of a bin from the median map is ambiguous — it can mean "never
//! computed" or "computed, and the probe had no (surviving) data there".
//! The coverage set resolves the ambiguity: a lookup may only be served
//! when its whole span is covered, otherwise silent holes would masquerade
//! as probe downtime.

/// A sorted set of disjoint, non-adjacent half-open intervals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Coverage {
    intervals: Vec<(i64, i64)>,
}

impl Coverage {
    /// The raw intervals (sorted, disjoint, non-adjacent).
    pub fn intervals(&self) -> &[(i64, i64)] {
        &self.intervals
    }

    /// Rebuild from snapshot data, validating the invariants.
    pub fn from_sorted_intervals(intervals: Vec<(i64, i64)>) -> Result<Coverage, String> {
        for w in intervals.windows(2) {
            if w[0].1 >= w[1].0 {
                return Err(format!(
                    "coverage intervals overlap or touch: {:?} then {:?}",
                    w[0], w[1]
                ));
            }
        }
        if let Some(&(s, e)) = intervals.iter().find(|(s, e)| s >= e) {
            return Err(format!("empty or inverted coverage interval ({s}, {e})"));
        }
        Ok(Coverage { intervals })
    }

    /// Whether `[span.start, span.end)` is entirely covered. The empty
    /// span is trivially covered.
    pub fn contains_span(&self, span: &std::ops::Range<i64>) -> bool {
        if span.is_empty() {
            return true;
        }
        // The only candidate is the last interval starting at or before
        // span.start.
        let idx = self.intervals.partition_point(|&(s, _)| s <= span.start);
        idx > 0 && self.intervals[idx - 1].1 >= span.end
    }

    /// Add `[start, end)`, coalescing with overlapping or adjacent
    /// intervals.
    pub fn add(&mut self, start: i64, end: i64) {
        assert!(start < end, "empty coverage add ({start}, {end})");
        // All intervals strictly before (no touch) stay; same after.
        let lo = self.intervals.partition_point(|&(_, e)| e < start);
        let hi = self.intervals.partition_point(|&(s, _)| s <= end);
        let merged_start = if lo < hi {
            self.intervals[lo].0.min(start)
        } else {
            start
        };
        let merged_end = if lo < hi {
            self.intervals[hi - 1].1.max(end)
        } else {
            end
        };
        self.intervals
            .splice(lo..hi, std::iter::once((merged_start, merged_end)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cov(spans: &[(i64, i64)]) -> Coverage {
        let mut c = Coverage::default();
        for &(s, e) in spans {
            c.add(s, e);
        }
        c
    }

    #[test]
    fn adds_merge_overlapping_and_adjacent() {
        assert_eq!(cov(&[(0, 4), (4, 8)]).intervals(), &[(0, 8)]);
        assert_eq!(cov(&[(0, 4), (2, 10)]).intervals(), &[(0, 10)]);
        assert_eq!(cov(&[(0, 2), (6, 8)]).intervals(), &[(0, 2), (6, 8)]);
        assert_eq!(cov(&[(0, 2), (6, 8), (2, 6)]).intervals(), &[(0, 8)]);
        assert_eq!(cov(&[(6, 8), (0, 2)]).intervals(), &[(0, 2), (6, 8)]);
        // A superset swallows several intervals at once.
        assert_eq!(
            cov(&[(0, 2), (4, 6), (8, 10), (-5, 20)]).intervals(),
            &[(-5, 20)]
        );
    }

    #[test]
    fn containment() {
        let c = cov(&[(0, 10), (20, 30)]);
        assert!(c.contains_span(&(0..10)));
        assert!(c.contains_span(&(3..7)));
        assert!(c.contains_span(&(20..30)));
        assert!(!c.contains_span(&(5..25)));
        assert!(!c.contains_span(&(9..11)));
        assert!(!c.contains_span(&(-1..5)));
        assert!(c.contains_span(&(5..5)), "empty span is trivially covered");
        assert!(Coverage::default().contains_span(&(3..3)));
        assert!(!Coverage::default().contains_span(&(3..4)));
    }

    #[test]
    fn negative_indices_work() {
        // Pre-epoch instants give negative bin indices.
        let c = cov(&[(-10, -2)]);
        assert!(c.contains_span(&(-8..-4)));
        assert!(!c.contains_span(&(-12..-4)));
    }

    #[test]
    fn snapshot_validation() {
        assert!(Coverage::from_sorted_intervals(vec![(0, 4), (8, 10)]).is_ok());
        assert!(Coverage::from_sorted_intervals(vec![(0, 4), (4, 10)]).is_err());
        assert!(Coverage::from_sorted_intervals(vec![(0, 4), (2, 10)]).is_err());
        assert!(Coverage::from_sorted_intervals(vec![(4, 4)]).is_err());
        assert!(Coverage::from_sorted_intervals(vec![(4, 2)]).is_err());
        assert!(Coverage::from_sorted_intervals(vec![(8, 10), (0, 4)]).is_err());
    }
}
