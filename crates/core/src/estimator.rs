//! Last-mile RTT estimation from a single traceroute.
//!
//! §2.1: "To estimate the last-mile RTT, we simply subtract the last
//! private IP RTT from the identified first public IP RTT. [...] we
//! compute 9 RTT samples per traceroute (pairwise subtraction of the 3
//! RTTs for each of the last private IP and the first public IP)."
//!
//! With the standard three replies per hop this yields up to 9 samples;
//! timeouts reduce the count (2 × 3 = 6 samples, etc.), and traceroutes
//! with no last-mile span (no responding private hop before the first
//! public hop — anchors, datacenter paths, fully private paths) yield
//! none.
//!
//! Pairwise subtraction can produce *negative* samples when the private
//! hop momentarily answers slower than the public one; the paper's
//! median-of-216-samples binning absorbs these, so they are deliberately
//! kept rather than clamped.

use lastmile_atlas::{LastMile, TracerouteResult};

/// Maximum samples a single traceroute can contribute (3 × 3).
pub const MAX_SAMPLES_PER_TRACEROUTE: usize = 9;

/// The pairwise last-mile RTT samples of one traceroute: each public RTT
/// minus each private one, public-major.
///
/// Returns an empty vector when the traceroute has no usable last-mile
/// span (see module docs).
pub fn last_mile_samples(tr: &TracerouteResult) -> Vec<f64> {
    let row = LastMile::of(tr);
    row.public_rtts()
        .iter()
        .flat_map(|&pu| row.private_rtts().iter().map(move |&pr| pu - pr))
        .collect()
}

/// Running tallies over many traceroutes, for data-quality reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EstimatorStats {
    /// Traceroutes that produced at least one sample.
    pub usable: usize,
    /// Traceroutes with no last-mile span.
    pub unusable: usize,
    /// Total samples produced.
    pub samples: usize,
}

impl EstimatorStats {
    /// Account for one traceroute's samples.
    pub fn record(&mut self, sample_count: usize) {
        if sample_count > 0 {
            self.usable += 1;
            self.samples += sample_count;
        } else {
            self.unusable += 1;
        }
    }

    /// Fraction of traceroutes that were usable (0 when empty).
    pub fn usable_fraction(&self) -> f64 {
        let total = self.usable + self.unusable;
        if total == 0 {
            0.0
        } else {
            self.usable as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_atlas::{Hop, ProbeId, Reply};
    use lastmile_timebase::UnixTime;
    use std::net::IpAddr;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn hop(n: u8, addr: &str, rtts: &[f64]) -> Hop {
        Hop {
            hop: n,
            replies: rtts.iter().map(|&r| Reply::answered(ip(addr), r)).collect(),
        }
    }

    fn tr(hops: Vec<Hop>) -> TracerouteResult {
        TracerouteResult {
            probe: ProbeId(1),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(0),
            dst: ip("20.9.9.9"),
            src: ip("192.168.1.10"),
            hops,
        }
    }

    #[test]
    fn nine_pairwise_samples() {
        let t = tr(vec![
            hop(1, "192.168.1.1", &[1.0, 2.0, 3.0]),
            hop(2, "20.0.0.1", &[10.0, 11.0, 12.0]),
        ]);
        let mut s = last_mile_samples(&t);
        assert_eq!(s.len(), 9);
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // All differences public - private: min 10-3=7, max 12-1=11.
        assert_eq!(s[0], 7.0);
        assert_eq!(s[8], 11.0);
        // The multiset is exactly the cross product.
        let expect = [7.0, 8.0, 8.0, 9.0, 9.0, 9.0, 10.0, 10.0, 11.0];
        assert_eq!(s, expect);
    }

    #[test]
    fn timeouts_reduce_sample_count() {
        let mut private = hop(1, "192.168.1.1", &[1.0, 2.0]);
        private.replies.push(Reply::timeout());
        let t = tr(vec![private, hop(2, "20.0.0.1", &[10.0, 11.0, 12.0])]);
        assert_eq!(last_mile_samples(&t).len(), 6);
    }

    #[test]
    fn no_span_yields_nothing() {
        // All-private path.
        let t = tr(vec![
            hop(1, "192.168.1.1", &[1.0]),
            hop(2, "10.0.0.1", &[2.0]),
        ]);
        assert!(last_mile_samples(&t).is_empty());
        // Public-only path (anchor style).
        let t = tr(vec![hop(1, "20.0.0.1", &[1.0])]);
        assert!(last_mile_samples(&t).is_empty());
        // Empty traceroute.
        assert!(last_mile_samples(&tr(vec![])).is_empty());
    }

    #[test]
    fn negative_samples_are_kept() {
        let t = tr(vec![
            hop(1, "192.168.1.1", &[5.0]),
            hop(2, "20.0.0.1", &[4.0]),
        ]);
        assert_eq!(last_mile_samples(&t), vec![-1.0]);
    }

    #[test]
    fn uses_last_private_and_first_public() {
        let t = tr(vec![
            hop(1, "192.168.1.1", &[1.0]),
            hop(2, "100.64.0.1", &[2.0]), // CGN: the true last private
            hop(3, "20.0.0.1", &[8.0]),   // first public
            hop(4, "20.0.1.1", &[20.0]),  // must be ignored
        ]);
        assert_eq!(last_mile_samples(&t), vec![6.0]);
    }

    #[test]
    fn stats_accumulate() {
        let mut stats = EstimatorStats::default();
        stats.record(9);
        stats.record(0);
        stats.record(6);
        assert_eq!(stats.usable, 2);
        assert_eq!(stats.unusable, 1);
        assert_eq!(stats.samples, 15);
        assert!((stats.usable_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(EstimatorStats::default().usable_fraction(), 0.0);
    }
}
