//! Traceroute results.
//!
//! A traceroute is a sequence of hops; each hop gets (up to) three probe
//! packets, each answered by a reply carrying a source address and an RTT,
//! or lost (`*`). The paper's last-mile estimator (in `lastmile-core`)
//! needs the *last private* and *first public* hops with their reply RTTs;
//! this module provides the result model, those hop-classification
//! accessors, and [`LastMile`], the projection of a result onto exactly
//! those two hops.

use crate::probe::ProbeId;
use lastmile_prefix::special;
use lastmile_timebase::UnixTime;
use std::net::IpAddr;

/// One reply to one traceroute packet.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Reply {
    /// Source address of the ICMP reply; `None` for a timeout (`*`).
    pub from: Option<IpAddr>,
    /// Round-trip time in milliseconds; `None` for a timeout.
    pub rtt_ms: Option<f64>,
}

impl Reply {
    /// A reply with an address and RTT.
    pub fn answered(from: IpAddr, rtt_ms: f64) -> Reply {
        Reply {
            from: Some(from),
            rtt_ms: Some(rtt_ms),
        }
    }

    /// A timeout (`*` in traceroute output).
    pub fn timeout() -> Reply {
        Reply {
            from: None,
            rtt_ms: None,
        }
    }

    /// Whether this reply carries a usable RTT.
    pub fn is_answered(&self) -> bool {
        self.from.is_some() && self.rtt_ms.is_some()
    }
}

/// One hop of a traceroute: a TTL value and its replies.
#[derive(Clone, PartialEq, Debug)]
pub struct Hop {
    /// 1-based hop number (the TTL used).
    pub hop: u8,
    /// Replies received for this hop (normally 3).
    pub replies: Vec<Reply>,
}

impl Hop {
    /// The consensus responding address of this hop: the first answered
    /// reply's source. Real paths can (rarely) answer from multiple
    /// addresses per hop under load balancing; the built-in measurements
    /// are paris-traceroute so one address per hop is the norm.
    pub fn address(&self) -> Option<IpAddr> {
        self.replies.iter().find_map(|r| r.from)
    }

    /// All usable RTT samples of this hop.
    pub fn rtts(&self) -> impl Iterator<Item = f64> + '_ {
        self.replies.iter().filter_map(|r| r.rtt_ms)
    }

    /// Whether the hop responded at all.
    pub fn responded(&self) -> bool {
        self.replies.iter().any(Reply::is_answered)
    }

    /// Whether the hop's responding address is private/special-use
    /// (RFC1918, CGN, link-local, …). Unresponsive hops are neither
    /// private nor public.
    pub fn is_private(&self) -> bool {
        self.address().is_some_and(|a| !special::is_public(a))
    }

    /// Whether the hop's responding address is publicly routable.
    pub fn is_public(&self) -> bool {
        self.address().is_some_and(special::is_public)
    }
}

/// A complete traceroute result from one probe to one target.
#[derive(Clone, PartialEq, Debug)]
pub struct TracerouteResult {
    /// The probe that ran the measurement.
    pub probe: ProbeId,
    /// Atlas measurement id this run belongs to.
    pub msm_id: u32,
    /// Measurement start time.
    pub timestamp: UnixTime,
    /// Destination address.
    pub dst: IpAddr,
    /// The probe's source address as it sees itself (usually private).
    pub src: IpAddr,
    /// Hops in ascending TTL order.
    pub hops: Vec<Hop>,
}

impl TracerouteResult {
    /// The **last private** hop before the first public hop — the near end
    /// of the paper's last-mile segment. Skips unresponsive hops; returns
    /// `None` if no private hop responded before the first public one.
    pub fn last_private_hop(&self) -> Option<&Hop> {
        let first_pub = self.first_public_index()?;
        self.hops[..first_pub].iter().rev().find(|h| h.is_private())
    }

    /// The **first public** hop — "the first public IP address seen in the
    /// traceroute", the paper's proxy for the ISP edge.
    pub fn first_public_hop(&self) -> Option<&Hop> {
        self.first_public_index().map(|i| &self.hops[i])
    }

    fn first_public_index(&self) -> Option<usize> {
        self.hops.iter().position(Hop::is_public)
    }

    /// The address of the first public hop, if any.
    pub fn edge_address(&self) -> Option<IpAddr> {
        self.first_public_hop()?.address()
    }

    /// Whether the traceroute is usable for last-mile estimation: both a
    /// responding private hop and a following public hop exist.
    pub fn has_last_mile_span(&self) -> bool {
        self.last_private_hop().is_some() && self.first_public_hop().is_some()
    }
}

/// The part of one traceroute the last-mile estimator reads (§2.1):
/// the RTTs of the last private hop and of the first public hop, and
/// the first public hop's address (the ISP edge that BGP attribution
/// routes on).
///
/// [`LastMile::of`] projects a decoded [`TracerouteResult`];
/// [`crate::json::decode_last_mile`] reads the same row straight from
/// the wire bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct LastMile {
    /// The probe that ran the measurement.
    pub probe: ProbeId,
    /// Measurement start time.
    pub timestamp: UnixTime,
    /// The first public hop's address, if any hop is public.
    pub edge: Option<IpAddr>,
    /// The last private hop's RTTs, then the first public hop's, each in
    /// reply order. Empty unless the traceroute has both hops.
    pub rtts: Vec<f64>,
    /// How many of `rtts` are the private hop's.
    pub private: usize,
}

impl LastMile {
    /// The projection of a decoded traceroute.
    pub fn of(tr: &TracerouteResult) -> LastMile {
        let mut rtts = Vec::new();
        let mut private = 0;
        if let (Some(near), Some(far)) = (tr.last_private_hop(), tr.first_public_hop()) {
            rtts.extend(near.rtts());
            private = rtts.len();
            rtts.extend(far.rtts());
        }
        LastMile {
            probe: tr.probe,
            timestamp: tr.timestamp,
            edge: tr.edge_address(),
            rtts,
            private,
        }
    }

    /// The last private hop's RTTs.
    pub fn private_rtts(&self) -> &[f64] {
        &self.rtts[..self.private]
    }

    /// The first public hop's RTTs.
    pub fn public_rtts(&self) -> &[f64] {
        &self.rtts[self.private..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn hop(n: u8, addr: Option<&str>, rtts: &[f64]) -> Hop {
        let replies = match addr {
            Some(a) => rtts.iter().map(|&r| Reply::answered(ip(a), r)).collect(),
            None => vec![Reply::timeout(); 3],
        };
        Hop { hop: n, replies }
    }

    fn tr(hops: Vec<Hop>) -> TracerouteResult {
        TracerouteResult {
            probe: ProbeId(1),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(1_567_296_000),
            dst: ip("20.99.0.1"),
            src: ip("192.168.1.10"),
            hops,
        }
    }

    #[test]
    fn typical_home_path() {
        let t = tr(vec![
            hop(1, Some("192.168.1.1"), &[0.5, 0.6, 0.4]),
            hop(2, Some("20.0.0.1"), &[5.0, 5.5, 4.8]),
            hop(3, Some("20.0.1.1"), &[9.0, 9.2, 8.8]),
        ]);
        assert_eq!(
            t.last_private_hop().unwrap().address(),
            Some(ip("192.168.1.1"))
        );
        assert_eq!(
            t.first_public_hop().unwrap().address(),
            Some(ip("20.0.0.1"))
        );
        assert_eq!(t.edge_address(), Some(ip("20.0.0.1")));
        assert!(t.has_last_mile_span());
    }

    #[test]
    fn cgn_path_uses_deepest_private_hop() {
        // Home router then CGN 100.64/10: the CGN hop is the last private.
        let t = tr(vec![
            hop(1, Some("192.168.1.1"), &[0.5]),
            hop(2, Some("100.64.0.1"), &[2.0]),
            hop(3, Some("20.0.0.1"), &[6.0]),
        ]);
        assert_eq!(
            t.last_private_hop().unwrap().address(),
            Some(ip("100.64.0.1"))
        );
    }

    #[test]
    fn unresponsive_hop_is_skipped() {
        let t = tr(vec![
            hop(1, Some("192.168.1.1"), &[0.5]),
            hop(2, None, &[]),
            hop(3, Some("20.0.0.1"), &[6.0]),
        ]);
        assert_eq!(
            t.last_private_hop().unwrap().address(),
            Some(ip("192.168.1.1"))
        );
        assert_eq!(
            t.first_public_hop().unwrap().address(),
            Some(ip("20.0.0.1"))
        );
    }

    #[test]
    fn all_private_path_has_no_span() {
        let t = tr(vec![
            hop(1, Some("192.168.1.1"), &[0.5]),
            hop(2, Some("10.0.0.1"), &[1.0]),
        ]);
        assert!(t.first_public_hop().is_none());
        assert!(t.last_private_hop().is_none());
        assert!(!t.has_last_mile_span());
    }

    #[test]
    fn public_first_hop_has_no_private_side() {
        // Datacenter-style path (an anchor would look like this).
        let t = tr(vec![
            hop(1, Some("20.0.0.1"), &[0.3]),
            hop(2, Some("20.0.1.1"), &[0.8]),
        ]);
        assert!(t.first_public_hop().is_some());
        assert!(t.last_private_hop().is_none());
        assert!(!t.has_last_mile_span());
    }

    #[test]
    fn private_hop_after_public_is_ignored() {
        // Some transit networks leak private addresses mid-path; the
        // estimator must only consider private hops BEFORE the edge.
        let t = tr(vec![
            hop(1, Some("192.168.1.1"), &[0.5]),
            hop(2, Some("20.0.0.1"), &[6.0]),
            hop(3, Some("10.255.0.1"), &[9.0]),
        ]);
        assert_eq!(
            t.last_private_hop().unwrap().address(),
            Some(ip("192.168.1.1"))
        );
        assert_eq!(
            t.first_public_hop().unwrap().address(),
            Some(ip("20.0.0.1"))
        );
    }

    #[test]
    fn hop_rtt_iteration_skips_timeouts() {
        let mut h = hop(1, Some("192.168.1.1"), &[0.5, 0.7]);
        h.replies.push(Reply::timeout());
        let rtts: Vec<f64> = h.rtts().collect();
        assert_eq!(rtts, vec![0.5, 0.7]);
        assert!(h.responded());
        let dead = hop(2, None, &[]);
        assert!(!dead.responded());
        assert!(!dead.is_private() && !dead.is_public());
    }

    #[test]
    fn last_mile_keeps_the_two_hops_around_the_edge() {
        let t = tr(vec![
            hop(1, Some("192.168.1.1"), &[0.5, 0.6]),
            hop(2, Some("100.64.0.1"), &[2.0, 2.5, 2.25]),
            hop(3, None, &[]),
            hop(4, Some("20.0.0.1"), &[6.0]),
            hop(5, Some("10.255.0.1"), &[9.0]),
        ]);
        let row = LastMile::of(&t);
        assert_eq!(row.edge, Some(ip("20.0.0.1")));
        assert_eq!(row.private_rtts(), &[2.0, 2.5, 2.25]);
        assert_eq!(row.public_rtts(), &[6.0]);
        // Without a private hop before the edge the row keeps no RTTs,
        // but still names the edge.
        let anchor = LastMile::of(&tr(vec![hop(1, Some("20.0.0.1"), &[0.3])]));
        assert_eq!(anchor.edge, Some(ip("20.0.0.1")));
        assert!(anchor.rtts.is_empty() && anchor.private == 0);
        let private_only = LastMile::of(&tr(vec![hop(1, Some("192.168.1.1"), &[0.5])]));
        assert_eq!((private_only.edge, private_only.rtts.len()), (None, 0));
    }

    #[test]
    fn empty_traceroute() {
        let t = tr(vec![]);
        assert!(!t.has_last_mile_span());
        assert!(t.edge_address().is_none());
    }
}
