//! The RIPE Atlas API JSON wire format.
//!
//! The paper's published toolchain ingests traceroute results as served by
//! the Atlas API: one JSON object per traceroute with `prb_id`, `msm_id`,
//! `timestamp`, and a `result` array of hops, each hop holding a `result`
//! array of reply objects — `{"from": "...", "rtt": 12.3, ...}` for an
//! answer or `{"x": "*"}` for a timeout.
//!
//! [`AtlasTraceroute`] mirrors that shape field-for-field (unknown fields
//! are ignored on input, standard fields are emitted on output), and
//! converts losslessly to and from the internal
//! [`TracerouteResult`] model. This keeps the reproduction's analysis
//! pipeline wire-compatible: point it at real Atlas JSON and it parses.
//!
//! Records decode to the model with [`decode_with_serde`]: serde
//! through [`AtlasTraceroute`], then [`AtlasTraceroute::to_model`].
//! What the analysis reads of a record is its [`LastMile`] row, the two
//! hops §2.1 uses, and [`decode_last_mile`] reads that row in one
//! borrowed pass over the bytes, without building the model. Serde is
//! its reference: a record the pass declines takes the projection of
//! serde's model, or serde's error, so rows and error texts are serde's
//! either way.
//!
//! Records are written with [`write_traceroute`]: one pass from the
//! model straight into the caller's buffer. Serde through
//! [`AtlasTraceroute::from_model`] is its reference encoder, kept as the
//! test oracle the written bytes must equal.

use crate::probe::ProbeId;
use crate::traceroute::{Hop, LastMile, Reply, TracerouteResult};
use lastmile_timebase::UnixTime;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::IpAddr;

mod fast;

/// One reply entry in the Atlas `result` array.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct AtlasReply {
    /// Responding address (absent for timeouts).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub from: Option<String>,
    /// Round-trip time in milliseconds (absent for timeouts).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rtt: Option<f64>,
    /// `"*"` marker on timeouts.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub x: Option<String>,
    /// Reply size in bytes (cosmetic; emitted for realism).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub size: Option<u32>,
    /// Reply TTL (cosmetic).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ttl: Option<u8>,
}

/// One hop entry in the Atlas `result` array.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct AtlasHop {
    /// 1-based hop (TTL).
    pub hop: u8,
    /// Replies for this hop.
    pub result: Vec<AtlasReply>,
}

/// A complete Atlas traceroute document.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct AtlasTraceroute {
    /// Probe firmware version (cosmetic).
    pub fw: u32,
    /// Address family: 4 or 6.
    pub af: u8,
    /// Destination address.
    pub dst_addr: String,
    /// The probe's source address (usually private).
    pub src_addr: String,
    /// The probe's public address as seen by Atlas infrastructure.
    pub from: String,
    /// Measurement id.
    pub msm_id: u32,
    /// Probe id.
    pub prb_id: u32,
    /// Unix timestamp of the run.
    pub timestamp: i64,
    /// Probe protocol, e.g. `ICMP` or `UDP`.
    pub proto: String,
    /// Always `"traceroute"`.
    #[serde(rename = "type")]
    pub kind: String,
    /// Hops.
    pub result: Vec<AtlasHop>,
}

/// Errors converting wire JSON into the internal model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConvertError {
    /// `dst_addr` or `src_addr` is not a valid IP address.
    BadAddress(String),
    /// The document is not a traceroute.
    NotATraceroute(String),
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::BadAddress(s) => write!(f, "invalid address in Atlas document: {s}"),
            ConvertError::NotATraceroute(k) => write!(f, "expected a traceroute document, got {k}"),
        }
    }
}

impl std::error::Error for ConvertError {}

impl AtlasTraceroute {
    /// Convert wire format to the internal model.
    ///
    /// Reply entries with unparsable `from` addresses are treated as
    /// timeouts (defensive: real Atlas data contains occasional garbage),
    /// but a bad `dst_addr`/`src_addr` fails the whole document.
    pub fn to_model(&self) -> Result<TracerouteResult, ConvertError> {
        if self.kind != "traceroute" {
            return Err(ConvertError::NotATraceroute(self.kind.clone()));
        }
        let dst: IpAddr = self
            .dst_addr
            .parse()
            .map_err(|_| ConvertError::BadAddress(self.dst_addr.clone()))?;
        let src: IpAddr = self
            .src_addr
            .parse()
            .map_err(|_| ConvertError::BadAddress(self.src_addr.clone()))?;
        let hops = self
            .result
            .iter()
            .map(|h| Hop {
                hop: h.hop,
                replies: h
                    .result
                    .iter()
                    .map(|r| {
                        let from = r.from.as_deref().and_then(|s| s.parse().ok());
                        match (from, r.rtt) {
                            (Some(a), Some(rtt)) => Reply::answered(a, rtt),
                            _ => Reply::timeout(),
                        }
                    })
                    .collect(),
            })
            .collect();
        Ok(TracerouteResult {
            probe: ProbeId(self.prb_id),
            msm_id: self.msm_id,
            timestamp: UnixTime::from_secs(self.timestamp),
            dst,
            src,
            hops,
        })
    }

    /// Build the wire format from the internal model. `public_addr` fills
    /// the Atlas `from` field (the probe's public address).
    ///
    /// With `serde_json::to_string` this is the reference encoder that
    /// [`write_traceroute`] is tested against byte for byte.
    pub fn from_model(tr: &TracerouteResult, public_addr: IpAddr) -> AtlasTraceroute {
        AtlasTraceroute {
            fw: 5080,
            af: if tr.dst.is_ipv4() { 4 } else { 6 },
            dst_addr: tr.dst.to_string(),
            src_addr: tr.src.to_string(),
            from: public_addr.to_string(),
            msm_id: tr.msm_id,
            prb_id: tr.probe.0,
            timestamp: tr.timestamp.as_secs(),
            proto: "ICMP".to_string(),
            kind: "traceroute".to_string(),
            result: tr
                .hops
                .iter()
                .map(|h| AtlasHop {
                    hop: h.hop,
                    result: h
                        .replies
                        .iter()
                        .map(|r| match (r.from, r.rtt_ms) {
                            (Some(a), Some(rtt)) => AtlasReply {
                                from: Some(a.to_string()),
                                rtt: Some(rtt),
                                x: None,
                                size: Some(28),
                                ttl: Some(64 - h.hop.min(63)),
                            },
                            _ => AtlasReply {
                                x: Some("*".to_string()),
                                ..Default::default()
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Which stage rejected a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// Not valid JSON of the Atlas traceroute shape (includes invalid
    /// UTF-8).
    Json,
    /// Valid JSON that does not convert to the internal model (bad
    /// address, non-traceroute type).
    Model,
}

/// Why a decoder rejected a record; `detail` is serde's (or
/// [`ConvertError`]'s) exact text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// The stage that rejected the record.
    pub kind: DecodeErrorKind,
    /// The rejecting stage's message.
    pub detail: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// Decode one framed Atlas traceroute to its [`LastMile`] row: exactly
/// `decode_with_serde(bytes).map(|t| LastMile::of(&t))`, without
/// building the model.
///
/// One borrowed pass builds no hop: it parses reply addresses only up
/// to the first public hop and RTTs only of the two hops it keeps (see
/// the `fast` module). It accepts only records it can prove serde
/// decodes to a model with this projection; the rest go to
/// [`decode_with_serde`], and the row is the projection of serde's
/// model, so error kinds and details are serde's too.
pub fn decode_last_mile(bytes: &[u8]) -> Result<LastMile, DecodeError> {
    decode_last_mile_tallied(bytes, &mut 0)
}

/// [`decode_last_mile`], adding one to `fallbacks` for each record its
/// pass declined and serde decided.
pub fn decode_last_mile_tallied(
    bytes: &[u8],
    fallbacks: &mut u64,
) -> Result<LastMile, DecodeError> {
    match fast::decode_last_mile(bytes) {
        Some(row) => Ok(row),
        None => {
            *fallbacks += 1;
            decode_with_serde(bytes).map(|tr| LastMile::of(&tr))
        }
    }
}

/// The last-mile pass alone: `Some` exactly when it accepts the record.
/// For tests that it takes the records writers emit itself, without
/// handing them to serde.
pub fn decode_last_mile_fast(bytes: &[u8]) -> Option<LastMile> {
    fast::decode_last_mile(bytes)
}

/// Decode one framed Atlas traceroute into the internal model: UTF-8
/// check, `serde_json` into [`AtlasTraceroute`], then
/// [`AtlasTraceroute::to_model`]. The one model decoder, and the
/// reference [`decode_last_mile`] is held to.
pub fn decode_with_serde(bytes: &[u8]) -> Result<TracerouteResult, DecodeError> {
    let json = |detail: String| DecodeError {
        kind: DecodeErrorKind::Json,
        detail,
    };
    let text = std::str::from_utf8(bytes).map_err(|e| json(e.to_string()))?;
    let doc: AtlasTraceroute = serde_json::from_str(text).map_err(|e| json(e.to_string()))?;
    doc.to_model().map_err(|e| DecodeError {
        kind: DecodeErrorKind::Model,
        detail: e.to_string(),
    })
}

/// Append one internal traceroute to `out` as a compact Atlas JSON
/// record; `public_addr` fills the Atlas `from` field.
///
/// One pass writes numbers and addresses straight into `out`: the bytes
/// are exactly serde's for [`AtlasTraceroute::from_model`] (field order,
/// `{"x":"*"}` timeouts, RTTs as `{:?}` when finite and `null`
/// otherwise), with no intermediate document. Integers, dotted quads and
/// RTTs are written from their bits, not through `core::fmt` (IPv6
/// addresses and negative timestamps keep it). Addresses never need JSON
/// escaping, so none is done. A reply's `{"from":…,"rtt":` head is
/// written once and copied from `out` while the following replies
/// repeat the address, as they usually do within a hop.
pub fn write_traceroute(tr: &TracerouteResult, public_addr: IpAddr, out: &mut String) {
    out.push_str("{\"fw\":5080,\"af\":");
    out.push(if tr.dst.is_ipv4() { '4' } else { '6' });
    out.push_str(",\"dst_addr\":\"");
    push_ip(out, tr.dst);
    out.push_str("\",\"src_addr\":\"");
    push_ip(out, tr.src);
    out.push_str("\",\"from\":\"");
    push_ip(out, public_addr);
    out.push_str("\",\"msm_id\":");
    push_u64(out, u64::from(tr.msm_id));
    out.push_str(",\"prb_id\":");
    push_u64(out, u64::from(tr.probe.0));
    out.push_str(",\"timestamp\":");
    push_i64(out, tr.timestamp.as_secs());
    out.push_str(",\"proto\":\"ICMP\",\"type\":\"traceroute\",\"result\":[");
    // Where `out` holds `{"from":"<address>","rtt":` for the last
    // answered reply's address.
    let mut head = 0..0;
    let mut head_addr = None;
    for (i, hop) in tr.hops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ttl = 64 - hop.hop.min(63);
        out.push_str("{\"hop\":");
        push_u8(out, hop.hop);
        out.push_str(",\"result\":[");
        for (j, reply) in hop.replies.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let (Some(from), Some(rtt)) = (reply.from, reply.rtt_ms) else {
                out.push_str("{\"x\":\"*\"}");
                continue;
            };
            if head_addr == Some(from) {
                out.extend_from_within(head.clone());
            } else {
                let start = out.len();
                out.push_str("{\"from\":\"");
                push_ip(out, from);
                out.push_str("\",\"rtt\":");
                head = start..out.len();
                head_addr = Some(from);
            }
            if rtt.is_finite() {
                push_f64(out, rtt);
            } else {
                out.push_str("null");
            }
            out.push_str(",\"size\":28,\"ttl\":");
            push_u8(out, ttl);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Append `n` in decimal, as `{}` writes it.
fn push_u8(out: &mut String, n: u8) {
    if n >= 100 {
        out.push(char::from(b'0' + n / 100));
    }
    if n >= 10 {
        out.push(char::from(b'0' + n / 10 % 10));
    }
    out.push(char::from(b'0' + n % 10));
}

/// Append `n` in decimal, as `{}` writes it.
fn push_u64(out: &mut String, n: u64) {
    if n == 0 {
        out.push('0');
        return;
    }
    let mut digits = [0u8; 20];
    let len = int_digits(&mut digits, n);
    push_ascii(out, &digits[..len]);
}

/// Append `n` as `{}` writes it: a non-negative one by [`push_u64`].
fn push_i64(out: &mut String, n: i64) {
    match u64::try_from(n) {
        Ok(n) => push_u64(out, n),
        Err(_) => {
            use std::fmt::Write;
            // `fmt::Write` into a `String` cannot fail.
            let _ = write!(out, "{n}");
        }
    }
}

/// Append `addr` as `{}` writes it: an IPv4 address as a dotted quad of
/// [`push_u8`] octets.
fn push_ip(out: &mut String, addr: IpAddr) {
    match addr {
        IpAddr::V4(v4) => {
            let [a, b, c, d] = v4.octets();
            push_u8(out, a);
            out.push('.');
            push_u8(out, b);
            out.push('.');
            push_u8(out, c);
            out.push('.');
            push_u8(out, d);
        }
        IpAddr::V6(_) => {
            use std::fmt::Write;
            let _ = write!(out, "{addr}");
        }
    }
}

/// Append bytes that are ASCII by construction.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("digits and a point are ASCII"));
}

/// Append `v` exactly as `{v:?}` writes it: [`shortest_digits`] when it
/// answers, `{:?}` otherwise.
fn push_f64(out: &mut String, v: f64) {
    let mut buf = [0u8; SHORTEST_MAX];
    match shortest_digits(v, &mut buf) {
        Some(len) => push_ascii(out, &buf[..len]),
        None => {
            use std::fmt::Write;
            let _ = write!(out, "{v:?}");
        }
    }
}

/// Room for any [`shortest_digits`] answer: 16 integer digits, the
/// point, and at most 19 fraction digits (two zeros after the point
/// below 0.01, then 17 significant digits).
const SHORTEST_MAX: usize = 40;

/// `10^q` for every cut [`shortest_digits`] makes.
const POW10: [u64; 20] = {
    let mut pow = [1u64; 20];
    let mut q = 1;
    while q < pow.len() {
        pow[q] = pow[q - 1] * 10;
        q += 1;
    }
    pow
};

/// `v` in [2⁻⁷, 2⁵³) written into `buf` exactly as `{v:?}` writes it;
/// its length. `None` for anything else (negative, `-0.0`, zero,
/// subnormal, non-finite, out of range) and for a rounding carry past
/// a 9, which std resolves by lengthening the digits.
///
/// `{:?}` writes the shortest digits that read back as `v`: std's
/// `flt2dec::strategy::dragon::format_shortest`, the free-format digit
/// loop of Steele & White. Its rules:
///
/// - the margins are half an ulp each way, except that below an exact
///   power of two (`m = 2⁵²`) the lower one is a quarter ulp, the next
///   double down being half as far away;
/// - the interval is inclusive (its ends read back as `v` too) when `m`
///   is even;
/// - digits stop at the first position where the remainder `r` below
///   it is within the lower margin (`down`) or `r` plus the upper margin
///   reaches the next digit (`up`);
/// - the last digit then rounds up when `up && (!down || 2r ≥ 1)`, in
///   units of the last digit, so a tie rounds up.
///
/// In this range they need no bignum. `v = m·2⁻ˢ` with `s` in 0..=59,
/// so `v` is an integer part below 2⁵³ plus a binary fraction of at most
/// 59 bits, and the margins are at least 2⁻⁶¹: as 64-bit fractions of
/// one, everything is exact, and cutting the fraction after `q` digits
/// is one widening multiply by `10^q`, the digits its high word and the
/// remainder its low word. A remainder within a margin stays within it
/// at every longer cut (×10 scales both), and 17 significant digits
/// always tell doubles apart, so the digits stop at the 17-digit cut or
/// before: cut there, then drop trailing digits while the shorter cut
/// still stops.
///
/// In this range the inclusive ends and the narrower lower margin never
/// move a digit, so no test can pin them: a remainder equals a margin
/// only 18 or more significant digits in, past where the digits stop,
/// and every power of two in range has an exact decimal expansion of at
/// most 16 digits. They are kept so the rules stay std's one for one.
///
/// Like `{:?}`, the answer has at least one fraction digit: `3.0`,
/// `4503599627370500.0`.
fn shortest_digits(v: f64, buf: &mut [u8; SHORTEST_MAX]) -> Option<usize> {
    const ONE: u128 = 1 << 64;
    if !(1.0 / 128.0..9_007_199_254_740_992.0).contains(&v) {
        return None;
    }
    let bits = v.to_bits();
    let m = bits & ((1 << 52) - 1) | 1 << 52;
    // The sign bit is clear and the biased exponent is 1016..=1075.
    let s = 1075 - (bits >> 52) as u32;
    let int = m >> s;
    // Fractions of one, in units of 2⁻⁶⁴.
    let frac = if s == 0 { 0 } else { m << (64 - s) };
    let plus = 1u64 << (63 - s);
    let minus = if m == 1 << 52 { plus / 2 } else { plus };
    let inclusive = m.is_multiple_of(2);
    let within = |a: u128, b: u128| a < b || inclusive && a == b;
    let rounds_up = |down: bool, up: bool, rem: u128, unit: u128| up && (!down || 2 * rem >= unit);

    let mut len = int_digits(buf, int);
    let down = within(u128::from(frac), u128::from(minus));
    let up = within(ONE, u128::from(frac) + u128::from(plus));
    if down || up {
        // The digits stop in the integer part. Below 2⁵³ a margin is at
        // most half a unit, so the remainder below position p is within
        // one only where the integer digits below p are all 0 (`down`)
        // or all 9 (`up`); the digits stop at the highest such p.
        if int == 0 {
            // Unreachable: 2⁻⁷ is far above its margins, and 1 - 2⁻⁵³
            // plus its upper margin is below one.
            return None;
        }
        let zeros = trailing(&buf[..len], b'0');
        let nines = trailing(&buf[..len], b'9');
        let p = (if down { zeros } else { 0 })
            .max(if up { nines } else { 0 })
            .min(len - 1);
        let last = len - 1 - p;
        if rounds_up(down && p <= zeros, up && p <= nines, u128::from(frac), ONE) {
            if buf[last] == b'9' {
                return None;
            }
            buf[last] += 1;
        }
        buf[last + 1..len].fill(b'0');
        buf[len..len + 2].copy_from_slice(b".0");
        return Some(len + 2);
    }

    // The 17-digit cut: `q` fraction digits, counting the zeros after
    // the point below 0.1.
    let q = if int > 0 {
        17 - len
    } else {
        17 + usize::from(v < 0.1) + usize::from(v < 0.01)
    };
    let scale = u128::from(POW10[q]);
    let cut = u128::from(frac) * scale;
    let (minus, plus) = (u128::from(minus) * scale, u128::from(plus) * scale);
    let stops = |rem: u128, unit: u128| within(rem, minus) || within(unit, rem + plus);
    // The kept digits; what is left below them and one unit of the last
    // of them, both in units of 2⁻⁶⁴ of the q-th digit (below 2¹²⁵).
    let (mut digits, mut rem, mut unit, mut kept) = ((cut >> 64) as u64, cut % ONE, ONE, q);
    if !stops(rem, unit) {
        // Unreachable, by the 17-digit bound.
        return None;
    }
    while kept > 1 {
        let shorter = rem + u128::from(digits % 10) * unit;
        if !stops(shorter, unit * 10) {
            break;
        }
        (digits, rem, unit, kept) = (digits / 10, shorter, unit * 10, kept - 1);
    }
    if rounds_up(within(rem, minus), within(unit, rem + plus), rem, unit) {
        if digits % 10 == 9 {
            return None;
        }
        digits += 1;
    }
    if int == 0 {
        buf[0] = b'0';
        len = 1;
    }
    buf[len] = b'.';
    let end = len + 1 + kept;
    for i in (len + 1..end).rev() {
        buf[i] = b'0' + (digits % 10) as u8;
        digits /= 10;
    }
    Some(end)
}

/// Write `n`'s decimal digits at the start of `buf` (none for zero);
/// how many.
fn int_digits(buf: &mut [u8], mut n: u64) -> usize {
    let mut len = 0;
    while n > 0 {
        buf[len] = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
    }
    buf[..len].reverse();
    len
}

/// How many of `digits`' last bytes are `d`.
fn trailing(digits: &[u8], d: u8) -> usize {
    digits.iter().rev().take_while(|&&b| b == d).count()
}

/// Serialise one internal traceroute to Atlas JSON: [`write_traceroute`]
/// into a fresh string.
pub fn to_atlas_json(tr: &TracerouteResult, public_addr: IpAddr) -> String {
    let mut out = String::new();
    write_traceroute(tr, public_addr, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real-shaped Atlas document (trimmed).
    const SAMPLE: &str = r#"{
        "fw": 4790, "af": 4,
        "dst_addr": "193.0.14.129",
        "src_addr": "192.168.1.10",
        "from": "20.0.0.55",
        "msm_id": 5001, "prb_id": 6042,
        "timestamp": 1567296000,
        "proto": "ICMP", "type": "traceroute",
        "result": [
            {"hop": 1, "result": [
                {"from": "192.168.1.1", "rtt": 0.5, "size": 28, "ttl": 64},
                {"from": "192.168.1.1", "rtt": 0.62, "size": 28, "ttl": 64},
                {"from": "192.168.1.1", "rtt": 0.48, "size": 28, "ttl": 64}
            ]},
            {"hop": 2, "result": [
                {"from": "20.0.0.1", "rtt": 5.1, "size": 28, "ttl": 63},
                {"x": "*"},
                {"from": "20.0.0.1", "rtt": 4.9, "size": 28, "ttl": 63}
            ]}
        ]
    }"#;

    fn decode(json: &str) -> Result<TracerouteResult, DecodeError> {
        decode_with_serde(json.as_bytes())
    }

    #[test]
    fn parses_atlas_shaped_json() {
        let tr = decode(SAMPLE).unwrap();
        assert_eq!(tr.probe, ProbeId(6042));
        assert_eq!(tr.msm_id, 5001);
        assert_eq!(tr.timestamp.as_secs(), 1_567_296_000);
        assert_eq!(tr.hops.len(), 2);
        assert_eq!(tr.hops[0].replies.len(), 3);
        assert!(tr.hops[1].replies[1].from.is_none(), "timeout preserved");
        assert_eq!(tr.edge_address().unwrap().to_string(), "20.0.0.1");
        assert_eq!(decode_last_mile(SAMPLE.as_bytes()), Ok(LastMile::of(&tr)));
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let json = SAMPLE.replacen(
            "\"fw\": 4790,",
            "\"fw\": 4790, \"lts\": 22, \"group_id\": 5001,",
            1,
        );
        assert!(decode(&json).is_ok());
    }

    #[test]
    fn round_trip_through_wire_format() {
        let tr = decode(SAMPLE).unwrap();
        let json = to_atlas_json(&tr, "20.0.0.55".parse().unwrap());
        let back = decode(&json).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    fn rejects_non_traceroute_type() {
        let json = SAMPLE.replace("\"type\": \"traceroute\"", "\"type\": \"ping\"");
        let doc: AtlasTraceroute = serde_json::from_str(&json).unwrap();
        assert_eq!(
            doc.to_model().unwrap_err(),
            ConvertError::NotATraceroute("ping".into())
        );
    }

    #[test]
    fn rejects_bad_dst_addr() {
        let json = SAMPLE.replace("193.0.14.129", "not-an-ip");
        let doc: AtlasTraceroute = serde_json::from_str(&json).unwrap();
        assert!(matches!(
            doc.to_model().unwrap_err(),
            ConvertError::BadAddress(_)
        ));
    }

    #[test]
    fn garbage_reply_address_degrades_to_timeout() {
        let json = SAMPLE.replace(
            "\"from\": \"20.0.0.1\", \"rtt\": 5.1",
            "\"from\": \"bogus\", \"rtt\": 5.1",
        );
        let tr = decode(&json).unwrap();
        assert!(!tr.hops[1].replies[0].is_answered());
        // The hop still has one good reply.
        assert_eq!(tr.hops[1].rtts().count(), 1);
    }

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The range [`shortest_digits`] answers for.
    const LOW: f64 = 1.0 / 128.0;
    const HIGH: f64 = 9_007_199_254_740_992.0;

    /// `v` moved `ulps` doubles up (down when negative).
    fn nudge(v: f64, ulps: i64) -> f64 {
        f64::from_bits(v.to_bits().wrapping_add_signed(ulps))
    }

    /// How many value classes [`value`] draws from.
    const CLASSES: u32 = 7;

    /// One value of class `class` (0..CLASSES) for the RTT writer's
    /// tests.
    fn value(rng: &mut SmallRng, class: u32) -> f64 {
        match class {
            // Uniform bit patterns over the range.
            0 => f64::from_bits(rng.gen_range(LOW.to_bits()..HIGH.to_bits())),
            // RTT-like values.
            1 => rng.gen_range(0.05..1000.0),
            // Powers of two and their neighbours within 3 ulps.
            2 => nudge(2f64.powi(rng.gen_range(-8..=53)), rng.gen_range(-3..=3)),
            // Integers, small and up to 2⁵³.
            3 => {
                if rng.gen_bool(0.5) {
                    f64::from(rng.gen_range(1u32..100_000))
                } else {
                    rng.gen_range(1u64..1 << 53) as f64
                }
            }
            // Short decimals read from text: `13.7`, `0.05`, `2e-2`.
            4 => {
                let digits = rng.gen_range(1u64..100_000);
                let text = if rng.gen_bool(0.5) {
                    format!("{digits}e-{}", rng.gen_range(0..=7))
                } else {
                    format!("{}.{digits}", rng.gen_range(0u32..1000))
                };
                text.parse().unwrap()
            }
            // Powers of ten and their neighbours within 3 ulps.
            5 => nudge(
                format!("1e{}", rng.gen_range(-3..=16)).parse().unwrap(),
                rng.gen_range(-3..=3),
            ),
            // Both ends of the range, within 40 ulps either side.
            _ => nudge(
                if rng.gen_bool(0.5) { LOW } else { HIGH },
                rng.gen_range(-40..=40),
            ),
        }
    }

    /// `push_f64` appends exactly what `{:?}` writes, and in range it is
    /// [`shortest_digits`] that answers.
    fn assert_writes_as_debug(v: f64, case: &dyn fmt::Display) {
        let mut got = String::from("kept,");
        push_f64(&mut got, v);
        assert_eq!(
            got,
            format!("kept,{v:?}"),
            "{case}: {v:e} ({:#x})",
            v.to_bits()
        );
        let in_range = (LOW..HIGH).contains(&v);
        assert_eq!(
            shortest_digits(v, &mut [0; SHORTEST_MAX]).is_some(),
            in_range,
            "{case}: {v:?} in range: {in_range}"
        );
    }

    /// `count` values of every class, from `seed`.
    fn sweep(seed: u64, count: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for class in 0..CLASSES {
            for i in 0..count {
                let v = value(&mut rng, class);
                assert_writes_as_debug(v, &format_args!("seed {seed}, class {class}, draw {i}"));
            }
        }
    }

    #[test]
    fn rtts_are_written_as_debug_writes_them() {
        sweep(0x5eed, 20_000);
    }

    /// Values on which the rules `shortest_digits` copies from std
    /// decide the digits: ties, powers of two, and the range's edges.
    #[test]
    fn rtt_edge_cases_are_written_as_debug_writes_them() {
        let mut cases = vec![
            LOW,
            nudge(LOW, -1),
            nudge(HIGH, -1),
            HIGH,
            0.0,
            -0.0,
            -1.5,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.5,
            0.1,
            0.3,
            13.7,
            999.9999999999999,
            4_503_599_627_370_500.0,
            // Halfway between two 17-digit neighbours: the tie rounds
            // up, to …624.3 and …624.8.
            2f64.powi(50) + 0.25,
            2f64.powi(50) + 0.75,
        ];
        for k in -8..=53 {
            for ulps in -3..=3 {
                cases.push(nudge(2f64.powi(k), ulps));
            }
        }
        for v in cases {
            assert_writes_as_debug(v, &"edge case");
        }
    }

    /// Every class reaches the range, and the short decimals reach
    /// values that print in fewer than 17 digits.
    #[test]
    fn value_classes_reach_the_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for class in 0..CLASSES {
            let hits = (0..1000)
                .filter(|_| (LOW..HIGH).contains(&value(&mut rng, class)))
                .count();
            assert!(hits >= 400, "class {class}: {hits} of 1000 in range");
        }
        let short = (0..1000)
            .filter(|_| format!("{:?}", value(&mut rng, 4)).len() < 10)
            .count();
        assert!(short >= 500, "{short} of 1000 short");
    }

    /// 10⁸ values through both writers: `cargo test --release -p
    /// lastmile-atlas -- --ignored` (about half a minute).
    #[test]
    #[ignore]
    fn rtts_are_written_as_debug_writes_them_at_scale() {
        let per_class = 100_000_000 / u64::from(CLASSES) + 1;
        std::thread::scope(|scope| {
            for seed in [1, 2] {
                scope.spawn(move || sweep(seed, per_class / 2 + 1));
            }
        });
    }

    #[test]
    fn integers_and_dotted_quads_are_written_as_display_writes_them() {
        let mut edges: Vec<u64> = vec![0, 1, 9, 10, 99, 100, 255, 256, 999, 1000];
        for k in 1..20 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1]);
        }
        edges.extend([u64::from(u32::MAX), u64::MAX - 1, u64::MAX]);
        for n in edges {
            let mut got = String::from(",");
            push_u64(&mut got, n);
            assert_eq!(got, format!(",{n}"));
        }
        for n in [0, 1, -1, 9, -10, 1_567_296_000, i64::MIN, i64::MAX] {
            let mut got = String::from(",");
            push_i64(&mut got, n);
            assert_eq!(got, format!(",{n}"));
        }
        for n in 0..=u8::MAX {
            let mut got = String::from(",");
            push_u8(&mut got, n);
            assert_eq!(got, format!(",{n}"));
        }
        let octets = [0u8, 1, 9, 10, 99, 100, 199, 200, 255];
        for a in octets {
            for b in octets {
                let addr = IpAddr::from([a, b, octets[(a % 9) as usize], b / 2]);
                let mut got = String::from(",");
                push_ip(&mut got, addr);
                assert_eq!(got, format!(",{addr}"));
            }
        }
        for addr in ["::", "::1", "2001:db8::1", "::ffff:192.0.2.7", "fe80::1:2"] {
            let addr: IpAddr = addr.parse().unwrap();
            let mut got = String::new();
            push_ip(&mut got, addr);
            assert_eq!(got, addr.to_string());
        }
    }

    #[test]
    fn timeout_serializes_as_star() {
        let tr = decode(SAMPLE).unwrap();
        let json = to_atlas_json(&tr, "20.0.0.55".parse().unwrap());
        assert!(json.contains(r#"{"x":"*"}"#), "{json}");
    }
}
