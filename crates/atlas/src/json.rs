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
//! Records are read with [`decode_traceroute`]: one borrowed pass over
//! the record bytes builds the model directly, and serde through
//! [`AtlasTraceroute`] stays the reference. It decides every record the
//! pass declines, so models and error texts are serde's either way.
//! [`decode_last_mile`] reads only a record's [`LastMile`] row, the two
//! hops the analysis uses, by the same rule: what its pass declines
//! takes the projection of serde's model, and serde's error.
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

/// Which stage rejected a record in [`decode_traceroute`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// Not valid JSON of the Atlas traceroute shape (includes invalid
    /// UTF-8).
    Json,
    /// Valid JSON that does not convert to the internal model (bad
    /// address, non-traceroute type).
    Model,
}

/// Why [`decode_traceroute`] rejected a record; `detail` is serde's (or
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

/// Decode one framed Atlas traceroute into the internal model.
///
/// One borrowed pass over the bytes decodes every record it can prove
/// serde would decode to the same model; it declines the rest (escapes,
/// duplicate keys, malformed or unusual input: see the `fast` module),
/// and those go through [`decode_with_serde`], whose answer stands. So
/// every model, error kind and error detail is serde's by construction.
pub fn decode_traceroute(bytes: &[u8]) -> Result<TracerouteResult, DecodeError> {
    decode_traceroute_tallied(bytes, &mut 0)
}

/// [`decode_traceroute`], adding one to `fallbacks` for each record the
/// fast pass declined and serde decided.
pub fn decode_traceroute_tallied(
    bytes: &[u8],
    fallbacks: &mut u64,
) -> Result<TracerouteResult, DecodeError> {
    match fast::decode(bytes) {
        Some(tr) => Ok(tr),
        None => {
            *fallbacks += 1;
            decode_with_serde(bytes)
        }
    }
}

/// The fast pass alone: `Some` exactly when it accepts the record. For
/// tests that the pass covers the canonical record shape.
pub fn decode_fast(bytes: &[u8]) -> Option<TracerouteResult> {
    fast::decode(bytes)
}

/// Decode one framed Atlas traceroute to its [`LastMile`] row: exactly
/// `decode_traceroute(bytes).map(|t| LastMile::of(&t))`, without
/// building the model.
///
/// One borrowed pass accepts exactly the records the full fast pass
/// accepts, with the same checks, but builds no hop: it parses reply
/// addresses only up to the first public hop and RTTs only of the two
/// hops it keeps (see the `fast` module). The records it declines go to
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
/// For tests that it accepts what the full fast pass accepts.
pub fn decode_last_mile_fast(bytes: &[u8]) -> Option<LastMile> {
    fast::decode_last_mile(bytes)
}

/// The reference decoder: UTF-8 check, `serde_json` into
/// [`AtlasTraceroute`], then [`AtlasTraceroute::to_model`].
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

/// Parse one Atlas JSON document into the internal model.
pub fn parse_traceroute(json: &str) -> Result<TracerouteResult, Box<dyn std::error::Error>> {
    Ok(decode_traceroute(json.as_bytes())?)
}

/// Parse a JSON array of Atlas documents (the API's list form).
///
/// The array is framed element-by-element with [`crate::framing`] rather
/// than deserialised as one `Vec` — same single-pass splitter the
/// streaming ingest uses — so errors carry the failing element's byte
/// offset. The first bad element (unparsable JSON, non-traceroute
/// document, or unframeable bytes) fails the whole call, matching the
/// strictness of whole-buffer deserialisation.
pub fn parse_traceroutes(json: &str) -> Result<Vec<TracerouteResult>, Box<dyn std::error::Error>> {
    let mut out: Vec<TracerouteResult> = Vec::new();
    let mut first_err: Option<String> = None;
    let mut emit = |frame: crate::framing::Frame<'_>| {
        if first_err.is_some() {
            return;
        }
        match frame {
            crate::framing::Frame::Doc { offset, bytes } => match decode_traceroute(bytes) {
                Ok(tr) => out.push(tr),
                Err(e) => first_err = Some(format!("element at byte {offset}: {e}")),
            },
            crate::framing::Frame::Junk { offset, reason, .. } => {
                first_err = Some(format!("at byte {offset}: {reason}"))
            }
        }
    };
    let mut splitter = crate::framing::DocSplitter::new();
    splitter.feed(json.as_bytes(), &mut emit);
    let kind = splitter.kind();
    splitter.finish(&mut emit);
    if kind != Some(crate::framing::FrameKind::Array) {
        return Err("expected a top-level JSON array of Atlas documents".into());
    }
    if let Some(e) = first_err {
        return Err(e.into());
    }
    Ok(out)
}

/// Append one internal traceroute to `out` as a compact Atlas JSON
/// record; `public_addr` fills the Atlas `from` field.
///
/// One pass writes numbers and addresses straight into `out`: the bytes
/// are exactly serde's for [`AtlasTraceroute::from_model`] (field order,
/// `{"x":"*"}` timeouts, RTTs as `{:?}` when finite and `null`
/// otherwise), with no intermediate document. Addresses never need JSON
/// escaping, so none is done. A reply's address is formatted once and
/// reused while the following replies repeat it, as they usually do
/// within a hop.
pub fn write_traceroute(tr: &TracerouteResult, public_addr: IpAddr, out: &mut String) {
    use std::fmt::Write;
    // `fmt::Write` into a `String` cannot fail.
    let _ = write!(
        out,
        "{{\"fw\":5080,\"af\":{},\"dst_addr\":\"{}\",\"src_addr\":\"{}\",\"from\":\"{public_addr}\",\
         \"msm_id\":{},\"prb_id\":{},\"timestamp\":{},\"proto\":\"ICMP\",\"type\":\"traceroute\",\"result\":[",
        if tr.dst.is_ipv4() { 4 } else { 6 },
        tr.dst,
        tr.src,
        tr.msm_id,
        tr.probe.0,
        tr.timestamp.as_secs(),
    );
    // `{"from":"<address>","rtt":` for the last answered reply's address.
    let mut head = String::new();
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
            if head_addr != Some(from) {
                head.clear();
                let _ = write!(head, "{{\"from\":\"{from}\",\"rtt\":");
                head_addr = Some(from);
            }
            out.push_str(&head);
            if rtt.is_finite() {
                let _ = write!(out, "{rtt:?}");
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

    #[test]
    fn parses_atlas_shaped_json() {
        let tr = parse_traceroute(SAMPLE).unwrap();
        assert_eq!(tr.probe, ProbeId(6042));
        assert_eq!(tr.msm_id, 5001);
        assert_eq!(tr.timestamp.as_secs(), 1_567_296_000);
        assert_eq!(tr.hops.len(), 2);
        assert_eq!(tr.hops[0].replies.len(), 3);
        assert!(tr.hops[1].replies[1].from.is_none(), "timeout preserved");
        assert_eq!(tr.edge_address().unwrap().to_string(), "20.0.0.1");
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let json = SAMPLE.replacen(
            "\"fw\": 4790,",
            "\"fw\": 4790, \"lts\": 22, \"group_id\": 5001,",
            1,
        );
        assert!(parse_traceroute(&json).is_ok());
    }

    #[test]
    fn round_trip_through_wire_format() {
        let tr = parse_traceroute(SAMPLE).unwrap();
        let json = to_atlas_json(&tr, "20.0.0.55".parse().unwrap());
        let back = parse_traceroute(&json).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    fn array_form_parses() {
        let json = format!("[{SAMPLE},{SAMPLE}]");
        let list = parse_traceroutes(&json).unwrap();
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn empty_array_parses_and_non_array_is_rejected() {
        assert!(parse_traceroutes("[]").unwrap().is_empty());
        assert!(parse_traceroutes(" [ ] ").unwrap().is_empty());
        assert!(
            parse_traceroutes(SAMPLE).is_err(),
            "bare object is not a list"
        );
        assert!(parse_traceroutes("").is_err());
    }

    #[test]
    fn array_errors_carry_the_element_offset() {
        let err = parse_traceroutes("[ {\"bogus\":1} ]")
            .unwrap_err()
            .to_string();
        assert!(err.contains("at byte 2"), "{err}");
        let truncated = format!("[{SAMPLE},{}", &SAMPLE[..40]);
        let err = parse_traceroutes(&truncated).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
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
        let tr = parse_traceroute(&json).unwrap();
        assert!(!tr.hops[1].replies[0].is_answered());
        // The hop still has one good reply.
        assert_eq!(tr.hops[1].rtts().count(), 1);
    }

    #[test]
    fn timeout_serializes_as_star() {
        let tr = parse_traceroute(SAMPLE).unwrap();
        let json = to_atlas_json(&tr, "20.0.0.55".parse().unwrap());
        assert!(json.contains(r#"{"x":"*"}"#), "{json}");
    }
}
