//! The single borrowed pass behind [`super::decode_traceroute`].
//!
//! It walks the frame bytes once, parsing integers, addresses and RTTs
//! straight from byte slices into a [`TracerouteResult`], and accepts a
//! record only when it can prove serde's path would build the same
//! model. Everything else returns `None`, and the caller hands the
//! record to serde, whose answer (model or exact error text) stands.
//! So this pass never produces an error of its own: it is allowed to be
//! stricter than serde, never looser.
//!
//! What it declines: a string with an escape or a control byte, a known
//! key seen twice (serde keeps the first), a missing required field,
//! `null` outside an `Option` field, a value of the wrong JSON type, an
//! integer out of its field's range, a non-`traceroute` type, an
//! unparsable `dst_addr`/`src_addr`, nesting deeper than [`SKIP_DEPTH`]
//! inside an unknown field, and anything but whitespace after the
//! closing `}`.

use crate::probe::ProbeId;
use crate::traceroute::{Hop, Reply, TracerouteResult};
use lastmile_timebase::UnixTime;
use std::net::IpAddr;

/// Deepest nesting (counting the record's own object as 1) an unknown
/// field's value may reach before the pass declines the record. Well
/// under the parser's recursion limit, so a record this pass accepts
/// is never one serde rejects for depth.
const SKIP_DEPTH: u32 = 32;

/// Hops reserved up front: built-in traceroutes rarely exceed it.
const HOPS_RESERVED: usize = 16;

/// Replies per hop: Atlas sends three packets per TTL.
const REPLIES_RESERVED: usize = 3;

/// Decode `bytes` if this pass can prove the result equals serde's.
pub(super) fn decode(bytes: &[u8]) -> Option<TracerouteResult> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let tr = cursor.traceroute()?;
    cursor.ws();
    (cursor.pos == bytes.len()).then_some(tr)
}

/// A number token as serde's parser classifies it: an integer form that
/// fits `u64` (no sign) or `i64` (with `-`), else an `f64`.
#[derive(Clone, Copy)]
enum Num {
    U(u64),
    I(i64),
    F(f64),
}

impl Num {
    /// The value of an unsigned field of maximum `max` (serde's
    /// `u64::try_from` then range check); a float form is never one.
    fn unsigned(self, max: u64) -> Option<u64> {
        let v = match self {
            Num::U(v) => v,
            Num::I(v) => u64::try_from(v).ok()?,
            Num::F(_) => return None,
        };
        (v <= max).then_some(v)
    }

    /// The value of an `i64` field.
    fn signed(self) -> Option<i64> {
        match self {
            Num::U(v) => i64::try_from(v).ok(),
            Num::I(v) => Some(v),
            Num::F(_) => None,
        }
    }

    /// The value of an `f64` field: integer forms convert with `as`, as
    /// serde does, so `-0` reads as `+0.0`.
    fn float(self) -> f64 {
        match self {
            Num::U(v) => v as f64,
            Num::I(v) => v as f64,
            Num::F(v) => v,
        }
    }
}

/// Required top-level fields, one bit each.
const FW: u16 = 1 << 0;
const AF: u16 = 1 << 1;
const DST: u16 = 1 << 2;
const SRC: u16 = 1 << 3;
const FROM: u16 = 1 << 4;
const MSM: u16 = 1 << 5;
const PRB: u16 = 1 << 6;
const TS: u16 = 1 << 7;
const PROTO: u16 = 1 << 8;
const TYPE: u16 = 1 << 9;
const RESULT: u16 = 1 << 10;
const ALL_FIELDS: u16 = (1 << 11) - 1;

/// An address string, parsed as `str::parse` does.
fn parse_address(text: &[u8]) -> Option<IpAddr> {
    std::str::from_utf8(text).ok()?.parse().ok()
}

/// Sets `bit` in `seen`, or `None` when it was already set.
fn first_sight(seen: &mut u16, bit: u16) -> Option<()> {
    if *seen & bit != 0 {
        return None;
    }
    *seen |= bit;
    Some(())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Skip serde's whitespace set: space, tab, LF, CR.
    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    /// Consume `byte` after whitespace.
    fn punct(&mut self, byte: u8) -> Option<()> {
        (self.peek()? == byte).then(|| self.pos += 1)
    }

    /// Consume a `null` keyword if one is next.
    fn null(&mut self) -> bool {
        let is_null = self.peek() == Some(b'n') && self.bytes[self.pos..].starts_with(b"null");
        if is_null {
            self.pos += 4;
        }
        is_null
    }

    /// A string with no escape and no control byte, as raw bytes. Its
    /// contents must be UTF-8 (serde reads the whole record as `&str`);
    /// only a non-ASCII string pays for the full check.
    fn string(&mut self) -> Option<&'a [u8]> {
        self.punct(b'"')?;
        let rest = &self.bytes[self.pos..];
        let end = memscan::memchr2(b'"', b'\\', rest)?;
        let body = &rest[..end];
        if rest[end] != b'"' || body.iter().any(|&b| b < 0x20) {
            return None;
        }
        if !body.is_ascii() {
            std::str::from_utf8(body).ok()?;
        }
        self.pos += end + 1;
        Some(body)
    }

    /// A number token, scanned with serde's character class
    /// `-?[0-9.eE+-]*` and classified exactly as serde does.
    fn number(&mut self) -> Option<Num> {
        let b = self.peek()?;
        if b != b'-' && !b.is_ascii_digit() {
            return None;
        }
        let start = self.pos;
        self.pos += usize::from(b == b'-');
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // The token is ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if !is_float {
            let int = if b == b'-' {
                text.parse().ok().map(Num::I)
            } else {
                text.parse().ok().map(Num::U)
            };
            if int.is_some() {
                return int;
            }
        }
        text.parse().ok().map(Num::F)
    }

    /// Walk an object's members: `member` gets each key with the cursor
    /// at its value, and must consume that value.
    fn object(&mut self, mut member: impl FnMut(&mut Self, &'a [u8]) -> Option<()>) -> Option<()> {
        self.punct(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Some(());
        }
        loop {
            let key = self.string()?;
            self.punct(b':')?;
            member(self, key)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// Walk an array's elements: `element` must consume each one.
    fn array(&mut self, mut element: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.punct(b'[')?;
        if self.peek()? == b']' {
            self.pos += 1;
            return Some(());
        }
        loop {
            element(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// Validate and skip any JSON value at nesting `depth`.
    fn skip(&mut self, depth: u32) -> Option<()> {
        match self.peek()? {
            b'{' | b'[' if depth >= SKIP_DEPTH => None,
            b'{' => self.object(|c, _| c.skip(depth + 1)),
            b'[' => self.array(|c| c.skip(depth + 1)),
            b'"' => self.string().map(drop),
            b't' | b'f' | b'n' => {
                let rest = &self.bytes[self.pos..];
                let word: &[u8] = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|w| rest.starts_with(w))?;
                self.pos += word.len();
                Some(())
            }
            _ => self.number().map(drop),
        }
    }

    fn address(&mut self) -> Option<IpAddr> {
        parse_address(self.string()?)
    }

    fn traceroute(&mut self) -> Option<TracerouteResult> {
        let mut seen = 0u16;
        let (mut msm_id, mut prb_id, mut timestamp) = (0, 0, 0);
        let mut dst = None;
        let mut src = None;
        let mut hops = Vec::new();
        self.object(|c, key| {
            match key {
                b"fw" => {
                    first_sight(&mut seen, FW)?;
                    c.number()?.unsigned(u32::MAX.into())?;
                }
                b"af" => {
                    first_sight(&mut seen, AF)?;
                    c.number()?.unsigned(u8::MAX.into())?;
                }
                b"dst_addr" => {
                    first_sight(&mut seen, DST)?;
                    dst = Some(c.address()?);
                }
                b"src_addr" => {
                    first_sight(&mut seen, SRC)?;
                    src = Some(c.address()?);
                }
                b"from" => {
                    first_sight(&mut seen, FROM)?;
                    c.string()?;
                }
                b"msm_id" => {
                    first_sight(&mut seen, MSM)?;
                    msm_id = c.number()?.unsigned(u32::MAX.into())? as u32;
                }
                b"prb_id" => {
                    first_sight(&mut seen, PRB)?;
                    prb_id = c.number()?.unsigned(u32::MAX.into())? as u32;
                }
                b"timestamp" => {
                    first_sight(&mut seen, TS)?;
                    timestamp = c.number()?.signed()?;
                }
                b"proto" => {
                    first_sight(&mut seen, PROTO)?;
                    c.string()?;
                }
                b"type" => {
                    first_sight(&mut seen, TYPE)?;
                    if c.string()? != b"traceroute" {
                        return None;
                    }
                }
                b"result" => {
                    first_sight(&mut seen, RESULT)?;
                    hops.reserve(HOPS_RESERVED);
                    c.array(|c| {
                        hops.push(c.hop()?);
                        Some(())
                    })?;
                    // Exact capacity, as serde's `collect` leaves it:
                    // records in flight stay as small as before.
                    hops.shrink_to_fit();
                }
                _ => c.skip(1)?,
            }
            Some(())
        })?;
        (seen == ALL_FIELDS).then_some(())?;
        Some(TracerouteResult {
            probe: ProbeId(prb_id),
            msm_id,
            timestamp: UnixTime::from_secs(timestamp),
            dst: dst?,
            src: src?,
            hops,
        })
    }

    fn hop(&mut self) -> Option<Hop> {
        let mut hop = None;
        let mut replies = None;
        self.object(|c, key| {
            match key {
                b"hop" if hop.is_none() => hop = Some(c.number()?.unsigned(u8::MAX.into())? as u8),
                b"result" if replies.is_none() => {
                    let mut list = Vec::with_capacity(REPLIES_RESERVED);
                    // The replies of one hop almost always share one
                    // address: parse it once, reuse it while the bytes
                    // repeat.
                    let mut last: Option<(&[u8], Option<IpAddr>)> = None;
                    c.array(|c| {
                        list.push(c.reply(&mut last)?);
                        Some(())
                    })?;
                    replies = Some(list);
                }
                b"hop" | b"result" => return None,
                _ => c.skip(3)?,
            }
            Some(())
        })?;
        Some(Hop {
            hop: hop?,
            replies: replies?,
        })
    }

    fn reply(&mut self, last: &mut Option<(&'a [u8], Option<IpAddr>)>) -> Option<Reply> {
        let mut seen = 0u16;
        let mut from = None;
        let mut rtt = None;
        self.object(|c, key| {
            let bit = match key {
                b"from" => 1,
                b"rtt" => 2,
                b"x" => 4,
                b"size" => 8,
                b"ttl" => 16,
                _ => return c.skip(5),
            };
            first_sight(&mut seen, bit)?;
            if c.null() {
                return Some(());
            }
            match bit {
                // from
                1 => {
                    let text = c.string()?;
                    from = match *last {
                        Some((bytes, addr)) if bytes == text => addr,
                        _ => {
                            let addr = parse_address(text);
                            *last = Some((text, addr));
                            addr
                        }
                    };
                }
                2 => rtt = Some(c.number()?.float()),
                4 => drop(c.string()?),                            // x
                8 => drop(c.number()?.unsigned(u32::MAX.into())?), // size
                _ => drop(c.number()?.unsigned(u8::MAX.into())?),  // ttl
            }
            Some(())
        })?;
        Some(match (from, rtt) {
            (Some(a), Some(rtt)) => Reply::answered(a, rtt),
            _ => Reply::timeout(),
        })
    }
}
