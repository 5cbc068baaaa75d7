//! The borrowed passes behind [`super::decode_traceroute`] and
//! [`super::decode_last_mile`].
//!
//! Both walk the frame bytes once, parsing integers, addresses and RTTs
//! straight from byte slices, and accept a record only when they can
//! prove serde's path would build the same model (or, for the last-mile
//! pass, the same projection of it). Everything else returns `None`, and
//! the caller hands the record to serde, whose answer (model or exact
//! error text) stands. So these passes never produce an error of their
//! own: they are allowed to be stricter than serde, never looser.
//!
//! What they decline: a string with an escape or a control byte, a
//! known key seen twice (serde keeps the first), a missing required
//! field, `null` outside an `Option` field, a value of the wrong JSON
//! type, an integer out of its field's range, a number token no `f64`
//! parse accepts, a non-`traceroute` type, an unparsable
//! `dst_addr`/`src_addr`, nesting deeper than [`SKIP_DEPTH`] inside an
//! unknown field, and anything but whitespace after the closing `}`.
//! The two passes share every one of those checks, so each accepts
//! exactly the records the other does.
//!
//! Most of the cost is walking the record, so the walk takes the
//! spellings writers emit without scanning: keys in the usual order are
//! matched byte for byte, and so are whole replies in the two compact
//! key orders (see [`Cursor::compact_reply`]). Any other spelling takes
//! the general walk, with the same checks.
//!
//! The last-mile pass builds no hop or reply. It parses reply addresses
//! only up to the first public hop: past it an unparsable `from` could
//! only turn a reply into a timeout in serde's model, never fail the
//! record. And it parses RTTs only for the two hops it keeps: an RTT
//! token of the plain form `-?[0-9]+(\.[0-9]+)?`, which every `f64`
//! parse accepts, is kept as text until its hop is known to be kept;
//! any other token is parsed at once, and declines the record if that
//! fails.

use crate::probe::ProbeId;
use crate::traceroute::{Hop, LastMile, Reply, TracerouteResult};
use lastmile_prefix::special;
use lastmile_timebase::UnixTime;
use std::net::IpAddr;
use std::ops::Range;

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
    let mut hops = Vec::with_capacity(HOPS_RESERVED);
    let head = cursor.traceroute(|c| {
        hops.push(c.full_hop()?);
        Some(())
    })?;
    cursor.end()?;
    // Exact capacity, as serde's `collect` leaves it: records in flight
    // stay as small as before.
    hops.shrink_to_fit();
    Some(TracerouteResult {
        probe: head.probe,
        msm_id: head.msm_id,
        timestamp: head.timestamp,
        dst: head.dst,
        src: head.src,
        hops,
    })
}

/// Decode the [`LastMile`] row of `bytes` if this pass can prove it
/// equals the projection of serde's model.
pub(super) fn decode_last_mile(bytes: &[u8]) -> Option<LastMile> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let mut scan = EdgeScan::default();
    let head = cursor.traceroute(|c| scan.hop(c))?;
    cursor.end()?;
    let (edge, rtts, private) = scan.finish()?;
    Some(LastMile {
        probe: head.probe,
        timestamp: head.timestamp,
        edge,
        rtts,
        private,
    })
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

/// A number token's text, scanned with serde's character class
/// `-?[0-9.eE+-]*`, and how it reads.
#[derive(Clone, Copy)]
struct Token<'a> {
    text: &'a str,
    /// Anything but digits follows the sign: serde reads an `f64`.
    is_float: bool,
    /// The form `-?[0-9]+(\.[0-9]+)?`, whose value [`Token::num`]
    /// always finds.
    is_plain: bool,
}

impl Token<'_> {
    /// The token's value, classified exactly as serde does; `None` when
    /// no `f64` parse accepts it either.
    fn num(self) -> Option<Num> {
        if !self.is_float {
            let int = if self.text.starts_with('-') {
                self.text.parse().ok().map(Num::I)
            } else {
                unsigned_digits(self.text).map(Num::U)
            };
            if int.is_some() {
                return int;
            }
        }
        self.text.parse().ok().map(Num::F)
    }

    /// The value of an RTT: as serde reads it into an `f64` field.
    fn rtt(self) -> Option<f64> {
        self.num().map(Num::float)
    }
}

/// A run of ASCII digits as a `u64`, as `str::parse` reads it; `None`
/// on overflow.
fn unsigned_digits(digits: &str) -> Option<u64> {
    digits.bytes().try_fold(0u64, |n, d| {
        n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    })
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

/// The top-level keys in the order writers emit them.
const HEAD_KEYS: &[&[u8]] = &[
    b"fw",
    b"af",
    b"dst_addr",
    b"src_addr",
    b"from",
    b"msm_id",
    b"prb_id",
    b"timestamp",
    b"proto",
    b"type",
    b"result",
];

/// An address string, parsed as `str::parse` does.
fn parse_address(text: &[u8]) -> Option<IpAddr> {
    std::str::from_utf8(text).ok()?.parse().ok()
}

/// The address of `text`, reusing `last`'s parse while the bytes repeat:
/// the replies of one hop almost always share one address.
fn cached_address<'a>(
    last: &mut Option<(&'a [u8], Option<IpAddr>)>,
    text: &'a [u8],
) -> Option<IpAddr> {
    match *last {
        Some((bytes, addr)) if bytes == text => addr,
        _ => {
            let addr = parse_address(text);
            *last = Some((text, addr));
            addr
        }
    }
}

/// Sets `bit` in `seen`, or `None` when it was already set.
fn first_sight(seen: &mut u16, bit: u16) -> Option<()> {
    if *seen & bit != 0 {
        return None;
    }
    *seen |= bit;
    Some(())
}

/// The top-level fields both passes keep.
struct Head {
    probe: ProbeId,
    msm_id: u32,
    timestamp: UnixTime,
    dst: IpAddr,
    src: IpAddr,
}

/// A reply's `from` string and `rtt` token, each `None` when absent or
/// `null`.
type RawReply<'a> = (Option<&'a [u8]>, Option<Token<'a>>);

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

    /// Only whitespace is left.
    fn end(&mut self) -> Option<()> {
        self.ws();
        (self.pos == self.bytes.len()).then_some(())
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
    /// contents must be UTF-8 (serde reads the whole record as `&str`).
    /// Keys and addresses end within a few bytes, so a byte loop finds
    /// the close quote; only a non-ASCII string pays for a word scan and
    /// the full UTF-8 check.
    fn string(&mut self) -> Option<&'a [u8]> {
        self.punct(b'"')?;
        let start = self.pos;
        let mut end = start;
        loop {
            match *self.bytes.get(end)? {
                b'"' => break,
                b'\\' | 0..=0x1f => return None,
                0x80.. => return self.non_ascii_string(start),
                _ => end += 1,
            }
        }
        self.pos = end + 1;
        Some(&self.bytes[start..end])
    }

    /// The rest of a string opened at `start` that holds a non-ASCII
    /// byte.
    fn non_ascii_string(&mut self, start: usize) -> Option<&'a [u8]> {
        let rest = &self.bytes[start..];
        let end = memscan::memchr2(b'"', b'\\', rest)?;
        let body = &rest[..end];
        if rest[end] != b'"' || body.iter().any(|&b| b < 0x20) {
            return None;
        }
        std::str::from_utf8(body).ok()?;
        self.pos = start + end + 1;
        Some(body)
    }

    /// A number token, not yet parsed.
    fn token(&mut self) -> Option<Token<'a>> {
        let b = self.peek()?;
        if b != b'-' && !b.is_ascii_digit() {
            return None;
        }
        let start = self.pos;
        self.pos += usize::from(b == b'-');
        let unsigned_from = self.pos;
        let (mut dots, mut exponent) = (0u32, false);
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' => dots += 1,
                b'e' | b'E' | b'+' | b'-' => exponent = true,
                _ => break,
            }
            self.pos += 1;
        }
        // Plain: digits and at most one dot, with a digit at both ends.
        let unsigned = &self.bytes[unsigned_from..self.pos];
        let is_plain = !exponent
            && dots <= 1
            && unsigned.first().is_some_and(u8::is_ascii_digit)
            && unsigned.last().is_some_and(u8::is_ascii_digit);
        // The token is ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        Some(Token {
            text,
            is_float: exponent || dots > 0,
            is_plain,
        })
    }

    /// A number, classified exactly as serde does.
    fn number(&mut self) -> Option<Num> {
        self.token()?.num()
    }

    /// Walk an object's members: `member` gets each key with the cursor
    /// at its value, and must consume that value.
    fn object(&mut self, member: impl FnMut(&mut Self, &'a [u8]) -> Option<()>) -> Option<()> {
        self.object_in_order(&[], member)
    }

    /// [`Cursor::object`] for an object whose keys usually come in the
    /// order `keys`: while they do, each `"key":` is matched byte for
    /// byte instead of scanned. Any other spelling is scanned as usual,
    /// so `member` sees the same keys either way.
    fn object_in_order(
        &mut self,
        keys: &[&'static [u8]],
        mut member: impl FnMut(&mut Self, &'a [u8]) -> Option<()>,
    ) -> Option<()> {
        self.punct(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Some(());
        }
        let mut expected = keys.iter();
        loop {
            let key = match expected.next() {
                Some(&key) if self.quoted_key(key) => key,
                _ => {
                    let key = self.string()?;
                    self.punct(b':')?;
                    key
                }
            };
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

    /// Consume `"key":` if the bytes at the cursor are exactly that.
    fn quoted_key(&mut self, key: &[u8]) -> bool {
        let rest = &self.bytes[self.pos..];
        let n = key.len();
        let hit = rest.len() > n + 2
            && rest[0] == b'"'
            && &rest[1..=n] == key
            && rest[n + 1..n + 3] == *b"\":";
        if hit {
            self.pos += n + 3;
        }
        hit
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

    /// The record object: every top-level field is checked here, and
    /// `hop` consumes each element of the `result` array.
    fn traceroute(&mut self, mut hop: impl FnMut(&mut Self) -> Option<()>) -> Option<Head> {
        let mut seen = 0u16;
        let (mut msm_id, mut prb_id, mut timestamp) = (0, 0, 0);
        let mut dst = None;
        let mut src = None;
        self.object_in_order(HEAD_KEYS, |c, key| {
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
                    c.array(&mut hop)?;
                }
                _ => c.skip(1)?,
            }
            Some(())
        })?;
        (seen == ALL_FIELDS).then_some(())?;
        Some(Head {
            probe: ProbeId(prb_id),
            msm_id,
            timestamp: UnixTime::from_secs(timestamp),
            dst: dst?,
            src: src?,
        })
    }

    /// One hop object: its `hop` number, with `reply` consuming each
    /// element of its `result` array.
    fn hop(&mut self, mut reply: impl FnMut(&mut Self) -> Option<()>) -> Option<u8> {
        let mut hop = None;
        let mut has_replies = false;
        self.object_in_order(&[b"hop", b"result"], |c, key| {
            match key {
                b"hop" if hop.is_none() => hop = Some(c.number()?.unsigned(u8::MAX.into())? as u8),
                b"result" if !has_replies => {
                    has_replies = true;
                    c.array(&mut reply)?;
                }
                b"hop" | b"result" => return None,
                _ => c.skip(3)?,
            }
            Some(())
        })?;
        has_replies.then_some(())?;
        hop
    }

    /// One reply object: `x`, `size` and `ttl` are checked and dropped,
    /// `from` and `rtt` come back unparsed.
    fn reply(&mut self) -> Option<RawReply<'a>> {
        let start = self.pos;
        if let Some(raw) = self.compact_reply() {
            return Some(raw);
        }
        self.pos = start;
        self.any_reply()
    }

    /// Consume `lit` if the bytes at the cursor are exactly it.
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        self.bytes[self.pos..]
            .starts_with(lit)
            .then(|| self.pos += lit.len())
    }

    /// A reply in one of the compact spellings writers emit, matched
    /// byte for byte with no key dispatch: a timeout `{"x":"*"}`, or an
    /// answer with keys in this crate's order (`from, rtt, size, ttl`) or
    /// in the Atlas API's (`from, ttl, size, rtt`). Values get the same
    /// checks [`Cursor::any_reply`] makes. `None`, with the cursor
    /// anywhere, for every other spelling.
    fn compact_reply(&mut self) -> Option<RawReply<'a>> {
        self.ws();
        if self.lit(br#"{"x":"*"}"#).is_some() {
            return Some((None, None));
        }
        self.lit(br#"{"from":"#)?;
        let from = self.string()?;
        let rtt = if self.lit(br#","rtt":"#).is_some() {
            let rtt = self.token()?;
            self.lit(br#","size":"#)?;
            self.number()?.unsigned(u32::MAX.into())?;
            self.lit(br#","ttl":"#)?;
            self.number()?.unsigned(u8::MAX.into())?;
            rtt
        } else {
            self.lit(br#","ttl":"#)?;
            self.number()?.unsigned(u8::MAX.into())?;
            self.lit(br#","size":"#)?;
            self.number()?.unsigned(u32::MAX.into())?;
            self.lit(br#","rtt":"#)?;
            self.token()?
        };
        self.lit(b"}")?;
        Some((Some(from), Some(rtt)))
    }

    /// A reply object of any spelling.
    fn any_reply(&mut self) -> Option<RawReply<'a>> {
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
                1 => from = Some(c.string()?),
                2 => rtt = Some(c.token()?),
                4 => drop(c.string()?),                            // x
                8 => drop(c.number()?.unsigned(u32::MAX.into())?), // size
                _ => drop(c.number()?.unsigned(u8::MAX.into())?),  // ttl
            }
            Some(())
        })?;
        Some((from, rtt))
    }

    /// A hop of the full model.
    fn full_hop(&mut self) -> Option<Hop> {
        let mut replies = Vec::with_capacity(REPLIES_RESERVED);
        let mut last = None;
        let hop = self.hop(|c| {
            let (from, rtt) = c.reply()?;
            let rtt = match rtt {
                Some(token) => Some(token.rtt()?),
                None => None,
            };
            let from = from.and_then(|text| cached_address(&mut last, text));
            replies.push(match (from, rtt) {
                (Some(a), Some(rtt)) => Reply::answered(a, rtt),
                _ => Reply::timeout(),
            });
            Some(())
        })?;
        Some(Hop { hop, replies })
    }
}

/// What the last-mile pass keeps while it walks the hops, in the
/// model's terms: a hop's address is its first answered reply's, a
/// reply is answered when its address parses and its RTT is not null,
/// and a hop's RTTs are its answered replies'.
#[derive(Default)]
struct EdgeScan<'a> {
    /// The first public hop's address, once it has been walked. Hops
    /// after it are validated only.
    edge: Option<IpAddr>,
    /// The RTTs of every hop walked up to the edge, the edge's included.
    rtts: Vec<Token<'a>>,
    /// Where the last private hop's RTTs sit in `rtts`.
    private: Range<usize>,
    /// Where the edge hop's RTTs start in `rtts`; they run to its end.
    public: usize,
}

impl<'a> EdgeScan<'a> {
    /// Walk one hop.
    fn hop(&mut self, c: &mut Cursor<'a>) -> Option<()> {
        let past_edge = self.edge.is_some();
        let start = self.rtts.len();
        let rtts = &mut self.rtts;
        let mut addr = None;
        let mut last = None;
        c.hop(|c| {
            let (from, rtt) = c.reply()?;
            if let Some(token) = rtt.filter(|t| !t.is_plain) {
                token.num()?;
            }
            if past_edge {
                return Some(());
            }
            let from = from.and_then(|text| cached_address(&mut last, text));
            if let (Some(from), Some(rtt)) = (from, rtt) {
                addr.get_or_insert(from);
                rtts.push(rtt);
            }
            Some(())
        })?;
        match addr {
            Some(a) if special::is_public(a) => {
                self.edge = Some(a);
                self.public = start;
            }
            Some(_) => self.private = start..self.rtts.len(),
            None => {}
        }
        Some(())
    }

    /// The edge, the kept RTTs and how many of them are the private
    /// hop's: as [`LastMile::of`] builds them.
    fn finish(self) -> Option<(Option<IpAddr>, Vec<f64>, usize)> {
        if self.edge.is_none() || self.private.is_empty() {
            return Some((self.edge, Vec::new(), 0));
        }
        let kept = self.rtts[self.private.clone()]
            .iter()
            .chain(&self.rtts[self.public..]);
        let mut rtts = Vec::with_capacity(self.private.len() + self.rtts.len() - self.public);
        for token in kept {
            rtts.push(token.rtt()?);
        }
        Some((self.edge, rtts, self.private.len()))
    }
}
