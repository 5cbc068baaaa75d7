//! Incremental framing of Atlas JSON inputs: split a byte stream into
//! record-aligned document frames without ever holding the whole input.
//!
//! Real Atlas data arrives in two shapes — JSON Lines (one document per
//! line, the format of `magellan`/Atlas daily dumps) and whole-file JSON
//! arrays (the API's list form). Both are framed by [`DocSplitter`], a
//! push-based state machine: feed it byte chunks of any size (a document
//! split across a chunk boundary is carried over), and it emits each
//! complete document's bytes together with its absolute byte offset.
//!
//! ## Framing rules
//!
//! * The input's shape is decided by its first non-whitespace byte (after
//!   an optional UTF-8 byte-order mark): `[` means a top-level array,
//!   anything else means JSON Lines.
//! * **Lines**: documents are separated by `\n`; a trailing `\r` (CRLF
//!   input) is stripped; whitespace-only lines are skipped; a final line
//!   without a newline is still a document.
//! * **Array**: elements are scanned with bracket/brace depth, string and
//!   escape state, so commas inside nested structures or string literals
//!   never split a document. Separators are lenient — any mix of commas
//!   and whitespace between elements is accepted (real dumps contain
//!   sloppy concatenations), and a missing final `]` after a complete
//!   element is tolerated (routine truncation).
//! * Bytes the splitter cannot frame — input ending in the middle of an
//!   array element (a truncated final document) or content after the
//!   top-level `]` — are emitted as [`Frame::Junk`] with a reason, so
//!   callers can quarantine rather than die.
//!
//! The splitter frames bytes; it does not validate JSON. A garbage array
//! element (`[{...}, oops, {...}]`) is framed as the document `oops` and
//! left for the parser to reject, which keeps framing single-pass and
//! gives per-record error granularity downstream.
//!
//! ## Bulk scanning and the zero-copy frame lifetime rule
//!
//! The hot loops never walk the input one byte at a time. Line mode
//! jumps newline-to-newline ([`memscan::memchr`]). Array-element mode
//! loads one 8-byte word at a time and asks
//! [`memscan::json_scan_mask`] for an exact per-lane mask of the bytes
//! the state machine cares about (`"` `\` `,` `{` `}` `[` `]`); only
//! the flagged lanes are visited, in order, with string/escape/depth
//! state updated per lane. Runs of ordinary bytes cost one SWAR mask
//! per 8 bytes, and — unlike a memchr-per-token loop — structural-dense
//! JSON never reloads the same word twice.
//!
//! Emitted `Frame` slices obey one lifetime rule, which parallel ingest
//! relies on for zero-copy batching: a document that completes inside
//! the chunk passed to [`DocSplitter::feed`] is emitted as a **subslice
//! of that chunk** (no intermediate copy); only a document that spans a
//! `feed` boundary is staged in the splitter's carry buffer and emitted
//! borrowing from it. Either way the slice is only valid during the
//! `emit` call — copy it (or retain the chunk allocation) to keep it.

/// What the first non-whitespace byte said the input is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// One document per line.
    Lines,
    /// A top-level JSON array of documents.
    Array,
}

/// One framed run of bytes handed to the `emit` callback.
#[derive(Debug)]
pub enum Frame<'a> {
    /// A complete document (surrounding whitespace trimmed).
    Doc {
        /// Absolute byte offset of the document's first byte.
        offset: u64,
        /// The document's bytes.
        bytes: &'a [u8],
    },
    /// Bytes that cannot be framed as a document.
    Junk {
        /// Absolute byte offset of the run's first byte.
        offset: u64,
        /// The unframeable bytes.
        bytes: &'a [u8],
        /// Why the bytes could not be framed.
        reason: &'static str,
    },
}

const BOM: [u8; 3] = [0xEF, 0xBB, 0xBF];

/// Reason attached to a truncated final array element.
pub const TRUNCATED_DOC: &str = "input ended inside an array element (truncated document)";
/// Reason attached to bytes following the top-level `]`.
pub const TRAILING_CONTENT: &str = "content after the top-level array close";

#[derive(Debug)]
enum State {
    /// Skipping the optional BOM and leading whitespace; `matched_bom`
    /// counts BOM bytes consumed so far (they may span a chunk boundary).
    Start { matched_bom: usize },
    /// JSON Lines: collecting the current line.
    Lines,
    /// Array: between elements (also right after `[`).
    Separators,
    /// Array: inside an element.
    Element {
        depth: u32,
        in_string: bool,
        escape: bool,
    },
    /// Array: after the top-level `]`. `reported` records whether
    /// trailing content was already flagged — it is flagged at most once
    /// (at its first byte) so framing is invariant to chunk boundaries.
    Closed { reported: bool },
}

/// Push-based document splitter. Feed chunks with [`DocSplitter::feed`],
/// then call [`DocSplitter::finish`] to flush the final document (or
/// flag it as truncated).
#[derive(Debug)]
pub struct DocSplitter {
    state: State,
    /// Absolute offset of the next byte to be processed.
    pos: u64,
    /// Bytes of the current incomplete document, when it spans chunks.
    pending: Vec<u8>,
    /// Absolute offset of the current document's first byte.
    doc_offset: u64,
    kind: Option<FrameKind>,
}

impl Default for DocSplitter {
    fn default() -> DocSplitter {
        DocSplitter::new()
    }
}

impl DocSplitter {
    pub fn new() -> DocSplitter {
        DocSplitter {
            state: State::Start { matched_bom: 0 },
            pos: 0,
            pending: Vec::new(),
            doc_offset: 0,
            kind: None,
        }
    }

    /// The input shape, once the first non-whitespace byte has been seen.
    pub fn kind(&self) -> Option<FrameKind> {
        self.kind
    }

    /// Process one chunk, emitting every document that completes in it.
    /// Emitted slices borrow either from `chunk` or from the splitter's
    /// carry-over buffer; copy them if they must outlive the call.
    pub fn feed(&mut self, chunk: &[u8], emit: &mut dyn FnMut(Frame<'_>)) {
        let mut i = 0;
        while i < chunk.len() {
            match &mut self.state {
                State::Start { matched_bom } => {
                    let matched = *matched_bom;
                    let b = chunk[i];
                    if self.pos == matched as u64 && matched < 3 && b == BOM[matched] {
                        self.state = State::Start {
                            matched_bom: matched + 1,
                        };
                        self.pos += 1;
                        i += 1;
                    } else if matched > 0 && matched < 3 {
                        // A BOM prefix that never completed: those held
                        // bytes are content. Replay them as the start of
                        // a line (they cannot be `[`).
                        self.kind = Some(FrameKind::Lines);
                        self.state = State::Lines;
                        self.doc_offset = self.pos - matched as u64;
                        self.pending.extend_from_slice(&BOM[..matched]);
                        // Do not advance i: reprocess chunk[i] as Lines.
                    } else if b.is_ascii_whitespace() {
                        self.pos += 1;
                        i += 1;
                    } else if b == b'[' {
                        self.kind = Some(FrameKind::Array);
                        self.state = State::Separators;
                        self.pos += 1;
                        i += 1;
                    } else {
                        self.kind = Some(FrameKind::Lines);
                        self.state = State::Lines;
                        self.doc_offset = self.pos;
                        // Reprocess chunk[i] as Lines.
                    }
                }
                State::Lines => {
                    // Scan to the next newline; emit straight from the
                    // chunk when the whole line is inside it.
                    let rest = &chunk[i..];
                    match memscan::memchr(b'\n', rest) {
                        Some(nl) => {
                            let frame_offset;
                            let line: &[u8] = if self.pending.is_empty() {
                                frame_offset = self.pos;
                                &rest[..nl]
                            } else {
                                self.pending.extend_from_slice(&rest[..nl]);
                                frame_offset = self.doc_offset;
                                &self.pending
                            };
                            let line = trim_line(line);
                            if !line.is_empty() {
                                emit(Frame::Doc {
                                    offset: frame_offset,
                                    bytes: line,
                                });
                            }
                            self.pending.clear();
                            self.pos += (nl + 1) as u64;
                            self.doc_offset = self.pos;
                            i += nl + 1;
                        }
                        None => {
                            if self.pending.is_empty() {
                                self.doc_offset = self.pos;
                            }
                            self.pending.extend_from_slice(rest);
                            self.pos += rest.len() as u64;
                            i = chunk.len();
                        }
                    }
                }
                State::Separators => {
                    // Bulk-skip the separator run (whitespace/commas).
                    let rest = &chunk[i..];
                    match rest
                        .iter()
                        .position(|&b| !(b.is_ascii_whitespace() || b == b','))
                    {
                        None => {
                            self.pos += rest.len() as u64;
                            i = chunk.len();
                        }
                        Some(j) => {
                            self.pos += j as u64;
                            i += j;
                            if chunk[i] == b']' {
                                self.state = State::Closed { reported: false };
                                self.pos += 1;
                                i += 1;
                            } else {
                                self.state = State::Element {
                                    depth: 0,
                                    in_string: false,
                                    escape: false,
                                };
                                self.doc_offset = self.pos;
                                self.pending.clear();
                                // Reprocess chunk[i] as the element's
                                // first byte.
                            }
                        }
                    }
                }
                State::Element {
                    depth,
                    in_string,
                    escape,
                } => {
                    // Bulk-scan the element one word at a time: each
                    // 8-byte load yields an exact mask of the bytes the
                    // state machine dispatches on (quotes, backslashes,
                    // brackets, commas), and only those lanes are
                    // visited — string content, numbers, and key names
                    // in between cost one mask per word, not one match
                    // per byte. Atlas JSON is structural-dense, so the
                    // mask is walked bit by bit with string/escape/depth
                    // state updated in order; re-scanning from every
                    // token (the memchr-per-token shape) would reload
                    // the same words many times over. The element's
                    // bytes stay in `chunk` — nothing is copied unless
                    // the element outlives this chunk.
                    let start = i;
                    // `(index, byte)` of the terminator, once found.
                    let mut term: Option<(usize, u8)> = None;
                    let mut j = i;
                    'scan: while j < chunk.len() {
                        if *escape {
                            // A backslash ended the previous word or
                            // chunk: it escapes exactly one byte,
                            // whatever that byte is.
                            *escape = false;
                            j += 1;
                            continue;
                        }
                        // 32-byte stride while all four words are
                        // escape-free (the norm): one quote-parity pass
                        // over 32 lanes, braces walked, commas computed
                        // only when a terminator is reachable (depth 0).
                        if j + 4 * memscan::WORD_BYTES <= chunk.len() {
                            let ws = [
                                memscan::load_word(&chunk[j..]),
                                memscan::load_word(&chunk[j + memscan::WORD_BYTES..]),
                                memscan::load_word(&chunk[j + 2 * memscan::WORD_BYTES..]),
                                memscan::load_word(&chunk[j + 3 * memscan::WORD_BYTES..]),
                            ];
                            if !ws.iter().any(|&w| memscan::has_byte(w, b'\\')) {
                                let q = memscan::compact4(ws.map(memscan::quote_lanes));
                                let inside = memscan::prefix_xor32(q)
                                    ^ if *in_string { u32::MAX } else { 0 };
                                // `braceish` over-approximates (strays
                                // dispatch as no-ops below) — worth it
                                // for one compare per word instead of
                                // two.
                                let braces =
                                    memscan::compact4(ws.map(memscan::braceish_lanes)) & !inside;
                                let comma32 =
                                    || memscan::compact4(ws.map(memscan::comma_lanes)) & !inside;
                                let mut commas = 0u32;
                                let mut v = braces;
                                if *depth == 0 {
                                    commas = comma32();
                                    v |= commas;
                                }
                                while v != 0 {
                                    let k = v.trailing_zeros() as usize;
                                    v &= v - 1;
                                    let b = (ws[k / memscan::WORD_BYTES]
                                        >> ((k % memscan::WORD_BYTES) * 8))
                                        as u8;
                                    match b {
                                        b'{' | b'[' => *depth += 1,
                                        b'}' | b']' if *depth > 0 => {
                                            *depth -= 1;
                                            if *depth == 0 {
                                                if commas == 0 {
                                                    commas = comma32();
                                                }
                                                v |= commas & memscan::compact_lanes_after32(k);
                                            }
                                        }
                                        b',' if *depth == 0 => {
                                            term = Some((j + k, b));
                                            break 'scan;
                                        }
                                        b']' => {
                                            term = Some((j + k, b));
                                            break 'scan;
                                        }
                                        // A stray `}` at depth 0 (and a
                                        // comma armed at stride start
                                        // but reached at depth > 0) is
                                        // content for the parser.
                                        _ => {}
                                    }
                                }
                                *in_string ^= q.count_ones() & 1 == 1;
                                j += 4 * memscan::WORD_BYTES;
                                continue;
                            }
                        }
                        if j + memscan::WORD_BYTES <= chunk.len() {
                            let w = memscan::load_word(&chunk[j..]);
                            if memscan::backslash_lanes(w) == 0 {
                                // Quote-parity fast path (the norm —
                                // Atlas JSON rarely escapes anything):
                                // with no backslash in the word, string
                                // membership is pure quote parity, so
                                // the in-string mask comes from one
                                // prefix-XOR and quotes are never
                                // visited at all. Only braces (and, at
                                // depth 0, commas) outside strings are
                                // walked for depth/terminator tracking.
                                let q = memscan::compact(memscan::quote_lanes(w));
                                let inside =
                                    memscan::prefix_xor(q) ^ if *in_string { 0xFF } else { 0 };
                                let braces = memscan::compact(memscan::braceish_lanes(w)) & !inside;
                                let commas = memscan::compact(memscan::comma_lanes(w)) & !inside;
                                let mut v = braces;
                                if *depth == 0 {
                                    v |= commas;
                                }
                                while v != 0 {
                                    let k = v.trailing_zeros() as usize;
                                    v &= v - 1;
                                    let b = (w >> (k * 8)) as u8;
                                    match b {
                                        b'{' | b'[' => *depth += 1,
                                        b'}' | b']' if *depth > 0 => {
                                            *depth -= 1;
                                            if *depth == 0 {
                                                v |= commas & memscan::compact_lanes_after(k);
                                            }
                                        }
                                        b',' if *depth == 0 => {
                                            term = Some((j + k, b));
                                            break 'scan;
                                        }
                                        b']' => {
                                            term = Some((j + k, b));
                                            break 'scan;
                                        }
                                        // A stray `}` at depth 0 (and a
                                        // comma armed at word start but
                                        // reached at depth > 0) is
                                        // content for the parser.
                                        _ => {}
                                    }
                                }
                                *in_string ^= q.count_ones() & 1 == 1;
                                j += memscan::WORD_BYTES;
                                continue;
                            }
                            // Escape-bearing word: walk every relevant
                            // lane sequentially, tracking string and
                            // escape state byte-exactly. Comma lanes
                            // join the walk only while a comma could
                            // terminate the element (depth 0); the
                            // depth>0→0 transition below re-arms the
                            // word's remaining comma lanes.
                            let mut m = memscan::json_scan_mask_nocomma(w);
                            if *depth == 0 {
                                m |= memscan::comma_lanes(w);
                            }
                            while m != 0 {
                                let k = memscan::first_lane(m);
                                m &= m - 1;
                                let b = (w >> (k * 8)) as u8;
                                if *in_string {
                                    match b {
                                        b'"' => *in_string = false,
                                        b'\\' => {
                                            // Drop the escaped byte's
                                            // lane (it may be a quote
                                            // or another backslash); if
                                            // the backslash is the last
                                            // lane, the escape crosses
                                            // into the next word.
                                            if k + 1 < memscan::WORD_BYTES {
                                                m &= !memscan::lane_bit(k + 1);
                                            } else {
                                                *escape = true;
                                            }
                                        }
                                        _ => {}
                                    }
                                } else {
                                    match b {
                                        b'"' => *in_string = true,
                                        b'{' | b'[' => *depth += 1,
                                        b'}' | b']' if *depth > 0 => {
                                            *depth -= 1;
                                            if *depth == 0 {
                                                m |= memscan::comma_lanes(w)
                                                    & memscan::lanes_after(k);
                                            }
                                        }
                                        // At depth 0 a comma ends the
                                        // element and a `]` ends both
                                        // the element and the array. A
                                        // stray `}` or `\` is content
                                        // for the parser to reject.
                                        b',' if *depth == 0 => {
                                            term = Some((j + k, b));
                                            break 'scan;
                                        }
                                        b']' => {
                                            term = Some((j + k, b));
                                            break 'scan;
                                        }
                                        _ => {}
                                    }
                                }
                            }
                            j += memscan::WORD_BYTES;
                        } else {
                            // Sub-word tail: same state machine, byte
                            // at a time.
                            let b = chunk[j];
                            if *in_string {
                                match b {
                                    b'"' => *in_string = false,
                                    b'\\' => *escape = true,
                                    _ => {}
                                }
                            } else {
                                match b {
                                    b'"' => *in_string = true,
                                    b'{' | b'[' => *depth += 1,
                                    b'}' | b']' if *depth > 0 => *depth -= 1,
                                    b',' if *depth == 0 => {
                                        term = Some((j, b));
                                        break 'scan;
                                    }
                                    b']' => {
                                        term = Some((j, b));
                                        break 'scan;
                                    }
                                    _ => {}
                                }
                            }
                            j += 1;
                        }
                    }
                    match term {
                        Some((t, b)) => {
                            let in_chunk = &chunk[start..t];
                            let doc: &[u8] = if self.pending.is_empty() {
                                trim_line(in_chunk)
                            } else {
                                self.pending.extend_from_slice(in_chunk);
                                trim_line(&self.pending)
                            };
                            if !doc.is_empty() {
                                emit(Frame::Doc {
                                    offset: self.doc_offset,
                                    bytes: doc,
                                });
                            }
                            self.pending.clear();
                            self.state = if b == b']' {
                                State::Closed { reported: false }
                            } else {
                                State::Separators
                            };
                            self.pos += (t + 1 - start) as u64;
                            i = t + 1;
                        }
                        None => {
                            // The element continues into the next chunk:
                            // only now do its bytes hit the carry buffer.
                            self.pending.extend_from_slice(&chunk[start..]);
                            self.pos += (chunk.len() - start) as u64;
                            i = chunk.len();
                        }
                    }
                }
                State::Closed { reported } => {
                    let rest = &chunk[i..];
                    match rest.iter().position(|&b| !b.is_ascii_whitespace()) {
                        Some(j) if !*reported => {
                            emit(Frame::Junk {
                                offset: self.pos + j as u64,
                                bytes: &rest[j..],
                                reason: TRAILING_CONTENT,
                            });
                            *reported = true;
                        }
                        _ => {}
                    }
                    self.pos += rest.len() as u64;
                    i = chunk.len();
                }
            }
        }
    }

    /// Flush the end of the input: the final newline-less line is a
    /// document; an unfinished array element is junk (truncated).
    pub fn finish(self, emit: &mut dyn FnMut(Frame<'_>)) {
        match self.state {
            State::Start { matched_bom } => {
                // Only whitespace (and possibly a BOM prefix) was seen. A
                // partial BOM is content — surface it for the parser.
                if matched_bom > 0 && matched_bom < 3 {
                    emit(Frame::Doc {
                        offset: self.pos - matched_bom as u64,
                        bytes: &BOM[..matched_bom],
                    });
                }
            }
            State::Lines => {
                let line = trim_line(&self.pending);
                if !line.is_empty() {
                    emit(Frame::Doc {
                        offset: self.doc_offset,
                        bytes: line,
                    });
                }
            }
            State::Element { .. } => {
                let doc = trim_line(&self.pending);
                if !doc.is_empty() {
                    emit(Frame::Junk {
                        offset: self.doc_offset,
                        bytes: doc,
                        reason: TRUNCATED_DOC,
                    });
                }
            }
            // A missing final `]` after complete elements is tolerated
            // (routine truncation), and a closed array ends cleanly.
            State::Separators | State::Closed { .. } => {}
        }
    }
}

/// Strip surrounding ASCII whitespace (covers the `\r` of CRLF input).
fn trim_line(bytes: &[u8]) -> &[u8] {
    let start = bytes
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(bytes.len());
    let end = bytes
        .iter()
        .rposition(|b| !b.is_ascii_whitespace())
        .map_or(start, |e| e + 1);
    &bytes[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    type OwnedDocs = Vec<(u64, Vec<u8>)>;
    type OwnedJunk = Vec<(u64, Vec<u8>, String)>;

    /// Collect (offset, doc) and (offset, junk, reason) frames, feeding
    /// the input in chunks of `chunk` bytes.
    fn split(input: &[u8], chunk: usize) -> (OwnedDocs, OwnedJunk) {
        let mut docs = Vec::new();
        let mut junk = Vec::new();
        let mut splitter = DocSplitter::new();
        let mut emit = |frame: Frame<'_>| match frame {
            Frame::Doc { offset, bytes } => docs.push((offset, bytes.to_vec())),
            Frame::Junk {
                offset,
                bytes,
                reason,
            } => junk.push((offset, bytes.to_vec(), reason.to_string())),
        };
        for piece in input.chunks(chunk.max(1)) {
            splitter.feed(piece, &mut emit);
        }
        splitter.finish(&mut emit);
        (docs, junk)
    }

    fn docs_only(input: &[u8], chunk: usize) -> Vec<String> {
        let (docs, junk) = split(input, chunk);
        assert!(junk.is_empty(), "unexpected junk: {junk:?}");
        docs.iter()
            .map(|(_, d)| String::from_utf8(d.clone()).unwrap())
            .collect()
    }

    #[test]
    fn lines_basic_with_offsets() {
        let input = b"{\"a\":1}\n\n  \n{\"b\":2}\n";
        for chunk in [1, 2, 3, 7, 100] {
            let (docs, junk) = split(input, chunk);
            assert!(junk.is_empty());
            assert_eq!(
                docs,
                vec![(0, b"{\"a\":1}".to_vec()), (12, b"{\"b\":2}".to_vec())],
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn lines_crlf_and_missing_final_newline() {
        assert_eq!(
            docs_only(b"{\"a\":1}\r\n{\"b\":2}", 3),
            ["{\"a\":1}", "{\"b\":2}"]
        );
    }

    #[test]
    fn bom_is_skipped_in_both_modes() {
        assert_eq!(docs_only(b"\xEF\xBB\xBF{\"a\":1}\n", 1), ["{\"a\":1}"]);
        assert_eq!(docs_only(b"\xEF\xBB\xBF[1,2]", 2), ["1", "2"]);
    }

    #[test]
    fn partial_bom_is_content() {
        let (docs, junk) = split(b"\xEF\xBB", 1);
        assert!(junk.is_empty());
        assert_eq!(docs, vec![(0, vec![0xEF, 0xBB])]);
        // A BOM prefix followed by other bytes becomes a line.
        let (docs, _) = split(b"\xEFoops\n", 2);
        assert_eq!(docs, vec![(0, b"\xEFoops".to_vec())]);
    }

    #[test]
    fn array_elements_with_nesting_strings_and_escapes() {
        let input = br#"[ {"a":[1,2],"s":"x,]}"} , {"b":"\"],"} , 3.5, null ]"#;
        for chunk in [1, 2, 5, 13, 100] {
            assert_eq!(
                docs_only(input, chunk),
                [
                    r#"{"a":[1,2],"s":"x,]}"}"#,
                    r#"{"b":"\"],"}"#,
                    "3.5",
                    "null"
                ],
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn array_offsets_point_at_elements() {
        let (docs, _) = split(b"[10, 20]", 100);
        assert_eq!(docs, vec![(1, b"10".to_vec()), (5, b"20".to_vec())]);
    }

    #[test]
    fn empty_inputs_and_empty_arrays() {
        for input in [
            &b""[..],
            b"   \n\t ",
            b"[]",
            b"[ ]",
            b"[ , , ]",
            b"\xEF\xBB\xBF",
        ] {
            let (docs, junk) = split(input, 1);
            assert!(docs.is_empty(), "{input:?}");
            assert!(junk.is_empty(), "{input:?}");
        }
    }

    #[test]
    fn truncated_final_element_is_junk() {
        let (docs, junk) = split(br#"[{"a":1},{"b":"#, 4);
        assert_eq!(docs, vec![(1, b"{\"a\":1}".to_vec())]);
        assert_eq!(junk.len(), 1);
        assert_eq!(junk[0].0, 9);
        assert_eq!(junk[0].1, b"{\"b\":".to_vec());
        assert_eq!(junk[0].2, TRUNCATED_DOC);
        // Truncation inside a string literal as well.
        let (_, junk) = split(br#"[{"a":"unterminated"#, 100);
        assert_eq!(junk.len(), 1);
        assert_eq!(junk[0].2, TRUNCATED_DOC);
    }

    #[test]
    fn missing_final_bracket_after_complete_element_is_tolerated() {
        let (docs, junk) = split(br#"[{"a":1},"#, 3);
        assert_eq!(docs.len(), 1);
        assert!(junk.is_empty());
    }

    #[test]
    fn content_after_array_close_is_junk() {
        let (docs, junk) = split(b"[1] trailing", 100);
        assert_eq!(docs, vec![(1, b"1".to_vec())]);
        assert_eq!(junk.len(), 1);
        assert_eq!(junk[0].0, 4);
        assert_eq!(junk[0].1, b"trailing".to_vec());
        assert_eq!(junk[0].2, TRAILING_CONTENT);
    }

    #[test]
    fn garbage_between_elements_is_framed_for_the_parser() {
        // Framing is lenient: `oops` becomes a document the JSON parser
        // rejects, so only that record is lost.
        assert_eq!(docs_only(b"[1, oops, 2]", 2), ["1", "oops", "2"]);
    }

    #[test]
    fn kind_is_reported() {
        let mut s = DocSplitter::new();
        assert_eq!(s.kind(), None);
        s.feed(b"  [", &mut |_| {});
        assert_eq!(s.kind(), Some(FrameKind::Array));
        let mut s = DocSplitter::new();
        s.feed(b"{\"a\":1}", &mut |_| {});
        assert_eq!(s.kind(), Some(FrameKind::Lines));
    }

    #[test]
    fn bulk_scanner_boundaries_are_chunk_invariant() {
        // Inputs aimed at the word-stride scanner's edges: a backslash
        // as the last byte of a feed, escaped quotes landing on 8-byte
        // word boundaries, commas excluded at depth, and structural
        // bytes at every lane of the first word. Every chunk size from
        // 1 up must frame identically to a whole-input feed.
        let adversarial: &[&[u8]] = &[
            br#"[{"e":"\\"},{"e":"\\\\"}]"#,
            br#"[{"q":"\"\"\"\"\"\"\""}]"#,
            br#"[{"pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"},{"a":1}]"#,
            br#"[{"d":[[[[[[[[[[1]]]]]]]]]]},{"m":{"a":1,"b":2,"c":3}}]"#,
            b"{\"e\":\"\\\\\"}\n{\"q\":\"\\\"\"}\n",
            b"{\"a\":\"12345678\"}\r\n{\"b\":\"123456\"}\r\n",
        ];
        for input in adversarial {
            let whole = split(input, usize::MAX);
            for chunk in 1..=input.len() {
                assert_eq!(
                    split(input, chunk),
                    whole,
                    "chunk={chunk} input={:?}",
                    String::from_utf8_lossy(input)
                );
            }
        }
    }
}
