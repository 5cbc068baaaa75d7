//! A deliberately small HTTP/1.1 subset: enough to parse one `GET` or
//! `POST` request from a socket and write one response, nothing more.
//!
//! Scope decisions (all documented here so nobody mistakes this for a
//! general server): requests are `GET`/`POST`-only (anything else gets
//! 405), bodies are plain `Content-Length` reads capped at
//! [`MAX_BODY_BYTES`] (no chunked transfer encoding — that gets 400),
//! every response carries `Connection: close` and the connection is
//! dropped after one exchange, header blocks are capped at
//! [`MAX_HEAD_BYTES`], and request targets are used verbatim (no
//! percent-decoding — the daemon's routes are plain ASCII).

use std::io::{Read, Write};

/// Upper bound on the request head (request line + headers). A client
/// exceeding it gets 431 and the connection is closed.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (`Content-Length`). A client declaring
/// (or sending) more gets 413 and the connection is closed. Sized for
/// live traceroute intake: thousands of records per POST, while keeping
/// a worker's worst-case buffering bounded.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, verbatim (`GET` or `POST` for anything the
    /// daemon serves).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `key` in the query string (`from=12&to=99` style;
    /// no percent-decoding).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }

    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }
}

/// Why a request head failed to parse — mapped onto a status code by
/// the connection handler.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed (or sent nothing) before a full head arrived.
    /// No response is owed.
    ConnectionClosed,
    /// Head exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// Body exceeded [`MAX_BODY_BYTES`] → 413.
    BodyTooLarge,
    /// Malformed request line, header, or body framing → 400.
    Malformed(&'static str),
    /// Socket error (including read timeout) mid-head or mid-body.
    Io(std::io::Error),
}

/// Read one full request: [`parse_request_head`], then [`read_body`].
pub fn parse_request(stream: &mut impl Read) -> Result<Request, ParseError> {
    let (mut request, leftover) = parse_request_head(stream)?;
    read_body(stream, &mut request, leftover)?;
    Ok(request)
}

/// Read the `Content-Length` body of a request whose head
/// [`parse_request_head`] returned, starting with the `leftover` bytes
/// the head read already consumed.
///
/// Body rules: no `Content-Length` means an empty body; a
/// non-numeric length or any `Transfer-Encoding` header is malformed
/// (400); a declared length above [`MAX_BODY_BYTES`] is
/// [`ParseError::BodyTooLarge`] (413), checked *before* reading so an
/// oversized upload is refused without buffering it.
pub fn read_body(
    stream: &mut impl Read,
    request: &mut Request,
    leftover: Vec<u8>,
) -> Result<(), ParseError> {
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::Malformed("Transfer-Encoding not supported"));
    }
    let declared: u64 = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .trim()
            .parse()
            .map_err(|_| ParseError::Malformed("bad Content-Length"))?,
    };
    if declared > MAX_BODY_BYTES as u64 {
        return Err(ParseError::BodyTooLarge);
    }
    let declared = declared as usize;
    // Body bytes the head read already pulled off the socket come
    // first; anything past the declared length is ignored (we close
    // after one exchange, so there is no pipelining to preserve).
    let mut body = leftover;
    body.truncate(declared);
    let mut chunk = [0u8; 4096];
    while body.len() < declared {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(ParseError::Malformed("connection closed mid-body")),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        };
        let take = n.min(declared - body.len());
        body.extend_from_slice(&chunk[..take]);
    }
    request.body = body;
    Ok(())
}

/// Read one request head from `stream` and parse it, returning the
/// parsed request (body empty) plus any body bytes the head read
/// already consumed.
///
/// Reads byte-chunks until the head terminator — `\r\n\r\n`, or a bare
/// `\n\n` from LF-only clients (tolerant reader, like the ingest
/// splitter's CRLF handling). The server reads only this before it
/// admits a request: classifying one needs only the head, and a shed
/// request's body is never buffered. The terminator search is
/// incremental: each iteration scans only the bytes the last read
/// appended (minus a [`HEAD_SCAN_OVERLAP`]-byte overlap for a
/// terminator spanning two reads), so a head arriving in many small
/// reads costs O(head), not O(head²).
pub fn parse_request_head(stream: &mut impl Read) -> Result<(Request, Vec<u8>), ParseError> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let mut scanned: usize = 0;
    let end = loop {
        if let Some(pos) = find_head_end(&head, scanned.saturating_sub(HEAD_SCAN_OVERLAP)) {
            if pos > MAX_HEAD_BYTES {
                return Err(ParseError::HeadTooLarge);
            }
            break pos;
        }
        scanned = head.len();
        if head.len() > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge);
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    ParseError::ConnectionClosed
                } else {
                    ParseError::Malformed("connection closed mid-head")
                })
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        };
        head.extend_from_slice(&chunk[..n]);
    };
    let leftover = head[end..].to_vec();
    let head = std::str::from_utf8(&head[..end]).map_err(|_| ParseError::Malformed("not UTF-8"))?;
    // Split on LF and trim the optional CR so CRLF and bare-LF heads
    // parse identically.
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::Malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers,
            body: Vec::new(),
        },
        leftover,
    ))
}

/// Bytes a resumed terminator search backs up over: the longest
/// terminator suffix that can span a read boundary is 2 bytes (both
/// accepted terminators end in `\n\n` or `\r\n` after a leading `\n`).
const HEAD_SCAN_OVERLAP: usize = 2;

/// Byte offset just past the first head terminator at or after `from`:
/// an empty line, i.e. `\n` directly followed by `\n` or `\r\n` (this
/// accepts the standard `\r\n\r\n`, the bare-LF `\n\n`, and mixed
/// endings).
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.first() == Some(&b'\n') {
                return Some(i + 2);
            }
            if rest.starts_with(b"\r\n") {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// One response to write back. Always closes the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`) appended verbatim.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Which endpoint-family latency histogram this response counts
    /// against. Handlers set it; the server records it.
    pub endpoint: lastmile_obs::ServeEndpoint,
}

impl Response {
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
            endpoint: lastmile_obs::ServeEndpoint::Other,
        }
    }

    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
            endpoint: lastmile_obs::ServeEndpoint::Other,
        }
    }

    pub fn csv(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/csv; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
            endpoint: lastmile_obs::ServeEndpoint::Other,
        }
    }

    /// Prometheus text exposition (format 0.0.4) — what a stock
    /// Prometheus scraper expects from `/metrics?format=prom`.
    pub fn prom(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: lastmile_obs::prom::CONTENT_TYPE,
            body: body.into(),
            extra_headers: Vec::new(),
            endpoint: lastmile_obs::ServeEndpoint::Metrics,
        }
    }

    /// Tag the endpoint family (builder-style).
    pub fn endpoint(mut self, endpoint: lastmile_obs::ServeEndpoint) -> Response {
        self.endpoint = endpoint;
        self
    }

    /// Append an extra header (builder-style).
    pub fn header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serialize status line + headers + body onto `w` and flush.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Reason phrase for the status codes the daemon emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        parse_request(&mut std::io::Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let req = parse(
            b"GET /v1/series/64500?from=100&to=200 HTTP/1.1\r\nHost: localhost\r\nX-Weird:  padded \r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/series/64500");
        assert_eq!(req.query, "from=100&to=200");
        assert_eq!(req.query_param("from"), Some("100"));
        assert_eq!(req.query_param("to"), Some("200"));
        assert_eq!(req.query_param("absent"), None);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("x-weird"), Some("padded"));
    }

    #[test]
    fn head_split_across_reads_still_parses() {
        // A reader that returns one byte at a time exercises the
        // incremental terminator search.
        struct OneByte(Vec<u8>, usize);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let req = parse_request(&mut OneByte(b"GET / HTTP/1.1\r\n\r\n".to_vec(), 0)).unwrap();
        assert_eq!(req.path, "/");
        assert_eq!(req.query, "");
    }

    #[test]
    fn accepts_bare_lf_and_mixed_terminators() {
        // LF-only clients (`printf 'GET / HTTP/1.1\n\n' | nc ...`) used
        // to pin a worker slot until the read timeout; the head must
        // terminate on `\n\n` just like `\r\n\r\n`.
        let req = parse(b"GET /v1/healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(req.header("host"), Some("x"));
        // Mixed endings: CRLF head lines, bare-LF blank line and the
        // other way round.
        let req = parse(b"GET /a HTTP/1.1\r\nHost: x\r\n\n").unwrap();
        assert_eq!(req.path, "/a");
        let req = parse(b"GET /b HTTP/1.0\nHost: x\n\r\n").unwrap();
        assert_eq!(req.path, "/b");
        // Bytes after a bare-LF terminator without a Content-Length are
        // discarded, not treated as a body.
        let req = parse(b"GET /c HTTP/1.1\n\nignored body").unwrap();
        assert_eq!(req.path, "/c");
        assert!(req.body.is_empty());
    }

    #[test]
    fn content_length_body_is_read_exactly() {
        let req = parse(b"POST /v1/traceroutes HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
        // Body split across reads (one byte at a time) still assembles.
        struct OneByte(Vec<u8>, usize);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let req = parse_request(&mut OneByte(
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd".to_vec(),
            0,
        ))
        .unwrap();
        assert_eq!(req.body, b"abcd");
        // Trailing bytes past the declared length are ignored.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nabEXTRA").unwrap();
        assert_eq!(req.body, b"ab");
        // Zero-length body is fine.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn body_framing_errors_map_to_their_statuses() {
        // Truncated body: peer closed before Content-Length bytes.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ParseError::Malformed(_))
        ));
        // Garbage Content-Length.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        // Chunked transfer encoding is out of scope.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        // An oversized declaration is refused before any body read.
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::BodyTooLarge)
        ));
    }

    #[test]
    fn byte_at_a_time_head_scan_stays_linear() {
        // Regression for the O(n^2) rescan: each failed terminator
        // search used to restart from byte 0, so a near-cap head
        // arriving one byte at a time examined ~n^2/2 bytes. Replicate
        // the resume arithmetic `parse_request` uses and count how many
        // bytes get examined; with incremental resume it is bounded by
        // one fresh byte plus the two-byte overlap per read.
        let head = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "x".repeat(MAX_HEAD_BYTES - 64)
        )
        .into_bytes();
        let mut buf = Vec::new();
        let mut scanned: usize = 0;
        let mut examined: u64 = 0;
        let mut found = None;
        for &b in &head {
            buf.push(b);
            let from = scanned.saturating_sub(HEAD_SCAN_OVERLAP);
            examined += (buf.len() - from) as u64;
            if let Some(pos) = find_head_end(&buf, from) {
                found = Some(pos);
                break;
            }
            scanned = buf.len();
        }
        assert_eq!(found, Some(head.len()));
        assert!(
            examined <= 3 * head.len() as u64,
            "examined {examined} bytes for a {}-byte head",
            head.len()
        );
        // And the real parser accepts the same head fed through a
        // one-byte reader without blowing the test timeout.
        struct OneByte(Vec<u8>, usize);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let req = parse_request(&mut OneByte(head, 0)).unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn query_param_repeated_keys_and_valueless_pairs() {
        let req = parse(b"GET /v1/series/1?from=&to=9&from=5&flag&=bare HTTP/1.1\r\n\r\n").unwrap();
        // First occurrence wins for repeated keys.
        assert_eq!(req.query_param("from"), Some(""));
        assert_eq!(req.query_param("to"), Some("9"));
        // A valueless pair reads as the empty string, distinct from an
        // absent key.
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        // `=bare` is an empty key, not a match for "bare".
        assert_eq!(req.query_param("bare"), None);
        assert_eq!(req.query_param(""), Some("bare"));
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(
            parse(b"GET /incomplete HTTP/1.1\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/3\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "x".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::HeadTooLarge)
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .header("Retry-After", "2")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }
}
