//! Incremental HTTP/1.1 request parsing over [`acctrade_net::http`] types.
//!
//! The parser is a push-style state machine: the connection loop
//! [`RequestParser::feed`]s whatever bytes the socket produced — a torn
//! request line, half a header, several pipelined requests at once —
//! and [`RequestParser::next_request`] pulls complete requests off the
//! front of the buffer as they become available. Anything malformed is
//! a hard [`ParseError`]; the server answers it with a clean `400 Bad
//! Request` and closes the connection (errors are never recoverable
//! mid-stream: after a framing violation byte boundaries are gone).
//!
//! Supported surface (documented subset, mirroring what the simulated
//! services speak): `GET`/`POST`/`HEAD`, `HTTP/1.0` and `HTTP/1.1`,
//! `content-length`-framed bodies. `transfer-encoding` is rejected.

use acctrade_net::http::{Headers, Method, Request};
use acctrade_net::url::Url;
use std::fmt;

/// Hard ceiling on the request head (request line + headers) in bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard ceiling on a request body in bytes.
pub(crate) const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Hard ceiling on the number of header lines.
pub(crate) const MAX_HEADERS: usize = 64;

/// Why a byte stream was rejected. Every variant maps to `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line is not `METHOD SP target SP HTTP/1.x`.
    BadRequestLine(String),
    /// Unknown or unsupported method token.
    UnsupportedMethod(String),
    /// Not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion(String),
    /// The target is not an absolute path.
    BadTarget(String),
    /// A header line has no colon, an empty name, or embedded control
    /// bytes.
    BadHeader(String),
    /// The head grew past [`MAX_HEAD_BYTES`] without terminating.
    HeadTooLarge(usize),
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders(usize),
    /// `content-length` is not a decimal integer.
    BadContentLength(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// `transfer-encoding` framing is not supported.
    UnsupportedTransferEncoding,
    /// HTTP/1.1 requires a `host` header.
    MissingHost,
    /// The head is not valid UTF-8 / printable ASCII.
    NonAsciiHead,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            ParseError::UnsupportedMethod(m) => write!(f, "unsupported method: {m:?}"),
            ParseError::UnsupportedVersion(v) => write!(f, "unsupported version: {v:?}"),
            ParseError::BadTarget(t) => write!(f, "bad request target: {t:?}"),
            ParseError::BadHeader(h) => write!(f, "malformed header line: {h:?}"),
            ParseError::HeadTooLarge(n) => write!(f, "request head exceeds {n} bytes"),
            ParseError::TooManyHeaders(n) => write!(f, "more than {n} header lines"),
            ParseError::BadContentLength(v) => write!(f, "bad content-length: {v:?}"),
            ParseError::BodyTooLarge(n) => write!(f, "body exceeds {n} bytes"),
            ParseError::UnsupportedTransferEncoding => {
                f.write_str("transfer-encoding is not supported")
            }
            ParseError::MissingHost => f.write_str("HTTP/1.1 request without a host header"),
            ParseError::NonAsciiHead => f.write_str("request head is not clean ASCII"),
        }
    }
}

impl std::error::Error for ParseError {}

/// One fully parsed request plus the connection metadata the serve loop
/// needs (what the framing said about keep-alive).
#[derive(Debug, Clone)]
pub struct ParsedRequest {
    /// Method.
    pub method: Method,
    /// Raw request target as received (`/path?query`).
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Headers in wire order (`host` included).
    pub headers: Headers,
    /// Body bytes (exactly `content-length` of them).
    pub body: Vec<u8>,
    /// Logical host from the `host` header, lowercased, port stripped.
    pub host: String,
    /// Whether the connection may serve another request after this one.
    pub keep_alive: bool,
}

impl ParsedRequest {
    /// Reassemble the fabric-level [`Request`] the mounted
    /// [`acctrade_net::server::Service`]s expect. Fails only if host +
    /// target do not form a parseable URL (treated as a 400 upstream).
    pub fn to_request(&self) -> Option<Request> {
        let url = Url::parse(&format!("http://{}{}", self.host, self.target)).ok()?;
        Some(Request {
            method: self.method,
            url,
            headers: self.headers.clone(),
            body: self.body.clone(),
        })
    }
}

/// The incremental parser: an append buffer plus a resumable scan
/// cursor, so a request torn across arbitrarily many reads costs one
/// pass over each byte.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes already scanned for the head terminator; the next scan
    /// resumes here (minus 3, to catch a terminator spanning feeds).
    scanned: usize,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pull the next complete request off the buffer.
    ///
    /// * `Ok(Some(_))` — a full request was parsed and consumed;
    ///   call again to drain pipelined successors.
    /// * `Ok(None)` — the buffer holds a prefix of a valid request;
    ///   feed more bytes.
    /// * `Err(_)` — the stream is malformed; the connection must be
    ///   answered with 400 and closed.
    pub fn next_request(&mut self) -> Result<Option<ParsedRequest>, ParseError> {
        // Locate the head terminator, resuming the scan where the last
        // call left off (torn reads never rescan the whole head).
        let Some(head_end) = head_end(&self.buf, self.scanned) else {
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ParseError::HeadTooLarge(MAX_HEAD_BYTES));
            }
            return Ok(None);
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge(MAX_HEAD_BYTES));
        }

        let (request, content_length) = parse_head(&self.buf[..head_end])?;

        // Body: wait until every declared byte arrived.
        let body_start = head_end + 4;
        if content_length > MAX_BODY_BYTES {
            return Err(ParseError::BodyTooLarge(MAX_BODY_BYTES));
        }
        if self.buf.len() < body_start + content_length {
            // Head is scanned; remember that so the next call only
            // checks body completeness.
            self.scanned = head_end;
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        self.scanned = 0;
        Ok(Some(ParsedRequest { body, ..request }))
    }
}

/// Offset of the first `\r\n\r\n` in `buf`, searching from three bytes
/// before `scanned`, the length already searched (a terminator may
/// straddle the previous read). Shared by the server's parser and the
/// loopback client.
pub(crate) fn head_end(buf: &[u8], scanned: usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    buf[from..].windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + from)
}

/// Parse the head (request line + header lines, no terminator).
/// Returns the request with an empty body plus the declared
/// content-length.
fn parse_head(head: &[u8]) -> Result<(ParsedRequest, usize), ParseError> {
    // HTTP heads are ASCII by construction; reject control bytes other
    // than the CR/LF structure and horizontal tabs in field values.
    if head.iter().any(|&b| b >= 0x80 || (b < 0x20 && b != b'\r' && b != b'\n' && b != b'\t')) {
        return Err(ParseError::NonAsciiHead);
    }
    let head = std::str::from_utf8(head).map_err(|_| ParseError::NonAsciiHead)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");

    // Request line: METHOD SP target SP HTTP/1.x — exactly two spaces.
    let mut parts = request_line.split(' ');
    let (method, target, version) =
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
            _ => return Err(ParseError::BadRequestLine(clip(request_line))),
        };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "HEAD" => Method::Head,
        other => return Err(ParseError::UnsupportedMethod(clip(other))),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(ParseError::UnsupportedVersion(clip(other))),
    };
    if !target.starts_with('/') {
        return Err(ParseError::BadTarget(clip(target)));
    }

    // Header lines.
    let mut headers = Headers::new();
    let mut content_length = 0usize;
    let mut connection: Option<String> = None;
    let mut host: Option<String> = None;
    let mut count = 0usize;
    for line in lines {
        if line.is_empty() {
            // Only the final CRLFCRLF produces an empty split; an
            // empty line mid-head means a bare CRLF pair we already
            // treated as the terminator, so this cannot happen — but a
            // `\r\n` at the very start of the head does (robustness:
            // tolerate the RFC 7230 §3.5 leading empty line only).
            continue;
        }
        count += 1;
        if count > MAX_HEADERS {
            return Err(ParseError::TooManyHeaders(MAX_HEADERS));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::BadHeader(clip(line)));
        };
        let value = value.trim();
        if name.is_empty()
            || name.contains(' ')
            || name.contains('\t')
            || !name.chars().all(|c| c.is_ascii_graphic())
        {
            return Err(ParseError::BadHeader(clip(line)));
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| ParseError::BadContentLength(clip(value)))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::UnsupportedTransferEncoding);
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.to_ascii_lowercase());
        } else if name.eq_ignore_ascii_case("host") {
            let bare = value.split(':').next().unwrap_or("").to_ascii_lowercase();
            host = Some(bare);
        }
        headers.set(name, value);
    }

    let host = match host {
        Some(h) if !h.is_empty() => h,
        _ if http11 => return Err(ParseError::MissingHost),
        _ => String::new(),
    };

    // Keep-alive: 1.1 defaults on unless `connection: close`; 1.0
    // defaults off unless `connection: keep-alive`.
    let keep_alive = match connection.as_deref() {
        Some(c) if c.split(',').any(|t| t.trim() == "close") => false,
        Some(c) if c.split(',').any(|t| t.trim() == "keep-alive") => true,
        _ => http11,
    };

    Ok((
        ParsedRequest {
            method,
            target: target.to_string(),
            http11,
            headers,
            body: Vec::new(),
            host,
            keep_alive,
        },
        content_length,
    ))
}

/// Clip diagnostic text so a hostile request line cannot balloon logs.
fn clip(s: &str) -> String {
    const MAX: usize = 80;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let cut = (0..=MAX).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(wire: &[u8]) -> Result<Vec<ParsedRequest>, ParseError> {
        let mut p = RequestParser::new();
        p.feed(wire);
        let mut out = Vec::new();
        while let Some(req) = p.next_request()? {
            out.push(req);
        }
        Ok(out)
    }

    #[test]
    fn parses_simple_get() {
        let reqs =
            parse_all(b"GET /offers?page=2 HTTP/1.1\r\nhost: Shop.com:8080\r\n\r\n").unwrap();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.target, "/offers?page=2");
        assert_eq!(r.host, "shop.com");
        assert!(r.keep_alive);
        let req = r.to_request().unwrap();
        assert_eq!(req.url.host(), "shop.com");
        assert_eq!(req.url.query_param("page").as_deref(), Some("2"));
    }

    #[test]
    fn parses_post_body_split_across_feeds() {
        let wire = b"POST /submit HTTP/1.1\r\nhost: a.com\r\ncontent-length: 5\r\n\r\nhello";
        let mut p = RequestParser::new();
        for chunk in wire.chunks(3) {
            p.feed(chunk);
        }
        let r = p.next_request().unwrap().unwrap();
        assert_eq!(r.body, b"hello");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn partial_head_is_not_an_error() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HT");
        assert!(matches!(p.next_request(), Ok(None)));
        p.feed(b"TP/1.1\r\nhost: x.com\r\n\r\n");
        assert!(p.next_request().unwrap().is_some());
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let reqs = parse_all(
            b"GET /a HTTP/1.1\r\nhost: h.com\r\n\r\nGET /b HTTP/1.1\r\nhost: h.com\r\n\r\n",
        )
        .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].target, "/a");
        assert_eq!(reqs[1].target, "/b");
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let r =
            &parse_all(b"GET / HTTP/1.1\r\nhost: x.com\r\nconnection: close\r\n\r\n").unwrap()[0];
        assert!(!r.keep_alive);
        let r = &parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap()[0];
        assert!(!r.keep_alive);
        let r = &parse_all(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap()[0];
        assert!(r.keep_alive);
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse_all(b"GET /\r\nhost: x\r\n\r\n"),
            Err(ParseError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse_all(b"GET  / HTTP/1.1\r\n\r\n"),
            Err(ParseError::BadRequestLine(_)) | Err(ParseError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse_all(b"BREW /pot HTTP/1.1\r\nhost: x\r\n\r\n"),
            Err(ParseError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/2\r\nhost: x\r\n\r\n"),
            Err(ParseError::UnsupportedVersion(_))
        ));
        assert!(matches!(
            parse_all(b"GET foo HTTP/1.1\r\nhost: x\r\n\r\n"),
            Err(ParseError::BadTarget(_))
        ));
    }

    #[test]
    fn rejects_bad_headers_and_missing_host() {
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nbad name: v\r\nhost: x\r\n\r\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(parse_all(b"GET / HTTP/1.1\r\n\r\n"), Err(ParseError::MissingHost)));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nhost: x\r\ncontent-length: ten\r\n\r\n"),
            Err(ParseError::BadContentLength(_))
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nhost: x\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(ParseError::UnsupportedTransferEncoding)
        ));
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        assert_eq!(
            parse_all(&[b'a'; MAX_HEAD_BYTES + 1]).unwrap_err(),
            ParseError::HeadTooLarge(MAX_HEAD_BYTES)
        );

        // The declared length alone is refused; no body byte is awaited.
        let head = format!(
            "GET / HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            parse_all(head.as_bytes()).unwrap_err(),
            ParseError::BodyTooLarge(MAX_BODY_BYTES)
        );

        let mut head = String::from("GET / HTTP/1.1\r\nhost: x\r\n");
        for i in 0..MAX_HEADERS {
            head.push_str(&format!("x-{i}: {i}\r\n"));
        }
        head.push_str("\r\n");
        assert_eq!(
            parse_all(head.as_bytes()).unwrap_err(),
            ParseError::TooManyHeaders(MAX_HEADERS)
        );
    }

    #[test]
    fn binary_garbage_is_rejected_not_panicked() {
        assert!(parse_all(&[0xff, 0xfe, 0x00, b'\r', b'\n', b'\r', b'\n']).is_err());
        assert!(parse_all(b"\x01\x02\x03\r\n\r\n").is_err());
    }
}
