//! HTTP request/response types and wire framing.
//!
//! The simulated services speak a compact HTTP/1.1 subset. Bodies are
//! plain byte vectors: a rendered page moves into its response without a
//! copy, and the wire codec builds and returns one buffer per message.

// conformance: reactor-path — no blocking calls; the accept loop/parsers must never stall a lane

use crate::error::{NetError, NetResult};
use crate::url::Url;
use std::fmt;

/// HTTP method subset used by the study (the crawler only reads; forum
/// registration posts forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// HTTP GET.
    Get,
    /// HTTP POST.
    Post,
    /// HTTP HEAD.
    Head,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        })
    }
}

/// Status codes the simulated services emit. The vocabulary matters: the
/// paper's efficacy analysis (§8) keys on `Forbidden` vs `Not Found`
/// platform responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200 OK.
    Ok,
    /// 301 Moved Permanently.
    MovedPermanently,
    /// 302 Found.
    Found,
    /// 400 Bad Request.
    BadRequest,
    /// 401 Unauthorized.
    Unauthorized,
    /// 403 Forbidden.
    Forbidden,
    /// 404 Not Found.
    NotFound,
    /// 410 Gone.
    Gone,
    /// 429 Too Many Requests.
    TooManyRequests,
    /// 500 Internal Server Error.
    InternalError,
    /// 503 Service Unavailable.
    ServiceUnavailable,
}

impl Status {
    /// Numeric status code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::MovedPermanently => 301,
            Status::Found => 302,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::Gone => 410,
            Status::TooManyRequests => 429,
            Status::InternalError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::MovedPermanently => "Moved Permanently",
            Status::Found => "Found",
            Status::BadRequest => "Bad Request",
            Status::Unauthorized => "Unauthorized",
            Status::Forbidden => "Forbidden",
            Status::NotFound => "Not Found",
            Status::Gone => "Gone",
            Status::TooManyRequests => "Too Many Requests",
            Status::InternalError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// Parse a numeric code back into a `Status`.
    pub fn from_code(code: u16) -> Option<Status> {
        Some(match code {
            200 => Status::Ok,
            301 => Status::MovedPermanently,
            302 => Status::Found,
            400 => Status::BadRequest,
            401 => Status::Unauthorized,
            403 => Status::Forbidden,
            404 => Status::NotFound,
            410 => Status::Gone,
            429 => Status::TooManyRequests,
            500 => Status::InternalError,
            503 => Status::ServiceUnavailable,
            _ => return None,
        })
    }

    /// `true` for 3xx.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.code())
    }
}

/// An ordered, case-insensitive header map (small-N linear scan; requests in
/// this system carry a handful of headers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Empty header map.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Set a header, replacing any existing value for the (case-insensitive)
    /// name.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        let value = value.into();
        for (n, v) in &mut self.entries {
            if n.eq_ignore_ascii_case(name) {
                *v = value;
                return;
            }
        }
        self.entries.push((name.to_string(), value));
    }

    /// Get a header value by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no headers are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

foundation::json_codec_enum! {
    Method { Get, Post, Head }
    Status {
        Ok, MovedPermanently, Found, BadRequest, Unauthorized, Forbidden,
        NotFound, Gone, TooManyRequests, InternalError, ServiceUnavailable,
    }
}

/// Headers serialize as a JSON object in insertion order; decoding rejects
/// non-string values.
impl foundation::json::JsonCodec for Headers {
    fn to_json(&self) -> foundation::json::Json {
        foundation::json::Json::Obj(
            self.entries
                .iter()
                .map(|(n, v)| (n.clone(), foundation::json::Json::Str(v.clone())))
                .collect(),
        )
    }

    fn from_json(v: &foundation::json::Json) -> Result<Headers, foundation::json::JsonError> {
        let foundation::json::Json::Obj(fields) = v else {
            return Err(foundation::json::JsonError::decode("expected header object"));
        };
        let mut headers = Headers::new();
        for (name, value) in fields {
            let value = value.as_str().ok_or_else(|| {
                foundation::json::JsonError::decode(format!("header {name:?} must be a string"))
            })?;
            headers.set(name, value);
        }
        Ok(headers)
    }
}

/// An HTTP request as seen by a simulated service.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Url.
    pub url: Url,
    /// Headers.
    pub headers: Headers,
    /// Body.
    pub body: Vec<u8>,
}

impl Request {
    /// Build a GET request for `url`.
    pub fn get(url: Url) -> Request {
        Request {
            method: Method::Get,
            url,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Build a POST request with a form-encoded body.
    pub fn post_form(url: Url, fields: &[(&str, &str)]) -> Request {
        let body = fields
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}={}",
                    crate::url::encode_component(k),
                    crate::url::encode_component(v)
                )
            })
            .collect::<Vec<_>>()
            .join("&");
        let mut headers = Headers::new();
        headers.set("content-type", "application/x-www-form-urlencoded");
        Request {
            method: Method::Post,
            url,
            headers,
            body: body.into_bytes(),
        }
    }

    /// Set a header, builder-style.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// Decode a form-encoded body into `(key, value)` pairs.
    pub fn form_pairs(&self) -> Vec<(String, String)> {
        let s = String::from_utf8_lossy(&self.body);
        s.split('&')
            .filter(|p| !p.is_empty())
            .map(|p| match p.split_once('=') {
                Some((k, v)) => (
                    crate::url::decode_component(k),
                    crate::url::decode_component(v),
                ),
                None => (crate::url::decode_component(p), String::new()),
            })
            .collect()
    }

    /// Look up a form field by key.
    pub fn form_field(&self, key: &str) -> Option<String> {
        self.form_pairs().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status.
    pub status: Status,
    /// Headers.
    pub headers: Headers,
    /// Body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 OK with an empty body.
    pub fn ok() -> Response {
        Response {
            status: Status::Ok,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Response with the given status and empty body.
    pub fn status(status: Status) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// 404 with a plain-text explanation; `detail` becomes the body, which
    /// platform APIs use for their characteristic phrasing ("Page Not
    /// Found", "profile does not exist", ...).
    pub fn not_found(detail: &str) -> Response {
        Response::status(Status::NotFound).with_text(detail)
    }

    /// 302 redirect to `location`.
    pub fn redirect(location: &Url) -> Response {
        let mut r = Response::status(Status::Found);
        r.headers.set("location", location.to_string());
        r
    }

    /// Set a plain-text body (content-type `text/plain`), builder-style.
    pub fn with_text(mut self, text: impl Into<String>) -> Response {
        self.headers.set("content-type", "text/plain; charset=utf-8");
        self.body = text.into().into_bytes();
        self
    }

    /// Set an HTML body (content-type `text/html`), builder-style.
    pub fn with_html(mut self, html: impl Into<String>) -> Response {
        self.headers.set("content-type", "text/html; charset=utf-8");
        self.body = html.into().into_bytes();
        self
    }

    /// Set a JSON body (content-type `application/json`), builder-style.
    pub fn with_json(mut self, json: impl Into<String>) -> Response {
        self.headers.set("content-type", "application/json");
        self.body = json.into().into_bytes();
        self
    }

    /// Set a header, builder-style.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.set(name, value);
        self
    }

    /// Body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// `true` when the content-type indicates HTML.
    pub fn is_html(&self) -> bool {
        self.headers
            .get("content-type")
            .map(|ct| ct.starts_with("text/html"))
            .unwrap_or(false)
    }
}

/// Serialize a request to HTTP/1.1 wire bytes: request line, a `host`
/// header derived from the URL (virtual-hosting — the loopback server
/// routes on it), the request's own headers, and an explicit
/// `content-length`. Inverse of the incremental parser in
/// `acctrade-httpd`.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(96 + req.body.len());
    buf.extend_from_slice(format!("{} {} HTTP/1.1\r\n", req.method, req.url.target()).as_bytes());
    buf.extend_from_slice(format!("host: {}\r\n", req.url.host()).as_bytes());
    for (n, v) in req.headers.iter() {
        if n.eq_ignore_ascii_case("host") || n.eq_ignore_ascii_case("content-length") {
            continue;
        }
        buf.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    buf.extend_from_slice(format!("content-length: {}\r\n\r\n", req.body.len()).as_bytes());
    buf.extend_from_slice(&req.body);
    buf
}

/// Serialize a response to HTTP/1.1 wire bytes. Used by the framing tests
/// and the dataset exporter (raw captures).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + resp.body.len());
    buf.extend_from_slice(
        format!("HTTP/1.1 {} {}\r\n", resp.status.code(), resp.status.reason()).as_bytes(),
    );
    for (n, v) in resp.headers.iter() {
        buf.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    buf.extend_from_slice(format!("content-length: {}\r\n\r\n", resp.body.len()).as_bytes());
    buf.extend_from_slice(&resp.body);
    buf
}

/// Parse HTTP/1.1 wire bytes back into a [`Response`]. Inverse of
/// [`encode_response`].
pub fn decode_response(wire: &[u8]) -> NetResult<Response> {
    let err = |m: &str| NetError::Protocol(m.to_string());
    let header_end = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| err("missing header terminator"))?;
    let head = std::str::from_utf8(&wire[..header_end]).map_err(|_| err("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| err("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
    let proto = parts.next().unwrap_or("");
    if proto != "HTTP/1.1" {
        return Err(err("bad protocol"));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| err("bad status code"))?;
    let status = Status::from_code(code).ok_or_else(|| err("unknown status code"))?;
    let mut headers = Headers::new();
    let mut content_length = 0usize;
    for line in lines {
        let (n, v) = line.split_once(':').ok_or_else(|| err("bad header line"))?;
        let v = v.trim();
        if n.eq_ignore_ascii_case("content-length") {
            content_length = v.parse().map_err(|_| err("bad content-length"))?;
        } else {
            headers.set(n, v);
        }
    }
    let body_start = header_end + 4;
    let body = body_start
        .checked_add(content_length)
        .and_then(|body_end| wire.get(body_start..body_end))
        .ok_or_else(|| err("truncated body"))?;
    Ok(Response { status, headers, body: body.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_code_roundtrip() {
        for s in [
            Status::Ok,
            Status::MovedPermanently,
            Status::Found,
            Status::BadRequest,
            Status::Unauthorized,
            Status::Forbidden,
            Status::NotFound,
            Status::Gone,
            Status::TooManyRequests,
            Status::InternalError,
            Status::ServiceUnavailable,
        ] {
            assert_eq!(Status::from_code(s.code()), Some(s));
        }
        assert_eq!(Status::from_code(418), None);
    }

    #[test]
    fn headers_are_case_insensitive_and_replacing() {
        let mut h = Headers::new();
        h.set("Content-Type", "text/html");
        h.set("content-type", "application/json");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("CONTENT-TYPE"), Some("application/json"));
    }

    #[test]
    fn form_roundtrip() {
        let url = Url::parse("http://forum.onion/register").unwrap();
        let req = Request::post_form(url, &[("user", "alice b"), ("pass", "p&w=1")]);
        let pairs = req.form_pairs();
        assert_eq!(pairs[0], ("user".into(), "alice b".into()));
        assert_eq!(pairs[1], ("pass".into(), "p&w=1".into()));
        assert_eq!(req.form_field("pass").as_deref(), Some("p&w=1"));
    }

    #[test]
    fn wire_roundtrip() {
        let resp = Response::ok()
            .with_html("<html><body>offer</body></html>")
            .with_header("x-market", "accsmarket");
        let wire = encode_response(&resp);
        let back = decode_response(&wire).unwrap();
        assert_eq!(back.status, Status::Ok);
        assert_eq!(back.headers.get("x-market"), Some("accsmarket"));
        assert_eq!(back.text(), resp.text());
        assert!(back.is_html());
    }

    #[test]
    fn decode_rejects_truncation() {
        let resp = Response::ok().with_text("hello world");
        let wire = encode_response(&resp);
        assert!(decode_response(&wire[..wire.len() - 3]).is_err());
        assert!(decode_response(b"garbage").is_err());
    }

    #[test]
    fn decode_rejects_a_content_length_past_usize_max() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n";
        assert_eq!(
            decode_response(wire).unwrap_err(),
            NetError::Protocol("truncated body".into())
        );
    }

    #[test]
    fn request_wire_framing() {
        let url = Url::parse("http://shop.com/offers?page=2").unwrap();
        let req = Request::get(url).with_header("user-agent", "ua/1");
        let wire = encode_request(&req);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("GET /offers?page=2 HTTP/1.1\r\n"));
        assert!(text.contains("host: shop.com\r\n"));
        assert!(text.contains("user-agent: ua/1\r\n"));
        assert!(text.ends_with("content-length: 0\r\n\r\n"));
    }

    #[test]
    fn redirect_carries_location() {
        let to = Url::parse("http://a.com/next").unwrap();
        let r = Response::redirect(&to);
        assert!(r.status.is_redirect());
        assert_eq!(r.headers.get("location"), Some("http://a.com/next"));
    }
}
