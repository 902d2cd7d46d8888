//! A small, strict URL type.
//!
//! The crawler, the marketplace sites, and the platform APIs all exchange
//! URLs constantly; a full RFC 3986 implementation is out of scope, but the
//! subset here is parsed strictly (no silent truncation) and round-trips
//! through `Display`.

// conformance: reactor-path — no blocking calls; the accept loop/parsers must never stall a lane

use crate::error::{NetError, NetResult};
use std::fmt;

/// URL scheme. The fabric only routes `http`/`https`; `.onion` hosts are
/// conventionally reached over `http` through a Tor circuit, as on the real
/// dark web.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Http.
    Http,
    /// Https.
    Https,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        })
    }
}

/// A parsed absolute URL: `scheme://host/path?query`.
///
/// Invariants: `host` is non-empty lowercase; `path` always begins with `/`;
/// `query` excludes the leading `?` and is empty when absent. Fragments are
/// not modeled (servers never see them).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: Scheme,
    host: String,
    path: String,
    query: String,
}

impl Url {
    /// Parse an absolute URL.
    pub fn parse(s: &str) -> NetResult<Url> {
        let bad = || NetError::BadUrl(s.to_string());
        let (scheme, rest) = if let Some(r) = s.strip_prefix("http://") {
            (Scheme::Http, r)
        } else if let Some(r) = s.strip_prefix("https://") {
            (Scheme::Https, r)
        } else {
            return Err(bad());
        };
        if rest.is_empty() {
            return Err(bad());
        }
        let (host_part, tail) = match rest.find(['/', '?']) {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        if host_part.is_empty()
            || !host_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_')
        {
            return Err(bad());
        }
        let (path, query) = if let Some(q) = tail.strip_prefix('?') {
            ("/".to_string(), q.to_string())
        } else if tail.is_empty() {
            ("/".to_string(), String::new())
        } else {
            match tail.find('?') {
                Some(i) => (tail[..i].to_string(), tail[i + 1..].to_string()),
                None => (tail.to_string(), String::new()),
            }
        };
        if path.contains(char::is_whitespace) || query.contains(char::is_whitespace) {
            return Err(bad());
        }
        Ok(Url {
            scheme,
            host: host_part.to_ascii_lowercase(),
            path,
            query,
        })
    }

    /// Build a URL from parts; `path` is normalized to start with `/`.
    pub fn build(scheme: Scheme, host: &str, path: &str) -> Url {
        let path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        Url {
            scheme,
            host: host.to_ascii_lowercase(),
            path,
            query: String::new(),
        }
    }

    /// Shorthand for `Url::build(Scheme::Http, host, path)`.
    pub fn http(host: &str, path: &str) -> Url {
        Url::build(Scheme::Http, host, path)
    }

    /// Append one `key=value` pair to the query string. Values are
    /// percent-encoded minimally (space, `&`, `=`, `%`, `?`, `#`).
    pub fn with_param(mut self, key: &str, value: &str) -> Url {
        let pair = format!("{}={}", encode_component(key), encode_component(value));
        if self.query.is_empty() {
            self.query = pair;
        } else {
            self.query.push('&');
            self.query.push_str(&pair);
        }
        self
    }

    /// Scheme of the URL.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Lowercased host.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Path (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Raw query string (no leading `?`; empty when absent).
    pub fn query(&self) -> &str {
        &self.query
    }

    /// `true` if the host is a Tor onion service.
    pub fn is_onion(&self) -> bool {
        self.host.ends_with(".onion")
    }

    /// Decode the query string into `(key, value)` pairs, percent-decoding
    /// both sides. Pairs without `=` decode to an empty value.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        if self.query.is_empty() {
            return Vec::new();
        }
        self.query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| match p.split_once('=') {
                Some((k, v)) => (decode_component(k), decode_component(v)),
                None => (decode_component(p), String::new()),
            })
            .collect()
    }

    /// Look up a single query parameter by key.
    pub fn query_param(&self, key: &str) -> Option<String> {
        self.query_pairs().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Resolve a link target against this URL as base: absolute URLs parse
    /// as-is; `/rooted` paths replace path+query; relative paths resolve
    /// against the current directory.
    pub fn join(&self, link: &str) -> NetResult<Url> {
        if link.starts_with("http://") || link.starts_with("https://") {
            return Url::parse(link);
        }
        let (path_part, query) = match link.split_once('?') {
            Some((p, q)) => (p, q.to_string()),
            None => (link, String::new()),
        };
        let path = if path_part.starts_with('/') {
            path_part.to_string()
        } else {
            let dir = match self.path.rfind('/') {
                Some(i) => &self.path[..=i],
                None => "/",
            };
            format!("{dir}{path_part}")
        };
        Ok(Url {
            scheme: self.scheme,
            host: self.host.clone(),
            path: normalize_path(&path),
            query,
        })
    }

    /// Path plus query (the request target a server sees).
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.target())
    }
}

impl std::str::FromStr for Url {
    type Err = NetError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

foundation::json_codec_enum! {
    Scheme { Http, Https }
}

/// URLs serialize as their canonical string form and parse back through
/// [`Url::parse`] — malformed URL strings are decode errors.
impl foundation::json::JsonCodec for Url {
    fn to_json(&self) -> foundation::json::Json {
        foundation::json::Json::Str(self.to_string())
    }

    fn from_json(v: &foundation::json::Json) -> Result<Url, foundation::json::JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| foundation::json::JsonError::decode("expected URL string"))?;
        Url::parse(s)
            .map_err(|e| foundation::json::JsonError::decode(format!("bad URL: {e}")))
    }
}

/// Collapse `.` and `..` segments in an absolute path.
fn normalize_path(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "." | "" => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    let trailing_slash = path.ends_with('/') && !out.is_empty();
    let mut s = String::from("/");
    s.push_str(&out.join("/"));
    if trailing_slash {
        s.push('/');
    }
    s
}

/// Minimal percent-encoding for query components.
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b' ' => out.push_str("%20"),
            b'&' => out.push_str("%26"),
            b'=' => out.push_str("%3D"),
            b'%' => out.push_str("%25"),
            b'?' => out.push_str("%3F"),
            b'#' => out.push_str("%23"),
            b'+' => out.push_str("%2B"),
            _ => out.push(b as char),
        }
    }
    out
}

/// Inverse of [`encode_component`]; invalid escapes pass through literally.
pub fn decode_component(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Ok(v) = u8::from_str_radix(&s[i + 1..i + 3], 16) {
                out.push(v as char);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("https://Accs-Market.com/listings/ig?page=2&sort=price").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.host(), "accs-market.com");
        assert_eq!(u.path(), "/listings/ig");
        assert_eq!(u.query(), "page=2&sort=price");
        assert_eq!(u.query_param("page").as_deref(), Some("2"));
    }

    #[test]
    fn bare_host_gets_root_path() {
        let u = Url::parse("http://fameswap.com").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "http://fameswap.com/");
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "ftp://x.com", "http://", "http://ho st/", "not a url", "http://h^st/"] {
            assert!(Url::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn onion_detection() {
        let u = Url::parse("http://nexusabcd1234.onion/market").unwrap();
        assert!(u.is_onion());
        assert!(!Url::parse("http://accsmarket.com/").unwrap().is_onion());
    }

    #[test]
    fn join_relative_and_rooted() {
        let base = Url::parse("http://z2u.com/listings/tiktok/page3").unwrap();
        assert_eq!(
            base.join("/offer/99").unwrap().to_string(),
            "http://z2u.com/offer/99"
        );
        assert_eq!(
            base.join("page4?x=1").unwrap().to_string(),
            "http://z2u.com/listings/tiktok/page4?x=1"
        );
        assert_eq!(
            base.join("https://other.com/a").unwrap().host(),
            "other.com"
        );
    }

    #[test]
    fn join_normalizes_dotdot() {
        let base = Url::parse("http://h.com/a/b/c").unwrap();
        assert_eq!(base.join("../d").unwrap().path(), "/a/d");
        assert_eq!(base.join("../../../../d").unwrap().path(), "/d");
    }

    #[test]
    fn with_param_encodes() {
        let u = Url::http("api.x.com", "/users")
            .with_param("q", "a b&c=d")
            .with_param("n", "5");
        assert_eq!(u.query(), "q=a%20b%26c%3Dd&n=5");
        let pairs = u.query_pairs();
        assert_eq!(pairs[0], ("q".to_string(), "a b&c=d".to_string()));
        assert_eq!(pairs[1], ("n".to_string(), "5".to_string()));
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "http://a.com/",
            "https://b.co/x/y?k=v",
            "http://c.onion/forum?sec=accounts&page=1",
        ] {
            assert_eq!(Url::parse(s).unwrap().to_string(), s);
        }
    }
}
