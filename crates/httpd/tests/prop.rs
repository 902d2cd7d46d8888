//! Property tests for the incremental request parser.

use acctrade_httpd::{ParsedRequest, RequestParser};
use foundation::check::{self, any_byte, any_u64, pattern};
use foundation::prop_check;

/// Parse a whole wire buffer in one feed, draining every request.
fn parse_once(wire: &[u8]) -> Result<Vec<ParsedRequest>, acctrade_httpd::ParseError> {
    let mut p = RequestParser::new();
    p.feed(wire);
    let mut out = Vec::new();
    while let Some(r) = p.next_request()? {
        out.push(r);
    }
    Ok(out)
}

/// Compare every field the serve loop consumes.
fn same(a: &ParsedRequest, b: &ParsedRequest) -> bool {
    a.method == b.method
        && a.target == b.target
        && a.http11 == b.http11
        && a.host == b.host
        && a.keep_alive == b.keep_alive
        && a.body == b.body
        && format!("{:?}", a.headers) == format!("{:?}", b.headers)
}

prop_check! {
    /// Splitting a valid request into arbitrary read chunks parses
    /// identically to feeding it whole — the core torn-read guarantee.
    fn chunk_split_identity(
        path in pattern("/[a-z0-9/]{0,20}"),
        body in check::vec(any_byte(), 0..120),
        cuts in check::vec(any_u64(), 0..8),
    ) {
        let wire = format!(
            "POST {path} HTTP/1.1\r\nhost: shard.example\r\nx-probe: 1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(&body);

        let whole = parse_once(&wire).expect("canonical request parses");
        assert_eq!(whole.len(), 1);

        // Cut points anywhere in the wire, in any order, duplicates fine.
        let mut cuts: Vec<usize> =
            cuts.iter().map(|&c| (c as usize) % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        let mut split = RequestParser::new();
        let mut start = 0;
        for cut in cuts {
            split.feed(&wire[start..cut]);
            // Interleave polls: a partial prefix must never error.
            if let Some(early) = split.next_request().expect("prefix of valid request") {
                assert!(same(&early, &whole[0]));
                return;
            }
            start = cut;
        }
        split.feed(&wire[start..]);
        let got = split.next_request().expect("full request parses").expect("complete");
        assert!(same(&got, &whole[0]), "chunked parse diverged for {got:?}");
    }

    /// Corrupting any single byte of a request never panics the
    /// parser: the outcome is a parsed request (the corruption landed
    /// somewhere tolerated, e.g. inside the body or a header value) or
    /// a clean `ParseError` — the serve loop's 400 path.
    fn single_byte_corruption_never_panics(
        pos in any_u64(),
        byte in any_byte(),
        body in check::vec(any_byte(), 0..40),
    ) {
        let wire = format!(
            "GET /offers?page=3 HTTP/1.1\r\nhost: m.example\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(&body);
        let pos = (pos as usize) % wire.len();
        wire[pos] = byte;

        // Must terminate without panicking; both Ok and Err are fine.
        let mut p = RequestParser::new();
        p.feed(&wire);
        for _ in 0..4 {
            match p.next_request() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Arbitrary binary garbage never panics either.
    fn garbage_never_panics(wire in check::vec(any_byte(), 0..300)) {
        let mut p = RequestParser::new();
        p.feed(&wire);
        while let Ok(Some(_)) = p.next_request() {}
    }
}
