//! Property tests on the network substrate's invariants.

use acctrade_net::captcha::{splitmix64, CaptchaGate, CaptchaKind};
use acctrade_net::clock::{format_date, unix_from_ymd, ymd};
use acctrade_net::http::{decode_response, encode_response, Response, Status};
use acctrade_net::robots::RobotsPolicy;
use acctrade_net::url::{decode_component, encode_component};
use foundation::check::{self, any_byte, any_u64, pattern};
use foundation::prop_check;

prop_check! {
    /// Civil-date conversion round-trips for every day in the study's
    /// century.
    fn ymd_roundtrip(days in 0i64..36_525) {
        let ts = days * 86_400;
        let (y, m, d) = ymd(ts);
        assert_eq!(unix_from_ymd(y, m, d), ts);
        // And the formatter agrees with the decomposition.
        let s = format_date(ts);
        assert_eq!(s, format!("{y:04}-{m:02}-{d:02}"));
    }

    /// Percent-encoding round-trips arbitrary ASCII.
    fn component_encoding_roundtrip(s in pattern("[ -~]{0,60}")) {
        assert_eq!(decode_component(&encode_component(&s)), s.as_str());
    }

    /// HTTP wire framing round-trips any body bytes.
    fn wire_roundtrip(body in check::vec(any_byte(), 0..500)) {
        let resp = Response {
            status: Status::Ok,
            headers: Default::default(),
            body: body.clone(),
        };
        let back = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(back.body, body);
        assert_eq!(back.status, Status::Ok);
    }

    /// robots.txt parsing is total and render/parse idempotent.
    fn robots_total_and_stable(text in pattern("\\PC{0,300}")) {
        let p = RobotsPolicy::parse(&text);
        let q = RobotsPolicy::parse(&p.render());
        assert_eq!(p, q);
    }

    /// splitmix64 is injective over small ranges (collision-free nonces).
    fn splitmix_injective(a in any_u64(), b in any_u64()) {
        if a != b {
            assert_ne!(splitmix64(a), splitmix64(b));
        }
    }

    /// A gate never verifies a token for a different challenge.
    fn captcha_tokens_bound_to_challenge(secret in any_u64(), wrong in any_u64()) {
        let mut gate = CaptchaGate::new(CaptchaKind::DistortedText, secret);
        let ch = gate.issue();
        // The only accepted token is the deterministic function of the
        // nonce; a random token is (overwhelmingly) rejected.
        assert!(!gate.verify(&ch, wrong) || wrong == splitmix64(ch.nonce ^ 0xC0FF_EE00_D15E_A5ED));
    }
}
