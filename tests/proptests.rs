//! Property-based tests on cross-crate invariants (`foundation::check`).

use acctrade::html::{parse, Selector};
use acctrade::market::site::format_price;
use acctrade::net::ratelimit::TokenBucket;
use acctrade::net::url::Url;
use acctrade::store::{decode_frame, encode_frame, Decoded};
use acctrade::text::similarity::word_similarity;
use acctrade::text::tokenize::tokenize;
use foundation::check::{self, pattern, PatternStrategy};
use foundation::prop_check;

/// Strategy for URL-safe host names.
fn host_strategy() -> PatternStrategy {
    pattern("[a-z][a-z0-9-]{0,12}(\\.[a-z]{2,5}){1,2}")
}

/// Strategy for URL paths.
fn path_strategy() -> PatternStrategy {
    pattern("(/[a-zA-Z0-9_.-]{1,8}){0,4}")
}

prop_check! {
    fn url_display_parse_roundtrip(host in host_strategy(), path in path_strategy()) {
        let url = Url::http(&host, &path);
        let reparsed = Url::parse(&url.to_string()).expect("display output parses");
        assert_eq!(url, reparsed);
    }

    fn url_join_produces_same_host_for_relative(host in host_strategy(),
                                                base in path_strategy(),
                                                link in pattern("[a-zA-Z0-9_.-]{1,8}")) {
        let url = Url::http(&host, &base);
        let joined = url.join(&link).expect("relative join succeeds");
        assert_eq!(joined.host(), url.host());
        assert!(joined.path().starts_with('/'));
    }

    fn html_escape_text_roundtrip(text in pattern("[ -~]{0,64}")) {
        // Build a document with the text, render, reparse: the text
        // content must survive (modulo whitespace normalization the DOM
        // applies).
        let mut b = acctrade::html::dom::Builder::new();
        b.open("p").text(text.to_string()).close();
        let rendered = b.finish().render();
        let doc = parse(&rendered);
        let p = doc.select_first(&Selector::parse("p").unwrap()).unwrap();
        let expect: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(p.text(), expect);
    }

    fn html_attr_roundtrip(value in pattern("[ -~&&[^<>]]{0,40}")) {
        let mut b = acctrade::html::dom::Builder::new();
        b.open("a").attr("title", value.to_string()).close();
        let rendered = b.finish().render();
        let doc = parse(&rendered);
        let a = doc.select_first(&Selector::parse("a").unwrap()).unwrap();
        assert_eq!(a.attr("title"), Some(value.as_str()));
    }

    fn tokenizer_tokens_are_lowercase_nonempty(text in pattern("\\PC{0,200}")) {
        for t in tokenize(&text) {
            assert!(!t.is_empty());
            // Lowercasing is idempotent on every token (some scripts have
            // uppercase-only codepoints with no lowercase mapping, e.g.
            // mathematical alphanumerics — those are fixed points).
            let lowered: String = t.chars().flat_map(char::to_lowercase).collect();
            assert_eq!(&lowered, &t, "token not lowercase-stable");
            assert!(!t.contains(char::is_whitespace));
        }
    }

    fn similarity_bounds_and_symmetry(a in pattern("[a-z ]{0,80}"), b in pattern("[a-z ]{0,80}")) {
        let s_ab = word_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s_ab));
        assert!((s_ab - word_similarity(&b, &a)).abs() < 1e-12);
        assert!((word_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    fn token_bucket_never_exceeds_rate(rate in 1.0f64..50.0,
                                       burst in 1.0f64..10.0,
                                       steps in check::vec(1_000u64..500_000, 1..100)) {
        let mut bucket = TokenBucket::new(rate, burst, 0);
        let mut now = 0u64;
        let mut grants = 0u64;
        for dt in &steps {
            now += dt;
            if bucket.try_acquire(now) {
                grants += 1;
            }
        }
        let cap = burst + rate * (now as f64 / 1e6) + 1.0;
        assert!((grants as f64) <= cap, "grants={grants} cap={cap}");
    }

    fn price_format_parse_roundtrip(cents in 100i64..2_000_000_000) {
        let usd = cents as f64 / 100.0;
        let formatted = format_price(usd);
        let parsed = acctrade::crawler::extract::parse_price(&formatted)
            .expect("formatted price parses");
        assert!((parsed - usd).abs() < 0.005, "{usd} -> {formatted} -> {parsed}");
    }

    fn median_is_order_statistic(values in check::vec(0.0f64..1e6, 1..50)) {
        let mut values = values;
        let m = acctrade::core::stats::median(&values).unwrap();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(m >= values[0] && m <= *values.last().unwrap());
        // At least half the values on each side.
        let below = values.iter().filter(|&&v| v <= m).count();
        let above = values.iter().filter(|&&v| v >= m).count();
        assert!(below * 2 >= values.len());
        assert!(above * 2 >= values.len());
    }

    fn ecdf_is_monotone(values in check::vec(-1e6f64..1e6, 1..60)) {
        let points = acctrade::core::stats::ecdf(&values);
        assert!(points.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-9);
    }
}

// WAL framing (`acctrade-store`): the checksummed binary format every
// crawl record passes through. Round-trip fidelity and corruption
// detection are what make the crash-recovery guarantees honest.
prop_check! {
    fn wal_frame_roundtrips_any_kind_and_payload(kind in 0u64..256,
                                                 payload in check::vec(0u64..256, 0..120)) {
        let kind = kind as u8;
        let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
        let frame = encode_frame(kind, &payload);
        match decode_frame(&frame) {
            Decoded::Frame { kind: k, payload: p, consumed } => {
                assert_eq!(k, kind);
                assert_eq!(p, &payload[..]);
                assert_eq!(consumed, frame.len(), "frame is self-delimiting");
            }
            other => panic!("round-trip lost the frame: {other:?}"),
        }
        // With trailing garbage (the next frame, a torn tail, anything),
        // decoding still yields exactly the first frame.
        let mut noisy = frame.clone();
        noisy.extend_from_slice(&payload);
        noisy.push(0x5A);
        match decode_frame(&noisy) {
            Decoded::Frame { payload: p, consumed, .. } => {
                assert_eq!(p, &payload[..]);
                assert_eq!(consumed, frame.len());
            }
            other => panic!("trailing bytes broke the first frame: {other:?}"),
        }
    }

    fn wal_frame_single_byte_corruption_is_always_detected(
            kind in 0u64..256,
            payload in check::vec(0u64..256, 0..120),
            idx in 0u64..1_000_000,
            mask in 1u64..256) {
        let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
        let mut frame = encode_frame(kind as u8, &payload);
        let idx = (idx as usize) % frame.len();
        frame[idx] ^= mask as u8;
        // Any single-byte flip — header, CRC, kind, or payload — must be
        // *rejected* (corrupt, or incomplete when the flipped length now
        // claims more bytes than exist), never silently decoded and never
        // a panic. CRC-32 detects all single-byte errors in the body; the
        // length-field guards catch the rest.
        match decode_frame(&frame) {
            Decoded::Corrupt | Decoded::Incomplete => {}
            Decoded::Frame { kind: k, payload: p, .. } => panic!(
                "corrupted frame (byte {idx} ^ {mask:#04x}) decoded as kind {k}, {} payload bytes",
                p.len()
            ),
        }
    }

    fn wal_frame_truncation_never_yields_a_frame(payload in check::vec(0u64..256, 0..80),
                                                 cut in 0u64..1_000_000) {
        let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
        let frame = encode_frame(1, &payload);
        let cut = (cut as usize) % frame.len(); // strictly shorter than the frame
        match decode_frame(&frame[..cut]) {
            Decoded::Incomplete | Decoded::Corrupt => {}
            Decoded::Frame { .. } => panic!("truncated frame decoded at cut {cut}"),
        }
    }
}

/// Deterministic offer record derived from one seed word — enough
/// field diversity to exercise every component of the merge key,
/// including ties on the leading timestamp and on (timestamp, market).
/// The payload (`title`) is a function of the merge key alone,
/// mirroring the engine: one (offer URL, iteration) is crawled by
/// exactly one shard at one virtual time, so records with equal keys
/// are equal records.
fn offer_from_seed(seed: u64) -> acctrade::crawler::OfferRecord {
    let market = seed % 5;
    let (url_id, time, iter) = (seed % 89, seed % 1_000, seed % 4);
    acctrade::crawler::OfferRecord {
        marketplace: format!("market-{market}"),
        offer_url: format!("https://market-{market}.example/offer/{url_id}"),
        title: format!("offer m{market} u{url_id} t{time} i{iter}"),
        seller: None,
        seller_country: None,
        price_usd: None,
        platform: None,
        category: None,
        claimed_followers: None,
        claims_verified: false,
        monthly_revenue_usd: None,
        income_source: None,
        description: None,
        profile_link: None,
        handle: None,
        collected_unix: time as i64,
        iteration: iter as usize,
    }
}

// Deterministic merge (`acctrade-crawler::merge`): the two properties
// the parallel crawl engine's honesty rests on. If either fails, the
// merged dataset would depend on shard completion order and the
// byte-identity guarantee across worker counts would be a fluke.
prop_check! {
    fn merge_is_invariant_under_shard_permutation(seeds in check::vec(check::any_u64(), 1..48),
                                                  twist in check::any_u64()) {
        use acctrade::crawler::merge::merge_shards;
        let records: Vec<_> = seeds.iter().map(|&s| offer_from_seed(s)).collect();

        // One completion order: round-robin over k shards.
        let k = (twist % 7 + 1) as usize;
        let mut shards: Vec<Vec<_>> = vec![Vec::new(); k];
        for (i, r) in records.iter().enumerate() {
            shards[i % k].push(r.clone());
        }
        let merged = merge_shards(shards.clone());

        // A different completion order: shards rotated and each shard's
        // arrival order reversed — as if every worker finished in the
        // opposite sequence.
        let mut permuted: Vec<Vec<_>> = shards
            .into_iter()
            .map(|mut s| {
                s.reverse();
                s
            })
            .collect();
        permuted.rotate_left((twist % k as u64) as usize);
        assert_eq!(merged, merge_shards(permuted), "shard permutation changed the merge");

        // And the degenerate single-shard order (pure sequential crawl).
        assert_eq!(merged, merge_shards(vec![records]), "sharding itself changed the merge");
    }

    fn merge_key_is_a_total_order(seeds in check::vec(check::any_u64(), 1..24)) {
        use acctrade::crawler::merge::{merge_key, merge_shards};
        use std::cmp::Ordering;
        let records: Vec<_> = seeds.iter().map(|&s| offer_from_seed(s)).collect();

        for a in &records {
            assert_eq!(merge_key(a).cmp(&merge_key(a)), Ordering::Equal, "reflexive");
            for b in &records {
                // Antisymmetry/totality: cmp in both directions agrees,
                // and equal keys mean equal key tuples.
                assert_eq!(
                    merge_key(a).cmp(&merge_key(b)),
                    merge_key(b).cmp(&merge_key(a)).reverse(),
                );
                for c in &records {
                    if merge_key(a) <= merge_key(b) && merge_key(b) <= merge_key(c) {
                        assert!(merge_key(a) <= merge_key(c), "transitive");
                    }
                }
            }
        }

        // The merged stream is sorted under that order — the order is
        // not just total but actually what the merge produces.
        let merged = merge_shards(vec![records]);
        assert!(merged.windows(2).all(|w| merge_key(&w[0]) <= merge_key(&w[1])));
    }
}

/// Shrinking regression: a failing property must be reported with the
/// *minimal* counterexample inside the strategy's support, not merely
/// the first failure found.
#[test]
fn shrinking_reports_minimal_counterexample() {
    let config = check::Config {
        cases: 64,
        max_shrink: 4_096,
        seed: 0xDECAF,
    };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check::run_with(
            "never_250_or_more",
            &config,
            &(0u64..100_000,),
            |&(v,)| assert!(v < 250),
        );
    }))
    .expect_err("property must fail");
    let message = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic carries a message");
    assert!(
        message.contains("minimal input: (250,)"),
        "expected the boundary counterexample 250, got: {message}"
    );
    assert!(message.contains("reproduce with CHECK_SEED="));
}
