//! Round-trip coverage for every `foundation::json::JsonCodec` impl in the
//! workspace, plus malformed-input rejection.
//!
//! The dataset artifact, the API bodies, and the bench report all flow
//! through these codecs; a silent asymmetry between encode and decode
//! would corrupt the study's released JSON. Every serializable type gets
//! `value -> to_string -> from_str -> value` checked for equality, and the
//! decoders are probed with the classic malformed shapes: unknown enum
//! variants, missing fields, wrong primitive types, truncated documents.
//! The two telemetry formats a run persists are pinned byte for byte.

use acctrade::crawler::record::{
    Dataset, FetchStatus, OfferRecord, PostRecord, ProfileRecord, UndergroundRecord,
};
use acctrade::crawler::{ApiOutcomeRecord, CampaignCheckpoint, IterationSnapshot};
use acctrade::market::config::{MarketplaceId, ALL_MARKETPLACES};
use acctrade::market::listing::{Listing, ListingId, ListingState, Monetization};
use acctrade::market::seller::{Seller, SellerId};
use acctrade::net::http::{Headers, Method, Status};
use acctrade::net::url::{Scheme, Url};
use acctrade::social::account::{
    AccountDisposition, AccountId, AccountProfile, AccountStatus, AccountType,
};
use acctrade::social::api::{ApiPost, ApiProfile};
use acctrade::social::platform::{Platform, ALL_PLATFORMS};
use acctrade::social::post::{Post, PostId};
use acctrade::telemetry::snapshot::HistogramSnap;
use acctrade::telemetry::{digest64, Recorder, Span, TelemetrySnapshot, VirtualClock};
use foundation::json::{self, JsonCodec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Encode → decode → compare, returning the wire string for extra checks.
fn roundtrip<T: JsonCodec + PartialEq + std::fmt::Debug>(value: &T) -> String {
    let wire = json::to_string(value);
    let back: T = json::from_str(&wire).expect("round-trip decode");
    assert_eq!(&back, value, "decode(encode(x)) != x; wire = {wire}");
    // Pretty form decodes to the same value too.
    let pretty: T = json::from_str(&json::to_string_pretty(value)).expect("pretty decode");
    assert_eq!(&pretty, value);
    wire
}

// ---------------------------------------------------------------- enums --

#[test]
fn platform_enum_roundtrips_and_rejects_unknown() {
    for p in ALL_PLATFORMS {
        let wire = roundtrip(&p);
        assert_eq!(wire, format!("{:?}", format!("{p:?}")), "unit variant is its name string");
    }
    assert!(json::from_str::<Platform>("\"MySpace\"").is_err());
    assert!(json::from_str::<Platform>("42").is_err());
}

#[test]
fn marketplace_enum_roundtrips_and_rejects_unknown() {
    for m in ALL_MARKETPLACES {
        roundtrip(&m);
    }
    assert!(json::from_str::<MarketplaceId>("\"Craigslist\"").is_err());
    assert!(json::from_str::<MarketplaceId>("null").is_err());
}

#[test]
fn account_enums_roundtrip() {
    for t in [
        AccountType::Standard,
        AccountType::Business,
        AccountType::Verified,
        AccountType::Private,
        AccountType::Protected,
    ] {
        roundtrip(&t);
    }
    for s in [AccountStatus::Active, AccountStatus::Banned, AccountStatus::Deleted] {
        roundtrip(&s);
    }
    for d in [
        AccountDisposition::Organic,
        AccountDisposition::Farmed,
        AccountDisposition::Harvested,
        AccountDisposition::ScamOperator,
    ] {
        roundtrip(&d);
    }
    assert!(json::from_str::<AccountType>("\"Influencer\"").is_err());
    assert!(json::from_str::<AccountStatus>("\"Zombie\"").is_err());
}

#[test]
fn listing_and_fetch_enums_roundtrip() {
    for s in [ListingState::Active, ListingState::Sold, ListingState::Delisted] {
        roundtrip(&s);
    }
    for f in [
        FetchStatus::Ok,
        FetchStatus::Forbidden,
        FetchStatus::NotFound,
        FetchStatus::Error,
    ] {
        roundtrip(&f);
    }
    assert!(json::from_str::<ListingState>("\"Pending\"").is_err());
    assert!(json::from_str::<FetchStatus>("\"Teapot\"").is_err());
}

#[test]
fn http_enums_roundtrip() {
    for m in [Method::Get, Method::Post, Method::Head] {
        roundtrip(&m);
    }
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
        roundtrip(&s);
    }
    for s in [Scheme::Http, Scheme::Https] {
        roundtrip(&s);
    }
    assert!(json::from_str::<Method>("\"PATCH\"").is_err());
    assert!(json::from_str::<Status>("\"ImATeapot\"").is_err());
}

// ------------------------------------------------------------- newtypes --

#[test]
fn newtype_ids_roundtrip_as_bare_numbers() {
    assert_eq!(roundtrip(&AccountId(77)), "77");
    assert_eq!(roundtrip(&PostId(12_345)), "12345");
    assert_eq!(roundtrip(&SellerId(3)), "3");
    // 2^53 - 1: the largest integer the f64-backed number model carries
    // exactly — ids above that are out of the codec's contract.
    assert_eq!(roundtrip(&ListingId((1 << 53) - 1)), ((1u64 << 53) - 1).to_string());
    assert!(json::from_str::<AccountId>("\"77\"").is_err(), "string is not an id");
    assert!(json::from_str::<ListingId>("-1").is_err(), "ids are unsigned");
}

// --------------------------------------------------------- URL / headers --

#[test]
fn url_roundtrips_as_canonical_string() {
    for raw in [
        "http://fameswap.example/offer/9",
        "https://api.youtube.example/channel/abc?part=stats",
        "http://dreadxyz.onion/forum/accounts",
    ] {
        let url = Url::parse(raw).unwrap();
        let wire = roundtrip(&url);
        assert_eq!(wire, format!("{:?}", url.to_string()));
    }
    // Malformed URL strings are decode errors, not panics.
    assert!(json::from_str::<Url>("\"ftp://nope.example/\"").is_err());
    assert!(json::from_str::<Url>("\"http://\"").is_err());
    assert!(json::from_str::<Url>("17").is_err());
}

#[test]
fn headers_roundtrip_in_insertion_order() {
    let mut h = Headers::new();
    h.set("User-Agent", "acctrade-crawler/1.0");
    h.set("Accept", "text/html");
    h.set("X-Request-Id", "abc-123");
    let wire = roundtrip(&h);
    // Insertion order is preserved on the wire.
    let ua = wire.find("User-Agent").unwrap();
    let acc = wire.find("Accept").unwrap();
    let rid = wire.find("X-Request-Id").unwrap();
    assert!(ua < acc && acc < rid, "header order lost: {wire}");
    // Non-string header values are rejected.
    assert!(json::from_str::<Headers>(r#"{"Content-Length": 42}"#).is_err());
    assert!(json::from_str::<Headers>("[]").is_err());
}

// -------------------------------------------------------------- structs --

fn sample_profile() -> AccountProfile {
    AccountProfile {
        id: AccountId(501),
        platform: Platform::Instagram,
        handle: "fashion.page".into(),
        name: "Fashion Page".into(),
        description: "27k real followers, niche fashion".into(),
        location: Some("US".into()),
        category: Some("fashion".into()),
        email: Some("seller@mail.example".into()),
        phone: None,
        website: Some("http://linkhub.example/fp".into()),
        created_unix: 1_431_648_000,
        account_type: AccountType::Business,
        followers: 27_431,
        following: 310,
        post_count: 902,
        status: AccountStatus::Active,
        disposition: AccountDisposition::Harvested,
    }
}

#[test]
fn account_profile_roundtrips_and_rejects_missing_fields() {
    roundtrip(&sample_profile());

    // Dropping a required field must fail the decode.
    let wire = json::to_string(&sample_profile());
    let truncated = wire.replace("\"handle\":", "\"renamed\":");
    assert!(json::from_str::<AccountProfile>(&truncated).is_err(), "missing field accepted");
    // Wrong primitive type in a field.
    let wrong = wire.replace("27431", "\"lots\"");
    assert!(json::from_str::<AccountProfile>(&wrong).is_err(), "string-for-u64 accepted");
}

#[test]
fn post_roundtrips() {
    let post = Post {
        id: PostId(9_001),
        platform: Platform::X,
        author: AccountId(501),
        text: "crypto doubling giveaway \u{1F680} — dm me".into(),
        created_unix: 1_706_000_000,
        likes: 12,
        views: 4_403,
        replies: 2,
        shares: 1,
    };
    let wire = roundtrip(&post);
    assert!(wire.contains("\\ud83d\\ude80") || wire.contains('\u{1F680}'), "non-BMP text survives");
    assert!(json::from_str::<Post>("{}").is_err());
    assert!(json::from_str::<Post>("[1,2,3]").is_err());
}

#[test]
fn api_types_roundtrip() {
    let profile = ApiProfile {
        user_id: 501,
        handle: "fashion.page".into(),
        name: "Fashion Page".into(),
        description: "bio".into(),
        location: None,
        category: Some("fashion".into()),
        email: None,
        phone: Some("+1-555-0100".into()),
        website: None,
        created_unix: 1_431_648_000,
        account_type: "business".into(),
        followers: 27_431,
        following: 310,
        post_count: 902,
        platform: "Instagram".into(),
    };
    roundtrip(&profile);

    let post = ApiPost {
        post_id: 9_001,
        author_id: 501,
        text: "hello".into(),
        created_unix: 1_706_000_000,
        likes: 1,
        views: 2,
        replies: 0,
        shares: 0,
    };
    roundtrip(&post);
    let wire = json::to_string(&vec![post.clone(), post]);
    let timeline: Vec<ApiPost> = json::from_str(&wire).unwrap();
    assert_eq!(timeline.len(), 2);

    assert!(json::from_str::<ApiProfile>(r#"{"user_id": "501"}"#).is_err());
}

#[test]
fn seller_and_listing_roundtrip() {
    let seller = Seller {
        id: SellerId(3),
        username: "igking".into(),
        country: Some("ID".into()),
        rating: 4.75,
        completed_sales: 212,
        joined_unix: 1_600_000_000,
    };
    roundtrip(&seller);

    let mut listing = Listing::new(
        ListingId(9),
        MarketplaceId::FameSwap,
        Platform::Instagram,
        SellerId(3),
        298.0,
    );
    listing.title = "IG fashion page, 27k real followers".into();
    listing.description = Some("aged 2015, organic growth".into());
    listing.category = Some("fashion".into());
    listing.claimed_followers = Some(27_431);
    listing.monetization = Some(Monetization {
        monthly_revenue_usd: 136.0,
        income_source: "Google AdSense".into(),
    });
    listing.profile_link = Some("http://instagram.example/fashion.page".into());
    listing.linked_handle = Some("fashion.page".into());
    listing.listed_unix = 1_700_000_000;
    listing.close(ListingState::Sold, 1_700_086_400);
    roundtrip(&listing);

    // `None` optionals encode as null and decode back to None.
    let bare = Listing::new(ListingId(1), MarketplaceId::Z2U, Platform::X, SellerId(1), 17.0);
    let wire = roundtrip(&bare);
    assert!(wire.contains("\"description\":null"), "missing optionals are explicit nulls");
}

// ------------------------------------------------------- crawl records --

fn sample_dataset() -> Dataset {
    Dataset {
        offers: vec![OfferRecord {
            marketplace: "FameSwap".into(),
            offer_url: "http://fameswap.example/offer/9".into(),
            title: "IG fashion page".into(),
            seller: Some("igking".into()),
            seller_country: Some("ID".into()),
            price_usd: Some(298.0),
            platform: Some("Instagram".into()),
            category: Some("fashion".into()),
            claimed_followers: Some(27_431),
            claims_verified: false,
            monthly_revenue_usd: Some(136.0),
            income_source: Some("Google AdSense".into()),
            description: Some("aged 2015".into()),
            profile_link: Some("http://instagram.example/fashion.page".into()),
            handle: Some("fashion.page".into()),
            collected_unix: 1_700_000_000,
            iteration: 2,
        }],
        profiles: vec![ProfileRecord {
            platform: "Instagram".into(),
            handle: "fashion.page".into(),
            status: FetchStatus::Ok,
            status_detail: None,
            user_id: Some(501),
            name: Some("Fashion Page".into()),
            description: Some("bio".into()),
            location: None,
            category: Some("fashion".into()),
            email: None,
            phone: None,
            website: None,
            created_unix: Some(1_431_648_000),
            account_type: Some("business".into()),
            followers: Some(27_431),
            post_count: Some(902),
        }],
        posts: vec![PostRecord {
            platform: "Instagram".into(),
            handle: "fashion.page".into(),
            author_id: 501,
            post_id: 9_001,
            text: "new drop".into(),
            created_unix: 1_706_000_000,
            likes: 12,
            views: 4_403,
        }],
        underground: vec![UndergroundRecord {
            market: "dread".into(),
            url: "http://dreadxyz.onion/post/4".into(),
            title: "aged IG accounts x100".into(),
            body: "bulk aged accounts, escrow ok".into(),
            author: "vendor77".into(),
            platform: Some("Instagram".into()),
            published_unix: Some(1_699_000_000),
            replies: Some(6),
            price_usd: Some(4.0),
            quantity: Some(100),
            screenshot: true,
        }],
    }
}

#[test]
fn crawl_records_and_dataset_roundtrip() {
    let ds = sample_dataset();
    roundtrip(&ds.offers[0]);
    roundtrip(&ds.profiles[0]);
    roundtrip(&ds.posts[0]);
    roundtrip(&ds.underground[0]);

    // The whole dataset through its public artifact API.
    let artifact = ds.to_json();
    let back = Dataset::from_json(&artifact).expect("artifact parses");
    assert_eq!(back, ds);
    // Encoding is canonical: re-encoding the decoded dataset is stable.
    assert_eq!(back.to_json(), artifact);
}

// ------------------------------------------------- campaign persistence --

#[test]
fn fetch_status_is_hashable_and_copy() {
    // The `Hash` derive feeds dedup sets in the persistence layer; make
    // sure it composes with the codec (same variant -> one set entry).
    let mut seen = std::collections::HashSet::new();
    for f in [FetchStatus::Ok, FetchStatus::Forbidden, FetchStatus::NotFound, FetchStatus::Error]
    {
        seen.insert(f);
        let wire = json::to_string(&f);
        seen.insert(json::from_str::<FetchStatus>(&wire).unwrap());
    }
    assert_eq!(seen.len(), 4, "decode maps onto the same hash bucket");
}

#[test]
fn iteration_snapshot_and_api_outcome_roundtrip() {
    let snap = IterationSnapshot {
        iteration: 3,
        at_unix: 1_707_000_000,
        cumulative_offers: 412,
        active_offers: 380,
        new_offers: 17,
    };
    roundtrip(&snap);
    assert!(json::from_str::<IterationSnapshot>(r#"{"iteration": 3}"#).is_err());

    let outcome = ApiOutcomeRecord {
        platform: "Instagram".into(),
        handle: "fashion.page".into(),
        status: FetchStatus::NotFound,
        at_unix: 1_710_000_000,
    };
    let wire = roundtrip(&outcome);
    assert!(wire.contains("\"NotFound\""), "status encodes as its variant name");
    let poisoned = wire.replace("\"NotFound\"", "\"Teapot\"");
    assert!(json::from_str::<ApiOutcomeRecord>(&poisoned).is_err());
}

#[test]
fn campaign_checkpoint_roundtrips_and_validates() {
    let cp = CampaignCheckpoint {
        schema: acctrade::crawler::persist::CHECKPOINT_SCHEMA.into(),
        seed: 0xACC7,
        config_digest: acctrade::telemetry::digest64("study-config"),
        iterations_total: 10,
        next_iteration: 2,
        days_between: 15,
        t0_unix: 1_706_745_600,
        campaign_started_us: 1_250,
        clock_us: 2_592_000_000_000,
        net_rng_words: 88_431,
        requests_issued: 12_007,
        committed_records: 512,
        segment_max_bytes: 1 << 20,
        step_unixes: vec![1_708_041_600],
        snapshots: vec![
            IterationSnapshot {
                iteration: 0,
                at_unix: 1_706_745_600,
                cumulative_offers: 300,
                active_offers: 300,
                new_offers: 300,
            },
            IterationSnapshot {
                iteration: 1,
                at_unix: 1_708_041_600,
                cumulative_offers: 330,
                active_offers: 290,
                new_offers: 30,
            },
        ],
        shard_cursors: vec![
            acctrade::crawler::persist::ShardCursor {
                marketplace: "Accsmarket".into(),
                chain: 0,
                lane_end_us: 2_591_000_000_000,
                lane_rng_words: 96,
                records: 0,
            },
            acctrade::crawler::persist::ShardCursor {
                marketplace: "Accsmarket".into(),
                chain: 1,
                lane_end_us: 2_591_900_000_000,
                lane_rng_words: 1_024,
                records: 41,
            },
        ],
        telemetry: acctrade::telemetry::Recorder::new().snapshot(),
        economy_scenario: "all".into(),
        complete: false,
    };
    assert!(cp.validate().is_ok(), "{:?}", cp.validate());

    // The on-disk pretty form parses back to the identical value, and the
    // wire form round-trips through the generic codec too.
    let back = CampaignCheckpoint::parse(&cp.to_json_pretty()).unwrap();
    assert_eq!(back, cp);
    roundtrip(&cp);

    // Malformed checkpoints are decode or validation errors, not panics.
    assert!(CampaignCheckpoint::parse("{").is_err());
    assert!(CampaignCheckpoint::parse("null").is_err());
    let missing = cp.to_json_pretty().replace("\"seed\"", "\"sede\"");
    assert!(CampaignCheckpoint::parse(&missing).is_err());
    let mut bad = cp.clone();
    bad.config_digest = "short".into();
    assert!(bad.validate().is_err(), "digest length is validated");
    let mut dup = cp.clone();
    dup.shard_cursors.push(dup.shard_cursors[0].clone());
    assert!(dup.validate().is_err(), "duplicate (marketplace, chain) cursors are rejected");
}

#[test]
fn store_manifest_roundtrips_via_generic_codec() {
    let manifest = acctrade::store::StoreManifest {
        schema: "acctrade-store/v1".into(),
        segment_max_bytes: 4096,
        total_records: 7,
        segments: vec![
            acctrade::store::SegmentEntry { file: "wal-00000.seg".into(), records: 4, bytes: 3_900 },
            acctrade::store::SegmentEntry { file: "wal-00001.seg".into(), records: 3, bytes: 2_100 },
        ],
    };
    assert!(manifest.validate().is_ok());
    roundtrip(&manifest);
    // Per-segment record counts must sum to the advertised total.
    let mut bad = manifest.clone();
    bad.total_records = 99;
    assert!(bad.validate().is_err());
}

#[test]
fn dataset_rejects_malformed_documents() {
    // Truncated JSON.
    let artifact = sample_dataset().to_json();
    assert!(Dataset::from_json(&artifact[..artifact.len() / 2]).is_err());
    // Trailing garbage after a valid document.
    assert!(Dataset::from_json(&format!("{artifact} trailing")).is_err());
    // Wrong top-level shape.
    assert!(Dataset::from_json("[]").is_err());
    assert!(Dataset::from_json("\"dataset\"").is_err());
    // A record with a mistyped field deep inside.
    let poisoned = artifact.replace("\"claims_verified\": false", "\"claims_verified\": \"no\"");
    assert_ne!(poisoned, artifact, "replacement must hit");
    assert!(Dataset::from_json(&poisoned).is_err());
    // Not JSON at all.
    assert!(Dataset::from_json("").is_err());
    assert!(Dataset::from_json("{offers: []}").is_err(), "unquoted keys rejected");
}

// ------------------------------------------------- conformance report --

#[test]
fn conformance_finding_roundtrips() {
    let finding = acctrade::conformance::report::Finding {
        rule: "determinism".into(),
        file: "crates/core/src/anatomy.rs".into(),
        line: 42,
        col: 7,
        message: "`HashMap` in a crate that feeds serialized output".into(),
    };
    let wire = roundtrip(&finding);
    assert!(wire.contains("\"rule\""), "field names are on the wire: {wire}");
    // Missing field and mistyped line are rejected.
    assert!(json::from_str::<acctrade::conformance::report::Finding>(
        "{\"rule\": \"determinism\", \"file\": \"a.rs\"}"
    )
    .is_err());
    assert!(json::from_str::<acctrade::conformance::report::Finding>(
        &wire.replace("42", "\"42\"")
    )
    .is_err());
}

#[test]
fn conformance_report_roundtrips() {
    use acctrade::conformance::report;
    let report = report::LintReport {
        schema: report::LINT_SCHEMA.into(),
        files_scanned: 140,
        manifests_scanned: 14,
        suppressed: 3,
        arch_digest: "7d8e59b3d406be21".into(),
        rule_counts: vec![
            report::RuleCount { rule: "panic-policy".into(), findings: 1, suppressed: 3 },
            report::RuleCount { rule: "zero-dep".into(), findings: 1, suppressed: 0 },
        ],
        unsafe_inventory: vec![
            report::UnsafeSite {
                file: "crates/telemetry/src/trace.rs".into(),
                line: 213,
                kind: "impl".into(),
            },
            report::UnsafeSite {
                file: "crates/foundation/src/json.rs".into(),
                line: 369,
                kind: "block".into(),
            },
        ],
        findings: vec![
            report::Finding {
                rule: "panic-policy".into(),
                file: "crates/core/src/study.rs".into(),
                line: 198,
                col: 14,
                message: "`.expect(…)` in library code".into(),
            },
            report::Finding {
                rule: "zero-dep".into(),
                file: "Cargo.toml".into(),
                line: 12,
                col: 1,
                message: "external dependency `serde`".into(),
            },
        ],
    };
    let wire = roundtrip(&report);
    assert!(wire.contains("\"arch_digest\""), "v2 fields are on the wire: {wire}");
    assert!(wire.contains("\"unsafe_inventory\""));
    // An empty (clean) report round-trips too — that is the shape CI
    // byte-compares across the double run — and carries the v2 schema.
    assert!(report::LintReport::default().clean());
    assert_eq!(report::LintReport::default().schema, report::LINT_SCHEMA);
    roundtrip(&report::LintReport::default());
    assert!(json::from_str::<report::LintReport>("[]").is_err());
}

#[test]
fn conformance_arch_baseline_roundtrips() {
    use acctrade::conformance::report;
    let baseline = report::ArchBaseline {
        schema: "acctrade-arch/v1".into(),
        crates: vec![
            report::ArchCrate {
                package: "acctrade-conformance".into(),
                lib_name: "conformance".into(),
                deps: vec!["acctrade-foundation".into()],
                dev_deps: vec![],
            },
            report::ArchCrate {
                package: "acctrade-foundation".into(),
                lib_name: "foundation".into(),
                deps: vec![],
                dev_deps: vec![],
            },
        ],
    };
    let wire = roundtrip(&baseline);
    assert!(wire.contains("\"lib_name\""), "crate rows are on the wire: {wire}");
    // A mistyped field (number where a string belongs) is rejected.
    let poisoned = wire.replace("\"lib_name\":\"conformance\"", "\"lib_name\":7");
    assert_ne!(poisoned, wire, "replacement must hit");
    assert!(json::from_str::<report::ArchBaseline>(&poisoned).is_err());
    // The committed baseline itself parses and is canonically rendered.
    let committed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/ARCH_baseline.json"))
        .expect("committed baseline");
    let parsed: report::ArchBaseline = json::from_str(&committed).expect("baseline parses");
    assert_eq!(json::to_string_pretty(&parsed) + "\n", committed, "canonical formatting");
    assert!(parsed.crates.len() >= 14, "every workspace crate is pinned");
}

// ------------------------------------------------------------ telemetry --

/// A virtual clock the telemetry fixtures set by hand.
struct ManualClock(AtomicU64);

impl ManualClock {
    fn set(&self, us: u64) {
        self.0.store(us, Ordering::Relaxed);
    }
}

impl VirtualClock for ManualClock {
    fn now_us(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A recorder holding every kind of persisted telemetry state: a span
/// with a nested child, a span still open (returned as the guard),
/// events, counters, a gauge and a histogram.
fn telemetry_fixture() -> (Recorder, Span) {
    let clock = Arc::new(ManualClock(AtomicU64::new(1_000)));
    let rec = Recorder::new();
    rec.set_virtual_clock(clock.clone());
    {
        let _deploy = rec.span("deploy");
        clock.set(1_500);
        {
            let _render = rec.span("render");
            clock.set(2_250);
        }
        rec.event("deploy.done", "marketplaces=11");
    }
    clock.set(3_000);
    let open = rec.span("crawl_campaign");
    clock.set(7_500);
    rec.event("campaign.iteration", "iteration=0");
    rec.incr("crawl.pages", &[("marketplace", "Accsmarket")], 12);
    rec.incr("crawl.offers", &[("marketplace", "Accsmarket")], 9);
    rec.incr("api.calls", &[("platform", "X"), ("outcome", "ok")], 4);
    rec.gauge_set("crawl.frontier_peak", &[], 17.5);
    for v in [0, 300, 700, 1_000_000] {
        rec.observe("net.latency_us", &[("host", "x.com")], v);
    }
    (rec, open)
}

/// The checkpointed snapshot and the deterministic manifest are the two
/// telemetry formats that outlive a process: `checkpoint.json` embeds the
/// first, and determinism comparisons read the second. Pin their exact
/// bytes so a codec change cannot slip through a round-trip test.
#[test]
fn telemetry_snapshot_and_manifest_match_golden() {
    let (rec, open) = telemetry_fixture();
    let snapshot = rec.snapshot();
    assert!(snapshot.validate().is_ok(), "{:?}", snapshot.validate());
    assert_eq!(json::to_string_pretty(&snapshot), TELEMETRY_SNAPSHOT_GOLDEN);
    // A restored recorder snapshots to the same bytes.
    let restored = Recorder::from_snapshot(&snapshot);
    assert_eq!(json::to_string_pretty(&restored.snapshot()), TELEMETRY_SNAPSHOT_GOLDEN);
    let manifest = rec.manifest("golden", 7, &digest64("cfg"));
    assert_eq!(manifest.deterministic_string(), TELEMETRY_MANIFEST_GOLDEN);
    drop(open);
}

const TELEMETRY_SNAPSHOT_GOLDEN: &str = r#"{
  "schema": "acctrade-telemetry-snapshot/v1",
  "counters": [
    {
      "name": "api.calls",
      "labels": [
        {
          "k": "outcome",
          "v": "ok"
        },
        {
          "k": "platform",
          "v": "X"
        }
      ],
      "value": 4
    },
    {
      "name": "crawl.offers",
      "labels": [
        {
          "k": "marketplace",
          "v": "Accsmarket"
        }
      ],
      "value": 9
    },
    {
      "name": "crawl.pages",
      "labels": [
        {
          "k": "marketplace",
          "v": "Accsmarket"
        }
      ],
      "value": 12
    }
  ],
  "gauges": [
    {
      "name": "crawl.frontier_peak",
      "labels": [],
      "value": 17.5
    }
  ],
  "histograms": [
    {
      "name": "net.latency_us",
      "labels": [
        {
          "k": "host",
          "v": "x.com"
        }
      ],
      "buckets": [
        {
          "idx": 0,
          "n": 1
        },
        {
          "idx": 9,
          "n": 1
        },
        {
          "idx": 10,
          "n": 1
        },
        {
          "idx": 20,
          "n": 1
        }
      ],
      "count": 4,
      "sum": 1001000,
      "min": 0,
      "max": 1000000
    }
  ],
  "events": [
    {
      "at_virtual_us": 2250,
      "name": "deploy.done",
      "detail": "marketplaces=11"
    },
    {
      "at_virtual_us": 7500,
      "name": "campaign.iteration",
      "detail": "iteration=0"
    }
  ],
  "spans": [
    {
      "name": "deploy",
      "path": "deploy",
      "depth": 0,
      "start_seq": 0,
      "virtual_start_us": 1000,
      "virtual_end_us": 2250
    },
    {
      "name": "render",
      "path": "deploy/render",
      "depth": 1,
      "start_seq": 1,
      "virtual_start_us": 1500,
      "virtual_end_us": 2250
    }
  ],
  "next_seq": 2
}"#;

const TELEMETRY_MANIFEST_GOLDEN: &str = r#"{
  "schema": "acctrade-telemetry/v1",
  "run": "golden",
  "seed": 7,
  "config_digest": "f5e618190ce6f5e1",
  "virtual_start_us": 1000,
  "virtual_end_us": 7500,
  "stages": [
    {
      "name": "deploy",
      "path": "deploy",
      "depth": 0,
      "virtual_start_us": 1000,
      "virtual_us": 1250
    },
    {
      "name": "render",
      "path": "deploy/render",
      "depth": 1,
      "virtual_start_us": 1500,
      "virtual_us": 750
    }
  ],
  "counters": [
    {
      "key": "api.calls{outcome=ok,platform=X}",
      "value": 4
    },
    {
      "key": "crawl.offers{marketplace=Accsmarket}",
      "value": 9
    },
    {
      "key": "crawl.pages{marketplace=Accsmarket}",
      "value": 12
    }
  ],
  "gauges": [
    {
      "key": "crawl.frontier_peak",
      "value": 17.5
    }
  ],
  "histograms": [
    {
      "key": "net.latency_us{host=x.com}",
      "count": 4,
      "sum": 1001000,
      "min": 0,
      "max": 1000000,
      "p50": 511,
      "p90": 1000000,
      "p99": 1000000
    }
  ],
  "crawl": [
    {
      "marketplace": "Accsmarket",
      "pages": 12,
      "offers": 9,
      "fetch_errors": 0,
      "gone_offers": 0
    }
  ],
  "api": [
    {
      "platform": "X",
      "outcome": "ok",
      "calls": 4
    }
  ],
  "events": [
    {
      "at_virtual_us": 2250,
      "name": "deploy.done",
      "detail": "marketplaces=11"
    },
    {
      "at_virtual_us": 7500,
      "name": "campaign.iteration",
      "detail": "iteration=0"
    }
  ]
}"#;

/// The fixture's snapshot with one histogram bucket changed by `edit`.
fn snapshot_with_bucket(edit: impl FnOnce(&mut HistogramSnap)) -> TelemetrySnapshot {
    let (rec, _open) = telemetry_fixture();
    let mut snap = rec.snapshot();
    assert!(snap.validate().is_ok());
    edit(&mut snap.histograms[0]);
    snap
}

#[test]
fn telemetry_snapshot_rejects_out_of_range_bucket() {
    // Index 65 is past the last bucket; the restore would drop it and
    // leave `count` above the bucket sum.
    let snap = snapshot_with_bucket(|h| {
        let mut extra = h.buckets[0].clone();
        extra.idx = 65;
        h.buckets.push(extra);
        h.count += 1;
    });
    let err = snap.validate().expect_err("bucket index 65 is rejected");
    assert!(err.contains("65"), "{err}");
}

#[test]
fn telemetry_snapshot_rejects_repeated_bucket() {
    // A repeated index would be restored as its last value only.
    let snap = snapshot_with_bucket(|h| {
        let again = h.buckets[1].clone();
        h.count += again.n;
        h.buckets.insert(2, again);
    });
    let err = snap.validate().expect_err("a repeated bucket index is rejected");
    assert!(err.contains("bucket"), "{err}");
}

#[test]
fn telemetry_snapshot_rejects_span_ordinal_at_or_past_next_seq() {
    // The resumed recorder would hand ordinal `next_seq` out again.
    let (rec, _open) = telemetry_fixture();
    let mut snap = rec.snapshot();
    assert!(snap.validate().is_ok());
    snap.spans[1].start_seq = snap.next_seq;
    let err = snap.validate().expect_err("a span ordinal at next_seq is rejected");
    assert!(err.contains("start_seq"), "{err}");
}
