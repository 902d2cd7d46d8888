//! The fabric is shared state (`Arc<SimNet>` + interior mutability); the
//! analyses assume its request count and clock stay consistent under
//! concurrent clients. These tests drive it from `std::thread::scope`
//! scoped threads (re-exported through `foundation::sync`).

use acctrade_net::latency::LatencyModel;
use acctrade_net::prelude::*;
use acctrade_net::ratelimit::TokenBucket;
use foundation::sync::{scope, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

struct Echo;

impl Service for Echo {
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Response {
        Response::ok().with_text(format!("{} from {}", req.url.path(), ctx.peer))
    }
}

/// [`Echo`] that records the virtual time each request arrives at.
struct Stamped(Arc<Mutex<Vec<u64>>>);

impl Service for Stamped {
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Response {
        self.0.lock().push(ctx.now_us);
        Echo.handle(req, ctx)
    }
}

#[test]
fn parallel_clients_share_one_fabric() {
    let net = SimNet::new(99);
    net.register_with("echo.com", Echo, LatencyModel::Fixed { us: 10 });

    const THREADS: usize = 8;
    const REQUESTS: usize = 50;
    scope(|s| {
        for t in 0..THREADS {
            let net = Arc::clone(&net);
            s.spawn(move || {
                let client = Client::new(&net, &format!("client-{t}"));
                for i in 0..REQUESTS {
                    let resp = client.get(&format!("http://echo.com/{t}/{i}")).unwrap();
                    assert_eq!(resp.status, Status::Ok);
                }
            });
        }
    });

    // Every request was counted exactly once, and the clock advanced by
    // exactly the total fixed latency.
    assert_eq!(net.request_count(), THREADS * REQUESTS);
    let expected_us = (THREADS * REQUESTS) as u64 * 10;
    let elapsed = net.clock().now_us()
        - acctrade_net::clock::COLLECTION_START_UNIX as u64 * 1_000_000;
    assert_eq!(elapsed, expected_us);
}

/// Deterministic many-thread stress on a *shared* token bucket: 8 worker
/// threads hammer one `Mutex<TokenBucket>` while a virtual clock ticks
/// forward atomically. Whatever the interleaving, the number of grants is
/// bounded by `burst + rate * elapsed` (no token is ever minted twice),
/// and the post-hoc bucket state agrees with the grant count.
#[test]
fn shared_token_bucket_conserves_tokens_across_eight_threads() {
    const THREADS: usize = 8;
    const ATTEMPTS_PER_THREAD: usize = 250;
    const TICK_US: u64 = 1_000; // each attempt advances virtual time 1 ms

    let rate = 20.0; // tokens per virtual second
    let burst = 5.0;
    let bucket = Mutex::new(TokenBucket::new(rate, burst, 0));
    let clock = AtomicU64::new(0);
    let grants = AtomicUsize::new(0);

    scope(|s| {
        for _ in 0..THREADS {
            let bucket = &bucket;
            let clock = &clock;
            let grants = &grants;
            s.spawn(move || {
                for _ in 0..ATTEMPTS_PER_THREAD {
                    // Advance the shared virtual clock, then try at the
                    // post-advance instant. `fetch_add` makes every thread
                    // observe a distinct, monotone timestamp.
                    let now = clock.fetch_add(TICK_US, Ordering::SeqCst) + TICK_US;
                    if bucket.lock().try_acquire(now) {
                        grants.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let total_attempts = THREADS * ATTEMPTS_PER_THREAD;
    let final_us = clock.load(Ordering::SeqCst);
    assert_eq!(final_us, total_attempts as u64 * TICK_US);

    let granted = grants.into_inner();
    let elapsed_s = final_us as f64 / 1e6;
    let minted = burst + rate * elapsed_s; // 5 + 20 * 2s = 45 tokens ever
    // Conservation: can't grant more tokens than were ever minted.
    assert!(
        (granted as f64) <= minted + 1e-9,
        "granted={granted} exceeds mint cap {minted}"
    );
    // Utilisation: 2 000 attempts chase 45 tokens, so contention can't
    // starve the bucket — every refilled token finds a taker (the only
    // slack is sub-token residue plus the few ticks the full bucket
    // absorbs at startup before the burst drains).
    let lower = (rate * elapsed_s).floor() as usize; // refill alone, sans burst
    assert!(
        granted >= lower - 1,
        "granted={granted} below refill floor {lower}"
    );
    // Post-hoc ledger: grants + residue ≈ minted. The tolerance covers
    // float residue and the ≤ `THREADS` capped ticks at startup.
    let remaining = bucket.into_inner().available(final_us);
    let ledger = granted as f64 + remaining;
    assert!(
        (minted - ledger).abs() < 1.0 + THREADS as f64 * rate * (TICK_US as f64 / 1e6),
        "ledger {ledger} vs minted {minted}"
    );
}

/// Crawl etiquette under sharding: when two shard clients (forked with
/// `host_share = 2`) crawl the *same* host from two OS threads, their
/// combined request stream — in virtual time, across both lanes — must
/// never exceed what ONE sequential polite crawler with the full
/// (rate, burst) budget would have issued. Parallelism is allowed to
/// change wall-clock time, never request density against a host.
#[test]
fn two_shards_on_one_host_respect_the_single_crawler_budget() {
    let net = SimNet::new(17);
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let stamped = Stamped(Arc::clone(&arrivals));
    net.register_with("market.example", stamped, LatencyModel::Fixed { us: 2_000 });

    let rate = 4.0; // the host's etiquette budget, requests per virtual second
    let burst = 4.0;
    let base = Client::new(&net, "acctrade-crawler/0.1").with_politeness(rate, burst);

    const PER_SHARD: usize = 30;
    let lanes = [net.lane(0xA11CE), net.lane(0xB0B)];
    assert_eq!(lanes[0].start_us(), lanes[1].start_us(), "shards start together");
    scope(|s| {
        for lane in &lanes {
            let shard = base.fork_for_shard(Arc::clone(lane), 2);
            s.spawn(move || {
                for i in 0..PER_SHARD {
                    let resp = shard.get(&format!("http://market.example/page/{i}")).unwrap();
                    assert_eq!(resp.status, Status::Ok);
                }
            });
        }
    });
    for lane in &lanes {
        net.absorb_lane(lane);
    }

    assert_eq!(net.request_count(), 2 * PER_SHARD, "every request counted exactly once");
    let mut stamps = arrivals.lock().clone();
    assert_eq!(stamps.len(), 2 * PER_SHARD, "every request served exactly once");
    stamps.sort_unstable();

    // Cumulative budget: after any prefix, the combined shards have not
    // out-requested a single (rate, burst) token bucket.
    let start = lanes[0].start_us();
    for (i, &t) in stamps.iter().enumerate() {
        let elapsed_s = (t - start) as f64 / 1e6;
        let cap = burst + rate * elapsed_s + 1e-6;
        assert!(
            (i + 1) as f64 <= cap,
            "request {} at {elapsed_s:.3}s virtual exceeds the one-crawler cap {cap:.2}",
            i + 1,
        );
    }
    // Sliding-window density: no one-second window of virtual time sees
    // more than burst + rate combined requests.
    for (i, &t) in stamps.iter().enumerate() {
        let in_window = stamps[i..].iter().take_while(|&&u| u < t + 1_000_000).count();
        assert!(
            in_window as f64 <= burst + rate + 1e-6,
            "{in_window} requests inside one virtual second starting at {t}us"
        );
    }
    // The shards were genuinely throttled, not just fast: 60 requests
    // against a 4/s budget force at least (60 - burst) / rate seconds.
    let span_s = (stamps[stamps.len() - 1] - start) as f64 / 1e6;
    assert!(span_s >= (2.0 * PER_SHARD as f64 - burst) / rate - 1.0, "span {span_s:.1}s");
}

/// Grant counts are interleaving-independent in both forced regimes:
/// a starved bucket grants exactly its burst, a saturated bucket grants
/// every attempt — run twice, the counts must agree exactly.
#[test]
fn shared_bucket_grant_count_is_run_deterministic() {
    /// 8 threads, 100 attempts each, 10 ms virtual ticks.
    fn run(rate: f64, burst: f64) -> usize {
        const THREADS: usize = 8;
        const ATTEMPTS: usize = 100;
        let bucket = Mutex::new(TokenBucket::new(rate, burst, 0));
        let clock = AtomicU64::new(0);
        let grants = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..THREADS {
                let (bucket, clock, grants) = (&bucket, &clock, &grants);
                s.spawn(move || {
                    for _ in 0..ATTEMPTS {
                        let now = clock.fetch_add(10_000, Ordering::SeqCst) + 10_000;
                        if bucket.lock().try_acquire(now) {
                            grants.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        grants.into_inner()
    }

    // Starvation: 0.01 tokens/s over 8 virtual seconds refills 0.08 of a
    // token — only the burst is ever grantable, whatever the schedule.
    assert_eq!(run(0.01, 6.0), 6);
    assert_eq!(run(0.01, 6.0), 6);

    // Saturation: 1 000 tokens/s mints 10 per tick against 1 consumer
    // attempt per tick — every one of the 800 attempts succeeds.
    assert_eq!(run(1_000.0, 16.0), 800);
    assert_eq!(run(1_000.0, 16.0), 800);
}
