//! Token-bucket rate limiting over virtual time.
//!
//! The crawler self-throttles (politeness) so that it never trips
//! automation triggers, per the paper's ethics statement. Marketplaces
//! throttle crawlers through robots.txt `Crawl-delay`, which the client
//! honours ([`crate::robots`]).


// conformance: reactor-path — no blocking calls; the accept loop/parsers must never stall a lane

/// A token bucket measured in virtual microseconds.
///
/// The bucket holds up to `burst` tokens and refills at `rate_per_sec`
/// tokens per virtual second. [`TokenBucket::try_acquire`] is the
/// non-blocking check; [`TokenBucket::next_allowed_at`] lets a
/// polite client compute how long to sleep.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill_us: u64,
}

impl TokenBucket {
    /// Create a bucket that is initially full.
    ///
    /// # Panics
    /// Panics if `rate_per_sec` is not strictly positive or `burst < 1`.
    pub fn new(rate_per_sec: f64, burst: f64, now_us: u64) -> TokenBucket {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(burst >= 1.0, "burst must allow at least one request");
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill_us: now_us,
        }
    }

    fn refill(&mut self, now_us: u64) {
        if now_us > self.last_refill_us {
            let dt = (now_us - self.last_refill_us) as f64 / 1_000_000.0;
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            self.last_refill_us = now_us;
        }
    }

    /// Try to take one token at virtual time `now_us`. Returns `true` on
    /// success; on failure the bucket is left unchanged apart from refill.
    pub fn try_acquire(&mut self, now_us: u64) -> bool {
        self.refill(now_us);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Virtual time at which one token will be available (equals `now_us`
    /// when a token is already available). Does not consume anything.
    pub fn next_allowed_at(&mut self, now_us: u64) -> u64 {
        self.refill(now_us);
        if self.tokens >= 1.0 {
            now_us
        } else {
            let deficit = 1.0 - self.tokens;
            let wait_s = deficit / self.rate_per_sec;
            now_us + (wait_s * 1_000_000.0).ceil() as u64
        }
    }

    /// Tokens currently in the bucket (after refill to `now_us`).
    pub fn available(&mut self, now_us: u64) -> f64 {
        self.refill(now_us);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle() {
        let mut b = TokenBucket::new(1.0, 3.0, 0);
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        assert!(!b.try_acquire(0), "burst exhausted");
    }

    #[test]
    fn refills_over_time() {
        let mut b = TokenBucket::new(2.0, 2.0, 0); // 2 tokens/sec
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        assert!(!b.try_acquire(100_000)); // 0.1 s -> 0.2 tokens
        assert!(b.try_acquire(600_000)); // 0.6 s -> 1.2 tokens
    }

    #[test]
    fn next_allowed_at_is_exact() {
        let mut b = TokenBucket::new(1.0, 1.0, 0);
        assert!(b.try_acquire(0));
        let at = b.next_allowed_at(0);
        assert_eq!(at, 1_000_000);
        // One microsecond early: still blocked.
        assert!(!b.try_acquire(at - 1));
        assert!(b.try_acquire(at));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(100.0, 5.0, 0);
        assert!(b.available(10_000_000) <= 5.0);
    }

    #[test]
    fn conservation_tokens_spent_matches_grants() {
        // Over a long horizon the number of grants can't exceed
        // burst + rate * elapsed.
        let rate = 3.0;
        let burst = 4.0;
        let mut b = TokenBucket::new(rate, burst, 0);
        let mut grants = 0u32;
        let mut t = 0u64;
        for _ in 0..10_000 {
            t += 37_000; // 37 ms steps
            if b.try_acquire(t) {
                grants += 1;
            }
        }
        let cap = burst + rate * (t as f64 / 1e6);
        assert!(f64::from(grants) <= cap + 1.0, "grants={grants} cap={cap}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = TokenBucket::new(0.0, 1.0, 0);
    }
}
