//! Deterministic merge of parallel shard output.
//!
//! The sharded engine ([`crate::steal`]) crawls each (marketplace,
//! platform-chain) shard on whatever worker thread picks it up, so the
//! order in which shards *complete* depends on the OS scheduler. The
//! campaign's artifacts must not. This module defines the canonical
//! record order the campaign commits in:
//!
//! ```text
//! (collected_unix, marketplace, offer_url, iteration)
//! ```
//!
//! The leading key is the record's **virtual** collection timestamp —
//! every shard stamps records from its own deterministic lane clock, so
//! the merged stream interleaves shards exactly as a single sequential
//! crawler walking the same virtual timeline would. The remaining keys
//! are a stable tiebreak: `(marketplace, offer_url, iteration)` is
//! unique within one iteration's crawl (a marketplace never lists the
//! same offer URL twice on one walk), making the key a total order over
//! any iteration's output and the sort result independent of input
//! permutation. Arrival order is *never* consulted.

use crate::record::OfferRecord;

/// The canonical sort key: virtual collection time, then the stable
/// `(marketplace, offer_url, iteration)` tiebreak.
pub fn merge_key(record: &OfferRecord) -> (i64, &str, &str, usize) {
    (record.collected_unix, &record.marketplace, &record.offer_url, record.iteration)
}

/// Sort records into canonical order. Any permutation of the same
/// multiset of records yields the same output (the parallel-determinism
/// property; see `tests/proptests.rs`).
pub(crate) fn sort_records(records: &mut [OfferRecord]) {
    records.sort_by(|a, b| merge_key(a).cmp(&merge_key(b)));
}

/// Flatten per-shard record batches (already in shard-index order) into
/// one canonically ordered stream.
pub fn merge_shards(shards: Vec<Vec<OfferRecord>>) -> Vec<OfferRecord> {
    let mut all: Vec<OfferRecord> = shards.into_iter().flatten().collect();
    sort_records(&mut all);
    all
}

/// Normalize records for cross-transport comparison.
///
/// A crawl over a real transport (`acctrade-httpd`'s loopback TCP)
/// stamps `collected_unix` from the wall clock, so the timestamps —
/// and nothing else — differ from the same crawl run in sim mode. This
/// zeroes the timestamp and re-sorts by the remaining stable key, so
/// two crawls of the same seeded world are comparable field-for-field
/// regardless of transport. `tests/loopback_parity.rs` asserts
/// `normalize_for_parity(sim) == normalize_for_parity(loopback)`.
pub fn normalize_for_parity(mut records: Vec<OfferRecord>) -> Vec<OfferRecord> {
    for r in &mut records {
        r.collected_unix = 0;
    }
    sort_records(&mut records);
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: i64, market: &str, url: &str, iter: usize) -> OfferRecord {
        OfferRecord {
            marketplace: market.into(),
            offer_url: url.into(),
            title: String::new(),
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
            collected_unix: t,
            iteration: iter,
        }
    }

    #[test]
    fn merge_orders_by_virtual_time_then_stable_tiebreak() {
        let a = rec(10, "Z2U", "http://z2u.com/offer/2", 0);
        let b = rec(10, "Accsmarket", "http://accsmarket.com/offer/9", 0);
        let c = rec(5, "Z2U", "http://z2u.com/offer/1", 0);
        let merged = merge_shards(vec![vec![a.clone()], vec![b.clone(), c.clone()]]);
        assert_eq!(merged, vec![c, b, a]);
    }

    #[test]
    fn normalize_strips_time_and_resorts() {
        let a = rec(500, "Z2U", "http://z2u.com/offer/2", 0);
        let b = rec(100, "Z2U", "http://z2u.com/offer/1", 0);
        let sim = normalize_for_parity(vec![a.clone(), b.clone()]);
        // Same offers collected at different (wall) times normalize equal.
        let mut a2 = a.clone();
        a2.collected_unix = 999_999;
        let mut b2 = b.clone();
        b2.collected_unix = 777;
        let loopback = normalize_for_parity(vec![b2, a2]);
        assert_eq!(sim, loopback);
        assert!(sim.iter().all(|r| r.collected_unix == 0));
    }

    #[test]
    fn merge_is_permutation_invariant() {
        let rs: Vec<OfferRecord> = (0..8)
            .map(|i| rec(100 - (i % 3), "M", &format!("http://m/offer/{i}"), 0))
            .collect();
        let forward = merge_shards(vec![rs.clone()]);
        let reversed = merge_shards(vec![rs.into_iter().rev().collect()]);
        assert_eq!(forward, reversed);
    }
}
