//! The lock-sharded metrics registry: counters, gauges, and log-bucketed
//! histograms.
//!
//! Hot paths (one increment per simulated HTTP request) need a registry
//! that is cheap under concurrent writers. Keys are hashed (FNV-1a) onto
//! a fixed set of shards, each shard guarded by its own
//! [`foundation::sync::Mutex`]; two threads recording different metrics
//! almost never contend. Snapshots merge the shards into sorted maps so
//! every export is deterministic regardless of shard layout.

use foundation::sync::Mutex;
use std::collections::BTreeMap;

/// Number of shards. A power of two so the hash maps onto shards with a
/// mask; 16 is plenty for the 8-thread test workloads while keeping the
/// snapshot merge cheap.
pub(crate) const SHARD_COUNT: usize = 16;

/// FNV-1a 64-bit hash (the same tiny hash `foundation` favours).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A metric identity: a name plus a (small, sorted) label set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Metric name, dot-separated (`net.requests`).
    pub name: String,
    /// Label pairs, kept sorted by label key for canonical identity.
    pub labels: Vec<(String, String)>,
}

impl Key {
    /// Build a key from a name and label slice (labels get sorted).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key { name: name.to_string(), labels }
    }

    /// Canonical rendering: `name` or `name{k=v,k2=v2}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }

    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn shard(&self) -> usize {
        let mut h = fnv1a64(self.name.as_bytes());
        for (k, v) in &self.labels {
            h ^= fnv1a64(k.as_bytes()).rotate_left(17);
            h ^= fnv1a64(v.as_bytes()).rotate_left(31);
        }
        (h as usize) & (SHARD_COUNT - 1)
    }
}

/// Buckets per [`Histogram`]: one for zero plus one per bit length.
pub(crate) const BUCKETS: usize = 65;

/// A log-bucketed histogram over `u64` samples (virtual microseconds,
/// queue depths, ...). Bucket `i` holds values whose bit length is `i`,
/// i.e. `[2^(i-1), 2^i)`; bucket 0 holds zero. Quantiles are resolved to
/// the bucket upper bound and clamped into `[min, max]`, which keeps them
/// deterministic and within one power of two of the true value.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize; // 0 for value 0
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`), resolved to a bucket upper bound
    /// and clamped to the observed range. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Raw per-bucket counts (65 log₂ buckets; see the type docs for the
    /// bucket layout). Exposed so checkpoints can serialize a histogram
    /// exactly and rebuild it with [`Histogram::from_parts`].
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Rebuild a histogram from exported parts — the inverse of the
    /// accessors ([`Histogram::bucket_counts`], [`Histogram::count`],
    /// [`Histogram::sum`], [`Histogram::min`], [`Histogram::max`]).
    /// `buckets` holds `(bucket index, count)` pairs; out-of-range indices
    /// are ignored. `min` is ignored when `count` is 0 (the empty-histogram
    /// sentinel is restored instead).
    pub fn from_parts(
        buckets: &[(usize, u64)],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Histogram {
        let mut h = Histogram::default();
        for &(i, n) in buckets {
            if i < h.counts.len() {
                h.counts[i] = n;
            }
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        h
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Default)]
struct Shard {
    counters: Mutex<BTreeMap<Key, u64>>,
    gauges: Mutex<BTreeMap<Key, f64>>,
    histograms: Mutex<BTreeMap<Key, Histogram>>,
}

/// The sharded registry. All methods take `&self`; interior mutability is
/// per-shard.
pub struct Registry {
    shards: Vec<Shard>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry { shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect() }
    }

    fn shard_for(&self, key: &Key) -> &Shard {
        &self.shards[key.shard()]
    }

    /// Add `delta` to a counter.
    pub fn incr(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = Key::new(name, labels);
        *self.shard_for(&key).counters.lock().entry(key).or_insert(0) += delta;
    }

    /// Set a gauge to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = Key::new(name, labels);
        self.shard_for(&key).gauges.lock().insert(key, value);
    }

    /// Record one histogram sample.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let key = Key::new(name, labels);
        self.shard_for(&key)
            .histograms
            .lock()
            .entry(key)
            .or_default()
            .observe(value);
    }

    /// Insert a fully-formed histogram under `key`, replacing any existing
    /// entry (checkpoint restore; normal recording goes through
    /// [`Registry::observe`]).
    pub fn insert_histogram(&self, key: Key, histogram: Histogram) {
        self.shard_for(&key).histograms.lock().insert(key, histogram);
    }

    /// Current value of one counter (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = Key::new(name, labels);
        self.shard_for(&key).counters.lock().get(&key).copied().unwrap_or(0)
    }

    /// Sum of every counter with the given name, across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.counters
                    .lock()
                    .iter()
                    .filter(|(k, _)| k.name == name)
                    .map(|(_, v)| v)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Sorted snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<Key, u64> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (k, v) in shard.counters.lock().iter() {
                out.insert(k.clone(), *v);
            }
        }
        out
    }

    /// Sorted snapshot of all gauges.
    pub fn gauges(&self) -> BTreeMap<Key, f64> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (k, v) in shard.gauges.lock().iter() {
                out.insert(k.clone(), *v);
            }
        }
        out
    }

    /// Sorted snapshot of all histograms (cloned).
    pub fn histograms(&self) -> BTreeMap<Key, Histogram> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (k, v) in shard.histograms.lock().iter() {
                out.insert(k.clone(), v.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.incr("req", &[("host", "a")], 2);
        r.incr("req", &[("host", "a")], 3);
        r.incr("req", &[("host", "b")], 1);
        assert_eq!(r.counter("req", &[("host", "a")]), 5);
        assert_eq!(r.counter("req", &[("host", "b")]), 1);
        assert_eq!(r.counter("req", &[("host", "c")]), 0);
        assert_eq!(r.counter_total("req"), 6);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.incr("x", &[("b", "2"), ("a", "1")], 1);
        r.incr("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(r.counter("x", &[("b", "2"), ("a", "1")]), 2);
        let keys: Vec<String> = r.counters().keys().map(Key::render).collect();
        assert_eq!(keys, vec!["x{a=1,b=2}".to_string()]);
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.gauge_set("depth", &[], 4.0);
        r.gauge_set("depth", &[], 7.0);
        assert_eq!(r.gauges().values().copied().collect::<Vec<_>>(), vec![7.0]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_007);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_quantile_is_within_one_power_of_two() {
        let mut h = Histogram::default();
        for v in 1..=1024u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5);
        assert!((256..=1023).contains(&p50), "p50={p50}");
    }

    #[test]
    fn histogram_merge_conserves_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..100u64 {
            a.observe(v);
            b.observe(v * 17);
        }
        let (ca, cb) = (a.count(), b.count());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.max(), 99 * 17);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn key_render_without_labels() {
        assert_eq!(Key::new("plain", &[]).render(), "plain");
        assert_eq!(Key::new("a", &[("k", "v")]).label("k"), Some("v"));
        assert_eq!(Key::new("a", &[("k", "v")]).label("z"), None);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        // Enough keys that several shards are exercised (zero-padded so
        // label order and rendered order agree).
        for i in 0..200 {
            r.incr("bulk", &[("i", &format!("{i:03}"))], 1);
        }
        let snap = r.counters();
        assert_eq!(snap.len(), 200);
        assert_eq!(snap.values().sum::<u64>(), 200);
        let rendered: Vec<String> = snap.keys().map(Key::render).collect();
        let mut sorted = rendered.clone();
        sorted.sort();
        assert_eq!(rendered, sorted);
    }
}
