//! Checkpointable recorder state.
//!
//! A [`TelemetrySnapshot`] is a JSON-serializable, *lossless* export of
//! everything deterministic a [`Recorder`] holds — counters, gauges, raw
//! histogram buckets, retained events, finished spans, and the span
//! start-ordinal — so a crawl campaign can persist its telemetry alongside
//! a checkpoint and a resumed run can rebuild a recorder
//! ([`Recorder::from_snapshot`]) whose eventual [`RunManifest`] is
//! byte-identical (in its deterministic view) to an uninterrupted run.
//!
//! Two deliberate asymmetries versus the live recorder:
//!
//! * **Wall clocks are not captured.** `wall_ns` on snapshotted spans is
//!   0 and the span codec never writes it — wall fields are stripped
//!   from the manifest's deterministic view anyway, and pretending a
//!   resumed process inherited the dead process's wall time would be a
//!   lie.
//! * **Open spans are not snapshotted.** The snapshot stores the next
//!   start ordinal not counting open spans, and the resuming pipeline
//!   reopens its live stage span via [`Recorder::span_starting_at`] so the
//!   span re-consumes the same start ordinal and start stamp it had.
//!
//! [`RunManifest`]: crate::manifest::RunManifest

use crate::journal::{Event, FinishedSpan};
use crate::metrics::{Histogram, Key, BUCKETS};
use crate::recorder::Recorder;
use foundation::json_codec_struct;

/// Snapshot schema identifier.
pub(crate) const SNAPSHOT_SCHEMA: &str = "acctrade-telemetry-snapshot/v1";

/// One metric label (`k=v`). A struct rather than a tuple because the
/// snapshot is framed through `foundation::json`, which has no tuple
/// codec.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelPair {
    /// Label key.
    pub k: String,
    /// Label value.
    pub v: String,
}

/// One counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Sorted labels.
    pub labels: Vec<LabelPair>,
    /// Current value.
    pub value: u64,
}

/// One gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// Sorted labels.
    pub labels: Vec<LabelPair>,
    /// Last value set.
    pub value: f64,
}

/// One occupied histogram bucket (sparse encoding: empty buckets are
/// omitted).
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSnap {
    /// Bucket index (0..=64; see [`Histogram`] for the layout).
    pub idx: u64,
    /// Samples in the bucket.
    pub n: u64,
}

/// One histogram, with raw buckets so the restore is exact (not a
/// quantile summary like the manifest's `HistogramReport`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnap {
    /// Metric name.
    pub name: String,
    /// Sorted labels.
    pub labels: Vec<LabelPair>,
    /// Occupied buckets, ascending by index.
    pub buckets: Vec<BucketSnap>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

/// The full deterministic state of a [`Recorder`] at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Schema identifier ([`SNAPSHOT_SCHEMA`]).
    pub schema: String,
    /// All counters, sorted by key.
    pub counters: Vec<CounterSnap>,
    /// All gauges, sorted by key.
    pub gauges: Vec<GaugeSnap>,
    /// All histograms, sorted by key.
    pub histograms: Vec<HistogramSnap>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Finished spans in start order, `wall_ns` zeroed (see the module
    /// docs).
    pub spans: Vec<FinishedSpan>,
    /// Next span start ordinal, excluding spans open at snapshot time
    /// (they re-consume their ordinal when reopened on resume).
    pub next_seq: u64,
}

json_codec_struct! {
    LabelPair { k, v }
    CounterSnap { name, labels, value }
    GaugeSnap { name, labels, value }
    BucketSnap { idx, n }
    HistogramSnap { name, labels, buckets, count, sum, min, max }
    TelemetrySnapshot { schema, counters, gauges, histograms, events, spans, next_seq }
}

fn labels_of(key: &Key) -> Vec<LabelPair> {
    key.labels
        .iter()
        .map(|(k, v)| LabelPair { k: k.clone(), v: v.clone() })
        .collect()
}

fn key_of(name: &str, labels: &[LabelPair]) -> Key {
    let pairs: Vec<(&str, &str)> =
        labels.iter().map(|l| (l.k.as_str(), l.v.as_str())).collect();
    Key::new(name, &pairs)
}

impl TelemetrySnapshot {
    /// Structural sanity checks (run before trusting a snapshot read off
    /// disk).
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SNAPSHOT_SCHEMA {
            return Err(format!("unknown snapshot schema {:?}", self.schema));
        }
        for h in &self.histograms {
            // Strictly ascending and in range, so the restore keeps every
            // bucket: `Histogram::from_parts` drops an out-of-range index
            // and keeps only the last value of a repeated one.
            for pair in h.buckets.windows(2) {
                if pair[1].idx <= pair[0].idx {
                    return Err(format!(
                        "histogram {:?}: bucket index {} repeated or out of order",
                        h.name, pair[1].idx
                    ));
                }
            }
            if let Some(b) = h.buckets.iter().find(|b| b.idx >= BUCKETS as u64) {
                return Err(format!(
                    "histogram {:?}: bucket index {} out of range 0..={}",
                    h.name,
                    b.idx,
                    BUCKETS - 1
                ));
            }
            let bucket_total: u64 = h.buckets.iter().map(|b| b.n).sum();
            if bucket_total != h.count {
                return Err(format!(
                    "histogram {:?}: bucket total {} != count {}",
                    h.name, bucket_total, h.count
                ));
            }
            if h.count > 0 && h.min > h.max {
                return Err(format!("histogram {:?}: min > max", h.name));
            }
        }
        // A resumed recorder hands out ordinals from `next_seq` on; a
        // finished span at or past it would share its ordinal with a
        // later span and reorder the stage table.
        if let Some(s) = self.spans.iter().find(|s| s.start_seq >= self.next_seq) {
            return Err(format!(
                "span {:?}: start_seq {} is not below next_seq {}",
                s.path, s.start_seq, self.next_seq
            ));
        }
        Ok(())
    }
}

impl Recorder {
    /// Export this recorder's deterministic state as a
    /// [`TelemetrySnapshot`]. See the module docs for what is and is not
    /// captured.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .counters()
            .iter()
            .map(|(k, &v)| CounterSnap { name: k.name.clone(), labels: labels_of(k), value: v })
            .collect();
        let gauges = self
            .gauges()
            .iter()
            .map(|(k, &v)| GaugeSnap { name: k.name.clone(), labels: labels_of(k), value: v })
            .collect();
        let histograms = self
            .histograms()
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| HistogramSnap {
                name: k.name.clone(),
                labels: labels_of(k),
                buckets: h
                    .bucket_counts()
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| BucketSnap { idx: i as u64, n })
                    .collect(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
            })
            .collect();
        let spans = self
            .finished_spans()
            .into_iter()
            .map(|s| FinishedSpan { wall_ns: 0, ..s })
            .collect();
        TelemetrySnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            counters,
            gauges,
            histograms,
            events: self.events(),
            spans,
            next_seq: self.journal_ref().resume_seq(),
        }
    }

    /// Rebuild a fresh, enabled recorder from a snapshot. The virtual
    /// clock is *not* restored — the caller installs one (typically the
    /// resumed simulation's clock) via [`Recorder::set_virtual_clock`]
    /// before recording continues.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> Recorder {
        let rec = Recorder::new();
        for c in &snap.counters {
            let pairs: Vec<(&str, &str)> =
                c.labels.iter().map(|l| (l.k.as_str(), l.v.as_str())).collect();
            rec.incr(&c.name, &pairs, c.value);
        }
        for g in &snap.gauges {
            let pairs: Vec<(&str, &str)> =
                g.labels.iter().map(|l| (l.k.as_str(), l.v.as_str())).collect();
            rec.gauge_set(&g.name, &pairs, g.value);
        }
        for h in &snap.histograms {
            let buckets: Vec<(usize, u64)> =
                h.buckets.iter().map(|b| (b.idx as usize, b.n)).collect();
            rec.registry_ref().insert_histogram(
                key_of(&h.name, &h.labels),
                Histogram::from_parts(&buckets, h.count, h.sum, h.min, h.max),
            );
        }
        rec.journal_ref().restore(snap.spans.clone(), snap.events.clone(), snap.next_seq);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::json::{from_str, to_string};

    fn populated() -> Recorder {
        let rec = Recorder::new();
        rec.incr("crawl.pages", &[("marketplace", "swapd")], 7);
        rec.incr("crawl.pages", &[("marketplace", "fameswap")], 3);
        rec.gauge_set("campaign.active_offers", &[], 42.0);
        for v in [0u64, 1, 5, 900, 1_000_000] {
            rec.observe("net.latency_us", &[("host", "x.com")], v);
        }
        rec.event("campaign.iteration", "iteration=0");
        {
            let _s = rec.span("deploy");
        }
        rec
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = populated().snapshot();
        assert!(snap.validate().is_ok());
        let text = to_string(&snap);
        let back: TelemetrySnapshot = from_str(&text).expect("snapshot parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn restore_reproduces_manifest_exactly() {
        let rec = populated();
        let restored = Recorder::from_snapshot(&rec.snapshot());
        let a = rec.manifest("t", 1, &crate::digest64("cfg"));
        let b = restored.manifest("t", 1, &crate::digest64("cfg"));
        assert_eq!(a.deterministic_string(), b.deterministic_string());
    }

    #[test]
    fn histogram_restore_is_exact_not_summarized() {
        let rec = Recorder::new();
        for v in 0..200u64 {
            rec.observe("h", &[], v * 13);
        }
        let restored = Recorder::from_snapshot(&rec.snapshot());
        let orig = rec.histograms();
        let back = restored.histograms();
        assert_eq!(orig.len(), back.len());
        for (k, h) in &orig {
            let r = &back[k];
            assert_eq!(h.bucket_counts(), r.bucket_counts());
            assert_eq!((h.count(), h.sum(), h.min(), h.max()),
                       (r.count(), r.sum(), r.min(), r.max()));
            assert_eq!(h.quantile(0.5), r.quantile(0.5));
        }
    }

    #[test]
    fn open_span_reopens_with_same_ordinal_and_start() {
        // Original: finish "deploy" (seq 0), open "campaign" (seq 1),
        // snapshot mid-flight, then finish.
        let rec = populated(); // deploy = seq 0
        let campaign = rec.span_starting_at("campaign", 5_000);
        let snap = rec.snapshot();
        assert_eq!(snap.next_seq, 1, "open span's ordinal is excluded");
        drop(campaign);
        let orig = rec.finished_spans();

        // Resume: restore, reopen the live span at its original stamp.
        let restored = Recorder::from_snapshot(&snap);
        let reopened = restored.span_starting_at("campaign", 5_000);
        drop(reopened);
        let back = restored.finished_spans();
        assert_eq!(orig.len(), back.len());
        for (a, b) in orig.iter().zip(back.iter()) {
            assert_eq!(a.start_seq, b.start_seq);
            assert_eq!(a.path, b.path);
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.virtual_start_us, b.virtual_start_us);
        }
    }

    #[test]
    fn bad_schema_rejected() {
        let mut snap = populated().snapshot();
        snap.schema = "bogus".into();
        assert!(snap.validate().is_err());
        let mut snap2 = populated().snapshot();
        if let Some(h) = snap2.histograms.first_mut() {
            h.count += 1;
            assert!(snap2.validate().is_err());
        }
    }
}
