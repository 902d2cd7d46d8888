//! Structured tracing: per-thread rings drained into Chrome
//! `trace_event` JSON.
//!
//! The live ops plane needs span-level provenance *while a campaign
//! runs*, without perturbing the hot paths it observes. A [`Tracer`]
//! hands every recording thread its own bounded ring behind its own
//! lock, so producers never contend with each other; the drainer (the
//! `/tracez` handler, or the end-of-run exporter) empties each ring in
//! one swap. A full ring sheds the newest record and counts it —
//! tracing degrades, the traced system does not.
//!
//! Every record is stamped with **both** clocks:
//!
//! * wall microseconds since the tracer's epoch — the operator view,
//!   exported by [`Tracer::chrome_json`] as a flamegraph-viewable Chrome
//!   `trace_event` document (`chrome://tracing`, Perfetto);
//! * virtual microseconds from the simulation clock — the deterministic
//!   view. [`virtual_trace`] renders the same span/event data from a
//!   finished [`RunManifest`], whose virtual fields are a pure function
//!   of the seed, so the resulting `TRACE_report.json` is byte-identical
//!   across same-seed runs at any worker count.
//!
//! [`validate_trace`] is the CI-side schema check for both variants.

// conformance: atomics(relaxed) — tracer ids, shed/evicted counters and the slow threshold are independent values; the locks order the records

use crate::manifest::RunManifest;
use foundation::json::Json;
use foundation::sync::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Trace schema identifier (top-level `schema` key of both variants).
pub const TRACE_SCHEMA: &str = "acctrade-trace/v1";

/// Default trace file name.
pub const TRACE_FILE: &str = "TRACE_report.json";

/// Per-thread ring capacity (records).
const RING_CAPACITY: usize = 8192;

/// Retained-record cap across all drained rings.
const RETAIN_CAPACITY: usize = 65_536;

/// Default slow-span threshold (wall µs) for the `/tracez` slow log.
const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// Category of a trace record (Chrome's `cat` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCat {
    /// A pipeline stage span (recorder bridge).
    Stage,
    /// An instant breadcrumb (recorder bridge).
    Event,
    /// A server-side request phase (`httpd`).
    Http,
}

impl TraceCat {
    /// The `cat` string rendered into the trace document.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCat::Stage => "stage",
            TraceCat::Event => "event",
            TraceCat::Http => "http",
        }
    }
}

/// One record in a trace ring.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A closed span (Chrome phase `X`): duration known at record time.
    Complete {
        /// Span name (stage name, or `http.request`).
        name: String,
        /// Category.
        cat: TraceCat,
        /// Wall start, µs since the tracer epoch.
        wall_start_us: u64,
        /// Wall duration, µs.
        wall_dur_us: u64,
        /// Virtual start, µs since the simulation epoch.
        virtual_start_us: u64,
        /// Virtual duration, µs.
        virtual_dur_us: u64,
        /// Free-form detail (span path, `host path -> status`).
        detail: String,
    },
    /// An instant event (Chrome phase `i`).
    Instant {
        /// Event name.
        name: String,
        /// Category.
        cat: TraceCat,
        /// Wall timestamp, µs since the tracer epoch.
        wall_us: u64,
        /// Virtual timestamp, µs since the simulation epoch.
        virtual_us: u64,
        /// Free-form detail.
        detail: String,
    },
}

impl TraceRecord {
    /// The record's span/event name.
    pub fn name(&self) -> &str {
        match self {
            TraceRecord::Complete { name, .. } | TraceRecord::Instant { name, .. } => name,
        }
    }

    /// Wall start (or instant) timestamp, µs since the tracer epoch.
    pub fn wall_start_us(&self) -> u64 {
        match self {
            TraceRecord::Complete { wall_start_us, .. } => *wall_start_us,
            TraceRecord::Instant { wall_us, .. } => *wall_us,
        }
    }

    /// Wall duration in µs (zero for instants) — `/tracez` rendering.
    pub fn wall_dur_us(&self) -> u64 {
        match self {
            TraceRecord::Complete { wall_dur_us, .. } => *wall_dur_us,
            TraceRecord::Instant { .. } => 0,
        }
    }

    /// Render as one Chrome `trace_event` object for the wall view.
    fn chrome_event(&self, tid: u64) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::with_capacity(8);
        match self {
            TraceRecord::Complete {
                name,
                cat,
                wall_start_us,
                wall_dur_us,
                virtual_start_us,
                virtual_dur_us,
                detail,
            } => {
                fields.push(("name".into(), Json::Str(name.clone())));
                fields.push(("cat".into(), Json::Str(cat.as_str().into())));
                fields.push(("ph".into(), Json::Str("X".into())));
                fields.push(("ts".into(), Json::Num(*wall_start_us as f64)));
                fields.push(("dur".into(), Json::Num(*wall_dur_us as f64)));
                fields.push(("pid".into(), Json::Num(1.0)));
                fields.push(("tid".into(), Json::Num(tid as f64)));
                fields.push((
                    "args".into(),
                    Json::Obj(vec![
                        ("detail".into(), Json::Str(detail.clone())),
                        ("virtual_start_us".into(), Json::Num(*virtual_start_us as f64)),
                        ("virtual_dur_us".into(), Json::Num(*virtual_dur_us as f64)),
                    ]),
                ));
            }
            TraceRecord::Instant { name, cat, wall_us, virtual_us, detail } => {
                fields.push(("name".into(), Json::Str(name.clone())));
                fields.push(("cat".into(), Json::Str(cat.as_str().into())));
                fields.push(("ph".into(), Json::Str("i".into())));
                fields.push(("ts".into(), Json::Num(*wall_us as f64)));
                fields.push(("s".into(), Json::Str("t".into())));
                fields.push(("pid".into(), Json::Num(1.0)));
                fields.push(("tid".into(), Json::Num(tid as f64)));
                fields.push((
                    "args".into(),
                    Json::Obj(vec![
                        ("detail".into(), Json::Str(detail.clone())),
                        ("virtual_us".into(), Json::Num(*virtual_us as f64)),
                    ]),
                ));
            }
        }
        Json::Obj(fields)
    }
}

/// One thread's bounded ring of trace records. Only the owning thread
/// pushes, so its lock is contended only while a drain empties it.
#[derive(Default)]
struct TraceRing {
    records: Mutex<VecDeque<TraceRecord>>,
    /// Records shed because the ring was full.
    dropped: AtomicU64,
}

impl TraceRing {
    /// Push one record, shedding (and counting) it when the ring is full.
    fn push(&self, record: TraceRecord) {
        let mut records = self.records.lock();
        if records.len() < RING_CAPACITY {
            records.push_back(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One retained entry: the record plus the tracer-assigned thread id.
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedRecord {
    /// Tracer-assigned thread id (registration order, stable per run).
    pub tid: u64,
    /// The record.
    pub record: TraceRecord,
}

/// A slow-span log entry (`/tracez`).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowEntry {
    /// Span name.
    pub name: String,
    /// Wall duration, µs.
    pub wall_dur_us: u64,
    /// Wall start, µs since the tracer epoch.
    pub wall_start_us: u64,
    /// Detail string.
    pub detail: String,
}

struct TracerInner {
    id: u64,
    epoch: Instant,
    /// Registered rings in registration order (index = tid).
    rings: Mutex<Vec<Arc<TraceRing>>>,
    /// Drained records, oldest first, bounded by `RETAIN_CAPACITY`.
    retained: Mutex<VecDeque<RetainedRecord>>,
    /// Records evicted from the retained buffer (not ring sheds).
    evicted: AtomicU64,
    slow_threshold_us: AtomicU64,
    slow: Mutex<VecDeque<SlowEntry>>,
}

/// A shareable tracing handle: clones share rings, retained records,
/// and the slow log.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

thread_local! {
    /// (tracer id, this thread's ring) pairs; linear scan — a thread
    /// rarely records into more than one tracer. The tracer owns its
    /// rings, so a dropped tracer leaves only a dead entry here, pruned
    /// at this thread's next registration.
    static THREAD_RINGS: RefCell<Vec<(u64, Weak<TraceRing>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TRACER_ID: AtomicUsize = AtomicUsize::new(1);

impl Tracer {
    /// A tracer with empty rings and an empty slow log.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed) as u64,
                epoch: Instant::now(),
                rings: Mutex::new(Vec::new()),
                retained: Mutex::new(VecDeque::new()),
                evicted: AtomicU64::new(0),
                slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
                slow: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Wall microseconds since this tracer was created.
    pub fn wall_now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Set the slow-span threshold (wall µs) for the `/tracez` slow log.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.inner.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Current slow-span threshold (wall µs).
    pub fn slow_threshold_us(&self) -> u64 {
        self.inner.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Record into the calling thread's ring (registering the thread
    /// with this tracer on first use).
    pub fn record(&self, record: TraceRecord) {
        THREAD_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            let mine = rings.iter().find(|(id, _)| *id == self.inner.id);
            let ring = mine.and_then(|(_, ring)| ring.upgrade()).unwrap_or_else(|| {
                rings.retain(|(_, ring)| ring.strong_count() > 0);
                let ring = Arc::new(TraceRing::default());
                self.inner.rings.lock().push(Arc::clone(&ring));
                rings.push((self.inner.id, Arc::downgrade(&ring)));
                ring
            });
            ring.push(record);
        });
    }

    /// Convenience: record a completed span.
    #[allow(clippy::too_many_arguments)]
    pub fn record_complete(
        &self,
        name: &str,
        cat: TraceCat,
        wall_start_us: u64,
        wall_dur_us: u64,
        virtual_start_us: u64,
        virtual_dur_us: u64,
        detail: impl Into<String>,
    ) {
        let record = TraceRecord::Complete {
            name: name.to_string(),
            cat,
            wall_start_us,
            wall_dur_us,
            virtual_start_us,
            virtual_dur_us,
            detail: detail.into(),
        };
        if wall_dur_us >= self.slow_threshold_us() {
            let mut slow = self.inner.slow.lock();
            if slow.len() >= 256 {
                slow.pop_front();
            }
            slow.push_back(SlowEntry {
                name: name.to_string(),
                wall_dur_us,
                wall_start_us,
                detail: match &record {
                    TraceRecord::Complete { detail, .. } => detail.clone(),
                    TraceRecord::Instant { .. } => String::new(),
                },
            });
        }
        self.record(record);
    }

    /// Convenience: record an instant event.
    pub fn record_instant(
        &self,
        name: &str,
        cat: TraceCat,
        virtual_us: u64,
        detail: impl Into<String>,
    ) {
        self.record(TraceRecord::Instant {
            name: name.to_string(),
            cat,
            wall_us: self.wall_now_us(),
            virtual_us,
            detail: detail.into(),
        });
    }

    /// Drain every registered ring into the retained buffer. Consumers
    /// (this method, `recent`, `chrome_json`) serialize on the retained
    /// lock; producers never block on it.
    pub fn drain(&self) {
        let rings: Vec<Arc<TraceRing>> = self.inner.rings.lock().clone();
        let mut retained = self.inner.retained.lock();
        for (tid, ring) in rings.iter().enumerate() {
            for record in std::mem::take(&mut *ring.records.lock()) {
                if retained.len() >= RETAIN_CAPACITY {
                    retained.pop_front();
                    self.inner.evicted.fetch_add(1, Ordering::Relaxed);
                }
                retained.push_back(RetainedRecord { tid: tid as u64, record });
            }
        }
    }

    /// The most recent `n` drained records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<RetainedRecord> {
        self.drain();
        let retained = self.inner.retained.lock();
        retained.iter().skip(retained.len().saturating_sub(n)).cloned().collect()
    }

    /// Total records currently retained.
    pub fn retained_len(&self) -> usize {
        self.inner.retained.lock().len()
    }

    /// The slow-span log, oldest first.
    pub fn slow_entries(&self) -> Vec<SlowEntry> {
        self.inner.slow.lock().iter().cloned().collect()
    }

    /// Records shed at the ring stage plus evictions from the retained
    /// buffer — how much the wall view is missing.
    pub fn dropped(&self) -> u64 {
        let rings = self.inner.rings.lock();
        let shed: u64 = rings.iter().map(|r| r.dropped.load(Ordering::Relaxed)).sum();
        shed + self.inner.evicted.load(Ordering::Relaxed)
    }

    /// Number of threads that have registered a ring.
    pub fn threads(&self) -> usize {
        self.inner.rings.lock().len()
    }

    /// The wall-clock Chrome `trace_event` document: every retained
    /// record, sorted by wall start for stable rendering. Operator
    /// artifact — **not** byte-stable across runs (wall time).
    pub fn chrome_json(&self) -> Json {
        self.drain();
        let retained = self.inner.retained.lock();
        let mut entries: Vec<&RetainedRecord> = retained.iter().collect();
        entries.sort_by(|a, b| {
            (a.record.wall_start_us(), a.tid, a.record.name())
                .cmp(&(b.record.wall_start_us(), b.tid, b.record.name()))
        });
        let events: Vec<Json> = entries.iter().map(|r| r.record.chrome_event(r.tid)).collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(TRACE_SCHEMA.into())),
            ("mode".into(), Json::Str("wall".into())),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("dropped".into(), Json::Num(self.dropped() as f64)),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

/// The deterministic virtual-time trace: stage spans and retained
/// events from a finished [`RunManifest`], rendered as Chrome
/// `trace_event` objects on the virtual clock with `tid 0`.
///
/// Every input field is part of the manifest's deterministic view, so
/// the rendered document is byte-identical across same-seed runs and
/// worker counts — the CI trace gate `cmp`s two of these.
pub fn virtual_trace(manifest: &RunManifest) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(manifest.stages.len() + manifest.events.len());
    for stage in &manifest.stages {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(stage.name.clone())),
            ("cat".into(), Json::Str(TraceCat::Stage.as_str().into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Num(stage.virtual_start_us as f64)),
            ("dur".into(), Json::Num(stage.virtual_us as f64)),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(0.0)),
            (
                "args".into(),
                Json::Obj(vec![
                    ("path".into(), Json::Str(stage.path.clone())),
                    ("depth".into(), Json::Num(stage.depth as f64)),
                ]),
            ),
        ]));
    }
    for event in &manifest.events {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(event.name.clone())),
            ("cat".into(), Json::Str(TraceCat::Event.as_str().into())),
            ("ph".into(), Json::Str("i".into())),
            ("ts".into(), Json::Num(event.at_virtual_us as f64)),
            ("s".into(), Json::Str("t".into())),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(0.0)),
            (
                "args".into(),
                Json::Obj(vec![("detail".into(), Json::Str(event.detail.clone()))]),
            ),
        ]));
    }
    Json::Obj(vec![
        ("schema".into(), Json::Str(TRACE_SCHEMA.into())),
        ("mode".into(), Json::Str("virtual".into())),
        ("run".into(), Json::Str(manifest.run.clone())),
        ("seed".into(), Json::Num(manifest.seed as f64)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}

/// Schema-check a trace document (either variant). Returns a one-line
/// summary on success.
pub fn validate_trace(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != TRACE_SCHEMA {
        return Err(format!("unknown trace schema {schema:?}"));
    }
    let mode = doc.get("mode").and_then(Json::as_str).unwrap_or("");
    if mode != "wall" && mode != "virtual" {
        return Err(format!("unknown trace mode {mode:?}"));
    }
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return Err("missing traceEvents array".into());
    };
    let mut complete = 0usize;
    let mut instant = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        match ph {
            "X" => {
                complete += 1;
                if ev.get("dur").and_then(Json::as_num).is_none() {
                    return Err(format!("event {i}: complete span without dur"));
                }
            }
            "i" => instant += 1,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
        for key in ["name", "ts", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i}: missing {key:?}"));
            }
        }
        if ev.get("ts").and_then(Json::as_num).map(|t| t < 0.0).unwrap_or(true) {
            return Err(format!("event {i}: non-numeric or negative ts"));
        }
    }
    // The pretty renderer is the canonical on-disk form; a re-encode
    // must reproduce the input bytes (sorted, stable formatting).
    let reencoded = doc.render_pretty() + "\n";
    if reencoded != text && doc.render_pretty() != text {
        return Err("trace is not in canonical pretty-rendered form".into());
    }
    Ok(format!("mode={mode} events={} (complete={complete} instant={instant})", events.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, VirtualClock};
    use std::sync::Arc;

    struct FixedClock(u64);
    impl VirtualClock for FixedClock {
        fn now_us(&self) -> u64 {
            self.0
        }
    }

    fn instant(name: &str) -> TraceRecord {
        TraceRecord::Instant {
            name: name.into(),
            cat: TraceCat::Event,
            wall_us: 0,
            virtual_us: 0,
            detail: String::new(),
        }
    }

    fn names(records: &[RetainedRecord]) -> Vec<&str> {
        records.iter().map(|r| r.record.name()).collect()
    }

    #[test]
    fn ring_push_pop_fifo() {
        let tracer = Tracer::new();
        for i in 0..3 {
            tracer.record(instant(&format!("e{i}")));
        }
        assert_eq!(names(&tracer.recent(10)), ["e0", "e1", "e2"]);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn full_ring_sheds_and_counts() {
        let tracer = Tracer::new();
        for i in 0..RING_CAPACITY + 3 {
            tracer.record(instant(&format!("e{i}")));
        }
        assert_eq!(tracer.dropped(), 3);
        // The oldest records survive; the shed ones were newest.
        let kept = tracer.recent(RING_CAPACITY + 3);
        assert_eq!(kept.len(), RING_CAPACITY);
        assert_eq!(kept[0].record.name(), "e0");
        assert_eq!(kept[RING_CAPACITY - 1].record.name(), format!("e{}", RING_CAPACITY - 1));
        // The drained ring accepts new records again.
        tracer.record(instant("again"));
        assert_eq!(names(&tracer.recent(1)), ["again"]);
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn tracer_drains_across_threads() {
        let tracer = Tracer::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        tracer.record_instant(
                            &format!("t{t}e{i}"),
                            TraceCat::Event,
                            i,
                            "stress",
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        tracer.drain();
        assert_eq!(tracer.retained_len(), 200);
        assert_eq!(tracer.dropped(), 0);
        assert_eq!(tracer.threads(), 4);
    }

    #[test]
    fn dropped_tracers_leave_the_thread_registry() {
        // A fresh thread, so the registry starts empty.
        let entries = std::thread::spawn(|| {
            for _ in 0..3 {
                Tracer::new().record(instant("once"));
            }
            let live = Tracer::new();
            live.record(instant("live"));
            assert_eq!(names(&live.recent(10)), ["live"]);
            THREAD_RINGS.with(|cell| cell.borrow().len())
        })
        .join()
        .unwrap();
        assert_eq!(entries, 1, "only the live tracer's ring is registered");
    }

    #[test]
    fn slow_log_captures_over_threshold_spans() {
        let tracer = Tracer::new();
        tracer.set_slow_threshold_us(1_000);
        tracer.record_complete("fast", TraceCat::Http, 0, 10, 0, 0, "GET /");
        tracer.record_complete("slow", TraceCat::Http, 0, 5_000, 0, 0, "GET /heavy");
        let slow = tracer.slow_entries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "slow");
        assert_eq!(slow[0].wall_dur_us, 5_000);
    }

    #[test]
    fn chrome_json_validates_and_counts() {
        let tracer = Tracer::new();
        tracer.record_complete("stage_one", TraceCat::Stage, 5, 100, 0, 40, "stage_one");
        tracer.record_instant("tick", TraceCat::Event, 7, "x");
        let text = tracer.chrome_json().render_pretty();
        let summary = validate_trace(&text).expect("wall trace validates");
        assert!(summary.contains("complete=1"));
        assert!(summary.contains("instant=1"));
    }

    #[test]
    fn virtual_trace_is_pure_function_of_manifest() {
        let rec = Recorder::new();
        rec.set_virtual_clock(Arc::new(FixedClock(9_000)));
        {
            let _s = rec.span("stage_one");
        }
        rec.incr("crawl.pages", &[("marketplace", "m")], 1);
        rec.event("tick", "detail");
        let m = rec.manifest("unit", 11, &crate::manifest::digest64("cfg"));
        let a = virtual_trace(&m).render_pretty();
        let b = virtual_trace(&m).render_pretty();
        assert_eq!(a, b);
        let summary = validate_trace(&a).expect("virtual trace validates");
        assert!(summary.contains("mode=virtual"));
        assert!(!a.contains("wall_"), "virtual trace carries no wall fields");
    }

    #[test]
    fn validate_trace_rejects_malformed_documents() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{\"schema\": \"bogus\"}").is_err());
        let missing_dur = Json::Obj(vec![
            ("schema".into(), Json::Str(TRACE_SCHEMA.into())),
            ("mode".into(), Json::Str("wall".into())),
            (
                "traceEvents".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("x".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(1.0)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(0.0)),
                ])]),
            ),
        ]);
        assert!(validate_trace(&missing_dur.render_pretty()).is_err());
    }
}
