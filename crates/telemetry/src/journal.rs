//! The recorder's journal: the one store for spans and events.
//!
//! A span measures one named phase of the pipeline on **two** clocks:
//! *virtual* time from the simulation's discrete-event clock, which is
//! deterministic for a fixed seed and is what the manifest compares
//! across runs, and *wall* time from the host monotonic clock, which the
//! manifest's deterministic view strips. Spans nest: opening one while
//! another is open records a `parent/child` path and a depth. An event is
//! a virtual-time-stamped breadcrumb ("iteration 3 finished"); the journal
//! keeps the last 1024 and evicts the oldest first.
//!
//! One lock guards the open-span stack, the start ordinal, the finished
//! spans, the events and the trace sink. Every span close and every event
//! takes it once through `Journal::record`, which also hands the record
//! to the sink, if one is attached, after the lock is released. The
//! manifest, the checkpoint snapshot and the virtual trace are all read
//! from here.

use crate::trace::{TraceCat, Tracer};
use foundation::json::{Json, JsonCodec, JsonError};
use foundation::json_codec_struct;
use foundation::sync::Mutex;
use std::collections::VecDeque;

/// Events retained per recorder.
const EVENT_CAPACITY: usize = 1024;

/// A span: stamped with its start when opened, completed when closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedSpan {
    /// Span name (`crawl_campaign`).
    pub name: String,
    /// Slash-joined path from the root span (`study/crawl_campaign`).
    pub path: String,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Order in which the span *started* (stable sort key for reports).
    pub start_seq: u64,
    /// Virtual time at start (µs since epoch).
    pub virtual_start_us: u64,
    /// Virtual time at end (µs since epoch).
    pub virtual_end_us: u64,
    /// Wall-clock duration in nanoseconds (non-deterministic; never
    /// serialized, so it reads back as 0).
    pub wall_ns: u64,
}

impl FinishedSpan {
    /// Virtual duration in microseconds.
    pub fn virtual_us(&self) -> u64 {
        self.virtual_end_us.saturating_sub(self.virtual_start_us)
    }
}

impl JsonCodec for FinishedSpan {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("path".into(), self.path.to_json()),
            ("depth".into(), self.depth.to_json()),
            ("start_seq".into(), self.start_seq.to_json()),
            ("virtual_start_us".into(), self.virtual_start_us.to_json()),
            ("virtual_end_us".into(), self.virtual_end_us.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<FinishedSpan, JsonError> {
        fn field<T: JsonCodec>(v: &Json, key: &str) -> Result<T, JsonError> {
            T::from_json(v.get(key).unwrap_or(&Json::Null))
                .map_err(|e| JsonError::decode(format!("FinishedSpan.{key}: {}", e.msg)))
        }
        Ok(FinishedSpan {
            name: field(v, "name")?,
            path: field(v, "path")?,
            depth: field(v, "depth")?,
            start_seq: field(v, "start_seq")?,
            virtual_start_us: field(v, "virtual_start_us")?,
            virtual_end_us: field(v, "virtual_end_us")?,
            wall_ns: 0,
        })
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time (microseconds since epoch) the event was recorded at.
    pub at_virtual_us: u64,
    /// Event name (`crawl.iteration`).
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

json_codec_struct! {
    Event { at_virtual_us, name, detail }
}

/// A record the journal stores and mirrors into the trace sink.
pub(crate) trait Entry: Clone {
    /// File the record under the journal lock.
    fn file(self, st: &mut State);
    /// Copy the record into the sink's ring, outside the lock.
    fn mirror(self, tracer: &Tracer);
}

impl Entry for FinishedSpan {
    fn file(self, st: &mut State) {
        // Pop the matching frame (tolerate out-of-order drops: remove the
        // deepest frame with this name).
        if let Some(pos) = st.open.iter().rposition(|n| *n == self.name) {
            st.open.remove(pos);
        }
        st.spans.push(self);
    }

    fn mirror(self, tracer: &Tracer) {
        let wall_dur_us = self.wall_ns / 1_000;
        tracer.record_complete(
            &self.name,
            TraceCat::Stage,
            tracer.wall_now_us().saturating_sub(wall_dur_us),
            wall_dur_us,
            self.virtual_start_us,
            self.virtual_us(),
            self.path,
        );
    }
}

impl Entry for Event {
    fn file(self, st: &mut State) {
        if st.events.len() == EVENT_CAPACITY {
            st.events.pop_front();
        }
        st.events.push_back(self);
    }

    fn mirror(self, tracer: &Tracer) {
        tracer.record_instant(&self.name, TraceCat::Event, self.at_virtual_us, self.detail);
    }
}

/// Spans and events of one recorder, under one lock.
#[derive(Default)]
pub(crate) struct Journal {
    state: Mutex<State>,
}

/// Everything the journal lock guards.
#[derive(Default)]
pub(crate) struct State {
    /// Names of the open spans, outermost first.
    open: Vec<String>,
    next_seq: u64,
    /// Finished spans in close order.
    spans: Vec<FinishedSpan>,
    events: VecDeque<Event>,
    sink: Option<Tracer>,
}

impl Journal {
    /// Open a span under any currently open one. The returned record is
    /// stamped with its start; the caller completes it and hands it back
    /// through [`Journal::record`].
    pub(crate) fn open(&self, name: &str, virtual_start_us: u64) -> FinishedSpan {
        let mut st = self.state.lock();
        let depth = st.open.len();
        let path = if depth == 0 {
            name.to_string()
        } else {
            format!("{}/{}", st.open.join("/"), name)
        };
        st.open.push(name.to_string());
        let start_seq = st.next_seq;
        st.next_seq += 1;
        FinishedSpan {
            name: name.to_string(),
            path,
            depth,
            start_seq,
            virtual_start_us,
            virtual_end_us: virtual_start_us,
            wall_ns: 0,
        }
    }

    /// Store a closed span or an event, then mirror it into the trace
    /// sink once the lock is released.
    pub(crate) fn record(&self, entry: impl Entry) {
        let mirrored = {
            let mut st = self.state.lock();
            let mirrored = st.sink.clone().map(|tracer| (tracer, entry.clone()));
            entry.file(&mut st);
            mirrored
        };
        if let Some((tracer, entry)) = mirrored {
            entry.mirror(&tracer);
        }
    }

    /// Mirror every later span and event into `tracer`.
    pub(crate) fn set_sink(&self, tracer: Tracer) {
        self.state.lock().sink = Some(tracer);
    }

    /// Finished spans sorted by start order (parents before children).
    pub(crate) fn spans(&self) -> Vec<FinishedSpan> {
        let mut spans = self.state.lock().spans.clone();
        spans.sort_by_key(|s| s.start_seq);
        spans
    }

    /// Retained events, oldest first.
    pub(crate) fn events(&self) -> Vec<Event> {
        self.state.lock().events.iter().cloned().collect()
    }

    /// The next start ordinal **not counting currently open spans**. An
    /// open span has already consumed its ordinal but will re-consume it
    /// when reopened after a checkpoint restore, so snapshots record this
    /// value rather than the raw counter.
    pub(crate) fn resume_seq(&self) -> u64 {
        let st = self.state.lock();
        st.next_seq - st.open.len() as u64
    }

    /// Replace the finished spans, events and start ordinal (checkpoint
    /// restore). The open-span stack is cleared; the caller reopens any
    /// span that was live at snapshot time.
    pub(crate) fn restore(&self, spans: Vec<FinishedSpan>, events: Vec<Event>, next_seq: u64) {
        let mut st = self.state.lock();
        st.open.clear();
        st.spans = spans;
        let skip = events.len().saturating_sub(EVENT_CAPACITY);
        st.events = events.into_iter().skip(skip).collect();
        st.next_seq = next_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(journal: &Journal, mut span: FinishedSpan, virtual_end_us: u64) {
        span.virtual_end_us = virtual_end_us;
        journal.record(span);
    }

    fn event(at_virtual_us: u64, detail: &str) -> Event {
        Event { at_virtual_us, name: "e".into(), detail: detail.into() }
    }

    #[test]
    fn nesting_builds_paths_and_depths() {
        let j = Journal::default();
        let outer = j.open("study", 0);
        let inner = j.open("crawl", 10);
        assert_eq!(inner.path, "study/crawl");
        assert_eq!(inner.depth, 1);
        close(&j, inner, 30);
        close(&j, outer, 100);
        assert_eq!(j.resume_seq(), 2);
        let spans = j.spans();
        assert_eq!(spans.len(), 2);
        // Start order: parent first.
        assert_eq!(spans[0].name, "study");
        assert_eq!(spans[1].name, "crawl");
        assert_eq!(spans[1].virtual_us(), 20);
    }

    #[test]
    fn sibling_spans_share_depth() {
        let j = Journal::default();
        let root = j.open("root", 0);
        let a = j.open("a", 0);
        close(&j, a, 1);
        let b = j.open("b", 1);
        assert_eq!(b.depth, 1);
        assert_eq!(b.path, "root/b");
        close(&j, b, 2);
        close(&j, root, 2);
        assert_eq!(j.spans().len(), 3);
    }

    #[test]
    fn saturating_virtual_duration() {
        let j = Journal::default();
        let mut s = j.open("x", 10);
        s.virtual_end_us = 5;
        assert_eq!(s.virtual_us(), 0);
    }

    #[test]
    fn events_keep_the_newest_at_capacity() {
        let j = Journal::default();
        for i in 0..EVENT_CAPACITY as u64 + 10 {
            j.record(event(i, &i.to_string()));
        }
        let events = j.events();
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert_eq!(events[0].detail, "10");
        assert_eq!(events[EVENT_CAPACITY - 1].at_virtual_us, EVENT_CAPACITY as u64 + 9);
    }

    #[test]
    fn restore_keeps_the_newest_events() {
        let j = Journal::default();
        let events: Vec<Event> = (0..EVENT_CAPACITY as u64 + 3).map(|i| event(i, "")).collect();
        j.restore(Vec::new(), events, 4);
        assert_eq!(j.events().len(), EVENT_CAPACITY);
        assert_eq!(j.events()[0].at_virtual_us, 3);
        assert_eq!(j.resume_seq(), 4);
    }

    #[test]
    fn sink_receives_spans_and_events() {
        let j = Journal::default();
        let tracer = Tracer::new();
        j.set_sink(tracer.clone());
        let span = j.open("stage", 100);
        close(&j, span, 160);
        j.record(event(170, "tick"));
        let names: Vec<String> =
            tracer.recent(8).iter().map(|r| r.record.name().to_string()).collect();
        assert_eq!(names, ["stage", "e"]);
        assert_eq!(j.spans().len(), 1);
        assert_eq!(j.events().len(), 1);
    }

    #[test]
    fn span_codec_never_writes_wall_time() {
        let j = Journal::default();
        let mut span = j.open("stage", 100);
        span.virtual_end_us = 160;
        span.wall_ns = 12_345;
        let text = foundation::json::to_string(&span);
        assert!(!text.contains("wall"), "{text}");
        let back: FinishedSpan = foundation::json::from_str(&text).expect("span parses");
        assert_eq!(back, FinishedSpan { wall_ns: 0, ..span });
    }
}
