//! The [`Recorder`] handle and the scoped recorder plumbing.
//!
//! Instrumentation call sites throughout the workspace go through
//! [`with_recorder`], which resolves, in order:
//!
//! 1. the innermost **scoped** recorder on the current thread (tests and
//!    `Study::run` install one with [`Recorder::enter`], so concurrent
//!    runs never share state);
//! 2. a process-wide **disabled** recorder whose write methods return
//!    immediately.
//!
//! The disabled path is the default for library users who never opt in:
//! one thread-local read, no locks, no allocation — cheap enough to
//! leave instrumentation in every hot path.

use crate::journal::{Event, FinishedSpan, Journal};
use crate::metrics::{Histogram, Key, Registry};
use crate::trace::Tracer;
use foundation::sync::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A source of virtual time (implemented by `acctrade_net`'s `SimClock`).
pub trait VirtualClock: Send + Sync {
    /// Current virtual time in microseconds since the epoch.
    fn now_us(&self) -> u64;
}

struct Inner {
    enabled: bool,
    registry: Registry,
    journal: Journal,
    virtual_clock: Mutex<Option<Arc<dyn VirtualClock>>>,
    started_wall: Instant,
}

/// A cheaply cloneable telemetry handle. All clones share one registry
/// and one span/event journal.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// A fresh, enabled recorder with empty state.
    pub fn new() -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                enabled: true,
                registry: Registry::new(),
                journal: Journal::default(),
                virtual_clock: Mutex::new(None),
                started_wall: Instant::now(),
            }),
        }
    }

    /// The process-wide disabled recorder (every write is a no-op).
    pub fn disabled() -> Recorder {
        static DISABLED: OnceLock<Recorder> = OnceLock::new();
        DISABLED
            .get_or_init(|| Recorder {
                inner: Arc::new(Inner {
                    enabled: false,
                    registry: Registry::new(),
                    journal: Journal::default(),
                    virtual_clock: Mutex::new(None),
                    started_wall: Instant::now(),
                }),
            })
            .clone()
    }

    /// Does this recorder record anything?
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Install the virtual-time source spans and events read. The fabric
    /// (`SimNet`) calls this at construction so telemetry timestamps ride
    /// the same clock as the simulation.
    pub fn set_virtual_clock(&self, clock: Arc<dyn VirtualClock>) {
        if !self.inner.enabled {
            return;
        }
        *self.inner.virtual_clock.lock() = Some(clock);
    }

    /// Current virtual time (0 when no clock was installed).
    pub fn virtual_now(&self) -> u64 {
        self.inner
            .virtual_clock
            .lock()
            .as_ref()
            .map(|c| c.now_us())
            .unwrap_or(0)
    }

    /// Wall-clock milliseconds since this recorder was created.
    pub fn wall_elapsed_ms(&self) -> f64 {
        self.inner.started_wall.elapsed().as_secs_f64() * 1e3
    }

    /// Mirror finished spans and events into a live [`Tracer`] (the ops
    /// plane's trace ring). The manifest path is unaffected: the sink
    /// only feeds the wall-clock operator view.
    pub fn set_trace_sink(&self, tracer: Tracer) {
        if !self.inner.enabled {
            return;
        }
        self.inner.journal.set_sink(tracer);
    }

    // ---- writes -------------------------------------------------------

    /// Add `delta` to a counter.
    pub fn incr(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if !self.inner.enabled {
            return;
        }
        self.inner.registry.incr(name, labels, delta);
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !self.inner.enabled {
            return;
        }
        self.inner.registry.gauge_set(name, labels, value);
    }

    /// Record one histogram sample.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        if !self.inner.enabled {
            return;
        }
        self.inner.registry.observe(name, labels, value);
    }

    /// Record one event into the journal (virtual timestamp).
    pub fn event(&self, name: &str, detail: impl Into<String>) {
        if !self.inner.enabled {
            return;
        }
        let at_virtual_us = self.virtual_now();
        self.inner.journal.record(Event {
            at_virtual_us,
            name: name.to_string(),
            detail: detail.into(),
        });
    }

    /// Open a span; it closes (and records) when the guard drops.
    pub fn span(&self, name: &str) -> Span {
        if !self.inner.enabled {
            return Span { live: None };
        }
        self.span_starting_at(name, self.virtual_now())
    }

    /// Open a span whose *virtual* start stamp is `virtual_start_us`
    /// instead of "now". Used when resuming a checkpointed run: the stage
    /// span that was live at snapshot time is reopened with its original
    /// start, so the resumed manifest's stage table matches an
    /// uninterrupted run exactly.
    pub fn span_starting_at(&self, name: &str, virtual_start_us: u64) -> Span {
        if !self.inner.enabled {
            return Span { live: None };
        }
        Span {
            live: Some(LiveSpan {
                rec: self.clone(),
                span: self.inner.journal.open(name, virtual_start_us),
                wall_start: Instant::now(),
            }),
        }
    }

    // ---- reads --------------------------------------------------------

    /// Current value of one counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.inner.registry.counter(name, labels)
    }

    /// Sum over every label set of one counter name.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner.registry.counter_total(name)
    }

    /// Sorted counter snapshot.
    pub fn counters(&self) -> BTreeMap<Key, u64> {
        self.inner.registry.counters()
    }

    /// Sorted gauge snapshot.
    pub fn gauges(&self) -> BTreeMap<Key, f64> {
        self.inner.registry.gauges()
    }

    /// Sorted histogram snapshot.
    pub fn histograms(&self) -> BTreeMap<Key, Histogram> {
        self.inner.registry.histograms()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.journal.events()
    }

    /// Finished spans in start order.
    pub fn finished_spans(&self) -> Vec<FinishedSpan> {
        self.inner.journal.spans()
    }

    // ---- internal state hooks (snapshot/restore) ----------------------

    pub(crate) fn registry_ref(&self) -> &Registry {
        &self.inner.registry
    }

    pub(crate) fn journal_ref(&self) -> &Journal {
        &self.inner.journal
    }

    // ---- scoping ------------------------------------------------------

    /// Make this recorder the current one for the calling thread until
    /// the returned guard drops. Scopes nest.
    pub fn enter(&self) -> RecorderScope {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        RecorderScope { _not_send: std::marker::PhantomData }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recorder(enabled={})", self.inner.enabled)
    }
}

/// RAII guard for an open span (see [`Recorder::span`]).
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    rec: Recorder,
    /// Stamped with the start; the end fields are filled in on drop.
    span: FinishedSpan,
    wall_start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut live) = self.live.take() {
            live.span.virtual_end_us = live.rec.virtual_now();
            live.span.wall_ns = live.wall_start.elapsed().as_nanos() as u64;
            live.rec.inner.journal.record(live.span);
        }
    }
}

/// RAII guard for a thread-scoped recorder (see [`Recorder::enter`]).
pub struct RecorderScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RecorderScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` against the current recorder (scoped → disabled).
///
/// This is the instrumentation entry point: when no recorder is active it
/// costs a thread-local read and `f` sees the disabled recorder, whose
/// writes return immediately.
pub fn with_recorder<T>(f: impl FnOnce(&Recorder) -> T) -> T {
    match CURRENT.with(|c| c.borrow().last().cloned()) {
        Some(rec) => f(&rec),
        None => f(&Recorder::disabled()),
    }
}

/// Clone the current recorder handle (scoped → disabled).
pub fn recorder() -> Recorder {
    with_recorder(Clone::clone)
}

/// Open a span on the current recorder.
pub fn span(name: &str) -> Span {
    with_recorder(|r| r.span(name))
}

/// Record an event on the current recorder.
pub fn event(name: &str, detail: impl Into<String>) {
    with_recorder(|r| r.event(name, detail.into()));
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedClock(u64);
    impl VirtualClock for FixedClock {
        fn now_us(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.incr("x", &[], 5);
        r.observe("h", &[], 1);
        r.event("e", "detail");
        let _s = r.span("dead");
        drop(_s);
        assert!(!r.is_enabled());
        assert_eq!(r.counter_total("x"), 0);
        assert!(r.events().is_empty());
        assert!(r.finished_spans().is_empty());
    }

    #[test]
    fn scoped_recorder_shadows_outer_scopes() {
        let rec = Recorder::new();
        let inner = Recorder::new();
        {
            let _scope = rec.enter();
            with_recorder(|r| r.incr("scoped.hits", &[], 1));
            // Nested scope wins.
            {
                let _scope2 = inner.enter();
                with_recorder(|r| r.incr("scoped.hits", &[], 10));
            }
            with_recorder(|r| r.incr("scoped.hits", &[], 1));
        }
        assert_eq!(rec.counter_total("scoped.hits"), 2);
        assert_eq!(inner.counter_total("scoped.hits"), 10);
    }

    #[test]
    fn spans_record_virtual_and_wall_time() {
        let rec = Recorder::new();
        let clock = Arc::new(foundation::sync::Mutex::new(100u64));
        struct Shared(Arc<foundation::sync::Mutex<u64>>);
        impl VirtualClock for Shared {
            fn now_us(&self) -> u64 {
                *self.0.lock()
            }
        }
        rec.set_virtual_clock(Arc::new(Shared(Arc::clone(&clock))));
        {
            let _outer = rec.span("outer");
            *clock.lock() = 250;
            {
                let _inner = rec.span("inner");
                *clock.lock() = 400;
            }
        }
        let spans = rec.finished_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].virtual_us(), 300);
        assert_eq!(spans[1].path, "outer/inner");
        assert_eq!(spans[1].virtual_us(), 150);
    }

    #[test]
    fn fixed_clock_stamps_events() {
        let rec = Recorder::new();
        rec.set_virtual_clock(Arc::new(FixedClock(777)));
        rec.event("tick", "x");
        assert_eq!(rec.events()[0].at_virtual_us, 777);
        assert_eq!(rec.virtual_now(), 777);
    }
}
