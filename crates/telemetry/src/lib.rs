#![warn(missing_docs)]

//! # acctrade-telemetry
//!
//! Virtual-clock-aware tracing, metrics, and crawl-provenance manifests
//! for the `acctrade` workspace — zero-dependency (std + `foundation`).
//!
//! The reproduced paper's credibility rests on *pipeline provenance*:
//! pages crawled, offers parsed, API calls issued, error vocabularies
//! observed, CAPTCHA/robots refusals honoured (§3.2). This crate makes
//! that provenance first-class:
//!
//! * [`metrics`] — a lock-sharded registry of counters, gauges, and
//!   log-bucketed histograms, cheap enough for per-request hot paths;
//! * [`journal`] — the one store for spans and events: hierarchical
//!   spans that record **both** wall time and the simulation's virtual
//!   time, the last 1024 virtual-time-stamped events, and the optional
//!   trace sink both are mirrored into;
//! * [`recorder`] — the pluggable [`Recorder`] handle: thread-scoped
//!   recorders for studies and tests (so concurrent runs never share
//!   state), and a no-op-cheap disabled fallback;
//! * [`manifest`] — the [`RunManifest`] exporter behind
//!   `TELEMETRY_report.json`: seed, config digest, per-stage timings,
//!   per-marketplace crawl stats, per-platform API outcome tallies;
//! * [`trace`] — per-thread lock-free trace rings drained into Chrome
//!   `trace_event` JSON (`TRACE_report.json`), wall view for operators
//!   plus a deterministic virtual-time variant;
//! * [`prom`] — Prometheus text exposition over live registry state
//!   (the ops vhost's `/metrics` endpoint).
//!
//! ## Instrumentation idiom
//!
//! Library code records through the *current* recorder and never pays
//! more than a thread-local read when telemetry is off:
//!
//! ```
//! telemetry::with_recorder(|r| r.incr("net.requests", &[("host", "x.com")], 1));
//! ```
//!
//! Pipelines opt in by scoping a recorder:
//!
//! ```
//! let rec = telemetry::Recorder::new();
//! {
//!     let _scope = rec.enter();
//!     let _stage = telemetry::span("crawl_campaign");
//!     // ... run the pipeline; every instrumented crate records into `rec`
//!     telemetry::with_recorder(|r| r.incr("crawl.pages", &[("marketplace", "swapd")], 1));
//! }
//! let manifest = rec.manifest("study", 42, &telemetry::digest64("config"));
//! assert!(manifest.validate().is_ok());
//! ```
//!
//! ## Determinism
//!
//! Counters, histograms, events, and span *virtual* times are pure
//! functions of the seed; wall-clock fields are clearly named `wall_*`
//! and stripped by [`RunManifest::deterministic_json`], which the
//! determinism suite compares byte-for-byte across same-seed runs.

pub mod journal;
pub mod manifest;
pub mod metrics;
pub mod prom;
pub mod recorder;
pub mod snapshot;
pub mod trace;

pub use manifest::{digest64, normalize_for_determinism, RunManifest, REPORT_FILE};
pub use prom::{reconcile_metrics, render_prometheus};
pub use snapshot::TelemetrySnapshot;
pub use metrics::{Histogram, Key, Registry};
pub use recorder::{
    event, recorder, span, with_recorder, Recorder, RecorderScope, Span, VirtualClock,
};
pub use trace::{
    validate_trace, virtual_trace, SlowEntry, TraceCat, TraceRecord, Tracer, TRACE_FILE,
    TRACE_SCHEMA,
};
