//! Lock-free server-side counters.
//!
//! The worker threads run outside any telemetry recorder scope (the
//! recorder is resolved per-thread), so the serve loop bumps plain
//! atomics here and whoever owns the server — a test, an example, the
//! end-to-end benchmark — [`ServerStats::publish`]es a snapshot into
//! the recorder from the thread that installed it.

// conformance: atomics(relaxed) — monotone counters aggregated off the hot path

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, lock-free counters for one [`crate::HttpServer`].
///
/// All methods use relaxed ordering: the counters are monotonic tallies
/// read after the fact, never used for synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// TCP connections accepted.
    pub accepted: AtomicU64,
    /// Connections rejected because the bounded queue was full.
    pub queue_rejected: AtomicU64,
    /// Requests served with a response (any status).
    pub requests: AtomicU64,
    /// Requests served on a reused (keep-alive) connection.
    pub keepalive_reuse: AtomicU64,
    /// Connections torn down with a 400 after a parse error.
    pub parse_rejects: AtomicU64,
    /// Connections closed by an idle or read/write deadline.
    pub timeouts: AtomicU64,
    /// High-water mark of the connection queue depth.
    pub queue_high_water: AtomicU64,
}

impl ServerStats {
    /// Fresh zeroed stats.
    pub fn new() -> ServerStats {
        ServerStats::default()
    }

    /// Record an observed queue depth, keeping the high-water mark.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (each field individually atomic).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            queue_rejected: self.queue_rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            keepalive_reuse: self.keepalive_reuse.load(Ordering::Relaxed),
            parse_rejects: self.parse_rejects.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
        }
    }

    /// Publish the current snapshot into the calling thread's telemetry
    /// recorder as `httpd_*` counters and gauges. Counters in the
    /// recorder are cumulative, so this is intended to be called once
    /// per server lifetime (e.g. after shutdown).
    pub fn publish(&self) {
        let s = self.snapshot();
        telemetry::with_recorder(|rec| {
            rec.incr("httpd_conns_accepted", &[], s.accepted);
            rec.incr("httpd_conns_queue_rejected", &[], s.queue_rejected);
            rec.incr("httpd_requests", &[], s.requests);
            rec.incr("httpd_keepalive_reuse", &[], s.keepalive_reuse);
            rec.incr("httpd_parse_rejects", &[], s.parse_rejects);
            rec.incr("httpd_timeouts", &[], s.timeouts);
            rec.gauge_set("httpd_queue_high_water", &[], s.queue_high_water as f64);
        });
    }
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// TCP connections accepted.
    pub accepted: u64,
    /// Connections rejected at the queue.
    pub queue_rejected: u64,
    /// Requests answered.
    pub requests: u64,
    /// Requests on reused connections.
    pub keepalive_reuse: u64,
    /// Parse-reject teardowns.
    pub parse_rejects: u64,
    /// Deadline/idle teardowns.
    pub timeouts: u64,
    /// Queue depth high-water mark.
    pub queue_high_water: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_keeps_max() {
        let s = ServerStats::new();
        s.observe_queue_depth(3);
        s.observe_queue_depth(7);
        s.observe_queue_depth(5);
        assert_eq!(s.snapshot().queue_high_water, 7);
    }

    #[test]
    fn publish_lands_in_scoped_recorder() {
        let rec = telemetry::Recorder::new();
        let _scope = rec.enter();
        let s = ServerStats::new();
        s.accepted.fetch_add(2, Ordering::Relaxed);
        s.requests.fetch_add(9, Ordering::Relaxed);
        s.publish();
        assert_eq!(rec.counter("httpd_conns_accepted", &[]), 2);
        assert_eq!(rec.counter("httpd_requests", &[]), 9);
    }
}
