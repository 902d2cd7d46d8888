//! Deterministic per-shard execution lanes for parallel crawling.
//!
//! The fabric ([`crate::sim::SimNet`]) is a discrete-event simulation:
//! every request draws latency from one shared RNG stream and advances
//! one shared clock, so the *arrival order* of requests decides what
//! each request observes. That is fine single-threaded — arrival order
//! is program order — but fatal for parallelism: two worker threads
//! racing through the same RNG/clock would make the artifacts depend on
//! the OS scheduler.
//!
//! A [`Lane`] fixes this by giving one crawl shard its own private
//! slice of the simulation:
//!
//! * an **RNG substream** seeded from the fabric seed and the shard's
//!   stable salt — so the latency/fault draws a shard sees depend only
//!   on (seed, shard, request index), never on what other shards do;
//! * a **virtual-time cursor** starting at the shard's fixed start time
//!   — politeness waits, robots crawl-delays, and latency charges all
//!   advance the lane cursor, not the shared clock;
//! * a **buffered request log** — entries are stamped with lane time
//!   and folded into the shared fabric log in a fixed shard order after
//!   all workers join ([`crate::sim::SimNet::absorb_lane`]).
//!
//! The result: a shard's entire observable behaviour is a pure function
//! of its inputs, independent of which worker runs it and when — which
//! is exactly the property the deterministic merge stage needs to make
//! `workers=8` byte-identical to `workers=1`.

use crate::sim::LogEntry;
use foundation::rng::ChaCha8Rng;
use foundation::sync::Mutex;

/// One shard's private clock, RNG substream, and log buffer. Created by
/// [`crate::sim::SimNet::lane`]; handed to a [`crate::client::Client`]
/// via [`crate::client::Client::fork_for_shard`].
pub struct Lane {
    /// The lane's fixed virtual start (µs since epoch).
    start_us: u64,
    /// The lane's virtual-time cursor (µs since epoch, ≥ `start_us`).
    cursor: Mutex<u64>,
    /// The lane's private latency/fault RNG substream.
    rng: Mutex<ChaCha8Rng>,
    /// Request-log entries buffered until the fabric absorbs the lane.
    log: Mutex<Vec<LogEntry>>,
}

impl Lane {
    /// Build a lane starting at `start_us` with its own RNG substream.
    pub(crate) fn new(start_us: u64, rng: ChaCha8Rng) -> Lane {
        Lane {
            start_us,
            cursor: Mutex::new(start_us),
            rng: Mutex::new(rng),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The lane's fixed virtual start (µs since epoch).
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// Current lane time in µs since the epoch.
    pub fn now_us(&self) -> u64 {
        *self.cursor.lock()
    }

    /// Current lane time in unix seconds.
    pub fn now_unix(&self) -> i64 {
        (self.now_us() / 1_000_000) as i64
    }

    /// Advance the lane cursor by `delta_us`.
    pub fn advance(&self, delta_us: u64) {
        let mut cursor = self.cursor.lock();
        *cursor += delta_us;
    }

    /// Advance the lane cursor to `target_us` (never backwards).
    pub fn advance_to(&self, target_us: u64) {
        let mut cursor = self.cursor.lock();
        if target_us > *cursor {
            *cursor = target_us;
        }
    }

    /// Words consumed from the lane's RNG substream (shard-cursor
    /// provenance recorded into campaign checkpoints).
    pub fn rng_word_position(&self) -> u64 {
        self.rng.lock().word_position()
    }

    /// Buffered log entries so far.
    pub fn log_len(&self) -> usize {
        self.log.lock().len()
    }

    /// Lock the lane RNG for a latency/fault draw (fabric-internal; the
    /// lane RNG is a leaf lock — nothing is acquired while holding it).
    pub(crate) fn rng(&self) -> foundation::sync::MutexGuard<'_, ChaCha8Rng> {
        self.rng.lock()
    }

    /// Buffer one request-log entry (fabric-internal).
    pub(crate) fn push_log(&self, entry: LogEntry) {
        self.log.lock().push(entry);
    }

    /// Drain the buffered log (fabric-internal; called by
    /// [`crate::sim::SimNet::absorb_lane`]).
    pub(crate) fn drain_log(&self) -> Vec<LogEntry> {
        std::mem::take(&mut *self.log.lock())
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("start_us", &self.start_us)
            .field("now_us", &self.now_us())
            .field("buffered_log", &self.log_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::rng::{RngExt, SeedableRng};

    #[test]
    fn lane_clock_is_private_and_monotone() {
        let lane = Lane::new(1_000, ChaCha8Rng::seed_from_u64(1));
        assert_eq!(lane.start_us(), 1_000);
        assert_eq!(lane.now_us(), 1_000);
        lane.advance(500);
        assert_eq!(lane.now_us(), 1_500);
        lane.advance_to(1_200); // backwards: ignored
        assert_eq!(lane.now_us(), 1_500);
        lane.advance_to(2_000);
        assert_eq!(lane.now_us(), 2_000);
        assert_eq!(lane.now_unix(), 0, "µs cursor under one second");
    }

    #[test]
    fn lane_rng_is_an_independent_substream() {
        let a = Lane::new(0, ChaCha8Rng::seed_from_u64(7));
        let b = Lane::new(0, ChaCha8Rng::seed_from_u64(7));
        let xa: u64 = a.rng().random_range(0..1_000_000);
        let xb: u64 = b.rng().random_range(0..1_000_000);
        assert_eq!(xa, xb, "same substream seed, same draws");
        assert_eq!(a.rng_word_position(), b.rng_word_position());
    }
}
