//! Deterministic execution lanes: the timelines every request is
//! charged to.
//!
//! The fabric ([`crate::sim::SimNet`]) is a discrete-event simulation:
//! every request draws latency from an RNG stream and advances a
//! virtual clock, so the *arrival order* of requests on one timeline
//! decides what each request observes. That is fine single-threaded —
//! arrival order is program order — but fatal for parallelism: two
//! worker threads racing through the same RNG/clock would make the
//! artifacts depend on the OS scheduler.
//!
//! A [`Lane`] is one such timeline:
//!
//! * a **virtual clock** ([`SimClock`]);
//! * an **RNG substream** for latency and fault draws;
//! * a **request count**.
//!
//! The fabric's own clock, RNG and count are its *root lane*; a client
//! that is not bound to a shard is charged there. Each crawl shard gets
//! a lane of its own, seeded from the fabric seed and the shard's stable
//! salt and starting at the shard's fixed start time: politeness waits,
//! robots crawl-delays and latency charges advance the shard's clock,
//! not the shared one, and its request count is folded into the root
//! lane's after all workers join ([`crate::sim::SimNet::absorb_lane`]).
//!
//! The result: a shard's entire observable behaviour is a pure function
//! of its inputs, independent of which worker runs it and when — which
//! is exactly the property the deterministic merge stage needs to make
//! `workers=8` byte-identical to `workers=1`.

use crate::clock::SimClock;
use foundation::rng::ChaCha8Rng;
use foundation::sync::{Mutex, MutexGuard};

/// One timeline: a virtual clock, an RNG substream and a request count.
/// Shard lanes are created by [`crate::sim::SimNet::lane`] and handed
/// to a [`crate::client::Client`] via
/// [`crate::client::Client::fork_for_shard`].
pub struct Lane {
    /// The lane's fixed virtual start (µs since epoch).
    start_us: u64,
    /// The lane's virtual clock (never before `start_us`).
    clock: SimClock,
    /// The lane's latency/fault RNG substream.
    rng: Mutex<ChaCha8Rng>,
    /// Requests charged to this lane.
    requests: Mutex<usize>,
}

impl Lane {
    /// Build a lane on `clock`, starting at its current time, with its
    /// own RNG substream.
    pub(crate) fn new(clock: SimClock, rng: ChaCha8Rng) -> Lane {
        Lane {
            start_us: clock.now_us(),
            clock,
            rng: Mutex::new(rng),
            requests: Mutex::new(0),
        }
    }

    /// The lane's fixed virtual start (µs since epoch).
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// The lane's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Words consumed from the lane's RNG substream (shard-cursor
    /// provenance recorded into campaign checkpoints).
    pub fn rng_word_position(&self) -> u64 {
        self.rng.lock().word_position()
    }

    /// Lock the lane RNG for a latency/fault draw (fabric-internal; the
    /// lane RNG is a leaf lock — nothing is acquired while holding it).
    pub(crate) fn rng(&self) -> MutexGuard<'_, ChaCha8Rng> {
        self.rng.lock()
    }

    /// Lock the lane's request count (fabric-internal).
    pub(crate) fn requests(&self) -> MutexGuard<'_, usize> {
        self.requests.lock()
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("start_us", &self.start_us)
            .field("now_us", &self.clock.now_us())
            .field("requests", &*self.requests.lock())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::rng::{RngExt, SeedableRng};

    #[test]
    fn lane_clock_is_private_and_monotone() {
        let lane = Lane::new(SimClock::at_us(1_000), ChaCha8Rng::seed_from_u64(1));
        assert_eq!(lane.start_us(), 1_000);
        assert_eq!(lane.clock().now_us(), 1_000);
        lane.clock().advance(500);
        assert_eq!(lane.clock().now_us(), 1_500);
        lane.clock().advance_to(1_200); // backwards: ignored
        assert_eq!(lane.clock().now_us(), 1_500);
        lane.clock().advance_to(2_000);
        assert_eq!(lane.clock().now_us(), 2_000);
        assert_eq!(lane.clock().now_unix(), 0, "µs clock under one second");
        assert_eq!(lane.start_us(), 1_000, "the start stays fixed");
    }

    #[test]
    fn lane_rng_is_an_independent_substream() {
        let a = Lane::new(SimClock::zero(), ChaCha8Rng::seed_from_u64(7));
        let b = Lane::new(SimClock::zero(), ChaCha8Rng::seed_from_u64(7));
        let xa: u64 = a.rng().random_range(0..1_000_000);
        let xb: u64 = b.rng().random_range(0..1_000_000);
        assert_eq!(xa, xb, "same substream seed, same draws");
        assert_eq!(a.rng_word_position(), b.rng_word_position());
    }
}
