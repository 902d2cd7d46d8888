//! The network fabric: host registry, routing, latency accounting, fault
//! injection, and a request count.

use crate::clock::SimClock;
use crate::error::{NetError, NetResult};
use crate::http::{Request, Response};
use crate::lane::Lane;
use crate::latency::LatencyModel;
use crate::robots::RobotsPolicy;
use crate::server::{RequestCtx, Service};
use foundation::rng::{splitmix64, RngExt, SeedableRng};
use foundation::rng::ChaCha8Rng;
use foundation::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Fault-injection plan applied to every request on the fabric.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability a request dies with a connection reset.
    pub reset_prob: f64,
    /// Probability a request stalls past the client deadline.
    pub timeout_prob: f64,
    /// Client deadline in virtual microseconds.
    pub deadline_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { reset_prob: 0.0, timeout_prob: 0.0, deadline_us: 30_000_000 }
    }
}

struct HostEntry {
    service: Arc<dyn Service>,
    latency: LatencyModel,
}

/// The simulated network every component of a study shares.
///
/// `SimNet` owns the host registry, the fault plan and its *root lane*:
/// the shared virtual clock, a seeded RNG for latency/fault sampling,
/// and the count of requests routed ("how many requests did the crawl
/// issue", "how long did the underground collection take"). Every
/// request is charged to a [`Lane`]: the root lane, or a shard lane
/// whose count is folded back by [`SimNet::absorb_lane`].
pub struct SimNet {
    seed: u64,
    root: Arc<Lane>,
    hosts: Mutex<HashMap<String, HostEntry>>,
    faults: Mutex<FaultPlan>,
}

impl SimNet {
    /// Create a fabric with its clock at the paper's collection start and
    /// all randomness derived from `seed`.
    ///
    /// Installs the clock as the current telemetry recorder's
    /// [`telemetry::VirtualClock`], so spans and events recorded anywhere
    /// downstream are stamped with the fabric's virtual time.
    pub fn new(seed: u64) -> Arc<SimNet> {
        let clock = SimClock::at_collection_start();
        telemetry::with_recorder(|r| r.set_virtual_clock(Arc::new(clock.clone())));
        let rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0000_0000_00F0);
        Arc::new(SimNet {
            seed,
            root: Arc::new(Lane::new(clock, rng)),
            hosts: Mutex::new(HashMap::new()),
            faults: Mutex::new(FaultPlan::default()),
        })
    }

    /// Open a deterministic [`Lane`] starting at the current shared
    /// clock. `salt` must be stable across runs (derive it from the
    /// shard's marketplace/chain/iteration, never from scheduling) —
    /// the lane's RNG substream is a pure function of `(seed, salt)`.
    pub fn lane(&self, salt: u64) -> Arc<Lane> {
        self.lane_starting_at(salt, self.clock().now_us())
    }

    /// Open a deterministic [`Lane`] with an explicit virtual start
    /// (chain lanes start where their marketplace's discovery lane
    /// ended, not at the shared clock).
    pub fn lane_starting_at(&self, salt: u64, start_us: u64) -> Arc<Lane> {
        let stream = splitmix64(self.seed ^ 0x5EED_0000_0000_1A4E) ^ splitmix64(salt);
        Arc::new(Lane::new(SimClock::at_us(start_us), ChaCha8Rng::seed_from_u64(stream)))
    }

    /// Fold a finished shard lane back into the fabric: move its request
    /// count into the root lane's and advance the shared clock to the
    /// lane's clock (never backwards). Callers absorb lanes after all
    /// workers join.
    pub fn absorb_lane(&self, lane: &Lane) {
        let requests = std::mem::take(&mut *lane.requests());
        *self.root.requests() += requests;
        self.clock().advance_to(lane.clock().now_us());
    }

    /// The shared clock (the root lane's).
    pub fn clock(&self) -> &SimClock {
        self.root.clock()
    }

    /// The fabric's own lane, which clients not bound to a shard use.
    pub(crate) fn root(&self) -> &Arc<Lane> {
        &self.root
    }

    /// The absolute word position of the fabric's latency/fault RNG stream.
    ///
    /// Together with [`SimNet::set_rng_word_position`] this makes the fabric
    /// checkpointable: a resumed fabric seeded identically and seeked to the
    /// recorded position produces the exact same latency samples and fault
    /// draws as the uninterrupted original.
    pub fn rng_word_position(&self) -> u64 {
        self.root.rng_word_position()
    }

    /// Seek the fabric's RNG to an absolute word position previously read
    /// via [`SimNet::rng_word_position`] (checkpoint restore).
    pub fn set_rng_word_position(&self, words: u64) {
        self.root.rng().set_word_position(words);
    }

    /// Replace the fault plan.
    pub fn set_faults(&self, plan: FaultPlan) {
        *self.faults.lock() = plan;
    }

    /// Register a service under `host` with a latency profile inferred from
    /// the host kind (onion vs clearnet).
    pub fn register<S: Service + 'static>(&self, host: &str, service: S) {
        let latency = if host.ends_with(".onion") {
            LatencyModel::onion()
        } else {
            LatencyModel::clearnet()
        };
        self.register_with(host, service, latency);
    }

    /// Register a service with an explicit latency model.
    pub fn register_with<S: Service + 'static>(
        &self,
        host: &str,
        service: S,
        latency: LatencyModel,
    ) {
        self.hosts.lock().insert(
            host.to_ascii_lowercase(),
            HostEntry { service: Arc::new(service), latency },
        );
    }

    /// Remove a host (marketplace takedowns mid-study).
    pub fn deregister(&self, host: &str) -> bool {
        self.hosts.lock().remove(&host.to_ascii_lowercase()).is_some()
    }

    /// Is `host` registered?
    pub fn knows_host(&self, host: &str) -> bool {
        self.hosts.lock().contains_key(&host.to_ascii_lowercase())
    }

    /// Registered hostnames, sorted.
    pub fn hosts(&self) -> Vec<String> {
        let mut v: Vec<String> = self.hosts.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Snapshot of every registered `(host, service)` pair, sorted by
    /// host. The `Arc`s are shared, not cloned services: a loopback
    /// HTTP server (`acctrade-httpd`) mounting this snapshot serves the
    /// *same* live objects the fabric routes to, so world churn between
    /// crawl iterations is visible on both transports.
    pub fn services(&self) -> Vec<(String, Arc<dyn Service>)> {
        let hosts = self.hosts.lock();
        let mut v: Vec<(String, Arc<dyn Service>)> = hosts
            .iter()
            .map(|(h, e)| (h.clone(), Arc::clone(&e.service)))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The robots policy of `host`, if the host exists.
    pub fn robots_for(&self, host: &str) -> Option<RobotsPolicy> {
        self.hosts
            .lock()
            .get(&host.to_ascii_lowercase())
            .map(|e| e.service.robots())
    }

    /// Route one request through the fabric, charged to the root lane.
    ///
    /// `peer` is the identity the server will see; `via_tor` marks overlay
    /// requests and `extra_latency_us` carries the circuit's overlay cost.
    pub fn dispatch(
        &self,
        req: &Request,
        peer: &str,
        via_tor: bool,
        extra_latency_us: u64,
    ) -> NetResult<Response> {
        self.dispatch_in(req, peer, via_tor, extra_latency_us, &self.root)
    }

    /// [`SimNet::dispatch`], charging virtual time, RNG draws and the
    /// request to `lane` (the root lane, or a shard's).
    pub fn dispatch_in(
        &self,
        req: &Request,
        peer: &str,
        via_tor: bool,
        extra_latency_us: u64,
        lane: &Lane,
    ) -> NetResult<Response> {
        let host = req.url.host().to_string();
        if req.url.is_onion() && !via_tor {
            return Err(NetError::TorRequired(host));
        }
        *lane.requests() += 1;

        // Sample latency and faults first so the RNG stream does not depend
        // on registry state. Lock order: hosts → faults → lane RNG (a leaf:
        // nothing else is acquired while it is held).
        let (service, latency_us, reset, timeout, deadline) = {
            let hosts = self.hosts.lock();
            let Some(entry) = hosts.get(&host) else {
                drop(hosts);
                telemetry::with_recorder(|r| {
                    r.incr("net.faults", &[("kind", "unreachable")], 1);
                });
                return Err(NetError::HostUnreachable(host));
            };
            let faults = *self.faults.lock();
            let mut rng = lane.rng();
            let latency_us = entry.latency.sample(&mut *rng) + extra_latency_us;
            let reset = faults.reset_prob > 0.0 && rng.random_bool(faults.reset_prob);
            let timeout = faults.timeout_prob > 0.0 && rng.random_bool(faults.timeout_prob);
            (Arc::clone(&entry.service), latency_us, reset, timeout, faults.deadline_us)
        };

        if timeout {
            lane.clock().advance(deadline);
            telemetry::with_recorder(|r| {
                r.incr("net.faults", &[("kind", "timeout")], 1);
            });
            return Err(NetError::Timeout { host, after_us: deadline });
        }
        if reset {
            // A reset burns roughly half the would-be latency.
            lane.clock().advance(latency_us / 2);
            telemetry::with_recorder(|r| {
                r.incr("net.faults", &[("kind", "reset")], 1);
            });
            return Err(NetError::ConnectionReset(host));
        }

        let now_us = lane.clock().advance(latency_us);
        let ctx = RequestCtx { now_us, peer: peer.to_string(), via_tor };
        let resp = service.handle(req, &ctx);
        telemetry::with_recorder(|r| {
            let code = resp.status.code().to_string();
            r.incr("net.requests", &[("host", &host), ("status", &code)], 1);
            r.observe("net.latency_us", &[], latency_us);
        });
        Ok(resp)
    }

    /// Total requests routed (including failures).
    pub fn request_count(&self) -> usize {
        *self.root.requests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::server::FixedStatus;
    use crate::url::Url;

    fn req(url: &str) -> Request {
        Request::get(Url::parse(url).unwrap())
    }

    #[test]
    fn routes_to_registered_host() {
        let net = SimNet::new(1);
        net.register("shop.com", FixedStatus(Status::Ok, "hi"));
        let resp = net.dispatch(&req("http://shop.com/x"), "c1", false, 0).unwrap();
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn unknown_host_unreachable() {
        let net = SimNet::new(1);
        let err = net.dispatch(&req("http://nope.com/"), "c1", false, 0).unwrap_err();
        assert_eq!(err, NetError::HostUnreachable("nope.com".into()));
    }

    #[test]
    fn onion_requires_tor() {
        let net = SimNet::new(1);
        net.register("abc.onion", FixedStatus(Status::Ok, "market"));
        let err = net.dispatch(&req("http://abc.onion/"), "c1", false, 0).unwrap_err();
        assert!(matches!(err, NetError::TorRequired(_)));
        let ok = net.dispatch(&req("http://abc.onion/"), "exit3", true, 150_000).unwrap();
        assert_eq!(ok.status, Status::Ok);
    }

    #[test]
    fn latency_advances_clock() {
        let net = SimNet::new(2);
        net.register_with(
            "fast.com",
            FixedStatus(Status::Ok, ""),
            LatencyModel::Fixed { us: 1234 },
        );
        let t0 = net.clock().now_us();
        net.dispatch(&req("http://fast.com/"), "c", false, 0).unwrap();
        assert_eq!(net.clock().now_us(), t0 + 1234);
    }

    #[test]
    fn faults_reset_and_timeout() {
        let net = SimNet::new(4);
        net.register("flaky.com", FixedStatus(Status::Ok, ""));
        net.set_faults(FaultPlan { reset_prob: 1.0, timeout_prob: 0.0, deadline_us: 100 });
        assert!(matches!(
            net.dispatch(&req("http://flaky.com/"), "c", false, 0),
            Err(NetError::ConnectionReset(_))
        ));
        net.set_faults(FaultPlan { reset_prob: 0.0, timeout_prob: 1.0, deadline_us: 100 });
        assert!(matches!(
            net.dispatch(&req("http://flaky.com/"), "c", false, 0),
            Err(NetError::Timeout { .. })
        ));
    }

    #[test]
    fn log_records_every_attempt() {
        let net = SimNet::new(5);
        net.register("a.com", FixedStatus(Status::Ok, ""));
        net.register("c.onion", FixedStatus(Status::Ok, ""));
        net.dispatch(&req("http://a.com/1"), "c", false, 0).unwrap();
        net.dispatch(&req("http://b.com/2"), "c", false, 0).unwrap_err();
        assert_eq!(net.request_count(), 2, "a served and an unreachable request");
        net.dispatch(&req("http://c.onion/"), "c", false, 0).unwrap_err();
        assert_eq!(net.request_count(), 2, "refused before routing: not counted");
    }

    #[test]
    fn deregister_takes_host_down() {
        let net = SimNet::new(6);
        net.register("gone.com", FixedStatus(Status::Ok, ""));
        assert!(net.knows_host("gone.com"));
        assert!(net.deregister("gone.com"));
        assert!(!net.knows_host("gone.com"));
        assert!(net.dispatch(&req("http://gone.com/"), "c", false, 0).is_err());
    }

    #[test]
    fn same_seed_same_latency_sequence() {
        let run = |seed| {
            let net = SimNet::new(seed);
            net.register("x.com", FixedStatus(Status::Ok, ""));
            for _ in 0..5 {
                net.dispatch(&req("http://x.com/"), "c", false, 0).unwrap();
            }
            net.clock().now_us()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }
}
