//! A session-capable HTTP client for the fabric.
//!
//! Models the two collection personas from the paper:
//!
//! * the **automated crawler** — respects robots.txt, self-throttles,
//!   never solves CAPTCHAs, follows redirects;
//! * the **manual operator** — used for underground forums: rides a Tor
//!   circuit, registers accounts, solves CAPTCHAs (slowly, fallibly), and
//!   is exempt from robots (a human browsing, not a bot).

use crate::captcha::{self, CaptchaKind, Challenge};
use crate::error::{NetError, NetResult};
use crate::http::{Request, Response, Status};
use crate::lane::Lane;
use crate::ratelimit::TokenBucket;
use crate::sim::SimNet;
use crate::tor::TorCircuit;
use crate::transport::Transport;
use crate::url::Url;
use foundation::sync::Mutex;
use foundation::rng::SeedableRng;
use foundation::rng::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Arc;

const MAX_REDIRECTS: usize = 8;
/// Response header a gated service uses to issue a CAPTCHA challenge.
pub const CAPTCHA_KIND_HEADER: &str = "x-captcha-kind";
/// Response header carrying the challenge nonce.
pub const CAPTCHA_NONCE_HEADER: &str = "x-captcha-nonce";
/// Request header carrying a solved token.
pub(crate) const CAPTCHA_TOKEN_HEADER: &str = "x-captcha-token";

/// Client operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persona {
    /// Automated crawler: robots-respecting, never solves CAPTCHAs.
    Automated,
    /// Human operator: ignores robots (interactive browsing), attempts
    /// CAPTCHAs with human success rates and delays.
    Manual,
}

/// A stateful HTTP client bound to one [`SimNet`].
pub struct Client {
    net: Arc<SimNet>,
    user_agent: String,
    persona: Persona,
    session_id: String,
    cookies: Mutex<HashMap<String, HashMap<String, String>>>,
    politeness: Mutex<HashMap<String, TokenBucket>>,
    polite_rate: Option<(f64, f64)>,
    circuit: Option<TorCircuit>,
    rng: Mutex<ChaCha8Rng>,
    max_captcha_attempts: u32,
    /// Transparent retries on transient transport faults (resets,
    /// timeouts). 0 = fail fast.
    retries: u32,
    /// The timeline every clock read/advance and every dispatch is
    /// charged to: the fabric's root lane, or a shard's own lane (the
    /// parallel-crawl path).
    lane: Arc<Lane>,
    /// How many sibling shard clients share this client's target host.
    /// Politeness budgets are divided by it and robots crawl-delays
    /// multiplied by it, so the *aggregate* request density on the host
    /// never exceeds what one sequential polite crawler would produce.
    host_share: u32,
    /// Pluggable request transport. `None` = the native sim-fabric
    /// path (lane-aware dispatch, virtual latency). `Some` = requests
    /// go through the transport (e.g. real loopback TCP), while
    /// politeness and robots *logic* stay identical.
    transport: Option<Arc<dyn Transport>>,
}

impl Client {
    /// An automated client with no politeness delay.
    pub fn new(net: &Arc<SimNet>, user_agent: &str) -> Client {
        Client {
            net: Arc::clone(net),
            user_agent: user_agent.to_string(),
            persona: Persona::Automated,
            session_id: format!("sess-{}", captcha::splitmix64(user_agent.len() as u64)),
            cookies: Mutex::new(HashMap::new()),
            politeness: Mutex::new(HashMap::new()),
            polite_rate: None,
            circuit: None,
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(0x00C1_1E27)),
            max_captcha_attempts: 3,
            retries: 0,
            lane: Arc::clone(net.root()),
            host_share: 1,
            transport: None,
        }
    }

    /// Fork a shard client for the parallel crawl engine: same fabric,
    /// user agent, persona, session identity, and retry policy, but
    /// bound to `lane` (all virtual time and RNG draws are charged
    /// there) with the politeness budget divided across `host_share`
    /// sibling shards targeting the same host.
    ///
    /// The split keeps the paper's crawl etiquette intact under
    /// parallelism: `host_share` shards each throttled to `rate /
    /// host_share` (and each honouring `host_share ×` the robots
    /// crawl-delay) put no more load on a host, per unit of virtual
    /// time, than one sequential polite crawler would.
    pub fn fork_for_shard(&self, lane: Arc<Lane>, host_share: u32) -> Client {
        let share = host_share.max(1);
        Client {
            net: Arc::clone(&self.net),
            user_agent: self.user_agent.clone(),
            persona: self.persona,
            session_id: self.session_id.clone(),
            cookies: Mutex::new(HashMap::new()),
            politeness: Mutex::new(HashMap::new()),
            polite_rate: self
                .polite_rate
                .map(|(rate, burst)| (rate / f64::from(share), (burst / f64::from(share)).max(1.0))),
            circuit: None,
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(0x00C1_1E27)),
            max_captcha_attempts: self.max_captcha_attempts,
            retries: self.retries,
            lane,
            host_share: share,
            transport: self.transport.clone(),
        }
    }

    /// Route requests through `transport` instead of the in-process
    /// fabric dispatch (e.g. `acctrade-httpd`'s loopback-TCP
    /// transport). Robots enforcement, politeness pacing, cookies,
    /// redirects, and CAPTCHA handling are unchanged; only the wire is
    /// swapped. Tor-circuit requests keep riding the simulated overlay.
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Client {
        self.transport = Some(transport);
        self
    }

    /// Retry transient transport failures (connection resets, timeouts)
    /// up to `n` additional times, with a short virtual-time backoff.
    /// Robots refusals and HTTP error statuses are never retried.
    pub fn with_retries(mut self, n: u32) -> Client {
        self.retries = n;
        self
    }

    /// Set per-host politeness: at most `rate` requests/sec with the given
    /// burst. The client *waits* (advances virtual time) instead of
    /// hammering — the paper's "avoiding automation triggers".
    pub fn with_politeness(mut self, rate: f64, burst: f64) -> Client {
        self.polite_rate = Some((rate, burst));
        self
    }

    /// Switch to the manual-operator persona.
    pub fn manual(mut self, seed: u64) -> Client {
        self.persona = Persona::Manual;
        self.rng = Mutex::new(ChaCha8Rng::seed_from_u64(seed ^ 0x0CE4_11FE));
        self
    }

    /// Attach a Tor circuit; all requests go through the overlay and
    /// `.onion` hosts become reachable.
    pub fn via_tor(mut self, circuit: TorCircuit) -> Client {
        self.circuit = Some(circuit);
        self
    }

    /// Stable session identifier (what clearnet servers see as the peer).
    pub fn session_id(&self) -> &str {
        &self.session_id
    }

    /// The fabric this client is bound to.
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// Current virtual time in unix seconds — lane time for shard
    /// clients, shared fabric time otherwise. Crawlers stamp
    /// `collected_unix` from this so records carry the time the fetch
    /// actually happened on the client's own timeline.
    pub fn virtual_now_unix(&self) -> i64 {
        if let Some(t) = &self.transport {
            if let Some(now) = t.now_unix() {
                return now;
            }
        }
        self.lane.clock().now_unix()
    }

    /// GET a URL string.
    pub fn get(&self, url: &str) -> NetResult<Response> {
        let url = Url::parse(url)?;
        self.execute(Request::get(url))
    }

    /// GET a parsed URL.
    pub fn get_url(&self, url: &Url) -> NetResult<Response> {
        self.execute(Request::get(url.clone()))
    }

    /// POST a form.
    pub fn post_form(&self, url: &Url, fields: &[(&str, &str)]) -> NetResult<Response> {
        self.execute(Request::post_form(url.clone(), fields))
    }

    /// Execute a request with robots checks, politeness, cookies,
    /// redirects, and (manual persona) CAPTCHA solving.
    pub fn execute(&self, mut req: Request) -> NetResult<Response> {
        let mut redirects = 0usize;
        loop {
            self.enforce_robots(&req.url)?;
            self.wait_politeness(req.url.host());
            self.attach_headers(&mut req);

            let resp = self.send_once(&req)?;
            self.store_cookies(req.url.host(), &resp);

            // CAPTCHA gate?
            if resp.status == Status::Unauthorized {
                if let Some(challenge) = extract_challenge(&resp) {
                    match self.persona {
                        Persona::Automated => {
                            // Ethics: automated collection never bypasses
                            // CAPTCHAs. Surface the 401 to the caller.
                            telemetry::with_recorder(|r| {
                                r.incr("net.captcha", &[("outcome", "refused")], 1);
                            });
                            return Ok(resp);
                        }
                        Persona::Manual => {
                            if let Some(token) = self.solve_captcha(&challenge) {
                                telemetry::with_recorder(|r| {
                                    r.incr("net.captcha", &[("outcome", "solved")], 1);
                                });
                                req.headers.set(CAPTCHA_TOKEN_HEADER, token.to_string());
                                continue;
                            }
                            telemetry::with_recorder(|r| {
                                r.incr("net.captcha", &[("outcome", "failed")], 1);
                            });
                            return Ok(resp); // gave up
                        }
                    }
                }
            }

            if resp.status.is_redirect() {
                redirects += 1;
                if redirects > MAX_REDIRECTS {
                    return Err(NetError::TooManyRedirects(req.url.to_string()));
                }
                let loc = resp
                    .headers
                    .get("location")
                    .ok_or_else(|| NetError::Protocol("redirect without location".into()))?;
                let next = req.url.join(loc)?;
                req = Request::get(next);
                continue;
            }
            return Ok(resp);
        }
    }

    fn send_once(&self, req: &Request) -> NetResult<Response> {
        let mut attempt = 0;
        loop {
            let result = self.send_raw(req);
            match &result {
                Err(NetError::ConnectionReset(_)) | Err(NetError::Timeout { .. })
                    if attempt < self.retries =>
                {
                    attempt += 1;
                    telemetry::with_recorder(|r| {
                        r.incr("net.retries", &[("host", req.url.host())], 1);
                    });
                    // Linear virtual-time backoff before the retry.
                    self.lane.clock().advance(u64::from(attempt) * 500_000);
                }
                _ => return result,
            }
        }
    }

    fn send_raw(&self, req: &Request) -> NetResult<Response> {
        match &self.circuit {
            Some(circuit) => {
                let extra = circuit.overlay_latency_us();
                self.net.dispatch_in(req, circuit.exit_nickname(), true, extra, &self.lane)
            }
            None => {
                if req.url.is_onion() {
                    return Err(NetError::TorRequired(req.url.host().to_string()));
                }
                match &self.transport {
                    Some(t) => t.send(req),
                    None => self.net.dispatch_in(req, &self.session_id, false, 0, &self.lane),
                }
            }
        }
    }

    fn enforce_robots(&self, url: &Url) -> NetResult<()> {
        if self.persona == Persona::Manual {
            return Ok(()); // humans browse; robots.txt governs robots
        }
        if url.path() == "/robots.txt" {
            return Ok(());
        }
        let policy = match &self.transport {
            // A real transport fetches robots.txt over its own wire
            // (cached); fall back to the fabric registry so hybrid
            // setups (loopback marketplaces, simulated overlay) work.
            Some(t) => t.robots(url.host()).or_else(|| self.net.robots_for(url.host())),
            None => self.net.robots_for(url.host()),
        };
        if let Some(policy) = policy {
            if !policy.is_allowed(&self.user_agent, url.path()) {
                telemetry::with_recorder(|r| {
                    r.incr("net.robots_denied", &[("host", url.host())], 1);
                });
                return Err(NetError::RobotsDisallowed(url.to_string()));
            }
            if let Some(delay) = policy.crawl_delay_us(&self.user_agent) {
                // Shard clients honour their share of the host's
                // crawl-delay budget: `host_share` parallel timelines
                // each spacing requests `host_share ×` wider aggregate
                // to the same per-host density one crawler produces.
                self.lane.clock().advance(delay.saturating_mul(u64::from(self.host_share)));
            }
        }
        Ok(())
    }

    fn wait_politeness(&self, host: &str) {
        let Some((rate, burst)) = self.polite_rate else {
            return;
        };
        let start = self.lane.clock().now_us();
        let mut map = self.politeness.lock();
        let bucket = map
            .entry(host.to_string())
            .or_insert_with(|| TokenBucket::new(rate, burst, start));
        // Loop rather than wait-once: with fractional rates (a shard
        // client's share of the host budget) float rounding can leave
        // the bucket a hair under one token at the predicted time, so
        // re-check and nudge at least 1 µs forward until granted.
        let mut t = start;
        while !bucket.try_acquire(t) {
            let at = bucket.next_allowed_at(t).max(t + 1);
            t = self.lane.clock().advance_to(at);
        }
        if t > start {
            telemetry::with_recorder(|r| {
                r.observe("net.politeness_wait_us", &[], t - start);
            });
        }
    }

    fn attach_headers(&self, req: &mut Request) {
        req.headers.set("user-agent", self.user_agent.clone());
        let cookies = self.cookies.lock();
        if let Some(jar) = cookies.get(req.url.host()) {
            if !jar.is_empty() {
                let mut pairs: Vec<String> =
                    jar.iter().map(|(k, v)| format!("{k}={v}")).collect();
                pairs.sort();
                req.headers.set("cookie", pairs.join("; "));
            }
        }
    }

    fn store_cookies(&self, host: &str, resp: &Response) {
        if let Some(sc) = resp.headers.get("set-cookie") {
            if let Some((k, v)) = sc.split_once('=') {
                let v = v.split(';').next().unwrap_or("").trim();
                self.cookies
                    .lock()
                    .entry(host.to_string())
                    .or_default()
                    .insert(k.trim().to_string(), v.to_string());
            }
        }
    }

    fn solve_captcha(&self, challenge: &Challenge) -> Option<u64> {
        let mut rng = self.rng.lock();
        for _ in 0..self.max_captcha_attempts {
            let (attempt, token) = captcha::human_attempt(challenge, &mut *rng);
            self.lane.clock().advance(attempt.elapsed_us);
            if attempt.solved {
                return token;
            }
        }
        None
    }
}

/// Pull a CAPTCHA challenge out of a 401 response, if present.
pub(crate) fn extract_challenge(resp: &Response) -> Option<Challenge> {
    let kind = match resp.headers.get(CAPTCHA_KIND_HEADER)? {
        "distorted-text" => CaptchaKind::DistortedText,
        "image-grid" => CaptchaKind::ImageGrid,
        "site-puzzle" => CaptchaKind::SitePuzzle,
        _ => return None,
    };
    let nonce = resp.headers.get(CAPTCHA_NONCE_HEADER)?.parse().ok()?;
    Some(Challenge { kind, nonce })
}

/// Render a [`CaptchaKind`] as its header value.
pub fn captcha_kind_header_value(kind: CaptchaKind) -> &'static str {
    match kind {
        CaptchaKind::DistortedText => "distorted-text",
        CaptchaKind::ImageGrid => "image-grid",
        CaptchaKind::SitePuzzle => "site-puzzle",
    }
}

/// Check a request for a valid solved-CAPTCHA token against `expected`
/// (computed server-side from the issued challenge).
pub fn request_token(req: &Request) -> Option<u64> {
    req.headers.get(CAPTCHA_TOKEN_HEADER)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::captcha::CaptchaGate;
    use crate::robots::RobotsPolicy;
    use crate::server::{RequestCtx, Router, Service};
    use crate::tor::TorDirectory;
    use foundation::sync::Mutex as PMutex;

    #[test]
    fn follows_redirects() {
        let net = SimNet::new(1);
        net.register(
            "r.com",
            Router::new()
                .route("/start", |_, _| {
                    Response::redirect(&Url::parse("http://r.com/end").unwrap())
                })
                .route("/end", |_, _| Response::ok().with_text("arrived")),
        );
        let c = Client::new(&net, "ua");
        let resp = c.get("http://r.com/start").unwrap();
        assert_eq!(resp.text(), "arrived");
    }

    #[test]
    fn redirect_loop_detected() {
        let net = SimNet::new(1);
        net.register(
            "loop.com",
            Router::new().route("/", |_, _| {
                Response::redirect(&Url::parse("http://loop.com/again").unwrap())
            }),
        );
        let c = Client::new(&net, "ua");
        assert!(matches!(
            c.get("http://loop.com/"),
            Err(NetError::TooManyRedirects(_))
        ));
    }

    #[test]
    fn automated_client_respects_robots() {
        let net = SimNet::new(1);
        net.register(
            "strict.com",
            Router::new()
                .route("/", |_, _| Response::ok())
                .with_robots(RobotsPolicy::parse("User-agent: *\nDisallow: /private/\n")),
        );
        let c = Client::new(&net, "acctrade-crawler/0.1");
        assert!(c.get("http://strict.com/public").is_ok());
        assert!(matches!(
            c.get("http://strict.com/private/x"),
            Err(NetError::RobotsDisallowed(_))
        ));
        // Manual persona may browse anywhere.
        let m = Client::new(&net, "mozilla").manual(9);
        assert!(m.get("http://strict.com/private/x").is_ok());
    }

    #[test]
    fn cookies_roundtrip() {
        let net = SimNet::new(1);
        net.register(
            "cookie.com",
            Router::new()
                .route("/login", |_, _| {
                    Response::ok().with_header("set-cookie", "sid=abc123; Path=/")
                })
                .route("/me", |req: &Request, _: &RequestCtx| {
                    match req.headers.get("cookie") {
                        Some(c) if c.contains("sid=abc123") => Response::ok().with_text("hello"),
                        _ => Response::status(Status::Unauthorized),
                    }
                }),
        );
        let c = Client::new(&net, "ua");
        assert_eq!(c.get("http://cookie.com/me").unwrap().status, Status::Unauthorized);
        c.get("http://cookie.com/login").unwrap();
        assert_eq!(c.get("http://cookie.com/me").unwrap().text(), "hello");
    }

    #[test]
    fn politeness_spaces_requests_in_virtual_time() {
        let net = SimNet::new(2);
        net.register_with(
            "p.com",
            Router::new().route("/", |_, _| Response::ok()),
            crate::latency::LatencyModel::Fixed { us: 10 },
        );
        let c = Client::new(&net, "ua").with_politeness(1.0, 1.0); // 1 req/s
        let t0 = net.clock().now_us();
        for _ in 0..4 {
            c.get("http://p.com/").unwrap();
        }
        // 3 waits of ~1s each (first request rides the initial burst).
        assert!(net.clock().now_us() - t0 >= 2_900_000);
    }

    /// A gated service: issues a CAPTCHA on first contact, content with a
    /// valid token.
    struct Gated {
        gate: PMutex<CaptchaGate>,
        issued: PMutex<Vec<Challenge>>,
    }

    impl Service for Gated {
        fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Response {
            if let Some(token) = request_token(req) {
                let issued = self.issued.lock();
                let gate = self.gate.lock();
                if issued.iter().any(|ch| gate.verify(ch, token)) {
                    return Response::ok().with_text("forum index");
                }
            }
            let ch = self.gate.lock().issue();
            let resp = Response::status(Status::Unauthorized)
                .with_header(CAPTCHA_KIND_HEADER, captcha_kind_header_value(ch.kind))
                .with_header(CAPTCHA_NONCE_HEADER, ch.nonce.to_string());
            self.issued.lock().push(ch);
            resp
        }
    }

    #[test]
    fn automated_never_solves_captcha_manual_does() {
        let net = SimNet::new(3);
        net.register(
            "gated.onion",
            Gated {
                gate: PMutex::new(CaptchaGate::new(CaptchaKind::DistortedText, 5)),
                issued: PMutex::new(Vec::new()),
            },
        );
        let dir = TorDirectory::default_consensus();
        let mut rng = foundation::rng::ChaCha8Rng::seed_from_u64(4);
        let bot = Client::new(&net, "bot").via_tor(dir.build_circuit(&mut rng));
        let resp = bot.get("http://gated.onion/").unwrap();
        assert_eq!(resp.status, Status::Unauthorized, "bot must not bypass the gate");

        let human = Client::new(&net, "mozilla")
            .manual(6)
            .via_tor(dir.build_circuit(&mut rng));
        let t0 = net.clock().now_us();
        let resp = human.get("http://gated.onion/").unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.text(), "forum index");
        // Solving consumed human-scale virtual time.
        assert!(net.clock().now_us() - t0 >= 4_000_000);
    }

    #[test]
    fn tor_requests_from_a_lane_client_charge_the_lane() {
        let net = SimNet::new(3);
        net.register(
            "forum.onion",
            Router::new().route("/", |_, ctx| Response::ok().with_text(ctx.via_tor.to_string())),
        );
        let lane = net.lane(0x70F);
        let mut rng = foundation::rng::ChaCha8Rng::seed_from_u64(4);
        let circuit = TorDirectory::default_consensus().build_circuit(&mut rng);
        let client =
            Client::new(&net, "ua").fork_for_shard(Arc::clone(&lane), 1).via_tor(circuit);
        let (t0, lane_t0) = (net.clock().now_us(), lane.clock().now_us());
        assert_eq!(client.get("http://forum.onion/").unwrap().text(), "true", "sent via Tor");
        assert_eq!(net.clock().now_us(), t0, "shared timeline untouched");
        assert_eq!(net.request_count(), 0, "shared count untouched until the lane is absorbed");
        assert!(lane.clock().now_us() > lane_t0, "the overlay latency is charged to the lane");
        net.absorb_lane(&lane);
        assert_eq!(net.request_count(), 1);
    }

    #[test]
    fn onion_unreachable_without_circuit() {
        let net = SimNet::new(3);
        net.register("x.onion", Router::new().route("/", |_, _| Response::ok()));
        let c = Client::new(&net, "ua");
        assert!(matches!(
            c.get("http://x.onion/"),
            Err(NetError::TorRequired(_))
        ));
    }
}
