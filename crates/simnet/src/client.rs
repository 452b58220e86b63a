//! The user-facing client: timeouts and retries over [`Network::transmit`].
//!
//! This is the only entry point the agent crates use to reach the
//! simulated web. It enforces a per-request timeout against the virtual
//! clock and drives the [`RetryPolicy`], sleeping (in virtual time)
//! between attempts.

use crate::breaker::{BreakerConfig, BreakerMetrics, BreakerState, CircuitBreaker, FailureClass};
use crate::cache::{CacheConfig, ResponseCache};
use crate::clock::Duration;
use crate::error::{NetError, NetResult};
use crate::retry::RetryPolicy;
use crate::server::{Network, Request, Response};
use crate::url::Url;
use ira_obs::{stage, ObsHandle, TraceEvent};
use parking_lot::Mutex;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Client behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Per-attempt timeout: attempts whose simulated round trip exceeds
    /// this are reported as [`NetError::Timeout`].
    pub timeout: Duration,
    pub retry: RetryPolicy,
    /// Client-side response cache (LRU + TTL). Hits cost no virtual
    /// network time.
    pub cache: CacheConfig,
    /// Maximum redirect hops followed per request.
    pub max_redirects: u32,
    /// Per-host circuit breaker; `None` (the default) disables it and
    /// preserves the classic retry-only behaviour.
    pub breaker: Option<BreakerConfig>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::standard(),
            cache: CacheConfig::default(),
            max_redirects: 4,
            breaker: None,
        }
    }
}

impl ClientConfig {
    /// The resilient profile: default behaviour plus a per-host
    /// circuit breaker — what the agent uses under chaos testing.
    pub fn resilient() -> Self {
        ClientConfig {
            breaker: Some(BreakerConfig::default()),
            ..ClientConfig::default()
        }
    }
}

static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// A handle for issuing requests to a [`Network`].
#[derive(Clone)]
pub struct Client {
    net: Arc<Network>,
    config: ClientConfig,
    cache: Arc<Mutex<ResponseCache>>,
    breakers: Arc<Mutex<HashMap<String, CircuitBreaker>>>,
    retry_rng: Arc<Mutex<ChaCha8Rng>>,
    id: u64,
    obs: ObsHandle,
}

impl Client {
    pub fn new(net: Arc<Network>) -> Self {
        Client::with_config(net, ClientConfig::default())
    }

    pub fn with_config(net: Arc<Network>, config: ClientConfig) -> Self {
        Client {
            net,
            cache: Arc::new(Mutex::new(ResponseCache::new(config.cache))),
            breakers: Arc::new(Mutex::new(HashMap::new())),
            retry_rng: Arc::new(Mutex::new(config.retry.backoff.jitter_rng())),
            config,
            id: NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach an [`ObsHandle`]: subsequent requests emit cache, retry,
    /// breaker, and fetch-latency events tagged with the handle's
    /// session, parented under whatever scope the session currently
    /// has open. Set this *before* cloning the client into agent
    /// layers so every clone shares the handle.
    pub fn set_observer_handle(&mut self, handle: ObsHandle) {
        self.obs = handle;
    }

    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Whether a request to `host` would currently be rejected by its
    /// circuit breaker without touching the network. Non-mutating: does
    /// not count a fast failure or admit a probe, so callers can use it
    /// to reroute *before* spending any budget.
    pub fn breaker_would_fail_fast(&self, host: &str) -> bool {
        let breakers = self.breakers.lock();
        match breakers.get(host) {
            Some(b) => {
                b.state() == BreakerState::Open
                    && b.retry_in(self.net.clock().now()) > Duration::ZERO
            }
            None => false,
        }
    }

    /// Per-host breaker metrics, sorted by host name.
    pub fn breaker_metrics(&self) -> Vec<(String, BreakerMetrics)> {
        let breakers = self.breakers.lock();
        let mut out: Vec<(String, BreakerMetrics)> = breakers
            .iter()
            .map(|(h, b)| (h.clone(), b.metrics()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Breaker metrics summed across all hosts.
    pub fn breaker_totals(&self) -> BreakerMetrics {
        let mut total = BreakerMetrics::default();
        for (_, m) in self.breaker_metrics() {
            total.absorb(&m);
        }
        total
    }

    /// Fetch `url` (string form), with retries per the client config.
    pub fn get(&self, url: &str) -> NetResult<Response> {
        self.get_url(&Url::parse(url)?)
    }

    /// Fetch a parsed [`Url`], following redirects (up to the
    /// configured hop limit) and retrying per the client config.
    /// Successful responses are cached; cache hits cost no virtual time.
    pub fn get_url(&self, url: &Url) -> NetResult<Response> {
        let mut current = url.clone();
        for _ in 0..=self.config.max_redirects {
            let resp = self.fetch_one(&current)?;
            match resp.redirect_location() {
                Some(location) => {
                    current = Url::parse(location)?;
                }
                None => return Ok(resp),
            }
        }
        Err(NetError::HttpStatus {
            host: current.host().to_string(),
            code: 310,
        })
    }

    /// One fetch without redirect handling.
    fn fetch_one(&self, url: &Url) -> NetResult<Response> {
        let key = url.to_string();
        if let Some(cached) = self.cache.lock().get(&key, self.net.clock().now()) {
            self.obs.emit(|| {
                TraceEvent::point(
                    self.obs.session(),
                    self.net.clock().now().as_micros(),
                    stage::NET,
                    "cache_hit",
                    key.as_str(),
                )
            });
            return Ok(cached);
        }
        self.obs.emit(|| {
            TraceEvent::point(
                self.obs.session(),
                self.net.clock().now().as_micros(),
                stage::NET,
                "cache_miss",
                key.as_str(),
            )
        });
        let req = Request {
            url: url.clone(),
            client_id: self.id,
        };
        let host = url.host().to_string();
        let fetch_start = self.net.clock().now();
        // The whole request — retries, breaker transitions, backoff
        // waits — is one causal scope; the events emitted inside the
        // loop below become its children. Closed as `ok` or `err` at
        // every exit.
        let fetch_scope = self
            .obs
            .scope(fetch_start.as_micros(), stage::FETCH, "request");
        let mut attempt: u32 = 0;
        loop {
            if let Some(breaker_cfg) = self.config.breaker {
                let now = self.net.clock().now();
                let mut breakers = self.breakers.lock();
                let breaker = breakers
                    .entry(host.clone())
                    .or_insert_with(|| CircuitBreaker::new(breaker_cfg));
                let before = breaker.state();
                if !breaker.allow(now) {
                    let retry_in = breaker.retry_in(now);
                    drop(breakers);
                    self.emit_breaker(&host, "fast_fail", now.as_micros());
                    fetch_scope
                        .finish_as(self.net.clock().now().as_micros(), "err", || key.clone());
                    return Err(NetError::CircuitOpen { host, retry_in });
                }
                let after = breaker.state();
                drop(breakers);
                if before == BreakerState::Open && after == BreakerState::HalfOpen {
                    self.emit_breaker(&host, "half_open", now.as_micros());
                }
            }

            let start = self.net.clock().now();
            let result = self.net.transmit(&req).and_then(|resp| {
                let elapsed = self.net.clock().now().duration_since(start);
                if elapsed > self.config.timeout {
                    Err(NetError::Timeout {
                        host: url.host().to_string(),
                        elapsed,
                    })
                } else {
                    Ok(resp)
                }
            });

            let err = match result {
                Ok(resp) => {
                    if self.config.breaker.is_some() {
                        let mut breakers = self.breakers.lock();
                        if let Some(b) = breakers.get_mut(&host) {
                            let before = b.state();
                            b.record_success();
                            let reclosed = before == BreakerState::HalfOpen
                                && b.state() == BreakerState::Closed;
                            drop(breakers);
                            if reclosed {
                                self.emit_breaker(
                                    &host,
                                    "reclosed",
                                    self.net.clock().now().as_micros(),
                                );
                            }
                        }
                    }
                    self.cache
                        .lock()
                        .put(&key, resp.clone(), self.net.clock().now());
                    fetch_scope.finish_as(self.net.clock().now().as_micros(), "ok", || key.clone());
                    return Ok(resp);
                }
                Err(err) => err,
            };

            if self.config.breaker.is_some() {
                let now = self.net.clock().now();
                let mut breakers = self.breakers.lock();
                if let Some(b) = breakers.get_mut(&host) {
                    let before = b.state();
                    b.record_failure(FailureClass::of(&err), now);
                    let opened = before != BreakerState::Open && b.state() == BreakerState::Open;
                    drop(breakers);
                    if opened {
                        self.emit_breaker(&host, "open", now.as_micros());
                    }
                }
            }

            match self.next_delay(attempt, &err) {
                Some(delay) => {
                    let wait_start = self.net.clock().now();
                    self.net.clock().advance(delay);
                    self.obs.emit(|| {
                        TraceEvent::span(
                            self.obs.session(),
                            wait_start.as_micros(),
                            stage::NET,
                            "retry_wait",
                            host.as_str(),
                            delay.as_micros(),
                        )
                    });
                    attempt += 1;
                }
                None => {
                    fetch_scope
                        .finish_as(self.net.clock().now().as_micros(), "err", || key.clone());
                    return Err(if attempt > 0 {
                        NetError::RetriesExhausted {
                            attempts: attempt + 1,
                            last: Box::new(err),
                        }
                    } else {
                        err
                    });
                }
            }
        }
    }

    /// Emit a breaker state-transition point event.
    fn emit_breaker(&self, host: &str, what: &'static str, at_us: u64) {
        self.obs
            .emit(|| TraceEvent::point(self.obs.session(), at_us, stage::BREAKER, what, host));
    }

    /// Decide the wait before the next retry, applying seeded jitter
    /// when the backoff enables it (zero rng draws otherwise).
    fn next_delay(&self, attempt: u32, err: &NetError) -> Option<Duration> {
        if self.config.retry.backoff.jitter {
            self.config
                .retry
                .next_delay_with(attempt, err, &mut self.retry_rng.lock())
        } else {
            self.config.retry.next_delay(attempt, err)
        }
    }

    /// Fetch and return the body as text, treating non-text bodies as an
    /// error. Most agent code wants this form.
    pub fn get_text(&self, url: &str) -> NetResult<String> {
        let parsed = Url::parse(url)?;
        let resp = self.get_url(&parsed)?;
        resp.text()
            .map(str::to_owned)
            .ok_or_else(|| NetError::BodyNotText {
                host: parsed.host().to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::ratelimit::TokenBucket;
    use crate::retry::{Backoff, RetryPolicy};
    use crate::server::{HostConfig, NetworkConfig, Status};
    use parking_lot::Mutex;

    fn ok_host() -> Arc<dyn crate::server::Host> {
        Arc::new(|_req: &Request| Response::ok("body"))
    }

    fn cfg(loss: f64) -> HostConfig {
        HostConfig {
            latency: LatencyModel {
                loss,
                ..LatencyModel::fast()
            },
            rate_limit: TokenBucket::unlimited(),
        }
    }

    #[test]
    fn get_returns_body() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        net.register_with("a.test", ok_host(), cfg(0.0));
        let client = Client::new(Arc::new(net));
        assert_eq!(client.get_text("sim://a.test/page").unwrap(), "body");
    }

    #[test]
    fn retries_recover_from_transient_loss() {
        // loss=0.5: with 5 retries the request should essentially always
        // succeed under a fixed seed.
        let mut net = Network::new(NetworkConfig::default(), 17);
        net.register_with("flaky.test", ok_host(), cfg(0.5));
        let client = Client::with_config(
            Arc::new(net),
            ClientConfig {
                timeout: Duration::from_secs(30),
                retry: RetryPolicy {
                    max_retries: 5,
                    backoff: Backoff::default(),
                },
                ..ClientConfig::default()
            },
        );
        for _ in 0..20 {
            assert!(client.get("sim://flaky.test/").is_ok());
        }
    }

    #[test]
    fn exhausted_retries_surface_final_error() {
        let mut net = Network::new(NetworkConfig::default(), 17);
        net.register_with("dead.test", ok_host(), cfg(1.0));
        let client = Client::with_config(
            Arc::new(net),
            ClientConfig {
                timeout: Duration::from_secs(30),
                retry: RetryPolicy {
                    max_retries: 2,
                    backoff: Backoff::default(),
                },
                ..ClientConfig::default()
            },
        );
        match client.get("sim://dead.test/").unwrap_err() {
            NetError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, NetError::ConnectionReset { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn timeout_fires_on_slow_host() {
        let mut net = Network::new(NetworkConfig::default(), 9);
        net.register_with(
            "slow.test",
            ok_host(),
            HostConfig {
                latency: LatencyModel {
                    base: Duration::from_secs(5),
                    jitter_mean: Duration::from_millis(1),
                    tail: 0.0,
                    loss: 0.0,
                },
                rate_limit: TokenBucket::unlimited(),
            },
        );
        let client = Client::with_config(
            Arc::new(net),
            ClientConfig {
                timeout: Duration::from_secs(1),
                retry: RetryPolicy::none(),
                ..ClientConfig::default()
            },
        );
        assert!(matches!(
            client.get("sim://slow.test/").unwrap_err(),
            NetError::Timeout { .. }
        ));
    }

    #[test]
    fn rate_limit_is_ridden_out_by_retry() {
        // Bucket of 1 token refilling at 10/sec: second request is
        // denied but the retry honours retry_after and succeeds.
        let mut net = Network::new(NetworkConfig::default(), 4);
        net.register_with(
            "lim.test",
            ok_host(),
            HostConfig {
                latency: LatencyModel {
                    loss: 0.0,
                    ..LatencyModel::fast()
                },
                rate_limit: TokenBucket::new(1, 10.0),
            },
        );
        let client = Client::new(Arc::new(net));
        assert!(client.get("sim://lim.test/").is_ok());
        assert!(
            client.get("sim://lim.test/").is_ok(),
            "retry should absorb the 429"
        );
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let counter = Arc::new(Mutex::new(0u32));
        let c2 = Arc::clone(&counter);
        let handler = move |_req: &Request| {
            *c2.lock() += 1;
            Response {
                status: Status::NotFound,
                body: bytes::Bytes::from_static(b"nope"),
                content_type: "text/plain",
            }
        };
        let mut net = Network::new(NetworkConfig::default(), 4);
        net.register_with("nf.test", Arc::new(handler), cfg(0.0));
        let client = Client::new(Arc::new(net));
        assert!(client.get("sim://nf.test/").is_err());
        assert_eq!(*counter.lock(), 1, "404 must not be retried");
    }

    #[test]
    fn cache_hits_cost_no_virtual_time() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        net.register_with("c.test", ok_host(), cfg(0.0));
        let client = Client::new(Arc::new(net));
        client.get("sim://c.test/page").unwrap();
        let after_first = client.network().clock().now();
        client.get("sim://c.test/page").unwrap();
        assert_eq!(
            client.network().clock().now(),
            after_first,
            "second fetch must be served from cache"
        );
        assert_eq!(client.cache.lock().stats().0, 1);
    }

    #[test]
    fn distinct_urls_do_not_share_cache_entries() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        net.register_with("c.test", ok_host(), cfg(0.0));
        let client = Client::new(Arc::new(net));
        client.get("sim://c.test/a").unwrap();
        let before = client.network().clock().now();
        client.get("sim://c.test/b").unwrap();
        assert!(
            client.network().clock().now() > before,
            "different URL must hit the network"
        );
    }

    #[test]
    fn redirects_are_followed_to_the_target() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        net.register_with(
            "old.test",
            Arc::new(|_req: &Request| Response::redirect("sim://new.test/page")),
            cfg(0.0),
        );
        net.register_with(
            "new.test",
            Arc::new(|_req: &Request| Response::ok("final content")),
            cfg(0.0),
        );
        let client = Client::new(Arc::new(net));
        assert_eq!(
            client.get_text("sim://old.test/moved").unwrap(),
            "final content"
        );
    }

    #[test]
    fn redirect_loops_are_bounded() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        net.register_with(
            "loop.test",
            Arc::new(|_req: &Request| Response::redirect("sim://loop.test/again")),
            cfg(0.0),
        );
        let client = Client::new(Arc::new(net));
        match client.get("sim://loop.test/start").unwrap_err() {
            NetError::HttpStatus { code, .. } => assert_eq!(code, 310),
            other => panic!("expected redirect-loop error, got {other:?}"),
        }
    }

    #[test]
    fn clients_get_distinct_ids() {
        let net = Arc::new(Network::new(NetworkConfig::default(), 1));
        let a = Client::new(Arc::clone(&net));
        let b = Client::new(net);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn retries_exhausted_attempts_is_always_total_attempts() {
        // Regression guard: `attempts` counts every attempt made, i.e.
        // retries + the initial try, for any retry budget.
        for max_retries in [1u32, 2, 4] {
            let mut net = Network::new(NetworkConfig::default(), 17);
            net.register_with("dead.test", ok_host(), cfg(1.0));
            let client = Client::with_config(
                Arc::new(net),
                ClientConfig {
                    timeout: Duration::from_secs(60),
                    retry: RetryPolicy {
                        max_retries,
                        backoff: Backoff::default(),
                    },
                    ..ClientConfig::default()
                },
            );
            match client.get("sim://dead.test/").unwrap_err() {
                NetError::RetriesExhausted { attempts, .. } => {
                    assert_eq!(attempts, max_retries + 1);
                }
                other => panic!("expected RetriesExhausted, got {other:?}"),
            }
        }
    }

    fn breaker_client(net: Network, threshold: u32, cooldown: Duration) -> Client {
        Client::with_config(
            Arc::new(net),
            ClientConfig {
                retry: RetryPolicy::none(),
                breaker: Some(crate::breaker::BreakerConfig {
                    failure_threshold: threshold,
                    cooldown,
                }),
                ..ClientConfig::default()
            },
        )
    }

    #[test]
    fn breaker_trips_and_fails_fast_without_network_traffic() {
        let mut net = Network::new(NetworkConfig::default(), 17);
        net.register_with("dead.test", ok_host(), cfg(1.0));
        let client = breaker_client(net, 2, Duration::from_secs(60));

        for _ in 0..2 {
            assert!(matches!(
                client.get("sim://dead.test/").unwrap_err(),
                NetError::ConnectionReset { .. }
            ));
        }
        let sent_before = client.network().stats().requests;
        assert!(client.breaker_would_fail_fast("dead.test"));
        match client.get("sim://dead.test/").unwrap_err() {
            NetError::CircuitOpen { host, retry_in } => {
                assert_eq!(host, "dead.test");
                assert!(retry_in > Duration::ZERO);
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(
            client.network().stats().requests,
            sent_before,
            "fast failure must not touch the network"
        );
        let totals = client.breaker_totals();
        assert_eq!(totals.opened, 1);
        assert_eq!(totals.fast_failures, 1);
        assert_eq!(totals.resets, 2);
    }

    #[test]
    fn breaker_recovers_through_half_open_once_the_fault_clears() {
        use crate::clock::Instant;
        use crate::faults::{FaultKind, FaultPlan};

        let mut net = Network::new(NetworkConfig::default(), 17);
        net.register_with("site.test", ok_host(), cfg(0.0));
        let client = breaker_client(net, 1, Duration::from_secs(5));
        let outage_end = Instant::EPOCH + Duration::from_secs(10);
        client
            .network()
            .set_fault_plan(FaultPlan::new().with_window(
                "site.test",
                Instant::EPOCH,
                outage_end,
                FaultKind::Blackout,
            ));

        // Blackout: first request fails and trips the one-strike breaker.
        assert!(client.get("sim://site.test/a").is_err());
        // Still cooling down: fail fast.
        assert!(matches!(
            client.get("sim://site.test/a").unwrap_err(),
            NetError::CircuitOpen { .. }
        ));
        // Past both the outage window and the cooldown, the half-open
        // probe goes through and recloses the breaker.
        let clock = client.network().clock();
        clock.advance((outage_end + Duration::from_secs(1)).duration_since(clock.now()));
        assert!(!client.breaker_would_fail_fast("site.test"));
        assert!(client.get("sim://site.test/a").is_ok());
        let metrics = client.breaker_metrics();
        assert_eq!(metrics.len(), 1);
        let m = metrics[0].1;
        assert_eq!((m.opened, m.half_opened, m.reclosed), (1, 1, 1));
        assert!(m.fast_failures >= 1);
    }

    #[test]
    fn observer_traces_cache_fetch_and_breaker_events() {
        use ira_obs::{EventClass, JsonlCollector};

        let mut net = Network::new(NetworkConfig::default(), 17);
        net.register_with("dead.test", ok_host(), cfg(1.0));
        net.register_with("ok.test", ok_host(), cfg(0.0));
        let mut client = breaker_client(net, 2, Duration::from_secs(60));
        let sink = Arc::new(JsonlCollector::new());
        client.set_observer_handle(ObsHandle::new(sink.clone(), 7));

        client.get("sim://ok.test/page").unwrap();
        client.get("sim://ok.test/page").unwrap(); // cache hit
        for _ in 0..2 {
            let _ = client.get("sim://dead.test/"); // trips the breaker
        }
        let _ = client.get("sim://dead.test/"); // fast failure

        let events = sink.events();
        assert!(events.iter().all(|e| e.session == 7));
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"cache_hit"));
        assert!(names.contains(&"cache_miss"));
        assert!(names.contains(&"open"));
        assert!(names.contains(&"fast_fail"));
        let ok_span = events
            .iter()
            .find(|e| e.stage == stage::FETCH && e.name == "ok")
            .expect("fetch ok span");
        assert_eq!(ok_span.class, EventClass::Span);
        assert!(ok_span.value > 0, "fetch span must charge virtual time");
        // Disabled by default: a fresh client with the null collector
        // reports disabled and drops everything.
        let plain = Client::new(Arc::clone(client.network()));
        assert!(!plain.obs.sink().enabled());
    }

    #[test]
    fn retry_and_breaker_events_nest_under_the_fetch_span() {
        use ira_obs::JsonlCollector;

        let mut net = Network::new(NetworkConfig::default(), 17);
        net.register_with("dead.test", ok_host(), cfg(1.0));
        let mut client = Client::with_config(
            Arc::new(net),
            ClientConfig {
                timeout: Duration::from_secs(60),
                retry: RetryPolicy {
                    max_retries: 3,
                    backoff: Backoff::default(),
                },
                breaker: Some(crate::breaker::BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_secs(60),
                }),
                ..ClientConfig::default()
            },
        );
        let sink = Arc::new(JsonlCollector::new());
        client.set_observer_handle(ObsHandle::new(sink.clone(), 0));

        let _ = client.get("sim://dead.test/"); // fails with retries

        let events = sink.events();
        let fetch = events
            .iter()
            .find(|e| e.stage == stage::FETCH && e.name == "err")
            .expect("fetch err span");
        assert_ne!(fetch.span_id, 0, "spans carry identity");
        let retry = events
            .iter()
            .find(|e| e.name == "retry_wait")
            .expect("retry wait span");
        assert_eq!(
            retry.parent_id, fetch.span_id,
            "backoff waits are children of the request scope"
        );
        let open = events.iter().find(|e| e.name == "open").expect("breaker");
        assert_eq!(open.parent_id, fetch.span_id);
        // The cache miss fired before the request scope opened.
        let miss = events.iter().find(|e| e.name == "cache_miss").unwrap();
        assert_eq!(miss.parent_id, 0);
    }

    #[test]
    fn jittered_retries_are_deterministic_per_seed() {
        let run = || {
            let mut net = Network::new(NetworkConfig::default(), 17);
            net.register_with("dead.test", ok_host(), cfg(1.0));
            let client = Client::with_config(
                Arc::new(net),
                ClientConfig {
                    timeout: Duration::from_secs(60),
                    retry: RetryPolicy {
                        max_retries: 3,
                        backoff: Backoff {
                            jitter: true,
                            jitter_seed: 5,
                            ..Backoff::default()
                        },
                    },
                    ..ClientConfig::default()
                },
            );
            let err = client.get("sim://dead.test/").unwrap_err();
            (client.network().clock().now(), err)
        };
        let (clock1, err1) = run();
        let (clock2, err2) = run();
        assert_eq!(
            clock1, clock2,
            "same seeds must spend identical virtual time"
        );
        assert_eq!(err1, err2);
        assert!(matches!(
            err1,
            NetError::RetriesExhausted { attempts: 4, .. }
        ));
    }
}
