//! The virtual network: host registry, request/response types, and the
//! server-side transmission pipeline (rate limit → latency/loss → handler).
//!
//! A [`Network`] owns every registered virtual host. Requests are
//! submitted through [`Network::transmit`], which charges virtual time
//! for the round trip, applies the host's token bucket, and may drop the
//! request according to the host's loss model. The [`crate::client::Client`]
//! wraps this with timeouts and retries.

use crate::clock::{Duration, VirtualClock};
use crate::error::{NetError, NetResult};
use crate::faults::{FaultKind, FaultPlan, FaultStats};
use crate::latency::{LatencyModel, LatencySample};
use crate::ratelimit::{Acquire, TokenBucket};
use crate::url::Url;
use bytes::Bytes;
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Response status codes, a compact subset of HTTP semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Status {
    Ok,
    /// Moved: the body carries the target URL.
    Redirect,
    NotFound,
    TooManyRequests,
    ServerError,
}

impl Status {
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Redirect => 301,
            Status::NotFound => 404,
            Status::TooManyRequests => 429,
            Status::ServerError => 500,
        }
    }
}

/// A request addressed to a virtual host.
#[derive(Debug, Clone)]
pub struct Request {
    pub url: Url,
    /// Client identifier, used by hosts for per-client accounting.
    pub client_id: u64,
}

impl Request {
    pub fn get(url: Url) -> Self {
        Request { url, client_id: 0 }
    }
}

/// A response from a virtual host.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: Status,
    pub body: Bytes,
    /// Media type hint ("text/html", "application/json", ...).
    pub content_type: &'static str,
}

impl Response {
    pub fn ok(body: impl Into<String>) -> Self {
        Response {
            status: Status::Ok,
            body: Bytes::from(body.into()),
            content_type: "text/html",
        }
    }

    pub fn json(body: impl Into<String>) -> Self {
        Response {
            status: Status::Ok,
            body: Bytes::from(body.into()),
            content_type: "application/json",
        }
    }

    /// A permanent redirect to `location`.
    pub fn redirect(location: impl Into<String>) -> Self {
        Response {
            status: Status::Redirect,
            body: Bytes::from(location.into()),
            content_type: "text/plain",
        }
    }

    /// The redirect target, if this is a redirect response.
    pub fn redirect_location(&self) -> Option<&str> {
        (self.status == Status::Redirect)
            .then(|| std::str::from_utf8(&self.body).ok())
            .flatten()
    }

    pub fn not_found() -> Self {
        Response {
            status: Status::NotFound,
            body: Bytes::from_static(b"not found"),
            content_type: "text/plain",
        }
    }

    /// Body as UTF-8 text.
    pub fn text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Per-request context handed to host handlers.
pub struct HostCtx<'a> {
    /// Virtual time at which the request arrives at the host.
    pub now: crate::clock::Instant,
    /// Extra processing time the handler wants to charge (e.g. a search
    /// host charges per-document scoring time).
    pub processing: &'a mut Duration,
}

impl HostCtx<'_> {
    /// Charge additional server-side processing time to this request.
    pub fn charge(&mut self, d: Duration) {
        *self.processing += d;
    }
}

/// A virtual host: anything that can answer requests.
pub trait Host: Send + Sync {
    fn handle(&self, req: &Request, ctx: &mut HostCtx<'_>) -> Response;
}

/// Blanket impl so closures can serve as simple hosts in tests.
impl<F> Host for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request, _ctx: &mut HostCtx<'_>) -> Response {
        self(req)
    }
}

/// Per-host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    pub latency: LatencyModel,
    pub rate_limit: TokenBucket,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            latency: LatencyModel::typical(),
            rate_limit: TokenBucket::unlimited(),
        }
    }
}

/// Network-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct NetworkConfig {
    /// Default latency/limit settings for hosts registered without
    /// explicit configuration.
    pub default_host: HostConfig,
}

/// Aggregate transmission statistics, used by experiment E6/F1.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NetStats {
    pub requests: u64,
    pub delivered: u64,
    pub lost: u64,
    pub rate_limited: u64,
    /// Total virtual time spent on the wire and in server processing.
    pub busy: Duration,
}

struct HostSlot {
    host: Arc<dyn Host>,
    latency: LatencyModel,
    bucket: Mutex<TokenBucket>,
}

/// The registry of virtual hosts plus shared clock and RNG.
pub struct Network {
    hosts: HashMap<String, HostSlot>,
    clock: VirtualClock,
    rng: Mutex<ChaCha8Rng>,
    stats: Mutex<NetStats>,
    config: NetworkConfig,
    /// Installed chaos schedule; `None` leaves behaviour unchanged.
    faults: Mutex<Option<FaultPlan>>,
    fault_stats: Mutex<FaultStats>,
}

impl Network {
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Network {
            hosts: HashMap::new(),
            clock: VirtualClock::new(),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
            stats: Mutex::new(NetStats::default()),
            config,
            faults: Mutex::new(None),
            fault_stats: Mutex::new(FaultStats::default()),
        }
    }

    /// Register `host` under `name` with default latency/limits.
    pub fn register(&mut self, name: &str, host: Arc<dyn Host>) {
        let cfg = self.config.default_host.clone();
        self.register_with(name, host, cfg);
    }

    /// Register `host` with explicit per-host configuration.
    pub fn register_with(&mut self, name: &str, host: Arc<dyn Host>, cfg: HostConfig) {
        self.hosts.insert(
            name.to_string(),
            HostSlot {
                host,
                latency: cfg.latency,
                bucket: Mutex::new(cfg.rate_limit),
            },
        );
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Registered host names, sorted (for deterministic iteration).
    pub fn host_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.hosts.keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot of transmission statistics.
    pub fn stats(&self) -> NetStats {
        *self.stats.lock()
    }

    /// Install (or replace) a fault plan. Callable through a shared
    /// reference so chaos can be scheduled after the network is
    /// wrapped in an `Arc`.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.faults.lock() = if plan.is_empty() { None } else { Some(plan) };
    }

    /// Snapshot of injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        *self.fault_stats.lock()
    }

    /// Fault windows in the installed plan (0 when none is installed).
    pub fn fault_plan_window_count(&self) -> usize {
        self.faults.lock().as_ref().map_or(0, |p| p.window_count())
    }

    /// The fault window active for `host` right now, if any.
    fn active_fault(&self, host: &str) -> Option<FaultKind> {
        self.faults
            .lock()
            .as_ref()
            .and_then(|plan| plan.active(host, self.clock.now()))
            .map(|w| w.kind)
    }

    /// Damage an OK body per the active corruption fault. Truncation
    /// keeps a prefix (cutting JSON and UTF-8 mid-structure); garbling
    /// XORs every third byte, which almost always breaks UTF-8.
    fn corrupt_body(&self, resp: &mut Response, truncate: bool) {
        if resp.status != Status::Ok || resp.body.is_empty() {
            return;
        }
        let bytes = resp.body.to_vec();
        let damaged = if truncate {
            bytes[..bytes.len() / 2].to_vec()
        } else {
            bytes
                .iter()
                .enumerate()
                .map(|(i, b)| if i % 3 == 0 { b ^ 0xA5 } else { *b })
                .collect()
        };
        resp.body = Bytes::from(damaged);
        self.fault_stats.lock().corrupted_bodies += 1;
    }

    /// Transmit one request: advance virtual time for the round trip and
    /// return the host's response or a transport error.
    ///
    /// This is the raw, no-retry path; use [`crate::client::Client`] for
    /// the full client behaviour.
    pub fn transmit(&self, req: &Request) -> NetResult<Response> {
        let slot = self
            .hosts
            .get(req.url.host())
            .ok_or_else(|| NetError::HostNotFound(req.url.host().to_string()))?;

        {
            let mut stats = self.stats.lock();
            stats.requests += 1;
        }

        // Evaluate the chaos schedule first: an injected fault models
        // the host (or its path) misbehaving before normal service.
        let fault = self.active_fault(req.url.host());
        match fault {
            Some(FaultKind::Blackout) => {
                // Unreachable host: detected after roughly one base RTT.
                let wasted = slot.latency.base;
                self.clock.advance(wasted);
                let mut stats = self.stats.lock();
                stats.lost += 1;
                stats.busy += wasted;
                self.fault_stats.lock().blackout_drops += 1;
                return Err(NetError::ConnectionReset {
                    host: req.url.host().to_string(),
                });
            }
            Some(FaultKind::RateLimitStorm { retry_after }) => {
                self.stats.lock().rate_limited += 1;
                self.fault_stats.lock().storm_rejections += 1;
                return Err(NetError::RateLimited {
                    host: req.url.host().to_string(),
                    retry_after,
                });
            }
            Some(FaultKind::Flaky { extra_loss, .. }) => {
                // The extra loss draw composes with (precedes) the
                // baseline loss model below.
                if self.rng.lock().gen_bool(extra_loss) {
                    let wasted = slot.latency.base;
                    self.clock.advance(wasted);
                    let mut stats = self.stats.lock();
                    stats.lost += 1;
                    stats.busy += wasted;
                    self.fault_stats.lock().flaky_drops += 1;
                    return Err(NetError::ConnectionReset {
                        host: req.url.host().to_string(),
                    });
                }
            }
            Some(FaultKind::CorruptBody { .. }) | None => {}
        }

        // Rate limiting happens before any time is charged: the reject
        // is cheap for the server.
        let now = self.clock.now();
        if let Acquire::Denied { retry_after } = slot.bucket.lock().try_acquire(now) {
            self.stats.lock().rate_limited += 1;
            return Err(NetError::RateLimited {
                host: req.url.host().to_string(),
                retry_after,
            });
        }

        let sample = slot.latency.sample(&mut self.rng.lock());
        match sample {
            LatencySample::Lost => {
                // A reset is detected after roughly one base RTT.
                let wasted = slot.latency.base;
                self.clock.advance(wasted);
                let mut stats = self.stats.lock();
                stats.lost += 1;
                stats.busy += wasted;
                Err(NetError::ConnectionReset {
                    host: req.url.host().to_string(),
                })
            }
            LatencySample::Delivered(mut rtt) => {
                if let Some(FaultKind::Flaky { slowdown, .. }) = fault {
                    // Degraded path: responses crawl, driving client
                    // timeouts without dropping the connection.
                    rtt = rtt.mul_f64(slowdown.max(1.0));
                    self.fault_stats.lock().flaky_slowdowns += 1;
                }
                let mut processing = Duration::ZERO;
                let mut ctx = HostCtx {
                    now: self.clock.now(),
                    processing: &mut processing,
                };
                let mut resp = slot.host.handle(req, &mut ctx);
                if let Some(FaultKind::CorruptBody { truncate }) = fault {
                    self.corrupt_body(&mut resp, truncate);
                }
                let total = rtt + processing;
                self.clock.advance(total);
                let mut stats = self.stats.lock();
                stats.delivered += 1;
                stats.busy += total;
                match resp.status {
                    Status::Ok | Status::Redirect => Ok(resp),
                    Status::TooManyRequests => Err(NetError::RateLimited {
                        host: req.url.host().to_string(),
                        retry_after: Duration::from_secs(1),
                    }),
                    status => Err(NetError::HttpStatus {
                        host: req.url.host().to_string(),
                        code: status.code(),
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratelimit::TokenBucket;

    fn echo_host() -> Arc<dyn Host> {
        Arc::new(|req: &Request| Response::ok(format!("echo:{}", req.url.path())))
    }

    fn reliable_cfg() -> HostConfig {
        HostConfig {
            latency: LatencyModel {
                loss: 0.0,
                ..LatencyModel::fast()
            },
            rate_limit: TokenBucket::unlimited(),
        }
    }

    fn net_with_echo() -> Network {
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.register_with("echo.test", echo_host(), reliable_cfg());
        net
    }

    #[test]
    fn transmit_reaches_handler_and_advances_clock() {
        let net = net_with_echo();
        let before = net.clock().now();
        let resp = net
            .transmit(&Request::get(Url::parse("sim://echo.test/a/b").unwrap()))
            .unwrap();
        assert_eq!(resp.text(), Some("echo:/a/b"));
        assert!(
            net.clock().now() > before,
            "round trip must cost virtual time"
        );
    }

    #[test]
    fn unknown_host_is_an_error() {
        let net = net_with_echo();
        let err = net
            .transmit(&Request::get(Url::parse("sim://nowhere.test/").unwrap()))
            .unwrap_err();
        assert_eq!(err, NetError::HostNotFound("nowhere.test".into()));
    }

    #[test]
    fn rate_limited_host_rejects_burst() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.register_with(
            "limited.test",
            echo_host(),
            HostConfig {
                latency: LatencyModel {
                    loss: 0.0,
                    ..LatencyModel::fast()
                },
                rate_limit: TokenBucket::new(2, 0.0001),
            },
        );
        let url = Url::parse("sim://limited.test/").unwrap();
        assert!(net.transmit(&Request::get(url.clone())).is_ok());
        assert!(net.transmit(&Request::get(url.clone())).is_ok());
        let err = net.transmit(&Request::get(url)).unwrap_err();
        assert!(matches!(err, NetError::RateLimited { .. }), "got {err:?}");
        assert_eq!(net.stats().rate_limited, 1);
    }

    #[test]
    fn lossy_host_produces_resets() {
        let mut net = Network::new(NetworkConfig::default(), 5);
        net.register_with(
            "flaky.test",
            echo_host(),
            HostConfig {
                latency: LatencyModel {
                    loss: 1.0,
                    ..LatencyModel::fast()
                },
                rate_limit: TokenBucket::unlimited(),
            },
        );
        let err = net
            .transmit(&Request::get(Url::parse("sim://flaky.test/").unwrap()))
            .unwrap_err();
        assert_eq!(
            err,
            NetError::ConnectionReset {
                host: "flaky.test".into()
            }
        );
        assert_eq!(net.stats().lost, 1);
    }

    #[test]
    fn handler_processing_time_is_charged() {
        struct Slow;
        impl Host for Slow {
            fn handle(&self, _req: &Request, ctx: &mut HostCtx<'_>) -> Response {
                ctx.charge(Duration::from_secs(2));
                Response::ok("done")
            }
        }
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.register_with("slow.test", Arc::new(Slow), reliable_cfg());
        net.transmit(&Request::get(Url::parse("sim://slow.test/").unwrap()))
            .unwrap();
        assert!(net.clock().now().as_micros() >= 2_000_000);
    }

    #[test]
    fn non_ok_status_maps_to_error() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.register_with(
            "err.test",
            Arc::new(|_req: &Request| Response::not_found()),
            reliable_cfg(),
        );
        let err = net
            .transmit(&Request::get(Url::parse("sim://err.test/x").unwrap()))
            .unwrap_err();
        assert_eq!(
            err,
            NetError::HttpStatus {
                host: "err.test".into(),
                code: 404
            }
        );
    }

    #[test]
    fn stats_accumulate() {
        let net = net_with_echo();
        let url = Url::parse("sim://echo.test/").unwrap();
        for _ in 0..5 {
            net.transmit(&Request::get(url.clone())).unwrap();
        }
        let s = net.stats();
        assert_eq!(s.requests, 5);
        assert_eq!(s.delivered, 5);
        assert!(s.busy > Duration::ZERO);
    }

    mod faults {
        use super::*;
        use crate::clock::Instant;
        use crate::faults::{FaultKind, FaultPlan};

        fn far() -> Instant {
            Instant::from_micros(u64::MAX)
        }

        #[test]
        fn blackout_window_drops_every_request() {
            let net = net_with_echo();
            net.set_fault_plan(FaultPlan::new().with_window(
                "echo.test",
                Instant::EPOCH,
                far(),
                FaultKind::Blackout,
            ));
            let url = Url::parse("sim://echo.test/").unwrap();
            for _ in 0..3 {
                let err = net.transmit(&Request::get(url.clone())).unwrap_err();
                assert_eq!(
                    err,
                    NetError::ConnectionReset {
                        host: "echo.test".into()
                    }
                );
            }
            assert_eq!(net.fault_stats().blackout_drops, 3);
            assert!(
                net.clock().now() > Instant::EPOCH,
                "drops still cost virtual time"
            );
        }

        #[test]
        fn blackout_ends_when_the_window_closes() {
            let net = net_with_echo();
            let until = Instant::from_micros(1_000_000);
            net.set_fault_plan(FaultPlan::new().with_window(
                "echo.test",
                Instant::EPOCH,
                until,
                FaultKind::Blackout,
            ));
            let url = Url::parse("sim://echo.test/").unwrap();
            assert!(net.transmit(&Request::get(url.clone())).is_err());
            net.clock().advance(until.duration_since(net.clock().now()));
            assert!(
                net.transmit(&Request::get(url)).is_ok(),
                "host recovers after the window"
            );
        }

        #[test]
        fn storm_rejects_with_the_planned_retry_after() {
            let net = net_with_echo();
            net.set_fault_plan(FaultPlan::new().with_window(
                "echo.test",
                Instant::EPOCH,
                far(),
                FaultKind::RateLimitStorm {
                    retry_after: Duration::from_secs(2),
                },
            ));
            let err = net
                .transmit(&Request::get(Url::parse("sim://echo.test/").unwrap()))
                .unwrap_err();
            assert_eq!(
                err,
                NetError::RateLimited {
                    host: "echo.test".into(),
                    retry_after: Duration::from_secs(2)
                }
            );
            assert_eq!(net.fault_stats().storm_rejections, 1);
        }

        #[test]
        fn flaky_window_raises_loss_above_baseline() {
            let net = net_with_echo(); // baseline loss 0.0
            net.set_fault_plan(FaultPlan::new().with_window(
                "echo.test",
                Instant::EPOCH,
                far(),
                FaultKind::Flaky {
                    extra_loss: 0.5,
                    slowdown: 1.0,
                },
            ));
            let url = Url::parse("sim://echo.test/").unwrap();
            let mut drops = 0;
            for _ in 0..200 {
                if net.transmit(&Request::get(url.clone())).is_err() {
                    drops += 1;
                }
            }
            assert!(
                (60..140).contains(&drops),
                "expected ~100 drops, got {drops}"
            );
            assert_eq!(net.fault_stats().flaky_drops, drops);
        }

        #[test]
        fn corrupt_truncate_halves_the_body() {
            let net = net_with_echo();
            net.set_fault_plan(FaultPlan::new().with_window(
                "echo.test",
                Instant::EPOCH,
                far(),
                FaultKind::CorruptBody { truncate: true },
            ));
            let resp = net
                .transmit(&Request::get(Url::parse("sim://echo.test/abcdef").unwrap()))
                .unwrap();
            // Full body is "echo:/abcdef" (12 bytes) → truncated to 6.
            assert_eq!(resp.text(), Some("echo:/"), "body must be cut in half");
            assert_eq!(net.fault_stats().corrupted_bodies, 1);
        }

        #[test]
        fn corrupt_garble_breaks_utf8() {
            let net = net_with_echo();
            net.set_fault_plan(FaultPlan::new().with_window(
                "echo.test",
                Instant::EPOCH,
                far(),
                FaultKind::CorruptBody { truncate: false },
            ));
            let resp = net
                .transmit(&Request::get(Url::parse("sim://echo.test/page").unwrap()))
                .unwrap();
            assert_ne!(resp.text(), Some("echo:/page"), "body must be damaged");
        }

        #[test]
        fn clearing_the_plan_restores_normal_service() {
            let net = net_with_echo();
            net.set_fault_plan(FaultPlan::new().with_window(
                "echo.test",
                Instant::EPOCH,
                far(),
                FaultKind::Blackout,
            ));
            let url = Url::parse("sim://echo.test/").unwrap();
            assert!(net.transmit(&Request::get(url.clone())).is_err());
            net.set_fault_plan(FaultPlan::new());
            assert!(net.transmit(&Request::get(url)).is_ok());
        }

        #[test]
        fn faults_on_one_host_leave_others_untouched() {
            let mut net = Network::new(NetworkConfig::default(), 1);
            net.register_with("sick.test", echo_host(), reliable_cfg());
            net.register_with("well.test", echo_host(), reliable_cfg());
            net.set_fault_plan(FaultPlan::new().with_window(
                "sick.test",
                Instant::EPOCH,
                far(),
                FaultKind::Blackout,
            ));
            assert!(net
                .transmit(&Request::get(Url::parse("sim://sick.test/").unwrap()))
                .is_err());
            assert!(net
                .transmit(&Request::get(Url::parse("sim://well.test/").unwrap()))
                .is_ok());
        }
    }
}
