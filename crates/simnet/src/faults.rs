//! Deterministic fault injection: seeded, schedulable fault plans on
//! the virtual clock.
//!
//! A [`FaultPlan`] assigns each host a set of [`FaultWindow`]s — spans
//! of virtual time during which the host misbehaves in a specific way:
//! total blackout, elevated loss/latency (flaky), rate-limit storms,
//! or truncated/corrupted response bodies. Plans compose with the
//! existing latency/loss models (they act *in addition to* the host's
//! baseline behaviour) and are fully reproducible: the same seed and
//! host list always produce the same schedule.
//!
//! The plan is installed on a [`crate::server::Network`] via
//! [`crate::server::Network::set_fault_plan`]; with no plan installed
//! the network behaves exactly as before.

use crate::clock::{Duration, Instant};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a host does wrong during a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The host is unreachable: every request is dropped after one
    /// base RTT, surfacing as a connection reset.
    Blackout,
    /// The host is degraded: requests are additionally lost with
    /// probability `extra_loss`, and delivered responses take
    /// `slowdown`× their sampled round-trip time (driving timeouts).
    Flaky { extra_loss: f64, slowdown: f64 },
    /// The host sheds load: every request is rejected with a 429 and
    /// this `retry_after` hint.
    RateLimitStorm { retry_after: Duration },
    /// The host answers, but the body arrives damaged. `truncate`
    /// keeps only a prefix of the body; otherwise bytes are garbled
    /// in place (typically producing invalid UTF-8 or unparsable JSON).
    CorruptBody { truncate: bool },
}

/// One span of virtual time during which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    pub from: Instant,
    pub until: Instant,
    pub kind: FaultKind,
}

impl FaultWindow {
    pub fn contains(&self, now: Instant) -> bool {
        now >= self.from && now < self.until
    }
}

/// The per-host fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HostPlan {
    pub windows: Vec<FaultWindow>,
}

impl HostPlan {
    /// The first window active at `now`, if any.
    pub fn active_at(&self, now: Instant) -> Option<&FaultWindow> {
        self.windows.iter().find(|w| w.contains(now))
    }
}

/// A complete fault schedule for a network.
///
/// Hosts are keyed by name in a `BTreeMap` so iteration (and therefore
/// every derived behaviour) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub hosts: BTreeMap<String, HostPlan>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.hosts.values().all(|h| h.windows.is_empty())
    }

    /// Add one fault window for `host` (builder-style).
    pub fn with_window(
        mut self,
        host: &str,
        from: Instant,
        until: Instant,
        kind: FaultKind,
    ) -> Self {
        self.hosts
            .entry(host.to_string())
            .or_default()
            .windows
            .push(FaultWindow { from, until, kind });
        self
    }

    /// The window active for `host` at `now`, if any.
    pub fn active(&self, host: &str, now: Instant) -> Option<&FaultWindow> {
        self.hosts.get(host).and_then(|h| h.active_at(now))
    }

    /// Number of windows across all hosts.
    pub fn window_count(&self) -> usize {
        self.hosts.values().map(|h| h.windows.len()).sum()
    }

    /// Generate a random plan afflicting `intensity` (0.0–1.0) of the
    /// given hosts over `[0, horizon)`, reproducibly for a seed.
    ///
    /// Each afflicted host receives 2–4 windows of mixed kinds, each
    /// covering roughly 5–15% of the horizon, so even at high
    /// intensity hosts recover between windows — the chaos is bursty,
    /// like real incidents, not a permanent partition.
    pub fn random(hosts: &[String], intensity: f64, horizon: Duration, seed: u64) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::new();
        if hosts.is_empty() || intensity == 0.0 || horizon == Duration::ZERO {
            return plan;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Deterministic host order regardless of caller ordering.
        let mut sorted: Vec<&String> = hosts.iter().collect();
        sorted.sort();
        let afflicted = ((sorted.len() as f64 * intensity).round() as usize).clamp(1, sorted.len());
        // Choose afflicted hosts by a seeded shuffle-prefix.
        for i in 0..afflicted {
            let j = rng.gen_range(i..sorted.len());
            sorted.swap(i, j);
        }
        let horizon_us = horizon.as_micros();
        for host in sorted.into_iter().take(afflicted) {
            let windows = rng.gen_range(2usize..=4);
            let mut host_plan = HostPlan::default();
            for _ in 0..windows {
                let len_us = (horizon_us as f64 * rng.gen_range(0.05..0.15)) as u64;
                let start_us = rng.gen_range(0..horizon_us.saturating_sub(len_us).max(1));
                let kind = match rng.gen_range(0u32..4) {
                    0 => FaultKind::Blackout,
                    1 => FaultKind::Flaky {
                        extra_loss: rng.gen_range(0.3..0.7),
                        slowdown: rng.gen_range(2.0..6.0),
                    },
                    2 => FaultKind::RateLimitStorm {
                        retry_after: Duration::from_millis(rng.gen_range(500u64..3_000)),
                    },
                    _ => FaultKind::CorruptBody {
                        truncate: rng.gen_bool(0.5),
                    },
                };
                host_plan.windows.push(FaultWindow {
                    from: Instant::from_micros(start_us),
                    until: Instant::from_micros(start_us + len_us),
                    kind,
                });
            }
            host_plan.windows.sort_by_key(|w| w.from);
            plan.hosts.insert(host.clone(), host_plan);
        }
        plan
    }
}

/// Counters for injected faults, by class.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Requests dropped by a blackout window.
    pub blackout_drops: u64,
    /// Requests dropped by a flaky window's extra loss.
    pub flaky_drops: u64,
    /// Responses slowed down by a flaky window.
    pub flaky_slowdowns: u64,
    /// Requests rejected by a rate-limit storm.
    pub storm_rejections: u64,
    /// Response bodies truncated or garbled.
    pub corrupted_bodies: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.blackout_drops
            + self.flaky_drops
            + self.flaky_slowdowns
            + self.storm_rejections
            + self.corrupted_bodies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("h{i}.test")).collect()
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.active("any.test", Instant::EPOCH).is_none());
    }

    #[test]
    fn windows_are_half_open_intervals() {
        let plan = FaultPlan::new().with_window(
            "a.test",
            Instant::from_micros(100),
            Instant::from_micros(200),
            FaultKind::Blackout,
        );
        assert!(plan.active("a.test", Instant::from_micros(99)).is_none());
        assert!(plan.active("a.test", Instant::from_micros(100)).is_some());
        assert!(plan.active("a.test", Instant::from_micros(199)).is_some());
        assert!(plan.active("a.test", Instant::from_micros(200)).is_none());
        assert!(plan.active("b.test", Instant::from_micros(150)).is_none());
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let hs = hosts(10);
        let a = FaultPlan::random(&hs, 0.5, Duration::from_secs(3600), 42);
        let b = FaultPlan::random(&hs, 0.5, Duration::from_secs(3600), 42);
        assert_eq!(a, b);
        let c = FaultPlan::random(&hs, 0.5, Duration::from_secs(3600), 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_plan_respects_intensity() {
        let hs = hosts(8);
        assert!(FaultPlan::random(&hs, 0.0, Duration::from_secs(10), 1).is_empty());
        let quarter = FaultPlan::random(&hs, 0.25, Duration::from_secs(10), 1);
        assert_eq!(quarter.hosts.len(), 2);
        let all = FaultPlan::random(&hs, 1.0, Duration::from_secs(10), 1);
        assert_eq!(all.hosts.len(), 8);
    }

    #[test]
    fn random_windows_lie_within_the_horizon() {
        let horizon = Duration::from_secs(600);
        let plan = FaultPlan::random(&hosts(12), 1.0, horizon, 7);
        for host_plan in plan.hosts.values() {
            assert!(!host_plan.windows.is_empty());
            for w in &host_plan.windows {
                assert!(w.from < w.until);
                assert!(w.until.as_micros() <= horizon.as_micros() + horizon.as_micros() / 5);
            }
        }
    }

    #[test]
    fn random_plan_ignores_host_ordering() {
        let mut hs = hosts(6);
        let a = FaultPlan::random(&hs, 0.5, Duration::from_secs(60), 9);
        hs.reverse();
        let b = FaultPlan::random(&hs, 0.5, Duration::from_secs(60), 9);
        assert_eq!(a, b, "plan must not depend on caller's host ordering");
    }

    #[test]
    fn stats_total_sums_classes() {
        let stats = FaultStats {
            blackout_drops: 1,
            flaky_drops: 2,
            flaky_slowdowns: 3,
            storm_rejections: 4,
            corrupted_bodies: 5,
        };
        assert_eq!(stats.total(), 15);
    }
}
