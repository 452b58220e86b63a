//! The simulated environment: world → corpus → network → client.
//!
//! [`Environment::from_parts`] is the only constructor. Outside this
//! crate, environments come from `ira_engine::Engine::spawn_session`,
//! which passes in its shared world and cached corpus.

use ira_simnet::{Client, ClientConfig, Duration, FaultPlan, Network, NetworkConfig};
use ira_webcorpus::{register_sites, Corpus};
use ira_worldmodel::World;
use std::sync::Arc;

/// Random fault injection for a chaos environment: a seeded random
/// fault plan (blackouts, flaky periods, rate-limit storms, corrupted
/// bodies) plus a circuit-breaker-enabled client.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Share of hosts faulted, 0.0–1.0.
    pub intensity: f64,
    /// Virtual-time horizon the fault plan covers.
    pub horizon: Duration,
    /// Fault-plan seed.
    pub seed: u64,
}

/// Everything outside the agent: ground truth, the web built from it,
/// and the network serving that web.
pub struct Environment {
    /// Shared, read-only ground truth: sessions spawned from one engine
    /// all point at the same world.
    pub world: Arc<World>,
    pub corpus: Arc<Corpus>,
    pub client: Client,
}

impl Environment {
    /// The only construction path: build a fresh network on
    /// `net_seed`, register the corpus sites, and wire a plain client —
    /// or, with `faults`, install the seeded fault plan and a resilient
    /// (circuit-breaker) client so the agent degrades around dead hosts
    /// instead of hammering them.
    ///
    /// The world and corpus arrive pre-built (and usually shared) so
    /// sweeps pay for them once; see `ira-engine`'s corpus cache.
    pub fn from_parts(
        world: impl Into<Arc<World>>,
        corpus: Arc<Corpus>,
        net_seed: u64,
        faults: Option<FaultSpec>,
    ) -> Self {
        let mut net = Network::new(NetworkConfig::default(), net_seed);
        register_sites(&mut net, Arc::clone(&corpus));
        let client = match faults {
            None => Client::new(Arc::new(net)),
            Some(spec) => {
                let hosts = net.host_names();
                let net = Arc::new(net);
                net.set_fault_plan(FaultPlan::random(
                    &hosts,
                    spec.intensity,
                    spec.horizon,
                    spec.seed,
                ));
                Client::with_config(net, ClientConfig::resilient())
            }
        };
        Environment {
            world: world.into(),
            corpus,
            client,
        }
    }

    /// Virtual time elapsed so far, microseconds.
    pub fn now_us(&self) -> u64 {
        self.client.network().clock().now().as_micros()
    }
}

#[cfg(test)]
impl Environment {
    /// Unit-test fixture: the canonical environment (standard world,
    /// default corpus, network seed `0xBEEF`, no faults) — what the
    /// engine spawns for `SessionConfig::bob`, which this crate cannot
    /// depend on.
    pub(crate) fn fixture() -> Self {
        let world = World::standard();
        let corpus = Arc::new(Corpus::generate(
            &world,
            ira_webcorpus::CorpusConfig::default(),
        ));
        Self::from_parts(world, corpus, 0xBEEF, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ira_webcorpus::CorpusConfig;
    use ira_worldmodel::scenario::ScenarioSpec;

    /// The canonical seeds over the corpus a scenario spec names.
    fn scenario_env(spec: &ScenarioSpec) -> Result<Environment, String> {
        let world = World::standard();
        let corpus = Arc::new(Corpus::for_scenario(&world, spec)?);
        Ok(Environment::from_parts(world, corpus, 0xBEEF, None))
    }

    #[test]
    fn standard_environment_serves_search() {
        let env = Environment::fixture();
        let body = env
            .client
            .get_text("sim://search.test/q?query=solar+superstorm")
            .unwrap();
        assert!(body.contains("results"));
        assert!(env.corpus.len() > 200);
    }

    #[test]
    fn distractor_count_is_tunable() {
        let build = |distractor_count| {
            let world = World::standard();
            let corpus = Arc::new(Corpus::generate(
                &world,
                CorpusConfig {
                    seed: 1,
                    distractor_count,
                    ..CorpusConfig::default()
                },
            ));
            Environment::from_parts(world, corpus, 1, None)
        };
        let small = build(0);
        let big = build(300);
        assert_eq!(big.corpus.len() - small.corpus.len(), 300);
    }

    #[test]
    fn scenario_spec_path_matches_standard_for_the_canonical_spec() {
        let canonical = Environment::fixture();
        let spec = scenario_env(&ScenarioSpec::default()).unwrap();
        assert_eq!(canonical.corpus.len(), spec.corpus.len());
        let a = canonical
            .client
            .get_text("sim://search.test/q?query=solar+superstorm")
            .unwrap();
        let b = spec
            .client
            .get_text("sim://search.test/q?query=solar+superstorm")
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(canonical.now_us(), spec.now_us());
        assert!(scenario_env(&ScenarioSpec::named("nope")).is_err());
    }

    #[test]
    fn scenario_environments_serve_their_event_pages() {
        let env = scenario_env(&ScenarioSpec::named("route-leak")).unwrap();
        let page = env
            .client
            .get_text("sim://search.test/q?query=bgp+withdrawal+dns+prefixes")
            .unwrap();
        assert!(page.contains("results"));
        let doc = env
            .corpus
            .iter()
            .find(|d| d.topic == ira_webcorpus::Topic::ScenarioEvent)
            .expect("route-leak emits event pages");
        let body = env.client.get_text(&doc.url().to_string()).unwrap();
        assert!(body.contains(&doc.title));
    }
}
