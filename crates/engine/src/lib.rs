//! # ira-engine
//!
//! The engine/session layer. An [`Engine`] owns the expensive shared
//! state of an experiment — the ground-truth [`World`] and a cache of
//! generated corpora — and spawns owned, `Send` [`Session`]s: one
//! simulated web + one research agent each, ready to move to a worker
//! thread.
//!
//! [`Engine::spawn_session`] (and its observed form,
//! [`Engine::spawn_session_with_handle`]) is how everything outside
//! `ira-core` gets an [`Environment`]. The world is read-only and
//! corpus generation is deterministic — `Corpus::generate` over the
//! same world and config always yields the same pages — so
//! the engine builds the world once and each distinct corpus once while
//! it stays cached, and shares both (`Arc`) across sessions. The cache
//! keeps the most recently used corpora up to a fixed number of
//! documents; a corpus evicted and asked for again is regenerated, byte
//! for byte the same. Every per-session component
//! that carries state (network, client, model, memory) is constructed
//! fresh through `Environment::from_parts` and `ResearchAgent::new`,
//! so a session behaves byte-for-byte like one wired by hand from a
//! freshly built world and corpus.

use ira_core::{AgentConfig, Environment, ResearchAgent, RoleDefinition};
use ira_obs::ObsHandle;
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::scenario::ScenarioSpec;
use ira_worldmodel::World;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use ira_core::FaultSpec;

/// Everything that makes one session distinct: the agent's identity
/// and config, the view of the web, and the seeds.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub role: RoleDefinition,
    pub agent: AgentConfig,
    pub corpus: CorpusConfig,
    /// Network latency/jitter stream seed.
    pub net_seed: u64,
    /// Language-model seed.
    pub llm_seed: u64,
    /// `Some` turns the session chaotic: a seeded random fault plan
    /// plus a resilient (circuit-breaker) client.
    pub faults: Option<FaultSpec>,
}

impl SessionConfig {
    /// The canonical experiment session: agent Bob over the default
    /// corpus with the standard seeds (network `0xBEEF`, model
    /// `0xB0B`).
    pub fn bob() -> Self {
        SessionConfig {
            role: RoleDefinition::bob(),
            agent: AgentConfig::default(),
            corpus: CorpusConfig::default(),
            net_seed: 0xBEEF,
            llm_seed: 0xB0B,
            faults: None,
        }
    }

    /// The canonical session over a scenario spec: Bob's identity and
    /// seeds, but the corpus (base web + event pages) the spec names.
    /// For the default spec this is exactly [`SessionConfig::bob`].
    /// Errors if the spec names no registered scenario.
    pub fn for_scenario(spec: &ScenarioSpec) -> Result<Self, String> {
        let corpus = CorpusConfig::for_spec(spec)
            .ok_or_else(|| format!("unknown scenario `{}`", spec.scenario))?;
        Ok(SessionConfig {
            corpus,
            ..Self::bob()
        })
    }
}

/// One spawned session: a private simulated web and the agent living
/// in it. Owns everything (no borrows of the engine beyond `Arc`s), so
/// it is `Send` and can run on a worker thread.
pub struct Session {
    pub env: Environment,
    pub agent: ResearchAgent,
}

impl Session {
    pub fn world(&self) -> &World {
        &self.env.world
    }

    /// Virtual time elapsed in this session, microseconds.
    pub fn now_us(&self) -> u64 {
        self.env.now_us()
    }
}

/// Scenario name, prose seed, distractor count — the three knobs that
/// change generated bytes. The scenario name is interned (`&'static
/// str` from the registry), so the key stays cheap to hash and clone.
type CorpusKey = (&'static str, u64, usize);

/// The most documents the corpus cache keeps. Four 6,000-distractor
/// webs (~24,600 documents, the largest set of corpora one benchmark
/// workload uses at once) fit, and so does the largest corpus a serve
/// request can ask for (10,000 distractors, ~10,150 documents), so a
/// tenant cycling through distractor counts holds the cache to this
/// size instead of growing it without bound.
const CACHE_DOCUMENTS: usize = 32_768;

/// The corpus cache: one `OnceLock` cell per key, so two threads asking
/// for *different* corpora build in parallel — the lock is held only to
/// hand out a cell or to evict, never during generation.
#[derive(Default)]
struct CorpusCache {
    cells: HashMap<CorpusKey, Cached>,
    /// Counts requests; stamps `Cached::used`.
    clock: u64,
}

struct Cached {
    cell: Arc<OnceLock<Arc<Corpus>>>,
    /// `CorpusCache::clock` at the last request for this key.
    used: u64,
}

impl CorpusCache {
    /// Drop least recently used corpora, never `keep` and never one
    /// still being generated, until at most `limit` documents are
    /// cached or only `keep` is left to drop.
    fn evict(&mut self, keep: CorpusKey, limit: usize) {
        let documents = |cached: &Cached| cached.cell.get().map_or(0, |c| c.len());
        let mut resident: usize = self.cells.values().map(documents).sum();
        while resident > limit {
            let victim = self
                .cells
                .iter()
                .filter(|(key, cached)| **key != keep && cached.cell.get().is_some())
                .min_by_key(|(_, cached)| cached.used)
                .map(|(key, _)| *key);
            let Some(victim) = victim else { break };
            let evicted = self.cells.remove(&victim).expect("victim is cached");
            resident -= documents(&evicted);
        }
    }
}

/// Shared experiment state: one world and a bounded cache of the
/// corpora generated over it.
pub struct Engine {
    /// Shared by every spawned session's environment, never cloned.
    world: Arc<World>,
    corpora: Mutex<CorpusCache>,
    /// The cache's bound in documents: `CACHE_DOCUMENTS`, held in a
    /// field so a test can cycle through a smaller one.
    cache_documents: usize,
    builds: AtomicUsize,
}

impl Engine {
    /// Engine over the standard ground-truth world.
    pub fn new() -> Self {
        Self::with_world(World::standard())
    }

    /// Engine over a caller-supplied world (ablations).
    pub fn with_world(world: World) -> Self {
        Engine {
            world: Arc::new(world),
            corpora: Mutex::new(CorpusCache::default()),
            cache_documents: CACHE_DOCUMENTS,
            builds: AtomicUsize::new(0),
        }
    }

    pub fn world(&self) -> &World {
        &self.world
    }

    /// The corpus for `config`, generated on first request and shared
    /// while it stays cached. Generation is deterministic, so the cached
    /// corpus is indistinguishable from a rebuild. A request that
    /// generates evicts least recently used corpora until the cache
    /// holds at most `CACHE_DOCUMENTS` documents.
    pub fn corpus(&self, config: CorpusConfig) -> Arc<Corpus> {
        let key = (config.scenario, config.seed, config.distractor_count);
        let cell = {
            let cache = &mut *self.corpora.lock().expect("corpus cache poisoned");
            cache.clock += 1;
            let used = cache.clock;
            let cached = cache.cells.entry(key).or_insert_with(|| Cached {
                cell: Arc::default(),
                used,
            });
            cached.used = used;
            Arc::clone(&cached.cell)
        };
        let mut generated = false;
        let corpus = Arc::clone(cell.get_or_init(|| {
            generated = true;
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(Corpus::generate(&self.world, config))
        }));
        if generated {
            self.corpora
                .lock()
                .expect("corpus cache poisoned")
                .evict(key, self.cache_documents);
        }
        corpus
    }

    /// How many corpora have actually been generated: first requests
    /// and regenerations after eviction.
    pub fn corpus_builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Spawn one unobserved session:
    /// [`Engine::spawn_session_with_handle`] with
    /// [`ObsHandle::disabled`].
    pub fn spawn_session(&self, config: SessionConfig) -> Session {
        self.spawn_session_with_handle(config, ObsHandle::disabled())
    }

    /// Spawn one session: `Environment::from_parts` over the shared
    /// world and cached corpus — fresh network on `net_seed`, sites
    /// registered, then a plain or resilient client — followed by
    /// `ResearchAgent::new` on `llm_seed`, with observation attached:
    /// the session's client (cache/retry/breaker/fetch events) and agent
    /// (cycle boundaries, LLM-call spans, knowledge-test verdicts,
    /// memory growth) both emit through `handle` — typically
    /// `ObsHandle::new(sink, session_id)`.
    ///
    /// Because every session runs on exactly one thread and all
    /// timestamps come from the session's virtual clock, the events a
    /// session emits are identical whether the sweep runs on one
    /// thread or many — the handle's session id is the per-session
    /// span root that keeps the streams apart.
    ///
    /// Client and agent share the one handle, i.e. one span-id
    /// allocator and one current-parent slot, so fetch spans, retry
    /// waits, LLM calls, and loop events all land in a single causal
    /// tree under the agent's cycle scopes. A supervisor (the serve
    /// layer) can emit its own spans — admission, queue wait, retries
    /// — on a clone of the same handle, so they nest in that tree too.
    pub fn spawn_session_with_handle(&self, config: SessionConfig, handle: ObsHandle) -> Session {
        let corpus = self.corpus(config.corpus);
        let mut env = Environment::from_parts(
            Arc::clone(&self.world),
            corpus,
            config.net_seed,
            config.faults,
        );
        // The agent clones the client at construction, so the observer
        // must be installed before `ResearchAgent::new`.
        env.client.set_observer_handle(handle.clone());
        let mut agent = ResearchAgent::new(config.role, &env, config.agent, config.llm_seed);
        agent.set_observer_handle(handle);
        Session { env, agent }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_are_send_and_engine_is_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Session>();
        assert_sync::<Engine>();
    }

    #[test]
    fn corpus_is_generated_once_and_shared() {
        let engine = Engine::new();
        let a = engine.corpus(CorpusConfig::default());
        let b = engine.corpus(CorpusConfig::default());
        assert!(Arc::ptr_eq(&a, &b), "same config must share one corpus");
        assert_eq!(engine.corpus_builds(), 1);
        let c = engine.corpus(CorpusConfig {
            seed: 1,
            distractor_count: 0,
            ..CorpusConfig::default()
        });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(engine.corpus_builds(), 2);
    }

    /// Documents the cache holds.
    fn cached_documents(engine: &Engine) -> usize {
        let cache = engine.corpora.lock().unwrap();
        cache
            .cells
            .values()
            .filter_map(|c| c.cell.get())
            .map(|c| c.len())
            .sum()
    }

    fn pages(corpus: &Corpus) -> String {
        serde_json::to_string(&corpus.iter().collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn corpus_cache_is_bounded_and_regenerates_identical_corpora() {
        let config = |distractor_count| CorpusConfig {
            distractor_count,
            ..CorpusConfig::default()
        };
        let mut engine = Engine::new();
        let smallest = engine.corpus(config(0)).len();
        // Room for two of the corpora below, not three.
        engine.cache_documents = 2 * smallest + 10;
        let first: Vec<Arc<Corpus>> = (0..4).map(|d| engine.corpus(config(d))).collect();
        // 0 was cached; 1, 2 and 3 were built, each evicting the least
        // recently used corpus once two were held.
        assert_eq!(engine.corpus_builds(), 4);
        for round in 0..2 {
            for (d, first) in first.iter().enumerate() {
                let again = engine.corpus(config(d));
                assert!(cached_documents(&engine) <= engine.cache_documents);
                assert!(
                    !Arc::ptr_eq(&again, first),
                    "round {round}: {d} regenerated"
                );
                assert_eq!(pages(&again), pages(first), "distractors {d}");
            }
        }
        assert_eq!(engine.corpus_builds(), 12, "every request misses");

        // The least recently used corpus goes first: 2 was used after
        // 3, so asking for 1 evicts 3 and 2 stays.
        let two = engine.corpus(config(2));
        engine.corpus(config(1));
        assert!(Arc::ptr_eq(&engine.corpus(config(2)), &two));
        assert_eq!(engine.corpus_builds(), 13);
    }

    #[test]
    fn corpus_cache_distinguishes_scenarios() {
        let engine = Engine::new();
        let solar = engine.corpus(CorpusConfig::default());
        let cut = engine.corpus(CorpusConfig::for_spec(&ScenarioSpec::named("cable-cut")).unwrap());
        assert!(
            !Arc::ptr_eq(&solar, &cut),
            "scenarios must not share a cache slot"
        );
        assert!(cut.len() > solar.len(), "cable-cut adds event pages");
        assert_eq!(engine.corpus_builds(), 2);
        // Same scenario again: cache hit.
        let again =
            engine.corpus(CorpusConfig::for_spec(&ScenarioSpec::named("cable-cut")).unwrap());
        assert!(Arc::ptr_eq(&cut, &again));
        assert_eq!(engine.corpus_builds(), 2);
    }

    #[test]
    fn scenario_session_config_defaults_to_bob() {
        let spec_cfg = SessionConfig::for_scenario(&ScenarioSpec::default()).unwrap();
        let bob = SessionConfig::bob();
        assert_eq!(spec_cfg.corpus, bob.corpus);
        assert_eq!(spec_cfg.net_seed, bob.net_seed);
        assert_eq!(spec_cfg.llm_seed, bob.llm_seed);
        assert!(SessionConfig::for_scenario(&ScenarioSpec::named("nope")).is_err());
    }

    #[test]
    fn spawned_sessions_are_independent() {
        let engine = Engine::new();
        let mut one = engine.spawn_session(SessionConfig::bob());
        let two = engine.spawn_session(SessionConfig::bob());
        assert_eq!(one.now_us(), two.now_us());
        one.agent.train();
        assert!(one.now_us() > 0, "training spends virtual time");
        assert_eq!(two.now_us(), 0, "sibling session's clock must not move");
        assert_eq!(engine.corpus_builds(), 1, "both sessions share the corpus");
    }

    #[test]
    fn sessions_share_one_world() {
        let engine = Engine::new();
        let a = engine.spawn_session(SessionConfig::bob());
        let b = engine.spawn_session(SessionConfig {
            faults: Some(FaultSpec {
                intensity: 0.25,
                horizon: ira_simnet::Duration::from_secs(12),
                seed: 7,
            }),
            ..SessionConfig::bob()
        });
        assert!(Arc::ptr_eq(&a.env.world, &b.env.world));
        assert!(std::ptr::eq(engine.world(), a.world()));
    }

    #[test]
    fn session_matches_legacy_environment_byte_for_byte() {
        // The determinism contract: an engine session with the bob
        // preset must produce the very same training report as Bob
        // wired by hand (fresh world and corpus, `from_parts`,
        // `ResearchAgent::bob`).
        let world = World::standard();
        let corpus = Arc::new(Corpus::generate(&world, CorpusConfig::default()));
        let env = Environment::from_parts(world, corpus, 0xBEEF, None);
        let mut wired = ResearchAgent::bob(&env);
        let wired_report = wired.train();

        let engine = Engine::new();
        let mut session = engine.spawn_session(SessionConfig::bob());
        let engine_report = session.agent.train();

        assert_eq!(
            serde_json::to_string(&wired_report).unwrap(),
            serde_json::to_string(&engine_report).unwrap(),
        );
        assert_eq!(env.now_us(), session.now_us(), "virtual clocks must agree");
    }

    #[test]
    fn parallel_spawns_share_one_corpus_build() {
        let engine = Engine::new();
        crossbeam::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|_| {
                    let session = engine.spawn_session(SessionConfig::bob());
                    assert_eq!(session.now_us(), 0);
                });
            }
        })
        .expect("spawn scope");
        assert_eq!(engine.corpus_builds(), 1);
    }
}
