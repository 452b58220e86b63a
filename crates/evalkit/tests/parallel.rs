//! Determinism regression tests for the engine/session layer and the
//! parallel sweep runner: parallelism is an implementation detail and
//! must never change a single byte of any report.

use ira_core::{AgentConfig, Environment, ResearchAgent, RoleDefinition};
use ira_engine::{Engine, SessionConfig};
use ira_evalkit::quiz::QuizBank;
use ira_evalkit::robustness::chaos_sweep_threads;
use ira_evalkit::runner::{evaluate_agent, evaluate_scenario, sweep};
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::scenario::{lookup, ScenarioRegistry, ScenarioSpec};
use ira_worldmodel::World;
use std::sync::Arc;

const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable that \
                       connects Brazil to Europe or the one that connects the US to Europe?";

/// Bob with `config`, wired by hand without the engine: a freshly
/// built world and default corpus, `Environment::from_parts` on the
/// canonical network seed, then the agent on Bob's model seed.
fn hand_wired_bob(config: AgentConfig) -> ResearchAgent {
    let world = World::standard();
    let corpus = Arc::new(Corpus::generate(&world, CorpusConfig::default()));
    let env = Environment::from_parts(world, corpus, 0xBEEF, None);
    ResearchAgent::new(RoleDefinition::bob(), &env, config, 0xB0B)
}

/// Engine sessions (shared world, cached corpus) must reproduce the
/// quiz evaluation of a hand-wired environment exactly: same
/// trajectories, same verdicts, same provenance — the whole `EvalRun`
/// JSON.
#[test]
fn engine_quiz_run_matches_legacy_byte_for_byte() {
    let world = World::standard();
    let quiz = QuizBank::from_world(&world);
    let conclusions = world.conclusions();
    let mut legacy = hand_wired_bob(AgentConfig::default());
    legacy.train();
    let legacy_run = evaluate_agent(&mut legacy, &quiz, &conclusions);

    let engine = Engine::new();
    let mut session = engine.spawn_session(SessionConfig::bob());
    let quiz2 = QuizBank::from_world(session.world());
    let conclusions2 = session.world().conclusions();
    session.agent.train();
    let engine_run = evaluate_agent(&mut session.agent, &quiz2, &conclusions2);

    assert_eq!(
        serde_json::to_string(&legacy_run).unwrap(),
        serde_json::to_string(&engine_run).unwrap(),
        "engine session must be indistinguishable from a hand-wired environment"
    );
}

/// The flagship sweep determinism contract: a self-learning run per
/// seed, fanned out over 4 threads, must serialize identically to the
/// serial sweep.
#[test]
fn parallel_seed_sweep_is_byte_identical_to_serial() {
    let seeds: Vec<u64> = (0..6).map(|i| 0x5EED + i * 0x101).collect();

    let run = |threads: usize| -> Vec<String> {
        let engine = Engine::new();
        sweep(seeds.clone(), threads, |_, seed| {
            let mut session = engine.spawn_session(SessionConfig {
                corpus: CorpusConfig {
                    seed,
                    distractor_count: 150,
                    ..CorpusConfig::default()
                },
                net_seed: seed ^ 0xBEEF,
                llm_seed: seed,
                ..SessionConfig::bob()
            });
            session.agent.train();
            let trajectory = session.agent.self_learn(CABLE_Q);
            let answer = session.agent.ask(CABLE_Q);
            format!(
                "{}|{:?}|{}",
                serde_json::to_string(&trajectory).unwrap(),
                answer.verdict,
                session.now_us(),
            )
        })
    };

    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "thread count must not change any sweep byte"
    );
    assert_eq!(serial.len(), seeds.len());
}

/// The scenario matrix (ISSUE 8): every registered scenario, trained
/// and quizzed through the scenario-aware EvalRun path, must serialize
/// identically at 1, 4, and 8 threads — the determinism bar the
/// `m1_scenario_matrix` bench builds on.
#[test]
fn scenario_matrix_is_byte_identical_across_thread_counts() {
    let scenarios = ScenarioRegistry::standard().names();

    let run = |threads: usize| -> Vec<String> {
        let engine = Engine::new();
        sweep(scenarios.clone(), threads, |_, name| {
            let spec = ScenarioSpec::named(name);
            let mut session = engine
                .spawn_session(SessionConfig::for_scenario(&spec).expect("registered scenario"));
            session.agent.train();
            let scenario = lookup(name).expect("registered scenario");
            let world = session.env.world.clone();
            let eval = evaluate_scenario(&mut session.agent, scenario.as_ref(), &world);
            format!(
                "{name}|{}|{}",
                serde_json::to_string(&eval).unwrap(),
                session.now_us()
            )
        })
    };

    let serial = run(1);
    for threads in [4usize, 8] {
        assert_eq!(
            serial,
            run(threads),
            "thread count {threads} changed a scenario-matrix byte"
        );
    }
    assert_eq!(serial.len(), scenarios.len());
}

/// The chaos sweep exposed through the threaded API must match the
/// serial path level for level.
#[test]
fn parallel_chaos_sweep_matches_serial() {
    let intensities = [0.0, 0.25];
    let serial = chaos_sweep_threads(&intensities, 0xC4A0, 1);
    let parallel = chaos_sweep_threads(&intensities, 0xC4A0, 4);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
    );
}

/// Distinct configs must not cross-contaminate through the shared
/// engine: a low-threshold and a high-threshold session spawned from
/// one engine behave exactly like two hand-wired environments.
#[test]
fn engine_threshold_sessions_match_legacy_environments() {
    let engine = Engine::new();
    for threshold in [3u8, 9] {
        let config = AgentConfig {
            confidence_threshold: threshold,
            ..AgentConfig::default()
        };

        let mut legacy = hand_wired_bob(config);
        legacy.train();
        let legacy_t = legacy.self_learn(CABLE_Q);

        let mut session = engine.spawn_session(SessionConfig {
            agent: config,
            ..SessionConfig::bob()
        });
        session.agent.train();
        let engine_t = session.agent.self_learn(CABLE_Q);

        assert_eq!(
            serde_json::to_string(&legacy_t).unwrap(),
            serde_json::to_string(&engine_t).unwrap(),
            "threshold {threshold} session diverged from the hand-wired one"
        );
    }
    assert_eq!(
        engine.corpus_builds(),
        1,
        "both sessions must share the corpus"
    );
}
