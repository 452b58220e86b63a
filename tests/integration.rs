//! Cross-crate integration tests: the full pipeline from ground-truth
//! world to scored evaluation, exercised end to end.

use ira::prelude::*;
use ira::simllm::Llm;

/// Alice, the outage analyst, in the canonical environment.
fn alice() -> SessionConfig {
    SessionConfig {
        role: RoleDefinition::outage_analyst(),
        llm_seed: 0xA11CE,
        ..SessionConfig::bob()
    }
}

const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable that \
                       connects Brazil to Europe or the one that connects the US to Europe?";

#[test]
fn full_pipeline_reproduces_the_paper_headline() {
    let mut session = Engine::new().spawn_session(SessionConfig::bob());
    let quiz = QuizBank::from_world(session.world());
    let conclusions = session.world().conclusions();

    let bob = &mut session.agent;
    let training = bob.train();
    assert!(training.total_memorized() >= 5);

    let run = evaluate_agent(bob, &quiz, &conclusions);
    assert!(
        run.consistency.consistent_count() >= 7,
        "paper reports 7 of 8; got {} of {}",
        run.consistency.consistent_count(),
        run.consistency.total()
    );
    assert!(run.provenance.clean());

    let baseline = evaluate_baseline(&Llm::gpt4(123), &quiz);
    assert!(baseline.consistent_count() <= 1);
    assert!(run.consistency.mean_confidence() > baseline.mean_confidence() + 3.0);
}

#[test]
fn paper_trajectory_shapes_hold() {
    let mut bob = Engine::new().spawn_session(SessionConfig::bob()).agent;
    bob.train();

    // E2: cable question, 3 -> 8..9 in one round, US-Europe verdict.
    let t = bob.self_learn(CABLE_Q);
    assert!(t.initial_confidence().unwrap() <= 4);
    assert!(t.final_confidence().unwrap() >= 8);
    assert_eq!(
        t.learning_rounds(),
        1,
        "paper: one round of self-learning suffices"
    );

    // E3: datacenter question improves markedly too.
    let q = "Whose datacenter is more vulnerable to a solar superstorm, Google's or Facebook's?";
    let t = bob.self_learn(q);
    assert!(t.final_confidence().unwrap() > t.initial_confidence().unwrap());
    let last = t.rounds.last().unwrap();
    assert!(last.verdict.as_deref().unwrap_or("").contains("Facebook"));
}

#[test]
fn identical_seeds_give_identical_runs() {
    // Separate engines: nothing cached in one run can leak into the
    // other.
    let run = || {
        let mut session = Engine::new().spawn_session(SessionConfig::bob());
        let quiz = QuizBank::from_world(session.world());
        let conclusions = session.world().conclusions();
        let bob = &mut session.agent;
        bob.train();
        let run = evaluate_agent(bob, &quiz, &conclusions);
        (
            run.consistency.consistent_count(),
            run.trajectories
                .iter()
                .map(|t| t.confidence_series())
                .collect::<Vec<_>>(),
            bob.memory().len(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "the whole pipeline must be deterministic per seed");
}

#[test]
fn knowledge_json_round_trips_through_a_real_agent() {
    let mut bob = Engine::new().spawn_session(SessionConfig::bob()).agent;
    bob.train();
    let json = bob.memory().to_json();
    assert!(json.contains("source_url"));
    let restored = ira::agentmem::KnowledgeStore::from_json(&json).unwrap();
    assert_eq!(restored.len(), bob.memory().len());
    // Retrieval over the restored store behaves identically.
    let q = "solar superstorm coronal mass ejection";
    let a = bob.memory().retrieve_texts(q, 3, u64::MAX);
    let b = restored.retrieve_texts(q, 3, u64::MAX);
    assert_eq!(a, b);
}

#[test]
fn bigger_distractor_load_does_not_break_learning() {
    let mut bob = Engine::new()
        .spawn_session(SessionConfig {
            corpus: CorpusConfig {
                distractor_count: 600,
                ..CorpusConfig::default()
            },
            ..SessionConfig::bob()
        })
        .agent;
    bob.train();
    let t = bob.self_learn(CABLE_Q);
    assert!(
        t.final_confidence().unwrap() >= 8,
        "retrieval must still find the facts amid 600 distractors"
    );
}

#[test]
fn different_role_same_architecture() {
    let mut alice = Engine::new().spawn_session(alice()).agent;
    alice.train();
    let q = "Are submarine cables or terrestrial fiber links more at risk during a solar \
             superstorm?";
    let t = alice.self_learn(q);
    assert!(
        t.final_confidence().unwrap() >= 7,
        "got {:?}",
        t.confidence_series()
    );
    let answer = alice.ask(q);
    assert_eq!(answer.verdict.as_deref(), Some("submarine cables"));
}

#[test]
fn virtual_time_accumulates_like_a_real_investigation() {
    let mut session = Engine::new().spawn_session(SessionConfig::bob());
    let quiz = QuizBank::from_world(session.world());
    session.agent.train();
    for item in quiz.iter() {
        let _ = session.agent.self_learn(&item.question);
    }
    let minutes = session.now_us() as f64 / 6e7;
    assert!(
        (0.5..30.0).contains(&minutes),
        "full investigation should take order-of-minutes virtual time, took {minutes:.1}"
    );
}

#[test]
fn incident_investigation_matches_all_four_conclusions() {
    // The X2 extension end to end: Alice the outage analyst against
    // the incident quiz derived from the catalog.
    let mut session = Engine::new().spawn_session(alice());
    let quiz = QuizBank::incidents(&session.world().incidents);
    let conclusions = session.world().conclusions();
    let alice = &mut session.agent;
    alice.train();
    let run = evaluate_agent(alice, &quiz, &conclusions);
    assert_eq!(
        run.consistency.consistent_count(),
        4,
        "incident quiz results: {:#?}",
        run.consistency
            .per_item
            .iter()
            .map(|r| (r.id.clone(), r.matched.consistent, r.verdict.clone()))
            .collect::<Vec<_>>()
    );
    let baseline = evaluate_baseline(&Llm::gpt4(5), &quiz);
    assert_eq!(baseline.consistent_count(), 0);
}

#[test]
fn poisoning_degrades_confidence_but_never_flips_the_verdict() {
    use ira::evalkit::poison::PoisonCampaign;
    let mut session = Engine::new().spawn_session(SessionConfig::bob());
    let bob = &mut session.agent;
    bob.train();
    let _ = bob.self_learn(CABLE_Q);
    let clean = bob.ask(CABLE_Q);
    assert!(clean
        .verdict
        .as_deref()
        .unwrap_or("")
        .contains("United States"));

    for target in ["Atlantis-2", "EllaLink"] {
        PoisonCampaign::inflate(target, 75.0, 3).inject(bob.memory(), session.env.now_us());
    }
    let poisoned = bob.ask(CABLE_Q);
    assert!(
        poisoned.confidence < clean.confidence,
        "poisoning must be visible as a confidence drop ({} vs {})",
        poisoned.confidence,
        clean.confidence
    );
    // Fail-safe: the agent may hedge, but must never assert the
    // adversary's preferred (wrong) verdict.
    if let Some(v) = &poisoned.verdict {
        assert!(
            !v.to_lowercase().contains("brazil"),
            "verdict flipped to the adversary's side: {v}"
        );
    }
}

#[test]
fn markdown_report_renders_a_full_run() {
    use ira::evalkit::report::markdown_report;
    use ira::evalkit::runner::full_paper_run;
    let (run, baseline) = full_paper_run(&Engine::new());
    let md = markdown_report("Investigation report: solar superstorms", &run, &baseline);
    assert!(md.starts_with("# Investigation report"));
    assert!(md.contains("## Per-question results"));
    assert!(md.contains("## Self-learning trajectories"));
    assert!(md.contains("## Provenance"));
    assert!(md.contains("BrazilEuropeCableSafer"));
    assert!(md.matches('|').count() > 40, "tables should render");
}

#[test]
fn agent_survives_a_hostile_network() {
    // Failure injection: wrap the standard corpus in a network with a
    // heavy loss rate. Retries absorb transient failures; the agent
    // still learns, and errors are accounted rather than fatal.
    use ira::simnet::latency::LatencyModel;
    use ira::simnet::ratelimit::TokenBucket;
    use ira::simnet::server::{HostConfig, Network, NetworkConfig};
    use ira::webcorpus::register_sites;
    use std::sync::Arc;

    let corpus = Engine::new().corpus(CorpusConfig::default());
    let mut net = Network::new(
        NetworkConfig {
            default_host: HostConfig {
                latency: LatencyModel {
                    loss: 0.30,
                    ..LatencyModel::typical()
                },
                rate_limit: TokenBucket::unlimited(),
            },
        },
        0xBAD,
    );
    // Register sites, then *override* every host with the lossy config.
    register_sites(&mut net, Arc::clone(&corpus));
    let hosts = net.host_names();
    for host in hosts {
        // Re-registering replaces the slot with the lossy default.
        let corpus = Arc::clone(&corpus);
        if host == ira::webcorpus::SEARCH_HOST {
            continue; // keep the search engine functional
        }
        let host_static: &'static str = Box::leak(host.clone().into_boxed_str());
        net.register_with(
            &host,
            Arc::new(move |req: &ira::simnet::server::Request| {
                match corpus.doc_by_host_path(host_static, req.url.path()) {
                    Some(doc) => ira::simnet::server::Response::ok(doc.full_text()),
                    None => ira::simnet::server::Response::not_found(),
                }
            }),
            HostConfig {
                latency: LatencyModel {
                    loss: 0.30,
                    ..LatencyModel::typical()
                },
                rate_limit: TokenBucket::unlimited(),
            },
        );
    }

    // Bob wired by hand over the lossy client: the engine only builds
    // standard networks.
    let bob_session = SessionConfig::bob();
    let mut bob = ResearchAgent::from_services(
        bob_session.role,
        Arc::new(ira::simnet::Client::new(Arc::new(net))),
        Arc::new(Llm::gpt4(bob_session.llm_seed)),
        bob_session.agent,
    );
    let report = bob.train();
    assert!(
        report.total_memorized() >= 3,
        "a 30%-loss network must not stop learning: {report:?}"
    );
    let t = bob.self_learn(CABLE_Q);
    assert!(
        t.final_confidence().unwrap() >= 7,
        "retries should carry the investigation through: {:?}",
        t.confidence_series()
    );
}

#[test]
fn flagship_trajectory_holds_across_seeds() {
    // A compressed X11: four distinct corpus/network seeds must all
    // reach the correct verdict at high confidence.
    let engine = Engine::new();
    for seed in [0x5EEDu64, 0x60EF, 0x62F1, 0x67F6] {
        let mut bob = engine
            .spawn_session(SessionConfig {
                corpus: CorpusConfig {
                    seed,
                    distractor_count: 150,
                    ..CorpusConfig::default()
                },
                net_seed: seed ^ 0xBEEF,
                llm_seed: seed,
                ..SessionConfig::bob()
            })
            .agent;
        bob.train();
        let t = bob.self_learn(CABLE_Q);
        assert!(
            t.final_confidence().unwrap() >= 8,
            "seed {seed:#x}: {:?}",
            t.confidence_series()
        );
        let answer = bob.ask(CABLE_Q);
        assert!(
            answer
                .verdict
                .as_deref()
                .unwrap_or("")
                .contains("United States"),
            "seed {seed:#x}: verdict {:?}",
            answer.verdict
        );
    }
}

/// A model that keeps the knowledge of the last `answer` call made on
/// it directly (the prompt an answer is read from), and otherwise is
/// the simulated GPT-4.
struct PromptRecorder {
    llm: Llm,
    last_prompt: std::sync::Mutex<Vec<String>>,
}

impl ira::services::LanguageModel for PromptRecorder {
    fn answer(&self, question: &str, knowledge: &[String]) -> ira::simllm::Answer {
        *self.last_prompt.lock().unwrap() = knowledge.to_vec();
        self.llm.answer(question, knowledge)
    }
    fn propose_searches(&self, question: &str, knowledge: &[String], max: usize) -> Vec<String> {
        self.llm.propose_searches(question, knowledge, max)
    }
    fn plan_goal(&self, goal: &str) -> ira::simllm::ActionPlan {
        self.llm.plan_goal(goal)
    }
    fn decompose(&self, task: &str) -> Vec<String> {
        self.llm.decompose(task)
    }
    fn shutdown_strategy(&self, knowledge: &[String]) -> ira::simllm::Answer {
        self.llm.shutdown_strategy(knowledge)
    }
    fn stats(&self) -> ira::simllm::LlmStats {
        self.llm.stats()
    }
    fn set_inference_hook(&self, hook: ira::services::InferenceHook) {
        ira::services::LanguageModel::set_inference_hook(&self.llm, hook)
    }
    fn invalidate_grounding(&self) {
        ira::services::LanguageModel::invalidate_grounding(&self.llm)
    }
}

#[test]
fn cited_answers_cite_the_entries_loaded_into_the_prompt() {
    use std::sync::Arc;

    let session = Engine::new().spawn_session(SessionConfig::bob());
    let quiz = QuizBank::from_world(session.world());
    let llm = Arc::new(PromptRecorder {
        llm: Llm::gpt4(0xB0B),
        last_prompt: Default::default(),
    });
    let mut bob = ResearchAgent::from_services(
        RoleDefinition::bob(),
        Arc::new(session.env.client.clone()),
        llm.clone(),
        AgentConfig::default(),
    );
    bob.train();
    for item in quiz.iter() {
        let q = item.question.as_str();
        let _ = bob.self_learn(q);
        let (_, citations) = bob.ask_cited(q);
        let cited: Vec<String> = citations.into_iter().map(|(url, _)| url).collect();
        let url_of: std::collections::HashMap<String, String> = bob
            .memory()
            .entries()
            .into_iter()
            .map(|e| (e.content, e.source_url))
            .collect();
        let loaded: Vec<String> = llm
            .last_prompt
            .lock()
            .unwrap()
            .iter()
            .map(|content| url_of[content].clone())
            .collect();
        assert!(!cited.is_empty(), "{q}");
        assert_eq!(cited, loaded, "{q}");
    }
}
