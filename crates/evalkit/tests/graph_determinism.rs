//! Claim-graph determinism contract (ISSUE 7): the graph a session
//! builds — node ids, edge weights, provenance, the whole serialized
//! snapshot — is a pure function of the session's seeds. Thread count
//! is an implementation detail and must never change a single byte of
//! any graph, and the legacy-parity flag must keep flag-off behaviour
//! indistinguishable from the flat store.

use ira_core::AgentConfig;
use ira_engine::{Engine, SessionConfig};
use ira_evalkit::runner::sweep;
use ira_webcorpus::CorpusConfig;

const CABLE_Q: &str = "Which is more vulnerable to solar activity? The fiber optic cable that \
                       connects Brazil to Europe or the one that connects the US to Europe?";

/// Train + self-learn one session per seed and return the serialized
/// claim graph alongside the answer, fanned out over `threads`.
fn graph_sweep(threads: usize) -> Vec<(Vec<u8>, String)> {
    let seeds: Vec<u64> = (0..6).map(|i| 0x5EED + i * 0x101).collect();
    let engine = Engine::new();
    sweep(seeds, threads, |_, seed| {
        let mut session = engine.spawn_session(SessionConfig {
            agent: AgentConfig {
                graph_retrieval: true,
                ..AgentConfig::default()
            },
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
        let _ = session.agent.self_learn(CABLE_Q);
        let answer = session.agent.ask(CABLE_Q);
        (
            session.agent.memory().graph_to_bytes(),
            format!("{:?}@{}", answer.verdict, answer.confidence),
        )
    })
}

/// The tentpole determinism bar: serialized graphs (and the answers
/// retrieved through them) are byte-identical at 1, 4, and 8 threads.
#[test]
fn graph_bytes_are_identical_across_thread_counts() {
    let serial = graph_sweep(1);
    for threads in [4usize, 8] {
        let parallel = graph_sweep(threads);
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed a graph byte or an answer"
        );
    }
    for (bytes, _) in &serial {
        assert!(
            bytes.len() > 16,
            "training must have built a non-trivial graph"
        );
    }
}

/// Legacy parity: with the flag off, a graph-capable agent answers the
/// flagship question exactly like one that predates the graph — and
/// its knowledge file serializes identically, because the graph lives
/// outside every serialized struct.
#[test]
fn flag_off_agent_is_indistinguishable_from_flat() {
    let engine = Engine::new();
    let run = |graph_retrieval: bool| {
        let mut agent = engine
            .spawn_session(SessionConfig {
                agent: AgentConfig {
                    graph_retrieval,
                    ..AgentConfig::default()
                },
                ..SessionConfig::bob()
            })
            .agent;
        agent.train();
        let trajectory = agent.self_learn(CABLE_Q);
        let answer = agent.ask(CABLE_Q);
        (
            serde_json::to_string(&trajectory).unwrap(),
            answer.text,
            agent.memory().to_json(),
        )
    };
    let (flat_trajectory, flat_answer, flat_json) = run(false);

    // The flag-off run IS the default run: compare against an agent
    // built with the plain default config (the pre-graph behaviour).
    let mut legacy = engine.spawn_session(SessionConfig::bob()).agent;
    legacy.train();
    let legacy_trajectory = legacy.self_learn(CABLE_Q);
    let legacy_answer = legacy.ask(CABLE_Q);

    assert_eq!(
        flat_trajectory,
        serde_json::to_string(&legacy_trajectory).unwrap()
    );
    assert_eq!(flat_answer, legacy_answer.text);
    assert_eq!(flat_json, legacy.memory().to_json());

    // Graph-on still persists the identical knowledge.json bytes: the
    // claim graph is runtime + sidecar state, never the JSON.
    let (_, _, graph_json) = run(true);
    assert_eq!(
        flat_json, graph_json,
        "graph mode must not change knowledge.json by a byte"
    );
}
