//! Claim-graph determinism contract: the graph a session builds —
//! node ids, provenance, the whole serialized snapshot —
//! is a pure function of the session's seeds. Thread count is an
//! implementation detail and must never change a single byte of any
//! graph.

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

/// The determinism bar: serialized graphs (and the answers given
/// alongside them) are byte-identical at 1, 4, and 8 threads.
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
