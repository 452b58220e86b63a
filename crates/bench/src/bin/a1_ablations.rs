//! A1 — design-choice ablations (DESIGN.md "key design choices").
//!
//! Three retrieval choices of the architecture are ablated, each
//! against the full quiz with self-learning:
//!
//! * the MMR diversity penalty: on vs off (the paper-faithful ranking),
//! * memory retrieval scoring: relevance-only vs
//!   relevance+recency+importance,
//! * query expansion: gap queries join the retrieval query vs
//!   question-only retrieval.
//!
//! Knowledge dedup and chain-of-thought decomposition are fixed parts
//! of the loop and not ablated: on this quiz neither fires (no write is
//! a near-duplicate, no search comes back thin), so an "off" row would
//! only repeat the full architecture's.
//!
//! Reported per variant: quiz consistency, self-learning effort, and
//! memory size.

use ira::agentmem::RetrievalWeights;
use ira::evalkit::report::{banner, table};
use ira::prelude::*;

fn run_variant(engine: &Engine, label: &str, agent: AgentConfig) -> Vec<String> {
    let mut session = engine.spawn_session(SessionConfig {
        agent,
        ..SessionConfig::bob()
    });
    let quiz = QuizBank::from_world(session.world());
    let conclusions = session.world().conclusions();
    let agent = &mut session.agent;
    agent.train();
    let run = evaluate_agent(agent, &quiz, &conclusions);
    vec![
        label.to_string(),
        format!(
            "{}/{}",
            run.consistency.consistent_count(),
            run.consistency.total()
        ),
        format!("{:.1}", run.consistency.mean_confidence()),
        run.total_learning_rounds().to_string(),
        run.total_searches().to_string(),
        agent.memory().len().to_string(),
    ]
}

fn main() {
    print!(
        "{}",
        banner(
            "A1",
            "architecture ablations",
            "(no paper counterpart — validates the design choices DESIGN.md calls out)"
        )
    );

    let engine = Engine::new();
    let base = AgentConfig::default();
    let mut no_diversity = base;
    no_diversity.memory.weights.diversity = 0.0;
    let rows = vec![
        run_variant(&engine, "full architecture", base),
        run_variant(
            &engine,
            "retrieval: no diversity (paper-faithful)",
            no_diversity,
        ),
        run_variant(
            &engine,
            "memory: relevance-only",
            AgentConfig {
                memory: StoreConfig {
                    weights: RetrievalWeights::relevance_only(),
                    ..StoreConfig::default()
                },
                ..base
            },
        ),
        run_variant(
            &engine,
            "query expansion OFF (question-only retrieval)",
            AgentConfig {
                query_expansion: false,
                ..base
            },
        ),
    ];
    println!(
        "{}",
        table(
            &[
                "variant",
                "consistent",
                "mean-conf",
                "rounds",
                "searches",
                "memory"
            ],
            &rows
        )
    );
}
