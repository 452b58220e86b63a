//! F1 — Figure 1: the two-stage pipeline split.
//!
//! Figure 1 of the paper separates the *knowledge retrieval stage*
//! (searching and reading the web) from the *reasoning stage* (asking
//! the model to answer/test). This binary runs a full train + quiz
//! cycle and reports how the agent's virtual time divides between the
//! stages — the empirical argument for the knowledge memory: both
//! stages wait on the outside world, so memorised knowledge must be
//! reused rather than re-fetched.

use ira::evalkit::report::{banner, table};
use ira::prelude::*;

fn main() {
    print!(
        "{}",
        banner(
            "F1",
            "pipeline stage timing (Figure 1)",
            "the agent's clock is spent waiting on the outside world: web retrieval latency \
             plus model-inference latency"
        )
    );

    let mut session = Engine::new().spawn_session(SessionConfig::bob());
    let quiz = QuizBank::from_world(session.world());
    let bob = &mut session.agent;
    bob.train();
    for item in quiz.iter() {
        let _ = bob.self_learn(&item.question);
    }

    let s = bob.stage_stats();
    let rows = vec![
        vec![
            "knowledge retrieval".to_string(),
            s.retrieval_ops.to_string(),
            format!("{:.2}", s.retrieval_virtual_us as f64 / 1e6),
        ],
        vec![
            "reasoning (model calls)".to_string(),
            s.reasoning_ops.to_string(),
            format!("{:.2}", s.reasoning_virtual_us as f64 / 1e6),
        ],
    ];
    println!("{}", table(&["stage", "ops", "virtual-s"], &rows));
    println!(
        "retrieval share of total agent time: {:.1}%  (rest is model inference)",
        s.retrieval_share() * 100.0
    );
    println!(
        "\nimplication (the paper's design point): both stages are external-I/O bound, so \
         answers must be served from the knowledge memory — re-retrieving and re-reading the \
         web on every question would multiply the agent's latency."
    );
}
