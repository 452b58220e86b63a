//! X4 — research-question generation (extension; §5 "Generating
//! high-quality research questions").
//!
//! A trained agent mines its own knowledge memory for entities and
//! proposes the questions its reasoning can express; each candidate is
//! appraised against the agent itself. High-novelty questions (the
//! agent has studied the area but cannot answer confidently) are the
//! research opportunities §5 envisions surfacing automatically.

use ira::core::questions;
use ira::evalkit::report::{banner, table};
use ira::prelude::*;

fn main() {
    print!(
        "{}",
        banner(
            "X4",
            "research-question generation and novelty appraisal",
            "(extension) the agent poses questions its corpus reading does not settle"
        )
    );

    let mut bob = Engine::new().spawn_session(SessionConfig::bob()).agent;
    bob.train();
    // Settle a couple of questions first so the appraisal has contrast
    // between "already studied" and "open".
    for q in [
        "Which is more vulnerable to solar activity? The fiber optic cable that connects \
         Brazil to Europe or the one that connects the US to Europe?",
        "Whose datacenter is more vulnerable to a solar superstorm, Google's or Facebook's?",
    ] {
        let _ = bob.self_learn(q);
    }

    let generated = questions::generate(&mut bob, 40);
    let rows: Vec<Vec<String>> = generated
        .iter()
        .map(|q| {
            vec![
                q.novelty.to_string(),
                q.confidence.to_string(),
                q.question.chars().take(100).collect(),
            ]
        })
        .collect();
    println!("{}", table(&["novelty", "conf", "question"], &rows));

    let open = generated.iter().filter(|q| q.novelty >= 5).count();
    let settled = generated.len() - open;
    println!(
        "{} candidate questions: {open} open research directions, {settled} already settled \
         by the agent's reading.",
        generated.len()
    );
}
