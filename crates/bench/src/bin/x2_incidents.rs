//! X2 — generality beyond solar storms (extension; §2's motivation).
//!
//! The paper's vision is an agent that can "investigate all types of
//! Internet disruption" — it motivates configuration errors (the 2021
//! Facebook BGP/DNS outage), natural disasters (the 2004 Indian Ocean
//! tsunami), and black-swan events (COVID-19). This experiment trains
//! Alice, the outage analyst, with her own role definition and runs her
//! against the incident quiz derived from the incident catalog —
//! demonstrating that nothing in the architecture is storm-specific.

use ira::evalkit::report::{banner, table};
use ira::prelude::*;
use ira::simllm::Llm;

fn main() {
    print!(
        "{}",
        banner(
            "X2",
            "incident investigation beyond solar storms",
            "(extension) the same architecture investigates the §2 incident classes: config \
             errors, natural disasters, black swans"
        )
    );

    // The canonical environment, assembled through the scenario API:
    // the solar-superstorm spec reproduces the default corpus
    // byte-for-byte (pinned by webcorpus tests).
    let mut session = Engine::new().spawn_session(SessionConfig {
        role: RoleDefinition::outage_analyst(),
        llm_seed: 0xA11CE,
        ..SessionConfig::for_scenario(&ScenarioSpec::solar_superstorm())
            .expect("canonical scenario is registered")
    });
    let quiz = QuizBank::incidents(&session.world().incidents);
    let conclusions = session.world().conclusions();
    let alice = &mut session.agent;
    let training = alice.train();
    println!(
        "Alice trained: {} searches, {} fetches, {} entries\n",
        training.total_searches(),
        training.total_fetches(),
        training.memory_entries
    );

    let run = evaluate_agent(alice, &quiz, &conclusions);
    let rows: Vec<Vec<String>> = run
        .consistency
        .per_item
        .iter()
        .map(|r| {
            vec![
                r.id.clone(),
                r.verdict.clone().unwrap_or_else(|| "(hedge)".into()),
                r.confidence.to_string(),
                if r.matched.consistent { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["incident", "Alice's verdict", "conf", "consistent"],
            &rows
        )
    );
    println!("{}", run.consistency.summary());

    let baseline = evaluate_baseline(&Llm::gpt4(404), &quiz);
    println!("{}", baseline.summary());

    println!("\ntrajectories (confidence series per incident):");
    for (item, t) in quiz.iter().zip(&run.trajectories) {
        let series: Vec<String> = t.confidence_series().iter().map(u8::to_string).collect();
        println!("  {:<26} {}", item.id, series.join(" -> "));
    }
}
