//! A different incident, the same architecture: agent Alice
//! investigates large-scale outage risk concentrated in Internet
//! infrastructure — the incident class the paper motivates with the
//! 2021 Facebook DNS/BGP outage (§2).
//!
//! The point of this example is generality: nothing in the agent stack
//! is storm-specific. Alice gets different goals, learns different
//! parts of the same web, and answers infrastructure questions.
//!
//! ```sh
//! cargo run -p ira-bench --example outage_facebook_dns
//! ```

use ira::prelude::*;

fn main() {
    let mut alice = Engine::new()
        .spawn_session(SessionConfig {
            role: RoleDefinition::outage_analyst(),
            llm_seed: 0xA11CE,
            ..SessionConfig::bob()
        })
        .agent;
    println!("{}", alice.role);

    let report = alice.train();
    println!(
        "trained: {} searches, {} fetches, {} entries\n",
        report.total_searches(),
        report.total_fetches(),
        report.memory_entries
    );

    let questions = [
        "What is the large-scale connectivity impact of a Carrington-class solar superstorm \
         on the Internet?",
        "Are submarine cables or terrestrial fiber links more at risk during a solar \
         superstorm?",
        "Which component of a submarine cable system is most at risk during a geomagnetic \
         storm?",
    ];

    for q in questions {
        let trajectory = alice.self_learn(q);
        let answer = alice.ask(q);
        println!("Q: {q}");
        println!(
            "A (confidence {}/10, {} self-learning rounds):\n{}\n",
            answer.confidence,
            trajectory.learning_rounds(),
            answer.text
        );
    }

    println!(
        "memory now holds {} entries across sources: {:?}",
        alice.memory().len(),
        alice.memory().source_histogram()
    );
}
