//! Threshold lab: how the confidence threshold (§3 step 4) trades
//! self-learning effort against answer quality, on the two questions
//! the paper walks through.
//!
//! ```sh
//! cargo run -p ira-bench --example threshold_lab
//! ```

use ira::prelude::*;

const QUESTIONS: [&str; 2] = [
    "Which is more vulnerable to solar activity? The fiber optic cable that connects Brazil \
     to Europe or the one that connects the US to Europe?",
    "Whose datacenter is more vulnerable to a solar superstorm, Google's or Facebook's?",
];

fn main() {
    println!("threshold  question  conf-series        rounds  searches  committed");
    println!("--------------------------------------------------------------------");
    let engine = Engine::new();
    for threshold in [3u8, 5, 7, 9] {
        for (qi, question) in QUESTIONS.iter().enumerate() {
            let agent = AgentConfig {
                confidence_threshold: threshold,
                ..AgentConfig::default()
            };
            let mut bob = engine
                .spawn_session(SessionConfig {
                    agent,
                    ..SessionConfig::bob()
                })
                .agent;
            bob.train();
            let t = bob.self_learn(question);
            let answer = bob.ask(question);
            let series: Vec<String> = t.confidence_series().iter().map(u8::to_string).collect();
            println!(
                "{:>9}  Q{}        {:<17}  {:>6}  {:>8}  {}",
                threshold,
                qi + 1,
                series.join(" -> "),
                t.learning_rounds(),
                t.total_searches(),
                answer.verdict.as_deref().unwrap_or("(hedged)")
            );
        }
    }
    println!(
        "\nthe paper's observation: raising the threshold lengthens the iterative \
         self-learning process but produces higher-quality answers."
    );
}
