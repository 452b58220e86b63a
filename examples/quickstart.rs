//! Quickstart: build the simulated world, create agent Bob, train him,
//! and watch one question go from a hedge to a confident answer.
//!
//! ```sh
//! cargo run -p ira-bench --example quickstart
//! ```

use ira::prelude::*;

fn main() {
    // 1. One session: the environment (ground-truth world model ->
    //    synthetic web corpus -> simulated network serving it) plus
    //    the agent living in it.
    let mut session = Engine::new().spawn_session(SessionConfig::bob());
    let env = &session.env;
    println!(
        "environment up: {} documents on {} virtual hosts\n",
        env.corpus.len(),
        env.client.network().host_names().len()
    );

    // 2. Agent Bob, defined exactly as in the paper: a role and three
    //    initial goals.
    let bob = &mut session.agent;
    println!("{}", bob.role);

    // 3. Phase 1 — autonomous training: Bob plans each goal, searches
    //    the web, and memorises what he reads.
    let report = bob.train();
    println!(
        "trained: {} searches, {} pages fetched, {} knowledge entries memorised\n",
        report.total_searches(),
        report.total_fetches(),
        report.memory_entries
    );

    // 4. Phase 2 — knowledge testing and self-learning on the paper's
    //    flagship question.
    let question = "Which is more vulnerable to solar activity? The fiber optic cable that \
                    connects Brazil to Europe or the one that connects the US to Europe?";
    println!("Q: {question}\n");

    let before = bob.ask(question);
    println!(
        "before self-learning (confidence {}/10):\n{}\n",
        before.confidence, before.text
    );

    let trajectory = bob.self_learn(question);
    let after = bob.ask(question);
    println!(
        "after {} self-learning round(s) (confidence {}/10):\n{}\n",
        trajectory.learning_rounds(),
        after.confidence,
        after.text
    );

    // 5. Persist Bob's knowledge the way the paper does.
    let path = std::env::temp_dir().join("bob-knowledge.json");
    bob.save_knowledge(&path).expect("save knowledge.json");
    println!("knowledge saved to {}", path.display());
}
