//! E2 — §4.2 conclusion 1: the cable-vulnerability confidence
//! trajectory.
//!
//! Paper claim: Bob rates his confidence 3/10 before self-learning
//! (general knowledge only, no specific cable routes) and 8–9/10 after
//! one round, flipping from a hedge to "the US–Europe cable, because
//! higher latitudes".

use ira::evalkit::report::banner;
use ira::evalkit::trajectory::{render_csv, render_table};
use ira::prelude::*;

const QUESTION: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                        that connects Brazil to Europe or the one that connects the US to \
                        Europe?";

fn main() {
    print!(
        "{}",
        banner(
            "E2",
            "cable question confidence trajectory",
            "confidence 3 before self-learning -> 8-9 after one round; verdict flips to the \
             US-Europe cable"
        )
    );

    let mut bob = Engine::new().spawn_session(SessionConfig::bob()).agent;
    let training = bob.train();
    println!(
        "trained on {} goals: {} searches, {} pages, {} memorized\n",
        training.per_goal.len(),
        training.total_searches(),
        training.total_fetches(),
        training.total_memorized()
    );

    let trajectory = bob.self_learn(QUESTION);
    println!("{}", render_table(&trajectory));

    let last = trajectory.rounds.last().expect("at least round 0");
    println!("final answer:\n{}\n", last.answer_text);
    println!("csv:\n{}", render_csv(&trajectory));
}
