//! E3 — §4.2 conclusion 2: the data-center comparison trajectory.
//!
//! Paper claim: confidence 3/10 pre-learning, ~6/10 after one round of
//! self-learning about data-center locations; verdict becomes "Google's
//! data centers are more globally dispersed … Facebook more
//! vulnerable".

use ira::evalkit::report::banner;
use ira::evalkit::trajectory::{render_csv, render_table};
use ira::prelude::*;

const QUESTION: &str = "Whose datacenter is more vulnerable to a solar superstorm, Google's \
                        or Facebook's?";

fn main() {
    print!(
        "{}",
        banner(
            "E3",
            "data-center question confidence trajectory",
            "confidence 3 pre-learning -> ~6 after one round; Facebook judged more vulnerable"
        )
    );

    let mut bob = Engine::new().spawn_session(SessionConfig::bob()).agent;
    bob.train();

    let trajectory = bob.self_learn(QUESTION);
    println!("{}", render_table(&trajectory));

    let last = trajectory.rounds.last().expect("at least round 0");
    println!("final answer:\n{}\n", last.answer_text);
    println!("csv:\n{}", render_csv(&trajectory));
}
