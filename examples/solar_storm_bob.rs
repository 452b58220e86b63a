//! The full §4 narrative: agent Bob investigates solar superstorms.
//!
//! Shows all the layers the paper describes — the Auto-GPT loop with
//! its plan and the trace of what it did, the knowledge memory, the
//! quiz against the expert conclusions, the self-learning trajectories,
//! the response plan, and the provenance audit.
//!
//! ```sh
//! cargo run -p ira-bench --example solar_storm_bob
//! ```

use std::sync::Arc;

use ira::autogpt::AutoGpt;
use ira::evalkit::plancov::PlanCoverage;
use ira::obs::ObsHandle;
use ira::prelude::*;
use ira::simllm::Llm;

fn main() {
    let mut session = Engine::new().spawn_session(SessionConfig::bob());

    // --- A raw Auto-GPT loop, to show what one goal pursuit looks like.
    println!("## One goal through the raw Auto-GPT loop\n");
    let llm = Llm::gpt4(7);
    let memory = KnowledgeStore::with_defaults();
    let mut loop_ = AutoGpt::new(&session.env.client, &llm, &memory, 0, Budget::standard());
    let trace = Arc::new(JsonlCollector::new());
    loop_.attach_observer_handle(ObsHandle::new(trace.clone(), 0));
    let goal = RoleDefinition::bob().goals[0].clone();
    let report = loop_.run_goal(&goal);
    let plan = llm.plan_goal(&goal);
    println!("THOUGHTS: {}\nPLAN:", plan.thoughts);
    for step in &plan.steps {
        println!("- {}", step.description);
    }
    println!("\nFirst points of the loop's trace:");
    for ev in trace.events().iter().take(8) {
        println!("  {} {}", ev.metric_key(), ev.detail);
    }
    println!();
    println!(
        "(goal report: {} searches, {} fetches, {} memorised)\n",
        report.searches, report.fetches, report.memorized
    );

    // --- The full agent, trained and quizzed.
    println!("## Agent Bob, trained and quizzed against the expert conclusions\n");
    let quiz = QuizBank::from_world(session.world());
    let conclusions = session.world().conclusions();
    let bob = &mut session.agent;
    bob.train();
    let run = evaluate_agent(bob, &quiz, &conclusions);

    for (item, result) in quiz.iter().zip(&run.consistency.per_item) {
        println!(
            "[{}] {:?}\n    Q: {}\n    expert: {}\n    Bob:    {} (confidence {}/10)\n",
            if result.matched.consistent {
                "ok"
            } else {
                "XX"
            },
            result.id,
            item.question,
            item.expected_answer,
            result.verdict.as_deref().unwrap_or("(hedged)"),
            result.confidence,
        );
    }
    println!("{}\n", run.consistency.summary());

    // --- Self-learning trajectories for the two paper examples.
    println!("## Confidence trajectories\n");
    for t in run.trajectories.iter().take(2) {
        println!(
            "  {:?} -> {:?}  ({} rounds, {} searches)",
            t.initial_confidence(),
            t.final_confidence(),
            t.learning_rounds(),
            t.total_searches()
        );
    }

    // --- The response plan (§4.3).
    println!("\n## Response planning\n");
    let plan = bob.respond_plan();
    println!("{}\n", plan.text);
    let coverage = PlanCoverage::of(&plan.text);
    println!(
        "plan covers {:.0}% of the expert reference components\n",
        coverage.coverage() * 100.0
    );

    // --- Provenance (§4.2 "verify the sources of the knowledge").
    println!("## Provenance audit\n");
    let p = &run.provenance;
    println!(
        "{} entries from {} distinct sources; answer-key leaks: {}; audit {}",
        p.entries,
        p.distinct_sources,
        p.answer_key_leaks,
        if p.clean() { "CLEAN" } else { "DIRTY" }
    );
}
