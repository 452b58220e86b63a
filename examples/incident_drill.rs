//! Incident drill: replay the 2021 Facebook outage on the routing
//! substrate, let agent Alice investigate the incident class, and
//! archive a markdown report — the workflow a network-operations team
//! would actually run with this library.
//!
//! ```sh
//! cargo run -p ira-bench --example incident_drill
//! ```

use ira::evalkit::report::markdown_report;
use ira::prelude::*;
use ira::simllm::Llm;
use ira::worldmodel::bgp::{AsKind, RoutingSystem};

fn main() {
    // --- Phase 1: the incident, mechanically.
    println!("## Phase 1 — replay the outage on the routing substrate\n");
    let mut routing = RoutingSystem::standard();
    let edges = routing
        .graph
        .ases()
        .filter(|n| n.kind == AsKind::Edge)
        .count();
    println!(
        "{} ASes, {} edge networks; facebook.com availability {:.0}%",
        routing.graph.len(),
        edges,
        routing.availability("facebook.com") * 100.0
    );
    let (before, during, after) = routing.facebook_outage_replay();
    println!(
        "config error replay: {:.0}% -> {:.0}% -> {:.0}% (withdraw DNS prefixes, restore)\n",
        before * 100.0,
        during * 100.0,
        after * 100.0
    );

    // --- Phase 2: the investigation.
    println!("## Phase 2 — agent Alice investigates the incident class\n");
    let mut session = Engine::new().spawn_session(SessionConfig {
        role: RoleDefinition::outage_analyst(),
        llm_seed: 0xA11CE,
        ..SessionConfig::bob()
    });
    let quiz = QuizBank::incidents(&session.world().incidents);
    let conclusions = session.world().conclusions();
    let alice = &mut session.agent;
    alice.train();
    let run = evaluate_agent(alice, &quiz, &conclusions);
    println!("{}", run.consistency.summary());

    let (answer, citations) = alice.ask_cited("What caused the 2021 Facebook outage?");
    println!("\nQ: What caused the 2021 Facebook outage?");
    println!("A ({}/10): {}", answer.confidence, answer.text);
    println!("grounded in {} sources", citations.len());

    // --- Phase 3: the archive.
    println!("\n## Phase 3 — archive the report\n");
    let baseline = evaluate_baseline(&Llm::gpt4(404), &quiz);
    let md = markdown_report("Incident drill: configuration-error class", &run, &baseline);
    let path = std::env::temp_dir().join("incident-drill-report.md");
    std::fs::write(&path, &md).expect("write report");
    println!(
        "report written to {} ({} lines)",
        path.display(),
        md.lines().count()
    );
}
