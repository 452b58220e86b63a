//! E4 — §4.3 "Planning Ability": the shutdown strategy.
//!
//! Paper claim: asked for a "shutdown" strategy, the agent's plan is
//! "highly consistent" with the human-expert plan on *Predictive
//! Shutdown* and *Redundancy Utilization*, and also proposes Phased
//! Shutdown, Data Preservation, and Gradual Reboot.

use ira::evalkit::plancov::{PlanCoverage, CORE_COMPONENTS, REFERENCE_COMPONENTS};
use ira::evalkit::report::banner;
use ira::prelude::*;

fn main() {
    print!(
        "{}",
        banner(
            "E4",
            "response-plan component coverage",
            "Predictive Shutdown + Redundancy Utilization highly consistent; 5 reference \
             components overall"
        )
    );

    let mut bob = Engine::new().spawn_session(SessionConfig::bob()).agent;
    bob.train();

    let plan = bob.respond_plan();
    println!("agent {} suggests:\n{}\n", bob.role.name, plan.text);
    println!("plan confidence: {}/10\n", plan.confidence);

    let coverage = PlanCoverage::of(&plan.text);
    println!("reference components ({}):", REFERENCE_COMPONENTS.len());
    for c in REFERENCE_COMPONENTS {
        let mark = if coverage.present.iter().any(|p| p == c) {
            "present"
        } else {
            "MISSING"
        };
        println!("  {c:<24} {mark}");
    }
    println!(
        "\ncoverage: {:.0}% of reference components; core two ({}) present: {}",
        coverage.coverage() * 100.0,
        CORE_COMPONENTS.join(" + "),
        coverage.core_two_present()
    );
}
