//! E1 — §4.2 "Research Ability": conclusion consistency.
//!
//! Paper claim: agent Bob "reached a high level of consistency in 7 out
//! of 8 conclusions" of the SIGCOMM '21 solar-superstorm study, while
//! the raw model answers vaguely. This binary trains Bob, runs the full
//! quiz with self-learning, scores both Bob and the ungrounded
//! baseline, and prints the per-conclusion table plus the provenance
//! audit (§4.2's "verify the sources of the knowledge").

use ira::evalkit::report::{banner, table};
use ira::prelude::*;

fn main() {
    print!(
        "{}",
        banner(
            "E1",
            "conclusion consistency, agent vs ungrounded baseline",
            "agent consistent on 7 of 8 conclusions; raw LLM hedges"
        )
    );

    let (agent_run, baseline) = full_paper_run(&Engine::new());

    let rows: Vec<Vec<String>> = agent_run
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
            &["conclusion", "agent verdict", "conf", "consistent"],
            &rows
        )
    );

    println!("{}", agent_run.consistency.summary());
    println!("{}", baseline.summary());
    println!(
        "baseline mean confidence {:.1} vs agent {:.1}",
        baseline.mean_confidence(),
        agent_run.consistency.mean_confidence()
    );
    println!(
        "self-learning: {} rounds, {} searches across the quiz",
        agent_run.total_learning_rounds(),
        agent_run.total_searches()
    );

    let p = &agent_run.provenance;
    println!(
        "\nprovenance audit: {} entries from {} distinct sources, {} answer-key leaks -> {}",
        p.entries,
        p.distinct_sources,
        p.answer_key_leaks,
        if p.clean() { "CLEAN" } else { "DIRTY" }
    );
    println!("sources by kind:");
    for (kind, count) in &p.source_histogram {
        println!("  {kind:>12}: {count}");
    }
}
