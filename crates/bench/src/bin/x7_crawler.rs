//! X7 — the integrated crawler (extension; §5 "Limitations of
//! Auto-GPT": "We plan to develop an integrated online crawler for
//! Auto-GPT to fetch and analyze diverse resources with a unified
//! format").
//!
//! With crawling enabled, every fetched page's "Related:" links are
//! followed one level deep. We train Bob both ways and compare: what
//! one training run learns (entries, source diversity), what it costs
//! (fetches, virtual time), and how it changes the flagship question's
//! starting point.

use ira::evalkit::report::{banner, table};
use ira::prelude::*;

const QUESTION: &str = "Which is more vulnerable to solar activity? The fiber optic cable \
                        that connects Brazil to Europe or the one that connects the US to \
                        Europe?";

fn main() {
    print!(
        "{}",
        banner(
            "X7",
            "crawler extension on vs off",
            "(extension) following Related links broadens one run's knowledge at extra \
             fetch cost"
        )
    );

    let engine = Engine::new();
    let mut rows = Vec::new();
    for crawl_links in [0usize, 1, 2] {
        let agent = AgentConfig {
            autogpt: AutoGptConfig {
                crawl_links,
                ..AutoGptConfig::default()
            },
            ..AgentConfig::default()
        };
        let mut bob = engine
            .spawn_session(SessionConfig {
                agent,
                ..SessionConfig::bob()
            })
            .agent;
        let report = bob.train();
        let sources = bob.memory().source_histogram().len();
        let trajectory = bob.self_learn(QUESTION);
        rows.push(vec![
            crawl_links.to_string(),
            report.total_fetches().to_string(),
            report.memory_entries.to_string(),
            sources.to_string(),
            format!("{:.1}", report.virtual_elapsed_us as f64 / 1e6),
            trajectory
                .initial_confidence()
                .map(|c| c.to_string())
                .unwrap_or_default(),
            trajectory
                .final_confidence()
                .map(|c| c.to_string())
                .unwrap_or_default(),
            trajectory.learning_rounds().to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "crawl-links",
                "fetches",
                "entries",
                "source-kinds",
                "train-virt-s",
                "conf-0",
                "conf-final",
                "rounds"
            ],
            &rows
        )
    );
    println!(
        "shape: crawling buys broader initial knowledge (more entries, sometimes a higher \
         starting confidence) at proportional fetch and time cost — the trade-off the \
         paper's planned crawler would face."
    );
}
