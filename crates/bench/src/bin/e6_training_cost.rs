//! E6 — §4.2 "Bob learns above topics in the order of minutes".
//!
//! Paper claim: the agent acquires in minutes what takes human
//! researchers much longer, and the cost scales gracefully. We scale
//! the distractor load of the web corpus (1× to 8×) and report, per
//! corpus size, training effort: searches, pages fetched, entries
//! memorised, LLM tokens, and virtual ("online") time. Each corpus size
//! is an independent session; `--threads N` runs them on worker
//! threads without changing the report.

use ira::evalkit::report::{banner, table};
use ira::prelude::*;
use ira_bench::{print_timing, threads_from_args};

fn main() {
    let threads = threads_from_args();
    print!(
        "{}",
        banner(
            "E6",
            "training cost vs corpus size",
            "agent learns the topic in the order of (virtual) minutes; cost scales mildly \
             with corpus size"
        )
    );

    let start = std::time::Instant::now();
    let engine = Engine::new();
    let rows = sweep(
        vec![75usize, 150, 300, 600, 1200],
        threads,
        |_, distractors| {
            let mut session = engine.spawn_session(SessionConfig {
                corpus: CorpusConfig {
                    seed: 0xC0FFEE,
                    distractor_count: distractors,
                    ..CorpusConfig::default()
                },
                ..SessionConfig::bob()
            });
            let report = session.agent.train();
            // The paper's "learns … in the order of minutes" covers the
            // whole investigation, so include the quiz self-learning too.
            let quiz = QuizBank::from_world(session.world());
            let investigate_start = session.now_us();
            for item in quiz.iter() {
                let _ = session.agent.self_learn(&item.question);
            }
            let investigate_us = session.now_us() - investigate_start;
            let llm = session.agent.llm_stats();
            vec![
                session.env.corpus.len().to_string(),
                report.total_searches().to_string(),
                report.total_fetches().to_string(),
                report.total_memorized().to_string(),
                (llm.prompt_tokens + llm.completion_tokens).to_string(),
                format!("{:.1}", report.virtual_elapsed_us as f64 / 1e6),
                format!(
                    "{:.1}",
                    (report.virtual_elapsed_us + investigate_us) as f64 / 1e6 / 60.0
                ),
            ]
        },
    );
    println!(
        "{}",
        table(
            &[
                "corpus-docs",
                "searches",
                "fetches",
                "memorized",
                "llm-tokens",
                "train-virt-s",
                "total-virt-min",
            ],
            &rows
        )
    );
    println!(
        "total-virt-min is the full investigation (training + 8-question quiz with \
         self-learning) as the agent would experience it against a real network and model \
         API: the paper's \"order of minutes\", not the weeks of a human literature survey."
    );
    print_timing(threads, start.elapsed(), engine.corpus_builds());
}
