//! P1 — retrieval & grounding hot-path op-count gate.
//!
//! Runs one train + quiz-sweep workload on the default hot path: corpus
//! host+path lookups served by the `(host, path)` index, plus the
//! model's per-chunk extraction cache and grounded-answer cache. What
//! it reports is *work*: deterministic virtual-op counts (characters
//! normalized, absorb passes, corpus lookups). The op counts are
//! exactly reproducible, so `scripts/check-results.sh` pins the written
//! JSON byte for byte — a perf gate that cannot flake.
//!
//! Usage:
//!   p1_hotpath                 full sweep, writes results/BENCH_hotpath.json
//!   p1_hotpath --smoke         reduced sweep, writes results/BENCH_hotpath_smoke.json
//!
//! Stdout is the deterministic report; wall-clock timing goes to
//! stderr, matching the other sweep binaries.

use ira::evalkit::report::{banner, table};
use ira::prelude::*;
use ira::simllm::lexicon::ops;
use ira::webcorpus::index::opstats;
use serde::Serialize;

/// Deterministic work counters. Everything in here must be
/// byte-reproducible run to run.
#[derive(Debug, Clone, Copy, Serialize)]
struct Ops {
    llm: ops::OpSnapshot,
    lookups: opstats::LookupSnapshot,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    bench: String,
    mode: String,
    quiz_items: usize,
    answer_passes: usize,
    ops: Ops,
}

/// One full workload: spawn Bob's session, train, self-learn the first
/// `quiz_take` quiz questions, then `passes` answer-only sweeps.
fn run(mode: &str, quiz_take: usize, passes: usize) -> Report {
    ops::reset();
    opstats::reset();

    let mut session = Engine::new().spawn_session(SessionConfig::bob());
    let quiz = QuizBank::from_world(session.world());
    let bob = &mut session.agent;
    bob.train();

    let items: Vec<_> = quiz.iter().take(quiz_take).collect();
    for item in &items {
        let _ = bob.self_learn(&item.question);
    }
    for _ in 0..passes {
        for item in &items {
            let _ = bob.ask(&item.question);
        }
    }

    Report {
        bench: "p1_hotpath".to_string(),
        mode: mode.to_string(),
        quiz_items: items.len(),
        answer_passes: passes,
        ops: Ops {
            llm: ops::snapshot(),
            lookups: opstats::snapshot(),
        },
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (mode, quiz_take, passes) = if smoke {
        ("smoke", 4, 2)
    } else {
        ("full", usize::MAX, 2)
    };

    print!(
        "{}",
        banner(
            "P1",
            "retrieval & grounding hot-path baseline",
            "long-horizon agents live or die by retrieval throughput; the retrieve-and-ground \
             loop dominates iterative research agents"
        )
    );
    println!("mode: {mode}\n");

    let start = std::time::Instant::now();
    let report = run(mode, quiz_take, passes);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let p = &report.ops;
    println!(
        "{}",
        table(
            &[
                "path",
                "tokenize-chars",
                "absorbs",
                "classifies",
                "extract h/m",
                "answer h/m",
                "lookups",
            ],
            &[vec![
                "index + caches".to_string(),
                p.llm.tokenize_chars.to_string(),
                p.llm.absorb_calls.to_string(),
                p.llm.classify_calls.to_string(),
                format!("{}/{}", p.llm.extract_hits, p.llm.extract_misses),
                format!("{}/{}", p.llm.answer_hits, p.llm.answer_misses),
                p.lookups.lookup_calls.to_string(),
            ]],
        )
    );

    eprintln!("[timing] wall={wall_ms:.0}ms");

    let out = if smoke {
        "results/BENCH_hotpath_smoke.json"
    } else {
        "results/BENCH_hotpath.json"
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");
}
