//! P1 — retrieval & grounding hot-path op-count gate.
//!
//! Runs one train + quiz-sweep workload on the default hot path: corpus
//! host+path lookups served by the `(host, path)` index, plus the
//! model's per-chunk extraction cache and grounded-answer cache. What
//! it reports is *work*: deterministic virtual-op counts (characters
//! normalized, absorb passes, documents scanned) and host wall time.
//! The op counts are exactly reproducible, so `--check <baseline.json>`
//! enforces them with strict equality in CI — a perf gate that cannot
//! flake.
//!
//! Usage:
//!   p1_hotpath                 full sweep, writes results/BENCH_hotpath.json
//!   p1_hotpath --smoke         reduced sweep, writes results/BENCH_hotpath_smoke.json
//!   p1_hotpath --smoke --check results/BENCH_hotpath_smoke.json
//!                              re-run and fail unless op counts match the
//!                              checked-in baseline exactly
//!
//! Stdout is the deterministic report; wall-clock timing goes to
//! stderr, matching the other sweep binaries.

use ira::evalkit::report::{banner, table};
use ira::prelude::*;
use ira::simllm::lexicon::ops;
use ira::webcorpus::index::opstats;
use serde::{Deserialize, Serialize};

/// Deterministic work counters. Everything in here must be
/// byte-reproducible run to run — the CI check is `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Ops {
    llm: ops::OpSnapshot,
    lookups: opstats::LookupSnapshot,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    bench: String,
    mode: String,
    quiz_items: usize,
    answer_passes: usize,
    ops: Ops,
    /// Informational only — never part of the `--check` comparison.
    wall_ms: f64,
}

/// One full workload: spawn Bob's session, train, self-learn the first
/// `quiz_take` quiz questions, then `passes` answer-only sweeps.
fn run(mode: &str, quiz_take: usize, passes: usize) -> Report {
    ops::reset();
    opstats::reset();
    let start = std::time::Instant::now();

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
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

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

    let report = run(mode, quiz_take, passes);
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
                "docs-scanned",
            ],
            &[vec![
                "index + caches".to_string(),
                p.llm.tokenize_chars.to_string(),
                p.llm.absorb_calls.to_string(),
                p.llm.classify_calls.to_string(),
                format!("{}/{}", p.llm.extract_hits, p.llm.extract_misses),
                format!("{}/{}", p.llm.answer_hits, p.llm.answer_misses),
                p.lookups.lookup_calls.to_string(),
                p.lookups.docs_scanned.to_string(),
            ]],
        )
    );

    eprintln!("[timing] wall={:.0}ms", report.wall_ms);

    if let Some(path) = check_path {
        let baseline: Report = serde_json::from_str(
            &std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}")),
        )
        .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let mut bad = Vec::new();
        if baseline.mode != report.mode {
            bad.push(format!(
                "mode: baseline {} vs run {}",
                baseline.mode, report.mode
            ));
        }
        if baseline.quiz_items != report.quiz_items
            || baseline.answer_passes != report.answer_passes
        {
            bad.push("workload shape differs from baseline".to_string());
        }
        if baseline.ops != report.ops {
            bad.push(format!(
                "ops drifted:\n  baseline: {:?}\n  run:      {:?}",
                baseline.ops, report.ops
            ));
        }
        if bad.is_empty() {
            println!("\ncheck vs {path}: op counts match the baseline exactly");
        } else {
            eprintln!("op-count check vs {path} FAILED:");
            for b in &bad {
                eprintln!("  {b}");
            }
            std::process::exit(1);
        }
    } else {
        let out = if smoke {
            "results/BENCH_hotpath_smoke.json"
        } else {
            "results/BENCH_hotpath.json"
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("\nwrote {out}");
    }
}
