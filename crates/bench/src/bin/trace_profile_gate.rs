//! Trace-profile regression gate over the E5 workload.
//!
//! Re-runs the E5 confidence-threshold sweep (thresholds 3/5/7/9) with
//! the trace collector attached, folds the recorded trace into an
//! [`ira_obs::Profile`], and merges in the run-level
//! `lexicon`/`opstats` virtual-op counters. Every number in the profile
//! is virtual — span ids, virtual-clock durations, op counts — so the
//! profile JSON is byte-identical across runs *and thread counts*, and
//! `scripts/check-results.sh` pins the checked-in copy byte for byte:
//! any drift in where the agent spends virtual time is a hard failure,
//! speedups included (a speedup you didn't make is a behaviour change
//! you didn't intend).
//!
//! Usage:
//!
//! ```text
//!   trace_profile_gate                      run, write results/PROFILE_e5_baseline.json
//!   trace_profile_gate --threads N          fan the sweep out (profile must not change)
//!   trace_profile_gate --trace-out <path>   also write the raw JSONL trace
//! ```
//!
//! Stdout is the deterministic summary; timing goes to stderr.

use ira::evalkit::report::{banner, table};
use ira::obs::{fold_trace, ObsHandle, Profile};
use ira::prelude::*;
use ira::simllm::lexicon::ops;
use ira::webcorpus::index::opstats;
use ira_bench::{print_timing, threads_from_args};
use std::sync::Arc;

/// Run the E5 sweep traced and fold the trace. Returns the profile and
/// the sweep's quality rows (sanity: instrumentation must not change
/// verdict quality).
fn run_profiled(threads: usize) -> (Profile, Vec<Vec<String>>) {
    ops::reset();
    opstats::reset();

    let engine = Engine::new();
    let sink = Arc::new(JsonlCollector::new());
    let rows = sweep(vec![3u8, 5, 7, 9], threads, |i, threshold| {
        let config = AgentConfig {
            confidence_threshold: threshold,
            ..AgentConfig::default()
        };
        let mut session = engine.spawn_session_with_handle(
            SessionConfig {
                agent: config,
                ..SessionConfig::bob()
            },
            ObsHandle::new(Arc::clone(&sink) as SharedCollector, i as u32),
        );
        let quiz = QuizBank::from_world(session.world());
        let conclusions = session.world().conclusions();
        session.agent.train();
        let run = evaluate_agent(&mut session.agent, &quiz, &conclusions);
        vec![
            threshold.to_string(),
            run.total_learning_rounds().to_string(),
            format!(
                "{}/{}",
                run.consistency.consistent_count(),
                run.consistency.total()
            ),
        ]
    });

    let events = sink.events();
    let mut profile = fold_trace(&events);
    // The lexicon/opstats counters are process-global sums of
    // commutative atomic adds over an identical total workload, so the
    // totals are thread-count invariant and safe to pin at zero
    // tolerance alongside the trace-derived numbers.
    let llm = ops::snapshot();
    let lookups = opstats::snapshot();
    profile.merge_run_ops([
        ("lexicon.tokenize_chars".to_string(), llm.tokenize_chars),
        ("lexicon.absorb_calls".to_string(), llm.absorb_calls),
        ("lexicon.classify_calls".to_string(), llm.classify_calls),
        ("lexicon.extract_hits".to_string(), llm.extract_hits),
        ("lexicon.extract_misses".to_string(), llm.extract_misses),
        ("lexicon.answer_hits".to_string(), llm.answer_hits),
        ("lexicon.answer_misses".to_string(), llm.answer_misses),
        ("index.lookup_calls".to_string(), lookups.lookup_calls),
    ]);

    if let Some(path) = trace_out() {
        sink.write_to(std::path::Path::new(&path))
            .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
        eprintln!("[trace] wrote {path}");
    }
    (profile, rows)
}

fn trace_out() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let threads = threads_from_args();

    print!(
        "{}",
        banner(
            "GATE",
            "trace-profile regression gate (E5 workload)",
            "virtual-time profiles are exactly reproducible, so perf regressions are \
             caught by equality, not statistics"
        )
    );

    let start = std::time::Instant::now();
    let (profile, rows) = run_profiled(threads);

    println!(
        "{}",
        table(&["threshold", "learn-rounds", "consistent"], &rows)
    );
    println!(
        "profiled {} events across {} sessions\n",
        profile.events,
        profile.sessions.len()
    );
    println!("hotspots:");
    for (key, agg) in profile.hotspots(8) {
        println!(
            "  {key:<28} count {:>6}  incl {:>10} µs  excl {:>10} µs",
            agg.count, agg.inclusive_us, agg.exclusive_us
        );
    }
    for sp in &profile.sessions {
        let path: Vec<&str> = sp.critical_path.iter().map(|s| s.key.as_str()).collect();
        println!(
            "session {} critical path: {}",
            sp.session,
            path.join(" -> ")
        );
    }

    let out = "results/PROFILE_e5_baseline.json";
    let json = serde_json::to_string_pretty(&profile).expect("serialize profile");
    std::fs::write(out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");

    print_timing(threads, start.elapsed(), 1);
}
