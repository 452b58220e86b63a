//! M1 — the scenario matrix: every registered incident scenario,
//! across tenant seeds and fault intensities, through the parallel
//! sweep runner.
//!
//! Each cell spawns a session whose corpus and quiz both follow one
//! [`ScenarioSpec`]: the scenario derives its ground-truth conclusions
//! from the world model and injects its own event documents into the
//! corpus, so the agent is graded against answers the simulation
//! actually produces. The canonical `solar-superstorm` cell at seed 0
//! reproduces the legacy paper run byte-for-byte (the corpus identity
//! is pinned by webcorpus tests; this binary pins the scores).
//!
//! Every cell is deterministic, so the whole report is a strict
//! equality baseline: `scripts/check-results.sh` re-runs the matrix and
//! fails on any byte that moved. `--threads N` fans cells out without
//! changing a byte of stdout (timing goes to stderr).
//!
//! Independently of the baseline comparison, every cell must clear the
//! per-scenario regression floor — nonzero consistent answers, learning
//! rounds, and searches — so the pre-ISSUE-9 failure mode (scenario
//! questions falling through to a no-learning path) can never silently
//! return behind a regenerated baseline.
//!
//! Usage:
//!   m1_scenario_matrix                 full matrix, writes results/BENCH_scenarios.json
//!   m1_scenario_matrix --smoke         one cell per scenario, writes
//!                                      results/BENCH_scenarios_smoke.json

use ira::evalkit::report::{banner, table};
use ira::prelude::*;
use ira_bench::{print_timing, threads_from_args};
use serde::Serialize;

/// Stride between tenant seeds on the network stream, mirroring the
/// serve layer's per-tenant perturbation scheme.
const NET_SEED_BASE: u64 = 0xBEEF;
const LLM_SEED_BASE: u64 = 0xB0B;
/// Fault-plan seed shared with X13 and the CLI's `--faults`.
const FAULT_SEED: u64 = 0xC4A0;

/// One (scenario, seed, faults) cell of the matrix.
#[derive(Debug, Clone, Serialize)]
struct Cell {
    scenario: String,
    seed: u64,
    faults: f64,
    quiz_items: usize,
    consistent: usize,
    mean_confidence: f64,
    learning_rounds: u32,
    searches: usize,
    memory_entries: usize,
    provenance_clean: bool,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    bench: String,
    mode: String,
    scenarios: Vec<String>,
    cells: Vec<Cell>,
}

fn run_cell(engine: &Engine, scenario: &str, seed: u64, faults: f64) -> Cell {
    let spec = ScenarioSpec::named(scenario);
    let mut config = SessionConfig::for_scenario(&spec).expect("registered scenario");
    config.net_seed = NET_SEED_BASE.wrapping_add(seed);
    config.llm_seed = LLM_SEED_BASE.wrapping_add(seed);
    config.faults = (faults > 0.0).then(|| FaultSpec {
        intensity: faults,
        horizon: Duration::from_secs(60),
        seed: FAULT_SEED.wrapping_add(seed),
    });
    let mut session = engine.spawn_session(config);
    session.agent.train();
    let scenario_impl = ira::worldmodel::scenario::lookup(scenario).expect("registered scenario");
    let world = session.env.world.clone();
    let run = evaluate_scenario(&mut session.agent, scenario_impl.as_ref(), &world);
    Cell {
        scenario: scenario.to_string(),
        seed,
        faults,
        quiz_items: run.consistency.total(),
        consistent: run.consistency.consistent_count(),
        mean_confidence: run.consistency.mean_confidence(),
        learning_rounds: run.total_learning_rounds(),
        searches: run.total_searches(),
        memory_entries: session.agent.memory().entries().len(),
        provenance_clean: run.provenance.clean(),
    }
}

fn main() {
    let threads = threads_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");

    let scenarios: Vec<&'static str> = ScenarioRegistry::standard().names();
    let (mode, seeds, fault_levels): (&str, Vec<u64>, Vec<f64>) = if smoke {
        ("smoke", vec![0], vec![0.0])
    } else {
        ("full", vec![0, 1, 2], vec![0.0, 0.25])
    };

    print!(
        "{}",
        banner(
            "M1",
            "scenario matrix",
            "each scenario generates its own corpus and ground truth; the agent is graded \
             against answers the world model actually produces, per seed and fault level"
        )
    );
    println!("mode: {mode}\n");

    let mut grid: Vec<(&'static str, u64, f64)> = Vec::new();
    for scenario in &scenarios {
        for &seed in &seeds {
            for &faults in &fault_levels {
                grid.push((scenario, seed, faults));
            }
        }
    }

    let start = std::time::Instant::now();
    let engine = Engine::new();
    let cells: Vec<Cell> = sweep(grid, threads, |_, (scenario, seed, faults)| {
        run_cell(&engine, scenario, seed, faults)
    });

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.scenario.clone(),
                c.seed.to_string(),
                format!("{:.2}", c.faults),
                format!("{}/{}", c.consistent, c.quiz_items),
                format!("{:.1}", c.mean_confidence),
                c.learning_rounds.to_string(),
                c.searches.to_string(),
                c.memory_entries.to_string(),
                if c.provenance_clean { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "scenario",
                "seed",
                "faults",
                "consistent",
                "mean-conf",
                "learn-rounds",
                "searches",
                "memory",
                "prov-clean",
            ],
            &rows
        )
    );
    print_timing(threads, start.elapsed(), engine.corpus_builds());

    // Per-scenario regression floor (ISSUE 9): before the sim-LLM
    // learned scenario-class rules, three of four scenarios scored
    // 0/N consistent with zero learning rounds and zero searches. Any
    // cell regressing to that no-learning state fails the run before
    // the report is written, so the defect can't silently return
    // behind a regenerated baseline.
    let mut floor_violations = Vec::new();
    for c in &cells {
        if c.consistent == 0 || c.learning_rounds == 0 || c.searches == 0 {
            floor_violations.push(format!(
                "{} seed {} faults {:.2}: consistent {}/{}, rounds {}, searches {}",
                c.scenario,
                c.seed,
                c.faults,
                c.consistent,
                c.quiz_items,
                c.learning_rounds,
                c.searches
            ));
        }
    }
    if !floor_violations.is_empty() {
        eprintln!("per-scenario floor FAILED (consistent, rounds, and searches must be nonzero):");
        for v in &floor_violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }

    let report = Report {
        bench: "m1_scenario_matrix".to_string(),
        mode: mode.to_string(),
        scenarios: scenarios.iter().map(|s| s.to_string()).collect(),
        cells,
    };

    let out = if smoke {
        "results/BENCH_scenarios_smoke.json"
    } else {
        "results/BENCH_scenarios.json"
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
